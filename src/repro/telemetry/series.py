"""MetricSeries: compact windowed aggregation of one scalar metric.

A :class:`MetricSeries` buckets ``(t, value)`` observations into fixed
virtual-time windows and summarizes each bucket as count/sum/mean/p50/p99.
Everything is deterministic: percentiles use the nearest-rank method on the
sorted bucket, and bucket boundaries are pure arithmetic on ``t``.

Used by :mod:`repro.telemetry.kpis` for per-link utilization curves and
per-flow distribution summaries; usable standalone for ad-hoc analysis::

    series = MetricSeries("rtt", window=0.5)
    series.add(1.2, 0.004)
    series.summarize()      # [{"t0": 1.0, "count": 1, ...}]
    series.to_csv(path)
"""

from __future__ import annotations

import json
import math
from typing import Dict, List, Optional, Union

__all__ = ["MetricSeries", "percentile"]


def percentile(sorted_values: List[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 1]) of a sorted list."""
    if not sorted_values:
        raise ValueError("percentile of an empty list")
    rank = int(math.ceil(q * len(sorted_values)))
    if rank < 1:
        rank = 1
    return sorted_values[rank - 1]


class MetricSeries:
    """Windowed scalar series with deterministic summary statistics.

    ``window=None`` keeps everything in a single bucket (useful for
    whole-run distributions, e.g. per-flow goodput across flows).
    """

    def __init__(self, name: str, window: Optional[float] = None) -> None:
        if window is not None and window <= 0.0:
            raise ValueError(f"window must be positive, got {window!r}")
        self.name = name
        self.window = window
        self._windows: Dict[int, List[float]] = {}

    def add(self, t: float, value: float) -> None:
        """Record ``value`` observed at virtual time ``t``."""
        idx = 0 if self.window is None else int(t // self.window)
        self._windows.setdefault(idx, []).append(float(value))

    def __len__(self) -> int:
        return sum(len(v) for v in self._windows.values())

    def summarize(self) -> List[Dict[str, Union[float, int]]]:
        """Per-bucket summaries, ordered by bucket start time."""
        out: List[Dict[str, Union[float, int]]] = []
        for idx in sorted(self._windows):
            values = sorted(self._windows[idx])
            total = sum(values)
            out.append(
                {
                    "t0": 0.0 if self.window is None else idx * self.window,
                    "count": len(values),
                    "sum": total,
                    "mean": total / len(values),
                    "p50": percentile(values, 0.50),
                    "p99": percentile(values, 0.99),
                }
            )
        return out

    def to_json(self) -> str:
        """Canonical JSON dump (sorted keys, compact separators)."""
        payload = {"name": self.name, "window": self.window, "buckets": self.summarize()}
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))

    def to_csv(self, path: str) -> None:
        """Write the bucket summaries as a CSV file."""
        rows = self.summarize()
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("t0,count,sum,mean,p50,p99\n")
            for row in rows:
                fh.write(
                    f"{row['t0']!r},{row['count']},{row['sum']!r},"
                    f"{row['mean']!r},{row['p50']!r},{row['p99']!r}\n"
                )
