"""TelemetryHub: the flight recorder's collection point.

Every instrumented subsystem (TCP stacks, the fluid controller, the
topology monitor, fault injectors, VLink managers, the partitioned kernel)
holds a ``telemetry`` attribute that is ``None`` by default; hot paths pay
one attribute check when recording is off.  When a hub is wired in, they
call :meth:`TelemetryHub.emit` with a kind string and flat JSON-compatible
fields.

Event shape
-----------

Each event is a flat dict::

    {"t": <virtual time, float>, "p": <partition>, "s": <per-partition seq>,
     "k": <kind>, ...kind-specific fields...}

``t`` is the *model* time of the fact (not necessarily the emission time:
the fluid fast path emits a committed epoch's per-round events when the
epoch resolves, stamped with the rounds' planned times), so the stream is
not globally t-sorted; analysis code canonicalizes order
(:func:`repro.telemetry.kpis.canonical_events`).

Determinism
-----------

On a single event loop, events append straight to :attr:`events` (and the
JSONL file, if one is attached).  On a partitioned kernel each shard
appends to its own buffer — shard-local, so the thread executor needs no
locks — and the facade drains the buffers at every window barrier, sorted
by ``(t, p, s)``: a deterministic function of per-shard streams that are
themselves trace-exact, so the merged stream is identical across the
round-robin and thread executors.

JSONL lines are written with sorted keys and no whitespace; floats
round-trip exactly through JSON, which is what makes replayed KPI output
byte-identical to the live run's (see :mod:`repro.telemetry.replay`).
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional

__all__ = ["TelemetryHub", "event_line"]


def event_line(ev: Dict[str, Any]) -> str:
    """The canonical JSONL encoding of one event (no trailing newline)."""
    return json.dumps(ev, sort_keys=True, separators=(",", ":"))


class TelemetryHub:
    """Collects typed telemetry events from an instrumented simulation.

    Parameters
    ----------
    sim:
        The simulator (single-loop or partitioned facade) whose clock and
        partition context stamp the events.
    jsonl_path:
        Optional path; when given, every event is also streamed to this
        file as one JSON line (written in commit order).
    engine_window:
        Virtual-time interval between ``engine.window`` samples (per-shard
        event/timer counter deltas).  ``None`` disables periodic sampling;
        a final cumulative sample is always taken by :meth:`flush`.
    """

    def __init__(
        self,
        sim,
        *,
        jsonl_path: Optional[str] = None,
        engine_window: Optional[float] = 0.25,
    ) -> None:
        self.sim = sim
        self.events: List[Dict[str, Any]] = []
        nparts = sim.partition_count
        self._nparts = nparts
        self._seq = [0] * nparts
        self._buffers: List[List[Dict[str, Any]]] = [[] for _ in range(nparts)]
        self._engine_window = engine_window
        self._next_engine = engine_window if engine_window is not None else None
        self._engine_prev: List[Optional[Dict[str, int]]] = [None] * nparts
        self._observed_networks: Dict[Any, Any] = {}
        self.jsonl_path = jsonl_path
        self._file = open(jsonl_path, "w", encoding="utf-8") if jsonl_path else None
        self.closed = False
        # process-executor worker replicas capture shard emissions locally
        # and ship them to the parent at each window barrier; None in the
        # parent / under in-process executors (see begin_worker_capture)
        self._worker_index: Optional[int] = None

    # -- collection -----------------------------------------------------------
    def emit(self, kind: str, t: Optional[float] = None, **fields: Any) -> None:
        """Record one event.  ``t`` defaults to the simulator clock."""
        sim = self.sim
        if self._worker_index is not None:
            tls = getattr(sim, "_tls", None)
            if tls is None or getattr(tls, "shard", None) is None:
                # barrier-context emission inside a worker replica (bus
                # consumers, hooks): every replica produces an identical
                # copy and the parent's is the authoritative one — drop
                # ours so the merged stream holds exactly one.
                return
        p: int = sim.current_partition
        s = self._seq[p]
        self._seq[p] = s + 1
        ev: Dict[str, Any] = {
            "t": float(sim.now if t is None else t),
            "p": p,
            "s": s,
            "k": kind,
        }
        ev.update(fields)
        if self._nparts == 1:
            self._commit(ev)
            if self._next_engine is not None and ev["t"] >= self._next_engine:
                self._sample_engine(ev["t"])
        else:
            # shard-local append; merged (deterministically) at the barrier
            self._buffers[p].append(ev)

    def _commit(self, ev: Dict[str, Any]) -> None:
        self.events.append(ev)
        if self._file is not None:
            self._file.write(event_line(ev) + "\n")

    def on_window_barrier(self, window_end: float) -> None:
        """Partitioned-kernel hook: drain shard buffers at a window barrier."""
        self._drain_buffers()
        if self._next_engine is not None and window_end >= self._next_engine:
            self._sample_engine(window_end)

    def _drain_buffers(self) -> None:
        pending: List[Dict[str, Any]] = []
        for buf in self._buffers:
            if buf:
                pending.extend(buf)
                del buf[:]
        if pending:
            pending.sort(key=lambda ev: (ev["t"], ev["p"], ev["s"]))
            for ev in pending:
                self._commit(ev)

    # -- engine counters ------------------------------------------------------
    def _sample_engine(self, now: float) -> None:
        """Emit per-shard ``engine.window`` counter deltas up to ``now``."""
        window = self._engine_window
        if window is not None:
            # advance to the next boundary strictly beyond `now`
            nxt = self._next_engine
            while nxt is not None and nxt <= now:
                nxt += window
            self._next_engine = nxt
        partition_stats = getattr(self.sim, "partition_stats", None)
        shards = partition_stats() if partition_stats is not None else [self.sim.stats()]
        for i, st in enumerate(shards):
            cur = st.as_dict()
            prev = self._engine_prev[i]
            self._engine_prev[i] = cur
            if prev == cur:
                # nothing happened on this shard since the last sample;
                # repeated flushes stay idempotent
                continue
            # events/timers/cancellations are windowed deltas; peak_pending
            # is cumulative (a peak has no useful delta)
            base = prev or {}
            self._commit(
                {
                    "t": float(now),
                    "p": self.sim.current_partition,
                    "s": self._bump_seq(),
                    "k": "engine.window",
                    "shard": i,
                    "events": cur["events_processed"] - base.get("events_processed", 0),
                    "timers": cur["timers_scheduled"] - base.get("timers_scheduled", 0),
                    "cancels": cur["cancellations"] - base.get("cancellations", 0),
                    "peak_pending": cur["peak_pending"],
                }
            )

    # -- process-executor plumbing --------------------------------------------
    def begin_worker_capture(self, index: int) -> None:
        """Switch this (fork-inherited) hub replica into worker-capture mode.

        Shard emissions buffer locally and are drained by
        :meth:`take_worker_events`; barrier-context emissions are dropped
        (the parent's copy is authoritative) and no JSONL stream is written
        from the worker."""
        self._worker_index = index
        self._file = None

    def take_worker_events(self) -> List[Dict[str, Any]]:
        """Drain and return every buffered shard emission (worker side)."""
        taken: List[Dict[str, Any]] = []
        for buf in self._buffers:
            if buf:
                taken.extend(buf)
                del buf[:]
        return taken

    def absorb_worker_events(self, events: List[Dict[str, Any]]) -> None:
        """Re-stamp worker-shipped events with this hub's per-partition
        sequence counters and buffer them for the barrier drain.

        Only the relative order of each partition's emissions matters for
        the ``(t, p, s)`` merge, and worker shard emissions always precede
        the parent's barrier-context emissions within a window, so
        restamping in arrival order reproduces the round-robin sequence
        assignment exactly."""
        for ev in events:
            p = ev["p"]
            ev["s"] = self._seq[p]
            self._seq[p] = ev["s"] + 1
            self._buffers[p].append(ev)

    def _bump_seq(self) -> int:
        p = self.sim.current_partition
        s = self._seq[p]
        self._seq[p] = s + 1
        return s

    # -- network attachment ---------------------------------------------------
    def observe_network(self, network) -> None:
        """Attach to ``network``'s observer fan-out (frames + losses)."""
        if network in self._observed_networks:
            return

        def _observer(net, kind, info, _hub=self):
            if kind == "frame":
                frame = info["frame"]
                meta = frame.meta
                begin = meta["tx_begin"]
                _hub.emit(
                    "link.tx",
                    t=begin,
                    net=net.name,
                    src=frame.src.name,
                    dst=frame.dst.name,
                    nbytes=frame.nbytes,
                    begin=begin,
                    end=meta["tx_end"],
                    qd=begin - net.sim.now,
                )
            elif kind == "blackhole":
                frame = info["frame"]
                _hub.emit(
                    "link.loss",
                    net=net.name,
                    nbytes=frame.nbytes,
                    reason="blackhole",
                )
            elif kind == "datagram-lost":
                _hub.emit(
                    "link.loss",
                    net=net.name,
                    nbytes=info.get("nbytes", 0),
                    reason=info.get("reason", "loss"),
                )
            # "tcp-burst" observations are consumed by passive probes; the
            # hub's flow.round / fluid.* events already carry that story.

        self._observed_networks[network] = network.add_observer(_observer)

    def release_networks(self) -> None:
        """Detach every observer installed by :meth:`observe_network`."""
        for network, fn in self._observed_networks.items():
            network.remove_observer(fn)
        self._observed_networks.clear()

    # -- lifecycle ------------------------------------------------------------
    def flush(self) -> None:
        """Drain shard buffers, take a final engine sample, flush the file."""
        self._drain_buffers()
        self._sample_engine(float(self.sim.now))
        if self._file is not None:
            self._file.flush()

    def close(self) -> None:
        """Flush and close the JSONL file (idempotent)."""
        if self.closed:
            return
        self.flush()
        self.closed = True
        if self._file is not None:
            self._file.close()
            self._file = None

    def __len__(self) -> int:
        return len(self.events) + sum(len(b) for b in self._buffers)
