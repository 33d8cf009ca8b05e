"""Shared helpers used across the test modules."""

from __future__ import annotations

#: CPython's default collector thresholds
DEFAULT_GC = (700, 10, 10)


def run(fw, gen, max_time=60.0):
    """Run a generator to completion inside a framework's simulator."""
    return fw.sim.run(until=fw.sim.process(gen), max_time=max_time)
