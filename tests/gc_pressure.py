"""A run that keeps thousands of tracked objects in flight, measured in
collector passes.

``CHAINS`` timer chains hop ``HOPS`` times each.  Every pending hop holds a
fresh event, its callbacks list, a ``TimerHandle`` and its heap tuple; every
executed hop appends a record that outlives the run (like a monitoring
history), which supplies the net allocation growth that drives young
collections.  None of it is cyclic garbage, so every oldest-generation
collection inside ``run()`` is pure rescanning.

Run in a fresh interpreter so the collector's long-lived object count is the
same on every run::

    PYTHONPATH=src python tests/gc_pressure.py            # kernel as shipped
    PYTHONPATH=src python tests/gc_pressure.py --unpaced  # default thresholds

It prints one JSON line: ``collections`` is the per-generation
``gc.get_stats()`` delta over ``run()``, youngest first.
"""

from __future__ import annotations

import gc
import json
import sys

from repro.simnet import engine
from repro.simnet.engine import Simulator

CHAINS = 2000
HOPS = 40


def run_chains(chains: int = CHAINS, hops: int = HOPS) -> dict:
    sim = Simulator()
    log = []

    def start(chain: int) -> None:
        left = [hops]

        def hop(ev) -> None:
            log.append((sim.now, ev))
            left[0] -= 1
            if left[0]:
                nxt = sim.event()
                nxt.add_callback(hop)
                sim.call_later(0.001 * (1 + (chain * 7 + left[0]) % 13), nxt.succeed)

        first = sim.event()
        first.add_callback(hop)
        sim.call_later(0.001 * (1 + chain % 13), first.succeed)

    for chain in range(chains):
        start(chain)
    gc.collect()
    before = [gen["collections"] for gen in gc.get_stats()]
    sim.run()
    after = [gen["collections"] for gen in gc.get_stats()]
    return {
        "hops": len(log),
        "events": sim.stats().events_processed,
        "collections": [b - a for a, b in zip(before, after)],
    }


if __name__ == "__main__":
    if "--unpaced" in sys.argv[1:]:
        # max(current, 0) keeps the interpreter's own thresholds in run()
        engine._RUN_GC_THRESHOLD = 0
    print(json.dumps(run_chains()))
