"""Show whether the benchmark's bounds catch a planted regression and pass A/A.

    python3 perfbench/gate_selftest.py

For each seed in ``SEEDS``, three untraced ``grid_chunked`` runs of
``run_seconds`` (from ``BENCHMARK.json``) are made in turn: A and A' on the
unchanged program, and P with a fixed host delay planted from outside the
program -- a wrapper on ``Network.transmit`` that busy-waits ``DELAY_US``
microseconds per call, installed by this script in P's round interpreters
only.  ``DELAY_US`` is sized to slow ``run_s`` by about 30 %, just above
its bound of 0.25.

The verdict is the comparison the bounds are meant for: a metric regresses
when the candidate's median over the seeds is worse than the baseline's
median by more than the metric's ``bound``.  The test passes when A'
against A regresses on no end-to-end metric and P against A regresses on
``run_s``.  It also prints how many single seeds, compared on their own,
trip ``run_s`` for P and for A', which shows how clear of the machine's
noise the bound stands.  Exit code 0 means it passed.
"""

from __future__ import annotations

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

SEEDS = (1, 2, 3, 4, 5)
#: busy-wait per ``Network.transmit`` call (about 25,000 calls a round)
DELAY_US = 50


def planted_round(argv):
    """A round with the delay planted on every ``Network.transmit`` call."""
    import one_round
    from repro.simnet.network import Network

    transmit = Network.transmit
    delay = DELAY_US * 1e-6

    def delayed(*args, **kwargs):
        until = time.perf_counter() + delay
        while time.perf_counter() < until:
            pass
        return transmit(*args, **kwargs)

    Network.transmit = delayed
    one_round.main(argv)


def main():
    import run
    from compare import regressions

    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        bench = json.load(handle)
    specs = bench["end_to_end"]
    bound = next(s["bound"] for s in specs if s["name"] == "run_s")
    planted = [sys.executable, os.path.abspath(__file__), "--planted-round"]
    sets = {"A": [], "P": [], "A'": []}
    for seed in SEEDS:
        for name, runner in (("A", run.ROUND), ("P", planted), ("A'", run.ROUND)):
            result, _rounds, metrics = run.measure(
                "grid_chunked", seed, bench["run_seconds"], runner
            )
            if metrics is None or result.failed:
                print(f"{name} seed {seed}: run failed: {result.notes}")
                return 1
            sets[name].append(metrics)
        a, p, a2 = (sets[name][-1]["run_s"] for name in ("A", "P", "A'"))
        print(f"seed {seed}: run_s A {a:.3f} s, P {p:.3f} s ({p / a - 1:+.1%}), "
              f"A' {a2:.3f} s ({a2 / a - 1:+.1%})", flush=True)
    for name in ("P", "A'"):
        trips = sum(c["run_s"] / a["run_s"] - 1 > bound for a, c in zip(sets["A"], sets[name]))
        print(f"{name} against A trips run_s on {trips} of {len(SEEDS)} single seeds")
    aa = regressions(sets["A"], sets["A'"], specs)
    tripped = regressions(sets["A"], sets["P"], specs)
    print(f"A/A regressions of the medians: {aa or 'none'}")
    print(f"planted regressions of the medians: {tripped or 'none'}")
    ok = not aa and any(w.startswith("run_s ") for w in tripped)
    print("gate self-test", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    if sys.argv[1:2] == ["--planted-round"]:
        planted_round(sys.argv[2:])
    else:
        sys.exit(main())
