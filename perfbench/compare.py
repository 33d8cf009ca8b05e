"""Compare benchmark records of two versions of the program.

    python3 perfbench/compare.py BASE HEAD [--records .perfbench_out/records.jsonl]

``BASE`` and ``HEAD`` are source digests, as stamped on every record by
``run.py`` (``fingerprint.source``).  For each workload, the untraced
records of each version are compared metric by metric: the medians of the
per-run values, the change, and whether the change exceeds the metric's
bound in ``BENCHMARK.json``.  Records are compared only when their machine
fingerprints (cores, Python version, platform) match; others are skipped
and counted.  Exit code 1 when some metric regressed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from run import OUT, ROOT, same_machine  # noqa: E402


def regressions(baseline, candidate, specs):
    """Metrics on which ``candidate`` is worse than ``baseline`` by more
    than their bound; both are lists of per-run metric dicts."""
    worse = []
    for spec in specs:
        name = spec["name"]
        base = statistics.median(m[name] for m in baseline)
        cand = statistics.median(m[name] for m in candidate)
        change = (cand - base) / base if spec["better"] == "lower" else (base - cand) / base
        if change > spec["bound"]:
            worse.append(f"{name} {change:+.1%} > {spec['bound']:.0%}")
    return worse


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base")
    parser.add_argument("head")
    parser.add_argument("--records", default=os.path.join(OUT, "records.jsonl"))
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        specs = json.load(handle)["end_to_end"]
    with open(args.records, encoding="utf-8") as handle:
        records = [json.loads(line) for line in handle if line.strip()]
    records = [r for r in records if r["trace"] == 0]
    base = [r for r in records if r["fingerprint"]["source"] == args.base]
    head = [r for r in records if r["fingerprint"]["source"] == args.head]
    if not base or not head:
        print("no untraced records for one of the two versions")
        return 2
    matching = [r for r in head if same_machine(r, base[0])]
    base = [r for r in base if same_machine(r, base[0])]
    if len(matching) < len(head):
        print(f"skipped {len(head) - len(matching)} head records from another machine")
    regressed = False
    for workload in sorted({r["workload"] for r in base} & {r["workload"] for r in matching}):
        b = [{k: v["value"] for k, v in r["metrics"].items()} for r in base
             if r["workload"] == workload]
        h = [{k: v["value"] for k, v in r["metrics"].items()} for r in matching
             if r["workload"] == workload]
        worse = regressions(b, h, specs)
        regressed = regressed or bool(worse)
        print(f"{workload}: {len(b)} base runs, {len(h)} head runs")
        for spec in specs:
            name = spec["name"]
            mb = statistics.median(m[name] for m in b)
            mh = statistics.median(m[name] for m in h)
            print(f"  {name:20s} {mb:12.6g} -> {mh:12.6g} {spec['unit']:5s} "
                  f"({(mh - mb) / mb:+.1%}, bound {spec['bound']:.0%})")
        print(f"  regressions: {worse or 'none'}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
