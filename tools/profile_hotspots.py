#!/usr/bin/env python
"""Profile the engine-scale benchmark scenarios and report hot spots.

Runs one deployment scenario (packet fidelity via the classic VLink
workload, or the fluid bulk-stream workload at either fidelity) under
:mod:`cProfile` and prints the top functions by cumulative time.  The
``--json`` flag writes a machine-readable artifact so CI can archive a
nightly profile next to the benchmark numbers and regressions can be
diffed function-by-function instead of re-measured from scratch.

Usage::

    python tools/profile_hotspots.py --size medium --fidelity hybrid
    python tools/profile_hotspots.py --size large --fidelity packet \
        --workload fluid --top 40 --json profile.json

The tool lives outside pytest on purpose: profiling overhead would
poison the recorded baselines, so the benchmark suite measures clean
walls and this script owns the instrumented runs.

Next to the hotspot table of a single-process run it prints how many
collections the cyclic garbage collector ran per generation during the
profiled run (the ``gc.get_stats()`` delta; ``gc_collections`` in the
JSON artifact).
cProfile bills a collection pause to whichever function happened to
allocate, so a function with inflated self time and a high count of
oldest-generation collections points at the collector, not at that
function.  The engine-scale runners pause the collector for their timed
window after one explicit full collection, so those counts cover the
build and boot phases plus that one collection.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import io
import json
import pstats
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))
sys.path.insert(0, str(REPO / "benchmarks"))


def _run(size: str, workload: str, fidelity: str) -> dict:
    import test_engine_scale as bench

    if workload == "deployment":
        import os

        os.environ["ENGINE_FIDELITY"] = fidelity
        return bench.run_scenario(size)
    result, _finish_times = bench.run_fluid_scenario(size, fidelity)
    return result


class _ShardProfile:
    """Adapter making a worker-shipped raw ``cProfile`` stats dict loadable
    by :class:`pstats.Stats` (which wants a profiler-shaped object)."""

    def __init__(self, stats: dict) -> None:
        self.stats = stats

    def create_stats(self) -> None:
        pass


def _rows(stats: pstats.Stats, top: int) -> list:
    rows = []
    for (filename, lineno, funcname), (cc, nc, tt, ct, _callers) in sorted(
        stats.stats.items(), key=lambda item: item[1][3], reverse=True
    )[:top]:
        try:
            filename = str(Path(filename).resolve().relative_to(REPO))
        except ValueError:
            pass
        rows.append(
            {
                "function": funcname,
                "file": filename,
                "line": lineno,
                "ncalls": nc,
                "primitive_calls": cc,
                "tottime_s": round(tt, 6),
                "cumtime_s": round(ct, 6),
            }
        )
    return rows


def _gc_collections() -> list:
    """Collections run so far, per generation (youngest first)."""
    return [gen["collections"] for gen in gc.get_stats()]


def _print_gc(before: list) -> list:
    delta = [now - then for now, then in zip(_gc_collections(), before)]
    counts = " / ".join(str(n) for n in delta)
    print(f"gc collections during the profiled run (gen0 / gen1 / gen2): {counts}\n")
    return delta


def _print_stats(stats: pstats.Stats, sort: str, top: int) -> None:
    stats.sort_stats(sort)
    text = io.StringIO()
    stats.stream = text
    stats.print_stats(top)
    print(text.getvalue())


def _per_shard(args) -> int:
    """Per-worker profiling of the partitioned deployment scenario on the
    process executor: each forked worker runs ``cProfile`` around its own
    shard windows, the parent gathers the raw stats over the pipes and
    renders one hotspot table per partition — the view that shows shard
    imbalance (one hot partition) where a merged profile would not."""
    import os

    import test_engine_scale as bench

    os.environ["ENGINE_FIDELITY"] = args.fidelity
    start = time.perf_counter()
    fw, _grid, completions = bench.build_scenario(
        args.size, partitions=args.partitions, executor="process"
    )
    fw.sim.begin_profile()
    all_done = fw.sim.all_of(completions)
    delivered = fw.sim.run(until=all_done, max_time=bench.MAX_VIRTUAL)
    fw.sim.run(until=max(bench.CHURN_HORIZON, fw.sim.now), max_time=bench.MAX_VIRTUAL)
    profiles = fw.sim.end_profile()
    fw.shutdown()
    wall = time.perf_counter() - start

    shards = []
    for p, raw in enumerate(profiles or []):
        print(f"=== partition {p} (worker process {p}) ===")
        if not raw:
            print("no samples (shard never ran)\n")
            shards.append({"partition": p, "hotspots": []})
            continue
        stats = pstats.Stats(_ShardProfile(raw))
        _print_stats(stats, args.sort, args.top)
        shards.append({"partition": p, "hotspots": _rows(stats, args.top)})

    if args.json:
        artifact = {
            "size": args.size,
            "workload": "deployment",
            "fidelity": args.fidelity,
            "partitions": args.partitions,
            "executor": "process",
            "profiled_wall_s": round(wall, 3),
            "bytes_delivered": sum(delivered),
            "sort": args.sort,
            "shards": shards,
        }
        Path(args.json).write_text(json.dumps(artifact, indent=1) + "\n")
        print(f"wrote {args.json}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--size", default="medium", choices=["small", "medium", "large", "huge"]
    )
    parser.add_argument(
        "--workload",
        default="fluid",
        choices=["deployment", "fluid"],
        help="deployment = chunked VLink streams + churn; fluid = bulk TCP streams",
    )
    parser.add_argument("--fidelity", default="hybrid", choices=["packet", "hybrid"])
    parser.add_argument("--top", type=int, default=30, help="functions to print")
    parser.add_argument(
        "--sort", default="cumulative", choices=["cumulative", "tottime", "ncalls"]
    )
    parser.add_argument("--json", metavar="PATH", help="write a JSON artifact here")
    parser.add_argument(
        "--per-shard",
        action="store_true",
        help="profile the deployment workload per partition on the process "
        "executor (one cProfile inside each forked worker)",
    )
    parser.add_argument(
        "--partitions",
        type=int,
        default=2,
        help="partition count for --per-shard (default 2)",
    )
    args = parser.parse_args(argv)

    if args.per_shard:
        return _per_shard(args)

    profiler = cProfile.Profile()
    gc_before = _gc_collections()
    start = time.perf_counter()
    profiler.enable()
    result = _run(args.size, args.workload, args.fidelity)
    profiler.disable()
    wall = time.perf_counter() - start

    stats = pstats.Stats(profiler)
    _print_stats(stats, args.sort, args.top)
    gc_collections = _print_gc(gc_before)

    if args.json:
        artifact = {
            "size": args.size,
            "workload": args.workload,
            "fidelity": args.fidelity,
            "profiled_wall_s": round(wall, 3),
            "sort": args.sort,
            "result": result,
            "gc_collections": gc_collections,
            "hotspots": _rows(stats, args.top),
        }
        Path(args.json).write_text(json.dumps(artifact, indent=1) + "\n")
        print(f"wrote {args.json}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
