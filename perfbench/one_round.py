"""One benchmark round in a fresh interpreter.

    python3 perfbench/one_round.py --workload grid_chunked --seed 3 [--trace] [--spans PATH]

Builds the workload's scenario (timed as set-up), runs it with the garbage
collector on (timed as the run phase), and prints one JSON line with the
host times, the simulated outputs and the kernel counters.  With
``--trace`` the layer wrappers of :mod:`tracing` are installed first and
the line also carries the per-layer aggregates; ``--spans`` writes the
recorded spans to a file.  :mod:`run` starts this script once per round.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import workloads  # noqa: E402


def _rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def execute(workload, seed, tracer=None, spans_path=None):
    """Build, run and measure one round; returns the round record."""
    start = time.perf_counter()
    scenario = workloads.build(workload, seed)
    try:
        return _measure(workload, scenario, start, tracer, spans_path)
    finally:
        scenario.close()  # stops the process executor's workers


def _measure(workload, scenario, start, tracer, spans_path):
    sims = [t.sim for t in scenario.rows.values()] if workload == "mw_ladder" else [scenario.sim]
    process_pool = workload == "grid_chunked_p2"
    if process_pool:
        # registered before the workers fork, so each replica carries it
        scenario.sim.register_collector("perfbench.rss", lambda _p: _rss_mb())
        if tracer is not None:
            scenario.sim.register_collector(
                "perfbench.trace", lambda _p: (tracer.summary(), tracer.spans())
            )
    setup_s = time.perf_counter() - start

    start = time.perf_counter()
    scenario.run()
    run_s = time.perf_counter() - start

    record = {
        "setup_s": setup_s,
        "run_s": run_s,
        "build_s": scenario.build_s,
        "boot_s": scenario.boot_s,
        "messages": scenario.messages,
        "outputs": scenario.outputs(),
    }
    stats = [sim.stats() for sim in sims]
    record["engine"] = {
        "events": sum(s.events_processed for s in stats),
        "timers_scheduled": sum(s.timers_scheduled for s in stats),
        "cancellations": sum(s.cancellations for s in stats),
        "peak_pending": max(s.peak_pending for s in stats),
    }
    if workload == "mw_ladder":
        record["table1_max_err_pct"] = workloads.table1_max_err_pct(scenario.ladder)
        record["payload_bytes"] = scenario.payload_bytes
        record["attempted"] = scenario.attempted
        record["failed"] = scenario.failed
    else:
        record["stream_bytes"] = scenario.stream_bytes
        record["relay_sessions"] = scenario.relay_sessions()
        record["faults"] = scenario.faults()
    rss = _rss_mb()
    worker_traces = []
    if process_pool:
        sim = scenario.sim
        rss += sum(sim.collect("perfbench.rss"))
        record["partition"] = {
            "windows": sim.windows_run,
            "mailbox_deliveries": sim.mailbox_deliveries,
            "shard_events": [s.events_processed for s in sim.partition_stats()],
        }
        if tracer is not None:
            worker_traces = sim.collect("perfbench.trace")
            # parent time spent shipping windows to the workers and waiting
            # for their replies, over the parent's run phase
            totals = tracer.summary()["total"]
            record["parent_wait_share"] = totals["partition.run_window"] / totals["engine.run"]
    record["peak_rss_MB"] = rss
    if tracer is not None:
        from tracing import merge_summaries

        record["trace"] = merge_summaries(
            [tracer.summary()] + [summary for summary, _spans in worker_traces]
        )
        if spans_path:
            tracer.write_spans(spans_path, [spans for _summary, spans in worker_traces])
    return record


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        record = execute(args.workload, args.seed, tracer, args.spans)
    finally:
        if tracer is not None:
            tracer.uninstall()
    print(json.dumps(record))


if __name__ == "__main__":
    main()
