"""The repository benchmark: one workload, measured, checked and reported.

    python3 perfbench/run.py --workload grid_chunked --seed 1 --seconds 20 --trace 0

Runs rounds of the workload (:mod:`workloads`), each in a fresh interpreter
(:mod:`one_round`) with the garbage collector on and no calibration scaling,
for ``--seconds`` seconds (at least ``MIN_ROUNDS`` rounds while they fit
in ``RUN_CAP_S``, and none after ``MAX_FAILED_ROUNDS`` failed).  Every round's
simulated outputs are checked against the invariants (every stream
delivers all its bytes, every echo and reply is correct), against the
per-seed references in ``references.json`` where the seed has one, and
against the run's first round.  ``attempted`` and ``failed`` in the result
count those checks; a round that crashes counts as one failed operation.

``--trace 0`` reports the end-to-end metrics, each the median over the
run's rounds.  ``--trace 1`` alternates untraced and traced rounds
(:mod:`tracing`) and reports the per-layer metrics; a traced round whose
simulated outputs differ from the untraced round's makes the run
incorrect.  The last line of standard output is the JSON result; the lines
before it print every metric with its unit, the round count and the
machine fingerprint, which is also stamped on the record appended to
``.perfbench_out/records.jsonl``.  Records compare only when their
fingerprints match (:func:`same_machine`).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
from statistics import mean, median, median_low
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench_out")
ROUND = [sys.executable, os.path.join(HERE, "one_round.py")]
WORKLOADS = ("grid_chunked", "grid_bulk", "mw_ladder", "grid_chunked_p2")
MIN_ROUNDS = 3
#: a run stops starting rounds once this many have failed
MAX_FAILED_ROUNDS = 3
#: wall-clock cap on one run, inside the 180 s a run may take
RUN_CAP_S = 150.0

#: which end-to-end metric each layer's metrics should move, and where
#: ("*" = every workload).
LAYER_TARGETS = {
    "engine": [("run_s", "grid_chunked"), ("msgs_per_s", "mw_ladder"), ("peak_rss_MB", "*")],
    "network": [("payload_MBps", "grid_chunked"), ("payload_MBps", "grid_bulk")],
    "tcp": [("payload_MBps", "grid_chunked"), ("payload_MBps", "grid_bulk")],
    "fluid": [("payload_MBps", "grid_bulk")],
    "partition": [("run_s", "grid_chunked_p2")],
    "vlink": [("run_s", "grid_chunked")],
    "relay": [("run_s", "grid_chunked")],
    "circuit": [("msgs_per_s", "mw_ladder")],
    "sysio": [("run_s", "grid_chunked")],
    "netaccess": [("msgs_per_s", "mw_ladder")],
    "madio": [("msgs_per_s", "mw_ladder")],
    "madeleine": [("msgs_per_s", "mw_ladder")],
    "mpi": [("msgs_per_s", "mw_ladder")],
    "corba": [("msgs_per_s", "mw_ladder")],
    "soap": [("msgs_per_s", "mw_ladder")],
    "javasockets": [("msgs_per_s", "mw_ladder")],
    "monitoring": [("run_s", "grid_chunked"), ("run_s", "grid_bulk")],
    "cost": [("msgs_per_s", "mw_ladder")],
    "core": [("setup_s", "*")],
    "ladder": [("table1_max_err_pct", "mw_ladder")],
    "trace": [],
}


class RoundFailed(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# machine fingerprint and records
# ---------------------------------------------------------------------------


def source_digest():
    """SHA-256 over the program and benchmark sources (the checkout need not
    be a git repository, so this stands in for the commit)."""
    digest = hashlib.sha256()
    for base in (os.path.join(ROOT, "src", "repro"), HERE):
        for folder, dirs, files in sorted(os.walk(base)):
            dirs.sort()
            for name in sorted(files):
                if name.endswith((".py", ".json")):
                    path = os.path.join(folder, name)
                    digest.update(os.path.relpath(path, ROOT).encode("utf-8"))
                    with open(path, "rb") as handle:
                        digest.update(handle.read())
    return digest.hexdigest()[:16]


def fingerprint():
    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "source": source_digest(),
    }


def same_machine(a, b):
    """Records compare only when cores, Python and platform match."""
    keys = ("cores", "python", "platform", "machine")
    return all(a["fingerprint"][k] == b["fingerprint"][k] for k in keys)


def append_record(record):
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, "records.jsonl"), "a", encoding="utf-8") as out:
        out.write(json.dumps(record) + "\n")


# ---------------------------------------------------------------------------
# rounds
# ---------------------------------------------------------------------------


def launch(workload, seed, trace=False, spans=None, runner=ROUND, timeout=RUN_CAP_S):
    """Run one round in a fresh interpreter; returns its record."""
    cmd = [*runner, "--workload", workload, "--seed", str(seed)]
    if trace:
        cmd.append("--trace")
    if spans:
        cmd += ["--spans", spans]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, capture_output=True, text=True, timeout=max(timeout, 1.0)
        )
    except subprocess.TimeoutExpired as exc:
        raise RoundFailed(f"{workload} round timed out after {exc.timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RoundFailed(f"{workload} round failed ({proc.returncode}):\n{proc.stderr[-4000:]}")
    return json.loads(lines[-1])


def load_references():
    with open(os.path.join(HERE, "references.json"), encoding="utf-8") as handle:
        return json.load(handle)


def reference_for(refs, workload, seed):
    """The recorded outputs of ``workload`` at ``seed``, or None."""
    if workload == "mw_ladder":
        return refs["mw_ladder"]
    entry = refs.get(workload, {}).get(str(seed))
    if entry is None:
        return None
    if "base" in entry:  # stored as differences from another workload's
        streams = [list(s) for s in reference_for(refs, entry["base"], seed)["streams"]]
        for index, stream in entry["changed"].items():
            streams[int(index)] = stream
    else:
        instants = [t for t, repeat in entry["instants"] for _ in range(repeat)]
        sizes = entry.get("bytes") or [entry["stream_bytes"]] * len(instants)
        streams = [[n, t] for n, t in zip(sizes, instants)]
    return {"streams": streams, "virtual_end": entry["virtual_end"]}


def check(workload, record, reference, first):
    """Count (attempted, failed) operations of one round's outputs."""
    out = record["outputs"]
    if workload == "mw_ladder":  # echoes and replies, then each row's Table 1 values
        rows = out["ladder"]
        mismatches = sum(values != reference["ladder"].get(row) for row, values in rows.items())
        return record["attempted"] + len(rows), record["failed"] + mismatches
    attempted = failed = 0
    expect = [reference, first["outputs"] if first is not None else None]
    for i, stream in enumerate(out["streams"]):
        attempted += 1
        nbytes, instant = stream
        bad = nbytes != record["stream_bytes"] or instant is None
        for other in expect:
            bad = bad or (other is not None and other["streams"][i] != stream)
        failed += bad
    attempted += 1  # the final virtual instant
    failed += any(o is not None and o["virtual_end"] != out["virtual_end"] for o in expect)
    return attempted, failed


def payload_bytes(record):
    if "payload_bytes" in record:
        return record["payload_bytes"]
    return sum(nbytes for nbytes, _t in record["outputs"]["streams"])


class Run:
    """Rounds of one workload and their checks."""

    def __init__(self, workload, seed, runner=ROUND):
        self.workload = workload
        self.seed = seed
        self.runner = runner
        self.reference = reference_for(load_references(), workload, seed)
        self.started = time.perf_counter()
        self.attempted = 0
        self.failed = 0
        self.first = None
        self.notes = []
        self.measuring_since = None  # when the first measured round began
        self.last = None  # when the last one began

    def remaining(self):
        return RUN_CAP_S - (time.perf_counter() - self.started)

    def round(self, trace=False, spans=None, workload=None):
        workload = workload or self.workload
        try:
            record = launch(workload, self.seed, trace, spans, self.runner, self.remaining())
        except RoundFailed as exc:
            self.notes.append(str(exc))
            self.attempted += 1
            self.failed += 1
            return None
        if workload == self.workload:
            attempted, failed = check(workload, record, self.reference, self.first)
            self.first = self.first or record
            self.attempted += attempted
            self.failed += failed
        return record

    def ladder(self):
        """One untimed mw_ladder round, checked like the rest, that gives the
        Table 1 figures of a run on another workload."""
        record = self.round(workload="mw_ladder")
        if record is not None:
            attempted, failed = check("mw_ladder", record, load_references()["mw_ladder"], None)
            self.attempted += attempted
            self.failed += failed
        return record

    def keep_going(self, seconds, done):
        """Whether to start another round (or traced pair) after the ``done``
        ones: until ``MIN_ROUNDS`` are done and ``seconds`` have passed since
        the first began, but only while one more still fits in ``RUN_CAP_S``
        and fewer than ``MAX_FAILED_ROUNDS`` rounds have failed."""
        now = time.perf_counter()
        if self.last is None:
            self.measuring_since = self.last = now
        took, self.last = now - self.last, now
        if len(self.notes) >= MAX_FAILED_ROUNDS or self.remaining() < took:
            return False
        return len(done) < MIN_ROUNDS or now - self.measuring_since + took <= seconds


def end_to_end(rounds, ladder):
    """End-to-end metrics: medians over the rounds; ``ladder`` is the
    mw_ladder round that gives the Table 1 accuracy."""
    return {
        "setup_s": median([r["setup_s"] for r in rounds]),
        "run_s": median([r["run_s"] for r in rounds]),
        "payload_MBps": median([payload_bytes(r) / 1e6 / r["run_s"] for r in rounds]),
        "msgs_per_s": median([r["messages"] / r["run_s"] for r in rounds]),
        "peak_rss_MB": median([r["peak_rss_MB"] for r in rounds]),
        "table1_max_err_pct": ladder["table1_max_err_pct"],
    }


def measure(workload, seed, seconds, runner=ROUND):
    """Untraced rounds for ``seconds``; returns (run, rounds, metrics)."""
    run = Run(workload, seed, runner)
    ladder = None if workload == "mw_ladder" else run.ladder()
    rounds = []
    while run.keep_going(seconds, rounds):
        record = run.round()
        if record is not None:
            rounds.append(record)
    if not rounds or (ladder is None and workload != "mw_ladder"):
        return run, rounds, None
    return run, rounds, end_to_end(rounds, ladder or rounds[0])


# ---------------------------------------------------------------------------
# traced run
# ---------------------------------------------------------------------------


def layer_metrics(traced, untraced, ladder, companion):
    """Per-layer metrics of one traced round (plus the run's context)."""
    t = traced["trace"]
    calls, self_s = t["calls"], t["self"]

    def layer_self(layer):
        return sum(v for k, v in self_s.items() if k.split(".", 1)[0] == layer)

    eng = traced["engine"]
    fluid_rounds, packet_rounds = t["fluid_rounds"], calls["fluid.packet_round"]
    part = traced.get("partition")
    m = {
        "engine.events": eng["events"],
        "engine.timers_scheduled": eng["timers_scheduled"],
        "engine.cancellations": eng["cancellations"],
        "engine.peak_pending": eng["peak_pending"],
        "engine.self_s": layer_self("engine"),
        "network.transmits": calls["network.transmit"],
        "network.bytes": t["tallies"].get("network.bytes", 0),
        "network.self_s": layer_self("network"),
        "tcp.sends": calls["tcp.send"],
        "tcp.reads": calls["tcp.read"],
        "tcp.self_s": layer_self("tcp"),
        "fluid.epochs": t["fluid_epochs"],
        "fluid.fluid_rounds": fluid_rounds,
        "fluid.packet_rounds": packet_rounds,
        "fluid.round_share": (
            fluid_rounds / (fluid_rounds + packet_rounds) if fluid_rounds + packet_rounds else 0.0
        ),
        "fluid.invalidations": calls["fluid.invalidate"],
        "fluid.self_s": layer_self("fluid"),
        "partition.windows": part["windows"] if part else 0,
        "partition.mailbox_deliveries": part["mailbox_deliveries"] if part else 0,
        "partition.shard_imbalance": (
            max(part["shard_events"]) / mean(part["shard_events"]) if part else 0.0
        ),
        "partition.worker_busy_s": t["total"]["engine.worker_window"],
        "partition.parent_wait_share": traced.get("parent_wait_share", 0.0),
        "partition.event_gap": 0,
        "partition.divergent_streams": 0,
        "vlink.writes": calls["vlink.write"],
        "vlink.reads": calls["vlink.read"],
        "vlink.self_s": layer_self("vlink"),
        "relay.sessions": traced.get("relay_sessions", 0),
        "circuit.sends": calls["circuit.send"],
        "circuit.recvs": calls["circuit.recv"],
        "circuit.self_s": layer_self("circuit"),
        "sysio.writes": calls["sysio.write"],
        "sysio.self_s": layer_self("sysio"),
        "netaccess.dispatches": calls["netaccess.dispatch"],
        "netaccess.self_s": layer_self("netaccess"),
        "madio.sends": calls["madio.send"],
        "madio.self_s": layer_self("madio"),
        "madeleine.sends": calls["madeleine.send"],
        "madeleine.packs": calls["madeleine.pack"],
        "madeleine.unpacks": calls["madeleine.unpack"],
        "madeleine.self_s": layer_self("madeleine"),
        "mpi.isends": calls["mpi.isend"],
        "mpi.self_s": layer_self("mpi"),
        "corba.invokes": calls["corba.invoke"],
        "corba.self_s": layer_self("corba"),
        "soap.calls": calls["soap.call"],
        "soap.self_s": layer_self("soap"),
        "javasockets.self_s": layer_self("javasockets"),
        "monitoring.estimator_updates": calls["monitoring.estimator_update"],
        "monitoring.faults": traced.get("faults", 0),
        "monitoring.self_s": layer_self("monitoring"),
        "cost.charges": calls["cost.charge"],
        "core.build_s": median([r["build_s"] for r in untraced]),
        "core.boot_s": median([r["boot_s"] for r in untraced]),
    }
    if companion is not None:
        # the known divergence of the process executor from the single loop
        m["partition.event_gap"] = companion["engine"]["events"] - eng["events"]
        single = companion["outputs"]["streams"]
        m["partition.divergent_streams"] = sum(
            a != b for a, b in zip(single, traced["outputs"]["streams"])
        )
    for row, (latency_us, bandwidth_MBps) in ladder["outputs"]["ladder"].items():
        m[f"ladder.{row}.latency_us"] = latency_us
        m[f"ladder.{row}.bandwidth_MBps"] = bandwidth_MBps
    return m


def measure_traced(workload, seed, seconds, runner=ROUND):
    """Alternating untraced and traced rounds; returns (run, rounds, metrics)."""
    run = Run(workload, seed, runner)
    spans = os.path.join(OUT, f"spans-{workload}.bin")
    companion = run.round(workload="grid_chunked") if workload == "grid_chunked_p2" else None
    ladder = None if workload == "mw_ladder" else run.ladder()
    untraced, traced = [], []
    while run.keep_going(seconds, traced):
        plain = run.round()
        record = run.round(trace=True, spans=spans if not traced else None)
        if plain is not None:
            untraced.append(plain)
        if record is not None:
            traced.append(record)
            if plain is not None and (
                record["outputs"] != plain["outputs"] or record["engine"] != plain["engine"]
            ):
                run.notes.append("traced round changed the simulated outputs: invalid")
                run.failed += 1
    ladder = ladder or (traced[0] if traced and workload == "mw_ladder" else None)
    if not (untraced and traced) or ladder is None or (
        workload == "grid_chunked_p2" and companion is None
    ):
        return run, untraced + traced, None
    per_round = [layer_metrics(t, untraced, ladder, companion) for t in traced]
    # median_low keeps counts whole: it is always one of the measured values
    metrics = {name: median_low([m[name] for m in per_round]) for name in per_round[0]}
    metrics["trace.overhead_pct"] = 100.0 * (
        median([r["run_s"] for r in traced]) / median([r["run_s"] for r in untraced]) - 1.0
    )
    return run, untraced + traced, metrics


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------


def metric_specs(trace):
    """name -> spec of the metrics a run reports, from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        bench = json.load(handle)
    return {m["name"]: m for m in bench["per_layer" if trace else "end_to_end"]}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"perfbench: no program to measure under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2

    specs = metric_specs(args.trace)
    fp = fingerprint()
    measure_fn = measure_traced if args.trace else measure
    run, rounds, metrics = measure_fn(args.workload, args.seed, args.seconds)
    for note in run.notes:
        print(f"perfbench: {note}", file=sys.stderr)
    if metrics is None:
        print("perfbench: no round completed; no result", file=sys.stderr)
        return 1
    if set(metrics) != set(specs):
        raise SystemExit(f"perfbench: metrics out of step with BENCHMARK.json: "
                         f"{sorted(set(metrics) ^ set(specs))}")
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": v, "unit": specs[name]["unit"]} for name, v in metrics.items()},
    }
    append_record({
        "fingerprint": fp,
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "rounds": [{"setup_s": r["setup_s"], "run_s": r["run_s"], "traced": "trace" in r}
                   for r in rounds],
        **result,
    })
    print(f"# {args.workload} seed={args.seed} trace={args.trace} rounds={len(rounds)} "
          f"fingerprint={json.dumps(fp, sort_keys=True)}")
    for name, value in metrics.items():
        targets = LAYER_TARGETS.get(name.split(".")[0]) if args.trace else None
        moves = "; moves " + ", ".join(f"{m} on {w}" for m, w in targets) if targets else ""
        print(f"# {name} = {value:.6g} {specs[name]['unit']}{moves}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
