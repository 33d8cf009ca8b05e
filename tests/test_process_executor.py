"""Tests for the process-pool partition executor (`repro.simnet.procexec`).

The determinism acceptance (process trace == round-robin trace, framework
grid equality, barrier-hook churn) lives in ``test_partition.py`` next to
the other executors; this module covers the process-specific machinery:
the wire codec, the build-spec bootstrap, cross-address-space event
watching, error propagation from workers, the drift guard, counter
aggregation across executors, and per-shard profiling.
"""

import gc

import pytest

from repro.simnet.engine import _RUN_GC_THRESHOLD, SimulationError, Simulator
from repro.simnet.host import Host
from repro.simnet.networks import WanVthd
from repro.simnet.partition import LookaheadViolation
from repro.simnet.procexec import _WireCodec
from tests.helpers import DEFAULT_GC


# ---------------------------------------------------------------------------
# wire codec
# ---------------------------------------------------------------------------


def _boundary_pair():
    sim = Simulator(partitions=2)
    wan = WanVthd(sim, "wan-codec")
    a, b = Host(sim, "a"), Host(sim, "b")
    b.partition = 1
    wan.connect(a)
    wan.connect(b)
    return sim, wan, a, b


def test_wire_codec_frame_roundtrip():
    """Frame deliveries are encoded structurally (names + payload bytes)
    and re-resolved against the decoding replica's boundary registry."""
    from repro.simnet.network import Frame

    sim, wan, a, b = _boundary_pair()
    codec = _WireCodec(sim)
    codec.rebuild()
    frame = Frame(
        frame_id=7,
        src=a,
        dst=b,
        network=wan,
        channel=("syn", 4000),
        payload=b"\x01\x02\x03",
        meta={"arrival": 0.25, "client_conn": 3},
    )
    wire = codec.encode(wan.nic_of(b).handle_arrival, (frame, 0.25))
    assert wire[0] == "f"
    fn, (decoded, arrival) = codec.decode(wire)
    assert fn == wan.nic_of(b).handle_arrival
    assert arrival == 0.25
    assert decoded.frame_id == 7
    assert decoded.src is a and decoded.dst is b and decoded.network is wan
    assert decoded.channel == ("syn", 4000)
    assert decoded.payload == b"\x01\x02\x03"
    assert decoded.meta == frame.meta and decoded.meta is not frame.meta


def test_wire_codec_rejects_unregistered_closures():
    sim, _wan, _a, _b = _boundary_pair()
    codec = _WireCodec(sim)
    codec.rebuild()
    with pytest.raises(SimulationError, match="register_wire_handler"):
        codec.encode(lambda: None, ())


def test_wire_codec_named_handler_roundtrip():
    sim, _wan, _a, _b = _boundary_pair()
    handler = sim.register_wire_handler("test.handler", lambda x, y: (x, y))
    codec = _WireCodec(sim)
    codec.rebuild()
    wire = codec.encode(handler, (1, "two"))
    assert wire == ("h", "test.handler", (1, "two"))
    fn, args = codec.decode(wire)
    assert fn is handler and args == (1, "two")


def test_wire_decode_unknown_handler_raises():
    sim, _wan, _a, _b = _boundary_pair()
    codec = _WireCodec(sim)
    codec.rebuild()
    with pytest.raises(SimulationError, match="no handler registered"):
        codec.decode(("h", "never-registered", ()))


# ---------------------------------------------------------------------------
# counter aggregation across executors (stats / pending_count contract)
# ---------------------------------------------------------------------------


def _counting_scenario(executor):
    """Timers, cancellations and cross-partition sends on two shards;
    returns the sim (run in two phases by the caller)."""
    sim = Simulator(partitions=2, lookahead=0.01, executor=executor)
    for part in (0, 1):
        with sim.in_partition(part):
            for i in range(20):
                sim.call_later(0.001 * (i + 1), lambda: None)
            # cancelled timers count as cancellations, never as events
            for i in range(5):
                sim.call_later(0.002 * (i + 1), lambda: None).cancel()

    noop = sim.register_wire_handler("count.noop", lambda: None)

    def send(part):
        sim.call_at_partition(part, sim.now + 0.011, noop)
    sim.call_later(0.004, send, 1)
    with sim.in_partition(1):
        sim.call_later(0.006, send, 0)
    return sim


def test_stats_and_pending_agree_across_executors():
    """Satellite acceptance: ``stats()``, ``partition_stats()`` and
    ``pending_count()`` report identical numbers under round-robin and
    process — mid-run (between run() calls) and at exhaustion."""
    snapshots = {}
    for executor in (None, "process"):
        sim = _counting_scenario(executor)
        pre = sim.pending_count()
        sim.run(until=0.010)
        mid = (
            sim.pending_count(),
            sim.stats().as_dict(),
            [s.as_dict() for s in sim.partition_stats()],
        )
        sim.run()
        end = (
            sim.pending_count(),
            sim.stats().as_dict(),
            [s.as_dict() for s in sim.partition_stats()],
        )
        sim.shutdown()
        snapshots[executor] = (pre, mid, end)
    assert snapshots[None] == snapshots["process"]
    pre, _mid, end = snapshots[None]
    assert pre == 42  # 40 live timers + 2 senders (cancelled ones are gone)
    assert end[0] == 0
    assert end[1]["cancellations"] == 10
    assert end[1]["events_processed"] == 44  # 40 + 2 sends + 2 deliveries


# ---------------------------------------------------------------------------
# cross-address-space event watching
# ---------------------------------------------------------------------------


def test_run_until_composite_event_returns_values():
    sim = Simulator(partitions=2, executor="process")
    ev0, ev1 = sim.event(name="p0"), sim.event(name="p1")
    sim.call_later(0.002, ev0.succeed, "zero")
    with sim.in_partition(1):
        sim.call_later(0.003, ev1.succeed, {"one": 1})
    try:
        assert sim.run(until=sim.all_of([ev0, ev1])) == ["zero", {"one": 1}]
    finally:
        sim.shutdown()


def test_event_created_after_fork_is_rejected():
    sim = Simulator(partitions=2, executor="process")
    sim.call_later(0.001, lambda: None)
    sim.run()
    late = sim.event(name="late")
    try:
        with pytest.raises(SimulationError, match="after the workers forked"):
            sim.run(until=late)
    finally:
        sim.shutdown()


def test_unpicklable_event_value_is_a_clean_error():
    sim = Simulator(partitions=2, executor="process")
    ev = sim.event(name="socketful")
    with sim.in_partition(1):
        # the value is created inside worker 1 and cannot cross the pipe
        sim.call_later(0.001, lambda: ev.succeed({"fn": lambda: None}))
    try:
        with pytest.raises(SimulationError, match="not picklable"):
            sim.run(until=ev)
    finally:
        sim.shutdown()


# ---------------------------------------------------------------------------
# worker error propagation
# ---------------------------------------------------------------------------


def test_worker_exception_propagates_with_original_type():
    sim = Simulator(partitions=2, executor="process")

    def boom():
        raise ValueError("kaboom in the shard")

    with sim.in_partition(1):
        sim.call_later(0.002, boom)
    try:
        with pytest.raises(ValueError, match="kaboom in the shard"):
            sim.run()
    finally:
        sim.shutdown()


def test_lookahead_violation_crosses_the_pipe():
    sim = Simulator(partitions=2, lookahead=0.01, executor="process")
    sim.register_wire_handler("violate.noop", lambda: None)

    def too_fast():
        sim.call_at_partition(1, sim.now + 0.001, sim._wire_handlers["violate.noop"])

    sim.call_later(0.005, too_fast)
    try:
        with pytest.raises(LookaheadViolation):
            sim.run()
    finally:
        sim.shutdown()


def test_scheduling_between_runs_is_rejected():
    sim = Simulator(partitions=2, executor="process")
    sim.call_later(0.001, lambda: None)
    sim.run()
    # the workers would never see this: the parent's shards are shadows
    sim.call_later(0.001, lambda: None)
    try:
        with pytest.raises(SimulationError, match="between"):
            sim.run()
    finally:
        sim.shutdown()


def test_collect_falls_back_to_parent_after_shutdown():
    sim = Simulator(partitions=2, executor="process")
    sim.register_collector("whoami", lambda p: p)
    sim.call_later(0.001, lambda: None)
    sim.run()
    assert sim.collect("whoami") == [0, 1]  # evaluated inside the workers
    sim.shutdown()
    assert sim.collect("whoami") == [0, 1]  # parent-replica fallback


# ---------------------------------------------------------------------------
# build-spec bootstrap
# ---------------------------------------------------------------------------


def _bump(counts, p):
    counts[p] += 1


def _counter_build(nparts):
    """Deterministic deployment constructor, invoked once in the parent and
    once per worker (instead of fork-inheriting the parent graph)."""
    sim = Simulator(partitions=nparts, executor="process")
    counts = [0] * nparts
    for p in range(nparts):
        with sim.in_partition(p):
            for i in range(5):
                sim.call_later(0.001 * (i + 1), _bump, counts, p)
    sim.register_collector("counts", lambda p: counts[p])
    return sim


def test_build_spec_rebuilds_deployment_in_workers():
    sim = _counter_build(2)
    sim.set_build_spec(_counter_build, 2)
    try:
        sim.run()
        assert sim.collect("counts") == [5, 5]
    finally:
        sim.shutdown()


def test_build_spec_after_fork_is_rejected():
    sim = _counter_build(2)
    sim.run()
    try:
        with pytest.raises(SimulationError, match="before the first run"):
            sim.set_build_spec(_counter_build, 2)
    finally:
        sim.shutdown()


# ---------------------------------------------------------------------------
# per-shard profiling
# ---------------------------------------------------------------------------


def test_per_shard_profiling_returns_stats_per_partition():
    sim = Simulator(partitions=2, executor="process")
    for part in (0, 1):
        with sim.in_partition(part):
            for i in range(50):
                sim.call_later(0.0001 * (i + 1), lambda: None)
    sim.begin_profile()
    try:
        sim.run()
        profiles = sim.end_profile()
    finally:
        sim.shutdown()
    assert isinstance(profiles, list) and len(profiles) == 2
    for stats in profiles:
        # raw cProfile stats: {(file, line, func): (cc, nc, tt, ct, callers)}
        assert isinstance(stats, dict) and stats
        assert any(isinstance(k, tuple) and len(k) == 3 for k in stats)


def test_single_loop_profile_facade_is_inert():
    sim = Simulator(partitions=2)  # round-robin: no per-shard profiler
    sim.begin_profile()
    sim.call_later(0.001, lambda: None)
    sim.run()
    assert sim.end_profile() is None


# ---------------------------------------------------------------------------
# collector pacing in the workers
# ---------------------------------------------------------------------------


def test_workers_run_shard_windows_with_the_paced_collector(gc_defaults):
    """The workers fork inside the parent's run(), so shard callbacks run
    with the raised generation-0 threshold; the parent's is restored."""
    sim = Simulator(partitions=2, executor="process")
    seen = [None, None]

    def record(part):
        seen[part] = gc.get_threshold()

    for part in (0, 1):
        with sim.in_partition(part):
            sim.call_later(0.001, record, part)
    sim.register_collector("gc.threshold", lambda p: seen[p])
    try:
        sim.run()
        in_workers = sim.collect("gc.threshold")
        after = gc.get_threshold()
    finally:
        sim.shutdown()
    assert in_workers == [(_RUN_GC_THRESHOLD, 10, 10)] * 2
    assert seen == [None, None]  # the parent's shards are shadows
    assert after == DEFAULT_GC
