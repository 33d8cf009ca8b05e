"""Unit tests for the discrete-event simulation kernel."""

import gc
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.simnet.engine import (
    AllOf,
    AnyOf,
    Interrupt,
    Process,
    ReferenceSimulator,
    SimulationError,
    Simulator,
    _RUN_GC_THRESHOLD,
)
from tests.helpers import DEFAULT_GC


def test_clock_starts_at_zero():
    assert Simulator().now == 0.0


def test_timeout_advances_clock():
    sim = Simulator()
    t = sim.timeout(1.5)
    sim.run()
    assert t.triggered
    assert sim.now == pytest.approx(1.5)


def test_events_fire_in_time_order():
    sim = Simulator()
    order = []
    sim.call_later(2.0, lambda: order.append("b"))
    sim.call_later(1.0, lambda: order.append("a"))
    sim.call_later(3.0, lambda: order.append("c"))
    sim.run()
    assert order == ["a", "b", "c"]


def test_same_time_events_fire_fifo():
    sim = Simulator()
    order = []
    for name in "abcd":
        sim.call_later(1.0, lambda n=name: order.append(n))
    sim.run()
    assert order == list("abcd")


def test_event_succeed_carries_value():
    sim = Simulator()
    ev = sim.event()
    seen = []
    ev.add_callback(lambda e: seen.append(e.value))
    ev.succeed(42)
    sim.run()
    assert seen == [42]
    assert ev.ok and ev.processed


def test_event_cannot_trigger_twice():
    sim = Simulator()
    ev = sim.event()
    ev.succeed(1)
    with pytest.raises(SimulationError):
        ev.succeed(2)


def test_event_fail_requires_exception():
    sim = Simulator()
    ev = sim.event()
    with pytest.raises(SimulationError):
        ev.fail("not an exception")


def test_delayed_succeed():
    sim = Simulator()
    ev = sim.event()
    ev.succeed("later", delay=2.0)
    sim.run(until=ev)
    assert sim.now == pytest.approx(2.0)
    assert ev.value == "later"


def test_callback_after_processing_runs_immediately():
    sim = Simulator()
    ev = sim.event()
    ev.succeed(7)
    sim.run()
    seen = []
    ev.add_callback(lambda e: seen.append(e.value))
    assert seen == [7]


def test_chain_propagates_value():
    sim = Simulator()
    a, b = sim.event(), sim.event()
    a.chain(b)
    a.succeed("x")
    sim.run()
    assert b.value == "x"


def test_negative_timeout_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.timeout(-1.0)


def test_cannot_schedule_in_the_past():
    sim = Simulator()
    sim.call_later(5.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.call_at(1.0, lambda: None)


def test_process_returns_value():
    sim = Simulator()

    def proc():
        yield sim.timeout(1.0)
        return "done"

    p = sim.process(proc())
    result = sim.run(until=p)
    assert result == "done"
    assert sim.now == pytest.approx(1.0)


def test_process_requires_generator():
    sim = Simulator()
    with pytest.raises(SimulationError):
        Process(sim, lambda: None)  # type: ignore[arg-type]


def test_process_receives_event_values():
    sim = Simulator()

    def proc():
        value = yield sim.timeout(0.5, value="tick")
        return value

    assert sim.run(until=sim.process(proc())) == "tick"


def test_process_exception_propagates_to_run():
    sim = Simulator()

    def proc():
        yield sim.timeout(0.1)
        raise ValueError("boom")

    with pytest.raises(ValueError, match="boom"):
        sim.run(until=sim.process(proc()))


def test_failed_event_raises_inside_process():
    sim = Simulator()
    ev = sim.event()

    def proc():
        try:
            yield ev
        except RuntimeError as exc:
            return f"caught {exc}"

    p = sim.process(proc())
    ev.fail(RuntimeError("bad"))
    assert sim.run(until=p) == "caught bad"


def test_yielding_non_event_fails_process():
    sim = Simulator()

    def proc():
        yield 42

    with pytest.raises(SimulationError):
        sim.run(until=sim.process(proc()))


def test_processes_can_wait_on_each_other():
    sim = Simulator()

    def child():
        yield sim.timeout(2.0)
        return 99

    def parent():
        value = yield sim.process(child())
        return value + 1

    assert sim.run(until=sim.process(parent())) == 100


def test_process_interrupt():
    sim = Simulator()

    def proc():
        try:
            yield sim.timeout(100.0)
        except Interrupt as intr:
            return ("interrupted", intr.cause)

    p = sim.process(proc())
    sim.call_later(1.0, p.interrupt, "reason")
    assert sim.run(until=p) == ("interrupted", "reason")


def test_all_of_collects_values():
    sim = Simulator()
    events = [sim.timeout(i, value=i) for i in (3, 1, 2)]
    combo = sim.all_of(events)
    assert sim.run(until=combo) == [3, 1, 2]
    assert sim.now == pytest.approx(3)


def test_all_of_empty_fires_immediately():
    sim = Simulator()
    combo = AllOf(sim, [])
    sim.run()
    assert combo.triggered and combo.value == []


def test_any_of_returns_first():
    sim = Simulator()
    events = [sim.timeout(5, value="slow"), sim.timeout(1, value="fast")]
    idx, value = sim.run(until=sim.any_of(events))
    assert (idx, value) == (1, "fast")
    assert sim.now == pytest.approx(1)


def test_any_of_requires_events():
    sim = Simulator()
    with pytest.raises(SimulationError):
        AnyOf(sim, [])


def test_run_until_time():
    sim = Simulator()
    fired = []
    sim.call_later(1.0, lambda: fired.append(1))
    sim.call_later(10.0, lambda: fired.append(2))
    sim.run(until=5.0)
    assert fired == [1]
    assert sim.now == pytest.approx(5.0)


def test_run_detects_deadlock():
    sim = Simulator()
    ev = sim.event()
    with pytest.raises(SimulationError, match="deadlock"):
        sim.run(until=ev)


def test_max_time_guard():
    sim = Simulator()

    def forever():
        while True:
            yield sim.timeout(1.0)

    sim.process(forever())
    with pytest.raises(SimulationError, match="max_time"):
        sim.run(max_time=10.0)


def test_stop_interrupts_run():
    sim = Simulator()
    sim.call_later(1.0, sim.stop)
    sim.call_later(100.0, lambda: None)
    sim.run()
    assert sim.now == pytest.approx(1.0)
    assert sim.pending_count() == 1


# ---------------------------------------------------------------------------
# TimerHandle / cancellation
# ---------------------------------------------------------------------------


def test_call_later_returns_cancellable_handle():
    sim = Simulator()
    fired = []
    keep = sim.call_later(1.0, lambda: fired.append("keep"))
    drop = sim.call_later(1.0, lambda: fired.append("drop"))
    assert drop.cancel() is True
    assert drop.cancelled and not drop.fired
    sim.run()
    assert fired == ["keep"]
    assert keep.fired


def test_cancel_after_fire_is_noop():
    sim = Simulator()
    handle = sim.call_later(0.5, lambda: None)
    sim.run()
    assert handle.fired
    assert handle.cancel() is False


def test_double_cancel_counts_once():
    sim = Simulator()
    handle = sim.call_later(0.5, lambda: None)
    assert handle.cancel() is True
    assert handle.cancel() is False
    assert sim.stats().cancellations == 1
    assert sim.pending_count() == 0


def test_cancel_zero_delay_entry():
    sim = Simulator()
    fired = []
    handle = sim.call_later(0.0, lambda: fired.append(1))
    handle.cancel()
    sim.run()
    assert fired == []


def test_pending_count_reports_live_entries_only():
    sim = Simulator()
    handles = [sim.call_later(float(i + 1), lambda: None) for i in range(5)]
    assert sim.pending_count() == 5
    handles[1].cancel()
    handles[3].cancel()
    # dead entries await lazy deletion but are not reported
    assert sim.pending_count() == 3
    sim.run()
    assert sim.pending_count() == 0


def test_periodic_task_cancel_removes_scheduled_tick():
    sim = Simulator()
    task = sim.every(0.1, lambda: None)
    assert sim.pending_count() == 1
    task.cancel()
    assert sim.pending_count() == 0
    sim.run()  # terminates: no dead tick left behind
    assert task.runs == 0
    assert sim.now == 0.0


def test_stats_counters():
    sim = Simulator()
    sim.call_later(0.5, lambda: None)
    cancelled = sim.call_later(1.0, lambda: None)
    cancelled.cancel()
    ev = sim.event()
    ev.succeed("x")
    sim.run()
    stats = sim.stats()
    assert stats.events_processed == 2  # the timer and the triggered event
    assert stats.timers_scheduled == 2
    assert stats.cancellations == 1
    assert stats.peak_pending >= 2
    assert stats.as_dict()["events_processed"] == 2


# ---------------------------------------------------------------------------
# Process.interrupt: stale-resume regression
# ---------------------------------------------------------------------------


def test_interrupt_detaches_abandoned_event():
    """A later firing of the event an interrupted process was waiting on
    must not re-enter the generator at the stale yield point."""
    sim = Simulator()
    abandoned = sim.event(name="abandoned")
    log = []

    def proc():
        try:
            value = yield abandoned
            log.append(("abandoned-value", value))
        except Interrupt:
            log.append("interrupted")
        value = yield sim.timeout(5.0, value="after")
        log.append(value)
        return "done"

    p = sim.process(proc())
    sim.call_later(1.0, p.interrupt)
    # the abandoned event fires *after* the interrupt and before the second
    # yield completes: with the stale callback still attached this resumed
    # the generator early with value "stale".
    sim.call_later(2.0, abandoned.succeed, "stale")
    assert sim.run(until=p) == "done"
    assert log == ["interrupted", "after"]
    assert sim.now == pytest.approx(6.0)


def test_interrupt_still_delivers_cause():
    sim = Simulator()

    def proc():
        try:
            yield sim.timeout(10.0)
        except Interrupt as intr:
            return intr.cause

    p = sim.process(proc())
    sim.call_later(0.5, p.interrupt, "why")
    assert sim.run(until=p) == "why"


# ---------------------------------------------------------------------------
# timer ordering, on both kernels
# ---------------------------------------------------------------------------

#: the single-loop kernel and its ordering oracle
KERNELS = [Simulator, ReferenceSimulator]

#: every kernel class, including the partitioned facade
ALL_KERNELS = pytest.mark.parametrize(
    "make_sim",
    [Simulator, ReferenceSimulator, lambda: Simulator(partitions=2)],
    ids=["Simulator", "ReferenceSimulator", "Partitioned2"],
)


def test_wheel_bucket_boundary_times():
    """Timers on and a hair either side of the millisecond edges the old
    timer wheel bucketed by fire in time order on both kernels."""
    for sim_cls in KERNELS:
        sim = sim_cls()
        fired = []
        for delay in (0.004, 0.001, 0.0, 0.002, 0.0039999, 0.008, 0.0040001, 0.012, 0.003):
            sim.call_later(delay, lambda d=delay: fired.append(d))
        sim.run()
        assert fired == sorted(fired), sim_cls.__name__
        assert sim.now == pytest.approx(0.012)


def test_wheel_overflow_rebuild():
    """Timers scheduled in shuffled order far into the future drain in time
    order on both kernels."""
    for sim_cls in KERNELS:
        sim = sim_cls()
        fired = []
        delays = [i * 0.0075 for i in range(40)]
        random.Random(7).shuffle(delays)
        for delay in delays:
            sim.call_later(delay, lambda d=delay: fired.append(d))
        sim.run()
        assert fired == sorted(delays), sim_cls.__name__
        assert sim.now == pytest.approx(max(delays))


@pytest.mark.parametrize("sim_cls", KERNELS)
def test_tied_and_nearly_tied_timers_fire_in_when_seq_order(sim_cls):
    """Exact ties fire in scheduling order, near ties by time, and timers
    spread far into the future drain in time order."""
    sim = sim_cls()
    fired = []
    near = [0.004, 0.001, 0.0, 0.002, 0.0039999, 0.008, 0.0040001, 0.012, 0.003]
    ties = [0.004, 0.001, 0.0]
    far = [i * 0.0075 for i in range(40)]
    random.Random(7).shuffle(far)
    delays = near + ties + far
    for i, delay in enumerate(delays):
        sim.call_later(delay, lambda d=delay, i=i: fired.append((d, i)))
    sim.run()
    assert fired == sorted(fired)
    assert sim.now == pytest.approx(max(delays))


@pytest.mark.parametrize("sim_cls", KERNELS)
def test_shorter_delay_from_callback_overtakes_queued_timer(sim_cls):
    """A callback's short delay lands before a later timer already queued."""
    sim = sim_cls()
    fired = []
    sim.call_later(0.9, lambda: fired.append("late"))

    def early():
        fired.append("first")
        sim.call_later(0.2, lambda: fired.append("second"))  # t=0.7 < 0.9

    sim.call_later(0.5, early)
    sim.run()
    assert fired == ["first", "second", "late"]


def test_same_time_fifo_across_structures():
    """Entries at one timestamp fire in scheduling order regardless of the
    structure (timer heap vs. triggered-event FIFO) they came from."""
    sim = Simulator()
    fired = []
    sim.call_later(1.0, lambda: fired.append("timer-a"))

    def trigger():
        fired.append("timer-b")
        ev = sim.event()
        ev.add_callback(lambda e: fired.append("event"))
        ev.succeed(None)
        sim.call_later(0.0, lambda: fired.append("zero-delay"))

    sim.call_later(1.0, trigger)
    sim.call_later(1.0, lambda: fired.append("timer-c"))
    sim.run()
    assert fired == ["timer-a", "timer-b", "timer-c", "event", "zero-delay"]


@pytest.mark.parametrize("sim_cls", KERNELS)
def test_run_until_time_is_inclusive(sim_cls):
    """``run(until=t)`` fires the timer at ``t`` and leaves later ones."""
    sim = sim_cls()
    fired = []
    for delay in (0.001, 0.005, 0.02):
        sim.call_later(delay, lambda d=delay: fired.append(d))
    sim.run(until=0.005)
    assert fired == [0.001, 0.005]
    assert sim.now == pytest.approx(0.005)
    assert sim.pending_count() == 1


@ALL_KERNELS
def test_run_until_before_now_is_rejected(make_sim):
    """The clock never moves backwards: a target time before ``now`` is an
    error, and later timers keep their order."""
    sim = make_sim()
    fired = []
    sim.call_later(5.0, lambda: fired.append(sim.now))
    sim.run(until=5.0)
    assert sim.now == 5.0
    with pytest.raises(SimulationError):
        sim.run(until=3.0)
    assert sim.now == 5.0
    sim.call_later(1.0, lambda: fired.append(sim.now))
    sim.run()
    assert fired == [5.0, 6.0]


_SCHEDULERS = {
    "call_later": lambda sim, v: sim.call_later(v, lambda: None),
    "call_at": lambda sim, v: sim.call_at(v, lambda: None),
    "timeout": lambda sim, v: sim.timeout(v),
    "succeed": lambda sim, v: sim.event().succeed(1, delay=v),
    "fail": lambda sim, v: sim.event().fail(RuntimeError("x"), delay=v),
    "every": lambda sim, v: sim.every(v, lambda: None),
}
_NON_FINITE = {"nan": float("nan"), "inf": float("inf"), "-inf": float("-inf")}


@ALL_KERNELS
@pytest.mark.parametrize(
    "schedule,value",
    [
        pytest.param(_SCHEDULERS[name], _NON_FINITE[v], id=f"{name}-{v}")
        for name in _SCHEDULERS
        for v in _NON_FINITE
        # succeed/fail treat any delay <= 0 as "now", -inf included
        if not (name in ("succeed", "fail") and v == "-inf")
    ],
)
def test_non_finite_times_are_rejected(make_sim, schedule, value):
    """NaN and infinite times never reach a queue (a NaN head would wedge or
    silently reorder the timers behind it)."""
    sim = make_sim()
    fired = []
    sim.call_later(1.0, lambda: fired.append(sim.now))
    with pytest.raises(SimulationError):
        schedule(sim, value)
    sim.run(max_time=10.0)
    assert fired == [1.0]
    assert sim.pending_count() == 0


# ---------------------------------------------------------------------------
# determinism: trace equality with the reference heap scheduler
# ---------------------------------------------------------------------------


def _recorded_scenario(sim, seed=0xFEED):
    """A seeded storm of timers, cancellations, events and processes; returns
    the recorded (time, label) trace."""
    rng = random.Random(seed)
    trace = []
    cancellable = []

    def fire(label):
        trace.append((sim.now, label))
        # randomly schedule follow-ups, including ties on the same timestamp
        for _ in range(rng.randrange(0, 3)):
            delay = rng.choice([0.0, 0.0, rng.random() * 0.002, rng.random() * 0.5])
            handle = sim.call_later(delay, fire, f"{label}/{delay:.6f}")
            if rng.random() < 0.3:
                cancellable.append(handle)
        if cancellable and rng.random() < 0.4:
            cancellable.pop(rng.randrange(len(cancellable))).cancel()

    for i in range(40):
        sim.call_later(rng.random() * 0.01, fire, f"seed{i}")

    def proc(idx):
        for _ in range(rng.randrange(1, 4)):
            value = yield sim.timeout(rng.random() * 0.05, value=idx)
            trace.append((sim.now, f"proc{idx}={value}"))
        return idx

    procs = [sim.process(proc(i)) for i in range(5)]
    done = sim.all_of(procs)
    done.add_callback(lambda ev: trace.append((sim.now, f"all={ev.value}")))
    sim.run(max_time=30.0)
    return trace


def test_trace_equality_with_reference_heap():
    """The ready-FIFO kernel executes the exact (when, seq) order of the
    monolithic-heap kernel: identical trace, order and timestamps."""
    fifo_trace = _recorded_scenario(Simulator())
    heap_trace = _recorded_scenario(ReferenceSimulator())
    assert len(fifo_trace) > 100
    assert fifo_trace == heap_trace


_STORM_DELAYS = st.one_of(
    st.sampled_from([0.0, 1e-9, 1e-3, 1e-3 + 1e-12, 2e-3, 0.5]),
    st.floats(min_value=0.0, max_value=1.0),
)
_STORM_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("timer"), _STORM_DELAYS),
        st.tuples(st.just("zero"), st.just(0.0)),
        st.tuples(st.just("cancel"), st.integers(0, 1000)),
        st.tuples(st.just("event"), st.just(None)),
        st.tuples(st.just("trigger"), st.integers(0, 1000)),
        st.tuples(st.just("process"), st.lists(_STORM_DELAYS, min_size=1, max_size=4)),
    ),
    min_size=1,
    max_size=200,
)


def _run_storm(sim, ops, split):
    """Interpret ``ops`` on ``sim`` and return the ``(now, label)`` trace.

    Eight operations apply up front; every recorded callback then applies
    the next two, so each kernel consumes the program in its own execution
    order.  The run stops once at ``split`` and then drains."""
    trace = []
    handles = []
    pending = []
    program = iter(enumerate(ops))

    def fire(label):
        trace.append((sim.now, label))
        apply_next()
        apply_next()

    def proc(label, delays):
        for delay in delays:
            yield sim.timeout(delay)
            trace.append((sim.now, label))
        return label

    def apply_next():
        step = next(program, None)
        if step is None:
            return
        i, (kind, arg) = step
        label = f"{kind}{i}"
        if kind in ("timer", "zero"):
            handles.append(sim.call_later(arg, fire, label))
        elif kind == "cancel":
            if handles:
                handles[arg % len(handles)].cancel()
        elif kind == "event":
            ev = sim.event(label)
            ev.add_callback(lambda e: fire(e.name))
            pending.append(ev)
        elif kind == "trigger":
            if pending:
                pending.pop(arg % len(pending)).succeed()
        else:
            p = sim.process(proc(label, arg))
            p.add_callback(lambda e: fire(f"{e.value}/done"))

    for _ in range(8):
        apply_next()
    sim.run(until=split)
    sim.run()
    return trace


@settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(ops=_STORM_OPS, split=st.floats(min_value=0.0, max_value=2.0))
def test_random_storms_run_identically_on_both_kernels(ops, split):
    """Schedules, cancellations, triggers, zero-delay callbacks and processes
    in any mix give the same trace and the same counters on both kernels."""
    runs = []
    for sim_cls in KERNELS:
        sim = sim_cls()
        trace = _run_storm(sim, ops, split)
        runs.append((trace, sim.now, sim.stats().as_dict()))
    assert runs[0] == runs[1]
    assert runs[0][2]["events_processed"] >= len(runs[0][0])


def test_periodic_task_self_cancel_from_callback():
    """A periodic callback cancelling its own task must stop the task cold:
    no dead tick rescheduled, no further runs, run() terminates."""
    sim = Simulator()
    holder = {}

    def tick():
        holder["task"].cancel()

    holder["task"] = sim.every(0.1, tick)
    sim.run()
    assert holder["task"].runs == 1
    assert sim.now == pytest.approx(0.1)
    assert sim.pending_count() == 0


# ---------------------------------------------------------------------------
# collector pacing around run()
# ---------------------------------------------------------------------------

_PACED_GC = (_RUN_GC_THRESHOLD, 10, 10)


def _threshold_seen_by_callback(sim):
    seen = []
    sim.call_later(0.001, lambda: seen.append(gc.get_threshold()))
    return seen


@ALL_KERNELS
def test_run_raises_young_threshold_and_restores_it(make_sim, gc_defaults):
    sim = make_sim()
    seen = _threshold_seen_by_callback(sim)
    sim.run()
    assert seen == [_PACED_GC]
    assert gc.get_threshold() == DEFAULT_GC


def _max_time_exceeded(sim):
    sim.call_later(5.0, lambda: None)
    sim.run(max_time=1.0)


def _deadlock(sim):
    sim.call_later(0.002, lambda: None)
    sim.run(until=sim.event())


def _callback_raises(sim):
    def boom():
        raise ValueError("boom")

    sim.call_later(0.002, boom)
    sim.run()


@ALL_KERNELS
@pytest.mark.parametrize(
    "fail,exc",
    [
        (_max_time_exceeded, SimulationError),
        (_deadlock, SimulationError),
        (_callback_raises, ValueError),
    ],
    ids=["max_time", "deadlock", "callback"],
)
def test_run_restores_threshold_when_it_raises(make_sim, fail, exc, gc_defaults):
    sim = make_sim()
    seen = _threshold_seen_by_callback(sim)
    with pytest.raises(exc):
        fail(sim)
    assert seen == [_PACED_GC]
    assert gc.get_threshold() == DEFAULT_GC


@ALL_KERNELS
def test_nested_run_leaves_the_outer_policy_in_place(make_sim, gc_defaults):
    """A run() inside a callback of another run() neither re-saves nor
    restores: the threshold stays raised until the outermost run() ends."""
    outer, inner = make_sim(), make_sim()
    inner_seen = _threshold_seen_by_callback(inner)
    after_inner = []

    def run_inner():
        inner.run()
        after_inner.append(gc.get_threshold())

    outer.call_later(0.001, run_inner)
    outer.run()
    assert inner_seen == [_PACED_GC]
    assert after_inner == [_PACED_GC]
    assert gc.get_threshold() == DEFAULT_GC


@ALL_KERNELS
def test_disabled_collector_is_left_alone(make_sim, gc_defaults):
    gc.disable()
    sim = make_sim()
    seen = _threshold_seen_by_callback(sim)
    sim.run()
    assert seen == [DEFAULT_GC]
    assert not gc.isenabled()
    assert gc.get_threshold() == DEFAULT_GC


@ALL_KERNELS
def test_higher_user_threshold_is_kept(make_sim, gc_defaults):
    user = (_RUN_GC_THRESHOLD * 5, 20, 30)
    gc.set_threshold(*user)
    sim = make_sim()
    seen = _threshold_seen_by_callback(sim)
    sim.run()
    assert seen == [user]
    assert gc.get_threshold() == user


def _gc_pressure(*args):
    """``tests/gc_pressure.py`` in a fresh interpreter (its collector counts
    depend on the long-lived object count, which a warm test process skews)."""
    script = Path(__file__).with_name("gc_pressure.py")
    src = str(script.parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    out = subprocess.run(
        [sys.executable, str(script), *args],
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_no_full_collection_inside_run_with_objects_in_flight():
    """Thousands of long-lived pending entries per run: with the kernel's
    pacing no oldest-generation collection happens inside run().  The same
    scenario at the interpreter's default thresholds does run full
    collections, which is what makes the zero a measurement."""
    paced = _gc_pressure()
    unpaced = _gc_pressure("--unpaced")
    assert paced["hops"] == unpaced["hops"] == 80_000
    assert paced["collections"][2] == 0, paced
    assert unpaced["collections"][2] >= 1, unpaced
