"""Discrete-event simulation kernel.

A deliberately small, dependency-free engine in the style of SimPy:

* :class:`Simulator` owns the virtual clock and the timer structures.
* :class:`SimEvent` is a one-shot completion token carrying a value (or an
  exception) plus a list of callbacks.
* :class:`Timeout` is an event that fires after a fixed virtual delay.
* :class:`Process` wraps a generator; the generator *yields* events and is
  resumed with the event value when the event fires.  Processes are
  themselves events (they fire when the generator returns), so processes can
  wait for each other.
* :class:`AllOf` / :class:`AnyOf` combine events.

The engine is fully deterministic: events scheduled for the same virtual
time fire in FIFO order of scheduling (a monotonically increasing sequence
number breaks ties), and the only randomness anywhere in :mod:`repro.simnet`
comes from explicitly seeded generators owned by the network models.

Scheduling internals
--------------------

Two structures hold everything that is pending:

* **same-timestamp completions** — triggered events and zero-delay
  callbacks fire *now*; they are the vast majority of entries and live in
  a plain FIFO deque (:attr:`Simulator._ready`) that never touches a heap;
* **future timers** — everything scheduled past the current instant waits
  in one ``heapq`` of ``(when, seq, handle)`` triples
  (:attr:`Simulator._heap`), so every ordering comparison is a C tuple
  compare.

Every scheduling call returns a :class:`TimerHandle`; cancellation is lazy
(the handle is flagged and skipped when it reaches the head) so cancelling
is O(1) and never searches a queue.  The executed order is the exact
``(when, seq)`` order of the historical single-heap kernel —
:class:`ReferenceSimulator` keeps that original scheduler, which puts
same-timestamp entries on the heap too, alive as an executable
specification, and the tier-1 suite asserts trace equality between the two.
"""

from __future__ import annotations

import contextlib
from collections import deque
from heapq import heappop, heappush
from typing import Any, Callable, Generator, Iterable, List, Optional


class SimulationError(RuntimeError):
    """Raised for misuse of the simulation kernel (double-firing an event,
    yielding a non-event from a process, running a simulator with no events
    while waiting for a condition, ...)."""


#: :class:`TimerHandle` lifecycle states.
_PENDING, _FIRED, _CANCELLED = 0, 1, 2

_INF = float("inf")


class TimerHandle:
    """One scheduled callback, cancellable in O(1).

    Returned by :meth:`Simulator.call_later` / :meth:`Simulator.call_at`.
    :meth:`cancel` flags the entry and drops the callback references
    immediately; the slot itself is removed lazily when it reaches the head
    of its queue, so cancellation never has to search a queue.  Handles
    order by ``(when, seq)`` — the engine-wide total order.
    """

    __slots__ = ("when", "seq", "sim", "fn", "args", "_state")

    def __init__(self, when: float, seq: int, sim: "Simulator", fn: Callable, args: tuple):
        self.when = when
        self.seq = seq
        self.sim = sim
        self.fn = fn
        self.args = args
        self._state = _PENDING

    @property
    def cancelled(self) -> bool:
        return self._state == _CANCELLED

    @property
    def fired(self) -> bool:
        return self._state == _FIRED

    def cancel(self) -> bool:
        """Cancel the entry; True if it was still pending."""
        if self._state != _PENDING:
            return False
        self._state = _CANCELLED
        self.fn = None
        self.args = None
        sim = self.sim
        sim._live -= 1
        sim._cancellations += 1
        return True

    def __lt__(self, other: "TimerHandle") -> bool:
        if self.when != other.when:
            return self.when < other.when
        return self.seq < other.seq

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = ("pending", "fired", "cancelled")[self._state]
        return f"<TimerHandle t={self.when:g} #{self.seq} {state}>"


class SimStats:
    """Counter snapshot returned by :meth:`Simulator.stats`."""

    __slots__ = (
        "events_processed",
        "timers_scheduled",
        "cancellations",
        "peak_pending",
    )

    def __init__(self, events_processed: int, timers_scheduled: int, cancellations: int,
                 peak_pending: int):
        self.events_processed = events_processed
        self.timers_scheduled = timers_scheduled
        self.cancellations = cancellations
        self.peak_pending = peak_pending

    def as_dict(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        inner = ", ".join(f"{k}={v}" for k, v in self.as_dict().items())
        return f"<SimStats {inner}>"


class SimEvent:
    """A one-shot completion token.

    An event starts *pending*; it becomes *triggered* exactly once, either
    through :meth:`succeed` (with a value) or :meth:`fail` (with an
    exception).  Callbacks registered with :meth:`add_callback` run when the
    event is processed by the simulator loop, in registration order.
    """

    #: ``seq`` is stamped by the simulator when the event triggers (it
    #: orders the ready FIFO against due timers); unset while pending.
    #: ``uid`` is a construction-order identifier assigned only when the
    #: simulator installs an ``_event_tracker`` (the process-pool executor
    #: uses it to name events across address spaces); unset otherwise.
    __slots__ = (
        "sim",
        "callbacks",
        "_value",
        "_exc",
        "_triggered",
        "_processed",
        "name",
        "seq",
        "uid",
        "__weakref__",
    )

    def __init__(self, sim: "Simulator", name: str = ""):
        self.sim = sim
        self.callbacks: List[Callable[["SimEvent"], None]] = []
        self._value: Any = None
        self._exc: Optional[BaseException] = None
        self._triggered = False
        self._processed = False
        self.name = name
        if sim._event_tracker is not None:
            sim._event_tracker(self)

    # -- state ------------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once :meth:`succeed` or :meth:`fail` has been called."""
        return self._triggered

    @property
    def processed(self) -> bool:
        """True once the simulator has run the callbacks of this event."""
        return self._processed

    @property
    def ok(self) -> bool:
        """True if the event succeeded (only meaningful once triggered)."""
        return self._triggered and self._exc is None

    @property
    def value(self) -> Any:
        """The value passed to :meth:`succeed` (or the failure exception)."""
        if self._exc is not None:
            return self._exc
        return self._value

    # -- triggering -------------------------------------------------------
    def succeed(self, value: Any = None, delay: float = 0.0) -> "SimEvent":
        """Trigger the event successfully, optionally after ``delay``."""
        if not delay <= 0.0:  # positive or NaN: call_later rejects non-finite
            self.sim.call_later(delay, self.succeed, value)
            return self
        if self._triggered:
            raise SimulationError(f"event {self.name or id(self)} already triggered")
        self._triggered = True
        self._value = value
        self.sim._push_triggered(self)
        return self

    def fail(self, exc: BaseException, delay: float = 0.0) -> "SimEvent":
        """Trigger the event with an exception, optionally after ``delay``."""
        if not delay <= 0.0:
            self.sim.call_later(delay, self.fail, exc)
            return self
        if self._triggered:
            raise SimulationError(f"event {self.name or id(self)} already triggered")
        if not isinstance(exc, BaseException):
            raise SimulationError("fail() requires an exception instance")
        self._triggered = True
        self._exc = exc
        self.sim._push_triggered(self)
        return self

    # -- composition ------------------------------------------------------
    def add_callback(self, fn: Callable[["SimEvent"], None]) -> None:
        """Run ``fn(event)`` when the event is processed.

        If the event was already processed the callback runs immediately (in
        the caller's stack frame), which keeps chained completions correct
        even when a lower layer fires synchronously.
        """
        if self._processed:
            fn(self)
        else:
            self.callbacks.append(fn)

    def remove_callback(self, fn: Callable[["SimEvent"], None]) -> bool:
        """Detach a callback registered with :meth:`add_callback`.

        Returns True if it was found.  Used by :meth:`Process.interrupt` to
        abandon the event the process was waiting on: without the removal, a
        later firing of the abandoned event would re-enter the generator at
        the wrong yield point.
        """
        try:
            self.callbacks.remove(fn)
            return True
        except ValueError:
            return False

    def chain(self, other: "SimEvent") -> "SimEvent":
        """Propagate this event's outcome into ``other`` when it fires."""

        def _propagate(ev: "SimEvent") -> None:
            if ev.ok:
                if not other.triggered:
                    other.succeed(ev.value)
            else:
                if not other.triggered:
                    other.fail(ev.value)

        self.add_callback(_propagate)
        return other

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "processed" if self._processed else ("triggered" if self._triggered else "pending")
        return f"<{type(self).__name__} {self.name or hex(id(self))} {state}>"


class Timeout(SimEvent):
    """An event that fires ``delay`` seconds of virtual time after creation."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None, name: str = ""):
        if delay < 0:
            raise SimulationError(f"negative timeout: {delay!r}")
        super().__init__(sim, name=name or "timeout")
        self.delay = float(delay)
        sim.call_later(delay, self._fire, value)

    def _fire(self, value: Any) -> None:
        if not self._triggered:
            self.succeed(value)


class Process(SimEvent):
    """Wraps a generator that yields :class:`SimEvent` instances.

    The process itself is an event: it succeeds with the generator's return
    value, or fails with the exception the generator raised.  A failure of a
    yielded event is re-raised *inside* the generator so it can be handled
    with ordinary ``try/except``.
    """

    __slots__ = ("_gen", "_waiting_on")

    def __init__(self, sim: "Simulator", gen: Generator, name: str = ""):
        if not hasattr(gen, "send"):
            raise SimulationError(
                f"Process requires a generator, got {type(gen).__name__}; "
                "did you forget to call the process function?"
            )
        super().__init__(sim, name=name or getattr(gen, "__name__", "process"))
        self._gen = gen
        self._waiting_on: Optional[SimEvent] = None
        # Bootstrap: resume the generator once the loop starts.
        boot = SimEvent(sim, name=f"{self.name}/boot")
        boot.add_callback(self._resume)
        boot.succeed(None)

    @property
    def is_alive(self) -> bool:
        """True while the underlying generator has not finished."""
        return not self._triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at its current yield point."""
        if self._triggered:
            return
        target = self._waiting_on
        self._waiting_on = None
        # Abandon the event we were waiting on: if it fires later it must
        # not resume the generator at the (by then stale) yield point.
        if target is not None:
            target.remove_callback(self._resume)
        # Deliver asynchronously so we do not re-enter the generator from
        # arbitrary stacks.
        self.sim.call_later(0.0, self._throw, Interrupt(cause))

    def _throw(self, exc: BaseException) -> None:
        if self._triggered:
            return
        try:
            nxt = self._gen.throw(exc)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except BaseException as err:  # pragma: no cover - defensive
            self.fail(err)
            return
        self._wait_for(nxt)

    def _resume(self, ev: SimEvent) -> None:
        if self._triggered:
            return
        try:
            if ev.ok:
                nxt = self._gen.send(ev.value)
            else:
                nxt = self._gen.throw(ev.value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except BaseException as err:
            self.fail(err)
            return
        self._wait_for(nxt)

    def _wait_for(self, target: Any) -> None:
        if not isinstance(target, SimEvent):
            self.fail(
                SimulationError(
                    f"process {self.name!r} yielded {target!r}; processes must yield SimEvent instances"
                )
            )
            return
        self._waiting_on = target
        target.add_callback(self._resume)


class Interrupt(Exception):
    """Raised inside a process generator by :meth:`Process.interrupt`."""

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class PeriodicTask:
    """A lightweight recurring task: run ``fn(*args)`` every ``interval``.

    The engine-level helper behind simulator *processes* that only need a
    fixed-rate tick (active link probes, estimator push loops): cheaper than
    a full generator process and explicitly cancellable.  Note that a live
    periodic task keeps the timer queue non-empty, so ``run(until=None)``
    will not terminate until every periodic task has been cancelled.
    """

    __slots__ = ("sim", "interval", "fn", "args", "cancelled", "runs", "_handle")

    def __init__(self, sim: "Simulator", interval: float, fn: Callable, *args: Any):
        if interval <= 0:
            raise SimulationError(f"periodic interval must be positive, got {interval!r}")
        self.sim = sim
        self.interval = float(interval)
        self.fn = fn
        self.args = args
        self.cancelled = False
        self.runs = 0
        self._handle: Optional[TimerHandle] = sim.call_later(self.interval, self._tick)

    def _tick(self) -> None:
        if self.cancelled:
            return
        self.fn(*self.args)
        self.runs += 1
        # the callback may have cancelled the task (self-stopping probes):
        # rescheduling then would leave an uncancellable dead tick
        if not self.cancelled:
            self._handle = self.sim.call_later(self.interval, self._tick)

    def cancel(self) -> None:
        """Stop the task and remove the scheduled tick from the queue."""
        if self.cancelled:
            return
        self.cancelled = True
        handle, self._handle = self._handle, None
        if handle is not None:
            handle.cancel()


class AllOf(SimEvent):
    """Fires when every child event has fired; value is the list of values."""

    __slots__ = ("_children", "_remaining")

    def __init__(self, sim: "Simulator", events: Iterable[SimEvent], name: str = ""):
        super().__init__(sim, name=name or "all_of")
        self._children = list(events)
        self._remaining = len(self._children)
        if self._remaining == 0:
            self.succeed([])
            return
        for ev in self._children:
            ev.add_callback(self._child_done)

    def _child_done(self, ev: SimEvent) -> None:
        if self._triggered:
            return
        if not ev.ok:
            self.fail(ev.value)
            return
        self._remaining -= 1
        if self._remaining == 0:
            self.succeed([c.value for c in self._children])


class AnyOf(SimEvent):
    """Fires as soon as one child fires; value is ``(index, value)``."""

    __slots__ = ("_children",)

    def __init__(self, sim: "Simulator", events: Iterable[SimEvent], name: str = ""):
        super().__init__(sim, name=name or "any_of")
        self._children = list(events)
        if not self._children:
            raise SimulationError("AnyOf requires at least one event")
        for idx, ev in enumerate(self._children):
            ev.add_callback(lambda e, i=idx: self._child_done(i, e))

    def _child_done(self, idx: int, ev: SimEvent) -> None:
        if self._triggered:
            return
        if ev.ok:
            self.succeed((idx, ev.value))
        else:
            self.fail(ev.value)

class Simulator:
    """The event loop: a virtual clock, a ready FIFO and a timer heap.

    Triggered events and callbacks due at the current instant ride the
    ``_ready`` FIFO (each stamped with its ``seq``); timers due later wait
    in the ``_heap`` min-heap of ``(when, seq, handle)`` triples.  The run
    loop interleaves the two in exact ``(when, seq)`` order.  Scheduled
    times must be finite: ``call_later``/``call_at`` reject NaN and
    infinities, which would otherwise break the heap order.

    ``Simulator(partitions=N)`` with ``N > 1`` returns a
    :class:`~repro.simnet.partition.PartitionedSimulator` instead: the same
    public surface, but the event loop is sharded into ``N`` per-partition
    queues executed in conservative lookahead windows (see
    :mod:`repro.simnet.partition`).  The partition-aware entry points below
    (:meth:`call_at_partition`, :meth:`in_partition`,
    :attr:`partition_count`) are no-ops on the single-loop kernel so model
    code can target partitions unconditionally.
    """

    #: flight-recorder hook (:mod:`repro.telemetry`): ``None`` means
    #: recording is off — instrumented code gates on this one attribute
    #: check, so the disabled state is exactly the pre-telemetry hot path.
    telemetry = None

    #: event-identity hook: ``None`` means events carry no ``uid`` (the
    #: zero-overhead default).  The process-pool executor installs a tracker
    #: that stamps every event with a construction-order uid, so replicated
    #: object graphs in worker processes can name the same logical event.
    _event_tracker = None

    def __new__(cls, *args: Any, **kwargs: Any) -> "Simulator":
        if cls is Simulator:
            partitions = kwargs.get("partitions")
            if partitions is not None and int(partitions) > 1:
                from repro.simnet.partition import PartitionedSimulator

                return super().__new__(PartitionedSimulator)
        return super().__new__(cls)

    def __init__(
        self,
        *,
        partitions: Optional[int] = None,
        executor: Optional[Any] = None,
        lookahead: Optional[float] = None,
    ) -> None:
        if partitions is not None and int(partitions) > 1:
            # Simulator(partitions=N) dispatches to PartitionedSimulator via
            # __new__; landing here means a subclass was asked to shard.
            raise SimulationError(
                f"{type(self).__name__} does not support partitions={partitions!r}"
            )
        del partitions, executor, lookahead  # single-loop kernel: no-ops
        self._now = 0.0
        self._seq = 0
        self._stopped = False
        # same-timestamp FIFO: triggered SimEvents and zero-delay
        # TimerHandles, each stamped with its seq, in seq order
        self._ready: deque = deque()
        # future timers: (when, seq, handle) min-heap
        self._heap: List = []
        # counters (see stats())
        self._live = 0
        self._events_processed = 0
        self._timers_scheduled = 0
        self._cancellations = 0
        self._peak_pending = 0

    # -- clock ------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current virtual time, in seconds."""
        return self._now

    # -- event construction helpers ---------------------------------------
    def event(self, name: str = "") -> SimEvent:
        """Create a fresh pending event."""
        return SimEvent(self, name=name)

    def timeout(self, delay: float, value: Any = None, name: str = "") -> Timeout:
        """Create an event firing after ``delay`` virtual seconds."""
        return Timeout(self, delay, value=value, name=name)

    def process(self, gen: Generator, name: str = "") -> Process:
        """Register a generator as a simulation process."""
        return Process(self, gen, name=name)

    def every(self, interval: float, fn: Callable, *args: Any) -> PeriodicTask:
        """Run ``fn(*args)`` every ``interval`` virtual seconds until cancelled."""
        return PeriodicTask(self, interval, fn, *args)

    def all_of(self, events: Iterable[SimEvent]) -> AllOf:
        return AllOf(self, events)

    def any_of(self, events: Iterable[SimEvent]) -> AnyOf:
        return AnyOf(self, events)

    # -- scheduling --------------------------------------------------------
    def call_later(self, delay: float, fn: Callable, *args: Any) -> TimerHandle:
        """Run ``fn(*args)`` after ``delay`` virtual seconds; cancellable."""
        if not 0.0 <= delay < _INF:
            if delay < 0:
                raise SimulationError(f"cannot schedule in the past (delay={delay!r})")
            raise SimulationError(f"timer delay must be finite, got {delay!r}")
        return self._schedule(self._now + delay, fn, args)

    def call_at(self, when: float, fn: Callable, *args: Any) -> TimerHandle:
        """Run ``fn(*args)`` at absolute virtual time ``when``; cancellable."""
        if not self._now <= when < _INF:
            if when < self._now:
                raise SimulationError(
                    f"cannot schedule in the past (t={when!r} < now={self._now!r})"
                )
            raise SimulationError(f"timer time must be finite, got {when!r}")
        return self._schedule(when, fn, args)

    # -- partition-aware entry points (single-loop: plain pass-throughs) ----
    @property
    def partition_count(self) -> int:
        """Number of event-loop partitions (1 on the single-loop kernel)."""
        return 1

    @property
    def current_partition(self) -> int:
        """Index of the partition whose events are executing right now."""
        return 0

    def call_at_partition(
        self, partition: int, when: float, fn: Callable, *args: Any
    ) -> Optional[TimerHandle]:
        """Schedule ``fn(*args)`` at ``when`` into ``partition``'s queue.

        On the single-loop kernel the partition index is ignored.  On the
        partitioned kernel a cross-partition call rides a boundary mailbox
        and must land at or past the current window horizon (conservative
        lookahead); it returns ``None`` instead of a cancellable handle.
        """
        del partition
        return self.call_at(when, fn, *args)

    def is_boundary(self, network: Any) -> bool:
        """True when ``network`` spans event-loop partitions.  Always False
        on the single-loop kernel (there is nothing to span)."""
        del network
        return False

    def call_at_barrier(self, when: float, fn: Callable, *args: Any) -> None:
        """Schedule ``fn(*args)`` to run at a window barrier at/after ``when``.

        Global-state mutations that are unsafe mid-window on a partitioned
        kernel (e.g. churn degrading a *boundary* link's latency below the
        in-flight window) go through this: the partitioned kernel defers
        them to the next window edge, where every shard has reached a common
        virtual time and the next window is sized from the mutated
        parameters.  The single-loop kernel has no windows, so this is a
        plain :meth:`call_at`.  Returns ``None`` (barrier hooks are not
        cancellable).
        """
        self.call_at(when, fn, *args)
        return None

    def in_partition(self, partition: int):
        """Context manager routing scheduling calls to ``partition``.

        Deployment construction uses this to boot hosts, probes and fault
        schedules into the partition that owns them; a no-op here.
        """
        del partition
        return contextlib.nullcontext(self)

    def register_wire_handler(self, name: str, fn: Callable) -> Callable:
        """Name a callback for the cross-process mailbox wire protocol.

        On a process-partitioned kernel, a closure scheduled across a
        partition boundary cannot be pickled; registering it (identically in
        every replica, i.e. at deployment-construction time) lets the wire
        codec ship ``(name, args)`` instead.  A no-op on the single loop —
        nothing crosses address spaces — so scenario code can register
        unconditionally.
        """
        del name
        return fn

    def set_build_spec(self, fn: Callable, *args: Any) -> None:
        """Declare how process-executor workers rebuild the deployment
        (``fn(sim, *args)`` run in each worker instead of fork-inheriting
        the parent graph).  Nothing forks on the single loop: a no-op, so
        scenario code can declare its build spec unconditionally."""
        del fn, args

    def register_collector(self, name: str, fn: Callable) -> Callable:
        """Register a per-partition state collector for :meth:`collect`.

        ``fn(p)`` must return a picklable snapshot of partition ``p``'s
        share of some scenario state.  On a process-partitioned kernel,
        :meth:`collect` evaluates the collector *inside the worker process
        owning each partition*; registering at construction time replicates
        the closure into every worker.  Here it simply stores the callable.
        """
        collectors = getattr(self, "_collectors", None)
        if collectors is None:
            collectors = self._collectors = {}
        collectors[name] = fn
        return fn

    def collect(self, name: str) -> List[Any]:
        """Evaluate a registered collector, one entry per partition."""
        collectors = getattr(self, "_collectors", None)
        if collectors is None or name not in collectors:
            raise SimulationError(f"no collector registered under {name!r}")
        return [collectors[name](0)]

    def _push_triggered(self, ev: SimEvent) -> None:
        # fast path: a triggered event is processed at the current timestamp
        # and is not cancellable — no TimerHandle, no timer structure.
        ev.seq = self._seq = self._seq + 1
        live = self._live = self._live + 1
        if live > self._peak_pending:
            self._peak_pending = live
        self._ready.append(ev)

    @staticmethod
    def _process_event(ev: SimEvent) -> None:
        ev._processed = True
        callbacks, ev.callbacks = ev.callbacks, []
        for fn in callbacks:
            fn(ev)

    def _schedule(self, when: float, fn: Callable, args: tuple) -> TimerHandle:
        seq = self._seq = self._seq + 1
        handle = TimerHandle(when, seq, self, fn, args)
        live = self._live = self._live + 1
        if live > self._peak_pending:
            self._peak_pending = live
        self._timers_scheduled += 1
        if when <= self._now:
            # fires at the current timestamp: FIFO deque, no heap traffic
            self._ready.append(handle)
        else:
            heappush(self._heap, (when, seq, handle))
        return handle

    def _next_timer(self) -> Optional[tuple]:
        """The live head ``(when, seq, handle)`` of the timer heap, or None.
        Cancelled heads are popped on the way (lazy deletion); the live head
        is left in place."""
        heap = self._heap
        while heap:
            head = heap[0]
            if head[2]._state == _PENDING:
                return head
            heappop(heap)
        return None

    def _execute_ready(self, item) -> None:
        """Run one ``_ready`` entry (SimEvent or zero-delay TimerHandle)."""
        self._live -= 1
        self._events_processed += 1
        if item.__class__ is TimerHandle:
            item._state = _FIRED
            fn = item.fn
            args = item.args
            item.fn = None
            item.args = None
            fn(*args)
        else:
            item._processed = True
            callbacks, item.callbacks = item.callbacks, []
            for fn in callbacks:
                fn(item)

    def _execute_timer(self, handle: TimerHandle) -> None:
        when = handle.when
        if when > self._now:
            self._now = when
        handle._state = _FIRED
        fn = handle.fn
        args = handle.args
        handle.fn = None
        handle.args = None
        self._live -= 1
        self._events_processed += 1
        fn(*args)

    def _next_ready(self):
        """The live head of the same-timestamp FIFO, or None."""
        ready = self._ready
        while ready:
            item = ready[0]
            if item.__class__ is not TimerHandle or item._state == _PENDING:
                return item
            ready.popleft()
        return None

    # -- main loop ---------------------------------------------------------
    def step(self) -> bool:
        """Run one scheduled entry.  Returns False when nothing is pending."""
        ready_head = self._next_ready()
        timer_head = self._next_timer()
        if ready_head is not None and (
            timer_head is None
            or self._now < timer_head[0]
            or (self._now == timer_head[0] and ready_head.seq < timer_head[1])
        ):
            self._ready.popleft()
            self._execute_ready(ready_head)
            return True
        if timer_head is None:
            return False
        heappop(self._heap)
        self._execute_timer(timer_head[2])
        return True

    def _run_target(self, until: Optional[Any]) -> tuple:
        """Split :meth:`run`'s ``until`` into ``(target_event, target_time)``.
        A target time before ``now`` is refused: the clock never moves
        backwards."""
        if until is None:
            return None, None
        if isinstance(until, SimEvent):
            return until, None
        target_time = float(until)
        if target_time < self.now:
            raise SimulationError(
                f"cannot run backwards in time (until={target_time!r} < now={self.now!r})"
            )
        return None, target_time

    @staticmethod
    def _run_result(target_event: Optional[SimEvent]) -> Any:
        """:meth:`run`'s return value: the target event's value, or its
        exception raised; None when there is no triggered target."""
        if target_event is not None and target_event.triggered:
            if target_event.ok:
                return target_event.value
            raise target_event.value
        return None

    def run(self, until: Optional[Any] = None, max_time: Optional[float] = None) -> Any:
        """Run the loop.

        Parameters
        ----------
        until:
            ``None`` — run until no events remain; a :class:`SimEvent` — run
            until that event is processed and return its value (raising its
            exception if it failed); a number — run until virtual time
            reaches that instant (inclusive), which must not precede ``now``.
        max_time:
            Safety cap on virtual time; exceeding it raises
            :class:`SimulationError` (used by tests as a deadlock guard).
        """
        target_event, target_time = self._run_target(until)
        self._stopped = False
        # The loop interleaves the same-timestamp FIFO with due timers in
        # exact (when, seq) order; the heap head is re-read every iteration
        # because any executed entry may schedule an earlier timer.
        ready = self._ready
        heap = self._heap
        while not self._stopped:
            if target_event is not None and target_event._processed:
                break
            while heap and heap[0][2]._state != _PENDING:
                heappop(heap)
            timer = heap[0] if heap else None
            if ready:
                item = ready[0]
                is_handle = item.__class__ is TimerHandle
                if is_handle and item._state != _PENDING:
                    ready.popleft()
                    continue
                if (
                    timer is None
                    or self._now < timer[0]
                    or (self._now == timer[0] and item.seq < timer[1])
                ):
                    ready.popleft()
                    self._live -= 1
                    self._events_processed += 1
                    if is_handle:
                        item._state = _FIRED
                        fn = item.fn
                        args = item.args
                        item.fn = None
                        item.args = None
                        fn(*args)
                    else:
                        item._processed = True
                        callbacks = item.callbacks
                        item.callbacks = []
                        for fn in callbacks:
                            fn(item)
                    continue
            if timer is None:
                if target_event is not None and not target_event.triggered:
                    raise SimulationError(
                        f"simulation ran out of events while waiting for {target_event!r} "
                        "(deadlock: nobody will ever trigger it)"
                    )
                break
            when = timer[0]
            if target_time is not None and when > target_time:
                self._now = target_time
                break
            if max_time is not None and when > max_time:
                raise SimulationError(f"virtual time exceeded max_time={max_time}")
            heappop(heap)
            self._execute_timer(timer[2])
        return self._run_result(target_event)

    def stop(self) -> None:
        """Stop :meth:`run` at the next iteration (used by watchdogs)."""
        self._stopped = True

    # -- introspection -----------------------------------------------------
    def pending_count(self) -> int:
        """Number of *live* scheduled entries (cancelled entries awaiting
        lazy deletion are not counted)."""
        return self._live

    def stats(self) -> SimStats:
        """Kernel counters: events processed, timers scheduled, cancellations,
        peak pending entries."""
        return SimStats(
            events_processed=self._events_processed,
            timers_scheduled=self._timers_scheduled,
            cancellations=self._cancellations,
            peak_pending=self._peak_pending,
        )


class ReferenceSimulator(Simulator):
    """The historical monolithic-heap scheduler, kept as an executable
    ordering specification.

    Everything — zero-delay callbacks, triggered events and future timers —
    goes through the one ``heapq`` ordered by ``(when, seq)``; that is its
    only difference from :class:`Simulator`, which keeps same-timestamp
    entries on the ready FIFO.  The tier-1 determinism tests run recorded
    scenarios and random operation storms on both schedulers and assert
    trace equality; the scale benchmark compares the two on identical
    workloads.  Cancellation is honoured (dead entries are skipped when
    popped) and the counters mean the same, so the two kernels accept the
    same API and report equal :meth:`stats`.
    """

    def __init__(self) -> None:
        # no partitions/executor/lookahead: the oracle is single-loop only
        super().__init__()

    def _push_heap(self, when: float, fn: Callable, args: tuple) -> TimerHandle:
        seq = self._seq = self._seq + 1
        handle = TimerHandle(when, seq, self, fn, args)
        live = self._live = self._live + 1
        if live > self._peak_pending:
            self._peak_pending = live
        heappush(self._heap, (when, seq, handle))
        return handle

    def _push_triggered(self, ev: SimEvent) -> None:
        # heap-ordered, but counted like Simulator's ready-FIFO entries: a
        # triggered event is not a scheduled timer, so stats() compare equal
        self._push_heap(self._now, self._process_event, (ev,))

    def _schedule(self, when: float, fn: Callable, args: tuple) -> TimerHandle:
        self._timers_scheduled += 1
        return self._push_heap(when, fn, args)

    def step(self) -> bool:
        head = self._next_timer()
        if head is None:
            return False
        heappop(self._heap)
        self._execute_timer(head[2])
        return True

    def run(self, until: Optional[Any] = None, max_time: Optional[float] = None) -> Any:
        target_event, target_time = self._run_target(until)
        self._stopped = False
        while not self._stopped:
            if target_event is not None and target_event._processed:
                break
            head = self._next_timer()
            if head is None:
                if target_event is not None and not target_event.triggered:
                    raise SimulationError(
                        f"simulation ran out of events while waiting for {target_event!r} "
                        "(deadlock: nobody will ever trigger it)"
                    )
                break
            when = head[0]
            if target_time is not None and when > target_time:
                self._now = target_time
                break
            if max_time is not None and when > max_time:
                raise SimulationError(f"virtual time exceeded max_time={max_time}")
            heappop(self._heap)
            self._execute_timer(head[2])
        return self._run_result(target_event)
