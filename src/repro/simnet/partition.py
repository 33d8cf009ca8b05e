"""Partitioned simulation kernel: shard the event loop across partitions.

Very large deployments (the 1000-host grid of the scale benchmarks) are
built from *clusters* joined by WAN links whose wire latency is several
milliseconds — orders of magnitude above every intra-cluster delay.  That
latency is *lookahead* in the classic conservative parallel-DES sense: an
event a partition sends across a WAN boundary at virtual time ``t`` cannot
take effect on the far side before ``t + latency``, so every partition can
safely execute a bounded window of virtual time without hearing from its
peers at all.

:class:`PartitionedSimulator` is a drop-in for
:class:`~repro.simnet.engine.Simulator` (``Simulator(partitions=N)``
constructs one).  It owns ``N`` :class:`_PartitionShard` queues — each a
full single-loop kernel with its own ready FIFO and timer heap — and runs
them in windows::

    window = [start, start + lookahead]   (inclusive of the horizon)

where ``start`` is the earliest pending event across all shards and
``lookahead`` is the minimum latency over the registered *boundary*
networks (links whose attached hosts live in different partitions; networks
self-register when a host attachment makes them span partitions).  Within a
window every shard executes independently in its own exact ``(when, seq)``
order; scheduling calls issued by executing model code always land in the
issuing shard.

Cross-partition scheduling (:meth:`Simulator.call_at_partition` — the
network layer routes every ``transmit`` completion through it) goes through
per-destination **boundary mailboxes**.  A mailbox entry is stamped
``(when, sent_at, src_partition, src_seq)`` and must satisfy
``when >= window horizon`` (violations raise :class:`LookaheadViolation`
rather than silently reordering).  At the window barrier each mailbox is
sorted by that stamp and drained into the destination shard, which defines
the deterministic total order for same-timestamp cross-partition
deliveries: earlier send time first, then lower source partition, then
source scheduling order.

Trace equality with the single-loop kernel holds event-for-event as long
as cross-partition deliveries do not tie *exactly* (same float timestamp)
with destination-local events scheduled during the same window — a
measure-zero coincidence under continuous latency models.  At such a tie
the single loop interleaves by global scheduling order, which no partition
can observe; the partitioned kernel instead applies the deterministic
mailbox rule above (the delivery runs after the destination's
locally-scheduled events of that timestamp).  Both orders are legal
executions of the model; only the partitioned one is independent of the
executor.

Executors
---------

``executor="round-robin"`` (default) steps the shards sequentially inside
one process — deterministic and dependency-free, the configuration the
trace-equality suite pins down.  ``executor="thread"`` runs each shard's
window on a worker-thread pool with a barrier per window; with mailbox
merging order-stamped (not arrival-ordered) the execution stays
deterministic *provided* partitions share no mutable Python state outside
the boundary mailboxes (per-partition counters, per-partition rngs).  CPU
parallelism is bounded by the GIL in CPython today; the thread executor
exists for GIL-releasing model code and free-threaded builds.

``executor="process"`` (:mod:`repro.simnet.procexec`) is the multi-core
configuration: one worker process per partition, each owning a full replica
of the object graph and *executing* only its own shard.  Cross-shard
traffic is the boundary-mailbox stream, wire-encoded (frame fields by
value, hosts/networks by deterministic name) and merged by the parent with
the same ``(when, sent_at, src_partition, src_seq)`` sort; the window
barrier is the pipe round-trip.  Barrier hooks, the barrier sample bus and
telemetry keep their round-robin semantics across address spaces (see the
executor module for the replication rules).

Determinism contract for scenario authors:

* every host, probe and fault schedule belongs to exactly one partition
  (``framework.boot`` / ``TopologyMonitor.watch`` / ``FaultInjector``
  handle this given ``host.partition`` / ``network.partition``);
* cross-partition interaction goes through networks whose latency is at
  least the window lookahead (the mailbox check enforces it);
* mutable state shared across partitions (a network's ``up`` flag, the
  topology KB) must only be *written* by its owning partition; reads from
  other partitions see window-granular state.  *Passive* link probes on a
  boundary network observe traffic from **both** endpoints' partitions
  (the observer fires in the transmitting shard); their samples ride the
  **barrier sample bus** (:meth:`PartitionedSimulator.publish_at_barrier`):
  shard-local buffers drained at the window barrier in a deterministic
  ``(sample time, source partition, publish order)`` merge, so boundary
  watches are executor-independent — including under the thread executor
  (no mid-window shared-estimator writes) and the process executor (every
  replica consumes the identical merged stream).
"""

from __future__ import annotations

import heapq
import itertools
import threading
from typing import Any, Callable, List, Optional, Tuple

from repro.simnet.engine import (
    SimEvent,
    SimStats,
    SimulationError,
    Simulator,
    TimerHandle,
)

__all__ = ["PartitionedSimulator", "LookaheadViolation", "DEFAULT_LOOKAHEAD"]

#: window width used when no boundary network is registered and no explicit
#: ``lookahead=`` was configured: well under every WAN latency in
#: :mod:`repro.simnet.networks`, comfortably above LAN/SAN delays.
DEFAULT_LOOKAHEAD = 1e-3


class LookaheadViolation(SimulationError):
    """A cross-partition event was scheduled inside the current window.

    Conservative execution is only correct when a boundary crossing lands at
    or past the window horizon; a violation means a link between partitions
    is faster than the configured lookahead (e.g. two partitions sharing a
    LAN, or a boundary WAN degraded below the window width)."""


class _PartitionShard(Simulator):
    """One partition's event queue: a full single-loop kernel (ready FIFO
    plus timer heap) and the bookkeeping the facade needs (index, mailbox
    sequence counter)."""

    def __init__(self, index: int):
        super().__init__()
        self.index = index
        self._mail_seq = itertools.count()

    def next_event_time(self) -> Optional[float]:
        """Timestamp of this shard's earliest live entry, or None."""
        if self._next_ready() is not None:
            return self._now
        head = self._next_timer()
        return head[0] if head is not None else None

    def _run_target(self, until: float) -> tuple:
        # Window runs skip the clock-never-rewinds check: an idle shard's
        # clock parks at the previous window's edge, and when the lookahead
        # shrinks at a barrier the next window can end before it; the shard
        # then winds back to that horizon.  The facade's run() keeps the check.
        return None, until


class _RoundRobinExecutor:
    """Default executor: each shard runs its window in turn, in index order,
    on the calling thread."""

    name = "round-robin"

    def run_window(
        self, psim: "PartitionedSimulator", shards: List[_PartitionShard], window_end: float
    ) -> None:
        for shard in shards:
            if psim._p_stopped:
                break
            psim._enter_shard(shard)
            try:
                shard.run(until=window_end)
            finally:
                psim._exit_shard()


class _ThreadPoolExecutor:
    """Opt-in executor: one worker thread per shard, barrier per window.

    The pool lives for one :meth:`PartitionedSimulator.run` call
    (:meth:`open`/:meth:`close` bracket it) so simulators never leak idle
    worker threads past their run."""

    name = "thread"

    def __init__(self) -> None:
        self._pool = None

    def open(self, nshards: int) -> None:
        if self._pool is None:
            from concurrent.futures import ThreadPoolExecutor

            self._pool = ThreadPoolExecutor(
                max_workers=nshards, thread_name_prefix="sim-shard"
            )

    def close(self) -> None:
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)

    def run_window(
        self, psim: "PartitionedSimulator", shards: List[_PartitionShard], window_end: float
    ) -> None:
        self.open(len(shards))
        futures = [
            self._pool.submit(self._run_shard, psim, shard, window_end) for shard in shards
        ]
        # the barrier: every shard finishes its window before mailboxes
        # merge — including when one raises, or the merge (and the cleared
        # lookahead check) would race the straggler threads.
        first_error = None
        for future in futures:
            try:
                future.result()
            except BaseException as exc:
                if first_error is None:
                    first_error = exc
        if first_error is not None:
            raise first_error

    @staticmethod
    def _run_shard(
        psim: "PartitionedSimulator", shard: _PartitionShard, window_end: float
    ) -> None:
        psim._enter_shard(shard)
        try:
            shard.run(until=window_end)
        finally:
            psim._exit_shard()


def _make_executor(executor: Any) -> Any:
    if executor is None or executor == "round-robin":
        return _RoundRobinExecutor()
    if executor in ("thread", "threads", "thread-pool"):
        return _ThreadPoolExecutor()
    if executor in ("process", "processes", "process-pool"):
        from repro.simnet.procexec import ProcessPoolExecutor

        return ProcessPoolExecutor()
    if hasattr(executor, "run_window"):
        return executor
    raise SimulationError(
        f"unknown executor {executor!r}; expected 'round-robin', 'thread', "
        "'process' or an object with a run_window(sim, shards, window_end) method"
    )


class PartitionedSimulator(Simulator):
    """N per-partition event queues executed in conservative time windows.

    Constructed via ``Simulator(partitions=N, ...)``.  The public
    :class:`~repro.simnet.engine.Simulator` surface is preserved; the
    differences that can matter to model code:

    * :meth:`step` is unavailable (execution is window-at-a-time);
    * :meth:`call_at_partition` returns ``None`` (no cancellable handle) for
      a genuine boundary crossing;
    * :meth:`stop` halts the executing shard immediately and the run at the
      window barrier;
    * ``run(until=event)`` overshoots by at most one window (the run stops
      at the barrier after the event is processed).
    """

    def __init__(
        self,
        *,
        partitions: int,
        executor: Any = None,
        lookahead: Optional[float] = None,
    ) -> None:
        # deliberately no super().__init__(): the facade owns no queue of its
        # own — every structure-touching method is overridden to route into a
        # shard, and a stray use of base internals should fail loudly.
        partitions = int(partitions)
        if partitions < 2:
            raise SimulationError(
                f"PartitionedSimulator needs at least 2 partitions, got {partitions}"
            )
        if lookahead is not None and lookahead <= 0.0:
            raise SimulationError(f"lookahead must be positive, got {lookahead!r}")
        self._shards: List[_PartitionShard] = [_PartitionShard(i) for i in range(partitions)]
        self._mailboxes: List[List[Tuple]] = [[] for _ in range(partitions)]
        self._mail_lock = threading.Lock()
        self._tls = threading.local()
        self._time = 0.0
        self._window_end: Optional[float] = None
        self._configured_lookahead = lookahead
        self._boundaries: List[Any] = []
        self._executor = _make_executor(executor)
        self._p_stopped = False
        self.windows_run = 0
        self.mailbox_deliveries = 0
        # barrier-synchronized hooks: (when, seq, fn, args) min-heap, run at
        # the first window edge at/after `when` (see call_at_barrier)
        self._barrier_hooks: List[Tuple] = []
        self._barrier_seq = itertools.count()
        # barrier sample bus: per-shard publish buffers drained into the
        # registered channel consumers at every window barrier (boundary
        # probe samples et al.; see publish_at_barrier)
        self._bus_buffers: List[List[Tuple[str, Any]]] = [[] for _ in range(partitions)]
        self._bus_consumers: dict = {}
        self._bus_last_drain: Optional[List[Tuple]] = None
        # wire-protocol registries (process executor): named callbacks the
        # mailbox codec may ship across address spaces, and per-partition
        # state collectors evaluated inside the owning worker
        self._wire_handlers: dict = {}
        self._wire_names: dict = {}
        self._collectors: dict = {}
        # process-executor plumbing: the worker index when this replica runs
        # inside a worker process, mid-run barrier registrations to fan out,
        # and the construction-order event-uid registry
        self._worker_index: Optional[int] = None
        self._pending_hook_ships: List[Tuple] = []
        self._hook_ship_seq = itertools.count()
        if getattr(self._executor, "needs_event_uids", False):
            import weakref

            self._event_uid_counter = itertools.count()
            self._uid_map = weakref.WeakValueDictionary()

            def _track(ev, _ctr=self._event_uid_counter, _map=self._uid_map):
                ev.uid = uid = next(_ctr)
                _map[uid] = ev

            self._event_tracker = _track

    # -- shard routing ------------------------------------------------------
    def _enter_shard(self, shard: _PartitionShard) -> None:
        self._tls.shard = shard

    def _exit_shard(self) -> None:
        self._tls.shard = None

    def _active_shard(self) -> _PartitionShard:
        """The shard scheduling calls go to: an explicit ``in_partition``
        override, else the shard executing on this thread, else partition 0
        (deployment-construction default)."""
        override = getattr(self._tls, "override", None)
        if override:
            return override[-1]
        shard = getattr(self._tls, "shard", None)
        if shard is not None:
            return shard
        return self._shards[0]

    def in_partition(self, partition: int):
        """Route scheduling calls made inside the context to ``partition``.

        A deployment-construction tool: entering a *different* partition
        from executing model code is refused — the target shard's clock is
        mid-window (behind or ahead of the caller's), so direct scheduling
        there would violate causality; cross-partition scheduling from model
        code must go through :meth:`call_at_partition` (the mailbox path),
        and hosts whose bring-up can be triggered mid-run (gateways) should
        be booted at deployment time.
        """
        target = self._shards[self._check_partition(partition)]
        executing = getattr(self._tls, "shard", None)
        if executing is not None and executing is not target:
            raise SimulationError(
                f"cannot enter partition {partition} from model code executing "
                f"in partition {executing.index}: use call_at_partition for "
                "cross-partition scheduling, or set the deployment up before run()"
            )
        return _PartitionContext(self, target)

    def _check_partition(self, partition: int) -> int:
        if not 0 <= partition < len(self._shards):
            raise SimulationError(
                f"partition {partition!r} out of range (0..{len(self._shards) - 1})"
            )
        return partition

    @property
    def partition_count(self) -> int:
        return len(self._shards)

    @property
    def current_partition(self) -> int:
        return self._active_shard().index

    @property
    def in_model_context(self) -> bool:
        """True while executing model code inside a shard window (as opposed
        to deployment construction or barrier-context code)."""
        return getattr(self._tls, "shard", None) is not None

    # -- boundaries / lookahead --------------------------------------------
    def add_boundary(self, network: Any) -> Any:
        """Register a partition-spanning network; its (current) latency
        bounds the window width.  Idempotent; called automatically by
        :meth:`note_network_span` when an attachment makes a network span
        partitions."""
        if network not in self._boundaries:
            self._boundaries.append(network)
        return network

    def note_network_span(self, network: Any) -> None:
        """Called by :meth:`repro.simnet.network.Network.connect`: if the
        network's attached hosts now live in more than one partition it is a
        boundary link."""
        parts = {getattr(host, "partition", 0) for host in network.nics}
        if len(parts) > 1:
            self.add_boundary(network)

    def boundary_networks(self) -> List[Any]:
        return list(self._boundaries)

    def is_boundary(self, network: Any) -> bool:
        return network in self._boundaries

    def call_at_barrier(self, when: float, fn: Callable, *args: Any) -> None:
        """Defer ``fn(*args)`` to the first window barrier at/after ``when``.

        The hook runs on the facade between windows: every shard has drained
        its window and sits at a common virtual time (``now`` reads the
        facade clock), mailboxes are merged, and the *next* window's width
        is computed after the hook — so a hook that degrades a boundary
        link's latency below the old window width is safe: the next window
        shrinks instead of violating lookahead mid-flight.  Hooks fire in
        ``(when, registration order)``; scheduling calls made by a hook
        route like deployment-construction code (partition 0 unless wrapped
        in :meth:`in_partition`).

        Under the process executor every replica holds an identical copy of
        the hook heap (registrations at construction time, and from barrier
        context — hooks, bus consumers — replay identically everywhere).  A
        registration made by *shard model code* mid-run exists in one worker
        only; it is intercepted here and fanned out through the parent so
        all replicas pop the same hooks at the same edges — which requires
        the callback to be wire-encodable (see
        :meth:`register_wire_handler`).
        """
        if self._worker_index is not None and getattr(self._tls, "shard", None) is not None:
            # worker shard context: ship to the parent for barrier-riding
            # fan-out instead of mutating only this replica's heap
            self._pending_hook_ships.append((when, next(self._hook_ship_seq), fn, args))
            return None
        heapq.heappush(self._barrier_hooks, (when, next(self._barrier_seq), fn, args))
        return None

    # -- barrier sample bus --------------------------------------------------
    def register_barrier_channel(self, key: str, consumer: Callable) -> None:
        """Register the consumer for barrier-bus channel ``key``.

        ``consumer(batch)`` is called at each window barrier that drained at
        least one publication on the channel, with ``batch`` a list of
        ``(src_partition, publish_index, payload)`` in deterministic merged
        order.  Registration must happen at construction time (replicated
        into every process-executor worker); re-registering a key replaces
        the consumer.
        """
        self._bus_consumers[key] = consumer

    def publish_at_barrier(self, key: str, payload: Any) -> None:
        """Publish ``payload`` on barrier-bus channel ``key``.

        Buffered shard-locally (no locks, no mid-window shared writes) and
        delivered to the channel's consumer at the next window barrier in
        every replica.  Under the process executor the payload must be
        picklable.
        """
        self._bus_buffers[self._active_shard().index].append((key, payload))

    def _drain_barrier_bus(self, extra: Optional[List[Tuple]] = None) -> None:
        """Window barrier: deliver published payloads to channel consumers.

        ``extra`` carries ``(src_partition, publish_index, key, payload)``
        tuples gathered from worker processes; local buffers contribute in
        shard order.  Per channel, the batch is ordered by (source
        partition, publish index) — a pure function of per-shard publish
        streams, identical across executors.
        """
        batches: dict = {}
        merged: List[Tuple] = []
        for p, buf in enumerate(self._bus_buffers):
            if buf:
                for i, (key, payload) in enumerate(buf):
                    batches.setdefault(key, []).append((p, i, payload))
                    merged.append((p, i, key, payload))
                del buf[:]
        if extra:
            for p, i, key, payload in extra:
                batches.setdefault(key, []).append((p, i, payload))
                merged.append((p, i, key, payload))
        # the process executor fans the full merged batch (parent-local
        # publications + worker-gathered ones) out to every worker replica
        # next window, so each replica's consumers see the identical stream
        self._bus_last_drain = merged or None
        if not batches:
            return
        for key in sorted(batches):
            consumer = self._bus_consumers.get(key)
            if consumer is not None:
                batch = batches[key]
                batch.sort(key=lambda e: (e[0], e[1]))
                consumer(batch)

    # -- wire registries (process executor) -----------------------------------
    def register_wire_handler(self, name: str, fn: Callable) -> Callable:
        """Name ``fn`` for the cross-process mailbox wire protocol.

        Must be called identically in every replica — i.e. at deployment
        construction time, before ``run()`` — so each worker resolves the
        name to its own copy of the callback.  Frame deliveries
        (``Nic.handle_arrival``) are encoded structurally and need no
        registration; this is for scenario-level closures scheduled across
        partitions.  Harmless under the round-robin/thread executors.
        """
        if not name or not isinstance(name, str):
            raise SimulationError(f"wire handler name must be a non-empty str, got {name!r}")
        self._wire_handlers[name] = fn
        self._wire_names[fn] = name
        return fn

    def register_collector(self, name: str, fn: Callable) -> Callable:
        """Register ``fn(p) -> picklable`` as per-partition state collector.

        See :meth:`collect`.  Like wire handlers, collectors must be
        registered at construction time so process-executor workers hold a
        replica of the closure (and of the state it closes over).
        """
        self._collectors[name] = fn
        return fn

    def collect(self, name: str) -> List[Any]:
        """Evaluate collector ``name`` for every partition.

        Returns a list indexed by partition.  Under the process executor,
        entry ``p`` is computed *inside worker* ``p`` (the replica whose
        shard actually executed), which is the only way to read scenario
        state back out of shard-owned object graphs.  Under the round-robin
        and thread executors the shared graph is evaluated directly, so the
        result is executor-independent for state the contract keeps
        partition-local.
        """
        fn = self._collectors.get(name)
        if fn is None:
            raise SimulationError(f"no collector registered under {name!r}")
        gather = getattr(self._executor, "collect", None)
        if gather is not None:
            gathered = gather(self, name)
            if gathered is not None:
                return gathered
        return [fn(p) for p in range(len(self._shards))]

    def effective_lookahead(self) -> float:
        """The window width for the next window: the minimum of the
        configured ``lookahead`` and the *current* latency of every boundary
        network (recomputed per window so degraded links shrink the window
        instead of breaking conservation)."""
        width = self._configured_lookahead
        for network in self._boundaries:
            latency = network.latency
            if width is None or latency < width:
                width = latency
        if width is None:
            width = DEFAULT_LOOKAHEAD
        if width <= 0.0:
            raise SimulationError(
                "effective lookahead collapsed to zero: a boundary network has "
                "zero latency; partitions joined by latency-free links cannot "
                "execute conservatively"
            )
        return width

    # -- clock --------------------------------------------------------------
    @property
    def now(self) -> float:
        shard = getattr(self._tls, "shard", None)
        if shard is not None:
            return shard._now
        override = getattr(self._tls, "override", None)
        if override:
            return override[-1]._now
        return self._time

    # -- scheduling ----------------------------------------------------------
    def call_later(self, delay: float, fn: Callable, *args: Any) -> TimerHandle:
        return self._active_shard().call_later(delay, fn, *args)

    def call_at(self, when: float, fn: Callable, *args: Any) -> TimerHandle:
        return self._active_shard().call_at(when, fn, *args)

    def _push_triggered(self, ev: SimEvent) -> None:
        self._active_shard()._push_triggered(ev)

    def call_at_partition(
        self, partition: int, when: float, fn: Callable, *args: Any
    ) -> Optional[TimerHandle]:
        dst = self._shards[self._check_partition(partition)]
        src = getattr(self._tls, "shard", None)
        if src is None or src is dst:
            # outside the run loop, or a partition-local delivery: straight
            # into the destination queue — same path as the single kernel.
            return dst.call_at(when, fn, *args)
        window_end = self._window_end
        if window_end is not None and when < window_end:
            raise LookaheadViolation(
                f"cross-partition event at t={when!r} lands inside the current "
                f"window (horizon {window_end!r}): the link from partition "
                f"{src.index} to {dst.index} is faster than the lookahead"
            )
        entry = (when, src._now, src.index, next(src._mail_seq), fn, args)
        with self._mail_lock:
            self._mailboxes[dst.index].append(entry)
        return None

    def _merge_mailboxes(self) -> None:
        """The window barrier: drain every mailbox into its destination
        shard in ``(when, sent_at, src_partition, src_seq)`` order — the
        deterministic total order for cross-partition deliveries."""
        for dst, box in zip(self._shards, self._mailboxes):
            if not box:
                continue
            box.sort(key=lambda e: e[:4])
            for when, _sent_at, _src, _seq, fn, args in box:
                # `when >= horizon >= dst.now` by the lookahead check; equal
                # timestamps land on the ready FIFO in mailbox order.
                dst.call_at(max(when, dst._now), fn, *args)
            self.mailbox_deliveries += len(box)
            box.clear()

    # -- main loop -----------------------------------------------------------
    def step(self) -> bool:  # pragma: no cover - explicit API gap
        raise SimulationError(
            "PartitionedSimulator executes window-at-a-time; use run() "
            "(single-step debugging wants Simulator(partitions=1))"
        )

    def _next_when(self) -> Optional[float]:
        best = None
        # the process executor tracks worker-reported next-event times (the
        # parent's replica shards are frozen construction-time state)
        hint = getattr(self._executor, "next_event_time", None)
        if hint is not None:
            best = hint(self)
        else:
            for shard in self._shards:
                t = shard.next_event_time()
                if t is not None and (best is None or t < best):
                    best = t
        if self._barrier_hooks:
            t = self._barrier_hooks[0][0]
            if best is None or t < best:
                best = t
        return best

    def run(self, until: Optional[Any] = None, max_time: Optional[float] = None) -> Any:
        target_event, target_time = self._run_target(until)
        self._p_stopped = False

        prepare = getattr(self._executor, "on_run_start", None)
        if prepare is not None:
            prepare(self)
        watcher = None
        if target_event is not None:
            make_watcher = getattr(self._executor, "make_watcher", None)
            if make_watcher is not None:
                watcher = make_watcher(self, target_event)

        try:
            self._run_windows(target_event, target_time, max_time, watcher)
        finally:
            finish = getattr(self._executor, "on_run_end", None)
            if finish is not None:
                finish(self)
            close = getattr(self._executor, "close", None)
            if close is not None:
                close()

        if watcher is not None:
            if watcher.done:
                ok, value = watcher.outcome()
                if ok:
                    return value
                raise value
            return None
        return self._run_result(target_event)

    def _target_done(self, target_event: Optional[SimEvent], watcher: Optional[Any]) -> bool:
        if watcher is not None:
            return watcher.done
        return target_event is not None and target_event._processed

    def _run_windows(
        self,
        target_event: Optional[SimEvent],
        target_time: Optional[float],
        max_time: Optional[float],
        watcher: Optional[Any] = None,
    ) -> None:
        take_bus = getattr(self._executor, "take_bus", None)
        while not self._p_stopped:
            if self._target_done(target_event, watcher):
                break
            nxt = self._next_when()
            if nxt is None:
                if target_event is not None and not self._target_done(target_event, watcher):
                    raise SimulationError(
                        f"simulation ran out of events while waiting for {target_event!r} "
                        "(deadlock: nobody will ever trigger it)"
                    )
                # natural exhaustion: commit a common clock so later
                # scheduling (relative delays) agrees across partitions.
                for shard in self._shards:
                    if shard._now > self._time:
                        self._time = shard._now
                for shard in self._shards:
                    if shard._now < self._time:
                        shard._now = self._time
                break
            if target_time is not None and nxt > target_time:
                for shard in self._shards:
                    if shard._now < target_time:
                        shard._now = target_time
                self._time = target_time
                break
            if max_time is not None and nxt > max_time:
                raise SimulationError(f"virtual time exceeded max_time={max_time}")
            window_end = nxt + self.effective_lookahead()
            if target_time is not None and window_end > target_time:
                window_end = target_time
            if max_time is not None and window_end > max_time:
                window_end = max_time
            self._window_end = window_end
            try:
                self._executor.run_window(self, self._shards, window_end)
            finally:
                # merge even when model code raised out of a shard: mailbox
                # entries are post-horizon and safe to deliver any time.
                self._window_end = None
                self._merge_mailboxes()
            self.windows_run += 1
            for shard in self._shards:
                if shard._now > self._time:
                    self._time = shard._now
            # window edge: deliver barrier-bus publications (boundary probe
            # samples) in the deterministic merged order — before telemetry
            # drains (consumer emissions commit with this barrier) and
            # before hooks (samples observed this window predate edge churn)
            self._drain_barrier_bus(take_bus(self) if take_bus is not None else None)
            # window edge: drain per-shard telemetry buffers into the
            # deterministic merged stream (executor-independent order)
            hub = self.telemetry
            if hub is not None:
                hub.on_window_barrier(window_end)
            # window edge: every shard has reached the horizon — run the
            # barrier hooks that have come due (boundary-link churn et al.)
            hooks = self._barrier_hooks
            while hooks and hooks[0][0] <= window_end and not self._p_stopped:
                _when, _seq, fn, args = heapq.heappop(hooks)
                fn(*args)

    def stop(self) -> None:
        """Stop the run: the executing shard halts immediately, remaining
        shards at the window barrier."""
        self._p_stopped = True
        shard = getattr(self._tls, "shard", None)
        if shard is not None:
            shard.stop()

    def shutdown(self) -> None:
        """Release executor resources (worker processes/threads).

        Idempotent; a no-op for executors without persistent state.  The
        process executor's worker pool survives across :meth:`run` calls so
        multi-phase scenarios reuse it — call this (or let the simulator be
        garbage-collected) when done."""
        stop = getattr(self._executor, "shutdown", None)
        if stop is None:
            stop = getattr(self._executor, "close", None)
        if stop is not None:
            stop()

    def set_build_spec(self, fn: Callable, *args: Any) -> None:
        """Declare how worker processes rebuild the deployment.

        Delegates to the process executor (see
        :meth:`~repro.simnet.procexec.ProcessPoolExecutor.set_build_spec`);
        a no-op on executors that share the parent's object graph."""
        setter = getattr(self._executor, "set_build_spec", None)
        if setter is not None:
            setter(fn, *args)

    def begin_profile(self) -> None:
        """Arm per-shard profiling (process executor: a ``cProfile`` run
        inside each worker, covering shard windows only).  A no-op on
        executors without per-shard profiling support."""
        start = getattr(self._executor, "begin_profile", None)
        if start is not None:
            start()

    def end_profile(self) -> Optional[List[Optional[dict]]]:
        """Stop per-shard profiling and return one raw ``cProfile`` stats
        dict per partition (``None`` entries for shards that never ran;
        ``None`` overall when the executor does not profile)."""
        stop = getattr(self._executor, "end_profile", None)
        if stop is None:
            return None
        return stop()

    # -- introspection -------------------------------------------------------
    def pending_count(self) -> int:
        live = None
        worker_live = getattr(self._executor, "pending_live", None)
        if worker_live is not None:
            live = worker_live(self)
        if live is None:
            live = sum(shard._live for shard in self._shards)
        return live + sum(len(box) for box in self._mailboxes) + len(self._barrier_hooks)

    def stats(self) -> SimStats:
        """Aggregated kernel counters across all shards, in the same
        :class:`~repro.simnet.engine.SimStats` shape the single loop
        returns (``.as_dict()`` keys match field-for-field).

        ``events_processed``, ``timers_scheduled`` and ``cancellations``
        sum exactly across shards.  ``peak_pending`` is per-shard by
        nature: the merged value is the *sum of per-shard peaks*, an upper
        bound on the true concurrent peak (shards hit their maxima at
        different instants).  Use :meth:`partition_stats`
        for the undistorted per-shard view.  All counters are executor-
        independent: every executor runs identical per-shard schedules, so
        ``stats()`` compares equal across round-robin, thread and process
        (the latter barrier-samples the counters out of its workers)."""
        shard_stats = self.partition_stats()
        return SimStats(
            events_processed=sum(s.events_processed for s in shard_stats),
            timers_scheduled=sum(s.timers_scheduled for s in shard_stats),
            cancellations=sum(s.cancellations for s in shard_stats),
            peak_pending=sum(s.peak_pending for s in shard_stats),
        )

    def partition_stats(self) -> List[SimStats]:
        """Per-shard counter snapshots, in partition order.  Under the
        process executor shard ``p``'s counters come from worker ``p``'s
        last window report (the parent replica never executes)."""
        gather = getattr(self._executor, "partition_stats", None)
        if gather is not None:
            gathered = gather(self)
            if gathered is not None:
                return gathered
        return [shard.stats() for shard in self._shards]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<PartitionedSimulator partitions={len(self._shards)} "
            f"executor={self._executor.name} t={self._time:g} "
            f"windows={self.windows_run}>"
        )


class _PartitionContext:
    """Context manager pushing a partition override onto the calling
    thread's routing stack (see :meth:`PartitionedSimulator.in_partition`)."""

    __slots__ = ("sim", "shard")

    def __init__(self, sim: PartitionedSimulator, shard: _PartitionShard):
        self.sim = sim
        self.shard = shard

    def __enter__(self) -> PartitionedSimulator:
        tls = self.sim._tls
        stack = getattr(tls, "override", None)
        if stack is None:
            stack = tls.override = []
        stack.append(self.shard)
        return self.sim

    def __exit__(self, *_exc: Any) -> None:
        self.sim._tls.override.pop()
