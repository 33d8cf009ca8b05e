"""Process-pool executor: one worker process per partition, multi-core.

The executor implements the :meth:`run_window` contract of
:class:`~repro.simnet.partition.PartitionedSimulator` with a pool of
forked worker processes.  The design is *replicated construction, sharded
execution*:

* Every worker holds a **full replica** of the deployment object graph —
  inherited via ``fork`` at the first ``run()`` (or rebuilt from a
  declarative build spec, see :meth:`ProcessPoolExecutor.set_build_spec`)
  — but *executes* only its own partition's shard.  Other shards in a
  replica are frozen construction-time state.
* Cross-shard traffic is the **boundary-mailbox stream**: outgoing
  entries are wire-encoded (frame fields by value, hosts/networks by
  their deterministic names — see :class:`_WireCodec`), shipped to the
  parent in the window report, merged by the parent with the same
  ``(when, sent_at, src_partition, src_seq)`` sort as the round-robin
  executor, and routed to the destination worker with the next window
  command.  The window barrier is the pipe round-trip.
* **Barrier-riding control plane**: barrier hooks and barrier-bus
  consumers registered at construction time exist identically in every
  replica; the parent additionally fans out (a) hooks registered by shard
  model code mid-run (wire-encoded, sequenced after local hooks at the
  same edge) and (b) the merged barrier-bus batch of each window, so
  every replica replays the identical barrier schedule at the start of
  its next window.  Telemetry shard buffers are shipped in the window
  report and re-stamped by the parent hub, reproducing the round-robin
  ``(t, p, s)`` merge byte-for-byte.
* The parent's own shards never execute: their queues are cleared at
  fork ("shadow" shards) so that anything scheduled *by barrier context
  code in the parent* is visible to the window-sizing logic for exactly
  one window, after which the owning worker's report subsumes it.

``run(until=event)`` works through a **shadow event watcher**: watched
events are named by construction-order uid, workers report triggers
``(uid, ok, value)`` at the barrier, and the parent resolves composite
``AllOf``/``AnyOf`` targets from child outcomes (see :class:`_EventWatcher`).

One asymmetry of the replication model: *scheduling* from parent
barrier-context code ships to the owning worker with the next window (the
shadow-shard path above), but **cancelling** a pre-fork timer from the
parent does not — a :class:`~repro.simnet.engine.TimerHandle` has no
cross-address-space identity (timers are the hot path; only events carry
uids).  The parent-side cancel marks the local handle and bumps the
cancellation counter exactly as the round-robin executor would, but the
worker replica's twin timer stays live, so ``pending_count()`` may read
one higher than round-robin after e.g. ``TopologyMonitor.stop()`` between
runs, and the orphaned timer still fires if the run continues.  Cancel
from model code inside the owning shard (or stop probes before the fork /
after the final run) for executor-identical behaviour.

Requires the ``fork`` start method (POSIX).  The pool persists across
``run()`` calls; release it with ``PartitionedSimulator.shutdown()`` (a
finalizer reaps leaked pools).
"""

from __future__ import annotations

import heapq
import itertools
import os
import pickle
import traceback
import weakref
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.simnet.engine import AllOf, AnyOf, SimEvent, SimStats, SimulationError
from repro.simnet.network import Frame, Nic

__all__ = ["ProcessPoolExecutor"]

#: sequence base for barrier hooks fanned out from worker shard code: far
#: above any locally-registered hook's sequence, so at an equal ``when``
#: every replica orders local (construction/barrier-context) hooks before
#: fanned (mid-run shard-context) ones.
_FAN_SEQ_BASE = 1 << 40


class _Unpicklable:
    """Placeholder for a trigger value that could not cross the pipe."""

    __slots__ = ("repr",)

    def __init__(self, rep: str) -> None:
        self.repr = rep

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<unpicklable {self.repr}>"


def _safe_value(value: Any) -> Any:
    """``value`` if it pickles, else an :class:`_Unpicklable` marker."""
    try:
        pickle.dumps(value)
        return value
    except Exception:
        return _Unpicklable(repr(value))


def _contains_unpicklable(value: Any) -> Optional[_Unpicklable]:
    if isinstance(value, _Unpicklable):
        return value
    if isinstance(value, (list, tuple)):
        for item in value:
            found = _contains_unpicklable(item)
            if found is not None:
                return found
    return None


class _WireCodec:
    """Encode/decode mailbox callbacks for the cross-process pipes.

    Two wire kinds:

    ``("f", net_name, rx_host_name, frame_fields)``
        A frame delivery (``Nic.handle_arrival``) — the overwhelmingly
        common cross-partition callback.  Encoded structurally: payload
        bytes by value, hosts and networks by their deterministic names,
        resolved against the receiving replica's boundary-network
        registry.

    ``("h", name, args)``
        A scenario-level callback registered with
        :meth:`~repro.simnet.engine.Simulator.register_wire_handler`;
        ``args`` must pickle.
    """

    def __init__(self, sim) -> None:
        self.sim = sim
        self._nets: Dict[str, Any] = {}
        self._hosts: Dict[str, Dict[str, Any]] = {}

    def rebuild(self) -> None:
        self._nets = {net.name: net for net in self.sim.boundary_networks()}
        self._hosts = {
            name: {host.name: host for host in net.nics}
            for name, net in self._nets.items()
        }

    def encode(self, fn: Callable, args: tuple) -> Tuple:
        bound = getattr(fn, "__self__", None)
        if bound is not None and getattr(fn, "__func__", None) is Nic.handle_arrival:
            frame, arrival = args
            payload = frame.payload
            if not isinstance(payload, bytes):
                payload = bytes(payload)
            return (
                "f",
                bound.network.name,
                bound.host.name,
                (
                    frame.frame_id,
                    frame.src.name,
                    frame.dst.name,
                    frame.channel,
                    payload,
                    dict(frame.meta),
                    arrival,
                ),
            )
        name = self.sim._wire_names.get(fn)
        if name is not None:
            return ("h", name, args)
        raise SimulationError(
            f"cannot wire-encode cross-partition callback {fn!r} for "
            "executor='process': frame deliveries are encoded structurally; "
            "any other callback crossing a partition boundary must be named "
            "with Simulator.register_wire_handler(name, fn) at deployment time"
        )

    def decode(self, wire: Tuple) -> Tuple[Callable, tuple]:
        kind = wire[0]
        if kind == "f":
            _, net_name, rx_name, fields = wire
            net = self._nets.get(net_name)
            if net is None:
                self.rebuild()
                net = self._nets.get(net_name)
            if net is None:
                raise SimulationError(
                    f"wire decode: no boundary network named {net_name!r} in this replica"
                )
            hosts = self._hosts[net_name]
            frame_id, src_name, dst_name, channel, payload, meta, arrival = fields
            try:
                src, dst, rx = hosts[src_name], hosts[dst_name], hosts[rx_name]
            except KeyError as exc:
                raise SimulationError(
                    f"wire decode: host {exc.args[0]!r} not attached to {net_name!r}"
                ) from None
            frame = Frame(
                frame_id=frame_id,
                src=src,
                dst=dst,
                network=net,
                channel=channel,
                payload=payload,
                meta=meta,
            )
            return net.nics[rx].handle_arrival, (frame, arrival)
        if kind == "h":
            _, name, args = wire
            fn = self.sim._wire_handlers.get(name)
            if fn is None:
                raise SimulationError(
                    f"wire decode: no handler registered under {name!r} in this "
                    "replica (register_wire_handler must run at construction time)"
                )
            return fn, args
        raise SimulationError(f"unknown wire kind {kind!r}")


class _EventWatcher:
    """Shadow-resolve ``run(until=event)`` targets across address spaces.

    The parent's copy of a watched event never triggers (events trigger
    inside worker replicas), so the executor watches the *uids* of the
    target's untriggered leaves; workers report ``(uid, ok, value)`` when
    a watched event triggers, and the watcher re-derives composite
    ``AllOf``/``AnyOf`` outcomes from child outcomes.  One documented
    divergence: when two ``AnyOf`` children trigger within the same
    window, the watcher resolves to the lowest child index rather than
    the earliest trigger (the per-window report has no intra-window
    order); both are legal model outcomes.
    """

    def __init__(self, executor: "ProcessPoolExecutor", sim, event: SimEvent) -> None:
        self.executor = executor
        self.sim = sim
        self.event = event
        self._done = False
        self._outcome: Optional[Tuple[bool, Any]] = None
        leaves: List[SimEvent] = []
        self._collect_leaves(event, leaves)
        limit = executor._fork_uid_limit
        uids = []
        for ev in leaves:
            uid = getattr(ev, "uid", None)
            if uid is None or (limit is not None and uid >= limit):
                raise SimulationError(
                    "executor='process' can only wait on events the worker "
                    "replicas hold a copy of, i.e. events created before the "
                    f"first run(); {ev!r} was created after the workers forked"
                )
            uids.append(uid)
        executor._watch(uids)
        self._refresh()

    def _collect_leaves(self, ev: SimEvent, out: List[SimEvent]) -> None:
        if ev._triggered:
            return
        if isinstance(ev, (AllOf, AnyOf)):
            for child in ev._children:
                self._collect_leaves(child, out)
        else:
            out.append(ev)

    # -- resolution ---------------------------------------------------------
    @property
    def done(self) -> bool:
        if not self._done:
            self._refresh()
        return self._done

    def outcome(self) -> Tuple[bool, Any]:
        ok, value = self._outcome
        bad = _contains_unpicklable(value)
        if bad is not None:
            raise SimulationError(
                "the watched event's value could not be shipped across "
                f"processes: {bad.repr} is not picklable"
            )
        return ok, value

    def _refresh(self) -> None:
        status, value = self._resolve(self.event)
        if status == "ok":
            self._done, self._outcome = True, (True, value)
        elif status == "fail":
            self._done, self._outcome = True, (False, value)

    def _resolve(self, ev: SimEvent) -> Tuple[str, Any]:
        if ev._triggered:
            # the parent replica's own copy resolved (pre-run trigger, or a
            # parent-side barrier hook triggered it directly)
            return ("ok", ev.value) if ev.ok else ("fail", ev.value)
        if isinstance(ev, AllOf):
            values: List[Any] = []
            pending = False
            for child in ev._children:
                status, value = self._resolve(child)
                if status == "fail":
                    return "fail", value
                if status == "pending":
                    pending = True
                else:
                    values.append(value)
            return ("pending", None) if pending else ("ok", values)
        if isinstance(ev, AnyOf):
            for idx, child in enumerate(ev._children):
                status, value = self._resolve(child)
                if status == "ok":
                    return "ok", (idx, value)
                if status == "fail":
                    return "fail", value
            return "pending", None
        hit = self.executor._triggered.get(getattr(ev, "uid", None))
        if hit is None:
            return "pending", None
        ok, value = hit
        return ("ok", value) if ok else ("fail", value)


class ProcessPoolExecutor:
    """One forked worker process per partition; windows over pipes.

    Per window the parent sends each worker a ``("w", window_end,
    prev_edge, entries, bus_fan, hook_fan, watch_new)`` command — its
    sorted incoming mailbox entries plus the barrier-control fan-out of
    the previous edge — and the workers execute their shards
    *concurrently* (this is where the speedup lives).  The parent then
    receives one report per worker in partition order and re-merges:
    outgoing mailbox entries, barrier-bus publications, hook ships,
    event triggers, telemetry buffers and kernel counters.
    """

    name = "process"
    #: PartitionedSimulator installs the event-uid tracker for us
    needs_event_uids = True
    is_process = True

    def __init__(self) -> None:
        self._procs: Optional[List[Any]] = None
        self._conns: Optional[List[Any]] = None
        self._codec: Optional[_WireCodec] = None
        self._finalizer = None
        self._build_spec: Optional[Tuple[Callable, tuple]] = None
        # routed-but-unshipped mailbox entries, per destination partition:
        # (when, sent_at, src_partition, src_seq, wire)
        self._pending: Optional[List[List[Tuple]]] = None
        self._next_times: Optional[List[Optional[float]]] = None
        self._bus_out: List[Tuple] = []
        self._hook_fan: List[Tuple] = []
        self._fan_counter = itertools.count()
        self._watch_new: List[int] = []
        self._triggered: Dict[int, Tuple[bool, Any]] = {}
        self._fork_uid_limit: Optional[int] = None
        self._prev_edge: Optional[float] = None
        self._stats: Optional[List[SimStats]] = None
        self._stat_ship_base: Optional[List[SimStats]] = None
        self._live: Optional[List[int]] = None
        self._drift_base: Optional[List[int]] = None
        self._watcher: Optional[_EventWatcher] = None
        self._profiling = False

    # -- configuration ------------------------------------------------------
    def set_build_spec(self, fn: Callable, *args: Any) -> None:
        """Have each worker *rebuild* the deployment instead of inheriting
        the parent's copy-on-write fork image.  ``fn(*args)`` must
        deterministically construct the scenario — returning the simulator
        or an object with a ``.sim`` attribute — with
        ``executor="process"`` and the same partition count.  Must be set
        before the first :meth:`run_window` (i.e. before the first
        ``run()``)."""
        if self._procs is not None:
            raise SimulationError("set_build_spec must be called before the first run()")
        self._build_spec = (fn, args)

    def _watch(self, uids: List[int]) -> None:
        for uid in uids:
            if uid not in self._triggered:
                self._watch_new.append(uid)

    def make_watcher(self, psim, event: SimEvent) -> _EventWatcher:
        self._watcher = _EventWatcher(self, psim, event)
        return self._watcher

    # -- lifecycle ----------------------------------------------------------
    def on_run_start(self, psim) -> None:
        self._ensure_started(psim)
        if self._drift_base is not None:
            current = [shard._seq for shard in psim._shards]
            if current != self._drift_base:
                raise SimulationError(
                    "executor='process' does not support scheduling between "
                    "run() calls: the worker replicas would never see those "
                    "events (the parent's shards are shadows).  Schedule "
                    "before the first run(), or from model/barrier code "
                    "during a run."
                )
        self._codec.rebuild()

    def _ensure_started(self, psim) -> None:
        if self._procs is not None:
            return
        import multiprocessing

        if "fork" not in multiprocessing.get_all_start_methods():
            raise SimulationError(
                "executor='process' requires the fork start method (POSIX); "
                "use executor='thread' or 'round-robin' on this platform"
            )
        ctx = multiprocessing.get_context("fork")
        # burn one uid: every event the replicas inherit a copy of sits
        # strictly below this, which is what _EventWatcher checks.
        self._fork_uid_limit = next(psim._event_uid_counter)
        self._codec = _WireCodec(psim)
        n = psim.partition_count
        procs, conns = [], []
        for i in range(n):
            parent_conn, child_conn = ctx.Pipe()
            proc = ctx.Process(
                target=_worker_main,
                args=(psim, self._build_spec, i, child_conn),
                name=f"sim-shard-{i}",
                daemon=True,
            )
            proc.start()
            child_conn.close()
            procs.append(proc)
            conns.append(parent_conn)
        self._procs, self._conns = procs, conns
        self._finalizer = weakref.finalize(self, _shutdown_workers, procs, conns)
        # snapshot next-event times from the (still intact, replica-identical)
        # parent shards, then shadow them: from here on a parent shard's
        # queue only ever holds what barrier-context code schedules.
        self._pending = [[] for _ in range(n)]
        self._next_times = [shard.next_event_time() for shard in psim._shards]
        for shard in psim._shards:
            _clear_shadow_queue(shard)
        if self._profiling:
            for conn in conns:
                conn.send(("ps",))

    def close(self) -> None:
        """End-of-run hook: a no-op — the pool persists across run() calls
        (multi-phase scenarios reuse it); see :meth:`shutdown`."""

    def shutdown(self) -> None:
        procs, conns = self._procs, self._conns
        self._procs = self._conns = None
        if self._finalizer is not None:
            self._finalizer.detach()
            self._finalizer = None
        if procs is not None:
            _shutdown_workers(procs, conns)

    # -- the window ----------------------------------------------------------
    def run_window(self, psim, shards, window_end: float) -> None:
        conns = self._conns
        prev_edge = self._prev_edge
        bus_fan = psim._bus_last_drain
        psim._bus_last_drain = None
        hook_fan, self._hook_fan = self._hook_fan, []
        watch_new, self._watch_new = self._watch_new, []
        # snapshot parent (barrier-context) counters at ship time: replica
        # reports include barrier replays only up to this point, so stats
        # gathered at the coming edge add the parent's bumps past it
        # (see partition_stats)
        self._stat_ship_base = [shard.stats() for shard in shards]
        for p, conn in enumerate(conns):
            entries = self._pending[p]
            wire_entries: List[Tuple] = []
            if entries:
                entries.sort(key=lambda e: e[:4])
                psim.mailbox_deliveries += len(entries)
                wire_entries = [(e[0], e[4]) for e in entries]
                self._pending[p] = []
            conn.send(("w", window_end, prev_edge, wire_entries, bus_fan, hook_fan, watch_new))
        self._prev_edge = window_end

        errors: List[Tuple[int, BaseException]] = []
        hook_ships: List[Tuple] = []
        stats: List[Optional[SimStats]] = [None] * len(shards)
        live: List[int] = [0] * len(shards)
        hub = psim.telemetry
        for p, conn in enumerate(conns):
            try:
                msg = conn.recv()
            except (EOFError, OSError):
                errors.append(
                    (p, SimulationError(f"worker process for partition {p} died mid-window"))
                )
                continue
            if msg[0] == "e":
                errors.append((p, _rebuild_error(p, msg)))
                continue
            (
                _,
                shard_now,
                next_t,
                out_entries,
                bus,
                ships,
                triggers,
                stats_dict,
                shard_live,
                telem,
                stopped,
            ) = msg
            shards[p]._now = shard_now
            self._next_times[p] = next_t
            for dst, when, sent_at, src_idx, src_seq, wire in out_entries:
                self._pending[dst].append((when, sent_at, src_idx, src_seq, wire))
            for i, (key, payload) in enumerate(bus):
                self._bus_out.append((p, i, key, payload))
            for when, ship_seq, wire in ships:
                hook_ships.append((when, p, ship_seq, wire))
            for uid, ok, value in triggers:
                self._triggered[uid] = (ok, value)
            stats[p] = SimStats(**stats_dict)
            live[p] = shard_live
            if telem and hub is not None:
                hub.absorb_worker_events(telem)
            if stopped:
                psim._p_stopped = True
        if errors:
            errors.sort(key=lambda e: e[0])
            raise errors[0][1]
        # mid-run shard-context call_at_barrier registrations: decode into
        # the parent's heap and fan to every replica next window, sequenced
        # deterministically after all locally-registered hooks at the edge
        if hook_ships:
            hook_ships.sort(key=lambda e: (e[0], e[1], e[2]))
            for when, _src_p, _ship_seq, wire in hook_ships:
                seq = _FAN_SEQ_BASE + next(self._fan_counter)
                fn, args = self._codec.decode(wire)
                heapq.heappush(psim._barrier_hooks, (when, seq, fn, args))
                self._hook_fan.append((when, seq, wire))
        self._stats = stats
        self._live = live
        # anything barrier-context code scheduled into the parent's shadow
        # shards before this window is now owned by a worker replica's live
        # queue (its report's next_t covers it) — drop the shadow copies so
        # they cannot pin the window start in the past.
        for shard in shards:
            _clear_shadow_queue(shard)

    # -- facade hooks --------------------------------------------------------
    def take_bus(self, psim) -> Optional[List[Tuple]]:
        out, self._bus_out = self._bus_out, []
        if not out:
            return None
        # worker publications sort after the parent's local barrier-context
        # publications of the same partition, exactly as the round-robin
        # shard buffers would interleave them
        offsets = [len(buf) for buf in psim._bus_buffers]
        return [(p, i + offsets[p], key, payload) for p, i, key, payload in out]

    def next_event_time(self, psim) -> Optional[float]:
        best = None
        if self._next_times is not None:
            for t in self._next_times:
                if t is not None and (best is None or t < best):
                    best = t
            for box in self._pending:
                for entry in box:
                    if best is None or entry[0] < best:
                        best = entry[0]
            # shadow shards: barrier-context code scheduled these since the
            # last report; visible here for exactly one window (see run_window)
            for shard in psim._shards:
                t = shard.next_event_time()
                if t is not None and (best is None or t < best):
                    best = t
        else:
            for shard in psim._shards:
                t = shard.next_event_time()
                if t is not None and (best is None or t < best):
                    best = t
        return best

    def pending_live(self, psim) -> Optional[int]:
        if self._live is None:
            return None
        return sum(self._live) + sum(len(box) for box in self._pending)

    def partition_stats(self, psim) -> Optional[List[SimStats]]:
        """Worker-reported counters plus the parent's barrier-context bumps
        since the last window ship — exactly the counters the round-robin
        executor's shared shards would read at this barrier.  ``peak_pending``
        and ``events_processed`` are execution-side by nature (barrier code
        runs on the facade, not through shard queues), so their parent deltas
        are structurally zero; summed fields get the correction."""
        if self._stats is None:
            return None
        merged: List[SimStats] = []
        for p, st in enumerate(self._stats):
            cur = psim._shards[p].stats()
            base = self._stat_ship_base[p]
            # routed-but-unshipped mailbox entries: the round-robin barrier
            # would already have merged these into shard p's queue (one
            # timer each), so count them now — the worker's own counter
            # takes over when the entries ship with the next window
            inflight = len(self._pending[p])
            merged.append(
                SimStats(
                    events_processed=st.events_processed
                    + cur.events_processed
                    - base.events_processed,
                    timers_scheduled=st.timers_scheduled
                    + cur.timers_scheduled
                    - base.timers_scheduled
                    + inflight,
                    cancellations=st.cancellations + cur.cancellations - base.cancellations,
                    peak_pending=st.peak_pending,
                )
            )
        return merged

    def collect(self, psim, name: str) -> Optional[List[Any]]:
        if self._conns is None:
            return None
        for conn in self._conns:
            conn.send(("c", name))
        results = []
        for p, conn in enumerate(self._conns):
            msg = conn.recv()
            if msg[0] == "e":
                raise _rebuild_error(p, msg)
            results.append(msg[1])
        return results

    def on_run_end(self, psim) -> None:
        if self._conns is None:
            return
        # the facade may have committed a common clock (natural exhaustion,
        # run-until-time): broadcast it so replica shard clocks agree for
        # relative scheduling in later runs
        times = [shard._now for shard in psim._shards]
        for conn in self._conns:
            conn.send(("t", times, psim._time))
        self._drift_base = [shard._seq for shard in psim._shards]

    # -- profiling -----------------------------------------------------------
    def begin_profile(self) -> None:
        self._profiling = True
        if self._conns is not None:
            for conn in self._conns:
                conn.send(("ps",))

    def end_profile(self) -> Optional[List[Optional[dict]]]:
        self._profiling = False
        if self._conns is None:
            return None
        for conn in self._conns:
            conn.send(("pe",))
        results = []
        for p, conn in enumerate(self._conns):
            msg = conn.recv()
            if msg[0] == "e":
                raise _rebuild_error(p, msg)
            results.append(msg[1])
        return results


def _rebuild_error(p: int, msg: Tuple) -> BaseException:
    """Reconstruct a worker-side exception from an ``("e", ...)`` reply,
    preserving the original type when it pickles (so LookaheadViolation et
    al. propagate as themselves) and attaching the worker traceback."""
    _, blob, rep, tb = msg
    exc: Optional[BaseException] = None
    if blob is not None:
        try:
            exc = pickle.loads(blob)
        except Exception:
            exc = None
    if exc is None:
        exc = SimulationError(f"worker process for partition {p} failed: {rep}")
    note = f"[worker {p} traceback]\n{tb}"
    add_note = getattr(exc, "add_note", None)
    if add_note is not None:
        add_note(note)
    return exc


def _clear_shadow_queue(shard) -> None:
    """Empty a parent-side shadow shard's timer structures in place.

    The shard never executes in the parent once workers exist; clearing
    (without running anything) makes ``next_event_time`` report only what
    barrier-context code scheduled since the last clear."""
    shard._ready.clear()
    shard._heap.clear()
    shard._live = 0


def _shutdown_workers(procs, conns) -> None:
    for conn in conns:
        try:
            conn.send(("x",))
        except Exception:
            pass
    for proc in procs:
        proc.join(timeout=2.0)
    for proc in procs:
        if proc.is_alive():  # pragma: no cover - stuck worker safety net
            proc.terminate()
            proc.join(timeout=2.0)
    for conn in conns:
        try:
            conn.close()
        except Exception:
            pass


# -- worker side --------------------------------------------------------------
def _worker_main(psim, build_spec, index: int, conn) -> None:
    """Entry point of the forked worker for partition ``index``."""
    status = 0
    try:
        sim = psim
        if build_spec is not None:
            fn, args = build_spec
            built = fn(*args)
            sim = getattr(built, "sim", built)
            if sim.partition_count != psim.partition_count:
                raise SimulationError(
                    f"build spec constructed {sim.partition_count} partitions, "
                    f"expected {psim.partition_count}"
                )
        sim._worker_index = index
        hub = sim.telemetry
        if hub is not None:
            hub.begin_worker_capture(index)
        codec = _WireCodec(sim)
        codec.rebuild()
        _worker_loop(sim, sim._shards[index], codec, conn)
    except BaseException:
        status = 1
        try:
            conn.send(("e", None, "worker failed outside the command loop",
                       traceback.format_exc()))
        except Exception:
            pass
    finally:
        try:
            conn.close()
        except Exception:
            pass
        # skip interpreter teardown: the fork inherited the parent's open
        # file objects (telemetry JSONL, logs) and must not flush them
        os._exit(status)


def _worker_loop(sim, shard, codec, conn) -> None:
    state = {"prof": None}
    watched: set = set()
    while True:
        cmd = conn.recv()
        op = cmd[0]
        if op == "x":
            return
        if op == "t":
            _, times, facade_time = cmd
            for s, t in zip(sim._shards, times):
                if t > s._now:
                    s._now = t
            sim._time = facade_time
            continue
        if op == "ps":
            if state["prof"] is None:
                import cProfile

                state["prof"] = cProfile.Profile()
            continue
        # commands with a reply: any failure becomes an ("e", ...) reply so
        # the parent's recv-per-send protocol stays in lockstep.  The report
        # send sits inside the try because Connection.send pickles before
        # writing — a non-picklable report degrades to a clean error reply.
        try:
            if op == "w":
                conn.send(_worker_window(sim, shard, codec, cmd, watched, state))
            elif op == "c":
                fn = sim._collectors.get(cmd[1])
                if fn is None:
                    raise SimulationError(
                        f"no collector registered under {cmd[1]!r} in worker {shard.index}"
                    )
                conn.send(("cr", fn(shard.index)))
            elif op == "pe":
                prof, state["prof"] = state["prof"], None
                if prof is None:
                    conn.send(("pr", None))
                else:
                    prof.create_stats()
                    conn.send(("pr", prof.stats))
            else:
                raise SimulationError(f"unknown worker command {op!r}")
        except BaseException as exc:
            try:
                blob = pickle.dumps(exc)
            except Exception:
                blob = None
            conn.send(("e", blob, repr(exc), traceback.format_exc()))


def _worker_window(sim, shard, codec, cmd, watched: set, state: dict) -> Tuple:
    _, window_end, prev_edge, entries, bus_fan, hook_fan, watch_new = cmd
    sim._p_stopped = False
    if prev_edge is not None:
        sim._time = prev_edge
    # 1. incoming boundary mailbox entries, already merged/sorted by the
    #    parent — deliver in order, exactly like _merge_mailboxes
    for when, wire in entries:
        fn, args = codec.decode(wire)
        shard.call_at(max(when, shard._now), fn, *args)
    # 2. barrier sample bus: drop this replica's buffered barrier-context
    #    publications (the parent's merged batch below re-delivers them) and
    #    replay the previous edge's merged batch through local consumers
    for buf in sim._bus_buffers:
        del buf[:]
    if bus_fan:
        sim._drain_barrier_bus(bus_fan)
    # 3. barrier hooks fanned from other replicas' shard code, then replay
    #    every hook due at the previous edge (the parent already ran its
    #    authoritative copy; this keeps replica state in lockstep)
    for when, seq, wire in hook_fan:
        fn, args = codec.decode(wire)
        heapq.heappush(sim._barrier_hooks, (when, seq, fn, args))
    if prev_edge is not None:
        hooks = sim._barrier_hooks
        while hooks and hooks[0][0] <= prev_edge:
            _when, _seq, fn, args = heapq.heappop(hooks)
            fn(*args)
    if watch_new:
        watched.update(watch_new)
    # 4. run the shard's window
    bus_base = len(sim._bus_buffers[shard.index])
    sim._window_end = window_end
    prof = state["prof"]
    sim._enter_shard(shard)
    try:
        if prof is not None:
            prof.enable()
        try:
            shard.run(until=window_end)
        finally:
            if prof is not None:
                prof.disable()
    finally:
        sim._exit_shard()
        sim._window_end = None
    # 5. report: everything the parent needs to merge this window
    out_entries: List[Tuple] = []
    for dst, box in enumerate(sim._mailboxes):
        if box:
            for when, sent_at, src_idx, src_seq, fn, args in box:
                out_entries.append(
                    (dst, when, sent_at, src_idx, src_seq, codec.encode(fn, args))
                )
            del box[:]
    bus = sim._bus_buffers[shard.index][bus_base:]
    del sim._bus_buffers[shard.index][:]
    ships: List[Tuple] = []
    for when, ship_seq, fn, args in sim._pending_hook_ships:
        ships.append((when, ship_seq, codec.encode(fn, args)))
    del sim._pending_hook_ships[:]
    triggers: List[Tuple] = []
    if watched:
        fired = []
        for uid in watched:
            ev = sim._uid_map.get(uid)
            if ev is None or not ev._triggered:
                continue
            triggers.append((uid, ev.ok, _safe_value(ev.value)))
            fired.append(uid)
        watched.difference_update(fired)
    hub = sim.telemetry
    telem = hub.take_worker_events() if hub is not None else []
    return (
        "r",
        shard._now,
        shard.next_event_time(),
        out_entries,
        bus,
        ships,
        triggers,
        shard.stats().as_dict(),
        shard._live,
        telem,
        sim._p_stopped,
    )
