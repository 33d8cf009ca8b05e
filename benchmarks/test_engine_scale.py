"""EXP-SCALE — event-kernel & data-path throughput at grid scale.

Two scenarios over the same ``rows x cols`` grid of Ethernet clusters
(:func:`repro.simnet.networks.grid_deployment`):

**Full-stack deployment scenario** (``run_scenario``) — boots every host
and drives the load the deployments of PR 1–2 combine: chunked TCP/SysIO
streams between cluster neighbours, cross-cluster streams through two
gateway relays, an active probe per WAN link, and seeded degrade/recover
churn.  Wall time here is dominated by the protocol *models* (TCP window
model, monitoring estimators), so this scenario tracks the end-to-end
trajectory rather than the kernel in isolation.

**Kernel workload scenario** (``run_kernel_scenario``) — the same grid, but
driving exactly the layers the event-kernel overhaul rebuilt, with the
protocol models out of the way:

* *failure detectors*: every host heartbeats its cluster neighbour; each
  beat arms a cancellable guard timeout that delivery cancels — the
  dense-timer + cancellation workload (on the pre-PR kernel every guard
  stayed in the heap and fired as a dead no-op);
* *churn*: Poisson-thinning flap schedules on every WAN link
  (:func:`repro.monitoring.churn.poisson_thinning_times`);
* *relayed byte streams*: per WAN link, a burst producer feeds a chain of
  store-and-forward ``StreamBuffer`` hops (the gateway-relay motif) with a
  framed consumer draining 4 KB exact reads at the end — the pattern that
  is quadratic per burst on the seed ``bytearray`` buffers and linear on
  :class:`~repro.simnet.buffers.ByteRing`.

Its throughput metric is *logical* events/sec (beats, guard verdicts,
bursts, hop forwards, framed reads — identical counts on every kernel by
construction), so kernels compare purely on wall time.

Measured quantities are *wall-clock*: events/sec, total wall time, and the
peak pending-entry count (ready FIFO plus timer heap).  Baselines live in
``BENCH_engine.json`` at the repository root:

* ``seed`` entries were recorded with this same harness on the pre-PR
  kernel (monolithic ``heapq`` + copying byte path), for trajectory
  context;
* ``current`` entries are the committed performance trajectory — the CI
  smoke job fails on a >25% regression against them.

The >= 3x speedup acceptance does not rely on recorded wall-clock numbers:
:func:`test_kernel_speedup_vs_seed_stack` re-measures the current stack and
the legacy stack (:class:`ReferenceSimulator` + the seed-era copying
buffers, no cancellation) in fresh interpreters on the same machine.

Wall-clock numbers are machine-dependent, so every entry also records a
``calibration_ops`` figure (a fixed pure-Python heapq workload measured on
the recording machine); comparisons scale the stored baseline by the ratio
of the calibration measured now to the calibration stored then.

Refreshing baselines: ``BENCH_REFRESH=1 PYTHONPATH=src python -m pytest
benchmarks/test_engine_scale.py -q`` rewrites the ``current`` entries (and
the calibration) for the sizes it runs; ``ENGINE_SCALE=<size>`` restricts
the run to one size (the CI smoke job uses ``ENGINE_SCALE=small``).
"""

from __future__ import annotations

import gc
import heapq
import itertools
import json
import os
import random
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

from repro.core import PadicoFramework
from repro.monitoring.churn import poisson_thinning_times
from repro.simnet.engine import Simulator
from repro.simnet.host import Host
from repro.simnet.networks import grid_deployment
from repro.abstraction.drivers import StreamBuffer

try:  # the ready-FIFO kernel ships a reference heap scheduler; absent pre-PR
    from repro.simnet.engine import ReferenceSimulator
except ImportError:  # pragma: no cover - seed-kernel baseline recording
    ReferenceSimulator = None

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_engine.json"

#: deployment sizes: rows x cols clusters of hosts_per_cluster hosts.
SIZES = {
    "small": dict(rows=2, cols=2, hosts_per_cluster=8),  # 32 hosts (CI smoke)
    "medium": dict(rows=5, cols=5, hosts_per_cluster=8),  # 200 hosts
    "large": dict(rows=5, cols=10, hosts_per_cluster=20),  # 1000 hosts
    # nightly-only (ENGINE_SCALE=huge): 250 clusters x 40 hosts
    "huge": dict(rows=10, cols=25, hosts_per_cluster=40),  # 10000 hosts
}

TRANSFER_BYTES = 512 * 1024
#: writer granularity (one VLink write per chunk).
CHUNK = 32 * 1024
#: reader granularity: framed consumption in small exact reads, the pattern
#: middleware personalities produce (and the one that is quadratic on a
#: copying receive buffer once TCP bursts outpace the consumer).
READ_PIECE = 8 * 1024
PROBE_INTERVAL = 0.002
PROBE_SEED = 0x5CA1E
CHURN_SEED = 0xC4A05
CHURN_HORIZON = 0.35
MAX_VIRTUAL = 120.0

#: acceptance: events/sec vs. the recorded pre-PR (seed) kernel.
SPEEDUP_TARGET = 3.0
#: CI regression gate vs. the committed `current` baseline.
REGRESSION_FLOOR = 0.75


def selected_sizes():
    forced = os.environ.get("ENGINE_SCALE", "").strip()
    if forced:
        if forced not in SIZES:
            raise ValueError(f"ENGINE_SCALE={forced!r}; known sizes: {sorted(SIZES)}")
        return [forced]
    return ["medium", "large"]


def selected_executor():
    """``ENGINE_EXECUTOR`` selects the partitioned benchmarks' executor
    (unset / ``round-robin``, ``thread``, or ``process``); returns
    ``(executor_arg, kind_suffix)``.  Each executor gates against its own
    recorded baseline kind (``kernel_partitioned``, ``kernel_process``, …)
    — the process executor pays wire-serialization costs the in-process
    executors do not, so their trajectories are tracked separately."""
    ex = os.environ.get("ENGINE_EXECUTOR", "").strip()
    if not ex or ex == "round-robin":
        return None, "partitioned"
    if ex not in ("thread", "process"):
        raise ValueError(
            f"ENGINE_EXECUTOR={ex!r}; known executors: round-robin, thread, process"
        )
    return ex, ex


# ---------------------------------------------------------------------------
# machine calibration
# ---------------------------------------------------------------------------


@contextmanager
def _gc_paused():
    """Collector paused during the measured window (uniform across kernels;
    the allocation-heavy runs otherwise measure GC pauses, not the kernel)."""
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def calibration_ops(n: int = 120_000) -> float:
    """Fixed pure-Python heapq workload, in ops/sec, used to scale recorded
    wall-clock baselines onto the machine running the comparison."""
    best = 0.0
    for _ in range(3):
        heap = []
        counter = itertools.count()
        start = time.perf_counter()
        for i in range(n):
            heapq.heappush(heap, ((i * 2654435761 % n) * 1e-6, next(counter), None))
        while heap:
            heapq.heappop(heap)
        elapsed = time.perf_counter() - start
        best = max(best, (2 * n) / elapsed)
    return best


# ---------------------------------------------------------------------------
# scenario
# ---------------------------------------------------------------------------


def _stream(fw, src, dst, port, total, chunk=CHUNK):
    """One chunked byte stream src -> dst; returns the completion event."""
    listener = fw.node(dst.name).vlink_listen(port)
    done = fw.sim.event(name=f"xfer-{src.name}->{dst.name}")

    def on_accept(link):
        state = {"got": 0}

        def reader():
            while state["got"] < total:
                data = yield link.read(min(READ_PIECE, total - state["got"]))
                state["got"] += len(data)
            done.succeed(state["got"])

        fw.sim.process(reader(), name=f"rx-{dst.name}:{port}")

    listener.set_accept_callback(on_accept)
    payload = bytes(chunk)

    def writer():
        link = yield fw.node(src.name).vlink_connect(fw.node(dst.name), port)
        sent = 0
        while sent < total:
            n = min(chunk, total - sent)
            yield link.write(payload[:n])
            sent += n

    # the writer executes in the source host's partition (readers spawn in
    # the accept callback, which already runs in the destination partition)
    with fw.sim.in_partition(src.partition):
        fw.sim.process(writer(), name=f"tx-{src.name}:{port}")
    return done


def build_scenario(size: str, partitions=None, executor=None):
    cfg = SIZES[size]
    # ENGINE_FIDELITY=hybrid runs the same deployment with the fluid fast
    # path armed (the nightly job exercises this; byte totals must match).
    fidelity = os.environ.get("ENGINE_FIDELITY", "packet")
    fw = PadicoFramework(partitions=partitions, executor=executor, fidelity=fidelity)
    grid = grid_deployment(fw, **cfg)
    fw.boot()

    for index, wan in enumerate(grid.wans):
        # coalesce=8 batches runs of identical probe samples into closed-form
        # estimator updates — the 2 ms probe cadence makes per-sample
        # evaluation a measurable slice of the deployment's wall time
        fw.monitoring.watch(
            wan, interval=PROBE_INTERVAL, seed=PROBE_SEED + index, coalesce=8
        )

    injector = fw.fault_injector(seed=CHURN_SEED, announce=True)
    rng = random.Random(CHURN_SEED)
    for wan in grid.wans:
        t = 0.02 + rng.random() * 0.05
        while t < CHURN_HORIZON:
            injector.degrade_link_at(t, wan, loss_rate=0.004, bandwidth=9.0e6)
            injector.recover_link_at(t + 0.03, wan)
            t += 0.07 + rng.random() * 0.08

    completions = []
    port = itertools.count(7000)
    # intra-cluster neighbour streams (every non-gateway host participates)
    for hosts in grid.clusters:
        for i in range(1, len(hosts) - 1):
            completions.append(_stream(fw, hosts[i], hosts[i + 1], next(port), TRANSFER_BYTES))
    # cross-cluster streams, relayed through both gateways of the WAN hop
    cols = cfg["cols"]
    clusters = grid.clusters
    for k, hosts in enumerate(clusters):
        if (k + 1) % cols == 0:
            continue  # no right neighbour
        neighbour = clusters[k + 1]
        completions.append(_stream(fw, hosts[-1], neighbour[1], next(port), TRANSFER_BYTES))

    return fw, grid, completions


def _instrument(sim):
    """Event counting for kernels without ``Simulator.stats()`` (the pre-PR
    seed kernel): shadow ``step`` with a counting wrapper.  This is how the
    ``seed`` entries of BENCH_engine.json were recorded."""
    if hasattr(sim, "stats"):
        return None
    counter = {"events": 0, "peak": 0}
    orig = sim.step

    def step():
        ran = orig()
        if ran:
            counter["events"] += 1
            depth = sim.pending_count()
            if depth > counter["peak"]:
                counter["peak"] = depth
        return ran

    sim.step = step
    return counter


def run_scenario(size: str, partitions=None, executor=None) -> dict:
    build_start = time.perf_counter()
    fw, grid, completions = build_scenario(size, partitions=partitions, executor=executor)
    build_s = time.perf_counter() - build_start

    legacy_counter = _instrument(fw.sim)
    all_done = fw.sim.all_of(completions)
    with _gc_paused():
        start = time.perf_counter()
        delivered = fw.sim.run(until=all_done, max_time=MAX_VIRTUAL)
        # keep going through the full churn/probe horizon so the dense-timer
        # workload is part of the measured window even when transfers finish
        # early.
        fw.sim.run(until=max(CHURN_HORIZON, fw.sim.now), max_time=MAX_VIRTUAL)
        wall_s = time.perf_counter() - start

    if legacy_counter is not None:
        events = legacy_counter["events"]
        peak_pending = legacy_counter["peak"]
        cancellations = 0
    else:
        stats = fw.sim.stats()
        events = stats.events_processed
        peak_pending = stats.peak_pending
        cancellations = stats.cancellations
    expected = len(completions) * TRANSFER_BYTES
    got = sum(delivered)
    result = {
        "hosts": len(grid.hosts),
        "streams": len(completions),
        "bytes_delivered": got,
        "bytes_expected": expected,
        "virtual_s": round(fw.sim.now, 6),
        "build_s": round(build_s, 3),
        "wall_s": round(wall_s, 3),
        "events": events,
        "events_per_sec": round(events / wall_s, 1),
        "peak_pending": peak_pending,
        "cancellations": cancellations,
    }
    if fw.sim.partition_count > 1:
        result["partitions"] = fw.sim.partition_count
        result["windows"] = fw.sim.windows_run
        result["mailbox_deliveries"] = fw.sim.mailbox_deliveries
    fw.shutdown()  # release the process executor's worker pool (no-op otherwise)
    return result


# ---------------------------------------------------------------------------
# fluid-model deployment scenario (bulk staging transfers)
# ---------------------------------------------------------------------------

MIB = 1024 * 1024
#: per-stream staging volume: one send, epoch-sized so the fluid tier can
#: collapse hundreds of congestion-window rounds per flow.
FLUID_TRANSFER_BYTES = {"small": 16 * MIB, "medium": 32 * MIB, "large": 64 * MIB, "huge": 64 * MIB}
#: staging-phase monitoring cadence (the 2 ms operational cadence of the
#: chunked scenario would dominate the collapsed event stream).
FLUID_PROBE_INTERVAL = 0.05
#: acceptance at the 1000-host tier: packet-equivalent events retired per
#: second of hybrid wall clock vs the recorded packet deployment baseline.
FLUID_SPEEDUP_TARGET = 10.0


def _bulk_stream(fw, src, dst, port, total, payload, conns, finish_times, index):
    """One bulk TCP stream src -> dst: a single send of ``payload``,
    drained through the zero-copy iov read path.  Returns the completion
    event (succeeds, at the final byte's ready time, with the byte count)."""
    listener = fw.node(dst.name).tcp.listen(port)
    done = fw.sim.event(name=f"bulk-{src.name}->{dst.name}")

    def on_accept(conn):
        state = {"got": 0}

        def on_data(c):
            for chunk in c.read_iov():
                state["got"] += len(chunk)
            if state["got"] >= total and not done.triggered:
                finish_times[index] = fw.sim.now
                done.succeed(state["got"])

        conn.set_data_callback(on_data)

    listener.set_accept_callback(on_accept)

    def client():
        conn = yield fw.node(src.name).tcp.connect(dst, port)
        conns.append(conn)
        yield conn.send(payload)

    fw.sim.process(client(), name=f"bulk-tx-{src.name}:{port}")
    return done


def build_fluid_scenario(size: str, fidelity: str):
    """The staging workload: every non-gateway host bulk-transfers to its
    cluster neighbour while WAN monitoring runs at staging cadence.  No
    seeded churn: the streams ride cluster LANs (churn hits WANs only, so
    it would not perturb them — fidelity fallback under churn is covered
    by the fluid boundary tests, not this throughput benchmark)."""
    cfg = SIZES[size]
    fw = PadicoFramework(fidelity=fidelity)
    grid = grid_deployment(fw, **cfg)
    fw.boot()

    for index, wan in enumerate(grid.wans):
        fw.monitoring.watch(
            wan, interval=FLUID_PROBE_INTERVAL, seed=PROBE_SEED + index, coalesce=8
        )

    total = FLUID_TRANSFER_BYTES[size]
    payload = bytes(total)  # shared by every stream: sends queue views of it
    completions = []
    conns = []
    finish_times = []
    port = itertools.count(7000)
    for hosts in grid.clusters:
        for i in range(1, len(hosts) - 1):
            finish_times.append(None)
            completions.append(
                _bulk_stream(
                    fw, hosts[i], hosts[i + 1], next(port), total, payload,
                    conns, finish_times, len(finish_times) - 1,
                )
            )
    return fw, grid, completions, conns, finish_times


def run_fluid_scenario(size: str, fidelity: str):
    """One fidelity leg; returns (result, per-stream completion times)."""
    build_start = time.perf_counter()
    fw, grid, completions, conns, finish_times = build_fluid_scenario(size, fidelity)
    build_s = time.perf_counter() - build_start

    all_done = fw.sim.all_of(completions)
    with _gc_paused():
        start = time.perf_counter()
        delivered = fw.sim.run(until=all_done, max_time=MAX_VIRTUAL)
        wall_s = time.perf_counter() - start

    stats = fw.sim.stats()
    expected = len(completions) * FLUID_TRANSFER_BYTES[size]
    fluid = [c._fluid for c in conns if getattr(c, "_fluid", None) is not None]
    result = {
        "hosts": len(grid.hosts),
        "streams": len(completions),
        "bytes_delivered": sum(delivered),
        "bytes_expected": expected,
        "virtual_s": round(fw.sim.now, 6),
        "build_s": round(build_s, 3),
        "wall_s": round(wall_s, 3),
        "events": stats.events_processed,
        "events_per_sec": round(stats.events_processed / wall_s, 1),
        "peak_pending": stats.peak_pending,
        "fluid_rounds": sum(f.fluid_rounds for f in fluid),
        "epochs": sum(f.epochs for f in fluid),
    }
    return result, finish_times


def run_fluid_pair(size: str) -> dict:
    """Both fidelity legs of the staging workload, packet first (it also
    warms the allocator), then hybrid.  The reported ``events_per_sec`` is
    the gated figure: the packet run's (logical) event count retired per
    second of the *hybrid* run's wall clock."""
    packet, t_packet = run_fluid_scenario(size, "packet")
    hybrid, t_hybrid = run_fluid_scenario(size, "hybrid")
    result = dict(hybrid)
    result["packet_events"] = packet["events"]
    result["hybrid_events"] = hybrid["events"]
    result["packet_wall_s"] = packet["wall_s"]
    result["events"] = packet["events"]
    result["events_per_sec"] = round(packet["events"] / hybrid["wall_s"], 1)
    result["bytes_match_packet"] = hybrid["bytes_delivered"] == packet["bytes_delivered"]
    result["completion_times_equal"] = t_hybrid == t_packet
    return result


# ---------------------------------------------------------------------------
# kernel workload scenario
# ---------------------------------------------------------------------------

HB_INTERVAL = 0.01
HB_GUARD = 0.06
HB_LOSS = 0.005
#: cross-cluster gateway heartbeats riding the WAN latency: the workload's
#: boundary-mailbox traffic in partitioned mode (plain timers otherwise).
WAN_BEAT_INTERVAL = 0.017
#: one full TCP receive window accumulated at a relay, the deep-buffer case
#: of the seed stack (`TcpModel.receive_window` is 256 KB).
BURST = 256 * 1024
BURST_INTERVAL = 0.02  # ~12.8 MB/s per WAN stream, the VTHD access rate
#: buffer stages per relayed direction: client TCP -> gateway splice ->
#: gateway splice -> server TCP, the two-gateway route of the grid.
RELAY_HOPS = 4
FORWARD_DELAY = 2e-6
#: framed consumption granularity (middleware personalities read small
#: header/body records: GIOP headers, MPI envelopes, adaptive frames).
KERNEL_PIECE = 2 * 1024
KERNEL_HORIZON = {"small": 0.4, "medium": 0.8, "large": 1.0, "huge": 0.6}
FLAP_RATE = 2.0
FLAP_DOWN = 0.03
KERNEL_SEED = 0xBEEF


class _LegacyStreamBuffer:
    """The seed (pre-PR) receive buffer, verbatim: a ``bytearray`` consumed
    with ``bytes(buf[:take]); del buf[:take]`` and list-based pending reads.
    Paired with :class:`ReferenceSimulator` it reproduces the pre-PR kernel
    configuration in-process, so the speedup assertion compares both stacks
    on the same machine at the same moment (recorded wall-clock baselines
    alone are too noisy on shared hardware)."""

    def __init__(self, sim):
        self.sim = sim
        self._buffer = bytearray()
        self._pending = []
        self._data_callback = None
        self._close_callback = None
        self.closed = False

    def append(self, data):
        self._buffer += data
        self._satisfy()
        if self._data_callback is not None and self._buffer:
            self._data_callback()

    def available(self):
        return len(self._buffer)

    def read_available(self, limit=None):
        take = len(self._buffer) if limit is None else min(limit, len(self._buffer))
        chunk = bytes(self._buffer[:take])
        del self._buffer[:take]
        return chunk

    def recv_exact(self, nbytes):
        ev = self.sim.event(name=f"stream-read({nbytes})")
        self._pending.append((nbytes, True, ev))
        self._satisfy()
        return ev

    def set_data_callback(self, fn):
        self._data_callback = fn
        if fn is not None and self._buffer:
            fn()

    def _satisfy(self):
        while self._pending and self._buffer:
            nbytes, exact, ev = self._pending[0]
            if exact and nbytes is not None and len(self._buffer) < nbytes:
                return
            self._pending.pop(0)
            take = len(self._buffer) if nbytes is None else min(nbytes, len(self._buffer))
            chunk = bytes(self._buffer[:take])
            del self._buffer[:take]
            if not ev.triggered:
                ev.succeed(chunk)


class _GridStub:
    """The minimal framework surface :func:`grid_deployment` needs (hosts
    and networks only — the kernel workload drives engine-level primitives,
    not booted protocol stacks)."""

    def __init__(self, sim):
        self.sim = sim
        self.hosts = []
        self.networks = []

    def add_host(self, name, site="default-site"):
        host = Host(self.sim, name)
        host.site = site
        self.hosts.append(host)
        return host

    def add_network(self, network):
        self.networks.append(network)
        return network


def run_kernel_scenario(
    size: str,
    sim_cls=None,
    buffer_cls=None,
    cancellable=True,
    partitions=None,
    executor=None,
) -> dict:
    """Heartbeat failure detectors + churn flaps + cross-cluster WAN beats +
    relayed framed streams over the grid, on a bare simulator (``sim_cls``
    defaults to the shipped :class:`Simulator`; pass ``ReferenceSimulator``
    for the heap kernel).  ``buffer_cls``/``cancellable`` select the
    byte-path and guard-timer idioms (see :func:`run_kernel_scenario_legacy`).

    ``partitions``/``executor`` run the identical workload on the
    partitioned kernel: clusters map to partitions, every schedule lands in
    its owner's queue, the WAN gateway beats cross partitions through the
    boundary mailboxes, and all counters are per-partition cells (no shard
    ever writes another shard's cell, so the thread executor stays exact).
    The logical trace — the summed counters — is identical by construction
    on every kernel, which is what the trace-equality tests pin down.
    """
    cfg = SIZES[size]
    horizon = KERNEL_HORIZON[size]
    if partitions is not None and partitions > 1:
        sim = Simulator(partitions=partitions, executor=executor)
    else:
        sim = (sim_cls or Simulator)()
    nparts = sim.partition_count
    buffer_cls = buffer_cls or StreamBuffer
    grid = grid_deployment(_GridStub(sim), **cfg)
    rng = random.Random(KERNEL_SEED)
    # hot counters as per-partition list cells: dict hashing is measurable
    # at ~1M reads, and one cell per partition keeps writes shard-local
    beats = [0] * nparts
    delivered = [0] * nparts
    suspicions = [0] * nparts
    flaps = [0] * nparts
    bursts = [0] * nparts
    forwards = [0] * nparts
    reads = [0] * nparts
    wan_beats = [0] * nparts

    # -- failure detectors: host -> cluster successor ----------------------
    inflight = {}
    key_counter = itertools.count()

    def deliver(key, part):
        delivered[part] += 1
        guard = inflight.pop(key, None)
        # pre-PR kernels had no cancellation (call_later returned None):
        # the dead guard stayed queued and fired as a no-op
        if cancellable and guard is not None and hasattr(guard, "cancel"):
            guard.cancel()

    def guard_fired(key, part):
        if key in inflight:  # beat lost: a real suspicion
            del inflight[key]
            suspicions[part] += 1

    def make_beat(lan, host_rng, part):
        latency = lan.latency + lan.serialization_time(64)

        def beat():
            beats[part] += 1
            key = next(key_counter)
            if host_rng.random() >= HB_LOSS:
                sim.call_later(latency, deliver, key, part)
            inflight[key] = sim.call_later(HB_GUARD, guard_fired, key, part)

        return beat

    for lan, hosts in zip(grid.lans, grid.clusters):
        part = lan.owning_partition()
        with sim.in_partition(part):
            for host in hosts:
                host_rng = random.Random(rng.randrange(1 << 30))
                phase = host_rng.random() * HB_INTERVAL
                sim.call_later(phase, sim.every, HB_INTERVAL, make_beat(lan, host_rng, part))

    # -- churn: Poisson-thinning flap schedules on the WAN links -----------
    def set_up(net, up, part):
        net.up = up
        flaps[part] += 1

    for wan in grid.wans:
        part = wan.owning_partition()
        last_up = 0.0
        with sim.in_partition(part):
            for at in poisson_thinning_times(rng, lambda _t: FLAP_RATE, horizon, FLAP_RATE):
                if at < last_up:
                    continue
                sim.call_later(at, set_up, wan, False, part)
                sim.call_later(at + FLAP_DOWN, set_up, wan, True, part)
                last_up = at + FLAP_DOWN

    # -- relayed framed byte streams over every WAN ------------------------
    payload = bytes(BURST)

    def make_pipeline(wan, part):
        stages = [buffer_cls(sim) for _ in range(RELAY_HOPS)]

        def splice(src, dst):
            def _pump():
                data = src.read_available()
                if data:
                    forwards[part] += 1
                    sim.call_later(FORWARD_DELAY, dst.append, data)

            src.set_data_callback(_pump)

        for src, dst in zip(stages, stages[1:]):
            splice(src, dst)

        tail = stages[-1]

        def _drain(_ev):
            reads[part] += 1
            tail.recv_exact(KERNEL_PIECE).add_callback(_drain)

        tail.recv_exact(KERNEL_PIECE).add_callback(_drain)

        def produce():
            if wan.up:
                bursts[part] += 1
                stages[0].append(payload)

        phase = rng.random() * BURST_INTERVAL
        sim.call_later(phase, sim.every, BURST_INTERVAL, produce)

    for wan in grid.wans:
        # relays splice both directions; run one pipeline per direction,
        # both in the partition that owns the link (`produce` reads the
        # `up` flag the flap schedule flips there)
        part = wan.owning_partition()
        with sim.in_partition(part):
            make_pipeline(wan, part)
            make_pipeline(wan, part)

    # -- cross-cluster gateway beats over every WAN ------------------------
    # Each gateway pings its WAN neighbour; the delivery executes in the
    # *neighbour's* partition after the wire latency — on the partitioned
    # kernel this is exactly the boundary-mailbox path (latency ==
    # lookahead), on the single loop a plain timer at the same timestamp.
    def wan_deliver(part):
        wan_beats[part] += 1

    # the only scenario-level callback that crosses partitions: name it so
    # the process executor's wire codec can ship ("h", name, args) instead
    # of pickling the closure (a no-op on every other kernel)
    if hasattr(sim, "register_wire_handler"):
        sim.register_wire_handler("kernel.wan-deliver", wan_deliver)

    def make_wan_beat(wan, dst_part):
        def beat():
            sim.call_at_partition(dst_part, sim.now + wan.latency, wan_deliver, dst_part)

        return beat

    for wan, (gw_a, gw_b) in zip(grid.wans, grid.wan_pairs):
        for src_gw, dst_gw in ((gw_a, gw_b), (gw_b, gw_a)):
            phase = rng.random() * WAN_BEAT_INTERVAL
            with sim.in_partition(src_gw.partition):
                sim.call_later(
                    phase, sim.every, WAN_BEAT_INTERVAL, make_wan_beat(wan, dst_gw.partition)
                )

    # -- run, sampling queue depth uniformly on every kernel ---------------
    peak = {"pending": 0}

    def _sample():
        depth = sim.pending_count()
        if depth > peak["pending"]:
            peak["pending"] = depth

    sim.every(0.002, _sample)

    # under the process executor the counter cells live in the worker
    # replicas (each worker writes only its own partition's cell); read
    # them back through a collector evaluated inside each worker
    is_process = getattr(getattr(sim, "_executor", None), "is_process", False)
    if hasattr(sim, "register_collector"):
        cells = (beats, delivered, suspicions, flaps, bursts, forwards, reads, wan_beats)
        sim.register_collector(
            "kernel.counters", lambda p: tuple(c[p] for c in cells) + (peak["pending"],)
        )

    with _gc_paused():
        start = time.perf_counter()
        sim.run(until=horizon)
        wall_s = time.perf_counter() - start

    if is_process:
        rows = sim.collect("kernel.counters")
        beats, delivered, suspicions, flaps, bursts, forwards, reads, wan_beats = (
            [row[i] for row in rows] for i in range(8)
        )
        # the depth sampler runs in partition 0, i.e. inside worker 0
        peak = {"pending": max(row[8] for row in rows)}

    counters = {
        "beats": sum(beats),
        "delivered": sum(delivered),
        "suspicions": sum(suspicions),
        "flaps": sum(flaps),
        "bursts": sum(bursts),
        "forwards": sum(forwards),
        "reads": sum(reads),
        "wan_beats": sum(wan_beats),
    }
    events = sum(counters.values())
    stats = sim.stats() if hasattr(sim, "stats") else None
    result = {
        "hosts": len(grid.hosts),
        "wans": len(grid.wans),
        "virtual_s": round(sim.now, 6),
        "wall_s": round(wall_s, 3),
        "events": events,
        "events_per_sec": round(events / wall_s, 1),
        "peak_pending": peak["pending"],
        "cancellations": stats.cancellations if stats is not None else 0,
    }
    if nparts > 1:
        result["partitions"] = nparts
        result["windows"] = sim.windows_run
        result["mailbox_deliveries"] = sim.mailbox_deliveries
    result.update(counters)
    if is_process:
        sim.shutdown()
    return result


def run_kernel_scenario_legacy(size: str) -> dict:
    """The identical workload on the pre-PR kernel configuration: monolithic
    heap scheduler (:class:`ReferenceSimulator`), copying byte buffers
    (:class:`_LegacyStreamBuffer`), no timer cancellation."""
    if ReferenceSimulator is None:  # pragma: no cover - seed checkout
        raise RuntimeError("reference scheduler not available on this kernel")
    return run_kernel_scenario(
        size, sim_cls=ReferenceSimulator, buffer_cls=_LegacyStreamBuffer, cancellable=False
    )


def run_isolated(fn_name: str, size: str) -> dict:
    """Run one scenario function in a fresh interpreter and return its
    result.  Wall-clock comparisons between the current and the legacy stack
    are allocator-sensitive (the copying legacy buffers run measurably
    faster in a warmed-up heap), so the speedup acceptance measures each
    configuration pyperf-style: cold, isolated, same machine, back to back.
    """
    root = BENCH_PATH.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH", "")) if p
    )
    code = (
        "import json\n"
        f"from benchmarks.test_engine_scale import {fn_name}\n"
        f"print(json.dumps({fn_name}({size!r})))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        cwd=root,
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=600,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# baselines
# ---------------------------------------------------------------------------


def load_baselines() -> dict:
    if BENCH_PATH.exists():
        return json.loads(BENCH_PATH.read_text())
    return {}


def scaled(entry: dict, machine_ops: float) -> float:
    """The baseline's events/sec translated onto this machine."""
    recorded_ops = entry.get("calibration_ops") or machine_ops
    return entry["events_per_sec"] * (machine_ops / recorded_ops)


def maybe_refresh(kind: str, size: str, result: dict, machine_ops: float) -> None:
    if os.environ.get("BENCH_REFRESH", "") != "1":
        return
    data = load_baselines()
    entry = {k: v for k, v in result.items() if k != "build_s"}
    entry["calibration_ops"] = round(machine_ops, 1)
    data.setdefault(kind, {}).setdefault(size, {})["current"] = entry
    BENCH_PATH.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


def check_baselines(kind: str, size: str, result: dict, benchmark, remeasure=None) -> None:
    """Report speedup vs the recorded seed entry and gate against a >25%
    regression vs the committed ``current`` entry.  (The hard >= 3x speedup
    acceptance lives in :func:`test_kernel_speedup_vs_seed_stack`, which
    measures both stacks live — recorded wall-clock entries are only
    calibration-scaled estimates across machines.)

    ``remeasure`` (a zero-arg callable re-running the scenario) grants the
    gate one retry: a single wall-clock measurement on shared hardware can
    blow the margin on scheduler noise alone (the same discipline as the
    best-of-two speedup test); a genuine regression fails both attempts."""
    machine_ops = calibration_ops()
    benchmark.extra_info["calibration_ops"] = round(machine_ops, 1)
    maybe_refresh(kind, size, result, machine_ops)

    entries = load_baselines().get(kind, {}).get(size, {})
    seed = entries.get("seed")
    if seed is not None:
        expected = scaled(seed, machine_ops)
        benchmark.extra_info["speedup_vs_seed"] = round(
            result["events_per_sec"] / expected, 2
        )
    current = entries.get("current")
    if current is not None and os.environ.get("BENCH_REFRESH", "") != "1":
        expected = scaled(current, machine_ops)
        ratio = result["events_per_sec"] / expected
        if ratio < REGRESSION_FLOOR and remeasure is not None:
            retried = remeasure()
            retry_ratio = retried["events_per_sec"] / expected
            benchmark.extra_info["ratio_first_attempt"] = round(ratio, 2)
            if retry_ratio > ratio:
                ratio = retry_ratio
        benchmark.extra_info["ratio_vs_baseline"] = round(ratio, 2)
        assert ratio >= REGRESSION_FLOOR, (
            f"{kind} events/sec regressed >25% vs committed baseline: "
            f"{result['events_per_sec']}/s vs {expected:.0f}/s expected "
            f"(ratio {ratio:.2f} < {REGRESSION_FLOOR})"
        )


# ---------------------------------------------------------------------------
# the benchmarks
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("size", selected_sizes())
def test_engine_scale_deployment(benchmark, once, size):
    result = once(benchmark, lambda: run_scenario(size))
    benchmark.extra_info.update(result)

    # correctness first: every stream delivered every byte
    assert result["bytes_delivered"] == result["bytes_expected"]
    # the nightly hybrid run records under its own kind so it never gates
    # (or refreshes) the packet baselines
    kind = "deployment"
    if os.environ.get("ENGINE_FIDELITY", "packet") != "packet":
        kind = "deployment_hybrid"
    check_baselines(kind, size, result, benchmark, remeasure=lambda: run_scenario(size))


@pytest.mark.parametrize("size", selected_sizes())
def test_engine_scale_deployment_fluid(benchmark, once, size):
    result = once(benchmark, lambda: run_fluid_pair(size))
    benchmark.extra_info.update(result)

    # correctness gates: identical bytes and float-identical completion
    # instants across fidelities, and the fast path genuinely engaged
    assert result["bytes_delivered"] == result["bytes_expected"]
    assert result["bytes_match_packet"]
    assert result["completion_times_equal"]
    assert result["epochs"] >= result["streams"]
    check_baselines(
        "deployment_fluid", size, result, benchmark, remeasure=lambda: run_fluid_pair(size)
    )

    # the tentpole acceptance, at the 1000-host tier: the hybrid leg must
    # retire the packet leg's logical events >= 10x faster, both legs
    # measured back-to-back in this process on identical work — a direct
    # same-machine ratio, immune to calibration noise
    if size == "large":
        speedup = round(result["packet_wall_s"] / result["wall_s"], 2)
        benchmark.extra_info["fluid_pair_speedup"] = speedup
        assert speedup >= FLUID_SPEEDUP_TARGET, (
            f"fluid fast path below {FLUID_SPEEDUP_TARGET}x: packet leg "
            f"{result['packet_wall_s']}s vs hybrid {result['wall_s']}s "
            f"({speedup}x)"
        )
        # informational cross-check against the recorded VLink deployment
        # baseline (calibration-scaled; noisy on shared VMs, so not a gate)
        current = load_baselines().get("deployment", {}).get("large", {}).get("current")
        if current is not None:
            benchmark.extra_info["fluid_vs_deployment_baseline"] = round(
                result["events_per_sec"] / scaled(current, calibration_ops()), 2
            )


@pytest.mark.parametrize("size", selected_sizes())
def test_engine_scale_kernel(benchmark, once, size):
    result = once(benchmark, lambda: run_kernel_scenario(size))
    benchmark.extra_info.update(result)

    # shape: detectors mostly cancel (suspicions only from seeded loss), and
    # every burst is consumed by the framed reader
    assert 0 < result["suspicions"] < 0.02 * result["beats"]
    assert result["reads"] >= result["bursts"] * (BURST // KERNEL_PIECE) * 0.9
    check_baselines("kernel", size, result, benchmark, remeasure=lambda: run_kernel_scenario(size))


def test_kernel_speedup_vs_seed_stack():
    """The acceptance target: >= 3x events/sec over the pre-PR kernel
    (monolithic heap + copying buffers + no cancellation) on the 1000-host
    kernel workload, both stacks measured in fresh interpreters on this
    machine.  Wall-clock noise is real: best of two attempts.  The hard
    target is defined (ISSUE/ROADMAP) at the 1000-host size; reduced sizes
    (CI smoke) have ~30 ms measurement windows where run-to-run noise
    swamps the margin, so they only gate a loose sanity floor.
    """
    size = os.environ.get("ENGINE_SCALE", "") or "large"
    target = SPEEDUP_TARGET if size == "large" else SPEEDUP_TARGET / 2
    best = 0.0
    for _attempt in range(2):
        current = run_isolated("run_kernel_scenario", size)
        legacy = run_isolated("run_kernel_scenario_legacy", size)
        assert current["events"] == legacy["events"]  # identical logical trace
        best = max(best, current["events_per_sec"] / legacy["events_per_sec"])
        if best >= target:
            break
    assert best >= target, (
        f"kernel workload speedup over the seed stack at {size!r} is "
        f"{best:.2f}x, below the {target}x floor"
    )


#: the kernel workload's logical trace: identical counts on every kernel
#: (ready-FIFO kernel, reference heap, partitioned at any width) by
#: construction.
TRACE_KEYS = (
    "beats",
    "delivered",
    "suspicions",
    "flaps",
    "bursts",
    "forwards",
    "reads",
    "wan_beats",
    "virtual_s",
)


def test_kernel_workload_trace_matches_reference_heap(benchmark, once):
    """Both schedulers must produce identical logical traces (the ready-FIFO
    kernel is a faster implementation of the *same* deterministic order)."""
    if ReferenceSimulator is None:  # pragma: no cover - seed kernel
        pytest.skip("reference scheduler not available")
    kernel = once(benchmark, lambda: run_kernel_scenario("small"))
    heap = run_kernel_scenario("small", sim_cls=ReferenceSimulator)
    assert {k: kernel[k] for k in TRACE_KEYS} == {k: heap[k] for k in TRACE_KEYS}
    benchmark.extra_info["kernel_vs_reference_wall"] = round(
        heap["wall_s"] / max(kernel["wall_s"], 1e-9), 2
    )


# ---------------------------------------------------------------------------
# partitioned kernel
# ---------------------------------------------------------------------------


def run_kernel_scenario_partitioned(size: str, partitions: int = 2) -> dict:
    """The kernel workload on the partitioned kernel (round-robin executor);
    importable by :func:`run_isolated`."""
    return run_kernel_scenario(size, partitions=partitions)


#: acceptance width and floor for the process executor: >= 2.5x wall-clock
#: over the single loop at 4 partitions on the 1000-host kernel workload.
PROCESS_PARTITIONS = 4
PROCESS_SPEEDUP_TARGET = 2.5


def run_kernel_scenario_process(size: str) -> dict:
    """The kernel workload on the process executor at the acceptance
    partition width; importable by :func:`run_isolated`."""
    return run_kernel_scenario(size, partitions=PROCESS_PARTITIONS, executor="process")


@pytest.mark.parametrize("size", selected_sizes())
def test_engine_scale_kernel_partitioned(benchmark, once, size):
    """The kernel workload sharded across partitions (2 by default,
    ``ENGINE_PARTITIONS`` overrides; ``ENGINE_EXECUTOR`` selects the
    executor): gated for trace equality with the single loop and against
    the committed baseline of the matching kind (``kernel_partitioned``,
    ``kernel_thread`` or ``kernel_process``)."""
    nparts = int(os.environ.get("ENGINE_PARTITIONS", "2"))
    executor, suffix = selected_executor()
    def run():
        return run_kernel_scenario(size, partitions=nparts, executor=executor)

    result = once(benchmark, run)
    benchmark.extra_info.update(result)

    assert result["partitions"] == nparts
    assert result["mailbox_deliveries"] > 0  # WAN beats crossed the boundary
    assert 0 < result["suspicions"] < 0.02 * result["beats"]
    assert result["reads"] >= result["bursts"] * (BURST // KERNEL_PIECE) * 0.9
    # conservative execution is *trace-equal* to the single loop
    single = run_kernel_scenario(size)
    assert {k: result[k] for k in TRACE_KEYS} == {k: single[k] for k in TRACE_KEYS}
    check_baselines(f"kernel_{suffix}", size, result, benchmark, remeasure=run)


@pytest.mark.parametrize("size", selected_sizes())
def test_engine_scale_deployment_partitioned(benchmark, once, size):
    """The full-stack deployment scenario on the partitioned kernel: every
    stream must deliver every byte through the boundary mailboxes (executor
    from ``ENGINE_EXECUTOR``, baseline kind suffixed to match)."""
    executor, suffix = selected_executor()
    def run():
        return run_scenario(size, partitions=2, executor=executor)

    result = once(benchmark, run)
    benchmark.extra_info.update(result)

    assert result["bytes_delivered"] == result["bytes_expected"]
    assert result["mailbox_deliveries"] > 0
    check_baselines(f"deployment_{suffix}", size, result, benchmark, remeasure=run)


@pytest.mark.parametrize("nparts", [2, 4])
def test_partitioned_kernel_trace_matches_single_loop(nparts):
    """Determinism acceptance: the seeded churn workload executes the same
    logical trace at 2 and 4 partitions as on the single loop."""
    size = os.environ.get("ENGINE_SCALE", "") or "small"
    single = run_kernel_scenario(size)
    multi = run_kernel_scenario(size, partitions=nparts)
    assert multi["mailbox_deliveries"] > 0
    assert {k: multi[k] for k in TRACE_KEYS} == {k: single[k] for k in TRACE_KEYS}


def test_partitioned_kernel_thread_executor_matches_round_robin():
    """The opt-in thread-pool executor must reproduce the round-robin trace
    exactly (per-partition state, order-stamped mailboxes)."""
    round_robin = run_kernel_scenario("small", partitions=2)
    threaded = run_kernel_scenario("small", partitions=2, executor="thread")
    assert {k: threaded[k] for k in TRACE_KEYS} == {k: round_robin[k] for k in TRACE_KEYS}


def test_partitioned_kernel_process_executor_matches_round_robin():
    """The process executor — one forked worker per partition, shard-owned
    object graphs, wire-serialized boundary mailboxes — must reproduce the
    round-robin trace exactly."""
    round_robin = run_kernel_scenario("small", partitions=2)
    forked = run_kernel_scenario("small", partitions=2, executor="process")
    assert {k: forked[k] for k in TRACE_KEYS} == {k: round_robin[k] for k in TRACE_KEYS}


def test_process_speedup_vs_single_loop():
    """The tentpole acceptance: >= 2.5x wall-clock speedup at 4 partitions
    on the 1000-host kernel workload, process executor vs the single loop,
    both measured live in fresh interpreters on this machine (best of two).

    A parallel speedup needs parallel hardware: on machines with fewer
    cores than partitions the workers time-slice one core and the ratio
    measures scheduling overhead, not the kernel — the gate only arms when
    the shards can actually run concurrently.  Reduced sizes (CI smoke)
    skip for the same reason the 3x kernel gate relaxes there: the
    windowed protocol's fixed costs dominate sub-100 ms runs."""
    cores = os.cpu_count() or 1
    if cores < PROCESS_PARTITIONS:
        pytest.skip(
            f"process-speedup gate needs >= {PROCESS_PARTITIONS} cores; this "
            f"machine has {cores} (workers would time-slice, not parallelize)"
        )
    size = os.environ.get("ENGINE_SCALE", "") or "large"
    if size not in ("large", "huge"):
        pytest.skip("the 2.5x floor is defined at the 1000-host tier (ENGINE_SCALE=large)")
    best = 0.0
    for _attempt in range(2):
        single = run_isolated("run_kernel_scenario", size)
        multi = run_isolated("run_kernel_scenario_process", size)
        assert multi["events"] == single["events"]  # identical logical trace
        best = max(best, single["wall_s"] / multi["wall_s"])
        if best >= PROCESS_SPEEDUP_TARGET:
            break
    assert best >= PROCESS_SPEEDUP_TARGET, (
        f"process executor at {PROCESS_PARTITIONS} partitions is {best:.2f}x "
        f"the single loop at {size!r}, below the {PROCESS_SPEEDUP_TARGET}x floor"
    )
