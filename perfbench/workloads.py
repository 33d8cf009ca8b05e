"""Scenario construction for the benchmark workloads.

Every workload is a closed-loop batch simulation built here from the
workload seed alone, so later edits to the repository's pytest benchmarks
cannot change what this benchmark measures.  ``build(workload, seed)``
returns a scenario whose set-up is done; ``scenario.run()`` is the timed
run phase and ``scenario.outputs()`` the simulated results that
:mod:`run` checks against the recorded references.

* ``grid_chunked`` -- the 1000-host grid (5 x 10 Ethernet clusters of 20
  hosts) with the full stack booted in packet fidelity: 512 KiB chunked
  VLink streams between cluster neighbours and across every WAN hop
  (relayed by both gateways), a 2 ms active probe per WAN link, and
  degrade/recover churn whose instants are drawn from the seed by Poisson
  thinning.
* ``grid_chunked_p2`` -- the same inputs on ``Simulator(partitions=2,
  executor="process")``.
* ``grid_bulk`` -- the same grid in hybrid fidelity: every non-gateway
  host sends one 64 MiB TCP stream to its neighbour after a seeded start
  offset, with 50 ms WAN monitoring and no churn.
* ``mw_ladder`` -- the paper's Table 1 rows on the two-node Myrinet
  cluster: closed-loop 8-byte ping-pongs plus 1 MB one-way transfers.
"""

from __future__ import annotations

import random
import time

from repro.bench import (
    CircuitTransport,
    CorbaTransport,
    JavaSocketTransport,
    MpiTransport,
    SoapTransport,
    VLinkTransport,
)
from repro.core import PadicoFramework
from repro.middleware.corba import MICO_2_3_7, OMNIORB_3, OMNIORB_4, ORBACUS_4_0_5
from repro.middleware.mpi import MPICH_1_2_5
from repro.monitoring.churn import poisson_thinning_times
from repro.simnet.networks import grid_deployment

GRID = dict(rows=5, cols=10, hosts_per_cluster=20)
MIB = 1024 * 1024
MAX_VIRTUAL = 120.0

# grid_chunked
CHUNKED_BYTES = 512 * 1024
CHUNK = 32 * 1024
READ_PIECE = 8 * 1024
PROBE_INTERVAL = 0.002
CHURN_HORIZON = 0.35
#: per-WAN flap intensity ramps linearly from CHURN_RATE_LOW to
#: CHURN_RATE_HIGH flaps/s over the horizon (thinned from the high rate);
#: arrivals inside a running degradation are skipped.
CHURN_RATE_LOW = 6.0
CHURN_RATE_HIGH = 12.0
DEGRADE_FOR = 0.03

# grid_bulk
BULK_BYTES = 64 * MIB
BULK_PROBE_INTERVAL = 0.05
BULK_MAX_OFFSET = 0.002

# mw_ladder: a fixed composition per row, so the virtual outputs do not
# depend on the seed (only the payload bytes do).
PINGPONGS = 500
WARMUP = 3
TRANSFERS = 4
TRANSFER_SIZE = 1_000_000
PING_SIZE = 8

WORKLOADS = ("grid_chunked", "grid_bulk", "mw_ladder", "grid_chunked_p2")


def _rng(seed: int) -> random.Random:
    return random.Random(f"perfbench:{seed}")


# ---------------------------------------------------------------------------
# grid scenarios
# ---------------------------------------------------------------------------


class GridScenario:
    """A booted grid with its streams registered.

    Completion records are written by whichever process executes a
    stream's reader, so they are read back through a collector: one entry
    per partition on a partitioned kernel, one on the single loop.
    """

    def __init__(self, fw, grid, stream_bytes, horizon=None):
        self.fw = fw
        self.sim = fw.sim
        self.grid = grid
        self.stream_bytes = stream_bytes
        self.horizon = horizon
        self.completions = []
        self.finished = {}  # stream index -> (bytes delivered, virtual instant)
        self.messages = 0
        self.build_s = self.boot_s = 0.0
        self.injector = None  # the churn schedule's, where there is one
        self.sim.register_collector("perfbench.streams", lambda _p: dict(self.finished))
        self.sim.register_collector("perfbench.relays", self._relay_sessions)
        self.sim.register_collector("perfbench.faults", self._local_faults)

    def _relay_sessions(self, _partition):
        relays = (node.gateway_relay for node in self.fw._nodes.values())
        return sum(r.relayed for r in relays if r is not None)

    def _local_faults(self, _partition):
        if self.injector is None:
            return 0
        networks = self.fw._networks
        return sum(not self.sim.is_boundary(networks[e.target]) for e in self.injector.log)

    def finish(self, index, nbytes):
        self.finished[index] = (nbytes, self.sim.now)

    def run(self):
        self.sim.run(until=self.sim.all_of(self.completions), max_time=MAX_VIRTUAL)
        if self.horizon is not None:
            # the probe and churn schedule runs to its horizon even when the
            # transfers finish first
            self.sim.run(until=max(self.horizon, self.sim.now), max_time=MAX_VIRTUAL)

    def outputs(self):
        merged = {}
        for part in self.sim.collect("perfbench.streams"):
            merged.update(part)
        streams = [list(merged.get(i, (0, None))) for i in range(len(self.completions))]
        return {"streams": streams, "virtual_end": self.sim.now}

    def relay_sessions(self):
        return sum(self.sim.collect("perfbench.relays"))

    def faults(self):
        """Faults applied.  On a partitioned kernel, faults on boundary links
        run as barrier hooks in the parent (worker replicas replay them) and
        the others in the worker owning the link."""
        faults = sum(self.sim.collect("perfbench.faults"))
        if self.injector is not None and self.sim.partition_count > 1:
            networks = self.fw._networks
            faults += sum(self.sim.is_boundary(networks[e.target]) for e in self.injector.log)
        return faults

    def close(self):
        self.fw.shutdown()


def _boot_grid(seed, fidelity, stream_bytes, horizon=None, partitions=None, executor=None):
    rng = _rng(seed)
    start = time.perf_counter()
    fw = PadicoFramework(partitions=partitions, executor=executor, fidelity=fidelity)
    grid = grid_deployment(fw, seed=rng.randrange(1 << 20), **GRID)
    built = time.perf_counter()
    fw.boot()
    scenario = GridScenario(fw, grid, stream_bytes, horizon)
    scenario.build_s = built - start
    scenario.boot_s = time.perf_counter() - built
    return scenario, rng


def _neighbour_pairs(grid):
    pairs = []
    for hosts in grid.clusters:  # host 0 is the cluster gateway
        pairs.extend((hosts[i], hosts[i + 1]) for i in range(1, len(hosts) - 1))
    return pairs


def build_chunked(seed, partitions=None, executor=None):
    scenario, rng = _boot_grid(
        seed, "packet", CHUNKED_BYTES, CHURN_HORIZON, partitions, executor
    )
    fw, grid = scenario.fw, scenario.grid
    probe_seed = rng.randrange(1 << 20)
    for index, wan in enumerate(grid.wans):
        fw.monitoring.watch(wan, interval=PROBE_INTERVAL, seed=probe_seed + index, coalesce=8)

    injector = fw.fault_injector(seed=rng.randrange(1 << 20), announce=True)
    slope = (CHURN_RATE_HIGH - CHURN_RATE_LOW) / CHURN_HORIZON
    for wan in grid.wans:
        recovered = 0.0
        for at in poisson_thinning_times(
            rng, lambda t: CHURN_RATE_LOW + slope * t, CHURN_HORIZON, CHURN_RATE_HIGH
        ):
            if at < recovered:
                continue
            injector.degrade_link_at(at, wan, loss_rate=0.004, bandwidth=9.0e6)
            injector.recover_link_at(at + DEGRADE_FOR, wan)
            recovered = at + DEGRADE_FOR

    pairs = _neighbour_pairs(grid)
    cols = GRID["cols"]
    for k, hosts in enumerate(grid.clusters):
        if (k + 1) % cols:  # right neighbour: relayed through both gateways
            pairs.append((hosts[-1], grid.clusters[k + 1][1]))
    payload = bytes(CHUNK)
    for index, (src, dst) in enumerate(pairs):
        scenario.completions.append(
            _chunked_stream(scenario, index, src, dst, 7000 + index, payload)
        )
    scenario.messages = len(pairs) * -(-CHUNKED_BYTES // CHUNK)
    scenario.injector = injector
    return scenario


def _chunked_stream(scenario, index, src, dst, port, payload):
    fw, sim = scenario.fw, scenario.sim
    listener = fw.node(dst.name).vlink_listen(port)
    done = sim.event(name=f"xfer-{index}")

    def on_accept(link):
        def reader():
            got = 0
            while got < CHUNKED_BYTES:
                data = yield link.read(min(READ_PIECE, CHUNKED_BYTES - got))
                got += len(data)
            scenario.finish(index, got)
            done.succeed(got)

        sim.process(reader(), name=f"rx-{index}")

    listener.set_accept_callback(on_accept)

    def writer():
        link = yield fw.node(src.name).vlink_connect(fw.node(dst.name), port)
        sent = 0
        while sent < CHUNKED_BYTES:
            n = min(CHUNK, CHUNKED_BYTES - sent)
            yield link.write(payload[:n])
            sent += n

    # readers spawn in the accept callback, which runs in the destination's
    # partition; the writer is placed in the source's
    with sim.in_partition(src.partition):
        sim.process(writer(), name=f"tx-{index}")
    return done


def build_bulk(seed, fidelity="hybrid"):
    scenario, rng = _boot_grid(seed, fidelity, BULK_BYTES)
    fw, sim, grid = scenario.fw, scenario.sim, scenario.grid
    probe_seed = rng.randrange(1 << 20)
    for index, wan in enumerate(grid.wans):
        fw.monitoring.watch(
            wan, interval=BULK_PROBE_INTERVAL, seed=probe_seed + index, coalesce=8
        )
    payload = bytes(BULK_BYTES)  # shared: sends queue views of it
    for index, (src, dst) in enumerate(_neighbour_pairs(grid)):
        offset = rng.random() * BULK_MAX_OFFSET
        scenario.completions.append(
            _bulk_stream(scenario, index, src, dst, 7000 + index, payload, offset)
        )
    scenario.messages = len(scenario.completions)
    return scenario


def _bulk_stream(scenario, index, src, dst, port, payload, offset):
    fw, sim = scenario.fw, scenario.sim
    listener = fw.node(dst.name).tcp.listen(port)
    done = sim.event(name=f"bulk-{index}")

    def on_accept(conn):
        got = [0]

        def on_data(c):
            for chunk in c.read_iov():
                got[0] += len(chunk)
            if got[0] >= BULK_BYTES and not done.triggered:
                scenario.finish(index, got[0])
                done.succeed(got[0])

        conn.set_data_callback(on_data)

    listener.set_accept_callback(on_accept)

    def client():
        yield sim.timeout(offset)
        conn = yield fw.node(src.name).tcp.connect(dst, port)
        yield conn.send(payload)

    sim.process(client(), name=f"bulk-tx-{index}")
    return done


# ---------------------------------------------------------------------------
# Table 1 ladder
# ---------------------------------------------------------------------------

#: row -> (transport class, its keyword arguments, paper latency in µs, paper
#: bandwidth in MB/s); SOAP has no paper value and is left out of the
#: accuracy figure.
LADDER = {
    "Circuit": (CircuitTransport, {}, 8.4, 240.0),
    "VLink": (VLinkTransport, {}, 10.2, 239.0),
    "MPICH-1.2.5": (MpiTransport, {"profile": MPICH_1_2_5}, 12.06, 238.7),
    "omniORB3": (CorbaTransport, {"profile": OMNIORB_3}, 20.3, 238.4),
    "omniORB4": (CorbaTransport, {"profile": OMNIORB_4}, 18.4, 235.8),
    "JavaSockets": (JavaSocketTransport, {}, 40.0, 237.9),
    "Mico-2.3.7": (CorbaTransport, {"profile": MICO_2_3_7}, 63.0, 55.0),
    "ORBacus-4.0.5": (CorbaTransport, {"profile": ORBACUS_4_0_5}, 54.0, 63.0),
    "SOAP": (SoapTransport, {}, None, None),
}


def _echo(t, payload):
    """One ping-pong through the transport's public API; returns the echo."""
    kind = type(t)
    if kind is CircuitTransport:
        t.c0.send(1, payload)
        src, incoming = yield t.c1.recv()
        t.c1.send(src, incoming.unpack())
        _src, echoed = yield t.c0.recv()
        return echoed.unpack()
    if kind is VLinkTransport:
        t.client.write(payload)
        data = yield t.server.read(len(payload))
        t.server.write(data)
        return (yield t.client.read(len(payload)))
    if kind is MpiTransport:
        t.comm0.isend(payload, 1, tag=7)
        data = yield t.comm1.irecv(0, 7).wait()
        t.comm1.isend(data, 0, tag=8)
        return (yield t.comm0.irecv(1, 8).wait())
    if kind is CorbaTransport:
        return (yield from t.proxy.invoke("ping", payload))
    if kind is JavaSocketTransport:
        yield from t.client.write(payload)
        data = yield from t.server.read(len(payload))
        yield from t.server.write(data)
        return (yield from t.client.read(len(payload)))
    return (yield from t.client.call("echo", data=payload))


def _one_way(t, payload):
    """One one-way transfer; returns (virtual elapsed, delivery correct)."""
    kind = type(t)
    t0 = t.sim.now
    if kind is CircuitTransport:
        t.c0.send(1, payload)
        _src, incoming = yield t.c1.recv()
        return t.sim.now - t0, incoming.unpack() == payload
    if kind is VLinkTransport:
        t.client.write(payload)
        data = yield t.server.read(len(payload))
        return t.sim.now - t0, data == payload
    if kind is MpiTransport:
        t.comm0.isend(payload, 1, tag=9)
        data = yield t.comm1.irecv(0, 9).wait()
        return t.sim.now - t0, data == payload
    if kind is CorbaTransport:
        reply = yield from t.proxy.invoke("transfer", payload)
        arrival = t.servant.last_arrival
        return arrival - t0, reply == arrival
    if kind is JavaSocketTransport:
        yield from t.client.write(payload)
        data = yield from t.server.read(len(payload))
        return t.sim.now - t0, data == payload
    reply = yield from t.client.call("transfer", data=payload)
    arrival = t.arrivals["last"]
    return arrival - t0, reply == arrival


class LadderScenario:
    """One booted two-node paper cluster per Table 1 row."""

    def __init__(self, seed):
        rng = _rng(seed)
        self.rows = {}
        self.build_s = self.boot_s = 0.0
        for name, (factory, kwargs, _lat, _bw) in LADDER.items():
            # the paper's Myrinet-2000 + Ethernet-100 cluster of two nodes
            start = time.perf_counter()
            fw = PadicoFramework()
            group = fw.add_cluster(["node0", "node1"], site="rennes", myrinet=True, ethernet=True)
            built = time.perf_counter()
            fw.boot()
            self.build_s += built - start
            self.boot_s += time.perf_counter() - built
            self.rows[name] = factory(fw, group, **kwargs)
        self.pings = [rng.randbytes(PING_SIZE) for _ in range(PINGPONGS)]
        self.bulk = rng.randbytes(TRANSFER_SIZE)
        self.messages = len(LADDER) * (2 * PINGPONGS + TRANSFERS)
        self.payload_bytes = len(LADDER) * (2 * PINGPONGS * PING_SIZE + TRANSFERS * TRANSFER_SIZE)
        self.attempted = len(LADDER) * (PINGPONGS + TRANSFERS)
        self.failed = 0
        self.ladder = {}

    def _row(self, t):
        yield from t.setup()
        for _ in range(WARMUP):
            yield from _echo(t, b"w" * PING_SIZE)
        rtt = 0.0
        for payload in self.pings:
            t0 = t.sim.now
            echoed = yield from _echo(t, payload)
            rtt += t.sim.now - t0
            self.failed += echoed != payload
        yield from _one_way(t, b"w" * 65536)  # connection and window warm-up
        elapsed = 0.0
        for _ in range(TRANSFERS):
            took, ok = yield from _one_way(t, self.bulk)
            elapsed += took
            self.failed += not ok
        return rtt / PINGPONGS / 2.0 * 1e6, TRANSFERS * TRANSFER_SIZE / elapsed / 1e6

    def run(self):
        for name, t in self.rows.items():
            self.ladder[name] = t.sim.run(until=t.sim.process(self._row(t)), max_time=MAX_VIRTUAL)

    def outputs(self):
        return {"ladder": {name: list(v) for name, v in self.ladder.items()}}

    def close(self):
        pass


def table1_max_err_pct(ladder):
    """Largest relative error, in %, of a simulated Table 1 value against
    the paper, over the rows that have a paper value."""
    worst = 0.0
    for name, (_f, _k, lat, bw) in LADDER.items():
        if lat is None:
            continue
        sim_lat, sim_bw = ladder[name]
        worst = max(worst, abs(sim_lat - lat) / lat, abs(sim_bw - bw) / bw)
    return 100.0 * worst


def build(workload, seed):
    if workload == "grid_chunked":
        return build_chunked(seed)
    if workload == "grid_chunked_p2":
        return build_chunked(seed, partitions=2, executor="process")
    if workload == "grid_bulk":
        return build_bulk(seed)
    if workload == "grid_bulk_packet":  # the reference fidelity of grid_bulk
        return build_bulk(seed, fidelity="packet")
    if workload == "mw_ladder":
        return LadderScenario(seed)
    raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")
