"""Per-layer tracing for the benchmark's traced run.

The tracer wraps public entry points of each layer of ``src/repro`` from
outside the program (class attributes are swapped in :meth:`Tracer.install`
and restored by :meth:`Tracer.uninstall`).  Each call records a span -- id,
name, start, end, parent id -- in memory; the spans are written out at the
end of the round.  A layer's self time is the time of its spans minus the
part covered by their child spans; ``engine`` self time is the time under
``Simulator.run`` (and, on the process executor, under each worker's window)
that no layer span covers, which includes layer callbacks entered through
no public function.

Entry points that return generators (``Proxy.invoke``, ``SoapClient.call``,
the Java stream calls) are counted once per call and timed per resumption:
each step of the generator is one span, so the time between steps, which
the simulator spends elsewhere, is not charged to them.

Span file layout: one JSON header line (``names``, ``spans``, ``fields``)
followed by the raw native arrays ``id`` (int64), ``name`` (int32),
``start`` (float64), ``end`` (float64) and ``parent`` (int64, -1 at the
root), each ``spans`` entries long; times are ``time.perf_counter`` seconds.
"""

from __future__ import annotations

import json
import os
from array import array
from time import perf_counter

from repro.abstraction.circuit import Circuit
from repro.abstraction.vlink import VLink
from repro.arbitration.madio import MadIOChannel
from repro.arbitration.netaccess import NetAccessCore
from repro.arbitration.sysio import SysSocket
from repro.core.framework import PadicoFramework
from repro.madeleine.driver import MadChannel
from repro.madeleine.message import MadIncoming, MadMessage
from repro.middleware.corba.orb import Proxy
from repro.middleware.javasockets import JavaSocket
from repro.middleware.mpi.communicator import Communicator
from repro.middleware.soap import SoapClient
from repro.monitoring.estimators import LinkEstimator
from repro.simnet import procexec
from repro.simnet.cost import Cost
from repro.simnet.engine import Simulator
from repro.simnet.fluid import FluidController
from repro.simnet.network import Network
from repro.simnet.partition import PartitionedSimulator
from repro.simnet.procexec import ProcessPoolExecutor
from repro.simnet.tcp import TcpConnection

TIMED, GENERATOR, COUNTED = "timed", "generator", "counted"

#: (owner, attribute, span name, kind).  The span name's prefix is the
#: layer; several entry points may share a name (their counts add up).
ENTRY_POINTS = [
    (Simulator, "run", "engine.run", TIMED),
    (PartitionedSimulator, "run", "engine.run", TIMED),
    (procexec, "_worker_window", "engine.worker_window", TIMED),
    (ProcessPoolExecutor, "run_window", "partition.run_window", TIMED),
    (Network, "transmit", "network.transmit", TIMED),
    (TcpConnection, "send", "tcp.send", TIMED),
    (TcpConnection, "read_iov", "tcp.read", TIMED),
    (TcpConnection, "read_available", "tcp.read", TIMED),
    (TcpConnection, "recv", "tcp.read", TIMED),
    (TcpConnection, "recv_exact", "tcp.read", TIMED),
    (FluidController, "pump", "fluid.pump", TIMED),
    (FluidController, "invalidate", "fluid.invalidate", TIMED),
    (FluidController, "note_packet_round", "fluid.packet_round", TIMED),
    (VLink, "write", "vlink.write", TIMED),
    (VLink, "read", "vlink.read", TIMED),
    (Circuit, "send", "circuit.send", TIMED),
    (Circuit, "recv", "circuit.recv", TIMED),
    (SysSocket, "write", "sysio.write", TIMED),
    (NetAccessCore, "charge_dispatch", "netaccess.dispatch", TIMED),
    (NetAccessCore, "defer", "netaccess.dispatch", TIMED),
    (MadIOChannel, "send", "madio.send", TIMED),
    (MadChannel, "send", "madeleine.send", TIMED),
    (MadChannel, "end_packing", "madeleine.send", TIMED),
    (MadMessage, "pack", "madeleine.pack", TIMED),
    (MadIncoming, "unpack", "madeleine.unpack", TIMED),
    (Communicator, "isend", "mpi.isend", TIMED),
    (Communicator, "irecv", "mpi.irecv", TIMED),
    (Proxy, "invoke", "corba.invoke", GENERATOR),
    (SoapClient, "call", "soap.call", GENERATOR),
    (JavaSocket, "write", "javasockets.write", GENERATOR),
    (JavaSocket, "read", "javasockets.read", GENERATOR),
    (LinkEstimator, "update", "monitoring.estimator_update", TIMED),
    (Cost, "charge", "cost.charge", COUNTED),
    (PadicoFramework, "boot", "core.boot", TIMED),
]

#: extra per-call tallies: span name -> function of the call's arguments.
TALLIES = {
    "network.transmit": (
        "network.bytes",
        lambda args, kwargs: len(args[3] if len(args) > 3 else kwargs["payload"]),
    ),
}


class Tracer:
    """In-memory span recorder; one per round process."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self._saved = []
        self.fluid_controllers = []
        self.reset()

    def reset(self):
        """Drop everything recorded so far (a forked worker starts empty)."""
        self.span_id = array("q")
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("q")
        self.stack = []
        # span ids stay unique across the worker processes of one round
        self.next_id = os.getpid() << 32
        n = len(self.names)
        self.calls = [0] * n
        self.total = [0.0] * n
        self.self_time = [0.0] * n
        self.tallies = {}
        del self.fluid_controllers[:]

    def _name(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.total.append(0.0)
            self.self_time.append(0.0)
        return nid

    # -- span bookkeeping ---------------------------------------------------
    def _open(self, nid):
        frame = [nid, self.next_id, perf_counter(), 0.0]
        self.next_id += 1
        self.stack.append(frame)
        return frame

    def _close(self, frame):
        end = perf_counter()
        stack = self.stack
        stack.pop()
        nid, sid, start, covered = frame
        duration = end - start
        self.total[nid] += duration
        self.self_time[nid] += duration - covered
        if stack:
            parent = stack[-1]
            parent[3] += duration
            parent_id = parent[1]
        else:
            parent_id = -1
        self.span_id.append(sid)
        self.span_name.append(nid)
        self.span_start.append(start)
        self.span_end.append(end)
        self.span_parent.append(parent_id)

    # -- wrappers -----------------------------------------------------------
    def _timed(self, fn, nid, tally):
        tracer = self

        def traced(*args, **kwargs):
            tracer.calls[nid] += 1
            if tally is not None:
                key, measure = tally
                tracer.tallies[key] = tracer.tallies.get(key, 0) + measure(args, kwargs)
            frame = tracer._open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(frame)

        return traced

    def _counted(self, fn, nid):
        tracer = self

        def counted(*args, **kwargs):
            tracer.calls[nid] += 1
            return fn(*args, **kwargs)

        return counted

    def _generator(self, fn, nid):
        tracer = self

        def stepped(gen):
            value, error = None, None
            while True:
                frame = tracer._open(nid)
                try:
                    item = gen.send(value) if error is None else gen.throw(error)
                except StopIteration as stop:
                    return stop.value
                finally:
                    tracer._close(frame)
                try:
                    value, error = (yield item), None
                except GeneratorExit:
                    gen.close()
                    raise
                except BaseException as exc:  # re-raised inside the wrapped generator
                    value, error = None, exc

        def traced(*args, **kwargs):
            tracer.calls[nid] += 1
            return stepped(fn(*args, **kwargs))

        return traced

    def install(self):
        """Swap the wrappers in; :meth:`uninstall` restores the originals."""
        for owner, attr, name, kind in ENTRY_POINTS:
            fn = owner.__dict__[attr]
            nid = self._name(name)
            if kind == TIMED:
                wrapper = self._timed(fn, nid, TALLIES.get(name))
            elif kind == GENERATOR:
                wrapper = self._generator(fn, nid)
            else:
                wrapper = self._counted(fn, nid)
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, wrapper)
        init = FluidController.__init__
        controllers = self.fluid_controllers

        def register(controller, *args, **kwargs):
            init(controller, *args, **kwargs)
            controllers.append(controller)

        self._saved.append((FluidController, "__init__", init))
        FluidController.__init__ = register
        os.register_at_fork(after_in_child=self.reset)

    def uninstall(self):
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    # -- results ------------------------------------------------------------
    def summary(self):
        """Picklable per-name aggregates (summed across worker processes)."""
        fluid = self.fluid_controllers
        return {
            "calls": dict(zip(self.names, self.calls)),
            "total": dict(zip(self.names, self.total)),
            "self": dict(zip(self.names, self.self_time)),
            "tallies": dict(self.tallies),
            "fluid_epochs": sum(f.epochs for f in fluid),
            "fluid_rounds": sum(f.fluid_rounds for f in fluid),
            "spans": len(self.span_id),
        }

    def spans(self):
        return (self.span_id, self.span_name, self.span_start, self.span_end, self.span_parent)

    def write_spans(self, path, extra=()):
        """Write this process's spans, then ``extra`` span sets (the
        workers'), as one file in the layout the module docstring gives."""
        sets = [self.spans(), *extra]
        count = sum(len(s[0]) for s in sets)
        header = {"names": self.names, "spans": count,
                  "fields": ["id:q", "name:i", "start:d", "end:d", "parent:q"]}
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "wb") as out:
            out.write(json.dumps(header).encode("utf-8") + b"\n")
            for column in range(5):
                for s in sets:
                    s[column].tofile(out)


def merge_summaries(summaries):
    """Sum per-name aggregates of several processes."""
    merged = {"calls": {}, "total": {}, "self": {}, "tallies": {},
              "fluid_epochs": 0, "fluid_rounds": 0, "spans": 0}
    for s in summaries:
        for key in ("calls", "total", "self", "tallies"):
            for name, value in s[key].items():
                merged[key][name] = merged[key].get(name, 0) + value
        for key in ("fluid_epochs", "fluid_rounds", "spans"):
            merged[key] += s[key]
    return merged
