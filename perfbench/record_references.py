"""Record the simulated-output references the benchmark checks rounds against.

    python3 perfbench/record_references.py

For each seed in ``REFERENCE_SEEDS``: per-stream delivered bytes and
virtual completion instant, plus the final virtual time, of
``grid_chunked`` and ``grid_chunked_p2`` (the process executor's own
outputs; its divergence from the single loop is reported by the traced
run, not hidden here), and of ``grid_bulk`` run in *packet* fidelity --
the hybrid run must match it float-exactly.  The ``mw_ladder`` Table 1
values do not depend on the seed and are recorded once.  Each round runs
in a fresh interpreter, like the benchmark's.
Re-record only when a change to the program is meant to change its
simulated outputs, and say so in the change.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from run import launch  # noqa: E402

#: reference name -> the round workload that produces it.  The process
#: executor's reference is stored as its differences from the single loop's.
SOURCES = {
    "grid_chunked": "grid_chunked",
    "grid_chunked_p2": "grid_chunked_p2",
    "grid_bulk": "grid_bulk_packet",
}
#: the seeds that have references; other seeds are checked for the
#: invariants and round-to-round equality only
REFERENCE_SEEDS = range(10)


def compact(outputs, base=None):
    """The stored form of a round's outputs (``run.reference_for`` expands it):
    completion instants run-length coded as ``[instant, repeat]`` pairs."""
    streams = outputs["streams"]
    entry = {"virtual_end": outputs["virtual_end"]}
    if base is not None:
        entry["base"] = base[0]
        entry["changed"] = {
            str(i): s for i, (s, b) in enumerate(zip(streams, base[1]["streams"])) if s != b
        }
        return entry
    sizes = {nbytes for nbytes, _t in streams}
    if len(sizes) == 1:
        entry["stream_bytes"] = sizes.pop()
    else:
        entry["bytes"] = [nbytes for nbytes, _t in streams]
    runs = []
    for _n, t in streams:
        if runs and runs[-1][0] == t:
            runs[-1][1] += 1
        else:
            runs.append([t, 1])
    entry["instants"] = runs
    return entry


def dump(refs, out):
    """One line per workload and seed, so re-recordings diff readably."""
    out.write("{\n")
    blocks = []
    for name, seeds in refs.items():
        if name == "mw_ladder":
            blocks.append(f'"mw_ladder": {json.dumps(seeds)}')
            continue
        lines = [f'  "{seed}": {json.dumps(entry)}' for seed, entry in seeds.items()]
        blocks.append(f'"{name}": {{\n' + ",\n".join(lines) + "\n}")
    out.write(",\n".join(blocks) + "\n}\n")


def main():
    refs = {name: {} for name in SOURCES}
    for seed in REFERENCE_SEEDS:
        single = None
        for name, workload in SOURCES.items():
            outputs = launch(workload, seed)["outputs"]
            base = ("grid_chunked", single) if name == "grid_chunked_p2" else None
            refs[name][str(seed)] = entry = compact(outputs, base)
            if name == "grid_chunked":
                single = outputs
            changed = f", {len(entry['changed'])} differ from the single loop" if base else ""
            print(f"{name} seed {seed}: {len(outputs['streams'])} streams, virtual end "
                  f"{outputs['virtual_end']!r}{changed}", flush=True)
    refs["mw_ladder"] = launch("mw_ladder", 0)["outputs"]
    with open(os.path.join(HERE, "references.json"), "w", encoding="utf-8") as out:
        dump(refs, out)


if __name__ == "__main__":
    main()
