"""Golden simulated-counter and output signatures.

Each primitive runs the way ``repro run`` runs it (default engine, one
fresh ``Machine`` per call) on a small R-MAT and a small road grid.

* ``golden_counters.json`` pins the six-primitive suite's aggregate
  ``(cycles, kernel_launches, atomics_issued, atomic_conflicts,
  edges_visited)``.
* ``golden_outputs.json`` pins, for every library primitive configuration
  in :data:`OUTPUT_RUNS`, the sha256 of each output array (dtype and
  bytes), the sha256 of the per-kernel ``(name, cycles, items,
  iteration)`` list, and the total cycles.  It was generated from the
  legacy unpooled workspace path before that path was retired, so the
  one remaining library path is held to what the old oracle computed.

Both must match exactly: a change that only makes the program faster
must leave outputs and the simulated channel where they were.  A change
that moves the cost model or an algorithm on purpose regenerates the
fixtures and says why::

    PYTHONPATH=src python tests/test_golden_counters.py
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro import primitives
from repro.graph import build, generators
from repro.simt import Machine

FIXTURE = Path(__file__).with_name("golden_counters.json")
OUTPUT_FIXTURE = Path(__file__).with_name("golden_outputs.json")
SUITE = ("bfs", "sssp", "pagerank", "ppr", "cc", "bc")
FIELDS = ("cycles", "kernel_launches", "atomics_issued", "atomic_conflicts",
          "edges_visited")
SEED = 1


def _inputs(graph_name: str):
    if graph_name == "rmat":
        g = generators.rmat(9, edge_factor=16, seed=SEED)
        src = int(g.out_degrees.argmax())
    else:
        g = generators.road_grid(40, 40, seed=SEED)
        src = int(np.flatnonzero(g.out_degrees >= 2)[0])
    rng = np.random.default_rng(SEED)
    seeds = sorted(int(v) for v in
                   rng.choice(np.flatnonzero(g.out_degrees > 0), 3,
                              replace=False))
    return g, build.with_random_weights(g, seed=SEED), src, seeds


def _run(name: str, g, weighted, src: int, seeds, machine: Machine) -> None:
    if name == "bfs":
        primitives.bfs(g, src, machine=machine)
    elif name == "sssp":
        primitives.sssp(weighted, src, machine=machine)
    elif name == "pagerank":
        primitives.pagerank(g, machine=machine, max_iterations=50)
    elif name == "ppr":
        primitives.ppr(g, seeds, machine=machine)
    elif name == "cc":
        primitives.cc(g, machine=machine)
    else:
        primitives.bc(g, src, machine=machine)


def signature(graph_name: str, name: str) -> list:
    g, weighted, src, seeds = _inputs(graph_name)
    machine = Machine()
    _run(name, g, weighted, src, seeds, machine)
    c = machine.counters
    return [getattr(c, f) for f in FIELDS]


#: library configurations pinned by ``golden_outputs.json``: the suite,
#: the direction / claim / queue / schedule variants of its enactors, the
#: gather-reduce PageRank and the extension primitives
OUTPUT_RUNS = {
    "bfs": lambda g, w, s, ss, m: primitives.bfs(g, s, machine=m),
    "bfs_push": lambda g, w, s, ss, m: primitives.bfs(
        g, s, machine=m, direction="push"),
    "bfs_pull": lambda g, w, s, ss, m: primitives.bfs(
        g, s, machine=m, direction="pull"),
    "bfs_cas": lambda g, w, s, ss, m: primitives.bfs(
        g, s, machine=m, idempotent=False),
    "sssp": lambda g, w, s, ss, m: primitives.sssp(w, s, machine=m),
    "sssp_no_pq": lambda g, w, s, ss, m: primitives.sssp(
        w, s, machine=m, use_priority_queue=False),
    "pagerank": lambda g, w, s, ss, m: primitives.pagerank(
        g, machine=m, max_iterations=50),
    "pagerank_gather": lambda g, w, s, ss, m: primitives.pagerank_gather(
        g, machine=m, max_iterations=50),
    "ppr": lambda g, w, s, ss, m: primitives.ppr(g, ss, machine=m),
    "cc": lambda g, w, s, ss, m: primitives.cc(g, machine=m),
    "cc_alternate": lambda g, w, s, ss, m: primitives.cc(
        g, machine=m, alternate=True),
    "bc": lambda g, w, s, ss, m: primitives.bc(g, s, machine=m),
    "mis": lambda g, w, s, ss, m: primitives.mis(g, machine=m, seed=SEED),
    "color": lambda g, w, s, ss, m: primitives.color(g, machine=m,
                                                     seed=SEED),
    "kcore": lambda g, w, s, ss, m: primitives.kcore(g, machine=m),
    "label_prop": lambda g, w, s, ss, m: primitives.label_propagation(
        g, machine=m, seed=SEED),
    "triangles": lambda g, w, s, ss, m: primitives.triangle_count(
        g, machine=m),
}


def _sha256(payload: bytes) -> str:
    return hashlib.sha256(payload).hexdigest()


def output_signature(graph_name: str, name: str) -> dict:
    g, weighted, src, seeds = _inputs(graph_name)
    machine = Machine()
    result = OUTPUT_RUNS[name](g, weighted, src, seeds, machine)
    arrays = {}
    for key in sorted(result.arrays):
        a = np.ascontiguousarray(result.arrays[key])
        arrays[key] = _sha256(a.dtype.str.encode() + b":" + a.tobytes())
    kernels = [[k.name, float(k.cycles), int(k.items), int(k.iteration)]
               for k in machine.counters.kernels]
    return {"arrays": arrays,
            "kernels": _sha256(json.dumps(kernels).encode()),
            "cycles": machine.counters.cycles}


@pytest.fixture(scope="module")
def golden():
    return json.loads(FIXTURE.read_text())


@pytest.fixture(scope="module")
def golden_outputs():
    return json.loads(OUTPUT_FIXTURE.read_text())


@pytest.mark.parametrize("graph_name", ["rmat", "road"])
@pytest.mark.parametrize("name", SUITE)
def test_counters_match_golden(golden, graph_name, name):
    assert golden["fields"] == list(FIELDS)
    assert signature(graph_name, name) == golden[graph_name][name]


def test_output_fixture_covers_every_run(golden_outputs):
    for graph_name in ("rmat", "road"):
        assert sorted(golden_outputs[graph_name]) == sorted(OUTPUT_RUNS)


@pytest.mark.parametrize("graph_name", ["rmat", "road"])
@pytest.mark.parametrize("name", sorted(OUTPUT_RUNS))
def test_outputs_match_golden(golden_outputs, graph_name, name):
    assert output_signature(graph_name, name) == \
        golden_outputs[graph_name][name]


if __name__ == "__main__":
    out = {"fields": list(FIELDS)}
    for graph_name in ("rmat", "road"):
        out[graph_name] = {p: signature(graph_name, p) for p in SUITE}
    FIXTURE.write_text(json.dumps(out, indent=1) + "\n")
    outputs = {graph_name: {p: output_signature(graph_name, p)
                            for p in sorted(OUTPUT_RUNS)}
               for graph_name in ("rmat", "road")}
    OUTPUT_FIXTURE.write_text(json.dumps(outputs, indent=1) + "\n")
    sys.stdout.write(f"wrote {FIXTURE} and {OUTPUT_FIXTURE}\n")
