"""Golden simulated-counter signatures for the six-primitive suite.

Each primitive runs the way ``repro run`` runs it (default engine, one
fresh ``Machine`` per call) on a small R-MAT and a small road grid.  Its
``(cycles, kernel_launches, atomics_issued, atomic_conflicts,
edges_visited)`` must equal the checked-in fixture exactly: a change that
only makes the program faster must leave the simulated channel where it
was.  A change that moves the cost model on purpose regenerates the
fixture and says why::

    PYTHONPATH=src python tests/test_golden_counters.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro import primitives
from repro.graph import build, generators
from repro.simt import Machine

FIXTURE = Path(__file__).with_name("golden_counters.json")
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


@pytest.fixture(scope="module")
def golden():
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("graph_name", ["rmat", "road"])
@pytest.mark.parametrize("name", SUITE)
def test_counters_match_golden(golden, graph_name, name):
    assert golden["fields"] == list(FIELDS)
    assert signature(graph_name, name) == golden[graph_name][name]


if __name__ == "__main__":
    out = {"fields": list(FIELDS)}
    for graph_name in ("rmat", "road"):
        out[graph_name] = {p: signature(graph_name, p) for p in SUITE}
    FIXTURE.write_text(json.dumps(out, indent=1) + "\n")
    sys.stdout.write(f"wrote {FIXTURE}\n")
