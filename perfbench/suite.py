"""Workload inputs and one pass of each workload.

Every input is a pure function of ``(workload, seed, size)``: graphs come
from the repository's seeded generators, sources are drawn from a
``numpy`` generator seeded with the same value.  The program under test
only ever sees the generated graph, sources and serving spec.

A *pass* is the unit a run repeats and times:

* ``rmat`` / ``road`` — the six-primitive suite, each call made the way
  ``repro run`` makes it: default engine, one fresh ``Machine`` per call;
* ``serve`` / ``serve-sharded`` — one ``run_serving`` /
  ``run_sharded_serving`` replay of the request stream, as ``repro serve``
  makes it.

Primitives and generators are looked up on their modules at call time
(``primitives.bfs``, ``generators.rmat``) so that the traced run's
wrappers, installed on those modules, see every call.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

import repro.primitives as primitives
import repro.serve as serve
from repro.graph import build, generators
from repro.graph.csr import Csr
from repro.simt import Machine
from repro.simt.counters import KernelRecord
from repro.simt.machine import GPUSpec

ANALYTICS = ("rmat", "road")
SUITE = ("bfs", "sssp", "pagerank", "ppr", "cc", "bc")

#: pagerank iteration cap, as in the existing wall-clock scripts
PR_ITERATIONS = 50
PPR_SEEDS = 3

#: the canonical replica-kill schedule of the sharded tier
KILL_SCHEDULE = "5:0:1,6:1:1,7:2:1,8:3:1,11:0:0"

#: graph and stream sizes; ``small`` is for the benchmark's own tests
SIZES = {
    "full": {"rmat_scale": 14, "road_side": 300, "kron_scale": 10,
             "requests": 300, "updates": 6},
    "small": {"rmat_scale": 9, "road_side": 40, "kron_scale": 7,
              "requests": 60, "updates": 6},
}

#: seed of the serve workloads' request draws (which primitive arrives
#: when, which popularity rank it asks for, the arrival gaps).  ``--seed``
#: generates the graph, so it decides which vertices those ranks land on
#: and which edges the updates touch.  Redrawing the stream per seed as
#: well moves a 300-request replay's cost by +-13% (how many who-to-follow
#: and pagerank executions it happens to hold), wider than any bound the
#: benchmark could keep.
STREAM_SEED = 7

#: nominal open-loop arrival rate (simulated requests/s) of the serve
#: workloads: below the knee on every seed tried, so the simulated
#: latency percentiles measure service cost rather than queue blow-ups
NOMINAL_RATE_RPS = 2000.0


@dataclass
class AnalyticsInputs:
    graph: Csr
    weighted: Csr
    src: int
    ppr_seeds: List[int]


@dataclass
class ServeInputs:
    graph: Csr
    spec: serve.WorkloadSpec
    sharded: bool


@dataclass
class SuitePass:
    """One pass over the primitive suite."""

    results: Dict[str, object] = field(default_factory=dict)
    sim_ms: Dict[str, float] = field(default_factory=dict)
    #: every simulated kernel launch of the pass
    kernels: List[KernelRecord] = field(default_factory=list)
    #: exact simulated counters summed over the pass
    counters: Dict[str, int] = field(default_factory=dict)

    def signature(self) -> Tuple:
        """Everything simulated about the pass; must repeat exactly."""
        return (tuple(sorted(self.sim_ms.items())),
                tuple(sorted(self.counters.items())),
                tuple(k.cycles for k in self.kernels))

    def kernel_ms(self) -> List[float]:
        spec = GPUSpec()
        return [spec.cycles_to_ms(k.cycles) for k in self.kernels]


def make_inputs(workload: str, seed: int, size: str = "full"):
    """Generate a workload's inputs from ``seed``."""
    dims = SIZES[size]
    if workload in ANALYTICS:
        if workload == "rmat":
            g = generators.rmat(dims["rmat_scale"], edge_factor=16, seed=seed)
        else:
            side = dims["road_side"]
            g = generators.road_grid(side, side, seed=seed)
        weighted = build.with_random_weights(g, seed=seed)
        if workload == "rmat":
            # the hub, where ``repro run`` starts (highest out-degree)
            src = int(g.out_degrees.argmax())
        else:
            # a corner, so traversals cross the whole grid: the highest
            # out-degree vertex sits anywhere along the first rows, and
            # its eccentricity would vary with the seed
            src = int(np.flatnonzero(g.out_degrees >= 2)[0])
        rng = np.random.default_rng(seed)
        candidates = np.flatnonzero(g.out_degrees > 0)
        seeds = sorted(int(v) for v in
                       rng.choice(candidates, PPR_SEEDS, replace=False))
        return AnalyticsInputs(g, weighted, src, seeds)
    if workload in ("serve", "serve-sharded"):
        g = generators.kronecker(dims["kron_scale"], seed=seed)
        requests, updates = dims["requests"], dims["updates"]
        # spread the structural updates evenly over the arrival stream
        stream_ms = requests / NOMINAL_RATE_RPS * 1e3
        spec = serve.WorkloadSpec(
            requests=requests, seed=STREAM_SEED,
            arrival_rate_rps=NOMINAL_RATE_RPS,
            updates=updates, update_interval_ms=stream_ms / (updates + 1),
            update_kind="edges")
        return ServeInputs(g, spec, workload == "serve-sharded")
    raise ValueError(f"unknown workload {workload!r}")


def call_primitive(name: str, inp: AnalyticsInputs, machine):
    g = inp.graph
    if name == "bfs":
        return primitives.bfs(g, inp.src, machine=machine)
    if name == "sssp":
        return primitives.sssp(inp.weighted, inp.src, machine=machine)
    if name == "pagerank":
        return primitives.pagerank(g, machine=machine,
                                   max_iterations=PR_ITERATIONS)
    if name == "ppr":
        return primitives.ppr(g, inp.ppr_seeds, machine=machine)
    if name == "cc":
        return primitives.cc(g, machine=machine)
    if name == "bc":
        return primitives.bc(g, inp.src, machine=machine)
    raise ValueError(f"unknown primitive {name!r}")


def suite_pass(inp: AnalyticsInputs, with_machine: bool = True) -> SuitePass:
    """Run the six primitives once; ``with_machine=False`` runs them
    without the cost model (``machine=None``)."""
    out = SuitePass()
    totals = {"launches": 0, "atomics": 0, "atomic_conflicts": 0,
              "edges": 0}
    for name in SUITE:
        machine = Machine() if with_machine else None
        out.results[name] = call_primitive(name, inp, machine)
        if machine is None:
            continue
        c = machine.counters
        out.sim_ms[name] = machine.elapsed_ms()
        out.kernels += c.kernels
        totals["launches"] += c.kernel_launches
        totals["atomics"] += c.atomics_issued
        totals["atomic_conflicts"] += c.atomic_conflicts
        totals["edges"] += c.edges_visited
    if with_machine:
        out.counters = totals
    return out


def serve_pass(inp: ServeInputs) -> serve.ServeReport:
    """One replay of the request stream with incremental edge updates."""
    if inp.sharded:
        return serve.run_sharded_serving(
            inp.graph, inp.spec, shards=4, replicas=2,
            kill_schedule=KILL_SCHEDULE, incremental=True)
    return serve.run_serving(inp.graph, inp.spec, incremental=True)


def serve_signature(report: serve.ServeReport) -> str:
    """The replay's whole report; deterministic for a fixed seed."""
    import json

    return json.dumps(report.as_dict(), sort_keys=True)
