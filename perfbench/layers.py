"""Per-layer tracing from outside the program.

The traced run wraps public functions at each layer boundary, on the
module or class where their callers look them up, and records one span
per call: name, start, end and the enclosing span.  Spans are kept in
memory as per-name aggregates (calls, total and self nanoseconds); a
span's self time is its duration minus the time its child spans cover,
so the self times of all spans add up to the time covered by the root
spans.

Layers are the repository's modules: ``graph``, ``primitives``, ``core``
(enactor, operators, direction), ``simt`` (cost model), ``serve`` and
``dynamic``.  Every wrapped boundary is a *site*; a site that records no
call on the workload built to exercise it fails the coverage check.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import repro.core.atomics as atomics
import repro.graph.build as graph_build
import repro.graph.generators as generators
import repro.primitives as primitives
import repro.serve as serve
import repro.serve.scheduler as scheduler
import repro.serve.service as service
import repro.serve.shard_scheduler as shard_scheduler
from repro.core.enactor import EnactorBase
from repro.dynamic.delta import DeltaCsr
from repro.graph.csr import Csr
from repro.simt.counters import Counters
from repro.simt.machine import Machine

import repro.core.operators.neighbor_reduce  # noqa: F401  (module object)

_NEIGHBOR_REDUCE = sys.modules["repro.core.operators.neighbor_reduce"]

LAYERS = ("graph", "primitives", "core", "simt", "serve", "dynamic")

#: site id -> (owner, attribute, span name)
SITES: Dict[str, Tuple[object, str, str]] = {
    "generators.rmat": (generators, "rmat", "graph.build"),
    "generators.road_grid": (generators, "road_grid", "graph.build"),
    "generators.kronecker": (generators, "kronecker", "graph.build"),
    "build.with_random_weights": (graph_build, "with_random_weights",
                                  "graph.build"),
    "Csr.reverse": (Csr, "reverse", "graph.csc"),
    **{f"primitives.{p}": (primitives, p, f"primitives.{p}")
       for p in ("bfs", "sssp", "pagerank", "ppr", "cc", "bc")},
    "EnactorBase.enact": (EnactorBase, "enact", "core.enact"),
    "EnactorBase.advance": (EnactorBase, "advance", "core.advance"),
    "EnactorBase.filter": (EnactorBase, "filter", "core.filter"),
    "EnactorBase.compute": (EnactorBase, "compute", "core.compute"),
    "neighbor_reduce": (_NEIGHBOR_REDUCE, "neighbor_reduce",
                        "core.neighbor_reduce"),
    "Machine.launch": (Machine, "launch", "simt.launch"),
    "atomics._charge": (atomics, "_charge", "simt.atomic_charge"),
    "serve.run_serving": (serve, "run_serving", "serve.replay"),
    "serve.run_sharded_serving": (serve, "run_sharded_serving",
                                  "serve.replay"),
    "serve.build_workload": (serve, "build_workload", "serve.workload"),
    "service.execute_batch": (service, "execute_batch",
                              "serve.execute_batch"),
    "DeltaCsr.apply": (DeltaCsr, "apply", "dynamic.apply"),
    "DeltaCsr.compact": (DeltaCsr, "compact", "dynamic.compact"),
    "scheduler.repair_payload": (scheduler, "repair_payload",
                                 "dynamic.repair"),
    "shard_scheduler.repair_payload": (shard_scheduler, "repair_payload",
                                       "dynamic.repair"),
}

_ANALYTICS_SITES = (
    "build.with_random_weights", "primitives.bfs", "primitives.sssp",
    "primitives.pagerank", "primitives.ppr", "primitives.cc",
    "primitives.bc", "EnactorBase.enact", "EnactorBase.advance",
    "EnactorBase.filter", "Machine.launch", "atomics._charge")
_SERVE_SITES = (
    "generators.kronecker", "serve.build_workload", "service.execute_batch",
    "DeltaCsr.apply", "EnactorBase.enact", "EnactorBase.advance",
    "EnactorBase.filter", "Machine.launch", "atomics._charge")

#: sites each workload is built to exercise.  ``EnactorBase.compute`` and
#: ``neighbor_reduce`` are wrapped and reported but on no default path
#: (only ``pagerank_gather`` and non-suite primitives call them), so no
#: workload requires them.
REQUIRED_SITES: Dict[str, Tuple[str, ...]] = {
    "rmat": _ANALYTICS_SITES + ("generators.rmat", "Csr.reverse"),
    "road": _ANALYTICS_SITES + ("generators.road_grid",),
    "serve": _SERVE_SITES + ("serve.run_serving", "DeltaCsr.compact",
                             "scheduler.repair_payload"),
    "serve-sharded": _SERVE_SITES + ("serve.run_sharded_serving",
                                     "shard_scheduler.repair_payload"),
}


@dataclass
class Stat:
    calls: int = 0
    total_ns: int = 0
    self_ns: int = 0


class Tracer:
    """In-memory span aggregates plus the counts taken at boundaries."""

    def __init__(self):
        self.stats: Dict[str, Stat] = defaultdict(Stat)
        self.site_calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, float] = defaultdict(float)
        #: open spans: [name, child_ns]
        self._stack: List[list] = []
        #: >0 while input generation runs inside a replay; boundaries
        #: crossed there belong to the workload span, not to a layer
        self._muted = 0

    def in_span(self, name: str) -> bool:
        return any(frame[0] == name for frame in self._stack)

    def root_ns(self) -> int:
        """Time covered by root spans (== the sum of all self times)."""
        return sum(s.self_ns for s in self.stats.values())

    def layer_self_ns(self) -> Dict[str, int]:
        out = {layer: 0 for layer in LAYERS}
        for name, st in self.stats.items():
            out[name.split(".", 1)[0]] += st.self_ns
        return out

    def wrap(self, site: str, name: str, fn: Callable,
             after: Optional[Callable] = None) -> Callable:
        mutes = name == "serve.workload"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._muted:
                return fn(*args, **kwargs)
            frame = [name, 0]
            self._stack.append(frame)
            self._muted += mutes
            t0 = time.perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter_ns() - t0
                self._muted -= mutes
                self._stack.pop()
                st = self.stats[name]
                st.calls += 1
                st.total_ns += dt
                st.self_ns += dt - frame[1]
                if self._stack:
                    self._stack[-1][1] += dt
                self.site_calls[site] += 1
            if after is not None:
                after(self, args, kwargs, out)
            return out

        return traced


# -- counts taken at the boundaries ----------------------------------------

def _after_enact(tr: Tracer, args, kwargs, out) -> None:
    tr.counts["supersteps"] += args[0].iteration


def _after_advance(tr: Tracer, args, kwargs, out) -> None:
    if tr.in_span("primitives.bfs"):
        tr.counts["bfs_advances"] += 1
        if kwargs.get("mode", "push") == "pull":
            tr.counts["bfs_pull_advances"] += 1


def _after_filter(tr: Tracer, args, kwargs, out) -> None:
    tr.counts["filter_in"] += len(args[1])
    tr.counts["filter_out"] += len(out)


def _after_execute_batch(tr: Tracer, args, kwargs, out) -> None:
    tr.counts["lanes"] += args[1].lanes


def _after_repair(tr: Tracer, args, kwargs, out) -> None:
    if not out[1]:
        tr.counts["repair_fallbacks"] += 1


_AFTER = {
    "EnactorBase.enact": _after_enact,
    "EnactorBase.advance": _after_advance,
    "EnactorBase.filter": _after_filter,
    "service.execute_batch": _after_execute_batch,
    "scheduler.repair_payload": _after_repair,
    "shard_scheduler.repair_payload": _after_repair,
}


@contextmanager
def patched(replacements: Dict[Tuple[object, str], Callable]) -> Iterator:
    """Install ``{(owner, attr): fn}`` and restore the originals on exit."""
    saved = [(owner, attr, owner.__dict__[attr])
             for owner, attr in replacements]
    try:
        for (owner, attr), fn in replacements.items():
            setattr(owner, attr, fn)
        yield
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)


@contextmanager
def traced(tracer: Tracer) -> Iterator[Tracer]:
    """Wrap every site for the duration of the block."""
    wrappers = {}
    for site, (owner, attr, name) in SITES.items():
        wrappers[(owner, attr)] = tracer.wrap(site, name,
                                              getattr(owner, attr),
                                              _AFTER.get(site))
    with patched(wrappers):
        yield tracer


def coverage_failures(workload: str, site_calls: Dict[str, int]
                      ) -> List[str]:
    return [f"coverage: site {site} recorded no call on {workload}"
            for site in REQUIRED_SITES[workload]
            if site_calls.get(site, 0) == 0]


# -- serve replay capture (for output checks and simulated cost) -----------

@dataclass
class Capture:
    """What one replay produced, sampled at its boundaries."""

    #: simulated device cycles over every kernel record of the replay
    cycles: float = 0.0
    #: (what, lane payload, graph, src) for sampled bfs replies/repairs
    bfs_samples: list = field(default_factory=list)
    lanes_checked: int = 0
    repairs_checked: int = 0


@contextmanager
def captured(limit: int = 8) -> Iterator[Capture]:
    """Sum simulated cycles and sample bfs replies and repairs; each
    sample snapshots its graph at the time, because incremental updates
    mutate the delta overlay in place."""
    cap = Capture()
    record_kernel = Counters.record_kernel
    execute_batch = service.execute_batch

    def on_kernel(self, name, cycles, items, iteration=-1):
        cap.cycles += cycles
        return record_kernel(self, name, cycles, items, iteration)

    def on_batch(graph, batch, **kwargs):
        out = execute_batch(graph, batch, **kwargs)
        if batch.primitive == "bfs":
            for q in batch.queries:
                if cap.lanes_checked < limit:
                    cap.lanes_checked += 1
                    cap.bfs_samples.append(("reply", out[q.key].arrays,
                                            graph, q.params["src"]))
        return out

    def repair_wrapper(original):
        def on_repair(primitive, params, old_arrays, old_g, new_g, batch,
                      machine=None):
            arrays, ok = original(primitive, params, old_arrays, old_g,
                                  new_g, batch, machine=machine)
            # only an already-materialized snapshot is read: building one
            # here would memoize it uncharged and change the replay
            snap = new_g._snapshot if isinstance(new_g, DeltaCsr) \
                else new_g
            if primitive == "bfs" and snap is not None \
                    and cap.repairs_checked < limit:
                cap.repairs_checked += 1
                cap.bfs_samples.append(("repair", arrays, snap,
                                        params["src"]))
            return arrays, ok
        return on_repair

    with patched({
        (Counters, "record_kernel"): on_kernel,
        (service, "execute_batch"): on_batch,
        (scheduler, "repair_payload"):
            repair_wrapper(scheduler.repair_payload),
        (shard_scheduler, "repair_payload"):
            repair_wrapper(shard_scheduler.repair_payload),
    }):
        yield cap
