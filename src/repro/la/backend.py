"""The linear-algebra executor backend: primitives as masked SpMV/SpMSpV.

``try_la`` is the engine hook :meth:`EnactorBase._try_backend` calls
when ``--engine la`` is selected.  Each lowered primitive has a runner
that executes the whole primitive as a loop of semiring products over
the frozen CSR/CSC artifacts; every other run takes the pooled library
loop, with the reason recorded on the engine fallback log.

Equivalence contract (DESIGN §16) against the operator engines:

* **bfs** — ``labels`` bitwise (per-level discovered sets are
  schedule-independent); ``preds`` valid shortest-path parents (the LA
  witness is the minimum-id frontier parent, a relaxed array).
* **pagerank / ppr** — ``rank`` within documented tolerance (the LA
  loop replays the pooled residual schedule, so in practice the arrays
  match bitwise; the contract only promises ``allclose``).

Direction optimization falls out as the sparse/dense crossover: the
BFS runner feeds the existing :class:`DirectionOptimizer` signals and
lowers push steps to SpMSpV, pull steps to masked SpMV; PageRank/PPR
switch to the cached transpose SpMV once the frontier's edge volume
reaches ``n``.

sssp and cc have no lowering: a synchronous min-plus relaxation and a
min-select Jacobi sweep lose to the pooled loop on every benchmark cell
(O(diameter) full products), so both fall back to pooled with the
"no linear-algebra lowering" reason and are then bitwise-identical to it.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

import numpy as np

from ..analysis.sanitizer import current_sanitizer
from ..core.engine import engine_mode, record_fallback
from ..core.frontier import Frontier
from ..core.fused import _transpose_ones
from ..obs.spans import CAT_LA, current_observer, span as obs_span
from ..simt import calib
from .semiring import BOOL_OR_AND, PLUS_TIMES, Semiring, spmspv, spmv

EMPTY = np.zeros(0, dtype=np.int64)

#: primitive -> the semiring its lowering reduces over (DESIGN §16 table)
SEMIRING_OF: Dict[str, Semiring] = {
    "bfs": BOOL_OR_AND,
    "pagerank": PLUS_TIMES,
    "ppr": PLUS_TIMES,
    "triangles": PLUS_TIMES,
}


def _charge_product(machine, kernel: str, ne: int, it: int) -> None:
    """One semiring product: edge-proportional work, comparable (not
    signature-identical) to the operator engines' advance charging."""
    if machine is None:
        return
    machine.map_kernel(kernel, ne, calib.C_EDGE, iteration=it)
    machine.counters.record_edges(ne)


def _charge_commit(machine, n_items: int, frontier_out: int,
                   it: int) -> None:
    """Masked assignment + next-frontier compaction."""
    if machine is None:
        return
    machine.map_kernel("la_mask_commit", n_items,
                       calib.C_COMPACT_PER_ELEM, iteration=it)
    machine.counters.record_frontier(frontier_out)


def _step(en, machine, it: int) -> int:
    it += 1
    en.iteration = it
    if machine is not None:
        machine.counters.iterations = it
    return it


# --------------------------------------------------------------------- BFS

def _run_bfs(en, frontier: Frontier) -> Frontier:
    P = en.problem
    g = P.graph
    machine = P.machine
    labels = P.labels
    preds = P.preds if P.record_preds else None
    policy = en.direction
    n = g.n
    f = frontier.items
    in_frontier = np.zeros(n, dtype=bool)
    it = 0
    maxit = en.max_iterations
    while len(f) and (maxit is None or it < maxit):
        depth = it + 1
        nf = len(f)
        frontier_edges = 0
        if policy.needs_frontier_stats(g, nf):
            P.num_unvisited = int(np.count_nonzero(labels < 0))
            frontier_edges = int(g.degrees_of(f).sum())
        mode = policy.choose(g, nf, frontier_edges, P.num_unvisited)
        visited = labels >= 0
        if mode == "push":
            ne = frontier_edges or int(g.degrees_of(f).sum())
            out = spmspv(g, f, np.ones(nf, dtype=bool), BOOL_OR_AND,
                         mask=visited, mask_complement=True,
                         witness=preds is not None)
            ids = out[0]
            wit = out[2] if preds is not None else None
            _charge_product(machine, "la_spmspv[bool_or_and]", ne, it)
        else:
            rows = np.flatnonzero(~visited)
            ne = int(g.csc.degrees_of(rows).sum())
            in_frontier[f] = True
            y = spmv(g, in_frontier, BOOL_OR_AND, mask=visited,
                     mask_complement=True, witness=preds is not None)
            if preds is not None:
                y, wit_dense = y
            in_frontier[f] = False
            ids = np.flatnonzero(y)
            wit = wit_dense[ids] if preds is not None else None
            _charge_product(machine, "la_spmv[bool_or_and]", ne, it)
        labels[ids] = depth
        if preds is not None and len(ids):
            preds[ids] = wit
        _charge_commit(machine, len(ids), len(ids), it)
        f = ids
        it = _step(en, machine, it)
    return Frontier(f)


# -------------------------------------------------------- PageRank and PPR

def _run_pagerank(en, frontier: Frontier) -> Frontier:
    """Shared PageRank/PPR loop: same residual schedule as the operator
    engines, lowered to plus-times SpMSpV (sparse frontier) or the
    cached 0/1-transpose SpMV (dense frontier)."""
    P = en.problem
    g = P.graph
    machine = P.machine
    n = g.n
    iota_n = g.artifacts.iota_n
    rank, residual = P.rank, P.residual
    degrees = P.degrees
    damping, tol = P.damping, P.tolerance
    T = _transpose_ones(g)  # None without scipy; the push path covers it
    xbuf = np.empty(n) if T is not None else None
    f = frontier.items
    it = 0
    maxit = en.max_iterations
    while len(f) and (maxit is None or it < maxit):
        full = len(f) == n
        if full:
            contrib = residual * damping
            np.divide(contrib, degrees, out=contrib)
            ne = g.m
        else:
            contrib = residual[f] * damping
            np.divide(contrib, degrees[f], out=contrib)
            ne = int(g.degrees_of(f).sum())
        if ne == 0:
            res = np.zeros(n)
            _charge_product(machine, "la_spmspv[plus_times]", 0, it)
        elif T is not None and ne >= n:
            # dense regime: pull the whole residual vector through the
            # transpose (stored-order accumulation == lane order)
            if full:
                res = T @ contrib
            else:
                xbuf.fill(0.0)
                xbuf[f] = contrib
                res = T @ xbuf
            _charge_product(machine, "la_spmv[plus_times]", ne, it)
        else:
            ids, vals = spmspv(g, f if not full else iota_n, contrib,
                               PLUS_TIMES)
            res = np.zeros(n)
            res[ids] = vals
            _charge_product(machine, "la_spmspv[plus_times]", ne, it)
        np.add(rank, res, out=rank)
        np.copyto(residual, res)
        keep = res > tol
        nk = int(np.count_nonzero(keep))
        f = iota_n[keep] if 0 < nk < n else (iota_n if nk == n else EMPTY)
        _charge_commit(machine, n, nk, it)
        it = _step(en, machine, it)
    return Frontier(f)


# ------------------------------------------------------------- dispatcher

#: primitive name -> runner (the primitives the la engine lowers)
RUNNERS: Dict[str, Callable] = {
    "bfs": _run_bfs,
    "pagerank": _run_pagerank,
    "ppr": _run_pagerank,
}


def _count_dispatch(primitive: str, engine_label: str) -> None:
    ob = current_observer()
    if ob is not None:
        ob.metrics.counter("repro_la_dispatch_total",
                           primitive=primitive, engine=engine_label).inc()


def try_la(enactor, frontier: Frontier) -> Optional[Frontier]:
    """Run ``enactor``'s loop through the linear-algebra backend, or
    return None.

    None means "take the library path": either the engine is not in
    ``la`` mode (silent), or it is but this run has no LA lowering — in
    which case the (primitive, reason) pair is recorded on the fallback
    log and the dispatch counter gets an ``engine="pooled"`` sample,
    per the fallback contract.
    """
    if engine_mode() != "la":
        return None
    name = enactor.primitive_name
    runner = RUNNERS.get(name)
    reason: Optional[str] = None
    if runner is None:
        reason = f"no linear-algebra lowering for primitive '{name}'"
    elif enactor.sanitize or current_sanitizer() is not None:
        reason = "sanitizer active: library operators carry the kernel scopes"
    elif enactor.injector is not None or enactor.checkpoints is not None:
        reason = ("resilience hooks active: fault windows exist only in "
                  "the library loop")
    if reason is not None:
        record_fallback(name, reason)
        _count_dispatch(name, "pooled")
        return None
    _count_dispatch(name, "la")
    machine = enactor.problem.machine
    sp = obs_span(f"la:{name}", CAT_LA, machine, primitive=name,
                  semiring=SEMIRING_OF[name].name)
    with sp:
        out = runner(enactor, frontier)
        sp.set(iterations=enactor.iteration)
    return out
