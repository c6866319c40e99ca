"""Fused super-step runners: specialized single-pass primitive loops.

The fused engine (DESIGN §15) executes a primitive's *entire* verified
operator DAG as one specialized loop per super-step: advance's expansion,
the functor's cond+apply, and filter's culls/compaction run as a single
vectorized pass with no intermediate :class:`Frontier` materialization
between operators.  The specialization is compiled per ``(primitive,
graph)`` by :mod:`repro.analysis.plan`; this module holds the runner the
plan's stages are interpreted by.

The contract, pinned by ``tests/test_fused.py`` and the three-path
oracle: for every fusable primitive the fused runner is **bitwise
identical** to the pooled library path — output arrays, kernel-counter
signatures (name/cycles/items/iteration of every simulated launch), and
total cycles.  That holds because every lowering below is an exact
algebraic substitution, not an approximation:

* ``atomic_add`` into a zeroed accumulator ``==`` ``np.bincount`` (and
  ``==`` a 0/1 CSC-transpose SpMV in stored-edge order): float addition
  starting from +0.0 associates identically when the partial sums are
  built in the same lane order.
* ``atomic_min``/``atomic_max`` fold over *winner lanes only* — losing
  lanes can never be the per-cell extremum, so ``minimum.at`` over the
  improving subset yields the same cells.
* a constant value per cell (BFS/BC depth stores) turns the atomic into
  a plain scatter.
* filter's warp/bitmask/history culls are replayed exactly (first
  occurrence per (warp, item) key; wave-batched bitmask probes), so the
  frontier *content and order* — which feed last-write-wins predecessor
  choices — match lane for lane.

When a :class:`~repro.simt.machine.Machine` is attached, the runners
invoke the same charge helpers at the same points as the library
operators, so the simulated kernel stream is identical by construction;
with ``machine=None`` (wall-clock mode) all charging short-circuits and
only the lean array code runs.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

import numpy as np

from ..analysis.sanitizer import current_sanitizer
from ..obs.spans import CAT_FUSED, current_observer, span as obs_span
from ..simt import calib
from ..simt.primitives import unique_by_sort
from . import atomics
from .engine import engine_mode, record_fallback
from .frontier import Frontier, FrontierKind
from .operators.advance import _charge_advance, advance as _op_advance

try:
    import scipy.sparse as _sp
except ImportError:                      # pragma: no cover - env-dependent
    _sp = None

EMPTY = np.zeros(0, dtype=np.int64)

#: reserved key in the per-graph plan cache for the 0/1 transpose matrix
_T_KEY = "__transpose_ones__"


def _transpose_ones(graph):
    """Cached scipy CSR of the transpose with unit weights, stored-edge
    order matching the CSC (so SpMV accumulation order == lane order)."""
    cache = graph._fused_plans
    if cache is None:
        cache = {}
        graph._fused_plans = cache
    T = cache.get(_T_KEY)
    if T is None and _sp is not None:
        csc = graph.csc
        T = _sp.csr_matrix(
            (np.ones(graph.m), csc.indices.astype(np.int64),
             csc.indptr.astype(np.int64)), shape=(graph.n, graph.n))
        cache[_T_KEY] = T
    return T


# ------------------------------------------------------------ shared kernels

def _expand(ws, indptr, frontier, degs, ne):
    """Pooled lane expansion: (excl, eids) without a per-lane src array."""
    nf = len(frontier)
    excl = ws.take("expand_excl", nf, np.int64)
    excl[0] = 0
    degs[:-1].cumsum(out=excl[1:])
    starts = indptr[frontier]
    np.subtract(starts, excl, out=starts)
    eids = starts.repeat(degs)
    np.add(eids, ws.iota(ne), out=eids)
    return excl, eids


def _charge_filter(machine, iteration, n_in, n_out, *, heuristics=False,
                   atomic: Optional[Tuple[str, np.ndarray]] = None):
    """Replicate ``filter_frontier``'s kernel-counter signature."""
    if machine is None:
        return
    with machine.fused("filter", iteration):
        if n_in:
            if heuristics:
                machine.map_kernel("filter_heuristics", n_in, 3.0)
            if atomic is not None:
                atomics._charge(machine, atomic[0], atomic[1])
            machine.counters.compact_elements += n_in
            machine.map_kernel("compact", n_in, calib.C_COMPACT_PER_ELEM)
    machine.counters.record_frontier(n_out)
    machine.counters.record_vertices(n_in)


# ------------------------------------------------------------------- BFS

def _precheck_bfs(en) -> Optional[str]:
    if not getattr(en, "idempotent", True):
        return "non-idempotent BFS: the CAS-claim path is not specialized"
    return None


def _run_bfs(en, frontier: Frontier) -> Frontier:
    from ..primitives.bfs import _IdempotentBfsFunctor

    P = en.problem
    g = P.graph
    machine = P.machine
    ws = P.workspace
    lb = en.lb
    plan = en._fused_plan
    coarse = plan.regimes.coarse_edges
    indptr, indices = g.indptr, g.indices
    indptr1 = indptr[1:]
    labels, preds = P.labels, (P.preds if P.record_preds else None)
    heur = en.heuristics
    wave = heur.wave_size
    warp = heur.warp_size
    hist_mask = heur.history_size - 1
    policy = en.direction
    n = g.n
    f = frontier.items
    it = 0
    maxit = en.max_iterations
    if heur._discovered is None or len(heur._discovered) < n:
        heur._discovered = np.zeros(n, dtype=bool)
    disc = heur._discovered
    hist = heur._ensure()
    warp_ramp = np.arange(min(4096, max(1, n)), dtype=np.int64) // warp
    while len(f) and (maxit is None or it < maxit):
        depth = it + 1
        nf = len(f)
        degs = None
        frontier_edges = 0
        if policy.needs_frontier_stats(g, nf):
            # satellite fix: the unvisited recount and degree sum happen
            # only on steps where the policy's cheap guard already passed
            P.num_unvisited = int(np.count_nonzero(labels < 0))
            degs = indptr1[f]
            degs = degs - indptr[f]
            frontier_edges = int(degs.sum())
        mode = policy.choose(g, nf, frontier_edges, P.num_unvisited)
        if mode == "push":
            if degs is None:
                degs = indptr1[f]
                degs = degs - indptr[f]
                frontier_edges = int(degs.sum())
            ne = frontier_edges
            if machine is not None:
                with machine.fused(f"advance_push[{lb.name}]", it):
                    _charge_advance(P, degs, lb, "advance_push", ne, it)
            if ne == 0:
                out_items = EMPTY
            else:
                excl, eids = _expand(ws, indptr, f, degs, ne)
                dsts = indices[eids]
                keep = labels[dsts] < 0
                if keep.all():
                    kd = dsts
                    ks = f.repeat(degs) if preds is not None else None
                elif ne < coarse:
                    kd = dsts[keep]
                    ks = f.repeat(degs)[keep] if preds is not None else None
                else:
                    kidx = keep.nonzero()[0]
                    kd = dsts[kidx]
                    if preds is not None:
                        # map kept lanes to their frontier segment instead
                        # of materializing the dense per-lane source array
                        seg = excl.searchsorted(kidx, side="right")
                        ks = f[seg - 1]
                labels[kd] = depth
                if preds is not None:
                    preds[kd] = ks
                out_items = kd
            if machine is not None:
                machine.counters.record_frontier(len(out_items))
        else:
            # pull steps run the library operator whole: it already is a
            # single fused pass and charges its own kernels
            out_items = _op_advance(P, Frontier(f), _IdempotentBfsFunctor(depth),
                                    mode="pull", lb=lb, iteration=it).items
        k = len(out_items)
        if k:
            if k > len(warp_ramp):
                warp_ramp = np.arange(2 * k, dtype=np.int64) // warp
            key = warp_ramp[:k] * n
            np.add(key, out_items, out=key)
            order = key.argsort(kind="stable")
            sk = key[order]
            first = np.empty(k, dtype=bool)
            first[0] = True
            np.not_equal(sk[1:], sk[:-1], out=first[1:])
            keep = np.zeros(k, dtype=bool)
            keep[order[first]] = True
            if k <= wave:
                kb = ~disc[out_items]
                disc[out_items[kb]] = True
                keep &= kb
                slots = out_items & hist_mask
                kh = hist[slots] != out_items
                hist[slots[kh]] = out_items[kh]
                keep &= kh
            else:
                for s in range(0, k, wave):
                    chunk = out_items[s:s + wave]
                    kk = ~disc[chunk]
                    keep[s:s + wave] &= kk
                    disc[chunk[kk]] = True
                for s in range(0, k, wave):
                    chunk = out_items[s:s + wave]
                    slots = chunk & hist_mask
                    kk = hist[slots] != chunk
                    keep[s:s + wave] &= kk
                    hist[slots[kk]] = chunk[kk]
            f = out_items[keep]
        else:
            f = out_items
        _charge_filter(machine, it, k, len(f), heuristics=True)
        it += 1
        en.iteration = it
        if machine is not None:
            machine.counters.iterations = it
    return Frontier(f)


# ------------------------------------------------------------------- SSSP

def _precheck_sssp(en) -> Optional[str]:
    return None


def _run_sssp(en, frontier: Frontier) -> Frontier:
    P = en.problem
    g = P.graph
    machine = P.machine
    ws = P.workspace
    lb = en.lb
    indptr, indices = g.indptr, g.indices
    indptr1 = indptr[1:]
    labels, preds, weights = P.labels, P.preds, P.weights
    pile = en.pile
    delta = pile.delta if pile is not None else None
    level = pile.level if pile is not None else 0
    f = frontier.items
    far = EMPTY
    it = 0
    maxit = en.max_iterations
    while len(f) and (maxit is None or it < maxit):
        nf = len(f)
        degs = indptr1[f]
        degs = degs - indptr[f]
        ne = int(degs.sum())
        wd = EMPTY
        if ne == 0:
            if machine is not None:
                with machine.fused(f"advance_push[{lb.name}]", it):
                    _charge_advance(P, degs, lb, "advance_push", 0, it)
        else:
            excl, eids = _expand(ws, indptr, f, degs, ne)
            dsts = indices[eids]
            new_label = labels[f].repeat(degs)
            np.add(new_label, weights[eids], out=new_label)
            if machine is not None:
                with machine.fused(f"advance_push[{lb.name}]", it):
                    _charge_advance(P, degs, lb, "advance_push", ne, it)
                    atomics._charge(machine, "atomic_min", dsts)
            won = new_label < labels[dsts]
            widx = won.nonzero()[0]
            if len(widx):
                wd = dsts[widx]
                nw = new_label[widx]
                # losing lanes can never be the per-cell minimum: folding
                # the atomic over winner lanes only is exact
                np.minimum.at(labels, wd, nw)
                ach = nw == labels[wd]
                aidx = widx[ach]
                if len(aidx):
                    d = dsts[aidx]
                    order = d.argsort(kind="stable")
                    sd = d[order]
                    fm = np.empty(len(d), dtype=bool)
                    fm[0] = True
                    np.not_equal(sd[1:], sd[:-1], out=fm[1:])
                    w = aidx[order[fm]]
                    seg = excl.searchsorted(w, side="right")
                    preds[dsts[w]] = f[seg - 1]
        if machine is not None:
            machine.counters.record_frontier(len(wd))
        # the library loop's exact-dedup filter runs every step, empty or
        # not — the "unique" kernel record must exist either way
        out = unique_by_sort(wd, machine)
        if pile is None:
            f = out
        else:
            if len(out):
                prio = labels[out]
                if machine is not None:
                    machine.map_kernel("near_far_split", len(out),
                                       calib.C_COMPACT_PER_ELEM, iteration=it)
                nm = prio < level * delta
                near = out[nm]
                if len(near) < len(out):
                    far_new = out[~nm]
                    far = far_new if len(far) == 0 \
                        else np.concatenate([far, far_new])
            else:
                near = EMPTY
            while len(near) == 0 and len(far):
                level += 1
                if machine is not None:
                    machine.map_kernel("near_far_split", len(far),
                                       calib.C_COMPACT_PER_ELEM, iteration=it)
                prio = labels[far]
                nm = prio < level * delta
                near = far[nm]
                far = far[~nm]
            f = near
        it += 1
        en.iteration = it
        if machine is not None:
            machine.counters.iterations = it
    if pile is not None:
        # leave the pile consistent with how the library loop ends
        pile.level = level
    return Frontier(f)


# ------------------------------------------------------- PageRank and PPR
# ppr differs from pagerank only in its seeded initial residual, so both
# primitives run this loop (RUNNERS maps "ppr" to the pagerank pair).

def _precheck_pagerank(en) -> Optional[str]:
    return None


def _run_pagerank(en, frontier: Frontier) -> Frontier:
    P = en.problem
    g = P.graph
    machine = P.machine
    ws = P.workspace
    lb = en.lb
    plan = en._fused_plan
    n = g.n
    indptr, indices = g.indptr, g.indices
    indptr1 = indptr[1:]
    art = g.artifacts
    iota_n = art.iota_n
    rank, residual = P.rank, P.residual
    degrees = P.degrees
    damping, tol = P.damping, P.tolerance
    use_spmv = plan.regimes.use_spmv
    spmv_min = plan.regimes.spmv_min_edges
    T = _transpose_ones(g) if use_spmv else None
    f = frontier.items
    it = 0
    maxit = en.max_iterations
    contrib_buf = np.empty(n)
    spmv_buf = np.empty(n) if T is not None else None
    while len(f) and (maxit is None or it < maxit):
        full = f is iota_n or (len(f) == n and np.array_equal(f, iota_n))
        if full:
            degs, ne, dst_lanes = art.out_degrees, g.m, indices
            np.multiply(residual, damping, out=contrib_buf)
            np.divide(contrib_buf, degrees, out=contrib_buf)
            contrib = contrib_buf
        else:
            degs = indptr1[f]
            degs = degs - indptr[f]
            ne = int(degs.sum())
            dst_lanes = None
            contrib = residual[f]
            np.multiply(contrib, damping, out=contrib)
            np.divide(contrib, degrees[f], out=contrib)
        if machine is not None:
            if dst_lanes is None and ne:
                _, eids = _expand(ws, indptr, f, degs, ne)
                dst_lanes = indices[eids]
            with machine.fused(f"advance_push[{lb.name}]", it):
                _charge_advance(P, degs, lb, "advance_push", ne, it)
                if ne:
                    atomics._charge(machine, "atomic_add", dst_lanes)
            machine.counters.record_frontier(0)
        if ne == 0:
            res = np.zeros(n)
        elif T is not None and ne >= spmv_min:
            # 0/1 transpose SpMV: per-cell accumulation in stored (CSC =
            # ascending edge id) order, identical to the lane-order add
            if full:
                res = T @ contrib
            else:
                spmv_buf.fill(0.0)
                spmv_buf[f] = contrib
                res = T @ spmv_buf
        else:
            if dst_lanes is None:
                _, eids = _expand(ws, indptr, f, degs, ne)
                dst_lanes = indices[eids]
            vals = contrib[g.edge_sources] if full else contrib.repeat(degs)
            res = np.bincount(dst_lanes, weights=vals, minlength=n)
        np.add(rank, res, out=rank)
        np.copyto(residual, res)
        keep = res > tol
        nk = int(np.count_nonzero(keep))
        if nk == n:
            f = iota_n
        elif nk == 0:
            f = EMPTY
        else:
            f = iota_n[keep]
        _charge_filter(machine, it, n, nk)
        it += 1
        en.iteration = it
        if machine is not None:
            machine.counters.iterations = it
    return Frontier(f)


# --------------------------------------------------------------------- CC

def _precheck_cc(en) -> Optional[str]:
    if getattr(en, "alternate", False):
        return "alternating hook schedule: odd/even functor flip not specialized"
    return None


def _run_cc(en, frontier: Frontier) -> Frontier:
    P = en.problem
    g = P.graph
    machine = P.machine
    cid = P.component_ids
    edge_sources, indices = g.edge_sources, g.indices
    n = g.n
    f = frontier.items
    it = 0
    maxit = en.max_iterations
    while len(f) and (maxit is None or it < maxit):
        # hook: cond (endpoints in different components) + atomic_min
        srcs = edge_sources[f]
        dsts = indices[f]
        cs = cid[srcs]
        cd = cid[dsts]
        mask = cs != cd
        if mask.all():
            surv, hs, hd = f, cs, cd
        else:
            surv = f[mask]
            hs = cs[mask]
            hd = cd[mask]
        if len(surv):
            hi = np.maximum(hs, hd)
            lo = np.minimum(hs, hd)
            np.minimum.at(cid, hi, lo)
        else:
            hi = None
        _charge_filter(machine, it, len(f), len(surv),
                       atomic=None if hi is None else ("atomic_min", hi))
        f = surv
        # pointer jumping to a fixpoint (integer ops: trivially exact)
        vf = np.arange(n, dtype=np.int64)
        while len(vf):
            parent = cid[vf]
            grand = cid[parent]
            cid[vf] = grand
            keep = grand != parent
            nvf = vf[keep]
            _charge_filter(machine, it, len(vf), len(nvf))
            vf = nvf
        it += 1
        en.iteration = it
        if machine is not None:
            machine.counters.iterations = it
    return Frontier(f, FrontierKind.EDGE)


# --------------------------------------------------------------------- BC

def _precheck_bc(en) -> Optional[str]:
    return None


def _run_bc(en, frontier: Frontier) -> Frontier:
    P = en.problem
    g = P.graph
    machine = P.machine
    ws = P.workspace
    lb = en.lb
    indptr, indices = g.indptr, g.indices
    indptr1 = indptr[1:]
    labels, sigma = P.labels, P.sigma
    n = g.n
    f = frontier.items
    it = 0
    maxit = en.max_iterations
    while len(f) and (maxit is None or it < maxit):
        depth = it + 1
        nf = len(f)
        degs = indptr1[f]
        degs = degs - indptr[f]
        ne = int(degs.sum())
        out = EMPTY
        if ne == 0:
            if machine is not None:
                with machine.fused(f"advance_push[{lb.name}]", it):
                    _charge_advance(P, degs, lb, "advance_push", 0, it)
        else:
            _, eids = _expand(ws, indptr, f, degs, ne)
            dsts = indices[eids]
            keep = labels[dsts] < 0
            if keep.all():
                kd = dsts
                kvals = sigma[f].repeat(degs)
            else:
                kd = dsts[keep]
                kvals = sigma[f].repeat(degs)[keep]
            if machine is not None:
                with machine.fused(f"advance_push[{lb.name}]", it):
                    _charge_advance(P, degs, lb, "advance_push", ne, it)
                    atomics._charge(machine, "atomic_add", kd)
                    atomics._charge(machine, "atomic_max", kd)
            if len(kd):
                if len(kd) < n // 8:
                    np.add.at(sigma, kd, kvals)
                else:
                    # sigma cells at this depth start at +0.0, so the
                    # bincount partial sums associate identically
                    sigma += np.bincount(kd, weights=kvals, minlength=n)
                # every admitted cell holds -1: the constant-depth
                # atomic_max is a plain scatter
                labels[kd] = depth
            out = kd
        if machine is not None:
            machine.counters.record_frontier(len(out))
        out = unique_by_sort(out, machine)
        if len(out):
            en.level_frontiers.append(Frontier(out))
        f = out
        it += 1
        en.iteration = it
        if machine is not None:
            machine.counters.iterations = it
    return Frontier(f)


# ------------------------------------------------------------- dispatcher

#: primitive name -> (precheck, runner)
RUNNERS: Dict[str, Tuple[Callable, Callable]] = {
    "bfs": (_precheck_bfs, _run_bfs),
    "sssp": (_precheck_sssp, _run_sssp),
    "pagerank": (_precheck_pagerank, _run_pagerank),
    "ppr": (_precheck_pagerank, _run_pagerank),
    "cc": (_precheck_cc, _run_cc),
    "bc": (_precheck_bc, _run_bc),
}


def _count_dispatch(primitive: str, engine_label: str) -> None:
    ob = current_observer()
    if ob is not None:
        ob.metrics.counter("repro_fused_dispatch_total",
                           primitive=primitive, engine=engine_label).inc()


def try_fused(enactor, frontier: Frontier) -> Optional[Frontier]:
    """Run ``enactor``'s loop through its fused plan, or return None.

    None means "take the library path": either the engine is not in
    fused mode (silent), or it is but this run cannot be specialized —
    in which case the (primitive, reason) pair is recorded on the
    fallback log and the dispatch counter gets an ``engine="pooled"``
    sample, per the fallback contract.
    """
    if engine_mode() != "fused":
        return None
    name = enactor.primitive_name
    entry = RUNNERS.get(name)
    reason: Optional[str] = None
    plan = None
    if entry is None:
        reason = f"no fused runner for primitive '{name}'"
    elif not enactor.workspace.pooled:
        reason = "fused plans require the pooled workspace"
    elif enactor.sanitize or current_sanitizer() is not None:
        reason = "sanitizer active: library operators carry the kernel scopes"
    elif enactor.injector is not None or enactor.checkpoints is not None:
        reason = "resilience hooks active: fault windows exist only in the library loop"
    else:
        from ..analysis.plan import plan_for
        plan = plan_for(name, enactor.problem.graph)
        if not plan.fusable:
            reason = "; ".join(plan.blocked) or "analysis verdict: not fusable"
        else:
            reason = entry[0](enactor)
    if reason is not None:
        record_fallback(name, reason)
        _count_dispatch(name, "pooled")
        return None
    enactor._fused_plan = plan
    _count_dispatch(name, "fused")
    machine = enactor.problem.machine
    sp = obs_span(f"fused:{name}", CAT_FUSED, machine, primitive=name,
                  fused_ops=",".join(s.name for s in plan.stages),
                  stage_count=len(plan.stages))
    with sp:
        out = entry[1](enactor, frontier)
        sp.set(iterations=enactor.iteration)
    return out
