"""Semirings and masked sparse matrix-vector products (DESIGN §16).

The GraphBLAS view of a frontier operation: the graph is a sparse
boolean (or weighted) matrix ``A``, the frontier is a vector ``x``, and
one advance step is ``y = xᵀ ⊗.⊕ A`` under a primitive-specific
semiring — boolean or-and for BFS reachability, plus-times for
PageRank/PPR mass propagation (and, as SpGEMM, triangle counting).  A *mask* restricts which
output slots may receive values; BFS's visited set enters as a
structural complement mask (``mask_complement=True``).

Two product shapes, matching Gunrock's push/pull duality:

* :func:`spmspv` — sparse input vector, push along out-edges of the
  vector's support (``advance`` over a sparse frontier).
* :func:`spmv` — dense input vector, pull along in-edges (CSC) of the
  masked output rows (``advance_pull`` over a dense frontier).

Both return deterministic results: output ids ascending, reductions
over a fixed lane order.  The plus-times monoid accumulates in *lane
order* (via ``np.bincount``) rather than ``np.add.reduceat`` — numpy's
reduceat uses pairwise summation, which is not bitwise-identical to the
operator engines' segmented-sum lowering; min/or monoids are exact in
any order and reduce with ``ufunc.reduceat``.

Every product is over the structural (unit-valued) matrix: the lowered
primitives fold per-edge values (PageRank's 1/degree) into the vector
before the product.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

INT64_MAX = np.iinfo(np.int64).max

_EMPTY_IDS = np.zeros(0, dtype=np.int64)


@dataclass(frozen=True)
class Semiring:
    """An (⊕, ⊗) pair over a value domain.

    ``add`` is the reduction monoid (a numpy ufunc) and ``identity`` its
    unit.  ⊗ never runs: every product is over the structural matrix,
    whose stored edges are all the ⊗-unit, so a lane carries its vector
    value unchanged.
    """

    name: str
    add: np.ufunc
    identity: object
    dtype: object


#: BFS reachability: reached = OR over frontier in-neighbors.
BOOL_OR_AND = Semiring("bool_or_and", np.logical_or, False, np.bool_)
#: PageRank/PPR mass propagation: residual inflow = Σ contributions.
PLUS_TIMES = Semiring("plus_times", np.add, 0.0, np.float64)

SEMIRINGS = {s.name: s for s in (BOOL_OR_AND, PLUS_TIMES)}


def _expand(graph, x_ids: np.ndarray):
    """Edge lanes of the rows in ``x_ids``: (dst, src, degs, ne)."""
    degs = graph.degrees_of(x_ids)
    ne = int(degs.sum())
    if ne == 0:
        return _EMPTY_IDS, _EMPTY_IDS, degs, 0
    offsets = np.concatenate(([0], np.cumsum(degs)))[:-1]
    starts = graph.indptr[x_ids].astype(np.int64)
    eids = np.repeat(starts - offsets, degs) + np.arange(ne, dtype=np.int64)
    dst = graph.indices[eids].astype(np.int64)
    src = np.repeat(x_ids, degs)
    return dst, src, degs, ne


def _empty(semiring: Semiring, witness: bool):
    vals = np.zeros(0, dtype=semiring.dtype)
    if witness:
        return _EMPTY_IDS, vals, _EMPTY_IDS
    return _EMPTY_IDS, vals


def spmspv(graph, x_ids, x_vals, semiring: Semiring, *,
           mask: Optional[np.ndarray] = None,
           mask_complement: bool = False,
           witness: bool = False) -> Tuple[np.ndarray, ...]:
    """Masked sparse-vector × sparse-matrix product (push).

    ``x_ids`` (ascending vertex ids) and ``x_vals`` form the sparse
    input vector; the product pushes each value along the out-edges of
    its vertex and ⊕-reduces per destination.  ``mask`` is a dense
    boolean vertex array selecting admissible destinations
    (``mask_complement=True`` selects where the mask is False — the
    structural-complement form used for visited sets).

    Returns ``(ids, vals)`` with ids strictly ascending — or, with
    ``witness=True``, ``(ids, vals, wit)`` where ``wit[i]`` is the
    smallest source id among lanes achieving ``vals[i]`` (the
    deterministic parent/predecessor witness).
    """
    x_ids = np.asarray(x_ids, dtype=np.int64)
    dst, src, degs, ne = _expand(graph, x_ids)
    if ne == 0:
        return _empty(semiring, witness)
    vals = np.repeat(np.asarray(x_vals, dtype=semiring.dtype), degs)
    if mask is not None:
        keep = ~mask[dst] if mask_complement else mask[dst]
        dst, src, vals = dst[keep], src[keep], vals[keep]
        if len(dst) == 0:
            return _empty(semiring, witness)
    if semiring.add is np.add:
        # lane-order accumulation: bitwise-identical to the operator
        # engines' segmented sums (reduceat would sum pairwise)
        ids = np.unique(dst)
        dense = np.bincount(dst, weights=vals, minlength=graph.n)
        out = dense[ids].astype(semiring.dtype)
        if witness:
            raise ValueError("witness is not defined for plus-times")
        return ids, out
    order = np.argsort(dst, kind="stable")
    sd, sv, ss = dst[order], vals[order], src[order]
    ids, starts = np.unique(sd, return_index=True)
    out = semiring.add.reduceat(sv, starts)
    if not witness:
        return ids, out
    counts = np.diff(np.append(starts, len(sd)))
    achieved = sv == np.repeat(out, counts)
    wit = np.minimum.reduceat(np.where(achieved, ss, INT64_MAX), starts)
    return ids, out, wit


def spmv(graph, x: np.ndarray, semiring: Semiring, *,
         mask: Optional[np.ndarray] = None,
         mask_complement: bool = False,
         witness: bool = False):
    """Masked dense-vector product over the structural matrix (pull).

    For each output row ``v`` admitted by the mask, gathers ``x`` over
    ``v``'s in-neighbors (the frozen CSC artifact) and ⊕-reduces; rows
    outside the mask — and rows with no in-edges — hold the ⊕-identity.
    Only the structural (unit-valued) matrix is supported: every pull
    lowering in this backend folds per-edge values into ``x`` first.

    Returns the dense result ``y`` — or, with ``witness=True``,
    ``(y, wit)`` where ``wit[v]`` is the smallest in-neighbor achieving
    ``y[v]`` (``-1`` for identity rows).
    """
    csc = graph.csc
    n = graph.n
    y = np.full(n, semiring.identity, dtype=semiring.dtype)
    if mask is None:
        rows = np.arange(n, dtype=np.int64)
    else:
        rows = np.flatnonzero(~mask if mask_complement else mask)
    wit = np.full(n, -1, dtype=np.int64) if witness else None
    if len(rows) == 0:
        return (y, wit) if witness else y
    degs = csc.degrees_of(rows)
    ne = int(degs.sum())
    if ne == 0:
        return (y, wit) if witness else y
    offsets = np.concatenate(([0], np.cumsum(degs)))[:-1]
    starts = csc.indptr[rows].astype(np.int64)
    eids = np.repeat(starts - offsets, degs) + np.arange(ne, dtype=np.int64)
    srcs = csc.indices[eids].astype(np.int64)
    rowlanes = np.repeat(rows, degs)
    lane_vals = np.asarray(x, dtype=semiring.dtype)[srcs]
    # rowlanes is grouped by ascending row already; np.unique recovers
    # the segment starts (zero-degree rows simply never appear)
    ids, seg_starts = np.unique(rowlanes, return_index=True)
    y[ids] = semiring.add.reduceat(lane_vals, seg_starts)
    if not witness:
        return y
    counts = np.diff(np.append(seg_starts, ne))
    achieved = lane_vals == np.repeat(y[ids], counts)
    wit[ids] = np.minimum.reduceat(
        np.where(achieved, srcs, INT64_MAX), seg_starts)
    return y, wit
