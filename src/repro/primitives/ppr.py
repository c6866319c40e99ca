"""Personalized PageRank (Section 5.5's third who-to-follow ranker).

Identical operator skeleton to :mod:`repro.primitives.pagerank`, but the
teleport vector concentrates on a seed set (the user's circle of trust)
instead of being uniform — the residual push starts at the seeds and
converges to the personalized stationary distribution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from ..core import Frontier, Functor, ProblemBase, EnactorBase
from ..core import atomics
from ..graph.csr import Csr
from ..simt.machine import Machine
from .result import PrimitiveResult, finish


class PprProblem(ProblemBase):
    def __init__(self, graph: Csr, seeds: np.ndarray,
                 machine: Optional[Machine] = None, damping: float = 0.85,
                 tolerance: Optional[float] = None):
        super().__init__(graph, machine)
        if not 0.0 < damping < 1.0:
            raise ValueError("damping must be in (0, 1)")
        if len(seeds) == 0:
            raise ValueError("personalized PageRank needs at least one seed")
        self.damping = damping
        n = max(1, graph.n)
        self.tolerance = (0.01 / n) if tolerance is None else tolerance
        self.add_vertex_array("rank", np.float64, 0.0)
        self.add_vertex_array("residual", np.float64, 0.0)
        self.add_vertex_array("residual_next", np.float64, 0.0)
        base = (1.0 - damping) / len(seeds)
        self.rank[seeds] = base
        self.residual[seeds] = base
        deg = self.add_vertex_array("degrees", np.float64, 0.0)
        np.maximum(graph.out_degrees, 1, out=deg)
        self.seeds = seeds


class _DistributeFunctor(Functor):
    def apply_edge(self, P, src, dst, eid):
        atomics.atomic_add(P.residual_next, dst,
                           P.damping * P.residual[src] / P.degrees[src],
                           P.machine)
        return np.zeros(len(src), dtype=bool)

    def apply_edge_segmented(self, P, f, degs, dst, eid):
        # as pagerank's: the scattered value depends on the source vertex
        # alone, so compute it once per frontier vertex and repeat it
        # across that vertex's edge lanes (same float ops, same values)
        contrib = P.residual[f]
        np.multiply(contrib, P.damping, out=contrib)
        np.divide(contrib, P.degrees[f], out=contrib)
        atomics.atomic_add(P.residual_next, dst, np.repeat(contrib, degs),
                           P.machine)
        return P.workspace.false_mask(len(dst))


class _CommitFunctor(Functor):
    def apply_vertex(self, P, v):
        # filter lanes are unique vertex ids: no two lanes share a cell
        res = P.residual_next[v]
        P.rank[v] += res  # lint: allow(raw-write)
        P.residual[v] = res  # lint: allow(raw-write)
        P.residual_next[v] = 0.0  # lint: allow(raw-write)
        return res > P.tolerance


class PprEnactor(EnactorBase):
    def _iterate(self, frontier: Frontier) -> Frontier:
        self.advance(frontier, _DistributeFunctor())
        return self.filter(Frontier.all_vertices(self.problem.graph.n),
                           _CommitFunctor())


@dataclass
class PprResult(PrimitiveResult):
    @property
    def rank(self) -> np.ndarray:
        return self.arrays["rank"]

    def top(self, k: int, exclude: Optional[np.ndarray] = None) -> np.ndarray:
        """Top-k vertices by personalized rank (optionally excluding the
        seed set — the 'already followed' filter in who-to-follow)."""
        rank = self.rank.copy()
        if exclude is not None:
            rank[np.asarray(exclude, dtype=np.int64)] = -np.inf
        order = np.argsort(-rank, kind="stable")
        return order[:k]


def ppr(graph: Csr, seeds: Union[int, Sequence[int]], *,
        machine: Optional[Machine] = None, damping: float = 0.85,
        tolerance: Optional[float] = None,
        max_iterations: int = 1000) -> PprResult:
    """Personalized PageRank from a seed vertex or seed set."""
    if isinstance(seeds, (int, np.integer)):
        seeds = [int(seeds)]
    seed_arr = np.asarray(sorted(set(int(s) for s in seeds)), dtype=np.int64)
    if len(seed_arr) and (seed_arr.min() < 0 or seed_arr.max() >= graph.n):
        raise ValueError("seed out of range")
    problem = PprProblem(graph, seed_arr, machine, damping=damping,
                         tolerance=tolerance)
    enactor = PprEnactor(problem, max_iterations=max_iterations)
    enactor.enact(Frontier(seed_arr))
    result = PprResult(arrays={"rank": problem.rank})
    return finish(result, machine, enactor)
