"""Output checks, run outside the timed region.

Analytics results are compared with the serial oracles in
``repro.reference``; personalized PageRank, which has none there, is
compared with a plain power series written here.  Serving replays are
checked for request accounting, for stale cache hits, and by comparing a
sample of replies (and of background cache repairs) bitwise with direct
``bfs(g, s, idempotent=False, direction="push")`` runs.

Every check returns a list of failure strings; an empty list means the
outputs are correct.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro import reference
from repro.graph.csr import Csr

#: L1 distance allowed between the library's tolerance-culled PageRank
#: and the truncated power series.  Both leave out at most ~0.17 of the
#: unit mass on these graphs (culled residuals, and the 0.85^11 tail of a
#: 10-term series); a zeroed, shuffled or rescaled vector is off by far
#: more.
PAGERANK_L1_TOL = 0.25
PAGERANK_TERMS = 10
DAMPING = 0.85


def _canonical_components(labels: np.ndarray) -> np.ndarray:
    """Relabel every component by its smallest vertex id."""
    labels = np.asarray(labels, dtype=np.int64)
    n = len(labels)
    first = np.full(int(labels.max()) + 1 if n else 0, n, dtype=np.int64)
    np.minimum.at(first, labels, np.arange(n, dtype=np.int64))
    return first[labels]


def ppr_series(g: Csr, seeds, terms: int = 300,
               damping: float = DAMPING) -> np.ndarray:
    """Personalized PageRank as the power series the library telescopes:
    ``(1-d)/|S| * sum_t (d M)^t e_S``, dangling mass retained."""
    deg = np.maximum(g.out_degrees, 1).astype(np.float64)
    x = np.zeros(g.n, dtype=np.float64)
    x[list(seeds)] = (1.0 - damping) / len(seeds)
    total = x.copy()
    for _ in range(terms):
        x = np.bincount(g.indices,
                        weights=np.repeat(damping * x / deg, g.out_degrees),
                        minlength=g.n)
        total += x
    return total


def _rank_failure(name: str, got: np.ndarray, want: np.ndarray) -> List[str]:
    if not np.all(np.isfinite(got)) or np.any(got < 0):
        return [f"{name}: non-finite or negative rank"]
    dist = float(np.abs(got - want).sum())
    if dist > PAGERANK_L1_TOL:
        return [f"{name}: L1 distance {dist:.4f} from the oracle "
                f"exceeds {PAGERANK_L1_TOL}"]
    return []


def check_suite(inp, results: Dict[str, object]) -> List[str]:
    """Compare one suite pass's results with the oracles."""
    g, src = inp.graph, inp.src
    fails: List[str] = []

    labels = results["bfs"].arrays["labels"]
    if not np.array_equal(labels, reference.bfs_depths(g, src)):
        fails.append("bfs: depths differ from reference.bfs_depths")

    dist = np.asarray(results["sssp"].arrays["labels"], dtype=np.float64)
    if not np.array_equal(dist, np.array(reference.dijkstra(inp.weighted,
                                                            src))):
        fails.append("sssp: distances differ from reference.dijkstra")

    fails += _rank_failure(
        "pagerank", results["pagerank"].arrays["rank"],
        np.array(reference.pagerank_power(g, DAMPING, PAGERANK_TERMS)))
    fails += _rank_failure("ppr", results["ppr"].arrays["rank"],
                           ppr_series(g, inp.ppr_seeds))

    comp = results["cc"].arrays["component_ids"]
    want = np.array(reference.connected_components(g), dtype=np.int64)
    if not np.array_equal(_canonical_components(comp),
                          _canonical_components(want)):
        fails.append("cc: components differ from "
                     "reference.connected_components")

    sigma, delta = reference.brandes_single_source(g, src)
    bc = results["bc"]
    if not (np.allclose(bc.arrays["sigma"], sigma, rtol=1e-9, atol=0)
            and np.allclose(bc.arrays["bc_values"], delta, rtol=1e-9,
                            atol=1e-9)):
        fails.append("bc: scores differ from "
                     "reference.brandes_single_source")
    return fails


def check_report(report) -> List[str]:
    """Request accounting and freshness of one replay report."""
    fails = []
    total = (report.served + report.shed + report.deadline_drops
             + report.failed)
    if total != report.requests:
        fails.append(f"serve: served+shed+drops+failed = {total} != "
                     f"{report.requests} requests")
    if report.stale_hits:
        fails.append(f"serve: {report.stale_hits} stale cache hits")
    return fails


def direct_bfs(csr: Csr, src: int) -> Dict[str, np.ndarray]:
    from repro.primitives import bfs

    res = bfs(csr, src, idempotent=False, direction="push")
    return {"labels": res.arrays["labels"], "preds": res.arrays["preds"]}


def _preds_valid(csr: Csr, labels: np.ndarray, preds: np.ndarray,
                 src: int) -> bool:
    """Every reached vertex but the source has a predecessor one level up
    along an edge of ``csr``."""
    v = np.flatnonzero((labels > 0) & (np.arange(len(labels)) != src))
    p = np.asarray(preds)[v]
    if np.any(p < 0) or np.any(labels[p] != labels[v] - 1):
        return False
    n = np.int64(csr.n)
    edges = csr.edge_sources * n + csr.indices
    return bool(np.all(np.isin(p * n + v, edges)))


def compare_bfs(what: str, got: Dict[str, np.ndarray], csr: Csr,
                src: int) -> List[str]:
    """A reply must equal a direct run bitwise.  A repaired entry must
    have bitwise-equal depths; its predecessors may break ties
    differently (the contract of ``delta_bfs``) but must be valid."""
    want = direct_bfs(csr, src)
    keys = ("labels", "preds") if what == "reply" else ("labels",)
    for key in keys:
        a, b = np.asarray(got[key]), want[key]
        if a.dtype != b.dtype or not np.array_equal(a, b):
            return [f"{what}: bfs src={src} {key} differ from a direct run"]
    if what != "reply" and not _preds_valid(csr, want["labels"],
                                            got["preds"], src):
        return [f"{what}: bfs src={src} has an invalid predecessor"]
    return []
