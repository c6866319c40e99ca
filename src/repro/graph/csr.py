"""Compressed sparse row (CSR) graph storage.

Gunrock's default representation (Section 3): a row-offsets array ``R``
(``indptr``, length ``n+1``) and a column-indices array ``C`` (``indices``,
length ``m``), with per-edge and per-vertex properties stored as separate
structure-of-arrays (SoA) columns so that simulated accesses coalesce.

The CSR object is immutable after construction; a reverse (CSC) view used
by pull-based traversal is built lazily and cached, along with the
edge-source expansion used by edge frontiers.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

# Topology is normalized to int64 at construction so the operator hot
# paths (advance/filter/pull expansion) index directly into it without
# paying an ``.astype(np.int64)`` copy per call.  ``tests/test_graph_csr``
# pins this invariant.
VERTEX_DT = np.int64
EDGE_DT = np.int64


class ArtifactCache:
    """Memoized derived structures of one :class:`Csr`.

    The per-graph companion of the per-problem
    :class:`~repro.core.workspace.Workspace`: degree arrays, iota ramps,
    and float64 weights that the operators and load balancers would
    otherwise recompute every call.  All cached arrays are marked
    read-only — they are shared across every problem on the graph.
    """

    __slots__ = ("_g", "_out_degrees", "_iota_n", "_iota_m", "_weights64")

    def __init__(self, g: "Csr"):
        self._g = g
        self._out_degrees: Optional[np.ndarray] = None
        self._iota_n: Optional[np.ndarray] = None
        self._iota_m: Optional[np.ndarray] = None
        self._weights64: Optional[np.ndarray] = None

    @staticmethod
    def _frozen(arr: np.ndarray) -> np.ndarray:
        arr.setflags(write=False)
        return arr

    @property
    def out_degrees(self) -> np.ndarray:
        """``np.diff(indptr)`` computed once (read-only)."""
        if self._out_degrees is None:
            self._out_degrees = self._frozen(np.diff(self._g.indptr))
        return self._out_degrees

    @property
    def degree_prefix(self) -> np.ndarray:
        """Exclusive prefix sum of out-degrees — which is ``indptr``
        itself; exposed under the load-balancer's name for it."""
        return self._g.indptr

    @property
    def iota_n(self) -> np.ndarray:
        """Read-only ``arange(n)`` — the all-vertices frontier ramp."""
        if self._iota_n is None:
            self._iota_n = self._frozen(np.arange(self._g.n, dtype=np.int64))
        return self._iota_n

    @property
    def iota_m(self) -> np.ndarray:
        """Read-only ``arange(m)`` — the all-edges lane ramp."""
        if self._iota_m is None:
            self._iota_m = self._frozen(np.arange(self._g.m, dtype=np.int64))
        return self._iota_m

    @property
    def weights64(self) -> np.ndarray:
        """Read-only float64 edge weights (ones when unweighted) —
        the cached counterpart of :meth:`Csr.weight_or_ones`."""
        if self._weights64 is None:
            self._weights64 = self._frozen(self._g.weight_or_ones())
        return self._weights64

    @property
    def edge_sources(self) -> np.ndarray:
        return self._g.edge_sources


class Csr:
    """An immutable directed graph in CSR form.

    Parameters
    ----------
    indptr:
        Row offsets, shape ``(n + 1,)``, non-decreasing, ``indptr[0] == 0``.
    indices:
        Neighbor (destination) vertex ids, shape ``(m,)``.
    edge_values:
        Optional per-edge weights aligned with ``indices``.
    n:
        Vertex count; inferred from ``indptr`` when omitted.
    """

    __slots__ = ("indptr", "indices", "edge_values", "n", "m",
                 "_csc", "_edge_sources", "_artifacts", "_fused_plans",
                 "vertex_props", "edge_props")

    def __init__(self, indptr: np.ndarray, indices: np.ndarray,
                 edge_values: Optional[np.ndarray] = None,
                 n: Optional[int] = None, validate: bool = True):
        self.indptr = np.ascontiguousarray(indptr, dtype=EDGE_DT)
        self.indices = np.ascontiguousarray(indices, dtype=VERTEX_DT)
        self.n = int(len(self.indptr) - 1 if n is None else n)
        self.m = int(len(self.indices))
        self.edge_values = None if edge_values is None else \
            np.ascontiguousarray(edge_values)
        #: named per-vertex SoA property columns
        self.vertex_props: Dict[str, np.ndarray] = {}
        #: named per-edge SoA property columns
        self.edge_props: Dict[str, np.ndarray] = {}
        self._csc: Optional["Csr"] = None
        self._edge_sources: Optional[np.ndarray] = None
        self._artifacts: Optional[ArtifactCache] = None
        #: per-primitive fused execution plans (repro.analysis.plan);
        #: cached here so plans die with the graph they were learned on
        self._fused_plans: Optional[dict] = None
        if validate:
            self.validate()

    # -- invariants ----------------------------------------------------------

    def validate(self) -> None:
        """Check CSR invariants (structure, finite weights); raise
        ``ValueError`` on breakage."""
        if len(self.indptr) != self.n + 1:
            raise ValueError(f"indptr length {len(self.indptr)} != n+1 = {self.n + 1}")
        if self.indptr[0] != 0:
            raise ValueError("indptr[0] must be 0")
        if int(self.indptr[-1]) != self.m:
            raise ValueError(f"indptr[-1] = {self.indptr[-1]} != m = {self.m}")
        if np.any(np.diff(self.indptr) < 0):
            raise ValueError("indptr must be non-decreasing")
        if self.m and (self.indices.min() < 0 or self.indices.max() >= self.n):
            raise ValueError("indices contain out-of-range vertex ids")
        if self.edge_values is not None and len(self.edge_values) != self.m:
            raise ValueError("edge_values length mismatch")
        self._check_finite_weights()

    def _check_finite_weights(self) -> None:
        """Raise ``ValueError`` naming the first non-finite edge weight."""
        if self.edge_values is not None and self.m:
            bad = np.flatnonzero(~np.isfinite(self.edge_values))
            if len(bad):
                e = int(bad[0])
                src = int(np.searchsorted(self.indptr, e, side="right")) - 1
                raise ValueError(
                    f"edge {e} ({src}->{int(self.indices[e])}) has non-finite "
                    f"weight {self.edge_values[e]}")

    # -- basic accessors -----------------------------------------------------

    @property
    def out_degrees(self) -> np.ndarray:
        """Out-degree of every vertex, shape ``(n,)`` (cached, read-only)."""
        return self.artifacts.out_degrees

    def degrees_of(self, vertices: np.ndarray) -> np.ndarray:
        """Out-degrees of a vertex id array (frontier degree lookup)."""
        v = np.asarray(vertices, dtype=np.int64)
        return self.indptr[v + 1] - self.indptr[v]

    def neighbors(self, v: int) -> np.ndarray:
        """Read-only view of vertex ``v``'s neighbor list."""
        return self.indices[self.indptr[v]:self.indptr[v + 1]]

    def edge_range(self, v: int) -> range:
        """Edge ids owned by vertex ``v``."""
        return range(int(self.indptr[v]), int(self.indptr[v + 1]))

    def weight_or_ones(self) -> np.ndarray:
        """Edge weights, defaulting to 1.0 for unweighted graphs."""
        if self.edge_values is None:
            return np.ones(self.m, dtype=np.float64)
        return np.asarray(self.edge_values, dtype=np.float64)

    # -- derived structures (cached) ------------------------------------------

    @property
    def artifacts(self) -> "ArtifactCache":
        """Memoized derived arrays (degrees, iota ramps, weights)."""
        if self._artifacts is None:
            self._artifacts = ArtifactCache(self)
        return self._artifacts

    @property
    def edge_sources(self) -> np.ndarray:
        """Source vertex of every edge id (expansion of indptr), cached."""
        if self._edge_sources is None:
            src = np.repeat(
                np.arange(self.n, dtype=VERTEX_DT), self.out_degrees
            )
            self._edge_sources = src
        return self._edge_sources

    @property
    def csc(self) -> "Csr":
        """The reverse graph (CSC of this one), used by pull traversal.

        ``csc.indices`` holds in-neighbors; ``csc.edge_props['orig_edge']``
        maps each reverse edge back to its forward edge id.
        """
        if self._csc is None:
            self._csc = self.reverse()
            self._csc._csc = self  # avoid rebuilding the round trip
        return self._csc

    def reverse(self) -> "Csr":
        """Build the transposed graph (counting sort by destination)."""
        counts = np.bincount(self.indices, minlength=self.n).astype(EDGE_DT)
        indptr = np.zeros(self.n + 1, dtype=EDGE_DT)
        np.cumsum(counts, out=indptr[1:])
        order = np.argsort(self.indices, kind="stable")
        indices = self.edge_sources[order]
        values = None if self.edge_values is None else self.edge_values[order]
        rev = Csr(indptr, indices, values, n=self.n, validate=False)
        rev.edge_props["orig_edge"] = order.astype(EDGE_DT)
        return rev

    @property
    def in_degrees(self) -> np.ndarray:
        return self.csc.out_degrees

    # -- transformations ------------------------------------------------------

    def with_edge_values(self, values: np.ndarray) -> "Csr":
        """Return a copy of this topology with new edge weights attached
        (the topology is trusted; the weights must be finite)."""
        if len(values) != self.m:
            raise ValueError("edge value array length mismatch")
        g = Csr(self.indptr, self.indices, np.asarray(values), n=self.n,
                validate=False)
        g._check_finite_weights()
        return g

    def share_topology_caches(self, src: "Csr") -> None:
        """Adopt ``src``'s topology-derived caches (degrees, iota ramps,
        edge sources, the CSC *structure*) into this graph.

        Used by the delta-CSR compaction path when a mutation batch was
        weight-only: the new snapshot shares ``indptr``/``indices`` with
        its base by construction, so every cache keyed on topology alone
        is still valid and re-deriving it (an O(m) argsort for the CSC)
        would be pure waste.  Weight-dependent caches (``weights64``, CSC
        edge values) are rebuilt from the new weights.
        """
        if src.indptr is not self.indptr or src.indices is not self.indices:
            raise ValueError("share_topology_caches requires identical "
                             "topology arrays (same objects)")
        if src._edge_sources is not None:
            self._edge_sources = src._edge_sources
        if src._artifacts is not None:
            mine = self.artifacts
            mine._out_degrees = src._artifacts._out_degrees
            mine._iota_n = src._artifacts._iota_n
            mine._iota_m = src._artifacts._iota_m
        if src._csc is not None and self._csc is None:
            old = src._csc
            order = old.edge_props["orig_edge"]
            vals = None if self.edge_values is None \
                else np.ascontiguousarray(self.edge_values)[order]
            csc = Csr(old.indptr, old.indices, vals, n=self.n,
                      validate=False)
            csc.edge_props["orig_edge"] = order
            csc._csc = self
            self._csc = csc

    # -- memory audit (Section 6: data size = alpha*|E| + beta*|V|) ----------

    def nbytes(self) -> int:
        """Bytes held by the topology arrays (not cached derived views)."""
        total = self.indptr.nbytes + self.indices.nbytes
        if self.edge_values is not None:
            total += self.edge_values.nbytes
        for arr in self.vertex_props.values():
            total += arr.nbytes
        for arr in self.edge_props.values():
            total += arr.nbytes
        return total

    # -- dunder ---------------------------------------------------------------

    def __repr__(self) -> str:
        w = "weighted" if self.edge_values is not None else "unweighted"
        return f"Csr(n={self.n}, m={self.m}, {w})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Csr):
            return NotImplemented
        same = (self.n == other.n and self.m == other.m
                and np.array_equal(self.indptr, other.indptr)
                and np.array_equal(self.indices, other.indices))
        if not same:
            return False
        if (self.edge_values is None) != (other.edge_values is None):
            return False
        if self.edge_values is not None:
            return bool(np.array_equal(self.edge_values, other.edge_values))
        return True

    def __hash__(self):  # pragma: no cover - identity hashing for caches
        return id(self)
