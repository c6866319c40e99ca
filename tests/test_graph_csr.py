"""CSR/COO container tests: invariants, conversions, derived views."""

import numpy as np
import pytest

from repro.graph import Coo, Csr, csr_to_coo, from_edges
from repro.graph.build import with_random_weights


def test_from_edges_basic():
    g = from_edges([(0, 1), (0, 2), (1, 2)], n=3)
    assert g.n == 3
    assert g.m == 3
    assert list(g.neighbors(0)) == [1, 2]
    assert list(g.neighbors(1)) == [2]
    assert list(g.neighbors(2)) == []


def test_from_edges_infers_n():
    g = from_edges([(0, 5)])
    assert g.n == 6


def test_from_edges_empty():
    g = from_edges([], n=4)
    assert g.n == 4
    assert g.m == 0
    assert g.out_degrees.tolist() == [0, 0, 0, 0]


def test_from_edges_undirected_symmetrizes():
    g = from_edges([(0, 1)], n=2, undirected=True)
    assert g.m == 2
    assert list(g.neighbors(1)) == [0]


def test_from_edges_rejects_bad_shape():
    with pytest.raises(ValueError):
        from_edges(np.zeros((3, 3)))


def test_out_degrees(tiny_graph):
    deg = tiny_graph.out_degrees
    assert deg.sum() == tiny_graph.m
    assert deg[5] == 0  # isolated vertex
    assert deg[1] == 3  # neighbors 0, 2, 4


def test_degrees_of_matches_out_degrees(kron_graph):
    v = np.arange(kron_graph.n)
    assert np.array_equal(kron_graph.degrees_of(v), kron_graph.out_degrees)


def test_validate_rejects_bad_indptr():
    with pytest.raises(ValueError):
        Csr(np.array([0, 2, 1]), np.array([0, 1], dtype=np.int32))


def test_validate_rejects_indptr_head():
    with pytest.raises(ValueError):
        Csr(np.array([1, 2]), np.array([0], dtype=np.int32))


def test_validate_rejects_out_of_range_indices():
    with pytest.raises(ValueError):
        Csr(np.array([0, 1]), np.array([5], dtype=np.int32))


def test_validate_rejects_mismatched_tail():
    with pytest.raises(ValueError):
        Csr(np.array([0, 3]), np.array([0], dtype=np.int32))


def test_validate_rejects_weight_length():
    with pytest.raises(ValueError):
        Csr(np.array([0, 1]), np.array([0], dtype=np.int32),
            edge_values=np.array([1.0, 2.0]))


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_validate_rejects_non_finite_weights(bad):
    # sssp on this graph used to spin forever in the near/far pile
    with pytest.raises(ValueError, match=r"edge 2 \(1->2\) has non-finite"):
        from_edges([(0, 1), (1, 2), (0, 2)], n=3, weights=[1, bad, 1])


def test_edge_sources(tiny_graph):
    src = tiny_graph.edge_sources
    assert len(src) == tiny_graph.m
    for v in range(tiny_graph.n):
        lo, hi = tiny_graph.indptr[v], tiny_graph.indptr[v + 1]
        assert np.all(src[lo:hi] == v)


def test_reverse_roundtrip(kron_graph):
    rev = kron_graph.reverse()
    back = rev.reverse()
    assert back == kron_graph


def test_reverse_preserves_edge_count(kron_graph):
    assert kron_graph.reverse().m == kron_graph.m


def test_reverse_orig_edge_mapping(tiny_graph):
    rev = tiny_graph.reverse()
    orig = rev.edge_props["orig_edge"]
    fwd_src = tiny_graph.edge_sources
    for rid in range(rev.m):
        # reverse edge rid is (u -> v); its original edge is (v -> u)
        u = rev.edge_sources[rid]
        v = rev.indices[rid]
        oid = orig[rid]
        assert fwd_src[oid] == v
        assert tiny_graph.indices[oid] == u


def test_csc_cached_and_symmetric_on_undirected(tiny_graph):
    csc = tiny_graph.csc
    assert csc is tiny_graph.csc  # cached
    # symmetrized graph: in-degrees equal out-degrees
    assert np.array_equal(tiny_graph.in_degrees, tiny_graph.out_degrees)


def test_weight_or_ones_default(tiny_graph):
    w = tiny_graph.weight_or_ones()
    assert np.all(w == 1.0)
    assert len(w) == tiny_graph.m


def test_with_edge_values(tiny_graph):
    vals = np.arange(tiny_graph.m, dtype=np.float64)
    g2 = tiny_graph.with_edge_values(vals)
    assert np.array_equal(g2.edge_values, vals)
    assert g2.m == tiny_graph.m
    with pytest.raises(ValueError):
        tiny_graph.with_edge_values(np.zeros(3))


def test_random_weights_symmetric(kron_graph):
    gw = with_random_weights(kron_graph, seed=9)
    # the weight of (u, v) equals the weight of (v, u)
    src = gw.edge_sources
    lookup = {}
    for i in range(gw.m):
        lookup[(int(src[i]), int(gw.indices[i]))] = float(gw.edge_values[i])
    for (u, v), w in list(lookup.items())[:500]:
        assert lookup[(v, u)] == w


def test_random_weights_range(kron_graph):
    gw = with_random_weights(kron_graph, low=1, high=64, seed=9)
    assert gw.edge_values.min() >= 1
    assert gw.edge_values.max() <= 64


def test_nbytes_counts_topology(tiny_graph):
    base = tiny_graph.nbytes()
    assert base == tiny_graph.indptr.nbytes + tiny_graph.indices.nbytes


# -- COO ------------------------------------------------------------------------


def test_coo_roundtrip(kron_graph):
    coo = csr_to_coo(kron_graph)
    back = coo.to_csr()
    assert back == kron_graph


def test_coo_rejects_length_mismatch():
    with pytest.raises(ValueError):
        Coo(np.array([0]), np.array([1, 2]), 3)


def test_coo_rejects_out_of_range():
    with pytest.raises(ValueError):
        Coo(np.array([0]), np.array([5]), 3)


def test_coo_without_self_loops():
    coo = Coo(np.array([0, 1, 2]), np.array([0, 2, 2]), 3)
    clean = coo.without_self_loops()
    assert clean.m == 1
    assert clean.src.tolist() == [1]


def test_coo_deduplicated_keeps_first_values():
    coo = Coo(np.array([0, 0, 1]), np.array([1, 1, 2]), 3,
              values=np.array([10.0, 20.0, 30.0]))
    d = coo.deduplicated()
    assert d.m == 2
    assert d.values.tolist() == [10.0, 30.0]


def test_coo_symmetrized():
    coo = Coo(np.array([0]), np.array([1]), 2).symmetrized()
    assert coo.m == 2
    pairs = set(zip(coo.src.tolist(), coo.dst.tolist()))
    assert pairs == {(0, 1), (1, 0)}


def test_to_csr_sorted_neighbors():
    coo = Coo(np.array([0, 0, 0]), np.array([3, 1, 2]), 4)
    g = coo.to_csr()
    assert list(g.neighbors(0)) == [1, 2, 3]


# -- topology dtype invariant + artifact cache -------------------------------------------


def test_topology_int64_at_construction():
    """Topology arrays are int64 from the moment the Csr is built, so the
    operator layer never pays an ``astype`` widening copy per call."""
    g = from_edges([(0, 1), (0, 2), (1, 2)], n=3)
    assert g.indptr.dtype == np.int64
    assert g.indices.dtype == np.int64


def test_degrees_of_int64_no_copy_semantics():
    g = from_edges([(0, 1), (0, 2), (1, 2), (2, 0)], n=3)
    d = g.degrees_of(np.array([0, 1, 2], dtype=np.int64))
    assert d.dtype == np.int64
    assert d.tolist() == [2, 1, 1]


def test_derived_views_int64():
    g = from_edges([(0, 1), (1, 2)], n=3, undirected=True)
    assert g.csc.indices.dtype == np.int64
    assert g.csc.indptr.dtype == np.int64


def test_artifact_cache_memoizes_and_freezes():
    g = from_edges([(0, 1), (0, 2), (1, 2)], n=3)
    art = g.artifacts
    assert art.out_degrees is g.artifacts.out_degrees  # memoized
    assert not art.out_degrees.flags.writeable
    assert not art.iota_n.flags.writeable
    assert np.array_equal(art.iota_n, np.arange(3))
    assert np.array_equal(art.iota_m, np.arange(3))
    assert np.array_equal(art.out_degrees, [2, 1, 0])


def test_artifact_edge_sources_matches_expansion():
    g = from_edges([(0, 1), (0, 2), (1, 2)], n=3)
    art = g.artifacts
    assert np.array_equal(art.edge_sources,
                          np.repeat(np.arange(3), np.diff(g.indptr)))


def test_artifact_weights64_matches_weight_or_ones():
    g = with_random_weights(from_edges([(0, 1), (1, 2)], n=3), seed=7)
    art = g.artifacts
    assert art.weights64.dtype == np.float64
    assert not art.weights64.flags.writeable
    assert np.array_equal(art.weights64, g.weight_or_ones())
