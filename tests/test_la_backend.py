"""The linear-algebra backend: semiring products against dense numpy
oracles, LA-vs-pooled equivalence through the shared differential
harness (push/pull forcing, edge cases), the fallback contract, the
SpGEMM triangle workload, and LA observability.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from engines import run_all_engines
from repro.core.engine import clear_fallbacks, engine, last_fallback
from repro.graph import from_edges
from repro.graph.build import with_random_weights
from repro.la import (BOOL_OR_AND, PLUS_TIMES, RUNNERS, SEMIRING_OF,
                      SEMIRINGS, spmspv, spmv)
from repro.simt import Machine


@st.composite
def edge_lists(draw, max_n=24, max_m=90):
    n = draw(st.integers(min_value=1, max_value=max_n))
    m = draw(st.integers(min_value=0, max_value=max_m))
    edges = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
        min_size=m, max_size=m))
    return n, edges


def _graph(n, edges):
    return from_edges(edges, n=n, undirected=True)


# -- semiring products vs dense oracles ---------------------------------------


def _edge_iter(g):
    src = g.edge_sources
    for e in range(g.m):
        yield int(src[e]), int(g.indices[e]), e


@given(edge_lists(max_n=16, max_m=60), st.data())
@settings(max_examples=25, deadline=None)
def test_spmspv_bool_with_complement_mask(data, draw):
    n, edges = data
    g = _graph(n, edges)
    x_ids = np.array(sorted(draw.draw(
        st.sets(st.integers(0, n - 1), min_size=1, max_size=n))),
        dtype=np.int64)
    mask = np.array(draw.draw(st.lists(
        st.booleans(), min_size=n, max_size=n)))
    ids, vals = spmspv(g, x_ids, np.ones(len(x_ids), dtype=bool),
                       BOOL_OR_AND, mask=mask, mask_complement=True)
    fs = set(x_ids.tolist())
    expect = sorted({v for u, v, _ in _edge_iter(g)
                     if u in fs and not mask[v]})
    assert ids.tolist() == expect
    assert vals.dtype == np.bool_ and bool(vals.all())


@given(edge_lists(max_n=16, max_m=60), st.data())
@settings(max_examples=25, deadline=None)
def test_spmv_bool_pull_matches_push(data, draw):
    """Pull (masked SpMV over the CSC) and push (SpMSpV) agree — the
    direction-optimization equivalence the BFS runner relies on."""
    n, edges = data
    g = _graph(n, edges)
    x_ids = np.array(sorted(draw.draw(
        st.sets(st.integers(0, n - 1), min_size=1, max_size=n))),
        dtype=np.int64)
    mask = np.array(draw.draw(st.lists(
        st.booleans(), min_size=n, max_size=n)))
    dense_x = np.zeros(n, dtype=bool)
    dense_x[x_ids] = True
    y, wit = spmv(g, dense_x, BOOL_OR_AND, mask=mask,
                  mask_complement=True, witness=True)
    ids, _, wit_push = spmspv(g, x_ids, np.ones(len(x_ids), dtype=bool),
                              BOOL_OR_AND, mask=mask, mask_complement=True,
                              witness=True)
    assert np.flatnonzero(y).tolist() == ids.tolist()
    assert wit[ids].tolist() == wit_push.tolist()


@given(edge_lists(max_n=14, max_m=50), st.data())
@settings(max_examples=20, deadline=None)
def test_spmspv_plus_times_matches_dense_oracle(data, draw):
    n, edges = data
    g = _graph(n, edges)
    x_vals = np.array(draw.draw(st.lists(
        st.floats(0, 10, allow_nan=False), min_size=n, max_size=n)))
    ids, vals = spmspv(g, np.arange(n, dtype=np.int64), x_vals, PLUS_TIMES)
    y = np.zeros(n)
    for u, v, _ in _edge_iter(g):
        y[v] += x_vals[u]
    assert ids.tolist() == sorted(np.flatnonzero(
        g.csc.degrees_of(np.arange(n)) > 0).tolist())
    assert np.allclose(vals, y[ids], rtol=1e-12, atol=0)


def test_spmspv_empty_frontier_and_witness_rejection():
    g = _graph(3, [(0, 1)])
    ids, vals = spmspv(g, np.zeros(0, dtype=np.int64), np.zeros(0),
                       PLUS_TIMES)
    assert len(ids) == 0 and len(vals) == 0
    with pytest.raises(ValueError):
        spmspv(g, np.array([0]), np.array([1.0]), PLUS_TIMES, witness=True)


def test_semiring_registry_covers_primitives():
    assert set(SEMIRINGS) == {"bool_or_and", "plus_times"}
    assert set(RUNNERS) == {"bfs", "pagerank", "ppr"}
    assert set(SEMIRING_OF) == set(RUNNERS) | {"triangles"}
    assert SEMIRING_OF["bfs"].name == "bool_or_and"
    assert SEMIRING_OF["pagerank"].name == "plus_times"
    assert SEMIRING_OF["ppr"].name == "plus_times"
    assert SEMIRING_OF["triangles"].name == "plus_times"


# -- LA vs the operator engines (shared harness) ------------------------------


@given(edge_lists(), st.integers(0, 23),
       st.sampled_from(["auto", "push", "pull"]), st.booleans())
@settings(max_examples=25, deadline=None)
def test_bfs_la_identity_with_direction_forcing(data, src, direction,
                                                idempotent):
    n, edges = data
    run_all_engines("bfs", _graph(n, edges),
                    engines=("pooled", "la"), src=src % n,
                    direction=direction, idempotent=idempotent,
                    record_preds=True)


@given(edge_lists(), st.integers(0, 23), st.integers(0, 2**32))
@settings(max_examples=25, deadline=None)
def test_sssp_la_identity(data, src, wseed):
    n, edges = data
    g = with_random_weights(_graph(n, edges), seed=wseed)
    run_all_engines("sssp", g, engines=("pooled", "la"), src=src % n)


@given(edge_lists(), st.integers(1, 40))
@settings(max_examples=20, deadline=None)
def test_pagerank_la_identity(data, iterations):
    n, edges = data
    run_all_engines("pagerank", _graph(n, edges),
                    engines=("pooled", "la"), max_iterations=iterations)


@given(edge_lists(), st.lists(st.integers(0, 23), min_size=1, max_size=4))
@settings(max_examples=20, deadline=None)
def test_ppr_la_identity(data, seeds):
    n, edges = data
    run_all_engines("ppr", _graph(n, edges), engines=("pooled", "la"),
                    seeds=[s % n for s in seeds], max_iterations=40)


@given(edge_lists())
@settings(max_examples=20, deadline=None)
def test_cc_la_identity(data):
    n, edges = data
    run_all_engines("cc", _graph(n, edges), engines=("pooled", "la"))


def test_single_vertex_and_empty_frontier_edges():
    g = _graph(1, [])
    run_all_engines("bfs", g, engines=("pooled", "la"), src=0)
    run_all_engines("sssp", with_random_weights(g, seed=0),
                    engines=("pooled", "la"), src=0)
    run_all_engines("cc", g, engines=("pooled", "la"))
    run_all_engines("pagerank", g, engines=("pooled", "la"),
                    max_iterations=10)
    # isolated source: the very first advance sees an empty product
    iso = _graph(4, [(1, 2)])
    run_all_engines("bfs", iso, engines=("pooled", "la"), src=0)
    run_all_engines("ppr", iso, engines=("pooled", "la"), seeds=[0, 3],
                    max_iterations=10)


# -- fallback contract --------------------------------------------------------


def _line_graph():
    return from_edges([(i, i + 1) for i in range(16)], n=17,
                      undirected=True)


def test_unlowered_primitive_falls_back_with_reason():
    from repro.primitives import cc, mis, sssp

    g = _line_graph()
    wg = with_random_weights(g, seed=3)
    runs = {
        "mis": lambda m: mis(g, machine=m).set_size > 0,
        "cc": lambda m: cc(g, machine=m).num_components == 1,
        "sssp": lambda m: float(sssp(wg, 0, machine=m).labels[16]) > 0,
    }
    for prim, run in runs.items():
        clear_fallbacks()
        with engine("la"):
            assert run(Machine())
        assert last_fallback() == (
            prim, f"no linear-algebra lowering for primitive '{prim}'")


def test_sanitizer_disables_la():
    from repro.analysis import sanitize
    from repro.primitives import bfs

    g = _line_graph()
    clear_fallbacks()
    with engine("la"), sanitize(strict=True):
        bfs(g, 0, machine=Machine())
    prim, reason = last_fallback()
    assert prim == "bfs"
    assert "sanitiz" in reason


def test_resilience_hooks_disable_la():
    from repro.primitives import bfs

    g = _line_graph()
    clear_fallbacks()
    with engine("la"):
        r = bfs(g, 0, machine=Machine(), checkpoint_every=2)
    prim, reason = last_fallback()
    assert prim == "bfs"
    assert "resilience" in reason
    assert int(r.labels[16]) == 16


def test_la_engine_implies_pooling():
    from repro.core.workspace import Workspace

    with engine("la"):
        ws = Workspace()
        assert ws.take("x", 4).base is ws.take("x", 4).base


# -- SpGEMM triangle counting -------------------------------------------------


@given(edge_lists(max_n=18, max_m=70))
@settings(max_examples=25, deadline=None)
def test_triangles_spgemm_matches_operator_and_reference(data):
    pytest.importorskip("scipy")
    from repro import reference
    from repro.primitives import triangle_count

    n, edges = data
    # the SpGEMM parity contract covers simple graphs: dedup, no loops
    simple = sorted({(min(u, v), max(u, v)) for u, v in edges if u != v})
    g = from_edges(simple, n=n, undirected=True)
    rp = triangle_count(g, machine=Machine())
    clear_fallbacks()
    with engine("la"):
        rl = triangle_count(g, machine=Machine())
    assert last_fallback() is None
    assert rl.total == rp.total == reference.triangle_count(g)
    assert rl.per_vertex.dtype == rp.per_vertex.dtype
    assert np.array_equal(rl.per_vertex, rp.per_vertex)
    assert rl.total * 3 == int(rl.per_vertex.sum())


def test_triangles_la_charges_spgemm_kernels():
    pytest.importorskip("scipy")
    from repro.primitives import triangle_count

    g = from_edges([(0, 1), (1, 2), (0, 2), (2, 3)], n=4, undirected=True)
    m = Machine()
    with engine("la"):
        r = triangle_count(g, machine=m)
    assert r.total == 1
    names = {k.name for k in m.counters.kernels}
    assert "la_spgemm[plus_times]" in names


# -- observability ------------------------------------------------------------


def test_la_span_and_dispatch_counter():
    from repro.obs import observe
    from repro.obs.spans import CAT_LA
    from repro.primitives import bfs, mis

    g = _line_graph()
    with observe() as ob, engine("la"):
        bfs(g, 0, machine=Machine())
        mis(g, machine=Machine())  # falls back
    la_spans = [s for s in ob.tracer.spans if s.cat == CAT_LA]
    assert len(la_spans) == 1
    assert la_spans[0].args["primitive"] == "bfs"
    assert la_spans[0].args["semiring"] == "bool_or_and"
    assert la_spans[0].args["iterations"] >= 1
    counts = ob.metrics.as_dict()
    assert counts[
        'repro_la_dispatch_total{engine="la",primitive="bfs"}'] == 1.0
    assert counts[
        'repro_la_dispatch_total{engine="pooled",primitive="mis"}'] == 1.0


def test_la_kernels_are_semiring_products():
    from repro.primitives import bfs, pagerank

    g = _line_graph()
    with engine("la"):
        mb, mp = Machine(), Machine()
        bfs(g, 0, machine=mb)
        pagerank(g, machine=mp, max_iterations=5)
    bfs_names = {k.name for k in mb.counters.kernels}
    assert any(n.startswith("la_spm") for n in bfs_names)
    pr_names = {k.name for k in mp.counters.kernels}
    assert "la_mask_commit" in pr_names
    assert any(n.endswith("[plus_times]") for n in pr_names)
