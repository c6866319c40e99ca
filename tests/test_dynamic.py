"""Streaming graph mutations: delta-CSR units + incremental-repair
equivalence properties.

The property tests are the contract the serving tier leans on: after any
random interleaving of inserts, deletes, reweights, and compactions,

* delta-BFS / delta-SSSP labels are **bitwise equal** to a from-scratch
  run on the compacted graph (predecessors are pinned by the support
  oracle instead — the from-scratch engine's preds are lane-order
  artifacts);
* incremental PageRank is as converged as a from-scratch run, certified
  by the residual-defect bound ``||p − p*||_∞ ≤ ||defect||₁ / (1 − d)``;
* everything holds identically under the unpooled and pooled engines.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.engine import engine
from repro.dynamic import (DeltaCsr, GraphUpdate, MutationBatch,
                           WEIGHT_INSENSITIVE, delta_bfs, delta_sssp,
                           incremental_pagerank, random_mutation_batch,
                           unaffected_primitives, unwrap_update)
from repro.dynamic.incremental import pagerank_defect, repair_payload
from repro.graph import from_edges, with_random_weights
from repro.primitives import bfs, pagerank, sssp
from repro.simt import Machine


def _chain(edges, n, weighted, wseed=3):
    g = from_edges(edges, n=n) if edges else from_edges([], n=n)
    if weighted:
        g = with_random_weights(g, seed=wseed)
    return g


# -- MutationBatch semantics --------------------------------------------------


def test_batch_classification():
    b = MutationBatch(deletes=[(0, 1)], inserts=[(2, 3)])
    assert b.structural and not b.weight_only and b.size == 2
    assert list(b.touched_sources) == [0, 2]
    assert list(b.touched_vertices) == [0, 1, 2, 3]
    w = MutationBatch(reweights=[(0, 1)], reweight_values=[2.0])
    assert w.weight_only and not w.structural
    assert unaffected_primitives(w) == WEIGHT_INSENSITIVE
    assert unaffected_primitives(b) == frozenset()


def test_batch_validation():
    with pytest.raises(ValueError):
        MutationBatch(reweights=[(0, 1)])  # missing values
    with pytest.raises(ValueError):
        MutationBatch(inserts=[(0, 1)], all_weights=np.ones(3))
    b = MutationBatch(inserts=[(0, 9)])
    with pytest.raises(ValueError):
        b.validate_for(4)


def test_unwrap_update(tiny_graph):
    assert unwrap_update(tiny_graph) == (tiny_graph, None)
    b = MutationBatch(inserts=[(0, 5)])
    up = GraphUpdate(tiny_graph, b)
    assert unwrap_update(up) == (tiny_graph, b)


# -- DeltaCsr mechanics -------------------------------------------------------


def test_delta_insert_delete_rows():
    g = _chain([(0, 1), (0, 2), (1, 2)], 4, False)
    d = DeltaCsr(g)
    d.apply(MutationBatch(deletes=[(0, 1)], inserts=[(2, 3), (0, 3)]))
    assert d.m == g.m + 1
    nbr, w = d.out_row(0)
    assert list(nbr) == [2, 3] and w is None
    assert list(d.out_row(2)[0]) == [3]
    assert sorted(d.in_row(3)[0]) == [0, 2]   # order is internal detail
    assert list(d.in_row(1)[0]) == []
    assert d.out_degrees[0] == 2 and d.out_degrees[2] == 1


def test_delta_errors_on_absent_edges():
    g = _chain([(0, 1)], 3, True)
    d = DeltaCsr(g)
    with pytest.raises(ValueError):
        d.apply(MutationBatch(deletes=[(1, 0)]))
    with pytest.raises(ValueError):
        d.apply(MutationBatch(reweights=[(0, 2)], reweight_values=[2.0]))
    with pytest.raises(ValueError):
        d.apply(MutationBatch(inserts=[(0, 2)]))  # weighted needs weights


def test_delta_snapshot_matches_rows_and_compacts():
    g = _chain([(0, 1), (1, 2), (2, 0), (2, 3)], 5, True)
    d = DeltaCsr(g)
    d.apply(MutationBatch(deletes=[(2, 0)], inserts=[(3, 4), (0, 4)],
                          insert_weights=[5.0, 7.0],
                          reweights=[(0, 1)], reweight_values=[9.0]))
    snap = d.snapshot()
    assert snap.m == d.m
    for v in range(d.n):
        nbr, w = d.out_row(v)
        lo, hi = snap.indptr[v], snap.indptr[v + 1]
        assert np.array_equal(snap.indices[lo:hi], nbr)
        if w is not None:
            assert np.array_equal(snap.artifacts.weights64[lo:hi], w)
    compacted = d.compact()
    assert compacted is snap
    assert d.base is snap and not d.pending and d.log_edges == 0
    assert d.compactions == 1
    # post-compaction reads come straight from the new base
    assert np.array_equal(d.out_row(0)[0], snap.indices[:snap.indptr[1]])


def test_weight_only_snapshot_shares_topology():
    g = _chain([(0, 1), (1, 2)], 3, True)
    d = DeltaCsr(g)
    d.apply(MutationBatch(reweights=[(0, 1)], reweight_values=[3.5]))
    snap = d.snapshot()
    assert snap.indptr is g.indptr and snap.indices is g.indices
    assert float(snap.artifacts.weights64[0]) == 3.5


def test_all_weights_rebases():
    g = _chain([(0, 1), (1, 2)], 3, True)
    d = DeltaCsr(g)
    vals = np.array([2.0, 4.0])
    d.apply(MutationBatch(all_weights=vals))
    snap = d.snapshot()
    assert np.array_equal(snap.artifacts.weights64, vals)
    assert snap.indices is g.indices
    assert d.base is snap and d.compactions == 1


def test_compaction_policy_is_log_threshold():
    g = _chain([(i, i + 1) for i in range(50)], 51, False)
    d = DeltaCsr(g, compact_threshold=0.05)
    d.apply(MutationBatch(deletes=[(0, 1)]))
    assert not d.should_compact()        # floor is 64 mutations
    d.log_edges = 64
    assert d.should_compact()


def test_snapshot_charges_simulated_clock():
    g = _chain([(0, 1), (1, 2), (2, 0)], 3, False)
    d = DeltaCsr(g)
    d.apply(MutationBatch(inserts=[(0, 2)]))
    machine = Machine()
    d.snapshot(machine=machine)
    assert machine.elapsed_ms() > 0
    assert machine.counters.bytes_moved > 0


def test_random_mutation_batch_deterministic(kron_graph):
    a = random_mutation_batch(kron_graph, 42, frac=0.01)
    b = random_mutation_batch(kron_graph, 42, frac=0.01)
    assert np.array_equal(a.inserts, b.inserts)
    assert np.array_equal(a.deletes, b.deletes)
    assert a.structural and a.size > 0


# -- incremental-repair equivalence (hypothesis) ------------------------------


POOLING_ENGINES = st.sampled_from(("unpooled", "pooled"))


@st.composite
def mutation_scenarios(draw, weighted):
    n = draw(st.integers(min_value=4, max_value=20))
    m = draw(st.integers(min_value=3, max_value=50))
    edges = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
        min_size=m, max_size=m))
    edges = [(u, v) for u, v in edges if u != v]
    src = draw(st.integers(0, n - 1))
    steps = draw(st.lists(st.tuples(
        st.integers(0, 2 ** 16),      # mutation seed
        st.booleans(),                # add reweights (weighted only)
        st.booleans(),                # compact after this step
    ), min_size=1, max_size=4))
    wseed = draw(st.integers(0, 2 ** 16)) if weighted else 0
    return n, edges, src, steps, wseed


def _step_batch(csr, seed, with_reweights):
    """One interleaved batch: deletes+inserts (via the library helper),
    plus reweights of surviving edges when asked."""
    b = random_mutation_batch(csr, seed, frac=0.15)
    if not with_reweights or csr.edge_values is None or not csr.m:
        return b
    rng = np.random.default_rng(seed + 1)
    eids = rng.choice(csr.m, size=max(1, csr.m // 8), replace=False)
    pairs = np.unique(np.stack(
        [csr.edge_sources[eids], csr.indices[eids]], axis=1), axis=0)
    dead = {tuple(p) for p in b.deletes}
    keep = np.array([tuple(p) not in dead for p in pairs], dtype=bool)
    pairs = pairs[keep]
    if not len(pairs):
        return b
    vals = rng.integers(1, 64, size=len(pairs)).astype(np.float64)
    return MutationBatch(inserts=b.inserts,
                         insert_weights=b.insert_weights,
                         deletes=b.deletes, reweights=pairs,
                         reweight_values=vals)


def _pred_valid(g, labels, preds, src, unit):
    """Support oracle: every reached non-source vertex's pred is an
    in-neighbor that exactly supports its label."""
    csc = g.csc
    for v in range(g.n):
        reach = labels[v] >= 0 if unit else np.isfinite(labels[v])
        if not reach or v == src:
            continue
        p = int(preds[v])
        lo, hi = int(csc.indptr[v]), int(csc.indptr[v + 1])
        in_nbr = csc.indices[lo:hi]
        hit = in_nbr == p
        assert hit.any(), f"pred {p} of {v} is not an in-neighbor"
        if unit:
            assert labels[p] == labels[v] - 1
        else:
            w = csc.artifacts.weights64[lo:hi][hit]
            assert (labels[p] + w == labels[v]).any()


def _run_scenario(scenario, weighted, mode):
    n, edges, src, steps, wseed = scenario
    g = _chain(edges, n, weighted, wseed=wseed)
    with engine(mode):
        delta = DeltaCsr(g)
        if weighted:
            ref = sssp(g, src, use_priority_queue=False)
        else:
            ref = bfs(g, src, idempotent=False, direction="push")
        labels = ref.arrays["labels"]
        preds = ref.arrays["preds"]
        pr_ref = pagerank(delta.snapshot())
        rank = pr_ref.arrays["rank"]
        for seed, rw, do_compact in steps:
            before = delta.snapshot()
            batch = _step_batch(before, seed, rw and weighted)
            delta.apply(batch)
            snap = delta.snapshot()
            # shortest-path repair vs from-scratch on the compacted graph
            if weighted:
                out = delta_sssp(delta, src, labels, preds, batch)
                scratch = sssp(snap, src, use_priority_queue=False)
            else:
                out = delta_bfs(delta, src, labels, preds, batch)
                scratch = bfs(snap, src, idempotent=False,
                              direction="push")
            if out is not None:
                r_labels, r_preds = out
                assert np.array_equal(r_labels, scratch.arrays["labels"])
                assert r_labels.dtype == scratch.arrays["labels"].dtype
                _pred_valid(snap, r_labels, r_preds, src,
                            unit=not weighted)
            # PageRank repair: as converged as from-scratch, certified
            new_rank = incremental_pagerank(before, delta, rank, batch)
            tol = 0.01 / max(1, n)
            d_inc = float(np.abs(pagerank_defect(snap, new_rank)).sum())
            assert d_inc <= 3.0 * n * tol
            pr_scratch = pagerank(snap)
            d_scr = float(np.abs(
                pagerank_defect(snap, pr_scratch.arrays["rank"])).sum())
            diff = float(np.abs(
                new_rank - pr_scratch.arrays["rank"]).max())
            assert diff <= (d_inc + d_scr) / (1.0 - 0.85) + 1e-12
            labels, preds = (scratch.arrays["labels"],
                             scratch.arrays["preds"])
            rank = new_rank
            if do_compact:
                assert delta.compact() is snap


@given(mutation_scenarios(weighted=False), POOLING_ENGINES)
@settings(max_examples=25, deadline=None)
def test_delta_bfs_equivalence(scenario, mode):
    _run_scenario(scenario, weighted=False, mode=mode)


@given(mutation_scenarios(weighted=True), POOLING_ENGINES)
@settings(max_examples=25, deadline=None)
def test_delta_sssp_equivalence(scenario, mode):
    _run_scenario(scenario, weighted=True, mode=mode)


# -- repair_payload (the serving entry point) ---------------------------------


def test_repair_payload_weight_only_keeps_insensitive(kron_weighted):
    batch = MutationBatch(all_weights=np.arange(
        1.0, kron_weighted.m + 1.0))
    old = {"labels": np.zeros(3), "preds": np.zeros(3)}
    arrays, repaired = repair_payload("bfs", {"src": 0}, old,
                                      kron_weighted, kron_weighted, batch)
    assert repaired and arrays is not old
    assert np.array_equal(arrays["labels"], old["labels"])


def test_repair_payload_falls_back_on_huge_damage():
    # a path graph loses its first edge: everything downstream is damaged
    n = 200
    g = _chain([(i, i + 1) for i in range(n - 1)], n, False)
    res = bfs(g, 0, idempotent=False, direction="push")
    d = DeltaCsr(g)
    batch = MutationBatch(deletes=[(0, 1)])
    d.apply(batch)
    arrays, repaired = repair_payload(
        "bfs", {"src": 0}, dict(res.arrays), g, d, batch)
    assert not repaired  # damage closure tripped the fallback
    scratch = bfs(d.snapshot(), 0, idempotent=False, direction="push")
    assert np.array_equal(arrays["labels"], scratch.arrays["labels"])


def test_repair_payload_charges_machine(kron_graph):
    res = bfs(kron_graph, 0, idempotent=False, direction="push")
    d = DeltaCsr(kron_graph)
    batch = random_mutation_batch(kron_graph, 3, frac=0.002)
    d.apply(batch)
    machine = Machine()
    repair_payload("bfs", {"src": 0}, dict(res.arrays), kron_graph, d,
                   batch, machine=machine)
    assert machine.elapsed_ms() > 0
