"""Fusion-safety verifier: verdict partition over the shipped primitives,
static-DAG-vs-dynamic-trace cross-check, the soundness property (static
write sets ⊇ sanitizer-observed write sets, pooled and unpooled), stale
suppressions, and report rendering/schema."""

import json
import os
import textwrap

import numpy as np
import pytest

import repro
from repro.analysis import sanitize
from repro.analysis.fusion import (analyze_paths, crosscheck_dag,
                                   validate_soundness)
from repro.analysis.report import (REPORT_SCHEMA_VERSION, render_dot,
                                   render_text, report_to_dict,
                                   validate_report_dict)
from repro.cli import PRIMITIVES, _run_primitive, main
from repro.core.engine import engine
from repro.simt import Machine

#: the pinned verdict partition over the shipped tree.  Every entry in
#: BLOCKED is a documented true positive: either the enactor mutates
#: problem arrays inline between operators (a real fusion blocker — the
#: write would have to become a kernel), the functor argument cannot be
#: statically bounded (lambda / expression), or the primitive bypasses
#: the operator wrappers entirely (hardwired).
FUSABLE = {"bc", "bfs", "cc", "pagerank", "ppr", "sssp"}
BLOCKED = {"coloring", "gatherpagerank", "hits", "labelprop", "mis",
           "mst", "salsa"}
HARDWIRED = {"kcore", "triangles", "wtf"}

#: CLI primitive name -> analyzer primitive name where they differ
_REPORT_NAME = {"color": "coloring"}


def _primitives_dir() -> str:
    return os.path.join(os.path.dirname(repro.__file__), "primitives")


@pytest.fixture(scope="module")
def tree_report():
    return analyze_paths([_primitives_dir()])


# ------------------------------------------------------------- verdicts

def test_every_primitive_reports_a_verdict(tree_report):
    names = {p.name for p in tree_report.primitives}
    assert names == FUSABLE | BLOCKED | HARDWIRED


def test_fusable_partition_is_pinned(tree_report):
    assert {p.name for p in tree_report.primitives if p.fusable} == FUSABLE


def test_blocked_primitives_carry_reasons(tree_report):
    for p in tree_report.primitives:
        if not p.fusable:
            assert p.blocking, f"{p.name} blocked without a reason"


def test_hardwired_primitives_flagged(tree_report):
    assert {p.name for p in tree_report.primitives
            if p.hardwired} == HARDWIRED


def test_every_fusable_verdict_has_a_compiled_plan(tree_report):
    """Plan-coverage regression (guards ROADMAP item 3's cleanup): every
    primitive the analyzer reports fusable must have a compiled plan,
    and every blocked primitive must surface a non-empty reason string
    through its plan — a verdict without a plan (or a blocked plan
    without a reason) means the specializer and the analyzer drifted."""
    from repro.analysis.plan import static_plans

    plans = static_plans()
    for rep in tree_report.primitives:
        assert rep.name in plans, rep.name
        plan = plans[rep.name]
        if rep.fusable:
            assert plan.fusable, (rep.name, plan.blocked)
            assert plan.stages, f"{rep.name}: fusable plan has no stages"
        else:
            assert not plan.fusable, rep.name
            assert plan.blocked, f"{rep.name}: blocked without a reason"
            assert all(r.strip() for r in plan.blocked), rep.name


def test_shipped_tree_analyzes_clean(tree_report):
    """The acceptance bar: no unsuppressed GR006-GR012 violations and no
    stale suppressions in the tree we ship."""
    assert tree_report.violations == []
    assert tree_report.stale == []


def test_blocking_reasons_name_real_inline_writes(tree_report):
    """Spot-check one true positive per blocked class of reason."""
    mis = tree_report.primitive("mis")
    assert any("inline write" in r and "'state'" in r for r in mis.blocking)
    gpr = tree_report.primitive("gatherpagerank")
    assert any("unresolvable functor" in r for r in gpr.blocking)


def test_bfs_dag_binds_both_functor_variants(tree_report):
    bfs = tree_report.primitive("bfs")
    advance = next(n for n in bfs.dag if n.op == "advance")
    assert set(advance.functors) == {"_IdempotentBfsFunctor",
                                     "_AtomicBfsFunctor"}


def test_cc_hook_functors_use_single_reduction_each(tree_report):
    """Regression for the GR011 split: each hook variant commits to one
    atomic op; the alternate schedule mixes them only across barriers."""
    cc = tree_report.primitive("cc")
    assert cc.fusable
    mins = cc.functors["_HookMinFunctor"].write_kinds()["component_ids"]
    maxs = cc.functors["_HookMaxFunctor"].write_kinds()["component_ids"]
    assert mins["ops"] == {"min"}
    assert maxs["ops"] == {"max"}


def test_sssp_atomic_min_verified_fusable(tree_report):
    sssp = tree_report.primitive("sssp")
    assert sssp.fusable
    relax = sssp.functors["_RelaxFunctor"]
    assert relax.write_kinds()["labels"]["ops"] == {"min"}


# ---------------------------------------- static DAG vs dynamic spans

@pytest.mark.parametrize("prim", ["bfs", "sssp", "pagerank", "cc", "bc"])
def test_static_dag_covers_dynamic_op_sequence(prim, kron_graph,
                                               tree_report):
    result, _ = _run_primitive(prim, kron_graph, 0, Machine())
    stats = result.enactor_stats
    ops = {e.op for e in stats.trace}
    assert ops, f"{prim} traced no operators"
    missing = crosscheck_dag(tree_report.primitive(prim), sorted(ops))
    assert missing == [], \
        f"{prim}: dynamic ops {missing} absent from the static DAG"


# -------------------------------------------------- soundness property

def _soundness_gaps(prim, graph, tree_report):
    with sanitize(strict=False) as s:
        _run_primitive(prim, graph, 0, Machine())
    rname = _REPORT_NAME.get(prim, prim)
    return validate_soundness(tree_report.primitive(rname),
                              s.observed_writes)


@pytest.mark.parametrize("mode", ["unpooled", "pooled"])
@pytest.mark.parametrize("prim", PRIMITIVES)
def test_static_write_sets_superset_of_sanitizer(prim, mode, kron_graph,
                                                 tree_report):
    """The soundness pin: for every primitive, every array the dynamic
    sanitizer saw a functor write is in that functor's static write set."""
    with engine(mode):
        gaps = _soundness_gaps(prim, kron_graph, tree_report)
    assert gaps == []


@pytest.mark.parametrize("mode", ["unpooled", "pooled"])
def test_soundness_holds_for_ppr(mode, kron_graph, tree_report):
    from repro.primitives import ppr

    with engine(mode):
        with sanitize(strict=False) as s:
            ppr(kron_graph, seeds=[0, 1])
    gaps = validate_soundness(tree_report.primitive("ppr"),
                              s.observed_writes)
    assert gaps == []


def test_soundness_holds_for_salsa(tree_report):
    from repro.graph import from_edges
    from repro.primitives import salsa
    from repro.primitives.bipartite import BipartiteGraph

    g = from_edges([(0, 3), (0, 4), (1, 4), (2, 5)], n=6)
    bp = BipartiteGraph(g, n_left=3, n_right=3)
    with sanitize(strict=False) as s:
        salsa(bp, max_iterations=4)
    gaps = validate_soundness(tree_report.primitive("salsa"),
                              s.observed_writes)
    assert gaps == []


def test_validate_soundness_reports_gaps(tree_report):
    """A fabricated dynamic write outside the static set is a gap."""
    sssp = tree_report.primitive("sssp")
    gaps = validate_soundness(sssp, {"_RelaxFunctor": {"nonexistent"}})
    assert len(gaps) == 1
    assert "nonexistent" in gaps[0]


def test_sanitizer_observed_writes_populated(kron_graph):
    with sanitize(strict=False) as s:
        _run_primitive("sssp", kron_graph, 0, Machine())
    assert "labels" in s.observed_writes.get("_RelaxFunctor", set())


# -------------------------------------------- registration regressions

def test_pagerank_degrees_registered(kron_graph):
    from repro.primitives.pagerank import PagerankProblem

    p = PagerankProblem(kron_graph)
    assert "degrees" in p.registered_arrays()
    assert p.array_specs()["degrees"]["dtype"] == "float64"
    assert np.array_equal(
        p.degrees, np.maximum(kron_graph.out_degrees, 1).astype(np.float64))


def test_ppr_degrees_registered(kron_graph):
    from repro.primitives.ppr import PprProblem

    p = PprProblem(kron_graph, seeds=np.array([0], dtype=np.int64))
    assert "degrees" in p.registered_arrays()
    assert np.array_equal(
        p.degrees, np.maximum(kron_graph.out_degrees, 1).astype(np.float64))


def test_salsa_norms_registered():
    from repro.graph import from_edges
    from repro.primitives.bipartite import BipartiteGraph
    from repro.primitives.salsa import SalsaProblem

    g = from_edges([(0, 3), (0, 4), (1, 4), (2, 5)], n=6)
    bp = BipartiteGraph(g, n_left=3, n_right=3)
    p = SalsaProblem(bp)
    assert {"out_norm", "in_norm"} <= set(p.registered_arrays())
    assert np.array_equal(
        p.out_norm, np.maximum(g.out_degrees.astype(np.float64), 1.0))
    assert np.array_equal(
        p.in_norm, np.maximum(bp.reverse.out_degrees.astype(np.float64),
                              1.0))


def test_cc_alternate_schedule_still_correct(tiny_graph):
    """Regression for the hook-functor split: both schedules label the
    same components."""
    from repro.primitives import cc

    base = cc(tiny_graph)
    alt = cc(tiny_graph, alternate=True)
    assert base.num_components == alt.num_components == 2
    # same partition (ids may differ between schedules)
    _, inv_a = np.unique(base.component_ids, return_inverse=True)
    _, inv_b = np.unique(alt.component_ids, return_inverse=True)
    assert np.array_equal(inv_a, inv_b)


# ------------------------------------------------- stale suppressions

def test_stale_suppression_detected(tmp_path):
    f = tmp_path / "stale.py"
    f.write_text(textwrap.dedent("""
        class CleanFunctor(Functor):
            def apply_vertex(self, P, v):
                x = 1  # lint: allow(raw-write)
                return None
        """))
    report = analyze_paths([str(f)])
    assert [(line, token) for _, line, token in report.stale] \
        == [(4, "raw-write")]


def test_live_suppression_not_stale(tmp_path):
    f = tmp_path / "live.py"
    f.write_text(textwrap.dedent("""
        class OkFunctor(Functor):
            def apply_vertex(self, P, v):
                P.ids[v] = v  # lint: allow(raw-write)
                return None
        """))
    report = analyze_paths([str(f)])
    assert report.stale == []
    assert report.violations == []


def test_cli_strict_fails_on_stale(tmp_path, capsys):
    f = tmp_path / "stale.py"
    f.write_text("class CleanFunctor(Functor):\n"
                 "    def apply_vertex(self, P, v):\n"
                 "        return None  # lint: allow(GR009)\n")
    assert main(["analyze", str(f)]) == 0
    assert main(["analyze", str(f), "--strict"]) == 1
    assert "stale suppression" in capsys.readouterr().err


# --------------------------------------------------- CLI + rendering

def test_cli_analyze_shipped_tree_clean(capsys):
    assert main(["analyze", "--strict"]) == 0
    out = capsys.readouterr().out
    assert "bfs: fusable: yes" in out
    assert "sssp: fusable: yes" in out
    assert "pagerank: fusable: yes" in out


def test_cli_analyze_fails_on_violation(tmp_path, capsys):
    f = tmp_path / "bad.py"
    f.write_text("from repro.core import atomics\n"
                 "class BadFunctor(Functor):\n"
                 "    def apply_edge(self, P, src, dst, eid):\n"
                 "        atomics.atomic_min(P.x, dst, src, P.machine)\n"
                 "        atomics.atomic_max(P.x, src, dst, P.machine)\n")
    # unregistered arrays: GR011 needs no registry, only the atomic calls
    assert main(["analyze", str(f)]) == 1
    assert "GR011" in capsys.readouterr().out


def test_json_report_is_deterministic_and_valid(tree_report):
    d1 = report_to_dict(tree_report)
    d2 = report_to_dict(analyze_paths([_primitives_dir()]))
    assert json.dumps(d1, sort_keys=True) == json.dumps(d2, sort_keys=True)
    assert d1["schema_version"] == REPORT_SCHEMA_VERSION
    assert validate_report_dict(d1) == []
    # survives a JSON round-trip
    assert validate_report_dict(json.loads(json.dumps(d1))) == []


def test_validate_report_rejects_malformed():
    assert validate_report_dict({}) != []
    good = report_to_dict(analyze_paths([_primitives_dir()]))
    bad = json.loads(json.dumps(good))
    bad["primitives"][0]["fusable"] = \
        not bad["primitives"][0]["fusable"]
    assert any("inconsistent" in e for e in validate_report_dict(bad))


def test_render_text_shows_verdict_and_reasons(tree_report):
    text = render_text(tree_report)
    assert "cc: fusable: yes" in text
    assert "mis: fusable: no" in text
    assert "enactor inline write" in text


def test_render_dot_emits_clustered_digraph(tree_report):
    dot = render_dot(tree_report)
    assert dot.startswith("digraph operator_dags {")
    assert 'label="bfs [fusable]"' in dot
    assert 'label="mst [blocked]"' in dot
    assert "->" in dot
    assert dot.rstrip().endswith("}")


def test_cli_analyze_dot(capsys):
    assert main(["analyze", "--dot"]) == 0
    assert capsys.readouterr().out.startswith("digraph")
