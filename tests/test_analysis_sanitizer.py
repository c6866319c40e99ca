"""Dynamic race detector: seeded races are caught, shipped primitives are
clean, and benign patterns (atomics, idempotent writes, relaxed arrays)
pass without noise."""

import numpy as np
import pytest

from repro.analysis import (RaceError, current_sanitizer, lint_source,
                            sanitize)
from repro.core import (EnactorBase, Frontier, Functor, ProblemBase,
                        Workspace, advance, atomics, compute, filter_frontier)
from repro.graph import from_edges


@pytest.fixture
def fan_in_graph():
    """Vertices 0 and 1 both point at 2 and 3: advancing {0, 1} produces
    duplicate destination lanes — the race-prone shape."""
    return from_edges([(0, 2), (0, 3), (1, 2), (1, 3)], n=4)


class _LabelProblem(ProblemBase):
    def __init__(self, graph, machine=None):
        super().__init__(graph, machine)
        self.add_vertex_array("labels", np.int64, -1)


RACY_SOURCE = '''
class RacyDepthFunctor(Functor):
    """Raw-writes the BFS depth: the seeded contract violation."""
    def apply_edge(self, P, src, dst, eid):
        P.labels[dst] = 7
        return None
'''


class RacyDepthFunctor(Functor):
    def apply_edge(self, P, src, dst, eid):
        P.labels[dst] = 7  # lint: allow(raw-write) deliberate race for tests
        return None


# ------------------------------------------------ seeded racy functor

def test_racy_functor_caught_statically():
    vs = lint_source(RACY_SOURCE, "racy.py")
    assert [v.rule.name for v in vs] == ["raw-write"]


def test_racy_functor_caught_dynamically(fan_in_graph):
    problem = _LabelProblem(fan_in_graph)
    with pytest.raises(RaceError) as exc:
        with sanitize():
            advance(problem, Frontier(np.array([0, 1])), RacyDepthFunctor())
    kinds = {r.kind for r in exc.value.reports}
    assert "ww-duplicate-lanes" in kinds
    report = exc.value.reports[0]
    assert report.array == "labels"
    assert report.functor == "RacyDepthFunctor"
    assert "atomics" in report.detail


def test_problem_state_restored_after_race(fan_in_graph):
    """A strict-mode abort must not leave TrackedArray views installed."""
    problem = _LabelProblem(fan_in_graph)
    with pytest.raises(RaceError):
        with sanitize():
            advance(problem, Frontier(np.array([0, 1])), RacyDepthFunctor())
    assert type(problem.labels) is np.ndarray
    assert current_sanitizer() is None


# ------------------------------------------------------- ww-conflict

def test_differing_values_reported_even_if_idempotent(fan_in_graph):
    class Racy(Functor):
        idempotent = True

        def apply_edge(self, P, src, dst, eid):
            P.labels[dst] = src  # lint: allow(raw-write) deliberate race
            return None

    problem = _LabelProblem(fan_in_graph)
    with pytest.raises(RaceError) as exc:
        with sanitize():
            advance(problem, Frontier(np.array([0, 1])), Racy())
    assert {r.kind for r in exc.value.reports} == {"ww-conflict"}


# ------------------------------------------------------- raw-hazard

def test_read_after_raw_write_reported(fan_in_graph):
    class Hazard(Functor):
        def apply_vertex(self, P, v):
            P.labels[v] = 1  # lint: allow(raw-write) deliberate race
            return P.labels[v] > 0  # reads its own kernel's writes

    problem = _LabelProblem(fan_in_graph)
    with pytest.raises(RaceError) as exc:
        with sanitize():
            filter_frontier(problem, Frontier(np.array([0, 1, 2])), Hazard())
    assert {r.kind for r in exc.value.reports} == {"raw-hazard"}


# --------------------------------------------------- unrouted-write

def test_stashed_reference_write_reported(fan_in_graph):
    class Stashed(Functor):
        def apply_vertex(self, P, v):
            # mutate through the registry dict, bypassing the tracked view
            P._vertex_arrays["labels"][np.asarray(v)] = 9
            return None

    problem = _LabelProblem(fan_in_graph)
    with pytest.raises(RaceError) as exc:
        with sanitize():
            compute(problem, Frontier(np.array([0, 1])), Stashed())
    assert {r.kind for r in exc.value.reports} == {"unrouted-write"}


# -------------------------------------------------- benign patterns

def test_atomic_routed_writes_are_clean(fan_in_graph):
    class Atomic(Functor):
        def apply_edge(self, P, src, dst, eid):
            won = atomics.atomic_max(P.labels, dst, src, P.machine)
            return won

    problem = _LabelProblem(fan_in_graph)
    with sanitize() as s:
        advance(problem, Frontier(np.array([0, 1])), Atomic())
    assert s.clean
    assert problem.labels.tolist() == [-1, -1, 1, 1]


def test_idempotent_equal_value_duplicates_are_clean(fan_in_graph):
    class IdempotentDepth(Functor):
        idempotent = True

        def apply_edge(self, P, src, dst, eid):
            P.labels[dst] = 7  # lint: allow(raw-write) equal values, benign
            return None

    problem = _LabelProblem(fan_in_graph)
    with sanitize() as s:
        advance(problem, Frontier(np.array([0, 1])), IdempotentDepth())
    assert s.clean


def test_relaxed_array_exempt_from_value_checks(fan_in_graph):
    class RelaxedProblem(_LabelProblem):
        relaxed_arrays = frozenset({"labels"})

    class AnyParent(Functor):
        def apply_edge(self, P, src, dst, eid):
            P.labels[dst] = src  # lint: allow(raw-write) any parent valid
            return None

    problem = RelaxedProblem(fan_in_graph)
    with sanitize() as s:
        advance(problem, Frontier(np.array([0, 1])), AnyParent())
    assert s.clean


def test_functor_local_copies_are_inert(fan_in_graph):
    """A copy taken inside the functor is private state — writes to it
    must not be reported."""
    class Copies(Functor):
        def apply_vertex(self, P, v):
            scratch = P.labels.copy()
            scratch[v] = 5
            return None

    problem = _LabelProblem(fan_in_graph)
    with sanitize() as s:
        compute(problem, Frontier(np.array([0, 1])), Copies())
    assert s.clean


def test_non_strict_collects_without_raising(fan_in_graph):
    problem = _LabelProblem(fan_in_graph)
    with sanitize(strict=False) as s:
        advance(problem, Frontier(np.array([0, 1])), RacyDepthFunctor())
    assert not s.clean
    assert s.reports[0].kind == "ww-duplicate-lanes"
    with pytest.raises(RaceError):
        s.check()
    assert "violation" in s.summary()


def test_enactor_sanitize_flag(fan_in_graph):
    class RacyEnactor(EnactorBase):
        def _iterate(self, frontier):
            return self.advance(frontier, RacyDepthFunctor())

    problem = _LabelProblem(fan_in_graph)
    enactor = RacyEnactor(problem, sanitize=True)
    with pytest.raises(RaceError):
        enactor.enact(Frontier(np.array([0, 1])))


# --------------------------------- shipped primitives run clean

def test_bfs_variants_clean(kron_graph):
    import repro.primitives as P
    with sanitize() as s:
        r1 = P.bfs(kron_graph, 0, idempotent=False)
        r2 = P.bfs(kron_graph, 0, idempotent=True)
    assert s.clean
    assert np.array_equal(r1.labels, r2.labels)


def test_sssp_clean(kron_weighted):
    import repro.primitives as P
    with sanitize() as s:
        P.sssp(kron_weighted, 0)
    assert s.clean


def test_bc_clean(kron_graph):
    import repro.primitives as P
    with sanitize() as s:
        P.bc(kron_graph, 0)
    assert s.clean


def test_pagerank_clean(kron_graph):
    import repro.primitives as P
    with sanitize() as s:
        P.pagerank(kron_graph)
        P.pagerank_gather(kron_graph)
    assert s.clean


def test_cc_clean(kron_graph):
    import repro.primitives as P
    with sanitize() as s:
        P.cc(kron_graph)
    assert s.clean


def test_bipartite_primitives_clean(kron_graph):
    import repro.primitives as P
    bp = P.induced_bipartite(kron_graph, np.arange(kron_graph.n // 2))
    with sanitize() as s:
        P.hits(bp, max_iterations=10)
        P.salsa(bp, max_iterations=10)
    assert s.clean


def test_remaining_primitives_clean(kron_graph, kron_weighted):
    import repro.primitives as P
    with sanitize() as s:
        P.ppr(kron_graph, 0)
        P.label_propagation(kron_graph, max_iterations=15)
        P.who_to_follow(kron_graph, 0)
        P.color(kron_graph)
        P.mis(kron_graph)
        P.kcore(kron_graph)
        P.triangle_count(kron_graph)
        P.mst(kron_weighted)
    assert s.clean


# ------------------------------------- resolve_masks hardening

def test_resolve_masks_rejects_non_boolean():
    from repro.core.functor import resolve_masks
    with pytest.raises(TypeError, match="boolean"):
        resolve_masks(3, np.array([1, 0, 1]), where="Racy.cond_edge",
                      workspace=Workspace())


def test_resolve_masks_error_names_functor_method():
    from repro.core.functor import resolve_masks
    with pytest.raises(ValueError, match="Racy.cond_edge"):
        resolve_masks(3, np.array([True, False]), where="Racy.cond_edge",
                      workspace=Workspace())


def test_resolve_masks_accepts_boolean():
    from repro.core.functor import resolve_masks
    out = resolve_masks(2, np.array([True, False]),
                        np.array([True, True]), workspace=Workspace())
    assert out.tolist() == [True, False]
