"""Unit tests for the two-level near/far priority queue (Section 4.1.1).

Invariants pinned here:

* a split never places an element in both piles (near/far partition);
* draining a pile yields non-decreasing priority levels;
* empty piles behave (empty push is a no-op, pop on empty is empty);
* snapshot/restore round-trips the mutable state;
* a mis-sized priority function is a loud error, and so is a NaN or
  +inf priority (it would never fall below a level and spin the pile);
* splits with a machine charge exactly one kernel.
"""

import numpy as np
import pytest

from repro.core import Frontier, ProblemBase
from repro.core.frontier import FrontierKind
from repro.core.operators.priority_queue import NearFarPile, split_near_far
from repro.graph import from_edges
from repro.simt import Machine


def _problem(n=64, machine=None):
    g = from_edges([(0, 1)], n=n, undirected=True)
    p = ProblemBase(g, machine)
    return p


def _identity_priority(problem, items):
    return items.astype(np.float64)


def test_split_is_a_partition():
    p = _problem()
    items = np.array([5, 12, 3, 40, 12, 7], dtype=np.int64)
    near, far = split_near_far(p, Frontier(items), _identity_priority, 10.0)
    merged = np.concatenate([near.items, far.items])
    assert sorted(merged.tolist()) == sorted(items.tolist())
    assert not set(near.items.tolist()) & set(far.items.tolist())
    assert near.items.max() < 10
    assert far.items.min() >= 10


def test_split_empty_frontier_returns_two_distinct_empties():
    p = _problem()
    near, far = split_near_far(p, Frontier.empty(FrontierKind.VERTEX),
                               _identity_priority, 1.0)
    assert near.is_empty and far.is_empty
    assert near is not far  # callers mutate them independently


def test_split_mismatched_priority_length_raises():
    p = _problem()

    def bad(problem, items):
        return np.zeros(len(items) - 1)

    with pytest.raises(ValueError, match="one value per item"):
        split_near_far(p, Frontier(np.array([1, 2, 3])), bad, 1.0)


@pytest.mark.parametrize("bad_value", [np.inf, np.nan])
def test_split_non_finite_priority_raises(bad_value):
    p = _problem()

    def bad(problem, items):
        prio = items.astype(np.float64)
        prio[1] = bad_value
        return prio

    with pytest.raises(ValueError, match="NaN or \\+inf"):
        split_near_far(p, Frontier(np.array([1, 2, 3])), bad, 1.0)


def test_split_sends_negative_infinity_near():
    p = _problem()
    near, far = split_near_far(
        p, Frontier(np.array([1, 2, 3])),
        lambda problem, items: np.array([-np.inf, 0.5, 2.0]), 1.0)
    assert near.items.tolist() == [1, 2]
    assert far.items.tolist() == [3]


@pytest.mark.parametrize("bad_value", [np.inf, np.nan])
def test_pile_with_non_finite_priority_raises_instead_of_spinning(bad_value):
    from repro.graph.generators import road_grid

    p = ProblemBase(road_grid(3, 3, seed=0))
    pile = NearFarPile(p, lambda problem, items: np.full(len(items),
                                                         bad_value),
                       delta=1.0)
    with pytest.raises(ValueError, match="NaN or \\+inf"):
        pile.push(Frontier(np.arange(p.graph.n, dtype=np.int64)))
        pile.pop_near()


def test_pile_rejects_nonpositive_delta():
    p = _problem()
    with pytest.raises(ValueError, match="delta"):
        NearFarPile(p, _identity_priority, 0.0)
    with pytest.raises(ValueError, match="delta"):
        NearFarPile(p, _identity_priority, -2.0)


def test_no_element_in_both_piles_after_push():
    p = _problem()
    pile = NearFarPile(p, _identity_priority, delta=8.0)
    pile.push(Frontier(np.array([1, 9, 17, 33, 7], dtype=np.int64)))
    state = pile.snapshot()
    assert not set(state["near"].tolist()) & set(state["far"].tolist())
    assert sorted(state["near"].tolist() + state["far"].tolist()) == \
        [1, 7, 9, 17, 33]


def test_drain_levels_non_decreasing_and_exhaustive():
    p = _problem()
    pile = NearFarPile(p, _identity_priority, delta=10.0)
    items = np.array([55, 3, 27, 14, 9, 41, 60, 22], dtype=np.int64)
    pile.push(Frontier(items))
    seen = []
    prev_level = pile.level
    while not pile.exhausted:
        chunk = pile.pop_near()
        assert pile.level >= prev_level  # levels only advance
        prev_level = pile.level
        # every popped element sits below the level that admitted it
        assert np.all(chunk.items.astype(np.float64) < pile.split_value)
        seen.extend(chunk.items.tolist())
    assert sorted(seen) == sorted(items.tolist())
    assert pile.exhausted
    assert pile.pop_near().is_empty  # popping an exhausted pile is safe


def test_push_empty_frontier_is_noop():
    p = _problem()
    pile = NearFarPile(p, _identity_priority, delta=1.0)
    pile.push(Frontier.empty(FrontierKind.VERTEX))
    assert pile.exhausted
    assert pile.level == 1


def test_far_elements_resplit_on_level_advance():
    """Deferred elements whose priority *improved* while far must land
    near once the level catches up — the delta-stepping relax case."""
    p = _problem()
    p.add_vertex_array("prio", np.float64, 0.0)
    p.prio[:] = np.arange(64, dtype=np.float64)
    pile = NearFarPile(p, lambda pb, v: pb.prio[v], delta=10.0)
    pile.push(Frontier(np.array([5, 25], dtype=np.int64)))
    assert pile.pop_near().items.tolist() == [5]
    p.prio[25] = 1.0  # relaxed while sitting in the far pile
    out = pile.pop_near()
    assert out.items.tolist() == [25]
    assert pile.exhausted


def test_snapshot_restore_roundtrip():
    p = _problem()
    pile = NearFarPile(p, _identity_priority, delta=10.0)
    pile.push(Frontier(np.array([2, 15, 31], dtype=np.int64)))
    state = pile.snapshot()
    # snapshot is a deep copy: draining the pile must not mutate it
    while not pile.exhausted:
        pile.pop_near()
    assert pile.exhausted
    pile.restore(state)
    assert not pile.exhausted
    assert pile.level == state["level"]
    drained = []
    while not pile.exhausted:
        drained.extend(pile.pop_near().items.tolist())
    assert sorted(drained) == [2, 15, 31]


def test_split_charges_one_kernel_with_machine():
    m = Machine()
    p = _problem(machine=m)
    before = m.counters.kernel_launches
    split_near_far(p, Frontier(np.array([1, 2, 30])), _identity_priority,
                   10.0, iteration=3)
    assert m.counters.kernel_launches == before + 1
    assert m.counters.kernels[-1].name == "near_far_split"
    assert m.counters.kernels[-1].iteration == 3
