"""BSP atomics: semantics, determinism, conflict accounting."""

import numpy as np
import pytest

from repro.core import atomics
from repro.simt import Machine


def test_atomic_min_basic():
    arr = np.array([10.0, 10.0, 10.0])
    won = atomics.atomic_min(arr, np.array([0, 1]), np.array([5.0, 20.0]))
    assert won.tolist() == [True, False]
    assert arr.tolist() == [5.0, 10.0, 10.0]


def test_atomic_min_conflicts_all_report_pre_state():
    """Every lane that improves on the PRE-kernel value reports a win —
    the BSP semantics Gunrock's SSSP relies on (filter dedups later)."""
    arr = np.array([100.0])
    won = atomics.atomic_min(arr, np.array([0, 0, 0]),
                             np.array([7.0, 3.0, 9.0]))
    assert won.tolist() == [True, True, True]
    assert arr[0] == 3.0


def test_atomic_min_equal_is_not_win():
    arr = np.array([5.0])
    won = atomics.atomic_min(arr, np.array([0]), np.array([5.0]))
    assert won.tolist() == [False]


def test_atomic_min_length_mismatch():
    with pytest.raises(ValueError):
        atomics.atomic_min(np.zeros(3), np.array([0]), np.array([1.0, 2.0]))


def test_atomic_max():
    arr = np.array([1.0, 5.0])
    won = atomics.atomic_max(arr, np.array([0, 1]), np.array([3.0, 2.0]))
    assert won.tolist() == [True, False]
    assert arr.tolist() == [3.0, 5.0]


def test_atomic_add_accumulates_duplicates():
    arr = np.zeros(3)
    atomics.atomic_add(arr, np.array([0, 0, 2]), np.array([1.0, 2.0, 4.0]))
    assert arr.tolist() == [3.0, 0.0, 4.0]


def test_atomic_add_length_mismatch():
    with pytest.raises(ValueError):
        atomics.atomic_add(np.zeros(3), np.array([0, 1]), np.array([1.0]))


def test_atomic_cas_claim_unique_winner():
    flags = np.zeros(4, dtype=bool)
    won = atomics.atomic_cas_claim(flags, np.array([2, 2, 2, 1]))
    assert won.sum() == 2            # one winner per distinct cell
    assert won.tolist() == [True, False, False, True]  # first lane wins
    assert flags.tolist() == [False, True, True, False]


def test_atomic_cas_claim_respects_prior_claims():
    flags = np.array([True, False])
    won = atomics.atomic_cas_claim(flags, np.array([0, 1]))
    assert won.tolist() == [False, True]


def test_atomic_cas_empty():
    flags = np.zeros(2, dtype=bool)
    won = atomics.atomic_cas_claim(flags, np.zeros(0, dtype=np.int64))
    assert len(won) == 0


def test_atomic_exch_last_wins():
    arr = np.array([0.0, 0.0])
    old = atomics.atomic_exch_gather(arr, np.array([0, 0]), np.array([1.0, 2.0]))
    assert arr[0] == 2.0
    assert old.tolist() == [0.0, 0.0]


def test_conflict_stats():
    assert atomics.conflict_stats(np.array([1, 1, 2])) == (3, 1)
    assert atomics.conflict_stats(np.zeros(0)) == (0, 0)


def test_atomics_charge_machine():
    m = Machine()
    arr = np.zeros(4)
    atomics.atomic_add(arr, np.array([0, 0, 1]), np.ones(3), m)
    assert m.counters.atomics_issued == 3
    assert m.counters.atomic_conflicts == 1
    assert m.counters.cycles > 0


def test_atomics_charge_counts_all_colliding_lanes():
    """Regression: conflicts = lanes beyond the first per cell, summed over
    every contended cell — idx [7, 7, 9, 12] has exactly one extra lane."""
    m = Machine()
    arr = np.zeros(16)
    atomics.atomic_add(arr, np.array([7, 7, 9, 12]), np.ones(4), m)
    assert m.counters.atomics_issued == 4
    assert m.counters.atomic_conflicts == 1


def test_atomics_charge_multiple_hot_cells():
    """Three lanes on cell 2 and two on cell 5: 3-1 + 2-1 = 3 conflicts."""
    m = Machine()
    arr = np.zeros(8)
    atomics.atomic_add(arr, np.array([2, 5, 2, 2, 5, 0]), np.ones(6), m)
    assert m.counters.atomics_issued == 6
    assert m.counters.atomic_conflicts == 3


def test_atomics_charge_sparse_addresses():
    """Widely separated addresses must not inflate the conflict count
    (the bincount-era implementation scanned the whole address range)."""
    m = Machine()
    arr = np.zeros(1_000_000)
    atomics.atomic_add(arr, np.array([0, 999_999]), np.ones(2), m)
    assert m.counters.atomics_issued == 2
    assert m.counters.atomic_conflicts == 0


def test_atomics_fold_into_fusion_scope():
    m = Machine()
    with m.fused("outer"):
        atomics.atomic_add(np.zeros(2), np.array([0]), np.ones(1), m)
    assert m.counters.kernel_launches == 1
    assert m.counters.kernels[0].name == "outer"


def test_atomic_min_determinism_any_order():
    """Result must be order-independent (min is commutative)."""
    idx = np.array([0, 1, 0, 1, 0])
    vals = np.array([5.0, 4.0, 3.0, 2.0, 1.0])
    a = np.full(2, 10.0)
    atomics.atomic_min(a, idx, vals)
    b = np.full(2, 10.0)
    perm = np.array([4, 2, 0, 3, 1])
    atomics.atomic_min(b, idx[perm], vals[perm])
    assert np.array_equal(a, b)


def _guard_edge(lanes, above):
    """``lanes`` addresses whose largest sits just inside (``above=False``)
    or just outside the bincount range guard ``max < 4 * lanes + 64``."""
    idx = np.arange(lanes) % 7
    idx[-1] = 4 * lanes + 64 - (0 if above else 1)
    return idx


_rng = np.random.default_rng(12)


@pytest.mark.parametrize("idx", [
    _rng.integers(0, 50, size=400),
    _rng.integers(0, 5000, size=2000),
    np.array([0, 999_999]),
    _rng.integers(0, 1_000_000, size=300),
    np.array([42]),
    np.full(257, 9),
    _guard_edge(100, above=False),
    _guard_edge(100, above=True),
    np.array([-1, 3, -1, 7, 3, 3]),
], ids=["dense", "dense-wide", "sparse-pair", "sparse", "one-lane",
        "one-cell", "guard-below", "guard-above", "negative"])
def test_address_stats_match_unique(idx):
    _, counts = np.unique(idx, return_counts=True)
    assert atomics._address_stats(idx) == (len(counts), int(counts.max()))
    assert atomics.conflict_stats(idx) == (len(idx), len(idx) - len(counts))
    # the CAS claim shares the pass: first lane per cell wins
    cells = idx[idx >= 0]
    m = Machine()
    won = atomics.atomic_cas_claim(
        np.zeros(int(cells.max()) + 1, dtype=bool), cells, m)
    first = np.zeros(len(cells), dtype=bool)
    first[np.unique(cells, return_index=True)[1]] = True
    assert won.tolist() == first.tolist()
    assert m.counters.atomic_conflicts == len(cells) - int(first.sum())


def test_address_stats_guard_picks_the_path():
    assert atomics._dense(_guard_edge(100, above=False))
    assert not atomics._dense(_guard_edge(100, above=True))
    assert not atomics._dense(np.array([-1, 3]))
