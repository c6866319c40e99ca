"""Frontier data structure tests."""

import numpy as np
import pytest

from repro.core import Frontier, FrontierKind, Workspace
from repro.simt import Machine


def test_from_vertex():
    f = Frontier.from_vertex(7)
    assert f.kind is FrontierKind.VERTEX
    assert f.items.tolist() == [7]
    assert len(f) == 1
    assert not f.is_empty


def test_all_vertices_and_edges():
    assert Frontier.all_vertices(4).items.tolist() == [0, 1, 2, 3]
    fe = Frontier.all_edges(3)
    assert fe.kind is FrontierKind.EDGE
    assert fe.items.tolist() == [0, 1, 2]


def test_empty():
    f = Frontier.empty("edge")
    assert f.is_empty
    assert f.kind is FrontierKind.EDGE


def test_kind_accepts_strings():
    f = Frontier(np.array([1]), "vertex")
    assert f.kind is FrontierKind.VERTEX


def test_rejects_2d_items():
    with pytest.raises(ValueError):
        Frontier(np.zeros((2, 2)))


def test_bitmap_roundtrip():
    f = Frontier(np.array([1, 4, 2]))
    bm = f.to_bitmap(6, workspace=Workspace())
    assert bm.tolist() == [False, True, True, False, True, False]
    back = Frontier.from_bitmap(bm)
    assert sorted(back.items.tolist()) == [1, 2, 4]


def test_bitmap_rejects_overflow():
    f = Frontier(np.array([10]))
    with pytest.raises(ValueError):
        f.to_bitmap(5, workspace=Workspace())


def test_bitmap_costs_kernel():
    m = Machine()
    Frontier(np.array([1, 2])).to_bitmap(10, m, workspace=Workspace())
    assert m.counters.kernel_launches == 1


def test_deduplicated():
    f = Frontier(np.array([3, 1, 3, 3, 2]))
    d = f.deduplicated()
    assert sorted(d.items.tolist()) == [1, 2, 3]
    assert d.kind is f.kind


def test_copy_independent():
    f = Frontier(np.array([1, 2]))
    c = f.copy()
    c.items[0] = 99
    assert f.items[0] == 1


def test_size_property():
    assert Frontier(np.arange(5)).size == 5
