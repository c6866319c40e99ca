"""Bulk-synchronous atomics.

CUDA functors call ``atomicMin``/``atomicAdd``/``atomicCAS`` per lane; our
vectorized functors call these helpers over index/value arrays.  Semantics
follow the BSP reading used throughout Gunrock: every lane observes the
*pre-kernel* value of the cell (labels/distances written by earlier
iterations), and the post-kernel cell holds the combined result of all
lanes.  This is deterministic regardless of lane order, and it is exactly
the property Gunrock's primitives rely on (e.g. SSSP's ``UpdateLabel``
returns whether the lane improved on the previous distance; the filter
step then removes redundant winners).

Cost model: each call charges ``C_ATOMIC`` per lane plus serialization of
conflicting lanes (lanes - distinct addresses) at ``C_ATOMIC_CONFLICT``,
folded into the enclosing fused kernel when one is open.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..analysis.sanitizer import current_sanitizer
from ..simt import calib
from ..simt.machine import Machine


def _tracked(array: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Report this atomic's lane set to an active sanitizer.

    Returns the raw base array so the atomic's internal reads and writes
    bypass raw-write tracking — routed writes are the contract-compliant
    path, recorded as a per-kernel atomic write-set instead.
    """
    sanitizer = current_sanitizer()
    if sanitizer is not None:
        return sanitizer.on_atomic(array, idx)
    return array


def _dense(idx: np.ndarray) -> bool:
    """Is a non-empty address vector counted by ``bincount`` (see
    ``_charge``) rather than by a sort?"""
    return int(idx.min()) >= 0 and int(idx.max()) < 4 * len(idx) + 64


def _run_bounds(s: np.ndarray) -> np.ndarray:
    """Where each run of equal addresses after the first starts, in a
    sorted address vector (an adjacent-difference scan)."""
    return np.flatnonzero(s[1:] != s[:-1]) + 1


def _run_stats(bounds: np.ndarray, lanes: int) -> Tuple[int, int]:
    """(distinct, hottest) from a sorted vector's ``_run_bounds``."""
    runs = np.diff(bounds, prepend=0, append=lanes)
    return len(bounds) + 1, int(runs.max())


def _address_stats(idx: np.ndarray) -> Tuple[int, int]:
    """(distinct addresses, lanes on the hottest address) of a non-empty
    integer address vector."""
    if _dense(idx):
        counts = np.bincount(idx)
        return int(np.count_nonzero(counts)), int(counts.max())
    return _run_stats(_run_bounds(np.sort(idx)), len(idx))


def _charge(machine: Optional[Machine], name: str, idx: np.ndarray,
            stats: Optional[Tuple[int, int]] = None) -> None:
    """Price one atomic batch; ``stats`` is its ``_address_stats`` when
    the caller has already counted the addresses."""
    if machine is None or len(idx) == 0:
        return
    # one counting pass.  bincount is exact only over non-negative
    # addresses, and its table is max + 1 cells long, so it runs only when
    # no address is negative and the largest is O(lanes) (_dense); sparse
    # vectors such as [0, 999_999] would otherwise allocate and scan the
    # whole gap.  Everything else takes one sort and an adjacent-difference
    # scan.
    distinct, hottest = _address_stats(idx) if stats is None else stats
    machine.counters.record_atomics(len(idx), len(idx) - distinct)
    # aggregate throughput term + serial chain on the hottest address
    body = (len(idx) * calib.C_ATOMIC_THROUGHPUT
            + max(0, hottest - 1) * calib.C_ATOMIC_CONFLICT)
    machine.launch(name, body_cycles=body, items=len(idx))


def atomic_min(array: np.ndarray, idx: np.ndarray, vals: np.ndarray,
               machine: Optional[Machine] = None) -> np.ndarray:
    """``atomicMin`` over lanes: returns the per-lane "improved" mask.

    A lane's mask bit is True when its value is strictly below the
    pre-kernel value of its cell — the condition under which Gunrock's
    SSSP admits the destination into the new frontier.
    """
    idx = np.asarray(idx, dtype=np.int64)
    vals = np.asarray(vals)
    if len(idx) != len(vals):
        raise ValueError("atomic_min: index/value length mismatch")
    array = _tracked(array, idx)
    old = array[idx]
    won = vals < old
    np.minimum.at(array, idx, vals)
    _charge(machine, "atomic_min", idx)
    return won


def atomic_max(array: np.ndarray, idx: np.ndarray, vals: np.ndarray,
               machine: Optional[Machine] = None) -> np.ndarray:
    """``atomicMax`` over lanes: per-lane "improved" mask (strictly above)."""
    idx = np.asarray(idx, dtype=np.int64)
    vals = np.asarray(vals)
    if len(idx) != len(vals):
        raise ValueError("atomic_max: index/value length mismatch")
    array = _tracked(array, idx)
    old = array[idx]
    won = vals > old
    np.maximum.at(array, idx, vals)
    _charge(machine, "atomic_max", idx)
    return won


def atomic_add(array: np.ndarray, idx: np.ndarray, vals: np.ndarray,
               machine: Optional[Machine] = None) -> None:
    """``atomicAdd`` over lanes (PageRank/BC accumulation)."""
    idx = np.asarray(idx, dtype=np.int64)
    vals = np.asarray(vals)
    if len(idx) != len(vals):
        raise ValueError("atomic_add: index/value length mismatch")
    array = _tracked(array, idx)
    np.add.at(array, idx, vals)
    _charge(machine, "atomic_add", idx)


def atomic_cas_claim(flags: np.ndarray, idx: np.ndarray,
                     machine: Optional[Machine] = None) -> np.ndarray:
    """First-claimer-wins ``atomicCAS`` on a boolean flag array.

    Returns the per-lane mask of *winners*: exactly one lane per distinct
    unclaimed cell (deterministically the first occurrence in lane order).
    This is the primitive behind Gunrock's non-idempotent advance, which
    "internally uses atomic operations to guarantee each element appears
    only once in the output frontier" (Section 4.1.1).
    """
    idx = np.asarray(idx, dtype=np.int64)
    flags = _tracked(flags, idx)
    lanes = len(idx)
    if lanes == 0:
        return np.zeros(0, dtype=bool)
    # first occurrence of each distinct index, in lane order, from the
    # same counting pass that prices the batch
    if _dense(idx):
        # reversed fancy assignment: the last write, the first lane, wins
        lane_ids = np.arange(lanes)
        first_lane = np.empty(int(idx.max()) + 1, dtype=np.int64)
        first_lane[idx[::-1]] = lane_ids[::-1]
        first = first_lane[idx] == lane_ids
        stats = None
    else:
        # a stable sort keeps lane order inside each address run
        order = np.argsort(idx, kind="stable")
        bounds = _run_bounds(idx[order])
        first = np.zeros(lanes, dtype=bool)
        first[order[0]] = True
        first[order[bounds]] = True
        stats = _run_stats(bounds, lanes)
    won = ~flags[idx] & first
    flags[idx[won]] = True
    _charge(machine, "atomic_cas", idx, stats)
    return won


def atomic_exch_gather(array: np.ndarray, idx: np.ndarray, vals: np.ndarray,
                       machine: Optional[Machine] = None) -> np.ndarray:
    """``atomicExch``-style scatter where the *last* lane per cell wins
    deterministically (lane order = array order); returns old values."""
    idx = np.asarray(idx, dtype=np.int64)
    vals = np.asarray(vals)
    array = _tracked(array, idx)
    old = array[idx].copy()
    array[idx] = vals  # numpy fancy assignment: last write wins
    _charge(machine, "atomic_exch", idx)
    return old


def conflict_stats(idx: np.ndarray) -> Tuple[int, int]:
    """(lanes, conflicting lanes) for an address vector — used by tests;
    counted by the same pass that prices atomics."""
    idx = np.asarray(idx, dtype=np.int64)
    if len(idx) == 0:
        return 0, 0
    return len(idx), len(idx) - _address_stats(idx)[0]
