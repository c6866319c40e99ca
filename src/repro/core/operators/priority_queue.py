"""Two-level priority queue (Section 4.1.1, generalizing Davidson et al.).

"Gunrock generalizes the approach of Davidson et al. by allowing
user-defined priority functions to organize an output frontier into
'near' and 'far' slices.  This allows the GPU to use a simple and
high-performance split operation to create and maintain the two slices.
Gunrock then considers only the near slice in the next processing steps,
adding any new elements that do not pass the near criterion into the far
slice, until the near slice is exhausted.  We then update the priority
function and operate on the far slice."

:class:`NearFarPile` is that structure.  SSSP drives it with the
delta-stepping priority (distance // delta); other primitives can plug in
any vectorized priority function.
"""

from __future__ import annotations

from typing import Callable, Tuple

import numpy as np

from ...simt import calib
from ..frontier import Frontier, FrontierKind
from ..problem import ProblemBase

#: a vectorized priority function: items -> float priorities
PriorityFn = Callable[[ProblemBase, np.ndarray], np.ndarray]


def split_near_far(problem: ProblemBase, frontier: Frontier,
                   priority_fn: PriorityFn, split_value: float,
                   iteration: int = -1) -> Tuple[Frontier, Frontier]:
    """One split: elements with priority < ``split_value`` go near.

    Implemented as the paper's "simple and high-performance split"
    (one pass + two compactions, modeled as a single fused kernel).
    """
    machine = problem.machine
    items = frontier.items
    if len(items) == 0:
        empty = Frontier.empty(frontier.kind)
        return empty, empty.copy()
    prio = np.asarray(priority_fn(problem, items), dtype=np.float64)
    if len(prio) != len(items):
        raise ValueError("priority function must return one value per item")
    if not (prio < np.inf).all():
        # NaN / +inf never fall below a level threshold, so pop_near
        # would raise the level forever
        raise ValueError("priority function must return values below +inf "
                         "(got NaN or +inf)")
    near_mask = prio < split_value
    if machine is not None:
        machine.map_kernel("near_far_split", len(items),
                           calib.C_COMPACT_PER_ELEM, iteration=iteration)
    return (Frontier(items[near_mask], frontier.kind),
            Frontier(items[~near_mask], frontier.kind))


class NearFarPile:
    """The mutable two-slice frontier SSSP iterates on.

    Usage::

        pile = NearFarPile(problem, priority_fn, delta)
        pile.push(initial_frontier)
        while not pile.exhausted:
            near = pile.pop_near()        # frontier for this iteration
            ...advance/filter...
            pile.push(new_frontier)       # re-split against current level

    ``pop_near`` advances the priority level when the near slice runs dry,
    which is the "update the priority function and operate on the far
    slice" step.
    """

    def __init__(self, problem: ProblemBase, priority_fn: PriorityFn,
                 delta: float, kind: FrontierKind | str = FrontierKind.VERTEX):
        if delta <= 0:
            raise ValueError("delta must be positive")
        self.problem = problem
        self.priority_fn = priority_fn
        self.delta = float(delta)
        self.level = 1
        self.kind = FrontierKind(kind)
        self._near = Frontier.empty(self.kind)
        self._far = Frontier.empty(self.kind)

    @property
    def split_value(self) -> float:
        return self.level * self.delta

    @property
    def exhausted(self) -> bool:
        return self._near.is_empty and self._far.is_empty

    def push(self, frontier: Frontier, iteration: int = -1) -> None:
        """Split new elements against the current level and append."""
        if frontier.is_empty:
            return
        near, far = split_near_far(self.problem, frontier, self.priority_fn,
                                   self.split_value, iteration)
        self._near = _concat(self._near, near)
        self._far = _concat(self._far, far)

    def snapshot(self) -> dict:
        """Copy the pile's mutable state for super-step checkpointing."""
        return {"near": self._near.items.copy(),
                "far": self._far.items.copy(),
                "level": self.level}

    def restore(self, state: dict) -> None:
        """Reinstall state captured by :meth:`snapshot`."""
        self._near = Frontier(state["near"].copy(), self.kind)
        self._far = Frontier(state["far"].copy(), self.kind)
        self.level = int(state["level"])

    def pop_near(self, iteration: int = -1) -> Frontier:
        """Take the near slice; advance the level if it is empty.

        Far elements are re-split on level advance because their
        priorities may have improved since they were deferred.
        """
        while self._near.is_empty and not self._far.is_empty:
            self.level += 1
            far = self._far
            self._far = Frontier.empty(self.kind)
            near, new_far = split_near_far(self.problem, far, self.priority_fn,
                                           self.split_value, iteration)
            self._near = _concat(self._near, near)
            self._far = new_far
        out = self._near
        self._near = Frontier.empty(self.kind)
        return out


def _concat(a: Frontier, b: Frontier) -> Frontier:
    if a.is_empty:
        return b
    if b.is_empty:
        return a
    return Frontier(np.concatenate([a.items, b.items]), a.kind)
