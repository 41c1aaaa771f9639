"""State and chain types produced by the exploration of a learning run.

Exploration builds a chain of one shape.  State 0 is the initial state and
the only one that may mix: its first-step distribution over joint actions
is stored once, as the chain's start distribution ``Dtmc.start``, and
nothing re-enters it.  Every later state plays a pure best response, held
in ``pure_action``, and has exactly one successor, so ``Dtmc`` stores the
chain as that functional graph: one successor id per state plus the start
distribution.  A truncated chain has one more state,
named by ``Dtmc.sink_id``, that absorbs the open branches.  Besides the
learner parameters, a state keeps what the merge relation compares: its
expected rewards, the generating parent, the parent's pure action and,
while exploration merges, the per-player argmax of the expected-reward gain
over the parent.

A merging exploration keeps its states in a list.  A chain explored with
merging off keeps each level of its first-step branches as batch arrays
instead, and its ``Dtmc.states`` is a read-only view that builds a state
from its level when it is read; either way ``Dtmc.states`` is a sequence
indexed by state id.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .game import argmax_with_ties


class Transition(NamedTuple):
    target: int
    probability: float
    action: tuple[int, ...] | None  # None for transitions into the sink


@dataclass
class ExplorationState:
    """One node of the chain: learner parameters plus what the state plays.

    Every state but the sink carries ``pure_action``; the initial state
    carries it only when its first step is pure, since a mixed first step
    lives in ``Dtmc.start``.  The sink carries neither.
    """

    id: int
    learner: object | None
    depth: int
    parent_id: int | None = None
    expected_rewards: tuple[np.ndarray, ...] | None = None
    # Joint action executed here; None only for a mixed initial state.
    pure_action: tuple[int, ...] | None = None
    # The parent's pure action; None for the children of a mixed initial
    # state, which are the only states with a mixed parent.
    predecessor_pure_action: tuple[int, ...] | None = None
    # Per player, argmax of (expected rewards here - at the predecessor);
    # set by ``explorer.merge_candidate``, only where the relation reads it.
    reward_gain_argmax: tuple[int, ...] | None = None
    # During a merging exploration, the best-response trajectory of the
    # state's first-step branch (``similarity.Future``), shared by every
    # state on the branch: successors and merge replays read their steps
    # from it.
    future: object | None = field(default=None, repr=False, compare=False)


def reward_gain_argmax(current, previous) -> tuple[int, ...]:
    """Per player, the action whose expected reward grew the most."""
    return tuple(
        argmax_with_ties(np.asarray(c) - np.asarray(p))
        for c, p in zip(current, previous)
    )


class MergeEvent(NamedTuple):
    source_id: int
    action: tuple[int, ...]
    target_id: int


@dataclass
class Dtmc:
    """The explored chain, stored as the functional graph exploration builds.

    The initial state is state 0.  Its transitions, one or many, after
    ``prob_floor``, are ``start``; its ``successor`` is -1 and nothing
    re-enters it.  Every other state ``sid`` moves to the one state
    ``successor[sid]``.  The state ``sink_id``, if any, absorbs truncated
    branches with a self-loop; the chain is truncated exactly when it has
    one.
    """

    states: Sequence[ExplorationState]
    successor: list[int]
    start: list[Transition]
    sink_id: int | None = None
    merge_events: list[MergeEvent] = field(default_factory=list)

    def __post_init__(self):
        n, successor = len(self.states), self.successor
        if len(successor) != n:
            raise ValueError(
                f"state {min(n, len(successor))}: {len(successor)} "
                f"successors for {n} states"
            )
        # Every state but the initial one moves to a state.
        rest = successor[1:]
        if rest and not (0 <= min(rest) and max(rest) < n):
            bad = min(rest) if min(rest) < 0 else max(rest)
            raise ValueError(
                f"state {rest.index(bad) + 1}: successor {bad} is not a state"
            )
        targets = [t.target for t in self.start]
        if not targets:
            raise ValueError("state 0 has no transitions")
        if not (0 <= min(targets) and max(targets) < n):
            raise ValueError("state 0: a start target is not a state")
        total = sum(t.probability for t in self.start)
        if not abs(total - 1.0) <= 1e-9:
            raise ValueError(
                f"state 0: transition probabilities sum to {total!r}"
            )
        if successor[0] != -1 or 0 in rest or 0 in targets:
            raise ValueError(
                "state 0: the initial state has a successor or is re-entered"
            )
        sink = self.sink_id
        if sink is not None and (sink not in range(n)
                                 or successor[sink] != sink):
            raise ValueError(f"state {sink}: the sink is not a self-loop")

    @property
    def initial_id(self) -> int:
        """The initial state's id, always 0."""
        return 0

    @property
    def truncated(self) -> bool:
        """Whether exploration hit its depth bound and made a sink."""
        return self.sink_id is not None

    @property
    def num_states(self) -> int:
        return len(self.states)

    def state(self, state_id: int) -> ExplorationState:
        return self.states[state_id]

    def out(self, state_id: int) -> list[Transition]:
        """The initial state's ``start``, or a state's one transition."""
        if state_id == 0:
            return self.start
        target = self.successor[state_id]
        action = None if target == self.sink_id \
            else self.states[state_id].pure_action
        return [Transition(target, 1.0, action)]
