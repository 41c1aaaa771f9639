"""State and chain types produced by the exploration of a learning run.

Exploration builds a chain of one shape.  Only the initial state mixes: its
``strategy`` is the first-step distribution over each player's actions, and
its transitions are the chain's start distribution.  Every later state plays
a pure best response, held in ``pure_action``, and has exactly one
successor, so ``Dtmc`` stores the chain as that functional graph: one
successor id per state plus the start distribution.  Besides the learner
parameters, a state keeps what the merge relation compares: its expected
rewards, the generating parent, the parent's pure action and, while
exploration merges, the per-player argmax of the expected-reward gain over
the parent.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .game import argmax_with_ties

STRATEGY_TOL = 1e-9


class Transition(NamedTuple):
    target: int
    probability: float
    action: tuple[int, ...] | None  # None for transitions into the sink


@dataclass
class ExplorationState:
    """One node of the chain: learner parameters plus what the state plays.

    The initial state carries its first-step ``strategy`` and, when that is
    degenerate, its ``pure_action`` as well; every other state carries only
    ``pure_action`` and has ``strategy=None``.
    """

    id: int
    strategy: tuple[np.ndarray, ...] | None
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
    is_sink: bool = False
    # The state's best-response future (``similarity.Future``) while the
    # explorer still needs it: shared by the merge attempts against a
    # candidate, and its first step becomes the adopted state's successor.
    future: object | None = field(default=None, repr=False, compare=False)

    @classmethod
    def sink(cls, state_id: int, depth: int) -> "ExplorationState":
        return cls(id=state_id, strategy=None, learner=None, depth=depth,
                   is_sink=True)

    def positive_actions(self, floor: float = 0.0):
        """Joint actions this state fires, with probabilities, flat order."""
        if self.pure_action is not None:
            return [(self.pure_action, 1.0)]
        out = []
        counts = tuple(len(s) for s in self.strategy)
        for action in np.ndindex(*counts):
            p = 1.0
            for i, a in enumerate(action):
                p *= float(self.strategy[i][a])
            if p > floor:
                out.append((tuple(int(a) for a in action), p))
        return out


def pure_action_of(strategy, tol: float = STRATEGY_TOL):
    """The single supported joint action, or None if any player mixes."""
    action = []
    for dist in strategy:
        idx = int(np.argmax(dist))
        if dist[idx] < 1.0 - tol:
            return None
        action.append(idx)
    return tuple(action)


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

    ``successor[sid]`` is the one state that ``sid`` moves to.  The initial
    state's transitions, after ``prob_floor``, are ``start``.  When it has
    several, the initial state branches: its ``successor`` is -1 and nothing
    re-enters it.  Otherwise it is an ordinary node and ``start`` is its one
    transition, to its successor.  The optional sink absorbs truncated
    branches with a self-loop; the chain is truncated exactly when it has
    one.
    """

    states: list[ExplorationState]
    successor: list[int]
    start: list[Transition]
    initial_id: int = 0
    sink_id: int | None = None
    merge_events: list[MergeEvent] = field(default_factory=list)

    def __post_init__(self):
        n, root, successor = len(self.states), self.initial_id, self.successor
        if len(successor) != n:
            raise ValueError(
                f"state {min(n, len(successor))}: {len(successor)} "
                f"successors for {n} states"
            )
        # Every state but the initial one moves to a state.
        rest = successor[:root] + successor[root + 1:]
        if rest and not (0 <= min(rest) and max(rest) < n):
            bad = min(rest) if min(rest) < 0 else max(rest)
            sid = rest.index(bad)
            raise ValueError(
                f"state {sid + (sid >= root)}: successor {bad} is not a state"
            )
        targets = [t.target for t in self.start]
        if not targets:
            raise ValueError(f"state {root} has no transitions")
        if not (0 <= min(targets) and max(targets) < n):
            raise ValueError(f"state {root}: a start target is not a state")
        total = sum(t.probability for t in self.start)
        if not abs(total - 1.0) <= 1e-9:
            raise ValueError(
                f"state {root}: transition probabilities sum to {total!r}"
            )
        if successor[root] == -1:
            if root in rest or root in targets:
                raise ValueError(
                    f"state {root}: the initial state branches and is "
                    f"re-entered"
                )
        elif targets != [successor[root]]:
            raise ValueError(
                f"state {root}: the initial state does not branch, so start "
                f"must be its one transition, to state {successor[root]}"
            )
        sink = self.sink_id
        if sink is not None and (sink not in range(n)
                                 or successor[sink] != sink):
            raise ValueError(f"state {sink}: the sink is not a self-loop")

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
        if state_id == self.initial_id:
            return self.start
        target = self.successor[state_id]
        action = None if target == self.sink_id \
            else self.states[state_id].pure_action
        return [Transition(target, 1.0, action)]

    def out_probability_sum(self, state_id: int) -> float:
        return sum(t.probability for t in self.out(state_id))
