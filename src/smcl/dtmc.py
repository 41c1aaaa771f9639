"""State and chain types produced by the exploration of a learning run.

Exploration builds a chain of one shape.  Only the initial state mixes: its
``strategy`` is the first-step distribution over each player's actions.
Every later state plays a pure best response, held in ``pure_action``, and
has one successor.  Besides the learner parameters, a state keeps what the
merge relation compares: its expected rewards, the generating parent, the
joint action that led here, the parent's pure action and the per-player
argmax of the expected-reward gain over the parent.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
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
    executed_from_parent: tuple[int, ...] | None = None
    expected_rewards: tuple[np.ndarray, ...] | None = None
    # Joint action executed here; None only for a mixed initial state.
    pure_action: tuple[int, ...] | None = None
    # The parent's pure action; None for the children of a mixed initial
    # state, which are the only states with a mixed parent.
    predecessor_pure_action: tuple[int, ...] | None = None
    # Per player, argmax of (expected rewards here - at the predecessor);
    # cached because the merge relation compares it for every candidate.
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
        if self.is_sink:
            return []
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
    """A finite chain over exploration states.

    Transitions are stored one entry per fired joint action, so a source can
    carry several entries to the same target; probabilities of a state's
    entries sum to 1.  The optional sink absorbs truncated branches with a
    self-loop of probability 1.
    """

    states: list[ExplorationState]
    transitions: dict[int, list[Transition]]
    initial_id: int = 0
    sink_id: int | None = None
    truncated: bool = False
    merge_events: list[MergeEvent] = field(default_factory=list)

    @property
    def num_states(self) -> int:
        return len(self.states)

    def state(self, state_id: int) -> ExplorationState:
        return self.states[state_id]

    def out(self, state_id: int) -> list[Transition]:
        return self.transitions.get(state_id, [])

    def out_probability_sum(self, state_id: int) -> float:
        return sum(t.probability for t in self.out(state_id))

    def successors(self, state_id: int) -> list[int]:
        seen = []
        for t in self.out(state_id):
            if t.probability > 0 and t.target not in seen:
                seen.append(t.target)
        return seen

    def functional_graph(self) -> tuple[list[int], list[tuple[int, float]]]:
        """The chain as one successor per state plus a start distribution.

        This is the shape exploration builds: only the initial state fires
        several joint actions (its first-iteration smooth best response),
        every later state is pure and has a single transition, and the
        initial state never joins a merge bucket, so nothing re-enters it.

        Returns ``(successor, start)``.  ``successor[sid]`` is the target of
        each state's transition, or -1 for an initial state that branches;
        ``start`` lists that initial state's transitions as ``(target,
        probability)`` pairs.  An initial state with a single transition is
        an ordinary node of the graph and ``start`` is ``[(initial_id,
        1.0)]``.  Raises ``ValueError`` naming the first state that has no
        transitions, that branches without being the initial state, or
        whose probabilities do not sum to 1 within 1e-9; for a branching
        initial state, it names the initial state when something re-enters
        it.

        The result is computed once per chain, which is not modified after
        exploration, so the analysis passes share one validation.
        """
        return self._functional_graph

    @cached_property
    def _functional_graph(self):
        root = self.initial_id
        successor = [0] * self.num_states
        for sid in range(self.num_states):
            out = self.out(sid)
            if not out:
                raise ValueError(f"state {sid} has no transitions")
            if len(out) > 1 and sid != root:
                raise ValueError(
                    f"state {sid} has {len(out)} transitions; only the "
                    f"initial state may branch"
                )
            total = sum(t.probability for t in out)
            if not abs(total - 1.0) <= 1e-9:
                raise ValueError(
                    f"state {sid}: transition probabilities sum to {total!r}"
                )
            successor[sid] = out[0].target
        root_out = self.out(root)
        if len(root_out) == 1:
            return successor, [(root, 1.0)]
        successor[root] = -1
        if any(t.target == root for t in root_out) or root in successor:
            raise ValueError(
                f"state {root}: the initial state branches and is re-entered"
            )
        return successor, [(t.target, t.probability) for t in root_out]
