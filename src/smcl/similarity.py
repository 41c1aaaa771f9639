"""The merge relation between exploration states.

A freshly generated state is folded into an earlier one when both would
behave the same from now on.  Structural requirements first: both states are
pure, fire the same joint action, and their expected rewards grew towards
the same action at the last step.  The remaining checks depend on how the
two states are related in the generation tree:

* identical states: nothing further;
* direct successor (distance 1): the executed action's expected reward must
  not have dropped, for any player;
* longer ancestor path: replaying the path's joint-action word from the new
  state must reproduce the same strategies step by step, and the expected
  reward of each step's action must have moved the right way -- shrunk for
  plain FP (its oscillations damp out on a loop) and grown for the
  discounted variants (their estimates keep strengthening on a loop);
* no path: the two predecessors must have played the same joint action
  (or both be the initial state, the only one that mixes), the rewards
  must show the same movement as on a path relative to the other actions
  (under plain FP the executed action's reward has damped while no other
  action's dropped; under the discounted variants the executed action's
  reward has grown while no other action's rose -- the signature of two
  branches approaching one loop from opposite phases), and playing both
  states forward in lockstep must produce identical strategies over twice
  the generation lag.  The last check separates genuinely equivalent
  branches from loops whose repetition pattern is still stretching, which
  show the same reward movements but drift apart when replayed.

A separate guard applies when both predecessors already played the same
strategy as the states themselves: every unplayed action must be falling
behind the played one, unless the played action is already the best raw
reply to the opponents' executed actions.

All comparisons use an absolute tolerance, so branches that differ only by
floating-point noise still merge.

``similar()`` is the one definition of the relation.  The explorer calls it
only for the bucket entries its merge index has not already ruled out (see
``explorer``), passing the generation-tree distance, a path provider in the
context, and the candidate's ``Future``: the later state's best-response
trajectory, which every path replay and lockstep replay from that state
reads instead of re-observing it.  A state without a future gets a fresh
one, with the same result.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from . import learners
from .dtmc import ExplorationState
from .game import Game
# Kept in this module's namespace, where profilers look the contraction up.
from .game import expected_reward_vector  # noqa: F401

DEFAULT_TOL = 1e-9


@dataclass(frozen=True)
class SimilarityContext:
    """Everything the relation needs besides the two states."""

    game: Game
    algorithm: str  # the learner state's tag: "fp" | "gfp" | "afffp"
    # Generation path from an ancestor down to a state, both ends included.
    path: Callable[[ExplorationState, ExplorationState],
                   list[ExplorationState]]
    tol: float = DEFAULT_TOL

    @cached_property
    def best_raw_reply(self) -> tuple[np.ndarray, ...]:
        """Per player, a bool per joint action: is the player's own action
        already a best raw reply to the others' actions?"""
        out = []
        for i in range(self.game.num_players):
            raw = self.game.reward_tensor(i)
            out.append(raw >= raw.max(axis=i, keepdims=True) - self.tol)
        return tuple(out)


class Future:
    """A pure state's own best-response trajectory, extended on demand.

    ``self[k]`` is ``(learner, expected_rewards, pure_action)`` after the
    state and its successors have played k steps; ``self[0]`` is the state
    itself.  Path replays from the state and its side of a lockstep replay
    both follow this trajectory, so one future serves every merge attempt
    against the same candidate.
    """

    __slots__ = ("game", "steps")

    def __init__(self, state: ExplorationState, game: Game):
        self.game = game
        self.steps = [
            (state.learner, state.expected_rewards, state.pure_action)
        ]

    def __getitem__(self, k: int):
        steps = self.steps
        while len(steps) <= k:
            learner, _, action = steps[-1]
            steps.append(
                learners.best_response_step(learner, self.game, action)
            )
        return steps[k]


def _future_of(state: ExplorationState, game: Game) -> Future:
    return state.future if state.future is not None else Future(state, game)


def _initial_step_agrees(s1, s2, ctx: SimilarityContext) -> bool:
    # Both states' expected rewards must have grown fastest towards the
    # same action, player by player, relative to their predecessors.
    return s1.reward_gain_argmax == s2.reward_gain_argmax


def _shared_prefix_guard(s1, s2, ctx: SimilarityContext) -> bool:
    # Applies only when both predecessors played the states' own strategy.
    if not (
        s1.predecessor_pure_action == s1.pure_action
        and s2.predecessor_pure_action == s1.pure_action
    ):
        return True
    executed = s1.pure_action
    game = ctx.game
    for i in range(game.num_players):
        if ctx.best_raw_reply[i][executed]:
            continue
        r1 = s1.expected_rewards[i]
        r2 = s2.expected_rewards[i]
        gap_exec = r2[executed[i]] - r1[executed[i]]
        for a in range(game.action_counts[i]):
            if a == executed[i]:
                continue
            if r2[a] - r1[a] > gap_exec + ctx.tol:
                return False
    return True


def _executed_reward_not_dropped(s1, s2, ctx: SimilarityContext) -> bool:
    executed = s1.pure_action
    for i in range(ctx.game.num_players):
        if (
            s2.expected_rewards[i][executed[i]]
            < s1.expected_rewards[i][executed[i]] - ctx.tol
        ):
            return False
    return True


def _path_replay_agrees(s1, s2, ctx: SimilarityContext) -> bool:
    # Replay the path word from s2 and compare against the actual path step
    # by step: same strategies, and the step action's expected reward damped
    # (fp) or strengthened (gfp/afffp) relative to one lap earlier.
    # The word starts with s1's action, which is s2's own, and every later
    # letter must equal the replayed action: the replay is s2's future.
    game = ctx.game
    chain = ctx.path(s1, s2)
    future = _future_of(s2, game)
    for j in range(1, len(chain)):
        _, rewards, replayed = future[j]
        step = chain[j].pure_action
        if replayed != step:
            return False
        for i in range(game.num_players):
            lap1 = chain[j].expected_rewards[i][step[i]]
            lap2 = rewards[i][step[i]]
            if ctx.algorithm == "fp":
                if lap2 > lap1 + ctx.tol:
                    return False
            elif lap2 < lap1 - ctx.tol:
                return False
    return True


# Bound on the lockstep-replay window for the no-path case; divergence of
# non-equivalent branches shows up within their generation lag.
MAX_LOCKSTEP_HORIZON = 512


def _disjoint_branches_agree(s1, s2, ctx: SimilarityContext) -> bool:
    # Equal predecessors.  Comparing actions is exact: a chain's one mixed
    # state is its initial state, and its children have None here.
    if s1.predecessor_pure_action != s2.predecessor_pure_action:
        return False
    damped = ctx.algorithm == "fp"
    executed = s1.pure_action
    for i in range(ctx.game.num_players):
        r1 = s1.expected_rewards[i]
        r2 = s2.expected_rewards[i]
        for a in range(ctx.game.action_counts[i]):
            if a == executed[i]:
                ok = r2[a] <= r1[a] + ctx.tol if damped \
                    else r2[a] >= r1[a] - ctx.tol
            else:
                ok = r2[a] >= r1[a] - ctx.tol if damped \
                    else r2[a] <= r1[a] + ctx.tol
            if not ok:
                return False
    horizon = min(max(2 * (s2.depth - s1.depth), 2), MAX_LOCKSTEP_HORIZON)
    return _futures_agree(s1, s2, horizon, ctx)


def _futures_agree(s1, s2, horizon: int, ctx: SimilarityContext) -> bool:
    """Play both states forward together; strategies must stay identical.

    Both start from the same action and play it as long as they agree, so
    s2's side is its own future.
    """
    game = ctx.game
    future = _future_of(s2, game)
    action = s1.pure_action
    learner1 = s1.learner
    for k in range(1, horizon + 1):
        learner1, _, action = learners.best_response_step(
            learner1, game, action
        )
        if action != future[k][2]:
            return False
    return True


def similar(
    s1: ExplorationState,
    s2: ExplorationState,
    ctx: SimilarityContext,
    distance: int | None,
) -> bool:
    """Whether the earlier state s1 subsumes the later state s2.

    ``distance`` is the generation-tree distance from s1 down to s2: 0 for
    the same state, ``None`` when no path exists.
    """
    if s1.is_sink or s2.is_sink:
        return False
    # States without a predecessor (the initial state) carry no reward
    # history to compare; they never merge.
    if s1.parent_id is None or s2.parent_id is None:
        return False
    if s1.pure_action is None or s2.pure_action is None:
        return False
    if s1.pure_action != s2.pure_action:
        return False
    if not _initial_step_agrees(s1, s2, ctx):
        return False
    if not _shared_prefix_guard(s1, s2, ctx):
        return False
    if distance == 0:
        return True
    if distance == 1:
        return _executed_reward_not_dropped(s1, s2, ctx)
    if distance is not None:
        return _path_replay_agrees(s1, s2, ctx)
    return _disjoint_branches_agree(s1, s2, ctx)
