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

Each reward guard is one function over the trailing axis of reward rows
(``reward_row``), so it tests one pair here and a whole bucket in the
explorer's merge index alike.  ``SimilarityContext.direction`` is the one
place the algorithm tag sets the reward direction, and
``SimilarityContext.columns`` holds each joint action's row columns.  Signed
forms such as ``d * x > y * d + tol`` equal the one-sided comparisons they
stand for bit for bit, as IEEE rounding is symmetric in sign.

``similar()`` is the one definition of the relation.  The explorer calls it
only for the bucket entries its merge index has not already ruled out (see
``explorer``), passing the generation-tree distance, a path provider in the
context, and the candidate's ``Future``: the later state's best-response
trajectory, which every path replay and lockstep replay from that state
reads instead of re-observing it.  A state without a future gets a fresh
one, with the same result.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from typing import Callable

import numpy as np

from . import learners
from .dtmc import ExplorationState
from .game import Game
# Kept in this module's namespace, where profilers look the contraction up.
from .game import expected_reward_vector  # noqa: F401

DEFAULT_TOL = 1e-9


def reward_row(rewards) -> np.ndarray:
    """A state's per-player expected rewards, concatenated player by player."""
    return np.concatenate(rewards)


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

    @cached_property
    def direction(self) -> float:
        """+1.0: a step action's reward must not rise (fp damps); -1.0: it
        must not drop (the discounted variants strengthen)."""
        return 1.0 if self.algorithm == "fp" else -1.0

    @cached_property
    def _columns(self) -> dict:
        return {}

    def columns(self, action: tuple[int, ...]) -> "ActionColumns":
        """The reward-row columns the guards read for a joint action."""
        columns = self._columns.get(action)
        if columns is None:
            columns = self._columns[action] = ActionColumns(self, action)
        return columns


class ActionColumns:
    """Reward-row columns of one joint action, each set built on first use."""

    def __init__(self, ctx: SimilarityContext, action: tuple[int, ...]):
        # Weak: the context caches this object, and a cycle would keep the
        # chain its path provider reads alive until the collector runs.
        self.ctx = weakref.ref(ctx)
        self.game, self.action = ctx.game, action

    @cached_property
    def executed(self) -> np.ndarray:
        # Each player's column of its own action.
        counts = self.game.action_counts
        return np.add(list(accumulate(counts[:-1], initial=0)), self.action)

    @cached_property
    def prefix(self) -> tuple[np.ndarray, np.ndarray]:
        # Each unplayed action of a player whose played action is not yet
        # the best raw reply, and beside it the played one.
        action, replies = self.action, self.ctx().best_raw_reply
        pairs = [(column - a + b, column)
                 for column, a, count, reply in zip(
                     self.executed.tolist(), action,
                     self.game.action_counts, replies)
                 if not reply[action] for b in range(count) if b != a]
        return tuple(np.array(pairs, dtype=np.int64).reshape(-1, 2).T)

    @cached_property
    def sign(self) -> np.ndarray:
        # No path: ``direction`` on the played columns, minus it elsewhere.
        direction = self.ctx().direction
        sign = np.full(sum(self.game.action_counts), -direction)
        sign[self.executed] = direction
        return sign


# The reward guards.  r1 holds the earlier state's reward row, or a stack of
# them; r2 is the later state's row.  The row guards give one bool per row.

def prefix_guard_holds(r1, r2, columns: ActionColumns, tol: float):
    """No unplayed action gained more than the played one."""
    gain = r2 - r1
    guard, played = columns.prefix
    return ~(gain[..., guard] > gain[..., played] + tol).any(axis=-1)


def executed_reward_kept(r1, r2, columns: ActionColumns, tol: float):
    """No player's executed action lost expected reward."""
    executed = columns.executed
    return ~(r2[executed] < r1[..., executed] - tol).any(axis=-1)


def disjoint_direction_holds(r1, r2, columns: ActionColumns, tol: float):
    """Under fp the played action's reward did not rise and no other's
    dropped; under the discounted variants the reverse."""
    sign = columns.sign
    return (sign * r2 <= r1 * sign + tol).all(axis=-1)


def moved_against(lap1, lap2, direction: float, tol: float):
    """Elementwise: a path step's reward moved against ``direction`` from
    one lap (lap1) to the next (lap2)."""
    return direction * lap2 > lap1 * direction + tol


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


def _path_replay_agrees(s1, s2, ctx: SimilarityContext) -> bool:
    # Replay the path word from s2 and compare against the actual path step
    # by step: same strategies, and the step action's expected reward damped
    # (fp) or strengthened (gfp/afffp) relative to one lap earlier.
    # The word starts with s1's action, which is s2's own, and every later
    # letter must equal the replayed action: the replay is s2's future.
    direction, tol = ctx.direction, ctx.tol
    chain = ctx.path(s1, s2)
    future = _future_of(s2, ctx.game)
    for j in range(1, len(chain)):
        _, rewards, replayed = future[j]
        step = chain[j].pure_action
        if replayed != step:
            return False
        lap1 = chain[j].expected_rewards
        for i, a in enumerate(step):
            if moved_against(lap1[i][a], rewards[i][a], direction, tol):
                return False
    return True


# Bound on the lockstep-replay window for the no-path case; divergence of
# non-equivalent branches shows up within their generation lag.
MAX_LOCKSTEP_HORIZON = 512


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


def similar(s1: ExplorationState, s2: ExplorationState,
            ctx: SimilarityContext, distance: int | None) -> bool:
    """Whether the earlier state s1 subsumes the later state s2.

    ``distance`` is the generation-tree distance from s1 down to s2: 0 for
    the same state, ``None`` when no path exists.
    """
    # States without a predecessor (the initial state and the sink) carry
    # no reward history to compare; they never merge.
    if s1.parent_id is None or s2.parent_id is None:
        return False
    action = s1.pure_action
    if action is None or action != s2.pure_action:
        return False
    # Both states' expected rewards must have grown fastest towards the
    # same action, player by player, relative to their predecessors.
    if s1.reward_gain_argmax != s2.reward_gain_argmax:
        return False
    rows = None
    if s1.predecessor_pure_action == action == s2.predecessor_pure_action:
        columns = ctx.columns(action)
        if columns.prefix[0].size:
            rows = (reward_row(s1.expected_rewards),
                    reward_row(s2.expected_rewards))
            if not prefix_guard_holds(*rows, columns, ctx.tol):
                return False
    if distance == 0:
        return True
    if distance is not None and distance > 1:
        return _path_replay_agrees(s1, s2, ctx)
    # No path: equal predecessors.  Comparing actions is exact: a chain's
    # one mixed state is its initial state, and its children have None here.
    if (distance is None
            and s1.predecessor_pure_action != s2.predecessor_pure_action):
        return False
    columns = ctx.columns(action)
    r1, r2 = rows or (reward_row(s1.expected_rewards),
                      reward_row(s2.expected_rewards))
    if distance == 1:
        return bool(executed_reward_kept(r1, r2, columns, ctx.tol))
    if not disjoint_direction_holds(r1, r2, columns, ctx.tol):
        return False
    horizon = min(max(2 * (s2.depth - s1.depth), 2), MAX_LOCKSTEP_HORIZON)
    return _futures_agree(s1, s2, horizon, ctx)
