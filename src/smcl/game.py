"""Strategic-form games and the two decision rules built on them.

A game is a set of players, one finite action set per player, and a reward
function per player over joint actions.  Rewards are stored densely in
row-major joint-action order (the last player's index varies fastest), so a
joint action is addressable either as a tuple of per-player indices or as a
single flat index.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# Two expected rewards closer than this are treated as equal; the smaller
# action index then wins the argmax.
ARGMAX_TOL = 1e-9


def argmax_with_ties(values: np.ndarray, tol: float = ARGMAX_TOL):
    """Index of the largest entry, smallest index winning near-ties.

    Works along the last axis: an int for a vector, an int array for a
    stack of them.  A NaN maximum raises ``ValueError``.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim > 1:
        # Column-major, so that a stack of short rows reduces column by
        # column rather than one row at a time.
        peak = np.asfortranarray(values).max(axis=-1, keepdims=True)
        if np.isnan(peak).any():
            raise ValueError("no finite maximum in some row")
        return (values >= peak - tol).argmax(axis=-1)
    top = values >= values.max() - tol
    first = int(top.argmax())  # the first True
    if not top[first]:
        raise ValueError(f"no finite maximum in {values}")
    return first


@dataclass(frozen=True)
class Game:
    """An I-player strategic-form game.

    Parameters
    ----------
    action_counts:
        Number of actions available to each player (one entry per player).
    rewards:
        Array of shape ``(num_players, total_joint_actions)`` holding each
        player's reward for every joint action in row-major order.
    """

    action_counts: tuple[int, ...]
    rewards: np.ndarray = field(repr=False)

    def __post_init__(self):
        counts = tuple(int(c) for c in self.action_counts)
        object.__setattr__(self, "action_counts", counts)
        if len(counts) < 2:
            raise ValueError("a game needs at least two players")
        if any(c < 1 for c in counts):
            raise ValueError("every player needs at least one action")
        rewards = np.asarray(self.rewards, dtype=float)
        total = int(np.prod(counts))
        if rewards.shape != (len(counts), total):
            raise ValueError(
                f"rewards must have shape ({len(counts)}, {total}), "
                f"got {rewards.shape}"
            )
        if not np.isfinite(rewards).all():
            raise ValueError("rewards must be finite")
        object.__setattr__(self, "rewards", rewards)

    @classmethod
    def from_tables(cls, tables) -> "Game":
        """Build a game from one reward table per player.

        Each table is an array of shape ``action_counts`` (player 1's axis
        first).  All tables must share that shape.
        """
        arrays = [np.asarray(t, dtype=float) for t in tables]
        shape = arrays[0].shape
        if any(a.shape != shape for a in arrays):
            raise ValueError("all reward tables must share one shape")
        flat = np.stack([a.reshape(-1) for a in arrays])
        return cls(action_counts=shape, rewards=flat)

    @property
    def num_players(self) -> int:
        return len(self.action_counts)

    def reward_tensor(self, player: int) -> np.ndarray:
        """Player's rewards reshaped to one axis per player."""
        return self.rewards[player].reshape(self.action_counts)

    def joint_actions(self):
        """Iterate all joint actions in flat (row-major) order."""
        return np.ndindex(*self.action_counts)

    def flat_index(self, action: tuple[int, ...]) -> int:
        return int(np.ravel_multi_index(action, self.action_counts))

    def validate_joint_action(self, action) -> tuple[int, ...]:
        action = tuple(int(a) for a in action)
        if len(action) != self.num_players:
            raise ValueError(f"joint action {action} has wrong length")
        for i, (a, n) in enumerate(zip(action, self.action_counts)):
            if not 0 <= a < n:
                raise IndexError(f"action {a} out of range for player {i}")
        return action

    def reward(self, player: int, action) -> float:
        """Reward of one player for one joint action."""
        action = self.validate_joint_action(action)
        return float(self.reward_tensor(player)[action])


def expected_reward_vector(game: Game, player: int, estimates) -> np.ndarray:
    """Expected reward of each of the player's actions.

    ``estimates[j]`` is the player's estimated strategy of opponent ``j``
    (``estimates[player]`` is ignored).  Entry ``a`` of the result is the
    reward of action ``a`` averaged over opponent joint actions weighted by
    the product of the per-opponent estimates.  Estimates may carry the
    same leading batch axes; the result then carries them too.
    """
    out = game.reward_tensor(player)
    lead = 0  # batch axes in front of out's player axes
    # Contract opponent axes from the highest down so that remaining axis
    # positions stay valid; the player's own axis survives.  Each unbatched
    # step is the matrix-vector product ``np.tensordot(out, sigma,
    # axes=(axis, 0))`` performs, on the same operand layout (contracted
    # axis moved last), without its argument handling.
    for axis in range(game.num_players - 1, -1, -1):
        if axis == player:
            continue
        sigma = np.asarray(estimates[axis], dtype=float)
        n = game.action_counts[axis]
        if sigma.shape[-1:] != (n,):
            raise ValueError(
                f"missing or malformed estimate for opponent {axis}"
            )
        order = [k for k in range(out.ndim) if k != lead + axis]
        moved = out.transpose(order + [lead + axis])
        rest = moved.shape[lead:-1]
        if lead:
            flat = moved.reshape(moved.shape[:lead] + (-1, n))
            out = (flat * sigma[..., None, :]).sum(axis=-1)
        elif sigma.ndim > 1:
            out = np.dot(sigma, moved.reshape(-1, n).T)
            lead = sigma.ndim - 1
        else:
            out = np.dot(moved.reshape(-1, n), sigma)
        out = out.reshape(out.shape[:lead] + rest)
    return out


def expected_reward(game: Game, player: int, action: int, estimates) -> float:
    """Expected reward of a single action against estimated opponents."""
    if not 0 <= player < game.num_players:
        raise IndexError(f"player {player} out of range")
    if not 0 <= action < game.action_counts[player]:
        raise IndexError(f"action {action} out of range for player {player}")
    return float(expected_reward_vector(game, player, estimates)[action])


def best_response(game: Game, player: int, estimates) -> int:
    """Action maximising expected reward; ties go to the smallest index."""
    return argmax_with_ties(expected_reward_vector(game, player, estimates))


def smooth_best_response(
    game: Game, player: int, estimates, tau: float
) -> np.ndarray:
    """Softmax over expected rewards with temperature ``tau``.

    Computed with a max shift so that tiny temperatures (e.g. 1e-4 on
    unit-scale rewards) do not overflow.  The result is strictly positive
    and sums to 1.
    """
    return softmax(expected_reward_vector(game, player, estimates), tau)


def softmax(values: np.ndarray, tau: float) -> np.ndarray:
    """Softmax along the last axis with temperature ``tau``, max-shifted."""
    if not tau > 0:
        raise ValueError(f"tau must be positive, got {tau}")
    weights = np.exp((values - values.max(axis=-1, keepdims=True)) / tau)
    return weights / weights.sum(axis=-1, keepdims=True)


def is_pure_nash(game: Game, action) -> bool:
    """True when no player gains by a unilateral deviation from ``action``."""
    action = game.validate_joint_action(action)
    for i in range(game.num_players):
        slicer = tuple(
            a if j != i else slice(None) for j, a in enumerate(action)
        )
        row = game.reward_tensor(i)[slicer]
        if row.max() > row[action[i]]:
            return False
    return True


def is_pareto_efficient_pure(game: Game, action) -> bool:
    """True when no other joint action strictly improves every player."""
    action = game.validate_joint_action(action)
    flat = game.flat_index(action)
    own = game.rewards[:, flat][:, None]
    dominated = (game.rewards > own).all(axis=0)
    return not bool(dominated.any())


def has_common_maximizer(game: Game, tol: float = 1e-12) -> bool:
    """True when one joint action gives every player its maximum reward.

    Games with such an action are cooperative in the sense that a single
    outcome satisfies everybody; games without one force the players to
    share the top payoffs over time.
    """
    per_player_max = game.rewards.max(axis=1, keepdims=True)
    hits = game.rewards >= per_player_max - tol
    return bool(hits.all(axis=0).any())
