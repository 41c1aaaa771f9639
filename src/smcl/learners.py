"""Opponent-strategy estimation engines: FP, GFP and AFFFP on one state.

Every engine keeps, for each ordered pair (observer i, opponent j != i),
enough data to produce a probability distribution over opponent j's actions.
All three share one state type, ``LearnerState``: an ``algorithm`` tag, the
scalar parameters, and five arrays with one row per ordered pair, pairs in
observer-major order (``ordered_pairs``):

* ``weights`` (..., P, A): the pair's weights over opponent j's actions,
  zero-padded from j's action count to the game's largest count A;
* ``norms`` (..., P): the weights divided by this are the estimate;
* ``lams`` (..., P), ``dweights`` (..., P, A), ``dnorms`` (..., P): AFFFP's
  forgetting factor and the derivatives of weights and norms with respect
  to it.  FP and GFP carry them unchanged.

A batch of states carries the same leading batch axes on every array, one
row per independent run (``broadcast`` makes one from a single state).
``observe``, ``estimates`` and ``expected_rewards`` work along the trailing
axes, and so do the two learning steps: ``smooth_strategy``, the first
iteration's softmax over expected rewards, and ``best_response_step``,
every later one; ``best_response_playout`` repeats the second, feeding
each step's choices back in.  The simulator steps all its playouts at once
with it, the explorer all the first-step branches of a chain that does not
merge, and a merging explorer one unbatched state at a time.  States are
value-semantic snapshots: ``observe`` never mutates, it returns the
successor state.

FP counts observed actions.  Starting from weights normalised to sum 1 per
pair, each observation adds 1 to the observed action's weight; the norm is
the weights' sum, so the estimate is the normalised weight vector.

GFP keeps the estimate directly (its norm stays 1) and discounts it
geometrically: after observing action a,
``sigma = (1 - alpha) * sigma + alpha * indicator(a)``.

AFFFP discounts FP weights by an adaptive factor lambda, maintained per
ordered pair together with the running normaliser n and the derivatives of
both with respect to lambda.  One observation of action ``a`` applies, in
this order and with every right-hand side read from the pre-update values:

    lambda' = clamp(lambda + gamma * (dk(a)/k(a) - dn/n), lambda_min, 1)
    dk_new  = k + lambda * dk          (all actions)
    dn_new  = n + lambda * dn
    k_new   = lambda * k + indicator(a)
    n_new   = lambda * n + 1

after which lambda' is stored for the next step (Smyrnakis & Leslie,
"Dynamic opponent modelling in fictitious play", Computer Journal 2010).

Every indicator is added as an exact one-hot array (``x + 0.0 == x``), so a
batch row's learner arrays are bit-identical to the same state stepped on
its own; its expected rewards go through another BLAS call and agree to
rounding.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

import numpy as np

from . import game as games

ALGORITHMS = ("fp", "gfp", "afffp")

DEFAULT_GAMMA = 0.05
DEFAULT_LAMBDA_MIN = 0.01


def ordered_pairs(num_players: int):
    """All (observer, opponent) pairs, observer-major order."""
    return [
        (i, j)
        for i in range(num_players)
        for j in range(num_players)
        if j != i
    ]


class _Layout:
    """Per action-count tuple: pair opponents, one-hot rows, unpadded mask.

    ``hits`` maps each joint action seen so far to its per-pair one-hot
    rows; only validated actions enter it.
    """

    def __init__(self, action_counts: tuple[int, ...]):
        self.opponents = np.array(
            [j for _, j in ordered_pairs(len(action_counts))], dtype=np.int64
        )
        self.widths = [action_counts[j] for j in self.opponents]
        self.padded = len(set(self.widths)) > 1
        width = max(action_counts)
        self.one_hot = np.eye(width)
        self.real = np.arange(width) < np.array(self.widths)[:, None]
        self.hits: dict[tuple[int, ...], np.ndarray] = {}

    def row_sums(self, weights: np.ndarray) -> np.ndarray:
        """Each pair's weight sum over its own columns only: zero padding
        would change numpy's pairwise summation order from 8 columns on."""
        if not self.padded:
            return weights.sum(axis=-1)
        return np.stack([weights[..., k, :n].sum(axis=-1)
                         for k, n in enumerate(self.widths)], axis=-1)


_layout = lru_cache(maxsize=None)(_Layout)


class LearnerState(NamedTuple):
    """One learner state, or a batch of them (see the module doc)."""

    algorithm: str
    weights: np.ndarray
    norms: np.ndarray
    lams: np.ndarray
    dweights: np.ndarray
    dnorms: np.ndarray
    alpha: float | None = None
    gamma: float | None = None
    lambda_min: float | None = None


def check_parameters(
    algorithm: str,
    *,
    alpha: float | None = None,
    lambda0: float | None = None,
    gamma: float = DEFAULT_GAMMA,
    lambda_min: float = DEFAULT_LAMBDA_MIN,
) -> None:
    """Raise ``ValueError`` naming the first missing or out-of-range
    parameter of ``algorithm``; parameters it does not use are ignored."""
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}")
    if algorithm == "gfp":
        if alpha is None:
            raise ValueError("gfp requires alpha")
        if not 0.0 < alpha < 1.0:
            raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    elif algorithm == "afffp":
        if lambda0 is None:
            raise ValueError("afffp requires lambda0")
        for name, value in [("lambda0", lambda0), ("gamma", gamma),
                            ("lambda_min", lambda_min)]:
            if not 0.0 < value <= 1.0:
                raise ValueError(f"{name} must lie in (0, 1], got {value}")


def _normalised_weights(raw_weights, game) -> np.ndarray:
    """Validate raw per-pair weights; rows normalised to sum 1, padded."""
    out = np.zeros(_layout(game.action_counts).real.shape)
    for k, (i, j) in enumerate(ordered_pairs(game.num_players)):
        try:
            raw = np.asarray(raw_weights[(i, j)], dtype=float)
        except KeyError:
            raise ValueError(f"missing weights for pair ({i}, {j})") from None
        if raw.shape != (game.action_counts[j],):
            raise ValueError(
                f"weights for pair ({i}, {j}) must have length "
                f"{game.action_counts[j]}, got {raw.shape}"
            )
        if not np.isfinite(raw).all():
            raise ValueError(f"weights for pair ({i}, {j}) must be finite")
        if not (raw > 0).all():
            raise ValueError(f"weights for pair ({i}, {j}) must be positive")
        out[k, :len(raw)] = raw / raw.sum()
    return out


def initial_state(
    algorithm: str,
    game,
    raw_weights,
    *,
    alpha: float | None = None,
    lambda0: float | None = None,
    gamma: float | None = None,
    lambda_min: float = DEFAULT_LAMBDA_MIN,
) -> LearnerState:
    """Build the starting state of an estimation engine.

    ``raw_weights`` maps every ordered pair (observer, opponent) to a
    strictly positive sequence over the opponent's actions; the sequences
    are normalised to sum 1.
    """
    gamma = DEFAULT_GAMMA if gamma is None else float(gamma)
    check_parameters(algorithm, alpha=alpha, lambda0=lambda0, gamma=gamma,
                     lambda_min=lambda_min)
    weights = _normalised_weights(raw_weights, game)
    pairs = len(weights)
    return LearnerState(
        algorithm=algorithm,
        weights=weights,
        norms=_layout(game.action_counts).row_sums(weights)
        if algorithm == "fp" else np.ones(pairs),
        lams=np.full(pairs, float(lambda0) if algorithm == "afffp" else 1.0),
        dweights=np.zeros_like(weights),
        dnorms=np.zeros(pairs),
        alpha=None if alpha is None else float(alpha),
        gamma=gamma,
        lambda_min=float(lambda_min),
    )


_ARRAYS = ("weights", "norms", "lams", "dweights", "dnorms")


def broadcast(state: LearnerState, batch_shape) -> LearnerState:
    """An unbatched state repeated along leading batch axes, as views."""
    return state._replace(**{
        name: np.broadcast_to(getattr(state, name),
                              tuple(batch_shape) + getattr(state, name).shape)
        for name in _ARRAYS
    })


def row(state: LearnerState, index) -> LearnerState:
    """One state of a batch with one batch axis, as views."""
    return state._replace(**{name: getattr(state, name)[index]
                             for name in _ARRAYS})


def matches(state: LearnerState, game) -> bool:
    """Whether an unbatched state has the game's pairs and action counts."""
    real = _layout(game.action_counts).real
    weights = np.asarray(state.weights)
    return weights.shape == real.shape and np.array_equal(weights > 0, real)


def _indicators(layout: _Layout, game, executed) -> np.ndarray:
    """Per pair, the one-hot row of the action its opponent executed.

    ``executed`` is one joint action or an integer array of them with
    leading batch axes; malformed actions raise.
    """
    if isinstance(executed, np.ndarray) and executed.ndim > 1:
        if executed.dtype.kind not in "iu" \
                or executed.shape[-1] != game.num_players:
            raise ValueError("joint actions have the wrong shape or type")
        for i, count in enumerate(game.action_counts):
            if not 0 <= executed[..., i].min() <= executed[..., i].max() \
                    < count:
                raise IndexError(f"action out of range for player {i}")
        return layout.one_hot.take(executed[..., layout.opponents], axis=0)
    try:
        return layout.hits[executed]
    except (KeyError, TypeError):  # not seen yet, or not a tuple
        action = game.validate_joint_action(executed)
    hit = layout.one_hot.take(np.array(action)[layout.opponents], axis=0)
    hit.flags.writeable = False
    layout.hits[action] = hit
    return hit


def observe(state: LearnerState, game, executed) -> LearnerState:
    """Successor state after all players observe an executed joint action.

    For a batch, ``executed`` is an integer array with the state's batch
    axes followed by one axis over the players.
    """
    layout = _layout(game.action_counts)
    hit = _indicators(layout, game, executed)
    weights = state.weights
    if state.algorithm == "fp":
        weights = weights + hit
        return state._replace(weights=weights,
                              norms=layout.row_sums(weights))
    if state.algorithm == "gfp":
        return state._replace(
            weights=(1.0 - state.alpha) * weights + state.alpha * hit
        )
    lams, norms, dweights, dnorms = \
        state.lams, state.norms, state.dweights, state.dnorms
    observed = hit.ravel().nonzero()[0]  # flat index of each pair's entry
    step = (dweights.take(observed) / weights.take(observed)).reshape(
        lams.shape
    ) - dnorms / norms
    lam_next = np.minimum(
        np.maximum(lams + state.gamma * step, state.lambda_min), 1.0
    )
    factor = lams[..., None]
    return LearnerState(
        state.algorithm,
        weights=factor * weights + hit,
        norms=lams * norms + 1.0,
        lams=lam_next,
        dweights=weights + factor * dweights,
        dnorms=norms + lams * dnorms,
        gamma=state.gamma,
        lambda_min=state.lambda_min,
    )


def _split(sigma: np.ndarray, observer: int, game):
    """The observer's rows of per-pair estimates, indexed by player."""
    out = [None] * game.num_players
    k = observer * (game.num_players - 1)
    for j, count in enumerate(game.action_counts):
        if j != observer:
            out[j] = sigma[..., k, :count]
            k += 1
    return tuple(out)


def estimates(state: LearnerState, observer: int, game):
    """The observer's current estimate of each opponent's strategy.

    Returns a tuple indexed by player; the observer's own slot is ``None``.
    """
    if not 0 <= observer < game.num_players:
        raise IndexError(f"observer {observer} out of range")
    return _split(state.weights / state.norms[..., None], observer, game)


def expected_rewards(state: LearnerState, game) -> tuple[np.ndarray, ...]:
    """Per player, the expected reward (..., n_i) of each own action."""
    sigma = state.weights / state.norms[..., None]
    return tuple(
        games.expected_reward_vector(game, i, _split(sigma, i, game))
        for i in range(game.num_players)
    )


def smooth_strategy(rewards, tau: float) -> tuple[np.ndarray, ...]:
    """The first step: per player, the softmax of its expected rewards
    ``rewards`` (from ``expected_rewards``) with temperature ``tau``."""
    return tuple(games.softmax(r, tau) for r in rewards)


def best_response_step(state: LearnerState, game, executed):
    """One step past the first iteration, for one state or a batch.

    All players observe ``executed``, then each plays a best response to
    its new estimates.  Returns ``(state, expected_rewards, choice)`` after
    the step; ``choice`` holds per player an int, or for a batch an integer
    array over the batch axes, each row as the row stepped on its own.
    """
    state = observe(state, game, executed)
    rewards = expected_rewards(state, game)
    return state, rewards, tuple(games.argmax_with_ties(r) for r in rewards)


def best_response_playout(state: LearnerState, game, executed):
    """Yield ``best_response_step``'s ``(state, expected_rewards, action)``
    for ever, each step observing the action chosen by the step before.

    ``state`` is a batch and ``executed`` the integer array (..., num_players)
    of the joint actions it observes first; each yielded action is such an
    array.
    """
    while True:
        state, rewards, chosen = best_response_step(state, game, executed)
        executed = np.stack(chosen, axis=-1)
        yield state, rewards, executed
