"""Opponent-strategy estimation engines: FP, GFP and AFFFP.

Every engine keeps, for each ordered pair (observer i, opponent j != i),
enough data to produce a probability distribution over opponent j's actions.
States are value-semantic snapshots: ``observe`` never mutates, it returns
the successor state.

FP counts observed actions.  Starting from weights normalised to sum 1 per
pair, each observation adds 1 to the observed action's weight; the estimate
is the normalised weight vector.

GFP keeps the estimate directly and discounts it geometrically: after
observing action a, ``sigma = (1 - alpha) * sigma + alpha * indicator(a)``.

AFFFP discounts FP weights by an adaptive factor lambda, maintained per
ordered pair together with the running normaliser n and the derivatives of
both with respect to lambda.  One observation of action ``a`` applies, in
this order and with every right-hand side read from the pre-update values:

    lambda' = clamp(lambda + gamma * (dk(a)/k(a) - dn/n), lambda_min, 1)
    dk_new  = k + lambda * dk          (all actions)
    dn_new  = n + lambda * dn
    k_new   = lambda * k + indicator(a)
    n_new   = lambda * n + 1

after which lambda' is stored for the next step.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

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


def _normalised_weights(raw_weights, num_players, action_counts):
    """Validate and normalise raw per-pair weights to sum 1."""
    out = {}
    for i, j in ordered_pairs(num_players):
        try:
            raw = np.asarray(raw_weights[(i, j)], dtype=float)
        except KeyError:
            raise ValueError(f"missing weights for pair ({i}, {j})") from None
        if raw.shape != (action_counts[j],):
            raise ValueError(
                f"weights for pair ({i}, {j}) must have length "
                f"{action_counts[j]}, got {raw.shape}"
            )
        if not np.isfinite(raw).all():
            raise ValueError(f"weights for pair ({i}, {j}) must be finite")
        if not (raw > 0).all():
            raise ValueError(f"weights for pair ({i}, {j}) must be positive")
        out[(i, j)] = raw / raw.sum()
    return out


@dataclass(frozen=True)
class FpState:
    """Count-based weights per ordered pair plus the iteration counter."""

    weights: dict
    iteration: int = 0

    def observe(self, executed) -> "FpState":
        new = {}
        for (i, j), kappa in self.weights.items():
            kappa = kappa.copy()
            kappa[executed[j]] += 1.0
            new[(i, j)] = kappa
        return FpState(weights=new, iteration=self.iteration + 1)

    def estimates_for(self, observer: int, num_players: int):
        out = [None] * num_players
        for j in range(num_players):
            if j != observer:
                kappa = self.weights[(observer, j)]
                out[j] = kappa / kappa.sum()
        return tuple(out)


@dataclass(frozen=True)
class GfpState:
    """Directly stored estimates with geometric discount ``alpha``."""

    estimates: dict
    alpha: float

    def observe(self, executed) -> "GfpState":
        new = {}
        for (i, j), sigma in self.estimates.items():
            sigma = (1.0 - self.alpha) * sigma
            sigma[executed[j]] += self.alpha
            new[(i, j)] = sigma
        return GfpState(estimates=new, alpha=self.alpha)

    def estimates_for(self, observer: int, num_players: int):
        out = [None] * num_players
        for j in range(num_players):
            if j != observer:
                out[j] = self.estimates[(observer, j)]
        return tuple(out)


@dataclass(frozen=True)
class AfffpState:
    """Discounted weights with a per-pair adaptive forgetting factor."""

    weights: dict          # (i, j) -> weight vector over A^j
    norms: dict            # (i, j) -> running sum of the weight vector
    lams: dict             # (i, j) -> forgetting factor in [lambda_min, 1]
    dweights: dict         # (i, j) -> d weights / d lambda
    dnorms: dict           # (i, j) -> d norm / d lambda
    gamma: float
    lambda_min: float = DEFAULT_LAMBDA_MIN

    def observe(self, executed) -> "AfffpState":
        weights, norms, lams = {}, {}, {}
        dweights, dnorms = {}, {}
        for pair, kappa in self.weights.items():
            j = pair[1]
            obs = executed[j]
            lam = self.lams[pair]
            n = self.norms[pair]
            dk = self.dweights[pair]
            dn = self.dnorms[pair]

            step = dk[obs] / kappa[obs] - dn / n
            lam_next = min(max(lam + self.gamma * step, self.lambda_min), 1.0)

            dweights[pair] = kappa + lam * dk
            dnorms[pair] = n + lam * dn
            new_kappa = lam * kappa
            new_kappa[obs] += 1.0
            weights[pair] = new_kappa
            norms[pair] = lam * n + 1.0
            lams[pair] = lam_next
        return replace(
            self,
            weights=weights,
            norms=norms,
            lams=lams,
            dweights=dweights,
            dnorms=dnorms,
        )

    def estimates_for(self, observer: int, num_players: int):
        out = [None] * num_players
        for j in range(num_players):
            if j != observer:
                pair = (observer, j)
                out[j] = self.weights[pair] / self.norms[pair]
        return tuple(out)


LearnerState = FpState | GfpState | AfffpState


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
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}")
    weights = _normalised_weights(
        raw_weights, game.num_players, game.action_counts
    )
    if algorithm == "fp":
        return FpState(weights=weights, iteration=0)
    if algorithm == "gfp":
        if alpha is None:
            raise ValueError("gfp requires alpha")
        if not 0.0 < alpha < 1.0:
            raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
        return GfpState(estimates=weights, alpha=float(alpha))
    if lambda0 is None:
        raise ValueError("afffp requires lambda0")
    if not 0.0 < lambda0 <= 1.0:
        raise ValueError(f"lambda0 must lie in (0, 1], got {lambda0}")
    gamma = DEFAULT_GAMMA if gamma is None else float(gamma)
    if not 0.0 < gamma <= 1.0:
        raise ValueError(f"gamma must lie in (0, 1], got {gamma}")
    pairs = list(weights)
    return AfffpState(
        weights=weights,
        norms={p: 1.0 for p in pairs},
        lams={p: float(lambda0) for p in pairs},
        dweights={p: np.zeros_like(weights[p]) for p in pairs},
        dnorms={p: 0.0 for p in pairs},
        gamma=gamma,
        lambda_min=float(lambda_min),
    )


def observe(state: LearnerState, game, executed) -> LearnerState:
    """Successor state after all players observe an executed joint action."""
    executed = game.validate_joint_action(executed)
    return state.observe(executed)


def estimates(state: LearnerState, observer: int, game):
    """The observer's current estimate of each opponent's strategy.

    Returns a tuple indexed by player; the observer's own slot is ``None``.
    """
    if not 0 <= observer < game.num_players:
        raise IndexError(f"observer {observer} out of range")
    return state.estimates_for(observer, game.num_players)


def algorithm_of(state: LearnerState) -> str:
    if isinstance(state, FpState):
        return "fp"
    if isinstance(state, GfpState):
        return "gfp"
    return "afffp"
