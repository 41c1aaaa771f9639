"""Monte-Carlo playouts of a learning run.

The first iteration samples the joint action from the smooth-best-response
product distribution with a seeded generator; every later iteration plays
the deterministic best response.  Batches classify each run by the joint
actions its tail keeps repeating, which makes them an independent check on
the chain analysis's absorption probabilities.

Randomness comes from numpy's default bit generator (PCG64).  A single run
seeds it with the ``seed`` argument directly; batch run ``r`` uses the
stream ``default_rng([seed, r])``, so results are reproducible per seed
within this implementation.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from . import learners
from .game import Game, argmax_with_ties, smooth_best_response
from .learners import AfffpState, FpState, GfpState
from .similarity import _rewards_of

MAX_CYCLE_PERIOD = 8


@dataclass
class Trace:
    """Per-iteration record of one playout."""

    actions: list  # executed joint action per iteration
    expected_rewards: list  # per-player vectors used for that decision
    estimate_snapshots: dict  # iteration -> {(i, j): estimate array}


def _sample_index(distribution: np.ndarray, u: float) -> int:
    cumulative = np.cumsum(distribution)
    idx = int(np.searchsorted(cumulative, u, side="right"))
    return min(idx, len(distribution) - 1)


def simulate(
    game: Game,
    initial,
    iterations: int,
    tau0: float,
    seed,
    snapshot_every: int = 0,
) -> Trace:
    """Play the game ``iterations`` times with one learner state.

    ``snapshot_every`` > 0 additionally records the opponent estimates every
    that many iterations.
    """
    if iterations < 1:
        raise ValueError("iterations must be at least 1")
    rng = np.random.default_rng(seed)
    state = initial
    actions, reward_log, snapshots = [], [], {}
    for t in range(iterations):
        rewards = _rewards_of(game, state)
        if t == 0:
            chosen = []
            for i in range(game.num_players):
                dist = smooth_best_response(
                    game, i, learners.estimates(state, i, game), tau0
                )
                chosen.append(_sample_index(dist, rng.random()))
            action = tuple(chosen)
        else:
            action = tuple(argmax_with_ties(r) for r in rewards)
        actions.append(action)
        reward_log.append(tuple(rewards))
        if snapshot_every and t % snapshot_every == 0:
            snapshots[t] = _snapshot_estimates(game, state)
        state = learners.observe(state, game, action)
    return Trace(
        actions=actions,
        expected_rewards=reward_log,
        estimate_snapshots=snapshots,
    )


def _snapshot_estimates(game: Game, state):
    out = {}
    for i in range(game.num_players):
        ests = learners.estimates(state, i, game)
        for j, sigma in enumerate(ests):
            if sigma is not None:
                out[(i, j)] = np.array(sigma)
    return out


def trace_to_csv(trace: Trace, game: Game, path) -> None:
    """Write a trace as CSV: iteration, action and realised reward columns."""
    header = (
        ["iter"]
        + [f"action_{i}" for i in range(game.num_players)]
        + [f"reward_{i}" for i in range(game.num_players)]
    )
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        for t, action in enumerate(trace.actions):
            rewards = [game.reward(i, action) for i in range(game.num_players)]
            writer.writerow([t, *action, *[repr(r) for r in rewards]])


def classify_tail(actions, window: int):
    """Action set of the repeating tail pattern, or None when irregular.

    Looks for the smallest period p <= 8 such that the last ``window``
    actions repeat with period p (and the window shows the pattern at least
    twice).
    """
    tail = actions[-window:]
    w = len(tail)
    for period in range(1, min(MAX_CYCLE_PERIOD, w // 2) + 1):
        if all(tail[k] == tail[k + period] for k in range(w - period)):
            return frozenset(tail[:period])
    return None


@dataclass
class EmpiricalResult:
    """Tail-classified outcome frequencies of a batch of playouts."""

    runs: int
    frequencies: dict  # frozenset of joint actions -> fraction of runs
    unresolved: float  # fraction with no short repeating tail pattern
    mean_terminal_rewards: tuple  # per player, mean reward over tail windows


def empirical_convergence(
    game: Game, initial, runs: int, iterations: int, seed: int,
    tau0: float = 0.01,
) -> EmpiricalResult:
    """Frequency of each repeating tail action set over many playouts."""
    if runs < 1:
        raise ValueError("runs must be at least 1")
    window = max(1, min(50, iterations // 2))
    if game.num_players == 2:
        all_actions = _batch_actions_two_player(
            game, initial, runs, iterations, seed, tau0
        )
        return _classify_batch(game, all_actions, window)

    counts: dict = {}
    unresolved = 0
    reward_totals = np.zeros(game.num_players)
    for r in range(runs):
        actions = simulate(game, initial, iterations, tau0, [seed, r]).actions
        label = classify_tail(actions, window)
        if label is None:
            unresolved += 1
        else:
            counts[label] = counts.get(label, 0) + 1
        tail = actions[-window:]
        for i in range(game.num_players):
            reward_totals[i] += np.mean([game.reward(i, a) for a in tail])
    return EmpiricalResult(
        runs=runs,
        frequencies={k: v / runs for k, v in counts.items()},
        unresolved=unresolved / runs,
        mean_terminal_rewards=tuple(reward_totals / runs),
    )


def _classify_batch(game: Game, all_actions: np.ndarray, window: int):
    """Vectorised tail classification; same labels as ``classify_tail``."""
    runs = all_actions.shape[0]
    tails = all_actions[:, -window:, :]
    periods = np.zeros(runs, dtype=np.int64)
    for p in range(1, min(MAX_CYCLE_PERIOD, window // 2) + 1):
        repeats = (tails[:, :-p, :] == tails[:, p:, :]).all(axis=(1, 2))
        periods[(periods == 0) & repeats] = p

    counts: dict = {}
    for r in range(runs):
        p = int(periods[r])
        if p == 0:
            continue
        label = frozenset(
            tuple(int(a) for a in tails[r, k]) for k in range(p)
        )
        counts[label] = counts.get(label, 0) + 1

    flat = tails[:, :, 0] * game.action_counts[1] + tails[:, :, 1]
    means = [
        float(game.rewards[i][flat].mean(axis=1).mean())
        for i in range(game.num_players)
    ]
    return EmpiricalResult(
        runs=runs,
        frequencies={k: v / runs for k, v in counts.items()},
        unresolved=float((periods == 0).sum()) / runs,
        mean_terminal_rewards=tuple(means),
    )


def _vectorised_argmax(values: np.ndarray, tol: float = 1e-9) -> np.ndarray:
    cutoff = values.max(axis=1, keepdims=True) - tol
    return np.argmax(values >= cutoff, axis=1)


def _batch_actions_two_player(
    game: Game, initial, runs: int, iterations: int, seed: int, tau0: float
) -> np.ndarray:
    """All executed actions of a 2-player batch, vectorised across runs.

    Equivalent to looping ``simulate`` with seeds ``[seed, r]``: the same
    per-run streams drive the first-iteration sampling, and the later
    iterations are deterministic.
    """
    n0, n1 = game.action_counts
    r0 = game.reward_tensor(0)  # (n0, n1)
    r1 = game.reward_tensor(1)
    uniforms = np.empty((runs, 2))
    for r in range(runs):
        rng = np.random.default_rng([seed, r])
        uniforms[r, 0] = rng.random()
        uniforms[r, 1] = rng.random()

    if isinstance(initial, FpState):
        kind = "fp"
        k01 = np.tile(initial.weights[(0, 1)], (runs, 1))
        k10 = np.tile(initial.weights[(1, 0)], (runs, 1))
    elif isinstance(initial, GfpState):
        kind = "gfp"
        alpha = initial.alpha
        s01 = np.tile(initial.estimates[(0, 1)], (runs, 1))
        s10 = np.tile(initial.estimates[(1, 0)], (runs, 1))
    elif isinstance(initial, AfffpState):
        kind = "afffp"
        k01 = np.tile(initial.weights[(0, 1)], (runs, 1))
        k10 = np.tile(initial.weights[(1, 0)], (runs, 1))
        n01 = np.full(runs, initial.norms[(0, 1)])
        n10 = np.full(runs, initial.norms[(1, 0)])
        lam01 = np.full(runs, initial.lams[(0, 1)])
        lam10 = np.full(runs, initial.lams[(1, 0)])
        dk01 = np.tile(initial.dweights[(0, 1)], (runs, 1))
        dk10 = np.tile(initial.dweights[(1, 0)], (runs, 1))
        dn01 = np.full(runs, initial.dnorms[(0, 1)])
        dn10 = np.full(runs, initial.dnorms[(1, 0)])
        gamma, lam_min = initial.gamma, initial.lambda_min
    else:
        raise TypeError(f"unsupported learner state {type(initial)!r}")

    rows = np.arange(runs)
    actions = np.empty((runs, iterations, 2), dtype=np.int64)
    for t in range(iterations):
        if kind == "fp":
            s01_now = k01 / k01.sum(axis=1, keepdims=True)
            s10_now = k10 / k10.sum(axis=1, keepdims=True)
        elif kind == "gfp":
            s01_now, s10_now = s01, s10
        else:
            s01_now = k01 / n01[:, None]
            s10_now = k10 / n10[:, None]
        e0 = s01_now @ r0.T  # (runs, n0)
        e1 = s10_now @ r1
        if t == 0:
            a0 = _sample_rows(_softmax_rows(e0, tau0), uniforms[:, 0])
            a1 = _sample_rows(_softmax_rows(e1, tau0), uniforms[:, 1])
        else:
            a0 = _vectorised_argmax(e0)
            a1 = _vectorised_argmax(e1)
        actions[:, t, 0] = a0
        actions[:, t, 1] = a1

        if kind == "fp":
            k01[rows, a1] += 1.0
            k10[rows, a0] += 1.0
        elif kind == "gfp":
            s01 *= 1.0 - alpha
            s01[rows, a1] += alpha
            s10 *= 1.0 - alpha
            s10[rows, a0] += alpha
        else:
            k01, n01, lam01, dk01, dn01 = _afffp_step(
                k01, n01, lam01, dk01, dn01, a1, rows, gamma, lam_min
            )
            k10, n10, lam10, dk10, dn10 = _afffp_step(
                k10, n10, lam10, dk10, dn10, a0, rows, gamma, lam_min
            )
    return actions


def _softmax_rows(values: np.ndarray, tau: float) -> np.ndarray:
    shifted = (values - values.max(axis=1, keepdims=True)) / tau
    weights = np.exp(shifted)
    return weights / weights.sum(axis=1, keepdims=True)


def _sample_rows(distributions: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    cumulative = np.cumsum(distributions, axis=1)
    idx = (cumulative <= uniforms[:, None]).sum(axis=1)
    return np.minimum(idx, distributions.shape[1] - 1)


def _afffp_step(kappa, norm, lam, dkappa, dnorm, observed, rows, gamma,
                lam_min):
    step = dkappa[rows, observed] / kappa[rows, observed] - dnorm / norm
    lam_next = np.clip(lam + gamma * step, lam_min, 1.0)
    dkappa_new = kappa + lam[:, None] * dkappa
    dnorm_new = norm + lam * dnorm
    kappa_new = lam[:, None] * kappa
    kappa_new[rows, observed] += 1.0
    norm_new = lam * norm + 1.0
    return kappa_new, norm_new, lam_next, dkappa_new, dnorm_new
