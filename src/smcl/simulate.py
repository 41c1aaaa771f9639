"""Monte-Carlo playouts of a learning run.

The first iteration samples each player's action from its smooth best
response, ``learners.smooth_strategy``, with one uniform draw; every later
iteration is a ``learners.best_response_step``.  A single run and a batch
of runs are the same loop over ``learners``' state (a batch is a state with
one row per run), so the simulator shares both steps with the explorer, for
any number of players.  Batches classify each run by the joint actions its
tail keeps repeating, which makes them an independent check on the chain
analysis's absorption probabilities.

Randomness comes from numpy's default bit generator (PCG64).  A single run
draws its first-step uniforms from ``default_rng(seed)``; batch run ``r``
draws them from ``default_rng([seed, r])``, so results are reproducible per
seed within this implementation.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from itertools import islice

import numpy as np

from . import learners
from .game import Game

MAX_CYCLE_PERIOD = 8


@dataclass
class Trace:
    """Per-iteration record of one playout."""

    actions: list  # executed joint action per iteration
    expected_rewards: list  # per-player vectors used for that decision
    estimate_snapshots: dict  # iteration -> {(i, j): estimate array}


def _sample_index(distribution: np.ndarray, u):
    """Inverse-CDF draw along the last axis, one uniform per distribution."""
    cumulative = np.cumsum(distribution, axis=-1)
    idx = (cumulative <= np.expand_dims(u, -1)).sum(axis=-1)
    return np.minimum(idx, distribution.shape[-1] - 1)


def _playout(game: Game, initial, iterations: int, tau0: float,
             uniforms: np.ndarray):
    """Yield ``(state, expected rewards, joint action)`` per iteration.

    ``uniforms`` (..., num_players) holds each run's first-step draws; its
    leading axes are the batch, and each action is an integer array
    (..., num_players).  ``iterations`` must be at least 1.
    """
    state = learners.broadcast(initial, uniforms.shape[:-1])
    rewards = learners.expected_rewards(state, game)
    action = np.stack([
        _sample_index(dist, uniforms[..., i])
        for i, dist in enumerate(learners.smooth_strategy(rewards, tau0))
    ], axis=-1)
    yield state, rewards, action
    steps = learners.best_response_playout(state, game, action)
    # Hold no first-step array while the batch plays on.
    del state, rewards, action
    yield from islice(steps, iterations - 1)


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
    uniforms = np.random.default_rng(seed).random(game.num_players)
    trace = Trace(actions=[], expected_rewards=[], estimate_snapshots={})
    for t, (state, rewards, action) in enumerate(
        _playout(game, initial, iterations, tau0, uniforms)
    ):
        trace.actions.append(tuple(action.tolist()))
        trace.expected_rewards.append(rewards)
        if snapshot_every and t % snapshot_every == 0:
            trace.estimate_snapshots[t] = _snapshot_estimates(game, state)
    return trace


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
    if iterations < 1:
        raise ValueError("iterations must be at least 1")
    window = max(1, min(50, iterations // 2))
    return _classify_batch(
        game, _batch_actions(game, initial, runs, iterations, seed, tau0),
        window,
    )


def _batch_actions(game: Game, initial, runs: int, iterations: int,
                   seed: int, tau0: float) -> np.ndarray:
    """Executed joint actions (runs, iterations, num_players) of a batch.

    Run ``r`` plays as ``simulate(..., seed=[seed, r])`` does; all runs
    advance together as one batch.
    """
    uniforms = np.empty((runs, game.num_players))
    for r in range(runs):
        uniforms[r] = np.random.default_rng([seed, r]).random(
            game.num_players
        )
    actions = np.empty((runs, iterations, game.num_players), dtype=np.int64)
    for t, (_, _, action) in enumerate(
        _playout(game, initial, iterations, tau0, uniforms)
    ):
        actions[:, t] = action
    return actions


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

    flat = np.ravel_multi_index(np.moveaxis(tails, -1, 0),
                                game.action_counts)
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
