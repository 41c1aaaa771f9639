"""Correctness checks that do not trust the code under test.

``chain_invariants`` checks the shape every explored chain must have.  The
rest is an independent two-player implementation of the fp, gfp and afffp
update rules on plain floats, used as a merge-free oracle: every first-step
branch of a chain is played forward with deterministic best responses and
its tail cycle is compared with the component the chain sent it to.  The
same playouts, combined with the simulator's documented seeding (run ``r``
of a batch draws its first action from ``default_rng([seed, r])``), give the
exact outcome counts a batch of Monte-Carlo playouts must report.
"""

from __future__ import annotations

import copy
import math

import numpy as np

ARGMAX_TOL = 1e-9  # rewards this close tie; the smallest action index wins
PROB_TOL = 1e-9
ZERO_REWARD = 1e-12
MAX_PERIOD = 8
PAIRS = ((0, 1), (1, 0))  # (observer, opponent)


def chain_invariants(dtmc, run: dict) -> list[str]:
    """Problems with an explored chain and its report entry, if any."""
    problems = []
    initial = dtmc.initial_id
    for sid in range(dtmc.num_states):
        out = dtmc.out(sid)
        total = sum(t.probability for t in out)
        if abs(total - 1.0) > PROB_TOL:
            problems.append(f"state {sid}: row sums to {total!r}")
        targets = {t.target for t in out if t.probability > 0}
        if initial in targets:
            problems.append(f"state {sid}: re-enters the initial state")
        if sid != initial and len(targets) != 1:
            problems.append(f"state {sid}: {len(targets)} successors")
        if len(problems) >= 5:
            return problems
    absorbed = sum(b["reach_probability"] for b in run["bsccs"])
    if abs(absorbed - 1.0) > PROB_TOL:
        problems.append(f"absorption probabilities sum to {absorbed!r}")
    for b in run["bsccs"]:
        size = len(b["steady_state"])
        if any(abs(p - 1.0 / size) > PROB_TOL
               for p in b["steady_state"].values()):
            problems.append(f"BSCC {b['members'][:3]}: steady state "
                            "is not uniform")
    return problems


class TwoPlayerGame:
    """Reward tables of a two-player game as nested float lists."""

    def __init__(self, game):
        if game.num_players != 2:
            raise ValueError("the oracle covers two-player games only")
        self.counts = game.action_counts
        self.tables = [game.reward_tensor(i).tolist() for i in range(2)]

    def expected_rewards(self, estimates):
        """Per player, expected reward of each own action."""
        (n0, n1), (r0, r1) = self.counts, self.tables
        s01, s10 = estimates
        e0 = [sum(r0[a][b] * s01[b] for b in range(n1)) for a in range(n0)]
        e1 = [sum(r1[a][b] * s10[a] for a in range(n0)) for b in range(n1)]
        return e0, e1

    def reward(self, player: int, action) -> float:
        return self.tables[player][action[0]][action[1]]

    def label(self, actions: frozenset) -> str:
        """Classification of a tail cycle, from the definitions."""
        reward = self.reward
        everything = [(a, b) for a in range(self.counts[0])
                      for b in range(self.counts[1])]
        if len(actions) == 1:
            (a,) = actions
            deviations = (
                [(x, a[1]) for x in range(self.counts[0])],
                [(a[0], y) for y in range(self.counts[1])],
            )
            nash = all(
                max(reward(i, d) for d in deviations[i]) <= reward(i, a)
                for i in range(2)
            )
            if not nash:
                return "MixedCycle"
            dominated = any(
                all(reward(i, o) > reward(i, a) for i in range(2))
                for o in everything
            )
            return "PureNashNonPareto" if dominated else "PureNashPareto"
        rewardless = all(
            any(abs(reward(i, a)) <= ZERO_REWARD for i in range(2))
            for a in actions
        )
        best = [max(reward(i, o) for o in everything) for i in range(2)]
        common = any(
            all(reward(i, o) >= best[i] - ZERO_REWARD for i in range(2))
            for o in everything
        )
        return "RewardlessCycle" if rewardless and common else "MixedCycle"


class Learner:
    """One learner's per-pair parameters, updated by the paper's rules."""

    def __init__(self, algorithm: str, weights: dict, alpha=None,
                 lambda0=None, gamma=0.05, lambda_min=0.01):
        self.algorithm = algorithm
        self.alpha, self.gamma, self.lambda_min = alpha, gamma, lambda_min
        self.pairs = {}
        for pair in PAIRS:
            raw = [float(x) for x in weights[pair]]
            total = sum(raw)
            k = [x / total for x in raw]
            # afffp: weights, norm, lambda, d weights/d lambda, d norm/d lambda
            self.pairs[pair] = [k, 1.0, lambda0, [0.0] * len(k), 0.0]

    def estimates(self):
        out = []
        for pair in PAIRS:
            k, n = self.pairs[pair][0], self.pairs[pair][1]
            if self.algorithm == "fp":
                total = sum(k)
                out.append([x / total for x in k])
            elif self.algorithm == "gfp":
                out.append(list(k))
            else:
                out.append([x / n for x in k])
        return out

    def observe(self, action) -> None:
        for pair in PAIRS:
            state = self.pairs[pair]
            k, n, lam, dk, dn = state
            obs = action[pair[1]]
            if self.algorithm == "fp":
                k[obs] += 1.0
            elif self.algorithm == "gfp":
                state[0] = [(1.0 - self.alpha) * x for x in k]
                state[0][obs] += self.alpha
            else:
                step = dk[obs] / k[obs] - dn / n
                state[2] = min(max(lam + self.gamma * step,
                                   self.lambda_min), 1.0)
                state[3] = [x + lam * d for x, d in zip(k, dk)]
                state[4] = n + lam * dn
                state[0] = [lam * x for x in k]
                state[0][obs] += 1.0
                state[1] = lam * n + 1.0


def argmax(values) -> int:
    cutoff = max(values) - ARGMAX_TOL
    return next(i for i, v in enumerate(values) if v >= cutoff)


def softmax(values, tau: float):
    top = max(values)
    weights = [math.exp((v - top) / tau) for v in values]
    total = sum(weights)
    return [w / total for w in weights]


def tail_class(actions, window: int):
    """Action set of the shortest repeating tail (period <= 8), or None."""
    tail = actions[-window:]
    for period in range(1, min(MAX_PERIOD, len(tail) // 2) + 1):
        if all(tail[k] == tail[k + period]
               for k in range(len(tail) - period)):
            return frozenset(tail[:period])
    return None


def playout(game: TwoPlayerGame, learner: Learner, first, steps: int):
    """Executed actions when ``first`` is played, then best responses."""
    learner = copy.deepcopy(learner)
    action, actions = tuple(first), []
    for _ in range(steps):
        actions.append(action)
        learner.observe(action)
        e0, e1 = game.expected_rewards(learner.estimates())
        action = (argmax(e0), argmax(e1))
    return actions


def first_step(game: TwoPlayerGame, learner: Learner, tau0: float):
    """Smooth-best-response distribution of each player at the start."""
    e0, e1 = game.expected_rewards(learner.estimates())
    return softmax(e0, tau0), softmax(e1, tau0)


def branch_check(game: TwoPlayerGame, learner: Learner, tau0: float,
                 dtmc, run: dict, steps: int = 400,
                 window: int = 24) -> list[str]:
    """Compare each first-step branch of a chain with a merge-free playout.

    A branch the chain truncates is only checked for its probability; every
    other branch must end in the component its playout cycles in.  The
    reach probability of each (classification, actions) outcome must equal
    the oracle's total branch probability for it.
    """
    problems = []
    member_of = {
        sid: idx for idx, b in enumerate(run["bsccs"]) for sid in b["members"]
    }
    dists = first_step(game, learner, tau0)
    expected: dict = {}
    for t in dtmc.out(dtmc.initial_id):
        p = dists[0][t.action[0]] * dists[1][t.action[1]]
        if abs(p - t.probability) > PROB_TOL:
            problems.append(f"branch {t.action}: probability "
                            f"{t.probability!r}, oracle {p!r}")
        sid = t.target
        for _ in range(dtmc.num_states):
            if sid in member_of:
                break
            sid = dtmc.out(sid)[0].target
        bscc = run["bsccs"][member_of[sid]]
        if bscc["classification"] == "Truncation":
            outcome = ("Truncation", frozenset())
        else:
            actions = tail_class(
                playout(game, learner, t.action, steps), window
            )
            chained = frozenset(tuple(a) for a in bscc["actions"])
            if actions != chained:
                problems.append(f"branch {t.action}: chain ends in "
                                f"{sorted(chained)}, playout in "
                                f"{sorted(actions) if actions else None}")
                continue
            outcome = (game.label(actions), actions)
        expected[outcome] = expected.get(outcome, 0.0) + p
    reported: dict = {}
    for b in run["bsccs"]:
        outcome = (b["classification"],
                   frozenset(tuple(a) for a in b["actions"]))
        reported[outcome] = reported.get(outcome, 0.0) + b["reach_probability"]
    for outcome in set(expected) | set(reported):
        got, want = reported.get(outcome, 0.0), expected.get(outcome, 0.0)
        if abs(got - want) > PROB_TOL:
            problems.append(f"{outcome[0]} {sorted(outcome[1])}: reach "
                            f"{got!r}, oracle {want!r}")
    return problems


def first_step_uniforms(seed: int, runs: int) -> np.ndarray:
    """The two uniforms that pick run r's first joint action."""
    out = np.empty((runs, 2))
    for r in range(runs):
        rng = np.random.default_rng([seed, r])
        out[r, 0] = rng.random()
        out[r, 1] = rng.random()
    return out


def playout_counts(game: TwoPlayerGame, learner: Learner, tau0: float,
                   iterations: int, uniforms: np.ndarray) -> dict:
    """Exact number of runs per tail class (None: no short cycle)."""
    window = max(1, min(50, iterations // 2))
    dists = first_step(game, learner, tau0)
    picks = []
    for i, dist in enumerate(dists):
        cumulative = np.cumsum(dist)
        idx = (cumulative[None, :] <= uniforms[:, i:i + 1]).sum(axis=1)
        picks.append(np.minimum(idx, len(dist) - 1))
    flat = picks[0] * game.counts[1] + picks[1]
    counts: dict = {}
    for code, runs in zip(*np.unique(flat, return_counts=True)):
        first = divmod(int(code), game.counts[1])
        label = tail_class(playout(game, learner, first, iterations), window)
        counts[label] = counts.get(label, 0) + int(runs)
    return counts
