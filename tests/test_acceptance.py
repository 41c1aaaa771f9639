"""Acceptance suite: the numbered end-to-end checks for this package.

Each test prints one PASS line when its criterion holds; pytest reports the
failures.  Criterion 3 is the slow one (a few minutes); run it alone with
``pytest tests/test_acceptance.py -k criterion_3`` or skip it via
``-m "not slow"``.
"""

import math
import time

import numpy as np
import pytest

import smcl
from smcl import (
    Classification,
    ComplexGameParams,
    ExploreConfig,
    Game,
    SHAPLEY_EQUAL_WEIGHTS,
    SIMPLE_COORDINATION_WEIGHTS,
    analyze,
    best_response,
    complex_coordination,
    empirical_convergence,
    explore,
    initial_state,
    observe,
    random_initial_weights,
    shapley,
    simple_coordination,
    smooth_best_response,
)
from smcl.learners import ordered_pairs

from reference_analysis import Digraph, tarjan_sccs
from reference_matrix import reference_reward_table

ALGOS = [("fp", {}), ("gfp", {"alpha": 0.2}), ("afffp", {"lambda0": 0.8})]

# Chains produced while running the suite; criterion 6 re-checks the
# stochasticity and total-probability invariants on every one of them.
GENERATED = []


def _passed(name, detail=""):
    suffix = f" -- {detail}" if detail else ""
    print(f"\nACCEPTANCE {name}: PASS{suffix}")


def _toy_learner(game, algo, kw):
    return initial_state(algo, game, SIMPLE_COORDINATION_WEIGHTS, **kw)


def test_criterion_1_cycle_and_equilibria_structure():
    game = simple_coordination()
    for algo, kw in ALGOS:
        start = time.perf_counter()
        dtmc = explore(
            game, _toy_learner(game, algo, kw),
            ExploreConfig(max_depth=300, tau0=0.01),
        )
        report = analyze(game, dtmc)
        elapsed = time.perf_counter() - start
        GENERATED.append((game, dtmc))

        assert elapsed < 1.0, f"{algo} took {elapsed:.2f}s"
        assert not dtmc.truncated
        assert len(report.bsccs) == 3, f"{algo}: {len(report.bsccs)} BSCCs"
        by_actions = {b.actions: b.classification for b in report.bsccs}
        assert by_actions[frozenset({(0, 0)})] \
            is Classification.PURE_NASH_PARETO
        assert by_actions[frozenset({(1, 1)})] \
            is Classification.PURE_NASH_PARETO
        assert by_actions[frozenset({(0, 1), (1, 0)})] \
            is Classification.REWARDLESS_CYCLE
    _passed("criterion 1",
            "3 BSCCs (2 equilibria + reward-less cycle) for fp/gfp/afffp")


def test_criterion_2_batch_convergence_statistics():
    game = simple_coordination()
    targets = {"fp": 0.7204, "gfp": 0.8313, "afffp": 0.6666}
    means = {}
    start = time.perf_counter()
    for algo, kw in ALGOS:
        values = []
        for k in range(100):
            weights = random_initial_weights(game, seed=[2024, k])
            learner = initial_state(algo, game, weights, **kw)
            dtmc = explore(
                game, learner, ExploreConfig(max_depth=100, tau0=1.0)
            )
            values.append(analyze(game, dtmc).convergence_probability)
        means[algo] = float(np.mean(values))
    elapsed = time.perf_counter() - start

    assert elapsed < 30.0, f"batch took {elapsed:.1f}s"
    for algo, target in targets.items():
        assert abs(means[algo] - target) <= 0.10, (
            f"{algo}: mean {means[algo]:.4f} vs target {target}"
        )
    assert means["gfp"] > means["fp"] > means["afffp"]
    _passed(
        "criterion 2",
        "means fp={fp:.4f} gfp={gfp:.4f} afffp={afffp:.4f} in {t:.1f}s"
        .format(t=elapsed, **means),
    )


@pytest.mark.slow
def test_criterion_3_banded_game_at_scale():
    game = complex_coordination(ComplexGameParams(n=5, delta=0.03))
    summary = {}
    for algo, kw in [("fp", {}), ("gfp", {"alpha": 0.2})]:
        convs, states = [], []
        for k in range(20):
            weights = random_initial_weights(game, seed=[5, k])
            learner = initial_state(algo, game, weights, **kw)
            dtmc = explore(
                game, learner, ExploreConfig(max_depth=3000, tau0=1.0)
            )
            report = analyze(game, dtmc)
            convs.append(report.convergence_probability)
            states.append(dtmc.num_states)
        GENERATED.append((game, dtmc))
        mean_conv = float(np.mean(convs))
        mean_states = float(np.mean(states))
        assert mean_conv > 0.90, f"{algo}: convergence {mean_conv:.4f}"
        assert 1000 <= mean_states <= 6000, (
            f"{algo}: mean states {mean_states:.0f}"
        )
        summary[algo] = (mean_conv, mean_states)
    _passed(
        "criterion 3",
        "; ".join(
            f"{algo} conv={c:.4f} states={s:.0f}"
            for algo, (c, s) in summary.items()
        ),
    )


def test_criterion_4_cyclic_game_dual_behaviour():
    game = shapley()
    diagonal = frozenset({(0, 0), (1, 1), (2, 2)})
    for algo, kw in ALGOS:
        learner = initial_state(game=game, algorithm=algo,
                                raw_weights=SHAPLEY_EQUAL_WEIGHTS, **kw)
        dtmc = explore(game, learner, ExploreConfig(max_depth=60, tau0=0.01))
        report = analyze(game, dtmc)
        GENERATED.append((game, dtmc))
        diag = [b for b in report.bsccs if b.actions == diagonal]
        assert diag, f"{algo}: diagonal cycle not captured"
        assert len(diag[0].scc.members) > 1
        for p in diag[0].steady_state.values():
            assert abs(p - 1 / 3) <= 1e-9

    for seed in range(2):
        weights = random_initial_weights(game, seed=[77, seed])
        learner = initial_state("fp", game, weights)
        dtmc = explore(game, learner, ExploreConfig(max_depth=200, tau0=0.01))
        GENERATED.append((game, dtmc))
        assert dtmc.truncated, f"seed {seed}: run closed unexpectedly"
        report = analyze(game, dtmc)
        assert any(
            b.classification is Classification.TRUNCATION
            for b in report.bsccs
        )
    _passed(
        "criterion 4",
        "equal weights -> uniform diagonal cycle; "
        "generic weights -> truncation",
    )


def test_criterion_5_monte_carlo_agreement():
    game = simple_coordination()
    runs = 100_000
    for algo, kw in ALGOS:
        learner = _toy_learner(game, algo, kw)
        dtmc = explore(game, learner, ExploreConfig(max_depth=300, tau0=0.01))
        report = analyze(game, dtmc)
        GENERATED.append((game, dtmc))
        chain_probs = {}
        for b in report.bsccs:
            chain_probs[b.actions] = chain_probs.get(b.actions, 0.0) \
                + b.reach_probability
        result = empirical_convergence(
            game, learner, runs, 50, seed=99, tau0=0.01
        )
        for actions, p in chain_probs.items():
            freq = result.frequencies.get(actions, 0.0)
            se = math.sqrt(p * (1 - p) / runs)
            assert abs(freq - p) <= 3 * se, (
                f"{algo} {sorted(actions)}: |{freq:.5f} - {p:.5f}| > 3se"
            )
        nash = sum(
            p for actions, p in chain_probs.items() if len(actions) == 1
        )
        assert abs(nash - 0.18) <= 0.005
    _passed("criterion 5",
            f"chain vs {runs} playouts within 3 binomial SEs, "
            "equilibrium mass 0.18")


class TestCriterion6PropertySuites:
    def test_count_form_equals_recursive_form(self):
        rng = np.random.default_rng(6001)
        game = simple_coordination()
        for _ in range(10_000):
            weights = {
                (i, j): rng.uniform(0.05, 1.0, size=2)
                for i, j in ordered_pairs(2)
            }
            state = initial_state("fp", game, weights)
            sigma = {
                p: state.weights[k].copy()
                for k, p in enumerate(ordered_pairs(2))
            }
            for t in range(1, int(rng.integers(2, 8))):
                action = tuple(int(a) for a in rng.integers(2, size=2))
                state = observe(state, game, action)
                for i, j in ordered_pairs(2):
                    indicator = np.zeros(2)
                    indicator[action[j]] = 1.0
                    sigma[(i, j)] = (
                        (1 - 1 / (t + 1)) * sigma[(i, j)]
                        + indicator / (t + 1)
                    )
                    est = smcl.estimates(state, i, game)[j]
                    assert np.abs(est - sigma[(i, j)]).max() <= 1e-12
        _passed("criterion 6a", "count form == recursive form, 1e4 runs")

    @pytest.mark.parametrize("algo,kw", ALGOS)
    def test_rank_preservation(self, algo, kw):
        rng = np.random.default_rng(6002)
        game = shapley()
        for _ in range(1000):
            weights = {
                (i, j): rng.uniform(0.05, 1.0, size=3)
                for i, j in ordered_pairs(2)
            }
            state = initial_state(algo, game, weights, **kw)
            action = tuple(int(a) for a in rng.integers(3, size=2))
            before = {
                (i, j): smcl.estimates(state, i, game)[j].copy()
                for i, j in ordered_pairs(2)
            }
            state = observe(state, game, action)
            for i, j in ordered_pairs(2):
                after = smcl.estimates(state, i, game)[j]
                others = [a for a in range(3) if a != action[j]]
                for x in others:
                    for y in others:
                        if before[(i, j)][x] > before[(i, j)][y]:
                            assert after[x] > after[y]
        _passed(f"criterion 6b ({algo})",
                "rank among unobserved actions preserved, 1e3 updates")

    def test_scc_partition_against_brute_force(self):
        rng = np.random.default_rng(6003)
        for _ in range(1000):
            n = int(rng.integers(2, 51))
            edges = []
            for src in range(n):
                targets = rng.integers(0, n, size=int(rng.integers(1, 4)))
                edges += [(src, int(t), 1.0 / len(targets)) for t in targets]
            dtmc = Digraph(edges, n)

            reach = np.eye(n, dtype=bool)
            for src, dst, _ in edges:
                reach[src, dst] = True
            while True:
                updated = reach | (reach @ reach)
                if (updated == reach).all():
                    break
                reach = updated
            expected = {
                frozenset(
                    j for j in range(n) if reach[i, j] and reach[j, i]
                )
                for i in range(n)
            }
            assert {s.members for s in tarjan_sccs(dtmc)} == expected
        _passed("criterion 6c", "SCC partition == transitive closure, "
                "1e3 digraphs up to 50 nodes")

    def test_chain_probability_invariants(self):
        if not GENERATED:  # self-sufficient when the suite is filtered
            game = simple_coordination()
            for algo, kw in ALGOS:
                dtmc = explore(
                    game, _toy_learner(game, algo, kw),
                    ExploreConfig(max_depth=300, tau0=0.01),
                )
                GENERATED.append((game, dtmc))
        for game, dtmc in GENERATED:
            for sid in range(dtmc.num_states):
                total = sum(t.probability for t in dtmc.out(sid))
                assert abs(total - 1.0) <= 1e-9
            report = analyze(game, dtmc)
            total = sum(b.reach_probability for b in report.bsccs)
            assert abs(total - 1.0) <= 1e-9
        _passed(
            "criterion 6d",
            f"row sums and total absorption == 1 on "
            f"{len(GENERATED)} generated chains",
        )

    def test_softmax_limit_matches_best_response(self):
        rng = np.random.default_rng(6004)
        checked = 0
        while checked < 500:
            counts = tuple(int(c) for c in rng.integers(2, 5, size=2))
            game = Game(
                action_counts=counts,
                rewards=rng.uniform(0, 2, size=(2, int(np.prod(counts)))),
            )
            est = [None, None]
            raw = rng.uniform(0.05, 1.0, size=counts[1])
            est[1] = raw / raw.sum()
            values = smcl.expected_reward_vector(game, 0, tuple(est))
            ordered = np.sort(values)
            if len(ordered) > 1 and ordered[-1] - ordered[-2] <= 1e-6:
                continue  # argmax margin too small for the limit claim
            probs = smooth_best_response(game, 0, tuple(est), tau=1e-8)
            assert int(np.argmax(probs)) == best_response(game, 0, tuple(est))
            assert probs.max() > 1 - 1e-9
            checked += 1
        _passed("criterion 6e", "softmax at tau=1e-8 selects the best "
                "response on 500 margin-separated games")

    def test_adaptive_factor_derivatives(self):
        rng = np.random.default_rng(6005)
        game = simple_coordination()
        for _ in range(30):
            weights = {
                (i, j): rng.uniform(0.05, 1.0, size=2)
                for i, j in ordered_pairs(2)
            }
            lam0 = float(rng.uniform(0.4, 0.95))
            history = [
                tuple(int(a) for a in rng.integers(2, size=2))
                for _ in range(int(rng.integers(1, 11)))
            ]

            def replay(lam):
                st = initial_state(
                    "afffp", game, weights, lambda0=lam, gamma=1e-15
                )
                for action in history:
                    st = observe(st, game, action)
                return st

            h = 1e-4
            base, lo, hi = replay(lam0), replay(lam0 - h), replay(lam0 + h)
            for pair in range(len(ordered_pairs(2))):
                fd_w = (hi.weights[pair] - lo.weights[pair]) / (2 * h)
                fd_n = (hi.norms[pair] - lo.norms[pair]) / (2 * h)
                assert np.abs(base.dweights[pair] - fd_w).max() <= 1e-5
                assert abs(base.dnorms[pair] - fd_n) <= 1e-5
        _passed("criterion 6f", "forgetting-factor derivatives match "
                "finite differences on histories <= 10")


def test_criterion_7_reference_matrix_fidelity():
    game = complex_coordination(ComplexGameParams(n=5, delta=0.03))
    table = game.reward_tensor(0)
    reference = reference_reward_table()
    assert table.shape == reference.shape == (20, 20)
    assert np.abs(table - reference).max() <= 5e-4

    small = ComplexGameParams(n=5, delta=0.001)
    assert abs(small.zeta - 1.2003) <= 5e-4
    assert abs(small.beta - 0.9599) <= 5e-4

    import pathlib

    readme = (
        pathlib.Path(__file__).resolve().parents[1] / "README.md"
    ).read_text(encoding="utf-8")
    assert "0.001" in readme and "0.03" in readme, (
        "README must flag the delta=0.03 vs delta=0.001 discrepancy"
    )
    _passed("criterion 7", "all 400 reference entries within 5e-4; "
            "delta variants documented")
