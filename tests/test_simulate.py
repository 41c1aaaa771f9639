import numpy as np
import pytest

from smcl import (
    ExploreConfig,
    Game,
    analyze,
    empirical_convergence,
    explore,
    initial_state,
    random_initial_weights,
    shapley,
    simulate,
    trace_to_csv,
)
from smcl.simulate import _batch_actions, classify_tail

LEARNERS = [("fp", {}), ("gfp", {"alpha": 0.2}), ("afffp", {"lambda0": 0.8})]


def assert_batch_matches_runs(game, weights, runs, iterations, tau0):
    """Every batch run replays ``simulate`` with the seed pair [5, r]."""
    tails = set()
    for algo, kw in LEARNERS:
        learner = initial_state(algo, game, weights, **kw)
        batch = _batch_actions(game, learner, runs, iterations, seed=5,
                               tau0=tau0)
        for r in range(runs):
            trace = simulate(game, learner, iterations, tau0, [5, r])
            assert [tuple(int(x) for x in row) for row in batch[r]] \
                == trace.actions
        tails |= {(algo, batch[r, -8:].tobytes()) for r in range(runs)}
    return tails


class TestSimulate:
    def test_same_seed_identical_traces(self, simple_game, toy_weights):
        learner = initial_state("fp", simple_game, toy_weights)
        a = simulate(simple_game, learner, 40, 0.01, seed=7)
        b = simulate(simple_game, learner, 40, 0.01, seed=7)
        assert a.actions == b.actions

    def test_single_iteration_trace(self, simple_game, toy_weights):
        learner = initial_state("fp", simple_game, toy_weights)
        trace = simulate(simple_game, learner, 1, 0.01, seed=3)
        assert len(trace.actions) == 1

    def test_rejects_zero_iterations(self, simple_game, toy_weights):
        learner = initial_state("fp", simple_game, toy_weights)
        with pytest.raises(ValueError):
            simulate(simple_game, learner, 0, 0.01, seed=3)

    def test_cycle_branch_alternates_with_lag(
        self, simple_game, toy_weights
    ):
        # A run that opens with the off-diagonal action falls into the
        # reward-less loop: the opening action recurs at even steps, and the
        # run that opens with the opposite action shows it at odd steps.
        learner = initial_state("fp", simple_game, toy_weights)
        seen = set()
        for seed in range(200):
            trace = simulate(simple_game, learner, 20, 0.01, seed=seed)
            first = trace.actions[0]
            if first == (0, 1):
                assert trace.actions[2] == (0, 1)
                assert trace.actions[1] == (1, 0)
                assert all(
                    trace.actions[t] == ((0, 1) if t % 2 == 0 else (1, 0))
                    for t in range(20)
                )
            elif first == (1, 0):
                # this branch repeats (0, 1) once before settling, leaving
                # it one iteration out of phase with the other branch
                assert trace.actions[1] == trace.actions[2] == (0, 1)
                assert all(
                    trace.actions[t] == ((1, 0) if t % 2 == 1 else (0, 1))
                    for t in range(3, 20)
                )
            seen.add(first)
        assert (0, 1) in seen and (1, 0) in seen

    def test_absorbed_run_repeats_forever(self, simple_game, toy_weights):
        learner = initial_state("fp", simple_game, toy_weights)
        for seed in range(100):
            trace = simulate(simple_game, learner, 30, 0.01, seed=seed)
            if trace.actions[0] in {(0, 0), (1, 1)}:
                assert set(trace.actions) == {trace.actions[0]}
                break
        else:
            pytest.fail("no absorbing first action sampled")

    def test_estimate_snapshots(self, simple_game, toy_weights):
        learner = initial_state("fp", simple_game, toy_weights)
        trace = simulate(
            simple_game, learner, 10, 0.01, seed=1, snapshot_every=5
        )
        assert set(trace.estimate_snapshots) == {0, 5}
        snap = trace.estimate_snapshots[0]
        assert np.allclose(snap[(0, 1)], [0.511, 0.489])


class TestTraceCsv:
    def test_format(self, simple_game, toy_weights, tmp_path):
        learner = initial_state("fp", simple_game, toy_weights)
        trace = simulate(simple_game, learner, 5, 0.01, seed=11)
        path = tmp_path / "trace.csv"
        trace_to_csv(trace, simple_game, path)
        raw = path.read_bytes()
        assert b"\r" not in raw
        lines = raw.decode("utf-8").splitlines()
        assert lines[0] == "iter,action_0,action_1,reward_0,reward_1"
        assert len(lines) == 6
        first = lines[1].split(",")
        assert first[0] == "0"
        action = (int(first[1]), int(first[2]))
        assert float(first[3]) == simple_game.reward(0, action)


class TestClassifyTail:
    def test_period_one(self):
        assert classify_tail([(0, 0)] * 10, 10) == frozenset({(0, 0)})

    def test_period_two(self):
        actions = [(0, 1), (1, 0)] * 8
        assert classify_tail(actions, 12) == frozenset({(0, 1), (1, 0)})

    def test_irregular_returns_none(self):
        actions = [(0, 0), (0, 1), (0, 0), (0, 0), (0, 1), (1, 1),
                   (0, 0), (1, 0), (0, 1), (1, 1), (0, 0), (0, 1)]
        assert classify_tail(actions, 12) is None

    def test_period_longer_than_eight_rejected(self):
        pattern = [(0, i) for i in range(9)]
        assert classify_tail(pattern * 4, 30) is None


class TestEmpiricalConvergence:
    def test_degenerate_game_single_class(self):
        game = Game(action_counts=(1, 1), rewards=np.array([[1.0], [1.0]]))
        learner = initial_state(
            "fp", game, {(0, 1): [1.0], (1, 0): [1.0]}
        )
        result = empirical_convergence(game, learner, 50, 10, seed=0)
        assert result.frequencies == {frozenset({(0, 0)}): 1.0}
        assert result.unresolved == 0.0
        assert result.mean_terminal_rewards == (1.0, 1.0)

    @pytest.mark.parametrize("iterations", [0, -3])
    def test_rejects_iterations_below_one(self, simple_game, toy_weights,
                                          iterations):
        # Caught at the boundary, as simulate() does: not a NaN-filled
        # result or an error from deep inside numpy.
        learner = initial_state("fp", simple_game, toy_weights)
        with pytest.raises(ValueError,
                           match="iterations must be at least 1"):
            empirical_convergence(simple_game, learner, runs=4,
                                  iterations=iterations, seed=0)

    def test_batch_engine_matches_per_run_simulate(
        self, simple_game, toy_weights
    ):
        for algo, kw in LEARNERS:
            learner = initial_state(algo, simple_game, toy_weights, **kw)
            batch = _batch_actions(
                simple_game, learner, 40, 25, seed=5, tau0=0.01
            )
            for r in range(40):
                trace = simulate(simple_game, learner, 25, 0.01, [5, r])
                assert [tuple(int(x) for x in row) for row in batch[r]] \
                    == trace.actions

    def test_batch_matches_runs_on_shapley(self):
        # On the cyclic game a run's tail depends on the update rule, not
        # only on its first action, so a wrong rule in the batch shows.
        game = shapley()
        tails = assert_batch_matches_runs(
            game, random_initial_weights(game, [2, 0]), runs=60,
            iterations=40, tau0=1.0,
        )
        for algo, _ in LEARNERS:
            assert sum(1 for a, _ in tails if a == algo) >= 3

    def test_batch_matches_runs_on_three_player_game(self):
        rng = np.random.default_rng(11)
        counts = (2, 3, 2)
        game = Game(counts, rng.uniform(0, 1, size=(3, 12)))
        assert_batch_matches_runs(
            game, random_initial_weights(game, [3, 0]), runs=40,
            iterations=30, tau0=0.3,
        )

    @pytest.mark.parametrize(
        "algo,kw",
        [("fp", {}), ("gfp", {"alpha": 0.2}), ("afffp", {"lambda0": 0.8})],
    )
    def test_frequencies_near_chain_probabilities(
        self, simple_game, toy_weights, algo, kw
    ):
        learner = initial_state(algo, simple_game, toy_weights, **kw)
        dtmc = explore(
            simple_game, learner, ExploreConfig(max_depth=300, tau0=0.01)
        )
        report = analyze(simple_game, dtmc)
        expected = {}
        for b in report.bsccs:
            expected[b.actions] = expected.get(b.actions, 0.0) \
                + b.reach_probability
        result = empirical_convergence(
            simple_game, learner, 4000, 50, seed=123, tau0=0.01
        )
        for actions, p in expected.items():
            se = np.sqrt(p * (1 - p) / result.runs)
            assert abs(result.frequencies.get(actions, 0.0) - p) <= 3 * se
