import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smcl import (
    Game,
    best_response,
    complex_coordination,
    expected_reward,
    expected_reward_vector,
    has_common_maximizer,
    is_pareto_efficient_pure,
    is_pure_nash,
    shapley,
    simple_coordination,
    smooth_best_response,
)
from smcl.game import argmax_with_ties


def estimates_for(game, player, dists):
    out = [None] * game.num_players
    for j, d in dists.items():
        out[j] = np.asarray(d, dtype=float)
    return tuple(out)


def random_game(rng, counts=None):
    counts = counts or tuple(rng.integers(2, 5, size=2))
    rewards = rng.uniform(-1, 2, size=(len(counts), int(np.prod(counts))))
    return Game(action_counts=counts, rewards=rewards)


def random_estimates(rng, game, player):
    out = [None] * game.num_players
    for j in range(game.num_players):
        if j == player:
            continue
        raw = rng.uniform(0.05, 1.0, size=game.action_counts[j])
        out[j] = raw / raw.sum()
    return tuple(out)


class TestGameConstruction:
    def test_rejects_single_player(self):
        with pytest.raises(ValueError):
            Game(action_counts=(2,), rewards=np.zeros((1, 2)))

    def test_rejects_empty_action_set(self):
        with pytest.raises(ValueError):
            Game(action_counts=(2, 0), rewards=np.zeros((2, 0)))

    def test_rejects_wrong_reward_shape(self):
        with pytest.raises(ValueError):
            Game(action_counts=(2, 2), rewards=np.zeros((2, 3)))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"),
                                     -float("inf")])
    def test_rejects_non_finite_reward(self, bad):
        rewards = np.ones((2, 4))
        rewards[1, 2] = bad
        with pytest.raises(ValueError, match="finite"):
            Game(action_counts=(2, 2), rewards=rewards)

    def test_flat_index_row_major(self, simple_game):
        assert simple_game.flat_index((0, 0)) == 0
        assert simple_game.flat_index((0, 1)) == 1
        assert simple_game.flat_index((1, 0)) == 2


class TestExpectedReward:
    def test_coordination_action_zero(self, simple_game):
        est = estimates_for(simple_game, 0, {1: [0.511, 0.489]})
        assert expected_reward(simple_game, 0, 0, est) == pytest.approx(
            0.511, abs=1e-12
        )

    def test_coordination_action_one(self, simple_game):
        est = estimates_for(simple_game, 0, {1: [0.511, 0.489]})
        assert expected_reward(simple_game, 0, 1, est) == pytest.approx(
            0.489, abs=1e-12
        )

    def test_degenerate_estimate_returns_raw_reward(self):
        rng = np.random.default_rng(7)
        game = random_game(rng)
        for _ in range(20):
            opp_action = int(rng.integers(game.action_counts[1]))
            one_hot = np.zeros(game.action_counts[1])
            one_hot[opp_action] = 1.0
            est = estimates_for(game, 0, {1: one_hot})
            own = int(rng.integers(game.action_counts[0]))
            assert expected_reward(game, 0, own, est) == pytest.approx(
                game.reward(0, (own, opp_action)), abs=1e-12
            )

    def test_action_out_of_range(self, simple_game):
        est = estimates_for(simple_game, 0, {1: [0.5, 0.5]})
        with pytest.raises(IndexError):
            expected_reward(simple_game, 0, 2, est)

    def test_linear_in_single_opponent_distribution(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            game = random_game(rng)
            e1 = random_estimates(rng, game, 0)
            e2 = random_estimates(rng, game, 0)
            a = rng.uniform()
            mixed = tuple(
                None if d1 is None else a * d1 + (1 - a) * d2
                for d1, d2 in zip(e1, e2)
            )
            blend = a * expected_reward_vector(game, 0, e1) \
                + (1 - a) * expected_reward_vector(game, 0, e2)
            direct = expected_reward_vector(game, 0, mixed)
            assert np.allclose(direct, blend, atol=1e-12)

    def test_three_player_contraction(self):
        rng = np.random.default_rng(3)
        counts = (2, 3, 2)
        game = Game(
            action_counts=counts,
            rewards=rng.uniform(size=(3, 12)),
        )
        est = random_estimates(rng, game, 1)
        vec = expected_reward_vector(game, 1, est)
        # brute-force sum over opponent joint actions
        expect = np.zeros(3)
        for a1 in range(3):
            for a0 in range(2):
                for a2 in range(2):
                    expect[a1] += (
                        game.reward(1, (a0, a1, a2))
                        * est[0][a0] * est[2][a2]
                    )
        assert np.allclose(vec, expect, atol=1e-12)


    def test_contraction_equals_tensordot_exactly(self):
        # expected_reward_vector computes each contraction as the dot
        # product tensordot performs internally; the results must be
        # bit-for-bit those of tensordot, or explored chains would drift.
        rng = np.random.default_rng(11)
        games = [
            simple_coordination(), shapley(), complex_coordination(n=3),
            Game(action_counts=(3, 2, 4),
                 rewards=rng.normal(size=(3, 24))),
        ]
        for game in games:
            for _ in range(25):
                for i in range(game.num_players):
                    est = random_estimates(rng, game, i)
                    want = game.reward_tensor(i)
                    for axis in range(game.num_players - 1, -1, -1):
                        if axis != i:
                            want = np.tensordot(want, est[axis],
                                                axes=(axis, 0))
                    got = expected_reward_vector(game, i, est)
                    assert np.array_equal(got, want)


class TestBestResponse:
    def test_coordination(self, simple_game):
        est = estimates_for(simple_game, 0, {1: [0.511, 0.489]})
        assert best_response(simple_game, 0, est) == 0

    def test_shapley_uniform_ties_to_first(self, shapley_game):
        est = estimates_for(shapley_game, 0, {1: [1 / 3, 1 / 3, 1 / 3]})
        assert best_response(shapley_game, 0, est) == 0

    def test_exact_tie_prefers_smaller_index(self, simple_game):
        est = estimates_for(simple_game, 0, {1: [0.5, 0.5]})
        assert best_response(simple_game, 0, est) == 0

    def test_invariant_under_positive_affine_rescaling(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            game = random_game(rng)
            est = random_estimates(rng, game, 0)
            scale, shift = rng.uniform(0.1, 5.0), rng.uniform(-3, 3)
            rescaled = Game(
                action_counts=game.action_counts,
                rewards=np.vstack(
                    [scale * game.rewards[0] + shift, game.rewards[1]]
                ),
            )
            assert best_response(game, 0, est) \
                == best_response(rescaled, 0, est)


class TestSmoothBestResponse:
    def test_matches_published_rounding(self, simple_game):
        est = estimates_for(simple_game, 0, {1: [0.511, 0.489]})
        probs = smooth_best_response(simple_game, 0, est, tau=0.01)
        assert probs[0] == pytest.approx(0.9, abs=1e-3)
        assert probs[1] == pytest.approx(0.1, abs=1e-3)
        # independent closed form: 1 / (1 + exp(-(0.511-0.489)/tau))
        exact = 1.0 / (1.0 + math.exp(-2.2))
        assert probs[0] == pytest.approx(exact, abs=1e-12)

    def test_equal_rewards_uniform(self, shapley_game):
        est = estimates_for(shapley_game, 0, {1: [1 / 3, 1 / 3, 1 / 3]})
        probs = smooth_best_response(shapley_game, 0, est, tau=0.37)
        assert np.allclose(probs, 1 / 3, atol=1e-12)

    def test_small_tau_concentrates_on_best_response(self, simple_game):
        est = estimates_for(simple_game, 0, {1: [0.511, 0.489]})
        probs = smooth_best_response(simple_game, 0, est, tau=1e-8)
        assert int(np.argmax(probs)) == best_response(simple_game, 0, est)
        assert probs.max() > 1 - 1e-9

    def test_rejects_nonpositive_tau(self, simple_game):
        est = estimates_for(simple_game, 0, {1: [0.5, 0.5]})
        with pytest.raises(ValueError):
            smooth_best_response(simple_game, 0, est, tau=0.0)

    def test_no_overflow_at_tiny_temperature(self, simple_game):
        est = estimates_for(simple_game, 0, {1: [0.9, 0.1]})
        with np.errstate(over="raise"):
            probs = smooth_best_response(simple_game, 0, est, tau=1e-4)
        assert np.isfinite(probs).all()

    @given(st.integers(0, 2 ** 31 - 1), st.floats(1e-4, 10.0))
    @settings(max_examples=60, deadline=None)
    def test_distribution_invariants(self, seed, tau):
        rng = np.random.default_rng(seed)
        game = random_game(rng)
        est = random_estimates(rng, game, 0)
        values = expected_reward_vector(game, 0, est)
        probs = smooth_best_response(game, 0, est, tau=tau)
        assert abs(probs.sum() - 1.0) <= 1e-12
        assert (probs >= 0).all()
        if (values.max() - values.min()) / tau < 700:
            # within the representable range of exp, strictly positive
            assert (probs > 0).all()


class TestArgmaxWithTies:
    def test_near_tie_resolved_to_smaller_index(self):
        assert argmax_with_ties(np.array([0.5, 0.5 + 1e-12])) == 0

    def test_clear_winner(self):
        assert argmax_with_ties(np.array([0.1, 0.4, 0.2])) == 1

    def test_nan_fails_loudly(self):
        with pytest.raises(ValueError, match="finite"):
            argmax_with_ties(np.array([0.1, np.nan]))

    def test_rows_of_a_stack(self):
        rows = np.array([[0.5, 0.5 + 1e-12, 0.1], [0.1, 0.4, 0.2],
                         [0.3, 0.2, 0.3], [0.0, 0.0, 1.0]])
        got = argmax_with_ties(rows.reshape(2, 2, 3))
        assert got.shape == (2, 2)
        assert got.ravel().tolist() == [argmax_with_ties(r) for r in rows]
        with pytest.raises(ValueError, match="finite"):
            argmax_with_ties(np.array([[0.1, 0.2], [0.1, np.nan]]))


class TestPureNash:
    def test_coordination_diagonal(self, simple_game):
        assert is_pure_nash(simple_game, (0, 0))
        assert is_pure_nash(simple_game, (1, 1))

    def test_coordination_off_diagonal(self, simple_game):
        assert not is_pure_nash(simple_game, (0, 1))
        assert not is_pure_nash(simple_game, (1, 0))

    def test_shapley_has_none(self, shapley_game):
        for action in shapley_game.joint_actions():
            assert not is_pure_nash(shapley_game, tuple(action))


class TestParetoEfficientPure:
    def test_coordination_equilibrium_efficient(self, simple_game):
        assert is_pareto_efficient_pure(simple_game, (0, 0))

    def test_zero_outcome_dominated(self, simple_game):
        assert not is_pareto_efficient_pure(simple_game, (0, 1))

    def test_single_joint_action_game(self):
        game = Game(action_counts=(1, 1), rewards=np.array([[0.0], [0.0]]))
        assert is_pareto_efficient_pure(game, (0, 0))

    def test_matches_brute_force(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            game = random_game(rng)
            for action in game.joint_actions():
                action = tuple(action)
                better = any(
                    all(
                        game.reward(i, tuple(other)) > game.reward(i, action)
                        for i in range(game.num_players)
                    )
                    for other in game.joint_actions()
                )
                assert is_pareto_efficient_pure(game, action) == (not better)


class TestCommonMaximizer:
    def test_coordination_has_one(self, simple_game):
        assert has_common_maximizer(simple_game)

    def test_shapley_has_none(self, shapley_game):
        assert not has_common_maximizer(shapley_game)
