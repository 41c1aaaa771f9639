import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import smcl
from smcl import Game, estimates, initial_state, observe
from smcl.learners import (best_response_step, broadcast, expected_rewards,
                           ordered_pairs)

# Rows of the per-pair arrays: pair (0, 1) is row 0, pair (1, 0) row 1.
PAIRS = list(enumerate(ordered_pairs(2)))


def random_weights(rng, game):
    return {
        (i, j): rng.uniform(0.05, 1.0, size=game.action_counts[j])
        for i, j in ordered_pairs(game.num_players)
    }


def random_learner(rng, game, algorithm):
    kwargs = {}
    if algorithm == "gfp":
        kwargs["alpha"] = float(rng.uniform(0.05, 0.5))
    elif algorithm == "afffp":
        kwargs["lambda0"] = float(rng.uniform(0.5, 0.95))
        kwargs["gamma"] = 0.05
    return initial_state(algorithm, game, random_weights(rng, game), **kwargs)


class TestInitialState:
    def test_fp_normalized_weights_kept(self, simple_game, toy_weights):
        state = initial_state("fp", simple_game, toy_weights)
        assert np.allclose(state.weights[0], [0.511, 0.489], atol=1e-12)

    def test_fp_raw_weights_normalized(self, simple_game):
        state = initial_state(
            "fp", simple_game, {(0, 1): [1.0, 1.0], (1, 0): [3.0, 1.0]}
        )
        assert np.allclose(state.weights[0], [0.5, 0.5])
        assert np.allclose(state.weights[1], [0.75, 0.25])

    def test_afffp_initialisation(self, simple_game, toy_weights):
        state = initial_state("afffp", simple_game, toy_weights, lambda0=0.8)
        pair = 0  # (0, 1)
        assert state.norms[pair] == 1.0
        assert state.lams[pair] == 0.8
        assert np.all(state.dweights[pair] == 0.0)
        assert state.dnorms[pair] == 0.0

    def test_rejects_nonpositive_weight(self, simple_game):
        with pytest.raises(ValueError):
            initial_state(
                "fp", simple_game, {(0, 1): [1.0, 0.0], (1, 0): [1.0, 1.0]}
            )

    @pytest.mark.parametrize("bad", [float("inf"), float("nan")])
    def test_rejects_non_finite_weight(self, simple_game, bad):
        with pytest.raises(ValueError, match="finite"):
            initial_state(
                "fp", simple_game, {(0, 1): [1.0, bad], (1, 0): [1.0, 1.0]}
            )

    def test_rejects_missing_pair(self, simple_game):
        with pytest.raises(ValueError):
            initial_state("fp", simple_game, {(0, 1): [1.0, 1.0]})

    def test_gfp_requires_alpha(self, simple_game, toy_weights):
        with pytest.raises(ValueError):
            initial_state("gfp", simple_game, toy_weights)

    def test_afffp_requires_lambda0(self, simple_game, toy_weights):
        with pytest.raises(ValueError):
            initial_state("afffp", simple_game, toy_weights)

    @pytest.mark.parametrize(
        "bad", [float("nan"), float("inf"), -float("inf"), 0.0, -0.5, 1.5]
    )
    def test_rejects_lambda_min_outside_unit_interval(
        self, simple_game, toy_weights, bad
    ):
        # NaN would drop the lower clamp: max(x, nan) keeps x.
        with pytest.raises(ValueError, match="lambda_min"):
            initial_state("afffp", simple_game, toy_weights, lambda0=0.8,
                          lambda_min=bad)

    def test_unknown_algorithm(self, simple_game, toy_weights):
        with pytest.raises(ValueError):
            initial_state("rm", simple_game, toy_weights)


class TestFpObserve:
    def test_single_step_matches_frozen_weights(
        self, simple_game, toy_weights
    ):
        state = initial_state("fp", simple_game, toy_weights)
        state = observe(state, simple_game, (0, 0))
        assert np.allclose(state.weights[0], [1.511, 0.489], atol=1e-12)
        assert np.allclose(state.weights[1], [1.489, 0.511], atol=1e-12)

    def test_weight_sum_is_one_plus_iterations(self, simple_game):
        rng = np.random.default_rng(0)
        state = initial_state(
            "fp", simple_game, random_weights(rng, simple_game)
        )
        for t in range(1, 30):
            action = tuple(int(a) for a in rng.integers(2, size=2))
            state = observe(state, simple_game, action)
            for pair, _ in PAIRS:
                assert state.weights[pair].sum() == pytest.approx(
                    1 + t, abs=1e-9
                )

    def test_estimates_normalise_weights(self, simple_game, toy_weights):
        state = initial_state("fp", simple_game, toy_weights)
        state = observe(state, simple_game, (0, 0))
        est = estimates(state, 0, simple_game)
        assert np.allclose(est[1], [0.7555, 0.2445], atol=1e-12)
        assert est[0] is None

    def test_estimates_exact_with_unequal_action_counts(self):
        # Rows are zero-padded to the largest count; the norm must still be
        # the sum over the pair's own actions, bit for bit.
        rng = np.random.default_rng(5)
        game = Game((9, 6), rng.uniform(0, 1, size=(2, 54)))
        raw = random_weights(rng, game)
        state = initial_state("fp", game, raw)
        kappa = {p: np.asarray(w) / np.sum(w) for p, w in raw.items()}
        for _ in range(20):
            action = (int(rng.integers(9)), int(rng.integers(6)))
            state = observe(state, game, action)
            for i, j in ordered_pairs(2):
                kappa[(i, j)] = kappa[(i, j)].copy()
                kappa[(i, j)][action[j]] += 1.0
                assert np.array_equal(
                    estimates(state, i, game)[j],
                    kappa[(i, j)] / kappa[(i, j)].sum(),
                )

    def test_recursive_form_equivalence(self, simple_game):
        # Normalised counts must equal the convex recursion
        # sigma_t = (1 - 1/(t+1)) sigma_{t-1} + indicator/(t+1).
        rng = np.random.default_rng(42)
        for _ in range(200):
            state = initial_state(
                "fp", simple_game, random_weights(rng, simple_game)
            )
            sigma = {p: state.weights[k].copy() for k, p in PAIRS}
            for t in range(1, 12):
                action = tuple(int(a) for a in rng.integers(2, size=2))
                state = observe(state, simple_game, action)
                for i, j in ordered_pairs(2):
                    indicator = np.zeros(2)
                    indicator[action[j]] = 1.0
                    sigma[(i, j)] = (
                        (1 - 1 / (t + 1)) * sigma[(i, j)]
                        + indicator / (t + 1)
                    )
                    est = estimates(state, i, simple_game)[j]
                    assert np.allclose(est, sigma[(i, j)], atol=1e-12)


class TestGfpObserve:
    def test_single_step(self, simple_game):
        state = initial_state(
            "gfp", simple_game,
            {(0, 1): [0.5, 0.5], (1, 0): [0.5, 0.5]},
            alpha=0.2,
        )
        state = observe(state, simple_game, (0, 0))
        # GFP keeps its estimates as the weights, with norm 1.
        assert np.allclose(state.weights[0], [0.6, 0.4], atol=1e-12)

    def test_estimates_stay_distributions(self, simple_game):
        rng = np.random.default_rng(1)
        state = initial_state(
            "gfp", simple_game, random_weights(rng, simple_game), alpha=0.2
        )
        for _ in range(1000):
            action = tuple(int(a) for a in rng.integers(2, size=2))
            state = observe(state, simple_game, action)
        for pair, _ in PAIRS:
            assert state.weights[pair].sum() == pytest.approx(
                1.0, abs=1e-12
            )
            assert (state.weights[pair] >= 0).all()


class TestAfffpObserve:
    def test_hand_computed_step(self, simple_game):
        state = initial_state(
            "afffp", simple_game,
            {(0, 1): [0.5, 0.5], (1, 0): [0.5, 0.5]},
            lambda0=0.8, gamma=0.05,
        )
        state = observe(state, simple_game, (0, 0))
        pair = 0  # (0, 1)
        # derivatives were zero, so lambda is unchanged
        assert state.lams[pair] == pytest.approx(0.8, abs=1e-15)
        assert np.allclose(state.dweights[pair], [0.5, 0.5], atol=1e-15)
        assert state.dnorms[pair] == pytest.approx(1.0, abs=1e-15)
        assert np.allclose(state.weights[pair], [1.4, 0.4], atol=1e-15)
        assert state.norms[pair] == pytest.approx(1.8, abs=1e-15)
        est = estimates(state, 0, simple_game)
        assert np.allclose(est[1], [7 / 9, 2 / 9], atol=1e-12)

    def test_norm_tracks_weight_sum(self, simple_game):
        rng = np.random.default_rng(2)
        state = initial_state(
            "afffp", simple_game, random_weights(rng, simple_game),
            lambda0=0.8, gamma=0.05,
        )
        for _ in range(200):
            action = tuple(int(a) for a in rng.integers(2, size=2))
            state = observe(state, simple_game, action)
            for pair, _ in PAIRS:
                assert state.norms[pair] == pytest.approx(
                    state.weights[pair].sum(), abs=1e-9
                )

    def test_lambda_stays_clamped(self, simple_game):
        rng = np.random.default_rng(3)
        state = initial_state(
            "afffp", simple_game, random_weights(rng, simple_game),
            lambda0=0.5, gamma=1.0, lambda_min=0.2,
        )
        for _ in range(300):
            action = tuple(int(a) for a in rng.integers(2, size=2))
            state = observe(state, simple_game, action)
            for pair, _ in PAIRS:
                assert 0.2 <= state.lams[pair] <= 1.0

    def test_derivatives_match_finite_differences(self, simple_game):
        # With the adaptation rate effectively zero, lambda stays constant
        # and the stored derivatives must match central differences of a
        # from-scratch replay at lambda +/- h.
        rng = np.random.default_rng(4)
        for _ in range(25):
            weights = random_weights(rng, simple_game)
            lam0 = float(rng.uniform(0.4, 0.95))
            history = [
                tuple(int(a) for a in rng.integers(2, size=2))
                for _ in range(int(rng.integers(1, 11)))
            ]

            def replay(lam):
                st = initial_state(
                    "afffp", simple_game, weights,
                    lambda0=lam, gamma=1e-15,
                )
                for action in history:
                    st = observe(st, simple_game, action)
                return st

            h = 1e-4
            base, lo, hi = replay(lam0), replay(lam0 - h), replay(lam0 + h)
            for pair, _ in PAIRS:
                fd_weights = (hi.weights[pair] - lo.weights[pair]) / (2 * h)
                fd_norm = (hi.norms[pair] - lo.norms[pair]) / (2 * h)
                assert np.allclose(
                    base.dweights[pair], fd_weights, atol=1e-5
                )
                assert base.dnorms[pair] == pytest.approx(fd_norm, abs=1e-5)


class TestSharedProperties:
    @pytest.mark.parametrize("algorithm", ["fp", "gfp", "afffp"])
    def test_rank_preserved_among_unobserved_actions(
        self, shapley_game, algorithm
    ):
        # After any update, the strict order of the estimates of all actions
        # other than the observed one is unchanged.
        rng = np.random.default_rng(10)
        for _ in range(200):
            state = random_learner(rng, shapley_game, algorithm)
            for _ in range(5):
                action = tuple(int(a) for a in rng.integers(3, size=2))
                before = {
                    (i, j): estimates(state, i, shapley_game)[j].copy()
                    for i, j in ordered_pairs(2)
                }
                state = observe(state, shapley_game, action)
                for i, j in ordered_pairs(2):
                    after = estimates(state, i, shapley_game)[j]
                    others = [a for a in range(3) if a != action[j]]
                    for x in others:
                        for y in others:
                            if before[(i, j)][x] > before[(i, j)][y]:
                                assert after[x] > after[y]

    @pytest.mark.parametrize("algorithm", ["fp", "gfp", "afffp"])
    def test_observed_estimate_strictly_increases(
        self, simple_game, algorithm
    ):
        rng = np.random.default_rng(20)
        for _ in range(100):
            state = random_learner(rng, simple_game, algorithm)
            action = tuple(int(a) for a in rng.integers(2, size=2))
            before = {
                (i, j): estimates(state, i, simple_game)[j][action[j]]
                for i, j in ordered_pairs(2)
            }
            state = observe(state, simple_game, action)
            for i, j in ordered_pairs(2):
                if before[(i, j)] < 1.0 - 1e-9:
                    after = estimates(state, i, simple_game)[j][action[j]]
                    assert after > before[(i, j)]

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=50, deadline=None)
    def test_estimates_always_distributions(self, seed):
        from smcl import simple_coordination

        game = simple_coordination()
        rng = np.random.default_rng(seed)
        algorithm = ["fp", "gfp", "afffp"][seed % 3]
        state = random_learner(rng, game, algorithm)
        for _ in range(10):
            action = tuple(int(a) for a in rng.integers(2, size=2))
            state = observe(state, game, action)
        for i, j in ordered_pairs(2):
            est = estimates(state, i, game)[j]
            assert est.sum() == pytest.approx(1.0, abs=1e-9)
            assert (est >= 0).all()


def three_player_game(rng):
    counts = (2, 3, 2)
    return Game(counts, rng.uniform(0, 1, size=(3, int(np.prod(counts)))))


ARRAY_FIELDS = ("weights", "norms", "lams", "dweights", "dnorms")


@pytest.mark.parametrize("algorithm", ["fp", "gfp", "afffp"])
@pytest.mark.parametrize("game_name", ["shapley", "three_player"])
def test_batched_observe_equals_unbatched_rows(algorithm, game_name):
    # A batch row is stepped by the same float operations as the state on
    # its own, so they agree exactly; expected rewards go through another
    # BLAS call and agree to rounding, and each row's best response is the
    # joint action the unbatched step picks.  The simulator and a merge-off
    # explorer step batches with this kernel, a merging explorer single
    # states.
    rng = np.random.default_rng(7)
    game = smcl.shapley() if game_name == "shapley" \
        else three_player_game(rng)
    runs = 16
    start = random_learner(rng, game, algorithm)
    batch = broadcast(start, (runs,))
    rows = [start] * runs
    for _ in range(12):
        actions = np.stack(
            [rng.integers(n, size=runs) for n in game.action_counts], axis=-1
        )
        batch, batch_rewards, batch_choice = best_response_step(
            batch, game, actions
        )
        steps = [best_response_step(row, game, tuple(int(a) for a in action))
                 for row, action in zip(rows, actions)]
        rows = [row for row, _, _ in steps]
        for r, (row, rewards, choice) in enumerate(steps):
            for field in ARRAY_FIELDS:
                assert np.array_equal(getattr(batch, field)[r],
                                      getattr(row, field)), field
            for got, want in zip(batch_rewards, rewards):
                assert np.allclose(got[r], want, rtol=0, atol=1e-14)
            assert tuple(int(c[r]) for c in batch_choice) == choice
            assert all(type(a) is int for a in choice)


def test_observe_rejects_malformed_action(shapley_game):
    state = random_learner(np.random.default_rng(0), shapley_game, "afffp")
    for bad, error in [((0, 3), IndexError), ((0, -1), IndexError),
                       ((0,), ValueError), ((0, 1, 2), ValueError)]:
        with pytest.raises(error):
            observe(state, shapley_game, bad)
    assert np.array_equal(observe(state, shapley_game, [0, 1]).weights,
                          observe(state, shapley_game, (0, 1)).weights)
    batch = broadcast(state, (2,))
    with pytest.raises(IndexError):
        observe(batch, shapley_game, np.array([[0, 1], [3, 0]]))
    with pytest.raises(ValueError):
        observe(batch, shapley_game, np.array([[0, 1, 0], [1, 0, 0]]))


def test_deleted_learner_forks_stay_deleted():
    # One learner core: the per-algorithm state classes, the simulator's
    # two-player copy of the update rules and the private helpers around
    # them must not come back under their old names.  Nor must the merge
    # relation's parent-link fallback, its strategy comparison, the
    # per-state one-hot strategies and word replays, or a second copy of
    # its reward guards: the index's column sets, bucket class and reward
    # direction, and the scalar guard loops.  Nor must the reading of a
    # pure action off a strategy, now part of the explorer's first step.
    import importlib
    import pkgutil

    deleted = {"_batch_actions_two_player", "_afffp_step", "algorithm_of",
               "_rewards_of", "FpState", "GfpState", "AfffpState",
               "one_hot", "ancestor_distance", "_chain_between",
               "_UNRESOLVED", "_strategies_equal", "replay_strategies",
               "_KeyColumns", "_Bucket", "_direction", "_shared_prefix_guard",
               "_executed_reward_not_dropped", "_initial_step_agrees",
               "_disjoint_branches_agree", "pure_action_of", "STRATEGY_TOL"}
    modules = [smcl] + [
        importlib.import_module(f"smcl.{info.name}")
        for info in pkgutil.iter_modules(smcl.__path__)
    ]
    assert len(modules) > 10
    for module in modules:
        assert not deleted & set(vars(module)), module.__name__


def test_deleted_general_graph_members_stay_deleted():
    # The chain is stored as one successor per state plus the start
    # distribution; the general per-state transition lists, the successor
    # map rebuilt from them, the per-state record of the fired action, the
    # per-state sink flag beside ``Dtmc.sink_id`` and unused helpers must
    # not come back.  Nor must the initial state's copy of its first-step
    # distribution, which lives only in ``Dtmc.start``.
    from dataclasses import fields

    from smcl.dtmc import Dtmc, ExplorationState, Transition
    from smcl.game import Game

    deleted = {
        Dtmc: {"functional_graph", "_functional_graph", "successors",
               "transitions", "out_probability_sum"},
        ExplorationState: {"executed_from_parent", "is_sink", "sink",
                           "strategy", "positive_actions"},
        Game: {"num_joint_actions"},
    }
    for cls, names in deleted.items():
        members = set(dir(cls)) | {f.name for f in fields(cls)}
        assert not names & members, cls.__name__
    # The initial state is always state 0: no constructor field names it.
    assert "initial_id" not in {f.name for f in fields(Dtmc)}
    states = [ExplorationState(id=i, learner=None, depth=0)
              for i in range(2)]
    chain = Dtmc(states=states, successor=[-1, 1],
                 start=[Transition(1, 1.0, None)])
    assert chain.initial_id == 0

