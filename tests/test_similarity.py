import pytest

from smcl import (
    ExploreConfig,
    SimilarityContext,
    explore,
    initial_state,
    similar,
    successor,
)
from smcl.explorer import _initial_state, merge_candidate
from smcl.similarity import Future

from conftest import brute_force_reach, playout_class
from reference_scan import ancestor_distances, chain_between


def fp_chain(simple_game, toy_weights, word):
    """Initial state plus the states reached by executing ``word``."""
    learner = initial_state("fp", simple_game, toy_weights)
    state, _ = _initial_state(simple_game, learner, tau0=0.01)
    chain = [state]
    for k, action in enumerate(word):
        state = merge_candidate(state, action, simple_game)
        state.id = k + 1  # stand-in ids so ancestry walks terminate
        chain.append(state)
    return chain


def context(game, algorithm, chain):
    return SimilarityContext(
        game=game,
        algorithm=algorithm,
        path=lambda s1, s2: chain_between(s1, s2, chain),
    )


def similar_in(chain, s1, s2, ctx):
    """``similar()`` with the generation-tree distance taken from ``chain``."""
    distance = 0 if s1 is s2 else ancestor_distances(s2, chain).get(s1.id)
    return similar(s1, s2, ctx, distance=distance)


class TestSimilarOnCoordinationCycle:
    def test_cycle_reentry_state_merges_into_entry(
        self, simple_game, toy_weights
    ):
        # Executing (0,1), (1,0), (0,1) drives the play around the
        # reward-less loop; the state after the third step behaves like the
        # state after the first.
        chain = fp_chain(
            simple_game, toy_weights, [(0, 1), (1, 0), (0, 1)]
        )
        ctx = context(simple_game, "fp", chain)
        assert chain[1].pure_action == (1, 0)
        assert chain[3].pure_action == (1, 0)
        assert similar_in(chain, chain[1], chain[3], ctx)

    def test_reflexive_on_non_initial_states(self, simple_game, toy_weights):
        chain = fp_chain(simple_game, toy_weights, [(0, 1), (1, 0)])
        ctx = context(simple_game, "fp", chain)
        for state in chain[1:]:
            assert similar_in(chain, state, state, ctx)

    def test_initial_state_never_similar(self, simple_game, toy_weights):
        chain = fp_chain(simple_game, toy_weights, [(0, 1)])
        ctx = context(simple_game, "fp", chain)
        assert not similar_in(chain, chain[0], chain[1], ctx)
        assert not similar_in(chain, chain[0], chain[0], ctx)

    def test_different_executed_actions_never_merge(
        self, simple_game, toy_weights
    ):
        chain = fp_chain(simple_game, toy_weights, [(0, 1), (1, 0)])
        ctx = context(simple_game, "fp", chain)
        assert chain[1].pure_action != chain[2].pure_action
        assert not similar_in(chain, chain[1], chain[2], ctx)

    def test_first_lap_does_not_merge_into_run_state(
        self, simple_game, toy_weights
    ):
        # The state straight after the smooth step must not absorb the one
        # two steps later: their reward movements disagree.
        chain = fp_chain(simple_game, toy_weights, [(1, 0), (0, 1), (0, 1)])
        ctx = context(simple_game, "fp", chain)
        assert chain[1].pure_action == chain[2].pure_action == (0, 1)
        assert not similar_in(chain, chain[1], chain[2], ctx)


class TestReplayStrategies:
    def test_one_step_replay_matches_successor(
        self, simple_game, toy_weights
    ):
        chain = fp_chain(simple_game, toy_weights, [(0, 1), (1, 0)])
        assert chain[1].pure_action == (1, 0)  # the word's second step
        assert Future(chain[1], simple_game)[1][2] == chain[2].pure_action

    def test_shapley_three_cycle_returns_to_start(
        self, shapley_game, shapley_weights
    ):
        learner = initial_state("fp", shapley_game, shapley_weights)
        state, _ = _initial_state(shapley_game, learner, tau0=0.01)
        entry = successor(state, (0, 0), shapley_game)
        entry.id = 1
        future = Future(entry, shapley_game)
        # The state's own best-response run: one lap of the diagonal
        # three-cycle, starting from the state's action.
        word = [(2, 2), (1, 1), (0, 0)]
        assert [future[k][2] for k in range(len(word))] == word
        assert future[len(word)][2] == entry.pure_action


def collect_case_study_dtmcs(simple_game, shapley_game, toy, sh_eq):
    cases = []
    for algo, kw in [("fp", {}), ("gfp", {"alpha": 0.2}),
                     ("afffp", {"lambda0": 0.8})]:
        learner = initial_state(algo, simple_game, toy, **kw)
        cases.append(
            (simple_game, algo,
             explore(simple_game, learner,
                     ExploreConfig(max_depth=300, tau0=0.01)))
        )
    learner = initial_state("fp", shapley_game, sh_eq)
    cases.append(
        (shapley_game, "fp",
         explore(shapley_game, learner,
                 ExploreConfig(max_depth=60, tau0=0.01)))
    )
    return cases


class TestMergeSoundness:
    def test_accepted_merges_preserve_tail_behaviour(
        self, simple_game, shapley_game, toy_weights, shapley_weights
    ):
        # Every accepted merge must link states whose deterministic futures
        # settle into the same repeating action set; checked against plain
        # playouts that ignore the merge machinery entirely.
        cases = collect_case_study_dtmcs(
            simple_game, shapley_game, toy_weights, shapley_weights
        )
        checked = 0
        for game, _, dtmc in cases:
            for event in dtmc.merge_events:
                target = dtmc.state(event.target_id)
                candidate = merge_candidate(
                    dtmc.state(event.source_id), event.action, game
                )
                horizon = 2 * candidate.depth + 60
                cls_candidate = playout_class(
                    game, candidate.learner, candidate.pure_action, horizon,
                )
                cls_target = playout_class(
                    game, target.learner, target.pure_action, horizon
                )
                assert cls_candidate == cls_target is not None
                checked += 1
        assert checked > 10

    def test_merges_only_between_equal_executed_actions(
        self, simple_game, shapley_game, toy_weights, shapley_weights
    ):
        cases = collect_case_study_dtmcs(
            simple_game, shapley_game, toy_weights, shapley_weights
        )
        for game, _, dtmc in cases:
            for event in dtmc.merge_events:
                target = dtmc.state(event.target_id)
                candidate = merge_candidate(
                    dtmc.state(event.source_id), event.action, game
                )
                assert target.pure_action == candidate.pure_action


class TestProbabilityPreservation:
    @pytest.mark.parametrize(
        "algo,kw",
        [("fp", {}), ("gfp", {"alpha": 0.2}), ("afffp", {"lambda0": 0.8})],
    )
    def test_merged_reach_matches_merge_free_expansion(
        self, simple_game, toy_weights, algo, kw
    ):
        from smcl import analyze

        learner = initial_state(algo, simple_game, toy_weights, **kw)
        dtmc = explore(
            simple_game, learner, ExploreConfig(max_depth=300, tau0=0.01)
        )
        report = analyze(simple_game, dtmc)
        merged = {}
        for b in report.bsccs:
            merged[b.actions] = merged.get(b.actions, 0.0) \
                + b.reach_probability
        brute = brute_force_reach(simple_game, learner, tau0=0.01)
        assert set(merged) == set(brute)
        for cls, p in brute.items():
            assert merged[cls] == pytest.approx(p, abs=1e-9)
