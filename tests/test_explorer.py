import gc
import math
import re
import weakref

import numpy as np
import pytest

from smcl import (
    ExplorationState,
    ExploreConfig,
    StateBudgetError,
    Transition,
    complex_coordination,
    explore,
    initial_state,
    random_initial_weights,
    successor,
)
from smcl.explorer import _initial_state
from smcl.similarity import Future


def fp_learner(game, weights):
    return initial_state("fp", game, weights)


def exploration(game, learner, **kwargs):
    defaults = dict(max_depth=100, tau0=0.01)
    defaults.update(kwargs)
    return explore(game, learner, ExploreConfig(**defaults))


class TestInitialState:
    def test_joint_probabilities_match_frozen_values(
        self, simple_game, toy_weights
    ):
        dtmc = exploration(simple_game, fp_learner(simple_game, toy_weights))
        probs = {t.action: t.probability for t in dtmc.out(0)}
        # closed form: x = 1/(1 + exp(-(0.511-0.489)/0.01))
        x = 1.0 / (1.0 + math.exp(-2.2))
        assert probs[(0, 0)] == pytest.approx(x * (1 - x), abs=1e-12)
        assert probs[(0, 1)] == pytest.approx(x * x, abs=1e-12)
        assert probs[(1, 0)] == pytest.approx((1 - x) * (1 - x), abs=1e-12)
        assert probs[(1, 1)] == pytest.approx((1 - x) * x, abs=1e-12)
        # published rounding: 0.09 / 0.81 / 0.01 / 0.09
        assert probs[(0, 0)] == pytest.approx(0.09, abs=5e-3)
        assert probs[(0, 1)] == pytest.approx(0.81, abs=5e-3)
        assert probs[(1, 0)] == pytest.approx(0.01, abs=5e-3)
        assert probs[(1, 1)] == pytest.approx(0.09, abs=5e-3)


class TestSuccessor:
    def test_matches_frozen_one_step_weights(self, simple_game, toy_weights):
        learner = fp_learner(simple_game, toy_weights)
        start, _ = _initial_state(simple_game, learner, tau0=0.01)
        child = successor(start, (0, 0), simple_game)
        # Rows are the ordered pairs (0, 1) and (1, 0).
        assert np.allclose(
            child.learner.weights[0], [1.511, 0.489], atol=1e-12
        )
        assert np.allclose(
            child.learner.weights[1], [1.489, 0.511], atol=1e-12
        )
        assert child.pure_action == (0, 0)
        assert child.depth == 1
        assert child.predecessor_pure_action is None  # initial is mixed

    def test_fixed_point_keeps_strategy(self, simple_game, toy_weights):
        learner = fp_learner(simple_game, toy_weights)
        start, _ = _initial_state(simple_game, learner, tau0=0.01)
        state = successor(start, (0, 0), simple_game)
        state.id = 1
        for _ in range(5):
            state = successor(state, state.pure_action, simple_game)
            assert state.pure_action == (0, 0)

    def test_rejects_malformed_action(self, simple_game, toy_weights):
        learner = fp_learner(simple_game, toy_weights)
        start, _ = _initial_state(simple_game, learner, tau0=0.01)
        with pytest.raises(IndexError):
            successor(start, (0, 2), simple_game)
        with pytest.raises(ValueError):
            successor(start, (0,), simple_game)
        state = successor(start, (0, 0), simple_game)
        state.future = Future(state, simple_game)
        state.future[1]
        with pytest.raises(IndexError):
            successor(state, (2, 0), simple_game)


class TestExploreStructure:
    def test_only_the_initial_state_keeps_a_strategy(self):
        # The first-step distribution is the chain's start and nothing
        # else: a mixed initial state has no pure action, every later
        # state is read through its pure action, and a merge keeps ids and
        # the action only.
        game = complex_coordination(n=2)
        learner = initial_state("fp", game,
                                random_initial_weights(game, [31, 0]))
        dtmc = exploration(game, learner, max_depth=10, tau0=1.0)
        assert dtmc.sink_id is not None and dtmc.merge_events
        assert dtmc.state(dtmc.initial_id).pure_action is None
        assert len(dtmc.start) == math.prod(game.action_counts)
        assert sum(t.probability for t in dtmc.start) \
            == pytest.approx(1.0, abs=1e-12)
        for state in dtmc.states:
            if state.id not in (dtmc.initial_id, dtmc.sink_id):
                assert state.pure_action is not None
        for event in dtmc.merge_events:
            assert not any(isinstance(f, ExplorationState) for f in event)

    def test_pure_initial_state_has_one_start_transition(self):
        # A first step pure to within 1e-9 is the initial state's own pure
        # action, fired with probability exactly 1.
        game = complex_coordination(n=2)
        learner = initial_state("fp", game,
                                random_initial_weights(game, [31, 0]))
        dtmc = exploration(game, learner, max_depth=10, tau0=1e-6)
        action = dtmc.state(dtmc.initial_id).pure_action
        assert action is not None
        assert dtmc.start == [Transition(dtmc.start[0].target, 1.0, action)]

    def test_three_bsccs_on_coordination_game(
        self, simple_game, toy_weights
    ):
        from smcl import Classification, analyze

        dtmc = exploration(simple_game, fp_learner(simple_game, toy_weights))
        report = analyze(simple_game, dtmc)
        labels = sorted(b.classification.value for b in report.bsccs)
        assert labels == [
            "PureNashPareto", "PureNashPareto", "RewardlessCycle"
        ]
        cycle = next(
            b for b in report.bsccs
            if b.classification is Classification.REWARDLESS_CYCLE
        )
        assert cycle.actions == frozenset({(0, 1), (1, 0)})

    def test_depth_bound_truncates_to_sink(self, simple_game, toy_weights):
        dtmc = exploration(
            simple_game, fp_learner(simple_game, toy_weights), max_depth=1
        )
        assert dtmc.truncated
        assert dtmc.sink_id is not None
        depth_one = [
            s.id for s in dtmc.states
            if s.depth == 1 and s.id != dtmc.sink_id
        ]
        assert depth_one
        for sid in depth_one:
            assert dtmc.out(sid) == [(dtmc.sink_id, 1.0, None)]
        assert dtmc.out(dtmc.sink_id) == [(dtmc.sink_id, 1.0, None)]

    def test_shapley_equal_weights_contains_diagonal_cycle(
        self, shapley_game, shapley_weights
    ):
        from smcl import analyze

        learner = fp_learner(shapley_game, shapley_weights)
        dtmc = exploration(shapley_game, learner, max_depth=60)
        report = analyze(shapley_game, dtmc)
        assert frozenset({(0, 0), (1, 1), (2, 2)}) in {
            b.actions for b in report.bsccs
        }

    def test_deterministic_rebuild(self, simple_game, toy_weights):
        one = exploration(simple_game, fp_learner(simple_game, toy_weights))
        two = exploration(simple_game, fp_learner(simple_game, toy_weights))
        assert one.num_states == two.num_states
        assert (one.successor, one.start) == (two.successor, two.start)
        for a, b in zip(one.states, two.states):
            assert a.pure_action == b.pure_action
            assert a.depth == b.depth
            assert a.parent_id == b.parent_id

    def test_outgoing_probabilities_sum_to_one(
        self, simple_game, shapley_game, toy_weights, shapley_weights
    ):
        for game, weights, depth in [
            (simple_game, toy_weights, 100),
            (shapley_game, shapley_weights, 30),
        ]:
            dtmc = exploration(
                game, fp_learner(game, weights), max_depth=depth
            )
            for sid in range(dtmc.num_states):
                total = sum(t.probability for t in dtmc.out(sid))
                assert total == pytest.approx(1.0, abs=1e-9)

    def test_no_orphan_states(self, simple_game, toy_weights):
        dtmc = exploration(simple_game, fp_learner(simple_game, toy_weights))
        reached, frontier = {dtmc.initial_id}, [dtmc.initial_id]
        while frontier:
            sid = frontier.pop()
            for t in dtmc.out(sid):
                if t.target not in reached:
                    reached.add(t.target)
                    frontier.append(t.target)
        assert reached == set(range(dtmc.num_states))

    def test_states_past_first_iteration_are_pure(
        self, simple_game, toy_weights
    ):
        dtmc = exploration(simple_game, fp_learner(simple_game, toy_weights))
        for state in dtmc.states:
            if state.depth >= 1 and state.id != dtmc.sink_id:
                assert state.pure_action is not None


class TestExploreWithoutMerging:
    def test_tree_plus_sink(self, simple_game, toy_weights):
        dtmc = exploration(
            simple_game, fp_learner(simple_game, toy_weights),
            max_depth=6, merge_enabled=False,
        )
        assert dtmc.truncated
        assert not dtmc.merge_events
        for state in dtmc.states:
            if state.id in (dtmc.initial_id, dtmc.sink_id):
                continue
            assert state.depth <= 6
            assert state.parent_id is not None
        # every non-sink transition goes to a fresh (higher-id) state
        for sid in range(dtmc.num_states):
            for t in dtmc.out(sid):
                if t.target != dtmc.sink_id:
                    assert t.target > sid


class TestExploreLimits:
    def test_state_cap_raises_with_partial_count(
        self, simple_game, toy_weights
    ):
        with pytest.raises(StateBudgetError) as info:
            exploration(
                simple_game, fp_learner(simple_game, toy_weights),
                merge_enabled=False, max_depth=100, state_cap=20,
            )
        assert info.value.state_count > 20

    def test_state_cap_counts_the_sink(self, simple_game, toy_weights):
        # Depth 3 without merging adopts 13 states and then adds the sink.
        learner = fp_learner(simple_game, toy_weights)
        with pytest.raises(StateBudgetError) as info:
            exploration(simple_game, learner, max_depth=3, tau0=1.0,
                        merge_enabled=False, state_cap=13)
        assert info.value.state_count == 14
        dtmc = exploration(simple_game, learner, max_depth=3, tau0=1.0,
                           merge_enabled=False, state_cap=14)
        assert dtmc.num_states == 14 and dtmc.sink_id == 13

    def test_chain_freed_without_the_cycle_collector(self):
        # Merging keeps a context and one trajectory per branch beside the
        # states; a reference cycle through them would keep every state
        # alive until the collector runs, long after the chain itself is
        # dropped.
        game = complex_coordination(n=2)
        learner = initial_state("gfp", game,
                                random_initial_weights(game, [5, 0]),
                                alpha=0.2)
        enabled = gc.isenabled()
        gc.disable()
        try:
            dtmc = exploration(game, learner, max_depth=300, tau0=1.0)
            assert dtmc.merge_events
            states = [weakref.ref(s) for s in dtmc.states]
            del dtmc
            assert all(ref() is None for ref in states)
        finally:
            if enabled:
                gc.enable()

    def test_probability_floor_prunes_and_renormalises(
        self, simple_game, toy_weights
    ):
        dtmc = exploration(
            simple_game, fp_learner(simple_game, toy_weights),
            prob_floor=0.05,
        )
        actions = {t.action for t in dtmc.out(0)}
        assert (1, 0) not in actions  # the 0.00995 branch is pruned
        total = sum(t.probability for t in dtmc.out(0))
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ExploreConfig(max_depth=0)
        with pytest.raises(ValueError):
            ExploreConfig(tau0=0.0)
        with pytest.raises(ValueError):
            ExploreConfig(prob_floor=-0.1)
        # NaN passes a plain bound check; a fraction is no depth or count.
        for name, value in [("max_depth", math.nan), ("state_cap", math.nan),
                            ("max_depth", 2.5), ("state_cap", 2.5)]:
            with pytest.raises(ValueError,
                               match=f"{name} must be at least 1 and an "
                                     f"integer, got {value}"):
                ExploreConfig(**{name: value})

    def test_state_cap_below_one_rejected(self):
        for cap in (0, -3):
            with pytest.raises(ValueError,
                               match="state_cap must be at least 1"):
                ExploreConfig(state_cap=cap)

    @pytest.mark.parametrize(
        "floor", [math.nan, math.inf, -math.inf, 1.0, 2.0]
    )
    def test_rejects_prob_floor_outside_unit_interval(self, floor):
        # A floor of 1 or more, or NaN, prunes every first-step branch.
        with pytest.raises(ValueError, match=re.escape(
                f"prob_floor must be in [0, 1), got {floor}")):
            ExploreConfig(prob_floor=floor)

    def test_learner_game_mismatch(self, simple_game, shapley_game,
                                   toy_weights):
        learner = fp_learner(simple_game, toy_weights)
        with pytest.raises(ValueError):
            explore(shapley_game, learner, ExploreConfig())
