import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import smcl
from smcl import (
    Classification,
    Dtmc,
    ExplorationState,
    ExploreConfig,
    Transition,
    analyze,
    bscc_actions,
    bottom_sccs,
    classify,
    complex_coordination,
    convergence_probability,
    explore,
    initial_state,
    random_initial_weights,
    reach_probabilities,
    shapley,
    simple_coordination,
    steady_state,
)

import reference_analysis as ref
from conftest import brute_force_reach
from reference_analysis import tarjan_sccs

NASH_SPLIT = 0.17960065808013714  # 2 x (1 - x), x = 1/(1 + exp(-2.2))


def stub_states(num_states):
    return [
        ExplorationState(id=i, learner=None, depth=0)
        for i in range(num_states)
    ]


def graph_dtmc(edges, num_states):
    """Stub chain from (src, dst, prob) triples; states carry no learner.

    State 0's edges are the start distribution; every other state takes one
    edge of probability 1, and a state without one keeps -1.
    """
    successor = [-1] * num_states
    start = []
    for src, dst, prob in edges:
        if src == 0:
            start.append(Transition(dst, prob, None))
        else:
            assert successor[src] == -1 and prob == 1.0, (src, dst, prob)
            successor[src] = dst
    return Dtmc(states=stub_states(num_states), successor=successor,
                start=start)


def coordination_dtmc(simple_game, toy_weights, algo="fp", **kw):
    learner = initial_state(algo, simple_game, toy_weights, **kw)
    return explore(
        simple_game, learner, ExploreConfig(max_depth=300, tau0=0.01)
    )


def random_stochastic_graph(rng, n):
    edges = []
    for src in range(n):
        degree = int(rng.integers(1, 4))
        targets = rng.integers(0, n, size=degree)
        probs = rng.uniform(0.1, 1.0, size=degree)
        probs = probs / probs.sum()
        for dst, p in zip(targets, probs):
            edges.append((src, int(dst), float(p)))
    return ref.Digraph(edges, n)


def brute_force_sccs(dtmc):
    n = dtmc.num_states
    reach = np.eye(n, dtype=bool)
    for sid in range(n):
        for t in dtmc.out(sid):
            if t.probability > 0:
                reach[sid, t.target] = True
    for _ in range(n):
        updated = reach | (reach @ reach)
        if (updated == reach).all():
            break
        reach = updated
    groups = {}
    for sid in range(n):
        mutual = frozenset(
            other for other in range(n)
            if reach[sid, other] and reach[other, sid]
        )
        groups[mutual] = None
    return set(groups)


class TestTarjan:
    def test_chain_with_terminal_self_loop(self):
        dtmc = ref.Digraph(
            [(0, 1, 1.0), (1, 2, 1.0), (2, 2, 1.0)], num_states=3
        )
        sccs = tarjan_sccs(dtmc)
        assert len(sccs) == 3
        bottoms = [s for s in sccs if s.is_bottom]
        assert len(bottoms) == 1
        assert bottoms[0].members == frozenset({2})

    def test_two_cycle_is_single_bottom_component(self):
        dtmc = ref.Digraph([(0, 1, 1.0), (1, 0, 1.0)], num_states=2)
        sccs = tarjan_sccs(dtmc)
        assert len(sccs) == 1
        assert sccs[0].is_bottom
        assert sccs[0].members == frozenset({0, 1})

    def test_coordination_chain_has_three_bottoms(
        self, simple_game, toy_weights
    ):
        dtmc = coordination_dtmc(simple_game, toy_weights)
        assert len(bottom_sccs(dtmc)) == 3

    def test_matches_brute_force_on_random_graphs(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            dtmc = random_stochastic_graph(rng, int(rng.integers(2, 30)))
            found = {scc.members for scc in tarjan_sccs(dtmc)}
            assert found == brute_force_sccs(dtmc)

    def test_bottom_flag_consistent(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            dtmc = random_stochastic_graph(rng, int(rng.integers(2, 25)))
            for scc in tarjan_sccs(dtmc):
                leaves = any(
                    t.target not in scc.members
                    for sid in scc.members
                    for t in dtmc.out(sid)
                    if t.probability > 0
                )
                assert scc.is_bottom == (not leaves)

    def test_survives_deep_chain(self):
        n = 30_000
        edges = [(i, i + 1, 1.0) for i in range(n - 1)]
        edges.append((n - 1, n - 1, 1.0))
        dtmc = ref.Digraph(edges, num_states=n)
        sccs = tarjan_sccs(dtmc)
        assert len(sccs) == n


class TestBsccActions:
    def test_cycle_actions(self, simple_game, toy_weights):
        dtmc = coordination_dtmc(simple_game, toy_weights)
        cycles = [
            scc for scc in bottom_sccs(dtmc) if len(scc.members) == 2
        ]
        assert len(cycles) == 1
        assert bscc_actions(dtmc, cycles[0]) == {(0, 1), (1, 0)}

    def test_singleton_actions(self, simple_game, toy_weights):
        dtmc = coordination_dtmc(simple_game, toy_weights)
        singles = sorted(
            bscc_actions(dtmc, scc).pop()
            for scc in bottom_sccs(dtmc)
            if len(scc.members) == 1
        )
        assert singles == [(0, 0), (1, 1)]


class TestReachProbabilities:
    def test_frozen_coordination_split(self, simple_game, toy_weights):
        dtmc = coordination_dtmc(simple_game, toy_weights)
        report = analyze(simple_game, dtmc)
        nash = sum(
            b.reach_probability for b in report.bsccs
            if len(b.scc.members) == 1
        )
        cycle = sum(
            b.reach_probability for b in report.bsccs
            if len(b.scc.members) == 2
        )
        assert nash == pytest.approx(NASH_SPLIT, abs=1e-12)
        assert cycle == pytest.approx(1.0 - NASH_SPLIT, abs=1e-12)

    def test_matches_brute_force_expansion(self, simple_game, toy_weights):
        learner = initial_state("fp", simple_game, toy_weights)
        dtmc = coordination_dtmc(simple_game, toy_weights)
        report = analyze(simple_game, dtmc)
        brute = brute_force_reach(simple_game, learner, tau0=0.01)
        for b in report.bsccs:
            assert b.reach_probability == pytest.approx(
                brute[b.actions], abs=1e-9
            )

    def test_initial_state_inside_bscc(self):
        # The initial state's one transition enters a two-cycle.
        dtmc = graph_dtmc([(0, 1, 1.0), (1, 2, 1.0), (2, 1, 1.0)],
                          num_states=3)
        (scc,) = bottom_sccs(dtmc)
        assert scc.members == frozenset({1, 2})
        assert reach_probabilities(dtmc, [scc]) == [1.0]

    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            dtmc = random_stochastic_graph(rng, int(rng.integers(3, 40)))
            bottoms = ref.bottom_sccs(dtmc)
            total = sum(ref.reach_probabilities(dtmc, bottoms))
            assert total == pytest.approx(1.0, abs=1e-9)


class TestSteadyState:
    def test_deterministic_two_cycle_is_even(self):
        dtmc = graph_dtmc([(0, 1, 1.0), (1, 2, 1.0), (2, 1, 1.0)],
                          num_states=3)
        (scc,) = bottom_sccs(dtmc)
        assert steady_state(dtmc, scc) == pytest.approx(
            {1: 0.5, 2: 0.5}, abs=1e-12
        )

    def test_self_loop_singleton(self):
        dtmc = graph_dtmc([(0, 1, 1.0), (1, 1, 1.0)], num_states=2)
        (scc,) = bottom_sccs(dtmc)
        assert steady_state(dtmc, scc) == {1: 1.0}

    def test_biased_two_state_chain(self):
        # stationary distribution of a proper stochastic 2-state chain
        dtmc = ref.Digraph(
            [(0, 0, 0.6), (0, 1, 0.4), (1, 0, 0.2), (1, 1, 0.8)],
            num_states=2,
        )
        (scc,) = ref.bottom_sccs(dtmc)
        pi = ref.steady_state(dtmc, scc)
        assert pi[0] == pytest.approx(1 / 3, abs=1e-12)
        assert pi[1] == pytest.approx(2 / 3, abs=1e-12)

    def test_shapley_diagonal_cycle_uniform(
        self, shapley_game, shapley_weights
    ):
        learner = initial_state("fp", shapley_game, shapley_weights)
        dtmc = explore(
            shapley_game, learner, ExploreConfig(max_depth=60, tau0=0.01)
        )
        report = analyze(shapley_game, dtmc)
        diag = next(
            b for b in report.bsccs
            if b.actions == frozenset({(0, 0), (1, 1), (2, 2)})
        )
        for p in diag.steady_state.values():
            assert p == pytest.approx(1 / 3, abs=1e-9)


class TestClassification:
    def test_coordination_labels(self, simple_game, toy_weights):
        dtmc = coordination_dtmc(simple_game, toy_weights)
        labels = sorted(
            classify(simple_game, dtmc, scc).value
            for scc in bottom_sccs(dtmc)
        )
        assert labels == [
            "PureNashPareto", "PureNashPareto", "RewardlessCycle"
        ]

    def test_truncation_label(self, simple_game, toy_weights):
        learner = initial_state("fp", simple_game, toy_weights)
        dtmc = explore(
            simple_game, learner, ExploreConfig(max_depth=1, tau0=0.01)
        )
        sink_scc = next(
            scc for scc in bottom_sccs(dtmc)
            if dtmc.sink_id in scc.members
        )
        assert classify(simple_game, dtmc, sink_scc) \
            is Classification.TRUNCATION

    def test_shapley_diagonal_cycle_is_mixed(
        self, shapley_game, shapley_weights
    ):
        learner = initial_state("fp", shapley_game, shapley_weights)
        dtmc = explore(
            shapley_game, learner, ExploreConfig(max_depth=60, tau0=0.01)
        )
        report = analyze(shapley_game, dtmc)
        diag = next(
            b for b in report.bsccs
            if b.actions == frozenset({(0, 0), (1, 1), (2, 2)})
        )
        assert diag.classification is Classification.MIXED_CYCLE

    def test_non_pareto_nash_label(self):
        # 2x2 game with a dominated pure equilibrium at (1, 1)
        from smcl import Game

        table_row = np.array([[3.0, 0.0], [0.0, 1.0]])
        game = Game.from_tables([table_row, table_row])
        dtmc = graph_dtmc([(0, 1, 1.0), (1, 1, 1.0)], num_states=2)
        dtmc.states[1].pure_action = (1, 1)
        (scc,) = bottom_sccs(dtmc)
        assert classify(game, dtmc, scc) \
            is Classification.PURE_NASH_NON_PARETO

    def test_repeated_pure_equilibrium_lies_in_bottom_component(
        self, simple_game, toy_weights
    ):
        # A state that keeps repeating a pure equilibrium lies in a BSCC.
        from smcl import is_pure_nash

        dtmc = coordination_dtmc(simple_game, toy_weights)
        bottom_ids = set().union(
            *(scc.members for scc in bottom_sccs(dtmc))
        )
        for state in dtmc.states:
            if state.id == dtmc.sink_id or state.pure_action is None:
                continue
            fixed_point = dtmc.successor[state.id] == state.id
            if fixed_point and is_pure_nash(simple_game, state.pure_action):
                assert state.id in bottom_ids


class TestConvergenceProbability:
    def test_single_absorbing_equilibrium(self, simple_game):
        dtmc = graph_dtmc([(0, 1, 1.0), (1, 1, 1.0)], num_states=2)
        dtmc.states[1].pure_action = (0, 0)
        assert convergence_probability(simple_game, dtmc) == 1.0

    def test_coordination_from_frozen_value(self, simple_game, toy_weights):
        dtmc = coordination_dtmc(simple_game, toy_weights)
        assert convergence_probability(simple_game, dtmc) == pytest.approx(
            NASH_SPLIT, abs=1e-12
        )
        assert convergence_probability(simple_game, dtmc) == pytest.approx(
            0.18, abs=0.01
        )


def random_functional_graph(rng, n, branches):
    """Stub chain of the explored shape, with a few extra structures.

    State 0 is the initial state: it fires ``branches`` transitions and
    nothing re-enters it.  Every other state has one successor.  The last
    state is a sink with a self-loop, and the three before it form a cycle
    that no other state points to, so no branch reaches it.
    """
    assert n >= 6
    open_targets = list(range(1, n - 4)) + [n - 1]
    edges = [
        (src, int(rng.choice(open_targets)), 1.0) for src in range(1, n - 4)
    ]
    edges += [(n - 4, n - 3, 1.0), (n - 3, n - 2, 1.0), (n - 2, n - 4, 1.0),
              (n - 1, n - 1, 1.0)]
    probs = rng.uniform(0.1, 1.0, size=branches)
    for p in probs / probs.sum():
        edges.append((0, int(rng.choice(open_targets)), float(p)))
    return graph_dtmc(edges, n)


def assert_matches_reference(dtmc):
    bottoms = bottom_sccs(dtmc)
    expected = ref.bottom_sccs(dtmc)
    assert [s.members for s in bottoms] == [s.members for s in expected]
    assert reach_probabilities(dtmc, bottoms) == pytest.approx(
        ref.reach_probabilities(dtmc, expected), abs=1e-12
    )
    for scc in bottoms:
        assert steady_state(dtmc, scc) == pytest.approx(
            ref.steady_state(dtmc, scc), abs=1e-12
        )


class TestAgainstReference:
    def test_random_functional_graphs(self):
        rng = np.random.default_rng(41)
        unreached = 0
        for _ in range(300):
            n = int(rng.integers(6, 40))
            dtmc = random_functional_graph(rng, n, int(rng.integers(1, 6)))
            assert_matches_reference(dtmc)
            probabilities = reach_probabilities(dtmc, bottom_sccs(dtmc))
            unreached += probabilities.count(0.0)
        assert unreached >= 300  # the cycle no state points to, at least

    def test_survives_deep_chain(self):
        n = 30_000
        edges = [(i, i + 1, 1.0) for i in range(n - 1)]
        edges.append((n - 1, n - 1, 1.0))
        dtmc = graph_dtmc(edges, num_states=n)
        (scc,) = bottom_sccs(dtmc)
        assert scc.members == frozenset({n - 1})
        assert reach_probabilities(dtmc, [scc]) == [1.0]

    @pytest.mark.parametrize("algo", ["fp", "gfp", "afffp"])
    @pytest.mark.parametrize("game_name", ["simple", "shapley", "banded2"])
    def test_explored_chains(self, game_name, algo):
        game = {
            "simple": simple_coordination,
            "shapley": shapley,
            "banded2": lambda: complex_coordination(n=2),
        }[game_name]()
        kwargs = {"gfp": {"alpha": 0.2}, "afffp": {"lambda0": 0.8}}
        configs = [
            ExploreConfig(max_depth=50, tau0=1.0),
            ExploreConfig(max_depth=3, tau0=1.0),  # truncated
            ExploreConfig(max_depth=50, tau0=0.3, prob_floor=1e-3),
            ExploreConfig(max_depth=50, tau0=1e-6),  # pure initial state
        ]
        truncated = pure_root = 0
        for k in range(2):
            weights = random_initial_weights(game, seed=[37, k])
            learner = initial_state(algo, game, weights,
                                    **kwargs.get(algo, {}))
            for cfg in configs:
                dtmc = explore(game, learner, cfg)
                assert_matches_reference(dtmc)
                assert dtmc.successor[0] == -1
                truncated += dtmc.truncated
                pure_root += len(dtmc.out(dtmc.initial_id)) == 1
        assert truncated >= 2 and pure_root >= 2


class TestChainShape:
    """``Dtmc`` rejects chains that are not exploration's functional graph."""

    def test_successor_count_differs_from_state_count(self):
        with pytest.raises(ValueError, match="state 2: 2 successors for 3"):
            Dtmc(states=stub_states(3), successor=[-1, 2],
                 start=[Transition(1, 1.0, None)])

    def test_state_without_transitions(self):
        with pytest.raises(ValueError,
                           match="state 2: successor -1 is not a state"):
            graph_dtmc([(0, 1, 0.5), (0, 2, 0.5), (1, 1, 1.0)], 3)

    def test_successor_out_of_range(self):
        with pytest.raises(ValueError,
                           match="state 1: successor 3 is not a state"):
            graph_dtmc([(0, 1, 1.0), (1, 3, 1.0), (2, 2, 1.0)], 3)

    def test_initial_state_without_transitions(self):
        with pytest.raises(ValueError, match="state 0 has no transitions"):
            graph_dtmc([(1, 1, 1.0)], 2)

    def test_start_target_out_of_range(self):
        with pytest.raises(ValueError, match="state 0: a start target"):
            graph_dtmc([(0, 1, 0.5), (0, 4, 0.5), (1, 1, 1.0)], 2)

    def test_row_not_summing_to_one(self):
        with pytest.raises(ValueError, match="state 0: transition"):
            graph_dtmc([(0, 1, 0.5), (0, 2, 0.4), (1, 1, 1.0),
                        (2, 2, 1.0)], 3)

    def test_nan_probability(self):
        with pytest.raises(ValueError, match="state 0: transition"):
            graph_dtmc([(0, 1, float("nan")), (1, 1, 1.0)], 2)

    def test_branching_initial_state_re_entered(self):
        with pytest.raises(ValueError, match="state 0: the initial state"):
            graph_dtmc(
                [(0, 1, 0.5), (0, 2, 0.5), (1, 1, 1.0), (2, 0, 1.0)], 3
            )

    def test_start_of_a_non_branching_initial_state(self):
        # The one transition of a non-branching initial state is its
        # ``start``; its ``successor`` stays -1 and no copy of it is kept.
        dtmc = graph_dtmc([(0, 1, 1.0), (1, 1, 1.0)], 2)
        assert dtmc.successor[0] == -1
        assert dtmc.out(0) == dtmc.start == [Transition(1, 1.0, None)]
        with pytest.raises(ValueError, match="state 0: the initial state "
                                             "has a successor"):
            Dtmc(states=stub_states(2), successor=[1, 1],
                 start=[Transition(1, 1.0, None)])

    def test_pure_initial_state_may_lie_on_a_cycle(self):
        # A pure initial state's play may come back to where it began; the
        # chain holds that return as a later state (3), never as state 0.
        dtmc = graph_dtmc([(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0),
                           (3, 1, 1.0)], 4)
        (scc,) = bottom_sccs(dtmc)
        assert scc.members == frozenset({1, 2, 3})
        assert steady_state(dtmc, scc) == {1: 1 / 3, 2: 1 / 3, 3: 1 / 3}
        assert reach_probabilities(dtmc, [scc]) == [1.0]
        for edges, n in [([(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0)], 3),
                         ([(0, 0, 1.0)], 1)]:
            with pytest.raises(ValueError, match="state 0: the initial state "
                                                 "has a successor or is "
                                                 "re-entered"):
                graph_dtmc(edges, n)

    def test_truncated_is_read_from_the_sink(self):
        chain = graph_dtmc([(0, 1, 1.0), (1, 2, 1.0), (2, 2, 1.0)], 3)
        assert not chain.truncated
        chain = Dtmc(states=stub_states(3), successor=[-1, 2, 2],
                     start=[Transition(1, 1.0, None)], sink_id=2)
        assert chain.truncated
        with pytest.raises(TypeError):
            Dtmc(states=stub_states(3), successor=[-1, 2, 2],
                 start=[Transition(1, 1.0, None)], truncated=True)

    def test_sink_out_of_range(self):
        with pytest.raises(ValueError,
                           match="state 7: the sink is not a self-loop"):
            Dtmc(states=stub_states(3), successor=[-1, 2, 2],
                 start=[Transition(1, 1.0, None)], sink_id=7)

    def test_sink_without_self_loop(self):
        with pytest.raises(ValueError,
                           match="state 1: the sink is not a self-loop"):
            Dtmc(states=stub_states(3), successor=[-1, 2, 2],
                 start=[Transition(1, 1.0, None)], sink_id=1)

    def test_cycle_missing_from_bscc_list(self):
        dtmc = graph_dtmc([(0, 1, 0.5), (0, 2, 0.5), (1, 1, 1.0),
                           (2, 2, 1.0)], 3)
        first, _ = bottom_sccs(dtmc)
        with pytest.raises(ValueError, match="state 2 lies on a cycle"):
            reach_probabilities(dtmc, [first])

    def test_floor_above_every_first_step(self, simple_game, toy_weights):
        # Every tau0 = 1 first-step probability lies below the floor, so the
        # initial state keeps no transition; this must not read as a cycle.
        learner = initial_state("fp", simple_game, toy_weights)
        with pytest.raises(ValueError, match="state 0 has no transitions"):
            explore(simple_game, learner,
                    ExploreConfig(tau0=1.0, prob_floor=0.3))


def test_analyze_reads_no_transition_lists(simple_game, toy_weights,
                                           monkeypatch):
    # The analysis reads the successor map and the start distribution; it
    # never builds a state's transition list.
    dtmc = coordination_dtmc(simple_game, toy_weights)
    calls = []

    def counting(sid):
        calls.append(sid)
        return Dtmc.out(dtmc, sid)

    monkeypatch.setattr(dtmc, "out", counting)
    report = analyze(simple_game, dtmc)
    assert report.bsccs and not calls


def test_import_does_not_load_scipy():
    src = Path(smcl.__file__).resolve().parents[1]
    code = "import sys, smcl; print('scipy' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        check=True, env={"PYTHONPATH": str(src)}, timeout=60,
    )
    assert result.stdout.strip() == "False"
