"""The explorer's merge index against the reference bucket scan.

The index must change nothing but speed: the chains it builds must equal
those of the full newest-first scan state for state, and its array
pre-filter must never drop an entry that the relation accepts.  The scan
decides with ``reference_similar``, the relation's scalar guards, so the
array guards shared by ``similar()`` and the pre-filter are checked against
it pair by pair.
"""

from collections import Counter
from dataclasses import replace
from functools import cache

import numpy as np
import pytest

from smcl import (
    ExploreConfig,
    Game,
    complex_coordination,
    explore,
    initial_state,
    random_initial_weights,
    shapley,
    simple_coordination,
)
from smcl import explorer as explorer_mod
from smcl import learners as learners_mod
from smcl.explorer import _initial_state, successor
from smcl.similarity import DEFAULT_TOL, Future

from reference_scan import reference_explore

ALGOS = {"fp": {}, "gfp": {"alpha": 0.2}, "afffp": {"lambda0": 0.8}}
GAMES = {
    "simple": simple_coordination,
    "shapley": shapley,
    "banded2": lambda: complex_coordination(n=2),
    "banded3": lambda: complex_coordination(n=3),
}
# Without merging, every first-step branch is also checked on a random
# three-player game.
ALL_GAMES = {
    **GAMES,
    "three_player": lambda: Game(
        (2, 3, 2), np.random.default_rng(232).uniform(0, 1, size=(3, 12))
    ),
}
CONFIGS = [
    ExploreConfig(max_depth=50, tau0=1.0),
    ExploreConfig(max_depth=50, tau0=0.3, prob_floor=1e-3),
    # Small enough that the initial strategy is pure: one first-step branch.
    ExploreConfig(max_depth=50, tau0=1e-6),
]


def assert_same_chain(got, want, want_out, atol=0.0):
    """``got`` equals the reference chain ``want``, whose per-state
    transition lists are ``want_out``; expected rewards may differ by
    ``atol``."""
    assert got.num_states == want.num_states
    for a, b in zip(got.states, want.states):
        assert (a.id, a.depth, a.parent_id, a.pure_action,
                a.predecessor_pure_action) \
            == (b.id, b.depth, b.parent_id, b.pure_action,
                b.predecessor_pure_action)
        if a.id == want.sink_id:
            continue
        for name in ("weights", "norms", "lams", "dweights", "dnorms"):
            assert np.array_equal(getattr(a.learner, name),
                                  getattr(b.learner, name)), (a.id, name)
        for x, y in zip(a.expected_rewards, b.expected_rewards):
            assert np.allclose(x, y, rtol=0, atol=atol), a.id
    for sid in range(got.num_states):
        assert got.out(sid) == want_out[sid], sid
    assert (got.successor, got.start) == (want.successor, want.start)
    assert (got.sink_id, got.truncated) == (want.sink_id, want.truncated)
    assert [(e.source_id, e.action, e.target_id) for e in got.merge_events] \
        == [(e.source_id, e.action, e.target_id) for e in want.merge_events]


def cases(game_name, algo, inits=2):
    game = ALL_GAMES[game_name]()
    for k in range(inits):
        weights = random_initial_weights(game, seed=[31, k])
        yield game, initial_state(algo, game, weights, **ALGOS[algo])


@pytest.mark.parametrize("algo", sorted(ALGOS))
@pytest.mark.parametrize("game_name", ["simple", "shapley", "banded2"])
def test_index_matches_reference_scan(game_name, algo, monkeypatch):
    merges = 0
    for game, learner in cases(game_name, algo):
        for cfg in CONFIGS:
            want, want_out, _ = reference_explore(game, learner, cfg)
            # 0 sends every non-empty bucket through the array tests.
            for small_bucket in (explorer_mod._SMALL_BUCKET, 0):
                with monkeypatch.context() as patch:
                    patch.setattr(explorer_mod, "_SMALL_BUCKET", small_bucket)
                    got = explore(game, learner, cfg)
                assert_same_chain(got, want, want_out)
            merges += len(want.merge_events)
    assert merges > 0


@pytest.mark.parametrize("algo", sorted(ALGOS))
@pytest.mark.parametrize("game_name",
                         ["simple", "shapley", "banded2", "three_player"])
def test_merge_off_chain_matches_per_state_stepping(game_name, algo):
    # Without merging, explore steps every first-step branch as one batch per
    # level, and the reference scan steps each state on its own.  Learner
    # arrays agree exactly; expected rewards go through another BLAS call
    # and agree to rounding.
    for game, learner in cases(game_name, algo):
        for cfg in CONFIGS:
            cfg = replace(cfg, merge_enabled=False)
            want, want_out, _ = reference_explore(game, learner, cfg)
            got = explore(game, learner, cfg)
            assert got.sink_id is not None and not got.merge_events
            assert_same_chain(got, want, want_out, atol=1e-14)


@cache
def prefilter_counts(game_name, algo, tol) -> Counter:
    """Pair counts of the index-checked reference scan on one grid cell.

    ``reference_explore`` asserts, pair by pair, that ``similar()`` agrees
    with ``reference_similar`` and that the index, sending every bucket
    through the array tests, keeps each accepted entry.  At the default
    tolerance the explorer's chains must also equal the scan's.
    """
    cfg = ExploreConfig(max_depth=50, tau0=1.0)
    counts = Counter()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(explorer_mod, "_SMALL_BUCKET", 0)
        for game, learner in cases(game_name, algo):
            dtmc, out, count = reference_explore(game, learner, cfg,
                                                 index_check=True, tol=tol)
            if tol == DEFAULT_TOL:
                assert_same_chain(explore(game, learner, cfg), dtmc, out)
            counts += count
    return counts


# A coarse tolerance puts many reward differences within it, so a guard
# that drops or misplaces ``tol`` disagrees with the scalar one and shows.
@pytest.mark.parametrize("tol", [DEFAULT_TOL, 1e-2])
@pytest.mark.parametrize("algo", sorted(ALGOS))
@pytest.mark.parametrize("game_name", sorted(GAMES))
def test_prefilter_keeps_every_accepted_entry(game_name, algo, tol):
    assert prefilter_counts(game_name, algo, tol)["filtered"] > 0
    # Over the grid, pairs reach every part of the relation, so each guard
    # is compared with its scalar loop.  No 2x2 coordination run reaches
    # the shared-prefix guard, hence the grid rather than the cell.
    total = Counter()
    for other_game in sorted(GAMES):
        for other_algo in sorted(ALGOS):
            total += prefilter_counts(other_game, other_algo, tol)
    for name in ("successor", "path", "disjoint", "prefix"):
        assert total[name] > 0, (name, total)


def test_futures_are_released():
    game = simple_coordination()
    learner = initial_state(
        "afffp", game, random_initial_weights(game, seed=[31, 0]),
        lambda0=0.8,
    )
    dtmc = explore(game, learner, ExploreConfig(max_depth=100, tau0=1.0))
    assert all(s.future is None for s in dtmc.states)


def test_successor_reuses_only_the_states_own_first_step():
    game = simple_coordination()
    learner = initial_state("fp", game, random_initial_weights(game, [31, 1]))
    root, _ = _initial_state(game, learner, tau0=0.01)
    state = successor(root, (0, 1), game)
    state.future = Future(state, game)
    learner1, _, _ = state.future[1]
    assert successor(state, state.pure_action, game).learner is learner1
    other = tuple(1 - a for a in state.pure_action)
    reused = successor(state, other, game)
    state.future = None
    fresh = successor(state, other, game)
    assert reused.pure_action == fresh.pure_action
    assert np.array_equal(reused.learner.weights, fresh.learner.weights)


def observe_calls(monkeypatch, game, learners, max_depth):
    calls = 0
    original = learners_mod.observe

    def counting(*args, **kwargs):
        nonlocal calls
        calls += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(learners_mod, "observe", counting)
    for learner in learners:
        explore(game, learner, ExploreConfig(max_depth=max_depth, tau0=1.0))
    monkeypatch.setattr(learners_mod, "observe", original)
    return calls


@pytest.mark.parametrize("algo", sorted(ALGOS))
def test_no_learner_state_is_observed_twice(algo, monkeypatch):
    # Past the first step every branch is one best-response trajectory,
    # stepped once: successors and both sides of every path and lockstep
    # replay read it, so no learner state observes the same action twice.
    game = complex_coordination(n=2)
    original = learners_mod.observe
    observed = []  # holds every observed state, so ids are not reused

    def recording(state, game, executed):
        observed.append((state, tuple(map(int, executed))))
        return original(state, game, executed)

    monkeypatch.setattr(learners_mod, "observe", recording)
    for k in range(4):
        learner = initial_state(algo, game,
                                random_initial_weights(game, [31, k]),
                                **ALGOS[algo])
        observed.clear()
        explore(game, learner, ExploreConfig(max_depth=300, tau0=1.0))
        keys = [(id(state), executed) for state, executed in observed]
        repeats = len(keys) - len(set(keys))
        assert repeats == 0, k


def test_afffp_observe_count_grows_about_linearly_with_depth(monkeypatch):
    # afffp's miscoordination branches run to the depth bound, one state
    # per level; their merge attempts must not re-observe the whole path
    # for every bucket entry, which made the count grow quadratically.
    game = simple_coordination()
    learners = [
        initial_state("afffp", game, random_initial_weights(game, [2024, k]),
                      lambda0=0.8)
        for k in range(20)
    ]
    shallow = observe_calls(monkeypatch, game, learners, 100)
    deep = observe_calls(monkeypatch, game, learners, 300)
    assert deep / shallow <= 3.5, (shallow, deep)
