import numpy as np
import pytest

from smcl import (
    SHAPLEY_EQUAL_WEIGHTS,
    SIMPLE_COORDINATION_WEIGHTS,
    shapley,
    simple_coordination,
)
from smcl import learners as learners_mod
from smcl.game import argmax_with_ties
from smcl.simulate import classify_tail


@pytest.fixture(scope="session")
def simple_game():
    return simple_coordination()


@pytest.fixture(scope="session")
def shapley_game():
    return shapley()


@pytest.fixture()
def toy_weights():
    return {k: np.array(v) for k, v in SIMPLE_COORDINATION_WEIGHTS.items()}


@pytest.fixture()
def shapley_weights():
    return {k: np.array(v) for k, v in SHAPLEY_EQUAL_WEIGHTS.items()}


def deterministic_playout(game, learner, first_action, steps):
    """Follow best responses from a learner state; the brute-force oracle."""
    actions, action = [], tuple(first_action)
    for _ in range(steps):
        actions.append(action)
        learner = learners_mod.observe(learner, game, action)
        action = tuple(
            argmax_with_ties(r)
            for r in learners_mod.expected_rewards(learner, game)
        )
    return actions


def playout_class(game, learner, first_action, steps, window=24):
    """Tail-cycle action set the playout settles into (None if irregular)."""
    return classify_tail(
        deterministic_playout(game, learner, first_action, steps), window
    )


def brute_force_reach(game, learner, tau0, steps=400, window=24):
    """Reach probability of each tail class without any state merging.

    Expands the initial smooth-best-response step exactly, then follows the
    deterministic best-response flow of every branch to a long horizon.
    Completely independent of the explorer and the merge relation.
    """
    from smcl.game import smooth_best_response
    from smcl import estimates as estimates_of

    dists = [
        smooth_best_response(game, i, estimates_of(learner, i, game), tau0)
        for i in range(game.num_players)
    ]
    out = {}
    for action in np.ndindex(*game.action_counts):
        p = 1.0
        for i, a in enumerate(action):
            p *= float(dists[i][a])
        if p == 0.0:
            continue
        label = playout_class(game, learner, action, steps, window)
        out[label] = out.get(label, 0.0) + p
    return out
