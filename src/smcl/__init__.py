"""Stochastic model checking of game-theoretic learning dynamics.

Build a strategic-form game, pick a learning algorithm (fp, gfp or afffp),
explore the chain of joint-strategy states it can reach, and analyse the
absorbing components: which are equilibria, which are cycles, and with what
probability each is reached.
"""

from .analysis import (
    AnalysisReport,
    BsccReport,
    Classification,
    Scc,
    analyze,
    bscc_actions,
    bottom_sccs,
    classify,
    convergence_probability,
    reach_probabilities,
    steady_state,
)
from .catalog import (
    ComplexGameParams,
    SHAPLEY_EQUAL_WEIGHTS,
    SIMPLE_COORDINATION_WEIGHTS,
    complex_coordination,
    random_initial_weights,
    shapley,
    simple_coordination,
)
from .dtmc import Dtmc, ExplorationState, Transition
from .explorer import ExploreConfig, StateBudgetError, explore, successor
from .game import (
    Game,
    best_response,
    expected_reward,
    expected_reward_vector,
    has_common_maximizer,
    is_pareto_efficient_pure,
    is_pure_nash,
    smooth_best_response,
)
from .learners import (
    LearnerState,
    estimates,
    expected_rewards,
    initial_state,
    observe,
)
from .similarity import SimilarityContext, similar
from .simulate import (
    EmpiricalResult,
    Trace,
    empirical_convergence,
    simulate,
    trace_to_csv,
)

__all__ = [
    "AnalysisReport",
    "BsccReport",
    "Classification",
    "ComplexGameParams",
    "Dtmc",
    "EmpiricalResult",
    "ExplorationState",
    "ExploreConfig",
    "Game",
    "LearnerState",
    "Scc",
    "SHAPLEY_EQUAL_WEIGHTS",
    "SIMPLE_COORDINATION_WEIGHTS",
    "SimilarityContext",
    "StateBudgetError",
    "Trace",
    "Transition",
    "analyze",
    "best_response",
    "bscc_actions",
    "bottom_sccs",
    "classify",
    "complex_coordination",
    "convergence_probability",
    "empirical_convergence",
    "estimates",
    "expected_reward",
    "expected_reward_vector",
    "expected_rewards",
    "explore",
    "has_common_maximizer",
    "initial_state",
    "is_pareto_efficient_pure",
    "is_pure_nash",
    "observe",
    "random_initial_weights",
    "reach_probabilities",
    "shapley",
    "similar",
    "simple_coordination",
    "simulate",
    "smooth_best_response",
    "steady_state",
    "successor",
    "trace_to_csv",
]

__version__ = "0.1.0"
