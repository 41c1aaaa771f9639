"""Long-run analysis of an explored chain.

Exploration stores the chain as a functional graph (see ``Dtmc``): every
state but the initial one has one successor, and the initial state's
transitions form the start distribution.  The bottom strongly
connected components, the absorbing structures, are then the cycles of the
successor map, found by following successors from each state until a walk
meets a state already seen.  A BSCC is reached with the start probability
of the branches whose paths run into its cycle, and its steady state is
uniform, since a deterministic cycle of k states spends 1/k of its time in
each.  Each BSCC is classified by the joint actions it keeps firing.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .dtmc import Dtmc
from .game import Game, has_common_maximizer, is_pareto_efficient_pure, \
    is_pure_nash


class Classification(Enum):
    PURE_NASH_PARETO = "PureNashPareto"
    PURE_NASH_NON_PARETO = "PureNashNonPareto"
    REWARDLESS_CYCLE = "RewardlessCycle"
    MIXED_CYCLE = "MixedCycle"
    TRUNCATION = "Truncation"


@dataclass(frozen=True)
class Scc:
    """A bottom strongly connected component: one cycle of the chain."""

    members: frozenset

    def __post_init__(self):
        if not self.members:
            raise ValueError("an SCC cannot be empty")


def bottom_sccs(dtmc: Dtmc) -> list[Scc]:
    """The cycles of the chain, sorted by smallest member id.

    One walk from every state, each stopping at the first state any walk
    has visited; a walk that stops on its own path has closed a new cycle.
    O(n) and iterative, so deep chains do not exhaust the call stack.
    """
    successor = dtmc.successor
    walk_of = [-1] * len(successor)
    cycles = []
    for start, target in enumerate(successor):
        if target < 0:  # the initial state lies on no cycle
            continue
        path = []
        sid = start
        while walk_of[sid] < 0:
            walk_of[sid] = start
            path.append(sid)
            sid = successor[sid]
        if walk_of[sid] == start:
            cycles.append(Scc(frozenset(path[path.index(sid):])))
    cycles.sort(key=lambda scc: min(scc.members))
    return cycles


def bscc_actions(dtmc: Dtmc, scc: Scc) -> set:
    """All joint actions fired with positive probability inside the BSCC."""
    return {dtmc.state(sid).pure_action for sid in scc.members} - {None}


def reach_probabilities(dtmc: Dtmc, bsccs: list[Scc]) -> list[float]:
    """Probability of absorption into each BSCC from the initial state.

    Each initial branch is followed to the cycle it runs into, and the
    states on the way take that cycle's index, so no state is walked twice.
    Raises ``ValueError`` when a branch runs into a cycle missing from
    ``bsccs``.
    """
    successor = dtmc.successor
    unseen, on_path = -1, -2
    leads_to = [unseen] * len(successor)
    for k, scc in enumerate(bsccs):
        for sid in scc.members:
            leads_to[sid] = k
    probabilities = [0.0] * len(bsccs)
    for target, probability, _ in dtmc.start:
        path = []
        sid = target
        while leads_to[sid] == unseen:
            leads_to[sid] = on_path
            path.append(sid)
            sid = successor[sid]
        k = leads_to[sid]
        if k == on_path:
            raise ValueError(
                f"state {sid} lies on a cycle missing from the BSCC list"
            )
        for step in path:
            leads_to[step] = k
        probabilities[k] += probability
    return probabilities


def steady_state(dtmc: Dtmc, scc: Scc) -> dict:
    """Stationary distribution of the chain restricted to one BSCC.

    A BSCC is a deterministic cycle, which spends 1/k of its time in each
    of its k states.
    """
    share = 1.0 / len(scc.members)
    return {sid: share for sid in sorted(scc.members)}


def classify(game: Game, dtmc: Dtmc, scc: Scc) -> Classification:
    """Label a BSCC by the kind of long-run behaviour it represents."""
    if dtmc.sink_id is not None and dtmc.sink_id in scc.members:
        return Classification.TRUNCATION
    members = sorted(scc.members)
    if len(members) == 1:
        action = dtmc.state(members[0]).pure_action
        if action is not None and is_pure_nash(game, action):
            if is_pareto_efficient_pure(game, action):
                return Classification.PURE_NASH_PARETO
            return Classification.PURE_NASH_NON_PARETO
        return Classification.MIXED_CYCLE
    actions = bscc_actions(dtmc, scc)
    zero_for_someone = all(
        any(abs(game.reward(i, a)) <= 1e-12 for i in range(game.num_players))
        for a in actions
    )
    # A zero-reward loop only counts as coordination failure when the game
    # actually offers an outcome that satisfies every player at once;
    # without one, cycling through the top payoffs is the fair resolution.
    if zero_for_someone and has_common_maximizer(game):
        return Classification.REWARDLESS_CYCLE
    return Classification.MIXED_CYCLE


@dataclass(frozen=True)
class BsccReport:
    scc: Scc
    actions: frozenset
    classification: Classification
    reach_probability: float
    steady_state: dict


@dataclass(frozen=True)
class AnalysisReport:
    bsccs: tuple[BsccReport, ...]
    convergence_probability: float

    def bscc_member_ids(self) -> set:
        out = set()
        for report in self.bsccs:
            out |= report.scc.members
        return out


def analyze(game: Game, dtmc: Dtmc) -> AnalysisReport:
    """Full long-run report: BSCC inventory plus convergence probability."""
    bottoms = bottom_sccs(dtmc)
    probabilities = reach_probabilities(dtmc, bottoms)
    reports = []
    for scc, probability in zip(bottoms, probabilities):
        label = classify(game, dtmc, scc)
        actions = frozenset() if label is Classification.TRUNCATION \
            else frozenset(bscc_actions(dtmc, scc))
        reports.append(
            BsccReport(
                scc=scc,
                actions=actions,
                classification=label,
                reach_probability=probability,
                steady_state=steady_state(dtmc, scc),
            )
        )
    convergence = sum(
        r.reach_probability
        for r in reports
        if r.classification is Classification.PURE_NASH_PARETO
    )
    return AnalysisReport(
        bsccs=tuple(reports), convergence_probability=float(convergence)
    )


def convergence_probability(game: Game, dtmc: Dtmc) -> float:
    """Probability mass absorbed into Pareto-efficient pure equilibria."""
    return analyze(game, dtmc).convergence_probability
