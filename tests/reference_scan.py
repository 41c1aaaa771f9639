"""Reference merge scan: the explorer's loop without the merge index.

Buckets hold entries by executed joint action only, generation-tree
distances and paths come from walking the candidate's parent links, and
the relation is asked about every bucket entry, newest first.  No future
is shared and no entry is skipped, so the chain this builds is what the
relation alone defines; the indexed explorer must reproduce it exactly.
The scan keeps every state's transitions as a list of its own, the general
form, so the explorer's functional graph is checked against it state by
state; it enumerates the initial state's first steps itself.

The scan decides with ``reference_similar``, the relation written with one
scalar loop per guard, independently of the array guards that
``smcl.similarity`` shares between ``similar()`` and the merge index.

With ``index_check`` set, ``similar()`` must agree with
``reference_similar`` on every (entry, candidate) pair, and a
``_MergeIndex`` is kept alongside: for every candidate, every accepted
entry must be among the index's survivors, at the same distance.
"""

from __future__ import annotations

from collections import Counter, deque

import numpy as np

from smcl.dtmc import Dtmc, ExplorationState, MergeEvent, Transition
from smcl.explorer import _MergeIndex, merge_candidate
from smcl.game import smooth_best_response
from smcl.learners import estimates, expected_rewards
from smcl.similarity import (
    DEFAULT_TOL,
    MAX_LOCKSTEP_HORIZON,
    Future,
    SimilarityContext,
    _future_of,
    _futures_agree,
    similar,
)


# The merge relation with a scalar loop per guard.

def _initial_step_agrees(s1, s2, ctx: SimilarityContext) -> bool:
    # Both states' expected rewards must have grown fastest towards the
    # same action, player by player, relative to their predecessors.
    return s1.reward_gain_argmax == s2.reward_gain_argmax


def _shared_prefix_guard(s1, s2, ctx: SimilarityContext) -> bool:
    # Applies only when both predecessors played the states' own strategy.
    if not (
        s1.predecessor_pure_action == s1.pure_action
        and s2.predecessor_pure_action == s1.pure_action
    ):
        return True
    executed = s1.pure_action
    game = ctx.game
    for i in range(game.num_players):
        if ctx.best_raw_reply[i][executed]:
            continue
        r1 = s1.expected_rewards[i]
        r2 = s2.expected_rewards[i]
        gap_exec = r2[executed[i]] - r1[executed[i]]
        for a in range(game.action_counts[i]):
            if a == executed[i]:
                continue
            if r2[a] - r1[a] > gap_exec + ctx.tol:
                return False
    return True


def _executed_reward_not_dropped(s1, s2, ctx: SimilarityContext) -> bool:
    executed = s1.pure_action
    for i in range(ctx.game.num_players):
        if (
            s2.expected_rewards[i][executed[i]]
            < s1.expected_rewards[i][executed[i]] - ctx.tol
        ):
            return False
    return True


def _path_replay_agrees(s1, s2, ctx: SimilarityContext) -> bool:
    # Replay the path word from s2 and compare against the actual path step
    # by step: same strategies, and the step action's expected reward damped
    # (fp) or strengthened (gfp/afffp) relative to one lap earlier.
    # The word starts with s1's action, which is s2's own, and every later
    # letter must equal the replayed action: the replay is s2's future.
    game = ctx.game
    chain = ctx.path(s1, s2)
    future = _future_of(s2, game)
    for j in range(1, len(chain)):
        _, rewards, replayed = future[j]
        step = chain[j].pure_action
        if replayed != step:
            return False
        for i in range(game.num_players):
            lap1 = chain[j].expected_rewards[i][step[i]]
            lap2 = rewards[i][step[i]]
            if ctx.algorithm == "fp":
                if lap2 > lap1 + ctx.tol:
                    return False
            elif lap2 < lap1 - ctx.tol:
                return False
    return True


# Bound on the lockstep-replay window for the no-path case; divergence of
# non-equivalent branches shows up within their generation lag.
MAX_LOCKSTEP_HORIZON = 512


def _disjoint_branches_agree(s1, s2, ctx: SimilarityContext) -> bool:
    # Equal predecessors.  Comparing actions is exact: a chain's one mixed
    # state is its initial state, and its children have None here.
    if s1.predecessor_pure_action != s2.predecessor_pure_action:
        return False
    damped = ctx.algorithm == "fp"
    executed = s1.pure_action
    for i in range(ctx.game.num_players):
        r1 = s1.expected_rewards[i]
        r2 = s2.expected_rewards[i]
        for a in range(ctx.game.action_counts[i]):
            if a == executed[i]:
                ok = r2[a] <= r1[a] + ctx.tol if damped \
                    else r2[a] >= r1[a] - ctx.tol
            else:
                ok = r2[a] >= r1[a] - ctx.tol if damped \
                    else r2[a] <= r1[a] + ctx.tol
            if not ok:
                return False
    horizon = min(max(2 * (s2.depth - s1.depth), 2), MAX_LOCKSTEP_HORIZON)
    return _futures_agree(s1, s2, horizon, ctx)


def reference_similar(
    s1: ExplorationState,
    s2: ExplorationState,
    ctx: SimilarityContext,
    distance: int | None,
) -> bool:
    """Whether the earlier state s1 subsumes the later state s2.

    ``distance`` is the generation-tree distance from s1 down to s2: 0 for
    the same state, ``None`` when no path exists.
    """
    # States without a predecessor (the initial state and the sink) carry
    # no reward history to compare; they never merge.
    if s1.parent_id is None or s2.parent_id is None:
        return False
    if s1.pure_action is None or s2.pure_action is None:
        return False
    if s1.pure_action != s2.pure_action:
        return False
    if not _initial_step_agrees(s1, s2, ctx):
        return False
    if not _shared_prefix_guard(s1, s2, ctx):
        return False
    if distance == 0:
        return True
    if distance == 1:
        return _executed_reward_not_dropped(s1, s2, ctx)
    if distance is not None:
        return _path_replay_agrees(s1, s2, ctx)
    return _disjoint_branches_agree(s1, s2, ctx)


BRANCHES = {1: "successor", None: "disjoint"}


def guards_reached(s1, s2, ctx, distance) -> list[str]:
    """The relation's branch a pair reaches past the structural checks,
    plus ``"prefix"`` when the shared-prefix guard tests it."""
    action = s1.pure_action
    if (s1.parent_id is None or action != s2.pure_action
            or s1.reward_gain_argmax != s2.reward_gain_argmax):
        return []
    reached = [BRANCHES.get(distance, "path")]
    if (s1.predecessor_pure_action == action == s2.predecessor_pure_action
            and not all(reply[action] for reply in ctx.best_raw_reply)):
        reached.append("prefix")
    return reached


def ancestor_distances(candidate: ExplorationState, states) -> dict:
    """Map each generation-tree ancestor's id to its distance upward."""
    distances = {}
    current = candidate
    steps = 0
    while current.parent_id is not None:
        current = states[current.parent_id]
        steps += 1
        distances[current.id] = steps
    return distances


def chain_between(s1: ExplorationState, s2: ExplorationState,
                  states) -> list[ExplorationState]:
    """States along the generation path, the ancestor s1 first, s2 last."""
    chain = [s2]
    current = s2
    while current.id != s1.id:
        current = states[current.parent_id]
        chain.append(current)
    chain.reverse()
    return chain


def reference_root(game, learner, cfg):
    """The initial state and the joint actions it fires, with probabilities.

    Written out on its own: each player's smooth best response to its
    estimates; one joint action with probability 1 when every player puts
    at least 1 - 1e-9 on one action, else every joint action above the
    floor, in flat order.
    """
    dists = [smooth_best_response(game, i, estimates(learner, i, game),
                                  cfg.tau0)
             for i in range(game.num_players)]
    state = ExplorationState(id=0, learner=learner, depth=0,
                             expected_rewards=expected_rewards(learner, game))
    top = tuple(int(np.argmax(dist)) for dist in dists)
    if all(dist[a] >= 1.0 - 1e-9 for dist, a in zip(dists, top)):
        state.pure_action = top
        return state, [(top, 1.0)]
    fired = []
    for action in np.ndindex(*game.action_counts):
        p = 1.0
        for dist, a in zip(dists, action):
            p *= float(dist[a])
        if p > cfg.prob_floor:
            fired.append((action, p))
    return state, fired


def reference_explore(game, initial_learner, cfg, index_check=False,
                      tol=DEFAULT_TOL):
    """The explorer's chain, built by a full newest-first bucket scan.

    ``tol`` is the relation's tolerance.  Returns the chain, its per-state
    transition lists and, with ``index_check``, a ``Counter``: under
    ``"filtered"`` the number of (candidate, entry) pairs the index ruled
    out, and under each name ``guards_reached`` gives, the number of pairs
    that reached that part of the relation.
    """
    root, first = reference_root(game, initial_learner, cfg)
    states = [root]
    ctx = SimilarityContext(
        game=game,
        algorithm=initial_learner.algorithm,
        path=lambda s1, s2: chain_between(s1, s2, states),
        tol=tol,
    )
    index = _MergeIndex(game, states.__getitem__) if index_check else None
    transitions: dict[int, list[Transition]] = {}
    merge_events: list[MergeEvent] = []
    buckets: dict[tuple[int, ...], list[int]] = {}
    counts = Counter()

    queue1 = deque([0])
    queue2: deque[int] = deque()
    depth = 0
    sink_id = None
    while queue1:
        while queue1:
            sid = queue1.popleft()
            state = states[sid]
            out: list[Transition] = []
            fired = first if sid == 0 else [(state.pure_action, 1.0)]
            for action, prob in fired:
                candidate = merge_candidate(state, action, game)
                target = None
                if cfg.merge_enabled:
                    distances = ancestor_distances(candidate, states)
                    bucket = buckets.get(candidate.pure_action, ())
                    accepted = []
                    for tid in reversed(bucket):
                        entry, distance = states[tid], distances.get(tid)
                        ok = reference_similar(entry, candidate, ctx,
                                               distance)
                        if index is not None:
                            assert similar(entry, candidate, ctx,
                                           distance) == ok, (tid, sid)
                            counts.update(guards_reached(
                                entry, candidate, ctx, distance
                            ))
                        if ok:
                            accepted.append(tid)
                    if index is not None:
                        counts["filtered"] += len(bucket) - _check_survivors(
                            index, ctx, candidate, accepted, distances
                        )
                    if accepted:
                        target = accepted[0]
                        merge_events.append(MergeEvent(sid, action, target))
                if target is None:
                    target = len(states)
                    candidate.id = target
                    states.append(candidate)
                    if candidate.pure_action is not None:
                        buckets.setdefault(
                            candidate.pure_action, []
                        ).append(target)
                    if index is not None:
                        index.add(candidate)
                    queue2.append(target)
                out.append(Transition(target, prob, action))
            if cfg.prob_floor > 0:
                total = sum(t.probability for t in out)
                if out and total < 1.0:
                    out = [
                        Transition(t.target, t.probability / total, t.action)
                        for t in out
                    ]
            transitions[sid] = out
        queue1, queue2 = queue2, deque()
        depth += 1
        if depth >= cfg.max_depth and queue1:
            sink_id = len(states)
            states.append(ExplorationState(sink_id, None, depth))
            transitions[sink_id] = [Transition(sink_id, 1.0, None)]
            for sid in queue1:
                transitions[sid] = [Transition(sink_id, 1.0, None)]
            break

    start = transitions[0]
    successor = [out[0].target for _, out in sorted(transitions.items())]
    successor[0] = -1
    dtmc = Dtmc(
        states=states,
        successor=successor,
        start=start,
        sink_id=sink_id,
        merge_events=merge_events,
    )
    return dtmc, transitions, counts


def _check_survivors(index, ctx, candidate, accepted, distances) -> int:
    """Assert the index keeps every accepted entry; count its survivors."""
    candidate.future = Future(candidate, ctx.game)
    try:
        survivors = dict(index.survivors(candidate, ctx))
    finally:
        candidate.future = None
    for tid, distance in survivors.items():
        assert distance == distances.get(tid), (tid, distance)
    missed = [tid for tid in accepted if tid not in survivors]
    assert not missed, f"index rejected accepted entries {missed}"
    return len(survivors)
