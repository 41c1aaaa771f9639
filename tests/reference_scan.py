"""Reference merge scan: the explorer's loop without the merge index.

Buckets hold entries by executed joint action only, generation-tree
distances and paths come from walking the candidate's parent links, and
``similar()`` is asked about every bucket entry, newest first.  No future
is shared and no entry is skipped, so the chain this builds is what the
relation alone defines; the indexed explorer must reproduce it exactly.
The scan keeps every state's transitions as a list of its own, the general
form, so the explorer's functional graph is checked against it state by
state.

With ``index_check`` set, a ``_MergeIndex`` is kept alongside and, for every
candidate, every entry ``similar()`` accepts must be among the index's
survivors, at the same distance.
"""

from __future__ import annotations

from collections import deque

from smcl.dtmc import Dtmc, ExplorationState, MergeEvent, Transition
from smcl.explorer import _initial_state, _MergeIndex, merge_candidate
from smcl.similarity import DEFAULT_TOL, Future, SimilarityContext, similar


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


def reference_explore(game, initial_learner, cfg, index_check=False,
                      tol=DEFAULT_TOL):
    """The explorer's chain, built by a full newest-first bucket scan.

    ``tol`` is the relation's tolerance.  Returns the chain, its per-state
    transition lists and, with ``index_check``, the number of (candidate,
    entry) pairs the index filtered out.
    """
    states = [_initial_state(game, initial_learner, cfg.tau0)]
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
    filtered = 0

    queue1 = deque([0])
    queue2: deque[int] = deque()
    depth = 0
    truncated = False
    sink_id = None
    while queue1:
        while queue1:
            sid = queue1.popleft()
            state = states[sid]
            out: list[Transition] = []
            for action, prob in state.positive_actions(cfg.prob_floor):
                candidate = merge_candidate(state, action, game)
                target = None
                if cfg.merge_enabled:
                    distances = ancestor_distances(candidate, states)
                    bucket = buckets.get(candidate.pure_action, ())
                    accepted = [
                        tid for tid in reversed(bucket)
                        if similar(states[tid], candidate, ctx,
                                   distance=distances.get(tid))
                    ]
                    if index is not None:
                        filtered += len(bucket) - _check_survivors(
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
            states.append(ExplorationState.sink(sink_id, depth))
            transitions[sink_id] = [Transition(sink_id, 1.0, None)]
            for sid in queue1:
                transitions[sid] = [Transition(sink_id, 1.0, None)]
            truncated = True
            break

    start = transitions[0]
    successor = [out[0].target for _, out in sorted(transitions.items())]
    if len(start) > 1:
        successor[0] = -1
    dtmc = Dtmc(
        states=states,
        successor=successor,
        start=start,
        initial_id=0,
        sink_id=sink_id,
        truncated=truncated,
        merge_events=merge_events,
    )
    return dtmc, transitions, filtered


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
