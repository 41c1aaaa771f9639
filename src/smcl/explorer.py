"""Breadth-first construction of the chain of learning states.

Exploration starts from the initial learner state, state 0, whose strategy
uses the smooth best response with temperature ``tau0`` (the one
probabilistic step); every later state plays deterministic best responses.
A BFS level lists ``(source id, joint action, probability)`` steps: first
the initial state's positive-probability joint actions, then one step from
each state adopted on the level before, in adoption order.  Each step's
candidate is either folded into an earlier state accepted by the merge
relation or adopted.  Its target becomes a start transition when the source
is the initial state, one transition or many, and the source's successor
otherwise.  When the depth bound is hit with work remaining, the open
frontier is redirected into an absorbing sink state, ``Dtmc.sink_id``.

Where a candidate may merge is kept in a merge index:

* **Buckets** key the adopted non-initial states by ``(pure_action,
  reward_gain_argmax)``; both must be equal for a merge, so a candidate
  looks at one bucket only.
* **Branches** give generation-tree distances in O(1).  Every non-initial
  state is pure and has one child, so the tree is the initial state plus
  one path per first-step branch.  An entry on the candidate's branch is an
  ancestor at distance ``candidate.depth - entry.depth``; any other entry
  has no path.  A path replay's chain is a slice of the branch.
* **A pre-filter** tests a whole bucket at once against the preconditions
  of ``similar()``: the shared-prefix guard, the parent's executed reward,
  the no-path predecessor and reward-direction checks, and the first step
  of a path replay.  The reward tests are the relation's own guards from
  ``similarity``, applied to the stacked reward rows of the bucket's
  entries, so the pre-filter rules out only entries that ``similar()``
  rejects.  Small buckets skip it.  The survivors go to ``similar()``,
  newest first, and the first acceptance wins, exactly as a scan of the
  whole bucket would decide.
* **One future per candidate** (``similarity.Future``): path replays from
  the candidate and its side of a lockstep replay follow the candidate's
  own best-response trajectory, so all merge attempts share one lazily
  extended list of steps.  If the candidate is adopted, ``successor()``
  reuses its first step; the rest is dropped.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from . import learners
from .dtmc import (
    Dtmc,
    ExplorationState,
    MergeEvent,
    Transition,
    pure_action_of,
    reward_gain_argmax,
)
from .game import Game, smooth_best_response
from .similarity import Future, SimilarityContext, reward_row, similar
from .similarity import (disjoint_direction_holds, executed_reward_kept,
                         moved_against, prefix_guard_holds)


class StateBudgetError(RuntimeError):
    """Raised when exploration outgrows the configured state cap."""

    def __init__(self, state_count: int, cap: int):
        super().__init__(
            f"exploration exceeded the state cap ({state_count} > {cap})"
        )
        self.state_count = state_count
        self.cap = cap


@dataclass(frozen=True)
class ExploreConfig:
    max_depth: int = 100
    tau0: float = 0.01
    prob_floor: float = 0.0
    merge_enabled: bool = True
    state_cap: int = 1_000_000

    def __post_init__(self):
        for name in ("max_depth", "state_cap"):
            value = getattr(self, name)
            # NaN and fractions would slip past a plain bound check.
            if not (isinstance(value, numbers.Integral) and value >= 1):
                raise ValueError(
                    f"{name} must be at least 1 and an integer, got {value}"
                )
        if not self.tau0 > 0:
            raise ValueError(f"tau0 must be positive, got {self.tau0}")
        if not 0.0 <= self.prob_floor < 1.0:
            raise ValueError("prob_floor must be in [0, 1)")


def _next_id(states: list, cap: int) -> int:
    """The id of the next state to adopt, within the state cap."""
    sid = len(states)
    if sid + 1 > cap:
        raise StateBudgetError(sid + 1, cap)
    return sid


def successor(
    state: ExplorationState, action, game: Game
) -> ExplorationState:
    """Candidate state reached by firing ``action`` from ``state``.

    The candidate plays the best response to its learner's estimates and
    carries no id (-1) until the explorer adopts it.
    """
    action = tuple(int(a) for a in action)
    future = state.future
    if (future is not None and len(future.steps) > 1
            and action == state.pure_action):
        # The state's own action: valid, and observed by its future.
        learner, rewards, choice = future.steps[1]
    else:
        learner, rewards, choice = learners.best_response_step(
            state.learner, game, action
        )
    return ExplorationState(
        id=-1,
        strategy=None,
        learner=learner,
        depth=state.depth + 1,
        parent_id=state.id,
        expected_rewards=rewards,
        pure_action=choice,
        predecessor_pure_action=state.pure_action,
    )


def merge_candidate(
    state: ExplorationState, action, game: Game
) -> ExplorationState:
    """``successor()`` plus the reward-gain argmax the merge relation reads."""
    candidate = successor(state, action, game)
    candidate.reward_gain_argmax = reward_gain_argmax(
        candidate.expected_rewards, state.expected_rewards
    )
    return candidate


def _initial_state(game: Game, learner, tau0: float) -> ExplorationState:
    rewards = learners.expected_rewards(learner, game)
    strategy = tuple(
        smooth_best_response(game, i, learners.estimates(learner, i, game),
                             tau0)
        for i in range(game.num_players)
    )
    return ExplorationState(
        id=0,
        strategy=strategy,
        learner=learner,
        depth=0,
        expected_rewards=rewards,
        pure_action=pure_action_of(strategy),
    )


class _Rows:
    """Integer and float columns that grow in place, doubling capacity."""

    __slots__ = ("size", "ints", "floats")

    def __init__(self, int_columns: int, float_columns: int):
        self.size = 0
        self.ints = np.empty((4, int_columns), dtype=np.int64)
        self.floats = np.empty((4, float_columns))

    def append(self, ints, floats) -> None:
        if self.size == len(self.ints):
            self.ints = np.concatenate([self.ints, np.empty_like(self.ints)])
            self.floats = np.concatenate(
                [self.floats, np.empty_like(self.floats)]
            )
        self.ints[self.size] = ints
        self.floats[self.size] = floats
        self.size += 1


# Integer columns of a bucket row; its floats are the entry's reward row
# (``similarity.reward_row``).  A branch row holds a state's id and action
# code, with the same floats.
_ID, _DEPTH, _BRANCH, _PREDECESSOR = range(4)
_ACTION = 1

# Buckets of at most this many entries go to similar() whole: for them the
# per-entry tests cost less than the fixed cost of the bucket-wide ones.
_SMALL_BUCKET = 4


class _MergeIndex:
    """Buckets, branches and the bucket pre-filter (see the module doc)."""

    def __init__(self, game: Game, get_state):
        counts = game.action_counts
        self.get_state = get_state
        self.width = sum(counts)
        self.strides = list(accumulate(counts[:0:-1], lambda a, b: a * b,
                                       initial=1))[::-1]
        self.buckets: dict[tuple, _Rows] = {}  # key -> its entries
        self.branch_of: dict[int, int] = {}   # state id -> branch id
        self.branches: dict[int, _Rows] = {}  # branch id -> its states

    def code(self, action) -> int:
        """Flat index of a joint action, -1 for a mixed strategy."""
        if action is None:
            return -1
        return sum(a * s for a, s in zip(action, self.strides))

    def add(self, state: ExplorationState) -> None:
        """Register an adopted non-initial state."""
        branch = self.branch_of.get(state.parent_id, state.id)
        self.branch_of[state.id] = branch
        rewards = reward_row(state.expected_rewards)
        rows = self.branches.get(branch)
        if rows is None:
            rows = self.branches[branch] = _Rows(2, self.width)
        rows.append((state.id, self.code(state.pure_action)), rewards)
        key = (state.pure_action, state.reward_gain_argmax)
        bucket = self.buckets.get(key)
        if bucket is None:
            bucket = self.buckets[key] = _Rows(4, self.width)
        bucket.append(
            (state.id, state.depth, branch,
             self.code(state.predecessor_pure_action)),
            rewards,
        )

    def path(self, s1: ExplorationState, s2: ExplorationState) -> list:
        """States from the ancestor s1 down to s2 on s2's branch."""
        rows = self.branches[self.branch_of[s1.id]]
        ids = rows.ints[s1.depth - 1:s2.depth - 1, _ID].tolist()
        return [self.get_state(i) for i in ids] + [s2]

    def survivors(self, candidate: ExplorationState,
                  ctx: SimilarityContext) -> list:
        """(entry id, distance) pairs left for ``similar()``, newest first.

        The candidate's ``future`` must be set.
        """
        bucket = self.buckets.get(
            (candidate.pure_action, candidate.reward_gain_argmax)
        )
        if bucket is None:
            return []
        branch = self.branch_of.get(candidate.parent_id, -1)
        n = bucket.size
        ints = bucket.ints[:n]
        if n > _SMALL_BUCKET:
            columns = ctx.columns(candidate.pure_action)
            r1 = bucket.floats[:n]
            r2 = reward_row(candidate.expected_rewards)
            on_path = ints[:, _BRANCH] == branch
            same_predecessor = ints[:, _PREDECESSOR] == self.code(
                candidate.predecessor_pure_action
            )
            # No path: equal predecessor actions and the reward direction.
            keep = on_path | (same_predecessor & disjoint_direction_holds(
                r1, r2, columns, ctx.tol
            ))
            # Shared-prefix guard: both predecessors played the key action.
            if (candidate.predecessor_pure_action == candidate.pure_action
                    and columns.prefix[0].size):
                keep &= ~same_predecessor | prefix_guard_holds(
                    r1, r2, columns, ctx.tol
                )
            path = np.flatnonzero(on_path & keep)
            if path.size:
                keep[path] = self._path_checks(
                    candidate, ctx, columns, ints[path, _DEPTH], r1[path], r2
                )
            ints = ints[keep]
        return [
            (tid, candidate.depth - depth if b == branch else None)
            for tid, depth, b, _ in reversed(ints.tolist())
        ]

    def _path_checks(self, candidate, ctx, columns, depth, r1, r2):
        """The bucket-wide tests for ancestors, given in depth order."""
        ok = np.ones(len(depth), dtype=bool)
        longer = len(depth)
        if depth[-1] == candidate.depth - 1:
            # Distance 1, the parent.
            longer -= 1
            ok[-1] = executed_reward_kept(r1[-1], r2, columns, ctx.tol)
        if longer:
            # Longer paths: replay step 1 is the candidate's first future
            # step, checked against each entry's child on the branch.
            _, rewards, step = candidate.future[1]
            children = self.branches[self.branch_of[candidate.parent_id]]
            child = depth[:longer]  # a child's row is its parent's depth
            executed = ctx.columns(step).executed
            lap1 = children.floats[child[:, None], executed]
            lap2 = reward_row(rewards)[executed]
            moved = moved_against(lap1, lap2, ctx.direction, ctx.tol)
            ok[:longer] = ((children.ints[child, _ACTION] == self.code(step))
                           & ~moved.any(axis=1))
        return ok


def explore(game: Game, initial_learner, cfg: ExploreConfig) -> Dtmc:
    """Build the chain of reachable learning states, level by level."""
    if not learners.matches(initial_learner, game):
        raise ValueError(
            "learner state does not match the game's action counts"
        )
    root = _initial_state(game, initial_learner, cfg.tau0)
    states = [root]
    index = ctx = None
    if cfg.merge_enabled:
        index = _MergeIndex(game, states.__getitem__)
        ctx = SimilarityContext(
            game=game, algorithm=initial_learner.algorithm, path=index.path
        )
    first = root.positive_actions(cfg.prob_floor)
    total = sum(p for _, p in first)
    if cfg.prob_floor > 0 and first and total < 1.0:
        first = [(action, p / total) for action, p in first]
    level = [(0, action, p) for action, p in first]
    successor_ids = [-1]
    start: list[Transition] = []
    merge_events: list[MergeEvent] = []
    depth = 0
    sink_id = None

    while level:
        adopted = []
        for sid, action, prob in level:
            state = states[sid]
            target = None
            if index is None:
                candidate = successor(state, action, game)
            else:
                candidate = merge_candidate(state, action, game)
                candidate.future = Future(candidate, game)
                for tid, distance in index.survivors(candidate, ctx):
                    if similar(states[tid], candidate, ctx,
                               distance=distance):
                        target = tid
                        merge_events.append(MergeEvent(sid, action, tid))
                        candidate.future = None
                        break
            if target is None:
                target = _next_id(states, cfg.state_cap)
                candidate.id = target
                states.append(candidate)
                successor_ids.append(-1)
                if index is not None:
                    index.add(candidate)
                    # Keep only the step successor() will reuse.
                    del candidate.future.steps[2:]
                adopted.append((target, candidate.pure_action, 1.0))
            if sid == 0:
                start.append(Transition(target, prob, action))
            else:
                successor_ids[sid] = target
                state.future = None
        level = adopted
        depth += 1
        if depth >= cfg.max_depth and level:
            sink_id = _next_id(states, cfg.state_cap)
            states.append(ExplorationState(sink_id, None, None, depth))
            successor_ids.append(sink_id)
            for sid, _, _ in level:
                successor_ids[sid] = sink_id
                states[sid].future = None
            break

    return Dtmc(
        states=states,
        successor=successor_ids,
        start=start,
        sink_id=sink_id,
        merge_events=merge_events,
    )
