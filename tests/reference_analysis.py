"""Reference analysis of an arbitrary finite chain.

General-graph algorithms that make no use of the shape exploration builds:
iterative Tarjan for the strongly connected components, a dense linear
solve for the absorption probabilities and a least-squares solve for the
stationary distribution.  They read a chain through ``num_states``,
``initial_id`` and ``out()`` only, so they take an explored ``Dtmc`` as well
as a ``Digraph``, the general chain that exploration never builds.  The
package's cycle-following analysis must agree with them on every chain it
accepts; the random-digraph tests use them directly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from smcl.dtmc import Transition


class Digraph:
    """A finite chain with any number of transitions per state."""

    def __init__(self, edges, num_states: int, initial_id: int = 0):
        self.num_states = num_states
        self.initial_id = initial_id
        self._out = [[] for _ in range(num_states)]
        for src, dst, prob in edges:
            self._out[src].append(Transition(dst, prob, None))

    def out(self, state_id: int) -> list[Transition]:
        return self._out[state_id]


@dataclass(frozen=True)
class Scc:
    members: frozenset
    is_bottom: bool


def tarjan_sccs(dtmc) -> list[Scc]:
    """Partition all states into maximal strongly connected components.

    Implemented iteratively so deep chains do not exhaust the call stack.
    The result is sorted by smallest member id.
    """
    n = dtmc.num_states
    adjacency = [
        list(dict.fromkeys(t.target for t in dtmc.out(sid)
                           if t.probability > 0))
        for sid in range(n)
    ]

    index = [-1] * n
    lowlink = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    counter = 0
    components: list[frozenset] = []

    for root in range(n):
        if index[root] != -1:
            continue
        work = [(root, 0)]
        while work:
            node, edge_pos = work[-1]
            if edge_pos == 0:
                index[node] = lowlink[node] = counter
                counter += 1
                stack.append(node)
                on_stack[node] = True
            advanced = False
            for pos in range(edge_pos, len(adjacency[node])):
                succ = adjacency[node][pos]
                if index[succ] == -1:
                    work[-1] = (node, pos + 1)
                    work.append((succ, 0))
                    advanced = True
                    break
                if on_stack[succ]:
                    lowlink[node] = min(lowlink[node], index[succ])
            if advanced:
                continue
            work.pop()
            if lowlink[node] == index[node]:
                members = set()
                while True:
                    member = stack.pop()
                    on_stack[member] = False
                    members.add(member)
                    if member == node:
                        break
                components.append(frozenset(members))
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])

    sccs = []
    for members in components:
        bottom = all(
            succ in members
            for member in members
            for succ in adjacency[member]
        )
        sccs.append(Scc(members=members, is_bottom=bottom))
    sccs.sort(key=lambda s: min(s.members))
    return sccs


def bottom_sccs(dtmc) -> list[Scc]:
    return [scc for scc in tarjan_sccs(dtmc) if scc.is_bottom]


def reach_probabilities(dtmc, bsccs) -> list[float]:
    """Absorption probabilities from the initial state, by a dense solve.

    ``bsccs`` must hold every bottom component, so that ``I - Q`` over the
    remaining (transient) states is invertible.
    """
    absorbed = {}
    for k, scc in enumerate(bsccs):
        for sid in scc.members:
            absorbed[sid] = k
    if dtmc.initial_id in absorbed:
        return [
            1.0 if k == absorbed[dtmc.initial_id] else 0.0
            for k in range(len(bsccs))
        ]

    transient = [
        sid for sid in range(dtmc.num_states) if sid not in absorbed
    ]
    position = {sid: idx for idx, sid in enumerate(transient)}
    nt, nb = len(transient), len(bsccs)
    q = np.zeros((nt, nt))
    hits = np.zeros((nt, nb))
    for sid in transient:
        row = position[sid]
        for t in dtmc.out(sid):
            if t.target in absorbed:
                hits[row, absorbed[t.target]] += t.probability
            else:
                q[row, position[t.target]] += t.probability
    solution = np.linalg.solve(np.eye(nt) - q, hits)
    return [float(p) for p in solution[position[dtmc.initial_id]]]


def steady_state(dtmc, scc) -> dict:
    """Stationary distribution of the chain restricted to one BSCC.

    Solves ``pi P = pi`` with ``sum(pi) = 1`` by least squares, which also
    covers periodic components, where power iteration would not settle.
    """
    members = sorted(scc.members)
    if len(members) == 1:
        return {members[0]: 1.0}
    position = {sid: idx for idx, sid in enumerate(members)}
    k = len(members)
    p = np.zeros((k, k))
    for sid in members:
        for t in dtmc.out(sid):
            p[position[sid], position[t.target]] += t.probability

    system = np.vstack([p.T - np.eye(k), np.ones((1, k))])
    rhs = np.zeros(k + 1)
    rhs[-1] = 1.0
    pi, *_ = np.linalg.lstsq(system, rhs, rcond=None)
    pi = np.clip(pi, 0.0, None)
    pi /= pi.sum()
    return {sid: float(pi[position[sid]]) for sid in members}
