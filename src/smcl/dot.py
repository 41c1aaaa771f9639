"""Graphviz export of an explored chain.

The initial state is drawn as an ellipse, members of bottom components get
rounded corners, everything else is a plain rectangle.  Edges carry the
firing probability (6 significant digits) and the executed joint action.
Node order follows state ids, so re-exporting the same chain is
byte-identical.
"""

from __future__ import annotations

from .dtmc import Dtmc
from .gamefile import atomic_write_text


def _node_label(dtmc: Dtmc, sid: int) -> str:
    if sid == dtmc.sink_id:
        return f"s{sid}\\nbottom"
    state = dtmc.state(sid)
    if state.pure_action is not None:
        return f"s{sid}\\n{state.pure_action}"
    return f"s{sid}\\nmixed"


def render_dot(dtmc: Dtmc, bottom_members: set[int]) -> str:
    """The chain as DOT; ``bottom_members`` holds the ids of every state in
    a bottom component."""
    lines = ["digraph chain {", "  rankdir=LR;", "  node [fontsize=10];"]
    for sid in range(dtmc.num_states):
        label = _node_label(dtmc, sid)
        if sid == dtmc.initial_id:
            shape = "shape=ellipse"
        elif sid in bottom_members:
            shape = "shape=box, style=rounded"
        else:
            shape = "shape=box"
        lines.append(f'  s{sid} [{shape}, label="{label}"];')
    for sid in range(dtmc.num_states):
        for t in dtmc.out(sid):
            action = "" if t.action is None else f" {t.action}"
            lines.append(
                f'  s{sid} -> s{t.target} '
                f'[label="{t.probability:.6g}{action}"];'
            )
    lines.append("}")
    return "\n".join(lines) + "\n"


def export_dot(dtmc: Dtmc, bottom_members: set[int], path) -> None:
    atomic_write_text(path, render_dot(dtmc, bottom_members))
