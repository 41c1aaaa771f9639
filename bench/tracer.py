"""Times the package's layers from outside by interposing public functions.

Each interposed function is replaced, for the traced pass only, by a wrapper
that counts calls and accumulates busy time (inclusive) and self time
(busy minus the time of interposed callees).  Functions called up to a few
thousand times per pass also leave a span (id, parent id, name, start, end);
the ones called up to millions of times (``similar``, ``observe``,
``successor``, ``expected_reward_vector``) are only aggregated.  Spans stay
in memory and are written out when the run ends.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict

import smcl.analysis
import smcl.explorer
import smcl.game
import smcl.learners
import smcl.report
import smcl.similarity

# ``smcl.simulate`` is the package's re-exported function; this is the module.
simulate = importlib.import_module("smcl.simulate")

SIMILAR_BRANCHES = {0: "identical", 1: "successor", None: "disjoint"}
_UNSET = object()


def _similar_key(args, kwargs) -> str:
    # explore() passes the generation-tree distance: 0 identical, 1 direct
    # successor, larger a longer ancestor path, None no path at all.
    distance = kwargs.get("distance", args[3] if len(args) > 3 else _UNSET)
    if distance is _UNSET:
        return "similarity.unresolved"
    return "similarity." + SIMILAR_BRANCHES.get(distance, "path")


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.busy = defaultdict(float)
        self.self_s = defaultdict(float)
        self.accepts = defaultdict(int)
        self.spans: list = []
        # Open calls, innermost last: [key, time of interposed callees, span].
        self._stack = [["root", 0.0, None]]
        self._origin = time.perf_counter()
        self._saved: list = []

    def _observe_key(self, args, kwargs) -> str:
        replay = any(frame[0].startswith("similarity.")
                     for frame in self._stack)
        return "learners.observe." + ("replay" if replay else "successor")

    def _points(self):
        """(module, attribute, key or key function, spanned, count accepts)"""
        return [
            (smcl.explorer, "similar", _similar_key, False, True),
            (smcl.explorer, "successor", "explorer.successor", False, False),
            (smcl.learners, "observe", self._observe_key, False, False),
            (smcl.similarity, "expected_reward_vector",
             "game.expected_reward_vector", False, False),
            (smcl.game, "expected_reward_vector",
             "game.expected_reward_vector", False, False),
            (smcl.report, "check_single", "report.check_single", True, False),
            (smcl.report, "explore", "explorer.explore", True, False),
            (smcl.report, "analyze", "analysis.analyze", True, False),
            (smcl.analysis, "bottom_sccs", "analysis.bottom_sccs", True,
             False),
            (smcl.analysis, "reach_probabilities",
             "analysis.reach_probabilities", True, False),
            (smcl.analysis, "steady_state", "analysis.steady_state", True,
             False),
            (smcl.analysis, "classify", "analysis.classify", True, False),
            (smcl.report, "report_to_json", "report.report_to_json", True,
             False),
            (simulate, "empirical_convergence",
             "simulate.empirical_convergence", True, False),
        ]

    def install(self) -> None:
        for module, attr, key, spanned, accepts in self._points():
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, key, spanned, accepts))

    def remove(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def span(self, key: str, fn, *args):
        """Call ``fn(*args)`` inside a span of its own."""
        return self._wrap(fn, key, True, False)(*args)

    def _wrap(self, fn, key, spanned: bool, count_accepts: bool):
        stack, perf = self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            name = key(args, kwargs) if callable(key) else key
            frame = [name, 0.0, None]
            if spanned:
                frame[2] = len(self.spans)
                self.spans.append(None)
            stack.append(frame)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                elapsed = end - start
                stack[-1][1] += elapsed
                self.calls[name] += 1
                self.busy[name] += elapsed
                self.self_s[name] += elapsed - frame[1]
                if spanned:
                    parent = next((f[2] for f in reversed(stack)
                                   if f[2] is not None), None)
                    self.spans[frame[2]] = {
                        "id": frame[2], "parent": parent, "name": name,
                        "start": start - self._origin,
                        "end": end - self._origin,
                    }
            if count_accepts and result:
                self.accepts[name] += 1
            return result

        return wrapper

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
