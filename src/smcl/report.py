"""Batch checking over one or many initialisations, with reports.

``run_check`` explores and analyses the chain for each supplied
initialisation, tolerating per-run failures, and aggregates a summary.  The
JSON form validates against the schema shipped as ``report_schema.json``;
the human-readable table is rendered from the same data.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from .analysis import analyze
from .dtmc import Dtmc
from .explorer import ExploreConfig, explore
from .game import Game
from .learners import (
    DEFAULT_GAMMA,
    DEFAULT_LAMBDA_MIN,
    check_parameters,
    initial_state,
)


@dataclass(frozen=True, kw_only=True)
class RunConfig(ExploreConfig):
    """Everything one checking run needs besides the game and weights: the
    exploration settings it inherits, plus the learner's."""

    algorithm: str
    alpha: float = 0.2
    lambda0: float = 0.8
    gamma: float = DEFAULT_GAMMA
    lambda_min: float = DEFAULT_LAMBDA_MIN

    def __post_init__(self):
        check_parameters(self.algorithm, alpha=self.alpha,
                         lambda0=self.lambda0, gamma=self.gamma,
                         lambda_min=self.lambda_min)
        super().__post_init__()

    def learner(self, game: Game, weights):
        return initial_state(
            self.algorithm, game, weights, alpha=self.alpha,
            lambda0=self.lambda0, gamma=self.gamma,
            lambda_min=self.lambda_min,
        )


@dataclass
class RunRecord:
    """One run's entry in the report, its fields in the JSON schema's order."""

    index: int
    error: str | None = None
    states: int = 0
    depth_last_state: int = 0
    depth_last_merge: int = 0
    truncated: bool = False
    convergence_probability: float = 0.0
    bsccs: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclass
class Report:
    config: RunConfig
    runs: list
    dtmcs: list  # Dtmc per successful run, None for failed ones

    @property
    def all_ok(self) -> bool:
        return all(r.ok for r in self.runs)


def _bscc_payload(report) -> dict:
    return {
        "members": sorted(report.scc.members),
        "actions": sorted(list(a) for a in report.actions),
        "classification": report.classification.value,
        "reach_probability": report.reach_probability,
        "steady_state": {
            str(sid): p for sid, p in sorted(report.steady_state.items())
        },
    }


def check_single(config: RunConfig, game: Game, weights,
                 index: int = 0) -> tuple[RunRecord, Dtmc | None]:
    """One exploration plus analysis, packaged as a run record."""
    record = RunRecord(index=index)
    try:
        learner = config.learner(game, weights)
        dtmc = explore(game, learner, config)
        analysis = analyze(game, dtmc)
    except Exception as exc:  # noqa: BLE001 - reported per run
        record.error = f"{type(exc).__name__}: {exc}"
        return record, None
    record.states = dtmc.num_states
    # Ids follow BFS order, and the sink, if any, is the last one.
    last = dtmc.num_states - (2 if dtmc.truncated else 1)
    record.depth_last_state = dtmc.state(last).depth
    record.depth_last_merge = max(
        (dtmc.state(e.source_id).depth + 1 for e in dtmc.merge_events),
        default=0,
    )
    record.truncated = dtmc.truncated
    record.bsccs = [_bscc_payload(b) for b in analysis.bsccs]
    record.convergence_probability = analysis.convergence_probability
    return record, dtmc


def run_check(config: RunConfig, game: Game, inits) -> Report:
    """Explore and analyse every initialisation; failures do not stop it.

    ``inits`` is a sequence of per-pair weight mappings.
    """
    runs, dtmcs = [], []
    for index, weights in enumerate(inits):
        record, dtmc = check_single(config, game, weights, index=index)
        runs.append(record)
        dtmcs.append(dtmc)
    return Report(config=config, runs=runs, dtmcs=dtmcs)


def _summary(report: Report) -> dict:
    good = [r for r in report.runs if r.ok]
    def stats(values):
        if not values:
            return {"mean": 0.0, "min": 0.0, "max": 0.0}
        return {
            "mean": float(np.mean(values)),
            "min": float(np.min(values)),
            "max": float(np.max(values)),
        }
    return {
        "runs": len(report.runs),
        "failed_runs": len(report.runs) - len(good),
        "truncated_runs": sum(r.truncated for r in good),
        "states": stats([r.states for r in good]),
        "depth_last_state": stats([r.depth_last_state for r in good]),
        "depth_last_merge": stats([r.depth_last_merge for r in good]),
        "convergence_probability": stats(
            [r.convergence_probability for r in good]
        ),
    }


def report_to_json(report: Report, game: Game) -> dict:
    """The report's JSON payload; its run entries share the records' lists."""
    config = report.config
    return {
        "game": {
            "players": game.num_players,
            "actions": list(game.action_counts),
        },
        "config": {f.name: getattr(config, f.name) for f in fields(config)},
        "runs": [{"index": r.index, "ok": r.ok, **vars(r)}
                 for r in report.runs],
        "summary": _summary(report),
    }


def render_table(payload: dict) -> str:
    """Human-readable summary of a ``report_to_json`` payload."""
    summary, runs = payload["summary"], payload["runs"]
    lines = [
        f"algorithm            {payload['config']['algorithm']}",
        f"runs                 {summary['runs']}"
        + (f"  ({summary['failed_runs']} failed)"
           if summary["failed_runs"] else ""),
        f"truncated runs       {summary['truncated_runs']}",
        "states               mean {mean:.1f}  min {min:.0f}  max {max:.0f}"
        .format(**summary["states"]),
        "depth of last state  mean {mean:.1f}  max {max:.0f}"
        .format(**summary["depth_last_state"]),
        "depth of last merge  mean {mean:.1f}  max {max:.0f}"
        .format(**summary["depth_last_merge"]),
        "convergence prob.    mean {mean:.4f}  min {min:.4f}  max {max:.4f}"
        .format(**summary["convergence_probability"]),
    ]
    if len(runs) == 1 and runs[0]["ok"]:
        lines.append("bsccs:")
        for b in runs[0]["bsccs"]:
            actions = " ".join(str(tuple(a)) for a in b["actions"])
            lines.append(
                f"  {b['classification']:<18} p={b['reach_probability']:.6f}"
                f"  actions: {actions if actions else '(sink)'}"
            )
    return "\n".join(lines)
