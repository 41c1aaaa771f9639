"""The benchmark's workloads: inputs from a seed, one timed job, its checks.

A job is one answer to the package's question "where does the play end up,
and with what probability": on the chain workloads one initialisation
explored, analysed and reported through ``report.run_check`` and
``report_to_json`` (the ``smcl check --random-inits`` path); on
``playouts`` one batch of Monte-Carlo playouts through
``simulate.empirical_convergence``.  A pass is the fixed list of jobs a seed
defines; the benchmark repeats passes until its time is up.
"""

from __future__ import annotations

import importlib
import os
import time
from dataclasses import dataclass, field

import numpy as np

import smcl
import smcl.gamefile
import smcl.report

import oracle

# ``smcl.simulate`` is the package's re-exported function; this is the module.
simulate = importlib.import_module("smcl.simulate")

LEARNER_PARAMS = {"fp": {}, "gfp": {"alpha": 0.2}, "afffp": {"lambda0": 0.8}}
BANDED_DELTA = 0.03


@dataclass(frozen=True)
class Spec:
    name: str
    default_seed: int
    game: str             # "simple" or "banded"
    algorithms: tuple
    repeats: int          # inits (chains) or batches (playouts) per learner
    tau0: float
    banded_n: int = 0
    max_depth: int = 0
    merge_enabled: bool = True
    runs: int = 0         # playouts per batch; 0 on the chain workloads
    iterations: int = 0
    oracle: bool = False  # compare every branch with a merge-free playout


SPECS = {spec.name: spec for spec in (
    # Many short chains; gfp/afffp time goes to similarity's path replay.
    Spec("coord-batch", 2024, "simple", ("fp", "gfp", "afffp"), repeats=100,
         tau0=1.0, max_depth=100, oracle=True),
    # 144 first-step branches fill long merge buckets: many cheap rejections
    # in similarity's disjoint-branch check.
    Spec("banded-deep", 5, "banded", ("gfp",), repeats=64, tau0=1.0,
         banded_n=3, max_depth=3000),
    # No merging at all: successor generation, learners, game and analysis
    # of a chain with tens of thousands of states.
    Spec("expand", 5, "banded", ("fp",), repeats=5, tau0=1.0, banded_n=3,
         max_depth=150, merge_enabled=False),
    # The vectorised two-player playout batch; no explorer or analysis.
    Spec("playouts", 99, "simple", ("fp", "gfp", "afffp"), repeats=12,
         tau0=0.01, runs=10_000, iterations=50),
)}


@dataclass
class Job:
    key: str
    algorithm: str
    learner: object
    weights: dict | None = None
    config: object = None   # report.RunConfig on the chain workloads
    batch_seed: int = 0     # playouts only


@dataclass
class Setup:
    game: object
    jobs: list
    timings: dict


def _build_game(spec: Spec):
    if spec.game == "simple":
        return smcl.simple_coordination()
    return smcl.complex_coordination(n=spec.banded_n, delta=BANDED_DELTA)


def setup(spec: Spec, seed: int, workdir: str) -> Setup:
    """Build the game, round-trip it through a game file, build the jobs."""
    timings = {}
    start = time.perf_counter()
    built = _build_game(spec)
    timings["catalog.game_s"] = time.perf_counter() - start

    start = time.perf_counter()
    path = os.path.join(workdir, f"{spec.name}-{os.getpid()}.game")
    smcl.gamefile.write_game(built, path)
    try:
        game = smcl.gamefile.parse_game(path)
    finally:
        os.unlink(path)
    timings["gamefile.roundtrip_s"] = time.perf_counter() - start
    if game.action_counts != built.action_counts \
            or not np.array_equal(game.rewards, built.rewards):
        raise RuntimeError("the game file round trip changed the game")

    start = time.perf_counter()
    jobs = []
    for k in range(spec.repeats):
        if spec.runs:
            weights = smcl.SIMPLE_COORDINATION_WEIGHTS
            batch_seed = 1000 * seed + k
        else:
            weights = smcl.random_initial_weights(game, [seed, k])
        for algorithm in spec.algorithms:
            params = LEARNER_PARAMS[algorithm]
            if spec.runs:
                learner = smcl.initial_state(algorithm, game, weights,
                                             **params)
                jobs.append(Job(f"{algorithm}/{k}", algorithm, learner,
                                batch_seed=batch_seed))
                continue
            config = smcl.report.RunConfig(
                algorithm=algorithm, tau0=spec.tau0,
                max_depth=spec.max_depth,
                merge_enabled=spec.merge_enabled, **params,
            )
            jobs.append(Job(f"{algorithm}/{k}", algorithm,
                            config.learner(game, weights), weights, config))
    timings["setup.inits_learners_s"] = time.perf_counter() - start
    return Setup(game, jobs, timings)


def run_job(spec: Spec, game, job: Job):
    """The timed work of one job; ``Checker.check`` takes its output."""
    if spec.runs:
        return simulate.empirical_convergence(
            game, job.learner, spec.runs, spec.iterations,
            seed=job.batch_seed, tau0=spec.tau0,
        )
    report = smcl.report.run_check(job.config, game, [job.weights])
    return report, smcl.report.report_to_json(report, game)


@dataclass
class Checked:
    fingerprint: dict | None
    problems: list
    units: int   # playouts in the batch, or first-step branches of the chain
    counts: dict = field(default_factory=dict)  # states, merges, bsccs


class Checker:
    """Untimed correctness checks; keeps the oracle's reusable inputs."""

    def __init__(self, spec: Spec, game):
        self.spec = spec
        self.two_player = oracle.TwoPlayerGame(game) \
            if spec.oracle or spec.runs else None
        self._uniforms: dict = {}

    def _oracle_learner(self, job: Job):
        weights = job.weights if job.weights is not None \
            else smcl.SIMPLE_COORDINATION_WEIGHTS
        return oracle.Learner(job.algorithm, weights,
                              **LEARNER_PARAMS[job.algorithm])

    def check(self, job: Job, output) -> Checked:
        if self.spec.runs:
            return self._check_batch(job, output)
        report, payload = output
        run = payload["runs"][0]
        if run["error"] is not None:
            return Checked(None, [run["error"]], 0)
        dtmc = report.dtmcs[0]
        merges = len(dtmc.merge_events)
        problems = oracle.chain_invariants(dtmc, run)
        if self.spec.oracle and not problems:
            problems += oracle.branch_check(
                self.two_player, self._oracle_learner(job), self.spec.tau0,
                dtmc, run,
            )
        # BSCCs with the same label and actions form one outcome:
        # [label, actions, reach probability, number of BSCCs].
        outcomes: dict = {}
        for b in run["bsccs"]:
            key = (b["classification"], repr(b["actions"]))
            entry = outcomes.setdefault(
                key, [b["classification"], b["actions"], 0.0, 0])
            entry[2] += b["reach_probability"]
            entry[3] += 1
        fingerprint = {
            "states": run["states"],
            "merges": merges,
            "outcomes": [[label, actions, round(p, 12), n] for label,
                         actions, p, n in sorted(outcomes.values())],
            "truncation_mass": round(sum(
                b["reach_probability"] for b in run["bsccs"]
                if b["classification"] == "Truncation"), 12),
        }
        counts = {"states": run["states"], "merges": merges,
                  "bsccs": len(run["bsccs"])}
        return Checked(fingerprint, problems,
                       len(dtmc.out(dtmc.initial_id)), counts)

    def _check_batch(self, job: Job, result) -> Checked:
        spec = self.spec
        uniforms = self._uniforms.get(job.batch_seed)
        if uniforms is None:
            uniforms = oracle.first_step_uniforms(job.batch_seed, spec.runs)
            self._uniforms[job.batch_seed] = uniforms
        want = oracle.playout_counts(
            self.two_player, self._oracle_learner(job), spec.tau0,
            spec.iterations, uniforms,
        )
        got = {label: round(freq * spec.runs)
               for label, freq in result.frequencies.items()}
        unresolved = round(result.unresolved * spec.runs)
        if unresolved:
            got[None] = unresolved
        problems = []
        if got != want or result.runs != spec.runs:
            problems.append(f"outcome counts {_named(got)}, "
                            f"oracle {_named(want)}")
        fingerprint = {"outcomes": _named(got)}
        return Checked(fingerprint, problems, spec.runs)


def _named(counts: dict) -> list:
    return sorted(
        ([sorted(list(a) for a in label) if label is not None
          else "unresolved", n] for label, n in counts.items()),
        key=repr,
    )


def same_fingerprint(a, b, tol: float = 1e-9) -> bool:
    """Equal structure and integers; floats equal within ``tol``."""
    if isinstance(a, float) or isinstance(b, float):
        return isinstance(a, (int, float)) and isinstance(b, (int, float)) \
            and abs(a - b) <= tol
    if isinstance(a, dict):
        return isinstance(b, dict) and a.keys() == b.keys() and all(
            same_fingerprint(a[k], b[k], tol) for k in a
        )
    if isinstance(a, (list, tuple)):
        return isinstance(b, (list, tuple)) and len(a) == len(b) and all(
            same_fingerprint(x, y, tol) for x, y in zip(a, b)
        )
    return a == b
