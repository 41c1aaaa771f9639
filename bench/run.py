"""Benchmark of the smcl package: closed-loop workloads with checked outputs.

    python3 bench/run.py --workload coord-batch --seed 2024 --trace 0

One single-threaded process builds the workload's jobs from the seed, then
runs them back to back, one pass after another, until ``--seconds`` of timed
work are done.  Every output is checked outside the timed section and its
behaviour fingerprint compared with the stored reference (default seed) or
with the first pass.  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` adds one traced pass and reports the per-layer split.  The
last line of standard output is one JSON object; a fuller record goes to
``bench/out/``.  See ``bench/README.md``.
"""

import os

# Pin every BLAS/OpenMP pool to one thread before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib.metadata  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
REFERENCE_DIR = BENCH_DIR / "reference"
WORKLOADS = ("coord-batch", "banded-deep", "expand", "playouts")
SETUP_PROBES = 5     # fresh processes timed for setup_s, after one warm-up
TAIL_BEYOND = 10     # samples the tail percentile leaves above it
PROBE_TIMEOUT_S = 60


class BenchError(RuntimeError):
    """The benchmark itself cannot run; no result is printed."""


def _import_package():
    """Import smcl from this checkout's sources, never from elsewhere."""
    if not (SRC / "smcl" / "__init__.py").is_file():
        raise BenchError(f"no smcl sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import smcl
    if Path(smcl.__file__).resolve().parent != (SRC / "smcl").resolve():
        raise BenchError(f"smcl imported from {smcl.__file__}, not {SRC}")
    import workloads
    return workloads


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: the workload's own)")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="timed work per run (whole passes)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true",
                        help="store this run's fingerprints as the "
                             "reference (default seed only)")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed is not None and args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _version(package: str):
    try:
        return importlib.metadata.version(package)
    except importlib.metadata.PackageNotFoundError:
        return None


def _environment(loadavg) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "loadavg_at_start": loadavg,
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "machine": platform.machine(),
    }


def _setup_probe(args) -> int:
    """Child process: time import + set-up from a fresh interpreter."""
    start = time.perf_counter()
    workloads = _import_package()
    spec = workloads.SPECS[args.workload]
    seed = spec.default_seed if args.seed is None else args.seed
    workloads.setup(spec, seed, str(OUT_DIR))
    print(json.dumps({"setup_s": time.perf_counter() - start}))
    return 0


def _measure_setup(workload: str, seed: int) -> float:
    """Median set-up time over fresh processes (the first is discarded)."""
    command = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
               "--workload", workload, "--seed", str(seed)]
    samples = []
    for probe in range(SETUP_PROBES + 1):
        done = subprocess.run(command, capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S, cwd=ROOT)
        if done.returncode != 0:
            raise BenchError("set-up probe failed:\n" + done.stderr)
        if probe:
            samples.append(json.loads(done.stdout.splitlines()[-1])["setup_s"])
    return statistics.median(samples)


class Tally:
    """Timings, failures and fingerprints of the jobs run so far."""

    def __init__(self, workloads, spec, setup, reference):
        self.workloads = workloads
        self.spec = spec
        self.setup = setup
        self.checker = workloads.Checker(spec, setup.game)
        self.reference = reference
        self.first_pass: dict = {}
        self.times: list = []
        self.units = 0
        self.attempted = 0
        self.failures: list = []
        self.counts = {"states": 0, "merges": 0, "bsccs": 0}

    def run_pass(self, tracer=None) -> float:
        """Run every job once; returns the timed seconds of the pass."""
        spent = 0.0
        for job in self.setup.jobs:
            start = time.perf_counter()
            try:
                if tracer is None:
                    output = self.workloads.run_job(
                        self.spec, self.setup.game, job)
                else:
                    output = tracer.span("job", self.workloads.run_job,
                                         self.spec, self.setup.game, job)
                error = None
            except Exception as exc:  # noqa: BLE001 - counted as a failure
                output, error = None, f"{type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - start
            spent += elapsed
            self.times.append(elapsed)
            self._check(job, output, error)
        return spent

    def _check(self, job, output, error) -> None:
        self.attempted += 1
        problems = [error] if error else []
        if output is not None:
            try:
                checked = self.checker.check(job, output)
            except Exception as exc:  # noqa: BLE001 - malformed output
                self.failures.append(f"{job.key}: check raised "
                                     f"{type(exc).__name__}: {exc}")
                return
            problems += checked.problems
            self.units += checked.units
            for key, value in checked.counts.items():
                self.counts[key] += value
            if checked.fingerprint is not None:
                problems += self._compare(job.key, checked.fingerprint)
        if problems:
            self.failures.append(f"{job.key}: {problems[0]}")

    def _compare(self, key, fingerprint) -> list:
        same = self.workloads.same_fingerprint
        if key not in self.first_pass:
            self.first_pass[key] = fingerprint
            if self.reference is not None and not same(
                    fingerprint, self.reference.get(key)):
                return ["fingerprint differs from the stored reference"]
        elif not same(fingerprint, self.first_pass[key]):
            return ["fingerprint differs from the first pass"]
        return []

    def reset_counts(self) -> None:
        self.counts = dict.fromkeys(self.counts, 0)


def _reference_path(workload: str) -> Path:
    return REFERENCE_DIR / f"{workload}.json"


def _load_reference(spec, seed):
    if seed != spec.default_seed:
        return None
    path = _reference_path(spec.name)
    if not path.is_file():
        raise BenchError(f"missing reference fingerprints {path}")
    stored = json.loads(path.read_text(encoding="utf-8"))
    if stored["seed"] != seed or stored["jobs"] != len(stored["fingerprints"]):
        raise BenchError(f"malformed reference fingerprints {path}")
    return stored["fingerprints"]


def _tail(times_ms: list, pass_size: int):
    """Value, percentile and sample count of the tail metric.

    The percentile is fixed by the pass size: the highest one that leaves
    ``TAIL_BEYOND`` samples of one pass above it (the maximum when a pass
    is smaller than that), taken by nearest rank over all samples.
    """
    level = (pass_size - TAIL_BEYOND) / pass_size \
        if pass_size > TAIL_BEYOND else 1.0
    ordered = sorted(times_ms)
    rank = max(math.ceil(level * len(ordered)), 1)
    return ordered[rank - 1], 100.0 * level, len(ordered)


def _layer_metrics(tracer, tally, timed_s, traced_s) -> dict:
    calls, busy, self_s = tracer.calls, tracer.busy, tracer.self_s
    out = {}
    attempts = 0
    for branch in ("identical", "successor", "path", "disjoint"):
        key = "similarity." + branch
        attempts += calls[key]
        out[key + ".calls"] = (calls[key], "count")
        out[key + ".busy_s"] = (busy[key], "s")
        out[key + ".accept_ratio"] = (
            tracer.accepts[key] / calls[key] if calls[key] else 0.0, "ratio")
    candidates = calls["explorer.successor"]
    out["similarity.attempts_per_candidate"] = (
        attempts / candidates if candidates else 0.0, "ratio")
    out["learners.observe.calls.successor"] = (
        calls["learners.observe.successor"], "count")
    out["learners.observe.calls.replay"] = (
        calls["learners.observe.replay"], "count")
    out["learners.observe.busy_s"] = (
        busy["learners.observe.successor"] + busy["learners.observe.replay"],
        "s")
    out["explorer.explore.calls"] = (calls["explorer.explore"], "count")
    out["explorer.successor.calls"] = (candidates, "count")
    out["explorer.successor.busy_s"] = (busy["explorer.successor"], "s")
    out["explorer.explore.self_s"] = (self_s["explorer.explore"], "s")
    out["explorer.states"] = (tally.counts["states"], "count")
    out["explorer.merge_ratio"] = (
        tally.counts["merges"] / candidates if candidates else 0.0, "ratio")
    out["game.expected_reward_vector.calls"] = (
        calls["game.expected_reward_vector"], "count")
    out["game.expected_reward_vector.busy_s"] = (
        busy["game.expected_reward_vector"], "s")
    for name in ("bottom_sccs", "reach_probabilities", "steady_state",
                 "classify"):
        out[f"analysis.{name}.busy_s"] = (busy["analysis." + name], "s")
    out["analysis.analyze.self_s"] = (self_s["analysis.analyze"], "s")
    out["analysis.bsccs"] = (tally.counts["bsccs"], "count")
    out["report.check_single.self_s"] = (self_s["report.check_single"], "s")
    out["report.report_to_json.busy_s"] = (busy["report.report_to_json"], "s")
    out["simulate.empirical_convergence.busy_s"] = (
        busy["simulate.empirical_convergence"], "s")
    out["trace.overhead_frac"] = (traced_s / timed_s - 1.0, "ratio")
    return out


def _run(args) -> int:
    loadavg = os.getloadavg()
    start = time.perf_counter()
    workloads = _import_package()
    import_s = time.perf_counter() - start
    spec = workloads.SPECS[args.workload]
    seed = spec.default_seed if args.seed is None else args.seed
    if args.record_reference and seed != spec.default_seed:
        raise BenchError("references are stored for the default seed only")
    environment = _environment(loadavg)
    OUT_DIR.mkdir(exist_ok=True)

    setup_s = _measure_setup(spec.name, seed)
    setup = workloads.setup(spec, seed, str(OUT_DIR))
    reference = None if args.record_reference \
        else _load_reference(spec, seed)
    tally = Tally(workloads, spec, setup, reference)
    try:  # warm-up; a failure shows again, and is counted, in the pass
        workloads.run_job(spec, setup.game, setup.jobs[0])
    except Exception:  # noqa: BLE001
        pass

    pass_times = []
    while sum(pass_times) < args.seconds:
        pass_times.append(tally.run_pass())
    timed_s = sum(pass_times)
    untraced_units = tally.units

    metrics_layer = None
    if args.trace:
        import tracer as tracing
        tracer = tracing.Tracer()
        tally.reset_counts()
        tracer.install()
        try:
            traced_s = tally.run_pass(tracer)
        finally:
            tracer.remove()
        tracer.write_spans(OUT_DIR / f"spans-{spec.name}-{seed}.jsonl")
        metrics_layer = _layer_metrics(
            tracer, tally, timed_s / len(pass_times), traced_s)

    untraced_ms = [1000.0 * t for t in tally.times[:len(setup.jobs)
                                                 * len(pass_times)]]
    tail_ms, tail_pct, tail_n = _tail(untraced_ms, len(setup.jobs))
    jobs_done = len(untraced_ms)
    failed = len(tally.failures)
    metrics = {
        "setup_s": (setup_s, "s"),
        "chains_per_s": (jobs_done / timed_s, "1/s"),
        "playouts_per_s": (untraced_units / timed_s, "1/s"),
        "chain_ms_p50": (statistics.median(untraced_ms), "ms"),
        "chain_ms_tail": (tail_ms, "ms"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "MB"),
        "ok_frac": (1.0 - failed / tally.attempted, "ratio"),
    }
    extra = {
        "failed_frac": (failed / tally.attempted, "ratio"),
        "chain_ms_tail.percentile": (tail_pct, "%"),
        "chain_ms_tail.samples": (tail_n, "count"),
        "passes": (len(pass_times), "count"),
        "setup.import_s": (import_s, "s"),
    }
    extra.update({k: (v, "s") for k, v in setup.timings.items()})
    if metrics_layer is not None:
        metrics_layer.update(extra)

    if args.record_reference:
        if failed:
            raise BenchError("not storing fingerprints of a failing run")
        REFERENCE_DIR.mkdir(exist_ok=True)
        lines = ",\n".join(
            f" {json.dumps(key)}: {json.dumps(value, separators=(',', ':'))}"
            for key, value in tally.first_pass.items())
        _reference_path(spec.name).write_text(
            f'{{"seed": {seed}, "jobs": {len(tally.first_pass)}, '
            f'"fingerprints": {{\n{lines}\n}}}}\n', encoding="utf-8")

    print(f"workload {spec.name}  seed {seed}  trace {args.trace}  "
          f"jobs {len(setup.jobs)} per pass x {len(pass_times)} passes")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<42} {value:>14.6g} {unit}")
    if metrics_layer is not None:
        print("per-layer (one traced pass):")
    for name, (value, unit) in (metrics_layer or extra).items():
        print(f"  {name:<42} {value:>14.6g} {unit}")
    for failure in tally.failures[:10]:
        print("FAILED " + failure)
    print("environment " + json.dumps(environment))

    chosen = metrics_layer if args.trace else metrics
    record = {
        "workload": spec.name, "seed": seed, "trace": args.trace,
        "seconds": args.seconds, "environment": environment,
        "end_to_end": metrics, "extra": extra, "per_layer": metrics_layer,
        "failures": tally.failures, "fingerprints": tally.first_pass,
    }
    (OUT_DIR / f"record-{spec.name}-{seed}-trace{args.trace}.json") \
        .write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": tally.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in chosen.items()},
    }))
    return 0


def main(argv=None) -> int:
    args = _parse(argv)
    try:
        if args.setup_probe:
            return _setup_probe(args)
        return _run(args)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
