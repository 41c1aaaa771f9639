"""Command-line front end.

Subcommands:

* ``smcl check``    -- explore a game under one algorithm, analyse the
  absorbing components, and report (text, JSON, DOT).
* ``smcl simulate`` -- Monte-Carlo playouts; writes the first run's trace
  as CSV and prints tail-classified outcome frequencies.
* ``smcl catalog``  -- write one of the built-in benchmark games.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields

from . import catalog
from .dot import export_dot
from .gamefile import (GameFileError, atomic_write_text, parse_game,
                       parse_weights, write_game)
from .report import RunConfig, render_table, report_to_json, run_check
from .simulate import empirical_convergence, simulate, trace_to_csv


def _add_learner_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--algo", dest="algorithm", required=True,
                        choices=["fp", "gfp", "afffp"])
    parser.add_argument("--tau0", type=float, default=RunConfig.tau0,
                        help="first-iteration softmax temperature")
    parser.add_argument("--alpha", type=float, default=RunConfig.alpha,
                        help="gfp discount step")
    parser.add_argument("--lambda0", type=float, default=RunConfig.lambda0,
                        help="afffp initial forgetting factor")
    parser.add_argument("--gamma", type=float, default=RunConfig.gamma,
                        help="afffp adaptation rate")
    parser.add_argument("--lambda-min", type=float,
                        default=RunConfig.lambda_min,
                        help="afffp lower clamp for the forgetting factor")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="smcl",
        description="Model checking of game-theoretic learning dynamics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="explore and analyse a game")
    check.add_argument("--game", required=True)
    _add_learner_options(check)
    check.add_argument("--max-depth", type=int, default=RunConfig.max_depth)
    check.add_argument("--state-cap", type=int, default=RunConfig.state_cap)
    check.add_argument("--prob-floor", type=float,
                       default=RunConfig.prob_floor)
    check.add_argument("--no-merge", dest="merge_enabled",
                       action="store_false",
                       help="disable state merging (pure expansion tree)")
    init = check.add_mutually_exclusive_group(required=True)
    init.add_argument("--weights", help="weights file for a single run")
    init.add_argument("--random-inits", type=int, metavar="N",
                      help="number of random initialisations")
    check.add_argument("--seed", type=int, default=0)
    check.add_argument("--dot", help="write the first run's chain as DOT")
    check.add_argument("--json", help="write the full report as JSON")

    sim = sub.add_parser("simulate", help="Monte-Carlo playouts")
    sim.add_argument("--game", required=True)
    _add_learner_options(sim)
    sim.add_argument("--iterations", type=int, required=True)
    sim.add_argument("--runs", type=int, default=1)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--weights",
                     help="weights file (default: random per seed)")
    sim.add_argument("--trace", required=True,
                     help="CSV path for the first run's trace")

    cat = sub.add_parser("catalog", help="write a built-in game")
    cat.add_argument("name", choices=["simple", "shapley", "complex"])
    cat.add_argument("--n", type=int, default=5,
                     help="complex game size parameter (4n actions)")
    cat.add_argument("--delta", type=float, default=0.03,
                     help="complex game sharpness parameter")
    cat.add_argument("--out", required=True)
    return parser


def _check_seed(seed: int) -> None:
    if seed < 0:  # numpy seeds from non-negative integers only
        raise ValueError(f"--seed must be non-negative, got {seed}")


def _run_config(args) -> RunConfig:
    """The ``RunConfig`` of the options whose dests name its fields."""
    return RunConfig(**{f.name: getattr(args, f.name)
                        for f in fields(RunConfig) if hasattr(args, f.name)})


def _load_weights(args, game):
    if getattr(args, "weights", None):
        return parse_weights(args.weights, game)
    return catalog.random_initial_weights(game, [args.seed, 0])


def _cmd_check(args) -> int:
    game = parse_game(args.game)
    try:
        config = _run_config(args)
        _check_seed(args.seed)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.weights:
        inits = [parse_weights(args.weights, game)]
    else:
        if args.random_inits < 1:
            print("error: --random-inits must be positive", file=sys.stderr)
            return 2
        inits = [
            catalog.random_initial_weights(game, [args.seed, k])
            for k in range(args.random_inits)
        ]
    report = run_check(config, game, inits)
    payload = report_to_json(report, game)
    print(render_table(payload))
    if args.json:
        atomic_write_text(args.json, json.dumps(payload, indent=2, allow_nan=False) + "\n")
    if args.dot:
        first = payload["runs"][0]
        if not first["ok"]:
            print("error: first run failed, no DOT written", file=sys.stderr)
        else:
            members = {m for b in first["bsccs"] for m in b["members"]}
            export_dot(report.dtmcs[0], members, args.dot)
    for record in report.runs:
        if not record.ok:
            print(f"run {record.index} failed: {record.error}",
                  file=sys.stderr)
    return 0 if report.all_ok else 1


def _cmd_simulate(args) -> int:
    game = parse_game(args.game)
    try:
        config = _run_config(args)
        if args.iterations < 1:
            raise ValueError(
                f"--iterations must be at least 1, got {args.iterations}"
            )
        if args.runs < 1:
            raise ValueError(f"--runs must be at least 1, got {args.runs}")
        _check_seed(args.seed)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    learner = config.learner(game, _load_weights(args, game))
    trace = simulate(game, learner, args.iterations, args.tau0,
                     [args.seed, 0])
    trace_to_csv(trace, game, args.trace)
    print(f"trace of run 0 written to {args.trace}")
    if args.runs > 1:
        result = empirical_convergence(
            game, learner, args.runs, args.iterations, args.seed,
            tau0=args.tau0,
        )
        print(f"runs                 {result.runs}")
        print(f"unresolved fraction  {result.unresolved:.4f}")
        for actions, freq in sorted(
            result.frequencies.items(), key=lambda kv: -kv[1]
        ):
            label = " ".join(str(a) for a in sorted(actions))
            print(f"  {freq:.4f}  {label}")
    return 0


def _cmd_catalog(args) -> int:
    if args.name == "simple":
        game = catalog.simple_coordination()
    elif args.name == "shapley":
        game = catalog.shapley()
    else:
        try:
            params = catalog.ComplexGameParams(n=args.n, delta=args.delta)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        game = catalog.complex_coordination(params)
    write_game(game, args.out, comment=f"catalog game: {args.name}")
    print(f"{args.name} written to {args.out}")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "check":
            return _cmd_check(args)
        if args.command == "simulate":
            return _cmd_simulate(args)
        return _cmd_catalog(args)
    except (GameFileError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
