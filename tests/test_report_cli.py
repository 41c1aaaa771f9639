import json
from collections import Counter
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import smcl.analysis
import smcl.cli
import smcl.report
from smcl import SIMPLE_COORDINATION_WEIGHTS
from smcl.cli import main
from smcl.gamefile import write_weights
from smcl.report import RunConfig, render_table, report_to_json, run_check

SCHEMA_PATH = (
    Path(__file__).resolve().parents[1]
    / "src" / "smcl" / "report_schema.json"
)


@pytest.fixture()
def simple_game_file(tmp_path):
    path = tmp_path / "simple.game"
    assert main(["catalog", "simple", "--out", str(path)]) == 0
    return path


@pytest.fixture()
def toy_weights_file(tmp_path):
    path = tmp_path / "toy.weights"
    write_weights(
        {k: np.array(v) for k, v in SIMPLE_COORDINATION_WEIGHTS.items()},
        path,
    )
    return path


class TestRunCheck:
    def test_single_run_report(self, simple_game, toy_weights):
        config = RunConfig(algorithm="fp", tau0=0.01, max_depth=100)
        report = run_check(config, simple_game, [toy_weights])
        assert report.all_ok
        (record,) = report.runs
        assert record.states == 8
        assert not record.truncated
        assert record.convergence_probability == pytest.approx(
            0.1796, abs=1e-3
        )
        labels = sorted(b["classification"] for b in record.bsccs)
        assert labels == [
            "PureNashPareto", "PureNashPareto", "RewardlessCycle"
        ]

    @pytest.mark.parametrize("merge_enabled, max_depth, truncated", [
        (True, 100, False), (True, 3, True), (False, 6, True),
    ])
    def test_depth_last_state_is_deepest_non_sink_state(
        self, simple_game, toy_weights, merge_enabled, max_depth, truncated
    ):
        config = RunConfig(algorithm="fp", tau0=1.0, max_depth=max_depth,
                           merge_enabled=merge_enabled)
        record, dtmc = smcl.report.check_single(config, simple_game,
                                                toy_weights)
        assert record.ok and dtmc.truncated == truncated
        assert record.depth_last_state == max(
            s.depth for s in dtmc.states if s.id != dtmc.sink_id
        )

    def test_failed_run_recorded_and_batch_continues(
        self, simple_game, toy_weights
    ):
        config = RunConfig(
            algorithm="fp", tau0=0.01, max_depth=100,
            merge_enabled=False, state_cap=10,
        )
        report = run_check(config, simple_game, [toy_weights, toy_weights])
        assert not report.all_ok
        assert len(report.runs) == 2
        assert all(r.error and "StateBudgetError" in r.error
                   for r in report.runs)

    def test_exploration_setting_rejected_at_construction(self):
        # Like a learner setting, it raises before any run starts.
        with pytest.raises(ValueError,
                           match="tau0 must be positive, got -1.0"):
            RunConfig(algorithm="fp", tau0=-1.0)
        with pytest.raises(ValueError, match="max_depth must be at least 1"):
            RunConfig(algorithm="fp", max_depth=float("nan"))

    def test_json_validates_against_shipped_schema(
        self, simple_game, toy_weights
    ):
        config = RunConfig(algorithm="gfp", alpha=0.2, tau0=0.01)
        report = run_check(config, simple_game, [toy_weights])
        payload = report_to_json(report, simple_game)
        schema = json.loads(SCHEMA_PATH.read_text())
        jsonschema.validate(payload, schema)

    def test_table_derived_from_same_payload(self, simple_game, toy_weights):
        config = RunConfig(algorithm="fp", tau0=0.01)
        report = run_check(config, simple_game, [toy_weights])
        payload = report_to_json(report, simple_game)
        table = render_table(payload)
        mean = payload["summary"]["convergence_probability"]["mean"]
        assert f"{mean:.4f}" in table
        assert str(payload["summary"]["runs"]) in table


def _no_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


class TestNonFiniteSettings:
    """inf or NaN in any float setting exits 2 before any run, whatever the
    algorithm, so no report carries an Infinity or NaN."""

    @pytest.mark.parametrize("options, error", [
        (["--tau0", "inf"], "tau0 must be finite, got inf"),
        (["--alpha", "nan", "--lambda0", "inf"],
         "alpha must be finite, got nan"),
        (["--lambda0", "inf"], "lambda0 must be finite, got inf"),
        (["--gamma=-inf"], "gamma must be finite, got -inf"),
    ])
    def test_check_exits_2(self, options, error, simple_game_file, tmp_path,
                           capsys):
        # fp uses none of the learner settings; they are rejected anyway.
        report = tmp_path / "r.json"
        code = main(["check", "--game", str(simple_game_file), "--algo",
                     "fp", "--random-inits", "1", *options,
                     "--json", str(report)])
        assert code == 2
        assert f"error: {error}" in capsys.readouterr().err
        assert not report.exists()

    def test_simulate_exits_2(self, simple_game_file, tmp_path, capsys):
        trace = tmp_path / "trace.csv"
        code = main(["simulate", "--game", str(simple_game_file), "--algo",
                     "fp", "--iterations", "5", "--tau0", "inf",
                     "--trace", str(trace)])
        assert code == 2
        assert "error: tau0 must be finite, got inf" \
            in capsys.readouterr().err
        assert not trace.exists()

    def test_written_report_is_strict_json(self, simple_game_file, tmp_path):
        report = tmp_path / "r.json"
        assert main(["check", "--game", str(simple_game_file), "--algo",
                     "afffp", "--random-inits", "2", "--tau0", "1.0",
                     "--json", str(report)]) == 0
        payload = json.loads(report.read_text(),
                             parse_constant=_no_constant)
        assert payload["config"]["tau0"] == 1.0

    def test_report_writer_refuses_non_finite_numbers(
        self, simple_game_file, tmp_path, monkeypatch, capsys
    ):
        # A NaN that got past the settings is an error line and exit 2,
        # not invalid JSON in the file.
        original = smcl.cli.report_to_json

        def with_nan(report, game):
            payload = original(report, game)
            payload["summary"]["convergence_probability"]["mean"] = \
                float("nan")
            return payload

        monkeypatch.setattr(smcl.cli, "report_to_json", with_nan)
        report = tmp_path / "r.json"
        code = main(["check", "--game", str(simple_game_file), "--algo",
                     "fp", "--random-inits", "1", "--json", str(report)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "not JSON compliant" in err
        assert not report.exists()


class TestCheckCommand:
    def test_fixed_init_run(
        self, simple_game_file, toy_weights_file, tmp_path, capsys
    ):
        json_out = tmp_path / "report.json"
        dot_out = tmp_path / "chain.dot"
        code = main([
            "check", "--game", str(simple_game_file), "--algo", "fp",
            "--weights", str(toy_weights_file),
            "--dot", str(dot_out), "--json", str(json_out),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "convergence prob." in out
        payload = json.loads(json_out.read_text())
        jsonschema.validate(payload, json.loads(SCHEMA_PATH.read_text()))
        assert payload["runs"][0]["states"] == 8
        assert dot_out.exists()

    @pytest.mark.parametrize("init, runs", [
        (None, 1), (["--random-inits", "3"], 3),
    ])
    def test_each_run_analysed_once_and_payload_built_once(
        self, init, runs, simple_game_file, toy_weights_file, tmp_path,
        monkeypatch,
    ):
        calls = Counter()

        def counted(name, original):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            return wrapper

        for module in (smcl.analysis, smcl.report, smcl.cli):
            for name in ("analyze", "report_to_json"):
                if hasattr(module, name):
                    monkeypatch.setattr(
                        module, name, counted(name, getattr(module, name))
                    )
        init = init or ["--weights", str(toy_weights_file)]
        assert main([
            "check", "--game", str(simple_game_file), "--algo", "fp",
            "--tau0", "1.0", *init, "--json", str(tmp_path / "r.json"),
            "--dot", str(tmp_path / "c.dot"),
        ]) == 0
        assert calls == {"analyze": runs, "report_to_json": 1}

    def test_dot_export_is_deterministic(
        self, simple_game_file, toy_weights_file, tmp_path
    ):
        outs = []
        for name in ("a.dot", "b.dot"):
            path = tmp_path / name
            assert main([
                "check", "--game", str(simple_game_file), "--algo", "fp",
                "--weights", str(toy_weights_file), "--dot", str(path),
            ]) == 0
            outs.append(path.read_bytes())
        assert outs[0] == outs[1]

    def test_dot_shapes(self, simple_game_file, toy_weights_file, tmp_path):
        path = tmp_path / "chain.dot"
        main([
            "check", "--game", str(simple_game_file), "--algo", "fp",
            "--weights", str(toy_weights_file), "--dot", str(path),
        ])
        text = path.read_text()
        assert "shape=ellipse" in text           # initial state
        assert "style=rounded" in text           # bottom components
        assert text.count("shape=box") >= 4
        assert "bottom" not in text              # no sink when not truncated

    def test_random_inits_batch(self, simple_game_file, tmp_path, capsys):
        json_out = tmp_path / "batch.json"
        code = main([
            "check", "--game", str(simple_game_file), "--algo", "fp",
            "--tau0", "1.0", "--random-inits", "10", "--seed", "7",
            "--json", str(json_out),
        ])
        assert code == 0
        payload = json.loads(json_out.read_text())
        assert payload["summary"]["runs"] == 10
        assert payload["summary"]["failed_runs"] == 0

    def test_no_merge_produces_pure_truncated_tree(
        self, simple_game_file, toy_weights_file, tmp_path
    ):
        # without merging nothing ever closes, so the expansion is a plain
        # tree whose entire mass drains into the truncation sink; the
        # merged run keeps the same branch probabilities (cross-checked
        # against merge-free playouts in the similarity tests)
        plain = tmp_path / "p.json"
        main([
            "check", "--game", str(simple_game_file), "--algo", "fp",
            "--weights", str(toy_weights_file), "--no-merge",
            "--max-depth", "12", "--json", str(plain),
        ])
        run = json.loads(plain.read_text())["runs"][0]
        assert run["truncated"]
        (sink,) = run["bsccs"]
        assert sink["classification"] == "Truncation"
        assert sink["reach_probability"] == pytest.approx(1.0, abs=1e-9)
        # binary-tree-like growth: 4 first-level branches, one child each
        assert run["states"] > 12

    def test_failing_run_sets_exit_code(
        self, simple_game_file, toy_weights_file, capsys
    ):
        code = main([
            "check", "--game", str(simple_game_file), "--algo", "fp",
            "--weights", str(toy_weights_file), "--no-merge",
            "--state-cap", "10",
        ])
        assert code == 1
        assert "failed" in capsys.readouterr().err

    def test_bad_game_file_exit_code(self, tmp_path, capsys):
        path = tmp_path / "broken.game"
        path.write_text("players 2\nactions 2 2\nrewards\n0 0 1 1\n")
        code = main([
            "check", "--game", str(path), "--algo", "fp",
            "--random-inits", "1",
        ])
        assert code == 2
        assert "missing joint actions" in capsys.readouterr().err


    def test_non_finite_reward_exit_code(self, tmp_path, capsys):
        path = tmp_path / "nan.game"
        path.write_text(
            "players 2\nactions 2 2\nrewards\n"
            "0 0 1 1\n0 1 0 nan\n1 0 0 0\n1 1 1 1\n"
        )
        code = main([
            "check", "--game", str(path), "--algo", "fp",
            "--random-inits", "1",
        ])
        assert code == 2
        assert "line 5" in capsys.readouterr().err

    def test_non_finite_weight_exit_code(self, simple_game_file, tmp_path,
                                         capsys):
        weights = tmp_path / "inf.weights"
        weights.write_text("weights 0 1\n1.0 inf\nweights 1 0\n1.0 1.0\n")
        code = main([
            "check", "--game", str(simple_game_file), "--algo", "fp",
            "--weights", str(weights),
        ])
        assert code == 2
        assert "line 2" in capsys.readouterr().err


    def test_non_finite_prob_floor_exit_code(self, simple_game_file,
                                             toy_weights_file, capsys):
        code = main([
            "check", "--game", str(simple_game_file), "--algo", "fp",
            "--weights", str(toy_weights_file), "--prob-floor", "nan",
        ])
        assert code == 2
        assert "prob_floor" in capsys.readouterr().err

    def test_zero_state_cap_rejected_before_any_run(
        self, simple_game_file, toy_weights_file, capsys
    ):
        code = main([
            "check", "--game", str(simple_game_file), "--algo", "fp",
            "--weights", str(toy_weights_file), "--state-cap", "0",
        ])
        assert code == 2
        assert "error: state_cap must be at least 1" \
            in capsys.readouterr().err

    def test_floor_above_every_first_step_fails_the_run(
        self, simple_game_file, toy_weights_file, capsys
    ):
        # Valid floor, but at tau0 = 1 every first-step branch lies below
        # it: the initial state keeps no transition and the run must fail.
        code = main([
            "check", "--game", str(simple_game_file), "--algo", "fp",
            "--weights", str(toy_weights_file), "--tau0", "1.0",
            "--prob-floor", "0.3",
        ])
        assert code == 1
        assert "state 0 has no transitions" in capsys.readouterr().err


    def test_non_finite_lambda_min_exit_code(self, simple_game_file,
                                             toy_weights_file, capsys):
        code = main([
            "check", "--game", str(simple_game_file), "--algo", "afffp",
            "--weights", str(toy_weights_file), "--lambda-min", "nan",
        ])
        assert code == 2
        assert "error: lambda_min must lie in (0, 1], got nan" \
            in capsys.readouterr().err

    def test_bad_alpha_rejected_before_any_run(self, simple_game_file,
                                               capsys):
        code = main([
            "check", "--game", str(simple_game_file), "--algo", "gfp",
            "--alpha", "2", "--random-inits", "3",
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "error: alpha must lie in (0, 1), got 2.0" in err
        assert "run 0 failed" not in err

    def test_negative_seed_rejected_before_any_run(self, simple_game_file,
                                                   tmp_path, capsys):
        report = tmp_path / "report.json"
        code = main([
            "check", "--game", str(simple_game_file), "--algo", "fp",
            "--random-inits", "2", "--seed", "-1", "--json", str(report),
        ])
        assert code == 2
        captured = capsys.readouterr()
        assert "error: --seed must be non-negative, got -1" in captured.err
        assert captured.out == ""
        assert not report.exists()


class TestSimulateCommand:
    def test_bad_alpha_exit_code(self, simple_game_file, tmp_path, capsys):
        trace = tmp_path / "trace.csv"
        code = main([
            "simulate", "--game", str(simple_game_file), "--algo", "gfp",
            "--alpha", "2", "--iterations", "5", "--trace", str(trace),
        ])
        assert code == 2
        assert "error: alpha must lie in (0, 1), got 2.0" \
            in capsys.readouterr().err
        assert not trace.exists()

    def test_non_finite_lambda_min_exit_code(self, simple_game_file,
                                             tmp_path, capsys):
        code = main([
            "simulate", "--game", str(simple_game_file), "--algo", "afffp",
            "--lambda-min", "nan", "--iterations", "5",
            "--trace", str(tmp_path / "trace.csv"),
        ])
        assert code == 2
        assert "lambda_min" in capsys.readouterr().err

    def test_nan_tau0_rejected_before_any_run(self, simple_game_file,
                                              tmp_path, capsys):
        trace = tmp_path / "trace.csv"
        code = main([
            "simulate", "--game", str(simple_game_file), "--algo", "fp",
            "--iterations", "5", "--tau0", "nan", "--trace", str(trace),
        ])
        assert code == 2
        assert "error: tau0 must be positive, got nan" \
            in capsys.readouterr().err
        assert not trace.exists()

    def test_zero_iterations_rejected_before_any_run(self, simple_game_file,
                                                     tmp_path, capsys):
        trace = tmp_path / "trace.csv"
        code = main([
            "simulate", "--game", str(simple_game_file), "--algo", "fp",
            "--iterations", "0", "--trace", str(trace),
        ])
        assert code == 2
        assert "error: --iterations must be at least 1, got 0" \
            in capsys.readouterr().err
        assert not trace.exists()

    def test_non_positive_runs_rejected_before_any_run(
        self, simple_game_file, tmp_path, capsys
    ):
        trace = tmp_path / "trace.csv"
        for runs in (0, -4):
            code = main([
                "simulate", "--game", str(simple_game_file), "--algo", "fp",
                "--iterations", "5", "--runs", str(runs),
                "--trace", str(trace),
            ])
            assert code == 2
            assert f"error: --runs must be at least 1, got {runs}" \
                in capsys.readouterr().err
            assert not trace.exists()

    def test_negative_seed_rejected_before_any_run(self, simple_game_file,
                                                   tmp_path, capsys):
        trace = tmp_path / "trace.csv"
        code = main([
            "simulate", "--game", str(simple_game_file), "--algo", "fp",
            "--iterations", "5", "--seed", "-3", "--trace", str(trace),
        ])
        assert code == 2
        assert "error: --seed must be non-negative, got -3" \
            in capsys.readouterr().err
        assert not trace.exists()

    def test_trace_and_batch_summary(
        self, simple_game_file, toy_weights_file, tmp_path, capsys
    ):
        trace = tmp_path / "trace.csv"
        code = main([
            "simulate", "--game", str(simple_game_file), "--algo", "fp",
            "--iterations", "30", "--runs", "500", "--seed", "4",
            "--weights", str(toy_weights_file), "--trace", str(trace),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "unresolved fraction" in out
        lines = trace.read_text().splitlines()
        assert lines[0] == "iter,action_0,action_1,reward_0,reward_1"
        assert len(lines) == 31

    def test_random_weights_default(self, simple_game_file, tmp_path):
        trace = tmp_path / "trace.csv"
        code = main([
            "simulate", "--game", str(simple_game_file), "--algo", "gfp",
            "--iterations", "5", "--seed", "9", "--trace", str(trace),
        ])
        assert code == 0
        assert trace.exists()


class TestCatalogCommand:
    def test_complex_game_written_with_parameters(self, tmp_path):
        out = tmp_path / "complex.game"
        code = main([
            "catalog", "complex", "--n", "3", "--delta", "0.1",
            "--out", str(out),
        ])
        assert code == 0
        from smcl.gamefile import parse_game

        game = parse_game(out)
        assert game.action_counts == (12, 12)

    @pytest.mark.parametrize("option, value, message", [
        ("--n", "1", "n must be at least 2"),
        ("--delta", "2", "delta must lie in (0, 1)"),
    ])
    def test_bad_complex_game_parameter_rejected(self, option, value,
                                                 message, tmp_path, capsys):
        out = tmp_path / "complex.game"
        code = main(["catalog", "complex", option, value, "--out", str(out)])
        assert code == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_shapley_round_trip_has_no_pure_nash(self, tmp_path):
        from smcl import is_pure_nash
        from smcl.gamefile import parse_game

        out = tmp_path / "shapley.game"
        assert main(["catalog", "shapley", "--out", str(out)]) == 0
        game = parse_game(out)
        assert all(
            not is_pure_nash(game, tuple(a)) for a in game.joint_actions()
        )
