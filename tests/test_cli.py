import json

import numpy as np
import pytest

from stochfeas import cli
from stochfeas import relaxation as rx
from stochfeas.block import UNIFORM_OVER_BATCH
from stochfeas.cli import (
    EXIT_CONFIG,
    EXIT_INVARIANT,
    EXIT_OK,
    RunConfig,
    _build_problem,
    _solver_config,
    main,
    parse_and_validate,
    parse_relaxation_shorthand,
)
from stochfeas.exceptions import ConfigurationError, InvariantViolationError
from stochfeas.experiments import run_experiment
from stochfeas.trace import read_trace_csv

from conftest import timing_free_text


class TestParsing:
    def test_signal_example(self):
        cfg = parse_and_validate(
            ["signal", "--M", "16", "--relaxation", "uniform:1.5:2.3", "--seed", "7"])
        assert cfg.command == "signal" and cfg.M == 16 and cfg.seed == 7
        (label, strategy), = cfg.strategies.items()
        assert isinstance(strategy, rx.UniformInterval)
        assert strategy.lo == 1.5 and strategy.hi == 2.3

    def test_shorthand_grammar(self):
        assert isinstance(parse_relaxation_shorthand("const:1.9"), rx.Constant)
        tp = parse_relaxation_shorthand("two_point:2.3:0.5:1.5")
        assert (tp.value_a, tp.prob_a, tp.value_b) == (2.3, 0.5, 1.5)
        with pytest.raises(ConfigurationError):
            parse_relaxation_shorthand("gauss:1.0")
        with pytest.raises(ConfigurationError):
            parse_relaxation_shorthand("uniform:2.3:1.5")
        # the fields are checked like the tagged form's
        with pytest.raises(ConfigurationError, match="field 'value' must be a finite number"):
            parse_relaxation_shorthand("const:nan")

    def test_negative_damping_rejected_with_value_in_message(self):
        with pytest.raises(ConfigurationError) as err:
            parse_and_validate(["signal", "--relaxation", "const:2.5"])
        assert "-1.25" in str(err.value)

    def test_nu_hypothesis_rejected(self, tmp_path):
        code = main(["sgd", "--nu", "0.5", "--output-dir", str(tmp_path)])
        assert code == EXIT_CONFIG

    def test_default_strategies_are_the_four_canonical(self):
        cfg = parse_and_validate(["signal"])
        assert set(cfg.strategies) == {"const1", "const1.9", "twopoint", "uniform"}

    def test_config_file_with_flag_override(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"seed": 3, "M": 4, "relaxation": "const:1.9"}))
        cfg = parse_and_validate(["signal", "--config", str(path), "--seed", "9"])
        assert cfg.seed == 9 and cfg.M == 4  # flag wins over file

    def test_unknown_config_keys_listed(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"seeds": 3}))
        with pytest.raises(ConfigurationError) as err:
            parse_and_validate(["toy", "--config", str(path)])
        assert "seeds" in str(err.value) and "seed" in str(err.value)

    def test_run_config_checks_itself(self):
        with pytest.raises(ConfigurationError, match="M must be >= 1"):
            RunConfig(command="signal", M=0)
        cfg = RunConfig(command="signal", M=4)
        assert cfg.delta == 0.125 and len(cfg.strategies) == 4

    def test_config_file_for_another_command_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"command": "signal", "seed": 3}))
        with pytest.raises(ConfigurationError,
                           match="config file is for command 'signal', invoked 'toy'"):
            parse_and_validate(["toy", "--config", str(path)])

    def test_zero_batch_size_rejected(self, tmp_path, capsys):
        code = main(["signal", "--M", "0", "--output-dir", str(tmp_path)])
        assert code == EXIT_CONFIG
        assert "M must be >= 1" in json.loads(capsys.readouterr().err)["message"]

    @pytest.mark.parametrize("seed", [-1, 2 ** 64])
    def test_seed_outside_the_64_bit_range_rejected(self, tmp_path, capsys, seed):
        # run seeds are derived from the seed modulo 2^64: -1 would run as 2^64 - 1
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"seed": seed}))
        for argv in (["--seed", str(seed)], ["--config", str(path)]):
            code = main(["toy", *argv, "--output-dir", str(tmp_path / "out")])
            assert code == EXIT_CONFIG
            message = json.loads(capsys.readouterr().err)["message"]
            assert message == f"seed must lie in [0, 2^64), got {seed}"
        assert not (tmp_path / "out").exists()
        assert parse_and_validate(["toy", "--seed", str(2 ** 64 - 1)]).seed == 2 ** 64 - 1

    @pytest.mark.parametrize("key, value", [
        ("iters", "100"),            # wrong type
        ("scale", "huge"),           # not one of the choices
        ("weight_rule", "largest"),  # not one of the choices
        ("dump_records", 1),         # an integer is not a boolean
        pytest.param("delta", 10 ** 400, id="delta-beyond-float"),
    ])
    def test_bad_config_file_value_names_the_key(self, tmp_path, capsys, key, value):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({key: value}))
        code = main(["signal", "--config", str(path), "--output-dir", str(tmp_path / "out")])
        assert code == EXIT_CONFIG
        assert repr(key) in json.loads(capsys.readouterr().err)["message"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv", [
        ["sgd", "--relaxation", "const:9"],
        ["sgd", "--M", "3"],
        ["sgd", "--dump-records"],
        ["sgd", "--scale", "paper"],
        ["km", "--weight-rule", "uniform_over_batch"],
        ["km", "--dump-records"],
        ["km", "--M", "0"],
        ["toy", "--scale", "desk"],
        ["toy", "--noise-c", "1.0"],
        ["signal", "--nu", "0.8"],
    ])
    def test_flag_the_command_does_not_read_rejected(self, argv):
        with pytest.raises(ConfigurationError):
            parse_and_validate(argv)

    @pytest.mark.parametrize("argv, fragment", [
        (["sgd", "--M", "3"], "unrecognized arguments: --M 3"),
        (["signal", "--scale", "huge"], "argument --scale: invalid choice: 'huge'"),
        (["km", "--seed", "x"], "argument --seed: invalid int value: 'x'"),
        (["toy", "--repeats", "0"], "repeats must be >= 1"),
        (["toy", "--iters", "0"], "iters must be >= 1"),
        (["km", "--noise-c", "1"], "noise_c and noise_q must be given together"),
    ])
    def test_usage_error_is_a_config_rejection(self, tmp_path, capsys, argv, fragment):
        code = main(argv + ["--output-dir", str(tmp_path / "out")])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        line = json.loads(err)
        assert line["error"] == "config" and fragment in line["message"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("under", [False, True], ids=["file", "path-under-file"])
    def test_output_dir_on_a_file_is_a_config_rejection(self, tmp_path, capsys, under):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        out = blocker / "out" if under else blocker
        code = main(["toy", "--iters", "5", "--output-dir", str(out)])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert json.loads(err)["error"] == "config"
        assert blocker.read_text() == ""

    def test_help_still_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            parse_and_validate(["signal", "--help"])
        assert exc.value.code == 0
        assert "--scale" in capsys.readouterr().out

    @pytest.mark.parametrize("command, key, value", [
        ("sgd", "relaxation", "const:0.5"),
        ("sgd", "M", 3),
        ("km", "dump_records", True),
        ("km", "weight_rule", UNIFORM_OVER_BATCH),
        ("toy", "scale", "desk"),
        ("image", "noise_q", 1.5),
    ])
    def test_config_key_the_command_does_not_read_rejected(self, tmp_path, capsys,
                                                           command, key, value):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({key: value}))
        code = main([command, "--config", str(path), "--output-dir", str(tmp_path / "out")])
        assert code == EXIT_CONFIG
        message = json.loads(capsys.readouterr().err)["message"]
        assert f"[{key!r}] are not read by command {command!r}" in message
        assert not (tmp_path / "out").exists()

    def test_config_file_must_hold_an_object(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("[3]")
        with pytest.raises(ConfigurationError, match="JSON object"):
            parse_and_validate(["toy", "--config", str(path)])

    def test_config_file_integer_for_float_key(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"M": 2, "delta": 0}))
        with pytest.raises(ConfigurationError, match="delta in"):
            parse_and_validate(["signal", "--config", str(path)])
        path.write_text(json.dumps({"nu": 1}))
        cfg = parse_and_validate(["sgd", "--config", str(path)])
        assert cfg.nu == 1.0 and isinstance(cfg.nu, float)

    def test_paper_scale_problem_sizes(self):
        signal, _ = _build_problem(parse_and_validate(["signal", "--scale", "paper"]))
        assert (signal.n, signal.p) == (1024, 20)
        image, _ = _build_problem(parse_and_validate(["image", "--scale", "paper"]))
        assert image.n == 256


class TestToyCommand:
    def test_toy_run_succeeds_with_zero_violations(self, tmp_path):
        code = main(["toy", "--seed", "1", "--output-dir", str(tmp_path)])
        assert code == EXIT_OK
        payload = json.load(open(tmp_path / "summary.json"))
        (run,) = payload["runs"]
        assert run["invariant_violations"] == 0
        assert run["final_residual"] < 1e-10

    def test_trace_csv_round_trips(self, tmp_path):
        main(["toy", "--seed", "2", "--output-dir", str(tmp_path)])
        csvs = sorted(tmp_path.glob("toy_*.csv"))
        assert csvs
        trace = read_trace_csv(csvs[0])
        assert len(trace) > 0
        assert "stop_reason" in trace.footer

    def test_float_round_trip_17_digits(self, tmp_path):
        main(["toy", "--seed", "3", "--relaxation", "uniform:1.5:2.3",
              "--output-dir", str(tmp_path)])
        csvs = sorted(tmp_path.glob("toy_*.csv"))
        trace = read_trace_csv(csvs[0])
        from stochfeas.trace import format_float
        for lam in trace.columns["lambda"]:
            assert float(format_float(lam)) == lam


class TestDeterminism:
    def test_identical_invocations_byte_identical_modulo_elapsed(self, tmp_path):
        args = ["toy", "--seed", "5", "--relaxation", "two_point:2.3:0.5:1.5",
                "--iters", "50"]
        d1, d2 = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--output-dir", str(d1)]) == EXIT_OK
        assert main(args + ["--output-dir", str(d2)]) == EXIT_OK
        names = sorted(p.name for p in d1.iterdir())
        assert names == sorted(p.name for p in d2.iterdir())
        for name in names:
            assert timing_free_text(d1 / name) == timing_free_text(d2 / name)


class TestArtifactLayout:
    def test_signal_file_count(self, tmp_path):
        # repeats=2, 4 strategies: (2 + 1) * 4 csv files plus summary.json
        code = main(["signal", "--iters", "40", "--repeats", "2", "--M", "2",
                     "--seed", "13", "--output-dir", str(tmp_path)])
        assert code == EXIT_OK
        per_run = list(tmp_path.glob("signal_*_*.csv"))
        averaged = list(tmp_path.glob("signal_*_avg.csv"))
        assert len(averaged) == 4
        assert len(per_run) - len(averaged) == 8
        assert (tmp_path / "summary.json").exists()

    def test_summary_sorted_by_strategy_then_seed(self, tmp_path):
        main(["signal", "--iters", "30", "--repeats", "2", "--M", "2",
              "--seed", "17", "--output-dir", str(tmp_path)])
        payload = json.load(open(tmp_path / "summary.json"))
        keys = [(r["strategy"], r["seed"]) for r in payload["runs"]]
        assert keys == sorted(keys)

    def test_final_norm_err_db_is_the_final_iterates(self, tmp_path):
        """An experiment run reports the dB of x_N, not of the last recorded row."""
        argv = ["signal", "--scale", "desk", "--M", "4", "--iters", "60", "--repeats", "2",
                "--seed", "3"]
        assert main(argv + ["--output-dir", str(tmp_path)]) == EXIT_OK
        runs = json.load(open(tmp_path / "summary.json"))["runs"]
        cfg = parse_and_validate(argv)
        problem, family = _build_problem(cfg)
        x0 = np.zeros(problem.ground_truth.size)
        expected = {}
        for label, strategy in cfg.strategies.items():
            result = run_experiment(problem, family, _solver_config(cfg, strategy, cfg.seed),
                                    label, repeats=2)
            for seed, ref, res in zip(result.seeds, result.references, result.results):
                expected[label, seed] = float(20.0 * np.log10(
                    np.linalg.norm(res.final - ref) / np.linalg.norm(x0 - ref)))
        assert {(r["strategy"], r["seed"]): r["final_norm_err_db"] for r in runs} == expected
        for r in runs:   # the value the trace footer holds, written to round-trip
            footer = read_trace_csv(tmp_path / f"signal_{r['strategy']}_{r['seed']}.csv").footer
            assert float(footer["final_norm_err_db"]) == r["final_norm_err_db"]

    def test_dump_records_writes_jsonl(self, tmp_path):
        code = main(["toy", "--seed", "5", "--iters", "20", "--dump-records",
                     "--output-dir", str(tmp_path)])
        assert code == EXIT_OK
        (records,) = sorted(tmp_path.glob("toy_*_records.jsonl"))
        lines = records.read_text().strip().splitlines()
        rec = json.loads(lines[0])
        assert {"iter", "indices", "weights", "L", "lambda"} <= set(rec)


class TestKmSgdCommands:
    def test_km_rotation(self, tmp_path):
        code = main(["km", "--seed", "4", "--iters", "300",
                     "--output-dir", str(tmp_path)])
        assert code == EXIT_OK
        payload = json.load(open(tmp_path / "summary.json"))
        assert payload["runs"][0]["final_residual"] < 1e-6

    def test_km_rejects_bad_mu(self, tmp_path):
        code = main(["km", "--relaxation", "const:1.5", "--output-dir", str(tmp_path)])
        assert code == EXIT_CONFIG
        # mu_n = 1 is outside ]0, 1[: rejected before any trace is written
        code = main(["km", "--relaxation", "const:1.0", "--output-dir", str(tmp_path / "out")])
        assert code == EXIT_CONFIG
        assert not (tmp_path / "out").exists()

    def test_km_noise_bound_below_every_float(self, tmp_path):
        # (n + 1)^q overflows from n = 1: the error bound c / (n + 1)^q is zero
        code = main(["km", "--noise-c", "1", "--noise-q", "1e308", "--iters", "50",
                     "--output-dir", str(tmp_path)])
        assert code == EXIT_OK
        (run,) = json.load(open(tmp_path / "summary.json"))["runs"]
        assert run["iterations_run"] == 50

    def test_sgd_small_run(self, tmp_path):
        code = main(["sgd", "--iters", "2000", "--seed", "6",
                     "--output-dir", str(tmp_path)])
        assert code == EXIT_OK
        csvs = list(tmp_path.glob("sgd_*.csv"))
        assert len(csvs) == 1


class TestExitCodes:
    def test_invariant_violation_exits_4(self, tmp_path, capsys, monkeypatch):
        def violated(*args, **kwargs):
            raise InvariantViolationError("iterate left the audit's bound")

        monkeypatch.setattr(cli, "run_block", violated)
        code = main(["toy", "--iters", "5", "--output-dir", str(tmp_path)])
        assert code == EXIT_INVARIANT
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert json.loads(err) == {"error": "invariant",
                                   "message": "iterate left the audit's bound"}

    def test_fejer_violation_exits_4_with_a_summary(self, tmp_path, monkeypatch):
        # (5, 5) lies outside the solution set: the run moves away from it
        family, x0, _ = cli._toy_problem()
        monkeypatch.setattr(cli, "_toy_problem", lambda: (family, x0, [np.array([5.0, 5.0])]))
        code = main(["toy", "--iters", "20", "--output-dir", str(tmp_path)])
        assert code == EXIT_INVARIANT
        (run,) = json.load(open(tmp_path / "summary.json"))["runs"]
        assert run["invariant_violations"] > 0 and run["worst_violation"] > 0.0

    def test_numeric_failure_exits_3(self, tmp_path):
        # a huge beta makes the first SGD step hit the divergence guard
        code = main(["sgd", "--beta", "1e12", "--iters", "50", "--seed", "2",
                     "--output-dir", str(tmp_path)])
        assert code == 3

    def test_averaged_csv_schema(self, tmp_path):
        main(["signal", "--iters", "30", "--repeats", "2", "--M", "2",
              "--seed", "23", "--output-dir", str(tmp_path)])
        avg = sorted(tmp_path.glob("signal_*_avg.csv"))[0]
        header = avg.read_text().splitlines()[0]
        assert header == "iter,elapsed_s,residual,norm_err_db,lambda,extrapolation,db_min,db_max"


class TestConfigFileRelaxationForms:
    def test_tagged_object_form(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "relaxation": {"kind": "two_point", "a": 2.3, "p_a": 0.5, "b": 1.5},
            "M": 2,
        }))
        cfg = parse_and_validate(["signal", "--config", str(cfg_path)])
        (label, strategy), = cfg.strategies.items()
        assert isinstance(strategy, rx.TwoPoint)
        assert strategy.prob_a == 0.5

    def test_bad_tagged_object_rejected(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"relaxation": {"kind": "nope"}}))
        with pytest.raises(ConfigurationError):
            parse_and_validate(["signal", "--config", str(cfg_path)])

    @pytest.mark.parametrize("relaxation, field", [
        ({"kind": "constant", "value": "abc"}, "value"),
        ({"kind": "constant", "value": None}, "value"),
        ({"kind": "constant", "value": True}, "value"),
        ({"kind": "uniform", "lo": 1.5, "hi": 2.3, "typo": 9}, "typo"),
        ({"kind": "uniform", "lo": 1.5, "hi": 2.3, "cap": None}, "cap"),
        ({"kind": "two_point", "a": 2.3, "p_a": 0.5}, "b"),
        ({"kind": "constant", "value": 1.9, "cap": float("nan")}, "cap"),
        ({"kind": "constant", "value": 1.9, "cap": 10 ** 400}, "cap"),
    ], ids=["string", "null", "boolean", "unknown-field", "null-cap", "missing-field",
            "nan-cap", "huge-cap"])
    def test_bad_tagged_field_is_a_config_rejection(self, tmp_path, capsys, relaxation, field):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"relaxation": relaxation}))
        code = main(["signal", "--config", str(path), "--output-dir", str(tmp_path / "out")])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert repr(field) in json.loads(err)["message"]
        assert not (tmp_path / "out").exists()

    def test_dump_records_for_experiment_command(self, tmp_path):
        code = main(["signal", "--iters", "25", "--repeats", "1", "--M", "2",
                     "--seed", "29", "--relaxation", "const:1.9",
                     "--dump-records", "--output-dir", str(tmp_path)])
        assert code == 0
        records = sorted(tmp_path.glob("signal_*_records.jsonl"))
        assert len(records) == 1
        assert len(records[0].read_text().strip().splitlines()) == 25
