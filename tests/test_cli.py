import json

import numpy as np
import pytest

from stochfeas import relaxation as rx
from stochfeas.block import UNIFORM_OVER_BATCH
from stochfeas.cli import (
    EXIT_CONFIG,
    EXIT_OK,
    _build_problem,
    _solver_config,
    main,
    parse_and_validate,
    parse_relaxation_shorthand,
)
from stochfeas.diagnostics import normalized_error_db
from stochfeas.exceptions import ConfigurationError
from stochfeas.experiments import run_experiment
from stochfeas.trace import read_trace_csv


def strip_timing(csv_path):
    """CSV bytes with the elapsed column removed (timing is not deterministic)."""
    out = []
    with open(csv_path) as fh:
        for line in fh:
            if line.startswith("#"):
                out.append(line)
                continue
            parts = line.rstrip("\n").split(",")
            del parts[1]
            out.append(",".join(parts) + "\n")
    return "".join(out)


def summary_without_timing(path):
    with open(path) as fh:
        payload = json.load(fh)
    for run in payload["runs"]:
        run.pop("wall_clock_s", None)
    return payload


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

    def test_zero_batch_size_rejected(self, tmp_path, capsys):
        code = main(["signal", "--M", "0", "--output-dir", str(tmp_path)])
        assert code == EXIT_CONFIG
        assert "M must be >= 1" in json.loads(capsys.readouterr().err)["message"]

    @pytest.mark.parametrize("key, value", [
        ("iters", "100"),            # wrong type
        ("scale", "huge"),           # not one of the choices
        ("weight_rule", "largest"),  # not one of the choices
        ("dump_records", 1),         # an integer is not a boolean
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
    ])
    def test_usage_error_is_a_config_rejection(self, tmp_path, capsys, argv, fragment):
        code = main(argv + ["--output-dir", str(tmp_path / "out")])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        line = json.loads(err)
        assert line["error"] == "config" and fragment in line["message"]
        assert not (tmp_path / "out").exists()

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
        for row in trace.rows:
            assert float(format_float(row.lam)) == row.lam


class TestDeterminism:
    def test_identical_invocations_byte_identical_modulo_elapsed(self, tmp_path):
        args = ["toy", "--seed", "5", "--relaxation", "two_point:2.3:0.5:1.5",
                "--iters", "50"]
        d1, d2 = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--output-dir", str(d1)]) == EXIT_OK
        assert main(args + ["--output-dir", str(d2)]) == EXIT_OK
        f1 = sorted(p.name for p in d1.glob("*.csv"))
        f2 = sorted(p.name for p in d2.glob("*.csv"))
        assert f1 == f2
        for name in f1:
            assert strip_timing(d1 / name) == strip_timing(d2 / name)
        assert summary_without_timing(d1 / "summary.json") == \
            summary_without_timing(d2 / "summary.json")


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
                expected[label, seed] = normalized_error_db(res.final, x0, ref)
        assert {(r["strategy"], r["seed"]): r["final_norm_err_db"] for r in runs} == expected

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

    def test_sgd_small_run(self, tmp_path):
        code = main(["sgd", "--iters", "2000", "--seed", "6",
                     "--output-dir", str(tmp_path)])
        assert code == EXIT_OK
        csvs = list(tmp_path.glob("sgd_*.csv"))
        assert len(csvs) == 1


class TestExitCodes:
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
    ], ids=["string", "null", "boolean", "unknown-field", "null-cap", "missing-field"])
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
