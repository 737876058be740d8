"""Command line front end.

Commands: toy | km | sgd | signal | image.  Each command validates its
configuration against the hypotheses of the target method before running
and names the first violated one on rejection.  Per-run traces go to
``<output_dir>/<command>_<strategy>_<seed>.csv``, averaged traces to
``<command>_<strategy>_avg.csv``, and a run summary array to
``summary.json``.

Exit codes: 0 success, 2 config rejection, 3 numeric failure, 4 invariant
violation.  ``STOCHFEAS_THREADS`` caps the worker threads used to dispatch
independent (strategy, seed) runs; artifacts are byte-identical for any
setting apart from the elapsed-time columns.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from . import relaxation as rx
from .block import MAX_RESIDUAL_CONCENTRATED, UNIFORM_OVER_BATCH, BlockConfig, run_block
from .diagnostics import RunSummary, normalized_error_db
from .exceptions import (
    ConfigurationError,
    InvariantViolationError,
    NumericError,
    UsageError,
)
from .experiments import (
    DESK_IMAGE_FOURIER_WEIGHT,
    ExperimentResult,
    canonical_strategies,
    desk_image_problem,
    desk_signal_problem,
    generate_image_problem,
    generate_signal_problem,
    run_experiment,
)
from .fixedpoint import DecayingNoise, KmConfig, SgdConfig, quadratic_family, run_km, run_sgd
from .operators import OperatorFamily, halfspace_projector
from .rngstreams import derive_seed

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_INVARIANT = 4

_COMMANDS = ("toy", "km", "sgd", "signal", "image")
_CONFIG_KEYS = {
    "command", "seed", "M", "delta", "relaxation", "iters", "repeats",
    "output_dir", "scale", "nu", "beta", "weight_rule", "noise_c", "noise_q",
    "dump_records",
}

_DEFAULT_M = {"toy": 2, "km": 1, "sgd": 1, "signal": 16, "image": 2}
_DEFAULT_ITERS = {"toy": 200, "km": 2000, "sgd": 100_000, "signal": 4000, "image": 20_000}
_SCALES = {
    "signal": {"paper": dict(n=1024, p=20)},
    "image": {"paper": dict(n=256)},
}


@dataclass
class RunConfig:
    command: str
    seed: int = 0
    M: int = 1
    delta: float = 0.25
    relaxation: Optional[object] = None
    iters: int = 1000
    repeats: int = 1
    output_dir: str = "runs"
    scale: str = "desk"
    nu: float = 0.75
    beta: float = 1.0
    weight_rule: str = UNIFORM_OVER_BATCH
    noise_c: Optional[float] = None
    noise_q: Optional[float] = None
    dump_records: bool = False
    strategies: dict = field(default_factory=dict)


def parse_relaxation_shorthand(spec: str) -> rx.RelaxationStrategy:
    """Grammar: const:<v> | two_point:<a>:<pa>:<b> | uniform:<lo>:<hi>."""
    parts = spec.split(":")
    try:
        if parts[0] == "const" and len(parts) == 2:
            return rx.Constant(float(parts[1]))
        if parts[0] == "two_point" and len(parts) == 4:
            return rx.TwoPoint(float(parts[1]), float(parts[2]), float(parts[3]))
        if parts[0] == "uniform" and len(parts) == 3:
            return rx.UniformInterval(float(parts[1]), float(parts[2]))
    except (ValueError, UsageError) as exc:
        raise ConfigurationError(f"bad relaxation shorthand {spec!r}: {exc}") from exc
    raise ConfigurationError(
        f"bad relaxation shorthand {spec!r}; expected const:<v>, "
        "two_point:<a>:<pa>:<b>, or uniform:<lo>:<hi>"
    )


def _parse_relaxation(value) -> rx.RelaxationStrategy:
    """Flags use the shorthand grammar; config files may also use the tagged
    object form, e.g. {"kind": "two_point", "a": 2.3, "p_a": 0.5, "b": 1.5}."""
    if isinstance(value, str):
        return parse_relaxation_shorthand(value)
    if isinstance(value, dict):
        try:
            return rx.strategy_from_config(value)
        except UsageError as exc:
            raise ConfigurationError(str(exc)) from exc
    raise ConfigurationError(f"relaxation must be a shorthand string or tagged object, "
                             f"got {type(value).__name__}")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="stochfeas")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", type=str, default=None, help="JSON config file")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--M", type=int, default=None)
        p.add_argument("--delta", type=float, default=None)
        p.add_argument("--relaxation", type=str, default=None)
        p.add_argument("--iters", type=int, default=None)
        p.add_argument("--repeats", type=int, default=None)
        p.add_argument("--output-dir", dest="output_dir", type=str, default=None)
        p.add_argument("--scale", type=str, default=None, choices=("desk", "paper"))
        p.add_argument("--weight-rule", dest="weight_rule", type=str, default=None,
                       choices=(UNIFORM_OVER_BATCH, MAX_RESIDUAL_CONCENTRATED))
        p.add_argument("--dump-records", dest="dump_records", action="store_const",
                       const=True, default=None)
        if name == "sgd":
            p.add_argument("--nu", type=float, default=None)
            p.add_argument("--beta", type=float, default=None)
        if name == "km":
            p.add_argument("--noise-c", dest="noise_c", type=float, default=None)
            p.add_argument("--noise-q", dest="noise_q", type=float, default=None)
    return parser


def parse_and_validate(argv) -> RunConfig:
    """Parse flags (over an optional JSON config file) into a validated RunConfig.

    Precedence: command-line flags override config-file values, which
    override per-command defaults.
    """
    args = _build_parser().parse_args(argv)
    command = args.command
    values = {"command": command, "M": _DEFAULT_M[command], "iters": _DEFAULT_ITERS[command]}
    if args.config:
        with open(args.config) as fh:
            file_cfg = json.load(fh)
        unknown = set(file_cfg) - _CONFIG_KEYS
        if unknown:
            raise ConfigurationError(
                f"unknown config keys {sorted(unknown)}; valid keys: {sorted(_CONFIG_KEYS)}"
            )
        if file_cfg.get("command", command) != command:
            raise ConfigurationError(
                f"config file is for command {file_cfg['command']!r}, invoked {command!r}"
            )
        values.update(file_cfg)
    for key in ("seed", "M", "delta", "relaxation", "iters", "repeats", "scale",
                "nu", "beta", "noise_c", "noise_q", "dump_records", "output_dir",
                "weight_rule"):
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = flag
    if "delta" not in values:
        values["delta"] = 0.5 / values["M"]
    cfg = RunConfig(**{k: v for k, v in values.items()
                       if k in RunConfig.__dataclass_fields__})
    _validate(cfg)
    return cfg


def _validate(cfg: RunConfig) -> None:
    if cfg.repeats < 1:
        raise ConfigurationError("repeats must be >= 1")
    if cfg.iters < 1:
        raise ConfigurationError("iters must be >= 1")

    if cfg.command == "sgd":
        # constructor raises on hypothesis violations, e.g. "nu in ]2/3, 1]"
        SgdConfig(beta=cfg.beta, nu=cfg.nu, max_iters=cfg.iters, seed=cfg.seed,
                  gradient_family=_sgd_family())
        cfg.strategies = {}
        return

    if cfg.command == "km":
        strategy = _parse_relaxation(cfg.relaxation or "const:0.5")
        kwargs = {}
        if cfg.noise_c is not None or cfg.noise_q is not None:
            if cfg.noise_c is None or cfg.noise_q is None:
                raise ConfigurationError("noise_c and noise_q must be given together")
            kwargs["error_schedule"] = DecayingNoise(cfg.noise_c, cfg.noise_q)
        km = KmConfig(mu_strategy=strategy, max_iters=cfg.iters, seed=cfg.seed, **kwargs)
        km.validate_plain()
        cfg.strategies = {rx.strategy_label(strategy): strategy}
        return

    # block-based commands: toy, signal, image
    if cfg.relaxation is None:
        cfg.strategies = dict(canonical_strategies()) if cfg.command != "toy" \
            else {"const1": rx.Constant(1.0)}
    else:
        strategy = _parse_relaxation(cfg.relaxation)
        cfg.strategies = {rx.strategy_label(strategy): strategy}
    # constructing a BlockConfig validates M, delta, and the relaxation jointly
    BlockConfig(batch_size=cfg.M, delta=cfg.delta,
                relaxation=next(iter(cfg.strategies.values())),
                max_iters=cfg.iters, seed=cfg.seed, weight_rule=cfg.weight_rule)


def _sgd_family():
    rng = np.random.default_rng(20240817)
    center = rng.uniform(-1.0, 1.0, size=8)
    offsets = rng.uniform(-0.25, 0.25, size=(10, 8))
    return quadratic_family(center, offsets)


def _worker_count() -> int:
    env = os.environ.get("STOCHFEAS_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise ConfigurationError(f"STOCHFEAS_THREADS must be an integer, got {env!r}")
    return 1


def _toy_problem():
    """Two half-spaces x1 <= 0 and x2 <= 0 in R^2; the solution set is the
    nonpositive quadrant and the limit from (1, 1) is the origin."""
    family = OperatorFamily([
        halfspace_projector(np.array([1.0, 0.0]), 0.0),
        halfspace_projector(np.array([0.0, 1.0]), 0.0),
    ])
    zs = [np.zeros(2), np.array([-0.5, 0.0]), np.array([0.0, -0.5]),
          np.array([-1.0, -1.0]), np.array([-0.25, -0.75])]
    return family, np.array([1.0, 1.0]), zs


def _run_toy(cfg: RunConfig, label: str, strategy, seed: int):
    family, x0, zs = _toy_problem()
    bc = BlockConfig(batch_size=cfg.M, delta=cfg.delta, relaxation=strategy,
                     max_iters=cfg.iters, seed=seed, weight_rule=cfg.weight_rule,
                     collect_records=cfg.dump_records)
    start = time.perf_counter()
    res = run_block(family, bc, x0, reference_solution=np.zeros(2), fejer_points=zs)
    wall = time.perf_counter() - start
    summary = RunSummary(
        seed=seed, iterations_run=int(res.trace.footer["iterations_run"]),
        final_residual=res.trace.final_residual(),
        final_norm_err_db=normalized_error_db(res.final, x0, np.zeros(2)),
        invariant_violations=res.fejer_violations,
        worst_violation=res.worst_fejer_violation,
        wall_clock=wall, stop_reason=res.trace.footer["stop_reason"],
        strategy=label, command="toy",
    )
    return res.trace, summary, res.records


def _run_km_cmd(cfg: RunConfig, label: str, strategy, seed: int):
    rot = np.array([[0.0, -1.0], [1.0, 0.0]])
    kwargs = {}
    if cfg.noise_c is not None and cfg.noise_q is not None:
        kwargs["error_schedule"] = DecayingNoise(cfg.noise_c, cfg.noise_q)
    km = KmConfig(mu_strategy=strategy, max_iters=cfg.iters, seed=seed,
                  atol=1e-12, **kwargs)
    start = time.perf_counter()
    final, trace = run_km(lambda x: rot @ x, km, np.array([1.0, 0.0]))
    wall = time.perf_counter() - start
    summary = RunSummary(
        seed=seed, iterations_run=int(trace.footer["iterations_run"]),
        final_residual=trace.final_residual(), final_norm_err_db=None,
        invariant_violations=0, worst_violation=0.0, wall_clock=wall,
        stop_reason=trace.footer["stop_reason"], strategy=label, command="km",
    )
    return trace, summary, None


def _run_sgd_cmd(cfg: RunConfig, seed: int):
    sc = SgdConfig(beta=cfg.beta, nu=cfg.nu, max_iters=cfg.iters, seed=seed,
                   gradient_family=_sgd_family(),
                   record_every=max(1, cfg.iters // 2000))
    start = time.perf_counter()
    final, trace = run_sgd(sc, np.zeros(8))
    wall = time.perf_counter() - start
    summary = RunSummary(
        seed=seed, iterations_run=int(trace.footer["iterations_run"]),
        final_residual=trace.final_residual(), final_norm_err_db=None,
        invariant_violations=0, worst_violation=0.0, wall_clock=wall,
        stop_reason=trace.footer["stop_reason"], strategy=f"nu{cfg.nu:g}", command="sgd",
    )
    return trace, summary, None


def _experiment_summaries(cfg: RunConfig, label: str, result: ExperimentResult, wall: float):
    out = []
    for i, seed in enumerate(result.seeds):
        trace = result.traces[i]
        db = trace.db_column()
        res = result.results[i]
        out.append(RunSummary(
            seed=seed, iterations_run=int(trace.footer["iterations_run"]),
            final_residual=trace.final_residual(),
            final_norm_err_db=None if db is None else float(db[-1]),
            invariant_violations=res.fejer_violations,
            worst_violation=res.worst_fejer_violation,
            wall_clock=wall / max(1, len(result.seeds)),
            stop_reason=trace.footer["stop_reason"], strategy=label, command=cfg.command,
        ))
    return out


def execute(cfg: RunConfig) -> int:
    """Run the configured command, write artifacts, and return the exit code."""
    out_dir = Path(cfg.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    summaries = []

    try:
        workers = _worker_count()

        def dispatch(jobs):
            if workers == 1 or len(jobs) <= 1:
                return [job() for job in jobs]
            with ThreadPoolExecutor(max_workers=workers) as pool:
                return [f.result() for f in [pool.submit(job) for job in jobs]]

        if cfg.command in ("toy", "km"):
            runner = _run_toy if cfg.command == "toy" else _run_km_cmd
            jobs = []
            for label, strategy in sorted(cfg.strategies.items()):
                for rep in range(cfg.repeats):
                    seed = derive_seed(cfg.seed, label, rep)
                    jobs.append(lambda l=label, s=strategy, sd=seed:
                                (l, sd, runner(cfg, l, s, sd)))
            for label, seed, (trace, summary, records) in dispatch(jobs):
                trace.write_csv(out_dir / f"{cfg.command}_{label}_{seed}.csv")
                if records is not None:
                    _write_records(
                        out_dir / f"{cfg.command}_{label}_{seed}_records.jsonl", records)
                summaries.append(summary)
        elif cfg.command == "sgd":
            jobs = []
            for rep in range(cfg.repeats):
                seed = derive_seed(cfg.seed, "sgd", rep)
                jobs.append(lambda sd=seed: (sd, _run_sgd_cmd(cfg, sd)))
            label = f"nu{cfg.nu:g}"
            for seed, (trace, summary, _) in dispatch(jobs):
                trace.write_csv(out_dir / f"sgd_{label}_{seed}.csv")
                summaries.append(summary)
        else:
            problem, family = _build_problem(cfg)
            base = BlockConfig(
                batch_size=cfg.M, delta=cfg.delta,
                relaxation=next(iter(cfg.strategies.values())),
                max_iters=cfg.iters, seed=cfg.seed, weight_rule=cfg.weight_rule,
                atol=1e-9 if cfg.command == "image" else 1e-12, stop_patience=50,
                record_every=max(1, cfg.iters // 4000),
                collect_records=cfg.dump_records,
            )
            jobs = [
                (lambda l=label, s=strategy:
                 (l, time.perf_counter(),
                  run_experiment(problem, base, l, repeats=cfg.repeats, strategy=s,
                                 family=family)))
                for label, strategy in sorted(cfg.strategies.items())
            ]
            for label, started, result in dispatch(jobs):
                wall = time.perf_counter() - started
                for i, seed in enumerate(result.seeds):
                    result.traces[i].write_csv(out_dir / f"{cfg.command}_{label}_{seed}.csv")
                    if cfg.dump_records and result.results[i].records is not None:
                        _write_records(
                            out_dir / f"{cfg.command}_{label}_{seed}_records.jsonl",
                            result.results[i].records)
                if result.averaged is not None:
                    result.averaged.write_csv(out_dir / f"{cfg.command}_{label}_avg.csv")
                summaries.extend(_experiment_summaries(cfg, label, result, wall))
    except (ConfigurationError, UsageError) as exc:
        _emit_error("config", exc)
        return EXIT_CONFIG
    except NumericError as exc:
        _emit_error("numeric", exc)
        return EXIT_NUMERIC
    except InvariantViolationError as exc:
        _emit_error("invariant", exc)
        return EXIT_INVARIANT

    summaries.sort(key=lambda s: (s.strategy, s.seed))
    payload = {
        "command": cfg.command,
        "seed": cfg.seed,
        "runs": [s.to_json_dict() for s in summaries],
    }
    with open(out_dir / "summary.json", "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    if any(s.invariant_violations for s in summaries):
        return EXIT_INVARIANT
    return EXIT_OK


def _build_problem(cfg: RunConfig):
    """Return (problem, operator family) for the experiment commands."""
    if cfg.command == "signal":
        if cfg.scale == "desk":
            problem = desk_signal_problem(seed=cfg.seed)
        else:
            params = _SCALES["signal"]["paper"]
            problem = generate_signal_problem(n=params["n"], p=params["p"], seed=cfg.seed)
        return problem, problem.build_family()
    if cfg.scale == "desk":
        problem = desk_image_problem(seed=cfg.seed)
        return problem, problem.build_family(fourier_weight=DESK_IMAGE_FOURIER_WEIGHT)
    problem = generate_image_problem(n=_SCALES["image"]["paper"]["n"], seed=cfg.seed)
    return problem, problem.build_family()


def _write_records(path, records):
    with open(path, "w") as fh:
        for rec in records:
            fh.write(json.dumps(rec.to_json_dict()))
            fh.write("\n")


def _emit_error(kind: str, exc: Exception) -> None:
    sys.stderr.write(json.dumps({"error": kind, "message": str(exc)}) + "\n")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        cfg = parse_and_validate(argv)
    except (ConfigurationError, UsageError) as exc:
        _emit_error("config", exc)
        return EXIT_CONFIG
    except (OSError, json.JSONDecodeError) as exc:
        _emit_error("config", exc)
        return EXIT_CONFIG
    return execute(cfg)


if __name__ == "__main__":
    sys.exit(main())
