"""Command line front end.

Commands: toy | km | sgd | signal | image, each stated once in ``_COMMANDS``:
the flags and config-file keys it reads beyond the common ones, and its
defaults.  A command takes only its own keys.  ``parse_and_validate`` parses
the flags and the config file and merges them over the defaults, and
``RunConfig.__post_init__`` is the one place the result is checked against
the hypotheses of the target method, before anything runs, naming the first
violated one on rejection.  Relaxations are read through ``relaxation``'s
one kind table.  Per-run traces go to
``<output_dir>/<command>_<strategy>_<seed>.csv``, averaged traces to
``<command>_<strategy>_avg.csv``, and a run summary array to
``summary.json``.

Exit codes: 0 success, 2 config rejection, 3 numeric failure, 4 invariant
violation.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from . import relaxation as rx
from .block import MAX_RESIDUAL_CONCENTRATED, UNIFORM_OVER_BATCH, BlockConfig, run_block
from .exceptions import (
    ConfigurationError,
    InvariantViolationError,
    NumericError,
    UsageError,
)
from .experiments import canonical_strategies, run_experiment
from .fixedpoint import DecayingNoise, KmConfig, SgdConfig, quadratic_family, run_km, run_sgd
from .image import DESK_IMAGE_FOURIER_WEIGHT, desk_image_problem, generate_image_problem
from .operators import LinearFamily
from .rngstreams import derive_seed
from .signal import desk_signal_problem, generate_signal_problem

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_INVARIANT = 4

# The type a config-file value must have, by key; a float key also takes an integer.
_CONFIG_TYPES = {
    "command": str, "seed": int, "M": int, "delta": float, "relaxation": (str, dict),
    "iters": int, "repeats": int, "output_dir": str, "scale": str, "nu": float,
    "beta": float, "weight_rule": str, "noise_c": float, "noise_q": float,
    "dump_records": bool,
}
_CHOICES = {
    "scale": ("desk", "paper"),
    "weight_rule": (UNIFORM_OVER_BATCH, MAX_RESIDUAL_CONCENTRATED),
}
# The keys, as flags and config-file keys, that every command reads.
_COMMON_KEYS = ("seed", "iters", "repeats", "output_dir")
_BLOCK_KEYS = ("M", "delta", "weight_rule", "dump_records", "relaxation")
# Each command: the keys it reads beyond the common ones, and its defaults.
_COMMANDS = {
    "toy": (_BLOCK_KEYS, {"M": 2, "iters": 200, "relaxation": "const:1"}),
    "km": (("relaxation", "noise_c", "noise_q"), {"iters": 2000, "relaxation": "const:0.5"}),
    "sgd": (("nu", "beta"), {"iters": 100_000}),
    "signal": (_BLOCK_KEYS + ("scale",), {"M": 16, "iters": 4000}),
    "image": (_BLOCK_KEYS + ("scale",), {"M": 2, "iters": 20_000}),
}


@dataclass
class RunConfig:
    """One command's configuration; building it checks it and completes it.

    ``delta`` defaults to 0.5 / M.  ``strategies`` maps each output label to
    its relaxation strategy: the one ``relaxation`` names, else the four
    canonical ones (``sgd``: its one label and None).  The solver config of
    the first strategy checks the method's hypotheses.
    """

    command: str
    seed: int = 0
    M: int = 1
    delta: Optional[float] = None
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
    strategies: dict = field(init=False)

    def __post_init__(self):
        # derive_seed reads a seed modulo 2^64, so one outside would alias another
        if not 0 <= self.seed < 2 ** 64:
            raise ConfigurationError(f"seed must lie in [0, 2^64), got {self.seed}")
        if self.M < 1:
            raise ConfigurationError(f"batch size M must be >= 1, got {self.M}")
        if self.delta is None:
            self.delta = 0.5 / self.M
        if self.repeats < 1:
            raise ConfigurationError("repeats must be >= 1")
        if self.iters < 1:
            raise ConfigurationError("iters must be >= 1")
        for key, choices in _CHOICES.items():
            if getattr(self, key) not in choices:
                raise ConfigurationError(f"config key {key!r} must be one of {list(choices)}, "
                                         f"got {getattr(self, key)!r}")
        if self.command == "sgd":
            self.strategies = {f"nu{self.nu:g}": None}
        elif self.relaxation is None:
            self.strategies = dict(canonical_strategies())
        else:
            strategy = _parse_relaxation(self.relaxation)
            self.strategies = {rx.strategy_label(strategy): strategy}
        # the solver config raises on hypothesis violations, e.g. "nu in ]2/3, 1]"
        _solver_config(self, next(iter(self.strategies.values())), self.seed)


def parse_relaxation_shorthand(spec: str) -> rx.RelaxationStrategy:
    """Grammar: const:<value> | two_point:<a>:<p_a>:<b> | uniform:<lo>:<hi>,
    the tagged-object form's kind and fields in order; the fields get the
    same checks as the tagged form's."""
    name, *values = spec.split(":")
    for kind, (_, fields, shorthand, _) in rx._CONFIG_KINDS.items():
        if name == shorthand and len(values) == len(fields):
            try:
                return rx.strategy_from_config(
                    {"kind": kind, **dict(zip(fields, map(float, values)))})
            except (ValueError, UsageError) as exc:
                raise ConfigurationError(f"bad relaxation shorthand {spec!r}: {exc}") from exc
    grammar = ", ".join(":".join([shorthand, *(f"<{f}>" for f in fields)])
                        for _, fields, shorthand, _ in rx._CONFIG_KINDS.values())
    raise ConfigurationError(f"bad relaxation shorthand {spec!r}; expected one of {grammar}")


def _parse_relaxation(value) -> rx.RelaxationStrategy:
    """Flags use the shorthand grammar; config files may also use the tagged
    object form, e.g. {"kind": "two_point", "a": 2.3, "p_a": 0.5, "b": 1.5}."""
    if isinstance(value, dict):
        try:
            return rx.strategy_from_config(value)
        except UsageError as exc:
            raise ConfigurationError(str(exc)) from exc
    return parse_relaxation_shorthand(value)


class _ArgumentParser(argparse.ArgumentParser):
    """Raises a usage error as a ConfigurationError, so it takes the one
    rejection path of every other bad value; subparsers inherit the class."""

    def error(self, message):
        raise ConfigurationError(f"{self.prog}: {message}")


def _build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(prog="stochfeas")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (keys, _) in _COMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("--config", type=str, default=None, help="JSON config file")
        for key in _COMMON_KEYS + keys:
            flag = "--" + key.replace("_", "-")
            if key == "dump_records":
                p.add_argument(flag, dest=key, action="store_const", const=True, default=None)
            else:
                p.add_argument(flag, dest=key, default=None, choices=_CHOICES.get(key),
                               type=str if key == "relaxation" else _CONFIG_TYPES[key])
    return parser


def _check_file_value(key: str, value):
    """A config-file value as its flag would give it; rejects a wrong type."""
    kinds = _CONFIG_TYPES[key]
    if kinds is float and type(value) is int:
        try:
            value = float(value)
        except OverflowError:
            raise ConfigurationError(
                f"config key {key!r} must be float, got an integer beyond the float range") from None
    if not isinstance(value, kinds) or (isinstance(value, bool) and kinds is not bool):
        names = " or ".join(k.__name__ for k in (kinds if isinstance(kinds, tuple) else (kinds,)))
        raise ConfigurationError(f"config key {key!r} must be {names}, got {value!r}")
    return value


def parse_and_validate(argv) -> RunConfig:
    """Parse flags (over an optional JSON config file) into a RunConfig,
    which checks itself.

    Precedence: command-line flags override config-file values, which
    override per-command defaults.
    """
    args = _build_parser().parse_args(argv)
    command = args.command
    own_keys, defaults = _COMMANDS[command]
    keys = ("command",) + _COMMON_KEYS + own_keys
    values = {"command": command, **defaults}
    if args.config:
        with open(args.config) as fh:
            file_cfg = json.load(fh)
        if not isinstance(file_cfg, dict):
            raise ConfigurationError("config file must hold a JSON object")
        if file_cfg.get("command", command) != command:
            raise ConfigurationError(
                f"config file is for command {file_cfg['command']!r}, invoked {command!r}"
            )
        unread = set(file_cfg) - set(keys)
        if unread:
            raise ConfigurationError(
                f"config keys {sorted(unread)} are not read by command {command!r}; "
                f"its keys: {sorted(keys)}"
            )
        values.update({key: _check_file_value(key, value) for key, value in file_cfg.items()})
    for key in keys:
        flag = getattr(args, key)
        if flag is not None:
            values[key] = flag
    return RunConfig(**values)


def _solver_config(cfg: RunConfig, strategy, seed: int):
    """The command's KmConfig, SgdConfig or BlockConfig for one run."""
    if cfg.command == "sgd":
        return SgdConfig(beta=cfg.beta, nu=cfg.nu, max_iters=cfg.iters, seed=seed,
                         gradient_family=_sgd_family(),
                         record_every=max(1, cfg.iters // 2000))
    if cfg.command == "km":
        noise = {}
        if cfg.noise_c is not None or cfg.noise_q is not None:
            if cfg.noise_c is None or cfg.noise_q is None:
                raise ConfigurationError("noise_c and noise_q must be given together")
            noise["error_schedule"] = DecayingNoise(cfg.noise_c, cfg.noise_q)
        return KmConfig(mu_strategy=strategy, max_iters=cfg.iters, seed=seed,
                        atol=1e-12, **noise)
    stopping = {} if cfg.command == "toy" else dict(
        atol=1e-9 if cfg.command == "image" else 1e-12, stop_patience=50,
        record_every=max(1, cfg.iters // 4000))
    return BlockConfig(batch_size=cfg.M, delta=cfg.delta, relaxation=strategy,
                       max_iters=cfg.iters, seed=seed, weight_rule=cfg.weight_rule,
                       collect_records=cfg.dump_records, **stopping)


def _sgd_family():
    rng = np.random.default_rng(20240817)
    center = rng.uniform(-1.0, 1.0, size=8)
    offsets = rng.uniform(-0.25, 0.25, size=(10, 8))
    return quadratic_family(center, offsets)


def _toy_problem():
    """Two half-spaces x1 <= 0 and x2 <= 0 in R^2; the solution set is the
    nonpositive quadrant and the limit from (1, 1) is the origin."""
    family = LinearFamily(np.eye(2), [-np.inf, -np.inf], [0.0, 0.0])
    zs = [np.zeros(2), np.array([-0.5, 0.0]), np.array([0.0, -0.5]),
          np.array([-1.0, -1.0]), np.array([-0.25, -0.75])]
    return family, np.array([1.0, 1.0]), zs


def _run_single(command: str, solver):
    """One toy, km or sgd run: (trace, BlockResult or None)."""
    if command == "sgd":
        return run_sgd(solver, np.zeros(8))[1], None
    if command == "km":
        rot = np.array([[0.0, -1.0], [1.0, 0.0]])
        return run_km(lambda x: rot @ x, solver, np.array([1.0, 0.0]))[1], None
    family, x0, zs = _toy_problem()
    res = run_block(family, solver, x0, reference_solution=np.zeros(2), fejer_points=zs)
    return res.trace, res


def _summary(cfg: RunConfig, label: str, seed: int, trace, res, wall: float) -> dict:
    """The summary.json line of one run; ``res`` is its BlockResult, if any.
    The final iterate's dB against the run's reference comes from the trace
    footer, and is None for a run without a reference."""
    return {
        "command": cfg.command,
        "strategy": label,
        "seed": seed,
        "iterations_run": int(trace.footer["iterations_run"]),
        "final_residual": trace.final_residual(),
        "final_norm_err_db": trace.footer.get("final_norm_err_db"),
        "invariant_violations": 0 if res is None else res.fejer_violations,
        "worst_violation": 0.0 if res is None else res.worst_fejer_violation,
        "wall_clock_s": wall,
        "stop_reason": trace.footer["stop_reason"],
    }


def execute(cfg: RunConfig) -> int:
    """Run the configured command, write artifacts into the existing
    ``cfg.output_dir``, and return the exit code."""
    out_dir = Path(cfg.output_dir)
    runs, averaged = [], []  # (summary, trace, BlockResult or None), (label, averaged trace)

    try:
        problem, family = _build_problem(cfg) if cfg.command in ("signal", "image") else (None, None)
        for label, strategy in sorted(cfg.strategies.items()):
            if family is None:
                for rep in range(cfg.repeats):
                    seed = derive_seed(cfg.seed, "sgd" if cfg.command == "sgd" else label, rep)
                    solver = _solver_config(cfg, strategy, seed)
                    started = time.perf_counter()
                    trace, res = _run_single(cfg.command, solver)
                    wall = time.perf_counter() - started
                    runs.append((_summary(cfg, label, seed, trace, res, wall), trace, res))
            else:
                started = time.perf_counter()
                result = run_experiment(problem, family, _solver_config(cfg, strategy, cfg.seed),
                                        label, repeats=cfg.repeats)
                wall = (time.perf_counter() - started) / len(result.seeds)
                for seed, res in zip(result.seeds, result.results):
                    runs.append((_summary(cfg, label, seed, res.trace, res, wall), res.trace, res))
                averaged.append((label, result.averaged))

        for summary, trace, res in runs:
            stem = f"{cfg.command}_{summary['strategy']}_{summary['seed']}"
            trace.write_csv(out_dir / f"{stem}.csv")
            if res is not None and res.records is not None:
                _write_records(out_dir / f"{stem}_records.jsonl", res.records)
        for label, avg in averaged:
            avg.write_csv(out_dir / f"{cfg.command}_{label}_avg.csv")
    except UsageError as exc:
        _emit_error("config", exc)
        return EXIT_CONFIG
    except NumericError as exc:
        _emit_error("numeric", exc)
        return EXIT_NUMERIC
    except InvariantViolationError as exc:
        _emit_error("invariant", exc)
        return EXIT_INVARIANT

    summaries = sorted((run[0] for run in runs), key=lambda s: (s["strategy"], s["seed"]))
    payload = {"command": cfg.command, "seed": cfg.seed, "runs": summaries}
    with open(out_dir / "summary.json", "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    if any(s["invariant_violations"] for s in summaries):
        return EXIT_INVARIANT
    return EXIT_OK


def _build_problem(cfg: RunConfig):
    """Return (problem, operator family) for the experiment commands."""
    if cfg.command == "signal":
        problem = (desk_signal_problem(seed=cfg.seed) if cfg.scale == "desk"
                   else generate_signal_problem(seed=cfg.seed))
        return problem, problem.build_family()
    if cfg.scale == "desk":
        problem = desk_image_problem(seed=cfg.seed)
        return problem, problem.build_family(fourier_weight=DESK_IMAGE_FOURIER_WEIGHT)
    problem = generate_image_problem(seed=cfg.seed)
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
        Path(cfg.output_dir).mkdir(parents=True, exist_ok=True)
    except (UsageError, OSError, json.JSONDecodeError) as exc:
        _emit_error("config", exc)
        return EXIT_CONFIG
    return execute(cfg)


if __name__ == "__main__":
    sys.exit(main())
