"""Convergence metrics and invariant auditors shared by all solvers.

All functions here are pure.  Averaging is done over the iteration index,
never over wall-clock, so aggregated outputs are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .exceptions import UsageError
from .geometry import as_point, fejer_decrement, require_same_dim
from .trace import ConvergenceTrace

DB_FLOOR = -300.0
_FEJER_RTOL = 1e-9   # relative tolerance of the Fejer descent audit


def ratio_db(num: float, den: float) -> float:
    """20 log10(num / den), clamped at -300 dB; ``num == 0`` gives the floor."""
    if num == 0.0:
        return DB_FLOOR
    return float(max(20.0 * np.log10(num / den), DB_FLOOR))


def normalized_error_db(x_n, x0, x_inf) -> float:
    """20 log10(||x_n - x_inf|| / ||x0 - x_inf||), clamped at -300 dB.

    The value is invariant under common translation and positive scaling of
    the three points.  ``x0 == x_inf`` is a usage error.
    """
    x_n = as_point(x_n, "x_n")
    x0 = as_point(x0, "x0")
    x_inf = as_point(x_inf, "x_inf")
    require_same_dim(x_n, x_inf, "normalized_error_db")
    require_same_dim(x0, x_inf, "normalized_error_db")
    den = float(np.linalg.norm(x0 - x_inf))
    if den == 0.0:
        raise UsageError("x0 equals x_inf; normalized error undefined")
    return ratio_db(float(np.linalg.norm(x_n - x_inf)), den)


@dataclass
class AveragedTrace:
    """Pointwise mean over runs on a common iteration grid, with envelope."""

    iterations: np.ndarray
    elapsed_mean: np.ndarray
    residual_mean: np.ndarray
    db_mean: Optional[np.ndarray]
    lambda_mean: np.ndarray
    extrapolation_mean: np.ndarray
    db_min: Optional[np.ndarray]
    db_max: Optional[np.ndarray]

    def write_csv(self, path) -> None:
        import csv

        from .trace import CSV_HEADER, format_float

        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(CSV_HEADER + ("db_min", "db_max"))
            for i in range(self.iterations.size):
                writer.writerow([
                    int(self.iterations[i]),
                    format_float(self.elapsed_mean[i]),
                    format_float(self.residual_mean[i]),
                    "" if self.db_mean is None else format_float(self.db_mean[i]),
                    format_float(self.lambda_mean[i]),
                    format_float(self.extrapolation_mean[i]),
                    "" if self.db_min is None else format_float(self.db_min[i]),
                    "" if self.db_max is None else format_float(self.db_max[i]),
                ])


def aggregate_runs(traces: Sequence[ConvergenceTrace]) -> AveragedTrace:
    """Arithmetic mean per iteration index across traces (plus dB envelope).

    All traces must share the same iteration grid; aggregation is invariant
    under permutation of the traces.  The dB mean and envelope are None
    unless every trace has a dB column.
    """
    if not traces:
        raise UsageError("aggregate_runs needs at least one trace")
    grid = traces[0].iterations()
    for t in traces[1:]:
        if not np.array_equal(t.iterations(), grid):
            raise UsageError("traces have mismatched iteration grids")

    def column_mean(rows):
        # sort per iteration before summing so the result is exactly
        # permutation-invariant over traces
        stacked = np.sort(np.vstack(rows), axis=0)
        return stacked.sum(axis=0) / stacked.shape[0]

    elapsed = column_mean([[r.elapsed for r in t.rows] for t in traces])
    residual = column_mean([t.residuals() for t in traces])
    lam = column_mean([t.lambdas() for t in traces])
    extrap = column_mean([t.extrapolations() for t in traces])
    db_cols = [t.db_column() for t in traces]
    if all(c is not None for c in db_cols):
        stacked = np.vstack(db_cols)
        db_mean = column_mean(db_cols)
        db_min = stacked.min(axis=0)
        db_max = stacked.max(axis=0)
    else:
        db_mean = db_min = db_max = None
    return AveragedTrace(grid, elapsed, residual, db_mean, lam, extrap, db_min, db_max)


def audit_fejer_step(x, x_next, lam: float, d, zs) -> tuple[int, float]:
    """Audit one step ``x_next = x - lam d`` against every point z in ``zs``.

    The decrement

        ||x - z||^2 - ||x_next - z||^2 - lam (2 - lam) ||d||^2

    must be >= -1e-9 (1 + ||x - z||^2).  Returns (violation count, worst
    deficit beyond tolerance).  Points must already be validated float64
    arrays of one shape.
    """
    violations = 0
    worst = 0.0
    for z in zs:
        dec = fejer_decrement(x, x_next, z, lam, d)
        tol = _FEJER_RTOL * (1.0 + float((x - z) @ (x - z)))
        if dec < -tol:
            violations += 1
            worst = max(worst, -dec - tol)
    return violations, worst


def fejer_audit(x0, records, z_points) -> tuple[int, float]:
    """Replay block-iteration records and audit the descent inequality.

    For each record the update is reconstructed as
    ``x_next = x + lam (a - x)`` with direction ``d = x - a`` and audited by
    :func:`audit_fejer_step`.  Returns (violation count, worst deficit
    beyond tolerance).
    """
    x = as_point(x0, "x0").copy()
    zs = [as_point(z, "z") for z in z_points]
    for z in zs:
        require_same_dim(x, z, "fejer_audit")
    violations = 0
    worst = 0.0
    for rec in records:
        a = np.asarray(rec.a, dtype=np.float64)
        require_same_dim(a, x, "fejer_audit")
        x_next = x + rec.lam * (a - x)
        count, deficit = audit_fejer_step(x, x_next, rec.lam, x - a, zs)
        violations += count
        worst = max(worst, deficit)
        x = x_next
    return violations, worst


@dataclass
class RunSummary:
    """Per-run outcome line for summary.json."""

    seed: int
    iterations_run: int
    final_residual: float
    final_norm_err_db: Optional[float]
    invariant_violations: int
    worst_violation: float
    wall_clock: float
    stop_reason: str = ""
    strategy: str = ""
    command: str = ""

    def to_json_dict(self) -> dict:
        return {
            "command": self.command,
            "strategy": self.strategy,
            "seed": self.seed,
            "iterations_run": self.iterations_run,
            "final_residual": self.final_residual,
            "final_norm_err_db": self.final_norm_err_db,
            "invariant_violations": self.invariant_violations,
            "worst_violation": self.worst_violation,
            "wall_clock_s": self.wall_clock,
            "stop_reason": self.stop_reason,
        }
