"""Convergence metrics and invariant auditors shared by all solvers.

All functions here are pure.  Averaging is done over the iteration index,
never over wall-clock, so aggregated outputs are deterministic.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .exceptions import UsageError
from .geometry import fejer_decrement
from .trace import ConvergenceTrace

DB_FLOOR = -300.0
_FEJER_RTOL = 1e-9   # relative tolerance of the Fejer descent audit


def ratio_db(num: float, den: float) -> float:
    """20 log10(num / den), clamped at -300 dB; ``num == 0`` gives the floor."""
    if num == 0.0:
        return DB_FLOOR
    return float(max(20.0 * np.log10(num / den), DB_FLOOR))


class AveragedTrace(ConvergenceTrace):
    """Pointwise mean over runs on a common iteration grid: the trace columns
    hold the means, and ``db_min`` and ``db_max`` the dB envelope."""


def aggregate_runs(traces: Sequence[ConvergenceTrace]) -> AveragedTrace:
    """Arithmetic mean per iteration index across traces (plus dB envelope).

    All traces must share the same iteration grid; aggregation is invariant
    under permutation of the traces.  The dB mean and envelope cells are
    empty unless every trace has a dB column.
    """
    if not traces:
        raise UsageError("aggregate_runs needs at least one trace")
    grid = traces[0].iterations()
    for t in traces[1:]:
        if not np.array_equal(t.iterations(), grid):
            raise UsageError("traces have mismatched iteration grids")

    def mean(name):
        # sort per iteration before summing so the result is exactly
        # permutation-invariant over traces
        stacked = np.sort(np.vstack([t.column(name) for t in traces]), axis=0)
        return stacked.sum(axis=0) / stacked.shape[0]

    db_cols = [t.db_column() for t in traces]
    if all(c is not None for c in db_cols):
        stacked = np.vstack(db_cols)
        db_mean, db_min, db_max = mean("norm_err_db"), stacked.min(axis=0), stacked.max(axis=0)
    else:
        db_mean = db_min = db_max = [None] * grid.size
    return AveragedTrace({
        "iter": grid, "elapsed_s": mean("elapsed_s"), "residual": mean("residual"),
        "norm_err_db": db_mean, "lambda": mean("lambda"),
        "extrapolation": mean("extrapolation"), "db_min": db_min, "db_max": db_max,
    })


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

