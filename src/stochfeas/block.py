"""Randomly activated, extrapolated, super-relaxed block-iterative solver.

One iteration over a family (T_k) of firmly quasinonexpansive operators:

1. draw M indices k_1..k_M i.i.d. from the family's index distribution;
2. evaluate the steps p_i - x = T_{k_i} x - x (plus an error term e_i in
   the error-tolerant variant) and the residual norms r_i = ||p_i - x||,
   all M at once through the family's ``evaluate``;
3. form weights beta_i summing to 1 with beta_i >= delta on every index
   attaining the maximal residual;
4. average p = sum_i beta_i p_i and extrapolate,
       L = (sum_i beta_i r_i^2 + [p = x]) / (||p - x||^2 + [p = x]) >= 1,
       a = x + L (p - x);
5. draw the relaxation lam and update x <- x + lam (a - x).

The error-tolerant variant skips the extrapolation (a = p) and requires
relaxations supported inside ]0, 2[.  Draw order per iteration is fixed as
indices, then errors, then weights, then relaxation; weights under the two
built-in rules are deterministic functions of the residuals, so no draw
occurs for them.  Relaxations come from a stream separate from the index
and noise streams, which realizes the required independence of lam from the
sigma-algebra of the evaluations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import relaxation as rx
from .diagnostics import audit_fejer_step
from .exceptions import ConfigurationError, InvariantViolationError, UsageError
from .fixedpoint import DecayingNoise, _check_schedule_certificate, _iterate
from .geometry import as_point
from .operators import _IndexedFamily, sample_indices
from .rngstreams import substream
from .trace import ConvergenceTrace

UNIFORM_OVER_BATCH = "uniform_over_batch"
MAX_RESIDUAL_CONCENTRATED = "max_residual_concentrated"

_ARGMAX_RTOL = 1e-12   # residuals within this relative band of the max count as ties
_EXTRAPOLATION_SLACK = 1e-9  # a step or record with L below 1 - slack is an invariant violation


def compute_weights(residual_norms, delta: float, rule: str) -> np.ndarray:
    """Weights beta over the batch: sum 1, beta_i >= delta on the argmax set.

    ``uniform_over_batch`` returns 1/M each (valid because delta < 1/M).
    ``max_residual_concentrated`` grants delta to every index within 1e-12
    relative of the maximal residual and spreads the remaining mass evenly
    over all M indices.
    """
    r = np.asarray(residual_norms, dtype=np.float64)
    if r.ndim != 1 or r.size < 1:
        raise UsageError("residual_norms must be a nonempty 1-D array")
    if np.any(r < 0.0) or not np.all(np.isfinite(r)):
        raise UsageError("residual norms must be finite and nonnegative")
    m = r.size
    if not (0.0 < delta < 1.0 / m):
        raise UsageError(f"delta must lie in ]0, 1/M[ = ]0, {1.0 / m:g}[, got {delta}")
    if rule == UNIFORM_OVER_BATCH:
        return np.full(m, 1.0 / m)
    if rule == MAX_RESIDUAL_CONCENTRATED:
        rmax = float(r.max())
        ties = r >= rmax * (1.0 - _ARGMAX_RTOL)
        n_ties = int(ties.sum())
        beta = np.full(m, (1.0 - delta * n_ties) / m)
        beta[ties] += delta
        return beta
    raise UsageError(f"unknown weight rule {rule!r}")


def extrapolation_parameter(residual_norms, weights, p_minus_x_norm: float) -> float:
    """The extrapolation quotient with exact indicator branch on p = x."""
    r = np.asarray(residual_norms, dtype=np.float64)
    w = np.asarray(weights, dtype=np.float64)
    if r.shape != w.shape:
        raise UsageError("residuals and weights must have equal length")
    if p_minus_x_norm < 0.0:
        raise UsageError("p_minus_x_norm must be nonnegative")
    indicator = 1.0 if p_minus_x_norm == 0.0 else 0.0
    num = float(w @ (r * r)) + indicator
    den = p_minus_x_norm * p_minus_x_norm + indicator
    return num / den


@dataclass
class BlockConfig:
    """Configuration of a block-iterative run.

    Every variant needs the damping E[lam (2 - lam)] > 0 and delta in
    ]0, 1/M[.  ``error_schedule`` switches to the error-tolerant variant,
    which uses the averaged point directly (no extrapolation), restricts the
    relaxation support to ]0, 2[ and needs summable errors.
    """

    batch_size: int
    delta: float
    relaxation: rx.RelaxationStrategy
    max_iters: int
    seed: int
    weight_rule: str = UNIFORM_OVER_BATCH
    error_schedule: Optional[DecayingNoise] = None
    atol: float = 1e-10
    stop_patience: int = 25
    record_every: int = 1
    collect_records: bool = False

    def __post_init__(self):
        if self.batch_size < 1:
            raise ConfigurationError("batch size M must be >= 1")
        if self.stop_patience < 1:
            raise ConfigurationError("stop_patience must be >= 1")
        if not (0.0 < self.delta < 1.0 / self.batch_size):
            raise ConfigurationError(
                f"delta in ]0, 1/M[ violated: delta={self.delta}, M={self.batch_size}"
            )
        if self.max_iters < 1:
            raise ConfigurationError("max_iters must be >= 1")
        if self.record_every < 1:
            raise ConfigurationError("record_every must be >= 1")
        if self.weight_rule not in (UNIFORM_OVER_BATCH, MAX_RESIDUAL_CONCENTRATED):
            raise ConfigurationError(f"unknown weight rule {self.weight_rule!r}")
        damping = self.relaxation.moments().damping
        if damping <= 0.0:
            raise ConfigurationError(f"damping E[lam(2-lam)] > 0 violated: got {damping:.6g}")
        if self.error_schedule is not None:
            rx.require_support_inside(self.relaxation, 0.0, 2.0,
                                      "error-tolerant variant: lam_n in ]0, 2[ violated")
            _check_schedule_certificate(self.error_schedule)


@dataclass
class BlockIterationRecord:
    """Audit record of one iteration (emitted when collect_records is set)."""

    iteration: int
    indices: tuple
    weights: np.ndarray
    p: np.ndarray
    extrapolation: float
    a: np.ndarray
    lam: float

    def validate(self, delta: float, residual_norms) -> None:
        w = self.weights
        if abs(float(w.sum()) - 1.0) > 1e-12:
            raise InvariantViolationError(f"weights sum {w.sum()!r} differs from 1")
        if np.any(w < 0.0):
            raise InvariantViolationError("negative weight")
        r = np.asarray(residual_norms)
        rmax = float(r.max())
        ties = r >= rmax * (1.0 - _ARGMAX_RTOL)
        if np.any(w[ties] < delta - 1e-12):
            raise InvariantViolationError("argmax index received weight below delta")
        if self.extrapolation < 1.0 - _EXTRAPOLATION_SLACK:
            raise InvariantViolationError(f"extrapolation {self.extrapolation} below 1")

    def to_json_dict(self) -> dict:
        return {
            "iter": self.iteration,
            "indices": list(map(int, self.indices)),
            "weights": [float(v) for v in self.weights],
            "p": [float(v) for v in self.p],
            "L": float(self.extrapolation),
            "a": [float(v) for v in self.a],
            "lambda": float(self.lam),
        }


@dataclass
class BlockResult:
    final: np.ndarray
    trace: ConvergenceTrace
    records: Optional[list]
    fejer_violations: int = 0
    worst_fejer_violation: float = 0.0


def run_block(
    family: _IndexedFamily,
    cfg: BlockConfig,
    x0,
    reference_solution=None,
    fejer_points: Optional[Sequence] = None,
) -> BlockResult:
    """Run the block iteration from ``x0``.

    ``reference_solution`` enables the normalized-error dB column of the
    trace.  ``fejer_points`` is a diagnostics hook: for each supplied
    solution point z the per-iteration descent inequality

        ||x_next - z||^2 <= ||x - z||^2 - lam (2 - lam) ||x - a||^2
                            + 1e-9 (1 + ||x - z||^2)

    is checked and violations are counted into the result.
    """
    m = cfg.batch_size
    idx_rng = substream(cfg.seed, "index")
    relax_rng = substream(cfg.seed, "relaxation")
    noise_rng = substream(cfg.seed, "noise") if cfg.error_schedule is not None else None
    zs = [as_point(z, "fejer point") for z in fejer_points] if fejer_points else []
    records: Optional[list] = [] if cfg.collect_records else None
    violations = 0
    worst = 0.0
    # weights under the uniform rule do not depend on the residuals
    uniform_beta = np.full(m, 1.0 / m) if cfg.weight_rule == UNIFORM_OVER_BATCH else None

    def step(n, x):
        nonlocal violations, worst
        ks = sample_indices(family, idx_rng, m)
        # the averaged point enters only through p - x; working with the
        # steps directly keeps the indicator branch [p = x] exact when every
        # drawn operator fixes x
        steps, r = family.evaluate(ks, x)
        if noise_rng is not None:
            for d in steps:
                d += cfg.error_schedule.sample(n, x.shape[0], noise_rng)
            r = np.array([math.sqrt(float(d @ d)) for d in steps])
        if uniform_beta is not None:
            beta = uniform_beta
        else:
            beta = compute_weights(r, cfg.delta, cfg.weight_rule)
        avg_step = beta @ steps
        pmx = math.sqrt(float(avg_step @ avg_step))
        if cfg.error_schedule is None:
            extrap = extrapolation_parameter(r, beta, pmx)
            if extrap < 1.0 - _EXTRAPOLATION_SLACK:
                raise InvariantViolationError(
                    f"extrapolation {extrap!r} below 1 at iteration {n}"
                )
            a = x + extrap * avg_step
        else:
            extrap = 1.0
            a = x + avg_step
        lam = cfg.relaxation.sample(relax_rng)
        x_next = x + lam * (a - x)
        if zs:
            count, deficit = audit_fejer_step(x, x_next, lam, x - a, zs)
            violations += count
            worst = max(worst, deficit)
        if records is not None:
            rec = BlockIterationRecord(n, tuple(ks.tolist()), beta, x + avg_step, extrap, a, lam)
            rec.validate(cfg.delta, r)
            records.append(rec)
        return x_next, float(r.max()), lam, extrap

    # the residual only samples M random operators, so a single quiet
    # iteration proves nothing; require stop_patience consecutive ones
    x, trace = _iterate(step, x0, cfg.max_iters, cfg.atol, cfg.record_every,
                        patience=cfg.stop_patience, reference=reference_solution)
    return BlockResult(x, trace, records, violations, worst)
