"""Randomly activated, extrapolated, super-relaxed block-iterative solver.

One iteration over a family (T_k) of firmly quasinonexpansive operators:

1. draw M indices k_1..k_M i.i.d. from the family's index distribution;
2. evaluate the steps p_i - x = T_{k_i} x - x (plus an error term e_i in
   the error-tolerant variant) and the residual norms r_i = ||p_i - x||,
   all M at once;
3. form weights beta_i summing to 1 with beta_i >= delta on every index
   attaining the maximal residual;
4. average p = sum_i beta_i p_i and extrapolate,
       L = (sum_i beta_i r_i^2 + [p = x]) / (||p - x||^2 + [p = x]) >= 1,
       a = x + L (p - x);
5. draw the relaxation lam and update x <- x + lam (a - x).

The update of steps 4 and 5 is made in one new buffer, L (p - x) + x - x,
scaled by lam, plus x (with p - x + x first in the error-tolerant
variant): the same operations in the same order as x + lam ((x + L (p -
x)) - x), so the same bits, without the three temporaries.

A run applies the family through one state, ``family.run_state(x0)``
(see ``operators._IndexedFamily``): ``evaluate(ks, x)`` gives the
residuals of a batch and keeps its steps, ``step(beta)`` gives p - x, and
``screen`` may clear batches unevaluated.  The run's iterate lives in the
state's coordinates, an isometric image of space, so that every norm is
v.dot(v): the point itself for a state in space, the weighted half
spectrum for the image family's.  The run maps them back to space, by the
state's ``point``, only for its records, its Fejer audit and its final
point.  The error-tolerant variant runs on a row state over the family's
bare ``evaluate``, which adds the errors to the rows; it draws the M
errors of an iteration at once.

An iteration whose drawn members all fix x leaves x unchanged (p = x,
so L = 1 and a = x).  The state reports such a batch by returning None,
so the iteration neither builds nor scans zero rows: it consumes its
relaxation draw and skips the arithmetic of steps 3-5 (the error-tolerant
variant's state reports none, since its rows carry the errors).  Its
record needs none either: p = a = x, L = 1, the drawn lam and the weights
of M zero residuals, which the run checks once rather than on every such
record.  A state may report a batch all-fixed without evaluating it, from
a certificate (the signal experiment's screen); that is the answer an
evaluation would give, so the bits are the same.  The run starts from
x0 + 0.0: the full update turns a -0.0 coordinate into +0.0, so with none
in x0 both paths give the same bits.

A state with a ``screen`` also lets the run skip whole stretches of no-op
iterations.  Once a step has left x unchanged, the run screens the next
batches of the current index chunk in growing windows (4, 16, 64, ...
batches), up to the first batch the screen cannot clear, and hands the
loop the relaxations drawn for the cleared ones.  The loop
(``fixedpoint._iterate``) takes those iterations at once.  A stretch ends
before the budget's last iteration and before the iteration at which
``stop_patience`` quiet iterations would stop the run, so that the last
row, the stop row and the stop reason always come from a step.  Its
recorded rows enter the trace in one call, with residual 0, L = 1, the dB
value of x and one shared ``elapsed_s`` stamp, and each iteration gets its
no-op record.  A stretch consumes the same draws as its iterations would
one at a time, so seeded outputs are the same bits as without it.

The error-tolerant variant skips the extrapolation (a = p) and requires
relaxations supported inside ]0, 2[.  Indices, errors and relaxations each
come from their own substream of the run's seed; indices and relaxations
are drawn in chunks of up to 1024 iterations ahead of use.  Weights under the two
built-in rules are deterministic functions of the residuals, so no draw
occurs for them.  Draws never cross streams, so however far ahead a stream
is drawn, lam stays independent of the sigma-algebra of the evaluations.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import relaxation as rx
from .diagnostics import audit_fejer_step
from .exceptions import ConfigurationError, InvariantViolationError, UsageError
from .fixedpoint import DecayingNoise, _check_schedule_certificate, _iterate
from .geometry import as_point, require_same_dim
from .operators import _IndexedFamily, _RowState
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


def _extrapolation(r: np.ndarray, w: np.ndarray, pmx: float) -> float:
    """L = (sum_i w_i r_i^2 + [p = x]) / (||p - x||^2 + [p = x]) on checked arrays."""
    indicator = 1.0 if pmx == 0.0 else 0.0
    return (float(w.dot(r * r)) + indicator) / (pmx * pmx + indicator)


@dataclass
class BlockConfig:
    """Configuration of a block-iterative run.

    Every variant needs the damping E[lam (2 - lam)] > 0 and delta in
    ]0, 1/M[.  ``error_schedule`` switches to the error-tolerant variant,
    which uses the averaged point directly (no extrapolation), restricts the
    relaxation support to ]0, 2[ and needs summable errors.
    ``collect_records`` observes the run and leaves its bits unchanged.
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
        if math.isnan(self.atol):
            raise ConfigurationError("atol must be a number, got nan")
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
    """Audit record of one iteration (emitted when collect_records is set);
    a no-op iteration's shares x as ``p`` and ``a``, with L = 1."""

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
    batches = family.draws(substream(cfg.seed, "index"), m)
    lams = cfg.relaxation.draws(substream(cfg.seed, "relaxation"))
    # the current chunk of each stream, and the position of its next draw
    ks_chunk = lam_chunk = ()
    ks_at = lam_at = 0
    x0 = as_point(x0, "x0") + 0.0   # -0.0 -> +0.0, see the module docstring
    state = family.run_state(x0)   # checks x0 against the family
    errors = cfg.error_schedule
    if errors is not None:
        # the errors go on rows in space; that state neither screens nor
        # reports a batch all-fixed, so iteration n makes the n-th draw
        noise_rng = substream(cfg.seed, "noise")
        state = _RowState(family.evaluate, (errors.sample_rows(n, m, x0.size, noise_rng)
                                            for n in itertools.count()))
    evaluate, mean_step, screen, point = state.evaluate, state.step, state.screen, state.point
    if reference_solution is not None:
        reference_solution = state.coordinates(reference_solution)
    zs = [as_point(z, "fejer point") for z in fejer_points] if fejer_points else []
    for z in zs:
        require_same_dim(z, x0, "fejer point")
    records: Optional[list] = [] if cfg.collect_records else None
    # the weights of M zero residuals, for no-op records and the uniform rule
    noop_r = np.zeros(m)
    noop_beta = compute_weights(noop_r, cfg.delta, cfg.weight_rule)
    uniform = cfg.weight_rule == UNIFORM_OVER_BATCH
    if records is not None:
        # every no-op record holds these weights and L = 1: one check covers them all
        BlockIterationRecord(-1, (), noop_beta, x0, 1.0, x0, 1.0).validate(cfg.delta, noop_r)

    def record(n, ks, beta, p, extrap, a, lam, r=None):
        """Append the record of iteration n, validated against the residuals
        ``r``; a no-op record passes none, its check was made once."""
        rec = BlockIterationRecord(n, tuple(ks.tolist()), beta, p, extrap, a, lam)
        if r is not None:
            rec.validate(cfg.delta, r)
        records.append(rec)

    violations = 0
    worst = 0.0

    def step(n, x, want):
        nonlocal ks_chunk, ks_at, lam_chunk, lam_at
        if ks_at == len(ks_chunk):
            ks_chunk, ks_at = next(batches), 0
        if lam_at == len(lam_chunk):
            lam_chunk, lam_at = next(lams), 0
        ks, lam = ks_chunk[ks_at], lam_chunk[lam_at]
        ks_at += 1
        lam_at += 1
        r = evaluate(ks, x)
        if r is None:   # every drawn member fixes x
            if records is not None:
                xs = point(x)
                record(n, ks, noop_beta, xs, 1.0, xs, lam)
            return x, 0.0, lam, 1.0
        beta = noop_beta if uniform else compute_weights(r, cfg.delta, cfg.weight_rule)
        # the averaged point enters only through p - x; working with the
        # steps directly keeps the indicator branch [p = x] exact when every
        # drawn operator fixes x
        avg_step = mean_step(beta)
        pmx = math.sqrt(float(avg_step.dot(avg_step)))
        # x_next = x + lam (a - x), a = x + L (p - x), in one new buffer;
        # avg_step stays as it is, since observe reads it
        if errors is None:
            extrap = _extrapolation(r, beta, pmx)
            if extrap < 1.0 - _EXTRAPOLATION_SLACK:
                raise InvariantViolationError(
                    f"extrapolation {extrap!r} below 1 at iteration {n}"
                )
            x_next = avg_step * extrap
            x_next += x
        else:
            extrap = 1.0
            x_next = avg_step + x
        x_next -= x
        x_next *= lam
        x_next += x
        if zs or records is not None:
            observe(n, ks, beta, r, x, avg_step, x_next, extrap, lam)
        return x_next, float(r.max()) if want else None, lam, extrap

    def observe(n, ks, beta, r, x, d, x_next, extrap, lam):
        """The Fejer audit and the record of an evaluated step, in space."""
        nonlocal violations, worst
        # x first: the box or the last audit may have mapped it back already
        x = point(x)
        d = point(d)
        a = x + extrap * d
        if zs:
            count, deficit = audit_fejer_step(x, point(x_next), lam, x - a, zs)
            violations += count
            worst = max(worst, deficit)
        if records is not None:
            record(n, ks, beta, x + d, extrap, a, lam, r)

    def skip(n, x, limit):
        """The relaxations of iterations n + 1 .. n + j, j <= limit, that the
        state's screen proves no-ops at x, over the current chunks."""
        nonlocal ks_at, lam_at
        limit = min(limit, len(ks_chunk) - ks_at, len(lam_chunk) - lam_at)
        j, width = 0, 4
        while j < limit:
            width = min(width, limit - j)
            cleared = screen(ks_chunk[ks_at + j:ks_at + j + width], x)
            j += cleared
            if cleared < width:   # the first batch that the screen cannot clear
                break
            width *= 4
        if records is not None:
            xs = point(x)
            for i in range(j):
                record(n + 1 + i, ks_chunk[ks_at + i], noop_beta, xs, 1.0, xs,
                       lam_chunk[lam_at + i])
        ks_at += j
        lam_at += j
        return lam_chunk[lam_at - j:lam_at]

    # the residual only samples M random operators, so a single quiet
    # iteration proves nothing; require stop_patience consecutive ones
    x, trace = _iterate(step, state.coordinates(x0), cfg.max_iters, cfg.atol, cfg.record_every,
                        patience=cfg.stop_patience, reference=reference_solution,
                        skip=None if screen is None else skip)
    return BlockResult(point(x), trace, records, violations, worst)
