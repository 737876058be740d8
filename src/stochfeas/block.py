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

Both variants make the update of steps 4 and 5 in one new buffer, L (p -
x) + x - x, scaled by lam, plus x: the same operations in the same order
as x + lam ((x + L (p - x)) - x), so the same bits, without the three
temporaries.  The error-tolerant variant takes it with L = 1.0, since
(p - x) 1.0 is p - x bit for bit.

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

A state with a ``screen`` also lets the run take whole runs of no-op
iterations at once.  Once a batch has left x unchanged, the run screens the
next batches of the current chunk in growing windows (4, 16, 64, ...
batches), up to the first batch the screen cannot clear or the ``limit``
of the loop's call (``fixedpoint._iterate``), and returns the batch and the
cleared ones as one no-op run: the relaxations drawn for them, residual 0
and L = 1.  The loop writes its recorded rows with the dB value of x and
one shared ``elapsed_s`` stamp, and each iteration gets its no-op record.
A no-op run consumes the same draws as its iterations would one at a
time, so seeded outputs are the same bits as without it.

The error-tolerant variant skips the extrapolation (a = p) and requires
relaxations supported inside ]0, 2[.  Indices, errors and relaxations each
come from their own substream of the run's seed; indices and relaxations
are drawn ahead of use in the chunks of ``rngstreams.chunk_sizes``, which
line up, so one position walks the two.  Weights under the two
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


class RunTape:
    """The first ``budget`` iterations of one block run, call by call, and
    that run's own driver, so that a later run of the same draws plays them
    back and then goes on from where the first run stopped, instead of
    making them again (see ``run_block``).

    A call of the driver (see ``fixedpoint._iterate``) returns ``(x_next,
    lams, residual, L, None)``.  The tape keeps that tuple for every call
    that starts before ``budget``, holding the iterate arrays themselves,
    which no run changes in place; a call that left x in place keeps None
    for x_next, so that playback hands back the playing loop's own x.
    """

    def __init__(self, budget: int):
        self.budget = budget
        self._calls = []
        self._run = None       # what the taped run was, and its x0
        self._advance = None   # its driver, once the run has returned

    def _record(self, run, x0, advance):
        """``advance``, keeping its calls: the driver of the run that fills
        the tape."""
        self._run = run, x0
        calls, budget = self._calls, self.budget

        def taping(n, x, limit):
            out = advance(n, x, limit)
            if n < budget:
                calls.append(out if out[0] is not x else (None,) + out[1:])
            return out
        return taping

    def _play(self, run, x0, max_iters):
        """The driver of a run that takes the tape: the taped calls, then the
        taped run's driver from where it stopped.  A tape plays once, since
        that driver moves on."""
        if self._advance is None:
            raise UsageError("the tape holds no finished run that is not yet played")
        taped, taped_x0 = self._run
        if run != taped or not np.array_equal(x0, taped_x0) or max_iters > self.budget:
            raise UsageError("a tape plays back only to a run of its family, x0, seed, batch "
                             "size, delta, relaxation, weight rule and error schedule, "
                             "within its budget")
        calls, resume = self._calls, self._advance
        self._calls = self._advance = None
        count, at = len(calls), 0

        def play(n, x, limit):
            nonlocal at
            if at == count:
                return resume(n, x, limit)
            out = calls[at]
            at += 1
            if out[0] is None:
                # a no-op call, which may cross the end of this run's budget
                return (x, out[1][:limit]) + out[2:]
            return out
        return play


def run_block(
    family: _IndexedFamily,
    cfg: BlockConfig,
    x0,
    reference_solution=None,
    fejer_points: Optional[Sequence] = None,
    *,
    tape: Optional[RunTape] = None,
) -> BlockResult:
    """Run the block iteration from ``x0``.

    ``reference_solution`` enables the normalized-error dB column of the
    trace.  ``fejer_points`` is a diagnostics hook: for each supplied
    solution point z the per-iteration descent inequality

        ||x_next - z||^2 <= ||x - z||^2 - lam (2 - lam) ||x - a||^2
                            + 1e-9 ||x - z||^2

    is checked and violations are counted into the result.

    ``tape`` lets two runs with the same draws share them.  A run given an
    empty ``RunTape`` fills it with its first ``tape.budget`` iterations.
    A run given the filled tape plays them back and then goes on with the
    taped run's driver, so its trace, footer and final point are those of a
    run from ``x0`` bit for bit, but for ``elapsed_s``: the step does not
    depend on ``atol``, ``stop_patience``, ``record_every`` or the
    reference point, which may differ between the two runs.  The two runs
    must agree in the family, x0, seed, batch size, delta, relaxation,
    weight rule and error schedule, the playing run's budget must not
    exceed the tape's, and neither may collect records or audit Fejer
    points; otherwise the call raises ``UsageError``.  The playing run
    holds both runs' state until it returns.
    """
    m = cfg.batch_size
    # the two streams' chunks line up (see rngstreams.chunk_sizes), so one
    # position walks both: the current chunks, and the position of their next draws
    chunks = zip(family.draws(substream(cfg.seed, "index"), m),
                 cfg.relaxation.draws(substream(cfg.seed, "relaxation")))
    ks_chunk = lam_chunk = ()
    at = 0
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

    def advance(n, x, limit):
        nonlocal ks_chunk, lam_chunk, at
        if at == len(lam_chunk):
            (ks_chunk, lam_chunk), at = next(chunks), 0
        ks, lam = ks_chunk[at], lam_chunk[at]
        at += 1
        r = evaluate(ks, x)
        if r is None:
            # every drawn member fixes x: a no-op run of this batch and the
            # following batches of the current chunk that the screen clears
            # at x, in growing windows, up to the first it cannot clear
            end = 1 if screen is None else min(limit, len(lam_chunk) - at + 1)
            j, width = 1, 4
            while j < end:
                width = min(width, end - j)
                cleared = screen(ks_chunk[at:at + width], x)
                at += cleared
                j += cleared
                if cleared < width:
                    break
                width *= 4
            if records is not None:
                xs = point(x)
                for i in range(j):
                    record(n + i, ks_chunk[at - j + i], noop_beta, xs, 1.0, xs,
                           lam_chunk[at - j + i])
            return x, lam_chunk[at - j:at], 0.0, 1.0, None
        beta = noop_beta if uniform else compute_weights(r, cfg.delta, cfg.weight_rule)
        # the averaged point enters only through p - x; working with the
        # steps directly keeps the indicator branch [p = x] exact when every
        # drawn operator fixes x
        avg_step = mean_step(beta)
        pmx = math.sqrt(float(avg_step.dot(avg_step)))
        # the error-tolerant variant does not extrapolate: a = p, L = 1
        extrap = _extrapolation(r, beta, pmx) if errors is None else 1.0
        if extrap < 1.0 - _EXTRAPOLATION_SLACK:
            raise InvariantViolationError(f"extrapolation {extrap!r} below 1 at iteration {n}")
        # x_next = x + lam (a - x), a = x + L (p - x), in one new buffer;
        # avg_step stays as it is, since observe reads it
        x_next = avg_step * extrap
        x_next += x
        x_next -= x
        x_next *= lam
        x_next += x
        if zs or records is not None:
            observe(n, ks, beta, r, x, avg_step, x_next, extrap, lam)
        return x_next, (lam,), float(r.max()), extrap, None

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

    drive = advance
    filling = False
    if tape is not None:
        if zs or records is not None:
            raise UsageError("a run with a tape neither collects records nor audits Fejer points")
        run = (family, cfg.seed, m, cfg.delta, cfg.relaxation, cfg.weight_rule, errors)
        filling = tape._run is None
        drive = tape._record(run, x0, advance) if filling else tape._play(run, x0, cfg.max_iters)
    # the residual only samples M random operators, so a single quiet
    # iteration proves nothing; require stop_patience consecutive ones
    x, trace = _iterate(drive, state.coordinates(x0), cfg.max_iters, cfg.atol, cfg.record_every,
                        patience=cfg.stop_patience, reference=reference_solution)
    if filling:
        tape._advance = advance
    return BlockResult(point(x), trace, records, violations, worst)
