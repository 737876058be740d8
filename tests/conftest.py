"""Shared test fixtures and independent oracles.

The oracles here deliberately avoid the library's own code paths: distance
to an intersection of half-spaces comes from Dykstra's alternating scheme,
relaxation draws are transcribed one ``rng.random()`` at a time rather than
taken from the solvers' chunks, and ``replay_block`` is the block iteration
as the paper states it, every iteration in full: the one reference that
every block replay test compares ``run_block`` against.  The subgradient
projector of a convex inequality and the Fourier-support projector of a
grid are the general forms of the image experiment's members;
``ball_value`` takes its ball values in space, and ``ball_constraint`` is a
ball as an inequality with its gradient.  The hyperslab projector
and the circulant rows are the scalar forms of ``LinearFamily`` and the
signal experiment's rows, and ``iterations_to_db`` reads a trace's dB
column.  ``replay_sgd`` is stochastic gradient descent on the quadratic
family from plain arrays, outside ``fixedpoint._iterate``.
``relaxation_cap`` is the cap rho of a relaxation law in criterion 9's rate,
and ``timing_free_text`` reads a command's artefact without its timing.
"""

import itertools
import json
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
import pytest

from stochfeas import fixedpoint, image
from stochfeas import relaxation as rx
from stochfeas.block import UNIFORM_OVER_BATCH, BlockIterationRecord
from stochfeas.exceptions import DegenerateConstraintError, NumericError
from stochfeas.geometry import as_point, require_same_dim
from stochfeas.image import _half, _half_inverse, _validate_fourier_target, validate_fourier_mask
from stochfeas.operators import LinearFamily, _IndexedFamily, sample_indices
from stochfeas.rngstreams import substream
from stochfeas.signal import circ_conv


def halfspace_proj_oracle(a, b, x):
    """Projection onto {z : <a, z> <= b} written independently."""
    a = np.asarray(a, dtype=float)
    x = np.asarray(x, dtype=float)
    excess = a @ x - b
    if excess <= 0:
        return x.copy()
    return x - excess * a / (a @ a)


def project_hyperslab(a, lo: float, hi: float, x) -> np.ndarray:
    """Projection onto the hyperslab {z : lo <= <a, z> <= hi}, written
    independently of ``LinearFamily``: ``x`` itself when the slab holds it."""
    a = np.asarray(a, dtype=float)
    x = np.asarray(x, dtype=float)
    v = float(a @ x)
    if v > hi:
        return x - ((v - hi) / float(a @ a)) * a
    if v < lo:
        return x - ((v - lo) / float(a @ a)) * a
    return x


def circulant_row(kernel: np.ndarray, j: int) -> np.ndarray:
    """Row j of the circulant matrix of ``kernel``: row_j[m] = kernel[(j-m) % n]."""
    base = np.roll(kernel[::-1], 1)
    return np.roll(base, j)


def slab_bounds(problem, k: int, j: int) -> tuple:
    """Normal and bounds of the signal problem's constraint
    -eta <= (L_k x - r_k)_j <= eta."""
    r = float(problem.observations[k, j])
    return circulant_row(problem.kernels[k], j), r - problem.eta, r + problem.eta


@dataclass(frozen=True)
class InequalityConstraint:
    """A convex inequality f(x) <= 0 with a subgradient selection s(x)."""

    value: Callable[[np.ndarray], float]
    subgradient: Callable[[np.ndarray], np.ndarray]
    name: str = ""


def subgradient_projector(constraint: InequalityConstraint, x) -> np.ndarray:
    """The subgradient projector of ``constraint`` at ``x``: ``x`` itself
    when f(x) <= 0, otherwise x - f(x) / ||s(x)||^2 s(x).

    The output lands in the half-space {z : f(x) + <s(x), z - x> <= 0},
    which contains the level set {f <= 0}.  A non-finite f(x) or a zero
    subgradient raises the package's errors, naming the constraint.
    """
    x = as_point(x, "x")
    fx = float(constraint.value(x))
    name = constraint.name or "?"
    if fx <= 0.0:
        return x
    if not math.isfinite(fx):
        raise NumericError(f"constraint {name}: f(x) = {fx} is not finite")
    s = as_point(constraint.subgradient(x), "subgradient")
    require_same_dim(s, x, "subgradient_projector")
    s_sq = float(s @ s)
    if s_sq == 0.0:
        raise DegenerateConstraintError(f"constraint {name}: f(x) = {fx} > 0 but s(x) = 0")
    return x - (fx / s_sq) * s


def project_fourier_support(target_spectrum, mask, x) -> np.ndarray:
    """Replace the DFT of the real grid ``x`` on the masked frequencies by
    the Hermitian part of ``target_spectrum``, once mask and target are
    validated; the output is the checked real inverse of the half spectrum.
    In the half spectrum the target's anti-Hermitian part lies in the
    self-conjugate columns: column 0, and column n2 / 2 when n2 is even."""
    mask = validate_fourier_mask(mask)
    target = _half(_validate_fourier_target(target_spectrum, mask)).copy()
    n1, n2 = mask.shape
    mirror = (-np.arange(n1)) % n1
    for c in [0, n2 // 2] if n2 % 2 == 0 else [0]:
        target[:, c] = (target[:, c] + np.conj(target[mirror, c])) * 0.5
    x = np.asarray(x, dtype=np.float64)
    half = _half(mask)
    spectrum = np.fft.rfft2(x)
    spectrum[half] = target[half]
    return _half_inverse(spectrum, x.shape)


def ball_value(problem, k: int, x) -> float:
    """f_k(x) = ||r_k - L x||^2 - xi of the image problem's ball k at the
    flattened image ``x``, in space: no spectrum of the problem's enters."""
    n = problem.n
    residual = problem.observations[k] - circ_conv(np.reshape(x, (n, n)), problem.kernel)
    return float(np.sum(residual ** 2)) - problem.xi


def ball_constraint(problem, k: int) -> InequalityConstraint:
    """Ball k of the image problem as an inequality: ``ball_value`` and its
    gradient 2 L^T (L x - r_k), L^T being the circular convolution with the
    index-reversed kernel."""
    n = problem.n
    adjoint = np.roll(problem.kernel[::-1, ::-1], 1, axis=(0, 1))

    def subgradient(x):
        residual = circ_conv(np.reshape(x, (n, n)), problem.kernel) - problem.observations[k]
        return 2.0 * circ_conv(residual, adjoint).ravel()

    return InequalityConstraint(lambda x: ball_value(problem, k, x), subgradient, f"ball {k}")


def iterations_to_db(trace, threshold_db: float) -> Optional[int]:
    """First recorded iteration at which the dB column crosses the threshold."""
    db = trace.db_column()
    if db is None:
        return None
    below = np.nonzero(db <= threshold_db)[0]
    if below.size == 0:
        return None
    return int(trace.iterations()[below[0]])


def dykstra_distance(normals, offsets, x, iters=4000):
    """Distance from x to the intersection of {<a_i, z> <= b_i} via Dykstra.

    Runs ``iters`` sweeps, but returns as soon as one sweep leaves y and
    every correction bit-unchanged: every later sweep would repeat it, so
    the value equals that of all ``iters`` sweeps exactly.
    """
    x = np.asarray(x, dtype=float)
    m = len(offsets)
    y = x.copy()
    corrections = [np.zeros_like(x) for _ in range(m)]
    for _ in range(iters):
        state = [y.tobytes()] + [c.tobytes() for c in corrections]
        for i in range(m):
            w = y + corrections[i]
            proj = halfspace_proj_oracle(normals[i], offsets[i], w)
            corrections[i] = w - proj
            y = proj
        if state == [y.tobytes()] + [c.tobytes() for c in corrections]:
            break
    return float(np.linalg.norm(y - x))


def random_halfspace_problem(rng, dim=10, count=20, margin_lo=0.1, margin_hi=1.0):
    """A consistent random feasibility problem with a known interior point.

    Returns (normals, offsets, family, center, margin): every half-space
    {<a_i, z> <= b_i} contains the ball of radius ``margin`` around
    ``center``, so points sampled inside that ball are true solutions.
    """
    center = rng.normal(size=dim)
    normals = rng.normal(size=(count, dim))
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    margins = rng.uniform(margin_lo, margin_hi, size=count)
    offsets = normals @ center + margins
    family = LinearFamily(normals, np.full(count, -np.inf), offsets)
    return normals, offsets, family, center, float(margins.min())


def sample_solution_points(rng, center, margin, count=5):
    """Points inside the common ball, hence inside every half-space."""
    dim = center.shape[0]
    pts = []
    for _ in range(count):
        u = rng.normal(size=dim)
        u *= rng.uniform(0.0, 0.9) * margin / np.linalg.norm(u)
        pts.append(center + u)
    return pts


def scalar_relaxation(strategy, rng):
    """One relaxation draw from ``rng``, transcribed from the strategy's law."""
    if isinstance(strategy, rx.Constant):
        return strategy.value
    if isinstance(strategy, rx.TwoPoint):
        return strategy.value_a if rng.random() < strategy.prob_a else strategy.value_b
    if isinstance(strategy, rx.UniformInterval):
        return strategy.lo + (strategy.hi - strategy.lo) * rng.random()
    raise TypeError(f"no transcription for {strategy!r}")


def relaxation_cap(strategy) -> float:
    """rho = max(2, sup of the support), which bounds every draw."""
    return max(2.0, strategy.support_bounds()[1])


def timing_free_text(path) -> str:
    """The text of a command's artefact without what timing writes into it:
    a trace CSV without its ``elapsed_s`` column, ``summary.json`` without
    ``wall_clock_s`` (as JSON with sorted keys), any other file as written."""
    text = path.read_text()
    if path.name == "summary.json":
        payload = json.loads(text)
        for run in payload["runs"]:
            del run["wall_clock_s"]
        return json.dumps(payload, sort_keys=True)
    if path.suffix != ".csv":
        return text
    out = []
    for line in text.splitlines(keepends=True):
        if not line.startswith("#"):
            parts = line.rstrip("\n").split(",")
            del parts[1]
            line = ",".join(parts) + "\n"
        out.append(line)
    return "".join(out)


def force_indices(monkeypatch, family, ks):
    """Make every index batch that ``run_block`` draws from ``family`` equal ``ks``:
    the family's index chunks become 16 copies of ``ks`` each."""
    chunk = np.tile(np.asarray(ks), (16, 1))
    monkeypatch.setattr(family, "draws", lambda rng, m=None: itertools.repeat(chunk))


def replay_block(family, cfg, x0, reference=None, evaluate=None):
    """The block iteration of ``cfg`` from ``x0``, every iteration in full:
    no no-op shortcut, screen or stretch.  Draws are scalar, one index per
    member.  The rows T_k x - x come from ``evaluate(k, x)`` one member at a
    time if given, else from the family's bare whole-batch ``evaluate`` (M
    fresh zero rows for an all-fixed batch), never from a run state, whose
    screen is code under test.  Only the image family's batches go through
    its run state when the run adds no errors, so that rounding matches:
    the replay then iterates in the state's coordinates, and maps the
    iterate and the step back to space for the records and the final
    point.  Every norm is v.dot(v).  Returns the final point, the trace and
    every record."""
    m = cfg.batch_size
    idx_rng, lam_rng, err_rng = (substream(cfg.seed, s) for s in ("index", "relaxation", "noise"))
    errors = cfg.error_schedule
    spectral = isinstance(family, image._ImageFamily) and errors is None and evaluate is None
    state = family.run_state(x0) if spectral else None
    records = []

    def step(n, x, want):
        ks = [sample_indices(family, idx_rng, 1).item() for _ in range(m)]
        lam = scalar_relaxation(cfg.relaxation, lam_rng)
        if evaluate is not None:
            rows = np.array([evaluate(k, x) for k in ks])
            out = rows, np.array([math.sqrt(float(d @ d)) for d in rows])
        elif state is not None:
            r = state.evaluate(ks, x)
            out = None if r is None else (None, r)
        else:
            out = family.evaluate(ks, x)
        rows, r = (np.zeros((m, x.size)), np.zeros(m)) if out is None else out
        if errors is not None:
            for d in rows:
                d += errors.sample(n, x.size, err_rng)
            r = np.array([math.sqrt(float(d @ d)) for d in rows])
        # weights: 1/M each, or delta on each near-max index plus an even share of the rest
        if cfg.weight_rule == UNIFORM_OVER_BATCH:
            beta = np.full(m, 1.0 / m)
        else:
            ties = r >= float(r.max()) * (1.0 - 1e-12)
            beta = np.full(m, (1.0 - cfg.delta * int(ties.sum())) / m)
            beta[ties] += cfg.delta
        if state is None:
            d = beta @ rows   # p - x
        else:
            d = np.zeros_like(x) if out is None else state.step(beta)
        pmx = math.sqrt(float(d @ d))
        # L = (sum_i beta_i r_i^2 + [p = x]) / (||p - x||^2 + [p = x]), or 1 with errors
        indicator = 1.0 if pmx == 0.0 else 0.0
        L = 1.0 if errors else (float(beta @ (r * r)) + indicator) / (pmx * pmx + indicator)
        a = x + L * d
        x_next = x + lam * (a - x)
        if state is not None:   # the record, in space
            x, d = state.point(x), state.point(d)
            a = x + L * d
        records.append(BlockIterationRecord(n, tuple(ks), beta, x + d, L, a, lam))
        return x_next, float(r.max()), lam, L

    # x0 as given, not + 0.0: a -0.0 coordinate meets the full arithmetic; and
    # every step returns a new array, so the loop needs no stretches
    if state is not None:
        x0 = state.coordinates(x0)
        if reference is not None:
            reference = state.coordinates(reference)
    x, trace = fixedpoint._iterate(step, x0, cfg.max_iters, cfg.atol, cfg.record_every,
                                   patience=cfg.stop_patience, reference=reference)
    return (x if state is None else state.point(x)), trace, records


def replay_sgd(center, offsets, beta, nu, max_iters, seed, x0, record_every=1):
    """Stochastic gradient descent from plain arrays, every step written
    out: the minimizers t_k = c + w_k of the recentred ``offsets`` w_k, one
    scalar index draw per step from the uniform law of len(w) members,
    gamma_n = 2 beta / (n + 1)^nu from its formula, and x_{n+1} = x_n -
    gamma_n (x_n - t_k).  Row n is recorded when n % record_every == 0 and
    on the last step, with the residual ||x_n - c||.  Returns the final point
    and the iter, residual and lambda columns."""
    targets = center + offsets
    law = _IndexedFamily(len(offsets))
    idx_rng = substream(seed, "index")
    x = np.array(x0, dtype=np.float64)
    columns = {"iter": [], "residual": [], "lambda": []}
    for n in range(max_iters):
        k = sample_indices(law, idx_rng, 1).item()
        gamma = 2.0 * beta / (n + 1.0) ** nu
        if n % record_every == 0 or n == max_iters - 1:
            d = x - center
            for name, value in zip(columns, (n, math.sqrt(float(d @ d)), gamma)):
                columns[name].append(value)
        x = x - gamma * (x - targets[k])
    return x, columns


def assert_same_run(res, final, trace, records=None):
    """``run_block``'s result equals a replay's bit for bit: the final point,
    the trace but its ``elapsed_s`` column and, when given, every record."""
    assert res.final.tobytes() == final.tobytes() and res.trace.footer == trace.footer
    assert {**res.trace.columns, "elapsed_s": None} == {**trace.columns, "elapsed_s": None}
    if records is not None:
        def bits(rec):
            return (rec.iteration, rec.indices, rec.extrapolation, rec.lam,
                    rec.weights.tobytes(), rec.p.tobytes(), rec.a.tobytes())
        assert list(map(bits, res.records)) == list(map(bits, records))


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
