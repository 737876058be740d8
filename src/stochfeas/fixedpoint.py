"""Randomly relaxed fixed point drivers.

Two iterations on top of one loop skeleton, which the block iteration of
:mod:`stochfeas.block` shares:

* relaxed iteration with stochastic errors for an alpha-averaged T,
      x_{n+1} = x_n + mu_n (T x_n + e_n - x_n),     mu_n in ]0, 1/alpha[,
  where alpha = 1 is the nonexpansive case, mu_n in ]0, 1[;
* stochastic gradient descent for a 1/beta-Lipschitz-gradient objective,
      x_{n+1} = x_n - gamma_n grad g_{k_n}(x_n),    gamma_n = 2 beta / (n + 1)^nu,
  with nu in ]2/3, 1] and an unbiased, bounded-variance gradient family
  of quadratics centred at points t_k, grad g_k(x) = x - t_k; the residual
  column is ||grad f(x_n)|| = ||x_n - c||.  SGD advances the rest of each
  index chunk in one call of the loop, one Python-float recurrence per
  coordinate, which the loop guards as one stack of iterates.

Each driver checks the shape of its points where they enter (x0 against
the family, or every T x), so the loop checks no step's shape, and each
config's ``__post_init__`` checks its run's hypotheses; for SGD that
includes unbiasedness, exactly, from the family's offsets.  Relaxation
draws come from the run's "relaxation" substream, noise draws from the
"noise" substream and gradient indices from the "index" substream, the
only one an SGD run draws from.
Relaxations and indices are drawn ahead of use, in the chunks of
``rngstreams.chunk_sizes``; draws never cross streams, so mu_n is
independent of the noise sigma-algebra by stream separation, however far
ahead a stream is drawn.  A run is single-threaded and owns its streams;
distinct runs never share state.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import relaxation as rx
from .diagnostics import ratio_db
from .exceptions import ConfigurationError, NumericError, UsageError
from .geometry import as_point, require_same_dim
from .operators import _IndexedFamily
from .rngstreams import substream
from .trace import ConvergenceTrace

DIVERGENCE_NORM = 1e12
_UNBIASED_TOL = 1e-9   # see SgdConfig


# ---------------------------------------------------------------------------
# Error schedules.
# ---------------------------------------------------------------------------

class DecayingNoise:
    """Bounded gaussian-like noise with ||e_n|| <= c / (n + 1)^q.

    The direction is an isotropic gaussian draw with norm capped at 1.  The
    schedule certifies sum_n sqrt(E||e_n||^2) < inf iff q > 1, which with a
    fixed relaxation distribution is exactly the summability requirement
    sum_n sqrt(E mu_n^2  E||e_n||^2) < inf.
    """

    def __init__(self, c: float, q: float):
        if not (c > 0.0 and math.isfinite(c)):
            raise UsageError(f"noise scale c must be positive, got {c}")
        if not math.isfinite(q):
            raise UsageError(f"noise decay q must be finite, got {q}")
        self.c = float(c)
        self.q = float(q)

    @property
    def declares_summable(self):
        return self.q > 1.0

    def sample(self, n, dim, rng):
        """The error e_n of iteration n, of length ``dim``."""
        return self.sample_rows(n, 1, dim, rng)[0]

    def sample_rows(self, n, m, dim, rng):
        """m errors of iteration n, shape (m, dim), from one draw: the same
        bits, and the same state of ``rng`` after, as m ``sample`` calls.

        ``standard_normal((m, dim))`` draws the m rows in turn.  Each row's
        norm is sqrt(g_i . g_i), which is how ``np.linalg.norm`` takes it;
        ``_squared_norms`` forms each dot product the same way.
        """
        g = rng.standard_normal((m, dim))
        norms = np.sqrt(_squared_norms(g))
        capped = norms > 1.0
        g[capped] /= norms[capped, None]
        try:
            bound = self.c / (n + 1.0) ** self.q
        except OverflowError:
            bound = 0.0   # (n + 1)^q is above every float, so the bound is below every float
        return bound * g

    def describe(self):
        return f"decaying(c={self.c:g}, q={self.q:g})"


def _check_schedule_certificate(schedule: Optional[DecayingNoise]) -> None:
    """Reject a schedule whose errors are not summable; None (no errors) passes."""
    if schedule is not None and not schedule.declares_summable:
        raise ConfigurationError(
            "summability certificate violated: "
            "sum_n sqrt(E mu_n^2 E||e_n||^2) diverges for the configured schedule"
        )


# ---------------------------------------------------------------------------
# Configurations.
# ---------------------------------------------------------------------------

@dataclass
class KmConfig:
    """Configuration of the relaxed fixed point runs.

    ``alpha`` is the averagedness constant of T (1 for a nonexpansive T);
    the relaxation must be supported inside ]0, 1/alpha[.  Without an
    ``error_schedule`` the iteration is error free.
    """

    mu_strategy: rx.RelaxationStrategy
    max_iters: int
    seed: int
    alpha: float = 1.0
    error_schedule: Optional[DecayingNoise] = None
    atol: float = 1e-10

    def __post_init__(self):
        if self.max_iters < 1:
            raise ConfigurationError("max_iters must be >= 1")
        if math.isnan(self.atol):
            raise ConfigurationError("atol must be a number, got nan")
        if not (0.0 < self.alpha <= 1.0):
            raise ConfigurationError(f"alpha in ]0, 1] violated: got {self.alpha}")
        rx.require_support_inside(self.mu_strategy, 0.0, 1.0 / self.alpha,
                                  f"mu_n in ]0, 1/alpha[ = ]0, {1.0 / self.alpha:g}[ violated")
        _check_schedule_certificate(self.error_schedule)


@dataclass
class SgdConfig:
    """Configuration of the stochastic gradient runs.

    The family must be unbiased, E grad g_k(x) = grad f(x), which for the
    quadratic family is a zero mean of its offsets w_k.  It is checked
    exactly: ||mean_k w_k|| <= tol sqrt(xi), where xi is the family's
    variance bound, so zero offsets admit only an exact zero mean.  The
    check is scale-free: both sides are formed from the offsets over s, the
    largest |w| rounded down to a power of two.  That division is exact, so
    no decision in the normal range changes, and offsets near 1e-200 or
    1e200, whose xi underflows to 0 or overflows to inf, are judged as
    offsets near 1 are.

    tol = 1e-9, about 9e6 u with u = 2^-53, is rounding's room.  Recentring
    K raw offsets that share a common shift v, by subtracting their mean,
    leaves a mean within (K - 1) u max_k |w_k| per entry of zero, and the
    subtractions and this check's own mean add (K + 1) u sqrt(xi): to first
    order at most (2K + 1)(R + sqrt(dim)) u sqrt(xi) in all, for a shift
    ||v|| = R sqrt(xi).  The tolerance covers K = 1000 members with R +
    sqrt(dim) up to 4,500.  Any bias that matters is far above it: a mean b
    moves the run's limit from c to c + b, and the iterates' own noise,
    of order sqrt(gamma_n xi), stays above 1e-9 sqrt(xi) for any run
    shorter than about 1e17 steps.
    """

    beta: float
    nu: float
    max_iters: int
    seed: int
    gradient_family: "GradientFamily"
    record_every: int = 1

    def __post_init__(self):
        if not (self.beta > 0.0 and math.isfinite(self.beta)):
            raise ConfigurationError(f"beta must be positive, got {self.beta}")
        if not (2.0 / 3.0 < self.nu <= 1.0):
            raise ConfigurationError(f"nu in ]2/3, 1] violated: got {self.nu}")
        if self.max_iters < 1:
            raise ConfigurationError("max_iters must be >= 1")
        if self.record_every < 1:
            raise ConfigurationError("record_every must be >= 1")
        s, w, spread = _scaled(self.gradient_family.offsets)
        # hypot does not underflow, so a nonzero mean never reads 0
        bias = math.hypot(*w.mean(axis=0))
        bound = _UNBIASED_TOL * math.sqrt(spread)
        if not bias <= bound:
            raise ConfigurationError(
                f"unbiasedness E grad g_k(x) = grad f(x) violated: ||mean_k w_k|| = {s * bias:.3e} "
                f"> {_UNBIASED_TOL:g} sqrt(xi) = {s * bound:.3e}"
            )


class GradientFamily(_IndexedFamily):
    """Stochastic gradients of f(x) = ||x - c||^2 / 2 under a uniform index
    law.  Member k is the quadratic ||x - t_k||^2 / 2 centred at its minimizer
    t_k = c + w_k, so grad g_k(x) = x - t_k.  The family holds ``center`` c,
    ``offsets`` w_k and ``minimizers`` t_k as arrays, formed once; a run
    reads the minimizers coordinate by coordinate (see :func:`run_sgd`).

    ``center`` must be a finite point and ``offsets`` a finite (K, dim)
    array; the family is unbiased when the offsets have zero mean, which
    :func:`quadratic_family` ensures and :class:`SgdConfig` checks.
    ``variance_bound`` is the declared xi = max_k ||w_k||^2 >=
    E||grad g_k(x) - grad f(x)||^2; it reads 0 or inf where xi is below
    or above the float range, which the unbiasedness check does not use.
    """

    def __init__(self, center, offsets):
        center = as_point(center, "center")
        offsets = np.asarray(offsets, dtype=np.float64)
        if offsets.ndim != 2 or offsets.shape[1] != center.shape[0]:
            raise UsageError("offsets must be a (K, dim) array matching the center")
        if not np.all(np.isfinite(offsets)):
            raise UsageError("offsets contain non-finite entries")
        super().__init__(offsets.shape[0])
        self.center = center
        self.offsets = offsets
        self.minimizers = center + offsets
        s, _, spread = _scaled(offsets)
        # Python floats: s * s may underflow to 0 or overflow to inf, silently
        self.variance_bound = s * s * spread


def _scaled(offsets: np.ndarray) -> tuple[float, np.ndarray, float]:
    """(s, w = offsets / s, max_k ||w_k||^2) for s the largest |offset|
    rounded down to a power of two (1 for zero offsets).  The division is
    exact for every entry above 2^-1022 s, and the largest |w| lies in
    [1, 2[, so for nonzero offsets
    max_k ||w_k||^2 lies in [1, 4 dim[: it neither overflows nor underflows."""
    top = float(np.max(np.abs(offsets)))
    s = math.ldexp(1.0, math.frexp(top)[1] - 1) if top > 0.0 else 1.0
    w = offsets / s
    return s, w, float(np.max(np.sum(w ** 2, axis=1)))


def quadratic_family(center, offsets) -> GradientFamily:
    """Built-in family for f(x) = ||x - c||^2 / 2 of quadratics centred at c + w_k.

    Offsets are recentred to zero mean so the family is unbiased to
    rounding; the variance bound is max_k ||w_k||^2.
    """
    # the family checks the raw data before the recentring does arithmetic on it
    raw = GradientFamily(center, offsets)
    return GradientFamily(raw.center, raw.offsets - raw.offsets.mean(axis=0))


# ---------------------------------------------------------------------------
# Drivers.
# ---------------------------------------------------------------------------

def _norm(v: np.ndarray) -> float:
    """||v|| = sqrt(v . v), which is how ``np.linalg.norm`` takes it on a
    1-D array."""
    return math.sqrt(float(v @ v))


def _squared_norms(rows: np.ndarray) -> np.ndarray:
    """v . v for each row v of a C-contiguous 2-D array, as ``v.dot(v)`` forms
    it: the batched matmul of a 1 x dim by a dim x 1 operand takes each row's
    dot product the same way (einsum may sum in another order)."""
    return np.matmul(rows[:, None, :], rows[:, :, None]).reshape(len(rows))


def _distance_db(x: np.ndarray, ref: np.ndarray, ref_denom: float) -> float:
    """The dB distance of x to the reference point, over ``ref_denom``."""
    return ratio_db(_norm(x - ref), ref_denom)


def _iterate(advance, x0, max_iters: int, atol: float, record_every: int,
             patience: int = 1, reference=None) -> tuple[np.ndarray, ConvergenceTrace]:
    """The loop every driver runs: ``advance(n, x_n, limit)`` takes j
    iterations from x_n, 1 <= j <= limit, and returns ``(x_next, lams,
    residuals, extrap, path)``: x_{n+j}, the j relaxations, the residuals of
    x_n .. x_{n+j-1}, one extrapolation L shared by every row, and ``path``.

    ``path`` is None, or the C-contiguous (j, dim) stack of x_{n+1} ..
    x_{n+j}, whose last row is x_next; ``residuals`` is then one per row, and
    otherwise one float shared by every row.  A call of more than one
    iteration without a path is a no-op run, which returns x itself; a
    one-iteration call that leaves x unchanged may too, and the loop then
    skips the divergence guard, which x passed one iteration earlier (the
    guard still checks x0 at n = 0), and reuses the dB value last computed
    for x.  The guard takes every row of a path by ``_squared_norms`` and
    names the iteration of the first that fails.  A call of more than one
    iteration may return a path only on a run with no reference and atol <=
    0, since the loop can neither give its rows their dB values nor count
    their quiet iterations; otherwise it raises ``UsageError``.

    The run stops after ``patience`` consecutive iterations with ``residual
    < atol``, and ``limit`` is the budget's remaining iterations and, when
    ``atol > 0``, the quiet iterations still missing, so a stop, or the end
    of the budget, falls on a call's last row.  Row n of the trace is
    written when ``n % record_every == 0`` and on the last iteration,
    whether the budget ends there or the stop rule fires; it holds the
    residual, relaxation and extrapolation of iteration n and, when a
    ``reference`` point is given, the dB distance of x_n to it.  A call
    writes its last row through ``trace.append`` and the rows before it
    through ``trace._extend``, with one ``elapsed_s`` stamp that all of them
    share.

    The trace footer holds ``stop_reason``, ``atol`` and ``iterations_run``
    and, when a ``reference`` point is given, ``final_norm_err_db``: the dB
    distance of the final iterate to it, over the dB column's denominator.

    x0, the reference and the iterates are 1-D float64 vectors with the
    norm v.dot(v): points in space, or a block run's isometric coordinates
    of them (see ``operators._IndexedFamily``).
    """
    x = as_point(x0, "x0").copy()
    ref = db = db_x = None
    if reference is not None:
        ref = as_point(reference, "reference solution")
        require_same_dim(ref, x, "reference solution")
        ref_denom = _norm(x - ref)
        if ref_denom == 0.0:
            raise UsageError("x0 equals the reference solution; dB column undefined")
    trace = ConvergenceTrace()
    stop_reason = "max_iters"
    quiet = 0
    checks_atol = atol > 0.0   # no residual falls below an atol <= 0
    limit_sq = DIVERGENCE_NORM ** 2
    start = time.perf_counter()
    n = 0
    # entered once per run: overflow and NaN are left to the divergence
    # guard, which names their iteration, rather than raised as warnings in a
    # step or in the guard's own squares
    with np.errstate(over="ignore", invalid="ignore"):
        while n < max_iters:
            limit = max_iters - n if not checks_atol else min(max_iters - n, patience - quiet)
            x_next, lams, residuals, extrap, path = advance(n, x, limit)
            j = len(lams)
            end = n + j   # the call took iterations n .. end - 1
            if path is None:
                if x_next is not x or n == 0:
                    # NaN and inf fail the comparison; ndarray.dot is bit-equal to @
                    # on 1-D float64 and cheaper
                    if not x_next.dot(x_next) <= limit_sq:
                        raise NumericError(f"iterate diverged at iteration {n}")
            else:
                if j > 1 and (ref is not None or checks_atol):
                    raise UsageError(f"a call of {j} iterations returned a path on a run "
                                     "with a reference or atol > 0")
                # the first row that fails; NaN fails the comparison, and a
                # square that overflows fails it as inf
                failed = np.flatnonzero(~(_squared_norms(path) <= limit_sq))
                if failed.size:
                    raise NumericError(f"iterate diverged at iteration {n + int(failed[0])}")
            if checks_atol:
                quiet = quiet + j if (residuals if path is None else residuals[0]) < atol else 0
            stopping = quiet >= patience
            last = (end - 1) % record_every == 0 or end == max_iters or stopping
            if j > 1:
                # the rows before the last that record_every selects; row i is
                # iteration n + i
                picked = slice((-n) % record_every, j - 1, record_every)
                rows = range(n, end)[picked]
            else:
                rows = ()
            if rows or last:
                if ref is not None and x is not db_x:
                    db, db_x = _distance_db(x, ref, ref_denom), x
                elapsed = time.perf_counter() - start
                if rows:
                    trace._extend(rows, elapsed, residuals if path is None else residuals[picked],
                                  db, lams[picked], extrap)
                if last:
                    trace.append(end - 1, elapsed, residuals if path is None else residuals[-1],
                                 db, lams[-1], extrap)
            x, n = x_next, end
            if stopping:
                stop_reason = "atol"
                break
    trace.footer.update(stop_reason=stop_reason, atol=atol, iterations_run=n)
    if ref is not None:
        trace.footer["final_norm_err_db"] = db if x is db_x else _distance_db(x, ref, ref_denom)
    return x, trace


def run_km(T, cfg: KmConfig, x0) -> tuple[np.ndarray, ConvergenceTrace]:
    """Relaxed iteration x_{n+1} = x_n + mu_n (T x_n + e_n - x_n) for a
    ``cfg.alpha``-averaged T, with mu_n supported inside ]0, 1/alpha[."""
    errors = cfg.error_schedule
    noise_rng = substream(cfg.seed, "noise")
    mus = itertools.chain.from_iterable(cfg.mu_strategy.draws(substream(cfg.seed, "relaxation")))

    def advance(n, x, limit):
        t = np.asarray(T(x), dtype=np.float64)
        if t.shape != x.shape:   # T x - x would broadcast, or fail inside numpy
            require_same_dim(t, x, f"the point T x of step {n} and x0")
        d = t - x
        residual = _norm(d)
        if errors is not None:
            d = d + errors.sample(n, x.shape[0], noise_rng)
        mu = next(mus)
        return x + mu * d, (mu,), residual, 1.0, None

    x, trace = _iterate(advance, x0, cfg.max_iters, cfg.atol, 1)
    trace.footer["errors"] = "zero" if errors is None else errors.describe()
    return x, trace


def run_sgd(cfg: SgdConfig, x0) -> tuple[np.ndarray, ConvergenceTrace]:
    """Stochastic gradient descent with steps gamma_n = 2 beta / (n + 1)^nu.

    Each call of ``advance`` (see ``_iterate``) takes the rest of the
    current index chunk (see ``rngstreams.chunk_sizes``) as one Python-float
    recurrence per coordinate: coordinate i of x_{m+1} is ``xi - (xi -
    t_k[i]) * gamma_m``, the three IEEE operations of the array step x_m -
    gamma_m (x_m - t_k), so the same bits, at O(dim) interpreted float
    operations per step and none of numpy's per-call cost.  The residual
    column holds ||grad f(x_n)|| = ||x_n - c||.
    """
    x0 = as_point(x0, "x0")
    family = cfg.gradient_family
    # a point of another length would pair its coordinates with the wrong t_k
    require_same_dim(x0, family.center, "x0 and the quadratic family")
    chunks = map(np.ndarray.tolist, family.draws(substream(cfg.seed, "index")))
    ks, at = [], 0   # the current index chunk, and the position of its next draw
    columns = family.minimizers.T.tolist()   # coordinate i of every t_k
    center = family.center
    beta, nu = cfg.beta, cfg.nu

    def advance(n, x, limit):
        nonlocal ks, at
        if at == len(ks):
            ks, at = next(chunks), 0
        j = min(limit, len(ks) - at)
        drawn = ks[at:at + j]
        at += j
        gammas = [2.0 * beta / (m + 1.0) ** nu for m in range(n, n + j)]
        stack = np.empty((j + 1, x.size))   # x_n .. x_{n+j}
        stack[0] = x
        for i, (xi, ti) in enumerate(zip(x.tolist(), columns)):
            stack[1:, i] = [xi := xi - (xi - ti[k]) * g for k, g in zip(drawn, gammas)]
        residuals = np.sqrt(_squared_norms(stack[:-1] - center)).tolist()
        return stack[-1], gammas, residuals, 1.0, stack[1:]

    # atol 0: an SGD run always takes its full budget
    return _iterate(advance, x0, cfg.max_iters, 0.0, cfg.record_every)
