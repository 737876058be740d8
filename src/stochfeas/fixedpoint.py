"""Randomly relaxed fixed point drivers.

Two iterations on top of one loop skeleton, which the block iteration of
:mod:`stochfeas.block` shares:

* relaxed iteration with stochastic errors for an alpha-averaged T,
      x_{n+1} = x_n + mu_n (T x_n + e_n - x_n),     mu_n in ]0, 1/alpha[,
  where alpha = 1 is the nonexpansive case, mu_n in ]0, 1[;
* stochastic gradient descent for a 1/beta-Lipschitz-gradient objective,
      x_{n+1} = x_n - gamma_n grad g_{k_n}(x_n),    gamma_n = 2 beta / (n + 1)^nu,
  with nu in ]2/3, 1] and an unbiased, bounded-variance gradient family
  of quadratics centred at points t_k: a step is three array operations,
  and the residual column is ||grad f(x_n)|| = ||x_n - c||.

Each driver checks the shape of its points where they enter (x0 against
the family, or every T x), so the loop checks no step's shape, and each
config's ``__post_init__`` checks its run's hypotheses; for SGD that
includes unbiasedness, exactly, from the family's offsets.  Relaxation
draws come from the run's "relaxation" substream, noise draws from the
"noise" substream and gradient indices from the "index" substream, the
only one an SGD run draws from.
Relaxations and indices are drawn in chunks of up to 1024 ahead of use;
draws never cross streams, so mu_n is independent of the noise sigma-algebra
by stream separation, however far ahead a stream is drawn.  A run is
single-threaded and owns its streams; distinct runs never share state.
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
        the batched matmul of a 1 x dim by a dim x 1 operand forms each dot
        product the same way (einsum may sum in another order).
        """
        g = rng.standard_normal((m, dim))
        norms = np.sqrt(np.matmul(g[:, None, :], g[:, :, None]).reshape(m))
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
    variance bound, so xi = 0 admits only an exact zero mean.

    tol = 1e-9, about 9e6 u with u = 2^-53, is rounding's room.  Recentring
    K raw offsets that share a common shift s, by subtracting their mean,
    leaves a mean within (K - 1) u max_k |w_k| per entry of zero, and the
    subtractions and this check's own mean add (K + 1) u sqrt(xi): to first
    order at most (2K + 1)(R + sqrt(dim)) u sqrt(xi) in all, for a shift
    ||s|| = R sqrt(xi).  The tolerance covers K = 1000 members with R +
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
        family = self.gradient_family
        # hypot does not underflow, so a nonzero mean never reads 0
        bias = math.hypot(*family.offsets.mean(axis=0))
        bound = _UNBIASED_TOL * math.sqrt(family.variance_bound)
        if not bias <= bound:
            raise ConfigurationError(
                f"unbiasedness E grad g_k(x) = grad f(x) violated: ||mean_k w_k|| = {bias:.3e} "
                f"> {_UNBIASED_TOL:g} sqrt(xi) = {bound:.3e}"
            )

    def step_size(self, n: int) -> float:
        return 2.0 * self.beta / (n + 1.0) ** self.nu


class GradientFamily(_IndexedFamily):
    """Stochastic gradients of f(x) = ||x - c||^2 / 2 under a uniform index
    law.  Member k is the quadratic ||x - t_k||^2 / 2 centred at its minimizer
    t_k = c + w_k, so grad g_k(x) = x - t_k is one subtraction.  The family
    holds ``center`` c and ``offsets`` w_k as arrays and ``minimizers`` t_k as
    a list of rows, formed once: a list lookup is cheaper than an array index.

    ``center`` must be a finite point and ``offsets`` a finite (K, dim)
    array; the family is unbiased when the offsets have zero mean, which
    :func:`quadratic_family` ensures and :class:`SgdConfig` checks.
    ``variance_bound`` is the declared xi = max_k ||w_k||^2 >=
    E||grad g_k(x) - grad f(x)||^2.
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
        self.minimizers = list(center + offsets)
        self.variance_bound = float(np.max(np.sum(offsets ** 2, axis=1)))

    def gradient(self, k: int, x: np.ndarray) -> np.ndarray:
        return x - self.minimizers[k]


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


def _distance_db(x: np.ndarray, ref: np.ndarray, ref_denom: float) -> float:
    """The dB distance of x to the reference point, over ``ref_denom``."""
    return ratio_db(_norm(x - ref), ref_denom)


def _iterate(step, x0, max_iters: int, atol: float, record_every: int,
             patience: int = 1, reference=None,
             skip=None) -> tuple[np.ndarray, ConvergenceTrace]:
    """The loop every driver runs: ``x_{n+1}, residual, lam, L = step(n, x_n, want)``.

    The step computes its residual only when ``want`` is true, and may
    return None for it otherwise; the loop wants it whenever ``atol > 0`` and
    on every recorded row.  The run stops after ``patience`` consecutive
    iterations with ``residual < atol``.  Row n of the trace is written when
    ``n % record_every == 0`` and on the last iteration, whether the budget
    ends there or the stop rule fires; it holds the residual, relaxation and
    extrapolation of step n and, when a ``reference`` point is given, the
    dB distance of x_n to it.  A step that leaves x unchanged may return x
    itself: the loop then skips the divergence guard, which x passed one
    iteration earlier (the guard still checks x0 at n = 0), and reuses the
    dB value last computed for x.

    After step n has returned x itself, the loop asks ``skip(n, x, limit)``, if
    given, for a stretch: the relaxations of iterations n + 1 .. n + j <= n +
    limit, each certified to leave x unchanged with residual 0 and L = 1.  The
    loop takes the j iterations at once.  A stretch ends before the
    budget's last iteration and before the iteration at which ``patience``
    quiet iterations would stop the run, so the last row, the stop row and
    the stop reason come from a step.  The rows of the stretch that
    ``record_every`` selects enter the trace in one call, with residual 0,
    L = 1, the dB value of x and one shared ``elapsed_s`` stamp.

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
    n = -1
    last = max_iters - 1
    iterations = iter(range(max_iters))
    for n in iterations:
        record = n % record_every == 0 or n == last
        x_next, residual, lam, extrap = step(n, x, record or checks_atol)
        if x_next is not x or n == 0:
            # NaN and inf fail the comparison; ndarray.dot is bit-equal to @
            # on 1-D float64 and cheaper
            if not x_next.dot(x_next) <= limit_sq:
                raise NumericError(f"iterate diverged at iteration {n}")
        if checks_atol:
            quiet = quiet + 1 if residual < atol else 0
        stopping = quiet >= patience
        if record or stopping:
            if ref is not None and x is not db_x:
                db, db_x = _distance_db(x, ref, ref_denom), x
            trace.append(n, time.perf_counter() - start, residual, db, lam, extrap)
        if skip is not None and x_next is x:
            # a stretch never reaches the last iteration nor the stop rule
            limit = last - 1 - n if not checks_atol else min(last - 1 - n, patience - 1 - quiet)
            lams = skip(n, x, limit) if limit > 0 else ()
            if lams:
                # the stretch is iterations n + 1 .. n + j; row i is recorded
                # when i % record_every == 0, its relaxation is lams[i - n - 1]
                j = len(lams)
                first = n + 1 + (-(n + 1)) % record_every
                rows = range(first, n + j + 1, record_every)
                if rows:
                    if ref is not None and x is not db_x:
                        db, db_x = _distance_db(x, ref, ref_denom), x
                    trace._extend(rows, time.perf_counter() - start, 0.0, db,
                                  lams[first - n - 1::record_every], 1.0)
                if checks_atol:
                    quiet += j
                n = next(itertools.islice(iterations, j - 1, None))
        x = x_next
        if stopping:
            stop_reason = "atol"
            break
    trace.footer.update(stop_reason=stop_reason, atol=atol, iterations_run=n + 1)
    return x, trace


def run_km(T, cfg: KmConfig, x0) -> tuple[np.ndarray, ConvergenceTrace]:
    """Relaxed iteration x_{n+1} = x_n + mu_n (T x_n + e_n - x_n) for a
    ``cfg.alpha``-averaged T, with mu_n supported inside ]0, 1/alpha[."""
    errors = cfg.error_schedule
    noise_rng = substream(cfg.seed, "noise")
    mus = itertools.chain.from_iterable(cfg.mu_strategy.draws(substream(cfg.seed, "relaxation")))

    def step(n, x, want):
        # run_km records every row, so the residual is always wanted
        t = np.asarray(T(x), dtype=np.float64)
        if t.shape != x.shape:   # T x - x would broadcast, or fail inside numpy
            require_same_dim(t, x, f"the point T x of step {n} and x0")
        d = t - x
        residual = math.sqrt(float(d @ d))
        if errors is not None:
            d = d + errors.sample(n, x.shape[0], noise_rng)
        mu = next(mus)
        return x + mu * d, residual, mu, 1.0

    x, trace = _iterate(step, x0, cfg.max_iters, cfg.atol, 1)
    trace.footer["errors"] = "zero" if errors is None else errors.describe()
    return x, trace


def run_sgd(cfg: SgdConfig, x0) -> tuple[np.ndarray, ConvergenceTrace]:
    """Stochastic gradient descent with steps gamma_n = 2 beta / (n + 1)^nu.

    A step is three array operations: the drawn member's gradient x_n - t_k,
    scaled in place by gamma_n, and x_n minus it.  The residual column holds
    ||grad f(x_n)|| = ||x_n - c||, formed only on the rows the trace records.
    """
    x0 = as_point(x0, "x0")
    family = cfg.gradient_family
    # a gradient x - t_k of another length would broadcast, or fail inside numpy
    require_same_dim(x0, family.center, "x0 and the quadratic family")
    indices = itertools.chain.from_iterable(
        map(np.ndarray.tolist, family.draws(substream(cfg.seed, "index"))))
    gradient = family.gradient
    center = family.center
    step_size = cfg.step_size

    def step(n, x, want):
        g = gradient(next(indices), x)
        gamma = step_size(n)
        g *= gamma
        return x - g, _norm(x - center) if want else None, gamma, 1.0

    # atol 0: an SGD run always takes its full budget
    return _iterate(step, x0, cfg.max_iters, 0.0, cfg.record_every)
