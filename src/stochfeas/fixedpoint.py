"""Randomly relaxed fixed point drivers.

Two iterations on top of one loop skeleton, which the block iteration of
:mod:`stochfeas.block` shares:

* relaxed iteration with stochastic errors for an alpha-averaged T,
      x_{n+1} = x_n + mu_n (T x_n + e_n - x_n),     mu_n in ]0, 1/alpha[,
  where alpha = 1 is the nonexpansive case, mu_n in ]0, 1[;
* stochastic gradient descent for a 1/beta-Lipschitz-gradient objective,
      x_{n+1} = x_n - gamma_n grad g_{k_n}(x_n),    gamma_n = 2 beta / (n + 1)^nu,
  with nu in ]2/3, 1] and an unbiased, bounded-variance gradient family.

Relaxation draws come from the run's "relaxation" substream and noise draws
from the "noise" substream, so mu_n is independent of the noise sigma-algebra
by stream separation.  Draw order per iteration is fixed: error first, then
relaxation.  A run is single-threaded and owns its streams; distinct runs
never share state.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from . import relaxation as rx
from .diagnostics import ratio_db
from .exceptions import ConfigurationError, NumericError, UsageError
from .geometry import as_point
from .operators import _IndexedFamily, sample_indices
from .rngstreams import substream
from .trace import ConvergenceTrace

DIVERGENCE_NORM = 1e12
_SPOT_CHECK_SAMPLES = 10_000   # Monte-Carlo draws of the unbiasedness spot-check


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
        g = rng.standard_normal(dim)
        norm = float(np.linalg.norm(g))
        if norm > 1.0:
            g /= norm
        return (self.c / (n + 1.0) ** self.q) * g

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
        if not (0.0 < self.alpha <= 1.0):
            raise ConfigurationError(f"alpha in ]0, 1] violated: got {self.alpha}")
        rx.require_support_inside(self.mu_strategy, 0.0, 1.0 / self.alpha,
                                  f"mu_n in ]0, 1/alpha[ = ]0, {1.0 / self.alpha:g}[ violated")
        _check_schedule_certificate(self.error_schedule)


@dataclass
class SgdConfig:
    """Configuration of the stochastic gradient runs."""

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

    def step_size(self, n: int) -> float:
        return 2.0 * self.beta / (n + 1.0) ** self.nu


class GradientFamily(_IndexedFamily):
    """Indexed stochastic gradients with a uniform index law and declared variance bound.

    ``gradients`` maps an index to the callable grad g_k.  ``mean_gradient``
    is the deterministic grad f when available (used for trace residuals and
    the unbiasedness spot-check).  ``variance_bound`` is the declared xi with
    E||grad g_k(x) - grad f(x)||^2 <= xi.
    """

    def __init__(self, gradients: Sequence[Callable], mean_gradient: Optional[Callable],
                 variance_bound: float):
        super().__init__(len(gradients))
        if not (variance_bound >= 0.0 and math.isfinite(variance_bound)):
            raise UsageError(f"variance bound must be finite and >= 0, got {variance_bound}")
        self.gradients = list(gradients)
        self.mean_gradient = mean_gradient
        self.variance_bound = float(variance_bound)

    def draws(self, rng):
        """Endless index draws from ``rng``, taken 1024 uniforms at a time.

        Yields the same sequence as one-index ``sample_indices`` calls.
        """
        while True:
            yield from sample_indices(self, rng, 1024).tolist()

    def gradient(self, k: int, x: np.ndarray) -> np.ndarray:
        return np.asarray(self.gradients[k](x), dtype=np.float64)

    def spot_check_unbiased(self, x0: np.ndarray, rng) -> None:
        """Monte-Carlo check that the sample mean gradient at x0 is within
        3 sigma of the declared mean gradient, sigma = sqrt(xi / m), over
        m = 10,000 draws."""
        if self.mean_gradient is None:
            return
        acc = np.zeros_like(x0)
        for k in sample_indices(self, rng, _SPOT_CHECK_SAMPLES).tolist():
            acc += self.gradient(k, x0)
        acc /= _SPOT_CHECK_SAMPLES
        target = np.asarray(self.mean_gradient(x0), dtype=np.float64)
        dev = float(np.linalg.norm(acc - target))
        bound = 3.0 * math.sqrt(max(self.variance_bound, 1e-300) / _SPOT_CHECK_SAMPLES)
        if dev > bound and self.variance_bound > 0.0:
            raise ConfigurationError(
                f"unbiasedness spot-check failed at x0: |mean - grad f| = {dev:.3e} "
                f"> 3 sqrt(xi/m) = {bound:.3e}"
            )
        if self.variance_bound == 0.0 and dev > 1e-9 * (1.0 + float(np.linalg.norm(target))):
            raise ConfigurationError(
                f"zero-variance family deviates from mean gradient by {dev:.3e}"
            )


def quadratic_family(center, offsets) -> GradientFamily:
    """Built-in family for f(x) = ||x - c||^2 / 2 with grad g_k(x) = x - c - w_k.

    Offsets are recentred to zero mean so the family is exactly unbiased;
    the variance bound is max_k ||w_k||^2.
    """
    center = as_point(center, "center")
    offsets = np.asarray(offsets, dtype=np.float64)
    if offsets.ndim != 2 or offsets.shape[1] != center.shape[0]:
        raise UsageError("offsets must be a (K, dim) array matching the center")
    offsets = offsets - offsets.mean(axis=0)
    xi = float(np.max(np.sum(offsets ** 2, axis=1)))
    gradients = [
        (lambda w: (lambda x: x - center - w))(offsets[k]) for k in range(offsets.shape[0])
    ]
    return GradientFamily(gradients, lambda x: x - center, xi)


# ---------------------------------------------------------------------------
# Drivers.
# ---------------------------------------------------------------------------

def _iterate(step, x0, max_iters: int, atol: float, record_every: int,
             patience: int = 1, reference=None) -> tuple[np.ndarray, ConvergenceTrace]:
    """The loop every driver runs: ``x_{n+1}, residual, lam, L = step(n, x_n)``.

    The run stops after ``patience`` consecutive iterations with
    ``residual < atol``.  Row n of the trace is written when
    ``n % record_every == 0`` or on the stopping iteration; it holds the
    residual, relaxation and extrapolation of step n and, when a
    ``reference`` point is given, the dB distance of x_n to it.
    """
    x = as_point(x0, "x0").copy()
    ref = None
    if reference is not None:
        ref = as_point(reference, "reference solution")
        ref_denom = float(np.linalg.norm(x - ref))
        if ref_denom == 0.0:
            raise UsageError("x0 equals the reference solution; dB column undefined")
    trace = ConvergenceTrace()
    stop_reason = "max_iters"
    quiet = 0
    limit_sq = DIVERGENCE_NORM ** 2
    start = time.perf_counter()
    n = -1
    for n in range(max_iters):
        x_next, residual, lam, extrap = step(n, x)
        # NaN/Inf propagate into the squared norm, so one reduction covers both
        norm_sq = float(x_next @ x_next)
        if not math.isfinite(norm_sq) or norm_sq > limit_sq:
            raise NumericError(f"iterate diverged at iteration {n}")
        quiet = quiet + 1 if residual < atol else 0
        stopping = quiet >= patience
        if n % record_every == 0 or stopping:
            db = None if ref is None else ratio_db(float(np.linalg.norm(x - ref)), ref_denom)
            trace.append(n, time.perf_counter() - start, residual, db, lam, extrap)
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
    mu_rng = substream(cfg.seed, "relaxation")

    def step(n, x):
        d = np.asarray(T(x), dtype=np.float64) - x
        residual = math.sqrt(float(d @ d))
        if errors is not None:
            d = d + errors.sample(n, x.shape[0], noise_rng)
        mu = cfg.mu_strategy.sample(mu_rng)
        return x + mu * d, residual, mu, 1.0

    x, trace = _iterate(step, x0, cfg.max_iters, cfg.atol, 1)
    trace.footer["errors"] = "zero" if errors is None else errors.describe()
    return x, trace


def run_sgd(cfg: SgdConfig, x0) -> tuple[np.ndarray, ConvergenceTrace]:
    """Stochastic gradient descent with steps gamma_n = 2 beta / (n + 1)^nu.

    The trace residual column holds ||grad f(x_n)|| when the family declares
    its mean gradient, else the norm of the sampled gradient.
    """
    x0 = as_point(x0, "x0")
    family = cfg.gradient_family
    family.spot_check_unbiased(x0, substream(cfg.seed, "validation"))
    indices = family.draws(substream(cfg.seed, "index"))
    mean_grad = family.mean_gradient

    def step(n, x):
        gamma = cfg.step_size(n)
        g = family.gradient(next(indices), x)
        if mean_grad is not None:
            gf = np.asarray(mean_grad(x), dtype=np.float64)
            residual = math.sqrt(float(gf @ gf))
        else:
            residual = math.sqrt(float(g @ g))
        return x - gamma * g, residual, gamma, 1.0

    # atol 0: an SGD run always takes its full budget
    return _iterate(step, x0, cfg.max_iters, 0.0, cfg.record_every)
