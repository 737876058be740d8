"""The signal restoration problem.

Recover a piecewise-polynomial signal of length n from p circularly blurred
observations r_k = L_k xbar + w_k with ||w_k||_inf <= eta.  Each scalar
bound -eta <= (L_k x - r_k)_j <= eta is one hyperslab constraint with an
exact projector, and the p n of them are one ``LinearFamily`` whose rows,
the circulant rows of the filters, are windows of the p kernels; the
feasibility problem is solved by the block-iterative algorithm from x0 = 0.
``SignalProblem`` checks its data and builds its family when it is built.
The family sweeps all p n slab values by one batched FFT convolution; the
problem's ``max_violation`` is the family's ``violation``, and its
clearance radii and screen are ``LinearFamily``'s.

The ground truth is a deterministic seeded piecewise polynomial.  The
circular Gaussian kernels and the FFT convolution are here too; the image
problem blurs with them as well.  Convolution boundary handling is circular
throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import UsageError
from .geometry import as_point, require_same_dim
from .operators import LinearFamily
from .rngstreams import substream


# ---------------------------------------------------------------------------
# Circular Gaussian convolution.
# ---------------------------------------------------------------------------

def gaussian_kernel_1d(n: int, std: float) -> np.ndarray:
    """Circular zero-mean Gaussian kernel of length n, normalized to sum 1."""
    d = np.minimum(np.arange(n), n - np.arange(n)).astype(np.float64)
    k = np.exp(-0.5 * (d / std) ** 2)
    return k / k.sum()


def gaussian_kernel_2d(n: int, std: float) -> np.ndarray:
    k = gaussian_kernel_1d(n, std)
    k2 = np.outer(k, k)
    return k2 / k2.sum()


def circ_conv(x: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Circular convolution via the FFT (any matching shape, 1-D or 2-D)."""
    return np.real(np.fft.ifftn(np.fft.fftn(x) * np.fft.fftn(kernel)))


# ---------------------------------------------------------------------------
# Signal problem.
# ---------------------------------------------------------------------------

@dataclass
class SignalProblem:
    n: int
    p: int
    eta: float
    stds: np.ndarray                 # (p,)
    kernels: np.ndarray              # (p, n) circular convolution kernels
    observations: np.ndarray         # (p, n)
    ground_truth: np.ndarray         # (n,) used for reporting only
    seed: int

    def __post_init__(self):
        # the data are checked once, here: a negative eta would give slabs
        # with lo > hi, and a NaN or a wrong shape fails only inside a run
        if not (math.isfinite(self.eta) and self.eta > 0.0):
            raise UsageError(f"eta must be finite and positive, got {self.eta}")
        for name in ("kernels", "observations"):
            data = np.asarray(getattr(self, name))
            if data.shape != (self.p, self.n):
                raise UsageError(f"{name} must have shape (p, n) = {(self.p, self.n)}, "
                                 f"got {data.shape}")
            if not np.all(np.isfinite(data)):
                raise UsageError(f"{name} must be finite")
        if not np.all(np.any(np.asarray(self.kernels) != 0.0, axis=1)):
            raise UsageError("kernels must have no zero row")
        if np.shape(self.ground_truth) != (self.n,):
            raise UsageError(f"ground_truth must have shape (n,) = {(self.n,)}, "
                             f"got {np.shape(self.ground_truth)}")
        self._family = _SlabFamily(self)

    def build_family(self) -> _SlabFamily:
        """All n*p hyperslab projectors, uniform index distribution.

        Member k*n + j is the slab of filter k at coordinate j.  The problem
        builds its family once, with its data, and every call returns that
        family: p base rows laid out as one strided table of windows, the
        per-member bounds and norms, and the kernel spectra of its sweep.
        """
        return self._family

    def max_violation(self, x) -> float:
        """max_{k,j} of dist((L_k x - r_k)_j, [-eta, eta]); <= 0 means feasible."""
        x = as_point(x, "x")
        require_same_dim(x, self.ground_truth, "max_violation")
        return self._family.violation(x)


class _SlabFamily(LinearFamily):
    """The hyperslab family of a signal problem, a ``LinearFamily`` whose
    rows are windows of its p base rows and whose sweep is one batched FFT
    convolution.

    The normal of member k*n + j, row j of filter k's circulant matrix, is
    the length-n window at offset 2nk + n - j of the base rows laid out
    twice each, [b_0 b_0 b_1 b_1 ...] (2pn floats): the table of
    ``LinearFamily`` is the strided view of those windows, which keeps the
    2,560 rows of the desk signal in 40 KB instead of 5.2 MB.  The
    clearance, the violation and the screened run state are
    ``LinearFamily``'s.
    """

    def __init__(self, problem: SignalProblem):
        p, n = problem.kernels.shape
        # row j of filter k is b_k[(m - j) mod n], b_k the kernel reversed
        # and rolled once: row_j[m] = kernel_k[(j - m) mod n]
        bases = np.roll(problem.kernels[:, ::-1], 1, axis=1)
        doubled = np.concatenate([bases, bases], axis=1).ravel()
        k, j = np.divmod(np.arange(p * n), n)
        norm_sq = np.repeat([float(b @ b) for b in bases], n)
        self._bind(np.lib.stride_tricks.sliding_window_view(doubled, n), 2 * n * k + n - j,
                   norm_sq, (problem.observations - problem.eta).ravel(),
                   (problem.observations + problem.eta).ravel())
        self._spectra = np.fft.rfft(problem.kernels, axis=1)

    def values(self, z):
        """All p n slab values (L_k z)_j, in member order k n + j: the circular
        convolutions of z with the p kernels, by one batched real FFT."""
        return np.fft.irfft(self._spectra * np.fft.rfft(z), z.shape[0], axis=1).ravel()


_SIGNAL_SEGMENTS = 6
_SIGNAL_MAX_DEGREE = 3


def piecewise_polynomial_signal(n: int, rng: np.random.Generator) -> np.ndarray:
    """Seeded piecewise-polynomial test signal scaled to [-1, 1]: six pieces
    of degree at most 3."""
    cuts = np.sort(rng.choice(np.arange(1, n), size=_SIGNAL_SEGMENTS - 1, replace=False))
    bounds = np.concatenate(([0], cuts, [n]))
    x = np.empty(n)
    for s in range(_SIGNAL_SEGMENTS):
        lo, hi = int(bounds[s]), int(bounds[s + 1])
        t = np.linspace(-1.0, 1.0, hi - lo)
        deg = int(rng.integers(0, _SIGNAL_MAX_DEGREE + 1))
        coeffs = rng.uniform(-1.0, 1.0, size=deg + 1)
        x[lo:hi] = np.polyval(coeffs, t)
    peak = float(np.max(np.abs(x)))
    if peak > 0.0:
        x /= peak
    return x


def generate_signal_problem(n: int = 1024, p: int = 20, eta: float = 0.15,
                            std_range: tuple = (10.0, 30.0), seed: int = 0,
                            noise_fill: float = 1.0) -> SignalProblem:
    """Build a seeded signal restoration instance.

    The noise is drawn uniformly in [-noise_fill * eta, noise_fill * eta]
    per coordinate while the slab half-width stays eta, so the ground truth
    satisfies every hyperslab constraint by construction and the feasibility
    problem is consistent.  ``noise_fill = 1`` reproduces the full-width
    protocol; values below 1 leave an interior margin of (1 - noise_fill) eta
    around the truth, which keeps small instances well conditioned.
    """
    if n < 2 or p < 1:
        raise UsageError(f"need n >= 2 and p >= 1, got n={n}, p={p}")
    if not (eta > 0.0 and math.isfinite(eta)):
        raise UsageError(f"noise bound eta must be positive, got {eta}")
    if not (0.0 < noise_fill <= 1.0):
        raise UsageError(f"noise_fill must lie in ]0, 1], got {noise_fill}")
    lo, hi = float(std_range[0]), float(std_range[1])
    if not (0.0 < lo <= hi < n):
        raise UsageError(f"std_range must satisfy 0 < lo <= hi < n, got {std_range}")
    truth_rng = substream(seed, "ground_truth")
    blur_rng = substream(seed, "blur")
    noise_rng = substream(seed, "observation_noise")
    xbar = piecewise_polynomial_signal(n, truth_rng)
    stds = blur_rng.uniform(lo, hi, size=p)
    kernels = np.stack([gaussian_kernel_1d(n, s) for s in stds])
    bound = noise_fill * eta
    noise = noise_rng.uniform(-bound, bound, size=(p, n))
    observations = np.stack([circ_conv(xbar, kernels[k]) for k in range(p)]) + noise
    return SignalProblem(n, p, eta, stds, kernels, observations, xbar, seed)


def desk_signal_problem(seed: int = 0) -> SignalProblem:
    """Reduced instance for fast runs: n=256, p=10, blur widths scaled with
    n, and noise filling 60% of the slab width so the feasible set keeps a
    real interior (the full-width protocol at this size converges too slowly
    for quick verification runs)."""
    return generate_signal_problem(n=256, p=10, eta=0.15, std_range=(2.5, 7.5),
                                   seed=seed, noise_fill=0.6)
