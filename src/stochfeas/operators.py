"""Firmly quasinonexpansive operator toolbox.

Exact projectors (box, hyperslab, Fourier support), subgradient projectors
built from convex inequality functions, and indexed operator families with
reproducible categorical index sampling.

Every built-in projector P satisfies P(P(x)) = P(x) and the firm
quasinonexpansiveness inequality

    ||T x - z||^2 + ||T x - x||^2 <= ||x - z||^2   for all z in Fix T.

A family applies its operators through ``evaluate``, which returns the
steps T_k x - x of the drawn members at one point.  ``OperatorFamily``
holds plain callables; the signal and image experiments define families
whose ``evaluate`` works on the problem's arrays directly.  Families are
immutable after construction and safe to evaluate concurrently;
index-sampling generators are single-owner.  The demiclosedness of Id - T
at 0, assumed by the convergence theory, is an analytic property of the
supplied maps and is not checked at runtime.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .exceptions import DegenerateConstraintError, NumericError, UsageError
from .geometry import as_point, require_same_dim


@dataclass(frozen=True)
class InequalityConstraint:
    """A convex inequality f(x) <= 0 with a subgradient selection s(x)."""

    value: Callable[[np.ndarray], float]
    subgradient: Callable[[np.ndarray], np.ndarray]
    name: str = ""


def subgradient_projector(constraint: InequalityConstraint, x) -> np.ndarray:
    """Apply the subgradient projector of ``constraint`` at ``x``.

    Returns ``x`` when f(x) <= 0, otherwise

        x - f(x) / ||s(x)||^2 * s(x).

    The output lands in the half-space {z : f(x) + <s(x), z - x> <= 0},
    which contains the level set {f <= 0}; firm quasinonexpansiveness with
    respect to that set follows.
    """
    x = as_point(x, "x")
    return _subgradient_step(x, float(constraint.value(x)),
                             lambda: constraint.subgradient(x), constraint.name)


def _subgradient_step(x: np.ndarray, fx: float, subgradient: Callable[[], np.ndarray],
                      name: str = "") -> np.ndarray:
    """The subgradient projector at a validated ``x`` whose value f(x) = ``fx``
    is known; ``subgradient()`` gives s(x) and is called only when fx > 0."""
    if fx <= 0.0:
        return x
    s = as_point(subgradient(), "subgradient")
    require_same_dim(s, x, "subgradient_projector")
    norm_sq = float(s @ s)
    if norm_sq == 0.0:
        raise DegenerateConstraintError(
            f"constraint {name or '?'}: f(x) = {fx} > 0 but s(x) = 0"
        )
    return x - (fx / norm_sq) * s


def project_box(lo, hi, x) -> np.ndarray:
    """Componentwise clamp of ``x`` to the box [lo, hi]."""
    x = as_point(x, "x")
    lo = np.broadcast_to(np.asarray(lo, dtype=np.float64), x.shape)
    hi = np.broadcast_to(np.asarray(hi, dtype=np.float64), x.shape)
    if np.any(lo > hi):
        raise UsageError("box bounds require lo <= hi componentwise")
    return np.minimum(np.maximum(x, lo), hi)


def project_hyperslab(a, lo: float, hi: float, x) -> np.ndarray:
    """Project ``x`` onto the hyperslab {z : lo <= <a, z> <= hi}.

    With lo == hi this is the hyperplane projection.
    """
    a = as_point(a, "a")
    x = as_point(x, "x")
    require_same_dim(a, x, "project_hyperslab")
    if lo > hi:
        raise UsageError(f"hyperslab requires lo <= hi, got [{lo}, {hi}]")
    norm_sq = float(a @ a)
    if norm_sq == 0.0:
        raise UsageError("hyperslab normal must be nonzero")
    v = float(a @ x)
    if v > hi:
        return x - ((v - hi) / norm_sq) * a
    if v < lo:
        return x - ((v - lo) / norm_sq) * a
    return x


def hyperslab_projector(a, lo: float, hi: float) -> Callable[[np.ndarray], np.ndarray]:
    """Projector onto {z : lo <= <a, z> <= hi}."""
    a = as_point(a, "a")
    return lambda x: project_hyperslab(a, lo, hi, x)


def halfspace_projector(a, b: float) -> Callable[[np.ndarray], np.ndarray]:
    """Projector onto {z : <a, z> <= b}."""
    return hyperslab_projector(a, -np.inf, b)


# ---------------------------------------------------------------------------
# Fourier-support projector.
#
# DFT convention: unnormalized forward transform (numpy fft2) with 1/N^2 on
# the inverse.  Real input forces the conjugate symmetry
# F[u, v] = conj(F[(-u) mod n, (-v) mod n]); masks must be closed under the
# index mirror (u, v) -> ((-u) mod n, (-v) mod n).
# ---------------------------------------------------------------------------

def _mirror_indices(n_rows: int, n_cols: int):
    u = np.arange(n_rows).reshape(-1, 1)
    v = np.arange(n_cols).reshape(1, -1)
    return (-u) % n_rows, (-v) % n_cols


def symmetrize_fourier_mask(mask) -> np.ndarray:
    """Close a boolean frequency mask under the real-DFT conjugate mirror."""
    mask = np.asarray(mask, dtype=bool)
    if mask.ndim != 2:
        raise UsageError("Fourier mask must be a 2-D boolean grid")
    mu, mv = _mirror_indices(*mask.shape)
    return mask | mask[mu, mv]


def validate_fourier_mask(mask) -> np.ndarray:
    mask = np.asarray(mask, dtype=bool)
    if mask.ndim != 2:
        raise UsageError("Fourier mask must be a 2-D boolean grid")
    mu, mv = _mirror_indices(*mask.shape)
    if not np.array_equal(mask, mask[mu, mv]):
        raise UsageError("Fourier mask is not closed under conjugate symmetry")
    return mask


def _validate_fourier_target(target_spectrum, mask) -> np.ndarray:
    target = np.asarray(target_spectrum, dtype=np.complex128)
    if target.shape != mask.shape:
        raise UsageError("target spectrum and mask shapes differ")
    mu, mv = _mirror_indices(*mask.shape)
    mirrored = np.conj(target[mu, mv])
    scale = max(1.0, float(np.max(np.abs(target[mask]), initial=0.0)))
    if np.max(np.abs((target - mirrored)[mask]), initial=0.0) > 1e-9 * scale:
        raise UsageError("target spectrum is not conjugate-symmetric on the mask")
    return target


def _fourier_from_spectrum(values, mask, spectrum) -> np.ndarray:
    """Overwrite ``spectrum`` with ``values`` on ``mask`` and return the real inverse.

    The imaginary residue of the inverse transform is verified against 1e-9
    (relative to the grid scale) before being discarded.
    """
    spectrum[mask] = values
    out = np.fft.ifft2(spectrum)
    residue = float(np.max(np.abs(out.imag)))
    tol = 1e-9 * max(1.0, float(np.max(np.abs(out.real))))
    if residue > tol:
        raise NumericError(f"imaginary residue {residue:.3e} exceeds {tol:.3e}")
    return np.ascontiguousarray(out.real)


def project_fourier_support(target_spectrum, mask, x) -> np.ndarray:
    """Replace the DFT of ``x`` on the masked frequencies by ``target_spectrum``.

    ``x`` is a real 2-D grid.  The output is real; the imaginary residue of
    the inverse transform is verified against 1e-9 (relative to the grid
    scale) before being discarded.
    """
    mask = validate_fourier_mask(mask)
    target = _validate_fourier_target(target_spectrum, mask)
    x = np.asarray(x, dtype=np.float64)
    if x.shape != mask.shape:
        raise UsageError(f"grid shape {x.shape} does not match mask shape {mask.shape}")
    if not np.all(np.isfinite(x)):
        raise UsageError("grid contains non-finite entries")
    return _fourier_from_spectrum(target[mask], mask, np.fft.fft2(x))


# ---------------------------------------------------------------------------
# Indexed operator families.
# ---------------------------------------------------------------------------

class _IndexedFamily:
    """The index law of a family of ``count`` operators, and its ``evaluate``.

    Weights default to uniform; they must be finite, nonnegative and sum to 1
    within 1e-12.  ``evaluate(ks, x)`` is the batched entry point of the
    block iteration: it returns the steps T_k x - x of the members ``ks``
    at one point x, one row each, and their Euclidean norms.  A member that
    fixes x must give an exact zero row.
    """

    def __init__(self, count: int, weights=None):
        if count < 1:
            raise UsageError("operator family needs at least one member")
        if weights is None:
            weights = np.full(count, 1.0 / count)
        else:
            weights = np.asarray(weights, dtype=np.float64)
            if weights.shape != (count,):
                raise UsageError("index weights must match the number of members")
            if not np.all(np.isfinite(weights) & (weights >= 0.0)):
                raise UsageError(f"index weights must be finite and nonnegative, got {weights}")
            if abs(float(weights.sum()) - 1.0) > 1e-12:
                raise UsageError(f"index weights sum to {weights.sum()!r}, not 1")
        self._count = count
        self.weights = weights
        self._cum = np.cumsum(weights)
        self._cum[-1] = 1.0

    def __len__(self):
        return self._count

    def evaluate(self, ks, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Steps ``T_k x - x`` for each k in ``ks`` (shape (M, n)) and their norms (M,)."""
        raise NotImplementedError


class OperatorFamily(_IndexedFamily):
    """A finite indexed family of callables x -> T x, with an index distribution.

    ``evaluate`` applies the drawn members one by one.  The signal and image
    experiments use their own families instead, whose ``evaluate`` works on
    the problem's arrays (``experiments._SlabFamily``, one matrix-vector
    product per batch, and ``experiments._ImageFamily``, one shared
    ``fft2`` per batch).
    """

    def __init__(self, members: Sequence, weights=None):
        members = list(members)
        super().__init__(len(members), weights)
        self.members = members

    def evaluate(self, ks, x):
        steps = np.empty((len(ks), x.shape[0]))
        norms = np.empty(len(ks))
        for i, k in enumerate(ks):
            d = np.subtract(self.members[k](x), x, out=steps[i])
            norms[i] = math.sqrt(float(d @ d))
        return steps, norms


def sample_indices(family: _IndexedFamily, rng: np.random.Generator, m: int) -> np.ndarray:
    """Draw ``m`` i.i.d. indices from the family's distribution.

    Inverse CDF on ``rng.random(m)``, which yields the same uniforms as m
    scalar ``rng.random()`` calls.  A one-member family draws nothing.
    """
    if len(family) == 1:
        return np.zeros(m, dtype=np.intp)
    return np.searchsorted(family._cum, rng.random(m), side="right")
