"""Firmly quasinonexpansive operator toolbox.

Exact projectors (box, hyperslab, Fourier support), subgradient projectors
built from convex inequality functions, and indexed operator families with
reproducible categorical index sampling.

Every built-in projector P satisfies P(P(x)) = P(x) and the firm
quasinonexpansiveness inequality

    ||T x - z||^2 + ||T x - x||^2 <= ||x - z||^2   for all z in Fix T.

Operators are immutable after construction and safe to apply concurrently;
index-sampling generators are single-owner.  The demiclosedness of Id - T
at 0, assumed by the convergence theory, is an analytic property of the
supplied maps and is not checked at runtime.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .exceptions import DegenerateConstraintError, NumericError, UsageError
from .geometry import as_point, require_same_dim


class FqneOperator:
    """A firmly quasinonexpansive map with an optional fixed-set membership test.

    ``fix_test`` is used only by tests and audits, never by solvers.
    Subclasses may define ``__call__``, ``fix_test`` and ``name`` on the
    class instead of passing them per instance.
    """

    __slots__ = ("_apply", "fix_test", "name")

    def __init__(self, apply: Callable[[np.ndarray], np.ndarray],
                 fix_test: Optional[Callable[[np.ndarray], bool]] = None,
                 name: str = ""):
        self._apply = apply
        self.fix_test = fix_test
        self.name = name

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self._apply(x)

    def __repr__(self):
        return f"FqneOperator({self.name or self._apply!r})"


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


def box_projector(lo, hi) -> FqneOperator:
    """Box projector on 1-D points; the bounds are checked once, here."""
    lo = np.asarray(lo, dtype=np.float64)
    hi = np.asarray(hi, dtype=np.float64)
    if lo.ndim > 1 or hi.ndim > 1:
        raise UsageError("box bounds must be scalars or 1-D arrays")
    if np.any(lo > hi):
        raise UsageError("box bounds require lo <= hi componentwise")

    def apply(x):
        return np.minimum(np.maximum(as_point(x, "x"), lo), hi)

    return FqneOperator(
        apply,
        fix_test=lambda x: bool(np.all(x >= lo) and np.all(x <= hi)),
        name="proj_box",
    )


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


def hyperslab_projector(a, lo: float, hi: float, name: str = "proj_slab") -> FqneOperator:
    a = as_point(a, "a")
    return FqneOperator(
        lambda x: project_hyperslab(a, lo, hi, x),
        fix_test=lambda x: lo <= float(a @ as_point(x)) <= hi,
        name=name,
    )


def halfspace_projector(a, b: float, name: str = "proj_halfspace") -> FqneOperator:
    """Projector onto {z : <a, z> <= b}."""
    return hyperslab_projector(a, -np.inf, b, name=name)


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


def _project_fourier_core(values, mask, x) -> np.ndarray:
    """The projection itself: ``values`` are the validated target on ``mask``."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != mask.shape:
        raise UsageError(f"grid shape {x.shape} does not match mask shape {mask.shape}")
    if not np.all(np.isfinite(x)):
        raise UsageError("grid contains non-finite entries")
    return _fourier_from_spectrum(values, mask, np.fft.fft2(x))


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
    return _project_fourier_core(target[mask], mask, x)


class _FourierSupportProjector(FqneOperator):
    """Fourier-support projector acting on row-major flattened grids.

    The mask and target are validated once, at construction, and kept as
    read-only private copies; each application checks only the grid it is
    given.  ``project_spectrum`` starts from the grid's spectrum instead, for
    callers that share one forward transform among several operators.
    """

    __slots__ = ("_mask", "_values", "_shape")

    def __init__(self, target_spectrum, mask, grid_shape=None):
        mask = validate_fourier_mask(mask).copy()
        values = _validate_fourier_target(target_spectrum, mask)[mask]
        mask.flags.writeable = False
        values.flags.writeable = False
        self._mask = mask
        self._values = values
        self._shape = mask.shape if grid_shape is None else grid_shape
        self.name = "proj_fourier"

    def __call__(self, x):
        return _project_fourier_core(self._values, self._mask, np.reshape(x, self._shape)).ravel()

    def project_spectrum(self, spectrum) -> np.ndarray:
        """The flattened projection of the grid whose ``fft2`` is ``spectrum``
        (overwritten); the grid itself is not checked."""
        return _fourier_from_spectrum(self._values, self._mask, spectrum).ravel()

    def fix_test(self, x):
        spec = np.fft.fft2(np.reshape(x, self._shape))
        return bool(np.allclose(spec[self._mask], self._values, rtol=1e-9, atol=1e-9))


def fourier_support_projector(target_spectrum, mask, grid_shape=None) -> FqneOperator:
    """Fourier-support projector acting on row-major flattened grids."""
    return _FourierSupportProjector(target_spectrum, mask, grid_shape)


# ---------------------------------------------------------------------------
# Indexed operator families.
# ---------------------------------------------------------------------------

class OperatorFamily:
    """A finite indexed family of operators with an index distribution.

    Members may be ``FqneOperator`` instances or plain callables.  Weights
    default to uniform; they must be nonnegative and sum to 1 within 1e-12.

    ``evaluate(ks, x)`` is the batched entry point of the block iteration:
    it returns the steps T_k x - x of the members ``ks`` at one point x, one
    row each, and their Euclidean norms.  A member that fixes x must give an
    exact zero row.  The generic version applies the members one by one;
    families with structure override it: the signal problem's hyperslabs
    (``experiments._SlabFamily``) and the image problem's spectral members
    (``experiments._ImageFamily``, one shared ``fft2`` per call).
    """

    def __init__(self, members: Sequence, weights=None):
        members = list(members)
        if not members:
            raise UsageError("operator family needs at least one member")
        self.members = members
        if weights is None:
            weights = np.full(len(members), 1.0 / len(members))
        else:
            weights = np.asarray(weights, dtype=np.float64)
            if weights.shape != (len(members),):
                raise UsageError("index weights must match the number of members")
            if np.any(weights < 0.0):
                raise UsageError("index weights must be nonnegative")
            if abs(float(weights.sum()) - 1.0) > 1e-12:
                raise UsageError(f"index weights sum to {weights.sum()!r}, not 1")
        self.weights = weights
        self._cum = np.cumsum(weights)
        self._cum[-1] = 1.0

    def __len__(self):
        return len(self.members)

    def member(self, k: int):
        return self.members[k]

    def apply(self, k: int, x: np.ndarray) -> np.ndarray:
        return self.members[k](x)

    def evaluate(self, ks, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Steps ``T_k x - x`` for each k in ``ks`` (shape (M, n)) and their norms (M,)."""
        steps = np.empty((len(ks), x.shape[0]))
        norms = np.empty(len(ks))
        for i, k in enumerate(ks):
            d = np.subtract(self.apply(k, x), x, out=steps[i])
            norms[i] = math.sqrt(float(d @ d))
        return steps, norms


def sample_indices(family: OperatorFamily, rng: np.random.Generator, m: int) -> np.ndarray:
    """Draw ``m`` i.i.d. indices from the family's distribution.

    Inverse CDF on ``rng.random(m)``, which yields the same uniforms as m
    scalar ``rng.random()`` calls.  A one-member family draws nothing.
    """
    if len(family) == 1:
        return np.zeros(m, dtype=np.intp)
    return np.searchsorted(family._cum, rng.random(m), side="right")


def sample_index(family: OperatorFamily, rng: np.random.Generator) -> int:
    """Draw one index from the family's distribution."""
    return int(sample_indices(family, rng, 1)[0])
