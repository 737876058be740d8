"""Firmly quasinonexpansive operator toolbox.

Exact box and hyperslab projectors, the shared parts of the image
experiment's Fourier-support projector and ball subgradient projectors
(mask and target checks, half spectra, the checked inverse, the projector
scale), and indexed operator families with reproducible categorical index
sampling.

Every built-in projector P satisfies P(P(x)) = P(x) and the firm
quasinonexpansiveness inequality

    ||T x - z||^2 + ||T x - x||^2 <= ||x - z||^2   for all z in Fix T.

A family applies its operators through ``evaluate``, which returns the
steps T_k x - x of the drawn members at one point, or None when every
drawn member fixes that point, so that each step is an exact zero row.
A block run applies them through the state that ``run_state(x0, noise)``
gives it, which keeps the steps of the batch (see ``_IndexedFamily``).
``OperatorFamily`` holds plain callables; the signal and image
experiments define families whose ``evaluate`` works on the problem's
arrays directly.  Families are immutable after construction and safe to
evaluate concurrently; index-sampling generators are single-owner.  The
demiclosedness of Id - T at 0, assumed by the convergence theory, is an
analytic property of the supplied maps and is not checked at runtime.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, Optional, Sequence

import numpy as np

from .exceptions import DegenerateConstraintError, NumericError, UsageError
from .geometry import as_point, require_same_dim


def _violated(fx: float, name: str) -> bool:
    """Whether f(x) = ``fx`` > 0, so that the subgradient projector moves x;
    a NaN or infinite fx raises NumericError, because no step of the
    projector is defined there."""
    if fx <= 0.0:
        return False
    if not math.isfinite(fx):
        raise NumericError(f"constraint {name or '?'}: f(x) = {fx} is not finite")
    return True


def _projector_scale(fx: float, norm_sq: float, name: str) -> float:
    """t = f(x) / ||s(x)||^2 of a violated constraint, from ``norm_sq`` =
    ||s(x)||^2; a zero subgradient raises DegenerateConstraintError."""
    if norm_sq == 0.0:
        raise DegenerateConstraintError(
            f"constraint {name or '?'}: f(x) = {fx} > 0 but s(x) = 0"
        )
    return fx / norm_sq


def project_box(lo, hi, x) -> np.ndarray:
    """Componentwise clamp of ``x`` to the box [lo, hi]."""
    x = as_point(x, "x")
    lo = np.broadcast_to(np.asarray(lo, dtype=np.float64), x.shape)
    hi = np.broadcast_to(np.asarray(hi, dtype=np.float64), x.shape)
    if not np.all(lo <= hi):   # a NaN bound fails the comparison too
        raise UsageError("box bounds require lo <= hi componentwise, without NaN")
    return np.minimum(np.maximum(x, lo), hi)


def project_hyperslab(a, lo: float, hi: float, x) -> np.ndarray:
    """Project ``x`` onto the hyperslab {z : lo <= <a, z> <= hi}.

    With lo == hi this is the hyperplane projection.
    """
    a = as_point(a, "a")
    x = as_point(x, "x")
    require_same_dim(a, x, "project_hyperslab")
    if not lo <= hi:   # a NaN bound fails the comparison too
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


def halfspace_projector(a, b: float) -> Callable[[np.ndarray], np.ndarray]:
    """Projector onto {z : <a, z> <= b}."""
    a = as_point(a, "a")
    return lambda x: project_hyperslab(a, -np.inf, b, x)


# ---------------------------------------------------------------------------
# Fourier support.
#
# DFT convention: unnormalized forward transform (numpy fft2) with 1/N on
# the inverse, N the number of grid points.  Real input forces the conjugate
# symmetry F[u, v] = conj(F[(-u) mod n1, (-v) mod n2]); masks must be closed
# under the index mirror (u, v) -> ((-u) mod n1, (-v) mod n2).  Real grids
# are transformed to half spectra, rfft2's columns v = 0 .. n2 // 2; the
# other columns are the conjugate mirrors of these.  Column 0, and column
# n2 / 2 when n2 is even, are self-conjugate: they hold each entry's mirror
# as well.  A half spectrum stands for the full one that extends it by
# mirroring, so ||f||^2 = ||F||^2 / N (Parseval) weighs each entry of a
# self-conjugate column once and every other entry twice.
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


def _half(full: np.ndarray) -> np.ndarray:
    """The half of a full-grid array (spectrum or mask) that rfft2 keeps."""
    return full[:, : full.shape[1] // 2 + 1]


@functools.lru_cache(maxsize=16)
def _self_conjugate_entries(shape: tuple) -> tuple:
    """The flat positions, in the half spectrum of a grid of ``shape``, of
    the entries (u, c) of its self-conjugate columns c, and of their mirrors
    ((-u) mod n1, c); two read-only arrays of shape (n1, 1 or 2)."""
    n1, n2 = shape
    width = n2 // 2 + 1
    cols = np.array([0] if n2 % 2 else [0, n2 // 2])
    u = np.arange(n1).reshape(-1, 1)
    at, mirror = u * width + cols, (-u) % n1 * width + cols
    at.flags.writeable = mirror.flags.writeable = False
    return at, mirror


def _half_norm_sq(values: np.ndarray, edge) -> float:
    """||F||^2 of the full spectrum F that the half-spectrum entries
    ``values`` stand for: twice theirs, less once those at the flat
    positions ``edge``, the entries of self-conjugate columns."""
    e = values.take(edge)
    return 2.0 * float(np.vdot(values, values).real) - float(np.vdot(e, e).real)


def _half_inverse(spectrum: np.ndarray, shape: tuple) -> np.ndarray:
    """The real grid ``irfft2(spectrum, s=shape)``, once the imaginary residue
    that irfft2 drops is verified against 1e-9 (relative to the grid scale).

    irfft2 returns the real part of ifft2 of the full spectrum F that
    ``spectrum`` stands for.  Mirroring makes F Hermitian outside the
    self-conjugate columns, so its anti-Hermitian part A = (F - conj(F
    mirrored)) / 2 lies in those columns c, and the imaginary part that
    ifft2(F) would carry is ifft2(A)[j, m] = (1/n2) sum_c e^{2 pi i c m / n2}
    ifft(A_c)[j].  Its largest modulus is the residue
    max_j sum_c |ifft(A_c)[j]| / n2, since c = n2 / 2 flips sign with m.
    Each |ifft(A_c)[j]| is at most the mean of |A_c|, so sum |A| / N bounds
    the residue; only when that bound exceeds 1e-9, the tolerance's floor,
    is the residue itself computed and compared with 1e-9 max(1, max|out|).
    """
    out = np.fft.irfft2(spectrum, s=shape)
    at, mirror = _self_conjugate_entries(shape)
    flat = spectrum.reshape(-1)
    anti = flat.take(at)   # 2 A
    anti -= np.conj(flat.take(mirror))
    if float(np.abs(anti).sum()) > 2e-9 * out.size:
        residue = float(np.abs(np.fft.ifft(anti, axis=0)).sum(axis=1).max()) / (2 * shape[1])
        tol = 1e-9 * max(1.0, float(np.abs(out).max()))
        if residue > tol:
            raise NumericError(f"imaginary residue {residue:.3e} exceeds {tol:.3e}")
    return out


# ---------------------------------------------------------------------------
# Indexed operator families.
# ---------------------------------------------------------------------------

class _IndexedFamily:
    """The index law of a family of ``count`` operators, its ``evaluate``
    and the run state of its block runs.

    Weights default to uniform; they must be finite, positive and sum to 1
    within 1e-12.  Uniform families of one size share one read-only index
    law (weights, cumulative weights and guide table).  ``evaluate(ks, x)``
    returns the steps T_k x - x of the members ``ks`` at one point x, one
    row each, and their Euclidean norms.  A member that fixes x must give
    an exact zero row.  When every member of ``ks`` fixes x, so that every
    row would be zero, it returns None instead.

    A block run applies the family through one state, ``run_state(x0,
    noise)``, which checks x0 and belongs to the run: the family stays
    immutable.  Every state has the same three members:

    * ``evaluate(ks, x)``: the step norms r of the members ``ks`` at the
      iterate x, or None when every member fixes x; the steps stay in the
      state;
    * ``step(beta)``: the averaged step p - x = sum_i beta_i (T_{k_i} x - x)
      of the batch last evaluated;
    * ``screen(batches, x)``: how many leading batches of ``batches`` (shape
      (w, M)) it proves all-fixed at x without evaluating them; or ``screen
      = None`` for a state without such a certificate.

    The run's iterate lives in the state's coordinates.  A state in space
    sets ``norm_sq = None``: its iterate is the point itself, with the norm
    ``v.dot(v)``.  A state in other coordinates gives ``coordinates(x)``, a
    point's coordinates, ``norm_sq(v)``, the squared norm of the point that
    v stands for, and ``point(v)``, that point.  The run's update arithmetic
    is the same in either.

    The state's ``evaluate`` need not check x again: ``run_state`` checks x0,
    and the run checks the shape of its first step and, in its divergence
    guard, the finiteness of every iterate.  The default state keeps the
    rows of a bare ``evaluate`` (``_RowState``), and so does every family's
    state of the error-tolerant variant, which adds the ``noise`` rows to
    them.  Without noise, the signal experiment's state adds a screen, and
    the image experiment's iterates in the half spectrum rfft2(x) and
    combines its members' step spectra there.
    """

    def __init__(self, count: int, weights=None):
        if count < 1:
            raise UsageError("operator family needs at least one member")
        if weights is None:
            law = _uniform_law(count)
        else:
            weights = np.asarray(weights, dtype=np.float64)
            if weights.shape != (count,):
                raise UsageError("index weights must match the number of members")
            # random activation needs every member drawn with positive probability
            if not np.all(np.isfinite(weights) & (weights > 0.0)):
                raise UsageError(f"index weights must be finite and positive, got {weights}")
            if abs(float(weights.sum()) - 1.0) > 1e-12:
                raise UsageError(f"index weights sum to {weights.sum()!r}, not 1")
            law = _index_law(weights)
        self._count = count
        self.weights, self._cum, self._buckets, self._guide = law

    def __len__(self):
        return self._count

    def draws(self, rng: np.random.Generator, m: Optional[int] = None):
        """Endless i.i.d. index draws from ``rng``, in chunks: arrays of
        single indices when ``m`` is None, else of batches, shape (size, m).

        Read in order, the draws are the same sequence as one
        ``sample_indices(self, rng, m or 1)`` call per draw.  Chunks double
        from 16 to 1024 draws: an index costs about 0.015 us in bulk at 2,560
        members, so one first chunk of 1024 batches of 16 would cost a short
        run 0.25 ms for indices it never uses.
        """
        size = 16
        while True:
            ks = sample_indices(self, rng, size * (m or 1))
            yield ks if m is None else ks.reshape(size, m)
            del ks   # let the spent chunk go before the next one is drawn
            size = min(2 * size, 1024)

    def evaluate(self, ks, x: np.ndarray) -> Optional[tuple[np.ndarray, np.ndarray]]:
        """Steps ``T_k x - x`` for each k in ``ks`` (shape (M, n)) and their
        norms (M,), or None when every step is zero."""
        raise NotImplementedError

    def run_state(self, x0: np.ndarray, noise=None):
        """The state of one block run from x0, see the class docstring; with
        ``noise``, the error-tolerant variant's (see ``_RowState``)."""
        return _RowState(self.evaluate, noise)


class _RowState:
    """The run state of a family whose steps are rows in space: it keeps
    the rows of the batch it last evaluated, and screens nothing.

    With ``noise``, an iterator over the error rows (M, n) of each
    evaluation in turn, it is the state of the error-tolerant variant: its
    rows are the errors plus the steps, which are zero rows for an
    all-fixed batch, so it reports no batch all-fixed.
    """

    screen = None
    norm_sq = None   # the iterate is the point in space

    def __init__(self, evaluate: Callable, noise=None):
        self._evaluate = evaluate
        self._noise = noise
        self._rows = None

    def evaluate(self, ks, x: np.ndarray) -> Optional[np.ndarray]:
        out = self._evaluate(ks, x)
        if self._noise is not None:
            rows = next(self._noise)
            if out is not None:
                rows += out[0]
            self._rows = rows
            return np.array([math.sqrt(float(d @ d)) for d in rows])
        if out is None:
            return None
        self._rows, r = out
        return r

    def step(self, beta: np.ndarray) -> np.ndarray:
        return beta @ self._rows


def _index_law(weights: np.ndarray) -> tuple:
    """(weights, cum, buckets, guide) of index weights that passed the checks.

    ``cum`` is the cumulative weights, with the last set to exactly 1.  The
    guide table of ``sample_indices``: bucket b of [0, 1) is [b/B, (b+1)/B),
    B = 2^q >= 2 count, and its first candidate is the answer at b/B; u B and
    b/B are exact because B is a power of two.
    """
    cum = np.cumsum(weights)
    cum[-1] = 1.0
    buckets = float(2 ** max(1, (2 * weights.size - 1).bit_length()))
    guide = np.searchsorted(cum, np.arange(buckets) / buckets, side="right")
    return weights, cum, buckets, guide


@functools.lru_cache(maxsize=16)
def _uniform_law(count: int) -> tuple:
    """The index law of every uniform family of ``count`` members, built once
    and shared read-only: at 2,560 members its guide table alone is 64 KB."""
    law = _index_law(np.full(count, 1.0 / count))
    for array in (law[0], law[1], law[3]):
        array.flags.writeable = False
    return law


def _member_steps(ks, x: np.ndarray, project: Callable[[int], np.ndarray]):
    """The per-member loop of ``evaluate``: the steps T_k x - x of the
    members ``ks`` (shape (M, n)) and their norms (M,), or None when every
    step is zero; ``project(k)`` returns T_k x.

    Each distinct member is applied once, and a repeated one gets a copy of
    its first row.  The batch is all-fixed when
    every norm is 0 and then every row is 0: the norms are the cheap test,
    and the rows confirm it, because the norm of a nonzero row can
    underflow to 0.  A point T_k x of another shape than x raises UsageError.
    """
    ks = np.asarray(ks).tolist()
    steps = np.empty((len(ks), x.shape[0]))
    norms = np.empty(len(ks))
    first = {}
    for i, k in enumerate(ks):
        j = first.setdefault(k, i)
        if j < i:
            steps[i] = steps[j]
            norms[i] = norms[j]
            continue
        p = project(k)
        if np.shape(p) != x.shape:   # would broadcast into the row, or fail inside numpy
            raise UsageError(f"member {k} maps a point of shape {x.shape} to {np.shape(p)}")
        d = np.subtract(p, x, out=steps[i])
        norms[i] = math.sqrt(float(d @ d))
    if not norms.any() and not steps.any():
        return None
    return steps, norms


class OperatorFamily(_IndexedFamily):
    """A finite indexed family of callables x -> T x, with an index distribution.

    ``evaluate`` calls each distinct drawn member once, through the
    per-member loop that the image experiment's family shares.  The signal
    experiment's family takes all its rows in one matrix-vector product
    instead (``experiments._SlabFamily``).
    """

    def __init__(self, members: Sequence, weights=None):
        members = list(members)
        super().__init__(len(members), weights)
        self.members = members

    def evaluate(self, ks, x):
        return _member_steps(ks, x, lambda k: self.members[k](x))


def sample_indices(family: _IndexedFamily, rng: np.random.Generator, m: int) -> np.ndarray:
    """Draw ``m`` i.i.d. indices from the family's distribution.

    Inverse CDF on ``rng.random(m)``, which yields the same uniforms as m
    scalar ``rng.random()`` calls.  A one-member family draws nothing.

    The index of u is ``np.searchsorted(cum, u, side="right")``, the first k
    with cum[k] > u, found through the family's guide table: start at the
    answer for the left edge of u's bucket, which is never past the answer
    for u, and advance while cum[k] <= u.  With at least two buckets per
    member one advance settles a uniform family; draws still unsettled
    after two passes, such as those behind a run of tiny-weight members,
    take the binary search.
    """
    if len(family) == 1:
        return np.zeros(m, dtype=np.intp)
    cum = family._cum
    u = rng.random(m)
    k = np.multiply(u, family._buckets, out=np.empty(m, dtype=np.intp), casting="unsafe")
    family._guide.take(k, out=k, mode="clip")
    below = np.empty(m)
    advance = np.empty(m, dtype=bool)
    for _ in range(2):
        np.less_equal(cum.take(k, out=below, mode="clip"), u, out=advance)
        if not advance.any():
            return k
        k += advance
    left = np.flatnonzero(np.less_equal(cum.take(k, out=below, mode="clip"), u, out=advance))
    k[left] = np.searchsorted(cum, u[left], side="right")
    return k
