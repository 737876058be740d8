"""The image restoration problem.

Recover an n x n grayscale image from four observations blurred by one
circular Gaussian kernel (std 8) plus uniform([0, 5]) noise.  The
constraints are four residual balls ||r_k - L x||^2 <= xi handled by
subgradient projectors, the pixel box [0, 255], and a known low-frequency
Fourier mask.  The confidence radius is

    xi = n^2 E|u|^2 + 1.96 n sqrt(E|u|^4 - (E|u|^2)^2),   u ~ uniform([0, 5]),

with exact moments E|u|^2 = 25/3 and E|u|^4 = 125, so each ball contains
the true image with 95% confidence (generation records whether it actually
does on this noise draw).  The ground truth is a deterministic synthetic
grayscale image, and the blur is circular.

The image data are real, so the image problem keeps only half spectra,
rfft2's n x (n/2 + 1) grid, weighted column by column: X = w rfft2(x), with
w = sqrt(1/N) on the self-conjugate columns and sqrt(2/N) on the others, N
= n^2 (see the Fourier section below).  By Parseval the plain sum of
squares of X's real and imaginary parts is then ||x||^2, so every norm the
problem takes is that sum.  The weights commute with the blur's pointwise
product, so the kernel spectrum K stays unweighted while the observation
spectra and the Fourier target are stored weighted.  Every inverse removes
w and is one checked irfft2, which verifies the imaginary residue it drops.

A block run over the image family iterates in the real view of X
(``_SpectralState``), a linear isometry of space, so the run's update
arithmetic, a = X + L S and X+ = X + lam (a - X), and each of its norms,
v.dot(v), are the same as in space.  The dB column is measured against
the coordinates of the reference, taken once per run.  The steps of the
balls and the Fourier member are linear in X; the box's is not, so the run
maps X back to space, by one checked irfft2 kept while X is unchanged,
only when the box is drawn and its certificate cannot prove the box
holding, when it writes records or audits Fejer points, and once for the
final point.  The certificate bounds the pixel change since the last X at
which the box was seen holding by a weighted l1 norm of the spectrum
change, and still makes the inverse's cheap residue test.  When the box
moves x, the step spectrum S takes the weighted rfft2 of the box's share.

There is no second copy of x to drift from.  What rounding leaves in X
that no real image has is an anti-Hermitian part in the self-conjugate
columns, which irfft2 drops and each checked inverse measures as its
imaginary residue.  Over criterion 8's const1 run (20,000 iterations,
4,616 inverses) that residue stayed at most 3.2e-17 of max(1, max|x|),
with no growth over the run.  The image tolerances, each relative to the
scale named:

    check                           tolerance    relative to
    target validation (mirror)      1e-9         max(1, max|target| on the mask)
    inverse residue (_half_inverse) 1e-9         max(1, max|x|)
    residue over a long run (test)  1e-15        max(1, max|x|)
    criterion 8, each ball value    1e-6 xi      (xi, the confidence radius)
    criterion 8, Fourier deviation  1e-6         max(1, ||target||), full DFT

The problem keeps the Hermitian part of its validated target, so the
target adds nothing to a residue.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .exceptions import DegenerateConstraintError, NumericError, UsageError
from .geometry import as_point, require_same_dim
from .operators import _IndexedFamily, _member_steps, project_box
from .rngstreams import substream
from .signal import circ_conv, gaussian_kernel_2d

UNIFORM_NOISE_HIGH = 5.0
PIXEL_MAX = 255.0
# exact moments of uniform([0, 5]): E u^2 = 25/3, E u^4 = 125
_EU2 = 25.0 / 3.0
_EU4 = 125.0
DESK_IMAGE_BLUR_STD = 1.0
DESK_IMAGE_FOURIER_WEIGHT = 2.0


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
# self-conjugate column once and every other entry twice: scaled by
# ``_half_weights``, the real view of a half spectrum has the norm of f.
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


def _half_weights(n1: int, n2: int) -> np.ndarray:
    """The column weights w of the half spectra of an n1 x n2 grid: sqrt(1 /
    N) on the self-conjugate columns and sqrt(2 / N) on the others, N = n1
    n2, so that the plain norm of the real view of w F is ||f||."""
    w = np.full(n2 // 2 + 1, math.sqrt(2.0 / (n1 * n2)))
    w[[0] if n2 % 2 else [0, n2 // 2]] = math.sqrt(1.0 / (n1 * n2))
    return w


def _unsettled_residue(flat: np.ndarray, shape: tuple, scale: float = 1.0):
    """2 A, twice the anti-Hermitian part of the self-conjugate columns of
    the half spectrum ``flat / scale`` (flattened, of a grid of ``shape``;
    ``scale`` is one weight shared by those columns), when the cheap bound
    sum |A| / N of the residue that irfft2 drops exceeds 1e-9, the floor of
    ``_half_inverse``'s tolerance; None when that bound settles the check.

    Only the entries of those columns are divided, each as the whole
    spectrum's division would divide it, so the test reads the same bits
    whether or not the rest of the spectrum is divided.
    """
    at, mirror = _self_conjugate_entries(shape)
    anti = flat.take(at)
    mirrored = np.conj(flat.take(mirror))
    if scale != 1.0:
        anti /= scale
        mirrored /= scale
    anti -= mirrored
    return anti if float(np.abs(anti).sum()) > 2e-9 * shape[0] * shape[1] else None


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
    the residue; only when that bound exceeds 1e-9, the tolerance's floor
    (``_unsettled_residue``), is the residue itself computed and compared
    with 1e-9 max(1, max|out|).
    """
    out = np.fft.irfft2(spectrum, s=shape)
    anti = _unsettled_residue(spectrum.reshape(-1), shape)
    if anti is not None:
        residue = float(np.abs(np.fft.ifft(anti, axis=0)).sum(axis=1).max()) / (2 * shape[1])
        tol = 1e-9 * max(1.0, float(np.abs(out).max()))
        if residue > tol:
            raise NumericError(f"imaginary residue {residue:.3e} exceeds {tol:.3e}")
    return out


# ---------------------------------------------------------------------------
# Image problem.
# ---------------------------------------------------------------------------

@dataclass
class ImageProblem:
    n: int
    xi: float
    kernel: np.ndarray               # (n, n) circular blur kernel
    observations: np.ndarray         # (4, n, n)
    ground_truth: np.ndarray         # (n, n)
    mask: np.ndarray                 # (n, n) bool, conjugate-symmetric
    target_spectrum: np.ndarray      # (n, n) complex, defined on mask
    ball_contains_truth: tuple       # per-observation record (95% by design)
    seed: int

    def __post_init__(self):
        # the data are checked once, here: a negative xi would let no point
        # in the balls, and a NaN or a wrong shape fails only inside a run
        n = self.n
        if not (math.isfinite(self.xi) and self.xi > 0.0):
            raise UsageError(f"xi must be finite and positive, got {self.xi}")
        for name, shape in (("kernel", (n, n)), ("observations", (4, n, n)),
                            ("target_spectrum", (n, n)), ("mask", (n, n)),
                            ("ground_truth", (n, n))):
            data = np.asarray(getattr(self, name))
            if data.shape != shape:
                raise UsageError(f"{name} must have shape {shape}, got {data.shape}")
            if name not in ("mask", "ground_truth") and not np.all(np.isfinite(data)):
                raise UsageError(f"{name} must be finite")
        # the Fourier data too; the family, finalize and the report read these
        # read-only private copies, weighted half spectra (module docstring)
        shape = (n, n)
        w = self._weights = _half_weights(n, n)
        mask = _half(validate_fourier_mask(self.mask)).copy()
        values = (_half(_validate_fourier_target(self.target_spectrum, self.mask)) * w)[mask]
        # the flat positions of the masked entries; in that list, the
        # positions of the entries (u, c) of self-conjugate columns, and of
        # their mirrors (-u, c), which are masked too
        self._mask_flat = np.flatnonzero(mask)
        at, mirror = _self_conjugate_entries(shape)
        held = mask.reshape(-1)[at]
        self._mask_edge = np.searchsorted(self._mask_flat, at[held])
        self._mask_mirror = np.searchsorted(self._mask_flat, mirror[held])
        # the target's Hermitian part, which a real grid can have: validation
        # lets the self-conjugate columns be anti-Hermitian up to 1e-9 of the
        # target's scale, and the checked inverse would meet that as residue
        values = self._hermitian_part(values)
        mask.flags.writeable = values.flags.writeable = False
        self._half_mask, self._target_values = mask, values
        self._kernel_rfft = np.fft.rfft2(self.kernel)
        self._kernel_rfft_conj = np.conj(self._kernel_rfft)
        self._obs_rfft = np.fft.rfft2(self.observations) * w

    @property
    def dim(self) -> int:
        return self.n * self.n

    def _point(self, x) -> np.ndarray:
        """``x`` as a validated flattened image of this problem."""
        x = as_point(x, "x")
        require_same_dim(x, self.ground_truth.reshape(-1), "image point")
        return x

    def _hermitian_part(self, values: np.ndarray) -> np.ndarray:
        """``values``, entries of a half spectrum on the mask, with those of
        the self-conjugate columns replaced by their Hermitian part, in place."""
        herm = values[self._mask_edge]
        herm += np.conj(values[self._mask_mirror])
        herm *= 0.5
        values[self._mask_edge] = herm
        return values

    def _spectrum(self, x: np.ndarray) -> np.ndarray:
        """The weighted half spectrum w rfft2 of a flattened image."""
        return np.fft.rfft2(x.reshape(self.n, self.n)) * self._weights

    def _inverse(self, spectrum: np.ndarray) -> np.ndarray:
        """The flattened image whose weighted half spectrum is ``spectrum``,
        checked."""
        return _half_inverse(spectrum / self._weights, (self.n, self.n)).reshape(-1)

    def _norm_sq(self, spectrum: np.ndarray) -> float:
        """||v||^2 of the image v whose weighted half spectrum is ``spectrum``
        (or, on a mask, ||v's part there||^2): the plain sum of squares of its
        real and imaginary parts."""
        parts = spectrum.reshape(-1).view(np.float64)
        return float(parts.dot(parts))

    def _ball_residual(self, k: int, spectrum: np.ndarray) -> np.ndarray:
        """K X - Y_k, the weighted half spectrum of L x - r_k, from that X of x."""
        res_hat = self._kernel_rfft * spectrum
        res_hat -= self._obs_rfft[k]
        return res_hat

    def _ball_value(self, res_hat: np.ndarray) -> float:
        return self._norm_sq(res_hat) - self.xi

    def _project_fourier(self, spectrum: np.ndarray) -> np.ndarray:
        """Projection onto the Fourier set of the image whose weighted half
        spectrum is ``spectrum``, which it overwrites on the mask with the
        target.

        The stored target is Hermitian, so what the checked inverse verifies
        as imaginary residue is only that of ``spectrum`` off the mask.
        """
        spectrum[self._half_mask] = self._target_values
        return self._inverse(spectrum)

    def _ball_step(self, k: int, spectrum: np.ndarray):
        """The step of ball k's subgradient projector at the point whose
        weighted half spectrum is ``spectrum`` (read only), as its weighted
        half spectrum -(f_k / ||s_k||^2) 2 conj(K) (K X - Y_k) and its norm
        f_k / ||s_k||, or None when the ball holds the point.  ||s_k||^2 is
        the sum of squares of 2 conj(K) (K X - Y_k), the subgradient's.  A
        NaN or infinite f_k raises NumericError and a zero subgradient of a
        violated ball DegenerateConstraintError: no step is defined there."""
        res_hat = self._ball_residual(k, spectrum)
        fx = self._ball_value(res_hat)
        if fx <= 0.0:
            return None
        if not math.isfinite(fx):
            raise NumericError(f"constraint ball[{k}]: f(x) = {fx} is not finite")
        grad_hat = np.multiply(self._kernel_rfft_conj, res_hat, out=res_hat)
        norm_sq = 4.0 * self._norm_sq(grad_hat)
        if norm_sq == 0.0:
            raise DegenerateConstraintError(f"constraint ball[{k}]: f(x) = {fx} > 0 but s(x) = 0")
        scale = fx / norm_sq
        grad_hat *= -2.0 * scale
        return grad_hat, scale * math.sqrt(norm_sq)

    def build_family(self, fourier_weight: float = 1.0) -> _IndexedFamily:
        """Four ball subgradient projectors, the pixel box, the Fourier mask.

        ``fourier_weight`` sets the relative sampling weight of the
        Fourier-support projector (the other five members keep weight 1).
        Any full-support index law leaves the solution set unchanged;
        sampling the spectrum constraint more often speeds up unit-relaxation
        runs on small instances, where it is the binding constraint.
        """
        if fourier_weight <= 0.0:
            raise UsageError("fourier_weight must be positive")
        weights = np.array([1.0] * 5 + [float(fourier_weight)])
        return _ImageFamily(self, weights=weights / weights.sum())

    def finalize(self, x: np.ndarray) -> np.ndarray:
        """Terminal cleanup: project onto the Fourier set, then the box.

        The box projection is last, so it holds exactly; the Fourier
        constraint is preserved only up to the drift the clamp introduces.
        """
        x = self._point(x)
        return project_box(0.0, PIXEL_MAX, self._project_fourier(self._spectrum(x)))

    def feasibility_report(self, x: np.ndarray) -> dict:
        x = self._point(x)
        spec = self._spectrum(x)
        # the Fourier deviation relative to the target, both full DFT norms
        # ||F|| = sqrt(N) ||v|| as the tolerance table states them
        target_norm = math.sqrt(self.dim * self._norm_sq(self._target_values))
        fourier_dev = math.sqrt(self.dim * self._norm_sq(spec[self._half_mask]
                                                         - self._target_values))
        return {
            "ball_values": [self._ball_value(self._ball_residual(k, spec)) for k in range(4)],
            "box_violation": float(np.max(np.maximum(x - PIXEL_MAX, 0.0)
                                          + np.maximum(-x, 0.0))),
            "fourier_relative_deviation": fourier_dev / max(1.0, target_norm),
        }


_BOX, _FOURIER = 4, 5   # member indices after the four balls


class _ImageFamily(_IndexedFamily):
    """The image problem's six members, with at most one forward FFT per batch.

    Members 0-3 are the ball subgradient projectors, 4 the pixel box and 5
    the Fourier-support projector.  A bare ``evaluate(ks, x)`` checks x
    once and runs the per-member loop that ``OperatorFamily`` shares.  Each
    ball forms its residual spectrum K X - Y_k from the weighted half
    spectrum X = w rfft2(x), which it transforms at most once, only when a
    ball or the Fourier member is drawn; the Fourier member then overwrites
    a copy of X on the problem's validated half mask.  Every row comes from
    the checked inverse ``irfft2``.

    A block run iterates in X through a ``_SpectralState`` instead
    (``run_state``), which builds no rows: it keeps the step spectra of the
    batch and combines them when the run asks for p - x.
    """

    def __init__(self, problem: ImageProblem, weights=None):
        super().__init__(6, weights)
        self._problem = problem

    def run_state(self, x0):
        self._problem._point(x0)
        return _SpectralState(self._problem)

    def evaluate(self, ks, x):
        problem = self._problem
        x = problem._point(x)
        spectrum = None

        def project(k):
            nonlocal spectrum
            if k == _BOX:
                return np.minimum(np.maximum(x, 0.0), PIXEL_MAX)
            if spectrum is None:
                spectrum = problem._spectrum(x)
            if k != _FOURIER:   # a ball: x plus the checked inverse of its step spectrum
                step = problem._ball_step(k, spectrum)
                return x if step is None else x + problem._inverse(step[0])
            return problem._project_fourier(spectrum.copy())

        return _member_steps(ks, x, project)


class _SpectralState:
    """The state of a block run of the image family, which iterates in the
    real view v of the weighted half spectrum X = w rfft2(x), and the steps
    of the batch it last evaluated.

    ``evaluate(ks, v)`` leaves the step spectrum D_k of each distinct drawn
    member that moves x: -(f_k / ||s_k||^2) 2 conj(K) (K X - Y_k) for a
    violated ball k, and for the Fourier member the difference target - X on
    the mask, kept as its masked values; the box, which is not linear in X,
    leaves its row p - x, taken at ``point(v)`` unless the box certificate
    below proves the row zero.  ``step(beta)`` returns the real view of S =
    sum_i beta_i D_{k_i}, with the weighted rfft2 of the box's share of its
    row when the box moves x, and takes no inverse.

    X picks up an anti-Hermitian part in its self-conjugate columns from
    rounding, which irfft2 drops, so there the Fourier member's difference
    is made Hermitian first, and its norm is that of the real step the
    inverse makes of it.  Unlike a ball's step, the Hermitian part of that
    difference vanishes as x nears the Fourier set while the anti-Hermitian
    part would not: a norm that counted it would break L >= 1.

    ``coordinates(x)`` is v, and ``point(v)`` is one checked irfft2, cached
    for the last v it was asked for.  It has no screen.

    The box certificate.  A box draw that maps X back and finds the box
    holding the point x_a reads min and max first, skips the clamp, and
    anchors there: X_a, ||v_a|| and the margin m_a = min(min x_a, 255 -
    max x_a), all read from the computed x_a.  A later box draw at X, other
    than the X last mapped back, bounds the pixel change by the weighted
    l1 norm B = sum_e w_e |X_e - X_a,e| of the half-spectrum change: x is
    the real part of ifft2 of the full spectrum that X / w stands for, in
    which an entry of a self-conjugate column appears once and every other
    entry twice, so X_e moves each pixel by at most |X_e| / (N w_e) or
    twice that, w_e |X_e| either way (N w_e^2 is 1 or 2).  In exact
    arithmetic ||x - x_a||_inf <= B <= ||v - v_a|| (Cauchy-Schwarz, the
    squared weights summing to 1).  When

        B (1 + delta) + cu (||v|| + ||v_a||) < m_a,

    every pixel that the checked inverse would compute lies in ]0, 255[,
    the clamp would give an exact zero row, and the draw takes no inverse.
    With u = 2^-53, N = n^2 pixels and N_h = n (n/2 + 1) half-spectrum
    entries:

    * the computed B is within (N_h + 6) u B of the exact one: a rounding
      of the subtraction, of the modulus, of each weight and of each
      product, and the sum of N_h terms in any order (Higham, Accuracy and
      Stability of Numerical Algorithms, eq. 3.4); delta = 10^3 (N_h + 8) u;
    * the computed inverse of X is within c_N u ||v|| of the exact one in
      the 2-norm, so in every pixel, with c_N = 7 log2(2N) + 5: the division
      by w rounds each entry by at most 3 u, and each pass of a radix-2
      FFT by at most 7 u log2 of its length to first order (Higham, Thm
      24.2, eta = mu + gamma_4 (sqrt 2 + mu) with accurate twiddles), so
      the two passes of the inverse by 7 u log2 N, log2(2N) allowing for
      the real-output packing and 2 u for the scaling; the same holds for
      x_a with ||v_a||, and cu = 10^3 c_N u leaves 10^3 times the bound for
      other radices and for the computed norms;
    * m_a is exact: min x_a is read, and 255 - max x_a is exact when max
      x_a >= 127.5 (Sterbenz) and exceeds min x_a otherwise.

    At the desk image (n = 64, ||v|| near 9e3) the allowance is about
    2e-7 of a pixel.  Before it skips, the draw makes the cheap residue
    test of the inverse it replaces (``_unsettled_residue``) on
    the same divided entries; when that test cannot settle the residue,
    the draw takes the full checked inverse instead, so a corrupted X
    raises at the same draw either way.  A NaN in X fails the comparison
    and takes the full path too.  The bound is read only for a decision
    whose outcome is the row the full path would give, so the run's bits
    do not depend on it.
    """

    screen = None

    def __init__(self, problem: ImageProblem):
        self._problem = problem
        n = problem.n
        self._grid = (n, n)
        self._shape = (n, n // 2 + 1)   # of X
        self._balls: dict = {}   # ball k -> D_k
        self._fourier = None     # the Fourier member's D on the mask
        self._box = None         # the box's row
        self._ks: list = []
        self._seen = self._point = None   # the last v mapped back, and its point
        # the box certificate: the weight of each entry of X, the relative
        # headroom delta of B, cu, and the anchor X_a, ||v_a||, m_a
        self._entry_weights = np.tile(problem._weights, n)
        self._edge_weight = float(problem._weights[0])
        self._delta = 1e3 * (n * (n // 2 + 1) + 8) * 2.0 ** -53
        self._cu = 1e3 * (7.0 * math.log2(2 * n * n) + 5.0) * 2.0 ** -53
        self._anchor = None
        self._anchor_norm = self._margin = 0.0

    def coordinates(self, x) -> np.ndarray:
        """The coordinates v of the point ``x``, once x is checked."""
        return self._problem._spectrum(self._problem._point(x)).reshape(-1).view(np.float64)

    def point(self, v: np.ndarray) -> np.ndarray:
        """The point in space whose coordinates are ``v``, checked."""
        if v is not self._seen:
            self._point = self._problem._inverse(v.view(np.complex128).reshape(self._shape))
            self._seen = v
        return self._point

    def _box_certified(self, v: np.ndarray) -> bool:
        """Whether the anchor's margin proves that the box holds the point
        whose coordinates are ``v``, and the cheap residue test passes."""
        anchor = self._anchor
        if anchor is None:
            return False
        change = np.abs((v - anchor).view(np.complex128))
        bound = float(change.dot(self._entry_weights))
        allowance = self._cu * (math.sqrt(float(v.dot(v))) + self._anchor_norm)
        if not bound * (1.0 + self._delta) + allowance < self._margin:
            return False
        return _unsettled_residue(v.view(np.complex128), self._grid, self._edge_weight) is None

    def _box_row(self, v: np.ndarray):
        """The box's row p - x at the point whose coordinates are ``v``, or
        None when the box holds that point."""
        if v is not self._seen and self._box_certified(v):
            return None
        x = self.point(v)
        # minimum.reduce is ndarray.min without its Python wrapper
        lo, hi = float(np.minimum.reduce(x)), float(np.maximum.reduce(x))
        if 0.0 <= lo and hi <= PIXEL_MAX:   # NaN fails, and takes the clamp
            if v is not self._anchor:
                self._anchor, self._anchor_norm = v, math.sqrt(float(v.dot(v)))
                self._margin = min(lo, PIXEL_MAX - hi)
            return None
        d = np.minimum(np.maximum(x, 0.0), PIXEL_MAX)
        d -= x
        return d

    def evaluate(self, ks, v):
        """The step norms r of the members ``ks`` at the point whose
        coordinates are ``v``, with the steps kept here; None when every
        member fixes it."""
        problem = self._problem
        spectrum = v.view(np.complex128).reshape(self._shape)
        balls = self._balls
        balls.clear()
        self._fourier = self._box = None
        self._ks = ks = np.asarray(ks).tolist()
        r = np.empty(len(ks))
        first = {}
        for i, k in enumerate(ks):
            j = first.setdefault(k, i)
            if j < i:
                r[i] = r[j]
            elif k == _BOX:
                d = self._box = self._box_row(v)
                r[i] = 0.0 if d is None else math.sqrt(float(d @ d))
            elif k == _FOURIER:
                diff = problem._hermitian_part(
                    problem._target_values - spectrum.ravel()[problem._mask_flat])
                r[i] = math.sqrt(problem._norm_sq(diff))
                if diff.any():
                    self._fourier = diff
            else:
                out = problem._ball_step(k, spectrum)
                if out is None:
                    r[i] = 0.0
                else:
                    balls[k], r[i] = out
        if not balls and self._fourier is None and self._box is None:
            return None
        return r

    def step(self, beta) -> np.ndarray:
        """The real view of the weighted half spectrum S of p - x = sum_i
        beta_i (T_{k_i} x - x) of the last evaluated batch; once per batch,
        since it scales the kept step spectra in place."""
        totals = {}
        for k, b in zip(self._ks, beta.tolist()):
            totals[k] = totals.get(k, 0.0) + b
        combined = None
        for k, spectrum in self._balls.items():
            spectrum *= totals[k]
            if combined is None:
                combined = spectrum
            else:
                combined += spectrum
        if self._fourier is not None:
            if combined is None:
                combined = np.zeros_like(self._problem._kernel_rfft)
            # combined is a fresh C-contiguous array, so ravel() is a view of it
            combined.ravel()[self._problem._mask_flat] += totals[_FOURIER] * self._fourier
        if self._box is not None:
            box = self._problem._spectrum(totals[_BOX] * self._box)
            if combined is None:
                combined = box
            else:
                combined += box
        return combined.reshape(-1).view(np.float64)


def confidence_radius(n: int) -> float:
    """xi = n^2 E u^2 + 1.96 n sqrt(E u^4 - (E u^2)^2) for u ~ uniform([0, 5])."""
    return n * n * _EU2 + 1.96 * n * math.sqrt(_EU4 - _EU2 ** 2)


def synthetic_image(n: int) -> np.ndarray:
    """Deterministic grayscale test image with values in [0, 255]."""
    ii, jj = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    img = 40.0 + 120.0 * (ii + jj) / (2.0 * (n - 1))
    # bright rectangle
    img[n // 8: n // 3, n // 6: n // 2] = 220.0
    # dark rectangle
    img[n // 2: 3 * n // 4, n // 2: 7 * n // 8] = 25.0
    # disk
    rr = (ii - 0.7 * n) ** 2 + (jj - 0.3 * n) ** 2
    img[rr < (0.15 * n) ** 2] = 180.0
    # thin bright line
    img[:, n // 2 - max(1, n // 64): n // 2] = 245.0
    return np.clip(img, 0.0, PIXEL_MAX)


def generate_image_problem(n: int = 256, seed: int = 0, blur_std: float = 8.0) -> ImageProblem:
    """Build a seeded image restoration instance (n must be a positive
    multiple of 8, blur_std finite and positive)."""
    if n <= 0 or n % 8 != 0:
        raise UsageError(f"image side must be a positive multiple of 8, got {n}")
    if not (blur_std > 0.0 and math.isfinite(blur_std)):
        raise UsageError(f"blur_std must be finite and positive, got {blur_std}")
    xbar = synthetic_image(n)
    kernel = gaussian_kernel_2d(n, blur_std)
    blurred = circ_conv(xbar, kernel)
    noise_rng = substream(seed, "observation_noise")
    noise = noise_rng.uniform(0.0, UNIFORM_NOISE_HIGH, size=(4, n, n))
    observations = blurred[None, :, :] + noise
    xi = confidence_radius(n)
    contains = tuple(bool(np.sum((observations[k] - blurred) ** 2) <= xi) for k in range(4))
    low = np.zeros((n, n), dtype=bool)
    low[: n // 8, : n // 8] = True
    mask = symmetrize_fourier_mask(low)
    target = np.where(mask, np.fft.fft2(xbar), 0.0 + 0.0j)
    return ImageProblem(n, xi, kernel, observations, xbar, mask, target, contains, seed)


def desk_image_problem(seed: int = 0) -> ImageProblem:
    """Reduced image instance: n=64 with the blur width scaled down.

    Pair with ``build_family(fourier_weight=DESK_IMAGE_FOURIER_WEIGHT)``;
    at this size the unit-relaxation run needs the spectrum constraint
    sampled more often to reach tight feasibility within a short budget.
    """
    return generate_image_problem(n=64, seed=seed, blur_std=DESK_IMAGE_BLUR_STD)
