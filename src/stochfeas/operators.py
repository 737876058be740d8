"""Firmly quasinonexpansive operator toolbox.

The exact box projector and indexed operator families with reproducible
categorical index sampling.

Every built-in projector P satisfies P(P(x)) = P(x) and the firm
quasinonexpansiveness inequality

    ||T x - z||^2 + ||T x - x||^2 <= ||x - z||^2   for all z in Fix T.

A family applies its operators through ``evaluate``, which returns the
steps T_k x - x of the drawn members at one point, or None when every
drawn member fixes that point, so that each step is an exact zero row.
A block run applies them through the state that ``run_state(x0)`` gives
it, which keeps the steps of the batch (see ``_IndexedFamily``).
``OperatorFamily`` holds plain callables.  ``LinearFamily`` holds the
projectors onto half-spaces, hyperslabs and hyperplanes {z : lo_k <= <a_k,
z> <= hi_k} and evaluates a batch in one matrix-vector product; it is the
one place the slab projection is written, and with it the one sweep over
all members' values, the violation, the clearance radii and the screened
run state.  The signal problem's family (``signal._SlabFamily``) is a
``LinearFamily`` over circulant rows that only lays out its rows and sweeps
by FFT.  The image problem's family (``image._ImageFamily``) works on the
problem's half spectra directly.  Families are immutable after
construction and safe to evaluate concurrently; index-sampling generators
are single-owner.  The demiclosedness of Id - T at 0, assumed by the
convergence theory, is an analytic property of the supplied maps and is
not checked at runtime.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, Optional, Sequence

import numpy as np

from .exceptions import UsageError
from .geometry import as_point
from .rngstreams import chunk_sizes


def project_box(lo, hi, x) -> np.ndarray:
    """Componentwise clamp of ``x`` to the box [lo, hi]."""
    x = as_point(x, "x")
    lo = np.broadcast_to(np.asarray(lo, dtype=np.float64), x.shape)
    hi = np.broadcast_to(np.asarray(hi, dtype=np.float64), x.shape)
    if not np.all(lo <= hi):   # a NaN bound fails the comparison too
        raise UsageError("box bounds require lo <= hi componentwise, without NaN")
    return np.minimum(np.maximum(x, lo), hi)


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

    A block run applies the family through one state, ``run_state(x0)``,
    which belongs to the run: the family stays immutable.  Every state has
    the same five members:

    * ``evaluate(ks, v)``: the step norms r of the members ``ks`` at the
      iterate v, or None when every member fixes it; the steps stay in the
      state;
    * ``step(beta)``: the averaged step p - x = sum_i beta_i (T_{k_i} x - x)
      of the batch last evaluated;
    * ``screen(batches, v)``: how many leading batches of ``batches`` (shape
      (w, M)) it proves all-fixed at v without evaluating them; or ``screen
      = None`` for a state without such a certificate;
    * ``coordinates(x)``: the coordinates v of a point x, in which the run
      iterates, and ``point(v)``, the point they stand for.

    Coordinates are 1-D float64 vectors, and the map x -> v is a linear
    isometry: the run's update arithmetic and every norm it takes, v.dot(v),
    are the same in any state's coordinates.  A state in space takes the
    point itself (``_RowState``); the image experiment's takes the weighted
    half spectrum of x, seen as real numbers.

    ``LinearFamily``, ``signal._SlabFamily`` and ``image._ImageFamily`` check
    x0 in ``run_state``: a wrong length raises UsageError.  The default
    ``run_state``, which ``OperatorFamily`` uses, checks nothing and cannot,
    since its callables fix the dimension: a wrong-length x0 fails as the
    member's own error (numpy's ValueError from ``a @ x``, say), and the
    wrong-length property of tests/test_run_state.py does not apply to it.
    The state's ``evaluate`` need not check v again: every step keeps the
    shape of x0, because the checked families form their steps in that
    shape and ``_member_steps`` checks each member's point, and the run's
    divergence guard checks the finiteness of every iterate.  The default
    state keeps the rows of a bare ``evaluate`` (``_RowState``), and so does
    the state that ``block.run_block`` builds for the error-tolerant
    variant, which adds its error rows to them.  The state of every
    ``LinearFamily`` adds a screen (``_ScreenedState``), and the image
    experiment's combines its members' step spectra.
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
        """Endless i.i.d. index draws from ``rng``, in the chunks of
        ``rngstreams.chunk_sizes``: arrays of single indices when ``m`` is
        None, else of batches, shape (size, m).

        Read in order, the draws are the same sequence as one
        ``sample_indices(self, rng, m or 1)`` call per draw.
        """
        for size in chunk_sizes():
            ks = sample_indices(self, rng, size * (m or 1))
            yield ks if m is None else ks.reshape(size, m)
            del ks   # let the spent chunk go before the next one is drawn

    def evaluate(self, ks, x: np.ndarray) -> Optional[tuple[np.ndarray, np.ndarray]]:
        """Steps ``T_k x - x`` for each k in ``ks`` (shape (M, n)) and their
        norms (M,), or None when every step is zero."""
        raise NotImplementedError

    def run_state(self, x0: np.ndarray):
        """The state of one block run from x0, see the class docstring."""
        return _RowState(self.evaluate)


class _RowState:
    """The run state of a family whose steps are rows in space: it keeps
    the rows of the batch it last evaluated, screens nothing, and iterates
    on the point itself, its own coordinates.

    With ``noise``, an iterator over the error rows (M, n) of each
    evaluation in turn, it is the state of the error-tolerant variant: its
    rows are the errors plus the steps, which are zero rows for an
    all-fixed batch, so it reports no batch all-fixed.
    """

    screen = None
    coordinates = point = staticmethod(lambda v: v)

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
    per-member loop that the image experiment's family shares.  Linear
    constraints take all their rows in one matrix-vector product instead
    (``LinearFamily``).
    """

    def __init__(self, members: Sequence, weights=None):
        members = list(members)
        super().__init__(len(members), weights)
        self.members = members

    def evaluate(self, ks, x):
        return _member_steps(ks, x, lambda k: self.members[k](x))


class LinearFamily(_IndexedFamily):
    """The projectors onto the hyperslabs {z : lo_k <= <a_k, z> <= hi_k},
    a_k row k of ``rows``, with the uniform index law.

    ``lo_k = -inf`` makes member k the half-space {z : <a_k, z> <= hi_k},
    and ``lo_k = hi_k`` a hyperplane.  Rows must be finite, with finite
    nonzero squared norms; bounds must satisfy lo_k <= hi_k, without NaN,
    and leave each set nonempty (lo_k < inf, hi_k > -inf).

    ``evaluate`` gathers the M drawn rows and takes their inner products
    with x in one matrix-vector product.  Member k's step is s_k a_k, with
    s_k = (clamp(v_k, lo_k, hi_k) - v_k) / ||a_k||^2 and v_k = <a_k, x>:
    a member whose set holds x gets s_k = v_k - v_k = 0 and an exact zero
    row.  The batch is all-fixed when every s_k is 0, which needs no scan of
    the rows; a NaN counts as nonzero and takes the full path.  Each
    reported norm is that of the row returned, summed as ``v.dot(v)`` sums
    it, so a batch of one gives the extrapolation L = 1 exactly.

    Member k's row is ``table[offsets[k]]``: here the rows themselves, and
    for the signal experiment's family windows of a strided view of its
    base rows (``signal._SlabFamily``).

    One sweep, ``values(z)``, gives <a_k, z> for every member k: here one
    matrix-vector product, for the signal family one batched FFT
    convolution.  ``clearance`` and ``violation`` read it, and a block run
    keeps the rows in a ``_ScreenedState``, whose screen reads the radii of
    ``clearance``.
    """

    def __init__(self, rows, lo, hi):
        rows = np.array(rows, dtype=np.float64)
        if rows.ndim != 2:
            raise UsageError(f"rows must be a 2-D array, got shape {rows.shape}")
        lo = np.array(lo, dtype=np.float64)
        hi = np.array(hi, dtype=np.float64)
        if lo.shape != (len(rows),) or hi.shape != (len(rows),):
            raise UsageError(f"bounds of shapes {lo.shape} and {hi.shape} do not match "
                             f"{len(rows)} rows")
        if not np.all(np.isfinite(rows)):
            raise UsageError("rows must be finite")
        norm_sq = np.einsum("ij,ij->i", rows, rows)
        # a squared norm that underflows to 0 or overflows would give s = inf or 0
        bad = np.flatnonzero(~((norm_sq > 0.0) & (norm_sq < np.inf)))
        if bad.size:
            raise UsageError(f"row {bad[0]} has squared norm {norm_sq[bad[0]]}, "
                             "not finite and positive")
        if not np.all(lo <= hi):   # a NaN bound fails the comparison too
            raise UsageError("bounds require lo <= hi, without NaN")
        if np.any(lo == np.inf) or np.any(hi == -np.inf):
            raise UsageError("bounds lo = inf or hi = -inf leave a set empty")
        self._bind(rows, np.arange(len(rows)), norm_sq, lo, hi)

    def _bind(self, table, offsets, row_sq, lo, hi):
        """Member k: the normal ``table[offsets[k]]``, its squared norm
        ``row_sq[k]`` and the bounds ``lo[k] <= hi[k]``, all checked."""
        super().__init__(len(offsets))
        self._table, self._offsets = table, offsets
        self._norm_sq, self._norm, self._lo, self._hi = row_sq, np.sqrt(row_sq), lo, hi

    def run_state(self, x0):
        if x0.shape != self._table.shape[1:]:
            raise UsageError(f"dimension mismatch in x0: {x0.shape} vs {self._table.shape[1:]}")
        return _ScreenedState(self)

    def values(self, z: np.ndarray) -> np.ndarray:
        """<a_k, z> for every member k, in member order, in one sweep."""
        return self._table @ z

    def violation(self, z: np.ndarray) -> float:
        """max_k of max(lo_k - v_k, v_k - hi_k), v_k the swept <a_k, z>: the
        largest distance of a value to its bounds, <= 0 when z lies in
        every set."""
        v = self.values(z)
        return float(np.max(np.maximum(self._lo - v, v - self._hi)))

    def clearance(self, z: np.ndarray) -> np.ndarray:
        """Radii rho_k such that every x with ||x - z|| < rho_k lies in set
        k to rounding: ``evaluate`` computes fl(a_k . x) in [lo_k, hi_k],
        so member k gives s_k = 0 exactly.

        With v_k the swept value of a_k . z, m_k = min(v_k - lo_k, hi_k -
        v_k), u = 2^-53, c_n = 3 (n + 3) + 32 sqrt(n) log2(2n) and cu =
        10^3 c_n u:

            rho_k = (1 - cu) m_k / ||a_k|| - cu ||z||.

        For ||x - z|| < rho_k the exact a_k . x lies within ||a_k|| rho_k
        <= m_k of a_k . z, and S_k = ||a_k|| ||z|| + m_k >= ||a_k|| ||x||
        bounds every rounding between that and the computed values:

        * the gemv of ``evaluate``: |fl(a . x) - a . x| <= gamma_n |a|.|x|
          <= gamma_n S_k for any summation order, gamma_n = n u / (1 - n u);
        * the sweep: the gemv of ``values`` gives gamma_n ||a_k|| ||z||
          the same way.  The signal family's FFT sweep: a radix-2 FFT has
          ||fl(F x) - F x|| <= 7 u log2(n) ||F x|| to first order (Higham,
          Accuracy and Stability of Numerical Algorithms, Thm 24.2, eta =
          mu + gamma_4 (sqrt 2 + mu) with exact twiddles).  Two forward
          transforms, the spectral product and the inverse then bound the
          error of every v_k by (21 log2 n + 3) u sqrt(n) ||a_k|| ||z||,
          using ||b||_1 <= sqrt(n) ||b||_2; log2(2n) in place of log2 n
          allows for the real-input packing and other radices;
        * the distance ||x - z|| as the screen computes it, gamma_{n+3}
          relative and so at most gamma_{n+3} m_k through ||a_k||, and the
          roundings of v_k - lo_k, the minimum and the arithmetic of
          rho_k, a few u on quantities <= S_k.

        To first order these sum to below 1.01 (3n + 8) u S_k with the
        gemv sweep and 1.01 (2n + 8 + 24 sqrt(n) log2(2n)) u S_k with the
        FFT sweep, both <= c_n u S_k, and ||a_k|| rho_k = m_k - cu S_k
        leaves 10^3 times that bound for every member.  At the desk
        signal's truth (n = 256, cu = 6.0e-10) cu S_k is at most 1.5e-9,
        against slab margins of at least 0.4 eta = 0.06.  A member whose
        set does not hold z with that allowance gets rho_k <= 0 and is
        never screened.  A member whose bounds are both infinite fixes
        every x with a finite value and gets rho_k = +inf: m_k / ||a_k||
        is scaled before the finite cu ||z|| is subtracted, so no inf - inf
        arises.  A NaN in z gives NaN radii, which screen nothing.
        """
        n = z.shape[0]
        # cu = 10^3 c_n u
        cu = 1e3 * (3.0 * (n + 3) + 32.0 * math.sqrt(n) * math.log2(2 * n)) * 2.0 ** -53
        v = self.values(z)
        margin = np.minimum(v - self._lo, self._hi - v, out=v)
        margin /= self._norm
        margin *= 1.0 - cu
        margin -= cu * math.sqrt(float(z.dot(z)))
        return margin

    def evaluate(self, ks, x):
        ks = np.asarray(ks)
        rows = self._table[self._offsets[ks]]
        v = rows @ x
        s = np.minimum(np.maximum(v, self._lo[ks]), self._hi[ks]) - v
        if np.count_nonzero(s) == 0:   # cheaper than s.any() on a short array
            return None
        s /= self._norm_sq[ks]
        rows *= s[:, None]
        # one dot product per row, each the one run_block's v.dot(v) takes
        return rows, np.sqrt(np.matmul(rows[:, None, :], rows[:, :, None]).ravel())


class _ScreenedState(_RowState):
    """The rows of a linear family's last batch, and its screen: radii that
    prove batches all-fixed without evaluating them.

    The state keeps an anchor z, the radii rho = ``clearance(z)`` and the
    distance ||x - z||, recomputed only when x is a new array.  When
    min_i rho_{k_i} > ||x - z||, every member of the batch fixes x, and
    ``evaluate`` reports it all-fixed without the projection arithmetic:
    the answer that arithmetic would give, so the run's bits are the same.
    There is no anchor until an evaluated batch is all-fixed; each time one
    is, at an x other than the anchor, the state anchors there.
    """

    def __init__(self, family: LinearFamily):
        super().__init__(family.evaluate)
        self._clearance = family.clearance
        self._anchor = self._radii = self._seen = None
        self._distance = 0.0

    def evaluate(self, ks, x):
        radii = self._radii
        if radii is not None:
            if x is not self._seen:
                d = x - self._anchor
                self._distance, self._seen = math.sqrt(float(d.dot(d))), x
            # minimum.reduce is ndarray.min without its Python wrapper
            if np.minimum.reduce(radii[ks]) > self._distance:
                return None
        out = self._evaluate(ks, x)
        if out is None:
            if x is not self._anchor:
                self._anchor = self._seen = x
                self._radii, self._distance = self._clearance(x), 0.0
            return None
        self._rows, r = out
        return r

    def screen(self, batches, x):
        """How many leading batches of ``batches`` the radii prove all-fixed
        at x; none without an anchor or before ``evaluate`` has seen x."""
        radii = self._radii
        if radii is None or x is not self._seen:
            return 0
        held = np.minimum.reduce(radii[batches], axis=1) > self._distance
        first = int(held.argmin())   # the first batch not held, or 0 if all are
        return first if not held[first] else len(held)


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
