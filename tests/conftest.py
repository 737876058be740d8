"""Shared test fixtures and independent oracles.

The oracles here deliberately avoid the library's own code paths: distance
to an intersection of half-spaces comes from Dykstra's alternating scheme,
the reference block update is a straight-line transcription kept free
of the solver's bookkeeping, and relaxation draws are transcribed one
``rng.random()`` at a time rather than taken from the solvers' chunks.
"""

import itertools

import numpy as np
import pytest

from stochfeas import relaxation as rx
from stochfeas.operators import OperatorFamily, halfspace_projector


def halfspace_proj_oracle(a, b, x):
    """Projection onto {z : <a, z> <= b} written independently."""
    a = np.asarray(a, dtype=float)
    x = np.asarray(x, dtype=float)
    excess = a @ x - b
    if excess <= 0:
        return x.copy()
    return x - excess * a / (a @ a)


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
    family = OperatorFamily(
        [halfspace_projector(normals[i], offsets[i]) for i in range(count)]
    )
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


def force_indices(monkeypatch, family, ks):
    """Make every index batch that ``run_block`` draws from ``family`` equal ``ks``:
    the family's index chunks become 16 copies of ``ks`` each."""
    chunk = np.tile(np.asarray(ks), (16, 1))
    monkeypatch.setattr(family, "draws", lambda rng, m=None: itertools.repeat(chunk))


def reference_block_step(x, ps, beta, lam):
    """Straight-line transcription of one extrapolated block update."""
    x = np.asarray(x, dtype=float)
    diffs = [p - x for p in ps]
    p_bar = sum(b * p for b, p in zip(beta, ps))
    num = sum(b * (d @ d) for b, d in zip(beta, diffs))
    den = (p_bar - x) @ (p_bar - x)
    if den == 0.0:
        L = (num + 1.0) / 1.0
    else:
        L = num / den
    a = x + L * (p_bar - x)
    return x + lam * (a - x), L


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
