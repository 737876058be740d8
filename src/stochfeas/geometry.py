"""Point coercion and the Fejer decrement of one relaxed step.

Every solver moves ``x_next = x - lam * d`` along some direction ``d``; for
a projector P the direction ``d = x - P(x)`` with ``lam = 1`` lands on the
projection.  :func:`fejer_decrement` measures how far such a step falls
short of the descent inequality against a point ``z``.

Points are dense 1-D float64 arrays; images enter flattened row-major.
"""

from __future__ import annotations

import numpy as np

from .exceptions import UsageError


def as_point(x, name: str = "point") -> np.ndarray:
    """Coerce ``x`` to a finite 1-D float64 array, raising UsageError otherwise."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 1:
        arr = arr.reshape(-1)
    if not np.all(np.isfinite(arr)):
        raise UsageError(f"{name} contains non-finite entries")
    return arr


def require_same_dim(a: np.ndarray, b: np.ndarray, what: str) -> None:
    if a.shape != b.shape:
        raise UsageError(f"dimension mismatch in {what}: {a.shape} vs {b.shape}")


def fejer_decrement(x, x_next, z, lam: float, d) -> float:
    """Return ``||x - z||^2 - ||x_next - z||^2 - lam (2 - lam) ||d||^2``.

    For ``x_next = x - lam d`` the update expands to

        ||x_next - z||^2 = ||x - z||^2 - lam (2 - lam) ||d||^2
                           + 2 lam <z + d - x, d>,

    so the value is nonnegative up to roundoff whenever the cross term is
    <= 0, as it is for ``d = x - P(x)`` with P the projection onto a convex
    set containing ``z``.  Arguments are float64 arrays of one shape; the
    callers validate them once, not on every step.
    """
    dist_sq = float((x - z) @ (x - z))
    next_sq = float((x_next - z) @ (x_next - z))
    return dist_sq - next_sq - lam * (2.0 - lam) * float(d @ d)
