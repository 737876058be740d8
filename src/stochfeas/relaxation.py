"""Relaxation strategies: distributions for the per-iteration relaxation draw.

A strategy is an immutable distribution with positive support, closed-form
moments, and a declared cap ``rho >= 2`` bounding its support from above.
The key derived quantity is the damping ``E[lam (2 - lam)]``.  Each run's
config checks its own hypotheses on the strategy when it is built: the block
iteration needs a positive damping, its error-tolerant variant also support
inside ]0, 2[, and relaxed KM support inside ]0, 1/alpha[, all through
:func:`require_support_inside` and :meth:`RelaxationStrategy.moments`.

Moments are always computed in closed form; sampling exists only to drive
iterations.  Strategies are immutable and shareable across threads; the
generators passed to their ``sample`` methods are single-owner.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .exceptions import ConfigurationError, UsageError

@dataclass(frozen=True)
class RelaxationMoments:
    """Closed-form moments: mean E[lam], E[lam^2], and E[lam (2 - lam)]."""

    mean: float
    second_moment: float
    damping: float = field(init=False)

    def __post_init__(self):
        # damping is defined through the identity so it holds exactly
        object.__setattr__(self, "damping", 2.0 * self.mean - self.second_moment)


class RelaxationStrategy:
    """Base class; concrete strategies define support bounds, moments, draws."""

    cap: float

    def support_bounds(self) -> tuple[float, float]:
        """Return (inf, sup) of the support."""
        raise NotImplementedError

    def moments(self) -> RelaxationMoments:
        raise NotImplementedError

    def sample(self, rng: np.random.Generator) -> float:
        raise NotImplementedError

    def _check_cap(self, cap: Optional[float]) -> float:
        lo, hi = self.support_bounds()
        if lo <= 0.0:
            raise UsageError(f"relaxation support must be positive, got inf {lo}")
        cap = max(2.0, hi) if cap is None else float(cap)
        if cap < 2.0:
            raise UsageError(f"declared cap rho must be >= 2, got {cap}")
        if hi > cap:
            raise UsageError(f"support sup {hi} exceeds declared cap {cap}")
        return cap


@dataclass(frozen=True)
class Constant(RelaxationStrategy):
    """Degenerate strategy lam = value on every draw."""

    value: float
    cap: Optional[float] = None

    def __post_init__(self):
        if not (np.isfinite(self.value) and self.value > 0.0):
            raise UsageError(f"constant relaxation must be positive, got {self.value}")
        object.__setattr__(self, "cap", self._check_cap(self.cap))

    def support_bounds(self):
        return (self.value, self.value)

    def moments(self):
        return RelaxationMoments(self.value, self.value ** 2)

    def sample(self, rng):
        return self.value


@dataclass(frozen=True)
class TwoPoint(RelaxationStrategy):
    """Two-point strategy: value_a with probability prob_a, else value_b."""

    value_a: float
    prob_a: float
    value_b: float
    cap: Optional[float] = None

    def __post_init__(self):
        for name, v in (("value_a", self.value_a), ("value_b", self.value_b)):
            if not (np.isfinite(v) and v > 0.0):
                raise UsageError(f"{name} must be positive, got {v}")
        if not (0.0 <= self.prob_a <= 1.0):
            raise UsageError(f"prob_a must lie in [0, 1], got {self.prob_a}")
        object.__setattr__(self, "cap", self._check_cap(self.cap))

    def support_bounds(self):
        return (min(self.value_a, self.value_b), max(self.value_a, self.value_b))

    def moments(self):
        p = self.prob_a
        mean = p * self.value_a + (1.0 - p) * self.value_b
        second = p * self.value_a ** 2 + (1.0 - p) * self.value_b ** 2
        return RelaxationMoments(mean, second)

    def sample(self, rng):
        return self.value_a if rng.random() < self.prob_a else self.value_b


@dataclass(frozen=True)
class UniformInterval(RelaxationStrategy):
    """Uniform strategy on [lo, hi] with 0 < lo < hi."""

    lo: float
    hi: float
    cap: Optional[float] = None

    def __post_init__(self):
        if not (np.isfinite(self.lo) and np.isfinite(self.hi) and 0.0 < self.lo < self.hi):
            raise UsageError(f"uniform interval requires 0 < lo < hi, got [{self.lo}, {self.hi}]")
        object.__setattr__(self, "cap", self._check_cap(self.cap))

    def support_bounds(self):
        return (self.lo, self.hi)

    def moments(self):
        mean = 0.5 * (self.lo + self.hi)
        second = (self.lo ** 2 + self.lo * self.hi + self.hi ** 2) / 3.0
        return RelaxationMoments(mean, second)

    def sample(self, rng):
        return self.lo + (self.hi - self.lo) * rng.random()


def require_support_inside(strategy: RelaxationStrategy, lo: float, hi: float, what: str) -> None:
    """Raise ConfigurationError unless the support lies strictly inside ]lo, hi[."""
    s_lo, s_hi = strategy.support_bounds()
    if not (s_lo > lo and s_hi < hi):
        raise ConfigurationError(
            f"{what}: support [{s_lo}, {s_hi}] not inside ]{lo}, {hi}["
        )


# The tagged-object kinds: each one's class and its required fields, in
# constructor order.  Every kind also takes an optional "cap".
_CONFIG_KINDS = {
    "constant": (Constant, ("value",)),
    "two_point": (TwoPoint, ("a", "p_a", "b")),
    "uniform": (UniformInterval, ("lo", "hi")),
}


def strategy_from_config(obj: dict) -> RelaxationStrategy:
    """Build a strategy from its tagged-object form, as config files give it,
    e.g. {"kind": "uniform", "lo": 1.5, "hi": 2.3}.  Every field must be a
    number; a missing field or one the kind does not take is rejected."""
    if not isinstance(obj, dict) or "kind" not in obj:
        raise UsageError("relaxation config must be an object with a 'kind' field")
    kind = obj["kind"]
    if not isinstance(kind, str) or kind not in _CONFIG_KINDS:
        raise UsageError(f"unknown relaxation kind {kind!r}")
    cls, fields = _CONFIG_KINDS[kind]
    unknown = sorted(set(obj) - {"kind", "cap", *fields})
    if unknown:
        raise UsageError(f"relaxation config for kind {kind!r} has unknown fields {unknown}")
    for name in fields + ("cap",):
        if name not in obj:
            if name != "cap":
                raise UsageError(f"relaxation config for kind {kind!r} missing field {name!r}")
        elif type(obj[name]) not in (int, float):
            raise UsageError(f"relaxation config field {name!r} must be a number, "
                             f"got {obj[name]!r}")
    return cls(*(float(obj[name]) for name in fields), cap=obj.get("cap"))


def strategy_label(strategy: RelaxationStrategy) -> str:
    """Short deterministic label used in output file names."""
    if isinstance(strategy, Constant):
        return f"const{strategy.value:g}"
    if isinstance(strategy, TwoPoint):
        return f"twopoint{strategy.value_a:g}-{strategy.prob_a:g}-{strategy.value_b:g}"
    if isinstance(strategy, UniformInterval):
        return f"uniform{strategy.lo:g}-{strategy.hi:g}"
    return type(strategy).__name__.lower()
