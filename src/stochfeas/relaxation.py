"""Relaxation strategies: distributions for the per-iteration relaxation draw.

A strategy is an immutable distribution with positive support and
closed-form moments.  The key derived quantity is the damping
``E[lam (2 - lam)]``.  Each run's config checks its own hypotheses on the
strategy when it is built: the block iteration needs a positive damping,
its error-tolerant variant also support inside ]0, 2[, and relaxed KM
support inside ]0, 1/alpha[, all through :func:`require_support_inside`
and :meth:`RelaxationStrategy.moments`.

Moments are always computed in closed form; sampling exists only to drive
iterations, which take their draws from :meth:`RelaxationStrategy.draws`,
in the chunks of the one schedule, ``rngstreams.chunk_sizes``.  Strategies
are immutable and shareable across threads; the generators passed to their
``sample`` and ``draws`` methods are single-owner.

Each kind is stated once, in ``_CONFIG_KINDS``: its class, the fields of its
tagged-object form, its shorthand name and its label prefix, read by
:func:`strategy_from_config`, :func:`strategy_label` and the command line's
shorthand parser.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass

import numpy as np

from .exceptions import ConfigurationError, UsageError
from .rngstreams import chunk_sizes

@dataclass(frozen=True)
class RelaxationMoments:
    """Closed-form moments: mean E[lam], E[lam^2], and E[lam (2 - lam)]."""

    mean: float
    second_moment: float

    @property
    def damping(self) -> float:
        # defined through the identity so that it holds exactly
        return 2.0 * self.mean - self.second_moment


class RelaxationStrategy:
    """Base class; concrete strategies define support bounds, moments, draws."""

    def support_bounds(self) -> tuple[float, float]:
        """Return (inf, sup) of the support."""
        raise NotImplementedError

    def moments(self) -> RelaxationMoments:
        raise NotImplementedError

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """``size`` i.i.d. draws as an array; draw i is a function of uniform i
        of one ``rng.random(size)`` call (a constant draws nothing)."""
        raise NotImplementedError

    def draws(self, rng: np.random.Generator):
        """Endless i.i.d. draws from ``rng``, in the chunks of
        ``rngstreams.chunk_sizes``: lists of floats.  Read in order, they are
        the draws of one ``sample`` call."""
        for size in chunk_sizes():
            yield self.sample(rng, size).tolist()


@dataclass(frozen=True)
class Constant(RelaxationStrategy):
    """Degenerate strategy lam = value on every draw."""

    value: float

    def __post_init__(self):
        if not (np.isfinite(self.value) and self.value > 0.0):
            raise UsageError(f"constant relaxation must be positive, got {self.value}")

    def support_bounds(self):
        return (self.value, self.value)

    def moments(self):
        return RelaxationMoments(self.value, self.value ** 2)

    def sample(self, rng, size):
        return np.full(size, self.value)


@dataclass(frozen=True)
class TwoPoint(RelaxationStrategy):
    """Two-point strategy: value_a with probability prob_a, else value_b."""

    value_a: float
    prob_a: float
    value_b: float

    def __post_init__(self):
        for name, v in (("value_a", self.value_a), ("value_b", self.value_b)):
            if not (np.isfinite(v) and v > 0.0):
                raise UsageError(f"{name} must be positive, got {v}")
        if not (0.0 <= self.prob_a <= 1.0):
            raise UsageError(f"prob_a must lie in [0, 1], got {self.prob_a}")

    def support_bounds(self):
        return (min(self.value_a, self.value_b), max(self.value_a, self.value_b))

    def moments(self):
        p = self.prob_a
        mean = p * self.value_a + (1.0 - p) * self.value_b
        second = p * self.value_a ** 2 + (1.0 - p) * self.value_b ** 2
        return RelaxationMoments(mean, second)

    def sample(self, rng, size):
        return np.where(rng.random(size) < self.prob_a, self.value_a, self.value_b)


@dataclass(frozen=True)
class UniformInterval(RelaxationStrategy):
    """Uniform strategy on [lo, hi] with 0 < lo < hi."""

    lo: float
    hi: float

    def __post_init__(self):
        if not (np.isfinite(self.lo) and np.isfinite(self.hi) and 0.0 < self.lo < self.hi):
            raise UsageError(f"uniform interval requires 0 < lo < hi, got [{self.lo}, {self.hi}]")

    def support_bounds(self):
        return (self.lo, self.hi)

    def moments(self):
        mean = 0.5 * (self.lo + self.hi)
        second = (self.lo ** 2 + self.lo * self.hi + self.hi ** 2) / 3.0
        return RelaxationMoments(mean, second)

    def sample(self, rng, size):
        return self.lo + (self.hi - self.lo) * rng.random(size)


def require_support_inside(strategy: RelaxationStrategy, lo: float, hi: float, what: str) -> None:
    """Raise ConfigurationError unless the support lies strictly inside ]lo, hi[."""
    s_lo, s_hi = strategy.support_bounds()
    if not (s_lo > lo and s_hi < hi):
        raise ConfigurationError(
            f"{what}: support [{s_lo}, {s_hi}] not inside ]{lo}, {hi}["
        )


# The kinds, by tagged-object name: each one's class, its required fields in
# constructor order, its shorthand name and its label prefix.
_CONFIG_KINDS = {
    "constant": (Constant, ("value",), "const", "const"),
    "two_point": (TwoPoint, ("a", "p_a", "b"), "two_point", "twopoint"),
    "uniform": (UniformInterval, ("lo", "hi"), "uniform", "uniform"),
}


def _is_finite_number(value) -> bool:
    """True for an int or float that converts to a finite float."""
    try:
        return type(value) in (int, float) and math.isfinite(value)
    except OverflowError:   # an int beyond the float range
        return False


def strategy_from_config(obj: dict) -> RelaxationStrategy:
    """Build a strategy from its tagged-object form, as config files give it,
    e.g. {"kind": "uniform", "lo": 1.5, "hi": 2.3}.  Every field must be a
    finite number; a missing field or one the kind does not take is rejected."""
    if not isinstance(obj, dict) or "kind" not in obj:
        raise UsageError("relaxation config must be an object with a 'kind' field")
    kind = obj["kind"]
    if not isinstance(kind, str) or kind not in _CONFIG_KINDS:
        raise UsageError(f"unknown relaxation kind {kind!r}")
    cls, fields = _CONFIG_KINDS[kind][:2]
    unknown = sorted(set(obj) - {"kind", *fields})
    if unknown:
        raise UsageError(f"relaxation config for kind {kind!r} has unknown fields {unknown}")
    for name in fields:
        if name not in obj:
            raise UsageError(f"relaxation config for kind {kind!r} missing field {name!r}")
        if not _is_finite_number(obj[name]):
            raise UsageError(f"relaxation config field {name!r} must be a finite number, "
                             f"got {obj[name]!r}")
    return cls(*(float(obj[name]) for name in fields))


def _label_field(value) -> str:
    """``value`` in six significant digits when that text reads back as the
    same number, else as the shortest text that reads back as its float."""
    text = f"{value:g}"
    return text if float(text) == value else repr(float(value))


def strategy_label(strategy: RelaxationStrategy) -> str:
    """Short deterministic label used in output file names and run seeds: the
    kind's prefix and its fields in constructor order, joined by '-', e.g.
    twopoint2.3-0.5-1.5.  Each field's text reads back as the field, so two
    strategies of one kind that differ in a field get different labels
    (const1.0000001, not const1)."""
    for cls, _, _, prefix in _CONFIG_KINDS.values():
        if isinstance(strategy, cls):
            return prefix + "-".join(_label_field(value) for value in astuple(strategy))
    raise UsageError(f"no label for relaxation {strategy!r}")
