"""Core data types: interval domains, weighted samples, and mean-kind tags.

Weighted samples keep their weights exactly as given (never rescaled), so
weight-nullhomogeneity is a testable property of every mean rather than a
hidden normalization.  Extended exponents are plain floats: ``float("inf")``
and ``float("-inf")`` select the max/min limiting cases of the power mean.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

from .errors import (
    AllWeightsZero,
    EntryOutOfDomain,
    LengthMismatch,
    MismatchedEntries,
    NegativeWeight,
)

# Relative margin used whenever a solver has to evaluate near an open endpoint.
ENDPOINT_MARGIN = 1e-12


def endpoint_margin(value: float) -> float:
    return ENDPOINT_MARGIN * max(1.0, abs(value))


def check_tolerance(name: str, value: float) -> float:
    """``value`` when 0 <= value < inf; otherwise ValueError, naming the
    tolerance ``name``."""
    if not 0.0 <= value < math.inf:
        raise ValueError(f"{name} must be finite and nonnegative, got {value!r}")
    return value


def sign(v: float) -> int:
    """Sign with sign(0) = 0."""
    return (v > 0.0) - (v < 0.0)


@dataclass(frozen=True)
class IntervalDomain:
    """An open real interval (lo, hi); endpoints may be infinite."""

    lo: float
    hi: float

    def __post_init__(self):
        if math.isnan(self.lo) or math.isnan(self.hi):
            raise ValueError("interval endpoints must not be NaN")
        if not self.lo < self.hi:
            raise ValueError(f"empty interval ({self.lo}, {self.hi})")

    def contains(self, x: float) -> bool:
        return self.lo < x < self.hi

    @property
    def starts_at_zero(self) -> bool:
        """True for the canonical scaling domain: lower endpoint at 0."""
        return self.lo == 0.0

    def inner_lo(self) -> float:
        """Lowest point a solver is allowed to touch."""
        if math.isinf(self.lo):
            return -1e300
        return self.lo + endpoint_margin(self.lo)

    def inner_hi(self) -> float:
        if math.isinf(self.hi):
            return 1e300
        return self.hi - endpoint_margin(self.hi)

    def __str__(self) -> str:
        return f"({self.lo}, {self.hi})"


def positive_reals() -> IntervalDomain:
    return IntervalDomain(0.0, math.inf)


def all_reals() -> IntervalDomain:
    return IntervalDomain(-math.inf, math.inf)


def open_interval(lo: float, hi: float) -> IntervalDomain:
    return IntervalDomain(lo, hi)


def probe_points(domain: IntervalDomain, count: int) -> list[float]:
    """Uniform points on an interior window of ``domain``, for admission probes.

    Infinite ends are replaced by a window of width 16; finite ends are
    padded by 5% of the window so probes stay clear of singular endpoints.
    """
    if count < 2:
        raise ValueError("need at least 2 probe points")
    lo_fin, hi_fin = not math.isinf(domain.lo), not math.isinf(domain.hi)
    if lo_fin and hi_fin:
        pad = 0.05 * (domain.hi - domain.lo)
        a, b = domain.lo + pad, domain.hi - pad
    elif lo_fin:
        a, b = domain.lo + 0.8, domain.lo + 16.0
    elif hi_fin:
        a, b = domain.hi - 16.0, domain.hi - 0.8
    else:
        a, b = -8.0, 8.0
    step = (b - a) / (count - 1)
    return [a + j * step for j in range(count)]


@dataclass(frozen=True)
class WeightedSample:
    """Entry vector with nonnegative weights (at least one positive)."""

    entries: tuple[float, ...]
    weights: tuple[float, ...]
    domain: IntervalDomain

    def __len__(self) -> int:
        return len(self.entries)

    def hull(self) -> tuple[float, float]:
        return min(self.entries), max(self.entries)

    def total_weight(self) -> float:
        return math.fsum(self.weights)

    def is_constant(self) -> bool:
        return min(self.entries) == max(self.entries)

    def scaled(self, t: float, domain: IntervalDomain | None = None) -> "WeightedSample":
        """Entries t x_i with the same weights, checked against ``domain``
        (default: this sample's).  The weights were validated when this
        sample was made, so only the scaled entries are checked."""
        dom = domain or self.domain
        entries = tuple([t * x for x in self.entries])
        for x in entries:
            if not dom.contains(x):
                raise EntryOutOfDomain(f"entry {x} outside {dom}")
        return WeightedSample(entries, self.weights, dom)

    def rescaled_weights(self, t: float) -> "WeightedSample":
        return make_weighted_sample(self.entries, [t * w for w in self.weights], self.domain)

    def permuted(self, order: Sequence[int]) -> "WeightedSample":
        return make_weighted_sample(
            [self.entries[i] for i in order],
            [self.weights[i] for i in order],
            self.domain,
        )

    def with_domain(self, domain: IntervalDomain) -> "WeightedSample":
        return make_weighted_sample(self.entries, self.weights, domain)


def make_weighted_sample(
    entries: Sequence[float], weights: Sequence[float], domain: IntervalDomain
) -> WeightedSample:
    """Validate and freeze a weighted sample.

    Weights must be nonnegative with a positive total; entries must lie in
    ``domain``.  Weights are stored exactly as given.  After the length
    checks, entries and weights are converted with ``float`` and checked by
    ``float_sample``.
    """
    _check_lengths(entries, weights)
    return float_sample(tuple(map(float, entries)), tuple(map(float, weights)), domain)


def float_sample(
    entries: tuple[float, ...], weights: tuple[float, ...], domain: IntervalDomain
) -> WeightedSample:
    """``make_weighted_sample`` for tuples of floats, which are stored as
    given: the same checks and errors without the conversion.

    A sample whose hull ends lie in ``domain``, whose least weight is
    positive and whose entry and weight sums are finite passes every check
    and is returned at once (``min`` and ``max`` skip a NaN that is not
    first; the sums do not).  Any other sample goes through
    ``_checked_sample``, which raises for the first offending value or
    accepts what the reduced check refuses (zero or infinite weights, sums
    overflowing).
    """
    if (
        entries
        and len(entries) == len(weights)
        and domain.lo < min(entries)
        and max(entries) < domain.hi
        and min(weights) > 0.0
        and math.isfinite(sum(entries) + sum(weights))
    ):
        return WeightedSample(entries, weights, domain)
    return _checked_sample(entries, weights, domain)


def _checked_sample(
    entries: tuple[float, ...], weights: tuple[float, ...], domain: IntervalDomain
) -> WeightedSample:
    """``float_sample`` checking the lengths, then every weight, then every
    entry, each error naming the first offending value."""
    _check_lengths(entries, weights)
    for w in weights:
        if math.isnan(w) or w < 0.0:
            raise NegativeWeight(f"weight {w} is negative or NaN")
    if all(w == 0.0 for w in weights):
        raise AllWeightsZero("at least one weight must be positive")
    for x in entries:
        if not domain.contains(x):
            raise EntryOutOfDomain(f"entry {x} outside {domain}")
    return WeightedSample(entries, weights, domain)


def _check_lengths(entries: Sequence[float], weights: Sequence[float]) -> None:
    if len(entries) != len(weights):
        raise LengthMismatch(f"{len(entries)} entries vs {len(weights)} weights")
    if len(entries) == 0:
        raise LengthMismatch("sample must not be empty")


def shuffle_merge(s1: WeightedSample, s2: WeightedSample) -> WeightedSample:
    """Interleave two samples over the same entries: (x, lam), (x, mu) ->
    ((x1, x1, ..., xn, xn), (lam1, mu1, ..., lamn, mun)).

    Used to test the reduction principle M(x, lam + mu) = M(merged).
    """
    if s1.entries != s2.entries or s1.domain != s2.domain:
        raise MismatchedEntries("samples must share entries and domain")
    entries: list[float] = []
    weights: list[float] = []
    for x, a, b in zip(s1.entries, s1.weights, s2.weights):
        entries.extend((x, x))
        weights.extend((a, b))
    return make_weighted_sample(entries, weights, s1.domain)


def eliminate_zero_weights(s: WeightedSample) -> WeightedSample:
    """Drop coordinates whose weight is exactly zero."""
    kept = [(x, w) for x, w in zip(s.entries, s.weights) if w != 0.0]
    return make_weighted_sample([x for x, _ in kept], [w for _, w in kept], s.domain)


class MeanKind(Enum):
    """The four sign-change means of a deviation kernel.

    For the weighted deviation sum D(y) = sum_i w_i K(x_i, y):
      LOWER_WEAK   = inf{y : D(y) <= 0}
      LOWER_STRICT = inf{y : D(y) <  0}
      UPPER_STRICT = sup{y : D(y) >  0}
      UPPER_WEAK   = sup{y : D(y) >= 0}
    """

    LOWER_WEAK = "lower-weak"
    LOWER_STRICT = "lower-strict"
    UPPER_STRICT = "upper-strict"
    UPPER_WEAK = "upper-weak"

    # Members are singletons compared by identity, so the object hash is a
    # valid hash and avoids Enum's Python-level one on every dict lookup.
    __hash__ = object.__hash__

    @property
    def is_inf_kind(self) -> bool:
        return self in (MeanKind.LOWER_WEAK, MeanKind.LOWER_STRICT)

    @property
    def has_strict_test(self) -> bool:
        """The kind's test on the class c of D(y): c > 0 (True) or c >= 0."""
        return self in (MeanKind.LOWER_WEAK, MeanKind.UPPER_STRICT)

    @classmethod
    def from_label(cls, label: str) -> "MeanKind":
        for kind in cls:
            if kind.value == label:
                return kind
        raise ValueError(f"unknown mean kind {label!r}")
