"""Power means, quasiarithmetic means, and their comparison and scaling limits.

A generator that declares its ``inverse`` (the catalog ones) gives the
quasiarithmetic mean in closed form, f^-1 of the weighted average of f(x_i).
For any other generator the inverse is computed by bracketed bisection on the
sample hull, which the mean-value property guarantees to contain the result;
no derivative of the generator is needed.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import Any, Callable

from .domain import IntervalDomain, WeightedSample, probe_points
from .errors import (
    AllEvaluationsFailed,
    Diverged,
    DegenerateDenominator,
    GeneratorNotMonotone,
    NonFinite,
    NonPositiveEntry,
    SolverFailure,
    VanishingFirstDerivative,
)
from .expr import ScalarFunction
from .limits import LIMIT_TOL, LimitEstimate, limit_at_zero, start_scale

#: First-derivative magnitude below which the order operator refuses to divide.
DERIVATIVE_GUARD = 1e-14

#: Relative tolerance of the generator-inversion bisection.
INVERSE_REL_TOL = 1e-12

#: Bisection iteration cap.
MAX_BISECT = 200

#: Grid size of the strict-monotonicity admission probe.
MONOTONE_PROBE_POINTS = 64


@dataclass(frozen=True)
class ComparisonVerdict:
    """Outcome of a pointwise comparison check; failures carry a witness."""

    holds: bool
    checked_points: int
    witness: dict[str, Any] | None = field(default=None)


def bisect(a: float, b: float, below: Callable[[float], bool], tol: float) -> float:
    """Shrink the bracket [a, b] around a sought point by halving.

    ``below(mid)`` says whether the point lies above the midpoint
    0.5 * (a + b), which then becomes a; otherwise it becomes b.  Stops once
    b - a <= tol or after MAX_BISECT halvings and returns the midpoint of the
    last bracket.
    """
    for _ in range(MAX_BISECT):
        if b - a <= tol:
            break
        mid = 0.5 * (a + b)
        if below(mid):
            a = mid
        else:
            b = mid
    return 0.5 * (a + b)


def _weighted_average(values: list[float], weights: tuple[float, ...]) -> float:
    return math.fsum(w * v for w, v in zip(weights, values)) / math.fsum(weights)


def inverse_of_average(
    generator: ScalarFunction, sample: WeightedSample, values: list[float], lo: float, hi: float
) -> float:
    """``generator.inverse`` of the weighted average of ``values``, the
    generator at each entry, clamped to the sample hull ``lo, hi``.

    Raises NonFinite when the average is not finite, which is never clamped:
    an overflowed average says nothing about where the mean lies.
    """
    try:
        target = _weighted_average(values, sample.weights)
    except (OverflowError, ValueError) as exc:  # fsum: intermediate overflow, inf - inf
        raise NonFinite(f"weighted average of {generator.name} values overflowed") from exc
    if not math.isfinite(target):
        raise NonFinite(f"weighted average of {generator.name} values is {target}")
    return min(max(generator.inverse(target), lo), hi)


def power_mean(sample: WeightedSample, exponent: float) -> float:
    """Weighted power mean; exponent 0 is geometric, +/-inf max/min over
    positive-weight coordinates.  Entries must be positive."""
    p = float(exponent)
    if math.isnan(p):
        raise ValueError("exponent must not be NaN")
    for x in sample.entries:
        if x <= 0.0:
            raise NonPositiveEntry(f"power mean needs positive entries, got {x}")
    if math.isinf(p):
        picked = [x for x, w in zip(sample.entries, sample.weights) if w > 0.0]
        return max(picked) if p > 0 else min(picked)
    total = sample.total_weight()
    if p == 0.0:
        avg_log = math.fsum(w * math.log(x) for x, w in zip(sample.entries, sample.weights))
        return math.exp(avg_log / total)
    picked = [(x, w) for x, w in zip(sample.entries, sample.weights) if w > 0.0]

    def power_average(scale: float) -> float:
        try:
            return math.fsum(w * math.pow(x / scale, p) for x, w in picked) / total
        except OverflowError:
            return math.inf

    scale = 1.0
    s = power_average(scale)
    if not math.isfinite(s) or s <= 0.0:
        # The power sum overflowed or underflowed although the mean may be
        # representable: divide by the entry with the largest term, so that
        # every term is at most its weight and that entry's term is exact.
        scale = max(x for x, _ in picked) if p > 0.0 else min(x for x, _ in picked)
        s = power_average(scale)
        if not math.isfinite(s) or s <= 0.0:
            raise NonFinite(f"power sum degenerated to {s} at exponent {p}")
    try:
        result = scale * math.pow(s, 1.0 / p)
    except OverflowError as exc:
        raise NonFinite(f"power mean overflowed at exponent {p}") from exc
    if not math.isfinite(result):
        raise NonFinite(f"power mean overflowed at exponent {p}")
    return result


def _probe_monotone_direction(f: ScalarFunction, lo: float, hi: float) -> bool:
    """Heuristic strict-monotonicity admission on a uniform grid; returns
    True for increasing.  Raises GeneratorNotMonotone on a tie or reversal."""
    step = (hi - lo) / (MONOTONE_PROBE_POINTS - 1)
    values = [f.fn(lo + j * step) for j in range(MONOTONE_PROBE_POINTS)]
    increasing = all(map(operator.lt, values, values[1:]))
    if not (increasing or all(map(operator.gt, values, values[1:]))):
        raise GeneratorNotMonotone(f"{f.name} is not strictly monotone on [{lo}, {hi}]")
    return increasing


def quasiarithmetic_mean(sample: WeightedSample, generator: ScalarFunction) -> float:
    """Generator-inverse of the weighted average of generator values."""
    lo, hi = sample.hull()
    if lo == hi:
        return lo
    if generator.inverse is not None:
        values = [generator.fn(x) for x in sample.entries]
        # Equal values at the hull ends (x^2 underflowing) locate no mean.
        if values[sample.entries.index(lo)] == values[sample.entries.index(hi)]:
            raise GeneratorNotMonotone(f"{generator.name} is not strictly monotone on [{lo}, {hi}]")
        return inverse_of_average(generator, sample, values, lo, hi)
    increasing = _probe_monotone_direction(generator, lo, hi)
    values = [generator.fn(x) for x in sample.entries]
    target = _weighted_average(values, sample.weights)
    # lo and hi are entries, so their generator values are already known.
    f_lo, f_hi = values[sample.entries.index(lo)], values[sample.entries.index(hi)]
    low_val, high_val = (f_lo, f_hi) if increasing else (f_hi, f_lo)
    slack = 1e-9 * (1.0 + abs(low_val) + abs(high_val))
    if target < low_val - slack or target > high_val + slack:
        raise SolverFailure(
            f"average {target} escapes the generator range [{low_val}, {high_val}]"
        )
    if target <= low_val:
        return lo if increasing else hi
    if target >= high_val:
        return hi if increasing else lo
    # Tolerance follows the hull scale (no absolute floor): scaled-down
    # samples keep a constant relative accuracy, so t -> 0 limits of the mean
    # are not polluted by solver error growing like tol / t.
    tol = INVERSE_REL_TOL * max(abs(lo), abs(hi))
    return bisect(lo, hi, lambda y: (generator.fn(y) < target) == increasing, tol)


def local_power_order(generator: ScalarFunction, x: float) -> float:
    """x * f''(x) / f'(x) + 1: the local power-mean order of a generator.

    Constant p for the pure power generator of exponent p; drives both the
    comparison criterion and the power-scale embedding of quasiarithmetic
    means.
    """
    d1 = generator.derivative(x, 1)
    if abs(d1) <= DERIVATIVE_GUARD:
        raise VanishingFirstDerivative(f"first derivative of {generator.name} vanishes at {x}")
    d2 = generator.derivative(x, 2)
    return x * d2 / d1 + 1.0


def compare_quasiarithmetic(
    f: ScalarFunction, g: ScalarFunction, domain: IntervalDomain
) -> ComparisonVerdict:
    """Check f''/f' <= g''/g' on a uniform 64-point interior grid of ``domain``.

    When this holds everywhere the f-mean is dominated by the g-mean on that
    domain; the first failing point is returned as a witness.
    """
    checked = 0
    for x in probe_points(domain, 64):
        d1f = f.derivative(x, 1)
        if abs(d1f) <= DERIVATIVE_GUARD:
            raise VanishingFirstDerivative(f"{f.name}: first derivative vanishes at {x}")
        d1g = g.derivative(x, 1)
        if abs(d1g) <= DERIVATIVE_GUARD:
            raise VanishingFirstDerivative(f"{g.name}: first derivative vanishes at {x}")
        rf = f.derivative(x, 2) / d1f
        rg = g.derivative(x, 2) / d1g
        checked += 1
        if rf > rg + 1e-12 * (1.0 + abs(rf) + abs(rg)):
            return ComparisonVerdict(
                holds=False,
                checked_points=checked,
                witness={"x": x, "ratio_f": rf, "ratio_g": rg},
            )
    return ComparisonVerdict(holds=True, checked_points=checked)


def _diverged(est: LimitEstimate) -> bool:
    # Escape detection: the last sampled value has left the scale of the
    # first one by six orders of magnitude without the tail ever settling.
    if est.converged:
        return False
    first = next((v for _, v in est.values if math.isfinite(v)), None)
    last = next((v for _, v in reversed(est.values) if math.isfinite(v)), None)
    if first is None or last is None:
        return False
    return abs(last) > 1e6 * max(1.0, abs(first))


def qa_local_homogenization(generator: ScalarFunction, *, tol: float = LIMIT_TOL) -> LimitEstimate:
    """Estimate the local power order of a generator at 0+.

    tail_min / tail_max proxy the liminf / limsup of the order operator; when
    they agree (see ``common_power_order``) the scaling limit of the
    quasiarithmetic mean is the power mean of that common order.
    Requires a generator domain with infimum 0; a scale at which the order
    operator fails is a NaN row of the scan (see ``limit_at_zero``).
    """
    t0 = start_scale(generator.domain, 1.0)
    est = limit_at_zero(lambda t: local_power_order(generator, t), t0, tol=tol)
    if _diverged(est):
        raise Diverged(f"order operator of {generator.name} leaves every bounded window at 0")
    return est


def common_power_order(est: LimitEstimate) -> float | None:
    """The common limit order when the tails agree, that is when the scan
    converged within its own ``tol`` (absolute); None otherwise."""
    return est.estimate if est.converged else None


def scaling_ratio_limit(generator: ScalarFunction, x: float) -> LimitEstimate:
    """Limit of (f(t x) - f(t)) / (f(2 t) - f(t)) as t -> 0+.

    For the pure power generator of exponent p this equals
    (x^p - 1) / (2^p - 1) (log base 2 of x when p = 0); existence plus
    continuity and strict monotonicity in x characterize power-mean scaling
    limits of the quasiarithmetic mean without smoothness assumptions.
    """
    if x <= 0.0:
        raise ValueError("x must be positive")
    t0 = start_scale(generator.domain, max(x, 2.0))
    hit_zero_denominator = False

    def g(t: float) -> float:
        nonlocal hit_zero_denominator
        base = generator.fn(t)
        den = generator.fn(2.0 * t) - base
        if den == 0.0:
            hit_zero_denominator = True
            return math.nan
        return (generator.fn(t * x) - base) / den

    try:
        est = limit_at_zero(g, t0)
    except AllEvaluationsFailed:
        if hit_zero_denominator:
            raise DegenerateDenominator(
                f"denominator of the scaling ratio vanished at every scale ({generator.name})"
            ) from None
        raise
    if _diverged(est):
        raise Diverged(f"scaling ratio of {generator.name} leaves every bounded window at 0")
    if not est.converged and hit_zero_denominator:
        raise DegenerateDenominator(
            f"denominator of the scaling ratio underflowed before convergence ({generator.name})"
        )
    return est
