"""Deviation-kernel means located through sign changes of a weighted sum.

For a kernel K whose off-diagonal sign matches sign(x - y), the weighted
deviation sum D(y) = sum_i w_i K(x_i, y) is positive left of the smallest
entry and negative right of the largest, so all four sign-change means live
on the sample hull:

    LOWER_WEAK   = inf{y : D(y) <= 0}      LOWER_STRICT = inf{y : D(y) < 0}
    UPPER_STRICT = sup{y : D(y) >  0}      UPPER_WEAK   = sup{y : D(y) >= 0}

The solver classifies D on a grid of m points over the hull by its exact
sign +/0/- (NaN as -), which resolves genuine plateaus of sign-based kernels.

Each kind is one test on the class c plus a side.  The test is c > 0 for
LOWER_WEAK and UPPER_STRICT and c >= 0 for LOWER_STRICT and UPPER_WEAK
(``MeanKind.has_strict_test``); the side is ``MeanKind.is_inf_kind``.  An
inf kind's split index b in 0..m is the first grid index where its test
fails, searched from the left; a sup kind's is one past the last index where
it holds, searched from the right.  A split at 0 or m gives the hull end lo
or hi; any other split gives the cell between grid points b - 1 and b, which
bisection on the same test refines.

A kernel with the sign property has D(lo) >= 0 >= D(hi), not both 0, on a
hull lo < hi; a sum negative at lo, positive at hi or 0 at both (flat in
floats) shows that the property is lost, and the solvers raise NoSignChange
instead of returning a hull end.  Both solvers evaluate D at lo and hi before
any interior point, so that refusal costs two deviation sums and comes before
any kernel failure inside the hull.

A kernel whose ``Kernel2.structure`` is ``Difference(f)``, with f
increasing on the hull, needs no scan at all (Daróczy, Publ. Math. Debrecen
19, 1972): D(y) = sum_i w_i (f(x_i) - f(y)) vanishes only at y* =
f^-1(sum_i w_i f(x_i) / W), the quasiarithmetic mean, which every kind and
``deviation_mean`` return wherever ``classic_means.closed_form_mean`` gives
it and says f increases; where that closed form is refused or fails, or f
decreases, the sign scan below decides, and reports any failure with the
offending pair.  Likewise ``Ratio(h, q)`` with an order q
has D(y) = y^-q sum_i w_i (g_q(x_i) - g_q(y)), which vanishes only at the
power mean P_q; on a positive sample every kind returns P_q, clamped to the
hull.  For ``Sign``, D(y) = W(x_i > y) - W(x_i < y) is constant between
entries, and ``semideviation_means`` returns the weighted medians exactly
(``_medians``); ``deviation_mean`` returns the median when the lower and
upper ones agree.  The grid size and the refinement tolerance then have no
effect.

Otherwise one classified grid serves every requested kind
(``semideviation_means``), and a memo keyed by y lets the kinds' bisections
share midpoints; kinds with the same test and split share the whole
bisection.  The deviation sum evaluates the f(x_i) of ``Difference(f)`` once
per sample and calls the h of ``Ratio(h, q)`` on each quotient, with the
same floats as the generic sum (see ``deviation_sum``).
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import Callable, Iterable

from .classic_means import bisect, closed_form_mean, power_mean
from .domain import (
    IntervalDomain,
    MeanKind,
    WeightedSample,
    check_tolerance,
    probe_points,
    sign,
)
from .errors import (
    AmbiguousClassification,
    KernelEvaluationError,
    MeanKitError,
    NoSignChange,
    NonFinite,
    NotNormalizable,
)
from .expr import Difference, Kernel2, Ratio, Sign


@dataclass(frozen=True)
class SemidevMeanConfig:
    """Sign-scan grid points and bisection tolerance (relative to the hull
    scale) of sign-change mean location; the closed form uses neither."""

    grid_size: int = 1024
    refine_tol: float = 1e-12

    def __post_init__(self):
        if self.grid_size < 2:
            raise ValueError("grid_size must be >= 2")
        check_tolerance("refine_tol", self.refine_tol)


DEFAULT_CONFIG = SemidevMeanConfig()

#: A zero set of the deviation sum at most this many ulps of the hull's
#: magnitude wide is what float rounding makes of a single root (sqrt(x) -
#: sqrt(y) on 9, 25 vanishes at 16 and the next float), so ``deviation_mean``
#: does not call it a plateau, whatever ``refine_tol`` asks; the default
#: refine_tol is at least 4,503 ulps.
PLATEAU_ULPS = 256


_KERNEL_ERRORS = (MeanKitError, ValueError, OverflowError, ZeroDivisionError)


def deviation_sum(kernel: Kernel2, sample: WeightedSample) -> Callable[[float], float]:
    """The function y -> sum_i w_i K(x_i, y); kernel failures are re-raised
    with the offending (x_i, y) pair attached.

    A kernel declaring ``Difference(f)`` gets f(x_i) evaluated once, here;
    ``Ratio(h, q)`` gets each term as w_i * h(x_i / y) without the call
    through ``fn``.  Both give the same floats as w_i * K(x_i, y).  Where f
    or h raises, or a difference sum is not finite (where ``fn`` may raise
    instead), the point goes through the generic sum, so a failure is the
    generic sum's, naming the same pair.  A sum whose finite terms overflow
    together raises NonFinite naming the kernel and y.
    """
    entries, weights = sample.entries, sample.weights
    k = kernel.fn

    def failure(x: float, y: float, exc: Exception) -> KernelEvaluationError:
        return KernelEvaluationError(f"kernel {kernel.name} failed at ({x}, {y}): {exc}")

    def total(y: float) -> float:
        terms = []
        for x, w in zip(entries, weights):
            try:
                terms.append(w * k(x, y))
            except _KERNEL_ERRORS as exc:
                raise failure(x, y, exc) from exc
        try:
            return math.fsum(terms)
        except OverflowError as exc:
            raise NonFinite(f"deviation sum of {kernel.name} overflowed at y={y}") from exc

    structure = kernel.structure
    if isinstance(structure, Difference):
        g = structure.f.fn
        try:
            fxs = [g(x) for x in entries]
        except _KERNEL_ERRORS:
            return total  # it raises with the offending pair

        def separable(y: float) -> float:
            try:
                fy = g(y)
                value = math.fsum([w * (fx - fy) for fx, w in zip(fxs, weights)])
            except _KERNEL_ERRORS:
                return total(y)
            # A finite sum has finite terms, each fn's value.
            return value if math.isfinite(value) else total(y)

        return separable
    if isinstance(structure, Ratio):
        h = structure.h
        pairs = list(zip(entries, weights))

        def ratio_sum(y: float) -> float:
            try:
                return math.fsum([w * h(x / y) for x, w in pairs])
            except _KERNEL_ERRORS:
                pass  # the generic sum raises with the offending pair
            return total(y)

        return ratio_sum
    return total


def _classify(value: float) -> int:
    """The exact sign of ``value``, with -0.0 as 0 and NaN as -1."""
    if value == 0.0:
        return 0
    return 1 if value > 0.0 else -1


def _alternations(classes: list[int]) -> int:
    signs = [c for c in classes if c != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _split(test: Callable[[int], bool], m: int, from_left: bool) -> int:
    """The split index b in 0..m of test(0), ..., test(m - 1): from the left,
    the first index where the test fails (m when none does); from the right,
    one past the last index where it holds (0 when none does)."""
    if from_left:
        return next((j for j in range(m) if not test(j)), m)
    return next((j + 1 for j in range(m - 1, -1, -1) if test(j)), 0)


def _closed_form(kernel: Kernel2, sample: WeightedSample, lo: float, hi: float) -> float | None:
    """The mean every kind equals, or None when the kernel's structure gives
    no closed form (see the module docstring): the quasiarithmetic mean of
    the f of ``Difference(f)``, or the power mean P_q of ``Ratio(h, q)``,
    clamped to the sample hull ``lo, hi``."""
    structure = kernel.structure
    if isinstance(structure, Difference):
        try:
            closed = closed_form_mean(structure.f, sample, lo, hi)
        except _KERNEL_ERRORS:
            return None  # the deviation sum raises with the offending pair
        # A decreasing f gives no deviation kernel.
        return closed[0] if closed is not None and closed[1] else None
    if isinstance(structure, Ratio) and structure.order is not None and lo > 0.0:
        return min(max(power_mean(sample, structure.order), lo), hi)
    return None


def _medians(sample: WeightedSample, kinds: Iterable[MeanKind]) -> dict[MeanKind, float]:
    """Each kind of a ``Sign`` kernel, exactly.

    With the entries sorted, x_(1) <= ... <= x_(n), the class of D between
    x_(k) and x_(k+1) is c_k = sign(sum_{i > k} w_(i) - sum_{i <= k} w_(i)),
    one ``fsum``, so exact; it does not increase with k, from c_0 = 1 to
    c_n = -1.  Each kind is the entry x_(k) at which its test on c_k first
    fails: the least entry where it fails just right of it, for an inf
    kind, and the greatest where it holds just left of it, for a sup kind,
    which is the same entry (``tests/oracle.py::weighted_medians``).
    """
    pairs = sorted(zip(sample.entries, sample.weights))
    weights = [w for _, w in pairs]
    negated = [-w for w in weights]

    def median(strict: bool) -> float:
        def fails(k: int) -> bool:
            c = _classify(math.fsum(weights[k:] + negated[:k]))
            return not (c > 0 if strict else c >= 0)

        # x_(k) is pairs[k - 1], and the search over k = 1..n finds k - 1.
        return pairs[bisect_left(range(1, len(pairs) + 1), True, key=fails)][0]

    medians = {strict: median(strict) for strict in (True, False)}
    return {kind: medians[kind.has_strict_test] for kind in kinds}


def _refuse_hull_ends(at_lo: float, at_hi: float) -> None:
    """Raise NoSignChange unless D(lo) >= 0 >= D(hi), not both 0 (values or classes)."""
    if at_lo < 0.0 or at_hi > 0.0 or (at_lo == 0.0 and at_hi == 0.0):
        raise NoSignChange(f"deviation sum has signs ({sign(at_lo)}, {sign(at_hi)}) at the hull ends")


def semideviation_means(
    kernel: Kernel2,
    sample: WeightedSample,
    kinds: Iterable[MeanKind],
    cfg: SemidevMeanConfig | None = None,
) -> dict[MeanKind, float]:
    """Locate several sign-change means of ``kernel`` on ``sample`` from one
    sign scan of the deviation sum, or in closed form when the kernel's
    ``structure`` gives one (see ``_closed_form``).

    The kernel is assumed (or should be checked via ``check_semideviation``)
    to have the off-diagonal sign of x - y; with that, each defining set is
    clamped by the hull and each returned value obeys the mean-value
    property.  Raises NoSignChange when the deviation sum is negative at the
    lower hull end, positive at the upper one, or zero at both.
    Every kind gets the value ``semideviation_mean`` gives alone; a ``Sign``
    kernel gets the weighted medians (``_medians``).
    """
    cfg = cfg or DEFAULT_CONFIG
    lo, hi = sample.hull()
    if lo == hi:
        return {kind: lo for kind in kinds}
    if isinstance(kernel.structure, Sign):
        return _medians(sample, kinds)
    closed = _closed_form(kernel, sample, lo, hi)
    if closed is not None:
        return {kind: closed for kind in kinds}
    dsum = deviation_sum(kernel, sample)
    memo: dict[float, int] = {}

    def classify(y: float) -> int:
        c = memo.get(y)
        if c is None:
            c = memo[y] = _classify(dsum(y))
        return c

    m = cfg.grid_size
    step = (hi - lo) / (m - 1)
    grid = [lo + j * step for j in range(m - 1)] + [hi]
    _refuse_hull_ends(classify(lo), classify(hi))
    classes = [classify(y) for y in grid]
    base_alt = _alternations(classes)
    if base_alt > 1:
        # A single +/- alternation is the clean shape; re-check a doubled
        # grid and refuse when the alternation count is still moving
        # (features at or below grid resolution cannot be bracketed).
        merged: list[int] = []
        for a, b, c in zip(grid, grid[1:], classes):
            merged.append(c)
            merged.append(classify(0.5 * (a + b)))
        merged.append(classes[-1])
        refined_alt = _alternations(merged)
        if refined_alt != base_alt:
            raise AmbiguousClassification(
                f"sign classification oscillates {base_alt} times on the base grid "
                f"but {refined_alt} times when doubled; increase grid_size"
            )

    # Hull-scale tolerance (no absolute floor), so scaled-down samples keep
    # constant relative accuracy under t -> 0 limits.
    tol = cfg.refine_tol * max(abs(lo), abs(hi))
    bisections: dict[tuple[int, bool], float] = {}

    def refine(kind: MeanKind) -> float:
        strict = kind.has_strict_test
        holds = (lambda c: c > 0) if strict else (lambda c: c >= 0)
        b = _split(lambda j: holds(classes[j]), m, kind.is_inf_kind)
        # Outside the hull D is positive on the left and negative on the
        # right, so a split at either end clamps the mean to that end.
        if b == 0:
            return lo
        if b == m:
            return hi
        # The test holds at grid[b - 1] and fails at grid[b]; kinds with the
        # same test and cell share one bisection.
        key = (b, strict)
        if key not in bisections:
            bisections[key] = bisect(grid[b - 1], grid[b], lambda y: holds(classify(y)), tol)
        return bisections[key]

    return {kind: refine(kind) for kind in kinds}


def semideviation_mean(
    kernel: Kernel2,
    sample: WeightedSample,
    kind: MeanKind,
    cfg: SemidevMeanConfig | None = None,
) -> float:
    """Locate one of the four sign-change means of ``kernel`` on ``sample``
    (see ``semideviation_means``)."""
    return semideviation_means(kernel, sample, (kind,), cfg)[kind]


def deviation_mean(
    kernel: Kernel2,
    sample: WeightedSample,
    cfg: SemidevMeanConfig | None = None,
) -> float:
    """The unique root of the weighted deviation sum on the hull.

    Valid for kernels with continuous second argument and strictly increasing
    cross-ratios t -> K(y, t) / K(x, t) on (x, y); for those the four
    sign-change means coincide with this root.  Raises NoSignChange when the
    sum has the wrong sign at a hull end or is zero at both, which signals
    that the admission assumption broke down numerically.

    A kernel whose ``structure`` gives a closed form takes it
    (``_closed_form``).  A ``Sign`` kernel's root is the weighted median
    when the lower and upper medians agree (``_medians``); otherwise D is 0
    between them, and AmbiguousClassification names them (``sign_dev`` on
    1, 2 with equal weights).  Any other kernel is bisected: bisection finds
    the left end of the sum's zero set (D > 0 to its left, a NaN counting as
    positive).  When a midpoint's D is exactly 0, a second bisection from
    there finds the right end, and when the two ends lie farther apart than
    the tolerance plus PLATEAU_ULPS ulps of the hull's magnitude, D is 0 on
    a whole interval with no unique root in it: AmbiguousClassification,
    instead of a plausible number.  A root of D at a hull end is returned
    exactly.
    """
    cfg = cfg or DEFAULT_CONFIG
    lo, hi = sample.hull()
    if lo == hi:
        return lo
    if isinstance(kernel.structure, Sign):
        lower, upper = _medians(sample, (MeanKind.LOWER_WEAK, MeanKind.UPPER_WEAK)).values()
        if lower != upper:
            raise _plateau(kernel, lower, upper)
        return lower
    closed = _closed_form(kernel, sample, lo, hi)
    if closed is not None:
        return closed
    dsum = deviation_sum(kernel, sample)
    at_lo, at_hi = dsum(lo), dsum(hi)
    _refuse_hull_ends(at_lo, at_hi)
    if at_lo == 0.0:
        return lo
    if at_hi == 0.0:
        return hi
    scale = max(abs(lo), abs(hi))
    tol = cfg.refine_tol * scale
    zeros: list[float] = []

    def positive(y: float) -> bool:
        value = dsum(y)
        if value == 0.0:
            zeros.append(y)
        return not value <= 0.0

    root = bisect(lo, hi, positive, tol)
    if zeros:
        right = bisect(max(zeros), hi, lambda y: not dsum(y) < 0.0, tol)
        if right - root > tol + PLATEAU_ULPS * math.ulp(scale):
            raise _plateau(kernel, root, right)
    return root


def _plateau(kernel: Kernel2, left: float, right: float) -> AmbiguousClassification:
    return AmbiguousClassification(
        f"deviation sum of {kernel.name} vanishes on [{left!r}, {right!r}], so its root is not unique"
    )


# --- normalization ---------------------------------------------------------------


#: Entry cap of a normalized kernel's slope memo, which is emptied when full
#: so that a long-lived kernel evaluated at ever new y keeps bounded memory.
SLOPE_MEMO_SIZE = 4096


def _diagonal_slope(kernel: Kernel2, y: float) -> float:
    return kernel.deriv2(y, y)


def normalize_kernel(kernel: Kernel2) -> Kernel2:
    """Rescale a kernel by its diagonal slope: K*(x, y) = K(x, y) / (-dK/dy at (y, y)).

    The rescaled kernel has diagonal slope -1 and generates the same
    sign-change means.  Admission requires dK/dy (``Kernel2.deriv2``) at
    (y, y) to exist and be strictly negative on a 17-point interior grid,
    which refuses jumps: the derivative of sign(u) raises at u = 0.
    The rescaled kernel keeps a memo of -dK/dy(y, y) keyed by y (at most
    SLOPE_MEMO_SIZE entries), seeded with the probed slopes, so each
    distinct y costs one slope evaluation; the quotients are the same floats
    as without it.  The rescaled ``fn`` carries that memoized divisor as its
    attribute ``slope``: ``fn(x, y)`` is exactly
    ``kernel.fn(x, y) / fn.slope(y)``, so callers that tabulate K(x, y)
    themselves get the same floats by dividing by it.  A kernel whose ``fn``
    carries ``slope`` is normalized already and is returned as it is, so
    this operation is a fixed point.
    """
    if hasattr(kernel.fn, "slope"):
        return kernel
    if kernel.deriv2 is None:
        raise NotNormalizable(f"{kernel.name} has no dK/dy to normalize by")
    slopes: dict[float, float] = {}
    for y in probe_points(kernel.domain_y, 17):
        try:
            d = _diagonal_slope(kernel, y)
        except MeanKitError as exc:
            raise NotNormalizable(f"diagonal slope of {kernel.name} failed at y={y}: {exc}") from exc
        if not d < -1e-12:
            raise NotNormalizable(f"diagonal slope of {kernel.name} is {d} at y={y}; need strictly negative")
        slopes[y] = -d

    def slope(y: float) -> float:
        s = slopes.get(y)
        if s is None:
            if len(slopes) >= SLOPE_MEMO_SIZE:
                slopes.clear()
            s = slopes[y] = -_diagonal_slope(kernel, y)
        return s

    def scaled(x: float, y: float) -> float:
        return kernel.fn(x, y) / slope(y)

    scaled.slope = slope
    return Kernel2(f"normalized({kernel.name})", scaled, kernel.domain_x, kernel.domain_y)


# --- admission checks ---------------------------------------------------------------


def check_semideviation(
    kernel: Kernel2,
    domain: IntervalDomain | None = None,
    grid: int = 24,
) -> dict[str, float] | None:
    """Check sign(K(x, y)) = sign(x - y) on an off-diagonal probe grid; the
    first violation as a witness {"x", "y", "value"}, or None."""
    dom = domain or kernel.domain_x
    pts = probe_points(dom, grid)
    for x in pts:
        for y in pts:
            if x == y:
                continue
            value = kernel.fn(x, y)
            if sign(value) != sign(x - y):
                return {"x": x, "y": y, "value": value}
    return None
