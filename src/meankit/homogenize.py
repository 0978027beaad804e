"""Homogeneous envelopes, local scaling limits, and kernel scale profiles.

Three constructions attach a homogeneous mean to a given one:

* ``envelope_pair``: the lower and upper envelopes, inf/sup over all
  admissible scalings t of M(t x, w) / t, the tightest homogeneous means
  sandwiching M, from one shared scan; a handle that declares M homogeneous
  is its own envelope pair, from one evaluation, and one that declares the
  ratio monotone in t has its envelopes at the ends of the admissible
  scalings.  Quasiarithmetic and difference-kernel handles read both
  promises off the generator's ``order_ends``, the ends of its monotone
  order operator p(u) = u f''(u)/f'(u) + 1 (equal ends: homogeneous);
* ``local_homogenization``: the t -> 0 limit of the same ratio (requires
  the mean's domain to have infimum 0);
* ``homogenization_profile``: for deviation kernels, the scale profile
  h(r) = lim K*(r t, t) / t of the normalized kernel, whose ratio kernel
  h(x / y) generates the homogeneous counterpart of the kernel's mean,
  in closed form from a finite declared p(0+);
  ``homogeneous_kernels`` builds the lower and upper ratio kernels after
  checking that h has the sign of r - 1.
"""

from __future__ import annotations

import functools
import math
import struct
from dataclasses import dataclass, replace
from typing import Callable, Literal

from .classic_means import power_mean, quasiarithmetic_mean
from .domain import (
    IntervalDomain,
    MeanKind,
    WeightedSample,
    float_sample,
    positive_reals,
    sign,
)
from .errors import (
    EmptyAdmissibleSet,
    KernelEvaluationError,
    MeanKitError,
    NonFinite,
    NotConverged,
    SignPropertyViolated,
)
from .expr import Difference, Kernel2, Ratio, ScalarFunction, Sign
from .limits import (
    LIMIT_TOL,
    LIMIT_WINDOW,
    SCAN_FAILURES,
    FailureRule,
    LimitEstimate,
    limit_at_zero,
    start_scale,
)
from .semideviation import (
    deviation_mean,
    normalize_kernel,
    semideviation_mean,
)

__all__ = [
    "LimitEstimate",
    "limit_at_zero",
    "MeanHandle",
    "power_handle",
    "quasiarithmetic_handle",
    "translated_power_handle",
    "semideviation_handle",
    "deviation_handle",
    "envelope_pair",
    "local_limit",
    "local_homogenization",
    "kernel_homogenization",
    "homogenization_profile",
    "homogeneous_kernels",
]

#: Log-grid resolution of the envelope search.
ENVELOPE_GRID = 256

#: Octaves explored around the admissible range when an endpoint is missing.
#: 2^-28 is not above the cancellation floor of every solver-based mean: a
#: generator that is flat in floating point near 0 makes M(t x) / t a hull
#: endpoint at the small end of the range.  The catalog stores cosh as
#: 2 sinh(x/2)^2, which is not flat there, so its qa envelopes are right.
#: The text spelling ``expr:cosh(x)`` evaluates cosh(x) == 1.0 below about
#: 1e-8: on a domain bounded above, the small end of its range refuses the
#: monotone-ratio path (GeneratorNotMonotone), and the scan that follows can
#: still return wrong envelopes (ROADMAP items 3 and 5).
ENVELOPE_OCTAVES = 28

#: Nodes per octave of the tabulated scale profile: h is computed at
#: r_k = 2^(k / PROFILE_NODES_PER_OCTAVE) for integer k.
PROFILE_NODES_PER_OCTAVE = 16

#: Tail tolerance and window of each node's limit scan.
PROFILE_TOL = 1e-5
PROFILE_WINDOW = 4

#: Ratios at which scale profiles are checked for sign(h(r)) = sign(r - 1).
SIGN_PROBE_RATIOS = (0.25, 0.5, 0.8, 1.25, 2.0, 4.0)


@dataclass(frozen=True)
class MeanHandle:
    """A fixed mean as an opaque sample -> value map with its domain.

    ``homogeneous`` is a promise: M(t x, w) = t M(x, w) for every t > 0
    that keeps t x in the domain, so the mean is its own lower and upper
    envelope (``envelope_pair``).  ``power_handle`` sets it, and so do the
    semideviation and deviation handles of a kernel whose sign is unchanged
    by scaling both arguments (``Sign`` or ``Ratio``).

    ``monotone_ratio`` is a promise too: M(t x, w) / t is monotone in t
    over the scalings that keep t x in the domain, so its inf and sup lie at
    the ends of that range (``envelope_pair``).

    ``quasiarithmetic_handle`` of a generator f that declares
    ``order_ends``, and the semideviation and deviation handles of
    ``Difference(f)``, whose means are the quasiarithmetic mean of f, make
    one of the two promises (``_promises``): homogeneous for equal ends, a
    monotone ratio for unequal ones.  Envelopes see only positive entries,
    on which the declaration holds.
    """

    name: str
    domain: IntervalDomain
    fn: Callable[[WeightedSample], float]
    homogeneous: bool = False
    monotone_ratio: bool = False

    def __call__(self, sample: WeightedSample) -> float:
        return self.fn(sample)


def power_handle(exponent: float, domain: IntervalDomain | None = None) -> MeanHandle:
    dom = domain or positive_reals()
    return MeanHandle(f"power({exponent:g})", dom, lambda s: power_mean(s, exponent), homogeneous=True)


def _promises(f: ScalarFunction) -> dict[str, bool]:
    """The ``MeanHandle`` promise of the qa mean of f from its ``order_ends``:
    homogeneous for a constant order q (the mean is the power mean P_q), a
    monotone ratio for any other declared order."""
    if f.order_ends is None:
        return {}
    low, high = f.order_ends
    return {"homogeneous": True} if low == high else {"monotone_ratio": True}


def quasiarithmetic_handle(generator: ScalarFunction) -> MeanHandle:
    return MeanHandle(
        f"qa({generator.name})",
        generator.domain,
        lambda s: quasiarithmetic_mean(s, generator),
        **_promises(generator),
    )


def translated_power_handle(exponent: float, shift: float) -> MeanHandle:
    """Power mean of shifted entries, shifted back: P_p(x + shift) - shift.

    Evaluated by ``power_mean`` (no inversion solver); a shifted entry
    outside (0, inf) raises EntryOutOfDomain.  Concave in the entries
    whenever exponent <= 1, which makes it the catalog example of a concave
    non-homogeneous mean.  Its domain is the positive half-line.
    """
    dom = positive_reals()

    def fn(s: WeightedSample) -> float:
        shifted = float_sample(tuple([x + shift for x in s.entries]), s.weights, dom)
        return power_mean(shifted, exponent) - shift

    return MeanHandle(f"translated_power({exponent:g},{shift:g})", dom, fn)


def _kernel_handle(name: str, kernel: Kernel2, fn: Callable[[WeightedSample], float]) -> MeanHandle:
    """A handle on a sign-change or deviation mean of ``kernel``, with the
    promises its structure shows.  ``Difference(f)`` means are the
    quasiarithmetic mean of f, so they take f's promise (``_promises``), as
    ``quasiarithmetic_handle`` does: homogeneous for a constant order q,
    where f(t x) - f(t y) = t^q (f(x) - f(y)) (a log t cancels at q = 0),
    and a monotone scaled ratio for any other declared order.  ``Sign`` and
    ``Ratio`` means are homogeneous: sign(t x - t y) = sign(x - y) and
    h(t x / t y) = h(x / y)."""
    structure = kernel.structure
    if isinstance(structure, Difference):
        return MeanHandle(name, kernel.domain_x, fn, **_promises(structure.f))
    return MeanHandle(name, kernel.domain_x, fn, homogeneous=isinstance(structure, (Sign, Ratio)))


def semideviation_handle(kernel: Kernel2, kind: MeanKind) -> MeanHandle:
    return _kernel_handle(
        f"semidev({kernel.name},{kind.value})", kernel, lambda s: semideviation_mean(kernel, s, kind)
    )


def deviation_handle(kernel: Kernel2) -> MeanHandle:
    return _kernel_handle(f"deviation({kernel.name})", kernel, lambda s: deviation_mean(kernel, s))


# --- envelopes ------------------------------------------------------------------------


def _admissible_scales(handle: MeanHandle, sample: WeightedSample) -> tuple[float, float]:
    xmin, xmax = sample.hull()
    if xmin <= 0.0:
        raise ValueError("envelope scaling needs positive entries")
    dom = handle.domain
    t_hi = dom.inner_hi() / xmax if not math.isinf(dom.hi) else math.nan
    t_lo = dom.inner_lo() / xmin if dom.lo > 0.0 else math.nan
    if math.isnan(t_hi):
        anchor = t_lo if not math.isnan(t_lo) else 1.0
        t_hi = max(1.0, anchor) * 2.0**ENVELOPE_OCTAVES
    if math.isnan(t_lo):
        t_lo = t_hi * 2.0**-ENVELOPE_OCTAVES
    if not t_lo < t_hi:
        raise EmptyAdmissibleSet(f"no scaling keeps {sample.entries} inside {dom}")
    return t_lo, t_hi


def _golden_refine(fun: Callable[[float], float], a: float, b: float) -> float:
    """Golden-section minimum of ``fun`` over [a, b], to a relative bracket
    width of 1e-8; returns the best value."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = b - invphi * (b - a)
    x2 = a + invphi * (b - a)
    f1, f2 = fun(x1), fun(x2)
    candidates = [v for v in (f1, f2, fun(a), fun(b)) if not math.isnan(v)]
    best = min(candidates) if candidates else math.inf
    for _ in range(200):
        if b - a <= 1e-8 * max(abs(a), abs(b)):
            break
        if math.isnan(f1) or (not math.isnan(f2) and f2 < f1):
            a, x1, f1 = x1, x2, f2
            x2 = a + invphi * (b - a)
            f2 = fun(x2)
            if not math.isnan(f2):
                best = min(best, f2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - invphi * (b - a)
            f1 = fun(x1)
            if not math.isnan(f1):
                best = min(best, f1)
    return best


def _envelope_refine(
    ratio: Callable[[float], float],
    ts: list[float],
    values: list[float],
    direction: float,
) -> float:
    """Golden-section refinement of the scanned minimum (direction +1) or
    maximum (direction -1) of ``ratio``, which gives ``values`` at ``ts``."""
    keyed = [direction * v if not math.isnan(v) else math.inf for v in values]
    best_idx = min(range(len(ts)), key=keyed.__getitem__)
    lo_idx, hi_idx = max(best_idx - 1, 0), min(best_idx + 1, len(ts) - 1)
    refined = _golden_refine(
        lambda u: direction * ratio(math.exp(u)),
        math.log(ts[lo_idx]),
        math.log(ts[hi_idx]),
    )
    return direction * min(refined, keyed[best_idx])


def _overflowed(exc: BaseException) -> bool:
    """Whether a failed evaluation overflowed: NonFinite or OverflowError,
    or a KernelEvaluationError raised from one (a deviation sum names the
    kernel's pair around its generator's overflow)."""
    if isinstance(exc, KernelEvaluationError):
        exc = exc.__cause__
    return isinstance(exc, (NonFinite, OverflowError))


def _float_index(t: float) -> int:
    """The rank of a positive float among the positive floats: the integer
    with its bits, which orders positive floats as they compare."""
    return struct.unpack("<q", struct.pack("<d", t))[0]


def _float_at(index: int) -> float:
    """The positive float of a rank (``_float_index`` inverted)."""
    return struct.unpack("<d", struct.pack("<q", index))[0]


def _monotone_ends(ratio: Callable[[float], float], t_lo: float, t_hi: float) -> tuple[float, float] | None:
    """(lower, upper) of a ratio monotone in t over [t_lo, t_hi]: the least
    and greatest of its values at t_lo, at t_hi and at t = 1 when t_lo < 1
    < t_hi, evaluated in that order.

    An end where the ratio overflows (``_overflowed``) is replaced by the
    last scale toward it with a finite value: a bisection over the floats
    between that end and the nearest scale with a finite value, down to two
    adjacent floats, in which any SCAN_FAILURES error or value that is not
    finite counts as the overflowing side (an average of finite generator
    values can overflow too, which the qa bisection reports as a
    SolverFailure).  None, so that the caller scans, when an end fails in
    any other way (a SCAN_FAILURES error that did not overflow, or a value
    that is not finite) or no scale has a finite value.
    """

    def value(t: float) -> float:
        # inf marks an overflow and NaN any other failure.
        try:
            v = ratio(t)
        except SCAN_FAILURES as exc:
            return math.inf if _overflowed(exc) else math.nan
        return v if math.isfinite(v) else math.nan

    scales = [t_lo, t_hi, 1.0] if t_lo < 1.0 < t_hi else [t_lo, t_hi]
    values = []
    for t in scales:
        values.append(value(t))
        if math.isnan(values[-1]):
            return None
    finite = [t for t, v in zip(scales, values) if v != math.inf]
    if not finite:
        return None
    for k, near in ((0, min(finite)), (1, max(finite))):
        if values[k] != math.inf:
            continue
        good, bad = _float_index(near), _float_index(scales[k])
        values[k] = values[scales.index(near)]
        while abs(bad - good) > 1:
            mid = (good + bad) // 2
            v = value(_float_at(mid))
            if math.isfinite(v):
                good, values[k] = mid, v
            else:
                bad = mid
    finite_values = [v for v in values if v != math.inf]
    return min(finite_values), max(finite_values)


def envelope_pair(handle: MeanHandle, sample: WeightedSample) -> tuple[float, float]:
    """(lower, upper) homogeneous envelope estimates from one shared scan.

    The admissible scalings are settled first: entries that are not all
    positive raise ValueError, and a domain that leaves no scaling room
    raises EmptyAdmissibleSet.  A ``homogeneous`` handle whose admissible
    scalings include t = 1 then returns (M(x, w), M(x, w)) from one
    evaluation, the scan's own t = 1 value.  When that value is NaN under
    the failure rule below, the scan runs as for any other handle, so a
    failure is reported exactly as the scan reports it.

    A ``monotone_ratio`` handle returns the least and greatest of the
    ratio's values at the two ends of the admissible scalings and at t = 1
    when it lies between them, so the defining inequalities lower <= M(x,
    w) <= upper hold exactly (``_monotone_ends``).  An end where the mean
    overflows gives way to the last float scale toward it at which the mean
    is finite, found by bisection.  Any other failure, or no finite value,
    runs the scan, so every error is reported as the scan reports it.

    Otherwise it scans M(t x, w) / t on a 256-point log grid over the
    admissible scalings (t = 1 is always included, so the defining
    inequalities lower <= M(x, w) <= upper hold numerically) and refines
    each extremum by golden section.
    The scan assumes a profile without needle-thin basins; the grid density
    is the guard against missing one.  The scan follows the limit scans'
    failure rule (``limits.FailureRule``): an error in ``SCAN_FAILURES`` at a
    scale makes that value NaN, and a grid without a finite value raises
    AllEvaluationsFailed, naming the first failure.
    """
    t_lo, t_hi = _admissible_scales(handle, sample)

    def ratio(t: float) -> float:
        return handle.fn(sample.scaled(t, handle.domain)) / t

    if handle.homogeneous and t_lo <= 1.0 <= t_hi:
        value = FailureRule(ratio).value(1.0)
        if not math.isnan(value):
            return value, value
    if handle.monotone_ratio:
        ends = _monotone_ends(ratio, t_lo, t_hi)
        if ends is not None:
            return ends
    log_lo, log_hi = math.log(t_lo), math.log(t_hi)
    ts = [math.exp(log_lo + j * (log_hi - log_lo) / (ENVELOPE_GRID - 1)) for j in range(ENVELOPE_GRID)]
    if t_lo <= 1.0 <= t_hi:
        ts.append(1.0)
    ts.sort()
    rule = FailureRule(ratio)
    values = [rule.value(t) for t in ts]
    if all(math.isnan(v) for v in values):
        rule.all_failed("scaled mean ratio failed at every sampled scale")
    return (
        _envelope_refine(rule.value, ts, values, 1.0),
        _envelope_refine(rule.value, ts, values, -1.0),
    )


# --- local homogenization ------------------------------------------------------------


def local_limit(
    mean_at: Callable[[float], float],
    sample: WeightedSample,
    domain: IntervalDomain,
    *,
    tol: float = LIMIT_TOL,
) -> LimitEstimate:
    """Limit estimate of mean_at(t) / t as t -> 0+, where mean_at(t) is a
    mean of the sample scaled by t into ``domain``.

    The entries must be positive.  The start scale is the largest power of
    1/2 that keeps the scaled entries inside ``domain``, which must have
    infimum 0.  A MeanKitError, OverflowError or ZeroDivisionError raised by
    mean_at makes that value NaN, and a scan without a finite value raises
    AllEvaluationsFailed naming the first such error (``limit_at_zero``).
    Callers that need several means of each scaled sample can solve them
    once per t and read one of them in each scan.
    """
    xmin, xmax = sample.hull()
    if xmin <= 0.0:
        raise ValueError("local homogenization needs positive entries")
    return limit_at_zero(lambda t: mean_at(t) / t, start_scale(domain, xmax), tol=tol)


def local_homogenization(
    handle: MeanHandle,
    sample: WeightedSample,
    *,
    tol: float = LIMIT_TOL,
) -> LimitEstimate:
    """Limit estimate of M(t x, w) / t as t -> 0+ (``local_limit`` of the
    handle's mean on its domain).

    tail_min proxies the lower homogenization (liminf), tail_max the upper
    one (limsup).  Entries may lie anywhere on the positive half-line.
    """
    dom = handle.domain
    return local_limit(lambda t: handle.fn(sample.scaled(t, dom)), sample, dom, tol=tol)


# --- kernel scale profile --------------------------------------------------------------


def kernel_homogenization(
    kernel: Kernel2,
    ratio_value: float,
    *,
    normalized: Kernel2 | None = None,
    window: int = LIMIT_WINDOW,
    tol: float = LIMIT_TOL,
) -> LimitEstimate:
    """Limit estimate of K*(r t, t) / t as t -> 0+ for the normalized kernel.

    tail_min / tail_max proxy the lower / upper scale profile of the kernel
    at ratio r.  Pass ``normalized`` to reuse an already-normalized kernel.
    The kernel's y-domain must start at 0 (``start_scale``).  A
    MeanKitError, OverflowError or ZeroDivisionError raised by the kernel
    makes that value NaN, and a scan without a finite value raises
    AllEvaluationsFailed naming the first such error (``limit_at_zero``).
    """
    if ratio_value <= 0.0:
        raise ValueError("ratio must be positive")
    t0 = start_scale(kernel.domain_y, max(ratio_value, 1.0))
    scaled_kernel = normalized if normalized is not None else normalize_kernel(kernel)
    return limit_at_zero(
        lambda t: scaled_kernel.fn(ratio_value * t, t) / t, t0, window=window, tol=tol
    )


@functools.cache
def _node_ratio(k: int) -> float:
    return 2.0 ** (k / PROFILE_NODES_PER_OCTAVE)


#: A memoized profile cell: (r_k, r_k+1, r_k+1 - r_k, h_k, slope_k, h_k+1,
#: slope_k+1).
_Cell = tuple[float, float, float, float, float, float, float]


def _power_profile(q: float) -> Callable[[float], float]:
    """The closed-form scale profile r -> (r^q - 1)/q (log r at q = 0),
    carrying q as its attribute ``order`` (see ``homogenization_profile``)."""

    def profile(r: float) -> float:
        if not 0.0 < r < math.inf:
            raise ValueError("ratio must be positive and finite")
        if q == 0.0:
            return math.log(r)
        try:
            value = math.expm1(q * math.log(r)) / q
        except OverflowError:
            value = math.inf
        if not math.isfinite(value):
            raise NonFinite(f"scale profile (r^{q} - 1)/{q} overflowed at r={r}")
        return value

    profile.order = q
    return profile


def homogenization_profile(
    kernel: Kernel2,
    mode: Literal["estimate", "lower", "upper"] = "estimate",
    *,
    normalized: Kernel2 | None = None,
    _node_estimates: dict[int, LimitEstimate] | None = None,
) -> Callable[[float], float]:
    """Scale profile r -> h(r) of a deviation kernel: in closed form when
    the kernel's structure is ``Difference(f)`` with f declaring a finite
    order p(0+), tabulated otherwise.

    A ``mode`` other than "estimate", "lower" or "upper" raises ValueError,
    and the kernel is normalized next (unless ``normalized`` is given), so a
    kernel that cannot be normalized raises NotNormalizable on both paths.
    When ``f.order_ends`` starts at a finite q and the kernel's y-domain
    starts at 0, f' varies regularly at 0+ with index q - 1 (Bingham,
    Goldie and Teugels, Regular Variation, 1987), and h(r) = (r^q - 1)/q
    (log r at q = 0) in every mode, evaluated as expm1(q log r)/q, which
    keeps its digits near r = 1; it raises ValueError outside 0 < r < inf
    and NonFinite when the value overflows.
    The returned function carries q as its attribute ``order``, from which
    ``ratio_kernel_from_profile`` declares ``Ratio(h, q)``; the attribute
    survives a ``functools.wraps`` wrapper but not a plain closure.
    ``_node_estimates`` is not used on this path.

    Otherwise h is computed only at the nodes r_k = 2^(k/16), k an integer,
    each by one ``kernel_homogenization`` scan (window PROFILE_WINDOW,
    tolerance PROFILE_TOL) made the first time a query needs it and
    memoized by k.
    Profiles of one kernel and normalized kernel may share that memo (the
    scans' LimitEstimates, without their sampled tables) by passing the same
    dict as ``_node_estimates``; the lower and upper profiles of
    ``homogeneous_kernels`` do, so each node is scanned once.  Mode
    "estimate" returns the node's tail midpoint and raises NotConverged,
    naming the node's ratio, when that scan does not converge;
    "lower"/"upper" return the tail min/max (liminf and limsup proxies)
    without requiring convergence.  A query at a node returns the node's
    value; elsewhere, with r_k < r < r_k+1, the value is a monotone cubic
    Hermite in r (not log r) through
    nodes k and k+1, with Fritsch-Carlson slopes (Brodlie's weighted
    harmonic mean of the neighbouring secants, 0 where those change sign)
    from nodes k-1 to k+2.
    So "estimate" raises exactly when one of the nodes a query needs fails.
    Node values and each cell's end ratios, values and slopes are memoized, so
    a repeated cell costs one Hermite sum: when the cell at k =
    floor(16 log2 r) is memoized and r_k < r < r_k+1 strictly, the query
    evaluates it at once; any other query (at a node, across a rounding of
    log2, or in a new cell) settles k by the exact node search first.  Both
    routes evaluate the same Hermite sum on the same cell.
    The cubic reproduces profiles linear in r exactly (the arithmetic
    kernel's h = r - 1) and keeps the node values' monotonicity; for smooth
    profiles its error shrinks as the cube of the node spacing
    r (2^(1/16) - 1) ~ 0.044 r, and against the closed forms (r^p - 1)/p,
    p <= 3, it stays within PROFILE_TOL * (1 + |h|) for r in [1/20, 20].
    The tail window is shorter and the tolerance looser than the limit
    engine's defaults because the profile is queried across wide ratio
    ranges where cancellation noise in the scaled kernel sets a floor on the
    achievable window spread.
    """
    if mode not in ("estimate", "lower", "upper"):
        raise ValueError(f"mode must be 'estimate', 'lower' or 'upper', got {mode!r}")
    base = normalized if normalized is not None else normalize_kernel(kernel)
    f = kernel.structure.f if isinstance(kernel.structure, Difference) else None
    q = f.order_ends[0] if f is not None and f.order_ends is not None else math.inf
    if math.isfinite(q) and kernel.domain_y.starts_at_zero:
        return _power_profile(q)
    estimates = {} if _node_estimates is None else _node_estimates
    nodes: dict[int, float] = {}

    def node(k: int) -> float:
        value = nodes.get(k)
        if value is not None:
            return value
        r = _node_ratio(k)
        est = estimates.get(k)
        if est is None:
            scan = kernel_homogenization(
                kernel, r, normalized=base, window=PROFILE_WINDOW, tol=PROFILE_TOL
            )
            # The tail statistics are all any mode reads; drop the sampled table.
            est = estimates[k] = replace(scan, values=())
        if mode == "estimate":
            if not est.converged:
                raise NotConverged(
                    f"scale profile of {kernel.name} did not converge at r={r} "
                    f"(spread {est.spread:.3e})"
                )
            value = est.estimate
        elif mode == "lower":
            value = est.tail_min
        else:
            value = est.tail_max
        nodes[k] = value
        return value

    def slope(k: int) -> float:
        r_prev, r_k, r_next = _node_ratio(k - 1), _node_ratio(k), _node_ratio(k + 1)
        h_prev, h_next = r_k - r_prev, r_next - r_k
        d_prev = (node(k) - node(k - 1)) / h_prev
        d_next = (node(k + 1) - node(k)) / h_next
        if d_prev * d_next <= 0.0:
            return 0.0
        w_prev, w_next = 2.0 * h_next + h_prev, h_next + 2.0 * h_prev
        return (w_prev + w_next) / (w_prev / d_prev + w_next / d_next)

    cells: dict[int, _Cell] = {}

    def cell(k: int) -> _Cell:
        # Computed in the order the Hermite sum reads them, so the same node
        # raises first.
        c = cells.get(k)
        if c is None:
            r0, r1 = _node_ratio(k), _node_ratio(k + 1)
            c = cells[k] = (r0, r1, r1 - r0, node(k), slope(k), node(k + 1), slope(k + 1))
        return c

    def profile(r: float) -> float:
        if not 0.0 < r < math.inf:
            raise ValueError("ratio must be positive and finite")
        k = math.floor(PROFILE_NODES_PER_OCTAVE * math.log2(r))
        c = cells.get(k)
        if c is None or not c[0] < r < c[1]:
            # log2 can round across a node: settle r_k <= r < r_k+1 exactly.
            while _node_ratio(k) > r:
                k -= 1
            while _node_ratio(k + 1) <= r:
                k += 1
            if r == _node_ratio(k):
                return node(k)
            c = cell(k)
        r0, _, width, h0, m0, h1, m1 = c
        s = (r - r0) / width
        u = 1.0 - s
        return (
            (1.0 + 2.0 * s) * u * u * h0
            + s * u * u * width * m0
            + s * s * (3.0 - 2.0 * s) * h1
            - s * s * u * width * m1
        )

    return profile


def ratio_kernel_from_profile(name: str, profile: Callable[[float], float]) -> Kernel2:
    """Degree-0 homogeneous kernel (x, y) -> h(x / y) on the positive quadrant,
    declaring ``Ratio(h, order)``.

    A closed-form profile (one carrying the attribute ``order`` q, see
    ``homogenization_profile``) gives the order q, so the kernel's
    sign-change and deviation means are the power mean P_q in closed form;
    any other profile gives None and its means take the sign scan.
    """
    dom = positive_reals()
    structure = Ratio(profile, getattr(profile, "order", None))
    return Kernel2(name, lambda x, y: profile(x / y), dom, dom, structure=structure)


def homogeneous_kernels(kernel: Kernel2) -> tuple[Kernel2, Kernel2]:
    """(lower, upper) homogeneous kernels of a deviation kernel: the ratio
    kernels h(x / y) of its "lower" and "upper" scale profiles.

    The sign-change means of these kernels are the kernel's lower and upper
    homogenized means, and scaling a sample by t > 0 scales them by t.  The
    kernel is normalized first, so one that cannot be raises NotNormalizable;
    both profiles read one table of node scans.  They are probed at each
    ratio r of SIGN_PROBE_RATIOS in turn, both at r before the next r, and
    the first r at which a profile raises a MeanKitError or ValueError, is
    not finite or breaks sign(h(r)) = sign(r - 1) raises
    SignPropertyViolated naming r (chained from the profile's error).
    """
    base = normalize_kernel(kernel)
    nodes: dict[int, LimitEstimate] = {}
    low, high = (
        homogenization_profile(kernel, mode, normalized=base, _node_estimates=nodes)
        for mode in ("lower", "upper")
    )
    for r in SIGN_PROBE_RATIOS:
        try:
            a, b = low(r), high(r)
        except (MeanKitError, ValueError) as exc:
            raise SignPropertyViolated(f"scale profile failed at ratio {r}: {exc}") from exc
        if not (math.isfinite(a) and math.isfinite(b)):
            raise SignPropertyViolated(f"scale profile not finite at ratio {r}")
        if not sign(a) == sign(b) == sign(r - 1.0):
            raise SignPropertyViolated(
                f"sign property violated at ratio {r}: profile values ({a}, {b})"
            )
    return (
        ratio_kernel_from_profile(f"scale_profile_low({kernel.name})", low),
        ratio_kernel_from_profile(f"scale_profile_high({kernel.name})", high),
    )
