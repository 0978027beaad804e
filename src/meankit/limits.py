"""Limit estimation at zero along the halving grid, with tail diagnostics.

A scan samples g at t_k = t0 * 2^-k and stops at the first step where one of
three candidate limits passes an off-grid check:

* rounding: the last three values agree to a few ulp, as for homogeneous
  means, whose scaled ratio does not depend on t; the limit is the last
  value;
* extrapolation: the differences of consecutive values decay geometrically
  with a stable ratio, and the diagonal of a Richardson (Neville) table that
  removes error terms t^1 .. t^RICHARDSON_ORDER has settled to 1e-12
  relative and lies within ``tol`` of the last value; the limit is that
  diagonal entry (Sidi, Practical Extrapolation Methods, CUP 2003, ch. 1-2);
* window: the last ``window`` finite values agree within ``tol``; the tail is
  that window.

The grid alone cannot see behaviour that repeats with period 1 in log2 t:
g(t) = L + p(log2 t) with p 1-periodic looks constant on it.  So before a candidate
counts as converged, g is evaluated at two off-grid scales inside the last
octave, t_k 2^(1/3) and t_k 2^(2/3).  Both values must lie within the last
octave's grid values, widened by tol + LIMIT_REL_TOL * (1 + |g_k|);
otherwise the scan stops "aliased", with the off-grid values folded into its
tail.  A true liminf/limsup at 0 is not computable, and the tail min/max
remain its proxies.  When no candidate is met (typically because
floating-point cancellation takes over below some scale), the reported tail
is the sampled window with the smallest spread, so the estimate degrades
gracefully instead of descending into noise; so does a rounding or
extrapolated limit off that window, a constant that g froze on after a
jump.  The (t, value) table of the grid samples is always retained for
inspection; off-grid values are not in it.

Every scan shares one failure rule (``FailureRule``): a MeanKitError,
OverflowError or ZeroDivisionError raised by g, on the grid or off it, makes
that value NaN; when no grid value is finite the scan raises
AllEvaluationsFailed, naming the first failure.  Each entry point only
states its g and its reach (the largest multiple of t at which g
evaluates), from which ``start_scale`` picks t0 on a domain with infimum 0.
The tolerance must satisfy 0 <= tol < inf (``domain.check_tolerance``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Literal, NoReturn

from .domain import IntervalDomain, check_tolerance
from .errors import AllEvaluationsFailed, MeanKitError

UNDERFLOW_FLOOR = 1e-300

#: Default tail window and tolerance of every limit scan at zero, and the
#: number of halvings of t after which every scan stops.
LIMIT_WINDOW = 8
LIMIT_TOL = 1e-6
LIMIT_STEPS = 60

#: Relative tolerance between limit estimates: the suites compare them
#: within LIMIT_REL_TOL * (1 + |value|), and the off-grid check widens the
#: last octave by as much beyond ``tol``.  Numeric-derivative scans carry
#: noise well above ``tol``, which a narrower band would take for aliasing.
LIMIT_REL_TOL = 1e-4

#: Highest error power t^j that the Richardson table removes.
RICHARDSON_ORDER = 6

#: Why a scan stopped: a candidate limit passed the off-grid check
#: ("converged"), it failed that check ("aliased"), the window spread (or a
#: run of non-finite values) kept growing past the best window ("runaway"),
#: t fell below UNDERFLOW_FLOOR ("underflow"), or it sampled k = LIMIT_STEPS
#: ("step_cap").
StopReason = Literal["converged", "aliased", "runaway", "underflow", "step_cap"]


@dataclass(frozen=True)
class LimitEstimate:
    """Sampled values of g(t) for t -> 0+, their tail statistics and the
    reason the scan stopped."""

    values: tuple[tuple[float, float], ...]
    tail_min: float
    tail_max: float
    stop_reason: StopReason
    window: int
    tol: float

    @property
    def converged(self) -> bool:
        return self.stop_reason == "converged"

    @property
    def estimate(self) -> float:
        return 0.5 * (self.tail_min + self.tail_max)

    @property
    def spread(self) -> float:
        return self.tail_max - self.tail_min


#: Divisors 2^j - 1 of the Neville table's columns j = 1 .. RICHARDSON_ORDER.
_DIVISORS = tuple(2.0**j - 1.0 for j in range(1, RICHARDSON_ORDER + 1))

#: The last three values "agree to rounding" when both their differences are
#: at most this times the last value's magnitude (about 4 ulp).
_ROUNDING = 4.0 * 2.0**-52

#: Factors placing the off-grid scales inside the last octave (t_k, 2 t_k).
_OFF_GRID = (2.0 ** (1.0 / 3.0), 2.0 ** (2.0 / 3.0))

#: Errors of g that make its value NaN instead of ending the scan; the
#: envelope scan (``homogenize.envelope_pair``) applies the same rule.
SCAN_FAILURES = (MeanKitError, OverflowError, ZeroDivisionError)


class FailureRule:
    """The failure rule of every scan over g: ``value(t)`` is float(g(t)),
    or NaN when g raises one of SCAN_FAILURES, the first of which it keeps;
    ``all_failed`` then raises AllEvaluationsFailed naming that first
    failure, chained as its cause."""

    def __init__(self, g: Callable[[float], float]):
        self.g = g
        self.first: BaseException | None = None

    def value(self, t: float) -> float:
        try:
            return float(self.g(t))
        except SCAN_FAILURES as exc:
            if self.first is None:
                self.first = exc
            return math.nan

    def all_failed(self, message: str) -> NoReturn:
        first = self.first
        if first is not None:
            message += f"; first failure: {type(first).__name__}: {first}"
        raise AllEvaluationsFailed(message) from first


def limit_at_zero(
    g: Callable[[float], float],
    t0: float,
    *,
    window: int = LIMIT_WINDOW,
    tol: float = LIMIT_TOL,
) -> LimitEstimate:
    """Estimate lim g(t) as t -> 0+ by sampling t_k = t0 * 0.5**k.

    A MeanKitError, OverflowError or ZeroDivisionError raised by ``g`` makes
    its value NaN, at the grid scales and at the off-grid checks alike.
    Non-finite values of ``g`` are recorded but excluded from the tail; each
    one restarts the run of consecutive values that the rounding and
    extrapolation rules read.  At each step the candidate limit comes from
    the rounding rule, else the extrapolation rule (both only while the scan
    is not running away), else the window rule (see the module docstring).
    A candidate at k >= 1 ends the scan: "converged" when it passes the
    off-grid check, with tail_min = tail_max = the limit or, for the window
    rule, the window's min and max; "aliased" when it fails it.  Without a
    candidate the scan runs to k = LIMIT_STEPS (or until t underflows) and
    reports the lowest-spread window seen, with ``converged`` False.  Once a
    window exists, a value that is not finite, or whose window spreads past
    both 100 times the best spread and 10 times ``tol``, counts toward the
    runaway stop; ``window`` such values in a row stop the scan ("runaway"),
    and so does a rounding or extrapolated limit off the best window.
    When no grid value is finite it raises AllEvaluationsFailed, whose
    message names the class and message of the first error ``g`` raised
    (chained as its cause).  Raises ValueError unless t0 > 0, window >= 1
    and 0 <= tol < inf.
    """
    if t0 <= 0.0:
        raise ValueError("t0 must be positive")
    if window < 1:
        raise ValueError("window must be >= 1")
    check_tolerance("tol", tol)
    rule = FailureRule(g)
    value = rule.value

    pairs: list[tuple[float, float]] = []
    finite: list[float] = []
    # The current run of consecutive finite values: its last two before v
    # (NaN where the run is shorter), the ratio of its last two differences,
    # and the Neville row of its last value.
    g1 = g2 = prev_ratio = math.nan
    row: list[float] = []
    best: tuple[float, tuple[float, ...]] | None = None
    stop_reason: StopReason = "step_cap"
    tail: tuple[float, ...] | None = None
    runaway = 0
    for k in range(LIMIT_STEPS + 1):
        t = t0 * 0.5**k
        if t < UNDERFLOW_FLOOR:
            stop_reason = "underflow"
            break
        v = value(t)
        pairs.append((t, v))
        if not math.isfinite(v):
            g1 = g2 = prev_ratio = math.nan
            row = []
            if best is not None:
                runaway += 1
                if runaway >= window:
                    stop_reason = "runaway"
                    break
            continue
        finite.append(v)
        prev_row, row, entry = row, [v], v
        for above, divisor in zip(prev_row, _DIVISORS):
            entry += (entry - above) / divisor
            row.append(entry)
        d1, d2 = v - g1, g1 - g2
        ratio = d1 / d2 if d2 != 0.0 else math.nan
        windowed = len(finite) >= window
        if windowed:
            window_tail = tuple(finite[-window:])
            spread = max(window_tail) - min(window_tail)
            if best is None or spread < best[0]:
                best = (spread, window_tail)
                runaway = 0
        candidate: tuple[float, ...] | None = None
        if runaway == 0 and abs(d1) <= _ROUNDING * abs(v) and abs(d2) <= _ROUNDING * abs(v):
            candidate = (v,)
        elif (
            runaway == 0
            and 0.0 < ratio < 0.75
            and abs(ratio - prev_ratio) <= 0.1 * prev_ratio
            and abs(entry - prev_row[-1]) <= 1e-12 * max(1.0, abs(entry))
            and abs(v - entry) <= tol
        ):
            candidate = (entry,)
        elif windowed and spread <= tol:
            candidate = window_tail
        # A rounding or extrapolated limit off the best window (widened by its spread and tol) is a
        # constant that g froze on after a jump no window saw: g quantized in floats at small t.
        if candidate is not None and len(candidate) == 1 and best is not None:
            if not min(best[1]) - best[0] - tol <= candidate[0] <= max(best[1]) + best[0] + tol:
                stop_reason = "runaway"
                break
        if candidate is not None and k > 0:
            probes = [value(t * factor) for factor in _OFF_GRID]
            octave = (v, pairs[-2][1]) if math.isfinite(pairs[-2][1]) else (v,)
            slack = tol + LIMIT_REL_TOL * (1.0 + abs(v))
            low, high = min(octave) - slack, max(octave) + slack
            if all(low <= p <= high for p in probes):
                stop_reason, tail = "converged", candidate
            else:
                stop_reason = "aliased"
                tail = candidate + tuple(p for p in probes if math.isfinite(p))
            break
        # Once rounding noise takes over, the spread only grows and the
        # values eventually freeze at a spurious constant; stop before a
        # frozen window can masquerade as convergence.
        if windowed:
            if spread > max(100.0 * best[0], 10.0 * tol):
                runaway += 1
                if runaway >= window:
                    stop_reason = "runaway"
                    break
            else:
                runaway = 0
        g1, g2, prev_ratio = v, g1, ratio
    if not finite:
        rule.all_failed(f"no finite value of g on ({pairs[-1][0] if pairs else t0}, {t0}]")
    if tail is None:
        tail = best[1] if best is not None else tuple(finite)
    return LimitEstimate(
        values=tuple(pairs),
        tail_min=min(tail),
        tail_max=max(tail),
        stop_reason=stop_reason,
        window=window,
        tol=tol,
    )


def start_scale(domain: IntervalDomain, reach: float) -> float:
    """Start scale t0 of a scan at 0 whose g evaluates at scales up to
    reach * t: the largest power of 1/2, at most 1, with reach * t0 <=
    ``domain.inner_hi()``.

    Raises ValueError unless ``domain`` has infimum 0, and when no such
    power of 1/2 is above UNDERFLOW_FLOOR.
    """
    if not domain.starts_at_zero:
        raise ValueError(f"domain {domain} must have infimum 0")
    upper = domain.inner_hi() / reach
    t0 = 1.0
    while t0 > upper:
        t0 *= 0.5
        if t0 < UNDERFLOW_FLOOR:
            raise ValueError("admissible scales underflow")
    return t0
