"""Limit estimation at zero along geometric sequences, with tail diagnostics.

A true liminf/limsup at 0 is not computable; the proxy here is the min/max of
a trailing window of sampled values.  When the requested tolerance is never
met (typically because floating-point cancellation takes over below some
scale), the reported tail is the sampled window with the smallest spread, so
the estimate degrades gracefully instead of descending into noise.  The full
(t, value) table is always retained for inspection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .errors import AllEvaluationsFailed

UNDERFLOW_FLOOR = 1e-300

#: Default tail window and tolerance of every limit scan at zero.
LIMIT_WINDOW = 8
LIMIT_TOL = 1e-6


@dataclass(frozen=True)
class LimitEstimate:
    """Sampled values of g(t) for t -> 0+ and their tail window statistics."""

    values: tuple[tuple[float, float], ...]
    tail_min: float
    tail_max: float
    converged: bool
    window: int
    tol: float

    @property
    def estimate(self) -> float:
        return 0.5 * (self.tail_min + self.tail_max)

    @property
    def spread(self) -> float:
        return self.tail_max - self.tail_min


def limit_at_zero(
    g: Callable[[float], float],
    t0: float,
    *,
    ratio: float = 0.5,
    max_steps: int = 60,
    window: int = LIMIT_WINDOW,
    tol: float = LIMIT_TOL,
) -> LimitEstimate:
    """Estimate lim g(t) as t -> 0+ by sampling t_k = t0 * ratio**k.

    Non-finite values of ``g`` are recorded but excluded from the tail.  The
    iteration stops as soon as the last ``window`` finite values agree within
    ``tol``; otherwise it runs to ``max_steps`` (or until t underflows) and
    reports the lowest-spread window seen, with ``converged`` False.
    """
    if not 0.0 < ratio < 1.0:
        raise ValueError("ratio must be in (0, 1)")
    if t0 <= 0.0:
        raise ValueError("t0 must be positive")
    if window < 1:
        raise ValueError("window must be >= 1")

    pairs: list[tuple[float, float]] = []
    finite: list[float] = []
    best: tuple[float, tuple[float, ...]] | None = None
    converged = False
    runaway = 0
    for k in range(max_steps + 1):
        t = t0 * ratio**k
        if t < UNDERFLOW_FLOOR:
            break
        try:
            v = float(g(t))
        except (OverflowError, ZeroDivisionError):
            v = math.nan
        pairs.append((t, v))
        if math.isfinite(v):
            finite.append(v)
            if len(finite) >= window:
                tail = tuple(finite[-window:])
                spread = max(tail) - min(tail)
                if best is None or spread < best[0]:
                    best = (spread, tail)
                    runaway = 0
                if spread <= tol:
                    converged = True
                    break
                # Once rounding noise takes over, the spread only grows and the
                # values eventually freeze at a spurious constant; stop before a
                # frozen window can masquerade as convergence.
                if spread > max(100.0 * best[0], 10.0 * tol):
                    runaway += 1
                    if runaway >= window:
                        break
                else:
                    runaway = 0
    if not finite:
        raise AllEvaluationsFailed(f"no finite value of g on ({pairs[-1][0] if pairs else t0}, {t0}]")
    tail = best[1] if best is not None else tuple(finite)
    return LimitEstimate(
        values=tuple(pairs),
        tail_min=min(tail),
        tail_max=max(tail),
        converged=converged,
        window=window,
        tol=tol,
    )


def largest_halving_start(upper: float) -> float:
    """Largest power of 1/2 that is <= upper (and <= 1)."""
    if upper <= 0.0:
        raise ValueError("no admissible starting scale")
    t0 = 1.0
    while t0 > upper:
        t0 *= 0.5
        if t0 < UNDERFLOW_FLOOR:
            raise ValueError("admissible scales underflow")
    return t0
