"""Reference values for accuracy checks, computed without meankit and with
the standard library only.

Power means and the quasiarithmetic means of catalog generators are
evaluated in ``decimal`` arithmetic at 50 significant digits from the exact
values of the float inputs, then rounded once to a float; so are the
quasiarithmetic means of generators without an inverse, by bisection.
Weighted medians compare exact ``fractions.Fraction`` weight sums.
Scale profiles (r^q - 1)/q and local power orders are exact rationals
(``fractions.Fraction``) for rational q and r.
"""

from __future__ import annotations

import math
from decimal import Decimal, localcontext
from fractions import Fraction
from typing import Callable, Sequence

DIGITS = 50


def power_mean(entries: Sequence[float], weights: Sequence[float], q: float) -> float:
    """P_q(x, w) = (sum w_i x_i^q / sum w_i)^(1/q), the weighted geometric
    mean at q = 0, for positive entries and weights."""
    with localcontext() as ctx:
        ctx.prec = DIGITS
        xs = [Decimal(x) for x in entries]
        ws = [Decimal(w) for w in weights]
        total = sum(ws)
        if q == 0:
            value = (sum(w * x.ln() for x, w in zip(xs, ws)) / total).exp()
        else:
            exponent = Decimal(q)
            value = (sum(w * x**exponent for x, w in zip(xs, ws)) / total) ** (1 / exponent)
        return float(value)


#: Catalog generators f and their inverses in ``decimal`` arithmetic, by the
#: name of the difference kernel's generator; cosh is inverted as
#: arccosh v = ln(v + sqrt(v^2 - 1)) on the positive half-line.
GENERATORS = {
    "identity": (lambda x: x, lambda v: v),
    "power:2": (lambda x: x * x, lambda v: v.sqrt()),
    "log": (lambda x: x.ln(), lambda v: v.exp()),
    "exp": (lambda x: x.exp(), lambda v: v.ln()),
    "cosh": (lambda x: (x.exp() + (-x).exp()) / 2, lambda v: (v + (v * v - 1).sqrt()).ln()),
}


def qa_mean(entries: Sequence[float], weights: Sequence[float], generator: str) -> float:
    """f^-1(sum w_i f(x_i) / sum w_i) for a generator f of ``GENERATORS``:
    the quasiarithmetic mean, which is also every sign-change mean and the
    deviation mean of the difference kernel f(x) - f(y)."""
    f, inverse = GENERATORS[generator]
    with localcontext() as ctx:
        ctx.prec = DIGITS
        xs = [Decimal(x) for x in entries]
        ws = [Decimal(w) for w in weights]
        return float(inverse(sum(w * f(x) for x, w in zip(xs, ws)) / sum(ws)))


def qa_mean_by_bisection(
    entries: Sequence[float], weights: Sequence[float], f: Callable[[Decimal], Decimal]
) -> float:
    """The quasiarithmetic mean of an increasing generator f without an
    inverse: the point of the sample hull where f takes the weighted
    average of the f(x_i), bisected to DIGITS digits."""
    with localcontext() as ctx:
        ctx.prec = DIGITS
        xs = [Decimal(x) for x in entries]
        ws = [Decimal(w) for w in weights]
        target = sum(w * f(x) for x, w in zip(xs, ws)) / sum(ws)
        lo, hi = min(xs), max(xs)
        while hi - lo > hi.copy_abs() * Decimal(10) ** (5 - DIGITS):
            mid = (lo + hi) / 2
            if f(mid) < target:
                lo = mid
            else:
                hi = mid
        return float((lo + hi) / 2)


def weighted_medians(entries: Sequence[float], weights: Sequence[float]) -> tuple[float, float]:
    """(lower, upper) weighted median: the least entry x with weight
    W(x_i <= x) >= W/2 and the greatest with W(x_i >= x) >= W/2, the
    weights summed as exact fractions."""
    pairs = sorted(zip(entries, map(Fraction, weights)))
    half = sum(w for _, w in pairs) / 2
    below = 0
    for x, w in pairs:
        below += w
        if below >= half:
            lower = x
            break
    above = 0
    for x, w in reversed(pairs):
        above += w
        if above >= half:
            return lower, x
    raise ValueError("weights must have a positive sum")


def power_profile(r: Fraction, q: Fraction) -> Fraction:
    """The scale profile (r^q - 1)/q of a generator of local power order q,
    for an integer q != 0."""
    if q == 0 or q.denominator != 1:
        raise ValueError("exact profiles need a nonzero integer order")
    return (r ** int(q) - 1) / q


def local_order(terms: Sequence[tuple[Fraction, Fraction]]) -> Fraction:
    """Local power order at 0+ of f(x) = c + sum a x^p over (p, a) terms.

    f'(x) is a x^(p - 1) (1 + o(1)) for the least p > 0 with a != 0, so
    x f''/f' + 1 tends to that p; the constant c does not enter.
    """
    return min(p for p, a in terms if p > 0 and a != 0)


def ulps(value: float, reference: float) -> float:
    """|value - reference| in units of the last place of the reference."""
    return abs(value - reference) / math.ulp(reference)
