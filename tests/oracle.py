"""Reference values for accuracy checks, computed without meankit and with
the standard library only.

Power means are evaluated in ``decimal`` arithmetic at 50 significant digits
from the exact values of the float inputs, then rounded once to a float.
Scale profiles (r^q - 1)/q and local power orders are exact rationals
(``fractions.Fraction``) for rational q and r.
"""

from __future__ import annotations

import math
from decimal import Decimal, localcontext
from fractions import Fraction
from typing import Sequence

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
