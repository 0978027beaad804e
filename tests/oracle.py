"""Reference values for accuracy checks, computed without meankit and with
the standard library only.

Power means and the quasiarithmetic means of catalog generators are
evaluated in ``decimal`` arithmetic at 50 significant digits from the exact
values of the float inputs, then rounded once to a float; so are the
quasiarithmetic means of generators without an inverse, by bisection.
Weighted medians compare exact ``fractions.Fraction`` weight sums.
Scale profiles (r^q - 1)/q and local power orders are exact rationals
(``fractions.Fraction``) for rational q and r.  Derivatives are central
differences of expression ASTs evaluated in ``decimal`` arithmetic, whose
steps are far too short for a float stencil.
"""

from __future__ import annotations

import math
import operator
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


_OPERATORS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv, "^": operator.pow}


def decimal_value(node, bindings: dict[str, Decimal]) -> Decimal:
    """The value of an expression AST in ``decimal`` arithmetic at the
    current context's precision.  The nodes are read by their class names
    and fields (Num, Var, Neg, BinOp, Call), independently of meankit's
    evaluator; cosh1(u) is cosh(u) - 1 and dsign(u) the derivative of sign(u),
    0 off 0.  Raises ArithmeticError or ValueError where the expression is
    undefined, as for log(0), 0 ^ -1 and (-8) ^ (1/3)."""
    kind = type(node).__name__
    if kind == "Num":
        return Decimal(node.value)
    if kind == "Var":
        return bindings[node.name]
    if kind == "Neg":
        return -decimal_value(node.operand, bindings)
    if kind == "BinOp":
        return _OPERATORS[node.op](decimal_value(node.left, bindings), decimal_value(node.right, bindings))
    args = [decimal_value(arg, bindings) for arg in node.args]
    if node.func in ("min", "max"):
        return min(args) if node.func == "min" else max(args)
    (u,) = args
    if (node.func == "log" and u <= 0) or (node.func == "dsign" and u == 0):
        raise ValueError(f"{node.func}({u}) is undefined")
    if node.func in ("cosh", "cosh1"):
        half = (u / 2).exp() - (-u / 2).exp()  # 2 sinh(u/2)
        return half * half / 2 + (1 if node.func == "cosh" else 0)
    return {
        "exp": lambda: u.exp(),
        "log": lambda: u.ln(),
        "sqrt": lambda: u.sqrt(),
        "sinh": lambda: (u.exp() - (-u).exp()) / 2,
        "abs": lambda: abs(u),
        "sign": lambda: Decimal((u > 0) - (u < 0)),
        "dsign": lambda: Decimal(0),
    }[node.func]()


def expression_value(node, point: dict[str, float]) -> float:
    """The value of an expression AST at ``point`` (variable -> float) in
    DIGITS-digit decimal arithmetic (``decimal_value``), rounded once."""
    with localcontext() as ctx:
        ctx.prec = DIGITS
        return float(decimal_value(node, {name: Decimal(v) for name, v in point.items()}))


def partial_derivative(node, point: dict[str, float], variable: str, order: int = 1) -> float:
    """The first or second partial derivative of an expression AST in
    ``variable`` at ``point``, by a central difference of ``decimal_value``
    at DIGITS digits with the step 1e-18 (1e-12 at order 2) times max(1,
    |x|): wherever the AST is smooth on the stencil, its truncation and
    rounding errors are orders of magnitude below a float's ulp."""
    with localcontext() as ctx:
        ctx.prec = DIGITS
        bindings = {name: Decimal(v) for name, v in point.items()}
        at = bindings[variable]
        h = Decimal(10) ** (-18 if order == 1 else -12) * max(Decimal(1), abs(at))

        def f(u: Decimal) -> Decimal:
            return decimal_value(node, {**bindings, variable: u})

        high, low = f(at + h), f(at - h)
        if order == 1:
            return float((high - low) / (2 * h))
        return float((high - 2 * f(at) + low) / (h * h))


def central_difference(fn: Callable[[float], float], x: float) -> float:
    """(fn(x + h) - fn(x - h)) / 2h with h = eps^(1/3) max(1, |x|), the
    step that balances truncation and rounding for a float function: about
    1e-10 relative on smooth functions, where the ``decimal`` partials need
    an AST."""
    h = 2.0 ** (-52 / 3) * max(1.0, abs(x))
    return (fn(x + h) - fn(x - h)) / (2.0 * h)


def ulps(value: float, reference: float) -> float:
    """|value - reference| in units of the last place of the reference."""
    return abs(value - reference) / math.ulp(reference)
