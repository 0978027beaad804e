"""Expression language, function handles, and numeric differentiation.

Grammar (whitespace-insensitive; ``^`` is right-associative and binds tighter
than unary minus):

    expr   = term { ("+" | "-") term } ;
    term   = factor { ("*" | "/") factor } ;
    factor = "-" factor | power ;
    power  = atom [ "^" factor ] ;
    atom   = number | name | name "(" expr { "," expr } ")" | "(" expr ")" ;

Functions: exp, log, cosh, sinh, sqrt, abs, sign (unary); min, max (binary).
sign(0) = 0, so a sign-based kernel vanishes on the diagonal.  Evaluation is
IEEE-flavoured but never returns a non-finite number silently: overflow and
NaN raise ``NonFinite``, out-of-domain arguments raise ``DomainError``.  A NaN
operand of min, max, sign or ^ raises ``NonFinite`` too, since those would
turn it into a plausible number (max(1, nan) = 1, nan ^ 0 = 1).

A function handle compiles its expression once, when it is built, into nested
closures; free variables other than the handle's own are rejected then.
``evaluate`` compiles on every call and raises ``UnboundVariable`` only when
evaluation reaches a name missing from its bindings.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, replace
from typing import Callable, Mapping, Union

from .domain import IntervalDomain, all_reals, positive_reals, probe_points, sign
from .errors import (
    DerivativeMismatch,
    DomainError,
    ExprSyntaxError,
    NonFinite,
    StencilOutsideDomain,
    UnboundVariable,
    UnknownFunction,
)

# --- abstract syntax ---------------------------------------------------------


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Neg:
    operand: "ExprAst"


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * / ^
    left: "ExprAst"
    right: "ExprAst"


@dataclass(frozen=True)
class Call:
    func: str
    args: tuple["ExprAst", ...]


ExprAst = Union[Num, Var, Neg, BinOp, Call]

FUNCTION_ARITY = {
    "exp": 1,
    "log": 1,
    "cosh": 1,
    "sinh": 1,
    "sqrt": 1,
    "abs": 1,
    "sign": 1,
    "min": 2,
    "max": 2,
}


# --- lexer / parser ----------------------------------------------------------

_OPERATORS = set("+-*/^(),")


def _tokenize(source: str) -> list[tuple[str, str, int]]:
    tokens = []
    i, n = 0, len(source)
    while i < n:
        c = source[i]
        if c.isspace():
            i += 1
            continue
        if c in _OPERATORS:
            tokens.append(("op", c, i))
            i += 1
            continue
        if c.isdigit():
            j = i
            while j < n and source[j].isdigit():
                j += 1
            if j < n and source[j] == ".":
                j += 1
                while j < n and source[j].isdigit():
                    j += 1
            if j < n and source[j] in "eE":
                k = j + 1
                if k < n and source[k] in "+-":
                    k += 1
                if k < n and source[k].isdigit():
                    j = k
                    while j < n and source[j].isdigit():
                        j += 1
            tokens.append(("num", source[i:j], i))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            tokens.append(("name", source[i:j], i))
            i = j
            continue
        raise ExprSyntaxError(f"unexpected character {c!r}", i)
    tokens.append(("end", "", n))
    return tokens


class _Parser:
    def __init__(self, source: str):
        self.source = source
        self.tokens = _tokenize(source)
        self.pos = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.pos]

    def advance(self) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def accept_op(self, *ops: str) -> str | None:
        kind, text, _ = self.peek()
        if kind == "op" and text in ops:
            self.advance()
            return text
        return None

    def expect_op(self, op: str) -> None:
        kind, text, offset = self.peek()
        if kind != "op" or text != op:
            raise ExprSyntaxError(f"expected {op!r}", offset)
        self.advance()

    def parse(self) -> ExprAst:
        node = self.expr()
        kind, text, offset = self.peek()
        if kind != "end":
            raise ExprSyntaxError(f"trailing input {text!r}", offset)
        return node

    def expr(self) -> ExprAst:
        node = self.term()
        while (op := self.accept_op("+", "-")) is not None:
            node = BinOp(op, node, self.term())
        return node

    def term(self) -> ExprAst:
        node = self.factor()
        while (op := self.accept_op("*", "/")) is not None:
            node = BinOp(op, node, self.factor())
        return node

    def factor(self) -> ExprAst:
        if self.accept_op("-") is not None:
            return Neg(self.factor())
        return self.power()

    def power(self) -> ExprAst:
        node = self.atom()
        if self.accept_op("^") is not None:
            node = BinOp("^", node, self.factor())
        return node

    def atom(self) -> ExprAst:
        kind, text, offset = self.peek()
        if kind == "num":
            self.advance()
            return Num(float(text))
        if kind == "name":
            self.advance()
            if self.accept_op("(") is not None:
                if text not in FUNCTION_ARITY:
                    raise UnknownFunction(f"unknown function {text!r} at offset {offset}")
                args = [self.expr()]
                while self.accept_op(",") is not None:
                    args.append(self.expr())
                self.expect_op(")")
                if len(args) != FUNCTION_ARITY[text]:
                    raise ExprSyntaxError(
                        f"{text} takes {FUNCTION_ARITY[text]} argument(s), got {len(args)}",
                        offset,
                    )
                return Call(text, tuple(args))
            return Var(text)
        if kind == "op" and text == "(":
            self.advance()
            node = self.expr()
            self.expect_op(")")
            return node
        raise ExprSyntaxError(f"unexpected token {text!r}" if text else "unexpected end of input", offset)


def parse(source: str) -> ExprAst:
    """Parse expression text into an AST."""
    return _Parser(source).parse()


def free_variables(node: ExprAst) -> frozenset[str]:
    if isinstance(node, Num):
        return frozenset()
    if isinstance(node, Var):
        return frozenset((node.name,))
    if isinstance(node, Neg):
        return free_variables(node.operand)
    if isinstance(node, BinOp):
        return free_variables(node.left) | free_variables(node.right)
    return frozenset().union(*(free_variables(a) for a in node.args))


# --- printer -------------------------------------------------------------------

_BIN_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 4}
_NEG_PREC = 3
_ATOM_PREC = 5


def _render(node: ExprAst) -> tuple[str, int]:
    if isinstance(node, Num):
        return repr(node.value), _ATOM_PREC
    if isinstance(node, Var):
        return node.name, _ATOM_PREC
    if isinstance(node, Neg):
        text, prec = _render(node.operand)
        if prec < _NEG_PREC:
            text = f"({text})"
        return f"-{text}", _NEG_PREC
    if isinstance(node, Call):
        args = ", ".join(_render(a)[0] for a in node.args)
        return f"{node.func}({args})", _ATOM_PREC
    prec = _BIN_PREC[node.op]
    if node.op == "^":
        left_req, right_req = _ATOM_PREC, _NEG_PREC
    else:
        left_req, right_req = prec, prec + 1
    left, lp = _render(node.left)
    if lp < left_req:
        left = f"({left})"
    right, rp = _render(node.right)
    if rp < right_req:
        right = f"({right})"
    op = node.op if node.op == "^" else f" {node.op} "
    return f"{left}{op}{right}", prec


def to_source(node: ExprAst) -> str:
    """Canonical text form; ``parse(to_source(ast))`` reproduces ``ast``
    structurally provided numeric literals are nonnegative."""
    return _render(node)[0]


# --- evaluation ----------------------------------------------------------------
#
# An AST is compiled once into nested closures (closure compilation: Feeley &
# Lapalme, Computer Languages 12(1), 1987).  Each closure takes the tuple of
# bound values, indexed by the slots handed to the compiler, and performs its
# node's float operations, left operand first.

_Closure = Callable[[tuple], float]


def _log(v: float) -> float:
    if v <= 0.0:
        raise DomainError(f"log of nonpositive value {v}")
    return math.log(v)


def _sqrt(v: float) -> float:
    if v < 0.0:
        raise DomainError(f"sqrt of negative value {v}")
    return math.sqrt(v)


def _sign(v: float) -> float:
    if v != v:
        raise NonFinite(f"NaN operand in sign({v})")
    return float(sign(v))


# Unary functions; an OverflowError from any of them becomes NonFinite.
_UNARY: dict[str, Callable[[float], float]] = {
    "exp": math.exp,
    "log": _log,
    "cosh": math.cosh,
    "sinh": math.sinh,
    "sqrt": _sqrt,
    "abs": abs,
    "sign": _sign,
}


def _compile_call(func: str, args: list[_Closure]) -> _Closure:
    op = _UNARY.get(func)
    if op is not None and len(args) == 1:
        (arg,) = args

        def unary(env: tuple) -> float:
            v = arg(env)
            try:
                return op(v)
            except OverflowError as exc:
                raise NonFinite(f"{func}({v}) overflowed") from exc

        return unary
    pick = {"min": min, "max": max}.get(func)
    if pick is not None and len(args) == 2:
        first, second = args

        def binary(env: tuple) -> float:
            a = first(env)
            b = second(env)
            if a != a or b != b:
                raise NonFinite(f"NaN operand in {func}({a}, {b})")
            return pick(a, b)

        return binary

    # An AST built by hand may carry another arity or an unknown name: every
    # argument is still evaluated, left to right, before the call applies or
    # fails, and a unary function takes the first.
    def call(env: tuple) -> float:
        values = [a(env) for a in args]
        if pick is not None:
            if any(v != v for v in values):
                raise NonFinite(f"NaN operand in {func}{tuple(values)}")
            return pick(values)
        if op is None:
            raise UnknownFunction(func)
        v = values[0]
        try:
            return op(v)
        except OverflowError as exc:
            raise NonFinite(f"{func}({v}) overflowed") from exc

    return call


_ARITHMETIC = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


def _compile_binop(op: str, left: _Closure, right: _Closure) -> _Closure:
    arithmetic = _ARITHMETIC.get(op)
    if arithmetic is not None:

        def binop(env: tuple) -> float:
            a = left(env)
            b = right(env)
            try:
                return arithmetic(a, b)
            except ZeroDivisionError as exc:
                raise NonFinite(f"division by zero: {a} / {b}") from exc
            except OverflowError as exc:
                raise NonFinite(f"overflow in {a} {op} {b}") from exc

        return binop

    def power(env: tuple) -> float:
        a = left(env)
        b = right(env)
        if a != a or b != b:
            raise NonFinite(f"NaN operand in {a} ^ {b}")
        try:
            return math.pow(a, b)
        except OverflowError as exc:
            raise NonFinite(f"overflow in {a} ^ {b}") from exc
        except ValueError as exc:
            raise DomainError(f"invalid power {a} ^ {b}") from exc

    return power


def _compile_node(node: ExprAst, slots: Mapping[str, int]) -> _Closure:
    if isinstance(node, Num):
        value = node.value
        return lambda env: value
    if isinstance(node, Var):
        name = node.name
        if name not in slots:

            def unbound(env: tuple) -> float:
                raise UnboundVariable(f"variable {name!r} is not bound")

            return unbound
        i = slots[name]
        return lambda env: float(env[i])
    if isinstance(node, Neg):
        operand = _compile_node(node.operand, slots)
        return lambda env: -operand(env)
    if isinstance(node, Call):
        return _compile_call(node.func, [_compile_node(a, slots) for a in node.args])
    return _compile_binop(node.op, _compile_node(node.left, slots), _compile_node(node.right, slots))


def _nonfinite_result(v: float) -> NonFinite:
    return NonFinite(f"expression evaluated to {v}")


def evaluate(node: ExprAst, bindings: Mapping[str, float]) -> float:
    """Evaluate an AST; raises instead of returning inf or NaN.  A variable
    missing from ``bindings`` raises ``UnboundVariable`` when it is reached."""
    closure = _compile_node(node, {name: i for i, name in enumerate(bindings)})
    v = closure(tuple(bindings.values()))
    if math.isfinite(v):
        return v
    raise _nonfinite_result(v)


# --- numeric differentiation ----------------------------------------------------

_EPS = 2.220446049250313e-16
_H1 = _EPS ** (1.0 / 3.0)
_H2 = _EPS**0.25


def numeric_derivative(
    fn: Callable[[float], float],
    x: float,
    order: int = 1,
    domain: IntervalDomain | None = None,
) -> float:
    """Central difference of order 1 or 2.

    Steps: h1 = cbrt(eps) * max(1, |x|), h2 = eps^(1/4) * max(1, |x|).  Near a
    domain boundary the step shrinks to half the available room, so scaling
    limits t -> 0 stay differentiable; with no room at all the stencil fails.
    """
    if order not in (1, 2):
        raise ValueError("order must be 1 or 2")
    h = (_H1 if order == 1 else _H2) * max(1.0, abs(x))
    if domain is not None:
        room = min(x - domain.inner_lo(), domain.inner_hi() - x)
        if room <= 0.0:
            raise StencilOutsideDomain(f"point {x} has no interior room in {domain}")
        h = min(h, 0.5 * room)
        if h <= abs(x) * _EPS:
            raise StencilOutsideDomain(f"no room for a stencil around {x} in {domain}")
    hi, lo = fn(x + h), fn(x - h)
    if order == 1:
        d = (hi - lo) / (2.0 * h)
    else:
        d = (hi - 2.0 * fn(x) + lo) / (h * h)
    if not math.isfinite(d):
        raise NonFinite(f"derivative stencil at {x} is not finite")
    return d


# --- one-variable function handle -------------------------------------------------


@dataclass(frozen=True)
class ScalarFunction:
    """One-variable function with optional analytic first/second derivatives.

    ``inverse`` is a catalog promise: the inverse function of ``fn`` on its
    range, which quasiarithmetic and difference-kernel means then apply in
    closed form instead of bisecting.  Without it, consumers that need
    monotonicity probe it on a grid themselves.  A function built from
    expression text keeps that text only as its default ``name``.
    """

    name: str
    fn: Callable[[float], float]
    domain: IntervalDomain
    deriv1: Callable[[float], float] | None = None
    deriv2: Callable[[float], float] | None = None
    inverse: Callable[[float], float] | None = None

    def __call__(self, x: float) -> float:
        return self.fn(x)

    def derivative(self, x: float, order: int = 1) -> float:
        if order == 1 and self.deriv1 is not None:
            return self.deriv1(x)
        if order == 2 and self.deriv2 is not None:
            return self.deriv2(x)
        return numeric_derivative(self.fn, x, order, self.domain)

    def restricted(self, domain: IntervalDomain) -> "ScalarFunction":
        """The same function on a sub-domain (the inverse carries over)."""
        return replace(self, domain=domain)


def _check_derivative_agreement(
    fn: Callable[[float], float],
    analytic: Callable[[float], float],
    domain: IntervalDomain,
    order: int,
    label: str,
) -> None:
    # Relative 1e-5 agreement with central differences on a probe grid.
    for x in probe_points(domain, 9):
        try:
            numeric = numeric_derivative(fn, x, order, domain)
            exact = analytic(x)
        except StencilOutsideDomain:
            continue
        if abs(exact - numeric) > 1e-5 * max(1.0, abs(exact)):
            raise DerivativeMismatch(
                f"{label}: order-{order} derivative at {x}: analytic {exact}, numeric {numeric}"
            )


def _compile(text: str | None, variables: tuple[str, ...]) -> Callable[..., float] | None:
    """Parse ``text`` into a function of ``variables``, passed positionally;
    None for None.  Free variables outside ``variables`` are rejected."""
    if text is None:
        return None
    ast = parse(text)
    extra = free_variables(ast) - set(variables)
    if extra:
        raise UnboundVariable(f"unexpected free variables {sorted(extra)} in {text!r}")
    closure = _compile_node(ast, {name: i for i, name in enumerate(variables)})
    isfinite = math.isfinite
    if len(variables) == 1:

        def fn(x: float) -> float:
            v = closure((x,))
            if isfinite(v):
                return v
            raise _nonfinite_result(v)

        return fn

    def kernel(x: float, y: float) -> float:
        v = closure((x, y))
        if isfinite(v):
            return v
        raise _nonfinite_result(v)

    return kernel


def scalar_from_expression(
    source: str,
    domain: IntervalDomain,
    *,
    name: str | None = None,
    deriv1_source: str | None = None,
    deriv2_source: str | None = None,
    variable: str = "x",
) -> ScalarFunction:
    """Build a one-variable function from expression text.

    Analytic derivative expressions, when supplied, are validated against
    central differences at construction.
    """
    fn = _compile(source, (variable,))
    d1 = _compile(deriv1_source, (variable,))
    d2 = _compile(deriv2_source, (variable,))
    label = name or source
    if d1 is not None:
        _check_derivative_agreement(fn, d1, domain, 1, label)
    if d2 is not None:
        _check_derivative_agreement(fn, d2, domain, 2, label)
    return ScalarFunction(label, fn, domain, d1, d2)


# --- two-variable kernel handle -----------------------------------------------------


@dataclass(frozen=True)
class Kernel2:
    """Two-variable kernel K(x, y) with optional analytic partials.

    ``generator``, when set, declares difference structure: for every (x, y)
    ``fn(x, y) == generator.fn(x) - generator.fn(y)``, bit for bit, and solvers
    may evaluate the generator instead of ``fn``.  Only ``difference_kernel``
    sets it; constructors that build a new ``fn`` (``normalize_kernel``, ratio
    and expression kernels) leave it None, as must a ``dataclasses.replace``
    that gives a difference kernel an ``fn`` breaking the identity.  A kernel
    built from expression text keeps that text only as its default ``name``.

    ``ratio``, when set, declares ratio structure the same way: for every
    (x, y) ``fn(x, y) == ratio(x / y)``, bit for bit, so solvers may call
    ``ratio`` on the quotient instead of ``fn``.  Only ``ratio_kernel`` and
    ``homogenize.ratio_kernel_from_profile`` set it; a ``dataclasses.replace``
    that changes ``fn`` must drop it, as for ``generator``.
    """

    name: str
    fn: Callable[[float, float], float]
    domain_x: IntervalDomain
    domain_y: IntervalDomain
    deriv1: Callable[[float, float], float] | None = None
    deriv2: Callable[[float, float], float] | None = None
    generator: ScalarFunction | None = None
    ratio: Callable[[float], float] | None = None

    def __call__(self, x: float, y: float) -> float:
        return self.fn(x, y)

    def partial1(self, x: float, y: float) -> float:
        if self.deriv1 is not None:
            return self.deriv1(x, y)
        return numeric_derivative(lambda u: self.fn(u, y), x, 1, self.domain_x)

    def partial2(self, x: float, y: float) -> float:
        if self.deriv2 is not None:
            return self.deriv2(x, y)
        return numeric_derivative(lambda v: self.fn(x, v), y, 1, self.domain_y)

    def with_domains(self, domain_x: IntervalDomain, domain_y: IntervalDomain | None = None) -> "Kernel2":
        return replace(self, domain_x=domain_x, domain_y=domain_y or domain_x)


def kernel_from_expression(
    source: str,
    domain_x: IntervalDomain,
    domain_y: IntervalDomain | None = None,
    *,
    name: str | None = None,
    deriv1_source: str | None = None,
    deriv2_source: str | None = None,
) -> Kernel2:
    """Build a kernel in variables (x, y) from expression text."""
    domain_y = domain_y or domain_x
    fn = _compile(source, ("x", "y"))
    d1 = _compile(deriv1_source, ("x", "y"))
    d2 = _compile(deriv2_source, ("x", "y"))
    label = name or source
    if d1 is not None:
        probe_y = probe_points(domain_y, 3)[1]
        _check_derivative_agreement(lambda x: fn(x, probe_y), lambda x: d1(x, probe_y), domain_x, 1, label)
    if d2 is not None:
        probe_x = probe_points(domain_x, 3)[1]
        _check_derivative_agreement(lambda y: fn(probe_x, y), lambda y: d2(probe_x, y), domain_y, 1, label)
    return Kernel2(label, fn, domain_x, domain_y, d1, d2)


# --- built-in catalog -----------------------------------------------------------------
#
# Catalog generators are stored free of cancellation (Higham, Accuracy and
# Stability of Numerical Algorithms, 2nd ed., ch. 1): cosh as cosh - 1 =
# 2 sinh(x/2)^2, which stays accurate near 0 where cosh(x) == 1.0 in floats.
# Quasiarithmetic and difference-kernel means do not change under
# f -> a f + b; the derivatives are those of the textbook form.  exp stays
# exp: expm1 would keep e^x only to an absolute 1.1e-16 and lose the digits
# of qa(exp) on entries below about -20.  Every stored form and inverse
# raises instead of returning a non-finite value.


def _pow(x: float, p: float) -> float:
    try:
        return math.pow(x, p)
    except OverflowError as exc:
        raise NonFinite(f"{x}^{p} overflowed") from exc
    except ValueError as exc:
        raise DomainError(f"invalid power {x}^{p}") from exc


def _exp(x: float) -> float:
    try:
        return math.exp(x)
    except OverflowError as exc:
        raise NonFinite(f"exp({x}) overflowed") from exc


def _cosh_minus_one(x: float) -> float:
    # 2 sinh(x/2)^2 = cosh(x) - 1.  The doubling can overflow to inf without
    # raising, where sinh and the square still fit.
    try:
        v = 2.0 * math.sinh(0.5 * x) ** 2
    except OverflowError as exc:
        raise NonFinite(f"cosh({x}) overflowed") from exc
    if v == math.inf:
        raise NonFinite(f"cosh({x}) overflowed")
    return v


def power_generator(p: float) -> ScalarFunction:
    """x -> x^p on the positive half-line; p = 0 selects the logarithm."""
    if p == 0.0:
        return ScalarFunction(
            "power(0)",
            math.log,
            positive_reals(),
            deriv1=lambda x: 1.0 / x,
            deriv2=lambda x: -1.0 / (x * x),
            inverse=_exp,
        )
    return ScalarFunction(
        f"power({p:g})",
        lambda x: _pow(x, p),
        positive_reals(),
        deriv1=lambda x: p * _pow(x, p - 1.0),
        deriv2=lambda x: p * (p - 1.0) * _pow(x, p - 2.0),
        inverse=lambda v: _pow(v, 1.0 / p),
    )


def log_generator() -> ScalarFunction:
    return power_generator(0.0)


def exp_generator() -> ScalarFunction:
    return ScalarFunction(
        "exp",
        _exp,
        all_reals(),
        deriv1=_exp,
        deriv2=_exp,
        inverse=_log,
    )


def cosh_generator() -> ScalarFunction:
    """cosh on the positive half-line, where it is strictly increasing,
    stored as cosh(x) - 1 = 2 sinh(x/2)^2."""
    return ScalarFunction(
        "cosh",
        _cosh_minus_one,
        positive_reals(),
        deriv1=math.sinh,
        deriv2=math.cosh,
        inverse=lambda v: 2.0 * math.asinh(math.sqrt(0.5 * v)),
    )


def shifted_power_generator(q: float, c: float) -> ScalarFunction:
    """x -> (x + c)^q (logarithm when q = 0) on (-c, inf)."""
    dom = IntervalDomain(-c, math.inf)
    if q == 0.0:
        return ScalarFunction(
            f"shifted_power(0,{c:g})",
            lambda x: math.log(x + c),
            dom,
            deriv1=lambda x: 1.0 / (x + c),
            deriv2=lambda x: -1.0 / ((x + c) * (x + c)),
            inverse=lambda v: _exp(v) - c,
        )
    return ScalarFunction(
        f"shifted_power({q:g},{c:g})",
        lambda x: _pow(x + c, q),
        dom,
        deriv1=lambda x: q * _pow(x + c, q - 1.0),
        deriv2=lambda x: q * (q - 1.0) * _pow(x + c, q - 2.0),
        inverse=lambda v: _pow(v, 1.0 / q) - c,
    )


def sign_kernel() -> Kernel2:
    """K(x, y) = sign(x - y); generates the weighted lower/upper medians."""
    return Kernel2("sign_dev", lambda x, y: float(sign(x - y)), all_reals(), all_reals())


def difference_kernel(f: ScalarFunction, domain: IntervalDomain | None = None) -> Kernel2:
    """K(x, y) = f(x) - f(y) for a strictly increasing f."""
    dom = domain or f.domain
    d1 = (lambda x, y: f.deriv1(x)) if f.deriv1 is not None else None
    d2 = (lambda x, y: -f.deriv1(y)) if f.deriv1 is not None else None
    return Kernel2(
        f"diff_gen({f.name})", lambda x, y: f.fn(x) - f.fn(y), dom, dom, d1, d2, generator=f
    )


def ratio_kernel(f: ScalarFunction) -> Kernel2:
    """K(x, y) = f(x / y) on the positive quadrant; homogeneous of degree 0."""
    dom = positive_reals()
    d1 = (lambda x, y: f.deriv1(x / y) / y) if f.deriv1 is not None else None
    d2 = (lambda x, y: -f.deriv1(x / y) * x / (y * y)) if f.deriv1 is not None else None
    return Kernel2(f"ratio_dev({f.name})", lambda x, y: f.fn(x / y), dom, dom, d1, d2, ratio=f.fn)


def arithmetic_kernel() -> Kernel2:
    """K(x, y) = x - y on the reals (already normalized)."""
    f = ScalarFunction(
        "identity",
        lambda x: x,
        all_reals(),
        deriv1=lambda x: 1.0,
        deriv2=lambda x: 0.0,
        inverse=lambda v: v,
    )
    return difference_kernel(f)
