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

A function handle compiles its expression, when it is built, into the source
of one straight-line Python function, and its ``fn`` is that function; free
variables other than the handle's own are rejected then.  A generator's
variable is x, a kernel's x and y, and the handle's default name is its text;
its derivatives come from central differences (``numeric_derivative``).
When x occurs once in a generator's text, the same parse also unwinds the
AST from the root into a chain of invertible steps, which gives the handle
its ``hull_inverse``: an inverse certified, hull by hull, by carrying the
hull's ends through the steps; a chain of a shape ``_order_ends``
accepts (a x^q + b, a log x + b, or one through exp, b^u, cosh or sinh)
also gives its ``order_ends``, the ends of its monotone order operator.  A
kernel's parse shows its structure: text
A - B, where A has only x free and B is A with x renamed to y, declares
``Difference`` of A as a generator (with its ``hull_inverse`` when x occurs
once in A), and sign(x - y) declares ``Sign``.  Compiled functions, chains
and structures are memoized by text and variables.  ``evaluate`` compiles
its AST afresh on each call and raises ``UnboundVariable`` only when
evaluation reaches a name missing from its bindings.  Text nested deeper than ``MAX_DEPTH``, and an AST
handed to ``evaluate`` taller than it, raise ``ExprSyntaxError``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from string import Template
from typing import Callable, Mapping, NamedTuple, Union

from .domain import IntervalDomain, all_reals, positive_reals, sign
from .errors import (
    DomainError,
    ExprSyntaxError,
    MeanKitError,
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

#: Limit of ``parse`` on two depths: the parentheses, unary minuses and ^
#: operators open around any point of the text, each a level of the parser's
#: recursion, and the AST's height (nodes on a path from the root to a leaf),
#: a level of recursion for the compiler and the AST's hash.  Deeper text
#: raises ``ExprSyntaxError`` instead of exhausting the interpreter's stack.
MAX_DEPTH = 100


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


# A parsed node and its height.
_Parsed = tuple[ExprAst, int]


def _too_deep(offset: int) -> ExprSyntaxError:
    return ExprSyntaxError(f"expression nested deeper than {MAX_DEPTH}", offset)


class _Parser:
    def __init__(self, source: str):
        self.source = source
        self.tokens = _tokenize(source)
        self.pos = 0
        self.nesting = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.pos]

    def advance(self) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def accept_op(self, *ops: str) -> tuple[str, int] | None:
        """The next token's operator and offset, consumed, if it is in ``ops``."""
        kind, text, offset = self.peek()
        if kind == "op" and text in ops:
            self.advance()
            return text, offset
        return None

    def expect_op(self, op: str) -> None:
        kind, text, offset = self.peek()
        if kind != "op" or text != op:
            raise ExprSyntaxError(f"expected {op!r}", offset)
        self.advance()

    def open(self, offset: int) -> None:
        """Enter a parenthesis, unary minus or ^ operand at ``offset``."""
        self.nesting += 1
        if self.nesting > MAX_DEPTH:
            raise _too_deep(offset)

    @staticmethod
    def grown(node: ExprAst, offset: int, *children: _Parsed) -> _Parsed:
        height = 1 + max(h for _, h in children)
        if height > MAX_DEPTH:
            raise _too_deep(offset)
        return node, height

    def parse(self) -> ExprAst:
        node, _ = self.expr()
        kind, text, offset = self.peek()
        if kind != "end":
            raise ExprSyntaxError(f"trailing input {text!r}", offset)
        return node

    def expr(self) -> _Parsed:
        parsed = self.term()
        while (op := self.accept_op("+", "-")) is not None:
            right = self.term()
            parsed = self.grown(BinOp(op[0], parsed[0], right[0]), op[1], parsed, right)
        return parsed

    def term(self) -> _Parsed:
        parsed = self.factor()
        while (op := self.accept_op("*", "/")) is not None:
            right = self.factor()
            parsed = self.grown(BinOp(op[0], parsed[0], right[0]), op[1], parsed, right)
        return parsed

    def factor(self) -> _Parsed:
        if (op := self.accept_op("-")) is not None:
            self.open(op[1])
            operand = self.factor()
            self.nesting -= 1
            return self.grown(Neg(operand[0]), op[1], operand)
        return self.power()

    def power(self) -> _Parsed:
        parsed = self.atom()
        if (op := self.accept_op("^")) is not None:
            self.open(op[1])
            right = self.factor()
            self.nesting -= 1
            parsed = self.grown(BinOp("^", parsed[0], right[0]), op[1], parsed, right)
        return parsed

    def atom(self) -> _Parsed:
        kind, text, offset = self.peek()
        if kind == "num":
            self.advance()
            return Num(float(text)), 1
        if kind == "name":
            self.advance()
            if (paren := self.accept_op("(")) is not None:
                if text not in FUNCTION_ARITY:
                    raise UnknownFunction(f"unknown function {text!r} at offset {offset}")
                self.open(paren[1])
                args = [self.expr()]
                while self.accept_op(",") is not None:
                    args.append(self.expr())
                self.expect_op(")")
                self.nesting -= 1
                if len(args) != FUNCTION_ARITY[text]:
                    raise ExprSyntaxError(
                        f"{text} takes {FUNCTION_ARITY[text]} argument(s), got {len(args)}",
                        offset,
                    )
                return self.grown(Call(text, tuple(node for node, _ in args)), offset, *args)
            return Var(text), 1
        if (paren := self.accept_op("(")) is not None:
            self.open(paren[1])
            parsed = self.expr()
            self.expect_op(")")
            self.nesting -= 1
            return parsed
        raise ExprSyntaxError(f"unexpected token {text!r}" if text else "unexpected end of input", offset)


def parse(source: str) -> ExprAst:
    """Parse expression text into an AST."""
    return _Parser(source).parse()


def _children(node: ExprAst) -> tuple[ExprAst, ...]:
    if isinstance(node, Neg):
        return (node.operand,)
    if isinstance(node, BinOp):
        return (node.left, node.right)
    if isinstance(node, Call):
        return node.args
    return ()


def free_variables(node: ExprAst) -> frozenset[str]:
    names, stack = set(), [node]
    while stack:
        n = stack.pop()
        if isinstance(n, Var):
            names.add(n.name)
        stack.extend(_children(n))
    return frozenset(names)


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
# An AST is compiled into the source of one Python function, one statement per
# node in evaluation order (left operand first), and ``exec`` turns that source
# into the function itself.  The function's positional parameters a0, a1, ...
# are the variables; literals and the strings that name something in the AST
# are bound as c0, c1, ... in its global namespace, next to the helpers below.
# So the source is built only from the emitter's own identifiers, and no
# character of the expression text reaches it.


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

# The global namespace of every generated function, besides its literals.
_HELPERS = {
    **_UNARY,
    "power": math.pow,
    "isfinite": math.isfinite,
    "NonFinite": NonFinite,
    "DomainError": DomainError,
    "UnboundVariable": UnboundVariable,
}

# One template per kind of node; $v is the node's value, $a and $b its operands.
_FLOAT = Template("    $v = float($a)\n")
_NEG = Template("    $v = -$a\n")
_UNBOUND = Template("    raise UnboundVariable($message)\n")

_UNARY_CALL = Template("""\
    try:
        $v = $func($a)
    except OverflowError as exc:
        raise NonFinite(f"$func({$a}) overflowed") from exc
""")

# min(a, b) is b if b < a else a, and max(a, b) is b if b > a else a.
_PICK_CALL = Template("""\
    if $a != $a or $b != $b:
        raise NonFinite(f"NaN operand in $func({$a}, {$b})")
    $v = $b if $b $compare $a else $a
""")

_ARITHMETIC = Template("""\
    try:
        $v = $a $op $b
    except OverflowError as exc:
        raise NonFinite(f"overflow in {$a} $op {$b}") from exc
""")

_DIVISION = Template("""\
    try:
        $v = $a / $b
    except ZeroDivisionError as exc:
        raise NonFinite(f"division by zero: {$a} / {$b}") from exc
    except OverflowError as exc:
        raise NonFinite(f"overflow in {$a} / {$b}") from exc
""")

_POWER = Template("""\
    if $a != $a or $b != $b:
        raise NonFinite(f"NaN operand in {$a} ^ {$b}")
    try:
        $v = power($a, $b)
    except OverflowError as exc:
        raise NonFinite(f"overflow in {$a} ^ {$b}") from exc
    except ValueError as exc:
        raise DomainError(f"invalid power {$a} ^ {$b}") from exc
""")

_RESULT = Template("""\
    if isfinite($v):
        return $v
    raise NonFinite(f"expression evaluated to {$v}")
""")


class _Emitter:
    """Source of one function of ``variables`` and the namespace it runs in."""

    def __init__(self, variables: tuple[str, ...]):
        self.params = {name: f"a{i}" for i, name in enumerate(variables)}
        self.floats: dict[str, str] = {}  # parameter -> its float() value
        self.namespace = dict(_HELPERS)
        self.constants = 0
        self.temps = 0
        self.lines = [f"def expression({', '.join(self.params.values())}):\n"]

    def bind(self, value: object) -> str:
        name = f"c{self.constants}"
        self.constants += 1
        self.namespace[name] = value
        return name

    def temp(self) -> str:
        name = f"v{self.temps}"
        self.temps += 1
        return name

    def emit(self, template: Template, **fields: str) -> str:
        v = self.temp()
        self.lines.append(template.substitute(fields, v=v))
        return v

    def node(self, node: ExprAst) -> str:
        """Emit the statements of ``node``; the name holding its value."""
        if isinstance(node, Num):
            return self.bind(node.value)
        if isinstance(node, Var):
            param = self.params.get(node.name)
            if param is None:
                message = self.bind(f"variable {node.name!r} is not bound")
                self.lines.append(_UNBOUND.substitute(message=message))
                return self.temp()  # never assigned: the raise comes first
            if param not in self.floats:
                self.floats[param] = self.emit(_FLOAT, a=param)
            return self.floats[param]
        if isinstance(node, Neg):
            return self.emit(_NEG, a=self.node(node.operand))
        if isinstance(node, Call):
            arity = FUNCTION_ARITY.get(node.func)
            if arity is None:
                raise UnknownFunction(f"unknown function {node.func!r}")
            if len(node.args) != arity:
                raise ExprSyntaxError(f"{node.func} takes {arity} argument(s), got {len(node.args)}", 0)
            args = [self.node(a) for a in node.args]
            if arity == 1:
                return self.emit(_UNARY_CALL, func=node.func, a=args[0])
            compare = "<" if node.func == "min" else ">"
            return self.emit(_PICK_CALL, func=node.func, compare=compare, a=args[0], b=args[1])
        left = self.node(node.left)
        right = self.node(node.right)
        if node.op == "/":
            return self.emit(_DIVISION, a=left, b=right)
        if node.op in ("+", "-", "*"):
            return self.emit(_ARITHMETIC, op=node.op, a=left, b=right)
        return self.emit(_POWER, a=left, b=right)


def _source(node: ExprAst, variables: tuple[str, ...]) -> tuple[str, dict]:
    """The source of ``expression(a0, a1, ...)``, which evaluates ``node``
    with ``variables`` bound to its parameters, and the namespace it needs."""
    emitter = _Emitter(variables)
    emitter.lines.append(_RESULT.substitute(v=emitter.node(node)))
    return "".join(emitter.lines), emitter.namespace


def _function(node: ExprAst, variables: tuple[str, ...]) -> Callable[..., float]:
    source, namespace = _source(node, variables)
    exec(compile(source, "<expression>", "exec"), namespace)
    return namespace["expression"]


def evaluate(node: ExprAst, bindings: Mapping[str, float]) -> float:
    """Evaluate an AST; raises instead of returning inf or NaN.  A variable
    missing from ``bindings`` raises ``UnboundVariable`` when it is reached.
    Before anything is evaluated, ASTs that only code builds are refused as
    ``parse`` refuses their text: a call to a name outside FUNCTION_ARITY
    with ``UnknownFunction``, a call with another number of arguments or an
    AST taller than MAX_DEPTH with ``ExprSyntaxError`` (offset 0)."""
    level = [node]
    for _ in range(MAX_DEPTH):  # descends without recursion
        level = [child for n in level for child in _children(n)]
    if level:
        raise _too_deep(0)
    return _function(node, tuple(bindings))(*bindings.values())


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


# --- single-occurrence chains ------------------------------------------------------
#
# A generator in which x occurs once is a chain f = s_n o ... o s_1 of
# one-argument steps, read off the AST from the root along the one path that
# holds x.  Every subtree off that path has no variable and is folded once
# into the constant c of its step.  Each step computes what the compiled
# function computes for its node (u - c as u + (-c), which IEEE arithmetic
# rounds alike), and has an inverse, a derivative and a condition under
# which it is strictly monotone on an interval [a, b].


class _Step(NamedTuple):
    forward: Callable[[float, float], float]  # (u, c) -> s(u)
    inverse: Callable[[float, float, float], float]  # (v, c, a) -> u with s(u) = v, u >= a
    derivative: Callable[[float, float], float]  # (u, c) -> s'(u)
    monotone: Callable[[float, float, float], bool]  # (a, b, c) -> strictly monotone on [a, b]


def _always(a: float, b: float, c: float) -> bool:
    return True


def _nonzero_constant(a: float, b: float, c: float) -> bool:
    return c != 0.0


_STEPS = {
    "add": _Step(lambda u, c: u + c, lambda v, c, a: v - c, lambda u, c: 1.0, _always),
    "rsub": _Step(lambda u, c: c - u, lambda v, c, a: c - v, lambda u, c: -1.0, _always),
    "mul": _Step(lambda u, c: u * c, lambda v, c, a: v / c, lambda u, c: c, _nonzero_constant),
    "div": _Step(lambda u, c: u / c, lambda v, c, a: v * c, lambda u, c: 1.0 / c, _nonzero_constant),
    "rdiv": _Step(
        lambda u, c: c / u,
        lambda v, c, a: c / v,
        lambda u, c: -c / (u * u),
        lambda a, b, c: c != 0.0 and (a > 0.0 or b < 0.0),
    ),
    "pow": _Step(
        math.pow,
        lambda v, c, a: math.pow(v, 1.0 / c),
        lambda u, c: c * math.pow(u, c - 1.0),
        lambda a, b, c: a > 0.0 and c != 0.0,
    ),
    "rpow": _Step(
        lambda u, c: math.pow(c, u),
        lambda v, c, a: math.log(v) / math.log(c),
        lambda u, c: math.log(c) * math.pow(c, u),
        lambda a, b, c: c > 0.0 and c != 1.0,
    ),
    "neg": _Step(lambda u, c: -u, lambda v, c, a: -v, lambda u, c: -1.0, _always),
    "exp": _Step(lambda u, c: math.exp(u), lambda v, c, a: math.log(v), lambda u, c: math.exp(u), _always),
    "log": _Step(
        lambda u, c: math.log(u), lambda v, c, a: math.exp(v), lambda u, c: 1.0 / u, lambda a, b, c: a > 0.0
    ),
    "sqrt": _Step(
        lambda u, c: math.sqrt(u),
        lambda v, c, a: v * v,
        lambda u, c: 0.5 / math.sqrt(u),
        lambda a, b, c: a >= 0.0,
    ),
    "sinh": _Step(lambda u, c: math.sinh(u), lambda v, c, a: math.asinh(v), lambda u, c: math.cosh(u), _always),
    "cosh": _Step(
        lambda u, c: math.cosh(u),
        lambda v, c, a: math.acosh(v) if a >= 0.0 else -math.acosh(v),
        lambda u, c: math.sinh(u),
        lambda a, b, c: a >= 0.0 or b <= 0.0,
    ),
}

#: (left operand holds x, right operand holds x) -> step kind, per operator.
_BINARY_STEPS = {
    "+": ("add", "add"),
    "-": ("add", "rsub"),
    "*": ("mul", "mul"),
    "/": ("div", "rdiv"),
    "^": ("pow", "rpow"),
}

# A step of a chain: its kind and its constant (0.0 where it has none).
_Link = tuple[str, float]


def _scaling(kind: str, c: float) -> bool:
    """Whether the step is u -> a u with a != 0: -u, * c or / c with c != 0."""
    return kind == "neg" or (kind in ("mul", "div") and c != 0.0)


def _affine(kind: str, c: float) -> bool:
    """Whether the step is u -> a u + b with a != 0: a scaling, + c or c - u."""
    return kind in ("add", "rsub") or _scaling(kind, c)


def _order_ends(links: tuple[_Link, ...]) -> tuple[float, float] | None:
    """(p(0+), p(inf)) of the order operator p(u) = u f''(u)/f'(u) + 1 of
    the chain f, for the shapes that make p monotone on (0, inf); None for
    any other chain.  Affine steps are + c, c - u, -u, * c and / c with
    c != 0, which leave p unchanged:

    * at most one power-like first step (^ c or c / x with c != 0, sqrt,
      log), then affine steps: a x^q + b (a log x + b at q = 0), p = q, so
      (q, q); q = 1 without a power-like step;
    * affine steps, then exp (or b^u with a constant b > 0, b != 1), then
      affine steps: a e^(k x + d) + b, p = k u + 1, so (1, inf) for k > 0
      and (1, -inf) for k < 0, k the inner slope times log b;
    * scalings (* c, / c, -u), then cosh or sinh, then affine steps:
      p = |k| u coth(|k| u) + 1 from 2, or |k| u tanh(|k| u) + 1 from 1,
      to inf.
    """
    kind, c = links[0] if links else ("", 0.0)
    if kind in ("sqrt", "log") or (kind in ("pow", "rdiv") and c != 0.0):
        q = {"pow": c, "rdiv": -1.0, "sqrt": 0.5, "log": 0.0}[kind]
        return (q, q) if all(_affine(*link) for link in links[1:]) else None
    i = next((i for i, link in enumerate(links) if not _affine(*link)), len(links))
    if i == len(links):
        return 1.0, 1.0
    if not all(_affine(*link) for link in links[i + 1 :]):
        return None
    kind, c = links[i]
    inner = links[:i]
    if kind == "exp" or (kind == "rpow" and c > 0.0 and c != 1.0):
        # Affine steps have constant slopes; multiply their signs.
        slope = math.prod(math.copysign(1.0, _STEPS[k].derivative(0.0, b)) for k, b in inner)
        return 1.0, math.copysign(math.inf, slope * (math.log(c) if kind == "rpow" else 1.0))
    if kind in ("cosh", "sinh") and all(_scaling(*link) for link in inner):
        return (2.0 if kind == "cosh" else 1.0), math.inf
    return None


def _fold(node: ExprAst) -> float:
    """The value of a subtree without variables, as the compiled function
    computes it; raises like it too."""
    return node.value if isinstance(node, Num) else _function(node, ())()


def _chain(node: ExprAst, variable: str) -> tuple[_Link, ...] | None:
    """The steps, innermost first, of ``node`` as a chain in ``variable``;
    None unless the variable occurs once, only under the chain's steps, and
    every constant folds to a finite number."""
    links = []
    try:
        while not isinstance(node, Var):
            if isinstance(node, Neg):
                links.append(("neg", 0.0))
                node = node.operand
            elif isinstance(node, Call) and node.func in _STEPS and len(node.args) == 1:
                links.append((node.func, 0.0))
                node = node.args[0]
            elif isinstance(node, BinOp):
                left_holds, right_holds = (variable in free_variables(n) for n in (node.left, node.right))
                if left_holds == right_holds:
                    return None
                kind = _BINARY_STEPS[node.op][right_holds]
                c = _fold(node.right if left_holds else node.left)
                if not math.isfinite(c):
                    return None
                links.append((kind, -c if node.op == "-" and left_holds else c))
                node = node.left if left_holds else node.right
            else:
                return None
    except MeanKitError:  # a constant that does not evaluate
        return None
    return tuple(reversed(links)) if node.name == variable else None


@dataclass(frozen=True)
class HullInverse:
    """The inverse of a chain on the image of a hull on which every step
    is strictly monotone (see ``hull_inverse``).

    ``images[k]`` is the interval (low, high) that the hull's ends span
    after the first k steps, so ``images[0]`` is the hull.
    """

    links: tuple[_Link, ...]
    images: tuple[tuple[float, float], ...]

    def __call__(self, v: float) -> float:
        """The point of the hull where the chain takes the value ``v``.

        Each step inverts a value clamped to its own image, so every step
        stays inside the interval it is monotone on, and the result inside
        the hull.
        """
        for (kind, c), (a, _), (low, high) in zip(
            reversed(self.links), reversed(self.images[:-1]), reversed(self.images[1:])
        ):
            v = _STEPS[kind].inverse(min(max(v, low), high), c, a)
        low, high = self.images[0]
        return min(max(v, low), high)

    def condition(self, y: float) -> float:
        """The largest relative condition number of inverting a prefix of
        the chain at y: max over k of max(|u_k(lo)|, |u_k(hi)|) / |y u_k'(y)|,
        with u_k the first k steps and u_k' from the chain rule (Higham,
        Accuracy and Stability of Numerical Algorithms, 2nd ed., ch. 1).  The
        last k gives the chain's own; an earlier one is larger where a step
        cancels what a former step added.  Infinite where y or u_k'(y) is 0,
        or u_k'(y) is not finite.
        """
        if y == 0.0:
            return math.inf
        u, slope, kappa = y, 1.0, 0.0
        for (kind, c), (low, high) in zip(self.links, self.images[1:]):
            step = _STEPS[kind]
            slope *= step.derivative(u, c)
            u = step.forward(u, c)
            if not 0.0 < abs(slope) < math.inf:
                return math.inf
            # Divided one factor at a time: y u_k'(y) alone may overflow.
            kappa = max(kappa, max(abs(low), abs(high)) / abs(slope) / abs(y))
        return kappa


def _hull_inverse(links: tuple[_Link, ...], lo: float, hi: float) -> HullInverse | None:
    """The chain's inverse on [lo, hi] when the images of the ends, carried
    step by step, are finite and each step's condition holds on the
    interval they span; None otherwise.  Raises what a step raises
    (OverflowError, ValueError, ZeroDivisionError)."""
    images = [(lo, hi)]
    for kind, c in links:
        step = _STEPS[kind]
        a, b = images[-1]
        if not step.monotone(a, b, c):
            return None
        fa, fb = step.forward(a, c), step.forward(b, c)
        if not (math.isfinite(fa) and math.isfinite(fb)):
            return None
        images.append((fa, fb) if fa <= fb else (fb, fa))
    return HullInverse(links, tuple(images))


# --- one-variable function handle -------------------------------------------------


@dataclass(frozen=True)
class ScalarFunction:
    """One-variable function with optional analytic first/second derivatives.

    Only the catalog constructors set ``deriv1`` and ``deriv2``; without
    them ``derivative`` takes central differences (``numeric_derivative``),
    as it does for every function built from expression text, whose name is
    that text.

    ``hull_inverse`` is the one inverse promise, and it holds only on a
    given hull: ``hull_inverse(lo, hi)`` returns None, or an inverse of
    ``fn`` on the image of [lo, hi] that certifies ``fn`` strictly monotone
    there.  ``classic_means.closed_form_mean`` reads it, for
    ``quasiarithmetic_mean`` and for the means of difference kernels;
    without it, the qa mean probes the direction on a grid and bisects.
    The catalog constructors set it to their textbook inverse on every hull
    inside the catalog domain (``_inverse_on``), so a copy on a wider
    domain (``dataclasses.replace``) is trusted no farther.
    ``scalar_from_expression``, and ``kernel_from_expression`` on the
    generator of a difference it recognises, set it for text in which x
    occurs once under the chain's steps (+, -, *, / and ^ with a constant
    side, negation, exp, log, sqrt, sinh, cosh): a ``HullInverse``, which
    also carries the condition of the inversion.

    ``order_ends`` (p(0+), p(inf)) declares the order operator p(u) =
    u f''(u)/f'(u) + 1 of fn on the part of the catalog domain inside
    (0, inf): p is monotone there, between those ends.  p does not change
    under fn -> a fn + b with a != 0, and the declaration describes fn on
    (0, inf), so it holds on every domain a copy is given; its consumers
    see only positive entries.  Equal ends q promise p = q, that is fn =
    a x^q + b (a log x + b at q = 0): the quasiarithmetic mean of fn is the
    power mean P_q, a homogeneous mean (``local_power_order`` returns q).
    Unequal ends promise a monotone p: the quasiarithmetic mean at scale t,
    M(t x)/t, is the mean of u -> fn(t u), whose f''/f' is (p(t u) - 1)/u,
    so by the comparison theorem for quasiarithmetic means (Mikusinski,
    Studia Math. 10, 1948) it is monotone in t.  A finite p(0+) = q makes
    f' regularly varying at 0+ with index q - 1, so on a kernel domain that
    starts at 0 the scale profile of the difference kernel of fn is
    (r^q - 1)/q, log r at q = 0 (``homogenization_profile``).  power:p
    declares (p, p) (p finite), log (0, 0), exp (1, inf), cosh (2, inf),
    the identity (1, 1), and shifted_power:q,c, whose p(u) = (q - 1)
    u/(u + c) + 1, declares (q, q) at c = 0 or q = 1, (1, q) for c > 0 and
    (+-inf, q), the sign of q - 1, for c < 0.  ``scalar_from_expression``,
    and ``kernel_from_expression`` on the generator of a difference,
    declare the ends of the chains ``_order_ends`` accepts.
    """

    name: str
    fn: Callable[[float], float]
    domain: IntervalDomain
    deriv1: Callable[[float], float] | None = None
    deriv2: Callable[[float], float] | None = None
    hull_inverse: Callable[[float, float], Callable[[float], float] | None] | None = None
    order_ends: tuple[float, float] | None = None

    def __call__(self, x: float) -> float:
        return self.fn(x)

    def derivative(self, x: float, order: int = 1) -> float:
        if order == 1 and self.deriv1 is not None:
            return self.deriv1(x)
        if order == 2 and self.deriv2 is not None:
            return self.deriv2(x)
        return numeric_derivative(self.fn, x, order, self.domain)


# Functions kept by the memo.  Compiling one (an exec of its source) costs
# more than a short CLI call spends evaluating it, so a process that runs many
# calls compiles each distinct spec once.
_MEMO_SIZE = 256


class _Compiled(NamedTuple):
    """A compiled function and what its parse shows of its shape."""

    fn: Callable[..., float]
    #: A function of x in which x occurs once: its ``hull_inverse``.
    hull_inverse: Callable[[float, float], HullInverse | None] | None = None
    #: A chain whose order operator is monotone: its ends (``_order_ends``).
    order_ends: tuple[float, float] | None = None
    #: A kernel A(x) - A(y): A compiled as a function of x, and its text.
    difference: tuple["_Compiled", str] | None = None
    #: A kernel sign(x - y).
    sign: bool = False


#: The kernel whose structure is ``Sign``.
_SIGN = Call("sign", (BinOp("-", Var("x"), Var("y")),))


def _renamed(node: ExprAst, old: str, new: str) -> ExprAst:
    """``node`` with every variable ``old`` renamed to ``new``."""
    if isinstance(node, Var):
        return Var(new) if node.name == old else node
    if isinstance(node, Neg):
        return Neg(_renamed(node.operand, old, new))
    if isinstance(node, BinOp):
        return BinOp(node.op, _renamed(node.left, old, new), _renamed(node.right, old, new))
    if isinstance(node, Call):
        return Call(node.func, tuple(_renamed(a, old, new) for a in node.args))
    return node


def _compiled(ast: ExprAst, variables: tuple[str, ...]) -> _Compiled:
    fn = _function(ast, variables)
    if variables == ("x",):
        links = _chain(ast, "x")
        if links is None:
            return _Compiled(fn)
        return _Compiled(fn, functools.partial(_hull_inverse, links), order_ends=_order_ends(links))
    if ast == _SIGN:
        return _Compiled(fn, sign=True)
    if (
        isinstance(ast, BinOp)
        and ast.op == "-"
        and free_variables(ast.left) == {"x"}
        and ast.right == _renamed(ast.left, "x", "y")
    ):
        return _Compiled(fn, difference=(_compiled(ast.left, ("x",)), to_source(ast.left)))
    return _Compiled(fn)


@functools.lru_cache(maxsize=_MEMO_SIZE)
def _compile(text: str, variables: tuple[str, ...]) -> _Compiled:
    """Parse ``text`` into a function of ``variables`` (("x",) or ("x",
    "y")), passed positionally, with what the parse shows of its shape (see
    ``_Compiled``).  Free variables outside ``variables`` are rejected."""
    ast = parse(text)
    extra = free_variables(ast) - set(variables)
    if extra:
        raise UnboundVariable(f"unexpected free variables {sorted(extra)} in {text!r}")
    return _compiled(ast, variables)


def _scalar(name: str, compiled: _Compiled, domain: IntervalDomain) -> ScalarFunction:
    """The compiled function of x on ``domain`` with the promises its chain
    gives."""
    return ScalarFunction(
        name, compiled.fn, domain, hull_inverse=compiled.hull_inverse, order_ends=compiled.order_ends
    )


def scalar_from_expression(source: str, domain: IntervalDomain) -> ScalarFunction:
    """Build a function of x, named by its text, from expression text; a
    chain in x also gets its ``hull_inverse``, and its ``order_ends`` when
    ``_order_ends`` accepts its shape."""
    return _scalar(source, _compile(source, ("x",)), domain)


# --- two-variable kernel handle -----------------------------------------------------


@dataclass(frozen=True)
class Difference:
    """Difference structure: ``fn(x, y) == f.fn(x) - f.fn(y)``, bit for bit,
    wherever that difference is finite.  Where f raises at x or y, or the
    difference is not finite, ``fn`` may raise instead (an expression
    kernel raises ``NonFinite`` on an infinite result), so a consumer of f
    calls ``fn`` there.  ``difference_kernel`` declares it, and so does
    ``kernel_from_expression`` for text A - B with B the A of x renamed
    to y."""

    f: ScalarFunction


@dataclass(frozen=True)
class Ratio:
    """Ratio structure: ``fn(x, y) == h(x / y)`` for every (x, y), bit for
    bit.  ``order`` q, when set, also promises that in exact arithmetic
    ``fn(x, y) == y^-q (g_q(x) - g_q(y))`` with g_q the Box-Cox map
    (x^q - 1)/q (log x at q = 0), so every sign-change mean and the
    deviation mean are the power mean P_q.  ``ratio_kernel`` declares it
    without an order, ``homogenize.ratio_kernel_from_profile`` with the
    order of a closed-form scale profile."""

    h: Callable[[float], float]
    order: float | None = None


@dataclass(frozen=True)
class Sign:
    """Sign structure: ``fn(x, y) == float(sign(x - y))`` for every (x, y),
    bit for bit, so the sign-change means are the weighted lower and upper
    medians.  ``sign_kernel`` declares it, and so does the expression
    sign(x - y) itself; sign(A(x) - A(y)) with another A does not, since it
    is not sign(x - y) where A is flat in floats."""


@dataclass(frozen=True)
class Kernel2:
    """Two-variable kernel K(x, y) with optional analytic partials.

    ``structure``, when set, is a ``Difference``, ``Ratio`` or ``Sign``
    promise about the values of ``fn``, so solvers may use it instead of
    calling ``fn``.  Expression kernels declare the ``Difference`` or
    ``Sign`` their parse shows (see ``kernel_from_expression``) and leave it
    None otherwise; ``normalize_kernel`` leaves it None, and a
    ``dataclasses.replace`` that gives ``fn`` other values must drop it.  A
    kernel built from expression text keeps that text only as its default
    ``name``.

    Only the operations of ``verify._preset`` set ``deriv1``;
    ``difference_kernel`` and ``ratio_kernel`` set ``deriv2``, the diagonal
    slope that ``normalize_kernel`` reads.
    """

    name: str
    fn: Callable[[float, float], float]
    domain_x: IntervalDomain
    domain_y: IntervalDomain
    deriv1: Callable[[float, float], float] | None = None
    deriv2: Callable[[float, float], float] | None = None
    structure: Difference | Ratio | Sign | None = None

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

    def with_domains(self, domain: IntervalDomain) -> "Kernel2":
        """The same kernel with ``domain`` for both arguments."""
        return replace(self, domain_x=domain, domain_y=domain)


def kernel_from_expression(
    source: str,
    domain_x: IntervalDomain,
    domain_y: IntervalDomain | None = None,
    *,
    name: str | None = None,
) -> Kernel2:
    """Build a kernel in variables (x, y) from expression text, named by
    ``name`` or else by its text.

    Text A - B, where A has only x free and B is A with x renamed to y,
    declares ``Difference(f)`` with f the function A of x on ``domain_x``,
    named by A's canonical text, with its ``hull_inverse`` and
    ``order_ends`` as ``scalar_from_expression`` sets them; the text
    sign(x - y) declares ``Sign``.  ``fn`` is the compiled function of the
    whole text either way.
    """
    compiled = _compile(source, ("x", "y"))
    structure = Sign() if compiled.sign else None
    if compiled.difference is not None:
        part, text = compiled.difference
        structure = Difference(_scalar(text, part, domain_x))
    return Kernel2(name or source, compiled.fn, domain_x, domain_y or domain_x, structure=structure)


# --- built-in catalog -----------------------------------------------------------------
#
# Catalog generators are stored free of cancellation (Higham, Accuracy and
# Stability of Numerical Algorithms, 2nd ed., ch. 1): cosh as cosh - 1 =
# 2 sinh(x/2)^2, which stays accurate near 0 where cosh(x) == 1.0 in floats.
# Quasiarithmetic and difference-kernel means do not change under
# f -> a f + b; the derivatives are those of the textbook form.  exp stays
# exp: expm1 would keep e^x only to an absolute 1.1e-16 and lose the digits
# of qa(exp) on entries below about -20.  Every stored form and inverse
# raises instead of returning a non-finite value, and each inverse is
# promised only inside the catalog domain (``_inverse_on``).


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


def _inverse_on(
    domain: IntervalDomain, inverse: Callable[[float], float]
) -> Callable[[float, float], Callable[[float], float] | None]:
    """A catalog ``hull_inverse``: ``inverse`` on every hull [lo, hi]
    inside ``domain``, None on any other."""
    low, high = domain.lo, domain.hi
    return lambda lo, hi: inverse if low < lo and hi < high else None


def power_generator(p: float) -> ScalarFunction:
    """x -> x^p on the positive half-line; p = 0 selects the logarithm."""
    dom = positive_reals()
    if p == 0.0:
        return ScalarFunction(
            "power(0)",
            _log,
            dom,
            deriv1=lambda x: 1.0 / x,
            deriv2=lambda x: -1.0 / (x * x),
            hull_inverse=_inverse_on(dom, _exp),
            order_ends=(0.0, 0.0),
        )
    return ScalarFunction(
        f"power({p:g})",
        lambda x: _pow(x, p),
        dom,
        deriv1=lambda x: p * _pow(x, p - 1.0),
        deriv2=lambda x: p * (p - 1.0) * _pow(x, p - 2.0),
        hull_inverse=_inverse_on(dom, lambda v: _pow(v, 1.0 / p)),
        order_ends=(float(p), float(p)) if math.isfinite(p) else None,
    )


def log_generator() -> ScalarFunction:
    return power_generator(0.0)


def exp_generator() -> ScalarFunction:
    dom = all_reals()
    return ScalarFunction(
        "exp",
        _exp,
        dom,
        deriv1=_exp,
        deriv2=_exp,
        hull_inverse=_inverse_on(dom, _log),
        order_ends=(1.0, math.inf),
    )


def cosh_generator() -> ScalarFunction:
    """cosh on the positive half-line, where it is strictly increasing,
    stored as cosh(x) - 1 = 2 sinh(x/2)^2."""
    dom = positive_reals()
    return ScalarFunction(
        "cosh",
        _cosh_minus_one,
        dom,
        deriv1=math.sinh,
        deriv2=math.cosh,
        hull_inverse=_inverse_on(dom, lambda v: 2.0 * math.asinh(math.sqrt(0.5 * v))),
        order_ends=(2.0, math.inf),
    )


def shifted_power_generator(q: float, c: float) -> ScalarFunction:
    """x -> (x + c)^q (logarithm when q = 0) on (-c, inf), whose order
    operator p(u) = (q - 1) u/(u + c) + 1 runs from its value at the lower
    end of the part of the domain inside (0, inf) to q."""
    dom = IntervalDomain(-c, math.inf)
    first = q if c == 0.0 or q == 1.0 else 1.0 if c > 0.0 else math.copysign(math.inf, q - 1.0)
    ends = (float(first), float(q))
    if q == 0.0:
        return ScalarFunction(
            f"shifted_power(0,{c:g})",
            lambda x: _log(x + c),
            dom,
            deriv1=lambda x: 1.0 / (x + c),
            deriv2=lambda x: -1.0 / ((x + c) * (x + c)),
            hull_inverse=_inverse_on(dom, lambda v: _exp(v) - c),
            order_ends=ends,
        )
    return ScalarFunction(
        f"shifted_power({q:g},{c:g})",
        lambda x: _pow(x + c, q),
        dom,
        deriv1=lambda x: q * _pow(x + c, q - 1.0),
        deriv2=lambda x: q * (q - 1.0) * _pow(x + c, q - 2.0),
        hull_inverse=_inverse_on(dom, lambda v: _pow(v, 1.0 / q) - c),
        order_ends=ends,
    )


def sign_kernel() -> Kernel2:
    """K(x, y) = sign(x - y); generates the weighted lower/upper medians."""
    return Kernel2("sign_dev", lambda x, y: float(sign(x - y)), all_reals(), all_reals(), structure=Sign())


def difference_kernel(f: ScalarFunction, domain: IntervalDomain | None = None) -> Kernel2:
    """K(x, y) = f(x) - f(y) for a strictly increasing f."""
    dom = domain or f.domain
    d2 = (lambda x, y: -f.deriv1(y)) if f.deriv1 is not None else None
    return Kernel2(
        f"diff_gen({f.name})", lambda x, y: f.fn(x) - f.fn(y), dom, dom, deriv2=d2, structure=Difference(f)
    )


def ratio_kernel(f: ScalarFunction) -> Kernel2:
    """K(x, y) = f(x / y) on the positive quadrant; homogeneous of degree 0.

    The catalog log declares ``Ratio(log, 0.0)``: log(x / y) = log x - log y,
    so every mean is the geometric mean.  No other f gets an order.
    """
    dom = positive_reals()
    d2 = (lambda x, y: -f.deriv1(x / y) * x / (y * y)) if f.deriv1 is not None else None
    structure = Ratio(f.fn, 0.0 if f.fn is _log else None)
    return Kernel2(f"ratio_dev({f.name})", lambda x, y: f.fn(x / y), dom, dom, deriv2=d2, structure=structure)


def arithmetic_kernel() -> Kernel2:
    """K(x, y) = x - y on the reals (already normalized)."""
    dom = all_reals()
    f = ScalarFunction(
        "identity",
        lambda x: x,
        dom,
        deriv1=lambda x: 1.0,
        deriv2=lambda x: 0.0,
        hull_inverse=_inverse_on(dom, lambda v: v),
        order_ends=(1.0, 1.0),
    )
    return difference_kernel(f)
