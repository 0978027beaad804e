"""Expression language, function handles, and symbolic differentiation.

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
its derivatives (f' and f'', or dK/dx and dK/dy) are the ASTs ``_derivative``
makes of its AST, compiled on first use.  When x occurs once in a
generator's text, the parse also unwinds the AST into a ``Chain`` of
invertible steps, which gives the handle the inverse of its core, and for
the shapes ``_order_ends`` accepts its ``order_ends``.  Every catalog
generator is such a chain (``catalog_generator``).  A kernel's parse shows
its structure: text A - B, where A has only x free and B is A with x
renamed to y, declares ``Difference`` of A as a generator, and sign(x - y)
declares ``Sign``.
Compiled functions, their derivatives, chains and structures are memoized
by text (or AST) and variables.  ``evaluate`` compiles its AST afresh on
each call and raises ``UnboundVariable`` only when evaluation reaches a name
missing from its bindings.  Text nested deeper than ``MAX_DEPTH``, and an
AST handed to ``evaluate`` taller than it, raise ``ExprSyntaxError``.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, replace
from string import Template
from typing import Callable, Mapping, NamedTuple, Union

from .domain import IntervalDomain, all_reals, positive_reals, sign
from .errors import (
    DomainError,
    ExprSyntaxError,
    MeanKitError,
    NonFinite,
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


def _sign(v: float) -> float:
    if v != v:
        raise NonFinite(f"NaN operand in sign({v})")
    return float(sign(v))


# Unary functions; an OverflowError from any of them becomes NonFinite, and
# log and sqrt refuse arguments outside their domain first (``_GUARDS``).
_UNARY: dict[str, Callable[[float], float]] = {
    "exp": math.exp,
    "log": math.log,
    "cosh": math.cosh,
    "sinh": math.sinh,
    "sqrt": math.sqrt,
    "abs": abs,
    "sign": _sign,
}

#: Arity of every function the emitter compiles: the language's, cosh1 and dsign (sign').
_ARITY = {**FUNCTION_ARITY, "cosh1": 1, "dsign": 1}

# The global namespace of every generated function, besides its literals.
_HELPERS = {
    **_UNARY,
    "dsign": lambda v: 0.0,
    "power": math.pow,
    "isfinite": math.isfinite,
    "inf": math.inf,
    "zero": 0.0,
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

#: Function -> (comparison with 0 that puts its argument outside its domain,
#: DomainError message).
_GUARDS = {"log": ("<=", "log of nonpositive value"), "sqrt": ("<", "sqrt of negative value"),
           "dsign": ("==", "sign jumps, so it has no derivative, at")}

_GUARDED_CALL = Template("""\
    if $a $outside zero:
        raise DomainError(f"$message {$a}")
    $v = $func($a)
""")

# cosh1(a) = cosh(a) - 1 = 2 sinh(a/2)^2, whose doubling can overflow to inf
# without raising where sinh and the square still fit.
_COSH1_CALL = Template("""\
    try:
        $v = 2.0 * sinh(0.5 * $a) ** 2
    except OverflowError as exc:
        raise NonFinite(f"cosh({$a}) overflowed") from exc
    if $v == inf:
        raise NonFinite(f"cosh({$a}) overflowed")
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
    """Source of one function of ``variables`` and its namespace; a shared node is computed once."""

    def __init__(self, variables: tuple[str, ...]):
        self.params = {name: f"a{i}" for i, name in enumerate(variables)}
        self.emitted: dict[object, str] = {}  # a variable's name, or a node's id -> the name of its value
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
        """Emit the statements of ``node``, once; the name holding its value."""
        key = node.name if isinstance(node, Var) else id(node)
        if key not in self.emitted:
            self.emitted[key] = self.fresh(node)
        return self.emitted[key]

    def fresh(self, node: ExprAst) -> str:
        if isinstance(node, Num):
            return self.bind(node.value)
        if isinstance(node, Var):
            param = self.params.get(node.name)
            if param is None:
                message = self.bind(f"variable {node.name!r} is not bound")
                self.lines.append(_UNBOUND.substitute(message=message))
                return self.temp()  # never assigned: the raise comes first
            return self.emit(_FLOAT, a=param)
        if isinstance(node, Neg):
            return self.emit(_NEG, a=self.node(node.operand))
        if isinstance(node, Call):
            arity = _ARITY.get(node.func)
            if arity is None:
                raise UnknownFunction(f"unknown function {node.func!r}")
            if len(node.args) != arity:
                raise ExprSyntaxError(f"{node.func} takes {arity} argument(s), got {len(node.args)}", 0)
            args = [self.node(a) for a in node.args]
            if node.func == "cosh1":
                return self.emit(_COSH1_CALL, a=args[0])
            if node.func in _GUARDS:
                outside, message = _GUARDS[node.func]
                return self.emit(_GUARDED_CALL, func=node.func, outside=outside, message=message, a=args[0])
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


def _source(node: ExprAst, variables: tuple[str, ...], finite: bool = True) -> tuple[str, dict]:
    """The source of ``expression(a0, a1, ...)``, which evaluates ``node``
    with ``variables`` bound to its parameters, and the namespace it needs;
    unless ``finite``, it returns an infinite or NaN result."""
    emitter = _Emitter(variables)
    value = emitter.node(node)
    emitter.lines.append(_RESULT.substitute(v=value) if finite else f"    return {value}\n")
    return "".join(emitter.lines), emitter.namespace


def _function(node: ExprAst, variables: tuple[str, ...], finite: bool = True) -> Callable[..., float]:
    source, namespace = _source(node, variables, finite)
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
        for n in level:
            if isinstance(n, Call) and n.func not in FUNCTION_ARITY:
                raise UnknownFunction(f"unknown function {n.func!r}")
        level = [child for n in level for child in _children(n)]
    if level:
        raise _too_deep(0)
    return _function(node, tuple(bindings))(*bindings.values())


# --- symbolic differentiation --------------------------------------------------------
#
# ``_derivative`` applies the rules of calculus to an AST (Griewank & Walther,
# Evaluating Derivatives, 2nd ed., SIAM 2008); the emitter compiles the result,
# so a derivative raises the typed errors of its code.  ``_op`` folds literals
# and drops identities: x^p gets f' = p x^(p - 1) and f'' = (p (p - 1))
# x^(p - 2), float for float.  Kinks take the symmetric derivative, the limit
# of central differences: abs'(u) = sign(u), min and max at a tie give
# (a' + b')/2, and sign' = dsign is 0 off 0 and raises DomainError at 0.

_ZERO, _HALF, _ONE = Num(0.0), Num(0.5), Num(1.0)
_FOLD = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv, "^": math.pow}
_OUTER = {"sinh": "cosh", "cosh": "sinh", "cosh1": "sinh", "abs": "sign", "sign": "dsign", "dsign": "dsign"}


def _op(op: str, a: ExprAst, b: ExprAst) -> ExprAst:
    """a op b, two literals folded where the compiled function gives a number; no
    0 + u, u - 0, 0 * u, 1 * u, u / 1, u ^ 1; 0 - u is -u, and a (b u) is (a b) u."""
    if isinstance(a, Num) and isinstance(b, Num):
        try:
            value = _FOLD[op](a.value, b.value)
        except (ArithmeticError, ValueError):  # the compiled function raises
            value = math.nan
        if value == value:
            return Num(value)
    if op == "*" and isinstance(a, Num) and isinstance(b, BinOp) and b.op == "*" and isinstance(b.left, Num):
        return _op("*", _op("*", a, b.left), b.right)
    if op == "*" and _ZERO in (a, b) or op == "/" and a == _ZERO:
        return _ZERO
    if op in "+-" and b == _ZERO or op in "*/^" and b == _ONE:
        return a
    if op == "+" and a == _ZERO or op == "*" and a == _ONE:
        return b
    if op == "-" and a == _ZERO:
        return b.operand if isinstance(b, Neg) else Neg(b)
    return BinOp(op, a, b)


def _derivative(node: ExprAst, variable: str, memo: dict[int, tuple] | None = None) -> ExprAst:
    """The AST of d node / d ``variable``, sharing the subtrees of ``node`` (exp(u)' is the node exp(u)
    times u'); ``memo`` maps the id of each node differentiated so far to the node and its derivative."""
    memo = {} if memo is None else memo
    if id(node) in memo:
        return memo[id(node)][1]
    d = functools.partial(_derivative, variable=variable, memo=memo)
    if isinstance(node, (Num, Var)):
        result = _ONE if node == Var(variable) else _ZERO
    elif isinstance(node, Neg):
        result = _op("-", _ZERO, d(node.operand))
    elif isinstance(node, BinOp):
        u, v = node.left, node.right
        du, dv = d(u), d(v)
        if node.op in "+-":
            result = _op(node.op, du, dv)
        elif node.op == "*":
            result = _op("+", _op("*", du, v), _op("*", u, dv))
        elif node.op == "/":
            quotient = _op("-", _op("*", du, v), _op("*", u, dv))
            result = _op("/", du, v) if dv == _ZERO else _op("/", quotient, _op("*", v, v))
        elif dv == _ZERO:  # c u^(c - 1) u'
            result = _op("*", _op("*", v, _op("^", u, _op("-", v, _ONE))), du)
        else:  # u^v (v' log u + v u' / u); log(c) c^v v' for a constant base c
            log = _op("*", dv, Call("log", (u,)))
            result = _op("*", node, log if du == _ZERO else _op("+", log, _op("/", _op("*", v, du), u)))
    elif node.func in ("min", "max"):  # max: a' (1 + s)/2 + b' (1 - s)/2 with s = sign(a - b)
        a, b = node.args
        s = Call("sign", (_op("-", a, b) if node.func == "max" else _op("-", b, a),))
        weights = _op("*", _op("+", _ONE, s), _HALF), _op("*", _op("-", _ONE, s), _HALF)
        result = _op("+", _op("*", d(a), weights[0]), _op("*", d(b), weights[1]))
    else:
        (u,) = node.args
        outer = {"exp": lambda: node, "log": lambda: _op("/", _ONE, u), "sqrt": lambda: _op("/", _HALF, node)}
        result = _op("*", outer.get(node.func, lambda: Call(_OUTER[node.func], (u,)))(), d(u))
    memo[id(node)] = (node, result)
    return result


# --- single-occurrence chains ------------------------------------------------------
#
# A generator in which x occurs once is a chain f = s_n o ... o s_1 of
# one-argument steps, read off the AST from the root along the one path that
# holds x.  Every subtree off that path has no variable and is folded once
# into the constant c of its step.  Each step computes what the compiled
# function computes for its node (u - c as u + (-c), which IEEE arithmetic
# rounds alike), and has an inverse, a derivative and a condition under
# which it is strictly monotone on an interval [a, b].  cosh(u) is read as
# cosh1(u) + 1, cosh1(u) = cosh(u) - 1 = 2 sinh(u/2)^2, which keeps its
# digits where cosh(u) rounds to 1 (Higham, Accuracy and Stability of
# Numerical Algorithms, 2nd ed., ch. 1).


def _acosh1(v: float) -> float:
    """The u >= 0 with cosh(u) - 1 = v >= 0 to 1 ulp, each band in the form
    with the least error on 5,000 log-uniform v against 60-digit values:
    2 asinh(sqrt(v/2)) below 2 and from 2^1023 on (2 (1 + v) overflows),
    acosh(1 + v) below 2^28, then log(2 (1 + v))."""
    if v < 2.0 or v >= 2.0**1023:
        return 2.0 * math.asinh(math.sqrt(0.5 * v))
    return math.acosh(1.0 + v) if v < 2.0**28 else math.log(2.0 * (1.0 + v))


class _Step(NamedTuple):
    forward: Callable[[float, float], float]  # (u, c) -> s(u)
    inverse: Callable[[float, float, float], float]  # (v, c, a) -> u with s(u) = v, u >= a
    derivative: Callable[[float, float], float]  # (u, c) -> s'(u)
    scaled: Callable[[float, float], float]  # (u, c) -> u s'(u), finite wherever s(u) is
    monotone: Callable[[float, float, float], bool]  # (a, b, c) -> strictly monotone on [a, b]


_STEPS = {
    "add": _Step(lambda u, c: u + c, lambda v, c, a: v - c, lambda u, c: 1.0, lambda u, c: u, lambda a, b, c: True),
    "rsub": _Step(lambda u, c: c - u, lambda v, c, a: c - v, lambda u, c: -1.0, lambda u, c: -u, lambda a, b, c: True),
    "mul": _Step(lambda u, c: u * c, lambda v, c, a: v / c, lambda u, c: c, lambda u, c: u * c,
                 lambda a, b, c: c != 0.0),
    "div": _Step(lambda u, c: u / c, lambda v, c, a: v * c, lambda u, c: 1.0 / c, lambda u, c: u / c,
                 lambda a, b, c: c != 0.0),
    "rdiv": _Step(lambda u, c: c / u, lambda v, c, a: c / v, lambda u, c: -c / (u * u), lambda u, c: -c / u,
                  lambda a, b, c: c != 0.0 and (a > 0.0 or b < 0.0)),
    "pow": _Step(math.pow, lambda v, c, a: math.pow(v, 1.0 / c), lambda u, c: c * math.pow(u, c - 1.0),
                 lambda u, c: c * math.pow(u, c), lambda a, b, c: a > 0.0 and c != 0.0),
    "rpow": _Step(lambda u, c: math.pow(c, u), lambda v, c, a: math.log(v) / math.log(c),
                  lambda u, c: math.log(c) * math.pow(c, u), lambda u, c: u * math.log(c) * math.pow(c, u),
                  lambda a, b, c: c > 0.0 and c != 1.0),
    "neg": _Step(lambda u, c: -u, lambda v, c, a: -v, lambda u, c: -1.0, lambda u, c: -u, lambda a, b, c: True),
    "exp": _Step(lambda u, c: math.exp(u), lambda v, c, a: math.log(v), lambda u, c: math.exp(u),
                 lambda u, c: u * math.exp(u), lambda a, b, c: True),
    "log": _Step(lambda u, c: math.log(u), lambda v, c, a: math.exp(v), lambda u, c: 1.0 / u, lambda u, c: 1.0,
                 lambda a, b, c: a > 0.0),
    "sqrt": _Step(lambda u, c: math.sqrt(u), lambda v, c, a: v * v, lambda u, c: 0.5 / math.sqrt(u),
                  lambda u, c: 0.5 * math.sqrt(u), lambda a, b, c: a >= 0.0),
    "sinh": _Step(lambda u, c: math.sinh(u), lambda v, c, a: math.asinh(v), lambda u, c: math.cosh(u),
                  lambda u, c: u * math.cosh(u), lambda a, b, c: True),
    # The forward map as _COSH1_CALL computes it; the inverse takes the
    # branch of the sign of a (-0.0 + 0.0 is 0.0).
    "cosh1": _Step(lambda u, c: 2.0 * math.sinh(0.5 * u) ** 2,
                   lambda v, c, a: math.copysign(_acosh1(v), a + 0.0),
                   lambda u, c: math.sinh(u), lambda u, c: u * math.sinh(u),
                   lambda a, b, c: a >= 0.0 or b <= 0.0),
}

#: Step -> its binary node's operator, and whether the constant is on the left.
_OPERATORS_OF = {"add": ("+", 0), "rsub": ("-", 1), "mul": ("*", 0), "div": ("/", 0), "rdiv": ("/", 1),
                 "pow": ("^", 0), "rpow": ("^", 1)}

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


def _slope_sign(links: tuple[_Link, ...]) -> float:
    """The sign of the constant slope of affine steps."""
    return math.prod(math.copysign(1.0, _STEPS[kind].derivative(0.0, c)) for kind, c in links)


def _power_order(kind: str, c: float) -> float | None:
    """q of a power-like step, u -> a u^q + b (a log u + b at q = 0): ^ c
    or c / u with c != 0, sqrt, log; None for any other step."""
    if kind in ("pow", "rdiv") and c != 0.0:
        return c if kind == "pow" else -1.0
    return {"sqrt": 0.5, "log": 0.0}.get(kind)


def _order_ends(links: tuple[_Link, ...]) -> tuple[float, float] | None:
    """(p(0+), p(inf)) of the order operator p(u) = u f''(u)/f'(u) + 1 of
    the chain f, on the part of (0, inf) where f is defined, for the shapes
    that make p monotone there; None for any other chain.  Affine steps (+ c,
    c - u, -u, * c and / c with c != 0) leave p unchanged:

    * affine steps alone: (1, 1); an optional + c, then a power-like step
      (``_power_order``), then affine steps: a (x + c)^q + b, whose p(u) =
      (q - 1) u/(u + c) + 1 runs to q from q at c = 0 or q = 1, 1 for
      c > 0, and +-inf, the sign of q - 1, for c < 0 (where u > -c);
    * affine steps, exp (or b^u, b > 0, b != 1), affine steps: a e^(k x +
      d) + b, p = k u + 1: (1, +-inf), the sign of k;
    * scalings, then cosh1 or sinh, then affine steps: p runs from 2 (cosh1)
      or 1 (sinh) to inf.
    """
    i = next((i for i, link in enumerate(links) if not _affine(*link)), len(links))
    if i == len(links):
        return 1.0, 1.0
    if not all(_affine(*link) for link in links[i + 1 :]):
        return None
    (kind, c), inner = links[i], links[:i]
    q = _power_order(kind, c)
    if q is not None and (not inner or (len(inner) == 1 and inner[0][0] == "add")):
        shift = inner[0][1] if inner else 0.0
        if shift == 0.0 or q == 1.0:
            return q, q
        return (1.0 if shift > 0.0 else math.copysign(math.inf, q - 1.0)), q
    if kind == "exp" or (kind == "rpow" and c > 0.0 and c != 1.0):
        return 1.0, math.copysign(math.inf, _slope_sign(inner) * (math.log(c) if kind == "rpow" else 1.0))
    if kind in ("cosh1", "sinh") and all(_scaling(*link) for link in inner):
        return (2.0 if kind == "cosh1" else 1.0), math.inf
    return None


def _fold(node: ExprAst) -> float:
    """The value of a subtree without variables, as the compiled function
    computes it; raises like it too."""
    return node.value if isinstance(node, Num) else _function(node, ())()


def _chain(node: ExprAst, variable: str, finite: bool = True) -> tuple[_Link, ...] | None:
    """The steps, innermost first, of ``node`` as a chain in ``variable``;
    None unless the variable occurs once, only under the chain's steps, and
    every constant folds to a number, finite if ``finite``; cosh(u) is cosh1(u) + 1."""
    links = []
    try:
        while not isinstance(node, Var):
            if isinstance(node, Neg):
                links.append(("neg", 0.0))
                node = node.operand
            elif isinstance(node, Call) and node.func == "cosh" and len(node.args) == 1:
                links += [("add", 1.0), ("cosh1", 0.0)]
                node = node.args[0]
            elif isinstance(node, Call) and node.func in _STEPS and len(node.args) == 1:
                links.append((node.func, 0.0))
                node = node.args[0]
            elif isinstance(node, BinOp):
                left_holds, right_holds = (variable in free_variables(n) for n in (node.left, node.right))
                if left_holds == right_holds:
                    return None
                kind = _BINARY_STEPS[node.op][right_holds]
                c = _fold(node.right if left_holds else node.left)
                if finite and not math.isfinite(c):
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
    is strictly monotone (see ``Chain.inverse``); ``images[k]`` is the
    interval (low, high) that the hull's ends span after the first k steps,
    so ``images[0]`` is the hull."""

    links: tuple[_Link, ...]
    images: tuple[tuple[float, float], ...]

    def __call__(self, v: float) -> float:
        """The point of the hull where the chain takes the value ``v``, each
        step inverting a value clamped to its own image."""
        for (kind, c), (a, _), (low, high) in zip(
            reversed(self.links), reversed(self.images[:-1]), reversed(self.images[1:])
        ):
            v = _STEPS[kind].inverse(min(max(v, low), high), c, a)
        low, high = self.images[0]
        return min(max(v, low), high)

    def condition(self, y: float) -> tuple[float, float]:
        """(kappa, own): the largest relative condition number of inverting
        a prefix of the chain at y, max over k of max(|u_k(lo)|, |u_k(hi)|)
        / |y u_k'(y)| with u_k the first k steps (Higham, Accuracy and
        Stability of Numerical Algorithms, 2nd ed., ch. 1), and the whole
        chain's, its last term; an earlier k is larger where a step cancels
        what a former step added.  y u_k'(y) is the first step's y s'(y),
        finite wherever s(y) is (c y^c), times the later slopes; an
        overflowing product makes its term 0.  (inf, NaN) where a product is
        0 or NaN."""
        u, kappa, own, product = y, 0.0, 0.0, None
        for (kind, c), (low, high) in zip(self.links, self.images[1:]):
            step = _STEPS[kind]
            product = step.scaled(u, c) if product is None else product * step.derivative(u, c)
            u = step.forward(u, c)
            if not 0.0 < abs(product):
                return math.inf, math.nan
            own = max(abs(low), abs(high)) / abs(product)
            kappa = max(kappa, own)
        return kappa, own


def _hull_inverse(links: tuple[_Link, ...], lo: float, hi: float) -> HullInverse | None:
    """The chain's inverse on [lo, hi] when the images of the ends, carried
    step by step, are finite and each step is monotone on the interval they
    span; None otherwise.  Raises what a step raises."""
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


@dataclass(frozen=True)
class Chain:
    """A generator f = s_n o ... o s_1 as its steps, innermost first.

    Its ``core`` drops the trailing affine steps, so f = a core + b with
    a != 0 (``rising``: a > 0), and the quasiarithmetic and difference-kernel
    means of f are the core's (Daroczy, Publ. Math. Debrecen 19, 1972).
    ``fn`` is the core compiled, or None where the core is the whole chain,
    which the generator's own ``fn`` computes.  cosh(x) has the core cosh1.
    """

    links: tuple[_Link, ...]
    core: tuple[_Link, ...]
    fn: Callable[[float], float] | None
    rising: bool
    order_ends: tuple[float, float] | None  # ``_order_ends``
    step: tuple[_Step, float] | None  # the step of a core of one step, and its constant

    def inverse(self, lo: float, hi: float) -> HullInverse | None:
        """The core's inverse on the image of [lo, hi] (``_hull_inverse``)."""
        return _hull_inverse(self.core, lo, hi)

    def mean(self, lo: float, hi: float, f_lo: float, f_hi: float, target: float, kappa_limit: float) -> float | None:
        """The point y of [lo, hi] where the core, whose values at lo and hi
        are ``f_lo`` and ``f_hi``, takes the value ``target``.  None where a
        step is not monotone on the hull, or where a prefix of the steps has
        kappa above ``kappa_limit`` and the core has not
        (``HullInverse.condition``): a bisection against the same rounded
        average shares the core's own kappa.  A core of one step is inverted
        directly, ungated.  Raises what a step raises."""
        if self.step is not None:
            step, c = self.step
            if not step.monotone(lo, hi, c):
                return None
            if f_lo > f_hi:
                f_lo, f_hi = f_hi, f_lo
            v = step.inverse(f_lo if target < f_lo else f_hi if target > f_hi else target, c, lo)
            return lo if v < lo else hi if v > hi else v
        if not self.core:
            return min(max(target, lo), hi)
        inverse = self.inverse(lo, hi)
        if inverse is None:
            return None
        y = min(max(inverse(target), lo), hi)
        kappa, own = inverse.condition(y)
        return y if kappa <= kappa_limit or own > kappa_limit else None


def _chain_of(links: tuple[_Link, ...]) -> Chain:
    """The ``Chain`` of ``links``, with its core compiled where it is not
    the whole chain."""
    k = len(links)
    while k and _affine(*links[k - 1]):
        k -= 1
    node = Var("x")
    for kind, c in links[:k]:
        op, constant_first = _OPERATORS_OF.get(kind, ("", 0))
        operands = (Num(c), node) if constant_first else (node, Num(c))
        node = BinOp(op, *operands) if op else Neg(node) if kind == "neg" else Call(kind, (node,))
    fn = _function(node, ("x",)) if k < len(links) else None
    one = (_STEPS[links[0][0]], links[0][1]) if k == 1 else None
    return Chain(links, links[:k], fn, _slope_sign(links[k:]) > 0.0, _order_ends(links), one)


# --- one-variable function handle -------------------------------------------------


@dataclass(frozen=True)
class ScalarFunction:
    """One-variable function with optional first and second derivatives.

    A generator built from an AST (text, every catalog spec) has f' and f''
    (``_derivative``); a handle without them raises ``DomainError``.

    ``chain`` is the one inverse promise: ``classic_means.closed_form_mean``
    evaluates its core and inverts it (``Chain.mean``) on hulls where every
    step is strictly monotone, for ``quasiarithmetic_mean`` and difference
    kernels, on any domain a copy is given (``dataclasses.replace``).
    Without it, the qa mean probes the direction on a grid and bisects.

    ``order_ends`` (p(0+), p(inf)) declares the order operator p(u) =
    u f''(u)/f'(u) + 1 of fn on the part of its chain's domain inside
    (0, inf): p is monotone there, between those ends (``_order_ends``).  p
    does not change under fn -> a fn + b with a != 0, and the declaration
    describes fn on (0, inf), so it holds on every domain a copy is given;
    its consumers see only positive entries.  Equal ends q promise fn =
    a x^q + b (a log x + b at q = 0): the quasiarithmetic mean of fn is the
    power mean P_q, a homogeneous mean (``local_power_order`` returns q).
    Unequal ends promise a monotone p: the quasiarithmetic mean at scale t,
    M(t x)/t, is the mean of u -> fn(t u), whose f''/f' is (p(t u) - 1)/u,
    so by the comparison theorem for quasiarithmetic means (Mikusinski,
    Studia Math. 10, 1948) it is monotone in t.  A finite p(0+) = q makes
    f' regularly varying at 0+ with index q - 1, so on a kernel domain that
    starts at 0 the scale profile of the difference kernel of fn is
    (r^q - 1)/q, log r at q = 0 (``homogenization_profile``).
    """

    name: str
    fn: Callable[[float], float]
    domain: IntervalDomain
    deriv1: Callable[[float], float] | None = None
    deriv2: Callable[[float], float] | None = None
    chain: Chain | None = None
    order_ends: tuple[float, float] | None = None

    def __call__(self, x: float) -> float:
        return self.fn(x)

    def derivative(self, x: float, order: int = 1) -> float:
        d = {1: self.deriv1, 2: self.deriv2}[order]
        if d is None:
            raise DomainError(f"{self.name} has no derivative of order {order}")
        return d(x)


# Functions kept by the memo.  Compiling one (an exec of its source) costs
# more than a short CLI call spends evaluating it, so a process that runs many
# calls compiles each distinct spec once.
_MEMO_SIZE = 256


class _Compiled(NamedTuple):
    """A compiled function, its derivatives, and what its parse shows."""

    fn: Callable[..., float]
    #: The partial in each variable, then for a function of x its f''.
    derivatives: tuple[Callable[..., float], ...]
    #: A function of x in which x occurs once: its ``Chain``.
    chain: Chain | None = None
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


@functools.lru_cache(maxsize=_MEMO_SIZE)
def _compiled(ast: ExprAst, variables: tuple[str, ...], finite: bool = True) -> _Compiled:
    """``ast`` compiled as a function of ``variables``, with its derivatives
    and what its shape shows, memoized by AST; unless ``finite``, the
    functions return inf and NaN, and a chain may hold infinite constants."""

    def lazy(*path: str) -> Callable[..., float]:
        # The derivative in the variables of path, compiled on its first call.
        compiled = []

        def derivative(*args: float) -> float:
            if not compiled:
                compiled.append(_function(functools.reduce(_derivative, path, ast), variables, finite))
            return compiled[0](*args)

        return derivative

    paths = [(v,) for v in variables] + ([("x", "x")] if variables == ("x",) else [])
    compiled = _Compiled(_function(ast, variables, finite), tuple(lazy(*path) for path in paths))
    if variables == ("x",):
        links = _chain(ast, "x", finite)
        return compiled if links is None else compiled._replace(chain=_chain_of(links))
    if ast == _SIGN:
        return compiled._replace(sign=True)
    if (
        isinstance(ast, BinOp)
        and ast.op == "-"
        and free_variables(ast.left) == {"x"}
        and ast.right == _renamed(ast.left, "x", "y")
    ):
        return compiled._replace(difference=(_compiled(ast.left, ("x",)), to_source(ast.left)))
    return compiled


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
    """The compiled function of x on ``domain`` with its derivatives and
    the promises its chain gives."""
    chain = compiled.chain
    ends = chain.order_ends if chain is not None else None
    return ScalarFunction(name, compiled.fn, domain, *compiled.derivatives, chain, ends)


def scalar_from_expression(source: str, domain: IntervalDomain) -> ScalarFunction:
    """Build a function of x, named by its text, from expression text, with
    f' and f''; a chain in x also gets its ``chain``, and its
    ``order_ends`` when ``_order_ends`` accepts its shape."""
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
    """Two-variable kernel K(x, y) with optional partials dK/dx and dK/dy.

    ``structure``, when set, is a ``Difference``, ``Ratio`` or ``Sign``
    promise about the values of ``fn``, so solvers may use it instead of
    calling ``fn``.  Expression kernels declare the ``Difference`` or
    ``Sign`` their parse shows (see ``kernel_from_expression``) and leave it
    None otherwise; ``normalize_kernel`` leaves it None, and a
    ``dataclasses.replace`` that gives ``fn`` other values must drop it.  A
    kernel built from expression text keeps that text only as its default
    ``name``.

    Expression kernels have both partials (``_derivative``), as have
    ``difference_kernel`` and ``ratio_kernel`` of an f with f'.
    ``partial1`` and ``partial2`` of a kernel built without them
    (``sign_kernel``, profile and normalized kernels) raise ``DomainError``.
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
        if self.deriv1 is None:
            raise DomainError(f"{self.name} has no partial derivative in x")
        return self.deriv1(x, y)

    def partial2(self, x: float, y: float) -> float:
        if self.deriv2 is None:
            raise DomainError(f"{self.name} has no partial derivative in y")
        return self.deriv2(x, y)

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
    named by A's canonical text, with its chain, derivatives and
    ``order_ends`` as ``scalar_from_expression`` sets them; the text
    sign(x - y) declares ``Sign``.  ``fn`` is the compiled function of the
    whole text either way, and the partials are those of its AST.
    """
    compiled = _compile(source, ("x", "y"))
    structure = Sign() if compiled.sign else None
    if compiled.difference is not None:
        part, text = compiled.difference
        structure = Difference(_scalar(text, part, domain_x))
    return Kernel2(name or source, compiled.fn, domain_x, domain_y or domain_x, *compiled.derivatives, structure)


# --- built-in catalog -----------------------------------------------------------------
#
# Every catalog generator is a chain built as an AST: power:p is x^p (log(x)
# at p = 0), shifted_power:q,c is (x + c)^q (log(x + c) at q = 0), and cosh is
# cosh1(x), the core of cosh(x).  exp stays exp: expm1 would keep e^x only to
# an absolute 1.1e-16 and lose the digits of qa(exp) below about -20.


def catalog_generator(name: str, *params: float) -> ScalarFunction:
    """The catalog generator ``name`` (``power`` p, ``log``, ``exp``,
    ``cosh``, ``shifted_power`` q, c) on its catalog domain, named by its
    label; KeyError for any other name.  An infinite parameter keeps IEEE
    values of f, f' and f'' where text raises (x^inf is 0, 1 or inf), and
    the chain that ``_chain`` refuses to text; power:+-inf has no order ends."""
    x, params = Var("x"), tuple(map(float, params))
    if name == "shifted_power":
        q, c = params
        base, domain, label = BinOp("+", x, Num(c)), IntervalDomain(-c, math.inf), f"shifted_power({q or 0.0:g},{c:g})"
    elif name in ("power", "log"):
        q = params[0] if name == "power" else 0.0
        base, domain, label = x, positive_reals(), f"power({q or 0.0:g})"
    else:
        ast = {"exp": Call("exp", (x,)), "cosh": Call("cosh1", (x,))}[name]
        return _scalar(name, _compiled(ast, ("x",)), positive_reals() if name == "cosh" else all_reals())
    ast = Call("log", (base,)) if q == 0.0 else BinOp("^", base, Num(q))
    f = _scalar(label, _compiled(ast, ("x",), all(map(math.isfinite, params))), domain)
    return f if math.isfinite(q) or base is not x else replace(f, order_ends=None)


def sign_kernel() -> Kernel2:
    """K(x, y) = sign(x - y); generates the weighted lower/upper medians."""
    return Kernel2("sign_dev", lambda x, y: float(sign(x - y)), all_reals(), all_reals(), structure=Sign())


def difference_kernel(f: ScalarFunction, domain: IntervalDomain | None = None) -> Kernel2:
    """K(x, y) = f(x) - f(y) for a strictly increasing f."""
    dom = domain or f.domain
    d1, d2 = (None, None) if f.deriv1 is None else ((lambda x, y: f.deriv1(x)), (lambda x, y: -f.deriv1(y)))
    return Kernel2(f"diff_gen({f.name})", lambda x, y: f.fn(x) - f.fn(y), dom, dom, d1, d2, Difference(f))


def ratio_kernel(f: ScalarFunction) -> Kernel2:
    """K(x, y) = f(x / y) on the positive quadrant; homogeneous of degree 0.

    The bare chain log(x) (catalog log) declares ``Ratio(log, 0.0)``:
    log(x / y) = log x - log y, so every mean is the geometric mean.  No
    other f gets an order; a log x + b with b != 0 has h(1) != 0.
    """
    dom = positive_reals()
    d1 = (lambda x, y: f.deriv1(x / y) / y) if f.deriv1 is not None else None
    d2 = (lambda x, y: -f.deriv1(x / y) * x / (y * y)) if f.deriv1 is not None else None
    structure = Ratio(f.fn, 0.0 if f.chain is not None and f.chain.links == (("log", 0.0),) else None)
    return Kernel2(f"ratio_dev({f.name})", lambda x, y: f.fn(x / y), dom, dom, d1, d2, structure)


def arithmetic_kernel() -> Kernel2:
    """K(x, y) = x - y on the reals (already normalized)."""
    return difference_kernel(_scalar("identity", _compiled(Var("x"), ("x",)), all_reals()))
