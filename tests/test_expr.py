import functools
import keyword
import math
import random
import re

import oracle
import pytest

from meankit import (
    catalog_generator,
    evaluate,
    kernel_from_expression,
    parse,
    scalar_from_expression,
    sign_kernel,
    to_source,
)
from meankit.domain import all_reals, open_interval, positive_reals, probe_points, sign
from meankit.errors import (
    DomainError,
    ExprSyntaxError,
    NonFinite,
    UnboundVariable,
    UnknownFunction,
)
from meankit.expr import (
    FUNCTION_ARITY,
    MAX_DEPTH,
    BinOp,
    Call,
    Difference,
    Neg,
    Num,
    ScalarFunction,
    Sign,
    Var,
    _children,
    _derivative,
    _function,
    _source,
    free_variables,
)


def test_parse_difference_of_calls():
    ast = parse("cosh(x) - cosh(y)")
    assert ast == BinOp("-", Call("cosh", (Var("x"),)), Call("cosh", (Var("y"),)))


def test_parse_power_node():
    assert parse("x^p") == BinOp("^", Var("x"), Var("p"))
    assert evaluate(parse("x^p"), {"x": 3.0, "p": 2.0}) == 9.0


def test_syntax_error_carries_offset():
    with pytest.raises(ExprSyntaxError) as err:
        parse("2*+")
    assert err.value.offset == 2


def test_unknown_function_at_parse():
    with pytest.raises(UnknownFunction):
        parse("tanhh(x)")


def test_unknown_variable_deferred_to_evaluation():
    ast = parse("x + q")
    with pytest.raises(UnboundVariable):
        evaluate(ast, {"x": 1.0})


def test_evaluate_examples():
    assert evaluate(parse("x - y"), {"x": 5.0, "y": 2.0}) == 3.0
    assert evaluate(parse("sign(x-1)"), {"x": 1.0}) == 0.0
    assert evaluate(parse("sign(x-1)"), {"x": 4.0}) == 1.0
    with pytest.raises(DomainError):
        evaluate(parse("log(x)"), {"x": -1.0})
    with pytest.raises(NonFinite):
        evaluate(parse("exp(x)"), {"x": 1e9})
    with pytest.raises(NonFinite):
        evaluate(parse("1/x"), {"x": 0.0})


def test_evaluate_is_referentially_transparent():
    ast = parse("cosh(x)^2 - sinh(y)/3 + min(x, y)")
    bindings = {"x": 1.2345678901, "y": -0.5}
    first = evaluate(ast, bindings)
    assert all(evaluate(ast, dict(bindings)) == first for _ in range(5))


def test_precedence_matches_convention():
    assert evaluate(parse("2 + 3 * 4"), {}) == 14.0
    assert evaluate(parse("2 ^ 3 ^ 2"), {}) == 512.0  # right-associative
    assert evaluate(parse("-2 ^ 2"), {}) == -4.0  # unary minus binds looser
    assert evaluate(parse("(0 - 2) ^ 2"), {}) == 4.0
    assert evaluate(parse("2 * -3"), {}) == -6.0


def _random_ast(rng: random.Random, depth: int, names=("x", "y", "t", "p", "c")):
    if depth == 0 or rng.random() < 0.25:
        if rng.random() < 0.5:
            return Num(round(rng.uniform(0, 9), 3))
        return Var(rng.choice(names))
    pick = rng.random()
    if pick < 0.55:
        op = rng.choice(["+", "-", "*", "/", "^"])
        return BinOp(op, _random_ast(rng, depth - 1, names), _random_ast(rng, depth - 1, names))
    if pick < 0.75:
        return Neg(_random_ast(rng, depth - 1, names))
    fn = rng.choice(["exp", "log", "cosh", "sinh", "sqrt", "abs", "sign", "min", "max"])
    arity = 2 if fn in ("min", "max") else 1
    return Call(fn, tuple(_random_ast(rng, depth - 1, names) for _ in range(arity)))


def test_parse_print_round_trip_on_random_asts():
    rng = random.Random(20240817)
    for _ in range(1000):
        ast = _random_ast(rng, rng.randint(0, 6))
        assert parse(to_source(ast)) == ast


# --- compiled handles against the tree walker ---------------------------------------
#
# The tree-walking evaluator that compiled functions replaced, kept as the
# oracle.  The lines marked "NaN rule" are its one intended change: min, max,
# sign and ^ raise NonFinite on a NaN operand instead of swallowing it.


def _reference_unary(func: str, v: float) -> float:
    try:
        if func == "exp":
            return math.exp(v)
        if func == "log":
            if v <= 0.0:
                raise DomainError(f"log of nonpositive value {v}")
            return math.log(v)
        if func == "cosh":
            return math.cosh(v)
        if func == "sinh":
            return math.sinh(v)
        if func == "sqrt":
            if v < 0.0:
                raise DomainError(f"sqrt of negative value {v}")
            return math.sqrt(v)
        if func == "abs":
            return abs(v)
        if func == "sign":
            if v != v:  # NaN rule
                raise NonFinite(f"NaN operand in sign({v})")  # NaN rule
            return float(sign(v))
    except OverflowError as exc:
        raise NonFinite(f"{func}({v}) overflowed") from exc
    raise UnknownFunction(func)


def _reference_eval(node, bindings) -> float:
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Var):
        try:
            return float(bindings[node.name])
        except KeyError:
            raise UnboundVariable(f"variable {node.name!r} is not bound") from None
    if isinstance(node, Neg):
        return -_reference_eval(node.operand, bindings)
    if isinstance(node, Call):
        args = [_reference_eval(a, bindings) for a in node.args]
        if node.func in ("min", "max") and any(a != a for a in args):  # NaN rule
            raise NonFinite(f"NaN operand in {node.func}{tuple(args)}")  # NaN rule
        if node.func == "min":
            return min(args)
        if node.func == "max":
            return max(args)
        return _reference_unary(node.func, args[0])
    left = _reference_eval(node.left, bindings)
    right = _reference_eval(node.right, bindings)
    if node.op == "^" and (left != left or right != right):  # NaN rule
        raise NonFinite(f"NaN operand in {left} ^ {right}")  # NaN rule
    try:
        if node.op == "+":
            return left + right
        if node.op == "-":
            return left - right
        if node.op == "*":
            return left * right
        if node.op == "/":
            return left / right
        return math.pow(left, right)
    except ZeroDivisionError as exc:
        raise NonFinite(f"division by zero: {left} / {right}") from exc
    except OverflowError as exc:
        raise NonFinite(f"overflow in {left} {node.op} {right}") from exc
    except ValueError as exc:
        raise DomainError(f"invalid power {left} ^ {right}") from exc


def _reference_evaluate(node, bindings) -> float:
    v = _reference_eval(node, bindings)
    if not math.isfinite(v):
        raise NonFinite(f"expression evaluated to {v}")
    return v


def _outcome(fn, *args):
    """The value's repr, or the exception's type and message."""
    try:
        return repr(fn(*args))
    except (DomainError, NonFinite, UnboundVariable, UnknownFunction) as exc:
        return type(exc), str(exc)


# Values that reach log/sqrt domain errors, exp/cosh/sinh and ^ overflow,
# inf - inf, NaN operands, zero division and ties in min/max; the int 3
# checks that bound values go through float().
_BINDING_POOL = (
    -1.0, -0.0, 0.0, 0.5, 1.0, 2.0, 3, 710.0, 1e200, -1e200, 1e-300, math.inf, math.nan
)


def _kind(outcome) -> str:
    if isinstance(outcome, str):
        return "value"
    _, message = outcome
    for prefix in (
        "log of",
        "sqrt of",
        "invalid power",
        "division by zero",
        "overflow in",
        "NaN operand",
        "expression evaluated",
        "variable",
    ):
        if message.startswith(prefix):
            return prefix
    return "overflowed" if message.endswith("overflowed") else message


# Variable names that the generated source itself uses, or that name a
# builtin or a helper there; none of them may reach that source.
_ODD_NAMES = ("a0", "v1", "c0", "exc", "float", "expression", "isfinite", "exp", "_", "λ")


def test_compiled_handles_match_the_tree_walker():
    rng = random.Random(20261018)
    kinds = set()
    for variables, build in (
        (("x",), lambda text: scalar_from_expression(text, all_reals()).fn),
        (("x", "y"), lambda text: kernel_from_expression(text, all_reals()).fn),
        (("exc",), lambda text: lambda value: evaluate(parse(text), {"exc": value})),
    ):
        for _ in range(1500):
            ast = _random_ast(rng, rng.randint(0, 5), variables)
            fn = build(to_source(ast))
            for _ in range(4):
                values = [rng.choice(_BINDING_POOL) for _ in variables]
                want = _outcome(_reference_evaluate, ast, dict(zip(variables, values)))
                assert _outcome(fn, *values) == want, (to_source(ast), values)
                kinds.add(_kind(want))
    assert kinds >= {
        "value",
        "log of",
        "sqrt of",
        "invalid power",
        "division by zero",
        "overflow in",
        "overflowed",
        "NaN operand",
        "expression evaluated",
    }


def test_evaluate_matches_the_tree_walker():
    rng = random.Random(1811)
    for names in (("x", "y", "t", "p", "c"), _ODD_NAMES):
        kinds = set()
        for _ in range(3000):
            ast = _random_ast(rng, rng.randint(0, 5), names)
            bindings = {n: rng.choice(_BINDING_POOL) for n in names if rng.random() < 0.9}
            want = _outcome(_reference_evaluate, ast, bindings)
            assert _outcome(evaluate, ast, bindings) == want, (to_source(ast), bindings)
            kinds.add(_kind(want))
        assert {"value", "variable", "NaN operand", "division by zero"} <= kinds, names


# Literals that print differently from their text (1e999 is inf, 0.1 is not
# 1/10), a subnormal, and a NaN made from them; {v} is the variable.
_LITERAL_TEXTS = (
    "1e999",
    "{v} + 1e999",
    "{v} * 1e999 - 1e999",
    "min(1e999, {v}) + 0.1",
    "0.1 + 0.2 * {v}",
    "1e-320 / {v}",
    "{v} ^ 0.1 - 2.5e+300 * 1e-300",
)


@pytest.mark.parametrize("text", _LITERAL_TEXTS)
@pytest.mark.parametrize("variable", ("x",) + _ODD_NAMES)
def test_literals_and_names_match_the_tree_walker(text, variable):
    source = text.format(v=variable)
    ast = parse(source)
    scalar_source = text.format(v="x")
    scalar = scalar_from_expression(scalar_source, all_reals()).fn
    kernel_source = text.format(v="(x - y)")
    kernel = kernel_from_expression(kernel_source, all_reals()).fn
    for value in _BINDING_POOL:
        want = _outcome(_reference_evaluate, ast, {variable: value})
        assert _outcome(evaluate, ast, {variable: value}) == want, (source, value)
        want = _outcome(_reference_evaluate, parse(scalar_source), {"x": value})
        assert _outcome(scalar, value) == want, (scalar_source, value)
        want = _outcome(_reference_evaluate, parse(kernel_source), {"x": value, "y": 0.5})
        assert _outcome(kernel, value, 0.5) == want, (kernel_source, value)


# Every identifier the emitter writes: keywords, its helpers, the words of its
# error messages and slot names (parameters a0, a1, ..., values v0, v1, ...,
# bound literals and strings c0, c1, ...).
_EMITTER_WORDS = frozenset(keyword.kwlist) | {
    "expression", "float", "power", "isfinite", *FUNCTION_ARITY,
    "NonFinite", "DomainError", "UnboundVariable", "OverflowError", "ZeroDivisionError", "ValueError",
    "exc", "f", "NaN", "operand", "overflow", "overflowed", "division", "by", "zero", "invalid", "evaluated", "to",
    "of", "nonpositive", "negative", "value",
}
_SLOT = re.compile(r"\b[acv][0-9]+\b")


def test_generated_source_is_built_from_the_emitters_identifiers():
    rng = random.Random(701)
    asts = [_random_ast(rng, rng.randint(0, 6), _ODD_NAMES) for _ in range(500)]
    asts += [parse(t.format(v=v)) for t in _LITERAL_TEXTS for v in _ODD_NAMES]
    for ast in asts:
        for variables in (_ODD_NAMES, _ODD_NAMES[:3], ("x", "y")):
            source, namespace = _source(ast, variables)
            unslotted = _SLOT.sub("", source)
            words = set(re.findall(r"[^\W\d]\w*", unslotted))
            assert words <= _EMITTER_WORDS, (to_source(ast), words - _EMITTER_WORDS)
            assert not re.search(r"[0-9]", unslotted), to_source(ast)
            assert {c for c in _SLOT.findall(source) if c[0] == "c"} <= set(namespace)


def test_compiled_functions_are_memoized():
    f = scalar_from_expression("x^2", all_reals())
    assert f.fn is scalar_from_expression("x^2", positive_reals()).fn
    assert f.fn is not kernel_from_expression("x^2", all_reals()).fn
    assert f.fn.__code__.co_filename == "<expression>"
    # Num(0.0) == Num(-0.0) and Num(1.0) == Num(1), yet each keeps its literal.
    assert repr(evaluate(Num(0.0), {})) == "0.0"
    assert repr(evaluate(Num(-0.0), {})) == "-0.0"
    assert repr(evaluate(BinOp("*", Num(1.0), Num(1)), {})) == "1.0"
    assert repr(evaluate(BinOp("*", Num(1), Num(1)), {})) == "1"


def test_error_order_follows_evaluation_order():
    with pytest.raises(DomainError, match="log of nonpositive value -1.0"):
        evaluate(parse("log(x) + q"), {"x": -1.0})
    with pytest.raises(UnboundVariable, match="variable 'q' is not bound"):
        evaluate(parse("q + log(x)"), {"x": -1.0})


# --- difference and sign kernels ------------------------------------------------------


def _raw(f, v: float) -> float:
    """The value of the compiled f at v before its last check, which turns a
    value that is not finite into NonFinite; any other error is raised."""
    try:
        return f(v)
    except NonFinite as exc:
        match = re.fullmatch(r"expression evaluated to (.*)", str(exc))
        if match is None:
            raise
        return float(match.group(1))


def _difference_outcome(f, x: float, y: float):
    """What A(x) - A(y) compiled as one function gives: A at x, then A at y,
    their difference, then the check that it is finite."""
    try:
        d = _raw(f, x) - _raw(f, y)
    except (DomainError, NonFinite) as exc:
        return type(exc), str(exc)
    return repr(d) if math.isfinite(d) else (NonFinite, f"expression evaluated to {d}")


#: Differences whose values overflow: at (1.5, -1.5) for the first; A of the
#: second is inf in floats before its last check, and exp overflows.
_OVERFLOWING_DIFFERENCES = ("x*1e308", "x*1e308*10", "exp(x)")


def test_recognised_differences_are_their_generators_difference():
    # A - B, with B the A of x renamed to y, declares Difference(f) with f
    # the A of x: fn(x, y) is f(x) - f(y) bit for bit where that is finite,
    # and raises the same error type and message elsewhere.
    rng = random.Random(20261019)
    cases = [(text, 1.5, -1.5) for text in _OVERFLOWING_DIFFERENCES]
    while len(cases) < 1500:
        a = _random_ast(rng, rng.randint(1, 5), ("x",))
        if free_variables(a) == {"x"}:
            cases.append((to_source(a), rng.choice(_BINDING_POOL), rng.choice(_BINDING_POOL)))
    kinds = set()
    for a_text, x, y in cases:
        b_text = re.sub(r"\bx\b", "y", a_text)
        text = f"({a_text}) - ({b_text})"
        kernel = kernel_from_expression(text, all_reals())
        assert isinstance(kernel.structure, Difference), text
        f = kernel.structure.f
        assert parse(f.name) == parse(a_text)
        chain = scalar_from_expression(a_text, all_reals()).chain
        assert (f.chain is None) == (chain is None), text
        want = _difference_outcome(f.fn, x, y)
        assert _outcome(kernel.fn, x, y) == want, (text, x, y)
        kinds.add(_kind(want))
    assert kinds >= {"value", "expression evaluated", "overflowed", "log of", "overflow in"}


@pytest.mark.parametrize(
    "text, structure",
    [
        ("x^2 - y^2", Difference),
        ("x*x - y*y", Difference),
        ("x - y", Difference),
        ("sign(x - y)", Sign),
        ("sign((x)-(y))", Sign),
        ("x^2 - y^3", type(None)),  # B is not A of y
        ("y^2 - x^2", type(None)),  # A holds y
        ("x*y - y*y", type(None)),
        ("3 - 3", type(None)),  # no x
        ("(x - y) * (1 + x*y)", type(None)),
        ("x - y + 3", type(None)),
        ("sign(x^3 - y^3)", type(None)),  # not sign(x - y) where x^3 is flat
        ("sign(y - x)", type(None)),
    ],
)
def test_kernel_structure_is_read_off_the_parse(text, structure):
    assert type(kernel_from_expression(text, all_reals()).structure) is structure


def test_expression_sign_kernel_is_sign_of_the_difference_everywhere():
    # x - y overflows to inf without an error, and sign(inf) is 1.
    kernel = kernel_from_expression("sign(x - y)", all_reals())
    for x, y in ((1e308, -1e308), (-1e308, 1e308), (2.0, 2.0), (5e-324, 0.0), (1.0, 3.0)):
        assert repr(kernel.fn(x, y)) == repr(sign_kernel().fn(x, y)) == repr(float(sign(x - y)))


def test_unknown_variable_rejected_when_handle_is_built():
    with pytest.raises(UnboundVariable, match="unexpected free variables"):
        scalar_from_expression("x + q", all_reals())
    with pytest.raises(UnboundVariable, match="unexpected free variables"):
        kernel_from_expression("x - z", all_reals())


_NAN = "x*1e300*1e300 - x*1e300*1e300"  # inf - inf at x = 1


@pytest.mark.parametrize(
    "source, message",
    [
        (f"max(1, {_NAN})", "NaN operand in max(1.0, nan)"),
        (f"min({_NAN}, 1)", "NaN operand in min(nan, 1.0)"),
        (f"sign({_NAN})", "NaN operand in sign(nan)"),
        (f"({_NAN}) ^ 0", "NaN operand in nan ^ 0.0"),
        (f"1 ^ ({_NAN})", "NaN operand in 1.0 ^ nan"),
    ],
)
def test_nan_operand_raises_instead_of_vanishing(source, message):
    # The tree walker returned 1.0, 1.0 via the final check's nan, 0.0, 1.0
    # and 1.0 here: a NaN must not turn into a plausible number.
    with pytest.raises(NonFinite) as err:
        evaluate(parse(source), {"x": 1.0})
    assert str(err.value) == message
    with pytest.raises(NonFinite) as err:
        scalar_from_expression(source, all_reals())(1.0)
    assert str(err.value) == message


def test_hand_built_calls_are_refused_before_evaluation():
    # parse never builds these; evaluate refuses them as parse refuses their
    # text, before an unbound variable or a failing argument is reached.
    with pytest.raises(UnknownFunction, match="unknown function 'tanh'"):
        evaluate(Call("tanh", (Var("q"),)), {})
    for call, message in [
        (Call("max", (Num(1.0), Num(3.0), Num(2.0))), "max takes 2 argument(s), got 3"),
        (Call("exp", (Var("q"), Num(5.0))), "exp takes 1 argument(s), got 2"),
        (BinOp("+", Call("log", (Num(-1.0),)), Call("min", (Var("q"),))), "min takes 2 argument(s), got 1"),
    ]:
        with pytest.raises(ExprSyntaxError) as err:
            evaluate(call, {})
        assert str(err.value) == f"{message} (offset 0)"
        assert err.value.offset == 0


def _left_chain(height: int):
    """x + 1 + 1 + ..., a left chain of BinOp("+") nodes ``height`` nodes tall."""
    node = Var("x")
    for _ in range(height - 1):
        node = BinOp("+", node, Num(1.0))
    return node


def test_hand_built_asts_taller_than_the_limit_are_syntax_errors():
    # parse never builds such ASTs; a 2,000-node chain used to exhaust the
    # recursion limit while the memo hashed it.
    assert evaluate(_left_chain(MAX_DEPTH), {"x": 1.0}) == 100.0
    for height in (MAX_DEPTH + 1, 2001):
        with pytest.raises(ExprSyntaxError) as err:
            evaluate(_left_chain(height), {"x": 1.0})
        assert str(err.value) == f"expression nested deeper than {MAX_DEPTH} (offset 0)"
        assert err.value.offset == 0


def test_free_variables():
    assert free_variables(parse("cosh(x) - y * t")) == frozenset({"x", "y", "t"})
    assert free_variables(parse("3.5 + exp(2)")) == frozenset()


def test_symbolic_derivative_polynomial():
    f = scalar_from_expression("x*x", all_reals())
    assert (f.derivative(3.0, 1), f.derivative(3.0, 2)) == (6.0, 2.0)


def test_symbolic_second_derivative():
    assert scalar_from_expression("cosh(x)+0*x", all_reals()).derivative(0.0, 2) == 1.0


def test_kernel_partial_on_diagonal():
    k = kernel_from_expression("x - y", all_reals())
    assert (k.partial1(2.0, 2.0), k.partial2(2.0, 2.0)) == (1.0, -1.0)


def test_handles_without_derivatives_raise_typed_errors():
    # No stencil stands in for a derivative a handle was built without.
    f = ScalarFunction("bare", math.sqrt, open_interval(0, 1))
    for order in (1, 2):
        with pytest.raises(DomainError, match=f"^bare has no derivative of order {order}$"):
            f.derivative(0.5, order)
    with pytest.raises(DomainError, match="^sign_dev has no partial derivative in x$"):
        sign_kernel().partial1(1.0, 2.0)
    with pytest.raises(DomainError, match="^sign_dev has no partial derivative in y$"):
        sign_kernel().partial2(1.0, 2.0)


def test_derivatives_keep_the_typed_errors_of_the_emitter():
    # A derivative is compiled code like its function: sqrt' at 0 divides
    # by zero, and log' of x - 1 is 1 / (x - 1), defined wherever x != 1.
    f = scalar_from_expression("sqrt(x)+x", all_reals())
    with pytest.raises(NonFinite, match="^division by zero: 0.5 / 0.0$"):
        f.derivative(0.0)
    with pytest.raises(DomainError, match="^sqrt of negative value -1.0$"):
        f.derivative(-1.0)
    assert scalar_from_expression("log(x-1)", all_reals()).derivative(0.5) == -2.0


#: Catalog generators and their texts, which the oracle evaluates.
_CATALOG_TEXTS = [
    (catalog_generator("power", -2.0), "x^-2"),
    (catalog_generator("power", 0.5), "x^0.5"),
    (catalog_generator("power", 3.0), "x^3"),
    (catalog_generator("log"), "log(x)"),
    (catalog_generator("exp"), "exp(x)"),
    (catalog_generator("cosh"), "cosh(x)"),
    (catalog_generator("shifted_power", 0.5, 1.0), "(x+1)^0.5"),
]


def _occurrences(ast, name: str) -> int:
    return (ast == Var(name)) + sum(_occurrences(child, name) for child in _children(ast))


def test_catalog_derivatives_match_central_differences():
    # f' and f'' of each catalog generator, in floats, within 4 ulps (and
    # 1e-300 absolute) of central differences of its text in 50-digit
    # decimal arithmetic (oracle.py).
    rng = random.Random(99)
    for gen, text in _CATALOG_TEXTS:
        window = probe_points(gen.domain, 2)
        for _ in range(100):
            x = rng.uniform(window[0], window[-1])
            for order in (1, 2):
                reference = oracle.partial_derivative(parse(text), {"x": x}, "x", order)
                analytic = gen.derivative(x, order)
                assert abs(analytic - reference) <= 4 * math.ulp(reference) + 1e-300, (gen.name, x, order)


@pytest.mark.parametrize("variables, paths", [(("x",), [("x",), ("x", "x")]), (("x", "y"), [("x",), ("y",)])],
                         ids=["generator", "kernel"])
def test_random_derivatives_match_central_differences(variables, paths):
    # Seeded random ASTs in which x occurs more than once: their symbolic f'
    # and f'' (a generator) or dK/dx and dK/dy (a kernel), evaluated in
    # 50-digit decimal arithmetic, agree with central differences of the AST
    # there to 1e-12 of the larger of 1 and the function and derivative
    # values; the handles' compiled derivatives are the same ASTs in
    # floats.  Points where the AST or a difference is undefined are
    # skipped, and most are checked.
    rng = random.Random(3779)
    checked = skipped = 0
    while checked < 300:
        ast = _random_ast(rng, rng.randint(2, 4), variables)
        if _occurrences(ast, "x") < 2:
            continue
        text = to_source(ast)
        point = {v: rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 4.0) for v in variables}
        for path in paths:
            derivative = functools.reduce(_derivative, path, ast)
            try:
                value = oracle.expression_value(ast, point)
                reference = oracle.partial_derivative(ast, point, path[0], len(path))
                symbolic = oracle.expression_value(derivative, point)
            except (ArithmeticError, ValueError):
                skipped += 1
                continue
            scale = max(1.0, abs(value), abs(reference))
            if not math.isfinite(scale):
                skipped += 1
                continue
            assert abs(symbolic - reference) <= 1e-12 * scale, (text, path, point, symbolic, reference)
            checked += 1
            if variables == ("x",):
                handle = scalar_from_expression(text, all_reals())
                compiled = lambda: handle.derivative(point["x"], len(path))
            else:
                handle = kernel_from_expression(text, all_reals())
                compiled = lambda: (handle.partial1 if path == ("x",) else handle.partial2)(point["x"], point["y"])
            assert _outcome(compiled) == _outcome(_function(derivative, variables), *point.values()), (text, path)
    assert skipped < checked


def test_sign_kernel_vanishes_on_diagonal():
    S = sign_kernel()
    assert S(2.0, 2.0) == 0.0
    assert S(3.0, 2.0) == 1.0
    assert S(1.0, 2.0) == -1.0


def test_power_generator_zero_is_log():
    g = catalog_generator("power", 0.0)
    assert g.fn(math.e) == pytest.approx(1.0)
    assert g.deriv1(2.0) == 0.5
