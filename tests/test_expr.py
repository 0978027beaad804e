import math
import random

import pytest

from meankit import (
    cosh_generator,
    evaluate,
    exp_generator,
    kernel_from_expression,
    log_generator,
    parse,
    power_generator,
    scalar_from_expression,
    shifted_power_generator,
    sign_kernel,
    to_source,
)
from meankit.domain import all_reals, open_interval, positive_reals, probe_points, sign
from meankit.errors import (
    DerivativeMismatch,
    DomainError,
    ExprSyntaxError,
    NonFinite,
    StencilOutsideDomain,
    UnboundVariable,
    UnknownFunction,
)
from meankit.expr import (
    BinOp,
    Call,
    Neg,
    Num,
    Var,
    free_variables,
    numeric_derivative,
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


# --- compiled closures against the tree walker ------------------------------------
#
# The tree-walking evaluator that the closure compiler replaced, kept as the
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


def test_compiled_handles_match_the_tree_walker():
    rng = random.Random(20261018)
    kinds = set()
    for variables, build in (
        (("x",), lambda text: scalar_from_expression(text, all_reals()).fn),
        (("x", "y"), lambda text: kernel_from_expression(text, all_reals()).fn),
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
    names = ("x", "y", "t", "p", "c")
    kinds = set()
    for _ in range(3000):
        ast = _random_ast(rng, rng.randint(0, 5))
        bindings = {n: rng.choice(_BINDING_POOL) for n in names if rng.random() < 0.9}
        want = _outcome(_reference_evaluate, ast, bindings)
        assert _outcome(evaluate, ast, bindings) == want, (to_source(ast), bindings)
        kinds.add(_kind(want))
    assert {"value", "variable", "NaN operand", "division by zero"} <= kinds


def test_error_order_follows_evaluation_order():
    with pytest.raises(DomainError, match="log of nonpositive value -1.0"):
        evaluate(parse("log(x) + q"), {"x": -1.0})
    with pytest.raises(UnboundVariable, match="variable 'q' is not bound"):
        evaluate(parse("q + log(x)"), {"x": -1.0})


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


def test_hand_built_calls_evaluate_their_arguments_first():
    three = Call("max", (Num(1.0), Num(3.0), Num(2.0)))
    assert evaluate(three, {}) == 3.0
    assert evaluate(Call("exp", (Num(0.0), Num(5.0))), {}) == 1.0
    with pytest.raises(UnknownFunction):
        evaluate(Call("tanh", (Num(0.0),)), {})
    with pytest.raises(UnboundVariable):
        evaluate(Call("tanh", (Var("q"),)), {})


def test_free_variables():
    assert free_variables(parse("cosh(x) - y * t")) == frozenset({"x", "y", "t"})
    assert free_variables(parse("3.5 + exp(2)")) == frozenset()


def test_numeric_derivative_polynomial():
    assert numeric_derivative(lambda x: x * x, 3.0, 1) == pytest.approx(6.0, abs=1e-7)


def test_numeric_derivative_second_order():
    assert numeric_derivative(math.cosh, 0.0, 2) == pytest.approx(1.0, abs=1e-5)


def test_kernel_partial_on_diagonal():
    k = kernel_from_expression("x - y", all_reals())
    assert k.partial2(2.0, 2.0) == pytest.approx(-1.0, abs=1e-9)


def test_stencil_requires_room():
    f = scalar_from_expression("sqrt(x)", open_interval(0, 1))
    with pytest.raises(StencilOutsideDomain):
        numeric_derivative(f.fn, 1.0, 1, f.domain)


def test_catalog_derivatives_match_central_differences():
    rng = random.Random(99)
    catalog = [
        power_generator(-2.0),
        power_generator(0.5),
        power_generator(3.0),
        log_generator(),
        exp_generator(),
        cosh_generator(),
        shifted_power_generator(0.5, 1.0),
    ]
    for gen in catalog:
        window = probe_points(gen.domain, 2)
        for _ in range(100):
            x = rng.uniform(window[0], window[-1])
            for order in (1, 2):
                numeric = numeric_derivative(gen.fn, x, order, gen.domain)
                analytic = gen.derivative(x, order)
                assert abs(analytic - numeric) <= 1e-5 * max(1.0, abs(analytic)), (
                    gen.name,
                    x,
                    order,
                )


def test_analytic_derivative_validated_at_construction():
    with pytest.raises(DerivativeMismatch):
        scalar_from_expression(
            "x^2", positive_reals(), deriv1_source="3*x"
        )
    good = scalar_from_expression("x^2", positive_reals(), deriv1_source="2*x")
    assert good.derivative(4.0, 1) == 8.0


def test_sign_kernel_vanishes_on_diagonal():
    S = sign_kernel()
    assert S(2.0, 2.0) == 0.0
    assert S(3.0, 2.0) == 1.0
    assert S(1.0, 2.0) == -1.0


def test_power_generator_zero_is_log():
    g = power_generator(0.0)
    assert g.fn(math.e) == pytest.approx(1.0)
    assert g.deriv1(2.0) == 0.5
