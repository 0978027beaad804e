"""Closed-form quasiarithmetic means of ``expr:`` chains, in which x occurs once.

Wherever ``quasiarithmetic_mean`` takes a chain's closed form, it must agree
with the probe-and-bisection path and with ``oracle.qa_mean_by_bisection``;
wherever the certificate is refused, the call must behave exactly as that
path does, with the same value or the same error and message.  A failure at
the entries ends the mean first, as it does for the catalog generators,
with the same error class as the catalog twin of the chain.
"""

from __future__ import annotations

import dataclasses
import math
import random
import sys
from decimal import Decimal

import oracle
import pytest

from meankit import arithmetic_kernel, make_weighted_sample, quasiarithmetic_mean, scalar_from_expression
from meankit.classic_means import CONDITION_LIMIT
from meankit.cli import main, resolve_generator
from meankit.domain import all_reals, open_interval, positive_reals
from meankit.homogenize import envelope_pair, quasiarithmetic_handle

#: Chain steps: the text around an operand u and a constant c, and the step
#: in ``decimal`` arithmetic.
STEPS = {
    "add": ("({u})+{c}", lambda u, c: u + c),
    "sub": ("({u})-{c}", lambda u, c: u - c),
    "rsub": ("{c}-({u})", lambda u, c: c - u),
    "mul": ("{c}*({u})", lambda u, c: u * c),
    "div": ("({u})/{c}", lambda u, c: u / c),
    "rdiv": ("{c}/({u})", lambda u, c: c / u),
    "pow": ("({u})^{c}", lambda u, c: u**c),
    "rpow": ("{c}^({u})", lambda u, c: c**u),
    "neg": ("-({u})", lambda u, c: -u),
    "exp": ("exp({u})", lambda u, c: u.exp()),
    "log": ("log({u})", lambda u, c: u.ln()),
    "sqrt": ("sqrt({u})", lambda u, c: u.sqrt()),
    "sinh": ("sinh({u})", lambda u, c: (u.exp() - (-u).exp()) / 2),
    "cosh": ("cosh({u})", lambda u, c: (u.exp() + (-u).exp()) / 2),
}


def _constant(rng: random.Random, kind: str) -> tuple[float, str]:
    """A constant and its text: a literal, or a subtree that folds to it."""
    if kind in ("add", "sub", "rsub"):
        c = rng.uniform(-3.0, 3.0)
    elif kind == "pow":
        c = rng.choice([-2.0, -1.0, -0.5, 0.5, 1.5, 2.0, 3.0, rng.uniform(-3.0, 3.0)])
    elif kind == "rpow":
        c = rng.choice([0.5, 2.0, 3.0, rng.uniform(0.2, 4.0)])
    else:
        c = rng.choice([-1.0, 1.0]) * rng.uniform(0.2, 3.0)
    form = rng.randrange(3)
    if form == 0:
        return c, f"({c!r})"
    if form == 1:
        return c, f"({-c!r}*-1)"
    return c, f"(2*{c / 2!r})"


def _random_chain(rng: random.Random):
    """Text of a chain of 1 to 5 steps in x, and the chain in ``decimal``."""
    text, links = "x", []
    for _ in range(rng.randint(1, 5)):
        kind = rng.choice(list(STEPS))
        template, step = STEPS[kind]
        c, c_text = _constant(rng, kind) if "{c}" in template else (0.0, "")
        text = template.format(u=text, c=c_text)
        links.append((step, Decimal(c)))

    def f(u: Decimal) -> Decimal:
        for step, c in links:
            u = step(u, c)
        return u

    return text, f


def _core(gen):
    """The function the qa mean of ``gen`` evaluates: its chain's core, or fn."""
    return gen.fn if gen.chain is None or gen.chain.fn is None else gen.chain.fn


def _counted(gen, calls):
    """``gen`` with the function its qa mean evaluates recording its arguments."""
    core = _core(gen)
    counting = lambda x: calls.append(x) or core(x)  # noqa: E731
    if gen.chain is not None and gen.chain.fn is not None:
        return dataclasses.replace(gen, chain=dataclasses.replace(gen.chain, fn=counting))
    return dataclasses.replace(gen, fn=counting)


def _bisected(gen):
    """The probe-and-bisection path of ``gen``'s qa mean: its core without a chain."""
    return dataclasses.replace(gen, fn=_core(gen), chain=None)


def _outcome(call):
    try:
        return "value", call()
    except Exception as exc:  # compared by type and message
        return type(exc).__name__, str(exc)


@pytest.mark.parametrize("seed, domain, low, high", [(5, positive_reals(), 0.05, 8.0), (6, all_reals(), -4.0, 8.0)])
def test_random_chains_against_the_bisection_and_the_oracle(seed, domain, low, high):
    rng = random.Random(seed)
    taken = 0
    for _ in range(150):
        text, f = _random_chain(rng)
        gen = scalar_from_expression(text, domain)
        assert gen.chain is not None, text
        n = rng.randint(2, 6)
        entries = [rng.uniform(low, high) for _ in range(n)]
        weights = [rng.uniform(0.1, 3.0) for _ in range(n)]
        sample = make_weighted_sample(entries, weights, domain)
        calls = []
        new = _outcome(lambda: quasiarithmetic_mean(sample, _counted(gen, calls)))
        old = _outcome(lambda: quasiarithmetic_mean(sample, _bisected(gen)))
        if len(calls) > n:
            # Refused: the probe-and-bisection path, bit for bit, or the
            # same error with the same message.
            assert new == old, (text, entries, weights)
            continue
        if new[0] != "value":
            # Failed at the entries: what the core raises at the first entry
            # where it fails, or else equal end values or an average that is
            # not finite; the bisection path fails too.
            assert old[0] != "value", (text, entries, weights, new, old)
            failing = next((o for o in (_outcome(lambda: _core(gen)(x)) for x in entries) if o[0] != "value"), None)
            if failing is not None:
                assert new == failing, (text, entries, new)
            else:
                assert new[0] in ("GeneratorNotMonotone", "NonFinite"), (text, entries, new)
            continue
        taken += 1
        mean = new[1]
        lo, hi = sample.hull()
        assert lo <= mean <= hi
        bound = 1e-12 * max(abs(lo), abs(hi)) + CONDITION_LIMIT * abs(mean)
        # The probe sees ties where values underflow to 0 at the upper
        # hull end, which the closed form does not need to separate.
        assert old[0] == "value" or old[0] == "GeneratorNotMonotone", (text, entries, old)
        if old[0] == "value":
            assert abs(mean - old[1]) <= bound, (text, entries, weights, mean, old)
        increasing = (_core(gen)(lo) < _core(gen)(hi)) == gen.chain.rising
        reference = oracle.qa_mean_by_bisection(entries, weights, f if increasing else lambda u: -f(u))
        assert abs(mean - reference) <= bound, (text, entries, weights, mean, reference)
    assert taken >= 60


#: Chains that spell catalog generators, and their exact means.
TWINS = {
    "x^2": lambda xs, ws: oracle.power_mean(xs, ws, 2),
    "sqrt(x)": lambda xs, ws: oracle.power_mean(xs, ws, 0.5),
    "x^3": lambda xs, ws: oracle.power_mean(xs, ws, 3),
    "1/x": lambda xs, ws: oracle.power_mean(xs, ws, -1),
    "log(x)": lambda xs, ws: oracle.power_mean(xs, ws, 0),
    "exp(x)": lambda xs, ws: oracle.qa_mean(xs, ws, "exp"),
    "cosh(x)": lambda xs, ws: oracle.qa_mean(xs, ws, "cosh"),
}


@pytest.mark.parametrize("text", sorted(TWINS))
def test_one_step_chains_are_within_a_few_ulps_of_the_exact_mean(text):
    # The bisection leaves up to about 5e4 ulps on these samples.
    gen = scalar_from_expression(text, positive_reals())
    rng = random.Random(text)
    for _ in range(60):
        n = rng.randint(2, 6)
        entries = [rng.uniform(0.1, 8.0) for _ in range(n)]
        weights = [rng.uniform(0.1, 3.0) for _ in range(n)]
        mean = quasiarithmetic_mean(make_weighted_sample(entries, weights, positive_reals()), gen)
        assert oracle.ulps(mean, TWINS[text](entries, weights)) <= 4, (text, entries, weights)


@pytest.mark.parametrize(
    "text, chain",
    [
        ("1/x", True),
        ("exp(x)", True),
        ("2^x", True),
        ("-(3-x)^2/4+1", True),
        ("log(sinh(x/2))", True),
        ("x^(1/3)", True),
        ("x^3+x", False),  # x occurs twice
        ("x*x", False),
        ("abs(x)", False),
        ("sign(x)", False),
        ("max(x,1)", False),
        ("5", False),  # no x at all
        ("x^(1/0)", False),  # a constant that does not evaluate
        ("x+1e400", False),  # an infinite constant
    ],
)
def test_only_single_occurrence_chains_get_a_chain(text, chain):
    assert (scalar_from_expression(text, positive_reals()).chain is not None) is chain


@pytest.mark.parametrize(
    "text, lo, hi",
    [
        ("x^2", -1.0, 1.5),  # base not positive
        ("cosh(x)", -1.0, 1.5),  # not one-signed
        ("5+0*x", 1.0, 2.0),  # * 0
        ("x/0.0", 1.0, 2.0),  # / 0
        ("1^x", 1.0, 2.0),  # 1 ^ u
        ("(-2)^x", 1.0, 2.0),  # negative base
        ("x^0", 1.0, 2.0),  # u ^ 0
        ("0/x", 1.0, 2.0),  # 0 / u
        ("1/(x-1.5)", 1.0, 2.0),  # 0 inside the interval
        ("log(x-3)", 1.0, 5.0),
        ("sqrt(x-3)", 1.0, 5.0),
        ("exp(x*1e308)", 1.0, 7.0),  # an end's image is infinite
    ],
)
def test_no_certificate_where_a_step_is_not_monotone(text, lo, hi):
    assert scalar_from_expression(text, all_reals()).chain.inverse(lo, hi) is None


def test_certificate_carries_the_hull_through_the_steps():
    inverse = scalar_from_expression("1/(x-3)", all_reals()).chain.inverse(4.0, 5.0)
    assert inverse.images == ((4.0, 5.0), (1.0, 2.0), (0.5, 1.0))
    assert inverse(0.75) == 3.0 + 1.0 / 0.75
    # Clamped to each step's image, so to the hull.
    assert inverse(7.0) == 4.0 and inverse(-7.0) == 5.0
    # cosh(x) is cosh1(x) + 1, and the inverse is the core cosh1's.
    on_negative = scalar_from_expression("cosh(x)", all_reals()).chain.inverse(-2.0, -1.0)
    assert on_negative(2.0 * math.sinh(0.75) ** 2) == pytest.approx(-1.5, rel=1e-15)


def test_condition_number_covers_every_step():
    # exp((x + 1e10) - 1e10) is exp(x), but its first step rounds x to
    # ulp(1e10): kappa of the first step, not the chain's own, sends it back.
    inverse = scalar_from_expression("exp((x+1e10)-1e10)", positive_reals()).chain.inverse(1.0, 2.0)
    kappa, own = inverse.condition(1.5)
    assert kappa > CONDITION_LIMIT / sys.float_info.epsilon >= own
    # 2 x spans (2, 4) and y (2 x)' = 3 at 1.5; exp's own term is e/3.
    inverse = scalar_from_expression("exp(2*x)", positive_reals()).chain.inverse(1.0, 2.0)
    assert inverse.condition(1.5) == (2.0 / 1.5, math.exp(4.0) / (3.0 * math.exp(3.0)))


@pytest.mark.parametrize("generator", ["power:-1", "expr:1/x", "expr:x^-1"])
def test_condition_number_does_not_overflow_at_tiny_entries(capsys, generator):
    # The slope -1/y^2 underflows to 0 (1/x) or overflows (x^-1) at 1e-170,
    # while kappa is about 1: the closed form gives the exact mean,
    # 4/3 * 1e-170, not the bisection's 1.3333333333330296e-170.
    code, out, err = _qa(capsys, generator, ["--x", "1e-170,2e-170", "--w", "1,1"])
    assert (code, err) == (0, "")
    assert out.splitlines()[-1] == "1.3333333333333334e-170"
    assert oracle.power_mean([1e-170, 2e-170], [1.0, 1.0], -1) == 1.3333333333333334e-170


@pytest.mark.parametrize(
    "text, entries, outcome",
    [
        ("x^2", [1.0, 2.0, 5.0], "taken"),
        ("(x+1e10)-1e10", [1.0, 2.0], "taken"),  # its core is the identity
        ("exp((x+1e10)-1e10)", [1.0, 2.0], "refused"),
        ("cosh(x)", [1e-5, 2e-5], "taken"),  # its core cosh1 keeps the digits cosh rounds away
        ("exp(x)", [709.0, 0.5], "NonFinite"),  # the average overflows
        ("x^0.001", [1.0, 1.000000000000001], "GeneratorNotMonotone"),  # equal end values
    ],
)
def test_closed_form_is_taken_only_when_well_conditioned_and_finite(text, entries, outcome):
    gen = scalar_from_expression(text, positive_reals())
    calls = []
    sample = make_weighted_sample(entries, [3.0, 1.0, 1.0][: len(entries)], positive_reals())
    new = _outcome(lambda: quasiarithmetic_mean(sample, _counted(gen, calls)))
    bisected = _outcome(lambda: quasiarithmetic_mean(sample, _bisected(gen)))
    if outcome == "refused":
        # Past the entries: the probe-and-bisection path, bit for bit.
        assert len(calls) > len(entries)
        assert new == bisected
    else:
        # The entries alone decide: their closed form, or its error, which
        # the bisection path meets as an error too.
        assert calls == entries
        assert new[0] == ("value" if outcome == "taken" else outcome)
        assert (bisected[0] == "value") is (outcome == "taken")


#: CLI calls whose closed form is refused, with the exit code and stderr of
#: the probe-and-bisection path, recorded before chains had a closed form;
#: and calls that fail at the entries, where the closed form ends the mean
#: as it does for the catalog generators: the first entry where the
#: generator overflows, or an average that is not finite.
REFUSALS = [
    (["expr:x^2", "--domain=-2,2", "--x=-1,0.5,1.5", "--w", "1,1,1"], 3,
     "error: GeneratorNotMonotone: x^2 is not strictly monotone on [-1.0, 1.5]\n"),
    (["expr:cosh(x)", "--domain=-2,2", "--x=-1,0.5,1.5", "--w", "1,1,1"], 3,
     "error: GeneratorNotMonotone: cosh(x) is not strictly monotone on [-1.0, 1.5]\n"),
    (["expr:5+0*x", "--x", "1,2", "--w", "1,1"], 3,
     "error: GeneratorNotMonotone: 5+0*x is not strictly monotone on [1.0, 2.0]\n"),
    (["expr:1^x", "--x", "1,2", "--w", "1,1"], 3,
     "error: GeneratorNotMonotone: 1^x is not strictly monotone on [1.0, 2.0]\n"),
    (["expr:sign(x)", "--x", "1,2", "--w", "1,1"], 3,
     "error: GeneratorNotMonotone: sign(x) is not strictly monotone on [1.0, 2.0]\n"),
    (["expr:log(x-3)", "--x", "1,2,5", "--w", "1,1,1"], 3, "error: DomainError: log of nonpositive value -2.0\n"),
    (["expr:exp(x)", "--x", "700,710", "--w", "1,1"], 3, "error: NonFinite: exp(710.0) overflowed\n"),
    (["expr:2^x", "--x", "1000,1100", "--w", "1,1"], 3, "error: NonFinite: overflow in 2.0 ^ 1100.0\n"),
    (["expr:exp(x)", "--x", "709,0", "--w", "3,1", "--domain=-1000,1000"], 3,
     "error: NonFinite: weighted average of exp(x) values is inf\n"),
    # x occurs twice: no chain, and the bisected value.
    (["expr:x^3+x", "--x", "0.5,1.5,3", "--w", "1,2,1"], 0, ""),
]


@pytest.mark.parametrize("args, code, err", REFUSALS, ids=[" ".join(a[:2]) for a, _, _ in REFUSALS])
def test_refused_chains_keep_exit_code_and_message(capsys, args, code, err):
    assert main(["compute", "mean", "--kind", "qa", "--generator", *args]) == code
    captured = capsys.readouterr()
    assert captured.err == err
    if code == 0:
        assert captured.out.strip().splitlines()[-1] == "2.007187665648644"


def _power_slopes(p: float, c: float = 0.0):
    """f' and f'' of (x + c)^p (log(x + c) at p = 0), as the catalog
    constructors wrote them before the catalog became chains."""
    if p == 0.0:
        return lambda x: 1.0 / (x + c), lambda x: -1.0 / ((x + c) * (x + c))
    return lambda x: p * math.pow(x + c, p - 1.0), lambda x: p * (p - 1.0) * math.pow(x + c, p - 2.0)


#: Catalog generators, their ``expr:`` spellings, and f' and f'' as the
#: hand-written catalog constructors computed them.
CATALOG_TWINS = [
    ("power:2", "expr:x^2", _power_slopes(2.0)),
    ("power:0.5", "expr:x^0.5", _power_slopes(0.5)),
    ("power:-1", "expr:x^-1", _power_slopes(-1.0)),
    ("power:3", "expr:x^3", _power_slopes(3.0)),
    ("log", "expr:log(x)", _power_slopes(0.0)),
    ("exp", "expr:exp(x)", (math.exp, math.exp)),
    ("cosh", "expr:cosh(x)", (math.sinh, math.cosh)),
    ("shifted_power:0.5,1", "expr:(x+1)^0.5", _power_slopes(0.5, 1.0)),
    ("shifted_power:0,1", "expr:log(x+1)", _power_slopes(0.0, 1.0)),
    ("shifted_power:2,-1", "expr:(x-1)^2", _power_slopes(2.0, -1.0)),
]
TWIN_IDS = [catalog for catalog, _, _ in CATALOG_TWINS]

#: Samples at which a twin fails or may fail: an overflowing entry, an
#: overflowing average, a hull that straddles 0 inside a widened domain,
#: tiny entries, and the hull where cosh(x) is 1.0 in floats (both twins
#: evaluate the core cosh1 there).
TWIN_SAMPLES = [
    ["--x", "700,710", "--w", "1,1"],
    ["--x", "709,0.5", "--w", "3,1", "--domain=-1000,1000"],
    ["--x=-1,0.5,1.5", "--w", "1,1,1", "--domain=-2,2"],
    ["--x", "1e-170,2e-170", "--w", "1,1"],
    ["--x=1e-9,2e-9", "--w", "1,1"],
]


def _qa(capsys, generator: str, sample: list[str]) -> tuple[int, str, str]:
    code = main(["compute", "mean", "--kind", "qa", "--generator", generator, *sample])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("sample", TWIN_SAMPLES, ids=[" ".join(s) for s in TWIN_SAMPLES])
@pytest.mark.parametrize("catalog, chain, slopes", CATALOG_TWINS, ids=TWIN_IDS)
def test_catalog_and_chain_twins_fail_alike(capsys, catalog, chain, slopes, sample):
    # One chain and one failure rule: the same exit code, error class and
    # mean, and on an entry that overflows the same line.
    code, out, err = _qa(capsys, catalog, sample)
    twin_code, twin_out, twin_err = _qa(capsys, chain, sample)
    assert code == twin_code, (err, twin_err)
    assert err.split(":")[:2] == twin_err.split(":")[:2]
    assert out.splitlines()[-1:] == twin_out.splitlines()[-1:]
    if catalog == "exp" and sample == TWIN_SAMPLES[0]:
        assert err == twin_err == "error: NonFinite: exp(710.0) overflowed\n"
    if catalog == "cosh" and sample == TWIN_SAMPLES[-1]:
        assert (code, out.splitlines()[-1]) == (0, repr(oracle.qa_mean([1e-9, 2e-9], [1.0, 1.0], "cosh")))


@pytest.mark.parametrize("catalog, chain, slopes", CATALOG_TWINS, ids=TWIN_IDS)
def test_catalog_twins_share_their_declarations_and_derivatives(catalog, chain, slopes):
    # The catalog generator is its chain: the same order ends, and f' and
    # f'' by the chain rule equal the constructors' analytic formulas, float
    # for float, for the catalog spec and its expr: twin alike.
    gen, twin = resolve_generator(catalog), resolve_generator(chain)
    assert gen.order_ends == twin.order_ends is not None
    for f in (gen, twin):
        for x in (1.3, 2.6, 4.1):
            assert (f.deriv1(x), f.deriv2(x)) == (slopes[0](x), slopes[1](x)), (f.name, x)


@pytest.mark.parametrize("domain", [positive_reals(), open_interval(0.0, 2.0), open_interval(0.05, 8.0)],
                         ids=["0,inf", "0,2", "0.05,8"])
@pytest.mark.parametrize("catalog, chain, slopes", CATALOG_TWINS, ids=TWIN_IDS)
def test_catalog_twins_have_one_qa_mean(catalog, chain, slopes, domain):
    # The same floats or the same error class on seeded samples, down to
    # the scales where cosh(x) rounds to 1.0 where the domain reaches 0, and
    # each value within the chains' qa budget of the mean of the generator
    # in decimal arithmetic, widened by the condition number of the
    # generator and of its chain's steps: exp(x) and log(x + 1) near 0 hold
    # x only to eps absolute, whatever the mean's inverse does.
    gen, twin = resolve_generator(catalog, domain), resolve_generator(chain, domain)
    f = TWINS_IN_DECIMAL[catalog]
    rng = random.Random(catalog)
    high = min(domain.hi, 8.0)
    for scale in (1.0, 1e-5, 1e-9) if domain.lo == 0.0 else (1.0,):
        for _ in range(10):
            n = rng.randint(2, 4)
            entries = [scale * rng.uniform(max(domain.lo, 0.0), high) for _ in range(n)]
            weights = [rng.uniform(0.1, 3.0) for _ in range(n)]
            sample = make_weighted_sample(entries, weights, domain)
            new, old = (_outcome(lambda g=g: quasiarithmetic_mean(sample, g)) for g in (gen, twin))
            assert new[0] == old[0] and (new[0] != "value" or new == old), (catalog, entries, new, old)
            if new[0] != "value":
                continue
            lo, hi, mean = min(entries), max(entries), new[1]
            increasing = gen.fn(lo) < gen.fn(hi)
            reference = oracle.qa_mean_by_bisection(entries, weights, f if increasing else lambda u: -f(u))
            kappa = max(abs(gen.fn(lo)), abs(gen.fn(hi))) / abs(mean * slopes[0](mean))
            inverse = gen.chain.inverse(lo, hi)
            if inverse is not None:  # log(x + 1) holds x only to eps absolute
                kappa = max(kappa, inverse.condition(mean)[0])
            bound = 1e-12 * hi + (CONDITION_LIMIT + 4 * sys.float_info.epsilon * kappa) * abs(mean)
            assert abs(mean - reference) <= bound, (catalog, entries, weights, mean, reference)


def _decimal_power(p: float, c: float = 0.0):
    q = Decimal(p)
    return (lambda u: (u + Decimal(c)).ln()) if p == 0.0 else (lambda u: (u + Decimal(c)) ** q)


#: The catalog generators in ``decimal`` arithmetic.
TWINS_IN_DECIMAL = {
    "power:2": _decimal_power(2.0),
    "power:0.5": _decimal_power(0.5),
    "power:-1": _decimal_power(-1.0),
    "power:3": _decimal_power(3.0),
    "log": _decimal_power(0.0),
    "exp": lambda u: u.exp(),
    "cosh": lambda u: (u.exp() + (-u).exp()) / 2,
    "shifted_power:0.5,1": _decimal_power(0.5, 1.0),
    "shifted_power:0,1": _decimal_power(0.0, 1.0),
    "shifted_power:2,-1": _decimal_power(2.0, -1.0),
}


def test_catalog_generator_on_a_widened_domain_leaves_its_inverse(capsys):
    # The certificate is the chain's, hull by hull: on negative entries of
    # a widened domain cosh1 decreases, and its inverse takes the negative
    # branch, not a hull end.
    entries, weights = [-1.8288326019084653, -2.25, -3.5, -2.75], [1.0, 2.0, 0.5, 1.5]
    sample = ["--domain=-5,1500", "--x=" + ",".join(map(repr, entries)), "--w=" + ",".join(map(repr, weights))]
    # cosh is even, so the mean on the negative entries is minus theirs.
    reference = -oracle.qa_mean([-x for x in entries], weights, "cosh")
    for generator in ("cosh", "expr:cosh(x)"):
        code, out, err = _qa(capsys, generator, sample)
        assert (code, err) == (0, "")
        assert oracle.ulps(float(out.splitlines()[-1]), reference) <= 4, generator


def test_difference_kernel_whose_average_overflows_takes_the_sign_scan(capsys):
    # The weighted average of exp values overflows, so the closed form fails
    # and the sign scan locates the root, as for expr:exp(x)-exp(y).
    for kernel in ("diff_gen:exp", "expr:exp(x)-exp(y)"):
        argv = ["compute", "mean", "--kind", "deviation", "--kernel", kernel, "--x", "709,709.5", "--w", "3,3"]
        assert main([*argv, "--domain=-1000,1000"]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "709.2809298036154"


@pytest.mark.parametrize("catalog, chain", [("cosh", "expr:cosh(x)"), ("exp", "expr:exp(x)")])
def test_chain_envelope_costs_what_its_catalog_twin_costs(catalog, chain):
    # Each mean evaluation toward the overflowing end fails at the entries,
    # without the 64-point probe a refused certificate runs.
    sample = make_weighted_sample([0.5, 1.5, 3.0], [1.0, 1.0, 1.0], positive_reals())
    counts = []
    for spec in (catalog, chain):
        gen = resolve_generator(spec)
        calls = []
        envelope_pair(quasiarithmetic_handle(_counted(gen, calls)), sample)
        counts.append(len(calls))
    assert counts[1] == counts[0], counts


@pytest.mark.parametrize(
    "text, order",
    [
        ("x^2", 2.0),
        ("sqrt(x)", 0.5),
        ("x^3", 3.0),
        ("log(x)", 0.0),
        ("1/x", -1.0),
        ("3*x^2+1", 2.0),
        ("2-log(x)", 0.0),
        ("2*x+1", 1.0),
        ("x", 1.0),
    ],
)
def test_power_type_chains_declare_their_order(text, order):
    assert scalar_from_expression(text, positive_reals()).order_ends == (order, order)


@pytest.mark.parametrize(
    "text, ends",
    [
        ("(x+1)^2", (1.0, 2.0)),  # a shifted power
        ("(2*x+1)^2", None),  # a scaling before the shift
        ("(x+1)^2*0+1", None),  # * 0 is not affine
        ("x^2*0+1", None),  # * 0 is not affine
        ("exp(x)", (1.0, math.inf)),
        ("cosh(x)", (2.0, math.inf)),
        ("2^x", (1.0, math.inf)),
        ("x^3+x", None),  # x occurs twice: no chain
        ("x*x", None),
    ],
)
def test_other_generators_declare_their_shape(text, ends):
    assert scalar_from_expression(text, positive_reals()).order_ends == ends


@pytest.mark.parametrize("text", ["x^2", "exp(x)", "cosh(x)", "sqrt(x)"])
def test_the_declaration_is_the_same_on_every_domain(text):
    # It describes the generator on (0, inf), which every consumer keeps to.
    ends = scalar_from_expression(text, positive_reals()).order_ends
    for domain in (open_interval(0.0, 5.0), open_interval(-2.0, 2.0), all_reals()):
        assert scalar_from_expression(text, domain).order_ends == ends
        gen = dataclasses.replace(resolve_generator(f"expr:{text}"), domain=domain)
        assert gen.order_ends == ends


#: Power-like first steps of a chain and the order q each gives.
POWER_STEPS = {"pow": None, "rdiv": -1.0, "sqrt": 0.5, "log": 0.0}

#: Affine steps u -> a u + b with a != 0.
AFFINE_STEPS = ("add", "sub", "rsub", "mul", "div", "neg")


def _random_power_chain(rng: random.Random) -> tuple[str, float]:
    """Text of a chain a x^q + b (a log x + b at q = 0): an optional
    power-like step, then 0 to 4 affine steps; and its q."""
    text, q = "x", 1.0
    kind = rng.choice([*POWER_STEPS, "none"])
    if kind != "none":
        c, c_text = _constant(rng, kind) if kind in ("pow", "rdiv") else (0.0, "")
        text = STEPS[kind][0].format(u=text, c=c_text)
        q = c if kind == "pow" else POWER_STEPS[kind]
    for _ in range(rng.randint(0, 4)):
        kind = rng.choice(AFFINE_STEPS)
        c, c_text = _constant(rng, kind) if kind != "neg" else (0.0, "")
        text = STEPS[kind][0].format(u=text, c=c_text)
    return text, q


@pytest.mark.parametrize("seed", [7, 8])
def test_declared_chains_have_the_power_mean_of_their_order(seed):
    # The qa mean of a x^q + b is P_q: within the chains' qa budget of it.
    rng = random.Random(seed)
    for _ in range(100):
        text, q = _random_power_chain(rng)
        gen = scalar_from_expression(text, positive_reals())
        assert gen.order_ends == (q, q), text
        n = rng.randint(2, 6)
        entries = [rng.uniform(0.05, 8.0) for _ in range(n)]
        weights = [rng.uniform(0.1, 3.0) for _ in range(n)]
        mean = quasiarithmetic_mean(make_weighted_sample(entries, weights, positive_reals()), gen)
        lo, hi = min(entries), max(entries)
        bound = 1e-12 * max(abs(lo), abs(hi)) + CONDITION_LIMIT * abs(mean)
        reference = oracle.power_mean(entries, weights, q)
        assert abs(mean - reference) <= bound, (text, entries, weights, mean, reference)


def test_a_refused_certificate_evaluates_each_entry_once():
    # exp(x + 1e10 - 1e10) inverts with kappa ~ 1e10, so the closed form is
    # refused after the entries; the bisection reuses their values and
    # average: 3 entries, the 64-point probe and 39 halvings of [1, 2]
    # down to 2e-12.
    gen = scalar_from_expression("exp((x+1e10)-1e10)", positive_reals())
    calls = []
    sample = make_weighted_sample([1.0, 2.0, 1.5], [1.0, 1.0, 1.0], positive_reals())
    mean = quasiarithmetic_mean(sample, _counted(gen, calls))
    assert calls[:3] == [1.0, 2.0, 1.5]
    assert len(calls) <= 106
    assert mean == quasiarithmetic_mean(sample, _bisected(gen))


#: Each row of the declaration table: a generator spec and its order ends
#: (p(0+), p(inf)), p(u) = u f''(u)/f'(u) + 1 on the part of the catalog
#: domain inside (0, inf).
DECLARATIONS = [
    ("power:-1", (-1.0, -1.0)),
    ("power:0.5", (0.5, 0.5)),
    ("power:3", (3.0, 3.0)),
    ("log", (0.0, 0.0)),
    ("exp", (1.0, math.inf)),
    ("cosh", (2.0, math.inf)),
    ("shifted_power:2,0", (2.0, 2.0)),
    ("shifted_power:1,2", (1.0, 1.0)),
    ("shifted_power:1,-1", (1.0, 1.0)),
    ("shifted_power:0.5,1", (1.0, 0.5)),
    ("shifted_power:3,0.5", (1.0, 3.0)),
    ("shifted_power:0,1", (1.0, 0.0)),
    ("shifted_power:2,-1", (math.inf, 2.0)),
    ("shifted_power:0.5,-1", (-math.inf, 0.5)),
    ("shifted_power:0,-1", (-math.inf, 0.0)),
    ("identity", (1.0, 1.0)),
    ("expr:2*x+1", (1.0, 1.0)),
    ("expr:-x/3", (1.0, 1.0)),
    ("expr:3*x^2+1", (2.0, 2.0)),
    ("expr:x^-0.5", (-0.5, -0.5)),
    ("expr:1/x", (-1.0, -1.0)),
    ("expr:sqrt(x)-4", (0.5, 0.5)),
    ("expr:2-log(x)", (0.0, 0.0)),
    ("expr:exp(2*x)+1", (1.0, math.inf)),
    ("expr:3*exp(-x)", (1.0, -math.inf)),
    ("expr:exp(1-x/2)", (1.0, -math.inf)),
    ("expr:2^x", (1.0, math.inf)),
    ("expr:0.5^x", (1.0, -math.inf)),
    ("expr:0.5^(-x)", (1.0, math.inf)),
    ("expr:5*cosh(3*x)", (2.0, math.inf)),
    ("expr:-cosh(x/2)", (2.0, math.inf)),
    ("expr:sinh(x)-1", (1.0, math.inf)),
    ("expr:2*sinh(-x)", (1.0, math.inf)),
]


def _order_operator(gen, u: float) -> float:
    """p(u) = u f''(u)/f'(u) + 1: from the catalog's analytic derivatives,
    or from central differences with the step 0.03 u: long enough that
    rounding does not reverse p's direction where f is flat near 0, and it
    leaves p of x^q independent of u."""
    if gen.deriv1 is not None:
        return u * gen.deriv2(u) / gen.deriv1(u) + 1.0
    h = 0.03 * u
    low, mid, high = gen.fn(u - h), gen.fn(u), gen.fn(u + h)
    return u * ((high - 2.0 * mid + low) / (h * h)) / ((high - low) / (2.0 * h)) + 1.0


def _reaches(value: float, end: float, tol: float) -> bool:
    """Whether ``value`` is within ``tol`` of a finite end, or past 10 on
    the side of an infinite one."""
    return abs(value - end) <= tol if math.isfinite(end) else value * math.copysign(1.0, end) > 10.0


@pytest.mark.parametrize("spec, ends", DECLARATIONS, ids=[spec for spec, _ in DECLARATIONS])
def test_declared_ends_bound_the_order_operator(spec, ends):
    # On u from 1e-3 (past the lower end of the domain, for c < 0) to 50: p
    # is monotone, starts within 1e-2 of the first end and ends within 0.1
    # of the second, or past 10 on the side of an infinite end.
    gen = arithmetic_kernel().structure.f if spec == "identity" else resolve_generator(spec)
    assert gen.order_ends == ends
    start = max(gen.domain.lo, 0.0) + 1e-3
    us = [start * (50.0 / start) ** (k / 199) for k in range(200)]
    ps = [_order_operator(gen, u) for u in us]
    rises = all(b >= a - 1e-6 * (1.0 + abs(a)) for a, b in zip(ps, ps[1:]))
    falls = all(b <= a + 1e-6 * (1.0 + abs(a)) for a, b in zip(ps, ps[1:]))
    assert rises or falls, ps
    assert _reaches(ps[0], ends[0], 1e-2), ps[0]
    assert _reaches(ps[-1], ends[1], 0.1), ps[-1]


def test_infinite_powers_declare_nothing():
    assert resolve_generator("power:inf").order_ends is None
    assert resolve_generator("power:-inf").order_ends is None
