import dataclasses
import math
import random
from fractions import Fraction

import pytest

from meankit import (
    catalog_generator,
    ScalarFunction,
    common_power_order,
    local_power_order,
    make_weighted_sample,
    power_mean,
    qa_local_homogenization,
    quasiarithmetic_mean,
    scalar_from_expression,
    scaling_ratio_limit,
)
from meankit.classic_means import MONOTONE_PROBE_POINTS, bisect
from meankit.domain import open_interval, positive_reals
from meankit.errors import (
    Diverged,
    GeneratorNotMonotone,
    NonFinite,
    NonPositiveEntry,
    VanishingFirstDerivative,
)

POS = positive_reals()


def _sample(entries, weights):
    return make_weighted_sample(entries, weights, POS)


def _random_samples(seed, count, lo=0.2, hi=6.0, n_max=6, weight_hi=3.0, domain=POS):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(1, n_max)
        out.append(
            make_weighted_sample(
                [rng.uniform(lo, hi) for _ in range(n)],
                [rng.uniform(0.1, weight_hi) for _ in range(n)],
                domain,
            )
        )
    return out


class TestPowerMean:
    def test_arithmetic(self):
        assert power_mean(_sample([2, 4], [1, 1]), 1) == pytest.approx(3.0, abs=1e-14)

    def test_geometric(self):
        assert power_mean(_sample([1, 4], [1, 1]), 0) == pytest.approx(2.0, abs=1e-12)

    def test_min_respects_zero_weights(self):
        assert power_mean(_sample([3, 5, 2], [1, 0, 1]), -math.inf) == 2.0
        assert power_mean(_sample([3, 5, 2], [1, 0, 1]), math.inf) == 3.0

    def test_quadratic(self):
        assert power_mean(_sample([1, 7], [1, 1]), 2) == pytest.approx(5.0, abs=1e-12)

    def test_rejects_nonpositive_entries(self):
        s = make_weighted_sample([-1, 2], [1, 1], open_interval(-5, 5))
        with pytest.raises(NonPositiveEntry):
            power_mean(s, 2)

    def test_rejects_nan_exponent(self):
        with pytest.raises(ValueError):
            power_mean(_sample([1, 2], [1, 1]), math.nan)

    def test_overflowing_power_sum_is_rescaled(self):
        # The terms x^p overflow or underflow to 0; the means do not.
        assert power_mean(_sample([1e200, 1e200], [1, 1]), 4) == 1e200
        assert power_mean(_sample([1e200, 1], [1, 1]), 2) == pytest.approx(
            1e200 / math.sqrt(2.0), rel=1e-15
        )
        assert power_mean(_sample([1e-200, 1], [1, 1]), -2) == pytest.approx(
            math.sqrt(2.0) * 1e-200, rel=1e-15
        )
        assert power_mean(_sample([3e-200, 4e-200], [1, 1]), 2) == pytest.approx(
            math.sqrt(12.5) * 1e-200, rel=1e-15
        )

    def test_power_sum_degenerate_after_rescaling_is_nonfinite(self):
        from meankit.errors import NonFinite

        # Rescaled, the only nonzero term is 5e-324 and its average rounds to 0.
        with pytest.raises(NonFinite):
            power_mean(_sample([1e200, 1e-200], [5e-324, 2]), 4)

    def test_finite_power_sums_keep_their_bits(self):
        for s in _random_samples(40, 60, lo=1e-3, hi=1e3):
            for p in (-3.0, -1.0, 0.5, 2.0, 3.0):
                terms = [w * math.pow(x, p) for x, w in zip(s.entries, s.weights)]
                unscaled = math.pow(math.fsum(terms) / s.total_weight(), 1.0 / p)
                assert power_mean(s, p).hex() == unscaled.hex()

    def test_monotone_in_exponent(self):
        exponents = [-math.inf, -2, 0, 1, 2, math.inf]
        for s in _random_samples(41, 60):
            values = [power_mean(s, p) for p in exponents]
            for a, b in zip(values, values[1:]):
                assert a <= b + 1e-10 * (1 + abs(b))

    def test_strictly_increasing_in_exponent_for_distinct_entries(self):
        s = _sample([1, 2, 5], [1, 1, 1])
        values = [power_mean(s, p) for p in (-2, 0, 1, 2, 3)]
        for a, b in zip(values, values[1:]):
            assert a < b


class TestQuasiarithmetic:
    def test_log_generator_matches_geometric(self):
        assert quasiarithmetic_mean(_sample([1, 4], [1, 1]), catalog_generator("log")) == pytest.approx(
            2.0, abs=1e-10
        )

    def test_square_generator_matches_quadratic(self):
        assert quasiarithmetic_mean(_sample([1, 7], [1, 1]), catalog_generator("power", 2)) == pytest.approx(
            5.0, abs=1e-10
        )

    def test_constant_sample_short_circuits(self):
        s = _sample([2.5, 2.5, 2.5], [1, 2, 3])
        assert quasiarithmetic_mean(s, catalog_generator("exp")) == 2.5

    def test_matches_power_mean_for_power_generators(self):
        for s in _random_samples(7, 40):
            for p in (-2.0, -0.5, 0.0, 0.5, 1.0, 2.0, 3.0):
                qa = quasiarithmetic_mean(s, catalog_generator("power", p))
                pm = power_mean(s, p)
                assert abs(qa - pm) <= 1e-10 * (1 + abs(pm))

    def test_non_monotone_generator_rejected(self):
        wiggle = scalar_from_expression("x*x", open_interval(-2, 2))
        s = make_weighted_sample([-1, 1], [1, 1], open_interval(-2, 2))
        with pytest.raises(GeneratorNotMonotone):
            quasiarithmetic_mean(s, wiggle)

    def test_spike_between_probe_points_raises_solver_failure(self):
        from meankit.errors import SolverFailure

        # Increasing at all 64 probe points of the hull [0.5, 1.5], but with a
        # spike at the entry 1.0, half a probe step from its neighbours: the
        # generator average escapes the endpoint range, which the solver must
        # report rather than return a bogus root.
        spiky = ScalarFunction(
            "spiky",
            lambda x: x + 100.0 * math.exp(-(((x - 1.0) / 1e-4) ** 2)),
            open_interval(0, 2),
        )
        s = make_weighted_sample([0.5, 1.0, 1.5], [1, 1, 1], open_interval(0, 2))
        with pytest.raises(SolverFailure):
            quasiarithmetic_mean(s, spiky)

    def test_hull_ends_are_evaluated_once(self):
        # The generator is called on its probe grid, for the direction, then
        # at each entry once, and the bisection only strictly inside the hull.
        calls = []

        def square(x):
            calls.append(x)
            return x * x

        gen = ScalarFunction("square", square, POS)
        entries = [2.0, 0.5, 3.0, 1.25]
        assert quasiarithmetic_mean(_sample(entries, [1, 2, 1, 1]), gen) == pytest.approx(
            math.sqrt((4.0 + 0.5 + 9.0 + 1.5625) / 5.0), rel=1e-11
        )
        head = calls[:MONOTONE_PROBE_POINTS]
        assert calls[: len(head) + len(entries)] == head + entries
        assert all(0.5 < y < 3.0 for y in calls[len(head) + len(entries) :])

    def test_mean_value_property(self):
        for s in _random_samples(13, 50):
            v = quasiarithmetic_mean(s, catalog_generator("cosh"))
            lo, hi = s.hull()
            assert lo - 1e-12 <= v <= hi + 1e-12


#: Catalog generators that declare an inverse, each with an entry range in
#: its domain.
INVERTIBLE = [
    (catalog_generator("power", 2), (0.2, 6.0)),
    (catalog_generator("power", 0.5), (0.2, 6.0)),
    (catalog_generator("power", 0), (0.2, 6.0)),
    (catalog_generator("power", -1), (0.2, 6.0)),
    (catalog_generator("power", 3), (0.2, 6.0)),
    (catalog_generator("exp"), (-4.0, 4.0)),
    (catalog_generator("cosh"), (0.05, 4.0)),
    (catalog_generator("shifted_power", 0.5, 1.0), (-0.9, 3.0)),
    (catalog_generator("shifted_power", 0.0, 1.0), (-0.9, 3.0)),
]


def _bisection(gen: ScalarFunction) -> ScalarFunction:
    """The same generator without its ``chain``: its means are bisected."""
    return dataclasses.replace(gen, chain=None)


class TestClosedForm:
    @pytest.mark.parametrize("gen, bounds", INVERTIBLE, ids=[g.name for g, _ in INVERTIBLE])
    def test_matches_the_bisection(self, gen, bounds):
        assert gen.chain is not None
        for s in _random_samples(len(gen.name), 60, *bounds, domain=gen.domain):
            closed = quasiarithmetic_mean(s, gen)
            solved = quasiarithmetic_mean(s, _bisection(gen))
            lo, hi = s.hull()
            assert lo <= closed <= hi
            assert abs(closed - solved) <= 1e-11 * max(abs(lo), abs(hi)), (gen.name, s)

    @pytest.mark.parametrize("p", [-1, 1, 2, 3])
    def test_integer_exponents_against_exact_rationals(self, p):
        # The exact power average A is a rational; the mean y solves y^p = A.
        # Within 1e-15 relative means (y (1 - d))^p and (y (1 + d))^p, in
        # exact arithmetic, bracket A for d = 1e-15; bisection to a relative
        # 1e-12 would not.
        d = Fraction(1, 10**15)
        gen = catalog_generator("power", p)
        for s in _random_samples(61 + p, 80):
            y = Fraction(quasiarithmetic_mean(s, gen))
            a = sum(Fraction(w) * Fraction(x) ** p for x, w in zip(s.entries, s.weights))
            a /= sum(Fraction(w) for w in s.weights)
            ends = sorted((((1 - d) * y) ** p, ((1 + d) * y) ** p))
            assert ends[0] <= a <= ends[1], (p, s)

    def test_geometric_mean_is_multiplicative(self):
        # G(x y) = G(x) G(y) for entrywise products under shared weights.
        rng = random.Random(67)
        log = catalog_generator("log")
        for _ in range(200):
            n = rng.randint(2, 6)
            weights = [rng.uniform(0.1, 3.0) for _ in range(n)]
            xs = [rng.uniform(0.2, 6.0) for _ in range(n)]
            ys = [rng.uniform(0.2, 6.0) for _ in range(n)]
            gx, gy, gxy = (
                quasiarithmetic_mean(_sample(e, weights), log)
                for e in (xs, ys, [a * b for a, b in zip(xs, ys)])
            )
            assert abs(gxy - gx * gy) <= 1e-14 * gx * gy, (xs, ys, weights)

    @pytest.mark.parametrize("x", [710.5, 711.0, 711.2, 1419.9, 1420.0, 1420.9, 1425.0])
    def test_cosh_stored_form_raises_instead_of_overflowing(self, x):
        # 2 sinh(x/2)^2: near 710.5 only the doubling overflows, which gives
        # inf without an exception; past 711.2 the square, past 1420.4 sinh.
        with pytest.raises(NonFinite):
            catalog_generator("cosh").fn(x)

    @pytest.mark.parametrize("x", [1e-150, 1e-9, 0.5, 30.0, 700.0, 710.4])
    def test_cosh_stored_form_is_cosh_minus_one(self, x):
        # Against the series and cosh itself where each is accurate.
        want = x * x / 2 * (1 + x * x / 12) if x < 1e-4 else math.cosh(x) - 1
        assert catalog_generator("cosh").fn(x) == pytest.approx(want, rel=1e-15)

    @pytest.mark.parametrize(
        "gen, entries, weights",
        [
            (catalog_generator("cosh"), [710.0, 1.0], [3.0, 1.0]),
            (catalog_generator("exp"), [709.0, 0.0], [3.0, 1.0]),
            (catalog_generator("power", 2), [1e154, 1e153], [2.0, 1.0]),
        ],
        ids=["cosh", "exp", "power(2)"],
    )
    def test_overflowing_average_raises_instead_of_clamping(self, gen, entries, weights):
        # Every generator value is finite but the weighted sum is not: the
        # upper hull end would be a plausible wrong mean.
        s = make_weighted_sample(entries, weights, gen.domain)
        with pytest.raises(NonFinite):
            quasiarithmetic_mean(s, gen)


class TestLocalPowerOrder:
    def test_power_generator_has_constant_order(self):
        rng = random.Random(5)
        for p in (-2.0, 0.5, 1.0, 3.0):
            gen = catalog_generator("power", p)
            for _ in range(20):
                x = rng.uniform(0.1, 10.0)
                assert local_power_order(gen, x) == pytest.approx(p, abs=1e-7)

    def test_exponential_order_is_x_plus_one(self):
        gen = catalog_generator("exp")
        for x in (0.1, 1.0, 2.5):
            assert local_power_order(gen, x) == pytest.approx(x + 1.0, abs=1e-7)

    def test_cosh_order_near_two(self):
        # Oracle: x * coth(x) + 1 evaluated directly.
        x = 0.01
        oracle = x * (math.cosh(x) / math.sinh(x)) + 1.0
        value = local_power_order(catalog_generator("cosh"), x)
        assert value == pytest.approx(oracle, abs=1e-9)
        assert value == pytest.approx(2.0, abs=1e-3)

    def test_vanishing_first_derivative_guard(self):
        # cosh is even, so its central difference at 0 is exactly zero.
        even = scalar_from_expression("cosh(x)", open_interval(-1, 1))
        with pytest.raises(VanishingFirstDerivative):
            local_power_order(even, 0.0)


class TestComparison:
    def test_comparison_implies_mean_order(self):
        # log''/log' = -1/x <= 0 = x''/x' on the whole domain, which forces
        # the mean order on every sample drawn from it.
        f, g = catalog_generator("log"), catalog_generator("power", 1)
        for s in _random_samples(23, 1000, lo=0.2, hi=9.0):
            qa_f = quasiarithmetic_mean(s, f)
            qa_g = quasiarithmetic_mean(s, g)
            assert qa_f <= qa_g + 1e-9 * (1 + abs(qa_g))

    def test_order_operator_bounds_sandwich_the_mean(self):
        # On (0, 2) the exponential generator's order lies in [1, 3], so the
        # mean is sandwiched between the power means of those orders.
        dom = open_interval(0, 2)
        gen = dataclasses.replace(catalog_generator("exp"), domain=dom)
        orders = [local_power_order(gen, x) for x in [0.01 + 0.02 * k for k in range(100)]]
        q, p = min(orders), max(orders)
        rng = random.Random(31)
        for _ in range(100):
            n = rng.randint(1, 5)
            entries = [rng.uniform(0.05, 1.9) for _ in range(n)]
            weights = [rng.uniform(0.1, 3.0) for _ in range(n)]
            s = make_weighted_sample(entries, weights, dom)
            qa = quasiarithmetic_mean(s, gen)
            s_pos = make_weighted_sample(entries, weights, POS)
            assert power_mean(s_pos, q) - 1e-8 <= qa <= power_mean(s_pos, p) + 1e-8


class TestQaLocalHomogenization:
    def test_cosh_order_limit_is_two(self):
        est = qa_local_homogenization(catalog_generator("cosh"))
        assert est.estimate == pytest.approx(2.0, abs=1e-4)
        assert common_power_order(est) == pytest.approx(2.0, abs=1e-4)

    def test_exp_order_limit_is_one(self):
        est = qa_local_homogenization(dataclasses.replace(catalog_generator("exp"), domain=POS))
        assert est.estimate == pytest.approx(1.0, abs=1e-4)

    def test_power_generator_recovers_exponent(self):
        for p in (-2.0, 0.5, 1.0, 3.0):
            est = qa_local_homogenization(catalog_generator("power", p))
            assert est.converged
            assert est.estimate == pytest.approx(p, abs=1e-6)

    def test_shifted_power_limit_is_one(self):
        est = qa_local_homogenization(dataclasses.replace(catalog_generator("shifted_power", 0.5, 1.0), domain=POS))
        assert est.estimate == pytest.approx(1.0, abs=1e-4)

    def test_requires_zero_infimum(self):
        with pytest.raises(ValueError):
            qa_local_homogenization(catalog_generator("exp"))

    def test_divergent_order_operator_reported(self):
        from meankit import ScalarFunction

        # Stub with analytic derivatives chosen so the order operator is
        # 1/x^2 + 1, which escapes every bounded window at 0+.
        stub = ScalarFunction(
            "order-blowup",
            lambda x: x,
            POS,
            deriv1=lambda x: 1.0,
            deriv2=lambda x: x**-3.0,
        )
        with pytest.raises(Diverged):
            qa_local_homogenization(stub)


class TestScalingRatioLimit:
    def test_power_generator_closed_form(self):
        # Oracle: ((x^p - 1) / (2^p - 1)) by direct algebra.
        for p in (-1.0, 0.5, 2.0, 3.0):
            gen = catalog_generator("power", p)
            for x in (0.5, 3.0, 8.0):
                expected = (x**p - 1.0) / (2.0**p - 1.0)
                est = scaling_ratio_limit(gen, x)
                assert est.estimate == pytest.approx(expected, abs=1e-9 * (1 + abs(expected)))

    def test_log_generator_gives_base_two_log(self):
        est = scaling_ratio_limit(catalog_generator("log"), 8.0)
        assert est.estimate == pytest.approx(3.0, abs=1e-9)

    def test_cosh_generator_taylor_limit(self):
        # Oracle: the ratio evaluated directly at a small t (1e-4 keeps the
        # cosh differences above the float cancellation floor).
        t = 1e-4
        oracle = (math.cosh(3 * t) - math.cosh(t)) / (math.cosh(2 * t) - math.cosh(t))
        est = scaling_ratio_limit(catalog_generator("cosh"), 3.0)
        assert oracle == pytest.approx(8.0 / 3.0, abs=1e-5)
        assert est.estimate == pytest.approx(8.0 / 3.0, abs=1e-5)

    def test_monotone_and_continuous_in_x_on_probe_grid(self):
        # The limit profile must be strictly monotone in x for a power-scale
        # limit to exist; probe on a grid.
        gen = catalog_generator("cosh")
        xs = [0.25 + 0.25 * k for k in range(12)]
        values = [scaling_ratio_limit(gen, x).estimate for x in xs]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_blowup_reported_as_diverged(self):
        # For f = exp(-1/x) the ratio behaves like exp(1/(6t)) at x = 3.
        gen = scalar_from_expression("exp(0 - 1/x)", POS)
        with pytest.raises(Diverged):
            scaling_ratio_limit(gen, 3.0)

    def test_degenerate_denominator_reported(self):
        from meankit import ScalarFunction
        from meankit.errors import DegenerateDenominator

        flat = ScalarFunction("flat", lambda x: 7.0, POS)
        with pytest.raises(DegenerateDenominator):
            scaling_ratio_limit(flat, 3.0)

    def test_oscillating_generator_does_not_converge(self):
        from meankit import ScalarFunction

        # Strictly increasing (f' in [2 - sqrt 2, 2 + sqrt 2]) but with a
        # log-periodic wobble, so the scaling ratio has no limit at 0.
        wobble = ScalarFunction(
            "wobble",
            lambda x: x * (2.0 + math.sin(math.log(x))),
            POS,
        )
        est = scaling_ratio_limit(wobble, 3.0)
        assert not est.converged
        assert est.spread > 0.01


def test_scan_defaults_by_value():
    # Literal numbers, so that a changed default constant fails here.
    for est in (qa_local_homogenization(catalog_generator("power", 2.0)), scaling_ratio_limit(catalog_generator("power", 2.0), 3.0)):
        assert (est.window, est.tol) == (8, 1e-6)


def test_bisect_stops_after_200_halvings():
    midpoints = []
    bisect(0.0, 1e300, lambda y: midpoints.append(y) or False, 0.0)
    assert len(midpoints) == 200
