import dataclasses
import math
import random
import re

import pytest

from meankit import (
    catalog_generator,
    MeanKind,
    SemidevMeanConfig,
    arithmetic_kernel,
    check_semideviation,
    deviation_mean,
    deviation_sum,
    difference_kernel,
    kernel_from_expression,
    make_weighted_sample,
    normalize_kernel,
    quasiarithmetic_mean,
    ratio_kernel,
    scalar_from_expression,
    semideviation_mean,
    semideviation_means,
    sign_kernel,
)
import meankit.semideviation as semideviation
from meankit.cli import resolve_kernel
from meankit.domain import all_reals, open_interval, positive_reals, sign
from meankit.classic_means import CONDITION_LIMIT
from meankit.errors import (
    AmbiguousClassification,
    KernelEvaluationError,
    MeanKitError,
    NoSignChange,
    NonFinite,
    NotNormalizable,
)
from meankit.expr import Difference, Kernel2, Ratio, ScalarFunction, Sign
from meankit.homogenize import homogenization_profile, ratio_kernel_from_profile
from meankit.verify import minkowski_preset

import oracle
from conftest import COSH_TABLE, numeric_profile_kernel
from test_qa_chains import _random_chain

POS = positive_reals()
REALS = all_reals()
KINDS = list(MeanKind)


def test_deviation_sum_linear_kernel():
    # K = x - y, entries (1, 5), weights (1, 3): sum is 16 - 4 y.
    s = make_weighted_sample([1, 5], [1, 3], REALS)
    d = deviation_sum(arithmetic_kernel(), s)
    for y in (0.0, 1.0, 4.0, 6.5):
        assert d(y) == pytest.approx(16.0 - 4.0 * y, abs=1e-12)


def test_deviation_sum_sign_kernel():
    s = make_weighted_sample([1, 3], [1, 1], REALS)
    d = deviation_sum(sign_kernel(), s)
    assert d(2.0) == 0.0
    assert d(0.0) == 2.0
    assert d(4.0) == -2.0


def test_deviation_sum_single_entry():
    s = make_weighted_sample([2.0], [3.0], REALS)
    d = deviation_sum(arithmetic_kernel(), s)
    assert d(2.0) == 0.0
    assert d(1.0) == 3.0


def test_deviation_sum_reports_offending_pair():
    bad = kernel_from_expression("log(x - y)", REALS)
    s = make_weighted_sample([1, 3], [1, 1], REALS)
    d = deviation_sum(bad, s)
    with pytest.raises(KernelEvaluationError):
        d(2.0)


class TestSignKernelMedians:
    def test_two_point_plateau(self):
        s = make_weighted_sample([1, 3], [1, 1], REALS)
        S = sign_kernel()
        assert semideviation_mean(S, s, MeanKind.LOWER_WEAK) == pytest.approx(1.0, abs=1e-10)
        assert semideviation_mean(S, s, MeanKind.UPPER_STRICT) == pytest.approx(1.0, abs=1e-10)
        assert semideviation_mean(S, s, MeanKind.LOWER_STRICT) == pytest.approx(3.0, abs=1e-10)
        assert semideviation_mean(S, s, MeanKind.UPPER_WEAK) == pytest.approx(3.0, abs=1e-10)

    def test_three_point_median(self):
        s = make_weighted_sample([1, 2, 3], [1, 1, 1], REALS)
        for kind in KINDS:
            assert semideviation_mean(sign_kernel(), s, kind) == pytest.approx(2.0, abs=1e-10)

    def test_weighted_median(self):
        s = make_weighted_sample([1, 3], [1, 2], REALS)
        for kind in KINDS:
            assert semideviation_mean(sign_kernel(), s, kind) == pytest.approx(3.0, abs=1e-10)


def test_linear_kernel_mean_is_weighted_average():
    s = make_weighted_sample([1, 5], [1, 3], REALS)
    for kind in KINDS:
        assert semideviation_mean(arithmetic_kernel(), s, kind) == pytest.approx(4.0, abs=1e-10)


def test_cosh_kernel_matches_quasiarithmetic_closed_form():
    s = make_weighted_sample([1, 7], [1, 1], POS)
    kernel = difference_kernel(catalog_generator("cosh"))
    expected = math.acosh((math.cosh(1) + math.cosh(7)) / 2.0)
    for kind in KINDS:
        assert semideviation_mean(kernel, s, kind) == pytest.approx(expected, abs=1e-10)


def test_constant_sample_short_circuits():
    s = make_weighted_sample([2, 2, 2], [1, 2, 3], REALS)
    counting = Kernel2("count", lambda x, y: 1 / 0, REALS, REALS)  # must never be called
    assert semideviation_mean(counting, s, MeanKind.LOWER_WEAK) == 2.0


class TestNormalize:
    def test_cosh_kernel_normalization_closed_form(self):
        kernel = difference_kernel(catalog_generator("cosh"))
        scaled = normalize_kernel(kernel)
        rng = random.Random(2)
        for _ in range(50):
            x, y = rng.uniform(0.2, 5), rng.uniform(0.2, 5)
            expected = (math.cosh(x) - math.cosh(y)) / math.sinh(y)
            assert scaled(x, y) == pytest.approx(expected, rel=1e-12)

    def test_arithmetic_kernel_is_fixed_point(self):
        kernel = arithmetic_kernel()
        scaled = normalize_kernel(kernel)
        for x, y in ((1.0, 2.0), (-3.0, 5.0), (0.5, 0.25)):
            assert scaled(x, y) == pytest.approx(kernel(x, y), abs=1e-12)

    def test_square_kernel_normalization(self):
        scaled = normalize_kernel(difference_kernel(catalog_generator("power", 2)))
        rng = random.Random(3)
        for _ in range(50):
            x, y = rng.uniform(0.2, 5), rng.uniform(0.2, 5)
            assert scaled(x, y) == pytest.approx((x * x - y * y) / (2 * y), rel=1e-12)

    def test_diagonal_slope_is_minus_one(self):
        scaled = normalize_kernel(difference_kernel(catalog_generator("cosh")))
        for y in (0.3, 1.0, 2.7, 6.0):
            assert oracle.central_difference(lambda v: scaled(y, v), y) == pytest.approx(-1.0, abs=1e-5)

    def test_normalizing_a_normalized_kernel_returns_it(self):
        for kernel in (difference_kernel(catalog_generator("power", 2)), kernel_from_expression("x^3-y^3", POS)):
            scaled = normalize_kernel(kernel)
            assert normalize_kernel(scaled) is scaled

    def test_idempotent_within_tolerance(self):
        scaled = normalize_kernel(difference_kernel(catalog_generator("power", 2)))
        twice = normalize_kernel(scaled)
        rng = random.Random(4)
        for _ in range(30):
            x, y = rng.uniform(0.3, 4), rng.uniform(0.3, 4)
            assert abs(twice(x, y) - scaled(x, y)) <= 1e-9 * (1 + abs(scaled(x, y)))

    def test_slope_memo_keeps_quotients_and_evaluates_each_y_once(self, monkeypatch):
        kernel = difference_kernel(catalog_generator("cosh"))
        scaled = normalize_kernel(kernel)
        slopes = []
        diagonal_slope = semideviation._diagonal_slope

        def slope(k, y):
            slopes.append(y)
            return diagonal_slope(k, y)

        monkeypatch.setattr(semideviation, "_diagonal_slope", slope)
        monkeypatch.setattr(semideviation, "SLOPE_MEMO_SIZE", 8)
        ys = [0.25 * j for j in range(1, 11)]
        for x in (0.5, 2.0, 4.5):
            for y in ys:
                assert scaled(x, y) == kernel.fn(x, y) / -diagonal_slope(kernel, y)
        # Capped at 8 entries, the memo is emptied as it fills, so slopes are
        # evaluated again (bounded memory), but at most once per y and pass.
        assert len(ys) < len(slopes) <= 3 * len(ys)

    def test_sign_kernel_not_normalizable(self):
        with pytest.raises(NotNormalizable):
            normalize_kernel(sign_kernel())

    @pytest.mark.parametrize("case", ["jump", "kink", "sign_dev", "max-tie"])
    def test_jumps_and_kinks_take_the_symmetric_derivative(self, case):
        # Central differences converge to the mean of the one-sided slopes
        # at a kink and diverge at a jump; the symbolic rules give that
        # limit: abs'(0) = sign(0) = 0, max(x, y) has partials 1/2 at a tie,
        # and sign' raises at 0, so a jump kernel is not normalizable.  A
        # kernel built without dK/dy (sign_dev) is refused too.
        if case == "jump":
            with pytest.raises(NotNormalizable, match=r"^diagonal slope of x-y\+sign\(x-y\) failed at y=0\.8: sign "):
                normalize_kernel(resolve_kernel("expr:x-y+sign(x-y)"))
        elif case == "kink":
            scaled = normalize_kernel(resolve_kernel("expr:x-y+0.001*abs(x-y)"))
            assert [scaled.fn.slope(y) for y in (0.8, 2.0, 3.7)] == [1.0, 1.0, 1.0]
        elif case == "sign_dev":
            with pytest.raises(NotNormalizable, match="^sign_dev has no dK/dy to normalize by$"):
                normalize_kernel(resolve_kernel("sign_dev"))
        else:
            operation = resolve_kernel("expr:max(x,y)")
            assert (operation.partial1(2.0, 2.0), operation.partial2(2.0, 2.0)) == (0.5, 0.5)
            assert (operation.partial1(3.0, 2.0), operation.partial2(3.0, 2.0)) == (1.0, 0.0)

    def test_reversed_kernel_not_normalizable(self):
        with pytest.raises(NotNormalizable):
            normalize_kernel(kernel_from_expression("y - x", POS))

    def test_normalization_preserves_means(self):
        kernel = difference_kernel(catalog_generator("cosh"))
        scaled = normalize_kernel(kernel)
        cfg = SemidevMeanConfig(grid_size=256)
        rng = random.Random(5)
        for _ in range(20):
            n = rng.randint(1, 5)
            s = make_weighted_sample(
                [rng.uniform(0.3, 5) for _ in range(n)],
                [rng.uniform(0.1, 3) for _ in range(n)],
                POS,
            )
            for kind in KINDS:
                a = semideviation_mean(kernel, s, kind, cfg)
                b = semideviation_mean(scaled, s, kind, cfg)
                assert abs(a - b) <= max(2 * cfg.refine_tol * max(map(abs, s.hull())), 1e-10)


@pytest.mark.parametrize("refine_tol", [math.inf, math.nan, -1.0])
def test_refine_tol_must_be_finite_and_nonnegative(refine_tol):
    # An infinite tolerance once returned the hull midpoint as the mean.
    with pytest.raises(ValueError, match="refine_tol must be finite and nonnegative"):
        SemidevMeanConfig(refine_tol=refine_tol)


class TestAdmissionChecks:
    def test_sign_kernel_is_semideviation(self):
        assert check_semideviation(sign_kernel(), REALS) is None

    def test_reversed_kernel_fails_with_witness(self):
        w = check_semideviation(kernel_from_expression("y - x", POS), POS)
        assert w is not None and (w["x"] - w["y"]) * w["value"] < 0

    def test_cosh_kernel_is_semideviation_on_positives(self):
        assert check_semideviation(difference_kernel(catalog_generator("cosh")), POS) is None


class TestDeviationMean:
    def test_weighted_average(self):
        s = make_weighted_sample([1, 5], [1, 3], REALS)
        assert deviation_mean(arithmetic_kernel(), s) == pytest.approx(4.0, abs=1e-10)

    def test_log_difference_kernel_is_geometric(self):
        s = make_weighted_sample([1, 4], [1, 1], POS)
        assert deviation_mean(difference_kernel(catalog_generator("log")), s) == pytest.approx(
            2.0, abs=1e-10
        )

    def test_matches_quasiarithmetic_for_cosh(self):
        s = make_weighted_sample([1, 7], [1, 1], POS)
        dev = deviation_mean(difference_kernel(catalog_generator("cosh")), s)
        qa = quasiarithmetic_mean(s, catalog_generator("cosh"))
        assert abs(dev - qa) <= 1e-10 * (1 + abs(qa))

    def test_matches_all_four_kinds_for_quasideviations(self):
        rng = random.Random(6)
        kernel = difference_kernel(catalog_generator("power", 2))
        for _ in range(20):
            n = rng.randint(1, 5)
            s = make_weighted_sample(
                [rng.uniform(0.3, 6) for _ in range(n)],
                [rng.uniform(0.1, 3) for _ in range(n)],
                POS,
            )
            dev = deviation_mean(kernel, s)
            for kind in KINDS:
                assert abs(semideviation_mean(kernel, s, kind) - dev) <= 1e-10 * (1 + abs(dev))

    def test_zero_plateau_has_no_unique_root(self):
        # sign(1 - y) + sign(2 - y) is 0 on all of (1, 2); the parent code
        # returned 1.0000000000009095 as the root.
        s = make_weighted_sample([1, 2], [1, 1], REALS)
        with pytest.raises(AmbiguousClassification, match=r"^deviation sum of sign_dev vanishes on \[1\.0"):
            deviation_mean(sign_kernel(), s)

    @pytest.mark.parametrize(
        "spec, entries, weights, refine_tol, root",
        [
            ("sign_dev", [1, 2], [0, 1], 1e-12, 2.0),  # D(hi) = 0: the hull end, exactly
            # D(y) = 0 only at y = 2, the weighted median, exactly at any tolerance.
            ("sign_dev", [1, 2, 3], [1, 1, 1], 1e-12, 2.0),
            ("sign_dev", [1, 2, 3], [1, 1, 1], 0.0, 2.0),
            # A chain: the closed form.
            ("expr:sqrt(x)-sqrt(y)", [9, 25], [1, 1], 0.0, 16.0),
            # x occurs twice, so no chain: bisection.  Rounding makes D
            # exactly 0 at 16 and at the next float; that is one root, not a
            # plateau, also when no tolerance is allowed (PLATEAU_ULPS).
            ("expr:(sqrt(x)+0*x)-(sqrt(y)+0*y)", [9, 25], [1, 1], 0.0, 16.0),
        ],
    )
    def test_isolated_zero_is_the_root(self, spec, entries, weights, refine_tol, root):
        domain = POS if spec.startswith("expr:") else REALS
        kernel = sign_kernel() if spec == "sign_dev" else kernel_from_expression(spec[5:], domain)
        s = make_weighted_sample(entries, weights, domain)
        cfg = SemidevMeanConfig(refine_tol=refine_tol)
        assert repr(deviation_mean(kernel, s, cfg)) == repr(root)

    def test_plateau_check_costs_nothing_without_a_zero_midpoint(self, monkeypatch):
        calls = []
        original = semideviation.deviation_sum

        def counting(kernel, sample):
            dsum = original(kernel, sample)
            return lambda y: calls.append(y) or dsum(y)

        monkeypatch.setattr(semideviation, "deviation_sum", counting)
        s = make_weighted_sample([1, 2, 4], [1, 1, 1], POS)
        # x occurs three times in x*x*x: no chain, so no closed form.
        deviation_mean(kernel_from_expression("x*x*x-y*y*y", POS), s)
        # The two hull ends, then halvings of 3 down to 1e-12 * 4.
        assert len(calls) == 2 + math.ceil(math.log2(3 / 4e-12))

    def test_no_sign_change_detected(self):
        shifted = kernel_from_expression("x - y + 3", REALS)
        s = make_weighted_sample([1, 2], [1, 1], REALS)
        with pytest.raises(NoSignChange):
            deviation_mean(shifted, s)


class TestSignChangeStructure:
    def test_nonincreasing_sum_pairs_kinds(self):
        # For a kernel nonincreasing in its weighted sum, lower-weak equals
        # upper-strict and lower-strict equals upper-weak.
        s = make_weighted_sample([1, 3], [1, 1], REALS)
        S = sign_kernel()
        lw = semideviation_mean(S, s, MeanKind.LOWER_WEAK)
        us = semideviation_mean(S, s, MeanKind.UPPER_STRICT)
        ls = semideviation_mean(S, s, MeanKind.LOWER_STRICT)
        uw = semideviation_mean(S, s, MeanKind.UPPER_WEAK)
        assert abs(lw - us) <= 1e-10 and abs(ls - uw) <= 1e-10

    def test_strictly_decreasing_sum_collapses_all_kinds(self):
        s = make_weighted_sample([0.5, 2.5, 4.0], [1, 2, 1], REALS)
        values = [semideviation_mean(arithmetic_kernel(), s, kind) for kind in KINDS]
        assert max(values) - min(values) <= 1e-10

    def test_continuous_sum_vanishes_at_every_kind(self):
        kernel = difference_kernel(catalog_generator("cosh"))
        s = make_weighted_sample([0.5, 2.0, 4.5], [1, 1, 2], POS)
        d = deviation_sum(kernel, s)
        cfg = SemidevMeanConfig()
        for kind in KINDS:
            v = semideviation_mean(kernel, s, kind, cfg)
            slope = abs((d(v + 1e-6) - d(v - 1e-6)) / 2e-6)
            assert abs(d(v)) <= 10 * slope * cfg.refine_tol * max(map(abs, s.hull())) + 1e-12

    def test_mean_value_bounds_on_random_samples(self):
        rng = random.Random(8)
        kernels = [
            (sign_kernel(), REALS, (-4.0, 4.0)),
            (arithmetic_kernel(), REALS, (-4.0, 4.0)),
            (difference_kernel(catalog_generator("cosh")), POS, (0.2, 5.0)),
        ]
        cfg = SemidevMeanConfig(grid_size=128)
        for kernel, dom, (lo, hi) in kernels:
            for _ in range(40):
                n = rng.randint(1, 6)
                s = make_weighted_sample(
                    [rng.uniform(lo, hi) for _ in range(n)],
                    [rng.uniform(0.1, 3) for _ in range(n)],
                    dom,
                )
                mn, mx = s.hull()
                lw = semideviation_mean(kernel, s, MeanKind.LOWER_WEAK, cfg)
                uw = semideviation_mean(kernel, s, MeanKind.UPPER_WEAK, cfg)
                ls = semideviation_mean(kernel, s, MeanKind.LOWER_STRICT, cfg)
                us = semideviation_mean(kernel, s, MeanKind.UPPER_STRICT, cfg)
                tol = 1e-9 * (1 + abs(mx))
                assert mn - tol <= lw <= uw + tol <= mx + 2 * tol
                assert lw - tol <= ls <= uw + tol
                assert lw - tol <= us <= uw + tol


def test_ambiguous_classification_on_unresolvable_oscillation():
    # Semideviation with a fast multiplicative wobble: the sign of the
    # deviation sum flips at sub-grid scale for a coarse grid.
    wobbly = Kernel2(
        "wobbly",
        lambda x, y: (x - y) * (1.05 + math.sin(73.0 * (x + y))),
        REALS,
        REALS,
    )
    assert check_semideviation(wobbly, open_interval(0, 6)) is None
    s = make_weighted_sample([1.0, 5.0], [1.0, 1.0], REALS)
    with pytest.raises(AmbiguousClassification):
        semideviation_mean(wobbly, s, MeanKind.LOWER_WEAK, SemidevMeanConfig(grid_size=16))


def test_resolved_oscillation_uses_first_and_last_crossing():
    # The same kernel at a fine grid resolves; the four means stay inside the
    # hull and keep their ordering.
    wobbly = Kernel2(
        "wobbly",
        lambda x, y: (x - y) * (1.05 + math.sin(20.0 * (x + y))),
        REALS,
        REALS,
    )
    s = make_weighted_sample([1.0, 5.0], [1.0, 1.0], REALS)
    cfg = SemidevMeanConfig(grid_size=4096)
    lw = semideviation_mean(wobbly, s, MeanKind.LOWER_WEAK, cfg)
    uw = semideviation_mean(wobbly, s, MeanKind.UPPER_WEAK, cfg)
    assert 1.0 <= lw <= uw <= 5.0


def test_classes_are_exact_signs():
    # The smallest subnormals keep their signs; a NaN sum counts as negative.
    for value, c in ((5e-324, 1), (-5e-324, -1), (0.0, 0), (-0.0, 0), (math.nan, -1), (math.inf, 1)):
        assert semideviation._classify(value) == c, value


# --- separable deviation sums and the shared scan ------------------------------------

CATALOG = [
    (catalog_generator("power", 2), (0.1, 6.0)),
    (catalog_generator("power", 0.5), (0.1, 6.0)),
    (catalog_generator("power", -1), (0.1, 6.0)),
    (catalog_generator("log"), (0.1, 6.0)),
    (catalog_generator("exp"), (-4.0, 4.0)),
    (catalog_generator("cosh"), (0.05, 4.0)),
    (catalog_generator("shifted_power", 0.5, 1.0), (-0.9, 3.0)),
    (catalog_generator("shifted_power", 0.0, 1.0), (-0.9, 3.0)),
]


def _generic(kernel: Kernel2) -> Kernel2:
    """The same kernel without its declared structure, so that the deviation
    sum calls ``fn`` for every term."""
    return dataclasses.replace(kernel, structure=None)


def _bisection(kernel: Kernel2) -> Kernel2:
    """The same kernel with its generator's ``chain`` dropped, or its
    ratio's order, so that its means are solved by the sign
    scan and bisection instead of in closed form."""
    structure = kernel.structure
    if isinstance(structure, Difference):
        f = dataclasses.replace(structure.f, chain=None)
        return dataclasses.replace(kernel, structure=Difference(f))
    if isinstance(structure, Ratio):
        return dataclasses.replace(kernel, structure=Ratio(structure.h))
    return kernel


def _seeded_samples(domain, lo, hi, seed, count=30):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(1, 6)
        entries = [rng.uniform(lo, hi) for _ in range(n)]
        weights = [rng.uniform(0.1, 3.0) for _ in range(n)]
        out.append(make_weighted_sample(entries, weights, domain))
    return out


def _failure(dsum, y):
    with pytest.raises(KernelEvaluationError) as info:
        dsum(y)
    return str(info.value)


@pytest.mark.parametrize("gen, bounds", CATALOG, ids=[g.name for g, _ in CATALOG])
def test_separable_sum_equals_generic_bit_for_bit(gen, bounds):
    kernel = difference_kernel(gen)
    lo, hi = bounds
    for s in _seeded_samples(gen.domain, lo, hi, seed=len(gen.name)):
        fast, slow = deviation_sum(kernel, s), deviation_sum(_generic(kernel), s)
        for j in range(41):
            y = lo + j * (hi - lo) / 40
            assert fast(y).hex() == slow(y).hex(), (gen.name, s.entries, y)


@pytest.mark.parametrize("gen, bounds", CATALOG, ids=[g.name for g, _ in CATALOG])
def test_closed_form_matches_the_bisection(gen, bounds):
    # Each kind and the deviation mean of a difference kernel with an
    # increasing invertible generator are its quasiarithmetic mean.
    kernel = difference_kernel(gen)
    for s in _seeded_samples(gen.domain, *bounds, seed=3 + len(gen.name)):
        lo, hi = s.hull()
        if gen.name == catalog_generator("power", -1).name and lo < hi:
            # A decreasing generator gives no deviation kernel.
            with pytest.raises(NoSignChange):
                semideviation_means(kernel, s, KINDS)
            with pytest.raises(NoSignChange):
                deviation_mean(kernel, s)
            continue
        qa = quasiarithmetic_mean(s, gen)
        closed = semideviation_means(kernel, s, KINDS)
        solved = semideviation_means(_bisection(kernel), s, KINDS)
        assert deviation_mean(kernel, s) == qa
        assert abs(deviation_mean(_bisection(kernel), s) - qa) <= 1e-11 * max(abs(lo), abs(hi))
        for kind in KINDS:
            assert closed[kind] == qa
            assert abs(solved[kind] - qa) <= 1e-11 * max(abs(lo), abs(hi)), (gen.name, kind, s)


def test_closed_form_evaluates_no_deviation_sum(monkeypatch):
    calls = []
    original = semideviation.deviation_sum

    def recording(kernel, sample):
        calls.append(kernel)
        return original(kernel, sample)

    monkeypatch.setattr(semideviation, "deviation_sum", recording)
    kernel = difference_kernel(catalog_generator("power", 2))
    s = make_weighted_sample([1.0, 2.0, 4.0], [1.0, 2.0, 0.5], POS)
    semideviation_means(kernel, s, KINDS)
    deviation_mean(kernel, s)
    assert calls == []


def test_failing_generator_raises_the_generic_message():
    log_kernel = difference_kernel(catalog_generator("log"))
    s = make_weighted_sample([1.0, 2.0, 5.0], [1.0, 2.0, 0.5], POS)
    for y in (0.0, -1.5):
        assert _failure(deviation_sum(log_kernel, s), y) == _failure(
            deviation_sum(_generic(log_kernel), s), y
        )
    exp_kernel = difference_kernel(catalog_generator("exp"))
    s = make_weighted_sample([0.5, -1.0], [1.0, 1.0], REALS)
    assert _failure(deviation_sum(exp_kernel, s), 1e4) == _failure(
        deviation_sum(_generic(exp_kernel), s), 1e4
    )


def test_generator_failing_at_an_entry_falls_back_to_the_generic_sum():
    def capped(x: float) -> float:
        if x > 3.0:
            raise ValueError(f"capped at {x}")
        return x

    kernel = difference_kernel(ScalarFunction("capped", capped, REALS))
    s = make_weighted_sample([1.0, 4.0, 2.0], [1.0, 1.0, 1.0], REALS)
    message = _failure(deviation_sum(kernel, s), 2.0)
    assert message == _failure(deviation_sum(_generic(kernel), s), 2.0)
    assert "(4.0, 2.0)" in message


def _of_y(text: str) -> str:
    """Expression text in x with x renamed to y."""
    return re.sub(r"\bx\b", "y", text)


#: Differences of expressions whose terms overflow where the compiled kernel
#: raises NonFinite, or whose generator raises at y: (A, entries, y).
OVERFLOWING = [
    ("x*1e308", [1.5, 0.5], -1.5),  # 1.5e308 - (-1.5e308) is inf
    ("x*1e308", [1.5, 1.5], 0.5),  # finite terms, an fsum that overflows: NonFinite
    ("x*1e308*10", [1.0, 2.0], 0.5),  # A(x) is inf before its last check
    ("exp(x)", [0.5, 1.0], 1000.0),  # exp(y) overflows
    ("log(x)", [0.5, 1.0], -1.0),
]


@pytest.mark.parametrize("a, entries, y", OVERFLOWING)
def test_expression_difference_sum_fails_like_the_generic_sum(a, entries, y):
    kernel = kernel_from_expression(f"{a} - {_of_y(a)}", REALS)
    assert isinstance(kernel.structure, Difference)
    s = make_weighted_sample(entries, [1.0] * len(entries), REALS)
    outcomes = []
    for k in (kernel, _generic(kernel)):
        try:
            outcomes.append(repr(deviation_sum(k, s)(y)))
        except (KernelEvaluationError, NonFinite) as exc:
            outcomes.append((type(exc), str(exc)))
    assert outcomes[0] == outcomes[1]
    assert not isinstance(outcomes[0], str)


def _profile_kernel(spec: str, mode: str, *, numeric: bool = False) -> Kernel2:
    """The ratio kernel of the spec's scale profile; ``numeric`` drops the
    generator's order ends, so that the profile is the node table."""
    kernel = resolve_kernel(spec)
    if numeric:
        kernel = numeric_profile_kernel(kernel)
    profile = homogenization_profile(kernel, mode)
    return ratio_kernel_from_profile(f"scale_profile({kernel.name})", profile)


#: Every kernel constructor (and the CLI's catalog spellings of them), with
#: the type of the structure it declares.
CONSTRUCTORS = {
    "difference_kernel": (lambda: difference_kernel(catalog_generator("cosh")), Difference),
    "arithmetic_kernel": (arithmetic_kernel, Difference),
    "diff_gen:exp": (lambda: resolve_kernel("diff_gen:exp"), Difference),
    "power:0.5": (lambda: resolve_kernel("power:0.5"), Difference),
    "preset": (lambda: minkowski_preset()["kernel_result"], Difference),
    "ratio_kernel": (lambda: ratio_kernel(catalog_generator("log")), Ratio),
    "ratio_dev:power:2": (lambda: resolve_kernel("ratio_dev:power:2"), Ratio),
    "profile-cosh": (lambda: _profile_kernel("diff_gen:cosh", "lower"), Ratio),
    "profile-log": (lambda: _profile_kernel("log", "estimate"), Ratio),
    "profile-table": (lambda: _profile_kernel("power:0.5", "estimate", numeric=True), Ratio),
    "sign_kernel": (sign_kernel, Sign),
    "kernel_from_expression": (lambda: kernel_from_expression("cosh(x) - cosh(y)", POS), Difference),
    "expr:x*x-y*y": (lambda: resolve_kernel("expr:x*x-y*y"), Difference),
    "expr:sign(x-y)": (lambda: resolve_kernel("expr:sign(x-y)"), Sign),
    "expr:log(x/y)": (lambda: resolve_kernel("expr:log(x/y)"), type(None)),
    "expr:(x-y)*(1+x*y)": (lambda: resolve_kernel("expr:(x-y)*(1+x*y)"), type(None)),
    "expr:sign(x^3-y^3)": (lambda: resolve_kernel("expr:sign(x^3-y^3)"), type(None)),
    "expr:x^2-y^3": (lambda: resolve_kernel("expr:x^2-y^3"), type(None)),
    "normalize_kernel": (lambda: normalize_kernel(difference_kernel(catalog_generator("power", 2))), type(None)),
    "normalized-ratio": (lambda: normalize_kernel(ratio_kernel(catalog_generator("log"))), type(None)),
    "operation": (lambda: minkowski_preset()["operation"], type(None)),
}
STRUCTURED = {name: make for name, (make, kind) in CONSTRUCTORS.items() if kind is not type(None)}


@pytest.mark.parametrize("make, kind", list(CONSTRUCTORS.values()), ids=list(CONSTRUCTORS))
def test_each_constructor_declares_its_structure(make, kind):
    assert type(make().structure) is kind


def test_structure_holds_the_constructor_arguments():
    cosh, log = catalog_generator("cosh"), catalog_generator("log")
    assert difference_kernel(cosh).structure == Difference(cosh)
    # log(x / y) = log x - log y: the catalog log alone gets the order 0.
    assert ratio_kernel(log).structure == Ratio(log.fn, 0.0)
    square = catalog_generator("power", 2)
    assert ratio_kernel(square).structure == Ratio(square.fn)
    assert sign_kernel().structure == Sign()
    profile = homogenization_profile(difference_kernel(cosh))
    assert ratio_kernel_from_profile("h", profile).structure == Ratio(profile, 2.0)
    profile = homogenization_profile(numeric_profile_kernel(difference_kernel(cosh)))
    assert ratio_kernel_from_profile("h", profile).structure == Ratio(profile)


@pytest.mark.parametrize("make", list(STRUCTURED.values()), ids=list(STRUCTURED))
def test_declared_structure_gives_the_values_of_fn(make):
    # The one rule of Kernel2.structure: fn(x, y) is the structure's formula
    # bit for bit; a Ratio's order q adds y^-q (g_q(x) - g_q(y)) in exact
    # arithmetic, which floats meet to rounding.
    kernel = make()
    structure = kernel.structure
    dom = kernel.domain_x
    lo, hi = max(dom.lo, 0.5 if dom.starts_at_zero else -3.0), min(dom.hi, 4.0)
    rng = random.Random(23)
    for _ in range(50):
        x, y = rng.uniform(lo, hi), rng.uniform(lo, hi)
        value = kernel.fn(x, y)
        if isinstance(structure, Sign):
            assert repr(value) == repr(float(sign(x - y))), (kernel.name, x, y)
            continue
        if isinstance(structure, Difference):
            assert repr(value) == repr(structure.f.fn(x) - structure.f.fn(y)), (kernel.name, x, y)
            continue
        assert repr(value) == repr(structure.h(x / y)), (kernel.name, x, y)
        q = structure.order
        if q is not None:
            g = math.log if q == 0.0 else (lambda v: (v**q - 1.0) / q)
            assert value == pytest.approx(y**-q * (g(x) - g(y)), rel=1e-12, abs=1e-15)


#: Ratio kernels: a catalog one, node-table scale-profile kernels in the two
#: profile modes the suites solve with (tei's "lower", cei's "estimate"), and
#: a closed-form scale-profile kernel.
RATIO_KERNELS = {
    "ratio_dev:log": lambda: ratio_kernel(catalog_generator("log")),
    "profile-cosh-lower": lambda: _profile_kernel("diff_gen:cosh", "lower", numeric=True),
    "profile-sqrt-estimate": lambda: _profile_kernel("power:0.5", "estimate", numeric=True),
    "profile-cosh-closed-form": lambda: _profile_kernel("diff_gen:cosh", "lower"),
}


@pytest.mark.parametrize("make", list(RATIO_KERNELS.values()), ids=list(RATIO_KERNELS))
def test_ratio_sum_equals_generic_bit_for_bit(make):
    # Without its power order the closed-form kernel's means take the sign
    # scan, over the ratio sum on one side and the generic sum on the other.
    kernel = make()
    kernel = dataclasses.replace(kernel, structure=Ratio(kernel.structure.h))
    generic = dataclasses.replace(kernel, structure=None)
    samples = _seeded_samples(POS, 0.5, 4.0, seed=19, count=20)
    for s in samples:
        fast, slow = deviation_sum(kernel, s), deviation_sum(generic, s)
        for j in range(41):
            y = 0.5 + j * 3.5 / 40
            assert repr(fast(y)) == repr(slow(y)), (kernel.name, s.entries, y)
    for s in samples[:5]:
        fast, slow = semideviation_means(kernel, s, KINDS), semideviation_means(generic, s, KINDS)
        assert {k: repr(v) for k, v in fast.items()} == {k: repr(v) for k, v in slow.items()}


def test_raising_ratio_gives_the_generic_error():
    # The +0*x spelling of cosh(x) - cosh(y) declares nothing, and its
    # "estimate" profile raises NotConverged at the node 2^(75/16) ~ 25.6
    # (tests/test_homogenize.py); 1e300 / 1e-10
    # overflows to inf, which no profile accepts; y = 0 divides by zero; log
    # rejects a negative ratio.
    bad = 2.0 ** (75 / 16)
    cosh_expr = _profile_kernel(COSH_TABLE, "estimate")
    cosh_lower = _profile_kernel("diff_gen:cosh", "lower")
    cases = [
        (cosh_expr, [1.0, bad, 2.0 * bad], 1.0, f"({bad}, 1.0)"),
        (cosh_expr, [1e300, 2.0], 1e-10, "(1e+300, 1e-10)"),
        (cosh_lower, [2.0, 1e300], 1e-10, "(1e+300, 1e-10)"),
        (cosh_lower, [2.0, 3.0], 0.0, "(2.0, 0.0)"),
        (ratio_kernel(catalog_generator("log")), [2.0, 3.0], -1.0, "(2.0, -1.0)"),
    ]
    for kernel, entries, y, pair in cases:
        s = make_weighted_sample(entries, [1.0] * len(entries), POS)
        errors = []
        for k in (kernel, dataclasses.replace(kernel, structure=None)):
            with pytest.raises(KernelEvaluationError) as info:
                deviation_sum(k, s)(y)
            errors.append((str(info.value), type(info.value.__cause__)))
        assert errors[0] == errors[1], (kernel.name, entries, y)
        assert f"failed at {pair}: " in errors[0][0], errors[0]


# --- the hull ends before the interior ------------------------------------------------


def test_wrong_signed_hull_ends_are_refused_after_two_sums(monkeypatch):
    # 1/x decreases, so D(y) = sum_i (1/x_i - 1/y) is negative at the lower
    # hull end: no interior point is evaluated.
    points: list[float] = []
    original = semideviation.deviation_sum

    def recording(kernel, sample):
        dsum = original(kernel, sample)

        def wrapped(y):
            points.append(y)
            return dsum(y)

        return wrapped

    monkeypatch.setattr(semideviation, "deviation_sum", recording)
    s = make_weighted_sample([1.0, 2.0, 4.0], [1.0, 1.0, 1.0], POS)
    with pytest.raises(NoSignChange, match=r"signs \(-1, 1\) at the hull ends"):
        semideviation_means(resolve_kernel("diff_gen:power:-1"), s, KINDS)
    assert points == [1.0, 4.0]


def test_wrong_signed_hull_ends_are_reported_before_an_interior_failure():
    # K(x, y) = y - x has the reversed sign and fails for y in (1.5, 3.5),
    # inside the hull [1, 4]: the hull ends decide, so every kind and the
    # deviation mean raise NoSignChange rather than KernelEvaluationError.
    def reversed_with_a_hole(x: float, y: float) -> float:
        if 1.5 < y < 3.5:
            raise ValueError(f"hole at {y}")
        return y - x

    kernel = Kernel2("reversed_with_a_hole", reversed_with_a_hole, REALS, REALS)
    s = make_weighted_sample([1.0, 2.0, 4.0], [1.0, 1.0, 1.0], REALS)
    assert "hole at 2.0" in _failure(deviation_sum(kernel, s), 2.0)
    message = "deviation sum has signs (-1, 1) at the hull ends"
    for kind in KINDS:
        with pytest.raises(NoSignChange) as info:
            semideviation_mean(kernel, s, kind, SemidevMeanConfig(grid_size=64))
        assert str(info.value) == message
    with pytest.raises(NoSignChange) as info:
        deviation_mean(kernel, s)
    assert str(info.value) == message


@pytest.mark.parametrize(
    "kernel, domain, bounds, cfg",
    [
        # Without their structures, so that they scan: the medians and the
        # geometric mean have closed forms.
        (_generic(sign_kernel()), REALS, (1.0, 4.0), SemidevMeanConfig(grid_size=64)),
        (_bisection(arithmetic_kernel()), REALS, (-3.0, 3.0), SemidevMeanConfig(grid_size=128)),
        (_bisection(difference_kernel(catalog_generator("cosh"))), POS, (0.1, 4.0), SemidevMeanConfig()),
        (_bisection(ratio_kernel(catalog_generator("log"))), POS, (0.5, 4.0), SemidevMeanConfig(grid_size=128)),
    ],
    ids=["sign_dev", "arithmetic", "cosh", "ratio-log"],
)
def test_shared_scan_equals_per_kind_solves(kernel, domain, bounds, cfg):
    rng = random.Random(17)
    for s in _seeded_samples(domain, *bounds, seed=23, count=20):
        if kernel.name == "sign_dev":
            # Integer entries and weights give plateaus where weak != strict.
            s = make_weighted_sample(
                [float(round(x)) for x in s.entries],
                [float(rng.randint(1, 3)) for _ in s.entries],
                domain,
            )
        means = semideviation_means(kernel, s, KINDS, cfg)
        assert list(means) == KINDS
        for kind in KINDS:
            assert means[kind].hex() == semideviation_mean(kernel, s, kind, cfg).hex()
            assert means[kind].hex() == semideviation_mean(_generic(kernel), s, kind, cfg).hex()
        subset = semideviation_means(kernel, s, [MeanKind.UPPER_WEAK], cfg)
        assert subset == {MeanKind.UPPER_WEAK: means[MeanKind.UPPER_WEAK]}


def test_shared_scan_raises_on_unresolvable_oscillation():
    wobbly = Kernel2(
        "wobbly",
        lambda x, y: (x - y) * (1.05 + math.sin(73.0 * (x + y))),
        REALS,
        REALS,
    )
    s = make_weighted_sample([1.0, 5.0], [1.0, 1.0], REALS)
    with pytest.raises(AmbiguousClassification):
        semideviation_means(wobbly, s, KINDS, SemidevMeanConfig(grid_size=16))
    wiggle = ScalarFunction("wiggle", lambda x: x + 1.5 * math.sin(73.0 * x), REALS)
    kernel = difference_kernel(wiggle)
    for k in (kernel, _generic(kernel)):
        with pytest.raises(AmbiguousClassification):
            semideviation_means(k, s, KINDS, SemidevMeanConfig(grid_size=16))


# --- inputs at the edges of the closed form and the sign scan ------------------------


def _means_or_error(kernel, s, cfg):
    try:
        return {k: repr(v) for k, v in semideviation_means(kernel, s, KINDS, cfg).items()}
    except NoSignChange:
        return NoSignChange


#: Generators that increase on their domain, and one that decreases: D then
#: increases, so the classes run - ... 0 ... + and every path finds no sign
#: change.
MONOTONE = [
    (catalog_generator("power", 2), (0.2, 5.0)),
    (catalog_generator("power", 0), (0.2, 5.0)),
    (catalog_generator("exp"), (-4.0, 4.0)),
    (catalog_generator("cosh"), (0.05, 4.0)),
    (catalog_generator("power", -1), (0.2, 5.0)),
]


@pytest.mark.parametrize("grid", [2, 3, 128, 1024])
@pytest.mark.parametrize("gen, bounds", MONOTONE, ids=[g.name for g, _ in MONOTONE])
def test_halving_finds_the_cell_of_the_full_scan(gen, bounds, grid):
    # The name is kept from the halving search these generators took before
    # the closed form covered them.  Each kind's closed form lies within the
    # bisection tolerance of the full scan's mean, at every grid size.
    kernel = difference_kernel(gen)
    cfg = SemidevMeanConfig(grid_size=grid)
    for s in _seeded_samples(gen.domain, *bounds, seed=31 + grid, count=25):
        scan = _means_or_error(_generic(kernel), s, cfg)
        assert _means_or_error(_bisection(kernel), s, cfg) == scan, s
        if scan is NoSignChange:
            assert _means_or_error(kernel, s, cfg) == scan, s
            continue
        lo, hi = s.hull()
        means = semideviation_means(kernel, s, KINDS, cfg)
        for kind in KINDS:
            assert abs(means[kind] - float(scan[kind])) <= 1e-11 * max(abs(lo), abs(hi)), (kind, s)


@pytest.mark.parametrize("grid", [2, 3, 1024])
def test_closed_form_on_degenerate_samples(grid):
    kernel = difference_kernel(catalog_generator("power", 2))
    cfg = SemidevMeanConfig(grid_size=grid)
    x = 1.5
    for entries, weights in (
        ([x], [2.0]),
        ([x, x], [1.0, 3.0]),
        ([1.0, x, 4.0], [0.0, 1.0, 0.0]),  # zero weights: D vanishes at x only
        ([x, math.nextafter(x, 2.0)], [1.0, 1.0]),  # hull one ulp wide
        ([1.0, 4.0], [1e-12, 1.0]),
        ([1.0, 4.0], [1.0, 1e-12]),
    ):
        s = make_weighted_sample(entries, weights, POS)
        lo, hi = s.hull()
        closed = semideviation_means(kernel, s, KINDS, cfg)
        solved = semideviation_means(_bisection(kernel), s, KINDS, cfg)
        for kind in KINDS:
            assert lo <= closed[kind] <= hi, (kind, s)
            assert abs(closed[kind] - solved[kind]) <= 1e-11 * max(abs(lo), abs(hi)), (kind, s)


def test_full_scan_outside_the_generator_domain():
    # x^2 increases on (0, inf) only; on a hull reaching 0 or below the
    # closed form does not apply, and the separable sum, scanned in full,
    # gives the means of the generic sum.
    kernel = difference_kernel(catalog_generator("power", 2), REALS)
    cfg = SemidevMeanConfig(grid_size=64)
    outside = [s for s in _seeded_samples(REALS, -3.0, 3.0, seed=43, count=30) if s.hull()[0] <= 0.0]
    assert len(outside) >= 20
    for s in outside:
        assert _means_or_error(kernel, s, cfg) == _means_or_error(_generic(kernel), s, cfg), s


def test_full_scan_of_a_sum_that_is_zero_in_floats():
    # The textbook cosh has cosh(x) == 1.0 for x ~ 1e-9, so D == 0 at both
    # hull ends: no hull end is returned as a mean, on either sum.
    flat = dataclasses.replace(catalog_generator("cosh"), fn=math.cosh, chain=None)
    kernel = difference_kernel(flat)
    refused = r"signs \(0, 0\) at the hull ends"
    for s in _seeded_samples(POS, 0.5, 3.0, seed=41, count=10):
        tiny = s.scaled(1e-9)
        lo, hi = tiny.hull()
        if lo == hi:
            continue  # a constant sample's means are its entry, before any sum
        assert deviation_sum(kernel, tiny)(lo) == deviation_sum(kernel, tiny)(hi) == 0.0
        for k in (kernel, _generic(kernel)):
            for grid in (2, 3, 1024):
                with pytest.raises(NoSignChange, match=refused):
                    semideviation_means(k, tiny, KINDS, SemidevMeanConfig(grid_size=grid))
            with pytest.raises(NoSignChange, match=refused):
                deviation_mean(k, tiny)


#: Kernels whose deviation sum changes sign more than once, or has the wrong
#: sign at a hull end.  Each inf kind and its sup partner lie in different
#: cells, so a kind searched from the wrong side gets another crossing.  A
#: sum negative at lo or positive at hi shows a kernel without the sign
#: property: every kind raises NoSignChange (inf and sup means None).
SIDES = [
    # D(y) = 19/6 - 3.5/y increases: negative at lo.
    ("diff_gen:power:-1", [0.5, 2.0, 3.0], [1.0, 2.0, 0.5], None, None),
    # D(y) = (y - 3)(7 - 2y) is -, +, - with roots 3 and 3.5: negative at lo.
    ("expr:(x - y) * (y - 3)", [1.0, 6.0], [1.0, 1.0], None, None),
    # D(y) = (1 - y) e^(0.3 y) + 0.005 (6 - y) e^(1.8 y) is +, -, +, - with
    # roots 1.1331714813508592, 3.5690448810447667 and 5.8501086353126786
    # (mpmath, 40 digits).
    ("expr:(x - y) * exp(0.3 * x * y)", [1.0, 6.0], [1.0, 0.005], 1.1331714813508592, 5.8501086353126786),
]


@pytest.mark.parametrize("path", [lambda k: k, _bisection], ids=["default", "full-scan"])
@pytest.mark.parametrize("grid", [64, 1024])
@pytest.mark.parametrize("spec, entries, weights, inf_mean, sup_mean", SIDES, ids=[c[0] for c in SIDES])
def test_inf_and_sup_kinds_search_from_their_own_side(spec, entries, weights, inf_mean, sup_mean, grid, path):
    kernel = path(resolve_kernel(spec))
    s = make_weighted_sample(entries, weights, POS)
    cfg = SemidevMeanConfig(grid_size=grid)
    if inf_mean is None:
        for kind in KINDS:
            with pytest.raises(NoSignChange):
                semideviation_mean(kernel, s, kind, cfg)
        return
    means = semideviation_means(kernel, s, KINDS, cfg)
    for kind in KINDS:
        want = inf_mean if kind.is_inf_kind else sup_mean
        assert means[kind] == pytest.approx(want, rel=0.0, abs=1e-10), kind


# --- expression difference kernels and exact medians -----------------------------------


def _outcome(call):
    try:
        return call()
    except MeanKitError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("seed, domain, low, high", [(7, POS, 0.05, 8.0), (8, REALS, -4.0, 8.0)])
def test_chain_differences_against_the_grid_and_the_oracle(seed, domain, low, high):
    # Where the closed form is taken, every kind and the deviation mean are
    # the chain's qa mean, within the bisection tolerance of the grid and
    # the oracle; elsewhere the separable sum meets the grid, with the
    # generic sum's means or error.
    rng = random.Random(seed)
    cfg = SemidevMeanConfig(grid_size=128)
    taken = refused = 0
    for _ in range(100):
        text, f = _random_chain(rng)
        kernel = kernel_from_expression(f"({text}) - ({_of_y(text)})", domain)
        assert kernel.structure.f.chain is not None, text
        n = rng.randint(2, 6)
        entries = [rng.uniform(low, high) for _ in range(n)]
        weights = [rng.uniform(0.1, 3.0) for _ in range(n)]
        s = make_weighted_sample(entries, weights, domain)
        lo, hi = s.hull()
        new = _outcome(lambda: semideviation_means(kernel, s, KINDS, cfg))
        old = _outcome(lambda: semideviation_means(_generic(kernel), s, KINDS, cfg))
        closed = semideviation._closed_form(kernel, s, lo, hi)
        if closed is None:
            refused += 1
            assert new == old, (text, entries, weights)
            assert _outcome(lambda: deviation_mean(kernel, s)) == _outcome(
                lambda: deviation_mean(_generic(kernel), s)
            )
            continue
        taken += 1
        assert new == {kind: closed for kind in KINDS}
        assert deviation_mean(kernel, s) == closed
        assert closed == quasiarithmetic_mean(s, scalar_from_expression(text, domain))
        bound = 1e-12 * max(abs(lo), abs(hi)) + CONDITION_LIMIT * abs(closed)
        if not isinstance(old, dict):
            # The generic sum fails where fn is flat in floats, or fails, and
            # the core it is affine in (a chain with trailing affine steps)
            # is not: the closed form of the core stands, against the oracle.
            assert kernel.structure.f.chain.fn is not None, (text, entries, old)
            assert abs(closed - oracle.qa_mean_by_bisection(entries, weights, f)) <= bound, (text, entries)
            continue
        for kind in KINDS:
            assert abs(closed - old[kind]) <= bound, (text, entries, weights, kind)
        assert abs(closed - deviation_mean(_generic(kernel), s)) <= bound
        reference = oracle.qa_mean_by_bisection(entries, weights, f)
        assert abs(closed - reference) <= bound, (text, entries, weights)
    assert taken >= 30 and refused >= 10


@pytest.mark.parametrize(
    "spec, entries",
    [
        ("expr:x*x-y*y", [1.0, 2.0, 5.0]),  # x occurs twice: no chain
        ("expr:(x-y)*(1+x*y)", [0.5, 2.0, 4.0]),  # not a difference
        ("expr:1/x-1/y", [1.0, 2.0, 5.0]),  # decreasing
        ("expr:x^2-y^2", [1e-170, 2e-170]),  # x^2 underflows to 0 at both ends
    ],
)
def test_other_expression_kernels_still_meet_the_grid(monkeypatch, spec, entries):
    sums = []
    original = semideviation.deviation_sum

    def recording(kernel, sample):
        dsum = original(kernel, sample)
        return lambda y: sums.append(y) or dsum(y)

    monkeypatch.setattr(semideviation, "deviation_sum", recording)
    kernel = resolve_kernel(spec)
    s = make_weighted_sample(entries, [1.0, 2.0, 0.5][: len(entries)], POS)
    cfg = SemidevMeanConfig(grid_size=64)
    new = _outcome(lambda: semideviation_means(kernel, s, KINDS, cfg))
    assert new == _outcome(lambda: semideviation_means(_generic(kernel), s, KINDS, cfg))
    if spec == "expr:1/x-1/y":
        assert new == (NoSignChange, "deviation sum has signs (-1, 1) at the hull ends")
        assert sums == [1.0, 5.0] * 2
    elif spec == "expr:x^2-y^2":
        assert new == (NoSignChange, "deviation sum has signs (0, 0) at the hull ends")
    else:
        assert len(sums) >= 2 * (64 + 2)  # the grid and the hull ends, on each sum


def _median_samples(rng: random.Random, count: int = 300):
    for i in range(count):
        n = rng.randint(1, 7)
        if i % 3 == 0:
            # Integer entries and weights: plateaus of D, where the kinds differ.
            entries = [float(rng.randint(-9, 9)) for _ in range(n)]
            weights = [float(rng.randint(0, 3)) for _ in range(n)]
        else:
            entries = [rng.uniform(-9.5, 9.5) for _ in range(n)]
            weights = [rng.choice([0.0, rng.uniform(0.1, 3.0)]) for _ in range(n)]
        if any(weights):
            yield entries, weights


@pytest.mark.parametrize("make", [sign_kernel, lambda: resolve_kernel("expr:sign(x-y)")], ids=["sign_dev", "expr"])
def test_exact_medians_against_the_oracle_and_the_grid(make):
    kernel = make()
    assert isinstance(kernel.structure, Sign)
    rng = random.Random(2026)
    domain = open_interval(-10.0, 10.0)
    cfg = SemidevMeanConfig(grid_size=64)
    zero_weights = 0
    for entries, weights in _median_samples(rng):
        s = make_weighted_sample(entries, weights, domain)
        lower, upper = oracle.weighted_medians(entries, weights)
        means = semideviation_means(kernel, s, KINDS, cfg)
        for kind in KINDS:
            assert means[kind] == (lower if kind.has_strict_test else upper), (entries, weights, kind)
        grid = semideviation_means(_generic(kernel), s, KINDS, cfg)
        lo, hi = s.hull()
        for kind in KINDS:
            assert abs(grid[kind] - means[kind]) <= 1e-12 * max(abs(lo), abs(hi)), (entries, weights, kind)
        zero_weights += 0.0 in weights
    assert zero_weights >= 50


def test_ratio_dev_log_is_the_geometric_mean():
    # log(x / y) = log x - log y, so no sum is scanned.
    kernel = ratio_kernel(catalog_generator("log"))
    for s in _seeded_samples(POS, 0.5, 4.0, seed=29, count=20):
        mean = deviation_mean(kernel, s)
        assert semideviation_means(kernel, s, KINDS) == {kind: mean for kind in KINDS}
        assert oracle.ulps(mean, oracle.power_mean(s.entries, s.weights, 0)) <= 2, s
