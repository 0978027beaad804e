import dataclasses
import functools
import math
import random

import pytest

from meankit import (
    MeanKind,
    arithmetic_kernel,
    cosh_generator,
    deviation_handle,
    difference_kernel,
    envelope_pair,
    exp_generator,
    homogeneous_kernels,
    homogenization_profile,
    kernel_homogenization,
    limit_at_zero,
    local_homogenization,
    make_weighted_sample,
    normalize_kernel,
    power_generator,
    power_handle,
    power_mean,
    quasiarithmetic_handle,
    scalar_from_expression,
    semideviation_handle,
    semideviation_mean,
    semideviation_means,
    shifted_power_generator,
    translated_power_handle,
)
import meankit.homogenize as homogenize
from meankit.cli import resolve_kernel
from meankit.domain import open_interval, positive_reals, sign
from meankit.errors import (
    AllEvaluationsFailed,
    EntryOutOfDomain,
    NonFinite,
    NotConverged,
    NotNormalizable,
    SignPropertyViolated,
)
from meankit.expr import Ratio, ScalarFunction
from meankit.homogenize import ratio_kernel_from_profile
from meankit.limits import LIMIT_WINDOW, SCAN_FAILURES, start_scale
from meankit.semideviation import SemidevMeanConfig, deviation_mean

from conftest import numeric_profile_kernel

POS = positive_reals()


def _pos_sample(entries, weights):
    return make_weighted_sample(entries, weights, POS)


class TestLimitAtZero:
    def test_constant(self):
        est = limit_at_zero(lambda t: 4.25, 1.0)
        assert est.converged
        assert est.tail_min == est.tail_max == 4.25

    def test_linear_goes_to_zero(self):
        est = limit_at_zero(lambda t: t, 1.0)
        assert est.converged
        assert est.estimate == pytest.approx(0.0, abs=1e-6)

    def test_oscillation_is_reported_unconverged(self):
        est = limit_at_zero(lambda t: math.sin(1.0 / t), 1.0)
        assert not est.converged
        assert est.spread > 0.5

    def test_all_failures_raise(self):
        with pytest.raises(AllEvaluationsFailed):
            limit_at_zero(lambda t: math.nan, 1.0)

    def test_scales_decrease_geometrically(self):
        est = limit_at_zero(lambda t: t * t, 1.0)
        ts = [t for t, _ in est.values]
        assert all(b == pytest.approx(0.5 * a) for a, b in zip(ts, ts[1:]))
        assert est.tail_min <= est.tail_max

    @pytest.mark.parametrize("tol", [math.inf, math.nan, -1.0])
    def test_tolerance_must_be_finite_and_nonnegative(self, tol):
        with pytest.raises(ValueError, match="tol must be finite and nonnegative"):
            limit_at_zero(lambda t: 1.0, 1.0, tol=tol)

    def test_errors_of_g_on_the_grid_become_nan_rows(self):
        def g(t):
            k = -math.log2(t)
            if k == round(k) and round(k) % 2:
                raise NonFinite(f"fails at {t}")
            return 2.0

        est = limit_at_zero(g, 1.0, window=4)
        assert [math.isnan(v) for _, v in est.values] == [k % 2 == 1 for k in range(7)]
        assert est.converged and est.estimate == 2.0

    def test_errors_of_g_off_the_grid_are_nan_probes(self):
        # A probe that fails cannot confirm the candidate: the scan stops
        # "aliased" instead of raising.
        def g(t):
            if -math.log2(t) != round(-math.log2(t)):
                raise NonFinite(f"fails at {t}")
            return 2.0

        est = limit_at_zero(g, 1.0)
        assert est.stop_reason == "aliased"
        assert est.tail_min == est.tail_max == 2.0

    @pytest.mark.parametrize(
        "a, reason", [(1e-5, "converged"), (1e-3, "aliased"), (1e-2, "aliased"), (0.5, "aliased")]
    )
    def test_exact_repeats_on_the_grid_meet_the_off_grid_check(self, a, reason):
        # 1 + a sin^2(pi log2(t / t0)) is exactly 1 at every grid point, so
        # three rows pass the rounding rule.  The off-grid probes read
        # 1 + 0.75 a: inside the check's band (about 2e-4) the rounding-level
        # limit 1 stands, outside it the scan stops "aliased" with the probes
        # in its tail.
        t0 = 0.375
        est = limit_at_zero(lambda t: 1.0 + a * math.sin(math.pi * math.log2(t / t0)) ** 2, t0)
        assert [v for _, v in est.values] == [1.0, 1.0, 1.0]
        assert est.stop_reason == reason
        if reason == "converged":
            assert est.tail_min == est.tail_max == 1.0
        else:
            assert est.tail_min == 1.0 and est.tail_max >= 1.0 + 0.75 * a

    def test_all_failures_name_the_first_error(self):
        calls = []

        def g(t):
            calls.append(t)
            raise (NonFinite if len(calls) == 1 else ZeroDivisionError)(f"failed at t={t}")

        with pytest.raises(AllEvaluationsFailed, match=r"; first failure: NonFinite: failed at t=1.0$") as info:
            limit_at_zero(g, 1.0)
        assert isinstance(info.value.__cause__, NonFinite)
        with pytest.raises(AllEvaluationsFailed, match=r"\]$") as info:
            limit_at_zero(lambda t: math.nan, 1.0)
        assert info.value.__cause__ is None

    def test_start_scale(self):
        assert start_scale(open_interval(0, 3.7), 1.0) == 1.0
        assert start_scale(open_interval(0, 3.7), 3.7 / 0.3) == 0.25
        assert start_scale(POS, 2.0**10) == 1.0
        for reach in (-1.0, 1e301):
            with pytest.raises(ValueError, match="admissible scales underflow"):
                start_scale(open_interval(0, 1), reach)
        with pytest.raises(ValueError, match=r"domain \(0.5, 2\) must have infimum 0"):
            start_scale(open_interval(0.5, 2), 1.0)

    # Stop reasons, each on a synthetic g.  Sampled at t = 2^-k, the parity
    # of k gives values that never settle and never spread further.

    @staticmethod
    def _parity(t):
        return float(round(-math.log2(t)) % 2)

    def test_stop_reason_converged(self):
        est = limit_at_zero(lambda t: 1.0 + t * t, 1.0)
        assert (est.stop_reason, est.converged) == ("converged", True)

    def test_stop_reason_runaway(self):
        # The window spread grows with 1/t, so the scan stops long before
        # the step cap.
        est = limit_at_zero(lambda t: 1.0 / t, 1.0)
        assert (est.stop_reason, est.converged) == ("runaway", False)
        assert len(est.values) < 30

    def test_stop_reason_underflow(self):
        est = limit_at_zero(self._parity, 2.0**-990)
        assert (est.stop_reason, est.converged) == ("underflow", False)
        assert est.values[-1][0] >= 1e-300 > 0.5 * est.values[-1][0]

    def test_stop_reason_step_cap(self):
        est = limit_at_zero(self._parity, 1.0)
        assert (est.stop_reason, est.converged) == ("step_cap", False)
        assert len(est.values) == 61

    def test_underflowing_scales_stop_the_iteration(self):
        est = limit_at_zero(lambda t: math.sin(1.0 / t), 1e-295)
        assert not est.converged
        assert est.values[-1][0] >= 1e-300
        assert len(est.values) < 61

    # Early stops: extrapolated and rounding-level limits, and the off-grid
    # check that keeps them from being fooled by the grid.

    def test_quadratic_error_extrapolates_in_few_halvings(self):
        est = limit_at_zero(lambda t: 1.5 + 2e-5 * t + 1e-6 * t * t, 1.0)
        assert est.converged
        assert len(est.values) <= 6
        assert est.tail_min == est.tail_max
        assert est.estimate == pytest.approx(1.5, abs=1e-14)

    def test_constant_stops_after_three_halvings(self):
        est = limit_at_zero(lambda t: -0.625, 1.0)
        assert (est.stop_reason, len(est.values)) == ("converged", 3)
        assert est.tail_min == est.tail_max == -0.625

    def test_jitter_never_extrapolates(self):
        # Values that never settle below 1e-7 take the window rule: the tail
        # is the first window of 8, as before any extrapolation existed.
        for phase in (0.0, 0.5, 1.0, 2.0, 3.0):
            est = limit_at_zero(lambda t: 1.5 + 1e-7 * math.sin(1e3 * math.log(t) + phase), 1.0)
            window = [v for _, v in est.values]
            assert est.converged and len(window) == 8
            assert (est.tail_min, est.tail_max) == (min(window), max(window))
        est = limit_at_zero(lambda t: 1.5 + 1e-7 * math.sin(1e3 * math.log(t)), 1.0)
        assert est.estimate == 1.4999999880729094

    def test_square_root_error_stays_within_tol(self):
        # Integer error powers cannot remove sqrt(t); the extrapolation gates
        # must leave such a scan to the window rule.
        for limit in (0.0, 1.5, -3.0, 100.0):
            for c in (1e-3, 0.1, 1.0, 10.0):
                for t0 in (1.0, 0.75, 0.3):
                    est = limit_at_zero(lambda t: limit + c * math.sqrt(t), t0)
                    assert est.converged
                    assert abs(est.estimate - limit) <= est.tol

    def test_off_grid_check_stops_an_aliased_scan(self):
        # f(x/2) = f(x)/2, so the qa mean's ratio M(t x)/t is the same at
        # every t = 2^-k, while over one octave of t it ranges over
        # [1.88, 2.16]: the lower and upper homogenizations differ.
        def f(x):
            return x * (2.0 + 0.1 * math.sin(2.0 * math.pi * math.log2(x)))

        handle = quasiarithmetic_handle(ScalarFunction("log_periodic", f, POS))
        est = local_homogenization(handle, _pos_sample([1.0, 3.0], [1.0, 1.0]))
        assert (est.stop_reason, est.converged) == ("aliased", False)
        assert est.spread >= 0.1
        assert 1.88 <= est.tail_min < est.tail_max <= 2.17
        # The table holds only the halving grid.
        ts = [t for t, _ in est.values]
        assert all(b == 0.5 * a for a, b in zip(ts, ts[1:]))

    def test_non_finite_values_count_toward_runaway(self):
        est = limit_at_zero(lambda t: 1.0 + t if t > 2.0**-12 else math.nan, 1.0)
        assert (est.stop_reason, est.converged) == ("runaway", False)
        # 12 finite values (t >= 2^-11), then LIMIT_WINDOW failures.
        assert len(est.values) == 12 + LIMIT_WINDOW


class TestEnvelopes:
    def test_homogeneous_mean_has_tight_envelopes(self):
        s = _pos_sample([1, 7], [1, 1])
        lower, upper = envelope_pair(power_handle(2), s)
        assert lower == pytest.approx(5.0, abs=1e-9)
        assert upper == pytest.approx(5.0, abs=1e-9)

    @pytest.mark.parametrize(
        "handle",
        [
            homogenize.MeanHandle("power(2)", POS, lambda s: power_mean(s, 2.0)),
            quasiarithmetic_handle(scalar_from_expression("x*x", POS)),  # no chain, no order
        ],
        ids=["power", "qa-x*x"],
    )
    def test_undeclared_homogeneous_mean_is_scanned_to_tight_envelopes(self, handle):
        # The scan finds what a declaration states.
        calls = []
        counted = dataclasses.replace(handle, fn=lambda s: calls.append(s) or handle.fn(s))
        lower, upper = envelope_pair(counted, _pos_sample([1, 7], [1, 1]))
        assert not handle.homogeneous and len(calls) > homogenize.ENVELOPE_GRID
        assert lower == pytest.approx(5.0, abs=1e-9)
        assert upper == pytest.approx(5.0, abs=1e-9)

    @pytest.mark.parametrize(
        "handle",
        [
            power_handle(2),
            quasiarithmetic_handle(power_generator(0.5)),
            quasiarithmetic_handle(scalar_from_expression("3*x^2+1", POS)),
            quasiarithmetic_handle(scalar_from_expression("2-log(x)", POS)),
            semideviation_handle(resolve_kernel("ratio_dev:log"), MeanKind.UPPER_WEAK),
            semideviation_handle(resolve_kernel("diff_gen:power:3"), MeanKind.LOWER_STRICT),
            deviation_handle(resolve_kernel("diff_gen:log")),
            deviation_handle(resolve_kernel("expr:sqrt(x)-sqrt(y)")),
        ],
        ids=lambda h: h.name,
    )
    def test_declared_mean_is_its_own_envelope_from_one_evaluation(self, handle):
        s = _pos_sample([1, 2, 7], [1, 2, 0.5])
        calls = []
        counted = dataclasses.replace(handle, fn=lambda s: calls.append(s) or handle.fn(s))
        lower, upper = envelope_pair(counted, s)
        assert handle.homogeneous and len(calls) == 1
        assert lower.hex() == upper.hex() == handle(s).hex()

    @pytest.mark.parametrize(
        "handle, declared",
        [
            (power_handle(2, open_interval(0.5, 9.0)), True),
            (quasiarithmetic_handle(power_generator(-1.0)), True),
            (quasiarithmetic_handle(power_generator(2.0).restricted(open_interval(-2.0, 2.0))), False),
            (quasiarithmetic_handle(cosh_generator()), False),
            (quasiarithmetic_handle(scalar_from_expression("x^2", open_interval(-2.0, 2.0))), False),
            (translated_power_handle(0.5, 1.0), False),
            (semideviation_handle(resolve_kernel("ratio_dev:exp"), MeanKind.LOWER_WEAK), True),
            (semideviation_handle(resolve_kernel("diff_gen:cosh"), MeanKind.LOWER_WEAK), False),
            (semideviation_handle(resolve_kernel("sign_dev"), MeanKind.LOWER_WEAK), True),
            (deviation_handle(resolve_kernel("expr:x^2-y^2")), True),
            (deviation_handle(resolve_kernel("expr:x*x-y*y")), False),
            (deviation_handle(resolve_kernel("diff_gen:shifted_power:2,1")), False),
        ],
        ids=lambda v: v.name if isinstance(v, homogenize.MeanHandle) else str(v),
    )
    def test_handles_declare_homogeneity_from_their_parts(self, handle, declared):
        assert handle.homogeneous is declared

    @pytest.mark.parametrize(
        "handle, entries",
        [
            # The qa mean of x^2 overflows, or sees no spread in x^2, at t = 1.
            (quasiarithmetic_handle(power_generator(2.0)), [1e200, 3e200]),
            (quasiarithmetic_handle(power_generator(2.0)), [1e-170, 2e-170]),
            # A decreasing f: its difference kernel has no means.
            (deviation_handle(resolve_kernel("diff_gen:power:-1")), [1.0, 2.0]),
            (semideviation_handle(resolve_kernel("diff_gen:power:-1"), MeanKind.LOWER_WEAK), [1.0, 2.0]),
        ],
    )
    def test_declared_path_changes_no_failure(self, handle, entries):
        s = _pos_sample(entries, [1, 1])
        with pytest.raises(SCAN_FAILURES):
            handle(s)

        def outcome(h):
            try:
                return envelope_pair(h, s)
            except Exception as exc:  # compared by type and message
                return type(exc).__name__, str(exc)

        assert handle.homogeneous
        assert outcome(handle) == outcome(dataclasses.replace(handle, homogeneous=False))

    def test_decreasing_difference_generator_still_fails_every_scale(self):
        handle = deviation_handle(resolve_kernel("diff_gen:power:-1"))
        with pytest.raises(
            AllEvaluationsFailed,
            match=r"^scaled mean ratio failed at every sampled scale; first failure: NoSignChange: "
            r"deviation sum has signs \(-1, 1\) at the hull ends$",
        ):
            envelope_pair(handle, _pos_sample([1, 2], [1, 1]))

    def test_declared_handle_still_needs_positive_entries(self):
        dom = open_interval(-5.0, 5.0)
        with pytest.raises(ValueError, match="positive entries"):
            envelope_pair(power_handle(1, dom), make_weighted_sample([-1.0, 2.0], [1, 1], dom))

    def test_envelopes_sandwich_the_mean(self):
        dom = open_interval(0, 2)
        gen = exp_generator().restricted(dom)
        handle = quasiarithmetic_handle(gen)
        s = make_weighted_sample([0.5, 1.0], [1, 1], dom)
        lower, upper = envelope_pair(handle, s)
        from meankit import quasiarithmetic_mean

        value = quasiarithmetic_mean(s, gen)
        assert lower <= value <= upper

    def test_empty_admissible_set_on_needle_domain(self):
        # A domain thinner than the endpoint margins leaves no scaling room;
        # the power handle's declared homogeneity does not skip that check.
        from meankit.errors import EmptyAdmissibleSet

        dom = open_interval(1.0, 1.0 + 1e-13)
        handle = power_handle(1, dom)
        s = make_weighted_sample([1.0 + 5e-14], [1.0], dom)
        with pytest.raises(EmptyAdmissibleSet):
            envelope_pair(handle, s)

    def test_all_failures_name_the_first_error(self):
        # The envelope scan shares limit_at_zero's failure rule.
        calls = []

        def fn(sample):
            calls.append(sample)
            raise (NonFinite if len(calls) == 1 else ZeroDivisionError)(f"failed on {sample.entries}")

        handle = homogenize.MeanHandle("failing", POS, fn)
        with pytest.raises(
            AllEvaluationsFailed,
            match=r"^scaled mean ratio failed at every sampled scale; first failure: NonFinite: failed on \(1\.0, 2\.0\)$",
        ) as info:
            envelope_pair(handle, _pos_sample([1, 2], [1, 1]))
        assert isinstance(info.value.__cause__, NonFinite)
        assert len(calls) == homogenize.ENVELOPE_GRID + 1

    def test_exp_lower_envelope_dominates_arithmetic(self):
        # The exponential generator's order operator is >= 1 on (0, 2), so
        # its mean dominates the arithmetic mean at every scale.
        dom = open_interval(0, 2)
        handle = quasiarithmetic_handle(exp_generator().restricted(dom))
        rng = random.Random(17)
        for _ in range(15):
            n = rng.randint(1, 4)
            entries = [rng.uniform(0.1, 1.8) for _ in range(n)]
            weights = [rng.uniform(0.1, 3) for _ in range(n)]
            s = make_weighted_sample(entries, weights, dom)
            lower, _ = envelope_pair(handle, s)
            p1 = power_mean(_pos_sample(entries, weights), 1)
            assert lower >= p1 - 1e-6


class TestLocalHomogenization:
    def test_homogeneous_mean_is_its_own_limit(self):
        s = _pos_sample([1, 7], [1, 1])
        est = local_homogenization(power_handle(2), s)
        assert est.converged
        assert est.estimate == pytest.approx(5.0, abs=1e-9)

    def test_cosh_mean_homogenizes_to_quadratic(self):
        s = _pos_sample([1, 7], [1, 1])
        est = local_homogenization(quasiarithmetic_handle(cosh_generator()), s)
        assert est.estimate == pytest.approx(5.0, abs=1e-4)

    def test_shifted_root_mean_homogenizes_to_arithmetic(self):
        s = _pos_sample([1, 3], [1, 2])
        handle = translated_power_handle(0.5, 1.0)
        est = local_homogenization(handle, s)
        assert est.estimate == pytest.approx(power_mean(s, 1), abs=1e-4)

    def test_translated_power_refuses_nonpositive_shifted_entries(self):
        # Entry 0.5 shifted by -1 is -0.5, outside the power mean's domain:
        # a typed error, not the TypeError of a complex root.
        handle = translated_power_handle(0.5, -1.0)
        with pytest.raises(EntryOutOfDomain):
            handle(_pos_sample([0.5, 2.0], [1, 1]))

    def test_homogenization_is_homogeneous(self):
        s = _pos_sample([0.8, 2.0, 3.5], [1, 2, 1])
        handle = quasiarithmetic_handle(cosh_generator())
        base = local_homogenization(handle, s).estimate
        for t in (0.5, 2.0, 10.0):
            scaled = local_homogenization(handle, s.scaled(t)).estimate
            assert scaled == pytest.approx(t * base, rel=1e-4)

    def test_entries_need_not_lie_in_the_mean_domain(self):
        dom = open_interval(0, 2)
        handle = quasiarithmetic_handle(exp_generator().restricted(dom))
        s = _pos_sample([5.0, 9.0], [1, 1])  # outside (0, 2)
        est = local_homogenization(handle, s)
        assert est.estimate == pytest.approx(power_mean(s, 1), abs=1e-3)

    def test_concave_handle_ratio_nonincreasing_and_dominates(self):
        # For a concave mean the scaled ratio decreases in t, so the mean is
        # dominated by its homogenization.
        rng = random.Random(23)
        handle = translated_power_handle(0.5, 1.0)
        for _ in range(15):
            n = rng.randint(1, 5)
            s = _pos_sample(
                [rng.uniform(0.2, 4) for _ in range(n)],
                [rng.uniform(0.1, 3) for _ in range(n)],
            )
            est = local_homogenization(handle, s)
            values = [v for _, v in est.values if not math.isnan(v)]
            for a, b in zip(values, values[1:]):
                assert b >= a - 1e-7 * (1 + abs(a))
            assert handle.fn(s) <= est.tail_min + 1e-6

    def test_convex_handle_ratio_nondecreasing_and_dominated(self):
        rng = random.Random(29)
        handle = quasiarithmetic_handle(exp_generator().restricted(POS))
        for _ in range(15):
            n = rng.randint(1, 4)
            s = _pos_sample(
                [rng.uniform(0.2, 3) for _ in range(n)],
                [rng.uniform(0.1, 3) for _ in range(n)],
            )
            est = local_homogenization(handle, s)
            values = [v for _, v in est.values if not math.isnan(v)]
            for a, b in zip(values, values[1:]):
                assert b <= a + 1e-7 * (1 + abs(a))
            assert handle.fn(s) >= est.tail_max - 1e-6

    def test_ordering_chain_envelopes_vs_local(self):
        dom = open_interval(0, 2)
        rng = random.Random(31)
        for gen in (exp_generator().restricted(dom), cosh_generator().restricted(dom)):
            handle = quasiarithmetic_handle(gen)
            for _ in range(10):
                n = rng.randint(1, 4)
                entries = [rng.uniform(0.1, 1.8) for _ in range(n)]
                weights = [rng.uniform(0.1, 3) for _ in range(n)]
                s = make_weighted_sample(entries, weights, dom)
                lower, upper = envelope_pair(handle, s)
                est = local_homogenization(handle, make_weighted_sample(entries, weights, POS))
                assert lower <= est.tail_min + 1e-6
                assert est.tail_min <= est.tail_max
                assert est.tail_max <= upper + 1e-6

    def test_positive_entries_are_checked_before_the_domain(self):
        # With both arguments wrong the sample's check comes first; the
        # domain's is the shared start-scale check.
        s = make_weighted_sample([-1.0, 2.0], [1, 1], open_interval(-5, 5))
        with pytest.raises(ValueError, match="needs positive entries"):
            homogenize.local_limit(lambda t: t, s, open_interval(-5, 5))
        with pytest.raises(ValueError, match="must have infimum 0"):
            homogenize.local_limit(lambda t: t, _pos_sample([1, 2], [1, 1]), open_interval(0.5, 5))


class TestKernelHomogenization:
    def test_start_scale_is_checked_before_normalizing(self):
        # A ratio whose admissible scales underflow is refused before the
        # kernel is normalized, so it wins over NotNormalizable.
        kernel = resolve_kernel("diff_gen:power:-1", open_interval(0, 1))
        with pytest.raises(NotNormalizable):
            kernel_homogenization(kernel, 2.0)
        with pytest.raises(ValueError, match="admissible scales underflow"):
            kernel_homogenization(kernel, 1e301)

    def test_cosh_kernel_profile(self):
        kernel = difference_kernel(cosh_generator())
        est = kernel_homogenization(kernel, 3.0)
        assert est.estimate == pytest.approx(4.0, abs=1e-5)

    def test_arithmetic_kernel_profile_is_exact(self):
        kernel = arithmetic_kernel().with_domains(POS)
        for r in (0.25, 1.0, 2.5):
            est = kernel_homogenization(kernel, r)
            assert est.converged
            assert est.estimate == pytest.approx(r - 1.0, abs=1e-9)

    def test_power_kernel_profile_closed_form(self):
        # Oracle: ((r^p - 1) / p) by direct algebra; the scaled kernel ratio
        # is independent of t for pure powers.
        for p in (0.5, 2.0, 3.0):
            kernel = difference_kernel(power_generator(p))
            for r in (0.5, 2.0, 4.0):
                est = kernel_homogenization(kernel, r)
                expected = (r**p - 1.0) / p
                assert est.estimate == pytest.approx(expected, rel=1e-9)

    def test_profile_structure_for_concave_normalization(self):
        # sqrt difference kernel: profile 2 (sqrt r - 1); concave, increasing,
        # sign of r - 1.  The node table's, not the closed form's.
        kernel = numeric_profile_kernel(difference_kernel(power_generator(0.5)))
        h = homogenization_profile(kernel)
        grid = [0.1 + 0.1 * k for k in range(40)]
        values = [h(r) for r in grid]
        for r, v in zip(grid, values):
            assert v == pytest.approx(2.0 * (math.sqrt(r) - 1.0), abs=1e-5)
        for a, b, c in zip(values, values[1:], values[2:]):
            assert b >= 0.5 * (a + c) - 1e-5  # concavity on a uniform grid
            assert b >= a - 1e-9  # nondecreasing


def _closed_profile(p: float, r: float) -> float:
    return math.log(r) if p == 0.0 else (r**p - 1.0) / p


#: (catalog kernel, p) with scale profile (r^p - 1) / p (log r at p = 0).
CLOSED_PROFILES = [
    *((difference_kernel(power_generator(p)), p) for p in (0.0, 0.5, 1.0, 2.0, 3.0)),
    (difference_kernel(cosh_generator()), 2.0),
]
PROFILE_MODES = ("estimate", "lower", "upper")


class TestProfileTable:
    # The catalog kernels' profiles are closed forms; these tests run the
    # node table on the same kernels with the generator's order dropped.

    @pytest.mark.parametrize("mode", PROFILE_MODES)
    @pytest.mark.parametrize("kernel,p", CLOSED_PROFILES, ids=lambda v: getattr(v, "name", v))
    def test_matches_closed_form(self, kernel, p, mode):
        # The node table is the oracle of the generator's declared order.
        q = kernel.structure.f.local_order
        assert q == p
        h = homogenization_profile(numeric_profile_kernel(kernel), mode)
        rng = random.Random(41)
        for _ in range(300):
            r = math.exp(rng.uniform(math.log(1 / 20), math.log(20)))
            closed = _closed_profile(q, r)
            assert abs(h(r) - closed) <= 1e-5 * (1.0 + abs(closed)), (r, closed)

    @pytest.mark.parametrize("mode", PROFILE_MODES)
    @pytest.mark.parametrize("kernel,p", CLOSED_PROFILES, ids=lambda v: getattr(v, "name", v))
    def test_sign_near_one(self, kernel, p, mode):
        h = homogenization_profile(numeric_profile_kernel(kernel), mode)
        for r in (1 - 1e-3, 1 - 1e-9, 1 + 1e-9, 1 + 1e-3):
            assert sign(h(r)) == sign(r - 1.0), r

    def test_nodes_are_kernel_homogenization_values(self):
        kernel = numeric_profile_kernel(difference_kernel(cosh_generator()))
        star = normalize_kernel(kernel)
        tables = {mode: homogenization_profile(kernel, mode) for mode in PROFILE_MODES}
        for k in (-40, -17, -1, 0, 1, 5, 16, 33, 60):
            r = 2.0 ** (k / 16)
            est = kernel_homogenization(kernel, r, normalized=star, tol=1e-5, window=4)
            assert tables["estimate"](r) == est.estimate
            assert tables["lower"](r) == est.tail_min
            assert tables["upper"](r) == est.tail_max

    @pytest.mark.parametrize("r", [0.0, -1.0, -math.inf, math.nan, math.inf])
    def test_ratio_outside_the_positive_reals_raises(self, r):
        kernel = difference_kernel(power_generator(2))
        for k in (kernel, numeric_profile_kernel(kernel)):
            h = homogenization_profile(k)
            with pytest.raises(ValueError):
                h(r)

    def test_catalog_cosh_nodes_converge_up_to_r_1000(self):
        # The catalog stores cosh as 2 sinh(x/2)^2, free of cancellation, so
        # the normalized kernel's limit scan settles at every node; with the
        # textbook cosh, 67 nodes in (25, 1000) missed the tolerance.
        h = homogenization_profile(numeric_profile_kernel(difference_kernel(cosh_generator())))
        for k in range(-160, 160):  # r = 2^(k/16) from 1/1000 to 1000
            r = 2.0 ** (k / 16)
            closed = (r**2 - 1) / 2
            assert abs(h(r) - closed) <= 1e-5 * max(1.0, abs(closed)), k

    def test_estimate_raises_exactly_when_a_needed_node_fails(self):
        # The expression spelling evaluates cosh(x) - cosh(y) as written, so
        # past r ~ 7 the tail spread exceeds the absolute tolerance: the node
        # at 2^(46/16) ~ 7.336 does not converge, while nodes 42-45 do.  A
        # query between nodes k and k+1 needs nodes k-1 to k+2; a query at a
        # node needs only that node.
        kernel = resolve_kernel("expr:cosh(x)-cosh(y)")
        h = homogenization_profile(kernel)
        bad = 2.0 ** (46 / 16)
        with pytest.raises(NotConverged, match=f"r={bad}"):
            h(bad)
        with pytest.raises(NotConverged, match=f"r={bad}"):
            h(2.0 ** (44.5 / 16))
        for r in (2.0 ** (45 / 16), math.nextafter(2.0 ** (44 / 16), 0.0)):
            assert h(r) == pytest.approx((r**2 - 1) / 2, rel=1e-5)
        assert homogenization_profile(kernel, "upper")(bad) == pytest.approx(
            (bad**2 - 1) / 2, rel=1e-6
        )

    @pytest.mark.parametrize("mode", ["estimate", "lower"])
    def test_memoized_cells_give_the_node_search_values(self, mode):
        # A query inside a memoized cell skips the node search.  Every value,
        # on a first and on a repeated query, must be the one a fresh
        # profile's node search gives: at the nodes, one ulp to either side
        # of them (where log2 may round across the node), and at random
        # ratios.  The node table must not grow on the repeated queries.
        kernel = numeric_profile_kernel(difference_kernel(cosh_generator()))
        star = normalize_kernel(kernel)
        table: dict = {}
        h = homogenization_profile(kernel, mode, normalized=star, _node_estimates=table)
        nodes = [2.0 ** (k / 16) for k in range(-70, 70)]
        rng = random.Random(47)
        ratios = [
            *nodes,
            *(math.nextafter(r, -math.inf) for r in nodes),
            *(math.nextafter(r, math.inf) for r in nodes),
            *(math.exp(rng.uniform(math.log(1 / 20), math.log(20))) for _ in range(10_000)),
        ]
        first = [h(r).hex() for r in ratios]
        scanned = len(table)
        repeated = [h(r).hex() for r in ratios]
        assert len(table) == scanned
        searched = [
            homogenization_profile(kernel, mode, normalized=star, _node_estimates=table)(r).hex()
            for r in ratios
        ]
        assert first == searched
        assert repeated == searched

    def test_queries_share_a_bounded_set_of_node_scans(self, monkeypatch):
        scans = []

        def counting(g, t0, **kwargs):
            scans.append(t0)
            return limit_at_zero(g, t0, **kwargs)

        monkeypatch.setattr(homogenize, "limit_at_zero", counting)
        h = homogenization_profile(numeric_profile_kernel(difference_kernel(cosh_generator())), "lower")
        rng = random.Random(43)
        for _ in range(2000):
            h(math.exp(rng.uniform(math.log(1 / 20), math.log(20))))
        assert 0 < len(scans) <= 150

    def test_profiles_sharing_a_node_table_give_the_same_values(self, monkeypatch):
        kernel = numeric_profile_kernel(difference_kernel(cosh_generator()))
        star = normalize_kernel(kernel)
        ratios = [math.exp(u / 7.0) for u in range(-20, 21)]
        separate = {
            mode: [homogenization_profile(kernel, mode, normalized=star)(r) for r in ratios]
            for mode in PROFILE_MODES
        }
        scans = []

        def counting(g, t0, **kwargs):
            scans.append(t0)
            return limit_at_zero(g, t0, **kwargs)

        monkeypatch.setattr(homogenize, "limit_at_zero", counting)
        table: dict = {}
        for mode in PROFILE_MODES:
            h = homogenization_profile(kernel, mode, normalized=star, _node_estimates=table)
            assert [h(r).hex() for r in ratios] == [v.hex() for v in separate[mode]]
        assert len(scans) == len(table)


class TestClosedFormProfile:
    @pytest.mark.parametrize("mode", PROFILE_MODES)
    @pytest.mark.parametrize("kernel,p", CLOSED_PROFILES, ids=lambda v: getattr(v, "name", v))
    def test_catalog_profile_is_the_closed_form(self, kernel, p, mode, monkeypatch):
        scans = []
        monkeypatch.setattr(homogenize, "limit_at_zero", lambda *a, **k: scans.append(a))
        h = homogenization_profile(kernel, mode)
        assert h.order == p
        for r in (1e-3, 0.5, 1 - 1e-12, 1.0, 1 + 1e-12, 2.0, 1e3):
            expected = math.log(r) if p == 0 else math.expm1(p * math.log(r)) / p
            assert h(r) == expected
            assert sign(h(r)) == sign(r - 1.0)
        assert h(4.0) == pytest.approx(_closed_profile(p, 4.0), rel=1e-15)
        assert scans == []

    @pytest.mark.parametrize("kernel,p", CLOSED_PROFILES, ids=lambda v: getattr(v, "name", v))
    def test_power_means_equal_the_sign_scan(self, kernel, p):
        # The declared P_q against the sign scan over the same profile.
        closed = ratio_kernel_from_profile("h", homogenization_profile(kernel))
        assert closed.structure.order == p
        scanned = dataclasses.replace(closed, structure=Ratio(closed.structure.h))
        cfg = SemidevMeanConfig(grid_size=64)
        kinds = list(MeanKind)
        rng = random.Random(53)
        for _ in range(40):
            n = rng.randint(2, 5)
            s = _pos_sample(
                [rng.uniform(0.1, 10.0) for _ in range(n)],
                [rng.uniform(0.1, 3.0) for _ in range(n)],
            )
            lo, hi = s.hull()
            expected = min(max(power_mean(s, p), lo), hi)
            means = semideviation_means(closed, s, kinds, cfg)
            assert means == {kind: expected for kind in kinds}
            assert deviation_mean(closed, s, cfg) == expected
            for kind, value in semideviation_means(scanned, s, kinds, cfg).items():
                assert abs(value - expected) <= 1e-11 * expected, (kind, s)

    @pytest.mark.parametrize(
        "kernel",
        [
            resolve_kernel("expr:cosh(x)-cosh(y)"),
            difference_kernel(shifted_power_generator(2, 1).restricted(POS)),
            difference_kernel(
                ScalarFunction("square", lambda x: x * x, POS, lambda x: 2 * x, lambda x: 2.0)
            ),
        ],
        ids=lambda k: k.name,
    )
    def test_undeclared_orders_build_the_node_table(self, kernel, monkeypatch):
        calls = []
        original = homogenize.kernel_homogenization

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(homogenize, "kernel_homogenization", counting)
        h = homogenization_profile(kernel)
        assert not hasattr(h, "order")
        assert calls == []  # nodes are scanned on the first query
        h(2.0)
        assert calls
        assert ratio_kernel_from_profile("h", h).structure.order is None

    def test_only_a_closed_form_profile_declares_a_power_order(self):
        h = homogenization_profile(difference_kernel(cosh_generator()))
        assert ratio_kernel_from_profile("h", h).structure.order == 2.0
        # A functools.wraps wrapper keeps the promise; any other wrapper,
        # which may change the values, drops it.
        wrapped = functools.wraps(h)(lambda r: h(r))
        assert ratio_kernel_from_profile("h", wrapped).structure.order == 2.0
        assert ratio_kernel_from_profile("h", lambda r: h(r**1.05)).structure.order is None

    @pytest.mark.parametrize(
        "kernel", [difference_kernel(cosh_generator()), numeric_profile_kernel(difference_kernel(cosh_generator()))],
        ids=["closed form", "table"],
    )
    def test_unknown_mode_raises(self, kernel):
        # The table once answered "bogus" with the "upper" value and the
        # closed form ignored the mode.
        with pytest.raises(ValueError, match="mode must be 'estimate', 'lower' or 'upper', got 'bogus'"):
            homogenization_profile(kernel, "bogus")

    def test_unnormalizable_kernel_still_raises(self):
        with pytest.raises(NotNormalizable):
            homogenization_profile(resolve_kernel("diff_gen:power:-1"))

    def test_declared_order_needs_a_domain_starting_at_zero(self):
        h = homogenization_profile(resolve_kernel("diff_gen:exp"))
        with pytest.raises(ValueError, match="infimum 0"):
            h(2.0)
        h = homogenization_profile(resolve_kernel("diff_gen:exp", open_interval(0, 5)))
        assert h.order == 1.0
        for r in (0.25, 0.5, 2.0, 3.0):
            assert h(r) == pytest.approx(r - 1.0, rel=1e-15)

    @pytest.mark.parametrize("spec,r", [("power:2", 1e200), ("cosh", 1e160), ("power:3", 1e103)])
    def test_overflowing_ratio_raises_non_finite(self, spec, r):
        h = homogenization_profile(resolve_kernel(spec))
        with pytest.raises(NonFinite):
            h(r)


def _homogeneous_means(kernel, sample, kind):
    """The kind's mean of the sample under both homogeneous kernels."""
    return [semideviation_mean(k, sample, kind) for k in homogeneous_kernels(kernel)]


class TestHomogeneousKernels:
    def test_cosh_kernel_gives_quadratic_mean(self):
        kernel = difference_kernel(cosh_generator())
        s = _pos_sample([1, 7], [1, 1])
        for value in _homogeneous_means(kernel, s, MeanKind.LOWER_WEAK):
            assert value == pytest.approx(5.0, rel=1e-4)

    def test_arithmetic_kernel_gives_arithmetic_mean(self):
        kernel = arithmetic_kernel().with_domains(POS)
        s = _pos_sample([1, 5], [1, 3])
        for value in _homogeneous_means(kernel, s, MeanKind.UPPER_WEAK):
            assert value == pytest.approx(4.0, abs=1e-6)

    def test_cubic_kernel_matches_cubic_power_mean(self):
        kernel = difference_kernel(power_generator(3))
        s = _pos_sample([1, 2], [1, 1])
        for value in _homogeneous_means(kernel, s, MeanKind.LOWER_WEAK):
            assert value == pytest.approx((9.0 / 2.0) ** (1.0 / 3.0), abs=1e-5)

    def test_sqrt_kernel_matches_half_power_mean(self):
        kernel = difference_kernel(power_generator(0.5))
        s = _pos_sample([0.8, 2.5, 4.0], [1, 2, 1])
        for value in _homogeneous_means(kernel, s, MeanKind.LOWER_WEAK):
            assert value == pytest.approx(power_mean(s, 0.5), rel=1e-5)

    def test_result_scales_with_the_sample(self):
        kernels = homogeneous_kernels(difference_kernel(cosh_generator()))
        s = _pos_sample([0.8, 2.4], [1, 2])
        for k in kernels:
            base = semideviation_mean(k, s, MeanKind.LOWER_WEAK)
            for t in (0.5, 2.0):
                scaled = semideviation_mean(k, s.scaled(t), MeanKind.LOWER_WEAK)
                assert scaled == pytest.approx(t * base, rel=1e-6)

    def test_sign_property_guard(self, monkeypatch):
        kernel = arithmetic_kernel().with_domains(POS)
        monkeypatch.setattr(homogenize, "homogenization_profile", lambda *a, **kw: lambda r: 1.0 - r)
        with pytest.raises(SignPropertyViolated):
            homogeneous_kernels(kernel)

    def test_unconverged_profile_raises(self, monkeypatch):
        kernel = arithmetic_kernel().with_domains(POS)

        def flaky(r):
            raise NotConverged("no tail")

        monkeypatch.setattr(homogenize, "homogenization_profile", lambda *a, **kw: flaky)
        with pytest.raises(SignPropertyViolated) as info:
            homogeneous_kernels(kernel)
        assert isinstance(info.value.__cause__, NotConverged)


def test_semideviation_handle_evaluates():
    kernel = difference_kernel(cosh_generator())
    handle = semideviation_handle(kernel, MeanKind.LOWER_WEAK)
    s = _pos_sample([1, 7], [1, 1])
    assert handle(s) == pytest.approx(math.acosh((math.cosh(1) + math.cosh(7)) / 2), abs=1e-9)


def test_deviation_handle_evaluates():
    handle = deviation_handle(arithmetic_kernel())
    s = make_weighted_sample([1, 5], [1, 3], arithmetic_kernel().domain_x)
    assert handle(s) == pytest.approx(4.0, abs=1e-10)


def test_scan_defaults_by_value():
    # Literal numbers, so that a changed default constant fails here.
    kernel = difference_kernel(power_generator(2.0))
    local = local_homogenization(power_handle(2.0), _pos_sample([1.0, 3.0], [1.0, 2.0]))
    assert (local.window, local.tol) == (8, 1e-6)
    scan = kernel_homogenization(kernel, 2.0)
    assert (scan.window, scan.tol) == (8, 1e-6)
    nodes = {}
    homogenization_profile(numeric_profile_kernel(kernel), _node_estimates=nodes)(1.5)
    assert nodes and all((est.window, est.tol) == (4, 1e-5) for est in nodes.values())
