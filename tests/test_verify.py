import dataclasses
import json
import math
from collections import Counter

import pytest

from meankit import (
    Kernel2,
    MeanHandle,
    MeanKind,
    SamplePlan,
    SemidevMeanConfig,
    arithmetic_kernel,
    cosh_generator,
    difference_kernel,
    kernel_from_expression,
    local_homogenization,
    log_generator,
    make_weighted_sample,
    normalize_kernel,
    open_interval,
    power_generator,
    scalar_from_expression,
    semideviation_mean,
    sign_kernel,
    verify_cei,
    verify_comparison,
    verify_homi,
    verify_jensen,
    verify_lemma_lim,
    verify_sandwich,
    verify_tei,
)
import meankit.domain as domain_module
import meankit.homogenize as homogenize
import meankit.semideviation as semideviation
import meankit.verify as verify
from meankit.domain import all_reals, positive_reals
from meankit.errors import AllWeightsZero, EntryOutOfDomain, LengthMismatch, NegativeWeight, NonFinite
from meankit.homogenize import local_limit
from meankit.verify import hoelder_preset, minkowski_preset

from conftest import numeric_profile_kernel

POS = positive_reals()
REALS = all_reals()


def profile_suite_handle(kernel, kind):
    """The handle ``semideviation_handle`` builds, solving with the
    scale-profile suites' config."""
    return MeanHandle(
        f"semidev({kernel.name},{kind.value})",
        kernel.domain_x,
        lambda s: semideviation_mean(kernel, s, kind, verify.PROFILE_SUITE_CONFIG),
    )


def _overflowing_profile(mode, r):
    if r < 1.0:
        raise NonFinite("profile overflowed")
    return r - 1.0


def counted(calls, name, fn):
    """``fn``, counting its calls in ``calls[name]``."""

    def wrapper(*args):
        calls[name] += 1
        return fn(*args)

    return wrapper


class TestSamplePlan:
    def test_deterministic_stream(self):
        plan = SamplePlan(seed=42, n_samples=30, entry_range=(0.5, 4.0))
        first = plan.samples(POS)
        second = plan.samples(POS)
        assert [(s.entries, s.weights) for s in first] == [
            (s.entries, s.weights) for s in second
        ]

    def test_degenerate_rate(self):
        plan = SamplePlan(seed=1, n_samples=100, n_range=(3, 6), entry_range=(0.5, 4.0))
        degenerate = [s for s in plan.samples(POS) if s.is_constant()]
        assert len(degenerate) == 5

    def test_pairs_share_weights_and_length(self):
        plan = SamplePlan(seed=2, n_samples=20, entry_range=(0.5, 4.0))
        for s1, s2 in plan.sample_pairs(POS):
            assert len(s1) == len(s2)
            assert s1.weights == s2.weights

    def test_entry_range_validated(self):
        plan = SamplePlan(seed=3, n_samples=5, entry_range=(-1.0, 4.0))
        with pytest.raises(ValueError):
            plan.samples(POS)

    @staticmethod
    def _outcome(build):
        """(entries, weights, domain) of every sample ``build`` returns, or
        the type and message of the error it raises."""
        try:
            samples = build()
        except Exception as exc:
            return type(exc), str(exc)
        return [(s.entries, s.weights, s.domain) for s in samples]

    @pytest.mark.parametrize(
        "plan, second_domain, error",
        [
            (SamplePlan(seed=2, n_samples=60, entry_range=(0.5, 3.9)), None, None),
            (SamplePlan(seed=2, n_samples=60, entry_range=(0.5, 3.9), weight_range=(0.0, 1e-300)), None, None),
            (SamplePlan(seed=4, n_samples=30, n_range=(0, 2), entry_range=(0.5, 3.9)), None, LengthMismatch),
            (SamplePlan(seed=4, n_samples=30, entry_range=(0.5, 3.9), weight_range=(-1.0, 1.0)), None, NegativeWeight),
            (SamplePlan(seed=4, n_samples=30, entry_range=(0.5, 3.9), weight_range=(0.0, 0.0)), None, AllWeightsZero),
            # The entry range is checked against the second domain too.
            (SamplePlan(seed=4, n_samples=30, entry_range=(0.5, 3.9)), open_interval(0.25, 3.0), ValueError),
        ],
        ids=["valid", "tiny-weights", "empty", "negative-weight", "zero-weights", "second-domain"],
    )
    def test_samples_equal_the_validated_constructor(self, plan, second_domain, error, monkeypatch):
        # float_sample returns at once from a reduced check; every plan
        # sample, and every error with its first offending value, must be
        # what its value-by-value check gives on the same draws.
        domain = open_interval(0.25, 4.0)

        def outcomes():
            return (
                self._outcome(lambda: [s for pair in plan.sample_pairs(domain, second_domain) for s in pair]),
                self._outcome(lambda: plan.samples(domain)),
            )

        drawn = outcomes()
        with monkeypatch.context() as patch:
            patch.setattr(verify, "float_sample", domain_module._checked_sample)
            assert drawn == outcomes()
        if error is None:
            assert all(s1.weights is s2.weights for s1, s2 in plan.sample_pairs(domain))
        else:
            assert drawn[0][0] is error


class TestSandwich:
    def test_sign_kernel_passes(self):
        plan = SamplePlan(seed=5, n_samples=120, entry_range=(-4.0, 4.0))
        report = verify_sandwich(sign_kernel(), plan)
        assert report.overall == "pass"

    def test_linear_kernel_collapses_all_kinds(self):
        plan = SamplePlan(seed=6, n_samples=60, entry_range=(-4.0, 4.0))
        report = verify_sandwich(arithmetic_kernel(), plan)
        assert report.overall == "pass"
        cfg = SemidevMeanConfig(grid_size=128)
        for s in plan.samples(REALS)[:10]:
            values = [semideviation_mean(arithmetic_kernel(), s, k, cfg) for k in MeanKind]
            assert max(values) - min(values) <= 1e-9 * (1 + abs(values[0]))

    def test_reversed_kernel_is_inconclusive(self):
        plan = SamplePlan(seed=7, n_samples=10, entry_range=(0.5, 4.0))
        report = verify_sandwich(kernel_from_expression("y - x", POS), plan)
        assert report.overall == "inconclusive"


class TestLemmaLim:
    def test_linear_kernel_closed_form(self):
        # The lower-weak mean of ((x, y), (1, n)) for the difference kernel
        # is (x + n y) / (n + 1), so n (mean - y) = n (x - y) / (n + 1).
        kernel = arithmetic_kernel()
        report = verify_lemma_lim(kernel, 1.0, 2.0)
        assert report.overall == "pass"

    def test_cosh_kernel_converges_to_normalized_value(self):
        kernel = difference_kernel(cosh_generator())
        report = verify_lemma_lim(kernel, 1.0, 2.0)
        assert report.overall == "pass"

    def test_equal_points_trivially_pass(self):
        report = verify_lemma_lim(difference_kernel(cosh_generator()), 2.0, 2.0)
        assert report.overall == "pass"

    def test_reversed_order_also_converges(self):
        report = verify_lemma_lim(difference_kernel(cosh_generator()), 2.0, 1.0)
        assert report.overall == "pass"

    def test_limit_matches_closed_form_target(self):
        kernel = difference_kernel(cosh_generator())
        scaled = normalize_kernel(kernel)
        expected = (math.cosh(1.0) - math.cosh(2.0)) / math.sinh(2.0)
        assert scaled(1.0, 2.0) == pytest.approx(expected, rel=1e-12)


class TestComparison:
    def test_ordered_generators_pass(self):
        plan = SamplePlan(seed=9, n_samples=80, entry_range=(0.5, 8.0))
        report = verify_comparison(
            difference_kernel(power_generator(1)),
            difference_kernel(power_generator(2)),
            plan,
        )
        assert report.overall == "pass"

    def test_swapped_generators_fail_with_replayable_witness(self):
        plan = SamplePlan(seed=9, n_samples=80, entry_range=(0.5, 8.0))
        report = verify_comparison(
            difference_kernel(power_generator(2)),
            difference_kernel(power_generator(1)),
            plan,
        )
        assert report.overall == "fail"
        witness = report.condition("mean_inequalities").witness
        assert witness is not None
        # Replay: rebuild the sample and re-evaluate the violated inequality.
        s = make_weighted_sample(witness["entries"], witness["weights"], POS)
        cfg = SemidevMeanConfig(grid_size=128)
        replay_low = {
            k.value: semideviation_mean(difference_kernel(power_generator(2)), s, k, cfg)
            for k in MeanKind
        }
        replay_high = {
            k.value: semideviation_mean(difference_kernel(power_generator(1)), s, k, cfg)
            for k in MeanKind
        }
        violated = [
            k for k in replay_low if replay_low[k] > replay_high[k] + 1e-7 * (1 + abs(replay_high[k]))
        ]
        assert violated

    def test_equal_kernels_pass_with_equality(self):
        plan = SamplePlan(seed=10, n_samples=40, entry_range=(0.5, 8.0))
        k = difference_kernel(power_generator(2))
        report = verify_comparison(k, k, plan)
        assert report.overall == "pass"

    def test_not_normalizable_is_inconclusive(self):
        plan = SamplePlan(seed=10, n_samples=5, entry_range=(-4.0, 4.0))
        report = verify_comparison(sign_kernel(), arithmetic_kernel(), plan)
        assert report.overall == "inconclusive"

    def test_perturbed_means_break_implication_consistency(self, monkeypatch):
        # A solver defect on a passing pair: the first kernel's means move up
        # by 1, so they break the order that the kernels keep.
        low, high = difference_kernel(power_generator(1)), difference_kernel(power_generator(2))
        original = verify.semideviation_means

        def perturbed(kernel, sample, kinds, cfg=None):
            means = original(kernel, sample, kinds, cfg)
            return {k: v + 1.0 for k, v in means.items()} if kernel is low else means

        monkeypatch.setattr(verify, "semideviation_means", perturbed)
        report = verify_comparison(low, high, SamplePlan(seed=9, n_samples=80, entry_range=(0.5, 8.0)))
        assert report.condition("kernel_pointwise").holds
        consistency = report.condition("implication_consistency")
        assert not consistency.holds
        assert consistency.witness == {
            "kernel_pointwise": True, "mean_inequalities": False, "weakest_link": False,
        }


class TestJensen:
    def test_affine_kernel_passes_all_faces(self):
        plan = SamplePlan(seed=11, n_samples=60, entry_range=(-4.0, 4.0))
        report = verify_jensen(arithmetic_kernel(), plan)
        assert report.overall == "pass"

    def test_sqrt_kernel_passes(self):
        plan = SamplePlan(seed=12, n_samples=60, entry_range=(0.5, 8.0))
        report = verify_jensen(difference_kernel(power_generator(0.5)), plan)
        assert report.overall == "pass"

    def test_square_kernel_fails_kernel_face_with_witness(self):
        plan = SamplePlan(seed=13, n_samples=60, entry_range=(0.5, 8.0))
        report = verify_jensen(difference_kernel(power_generator(2)), plan)
        assert report.overall == "fail"
        face = report.condition("kernel_midpoint_concavity")
        assert not face.holds and face.witness is not None
        # Replay the witness quadruple against the normalized kernel.
        w = face.witness
        scaled = normalize_kernel(difference_kernel(power_generator(2)))
        lhs = scaled(0.5 * (w["x"] + w["y"]), 0.5 * (w["u"] + w["v"]))
        rhs = 0.5 * (scaled(w["x"], w["u"]) + scaled(w["y"], w["v"]))
        assert lhs < rhs - 1e-9
        # Faces must agree: coupling holds even though the suite fails.
        assert report.condition("face_coupling").holds

    def test_perturbed_midpoint_means_break_face_coupling(self, monkeypatch):
        # A solver defect on a passing kernel: each pair's midpoint means,
        # solved after the means of its two samples, drop by 1, so a mean face
        # fails on a pair whose hull passes the kernel face.
        original = verify.semideviation_means
        calls = []

        def perturbed(kernel, sample, kinds, cfg=None):
            calls.append(sample)
            means = original(kernel, sample, kinds, cfg)
            return {k: v - 1.0 for k, v in means.items()} if len(calls) % 3 == 0 else means

        monkeypatch.setattr(verify, "semideviation_means", perturbed)
        plan = SamplePlan(seed=12, n_samples=60, entry_range=(0.5, 8.0))
        report = verify_jensen(difference_kernel(power_generator(0.5)), plan)
        assert report.condition("kernel_midpoint_concavity").holds
        coupling = report.condition("face_coupling")
        assert not coupling.holds
        witness = coupling.witness
        assert set(witness) == {"sample_index", "entries", "weights", "entries_second", "note"}
        assert witness["note"] == "mean face violated although the kernel face holds on the hull"
        midpoint = [0.5 * (a + b) for a, b in zip(witness["entries"], witness["entries_second"])]
        assert list(calls[3 * witness["sample_index"] + 2].entries) == midpoint


class TestScaleProfileSuites:
    def test_tei_cosh_kernel_passes(self):
        plan = SamplePlan(seed=14, n_samples=12, n_range=(1, 4), entry_range=(0.5, 3.0))
        report = verify_tei(difference_kernel(cosh_generator()), plan)
        assert report.overall == "pass"

    def test_tei_arithmetic_kernel_passes(self):
        plan = SamplePlan(seed=15, n_samples=12, n_range=(1, 4), entry_range=(0.5, 3.0))
        report = verify_tei(arithmetic_kernel().with_domains(POS), plan)
        assert report.overall == "pass"

    def test_cei_sqrt_kernel_passes(self):
        plan = SamplePlan(seed=16, n_samples=12, n_range=(1, 4), entry_range=(0.5, 3.0))
        report = verify_cei(difference_kernel(power_generator(0.5)), plan)
        assert report.overall == "pass"

    def test_cei_arithmetic_kernel_passes(self):
        plan = SamplePlan(seed=17, n_samples=12, n_range=(1, 4), entry_range=(0.5, 3.0))
        report = verify_cei(arithmetic_kernel().with_domains(POS), plan)
        assert report.overall == "pass"

    def test_cei_cosh_kernel_inconclusive(self):
        # The normalized cosh kernel is convex in its first argument, so the
        # concavity hypothesis fails and the suite must not claim a verdict.
        plan = SamplePlan(seed=18, n_samples=8, n_range=(1, 3), entry_range=(0.5, 3.0))
        report = verify_cei(difference_kernel(cosh_generator()), plan)
        assert report.overall == "inconclusive"

    def test_tei_sqrt_kernel_passes(self):
        plan = SamplePlan(seed=25, n_samples=10, n_range=(1, 4), entry_range=(0.5, 3.0))
        report = verify_tei(difference_kernel(power_generator(0.5)), plan)
        assert report.overall == "pass"

    @pytest.mark.parametrize(
        "suite,kernel",
        [
            (verify_tei, difference_kernel(cosh_generator())),
            (verify_cei, difference_kernel(power_generator(0.5))),
        ],
    )
    def test_distorted_profile_fails(self, suite, kernel, monkeypatch):
        # h(r^1.05) moves the profile mean to another power mean; a constant
        # factor on h would leave it unchanged and could not fail the check.
        original = homogenize.homogenization_profile

        def distorted(*args, **kwargs):
            h = original(*args, **kwargs)
            return lambda r: h(r**1.05)

        plan = SamplePlan(seed=26, n_samples=10, n_range=(2, 4), entry_range=(0.5, 3.0))
        assert suite(kernel, plan).overall == "pass"
        # tei builds its profiles in homogenize, cei in verify.
        monkeypatch.setattr(homogenize, "homogenization_profile", distorted)
        monkeypatch.setattr(verify, "homogenization_profile", distorted)
        assert suite(kernel, plan).overall == "fail"

    def test_tei_shared_local_scans_match_separate_scans(self, monkeypatch):
        # Both local scans of a sample read one solve per scale; each must
        # equal the scan of its own handle, solving alone.
        kernel = difference_kernel(cosh_generator())
        scans = []

        def recording(mean_at, sample, domain, **kwargs):
            est = local_limit(mean_at, sample, domain, **kwargs)
            scans.append((sample, est))
            return est

        monkeypatch.setattr(verify, "local_limit", recording)
        plan = SamplePlan(seed=27, n_samples=8, n_range=(1, 4), entry_range=(0.5, 3.0))
        assert verify_tei(kernel, plan).overall == "pass"
        kinds = [MeanKind.UPPER_STRICT, MeanKind.LOWER_STRICT] * plan.n_samples
        assert len(scans) == len(kinds)
        for (sample, est), kind in zip(scans, kinds):
            separate = local_homogenization(profile_suite_handle(kernel, kind), sample)
            assert (est.tail_min.hex(), est.tail_max.hex()) == (
                separate.tail_min.hex(),
                separate.tail_max.hex(),
            )
            assert est.values == separate.values

    def test_tei_scans_each_profile_node_once(self, monkeypatch):
        ratios = []
        original = homogenize.kernel_homogenization

        def counting(kernel, ratio_value, **kwargs):
            ratios.append(ratio_value)
            return original(kernel, ratio_value, **kwargs)

        monkeypatch.setattr(homogenize, "kernel_homogenization", counting)
        kernel = numeric_profile_kernel(difference_kernel(cosh_generator()))
        plan = SamplePlan(seed=28, n_samples=6, n_range=(1, 4), entry_range=(0.5, 3.0))
        shared = verify_tei(kernel, plan)
        assert shared.overall == "pass"
        assert ratios and len(ratios) == len(set(ratios))
        distinct = len(ratios)

        # Separate tables (the profiles built without a shared node memo)
        # scan every node twice and give the same report bytes.
        profile = homogenize.homogenization_profile

        def separate(*args, _node_estimates=None, **kwargs):
            return profile(*args, **kwargs)

        monkeypatch.setattr(homogenize, "homogenization_profile", separate)
        ratios.clear()
        assert verify_tei(kernel, plan).to_json() == shared.to_json()
        assert len(ratios) == 2 * distinct

    def test_shared_strict_solves_keep_their_kinds_apart(self):
        # Two entries of equal weight put a zero plateau between them into the
        # sign kernel's deviation sum, so the strict lower and upper means differ.
        kernel = sign_kernel().with_domains(POS)
        s = make_weighted_sample([1.0, 3.0], [1.0, 1.0], POS)
        means = verify._strict_means_by_scale(kernel, s)
        for kind, expected in ((MeanKind.UPPER_STRICT, 1.0), (MeanKind.LOWER_STRICT, 3.0)):
            est = local_limit(lambda t: means(t)[kind], s, kernel.domain_x)
            separate = local_homogenization(profile_suite_handle(kernel, kind), s)
            assert est.values == separate.values
            assert est.estimate == pytest.approx(expected)

    @pytest.mark.parametrize(
        "profile,reason",
        [
            (_overflowing_profile, "scale profile failed at ratio 0.25: profile overflowed"),
            (lambda mode, r: math.nan if r < 1.0 else r - 1.0, "scale profile not finite at ratio 0.25"),
            (lambda mode, r: abs(r - 1.0), "sign property violated at ratio 0.25: profile values (0.75, 0.75)"),
            # The lower profile breaks only at 4.0, the upper only at 0.25:
            # both profiles are probed at a ratio before the next ratio.
            (
                lambda mode, r: 1.0 - r if (mode, r) in (("lower", 4.0), ("upper", 0.25)) else r - 1.0,
                "sign property violated at ratio 0.25: profile values (-0.75, 0.75)",
            ),
        ],
    )
    def test_tei_sign_probe_failures_are_inconclusive(self, profile, reason, monkeypatch):
        def failing(kernel, mode, **kwargs):
            return lambda r: profile(mode, r)

        monkeypatch.setattr(homogenize, "homogenization_profile", failing)
        plan = SamplePlan(seed=29, n_samples=4, n_range=(1, 3), entry_range=(0.5, 3.0))
        report = verify_tei(difference_kernel(cosh_generator()), plan)
        assert report.overall == "inconclusive"
        assert report.conditions[0].note == reason


class TestOperationSuites:
    def test_arithmetic_additivity_is_exact(self):
        plan = SamplePlan(seed=19, n_samples=60, n_range=(1, 5), entry_range=(0.6, 3.9))
        preset = minkowski_preset(power_generator(1))
        report = verify_homi(
            preset["kernel_result"], preset["kernel_first"], preset["kernel_second"],
            preset["operation"], plan, grid=8, monotone_mode=True, suite_label="minkowski",
        )
        assert report.overall == "pass"
        assert report.condition("pointwise").max_excess <= 1e-9

    def test_geometric_multiplicativity_is_exact(self):
        plan = SamplePlan(seed=20, n_samples=60, n_range=(1, 5), entry_range=(0.6, 3.9))
        preset = hoelder_preset(power_generator(0))
        report = verify_homi(
            preset["kernel_result"], preset["kernel_first"], preset["kernel_second"],
            preset["operation"], plan, grid=8, monotone_mode=True, suite_label="hoelder",
        )
        assert report.overall == "pass"
        assert report.condition("pointwise").max_excess <= 1e-9

    def test_quadratic_triangle_inequality(self):
        plan = SamplePlan(seed=21, n_samples=60, n_range=(1, 5), entry_range=(0.6, 3.9))
        preset = minkowski_preset(power_generator(2))
        report = verify_homi(
            preset["kernel_result"], preset["kernel_first"], preset["kernel_second"],
            preset["operation"], plan, grid=8, monotone_mode=True, suite_label="minkowski",
        )
        assert report.overall == "pass"

    def test_sixteen_kind_pairs_mode(self):
        plan = SamplePlan(seed=22, n_samples=20, n_range=(1, 4), entry_range=(0.6, 3.9))
        preset = minkowski_preset(power_generator(2))
        report = verify_homi(
            preset["kernel_result"], preset["kernel_first"], preset["kernel_second"],
            preset["operation"], plan, grid=5, monotone_mode=False,
        )
        assert report.overall == "pass"
        pair_conditions = [c for c in report.conditions if c.name.startswith("pair_")]
        assert len(pair_conditions) == 16

    @pytest.mark.parametrize("monotone_mode", [True, False])
    def test_lattice_evaluates_each_pair_quantity_once(self, monotone_mode, monkeypatch):
        # Partials and K_J*, K_K* have grid^2 distinct arguments; the diagonal
        # slope of each normalized kernel is taken once per distinct y (probe
        # points and lattice arguments together).
        grid = 6
        if monotone_mode:
            preset = minkowski_preset(power_generator(2))
            kernels = [preset["kernel_result"], preset["kernel_first"], preset["kernel_second"]]
            operation = preset["operation"]
        else:
            kernels = [difference_kernel(power_generator(p)) for p in (2, 2, 3)]
            operation = kernel_from_expression("x+y", POS, name="operation")
        calls = Counter()

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)

            return wrapper

        first, second = (
            dataclasses.replace(k, fn=counted(name, k.fn))
            for k, name in zip(kernels[1:], ("first", "second"))
        )
        # Only the operation's partials are taken during the suite.
        for method in ("partial1", "partial2"):
            monkeypatch.setattr(Kernel2, method, counted(method, getattr(Kernel2, method)))
        slopes = Counter()
        diagonal_slope = semideviation._diagonal_slope

        def slope(kernel, y):
            slopes[(id(kernel), y)] += 1
            return diagonal_slope(kernel, y)

        monkeypatch.setattr(semideviation, "_diagonal_slope", slope)
        plan = SamplePlan(seed=24, n_samples=5, n_range=(1, 4), entry_range=(0.6, 3.9))
        report = verify_homi(kernels[0], first, second, operation, plan, grid=grid, monotone_mode=monotone_mode)

        assert report.condition("pointwise").checked == grid**4
        for name in ("partial1", "partial2", "first", "second"):
            assert 0 < calls[name] <= grid**2, name
        assert slopes and max(slopes.values()) == 1

    @pytest.mark.parametrize("suite", ["minkowski", "hoelder"])
    @pytest.mark.parametrize(
        "generator",
        [power_generator(2), power_generator(0.5), power_generator(3), log_generator(), cosh_generator(),
         scalar_from_expression("x^3+x", POS)],
        ids=["power:2", "power:0.5", "power:3", "log", "cosh", "expr:x^3+x"],
    )
    def test_tabulated_lattice_matches_per_point(self, suite, generator):
        # Without its structure the result kernel is evaluated at every
        # lattice point; with it, from per-pair tables.  The plan draws no
        # samples, so the reports hold only lattice conditions; 9 of the 12
        # cases fail the pointwise one, so their witnesses are compared too.
        preset = (minkowski_preset if suite == "minkowski" else hoelder_preset)(generator)
        result = preset["kernel_result"]
        args = (preset["kernel_first"], preset["kernel_second"], preset["operation"],
                SamplePlan(seed=25, n_samples=0, entry_range=(0.6, 3.9)))
        tabulated = verify_homi(result, *args, grid=7, suite_label=suite)
        per_point = verify_homi(dataclasses.replace(result, structure=None), *args, grid=7, suite_label=suite)
        assert tabulated.to_json() == per_point.to_json()
        assert tabulated.condition("pointwise").checked == 7**4

    def test_nan_combined_entry_raises_entry_out_of_domain(self):
        # The operation returns NaN from x = 2 on.  min and max skip a NaN
        # that is not the first entry, yet the combined sample must refuse it
        # as make_weighted_sample does (the lattice skips such values).
        preset = minkowski_preset(power_generator(2))
        operation = dataclasses.replace(preset["operation"], fn=lambda x, y: x + y if x < 2.0 else math.nan)
        plan = SamplePlan(seed=5, n_samples=20, n_range=(3, 5), entry_range=(0.6, 3.9))
        first = plan.sample_pairs(preset["kernel_first"].domain_x)[0][0]
        assert first.entries[0] < 2.0 <= max(first.entries)
        with pytest.raises(EntryOutOfDomain, match=r"^entry nan outside \(1.0, 8.0\)$"):
            verify_homi(preset["kernel_result"], preset["kernel_first"], preset["kernel_second"], operation, plan)

    def test_difference_result_kernel_calls_its_generator_per_grid_pair(self):
        grid = 6
        calls = Counter()
        base = power_generator(2)
        preset = minkowski_preset(base)
        generator = dataclasses.replace(base, fn=counted(calls, "result", base.fn))
        result = difference_kernel(generator, preset["kernel_result"].domain_x)
        plan = SamplePlan(seed=24, n_samples=0, entry_range=(0.6, 3.9))
        report = verify_homi(
            result, preset["kernel_first"], preset["kernel_second"], preset["operation"], plan, grid=grid
        )
        assert report.condition("pointwise").checked == grid**4
        assert 0 < calls["result"] <= 2 * grid**2

    def test_lattice_of_a_result_kernel_without_generator(self, monkeypatch):
        # x^2 - y^2 written as a product declares no structure, so the lattice
        # evaluates it at every point; the per-pair quantities and the slope
        # memo are shared as for a difference kernel.
        grid = 6
        preset = minkowski_preset(power_generator(2))
        result = kernel_from_expression("(x-y)*(x+y)", POS)
        assert result.structure is None
        calls = Counter()
        result = dataclasses.replace(result, fn=counted(calls, "result", result.fn))
        first, second = (
            dataclasses.replace(preset[key], fn=counted(calls, name, preset[key].fn))
            for key, name in (("kernel_first", "first"), ("kernel_second", "second"))
        )
        for method in ("partial1", "partial2"):
            monkeypatch.setattr(Kernel2, method, counted(calls, method, getattr(Kernel2, method)))
        slopes = Counter()
        diagonal_slope = semideviation._diagonal_slope

        def slope(kernel, y):
            slopes[(id(kernel), y)] += 1
            return diagonal_slope(kernel, y)

        monkeypatch.setattr(semideviation, "_diagonal_slope", slope)
        plan = SamplePlan(seed=24, n_samples=0, entry_range=(0.6, 3.9))
        report = verify_homi(result, first, second, preset["operation"], plan, grid=grid)

        assert report.overall == "pass"
        assert report.condition("pointwise").checked == grid**4
        assert calls["result"] >= grid**4
        for name in ("partial1", "partial2", "first", "second"):
            assert 0 < calls[name] <= grid**2, name
        assert slopes and max(slopes.values()) == 1

    # pts[2] + pts[3] = 4.5 is one of normalize_kernel's probe points, so a
    # derivative refusing it would make the kernel inadmissible instead.
    @pytest.mark.parametrize("refusing, index", [("fn", 2), ("deriv1", 1)])
    def test_raising_generator_fails_alike_on_both_lattices(self, refusing, index):
        # The result generator (or its derivative, so the diagonal slope)
        # refuses one value of f(a, b) = a + b on the lattice.  Both paths
        # must raise the same error; the per-pair tables of K_J* and K_K* are
        # built in full before the lattice on both.
        grid, lo, hi = 6, 0.6, 3.9
        pts = [lo + j * (hi - lo) / (grid - 1) for j in range(grid)]
        refused = pts[index] + pts[3]
        base = power_generator(2)
        original = getattr(base, refusing)

        def refuse(x):
            if x == refused:
                raise NonFinite(f"refusing {x}")
            return original(x)

        preset = minkowski_preset(base)
        result = difference_kernel(
            dataclasses.replace(base, **{refusing: refuse}), preset["kernel_result"].domain_x
        )
        plan = SamplePlan(seed=24, n_samples=3, entry_range=(lo, hi))
        outcomes = []
        for kernel in (result, dataclasses.replace(result, structure=None)):
            calls = Counter()
            first, second = (
                dataclasses.replace(preset[key], fn=counted(calls, key, preset[key].fn))
                for key in ("kernel_first", "kernel_second")
            )
            with pytest.raises(NonFinite) as excinfo:
                verify_homi(kernel, first, second, preset["operation"], plan, grid=grid)
            outcomes.append((str(excinfo.value), dict(calls)))
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][0] == f"refusing {refused}"

    def test_lattice_skips_pairs_whose_operation_leaves_the_result_domain(self):
        # x * y leaves (0.5, 16) at some grid pairs.  Both lattices skip every
        # point where f(p, q) or f(u, v) is outside, so they check the square
        # of the number of inside pairs.
        grid = 6
        dom = open_interval(0.5, 16.0)
        kernel = difference_kernel(power_generator(2), dom)
        operation = kernel_from_expression("x*y", dom, name="operation")
        plan = SamplePlan(seed=3, n_samples=0)
        tabulated = verify_homi(kernel, kernel, kernel, operation, plan, grid=grid)
        per_point = verify_homi(
            dataclasses.replace(kernel, structure=None), kernel, kernel, operation, plan, grid=grid
        )
        assert tabulated.to_json() == per_point.to_json()
        lo, hi = plan.resolved_entry_range(dom)
        pts = [lo + j * (hi - lo) / (grid - 1) for j in range(grid)]
        inside = sum(dom.contains(a * b) for a in pts for b in pts)
        assert 0 < inside < grid**2
        assert tabulated.condition("pointwise").checked == inside**2

    def test_operation_raising_at_two_pairs_names_the_first_in_table_order(self):
        # f is refused at grid pairs (1, 0) and (0, 5).  Its table is built
        # before the lattice, row by row (a over the first grid, b over the
        # second), so both lattices in both modes name (0, 5).
        grid, lo, hi = 6, 0.6, 3.9
        pts = [lo + j * (hi - lo) / (grid - 1) for j in range(grid)]
        refused = {(pts[1], pts[0]), (pts[0], pts[5])}

        def fn(x, y):
            if (x, y) in refused:
                raise NonFinite(f"refusing f({x}, {y})")
            return x + y

        preset = minkowski_preset(power_generator(2))
        operation = dataclasses.replace(preset["operation"], fn=fn)
        result = preset["kernel_result"]
        plan = SamplePlan(seed=24, n_samples=3, entry_range=(lo, hi))
        for kernel in (result, dataclasses.replace(result, structure=None)):
            for monotone_mode in (True, False):
                with pytest.raises(NonFinite) as excinfo:
                    verify_homi(
                        kernel, preset["kernel_first"], preset["kernel_second"], operation, plan,
                        grid=grid, monotone_mode=monotone_mode,
                    )
                assert str(excinfo.value) == f"refusing f({pts[0]}, {pts[5]})"


class TestReports:
    def test_same_seed_gives_identical_json(self):
        plan = SamplePlan(seed=23, n_samples=40, entry_range=(-4.0, 4.0))
        a = verify_sandwich(sign_kernel(), plan).to_json()
        b = verify_sandwich(sign_kernel(), plan).to_json()
        assert a == b

    def test_json_numbers_round_trip(self):
        plan = SamplePlan(seed=9, n_samples=30, entry_range=(0.5, 8.0))
        report = verify_comparison(
            difference_kernel(power_generator(2)),
            difference_kernel(power_generator(1)),
            plan,
        )
        doc = json.loads(report.to_json())
        witness = None
        for cond in doc["conditions"]:
            if cond.get("witness") and "entries" in cond["witness"]:
                witness = cond["witness"]
                break
        assert witness is not None
        replay = plan.samples(POS)[witness["sample_index"]]
        assert list(replay.entries) == witness["entries"]
        assert list(replay.weights) == witness["weights"]

    def test_overall_reflects_conditions(self):
        plan = SamplePlan(seed=24, n_samples=20, entry_range=(0.5, 8.0))
        good = verify_comparison(
            difference_kernel(power_generator(1)), difference_kernel(power_generator(2)), plan
        )
        assert good.overall == "pass"
        assert all(c.holds for c in good.conditions)
