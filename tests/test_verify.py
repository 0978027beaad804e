import dataclasses
import json
import math
from collections import Counter

import pytest

from meankit import (
    Kernel2,
    MeanKind,
    SamplePlan,
    SemidevMeanConfig,
    arithmetic_kernel,
    cosh_generator,
    difference_kernel,
    kernel_from_expression,
    local_homogenization,
    make_weighted_sample,
    normalize_kernel,
    power_generator,
    semideviation_handle,
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
import meankit.homogenize as homogenize
import meankit.semideviation as semideviation
import meankit.verify as verify
from meankit.domain import all_reals, positive_reals
from meankit.verify import hoelder_preset, minkowski_preset

from conftest import numeric_profile_kernel

POS = positive_reals()
REALS = all_reals()


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
        original = verify.homogenization_profile

        def distorted(*args, **kwargs):
            h = original(*args, **kwargs)
            return lambda r: h(r**1.05)

        plan = SamplePlan(seed=26, n_samples=10, n_range=(2, 4), entry_range=(0.5, 3.0))
        assert suite(kernel, plan).overall == "pass"
        monkeypatch.setattr(verify, "homogenization_profile", distorted)
        assert suite(kernel, plan).overall == "fail"

    def test_tei_shared_local_scans_match_separate_scans(self, monkeypatch):
        kernel = difference_kernel(cosh_generator())
        cfg = SemidevMeanConfig(grid_size=64)
        scans = []

        def recording(handle, sample):
            est = local_homogenization(handle, sample)
            scans.append((handle.name, sample, est))
            return est

        monkeypatch.setattr(verify, "local_homogenization", recording)
        plan = SamplePlan(seed=27, n_samples=8, n_range=(1, 4), entry_range=(0.5, 3.0))
        assert verify_tei(kernel, plan, cfg).overall == "pass"
        separate_handles = {
            handle.name: handle
            for handle in (
                semideviation_handle(kernel, MeanKind.UPPER_STRICT, cfg),
                semideviation_handle(kernel, MeanKind.LOWER_STRICT, cfg),
            )
        }
        assert [name for name, _, _ in scans] == list(separate_handles) * plan.n_samples
        for name, sample, est in scans:
            separate = local_homogenization(separate_handles[name], sample)
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
        profile = verify.homogenization_profile

        def separate(*args, _node_estimates=None, **kwargs):
            return profile(*args, **kwargs)

        monkeypatch.setattr(verify, "homogenization_profile", separate)
        ratios.clear()
        assert verify_tei(kernel, plan).to_json() == shared.to_json()
        assert len(ratios) == 2 * distinct

    def test_shared_strict_handles_keep_their_kinds_apart(self):
        # Two entries of equal weight put a zero plateau between them into the
        # sign kernel's deviation sum, so the strict lower and upper means differ.
        kernel = sign_kernel().with_domains(POS)
        cfg = SemidevMeanConfig(grid_size=64)
        upper, lower, _ = verify._strict_pair_handles(kernel, cfg)
        s = make_weighted_sample([1.0, 3.0], [1.0, 1.0], POS)
        for shared, kind, expected in (
            (upper, MeanKind.UPPER_STRICT, 1.0),
            (lower, MeanKind.LOWER_STRICT, 3.0),
        ):
            est = local_homogenization(shared, s)
            separate = local_homogenization(semideviation_handle(kernel, kind, cfg), s)
            assert est.values == separate.values
            assert est.estimate == pytest.approx(expected)


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
