"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py``; the report hook in conftest.py
prints the ACCEPTANCE lines outside pytest's capture, so they appear on the
terminal and in piped output.
"""

import math
import random
import time

import pytest

from meankit import (
    MeanKind,
    SamplePlan,
    SemidevMeanConfig,
    arithmetic_kernel,
    cosh_generator,
    deviation_handle,
    difference_kernel,
    eliminate_zero_weights,
    envelope_pair,
    exp_generator,
    local_homogenization,
    local_power_order,
    log_generator,
    make_weighted_sample,
    normalize_kernel,
    power_generator,
    power_mean,
    quasiarithmetic_handle,
    quasiarithmetic_mean,
    semideviation_mean,
    semideviation_means,
    shuffle_merge,
    sign_kernel,
    translated_power_handle,
    verify_comparison,
    verify_homi,
    verify_jensen,
    verify_lemma_lim,
)
from meankit.domain import all_reals, open_interval, positive_reals
from meankit.verify import hoelder_preset, minkowski_preset

POS = positive_reals()
REALS = all_reals()
KINDS = list(MeanKind)


@pytest.mark.acceptance("01 cosh-mean homogenization equals quadratic mean")
def test_cosh_homogenization_matches_quadratic_mean():
    started = time.monotonic()
    kernel = difference_kernel(cosh_generator())
    handle = deviation_handle(kernel)
    rng = random.Random(101)
    for _ in range(100):
        n = rng.randint(1, 6)
        entries = [rng.uniform(0.1, 5.0) for _ in range(n)]
        weights = [rng.uniform(0.1, 3.0) for _ in range(n)]
        s = make_weighted_sample(entries, weights, POS)
        est = local_homogenization(handle, s)
        expected = power_mean(s, 2)
        assert abs(est.estimate - expected) <= 1e-4 * abs(expected), (entries, weights)
    assert time.monotonic() - started <= 60.0


@pytest.mark.acceptance("02 power-generator order identity")
def test_power_generator_order_identity():
    xs = [0.1 + (10.0 - 0.1) * k / 49 for k in range(50)]
    for p in (-2.0, -1.0, 0.5, 1.0, 2.0, 3.0):
        gen = power_generator(p)
        for x in xs:
            assert abs(local_power_order(gen, x) - p) <= 1e-6


@pytest.mark.acceptance("03 median exactness")
def test_median_exactness():
    cfg = SemidevMeanConfig()
    tol = 10 * cfg.refine_tol * 3.0
    s = make_weighted_sample([1, 3], [1, 1], REALS)
    S = sign_kernel()
    assert abs(semideviation_mean(S, s, MeanKind.LOWER_WEAK, cfg) - 1.0) <= tol
    assert abs(semideviation_mean(S, s, MeanKind.UPPER_STRICT, cfg) - 1.0) <= tol
    assert abs(semideviation_mean(S, s, MeanKind.LOWER_STRICT, cfg) - 3.0) <= tol
    assert abs(semideviation_mean(S, s, MeanKind.UPPER_WEAK, cfg) - 3.0) <= tol
    s3 = make_weighted_sample([1, 2, 3], [1, 1, 1], REALS)
    for kind in KINDS:
        assert abs(semideviation_mean(S, s3, kind, cfg) - 2.0) <= tol


@pytest.mark.acceptance("04 large-weight limit recovers the normalized kernel")
def test_large_weight_limit_converges():
    kernel = difference_kernel(cosh_generator())
    target = normalize_kernel(kernel)(1.0, 2.0)
    cfg = SemidevMeanConfig(grid_size=256, refine_tol=1e-15)
    for kind in (MeanKind.LOWER_WEAK, MeanKind.UPPER_WEAK):
        errors = []
        for n in (10, 100, 1_000, 10_000, 100_000, 1_000_000):
            s = make_weighted_sample((1.0, 2.0), (1.0, float(n)), POS)
            value = semideviation_mean(kernel, s, kind, cfg)
            errors.append(abs(n * (value - 2.0) - target))
        assert all(b <= a * (1 + 1e-9) + 1e-15 for a, b in zip(errors, errors[1:])), errors
        assert errors[-1] < 1e-3 * max(1.0, abs(target))
    report = verify_lemma_lim(kernel, 1.0, 2.0)
    assert report.overall == "pass"


@pytest.mark.acceptance("05 comparison theorem round-trip")
def test_comparison_round_trip():
    linear = difference_kernel(power_generator(1))
    square = difference_kernel(power_generator(2))
    plan = SamplePlan(seed=205, n_samples=1000, entry_range=(0.5, 8.0))
    forward = verify_comparison(linear, square, plan)
    assert forward.overall == "pass"
    assert all(c.holds for c in forward.conditions)
    # The suite's means on its own samples are the arithmetic and quadratic
    # power means.
    for s in plan.samples(linear.domain_x):
        for kernel, p in ((linear, 1.0), (square, 2.0)):
            want = power_mean(s, p)
            for value in semideviation_means(kernel, s, KINDS).values():
                assert abs(value - want) <= 1e-12 * want, (p, s)

    swapped = verify_comparison(square, linear, plan)
    assert swapped.overall == "fail"
    witness = swapped.condition("mean_inequalities").witness
    assert witness is not None
    replay = make_weighted_sample(witness["entries"], witness["weights"], POS)
    cfg = SemidevMeanConfig(grid_size=128)
    violations = [
        kind
        for kind in KINDS
        if semideviation_mean(square, replay, kind, cfg)
        > semideviation_mean(linear, replay, kind, cfg) + 1e-7
    ]
    assert violations


@pytest.mark.acceptance("06 concavity faces agree")
def test_jensen_faces():
    plan = SamplePlan(seed=206, n_samples=500, entry_range=(0.5, 8.0))
    sqrt_report = verify_jensen(difference_kernel(power_generator(0.5)), plan)
    assert sqrt_report.overall == "pass"
    assert all(c.holds for c in sqrt_report.conditions)

    square_report = verify_jensen(difference_kernel(power_generator(2)), plan)
    assert square_report.overall == "fail"
    face = square_report.condition("kernel_midpoint_concavity")
    assert not face.holds and face.witness is not None
    # The faces must stay coupled: every mean-face violation must be
    # explained by a kernel-face violation on the same hull.
    assert square_report.condition("face_coupling").holds


@pytest.mark.acceptance("07 additivity and multiplicativity presets")
def test_operation_presets():
    plan = SamplePlan(seed=207, n_samples=1000, n_range=(1, 5), entry_range=(0.6, 3.9))

    additive = minkowski_preset(power_generator(1))
    report = verify_homi(
        additive["kernel_result"], additive["kernel_first"], additive["kernel_second"],
        additive["operation"], plan, grid=10, monotone_mode=True, suite_label="minkowski",
    )
    assert report.overall == "pass"
    slack = [c.max_excess for c in report.conditions if c.max_excess is not None]
    assert slack and max(slack) <= 1e-9

    multiplicative = hoelder_preset(power_generator(0))
    report = verify_homi(
        multiplicative["kernel_result"], multiplicative["kernel_first"],
        multiplicative["kernel_second"], multiplicative["operation"], plan,
        grid=10, monotone_mode=True, suite_label="hoelder",
    )
    assert report.overall == "pass"
    slack = [c.max_excess for c in report.conditions if c.max_excess is not None]
    assert slack and max(slack) <= 1e-9

    quadratic = minkowski_preset(power_generator(2))
    report = verify_homi(
        quadratic["kernel_result"], quadratic["kernel_first"], quadratic["kernel_second"],
        quadratic["operation"], plan, grid=10, monotone_mode=True, suite_label="minkowski",
    )
    assert report.overall == "pass"
    assert report.condition("pointwise").checked == 10_000


def _axiom_mean_configs():
    qa_cfgs = [("qa:" + g.name, lambda s, g=g: quasiarithmetic_mean(s, g), 1e-9)
               for g in (log_generator(), exp_generator(), cosh_generator())]
    power_cfgs = [(f"power:{p}", lambda s, p=p: power_mean(s, p), 1e-12)
                  for p in (-math.inf, -1.0, 0.0, 2.0, math.inf)]
    cfg = SemidevMeanConfig(grid_size=128)
    semidev_cfgs = []
    for kernel in (sign_kernel(), arithmetic_kernel(), difference_kernel(cosh_generator())):
        for kind in KINDS:
            semidev_cfgs.append(
                (
                    f"semidev:{kernel.name}:{kind.value}",
                    lambda s, k=kernel, kd=kind: semideviation_mean(k, s, kd, cfg),
                    1e-7,
                )
            )
    return power_cfgs + qa_cfgs + semidev_cfgs


@pytest.mark.acceptance("08 weighted-mean axiom suite")
def test_axiom_suite():
    rng = random.Random(208)
    samples = []
    for i in range(200):
        n = rng.randint(1, 5)
        entries = [rng.uniform(0.2, 5.0) for _ in range(n)]
        weights = [rng.uniform(0.1, 3.0) for _ in range(n)]
        if i % 20 == 19:
            entries = [entries[0]] * n
        extra_weights = [rng.uniform(0.1, 3.0) for _ in range(n)]
        order = list(range(n))
        rng.shuffle(order)
        samples.append((entries, weights, extra_weights, order))

    for name, mean, rel in _axiom_mean_configs():
        for entries, weights, extra, order in samples:
            s = make_weighted_sample(entries, weights, POS)
            value = mean(s)
            tol = rel * (1.0 + abs(value))
            lo, hi = s.hull()
            # mean value property
            assert lo - tol <= value <= hi + tol, (name, entries, weights)
            # nullhomogeneity in the weights
            assert abs(mean(s.rescaled_weights(3.7)) - value) <= tol, (name, entries)
            # reduction: adding weight vectors equals interleaving the sample
            merged = shuffle_merge(s, make_weighted_sample(entries, extra, POS))
            summed = make_weighted_sample(
                entries, [a + b for a, b in zip(weights, extra)], POS
            )
            assert abs(mean(summed) - mean(merged)) <= tol, (name, entries)
            # elimination: a zero-weight entry inside the hull changes nothing
            padded = make_weighted_sample(
                list(entries) + [0.5 * (lo + hi)], list(weights) + [0.0], POS
            )
            assert abs(mean(padded) - value) <= tol, (name, entries)
            assert abs(mean(eliminate_zero_weights(padded)) - value) <= tol
            # symmetry under permutation
            assert abs(mean(s.permuted(order)) - value) <= tol, (name, entries, order)


@pytest.mark.acceptance("09 envelope and homogenization ordering chain")
def test_envelope_homogenization_ordering():
    dom = open_interval(0, 2)
    rng = random.Random(209)
    # Each generator with the power order of its t -> 0 limit: the arithmetic
    # mean for exp, the quadratic mean for cosh.
    generators = ((exp_generator().restricted(dom), 1.0), (cosh_generator().restricted(dom), 2.0))
    for gen, order in generators:
        handle = quasiarithmetic_handle(gen)
        for _ in range(200):
            n = rng.randint(1, 4)
            entries = [rng.uniform(0.1, 1.9) for _ in range(n)]
            weights = [rng.uniform(0.1, 3.0) for _ in range(n)]
            s_dom = make_weighted_sample(entries, weights, dom)
            s_pos = make_weighted_sample(entries, weights, POS)
            lower, upper = envelope_pair(handle, s_dom)
            est = local_homogenization(handle, s_pos)
            assert lower >= power_mean(s_pos, order) - 1e-6, (gen.name, entries, weights)
            assert lower <= est.tail_min + 1e-6, (gen.name, entries, weights)
            assert est.tail_min <= est.tail_max
            assert est.tail_max <= upper + 1e-6, (gen.name, entries, weights)


@pytest.mark.acceptance("10 concave means collapse onto their homogenization from below")
def test_concave_handle_behavior():
    handle = translated_power_handle(0.5, 1.0)
    rng = random.Random(210)
    for _ in range(200):
        n = rng.randint(1, 5)
        entries = [rng.uniform(0.2, 4.0) for _ in range(n)]
        weights = [rng.uniform(0.1, 3.0) for _ in range(n)]
        s = make_weighted_sample(entries, weights, POS)
        est = local_homogenization(handle, s)
        values = [v for _, v in est.values if not math.isnan(v)]
        for a, b in zip(values, values[1:]):
            assert b >= a - 1e-7 * (1.0 + abs(a)), (entries, weights)
        assert handle.fn(s) <= est.tail_min + 1e-6, (entries, weights)
