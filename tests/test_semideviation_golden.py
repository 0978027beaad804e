"""Golden values of the four sign-change means, required bit for bit.

``data/semideviation_golden.json`` holds the ``repr`` of all four kinds on
seeded samples, recorded with the per-kind grid-scan solver at commit
99aadd2 (before the shared scan and the separable deviation sums).  Running
this file as a script records the cases of ``CASES`` that the file lacks,
with the ``src`` on the path, and leaves every recorded case as it is:

    PYTHONPATH=src python tests/test_semideviation_golden.py

Record a new case with a commit before the change under test, so that the
case checks the change instead of repeating it.  The cases of difference
kernels with a catalog generator (arithmetic and diff_gen:power:2, power:0,
exp and cosh) were re-recorded when those means moved to the closed form
f^-1(sum_i w_i f(x_i) / W); CHANGES.md gives each case's error against
60-digit references before and after.
``test_recorded_means_within_oracle_budget`` holds every case to a ulp
budget against ``oracle.py``.  Re-recording is only valid together with an argument
that the new values are at least as accurate as the recorded ones.
"""

from __future__ import annotations

import dataclasses
import json
import random
from pathlib import Path

import pytest

from meankit import (
    MeanKind,
    SemidevMeanConfig,
    arithmetic_kernel,
    cosh_generator,
    difference_kernel,
    exp_generator,
    kernel_from_expression,
    log_generator,
    make_weighted_sample,
    power_generator,
    ratio_kernel,
    semideviation_mean,
    semideviation_means,
    sign_kernel,
)
from meankit.domain import all_reals, positive_reals
from meankit.errors import NoSignChange

import oracle

DATA = Path(__file__).parent / "data" / "semideviation_golden.json"
SAMPLES_PER_CASE = 40

#: The catalog cosh kernel without its generator's inverse: solved by the
#: sign scan over the separable deviation sum, not in closed form.
COSH_SCAN = "diff_gen:cosh without inverse"

#: kernel name -> (factory, entry range, integer entries and weights)
KERNELS = {
    # Small integer entries and weights give exact zero plateaus of D, where
    # the weak and strict kinds differ.
    "sign_dev": (sign_kernel, (1, 6), True),
    "arithmetic": (arithmetic_kernel, (-5.0, 5.0), False),
    "diff_gen:power:2": (lambda: difference_kernel(power_generator(2)), (0.5, 4.0), False),
    "diff_gen:power:0": (lambda: difference_kernel(power_generator(0)), (0.5, 4.0), False),
    "diff_gen:exp": (lambda: difference_kernel(exp_generator()), (-3.0, 3.0), False),
    "diff_gen:cosh": (lambda: difference_kernel(cosh_generator()), (0.1, 4.0), False),
    "expr:cosh(x) - cosh(y)": (
        lambda: kernel_from_expression("cosh(x) - cosh(y)", positive_reals()),
        (0.1, 4.0),
        False,
    ),
    "ratio_dev:power:0.5": (lambda: ratio_kernel(power_generator(0.5)), (0.5, 4.0), False),
    "ratio_dev:log": (lambda: ratio_kernel(log_generator()), (0.5, 4.0), False),
    COSH_SCAN: (
        lambda: difference_kernel(dataclasses.replace(cosh_generator(), inverse=None)),
        (0.1, 4.0),
        False,
    ),
}

#: sqrt(x / y) > 0 everywhere: not a deviation kernel, so no case is recorded
#: for it; ``test_ratio_dev_power_has_no_sign_change`` takes its samples.
NOT_A_DEVIATION_KERNEL = "ratio_dev:power:0.5"

#: (kernel name, SemidevMeanConfig keyword arguments, seed)
CASES = [
    *(
        (name, {}, seed)
        for seed, name in enumerate(KERNELS)
        if name not in (NOT_A_DEVIATION_KERNEL, COSH_SCAN)
    ),
    ("diff_gen:power:2", {"grid_size": 128}, 100),
    (COSH_SCAN, {}, 101),
]


def case_samples(name: str, seed: int) -> list[tuple[list[float], list[float]]]:
    """Seeded (entries, weights) pairs; every 10th sample is degenerate."""
    _, (lo, hi), integral = KERNELS[name]
    rng = random.Random(seed)
    out = []
    for i in range(SAMPLES_PER_CASE):
        n = rng.randint(1, 6)
        if integral:
            entries = [float(rng.randint(lo, hi)) for _ in range(n)]
            weights = [float(rng.randint(1, 3)) for _ in range(n)]
        else:
            entries = [rng.uniform(lo, hi) for _ in range(n)]
            weights = [rng.uniform(0.1, 3.0) for _ in range(n)]
        if i % 10 == 9:
            entries = [entries[0]] * n
        out.append((entries, weights))
    return out


def _domain(name: str):
    return all_reals() if name in ("sign_dev", "arithmetic", "diff_gen:exp") else positive_reals()


def record(missing: list[tuple[str, dict, int]]) -> list[dict]:
    cases = []
    for name, config, seed in missing:
        kernel = KERNELS[name][0]()
        cfg = SemidevMeanConfig(**config)
        rows = []
        for entries, weights in case_samples(name, seed):
            sample = make_weighted_sample(entries, weights, _domain(name))
            means = {k.value: repr(semideviation_mean(kernel, sample, k, cfg)) for k in MeanKind}
            rows.append({"entries": entries, "weights": weights, "means": means})
        cases.append({"kernel": name, "config": config, "seed": seed, "samples": rows})
    return cases


GOLDEN = json.loads(DATA.read_text()) if DATA.exists() else {"cases": []}


@pytest.mark.parametrize(
    "case", GOLDEN["cases"], ids=lambda c: f"{c['kernel']}-{c['seed']}"
)
def test_four_means_match_recorded_values(case):
    kernel = KERNELS[case["kernel"]][0]()
    cfg = SemidevMeanConfig(**case["config"])
    assert [(r["entries"], r["weights"]) for r in case["samples"]] == case_samples(
        case["kernel"], case["seed"]
    )
    for row in case["samples"]:
        sample = make_weighted_sample(row["entries"], row["weights"], _domain(case["kernel"]))
        means = semideviation_means(kernel, sample, MeanKind, cfg)
        assert {k.value: repr(v) for k, v in means.items()} == row["means"], row


def _qa(generator: str):
    return lambda row, kind: oracle.qa_mean(row["entries"], row["weights"], generator)


def _median(row: dict, kind: str) -> float:
    # D(y) = W(x_i > y) - W(x_i < y): lower-weak and upper-strict are the
    # lower weighted median, lower-strict and upper-weak the upper one.
    lower, upper = oracle.weighted_medians(row["entries"], row["weights"])
    return lower if kind in (MeanKind.LOWER_WEAK.value, MeanKind.UPPER_STRICT.value) else upper


#: Kernel -> (reference of a recorded mean from its row and kind, ulp
#: budget).  Each budget is the largest error of a recorded mean of any kind
#: against ``oracle.py`` when it was set; exp and arithmetic have means near
#: 0, where an ulp of the reference is small, and the kernels solved by the
#: sign scan carry its bisection tolerance, 1e-12 of the hull scale.  A
#: budget is never widened.
ORACLE_BUDGETS = {
    "sign_dev": (_median, 10_250),
    "arithmetic": (_qa("identity"), 3),
    "diff_gen:power:2": (_qa("power:2"), 1),
    "diff_gen:power:0": (_qa("log"), 1),
    "diff_gen:exp": (_qa("exp"), 44),
    "diff_gen:cosh": (_qa("cosh"), 2),
    "expr:cosh(x) - cosh(y)": (_qa("cosh"), 4_611),
    # log(x / y) = log x - log y: the geometric mean.
    "ratio_dev:log": (_qa("log"), 4_243),
    COSH_SCAN: (_qa("cosh"), 3_372),
}


@pytest.mark.parametrize("case", GOLDEN["cases"], ids=lambda c: f"{c['kernel']}-{c['seed']}")
def test_recorded_means_within_oracle_budget(case):
    reference_of, budget = ORACLE_BUDGETS[case["kernel"]]
    for row in case["samples"]:
        for kind, value in row["means"].items():
            reference = reference_of(row, kind)
            assert oracle.ulps(float(value), reference) <= budget, (kind, row, reference)


def test_ratio_dev_power_has_no_sign_change():
    # D(y) = sum_i w_i sqrt(x_i / y) > 0 on the whole hull, so every kind
    # raises instead of returning the upper hull end.
    kernel = KERNELS[NOT_A_DEVIATION_KERNEL][0]()
    seed = list(KERNELS).index(NOT_A_DEVIATION_KERNEL)
    for entries, weights in case_samples(NOT_A_DEVIATION_KERNEL, seed):
        sample = make_weighted_sample(entries, weights, positive_reals())
        if sample.is_constant():
            assert semideviation_means(kernel, sample, MeanKind) == {k: entries[0] for k in MeanKind}
            continue
        for kind in MeanKind:
            with pytest.raises(NoSignChange):
                semideviation_mean(kernel, sample, kind)


def test_every_case_is_recorded():
    assert [(c["kernel"], c["config"], c["seed"]) for c in GOLDEN["cases"]] == [
        (name, config, seed) for name, config, seed in CASES
    ]


if __name__ == "__main__":
    recorded = [(c["kernel"], c["config"], c["seed"]) for c in GOLDEN["cases"]]
    cases = GOLDEN["cases"] + record([case for case in CASES if case not in recorded])
    # One sample per line keeps the file small and its diffs readable.
    lines = ['{"cases": [']
    for i, case in enumerate(cases):
        head = json.dumps({k: v for k, v in case.items() if k != "samples"})
        lines.append(head[:-1] + ', "samples": [')
        lines.append(",\n".join(json.dumps(row) for row in case["samples"]))
        lines.append("]}" + ("," if i < len(cases) - 1 else ""))
    lines.append("]}")
    DATA.write_text("\n".join(lines) + "\n")
