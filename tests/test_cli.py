import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from meankit import homogenize
from meankit.cli import main
from meankit.expr import MAX_DEPTH


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_compute_power_mean(capsys):
    code, out, _ = run_cli(capsys, "compute", "mean", "--kind", "power", "--p", "2", "--x", "1,7", "--w", "1,1")
    assert code == 0
    assert out.strip().splitlines()[-1] == "5.0"


def test_compute_power_mean_structured_round_trips(capsys):
    code, out, _ = run_cli(
        capsys, "compute", "mean", "--kind", "power", "--p", "2",
        "--x", "1,7", "--w", "1,1", "--format", "structured",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["command"] == "compute-mean"
    assert doc["value"] == 5.0
    assert doc["entries"] == [1.0, 7.0]


def test_compute_infinite_exponent(capsys):
    code, out, _ = run_cli(capsys, "compute", "mean", "--kind", "power", "--p", "-inf", "--x", "3,5,2", "--w", "1,0,1")
    assert code == 0
    assert out.strip().splitlines()[-1] == "2.0"


@pytest.mark.parametrize(
    "args, code, last",
    [
        # x^inf - y^inf is inf - inf or inf - 0, and the sign scan ends next
        # to the larger entry, the limit of P_q as q -> inf.
        (("compute", "mean", "--kind", "deviation", "--kernel", "diff_gen:power:inf",
          "--x=4.311004478845392,3.7217246559897466", "--w=2.906550564587525,1.0557860235743344"),
         0, "4.311004478843248"),
        (("compute", "mean", "--kind", "deviation", "--kernel", "diff_gen:shifted_power:inf,1",
          "--x=6.806186401636176,4.869848494401911", "--w=1.9438166538482198,0.8621398972554903"),
         0, "6.806186401634415"),
        (("homogenize", "--target", "qa", "--generator", "shifted_power:2,inf"), 0, "power_order=1.0"),
        (("homogenize", "--target", "qa", "--generator", "power:inf"), 3,
         "error: AllEvaluationsFailed: no finite value of g on (8.673617379884035e-19, 1.0]"),
        (("compute", "mean", "--kind", "qa", "--generator", "power:inf", "--x", "0.5,2", "--w", "1,1"), 3,
         "error: NonFinite: weighted average of power(inf) values is inf"),
    ],
)
def test_infinite_catalog_parameters_keep_ieee_values(capsys, args, code, last):
    # A catalog generator with an infinite parameter returns inf or 0 where
    # expression text raises, as the catalog always has: the exit codes and
    # lines of the hand-written constructors.
    got, out, err = run_cli(capsys, *args)
    assert (got, (out or err).splitlines()[-1]) == (code, last)


def test_compute_semidev_median(capsys):
    code, out, _ = run_cli(
        capsys, "compute", "mean", "--kind", "semidev", "--kernel", "sign_dev",
        "--x", "1,3", "--w", "1,1", "--semidev-kind", "upper-weak", "--format", "structured",
    )
    assert code == 0
    assert json.loads(out)["value"] == pytest.approx(3.0, abs=1e-9)


def test_compute_deviation_mean(capsys):
    code, out, _ = run_cli(
        capsys, "compute", "mean", "--kind", "deviation", "--kernel", "diff_gen:log",
        "--x", "1,4", "--w", "1,1", "--format", "structured",
    )
    assert code == 0
    assert json.loads(out)["value"] == pytest.approx(2.0, abs=1e-9)


@pytest.mark.parametrize(
    "entries, weights, printed",
    [("1,2", "1,1", None), ("1,2", "0,1", "2.0"), ("1,2,3", "1,1,1", "2.0")],
    ids=["plateau", "root-at-hull-end", "isolated-root"],
)
def test_deviation_mean_refuses_a_zero_plateau(entries, weights, printed, capsys):
    # Every y in (1, 2) is a root of sign(1 - y) + sign(2 - y).
    code, out, err = run_cli(
        capsys, "compute", "mean", "--kind", "deviation", "--kernel", "sign_dev", "--x", entries, "--w", weights,
    )
    if printed is None:
        assert (code, out) == (3, "")
        assert err == (
            "error: AmbiguousClassification: deviation sum of sign_dev vanishes on [1.0, 2.0], "
            "so its root is not unique\n"
        )
    else:
        assert code == 0
        assert out.splitlines()[-1] == printed


#: Entries whose x^3 is finite but whose fsum overflows: calls, exit code,
#: last stdout line and stderr.  The qa calls printed a Python traceback
#: (exit 1); the chain x^3 refuses the overflowed average and is bisected.
OVERFLOWING_AVERAGES = [
    (("--kind", "qa", "--generator", "expr:x^3+x"), 3, None,
     "error: NonFinite: weighted average of x^3+x values overflowed\n"),
    (("--kind", "qa", "--generator", "expr:x^3"), 3, None,
     "error: NonFinite: weighted average of x^3 values overflowed\n"),
    # The differences stay finite, so the sign scan finds the mean.
    (("--kind", "semidev", "--kernel", "expr:x^3-y^3"), 0, "5.550450413896249e+102", ""),
]


@pytest.mark.parametrize("argv, code, printed, err", OVERFLOWING_AVERAGES, ids=["x^3+x", "x^3", "x^3-y^3"])
def test_overflowing_weighted_average_exits_3(argv, code, printed, err, capsys):
    got = run_cli(capsys, "compute", "mean", *argv, "--x", "5.5e102,5.6e102", "--w", "1,1")
    assert (got[0], got[2]) == (code, err)
    assert (got[1].splitlines()[-1] if printed else got[1]) == (printed or "")


@pytest.mark.parametrize("kind", ["semidev", "deviation"])
@pytest.mark.parametrize("kernel", ["expr:x*x-y*y", "expr:(x-y)*(x+y)"])
def test_overflowing_deviation_sum_exits_3(kind, kernel, capsys):
    # Each term is finite and their fsum overflows; the calls printed a
    # Python traceback (exit 1).
    code, out, err = run_cli(
        capsys, "compute", "mean", "--kind", kind, "--kernel", kernel,
        "--x", "1.2e154,1.3e154,1.34e154", "--w", "4,4,4", "--domain", "0,inf",
    )
    assert (code, out) == (3, "")
    assert err.startswith("error: NonFinite: ") and "Traceback" not in err


@pytest.mark.parametrize("kernel", ["sign_dev", "expr:sign(x-y)"])
def test_deviation_mean_of_a_sign_kernel_is_the_exact_median(kernel, capsys):
    # The bisection printed 4.547473508864641e+295 for sign_dev.
    code, out, err = run_cli(
        capsys, "compute", "mean", "--kind", "deviation", "--kernel", kernel,
        "--x=-1e308,1e308,5", "--w", "1,1,1", "--domain=-inf,inf",
    )
    assert (code, out.splitlines()[-1], err) == (0, "5.0", "")


@pytest.mark.parametrize("kernel", ["sign_dev", "expr:sign(x-y)"])
def test_medians_of_a_hull_wider_than_the_largest_float(kernel, capsys):
    # x - y overflows to inf, whose sign is 1, so both kernels are sign(x -
    # y) here too.  The grid's first point, lo + 0 * inf, is NaN: it printed
    # -1e+308 for sign_dev and raised NonFinite for expr:sign(x-y).
    code, out, err = run_cli(
        capsys, "compute", "mean", "--kind", "semidev", "--kernel", kernel,
        "--x=-1e308,1e308,5", "--w", "1,1,1", "--domain=-inf,inf",
    )
    assert (code, out.splitlines()[-1], err) == (0, "5.0", "")


def test_homi_lattice_difference_that_overflows_raises_like_the_kernel(capsys):
    # g(0.95) - g(-0.95) overflows for g = x * 1e308: the lattice calls the
    # compiled kernel there, which raises, instead of subtracting g's table.
    code, out, err = run_cli(
        capsys, "verify", "--suite", "homi", "--kernel", "expr:x*1e308-y*1e308", "--kernel2", "expr:x-y",
        "--kernel3", "expr:x-y", "--op", "x-y", "--domain=-1,1", "--entry-range=-0.95,0.95", "--grid", "3",
        "--samples", "5",
    )
    assert (code, out, err) == (3, "", "error: NonFinite: expression evaluated to -inf\n")


def test_compute_qa_with_expression_generator(capsys):
    code, out, _ = run_cli(
        capsys, "compute", "mean", "--kind", "qa", "--generator", "expr:log(x)",
        "--x", "1,4", "--w", "1,1", "--format", "structured",
    )
    assert code == 0
    assert json.loads(out)["value"] == pytest.approx(2.0, abs=1e-9)


def test_homogenize_qa_reports_power_order(capsys):
    code, out, _ = run_cli(
        capsys, "homogenize", "--target", "qa", "--generator", "cosh", "--format", "structured"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["power_order"] == pytest.approx(2.0, abs=1e-4)


@pytest.mark.parametrize(
    "generator, order", [("expr:log(x)", 0.0), ("expr:sqrt(x)", 0.5), ("expr:1/x", -1.0), ("power:2", 2.0)]
)
def test_homogenize_qa_reads_a_constant_order(capsys, generator, order):
    # The declared order ends (q, q) give the order operator without a
    # derivative, so the scan converges on q itself; central differences
    # once left the tails of expr:log(x) and expr:sqrt(x) apart.
    code, out, _ = run_cli(
        capsys, "homogenize", "--target", "qa", "--generator", generator, "--format", "structured"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["converged"] is True
    assert doc["power_order"] == doc["estimate"] == order
    assert all(value == order for _, value in doc["table"])


def test_homogenize_qa_power_order_follows_tol(capsys):
    # A loose --tol stops the scan earlier, and the converged scan reports its
    # estimate as the order instead of "tails disagree".
    docs = {}
    for tol in ("1e-3", None):
        argv = ["homogenize", "--target", "qa", "--generator", "cosh", "--format", "structured"]
        code, out, _ = run_cli(capsys, *argv, *(["--tol", tol] if tol else []))
        assert code == 0
        docs[tol] = json.loads(out)
    loose = docs["1e-3"]
    assert loose["converged"] is True
    assert len(loose["table"]) < len(docs[None]["table"])
    assert loose["power_order"] == loose["estimate"] == pytest.approx(2.0, abs=1e-3)


def test_homogenize_scan_that_turns_nan_stops_as_runaway(capsys):
    # With x twice, cosh(x) + 0*x has no chain, so no core cosh1 keeps its
    # digits: its deviation sum fails below t ~ 4e-9 (cosh(t x) == 1.0 in
    # floats); once a window exists, each failed value counts toward the
    # runaway stop.
    code, out, _ = run_cli(
        capsys, "homogenize", "--target", "mean", "--mean", "deviation",
        "--kernel", "expr:(cosh(x)+0*x)-(cosh(y)+0*y)", "--x=1.6033,3.6177", "--w=1.659,0.483",
        "--format", "structured",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["converged"] is False
    assert len(doc["table"]) < 40
    assert doc["table"][-1][1] is None


@pytest.mark.parametrize("tol", ["inf", "nan", "-1"])
@pytest.mark.parametrize(
    "argv",
    [
        ("homogenize", "--target", "qa", "--generator", "expr:x^2+x", "--tol"),
        ("homogenize", "--target", "kernel", "--kernel", "diff_gen:cosh", "--ratio", "2", "--tol"),
        ("homogenize", "--target", "mean", "--mean", "power", "--p", "2", "--x", "1,2", "--w", "1,1", "--tol"),
        ("compute", "mean", "--kind", "deviation", "--kernel", "expr:x^3-y^3", "--x", "1,2,4", "--w", "1,1,1",
         "--refine-tol"),
        # Refused before normalization, which fails for sign_dev (exit 3).
        ("homogenize", "--target", "kernel", "--kernel", "sign_dev", "--domain", "0,inf", "--ratio", "2", "--tol"),
        # Envelopes run no limit scan, yet the flag is still checked.
        ("homogenize", "--target", "mean", "--method", "envelope", "--mean", "qa", "--generator", "log",
         "--x", "1,2", "--w", "1,1", "--tol"),
    ],
    ids=["qa", "kernel", "mean", "refine-tol", "kernel-not-normalizable", "envelope"],
)
def test_tolerance_not_finite_or_negative_exits_2(argv, tol, capsys):
    # An infinite tol once made any window "converged" (power_order 1.34 for
    # an order-1 generator), and refine_tol inf returned the hull midpoint.
    code, out, err = run_cli(capsys, *argv, tol)
    assert (code, out) == (2, "")
    assert "must be finite and nonnegative" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("--target", "mean", "--mean", "power", "--p", "2", "--x", "1,2", "--w", "1,1", "--csv", "-"),
        ("--target", "qa", "--generator", "cosh"),
        ("--target", "kernel", "--kernel", "diff_gen:cosh", "--ratio", "2"),
    ],
    ids=["csv", "qa", "kernel"],
)
def test_homogenize_envelope_refuses_flags_it_would_ignore(argv, capsys):
    # Envelopes have no t,value table, and only --target mean has envelopes;
    # these calls once wrote no table or ran the local scan instead.
    code, out, err = run_cli(capsys, "homogenize", "--method", "envelope", *argv)
    assert (code, out) == (2, "")
    assert "--method envelope" in err


@pytest.mark.parametrize(
    "argv, flag, exact, refine_tols",
    [
        (("--kind", "deviation", "--kernel", "expr:x*x*x-y*y*y"), ("--refine-tol", "0.01"), (73 / 3) ** (1 / 3),
         (1e-12, 0.01)),
        (("--kind", "semidev", "--kernel", "expr:sign(x^3-y^3)", "--semidev-kind", "upper-weak"), ("--grid", "2"),
         2.0, (1e-12, 1e-12)),
    ],
    ids=["refine-tol", "grid"],
)
def test_compute_mean_solver_flags_reach_the_solver(argv, flag, exact, refine_tols, capsys):
    # Kernels that the closed forms leave to the solver: x occurs three
    # times in x*x*x, and sign(x^3 - y^3) is not sign(x - y) in floats.  The
    # root of x^3 - y^3 on 1, 2, 4 is (73/3)^(1/3); the upper-weak median is
    # 2.  Bisection stops within refine_tol * max|hull| of it.
    values = []
    for extra in ((), flag):
        code, out, _ = run_cli(capsys, "compute", "mean", *argv, "--x", "1,2,4", "--w", "1,1,1", *extra)
        assert code == 0
        values.append(float(out.splitlines()[-1]))
    assert values[0] != values[1]
    for value, refine_tol in zip(values, refine_tols):
        assert abs(value - exact) <= refine_tol * 4.0


def test_homogenize_qa_scan_keeps_failed_scales_as_nan_rows(capsys):
    # At tol 0 the scan of x^2 + x, times a factor 1 + 0 sqrt(x - 1e-12)
    # that its derivatives keep, reaches scales below 1e-12 where the order
    # operator raises DomainError; those scales are null rows instead of
    # ending the call.
    code, out, _ = run_cli(
        capsys, "homogenize", "--target", "qa", "--generator", "expr:(x^2+x)*(1+0*sqrt(x-1e-12))", "--tol", "0",
        "--format", "structured",
    )
    assert code == 0
    doc = json.loads(out)
    assert len(doc["table"]) == 48
    assert doc["table"][-1][1] is None
    assert doc["converged"] is False and doc["power_order"] is None
    assert doc["estimate"] == pytest.approx(1.0, abs=1e-9)


def test_kernel_scan_stops_before_a_quantized_plateau(capsys):
    # cosh(x) - cosh(y) cancels at small t, where its exact dK/dy = -sinh(y)
    # divides a difference quantized to ulp(1): at r = 4.123 the values
    # settle near (r^2 - 1)/2 within 1e-5, then jump onto exactly 8.0.  The
    # scan reports the window where they settled, not that constant.
    code, out, _ = run_cli(
        capsys, "homogenize", "--target", "kernel", "--kernel", "expr:cosh(x)-cosh(y)", "--ratio", "4.123",
        "--format", "structured",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["converged"] is False
    assert doc["estimate"] == pytest.approx((4.123**2 - 1) / 2, abs=1e-5)


_NO_LIMIT = "error: AllEvaluationsFailed: no finite value of g on ("
_NO_ENVELOPE = "error: AllEvaluationsFailed: scaled mean ratio failed at every sampled scale; "


@pytest.mark.parametrize(
    "argv, prefix, first_failure",
    [
        (
            ("--target", "qa", "--generator", "expr:5+0*x"),
            _NO_LIMIT,
            "VanishingFirstDerivative: first derivative of 5+0*x vanishes at 1.0",
        ),
        (
            ("--target", "mean", "--mean", "semidev", "--kernel", "expr:y-x", "--x", "1,2", "--w", "1,1"),
            _NO_LIMIT,
            "NoSignChange: deviation sum has signs (-1, 1) at the hull ends",
        ),
        (
            ("--target", "mean", "--method", "envelope", "--mean", "qa", "--generator", "expr:5+0*x",
             "--x", "1,2", "--w", "1,1"),
            _NO_ENVELOPE,
            "GeneratorNotMonotone: 5+0*x is not strictly monotone on [1.0, 2.0]",
        ),
        (
            ("--target", "mean", "--method", "envelope", "--mean", "deviation", "--kernel", "sign_dev",
             "--x", "1,2", "--w", "1,1"),
            _NO_ENVELOPE,
            "AmbiguousClassification: deviation sum of sign_dev vanishes on [1.0, 2.0], "
            "so its root is not unique",
        ),
    ],
    ids=["qa", "semidev", "envelope-qa", "envelope-deviation"],
)
def test_scan_without_a_finite_value_names_its_first_failure(argv, prefix, first_failure, capsys):
    code, out, err = run_cli(capsys, "homogenize", *argv)
    assert (code, out) == (3, "")
    head, sep, tail = err.rstrip().partition("; first failure: ")
    assert sep and (head + sep).startswith(prefix)
    assert tail == first_failure


def test_homogenize_mean_table(capsys):
    code, out, _ = run_cli(
        capsys, "homogenize", "--target", "mean", "--mean", "qa", "--generator", "cosh",
        "--x", "1,7", "--w", "1,1", "--format", "structured",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["estimate"] == pytest.approx(5.0, abs=1e-4)
    assert len(doc["table"]) >= 10
    # Full-precision round trip of the emitted table (null marks a failed
    # evaluation).
    for t, v in doc["table"]:
        assert isinstance(t, float) and (v is None or isinstance(v, float))


def test_homogenize_kernel_with_csv(tmp_path, capsys):
    csv_path = tmp_path / "table.csv"
    code, out, _ = run_cli(
        capsys, "homogenize", "--target", "kernel", "--kernel", "diff_gen:cosh",
        "--ratio", "3", "--csv", str(csv_path), "--format", "structured",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["estimate"] == pytest.approx(4.0, abs=1e-5)
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "t,value"
    t, v = lines[1].split(",")
    first_t, first_v = doc["table"][0]
    assert float(t) == first_t and float(v) == first_v


def test_homogenize_envelope(capsys):
    code, out, _ = run_cli(
        capsys, "homogenize", "--target", "mean", "--method", "envelope", "--mean", "power",
        "--p", "2", "--x", "1,7", "--w", "1,1", "--format", "structured",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["lower"] == pytest.approx(5.0, abs=1e-8)
    assert doc["upper"] == pytest.approx(5.0, abs=1e-8)


def test_homogenize_envelope_scans_an_undeclared_homogeneous_mean(capsys):
    # x*x has no chain, so its qa handle declares nothing and is scanned;
    # power:2 is declared and is its own envelope.
    docs = []
    for generator in ("expr:x*x", "power:2"):
        code, out, _ = run_cli(
            capsys, "homogenize", "--target", "mean", "--method", "envelope", "--mean", "qa",
            "--generator", generator, "--x", "1,7", "--w", "1,1", "--format", "structured",
        )
        assert code == 0
        docs.append(json.loads(out))
    for doc in docs:
        assert doc["lower"] == pytest.approx(5.0, abs=1e-9)
        assert doc["upper"] == pytest.approx(5.0, abs=1e-9)
    assert docs[0]["lower"] != docs[0]["upper"]
    assert docs[1]["lower"] == docs[1]["upper"]


@pytest.mark.parametrize("kernel", ["sign_dev", "expr:sign(x-y)"])
@pytest.mark.parametrize(
    "mean, solver, weights", [("semidev", "semideviation_mean", "1,1,2"), ("deviation", "deviation_mean", "1,1,1")]
)
def test_sign_kernel_means_are_their_own_envelopes(kernel, mean, solver, weights, capsys, monkeypatch):
    # sign(t x - t y) = sign(x - y), so the weighted median of t x is t times
    # that of x: one evaluation answers, where the scan took over 250.
    calls = []
    original = getattr(homogenize, solver)
    monkeypatch.setattr(homogenize, solver, lambda *args: calls.append(args) or original(*args))
    code, out, err = run_cli(
        capsys, "homogenize", "--target", "mean", "--method", "envelope", "--mean", mean, "--kernel", kernel,
        "--x=1,2,4", f"--w={weights}", "--format", "structured",
    )
    doc = json.loads(out)
    assert (code, err, doc["lower"], doc["upper"], len(calls)) == (0, "", 2.0, 2.0, 1)


def test_verify_minkowski_passes(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--suite", "minkowski", "--kernel", "power:2",
        "--seed", "7", "--samples", "40", "--grid", "6", "--format", "structured",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["report"]["overall"] == "pass"


def test_verify_swapped_comparison_fails_with_witness(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--suite", "comparison", "--kernel", "power:2", "--kernel2", "power:1",
        "--seed", "7", "--samples", "30", "--entry-range", "0.5,8", "--format", "structured",
    )
    assert code == 1
    doc = json.loads(out)
    assert doc["report"]["overall"] == "fail"
    witnesses = [c.get("witness") for c in doc["report"]["conditions"] if c.get("witness")]
    assert witnesses


def test_verify_lemma_lim(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--suite", "lemma-lim", "--kernel", "diff_gen:cosh",
        "--x", "1,2", "--format", "structured",
    )
    assert code == 0


def test_verify_sandwich_sign_kernel(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--suite", "sandwich", "--kernel", "sign_dev",
        "--seed", "3", "--samples", "30", "--entry-range", "-4,4",
        "--domain", "-inf,inf", "--format", "structured",
    )
    assert code == 0


@pytest.mark.parametrize(
    "args, message",
    [
        # x + y of two entries in (0.5, 16) leaves the result domain.
        (
            ["--suite", "homi", "--kernel", "diff_gen:power:2", "--kernel2", "diff_gen:power:2",
             "--kernel3", "diff_gen:power:2", "--op", "x+y", "--domain", "0.5,16", "--samples", "50"],
            "EntryOutOfDomain: entry 18.772295138450495 outside (0.5, 16.0)",
        ),
        (
            ["--suite", "minkowski", "--kernel", "power:2", "--samples", "50", "--weight-range=-1,1"],
            "NegativeWeight: weight -0.43632431120059234 is negative or NaN",
        ),
    ],
    ids=["combined-entry-outside", "negative-weight"],
)
def test_verify_sample_errors_exit_3(args, message, capsys):
    code, out, err = run_cli(capsys, "verify", *args)
    assert code == 3
    assert out == ""
    assert err == f"error: {message}\n"


def test_usage_error_exit_code(capsys):
    code, _, err = run_cli(capsys, "compute", "mean", "--kind", "power", "--x", "1,2", "--w", "1,1")
    assert code == 2  # missing --p


def test_compute_qa_with_shifted_power_generator(capsys):
    # (x + 1)^(1/2) on (-0.5, 5): ((sqrt(2) + sqrt(3)) / 2)^2 - 1.
    code, out, _ = run_cli(
        capsys, "compute", "mean", "--kind", "qa", "--generator", "shifted_power:0.5,1",
        "--x=1,2", "--w=1,1", "--domain=-0.5,5",
    )
    assert code == 0
    assert out.strip().splitlines()[-1] == "1.4747448713915894"


@pytest.mark.parametrize(
    "spec, message",
    [
        ("shifted_power:1", "shifted_power takes two parameters: q,c"),
        ("shifted_power:a,b", "shifted_power parameters: cannot parse 'a' as a number"),
    ],
)
def test_shifted_power_parameter_errors_exit_2(spec, message, capsys):
    code, out, err = run_cli(
        capsys, "compute", "mean", "--kind", "qa", "--generator", spec,
        "--x=1,2", "--w=1,1", "--domain=-0.5,5",
    )
    assert code == 2
    assert out == ""
    assert f"Error: {message}\n" in err


def test_unknown_option_exit_code(capsys):
    code, _, _ = run_cli(capsys, "compute", "mean", "--kind", "power", "--p", "2", "--x", "1", "--w", "1", "--bogus")
    assert code == 2


def test_numerical_failure_exit_code(capsys):
    code, _, err = run_cli(
        capsys, "compute", "mean", "--kind", "power", "--p", "2", "--x", "-1,7", "--w", "1,1"
    )
    assert code == 3
    assert "EntryOutOfDomain" in err


@pytest.mark.parametrize(
    "generator, x, w, message",
    [
        ("expr:log(x-1)", "0.5,2,3", "1,1,1", "DomainError: log of nonpositive value -0.5"),
        ("expr:1/(x-2)", "2,3", "1,1", "NonFinite: division by zero: 1.0 / 0.0"),
        ("expr:x^400", "1,10", "1,1", "NonFinite: overflow in 10.0 ^ 400.0"),  # the failing entry
    ],
)
def test_expression_error_exit_message(generator, x, w, message, capsys):
    code, out, err = run_cli(
        capsys, "compute", "mean", "--kind", "qa", "--generator", generator, f"--x={x}", f"--w={w}"
    )
    assert code == 3
    assert out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize(
    "shape, offset",
    [
        (lambda n: "+".join(["x"] * n), 2 * MAX_DEPTH - 1),  # AST height n
        (lambda n: "(" * n + "x" + ")" * n, MAX_DEPTH),  # n nested parentheses
    ],
    ids=["sum", "parentheses"],
)
def test_expression_depth_limit(shape, offset, capsys):
    # One level deeper used to exhaust the recursion limit, a traceback that
    # exited 1; a spec past the limit is a syntax error at its deepest token.
    argv = ("compute", "mean", "--kind", "qa", "--x=1,4", "--w=1,1", "--format", "structured")
    code, out, err = run_cli(capsys, *argv, "--generator", f"expr:{shape(MAX_DEPTH)}")
    assert (code, err) == (0, "")
    assert json.loads(out)["value"] == pytest.approx(2.5, rel=1e-11)
    code, out, err = run_cli(capsys, *argv, "--generator", f"expr:{shape(MAX_DEPTH + 1)}")
    assert (code, out) == (3, "")
    assert err == f"error: ExprSyntaxError: expression nested deeper than {MAX_DEPTH} (offset {offset})\n"


#: x^2 underflows to 0 at both entries, so f and D are flat in floats on the
#: hull; the true mean is the power mean 1.5811388300841897e-170.
FLAT_HULL = ("--x=1e-170,2e-170", "--w=1,1")


@pytest.mark.parametrize(
    "spec, err",
    [
        (
            ("--kind", "qa", "--generator", "power:2"),
            "error: GeneratorNotMonotone: power(2) is not strictly monotone on [1e-170, 2e-170]\n",
        ),
        (
            ("--kind", "deviation", "--kernel", "diff_gen:power:2"),
            "error: NoSignChange: deviation sum has signs (0, 0) at the hull ends\n",
        ),
        (
            ("--kind", "semidev", "--kernel", "diff_gen:power:2"),
            "error: NoSignChange: deviation sum has signs (0, 0) at the hull ends\n",
        ),
    ],
    ids=["qa", "deviation", "semidev"],
)
def test_a_hull_flat_in_floats_returns_no_hull_end(spec, err, capsys):
    assert run_cli(capsys, "compute", "mean", *spec, *FLAT_HULL) == (3, "", err)
    code, out, _ = run_cli(capsys, "compute", "mean", "--kind", "power", "--p", "2", *FLAT_HULL)
    assert (code, out.splitlines()[-1]) == (0, "1.5811388300841897e-170")


def test_homi_raising_operation_fails_at_its_first_lattice_point(capsys):
    # f(p, q) fails at the lattice's first point, p = 0.6, at log(-0.4).
    # The partial 1 / (x - 1) is defined there, so the error is the one of
    # the operation's values, in both modes.
    for mode in ("--no-monotone", "--monotone"):
        code, out, err = run_cli(
            capsys, "verify", "--suite", "homi", "--kernel", "power:2", "--kernel2", "power:2",
            "--kernel3", "power:2", "--op", "log(x-1)+y", "--domain", "0.5,4", "--entry-range", "0.6,3",
            mode, "--grid", "4", "--samples", "5",
        )
        assert code == 3
        assert out == ""
        assert err == "error: DomainError: log of nonpositive value -0.4\n"


def test_structured_output_is_byte_identical_across_runs(capsys):
    args = (
        "verify", "--suite", "jensen", "--kernel", "power:0.5", "--seed", "11",
        "--samples", "25", "--entry-range", "0.5,8", "--format", "structured",
    )
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_verify_config_file_merges_defaults(tmp_path, capsys):
    config = tmp_path / "suite.json"
    config.write_text(json.dumps({"samples": 20, "entry_range": "0.5,8"}))
    code, out, _ = run_cli(
        capsys, "verify", "--suite", "comparison", "--kernel", "power:1", "--kernel2", "power:2",
        "--seed", "4", "--config", str(config), "--format", "structured",
    )
    assert code == 0
    assert json.loads(out)["samples"] == 20


def test_catalog_lists_builtins(capsys):
    code, out, _ = run_cli(capsys, "catalog")
    assert code == 0
    for token in ("power:P", "sign_dev", "diff_gen:GEN", "ratio_dev:GEN", "expr:TEXT"):
        assert token in out
    # Every derivative is symbolic: no row falls back to central differences.
    rows = out.splitlines()
    assert "numeric" not in out
    assert all(row.endswith("symbolic f', f''") for row in rows if row.startswith("generator"))
    assert rows[-1].endswith("symbolic dK/dx, dK/dy")


def test_human_output_explains_the_defining_formula(capsys):
    code, out, _ = run_cli(
        capsys, "compute", "mean", "--kind", "semidev", "--kernel", "sign_dev",
        "--x", "1,3", "--w", "1,1", "--semidev-kind", "lower-weak",
    )
    assert code == 0
    assert "inf{y : D(y) <= 0}" in out


VERIFY_MINKOWSKI = ("verify", "--suite", "minkowski", "--kernel", "power:2")
VERIFY_MINKOWSKI_3 = (*VERIFY_MINKOWSKI, "--samples", "3")
VERIFY_WITH_CONFIG = (*VERIFY_MINKOWSKI_3, "--config")


@pytest.mark.parametrize(
    "args, config",
    [
        (("compute", "mean", "--kind", "semidev", "--kernel", "diff_gen:power:2",
          "--x", "1,2,3", "--w", "1,1,1", "--grid", "1"), None),
        (("homogenize", "--target", "kernel", "--kernel", "sign_dev", "--ratio", "2"), None),
        (("verify", "--suite", "minkowski", "--kernel", "power:2", "--samples", "3", "--grid", "1"), None),
        (VERIFY_WITH_CONFIG, '{"grid": 1}'),
        (VERIFY_WITH_CONFIG, "[1, 2]"),
        (VERIFY_WITH_CONFIG, "{not json"),
        (VERIFY_WITH_CONFIG, '{"seed": null}'),
        (VERIFY_WITH_CONFIG, None),  # the config file does not exist
        (VERIFY_MINKOWSKI_3 + ("--samples", "0"), None),
        (VERIFY_MINKOWSKI_3 + ("--samples", "-4"), None),
        (VERIFY_MINKOWSKI_3 + ("--n-range", "0,2"), None),
        (VERIFY_MINKOWSKI_3 + ("--n-range", "1.7,2"), None),
        (VERIFY_MINKOWSKI_3 + ("--n-range", "3,1"), None),
        (VERIFY_WITH_CONFIG, '{"bogus": 1}'),
        (VERIFY_WITH_CONFIG, '{"config": "x.json"}'),
        (VERIFY_WITH_CONFIG, '{"n_range": "0,2"}'),
        ((*VERIFY_MINKOWSKI, "--config"), '{"samples": 0}'),
        (VERIFY_WITH_CONFIG, '{"domain": "1"}'),
        (VERIFY_WITH_CONFIG, '{"entry_range": [0.5, 8]}'),
        (VERIFY_WITH_CONFIG, '{"n-range": "1,2", "n_range": "2,3"}'),
        ((*VERIFY_MINKOWSKI, "--config"), '{"samples": 2.5}'),
        (("verify", "--suite", "sandwich", "--kernel", "sign_dev", "--samples", "5",
          "--entry-range=-4,4", "--domain", "0,10"), None),
    ],
    ids=[
        "compute-grid-1", "kernel-domain", "verify-grid-1",
        "config-grid-1", "config-list", "config-bad-json", "config-null", "config-missing",
        "samples-0", "samples-negative", "n-range-0", "n-range-float", "n-range-reversed",
        "config-unknown-key", "config-config-key", "config-n-range-0", "config-samples-0",
        "config-domain-one-bound", "config-entry-range-list", "config-repeated-key",
        "config-samples-float", "sign-dev-entry-range-outside-domain",
    ],
)
def test_argument_errors_exit_2_without_traceback(args, config, tmp_path):
    if args[-1] == "--config":
        path = tmp_path / "config.json"
        if config is not None:
            path.write_text(config)
        args = (*args, str(path))
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, "-m", "meankit.cli", *args], capture_output=True, text=True, env=env, timeout=60
    )
    assert done.returncode == 2
    assert "Traceback" not in done.stderr
    assert done.stderr.strip()


def test_domain_restricts_ratio_kernel(capsys):
    code, _, err = run_cli(
        capsys, "compute", "mean", "--kind", "semidev", "--kernel", "ratio_dev:log",
        "--x", "1,30", "--w", "1,1", "--domain", "0.5,20",
    )
    assert code == 3
    assert "EntryOutOfDomain" in err


MINKOWSKI = ("--suite", "minkowski", "--kernel", "power:2", "--samples", "3")
LEMMA_LIM = ("--suite", "lemma-lim", "--kernel", "diff_gen:cosh")
COMPARISON_SUITE = ("--suite", "comparison", "--format", "structured")
COMPARISON_KERNELS = ("--kernel", "power:2", "--kernel2", "power:1")
COMPARISON = (*COMPARISON_SUITE, *COMPARISON_KERNELS, "--samples", "5")
HOMI = ("--suite", "homi", "--kernel", "power:2", "--samples", "3", "--grid", "3", "--format", "structured")
HOMI_KERNELS = ("--kernel2", "power:2", "--kernel3", "power:3")


# Each base run lacks the option under test, which changes that run.
@pytest.mark.parametrize(
    "base, flags, config",
    [
        (MINKOWSKI, ("--format", "structured"), {"format": "structured"}),
        (MINKOWSKI, ("--format", "structured"), {"output_format": "structured"}),
        (LEMMA_LIM, ("--x", "1,2"), {"x": "1,2"}),
        (LEMMA_LIM, ("--x", "1,2"), {"point_text": "1,2"}),
        ((*HOMI, *HOMI_KERNELS), ("--op", "x+y"), {"op": "x+y"}),
        ((*HOMI, *HOMI_KERNELS), ("--op", "x+y"), {"operation_text": "x+y"}),
        (COMPARISON, ("--domain", "0.5,20"), {"domain": "0.5,20"}),
        (COMPARISON, ("--domain", "0.5,20"), {"domain_text": "0.5,20"}),
        (COMPARISON, ("--n-range", "2,3"), {"n-range": "2,3"}),
        (COMPARISON, ("--n-range", "2,3"), {"n_range": "2,3"}),
        (COMPARISON, ("--entry-range", "0.5,8"), {"entry_range": "0.5,8"}),
        (COMPARISON, ("--weight-range", "0.5,2"), {"weight-range": "0.5,2"}),
        (COMPARISON, ("--grid", "20"), {"grid": 20}),
        (COMPARISON, ("--seed", "1"), {"seed": 1}),
        ((*COMPARISON_SUITE, *COMPARISON_KERNELS), ("--samples", "6"), {"samples": 6}),
        ((*COMPARISON_SUITE, "--kernel2", "power:1"), ("--kernel", "power:2"), {"kernel": "power:2"}),
        ((*COMPARISON_SUITE, "--kernel", "power:2"), ("--kernel2", "power:1"), {"kernel2": "power:1"}),
        ((*HOMI, "--op", "x+y"), HOMI_KERNELS, {"kernel2": "power:2", "kernel3": "power:3"}),
        ((*HOMI, *HOMI_KERNELS, "--op", "x+y"), ("--no-monotone",), {"monotone": False}),
        (MINKOWSKI[2:], ("--suite", "minkowski"), {"suite": "minkowski"}),
    ],
    ids=[
        "format", "output_format", "x", "point_text", "op", "operation_text", "domain", "domain_text",
        "n-range", "n_range", "entry_range", "weight-range", "grid", "seed", "samples", "kernel",
        "kernel2", "kernel2-kernel3-homi", "monotone-false", "suite",
    ],
)
def test_verify_config_value_matches_its_flag(base, flags, config, tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    without = run_cli(capsys, "verify", *base)
    by_flag = run_cli(capsys, "verify", *base, *flags)
    by_config = run_cli(capsys, "verify", *base, "--config", str(path))
    assert by_flag[:2] != without[:2]  # the option changes this run
    assert by_config[:2] == by_flag[:2]


def test_verify_explicit_flag_beats_config(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"samples": 5}))
    code, out, _ = run_cli(capsys, "verify", *MINKOWSKI, "--format", "structured", "--config", str(path))
    assert code == 0
    assert json.loads(out)["samples"] == 3


@pytest.mark.parametrize("flags, code", [((), 2), (("--monotone",), 0), (("--no-monotone",), 0)])
def test_verify_config_value_a_flag_overrides_is_not_checked(flags, code, tmp_path, capsys):
    # HOMI gives --grid 3, so the config's bad grid is never read; its
    # monotone word is read unless --monotone or --no-monotone is given.
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"grid": 1, "monotone": "maybe"}))
    got = run_cli(capsys, "verify", *HOMI, *HOMI_KERNELS, "--op", "x+y", "--config", str(path), *flags)
    assert got[0] == code
    if code == 2:
        assert got[2].startswith("Error: Invalid value for '--monotone': 'maybe' is not a valid boolean.")


@pytest.mark.parametrize("kind", ["semidev", "deviation"])
def test_ratio_dev_power_is_not_a_deviation_kernel(kind, capsys):
    # sqrt(x / y) > 0 everywhere, so the deviation sum never changes sign:
    # a typed error, not the upper hull end 4.0.
    code, out, err = run_cli(
        capsys, "compute", "mean", "--kind", kind, "--kernel", "ratio_dev:power:0.5",
        "--x=1,2,4", "--w=1,1,1",
    )
    assert code == 3
    assert out == ""
    assert err == "error: NoSignChange: deviation sum has signs (1, 1) at the hull ends\n"


@pytest.mark.parametrize("kind", ["semidev", "deviation"])
def test_decreasing_difference_generator_is_not_a_deviation_kernel(kind, capsys):
    # 1/x decreases, so D(y) = sum_i w_i (1/x_i - 1/y) rises from negative at
    # the lower hull end to positive at the upper one.
    code, out, err = run_cli(
        capsys, "compute", "mean", "--kind", kind, "--kernel", "diff_gen:power:-1",
        "--x=1,2,4", "--w=1,1,1",
    )
    assert code == 3
    assert out == ""
    assert err == "error: NoSignChange: deviation sum has signs (-1, 1) at the hull ends\n"


#: 60-digit values of M(t* x) / t* at t*, the last float scale before the
#: generator overflows at t* max(x): the upper envelope of a ratio that
#: increases in t.
UPPER_NEXT_TO_OVERFLOW = {
    "cosh": 5.20014262569870343288915282042313883535183506102929636374141,  # t* = 136.37447428217934
    "exp": 5.20013836616006197213595737458830499211450723242646389209220,  # t* = 136.24129200135314
}


@pytest.mark.parametrize(
    "generator, scanned",
    # 60-digit values of M(t x) / t where a 257-point scan and golden-section
    # refinement put the upper envelope, t ~ 136.3744741 and 136.2412914.
    [("cosh", 5.2001426256926394615), ("exp", 5.2001383661410759899)],
)
def test_upper_envelope_next_to_overflow(generator, scanned, capsys):
    # A stored generator form that returned inf there instead of raising made
    # the upper envelope max(x) = 5.2045.
    code, out, _ = run_cli(
        capsys, "homogenize", "--target", "mean", "--method", "envelope", "--mean", "qa",
        "--generator", generator, "--x=5.2045,0.2298,4.9476", "--w=2.044,0.58,1.079",
        "--format", "structured",
    )
    assert code == 0
    upper = json.loads(out)["upper"]
    assert upper == pytest.approx(UPPER_NEXT_TO_OVERFLOW[generator], rel=1e-14)
    # The ratio is nondecreasing in t, and t* lies past the scan's t.
    assert upper >= scanned


def test_envelope_that_overflows_at_every_end_keeps_the_scans_error(capsys):
    # exp overflows at both ends of t in [1, 2^28]: no finite scale to
    # bisect from, so the scan runs and reports its first failure.
    code, out, err = run_cli(
        capsys, "homogenize", "--target", "mean", "--method", "envelope", "--mean", "qa",
        "--generator", "exp", "--x=800,900", "--w=1,1",
    )
    assert (code, out) == (3, "")
    assert err == (
        "error: AllEvaluationsFailed: scaled mean ratio failed at every sampled scale; "
        "first failure: NonFinite: exp(800.0) overflowed\n"
    )


@pytest.mark.parametrize(
    "x, w", [("0.5,1.5", "1.0,1.0"), ("0.3,1.1,1.8", "2.0,1.0,0.5")], ids=["two", "three"]
)
def test_cosh_lower_envelope_on_a_bounded_domain_stays_above_its_limit(x, w, capsys):
    # The scan reaches t ~ 2^-28, where the textbook cosh is 1.0 in floats;
    # the lower envelope must not fall below the t -> 0 limit, the quadratic
    # mean.
    code, out, _ = run_cli(
        capsys, "homogenize", "--target", "mean", "--method", "envelope", "--mean", "qa",
        "--generator", "cosh", f"--x={x}", f"--w={w}", "--domain", "0,2", "--format", "structured",
    )
    assert code == 0
    xs, ws = [float(v) for v in x.split(",")], [float(v) for v in w.split(",")]
    quadratic = (sum(b * a * a for a, b in zip(xs, ws)) / sum(ws)) ** 0.5
    doc = json.loads(out)
    assert doc["lower"] >= quadratic - 1e-6
    assert doc["lower"] <= doc["upper"]


def test_cli_imports_nothing_outside_the_standard_library():
    # A fresh interpreter without site-packages hooks (-S); the modules that
    # importing the CLI adds must be meankit's or the standard library's.
    src = str(Path(__file__).resolve().parents[1] / "src")
    script = (
        "import sys; sys.path.insert(0, sys.argv[1]); before = set(sys.modules); import meankit.cli; "
        "print(*sorted(set(sys.modules) - before))"
    )
    done = subprocess.run([sys.executable, "-S", "-c", script, src], capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    loaded = {name.partition(".")[0] for name in done.stdout.split()}
    assert "meankit" in loaded
    assert loaded - sys.stdlib_module_names == {"meankit"}


def test_long_options_are_not_abbreviated(capsys):
    code, out, err = run_cli(capsys, "compute", "mean", "--kin", "power", "--p", "2", "--x", "1,7", "--w", "1,1")
    assert (code, out) == (2, "")
    assert err.splitlines()[-1].startswith("Error: ")


@pytest.mark.parametrize(
    "argv, option, value, printed",
    [
        (("compute", "mean", "--kind", "power", "--x", "3,5,2", "--w", "1,0,1"), "--p", "-inf", "2.0"),
        (("compute", "mean", "--kind", "semidev", "--kernel", "sign_dev", "--w", "1,1", "--domain=-inf,inf"),
         "--x", "-1e308,1", "-1e+308"),
        (("verify", "--suite", "sandwich", "--kernel", "sign_dev", "--seed", "3", "--samples", "30",
          "--domain", "-inf,inf"), "--entry-range", "-4,4", "suite sandwich: PASS"),
    ],
    ids=["p", "x", "entry-range"],
)
def test_a_value_starting_with_a_dash_may_be_a_separate_token(argv, option, value, printed, capsys):
    # An option takes the next token as its value, whatever it starts with.
    separate = run_cli(capsys, *argv, option, value)
    assert separate == run_cli(capsys, *argv, f"{option}={value}")
    code, out, err = separate
    assert (code, err) == (0, "") and printed in out.splitlines()


def test_csv_dash_writes_the_table_to_stdout(capsys):
    code, out, err = run_cli(capsys, "homogenize", "--target", "kernel", "--kernel", "diff_gen:cosh", "--ratio", "3",
                             "--csv", "-")
    assert (code, err) == (0, "")
    table = out[out.index("t,value\n"):].splitlines()
    assert len(table) > 10 and all(len(row.split(",")) == 2 for row in table)
