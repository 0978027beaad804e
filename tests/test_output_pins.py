"""Structured CLI outputs of means, homogenizations and small suites,
required byte for byte.

``data/output_pins.json`` holds the exit code and the SHA-256 of the
structured stdout of each call below.  The calls cover every mean kind with
catalog and ``expr:`` specs, every homogenization target (whose limit
documents carry the scan's ``window`` and ``tol``), and the suites that draw
from ``SamplePlan`` streams.  The hashes were recorded at commit 995cf20 by
running this file as a script against a clean checkout of that commit:

    PYTHONPATH=src python tests/test_output_pins.py

The nine calls whose values come from catalog qa and difference-kernel means
were re-recorded when those means moved to the closed form
f^-1(sum_i w_i f(x_i) / W) and the catalog stored cosh and exp as cosh - 1
and exp - 1; CHANGES.md gives each value's error against 60-digit references
before and after.  Re-recording is only valid together with an argument that the new outputs
are at least as accurate as the recorded ones.  The two ``verify-homi-*``
calls on a 4-point lattice were recorded at commit 6df010c, before the
lattice evaluated each per-pair quantity once, and pin that change's output.
The five ``homogenize-*`` limit calls whose scans stop early (the qa orders
of cosh and ``expr:x^2+x``, the cosh kernel profile and both homogeneous
local homogenizations) were re-recorded when limit scans began to stop on an
extrapolated or rounding-level limit: their tables got shorter and their
estimates moved to within a few ulp of the exact values.
``test_limit_pin_estimate_within_oracle_budget`` checks each limit call's
estimate against ``oracle.py`` within a ulp budget; CHANGES.md gives each
estimate's error before and after.  ``test_mean_pin_value_within_oracle_budget``
does the same for the value of each ``mean-*`` call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from fractions import Fraction
from pathlib import Path

import oracle
import pytest

from meankit.cli import main

DATA = Path(__file__).parent / "data" / "output_pins.json"

MEAN = ("compute", "mean")
HOMOGENIZE = ("homogenize",)
LOCAL = (*HOMOGENIZE, "--target", "mean")
ENVELOPE = (*LOCAL, "--method", "envelope")
VERIFY = ("verify", "--samples", "20")

#: id -> argv without ``--format structured``
CALLS = {
    "mean-power": (*MEAN, "--kind", "power", "--p", "2", "--x", "1,2,5", "--w", "1,2,0.5"),
    "mean-qa-catalog": (*MEAN, "--kind", "qa", "--generator", "cosh", "--x", "0.5,1.5,3", "--w", "1,2,1"),
    "mean-qa-expr": (*MEAN, "--kind", "qa", "--generator", "expr:x^3+x", "--x", "0.5,1.5,3", "--w", "1,2,1"),
    "mean-semidev-diff": (
        *MEAN, "--kind", "semidev", "--kernel", "diff_gen:power:2", "--x", "1,2,5", "--w", "1,2,0.5",
        "--semidev-kind", "upper-strict",
    ),
    "mean-semidev-ratio": (*MEAN, "--kind", "semidev", "--kernel", "ratio_dev:log", "--x", "1,3,7", "--w", "1,1,2"),
    "mean-semidev-sign": (
        *MEAN, "--kind", "semidev", "--kernel", "sign_dev", "--x=-3,1,4", "--w", "1,1,2", "--domain=-10,10",
    ),
    "mean-semidev-expr": (*MEAN, "--kind", "semidev", "--kernel", "expr:x^2-y^2", "--x", "1,2,5", "--w", "1,2,0.5"),
    "mean-deviation-catalog": (*MEAN, "--kind", "deviation", "--kernel", "diff_gen:log", "--x", "1,4,9", "--w", "1,1,1"),
    "mean-deviation-expr": (
        *MEAN, "--kind", "deviation", "--kernel", "expr:log(x)-log(y)", "--x", "1,4,9", "--w", "1,1,1",
    ),
    "homogenize-qa-catalog": (*HOMOGENIZE, "--target", "qa", "--generator", "cosh"),
    "homogenize-qa-expr": (*HOMOGENIZE, "--target", "qa", "--generator", "expr:x^2+x"),
    "homogenize-kernel-catalog": (*HOMOGENIZE, "--target", "kernel", "--kernel", "diff_gen:cosh", "--ratio", "2"),
    "homogenize-kernel-expr": (*HOMOGENIZE, "--target", "kernel", "--kernel", "expr:x^3-y^3", "--ratio", "0.5"),
    "homogenize-local-qa": (*LOCAL, "--mean", "qa", "--generator", "power:3", "--x", "1,2,4", "--w", "1,1,2"),
    "homogenize-local-semidev": (
        *LOCAL, "--mean", "semidev", "--kernel", "diff_gen:power:2", "--x", "1,2,4", "--w", "1,1,2",
        "--semidev-kind", "upper-weak",
    ),
    "homogenize-envelope-qa": (*ENVELOPE, "--mean", "qa", "--generator", "cosh", "--x", "0.5,1.5", "--w", "1,1"),
    "homogenize-envelope-deviation": (
        *ENVELOPE, "--mean", "deviation", "--kernel", "diff_gen:log", "--x", "1,2,4", "--w", "1,1,2",
    ),
    "verify-sandwich-sign": (*VERIFY, "--suite", "sandwich", "--kernel", "sign_dev", "--entry-range=-4,4"),
    "verify-comparison": (*VERIFY, "--suite", "comparison", "--kernel", "power:2", "--kernel2", "power:1"),
    "verify-jensen": (*VERIFY, "--suite", "jensen", "--kernel", "power:0.5"),
    "verify-homi-no-monotone": (
        *VERIFY, "--suite", "homi", "--kernel", "power:2", "--kernel2", "power:2", "--kernel3", "power:3",
        "--op", "x+y", "--no-monotone", "--grid", "3",
    ),
    "verify-lemma-lim": ("verify", "--suite", "lemma-lim", "--kernel", "diff_gen:cosh", "--x", "1,2"),
    # The pointwise condition fails, with witness p = q = u = 0.8, v = 5.8666...
    "verify-homi-pointwise-fail": (
        "verify", "--suite", "homi", "--kernel", "power:3", "--kernel2", "power:1", "--kernel3", "power:1",
        "--op", "x+y", "--grid", "4", "--samples", "10",
    ),
    # Numeric partials of max(x, y), some taken at its kink x = y.
    "verify-homi-kink-partials": (
        "verify", "--suite", "homi", "--kernel", "power:0", "--kernel2", "power:1", "--kernel3", "power:1",
        "--op", "max(x,y)", "--grid", "4", "--samples", "10",
    ),
}


#: Limit call id -> (exact limit from ``oracle``, error budget of the printed
#: estimate in ulps of that limit).  The budgets are the errors measured when
#: the pins were last recorded and are never widened.  The expr kernel is
#: normalized with numeric derivatives, which leave about 1e-7 relative.
F = Fraction
LIMIT_REFERENCES = {
    # cosh - 1 = x^2/2 + x^4/24 + ...
    "homogenize-qa-catalog": (float(oracle.local_order([(F(2), F(1, 2)), (F(4), F(1, 24))])), 1),
    "homogenize-qa-expr": (float(oracle.local_order([(F(1), F(1)), (F(2), F(1))])), 10),
    "homogenize-kernel-catalog": (float(oracle.power_profile(F(2), F(2))), 4),
    "homogenize-kernel-expr": (float(oracle.power_profile(F(1, 2), F(3))), 526_122_261),
    "homogenize-local-qa": (oracle.power_mean([1.0, 2.0, 4.0], [1.0, 1.0, 2.0], 3), 0),
    "homogenize-local-semidev": (oracle.power_mean([1.0, 2.0, 4.0], [1.0, 1.0, 2.0], 2), 0),
}


#: Mean call id -> (exact value from ``oracle``, error budget of the printed
#: value in ulps of it), measured when the budgets were set and never
#: widened.  Closed-form means are exact or within an ulp; the sign-scan
#: means (x^3 + x without an inverse, the ratio, sign and expr: kernels)
#: carry the bisection tolerance, 1e-12 of the hull scale.
MEAN_REFERENCES = {
    "mean-power": (oracle.power_mean([1.0, 2.0, 5.0], [1.0, 2.0, 0.5], 2), 0),
    "mean-qa-catalog": (oracle.qa_mean([0.5, 1.5, 3.0], [1.0, 2.0, 1.0], "cosh"), 0),
    "mean-qa-expr": (oracle.qa_mean_by_bisection([0.5, 1.5, 3.0], [1.0, 2.0, 1.0], lambda x: x**3 + x), 1_673),
    "mean-semidev-diff": (oracle.qa_mean([1.0, 2.0, 5.0], [1.0, 2.0, 0.5], "power:2"), 0),
    # log(x / y) = log x - log y: the geometric mean.
    "mean-semidev-ratio": (oracle.qa_mean([1.0, 3.0, 7.0], [1.0, 1.0, 2.0], "log"), 1_015),
    # The lower-weak mean of sign(x - y) is the lower weighted median.
    "mean-semidev-sign": (oracle.weighted_medians([-3.0, 1.0, 4.0], [1.0, 1.0, 2.0])[0], 5_125),
    "mean-semidev-expr": (oracle.qa_mean([1.0, 2.0, 5.0], [1.0, 2.0, 0.5], "power:2"), 3_956),
    "mean-deviation-catalog": (oracle.qa_mean([1.0, 4.0, 9.0], [1.0, 1.0, 1.0], "log"), 1),
    "mean-deviation-expr": (oracle.qa_mean([1.0, 4.0, 9.0], [1.0, 1.0, 1.0], "log"), 4_220),
}


def stdout_of(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def report(argv: list[str]) -> tuple[int, str]:
    """Exit code and SHA-256 of the stdout of one CLI call."""
    code, text = stdout_of(argv)
    return code, hashlib.sha256(text.encode("utf-8")).hexdigest()


def argv_of(call_id: str) -> list[str]:
    return [*CALLS[call_id], "--format", "structured"]


RECORDED = json.loads(DATA.read_text()) if DATA.exists() else {}


@pytest.mark.parametrize("call_id", sorted(RECORDED))
def test_output_bytes_match_recorded_hash(call_id):
    assert list(report(argv_of(call_id))) == RECORDED[call_id]


def test_every_call_is_recorded():
    assert sorted(RECORDED) == sorted(CALLS)


@pytest.mark.parametrize("call_id", sorted(LIMIT_REFERENCES))
def test_limit_pin_estimate_within_oracle_budget(call_id):
    reference, budget = LIMIT_REFERENCES[call_id]
    code, text = stdout_of(argv_of(call_id))
    assert code == 0
    assert oracle.ulps(json.loads(text)["estimate"], reference) <= budget


def test_every_limit_pin_has_a_reference():
    limits = [c for c in CALLS if c.startswith("homogenize-") and not c.startswith("homogenize-envelope-")]
    assert sorted(limits) == sorted(LIMIT_REFERENCES)


@pytest.mark.parametrize("call_id", sorted(MEAN_REFERENCES))
def test_mean_pin_value_within_oracle_budget(call_id):
    reference, budget = MEAN_REFERENCES[call_id]
    code, text = stdout_of(argv_of(call_id))
    assert code == 0
    assert oracle.ulps(json.loads(text)["value"], reference) <= budget


def test_every_mean_pin_has_a_reference():
    assert sorted(c for c in CALLS if c.startswith("mean-")) == sorted(MEAN_REFERENCES)


if __name__ == "__main__":
    rows = {call_id: list(report(argv_of(call_id))) for call_id in CALLS}
    DATA.write_text(json.dumps(rows, indent=1) + "\n")
