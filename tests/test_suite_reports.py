"""Structured suite reports, required byte for byte.

``data/suite_reports.json`` holds the SHA-256 of the structured stdout of
small runs of the minkowski, hoelder, tei and cei suites, on the kernels
the benchmark runs them with.  The hashes were recorded at commit f84e627
(before the regula falsi narrowing of the sign change and the profile cell
cache), by running this file as a script against a clean checkout of that
commit:

    PYTHONPATH=src python tests/test_suite_reports.py

The two hoelder runs were re-recorded when geometric means moved to the
closed form exp(sum_i w_i log x_i / W): their only change is every
``max_excess``, which measures solver error because Hoelder's inequality is
an equality for geometric means (6.3e-12 -> 2.7e-15 at seed 0, 9.5e-12 ->
3.6e-15 at seed 1).  Re-recording is only valid together with an argument that the new reports
are at least as accurate as the recorded ones.

The ``MORE_RUNS`` entries (200 samples) were appended later, recorded the
same way at commit 41a5a82, before the Minkowski/Hoelder lattice read
difference kernels from per-pair tables and plan samples skipped
re-validation: a failing minkowski run (its witness and ``max_excess``), a
failing hoelder run, an ``expr:`` generator, and a homi run whose result
kernel is not a difference kernel, so its lattice evaluates the normalized
kernel at every point.  The sandwich, comparison and jensen entries were
appended at commit bfa710f, before the lattice tables were built ahead of
the loop and the suites lost their per-call solver configs.  The failing
``--no-monotone`` homi entry, whose witnesses are kind pairs, was appended
at commit ab7993b, before homi read its mean-level checks from one list.

Six runs were re-recorded when expression kernels got symbolic partials in
place of central differences: the two ``comparison expr:x-y`` runs (the
``max_excess`` of normalized kernels, 5.8e-12 -> 2.3e-16 from the 60-digit
value), the two ``homi expr:(x-y)*(x+y)`` runs (``max_excess`` 1.7e-10 -> 0,
the exact value) and the two ``homi power:3`` runs, whose operation x + y
has partials 1 (witness ``rhs`` 9.2e-12 -> 0 and ``max_excess`` 3.7e-11 ->
9.5e-15 from the 60-digit values).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from meankit.cli import main

DATA = Path(__file__).parent / "data" / "suite_reports.json"

#: (suite, kernel, samples per run)
SUITES = [
    ("minkowski", "power:2", 150),
    ("hoelder", "power:0", 150),
    ("tei", "diff_gen:cosh", 20),
    ("cei", "power:0.5", 20),
]
SEEDS = (0, 1)

_HOMI_KERNEL = "expr:(x-y)*(x+y)"

#: (suite, kernel, flags after --seed); 200 samples per run.
MORE_RUNS = [
    ("minkowski", "power:0.5", []),
    ("hoelder", "power:3", []),
    ("minkowski", "expr:x^2", []),
    ("homi", _HOMI_KERNEL, ["--kernel2", _HOMI_KERNEL, "--kernel3", _HOMI_KERNEL, "--op", "x+y",
                            "--domain", "0,inf", "--entry-range", "0.5,4"]),
    ("sandwich", "sign_dev", ["--entry-range", "0.5,4"]),
    ("comparison", "power:1", ["--kernel2", "power:2"]),
    ("comparison", "expr:x-y", ["--kernel2", "expr:x^2-y^2"]),
    ("jensen", "diff_gen:power:0.5", []),
    ("homi", "power:3", ["--kernel2", "power:1", "--kernel3", "power:1", "--op", "x+y", "--no-monotone",
                         "--domain", "0,inf", "--entry-range", "0.5,4"]),
]


def runs() -> list[list[str]]:
    return [
        ["verify", "--suite", suite, "--kernel", kernel, "--samples", str(samples),
         "--seed", str(seed), "--format", "structured"]
        for suite, kernel, samples in SUITES
        for seed in SEEDS
    ] + [
        ["verify", "--suite", suite, "--kernel", kernel, "--samples", "200",
         "--seed", str(seed), *flags, "--format", "structured"]
        for suite, kernel, flags in MORE_RUNS
        for seed in SEEDS
    ]


def report(argv: list[str]) -> tuple[int, str]:
    """Exit code and SHA-256 of the stdout of one CLI call."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()


RECORDED = json.loads(DATA.read_text()) if DATA.exists() else {"runs": []}


@pytest.mark.parametrize("run", RECORDED["runs"], ids=lambda r: " ".join(r["argv"][2:7:2]))
def test_report_bytes_match_recorded_hash(run):
    code, digest = report(run["argv"])
    assert (code, digest) == (run["exit_code"], run["sha256"])


def test_every_run_is_recorded():
    assert [r["argv"] for r in RECORDED["runs"]] == runs()


if __name__ == "__main__":
    # Keeps the recorded rows and appends the runs not recorded yet.
    recorded = [r["argv"] for r in RECORDED["runs"]]
    rows = [json.dumps(r) for r in RECORDED["runs"]]
    for argv in runs():
        if argv in recorded:
            continue
        code, digest = report(argv)
        rows.append(json.dumps({"argv": argv, "exit_code": code, "sha256": digest}))
    DATA.write_text('{"runs": [\n' + ",\n".join(rows) + "\n]}\n")
