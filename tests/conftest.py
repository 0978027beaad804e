import dataclasses

import pytest

from meankit import Difference


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "acceptance(label): acceptance criterion printed as a PASS/FAIL line"
    )


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    marker = item.get_closest_marker("acceptance")
    if marker is not None and report.when == "call":
        verdict = "PASS" if report.passed else "FAIL"
        report._acceptance = f"ACCEPTANCE {marker.args[0]}: {verdict}"


def pytest_runtest_logreport(report):
    # Runs outside capture, so the line reaches the real terminal (and tee).
    line = getattr(report, "_acceptance", None)
    if line is not None:
        print(f"\n{line}", flush=True)


#: cosh(x) - cosh(y) with x twice in each part: it has no chain and declares
#: nothing, so its scale profile is the node table, evaluated as written.
COSH_TABLE = "expr:(cosh(x)+0*x)-(cosh(y)+0*y)"


def numeric_profile_kernel(kernel):
    """A catalog difference kernel whose generator declares no order ends,
    so that ``homogenization_profile`` builds its node table for it instead
    of the closed form."""
    generator = dataclasses.replace(kernel.structure.f, order_ends=None)
    return dataclasses.replace(kernel, structure=Difference(generator))
