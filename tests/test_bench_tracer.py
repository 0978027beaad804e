"""The benchmark tracer's patch targets exist in meankit.

``bench/tracer.py`` wraps module attributes of meankit by name, so deleting
or renaming one of them breaks every traced benchmark run.  This test fails
first.  The tracer imports only meankit and the standard library.
"""

import importlib
from pathlib import Path

import meankit.classic_means
import meankit.cli
import meankit.expr
import meankit.homogenize
import meankit.semideviation
import meankit.verify

BENCH = Path(__file__).resolve().parents[1] / "bench"
MODULES = (
    meankit.classic_means, meankit.cli, meankit.expr,
    meankit.homogenize, meankit.semideviation, meankit.verify,
)


def test_tracer_installs_and_restores_every_patch(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    tracer = importlib.import_module("tracer")
    before = [dict(vars(module)) for module in MODULES]
    with tracer.Tracer().installed():
        assert meankit.cli.power_mean is not meankit.classic_means.power_mean
    for module, attributes in zip(MODULES, before):
        changed = [name for name, value in attributes.items() if getattr(module, name) is not value]
        assert changed == [], module.__name__


def test_cli_calls_reach_the_patched_names(monkeypatch, capsys):
    # The command bodies look the patched names up when they run, so a call
    # records the span of the suite or mean it reaches.
    monkeypatch.syspath_prepend(str(BENCH))
    tracer = importlib.import_module("tracer").Tracer()
    with tracer.installed():
        main = tracer.main()
        assert main(["verify", "--suite", "cei", "--kernel", "log", "--samples", "2"]) == 0
        after_suite = tracer.counters()["calls"]
        assert main(["compute", "mean", "--kind", "power", "--p", "2", "--x", "1,7", "--w", "1,1"]) == 0
    calls = tracer.counters()["calls"]
    assert after_suite.get("verify.verify_cei") == 1
    assert calls.get("classic_means.power_mean", 0) == after_suite.get("classic_means.power_mean", 0) + 1
    assert calls["cli.main"] == 2
