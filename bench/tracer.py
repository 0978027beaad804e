"""Per-layer tracing by wrapping meankit's public functions from outside.

Nothing in ``src/`` changes: ``Tracer.installed()`` replaces module attributes
with wrappers and restores them on exit.  Spans (name, start, end, parent)
cover ``cli.main``, each suite, each mean solve, each limit scan and each
envelope, local-homogenization and scale-profile call.  Counters at finer
boundaries (deviation sum, kernel, generator and AST evaluations, limit
steps) are attributed to the innermost open span, so per-layer ratios are
measured where the work happens.  Spans stay in memory until ``spans_doc``.
"""

from __future__ import annotations

import dataclasses
import functools
import time
from array import array
from collections import Counter
from contextlib import contextmanager

import meankit.classic_means as classic_means
import meankit.cli as cli
import meankit.expr as expr
import meankit.homogenize as homogenize
import meankit.semideviation as semideviation
import meankit.verify as verify
from meankit.errors import MeanKitError

SUITES = (
    "verify_homi", "verify_tei", "verify_cei", "verify_sandwich",
    "verify_comparison", "verify_jensen", "verify_lemma_lim",
)

#: Span name -> layer that owns its self time.
LAYERS = {
    "cli.main": "cli",
    **{f"verify.{name}": "verify" for name in SUITES},
    "semideviation.semideviation_mean": "semideviation",
    "semideviation.deviation_mean": "semideviation",
    "classic_means.quasiarithmetic_mean": "classic_means",
    "classic_means.power_mean": "classic_means",
    "limits.limit_at_zero": "limits",
    "homogenize.envelope_pair": "homogenize",
    "homogenize.local_homogenization": "homogenize",
    "homogenize.profile": "homogenize",
}
NAMES = tuple(LAYERS)
NAME_INDEX = {name: i for i, name in enumerate(NAMES)}
NO_SPAN = -1


class Tracer:
    def __init__(self) -> None:
        self.names = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("i")
        self.failed = array("b")
        self.stack: list[int] = []
        #: (innermost span name index, counter) -> count
        self.counts: Counter = Counter()
        #: conditions checked by all suites; limit scans that converged
        self.checks = 0
        self.converged = 0

    # --- recording -----------------------------------------------------------------

    def count(self, counter: str) -> None:
        owner = self.names[self.stack[-1]] if self.stack else NO_SPAN
        self.counts[(owner, counter)] += 1

    def span(self, name: str, fn, on_result=None):
        """Wrap ``fn`` so each call is a span; ``on_result`` sees its result."""
        index_of_name = NAME_INDEX[name]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.names)
            self.names.append(index_of_name)
            self.parents.append(self.stack[-1] if self.stack else NO_SPAN)
            self.failed.append(0)
            self.ends.append(0.0)
            self.stack.append(index)
            self.starts.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            except MeanKitError:
                self.failed[index] = 1
                raise
            finally:
                self.ends[index] = time.perf_counter()
                self.stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def counting(self, counter: str, fn):
        def wrapper(*args, **kwargs):
            self.count(counter)
            return fn(*args, **kwargs)

        return wrapper

    # --- wrappers for meankit ----------------------------------------------------------

    def _count_checks(self, report) -> None:
        self.checks += sum(c.checked for c in report.conditions)

    def _count_converged(self, estimate) -> None:
        self.converged += estimate.converged

    def _limit_at_zero(self, original):
        scan = self.span("limits.limit_at_zero", original, self._count_converged)

        def limit_at_zero(g, t0, **kwargs):
            return scan(self.counting("limit_steps", g), t0, **kwargs)

        return limit_at_zero

    def _deviation_sum(self, original):
        def deviation_sum(kernel, sample):
            return self.counting("dsum_evals", original(kernel, sample))

        return deviation_sum

    def _homogenization_profile(self, original):
        def homogenization_profile(*args, **kwargs):
            return self.span("homogenize.profile", original(*args, **kwargs))

        return homogenization_profile

    def _resolver(self, original, counter: str):
        def resolve(spec, domain=None):
            handle = original(spec, domain)
            return dataclasses.replace(handle, fn=self.counting(counter, handle.fn))

        return resolve

    def _patches(self):
        """(module, attribute, replacement) for every wrapped entry point."""
        suites = [
            (cli, name, self.span(f"verify.{name}", getattr(cli, name), self._count_checks))
            for name in SUITES
        ]
        mean = self.span("semideviation.semideviation_mean", semideviation.semideviation_mean)
        deviation = self.span("semideviation.deviation_mean", semideviation.deviation_mean)
        qa = self.span("classic_means.quasiarithmetic_mean", classic_means.quasiarithmetic_mean)
        power = self.span("classic_means.power_mean", classic_means.power_mean)
        limit = self._limit_at_zero(classic_means.limit_at_zero)
        envelope = self.span("homogenize.envelope_pair", homogenize.envelope_pair)
        local = self.span("homogenize.local_homogenization", homogenize.local_homogenization)
        profile = self._homogenization_profile(homogenize.homogenization_profile)
        return suites + [
            *((m, "semideviation_mean", mean) for m in (cli, homogenize, verify)),
            *((m, "deviation_mean", deviation) for m in (cli, homogenize)),
            (semideviation, "deviation_sum", self._deviation_sum(semideviation.deviation_sum)),
            *((m, "quasiarithmetic_mean", qa) for m in (cli, homogenize)),
            *((m, "power_mean", power) for m in (cli, homogenize)),
            *((m, "limit_at_zero", limit) for m in (classic_means, homogenize)),
            *((m, "envelope_pair", envelope) for m in (cli, homogenize)),
            *((m, "local_homogenization", local) for m in (cli, verify)),
            *((m, "homogenization_profile", profile) for m in (homogenize, verify)),
            # resolve_kernel looks resolve_generator up in cli, so a diff_gen
            # kernel counts its own call and its generator's two calls.
            (cli, "resolve_generator", self._resolver(cli.resolve_generator, "generator_evals")),
            (cli, "resolve_kernel", self._resolver(cli.resolve_kernel, "kernel_evals")),
            (expr, "evaluate", self.counting("ast_evals", expr.evaluate)),
        ]

    @contextmanager
    def installed(self):
        patches = self._patches()
        originals = [(m, attr, getattr(m, attr)) for m, attr, _ in patches]
        try:
            for module, attr, replacement in patches:
                setattr(module, attr, replacement)
            yield self
        finally:
            for module, attr, original in reversed(originals):
                setattr(module, attr, original)

    def main(self):
        """``meankit.cli.main`` as a ``cli.main`` span."""
        return self.span("cli.main", cli.main)

    # --- results -------------------------------------------------------------------------

    def counters(self) -> dict:
        """Every deterministic count, for comparing two traced passes."""
        calls = Counter(NAMES[n] for n in self.names)
        failed = Counter(NAMES[n] for n, f in zip(self.names, self.failed) if f)
        profile = NAME_INDEX["homogenize.profile"]
        profile_scans = sum(
            1
            for n, p in zip(self.names, self.parents)
            if NAMES[n] == "limits.limit_at_zero" and p != NO_SPAN and self.names[p] == profile
        )
        by_counter = Counter()
        by_owner = Counter()
        for (owner, counter), value in self.counts.items():
            by_counter[counter] += value
            by_owner[(NAMES[owner] if owner != NO_SPAN else "", counter)] += value
        return {
            "calls": dict(sorted(calls.items())),
            "failed": dict(sorted(failed.items())),
            "profile_scans": profile_scans,
            "checks": self.checks,
            "converged": self.converged,
            "counts": dict(sorted(by_counter.items())),
            "qa_generator_evals": by_owner[("classic_means.quasiarithmetic_mean", "generator_evals")],
        }

    def self_seconds(self) -> dict[str, float]:
        """Per layer: span time not covered by child spans."""
        child = [0.0] * len(self.names)
        for i, parent in enumerate(self.parents):
            if parent != NO_SPAN:
                child[parent] += self.ends[i] - self.starts[i]
        per_layer: Counter = Counter()
        for i, n in enumerate(self.names):
            per_layer[LAYERS[NAMES[n]]] += self.ends[i] - self.starts[i] - child[i]
        return dict(per_layer)

    def spans_doc(self) -> dict:
        origin = self.starts[0] if self.starts else 0.0
        return {
            "names": list(NAMES),
            "columns": ["name", "start_s", "end_s", "parent"],
            "spans": [
                [n, round(s - origin, 7), round(e - origin, 7), p]
                for n, s, e, p in zip(self.names, self.starts, self.ends, self.parents)
            ],
        }


def layer_metrics(counters: dict, self_s: dict[str, float], overhead_s: float) -> dict[str, tuple[float, str]]:
    """The per-layer metrics, by name, with units."""
    calls, counts = counters["calls"], counters["counts"]

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    mean_calls = calls.get("semideviation.semideviation_mean", 0)
    deviation_calls = calls.get("semideviation.deviation_mean", 0)
    scans = calls.get("limits.limit_at_zero", 0)
    queries = calls.get("homogenize.profile", 0)
    qa_calls = calls.get("classic_means.quasiarithmetic_mean", 0)
    failed = counters["failed"]
    return {
        "semideviation.mean_calls": (mean_calls, "count"),
        "semideviation.deviation_calls": (deviation_calls, "count"),
        "semideviation.dsum_evals": (counts.get("dsum_evals", 0), "count"),
        "semideviation.dsum_evals_per_mean": (ratio(counts.get("dsum_evals", 0), mean_calls + deviation_calls), "ratio"),
        "semideviation.self_s": (self_s.get("semideviation", 0.0), "s"),
        "semideviation.failed": (
            failed.get("semideviation.semideviation_mean", 0) + failed.get("semideviation.deviation_mean", 0),
            "count",
        ),
        "limits.scans": (scans, "count"),
        "limits.steps": (counts.get("limit_steps", 0), "count"),
        "limits.steps_per_scan": (ratio(counts.get("limit_steps", 0), scans), "ratio"),
        "limits.converged_ratio": (ratio(counters["converged"], scans), "ratio"),
        "limits.self_s": (self_s.get("limits", 0.0), "s"),
        "homogenize.profile_queries": (queries, "count"),
        "homogenize.profile_scans": (counters["profile_scans"], "count"),
        "homogenize.profile_hit_ratio": (ratio(queries - counters["profile_scans"], queries), "ratio"),
        "homogenize.envelope_calls": (calls.get("homogenize.envelope_pair", 0), "count"),
        "homogenize.local_calls": (calls.get("homogenize.local_homogenization", 0), "count"),
        "homogenize.self_s": (self_s.get("homogenize", 0.0), "s"),
        "classic_means.qa_calls": (qa_calls, "count"),
        "classic_means.power_calls": (calls.get("classic_means.power_mean", 0), "count"),
        "classic_means.generator_evals_per_qa": (ratio(counters["qa_generator_evals"], qa_calls), "ratio"),
        "classic_means.self_s": (self_s.get("classic_means", 0.0), "s"),
        "expr.kernel_evals": (counts.get("kernel_evals", 0), "count"),
        "expr.generator_evals": (counts.get("generator_evals", 0), "count"),
        "expr.ast_evals": (counts.get("ast_evals", 0), "count"),
        "verify.suite_calls": (sum(v for k, v in calls.items() if k.startswith("verify.")), "count"),
        "verify.checks": (counters["checks"], "count"),
        "verify.self_s": (self_s.get("verify", 0.0), "s"),
        "cli.calls": (calls.get("cli.main", 0), "count"),
        "cli.self_s": (self_s.get("cli", 0.0), "s"),
        "trace.overhead_s": (overhead_s, "s"),
    }
