"""Seeded workloads: streams of ``meankit`` CLI calls, each with its output check.

A workload seed fixes the whole stream; the program only ever sees the argv
lists.  Every op carries a check that turns (exit code, structured stdout)
into ``None`` (correct) or a failure reason.  Values are checked against
closed forms computed here, independently of the library; suite ops and the
few calls without a closed form are checked against ``references.json``,
recorded from the program (see ``record.py``).

Calls that hit a known defect (ROADMAP item 4, or ``NUMERIC_ORDER`` below)
are not part of any timed workload, on which every op must pass.  They form
the fixed ``KNOWN_DEFECTS`` list instead, which every run executes and checks
after its measurement and reports call by call.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable, Iterator

REFERENCES = Path(__file__).with_name("references.json")

# Tolerances as documented by meankit.verify: mean values absorb root-finding
# error with 1e-7 * (1 + |v|), scaling-limit estimates use 1e-4 * (1 + |v|).
# They are copied, not imported, so that loosening the library's tolerance
# cannot loosen the benchmark.
MEAN_TOL = 1e-7
LIMIT_TOL = 1e-4

#: Suite seeds with recorded references.  Each suite cycles through all of
#: them in a seeded order, so every run of a suite workload covers the same
#: inputs and only their order depends on the workload seed.
SUITE_SEEDS = tuple(range(4))

#: Inputs of the envelope calls that have no closed form (recorded values).
ENVELOPE_POOL_SEED = 20181123
ENVELOPE_POOL_SIZE = 12

FLAT_COSH = "ROADMAP item 4: qa(cosh) is flat in floating point at small scales, so envelope scans near 2^-28 return wrong ratios"
POWER_OVERFLOW = "ROADMAP item 4: power_mean raises NonFinite although the mean is representable"
NUMERIC_ORDER = "numeric second derivative of an expr generator singular at 0+ (log, sqrt): the order scan never settles"

Check = Callable[[int, str], "str | None"]


@dataclass(frozen=True)
class Op:
    """One CLI call: its argv, the samples it verifies, and its output check."""

    family: str
    argv: tuple[str, ...]
    samples: int
    check: Check


@dataclass(frozen=True)
class Workload:
    name: str
    stream: Callable[[int, dict], Iterator[Op]]
    #: The closed loop stops only after whole rounds of this many ops, so
    #: alternating suites stay balanced in every run.
    round_ops: int
    #: Length of the fixed op prefix that a traced run replays.
    trace_ops: int
    #: (resolver, spec) pairs resolved by the set-up measurement.
    specs: tuple[tuple[str, str], ...]


class Draws(random.Random):
    """Seeded draws.  ``cycle`` picks among categorical options round-robin in
    a seeded order, so each option comes up equally often in any run and the
    op mix, unlike the numeric inputs, barely depends on the seed."""

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self._queues: dict[str, list] = {}

    def cycle(self, label: str, options: tuple):
        queue = self._queues.get(label)
        if not queue:
            queue = self._queues[label] = self.sample(options, len(options))
        return queue.pop()


def load_references() -> dict:
    with REFERENCES.open(encoding="utf-8") as fh:
        return json.load(fh)


def key(argv: tuple[str, ...]) -> str:
    return " ".join(argv)


def mean_tol(v: float) -> float:
    return MEAN_TOL * (1.0 + abs(v))


def limit_tol(v: float) -> float:
    return LIMIT_TOL * (1.0 + abs(v))


# --- closed forms ----------------------------------------------------------------


def power_mean(xs: list[float], ws: list[float], p: float) -> float:
    """Weighted power mean, scaled by the largest entry so it cannot overflow."""
    total = math.fsum(ws)
    if p == 0.0:
        return math.exp(math.fsum(w * math.log(x) for x, w in zip(xs, ws)) / total)
    top = max(xs)
    avg = math.fsum(w * (x / top) ** p for x, w in zip(xs, ws)) / total
    return top * avg ** (1.0 / p)


def qa_mean(generator: str, xs: list[float], ws: list[float]) -> float:
    """Quasiarithmetic mean, inverted by hand."""
    total = math.fsum(ws)
    if generator == "exp":
        top = max(xs)
        return top + math.log(math.fsum(w * math.exp(x - top) for x, w in zip(xs, ws)) / total)
    if generator == "cosh":
        return math.acosh(math.fsum(w * math.cosh(x) for x, w in zip(xs, ws)) / total)
    return power_mean(xs, ws, GENERATORS[generator].exponent)


def weighted_medians(xs: list[float], ws: list[float]) -> tuple[float, float]:
    """(lower, upper) weighted medians: the lower-weak and upper-weak means of
    sign(x - y).  With D(y) = sum_i w_i sign(x_i - y), lower-weak is the
    smallest entry with D just right of it <= 0 and upper-weak the largest
    entry with D just left of it >= 0."""

    def right_of(y: float) -> float:
        return math.fsum([w for x, w in zip(xs, ws) if x > y] + [-w for x, w in zip(xs, ws) if x <= y])

    def left_of(y: float) -> float:
        return math.fsum([w for x, w in zip(xs, ws) if x >= y] + [-w for x, w in zip(xs, ws) if x < y])

    ordered = sorted(set(xs))
    lower = next(y for y in ordered if right_of(y) <= 0.0)
    upper = next(y for y in reversed(ordered) if left_of(y) >= 0.0)
    return lower, upper


def profile_value(order: float, r: float) -> float:
    """Kernel scale profile of diff_gen(GEN) with local power order p at 0+."""
    return math.log(r) if order == 0.0 else (r**order - 1.0) / order


@dataclass(frozen=True)
class Generator:
    """A catalog generator, its expr: spelling, and its closed forms."""

    spec: str
    text: str
    kernel_text: str
    #: Exponent for power-type generators (log is exponent 0), else None.
    exponent: float | None
    #: Local power order at 0+ (x f''/f' + 1 as x -> 0+).
    order: float


GENERATORS = {
    g.spec: g
    for g in (
        Generator("power:2", "x^2", "x^2-y^2", 2.0, 2.0),
        Generator("power:0.5", "sqrt(x)", "sqrt(x)-sqrt(y)", 0.5, 0.5),
        Generator("power:3", "x^3", "x^3-y^3", 3.0, 3.0),
        Generator("log", "log(x)", "log(x)-log(y)", 0.0, 0.0),
        Generator("exp", "exp(x)", "exp(x)-exp(y)", None, 1.0),
        Generator("cosh", "cosh(x)", "cosh(x)-cosh(y)", None, 2.0),
    )
}
HOMOGENEOUS = ("power:2", "power:0.5", "power:3", "log")


# --- output checks ----------------------------------------------------------------


def _doc(code: int, out: str) -> tuple[dict | None, str | None]:
    if code != 0:
        return None, f"exit code {code}, expected 0"
    try:
        return json.loads(out), None
    except json.JSONDecodeError:
        return None, "output is not one JSON document"


def _near(label: str, got, want: float, tol: float) -> str | None:
    if not isinstance(got, (int, float)) or not abs(got - want) <= tol:
        return f"{label} {got!r}, expected {want!r} within {tol:.3g}"
    return None


def check_value(field: str, want: float, tol: float, code: int, out: str) -> str | None:
    doc, err = _doc(code, out)
    return err or _near(field, doc.get(field), want, tol)


def check_homogeneous_envelope(want: float, code: int, out: str) -> str | None:
    doc, err = _doc(code, out)
    return err or _near("lower", doc.get("lower"), want, mean_tol(want)) or _near(
        "upper", doc.get("upper"), want, mean_tol(want)
    )


def check_envelope_bounds(
    floor: float, value: float, top: float, recorded: dict | None, code: int, out: str
) -> str | None:
    """floor <= lower <= M(x) <= upper <= max(x), where floor is the t -> 0
    limit; against recorded values too when there is no closed form."""
    doc, err = _doc(code, out)
    if err:
        return err
    lower, upper = doc.get("lower"), doc.get("upper")
    if not isinstance(lower, float) or not isinstance(upper, float):
        return f"envelopes {lower!r}, {upper!r} are not numbers"
    tol = mean_tol(top)
    if lower < floor - tol:
        return f"lower {lower!r} below the t -> 0 limit {floor!r}"
    if lower > value + tol or upper < value - tol:
        return f"envelopes ({lower!r}, {upper!r}) do not bracket the mean {value!r}"
    if upper > top + tol:
        return f"upper {upper!r} above max(x) {top!r}"
    if recorded is not None:
        return _near("lower", lower, recorded["lower"], mean_tol(recorded["lower"])) or _near(
            "upper", upper, recorded["upper"], mean_tol(recorded["upper"])
        )
    return None


def no_reference(code: int, out: str) -> str | None:
    return "no recorded reference for this call"


def check_suite(reference: dict | None, code: int, out: str) -> str | None:
    """Exit code, verdict and per-condition checked counts against the record."""
    if reference is None:
        return no_reference(code, out)
    if code != reference["exit"]:
        return f"exit code {code}, recorded {reference['exit']}"
    try:
        report = json.loads(out)["report"]
    except (json.JSONDecodeError, KeyError):
        return "output is not a verify report"
    if report["overall"] != "pass":
        return f"verdict {report['overall']}"
    checked = [[c["name"], c["checked"]] for c in report["conditions"]]
    if checked != reference["checked"]:
        return f"checked counts {checked} differ from the recorded {reference['checked']}"
    return None


# --- suite workloads ------------------------------------------------------------------


def suite_argv(suite: str, kernel: str, samples: int, seed: int) -> tuple[str, ...]:
    return (
        "verify", "--suite", suite, "--kernel", kernel,
        "--samples", str(samples), "--seed", str(seed), "--format", "structured",
    )


def suite_stream(
    pairs: tuple[tuple[str, str], ...], samples: int, seed: int, references: dict
) -> Iterator[Op]:
    """Alternate the two suites; each cycles through SUITE_SEEDS."""
    draw = Draws(seed)
    first = draw.randrange(len(pairs))
    index = 0
    while True:
        suite, kernel = pairs[(first + index) % len(pairs)]
        argv = suite_argv(suite, kernel, samples, draw.cycle(suite, SUITE_SEEDS))
        reference = references["suites"].get(key(argv))
        yield Op(suite, argv, samples, partial(check_suite, reference))
        index += 1


SUITE_OPS = (("minkowski", "power:2"), ("hoelder", "power:0"))
SUITE_SCALE = (("tei", "diff_gen:cosh"), ("cei", "power:0.5"))


# --- cli-calls ----------------------------------------------------------------------------


def _vector(values: list[float]) -> str:
    return ",".join(repr(v) for v in values)


def _sample(rng: random.Random, lo: float, hi: float, n: int | None = None) -> tuple[list[float], list[float]]:
    n = rng.randint(1, 6) if n is None else n
    xs = [round(rng.uniform(lo, hi), 4) for _ in range(n)]
    ws = [round(rng.uniform(0.1, 3.0), 3) for _ in range(n)]
    return xs, ws


def _entries(draw: Draws, family: str, lo: float, hi: float) -> tuple[list[float], list[float]]:
    """A sample whose length cycles through 1..6 within each op family."""
    return _sample(draw, lo, hi, draw.cycle(f"{family}-n", (1, 2, 3, 4, 5, 6)))


def _sample_args(xs: list[float], ws: list[float]) -> tuple[str, ...]:
    return (f"--x={_vector(xs)}", f"--w={_vector(ws)}")


def _with_expr(names) -> tuple[tuple[Generator, bool], ...]:
    """Every (generator, spelled as expr:) combination."""
    return tuple((GENERATORS[n], expr) for n in names for expr in (False, True))


ALL = _with_expr(GENERATORS)


def _generator_spec(g: Generator, expr: bool) -> str:
    return f"expr:{g.text}" if expr else g.spec


def _kernel_spec(g: Generator, expr: bool) -> str:
    return f"expr:{g.kernel_text}" if expr else f"diff_gen:{g.spec}"


def _structured(*argv: str) -> tuple[str, ...]:
    return (*argv, "--format", "structured")


def op_compute_power(draw: Draws, references: dict) -> Op:
    p = draw.cycle("power-p", (-1.0, 0.0, 0.5, 1.0, 2.0, 3.0))
    xs, ws = _entries(draw, "compute-power", 0.2, 6.0)
    want = power_mean(xs, ws, p)
    argv = _structured("compute", "mean", "--kind", "power", "--p", repr(p), *_sample_args(xs, ws))
    return Op("compute-power", argv, 1, partial(check_value, "value", want, mean_tol(want)))


def op_compute_qa(draw: Draws, references: dict) -> Op:
    g, expr = draw.cycle("qa", ALL)
    xs, ws = _entries(draw, "compute-qa", 0.2, 6.0)
    want = qa_mean(g.spec, xs, ws)
    argv = _structured("compute", "mean", "--kind", "qa", "--generator", _generator_spec(g, expr), *_sample_args(xs, ws))
    return Op("compute-qa", argv, 1, partial(check_value, "value", want, mean_tol(want)))


def op_compute_deviation(draw: Draws, references: dict) -> Op:
    # The deviation mean of diff_gen(GEN) is the quasiarithmetic mean of GEN.
    g, expr = draw.cycle("deviation", ALL)
    xs, ws = _entries(draw, "compute-deviation", 0.2, 6.0)
    want = qa_mean(g.spec, xs, ws)
    argv = _structured("compute", "mean", "--kind", "deviation", "--kernel", _kernel_spec(g, expr), *_sample_args(xs, ws))
    return Op("compute-deviation", argv, 1, partial(check_value, "value", want, mean_tol(want)))


def op_compute_semidev(draw: Draws, references: dict) -> Op:
    # So is every sign-change mean of diff_gen(GEN), GEN strictly increasing.
    g, expr = draw.cycle("semidev", ALL)
    kind = draw.cycle("semidev-kind", ("lower-weak", "lower-strict", "upper-strict", "upper-weak"))
    xs, ws = _entries(draw, "compute-semidev", 0.2, 6.0)
    want = qa_mean(g.spec, xs, ws)
    argv = _structured(
        "compute", "mean", "--kind", "semidev", "--kernel", _kernel_spec(g, expr),
        "--semidev-kind", kind, *_sample_args(xs, ws),
    )
    return Op("compute-semidev", argv, 1, partial(check_value, "value", want, mean_tol(want)))


def op_compute_median(draw: Draws, references: dict) -> Op:
    expr = draw.cycle("median-expr", (False, True))
    kind = draw.cycle("median-kind", ("lower-weak", "upper-weak"))
    xs, ws = _entries(draw, "compute-median", -9.5, 9.5)
    if draw.cycle("median-integer-weights", (False, True)):
        # Small integer weights make zero plateaus, where lower and upper differ.
        ws = [float(draw.randint(1, 3)) for _ in xs]
    lower, upper = weighted_medians(xs, ws)
    want = lower if kind == "lower-weak" else upper
    argv = _structured(
        "compute", "mean", "--kind", "semidev", "--kernel", "expr:sign(x-y)" if expr else "sign_dev",
        "--semidev-kind", kind, *_sample_args(xs, ws), "--domain=-10,10",
    )
    return Op("compute-median", argv, 1, partial(check_value, "value", want, mean_tol(want)))


def op_local(draw: Draws, references: dict) -> Op:
    # M(t x, w)/t -> power mean of the generator's local order at 0+.
    mean = draw.cycle("local-mean", ("qa", "deviation", "power"))
    xs, ws = _entries(draw, "local", 0.2, 6.0)
    if mean == "power":
        p = draw.cycle("local-p", (-1.0, 0.0, 1.0, 2.0))
        spec = ("--mean", "power", "--p", repr(p))
        want = power_mean(xs, ws, p)
    else:
        g, expr = draw.cycle(f"local-{mean}", ALL)
        if mean == "deviation" and g.spec == "exp" and not expr:
            # Catalog exp lives on the whole line; local homogenization needs a
            # domain starting at 0 (qa restricts the generator to (0, inf) itself).
            mean = "qa"
        if mean == "qa":
            spec = ("--mean", "qa", "--generator", _generator_spec(g, expr))
        else:
            spec = ("--mean", "deviation", "--kernel", _kernel_spec(g, expr))
        want = power_mean(xs, ws, g.order)
    argv = _structured("homogenize", "--target", "mean", *spec, *_sample_args(xs, ws))
    return Op("local", argv, 1, partial(check_value, "estimate", want, limit_tol(want)))


def _envelope_pool() -> list[tuple[list[float], list[float]]]:
    rng = random.Random(ENVELOPE_POOL_SEED)
    return [_sample(rng, 0.2, 6.0) for _ in range(ENVELOPE_POOL_SIZE)]


ENVELOPE_POOL = _envelope_pool()


def envelope_argv(spec: str, xs: list[float], ws: list[float], *domain: str) -> tuple[str, ...]:
    return _structured(
        "homogenize", "--target", "mean", "--method", "envelope", "--mean", "qa",
        "--generator", spec, *_sample_args(xs, ws), *domain,
    )


def op_envelope_homogeneous(draw: Draws, references: dict) -> Op:
    # Homogeneous means are their own envelopes.
    g, expr = draw.cycle("envelope-homogeneous", _with_expr(HOMOGENEOUS))
    xs, ws = _entries(draw, "envelope-homogeneous", 0.2, 6.0)
    argv = envelope_argv(_generator_spec(g, expr), xs, ws)
    return Op("envelope", argv, 1, partial(check_homogeneous_envelope, qa_mean(g.spec, xs, ws)))


def op_envelope_recorded(draw: Draws, references: dict) -> Op:
    # The scan runs over t >= 1 here; the upper envelope has no closed form.
    g, expr = draw.cycle("envelope-recorded", _with_expr(("cosh", "exp")))
    xs, ws = ENVELOPE_POOL[draw.cycle("envelope-input", tuple(range(ENVELOPE_POOL_SIZE)))]
    argv = envelope_argv(_generator_spec(g, expr), xs, ws)
    recorded = references["envelopes"].get(key(argv))
    check = no_reference
    if recorded is not None:
        check = partial(check_envelope_bounds, power_mean(xs, ws, g.order), qa_mean(g.spec, xs, ws), max(xs), recorded)
    return Op("envelope", argv, 1, check)


def op_kernel_profile(draw: Draws, references: dict) -> Op:
    # exp is left out: its catalog domain is the whole line, and the scale
    # profile needs a kernel domain starting at 0.
    g, expr = draw.cycle("kernel", _with_expr(("power:2", "power:0.5", "power:3", "log", "cosh")))
    r = round(draw.uniform(0.2, 5.0), 3)
    want = profile_value(g.order, r)
    argv = _structured("homogenize", "--target", "kernel", "--kernel", _kernel_spec(g, expr), "--ratio", repr(r))
    return Op("kernel-profile", argv, 1, partial(check_value, "estimate", want, limit_tol(want)))


def power_order_op(g: Generator, expr: bool) -> Op:
    argv = _structured("homogenize", "--target", "qa", "--generator", _generator_spec(g, expr))
    return Op("power-order", argv, 1, partial(check_value, "power_order", g.order, limit_tol(g.order)))


#: expr: spellings whose local power order hits NUMERIC_ORDER.
SINGULAR_ORDER = ("log", "power:0.5")


def op_power_order(draw: Draws, references: dict) -> Op:
    options = tuple((g, expr) for g, expr in ALL if not (expr and g.spec in SINGULAR_ORDER))
    return power_order_op(*draw.cycle("order", options))


#: (op maker, share) of the cli-calls mix.
CLI_MIX = (
    (op_compute_power, 2),
    (op_compute_qa, 2),
    (op_compute_deviation, 2),
    (op_compute_semidev, 2),
    (op_compute_median, 2),
    (op_local, 4),
    (op_envelope_homogeneous, 2),
    (op_envelope_recorded, 2),
    (op_kernel_profile, 2),
    (op_power_order, 2),
)


# --- known defects --------------------------------------------------------------------


def power_wide_op(xs: list[float], ws: list[float]) -> Op:
    # Entries near 1e200: x^2 overflows, the mean itself does not.
    want = power_mean(xs, ws, 2.0)
    argv = _structured("compute", "mean", "--kind", "power", "--p", "2.0", *_sample_args(xs, ws))
    return Op("power-wide", argv, 1, partial(check_value, "value", want, mean_tol(want)))


def envelope_domain_op(spec: str, xs: list[float], ws: list[float]) -> Op:
    # Acceptance-09 setting: qa(cosh) on (0, 2) scans down to t ~ 2^-28.
    argv = envelope_argv(spec, xs, ws, "--domain", "0,2")
    check = partial(check_envelope_bounds, power_mean(xs, ws, 2.0), qa_mean("cosh", xs, ws), max(xs), None)
    return Op("envelope-domain", argv, 1, check)


def _known_defects() -> tuple[tuple[str, Op], ...]:
    """Fixed inputs, the same in every run, each failing at the commit that
    defined the benchmark.  A probe that starts to pass marks a fix."""
    probes = [
        (POWER_OVERFLOW, power_wide_op([1e200, 1.0], [1.0, 1.0])),
        (POWER_OVERFLOW, power_wide_op([2.5e200, 4e200, 1e199], [0.5, 2.0, 1.0])),
    ]
    for spec in ("cosh", "expr:cosh(x)"):
        probes.append((FLAT_COSH, envelope_domain_op(spec, [0.5, 1.5], [1.0, 1.0])))
        probes.append((FLAT_COSH, envelope_domain_op(spec, [0.3, 1.1, 1.8], [2.0, 1.0, 0.5])))
    for name in SINGULAR_ORDER:
        probes.append((NUMERIC_ORDER, power_order_op(GENERATORS[name], True)))
    return tuple(probes)


KNOWN_DEFECTS = _known_defects()


def cli_stream(seed: int, references: dict) -> Iterator[Op]:
    draw = Draws(seed)
    makers = tuple(maker for maker, share in CLI_MIX for _ in range(share))
    while True:
        yield draw.cycle("family", makers)(draw, references)


_ALL_GENERATOR_SPECS = tuple(GENERATORS) + tuple(f"expr:{g.text}" for g in GENERATORS.values())
_ALL_KERNEL_SPECS = (
    ("sign_dev", "expr:sign(x-y)")
    + tuple(f"diff_gen:{g.spec}" for g in GENERATORS.values())
    + tuple(f"expr:{g.kernel_text}" for g in GENERATORS.values())
)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "suite-ops",
            partial(suite_stream, SUITE_OPS, 1000),
            round_ops=2,
            # One traced 1000-sample suite costs about 20 s, so the prefix is
            # one op; the seed decides which suite it is.
            trace_ops=1,
            specs=(("generator", "power:2"), ("generator", "power:0")),
        ),
        Workload(
            "suite-scale",
            partial(suite_stream, SUITE_SCALE, 100),
            round_ops=2,
            trace_ops=2,
            specs=(("kernel", "diff_gen:cosh"), ("kernel", "power:0.5")),
        ),
        Workload(
            "cli-calls",
            cli_stream,
            round_ops=1,
            trace_ops=300,
            specs=tuple(("generator", s) for s in _ALL_GENERATOR_SPECS)
            + tuple(("kernel", s) for s in _ALL_KERNEL_SPECS),
        ),
    )
}
