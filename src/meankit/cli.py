"""Command-line front end: compute means, run homogenizations, verify suites.

Exit codes: 0 success/pass, 1 verification fail or inconclusive (witness
printed), 2 usage or configuration error, 3 numerical failure (the error
class name is printed).

Structured output is a single JSON document per run with a fixed key order;
every number round-trips at full precision.  Limit tables can additionally be
emitted as CSV with columns ``t,value``.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import replace
from typing import Any

import click

from .classic_means import (
    common_power_order,
    power_mean,
    qa_local_homogenization,
    quasiarithmetic_mean,
)
from .domain import IntervalDomain, MeanKind, check_tolerance, make_weighted_sample, positive_reals
from .errors import MeanKitError
from .expr import (
    Kernel2,
    ScalarFunction,
    cosh_generator,
    difference_kernel,
    exp_generator,
    kernel_from_expression,
    log_generator,
    power_generator,
    ratio_kernel,
    scalar_from_expression,
    shifted_power_generator,
    sign_kernel,
)
from .homogenize import (
    deviation_handle,
    envelope_pair,
    kernel_homogenization,
    local_homogenization,
    power_handle,
    quasiarithmetic_handle,
    semideviation_handle,
)
from .limits import LIMIT_TOL
from .semideviation import DEFAULT_CONFIG, SemidevMeanConfig, deviation_mean, semideviation_mean
from .verify import (
    FACTOR_RANGE,
    Report,
    SamplePlan,
    hoelder_preset,
    minkowski_preset,
    verify_cei,
    verify_comparison,
    verify_homi,
    verify_jensen,
    verify_lemma_lim,
    verify_sandwich,
    verify_tei,
)

MEAN_FORMULAS = {
    "power": "power mean = (sum_i w_i x_i^p / sum_i w_i)^(1/p); p=0 geometric, -inf/+inf min/max over positive weights",
    "qa": "quasiarithmetic mean = f_inv(sum_i w_i f(x_i) / sum_i w_i)",
    "deviation": "deviation mean = the root of D(y) = sum_i w_i K(x_i, y)",
    MeanKind.LOWER_WEAK.value: "lower-weak mean = inf{y : D(y) <= 0},  D(y) = sum_i w_i K(x_i, y)",
    MeanKind.LOWER_STRICT.value: "lower-strict mean = inf{y : D(y) < 0},  D(y) = sum_i w_i K(x_i, y)",
    MeanKind.UPPER_STRICT.value: "upper-strict mean = sup{y : D(y) > 0},  D(y) = sum_i w_i K(x_i, y)",
    MeanKind.UPPER_WEAK.value: "upper-weak mean = sup{y : D(y) >= 0},  D(y) = sum_i w_i K(x_i, y)",
}


# --- flag parsing ----------------------------------------------------------------


def _parse_float(text: str, label: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise click.UsageError(f"{label}: cannot parse {text!r} as a number") from None
    if math.isnan(value):
        raise click.UsageError(f"{label}: NaN is not allowed")
    return value


def _parse_vector(text: str, label: str) -> list[float]:
    items = [s for s in text.split(",") if s.strip()]
    if not items:
        raise click.UsageError(f"{label}: empty vector")
    return [_parse_float(s, label) for s in items]


# Option callbacks convert a flag's text once, before the command body runs;
# a value from ``verify --config`` takes the same path.


def _parse_domain(ctx: click.Context, param: click.Parameter, text: str | None) -> IntervalDomain | None:
    if text is None:
        return None
    parts = _parse_vector(text, "--domain")
    if len(parts) != 2:
        raise click.UsageError("--domain takes exactly two comma-separated bounds")
    try:
        return IntervalDomain(parts[0], parts[1])
    except ValueError as exc:
        raise click.UsageError(str(exc)) from None


def _parse_range(ctx: click.Context, param: click.Parameter, text: str | None) -> tuple[float, float] | None:
    if text is None:
        return None
    label = param.opts[0]
    parts = _parse_vector(text, label)
    if len(parts) != 2 or not parts[0] < parts[1]:
        raise click.UsageError(f"{label} must be 'lo,hi' with lo < hi")
    return parts[0], parts[1]


def _check_tol(ctx: click.Context, param: click.Parameter, tol: float) -> float:
    # ``limit_at_zero`` makes the same check, but only once a scan starts.
    try:
        return check_tolerance("tol", tol)
    except ValueError as exc:
        raise click.BadParameter(str(exc)) from None


def _parse_count_range(ctx: click.Context, param: click.Parameter, text: str) -> tuple[int, int]:
    try:
        lo, hi = (int(s) for s in text.split(","))
        if 1 <= lo <= hi:
            return lo, hi
    except ValueError:
        pass
    raise click.BadParameter(f"{text!r} is not 'lo,hi' with integers 1 <= lo <= hi")


def _load_config(ctx: click.Context, param: click.Parameter, path: str | None) -> None:
    """Read a JSON object into ``ctx.default_map``, keyed by long option or parameter name.

    ``-`` and ``_`` are interchangeable in keys.  Values reach the options as
    flag text, so explicit flags win and each value passes its option's own
    type and callback.
    """
    if path is None:
        return
    try:
        with open(path, "r", encoding="utf-8") as fh:
            config = json.load(fh)
    except (OSError, ValueError) as exc:
        raise click.BadParameter(f"{path!r}: {exc}") from None
    if not isinstance(config, dict):
        raise click.BadParameter(f"{path!r}: expected a JSON object")
    names = {
        key.lstrip("-").replace("-", "_"): option.name
        for option in ctx.command.params if option is not param
        for key in (option.name, *option.opts)
    }
    defaults: dict[str, str] = {}
    for key, value in config.items():
        name = names.get(key.replace("-", "_"))
        if name is None or name in defaults:
            raise click.BadParameter(f"unknown or repeated key {key!r}")
        if value is None or isinstance(value, (list, dict)):
            raise click.BadParameter(f"key {key!r} must be a string, number or boolean")
        defaults[name] = value if isinstance(value, str) else json.dumps(value)
    ctx.default_map = defaults


def resolve_generator(spec: str, domain: IntervalDomain | None = None) -> ScalarFunction:
    """Generator spec: power:P | log | exp | cosh | shifted_power:Q,C | expr:TEXT.

    An explicit ``domain`` restricts the catalog default.
    """
    if spec.startswith("expr:"):
        return scalar_from_expression(spec[5:], domain or positive_reals())
    name, _, params = spec.partition(":")
    generator = None
    if name == "power":
        generator = power_generator(_parse_float(params, "power exponent"))
    elif name == "log":
        generator = log_generator()
    elif name == "exp":
        generator = exp_generator()
    elif name == "cosh":
        generator = cosh_generator()
    elif name == "shifted_power":
        values = _parse_vector(params, "shifted_power parameters")
        if len(values) != 2:
            raise click.UsageError("shifted_power takes two parameters: q,c")
        generator = shifted_power_generator(values[0], values[1])
    if generator is None:
        raise click.UsageError(f"unknown generator {spec!r} (see 'meankit catalog')")
    return generator.restricted(domain) if domain is not None else generator


def resolve_kernel(spec: str, domain: IntervalDomain | None = None) -> Kernel2:
    """Kernel spec: sign_dev | diff_gen:GEN | ratio_dev:GEN | expr:TEXT | GEN.

    A bare generator spec names its difference kernel diff_gen(GEN).  An
    explicit ``domain`` replaces both domains of every family's kernel.
    """
    name, _, params = spec.partition(":")
    if spec.startswith("expr:"):
        kernel = kernel_from_expression(spec[5:], positive_reals())
    elif name == "sign_dev":
        kernel = sign_kernel()
    elif name == "diff_gen":
        kernel = difference_kernel(resolve_generator(params))
    elif name == "ratio_dev":
        kernel = ratio_kernel(resolve_generator(params))
    else:
        kernel = difference_kernel(resolve_generator(spec))
    return kernel.with_domains(domain) if domain is not None else kernel


def _emit(doc: dict[str, Any], human_lines: list[str], output_format: str) -> None:
    if output_format == "structured":
        click.echo(json.dumps(doc, indent=2))
    else:
        for line in human_lines:
            click.echo(line)


# --- command group ----------------------------------------------------------------------


@click.group()
def cli() -> None:
    """Weighted means, scaling homogenizations, and verification suites."""


@cli.group()
def compute() -> None:
    """Evaluate a mean on an explicit sample."""


@compute.command("mean")
@click.option("--kind", type=click.Choice(["power", "qa", "semidev", "deviation"]), required=True)
@click.option("--p", "exponent", default=None, help="Power exponent (accepts inf / -inf).")
@click.option("--generator", default=None, help="Generator spec for --kind qa.")
@click.option("--kernel", default=None, help="Kernel spec for --kind semidev/deviation.")
@click.option("--x", "entries_text", required=True, help="Comma-separated entries.")
@click.option("--w", "weights_text", required=True, help="Comma-separated weights.")
@click.option(
    "--semidev-kind",
    type=click.Choice([k.value for k in MeanKind]),
    default=MeanKind.LOWER_WEAK.value,
)
@click.option("--domain", callback=_parse_domain, help="lo,hi (open interval).")
@click.option(
    "--grid",
    type=click.IntRange(min=2),
    default=DEFAULT_CONFIG.grid_size,
    show_default=True,
    help="Sign-scan grid size of --kind semidev; no effect on kernels solved in "
    "closed form: the difference of a generator increasing on the hull with a "
    "catalog inverse or a certified expr: chain (diff_gen, and expr:A(x)-A(y) with "
    "x once in A), ratio_dev:log, and sign_dev and expr:sign(x-y), whose means are "
    "the exact weighted medians.  --kind power, qa and deviation ignore it "
    "(deviation bisects the whole hull of any other kernel and reads only --refine-tol).",
)
@click.option(
    "--refine-tol",
    default=DEFAULT_CONFIG.refine_tol,
    show_default=True,
    help="Relative bisection tolerance; no effect on kernels solved in closed form (see --grid).",
)
@click.option("--format", "output_format", type=click.Choice(["human", "structured"]), default="human")
def compute_mean(
    kind, exponent, generator, kernel, entries_text, weights_text,
    semidev_kind, domain, grid, refine_tol, output_format,
):
    """Compute one weighted mean value."""
    entries = _parse_vector(entries_text, "--x")
    weights = _parse_vector(weights_text, "--w")
    cfg = SemidevMeanConfig(grid_size=grid, refine_tol=refine_tol)
    doc: dict[str, Any] = {"command": "compute-mean", "kind": kind}
    if kind == "power":
        if exponent is None:
            raise click.UsageError("--kind power requires --p")
        p = _parse_float(exponent, "--p")
        sample = make_weighted_sample(entries, weights, domain or positive_reals())
        value = power_mean(sample, p)
        doc.update({"p": p})
        formula = MEAN_FORMULAS["power"]
    elif kind == "qa":
        if generator is None:
            raise click.UsageError("--kind qa requires --generator")
        gen = resolve_generator(generator, domain or positive_reals())
        sample = make_weighted_sample(entries, weights, gen.domain)
        value = quasiarithmetic_mean(sample, gen)
        doc.update({"generator": gen.name})
        formula = MEAN_FORMULAS["qa"]
    elif kind == "semidev":
        if kernel is None:
            raise click.UsageError("--kind semidev requires --kernel")
        kern = resolve_kernel(kernel, domain)
        sample = make_weighted_sample(entries, weights, kern.domain_x)
        mean_kind = MeanKind(semidev_kind)
        value = semideviation_mean(kern, sample, mean_kind, cfg)
        doc.update({"kernel": kern.name, "semidev_kind": semidev_kind})
        formula = MEAN_FORMULAS[semidev_kind]
    else:
        if kernel is None:
            raise click.UsageError("--kind deviation requires --kernel")
        kern = resolve_kernel(kernel, domain)
        sample = make_weighted_sample(entries, weights, kern.domain_x)
        value = deviation_mean(kern, sample, cfg)
        doc.update({"kernel": kern.name})
        formula = MEAN_FORMULAS["deviation"]
    doc.update({"entries": entries, "weights": weights, "value": value})
    _emit(doc, [f"# {formula}", repr(value)], output_format)


@cli.command()
@click.option("--target", type=click.Choice(["qa", "mean", "kernel"]), required=True)
@click.option("--method", type=click.Choice(["local", "envelope"]), default="local", show_default=True)
@click.option("--mean", "mean_kind", type=click.Choice(["power", "qa", "semidev", "deviation"]), default=None)
@click.option("--generator", default=None)
@click.option("--kernel", default=None)
@click.option("--p", "exponent", default=None)
@click.option("--semidev-kind", type=click.Choice([k.value for k in MeanKind]), default=MeanKind.LOWER_WEAK.value)
@click.option("--x", "entries_text", default=None)
@click.option("--w", "weights_text", default=None)
@click.option("--ratio", default=None, help="Argument r of the kernel scale profile.")
@click.option("--domain", callback=_parse_domain)
@click.option(
    "--tol",
    default=LIMIT_TOL,
    show_default=True,
    callback=_check_tol,
    help="Limit-scan tolerance: the spread of the tail window, and the distance "
    "from an extrapolated limit to the last sampled value.",
)
@click.option("--csv", "csv_path", default=None, help="Write the t,value table (use - for stdout).")
@click.option("--format", "output_format", type=click.Choice(["human", "structured"]), default="human")
def homogenize(
    target, method, mean_kind, generator, kernel, exponent, semidev_kind,
    entries_text, weights_text, ratio, domain, tol, csv_path, output_format,
):
    """Estimate scaling limits: generator order, mean homogenization, or
    kernel scale profile."""
    if method == "envelope" and (target != "mean" or csv_path):
        raise click.UsageError("--method envelope works only with --target mean and without --csv")
    doc: dict[str, Any] = {"command": "homogenize", "target": target}
    # Each scan target states its scan, header, and extra key and lines; the
    # limit document, table and CSV below are shared.
    extra: dict[str, Any] = {}
    tail: list[str] = []
    if target == "qa":
        if generator is None:
            raise click.UsageError("--target qa requires --generator")
        gen = resolve_generator(generator, domain or positive_reals())
        est = qa_local_homogenization(gen, tol=tol)
        order = common_power_order(est)
        doc["generator"] = gen.name
        header = f"# local power order of {gen.name} at 0+"
        extra = {"power_order": order}
        tail = [f"power_order={order!r}" if order is not None else "power_order=none (tails disagree)"]
    elif target == "kernel":
        if kernel is None or ratio is None:
            raise click.UsageError("--target kernel requires --kernel and --ratio")
        kern = resolve_kernel(kernel, domain)
        r = _parse_float(ratio, "--ratio")
        est = kernel_homogenization(kern, r, tol=tol)
        doc.update({"kernel": kern.name, "ratio": r})
        header = f"# scale profile of normalized {kern.name} at ratio {r!r}"
    else:
        if entries_text is None or weights_text is None or mean_kind is None:
            raise click.UsageError("--target mean requires --mean, --x and --w")
        entries = _parse_vector(entries_text, "--x")
        weights = _parse_vector(weights_text, "--w")
        if mean_kind == "power":
            if exponent is None:
                raise click.UsageError("--mean power requires --p")
            handle = power_handle(_parse_float(exponent, "--p"), domain or positive_reals())
        elif mean_kind == "qa":
            if generator is None:
                raise click.UsageError("--mean qa requires --generator")
            handle = quasiarithmetic_handle(resolve_generator(generator, domain or positive_reals()))
        elif mean_kind == "semidev":
            if kernel is None:
                raise click.UsageError("--mean semidev requires --kernel")
            handle = semideviation_handle(resolve_kernel(kernel, domain), MeanKind(semidev_kind))
        else:
            if kernel is None:
                raise click.UsageError("--mean deviation requires --kernel")
            handle = deviation_handle(resolve_kernel(kernel, domain))
        sample = make_weighted_sample(entries, weights, positive_reals())
        doc.update({"mean": handle.name, "entries": entries, "weights": weights, "method": method})
        if method == "envelope":
            domain_sample = make_weighted_sample(entries, weights, handle.domain)
            lower, upper = envelope_pair(handle, domain_sample)
            doc.update({"lower": lower, "upper": upper})
            lines = [f"# homogeneous envelopes of {handle.name}", f"lower={lower!r}", f"upper={upper!r}"]
            _emit(doc, lines, output_format)
            return
        est = local_homogenization(handle, sample, tol=tol)
        header = f"# local homogenization of {handle.name}: M(t x, w)/t for t -> 0+"
        tail = [f"estimate={est.estimate!r}"]
    # Failed evaluations are NaN internally; emit strict-JSON null instead.
    doc.update({
        "table": [[t, v if math.isfinite(v) else None] for t, v in est.values],
        "tail_min": est.tail_min,
        "tail_max": est.tail_max,
        "estimate": est.estimate,
        "converged": est.converged,
        "window": est.window,
        "tol": est.tol,
        **extra,
    })
    lines = [header, f"{'t':>24}  {'value':>24}", *(f"{t!r:>24}  {v!r:>24}" for t, v in est.values)]
    lines.append(
        f"tail_min={est.tail_min!r} tail_max={est.tail_max!r} "
        f"converged={est.converged} window={est.window} tol={est.tol!r}"
    )
    _emit(doc, lines + tail, output_format)
    if csv_path:
        text = "t,value\n" + "".join(f"{t!r},{v!r}\n" for t, v in est.values)
        if csv_path == "-":
            click.echo(text, nl=False)
        else:
            with open(csv_path, "w", encoding="utf-8") as fh:
                fh.write(text)


SUITES = ("sandwich", "lemma-lim", "comparison", "jensen", "tei", "cei", "minkowski", "hoelder", "homi")


@cli.command()
@click.option("--suite", type=click.Choice(SUITES), required=True)
@click.option("--kernel", default=None, help="Primary kernel spec (generator spec for presets).")
@click.option("--kernel2", default=None, help="Second kernel (comparison / homi).")
@click.option("--kernel3", default=None, help="Third kernel (homi).")
@click.option("--op", "operation_text", default=None, help="expr:TEXT operation in x, y (homi).")
@click.option("--seed", default=0, show_default=True)
@click.option("--samples", type=click.IntRange(min=1), default=100, show_default=True)
@click.option(
    "--grid",
    type=click.IntRange(min=2),
    default=10,
    show_default=True,
    help="Lattice points per axis: minkowski, hoelder and homi check grid^4 points, "
    "comparison max(grid, 12) per axis; the other suites ignore it.",
)
@click.option("--x", "point_text", default=None, help="Point pair x,y for lemma-lim.")
@click.option("--n-range", default="1,6", show_default=True, callback=_parse_count_range)
@click.option("--entry-range", callback=_parse_range)
@click.option("--weight-range", default="0.1,3", show_default=True, callback=_parse_range)
# The parameter names are config keys too, so --domain keeps ``domain_text``.
@click.option("--domain", "domain_text", callback=_parse_domain)
@click.option("--monotone/--no-monotone", default=True, show_default=True, help="homi: probe and use the monotone form.")
@click.option(
    "--config", is_eager=True, expose_value=False, callback=_load_config,
    help="JSON file: an object of option values keyed by long option name (- or _ alike); flags win.",
)
@click.option("--format", "output_format", type=click.Choice(["human", "structured"]), default="human")
def verify(
    suite, kernel, kernel2, kernel3, operation_text, seed, samples, grid,
    point_text, n_range, entry_range, weight_range, domain_text, monotone, output_format,
):
    """Run one verification suite; exit 0 on pass, 1 on fail/inconclusive,
    2 on a usage or configuration error, 3 on a numerical failure."""
    plan = SamplePlan(
        seed=seed, n_samples=samples, n_range=n_range, entry_range=entry_range, weight_range=weight_range
    )

    if suite in ("minkowski", "hoelder"):
        generator = resolve_generator(kernel) if kernel else None
        factor_range = entry_range or FACTOR_RANGE
        preset = (minkowski_preset if suite == "minkowski" else hoelder_preset)(generator, factor_range)
        inner_lo, inner_hi = factor_range
        pad = 0.05 * (inner_hi - inner_lo)
        plan_inner = replace(plan, entry_range=(inner_lo + pad, inner_hi - pad))
        report = verify_homi(
            preset["kernel_result"], preset["kernel_first"], preset["kernel_second"],
            preset["operation"], plan_inner, grid=grid, suite_label=suite,
        )
    elif suite == "homi":
        if not (kernel and kernel2 and kernel3 and operation_text):
            raise click.UsageError("--suite homi needs --kernel, --kernel2, --kernel3 and --op")
        op_spec = operation_text if operation_text.startswith("expr:") else f"expr:{operation_text}"
        kern_i = resolve_kernel(kernel, domain_text)
        kern_j = resolve_kernel(kernel2, domain_text)
        kern_k = resolve_kernel(kernel3, domain_text)
        operation = kernel_from_expression(op_spec[5:], kern_j.domain_x, kern_k.domain_x, name="operation")
        report = verify_homi(kern_i, kern_j, kern_k, operation, plan, grid=grid, monotone_mode=monotone)
    elif suite == "lemma-lim":
        if kernel is None or point_text is None:
            raise click.UsageError("--suite lemma-lim needs --kernel and --x x,y")
        points = _parse_vector(point_text, "--x")
        if len(points) != 2:
            raise click.UsageError("--x must give exactly two points for lemma-lim")
        report = verify_lemma_lim(resolve_kernel(kernel, domain_text), points[0], points[1])
    elif suite == "comparison":
        if kernel is None or kernel2 is None:
            raise click.UsageError("--suite comparison needs --kernel and --kernel2")
        report = verify_comparison(
            resolve_kernel(kernel, domain_text), resolve_kernel(kernel2, domain_text), plan, grid=max(grid, 12)
        )
    else:
        if kernel is None:
            raise click.UsageError(f"--suite {suite} needs --kernel")
        kern = resolve_kernel(kernel, domain_text)
        if suite == "sandwich":
            report = verify_sandwich(kern, plan)
        elif suite == "jensen":
            report = verify_jensen(kern, plan)
        elif suite == "tei":
            report = verify_tei(kern, plan)
        else:
            report = verify_cei(kern, plan)

    doc = {"command": "verify", "suite": suite, "seed": seed, "samples": samples,
           "report": report.to_dict()}
    _emit(doc, _report_lines(report), output_format)
    return 0 if report.overall == "pass" else 1


def _report_lines(report: Report) -> list[str]:
    lines = [f"suite {report.theorem_id}: {report.overall.upper()}"]
    for cond in report.conditions:
        status = "ok" if cond.holds else "FAIL"
        lines.append(f"  [{status}] {cond.name} ({cond.checked} checks)")
        if cond.note:
            lines.append(f"      {cond.note}")
        if cond.witness is not None:
            lines.append(f"      witness: {json.dumps(cond.witness)}")
    return lines


@cli.command()
def catalog() -> None:
    """List built-in generators and kernels with derivative availability."""
    rows = [
        ("generator", "power:P", "x^P (P=0: log) on (0, inf)", "analytic f', f''"),
        ("generator", "log", "log x on (0, inf)", "analytic f', f''"),
        ("generator", "exp", "exp x on (-inf, inf)", "analytic f', f''"),
        ("generator", "cosh", "cosh x on (0, inf)", "analytic f', f''"),
        ("generator", "shifted_power:Q,C", "(x+C)^Q on (-C, inf)", "analytic f', f''"),
        ("generator", "expr:TEXT", "expression in x", "numeric fallback"),
        ("kernel", "sign_dev", "sign(x - y): weighted medians", "none (not normalizable)"),
        ("kernel", "diff_gen:GEN", "GEN(x) - GEN(y)", "analytic dK/dy when GEN has f', numeric dK/dx"),
        ("kernel", "ratio_dev:GEN", "GEN(x / y) on (0, inf)^2", "analytic dK/dy when GEN has f', numeric dK/dx"),
        ("kernel", "expr:TEXT", "expression in x, y", "numeric fallback"),
    ]
    width = max(len(r[1]) for r in rows)
    for role, name, what, derivs in rows:
        click.echo(f"{role:<9}  {name:<{width}}  {what:<34}  {derivs}")


def main(argv: list[str] | None = None) -> int:
    """Entry point with the documented exit-code mapping."""
    try:
        result = cli.main(args=argv, standalone_mode=False)
    except click.ClickException as exc:
        exc.show()
        return 2
    except click.exceptions.Abort:
        return 2
    except MeanKitError as exc:
        click.echo(f"error: {type(exc).__name__}: {exc}", err=True)
        return 3
    except ValueError as exc:
        # A library argument check the flags did not catch: a usage error.
        click.echo(f"error: {exc}", err=True)
        return 2
    return int(result) if isinstance(result, int) else 0


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
