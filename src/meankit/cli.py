"""Command-line front end: compute means, run homogenizations, verify suites.

Exit codes: 0 success/pass, 1 verification fail or inconclusive (witness
printed), 2 usage or configuration error, 3 numerical failure (the error
class name is printed).  The last stderr line names the failure: ``Error:
<message>`` for a bad flag, config file or flag combination, ``error:
<message>`` for a library argument check, and ``error: <ErrorClass>:
<message>`` on exit 3.

Structured output is a single JSON document per run with a fixed key order;
every number round-trips at full precision.  Limit tables can additionally be
emitted as CSV with columns ``t,value``.

The parser is the standard library's ``argparse``, built once at import.
``verify --config FILE`` stands for the flags its JSON object names, placed
before the command line's own flags, so that explicit flags win.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import replace
from typing import Any, Callable

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


class UsageError(Exception):
    """A bad flag, config file or flag combination: exit 2 with ``Error: <message>``."""


def _invalid(flag: str, detail: str) -> UsageError:
    return UsageError(f"Invalid value for '{flag}': {detail}")


# --- flag parsing ----------------------------------------------------------------


def _parse_float(text: str, label: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise UsageError(f"{label}: cannot parse {text!r} as a number") from None
    if math.isnan(value):
        raise UsageError(f"{label}: NaN is not allowed")
    return value


def _parse_vector(text: str, label: str) -> list[float]:
    items = [s for s in text.split(",") if s.strip()]
    if not items:
        raise UsageError(f"{label}: empty vector")
    return [_parse_float(s, label) for s in items]


# Option converters map (text, flag) to the value the command body receives;
# ``_parse`` runs each once on its option's final text, a value from
# ``verify --config`` included.


def _parse_domain(text: str, flag: str) -> IntervalDomain:
    parts = _parse_vector(text, flag)
    if len(parts) != 2:
        raise UsageError(f"{flag} takes exactly two comma-separated bounds")
    try:
        return IntervalDomain(parts[0], parts[1])
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _parse_range(text: str, flag: str) -> tuple[float, float]:
    parts = _parse_vector(text, flag)
    if len(parts) != 2 or not parts[0] < parts[1]:
        raise UsageError(f"{flag} must be 'lo,hi' with lo < hi")
    return parts[0], parts[1]


def _number(kind: type = float, minimum: int | None = None) -> Callable[[str, str], Any]:
    name = ("integer" if kind is int else "float") + ("" if minimum is None else " range")

    def parse(text: str, flag: str) -> Any:
        try:
            value = kind(text)
        except ValueError:
            raise _invalid(flag, f"{text!r} is not a valid {name}.") from None
        if minimum is not None and value < minimum:
            raise _invalid(flag, f"{value} is not in the range x>={minimum}.")
        return value

    return parse


def _choice(*choices: str) -> Callable[[str, str], str]:
    def parse(text: str, flag: str) -> str:
        if text not in choices:
            raise _invalid(flag, f"{text!r} is not one of {', '.join(map(repr, choices))}.")
        return text

    return parse


def _check_tol(text: str, flag: str) -> float:
    # ``limit_at_zero`` makes the same check, but only once a scan starts.
    try:
        return check_tolerance("tol", _number()(text, flag))
    except ValueError as exc:
        raise _invalid(flag, str(exc)) from None


def _parse_count_range(text: str, flag: str) -> tuple[int, int]:
    try:
        lo, hi = (int(s) for s in text.split(","))
        if 1 <= lo <= hi:
            return lo, hi
    except ValueError:
        pass
    raise _invalid(flag, f"{text!r} is not 'lo,hi' with integers 1 <= lo <= hi")


#: The words for a boolean flag's state, as a config file may give it.
BOOLEAN_WORDS = {
    **dict.fromkeys(("1", "true", "t", "yes", "y", "on"), True),
    **dict.fromkeys(("", "0", "false", "f", "no", "n", "off"), False),
}


def _parse_boolean(value: bool | str, flag: str) -> bool:
    if isinstance(value, bool):
        return value
    state = BOOLEAN_WORDS.get(value.strip().lower())
    if state is None:
        words = ", ".join(sorted(BOOLEAN_WORDS))
        raise _invalid(flag, f"{value!r} is not a valid boolean. Recognized values: {words}")
    return state


def _config_texts(path: str, command: _Parser) -> dict[argparse.Action, str]:
    """The option texts that a JSON object in ``path`` gives, keyed by action.

    Keys are long option or parameter names, ``-`` and ``_`` alike; values
    are strings, numbers or booleans, and a non-string value stands for its
    JSON text.  Each text then passes its option's converter like a flag's.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            config = json.load(fh)
    except (OSError, ValueError) as exc:
        raise _invalid("--config", f"{path!r}: {exc}") from None
    if not isinstance(config, dict):
        raise _invalid("--config", f"{path!r}: expected a JSON object")
    names = {
        key.lstrip("-").replace("-", "_"): action
        for action, _, _ in command.params
        for key in (action.dest, *action.option_strings)
    }
    texts: dict[argparse.Action, str] = {}
    for key, value in config.items():
        action = names.get(key.replace("-", "_"))
        if action is None or action in texts:
            raise _invalid("--config", f"unknown or repeated key {key!r}")
        if value is None or isinstance(value, (list, dict)):
            raise _invalid("--config", f"key {key!r} must be a string, number or boolean")
        texts[action] = value if isinstance(value, str) else json.dumps(value)
    return texts


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
            raise UsageError("shifted_power takes two parameters: q,c")
        generator = shifted_power_generator(values[0], values[1])
    if generator is None:
        raise UsageError(f"unknown generator {spec!r} (see 'meankit catalog')")
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
    sys.stdout.write((json.dumps(doc, indent=2) if output_format == "structured" else "\n".join(human_lines)) + "\n")


# --- commands ---------------------------------------------------------------------------


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
            raise UsageError("--kind power requires --p")
        p = _parse_float(exponent, "--p")
        sample = make_weighted_sample(entries, weights, domain or positive_reals())
        value = power_mean(sample, p)
        doc.update({"p": p})
        formula = MEAN_FORMULAS["power"]
    elif kind == "qa":
        if generator is None:
            raise UsageError("--kind qa requires --generator")
        gen = resolve_generator(generator, domain or positive_reals())
        sample = make_weighted_sample(entries, weights, gen.domain)
        value = quasiarithmetic_mean(sample, gen)
        doc.update({"generator": gen.name})
        formula = MEAN_FORMULAS["qa"]
    elif kind == "semidev":
        if kernel is None:
            raise UsageError("--kind semidev requires --kernel")
        kern = resolve_kernel(kernel, domain)
        sample = make_weighted_sample(entries, weights, kern.domain_x)
        mean_kind = MeanKind(semidev_kind)
        value = semideviation_mean(kern, sample, mean_kind, cfg)
        doc.update({"kernel": kern.name, "semidev_kind": semidev_kind})
        formula = MEAN_FORMULAS[semidev_kind]
    else:
        if kernel is None:
            raise UsageError("--kind deviation requires --kernel")
        kern = resolve_kernel(kernel, domain)
        sample = make_weighted_sample(entries, weights, kern.domain_x)
        value = deviation_mean(kern, sample, cfg)
        doc.update({"kernel": kern.name})
        formula = MEAN_FORMULAS["deviation"]
    doc.update({"entries": entries, "weights": weights, "value": value})
    _emit(doc, [f"# {formula}", repr(value)], output_format)


def homogenize(
    target, method, mean_kind, generator, kernel, exponent, semidev_kind,
    entries_text, weights_text, ratio, domain, tol, csv_path, output_format,
):
    """Estimate scaling limits: generator order, mean homogenization, or
    kernel scale profile."""
    if method == "envelope" and (target != "mean" or csv_path):
        raise UsageError("--method envelope works only with --target mean and without --csv")
    doc: dict[str, Any] = {"command": "homogenize", "target": target}
    # Each scan target states its scan, header, and extra key and lines; the
    # limit document, table and CSV below are shared.
    extra: dict[str, Any] = {}
    tail: list[str] = []
    if target == "qa":
        if generator is None:
            raise UsageError("--target qa requires --generator")
        gen = resolve_generator(generator, domain or positive_reals())
        est = qa_local_homogenization(gen, tol=tol)
        order = common_power_order(est)
        doc["generator"] = gen.name
        header = f"# local power order of {gen.name} at 0+"
        extra = {"power_order": order}
        tail = [f"power_order={order!r}" if order is not None else "power_order=none (tails disagree)"]
    elif target == "kernel":
        if kernel is None or ratio is None:
            raise UsageError("--target kernel requires --kernel and --ratio")
        kern = resolve_kernel(kernel, domain)
        r = _parse_float(ratio, "--ratio")
        est = kernel_homogenization(kern, r, tol=tol)
        doc.update({"kernel": kern.name, "ratio": r})
        header = f"# scale profile of normalized {kern.name} at ratio {r!r}"
    else:
        if entries_text is None or weights_text is None or mean_kind is None:
            raise UsageError("--target mean requires --mean, --x and --w")
        entries = _parse_vector(entries_text, "--x")
        weights = _parse_vector(weights_text, "--w")
        if mean_kind == "power":
            if exponent is None:
                raise UsageError("--mean power requires --p")
            handle = power_handle(_parse_float(exponent, "--p"), domain or positive_reals())
        elif mean_kind == "qa":
            if generator is None:
                raise UsageError("--mean qa requires --generator")
            handle = quasiarithmetic_handle(resolve_generator(generator, domain or positive_reals()))
        elif mean_kind == "semidev":
            if kernel is None:
                raise UsageError("--mean semidev requires --kernel")
            handle = semideviation_handle(resolve_kernel(kernel, domain), MeanKind(semidev_kind))
        else:
            if kernel is None:
                raise UsageError("--mean deviation requires --kernel")
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
            sys.stdout.write(text)
        else:
            with open(csv_path, "w", encoding="utf-8") as fh:
                fh.write(text)


SUITES = ("sandwich", "lemma-lim", "comparison", "jensen", "tei", "cei", "minkowski", "hoelder", "homi")


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
            raise UsageError("--suite homi needs --kernel, --kernel2, --kernel3 and --op")
        op_spec = operation_text if operation_text.startswith("expr:") else f"expr:{operation_text}"
        kern_i = resolve_kernel(kernel, domain_text)
        kern_j = resolve_kernel(kernel2, domain_text)
        kern_k = resolve_kernel(kernel3, domain_text)
        operation = kernel_from_expression(op_spec[5:], kern_j.domain_x, kern_k.domain_x, name="operation")
        report = verify_homi(kern_i, kern_j, kern_k, operation, plan, grid=grid, monotone_mode=monotone)
    elif suite == "lemma-lim":
        if kernel is None or point_text is None:
            raise UsageError("--suite lemma-lim needs --kernel and --x x,y")
        points = _parse_vector(point_text, "--x")
        if len(points) != 2:
            raise UsageError("--x must give exactly two points for lemma-lim")
        report = verify_lemma_lim(resolve_kernel(kernel, domain_text), points[0], points[1])
    elif suite == "comparison":
        if kernel is None or kernel2 is None:
            raise UsageError("--suite comparison needs --kernel and --kernel2")
        report = verify_comparison(
            resolve_kernel(kernel, domain_text), resolve_kernel(kernel2, domain_text), plan, grid=max(grid, 12)
        )
    else:
        if kernel is None:
            raise UsageError(f"--suite {suite} needs --kernel")
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
        print(f"{role:<9}  {name:<{width}}  {what:<34}  {derivs}")


# --- parser table -----------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """A parser that raises UsageError and leaves value checks to ``_parse``.

    A command group dispatches to subcommands and answers ``--help`` at once.
    A command's ``params`` lists (action, converter or None, required) for
    each option its body receives; the options store their raw text, and
    ``--help`` waits until the whole command line has parsed.
    """

    def __init__(self, group: bool = False, **kwargs: Any) -> None:
        super().__init__(add_help=False, allow_abbrev=False, **kwargs)
        self.params: list[tuple[argparse.Action, Callable[[Any, str], Any] | None, bool]] = []
        self.add_argument("--help", action="help" if group else "store_true", help="Show this message and exit.")
        if group:
            self.subcommands = self.add_subparsers(dest="name", metavar="COMMAND", required=True)
        else:
            self.set_defaults(command=self)

    def error(self, message: str):
        raise UsageError(message)

    def command(self, name: str, run: Callable[..., int | None]) -> _Parser:
        """A subcommand whose body is ``run``."""
        about = " ".join(run.__doc__.split())
        command = self.subcommands.add_parser(name, help=about, description=about)
        command.run = run
        return command

    def option(self, flag: str, dest: str | None = None, parse=None, *, choices: tuple[str, ...] = (),
               required: bool = False, show_default: bool = False, help: str | None = None, **kwargs) -> None:
        if choices:
            parse, kwargs["metavar"] = _choice(*choices), "{" + ",".join(choices) + "}"
        if required or show_default:
            help = " ".join(filter(None, (help, "[required]" if required else "[default: %(default)s]")))
        self.params.append((self.add_argument(flag, dest=dest, help=help, **kwargs), parse, required))


KINDS = ("power", "qa", "semidev", "deviation")
SEMIDEV_KINDS = tuple(k.value for k in MeanKind)
FORMATS = ("human", "structured")


def _build_parser() -> tuple[_Parser, set[str]]:
    """The command table, and the options that take a value."""
    parser = _Parser(True, prog="meankit", description="Weighted means, scaling homogenizations, and verification suites.")
    about = "Evaluate a mean on an explicit sample."
    compute = parser.subcommands.add_parser("compute", group=True, help=about, description=about)

    cmd = mean = compute.command("mean", compute_mean)
    cmd.option("--kind", choices=KINDS, required=True)
    cmd.option("--p", "exponent", help="Power exponent (accepts inf / -inf).")
    cmd.option("--generator", help="Generator spec for --kind qa.")
    cmd.option("--kernel", help="Kernel spec for --kind semidev/deviation.")
    cmd.option("--x", "entries_text", required=True, help="Comma-separated entries.")
    cmd.option("--w", "weights_text", required=True, help="Comma-separated weights.")
    cmd.option("--semidev-kind", choices=SEMIDEV_KINDS, default=MeanKind.LOWER_WEAK.value)
    cmd.option("--domain", parse=_parse_domain, help="lo,hi (open interval).")
    cmd.option(
        "--grid", parse=_number(int, 2), default=DEFAULT_CONFIG.grid_size, show_default=True,
        help="Sign-scan grid size of --kind semidev; no effect on kernels solved in "
        "closed form: the difference of a generator increasing on the hull with a "
        "catalog inverse or a certified expr: chain (diff_gen, and expr:A(x)-A(y) with "
        "x once in A), ratio_dev:log, and sign_dev and expr:sign(x-y), whose means are "
        "the exact weighted medians.  --kind power, qa and deviation ignore it "
        "(deviation bisects the whole hull of any other kernel and reads only --refine-tol).",
    )
    cmd.option(
        "--refine-tol", parse=_number(), default=DEFAULT_CONFIG.refine_tol, show_default=True,
        help="Relative bisection tolerance; no effect on kernels solved in closed form (see --grid).",
    )
    cmd.option("--format", "output_format", choices=FORMATS, default="human")

    cmd = hom = parser.command("homogenize", homogenize)
    cmd.option("--target", choices=("qa", "mean", "kernel"), required=True)
    cmd.option("--method", choices=("local", "envelope"), default="local", show_default=True)
    cmd.option("--mean", "mean_kind", choices=KINDS)
    cmd.option("--generator")
    cmd.option("--kernel")
    cmd.option("--p", "exponent")
    cmd.option("--semidev-kind", choices=SEMIDEV_KINDS, default=MeanKind.LOWER_WEAK.value)
    cmd.option("--x", "entries_text")
    cmd.option("--w", "weights_text")
    cmd.option("--ratio", help="Argument r of the kernel scale profile.")
    cmd.option("--domain", parse=_parse_domain)
    cmd.option(
        "--tol", parse=_check_tol, default=LIMIT_TOL, show_default=True,
        help="Limit-scan tolerance: the spread of the tail window, and the distance "
        "from an extrapolated limit to the last sampled value.",
    )
    cmd.option("--csv", "csv_path", help="Write the t,value table (use - for stdout).")
    cmd.option("--format", "output_format", choices=FORMATS, default="human")

    cmd = parser.command("verify", verify)
    cmd.option("--suite", choices=SUITES, required=True)
    cmd.option("--kernel", help="Primary kernel spec (generator spec for presets).")
    cmd.option("--kernel2", help="Second kernel (comparison / homi).")
    cmd.option("--kernel3", help="Third kernel (homi).")
    cmd.option("--op", "operation_text", help="expr:TEXT operation in x, y (homi).")
    cmd.option("--seed", parse=_number(int), default=0, show_default=True)
    cmd.option("--samples", parse=_number(int, 1), default=100, show_default=True)
    cmd.option(
        "--grid", parse=_number(int, 2), default=10, show_default=True,
        help="Lattice points per axis: minkowski, hoelder and homi check grid^4 points, "
        "comparison max(grid, 12) per axis; the other suites ignore it.",
    )
    cmd.option("--x", "point_text", help="Point pair x,y for lemma-lim.")
    cmd.option("--n-range", parse=_parse_count_range, default="1,6", show_default=True)
    cmd.option("--entry-range", parse=_parse_range)
    cmd.option("--weight-range", parse=_parse_range, default="0.1,3", show_default=True)
    # The parameter names are config keys too, so --domain keeps ``domain_text``.
    cmd.option("--domain", "domain_text", parse=_parse_domain)
    cmd.option(
        "--monotone", parse=_parse_boolean, action="store_true", default=True, show_default=True,
        help="homi: probe and use the monotone form.",
    )
    cmd.add_argument("--no-monotone", dest="monotone", action="store_false")
    cmd.add_argument(
        "--config",
        help="JSON file: an object of option values keyed by long option name (- or _ alike); flags win.",
    )
    cmd.option("--format", "output_format", choices=FORMATS, default="human")

    parser.command("catalog", catalog)
    value_flags = {
        flag for command in (mean, hom, cmd) for action, _, _ in command.params if action.nargs is None
        for flag in action.option_strings
    }
    return parser, value_flags | {"--config"}


PARSER, VALUE_FLAGS = _build_parser()


def _joined(argv: list[str]) -> tuple[list[str], list[str]]:
    """argv with each value option and the token after it joined as
    ``--opt=value``, and the arguments after a ``--`` that ends the options.

    A value option takes the next token whatever it is, but argparse refuses
    a separate value that starts with ``-`` and is not a plain number, such as
    ``--p -inf``, ``--x -1e308,2`` or ``--entry-range -4,4``.
    """
    tokens, rest = [], iter(argv)
    for token in rest:
        if token == "--":
            return tokens, list(rest)
        value = next(rest, None) if token in VALUE_FLAGS else None
        tokens.append(token if value is None else f"{token}={value}")
    return tokens, []


def _parse(argv: list[str]) -> tuple[Callable[..., int | None], dict[str, Any]] | None:
    """The command body and its keyword arguments, or None once ``--help`` has printed.

    ``--help`` and ``--config`` act first, in the order they appear: a config
    file is read unless a ``--help`` comes before it.  Then each option's
    final text converts once, those on the command line in the order they
    first appear and then the rest in declaration order.  So an overridden
    or repeated value is never checked, and of several bad values the
    first given is reported.
    """
    tokens, arguments = _joined(argv)
    args, extra = PARSER.parse_known_args(tokens)
    if any(token.startswith("-") and token != "-" for token in extra):
        raise UsageError(f"unrecognized arguments: {' '.join(extra)}")
    command = args.command
    first: dict[str, int] = {}
    for i, token in enumerate(tokens):
        first.setdefault(token.partition("=")[0], i)
    if getattr(args, "config", None) is not None and first["--config"] < first.get("--help", len(tokens)):
        texts = _config_texts(args.config, command)
        prefix = [f"{action.option_strings[0]}={text}" for action, text in texts.items() if action.nargs != 0]
        args, extra = PARSER.parse_known_args([tokens[0], *prefix, *tokens[1:]])
        for action, text in texts.items():
            # A --NAME/--no-NAME flag pair takes the config's word unless either flag is given.
            flag = action.option_strings[0]
            if action.nargs == 0 and not {flag, flag.replace("--", "--no-", 1)} & first.keys():
                setattr(args, action.dest, text)
    if args.help:
        command.print_help()
        return None

    def position(param: tuple[argparse.Action, Any, bool]) -> int:
        return min((first[flag] for flag in param[0].option_strings if flag in first), default=len(tokens))

    values = {}
    for action, parse, required in sorted(command.params, key=position):
        flag, value = action.option_strings[0], getattr(args, action.dest)
        if value == []:  # argparse before 3.13 reads the value ``--`` as no value at all
            value = "--"
        if value is None and required:
            raise UsageError(f"Missing option '{flag}'.")
        values[action.dest] = value if value is None or parse is None else parse(value, flag)
    if extra or arguments:
        raise UsageError(f"unrecognized arguments: {' '.join(extra + arguments)}")
    return command.run, values


def main(argv: list[str] | None = None) -> int:
    """Entry point with the documented exit-code mapping."""
    try:
        parsed = _parse(sys.argv[1:] if argv is None else argv)
        return 0 if parsed is None else parsed[0](**parsed[1]) or 0
    except SystemExit as exc:  # a command group's --help
        return exc.code
    except UsageError as exc:
        print(f"Error: {exc}", file=sys.stderr)
        return 2
    except MeanKitError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        # A library argument check the flags did not catch: a usage error.
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout early, as ``| head`` does: exit 1 quietly.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    entry()
