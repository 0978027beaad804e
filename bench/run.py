"""meankit benchmark: seeded CLI workloads with checked outputs.

    python3 bench/run.py --workload suite-ops --seed 1 --seconds 25 --trace 0

Drives ``meankit.cli.main(argv)`` in-process as a closed loop with a single
caller, checks every output, prints every metric by name with its unit, and
ends with one JSON line: ``{"correct", "attempted", "failed", "metrics"}``.
``--trace 0`` measures the end-to-end metrics; ``--trace 1`` replays a fixed
op prefix untraced and twice traced and reports the per-layer metrics.  See
README.md in this directory.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import speed
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"

#: Fresh interpreters started per run to measure set-up time.
SETUP_RUNS = 9
SETUP_TIMEOUT_S = 60.0


class BenchmarkError(Exception):
    """The benchmark cannot run here; no result is printed."""


def import_cli():
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import meankit.cli as cli
    except ImportError as exc:
        raise BenchmarkError(f"cannot import meankit from {ROOT / 'src'}: {exc}") from exc
    origin = Path(cli.__file__).resolve()
    if ROOT / "src" not in origin.parents:
        raise BenchmarkError(f"meankit was imported from {origin}, not from this checkout")
    return cli


@dataclass
class Outcome:
    code: int
    out: str
    err: str
    start: float
    end: float


class Capture:
    """Runs CLI calls with their stdout and stderr captured.

    One pair of buffers serves every call: click caches a stream wrapper per
    ``sys.stdout`` object and never frees it, so a fresh buffer per call would
    grow the process by about 1 KB per op and tie ``max_rss_mb`` to speed.
    """

    def __init__(self) -> None:
        self.out, self.err = io.StringIO(), io.StringIO()

    def call(self, main, argv) -> Outcome:
        """One CLI call; a traceback exits 1, as in a shell."""
        for buffer in (self.out, self.err):
            buffer.seek(0)
            buffer.truncate()
        with contextlib.redirect_stdout(self.out), contextlib.redirect_stderr(self.err):
            start = time.perf_counter()
            try:
                code = main(list(argv))
            except Exception:
                traceback.print_exc()
                code = 1
            end = time.perf_counter()
        return Outcome(code, self.out.getvalue(), self.err.getvalue(), start, end)


def measure_setup(workload: str, seed: int) -> tuple[float, float]:
    """(wall, normalized) seconds from spawning a fresh interpreter until it
    has imported meankit.cli, resolved the workload's specs and built its
    first op."""
    argv = [sys.executable, str(BENCH / "setup_child.py"), workload, str(seed)]
    start = time.perf_counter()
    with subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        ready = time.perf_counter()
        probes = proc.stdout.readline()
        try:
            _, err = proc.communicate(timeout=SETUP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise BenchmarkError("set-up probe timed out") from None
    if line.strip() != "ready" or proc.returncode != 0:
        raise BenchmarkError(f"set-up probe failed (exit {proc.returncode}): {err.strip()[-500:]}")
    wall = ready - start
    return wall, wall * speed.reference_ratio([float(v) for v in probes.split()])


def tail(values: list[float]) -> tuple[float, float, int]:
    """(value, percentile, ops beyond): the highest percentile with at least
    10 ops beyond it.  Below 100 ops that percentile is under p90, no tail
    (at 20 ops it is the median), so the maximum is reported instead
    (percentile 100, 0 beyond)."""
    ordered = sorted(values)
    n = len(ordered)
    if n >= 100:
        return ordered[n - 11], 100.0 * (n - 10) / n, 10
    return ordered[-1], 100.0, 0


def failure(op, outcome: Outcome) -> str | None:
    """Why the op's output is wrong, with the last stderr line; None if right."""
    reason = op.check(outcome.code, outcome.out)
    if reason is None:
        return None
    detail = " ".join(outcome.err.strip().splitlines()[-1:])
    return f"{' '.join(op.argv)}: {reason} {detail}".strip()


class Tally:
    """Checks outputs and counts failures; every failure is a wrong output."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.by_family: dict[str, list[int]] = {}

    def check(self, op, outcome: Outcome) -> None:
        self.attempted += 1
        family = self.by_family.setdefault(op.family, [0, 0])
        family[0] += 1
        reason = failure(op, outcome)
        if reason is None:
            return
        self.failed += 1
        family[1] += 1
        self.failures.append(reason)

    def lines(self) -> list[str]:
        lines = [f"  {name:<18} {fails}/{total} failed" for name, (total, fails) in sorted(self.by_family.items())]
        lines += [f"  failure: {f}" for f in self.failures[:10]]
        return lines


def probe_known_defects(cli) -> tuple[list[str], list[dict]]:
    """Runs every call of workloads.KNOWN_DEFECTS once and reports whether it
    still fails.  These calls are outside the measured workload and its
    attempted and failed counts."""
    capture = Capture()
    lines, record = [], []
    for defect, op in workloads.KNOWN_DEFECTS:
        reason = failure(op, capture.call(cli.main, op.argv))
        state = "still fails" if reason else "now passes (defect fixed?)"
        lines.append(f"  known defect, {state}: {reason or ' '.join(op.argv)}")
        record.append({"defect": defect, "argv": list(op.argv), "failure": reason})
    fails = sum(1 for r in record if r["failure"])
    return [f"known-defect probes (not part of the workload): {fails} of {len(record)} fail"] + lines, record


def run_untraced(cli, workload, seed: int, seconds: float, references: dict):
    # Half the set-up probes run before the measured loop and half after, so
    # the median spans the host's speed over the whole run.
    setups = [measure_setup(workload.name, seed) for _ in range(SETUP_RUNS - SETUP_RUNS // 2)]
    tally = Tally()
    capture = Capture()
    ops, samples = [], 0
    stream = workload.stream(seed, references)
    with speed.SpeedProbe() as probe:
        deadline = time.perf_counter() + seconds
        while True:
            op = next(stream)
            outcome = capture.call(cli.main, op.argv)
            ops.append((outcome.start, outcome.end))
            samples += op.samples
            tally.check(op, outcome)
            if outcome.end >= deadline and len(ops) % workload.round_ops == 0:
                break
    setups += [measure_setup(workload.name, seed) for _ in range(SETUP_RUNS // 2)]
    durations = [probe.normalized(s, e) for s, e in ops]
    walls = [e - s for s, e in ops]
    busy = sum(durations)
    tail_s, tail_pct, beyond = tail(durations)
    metrics = {
        "setup_s": (statistics.median(n for _, n in setups), "s"),
        "op_s_p50": (statistics.median(durations), "s"),
        "op_s_tail": (tail_s, "s"),
        "samples_per_s": (samples / busy, "1/s"),
        "calls_per_s": (len(ops) / busy, "1/s"),
        "max_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    notes = [
        f"ops {len(ops)}, samples {samples}; op_s_tail is p{tail_pct:.1f} with {beyond} ops beyond it",
        f"  {'failed_share':<40} {tally.failed / tally.attempted!r} ratio ({tally.failed} of {tally.attempted} ops)",
        f"wall (not normalized): op p50 {statistics.median(walls):.6f} s, busy {sum(walls):.3f} s, "
        f"setup median {statistics.median(w for w, _ in setups):.6f} s; "
        f"normalized/wall {busy / sum(walls):.4f}",
    ]
    extras = {
        "failed_share": tally.failed / tally.attempted,
        "op_s_tail_percentile": tail_pct,
        "op_s_tail_ops_beyond": beyond,
        "ops": len(ops),
        "op_seconds_normalized": durations,
        "op_seconds_wall": walls,
        "setup_seconds": [{"wall": w, "normalized": n} for w, n in setups],
    }
    return tally, metrics, notes, extras, True


def run_traced(cli, workload, seed: int, references: dict):
    import tracer  # imports meankit, so only after import_cli()

    ops = list(itertools.islice(workload.stream(seed, references), workload.trace_ops))
    capture = Capture()
    plain = [capture.call(cli.main, op.argv) for op in ops]
    first = tracer.Tracer()
    with first.installed():
        main = first.main()
        traced = [capture.call(main, op.argv) for op in ops]
    second = tracer.Tracer()
    with second.installed():
        main = second.main()
        for op in ops:
            capture.call(main, op.argv)
    tally = Tally()
    for op, outcome in zip(ops, plain):
        tally.check(op, outcome)
    identical = all((p.code, p.out) == (t.code, t.out) for p, t in zip(plain, traced))
    counters = first.counters()
    repeatable = counters == second.counters()
    overhead = sum(t.end - t.start for t in traced) - sum(p.end - p.start for p in plain)
    metrics = tracer.layer_metrics(counters, first.self_seconds(), overhead)
    notes = [
        f"traced ops {len(ops)}; traced output byte-identical to untraced: {identical}; "
        f"counters equal across two traced passes: {repeatable}",
        f"  {'failed_share':<40} {tally.failed / tally.attempted!r} ratio ({tally.failed} of {tally.attempted} ops)",
    ]
    extras = {"counters": counters, "spans": first.spans_doc()}
    return tally, metrics, notes, extras, identical and repeatable


def write_record(name: str, document: dict) -> None:
    try:
        OUT.mkdir(exist_ok=True)
        with (OUT / name).open("w", encoding="utf-8") as fh:
            json.dump(document, fh)
    except OSError as exc:
        print(f"warning: could not write {OUT / name}: {exc}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]
    try:
        cli = import_cli()
        references = workloads.load_references()
        if args.trace:
            tally, metrics, notes, extras, invariants = run_traced(cli, workload, args.seed, references)
        else:
            tally, metrics, notes, extras, invariants = run_untraced(
                cli, workload, args.seed, args.seconds, references
            )
        defect_lines, defects = probe_known_defects(cli)
    except (BenchmarkError, OSError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<40} {value!r} {unit}")
    for line in notes + tally.lines() + defect_lines:
        print(line)
    result = {
        "correct": invariants and tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    write_record(
        f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json",
        {"workload": args.workload, "seed": args.seed, "trace": args.trace, "result": result,
         "notes": notes, "failures": tally.failures, "known_defects": defects, **extras},
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
