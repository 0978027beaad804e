"""Set-up probe, run in a fresh interpreter by ``run.py``.

Imports ``meankit.cli``, resolves the workload's generator and kernel specs
and builds its first op, then prints ``ready``.  The parent times the
interval from spawning this process to reading that line.  Afterwards it
prints speed-probe durations, so the parent can normalize that interval.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import meankit.cli as cli  # noqa: E402

import speed  # noqa: E402
import workloads  # noqa: E402


def main() -> None:
    workload = workloads.WORKLOADS[sys.argv[1]]
    resolvers = {"generator": cli.resolve_generator, "kernel": cli.resolve_kernel}
    for resolver, spec in workload.specs:
        resolvers[resolver](spec)
    next(workload.stream(int(sys.argv[2]), workloads.load_references()))
    print("ready", flush=True)
    print(" ".join(repr(speed.probe()) for _ in range(20)), flush=True)


if __name__ == "__main__":
    main()
