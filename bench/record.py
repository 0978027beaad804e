"""Record references.json from the current program.

    python3 bench/record.py

Records, for every suite call the suite workloads can make, its exit code,
verdict and per-condition checked counts, and for every envelope call without
a closed form its (lower, upper) values.  Regenerate only together with a
stated argument that the new values are at least as accurate as the old ones
(see README.md); the benchmark compares against whatever is recorded here.
"""

from __future__ import annotations

import json

import run
import workloads as w


def main() -> None:
    cli = run.import_cli()
    capture = run.Capture()
    suites = {}
    for pairs, samples in ((w.SUITE_OPS, 1000), (w.SUITE_SCALE, 100)):
        for suite, kernel in pairs:
            for seed in w.SUITE_SEEDS:
                argv = w.suite_argv(suite, kernel, samples, seed)
                outcome = capture.call(cli.main, argv)
                report = json.loads(outcome.out)["report"]
                suites[w.key(argv)] = {
                    "exit": outcome.code,
                    "overall": report["overall"],
                    "checked": [[c["name"], c["checked"]] for c in report["conditions"]],
                }
                print(w.key(argv), outcome.code, report["overall"], flush=True)
    envelopes = {}
    for name in ("cosh", "exp"):
        g = w.GENERATORS[name]
        for spec in (g.spec, f"expr:{g.text}"):
            for xs, ws in w.ENVELOPE_POOL:
                argv = w.envelope_argv(spec, xs, ws)
                doc = json.loads(capture.call(cli.main, argv).out)
                envelopes[w.key(argv)] = {"lower": doc["lower"], "upper": doc["upper"]}
    with w.REFERENCES.open("w", encoding="utf-8") as fh:
        json.dump({"suites": suites, "envelopes": envelopes}, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
