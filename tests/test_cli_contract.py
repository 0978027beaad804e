"""Exit-code contract of the CLI over a seeded argv grammar.

Every call exits 0, 1, 2 or 3 without a traceback.  On exit 2 the last
stderr line is ``Error: <message>`` (a flag, config file or flag combination)
or ``error: <message>`` (a library argument check); on exit 3 it is
``error: <MeanKitError subclass>: <message>``.

``corpus`` draws commands with valid and invalid values: negative, inf and
nan numbers, bad weights and domains, unknown, abbreviated, repeated and
valueless options, stray ``--help`` and ``--`` tokens and bad ``--config``
files.  Suites run with at most 3 samples on small grids, so a few hundred
calls take well under a second.
"""

import contextlib
import io
import json
import random
import re

from meankit import errors
from meankit.cli import main

SEED = 31
CALLS = 300

EXPONENTS = ("2", "1", "0", "-1", "0.5", "3", "inf", "-inf")
ENTRIES = ("1", "2", "4", "0.5", "3.25", "7", "1e-3", "-1", "0", "inf", "nan", "1e308", "-1e308", "1e-308")
WEIGHTS = ("1", "2", "0.5", "3", "1", "0", "-1", "nan", "inf")
GENERATORS = (
    "power:2", "power:0", "power:-1", "power:0.5", "log", "exp", "cosh", "shifted_power:0.5,1",
    "expr:x^2", "expr:log(x)", "expr:1/x", "expr:x*x", "expr:exp(x)", "expr:sqrt(x-1)",
)
KERNELS = (
    "sign_dev", "diff_gen:log", "diff_gen:power:2", "diff_gen:power:-1", "ratio_dev:log", "ratio_dev:power:0.5",
    "expr:x-y", "expr:sign(x-y)", "expr:log(x)-log(y)", "expr:x^2-y^2", "log", "power:2", "diff_gen:cosh",
)
DOMAINS = ("0,inf", "0.5,20", "-inf,inf", "0,10", "-4,4")
KINDS = ("power", "qa", "semidev", "deviation")
SEMIDEV_KINDS = ("lower-weak", "lower-strict", "upper-strict", "upper-weak")
#: Values no option accepts, or that only some accept.
BAD = ("x", "", "-1", "0", "nan", "inf", "-inf", "1e308", "a,b", "5,1", "1", "-4,4", "1,", "power:a", "expr:(",
       "shifted_power:1", "bogus", "--kind", "--")
#: Options of other commands, misspelt or unknown ones.
STRAYS = (("--bogus", "1"), ("--bogus", None), ("--kin", "power"), ("--sample", "2"), ("--ratio", "2"),
          ("--suite", "tei"), ("--no-monotone", None), ("--config", "x.json"), ("-x", "1"), ("extra", None),
          ("--", None))
CONFIGS = (
    {"samples": 2},
    {"seed": 3, "format": "structured"},
    {"entry-range": "0.5,4", "n_range": "1,3"},
    {"monotone": False},
    {"monotone": "no"},
    {"suite": "cei", "kernel": "power:2"},
    {"domain": "0.5,20", "grid": 3},
    {"grid": 1},
    {"samples": 0},
    {"samples": 2.5},
    {"n_range": "0,2"},
    {"domain": "1"},
    {"entry_range": [0.5, 8]},
    {"seed": None},
    {"bogus": 1},
    {"config": "x.json"},
    {"help": True},
    {"n-range": "1,2", "n_range": "2,3"},
    {"monotone": "maybe"},
    [1, 2],
    "{not json",
)


def _vector(rng, items, n):
    return ",".join(rng.choice(items) if rng.random() < 0.1 else rng.choice(items[:5]) for _ in range(n))


def _sample(rng):
    n = rng.randint(1, 4)
    m = n if rng.random() < 0.9 else rng.randint(1, 4)
    return [("--x", _vector(rng, ENTRIES, n)), ("--w", _vector(rng, WEIGHTS, m))]


def _maybe(rng, share, *options):
    return [option for option in options if rng.random() < share]


def _mean_options(rng, kind, flag):
    """The options that ``--kind`` (compute) or ``--mean`` (homogenize) ``kind`` reads."""
    options = [(flag, kind)]
    if kind == "power":
        options.append(("--p", rng.choice(EXPONENTS)))
    elif kind == "qa":
        options.append(("--generator", rng.choice(GENERATORS)))
    else:
        options.append(("--kernel", rng.choice(KERNELS)))
    if kind == "semidev" and rng.random() < 0.5:
        options.append(("--semidev-kind", rng.choice(SEMIDEV_KINDS)))
    return options


def _compute(rng):
    return ["compute", "mean"], [
        *_mean_options(rng, rng.choice(KINDS), "--kind"),
        *_sample(rng),
        *_maybe(rng, 0.2, ("--domain", rng.choice(DOMAINS))),
        *_maybe(rng, 0.1, ("--grid", rng.choice(("2", "16", "64"))), ("--refine-tol", "1e-9")),
        *_maybe(rng, 0.4, ("--format", "structured")),
    ]


def _homogenize(rng):
    target = rng.choice(("qa", "mean", "kernel"))
    options = [("--target", target)]
    if target == "qa":
        options.append(("--generator", rng.choice(GENERATORS)))
    elif target == "kernel":
        options += [("--kernel", rng.choice(KERNELS)), ("--ratio", rng.choice(("2", "0.5", "3", "1")))]
    else:
        options += [*_mean_options(rng, rng.choice(KINDS), "--mean"), *_sample(rng)]
        options += _maybe(rng, 0.5, ("--method", "envelope"))
    options += _maybe(rng, 0.2, ("--domain", rng.choice(DOMAINS)), ("--tol", "1e-6"), ("--csv", "-"))
    return ["homogenize"], options + _maybe(rng, 0.4, ("--format", "structured"))


def _verify(rng, configs):
    suite = rng.choice(("sandwich", "lemma-lim", "comparison", "jensen", "tei", "cei", "minkowski", "hoelder", "homi"))
    # Sizes stay small: every call names --samples and --grid.
    options = [("--suite", suite), ("--samples", rng.choice("123")), ("--grid", rng.choice("23"))]
    if suite in ("minkowski", "hoelder"):
        options += _maybe(rng, 0.7, ("--kernel", rng.choice(GENERATORS)))
    elif suite == "homi":
        options += [(flag, rng.choice(KERNELS[1:])) for flag in ("--kernel", "--kernel2", "--kernel3")]
        options += [("--op", rng.choice(("x+y", "expr:x*y"))), ("--domain", "0,inf"), ("--entry-range", "0.5,4")]
        options += _maybe(rng, 0.3, ("--no-monotone", None))
    else:
        options.append(("--kernel", rng.choice(KERNELS)))
        if suite == "comparison":
            options.append(("--kernel2", rng.choice(KERNELS)))
        if suite == "lemma-lim":
            options.append(("--x", rng.choice(("1,2", "0.5,3"))))
    options += _maybe(
        rng, 0.15, ("--seed", rng.choice(("1", "7", "-3"))), ("--n-range", "1,3"), ("--entry-range", "0.5,8"),
        ("--weight-range", "0.5,2"), ("--domain", rng.choice(DOMAINS)), ("--monotone", None),
        ("--config", rng.choice(configs[1:8])),
    )
    return ["verify"], options + _maybe(rng, 0.4, ("--format", "structured"))


def _mutate(rng, path, options, configs):
    """One change that may make the call invalid; returns tokens to append."""
    roll = rng.randrange(8)
    at = rng.randrange(len(options))
    if roll == 0 and options[at][1] is not None:
        options[at] = (options[at][0], rng.choice(BAD))
    elif roll == 1:
        del options[at]
    elif roll == 2:
        options.insert(at, rng.choice(STRAYS))
    elif roll == 3 and options[at][1] is not None:  # repeated, the first value bad
        options.insert(at, (options[at][0], rng.choice(BAD)))
    elif roll == 4:  # a value option as the last token, without its value
        return [rng.choice([flag for flag, value in options if value is not None] or ["--x"])]
    elif roll == 5:
        options.insert(at, ("--help", None))
    elif roll == 6 and path == ["verify"]:
        options.insert(at, ("--config", rng.choice(configs)))
    elif roll == 7:  # an option given twice, both values good
        options.append(options[at])
    return []


def _call(rng, configs):
    roll = rng.random()
    if roll < 0.03:
        return list(rng.choice(([], ["compute"], ["--help"], ["compute", "--help"], ["bogus"], ["compute", "x"],
                                ["--bogus"], ["catalog"], ["catalog", "--help"], ["catalog", "extra"])))
    path, options = _compute(rng) if roll < 0.4 else _homogenize(rng) if roll < 0.7 else _verify(rng, configs)
    tail = []
    for _ in range(rng.choice((0, 0, 1, 1, 2))):
        tail += _mutate(rng, path, options, configs)
    rng.shuffle(options)
    argv = path
    for flag, value in options:
        argv += [flag] if value is None else [f"{flag}={value}"] if rng.random() < 0.3 else [flag, value]
    return argv + tail


def corpus(seed, n, config_dir):
    """``n`` argv lists; the config files they name are written to ``config_dir``."""
    configs = [str(config_dir / "missing.json")]
    for i, config in enumerate(CONFIGS):
        path = config_dir / f"config{i}.json"
        path.write_text(config if isinstance(config, str) else json.dumps(config))
        configs.append(str(path))
    rng = random.Random(seed)
    return [_call(rng, configs) for _ in range(n)]


def run(argv):
    """(exit code, stdout, stderr) of one in-process call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


LIBRARY_ERROR = re.compile(r"error: (\w+): ")


def test_every_call_keeps_the_exit_code_contract(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # a mutated --csv value names a file to write
    codes = set()
    for argv in corpus(SEED, CALLS, tmp_path):
        code, _, err = run(argv)
        codes.add(code)
        last = err.rstrip("\n").rpartition("\n")[2]
        assert code in (0, 1, 2, 3), argv
        assert "Traceback" not in err, argv
        if code == 2:
            assert last.startswith(("Error: ", "error: ")), (argv, err)
        if code == 3:
            match = LIBRARY_ERROR.match(last)
            assert match, (argv, err)
            error_class = getattr(errors, match.group(1), None)
            assert isinstance(error_class, type) and issubclass(error_class, errors.MeanKitError), (argv, err)
    assert codes == {0, 1, 2, 3}  # the grammar reaches every exit code
