"""Command-line driver: run verification engines and emit ND-JSON reports.

Usage examples:

    polydist verify formal-distribution --r 1 --n 2 --degree 6
    polydist verify inhomogeneous --n 3 --depth 6
    polydist verify --all --degree 6 --depth 6
    polydist measures pushforward --ell 3 --level 3 --n 2 --trials 100
    polydist measures congruence --q 16
    polydist numeric distribution --r 1 --n 2 --z 0.4,0.1
    polydist numeric --all
    polydist verify --all --profile verify.prof

One JSON object per report is written to stdout (and to --out if given).
``--profile FILE`` also writes ``cProfile`` statistics of the run to FILE,
which ``pstats.Stats(FILE)`` loads; only a serial run can be profiled.
Exit status is 0 iff every report passes and 1 if a check fails.  Invalid
usage exits 2 with no report: that includes --word together with --all,
--profile together with --jobs above 1, a --tol not above 0 or not finite,
a --jobs below 1, a parameter an engine refuses (``ParameterError``: a
degree, depth, --k-max or --trials below 1, since a flag given as 0 is
passed on, not replaced by its default, a level --r or --n below 1 for
formal-distribution and numeric distribution, a --level not above
v_ell(--n) for measures pushforward, where the modulus is 1 and every
congruence holds, and for numeric distribution a --z outside 0 < |z| < 1
or a --word the evaluators refuse), a degree above the cap that the
environment variable POLYDIST_MAX_DEGREE sets, which binds
eisenstein-specialization at depth 2·--k-max, a POLYDIST_MAX_DEGREE that
is not an integer >= 1, and a task list with a numeric engine (``numeric``,
or ``verify --all``) when numpy is not installed.  ``--jobs N`` runs the
tasks in min(N, number of tasks) worker processes.  An engine that raises any
other exception gets, in place of its report, a line
``{"statement", "params", "status": "error", "error": {"type", "message"}}``
with the task's name as ``statement``; the other reports are kept, and the
run exits 3.
"""

from __future__ import annotations

import argparse
import sys
from importlib.util import find_spec
from math import gcd, isfinite

from . import distrib, measures, polylog_num
from .report import ErrorReport, ParameterError
from .words import WordError, parse_word


def _parse_z(text):
    if "," in text:
        re_part, im_part = text.split(",", 1)
        return complex(float(re_part), float(im_part))
    return complex(float(text), 0.0)


def _positive(text):
    value = float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError(f"{text} is not above 0")
    if not isfinite(value):
        raise argparse.ArgumentTypeError(f"{text} is not finite")
    return value


def _at_least_one(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"{text} is below 1")
    return value


def _parse_word(text):
    try:
        return parse_word(text)
    except WordError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


_RUNNERS = {
    "formal": distrib.verify_formal_distribution,
    "bch": distrib.verify_bch_closed_form,
    "conversions": distrib.verify_conversions,
    "inhomogeneous": distrib.verify_inhomogeneous_pipeline,
    "homogeneous": distrib.verify_homogeneous_polylog,
    "eisenstein": distrib.derive_eisenstein_specialization,
    "pushforward": measures.verify_measure_pushforward,
    "congruence": measures.bernoulli_congruence_check,
    "calibration": polylog_num.verify_numeric_calibration,
    "distribution": polylog_num.verify_numeric_distribution,
    "cross-oracle": polylog_num.verify_numeric_cross_oracle,
    "classical": polylog_num.verify_numeric_classical,
}

# selector -> (command, runner, the row it runs alone, read from the point
# flags; None runs every --all row of the runner)
_SELECTORS = {
    "formal-distribution": (
        "verify", "formal", lambda a: (a.r, a.n, a.flavor, 6 if a.flavor == "til" else 5)
    ),
    "bch-closed-form": ("verify", "bch", lambda a: (6,)),
    "conversions": ("verify", "conversions", lambda a: (8,)),
    "inhomogeneous": ("verify", "inhomogeneous", lambda a: (a.n, 6)),
    "homogeneous": ("verify", "homogeneous", lambda a: (a.n, 6)),
    "eisenstein-specialization": ("verify", "eisenstein", lambda a: ()),
    "pushforward": ("measures", "pushforward", lambda a: (a.ell, a.level, a.n)),
    "congruence": ("measures", "congruence", lambda a: None if a.q is None else (a.q,)),
    "calibration": ("numeric", "calibration", lambda a: ()),
    "distribution": ("numeric", "distribution", lambda a: (a.r, a.n, a.z)),
    "cross-oracle": ("numeric", "cross-oracle", lambda a: ()),
    "classical": ("numeric", "classical", lambda a: ()),
}
_COMMAND = {runner: command for command, runner, _ in _SELECTORS.values()}


def _or(flag, default):
    """A flag's value, or the default if it was not given (0 is given)."""
    return default if flag is None else flag


# runner -> (args, *row) -> kwargs dicts, keys in the order reports print
# them; --degree/--depth replace each row's own degree or depth
_KWARGS = {
    "formal": lambda a, r, n, flavor, d: [
        dict(r=r, n=n, degree=_or(a.degree, d), flavor=flavor)
    ],
    "bch": lambda a, d: [dict(degree=_or(a.degree, d), candidate=a.candidate)],
    "conversions": lambda a, d: [dict(depth=_or(a.depth, d))],
    "inhomogeneous": lambda a, n, d: [dict(n=n, depth=_or(a.depth, d))],
    "homogeneous": lambda a, n, d: [dict(n=n, depth=_or(a.depth, d))],
    "eisenstein": lambda a: [dict(k_max=a.k_max)],
    "pushforward": lambda a, ell, m, n: [dict(
        ell=ell, m=m, n=n, trials=_or(a.trials, 100), seed=a.seed, depth=_or(a.depth, 6)
    )],
    "congruence": lambda a, q: [dict(q=q, c=c) for c in (
        [c for c in range(1, 2 * q, 2) if gcd(c, 2 * q) == 1] if a.c is None else [a.c]
    )],
    "calibration": lambda a: [dict(k_max=_or(a.depth, 5), tol=_or(a.tol, 1e-10))],
    "distribution": lambda a, r, n, z: [
        dict(r=r, n=n, z=z, words=a.word or None, tol=_or(a.tol, 1e-10))
    ],
    "cross-oracle": lambda a: [
        dict(trials=_or(a.trials, 20), seed=a.seed, tol=_or(a.tol, 1e-8))
    ],
    "classical": lambda a: [dict(tol=_or(a.tol, 1e-12))],
}

# the --all rows, (runner, *row), in report order: ``verify --all`` runs
# every row and the other commands their own.  Reach rows go at the end,
# so every earlier report keeps its place.
_MATRIX = [
    ("formal", 1, 2, "til", 6),
    ("formal", 1, 3, "til", 6),
    ("formal", 2, 2, "til", 6),
    ("formal", 1, 4, "til", 6),
    ("formal", 1, 2, "std", 5),
    ("formal", 1, 3, "std", 5),
    ("formal", 1, 4, "til", 7),
    ("formal", 1, 3, "std", 6),
    ("bch", 6),
    ("bch", 8),
    ("conversions", 8),
    *[(family, n, d) for family in ("inhomogeneous", "homogeneous")
      for n, d in ((2, 6), (3, 6), (2, 8), (3, 8))],
    ("eisenstein",),
    *[("pushforward", *row) for row in ((3, 3, 2), (3, 2, 3), (2, 4, 2), (5, 2, 2))],
    *[("congruence", q) for q in (8, 9, 16, 27)],
    ("calibration",),
    ("distribution", 1, 2, complex(0.5)),
    ("distribution", 1, 3, complex(-0.3)),
    ("distribution", 1, 2, complex(0.3, 0.2)),
    ("distribution", 2, 2, complex(0.45, 0.1)),
    ("cross-oracle",),
    ("classical",),
    ("bch", 9),
    ("bch", 10),
    ("inhomogeneous", 4, 6),
    ("inhomogeneous", 2, 10),
]


def _tasks(command, args):
    """The (runner, kwargs) tasks of ``polydist <command>``, in report order;
    a task that --degree/--depth makes equal to an earlier one runs once."""
    if args.all:
        rows = [row for row in _MATRIX if command in ("verify", _COMMAND[row[0]])]
    else:
        _, runner, alone = _SELECTORS[args.selector]
        point = alone(args)
        rows = [(runner, *point)] if point is not None else [
            row for row in _MATRIX if row[0] == runner
        ]
    tasks = []
    for name, *row in rows:
        for kwargs in _KWARGS[name](args, *row):
            if (name, kwargs) not in tasks:
                tasks.append((name, kwargs))
    return tasks


def _verify_tasks(args):
    return _tasks("verify", args)


def _measure_tasks(args):
    return _tasks("measures", args)


def _numeric_tasks(args):
    return _tasks("numeric", args)


def _run_task(task):
    name, kwargs = task
    return _RUNNERS[name](**kwargs)


def _run_or_error(task):
    """``_run_task``, with an engine exception turned into an ErrorReport;
    a ParameterError, a usage error, still propagates."""
    try:
        return _run_task(task)
    except ParameterError:
        raise
    except Exception as exc:
        return ErrorReport(task[0], task[1], type(exc).__name__, str(exc))


def build_parser():
    parser = argparse.ArgumentParser(
        prog="polydist",
        description="verify polylogarithm distribution relations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for command, text in (
        ("verify", "symbolic engines"),
        ("measures", "finite-level measures"),
        ("numeric", "numerical engines"),
    ):
        p = sub.add_parser(command, help=text)
        p.add_argument(
            "selector",
            nargs="?",
            choices=[s for s, (c, _, _) in _SELECTORS.items() if c == command],
            help="which statement family to verify",
        )
        p.add_argument("--all", action="store_true", help="run the full suite")
        p.add_argument("-D", "--degree", type=int, default=None)
        p.add_argument("-K", "--depth", type=int, default=None)
        p.add_argument("--r", type=int, default=1)
        p.add_argument("--n", type=int, default=2)
        p.add_argument("--ell", type=int, default=3)
        p.add_argument("--level", type=int, default=3, help="measure level m")
        p.add_argument("--trials", type=int, default=None,
                       help="random trials (default: 100 pushforward, 20 cross-oracle)")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--z", type=_parse_z, default=complex(0.5))
        p.add_argument("--tol", type=_positive, default=None)
        p.add_argument("--q", type=int, default=None)
        p.add_argument("--c", type=int, default=None)
        p.add_argument("--k-max", type=int, default=3)
        p.add_argument("--flavor", choices=("std", "til"), default="til")
        p.add_argument("--candidate", default="both",
                       choices=("shift-denominator", "base-denominator", "both"))
        p.add_argument("--word", action="append", default=[], type=_parse_word,
                       help="word in text form, repeatable")
        p.add_argument("--out", default=None, help="also write ND-JSON here")
        p.add_argument("--jobs", type=_at_least_one, default=1)
        p.add_argument("--profile", default=None, metavar="FILE",
                       help="write cProfile stats of the serial run to FILE")
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if not args.all and not args.selector:
        parser.error("need a selector or --all")
    if args.all and args.word:
        # the --all matrix mixes levels, so no one word fits all its tasks
        parser.error("--word cannot be combined with --all; name a selector")
    if args.profile and args.jobs > 1:
        # the workers' time would escape a profiler in this process
        parser.error("--profile cannot be combined with --jobs above 1")

    tasks = _tasks(args.command, args)
    if not tasks:
        parser.error("selection produced no tasks")
    if any(_COMMAND[name] == "numeric" for name, _ in tasks) and not find_spec("numpy"):
        # found without importing it, so exact-engine runs never load numpy
        parser.error("the numeric engines need numpy, which is not installed")

    try:
        if args.jobs > 1:
            from concurrent.futures import ProcessPoolExecutor

            # the pool starts all its workers at once: no more than tasks
            with ProcessPoolExecutor(max_workers=min(args.jobs, len(tasks))) as pool:
                reports = list(pool.map(_run_or_error, tasks))
        elif args.profile:
            import cProfile

            profiler = cProfile.Profile()
            reports = profiler.runcall(list, map(_run_or_error, tasks))
            profiler.dump_stats(args.profile)
        else:
            reports = [_run_or_error(t) for t in tasks]
    except ParameterError as exc:
        parser.error(str(exc))

    lines = [r.to_json_line() for r in reports]
    for line in lines:
        print(line)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write("\n".join(lines) + "\n")
    if any(isinstance(r, ErrorReport) for r in reports):
        return 3
    return 0 if all(r.ok for r in reports) else 1


if __name__ == "__main__":
    sys.exit(main())
