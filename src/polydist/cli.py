"""Command-line driver: run verification engines and emit ND-JSON reports.

Usage examples:

    polydist verify formal-distribution --r 1 --n 2 --degree 6
    polydist verify inhomogeneous --n 3 --depth 6
    polydist verify --all --degree 6 --depth 6
    polydist measures pushforward --ell 3 --level 3 --n 2 --trials 100
    polydist measures congruence --q 16
    polydist numeric distribution --r 1 --n 2 --z 0.4,0.1
    polydist numeric --all

One JSON object per report is written to stdout (and to --out if given).
Exit status is 0 iff every report passes; invalid usage exits 2.  The
environment variable POLYDIST_MAX_DEGREE caps symbolic degrees.
"""

from __future__ import annotations

import argparse
import sys
from concurrent.futures import ProcessPoolExecutor
from math import gcd

from . import distrib, measures, polylog_num
from .words import parse_word

VERIFY_SELECTORS = (
    "formal-distribution",
    "bch-closed-form",
    "conversions",
    "inhomogeneous",
    "homogeneous",
    "eisenstein-specialization",
)
MEASURE_SELECTORS = ("pushforward", "congruence")
NUMERIC_SELECTORS = ("calibration", "distribution", "cross-oracle", "classical")


def _parse_z(text):
    if "," in text:
        re_part, im_part = text.split(",", 1)
        return complex(float(re_part), float(im_part))
    return complex(float(text), 0.0)


def _verify_tasks(args):
    degree = args.degree
    depth = args.depth
    tasks = []
    sel = "all" if args.all else args.selector

    if sel in ("formal-distribution", "all"):
        flavors_levels = (
            [(args.r, args.n, args.flavor)]
            if sel != "all"
            else [
                (1, 2, "til"),
                (1, 3, "til"),
                (2, 2, "til"),
                (1, 4, "til"),
                (1, 2, "std"),
                (1, 3, "std"),
            ]
        )
        for r, n, flavor in flavors_levels:
            d = degree if degree else (6 if flavor == "til" else 5)
            tasks.append(
                ("formal", dict(r=r, n=n, degree=d, flavor=flavor))
            )
    if sel in ("bch-closed-form", "all"):
        tasks.append(("bch", dict(degree=degree or 6, candidate=args.candidate)))
    if sel in ("conversions", "all"):
        tasks.append(("conversions", dict(depth=depth or 8)))
    if sel in ("inhomogeneous", "all"):
        ns = [args.n] if sel != "all" else [2, 3]
        for n in ns:
            tasks.append(("inhomogeneous", dict(n=n, depth=depth or 6)))
    if sel in ("homogeneous", "all"):
        ns = [args.n] if sel != "all" else [2, 3]
        for n in ns:
            tasks.append(("homogeneous", dict(n=n, depth=depth or 6)))
    if sel in ("eisenstein-specialization", "all"):
        tasks.append(("eisenstein", dict(k_max=args.k_max)))
    if sel == "all":
        tasks.extend(_measure_tasks(args, "all"))
        tasks.extend(_numeric_tasks(args, "all"))
    return tasks


def _measure_tasks(args, sel=None):
    sel = sel or ("all" if args.all else args.selector)
    tasks = []
    if sel in ("pushforward", "all"):
        combos = (
            [(args.ell, args.level, args.n)]
            if sel != "all"
            else [(3, 3, 2), (3, 2, 3), (2, 4, 2), (5, 2, 2)]
        )
        for ell, m, n in combos:
            tasks.append(
                (
                    "pushforward",
                    dict(
                        ell=ell,
                        m=m,
                        n=n,
                        trials=100 if args.trials is None else args.trials,
                        seed=args.seed,
                        depth=args.depth or 6,
                    ),
                )
            )
    if sel in ("congruence", "all"):
        qs = [args.q] if sel != "all" and args.q else [8, 9, 16, 27]
        for q in qs:
            cs = [args.c] if args.c else [c for c in range(1, 2 * q, 2) if gcd(c, 2 * q) == 1]
            for c in cs:
                tasks.append(("congruence", dict(q=q, c=c)))
    return tasks


def _numeric_tasks(args, sel=None):
    sel = sel or ("all" if args.all else args.selector)
    tasks = []
    if sel in ("calibration", "all"):
        tasks.append(("calibration", dict(k_max=args.depth or 5, tol=args.tol or 1e-10)))
    if sel in ("distribution", "all"):
        combos = (
            [(args.r, args.n, args.z)]
            if sel != "all"
            else [
                (1, 2, complex(0.5)),
                (1, 3, complex(-0.3)),
                (1, 2, complex(0.3, 0.2)),
                (2, 2, complex(0.45, 0.1)),
            ]
        )
        for r, n, z in combos:
            words = [parse_word(t) for t in args.word] if args.word else None
            tasks.append(
                (
                    "distribution",
                    dict(r=r, n=n, z=z, words=words, tol=args.tol or 1e-10),
                )
            )
    if sel in ("cross-oracle", "all"):
        tasks.append(
            (
                "cross-oracle",
                dict(trials=20 if args.trials is None else args.trials,
                     seed=args.seed, tol=args.tol or 1e-8),
            )
        )
    if sel in ("classical", "all"):
        tasks.append(("classical", dict(tol=args.tol or 1e-12)))
    return tasks


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


def _run_task(task):
    name, kwargs = task
    return _RUNNERS[name](**kwargs)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="polydist",
        description="verify polylogarithm distribution relations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, selectors):
        p.add_argument(
            "selector",
            nargs="?",
            choices=selectors,
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
        p.add_argument("--tol", type=float, default=None)
        p.add_argument("--q", type=int, default=None)
        p.add_argument("--c", type=int, default=None)
        p.add_argument("--k-max", type=int, default=3)
        p.add_argument("--flavor", choices=("std", "til"), default="til")
        p.add_argument("--candidate", default="both",
                       choices=("shift-denominator", "base-denominator", "both"))
        p.add_argument("--word", action="append", default=[],
                       help="word in text form, repeatable")
        p.add_argument("--out", default=None, help="also write ND-JSON here")
        p.add_argument("--jobs", type=int, default=1)

    common(sub.add_parser("verify", help="symbolic engines"), VERIFY_SELECTORS)
    common(sub.add_parser("measures", help="finite-level measures"), MEASURE_SELECTORS)
    common(sub.add_parser("numeric", help="numerical engines"), NUMERIC_SELECTORS)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if not args.all and not args.selector:
        parser.error("need a selector or --all")

    if args.command == "verify":
        tasks = _verify_tasks(args)
    elif args.command == "measures":
        tasks = _measure_tasks(args)
    else:
        tasks = _numeric_tasks(args)
    if not tasks:
        parser.error("selection produced no tasks")

    try:
        if args.jobs and args.jobs > 1:
            with ProcessPoolExecutor(max_workers=args.jobs) as pool:
                reports = list(pool.map(_run_task, tasks))
        else:
            reports = [_run_task(t) for t in tasks]
    except (distrib.DegreeCapError, ValueError) as exc:
        parser.error(str(exc))

    lines = [r.to_json_line() for r in reports]
    for line in lines:
        print(line)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write("\n".join(lines) + "\n")
    return 0 if all(r.ok for r in reports) else 1


if __name__ == "__main__":
    sys.exit(main())
