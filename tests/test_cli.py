"""End-to-end CLI behavior: selectors, reports, determinism, exit codes."""

import concurrent.futures
import json
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from itertools import combinations
from math import gcd
from pathlib import Path

import pytest

from polydist import cli, distrib
from polydist.ncseries import SeriesError
from polydist.report import ParameterError

BASE = [sys.executable, "-m", "polydist.cli"]


def run_cli(*args, env_extra=None):
    import os

    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        BASE + list(args), capture_output=True, text=True, env=env
    )


def reports_of(proc):
    return [json.loads(line) for line in proc.stdout.splitlines() if line.strip()]


def scrubbed(reports):
    return [{k: v for k, v in r.items() if k != "ms"} for r in reports]


# ``verify --all`` reports without ``ms``, recorded before the formal engine
# moved to the word-by-word route; every later change must reproduce them.
# The formal (1,4,til,7) and (1,3,std,6) reports, lines 7 and 8, were added
# with the prefix-shared word images; bch-closed-form at degree 8 (line 10),
# inhomogeneous and homogeneous n = 2, 3 at depth 8 (lines 14-15 and 18-19)
# with the quotient products that skip pairs landing in the ideal;
# bch-closed-form at degree 9 (line 80) with the integer accumulation of
# polynomial products; bch-closed-form at degree 10 and inhomogeneous n = 4
# at depth 6 and n = 2 at depth 10 (lines 81-83, the last tasks of the
# matrix) with polynomials stored as integer numerators over one denominator.
GOLDEN_VERIFY_ALL = [
    json.loads(line)
    for line in (Path(__file__).parent / "data" / "verify_all.jsonl")
    .read_text()
    .splitlines()
]
# numeric reports carry float residuals that depend on the platform's libm
NUMERIC_KEYS = ("statement", "params", "status", "checks", "failures")


def _golden_view(report):
    if report["statement"].startswith("numeric-"):
        return {k: report[k] for k in NUMERIC_KEYS}
    return report


def test_single_selector_passes():
    proc = run_cli("verify", "conversions", "--depth", "5")
    assert proc.returncode == 0
    reports = reports_of(proc)
    assert len(reports) == 1
    assert reports[0]["statement"] == "conversions"
    assert reports[0]["status"] == "pass"
    assert reports[0]["failures"] == []


def test_unknown_selector_exits_2():
    proc = run_cli("verify", "definitely-not-a-thing")
    assert proc.returncode == 2
    assert "invalid choice" in proc.stderr


def test_missing_selector_exits_2():
    proc = run_cli("verify")
    assert proc.returncode == 2


def test_degree_cap_violation_exits_2():
    proc = run_cli(
        "verify",
        "formal-distribution",
        "--degree", "6",
        env_extra={"POLYDIST_MAX_DEGREE": "4"},
    )
    assert proc.returncode == 2
    assert "POLYDIST_MAX_DEGREE" in proc.stderr or "degree" in proc.stderr.lower()


@pytest.mark.parametrize("cap", ["abc", "0", "-3", "2.5", ""])
def test_a_malformed_degree_cap_is_a_usage_error(capsys, monkeypatch, cap):
    # read by each engine as it starts: once refused, no report is printed
    monkeypatch.setenv("POLYDIST_MAX_DEGREE", cap)
    code, out = _main(capsys, "verify", "--all")
    assert code == 2
    assert out.out == ""
    assert f"POLYDIST_MAX_DEGREE={cap!r} is not an integer >= 1" in out.err


def test_seeded_reports_are_deterministic():
    args = ("measures", "pushforward", "--ell", "3", "--level", "2",
            "--n", "2", "--trials", "12", "--seed", "9")
    a = scrubbed(reports_of(run_cli(*args)))
    b = scrubbed(reports_of(run_cli(*args)))
    assert a == b


def test_numeric_distribution_subcommand():
    proc = run_cli("numeric", "distribution", "--n", "2", "--z", "0.5,0",
                   "--tol", "1e-10")
    assert proc.returncode == 0
    (rep,) = reports_of(proc)
    assert rep["status"] == "pass"
    assert rep["params"]["n"] == 2


def test_out_file_and_word_flag(tmp_path):
    out = tmp_path / "report.ndjson"
    proc = run_cli(
        "numeric", "distribution", "--r", "1", "--n", "2", "--z", "0.4,0.1",
        "--word", "n=1,std:Y0.X", "--word", "n=1,std:Y0.X.X",
        "--out", str(out),
    )
    assert proc.returncode == 0
    on_disk = [json.loads(l) for l in out.read_text().splitlines()]
    assert scrubbed(on_disk) == scrubbed(reports_of(proc))


def test_unparsable_word_exits_2():
    proc = run_cli("numeric", "distribution", "--word", "garbage")
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "bad word header 'garbage'" in proc.stderr


@pytest.mark.parametrize(
    "word", ["n=1,std", "n=1,std:Y+0", "n=1,std:Y00", "n=+1,std:Y0"]
)
def test_word_that_does_not_render_back_exits_2(capsys, word):
    code, out = _main(capsys, "numeric", "distribution", "--word", word)
    assert code == 2
    assert out.out == ""
    assert f"cannot parse word {word!r}" in out.err
    assert "empty word" not in out.err


def test_an_unknown_flavor_is_refused_before_any_work(monkeypatch):
    monkeypatch.setattr(distrib, "pi_morphism", None)
    task = ("formal", dict(r=1, n=2, degree=3, flavor="xyz"))
    with pytest.raises(ParameterError, match="flavor must be one of"):
        cli._run_or_error(task)


def _fresh_python(code, *args):
    """The whitespace-separated words ``code`` prints in a new interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", code, *args], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def test_import_cli_leaves_the_process_pool_unloaded():
    # concurrent.futures.process is imported only for --jobs above 1
    code = "import sys, polydist.cli; print('concurrent.futures.process' in sys.modules)"
    assert _fresh_python(code) == ["False"]


# one small task of every exact engine, symbolic and measure
_EXACT_TASKS = [
    ("formal", dict(r=1, n=2, degree=4, flavor="til")),
    ("bch", dict(degree=4, candidate="both")),
    ("conversions", dict(depth=4)),
    ("inhomogeneous", dict(n=2, depth=4)),
    ("homogeneous", dict(n=2, depth=4)),
    ("eisenstein", dict(k_max=3)),
    ("pushforward", dict(ell=3, m=2, n=2, trials=5, seed=0, depth=3)),
    ("congruence", dict(q=8, c=3)),
]


def test_exact_engines_run_with_numpy_blocked():
    # a None entry in sys.modules makes every import of numpy raise
    code = (
        "import json, sys\n"
        "sys.modules['numpy'] = None\n"
        "import polydist, polydist.cli as cli\n"
        "for task in json.loads(sys.argv[1]):\n"
        "    print(cli._run_task(task).status)\n"
    )
    assert sorted({r for r, _ in _EXACT_TASKS}) == sorted(
        r for r, fn in cli._RUNNERS.items() if fn.__module__ != "polydist.polylog_num"
    )
    statuses = _fresh_python(code, json.dumps(_EXACT_TASKS))
    assert statuses == ["pass"] * len(_EXACT_TASKS)


def test_import_cli_and_a_formal_task_leave_numpy_unloaded():
    code = (
        "import json, sys, polydist.cli as cli\n"
        "print(cli._run_task(json.loads(sys.argv[1])).status)\n"
        "print('numpy' in sys.modules)\n"
    )
    assert _fresh_python(code, json.dumps(_EXACT_TASKS[0])) == ["pass", "False"]


def test_npleg_is_numpys_legendre_module_bound_on_first_access():
    # the benchmark tracer finds the Legendre kernels through this attribute
    code = (
        "import polydist.polylog_num as pn\n"
        "print('npleg' in vars(pn))\n"
        "import numpy.polynomial.legendre as legendre\n"
        "print(pn.npleg is legendre, vars(pn).get('npleg') is legendre)\n"
        "try:\n"
        "    pn.no_such_attribute\n"
        "except AttributeError:\n"
        "    print('AttributeError')\n"
    )
    assert _fresh_python(code) == ["False", "True", "True", "AttributeError"]


def test_word_at_wrong_level_exits_2():
    proc = run_cli("numeric", "distribution", "--r", "1", "--n", "2",
                   "--word", "n=5,std:Y0")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "not at level r = 1" in proc.stderr


@pytest.mark.parametrize("command", ["numeric", "verify"])
def test_word_with_all_exits_2(command):
    # the --all matrix mixes r = 1 and r = 2, so one word cannot serve it
    proc = run_cli(command, "--all", "--word", "n=1,std:Y0.X")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    message = proc.stderr.strip().splitlines()[-1]  # below the usage lines
    assert "--all" in message and "--word" in message


@pytest.mark.parametrize("command, selector", [
    ("verify", "conversions"), ("measures", "congruence"), ("numeric", "classical"),
])
def test_profile_writes_stats_of_the_serial_run(tmp_path, command, selector):
    import pstats

    path = tmp_path / "run.prof"
    plain = run_cli(command, selector)
    proc = run_cli(command, selector, "--profile", str(path))
    assert proc.returncode == 0
    assert scrubbed(reports_of(proc)) == scrubbed(reports_of(plain))
    functions = {name for _, _, name in pstats.Stats(str(path)).stats}
    assert "_run_or_error" in functions


@pytest.mark.parametrize("command", ["verify", "measures", "numeric"])
def test_profile_with_jobs_exits_2(tmp_path, command):
    path = tmp_path / "run.prof"
    proc = run_cli(command, "--all", "--jobs", "2", "--profile", str(path))
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert not path.exists()
    message = proc.stderr.strip().splitlines()[-1]  # below the usage lines
    assert "--profile" in message and "--jobs" in message


@pytest.mark.slow
def test_verify_all_matrix():
    proc = run_cli("verify", "--all", "--jobs", "4")
    assert proc.returncode == 0
    reports = reports_of(proc)
    assert len(reports) >= 10
    assert all(r["status"] == "pass" for r in reports)
    statements = {r["statement"] for r in reports}
    for s in ("formal-distribution", "bch-closed-form", "conversions",
              "inhomogeneous", "homogeneous", "eisenstein-specialization",
              "measure-pushforward", "bernoulli-congruence",
              "numeric-calibration", "numeric-distribution",
              "numeric-cross-oracle", "numeric-classical"):
        assert s in statements, s
    assert [_golden_view(r) for r in scrubbed(reports)] == [
        _golden_view(r) for r in GOLDEN_VERIFY_ALL
    ]


def test_trials_reach_each_engine_with_its_own_default():
    from polydist import cli

    parser = cli.build_parser()

    def tasks(*argv):
        args = parser.parse_args(argv)
        builder = {"verify": cli._verify_tasks, "measures": cli._measure_tasks,
                   "numeric": cli._numeric_tasks}[args.command]
        return [(name, kw["trials"]) for name, kw in builder(args) if "trials" in kw]

    assert tasks("numeric", "cross-oracle", "--trials", "100") == [("cross-oracle", 100)]
    assert tasks("numeric", "cross-oracle") == [("cross-oracle", 20)]
    assert tasks("measures", "pushforward", "--trials", "7") == [("pushforward", 7)]
    everything = tasks("verify", "--all")
    assert everything.count(("pushforward", 100)) == 4
    assert everything.count(("cross-oracle", 20)) == 1
    assert len(everything) == 5


def test_formal_matrix_entries_keep_their_own_degree():
    from polydist import cli

    parser = cli.build_parser()

    def formal(*argv):
        tasks = cli._verify_tasks(parser.parse_args(["verify", *argv]))
        return [(kw["r"], kw["n"], kw["flavor"], kw["degree"])
                for name, kw in tasks if name == "formal"]

    assert formal("--all") == [
        (1, 2, "til", 6), (1, 3, "til", 6), (2, 2, "til", 6), (1, 4, "til", 6),
        (1, 2, "std", 5), (1, 3, "std", 5), (1, 4, "til", 7), (1, 3, "std", 6),
    ]
    # one --degree for the whole matrix runs each (r, n, flavor) once
    assert formal("--all", "--degree", "4") == [
        (1, 2, "til", 4), (1, 3, "til", 4), (2, 2, "til", 4), (1, 4, "til", 4),
        (1, 2, "std", 4), (1, 3, "std", 4),
    ]
    assert formal("formal-distribution", "--flavor", "std", "--n", "3") == [
        (1, 3, "std", 5)
    ]


def test_lie_matrix_entries_keep_their_own_degree_or_depth():
    from polydist import cli

    parser = cli.build_parser()

    def lie(*argv):
        tasks = cli._verify_tasks(parser.parse_args(["verify", *argv]))
        return [(name, kw.get("n"), kw.get("degree", kw.get("depth")))
                for name, kw in tasks
                if name in ("bch", "conversions", "inhomogeneous", "homogeneous")]

    assert lie("--all") == [
        ("bch", None, 6), ("bch", None, 8), ("conversions", None, 8),
        ("inhomogeneous", 2, 6), ("inhomogeneous", 3, 6),
        ("inhomogeneous", 2, 8), ("inhomogeneous", 3, 8),
        ("homogeneous", 2, 6), ("homogeneous", 3, 6),
        ("homogeneous", 2, 8), ("homogeneous", 3, 8),
        ("bch", None, 9), ("bch", None, 10),
        ("inhomogeneous", 4, 6), ("inhomogeneous", 2, 10),
    ]
    # one --degree and one --depth for the whole matrix run each entry once
    assert lie("--all", "--degree", "5", "--depth", "4") == [
        ("bch", None, 5), ("conversions", None, 4),
        ("inhomogeneous", 2, 4), ("inhomogeneous", 3, 4),
        ("homogeneous", 2, 4), ("homogeneous", 3, 4),
        ("inhomogeneous", 4, 4),
    ]
    assert lie("bch-closed-form") == [("bch", None, 6)]
    assert lie("inhomogeneous", "--n", "3") == [("inhomogeneous", 3, 6)]


@pytest.mark.parametrize("jobs", [1, 2])
def test_engine_exception_is_an_error_line_and_keeps_the_other_reports(
    monkeypatch, capsys, jobs
):
    real = cli._RUNNERS["congruence"]

    def congruence(q, c):
        if c == 3:
            raise SeriesError("series live in different algebras")
        return real(q=q, c=c)

    monkeypatch.setitem(cli._RUNNERS, "congruence", congruence)
    # threads, so that the --jobs workers see the patched runner
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", ThreadPoolExecutor)
    code = cli.main(["measures", "congruence", "--q", "8", "--jobs", str(jobs)])
    assert code == 3
    lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [line["params"]["c"] for line in lines] == list(range(1, 16, 2))
    assert [line["status"] for line in lines] == ["pass", "error"] + ["pass"] * 6
    assert lines[1] == {
        "statement": "congruence",
        "params": {"q": 8, "c": 3},
        "status": "error",
        "error": {
            "type": "SeriesError",
            "message": "series live in different algebras",
        },
    }


def test_refused_engine_parameter_exits_2():
    proc = run_cli("verify", "inhomogeneous", "--n", "1", "--depth", "3")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "need n >= 2" in proc.stderr


@pytest.mark.parametrize(
    "args, message",
    [
        (("congruence", "--q", "6"), "q = 6 is not a prime power"),
        (("pushforward", "--ell", "4"), "ell = 4 is not a prime"),
    ],
)
def test_refused_measure_parameter_exits_2(args, message):
    proc = run_cli("measures", *args)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert message in proc.stderr


# The task builders as they were before the --all matrix became a table in
# ``cli``, kept verbatim as the oracle for the table's task lists.
def _verify_tasks(args):
    degree = args.degree
    depth = args.depth
    tasks = []
    sel = "all" if args.all else args.selector

    def add(name, **kwargs):
        task = (name, kwargs)
        if task not in tasks:  # --degree/--depth can map two entries to one task
            tasks.append(task)

    # each matrix entry carries its own degree or depth
    if sel in ("formal-distribution", "all"):
        combos = (
            [(args.r, args.n, args.flavor, 6 if args.flavor == "til" else 5)]
            if sel != "all"
            else [
                (1, 2, "til", 6),
                (1, 3, "til", 6),
                (2, 2, "til", 6),
                (1, 4, "til", 6),
                (1, 2, "std", 5),
                (1, 3, "std", 5),
                (1, 4, "til", 7),
                (1, 3, "std", 6),
            ]
        )
        for r, n, flavor, d in combos:
            add("formal", r=r, n=n, degree=degree or d, flavor=flavor)
    if sel in ("bch-closed-form", "all"):
        for d in [6] if sel != "all" else [6, 8]:
            add("bch", degree=degree or d, candidate=args.candidate)
    if sel in ("conversions", "all"):
        add("conversions", depth=depth or 8)
    for family in ("inhomogeneous", "homogeneous"):
        if sel in (family, "all"):
            combos = [(args.n, 6)] if sel != "all" else [(2, 6), (3, 6), (2, 8), (3, 8)]
            for n, d in combos:
                add(family, n=n, depth=depth or d)
    if sel in ("eisenstein-specialization", "all"):
        add("eisenstein", k_max=args.k_max)
    if sel == "all":
        tasks.extend(_measure_tasks(args, "all"))
        tasks.extend(_numeric_tasks(args, "all"))
        # entries added after the recorded matrix go last, so every
        # earlier report keeps its place in the output
        add("bch", degree=degree or 9, candidate=args.candidate)
        add("bch", degree=degree or 10, candidate=args.candidate)
        add("inhomogeneous", n=4, depth=depth or 6)
        add("inhomogeneous", n=2, depth=depth or 10)
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
            words = args.word or None
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


_ORACLE = {"verify": _verify_tasks, "measures": _measure_tasks,
           "numeric": _numeric_tasks}
_BASES = [[command, selector]
          for selector, (command, _, _) in cli._SELECTORS.items()] + [
    [command, "--all"] for command in _ORACLE
]
# 19 flag settings, each value at least 1; a flag given as 0 is refused
_SETTINGS = [
    ["--degree", "4"], ["--degree", "9"], ["--depth", "4"], ["--depth", "10"],
    ["--r", "2"], ["--n", "3"], ["--flavor", "std"], ["--ell", "5"],
    ["--level", "2"], ["--trials", "7"], ["--seed", "3"], ["--z", "0.3,0.2"],
    ["--tol", "1e-9"], ["--q", "9"], ["--q", "27"], ["--c", "5"],
    ["--k-max", "2"], ["--candidate", "base-denominator"],
    ["--word", "n=1,std:Y0.X"],
]


def _keyed(tasks):
    """Tasks with each kwargs dict as its list of items, so that comparing
    two task lists also compares their key order."""
    return [(name, list(kwargs.items())) for name, kwargs in tasks]


@pytest.mark.parametrize("base", _BASES, ids=" ".join)
def test_task_table_matches_the_builders_it_replaced(base):
    parser = cli.build_parser()
    builder = {"verify": cli._verify_tasks, "measures": cli._measure_tasks,
               "numeric": cli._numeric_tasks}[base[0]]
    # no flag, each setting alone and every pair of settings
    chosen = [()] + [(s,) for s in _SETTINGS] + list(combinations(_SETTINGS, 2))
    for settings in chosen:
        argv = base + [a for setting in settings for a in setting]
        args = parser.parse_args(argv)
        want = _keyed(_ORACLE[base[0]](args))
        assert _keyed(cli._tasks(base[0], args)) == want, argv
        assert _keyed(builder(args)) == want, argv


def _main(capsys, *argv):
    """Exit status and captured output of ``polydist argv``, run in this
    process."""
    try:
        code = cli.main(list(argv))
    except SystemExit as exc:
        code = exc.code
    return code, capsys.readouterr()


@pytest.mark.parametrize("selector", cli._SELECTORS)
def test_every_selector_alone_passes(capsys, selector):
    command = cli._SELECTORS[selector][0]
    code, out = _main(capsys, command, selector)
    reports = [json.loads(line) for line in out.out.splitlines()]
    assert code == 0
    assert reports and all(r["status"] == "pass" for r in reports)


def test_every_runner_has_a_selector_and_an_all_row():
    runners = [runner for _, runner, _ in cli._SELECTORS.values()]
    assert sorted(runners) == sorted(cli._RUNNERS)
    assert set(cli._KWARGS) == set(cli._RUNNERS)
    assert {row[0] for row in cli._MATRIX} == set(cli._RUNNERS)


@pytest.mark.parametrize(
    "argv, message",
    [
        (("verify", "bch-closed-form", "--degree", "0"), "degree must be >= 1"),
        (("verify", "formal-distribution", "--degree", "0"), "degree must be >= 1"),
        (("verify", "conversions", "--depth", "0"), "degree must be >= 1"),
        (("verify", "homogeneous", "--depth", "0"), "degree must be >= 1"),
        (("numeric", "calibration", "--depth", "0"), "k_max = 0 must be >= 1"),
        (("measures", "pushforward", "--depth", "0"), "depth = 0 must be >= 1"),
        (("measures", "congruence", "--q", "9", "--c", "0"), "c = 0 is not invertible"),
        (("measures", "congruence", "--q", "0"), "selection produced no tasks"),
    ],
)
def test_a_flag_given_as_0_is_refused_not_defaulted(capsys, argv, message):
    code, out = _main(capsys, *argv)
    assert code == 2
    assert out.out == ""
    assert message in out.err


@pytest.mark.parametrize("tol", ["0", "-1e-9", "nan", "inf"])
@pytest.mark.parametrize(
    "selector", ["calibration", "distribution", "cross-oracle", "classical"]
)
def test_a_tolerance_not_above_0_is_refused_at_parse_time(capsys, monkeypatch, tol,
                                                          selector):
    # tol 0 would reach li_classical's log of 0 and print an error line, and
    # tol inf an error line whose params are not JSON; with no task
    # builder, only a refusal while parsing exits 2
    monkeypatch.setattr(cli, "_tasks", None)
    code, out = _main(capsys, "numeric", selector, f"--tol={tol}")
    assert code == 2
    assert out.out == ""
    reason = "not finite" if tol == "inf" else "not above 0"
    assert f"{tol} is {reason}" in out.err


@pytest.mark.parametrize(
    "argv, message",
    [
        (("numeric", "cross-oracle", "--trials", "0"), "trials = 0 must be >= 1"),
        (("measures", "pushforward", "--trials", "0"), "trials = 0 must be >= 1"),
        (("verify", "eisenstein-specialization", "--k-max", "0"),
         "k_max = 0 must be >= 1"),
        (("measures", "pushforward", "--level", "0"), "m - v_ell(n) = 0 is below 1"),
        (("measures", "pushforward", "--ell", "3", "--n", "3", "--level", "1"),
         "m - v_ell(n) = 0 is below 1"),
        (("numeric", "distribution", "--z", "0"), "z = 0j must satisfy 0 < |z| < 1"),
        (("numeric", "distribution", "--z", "1.5"), "must satisfy 0 < |z| < 1"),
        (("numeric", "distribution", "--z", "0.6,0.8"), "must satisfy 0 < |z| < 1"),
        (("numeric", "distribution", "--word", "n=1,til:Y0"), "standard-flavor words"),
        (("numeric", "distribution", "--word", "n=1,std:"), "the empty word"),
        (("numeric", "distribution", "--word", "n=1,std:Y0", "--word", "n=1,std:X.Y0"),
         "starts with X"),
    ],
)
def test_a_vacuous_certificate_is_a_usage_error(capsys, argv, message):
    code, out = _main(capsys, *argv)
    assert code == 2
    assert out.out == ""
    assert message in out.err


@pytest.mark.parametrize(
    "argv, message",
    [
        (("verify", "formal-distribution", "--n", "0"), "got r = 1, n = 0"),
        (("verify", "formal-distribution", "--r", "0"), "got r = 0, n = 2"),
        (("numeric", "distribution", "--r", "0"), "got r = 0, n = 2"),
        (("numeric", "distribution", "--n", "0"), "got r = 1, n = 0"),
        (("numeric", "distribution", "--n", "-1"), "got r = 1, n = -1"),
    ],
)
def test_a_level_below_1_is_a_usage_error(capsys, argv, message):
    code, out = _main(capsys, *argv)
    assert code == 2
    assert out.out == ""
    assert f"levels must be >= 1, {message}" in out.err


def test_the_degree_cap_binds_eisenstein_at_twice_k_max(capsys, monkeypatch):
    monkeypatch.delenv("POLYDIST_MAX_DEGREE", raising=False)
    argv = ("verify", "eisenstein-specialization", "--k-max", "7")
    code, out = _main(capsys, *argv)
    assert code == 2
    assert out.out == ""
    assert "degree 14 exceeds POLYDIST_MAX_DEGREE=12" in out.err
    monkeypatch.setenv("POLYDIST_MAX_DEGREE", "14")
    code, out = _main(capsys, *argv)
    assert code == 0
    assert [json.loads(line)["status"] for line in out.out.splitlines()] == ["pass"]


@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_jobs_below_1_is_refused_at_parse_time(capsys, monkeypatch, jobs):
    monkeypatch.setattr(cli, "_tasks", None)
    code, out = _main(capsys, "verify", "conversions", f"--jobs={jobs}")
    assert code == 2
    assert out.out == ""
    assert f"{jobs} is below 1" in out.err


@pytest.mark.parametrize(
    "argv, tasks, workers",
    [
        (("verify", "conversions", "--depth", "2", "--jobs", "4"), 1, 1),
        (("measures", "congruence", "--q", "8", "--jobs", "3"), 8, 3),
        (("measures", "congruence", "--q", "8", "--jobs", "12"), 8, 8),
    ],
)
def test_jobs_starts_no_more_workers_than_tasks(capsys, monkeypatch, argv, tasks,
                                                workers):
    made = []

    class RecordingPool:
        """Records ``max_workers`` and maps in this process: no worker starts."""

        def __init__(self, max_workers):
            made.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    code, out = _main(capsys, *argv)
    assert code == 0
    assert made == [workers]
    assert len(out.out.splitlines()) == tasks
