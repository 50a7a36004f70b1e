"""End-to-end CLI behavior: selectors, reports, determinism, exit codes."""

import json
import subprocess
import sys

import pytest

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
