"""Tests of the benchmark itself: tracing arithmetic, patching, the gate.

    python3 -m pytest perfbench/tests
"""

import json
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

import hostspeed
import reference
import run
import tracing
import workloads
from polydist import cli, distrib, lie, ncseries, polylog_num, scalars
from polydist.report import VerificationReport

ROOT = Path(__file__).resolve().parents[2]


class ScriptedClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def test_self_time_of_nested_spans():
    # outer [0, 10] holds a [2, 5] (which holds b [3, 4]) and c [6, 7].
    tracer = tracing.Tracer(clock=ScriptedClock([0, 2, 3, 4, 5, 6, 7, 10]))
    inner = tracer.wrap("b", lambda: None)
    with tracer.span("outer", record=True):
        with tracer.span("a"):
            inner()
        tracer.wrap("c", lambda: None)()

    assert tracer.get("outer") == (1, 6, 10, 0)
    assert tracer.get("a") == (1, 2, 3, 0)
    assert tracer.get("b") == (1, 1, 1, 0)
    assert tracer.get("c") == (1, 1, 1, 0)
    assert sum(slot[1] for slot in tracer.stats.values()) == 10
    assert tracer.spans == [{"id": 1, "parent": None, "name": "outer",
                             "start": 0, "end": 10}]


def test_recursive_span_self_time_counts_each_level_once():
    tracer = tracing.Tracer(clock=ScriptedClock([0, 1, 2, 4]))

    def fact(n):
        return 1 if n == 0 else n * wrapped(n - 1)

    wrapped = tracer.wrap("fact", fact)
    assert wrapped(1) == 1
    calls, self_s, inclusive_s, raised = tracer.get("fact")
    assert (calls, self_s, raised) == (2, 4, 0)
    assert inclusive_s == 4 + 1  # inclusive double-counts recursion


def test_raises_are_counted_and_spans_closed():
    tracer = tracing.Tracer(clock=ScriptedClock([0, 1, 2, 3]))

    def boom():
        raise KeyError("x")

    with tracer.span("outer"):
        with pytest.raises(KeyError):
            tracer.wrap("boom", boom)()
    assert tracer.get("boom") == (1, 1, 1, 1)
    assert tracer.get("outer")[:2] == (1, 2)
    assert tracer._stack == []


def _originals():
    return {
        "poly_mul": scalars.SymbolicPoly.__mul__,
        "poly_rmul": scalars.SymbolicPoly.__rmul__,
        "ring_eq": scalars.PolyRing.__eq__,
        "apply_call": ncseries.AlgebraMorphism.__call__,
        "distrib_bch": distrib.bch,
        "lie_bch": lie.bch,
        "npleg": polylog_num.npleg,
        "runners": dict(cli._RUNNERS),
    }


def test_traced_pass_restores_every_original():
    before = _originals()
    tracer = tracing.Tracer()
    tasks = [("bch", {"degree": 3, "candidate": "both"}),
             ("calibration", {"k_max": 1, "tol": 1e-10})]
    with tracing.traced(tracer, cli._RUNNERS):
        assert distrib.bch is not before["distrib_bch"]
        assert scalars.SymbolicPoly.__mul__ is scalars.SymbolicPoly.__rmul__
        assert scalars.SymbolicPoly.__mul__ is not before["poly_mul"]
        assert cli._RUNNERS["bch"] is distrib.verify_bch_closed_form
        assert cli._RUNNERS["bch"] is not before["runners"]["bch"]
        out = run.run_pass(tasks)
    assert [o["status"] for o in out["outputs"]] == ["pass", "pass"]
    after = _originals()
    assert after.keys() == before.keys()
    for key, value in before.items():
        if key == "runners":
            assert all(after[key][k] is v for k, v in value.items()), key
        else:
            assert after[key] is value, key
    assert distrib.bch is lie.bch
    assert tracer.get("lie.bch")[0] > 0
    assert tracer.get("scalars.poly_mul")[0] > 0
    assert tracer.get("distrib.bch")[0] == 1
    assert tracer.get("polylog_num.calibration")[0] == 1


def test_layer_metrics_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    tracer = tracing.Tracer()
    tasks = [("conversions", {"depth": 3})]
    base = run.run_pass(tasks)
    with tracing.traced(tracer, cli._RUNNERS):
        with tracer.span("harness", record=True):
            hot = run.run_pass(tasks)
    metrics = run.layer_metrics(tracer, cli._RUNNERS, base, hot)
    assert list(metrics) == [m["name"] for m in spec["per_layer"]]
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        k: unit for k, (_, unit) in metrics.items()
    }
    # layer self times plus the harness's own time cover the traced pass
    self_total = sum(v for k, (v, _) in metrics.items()
                     if k.endswith("self_s") and k.count(".") == 2 or k == "harness.self_s")
    self_total += sum(metrics[f"{m}.self_s"][0] for m in run.ENGINE_MODULES)
    harness_wall = tracer.get("harness")[2]
    assert self_total == pytest.approx(harness_wall, rel=1e-9)
    assert harness_wall >= hot["wall_s"]
    assert metrics["distrib.conversions.s"][0] > 0
    assert metrics["polylog_num.mpl_series.calls"][0] == 0


def test_sampled_pass_is_rescaled_and_the_alarm_restored():
    handler = signal.getsignal(signal.SIGALRM)
    tasks = [("bch", {"degree": 7, "candidate": "both"})]
    with hostspeed.Sampler() as sampler:
        out = run.run_pass(tasks, sampler)
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    walls, cpus = out["samples"]["wall"], out["samples"]["cpu"]
    assert len(walls) == len(cpus) > 0
    assert out["ref_wall_s"] == pytest.approx(
        out["wall_s"] * hostspeed.REF_S / statistics.fmean(walls), rel=1e-12)
    assert out["ref_cpu_s"] == pytest.approx(
        out["cpu_s"] * hostspeed.REF_S / statistics.fmean(cpus), rel=1e-12)
    assert [o["status"] for o in out["outputs"]] == ["pass"]


def test_scaled_divides_by_the_mean_sample():
    assert hostspeed.scaled(3.0, [hostspeed.REF_S, 2 * hostspeed.REF_S]) == 2.0


def _failing_report(**kwargs):
    rep = VerificationReport("flop", {})
    rep.add("always-false", False, "negative control")
    return rep


def _raising_runner(**kwargs):
    raise RuntimeError("engine crashed")


def test_raising_and_failing_runners_count_without_stopping(monkeypatch):
    monkeypatch.setitem(cli._RUNNERS, "boom", _raising_runner)
    monkeypatch.setitem(cli._RUNNERS, "flop", _failing_report)
    tasks = [("boom", {}), ("flop", {}), ("congruence", {"q": 8, "c": 3})]
    good = reference.as_output(cli._run_task(tasks[2]))
    ref = {"keys": None, "reports": [{}, {}, good]}

    out = run.run_pass(tasks)
    failed = run.judge(ref, out["outputs"], None)

    assert [f["task"] for f in failed] == [0, 1]
    assert "RuntimeError" in failed[0]["why"]
    assert "always-false" in failed[1]["why"]
    assert out["outputs"][0]["error"] == {"type": "RuntimeError",
                                          "message": "engine crashed"}
    assert out["outputs"][2] == good


def test_report_with_one_check_fewer_is_flagged():
    want = {"statement": "s", "params": {"seed": 5}, "status": "pass",
            "checks": 3, "failures": []}
    got = dict(want, checks=2)
    for keys in (None, list(reference.NUMERIC_KEYS)):
        ref = {"keys": keys, "reports": [want]}
        assert reference.mismatch(ref, got, want).startswith("checks")
        assert reference.mismatch(ref, dict(want), want) is None


def test_numeric_reference_fills_in_the_pass_seed():
    ref = {"keys": list(reference.NUMERIC_KEYS), "reports": reference.template(
        [{"statement": "s", "params": {"seed": 7, "tol": 1e-8}, "status": "pass",
          "checks": 1, "failures": [], "residuals": [{"value": 1e-12}]}],
        7, reference.NUMERIC_KEYS)}
    assert ref["reports"][0]["params"]["seed"] == "{seed}"
    assert "residuals" not in ref["reports"][0]
    assert reference.expected(ref, 0, 123)["params"] == {"seed": 123, "tol": 1e-8}


def test_same_seed_same_inputs():
    first = list(zip(range(4), workloads.pass_seeds(9)))
    again = list(zip(range(4), workloads.pass_seeds(9)))
    other = list(zip(range(4), workloads.pass_seeds(10)))
    assert first == again != other
    pseed = first[0][1]
    tasks = workloads.build_tasks(workloads.argvs("numeric", pseed))
    assert len(tasks) == 59
    seeded = [kw["seed"] for _, kw in tasks if "seed" in kw]
    assert seeded and set(seeded) == {pseed}
    assert not workloads.seeded("formal") and workloads.seeded("numeric")


def test_every_reference_matches_its_workload():
    for name in workloads.WORKLOADS:
        ref = reference.load(name)
        tasks = workloads.build_tasks(workloads.argvs(name, 1))
        assert len(ref["reports"]) == len(tasks), name
        assert all(r["status"] == "pass" for r in ref["reports"])


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "lie", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
    assert not (tmp_path / "perfbench" / "results").exists()
