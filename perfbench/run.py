"""polydist benchmark: certify a workload's task list in a closed loop.

    python3 perfbench/run.py --workload formal [--seed N] [--seconds S] [--trace 0|1]

One process runs one task at a time, each starting when the previous one
returns, through ``polydist.cli._run_task``.  With ``--trace 0`` it repeats
the workload's task list (a pass) for about ``--seconds`` seconds and
reports the end-to-end metrics; with ``--trace 1`` it runs one untraced and
one traced pass and reports the per-layer metrics.  Every report is checked
against ``perfbench/reference/<workload>.json``.  The last line of stdout is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
``--record`` rewrites the reference from the current code instead.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS_DIR = BENCH_DIR / "results"
SETUP_PROBES = 9  # fresh interpreters timed per run, after one warm-up
ENGINE_MODULES = ("distrib", "measures", "polylog_num")

SETUP_PROBE = (
    "import json, sys\n"
    "sys.path[:0] = [sys.argv[1], sys.argv[2]]\n"
    "import workloads\n"
    "workloads.build_tasks(json.loads(sys.argv[3]))\n"
)


def parse_args(argv=None):
    from workloads import DEFAULT_SEED, WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=36.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record", action="store_true",
                   help="rewrite the reference from the current code")
    return p.parse_args(argv)


def run_pass(tasks, sampler=None):
    """Run the tasks in order; return timings and each task's output.

    With a running ``hostspeed.Sampler``, ``wall_s`` and ``cpu_s`` leave
    out the time of the samples taken during the pass, and ``ref_wall_s``
    and ``ref_cpu_s`` give the pass in seconds at reference speed.
    """
    from polydist import cli
    from reference import as_output, error_report

    outputs = [None] * len(tasks)
    ms = [0.0] * len(tasks)
    mark = sampler.mark() if sampler is not None else 0
    wall0, cpu0 = time.perf_counter(), time.process_time()
    for i in range(len(tasks)):
        try:
            rep = cli._run_task(tasks[i])
            outputs[i], ms[i] = as_output(rep), rep.ms
        except Exception as exc:  # an engine crash is a failed report
            outputs[i] = error_report(tasks[i], exc)
    wall = time.perf_counter() - wall0
    cpu = time.process_time() - cpu0
    out = {"wall_s": wall, "cpu_s": cpu, "ms": ms, "outputs": outputs}
    if sampler is not None:
        walls, cpus = sampler.since(mark)
        out["wall_s"], out["cpu_s"] = wall - sum(walls), cpu - sum(cpus)
        out["ref_wall_s"] = hostspeed.scaled(out["wall_s"], walls)
        out["ref_cpu_s"] = hostspeed.scaled(out["cpu_s"], cpus)
        out["samples"] = {"wall": walls, "cpu": cpus}
    return out


def judge(ref, outputs, pseed):
    """Indices and reasons of the reports that fail the gate."""
    from reference import expected, mismatch

    bad = []
    for i, got in enumerate(outputs):
        why = mismatch(ref, got, expected(ref, i, pseed))
        if why:
            bad.append({"task": i, "seed": pseed, "why": why})
    return bad


def measure_setup(workload, pseed):
    """Median wall time of a fresh interpreter importing polydist and
    building the task list, over SETUP_PROBES runs after one warm-up."""
    from workloads import argvs

    cmd = [sys.executable, "-c", SETUP_PROBE, str(SRC), str(BENCH_DIR),
           json.dumps(argvs(workload, pseed))]
    times = []
    for _ in range(SETUP_PROBES + 1):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL, cwd=ROOT)
        times.append(time.perf_counter() - t0)
    return statistics.median(times[1:])


def environment(workload, seed, task_lists):
    import numpy

    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = None  # not a git checkout
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_count": os.cpu_count(),
        "workload": workload,
        "seed": seed,
        "task_lists": task_lists,
        "hostspeed": {"interval_s": hostspeed.INTERVAL_S,
                      "kernel_steps": hostspeed.KERNEL_STEPS,
                      "ref_s": hostspeed.REF_S},
    }


def peak_rss_mib():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def benchmark(workload, seed, seconds, ref):
    """Untraced, host-sampled passes for about ``seconds``; end-to-end metrics.

    ``wall_s`` and ``cpu_s`` are medians over the passes in seconds at
    reference speed (``hostspeed``); ``raw`` holds the same medians as
    measured, in plain seconds.
    """
    from workloads import argvs, build_tasks, pass_seeds, seeded

    seeds = pass_seeds(seed) if seeded(workload) else itertools.repeat(None)
    passes, failures = [], []
    setup_s = measure_setup(workload, seed)
    with hostspeed.Sampler() as sampler:
        start = time.perf_counter()
        while True:
            pseed = next(seeds)
            tasks = build_tasks(argvs(workload, pseed))
            gc.collect()
            t0 = time.perf_counter()
            p = run_pass(tasks, sampler)
            took = time.perf_counter() - t0
            failures += judge(ref, p.pop("outputs"), pseed)
            passes.append({"seed": pseed, "tasks": tasks, **p})
            if len(passes) == 1:
                rss = peak_rss_mib()  # later passes only add allocator hysteresis
            if time.perf_counter() - start + took > seconds:
                break
    med = {k: statistics.median(p[k] for p in passes)
           for k in ("ref_wall_s", "ref_cpu_s", "wall_s", "cpu_s")}
    metrics = {
        "wall_s": (med["ref_wall_s"], "s"),
        "cpu_s": (med["ref_cpu_s"], "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mib": (rss, "MiB"),
    }
    raw = {"wall_s": med["wall_s"], "cpu_s": med["cpu_s"]}
    attempted = sum(len(p["ms"]) for p in passes)
    return metrics, attempted, failures, passes, raw


def traced_benchmark(workload, seed, ref):
    """One untraced and one traced pass of the same tasks; layer metrics."""
    from polydist import cli
    from tracing import Tracer, traced
    from workloads import argvs, build_tasks, pass_seeds, seeded

    pseed = next(pass_seeds(seed)) if seeded(workload) else None
    tasks = build_tasks(argvs(workload, pseed))
    gc.collect()
    base = run_pass(tasks)
    failures = judge(ref, base.pop("outputs"), pseed)

    tracer = Tracer()
    gc.collect()
    with traced(tracer, cli._RUNNERS):
        with tracer.span("harness", record=True):
            hot = run_pass(tasks)
    failures += judge(ref, hot.pop("outputs"), pseed)

    metrics = layer_metrics(tracer, cli._RUNNERS, base, hot)
    passes = [{"seed": pseed, "tasks": tasks, "traced": False, **base},
              {"seed": pseed, "tasks": tasks, "traced": True, **hot}]
    return metrics, 2 * len(tasks), failures, passes, tracer.spans


def layer_metrics(tracer, runners, base, hot):
    """Per-layer metrics of a traced pass ``hot`` and its untraced twin ``base``."""
    from tracing import NUMPY_KERNELS, TARGETS

    metrics = {}
    span_names = [t[0] for t in TARGETS] + [f"polylog_num.{k}" for k in NUMPY_KERNELS]
    for name in span_names:
        calls, self_s, _, _ = tracer.get(name)
        metrics[f"{name}.calls"] = (calls, "count")
        metrics[f"{name}.self_s"] = (self_s, "s")
    for key, total in tracer.counters.items():
        metrics[key] = (total, "bytes" if key.endswith("bytes") else "count")
    calls, _, _, raised = tracer.get("polylog_num.iterint_quadrature")
    metrics["polylog_num.iterint_quadrature.failed"] = (raised, "count")
    useful = (calls - raised) / calls if calls else 0.0
    metrics["polylog_num.cross_oracle.useful_ratio"] = (useful, "ratio")

    module_self = dict.fromkeys(ENGINE_MODULES, 0.0)
    engines = sorted((fn.__module__.rpartition(".")[2], runner)
                     for runner, fn in runners.items())
    for module, runner in engines:
        _, self_s, inclusive_s, _ = tracer.get(f"{module}.{runner}")
        metrics[f"{module}.{runner}.s"] = (inclusive_s, "s")
        module_self[module] += self_s
    for module, self_s in module_self.items():
        metrics[f"{module}.self_s"] = (self_s, "s")

    metrics["harness.self_s"] = (tracer.get("harness")[1], "s")
    metrics["trace.wall_s"] = (hot["wall_s"], "s")
    metrics["trace.overhead"] = (hot["wall_s"] / base["wall_s"], "ratio")
    metrics["cli.tasks"] = (len(base["ms"]), "count")
    metrics["cli.max_task_share"] = (max(base["ms"]) / sum(base["ms"]), "ratio")
    return metrics


def record(workload):
    """Write the reference of ``workload`` from the current code."""
    import reference
    from workloads import DEFAULT_SEED, HELD_OUT_SEED, argvs, build_tasks, seeded

    keys = list(reference.NUMERIC_KEYS) if seeded(workload) else None
    seeds = [DEFAULT_SEED, HELD_OUT_SEED, 0, 2, 3] if keys else [None]
    reports = None
    for pseed in seeds:
        tasks = build_tasks(argvs(workload, pseed))
        outputs = run_pass(tasks)["outputs"]
        got = reference.template(outputs, pseed, keys)
        if reports is not None and got != reports:
            sys.exit(f"reference for {workload} depends on the seed beyond "
                     f"its seed parameter (seed {pseed})")
        reports = got
    bad = [r for r in reports if r["status"] != "pass"]
    if bad:
        sys.exit(f"refusing to record failing reports: {bad}")
    reference.REFERENCE_DIR.mkdir(exist_ok=True)
    with open(reference.path(workload), "w") as fh:
        json.dump({"workload": workload, "keys": keys,
                   "seeds_checked": [s for s in seeds if s is not None],
                   "reports": reports}, fh, indent=1)
        fh.write("\n")
    print(f"recorded {len(reports)} reports to {reference.path(workload)}")


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "polydist" / "__init__.py").is_file():
        print(f"error: no polydist sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.record:
        record(args.workload)
        return 0
    import reference

    try:
        ref = reference.load(args.workload)
    except FileNotFoundError:
        print(f"error: no reference for {args.workload}; run with --record",
              file=sys.stderr)
        return 2

    spans, raw = [], {}
    if args.trace:
        metrics, attempted, failures, passes, spans = traced_benchmark(
            args.workload, args.seed, ref)
    else:
        metrics, attempted, failures, passes, raw = benchmark(
            args.workload, args.seed, args.seconds, ref)
    task_lists = {str(p["seed"]): p.pop("tasks") for p in passes}
    env = environment(args.workload, args.seed, task_lists)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    out = RESULTS_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(out, "w") as fh:
        json.dump({"env": env, "result": result, "raw": raw, "failures": failures,
                   "passes": passes, "spans": spans}, fh, indent=1, default=str)

    for f in failures[:10]:
        print(f"FAILED task {f['task']} (seed {f['seed']}): {f['why']}", file=sys.stderr)
    print(json.dumps({"env": {k: v for k, v in env.items() if k != "task_lists"}}))
    print(f"{args.workload}: {len(passes)} pass(es), {attempted} reports, "
          f"failed_reports {len(failures)}/{attempted}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:48s} {value:>14.6g} {unit}")
    for name, value in raw.items():
        print(f"  {name + ' (as measured)':48s} {value:>14.6g} s")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
