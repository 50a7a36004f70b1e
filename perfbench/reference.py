"""Reference reports and the correctness gate.

A reference file holds the ND-JSON reports (``ms`` removed) that every task
of a workload produced when it was recorded.  Symbolic workloads must match
it exactly apart from ``ms``.  The numeric workload is compared on
``statement``, ``params``, ``status``, ``checks`` and ``failures`` only, so
floating-point residuals may move; its seed parameter is stored as
``"{seed}"`` and filled in with the seed of the pass.
"""

from __future__ import annotations

import json
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
NUMERIC_KEYS = ("statement", "params", "status", "checks", "failures")


def path(workload):
    return REFERENCE_DIR / f"{workload}.json"


def load(workload):
    with open(path(workload)) as fh:
        return json.load(fh)


def as_output(report):
    """The report as ``polydist`` prints it, minus the run-dependent ``ms``."""
    out = json.loads(report.to_json_line())
    out.pop("ms", None)
    return out


def error_report(task, exc):
    """What a task that raised is recorded as."""
    name, kwargs = task
    return {
        "statement": name,
        "params": json.loads(json.dumps(kwargs, default=str)),
        "status": "error",
        "error": {"type": type(exc).__name__, "message": str(exc)},
    }


def expected(ref, index, pseed):
    """The reference report of task ``index`` for a pass seeded ``pseed``."""
    want = ref["reports"][index]
    if ref["keys"] is None:
        return want
    text = json.dumps(want).replace('"{seed}"', str(pseed))
    return json.loads(text)


def mismatch(ref, got, want):
    """Why ``got`` is not an acceptable report, or None if it is."""
    if got.get("status") != "pass":
        return f"status {got.get('status')!r}: {got.get('error') or got.get('failures')}"
    keys = ref["keys"] or sorted(set(got) | set(want))
    for key in keys:
        if got.get(key) != want.get(key):
            return f"{key}: got {got.get(key)!r}, reference {want.get(key)!r}"
    return None


def template(reports, pseed, keys):
    """Reports reduced to ``keys`` with the seed parameter made a placeholder."""
    out = []
    for rep in reports:
        rep = {k: rep[k] for k in keys} if keys else dict(rep)
        params = rep.get("params", {})
        if pseed is not None and params.get("seed") == pseed:
            rep["params"] = {**params, "seed": "{seed}"}
        out.append(rep)
    return out
