"""The public surface: what ``polydist`` exports, README's quick tour, and
no public module-level function that nothing names."""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

from polydist import cli

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
README = ROOT / "README.md"

# the engines the CLI runs, the report they return, README's quick tour
EXPORTS = {
    "derive_eisenstein_specialization",
    "verify_bch_closed_form",
    "verify_conversions",
    "verify_formal_distribution",
    "verify_homogeneous_polylog",
    "verify_inhomogeneous_pipeline",
    "bernoulli_congruence_check",
    "verify_measure_pushforward",
    "verify_numeric_calibration",
    "verify_numeric_classical",
    "verify_numeric_cross_oracle",
    "verify_numeric_distribution",
    "VerificationReport",
    "MPLQuery",
    "NCSeries",
    "QQ",
    "bch",
    "mpl_series",
    "parse_word",
}

LAYERS = {"distrib", "geometry", "lie", "measures", "ncseries", "polylog_num",
          "report", "scalars", "words"}

# public module-level functions that nothing else names yet, with the reason
UNNAMED_ALLOWED = {
    # exact B_k(x) at a rational x: the planned Kummer-measure engine checks
    # the multiplication theorem B_k(Nx) = N^(k-1)·Σ B_k(x + a/N) with it
    "bernoulli_poly_eval",
}


def _python(code):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, cwd=ROOT
    )


def test_the_package_exports_the_engines_the_report_and_the_quick_tour():
    proc = _python(
        "import inspect, json, polydist\n"
        "names = [n for n in vars(polydist) if not n.startswith('_')]\n"
        "print(json.dumps({kind: [n for n in names if inspect.ismodule(\n"
        "    getattr(polydist, n)) == (kind == 'modules')]\n"
        "    for kind in ('modules', 'names')}))"
    )
    assert proc.returncode == 0, proc.stderr
    surface = json.loads(proc.stdout)
    assert set(surface["names"]) == EXPORTS
    # every layer module is bound on a fresh import, needed or not
    assert set(surface["modules"]) == LAYERS
    assert {fn.__name__ for fn in cli._RUNNERS.values()} < EXPORTS


def test_readme_quick_tour_runs():
    text = README.read_text()
    (block,) = re.findall(r"## Library quick tour\n\n```python\n(.*?)```", text, re.S)
    proc = _python(block)
    assert proc.returncode == 0, proc.stderr
    summary, value = proc.stdout.splitlines()
    assert summary.startswith("PASS inhomogeneous (11 checks, ")
    assert abs(complex(value) - 0.448414206923646) < 1e-12


def _unnamed_functions():
    """Public module-level functions of ``src/polydist`` named nowhere but on
    their own def line: not in the rest of the package (``__init__.py``
    aside), README.md or the benchmark tracer."""
    sources = {p: p.read_text() for p in (SRC / "polydist").glob("*.py")
               if p.name != "__init__.py"}
    elsewhere = README.read_text() + (ROOT / "perfbench" / "tracing.py").read_text()
    unnamed = []
    for path, text in sorted(sources.items()):
        lines = text.splitlines()
        for node in ast.parse(text).body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                word = re.compile(rf"\b{node.name}\b")
                rest = "\n".join(lines[: node.lineno - 1] + lines[node.lineno:])
                others = [t for p, t in sources.items() if p != path]
                if not any(word.search(t) for t in [rest, elsewhere, *others]):
                    unnamed.append((path.stem, node.name))
    return unnamed


def test_every_public_function_is_named_somewhere():
    dead = [f"{module}.{name}" for module, name in _unnamed_functions()
            if name not in UNNAMED_ALLOWED]
    assert dead == [], "no caller, not in README or the tracer: delete them"
