"""Structured pass/fail reports shared by all verification engines.

A report carries named checks (each an independently decidable assertion),
optional residual records (structured payloads for expected-failure or
diagnostic data), and a wall-clock duration.  Serialization is deterministic
apart from the ``ms`` field.

An engine that raises instead of reporting is recorded as an
``ErrorReport`` (status ``error``).  ``ParameterError`` is the exception
for parameters an engine refuses before doing any work: a usage error,
not an engine failure.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


class ParameterError(ValueError):
    """Raised by an engine for parameters it refuses before any work."""


@dataclass
class Check:
    name: str
    ok: bool
    detail: str = ""


@dataclass
class VerificationReport:
    statement: str
    params: dict
    checks: list = field(default_factory=list)
    residuals: list = field(default_factory=list)
    ms: float = 0.0

    def add(self, name, ok, detail=""):
        self.checks.append(Check(name, bool(ok), detail))
        return bool(ok)

    def add_residual(self, **payload):
        self.residuals.append(payload)

    @property
    def ok(self):
        return all(c.ok for c in self.checks)

    @property
    def status(self):
        return "pass" if self.ok else "fail"

    def failures(self):
        return [c for c in self.checks if not c.ok]

    def to_json_dict(self):
        out = {
            "statement": self.statement,
            "params": self.params,
            "status": self.status,
            "checks": len(self.checks),
            "failures": [
                {"name": c.name, "detail": c.detail} for c in self.failures()
            ],
        }
        if self.residuals:
            out["residuals"] = self.residuals
        out["ms"] = round(self.ms, 3)
        return out

    def to_json_line(self):
        return json.dumps(self.to_json_dict(), sort_keys=False, default=str)

    def summary(self):
        flag = "PASS" if self.ok else "FAIL"
        return f"{flag} {self.statement} ({len(self.checks)} checks, {self.ms:.0f} ms)"


@dataclass
class ErrorReport:
    """The exception an engine raised in place of its report, by type name
    and message (strings, so it crosses process boundaries)."""

    statement: str
    params: dict
    error_type: str
    message: str

    ok = False

    def to_json_line(self):
        return json.dumps(
            {
                "statement": self.statement,
                "params": self.params,
                "status": "error",
                "error": {"type": self.error_type, "message": self.message},
            },
            default=str,
        )


@contextmanager
def timed(report):
    """Context manager filling in report.ms."""
    t0 = time.perf_counter()
    try:
        yield report
    finally:
        report.ms = (time.perf_counter() - t0) * 1000.0
