"""Structured pass/fail reports returned by the verification routines.

Verifiers never raise on a failed identity; they record every check with
its worst deviation so callers (and the command line tool) can render the
whole picture and pick an exit code.
"""

from dataclasses import dataclass, field
from fractions import Fraction

from . import linalg

__all__ = ["Check", "Report"]


def _plain(value):
    if isinstance(value, Fraction):
        return str(value)
    return value


@dataclass
class Check:
    label: str
    ok: bool
    deviation: object = None
    detail: str = ""

    def to_dict(self):
        out = {"label": self.label, "ok": self.ok}
        if self.deviation is not None:
            out["deviation"] = _plain(self.deviation)
        if self.detail:
            out["detail"] = self.detail
        return out


@dataclass
class Report:
    name: str
    checks: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def add(self, label, ok, deviation=None, detail=""):
        self.checks.append(Check(label, bool(ok), deviation, detail))

    def check(self, label, dev, backend, tol):
        """Add an identity check whose deviation passes by the backend family's rule within."""
        self.add(label, linalg.within(dev, backend, tol), deviation=dev)

    def first_failure(self):
        for c in self.checks:
            if not c.ok:
                return c
        return None

    def to_dict(self):
        return {
            "name": self.name,
            "ok": self.ok,
            "checks": [c.to_dict() for c in self.checks],
        }

    def summary(self) -> str:
        lines = [f"[{'PASS' if self.ok else 'FAIL'}] {self.name}"]
        for c in self.checks:
            mark = "ok " if c.ok else "FAIL"
            dev = "" if c.deviation is None else f"  (deviation {_plain(c.deviation)})"
            lines.append(f"  {mark} {c.label}{dev}")
        return "\n".join(lines)
