"""Pass/fail reporting shared by the verification suites and the CLI.

Every suite is an exhaustive search: it walks its cases in canonical order
and stops at the first counterexample, the witness.  ``first_witness`` is
that search, and ``VerifyReport.sweep`` records its outcome as one check.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable


def first_witness(cases: Iterable, witness_of: Callable):
    """The first non-None witness_of(case) over cases in order; None when every case holds."""
    for case in cases:
        witness = witness_of(case)
        if witness is not None:
            return witness
    return None


@dataclass
class CheckResult:
    name: str
    passed: bool
    witness: str | None = None

    def line(self) -> str:
        if self.passed:
            return f"[PASS] {self.name}"
        suffix = f": {self.witness}" if self.witness else ""
        return f"[FAIL] {self.name}{suffix}"


@dataclass
class VerifyReport:
    title: str
    checks: list[CheckResult] = field(default_factory=list)

    def add(self, name: str, passed: bool, witness: str | None = None) -> None:
        self.checks.append(CheckResult(name, passed, witness))

    def sweep(self, name: str, cases: Iterable, witness_of: Callable[..., str | None]) -> None:
        """Add the check name: it fails with the first witness found over cases."""
        witness = first_witness(cases, witness_of)
        self.add(name, witness is None, witness)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def lines(self) -> list[str]:
        out = [c.line() for c in self.checks]
        n_fail = sum(1 for c in self.checks if not c.passed)
        verdict = "all passed" if n_fail == 0 else f"{n_fail} failed"
        out.append(f"{self.title}: {len(self.checks)} checks, {verdict}")
        return out

    def render(self) -> str:
        return "\n".join(self.lines())
