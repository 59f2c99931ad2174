"""Pass/fail reports produced by the identity verifiers.

A report keeps every intermediate value, not just a boolean, so a failure
can be diagnosed from the expected and observed values of its checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Check:
    """One verified equality: label plus expected and observed values."""

    label: str
    expected: object
    observed: object

    @property
    def ok(self) -> bool:
        return self.expected == self.observed


@dataclass
class Report:
    checks: list[Check] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(check.ok for check in self.checks)

    def add(self, label: str, expected: object, observed: object) -> None:
        self.checks.append(Check(label, expected, observed))

    def failures(self) -> list[Check]:
        return [check for check in self.checks if not check.ok]
