"""The one result type of every verified identity.

A per-instance verifier returns a Report that keeps every intermediate
value.  A sweep in `symex.verify` returns a named Report; over instances it
keeps only the failing ones, each with its expected and observed values.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Check:
    """One verified equality: label plus expected and observed values."""

    label: object
    expected: object
    observed: object

    @property
    def ok(self) -> bool:
        return self.expected == self.observed


@dataclass
class Report:
    name: str = ""
    detail: str = ""
    checks: list[Check] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(check.ok for check in self.checks)

    def add(self, label: object, expected: object, observed: object) -> None:
        self.checks.append(Check(label, expected, observed))

    def failures(self) -> list[Check]:
        return [check for check in self.checks if not check.ok]
