"""The one result type of every verified identity.

A per-instance verifier returns a Report that keeps every intermediate
value.  A sweep in `symex.verify` returns a named Report; over instances it
keeps only the failing ones, each with its expected and observed values.
"""

from __future__ import annotations

from typing import NamedTuple


class Check(NamedTuple):
    """One verified equality: label plus expected and observed values."""

    label: object
    expected: object
    observed: object

    @property
    def ok(self) -> bool:
        return self.expected == self.observed


class Report:
    __slots__ = ("name", "detail", "checks")

    def __init__(self, name: str = "", detail: str = "", checks: list[Check] | None = None) -> None:
        self.name = name
        self.detail = detail
        self.checks = [] if checks is None else checks

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.name, self.detail, self.checks) == (other.name, other.detail, other.checks)

    __hash__ = None  # mutable, so unhashable

    def __repr__(self) -> str:
        return f"Report(name={self.name!r}, detail={self.detail!r}, checks={self.checks!r})"

    @property
    def ok(self) -> bool:
        return all(check.ok for check in self.checks)

    def add(self, label: object, expected: object, observed: object) -> None:
        self.checks.append(Check(label, expected, observed))

    def failures(self) -> list[Check]:
        return [check for check in self.checks if not check.ok]
