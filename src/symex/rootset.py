"""The ordered multiset of positive integers the polynomials are built from."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class RootSet:
    """Ordered multiset m_1..m_n of positive integers (repeats allowed)."""

    elements: tuple[int, ...]

    def __post_init__(self) -> None:
        elements = tuple(self.elements)
        object.__setattr__(self, "elements", elements)
        if not elements:
            raise ValueError("a root set needs at least one element")
        for m in elements:
            if not isinstance(m, int) or isinstance(m, bool) or m < 1:
                raise ValueError(f"root set elements must be positive integers, got {m!r}")

    @classmethod
    def of(cls, *elements: int) -> "RootSet":
        return cls(tuple(elements))

    @classmethod
    def parse(cls, text: str) -> "RootSet":
        """Build from a comma-separated list such as "2,3,4"."""
        try:
            values = tuple(int(part) for part in text.split(","))
        except ValueError:
            raise ValueError(
                f"cannot parse roots {text!r}: expected comma-separated integers"
            ) from None
        return cls(values)

    @property
    def n(self) -> int:
        return len(self.elements)

    @property
    def total(self) -> int:
        """The accumulate m_1 + ... + m_n."""
        return sum(self.elements)

    def __str__(self) -> str:
        return "{" + ",".join(str(m) for m in self.elements) + "}"
