"""The ordered multiset of positive integers the polynomials are built from."""

from __future__ import annotations


class RootSet:
    """Ordered multiset m_1..m_n of positive integers (repeats allowed).
    Immutable, compared and hashed by its elements.  Its size n is stored
    beside them when built, since the routes read it on every call."""

    __slots__ = ("elements", "n")
    elements: tuple[int, ...]
    n: int

    def __init__(self, elements: tuple[int, ...]) -> None:
        elements = tuple(elements)
        if not elements:
            raise ValueError("a root set needs at least one element")
        for m in elements:
            if not isinstance(m, int) or isinstance(m, bool) or m < 1:
                raise ValueError(f"root set elements must be positive integers, got {m!r}")
        object.__setattr__(self, "elements", elements)
        object.__setattr__(self, "n", len(elements))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.elements == other.elements

    def __hash__(self) -> int:
        return hash((self.elements,))

    def __repr__(self) -> str:
        return f"RootSet(elements={self.elements!r})"

    def __reduce__(self) -> tuple:
        # copy and pickle rebuild through __init__, since __setattr__ refuses
        return RootSet, (self.elements,)

    @classmethod
    def of(cls, *elements: int) -> "RootSet":
        return cls(tuple(elements))

    @classmethod
    def parse(cls, text: str) -> "RootSet":
        """Build from a comma-separated list such as "2,3,4"."""
        try:
            values = tuple(map(int, text.split(",")))
        except ValueError:
            raise ValueError(
                f"cannot parse roots {text!r}: expected comma-separated integers"
            ) from None
        return cls(values)

    @property
    def total(self) -> int:
        """The accumulate m_1 + ... + m_n."""
        return sum(self.elements)
