"""What every layer shares: records compared by field, and the number grammar.

The record types are plain classes with ``__slots__`` and an explicit
``__init__``, so that importing the package stays at standard-library cost.
"""


class Record:
    """Equal to a record of the same type whose ``__slots__`` fields are equal.
    Unhashable, as its fields may change; see ``Value``."""

    __slots__ = ()
    __hash__ = None

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"


class Value(Record):
    """A record no code changes after ``__init__``, so it hashes by value."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._values())


def ascii_number(text: str, kind=int):
    """``kind(text)`` in the trace grammar's digits: ``int`` and ``float`` alone
    also read other scripts' digits (``٣``) and ``_`` separators."""
    if not text.isascii() or "_" in text:
        raise ValueError(f"numbers take ASCII characters and no '_', got {text!r}")
    return kind(text)
