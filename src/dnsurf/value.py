"""Immutable value objects for the records that every command builds,
and the null-coordinate domain Box that every spec has.

A subclass declares its fields as __slots__, names them in _fields in
constructor order, and sets each one in its own __init__ through setfield.
The base gives it value equality, a hash, a repr and replace() over those
fields, and refuses later assignment, as a frozen dataclass would; unlike
one, it generates no code when its module is imported.  Neither this
module nor errors imports numpy, so the CLI checks a spec's domain before
numpy loads.
"""

from __future__ import annotations

import math

from .errors import GridError, OutOfDomainError

#: Sets a field of a Value in its __init__, past the refusing __setattr__.
setfield = object.__setattr__


class Value:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _key(self) -> tuple:
        return tuple([getattr(self, f) for f in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        args = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__name__}({args})"

    def replace(self, **changes):
        """A copy with the named fields changed, as dataclasses.replace
        makes one; needs an __init__ whose parameters are the fields."""
        return type(self)(**{**{f: getattr(self, f) for f in self._fields}, **changes})

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of {type(self).__name__}")


class Box(Value):
    """Rectangle [a0, a1] x [b0, b1] in null coordinates (a, b)."""

    __slots__ = _fields = ("a0", "a1", "b0", "b1")

    def __init__(self, a0: float, a1: float, b0: float, b1: float):
        setfield(self, "a0", a0)
        setfield(self, "a1", a1)
        setfield(self, "b0", b0)
        setfield(self, "b1", b1)
        if not all(map(math.isfinite, (self.a0, self.a1, self.b0, self.b1))):
            raise GridError(f"non-finite domain box {self}")
        if not (self.a0 < self.a1 and self.b0 < self.b1):
            raise GridError(f"empty domain box {self}")

    def check(self, t):
        """Refuse a DNum t whose null coordinates lie outside the box."""
        if not (self.a0 - 1e-12 <= t.p <= self.a1 + 1e-12):
            raise OutOfDomainError(
                f"null coordinate a={t.p!r} outside [{self.a0}, {self.a1}]"
            )
        if not (self.b0 - 1e-12 <= t.m <= self.b1 + 1e-12):
            raise OutOfDomainError(
                f"null coordinate b={t.m!r} outside [{self.b0}, {self.b1}]"
            )

    def swapped(self) -> "Box":
        return Box(self.b0, self.b1, self.a0, self.a1)
