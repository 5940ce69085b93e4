"""Immutable value objects for the records that every command builds.

A subclass declares its fields as __slots__, names them in _fields in
constructor order, and sets each one in its own __init__ through setfield.
The base gives it value equality, a hash and a repr over those fields, and
refuses later assignment, as a frozen dataclass would; unlike one, it
generates no code when its module is imported.
"""

from __future__ import annotations

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

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of {type(self).__name__}")
