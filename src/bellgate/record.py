"""Frozen value records, built without generating code.

A :class:`Record` subclass lists its fields as its own annotations, in
order; a field's default is the class attribute of that name.  Its
instances get a keyword-or-positional constructor that then calls
``__post_init__`` (if defined), read-only fields, and equality, hash and
repr on the field values, as those of a ``@dataclass(frozen=True)``
class do; but creating the class compiles nothing.
"""

from __future__ import annotations


class FrozenInstanceError(AttributeError):
    """A record's attribute was assigned or deleted."""


class Record:
    """Base of every record; see the module docstring."""

    _fields: tuple[str, ...] = ()
    _defaults: dict = {}

    def __init_subclass__(cls):
        # Since Python 3.10 a class's __annotations__ are its own, never its
        # bases', as inspect.get_annotations reads them; importing inspect
        # would cost every process about 8 ms.
        names = tuple(cls.__annotations__)
        defaults = {name: vars(cls)[name] for name in names if name in vars(cls)}
        if tuple(defaults) != names[len(names) - len(defaults):]:
            raise TypeError(f"{cls.__qualname__}: a field without a default follows one with")
        cls._fields, cls._defaults = names, defaults

    def __init__(self, *args, **kwargs):
        cls, names = type(self), self._fields
        if len(args) > len(names):
            raise TypeError(f"{cls.__qualname__}() takes {len(names)} positional arguments")
        values = dict(zip(names, args))
        for name, value in kwargs.items():
            if name in values:
                raise TypeError(f"{cls.__qualname__}() got multiple values for {name!r}")
            values[name] = value
        for name in names:
            if name not in values and name not in self._defaults:
                raise TypeError(f"{cls.__qualname__}() missing argument {name!r}")
            object.__setattr__(self, name, values.pop(name, self._defaults.get(name)))
        if values:
            raise TypeError(f"{cls.__qualname__}() got unexpected arguments {sorted(values)}")
        if hasattr(self, "__post_init__"):
            self.__post_init__()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({body})"


def fields(record) -> tuple[str, ...]:
    """Field names of a record or record class, in order."""
    if not issubclass(record if isinstance(record, type) else type(record), Record):
        raise TypeError(f"{record!r} is not a record")
    return record._fields


def replace(record: Record, **changes) -> Record:
    """A new record with ``changes`` applied; its checks run again."""
    return type(record)(**{**{name: getattr(record, name) for name in record._fields}, **changes})
