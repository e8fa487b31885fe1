"""Bases shared by every layer: the validation error and the frozen record.

``Record`` stands in for ``@dataclass(frozen=True)``, whose decorator
generates and compiles six methods per class at import time.  Its methods
are written once here and read each subclass's field list, which
``__init_subclass__`` takes from the class annotations.
"""

from __future__ import annotations


class ValidationError(ValueError):
    """Input that fails validation; the CLI exits 1 on any subclass."""


class Record:
    """Frozen record: fields in annotation order, a class attribute of the
    same name is the field's default.

    The constructor takes the fields positionally or by keyword, then calls
    ``__post_init__``, which may normalize them with ``object.__setattr__``;
    any later assignment raises ``AttributeError``.  Equality and hashing go
    by the field values; ``repr`` omits the fields named in the ``hidden``
    class keyword.  Instances keep a ``__dict__``, so pickling works as on
    plain objects.
    """

    __match_args__: tuple = ()  # the field names, as pattern matching reads them
    _defaults: dict = {}
    _shown: tuple = ()

    def __init_subclass__(cls, hidden=(), **kwargs):
        super().__init_subclass__(**kwargs)
        cls.__match_args__ = tuple(cls.__annotations__)
        cls._defaults = {name: vars(cls)[name] for name in cls.__match_args__ if name in vars(cls)}
        cls._shown = tuple(name for name in cls.__match_args__ if name not in hidden)

    def __init__(self, *args, **kwargs):
        fields = self.__match_args__
        if len(args) > len(fields):
            raise TypeError(f"{type(self).__name__} takes {len(fields)} fields, got {len(args)}")
        # one attribute at a time and in field order, as a dataclass does: the
        # instances of a class then share one key layout and fast attribute
        # reads, which filling ``__dict__`` directly would give up
        for name, value in zip(fields, args):
            object.__setattr__(self, name, value)
        for name in fields[len(args):]:
            if name in kwargs:
                value = kwargs.pop(name)
            elif name in self._defaults:
                value = self._defaults[name]
            else:
                raise TypeError(f"{type(self).__name__}: missing field {name!r}")
            object.__setattr__(self, name, value)
        if kwargs:
            name = next(iter(kwargs))
            raise TypeError(f"{type(self).__name__}: unexpected or repeated field {name!r}")
        self.__post_init__()

    def __post_init__(self):
        pass

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a frozen record")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a frozen record")

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__match_args__])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._shown)
        return f"{type(self).__qualname__}({shown})"
