"""The bases every value class of the package takes its methods from.

A subclass of ``Record`` (mutable) or ``Frozen`` that annotates fields is
made a ``dataclass`` that generates no method (``init=False, repr=False,
eq=False``): compiling those methods took most of the import time. Its
constructor and its ``__eq__`` are generated from its fields when each is
first called; ``__hash__`` and ``__repr__`` are shared.
"""

from __future__ import annotations

from dataclasses import MISSING, FrozenInstanceError, dataclass, fields
from operator import attrgetter
from types import MappingProxyType


class Record:
    """A mutable value: equal to a value of its class whose compared fields
    are equal, unhashable, and shown by its repr fields, a read-only view
    as the dict it wraps."""

    __slots__ = ()
    __hash__ = None  # as ``dataclass`` leaves a mutable class that compares

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        if "__annotations__" not in vars(cls):
            return  # it adds no field, so its base's methods do
        # Else ``dataclass`` would build a docstring from a signature.
        cls.__doc__ = cls.__doc__ or f"{cls.__qualname__}({', '.join(vars(cls)['__annotations__'])})"
        dataclass(init=False, repr=False, eq=False)(cls)
        cls._compared = attrgetter(*(f.name for f in fields(cls) if f.compare))
        cls._shown = tuple(f.name for f in fields(cls) if f.repr)
        for name, make in (("__init__", _constructor), ("__eq__", _comparison)):
            if name not in vars(cls):
                setattr(cls, name, _built_on_first_call(cls, name, make))

    def __repr__(self) -> str:
        values = ((name, getattr(self, name)) for name in self._shown)
        shown = ", ".join(f"{n}={dict(v) if type(v) is MappingProxyType else v!r}" for n, v in values)
        return f"{type(self).__qualname__}({shown})"


class Frozen(Record):
    """A frozen value: its fields cannot be assigned or deleted, and it
    hashes by its compared fields."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._compared(self))

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")


def _built_on_first_call(cls: type, name: str, make):
    def first_call(self, *args, **kwargs):
        setattr(cls, name, make(cls))
        return getattr(cls, name)(self, *args, **kwargs)

    return first_call


def _compiled(cls: type, name: str, source: str, scope: dict):
    exec(source, scope)
    scope[name].__qualname__ = f"{cls.__qualname__}.{name}"
    return scope[name]


def _comparison(cls: type):
    """The ``__eq__`` that ``dataclass`` would generate, which answers at
    once for a value compared with itself (as Python 3.13's does). Shared
    code would read the fields through ``attrgetter``, which takes up to
    twice as long as the attribute reads compiled into a class's own."""
    compared = [f.name for f in fields(cls) if f.compare]
    mine, theirs = ("".join(f"{who}.{name}, " for name in compared) for who in ("self", "other"))
    return _compiled(cls, "__eq__", (
        "def __eq__(self, other):\n"
        " if other is self: return True\n"
        f" if other.__class__ is self.__class__: return ({mine}) == ({theirs})\n"
        " return NotImplemented"), {})


def _constructor(cls: type):
    """The ``__init__`` that ``dataclass`` would generate, except that a
    frozen value sets its instance dict in one call, which takes less time
    than ``object.__setattr__`` per field, and that a field ``read_only``
    names holds a read-only view of the mapping passed (``core.ReadOnly``)."""
    scope = {"View": MappingProxyType, "set_dict": object.__setattr__, "MISSING": MISSING}
    params, items = [], []
    for f in fields(cls):
        name = value = f.name
        if f.default_factory is not MISSING:
            scope[f"new_{name}"] = f.default_factory
            value = f"new_{name}() if {name} is MISSING else {name}" if f.init else f"new_{name}()"
        elif name in getattr(cls, "read_only", ()):
            value = f"{name} if type({name}) is View else View({name})"
        if f.init:
            scope[f"default_{name}"] = f.default  # MISSING where a factory is called
            defaulted = f.default is not MISSING or f.default_factory is not MISSING
            params.append(f"{name}=default_{name}" if defaulted else name)
        if f.init or f.default_factory is not MISSING:
            items.append((name, value))
    if issubclass(cls, Frozen):
        body = [f"set_dict(self, '__dict__', {{{', '.join(f'{n!r}: {v}' for n, v in items)}}})"]
    else:
        body = [f"self.{n} = {v}" for n, v in items]
    if hasattr(cls, "__post_init__"):
        body.append("self.__post_init__()")
    return _compiled(cls, "__init__", f"def __init__(self, {', '.join(params)}): {'; '.join(body)}", scope)
