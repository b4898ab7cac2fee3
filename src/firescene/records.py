"""One JSON codec for the package's result records.

A record is a dataclass that inherits ``Record``. Its fields are listed once,
in its class body; their resolved types drive both directions of the codec.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import json
import types
import typing
from typing import Any, Callable, TypeVar

_R = TypeVar("_R", bound="Record")
_Decoder = Callable[[Any], Any]


class Record:
    """Mixin that gives a dataclass ``as_dict``/``from_dict`` and ``to_json``/``from_json``.

    ``as_dict`` turns nested records into dicts and enums into their values
    and hands every other value over as it is; a record keeps its fields, and
    nothing else, in its instance ``__dict__``. ``from_dict`` reads records,
    enums, ``X | None``, ``list[X]``, ``tuple[X, ...]``, fixed tuples,
    ``dict[str, X]`` and scalars. An absent key takes its field default. An
    unknown key, a missing required key, a value of the wrong type or a broken
    ``__post_init__`` invariant raises ``ValueError``.
    """

    def as_dict(self) -> dict[str, Any]:
        d = dict(vars(self))
        for name in _codec(type(self))[0]:
            d[name] = _encode(d[name])
        return d

    @classmethod
    def from_dict(cls: type[_R], d: dict[str, Any]) -> _R:
        decoders = _codec(cls)[1]
        try:
            return cls(**{key: decoders[key](value) for key, value in d.items()})
        except (AttributeError, KeyError, TypeError) as exc:
            raise ValueError(f"malformed {cls.__name__} document: {exc!r}") from exc

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_json(cls: type[_R], text: str | bytes) -> _R:
        return cls.from_dict(json.loads(text))


@functools.cache
def _codec(cls: type) -> tuple[tuple[str, ...], dict[str, _Decoder]]:
    """The fields that can hold a record or an enum, and a decoder per field."""
    hints = typing.get_type_hints(cls)
    names = [f.name for f in dataclasses.fields(cls)]
    nested = tuple(n for n in names if _holds_record(hints[n]))
    return nested, {n: _decoder(hints[n]) for n in names}


def _holds_record(tp: Any) -> bool:
    if typing.get_origin(tp) is None and isinstance(tp, type):
        return issubclass(tp, (Record, enum.Enum))
    return any(_holds_record(arg) for arg in typing.get_args(tp))


def _encode(value: Any) -> Any:
    if isinstance(value, Record):
        return value.as_dict()
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, (list, tuple)):
        return type(value)(_encode(v) for v in value)
    if isinstance(value, dict):
        return {k: _encode(v) for k, v in value.items()}
    return value


def _decoder(tp: Any) -> _Decoder:
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin in (typing.Union, types.UnionType):
        (inner,) = (arg for arg in args if arg is not type(None))
        decode = _decoder(inner)
        return lambda v: None if v is None else decode(v)
    if origin is list or (origin is tuple and args[-1] is Ellipsis):
        decode = _decoder(args[0])
        return lambda v: origin(decode(x) for x in _checked(v, (list, tuple)))
    if origin is tuple:  # fixed length; zip raises ValueError on any other
        decoders = [_decoder(arg) for arg in args]
        return lambda v: tuple(d(x) for d, x in zip(decoders, _checked(v, (list, tuple)), strict=True))
    if origin is dict:
        decode_key, decode = _decoder(args[0]), _decoder(args[1])
        return lambda v: {decode_key(k): decode(x) for k, x in v.items()}
    if issubclass(tp, (Record, enum.Enum)):
        return tp.from_dict if issubclass(tp, Record) else tp
    return functools.partial(_checked, accepted=(int, float) if tp is float else (tp,))


def _checked(v: Any, accepted: tuple[type, ...]) -> Any:
    """``v`` when it is an instance of ``accepted``; a bool only where bool is accepted."""
    if not isinstance(v, accepted) or (isinstance(v, bool) and bool not in accepted):
        raise TypeError(f"expected {' or '.join(t.__name__ for t in accepted)}, got {type(v).__name__}")
    return v
