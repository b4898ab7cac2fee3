"""One JSON codec for the package's result records.

A record is a dataclass that inherits ``Record``. Its fields are listed once,
in its class body; their resolved types drive both directions of the codec.

The byte contract: ``to_json`` writes exactly what
``json.dumps(self.as_dict(), sort_keys=True, indent=2) + "\n"`` writes. The
bytes are part of the format, since the golden digests are taken over them. It
does not run CPython's pure-Python encoder, which ``json.dumps`` falls back to
whenever an ``indent`` is given; ``_dumps`` has the C encoder write the leaves.

A ``Table`` is the package's one column table: read-only numpy columns that
stand for a list of row records. ``as_dict`` and the JSON documents hold it as
that list of row dicts; ``to_json`` writes it from the columns, without
building a row, and writes each distinct bit pattern of a column once, ints
and floats alike: equal bits always give equal text, so the bytes are those
of one text per leaf. ``from_json`` reads the rows' values straight into the
columns, without building a row either.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import itertools
import json
import types
import typing
from typing import Any, Callable, ClassVar, Iterable, Iterator, TypeVar

import numpy as np

_R = TypeVar("_R", bound="Record")
_T = TypeVar("_T", bound="Table")
_Decoder = Callable[[Any], Any]


class Record:
    """Mixin that gives a dataclass ``as_dict``/``from_dict`` and ``to_json``/``from_json``.

    ``as_dict`` turns nested records into dicts, tables into lists of row
    dicts and enums into their values, and hands every other value over as it
    is; a record keeps its fields, and nothing else, in its instance
    ``__dict__``. ``from_dict`` reads records, tables, enums, ``X | None``,
    ``list[X]``, ``tuple[X, ...]``, fixed tuples, ``dict[str, X]`` and
    scalars; a ``float`` field reads an ``int`` as a float. An absent key
    takes its field default. An unknown key, a missing required key, a value
    of the wrong type or out of range, or a broken ``__post_init__``
    invariant raises ``ValueError``.
    """

    def as_dict(self) -> dict[str, Any]:
        return _record_dict(self, rows=True)

    @classmethod
    def from_dict(cls: type[_R], d: dict[str, Any]) -> _R:
        decoders = _codec(cls)[1]
        try:
            return cls(**{key: decoders[key](value) for key, value in d.items()})
        except (AttributeError, KeyError, OverflowError, TypeError) as exc:
            raise ValueError(f"malformed {cls.__name__} document: {exc!r}") from exc

    def to_json(self) -> str:
        """``json.dumps(self.as_dict(), sort_keys=True, indent=2) + "\\n"``, byte for byte."""
        return _dumps(_record_dict(self, rows=False)) + "\n"

    @classmethod
    def from_json(cls: type[_R], text: str | bytes) -> _R:
        return cls.from_dict(json.loads(text))


class Table:
    """Mixin for a ``@dataclass(frozen=True, eq=False)`` of equal-length array
    columns that stands for the list of its ``row`` dataclass's records.

    The fields are the row's, in its order; ``__dict__`` holds each column as
    a read-only view of the array given. A ``float`` row field takes a float64
    (n,) column, an ``int`` an int64 (n,) one, a fixed tuple of k of either an
    (n, k) one; any other column, or unequal lengths, raise ``ValueError``.
    Rows give Python scalars and tuples. ``==`` compares the columns (NaN
    equal to NaN), where a dataclass-generated ``__eq__`` would raise.
    """

    row: ClassVar[type]

    def __post_init__(self) -> None:
        for field, dtype, shape in _column_spec(type(self)):
            column = getattr(self, field)
            if not (isinstance(column, np.ndarray) and column.dtype == dtype
                    and column.ndim and column.shape[1:] == shape):
                raise ValueError(f"{type(self).__name__} column {field} must be a {dtype} array with row shape {shape}")
            view = column.view()
            view.flags.writeable = False
            object.__setattr__(self, field, view)
        if len({len(column) for column in vars(self).values()}) > 1:
            raise ValueError(f"{type(self).__name__} columns differ in length")

    def __len__(self) -> int:
        return len(next(iter(vars(self).values())))

    def __getitem__(self, i: int) -> Any:
        columns = vars(self).values()
        return self.row(*(c.item(i) if c.ndim == 1 else tuple(c[i].tolist()) for c in columns))

    def __iter__(self) -> Iterator[Any]:
        return map(self.row, *map(_values, vars(self).values()))

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return all(np.array_equal(a, b, equal_nan=True) for a, b in zip(vars(self).values(), vars(other).values()))

    def take(self: _T, index: Any) -> _T:
        """The rows at ``index``, in its order, as a new table."""
        return type(self)(*(column[index] for column in vars(self).values()))

    def row_dicts(self) -> list[dict[str, Any]]:
        """Each row's ``as_dict``, built from the columns."""
        names = tuple(vars(self))
        return [dict(zip(names, values)) for values in zip(*map(_values, vars(self).values()))]


@functools.cache
def _column_spec(cls: type) -> tuple[tuple[str, np.dtype, tuple[int, ...]], ...]:
    """Each column's name, dtype and row shape, from the ``row`` field of the same name."""
    dtypes = {float: np.dtype(np.float64), int: np.dtype(np.int64)}
    hints = typing.get_type_hints(cls.row)
    spec = []
    for f in dataclasses.fields(cls.row):
        tp = hints[f.name]
        args = typing.get_args(tp) if typing.get_origin(tp) is tuple else (tp,)
        if len(set(args)) != 1 or args[0] not in dtypes:
            raise TypeError(f"{cls.__name__}: no column type for {f.name}: {tp}")
        spec.append((f.name, dtypes[args[0]], () if tp is args[0] else (len(args),)))
    return tuple(spec)


def _values(column: np.ndarray) -> list[Any]:
    """A column's values as Python scalars, or as tuples of them for an (n, k) column."""
    return list(map(tuple, column.tolist())) if column.ndim > 1 else column.tolist()


# Writes a list of scalars as their JSON texts between "[" and "]", separated
# by NULs; ``default`` is JSONEncoder's, which raises TypeError.
_LEAF_WRITER = json.encoder.c_make_encoder(
    None, json.JSONEncoder().default, json.encoder.encode_basestring_ascii, None, ": ", "\0", False, False, True
)
_CONTAINERS = (dict, list, tuple, Table)


def _dumps(doc: Any) -> str:
    """``json.dumps(doc, sort_keys=True, indent=2)``, byte for byte, in C except for one walk,
    where each ``Table`` in ``doc`` stands for its list of row dicts.

    The walk lays the document out as a ``%`` template: brackets, indents and
    keys (each ``%`` doubled), with a ``%s`` slot per scalar leaf in document
    order. The C encoder then writes every leaf in one call. It escapes a NUL
    inside a string, so splitting its output on NUL gives one text per slot.
    A table's rows share one layout, taken from its first row, which
    ``_table_texts`` fills from the columns; the filled rows enter the
    template as text, each ``%`` doubled.
    An unsupported leaf raises ``TypeError``, as in ``json.dumps``. Keys must be
    ``str``, as every record's are; ``json.dumps`` would also write number,
    bool and None keys, and here they raise ``TypeError``.
    """
    layout: list[str] = []
    leaves: list[Any] = []
    levels: list[tuple[Any, ...]] = []  # per depth: its strings and key-piece caches
    append, leaf = layout.append, leaves.append

    def walk(v: Any, depth: int) -> None:
        if depth == len(levels):
            inner = "\n" + "  " * (depth + 1)
            levels.append(("{" + inner, "[" + inner, "," + inner, inner[:-2] + "}", inner[:-2] + "]", {}, {}))
        dict_open, list_open, sep, dict_close, list_close, first_keys, next_keys = levels[depth]
        if not v:
            append("{}" if isinstance(v, dict) else "[]")
            return
        if isinstance(v, dict):
            keys, prefix = first_keys, dict_open
            for k, x in sorted(v.items()):
                piece = keys.get(k)
                if piece is None:
                    piece = keys[k] = prefix + json.encoder.encode_basestring_ascii(k).replace("%", "%%") + ": "
                append(piece)
                if isinstance(x, _CONTAINERS):
                    walk(x, depth + 1)
                else:
                    append("%s")
                    leaf(x)
                keys, prefix = next_keys, sep
            append(dict_close)
        elif isinstance(v, Table):
            columns = vars(v)
            first = {name: _values(column[:1])[0] for name, column in columns.items()}
            mark, marked = len(layout), len(leaves)
            walk(first, depth + 1)
            row = "".join(layout[mark:])
            del layout[mark:], leaves[marked:]
            body = list_open + row + (sep + row) * (len(v) - 1) + list_close
            append((body % _table_texts(v)).replace("%", "%%"))
        else:
            prefix = list_open
            for x in v:
                append(prefix)
                if isinstance(x, _CONTAINERS):
                    walk(x, depth + 1)
                else:
                    append("%s")
                    leaf(x)
                prefix = sep
            append(list_close)

    if isinstance(doc, _CONTAINERS):
        walk(doc, 0)
    else:
        append("%s")
        leaf(doc)
    template = "".join(layout)
    layout.clear()
    texts = "".join(_LEAF_WRITER(leaves, 0))[1:-1].split("\0") if leaves else []
    leaves.clear()
    return template % tuple(texts)


def _table_texts(table: Table) -> tuple[str, ...]:
    """The JSON texts of a non-empty table's leaves, row by row, each row in
    its layout's order: the keys sorted, then each (n, k) column's k values.

    Each column's leaves are written once per distinct bit pattern, so equal
    bits always give equal text (-0.0, each NaN payload and the infinities
    included), every column's in one C-encoder call.
    """
    n = len(table)
    distinct, at, k = [], [], 0  # per column, its distinct values and each leaf's index into the texts
    for _, column in sorted(vars(table).items()):
        bits, inverse = np.unique(column.view(np.uint64), return_inverse=True)
        distinct.append(bits.view(column.dtype))
        at.append(inverse.reshape(n, -1) + k)
        k += len(bits)
    # The Python leaves are made after the loop, and dropped once written: made between its
    # numpy temporaries, they left a heap that raised the benchmark's peak RSS by 1-2 MB.
    texts = "".join(_LEAF_WRITER([v for values in distinct for v in values.tolist()], 0))[1:-1].split("\0")
    return tuple(np.array(texts, dtype=object)[np.concatenate(at, axis=1)].ravel().tolist())


@functools.cache
def _codec(cls: type) -> tuple[tuple[str, ...], dict[str, _Decoder]]:
    """The fields that can hold a record or an enum, and a decoder per field."""
    hints = typing.get_type_hints(cls)
    names = [f.name for f in dataclasses.fields(cls)]
    nested = tuple(n for n in names if _holds_record(hints[n]))
    return nested, {n: _decoder(hints[n]) for n in names}


def _holds_record(tp: Any) -> bool:
    if typing.get_origin(tp) is None and isinstance(tp, type):
        return issubclass(tp, (Record, Table, enum.Enum))
    return any(_holds_record(arg) for arg in typing.get_args(tp))


def _record_dict(record: Record, rows: bool) -> dict[str, Any]:
    """``record``'s fields as a dict, nested records and enums encoded; a table
    becomes its row dicts when ``rows``, and stays as it is for ``_dumps`` otherwise."""
    d = dict(vars(record))
    for name in _codec(type(record))[0]:
        d[name] = _encode(d[name], rows)
    return d


def _encode(value: Any, rows: bool) -> Any:
    if isinstance(value, Record):
        return _record_dict(value, rows)
    if isinstance(value, Table):
        return value.row_dicts() if rows else value
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, (list, tuple)):
        return type(value)(_encode(v, rows) for v in value)
    if isinstance(value, dict):
        return {k: _encode(v, rows) for k, v in value.items()}
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
    if issubclass(tp, Table):
        return functools.partial(_decode_table, tp)
    if issubclass(tp, (Record, enum.Enum)):
        return tp.from_dict if issubclass(tp, Record) else tp
    if tp is float:
        return _float
    return functools.partial(_checked, accepted=(tp,))


def _decode_table(cls: type[_T], v: Any) -> _T:
    """A table from its list of row dicts, gathered column by column.

    Each row is a dict with exactly the row's keys. Each leaf is what the
    row's field takes: an int for an int, an int or a float for a float
    (read as a float), a list or tuple of k of them for a fixed tuple; its
    type is checked once per distinct type in the column. The table's own
    ``__post_init__`` then checks the row invariants over the columns.
    """
    rows = _checked(v, (list, tuple))
    spec = _column_spec(cls)
    _check_types(set(map(type, rows)), (dict,))
    if any(len(row) != len(spec) for row in rows):
        raise KeyError(f"{cls.row.__name__} rows need exactly the keys {[name for name, _, _ in spec]}")
    columns = []
    for name, dtype, shape in spec:
        values = [row[name] for row in rows]
        if shape:
            _check_types(set(map(type, values)), (list, tuple))
            if any(len(x) != shape[0] for x in values):
                raise ValueError(f"{name} needs {shape[0]} values")
            values = list(itertools.chain.from_iterable(values))
        kinds = set(map(type, values))
        _check_types(kinds, (int, float) if dtype == np.float64 else (int,))
        if dtype == np.float64 and kinds - {float}:
            values = list(map(float, values))
        columns.append(np.array(values, dtype=dtype).reshape(len(rows), *shape))
    return cls(*columns)


def _float(v: Any) -> float:
    """An int or float as a float, so that a read-back record writes its canonical bytes."""
    return float(_checked(v, (int, float)))


def _checked(v: Any, accepted: tuple[type, ...]) -> Any:
    """``v`` when it is an instance of ``accepted``; a bool only where bool is accepted."""
    _check_types((type(v),), accepted)
    return v


def _check_types(kinds: Iterable[type], accepted: tuple[type, ...]) -> None:
    """Raise ``TypeError`` unless each of ``kinds`` is a subclass of ``accepted``,
    and not of bool where bool is not accepted."""
    for kind in kinds:
        if not issubclass(kind, accepted) or (issubclass(kind, bool) and bool not in accepted):
            raise TypeError(f"expected {' or '.join(t.__name__ for t in accepted)}, got {kind.__name__}")
