"""The one check for every decoded JSON input, against a field table of
(name, type, required) rows or a dataclass's fields. bool is never a number,
an int passes as a float, NaN and ±Infinity are refused, a string holding a
lone surrogate (which UTF-8 cannot encode) is refused, and numbers pass
through unconverted. A mismatch raises InputError worded
`<key.path> must be <expected>, not <actual type>`. Each kind's typing shape
(origin and arguments) is worked out once, and a plain string, bool or float
that fits its field is returned before any dispatch.
"""

from __future__ import annotations

import dataclasses
import json
import math
import re
import types
import typing
from enum import EnumMeta
from functools import cache

Field = tuple[str, object, bool]  # name, type, required; the type may be a nested table

_SURROGATE = re.compile("[\ud800-\udfff]")


class InputError(ValueError):
    """A decoded JSON value that does not fit its field table."""


@cache
def dataclass_fields(cls) -> tuple[Field, ...]:
    """The field table of a dataclass; a field without a default is required."""
    hints = typing.get_type_hints(cls)
    return tuple((f.name, hints[f.name], f.default is f.default_factory is dataclasses.MISSING)
                 for f in dataclasses.fields(cls))


def check_object(value, table: tuple[Field, ...], what: str = "", closed: bool = False,
                 path: str = "") -> dict:
    """The checked fields of the JSON object `value`, found at key `path` of the
    input; `what` names a whole input that is not an object. With `closed`, keys
    that name no field are refused, in nested objects too."""
    if not isinstance(value, dict):
        raise _mismatch(path or what, dict, value)
    prefix = f"{path}." if path else ""
    names = [name for name, _, _ in table]
    unknown = [key for key in value if key not in names] if closed else []
    if unknown:
        raise InputError(f"{path or what} must have only the fields {', '.join(names)}, "
                         f"not {unknown[0]!r}")
    for name, kind, required in table:
        if required and name not in value:
            raise InputError(f"{prefix + name} must be {_describe(kind)}, not missing")
    return {name: _value(value[name], kind, prefix + name, closed)
            for name, kind, _ in table if name in value}


def from_json(cls, value, what: str = "", closed: bool = False):
    """The dataclass `cls` built from the JSON object `value`, checked against its fields."""
    return cls(**check_object(value, dataclass_fields(cls), what, closed))


@cache
def _shape(kind) -> tuple:
    return typing.get_origin(kind), typing.get_args(kind)


def _value(value, kind, path: str, closed: bool):
    if type(value) is kind and (kind is bool or kind is str and not _SURROGATE.search(value)
                                or kind is float and math.isfinite(value)):
        return value
    if isinstance(kind, tuple):
        return check_object(value, kind, closed=closed, path=path)
    if dataclasses.is_dataclass(kind):
        return kind(**check_object(value, dataclass_fields(kind), closed=closed, path=path))
    origin, args = _shape(kind)
    if origin is dict and isinstance(value, dict):
        return {k: _value(v, args[1], f"{path}.{k}", closed) for k, v in value.items()}
    if not _fits(value, kind):
        raise _mismatch(path, kind, value)
    if value is None:
        return None
    if origin in (typing.Union, types.UnionType):
        kind = args[0]  # the X of X | None
        origin = _shape(kind)[0]
    if origin is tuple:
        return tuple(value)
    return kind(value) if isinstance(kind, EnumMeta) else value


def _fits(value, kind) -> bool:
    origin, args = _shape(kind)
    if origin in (typing.Union, types.UnionType):
        return any(_fits(value, a) for a in args)
    if origin is tuple:  # tuple[X, ...], a JSON list
        return isinstance(value, list) and all(_fits(v, args[0]) for v in value)
    if isinstance(kind, EnumMeta):
        return isinstance(value, str) and value in [m.value for m in kind]
    if kind is int or kind is float:
        number = isinstance(value, (int, float)) and not isinstance(value, bool)
        return number and (isinstance(value, int) or kind is float and math.isfinite(value))
    if kind is str:
        return isinstance(value, str) and not _SURROGATE.search(value)
    return kind is object or (kind in _NAMES and isinstance(value, kind))


_NAMES = {str: "a string", int: "an integer", float: "a number", bool: "true or false",
          list: "a list", dict: "a JSON object", object: "a JSON value", type(None): "null"}


def _describe(kind) -> str:
    origin, args = _shape(kind)
    if origin in (typing.Union, types.UnionType):
        return " or ".join(map(_describe, args))
    if origin is tuple:
        return f"a list of {_describe(args[0]).split(' ', 1)[1]}s"
    if isinstance(kind, EnumMeta):
        return "one of " + ", ".join(repr(m.value) for m in kind)
    return _NAMES.get(kind, "a JSON object")


def _mismatch(path: str, kind, value) -> InputError:
    expected = _describe(kind)
    origin, args = _shape(kind)
    if value is None:
        actual = "null"
    elif isinstance(value, float) and not math.isfinite(value):
        actual = json.dumps(value)  # NaN, Infinity or -Infinity
    elif isinstance(value, str) and expected.startswith("one of"):
        actual = repr(value)  # a string outside an Enum
    elif isinstance(value, str) and _SURROGATE.search(value):
        actual = "a string holding a lone surrogate"
    elif isinstance(value, list) and origin is tuple:
        actual = "a list holding " + next(type(v).__name__ for v in value if not _fits(v, args[0]))
    else:
        actual = type(value).__name__
    return InputError(f"{path} must be {expected}, not {actual}" if path
                      else f"expected {expected}, not {actual}")
