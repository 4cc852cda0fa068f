"""The one check for every decoded JSON input, against a field table of
(name, type, required) rows or a dataclass's fields. bool is never a number,
an int passes as a float, NaN and ±Infinity are refused, a string holding a
lone surrogate (which UTF-8 cannot encode) is refused, and numbers pass
through unconverted. A mismatch raises InputError worded
`<key.path> must be <expected>, not <actual type>`. Each field type is read
once, into its wording, its test and its conversion: a value that fits costs
one test, and the wording is used only to word a mismatch.
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
            raise InputError(f"{prefix + name} must be {_reading(kind)[0]}, not missing")
    return {name: _value(value[name], kind, prefix + name, closed)
            for name, kind, _ in table if name in value}


def from_json(cls, value, what: str = "", closed: bool = False):
    """The dataclass `cls` built from the JSON object `value`, checked against its fields."""
    return cls(**check_object(value, dataclass_fields(cls), what, closed))


def _value(value, kind, path: str, closed: bool):
    _, test, convert = _reading(kind)
    if not test(value):
        raise _mismatch(path, kind, value)
    return value if convert is None or value is None else convert(value, path, closed)


_PLAIN = {
    str: ("a string", lambda v: isinstance(v, str) and not _SURROGATE.search(v)),
    int: ("an integer", lambda v: isinstance(v, int) and not isinstance(v, bool)),
    float: ("a number", lambda v: isinstance(v, int) and not isinstance(v, bool)
            or isinstance(v, float) and math.isfinite(v)),
    bool: ("true or false", lambda v: isinstance(v, bool)),
    list: ("a list", lambda v: isinstance(v, list)),
    dict: ("a JSON object", lambda v: isinstance(v, dict)),
    object: ("a JSON value", lambda v: True),
    type(None): ("null", lambda v: v is None),
}


@cache
def _reading(kind) -> tuple:
    """(wording, test, convert) for a field type. `test` tells whether a decoded
    JSON value fits it; `convert(value, path, closed)`, where not None, builds
    the field's value from a value that fits and is not null."""
    if kind in _PLAIN:
        return (*_PLAIN[kind], None)
    origin, args = typing.get_origin(kind), typing.get_args(kind)
    if origin in (typing.Union, types.UnionType):
        arms = [_reading(arm) for arm in args]
        tests = [test for _, test, _ in arms]
        # a value that is not null is converted as the X of X | None
        return (" or ".join(wording for wording, _, _ in arms),
                lambda v: any(test(v) for test in tests), arms[0][2])
    if origin is tuple:  # tuple[X, ...], a JSON list
        wording, test, _ = _reading(args[0])
        return (f"a list of {wording.split(' ', 1)[1]}s",
                lambda v: isinstance(v, list) and all(map(test, v)), lambda v, *_: tuple(v))
    if isinstance(kind, EnumMeta):
        values = [m.value for m in kind]
        return ("one of " + ", ".join(map(repr, values)),
                lambda v: isinstance(v, str) and v in values, lambda v, *_: kind(v))
    if isinstance(kind, tuple):  # a nested field table
        def convert(v, path, closed):
            return check_object(v, kind, closed=closed, path=path)
    elif dataclasses.is_dataclass(kind):
        table = dataclass_fields(kind)

        def convert(v, path, closed):
            return kind(**check_object(v, table, closed=closed, path=path))
    else:  # dict[str, X]
        def convert(v, path, closed):
            return {k: _value(x, args[1], f"{path}.{k}", closed) for k, x in v.items()}
    return (*_PLAIN[dict], convert)


def _mismatch(path: str, kind, value) -> InputError:
    expected, actual = _reading(kind)[0], _actual(kind, value)
    return InputError(f"{path} must be {expected}, not {actual}" if path
                      else f"expected {expected}, not {actual}")


def _actual(kind, value) -> str:
    """The wording of a value that does not fit `kind`; a list's first bad item
    is worded by the same rules."""
    if value is None:
        return "null"
    if isinstance(value, float) and not math.isfinite(value):
        return json.dumps(value)  # NaN, Infinity or -Infinity
    if isinstance(value, str) and _reading(kind)[0].startswith("one of"):
        return repr(value)  # a string outside an Enum
    if isinstance(value, str) and _SURROGATE.search(value):
        return "a string holding a lone surrogate"
    if isinstance(value, list) and typing.get_origin(kind) is tuple:
        item = typing.get_args(kind)[0]
        return "a list holding " + next(_actual(item, v) for v in value if not _reading(item)[1](v))
    return type(value).__name__
