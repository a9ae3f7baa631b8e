"""The JSON kinds of the documents semarm reads, and the one check of each.

A failure reads ``<part> must be <noun>`` for a value of the wrong kind or
``<part>: missing key '<k>'`` for an absent entry.
"""

from __future__ import annotations

import json
import math
from typing import Callable, NamedTuple


class Kind(NamedTuple):
    accepts: Callable[[object], bool]
    noun: str


def _is_number(value) -> bool:
    try:  # math.isfinite overflows on an int beyond the float range
        return type(value) in (int, float) and math.isfinite(value)
    except OverflowError:
        return False


def array_of(kind: Kind, noun: str) -> Kind:
    return Kind(lambda v: type(v) is list and all(map(kind.accepts, v)), noun)


OBJECT = Kind(lambda v: type(v) is dict, "an object")
ARRAY = Kind(lambda v: type(v) is list, "an array")
STRING = Kind(lambda v: type(v) is str, "a string")
BOOLEAN = Kind(lambda v: type(v) is bool, "a boolean")
INTEGER = Kind(lambda v: type(v) is int, "an integer")
NUMBER = Kind(_is_number, "a number")  # an int or float, not a bool, finite, fitting a float
STRINGS = array_of(STRING, "an array of strings")
INTEGERS = array_of(INTEGER, "an array of integers")
PROPERTY = Kind(lambda v: type(v) in (str, bool) or _is_number(v), "a string, number or boolean")


def checked(value, kind: Kind, part: str, error: type[Exception] = ValueError):
    """``value``, or ``error`` if it is not of ``kind``."""
    if not kind.accepts(value):
        raise error(f"{part} must be {kind.noun}")
    return value


def entry(doc: dict, key: str, kind: Kind, part: str, name: str = "", error=ValueError):
    """Required entry ``key`` of object ``part``, checked as ``name`` or ``<part> '<key>'``."""
    if key not in doc:
        raise error(f"{part}: missing key {key!r}")
    return checked(doc[key], kind, name or f"{part} {key!r}", error)


def load(source, name: str, error: type[Exception] = ValueError):
    """The JSON document in text, bytes or a readable stream, named in its error."""
    try:
        return json.loads(source.read() if hasattr(source, "read") else source)
    except ValueError as exc:  # JSONDecodeError, or bytes that are not UTF-8
        raise error(f"{name}: invalid JSON: {exc}") from exc
