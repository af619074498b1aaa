"""The JSON formats sidlab reads: FORMATS maps each format's name to its
shape, and `check` holds a value to a format, raising ValueError that names
the format and the key path of a fault (`fractional bigraph 'weights'[0][2]
must be a number`). The format named is the innermost Object around the
fault; key paths start afresh inside it. An array whose leaves are all one
scalar is checked a level at a time and reported whole (`bigraph 'v1' must
be a list of strings`). A JSON array may be a list or a tuple. Checks
across fields stay with each format's decoder.
"""

import json
import sys
from itertools import chain, repeat
from typing import Mapping

_ARRAY = (list, tuple)
_MAX = sys.float_info.max
_is_str = str.__instancecheck__


def _fault(name: str, path: str, what: str):
    raise ValueError(f"{name} {path} must be {what}" if path else f"{name} must be {what}")


class _Scalar:
    def __init__(self, what: str, each):
        self.what, self.each = what, each  # each: are all values of an iterable valid?
        self.flat = ((), self)

    def walk(self, value, name: str, path: str) -> None:
        if not self.each((value,)):
            _fault(name, path, self.what)


STRING = _Scalar("a string", lambda xs: all(map(_is_str, xs)))
INT = _Scalar("an int", lambda xs: all(type(x) is int for x in xs))  # not a bool
# NaN, the infinities and ints past the float range fail the bound
NUMBER = _Scalar("a finite number", lambda xs: all(
    isinstance(x, (int, float)) and not isinstance(x, bool) and abs(x) <= _MAX for x in xs))


class _Array:
    """`items` in order when `size` is their number, else items[0] repeated.
    When every leaf is one scalar, `flat` holds each level's size and it."""

    def __init__(self, what: str, items: tuple, size):
        self.what, self.items, self.size, self.flat = what, items, size, None
        inner = {getattr(item, "flat", None) for item in items}
        if len(inner) == 1 and None not in inner:
            sizes, leaf = inner.pop()
            self.flat = ((size,) + sizes, leaf)

    def walk(self, value, name: str, path: str) -> None:
        if self.flat is None:
            if not isinstance(value, _ARRAY) or self.size not in (None, len(value)):
                _fault(name, path, self.what)
            items = self.items if self.size else repeat(self.items[0])
            for i, (item, x) in enumerate(zip(items, value)):
                item.walk(x, name, f"{path}[{i}]")
            return
        sizes, leaf = self.flat
        level = (value,)
        for size in sizes:
            if not all(map(isinstance, level, repeat(_ARRAY))) or (
                    size is not None and set(map(len, level)) - {size}):
                _fault(name, path, self.what)
            level = tuple(chain.from_iterable(level))
        if not leaf.each(level):
            _fault(name, path, self.what)


def List(item, what: str) -> _Array:
    """A list of items, `what` naming them in the plural."""
    return _Array(f"a list of {what}", (item,), None)


def Fixed(what: str, *items) -> _Array:
    """A list of exactly these items, in this order."""
    return _Array(what, items, len(items))


class Pairs(_Array):
    """A list of [key..., value] entries that its decoder reads as a map,
    so a key given twice is refused."""

    def __init__(self, entry: _Array, what: str):
        super().__init__(f"a list of {what}", (entry,), None)

    def walk(self, value, name: str, path: str) -> None:
        super().walk(value, name, path)
        seen = set()
        for i, x in enumerate(value):
            key = json.dumps(x[:-1])[1:-1]
            if key in seen:
                raise ValueError(f"{name} {path}[{i}]: key {key} is named twice")
            seen.add(key)


class Map:
    """A JSON object with free-form keys, each holding a value."""

    def __init__(self, value):
        self.value = value

    def walk(self, value, name: str, path: str) -> None:
        if not isinstance(value, Mapping) or not all(map(_is_str, value)):
            _fault(name, path, "a JSON object")
        for key, x in value.items():
            self.value.walk(x, name, f"{path}[{key!r}]")


class Object:
    """A JSON object holding each key of `fields` but those ending in "?";
    other keys are ignored. Faults inside it are named by `name`."""

    def __init__(self, name: str, fields: Mapping):
        self.name = name
        self.fields = {key.rstrip("?"): (shape, not key.endswith("?"))
                       for key, shape in fields.items()}

    def walk(self, value, name: str = "", path: str = "") -> None:
        if not isinstance(value, Mapping):
            raise ValueError(f"{self.name} must be a JSON object")
        for key, (_, required) in self.fields.items():
            if required and key not in value:
                raise ValueError(f"{self.name} lacks {key!r}")
        for key, (shape, _) in self.fields.items():
            if key in value:
                shape.walk(value[key], self.name, repr(key))


_NAMES = List(STRING, "strings")
_EDGE = Fixed("a [left, right] string pair", STRING, STRING)
_EDGES = List(_EDGE, "[left, right] string pairs")
_NUMBERS = List(NUMBER, "finite numbers")
_BIGRAPH = {"v1": _NAMES, "v2": _NAMES, "edges?": _EDGES}
_BIGRAPHON = Object("step bigraphon", {"mu": _NUMBERS, "nu": _NUMBERS,
                                       "w": List(_NUMBERS, "number lists")})
_FOLDS = List(Object("fold", {"phi": Map(STRING), "left": _NAMES}), "folds")

FORMATS = {
    "bigraph": Object("bigraph", _BIGRAPH),
    "colored bigraph": Object("bigraph", {**_BIGRAPH, "edge_colors": List(INT, "ints")}),
    "step bigraphon": _BIGRAPHON,
    "bigraphon tuple": Map(_BIGRAPHON),
    "fold": _FOLDS.items[0],
    # a trajectory entry lists vertex ids in left mode and edges in edge mode
    "left certificate": Object("certificate", {"mode": STRING, "folds": _FOLDS,
                                               "trajectory": List(_NAMES, "string lists")}),
    "edge certificate": Object("certificate", {"mode": STRING, "folds": _FOLDS,
                                               "trajectory": List(_EDGES, "edge lists")}),
    "decomposition": Object("decomposition", {
        "bags": List(_NAMES, "string lists"),
        "edges?": List(Fixed("an integer pair", INT, INT), "integer pairs")}),
    "fractional bigraph": Object("fractional bigraph", {
        "vertices": _NAMES, "colors": List(INT, "ints"),
        "weights": Pairs(Fixed("a [subset, color, weight] triple", _NAMES, INT, NUMBER),
                         "[subset, color, weight] triples")}),
    "witness": Object("witness", {"property": STRING}),
    # witness fields
    "fold list": _FOLDS,
    "coloring": Pairs(Fixed("an [edge, color] pair", _EDGE, INT), "[edge, color] pairs"),
    "profile": Pairs(Fixed("a [subset, count] pair", _NAMES, NUMBER), "[subset, count] pairs"),
    "label map": Map(INT),
    "vector map": Map(_NUMBERS),
    "vector list": List(_NUMBERS, "number lists"),
    "vector": _NUMBERS,
    "number list": _NUMBERS,
    "color list": List(INT, "ints"),
}


def check(fmt: str, value) -> None:
    """Hold `value` to the shape of the format named `fmt` in FORMATS."""
    FORMATS[fmt].walk(value, fmt, "")
