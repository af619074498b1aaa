"""Every JSON format of `schema.FORMATS`, fuzzed from its own shape.

A payload is drawn to fit the format's shape, or, so that changes also
reach the checks past the decoder, taken from the valid payloads that
`test_testers` ships (every property's witness and its fields, the
certificates and the decomposition). Then one key path is changed:
dropped, emptied, or retyped to {}, [], "x", 1.5, true or null. Each
decoder of the format must then return or raise ValueError, never another
exception. A format's decoders are its public `*_from_json` function, if it
has one, and, for a witness field, `schema.check` followed by the field's
codec; a witness is replayed whole, drawn with the fields of one property.
A format added to the table without a decoder fails the first test, so
every new format is fuzzed.
"""

import contextlib
import copy
import functools
import io
import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from sidlab import schema
from sidlab.bigraph import from_json_dict
from sidlab.bigraphon import bigraphon_from_json
from sidlab.checkers import decomposition_from_json
from sidlab.cli import _write_json
from sidlab.folds import fold_from_json
from sidlab.percolation import certificate_from_json
from sidlab.schema import FORMATS, INT, NUMBER, STRING, Map, Object, check
from sidlab.testers import _CODECS, PROPERTIES, fractional_from_json, replay_witness, report_to_json
from test_testers import PAYLOADS, shipped_report

PUBLIC = {
    "bigraph": from_json_dict,
    "colored bigraph": from_json_dict,
    "step bigraphon": bigraphon_from_json,
    "fold": fold_from_json,
    "left certificate": certificate_from_json,
    "edge certificate": certificate_from_json,
    "decomposition": decomposition_from_json,
    "fractional bigraph": fractional_from_json,
    "witness": replay_witness,
}


def decoders(fmt):
    """The public decoder of fmt, and check-then-codec for a witness field."""
    found = [PUBLIC[fmt]] if fmt in PUBLIC else []
    if fmt in _CODECS:
        def field(d):
            check(fmt, d)
            return _CODECS[fmt][1](d)
        found.append(field)
    return found


# a few names, so that vertices repeat and edges meet them ("left" and
# "edge" are the certificate modes, "1" and "2" colors), and numbers that
# often make weights sum to 1, so that some payloads get past their decoder
NAMES = st.sampled_from(["a", "b", "c", "1", "2", "left", "edge"])
SCALARS = {STRING: NAMES, INT: st.integers(-1, 3),
           NUMBER: st.one_of(st.sampled_from([1, 0.5, 0, 2, -1]), st.floats(-1.0, 2.0))}


def payloads(shape):
    """Payloads that fit shape, with at most three entries per list or map."""
    if isinstance(shape, Object):
        fields = {key: (payloads(item), required)
                  for key, (item, required) in shape.fields.items()}
        return st.fixed_dictionaries(
            {key: s for key, (s, required) in fields.items() if required},
            optional={key: s for key, (s, required) in fields.items() if not required})
    if isinstance(shape, Map):
        return st.dictionaries(NAMES, payloads(shape.value), max_size=3)
    if isinstance(shape, schema._Array):
        if shape.size is None:
            return st.lists(payloads(shape.items[0]), max_size=3)
        return st.tuples(*map(payloads, shape.items)).map(list)
    return SCALARS[shape]


def witnesses(name):
    """Witness payloads holding the fields of the property called name."""
    shape = Object("witness", {key: FORMATS[fmt] for key, fmt in PROPERTIES[name].witness})
    return payloads(shape).map(lambda d: {"property": name, **d})


@functools.cache
def valid_payloads():
    """The valid payloads that the tester tests ship, by format."""
    found = {name: [make()] for name, (make, _) in PAYLOADS.items()}
    for name, prop in PROPERTIES.items():
        witness = json.loads(json.dumps(report_to_json(shipped_report(name))))["witness"]
        found.setdefault("witness", []).append(witness)
        for key, field in prop.witness:
            found.setdefault(field, []).append(witness[key])
    found["fold"] = [fold for folds in found["fold list"] for fold in folds]
    return found


def drawn(fmt):
    shaped = (st.sampled_from(sorted(PROPERTIES)).flatmap(witnesses) if fmt == "witness"
              else payloads(FORMATS[fmt]))
    valid = valid_payloads().get(fmt)
    return st.one_of(shaped, st.sampled_from(valid)) if valid else shaped


def key_paths(node, path=()):
    yield path
    children = (node.items() if isinstance(node, dict)
                else enumerate(node) if isinstance(node, list) else ())
    for step, child in children:
        yield from key_paths(child, path + (step,))


CHANGES = ("drop", "empty", {}, [], "x", 1.5, True, None)


def changed(payload, path, change):
    """payload with the value at path dropped, emptied or replaced by change."""
    if not path:
        return type(payload)() if change in ("drop", "empty") else copy.deepcopy(change)
    payload = copy.deepcopy(payload)
    parent = payload
    for step in path[:-1]:
        parent = parent[step]
    if change == "drop":
        del parent[path[-1]]
    elif change == "empty":
        parent[path[-1]] = type(parent[path[-1]])()
    else:
        parent[path[-1]] = copy.deepcopy(change)
    return payload


def test_every_format_has_a_decoder():
    assert [fmt for fmt in FORMATS if not decoders(fmt)] == []


@pytest.mark.parametrize("fmt", list(FORMATS))
@given(data=st.data())
@settings(max_examples=40, deadline=None, derandomize=True)
def test_a_changed_key_returns_or_raises_value_error(fmt, data):
    payload = data.draw(drawn(fmt), label="payload")
    path = data.draw(st.sampled_from(list(key_paths(payload))), label="path")
    change = data.draw(st.sampled_from(CHANGES), label="change")
    broken = changed(payload, path, change)
    for decode in decoders(fmt):
        try:
            decode(broken)
        except ValueError:
            pass


def written(payload) -> str:
    """What the CLI writes for payload on stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        _write_json(payload, None)
    return out.getvalue()


@pytest.mark.parametrize("fmt", list(FORMATS))
@given(data=st.data())
@settings(max_examples=40, deadline=None, derandomize=True)
def test_the_cli_writes_what_json_dumps_writes(fmt, data):
    """Every payload this file draws, as drawn and with one key path
    changed, is written byte for byte as json's indenting encoder writes
    it."""
    payload = data.draw(drawn(fmt), label="payload")
    path = data.draw(st.sampled_from(list(key_paths(payload))), label="path")
    change = data.draw(st.sampled_from(CHANGES), label="change")
    for obj in (payload, changed(payload, path, change)):
        assert written(obj) == json.dumps(obj, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("payload", [
    {}, [], {"a": {}}, {"a": []}, [[]], [{}], [[[]], {"b": [{}]}], {"z": {"y": {"x": []}}},
    {"nan": math.nan, "inf": [math.inf, -math.inf], "zero": -0.0, "tiny": 5e-324},
    {"text": "sidérurgie ☃ \U0001d11e \"q\" \\ \n\t\x00"}, ["é", {"ü": ["ß", {}]}],
    {"b": [1, 2.5, True, None, "x"], "a": {"k": [[1], [], [{"m": None}]]}},
    {1: [2], 3: {2.5: [1], 4: [[]], 0: "v"}}, {None: {True: [0]}}, ("t", ("u", {"v": ()})),
    "top", 7, math.nan, None,
], ids=repr)
def test_the_cli_writer_on_edge_values(payload):
    assert written(payload) == json.dumps(payload, sort_keys=True, indent=2) + "\n"
