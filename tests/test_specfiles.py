"""Spec parsing, and the shape check against the JSON schemas it replaced.

The schema dicts below are the reference for the shape check in
``specfiles``: the oracle tests run malformed and mutated documents
through both and require the same verdict, and on documents with a single
fault the same JSON path.  jsonschema is needed only here.
"""

import copy
import hashlib
import json
import os
import random
import re
import subprocess
import sys
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st
from jsonschema.exceptions import best_match
from jsonschema.validators import validator_for
from families import (LabelGroupAction, LabelGroupoid, label_groupoid,
                      label_view, pair_groupoid_spec, regular_action_spec,
                      semigroup_from_products, symmetric_inverse_monoid)
from test_transformation import symmetric_group_actions

import groupoidal
import catalog
from groupoidal.cli import main
from groupoidal.specfiles import (FORMAT_TAG, SpecContentError, SpecFileError,
                                  _parse_action, _parse_group,
                                  _parse_groupoid, _parse_semigroup,
                                  default_catalog_dir,
                                  load_document, parse_document,
                                  resolve_input)


# --- the reference schemas ----------------------------------------------------

_BOUNDS_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "bisection": {"type": "integer", "minimum": 1},
        "iso": {"type": "integer", "minimum": 1},
        "orbit": {"type": "integer", "minimum": 1},
    },
}

_NAME_TABLE = {"type": "object", "additionalProperties": {"type": "string"}}

# An arrow or an element of a group or semigroup appears in "a b" table
# keys, so its name must split back out of a key as one name.
_KEY_NAMES = {"type": "array", "minItems": 1,
              "items": {"type": "string", "minLength": 1,
                        "not": {"type": "string", "pattern": "\\s"}}}

_GROUP_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "oneOf": [
        {"required": ["preset"]},
        {"required": ["elements", "table"]},
    ],
    "properties": {
        "preset": {"type": "string"},
        "elements": _KEY_NAMES,
        "table": _NAME_TABLE,
    },
}

_ACTION_PROPERTIES = {
    "format": {"const": FORMAT_TAG},
    "kind": {"const": "action"},
    "name": {"type": "string"},
    "ring": {"type": "string"},
    "bounds": _BOUNDS_SCHEMA,
    "group": _GROUP_SCHEMA,
    "space": {"type": "array", "items": {"type": "string"}, "minItems": 1},
    "domains": {"type": "object",
                "additionalProperties": {"type": "array",
                                         "items": {"type": "string"}}},
    "maps": {"type": "object", "additionalProperties": _NAME_TABLE},
}

_ACTION_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["format", "kind", "group", "space", "domains", "maps"],
    "properties": _ACTION_PROPERTIES,
}

SCHEMAS = {
    "groupoid": {
        "type": "object",
        "additionalProperties": False,
        "required": ["format", "kind", "arrows", "units", "inverse",
                     "compose"],
        "properties": {
            "format": {"const": FORMAT_TAG},
            "kind": {"const": "groupoid"},
            "name": {"type": "string"},
            "ring": {"type": "string"},
            "bounds": _BOUNDS_SCHEMA,
            "arrows": _KEY_NAMES,
            "units": {"type": "array", "items": {"type": "string"}},
            "inverse": _NAME_TABLE,
            "compose": _NAME_TABLE,
        },
    },
    "action": _ACTION_SCHEMA,
    "semigroup": {
        "type": "object",
        "additionalProperties": False,
        "required": ["format", "kind", "elements", "table", "star"],
        "properties": {
            "format": {"const": FORMAT_TAG},
            "kind": {"const": "semigroup"},
            "name": {"type": "string"},
            "ring": {"type": "string"},
            "bounds": _BOUNDS_SCHEMA,
            "elements": _KEY_NAMES,
            "table": _NAME_TABLE,
            "star": _NAME_TABLE,
        },
    },
    "pair": {
        "type": "object",
        "additionalProperties": False,
        "required": ["format", "kind", "left", "right"],
        "properties": {
            "format": {"const": FORMAT_TAG},
            "kind": {"const": "pair"},
            "name": {"type": "string"},
            "ring": {"type": "string"},
            "bounds": _BOUNDS_SCHEMA,
            "left": {"oneOf": [{"type": "string"}, _ACTION_SCHEMA]},
            "right": {"oneOf": [{"type": "string"}, _ACTION_SCHEMA]},
        },
    },
}

VALIDATORS = {kind: validator_for(schema)(schema)
              for kind, schema in SCHEMAS.items()}


def doc_bytes(payload):
    return json.dumps(payload).encode()


def groupoid_doc(**overrides):
    base = {
        "format": "groupoidal/1",
        "kind": "groupoid",
        "name": "probe",
        "arrows": ["u"],
        "units": ["u"],
        "inverse": {"u": "u"},
        "compose": {"u u": "u"},
    }
    base.update(overrides)
    return base


def catalog_json(name):
    with open(resolve_input(name), "rb") as fh:
        return json.load(fh)


def test_catalog_documents_parse():
    for name in (catalog.action_names() + catalog.groupoid_names()
                 + catalog.semigroup_names() + catalog.pair_names()):
        doc = catalog.load(name)
        assert doc.name == name
        assert doc.kind in ("action", "groupoid", "semigroup", "pair")


def test_schemas_are_valid_against_their_metaschema():
    for schema in SCHEMAS.values():
        validator_for(schema).check_schema(schema)


def test_runtime_does_not_import_jsonschema():
    src = os.path.dirname(os.path.dirname(groupoidal.__file__))
    probe = ("import sys, groupoidal.cli; "
             "assert 'jsonschema' not in sys.modules, 'jsonschema imported'")
    env = dict(os.environ, PYTHONPATH=src)
    result = subprocess.run([sys.executable, "-c", probe], env=env,
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


# --- the oracle: the shape check against the schemas --------------------------

def reference_fault(data, kind):
    """None if the schema of ``kind`` accepts ``data``; else the path of
    jsonschema's best match, and whether every error lies at that one
    path (a single fault)."""
    errors = list(VALIDATORS[kind].iter_errors(data))
    if not errors:
        return None
    path = "/".join(map(str, best_match(errors).absolute_path)) or "document"
    single = len({tuple(e.absolute_path) for e in errors}) == 1
    return path, single


# The top-level format tag and kind are checked ahead of the shape check,
# with their own messages; for these only the verdict is compared.
PRECHECKED = ("format", "kind")


def shape_fault(data):
    """The path that parse_document blames for a shape fault, or None when
    it finds none (the document may still fail later, on its content)."""
    try:
        parse_document(doc_bytes(data))
    except SpecFileError as exc:
        message = str(exc)
    except SpecContentError:
        return None
    else:
        return None
    for field in PRECHECKED:
        if message.startswith(f"<input>: {field} must be"):
            return field
    prefix = "<input>: schema violation at "
    if not message.startswith(prefix):
        return None
    return message[len(prefix):].split(": ", 1)[0]


def float_bound(data):
    """The one intended difference: the schemas accept a bound such as
    4.0, which the shape check rejects, as the CLI's bound flags do."""
    docs = [data] + [data.get(side) for side in ("left", "right")]
    return any(isinstance(doc, dict) and isinstance(doc.get("bounds"), dict)
               and any(isinstance(v, float) for v in doc["bounds"].values())
               for doc in docs)


def assert_agrees_with_reference(data, kind):
    """Returns how far the comparison went: "float bound", "accepted",
    "rejected", or "same path"."""
    reference, got = reference_fault(data, kind), shape_fault(data)
    if float_bound(data):
        assert got is not None, data
        return "float bound"
    if reference is None:
        assert got is None, (got, data)
        return "accepted"
    assert got is not None, (reference, data)
    path, single = reference
    if not single or got in PRECHECKED:
        return "rejected"
    assert got == path, data
    return "same path"


def malformed_documents():
    """For one catalog document of each kind: an unknown field, a missing
    required field, each top-level field replaced by a wrong type, and two
    fields broken at once at different depths."""
    for name in ("pair_groupoid_2", "z2_partial_3pt", "sym_inv_2",
                 "pair_partial_relabeled"):
        data = catalog_json(name)
        yield dict(data, extra=1)
        keys = [k for k in data if k not in ("format", "kind")]
        for key in keys:
            yield {k: v for k, v in data.items() if k != key}
            yield dict(data, **{key: 5})
            yield dict(data, **{key: [None]})
        for first, second in zip(keys, keys[1:]):
            yield dict(data, **{first: [None], second: 5})


def test_shape_check_agrees_with_the_schemas_on_malformed_documents():
    outcomes = Counter(assert_agrees_with_reference(data, data["kind"])
                       for data in malformed_documents())
    # Only the four documents without their optional name are accepted.
    assert outcomes == {"accepted": 4, "rejected": 13, "same path": 51}


BOUNDS = {"bisection": 8, "iso": 4, "orbit": 2}

EXPLICIT_GROUP_ACTION = {
    "format": FORMAT_TAG,
    "kind": "action",
    "name": "z2_explicit",
    "bounds": BOUNDS,
    "group": {"elements": ["e", "a"],
              "table": {"e e": "e", "e a": "a", "a e": "a", "a a": "e"}},
    "space": ["1", "2"],
    "domains": {"e": ["1", "2"], "a": ["1"]},
    "maps": {"e": {"1": "1", "2": "2"}, "a": {"1": "2"}},
}


def inline_pair(left, right):
    return {"format": FORMAT_TAG, "kind": "pair", "name": "inline",
            "bounds": BOUNDS, "left": left, "right": right}


CATALOG_BASES = [dict(catalog_json(name), bounds=BOUNDS)
                 for name in (catalog.action_names()
                              + catalog.groupoid_names()
                              + catalog.semigroup_names()
                              + catalog.pair_names())]
INLINE_BASES = [
    EXPLICIT_GROUP_ACTION,
    inline_pair(EXPLICIT_GROUP_ACTION, catalog_json("z2_partial_3pt")),
    inline_pair(catalog_json("z2_global_swap"), EXPLICIT_GROUP_ACTION),
    inline_pair("z2_trivial_2pt", EXPLICIT_GROUP_ACTION),
]
SWAPS = [5, [None], {}, "", "a b", True, [], 4.0]
ADDED_KEYS = ["extra", "name", "bounds", "iso", "preset", "elements",
              "table", "left"]


@st.composite
def mutations(draw):
    """A base document with one change somewhere inside it: a value
    swapped for one of SWAPS, a key deleted, or a key added.  Returns the
    document, its original kind, and the path of the changed value."""
    data = copy.deepcopy(draw(st.one_of(st.sampled_from(CATALOG_BASES),
                                        st.sampled_from(INLINE_BASES))))
    kind = data["kind"]
    node, path = data, ()
    while True:
        key = draw(st.sampled_from(list(node) if isinstance(node, dict)
                                   else range(len(node))))
        child = node[key]
        if not (isinstance(child, (dict, list)) and child
                and draw(st.integers(0, 3))):
            break
        node, path = child, path + (key,)
    op = draw(st.sampled_from(["swap", "add", "delete"]
                              if isinstance(node, dict) else ["swap"]))
    if op == "add":
        key = draw(st.sampled_from(ADDED_KEYS))
    if op == "delete":
        del node[key]
    else:
        node[key] = copy.deepcopy(draw(st.sampled_from(SWAPS)))
    path += (key,)
    return data, kind, path


def single_mutations(data, path=()):
    """Every document one change away from ``data``: each value swapped
    for each of SWAPS, each key deleted, each of ADDED_KEYS added."""
    node = data
    for key in path:
        node = node[key]
    keys = list(node) if isinstance(node, dict) else range(len(node))
    for key in keys:
        for value in SWAPS:
            yield replaced(data, path + (key,), value)
        if isinstance(node, dict):
            yield replaced(data, path + (key,), None, delete=True)
        if isinstance(node[key], (dict, list)) and node[key]:
            yield from single_mutations(data, path + (key,))
    if isinstance(node, dict):
        for key in ADDED_KEYS:
            if key not in node:
                for value in SWAPS:
                    yield replaced(data, path + (key,), value)


def replaced(data, path, value, delete=False):
    data = copy.deepcopy(data)
    node = data
    for key in path[:-1]:
        node = node[key]
    if delete:
        del node[path[-1]]
    else:
        node[path[-1]] = copy.deepcopy(value)
    return data


@pytest.mark.parametrize("base", [
    # Both sides inline: an explicit group table on the left, a preset on
    # the right, and bounds on the pair and on the left action.
    INLINE_BASES[1],
    dict(catalog_json("two_isolated_units"), bounds=BOUNDS),
    dict(catalog_json("semilattice_2"), bounds=BOUNDS),
], ids=["pair", "groupoid", "semigroup"])
def test_shape_check_agrees_with_the_schemas_on_every_single_change(base):
    outcomes = Counter(assert_agrees_with_reference(data, base["kind"])
                       for data in single_mutations(base))
    assert outcomes["same path"] >= 200 and outcomes["accepted"] >= 40
    assert outcomes["float bound"] >= 3


def test_shape_check_agrees_with_the_schemas_on_mutations():
    reached = set()
    outcomes = Counter()

    @settings(max_examples=500, deadline=None, derandomize=True,
              database=None)
    @given(mutations())
    def check(case):
        data, kind, path = case
        # Every object or array the change was made inside.
        reached.update(path[:depth] for depth in range(1, len(path)))
        outcomes[assert_agrees_with_reference(data, kind)] += 1

    check()
    assert outcomes["same path"] >= 150 and outcomes["accepted"] >= 40
    # The changes reach the nested objects, in inline actions too.
    nested = {("bounds",), ("group",), ("group", "table")}
    assert nested <= reached
    assert nested <= {path[1:] for path in reached
                      if path[0] in ("left", "right")}


def test_float_bound_is_the_one_difference(tmp_path, capsys):
    data = dict(catalog_json("pair_partial_relabeled"),
                bounds={"iso": 4.0})
    assert reference_fault(data, "pair") is None
    assert shape_fault(data) == "bounds/iso"
    path = tmp_path / "float_bound.json"
    path.write_bytes(doc_bytes(data))
    assert main(["equivalence", str(path)]) == 2
    assert "schema violation at bounds/iso: expected an integer >= 1, " \
        "got 4.0" in capsys.readouterr().err


@pytest.mark.parametrize("bound", [True, 0, -3, 1.5, "4", None])
def test_non_integer_or_small_bound_rejected(bound):
    data = groupoid_doc(bounds={"bisection": bound})
    assert reference_fault(data, "groupoid") is not None
    assert shape_fault(data) == "bounds/bisection"


def test_shape_is_checked_before_any_table():
    # A broken group table alone is a content error (exit 1); with a shape
    # fault elsewhere in the document, the shape fault wins (exit 2).
    broken = {
        "format": FORMAT_TAG,
        "kind": "action",
        "group": {"elements": ["e", "a"],
                  "table": {"e e": "e", "e a": "a", "a e": "a", "a a": "a"}},
        "space": ["1"],
        "domains": {"e": ["1"], "a": ["1"]},
        "maps": {"e": {"1": "1"}, "a": {"1": "1"}},
    }
    with pytest.raises(SpecContentError):
        parse_document(doc_bytes(broken))
    with pytest.raises(SpecFileError, match="schema violation at maps/a/1"):
        parse_document(doc_bytes(dict(broken, maps={"e": {"1": "1"},
                                                    "a": {"1": 5}})))
    pair = inline_pair(broken, dict(broken, space=[]))
    with pytest.raises(SpecFileError, match="schema violation at right/space"):
        parse_document(doc_bytes(pair))


def test_digest_is_sha256_of_bytes():
    raw = doc_bytes(groupoid_doc())
    doc = parse_document(raw)
    assert doc.digest == hashlib.sha256(raw).hexdigest()


def test_bad_json_rejected_with_location():
    with pytest.raises(SpecFileError) as err:
        parse_document(b"{ not json")
    assert "line" in str(err.value)


def test_unknown_field_rejected():
    with pytest.raises(SpecFileError) as err:
        parse_document(doc_bytes(groupoid_doc(extra=1)))
    assert "schema" in str(err.value)


def test_wrong_format_tag_rejected():
    with pytest.raises(SpecFileError):
        parse_document(doc_bytes(groupoid_doc(format="groupoidal/9")))


def test_unknown_kind_rejected():
    with pytest.raises(SpecFileError):
        parse_document(doc_bytes(groupoid_doc(kind="module")))


@pytest.mark.parametrize("kind", [{}, [], None, 3])
def test_non_string_kind_rejected(kind):
    with pytest.raises(SpecFileError, match="kind must be one of"):
        parse_document(doc_bytes(groupoid_doc(kind=kind)))


def test_malformed_compose_key_rejected():
    with pytest.raises(SpecFileError) as err:
        parse_document(doc_bytes(groupoid_doc(compose={"u": "u"})))
    assert "compose" in str(err.value)
    with pytest.raises(SpecFileError):
        parse_document(doc_bytes(groupoid_doc(compose={"u q": "u"})))


def test_duplicate_arrows_rejected():
    with pytest.raises(SpecFileError):
        parse_document(doc_bytes(groupoid_doc(arrows=["u", "u"])))


def test_action_keys_must_match_group():
    payload = {
        "format": "groupoidal/1",
        "kind": "action",
        "group": {"preset": "Z2"},
        "space": ["1"],
        "domains": {"e": ["1"]},
        "maps": {"e": {"1": "1"}},
    }
    with pytest.raises(SpecFileError) as err:
        parse_document(doc_bytes(payload))
    assert "domains" in str(err.value)


def test_unknown_preset_rejected():
    payload = {
        "format": "groupoidal/1",
        "kind": "action",
        "group": {"preset": "S3"},
        "space": ["1"],
        "domains": {},
        "maps": {},
    }
    with pytest.raises(SpecFileError):
        parse_document(doc_bytes(payload))


def test_broken_group_table_is_content_error():
    payload = {
        "format": "groupoidal/1",
        "kind": "action",
        "group": {"elements": ["e", "a"],
                  "table": {"e e": "e", "e a": "a", "a e": "a", "a a": "a"}},
        "space": ["1"],
        "domains": {"e": ["1"], "a": ["1"]},
        "maps": {"e": {"1": "1"}, "a": {"1": "1"}},
    }
    with pytest.raises(SpecContentError):
        parse_document(doc_bytes(payload))


def test_inline_group_table_accepted():
    payload = {
        "format": "groupoidal/1",
        "kind": "action",
        "group": {"elements": ["e", "a"],
                  "table": {"e e": "e", "e a": "a", "a e": "a", "a a": "e"}},
        "space": ["1", "2"],
        "domains": {"e": ["1", "2"], "a": ["1", "2"]},
        "maps": {"e": {"1": "1", "2": "2"}, "a": {"1": "2", "2": "1"}},
    }
    doc = parse_document(doc_bytes(payload))
    assert doc.kind == "action"
    assert doc.payload.group.order == 2


def test_pair_referencing_non_action_rejected(tmp_path):
    payload = {
        "format": "groupoidal/1",
        "kind": "pair",
        "left": "two_isolated_units",
        "right": "z2_global_swap",
    }
    with pytest.raises(SpecFileError) as err:
        parse_document(doc_bytes(payload))
    assert "expected an action" in str(err.value)


def test_pair_with_inline_action():
    inline = {
        "format": "groupoidal/1",
        "kind": "action",
        "group": {"preset": "trivial"},
        "space": ["1"],
        "domains": {"e": ["1"]},
        "maps": {"e": {"1": "1"}},
    }
    payload = {
        "format": "groupoidal/1",
        "kind": "pair",
        "left": inline,
        "right": "trivial_1pt",
    }
    doc = parse_document(doc_bytes(payload))
    left, right = doc.payload
    assert left.space == ["1"] and right.space == ["p"]


def test_ring_and_bounds_flow_through():
    doc = parse_document(doc_bytes(groupoid_doc(
        ring="Z/5", bounds={"bisection": 8})))
    assert doc.ring_tag == "Z/5"
    assert doc.bounds == {"bisection": 8}


def test_resolve_input_path_and_name(tmp_path):
    path = tmp_path / "thing.json"
    path.write_bytes(doc_bytes(groupoid_doc()))
    assert resolve_input(str(path)) == str(path)
    assert resolve_input("trivial_groupoid").endswith("trivial_groupoid.json")
    with pytest.raises(SpecFileError):
        resolve_input("no_such_entry_anywhere")


def test_catalog_env_override(tmp_path, monkeypatch):
    path = tmp_path / "mine.json"
    path.write_bytes(doc_bytes(groupoid_doc(name="mine")))
    monkeypatch.setenv("GROUPOIDAL_CATALOG", str(tmp_path))
    assert default_catalog_dir() == str(tmp_path)
    doc = load_document("mine")
    assert doc.name == "mine"
    with pytest.raises(SpecFileError):
        load_document("trivial_groupoid")



# --- semigroup documents straight into index tables -------------------------

def reference_semigroup(data):
    """The semigroup parser that read the table into a dict keyed by
    element pairs and handed it to `semigroup_from_products`, kept verbatim."""
    elements = data["elements"]
    if len(set(elements)) != len(elements):
        raise SpecFileError("elements: duplicate names")
    eset = set(elements)
    table = {}
    for key, value in data["table"].items():
        parts = key.split()
        if len(parts) != 2:
            raise SpecFileError(f"table[{key!r}]: key must be two "
                                "space-separated names")
        a, b = parts
        if a not in eset or b not in eset or value not in eset:
            raise SpecFileError(f"table[{key!r}]: unknown element")
        table[(a, b)] = value
    star = {}
    for key, value in data["star"].items():
        if key not in eset or value not in eset:
            raise SpecFileError(f"star[{key!r}]: unknown element")
        star[key] = value
    return semigroup_from_products(
        elements, table, star, name=data.get("name", "semigroup"))


def semigroup_outcome(parse, data):
    try:
        s = parse(data)
    except SpecFileError as exc:
        return str(exc)
    return (s.name, s.elements, [list(row) for row in s.table],
            list(s.star_table))


def symmetric_inverse_monoid_doc(n):
    s = symmetric_inverse_monoid(range(n))
    names = [str(a) for a in s.elements]
    return {"format": FORMAT_TAG, "kind": "semigroup", "name": f"I{n}",
            "elements": names,
            "table": {f"{names[i]} {names[j]}": names[k]
                      for i, row in enumerate(s.table)
                      for j, k in enumerate(row)},
            "star": {names[i]: names[k] for i, k in enumerate(s.star_table)}}


def test_semigroup_tables_equal_the_dict_parser():
    docs = [catalog_json(name) for name in catalog.semigroup_names()]
    docs += [symmetric_inverse_monoid_doc(n) for n in (2, 3, 4)]
    rng = random.Random(61)
    corrupted = []
    for _ in range(200):
        data = copy.deepcopy(rng.choice(docs[:-1]))
        for _ in range(rng.randint(1, 3)):
            section = rng.choice([k for k in ("table", "star") if data[k]])
            key = rng.choice(sorted(data[section]))
            change = rng.randrange(4)
            if change == 0:
                del data[section][key]
            elif change == 1:
                data[section][key] = rng.choice(data["elements"] + ["nope"])
            elif change == 2:
                data[section][key.replace(" ", "  ") + " x"] = \
                    data[section].pop(key)
            else:
                data[section][key + "?"] = data[section].pop(key)
        corrupted.append(data)
    texts = set()
    for data in docs + corrupted:
        expected = semigroup_outcome(reference_semigroup, data)
        assert semigroup_outcome(_parse_semigroup, data) == expected
        if isinstance(expected, str):
            texts.add(expected.split(": ")[1])
    assert texts == {"unknown element", "key must be two space-separated "
                     "names"}


# --- groupoid documents straight onto arrow indices -------------------------

def reference_groupoid(data):
    """The groupoid parser that read the tables into dicts keyed by arrow
    labels, kept as it was apart from building a LabelGroupoid, the label
    form it handed to FiniteGroupoid, and reading the "a b" keys inline."""
    arrows = data["arrows"]
    if len(set(arrows)) != len(arrows):
        raise SpecFileError("arrows: duplicate names")
    index = {a: i for i, a in enumerate(arrows)}
    for u in data["units"]:
        if u not in index:
            raise SpecFileError(f"units: {u!r} is not a listed arrow")
    inverse = {}
    for key, value in data["inverse"].items():
        if key not in index or value not in index:
            raise SpecFileError(f"inverse[{key!r}]: unknown arrow")
        inverse[key] = value
    compose = {}
    for key, value in data["compose"].items():
        parts = key.split()
        if len(parts) != 2:
            raise SpecFileError(f"compose[{key!r}]: key must be two "
                                "space-separated names")
        if parts[0] not in index or parts[1] not in index \
                or value not in index:
            raise SpecFileError(f"compose[{key!r}]: unknown arrow")
        compose[tuple(parts)] = value
    return LabelGroupoid(arrows, data["units"], inverse, compose,
                         name=data.get("name", "groupoid"))


def groupoid_outcome(parse, data):
    """The error text, or the tables read through the labels, the
    composites in table order."""
    try:
        g = label_groupoid(parse(data))
    except SpecFileError as exc:
        return str(exc)
    return (g.name, g.arrows, g.units, g.inverse_table,
            list(g.compose_table.items()))


def mutated_groupoid(data, rng):
    """data with one entry changed: a name that is not an arrow in units,
    an inverse key or value, or a compose key or value; a compose key
    that is not two names; a duplicate arrow; or an entry removed or
    pointed at another arrow, which leaves a document the parser reads."""
    arrows = data["arrows"]
    change = rng.randrange(9)
    section = rng.choice(["inverse", "compose"])
    table = data[section]
    key = rng.choice(sorted(table)) if table else None
    if change == 0:
        data["units"].insert(rng.randrange(len(data["units"]) + 1), "nope")
    elif change == 1 and key is not None:
        table["nope" if section == "inverse" else key + "?"] = table.pop(key)
    elif change == 2 and key is not None:
        table[key] = "nope"
    elif change == 3 and section == "compose" and key is not None:
        table[key.replace(" ", "  ") + " x"] = table.pop(key)
    elif change == 4 and section == "compose" and key is not None:
        table[key.replace(" ", "")] = table.pop(key)
    elif change == 5:
        arrows.append(rng.choice(arrows))
    elif change == 6 and key is not None:
        del table[key]
    elif key is not None:
        table[key] = rng.choice(arrows)
    return data


def test_groupoid_tables_equal_the_label_parser():
    docs = [catalog_json(name) for name in catalog.groupoid_names()]
    docs += [pair_groupoid_spec(n) for n in (1, 2, 3, 4)]
    rng = random.Random(67)
    mutated = []
    for _ in range(200):
        data = copy.deepcopy(rng.choice(docs))
        for _ in range(rng.randint(1, 2)):
            data = mutated_groupoid(data, rng)
        mutated.append(data)
    texts, valid = set(), 0
    for data in docs + mutated:
        expected = groupoid_outcome(reference_groupoid, data)
        assert groupoid_outcome(_parse_groupoid, data) == expected
        if isinstance(expected, str):
            # The message with the offending key or name left out.
            texts.add(re.sub(r"\[.*?\]: |: '.*?' ", ": ", expected))
        else:
            valid += 1
    assert texts == {"arrows: duplicate names",
                     "units: is not a listed arrow",
                     "inverse: unknown arrow",
                     "compose: unknown arrow",
                     "compose: key must be two space-separated names"}
    assert valid > 50


# --- action documents straight onto point indices ---------------------------

def reference_action(data):
    """The action parser that read domains and maps into dicts keyed by
    element and point labels, kept as it was apart from building a
    LabelGroupAction, the label form it handed to the action."""
    group = _parse_group(data["group"])
    space = data["space"]
    if len(set(space)) != len(space):
        raise SpecFileError("space: duplicate points")
    pset = set(space)
    gset = set(group.elements)
    for section in ("domains", "maps"):
        keys = set(data[section])
        if keys != gset:
            raise SpecFileError(
                f"{section}: keys {sorted(keys)} must be exactly the group "
                f"elements {sorted(map(str, gset))}")
    domains = {}
    for g, points in data["domains"].items():
        for x in points:
            if x not in pset:
                raise SpecFileError(f"domains[{g!r}]: unknown point {x!r}")
        domains[g] = frozenset(points)
    maps = {}
    for g, table in data["maps"].items():
        entry = {}
        for x, y in table.items():
            if x not in pset or y not in pset:
                raise SpecFileError(f"maps[{g!r}]: unknown point in "
                                    f"{x!r} -> {y!r}")
            entry[x] = y
        maps[g] = entry
    return LabelGroupAction(group, space, domains, maps,
                            name=data.get("name", "action"))


def action_outcome(parse, data):
    """The error text, or the action read through its labels."""
    try:
        a = label_view(parse(data))
    except SpecFileError as exc:
        return str(exc)
    return (a.name, a.space, a.group.elements, a.domains, a.maps)


def action_document(action):
    """An action in the engine's form as a document, its group by an
    explicit table."""
    group, a = action.group, label_view(action)
    names = group.elements
    return {"format": FORMAT_TAG, "kind": "action", "name": a.name,
            "group": {"elements": names,
                      "table": {f"{names[i]} {names[j]}": names[k]
                                for i, row in enumerate(group.table)
                                for j, k in enumerate(row)}},
            "space": a.space,
            "domains": {g: a.domain_points(g) for g in names},
            "maps": a.maps}


def mutated_action(data, rng):
    """data with one change: an unknown point in a domain, a map key or a
    map value; a domains or maps key left out or added; a point listed
    twice in the space or in a domain; or a map entry added or moved,
    which may leave the domain of the map and which the parser reads."""
    space, domains, maps = data["space"], data["domains"], data["maps"]
    keys = sorted(set(domains) & set(maps))
    if not keys:
        return data
    g, change = rng.choice(keys), rng.randrange(10)
    if change == 0:
        domains[g].insert(rng.randrange(len(domains[g]) + 1), "nope")
    elif change == 1:
        maps[g]["nope"] = rng.choice(space)
    elif change == 2 and maps[g]:
        maps[g][rng.choice(sorted(maps[g]))] = "nope"
    elif change == 3:
        del data[rng.choice(["domains", "maps"])][g]
    elif change == 4:
        section = rng.choice(["domains", "maps"])
        data[section]["nope"] = [] if section == "domains" else {}
    elif change == 5:
        space.append(rng.choice(space))
    elif change == 6:
        domains[g].append(rng.choice(space))
    elif change == 7 and maps[g]:
        maps[g][rng.choice(sorted(maps[g]))] = rng.choice(space)
    else:
        maps[g][rng.choice(space)] = rng.choice(space)
    return data


def test_action_tables_equal_the_label_parser():
    docs = [catalog_json(name) for name in catalog.action_names()]
    for name in catalog.pair_names():
        docs += [catalog_json(side) if isinstance(side, str) else side
                 for side in map(catalog_json(name).get, ("left", "right"))]
    docs += [regular_action_spec(n) for n in range(1, 13)]
    docs += [action_document(a) for a in symmetric_group_actions()]
    rng = random.Random(71)
    mutated = []
    for _ in range(240):
        data = copy.deepcopy(rng.choice(docs))
        for _ in range(rng.randint(1, 2)):
            data = mutated_action(data, rng)
        mutated.append(data)
    texts, valid = set(), 0
    for data in docs + mutated:
        expected = action_outcome(reference_action, data)
        assert action_outcome(_parse_action, data) == expected
        if isinstance(expected, str):
            # The message with the offending keys, names or points left out.
            texts.add(re.sub(r"\[.*?\] ?|'.*", "", expected))
        else:
            valid += 1
    assert texts == {"space: duplicate points",
                     "domains: keys must be exactly the group elements ",
                     "maps: keys must be exactly the group elements ",
                     "domains: unknown point ", "maps: unknown point in "}
    assert valid > 100
