"""Input documents: versioned, shape-checked JSON describing groupoids,
partial group actions, inverse semigroups, and pairs of actions.

Before any table is read, one shape check walks the whole document: the
required and allowed fields of each kind (unknown fields are rejected),
strings where names go, non-empty name lists, objects of strings for
tables, and integer bounds >= 1.  Its faults read ``schema violation at
<json/path>``.  Malformed documents (bad JSON, shape faults, unresolved
names) raise SpecFileError and map to exit code 2; mathematically broken
but well-formed content is left for the validators (exit code 1).
"""

from __future__ import annotations

import hashlib
import json
import os

from .groupoid_core import FiniteGroupoid
from .groups import FiniteGroup
from .inverse_semigroups import FiniteInverseSemigroup
from .partial_actions import GroupPartialAction
from .scalars import index_row

FORMAT_TAG = "groupoidal/1"


class SpecFileError(Exception):
    """The input file cannot be parsed into a candidate object."""


class SpecContentError(Exception):
    """The input parsed but a prerequisite table is mathematically broken
    (e.g. the group table of an action is not a group)."""


# The shape check: each check below raises _ShapeFault with the JSON path
# (a tuple of keys and indices) of the first value out of shape.

class _ShapeFault(Exception):
    """A value does not have the shape its place in the document needs."""


def _expect(ok, path, expected, value):
    if not ok:
        got = json.dumps(value)
        got = got if len(got) <= 40 else got[:37] + "..."
        raise _ShapeFault(path, f"expected {expected}, got {got}")


def _string(value, path):
    _expect(isinstance(value, str), path, "a string", value)


def _bound(value, path):
    # The exact type: neither true nor 4.0 is a bound.
    _expect(type(value) is int and value >= 1, path, "an integer >= 1", value)


def _equal(expected):
    return lambda value, path: _expect(value == expected, path,
                                       json.dumps(expected), value)


def _array(item, nonempty=False):
    def check(value, path):
        _expect(isinstance(value, list) and (value or not nonempty), path,
                "a non-empty array" if nonempty else "an array", value)
        for i, entry in enumerate(value):
            item(entry, path + (i,))
    return check


def _object(required=(), values=None, **fields):
    """An object with the given fields, or, given ``values``, an object
    whose every value passes that check."""
    def check(value, path):
        _expect(isinstance(value, dict), path, "an object", value)
        for key in required:
            if key not in value:
                raise _ShapeFault(path, f"missing required field {key!r}")
        for key, entry in value.items():
            item = values or fields.get(key)
            if item is None:
                raise _ShapeFault(path, f"unknown field {key!r}")
            item(entry, path + (key,))
    return check


_NAMES = _array(_string, nonempty=True)  # units and domain lists may be empty
_TABLE = _object(values=_string)
_GROUP_FIELDS = _object(preset=_string, elements=_NAMES, table=_TABLE)


def _group(value, path):
    _GROUP_FIELDS(value, path)
    if ("preset" in value) == ("elements" in value and "table" in value):
        raise _ShapeFault(path, "expected a preset, or elements and a table")


def _document(kind, required, **fields):
    return _object(("format", "kind") + required, format=_equal(FORMAT_TAG),
                   kind=_equal(kind), name=_string, ring=_string,
                   bounds=_object(bisection=_bound, iso=_bound, orbit=_bound),
                   **fields)


_ACTION = _document("action", ("group", "space", "domains", "maps"),
                    group=_group, space=_NAMES,
                    domains=_object(values=_array(_string)),
                    maps=_object(values=_TABLE))


def _side(value, path):
    _expect(isinstance(value, (str, dict)), path,
            "a catalog name or an action", value)
    if isinstance(value, dict):
        _ACTION(value, path)


_SHAPES = {
    "groupoid": _document("groupoid", ("arrows", "units", "inverse",
                                       "compose"),
                          arrows=_NAMES, units=_array(_string),
                          inverse=_TABLE, compose=_TABLE),
    "action": _ACTION,
    "semigroup": _document("semigroup", ("elements", "table", "star"),
                           elements=_NAMES, table=_TABLE, star=_TABLE),
    "pair": _document("pair", ("left", "right"), left=_side, right=_side),
}

_PRESETS = {
    "trivial": lambda: FiniteGroup.trivial(),
    "Z2": lambda: FiniteGroup.cyclic(2),
    "Z3": lambda: FiniteGroup.cyclic(3),
    "Z4": lambda: FiniteGroup.cyclic(4),
    "Z5": lambda: FiniteGroup.cyclic(5),
    "Z6": lambda: FiniteGroup.cyclic(6),
}


class SpecDocument:
    """A parsed input: its kind, payload object(s), the digest of the raw
    bytes, and any ring/bounds the file requested."""

    def __init__(self, kind, name, payload, digest, ring_tag, bounds):
        self.kind = kind
        self.name = name
        self.payload = payload
        self.digest = digest
        self.ring_tag = ring_tag
        self.bounds = bounds


def _pair_entries(table, what, names, noun):
    """The entries (a, b, value) of a table keyed by "a b" strings; every
    name in a key and every value must be one of `names`."""
    for key, value in table.items():
        parts = key.split()
        if len(parts) != 2:
            raise SpecFileError(f"{what}[{key!r}]: key must be two "
                                "space-separated names")
        a, b = parts
        if a not in names or b not in names or value not in names:
            raise SpecFileError(f"{what}[{key!r}]: unknown {noun}")
        yield a, b, value


def _parse_group(spec):
    if "preset" in spec:
        preset = spec["preset"]
        if preset not in _PRESETS:
            raise SpecFileError(f"group.preset: unknown preset {preset!r} "
                                f"(known: {', '.join(sorted(_PRESETS))})")
        return _PRESETS[preset]()
    elements = spec["elements"]
    if len(set(elements)) != len(elements):
        raise SpecFileError("group.elements: duplicate names")
    table = {(a, b): c for a, b, c in _pair_entries(
        spec["table"], "group.table", set(elements), "element")}
    try:
        return FiniteGroup(elements, table, name="group")
    except ValueError as exc:
        # Duplicate names are refused above, so the one ValueError left
        # reads "not a group: <first violation>".
        raise SpecContentError(f"group table is {exc}") from None


def _parse_groupoid(data):
    arrows = data["arrows"]
    if len(set(arrows)) != len(arrows):
        raise SpecFileError("arrows: duplicate names")
    aset = set(arrows)
    for u in data["units"]:
        if u not in aset:
            raise SpecFileError(f"units: {u!r} is not a listed arrow")
    inverse = {}
    for key, value in data["inverse"].items():
        if key not in aset or value not in aset:
            raise SpecFileError(f"inverse[{key!r}]: unknown arrow")
        inverse[key] = value
    compose = {(a, b): c for a, b, c in _pair_entries(
        data["compose"], "compose", aset, "arrow")}
    return FiniteGroupoid(arrows, data["units"], inverse, compose,
                          name=data.get("name", "groupoid"))


def _parse_action(data):
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
    return GroupPartialAction(group, space, domains, maps,
                              name=data.get("name", "action"))


def _parse_semigroup(data):
    """The index tables, written while the "a b" keys are read; an entry
    the document leaves out is -1."""
    elements = data["elements"]
    if len(set(elements)) != len(elements):
        raise SpecFileError("elements: duplicate names")
    index = {e: i for i, e in enumerate(elements)}
    blank = index_row(len(elements), [-1]) * len(elements)
    table = [blank[:] for _ in elements]
    for a, b, value in _pair_entries(data["table"], "table", index,
                                     "element"):
        table[index[a]][index[b]] = index[value]
    star = [-1] * len(elements)
    for key, value in data["star"].items():
        if key not in index or value not in index:
            raise SpecFileError(f"star[{key!r}]: unknown element")
        star[index[key]] = index[value]
    return FiniteInverseSemigroup(elements, table, star,
                                  name=data.get("name", "semigroup"))


def parse_document(raw_bytes, source="<input>"):
    digest = hashlib.sha256(raw_bytes).hexdigest()
    try:
        data = json.loads(raw_bytes)
    except json.JSONDecodeError as exc:
        raise SpecFileError(f"{source}: invalid JSON at line {exc.lineno} "
                            f"column {exc.colno}: {exc.msg}") from None
    if not isinstance(data, dict):
        raise SpecFileError(f"{source}: document must be a JSON object")
    if data.get("format") != FORMAT_TAG:
        raise SpecFileError(f"{source}: format must be {FORMAT_TAG!r}")
    kind = data.get("kind")
    if not isinstance(kind, str) or kind not in _SHAPES:
        raise SpecFileError(f"{source}: kind must be one of "
                            f"{sorted(_SHAPES)}, got {kind!r}")
    try:
        _SHAPES[kind](data, ())
    except _ShapeFault as fault:
        path, what = fault.args
        raise SpecFileError(f"{source}: schema violation at "
                            f"{'/'.join(map(str, path)) or 'document'}: "
                            f"{what}") from None

    name = data.get("name", os.path.splitext(os.path.basename(source))[0])
    if kind == "groupoid":
        payload = _parse_groupoid(data)
    elif kind == "action":
        payload = _parse_action(data)
    elif kind == "semigroup":
        payload = _parse_semigroup(data)
    else:
        sides = []
        for side in ("left", "right"):
            spec = data[side]
            if isinstance(spec, str):
                doc = load_document(spec)
                if doc.kind != "action":
                    raise SpecFileError(f"{source}: {side} names a "
                                        f"{doc.kind}, expected an action")
                sides.append(doc.payload)
            else:
                sides.append(_parse_action(spec))
        payload = tuple(sides)
    return SpecDocument(kind, name, payload, digest,
                        data.get("ring"), data.get("bounds", {}))


def default_catalog_dir():
    override = os.environ.get("GROUPOIDAL_CATALOG")
    if override:
        return override
    return os.path.join(os.path.dirname(__file__), "data", "catalog")


def resolve_input(token):
    """A path to an existing file is used as-is; otherwise the token is
    looked up as a catalog name."""
    if os.path.exists(token):
        return token
    catalog_dir = default_catalog_dir()
    candidate = os.path.join(catalog_dir, token + ".json")
    if os.path.exists(candidate):
        return candidate
    raise SpecFileError(f"no such file, and no catalog entry named "
                        f"{token!r} in {catalog_dir}")


def load_document(token):
    path = resolve_input(token)
    with open(path, "rb") as handle:
        raw = handle.read()
    return parse_document(raw, source=os.path.basename(path))
