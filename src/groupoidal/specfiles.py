"""Input documents: versioned, schema-checked JSON describing groupoids,
partial group actions, inverse semigroups, and pairs of actions.

Malformed documents (bad JSON, schema violations, unresolved names) raise
SpecFileError and map to exit code 2; mathematically broken but
well-formed content is left for the validators (exit code 1).
"""

from __future__ import annotations

import hashlib
import json
import os

from jsonschema.exceptions import best_match
from jsonschema.validators import validator_for

from .groupoid_core import FiniteGroupoid
from .groups import FiniteGroup, validate_group_table
from .inverse_semigroups import FiniteInverseSemigroup
from .partial_actions import GroupPartialAction

FORMAT_TAG = "groupoidal/1"


class SpecFileError(Exception):
    """The input file cannot be parsed into a candidate object."""


class SpecContentError(Exception):
    """The input parsed but a prerequisite table is mathematically broken
    (e.g. the group table of an action is not a group)."""


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

_GROUP_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "oneOf": [
        {"required": ["preset"]},
        {"required": ["elements", "table"]},
    ],
    "properties": {
        "preset": {"type": "string"},
        "elements": {"type": "array", "items": {"type": "string"},
                     "minItems": 1},
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
            "arrows": {"type": "array", "items": {"type": "string"},
                       "minItems": 1},
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
            "elements": {"type": "array", "items": {"type": "string"},
                         "minItems": 1},
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

# Compiled once; the schemas are checked against their metaschema by the
# test suite.
_VALIDATORS = {kind: validator_for(schema)(schema)
               for kind, schema in SCHEMAS.items()}

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


def _split_pair_key(key, what):
    parts = key.split()
    if len(parts) != 2:
        raise SpecFileError(f"{what}[{key!r}]: key must be two "
                            "space-separated names")
    return parts


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
    eset = set(elements)
    table = {}
    for key, value in spec["table"].items():
        a, b = _split_pair_key(key, "group.table")
        if a not in eset or b not in eset or value not in eset:
            raise SpecFileError(f"group.table[{key!r}]: unknown element")
        table[(a, b)] = value
    report = validate_group_table(elements, table)
    if not report.ok:
        raise SpecContentError(f"group table is not a group: {report.first}")
    return FiniteGroup(elements, table, name="group")


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
    compose = {}
    for key, value in data["compose"].items():
        a, b = _split_pair_key(key, "compose")
        if a not in aset or b not in aset or value not in aset:
            raise SpecFileError(f"compose[{key!r}]: unknown arrow")
        compose[(a, b)] = value
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
    elements = data["elements"]
    if len(set(elements)) != len(elements):
        raise SpecFileError("elements: duplicate names")
    eset = set(elements)
    table = {}
    for key, value in data["table"].items():
        a, b = _split_pair_key(key, "table")
        if a not in eset or b not in eset or value not in eset:
            raise SpecFileError(f"table[{key!r}]: unknown element")
        table[(a, b)] = value
    star = {}
    for key, value in data["star"].items():
        if key not in eset or value not in eset:
            raise SpecFileError(f"star[{key!r}]: unknown element")
        star[key] = value
    return FiniteInverseSemigroup(elements, table, star,
                                  name=data.get("name", "semigroup"))


def parse_document(raw_bytes, source="<input>", catalog_dir=None):
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
    if not isinstance(kind, str) or kind not in SCHEMAS:
        raise SpecFileError(f"{source}: kind must be one of "
                            f"{sorted(SCHEMAS)}, got {kind!r}")
    # The error jsonschema.validate would raise, without re-checking the
    # schema against its metaschema on every document.
    error = best_match(_VALIDATORS[kind].iter_errors(data))
    if error is not None:
        path = "/".join(str(p) for p in error.absolute_path) or "document"
        raise SpecFileError(f"{source}: schema violation at {path}: "
                            f"{error.message}")

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
                doc = load_document(spec, catalog_dir=catalog_dir)
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


def resolve_input(token, catalog_dir=None):
    """A path to an existing file is used as-is; otherwise the token is
    looked up as a catalog name."""
    if os.path.exists(token):
        return token
    catalog_dir = catalog_dir or default_catalog_dir()
    candidate = os.path.join(catalog_dir, token + ".json")
    if os.path.exists(candidate):
        return candidate
    raise SpecFileError(f"no such file, and no catalog entry named "
                        f"{token!r} in {catalog_dir}")


def load_document(token, catalog_dir=None):
    path = resolve_input(token, catalog_dir)
    with open(path, "rb") as handle:
        raw = handle.read()
    return parse_document(raw, source=os.path.basename(path),
                          catalog_dir=catalog_dir)
