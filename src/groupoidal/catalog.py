"""The shipped example catalog: named groupoids, partial actions, inverse
semigroups and action pairs, loaded through the same parser the CLI uses.

The catalog directory can be overridden with the GROUPOIDAL_CATALOG
environment variable.  Each directory is scanned once per process.
"""

from __future__ import annotations

import functools
import os

from .specfiles import default_catalog_dir, load_document


@functools.cache
def _entries(directory):
    """(kind, name) of every catalog document in the directory, in file
    name order."""
    entries = []
    for entry in sorted(os.listdir(directory)):
        if entry.endswith(".json"):
            doc = load_document(os.path.join(directory, entry))
            entries.append((doc.kind, doc.name))
    return tuple(entries)


def _scan(kind):
    return [name for k, name in _entries(default_catalog_dir()) if k == kind]


def action_names():
    return _scan("action")


def groupoid_names():
    return _scan("groupoid")


def semigroup_names():
    return _scan("semigroup")


def pair_names():
    return _scan("pair")


def load(name):
    return load_document(name)


def load_action(name):
    doc = load_document(name)
    if doc.kind != "action":
        raise ValueError(f"{name} is a {doc.kind}, not an action")
    return doc.payload


def load_groupoid(name):
    doc = load_document(name)
    if doc.kind != "groupoid":
        raise ValueError(f"{name} is a {doc.kind}, not a groupoid")
    return doc.payload


def load_semigroup(name):
    doc = load_document(name)
    if doc.kind != "semigroup":
        raise ValueError(f"{name} is a {doc.kind}, not a semigroup")
    return doc.payload


def load_pair(name):
    doc = load_document(name)
    if doc.kind != "pair":
        raise ValueError(f"{name} is a {doc.kind}, not a pair")
    return doc.payload
