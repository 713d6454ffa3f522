"""Mutated catalog documents never crash the CLI.

Each example takes a shipped catalog document (a pair gets both of its
actions inlined, so their tables can be mutated too), applies a few random
edits to its tables, and runs `validate` and the document's own command on
it.  Every run must end with exit 0-3, never with an exception.  The
examples are derandomized, so the test is deterministic.
"""

import contextlib
import io
import json
import os
import tempfile

from hypothesis import given, settings, strategies as st

from groupoidal.cli import main
from groupoidal.specfiles import default_catalog_dir

CATALOG = default_catalog_dir()
ENTRIES = sorted(e[:-5] for e in os.listdir(CATALOG) if e.endswith(".json"))
COMMAND = {"groupoid": "theorem5", "action": "theorem3",
           "pair": "equivalence", "semigroup": "validate"}
ODD_VALUES = ["zz", "", 0, None, [], {}]


def catalog_document(name):
    with open(os.path.join(CATALOG, name + ".json"), encoding="utf-8") as f:
        doc = json.load(f)
    if doc["kind"] == "pair":
        for side in ("left", "right"):
            doc[side] = catalog_document(doc[side])
    return doc


def words_in(node):
    """Every name in a JSON tree, with "a b" compose keys split."""
    if isinstance(node, str):
        return set(node.split())
    if isinstance(node, dict):
        return words_in(" ".join(node)).union(*map(words_in, node.values()))
    if isinstance(node, list):
        return set().union(*map(words_in, node))
    return set()


def tables(doc):
    """The non-empty dicts and lists at the top of a document, and at the
    top of a pair's two inlined actions."""
    found = []
    for key, value in doc.items():
        if doc["kind"] == "pair" and key in ("left", "right"):
            found += tables(value)
        elif isinstance(value, (dict, list)) and value:
            found.append(value)
    return found


def mutate(data, doc):
    """One edit to a table of the document, or to a dict or list inside
    it: delete an entry, replace a value, or add an entry.  New keys and
    values are mostly names already used in the edited table, so that
    most mutants pass the parser and reach the structural validators."""
    node = data.draw(st.sampled_from(tables(doc)))
    while True:
        slots = node if isinstance(node, dict) else range(len(node))
        inner = [k for k in slots if isinstance(node[k], (dict, list))
                 and node[k]]
        if not inner or data.draw(st.booleans()):
            break
        node = node[data.draw(st.sampled_from(inner))]
    names = sorted(words_in(node) or words_in(doc))

    def value():
        odd = data.draw(st.integers(0, 7)) == 0
        return data.draw(st.sampled_from(ODD_VALUES if odd else names))

    slots = list(node) if isinstance(node, dict) else list(range(len(node)))
    op = data.draw(st.sampled_from(["delete", "replace", "add"]))
    if op == "add" or not slots:
        if isinstance(node, dict):
            key = " ".join(data.draw(st.lists(st.sampled_from(names),
                                              min_size=1, max_size=2)))
            node[key] = value()
        else:
            node.append(value())
    elif op == "delete":
        del node[data.draw(st.sampled_from(slots))]
    else:
        node[data.draw(st.sampled_from(slots))] = value()


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(ENTRIES), st.data())
def test_mutated_catalog_documents_exit_cleanly(name, data):
    doc = catalog_document(name)
    command = COMMAND[doc["kind"]]
    for _ in range(data.draw(st.integers(1, 3))):
        mutate(data, doc)
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "mutated.json")
        with open(path, "w", encoding="utf-8") as f:
            json.dump(doc, f)
        for argv in (["validate", path], [command, path]):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                code = main(argv)
            assert code in (0, 1, 2, 3), (argv, out.getvalue(),
                                          err.getvalue())
