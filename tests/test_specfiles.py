import hashlib
import json

import jsonschema
import pytest
from jsonschema.validators import validator_for

from groupoidal import catalog
from groupoidal.specfiles import (SCHEMAS, SpecContentError, SpecFileError,
                                  default_catalog_dir, load_document,
                                  parse_document, resolve_input)


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


def test_catalog_documents_parse():
    for name in (catalog.action_names() + catalog.groupoid_names()
                 + catalog.semigroup_names() + catalog.pair_names()):
        doc = catalog.load(name)
        assert doc.name == name
        assert doc.kind in ("action", "groupoid", "semigroup", "pair")


def test_schemas_are_valid_against_their_metaschema():
    for schema in SCHEMAS.values():
        validator_for(schema).check_schema(schema)


def malformed_documents():
    """For one catalog document of each kind: an unknown field, a missing
    required field, each top-level field replaced by a wrong type, and two
    fields broken at once at different depths, where the best match is
    not the first error found."""
    for name in ("pair_groupoid_2", "z2_partial_3pt", "sym_inv_2",
                 "pair_partial_relabeled"):
        with open(resolve_input(name), "rb") as fh:
            data = json.load(fh)
        yield dict(data, extra=1)
        keys = [k for k in data if k not in ("format", "kind")]
        for key in keys:
            yield {k: v for k, v in data.items() if k != key}
            yield dict(data, **{key: 5})
            yield dict(data, **{key: [None]})
        for first, second in zip(keys, keys[1:]):
            yield dict(data, **{first: [None], second: 5})


def test_schema_messages_equal_those_of_jsonschema_validate():
    checked = 0
    for data in malformed_documents():
        try:
            jsonschema.validate(data, SCHEMAS[data["kind"]])
        except jsonschema.ValidationError as exc:
            path = "/".join(str(p) for p in exc.absolute_path) or "document"
            expected = f"<input>: schema violation at {path}: {exc.message}"
        else:
            continue
        with pytest.raises(SpecFileError) as err:
            parse_document(doc_bytes(data))
        assert str(err.value) == expected
        checked += 1
    assert checked >= 20


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
