"""theorem5 reports replayed from the input file alone (replay_oracle),
on every catalog groupoid and on pair groupoids on 2 to 4 points, over
Q, Z and Z/4, and mutated reports that must fail the replay."""

import json

import pytest
from families import pair_groupoid_spec
from replay_oracle import Formulas, parse_rows, replay_theorem5

from groupoidal import catalog
from groupoidal.cli import main
from groupoidal.specfiles import resolve_input

RINGS = ("Q", "Z", "Z/4")
INPUTS = tuple(catalog.groupoid_names()) + tuple(
    f"pair_groupoid_{n}_points" for n in (2, 3, 4))

_FORMULAS = {}


def input_file(name, tmp_path_factory):
    """The input's path and its document, read with json."""
    if name.endswith("_points"):
        n = int(name.split("_")[2])
        path = tmp_path_factory.mktemp("replay") / f"{name}.json"
        path.write_text(json.dumps(pair_groupoid_spec(n)))
        path = str(path)
    else:
        path = resolve_input(name)
    with open(path, encoding="utf-8") as handle:
        return path, json.load(handle)


def replayed(name, tag, tmp_path_factory, capsys):
    """The report of theorem5 on the input, and the formulas of the
    input, built once per input."""
    path, doc = input_file(name, tmp_path_factory)
    assert main(["theorem5", path, "--ring", tag]) == 0
    text = capsys.readouterr().out
    if name not in _FORMULAS:
        _FORMULAS[name] = Formulas(doc)
    return text, _FORMULAS[name]


@pytest.mark.parametrize("tag", RINGS)
@pytest.mark.parametrize("name", INPUTS)
def test_theorem5_reports_replay(name, tag, tmp_path_factory, capsys):
    text, formulas = replayed(name, tag, tmp_path_factory, capsys)
    assert replay_theorem5(formulas, text) == []


def replace_detail(text, row, detail):
    status, _ = parse_rows(text)[row]
    return "\n".join(f"check {row}: {status}  [{detail}]"
                     if line.startswith(f"check {row}:") else line
                     for line in text.split("\n"))


def test_mutated_reports_fail_the_replay(tmp_path_factory, capsys):
    text, formulas = replayed("pair_groupoid_3", "Q", tmp_path_factory,
                              capsys)
    assert replay_theorem5(formulas, text) == []
    rows = parse_rows(text)
    # Two images swapped.
    entries = rows["psi_basis_images"][1].split("; ")
    first, other = next((i, j) for i, a in enumerate(entries)
                        for j, b in enumerate(entries)
                        if a.split("->")[1] != b.split("->")[1])
    left, right = entries[first].split("->"), entries[other].split("->")
    entries[first] = f"{left[0]}->{right[1]}"
    entries[other] = f"{right[0]}->{left[1]}"
    swapped = replace_detail(text, "psi_basis_images", "; ".join(entries))
    assert replay_theorem5(formulas, swapped) == ["psi_basis_images"]
    # One ledger number changed.
    ledger = rows["dimension_ledger"][1]
    changed = replace_detail(text, "dimension_ledger",
                             ledger.replace("dim I=", "dim I=1", 1))
    assert [p[:7] for p in replay_theorem5(formulas, changed)] == ["ledger:"]
    # One quotient representative replaced by an element of another class.
    labels = [formulas.label(k) for k in range(len(formulas.basis))]
    listed = [labels.index(label)
              for label in rows["quotient_basis"][1].split("; ")]
    other = next(k for k in range(len(labels)) if k not in listed
                 and formulas.classes[k] == formulas.classes[listed[1]])
    moved = sorted(listed[1:] + [other])
    replaced = replace_detail(text, "quotient_basis",
                              "; ".join(labels[k] for k in moved))
    assert replay_theorem5(formulas, replaced) == \
        ["quotient_basis is not one element per class"]
