"""theorem3 and theorem5 reports replayed from the input file alone
(replay_oracle), over Q, Z and Z/4: theorem3 on every catalog action and
on the regular actions of Z_n for n <= 12, theorem5 on every catalog
groupoid and on pair groupoids on 2 to 4 points; and mutated reports
that must fail the replay.  theorem5's psi is also replayed on the dense
tables (dense_oracle.dense_replay_theorem5), on every catalog groupoid
and on pair groupoids on 2 to 4 points, and one wrong image, in a
generator row of L or outside them, must fail it.  So is theorem3's rho
(dense_oracle.dense_replay_theorem3), on the theorem3 inputs over each
ring, where one wrong image must fail it too."""

import json

import pytest
from dense_oracle import dense_replay_theorem3, dense_replay_theorem5
from families import pair_groupoid_spec, regular_action_spec
from replay_oracle import (Formulas, parse_rows, replay_theorem3,
                           replay_theorem5)

import catalog
from groupoidal.cli import main
from groupoidal.inverse_semigroups import bisection_semigroup
from groupoidal.specfiles import load_document, resolve_input
from groupoidal.validation import stable

RINGS = ("Q", "Z", "Z/4")
# Input name -> its spec, for the inputs written here.
GENERATED = {**{f"pair_groupoid_{n}_points": lambda n=n: pair_groupoid_spec(n)
                for n in (2, 3, 4)},
             **{f"regular_z{n}": lambda n=n: regular_action_spec(n)
                for n in range(1, 13)}}
INPUTS = tuple(catalog.groupoid_names()) + tuple(
    name for name in GENERATED if name.startswith("pair"))
ACTIONS = tuple(catalog.action_names()) + tuple(
    name for name in GENERATED if name.startswith("regular"))

_FORMULAS = {}


def input_file(name, tmp_path_factory):
    """The input's path and its document, read with json."""
    if name in GENERATED:
        path = tmp_path_factory.mktemp("replay") / f"{name}.json"
        path.write_text(json.dumps(GENERATED[name]()))
        path = str(path)
    else:
        path = resolve_input(name)
    with open(path, encoding="utf-8") as handle:
        return path, json.load(handle)


def theorem3_report(name, tag, tmp_path_factory, capsys):
    """The report of theorem3 on the input, and its document."""
    path, doc = input_file(name, tmp_path_factory)
    assert main(["theorem3", path, "--ring", tag]) == 0
    return capsys.readouterr().out, doc


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


@pytest.mark.parametrize("tag", RINGS)
@pytest.mark.parametrize("name", ACTIONS)
def test_theorem3_reports_replay(name, tag, tmp_path_factory, capsys):
    text, doc = theorem3_report(name, tag, tmp_path_factory, capsys)
    assert replay_theorem3(doc, text) == []


@pytest.mark.parametrize("tag", RINGS)
@pytest.mark.parametrize("name", ACTIONS)
def test_theorem3_reports_replay_densely(name, tag, tmp_path_factory,
                                         capsys):
    text, doc = theorem3_report(name, tag, tmp_path_factory, capsys)
    assert dense_replay_theorem3(doc, text) == []


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


def test_mutated_theorem3_reports_fail_the_replay(tmp_path_factory, capsys):
    for name in ("z2_partial_3pt", "regular_z7"):
        text, doc = theorem3_report(name, "Q", tmp_path_factory, capsys)
        assert replay_theorem3(doc, text) == []
        rows = parse_rows(text)
        # Two images swapped: an (e, x) and a (g, x) with g not e.
        entries = rows["rho_basis_images"][1].split("; ")
        left, right = entries[0].split("->"), entries[-1].split("->")
        entries[0] = f"{left[0]}->{right[1]}"
        entries[-1] = f"{right[0]}->{left[1]}"
        swapped = replace_detail(text, "rho_basis_images", "; ".join(entries))
        assert replay_theorem3(doc, swapped) == \
            ["rho_basis_images", "the (e, x) do not go onto the units"]
        # The arrow count changed.
        count = rows["transformation_groupoid_axioms"][1]
        changed = replace_detail(text, "transformation_groupoid_axioms",
                                 "1" + count)
        assert replay_theorem3(doc, changed) == ["arrow count"]
        match = rows["dimension_match"][1]
        changed = replace_detail(text, "dimension_match",
                                 match.replace("arrows=", "arrows=1"))
        assert replay_theorem3(doc, changed) == ["dimension_match"]


DENSE_INPUTS = tuple(catalog.groupoid_names()) + tuple(
    name for name in GENERATED if name.startswith("pair"))


def dense_replayed(name, tmp_path_factory, capsys):
    """The theorem5 report on the input over Q, and its groupoid."""
    path, _ = input_file(name, tmp_path_factory)
    assert main(["theorem5", path]) == 0
    return capsys.readouterr().out, load_document(path).payload


@pytest.mark.parametrize("name", DENSE_INPUTS)
def test_theorem5_reports_replay_densely(name, tmp_path_factory, capsys):
    text, groupoid = dense_replayed(name, tmp_path_factory, capsys)
    assert dense_replay_theorem5(groupoid, text) == []


@pytest.mark.parametrize("generator_row", [False, True])
def test_one_wrong_image_fails_the_dense_replay(generator_row,
                                                tmp_path_factory, capsys):
    # theorem5 certifies psi on the generator rows of L only, so a wrong
    # image outside them is seen only by the dense check.
    text, groupoid = dense_replayed("pair_groupoid_3", tmp_path_factory,
                                    capsys)
    semigroup = bisection_semigroup(groupoid)
    generators = {semigroup.elements[k] for k in semigroup.generators}
    labels = {stable(s): s for s in semigroup.elements}
    entries = parse_rows(text)["psi_basis_images"][1].split("; ")
    k = next(k for k, entry in enumerate(entries)
             if (labels[entry[1:entry.index("}") + 1]] in generators)
             == generator_row)
    label, image = entries[k].split("->")
    arrow = next(a for a in groupoid.arrows if f"{a}:1" != image)
    entries[k] = f"{label}->{arrow}:1"
    mutated = replace_detail(text, "psi_basis_images", "; ".join(entries))
    problems = dense_replay_theorem5(groupoid, mutated)
    assert problems[0].startswith("psi_homomorphism: fails on basis pair")


@pytest.mark.parametrize("name", ["z2_partial_3pt", "regular_z7"])
def test_one_wrong_image_fails_the_dense_theorem3_replay(
        name, tmp_path_factory, capsys):
    text, doc = theorem3_report(name, "Q", tmp_path_factory, capsys)
    entries = parse_rows(text)["rho_basis_images"][1].split("; ")
    label, image = entries[-1].split("->")
    entries[-1] = f"{label}->{entries[0].split('->')[1]}"
    mutated = replace_detail(text, "rho_basis_images", "; ".join(entries))
    problems = dense_replay_theorem3(doc, mutated)
    assert problems[0].startswith("rho_homomorphism: fails on basis pair")
    assert problems[1:] == ["rho_bijective"]
