import hashlib
import json
import os
import re
import subprocess
import sys
from collections import Counter

import pytest
from families import pair_groupoid_spec

import catalog
from groupoidal import cli, groups, isomorphisms, skew_rings
from groupoidal.cli import main
from groupoidal.inverse_semigroups import BisectionSemigroup


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_whole_catalog(capsys):
    for name in (catalog.action_names() + catalog.groupoid_names()
                 + catalog.semigroup_names() + catalog.pair_names()):
        code, out, _ = run_cli(capsys, "validate", name)
        assert code == 0, (name, out)
        assert "result: pass" in out


def test_theorem3_global_swap(capsys):
    code, out, _ = run_cli(capsys, "theorem3", "z2_global_swap")
    assert code == 0
    assert "dim L=4 arrows=4" in out
    assert "check rho_homomorphism: pass" in out
    assert "check diagonal_correspondence: pass" in out


def test_theorem3_partial(capsys):
    code, out, _ = run_cli(capsys, "theorem3", "z2_partial_3pt")
    assert code == 0
    assert "dim L=5 arrows=5" in out


def test_theorem3_trivial(capsys):
    code, out, _ = run_cli(capsys, "theorem3", "trivial_1pt")
    assert code == 0


def test_theorem3_rejects_groupoid_input(capsys):
    code, _, err = run_cli(capsys, "theorem3", "two_isolated_units")
    assert code == 2
    assert "action" in err


def test_theorem5_golden_ledgers(capsys):
    code, out, _ = run_cli(capsys, "theorem5", "two_isolated_units")
    assert code == 0
    assert "dim L=4 dim I=2 dim L/I=2 dim A=2" in out

    code, out, _ = run_cli(capsys, "theorem5", "trivial_groupoid")
    assert code == 0
    assert "dim L=1 dim I=0 dim L/I=1 dim A=1" in out


def test_theorem5_bound_exceeded(capsys):
    code, out, _ = run_cli(capsys, "theorem5", "pair_groupoid_3",
                           "--bisection-bound", "4")
    assert code == 3
    assert "inconclusive" in out
    assert "bisection bound" in out


ONCE_PER_THEOREM5 = [("groupoid_core", "validate_groupoid"),
                     ("groupoid_core", "enumerate_bisections"),
                     ("inverse_semigroups", "bisection_semigroup"),
                     ("isomorphisms", "bisection_action"),
                     ("skew_rings", "check_pregrading")]
# The ideal is read off the germs, so theorem5 neither reads the natural
# order nor walks the generators of I.
NEVER_IN_THEOREM5 = [("inverse_semigroups", "validate_inverse_semigroup"),
                     ("inverse_semigroups", "natural_order"),
                     ("partial_actions", "validate_isg_partial_action")]


def count_calls(monkeypatch, functions):
    """Count the calls of each (module, function), at every module that
    imported it by name; returns the counts and the order of the calls."""
    calls, order = Counter(), []
    modules = [m for n, m in sys.modules.items()
               if n == "groupoidal" or n.startswith("groupoidal.")]
    for module_name, function in functions:
        original = getattr(sys.modules[f"groupoidal.{module_name}"],
                           function)

        def counted(*args, original=original, function=function):
            calls[function] += 1
            order.append(function)
            return original(*args)

        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)
    return calls, order


@pytest.mark.parametrize("name", ["two_z2", "pair_groupoid_3"])
def test_theorem5_builds_each_structure_once(name, monkeypatch, capsys):
    # The bisections of a valid groupoid form an inverse semigroup acting
    # partially on its units by construction, so theorem5 validates the
    # groupoid only.
    calls, _ = count_calls(monkeypatch, ONCE_PER_THEOREM5 + NEVER_IN_THEOREM5)
    code, out, _ = run_cli(capsys, "theorem5", name)
    assert code == 0
    assert calls == Counter(dict.fromkeys(
        (function for _, function in ONCE_PER_THEOREM5), 1))
    rows = [line.split(":")[0] for line in out.splitlines()
            if line.startswith("check ")]
    assert rows[:3] == ["check groupoid_axioms",
                        "check bisection_semigroup_axioms",
                        "check bisection_action_axioms"]


def drop_one_join(module, rep):
    """Leave the first (t, x) with |t| > 1 out of its germ's class."""
    b = next(b for b, (t, _) in enumerate(module.basis_labels) if len(t) > 1)
    rest = [a for a, r in enumerate(rep) if r == rep[b] and a != b]
    for a in rest:
        rep[a] = max(rest)
    rep[b] = b


def join_another_germ(module, rep):
    """Join the last (t, x) to the first basis element, of another germ."""
    first, last = rep[0], rep[-1]
    assert first != last
    for a, r in enumerate(rep):
        if r in (first, last):
            rep[a] = max(first, last)


def mutate_ideal(monkeypatch, mutate):
    """theorem5 with build_ideal's classes changed by mutate."""
    build = skew_rings.build_ideal

    def mutant(module):
        ideal = build(module)
        rep = list(ideal.rep)
        mutate(module, rep)
        return skew_rings.IdealCongruence(module, ideal.generator_count, rep)

    monkeypatch.setattr(isomorphisms, "build_ideal", mutant)


@pytest.mark.parametrize("name, mutate, failing", [
    ("two_isolated_units", drop_one_join,
     ["dimension_ledger", "psi_tilde_isomorphism", "phi_left_inverse"]),
    ("z2_one_unit", join_another_germ,
     ["dimension_ledger", "psi_vanishes_on_ideal", "psi_tilde_isomorphism"])])
def test_theorem5_fails_a_wrong_ideal(name, mutate, failing, monkeypatch,
                                      capsys):
    # build_ideal reads no psi target, so psi's certificates check it: a
    # dropped join leaves psi~ with a kernel, and a join across germs
    # puts a vector outside the kernel of psi into I.
    mutate_ideal(monkeypatch, mutate)
    code, out, _ = run_cli(capsys, "theorem5", name)
    assert code == 1
    assert [line.split(":")[0][len("check "):] for line in out.splitlines()
            if line.startswith("check ") and ": fail" in line] == failing


@pytest.mark.parametrize("mutate, violation", [
    (drop_one_join, "(e_0 - e_60) * e_4 leaves the ideal"),
    (join_another_germ, "(e_0 - e_62) * e_4 leaves the ideal")],
    ids=["drop_one_join", "join_another_germ"])
def test_theorem5_refuses_a_wrong_ideal_that_is_not_two_sided(
        mutate, violation, monkeypatch, capsys):
    # On pair_groupoid_3, whose Steinberg algebra is M_3(Q), neither
    # mutant is a two-sided ideal.  The quotient records the violation,
    # and the run writes every row of a passing report and exits 1.
    code, passing, _ = run_cli(capsys, "theorem5", "pair_groupoid_3")
    assert code == 0
    mutate_ideal(monkeypatch, mutate)
    code, out, err = run_cli(capsys, "theorem5", "pair_groupoid_3")
    assert code == 1 and err == ""
    rows = dict(line.split(": ", 1) for line in out.splitlines()
                if line.startswith("check "))
    assert list(rows) == [line.split(": ", 1)[0]
                          for line in passing.splitlines()
                          if line.startswith("check ")]
    assert rows["check representative_independence"] == \
        f"fail  [{violation}]"
    assert rows["check pregrading"].startswith("fail")
    assert out.endswith("result: fail\n")


def test_theorem5_computes_products_only_on_generator_rows(
        tmp_path, monkeypatch, capsys):
    # S has no product table: the search for its generating set computes
    # the columns t g, and the rows g t follow, so on 4 points theorem5
    # computes 2 |generators| |S| products of the |S|^2 = 43,681.
    path = tmp_path / "pair_groupoid_4.json"
    path.write_text(json.dumps(pair_groupoid_spec(4)))
    counts = Counter()
    semigroups = {}
    original = BisectionSemigroup._products

    def counted(self, lut, factors):
        semigroups[id(self)] = self
        counts[id(self)] += len(factors)
        return original(self, lut, factors)

    monkeypatch.setattr(BisectionSemigroup, "_products", counted)
    code, out, _ = run_cli(capsys, "theorem5", str(path))
    assert code == 0
    (key, s), = semigroups.items()
    assert (s.order, len(s.generators)) == (209, 5)
    assert counts[key] <= 2 * len(s.generators) * s.order == 2090


@pytest.mark.parametrize("name", ["z2_partial_3pt", "regular_z10"])
def test_theorem3_validates_the_action_only(name, tmp_path, monkeypatch,
                                            capsys):
    # The transformation groupoid of a valid action is a groupoid by
    # construction, so theorem3 builds it once and does not validate it.
    if name == "regular_z10":
        path = tmp_path / "regular_z10.json"
        path.write_text(json.dumps(cyclic_action(10, 1, name)))
        name = str(path)
    calls, _ = count_calls(monkeypatch, [
        ("partial_actions", "validate_group_partial_action"),
        ("transformation_groupoid", "build_transformation_groupoid"),
        ("groupoid_core", "validate_groupoid")])
    code, out, _ = run_cli(capsys, "theorem3", name)
    assert code == 0
    assert calls["validate_group_partial_action"] == 1
    assert calls["build_transformation_groupoid"] == 1
    assert calls["validate_groupoid"] == 0
    assert "check transformation_groupoid_axioms: pass" in out


def test_equivalence_builds_no_group_after_loading(monkeypatch, capsys):
    # The search reads isotropy element orders off the composition table.
    loaded, constructed = [], []
    load, init = cli.load_document, groups.FiniteGroup.__init__

    def load_then_count(*args):
        loaded.append(load(*args))
        return loaded[-1]

    def counted(self, *args, **kwargs):
        if loaded:
            constructed.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli, "load_document", load_then_count)
    monkeypatch.setattr(groups.FiniteGroup, "__init__", counted)
    code, _, _ = run_cli(capsys, "equivalence", "pair_swap_vs_relabeled")
    assert code == 0
    assert len(loaded) == 1
    assert constructed == []


def test_theorem3_reports_a_wrong_composite(monkeypatch, capsys):
    # rho's homomorphism certificate compares every composite the builder
    # made with L's product, so a wrong one fails there, with no
    # traceback.
    build = cli.build_transformation_groupoid

    def wrong_composite(action):
        groupoid = build(action)
        key = next((b, c) for b, c in groupoid.compose_table
                   if not groupoid.is_unit(b) and not groupoid.is_unit(c))
        groupoid.compose_table[key] = key[0]
        return groupoid

    monkeypatch.setattr(cli, "build_transformation_groupoid",
                        wrong_composite)
    code, out, _ = run_cli(capsys, "theorem3", "z2_partial_3pt")
    assert code == 1
    failing = [line for line in out.splitlines()
               if line.startswith("check ") and ": fail" in line]
    assert failing[0].startswith("check rho_homomorphism: fail")


def test_equivalence_reports_a_wrong_witness(monkeypatch, capsys):
    # The search does not verify its witness: Gamma's certificates do.
    search = cli.search_groupoid_isomorphism

    def swapped(g1, g2, bound):
        iso = search(g1, g2, bound)
        a, b = [arrow for arrow in g1.arrows if not g1.is_unit(arrow)][:2]
        iso.mapping[a], iso.mapping[b] = iso.mapping[b], iso.mapping[a]
        return iso

    monkeypatch.setattr(cli, "search_groupoid_isomorphism", swapped)
    code, out, _ = run_cli(capsys, "equivalence", "pair_swap_vs_relabeled")
    assert code == 1
    assert ("check diagonal_preserving_isomorphism: fail  "
            "[transport certification failed]") in out


RUNG_REPORT_SHA256 = \
    "024b9540117977258bde9eb14a3958f20061cdf55c66fa48c9d8032be3141131"


def test_theorem5_pair_groupoid_on_four_points(tmp_path, capsys):
    path = tmp_path / "pair_groupoid_4.json"
    path.write_text(json.dumps(pair_groupoid_spec(4)))
    code, out, _ = run_cli(capsys, "theorem5", str(path))
    assert code == 0
    assert "check bisection_semigroup_axioms: pass  [209 bisections]" in out
    assert ("check dimension_ledger: pass  "
            "[dim L=544 dim I=528 dim L/I=16 dim A=16]") in out
    assert out.endswith("result: pass\n")
    # The input digest is blanked as perfbench blanks it; the digest of the
    # rest was recorded before the certificates moved to index tables.
    text = re.sub(r"^(input: \S+ sha256=)([0-9a-f]{64})$", r"\1-", out,
                  flags=re.M)
    assert hashlib.sha256(text.encode()).hexdigest() == RUNG_REPORT_SHA256


@pytest.mark.parametrize("flag", ["--bisection-bound", "--iso-bound",
                                  "--orbit-bound"])
def test_non_positive_bound_flag_is_an_input_error(flag, capsys):
    for value in ("0", "-3"):
        with pytest.raises(SystemExit) as exc:
            main(["theorem5", "two_z2", flag, value])
        assert exc.value.code == 2
        assert "must be at least 1" in capsys.readouterr().err


FLAGS = [("--ring", "Z"), ("--bisection-bound", "3"), ("--iso-bound", "4"),
         ("--orbit-bound", "5"), ("--report", "machine"), ("--timings",)]


@pytest.mark.parametrize("command", sorted(cli.COMMANDS))
def test_every_command_parses_with_every_flag(command):
    flags = [part for flag in FLAGS for part in flag]
    # A flag may come before the command or after the input.
    for argv in ([command, "two_z2", *flags], [*flags, command, "two_z2"]):
        args = cli.build_parser().parse_args(argv)
        assert (args.command, args.input, args.ring, args.bisection_bound,
                args.iso_bound, args.orbit_bound, args.report,
                args.timings) == (command, "two_z2", "Z", 3, 4, 5,
                                  "machine", True)


def test_an_unknown_command_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["theorem4", "two_z2"])
    assert exc.value.code == 2
    assert "invalid choice: 'theorem4'" in capsys.readouterr().err


def test_an_empty_ring_tag_is_an_input_error(tmp_path, capsys):
    error = (2, "", "groupoidal: input error: unknown ring tag ''\n")
    assert run_cli(capsys, "validate", "trivial_groupoid", "--ring", "") \
        == error
    with open(os.path.join(catalog.default_catalog_dir(),
                           "trivial_groupoid.json")) as f:
        spec = json.load(f)
    path = tmp_path / "empty_ring.json"
    for tag in ("", "  "):
        spec["ring"] = tag
        path.write_text(json.dumps(spec))
        assert run_cli(capsys, "validate", str(path)) == error
        # The flag is read before the file.
        assert run_cli(capsys, "validate", str(path), "--ring", "Z")[0] == 0


@pytest.mark.parametrize("tag", ["Z/1_0", "Z/+7", "Z/ 7", "Z/\u0667", "Z/",
                                 "Z/-5", "Z/7.0", "z/7", "Q/2"])
def test_a_ring_tag_is_q_z_or_z_slash_ascii_digits(tag, tmp_path, capsys):
    # int() reads "Z/1_0" as Z/10, and "Z/+7", "Z/ 7" and "Z/\u0667" (an
    # Arabic-Indic seven) as Z/7.
    error = (2, "", f"groupoidal: input error: unknown ring tag {tag!r}\n")
    assert run_cli(capsys, "validate", "trivial_groupoid", "--ring", tag) \
        == error
    with open(os.path.join(catalog.default_catalog_dir(),
                           "trivial_groupoid.json")) as f:
        spec = json.load(f)
    path = tmp_path / "ring_tag.json"
    path.write_text(json.dumps(dict(spec, ring=tag)))
    assert run_cli(capsys, "validate", str(path)) == error


def test_a_ring_tag_keeps_its_outer_whitespace_stripped(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "validate", "trivial_groupoid",
                           "--ring", " Z/07\n")
    assert code == 0 and "ring: Z/7\n" in out


def write_spec(tmp_path, spec):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(dict(spec, format="groupoidal/1")))
    return str(path)


@pytest.mark.parametrize("name", ["a b", "", "a\tb", "a\u00a0b", "a\n"])
def test_a_name_table_keys_hold_is_non_empty_without_whitespace(
        name, tmp_path, capsys):
    # Tables are keyed "a b", so an arrow or an element named with
    # whitespace, or empty, could never be written into one.
    expected = "expected a non-empty string without whitespace, got "
    fault = {
        "arrows/0": {"kind": "groupoid", "arrows": [name], "units": [name],
                     "inverse": {name: name},
                     "compose": {f"{name} {name}": name}},
        "group/elements/1": {
            "kind": "action", "group": {"elements": ["e", name],
                                        "table": {"e e": "e"}},
            "space": ["x"], "domains": {"e": ["x"], name: []},
            "maps": {"e": {"x": "x"}, name: {}}},
        "elements/0": {"kind": "semigroup", "elements": [name],
                       "table": {f"{name} {name}": name},
                       "star": {name: name}},
    }
    for at, spec in fault.items():
        code, out, err = run_cli(capsys, "validate",
                                 write_spec(tmp_path, spec))
        assert (code, out) == (2, ""), at
        assert err == ("groupoidal: input error: spec.json: schema "
                       f"violation at {at}: {expected}"
                       f"{json.dumps(name)}\n"), at


def test_a_point_name_is_free_form(tmp_path, capsys):
    # Points never appear in a pair key.
    spec = {"kind": "action", "group": {"preset": "trivial"},
            "space": ["x y", ""], "domains": {"e": ["x y", ""]},
            "maps": {"e": {"x y": "x y", "": ""}}}
    code, out, _ = run_cli(capsys, "validate", write_spec(tmp_path, spec))
    assert code == 0 and out.endswith("result: pass\n")


COMMAND_FOR_KIND = {"groupoid": "theorem5", "action": "theorem3",
                    "pair": "equivalence", "semigroup": "validate"}
CATALOG_ENTRIES = [(kind, name) for kind, names in (
    ("groupoid", catalog.groupoid_names()), ("action", catalog.action_names()),
    ("pair", catalog.pair_names()), ("semigroup", catalog.semigroup_names()))
    for name in names]


def test_every_report_is_ring_independent(capsys):
    # Every algebra and map is built once, on its Z-form (see the scalars
    # module), so each catalog entry, under validate and under the
    # command for its kind, gives over Z, Z/2, Z/4 and Z/5 the report it
    # gives over Q, the ring line aside.  Equivalence alone refuses Z/4,
    # which is not an integral domain.
    runs = 0
    for kind, name in CATALOG_ENTRIES:
        for command in sorted({"validate", COMMAND_FOR_KIND[kind]}):
            code, over_q, err = run_cli(capsys, command, name)
            assert (code, err) == (0, ""), (command, name)
            for tag in ("Z", "Z/2", "Z/4", "Z/5"):
                got = run_cli(capsys, command, name, "--ring", tag)
                runs += 1
                if command == "equivalence" and tag == "Z/4":
                    assert got == (2, "", (
                        "groupoidal: input error: equivalence requires an "
                        "integral domain (Q, Z or Z/p), got Z/4\n")), name
                    continue
                assert got == (0, over_q.replace(
                    "ring: Q\n", f"ring: {tag}\n"), ""), (command, name, tag)
    assert runs == 4 * (2 * len(CATALOG_ENTRIES)
                        - len(catalog.semigroup_names()))


def test_theorem5_over_prime_field(capsys):
    code, out, _ = run_cli(capsys, "theorem5", "two_isolated_units",
                           "--ring", "Z/5")
    assert code == 0
    assert "ring: Z/5" in out


def test_equivalence_positive_pair(capsys):
    code, out, _ = run_cli(capsys, "equivalence", "pair_swap_vs_relabeled")
    assert code == 0
    assert "check orbit_equivalence: pass  [found]" in out
    assert "check groupoid_isomorphism: pass  [found]" in out
    assert "three_way_agreement: pass" in out


def test_equivalence_negative_pair(capsys):
    code, out, _ = run_cli(capsys, "equivalence", "pair_swap_vs_empty")
    assert code == 0
    assert "check orbit_equivalence: pass  [exhausted]" in out
    assert "check groupoid_isomorphism: pass  [exhausted]" in out
    assert "three_way_agreement: pass  [orbit=no iso=no transport=no]" in out


def test_equivalence_nonfree_pair_runs_general_direction(capsys):
    code, out, _ = run_cli(capsys, "equivalence", "pair_nonfree")
    assert code == 0
    assert "hypothesis violated" in out
    assert "isomorphism_implies_orbit_equivalence: pass" in out
    assert "three_way_agreement" not in out


def test_equivalence_orbit_bound(capsys):
    code, out, _ = run_cli(capsys, "equivalence", "pair_trivial3",
                           "--orbit-bound", "1")
    assert code == 3
    assert "inconclusive" in out


def cyclic_action(n, step, name):
    """Z_n acting on n points by r.x = x + step*r (step 0: trivially)."""
    elements = [f"g{r}" for r in range(n)]
    space = [f"x{x}" for x in range(n)]
    return {"format": "groupoidal/1", "kind": "action", "name": name,
            "group": {"elements": elements,
                      "table": {f"g{a} g{b}": f"g{(a + b) % n}"
                                for a in range(n) for b in range(n)}},
            "space": space,
            "domains": {g: space for g in elements},
            "maps": {f"g{r}": {f"x{x}": f"x{(x + step * r) % n}"
                               for x in range(n)} for r in range(n)}}


def test_equivalence_invariant_mismatch_is_decided_inside_default_bounds(
        tmp_path, capsys):
    # 64 arrows and 8 points exceed the default iso and orbit bounds, but
    # isotropy orders (1 against 8) and orbit sizes (8 against 1) already
    # rule out an isomorphism and an orbit equivalence.
    path = tmp_path / "z8_vs_trivial.json"
    path.write_text(json.dumps({
        "format": "groupoidal/1", "kind": "pair", "name": "z8_vs_trivial",
        "left": cyclic_action(8, 1, "regular"),
        "right": cyclic_action(8, 0, "trivial")}))
    code, out, _ = run_cli(capsys, "equivalence", str(path))
    assert code == 0
    assert "bounds: bisection=16 iso=10 orbit=6" in out
    assert "check groupoid_isomorphism: pass  [exhausted]" in out
    assert "check orbit_equivalence: pass  [exhausted]" in out


def one_point_pair(tmp_path, left, right):
    """A pair file of two groups acting trivially on one point, each
    group given by its elements and its product."""
    def action(elements, product, name):
        return {"format": "groupoidal/1", "kind": "action", "name": name,
                "group": {"elements": elements,
                          "table": {f"{a} {b}": product(a, b)
                                    for a in elements for b in elements}},
                "space": ["x"], "domains": {g: ["x"] for g in elements},
                "maps": {g: {"x": "x"} for g in elements}}

    path = tmp_path / "one_point_pair.json"
    path.write_text(json.dumps({
        "format": "groupoidal/1", "kind": "pair", "name": "one_point_pair",
        "left": action(*left, "left"), "right": action(*right, "right")}))
    return str(path)


def cyclic_group(n):
    return [f"g{r}" for r in range(n)], \
        lambda a, b: f"g{(int(a[1:]) + int(b[1:])) % n}"


def klein_group():
    return ["e", "a", "b", "c"], \
        lambda a, b: a if b == "e" else b if a == "e" else \
        "e" if a == b else ({"a", "b", "c"} - {a, b}).pop()


@pytest.mark.parametrize("tag", ["Z/5", "Q"])
def test_equivalence_leaves_matching_invariants_undecided(tag, tmp_path,
                                                          capsys):
    # Z4 and Z2 x Z2 on one point: no groupoid isomorphism, but orbit
    # sizes and isotropy orders agree, and over Z/5 both algebras are
    # F_5^4, so absence is not shown.
    path = one_point_pair(tmp_path, cyclic_group(4), klein_group())
    code, out, _ = run_cli(capsys, "equivalence", path, "--ring", tag)
    assert code == 3
    assert "check groupoid_isomorphism: pass  [exhausted]" in out
    assert "check diagonal_preserving_isomorphism: inconclusive" in out


def test_equivalence_names_absence_when_isotropy_orders_differ(tmp_path,
                                                               capsys):
    path = one_point_pair(tmp_path, cyclic_group(2), cyclic_group(3))
    code, out, _ = run_cli(capsys, "equivalence", path)
    assert code == 0
    assert ("check diagonal_preserving_isomorphism: pass  "
            "[absent (no groupoid isomorphism to transport)]") in out


def one_point_action(tmp_path, elements, table):
    """An action file of a group, given by its elements and its table of
    "a b" keys, acting trivially on one point."""
    path = tmp_path / "one_point_action.json"
    path.write_text(json.dumps({
        "format": "groupoidal/1", "kind": "action",
        "group": {"elements": elements, "table": table},
        "space": ["x"], "domains": {g: ["x"] for g in elements},
        "maps": {g: {"x": "x"} for g in elements}}))
    return str(path)


def z3_table():
    """The table of Z3, its keys in reverse row-major order."""
    elements, product = cyclic_group(3)
    return elements, {f"{a} {b}": product(a, b)
                      for a in reversed(elements) for b in reversed(elements)}


@pytest.mark.parametrize("command", ["validate", "theorem3"])
def test_a_group_table_missing_entries_names_the_first_in_element_order(
        command, tmp_path, capsys):
    elements, table = z3_table()
    # Row-major order names (g0, g2) first, column-major (g2, g0).
    for key in ("g2 g0", "g1 g2", "g0 g2"):
        del table[key]
    path = one_point_action(tmp_path, elements, table)
    code, out, err = run_cli(capsys, command, path)
    assert (code, out) == (1, "")
    assert err == ("groupoidal: invalid structure: group table is not a "
                   "group: table missing entry (g0, g2)\n")


@pytest.mark.parametrize("key, value", [("g1 g2", "g9"), ("g1 g9", "g0")])
def test_an_unknown_name_in_a_group_table_is_an_input_error(
        key, value, tmp_path, capsys):
    elements, table = z3_table()
    table[key] = value
    path = one_point_action(tmp_path, elements, table)
    code, out, err = run_cli(capsys, "validate", path)
    assert (code, out) == (2, "")
    assert err == (f"groupoidal: input error: group.table[{key!r}]: "
                   "unknown element\n")


def test_validate_exit_one_on_broken_groupoid(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "format": "groupoidal/1",
        "kind": "groupoid",
        "arrows": ["u", "a"],
        "units": ["u"],
        "inverse": {"u": "u"},
        "compose": {"u u": "u"},
    }))
    code, out, _ = run_cli(capsys, "validate", str(bad))
    assert code == 1
    assert "inverse not closed" in out


def test_exit_two_on_malformed_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    code, _, err = run_cli(capsys, "validate", str(bad))
    assert code == 2
    assert "input error" in err


def test_large_prime_modulus_is_decided_at_once(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "validate", "trivial_groupoid",
                           "--ring", "Z/2305843009213693951")
    assert code == 0
    assert "ring: Z/2305843009213693951" in out
    with open(os.path.join(catalog.default_catalog_dir(),
                           "trivial_groupoid.json")) as f:
        spec = json.load(f)
    spec["ring"] = "Z/2305843009213693951"
    path = tmp_path / "big.json"
    path.write_text(json.dumps(spec))
    code, out, _ = run_cli(capsys, "validate", str(path))
    assert code == 0
    assert "ring: Z/2305843009213693951" in out


def test_undecidable_modulus_is_an_input_error(tmp_path, capsys):
    prime = str(2 ** 89 - 1)
    code, out, err = run_cli(capsys, "validate", "trivial_groupoid",
                             "--ring", f"Z/{prime}")
    assert (code, out) == (2, "")
    assert err == ("groupoidal: input error: cannot decide whether the "
                   f"modulus {prime} is prime\n")


def pair_document(left):
    return json.dumps({"format": "groupoidal/1", "kind": "pair",
                       "left": left, "right": "z2_global_swap"})


def test_pair_naming_itself_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "selfpair.json"
    path.write_text(pair_document(str(path)))
    code, out, err = run_cli(capsys, "equivalence", str(path))
    assert (code, out) == (2, "")
    assert err == ("groupoidal: input error: selfpair.json: left names a "
                   "pair, expected an action\n")


def test_two_pairs_naming_each_other_are_an_input_error(tmp_path, capsys):
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    first.write_text(pair_document(str(second)))
    second.write_text(pair_document(str(first)))
    for path in (first, second):
        code, _, err = run_cli(capsys, "equivalence", str(path))
        assert code == 2
        assert err == (f"groupoidal: input error: {path.name}: left names a "
                       "pair, expected an action\n")


def test_directory_input_is_an_input_error(tmp_path, capsys):
    code, out, err = run_cli(capsys, "validate", str(tmp_path))
    assert (code, out) == (2, "")
    assert err == f"groupoidal: input error: {tmp_path}: Is a directory\n"


def test_unreadable_input_is_an_input_error(tmp_path, monkeypatch, capsys):
    path = tmp_path / "locked.json"
    path.write_text(pair_document("z2_global_swap"))

    def refuse(*args, **kwargs):
        raise PermissionError(13, "Permission denied", str(path))

    # specfiles reads through the builtin open, found before the builtins.
    monkeypatch.setattr("groupoidal.specfiles.open", refuse, raising=False)
    code, out, err = run_cli(capsys, "validate", str(path))
    assert (code, out) == (2, "")
    assert err == f"groupoidal: input error: {path}: Permission denied\n"


@pytest.mark.parametrize("depth", [990, 100_000])
def test_deeply_nested_document_is_an_input_error(depth, tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text('{"format": "groupoidal/1", "kind": "groupoid", '
                    '"arrows": ' + "[" * depth + "]" * depth + "}")
    code, out, err = run_cli(capsys, "validate", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("groupoidal: input error: deep.json: ")
    assert err.count("\n") == 1


def test_reports_byte_identical(capsys):
    _, first, _ = run_cli(capsys, "theorem5", "two_isolated_units")
    _, second, _ = run_cli(capsys, "theorem5", "two_isolated_units")
    assert first == second


def test_machine_report_parses(capsys):
    code, out, _ = run_cli(capsys, "theorem3", "z2_global_swap",
                           "--report", "machine")
    assert code == 0
    doc = json.loads(out)
    assert doc["result"] == "pass"
    assert doc["command"] == "theorem3"
    assert any(c["name"] == "rho_injective" for c in doc["checks"])


def test_timings_flag_adds_timing_lines(capsys):
    _, out, _ = run_cli(capsys, "validate", "trivial_groupoid", "--timings")
    assert "result: pass" in out
    assert "ms)" in out
    _, plain, _ = run_cli(capsys, "validate", "trivial_groupoid")
    assert "ms)" not in plain


def test_report_lists_basis_images(capsys):
    code, out, _ = run_cli(capsys, "theorem3", "z2_global_swap")
    assert code == 0
    assert "rho_basis_images" in out
    assert "(g,1)->(g,1):1" in out
    code, out, _ = run_cli(capsys, "theorem5", "two_isolated_units")
    assert "psi_basis_images" in out
    assert "({u},u)->u:1" in out
    assert "quotient_basis" in out


def test_equivalence_needs_integral_domain(capsys):
    code, _, err = run_cli(capsys, "equivalence", "pair_trivial3",
                           "--ring", "Z/6")
    assert code == 2
    assert "integral domain" in err


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "groupoidal.cli", "validate",
         "trivial_groupoid"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "result: pass" in proc.stdout


def test_cli_import_adds_only_the_package_and_the_standard_library():
    # Start-up is a large share of every short CLI run; a third-party
    # import would add to it.
    src = os.path.dirname(os.path.dirname(cli.__file__))
    probe = ("import sys; before = set(sys.modules); import groupoidal.cli; "
             "print('\\n'.join(sorted(set(sys.modules) - before)))")
    proc = subprocess.run([sys.executable, "-c", probe],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    added = proc.stdout.split()
    assert "groupoidal.cli" in added
    assert [name for name in added
            if name.partition(".")[0] not in sys.stdlib_module_names
            and name.partition(".")[0] != "groupoidal"] == []
