import hashlib
import json
import os
import re
import subprocess
import sys
from collections import Counter

import pytest
from families import pair_groupoid_spec

from groupoidal import catalog, cli, groups
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
                     ("inverse_semigroups", "bisection_semigroup"),
                     ("inverse_semigroups", "natural_order"),
                     ("skew_rings", "check_pregrading")]
NEVER_IN_THEOREM5 = [("inverse_semigroups", "validate_inverse_semigroup"),
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


def test_theorem5_over_any_commutative_ring(capsys):
    # Theorem 5 holds over a commutative unital ring: over Z and Z/4 every
    # catalog groupoid passes with the report it has over Q, the ring
    # line aside.
    for name in catalog.groupoid_names():
        code, over_q, _ = run_cli(capsys, "theorem5", name)
        assert code == 0
        for tag in ("Z", "Z/4"):
            code, out, _ = run_cli(capsys, "theorem5", name, "--ring", tag)
            assert code == 0, (name, tag)
            assert out == over_q.replace("ring: Q\n", f"ring: {tag}\n")


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
