import hashlib
import json
import re
import subprocess
import sys

import pytest
from families import pair_groupoid_spec

from groupoidal import catalog, inverse_semigroups, isomorphisms
from groupoidal.cli import main


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


def test_theorem5_builds_bisection_semigroup_once(monkeypatch, capsys):
    calls = []
    build = isomorphisms.bisection_semigroup

    def counted(*args):
        calls.append(args)
        return build(*args)

    monkeypatch.setattr(isomorphisms, "bisection_semigroup", counted)
    code, out, _ = run_cli(capsys, "theorem5", "two_z2")
    assert code == 0
    assert len(calls) == 1
    rows = [line.split(":")[0] for line in out.splitlines()
            if line.startswith("check ")]
    assert rows[:3] == ["check groupoid_axioms",
                        "check bisection_semigroup_axioms",
                        "check bisection_action_axioms"]


def test_theorem5_computes_the_natural_order_once(monkeypatch, capsys):
    calls = []
    compute = inverse_semigroups.natural_order

    def counted(*args):
        calls.append(args)
        return compute(*args)

    monkeypatch.setattr(inverse_semigroups, "natural_order", counted)
    code, _, _ = run_cli(capsys, "theorem5", "two_z2")
    assert code == 0
    assert len(calls) == 1


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


def z8_action(step, name):
    """Z8 acting on 8 points by r.x = x + step*r (step 0: trivially)."""
    elements = [f"g{r}" for r in range(8)]
    space = [f"x{x}" for x in range(8)]
    return {"format": "groupoidal/1", "kind": "action", "name": name,
            "group": {"elements": elements,
                      "table": {f"g{a} g{b}": f"g{(a + b) % 8}"
                                for a in range(8) for b in range(8)}},
            "space": space,
            "domains": {g: space for g in elements},
            "maps": {f"g{r}": {f"x{x}": f"x{(x + step * r) % 8}"
                               for x in range(8)} for r in range(8)}}


def test_equivalence_invariant_mismatch_is_decided_inside_default_bounds(
        tmp_path, capsys):
    # 64 arrows and 8 points exceed the default iso and orbit bounds, but
    # isotropy orders (1 against 8) and orbit sizes (8 against 1) already
    # rule out an isomorphism and an orbit equivalence.
    path = tmp_path / "z8_vs_trivial.json"
    path.write_text(json.dumps({
        "format": "groupoidal/1", "kind": "pair", "name": "z8_vs_trivial",
        "left": z8_action(1, "regular"), "right": z8_action(0, "trivial")}))
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
