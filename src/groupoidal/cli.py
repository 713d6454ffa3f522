"""Batch front end: parse input files, orchestrate the constructions and
verifications, and emit deterministic reports.

Exit codes: 0 all checks pass, 1 mathematical failure, 2 input error,
3 bound exceeded / inconclusive.
"""

from __future__ import annotations

import argparse
import functools
import random
import sys

from .groupoid_core import (DEFAULT_BISECTION_BOUND,
                            is_topologically_principal, validate_groupoid)
from .inverse_semigroups import validate_inverse_semigroup
from .isomorphisms import (DEFAULT_ISO_BOUND, DEFAULT_ORBIT_BOUND, PHI_TRIALS,
                           _unit_profiles, psi, rho,
                           search_groupoid_isomorphism,
                           search_orbit_equivalence, steinberg_transport,
                           transported_skew_isomorphism,
                           verify_orbit_equivalence, verify_phi_additive,
                           verify_phi_left_inverse)
from .partial_actions import (induce_algebra_action, is_topologically_free,
                              validate_group_partial_action)
from .report import FAIL, INCONCLUSIVE, PASS, VerificationReport
from .scalars import ring_from_tag
from .skew_rings import CovarianceModule, check_pregrading
from .transformation_groupoid import build_transformation_groupoid
from .specfiles import SpecContentError, SpecFileError, load_document
from .validation import BoundExceeded, stable


def _flag_status(ok):
    return PASS if ok else FAIL


def _validation_row(report, name, result, detail=""):
    """One row for a validator's result: the detail on a pass, the
    violation summary on a failure."""
    report.add(name, _flag_status(result.ok),
               detail if result.ok else result.summary())


def _image_listing(algebra_map):
    """The images of the domain basis, each a point mass with coefficient
    1, so every certificate in the report can be recomputed from the
    report itself.  A domain label is a pair (s, x), and each distinct s,
    x and image is rendered once."""
    arrows = algebra_map.codomain.basis_labels
    render = functools.cache(stable)
    return "; ".join(f"({render(s)},{render(x)})->{render(arrows[t])}:1"
                     for (s, x), t in zip(algebra_map.domain.basis_labels,
                                          algebra_map.targets))


def positive_int(text):
    """A size bound given on the command line: an integer >= 1, like the
    bounds in spec files."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _bounds(doc, args):
    bounds = {"bisection": DEFAULT_BISECTION_BOUND,
              "iso": DEFAULT_ISO_BOUND,
              "orbit": DEFAULT_ORBIT_BOUND}
    bounds.update(doc.bounds)
    if args.bisection_bound is not None:
        bounds["bisection"] = args.bisection_bound
    if args.iso_bound is not None:
        bounds["iso"] = args.iso_bound
    if args.orbit_bound is not None:
        bounds["orbit"] = args.orbit_bound
    return bounds


def _ring(doc, args):
    """The flag's ring, else the file's, else Q; an empty tag is refused
    by ring_from_tag like any other unknown tag."""
    for tag in (args.ring, doc.ring_tag, "Q"):
        if tag is not None:
            return ring_from_tag(tag)


def _new_report(command, doc, ring, bounds):
    return VerificationReport(command, doc.name, doc.digest, ring.tag(), bounds)


def cmd_validate(doc, ring, bounds, report):
    if doc.kind == "groupoid":
        _validation_row(report, "groupoid_axioms",
                        validate_groupoid(doc.payload))
    elif doc.kind == "action":
        _validation_row(report, "partial_action_axioms",
                        validate_group_partial_action(doc.payload))
    elif doc.kind == "semigroup":
        _validation_row(report, "inverse_semigroup_axioms",
                        validate_inverse_semigroup(doc.payload))
    else:
        left, right = doc.payload
        for side, action in (("left", left), ("right", right)):
            _validation_row(report, f"{side}_action_axioms",
                            validate_group_partial_action(action))
    return report


def cmd_theorem3(doc, ring, bounds, report):
    """Build the transformation groupoid and certify that the partial skew
    group ring and its Steinberg algebra are isomorphic, with the
    coefficient algebra landing on the diagonal."""
    if doc.kind != "action":
        raise SpecFileError(f"theorem3 needs an action spec, got {doc.kind}")
    action = doc.payload
    result = validate_group_partial_action(action)
    _validation_row(report, "action_axioms", result)
    if not result.ok:
        return report

    # A groupoid by construction, from action_axioms and the group's
    # table_report (see build_transformation_groupoid); rho's certificates
    # compare every composite it built with L's product.
    groupoid = build_transformation_groupoid(action)
    report.add("transformation_groupoid_axioms", PASS,
               f"{groupoid.n_arrows} arrows")

    module = CovarianceModule(induce_algebra_action(action))
    module.verify_associativity((action.group.table_report, result))
    report.add("dimension_match",
               _flag_status(module.dim == groupoid.n_arrows),
               f"dim L={module.dim} arrows={groupoid.n_arrows}")
    # Both premises pass: action_axioms, and the group's table_report.
    report.add("skew_associativity", _flag_status(module.associative))

    rho_map = rho(action, groupoid, module=module)
    for kind in ("homomorphism", "injective", "surjective"):
        flag, detail = rho_map.certificates[kind]
        report.add(f"rho_{kind}", _flag_status(flag), detail or "")
    report.add("rho_basis_images", PASS, _image_listing(rho_map))

    # The inverse of rho reads the arrow (g, x) as the basis element
    # (g, x), so both round trips compare labels through the targets.
    algebra, targets = rho_map.codomain, rho_map.targets
    first = next((i for i, label in enumerate(module.basis_labels)
                  if algebra.basis_labels[targets[i]] != label), None)
    report.add("round_trip_skew_to_steinberg", _flag_status(first is None),
               "rho_inverse(rho(e)) = e on the full basis" if first is None
               else f"round trip fails on basis {module.basis_labels[first]}")
    arrow = next((a for a in algebra.basis_labels
                  if targets[module.label_index(*a)] != groupoid.index(a)),
                 None)
    report.add("round_trip_steinberg_to_skew", _flag_status(arrow is None),
               "rho(rho_inverse(f)) = f on the full basis" if arrow is None
               else f"round trip fails on arrow {arrow}")

    flag, detail = rho_map.certificates["diagonal"]
    report.add("diagonal_correspondence", _flag_status(flag), detail or
               "image of the coefficient block equals the diagonal")
    return report


def cmd_theorem5(doc, ring, bounds, report):
    """Realize the Steinberg algebra of a groupoid as a partial skew
    inverse semigroup ring, with the full dimension ledger."""
    if doc.kind != "groupoid":
        raise SpecFileError(f"theorem5 needs a groupoid spec, got {doc.kind}")
    groupoid = doc.payload
    result = validate_groupoid(groupoid)
    _validation_row(report, "groupoid_axioms", result)
    if not result.ok:
        return report

    # Both bisection rows rest on groupoid_axioms: see bisection_semigroup
    # and bisection_action, read off the semigroup's arrow indices.
    realization = psi(groupoid, result,
                      bisection_bound=bounds["bisection"])
    report.add("bisection_semigroup_axioms", PASS,
               f"{realization.semigroup.order} bisections")
    report.add("bisection_action_axioms", PASS)

    report.add("skew_associativity",
               _flag_status(realization.module.associative))

    dim_l, dim_i, dim_q, dim_a = realization.dimension_ledger
    report.add("dimension_ledger",
               _flag_status(dim_l - dim_i == dim_q == dim_a),
               f"dim L={dim_l} dim I={dim_i} dim L/I={dim_q} dim A={dim_a}")

    for kind in ("homomorphism", "surjective"):
        flag, detail = realization.psi_map.certificates[kind]
        report.add(f"psi_{kind}", _flag_status(flag), detail or "")
    report.add("psi_basis_images", PASS, _image_listing(realization.psi_map))
    report.add("quotient_basis", PASS,
               "; ".join(stable(lbl)
                         for lbl in realization.quotient.basis_labels))
    report.add("psi_vanishes_on_ideal",
               _flag_status(realization.psi_vanishes_on_ideal()),
               f"checked on {dim_i} ideal basis vectors")

    tilde = realization.psi_tilde
    report.add("psi_tilde_isomorphism", _flag_status(tilde.is_isomorphism),
               "homomorphism, injective, surjective"
               if tilde.is_isomorphism else "certificate failed")

    ok, detail = verify_phi_left_inverse(realization)
    report.add("phi_left_inverse", _flag_status(ok),
               detail or "phi o psi~ = id on the full quotient basis")

    ok, detail = verify_phi_additive(realization, ring, random.Random(0))
    report.add("phi_additive_mod_ideal", _flag_status(ok),
               detail or f"{PHI_TRIALS} random pairs")

    violation = realization.quotient.representative_independence_violation
    report.add("representative_independence", _flag_status(violation is None),
               violation or "verified during quotient construction")

    _validation_row(report, "pregrading",
                    check_pregrading(realization.quotient))
    return report


def cmd_equivalence(doc, ring, bounds, report):
    """Run the three-way orbit-equivalence / groupoid-isomorphism /
    diagonal-preserving-isomorphism comparison on a pair of actions."""
    if doc.kind != "pair":
        raise SpecFileError(f"equivalence needs a pair spec, got {doc.kind}")
    if not ring.is_integral_domain:
        raise SpecFileError(
            f"equivalence requires an integral domain (Q, Z or Z/p), "
            f"got {ring.tag()}")
    left, right = doc.payload
    actions = {"left": left, "right": right}
    free = {}
    for side, action in actions.items():
        result = validate_group_partial_action(action)
        _validation_row(report, f"{side}_action_axioms", result)
        if not result.ok:
            return report
        free[side], _ = is_topologically_free(action)

    both_free = free["left"] and free["right"]
    report.add("freeness_hypothesis", PASS,
               "both actions topologically free" if both_free else
               "hypothesis violated "
               f"(left={'yes' if free['left'] else 'no'} "
               f"right={'yes' if free['right'] else 'no'}); only the "
               "general direction (isomorphism implies orbit equivalence) "
               "is asserted")

    groupoids = {}
    lemma_ok = True
    for side, action in actions.items():
        groupoids[side] = build_transformation_groupoid(action)
        principal, _ = is_topologically_principal(groupoids[side])
        if principal != free[side]:
            lemma_ok = False
    report.add("freeness_iff_principal", _flag_status(lemma_ok),
               "topological freeness matches topological principality "
               "of the transformation groupoid on both sides")

    iso = search_groupoid_isomorphism(groupoids["left"], groupoids["right"],
                                      bounds["iso"])
    report.add("groupoid_isomorphism", PASS,
               "found" if iso is not None else "exhausted")

    orbit = search_orbit_equivalence(left, right, bounds["orbit"])
    if orbit is not None:
        ok, why = verify_orbit_equivalence(left, right, orbit)
        if not ok:
            report.add("orbit_equivalence", FAIL,
                       f"witness failed verification: {why}")
            return report
    report.add("orbit_equivalence", PASS,
               "found" if orbit is not None else "exhausted")

    transported = None
    if iso is not None:
        rho_left = rho(left, groupoids["left"])
        rho_right = rho(right, groupoids["right"])
        gamma = steinberg_transport(iso, rho_left.codomain,
                                    rho_right.codomain)
        skew_phi = transported_skew_isomorphism(rho_left, rho_right, gamma)
        certified = (gamma.is_isomorphism and gamma.preserves_diagonal
                     and skew_phi.is_isomorphism
                     and skew_phi.preserves_diagonal)
        transported = certified
        report.add("diagonal_preserving_isomorphism",
                   _flag_status(certified),
                   "constructed and certified on both levels" if certified
                   else "transport certification failed")
    else:
        transported = False
        # A diagonal-preserving isomorphism matches the units, keeping
        # orbit sizes (the ranks of the corners 1_v A 1_u) and isotropy
        # orders (the ranks of R[G_u]).  Without a groupoid isomorphism,
        # absence is shown only when those multisets differ.
        invariants = [sorted((fibre // order, order) for order, fibre, _
                             in _unit_profiles(g).values())
                      for g in groupoids.values()]
        if invariants[0] != invariants[1]:
            report.add("diagonal_preserving_isomorphism", PASS,
                       "absent (no groupoid isomorphism to transport)")
        else:
            report.add("diagonal_preserving_isomorphism", INCONCLUSIVE,
                       "undecided: no groupoid isomorphism, and the orbit "
                       "sizes and isotropy orders agree")

    if both_free:
        values = {"orbit": orbit is not None, "iso": iso is not None,
                  "transport": transported}
        agree = len(set(values.values())) == 1
        report.add("three_way_agreement", _flag_status(agree),
                   " ".join(f"{k}={'yes' if v else 'no'}"
                            for k, v in values.items()))
    else:
        if iso is not None:
            report.add("isomorphism_implies_orbit_equivalence",
                       _flag_status(orbit is not None),
                       "groupoid isomorphism transfers to orbit equivalence")
        else:
            report.add("isomorphism_implies_orbit_equivalence", PASS,
                       "vacuous: groupoids not isomorphic")
    return report


COMMANDS = {
    "validate": cmd_validate,
    "theorem3": cmd_theorem3,
    "theorem5": cmd_theorem5,
    "equivalence": cmd_equivalence,
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="groupoidal",
        description="Exact verification of finite groupoid / partial skew "
                    "ring structure theorems.")
    parser.add_argument(
        "command", choices=COMMANDS,
        help="validate: run the structural validator for the input kind; "
             "theorem3: skew group ring vs Steinberg algebra of the "
             "transformation groupoid; theorem5: Steinberg algebra as a "
             "partial skew inverse semigroup ring; equivalence: three-way "
             "orbit equivalence comparison for a pair of actions")
    parser.add_argument("input", help="path to a spec file, or a catalog name")
    parser.add_argument("--ring", default=None,
                        help="scalar ring tag: Q, Z, or Z/n "
                             "(default: file setting, else Q)")
    parser.add_argument("--bisection-bound", type=positive_int, default=None)
    parser.add_argument("--iso-bound", type=positive_int, default=None)
    parser.add_argument("--orbit-bound", type=positive_int, default=None)
    parser.add_argument("--report", choices=("text", "machine"),
                        default="text")
    parser.add_argument("--timings", action="store_true",
                        help="include wall times in the rendered report "
                             "(breaks byte-for-byte reproducibility)")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        doc = load_document(args.input)
        ring = _ring(doc, args)
        bounds = _bounds(doc, args)
    except (SpecFileError, ValueError) as exc:
        print(f"groupoidal: input error: {exc}", file=sys.stderr)
        return 2
    except SpecContentError as exc:
        print(f"groupoidal: invalid structure: {exc}", file=sys.stderr)
        return 1
    report = _new_report(args.command, doc, ring, bounds)
    try:
        COMMANDS[args.command](doc, ring, bounds, report)
    except SpecFileError as exc:
        print(f"groupoidal: input error: {exc}", file=sys.stderr)
        return 2
    except SpecContentError as exc:
        report.add("input_structure", FAIL, str(exc))
    except BoundExceeded as exc:
        report.add("bound", INCONCLUSIVE, str(exc))
    sys.stdout.write(report.render(args.report, timings=args.timings))
    return report.exit_code


if __name__ == "__main__":
    raise SystemExit(main())
