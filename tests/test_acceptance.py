"""Acceptance suite: one test per criterion, each printing a single
PASS/FAIL line.  All checks are exact; every tolerance here is equality.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import random
import time

from dense_oracle import (apply, from_vector, product_rows, realize,
                          skew_ring, table_of, to_vector)
from families import (bisection_sets, family_groupoids, idempotents,
                      indicator, label_bisection_action, order_pairs,
                      point_mass, transformation_rho)
from formula_oracle import (bisection_inverse, bisection_product,
                            is_bisection, rho_inverse)

import catalog
from groupoidal.groupoid_core import (is_topologically_principal,
                                      validate_groupoid)
from groupoidal.inverse_semigroups import (bisection_semigroup,
                                           validate_inverse_semigroup)
from groupoidal.isomorphisms import (rho,
                                     search_groupoid_isomorphism,
                                     search_orbit_equivalence,
                                     steinberg_transport,
                                     transported_skew_isomorphism,
                                     verify_phi_additive,
                                     verify_phi_left_inverse)
from groupoidal.partial_actions import (induce_algebra_action,
                                        is_topologically_free,
                                        validate_isg_partial_action)
from groupoidal.scalars import ring_from_tag
from groupoidal.steinberg_algebra import SteinbergAlgebra, convolve
from groupoidal.transformation_groupoid import build_transformation_groupoid

Q = ring_from_tag("Q")


def report(number, title, passed=True):
    print(f"ACCEPTANCE {number} ({title}): {'PASS' if passed else 'FAIL'}")
    assert passed


def test_criterion_1_skew_ring_isomorphism_per_action():
    names = catalog.action_names()
    assert len(names) >= 6
    kinds = {"trivial": False, "global_free": False, "partial": False,
             "nonfree": False}
    for name in names:
        action = catalog.load_action(name)
        start = time.perf_counter()
        module = skew_ring(induce_algebra_action(action))
        groupoid = build_transformation_groupoid(action)
        rho_map = rho(action, groupoid, module=module)
        assert rho_map.is_homomorphism, name
        assert rho_map.is_injective, name
        assert rho_map.is_surjective, name
        assert module.dim == groupoid.n_arrows == \
            sum(len(action.domains[t]) for t in action.group.elements), name
        algebra = rho_map.codomain
        for i in range(module.dim):
            vec = [Q.one() if k == i else Q.zero() for k in range(module.dim)]
            f = from_vector(algebra, Q, apply(rho_map, Q, vec))
            assert to_vector(module, Q, rho_inverse(f, module)) == vec, name
        for k, arrow in enumerate(algebra.basis_labels):
            mass = point_mass(groupoid, Q, arrow)
            back = apply(rho_map, Q,
                         to_vector(module, Q, rho_inverse(mass, module)))
            assert from_vector(algebra, Q, back) == mass, name
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, (name, elapsed)

        free, _ = is_topologically_free(action)
        if action.group.order == 1:
            kinds["trivial"] = True
        elif all(len(action.domains[t]) == len(action.space)
                 for t in action.group.elements):
            if free:
                kinds["global_free"] = True
            else:
                kinds["nonfree"] = True
        elif any(0 < len(action.domains[t]) < len(action.space)
                 for t in action.group.elements):
            kinds["partial"] = True
        if not free:
            kinds["nonfree"] = True
    assert all(kinds.values()), kinds
    report(1, "skew group ring is the Steinberg algebra, per catalog action")


def test_criterion_2_coefficient_algebra_is_the_diagonal():
    for name in catalog.action_names():
        rho_map = transformation_rho(catalog.load_action(name))
        assert rho_map.preserves_diagonal, name
    report(2, "coefficient algebra maps onto the diagonal, as exact spans")


def test_criterion_3_skew_realization_per_groupoid():
    ledgers = {}
    for name in catalog.groupoid_names():
        groupoid = catalog.load_groupoid(name)
        assert groupoid.n_arrows <= 12
        start = time.perf_counter()
        realization = realize(groupoid)
        dim_l, dim_i, dim_q, dim_a = realization.dimension_ledger
        assert dim_l - dim_i == dim_q == dim_a == groupoid.n_arrows, name
        assert realization.psi_vanishes_on_ideal(), name
        ok, why = verify_phi_left_inverse(realization)
        assert ok, (name, why)
        ok, why = verify_phi_additive(realization, Q, random.Random(0))
        assert ok, (name, why)
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, (name, elapsed)
        ledgers[name] = (dim_l, dim_i, dim_q)
    assert ledgers["two_isolated_units"] == (4, 2, 2)
    assert ledgers["trivial_groupoid"] == (1, 0, 1)
    report(3, "Steinberg algebra realized as partial skew inverse "
              "semigroup ring, per catalog groupoid")


def test_criterion_4_quotient_necessity():
    witnesses = 0
    for name in catalog.groupoid_names():
        realization = realize(catalog.load_groupoid(name))
        if realization.ideal.dimension > 0:
            witnesses += 1
            assert realization.module.dim > realization.steinberg.dim, name
            assert not realization.psi_map.is_injective, name
    assert witnesses >= 1
    report(4, "the quotient is necessary: some catalog groupoid has "
              "dim I > 0 and a non-injective pre-quotient map")


def test_criterion_5_equivalence_three_ways():
    start = time.perf_counter()
    free_pairs = 0
    for pair_name in catalog.pair_names():
        left, right = catalog.load_pair(pair_name)
        if not (is_topologically_free(left)[0]
                and is_topologically_free(right)[0]):
            continue
        assert len(left.space) <= 6 and len(right.space) <= 6
        gl = build_transformation_groupoid(left)
        gr = build_transformation_groupoid(right)
        assert gl.n_arrows <= 10 and gr.n_arrows <= 10
        free_pairs += 1
        orbit = search_orbit_equivalence(left, right)
        iso = search_groupoid_isomorphism(gl, gr)
        if iso is None:
            transported = False
        else:
            gamma = steinberg_transport(iso, SteinbergAlgebra(gl),
                                        SteinbergAlgebra(gr))
            skew_map = transported_skew_isomorphism(
                rho(left, gl), rho(right, gr), gamma)
            transported = (gamma.is_isomorphism and gamma.preserves_diagonal
                           and skew_map.is_isomorphism
                           and skew_map.preserves_diagonal)
        values = {orbit is not None, iso is not None, transported}
        assert len(values) == 1, (pair_name, orbit is not None,
                                  iso is not None, transported)
    assert free_pairs >= 4
    for name in catalog.action_names():
        action = catalog.load_action(name)
        free, _ = is_topologically_free(action)
        principal, _ = is_topologically_principal(
            build_transformation_groupoid(action))
        assert free == principal, name
    assert time.perf_counter() - start < 60.0
    report(5, "orbit equivalence, groupoid isomorphism and diagonal "
              "transport agree on all free catalog pairs")


def test_criterion_6_structural_suites():
    for name in catalog.groupoid_names():
        g = catalog.load_groupoid(name)
        assert validate_groupoid(g).ok, name
        bisections = bisection_sets(g)
        for b in bisections:
            assert is_bisection(g, bisection_inverse(g, b)), name
            assert bisection_product(
                g, bisection_product(g, b, bisection_inverse(g, b)), b) == b
        for b in bisections:
            for c in bisections:
                bc = bisection_product(g, b, c)
                assert is_bisection(g, bc), name
                fb = indicator(g, Q, b)
                fc = indicator(g, Q, c)
                assert convolve(fb, fc) == \
                    indicator(g, Q, bc), name
        semigroup = bisection_semigroup(g)
        assert validate_inverse_semigroup(semigroup).ok, name
        order = order_pairs(semigroup)
        for b in semigroup.elements:
            for c in semigroup.elements:
                assert ((b, c) in order) == (b <= c), name
        assert set(idempotents(semigroup)) == \
            {b for b in semigroup.elements if b <= g.units}, name
        assert validate_isg_partial_action(label_bisection_action(g, semigroup)).ok, name

        algebra = SteinbergAlgebra(g)
        assert product_rows(algebra) == \
            [list(row) for row in table_of(algebra)], name
        assert algebra.associativity_counterexample() is None, name
    for g in family_groupoids(4):
        semigroup = bisection_semigroup(g)
        assert validate_inverse_semigroup(semigroup).ok, g.name
        assert validate_isg_partial_action(
            label_bisection_action(g, semigroup)).ok, g.name
    report(6, "structural suites: bisection semigroups, orders, "
              "bisection action, convolution")
