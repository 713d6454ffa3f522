import os
import random
import subprocess
import sys
from itertools import combinations, product

import pytest

from dense_oracle import (apply, from_vector, ideal_rows, mul_basis,
                          mul_vectors, phi, realize, skew_ring, to_vector)
from families import (basis_labels, groupoid_from_labels, indicator,
                      label_groupoid, label_semigroup, order_pairs, point_mass,
                      random_scalar, range_set, transformation_rho)
from formula_oracle import SkewElement, SpaceFunction, rho_inverse
from test_phi_oracle import class_of
from test_search_oracle import iso_witness, verify_groupoid_isomorphism

import catalog
import groupoidal
from groupoidal.isomorphisms import (AlgebraMap, OrbitEquivalenceData,
                                     rho, search_groupoid_isomorphism,
                                     search_orbit_equivalence,
                                     steinberg_transport,
                                     transported_skew_isomorphism,
                                     verify_orbit_equivalence,
                                     verify_phi_additive,
                                     verify_phi_left_inverse)
from groupoidal.partial_actions import induce_algebra_action
from groupoidal.scalars import SpanTracker, ring_from_tag, zero_vector
from groupoidal.steinberg_algebra import GroupoidFunction, SteinbergAlgebra
from groupoidal.transformation_groupoid import build_transformation_groupoid
from groupoidal.validation import BoundExceeded, stable


def rho_formula(skew, tg, ring):
    """The defining formula, applied directly to a formal sum over ring
    (independent of the matrix route)."""
    values = {}
    for (t, x) in tg.arrows:
        c = skew.terms[t](x) if t in skew.terms else ring.zero()
        if c:
            values[(t, x)] = c
    return GroupoidFunction(tg, ring, values)


def unit(ring, dim, k):
    vec = zero_vector(ring, dim)
    vec[k] = ring.one()
    return vec


def span_rank(ring, n, vectors):
    span = SpanTracker(ring, n)
    for v in vectors:
        span.add(v)
    return span.dimension


def lift(c):
    """A scalar as an integer or rational, a residue mod n lifted to the
    least absolute value, ties up: the coefficient of a kernel vector of
    the Z-form."""
    n = c.ring.modulus
    return c.value if n is None or 2 * c.value <= n else c.value - n


CERTIFICATES = ("homomorphism", "injective", "surjective", "diagonal")


def reference_certificates(m, ring, kinds=CERTIFICATES):
    """The certificates of m named in kinds by the dense vector computation
    over the field ring that the integer certificates replaced:
    multiplicativity as apply(mul_basis) against mul_vectors of the basis
    images (on dense tables), and kernels and ranks by exact echelon
    reduction, the kernel vector written with lifted coefficients."""
    dom, cod = m.domain, m.codomain
    n = cod.dim
    images = [apply(m, ring, unit(ring, dom.dim, i)) for i in range(dom.dim)]
    certs = {"homomorphism": (True, None)}
    for i, j in product(range(dom.dim), repeat=2):
        if apply(m, ring, mul_basis(dom, ring, i, j)) != \
                mul_vectors(cod, ring, images[i], images[j]):
            certs["homomorphism"] = (
                False, f"fails on basis pair ({stable(basis_labels(dom)[i])}, "
                       f"{stable(basis_labels(dom)[j])})")
            break
    aug = SpanTracker(ring, n + dom.dim)
    for i, img in enumerate(images):
        aug.add(img + unit(ring, dom.dim, i))
    kernel = next((row[n:] for row, piv in zip(aug.rows, aug.pivots)
                   if piv >= n), None)
    certs["injective"] = (True, None) if kernel is None else (
        False, "kernel vector " + " + ".join(
            f"{lift(c)}*{stable(basis_labels(dom)[i])}"
            for i, c in enumerate(kernel) if c))
    rank = span_rank(ring, n, images)
    certs["surjective"] = (rank == n, None if rank == n else
                           f"image has rank {rank} < {n}")
    if "diagonal" not in kinds:
        return {kind: certs[kind] for kind in kinds}
    dom_diag, cod_diag = dom.diagonal_indices(), cod.diagonal_indices()
    leak = next(((i, k) for i in dom_diag
                 for k, c in enumerate(images[i]) if c and k not in cod_diag),
                None)
    if leak is not None:
        certs["diagonal"] = (
            False, f"image of diagonal basis "
                   f"{stable(basis_labels(dom)[leak[0]])} "
                   f"leaks to {stable(basis_labels(cod)[leak[1]])}")
    else:
        rank = span_rank(ring, n, [images[i] for i in dom_diag])
        certs["diagonal"] = (rank == len(cod_diag),
                             None if rank == len(cod_diag) else
                             f"diagonal image has rank {rank} "
                             f"< {len(cod_diag)}")
    return certs


def is_identity(m):
    return m.domain.dim == m.codomain.dim and \
        m.targets == list(range(m.domain.dim))


def assert_certificates_agree(m, ring, kinds=CERTIFICATES):
    reference = reference_certificates(m, ring, kinds)
    for kind in kinds:
        getattr(m, f"certify_{kind}")()
    assert {kind: m.certificates[kind] for kind in kinds} == reference, m.name


def test_rho_trivial_group_is_identity():
    action = catalog.load_action("trivial_3pt")
    m = transformation_rho(action)
    assert is_identity(m)
    assert m.is_homomorphism and m.is_injective and m.is_surjective


def test_rho_z2_swap_sends_basis_to_arrow_masses(Q):
    action = catalog.load_action("z2_global_swap")
    m = transformation_rho(action)
    assert m.domain.dim == 4 and m.codomain.dim == 4
    tg = m.codomain.groupoid
    for i, (g, x) in enumerate(basis_labels(m.domain)):
        assert m.targets[i] == tg.index((g, x))
        expected = [Q.one() if k == tg.index((g, x)) else Q.zero()
                    for k in range(4)]
        assert apply(m, Q, unit(Q, 4, i)) == expected


@pytest.mark.parametrize("name", catalog.action_names())
def test_rho_certificates(name):
    m = transformation_rho(catalog.load_action(name))
    assert m.is_homomorphism
    assert m.is_injective
    assert m.is_surjective
    assert m.preserves_diagonal
    assert m.domain.dim == m.codomain.dim


def test_rho_multiplicative_by_independent_paths(Q):
    action = catalog.load_action("z2_global_swap")
    module = skew_ring(induce_algebra_action(action))
    tg = build_transformation_groupoid(action)
    alg = module.algebra_action
    x = SkewElement(alg, {"g": SpaceFunction.indicator(Q, alg.action.space)})
    lhs = rho_formula(x * x, tg, Q)
    rhs = rho_formula(x, tg, Q) * rho_formula(x, tg, Q)
    assert lhs == rhs


@pytest.mark.parametrize("name", catalog.action_names())
def test_rho_round_trips_random(name, Q):
    action = catalog.load_action(name)
    module = skew_ring(induce_algebra_action(action))
    tg = build_transformation_groupoid(action)
    m = rho(action, tg, module=module)
    algebra = m.codomain
    rng = random.Random(13)
    for _ in range(100):
        vec = [random_scalar(Q, rng) for _ in range(module.dim)]
        f = from_vector(algebra, Q, apply(m, Q, vec))
        assert to_vector(module, Q, rho_inverse(f, module)) == vec
    for _ in range(100):
        values = {a: random_scalar(Q, rng) for a in tg.arrows
                  if rng.random() < 0.5}
        f = GroupoidFunction(tg, Q, values)
        back = apply(m, Q, to_vector(module, Q, rho_inverse(f, module)))
        assert from_vector(algebra, Q, back) == f


def test_rho_inverse_examples(Q):
    action = catalog.load_action("z2_partial_3pt")
    module = skew_ring(induce_algebra_action(action))
    tg = build_transformation_groupoid(action)
    zero = GroupoidFunction.zero(tg, Q)
    assert not rho_inverse(zero, module)
    mass = point_mass(tg, Q, ("g", "1"))
    skew = rho_inverse(mass, module)
    assert skew == SkewElement.basis(module.algebra_action, Q, "g", "1")


@pytest.mark.parametrize("name", catalog.action_names())
def test_diagonal_correspondence(name):
    m = transformation_rho(catalog.load_action(name))
    assert m.certificates["diagonal"] == (True, None)


def test_non_diagonal_basis_image_not_diagonal(Q):
    action = catalog.load_action("z2_global_swap")
    m = transformation_rho(action)
    algebra = m.codomain
    i = basis_labels(m.domain).index(("g", "1"))
    image = from_vector(algebra, Q, apply(m, Q, unit(Q, m.domain.dim, i)))
    assert not set(image.values) <= label_groupoid(algebra.groupoid).units


def test_trivial_group_image_is_whole_diagonal():
    m = transformation_rho(catalog.load_action("trivial_3pt"))
    assert m.codomain.diagonal_indices() == list(range(m.codomain.dim))
    assert m.preserves_diagonal


# --- orbit equivalence ------------------------------------------------------

def test_identity_orbit_equivalence_verifies():
    action = catalog.load_action("z2_partial_3pt")
    data = search_orbit_equivalence(action, action)
    assert data.phi == list(range(len(action.space)))
    ok, why = verify_orbit_equivalence(action, action, data)
    assert ok, why


def test_relabeled_orbit_equivalence_verifies():
    left = catalog.load_action("z2_global_swap")
    right = catalog.load_action("z2_global_swap_relabeled")
    # phi sends 1 to a and 2 to b, and each cocycle is the identity.
    assert (left.space, right.space) == (["1", "2"], ["a", "b"])
    star = left.group.star_table
    a = {(i, x): i for i in range(left.group.order)
         for x in left.domains[star[i]]}
    b = {(i, y): i for i in range(right.group.order)
         for y in right.domains[star[i]]}
    data = OrbitEquivalenceData([0, 1], a, b)
    ok, why = verify_orbit_equivalence(left, right, data)
    assert ok, why


def test_corrupted_cocycle_rejected():
    action = catalog.load_action("z2_global_swap")
    data = search_orbit_equivalence(action, action)
    assert data.phi == [0, 1]
    assert action.group.elements == ["e", "g"]
    data.a[1, 0] = 0  # wrong: gamma_e(1) = 1 != theta_g(1) = 2
    ok, why = verify_orbit_equivalence(action, action, data)
    assert not ok
    assert why == "phi(theta_g(1)) != gamma_e(phi(1))"


def test_search_orbit_equivalence_self():
    action = catalog.load_action("z2_partial_3pt")
    data = search_orbit_equivalence(action, action)
    assert data is not None
    ok, why = verify_orbit_equivalence(action, action, data)
    assert ok, why


def test_search_orbit_equivalence_obstruction():
    swap = catalog.load_action("z2_global_swap")
    trivial = catalog.load_action("z2_trivial_2pt")
    assert search_orbit_equivalence(swap, trivial) is None


def test_search_orbit_equivalence_relabeled_pair():
    left, right = catalog.load_pair("pair_partial_relabeled")
    data = search_orbit_equivalence(left, right)
    assert data is not None
    ok, why = verify_orbit_equivalence(left, right, data)
    assert ok, why


def test_search_orbit_equivalence_bound():
    action = catalog.load_action("z2_partial_3pt")
    with pytest.raises(BoundExceeded):
        search_orbit_equivalence(action, action, bound=2)


# --- groupoid isomorphism search --------------------------------------------

def test_groupoid_isomorphism_self_identity():
    g = catalog.load_groupoid("pair_groupoid_2")
    iso = search_groupoid_isomorphism(g, g)
    assert iso == list(range(g.n_arrows))


def test_groupoid_isomorphism_unit_count_obstruction():
    pair = catalog.load_groupoid("pair_groupoid_2")
    z2 = catalog.load_groupoid("z2_one_unit")
    assert search_groupoid_isomorphism(pair, z2) is None


def test_groupoid_isomorphism_arrow_count_obstruction():
    g1 = catalog.load_groupoid("two_isolated_units")
    g2 = catalog.load_groupoid("trivial_groupoid")
    assert search_groupoid_isomorphism(g1, g2) is None


def test_groupoid_isomorphism_relabeled():
    tg = build_transformation_groupoid(catalog.load_action("z2_partial_3pt"))
    labels = label_groupoid(tg)
    names = {a: f"arr{i}" for i, a in enumerate(tg.arrows)}
    relabeled = groupoid_from_labels(
        [names[a] for a in reversed(tg.arrows)],
        [names[u] for u in labels.units],
        {names[a]: names[labels.inverse(a)] for a in tg.arrows},
        {(names[a], names[b]): names[c]
         for (a, b), c in labels.compose_table.items()},
        name="relabeled")
    iso = search_groupoid_isomorphism(tg, relabeled)
    assert iso is not None
    ok, why = verify_groupoid_isomorphism(
        tg, relabeled, iso_witness(tg, relabeled, iso))
    assert ok, why


def test_groupoid_isomorphism_bound():
    g = catalog.load_groupoid("pair_groupoid_3")
    with pytest.raises(BoundExceeded):
        search_groupoid_isomorphism(g, g, bound=5)


def test_distinct_isotropy_not_isomorphic():
    two_units = catalog.load_groupoid("two_isolated_units")
    z2 = catalog.load_groupoid("z2_one_unit")
    assert search_groupoid_isomorphism(two_units, z2) is None


# --- the skew realization of a Steinberg algebra ----------------------------

def psi_tilde_is_isomorphism(r):
    """The two premises of psi~'s isomorphism by the first isomorphism
    theorem: I = ker psi for the homomorphism psi, and psi onto."""
    return r.quotient.representative_independence_violation is None and \
        r.psi_map.is_surjective


def test_psi_trivial_groupoid_ledger():
    r = realize(catalog.load_groupoid("trivial_groupoid"))
    assert r.dimension_ledger == (1, 0, 1, 1)
    assert psi_tilde_is_isomorphism(r)


def test_psi_two_isolated_units_ledger():
    r = realize(catalog.load_groupoid("two_isolated_units"))
    assert r.dimension_ledger == (4, 2, 2, 2)
    assert r.psi_map.is_homomorphism and r.psi_map.is_surjective
    # theorem5 does not compute psi's injectivity; the kernel is I.
    assert "injective" not in r.psi_map.certificates
    assert not r.psi_map.certify_injective()
    assert r.quotient.ideal_in_kernel
    assert psi_tilde_is_isomorphism(r)


def test_psi_on_indicator_of_range(Q):
    for name in ("z2_one_unit", "pair_groupoid_2", "two_z2"):
        g = catalog.load_groupoid(name)
        r = realize(g)
        alg = r.module.algebra_action
        for bis in label_semigroup(r.semigroup).elements:
            f = SpaceFunction.indicator(Q, range_set(g, bis))
            elem = SkewElement(alg, {bis: f}) if f else SkewElement.zero(alg)
            image = from_vector(r.steinberg, Q, apply(
                r.psi_map, Q, to_vector(r.module, Q, elem)))
            assert image == indicator(g, Q, bis)


def test_psi_over_prime_field(Z5):
    r = realize(catalog.load_groupoid("two_isolated_units"))
    assert r.dimension_ledger == (4, 2, 2, 2)
    assert psi_tilde_is_isomorphism(r)
    assert verify_phi_additive(r, Z5, random.Random(0)) == (True, None)


def test_psi_over_non_fields_matches_q():
    # The realization is built once, on the Z-form; over Z and Z/4, as
    # over Q, psi~ sends the class vectors to the unit vectors at its
    # targets, which are all distinct and hit every arrow, and phi is
    # additive on classes.
    for name in catalog.groupoid_names():
        r = realize(catalog.load_groupoid(name))
        n = r.quotient.dim
        assert sorted(r.psi_tilde.targets) == list(range(n)), name
        for tag in ("Q", "Z", "Z/4"):
            ring = ring_from_tag(tag)
            assert [apply(r.psi_tilde, ring, unit(ring, n, q))
                    for q in range(n)] == \
                [unit(ring, n, t) for t in r.psi_tilde.targets], (name, tag)
            assert verify_phi_additive(r, ring, random.Random(0)) == \
                (True, None), (name, tag)


def test_quotient_necessity_witnesses():
    found = 0
    for name in catalog.groupoid_names():
        g = catalog.load_groupoid(name)
        r = realize(g)
        order = order_pairs(r.semigroup)
        elements = label_semigroup(r.semigroup).elements
        comparable = any(s != t and s and (s, t) in order
                         for s in elements for t in elements)
        if comparable:
            found += 1
            assert r.ideal.dimension > 0, name
            assert r.module.dim > r.steinberg.dim
            assert not r.psi_map.certify_injective()
        else:
            assert r.ideal.dimension == 0, name
    assert found >= 1


def test_phi_examples(Q):
    g = catalog.load_groupoid("pair_groupoid_2")
    r = realize(g)
    zero_class = phi(GroupoidFunction.zero(g, Q), r)
    assert not any(zero_class)
    for bis in label_semigroup(r.semigroup).elements:
        if not bis:
            continue
        f = indicator(g, Q, bis)
        expected_elem = SkewElement(
            r.module.algebra_action,
            {bis: SpaceFunction.indicator(Q, range_set(g, bis))})
        expected = class_of(r.quotient, Q,
                            to_vector(r.module, Q, expected_elem))
        assert phi(f, r) == expected


@pytest.mark.parametrize("name", ["trivial_groupoid", "two_isolated_units",
                                  "z2_one_unit", "z3_one_unit",
                                  "pair_groupoid_2", "two_z2",
                                  "pair_plus_unit"])
def test_phi_left_inverse_and_additivity(name, Q):
    r = realize(catalog.load_groupoid(name))
    ok, why = verify_phi_left_inverse(r)
    assert ok, why
    ok, why = verify_phi_additive(r, Q, random.Random(0))
    assert ok, why


# --- transport --------------------------------------------------------------

def test_transport_full_pipeline():
    left, right = catalog.load_pair("pair_partial_relabeled")
    gl = build_transformation_groupoid(left)
    gr = build_transformation_groupoid(right)
    iso = search_groupoid_isomorphism(gl, gr)
    assert iso is not None
    gamma = steinberg_transport(iso, SteinbergAlgebra(gl),
                                SteinbergAlgebra(gr))
    assert gamma.is_isomorphism and gamma.preserves_diagonal
    rho_l = rho(left, gl)
    rho_r = rho(right, gr)
    skew_map = transported_skew_isomorphism(rho_l, rho_r, gamma)
    assert skew_map.is_isomorphism and skew_map.preserves_diagonal
    assert skew_map.domain.dim == rho_l.domain.dim


# --- AlgebraMap hygiene ------------------------------------------------------

def test_flags_require_certificates():
    action = catalog.load_action("trivial_1pt")
    module = skew_ring(induce_algebra_action(action))
    tg = build_transformation_groupoid(action)
    m = AlgebraMap(module, SteinbergAlgebra(tg), [0])
    with pytest.raises(RuntimeError):
        m.is_homomorphism
    m.certify_homomorphism()
    assert m.is_homomorphism


def test_psi_tilde_homomorphism_is_derived_from_its_premises():
    # psi~ is an isomorphism once I = ker psi is certified for a
    # homomorphism psi and psi is onto; it gets no pass of its own, so
    # reading any of its flags raises.
    r = realize(catalog.load_groupoid("pair_groupoid_2"))
    assert psi_tilde_is_isomorphism(r)
    assert r.psi_tilde.certificates == {}
    for flag in ("is_homomorphism", "is_injective", "is_surjective",
                 "preserves_diagonal", "is_isomorphism"):
        with pytest.raises(RuntimeError):
            getattr(r.psi_tilde, flag)


def test_inverse_requires_square():
    r = realize(catalog.load_groupoid("two_isolated_units"))
    with pytest.raises(ValueError):
        r.psi_map.inverse()


# --- integer certificates against the vector computation --------------------

@pytest.mark.parametrize("name", catalog.action_names())
def test_rho_certificates_agree_with_vector_computation(name, Q):
    assert_certificates_agree(transformation_rho(catalog.load_action(name)),
                              Q)


@pytest.mark.parametrize("tag", ["Q", "Z/5"])
@pytest.mark.parametrize("name", catalog.groupoid_names())
def test_psi_certificates_agree_with_vector_computation(name, tag):
    r, ring = realize(catalog.load_groupoid(name)), ring_from_tag(tag)
    assert_certificates_agree(r.psi_map, ring)
    # psi~ computes no certificate: its isomorphism is read off the kernel
    # pass and psi's surjectivity.  The dense computation of its
    # homomorphism, injectivity and surjectivity must each agree with that
    # verdict (L/I names no diagonal of its own).
    kinds = CERTIFICATES[:3]
    verdict = psi_tilde_is_isomorphism(r)
    assert {flag for flag, _ in reference_certificates(
        r.psi_tilde, ring, kinds).values()} == {verdict}
    # psi~ is psi on the class representatives, and vanishing on I is
    # psi(row) = 0 on every row of the echelon basis of I.
    for q, a in enumerate(r.quotient.representatives):
        assert apply(r.psi_tilde, ring, unit(ring, r.quotient.dim, q)) == \
            apply(r.psi_map, ring, unit(ring, r.module.dim, a))
    assert r.quotient.ideal_in_kernel == all(
        not any(apply(r.psi_map, ring, row))
        for row in ideal_rows(r.ideal, ring))


def test_transport_certificates_agree_with_vector_computation(Q):
    transported = 0
    for name in catalog.pair_names():
        left, right = catalog.load_pair(name)
        gl = build_transformation_groupoid(left)
        gr = build_transformation_groupoid(right)
        iso = search_groupoid_isomorphism(gl, gr)
        if iso is None:
            continue
        transported += 1
        gamma = steinberg_transport(iso, SteinbergAlgebra(gl),
                                    SteinbergAlgebra(gr))
        rho_l = rho(left, gl)
        rho_r = rho(right, gr)
        skew_map = transported_skew_isomorphism(rho_l, rho_r, gamma)
        for m in (gamma, skew_map):
            assert_certificates_agree(m, Q)
        # Phi is rho_r^-1 o Gamma o rho_l as linear maps.
        inverse = rho_r.inverse()
        assert is_identity(inverse.compose(rho_r))
        for i in range(skew_map.domain.dim):
            vec = unit(Q, skew_map.domain.dim, i)
            assert apply(skew_map, Q, vec) == apply(
                inverse, Q, apply(gamma, Q, apply(rho_l, Q, vec))), name
    assert transported >= 2


def test_swapped_targets_fail_the_homomorphism_certificate():
    m = transformation_rho(catalog.load_action("z2_global_swap"))
    swapped = list(m.targets)
    swapped[0], swapped[-1] = swapped[-1], swapped[0]
    bad = AlgebraMap(m.domain, m.codomain, swapped, name="rho'")
    assert not bad.certify_homomorphism()
    assert "fails on basis pair" in bad.certificates["homomorphism"][1]


def test_every_transposition_of_rho_agrees_with_vector_computation(Q):
    m = transformation_rho(catalog.load_action("z2_partial_3pt"))
    failures = 0
    for a, b in combinations(range(m.domain.dim), 2):
        swapped = list(m.targets)
        swapped[a], swapped[b] = swapped[b], swapped[a]
        mutant = AlgebraMap(m.domain, m.codomain, swapped, name="rho'")
        assert_certificates_agree(mutant, Q)
        failures += not mutant.is_homomorphism
    assert failures > 0


def test_repeated_target_fails_injectivity(Q):
    m = transformation_rho(catalog.load_action("z2_partial_3pt"))
    labels = basis_labels(m.domain)
    for a, b in combinations(range(m.domain.dim), 2):
        repeated = list(m.targets)
        repeated[b] = repeated[a]
        mutant = AlgebraMap(m.domain, m.codomain, repeated, name="rho'")
        assert_certificates_agree(mutant, Q)
        assert not mutant.is_injective and not mutant.is_surjective
        assert mutant.certificates["injective"][1] == \
            f"kernel vector 1*{stable(labels[a])} + -1*{stable(labels[b])}"
        with pytest.raises(ValueError):
            mutant.inverse()


@pytest.mark.parametrize("bad", [-1, 4])
def test_out_of_range_target_is_refused(bad):
    m = transformation_rho(catalog.load_action("z2_global_swap"))
    with pytest.raises(ValueError):
        AlgebraMap(m.domain, m.codomain, m.targets[:-1] + [bad])
    with pytest.raises(ValueError):
        AlgebraMap(m.domain, m.codomain, m.targets[:-1])


def test_inverse_and_compose_are_permutation_arithmetic(Q):
    action = catalog.load_action("z2_partial_3pt")
    algebra = transformation_rho(action).codomain
    n = algebra.dim
    # A rotation, which is not its own inverse, and a transposition; the
    # two do not commute.
    outer = AlgebraMap(algebra, algebra, list(range(1, n)) + [0], name="p")
    inner = AlgebraMap(algebra, algebra, [1, 0] + list(range(2, n)),
                       name="q")
    assert outer.compose(inner).targets != inner.compose(outer).targets
    assert is_identity(outer.inverse().compose(outer))
    assert is_identity(outer.compose(outer.inverse()))
    rng = random.Random(5)
    for _ in range(20):
        vec = [random_scalar(Q, rng) for _ in range(n)]
        assert apply(outer.compose(inner), Q, vec) == \
            apply(outer, Q, apply(inner, Q, vec))
        assert apply(outer.inverse(), Q, apply(outer, Q, vec)) == vec


def test_certificate_details_do_not_depend_on_the_hash_seed():
    # psi is not injective on pair_groupoid_3, and its kernel vector
    # names two bisections, sets of arrows whose order is each process's
    # own.  Under two hash seeds the detail reads the same.
    src = os.path.dirname(os.path.dirname(groupoidal.__file__))
    probe = ("from groupoidal.groupoid_core import validate_groupoid\n"
             "from groupoidal.isomorphisms import psi\n"
             "from groupoidal.specfiles import load_document\n"
             "g = load_document('pair_groupoid_3').payload\n"
             "r = psi(g, validate_groupoid(g))\n"
             "r.psi_map.certify_injective()\n"
             "print(r.psi_map.certificates['injective'][1])\n")
    details = {subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True,
        check=True,
        env=dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed)).stdout
        for seed in ("1", "2")}
    assert details == {"kernel vector 1*({u},u) + -1*({u,v,w},u)\n"}


def test_psi_not_vanishing_on_the_ideal_is_detected(Q):
    r = realize(catalog.load_groupoid("two_isolated_units"))
    a = next(a for a, rep in enumerate(r.ideal.rep) if a != rep)
    targets = list(r.psi_map.targets)
    targets[a] = next(t for t in range(r.steinberg.dim) if t != targets[a])
    r.psi_map = AlgebraMap(r.module, r.steinberg, targets, name="psi'")
    r.psi_map.certify_homomorphism()
    assert r.quotient.verify_representative_independence(r.psi_map) \
        is not None
    assert not r.quotient.ideal_in_kernel
    assert any(any(apply(r.psi_map, Q, row))
               for row in ideal_rows(r.ideal, Q))
