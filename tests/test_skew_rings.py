import random

import pytest

from dense_oracle import (dense_table, ideal_generators, ideal_rows,
                          mul_basis, mul_vectors, product_rows, quotient_of,
                          realize, reference_build_ideal,
                          reference_generator_scan, skew_ring, to_vector)
from families import (basis_labels, bisection_action_of, label_index,
                      label_semigroup, label_view, mul, order_pairs,
                      random_scalar)
from formula_oracle import SkewElement, SpaceFunction, skew_multiply
from test_factored_oracle import ladder_groupoids
from test_phi_oracle import class_of

import catalog
from groupoidal.partial_actions import induce_algebra_action
from groupoidal.scalars import SpanTracker, ring_from_tag, zero_vector
from groupoidal.skew_rings import (CovarianceModule, IdealCongruence,
                                   QuotientAlgebra, build_ideal,
                                   check_pregrading)
from groupoidal.validation import stable


def module_for_action(name):
    action = catalog.load_action(name)
    return skew_ring(induce_algebra_action(action))


def module_for_groupoid(name):
    g = catalog.load_groupoid(name)
    return skew_ring(induce_algebra_action(bisection_action_of(g)))


def unit_vector(ring, dim, k):
    vec = zero_vector(ring, dim)
    vec[k] = ring.one()
    return vec


def test_identity_block_multiplies_pointwise(Q):
    module = module_for_action("z2_partial_3pt")
    alg = module.algebra_action
    rng = random.Random(2)
    e = alg.index.identity
    for _ in range(20):
        f = SpaceFunction(Q, {x: random_scalar(Q, rng) for x in alg.action.space})
        g = SpaceFunction(Q, {x: random_scalar(Q, rng) for x in alg.action.space})
        lhs = skew_multiply(SkewElement(alg, {e: f}), SkewElement(alg, {e: g}))
        assert lhs == SkewElement(alg, {e: f * g})


def test_global_swap_delta_g_squares_to_identity_block(Q):
    module = module_for_action("z2_global_swap")
    alg = module.algebra_action
    one_x = SpaceFunction.indicator(Q, alg.action.space)
    dg = SkewElement(alg, {"g": one_x})
    assert dg * dg == SkewElement(alg, {"e": one_x})


def test_multiplication_by_zero(Q):
    module = module_for_action("z2_global_swap")
    alg = module.algebra_action
    x = SkewElement.basis(alg, Q, "g", "1")
    assert x * SkewElement.zero(alg) == SkewElement.zero(alg)


def test_coefficient_containment_on_basis_pairs(Q):
    # the product coefficient must vanish off X_{st}; the SkewElement
    # constructor raises if it does not, so products proving this exist
    for name in catalog.action_names():
        module = module_for_action(name)
        alg = module.algebra_action
        for s, x in basis_labels(module):
            for t, y in basis_labels(module):
                product = skew_multiply(SkewElement.basis(alg, Q, s, x),
                                        SkewElement.basis(alg, Q, t, y))
                st = mul(alg.index, s, t)
                for u, f in product.terms.items():
                    assert u == st
                    assert f.vanishes_off(label_view(alg.action).domains[st])


def test_mixed_actions_rejected(Q):
    m1 = module_for_action("z2_global_swap")
    m2 = module_for_action("z2_partial_3pt")
    with pytest.raises(ValueError):
        SkewElement.basis(m1.algebra_action, Q, "g", "1") * \
            SkewElement.basis(m2.algebra_action, Q, "g", "1")


def test_skew_group_ring_dimensions():
    assert module_for_action("z2_global_swap").dim == 4
    assert module_for_action("z2_partial_3pt").dim == 5
    assert module_for_action("trivial_3pt").dim == 3


def test_trivial_group_ring_is_commutative():
    module = module_for_action("trivial_3pt")
    table, rows = dense_table(module), product_rows(module)
    for i in range(module.dim):
        for j in range(module.dim):
            assert rows[i][j] == table[i][j] == table[j][i]


@pytest.mark.parametrize("kind,name",
                         [("action", n) for n in catalog.action_names()]
                         + [("groupoid", n) for n in catalog.groupoid_names()])
def test_product_table_matches_skew_multiply(kind, name, Q):
    if kind == "action":
        alg = induce_algebra_action(catalog.load_action(name))
    else:
        alg = induce_algebra_action(
            bisection_action_of(catalog.load_groupoid(name)))
    module = CovarianceModule(alg)
    for i, (s, x) in enumerate(basis_labels(module)):
        for j, (t, y) in enumerate(basis_labels(module)):
            product = skew_multiply(SkewElement.basis(alg, Q, s, x),
                                    SkewElement.basis(alg, Q, t, y))
            assert mul_basis(module, Q, i, j) == \
                to_vector(module, Q, product)


@pytest.mark.parametrize("name", catalog.action_names())
def test_associativity_exhaustive_group_case(name):
    module = module_for_action(name)
    # Certified from the premises, and Light's test on the factored
    # product finds no failing triple.
    assert module.associative
    assert module.associativity_counterexample() is None


@pytest.mark.parametrize("name", ["trivial_groupoid", "two_isolated_units",
                                  "z2_one_unit", "pair_groupoid_2", "two_z2"])
def test_associativity_exhaustive_bisection_case(name):
    module = module_for_groupoid(name)
    assert module.associative
    assert module.associativity_counterexample() is None


def test_group_ideal_is_zero():
    module = module_for_action("z2_partial_3pt")
    assert list(ideal_generators(module)) == []
    ideal = reference_build_ideal(module)
    assert ideal.dimension == 0
    # A group action has no psi: its quotient is built directly, and the
    # dense scan finds the zero ideal two-sided.
    quotient = QuotientAlgebra(module, ideal)
    assert quotient.dim == module.dim
    assert reference_generator_scan(quotient) is None


def test_two_isolated_units_ideal():
    module = module_for_groupoid("two_isolated_units")
    assert module.dim == 4
    gens = list(ideal_generators(module))
    # only {u} < {u,v} and {v} < {u,v} contribute: one point each
    assert len(gens) == 2
    ideal = build_ideal(module)
    assert ideal.dimension == 2
    quotient = quotient_of(module, ideal)
    assert quotient.dim == 2


def test_ideal_generators_work_over_non_fields(Q, Z):
    assert len(list(ideal_generators(
        module_for_groupoid("two_isolated_units")))) == 2
    # I and L/I are built once, on the Z-form.  Over Z and Z/4, as over
    # Q, the dim I rows e_a - e_rep(a) have class zero, and the unit
    # vectors of L have unit classes: L/I is free on the classes.
    for name in catalog.groupoid_names():
        module = module_for_groupoid(name)
        ideal = build_ideal(module)
        quotient = quotient_of(module, ideal)
        for ring in (Q, Z, ring_from_tag("Z/4")):
            rows = ideal_rows(ideal, ring)
            assert len(rows) == ideal.dimension, name
            assert not any(any(class_of(quotient, ring, row))
                           for row in rows), name
            assert [class_of(quotient, ring,
                             unit_vector(ring, module.dim, a))
                    for a in range(module.dim)] == \
                [unit_vector(ring, quotient.dim, quotient._class[a])
                 for a in range(module.dim)], name


def test_ideal_dimension_independent_of_schedule(Q):
    # The old path as an oracle: close the generators under multiplication
    # by L with echelon reduction, in a shuffled order.
    rng = random.Random(1)
    for name in catalog.groupoid_names():
        if name == "pair_groupoid_3":
            continue  # seconds of elimination over fractions
        module = module_for_groupoid(name)
        units = [unit_vector(Q, module.dim, k) for k in range(module.dim)]
        gens = [[u - v for u, v in zip(units[a], units[b])]
                for a, b in ideal_generators(module)]
        rng.shuffle(gens)
        tracker = SpanTracker(Q, module.dim)
        pending = [g for g in gens if tracker.add(g)]
        while pending:
            v = pending.pop(rng.randrange(len(pending)))
            for e in units:
                for product in (mul_vectors(module, Q, e, v),
                                mul_vectors(module, Q, v, e)):
                    if tracker.add(product):
                        pending.append(product)
        ideal = build_ideal(module)
        assert tracker.dimension == ideal.dimension, name
        assert tracker.rows == ideal_rows(ideal, Q), name


def test_ideal_is_two_sided(Q):
    module = module_for_groupoid("two_z2")
    ideal = build_ideal(module)
    # The classes alone, without the check build_quotient makes: a vector
    # lies in I iff its class is zero.
    quotient = QuotientAlgebra(module, ideal)
    for row in ideal_rows(ideal, Q):
        for k in range(module.dim):
            e = unit_vector(Q, module.dim, k)
            for product in (mul_vectors(module, Q, e, row),
                            mul_vectors(module, Q, row, e)):
                assert not any(class_of(quotient, Q, product))


def test_one_sided_congruence_is_refused():
    module = module_for_groupoid("two_isolated_units")
    # Identify ({u},u) with ({v},v): e_0 e_0 = e_0 but e_0 e_1 = 0.
    assert basis_labels(module)[:2] == [(frozenset({"u"}), "u"),
                                       (frozenset({"v"}), "v")]
    # psi sends them to the arrows u and v, so the refusal names the half
    # I <= ker psi; the dense scan finds a product leaving the span.
    fake = IdealCongruence(module, 1, [1, 1, 2, 3])
    quotient = quotient_of(module, fake)
    assert quotient.representative_independence_violation == \
        "e_0 - e_1 lies in I but not in ker psi"
    assert reference_generator_scan(quotient, edges=[(0, 1)]) == \
        "e_0 * (e_0 - e_1) leaves the ideal"
    assert not check_pregrading(quotient).ok


def test_order_identified_classes_agree(Q):
    module = module_for_groupoid("pair_groupoid_2")
    quotient = quotient_of(module, build_ideal(module))
    alg = module.algebra_action
    for s, t in order_pairs(alg.index):
        for x in label_view(alg.action).domain_points(s):
            vs = to_vector(module, Q, SkewElement.basis(alg, Q, s, x))
            vt = to_vector(module, Q, SkewElement.basis(alg, Q, t, x))
            assert class_of(quotient, Q, vs) == class_of(quotient, Q, vt)


def test_quotient_product_well_defined_on_representatives(Q):
    module = module_for_groupoid("z2_one_unit")
    ideal = build_ideal(module)
    quotient = quotient_of(module, ideal)
    assert quotient.representative_independence_violation is None
    rng = random.Random(23)
    for _ in range(50):
        u = [random_scalar(Q, rng) for _ in range(module.dim)]
        v = [random_scalar(Q, rng) for _ in range(module.dim)]
        shift = zero_vector(Q, module.dim)
        for row in ideal_rows(ideal, Q):
            c = random_scalar(Q, rng)
            shift = [a + c * b for a, b in zip(shift, row)]
        u_shifted = [a + b for a, b in zip(u, shift)]
        lhs = class_of(quotient, Q, mul_vectors(module, Q, u, v))
        rhs = class_of(quotient, Q, mul_vectors(module, Q, u_shifted, v))
        assert lhs == rhs


def test_pregrading_group_case_is_honest_grading(Q):
    module = module_for_action("z2_partial_3pt")
    assert reference_pregrading(module, Q) == []
    # blocks meet only in zero: distinct delta components never overlap
    seen = {}
    for i, (s, _) in enumerate(basis_labels(module)):
        seen.setdefault(s, set()).add(i)
    blocks = list(seen.values())
    for i, b1 in enumerate(blocks):
        for b2 in blocks[i + 1:]:
            assert not (b1 & b2)


def test_pregrading_module_fails_for_strict_order(Q):
    module = module_for_groupoid("two_isolated_units")
    # B_s is not inside B_t before taking the quotient.
    assert reference_pregrading(module, Q) != []


def test_pregrading_quotient_case(Q):
    module = module_for_groupoid("two_isolated_units")
    quotient = quotient_of(module, build_ideal(module))
    report = check_pregrading(quotient)
    assert report.ok
    # the block of {u} sits inside the block of {u, v} with nonzero overlap
    alg = module.algebra_action
    small = frozenset({"u"})
    big = frozenset({"u", "v"})
    vec_small = class_of(quotient, Q, to_vector(
        module, Q, SkewElement.basis(alg, Q, small, "u")))
    big_tracker = SpanTracker(Q, quotient.dim)
    for x in label_view(alg.action).domain_points(big):
        big_tracker.add(class_of(quotient, Q, to_vector(
            module, Q, SkewElement.basis(alg, Q, big, x))))
    assert big_tracker.contains(vec_small)
    assert any(vec_small)


def span_of(ring, dim, vectors):
    span = SpanTracker(ring, dim)
    for v in vectors:
        span.add(v)
    return span


def reference_pregrading(algebra, ring):
    """The pre-grading violations over ring by exact span membership, with
    each B_s spanned by the (classes of the) vectors e_(s,x): the
    computation that check_pregrading's index sets replaced.

    Over a ring that is not a field the vectors are lifted to Q.  Every
    vector here has entries 0 and 1: the spanning vectors are basis
    vectors and so are their nonzero products, as all structure constants
    are 0 or 1.  Over any ring the span of a set of basis vectors is the
    vectors supported on it, so membership and spanning are the same
    over the ring and over Q.  A product or a membership is computed once
    per distinct pair."""
    quotient = algebra if isinstance(algebra, QuotientAlgebra) else None
    module = algebra.module if quotient else algebra
    alg = module.algebra_action
    index = label_semigroup(alg.index)
    field = ring if ring.is_field else ring_from_tag("Q")

    def lift(vec):
        assert all(c.value in (0, 1) for c in vec)
        return [field.scalar(c.value) for c in vec]

    # Each distinct vector gets a number, its position in vectors.
    vectors, numbers = [], {}

    def keyed(vec):
        key = tuple(c.value for c in vec)
        if key not in numbers:
            numbers[key] = len(vectors)
            vectors.append(vec)
        return numbers[key]

    blocks = {}
    for s in index.elements:
        units = [unit_vector(ring, module.dim, label_index(module, s, x))
                 for x in label_view(alg.action).domain_points(s)]
        blocks[s] = [keyed(class_of(quotient, ring, v) if quotient else v)
                     for v in units]
    spans = {s: span_of(field, algebra.dim, [lift(vectors[k]) for k in keys])
             for s, keys in blocks.items()}
    products, members = {}, {}

    def product(a, b):
        if (a, b) not in products:
            products[(a, b)] = keyed(mul_vectors(algebra, ring, vectors[a],
                                                 vectors[b]))
        return products[(a, b)]

    def member(s, k):
        if (s, k) not in members:
            members[(s, k)] = spans[s].contains(lift(vectors[k]))
        return members[(s, k)]

    violations = []
    for s in index.elements:
        for t in index.elements:
            st = mul(index, s, t)
            if not all(member(st, product(a, b))
                       for a in blocks[s] for b in blocks[t]):
                violations.append(f"B_{{{stable(s)}}} B_{{{stable(t)}}} is "
                                  f"not contained in B_{{{stable(st)}}}")
    for s, t in order_pairs(index):
        if not all(member(t, a) for a in blocks[s]):
            violations.append(f"{stable(s)} <= {stable(t)} but "
                              f"B_{{{stable(s)}}} is not contained in "
                              f"B_{{{stable(t)}}}")
    rank = span_of(field, algebra.dim, [lift(vectors[k])
                                        for keys in blocks.values()
                                        for k in keys]).dimension
    if rank != algebra.dim:
        violations.append(f"the union of the B_s spans only {rank} of "
                          f"{algebra.dim} dimensions")
    return violations


def test_pregrading_agrees_with_span_membership(Q):
    # L itself is pre-graded for a group action, and not for some
    # groupoids: there I is needed.
    for name in catalog.action_names():
        assert reference_pregrading(module_for_action(name), Q) == [], name
    failing = 0
    for name in catalog.groupoid_names():
        module = module_for_groupoid(name)
        failing += bool(reference_pregrading(module, Q))
        quotient = quotient_of(module, build_ideal(module))
        assert check_pregrading(quotient).violations == \
            reference_pregrading(quotient, Q), name
    assert failing > 0


@pytest.mark.parametrize("tag", ["Z", "Z/4"])
def test_quotient_pregrading_over_non_fields_matches_q(tag, Q):
    # check_pregrading has no ring; its verdict is the span computation's
    # over Q and over the ring alike.
    ring = ring_from_tag(tag)
    for name in catalog.groupoid_names():
        module = module_for_groupoid(name)
        quotient = quotient_of(module, build_ideal(module))
        report = check_pregrading(quotient)
        assert report.ok, name
        assert report.violations == reference_pregrading(quotient, ring) \
            == reference_pregrading(quotient, Q), name


@pytest.mark.parametrize("tag", ["Q", "Z", "Z/4"])
def test_every_ladder_quotient_is_pregraded(tag):
    # check_pregrading tests only spanning; the products and the order
    # are pre-graded on every quotient that build_quotient certifies.
    ring = ring_from_tag(tag)
    for g in ladder_groupoids():
        assert reference_pregrading(realize(g).quotient, ring) == [], g.name


def test_empty_bisection_block_is_zero():
    module = module_for_groupoid("z2_one_unit")
    assert all(s != frozenset() for s, _ in basis_labels(module))


def test_quotient_dimension_formula():
    for name in ["trivial_groupoid", "two_isolated_units", "z2_one_unit",
                 "pair_groupoid_2", "two_z2", "pair_plus_unit"]:
        module = module_for_groupoid(name)
        ideal = build_ideal(module)
        quotient = quotient_of(module, ideal)
        assert quotient.dim == module.dim - ideal.dimension
