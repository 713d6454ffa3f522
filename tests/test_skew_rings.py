import random

import pytest

from dense_oracle import dense_table, mul_basis, mul_vectors
from test_phi_oracle import class_of

from groupoidal import catalog
from groupoidal.inverse_semigroups import natural_order
from groupoidal.isomorphisms import bisection_action
from groupoidal.partial_actions import SpaceFunction, induce_algebra_action
from groupoidal.scalars import SpanTracker, ring_from_tag, zero_vector
from groupoidal.skew_rings import (CovarianceModule, IdealCongruence,
                                   QuotientAlgebra, SkewElement, build_ideal,
                                   build_quotient, build_skew_group_ring,
                                   check_pregrading, ideal_generators,
                                   skew_multiply)
from groupoidal.validation import stable


def module_for_action(name, ring):
    action = catalog.load_action(name)
    return build_skew_group_ring(induce_algebra_action(action, ring))


def module_for_groupoid(name, ring):
    g = catalog.load_groupoid(name)
    alg = induce_algebra_action(bisection_action(g), ring)
    module = CovarianceModule(alg)
    module.verify_associativity()
    return module


def unit_vector(ring, dim, k):
    vec = zero_vector(ring, dim)
    vec[k] = ring.one()
    return vec


def test_identity_block_multiplies_pointwise(Q):
    module = module_for_action("z2_partial_3pt", Q)
    alg = module.algebra_action
    rng = random.Random(2)
    e = alg.index.identity
    for _ in range(20):
        f = SpaceFunction(Q, {x: Q.random(rng) for x in alg.space})
        g = SpaceFunction(Q, {x: Q.random(rng) for x in alg.space})
        lhs = skew_multiply(SkewElement(alg, {e: f}), SkewElement(alg, {e: g}))
        assert lhs == SkewElement(alg, {e: f * g})


def test_global_swap_delta_g_squares_to_identity_block(Q):
    module = module_for_action("z2_global_swap", Q)
    alg = module.algebra_action
    one_x = SpaceFunction.indicator(Q, alg.space)
    dg = SkewElement(alg, {"g": one_x})
    assert dg * dg == SkewElement(alg, {"e": one_x})


def test_multiplication_by_zero(Q):
    module = module_for_action("z2_global_swap", Q)
    alg = module.algebra_action
    x = SkewElement.basis(alg, "g", "1")
    assert x * SkewElement.zero(alg) == SkewElement.zero(alg)


def test_coefficient_containment_on_basis_pairs(Q):
    # the product coefficient must vanish off X_{st}; the SkewElement
    # constructor raises if it does not, so products proving this exist
    for name in catalog.action_names():
        module = module_for_action(name, Q)
        alg = module.algebra_action
        for s, x in module.basis_labels:
            for t, y in module.basis_labels:
                product = skew_multiply(SkewElement.basis(alg, s, x),
                                        SkewElement.basis(alg, t, y))
                st = alg.index.mul(s, t)
                for u, f in product.terms.items():
                    assert u == st
                    assert f.vanishes_off(alg.domains[st])


def test_mixed_actions_rejected(Q):
    m1 = module_for_action("z2_global_swap", Q)
    m2 = module_for_action("z2_partial_3pt", Q)
    with pytest.raises(ValueError):
        SkewElement.basis(m1.algebra_action, "g", "1") * \
            SkewElement.basis(m2.algebra_action, "g", "1")


def test_skew_group_ring_dimensions(Q):
    assert module_for_action("z2_global_swap", Q).dim == 4
    assert module_for_action("z2_partial_3pt", Q).dim == 5
    assert module_for_action("trivial_3pt", Q).dim == 3


def test_trivial_group_ring_is_commutative(Q):
    module = module_for_action("trivial_3pt", Q)
    table = dense_table(module)
    for i in range(module.dim):
        for j in range(module.dim):
            assert module.product(i, j) == table[i][j] == table[j][i]


@pytest.mark.parametrize("kind,name",
                         [("action", n) for n in catalog.action_names()]
                         + [("groupoid", n) for n in catalog.groupoid_names()])
def test_product_table_matches_skew_multiply(kind, name, Q):
    if kind == "action":
        alg = induce_algebra_action(catalog.load_action(name), Q)
    else:
        alg = induce_algebra_action(
            bisection_action(catalog.load_groupoid(name)), Q)
    module = CovarianceModule(alg)
    for i, (s, x) in enumerate(module.basis_labels):
        for j, (t, y) in enumerate(module.basis_labels):
            product = skew_multiply(SkewElement.basis(alg, s, x),
                                    SkewElement.basis(alg, t, y))
            assert mul_basis(module, i, j) == module.to_vector(product)


@pytest.mark.parametrize("name", catalog.action_names())
def test_associativity_exhaustive_group_case(name, Q):
    module = module_for_action(name, Q)
    assert module.associativity_counterexample is None


@pytest.mark.parametrize("name", ["trivial_groupoid", "two_isolated_units",
                                  "z2_one_unit", "pair_groupoid_2", "two_z2"])
def test_associativity_exhaustive_bisection_case(name, Q):
    module = module_for_groupoid(name, Q)
    assert module.associativity_counterexample is None


def test_group_ideal_is_zero(Q):
    module = module_for_action("z2_partial_3pt", Q)
    assert ideal_generators(module) == []
    ideal = build_ideal(module)
    assert ideal.dimension == 0
    quotient = build_quotient(module, ideal)
    assert quotient.dim == module.dim


def test_two_isolated_units_ideal(Q):
    module = module_for_groupoid("two_isolated_units", Q)
    assert module.dim == 4
    gens = ideal_generators(module)
    # only {u} < {u,v} and {v} < {u,v} contribute: one point each
    assert len(gens) == 2
    ideal = build_ideal(module)
    assert ideal.dimension == 2
    quotient = build_quotient(module, ideal)
    assert quotient.dim == 2


def ledger(module):
    ideal = build_ideal(module)
    quotient = build_quotient(module, ideal)
    return (module.dim, ideal.generator_count, ideal.dimension, quotient.dim,
            quotient.basis_labels)


def test_ideal_generators_work_over_non_fields(Q, Z):
    assert len(ideal_generators(module_for_groupoid("two_isolated_units",
                                                    Z))) == 2
    for name in catalog.groupoid_names():
        expected = ledger(module_for_groupoid(name, Q))
        for ring in (Z, ring_from_tag("Z/4")):
            assert ledger(module_for_groupoid(name, ring)) == expected, name


def test_ideal_dimension_independent_of_schedule(Q):
    # The old path as an oracle: close the generators under multiplication
    # by L with echelon reduction, in a shuffled order.
    rng = random.Random(1)
    for name in catalog.groupoid_names():
        if name == "pair_groupoid_3":
            continue  # seconds of elimination over fractions
        module = module_for_groupoid(name, Q)
        units = [unit_vector(Q, module.dim, k) for k in range(module.dim)]
        gens = [[u - v for u, v in zip(units[a], units[b])]
                for a, b in ideal_generators(module)]
        rng.shuffle(gens)
        tracker = SpanTracker(Q, module.dim)
        pending = [g for g in gens if tracker.add(g)]
        while pending:
            v = pending.pop(rng.randrange(len(pending)))
            for e in units:
                for product in (mul_vectors(module, e, v),
                                mul_vectors(module, v, e)):
                    if tracker.add(product):
                        pending.append(product)
        ideal = build_ideal(module)
        assert tracker.dimension == ideal.dimension, name
        assert tracker.rows == ideal.rows, name


def test_ideal_is_two_sided(Q):
    module = module_for_groupoid("two_z2", Q)
    ideal = build_ideal(module)
    # The classes alone, without the check build_quotient makes: a vector
    # lies in I iff its class is zero.
    quotient = QuotientAlgebra(module, ideal)
    for row in ideal.rows:
        for k in range(module.dim):
            e = unit_vector(Q, module.dim, k)
            assert not any(class_of(quotient, mul_vectors(module, e, row)))
            assert not any(class_of(quotient, mul_vectors(module, row, e)))


def test_one_sided_congruence_is_refused(Q):
    module = module_for_groupoid("two_isolated_units", Q)
    # Identify ({u},u) with ({v},v): e_0 e_0 = e_0 but e_0 e_1 = 0.
    assert module.basis_labels[:2] == [(frozenset({"u"}), "u"),
                                       (frozenset({"v"}), "v")]
    fake = IdealCongruence(module, [(0, 1)], [1, 1, 2, 3])
    with pytest.raises(ValueError, match="not two-sided"):
        build_quotient(module, fake)


def test_order_identified_classes_agree(Q):
    from groupoidal.inverse_semigroups import natural_order
    module = module_for_groupoid("pair_groupoid_2", Q)
    quotient = build_quotient(module, build_ideal(module))
    alg = module.algebra_action
    order = natural_order(alg.index)
    for t in alg.index.elements:
        for s in order.strictly_below(t):
            for x in alg.domain_points(s):
                vs = module.to_vector(SkewElement.basis(alg, s, x))
                vt = module.to_vector(SkewElement.basis(alg, t, x))
                assert class_of(quotient, vs) == class_of(quotient, vt)


def test_quotient_product_well_defined_on_representatives(Q):
    module = module_for_groupoid("z2_one_unit", Q)
    ideal = build_ideal(module)
    quotient = build_quotient(module, ideal)
    assert quotient.representative_independence_verified
    rng = random.Random(23)
    for _ in range(50):
        u = [Q.random(rng) for _ in range(module.dim)]
        v = [Q.random(rng) for _ in range(module.dim)]
        shift = zero_vector(Q, module.dim)
        for row in ideal.rows:
            c = Q.random(rng)
            shift = [a + c * b for a, b in zip(shift, row)]
        u_shifted = [a + b for a, b in zip(u, shift)]
        lhs = class_of(quotient, mul_vectors(module, u, v))
        rhs = class_of(quotient, mul_vectors(module, u_shifted, v))
        assert lhs == rhs


def test_pregrading_group_case_is_honest_grading(Q):
    module = module_for_action("z2_partial_3pt", Q)
    report = check_pregrading(module)
    assert report.ok
    # blocks meet only in zero: distinct delta components never overlap
    seen = {}
    for i, (s, _) in enumerate(module.basis_labels):
        seen.setdefault(s, set()).add(i)
    blocks = list(seen.values())
    for i, b1 in enumerate(blocks):
        for b2 in blocks[i + 1:]:
            assert not (b1 & b2)


def test_pregrading_module_fails_for_strict_order(Q):
    module = module_for_groupoid("two_isolated_units", Q)
    report = check_pregrading(module)
    assert not report.ok  # B_s is not inside B_t before taking the quotient


def test_pregrading_quotient_case(Q):
    module = module_for_groupoid("two_isolated_units", Q)
    quotient = build_quotient(module, build_ideal(module))
    report = check_pregrading(quotient)
    assert report.ok
    # the block of {u} sits inside the block of {u, v} with nonzero overlap
    alg = module.algebra_action
    small = frozenset({"u"})
    big = frozenset({"u", "v"})
    vec_small = class_of(
        quotient, module.to_vector(SkewElement.basis(alg, small, "u")))
    big_tracker = SpanTracker(Q, quotient.dim)
    for x in alg.domain_points(big):
        big_tracker.add(class_of(
            quotient, module.to_vector(SkewElement.basis(alg, big, x))))
    assert big_tracker.contains(vec_small)
    assert any(vec_small)


def span_of(algebra, vectors):
    span = SpanTracker(algebra.ring, algebra.dim)
    for v in vectors:
        span.add(v)
    return span


def reference_pregrading(algebra):
    """The pre-grading violations by exact span membership over a field,
    with each B_s spanned by the (classes of the) vectors e_(s,x): the
    computation that check_pregrading's index sets replaced."""
    quotient = algebra if isinstance(algebra, QuotientAlgebra) else None
    module = algebra.module if quotient else algebra
    alg = module.algebra_action
    index = alg.index
    blocks = {}
    for s in index.elements:
        vectors = [unit_vector(module.ring, module.dim,
                               module.label_index(s, x))
                   for x in alg.domain_points(s)]
        blocks[s] = [class_of(quotient, v) for v in vectors] \
            if quotient else vectors
    spans = {s: span_of(algebra, vectors) for s, vectors in blocks.items()}
    violations = []
    for s in index.elements:
        for t in index.elements:
            st = index.mul(s, t)
            if not all(spans[st].contains(mul_vectors(algebra, u, v))
                       for u in blocks[s] for v in blocks[t]):
                violations.append(f"B_{{{stable(s)}}} B_{{{stable(t)}}} is "
                                  f"not contained in B_{{{stable(st)}}}")
    order = natural_order(index)
    for t in index.elements:
        for s in order.strictly_below(t):
            if not all(spans[t].contains(u) for u in blocks[s]):
                violations.append(f"{stable(s)} <= {stable(t)} but "
                                  f"B_{{{stable(s)}}} is not contained in "
                                  f"B_{{{stable(t)}}}")
    rank = span_of(algebra, [v for vectors in blocks.values()
                             for v in vectors]).dimension
    if rank != algebra.dim:
        violations.append(f"the union of the B_s spans only {rank} of "
                          f"{algebra.dim} dimensions")
    return violations


def test_pregrading_agrees_with_span_membership(Q):
    algebras = [module_for_action(name, Q) for name in catalog.action_names()]
    for name in catalog.groupoid_names():
        module = module_for_groupoid(name, Q)
        algebras += [module, build_quotient(module, build_ideal(module))]
    failing = 0
    for algebra in algebras:
        violations = check_pregrading(algebra).violations
        assert violations == reference_pregrading(algebra)
        failing += bool(violations)
    assert failing > 0


@pytest.mark.parametrize("tag", ["Z", "Z/4"])
def test_quotient_pregrading_over_non_fields_matches_q(tag, Q):
    ring = ring_from_tag(tag)
    for name in catalog.groupoid_names():
        reports = []
        for r in (Q, ring):
            module = module_for_groupoid(name, r)
            quotient = build_quotient(module, build_ideal(module))
            reports.append(check_pregrading(quotient))
        assert reports[1].ok == reports[0].ok, name
        assert reports[1].violations == reports[0].violations, name


def test_empty_bisection_block_is_zero(Q):
    module = module_for_groupoid("z2_one_unit", Q)
    assert all(s != frozenset() for s, _ in module.basis_labels)


def test_quotient_dimension_formula(Q):
    for name in ["trivial_groupoid", "two_isolated_units", "z2_one_unit",
                 "pair_groupoid_2", "two_z2", "pair_plus_unit"]:
        module = module_for_groupoid(name, Q)
        ideal = build_ideal(module)
        quotient = build_quotient(module, ideal)
        assert quotient.dim == module.dim - ideal.dimension
