import random

import pytest

from groupoidal import catalog
from groupoidal.groupoid_core import enumerate_bisections, bisection_product
from groupoidal.steinberg_algebra import (GroupoidFunction, SteinbergAlgebra,
                                          convolve, diagonal_embed,
                                          disjoint_decomposition, is_diagonal)

SMALL = ["trivial_groupoid", "two_isolated_units", "z2_one_unit",
         "z3_one_unit", "pair_groupoid_2", "two_z2", "pair_plus_unit"]


def convolve_oracle(f, g):
    """Brute force over all arrow pairs instead of supports."""
    parent, ring = f.parent, f.ring
    acc = {}
    for c in parent.arrows:
        for d in parent.arrows:
            if parent.composable(c, d):
                b = parent.compose(c, d)
                acc[b] = acc.get(b, ring.zero()) + f(c) * g(d)
    return GroupoidFunction(parent, ring, acc)


def random_function(g, ring, rng, density=0.6):
    values = {}
    for a in g.arrows:
        if rng.random() < density:
            values[a] = ring.random(rng)
    return GroupoidFunction(g, ring, values)


@pytest.mark.parametrize("name", SMALL)
def test_indicator_convolution_is_bisection_product(name, Q):
    g = catalog.load_groupoid(name)
    bisections = enumerate_bisections(g)
    for b in bisections:
        fb = GroupoidFunction.indicator(g, Q, b)
        for c in bisections:
            fc = GroupoidFunction.indicator(g, Q, c)
            expected = GroupoidFunction.indicator(g, Q, bisection_product(g, b, c))
            assert convolve(fb, fc) == expected


def test_convolution_with_zero(Q):
    g = catalog.load_groupoid("pair_groupoid_2")
    f = random_function(g, Q, random.Random(1))
    zero = GroupoidFunction.zero(g, Q)
    assert convolve(f, zero) == zero
    assert convolve(zero, f) == zero


def test_pair_groupoid_point_mass_convolution(Q):
    g = catalog.load_groupoid("pair_groupoid_2")
    fa = GroupoidFunction.point_mass(g, Q, "a")
    fainv = GroupoidFunction.point_mass(g, Q, g.inverse("a"))
    expected = convolve_oracle(fa, fainv)
    assert convolve(fa, fainv) == expected
    assert expected == GroupoidFunction.point_mass(g, Q, g.range("a"))


@pytest.mark.parametrize("name", SMALL)
def test_convolution_matches_oracle_on_random_functions(name, Q):
    g = catalog.load_groupoid(name)
    rng = random.Random(42)
    for _ in range(20):
        f1, f2 = random_function(g, Q, rng), random_function(g, Q, rng)
        assert convolve(f1, f2) == convolve_oracle(f1, f2)


def test_mixed_parent_or_ring_rejected(Q, Z):
    g1 = catalog.load_groupoid("trivial_groupoid")
    g2 = catalog.load_groupoid("two_isolated_units")
    with pytest.raises(ValueError):
        convolve(GroupoidFunction.indicator(g1, Q, ["u"]),
                 GroupoidFunction.indicator(g2, Q, ["u"]))
    with pytest.raises(ValueError):
        convolve(GroupoidFunction.indicator(g1, Q, ["u"]),
                 GroupoidFunction.indicator(g1, Z, ["u"]))


@pytest.mark.parametrize("name", SMALL)
def test_convolution_associative_bilinear_random(name, Q):
    g = catalog.load_groupoid(name)
    rng = random.Random(7)
    for _ in range(200):
        f1 = random_function(g, Q, rng, density=0.4)
        f2 = random_function(g, Q, rng, density=0.4)
        f3 = random_function(g, Q, rng, density=0.4)
        assert convolve(convolve(f1, f2), f3) == convolve(f1, convolve(f2, f3))
        assert convolve(f1 + f2, f3) == convolve(f1, f3) + convolve(f2, f3)
        assert convolve(f1, f2 + f3) == convolve(f1, f2) + convolve(f1, f3)


def test_diagonal_embed_and_predicate(Q):
    g = catalog.load_groupoid("pair_groupoid_2")
    one_units = diagonal_embed(g, Q, {u: Q.one() for u in g.units})
    assert is_diagonal(one_units)
    assert convolve(one_units, one_units) == one_units
    assert not is_diagonal(GroupoidFunction.point_mass(g, Q, "a"))
    with pytest.raises(ValueError):
        diagonal_embed(g, Q, {"a": Q.one()})


def test_diagonal_elements_commute_and_multiply_pointwise(Q):
    g = catalog.load_groupoid("two_z2")
    rng = random.Random(3)
    units = g.sort_arrows(g.units)
    for _ in range(50):
        f1 = diagonal_embed(g, Q, {u: Q.random(rng) for u in units})
        f2 = diagonal_embed(g, Q, {u: Q.random(rng) for u in units})
        prod = convolve(f1, f2)
        assert prod == convolve(f2, f1)
        assert prod == diagonal_embed(
            g, Q, {u: f1(u) * f2(u) for u in units})
        assert is_diagonal(prod)


def test_disjoint_decomposition_single_bisection(Q):
    g = catalog.load_groupoid("pair_groupoid_2")
    b = frozenset({"a", "b"})
    f = GroupoidFunction.indicator(g, Q, b)
    assert disjoint_decomposition(f) == [(Q.one(), b)]


def test_disjoint_decomposition_splits_level_set(Q):
    g = catalog.load_groupoid("z2_one_unit")
    two = Q.scalar(2)
    f = GroupoidFunction.indicator(g, Q, ["u", "g"], coeff=two)
    pieces = disjoint_decomposition(f)
    assert pieces == [(two, frozenset({"u"})), (two, frozenset({"g"}))]


def test_disjoint_decomposition_zero(Q):
    g = catalog.load_groupoid("trivial_groupoid")
    assert disjoint_decomposition(GroupoidFunction.zero(g, Q)) == []


@pytest.mark.parametrize("name", SMALL)
def test_disjoint_decomposition_reassembles(name, Q):
    g = catalog.load_groupoid(name)
    rng = random.Random(11)
    for _ in range(50):
        f = random_function(g, Q, rng)
        pieces = disjoint_decomposition(f)
        total = GroupoidFunction.zero(g, Q)
        seen = set()
        for coeff, bis in pieces:
            assert coeff
            assert not (bis & seen)
            seen |= bis
            total = total + GroupoidFunction.indicator(g, Q, bis, coeff)
        assert total == f


def test_disjoint_decomposition_deterministic(Q):
    g = catalog.load_groupoid("pair_groupoid_2")
    f1 = GroupoidFunction(g, Q, {"a": Q.one(), "u": Q.one()})
    f2 = GroupoidFunction(g, Q, {"u": Q.one()}) + \
        GroupoidFunction(g, Q, {"a": Q.one()})
    assert disjoint_decomposition(f1) == disjoint_decomposition(f2)


@pytest.mark.parametrize("name", SMALL)
def test_unit_checks(name, Q):
    g = catalog.load_groupoid(name)
    unit_fn = GroupoidFunction.indicator(g, Q, g.units)
    for b in enumerate_bisections(g):
        fb = GroupoidFunction.indicator(g, Q, b)
        assert convolve(unit_fn, fb) == fb
        assert convolve(fb, unit_fn) == fb


def test_diagonal_idempotents_restrict(Q):
    g = catalog.load_groupoid("pair_plus_unit")
    rng = random.Random(5)
    units = g.sort_arrows(g.units)
    for k in range(1 << len(units)):
        subset = {u for i, u in enumerate(units) if k >> i & 1}
        e = GroupoidFunction.indicator(g, Q, subset)
        f = random_function(g, Q, rng)
        # 1_U * f and f * 1_U restrict f to the arrows with range, or
        # source, in U.
        left = GroupoidFunction(g, Q, {a: c for a, c in f.values.items()
                                       if g.range(a) in subset})
        assert convolve(e, f) == left
        right = GroupoidFunction(g, Q, {a: c for a, c in f.values.items()
                                        if g.source(a) in subset})
        assert convolve(f, e) == right


@pytest.mark.parametrize("name", SMALL)
def test_algebra_dimension_and_point_mass_products(name, Q):
    g = catalog.load_groupoid(name)
    algebra = SteinbergAlgebra(g, Q)
    assert algebra.dim == g.n_arrows
    assert algebra.verify_associativity() is None
    assert set(algebra.diagonal_indices()) == \
        {g.index(u) for u in g.units}
