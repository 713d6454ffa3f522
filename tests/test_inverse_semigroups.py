import pytest
from families import family_groupoids

from groupoidal import catalog
from groupoidal.groupoid_core import bisection_inverse, bisection_product
from groupoidal.groups import FiniteGroup
from groupoidal.inverse_semigroups import (FiniteInverseSemigroup,
                                           PartialBijection, bisection_semigroup,
                                           from_group, idempotents,
                                           natural_order,
                                           symmetric_inverse_monoid,
                                           validate_inverse_semigroup,
                                           wagner_preston_embed)

CATALOG_SEMIGROUPS = ["trivial_semigroup", "z2_semigroup", "semilattice_2",
                      "sym_inv_2"]


def test_groups_are_inverse_semigroups():
    for n in (1, 2, 3, 4):
        s = from_group(FiniteGroup.cyclic(n))
        assert validate_inverse_semigroup(s).ok


def test_catalog_semigroups_valid():
    for name in CATALOG_SEMIGROUPS:
        assert validate_inverse_semigroup(catalog.load_semigroup(name)).ok, name


def test_left_zero_band_has_non_unique_pseudo_inverses():
    # in a left-zero band every element is a pseudo-inverse of every other
    elements = ["a", "b"]
    table = {(x, y): x for x in elements for y in elements}
    s = FiniteInverseSemigroup.from_products(elements, table,
                                             {"a": "a", "b": "b"})
    report = validate_inverse_semigroup(s)
    assert not report.ok
    assert "pseudo-inverse" in report.first


def test_values_outside_the_elements_are_refused():
    with pytest.raises(ValueError, match="not an element"):
        FiniteInverseSemigroup.from_products(["a"], {("a", "a"): "b"},
                                             {"a": "a"})
    with pytest.raises(ValueError, match="not an element"):
        FiniteInverseSemigroup.from_products(["a"], {("a", "a"): "a"},
                                             {"a": "b"})


def test_wrong_star_table_rejected():
    g = FiniteGroup.cyclic(3)
    table = {(a, b): g.mul(a, b) for a in g.elements for b in g.elements}
    star = {a: a for a in g.elements}  # wrong: g* should be g2
    s = FiniteInverseSemigroup.from_products(g.elements, table, star)
    report = validate_inverse_semigroup(s)
    assert not report.ok


def test_natural_order_in_group_is_equality():
    s = from_group(FiniteGroup.cyclic(4))
    order = natural_order(s)
    for a in s.elements:
        for b in s.elements:
            assert order.le(a, b) == (a == b)


def test_natural_order_on_partial_bijections_is_extension():
    monoid = symmetric_inverse_monoid(["1", "2"])
    assert monoid.order == 7
    order = natural_order(monoid)
    for f in monoid.elements:
        for g in monoid.elements:
            extends = f.mapping.items() <= g.mapping.items()
            assert order.le(f, g) == extends


def test_idempotent_order_via_products():
    monoid = symmetric_inverse_monoid(["1", "2"])
    order = natural_order(monoid)
    idem = idempotents(monoid)
    for e in idem:
        assert monoid.mul(e, e) == e
        for f in idem:
            assert order.le(e, f) == (monoid.mul(e, f) == e)
            # meet in the semilattice
            meet = monoid.mul(e, f)
            below_both = [h for h in idem
                          if order.le(h, e) and order.le(h, f)]
            assert meet in below_both
            assert all(order.le(h, meet) for h in below_both)


def test_order_compatible_with_multiplication():
    monoid = symmetric_inverse_monoid(["1", "2"])
    order = natural_order(monoid)
    elems = monoid.elements
    for s in elems:
        for t in elems:
            if not order.le(s, t):
                continue
            for u in elems:
                for v in elems:
                    if order.le(u, v):
                        assert order.le(monoid.mul(s, u), monoid.mul(t, v))


def test_partial_bijection_basics():
    f = PartialBijection({"1": "2"})
    g = PartialBijection({"2": "1"})
    assert f.compose(g) == PartialBijection({"2": "2"})
    assert f.inverse() == g
    assert (f.compose(g).mapping.items()
            <= PartialBijection.identity(["1", "2"]).mapping.items())
    with pytest.raises(ValueError):
        PartialBijection({"1": "3", "2": "3"})


def test_wagner_preston_trivial_group():
    emb = wagner_preston_embed(catalog.load_semigroup("trivial_semigroup"))
    assert emb.ok
    assert emb.images["e"] == PartialBijection.identity(["e"])


def test_wagner_preston_z2_total_bijections():
    s = catalog.load_semigroup("z2_semigroup")
    emb = wagner_preston_embed(s)
    assert emb.ok
    for a in s.elements:
        assert emb.images[a].domain == frozenset(s.elements)
        assert emb.images[a].image == frozenset(s.elements)


def test_wagner_preston_semilattice_nested_identities():
    s = catalog.load_semigroup("semilattice_2")
    emb = wagner_preston_embed(s)
    assert emb.ok
    assert emb.images["1"] == PartialBijection.identity(["0", "1"])
    assert emb.images["0"] == PartialBijection.identity(["0"])


@pytest.mark.parametrize("name", CATALOG_SEMIGROUPS)
def test_wagner_preston_certificates_and_image(name):
    s = catalog.load_semigroup(name)
    emb = wagner_preston_embed(s)
    assert emb.ok, emb.certificate.summary()
    # The image is closed under composition and inverse.
    image = set(emb.images.values())
    assert all(f.compose(g) in image for f in image for g in image)
    assert all(f.inverse() in image for f in image)


def test_bisection_semigroup_two_isolated_units():
    g = catalog.load_groupoid("two_isolated_units")
    s = bisection_semigroup(g)
    assert s.order == 4
    # all products are intersections on the semilattice of unit subsets
    for b in s.elements:
        for c in s.elements:
            assert s.mul(b, c) == b & c
    assert s.unit == frozenset(g.units)


def test_bisection_semigroup_z2():
    g = catalog.load_groupoid("z2_one_unit")
    s = bisection_semigroup(g)
    assert s.order == 3
    gg = frozenset({"g"})
    assert s.mul(gg, gg) == frozenset({"u"})
    empty = frozenset()
    for b in s.elements:
        assert s.mul(empty, b) == empty
        assert s.mul(b, empty) == empty


@pytest.mark.parametrize("name", catalog.groupoid_names())
def test_bisection_semigroup_structure(name):
    g = catalog.load_groupoid(name)
    s = bisection_semigroup(g)
    assert validate_inverse_semigroup(s).ok
    order = natural_order(s)
    for b in s.elements:
        for c in s.elements:
            assert order.le(b, c) == (b <= c)
    assert set(idempotents(s)) == {b for b in s.elements if b <= g.units}
    assert s.unit == frozenset(g.units)
    for b in s.elements:
        assert s.star(b) == bisection_inverse(g, b)
        for c in s.elements:
            assert s.mul(b, c) == bisection_product(g, b, c)


def test_bisection_semigroup_of_families_matches_set_products():
    # The catalog groupoids are covered by test_bisection_semigroup_structure.
    for g in family_groupoids(max_pair=3):
        s = bisection_semigroup(g)
        for b in s.elements:
            assert s.star(b) == bisection_inverse(g, b), g.name
            for c in s.elements:
                assert s.mul(b, c) == bisection_product(g, b, c), g.name


def test_pair_groupoid_bisections_match_symmetric_inverse_monoid():
    g = catalog.load_groupoid("pair_groupoid_2")
    assert bisection_semigroup(g).order == symmetric_inverse_monoid(["u", "v"]).order
