import pytest
from families import (PartialBijection, idempotents, label_groupoid,
                      label_semigroup, mul, order_pairs,
                      semigroup_from_products, star_of,
                      symmetric_inverse_monoid)
from formula_oracle import bisection_inverse, bisection_product
from test_associativity_oracle import (DictSemigroup, real_violations,
                                       reference_validator)

import catalog
from groupoidal.groups import FiniteGroup
from groupoidal.inverse_semigroups import (bisection_semigroup,
                                           validate_inverse_semigroup)

CATALOG_SEMIGROUPS = ["trivial_semigroup", "z2_semigroup", "semilattice_2",
                      "sym_inv_2"]


def test_groups_are_inverse_semigroups():
    for n in (1, 2, 3, 4):
        assert validate_inverse_semigroup(FiniteGroup.cyclic(n)).ok


def test_catalog_semigroups_valid():
    for name in CATALOG_SEMIGROUPS:
        assert validate_inverse_semigroup(catalog.load_semigroup(name)).ok, name


def test_left_zero_band_has_non_unique_pseudo_inverses():
    # In a left-zero band every element is a pseudo-inverse of every other.
    # Each star entry is one of them, so the fault is named where it shows
    # in the table: the idempotents a and b do not commute.
    elements, star = ["a", "b"], {"a": "a", "b": "b"}
    table = {(x, y): x for x in elements for y in elements}
    band = DictSemigroup("band", elements, table, star)
    assert reference_validator(band).violations == [
        "a has 2 pseudo-inverses: ['a', 'b']",
        "b has 2 pseudo-inverses: ['a', 'b']"]
    report = validate_inverse_semigroup(
        semigroup_from_products(elements, table, star))
    assert report.violations == ["idempotents a and b do not commute",
                                 "idempotents b and a do not commute"]
    assert set(report.violations) <= real_violations(band)


def test_values_outside_the_elements_are_refused():
    with pytest.raises(ValueError, match="not an element"):
        semigroup_from_products(["a"], {("a", "a"): "b"}, {"a": "a"})
    with pytest.raises(ValueError, match="not an element"):
        semigroup_from_products(["a"], {("a", "a"): "a"}, {"a": "b"})


def test_wrong_star_table_rejected():
    g = FiniteGroup.cyclic(3)
    table = {(a, b): mul(g, a, b) for a in g.elements for b in g.elements}
    star = {a: a for a in g.elements}  # wrong: g* should be g2
    s = semigroup_from_products(g.elements, table, star)
    report = validate_inverse_semigroup(s)
    assert not report.ok


def test_natural_order_in_group_is_equality():
    s = FiniteGroup.cyclic(4)
    order = order_pairs(s)
    for a in s.elements:
        for b in s.elements:
            assert ((a, b) in order) == (a == b)


def test_natural_order_on_partial_bijections_is_extension():
    monoid = symmetric_inverse_monoid(["1", "2"])
    assert monoid.order == 7
    order = order_pairs(monoid)
    for f in monoid.elements:
        for g in monoid.elements:
            extends = f.mapping.items() <= g.mapping.items()
            assert ((f, g) in order) == extends


def test_idempotent_order_via_products():
    monoid = symmetric_inverse_monoid(["1", "2"])
    order = order_pairs(monoid)
    idem = idempotents(monoid)
    for e in idem:
        assert mul(monoid, e, e) == e
        for f in idem:
            assert ((e, f) in order) == (mul(monoid, e, f) == e)
            # meet in the semilattice
            meet = mul(monoid, e, f)
            below_both = [h for h in idem
                          if (h, e) in order and (h, f) in order]
            assert meet in below_both
            assert all((h, meet) in order for h in below_both)


def test_order_compatible_with_multiplication():
    monoid = symmetric_inverse_monoid(["1", "2"])
    order = order_pairs(monoid)
    elems = monoid.elements
    for s in elems:
        for t in elems:
            if (s, t) not in order:
                continue
            for u in elems:
                for v in elems:
                    if (u, v) in order:
                        assert (mul(monoid, s, u), mul(monoid, t, v)) in order


def test_partial_bijection_basics():
    f = PartialBijection({"1": "2"})
    g = PartialBijection({"2": "1"})
    assert f.compose(g) == PartialBijection({"2": "2"})
    assert f.inverse() == g
    assert (f.compose(g).mapping.items()
            <= PartialBijection.identity(["1", "2"]).mapping.items())
    with pytest.raises(ValueError):
        PartialBijection({"1": "3", "2": "3"})


def test_bisection_semigroup_two_isolated_units():
    g = catalog.load_groupoid("two_isolated_units")
    s = label_semigroup(bisection_semigroup(g))
    assert s.order == 4
    # all products are intersections on the semilattice of unit subsets
    for b in s.elements:
        for c in s.elements:
            assert mul(s, b, c) == b & c
    assert s.elements[s.unit] == label_groupoid(g).units


def test_bisection_semigroup_z2():
    g = catalog.load_groupoid("z2_one_unit")
    s = label_semigroup(bisection_semigroup(g))
    assert s.order == 3
    gg = frozenset({"g"})
    assert mul(s, gg, gg) == frozenset({"u"})
    empty = frozenset()
    for b in s.elements:
        assert mul(s, empty, b) == empty
        assert mul(s, b, empty) == empty


@pytest.mark.parametrize("name", catalog.groupoid_names())
def test_bisection_semigroup_structure(name):
    g = catalog.load_groupoid(name)
    s = label_semigroup(bisection_semigroup(g))
    assert validate_inverse_semigroup(s).ok
    order = order_pairs(s)
    for b in s.elements:
        for c in s.elements:
            assert ((b, c) in order) == (b <= c)
    units = label_groupoid(g).units
    assert set(idempotents(s)) == {b for b in s.elements if b <= units}
    assert s.elements[s.unit] == units
    for b in s.elements:
        assert star_of(s, b) == bisection_inverse(g, b)
        for c in s.elements:
            assert mul(s, b, c) == bisection_product(g, b, c)


def test_pair_groupoid_bisections_match_symmetric_inverse_monoid():
    g = catalog.load_groupoid("pair_groupoid_2")
    assert bisection_semigroup(g).order == symmetric_inverse_monoid(["u", "v"]).order
