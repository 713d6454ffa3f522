import random
import tracemalloc

import pytest
from families import (bisection_sets, family_groupoids, groupoid_from_labels,
                      label_groupoid, mask_arrows, range_set, regular_action,
                      table_groupoid)
from formula_oracle import (bisection_inverse, bisection_product,
                            is_bisection, isotropy_group, source_set)
from test_factored_oracle import z4_actions

import catalog
from groupoidal.groupoid_core import (enumerate_bisections,
                                      is_topologically_principal,
                                      validate_groupoid)
from groupoidal.partial_actions import validate_group_partial_action
from groupoidal.steinberg_algebra import SteinbergAlgebra
from groupoidal.transformation_groupoid import build_transformation_groupoid
from groupoidal.validation import BoundExceeded


def trivial():
    return catalog.load_groupoid("trivial_groupoid")


def z2_one_unit():
    return catalog.load_groupoid("z2_one_unit")


def pair_2():
    return catalog.load_groupoid("pair_groupoid_2")


def test_trivial_groupoid_valid():
    assert validate_groupoid(trivial()).ok


def test_missing_inverse_reported():
    g = groupoid_from_labels(["u", "v", "a"], ["u", "v"],
                             {"u": "u", "v": "v"},
                             {("u", "u"): "u", ("v", "v"): "v"})
    report = validate_groupoid(g)
    assert not report.ok
    assert "inverse not closed" in report.first


def test_broken_associativity_reported():
    # one unit, two loops with a deliberately wrong product table
    g = groupoid_from_labels(
        ["u", "g", "h"], ["u"],
        {"u": "u", "g": "h", "h": "g"},
        {("u", "u"): "u", ("u", "g"): "g", ("u", "h"): "h",
         ("g", "u"): "g", ("g", "g"): "u", ("g", "h"): "u",
         ("h", "u"): "h", ("h", "g"): "u", ("h", "h"): "g"})
    report = validate_groupoid(g)
    assert not report.ok


def test_compose_iff_matching_units():
    g = pair_2()
    for b in range(g.n_arrows):
        for c in range(g.n_arrows):
            assert ((b, c) in g.compose) == (g.source[b] == g.range[c])


def test_transformation_groupoids_always_valid():
    # theorem3 does not validate the transformation groupoid: it is a
    # groupoid when the action passes its validator (the derivation is in
    # build_transformation_groupoid).  The Z4 actions break only the
    # composition law, and the groupoid then fails cancellation.  The
    # range and source derived from the table of composites are the ones
    # the builder wrote.
    actions = ([catalog.load_action(name) for name in catalog.action_names()]
               + [regular_action(n) for n in range(1, 13)])
    for action in actions:
        tg = build_transformation_groupoid(action)
        assert validate_groupoid(tg).ok, action.name
        table = table_groupoid(tg)
        assert (table.range, table.source) == (tg.range, tg.source)
    verdicts = []
    for action in z4_actions(random.Random(19), 40):
        ok = validate_group_partial_action(action).ok
        assert validate_groupoid(build_transformation_groupoid(action)).ok \
            == ok
        verdicts.append(ok)
    assert 0 < sum(verdicts) < len(verdicts)


def test_isotropy_examples():
    assert isotropy_group(trivial(), "u").order == 1
    assert isotropy_group(z2_one_unit(), "u").order == 2
    g = pair_2()
    assert isotropy_group(g, "u").order == 1
    assert isotropy_group(g, "v").order == 1
    with pytest.raises(ValueError):
        isotropy_group(g, "a")


def test_isotropy_closed_for_catalog():
    for name in catalog.groupoid_names():
        g = label_groupoid(catalog.load_groupoid(name))
        for u in g.sort_arrows(g.units):
            grp = isotropy_group(g, u)
            assert grp.identity == u
            members = set(grp.elements)
            assert all(g.compose(a, b) in members
                       for a in members for b in members)
            assert all(g.inverse(a) in members for a in members)


def test_topologically_principal():
    ok, witness = is_topologically_principal(pair_2())
    assert ok and witness == ()
    ok, witness = is_topologically_principal(z2_one_unit())
    assert not ok and witness == ("u",)
    ok, _ = is_topologically_principal(trivial())
    assert ok


def test_enumerate_bisections_counts():
    two_units = catalog.load_groupoid("two_isolated_units")
    bis = enumerate_bisections(two_units)
    assert len(bis) == 4
    assert bis[0] == 0

    g = z2_one_unit()
    bis = enumerate_bisections(g)
    assert [mask_arrows(g, mask) for mask in bis] == \
        [frozenset(), frozenset({"u"}), frozenset({"g"})]

    # every strict subset of a bisection is one; the full pair groupoid has
    # as many bisections as there are partial bijections of the unit set
    assert len(enumerate_bisections(pair_2())) == 7
    assert len(enumerate_bisections(catalog.load_groupoid("pair_groupoid_3"))) == 34


def subset_scan(g):
    """Every arrow subset in ascending bitmask order, kept when it is a
    bisection: the enumeration that backtracking replaced."""
    n = g.n_arrows
    out = []
    for mask in range(1 << n):
        subset = frozenset(g.arrows[i] for i in range(n) if mask >> i & 1)
        if is_bisection(g, subset):
            out.append(subset)
    return out


def test_enumeration_equals_the_subset_scan():
    groupoids = [catalog.load_groupoid(name)
                 for name in catalog.groupoid_names()] + family_groupoids()
    counts = {}
    for g in groupoids:
        masks = enumerate_bisections(g)
        assert [mask_arrows(g, mask) for mask in masks] == subset_scan(g), \
            g.name
        counts[g.name] = len(masks)
    assert counts["pair_groupoid_4"] == 209


def test_enumeration_bound_refusal():
    g = catalog.load_groupoid("pair_groupoid_3")
    with pytest.raises(BoundExceeded):
        enumerate_bisections(g, bound=8)


def test_bisection_product_examples():
    g = label_groupoid(pair_2())
    empty = frozenset()
    a = frozenset({"a"})
    assert bisection_product(g, a, empty) == empty
    # {a} . {a^-1} = {r(a)}, via the composition table
    ainv = frozenset({g.inverse("a")})
    oracle = frozenset(g.compose(b, c) for b in a for c in ainv
                       if g.composable(b, c))
    assert oracle == frozenset({g.range("a")})
    assert bisection_product(g, a, ainv) == oracle


@pytest.mark.parametrize("name", ["trivial_groupoid", "two_isolated_units",
                                  "z2_one_unit", "z3_one_unit",
                                  "pair_groupoid_2", "two_z2",
                                  "pair_plus_unit"])
def test_bisection_identities(name):
    g = catalog.load_groupoid(name)
    bisections = bisection_sets(g)
    for b in bisections:
        binv = bisection_inverse(g, b)
        assert is_bisection(g, binv)
        assert bisection_product(g, bisection_product(g, b, binv), b) == b
        assert bisection_product(g, bisection_product(g, binv, b), binv) == binv
        # range and source projections are unit bisections realizing BB^-1
        # and B^-1 B
        assert bisection_product(g, b, binv) == range_set(g, b)
        assert bisection_product(g, binv, b) == source_set(g, b)
        units = label_groupoid(g).units
        assert range_set(g, b) <= units and source_set(g, b) <= units
    for b in bisections:
        for c in bisections:
            bc = bisection_product(g, b, c)
            assert is_bisection(g, bc)
            for d in bisections:
                left = bisection_product(g, bc, d)
                right = bisection_product(g, b, bisection_product(g, c, d))
                assert left == right


def test_unique_pseudo_inverse_among_bisections():
    g = z2_one_unit()
    bisections = bisection_sets(g)
    for b in bisections:
        witnesses = [c for c in bisections
                     if bisection_product(g, bisection_product(g, b, c), b) == b
                     and bisection_product(g, bisection_product(g, c, b), c) == c]
        assert witnesses == [bisection_inverse(g, b)]


def test_validator_keeps_no_dense_table():
    # The regular Z40 action has 1,600 arrows and 64,000 composable pairs.
    # A dense table of the contracted semigroup, 1,600^2 16-bit entries,
    # alone takes 4.9 MiB; the factored rows take about one MiB.
    g = build_transformation_groupoid(regular_action(40))
    assert g.n_arrows == 1600
    tracemalloc.start()
    try:
        report = validate_groupoid(g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.ok
    assert peak < 2 * 2 ** 20


def test_transformation_groupoid_and_its_algebra_hold_no_pair_table():
    # The regular Z40 action: 1,600 arrows and 64,000 composites, held
    # once, in the groupoid's rows, which A_R(G) reads without a copy.  A
    # table keyed by arrow pairs alone takes several MiB.
    action = regular_action(40)
    tracemalloc.start()
    try:
        algebra = SteinbergAlgebra(build_transformation_groupoid(action))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert algebra.dim == 1600
    assert peak < 2 * 2 ** 20
