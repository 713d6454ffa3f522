import pytest

from groupoidal import catalog
from groupoidal.groupoid_core import (is_topologically_principal,
                                      isotropy_group, validate_groupoid)
from groupoidal.isomorphisms import search_groupoid_isomorphism
from groupoidal.partial_actions import is_topologically_free
from groupoidal.transformation_groupoid import build_transformation_groupoid


def unit_isotropy_orders(action):
    """Point -> order of the isotropy group of the transformation groupoid
    at the unit (e, x)."""
    tg = build_transformation_groupoid(action)
    e = action.group.identity
    return {x: isotropy_group(tg, (e, x)).order for x in action.space}


def test_trivial_action_gives_isolated_units():
    tg = build_transformation_groupoid(catalog.load_action("trivial_3pt"))
    assert tg.n_arrows == 3
    assert tg.units == frozenset(tg.arrows)
    assert validate_groupoid(tg).ok


def test_global_swap_gives_pair_groupoid():
    tg = build_transformation_groupoid(catalog.load_action("z2_global_swap"))
    assert tg.n_arrows == 4
    assert len(tg.units) == 2
    iso = search_groupoid_isomorphism(tg, catalog.load_groupoid("pair_groupoid_2"))
    assert iso is not None


def test_partial_action_arrow_count():
    tg = build_transformation_groupoid(catalog.load_action("z2_partial_3pt"))
    assert tg.n_arrows == 5  # 3 identity arrows + 2 swap arrows


def test_arrow_count_is_sum_of_domains():
    for name in catalog.action_names():
        action = catalog.load_action(name)
        tg = build_transformation_groupoid(action)
        assert tg.n_arrows == sum(len(action.domains[t])
                                  for t in action.group.elements)
        e = action.group.identity
        assert tg.units == {(e, x) for x in action.space}


def test_structure_formulas():
    # Range and source are read off the tables as b b^-1 and b^-1 b; on
    # every catalog action they are the pair formulas.
    for name in catalog.action_names():
        action = catalog.load_action(name)
        group = action.group
        e = group.identity
        tg = build_transformation_groupoid(action)
        for (t, x) in tg.arrows:
            back = action.theta(group.inv(t), x)
            assert tg.range((t, x)) == (e, x), name
            assert tg.source((t, x)) == (e, back), name
            assert tg.inverse((t, x)) == (group.inv(t), back), name
    action = catalog.load_action("z2_partial_3pt")
    tg = build_transformation_groupoid(action)
    assert tg.inverse(("g", "1")) == (action.group.inv("g"), "2")
    assert tg.compose(("g", "1"), ("g", "2")) == ("e", "1")


def test_isotropy_free_global_action():
    orders = unit_isotropy_orders(catalog.load_action("z3_cycle_3pt"))
    assert set(orders.values()) == {1}


def test_isotropy_trivial_action_is_whole_group():
    orders = unit_isotropy_orders(catalog.load_action("z2_trivial_2pt"))
    assert set(orders.values()) == {2}


def test_isotropy_outside_partial_domain():
    action = catalog.load_action("z2_partial_3pt")
    assert unit_isotropy_orders(action)["3"] == 1
    with pytest.raises(ValueError):
        isotropy_group(build_transformation_groupoid(action), ("e", "9"))


def test_isotropy_matches_groupoid_isotropy():
    for name in catalog.action_names():
        action = catalog.load_action(name)
        tg = build_transformation_groupoid(action)
        group = action.group
        for x in action.space:
            # The stabilizer {t : x in X_t and theta_{t^-1}(x) = x}.
            stab = {t for t in group.elements if x in action.domains[t]
                    and action.theta(group.inv(t), x) == x}
            iso = isotropy_group(tg, (group.identity, x))
            assert iso.order == len(stab)
            assert {t for (t, _) in iso.elements} == stab


def test_freeness_iff_principal_on_catalog():
    for name in catalog.action_names():
        action = catalog.load_action(name)
        free, _ = is_topologically_free(action)
        principal, _ = is_topologically_principal(
            build_transformation_groupoid(action))
        assert free == principal, name
