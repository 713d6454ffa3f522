import pytest

from groupoidal import catalog
from groupoidal.groupoid_core import (is_topologically_principal,
                                      isotropy_group, validate_groupoid)
from groupoidal.isomorphisms import search_groupoid_isomorphism
from groupoidal.partial_actions import is_topologically_free
from groupoidal.transformation_groupoid import (build_transformation_groupoid,
                                                isotropy_of_transformation)


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
    action = catalog.load_action("z3_cycle_3pt")
    for x in action.space:
        assert isotropy_of_transformation(action, x).order == 1


def test_isotropy_trivial_action_is_whole_group():
    action = catalog.load_action("z2_trivial_2pt")
    for x in action.space:
        assert isotropy_of_transformation(action, x).order == 2


def test_isotropy_outside_partial_domain():
    action = catalog.load_action("z2_partial_3pt")
    assert isotropy_of_transformation(action, "3").order == 1
    with pytest.raises(ValueError):
        isotropy_of_transformation(action, "9")


def test_isotropy_matches_groupoid_isotropy():
    for name in catalog.action_names():
        action = catalog.load_action(name)
        tg = build_transformation_groupoid(action)
        e = action.group.identity
        for x in action.space:
            stab = isotropy_of_transformation(action, x)
            iso = isotropy_group(tg, (e, x))
            assert iso.order == stab.order
            assert {t for (t, _) in iso.elements} == set(stab.elements)


def test_freeness_iff_principal_on_catalog():
    for name in catalog.action_names():
        action = catalog.load_action(name)
        free, _ = is_topologically_free(action)
        principal, _ = is_topologically_principal(
            build_transformation_groupoid(action))
        assert free == principal, name
