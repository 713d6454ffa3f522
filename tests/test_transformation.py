import random

import pytest
from families import label_groupoid, label_view, mul, regular_action, star_of
from formula_oracle import isotropy_group
from test_factored_oracle import partial_corruptions, z4_actions
from test_search_oracle import permutation_action

import catalog
from groupoidal.groupoid_core import (is_topologically_principal,
                                      validate_groupoid)
from groupoidal.isomorphisms import search_groupoid_isomorphism
from groupoidal.partial_actions import GroupPartialAction, is_topologically_free
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
    assert tg.units == frozenset(range(3))
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
        assert tg.n_arrows == sum(map(len, action.domains))
        e = action.group.identity
        assert label_groupoid(tg).units == {(e, x) for x in action.space}


def test_structure_formulas():
    # Range and source are read off the tables as b b^-1 and b^-1 b; on
    # every catalog action, regular Z_n and the Z4 actions, whose maps
    # are inverse bijections, they and the inverse are the pair formulas.
    actions = ([catalog.load_action(name) for name in catalog.action_names()]
               + [regular_action(n) for n in range(1, 13)]
               + list(z4_actions(random.Random(19), 40)))
    for action in actions:
        group = action.group
        e = group.identity
        tg = label_groupoid(build_transformation_groupoid(action))
        for (t, x) in tg.arrows:
            back = label_view(action).theta(star_of(group, t), x)
            assert tg.range((t, x)) == (e, x), action.name
            assert tg.source((t, x)) == (e, back), action.name
            assert tg.inverse((t, x)) == (star_of(group, t), back), action.name
    action = catalog.load_action("z2_partial_3pt")
    tg = label_groupoid(build_transformation_groupoid(action))
    assert tg.inverse(("g", "1")) == (star_of(action.group, "g"), "2")
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
        group, action = action.group, label_view(action)
        for x in action.space:
            # The stabilizer {t : x in X_t and theta_{t^-1}(x) = x}.
            stab = {t for t in group.elements if x in action.domains[t]
                    and action.theta(star_of(group, t), x) == x}
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


def all_pairs_compose_table(action):
    """The composition table as the constructor built it by trying every
    pair of arrows, in its insertion order, with the inverse table built
    first, as there, on the label form of the action."""
    group, action = action.group, label_view(action)
    arrows = [(t, x) for t in group.elements
              for x in action.domain_points(t)]
    arrow_set = set(arrows)
    for t, x in arrows:
        action.theta(star_of(group, t), x)
    compose = {}
    for (s, y) in arrows:
        for (t, x) in arrows:
            if action.theta(star_of(group, s), y) == x:
                st = mul(group, s, t)
                target = (st, y)
                if target not in arrow_set:
                    raise ValueError(
                        f"composite ({st}, {y}) escapes the arrow set; "
                        "action is not a partial action")
                compose[((s, y), (t, x))] = target
    return list(compose.items())


def outcome(build, action):
    try:
        return build(action)
    except ValueError as exc:
        return ("ValueError", str(exc))


def misdirected(rng, count):
    """Catalog actions and regular Z_n with one image of one map moved to
    a random point, so that composites escape, or dropped, so that a
    point of a domain is outside the map.  The change is made on the
    label form."""
    sources = ([lambda name=name: catalog.load_action(name)
                for name in catalog.action_names()]
               + [lambda n=n: regular_action(n) for n in (3, 4, 5)])
    for _ in range(count):
        action = label_view(rng.choice(sources)()).copy()
        s = rng.choice([g for g in action.group.elements if action.maps[g]])
        x = rng.choice(sorted(action.maps[s]))
        if rng.random() < 0.5:
            action.maps[s][x] = rng.choice(action.space)
        else:
            del action.maps[s][x]
        yield action.indexed()


def symmetric_group_actions():
    """S3 on three points and its restrictions to two and to one point:
    in a non-abelian group st and ts differ, so the composites tell them
    apart."""
    generators = [(1, 0, 2), (0, 2, 1)]
    return [permutation_action(generators, points)
            for points in ({0, 1, 2}, {0, 1}, {2})]


def test_compose_table_equals_the_all_pairs_construction():
    rng = random.Random(47)
    actions = ([catalog.load_action(name) for name in catalog.action_names()]
               + [regular_action(n) for n in range(1, 13)]
               + list(z4_actions(rng, 40))
               + [a for a in partial_corruptions(rng, 200)
                  if isinstance(a, GroupPartialAction)]
               + list(misdirected(rng, 200))
               + symmetric_group_actions())
    outcomes = []
    for action in actions:
        expected = outcome(all_pairs_compose_table, action)
        assert outcome(lambda a: list(label_groupoid(
            build_transformation_groupoid(a)).compose_table.items()),
            action) == expected, action.name
        outcomes.append(expected)
    errors = [o[1] for o in outcomes if isinstance(o, tuple)]
    assert sum("escapes" in text for text in errors) > 10
    assert sum("not in the domain" in text for text in errors) > 10
    assert len(outcomes) - len(errors) > 200
