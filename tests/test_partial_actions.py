import random
from fractions import Fraction

import pytest
from families import (action_from_labels, label_bisection_action_of,
                      label_view, mul, random_scalar, semigroup_from_products,
                      star_of)
from formula_oracle import SpaceFunction, alpha

import catalog
from groupoidal.groups import FiniteGroup
from groupoidal.partial_actions import (induce_algebra_action,
                                        is_topologically_free,
                                        validate_group_partial_action,
                                        validate_isg_partial_action)
from groupoidal.scalars import ring_from_tag


def z2():
    return FiniteGroup.cyclic(2)


def test_catalog_actions_valid():
    for name in catalog.action_names():
        report = validate_group_partial_action(catalog.load_action(name))
        assert report.ok, (name, report.first)


def test_global_swap_valid():
    report = validate_group_partial_action(catalog.load_action("z2_global_swap"))
    assert report.ok


def test_mismatched_map_domain_invalid():
    action = action_from_labels(
        z2(), ["1", "2"],
        {"e": ["1", "2"], "g": ["1", "2"]},
        {"e": {"1": "1", "2": "2"}, "g": {"1": "2"}})
    report = validate_group_partial_action(action)
    assert not report.ok
    assert "map of g" in report.first


def test_identity_must_act_globally():
    action = action_from_labels(
        z2(), ["1", "2"],
        {"e": ["1"], "g": []},
        {"e": {"1": "1"}, "g": {}})
    report = validate_group_partial_action(action)
    assert not report.ok
    assert "X_e" in report.first


def test_intertwining_equality_enforced():
    # X_g = {1}, theta_g = id on {1}: then theta_g(X_g & X_g) = {1} but the
    # composition rule with h = g forces theta_g theta_g = theta_e on {1},
    # which holds; breaking bijectivity instead: image outside X_g
    action = action_from_labels(
        z2(), ["1", "2", "3"],
        {"e": ["1", "2", "3"], "g": ["1", "2"]},
        {"e": {"1": "1", "2": "2", "3": "3"}, "g": {"1": "2", "2": "3"}})
    report = validate_group_partial_action(action)
    assert not report.ok


def test_group_action_as_semigroup_action():
    # The index form is the same over a group and over a semigroup.
    for name in ("z2_global_swap", "z2_partial_3pt", "z3_cycle_3pt"):
        action = catalog.load_action(name)
        assert validate_isg_partial_action(action).ok, name


@pytest.mark.parametrize("name", catalog.groupoid_names())
def test_bisection_action_satisfies_axioms(name):
    g = catalog.load_groupoid(name)
    action = label_bisection_action_of(g).indexed()
    report = validate_isg_partial_action(action)
    assert report.ok, (name, report.first)


def test_monotonicity_violation_detected():
    # two incomparable idempotents over a common zero; the zero's domain
    # must sit inside both others, and here it does not.  Monotonicity
    # follows from the intertwining law, which fails on (0, y):
    # theta_0(X_0 & X_y) is empty, but X_0 & X_{0y} = X_0.
    elements = ["0", "x", "y"]
    table = {}
    for a in elements:
        for b in elements:
            table[(a, b)] = a if a == b else "0"
    s = semigroup_from_products(elements, table, {a: a for a in elements})
    action = action_from_labels(
        s, ["p", "q"],
        {"0": ["p"], "x": ["p"], "y": ["q"]},
        {"0": {"p": "p"}, "x": {"p": "p"}, "y": {"q": "q"}})
    report = validate_isg_partial_action(action)
    assert not report.ok
    assert report.first == \
        "theta_0(X_{0} & X_{y}) = {} but X_{0} & X_{0} = {p}"


def test_unit_convention_for_semigroup_actions():
    s = catalog.load_semigroup("semilattice_2")
    action = action_from_labels(
        s, ["p", "q"],
        {"0": ["p"], "1": ["p"]},
        {"0": {"p": "p"}, "1": {"p": "p"}})
    report = validate_isg_partial_action(action)
    assert not report.ok
    assert "X_1" in report.first


def test_induced_action_identity_component(Q):
    action = catalog.load_action("z2_partial_3pt")
    alg = induce_algebra_action(action)
    e = action.group.identity
    f = SpaceFunction(Q, {"1": Q.scalar(3), "3": Q.scalar(Fraction(1, 2))})
    assert alpha(alg, e, f) == f


def test_induced_action_swaps_point_masses(Q):
    action = catalog.load_action("z2_global_swap")
    alg = induce_algebra_action(action)
    one = SpaceFunction.point_mass(Q, "1")
    assert alpha(alg, "g", one) == SpaceFunction.point_mass(Q, "2")


def test_alpha_partial_isometry_identity(Q):
    rng = random.Random(17)
    for name in catalog.action_names():
        action = catalog.load_action(name)
        alg = induce_algebra_action(action)
        action = label_view(action)
        for s in action.group.elements:
            star = star_of(action.group, s)
            for _ in range(10):
                f = SpaceFunction(
                    Q, {x: random_scalar(Q, rng)
                        for x in action.domain_points(star)})
                lhs = alpha(alg, s, alpha(alg, star, alpha(alg, s, f)))
                assert lhs == alpha(alg, s, f)


def test_intertwining_equality_exhaustive(Q):
    for name in catalog.action_names():
        action = label_view(catalog.load_action(name))
        grp = action.group
        for g in grp.elements:
            for h in grp.elements:
                lhs = {action.theta(g, x) for x in
                       action.domains[star_of(grp, g)] & action.domains[h]}
                rhs = action.domains[g] & action.domains[mul(grp, g, h)]
                assert lhs == rhs, (name, g, h)


def test_topological_freeness_examples():
    ok, witness = is_topologically_free(catalog.load_action("z2_global_swap"))
    assert ok and witness == ()

    ok, witness = is_topologically_free(catalog.load_action("z2_trivial_2pt"))
    assert not ok
    assert witness == (("g", "1"), ("g", "2"))

    ok, _ = is_topologically_free(catalog.load_action("z2_empty_domains"))
    assert ok

    ok, witness = is_topologically_free(catalog.load_action("z2_swap_fix_3pt"))
    assert not ok and witness == (("g", "3"),)


def function_space_action(action, ring):
    """The induced maps alpha_s, viewed as a partial action on the finite
    set of ALL ring-valued functions on the space (finite ring only), in
    the engine's form."""
    from itertools import product as iproduct
    alg = induce_algebra_action(action)
    action = label_view(action)
    points = action.space
    elements = [ring.scalar(v) for v in range(ring.modulus)]
    functions = [SpaceFunction(ring, dict(zip(points, combo)))
                 for combo in iproduct(elements, repeat=len(points))]
    domains = {}
    maps = {}
    for s in action.index.elements:
        domains[s] = frozenset(f for f in functions
                               if f.vanishes_off(action.domains[s]))
        star = star_of(alg.index, s)
        maps[s] = {f: alpha(alg, s, f) for f in functions
                   if f.vanishes_off(action.domains[star])}
    return action_from_labels(action.index, functions, domains, maps,
                              name="algebra-level")


@pytest.mark.parametrize("name", ["z2_global_swap", "z2_partial_3pt",
                                  "z2_empty_domains"])
def test_induced_action_satisfies_axioms_at_algebra_level(name):
    ring = ring_from_tag("Z/2")
    action = catalog.load_action(name)
    lifted = function_space_action(action, ring)
    report = validate_group_partial_action(lifted)
    assert report.ok, (name, report.first)


def test_bisection_algebra_action_satisfies_axioms_at_algebra_level():
    ring = ring_from_tag("Z/2")
    g = catalog.load_groupoid("two_isolated_units")
    lifted = function_space_action(label_bisection_action_of(g).indexed(),
                                   ring)
    report = validate_isg_partial_action(lifted)
    assert report.ok, report.first


def test_space_function_algebra(Q):
    f = SpaceFunction(Q, {"a": Q.scalar(2), "b": Q.scalar(-1)})
    g = SpaceFunction(Q, {"b": Q.scalar(1), "c": Q.scalar(5)})
    assert (f + g).support == {"a", "c"}  # the b entries cancel
    assert (f * g) == SpaceFunction(Q, {"b": Q.scalar(-1)})
    assert f.vanishes_off({"a", "b"})
    assert not f.vanishes_off({"a"})
