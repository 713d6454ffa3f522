"""The engine's orbit-equivalence construction and groupoid search
against the plain searches.

The two reference searches below are the brute-force versions without
the invariant checks, kept verbatim apart from their names; both read
labels (`label_view`, `label_groupoid`) and return their witnesses as
dicts of labels.  The engine must give the same verdict and the same
(lexicographically first) witness, read through the arrow labels, on
every input: on the catalog, on relabeled copies, on generated partial
Z_n actions, and, for orbit equivalence, on restrictions of
permutation-group actions.  The reference groupoid search checks its
witness with `verify_groupoid_isomorphism`, the label-level check the
engine's search ran on its own witness before it left that to the
certificates of the transported map.
"""

from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st
from families import (action_from_labels, group_from_products,
                      label_groupoid, label_view, star_of)

import catalog
from groupoidal import isomorphisms
from groupoidal.isomorphisms import (DEFAULT_ISO_BOUND, DEFAULT_ORBIT_BOUND,
                                     search_groupoid_isomorphism,
                                     search_orbit_equivalence,
                                     verify_orbit_equivalence)
from groupoidal.transformation_groupoid import build_transformation_groupoid
from groupoidal.validation import BoundExceeded

# Large enough that neither search is cut off on these inputs.
NO_BOUND = 10 ** 6


# --- the plain searches -----------------------------------------------------

def reference_orbit_equivalence(theta, gamma, bound=DEFAULT_ORBIT_BOUND):
    """Brute-force search over space bijections with pointwise cocycle
    choices; sound and complete within the bound.  Returns the
    lexicographically first witness, as (phi, a, b), or None when
    exhausted."""
    theta, gamma = label_view(theta), label_view(gamma)
    nx, ny = len(theta.space), len(gamma.space)
    if max(nx, ny) > bound:
        raise BoundExceeded(f"spaces too large: {max(nx, ny)} points "
                            f"exceeds orbit bound {bound}")
    if nx != ny:
        return None
    g_grp, h_grp = theta.group, gamma.group
    for image in permutations(gamma.space):
        phi = dict(zip(theta.space, image))
        a = {}
        feasible = True
        for g in g_grp.elements:
            if not feasible:
                break
            for x in theta.domain_points(star_of(g_grp, g)):
                target = phi[theta.theta(g, x)]
                h = next((h for h in h_grp.elements
                          if phi[x] in gamma.domains[star_of(h_grp, h)]
                          and gamma.theta(h, phi[x]) == target), None)
                if h is None:
                    feasible = False
                    break
                a[(g, x)] = h
        if not feasible:
            continue
        phi_inv = {y: x for x, y in phi.items()}
        b = {}
        for h in h_grp.elements:
            if not feasible:
                break
            for y in gamma.domain_points(star_of(h_grp, h)):
                target = phi_inv[gamma.theta(h, y)]
                g = next((g for g in g_grp.elements
                          if phi_inv[y] in theta.domains[star_of(g_grp, g)]
                          and theta.theta(g, phi_inv[y]) == target), None)
                if g is None:
                    feasible = False
                    break
                b[(h, y)] = g
        if feasible:
            return (phi, a, b)
    return None


def verify_groupoid_isomorphism(g1, g2, m):
    """Whether m, a dict from the arrows of g1 to those of g2, is a
    groupoid isomorphism."""
    g1, g2 = label_groupoid(g1), label_groupoid(g2)
    if set(m) != set(g1.arrows) or set(m.values()) != set(g2.arrows) \
            or len(set(m.values())) != len(m):
        return (False, "not an arrow bijection")
    for a in g1.arrows:
        if g1.is_unit(a) != g2.is_unit(m[a]):
            return (False, f"unit flag not preserved on {a}")
        if m[g1.range(a)] != g2.range(m[a]) or m[g1.source(a)] != g2.source(m[a]):
            return (False, f"range/source not preserved on {a}")
        if m[g1.inverse(a)] != g2.inverse(m[a]):
            return (False, f"inverse not preserved on {a}")
    for a in g1.arrows:
        for b in g1.arrows:
            if g1.composable(a, b) != g2.composable(m[a], m[b]):
                return (False, f"composability not preserved on ({a}, {b})")
            if g1.composable(a, b) and m[g1.compose(a, b)] != g2.compose(m[a], m[b]):
                return (False, f"composition not preserved on ({a}, {b})")
    return (True, None)


def reference_groupoid_isomorphism(g1, g2, bound=DEFAULT_ISO_BOUND):
    """Backtracking over arrow bijections, units first, pruned by the
    unit/range/source/inverse/composition constraints; sound and complete
    within the bound.  Returns the lexicographically first witness or None."""
    g1, g2 = label_groupoid(g1), label_groupoid(g2)
    if max(g1.n_arrows, g2.n_arrows) > bound:
        raise BoundExceeded(f"groupoids too large: "
                            f"{max(g1.n_arrows, g2.n_arrows)} arrows exceeds "
                            f"iso bound {bound}")
    if g1.n_arrows != g2.n_arrows or len(g1.units) != len(g2.units):
        return None

    order1 = g1.sort_arrows(g1.units) + \
        [a for a in g1.arrows if not g1.is_unit(a)]
    units2 = [a for a in g2.arrows if g2.is_unit(a)]
    nonunits2 = [a for a in g2.arrows if not g2.is_unit(a)]

    mapping = {}
    used = set()

    def consistent(a, b):
        if g1.is_unit(a) != g2.is_unit(b):
            return False
        ra, sa = g1.range(a), g1.source(a)
        if ra in mapping and mapping[ra] != g2.range(b):
            return False
        if sa in mapping and mapping[sa] != g2.source(b):
            return False
        inv_a = g1.inverse(a)
        if inv_a in mapping and mapping[inv_a] != g2.inverse(b):
            return False
        for a2, b2 in mapping.items():
            if g1.composable(a, a2) != g2.composable(b, b2):
                return False
            if g1.composable(a2, a) != g2.composable(b2, b):
                return False
            if g1.composable(a, a2):
                c = g1.compose(a, a2)
                if c in mapping and mapping[c] != g2.compose(b, b2):
                    return False
            if g1.composable(a2, a):
                c = g1.compose(a2, a)
                if c in mapping and mapping[c] != g2.compose(b2, b):
                    return False
        return True

    def backtrack(pos):
        if pos == len(order1):
            return True
        a = order1[pos]
        candidates = units2 if g1.is_unit(a) else nonunits2
        for b in candidates:
            if b in used or not consistent(a, b):
                continue
            mapping[a] = b
            used.add(b)
            if backtrack(pos + 1):
                return True
            del mapping[a]
            used.discard(b)
        return False

    if backtrack(0):
        ok, why = verify_groupoid_isomorphism(g1, g2, mapping)
        if not ok:
            raise AssertionError(f"search produced a non-isomorphism: {why}")
        return mapping
    return None


# --- inputs ------------------------------------------------------------------

def relabeled(action, order):
    """A copy of the action whose space lists the renamed points in the
    given order (a permutation of range(len(space)))."""
    action = label_view(action)
    names = {x: f"r{i}" for i, x in enumerate(action.space)}
    space = [names[action.space[i]] for i in order]
    return action_from_labels(
        action.group, space,
        {g: {names[x] for x in d} for g, d in action.domains.items()},
        {g: {names[x]: names[y] for x, y in m.items()}
         for g, m in action.maps.items()},
        name=f"{action.name}~relabeled")


def cyclic_group(n):
    elements = [f"g{r}" for r in range(n)]
    return group_from_products(
        elements, {(f"g{a}", f"g{b}"): f"g{(a + b) % n}"
                   for a in range(n) for b in range(n)}, name=f"Z{n}")


def restricted_rotation(n, step, points):
    """Z_n acting on Z_n by r.x = x + step*r (step 0 is the trivial
    action), restricted to the subset `points`: the partial action with
    X_r = Y & theta_r(Y)."""
    group = cyclic_group(n)
    ys = sorted(points)
    domains, maps = {}, {}
    for r in range(n):
        g = f"g{r}"
        move = step * r
        maps[g] = {f"p{x}": f"p{(x + move) % n}"
                   for x in ys if (x + move) % n in points}
        domains[g] = set(maps[g].values())
    return action_from_labels(group, [f"p{x}" for x in ys], domains, maps,
                              name=f"z{n}*{step}|{ys}")


@st.composite
def partial_actions(draw):
    n = draw(st.sampled_from([5, 4, 3, 2, 1]))
    step = draw(st.integers(0, n - 1))
    removed = draw(st.sets(st.integers(0, n - 1), max_size=n - 1))
    return restricted_rotation(n, step, frozenset(range(n)) - removed)


def permutation_group(generators):
    """The permutations of range(n) generated by the given tuples: the
    closure of the identity under composition with the generators, which
    in a finite group needs no inverses."""
    elements = [tuple(range(len(generators[0])))]
    for p in elements:
        for q in generators:
            r = tuple(q[i] for i in p)
            if r not in elements:
                elements.append(r)
    return elements


def permutation_action(generators, points):
    """The group generated by the permutations, acting on range(n) by
    g.x = g[x] and restricted to the subset `points`: the partial action
    with X_g = Y & g(Y)."""
    perms = permutation_group(generators)
    names = [f"s{i}" for i in range(len(perms))]
    position = {p: i for i, p in enumerate(perms)}
    group = group_from_products(names, {
        (names[i], names[j]): names[position[tuple(p[x] for x in q)]]
        for i, p in enumerate(perms) for j, q in enumerate(perms)},
        name=f"<{generators}>")
    ys = sorted(points)
    maps = {name: {f"p{x}": f"p{p[x]}" for x in ys if p[x] in points}
            for name, p in zip(names, perms)}
    return action_from_labels(group, [f"p{x}" for x in ys],
                              {g: set(m.values()) for g, m in maps.items()},
                              maps, name=f"{group.name}|{ys}")


@st.composite
def restricted_permutation_actions(draw):
    """Groups generated by one or two permutations of at most 6 points,
    non-abelian ones included; a pair generating more than 24 elements
    is cut to its first permutation."""
    n = draw(st.integers(1, 6))
    generators = draw(st.lists(st.permutations(range(n)), min_size=1,
                               max_size=2).map(lambda gs: [tuple(g)
                                                           for g in gs]))
    if len(permutation_group(generators)) > 24:
        generators = generators[:1]
    removed = draw(st.sets(st.integers(0, n - 1), max_size=n - 1))
    return permutation_action(generators, frozenset(range(n)) - removed)


# --- comparison ---------------------------------------------------------------

def orbit_witness(theta, gamma, data):
    """The engine's witness, on indices, as dicts of labels."""
    if data is None:
        return None
    xs, ys = theta.space, gamma.space
    gs, hs = theta.group.elements, gamma.group.elements
    return ({xs[x]: ys[y] for x, y in enumerate(data.phi)},
            {(gs[i], xs[x]): hs[h] for (i, x), h in data.a.items()},
            {(hs[i], ys[y]): gs[g] for (i, y), g in data.b.items()})


def iso_witness(g1, g2, iso):
    """The engine's witness, image indices, as a dict of arrow labels."""
    return None if iso is None else {g1.arrows[a]: g2.arrows[b]
                                     for a, b in enumerate(iso)}


def assert_orbit_searches_agree(left, right):
    assert (orbit_witness(left, right,
                          search_orbit_equivalence(left, right, NO_BOUND))
            == reference_orbit_equivalence(left, right, NO_BOUND))


def assert_searches_agree(left, right):
    assert_orbit_searches_agree(left, right)
    g1 = build_transformation_groupoid(left)
    g2 = build_transformation_groupoid(right)
    assert (iso_witness(g1, g2, search_groupoid_isomorphism(g1, g2, NO_BOUND))
            == reference_groupoid_isomorphism(g1, g2, NO_BOUND))


@pytest.mark.parametrize("name", catalog.pair_names())
def test_pruned_searches_agree_on_catalog_pairs(name):
    left, right = catalog.load_pair(name)
    assert_searches_agree(left, right)
    assert_searches_agree(right, left)


@pytest.mark.parametrize("name", catalog.action_names())
def test_pruned_searches_agree_on_relabeled_catalog_actions(name):
    action = catalog.load_action(name)
    n = len(action.space)
    for order in (range(n), range(n - 1, -1, -1)):
        assert_searches_agree(action, relabeled(action, list(order)))
        assert_searches_agree(relabeled(action, list(order)), action)


def test_pruned_searches_agree_on_catalog_groupoids():
    names = catalog.groupoid_names()
    groupoids = [catalog.load_groupoid(name) for name in names]
    for g1 in groupoids:
        for g2 in groupoids:
            assert (iso_witness(g1, g2, search_groupoid_isomorphism(
                g1, g2, NO_BOUND))
                    == reference_groupoid_isomorphism(g1, g2, NO_BOUND))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.lists(partial_actions(), min_size=1, max_size=3), st.data())
def test_pruned_searches_agree_on_partial_cyclic_actions(actions, data):
    for action in actions:
        order = data.draw(st.permutations(range(len(action.space))))
        assert_searches_agree(action, relabeled(action, order))
    for left in actions:
        for right in actions:
            assert_searches_agree(left, right)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.lists(restricted_permutation_actions(), min_size=1, max_size=2),
       st.data())
def test_orbit_witnesses_agree_on_restricted_permutation_actions(actions,
                                                                data):
    for action in actions:
        order = data.draw(st.permutations(range(len(action.space))))
        assert_orbit_searches_agree(action, relabeled(action, order))
    for left in actions:
        for right in actions:
            assert_orbit_searches_agree(left, right)


def test_twelve_point_swap_matches_its_relabeled_copy():
    # Z2 swapping p0 and p1 and fixing ten points, against a copy that
    # lists the 2-orbit last: the first witness is far down the order of
    # all 12! bijections.
    swap = permutation_action([(1, 0) + tuple(range(2, 12))], range(12))
    copy = relabeled(swap, list(range(2, 12)) + [0, 1])
    data = search_orbit_equivalence(swap, copy, bound=12)
    assert data is not None
    assert verify_orbit_equivalence(swap, copy, data) == (True, None)


# --- invariant mismatches are decided before any search ---------------------

def refuse(*args):
    raise AssertionError("the search ran")


def refuse_search(monkeypatch):
    # The unit profiles and the backtracking both read the rows, so the
    # backtracking itself refuses.
    monkeypatch.setattr(isomorphisms, "_first_isomorphism", refuse)


def test_profile_mismatch_returns_without_backtracking(monkeypatch):
    swap = build_transformation_groupoid(catalog.load_action("z2_global_swap"))
    trivial = build_transformation_groupoid(
        catalog.load_action("z2_trivial_2pt"))
    assert (swap.n_arrows, len(swap.units)) == (trivial.n_arrows,
                                                len(trivial.units))
    refuse_search(monkeypatch)
    # Isotropy order 1 against 2 at every unit; decided before the bound.
    assert search_groupoid_isomorphism(swap, trivial, bound=1) is None
    assert search_groupoid_isomorphism(trivial, swap) is None
    with pytest.raises(AssertionError, match="the search ran"):
        search_groupoid_isomorphism(swap, swap)


def trivial_action(group, n):
    space = [f"p{x}" for x in range(n)]
    return action_from_labels(
        group, space, {g: set(space) for g in group.elements},
        {g: {x: x for x in space} for g in group.elements},
        name=f"{group.name} trivial on {n}")


def test_isotropy_element_orders_decide_without_backtracking(monkeypatch):
    klein = group_from_products([f"g{a}" for a in range(4)],
                                {(f"g{a}", f"g{b}"): f"g{a ^ b}"
                                 for a in range(4) for b in range(4)},
                                name="Z2xZ2")
    g1 = build_transformation_groupoid(trivial_action(cyclic_group(4), 5))
    g2 = build_transformation_groupoid(trivial_action(klein, 5))
    # 20 arrows and five units of profile (4, 4) on both sides: only the
    # element orders (1, 2, 4, 4) against (1, 2, 2, 2) tell them apart.
    assert (g1.n_arrows, len(g1.units)) == (g2.n_arrows, len(g2.units))
    refuse_search(monkeypatch)
    assert search_groupoid_isomorphism(g1, g2, bound=100) is None
    assert search_groupoid_isomorphism(g2, g1, bound=1) is None


def test_orbit_size_mismatch_returns_without_backtracking(monkeypatch):
    swap = catalog.load_action("z2_global_swap")
    trivial = catalog.load_action("z2_trivial_2pt")
    monkeypatch.setattr(isomorphisms, "_cocycle", refuse)
    # One orbit of 2 against two of 1; decided before the bound and
    # before any witness is built.
    assert search_orbit_equivalence(swap, trivial, bound=1) is None
    assert search_orbit_equivalence(trivial, swap) is None
    with pytest.raises(AssertionError, match="the search ran"):
        search_orbit_equivalence(swap, swap)


def test_matching_invariants_still_meet_the_bound():
    swap = catalog.load_action("z2_global_swap")
    with pytest.raises(BoundExceeded, match="2 points exceeds orbit bound 1"):
        search_orbit_equivalence(swap, swap, bound=1)
    assert search_orbit_equivalence(swap, swap, bound=2) is not None
    g = build_transformation_groupoid(swap)
    with pytest.raises(BoundExceeded, match="4 arrows exceeds iso bound 3"):
        search_groupoid_isomorphism(g, g, bound=3)
    assert search_groupoid_isomorphism(g, g, bound=4) is not None
