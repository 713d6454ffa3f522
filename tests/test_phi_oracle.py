"""phi on class ids and the induced action as a point map, against the
vector-based code they replaced.

Kept verbatim as references: `class_of` (a vector of L summed over each
class of L/I), the label-based `disjoint_decomposition`, the dense `phi`,
`verify_phi_left_inverse`, `verify_phi_additive`, `_random_function` and
the pairwise `induce_algebra_action`.  The new paths must give the same
values, the same verdicts and texts, and draw the same random numbers, on
the catalog, on the 16-arrow pair groupoid and on seeded corruptions.
"""

import copy
import random

import pytest

from families import pair_groupoid_spec, parse

from groupoidal import catalog, ring_from_tag
from groupoidal.groupoid_core import is_bisection, range_set
from groupoidal.isomorphisms import (bisection_action, phi, phi_classes, psi,
                                     verify_phi_additive,
                                     verify_phi_left_inverse)
from groupoidal.partial_actions import (AlgebraPartialAction, SpaceFunction,
                                        induce_algebra_action)
from groupoidal.scalars import zero_vector
from groupoidal.steinberg_algebra import (GroupoidFunction,
                                          disjoint_decomposition)

RING_TAGS = ("Q", "Z", "Z/4", "Z/5")
GROUPOIDS = tuple(catalog.groupoid_names()) + ("pair_groupoid_4",)


def class_of(quotient, vec):
    out = zero_vector(quotient.ring, quotient.dim)
    for a, c in enumerate(vec):
        if c:
            q = quotient._class[a]
            out[q] = out[q] + c
    return out


def reference_decomposition(f):
    g = f.parent
    levels = {}
    for arrow, value in f.values.items():
        levels.setdefault(value, []).append(arrow)
    pieces = []
    for value, arrows in levels.items():
        remaining = g.sort_arrows(arrows)
        while remaining:
            block = []
            ranges, sources = set(), set()
            rest = []
            for a in remaining:
                if g.range(a) not in ranges and g.source(a) not in sources:
                    block.append(a)
                    ranges.add(g.range(a))
                    sources.add(g.source(a))
                else:
                    rest.append(a)
            pieces.append((value, frozenset(block)))
            remaining = rest
    pieces.sort(key=lambda rv: tuple(sorted(map(g.index, rv[1]))))
    for _, block in pieces:
        assert is_bisection(g, block)
    return pieces


def reference_phi(f, realization):
    if f.parent is not realization.groupoid or f.ring != realization.ring:
        raise ValueError("function does not live on the realized groupoid")
    module = realization.module
    vec = zero_vector(realization.ring, module.dim)
    for coeff, bis in reference_decomposition(f):
        for u in range_set(realization.groupoid, bis):
            k = module.label_index(bis, u)
            vec[k] = vec[k] + coeff
    return class_of(realization.quotient, vec)


def _vector_repr(algebra, vec):
    parts = [f"{c}*{algebra.basis_labels[i]}" for i, c in enumerate(vec) if c]
    return " + ".join(parts) if parts else "0"


def reference_left_inverse(realization):
    quotient = realization.quotient
    steinberg = realization.steinberg
    for q, t in enumerate(realization.psi_tilde.targets):
        f = GroupoidFunction.point_mass(realization.groupoid, realization.ring,
                                        steinberg.basis_labels[t])
        got = reference_phi(f, realization)
        expected = zero_vector(realization.ring, quotient.dim)
        expected[q] = realization.ring.one()
        if got != expected:
            return (False, f"phi(psi~(e_{q})) = "
                           f"{_vector_repr(quotient, got)}")
    return (True, None)


def reference_additive(realization, rng, trials=200):
    steinberg = realization.steinberg
    for trial in range(trials):
        f = reference_random_function(steinberg, rng)
        g = reference_random_function(steinberg, rng)
        lhs = reference_phi(f + g, realization)
        rhs = [a + b for a, b in zip(reference_phi(f, realization),
                                     reference_phi(g, realization))]
        if lhs != rhs:
            return (False, f"additivity fails at trial {trial}")
    return (True, None)


def reference_random_function(steinberg, rng):
    g = steinberg.groupoid
    values = {}
    for a in g.arrows:
        if rng.random() < 0.5:
            c = steinberg.ring.random(rng)
            if c:
                values[a] = c
    return GroupoidFunction(g, steinberg.ring, values)


def reference_induce(action, ring):
    alg = AlgebraPartialAction(action, ring)
    for s in action.index.elements:
        star = alg.star(s)
        images = set()
        for x in action.domain_points(star):
            image = alg.alpha(s, SpaceFunction.point_mass(ring, x))
            if len(image.support) != 1 or not image.vanishes_off(alg.domains[s]):
                raise ValueError(f"alpha_{s} does not permute point masses")
            images.add(next(iter(image.support)))
        if images != set(alg.domains[s]):
            raise ValueError(f"alpha_{s} is not onto D_{{{s}}}")
        for x in action.domain_points(star):
            for y in action.domain_points(star):
                fx = SpaceFunction.point_mass(ring, x)
                fy = SpaceFunction.point_mass(ring, y)
                if alg.alpha(s, fx * fy) != alg.alpha(s, fx) * alg.alpha(s, fy):
                    raise ValueError(f"alpha_{s} is not multiplicative")
    return alg


def build_realization(name, tag):
    """psi of a catalog groupoid, or of the pair groupoid on 4 points."""
    g = (parse(pair_groupoid_spec(4)) if name == "pair_groupoid_4"
         else catalog.load_groupoid(name))
    return psi(g, ring_from_tag(tag))


_REALIZATIONS = {}


def realization(name, tag):
    """build_realization, once per session; callers must not change it."""
    if (name, tag) not in _REALIZATIONS:
        _REALIZATIONS[name, tag] = build_realization(name, tag)
    return _REALIZATIONS[name, tag]


@pytest.mark.parametrize("tag", RING_TAGS)
@pytest.mark.parametrize("name", GROUPOIDS)
def test_phi_equals_the_reference_on_random_functions(name, tag):
    r = realization(name, tag)
    rng = random.Random(f"{name}/{tag}")
    for _ in range(200):
        f = reference_random_function(r.steinberg, rng)
        assert disjoint_decomposition(f) == reference_decomposition(f)
        dense = reference_phi(f, r)
        assert phi(f, r) == dense
        assert phi_classes(f, r) == {q: c for q, c in enumerate(dense) if c}


@pytest.mark.parametrize("tag", RING_TAGS)
@pytest.mark.parametrize("name", GROUPOIDS)
def test_phi_checks_equal_the_reference(name, tag):
    r = realization(name, tag)
    assert verify_phi_left_inverse(r) == reference_left_inverse(r) \
        == (True, None)
    fast_rng, slow_rng = random.Random(0), random.Random(0)
    assert verify_phi_additive(r, fast_rng) == \
        reference_additive(r, slow_rng) == (True, None)
    assert fast_rng.getstate() == slow_rng.getstate()


@pytest.mark.parametrize("name, tag", [("pair_groupoid_2", "Q"),
                                       ("pair_groupoid_3", "Z/5"),
                                       ("pair_plus_unit", "Q"),
                                       ("pair_groupoid_4", "Q")])
def test_a_mutated_class_fails_alike(name, tag):
    """Moving one basis element of L into another class breaks phi; both
    paths must fail at the same trial with the same text."""
    r = build_realization(name, tag)
    cls, dim = r.quotient._class, r.quotient.dim
    # About four evenly spaced basis indices of L.
    indices = range(0, r.module.dim, max(1, r.module.dim // 4))
    failing = 0
    for a in indices:
        old = cls[a]
        cls[a] = (old + 1) % dim
        assert verify_phi_left_inverse(r) == reference_left_inverse(r)
        fast_rng, slow_rng = random.Random(a), random.Random(a)
        fast = verify_phi_additive(r, fast_rng)
        assert fast == reference_additive(r, slow_rng)
        assert fast_rng.getstate() == slow_rng.getstate()
        cls[a] = old
        if not fast[0]:
            assert fast[1].startswith("additivity fails at trial ")
            failing += 1
    assert failing > 0


def catalog_actions():
    actions = [bisection_action(catalog.load_groupoid(name))
               for name in catalog.groupoid_names()]
    actions.append(realization("pair_groupoid_4", "Q").action)
    actions += [catalog.load_action(name) for name in catalog.action_names()]
    for name in catalog.pair_names():
        actions += catalog.load_pair(name)
    return actions


def induced(build, action, ring):
    try:
        build(action, ring)
    except (KeyError, ValueError) as exc:
        return (type(exc).__name__, str(exc))
    return ("ok",)


def test_induced_action_equals_the_reference_on_the_catalog(Q):
    actions = catalog_actions()
    kinds = {type(a).__name__ for a in actions}
    assert kinds == {"SemigroupPartialAction", "GroupPartialAction"}
    for ring in (Q, ring_from_tag("Z/4")):
        for action in actions:
            fast = induced(induce_algebra_action, action, ring)
            assert fast == induced(reference_induce, action, ring), action.name
            assert fast[0] == "ok", action.name


def corrupt_maps(action, rng):
    """A copy of an action with 1 to 3 changes: a map value moved to
    another point, a map entry dropped or added, two values of one map
    swapped, a point added to X_s and sent into X_{s*} by the map of s*,
    or X_s emptied, with or without the map of s."""
    index, space = action.index, action.space
    domains = {s: set(d) for s, d in action.domains.items()}
    maps = {s: dict(m) for s, m in action.maps.items()}
    for _ in range(rng.randint(1, 3)):
        s = rng.choice(index.elements)
        m, star = maps[s], index.star(s)
        kind = rng.randrange(10)
        if kind < 3 and m:
            m[rng.choice(sorted(m))] = rng.choice(space)
        elif kind < 5 and m:
            del m[rng.choice(sorted(m))]
        elif kind < 6:
            m[rng.choice(space)] = rng.choice(space)
        elif kind < 7 and len(m) > 1:
            x, y = rng.sample(sorted(m), 2)
            m[x], m[y] = m[y], m[x]
        elif kind < 8 and domains[star]:
            y = rng.choice(space)
            domains[s].add(y)
            maps[star][y] = rng.choice(sorted(domains[star]))
        else:
            domains[s] = set()
            if kind == 9:
                maps[s] = {}
    corrupted = copy.copy(action)
    corrupted.domains = {s: frozenset(d) for s, d in domains.items()}
    corrupted.maps = maps
    return corrupted


def test_corrupted_actions_raise_the_reference_texts(Q):
    """The corruptions reach every text the pairwise loop can raise, and
    KeyError.  "is not multiplicative" is not among them: once each point
    of X_{s*} has one preimage, distinct points have distinct images, in
    both paths."""
    base = [a for a in catalog_actions() if len(a.space) > 1]
    rng = random.Random(8)
    kinds = ("ok", "KeyError", "does not permute point masses", "is not onto")
    seen = set()
    for trial in range(400):
        action = corrupt_maps(base[trial % len(base)], rng)
        fast = induced(induce_algebra_action, action, Q)
        assert fast == induced(reference_induce, action, Q), trial
        text = fast[1] if fast[0] == "ValueError" else fast[0]
        seen.add(next((k for k in kinds if k in text), text))
    assert seen == set(kinds)
