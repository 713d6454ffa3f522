"""phi on class ids and the induced action, against the vector-based code
they replaced.

Kept verbatim as references: `class_of` (a vector of L summed over each
class of L/I), the label-based `disjoint_decomposition`, the dense `phi`,
`verify_phi_left_inverse`, `verify_phi_additive`, `_random_function` and
the pairwise `induce_algebra_action`.  The new paths must give the same
values, the same verdicts and texts, and draw the same random numbers, on
the catalog, on the 16-arrow pair groupoid and on seeded corruptions.  The
induced action checks nothing, so it is compared on the actions that pass
their validator.

`label_left_inverse` is the left-inverse check as it ran on labels, a
point mass per class of L/I read back through `dense_oracle.phi_classes`;
the engine's reads `SkewRealization.phi_values` on arrow indices and
must give the same verdict and text, also where a class is wrong or,
over Z/2, where a sum of phi reduces to 0.
"""

import copy
import random

import pytest

from dense_oracle import phi, phi_classes, realize
from families import (SemigroupPartialAction, indicator,
                      label_bisection_action_of, label_view,
                      pair_groupoid_spec, parse, point_mass, random_scalar,
                      range_set)
from formula_oracle import SpaceFunction, alpha, is_bisection

import catalog
from groupoidal import ring_from_tag
from groupoidal.isomorphisms import (verify_phi_additive,
                                     verify_phi_left_inverse)
from groupoidal.partial_actions import (AlgebraPartialAction,
                                        induce_algebra_action,
                                        validate_group_partial_action,
                                        validate_isg_partial_action)
from groupoidal.scalars import zero_vector
from groupoidal.steinberg_algebra import (GroupoidFunction,
                                          disjoint_decomposition)

RING_TAGS = ("Q", "Z", "Z/4", "Z/5")
EVERY_RING_TAG = ("Q", "Z", "Z/2", "Z/4", "Z/5")
GROUPOIDS = tuple(catalog.groupoid_names()) + ("pair_groupoid_4",)


def class_of(quotient, ring, vec):
    out = zero_vector(ring, quotient.dim)
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
    if f.parent is not realization.groupoid:
        raise ValueError("function does not live on the realized groupoid")
    module = realization.module
    vec = zero_vector(f.ring, module.dim)
    for coeff, bis in reference_decomposition(f):
        for u in range_set(realization.groupoid, bis):
            k = module.label_index(bis, u)
            vec[k] = vec[k] + coeff
    return class_of(realization.quotient, f.ring, vec)


def _vector_repr(algebra, vec):
    parts = [f"{c}*{algebra.basis_labels[i]}" for i, c in enumerate(vec) if c]
    return " + ".join(parts) if parts else "0"


def reference_left_inverse(realization, ring):
    quotient = realization.quotient
    steinberg = realization.steinberg
    for q, t in enumerate(realization.psi_tilde.targets):
        f = point_mass(realization.groupoid, ring, steinberg.basis_labels[t])
        got = reference_phi(f, realization)
        expected = zero_vector(ring, quotient.dim)
        expected[q] = ring.one()
        if got != expected:
            return (False, f"phi(psi~(e_{q})) = "
                           f"{_vector_repr(quotient, got)}")
    return (True, None)


def label_left_inverse(realization, ring):
    """phi o psi_tilde must fix every quotient basis class."""
    labels = realization.quotient.basis_labels
    one = ring.one()
    for q, t in enumerate(realization.psi_tilde.targets):
        f = point_mass(realization.groupoid, ring,
                       realization.steinberg.basis_labels[t])
        got = phi_classes(f, realization)
        if got != {q: one}:
            image = " + ".join(f"{c}*{labels[i]}"
                               for i, c in sorted(got.items()))
            return (False, f"phi(psi~(e_{q})) = {image or 0}")
    return (True, None)


def reference_additive(realization, ring, rng, trials=200):
    steinberg = realization.steinberg
    for trial in range(trials):
        f = reference_random_function(steinberg, ring, rng)
        g = reference_random_function(steinberg, ring, rng)
        lhs = reference_phi(f + g, realization)
        rhs = [a + b for a, b in zip(reference_phi(f, realization),
                                     reference_phi(g, realization))]
        if lhs != rhs:
            return (False, f"additivity fails at trial {trial}")
    return (True, None)


def reference_random_function(steinberg, ring, rng):
    g = steinberg.groupoid
    values = {}
    for a in g.arrows:
        if rng.random() < 0.5:
            c = random_scalar(ring, rng)
            if c:
                values[a] = c
    return GroupoidFunction(g, ring, values)


def reference_induce(action, ring):
    """The induced action, its alpha_s checked on the point masses over
    ring."""
    alg = AlgebraPartialAction(action)
    for s in action.index.elements:
        star = alg.index.star(s)
        images = set()
        for x in action.domain_points(star):
            image = alpha(alg, s, SpaceFunction.point_mass(ring, x))
            if len(image.support) != 1 or not image.vanishes_off(action.domains[s]):
                raise ValueError(f"alpha_{s} does not permute point masses")
            images.add(next(iter(image.support)))
        if images != set(action.domains[s]):
            raise ValueError(f"alpha_{s} is not onto D_{{{s}}}")
        for x in action.domain_points(star):
            for y in action.domain_points(star):
                fx = SpaceFunction.point_mass(ring, x)
                fy = SpaceFunction.point_mass(ring, y)
                if alpha(alg, s, fx * fy) != \
                        alpha(alg, s, fx) * alpha(alg, s, fy):
                    raise ValueError(f"alpha_{s} is not multiplicative")
    return alg


def build_realization(name):
    """psi of a catalog groupoid, or of the pair groupoid on 4 points."""
    g = (parse(pair_groupoid_spec(4)) if name == "pair_groupoid_4"
         else catalog.load_groupoid(name))
    return realize(g)


_REALIZATIONS = {}


def realization(name):
    """build_realization, once per session; callers must not change it.
    It has no ring: each test runs it over the ring it draws from."""
    if name not in _REALIZATIONS:
        _REALIZATIONS[name] = build_realization(name)
    return _REALIZATIONS[name]


@pytest.mark.parametrize("tag", RING_TAGS)
@pytest.mark.parametrize("name", GROUPOIDS)
def test_phi_equals_the_reference_on_random_functions(name, tag):
    r, ring = realization(name), ring_from_tag(tag)
    rng = random.Random(f"{name}/{tag}")
    for _ in range(200):
        f = reference_random_function(r.steinberg, ring, rng)
        assert disjoint_decomposition(f) == reference_decomposition(f)
        dense = reference_phi(f, r)
        assert phi(f, r) == dense
        assert phi_classes(f, r) == {q: c for q, c in enumerate(dense) if c}


@pytest.mark.parametrize("tag", RING_TAGS)
@pytest.mark.parametrize("name", GROUPOIDS)
def test_phi_checks_equal_the_reference(name, tag):
    r, ring = realization(name), ring_from_tag(tag)
    assert verify_phi_left_inverse(r) == label_left_inverse(r, ring) \
        == reference_left_inverse(r, ring) == (True, None)
    fast_rng, slow_rng = random.Random(0), random.Random(0)
    assert verify_phi_additive(r, ring, fast_rng) == \
        reference_additive(r, ring, slow_rng) == (True, None)
    assert fast_rng.getstate() == slow_rng.getstate()


@pytest.mark.parametrize("name, tag", [("pair_groupoid_2", "Q"),
                                       ("pair_groupoid_3", "Z/5"),
                                       ("pair_plus_unit", "Q"),
                                       ("pair_groupoid_4", "Q")])
def test_a_mutated_class_fails_alike(name, tag):
    """Moving one basis element of L into another class breaks phi; both
    paths must fail at the same trial with the same text."""
    r, ring = build_realization(name), ring_from_tag(tag)
    cls, dim = r.quotient._class, r.quotient.dim
    # About four evenly spaced basis indices of L.
    indices = range(0, r.module.dim, max(1, r.module.dim // 4))
    failing = 0
    for a in indices:
        old = cls[a]
        cls[a] = (old + 1) % dim
        assert verify_phi_left_inverse(r) == label_left_inverse(r, ring) \
            == reference_left_inverse(r, ring)
        fast_rng, slow_rng = random.Random(a), random.Random(a)
        fast = verify_phi_additive(r, ring, fast_rng)
        assert fast == reference_additive(r, ring, slow_rng)
        assert fast_rng.getstate() == slow_rng.getstate()
        cls[a] = old
        if not fast[0]:
            assert fast[1].startswith("additivity fails at trial ")
            failing += 1
    assert failing > 0


def assert_phi_checks_agree(r, ring, seed):
    """The left-inverse check equals its label and vector forms over
    ring, and the additive check its vector form with the same draws, on
    r as it stands; returns the left-inverse verdict."""
    left = verify_phi_left_inverse(r)
    assert left == label_left_inverse(r, ring) == \
        reference_left_inverse(r, ring)
    fast_rng, slow_rng = random.Random(seed), random.Random(seed)
    assert verify_phi_additive(r, ring, fast_rng) == \
        reference_additive(r, ring, slow_rng)
    assert fast_rng.getstate() == slow_rng.getstate()
    return left


@pytest.mark.parametrize("tag", EVERY_RING_TAG)
def test_a_wrong_class_fails_alike_over_every_ring(tag):
    """The basis element of L that phi sends psi~(e_q) to moves to the
    next class: both paths fail at q and name that class."""
    r = build_realization("pair_groupoid_3")
    module, quotient, q = r.module, r.quotient, 1
    arrow = r.steinberg.basis_labels[r.psi_tilde.targets[q]]
    a = module.label_index(frozenset([arrow]), r.groupoid.range(arrow))
    assert quotient._class[a] == q
    wrong = (q + 1) % quotient.dim
    quotient._class[a] = wrong
    assert assert_phi_checks_agree(r, ring_from_tag(tag), q) == (
        False, f"phi(psi~(e_{q})) = 1*{quotient.basis_labels[wrong]}")


@pytest.mark.parametrize("tag", EVERY_RING_TAG)
def test_a_sum_reducing_to_zero_is_dropped_alike(tag):
    """The two points of a two-arrow bisection B go to one class, so
    phi(1_B) adds 1 there twice: 2, or 0 and dropped over Z/2.  The
    reduced sums of phi_values equal phi_classes, and both paths give
    every check the same verdict.  A point mass adds 1 to one class, so
    the left-inverse check itself never meets a zero sum."""
    r, ring = build_realization("pair_groupoid_3"), ring_from_tag(tag)
    g, module, cls = r.groupoid, r.module, r.quotient._class
    bis = next(b for b in r.semigroup.elements if len(b) == 2)
    first, second = (module.label_index(bis, g.range(b)) for b in bis)
    cls[second] = cls[first]
    sums = {q: ring.scalar(v).value for q, v in
            r.phi_values({g.index(b): 1 for b in bis}).items()}
    sums = {q: v for q, v in sums.items() if v}
    assert sums == {q: c.value for q, c in
                    phi_classes(indicator(g, ring, bis), r).items()}
    assert sums == ({} if tag == "Z/2" else {cls[first]: 2})
    assert_phi_checks_agree(r, ring, 0)


def catalog_actions():
    actions = [label_bisection_action_of(catalog.load_groupoid(name))
               for name in catalog.groupoid_names()]
    actions.append(label_view(
        realization("pair_groupoid_4").module.algebra_action.action))
    actions += [catalog.load_action(name) for name in catalog.action_names()]
    for name in catalog.pair_names():
        actions += catalog.load_pair(name)
    return actions


def induced(build, *args):
    try:
        build(*args)
    except (KeyError, ValueError) as exc:
        return (type(exc).__name__, str(exc))
    return ("ok",)


def test_induced_action_equals_the_reference_on_the_catalog(Q):
    actions = catalog_actions()
    kinds = {type(a).__name__ for a in actions}
    assert kinds == {"SemigroupPartialAction", "GroupPartialAction"}
    for ring in (Q, ring_from_tag("Z/4")):
        for action in actions:
            fast = induced(induce_algebra_action, action)
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
    """induce_algebra_action checks nothing: it needs an action that passed
    its validator.  On every corruption that passes, the pairwise loop
    builds the induced action too, so nothing it raises is lost."""
    base = [a for a in catalog_actions() if len(a.space) > 1]
    rng = random.Random(8)
    passed = 0
    for trial in range(400):
        action = corrupt_maps(base[trial % len(base)], rng)
        validator = (validate_isg_partial_action
                     if isinstance(action, SemigroupPartialAction)
                     else validate_group_partial_action)
        if validator(action).ok:
            assert induced(induce_algebra_action, action) == \
                induced(reference_induce, action, Q) == ("ok",), trial
            passed += 1
    assert passed > 40
