"""The factored product of L against the dense table it replaced.

L is kept as row and column points plus the index table of the semigroup
(`CovarianceModule`); `dense_oracle` builds the dense table from the basis
labels, as the module did before, with Light's test and the row-major
homomorphism scan on top.  On the catalog, on the ladder (pair groupoids
on up to 4 points, cyclic bundles, regular Z_n) and on seeded corruptions,
the two must give the same products, verdicts, first triples and
certificate texts.  The corruptions include actions that break the
composition law, where L fails to be associative: the premises of the
associativity certificate are needed.
"""

import itertools
import random

import pytest
from dense_oracle import (dense_associativity, dense_homomorphism,
                          dense_quotient_table, dense_table,
                          reference_generator_scan)
from families import family_groupoids, regular_action

from groupoidal import catalog
from groupoidal.groupoid_core import FiniteGroupoid
from groupoidal.groups import FiniteGroup
from groupoidal.inverse_semigroups import validate_inverse_semigroup
from groupoidal.isomorphisms import (AlgebraMap, bisection_action, psi, rho,
                                     search_groupoid_isomorphism,
                                     steinberg_transport,
                                     transported_skew_isomorphism)
from groupoidal.partial_actions import (GroupPartialAction,
                                        induce_algebra_action,
                                        validate_group_partial_action,
                                        validate_isg_partial_action)
from groupoidal.skew_rings import CovarianceModule
from groupoidal.steinberg_algebra import SteinbergAlgebra
from groupoidal.transformation_groupoid import build_transformation_groupoid
from groupoidal.validation import ValidationReport

REGULAR = (2, 3, 5, 8)


def ladder_groupoids():
    return ([catalog.load_groupoid(name) for name in catalog.groupoid_names()]
            + family_groupoids(4))


def ladder_actions():
    return ([catalog.load_action(name) for name in catalog.action_names()]
            + [regular_action(n) for n in REGULAR])


@pytest.fixture(scope="module")
def ladder(Q):
    """(name, L) for the bisection action of every ladder groupoid and for
    every ladder action."""
    modules = [(g.name, CovarianceModule(induce_algebra_action(
        bisection_action(g), Q))) for g in ladder_groupoids()]
    modules += [(a.name, CovarianceModule(induce_algebra_action(a, Q)))
                for a in ladder_actions()]
    return modules


def test_factored_rows_equal_the_dense_table(ladder):
    assert max(module.dim for _, module in ladder) == 544
    for name, module in ladder:
        table = dense_table(module)
        assert [module.row(i) for i in range(module.dim)] == \
            [list(row) for row in table], name
        for i, row in enumerate(table):
            columns = module.at_point.get(module.row_points[i], ())
            assert [j for j, k in enumerate(row) if k >= 0] == columns, name
            assert module.row_products(i) == [row[j] for j in columns]
            assert module.products(i, range(module.dim)) == list(row)


def test_associativity_verdicts_equal_the_dense_oracle(ladder):
    for name, module in ladder:
        assert module.verify_associativity() is None, name
        assert dense_associativity(module) is None, name


def transported_maps(ring):
    """Gamma and Phi for every catalog pair with isomorphic groupoids."""
    maps = []
    for name in catalog.pair_names():
        left, right = catalog.load_pair(name)
        gl = build_transformation_groupoid(left)
        gr = build_transformation_groupoid(right)
        iso = search_groupoid_isomorphism(gl, gr)
        if iso is not None:
            gamma = steinberg_transport(iso, SteinbergAlgebra(gl, ring),
                                        SteinbergAlgebra(gr, ring))
            maps += [gamma, transported_skew_isomorphism(
                rho(left, ring, groupoid=gl), rho(right, ring, groupoid=gr),
                gamma)]
    return maps


def ladder_maps(ring):
    maps = []
    for g in ladder_groupoids():
        r = psi(g, ring)
        maps += [r.psi_map, r.psi_tilde]
    maps += [rho(a, ring) for a in ladder_actions()]
    return maps + transported_maps(ring)


def test_quotient_tables_equal_the_dense_oracle(Q):
    for g in ladder_groupoids():
        quotient = psi(g, Q).quotient
        assert [list(row) for row in quotient.table] == \
            dense_quotient_table(quotient), g.name
        assert quotient.verify_representative_independence() is None
        assert reference_generator_scan(quotient) is None


def test_homomorphism_certificates_equal_the_dense_scan(Q):
    maps = ladder_maps(Q)
    assert {type(m.domain).__name__ for m in maps} == \
        {"CovarianceModule", "QuotientAlgebra", "SteinbergAlgebra"}
    assert any(isinstance(m.codomain, CovarianceModule) for m in maps)
    for m in maps:
        assert m.certificates["homomorphism"] == (True, None), m.name
        assert dense_homomorphism(m) == (True, None), m.name


def mutants(m, rng, count):
    """Maps with the targets of m swapped or moved at random, and with
    the targets swapped between basis elements that share both points,
    which keeps the point map and breaks only nonzero products."""
    dom, n = m.domain, m.domain.dim
    for _ in range(count):
        targets = list(m.targets)
        a, b = rng.sample(range(n), 2)
        if rng.random() < 0.5:
            targets[a], targets[b] = targets[b], targets[a]
        else:
            targets[a] = rng.randrange(m.codomain.dim)
        yield AlgebraMap(dom, m.codomain, targets, name="mutant")
    for a, b in itertools.combinations(range(n), 2):
        if (dom.row_points[a], dom.col_points[a]) == \
                (dom.row_points[b], dom.col_points[b]) \
                and m.targets[a] != m.targets[b]:
            targets = list(m.targets)
            targets[a], targets[b] = targets[b], targets[a]
            yield AlgebraMap(dom, m.codomain, targets, name="swap")


def test_mutated_maps_give_the_dense_scan_text(Q):
    rng = random.Random(31)
    bundle = family_groupoids(0)[3]
    assert bundle.name == "bundle_z4_z4"
    maps = [psi(catalog.load_groupoid("pair_groupoid_3"), Q).psi_map,
            psi(bundle, Q).psi_map, psi(bundle, Q).psi_tilde,
            rho(catalog.load_action("z2_partial_3pt"), Q),
            rho(regular_action(5), Q)] + transported_maps(Q)
    failing = point_preserving = 0
    for m in maps:
        for mutant in mutants(m, rng, 40):
            expected = dense_homomorphism(mutant)
            assert mutant.certify_homomorphism() == expected[0]
            assert mutant.certificates["homomorphism"] == expected
            failing += not expected[0]
            point_preserving += mutant.name == "swap" and not expected[0]
    assert failing > 150
    assert point_preserving > 20


def failed(error):
    """A failing report, for a validator that raised."""
    report = ValidationReport("premise")
    report.add(error)
    return report


def premises(action):
    """The validator reports verify_associativity takes as premises."""
    check = (validate_group_partial_action
             if isinstance(action, GroupPartialAction)
             else validate_isg_partial_action)
    reports = []
    for validator, subject in ((validate_inverse_semigroup, action.index),
                               (check, action)):
        try:
            reports.append(validator(subject))
        except (KeyError, ValueError) as exc:
            reports.append(failed(str(exc)))
    return reports


def outcome(fn, *args):
    """The verdict, or "KeyError" for a product that is not in L."""
    try:
        return fn(*args)
    except KeyError:
        return "KeyError"


def compare(action, ring):
    """(premises hold, factored verdict, dense verdict), or None when L
    cannot be built at all."""
    try:
        module = CovarianceModule(induce_algebra_action(action, ring))
    except (KeyError, ValueError):
        return None
    reports = premises(action)
    return (all(r.ok for r in reports),
            outcome(module.verify_associativity, reports),
            outcome(dense_associativity, module))


def z4_actions(rng, count):
    """Z4 acting globally on 4 points: theta_g a random permutation,
    theta_g3 its inverse, theta_g2 a random involution.  The maps and the
    intertwining law hold; the composition law holds only when theta_g2
    is the square of theta_g."""
    group = FiniteGroup.cyclic(4)
    points = ["a", "b", "c", "d"]
    involutions = [p for p in itertools.permutations(points)
                   if all(p[points.index(y)] == x
                          for x, y in zip(points, p))]
    for _ in range(count):
        perm = rng.sample(points, 4)
        maps = {"e": {x: x for x in points},
                "g": dict(zip(points, perm)),
                "g3": dict(zip(perm, points)),
                "g2": dict(zip(points, rng.choice(involutions)))}
        yield GroupPartialAction(group, points,
                                 {g: points for g in group.elements}, maps)


def partial_corruptions(rng, count):
    """Catalog actions, regular Z_n and bisection actions with the map of
    one element and of its inverse changed together, so that they stay
    inverse bijections, and bisection semigroups with one product
    changed."""
    sources = ([lambda name=name: catalog.load_action(name)
                for name in catalog.action_names()]
               + [lambda n=n: regular_action(n) for n in (3, 4)]
               + [lambda name=name: bisection_action(
                   catalog.load_groupoid(name))
                  for name in ("pair_groupoid_2", "two_z2", "z3_one_unit")])
    for _ in range(count):
        action = rng.choice(sources)()
        index = action.index
        if rng.random() < 0.3 and not isinstance(action, GroupPartialAction):
            n = len(index.elements)
            index.table[rng.randrange(n)][rng.randrange(n)] = rng.randrange(n)
        else:
            s = rng.choice(index.elements)
            old = action.maps[s]
            images = list(old.values())
            rng.shuffle(images)
            new = dict(zip(old, images))
            action.maps[s] = new
            action.maps[index.star(s)] = {y: x for x, y in new.items()}
        yield action


def test_corrupted_actions_give_the_dense_verdicts(Q):
    rng = random.Random(41)
    results = [compare(a, Q) for a in z4_actions(rng, 60)]
    results += [compare(a, Q) for a in partial_corruptions(rng, 300)]
    results = [r for r in results if r is not None]
    for holds, factored, dense in results:
        assert factored == dense
        if holds:
            assert factored is None
    triples = [f for holds, f, _ in results
               if not holds and isinstance(f, tuple)]
    # The premises are needed: with the composition law broken, L is
    # not associative, at many different first triples.
    assert len(triples) > 60
    assert len(set(triples)) > 10
    assert any(not holds and f is None for holds, f, _ in results)
    assert any(f == "KeyError" for _, f, _ in results)


def test_a_table_off_its_points_gets_the_dense_scan(Q):
    # One composite too many: e_b e_b is nonzero in the codomain although
    # s(b) != r(b), so A_R of that table has no point structure, and the
    # certificate must not read zero products off the points.
    g = catalog.load_groupoid("pair_groupoid_2")
    b = next(a for a in g.arrows if g.source(a) != g.range(a))
    compose = dict(g.compose_table)
    compose[(b, b)] = g.range(b)
    bad = FiniteGroupoid(g.arrows, g.units, g.inverse_table, compose)
    codomain = SteinbergAlgebra(bad, Q)
    assert codomain.row_points is None
    m = AlgebraMap(SteinbergAlgebra(g, Q), codomain, range(g.n_arrows))
    assert not m.certify_homomorphism()
    assert m.certificates["homomorphism"] == dense_homomorphism(m)
    assert m.certificates["homomorphism"][1] == \
        f"fails on basis pair ({b}, {b})"


def test_products_outside_l_raise_as_in_the_dense_table(Q):
    rng = random.Random(43)
    raised = 0
    for action in partial_corruptions(rng, 200):
        try:
            module = CovarianceModule(induce_algebra_action(action, Q))
        except (KeyError, ValueError):
            continue
        rows = outcome(lambda: [module.row_products(i)
                                for i in range(module.dim)])
        assert (rows == "KeyError") == \
            (outcome(dense_table, module) == "KeyError")
        raised += rows == "KeyError"
    assert raised > 5
