"""The factored product of L against the dense table it replaced.

L is kept as row and column points plus the index table of the semigroup
(`CovarianceModule`); `dense_oracle` builds the dense table from the basis
labels, as the module did before, with Light's test and the row-major
homomorphism scan on top.  On the catalog, on the ladder (pair groupoids
on up to 4 points, cyclic bundles, regular Z_n) and on seeded corruptions,
the two must give the same products, verdicts, named triples and
certificate texts.  L's associativity is certified from its premises
alone; the corruptions include actions that break the composition law,
where L fails to be associative in the dense table: the premises are
needed.  Where a corrupted L still has closed products, Light's test on
its factored product gives the dense verdict.
"""

import itertools
import random

import pytest
from dense_oracle import (closed, dense_associativity, dense_homomorphism,
                          dense_quotient_table, dense_table, premises,
                          product_rows, realize, reference_generator_scan,
                          triple_fails)
from families import (bisection_action_of, family_groupoids,
                      label_bisection_action, regular_action, tabulated,
                      transformation_rho)
from formula_oracle import bisection_inverse, bisection_product

import catalog
from groupoidal.groupoid_core import FiniteGroupoid, composability_violation
from groupoidal.groups import FiniteGroup
from groupoidal.inverse_semigroups import bisection_semigroup
from groupoidal.isomorphisms import (AlgebraMap, bisection_action, rho,
                                     search_groupoid_isomorphism,
                                     steinberg_transport,
                                     transported_skew_isomorphism)
from groupoidal.partial_actions import (GroupPartialAction,
                                        induce_algebra_action,
                                        validate_group_partial_action)
from groupoidal.skew_rings import CovarianceModule
from groupoidal.steinberg_algebra import SteinbergAlgebra
from groupoidal.transformation_groupoid import build_transformation_groupoid

REGULAR = (2, 3, 5, 8)


def ladder_groupoids():
    return ([catalog.load_groupoid(name) for name in catalog.groupoid_names()]
            + family_groupoids(4))


def ladder_actions():
    return ([catalog.load_action(name) for name in catalog.action_names()]
            + [regular_action(n) for n in REGULAR])


@pytest.fixture(scope="module")
def ladder():
    """(name, L) for the bisection action of every ladder groupoid and for
    every ladder action."""
    modules = [(g.name, CovarianceModule(induce_algebra_action(
        bisection_action_of(g)))) for g in ladder_groupoids()]
    modules += [(a.name, CovarianceModule(induce_algebra_action(a)))
                for a in ladder_actions()]
    return modules


def test_factored_rows_equal_the_dense_table(ladder):
    assert max(module.dim for _, module in ladder) == 544
    for name, module in ladder:
        table = dense_table(module)
        assert product_rows(module) == [list(row) for row in table], name
        for i, row in enumerate(table):
            columns = module.at_point.get(module.row_points[i], ())
            assert [j for j, k in enumerate(row) if k >= 0] == columns, name
            assert module.row_products(i) == [row[j] for j in columns]
            assert [module.place[j] for j in columns] == \
                list(range(len(columns)))


def test_associativity_verdicts_equal_the_dense_oracle(ladder):
    for name, module in ladder:
        reports = premises(module.algebra_action.action)
        assert module.verify_associativity(reports) is True, name
        assert dense_associativity(module) is None, name
        assert module.associativity_counterexample() is None, name


def test_bisection_builders_follow_the_set_formulas():
    # theorem5 does not validate the bisection semigroup or its action:
    # both are derived from the groupoid axioms through these formulas
    # (see bisection_semigroup and bisection_action).  The rows and
    # columns of the generators, which theorem5 reads, are checked as
    # kept, then every other row.
    for g in ladder_groupoids():
        s = bisection_semigroup(g)
        elements = s.elements
        for k in s.generators:
            assert s.row(k) == [s.index(bisection_product(
                g, elements[k], c)) for c in elements], g.name
            assert s.column(k) == [s.index(bisection_product(
                g, b, elements[k])) for b in elements], g.name
        for i, b in enumerate(elements):
            assert s.star_table[i] == s.index(bisection_inverse(g, b)), g.name
            assert list(s.row(i)) == [s.index(bisection_product(g, b, c))
                                      for c in elements], g.name
        # The action reads (r(b), s(b)) off the arrows of each B, as
        # positions of units, in increasing r(b).
        action = bisection_action(g, s)
        assert set(action.space) == set(g.units), g.name
        point = {x: p for p, x in enumerate(action.space)}
        for i, b in enumerate(s.elements):
            assert action.star_graph(i) == sorted(
                (point[g.range(a)], point[g.source(a)]) for a in b), g.name


def test_mask_action_builds_the_label_actions_l():
    # theorem5 reads the bisection action off the semigroup's arrow
    # indices; the label form, a domain r(B) and a map s(b) -> r(b) per
    # bisection, is its oracle.  Both give the same L, and psi sends
    # (B, u) to the arrow of B with range u.
    for g in ladder_groupoids():
        r = realize(g)
        label = CovarianceModule(induce_algebra_action(
            label_bisection_action(g, r.semigroup)))
        mask = r.module
        assert mask.basis_labels == label.basis_labels, g.name
        assert mask.row_points == label.row_points, g.name
        assert mask.col_points == label.col_points, g.name
        for i in range(mask.dim):
            assert mask.row_products(i) == label.row_products(i), g.name
        assert r.psi_map.targets == [
            g.index(next(b for b in s if g.range(b) == x))
            for s, x in label.basis_labels], g.name


def transported_maps():
    """Gamma and Phi for every catalog pair with isomorphic groupoids."""
    maps = []
    for name in catalog.pair_names():
        left, right = catalog.load_pair(name)
        gl = build_transformation_groupoid(left)
        gr = build_transformation_groupoid(right)
        iso = search_groupoid_isomorphism(gl, gr)
        if iso is not None:
            gamma = steinberg_transport(iso, SteinbergAlgebra(gl),
                                        SteinbergAlgebra(gr))
            maps += [gamma, transported_skew_isomorphism(
                rho(left, gl), rho(right, gr),
                gamma)]
    return maps


def ladder_maps():
    maps = []
    for g in ladder_groupoids():
        r = realize(g)
        maps += [r.psi_map, r.psi_tilde]
    maps += [transformation_rho(a) for a in ladder_actions()]
    return maps + transported_maps()


def test_quotient_tables_equal_the_dense_oracle():
    for g in ladder_groupoids():
        quotient = realize(g).quotient
        assert product_rows(quotient) == dense_quotient_table(quotient), \
            g.name
        assert quotient.verify_representative_independence() is None
        assert reference_generator_scan(quotient) is None


def test_homomorphism_certificates_equal_the_dense_scan():
    maps = ladder_maps()
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


def test_mutated_maps_give_the_dense_scan_text():
    rng = random.Random(31)
    bundle = family_groupoids(0)[3]
    assert bundle.name == "bundle_z4_z4"
    maps = [realize(catalog.load_groupoid("pair_groupoid_3")).psi_map,
            realize(bundle).psi_map, realize(bundle).psi_tilde,
            transformation_rho(catalog.load_action("z2_partial_3pt")),
            transformation_rho(regular_action(5))] + transported_maps()
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


def test_generator_rows_give_the_dense_homomorphism_verdict():
    # psi's certificate reads only the generator rows of L, which is
    # certified associative, as A_R(G) is: on any map of the same
    # algebras, such as the mutants of psi, that gives the verdict of the
    # dense scan, and the first failing pair among those rows.
    rng = random.Random(37)
    bundle = family_groupoids(0)[3]
    failing = 0
    for g in (catalog.load_groupoid("pair_groupoid_3"),
              catalog.load_groupoid("pair_plus_unit"), bundle):
        r = realize(g)
        rows = r.module.generator_basis()
        assert 0 < len(rows) < r.module.dim
        assert r.psi_map.certificates["homomorphism"] == \
            dense_homomorphism(r.psi_map, rows) == (True, None)
        for mutant in mutants(r.psi_map, rng, 40):
            verdict = mutant.certify_homomorphism(rows)
            assert verdict == dense_homomorphism(mutant)[0]
            assert mutant.certificates["homomorphism"] == \
                dense_homomorphism(mutant, rows)
            failing += not verdict
    assert failing > 40


def outcome(fn, *args):
    """The verdict, or "KeyError" for a product that is not in L."""
    try:
        return fn(*args)
    except KeyError:
        return "KeyError"


def compare(action):
    """(premises hold, certified, dense verdict, factored verdict), or
    None when L cannot be built at all.  The factored verdict is Light's
    test on L's factored product where L's products are closed, and None
    where they are not."""
    try:
        module = CovarianceModule(induce_algebra_action(action))
    except (KeyError, ValueError):
        return None
    reports = premises(action)
    dense = outcome(dense_associativity, module)
    factored = None
    if dense != "KeyError" and closed(module):
        factored = module.associativity_counterexample()
        assert (factored is None) == (dense is None)
        assert factored is None or triple_fails(dense_table(module),
                                                factored)
    return (all(r.ok for r in reports),
            module.verify_associativity(reports), dense, factored)


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
    changed, on a copy with its whole table."""
    def tabulated_action(name):
        g = catalog.load_groupoid(name)
        return label_bisection_action(g, tabulated(bisection_semigroup(g)))

    sources = ([lambda name=name: catalog.load_action(name)
                for name in catalog.action_names()]
               + [lambda n=n: regular_action(n) for n in (3, 4)]
               + [lambda name=name: tabulated_action(name)
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


def test_corrupted_actions_give_the_dense_verdicts():
    rng = random.Random(41)
    results = [compare(a) for a in z4_actions(rng, 60)]
    results += [compare(a) for a in partial_corruptions(rng, 300)]
    results = [r for r in results if r is not None]
    for holds, certified, dense, _ in results:
        # L is certified exactly when the premises hold, and then the
        # dense table has no failing triple.
        assert certified == holds
        if holds:
            assert dense is None
    triples = [d for holds, _, d, _ in results
               if not holds and isinstance(d, tuple)]
    # The premises are needed: with the composition law broken, L is
    # not associative, at many different triples.
    assert len(triples) > 60
    assert len(set(triples)) > 10
    assert any(not holds and d is None for holds, _, d, _ in results)
    assert any(d == "KeyError" for _, _, d, _ in results)
    # Light's test ran on the factored product of some corrupted L.
    assert any(f is not None for *_, f in results)


def test_composability_violation_names_a_composite_off_the_points():
    # One composite too many: e_b e_b is defined although s(b) != r(b),
    # so A_R of that table has no point structure.  composability_violation
    # names it; validate_groupoid runs it before any SteinbergAlgebra is
    # built, which assumes the points.
    g = catalog.load_groupoid("pair_groupoid_2")
    b = next(a for a in g.arrows if g.source(a) != g.range(a))
    compose = dict(g.compose_table)
    compose[(b, b)] = g.range(b)
    bad = FiniteGroupoid(g.arrows, g.units, g.inverse_table, compose)
    violation = f"({b}, {b}) composed but s({b}) != r({b})"
    assert composability_violation(bad) == violation


def test_transformation_groupoids_compose_on_matched_points():
    # SteinbergAlgebra is built on the transformation groupoid of every
    # action that passes action_axioms, unvalidated, so each must
    # compose exactly on matched points.
    rng = random.Random(41)
    actions = ([catalog.load_action(name) for name in catalog.action_names()]
               + [regular_action(n) for n in REGULAR])
    actions += [a for a in itertools.chain(z4_actions(rng, 60),
                                           partial_corruptions(rng, 300))
                if isinstance(a, GroupPartialAction)
                and validate_group_partial_action(a).ok]
    assert len(actions) > 100
    for action in actions:
        assert composability_violation(
            build_transformation_groupoid(action)) is None


def test_products_outside_l_raise_as_in_the_dense_table():
    rng = random.Random(43)
    raised = 0
    for action in partial_corruptions(rng, 200):
        try:
            module = CovarianceModule(induce_algebra_action(action))
        except (KeyError, ValueError):
            continue
        rows = outcome(lambda: [module.row_products(i)
                                for i in range(module.dim)])
        assert (rows == "KeyError") == \
            (outcome(dense_table, module) == "KeyError")
        raised += rows == "KeyError"
    assert raised > 5
