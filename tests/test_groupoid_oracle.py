"""validate_groupoid against the label-based validator it replaced.

`reference_validate_groupoid` is the validator that ran every check on
arrow labels, kept verbatim, and reads the groupoid through its labels
(`label_groupoid`).  The index version decides every check on arrow
indices, and a failing composability, cancellation or associativity
check names one violation where it failed.  So its reports must give the
same verdict, and every violation it names must be in the reference's
full list: on the catalog, the transformation groupoids, the ladder,
groupoids over a non-associative loop, and seeded corruptions.  Passing
reports are byte-equal.  A name that is not an arrow has no index, and
the parser refuses it, so the corruptions use arrows only.
"""

import itertools
import random

from families import (family_groupoids, groupoid_from_labels, label_groupoid,
                      regular_action)

import catalog
from groupoidal.groupoid_core import validate_groupoid
from groupoidal.transformation_groupoid import build_transformation_groupoid
from groupoidal.validation import ValidationReport


def reference_validate_groupoid(g):
    """Exhaustively check the groupoid axioms; the report names every
    failing pair/triple."""
    g = label_groupoid(g)
    report = ValidationReport(f"groupoid {g.name}")
    arrows = g.arrows
    aset = set(arrows)

    for u in g.units:
        if u not in aset:
            report.add(f"unit {u} is not an arrow")
    for a in arrows:
        ainv = g.inverse_table.get(a)
        if ainv is None or ainv not in aset:
            report.add(f"inverse not closed: arrow {a} has no inverse arrow")
    for a, b in g.inverse_table.items():
        if a in aset and b in aset and g.inverse_table.get(b) != a:
            report.add(f"inverse is not an involution on {a}")
    if not report.ok:
        return report

    # r(b) = b b^{-1} and s(b) = b^{-1} b must exist before anything else.
    for a in arrows:
        if g.range(a) is None:
            report.add(f"range undefined: ({a}, {g.inverse(a)}) not composable")
        if g.source(a) is None:
            report.add(f"source undefined: ({g.inverse(a)}, {a}) not composable")
    if not report.ok:
        return report

    image = {g.range(a) for a in arrows} | {g.source(a) for a in arrows}
    if image != g.units:
        report.add(f"units must be the common image of range and source; "
                   f"image is {sorted(map(str, image))}")

    for (b, c), d in g.compose_table.items():
        if b not in aset or c not in aset:
            report.add(f"compose key ({b}, {c}) uses unknown arrows")
        elif d not in aset:
            report.add(f"compose value {d} for ({b}, {c}) is not an arrow")
    if not report.ok:
        return report

    for b in arrows:
        for c in arrows:
            defined = g.composable(b, c)
            matched = g.source(b) == g.range(c)
            if defined and not matched:
                report.add(f"({b}, {c}) composed but s({b}) != r({c})")
            elif matched and not defined:
                report.add(f"({b}, {c}) has s({b}) = r({c}) but no composite")
    if not report.ok:
        return report

    pairs = list(g.compose_table.items())
    for (b, c), bc in pairs:
        # cancellation: b^{-1}(bc) = c and (bc)c^{-1} = b
        left = g.compose_table.get((g.inverse(b), bc))
        if left != c:
            report.add(f"cancellation fails: {b}^-1 ({b}{c}) != {c}")
        right = g.compose_table.get((bc, g.inverse(c)))
        if right != b:
            report.add(f"cancellation fails: ({b}{c}) {c}^-1 != {b}")
    for b in arrows:
        for c in arrows:
            if not g.composable(b, c):
                continue
            bc = g.compose(b, c)
            for d in arrows:
                if not g.composable(c, d):
                    continue
                cd = g.compose(c, d)
                if not g.composable(bc, d) or not g.composable(b, cd):
                    report.add(f"composability not closed on ({b}, {c}, {d})")
                elif g.compose(bc, d) != g.compose(b, cd):
                    report.add(f"associativity fails on ({b}, {c}, {d})")
    if not report.ok:
        return report

    # Unit laws follow from the axioms; checking them gives sharper reports.
    for u in g.units:
        if g.inverse(u) != u or g.range(u) != u or g.source(u) != u:
            report.add(f"unit {u} is not idempotent under inverse/range/source")
    for b in arrows:
        if g.compose_table.get((g.range(b), b)) != b:
            report.add(f"r({b}) does not act as a left unit on {b}")
        if g.compose_table.get((b, g.source(b))) != b:
            report.add(f"s({b}) does not act as a right unit on {b}")
    return report


def steiner_loop_groupoid(units=1):
    """The Steiner loop of the affine plane of order 3 (10 elements, an
    inverse property loop that is not associative), times the pair
    groupoid on `units` points: arrow (i, j, x) runs from j to i, and
    (i, j, x)(j, k, y) = (i, k, xy).  Cancellation holds, associativity
    fails."""
    points = [(a, b) for a in range(3) for b in range(3)]

    def third(p, q):
        # The lines of the plane are the triples summing to 0 in Z3^2.
        return ((-p[0] - q[0]) % 3, (-p[1] - q[1]) % 3)

    names = ["e"] + [f"p{a}{b}" for a, b in points]

    def mul(x, y):
        if x == "e":
            return y
        if y == "e":
            return x
        if x == y:
            return "e"
        p, q = points[names.index(x) - 1], points[names.index(y) - 1]
        return names[points.index(third(p, q)) + 1]

    def arrow(i, j, x):
        return f"{i}{j}{x}"

    arrows = [arrow(i, j, x) for i in range(units) for j in range(units)
              for x in names]
    return groupoid_from_labels(
        arrows, [arrow(i, i, "e") for i in range(units)],
        {arrow(i, j, x): arrow(j, i, x) for i in range(units)
         for j in range(units) for x in names},
        {(arrow(i, j, x), arrow(j, k, y)): arrow(i, k, mul(x, y))
         for i, j, k in itertools.product(range(units), repeat=3)
         for x in names for y in names},
        name=f"steiner_{units}")


def ladder():
    groupoids = [catalog.load_groupoid(name)
                 for name in catalog.groupoid_names()]
    groupoids += [build_transformation_groupoid(catalog.load_action(name))
                  for name in catalog.action_names()]
    groupoids += [build_transformation_groupoid(regular_action(n))
                  for n in (2, 5, 10)]
    return groupoids + family_groupoids(4)


def assert_equal_reports(g):
    report = validate_groupoid(g)
    expected = reference_validate_groupoid(g)
    assert report.violations == expected.violations, g.name
    assert report.summary() == expected.summary()
    return report


def assert_reference_violations(report, expected):
    """The same verdict, and every violation named is in the reference's
    full list."""
    assert report.ok == expected.ok
    assert set(report.violations) <= set(expected.violations)


def test_reports_equal_the_reference_on_the_ladder():
    for g in ladder():
        assert assert_equal_reports(g).ok, g.name


def test_non_associative_loops_give_the_reference_report():
    for units in (1, 2):
        g = steiner_loop_groupoid(units)
        report = validate_groupoid(g)
        assert_reference_violations(report, reference_validate_groupoid(g))
        assert report.first.startswith("associativity fails on")


def corrupted(g, rng):
    """A copy of g with 1 to 3 of its tables' entries changed, removed,
    added or swapped, each to an arrow.  The draws are those of the
    label form, where a changed entry could also be a stray name."""
    g = label_groupoid(g)
    inverse, compose = dict(g.inverse_table), dict(g.compose_table)
    units = set(g.units)
    arrows = list(g.arrows)
    for _ in range(rng.randint(1, 3)):
        kind = rng.randrange(6) if compose else 2
        key = rng.choice(list(compose)) if compose else None
        if kind == 0:
            # A "stray" name is not an arrow: that draw changes nothing.
            value = rng.choice(arrows + ["stray"])
            if value != "stray":
                compose[key] = value
        elif kind == 1:
            del compose[key]
        elif kind == 2:
            compose[(rng.choice(arrows), rng.choice(arrows))] = \
                rng.choice(arrows)
        elif kind == 3:
            other = rng.choice(list(compose))
            compose[key], compose[other] = compose[other], compose[key]
        elif kind == 4:
            inverse[rng.choice(arrows)] = rng.choice(arrows)
        else:
            units ^= {rng.choice(arrows)}
    return groupoid_from_labels(arrows, units, inverse, compose, name=g.name)


def test_corrupted_groupoids_give_the_reference_report():
    rng = random.Random(51)
    bases = [g for g in ladder() if g.arrows]
    bases = bases[:40] + [steiner_loop_groupoid(1)]
    seen, reached = set(), set()
    for _ in range(600):
        g = corrupted(rng.choice(bases), rng)
        try:
            expected = reference_validate_groupoid(g)
        except (KeyError, ValueError) as exc:
            try:
                validate_groupoid(g)
            except type(exc) as got:
                assert str(got) == str(exc)
                continue
            raise AssertionError("the index validator did not raise")
        report = validate_groupoid(g)
        assert_reference_violations(report, expected)
        if any(v.startswith("composability") for v in expected.violations):
            # Cancellation gives closure, so where closure fails
            # cancellation fails too, and is named first.
            assert report.first.startswith("cancellation")
        seen.update(v.split(" ")[0] for v in report.violations)
        reached.update(v.split(" ")[0] for v in expected.violations)
    assert {"cancellation", "associativity", "units", "range",
            "inverse"} <= seen
    assert "composability" in reached
    # "(b, c) composed but s(b) != r(c)" and "... but no composite".
    assert any(word.startswith("(") for word in seen)
