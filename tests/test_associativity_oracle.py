"""Light's associativity test against the full cube it replaced.

`reference_cube` is the n^3 cube that decided associativity before Light's
test, kept verbatim over list rows; `reference_validator` is the inverse
semigroup validator that ran on product dicts, kept verbatim; the fast
one, which checks that a* is an inverse of a and that the idempotents
commute, but not that inverses are unique, must give its verdict
and name only faults the table has (`real_violations`).
`reference_generators` states the generator rule of `light_generators`
with the closure recomputed in full: the magma closure on an associative
table, where it is the closure under right multiplication by the
generators that `generating_set` computes, and that closure
(`left_normed_closure`) on any other.  `smallest_missing_generators`
states the rule it replaced, which bounds the size of G.

Light's test runs on the factored product of a based algebra: A_R(G) and
the contracted groupoid table through `GroupoidProduct`, L, L/I through
the reference `dense_oracle.FactoredQuotient`, and
the Cayley tables of semigroups through the one-point `DenseTable`.  It
must give the verdict of the cube and of the dense Light's test in
`dense_oracle`, name a triple that fails in the cube, and pick the
reference generators, on every catalog algebra, the ladder and seeded
corruptions of total tables.  The dense Light's test, which runs on any
table with zero products, is checked against the cube on corrupted dense
tables of L and on small random tables.
"""

import random
from array import array
from collections import Counter

import pytest
from dense_oracle import (FactoredQuotient, quotient_of,
                          table_associativity_counterexample, table_of,
                          table_light_generators, triple_fails)
from families import (family_groupoids, mul, pair_groupoid_spec, parse,
                      semigroup_from_products, star_of,
                      symmetric_inverse_monoid, tabulated)

import catalog
from groupoidal.inverse_semigroups import (bisection_semigroup,
                                           validate_inverse_semigroup)
from groupoidal.isomorphisms import bisection_action
from groupoidal.partial_actions import induce_algebra_action
from groupoidal.scalars import DenseTable, index_typecode, light_generators
from groupoidal.skew_rings import CovarianceModule, build_ideal
from groupoidal.steinberg_algebra import SteinbergAlgebra
from groupoidal.transformation_groupoid import build_transformation_groupoid
from groupoidal.validation import ValidationReport


def reference_cube(table):
    """The first basis triple (i, j, k), in lexicographic order, with
    (e_i e_j) e_k != e_i (e_j e_k), or None."""
    n = len(table)
    zero_row = [-1] * n
    for i, row in enumerate(table):
        # Index -1 (a zero product) reads the appended -1.
        row_i = row + [-1]
        for j in range(n):
            ij = row[j]
            left = table[ij] if ij >= 0 else zero_row
            right = [row_i[jk] for jk in table[j]]
            if left != right:
                k = next(k for k in range(n) if left[k] != right[k])
                return (i, j, k)
    return None


def magma_closure(table, generators):
    """Every index reached by products of the generators; -1 (a zero
    product) is not an index."""
    closure = set(generators)
    while True:
        new = {table[x][y] for x in closure for y in closure} - closure
        new.discard(-1)
        if not new:
            return closure
        closure |= new


def left_normed_closure(table, generators):
    """Every index reached as a left-normed product (..(g1 g2)..) gk of
    the generators, table[x][g] the index of x g; -1 (a zero product) is
    not an index."""
    closure = frontier = set(generators)
    while frontier:
        frontier = {table[x][g] for x in frontier for g in generators}
        frontier -= closure | {-1}
        closure = closure | frontier
    return closure


def reference_generators(table, closure=magma_closure):
    """Candidates in ascending order of how often they occur as a product,
    ties by index; a candidate inside the closure is skipped, and the
    search stops once the closure is everything.  The closure is
    recomputed in full after each generator."""
    n = len(table)
    counts = Counter(k for row in table for k in row)
    generators, inside = [], set()
    for candidate in sorted(range(n), key=lambda i: (counts[i], i)):
        if len(inside) == n:
            break
        if candidate not in inside:
            generators.append(candidate)
            inside = closure(table, generators)
    return generators


def assert_left_normed_generators(table, generators, name):
    """The left-normed products of the generators are every index of the
    table, and no generator is one of those before it."""
    assert left_normed_closure(table, generators) == set(range(len(table))), \
        name
    for k in range(1, len(generators)):
        assert generators[k] not in left_normed_closure(table,
                                                        generators[:k]), name


def smallest_missing_generators(table):
    """The rule Light's test used first: the non-products, then the
    smallest index outside the magma closure, until the closure is
    everything; the closure is recomputed in full each time."""
    n = len(table)
    produced = {k for row in table for k in row}
    generators = [i for i in range(n) if i not in produced]
    closure = set(generators)
    while True:
        new = {table[x][y] for x in closure for y in closure} - closure
        new.discard(-1)
        if new:
            closure |= new
            continue
        missing = [i for i in range(n) if i not in closure]
        if not missing:
            return generators
        generators.append(missing[0])
        closure.add(missing[0])


class DictSemigroup:
    """A semigroup as product and pseudo-inverse dicts, as the reference
    validator reads it."""

    def __init__(self, name, elements, table, star):
        self.name = name
        self.elements = list(elements)
        self._table = dict(table)
        self._star = dict(star)

    def mul(self, s, t):
        return self._table[(s, t)]

    def star(self, s):
        return self._star[s]

    def idempotents(self):
        return [s for s in self.elements if self.mul(s, s) == s]


def reference_validator(s):
    """Check associativity, existence and uniqueness of pseudo-inverses
    (the star table must name the unique witness), and commutativity of
    the idempotents."""
    report = ValidationReport(f"inverse semigroup {s.name}")
    elems = s.elements
    eset = set(elems)
    for a in elems:
        for b in elems:
            c = s._table.get((a, b))
            if c is None:
                report.add(f"multiplication missing entry ({a}, {b})")
            elif c not in eset:
                report.add(f"product {c} of ({a}, {b}) is not an element")
    for a in elems:
        if s._star.get(a) not in eset:
            report.add(f"star missing or not an element for {a}")
    if not report.ok:
        return report

    for a in elems:
        for b in elems:
            ab = s.mul(a, b)
            for c in elems:
                if s.mul(ab, c) != s.mul(a, s.mul(b, c)):
                    report.add(f"associativity fails on ({a}, {b}, {c})")
                    return report

    for a in elems:
        witnesses = [t for t in elems
                     if s.mul(s.mul(a, t), a) == a and s.mul(s.mul(t, a), t) == t]
        if not witnesses:
            report.add(f"{a} has no pseudo-inverse")
        elif len(witnesses) > 1:
            report.add(f"{a} has {len(witnesses)} pseudo-inverses: "
                       f"{sorted(map(str, witnesses))}")
        elif witnesses != [s.star(a)]:
            report.add(f"star table names {s.star(a)} for {a}, "
                       f"but the pseudo-inverse is {witnesses[0]}")
    if not report.ok:
        return report

    idem = s.idempotents()
    for e in idem:
        for f in idem:
            if s.mul(e, f) != s.mul(f, e):
                report.add(f"idempotents {e} and {f} do not commute")
    return report


def real_violations(s):
    """Every text validate_inverse_semigroup may give past associativity,
    for a fault the dict semigroup has: a star entry missing, a named a*
    failing a a* a = a or a* a a* = a*, or two idempotents that do not
    commute."""
    eset = set(s.elements)
    texts = set()
    for a in s.elements:
        t = s._star.get(a)
        if t not in eset:
            texts.add(f"star missing or not an element for {a}")
        elif s.mul(s.mul(a, t), a) != a or s.mul(s.mul(t, a), t) != t:
            texts.add(f"star table names {t} for {a}, "
                      f"which is not an inverse of it")
    idem = s.idempotents()
    texts.update(f"idempotents {e} and {f} do not commute"
                 for e in idem for f in idem if s.mul(e, f) != s.mul(f, e))
    return texts


def as_lists(table):
    return [list(row) for row in table]


def assert_agrees(table):
    """The dense Light's test and the cube give the same verdict, and the
    triple the dense test names fails in the cube."""
    found = table_associativity_counterexample(table)
    assert (found is None) == (reference_cube(as_lists(table)) is None)
    if found is not None:
        assert triple_fails(as_lists(table), found)
    return found


def assert_algebra_agrees(algebra):
    """Light's test on the factored product gives the verdict of the cube
    and of the dense Light's test on the algebra's dense table, names a
    triple that fails there, and picks the reference generators, under
    the magma closure where it is associative and the left-normed
    closure where it is not."""
    table = table_of(algebra)
    found = algebra.associativity_counterexample()
    assert (found is None) == (assert_agrees(table) is None)
    if found is not None:
        assert triple_fails(as_lists(table), found)
    # Where the table is not associative, a product of generators need
    # not be a left-normed one, so G may be larger than the magma rule's.
    closure = magma_closure if found is None else left_normed_closure
    assert light_generators(algebra) == reference_generators(table, closure)
    return found


def bisection_module(g):
    semigroup = bisection_semigroup(g)
    alg = induce_algebra_action(bisection_action(g, semigroup))
    return semigroup, CovarianceModule(alg)


def groupoid_algebras(name, g):
    """(name, algebra) for A_R(G), L, L/I and the bisection semigroup;
    L/I with the factored product of dense_oracle.FactoredQuotient, as
    the engine computes none."""
    semigroup, module = bisection_module(g)
    quotient = FactoredQuotient(quotient_of(module, build_ideal(module)))
    return [(f"{name} A", SteinbergAlgebra(g)),
            (f"{name} L", module),
            (f"{name} L/I", quotient),
            (f"{name} S", DenseTable(tabulated(semigroup).table))]


def groupoid_tables(name, g):
    """(name, dense table) for A_R(G), L, L/I and the bisection
    semigroup."""
    return [(label, table_of(algebra))
            for label, algebra in groupoid_algebras(name, g)]


def catalog_algebras():
    """(name, algebra) for A_R(G), L, L/I and the bisection semigroup of
    every catalog groupoid, A_R(G) and L of every catalog action, and
    every catalog semigroup."""
    algebras = []
    for name in catalog.groupoid_names():
        algebras += groupoid_algebras(name, catalog.load_groupoid(name))
    for name in catalog.action_names():
        action = catalog.load_action(name)
        g = build_transformation_groupoid(action)
        algebras += [(f"{name} A", SteinbergAlgebra(g)),
                     (f"{name} L", CovarianceModule(
                         induce_algebra_action(action)))]
    for name in catalog.semigroup_names():
        algebras.append((name, DenseTable(catalog.load_semigroup(name).table)))
    return algebras


def test_catalog_tables_agree_with_the_cube():
    algebras = catalog_algebras()
    assert len(algebras) > 50
    for name, algebra in algebras:
        assert all(isinstance(row, array) for row in table_of(algebra)), name
        assert assert_algebra_agrees(algebra) is None, name


def ladder_algebras():
    """(name, algebra) for I(1) to I(4); A_R(G), L, L/I and S of the pair
    groupoids on 1 to 4 points and of the cyclic bundles; A_R(G) of the
    pair groupoids on 5 and 6 points; and the bisection semigroup of the
    pair groupoid on 5 points, which is I(5) (a bisection of it is a
    partial bijection of the points), tabulated far faster than
    symmetric_inverse_monoid builds I(5)."""
    algebras = [(f"I({n})", DenseTable(symmetric_inverse_monoid(
        range(n)).table)) for n in range(1, 5)]
    for g in family_groupoids(4):
        algebras += groupoid_algebras(g.name, g)
    for n in (5, 6):
        algebras.append((f"pair_groupoid_{n} A",
                         SteinbergAlgebra(parse(pair_groupoid_spec(n)))))
    pair_5 = bisection_semigroup(parse(pair_groupoid_spec(5)), 25)
    algebras.append(("pair_groupoid_5 S", DenseTable(tabulated(pair_5).table)))
    return algebras


def test_generators_generate_and_are_no_more_than_before():
    # Every algebra here is associative, so its left-normed products are
    # all its products, and G is the magma rule's.
    for name, algebra in catalog_algebras() + ladder_algebras():
        table = table_of(algebra)
        generators = light_generators(algebra)
        assert generators == reference_generators(table), name
        assert generators == table_light_generators(table), name
        assert magma_closure(table, generators) == set(range(len(table))), name
        assert_left_normed_generators(table, generators, name)
        assert len(generators) <= len(smallest_missing_generators(table)), name


def test_generator_counts_on_the_rung():
    semigroup, module = bisection_module(parse(pair_groupoid_spec(4)))
    assert (semigroup.order, module.dim) == (209, 544)
    # 99 and 46 under smallest_missing_generators.
    assert len(light_generators(module)) <= 16
    assert len(light_generators(DenseTable(tabulated(semigroup).table))) <= 5
    # 33 under smallest_missing_generators.
    i4 = symmetric_inverse_monoid(range(4))
    assert i4.order == 209
    assert len(light_generators(DenseTable(i4.table))) <= 5


def test_bisection_generators_generate_the_semigroup():
    # theorem5 reads S only on the rows of its generating set, found with
    # no table: its closure is S, and each generator lies outside the
    # closure of those found before it.
    groupoids = [catalog.load_groupoid(name)
                 for name in catalog.groupoid_names()]
    groupoids += family_groupoids(4)
    for g in groupoids:
        s = bisection_semigroup(g)
        table, generators = tabulated(s).table, s.generators
        assert magma_closure(table, generators) == set(range(s.order)), g.name
        for k in range(1, len(generators)):
            assert generators[k] not in magma_closure(table, generators[:k])
        assert_left_normed_generators(table, generators, g.name)
    # On 5 and 6 points (1,546 and 13,327 bisections) the same holds of
    # the left-normed products, read off the products x g, computed as
    # the search computes them.
    for n in (5, 6):
        s = bisection_semigroup(parse(pair_groupoid_spec(n)), n * n)
        columns = {g: s._products(s._right_lut(g), range(s.order))
                   for g in s.generators}
        rows = [{g: column[x] for g, column in columns.items()}
                for x in range(s.order)]
        assert_left_normed_generators(rows, s.generators, s.name)
    # On 4 points: 5 generators of the 209 bisections.
    assert len(bisection_semigroup(parse(pair_groupoid_spec(4))).generators) \
        == 5


def corrupt(table, rng):
    """A copy of the table with 1 to 3 entries changed to another value
    in [-1, n)."""
    n = len(table)
    rows = [row[:] for row in table]
    for _ in range(rng.randint(1, 3)):
        i, j = rng.randrange(n), rng.randrange(n)
        rows[i][j] = rng.choice([v for v in range(-1, n) if v != rows[i][j]])
    return rows


def test_corrupted_l_tables_agree_with_the_cube():
    _, module = bisection_module(catalog.load_groupoid("pair_groupoid_3"))
    assert module.dim == 63
    rng = random.Random(6)
    verdicts = []
    table_l = table_of(module)
    for trial in range(300):
        table = corrupt(table_l, rng)
        verdicts.append(assert_agrees(table))
        if trial < 20:
            assert table_light_generators(table) == \
                reference_generators(table)
    # Most corruptions break associativity, named at many triples.
    assert sum(v is not None for v in verdicts) > 250
    assert len(set(verdicts)) > 100


def corrupt_total(table, rng):
    """A copy of a total table with 1 to 3 entries changed to another
    index, so that it stays total."""
    n = len(table)
    rows = [row[:] for row in table]
    for _ in range(rng.randint(1, 3)):
        i, j = rng.randrange(n), rng.randrange(n)
        rows[i][j] = rng.choice([v for v in range(n) if v != rows[i][j]])
    return rows


def test_corrupted_cayley_tables_agree_with_the_cube(Q):
    # A one-element table has no other index to corrupt to.
    semigroups = [s for s in map(catalog.load_semigroup,
                                 catalog.semigroup_names()) if s.order > 1]
    semigroups += [tabulated(bisection_semigroup(catalog.load_groupoid(name)))
                   for name in ("pair_groupoid_2", "two_z2", "z3_one_unit")]
    semigroups.append(symmetric_inverse_monoid(range(3)))
    rng = random.Random(9)
    verdicts = []
    for trial in range(300):
        table = corrupt_total(semigroups[trial % len(semigroups)].table, rng)
        verdicts.append(assert_algebra_agrees(DenseTable(table)))
    assert sum(v is not None for v in verdicts) > 200
    assert len(set(verdicts)) > 50


def test_small_random_tables_agree_with_the_cube():
    rng = random.Random(7)
    failing = 0
    for n in (1, 2, 3, 4, 5):
        for _ in range(200):
            table = [array(index_typecode(n),
                           [rng.randrange(-1, n) for _ in range(n)])
                     for _ in range(n)]
            assert_agrees(table)
            assert table_light_generators(table) == \
                reference_generators(table)
            # A total table is the one-point case of the factored test.
            total = [array(index_typecode(n),
                           [rng.randrange(n) for _ in range(n)])
                     for _ in range(n)]
            failing += assert_algebra_agrees(DenseTable(total)) is not None
    assert failing > 500


def i3_products():
    s = symmetric_inverse_monoid(range(3))
    table = {(a, b): mul(s, a, b) for a in s.elements for b in s.elements}
    star = {a: star_of(s, a) for a in s.elements}
    return s.elements, table, star


def test_corrupted_i3_reports_equal_the_reference():
    elements, table, star = i3_products()
    assert len(elements) == 34
    rng = random.Random(8)
    failing = set()
    for _ in range(300):
        products = dict(table)
        for _ in range(rng.randint(1, 3)):
            key = (rng.choice(elements), rng.choice(elements))
            if rng.random() < 0.15:
                products.pop(key, None)
            else:
                products[key] = rng.choice(
                    [e for e in elements if e != products.get(key)])
        s = semigroup_from_products(elements, products, star, name="I3")
        report = validate_inverse_semigroup(s)
        reference = DictSemigroup("I3", elements, products, star)
        expected = reference_validator(reference)
        if expected.first and expected.first.startswith("associativity"):
            # One violation, at a triple that fails in the label cube.
            a, b, c = (elements[i] for i in
                       DenseTable(s.table).associativity_counterexample())
            assert report.violations == \
                [f"associativity fails on ({a}, {b}, {c})"]
            assert reference.mul(reference.mul(a, b), c) != \
                reference.mul(a, reference.mul(b, c))
        else:
            assert report.violations == expected.violations
            assert report.summary() == expected.summary()
        failing.add("missing entry" if "missing entry" in report.first
                    else report.first.split(" on ")[0])
    assert failing == {"missing entry", "associativity fails"}


@pytest.mark.parametrize("kind", ["identity", "none"])
def test_pseudo_inverse_reports_equal_the_reference(kind):
    elements, table, star = i3_products()
    if kind == "identity":
        star = {a: a for a in elements}
    else:
        star = dict(list(star.items())[:-2])
    s = semigroup_from_products(elements, table, star, name="I3")
    reference = DictSemigroup("I3", elements, table, star)
    assert not reference_validator(reference).ok
    violations = validate_inverse_semigroup(s).violations
    assert violations and set(violations) <= real_violations(reference)


@pytest.mark.parametrize("n, code", [(0, "h"), (1, "h"), (32767, "h"),
                                     (32768, "l"), (2 ** 31 - 1, "l"),
                                     (2 ** 31, "q"), (2 ** 40, "q")])
def test_index_typecode_holds_every_index(n, code):
    assert index_typecode(n) == code
    # -1 (a zero product) and the largest index fit without overflow.
    assert list(array(code, [-1, max(n - 1, 0)])) == [-1, max(n - 1, 0)]
