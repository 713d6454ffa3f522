"""Light's associativity test against the full cube it replaced.

`reference_cube` is the n^3 cube that decided associativity before Light's
test, kept verbatim over list rows; `reference_validator` is the inverse
semigroup validator that ran on product dicts, kept verbatim.
`reference_generators` states the generator rule of `light_generators`
with the closure recomputed in full, and `smallest_missing_generators` the
rule it replaced, which bounds the size of G.  The fast
paths must give the same verdict, the same first failing triple and the
same report text, on every catalog table and on seeded corruptions.
"""

import random
from array import array
from collections import Counter

import pytest
from dense_oracle import dense_table
from families import pair_groupoid_spec, parse

from groupoidal import catalog
from groupoidal.inverse_semigroups import (FiniteInverseSemigroup,
                                           bisection_semigroup,
                                           symmetric_inverse_monoid,
                                           validate_inverse_semigroup)
from groupoidal.isomorphisms import bisection_action
from groupoidal.partial_actions import induce_algebra_action
from groupoidal.scalars import (index_typecode, light_generators,
                                table_associativity_counterexample)
from groupoidal.skew_rings import (CovarianceModule, build_ideal,
                                   build_quotient)
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


def reference_generators(table):
    """Candidates in ascending order of how often they occur as a product,
    ties by index; a candidate inside the closure is skipped, and the
    search stops once the closure is everything.  The closure is
    recomputed in full after each generator."""
    n = len(table)
    counts = Counter(k for row in table for k in row)
    generators, closure = [], set()
    for candidate in sorted(range(n), key=lambda i: (counts[i], i)):
        if len(closure) == n:
            break
        if candidate not in closure:
            generators.append(candidate)
            closure = magma_closure(table, generators)
    return generators


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


def as_lists(table):
    return [list(row) for row in table]


def assert_agrees(table):
    expected = reference_cube(as_lists(table))
    assert table_associativity_counterexample(table) == expected
    return expected


def bisection_module(g, ring):
    semigroup = bisection_semigroup(g)
    alg = induce_algebra_action(bisection_action(g, semigroup), ring)
    return semigroup, CovarianceModule(alg)


def groupoid_tables(name, g, ring):
    """(name, table) for A_R(G), L, L/I and the bisection semigroup."""
    semigroup, module = bisection_module(g, ring)
    quotient = build_quotient(module, build_ideal(module))
    return [(f"{name} A", SteinbergAlgebra(g, ring).table),
            (f"{name} L", dense_table(module)),
            (f"{name} L/I", quotient.table),
            (f"{name} S", semigroup.table)]


def catalog_tables(ring):
    """(name, table) for A_R(G), L, L/I and the bisection semigroup of
    every catalog groupoid, A_R(G) and L of every catalog action, and
    every catalog semigroup."""
    tables = []
    for name in catalog.groupoid_names():
        tables += groupoid_tables(name, catalog.load_groupoid(name), ring)
    for name in catalog.action_names():
        action = catalog.load_action(name)
        g = build_transformation_groupoid(action)
        module = CovarianceModule(induce_algebra_action(action, ring))
        tables += [(f"{name} A", SteinbergAlgebra(g, ring).table),
                   (f"{name} L", dense_table(module))]
    for name in catalog.semigroup_names():
        tables.append((name, catalog.load_semigroup(name).table))
    return tables


def test_catalog_tables_agree_with_the_cube(Q):
    tables = catalog_tables(Q)
    assert len(tables) > 50
    for name, table in tables:
        assert all(isinstance(row, array) for row in table), name
        assert assert_agrees(table) is None, name
        assert light_generators(table) == reference_generators(table), name


def test_generators_generate_and_are_no_more_than_before(Q):
    tables = catalog_tables(Q)
    for n in range(1, 5):
        tables += groupoid_tables(f"pair_groupoid_{n}",
                                  parse(pair_groupoid_spec(n)), Q)
    for name, table in tables:
        generators = light_generators(table)
        assert magma_closure(table, generators) == set(range(len(table))), name
        assert len(generators) <= len(smallest_missing_generators(table)), name


def test_generator_counts_on_the_rung(Q):
    semigroup, module = bisection_module(parse(pair_groupoid_spec(4)), Q)
    assert (semigroup.order, module.dim) == (209, 544)
    # 99 and 46 under smallest_missing_generators.
    assert len(light_generators(dense_table(module))) <= 16
    assert len(light_generators(semigroup.table)) <= 5
    # 33 under smallest_missing_generators.
    i4 = symmetric_inverse_monoid(range(4))
    assert i4.order == 209
    assert len(light_generators(i4.table)) <= 5


def corrupt(table, rng):
    """A copy of the table with 1 to 3 entries changed to another value
    in [-1, n)."""
    n = len(table)
    rows = [row[:] for row in table]
    for _ in range(rng.randint(1, 3)):
        i, j = rng.randrange(n), rng.randrange(n)
        rows[i][j] = rng.choice([v for v in range(-1, n) if v != rows[i][j]])
    return rows


def test_corrupted_l_tables_agree_with_the_cube(Q):
    _, module = bisection_module(catalog.load_groupoid("pair_groupoid_3"), Q)
    assert module.dim == 63
    rng = random.Random(6)
    verdicts = []
    table_l = dense_table(module)
    for trial in range(300):
        table = corrupt(table_l, rng)
        verdicts.append(assert_agrees(table))
        if trial < 20:
            assert light_generators(table) == reference_generators(table)
    # Most corruptions break associativity, at many different triples.
    assert sum(v is not None for v in verdicts) > 250
    assert len(set(verdicts)) > 100


def test_small_random_tables_agree_with_the_cube():
    rng = random.Random(7)
    for n in (1, 2, 3, 4, 5):
        for _ in range(200):
            table = [array(index_typecode(n),
                           [rng.randrange(-1, n) for _ in range(n)])
                     for _ in range(n)]
            assert_agrees(table)
            assert light_generators(table) == reference_generators(table)


def i3_products():
    s = symmetric_inverse_monoid(range(3))
    table = {(a, b): s.mul(a, b) for a in s.elements for b in s.elements}
    star = {a: s.star(a) for a in s.elements}
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
        s = FiniteInverseSemigroup.from_products(elements, products, star,
                                                 name="I3")
        report = validate_inverse_semigroup(s)
        expected = reference_validator(
            DictSemigroup("I3", elements, products, star))
        assert report.violations == expected.violations
        assert report.summary() == expected.summary()
        failing.add("missing entry" if "missing entry" in report.first
                    else report.first.split(" on ")[0])
    assert failing == {"missing entry", "associativity fails"}


@pytest.mark.parametrize("star_of", ["identity", "none"])
def test_pseudo_inverse_reports_equal_the_reference(star_of):
    elements, table, star = i3_products()
    if star_of == "identity":
        star = {a: a for a in elements}
    else:
        star = dict(list(star.items())[:-2])
    s = FiniteInverseSemigroup.from_products(elements, table, star, name="I3")
    expected = reference_validator(DictSemigroup("I3", elements, table, star))
    assert not expected.ok
    assert validate_inverse_semigroup(s).violations == expected.violations


@pytest.mark.parametrize("n, code", [(0, "h"), (1, "h"), (32767, "h"),
                                     (32768, "l"), (2 ** 31 - 1, "l"),
                                     (2 ** 31, "q"), (2 ** 40, "q")])
def test_index_typecode_holds_every_index(n, code):
    assert index_typecode(n) == code
    # -1 (a zero product) and the largest index fit without overflow.
    assert list(array(code, [-1, max(n - 1, 0)])) == [-1, max(n - 1, 0)]
