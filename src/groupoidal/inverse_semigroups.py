"""Finite inverse semigroups as first-class objects: exhaustive axiom
validation, the natural partial order, idempotents, and the inverse
semigroup of bisections of a finite groupoid."""

from __future__ import annotations

from functools import partial

from .groupoid_core import enumerate_bisections, DEFAULT_BISECTION_BOUND
from .scalars import DenseTable, generating_set
from .validation import ValidationReport


class InverseSemigroup:
    """What the inverse semigroups here share: star_table[i], the index of
    the pseudo-inverse of element i (-1 where the input left it out), one
    entry per element in the canonical order.  label(i) names element i,
    in reports and messages only.

    A subclass gives row(i), whose entry j is the index of the product of
    elements i and j (-1 where the input left it out), down_sets(), the
    natural order's down-set of each element index (see natural_order),
    unit, the index of the two-sided identity or None, and generators, a
    list of indices that generates the semigroup: products are read by
    rows only."""

    def __init__(self, star_table, name):
        self.name = name
        self.star_table = star_table

    @property
    def order(self):
        return len(self.star_table)

    def __repr__(self):
        return f"{type(self).__name__}({self.name}, order={self.order})"


class FiniteInverseSemigroup(InverseSemigroup):
    """An inverse semigroup given by index tables over its element list,
    the labels of the input: table[i][j] is the index of the product of
    elements i and j, and -1 marks an entry the input left out."""

    def __init__(self, elements, table, star_table, name="semigroup"):
        super().__init__(star_table, name)
        self.elements = list(elements)
        self._index = {e: i for i, e in enumerate(self.elements)}
        if len(self._index) != len(self.elements):
            raise ValueError("duplicate semigroup elements")
        self.table = table
        n = len(self.elements)
        self.unit = next((e for e in range(n) if all(
            table[e][x] == x == table[x][e] for x in range(n))), None)

    def index(self, s):
        return self._index[s]

    def label(self, i):
        return self.elements[i]

    def row(self, i):
        return self.table[i]

    @property
    def generators(self):
        """Every element.  CovarianceModule.generator_basis reads the rows
        (g, x) of L with g a generator, by a lemma that needs X_{st}
        inside X_s.  That holds for bisections, but not for a partial
        group action: on z2_empty_domains, g alone generates Z2, yet X_g
        is empty, so no row (g, x) exists.  So every row of L is read."""
        return range(self.order)

    def down_sets(self):
        """For each element t, the distinct indices of t e over the
        idempotents e, in increasing order, read off the table."""
        idem = _idempotent_indices(self.table)
        return [sorted({row[e] for e in idem}) for row in self.table]


def _idempotent_indices(table):
    return [i for i, row in enumerate(table) if row[i] == i]


def check_entries(report, rows, label, noun):
    """Add a violation for each entry -1 of the index rows of a Cayley
    table, the elements named by label."""
    for i, row in enumerate(rows):
        if -1 in row:
            for j, k in enumerate(row):
                if k < 0:
                    report.add(f"{noun} missing entry ({label(i)}, {label(j)})")


def check_associativity(report, rows, label):
    """Light's test on the one-point view of a total Cayley table (see
    BasedAlgebra.associativity_counterexample): add the triple where it
    fails, if any."""
    counter = DenseTable(rows).associativity_counterexample()
    if counter is not None:
        a, b, c = map(label, counter)
        report.add(f"associativity fails on ({a}, {b}, {c})")


def validate_inverse_semigroup(s):
    """Check associativity (check_associativity), that the star table
    names an inverse of each element (a a* a = a and a* a a* = a*), and
    that the idempotents commute, all on the index tables.

    A semigroup in which every element has an inverse and the idempotents
    commute is an inverse semigroup (Howie, Fundamentals of Semigroup
    Theory, Thm 5.1.1), so its inverses are unique and a* is the inverse
    of a."""
    report = ValidationReport(f"inverse semigroup {s.name}")
    label, star = s.label, s.star_table
    table = list(map(s.row, range(s.order)))
    check_entries(report, table, label, "multiplication")
    for i, t in enumerate(star):
        if t < 0:
            report.add(f"star missing or not an element for {label(i)}")
    if not report.ok:
        return report
    check_associativity(report, table, label)
    if not report.ok:
        return report

    for i, t in enumerate(star):
        if table[table[i][t]][i] != i or table[table[t][i]][t] != t:
            report.add(f"star table names {label(t)} for {label(i)}, "
                       f"which is not an inverse of it")
    if not report.ok:
        return report

    idem = _idempotent_indices(table)
    for e in idem:
        for f in idem:
            if table[e][f] != table[f][e]:
                report.add(f"idempotents {label(e)} and {label(f)} "
                           f"do not commute")
    return report


def natural_order(s):
    """The natural partial order of s as down-sets: for each element index
    t, the indices of the s <= t, each once.  s must be validated
    (validate_inverse_semigroup), or built from a validated groupoid
    (bisection_semigroup).

    In an inverse semigroup s <= t iff s = t s* s, so s <= t iff s = t e
    for an idempotent e: take e = s* s, and conversely, as idempotents
    commute, (t e)* (t e) = e t* t e = t* t e and so t (t e)* (t e) = t e.
    The down-set of t is therefore {t e : e idempotent}, which
    s.down_sets() gives.  In a partial action of s, s <= t gives
    X_s <= X_t.  No command reads it: over all bisections, where s <= t
    iff s is a subset of t, skew_rings.build_ideal reads I's classes as
    germs."""
    return s.down_sets()


class BisectionSemigroup(InverseSemigroup):
    """The inverse semigroup of all bisections of a validated groupoid,
    with no product table, on the ascending bitmasks of
    enumerate_bisections.  masks[i] is the bitmask of element i, _arrows[i]
    its arrow indices by increasing range, and label(i), built when read,
    the set of their labels; _range and _source are each arrow's range and
    source as positions of the units in canonical order.

    Products are computed on the bitmasks, only where they are read.  BC
    is the union, over the arrows c of C, of bc for the one arrow b of B
    with s(b) = r(c), if any; so with B fixed it is an OR of one table
    entry per arrow of C, and likewise with C fixed.  The search for the
    generating set generators computes the products t g, which it does
    not keep.  A row is computed when first read: theorem5 reads the rows
    g t of the generators with an arrow, for L's generator rows, so it
    computes at most 2 |generators| |S| products in all."""

    def __init__(self, g, masks, name):
        self.groupoid = g
        unit_id = {u: k for k, u in enumerate(sorted(g.units))}
        self._range = list(map(unit_id.__getitem__, g.range))
        self._source = list(map(unit_id.__getitem__, g.source))
        self.masks = masks
        by_range = sorted(range(g.n_arrows), key=self._range.__getitem__)
        self._arrows = [[a for a in by_range if mask >> a & 1]
                        for mask in masks]
        self._position = {mask: i for i, mask in enumerate(masks)}
        inverse = [1 << b for b in g.inverse]
        super().__init__([self._position[sum(map(inverse.__getitem__, arrows))]
                          for arrows in self._arrows], name)
        self.unit = self._position[sum(1 << u for u in g.units)]
        self._rows = {}
        self.generators = self._generating_set()

    def label(self, i):
        return frozenset(map(self.groupoid.arrows.__getitem__,
                             self._arrows[i]))

    def _products(self, lut, factors):
        """The indices of the products read through lut, one per element
        index in factors: the OR of lut over the arrows of the factor."""
        position, arrows = self._position, self._arrows
        out = []
        for t in factors:
            mask = 0
            for a in arrows[t]:
                mask |= lut[a]
            k = position.get(mask)
            if k is None:
                raise ValueError("product of bisections is not a bisection; "
                                 "the groupoid is invalid")
            out.append(k)
        return out

    def _left_lut(self, i):
        """Arrow c -> the bit of bc for the arrow b of element i with
        s(b) = r(c), or 0: element i times any C is an OR over C."""
        rows, place = self.groupoid.rows, self.groupoid.place
        by_source = {self._source[b]: rows[b] for b in self._arrows[i]}
        return [1 << by_source[r][place[c]] if r in by_source else 0
                for c, r in enumerate(self._range)]

    def _right_lut(self, j):
        """Arrow b -> the bit of bc for the arrow c of element j with
        r(c) = s(b), or 0: any B times element j is an OR over B."""
        rows, place = self.groupoid.rows, self.groupoid.place
        by_range = {self._range[c]: place[c] for c in self._arrows[j]}
        return [1 << rows[b][by_range[s]] if s in by_range else 0
                for b, s in enumerate(self._source)]

    def _generating_set(self):
        """A generating set, found with no table (see generating_set):
        candidates are taken by decreasing size, ties by index, as a
        product BC has at most min(|B|, |C|) arrows.  As S is
        associative, the left-normed products of the generators are all
        their products.  Each member t is multiplied by each generator g
        once, as t g."""
        n = self.order

        def times(g):
            return partial(self._products, self._right_lut(g))

        return generating_set(
            n, sorted(range(n), key=lambda i: -len(self._arrows[i])), times)

    def row(self, i):
        """The products of element i with every element, computed on the
        first read and kept."""
        row = self._rows.get(i)
        if row is None:
            row = self._rows[i] = self._products(self._left_lut(i),
                                                 range(self.order))
        return row

    def down_sets(self):
        """For each bisection t, the indices of t e over the idempotents e,
        with no product.  The idempotents are the sets of units, and t e
        keeps the arrows of t whose source lies in e, so the down-set of t
        is every subset of t: its submasks."""
        position = self._position
        out = []
        for mask in self.masks:
            below, sub = [], mask
            while True:
                below.append(position[sub])
                if not sub:
                    break
                sub = (sub - 1) & mask
            out.append(below)
        return out


def bisection_semigroup(g, bound=DEFAULT_BISECTION_BOUND):
    """The inverse semigroup of all bisections of a finite groupoid, with
    the set product and setwise inverse.  The empty bisection is its zero;
    the unit space is its unit.  g must satisfy the groupoid axioms.

    For such g the result is an inverse semigroup (Paterson, Groupoids,
    Inverse Semigroups, and their Operator Algebras, 1999), so
    validate_inverse_semigroup would pass and is not run.  BC is a
    bisection: the range r(bc) = r(b) of an arrow of BC fixes b, as r is
    injective on B, and then c, as r(c) = s(b) and r is injective on C;
    likewise its source fixes it.  The product is associative, as
    (bc)d = b(cd) in g, with s(bc) = s(c) and r(cd) = r(c).
    B B* = r(B), a set of units, so B B* B = B and B* B B* = B*.  In an
    idempotent E = EE each e is some e'f with r(e') = r(e), so e' = e;
    then f = s(e), and s(f) = s(e) gives f = e: the idempotents are the
    subsets of the unit space, where UV = U & V = VU, so they commute.

    No product table is built: see BisectionSemigroup."""
    return BisectionSemigroup(g, enumerate_bisections(g, bound),
                              name=f"{g.name}^a")
