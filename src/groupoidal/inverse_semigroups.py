"""Finite inverse semigroups as first-class objects: exhaustive axiom
validation, the natural partial order, idempotents, and the inverse
semigroup of bisections of a finite groupoid."""

from __future__ import annotations

from .groupoid_core import enumerate_bisections, DEFAULT_BISECTION_BOUND
from .scalars import DenseTable
from .validation import ValidationReport


class InverseSemigroup:
    """What the inverse semigroups here share: the element list, which
    fixes the canonical order, star_table[i], the index of the
    pseudo-inverse of element i (-1 where the input left it out).
    Elements serve only as labels.

    A subclass gives product(i, j), the index of the product of elements i
    and j (-1 where the input left it out), row(i), the sequence of
    product(i, j) over j, down_sets(), the natural order's down-set of
    each element index (see natural_order), unit and generators, a list
    of indices that generates the semigroup."""

    def __init__(self, elements, star_table, name):
        self.name = name
        self.elements = list(elements)
        self._index = {e: i for i, e in enumerate(self.elements)}
        if len(self._index) != len(self.elements):
            raise ValueError("duplicate semigroup elements")
        self.star_table = star_table

    @property
    def order(self):
        return len(self.elements)

    def star(self, s):
        k = self.star_table[self._index[s]]
        if k < 0:
            raise KeyError(s)
        return self.elements[k]

    def index(self, s):
        return self._index[s]

    def __repr__(self):
        return f"{type(self).__name__}({self.name}, order={self.order})"


class FiniteInverseSemigroup(InverseSemigroup):
    """An inverse semigroup given by index tables over its element list:
    table[i][j] is the index of the product of elements i and j, and -1
    marks an entry the input left out."""

    def __init__(self, elements, table, star_table, name="semigroup"):
        super().__init__(elements, star_table, name)
        self.table = table
        self._unit_cached = False
        self._unit = None

    def product(self, i, j):
        return self.table[i][j]

    def row(self, i):
        return self.table[i]

    def column(self, j):
        return [row[j] for row in self.table]

    @property
    def generators(self):
        """Every element: the table names no smaller generating set, so a
        check on generator rows reads every row."""
        return range(self.order)

    @property
    def unit(self):
        """The two-sided identity, or None when the semigroup has none."""
        if not self._unit_cached:
            table, n = self.table, self.order
            self._unit = next(
                (self.elements[e] for e in range(n)
                 if all(table[e][x] == x == table[x][e] for x in range(n))),
                None)
            self._unit_cached = True
        return self._unit

    def down_sets(self):
        """For each element t, the distinct indices of t e over the
        idempotents e, in increasing order, read off the table."""
        idem = _idempotent_indices(self.table)
        return [sorted({row[e] for e in idem}) for row in self.table]


def _idempotent_indices(table):
    return [i for i, row in enumerate(table) if row[i] == i]


def validate_inverse_semigroup(s):
    """Check associativity (by Light's test on the table's one-point view,
    see BasedAlgebra.associativity_counterexample), that the star table
    names an inverse of each element (a a* a = a and a* a a* = a*), and
    that the idempotents commute, all on the index tables.

    A semigroup in which every element has an inverse and the idempotents
    commute is an inverse semigroup (Howie, Fundamentals of Semigroup
    Theory, Thm 5.1.1), so its inverses are unique and a* is the inverse
    of a."""
    report = ValidationReport(f"inverse semigroup {s.name}")
    elems, star = s.elements, s.star_table
    table = list(map(s.row, range(s.order)))
    for i, row in enumerate(table):
        if -1 in row:
            for j, k in enumerate(row):
                if k < 0:
                    report.add(f"multiplication missing entry "
                               f"({elems[i]}, {elems[j]})")
    for i, t in enumerate(star):
        if t < 0:
            report.add(f"star missing or not an element for {elems[i]}")
    if not report.ok:
        return report

    counter = DenseTable(table).associativity_counterexample()
    if counter is not None:
        a, b, c = (elems[i] for i in counter)
        report.add(f"associativity fails on ({a}, {b}, {c})")
        return report

    for i, t in enumerate(star):
        if table[table[i][t]][i] != i or table[table[t][i]][t] != t:
            report.add(f"star table names {elems[t]} for {elems[i]}, "
                       f"which is not an inverse of it")
    if not report.ok:
        return report

    idem = _idempotent_indices(table)
    for e in idem:
        for f in idem:
            if table[e][f] != table[f][e]:
                report.add(f"idempotents {elems[e]} and {elems[f]} "
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
    X_s <= X_t, which skew_rings.ideal_generators derives from s = t e
    and relies on."""
    return s.down_sets()


class BisectionSemigroup(InverseSemigroup):
    """The inverse semigroup of all bisections of a validated groupoid,
    with no product table.  Its elements are the bisections as frozensets
    of arrows, in ascending bitmask order over the canonical arrow order,
    and masks[i] is the bitmask of element i.

    A product is computed per entry on the bitmasks, only where it is
    read.  BC is the union, over the arrows c of C, of bc for the one
    arrow b of B with s(b) = r(c), if any; so with B fixed it is an OR of
    one table entry per arrow of C, and likewise with C fixed.  The
    generating set generators and its rows g t and columns t g are
    computed at construction, 2 |generators| |S| products in all (the
    search for the generators computes the columns); any other row is
    computed when read."""

    def __init__(self, g, bisections, name):
        idx = g.index
        unit_id = {u: k for k, u in enumerate(g.sort_arrows(g.units))}
        self._range = [unit_id[g.range(a)] for a in g.arrows]
        self._source = [unit_id[g.source(a)] for a in g.arrows]
        self._composites = {(idx(b), idx(c)): 1 << idx(d)
                            for (b, c), d in g.compose_table.items()}
        self._arrows = [sorted(map(idx, bis)) for bis in bisections]
        self.masks = [sum(1 << a for a in arrows) for arrows in self._arrows]
        self._position = {mask: i for i, mask in enumerate(self.masks)}
        inverse = [1 << idx(g.inverse(a)) for a in g.arrows]
        super().__init__(bisections,
                         [self._position[sum(map(inverse.__getitem__, arrows))]
                          for arrows in self._arrows], name)
        self.unit = self.elements[
            self._position[sum(1 << idx(u) for u in g.units)]]
        self._rows, self._columns = {}, {}
        self.generators = self._generating_set()
        for c in self.generators:
            self.row(c)

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
        composite = self._composites
        by_source = {self._source[b]: b for b in self._arrows[i]}
        return [composite[by_source[r], c] if r in by_source else 0
                for c, r in enumerate(self._range)]

    def _right_lut(self, j):
        """Arrow b -> the bit of bc for the arrow c of element j with
        r(c) = s(b), or 0: any B times element j is an OR over B."""
        composite = self._composites
        by_range = {self._range[c]: c for c in self._arrows[j]}
        return [composite[b, by_range[s]] if s in by_range else 0
                for b, s in enumerate(self._source)]

    def _generating_set(self):
        """A generating set, found with no table: candidates are taken by
        decreasing size, ties by index, as a product BC has at most
        min(|B|, |C|) arrows, and a candidate already in the closure is
        skipped.  The closure of the generators is their closure under
        right multiplication by them, as a product g1 g2 ... gk is
        ((g1 g2) ...) gk.  Each member is multiplied by each generator
        once, so the products found are the columns t g."""
        n = self.order
        candidates = sorted(range(n), key=lambda i: -len(self._arrows[i]))
        inside = bytearray(n)
        members, generators, luts = [], [], []

        def close(k, factors):
            """The factors times generator k, kept in its column; returns
            the products not inside before."""
            column = self._columns[generators[k]]
            new = []
            for t, p in zip(factors, self._products(luts[k], factors)):
                column[t] = p
                if not inside[p]:
                    inside[p] = 1
                    new.append(p)
            return new

        for c in candidates:
            if len(members) == n:
                break
            if inside[c]:
                continue
            generators.append(c)
            luts.append(self._right_lut(c))
            self._columns[c] = [-1] * n
            inside[c] = 1
            # The members so far times the new generator, then each new
            # member times every generator, until none is new.
            fresh = [c] + close(len(generators) - 1, members)
            while fresh:
                members += fresh
                fresh = [p for k in range(len(generators))
                         for p in close(k, fresh)]
        return generators

    def product(self, i, j):
        row = self._rows.get(i)
        if row is not None:
            return row[j]
        column = self._columns.get(j)
        if column is not None:
            return column[i]
        return self.row(i)[j]

    def row(self, i):
        """The products of element i with every element, computed on the
        first read and kept."""
        row = self._rows.get(i)
        if row is None:
            row = self._rows[i] = self._products(self._left_lut(i),
                                                 range(self.order))
        return row

    def column(self, j):
        """The products of every element with element j, computed on the
        first read and kept."""
        column = self._columns.get(j)
        if column is None:
            column = self._columns[j] = self._products(self._right_lut(j),
                                                       range(self.order))
        return column

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
