"""Finite inverse semigroups as first-class objects: exhaustive axiom
validation, the natural partial order, idempotents, and the inverse
semigroup of bisections of a finite groupoid."""

from __future__ import annotations

from .groupoid_core import enumerate_bisections, DEFAULT_BISECTION_BOUND
from .scalars import DenseTable, index_row
from .validation import ValidationReport


class NaturalOrder:
    """The natural partial order s <= t  iff  s = t s* s (equivalently
    s = s s* t) of an inverse semigroup, as a set of pairs."""

    def __init__(self, semigroup, pairs):
        self.semigroup = semigroup
        self.pairs = frozenset(pairs)
        # The down-set of each element, in element order.
        position = {s: i for i, s in enumerate(semigroup.elements)}
        self._below = {t: [] for t in semigroup.elements}
        for s, t in sorted(self.pairs, key=lambda pair: position[pair[0]]):
            self._below[t].append(s)

    def below(self, t):
        return list(self._below[t])

    def strictly_below(self, t):
        return [s for s in self.below(t) if s != t]


class FiniteInverseSemigroup:
    """An inverse semigroup given by index tables over its element list,
    which fixes the canonical order: table[i][j] is the index of the
    product of elements i and j, star_table[i] the index of the
    pseudo-inverse of element i, and -1 marks an entry the input left out.
    Elements serve only as labels."""

    def __init__(self, elements, table, star_table, name="semigroup"):
        self.name = name
        self.elements = list(elements)
        self._index = {e: i for i, e in enumerate(self.elements)}
        if len(self._index) != len(self.elements):
            raise ValueError("duplicate semigroup elements")
        self.table = table
        self.star_table = star_table
        self._unit_cached = False
        self._unit = None
        self._natural_order = None

    @property
    def order(self):
        return len(self.elements)

    def mul(self, s, t):
        k = self.table[self._index[s]][self._index[t]]
        if k < 0:
            raise KeyError((s, t))
        return self.elements[k]

    def star(self, s):
        k = self.star_table[self._index[s]]
        if k < 0:
            raise KeyError(s)
        return self.elements[k]

    def index(self, s):
        return self._index[s]

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

    def natural_order(self):
        """The natural partial order, computed on first use and kept."""
        if self._natural_order is None:
            self._natural_order = natural_order(self)
        return self._natural_order

    def __repr__(self):
        return f"{type(self).__name__}({self.name}, order={self.order})"


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
    elems, table, star = s.elements, s.table, s.star_table
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
    """The natural partial order of s, which must be validated
    (validate_inverse_semigroup), or built from a validated groupoid
    (bisection_semigroup).

    In an inverse semigroup s <= t iff s = t s* s, so s <= t iff s = t e
    for an idempotent e: take e = s* s, and conversely, as idempotents
    commute, (t e)* (t e) = e t* t e = t* t e and so t (t e)* (t e) = t e.
    The down-set of t is therefore {t e : e idempotent}, read off the
    table in |S|·|E| lookups."""
    elems, table = s.elements, s.table
    idem = _idempotent_indices(table)
    return NaturalOrder(s, {(elems[row[e]], elems[t])
                            for t, row in enumerate(table) for e in idem})


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

    Products are computed on arrow bitmasks: BC is the union, over the
    arrows c of C, of bc for the one arrow b of B with s(b) = r(c), if
    any.  The frozensets of arrows serve only as element labels."""
    bisections = enumerate_bisections(g, bound)
    idx = g.index
    masks = [sum(1 << idx(a) for a in bis) for bis in bisections]
    position = {mask: i for i, mask in enumerate(masks)}
    # For each bisection: its arrows keyed by source, and its arrows with
    # their ranges.
    by_source = [{g.source(a): idx(a) for a in bis} for bis in bisections]
    by_range = [[(g.range(a), idx(a)) for a in bis] for bis in bisections]
    composite = {(idx(b), idx(c)): 1 << idx(d)
                 for (b, c), d in g.compose_table.items()}
    table = []
    for sources in by_source:
        row = []
        for arrows in by_range:
            mask = 0
            for r, c in arrows:
                b = sources.get(r)
                if b is not None:
                    mask |= composite[(b, c)]
            k = position.get(mask)
            if k is None:
                raise ValueError("product of bisections is not a bisection; "
                                 "the groupoid is invalid")
            row.append(k)
        table.append(index_row(len(bisections), row))
    star_table = [position[sum(1 << idx(g.inverse(a)) for a in bis)]
                  for bis in bisections]
    return FiniteInverseSemigroup(bisections, table, star_table,
                                  name=f"{g.name}^a")
