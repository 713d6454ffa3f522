"""Finite inverse semigroups as first-class objects: exhaustive axiom
validation, the natural partial order, idempotent semilattices, the
symmetric inverse monoid I(X), the Wagner-Preston embedding, and the
inverse semigroup of bisections of a finite groupoid."""

from __future__ import annotations

from itertools import combinations, permutations

from .groupoid_core import enumerate_bisections, DEFAULT_BISECTION_BOUND
from .scalars import index_row, table_associativity_counterexample
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

    def le(self, s, t):
        return (s, t) in self.pairs

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

    @classmethod
    def from_products(cls, elements, products, star, name="semigroup"):
        """Build the index tables from a dict of products keyed by element
        pairs and a dict of pseudo-inverses.  An absent key becomes -1; a
        value that is not an element is refused."""
        elements = list(elements)
        index = {e: i for i, e in enumerate(elements)}

        def at(value, where):
            if value is None:
                return -1
            if value not in index:
                raise ValueError(f"{where} is {value}, not an element")
            return index[value]

        n = len(elements)
        table = [index_row(n, [at(products.get((a, b)), f"product of ({a}, {b})")
                               for b in elements])
                 for a in elements]
        star_table = [at(star.get(a), f"star of {a}") for a in elements]
        return cls(elements, table, star_table, name=name)

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

    def idempotents(self):
        return [self.elements[i] for i in _idempotent_indices(self.table)]

    def __repr__(self):
        return f"{type(self).__name__}({self.name}, order={self.order})"


def _idempotent_indices(table):
    return [i for i, row in enumerate(table) if row[i] == i]


def from_group(group):
    """View a finite group as a plain inverse semigroup (star = group
    inverse), sharing the group's tables."""
    return FiniteInverseSemigroup(group.elements, group.table,
                                  group.star_table, name=group.name)


def validate_inverse_semigroup(s):
    """Check associativity (by Light's test, see
    table_associativity_counterexample), existence and uniqueness of
    pseudo-inverses (the star table must name the unique witness), and
    commutativity of the idempotents, all on the index tables."""
    report = ValidationReport(f"inverse semigroup {s.name}")
    elems, table, star = s.elements, s.table, s.star_table
    n = len(elems)
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

    counter = table_associativity_counterexample(table)
    if counter is not None:
        a, b, c = (elems[i] for i in counter)
        report.add(f"associativity fails on ({a}, {b}, {c})")
        return report

    for i, row in enumerate(table):
        witnesses = [t for t in range(n)
                     if table[row[t]][i] == i and table[table[t][i]][t] == t]
        a = elems[i]
        if not witnesses:
            report.add(f"{a} has no pseudo-inverse")
        elif len(witnesses) > 1:
            report.add(f"{a} has {len(witnesses)} pseudo-inverses: "
                       f"{sorted(str(elems[t]) for t in witnesses)}")
        elif witnesses != [star[i]]:
            report.add(f"star table names {elems[star[i]]} for {a}, "
                       f"but the pseudo-inverse is {elems[witnesses[0]]}")
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
    """Compute the natural partial order, verifying that the two defining
    characterizations agree and that the relation is a partial order.

    Runs on the index tables.  A product or pseudo-inverse the tables
    leave out raises KeyError, as mul and star do, at the same lookup."""
    elems, table, star = s.elements, s.table, s.star_table
    n = len(elems)
    above = []
    pairs = set()
    for i, a in enumerate(elems):
        sa = star[i]
        if sa < 0:
            raise KeyError(a)
        e = table[sa][i]
        if e < 0:
            raise KeyError((elems[sa], a))
        f = table[i][sa]
        row_f = table[f]
        mine = set()
        for j in range(n):
            # a <= b by either characterization: a = b (a* a) = (a a*) b.
            left = table[j][e]
            if left < 0:
                raise KeyError((elems[j], elems[e]))
            if f < 0:
                raise KeyError((a, elems[sa]))
            right = row_f[j]
            if right < 0:
                raise KeyError((elems[f], elems[j]))
            if (left == i) != (right == i):
                raise ValueError(
                    f"order characterizations disagree on ({a}, {elems[j]}); "
                    "not an inverse semigroup")
            if left == i:
                mine.add(j)
                pairs.add((a, elems[j]))
        above.append(mine)
    for i, a in enumerate(elems):
        if i not in above[i]:
            raise ValueError(f"natural order is not reflexive at {a}")
    position = {a: i for i, a in enumerate(elems)}
    # The pairs are visited in the order of the set of labels, as the
    # relation is checked pair by pair.
    for (a, b) in pairs:
        i, j = position[a], position[b]
        if i != j and i in above[j]:
            raise ValueError(f"natural order is not antisymmetric on ({a}, {b})")
        if not above[j] <= above[i]:
            c = elems[min(above[j] - above[i])]
            raise ValueError(f"natural order is not transitive on ({a}, {b}, {c})")
    return NaturalOrder(s, pairs)


def idempotents(s):
    """The idempotent semilattice, in canonical element order.  The meet
    of two idempotents is their product."""
    return s.idempotents()


class PartialBijection:
    """A bijection between two subsets of a fixed finite set, the element
    type of the symmetric inverse monoid I(X)."""

    __slots__ = ("mapping", "_key")

    def __init__(self, mapping):
        mapping = dict(mapping)
        if len(set(mapping.values())) != len(mapping):
            raise ValueError("mapping is not injective")
        self.mapping = mapping
        self._key = frozenset(mapping.items())

    @classmethod
    def identity(cls, points):
        return cls({x: x for x in points})

    @property
    def domain(self):
        return frozenset(self.mapping)

    @property
    def image(self):
        return frozenset(self.mapping.values())

    def __call__(self, x):
        return self.mapping[x]

    def compose(self, other):
        """self after other, defined where the composite makes sense."""
        return PartialBijection({x: self.mapping[y]
                                 for x, y in other.mapping.items()
                                 if y in self.mapping})

    def inverse(self):
        return PartialBijection({y: x for x, y in self.mapping.items()})

    def __eq__(self, other):
        return isinstance(other, PartialBijection) and self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        pairs = ",".join(f"{x}>{y}" for x, y in sorted(self.mapping.items(),
                                                       key=lambda xy: str(xy[0])))
        return f"[{pairs}]"


def symmetric_inverse_monoid(points, name=None):
    """The inverse semigroup I(X) of all partial bijections of a finite
    set, under composition-where-defined and inversion."""
    points = list(points)
    order = {x: i for i, x in enumerate(points)}
    elements = []
    for k in range(len(points) + 1):
        for domain in combinations(points, k):
            for image in permutations(points, k):
                elements.append(PartialBijection(dict(zip(domain, image))))
    elements.sort(key=lambda p: (len(p.mapping),
                                 sorted((order[x], order[y])
                                        for x, y in p.mapping.items())))
    table = {(f, g): f.compose(g) for f in elements for g in elements}
    star = {f: f.inverse() for f in elements}
    return FiniteInverseSemigroup.from_products(
        elements, table, star, name=name or f"I({len(points)} points)")


class WagnerPrestonEmbedding:
    """s -> the partial bijection x -> sx from s*sS onto ss*S, together
    with an exhaustively computed certificate (multiplicative, preserves
    star, injective)."""

    def __init__(self, semigroup, images, certificate):
        self.semigroup = semigroup
        self.images = images
        self.certificate = certificate

    @property
    def ok(self):
        return self.certificate.ok


def wagner_preston_embed(s):
    """Realize an inverse semigroup inside I(S)."""
    images = {}
    for a in s.elements:
        e = s.mul(s.star(a), a)
        domain = [x for x in s.elements if s.mul(e, x) == x]
        images[a] = PartialBijection({x: s.mul(a, x) for x in domain})

    cert = ValidationReport(f"Wagner-Preston for {s.name}")
    for a in s.elements:
        for b in s.elements:
            if images[a].compose(images[b]) != images[s.mul(a, b)]:
                cert.add(f"not multiplicative on ({a}, {b})")
    for a in s.elements:
        if images[a].inverse() != images[s.star(a)]:
            cert.add(f"star not preserved on {a}")
    seen = {}
    for a in s.elements:
        if images[a] in seen:
            cert.add(f"not injective: {seen[images[a]]} and {a} collide")
        seen[images[a]] = a
    return WagnerPrestonEmbedding(s, images, cert)


def bisection_semigroup(g, bound=DEFAULT_BISECTION_BOUND):
    """The inverse semigroup of all bisections of a finite groupoid, with
    the set product and setwise inverse.  The empty bisection is its zero;
    the unit space is its unit.  g must satisfy the groupoid axioms.

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
