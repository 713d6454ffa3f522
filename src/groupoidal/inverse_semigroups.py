"""Finite inverse semigroups as first-class objects: exhaustive axiom
validation, the natural partial order, idempotent semilattices, the
symmetric inverse monoid I(X), the Wagner-Preston embedding, and the
inverse semigroup of bisections of a finite groupoid."""

from __future__ import annotations

from itertools import combinations, permutations

from .groupoid_core import (bisection_inverse, bisection_product,
                            enumerate_bisections, DEFAULT_BISECTION_BOUND)
from .validation import ValidationReport


class FiniteInverseSemigroup:
    """An inverse semigroup given by a full multiplication table and a
    pseudo-inverse table.  The element list fixes the canonical order."""

    def __init__(self, elements, table, star, name="semigroup"):
        self.name = name
        self.elements = list(elements)
        if len(set(self.elements)) != len(self.elements):
            raise ValueError("duplicate semigroup elements")
        self._table = dict(table)
        self._star = dict(star)
        self._unit_cached = False
        self._unit = None

    @property
    def order(self):
        return len(self.elements)

    def mul(self, s, t):
        return self._table[(s, t)]

    def star(self, s):
        return self._star[s]

    def index(self, s):
        return self.elements.index(s)

    @property
    def unit(self):
        """The two-sided identity, or None when the semigroup has none."""
        if not self._unit_cached:
            self._unit = next(
                (e for e in self.elements
                 if all(self.mul(e, s) == s == self.mul(s, e)
                        for s in self.elements)), None)
            self._unit_cached = True
        return self._unit

    def idempotents(self):
        return [s for s in self.elements if self.mul(s, s) == s]

    def __repr__(self):
        return f"FiniteInverseSemigroup({self.name}, order={self.order})"


def from_group(group):
    """View a finite group as an inverse semigroup (star = group inverse)."""
    table = {(a, b): group.mul(a, b) for a in group.elements for b in group.elements}
    star = {a: group.inv(a) for a in group.elements}
    return FiniteInverseSemigroup(group.elements, table, star, name=group.name)


def validate_inverse_semigroup(s):
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


class NaturalOrder:
    """The natural partial order s <= t  iff  s = t s* s (equivalently
    s = s s* t)."""

    def __init__(self, semigroup, pairs):
        self.semigroup = semigroup
        self.pairs = frozenset(pairs)

    def le(self, s, t):
        return (s, t) in self.pairs

    def below(self, t):
        return [s for s in self.semigroup.elements if self.le(s, t)]

    def strictly_below(self, t):
        return [s for s in self.below(t) if s != t]


def natural_order(s):
    """Compute the natural partial order, verifying that the two defining
    characterizations agree and that the relation is a partial order."""
    pairs = set()
    for a in s.elements:
        for b in s.elements:
            left = a == s.mul(b, s.mul(s.star(a), a))
            right = a == s.mul(s.mul(a, s.star(a)), b)
            if left != right:
                raise ValueError(
                    f"order characterizations disagree on ({a}, {b}); "
                    "not an inverse semigroup")
            if left:
                pairs.add((a, b))
    for a in s.elements:
        if (a, a) not in pairs:
            raise ValueError(f"natural order is not reflexive at {a}")
    for (a, b) in pairs:
        if a != b and (b, a) in pairs:
            raise ValueError(f"natural order is not antisymmetric on ({a}, {b})")
        for c in s.elements:
            if (b, c) in pairs and (a, c) not in pairs:
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
    return FiniteInverseSemigroup(elements, table, star,
                                  name=name or f"I({len(points)} points)")


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
    the unit space is its unit."""
    bisections = enumerate_bisections(g, bound)
    table = {(b, c): bisection_product(g, b, c)
             for b in bisections for c in bisections}
    star = {b: bisection_inverse(g, b) for b in bisections}
    return FiniteInverseSemigroup(bisections, table, star,
                                  name=f"{g.name}^a")
