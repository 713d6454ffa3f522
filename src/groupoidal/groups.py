"""Finite groups given by explicit Cayley tables."""

from __future__ import annotations

from .validation import ValidationReport


class NaturalOrder:
    """The natural partial order s <= t  iff  s = t s* s (equivalently
    s = s s* t) of a group or an inverse semigroup, as a set of pairs."""

    def __init__(self, semigroup, pairs):
        self.semigroup = semigroup
        self.pairs = frozenset(pairs)

    def le(self, s, t):
        return (s, t) in self.pairs

    def below(self, t):
        return [s for s in self.semigroup.elements if self.le(s, t)]

    def strictly_below(self, t):
        return [s for s in self.below(t) if s != t]


class FiniteGroup:
    """A finite group: an element list (fixing the canonical order) and a
    total multiplication table.  Identity and inverses are derived, so the
    constructor rejects tables that are not groups."""

    def __init__(self, elements, table, name="group"):
        self.name = name
        self.elements = list(elements)
        if len(set(self.elements)) != len(self.elements):
            raise ValueError("duplicate group elements")
        self._table = dict(table)
        report = validate_group_table(self.elements, self._table)
        if not report.ok:
            raise ValueError(f"not a group: {report.first}")
        self.identity = next(
            e for e in self.elements
            if all(self._table[(e, x)] == x == self._table[(x, e)] for x in self.elements))
        self._inv = {}
        for a in self.elements:
            self._inv[a] = next(b for b in self.elements
                                if self._table[(a, b)] == self.identity)
        # Index tables over the element list, as an inverse semigroup has.
        position = {a: i for i, a in enumerate(self.elements)}
        self.table = [[position[self._table[(a, b)]] for b in self.elements]
                      for a in self.elements]
        self.star_table = [position[self._inv[a]] for a in self.elements]

    @property
    def order(self):
        return len(self.elements)

    # .unit / .star / .natural_order and the index tables mirror the
    # inverse-semigroup protocol, so code indexed by "a group or an inverse
    # semigroup" can treat both uniformly.
    @property
    def unit(self):
        return self.identity

    def natural_order(self):
        """The natural partial order of a group, which is equality:
        s = t s* s = t."""
        return NaturalOrder(self, ((a, a) for a in self.elements))

    def mul(self, a, b):
        return self._table[(a, b)]

    def inv(self, a):
        return self._inv[a]

    def star(self, a):
        return self._inv[a]

    def index(self, a):
        return self.elements.index(a)

    def is_subgroup(self, subset):
        subset = set(subset)
        if self.identity not in subset:
            return False
        return all(self.mul(a, b) in subset for a in subset for b in subset) and \
            all(self.inv(a) in subset for a in subset)

    def subgroup(self, subset, name="subgroup"):
        members = [a for a in self.elements if a in set(subset)]
        if not self.is_subgroup(members):
            raise ValueError(f"{sorted(map(str, subset))} is not a subgroup")
        table = {(a, b): self.mul(a, b) for a in members for b in members}
        return FiniteGroup(members, table, name=name)

    def __repr__(self):
        return f"FiniteGroup({self.name}, order={self.order})"

    @classmethod
    def trivial(cls, element="e"):
        return cls([element], {(element, element): element}, name="trivial")

    @classmethod
    def cyclic(cls, n):
        """Cyclic group of order n with elements e, g, g2, ..., g{n-1}."""
        if n < 1:
            raise ValueError("order must be positive")
        names = ["e"] + ["g" if k == 1 else f"g{k}" for k in range(1, n)]
        table = {(names[i], names[j]): names[(i + j) % n]
                 for i in range(n) for j in range(n)}
        return cls(names, table, name=f"Z{n}")


def validate_group_table(elements, table):
    """Exhaustively check that (elements, table) is a finite group."""
    report = ValidationReport("group table")
    elems = list(elements)
    eset = set(elems)
    for a in elems:
        for b in elems:
            c = table.get((a, b))
            if c is None:
                report.add(f"table missing entry ({a}, {b})")
            elif c not in eset:
                report.add(f"table value {c} for ({a}, {b}) is not an element")
    if not report.ok:
        return report
    for a in elems:
        for b in elems:
            for c in elems:
                left = table[(table[(a, b)], c)]
                right = table[(a, table[(b, c)])]
                if left != right:
                    report.add(f"associativity fails on ({a}, {b}, {c})")
                    return report
    identities = [e for e in elems
                  if all(table[(e, x)] == x == table[(x, e)] for x in elems)]
    if len(identities) != 1:
        report.add(f"expected exactly one identity, found {len(identities)}")
        return report
    e = identities[0]
    for a in elems:
        if not any(table[(a, b)] == e and table[(b, a)] == e for b in elems):
            report.add(f"element {a} has no inverse")
    return report
