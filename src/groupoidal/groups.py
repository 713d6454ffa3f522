"""Finite groups given by explicit Cayley tables, as the inverse semigroups
whose table is total and which have one idempotent, the identity."""

from __future__ import annotations

# NaturalOrder is re-exported for callers that import it from here.
from .inverse_semigroups import FiniteInverseSemigroup, NaturalOrder
from .scalars import index_row, table_associativity_counterexample
from .validation import ValidationReport


class FiniteGroup(FiniteInverseSemigroup):
    """A finite group: an element list (fixing the canonical order) and a
    total multiplication table, a dict keyed by element pairs.  Identity
    and inverses are derived, so the constructor rejects tables that are
    not groups; table_report is the passing validate_group_table report."""

    def __init__(self, elements, table, name="group"):
        elements = list(elements)
        if len(set(elements)) != len(elements):
            raise ValueError("duplicate group elements")
        report = validate_group_table(elements, table)
        if not report.ok:
            raise ValueError(f"not a group: {report.first}")
        rows = _index_table(elements, table)
        # The identity is the one idempotent; a* is the b with a b = 1.
        e = next(i for i, row in enumerate(rows) if row[i] == i)
        super().__init__(elements, rows, [row.index(e) for row in rows],
                         name=name)
        self.identity = elements[e]
        self.table_report = report

    inv = FiniteInverseSemigroup.star

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


def _index_table(elements, table):
    """The index table of a complete dict table whose values are elements."""
    index = {a: i for i, a in enumerate(elements)}
    return [index_row(len(elements), [index[table[(a, b)]] for b in elements])
            for a in elements]


def validate_group_table(elements, table):
    """Exhaustively check that (elements, table) is a finite group, given
    distinct element names: every entry present and an element, then, on
    the index table, associativity (by Light's test, see
    table_associativity_counterexample), one two-sided identity, and an
    inverse for every element."""
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
    rows = _index_table(elems, table)
    counter = table_associativity_counterexample(rows)
    if counter is not None:
        a, b, c = (elems[i] for i in counter)
        report.add(f"associativity fails on ({a}, {b}, {c})")
        return report
    n = len(elems)
    identities = [e for e in range(n)
                  if all(rows[e][x] == x == rows[x][e] for x in range(n))]
    if len(identities) != 1:
        report.add(f"expected exactly one identity, found {len(identities)}")
        return report
    e = identities[0]
    for i, row in enumerate(rows):
        if not any(row[j] == e and rows[j][i] == e for j in range(n)):
            report.add(f"element {elems[i]} has no inverse")
    return report
