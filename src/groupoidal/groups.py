"""Finite groups given by explicit Cayley tables, as the inverse semigroups
whose table is total and which have one idempotent, the identity."""

from __future__ import annotations

from .inverse_semigroups import (FiniteInverseSemigroup, check_associativity,
                                 check_entries)
from .scalars import index_row
from .validation import ValidationReport


class FiniteGroup(FiniteInverseSemigroup):
    """A finite group: an element list (fixing the canonical order) and its
    index table, rows[i][j] the index of the product of elements i and j,
    -1 where the input left it out.  Identity and inverses are derived,
    so the constructor rejects tables that are not groups; table_report
    is the passing validate_group_table report."""

    def __init__(self, elements, rows, name="group"):
        report = validate_group_table(elements, rows)
        if not report.ok:
            raise ValueError(f"not a group: {report.first}")
        # The identity is the one idempotent; a* is the b with a b = 1.
        e = next(i for i, row in enumerate(rows) if row[i] == i)
        super().__init__(elements, rows, [row.index(e) for row in rows],
                         name=name)
        self.identity = self.elements[e]
        self.table_report = report

    @classmethod
    def trivial(cls):
        return cls(["e"], [index_row(1, [0])], name="trivial")

    @classmethod
    def cyclic(cls, n):
        """Cyclic group of order n with elements e, g, g2, ..., g{n-1}."""
        if n < 1:
            raise ValueError("order must be positive")
        names = ["e"] + ["g" if k == 1 else f"g{k}" for k in range(1, n)]
        rows = [index_row(n, [(i + j) % n for j in range(n)])
                for i in range(n)]
        return cls(names, rows, name=f"Z{n}")


def validate_group_table(elements, rows):
    """Exhaustively check that (elements, rows) is a finite group, given
    distinct element names and an index table with -1 for a missing
    entry: every entry present, then associativity (check_associativity),
    one two-sided identity, and an inverse for every element."""
    report = ValidationReport("group table")
    elems = list(elements)
    check_entries(report, rows, elems.__getitem__, "table")
    if not report.ok:
        return report
    check_associativity(report, rows, elems.__getitem__)
    if not report.ok:
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
