"""The dense product table of L, built from the basis labels as
`CovarianceModule` built it before L was kept factored, and the checks
that ran on it: Light's test on the whole table, the row-major
homomorphism scan, and the quotient table and two-sidedness scan read off
dense rows.  The factored product must agree with these.

`mul_basis` and `mul_vectors` multiply vectors of any of the algebras
through its dense table, so that references in the tests do not read the
product they check.
"""

import weakref

from groupoidal.scalars import (index_row, table_associativity_counterexample,
                                table_mul_basis, table_mul_vectors)
from groupoidal.skew_rings import CovarianceModule


def dense_table(module):
    """table[i][j] is the index k with e_i e_j = e_k, or -1 when the
    product is zero: (s, x)(t, y) = (st, x) when y = theta_{s*}(x).  A
    product the index or the basis leaves out raises KeyError."""
    alg = module.algebra_action
    index = alg.index
    at_point = {}
    for j, (t, y) in enumerate(module.basis_labels):
        at_point.setdefault(y, []).append((j, t))
    theta = alg.action.theta
    blank = index_row(module.dim, [-1]) * module.dim
    table = []
    for s, x in module.basis_labels:
        row = blank[:]
        for j, t in at_point.get(theta(index.star(s), x), ()):
            row[j] = module.label_index(index.mul(s, t), x)
        table.append(row)
    return table


def table_of(algebra):
    """The dense table of any algebra: built for L, stored for the rest."""
    if isinstance(algebra, CovarianceModule):
        return dense_table(algebra)
    return algebra.table


def dense_associativity(module):
    """The first failing basis triple of L, or None, by Light's test on
    the dense table."""
    return table_associativity_counterexample(dense_table(module))


def dense_homomorphism(m):
    """The homomorphism certificate (flag, detail) of an AlgebraMap by the
    row-major scan over the dense tables of its domain and codomain."""
    targets = m.targets
    image = targets + [-1]
    dom, cod = table_of(m.domain), table_of(m.codomain)
    for i, row in enumerate(dom):
        cod_row = cod[targets[i]]
        lhs = [image[k] for k in row]
        rhs = [cod_row[t] for t in targets]
        if lhs != rhs:
            j = next(j for j, (a, b) in enumerate(zip(lhs, rhs)) if a != b)
            return (False, f"fails on basis pair ({m.domain.basis_labels[i]}, "
                           f"{m.domain.basis_labels[j]})")
    return (True, None)


def dense_quotient_table(quotient):
    """The table of L/I read off the dense table of L."""
    table, cls = dense_table(quotient.module), quotient._class
    reps = quotient.representatives
    return [[cls[table[a][b]] for b in reps] for a in reps]


def reference_generator_scan(quotient, table=None):
    """The first generator e_a - e_b and basis element e_k whose product
    leaves the ideal, scanning the dense table of L."""
    if table is None:
        table = dense_table(quotient.module)
    cls = quotient._class
    for a, b in quotient.ideal.edges:
        row_a, row_b = table[a], table[b]
        for k, row_k in enumerate(table):
            if cls[row_k[a]] != cls[row_k[b]]:
                return f"e_{k} * (e_{a} - e_{b}) leaves the ideal"
            if cls[row_a[k]] != cls[row_b[k]]:
                return f"(e_{a} - e_{b}) * e_{k} leaves the ideal"
    return None


_TABLES = weakref.WeakKeyDictionary()


def _table(algebra):
    """table_of(algebra), built once per algebra."""
    if algebra not in _TABLES:
        _TABLES[algebra] = table_of(algebra)
    return _TABLES[algebra]


def mul_basis(algebra, i, j):
    return table_mul_basis(_table(algebra), algebra.ring, i, j)


def mul_vectors(algebra, u, v):
    return table_mul_vectors(_table(algebra), algebra.ring, u, v)
