"""The convolution algebra of finitely supported functions on a finite
groupoid, its diagonal subalgebra, and the canonical decomposition of a
function into disjoint bisection indicators."""

from __future__ import annotations

from .groupoid_core import (composable_iff_matched, composition_table,
                            is_bisection)
from .scalars import (TableAlgebra, points_at,
                      table_associativity_counterexample, table_mul_basis,
                      table_mul_vectors, zero_vector)


class GroupoidFunction:
    """A finitely supported scalar-valued function on the arrows of a
    finite groupoid.  Zero values are never stored, so equality is
    entry-wise on the support maps."""

    __slots__ = ("parent", "ring", "values")

    def __init__(self, parent, ring, values):
        self.parent = parent
        self.ring = ring
        pruned = {}
        for arrow, scalar in values.items():
            if arrow not in parent._index:
                raise ValueError(f"{arrow} is not an arrow of {parent.name}")
            if scalar.ring != ring:
                raise ValueError("mixed scalar rings in function values")
            if scalar:
                pruned[arrow] = scalar
        self.values = pruned

    @classmethod
    def zero(cls, parent, ring):
        return cls(parent, ring, {})

    @classmethod
    def indicator(cls, parent, ring, arrows, coeff=None):
        coeff = ring.one() if coeff is None else coeff
        return cls(parent, ring, {a: coeff for a in arrows})

    @classmethod
    def point_mass(cls, parent, ring, arrow, coeff=None):
        return cls.indicator(parent, ring, [arrow], coeff)

    @property
    def support(self):
        return frozenset(self.values)

    def __call__(self, arrow):
        if arrow not in self.parent._index:
            raise ValueError(f"{arrow} is not an arrow of {self.parent.name}")
        return self.values.get(arrow, self.ring.zero())

    def _compatible(self, other):
        if self.parent is not other.parent:
            raise ValueError("functions live on different groupoids")
        if self.ring != other.ring:
            raise ValueError("functions have different scalar rings")

    def __add__(self, other):
        self._compatible(other)
        out = dict(self.values)
        for a, c in other.values.items():
            out[a] = out[a] + c if a in out else c
        return GroupoidFunction(self.parent, self.ring, out)

    def __neg__(self):
        return GroupoidFunction(self.parent, self.ring,
                                {a: -c for a, c in self.values.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, coeff):
        return GroupoidFunction(self.parent, self.ring,
                                {a: coeff * c for a, c in self.values.items()})

    def __mul__(self, other):
        return convolve(self, other)

    def __eq__(self, other):
        return (isinstance(other, GroupoidFunction)
                and self.parent is other.parent and self.ring == other.ring
                and self.values == other.values)

    def __bool__(self):
        return bool(self.values)

    def __repr__(self):
        g = self.parent
        items = ", ".join(f"{a}:{c}" for a, c in
                          sorted(self.values.items(), key=lambda kv: g.index(kv[0])))
        return f"GroupoidFunction({{{items}}})"


def convolve(f, g):
    """(f * g)(b) = sum of f(c) g(d) over all factorizations b = cd."""
    f._compatible(g)
    parent, ring = f.parent, f.ring
    acc = {}
    for c, fc in f.values.items():
        for d, gd in g.values.items():
            if parent.composable(c, d):
                b = parent.compose(c, d)
                acc[b] = acc.get(b, ring.zero()) + fc * gd
    return GroupoidFunction(parent, ring, acc)


def is_diagonal(f):
    return f.support <= f.parent.units


def diagonal_embed(parent, ring, unit_values):
    """Extend a function on the unit space by zero off the units."""
    for u in unit_values:
        if u not in parent.units:
            raise ValueError(f"{u} is not a unit of {parent.name}")
    return GroupoidFunction(parent, ring, dict(unit_values))


def disjoint_decomposition(f):
    """Write f as a sum of scalar multiples of indicators of pairwise
    disjoint bisections, canonically.

    The support is partitioned into level sets of equal value; each level
    set is split greedily, in ascending canonical arrow order, into maximal
    bisections.  The output is sorted by the bisections' canonical keys, so
    the same function always yields the same list.
    """
    g = f.parent
    index, range_of, source_of = g._index, g._range, g._source
    levels = {}
    for arrow, value in f.values.items():
        # f has one ring, so the raw values key the level sets.
        levels.setdefault(value.value, (value, []))[1].append(
            (index[arrow], range_of[arrow], source_of[arrow]))
    blocks = []
    for value, remaining in levels.values():
        remaining.sort()
        while remaining:
            block, rest, ranges, sources = [], [], set(), set()
            for item in remaining:
                i, r, s = item
                if r in ranges or s in sources:
                    rest.append(item)
                else:
                    block.append(i)
                    ranges.add(r)
                    sources.add(s)
            blocks.append((block, value))
            remaining = rest
    # A block's key is its ascending index list; blocks are disjoint, so
    # their first indices order them as their keys do.
    blocks.sort(key=lambda bv: bv[0][0])
    pieces = [(value, frozenset([g.arrows[i] for i in block]))
              for block, value in blocks]
    for _, block in pieces:
        assert is_bisection(g, block)
    return pieces


class SteinbergAlgebra(TableAlgebra):
    """Coordinate view of the convolution algebra in the point-mass basis.

    The basis is the canonical arrow order, so the dimension equals the
    arrow count.  A product of point masses is a point mass or zero, so
    the algebra is its product table, the contracted composition table.
    Its points are s(b) for the row of b and r(c) for the column of c,
    when composability is s(b) = r(c).
    """

    def __init__(self, groupoid, ring):
        self.groupoid = groupoid
        self.ring = ring
        self.basis_labels = list(groupoid.arrows)
        self.dim = len(self.basis_labels)
        self.table = composition_table(groupoid)
        self.row_points = self.col_points = None
        if composable_iff_matched(groupoid):
            self.row_points = [groupoid.source(a) for a in groupoid.arrows]
            self.col_points = [groupoid.range(a) for a in groupoid.arrows]
            self.at_point = points_at(self.col_points)

    def mul_basis(self, i, j):
        return table_mul_basis(self.table, self.ring, i, j)

    def mul_vectors(self, u, v):
        return table_mul_vectors(self.table, self.ring, u, v)

    def to_vector(self, f):
        if f.parent is not self.groupoid or f.ring != self.ring:
            raise ValueError("function does not belong to this algebra")
        vec = zero_vector(self.ring, self.dim)
        for a, c in f.values.items():
            vec[self.groupoid.index(a)] = c
        return vec

    def from_vector(self, vec):
        values = {self.basis_labels[i]: c for i, c in enumerate(vec) if c}
        return GroupoidFunction(self.groupoid, self.ring, values)

    def diagonal_indices(self):
        return [i for i, a in enumerate(self.basis_labels)
                if self.groupoid.is_unit(a)]

    def verify_associativity(self):
        """Check (e_i e_j) e_k = e_i (e_j e_k) on all basis triples; returns
        the first failing triple or None."""
        return table_associativity_counterexample(self.table)
