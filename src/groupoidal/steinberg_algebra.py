"""The convolution algebra of finitely supported functions on a finite
groupoid, its diagonal subalgebra, and the canonical decomposition of a
function into disjoint bisection indicators."""

from __future__ import annotations

from .groupoid_core import GroupoidProduct


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


def split_levels(values, ranges, sources):
    """The canonical split of a function into indicators of pairwise
    disjoint bisections, on arrow indices.  values maps arrow indices to
    nonzero values; ranges[i] and sources[i] are the range and source of
    arrow i.

    The support is partitioned into level sets of equal value; each level
    set is split greedily, in ascending arrow order, into maximal
    bisections: an arrow joins a block only while its range and its
    source are unused there, so each block is a bisection.  Returns
    (block, value) pairs, each block an ascending list of indices."""
    levels = {}
    for i, value in values.items():
        levels.setdefault(value, []).append(i)
    blocks = []
    for value, remaining in levels.items():
        if len(remaining) == 1:
            blocks.append((remaining, value))
            continue
        remaining.sort()
        while remaining:
            block, rest, used_ranges, used_sources = [], [], set(), set()
            for i in remaining:
                r, s = ranges[i], sources[i]
                if r in used_ranges or s in used_sources:
                    rest.append(i)
                else:
                    block.append(i)
                    used_ranges.add(r)
                    used_sources.add(s)
            blocks.append((block, value))
            remaining = rest
    return blocks


def disjoint_decomposition(f):
    """Write f as a sum of scalar multiples of indicators of pairwise
    disjoint bisections, canonically: the blocks of split_levels, sorted
    by the bisections' canonical keys, so the same function always yields
    the same list."""
    g = f.parent
    index = g._index
    values, scalars = {}, {}
    for arrow, value in f.values.items():
        # f has one ring, so the raw values key the level sets.
        values[index[arrow]] = value.value
        scalars.setdefault(value.value, value)
    blocks = split_levels(values, [g._range[a] for a in g.arrows],
                          [g._source[a] for a in g.arrows])
    # A block's key is its ascending index list; blocks are disjoint, so
    # their first indices order them as their keys do.
    blocks.sort(key=lambda bv: bv[0][0])
    return [(scalars[value], frozenset([g.arrows[i] for i in block]))
            for block, value in blocks]


class SteinbergAlgebra(GroupoidProduct):
    """Coordinate view of the convolution algebra in the point-mass basis,
    the canonical arrow order: e_b e_c = e_{bc} when s(b) = r(c), and 0
    otherwise, as in GroupoidProduct.  This is the Z-form of A_R(G) (see
    the scalars module), so vectors are lists of integers.  groupoid must
    be validated (validate_groupoid, which runs composability_violation),
    or built from a validated action (build_transformation_groupoid)."""

    def mul_basis(self, i, j):
        vec = [0] * self.dim
        if self.row_points[i] == self.col_points[j]:
            vec[self._rows[i][self.place[j]]] = 1
        return vec

    def mul_vectors(self, u, v):
        out = [0] * self.dim
        for i, a in enumerate(u):
            if not a:
                continue
            for j, k in zip(self.at_point.get(self.row_points[i], ()),
                            self._rows[i]):
                b = v[j]
                if b:
                    out[k] += a * b
        return out

    def diagonal_indices(self):
        return [i for i, a in enumerate(self.basis_labels)
                if self.groupoid.is_unit(a)]
