"""Finite groupoids: validated axioms, isotropy, and bisection machinery.

A finite groupoid is a finite arrow set with a partial composition table,
an inverse table, and a distinguished unit subset.  In this finite-discrete
model every subset is compact open, so "compact open bisection" reduces to
"bisection" and the groupoid is automatically ample and Hausdorff.
"""

from __future__ import annotations

from collections import Counter

from .scalars import index_row, light_generators, points_at
from .validation import BoundExceeded, ValidationReport

DEFAULT_BISECTION_BOUND = 16


class FiniteGroupoid:
    """A finite groupoid with arrows as opaque ids.

    arrows fixes the canonical order; compose is an explicit partial table
    keyed by composable pairs.  Range and source are derived from the
    tables (r(b) = b b^{-1}, s(b) = b^{-1} b), so a raw candidate can be
    constructed and then judged by validate_groupoid.
    """

    def __init__(self, arrows, units, inverse, compose, name="groupoid"):
        self.name = name
        self.arrows = list(arrows)
        if len(set(self.arrows)) != len(self.arrows):
            raise ValueError("duplicate arrows")
        self._index = {a: i for i, a in enumerate(self.arrows)}
        self.units = frozenset(units)
        self.inverse_table = dict(inverse)
        self.compose_table = dict(compose)
        self._range = {}
        self._source = {}
        for a in self.arrows:
            ainv = self.inverse_table.get(a)
            self._range[a] = self.compose_table.get((a, ainv))
            self._source[a] = self.compose_table.get((ainv, a))

    @property
    def n_arrows(self):
        return len(self.arrows)

    def index(self, a):
        return self._index[a]

    def is_unit(self, a):
        return a in self.units

    def inverse(self, a):
        return self.inverse_table[a]

    def source(self, a):
        return self._source[a]

    def range(self, a):
        return self._range[a]

    def composable(self, b, c):
        return (b, c) in self.compose_table

    def compose(self, b, c):
        try:
            return self.compose_table[(b, c)]
        except KeyError:
            raise ValueError(f"arrows {b} and {c} are not composable") from None

    def sort_arrows(self, subset):
        return sorted(subset, key=self._index.__getitem__)

    def __repr__(self):
        return f"FiniteGroupoid({self.name}, arrows={self.n_arrows})"


def validate_groupoid(g):
    """Exhaustively check the groupoid axioms; the report names every
    failing pair/triple."""
    report = ValidationReport(f"groupoid {g.name}")
    arrows = g.arrows
    aset = set(arrows)

    for u in g.units:
        if u not in aset:
            report.add(f"unit {u} is not an arrow")
    for a in arrows:
        ainv = g.inverse_table.get(a)
        if ainv is None or ainv not in aset:
            report.add(f"inverse not closed: arrow {a} has no inverse arrow")
    for a, b in g.inverse_table.items():
        if a in aset and b in aset and g.inverse_table.get(b) != a:
            report.add(f"inverse is not an involution on {a}")
    if not report.ok:
        return report

    # r(b) = b b^{-1} and s(b) = b^{-1} b must exist before anything else.
    for a in arrows:
        if g.range(a) is None:
            report.add(f"range undefined: ({a}, {g.inverse(a)}) not composable")
        if g.source(a) is None:
            report.add(f"source undefined: ({g.inverse(a)}, {a}) not composable")
    if not report.ok:
        return report

    image = {g.range(a) for a in arrows} | {g.source(a) for a in arrows}
    if image != g.units:
        report.add(f"units must be the common image of range and source; "
                   f"image is {sorted(map(str, image))}")

    for (b, c), d in g.compose_table.items():
        if b not in aset or c not in aset:
            report.add(f"compose key ({b}, {c}) uses unknown arrows")
        elif d not in aset:
            report.add(f"compose value {d} for ({b}, {c}) is not an arrow")
    if not report.ok:
        return report

    # Decided on the contracted table; the label scans run only on a
    # failure, to name every violation in their order.
    if not composable_iff_matched(g):
        for b in arrows:
            for c in arrows:
                defined = g.composable(b, c)
                matched = g.source(b) == g.range(c)
                if defined and not matched:
                    report.add(f"({b}, {c}) composed but s({b}) != r({c})")
                elif matched and not defined:
                    report.add(f"({b}, {c}) has s({b}) = r({c}) but no "
                               "composite")
        if not report.ok:
            return report

    if not _associative(g):
        pairs = list(g.compose_table.items())
        for (b, c), bc in pairs:
            # cancellation: b^{-1}(bc) = c and (bc)c^{-1} = b
            left = g.compose_table.get((g.inverse(b), bc))
            if left != c:
                report.add(f"cancellation fails: {b}^-1 ({b}{c}) != {c}")
            right = g.compose_table.get((bc, g.inverse(c)))
            if right != b:
                report.add(f"cancellation fails: ({b}{c}) {c}^-1 != {b}")
        for b in arrows:
            for c in arrows:
                if not g.composable(b, c):
                    continue
                bc = g.compose(b, c)
                for d in arrows:
                    if not g.composable(c, d):
                        continue
                    cd = g.compose(c, d)
                    if not g.composable(bc, d) or not g.composable(b, cd):
                        report.add("composability not closed on "
                                   f"({b}, {c}, {d})")
                    elif g.compose(bc, d) != g.compose(b, cd):
                        report.add(f"associativity fails on ({b}, {c}, {d})")
        if not report.ok:
            return report

    # Unit laws follow from the axioms; checking them gives sharper reports.
    for u in g.units:
        if g.inverse(u) != u or g.range(u) != u or g.source(u) != u:
            report.add(f"unit {u} is not idempotent under inverse/range/source")
    for b in arrows:
        if g.compose_table.get((g.range(b), b)) != b:
            report.add(f"r({b}) does not act as a left unit on {b}")
        if g.compose_table.get((b, g.source(b))) != b:
            report.add(f"s({b}) does not act as a right unit on {b}")
    return report


def composable_iff_matched(g):
    """True when (b, c) is composable exactly when s(b) = r(c): every key
    of the composition table is such a pair, and there are as many keys
    as such pairs."""
    source, range_ = g._source, g._range
    if None in source.values() or None in range_.values() or any(
            source[b] != range_[c] for b, c in g.compose_table):
        return False
    ends, starts = Counter(source.values()), Counter(range_.values())
    return len(g.compose_table) == sum(ends[u] * starts[u] for u in ends)


def composition_table(g):
    """The contracted semigroup G u {0} on arrow indices: row b holds the
    index of bc at c, and -1 where (b, c) is not composable."""
    idx = g._index
    blank = index_row(g.n_arrows, [-1]) * g.n_arrows
    table = [blank[:] for _ in g.arrows]
    for (b, c), d in g.compose_table.items():
        table[idx[b]][idx[c]] = idx[d]
    return table


def _associative(g):
    """Cancellation, closure and associativity, for composability
    s(b) = r(c).  Cancellation makes b^-1 (bc) and (bc) c^-1 defined, so
    r(bc) = r(b) and s(bc) = s(c), and closure follows.  Associativity is
    Light's test (see table_associativity_counterexample) on the
    contracted table, where a generator z needs only the x with
    s(x) = r(z) and the y with r(y) = s(z): otherwise (xz)y and x(zy) are
    both 0."""
    idx = g._index
    table = composition_table(g)
    inverse = [idx[g.inverse_table[a]] for a in g.arrows]
    for (b, c), d in g.compose_table.items():
        i, j, k = idx[b], idx[c], idx[d]
        if table[inverse[i]][k] != j or table[k][inverse[j]] != i:
            return False
    source = [g._source[a] for a in g.arrows]
    range_ = [g._range[a] for a in g.arrows]
    rows_at, columns_at = points_at(source), points_at(range_)
    for z in light_generators(table):
        ys = columns_at[source[z]]
        zys = list(map(table[z].__getitem__, ys))
        for x in rows_at[range_[z]]:
            row_x = table[x]
            if list(map(table[row_x[z]].__getitem__, ys)) != \
                    list(map(row_x.__getitem__, zys)):
                return False
    return True


def isotropy_group(g, u):
    """The isotropy group at a unit: all arrows with range = source = u,
    as a FiniteGroup with identity u, read off the composition table."""
    # groups imports this module, through inverse_semigroups.
    from .groups import FiniteGroup
    if u not in g.units:
        raise ValueError(f"{u} is not a unit")
    members = [b for b in g.arrows if g.range(b) == u and g.source(b) == u]
    inside = set(members)
    table = {}
    for a in members:
        for b in members:
            c = g.compose_table.get((a, b))
            if c not in inside:
                raise ValueError(f"isotropy at {u} is not closed on ({a}, {b})")
            table[(a, b)] = c
    return FiniteGroup(members, table, name=f"isotropy@{u}")


def is_topologically_principal(g):
    """True iff every unit has trivial isotropy (dense = all, finitely).

    Returns (flag, offending_units) with offenders in canonical order.
    """
    offenders = []
    for u in g.sort_arrows(g.units):
        iso = [b for b in g.arrows if g.range(b) == u and g.source(b) == u]
        if iso != [u]:
            offenders.append(u)
    return (not offenders, tuple(offenders))


def is_bisection(g, arrow_set):
    """True iff range and source are both injective on the subset."""
    ranges = [g.range(a) for a in arrow_set]
    sources = [g.source(a) for a in arrow_set]
    return len(set(ranges)) == len(ranges) and len(set(sources)) == len(sources)


def enumerate_bisections(g, bound=DEFAULT_BISECTION_BOUND):
    """All bisections of g, in ascending bitmask order over the canonical
    arrow order (so the empty set comes first and the result is stable).

    Backtracks over the arrows in canonical order, taking an arrow only
    while its range and its source are unused, so every branch ends in a
    bisection.  Refuses with BoundExceeded when the arrow count exceeds
    the bound.
    """
    n = g.n_arrows
    if n > bound:
        raise BoundExceeded(
            f"groupoid too large: {n} arrows exceeds bisection bound {bound}")
    bit = {}
    ranges = [1 << bit.setdefault(g.range(a), len(bit)) for a in g.arrows]
    sources = [1 << bit.setdefault(g.source(a), len(bit)) for a in g.arrows]
    masks = []
    stack = [(0, 0, 0, 0)]
    while stack:
        i, mask, used_r, used_s = stack.pop()
        if i == n:
            masks.append(mask)
            continue
        stack.append((i + 1, mask, used_r, used_s))
        if not (used_r & ranges[i] or used_s & sources[i]):
            stack.append((i + 1, mask | 1 << i, used_r | ranges[i],
                          used_s | sources[i]))
    masks.sort()
    return [frozenset(g.arrows[i] for i in range(n) if mask >> i & 1)
            for mask in masks]


def bisection_product(g, bis_b, bis_c):
    """BC = {bc : b in B, c in C, s(b) = r(c)}; a bisection, possibly empty."""
    out = {g.compose(b, c) for b in bis_b for c in bis_c if g.composable(b, c)}
    out = frozenset(out)
    if not is_bisection(g, out):
        raise ValueError("product of bisections is not a bisection; "
                         "the groupoid is invalid")
    return out


def bisection_inverse(g, bis):
    return frozenset(g.inverse(b) for b in bis)


def range_set(g, bis):
    return frozenset(g.range(b) for b in bis)


def source_set(g, bis):
    return frozenset(g.source(b) for b in bis)
