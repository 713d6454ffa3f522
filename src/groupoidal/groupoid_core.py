"""Finite groupoids: validated axioms, principality, and bisections.

A finite groupoid is a finite arrow set with a partial composition table,
an inverse table, and a distinguished unit subset.  In this finite-discrete
model every subset is compact open, so "compact open bisection" reduces to
"bisection" and the groupoid is automatically ample and Hausdorff.
"""

from __future__ import annotations

from collections import Counter

from .scalars import BasedAlgebra
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
    """Exhaustively check the groupoid axioms.  The checks on units,
    inverses, range, source and the table's entries report every
    violation; composability, cancellation and associativity each report
    one, where their check failed.

    The unit laws need no check of their own once composability and
    cancellation hold.  Cancellation on (b, b^-1), whose composite is
    r(b), gives r(b) b = b and b^-1 r(b) = b^-1; on (b^-1, b) it gives
    b s(b) = b.  For a unit u = r(b), composability of (u, b) gives
    s(u) = r(b) = u, and of (b^-1, u) gives r(u) = s(b^-1) = u.  Then
    cancellation on (u, u^-1), whose composite is r(u) = u, gives
    u^-1 u = u^-1, and u^-1 u = s(u) = u, so u^-1 = u.  Every unit is
    some r(b), as the units are the image of range and source."""
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

    # Each check names the violation at which it failed; cancellation
    # gives the closure that Light's test needs.
    violation = composability_violation(g) or _cancellation_violation(g)
    if violation is None:
        triple = GroupoidProduct(g).associativity_counterexample()
        if triple is not None:
            x, z, y = (arrows[i] for i in triple)
            violation = f"associativity fails on ({x}, {z}, {y})"
    if violation is not None:
        report.add(violation)
    return report


def composability_violation(g):
    """None when (b, c) is composable exactly when s(b) = r(c): every key
    of the composition table is such a pair, and there are as many keys
    as such pairs.  Otherwise a violation: a key off the points, or a
    matched pair with no composite."""
    source, range_, compose = g._source, g._range, g.compose_table
    off = next(((b, c) for b, c in compose if source[b] != range_[c]), None)
    if off is not None:
        b, c = off
        return f"({b}, {c}) composed but s({b}) != r({c})"
    ends, starts = Counter(source.values()), Counter(range_.values())
    if len(compose) == sum(ends[u] * starts[u] for u in ends):
        return None
    # Every key is a matched pair, so some unit has fewer keys than
    # matched pairs.
    keys = Counter(source[b] for b, _ in compose)
    u = next(u for u in ends if keys[u] != ends[u] * starts[u])
    b, c = next((b, c) for b in g.arrows if source[b] == u
                for c in g.arrows if range_[c] == u and (b, c) not in compose)
    return f"({b}, {c}) has s({b}) = r({c}) but no composite"


def _cancellation_violation(g):
    """None when b^-1 (bc) = c and (bc) c^-1 = b for every composable
    pair, else the first failure.  Then r(bc) = r(b) and s(bc) = s(c)."""
    compose, inverse = g.compose_table, g.inverse_table
    for (b, c), d in compose.items():
        if compose.get((inverse[b], d)) != c:
            return f"cancellation fails: {b}^-1 ({b}{c}) != {c}"
        if compose.get((d, inverse[c])) != b:
            return f"cancellation fails: ({b}{c}) {c}^-1 != {b}"
    return None


class GroupoidProduct(BasedAlgebra):
    """The contracted semigroup G u {0} as a based algebra on the arrow
    indices, in the canonical arrow order: e_b e_c = e_{bc} when
    s(b) = r(c), and 0 otherwise.  So the row point of b is s(b) and the
    column point of c is r(c), and each row keeps only its nonzero
    composites, |compose| entries in all.  g must pass
    composability_violation: every matched pair has a composite."""

    def __init__(self, g):
        self.groupoid = g
        arrows = self.basis_labels = list(g.arrows)
        self.dim = len(arrows)
        self._set_points([g.source(a) for a in arrows],
                         [g.range(a) for a in arrows])
        index, compose = g._index, g.compose_table
        self._rows = [[index[compose[(b, arrows[c])]]
                       for c in self.at_point.get(p, ())]
                      for b, p in zip(arrows, self.row_points)]

    def row_products(self, i):
        return self._rows[i]


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


def enumerate_bisections(g, bound=DEFAULT_BISECTION_BOUND):
    """All bisections of g as bitmasks over the canonical arrow order (bit
    i is arrow i), ascending, so the empty set comes first and the result
    is stable.  BisectionSemigroup takes the masks as they are.

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
    return masks
