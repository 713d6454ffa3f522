"""Finite groupoids: validated axioms, principality, and bisections.

A finite groupoid is a finite arrow set with a partial composition table,
an inverse table, and a distinguished unit subset.  In this finite-discrete
model every subset is compact open, so "compact open bisection" reduces to
"bisection" and the groupoid is automatically ample and Hausdorff.
"""

from __future__ import annotations

from collections import Counter

from .scalars import BasedAlgebra, point_places
from .validation import BoundExceeded, ValidationReport

DEFAULT_BISECTION_BOUND = 16


class FiniteGroupoid:
    """A finite groupoid on arrow indices 0 .. n-1.

    arrows names the arrows in the canonical order, for reports and for
    index(a); units is a set of arrow indices, inverse[a] the index of
    the inverse of arrow a (-1 where the input left it out).  rows[b]
    lists bc over the arrows c at at_range[s(b)], so bc is
    rows[b][place[c]].  A builder passes ends = (range, source) and the
    rows.  The parser passes compose, a raw candidate table from index
    pairs to an index, read only in this module: range and source are
    derived from it (r(b) = b b^{-1}, s(b) = b^{-1} b) and the rows read
    off it, -1 where a pair has no composite, for validate_groupoid.
    """

    def __init__(self, arrows, units, inverse, compose, name="groupoid",
                 ends=None, rows=None):
        self.name = name
        self.arrows = list(arrows)
        self._index = {a: i for i, a in enumerate(self.arrows)}
        if len(self._index) != len(self.arrows):
            raise ValueError("duplicate arrows")
        self.units = frozenset(units)
        self.inverse = list(inverse)
        self.compose = compose
        self.range, self.source = ends or (
            [compose.get((a, b), -1) for a, b in enumerate(self.inverse)],
            [compose.get((b, a), -1) for a, b in enumerate(self.inverse)])
        self.at_range, self.place = point_places(self.range)
        self.rows = rows if compose is None else [
            [compose.get((b, c), -1) for c in self.at_range.get(p, ())]
            for b, p in enumerate(self.source)]

    def composite(self, b, c):
        """The index of bc, or -1 where there is none."""
        if self.source[b] != self.range[c]:
            return -1
        return self.rows[b][self.place[c]]

    @property
    def n_arrows(self):
        return len(self.arrows)

    def index(self, a):
        return self._index[a]

    def __repr__(self):
        return f"FiniteGroupoid({self.name}, arrows={self.n_arrows})"


def validate_groupoid(g):
    """Exhaustively check the groupoid axioms on arrow indices, naming
    arrows by their labels only in messages.  The checks on inverses,
    range, source and units report every violation; composability,
    cancellation and associativity each report one, where their check
    failed.  Unknown arrow names never reach here: the parser refuses
    them.

    The unit laws need no check of their own once composability and
    cancellation hold.  Cancellation on (b, b^-1), whose composite is
    r(b), gives r(b) b = b and b^-1 r(b) = b^-1; on (b^-1, b) it gives
    b s(b) = b.  For a unit u = r(b), composability of (u, b) gives
    s(u) = r(b) = u, and of (b^-1, u) gives r(u) = s(b^-1) = u.  Then
    cancellation on (u, u^-1), whose composite is r(u) = u, gives
    u^-1 u = u^-1, and u^-1 u = s(u) = u, so u^-1 = u.  Every unit is
    some r(b), as the units are the image of range and source."""
    report = ValidationReport(f"groupoid {g.name}")
    arrows, inverse = g.arrows, g.inverse

    for a, b in enumerate(inverse):
        if b < 0:
            report.add(f"inverse not closed: arrow {arrows[a]} has no "
                       "inverse arrow")
    for a, b in enumerate(inverse):
        if b >= 0 and inverse[b] != a:
            report.add(f"inverse is not an involution on {arrows[a]}")
    if not report.ok:
        return report

    # r(b) = b b^{-1} and s(b) = b^{-1} b must exist before anything else.
    for a, b in enumerate(inverse):
        if g.range[a] < 0:
            report.add(f"range undefined: ({arrows[a]}, {arrows[b]}) "
                       "not composable")
        if g.source[a] < 0:
            report.add(f"source undefined: ({arrows[b]}, {arrows[a]}) "
                       "not composable")
    if not report.ok:
        return report

    image = set(g.range) | set(g.source)
    if image != g.units:
        report.add(f"units must be the common image of range and source; "
                   f"image is {sorted(str(arrows[a]) for a in image)}")
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
    matched pair with no composite.  Rows alone pass by construction."""
    source, range_, compose, arrows = g.source, g.range, g.compose, g.arrows
    if compose is None:
        return None
    off = next(((b, c) for b, c in compose if source[b] != range_[c]), None)
    if off is not None:
        b, c = (arrows[i] for i in off)
        return f"({b}, {c}) composed but s({b}) != r({c})"
    ends, starts = Counter(source), Counter(range_)
    if len(compose) == sum(ends[u] * starts[u] for u in ends):
        return None
    # Every key is a matched pair, so some unit has fewer keys than
    # matched pairs.
    keys = Counter(source[b] for b, _ in compose)
    u = next(u for u in ends if keys[u] != ends[u] * starts[u])
    b, c = next((arrows[b], arrows[c]) for b, s in enumerate(source)
                if s == u for c, r in enumerate(range_)
                if r == u and (b, c) not in compose)
    return f"({b}, {c}) has s({b}) = r({c}) but no composite"


def _cancellation_violation(g):
    """None when b^-1 (bc) = c and (bc) c^-1 = b for every composable
    pair, else the first failure.  Then r(bc) = r(b) and s(bc) = s(c)."""
    inverse, arrows, composite = g.inverse, g.arrows, g.composite
    # The pairs of the raw table in its order, else b-major over the rows.
    pairs = g.compose or ((b, c) for b, p in enumerate(g.source)
                          for c in g.at_range.get(p, ()))
    for b, c in pairs:
        d = composite(b, c)
        if composite(inverse[b], d) != c:
            b, c = arrows[b], arrows[c]
            return f"cancellation fails: {b}^-1 ({b}{c}) != {c}"
        if composite(d, inverse[c]) != b:
            b, c = arrows[b], arrows[c]
            return f"cancellation fails: ({b}{c}) {c}^-1 != {b}"
    return None


class GroupoidProduct(BasedAlgebra):
    """The contracted semigroup G u {0} as a based algebra on the arrow
    indices, in the canonical arrow order: e_b e_c = e_{bc} when
    s(b) = r(c), and 0 otherwise.  So the row point of b is s(b) and the
    column point of c is r(c), and the rows and point tables are the
    groupoid's own, not copies.  g must pass composability_violation:
    every matched pair has a composite."""

    def __init__(self, g):
        self.groupoid = g
        self.dim = g.n_arrows
        self.row_points, self.col_points = g.source, g.range
        self.at_point, self.place, self._rows = g.at_range, g.place, g.rows

    def label(self, i):
        return self.groupoid.arrows[i]

    def row_products(self, i):
        return self._rows[i]


def is_topologically_principal(g):
    """True iff every unit has trivial isotropy (dense = all, finitely).
    In a groupoid u has range and source u, so its isotropy is trivial
    iff u is the only such arrow, counted in one pass over the arrows.

    Returns (flag, offending_units) with offenders in canonical order.
    """
    loops = Counter(r for r, s in zip(g.range, g.source) if r == s)
    offenders = tuple(g.arrows[u] for u in sorted(g.units) if loops[u] != 1)
    return (not offenders, offenders)


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
    # A unit's bit is its arrow index.
    ranges = [1 << r for r in g.range]
    sources = [1 << s for s in g.source]
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
