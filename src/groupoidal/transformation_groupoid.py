"""The transformation groupoid of a partial group action: arrows are named
by the literal pairs (t, x) with x in X_t, so the isomorphism formulas can
read coordinates directly, and its tables are on arrow indices."""

from __future__ import annotations

from .groupoid_core import FiniteGroupoid


class TransformationGroupoid(FiniteGroupoid):
    """A finite groupoid whose arrows are (group element, point) pairs,
    with a provenance link to the acting partial action.

    (t, x) runs from (e, theta_{t^-1}(x)) to (e, x); the pair (s, y), (t, x)
    composes to (st, y) exactly when theta_{s^-1}(y) = x.  The units are
    the arrows (e, x), one per point of X_e = X.
    """

    def __init__(self, action):
        group, space = action.group, action.space
        elements, table, star = group.elements, group.table, group.star_table
        # The index of arrow (t, x), keyed by the indices of t and x, in
        # arrow order: t in group order, x in the order of the space.
        # (t, x) runs from (e, theta_{t^-1}(x)) to (e, x).
        at, back = {}, []
        for i in range(len(elements)):
            for x, y in action.star_graph(i):
                at[i, x] = len(at)
                back.append(y)
        e = group.unit
        inverse = [at.get((star[i], x), -1) for (i, _), x in zip(at, back)]
        # The element indices t of the arrows (t, x) at each point x, in
        # arrow order.  The row of (s, y) lists its composites (st, y) with
        # those at theta_{s^-1}(y), st read off the group's index table.
        elements_at = {}
        for j, x in at:
            elements_at.setdefault(x, []).append(j)
        rows = []
        for (i, y), x in zip(at, back):
            row = table[i]
            try:
                rows.append([at[row[j], y] for j in elements_at.get(x, ())])
            except KeyError as escaped:
                st, _ = escaped.args[0]
                raise ValueError(
                    f"composite ({elements[st]}, {space[y]}) escapes the "
                    "arrow set; action is not a partial action") from None
        super().__init__([(elements[i], space[x]) for i, x in at],
                         [k for (i, _), k in at.items() if i == e], inverse,
                         None, name=f"{group.name}@{action.name}",
                         ends=([at.get((e, x), -1) for _, x in at],
                               [at.get((e, y), -1) for y in back]),
                         rows=rows)
        self.action = action
        self.arrow_at = at


def build_transformation_groupoid(action):
    """Construct the transformation groupoid of a validated partial group
    action.  The arrow count is the sum of the domain sizes and the unit
    space is a copy of the acted-on space via x -> (e, x).

    When the action passes validate_group_partial_action and its group's
    table_report passes, the result passes validate_groupoid, so no
    caller validates it again.  Write b = (s, y), c = (t, x).
    - Closure: (s, y)(t, x) is built when x = theta_{s^-1}(y) and x is in
      X_t, so x lies in X_{s^-1} & X_t and y = theta_s(x) in
      theta_s(X_{s^-1} & X_t) = X_s & X_{st} by the intertwining law:
      (st, y) is an arrow.
    - Inverse and units: theta_{s^-1} is a bijection X_s -> X_{s^-1} with
      inverse theta_s, so b^-1 = (s^-1, theta_{s^-1}(y)) is an arrow and
      (b^-1)^-1 = b.  Then r(b) = b b^-1 = (e, y) and
      s(b) = b^-1 b = (e, theta_{s^-1}(y)), and r((e, y)) = (e, y) as
      theta_e is the identity on X_e = X, so the units are the image of
      range and source.
    - Composability: s(b) = r(c) exactly when x = theta_{s^-1}(y), which
      is the rule above.
    - Cancellation: b^-1 (bc) = (s^-1, x)(st, y) is composable as
      theta_s(x) = y, and equals (s^-1 st, x) = c.  (bc) c^-1 =
      (st, y)(t^-1, theta_{t^-1}(x)) is composable as
      theta_{(st)^-1}(y) = theta_{t^-1}(theta_{s^-1}(y)) by the
      composition law on X_s & X_{st}, and equals (st t^-1, y) = b.
    - Associativity: cancellation gives s(ab) = s(b) and r(bc) = r(b),
      so the two sides of (ab)c = a(bc) are defined together, and then
      both are (rst, z) for a = (r, z), by the group's associativity.
    """
    return TransformationGroupoid(action)
