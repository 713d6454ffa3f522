"""The transformation groupoid of a partial group action: arrows are the
literal pairs (t, x) with x in X_t, so the isomorphism formulas can read
coordinates directly."""

from __future__ import annotations

from .groupoid_core import FiniteGroupoid


class TransformationGroupoid(FiniteGroupoid):
    """A finite groupoid whose arrows are (group element, point) pairs,
    with a provenance link to the acting partial action.

    (t, x) runs from (e, theta_{t^-1}(x)) to (e, x); the pair (s, y), (t, x)
    composes to (st, y) exactly when theta_{s^-1}(y) = x.
    """

    def __init__(self, action, name=None):
        group = action.group
        e = group.identity
        arrows = [(t, x) for t in group.elements
                  for x in action.domain_points(t)]
        arrow_set = set(arrows)
        units = [(e, x) for x in action.space]
        inverse = {(t, x): (group.inv(t), action.theta(group.inv(t), x))
                   for (t, x) in arrows}
        compose = {}
        for (s, y) in arrows:
            for (t, x) in arrows:
                if action.theta(group.inv(s), y) == x:
                    st = group.mul(s, t)
                    target = (st, y)
                    if target not in arrow_set:
                        raise ValueError(
                            f"composite ({st}, {y}) escapes the arrow set; "
                            "action is not a partial action")
                    compose[((s, y), (t, x))] = target
        super().__init__(arrows, units, inverse, compose,
                         name=name or f"{group.name}@{action.name}")
        self.action = action


def build_transformation_groupoid(action, name=None):
    """Construct the transformation groupoid of a validated partial group
    action.  The arrow count is the sum of the domain sizes and the unit
    space is a copy of the acted-on space via x -> (e, x)."""
    return TransformationGroupoid(action, name=name)


def isotropy_of_transformation(action, x):
    """The stabilizer {t : x in X_t and theta_{t^-1}(x) = x} as a subgroup
    of the acting group; matches the groupoid isotropy at (e, x)."""
    if x not in set(action.space):
        raise ValueError(f"{x} is not a point of the space")
    group = action.group
    members = [t for t in group.elements
               if x in action.domains[t]
               and action.theta(group.inv(t), x) == x]
    return group.subgroup(members, name=f"stab@{x}")
