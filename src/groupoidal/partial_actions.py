"""Partial actions of finite groups on finite sets, the exhaustive axiom
validators of partial actions of groups and inverse semigroups, the
induced actions on the function algebra of the space, and topological
freeness.

Conventions.  For an index element s, the set X_s is the RANGE of the
partial bijection, which maps X_{s*} onto X_s.  Density in a finite
discrete space is equality, so topological freeness becomes fixed-point
freeness on each domain.
"""

from __future__ import annotations

from .validation import ValidationReport, stable


class _PartialActionBase:
    def __init__(self, index, space, domains, maps):
        self.index = index
        self.space = list(space)
        if len(set(self.space)) != len(self.space):
            raise ValueError("duplicate points in the space")
        self._order = {x: i for i, x in enumerate(self.space)}
        if set(domains) != set(index.elements) or set(maps) != set(index.elements):
            raise ValueError("domains and maps must be keyed by every index element")
        self.domains = {s: frozenset(d) for s, d in domains.items()}
        for s, d in self.domains.items():
            if not d <= set(self.space):
                raise ValueError(f"domain of {s} is not a subset of the space")
        self.maps = {s: dict(m) for s, m in maps.items()}

    def domain_points(self, s):
        return sorted(self.domains[s], key=self._order.__getitem__)

    def theta(self, s, x):
        """Apply the partial bijection of s (defined on X_{s*})."""
        try:
            return self.maps[s][x]
        except KeyError:
            raise ValueError(f"{x} is not in the domain of the map of {s}") from None

    def star_graph(self, e):
        """The pairs (x, theta_{s*}(x)) over x in X_s, s the element of
        index e, as positions in the space, in increasing x."""
        s = self.index.elements[e]
        s_star, order = self.index.star(s), self._order
        return [(order[x], order[self.theta(s_star, x)])
                for x in self.domain_points(s)]


class GroupPartialAction(_PartialActionBase):
    """A partial action of a finite group: clopen (here: arbitrary) domain
    subsets X_g and bijections X_{g^{-1}} -> X_g, with the identity acting
    globally."""

    def __init__(self, group, space, domains, maps, name="action"):
        super().__init__(group, space, domains, maps)
        self.group = group
        self.name = name


def _validate_maps(action, report):
    """Each map must be a bijection from X_{s*} onto X_s, and the map of
    s* must be its inverse."""
    index = action.index
    for s in index.elements:
        m = action.maps[s]
        dom_expected = action.domains[index.star(s)]
        if set(m) != dom_expected:
            report.add(f"map of {stable(s)} is defined on "
                       f"{stable(set(m))}, expected "
                       f"X_{{{stable(index.star(s))}}} = {stable(dom_expected)}")
            continue
        values = list(m.values())
        if len(set(values)) != len(values):
            report.add(f"map of {stable(s)} is not injective")
            continue
        if set(values) != action.domains[s]:
            report.add(f"map of {stable(s)} is not onto X_{{{stable(s)}}}")
    if not report.ok:
        return
    for s in index.elements:
        inv = {y: x for x, y in action.maps[s].items()}
        if action.maps[index.star(s)] != inv:
            report.add(f"map of {stable(index.star(s))} is not the inverse "
                       f"of the map of {stable(s)}")


def _validate_composition(action, report):
    """The equality form of the intertwining law, and the composition law.

    For all s, t:  theta_s(X_{s*} & X_t) = X_s & X_{st},  and
    theta_s(theta_t(x)) = theta_{st}(x) on X_{t*} & X_{(st)*}.

    The intertwining law names one t for each failing pair of domains
    (X_t, X_{st}) in the row of s; the composition law names every
    failing point.

    Runs on the rows of the index's product; elements are looked up only
    for the domains, the maps and the messages.  A product the table
    leaves out raises KeyError.
    """
    index = action.index
    elements, star = index.elements, index.star_table
    table = list(map(index.row, range(len(elements))))
    domains = [action.domains[s] for s in elements]
    maps = [action.maps[s] for s in elements]
    # The intertwining law for (s, t) reads only s, X_t and X_{st}, so a
    # row is checked once per distinct pair of domains; a failing pair
    # names the first t giving it.
    ids = {}
    domain_id = [ids.setdefault(d, len(ids)) for d in domains]
    distinct = list(ids)
    for i, s in enumerate(elements):
        row, theta_s, source = table[i], maps[i], domains[star[i]]
        if -1 in row:
            raise KeyError((s, elements[row.index(-1)]))
        for a, b in set(zip(domain_id, map(domain_id.__getitem__, row))):
            lhs = set(map(theta_s.__getitem__, source & distinct[a]))
            rhs = domains[i] & distinct[b]
            if lhs != rhs:
                j = next(j for j, st in enumerate(row)
                         if domain_id[j] == a and domain_id[st] == b)
                report.add(
                    f"theta_{stable(s)}(X_{{{stable(elements[star[i]])}}} & "
                    f"X_{{{stable(elements[j])}}}) = {stable(lhs)} but "
                    f"X_{{{stable(s)}}} & X_{{{stable(elements[row[j]])}}} = "
                    f"{stable(rhs)}")
    points = [action.domain_points(s) for s in elements]
    for i, s in enumerate(elements):
        row, theta_s, source = table[i], maps[i], domains[star[i]]
        for j, t in enumerate(elements):
            st = row[j]
            theta_t, theta_st = maps[j], maps[st]
            inside = domains[table[star[j]][star[i]]]
            for x in points[star[j]]:
                if x not in inside:
                    continue
                y = theta_t[x]
                if y not in source:
                    report.add(f"theta_{stable(t)}({stable(x)}) = {stable(y)} "
                               f"escapes the domain of theta_{stable(s)}")
                    continue
                if x not in theta_st:
                    # Raises the ValueError that names the missing point.
                    action.theta(elements[st], x)
                if theta_s[y] != theta_st[x]:
                    report.add(f"theta_{stable(s)}(theta_{stable(t)}({stable(x)})) "
                               f"!= theta_{{{stable(elements[st])}}}({stable(x)})")


def validate_group_partial_action(action):
    """Exhaustively check the partial group action axioms (the group
    specialization of the inverse semigroup characterization, with the
    intertwining law in equality form)."""
    report = ValidationReport(f"partial action {action.name}")
    g = action.group
    if action.domains[g.identity] != frozenset(action.space):
        report.add("X_e must be the whole space")
    elif action.maps[g.identity] != {x: x for x in action.space}:
        report.add("the identity must act as the identity map")
    _validate_maps(action, report)
    if not report.ok:
        return report
    _validate_composition(action, report)
    return report


def validate_isg_partial_action(action):
    """Exhaustively check the inverse semigroup partial action axioms,
    and, when the semigroup has a unit, the convention that the unit acts
    globally as identity.

    Monotonicity along the natural order (s <= t gives X_s inside X_t)
    follows from the laws checked.  For an idempotent e, the composition
    law on (e, e) gives theta_e theta_e = theta_e on X_e, so theta_e,
    being injective, is the identity on X_e.  The intertwining law on
    (s, s*) gives X_s = theta_s(X_{s*}) = X_s & X_{ss*}, so X_s lies in
    X_{ss*}.  For s <= t, s = ss* t, and the intertwining law on (ss*, t)
    gives X_{ss*} & X_t = X_{ss*} & X_s = X_s, so X_s lies in X_t."""
    report = ValidationReport(f"partial action {action.name}")
    unit = action.index.unit
    if unit is not None:
        if action.domains[unit] != frozenset(action.space):
            report.add("X_1 must be the whole space when the semigroup has a unit")
        elif action.maps[unit] != {x: x for x in action.space}:
            report.add("the unit must act as the identity map")
    _validate_maps(action, report)
    if not report.ok:
        return report
    _validate_composition(action, report)
    return report


def is_topologically_free(action):
    """True iff no non-identity group element fixes a point of its domain.

    Returns (flag, witnesses) where witnesses lists the fixed pairs (g, x)
    in canonical order.
    """
    g = action.group
    witnesses = []
    for t in g.elements:
        if t == g.identity:
            continue
        for x in action.domain_points(g.inv(t)):
            if action.theta(t, x) == x:
                witnesses.append((t, x))
    return (not witnesses, tuple(witnesses))


class AlgebraPartialAction:
    """The induced partial action on the function algebra of the space:
    D_s is the ideal of functions vanishing off X_s, and the isomorphism
    alpha_s: D_{s*} -> D_s is f -> f o theta_{s*} on X_s, zero elsewhere."""

    def __init__(self, action, ring):
        self.action = action
        self.index = action.index
        self.ring = ring


def induce_algebra_action(action, ring):
    """The algebra-level action of an action that is validated
    (validate_isg_partial_action or validate_group_partial_action), or
    built from a validated groupoid (bisection_action).

    Then theta_{s*} is a bijection from X_s onto X_{s*} whose inverse is
    theta_s.  Composing with it is a ring isomorphism from the functions
    vanishing off X_{s*} onto those vanishing off X_s, which is what
    alpha_s: D_{s*} -> D_s must be."""
    return AlgebraPartialAction(action, ring)
