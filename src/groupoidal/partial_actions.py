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
    """A partial action on point indices: domains[i] lists the positions
    of the points of X_s in the space, s the element of index i, in
    increasing order, and maps[i][x] is the position of theta_s(x), or -1
    off the map.  The space names the points in messages only."""

    def __init__(self, index, space, domains, maps, name):
        self.index = index
        self.space = space
        self.domains = domains
        self.maps = maps
        self.name = name

    def _missing(self, x, i):
        return ValueError(f"{self.space[x]} is not in the domain of the "
                          f"map of {self.index.elements[i]}")

    def star_graph(self, e):
        """The pairs (x, theta_{s*}(x)) over x in X_s, s the element of
        index e, as positions in the space, in increasing x."""
        star = self.index.star_table[e]
        if star < 0:
            raise KeyError(self.index.elements[e])
        pairs = [(x, self.maps[star][x]) for x in self.domains[e]]
        for x, y in pairs:
            if y < 0:
                raise self._missing(x, star)
        return pairs


class GroupPartialAction(_PartialActionBase):
    """A partial action of a finite group: clopen (here: arbitrary) domain
    subsets X_g and bijections X_{g^{-1}} -> X_g, with the identity acting
    globally."""

    def __init__(self, group, space, domains, maps, name="action"):
        super().__init__(group, space, domains, maps, name)
        self.group = group


def _points(action, positions):
    return stable({action.space[x] for x in positions})


def _validate_maps(action, report):
    """Each map must be a bijection from X_{s*} onto X_s, and the map of
    s* must be its inverse."""
    elements, star = action.index.elements, action.index.star_table
    if -1 in star:
        raise KeyError(elements[star.index(-1)])
    for i, m in enumerate(action.maps):
        s, source = stable(elements[i]), action.domains[star[i]]
        defined = [x for x, y in enumerate(m) if y >= 0]
        values = [m[x] for x in defined]
        if defined != source:
            report.add(f"map of {s} is defined on {_points(action, defined)}"
                       f", expected X_{{{stable(elements[star[i]])}}} = "
                       f"{_points(action, source)}")
        elif len(set(values)) != len(values):
            report.add(f"map of {s} is not injective")
        elif sorted(values) != action.domains[i]:
            report.add(f"map of {s} is not onto X_{{{s}}}")
    if not report.ok:
        return
    for i, m in enumerate(action.maps):
        inverse = [-1] * len(m)
        for x in action.domains[star[i]]:
            inverse[m[x]] = x
        if action.maps[star[i]] != inverse:
            report.add(f"map of {stable(elements[star[i]])} is not the "
                       f"inverse of the map of {stable(elements[i])}")


def _validate_composition(action, report):
    """The equality form of the intertwining law, and the composition law.

    For all s, t:  theta_s(X_{s*} & X_t) = X_s & X_{st},  and
    theta_s(theta_t(x)) = theta_{st}(x) on X_{t*} & X_{(st)*}.

    The intertwining law names one t for each failing pair of domains
    (X_t, X_{st}) in the row of s; the composition law names every
    failing point.

    Runs on the rows of the index's product and on point positions;
    labels are read only for the messages.  A product the table leaves
    out raises KeyError.
    """
    index, space, maps = action.index, action.space, action.maps
    elements, star = index.elements, index.star_table
    table = list(map(index.row, range(len(elements))))
    # The intertwining law for (s, t) reads only s, X_t and X_{st}, so a
    # row is checked once per distinct pair of domains, numbered in
    # element order; a failing pair names the first t giving it.
    ids = {}
    domain_id = [ids.setdefault(frozenset(d), len(ids))
                 for d in action.domains]
    distinct = list(ids)
    domains = [distinct[k] for k in domain_id]
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
                    f"X_{{{stable(elements[j])}}}) = {_points(action, lhs)} "
                    f"but X_{{{stable(s)}}} & X_{{{stable(elements[row[j]])}}}"
                    f" = {_points(action, rhs)}")
    for i, s in enumerate(elements):
        row, theta_s, source = table[i], maps[i], domains[star[i]]
        for j, t in enumerate(elements):
            st, theta_t = row[j], maps[j]
            inside = domains[table[star[j]][star[i]]]
            for x in action.domains[star[j]]:
                if x not in inside:
                    continue
                y = theta_t[x]
                if y not in source:
                    report.add(f"theta_{stable(t)}({stable(space[x])}) = "
                               f"{stable(space[y])} escapes the domain of "
                               f"theta_{stable(s)}")
                elif maps[st][x] < 0:
                    raise action._missing(x, st)
                elif theta_s[y] != maps[st][x]:
                    p = stable(space[x])
                    report.add(f"theta_{stable(s)}(theta_{stable(t)}({p})) "
                               f"!= theta_{{{stable(elements[st])}}}({p})")


def _validate_action(action, whole_domain, identity_map):
    """The partial action axioms; a unit of the index must act globally
    (else whole_domain) as the identity (else identity_map)."""
    report = ValidationReport(f"partial action {action.name}")
    unit, everywhere = action.index.unit, list(range(len(action.space)))
    if unit is not None:
        if action.domains[unit] != everywhere:
            report.add(whole_domain)
        elif action.maps[unit] != everywhere:
            report.add(identity_map)
    _validate_maps(action, report)
    if report.ok:
        _validate_composition(action, report)
    return report


def validate_group_partial_action(action):
    """Exhaustively check the partial group action axioms (the group
    specialization of the inverse semigroup characterization, with the
    intertwining law in equality form)."""
    return _validate_action(action, "X_e must be the whole space",
                            "the identity must act as the identity map")


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
    return _validate_action(
        action, "X_1 must be the whole space when the semigroup has a unit",
        "the unit must act as the identity map")


def is_topologically_free(action):
    """True iff no non-identity group element fixes a point of its domain.

    Returns (flag, witnesses) where witnesses lists the fixed pairs (g, x)
    in canonical order, by their labels; the star graph of g^-1 is that
    of theta_g on X_{g^-1}.
    """
    g = action.group
    witnesses = [(t, action.space[x]) for i, t in enumerate(g.elements)
                 if i != g.unit for x, y in action.star_graph(g.star_table[i])
                 if y == x]
    return (not witnesses, tuple(witnesses))


class AlgebraPartialAction:
    """The induced partial action on the function algebra of the space:
    D_s is the ideal of functions vanishing off X_s, and the isomorphism
    alpha_s: D_{s*} -> D_s is f -> f o theta_{s*} on X_s, zero elsewhere."""

    def __init__(self, action):
        self.action = action
        self.index = action.index


def induce_algebra_action(action):
    """The algebra-level action of an action that is validated
    (validate_isg_partial_action or validate_group_partial_action), or
    built from a validated groupoid (bisection_action).

    Then theta_{s*} is a bijection from X_s onto X_{s*} whose inverse is
    theta_s.  Composing with it is a ring isomorphism from the functions
    vanishing off X_{s*} onto those vanishing off X_s, which is what
    alpha_s: D_{s*} -> D_s must be."""
    return AlgebraPartialAction(action)
