"""Partial actions of finite groups and finite inverse semigroups on
finite sets, their exhaustive axiom validators, the induced actions on the
function algebra of the space, and topological freeness.

Conventions.  For an index element s, the set X_s is the RANGE of the
partial bijection, which maps X_{s*} onto X_s.  Density in a finite
discrete space is equality, so topological freeness becomes fixed-point
freeness on each domain.
"""

from __future__ import annotations

from .validation import ValidationReport, stable


class SpaceFunction:
    """A finitely supported scalar-valued function on a finite set, with
    pointwise operations.  Zero values are never stored."""

    __slots__ = ("ring", "values")

    def __init__(self, ring, values):
        self.ring = ring
        self.values = {x: c for x, c in values.items() if c}

    @classmethod
    def zero(cls, ring):
        return cls(ring, {})

    @classmethod
    def indicator(cls, ring, points, coeff=None):
        coeff = ring.one() if coeff is None else coeff
        return cls(ring, {x: coeff for x in points})

    @classmethod
    def point_mass(cls, ring, point, coeff=None):
        return cls.indicator(ring, [point], coeff)

    @property
    def support(self):
        return frozenset(self.values)

    def __call__(self, x):
        return self.values.get(x, self.ring.zero())

    def _compatible(self, other):
        if self.ring != other.ring:
            raise ValueError("functions have different scalar rings")

    def __add__(self, other):
        self._compatible(other)
        out = dict(self.values)
        for x, c in other.values.items():
            out[x] = out.get(x, self.ring.zero()) + c
        return SpaceFunction(self.ring, out)

    def __neg__(self):
        return SpaceFunction(self.ring, {x: -c for x, c in self.values.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._compatible(other)
        out = {x: c * other.values[x]
               for x, c in self.values.items() if x in other.values}
        return SpaceFunction(self.ring, out)

    def scale(self, coeff):
        return SpaceFunction(self.ring, {x: coeff * c for x, c in self.values.items()})

    def vanishes_off(self, subset):
        return self.support <= frozenset(subset)

    def __eq__(self, other):
        return (isinstance(other, SpaceFunction)
                and self.ring == other.ring and self.values == other.values)

    def __hash__(self):
        return hash((self.ring, frozenset(self.values.items())))

    def __bool__(self):
        return bool(self.values)

    def __repr__(self):
        items = ", ".join(f"{x}:{c}" for x, c in
                          sorted(self.values.items(), key=lambda kv: str(kv[0])))
        return f"SpaceFunction({{{items}}})"


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

    def domain(self, s):
        """X_s, the range of the partial bijection attached to s."""
        return self.domains[s]

    def domain_points(self, s):
        return sorted(self.domains[s], key=self._order.__getitem__)

    def theta(self, s, x):
        """Apply the partial bijection of s (defined on X_{s*})."""
        try:
            return self.maps[s][x]
        except KeyError:
            raise ValueError(f"{x} is not in the domain of the map of {s}") from None


class GroupPartialAction(_PartialActionBase):
    """A partial action of a finite group: clopen (here: arbitrary) domain
    subsets X_g and bijections X_{g^{-1}} -> X_g, with the identity acting
    globally."""

    def __init__(self, group, space, domains, maps, name="action"):
        super().__init__(group, space, domains, maps)
        self.group = group
        self.name = name


class SemigroupPartialAction(_PartialActionBase):
    """A partial action of a finite inverse semigroup on a finite set."""

    def __init__(self, semigroup, space, domains, maps, name="action"):
        super().__init__(semigroup, space, domains, maps)
        self.semigroup = semigroup
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

    Runs on the index tables of the group or inverse semigroup; elements
    are looked up only for the domains, the maps and the messages.  A
    product the table leaves out raises KeyError, as the index's mul does.
    """
    index = action.index
    elements, table, star = index.elements, index.table, index.star_table
    domains = [action.domains[s] for s in elements]
    maps = [action.maps[s] for s in elements]
    # The intertwining law for (s, t) reads only s, X_t and X_{st}, so a
    # row is checked once per distinct pair of domains, and scanned pair by
    # pair only on a failure.
    ids = {}
    domain_id = [ids.setdefault(d, len(ids)) for d in domains]
    distinct = list(ids)
    for i, s in enumerate(elements):
        row, theta_s, source = table[i], maps[i], domains[star[i]]
        if -1 not in row and all(
                set(map(theta_s.__getitem__, source & distinct[a]))
                == domains[i] & distinct[b]
                for a, b in set(zip(domain_id,
                                    map(domain_id.__getitem__, row)))):
            continue
        for j, t in enumerate(elements):
            st = row[j]
            if st < 0:
                raise KeyError((s, t))
            lhs = set(map(theta_s.__getitem__, source & domains[j]))
            rhs = domains[i] & domains[st]
            if lhs != rhs:
                report.add(
                    f"theta_{stable(s)}(X_{{{stable(elements[star[i]])}}} & "
                    f"X_{{{stable(t)}}}) = {stable(lhs)} but "
                    f"X_{{{stable(s)}}} & X_{{{stable(elements[st])}}} = "
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
    including monotonicity along the natural order and, when the semigroup
    has a unit, the convention that the unit acts globally as identity."""
    report = ValidationReport(f"partial action {action.name}")
    s = action.semigroup
    unit = s.unit
    if unit is not None:
        if action.domains[unit] != frozenset(action.space):
            report.add("X_1 must be the whole space when the semigroup has a unit")
        elif action.maps[unit] != {x: x for x in action.space}:
            report.add("the unit must act as the identity map")
    _validate_maps(action, report)
    if not report.ok:
        return report
    elements, domains = s.elements, action.domains
    for i, j in sorted((s.index(a), s.index(b))
                       for a, b in s.natural_order().pairs if a != b):
        a, b = elements[i], elements[j]
        if not domains[a] <= domains[b]:
            report.add(f"monotonicity fails: {stable(a)} <= {stable(b)} but "
                       f"X_{{{stable(a)}}} is not contained in X_{{{stable(b)}}}")
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
    D_{s*} -> D_s is f -> f o theta_{s*} on X_s, zero elsewhere."""

    def __init__(self, action, ring):
        self.action = action
        self.index = action.index
        self.space = action.space
        self.ring = ring
        self.domains = action.domains

    def star(self, s):
        return self.index.star(s)

    def unit_element(self):
        return self.index.unit

    def domain_points(self, s):
        return self.action.domain_points(s)

    def alpha(self, s, f):
        if f.ring != self.ring:
            raise ValueError("function has the wrong scalar ring")
        if not f.vanishes_off(self.domains[self.star(s)]):
            raise ValueError(f"function is not in D_{{{self.star(s)}}}")
        theta_star = self.action.maps[self.star(s)]
        return SpaceFunction(self.ring,
                             {x: f(theta_star[x]) for x in self.domains[s]})


def induce_algebra_action(action, ring):
    """Build the algebra-level action and verify, on the indicator basis,
    that each alpha_s is a ring isomorphism from D_{s*} onto D_s.

    alpha_s sends the point mass at x in X_{s*} to the indicator of the y
    in X_s with theta_{s*}(y) = x, so it is checked as a point map: each x
    has one preimage and the images cover X_s.  As f_x f_y is f_x when
    x = y and 0 otherwise, multiplicativity on all pairs of point masses
    reduces to distinct points having distinct images.  That needs no
    check of its own: theta_{s*} sends each y to one point, so distinct
    points, once each has one preimage, have distinct preimages."""
    alg = AlgebraPartialAction(action, ring)
    for s in action.index.elements:
        points = action.domain_points(alg.star(s))
        theta_star, target = action.maps[alg.star(s)], alg.domains[s]
        preimages = {}
        if points:
            # theta_{s*} is read only where alpha_s has a point to act on.
            for y in target:
                preimages.setdefault(theta_star[y], []).append(y)
        images = []
        for x in points:
            found = preimages.get(x, ())
            if len(found) != 1:
                raise ValueError(f"alpha_{s} does not permute point masses")
            images.append(found[0])
        if set(images) != target:
            raise ValueError(f"alpha_{s} is not onto D_{{{s}}}")
    return alg
