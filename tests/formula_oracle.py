"""The paper's formulas computed on labels, as references for the index
arithmetic of the engine.

- Bisections as sets of arrows, on which range and source are injective
  (`is_bisection`): BC = {bc : b in B, c in C, s(b) = r(c)}, B^-1 and
  s(B).  `bisection_semigroup` computes its products on arrow bitmasks
  and must agree.
- The isotropy group at a unit, as a validated `FiniteGroup` read off the
  composition table (`isotropy_group`).  The groupoid search reads the
  element orders of each isotropy group straight off the table, and
  must agree.
- Formal sums a_s delta_s over a partial action, with functions on the
  space as coefficients, and the twisted product
  (a_s delta_s)(a_t delta_t) = alpha_s(alpha_{s*}(a_s) a_t) delta_{st}.
  L keeps this product factored, on basis indices, and must agree.
- rho_inverse, which reads a function on the transformation groupoid as a
  formal sum, and the two round trips through it that `cmd_theorem3`
  once ran object by object.  The CLI now compares labels through
  rho's targets, and must give the same rows.
"""

from families import group_from_products, label_view, mul, point_mass
from groupoidal.steinberg_algebra import GroupoidFunction
from groupoidal.validation import stable


def is_bisection(g, arrow_set):
    """True iff range and source are both injective on the subset."""
    ranges = [g.range(a) for a in arrow_set]
    sources = [g.source(a) for a in arrow_set]
    return len(set(ranges)) == len(ranges) and len(set(sources)) == len(sources)


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


def source_set(g, bis):
    return frozenset(g.source(b) for b in bis)


def isotropy_group(g, u):
    """The isotropy group at a unit: all arrows with range = source = u,
    as a FiniteGroup with identity u, read off the composition table."""
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
    return group_from_products(members, table, name=f"isotropy@{u}")


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


def alpha(algebra_action, s, f):
    """alpha_s: D_{s*} -> D_s, f -> f o theta_{s*} on X_s, zero elsewhere,
    over f's ring."""
    alg = algebra_action
    action = label_view(alg.action)
    if not f.vanishes_off(action.domains[alg.index.star(s)]):
        raise ValueError(f"function is not in D_{{{alg.index.star(s)}}}")
    theta_star = action.maps[alg.index.star(s)]
    return SpaceFunction(f.ring,
                         {x: f(theta_star[x]) for x in action.domains[s]})


class SkewElement:
    """A finite formal sum of terms a_s delta_s with a_s supported in X_s,
    the coefficients over one ring."""

    __slots__ = ("algebra_action", "terms")

    def __init__(self, algebra_action, terms):
        self.algebra_action = algebra_action
        pruned = {}
        domains = label_view(algebra_action.action).domains
        if len({f.ring for f in terms.values()}) > 1:
            raise ValueError("coefficients over different scalar rings")
        for s, f in terms.items():
            if not f.vanishes_off(domains[s]):
                raise ValueError(f"coefficient of delta_{stable(s)} does not "
                                 f"vanish off X_{{{stable(s)}}}")
            if f:
                pruned[s] = f
        self.terms = pruned

    @classmethod
    def zero(cls, algebra_action):
        return cls(algebra_action, {})

    @classmethod
    def basis(cls, algebra_action, ring, s, x, coeff=None):
        mass = SpaceFunction.point_mass(ring, x, coeff)
        return cls(algebra_action, {s: mass})

    def _compatible(self, other):
        if self.algebra_action is not other.algebra_action:
            raise ValueError("skew elements over different actions")

    def __add__(self, other):
        self._compatible(other)
        out = dict(self.terms)
        for s, f in other.terms.items():
            out[s] = out[s] + f if s in out else f
        return SkewElement(self.algebra_action, out)

    def __neg__(self):
        return SkewElement(self.algebra_action,
                           {s: -f for s, f in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, coeff):
        return SkewElement(self.algebra_action,
                           {s: f.scale(coeff) for s, f in self.terms.items()})

    def __mul__(self, other):
        return skew_multiply(self, other)

    def __eq__(self, other):
        return (isinstance(other, SkewElement)
                and self.algebra_action is other.algebra_action
                and self.terms == other.terms)

    def __bool__(self):
        return bool(self.terms)

    def __repr__(self):
        parts = " + ".join(f"{f!r}d[{s}]" for s, f in self.terms.items())
        return f"SkewElement({parts or '0'})"


def skew_multiply(x, y):
    """The linear extension of
    (a_s delta_s)(a_t delta_t) = alpha_s(alpha_{s*}(a_s) a_t) delta_{st}."""
    x._compatible(y)
    alg = x.algebra_action
    index = alg.index
    acc = {}
    for s, a_s in x.terms.items():
        for t, a_t in y.terms.items():
            st = mul(index, s, t)
            coeff = alpha(alg, s, alpha(alg, alg.index.star(s), a_s) * a_t)
            if coeff:
                acc[st] = acc[st] + coeff if st in acc else coeff
    return SkewElement(alg, acc)


def rho_inverse(f, module):
    """Recover the formal sum from a function on the transformation
    groupoid: the delta_g coefficient at x is the value at the arrow
    (g, x), over f's ring."""
    terms = {}
    for (g, x), c in f.values.items():
        terms.setdefault(g, {})[x] = c
    return SkewElement(module.algebra_action,
                       {g: SpaceFunction(f.ring, vals)
                        for g, vals in terms.items()})


def round_trip_rows(module, rho_map, ring):
    """The rows round_trip_skew_to_steinberg and
    round_trip_steinberg_to_skew as (name, passed, detail), computed object
    by object over ring through rho_inverse and SkewElement."""
    algebra = rho_map.codomain
    ok = True
    for i, (g, x) in enumerate(module.basis_labels):
        # rho sends the basis element e_i to the point mass at targets[i].
        image = point_mass(
            algebra.groupoid, ring, algebra.basis_labels[rho_map.targets[i]])
        if rho_inverse(image, module) != SkewElement.basis(
                module.algebra_action, ring, g, x):
            ok = False
            break
    rows = [("round_trip_skew_to_steinberg", ok,
             "rho_inverse(rho(e)) = e on the full basis" if ok else
             f"round trip fails on basis {module.basis_labels[i]}")]

    ok = True
    for arrow in algebra.basis_labels:
        mass = point_mass(algebra.groupoid, ring, arrow)
        # rho maps each term c e_(g, x) to c times the point mass at
        # targets[label_index(g, x)].
        image = {}
        for g, f in rho_inverse(mass, module).terms.items():
            for x, c in f.values.items():
                target = algebra.basis_labels[
                    rho_map.targets[module.label_index(g, x)]]
                image[target] = image[target] + c if target in image else c
        if GroupoidFunction(algebra.groupoid, ring, image) != mass:
            ok = False
            break
    rows.append(("round_trip_steinberg_to_skew", ok,
                 "rho(rho_inverse(f)) = f on the full basis" if ok else
                 f"round trip fails on arrow {arrow}"))
    return rows
