"""Executable, certified algebra isomorphisms between partial skew rings
and Steinberg algebras, orbit equivalence by matching orbits,
groupoid-isomorphism search, and the realization of a Steinberg algebra
as a partial skew inverse semigroup ring.

Every map built here (rho, psi, psi~, and the transported Gamma and Phi)
sends point masses to point masses with coefficient 1, so an AlgebraMap
is given by target indices: targets[i] is the codomain basis index of the
image of e_i.  Every structural flag on an AlgebraMap is backed by an
exhaustive integer certificate on those indices and the factored products
of the two algebras, the same over every scalar ring; a flag is never
asserted without one.
"""

from __future__ import annotations

from collections import Counter
from math import lcm

from .groupoid_core import DEFAULT_BISECTION_BOUND
from .inverse_semigroups import bisection_semigroup
from .partial_actions import induce_algebra_action
from .scalars import points_at
from .skew_rings import CovarianceModule, build_ideal, build_quotient
from .steinberg_algebra import SteinbergAlgebra, split_levels
from .validation import BoundExceeded

DEFAULT_ISO_BOUND = 10
DEFAULT_ORBIT_BOUND = 6


class AlgebraMap:
    """A map between two based algebras sending each domain basis element
    e_i to the codomain basis element e_{targets[i]}, extended linearly.
    Every map of the paper (rho, psi, psi~, Gamma, Phi) has this form, so
    the certificates (homomorphism, injective, surjective,
    diagonal-preserving) are exhaustive integer checks on the targets and
    the factored products, the same over every ring.  They are computed on
    demand and cached with their counterexample."""

    def __init__(self, domain, codomain, targets, name="map"):
        self.domain = domain
        self.codomain = codomain
        self.targets = list(targets)
        self.name = name
        self.certificates = {}
        if len(self.targets) != domain.dim:
            raise ValueError("one target per domain basis element required")
        if not all(0 <= t < codomain.dim for t in self.targets):
            raise ValueError(f"{self.name} has a target outside the "
                             f"codomain basis of {codomain.dim}")

    def _store(self, kind, flag, detail):
        self.certificates[kind] = (flag, detail)
        return flag

    def _flag(self, kind):
        if kind not in self.certificates:
            raise RuntimeError(f"{kind} certificate not computed for {self.name}")
        return self.certificates[kind][0]

    @property
    def is_homomorphism(self):
        return self._flag("homomorphism")

    @property
    def is_injective(self):
        return self._flag("injective")

    @property
    def is_surjective(self):
        return self._flag("surjective")

    @property
    def preserves_diagonal(self):
        return self._flag("diagonal")

    def certify_homomorphism(self, rows=None):
        """Multiplicativity on the domain basis pairs (i, j) with i in
        rows, by default every index: e_{t(i)} e_{t(j)} must be e_{t(k)}
        where e_i e_j = e_k, and zero where e_i e_j = 0.  On a failure the
        detail names the first failing pair (i, j) in row-major order.

        rows may index a generating set of the domain when both algebras
        are associative: the x with m(x b) = m(x) m(b) for every b, m the
        map, form a subspace closed under products, as for x and y in it
        m((x y) b) = m(x (y b)) = m(x) m(y) m(b) = m(x y) m(b); so it is
        the whole domain once it holds the generators.

        In each algebra here e_i e_j is nonzero exactly when the row point
        of e_i is the column point of e_j.  So in row i, with t the target
        of i, the left side is nonzero exactly at the columns j at the row
        point of e_i, and the right side exactly at the j whose image has
        the row point of e_t as its column point.  Off the union of these
        two increasing lists both sides are zero.  The row holds when the
        two lists are equal and so are the values read along them; the
        least j of the union where the sides differ is the pair the scan
        over all columns would name first."""
        dom, cod, targets = self.domain, self.codomain, self.targets
        # The domain indices whose image has column point q, and their
        # images, by q.
        image_at = points_at([cod.col_points[t] for t in targets])
        images = {q: [targets[j] for j in columns]
                  for q, columns in image_at.items()}
        for i in range(dom.dim) if rows is None else rows:
            t = targets[i]
            columns = dom.at_point.get(dom.row_points[i], ())
            lhs = list(map(targets.__getitem__, dom.row_products(i)))
            p = cod.row_points[t]
            products = dict(zip(cod.at_point.get(p, ()), cod.row_products(t)))
            rhs = list(map(products.__getitem__, images.get(p, ())))
            if columns != image_at.get(p, ()) or lhs != rhs:
                left = dict(zip(columns, lhs))
                right = dict(zip(image_at.get(p, ()), rhs))
                j = min(j for j in left.keys() | right.keys()
                        if left.get(j) != right.get(j))
                return self._store(
                    "homomorphism", False,
                    f"fails on basis pair ({dom.basis_labels[i]}, "
                    f"{dom.basis_labels[j]})")
        return self._store("homomorphism", True, None)

    def derive_homomorphism(self, premises):
        """Record the homomorphism certificate as derived, not computed:
        premises are (name, flag) pairs from which the caller has shown
        that the map is a homomorphism.  It passes when every premise
        does; otherwise the detail names the first that failed."""
        failed = next((name for name, flag in premises if not flag), None)
        return self._store("homomorphism", failed is None, None if failed
                           is None else f"not derived: {failed} failed")

    def certify_injective(self):
        """Distinct targets.  Otherwise the kernel vector reported is
        e_a - e_m, for the smallest a whose target a later index shares
        and the largest m with that target: the first row of the reduced
        echelon basis of the kernel."""
        last = {t: i for i, t in enumerate(self.targets)}
        for a, t in enumerate(self.targets):
            m = last[t]
            if m != a:
                labels = self.domain.basis_labels
                return self._store("injective", False,
                                   f"kernel vector 1*{labels[a]} + "
                                   f"-1*{labels[m]}")
        return self._store("injective", True, None)

    def certify_surjective(self):
        rank = len(set(self.targets))
        if rank == self.codomain.dim:
            return self._store("surjective", True, None)
        return self._store("surjective", False,
                           f"image has rank {rank} < {self.codomain.dim}")

    def certify_diagonal(self):
        """The image of the domain diagonal equals the codomain diagonal:
        every diagonal basis element lands on the diagonal, and the
        diagonal is covered."""
        cod_diag = set(self.codomain.diagonal_indices())
        covered = set()
        for i in self.domain.diagonal_indices():
            t = self.targets[i]
            if t not in cod_diag:
                return self._store(
                    "diagonal", False,
                    f"image of diagonal basis {self.domain.basis_labels[i]} "
                    f"leaks to {self.codomain.basis_labels[t]}")
            covered.add(t)
        if len(covered) != len(cod_diag):
            return self._store(
                "diagonal", False,
                f"diagonal image has rank {len(covered)} < {len(cod_diag)}")
        return self._store("diagonal", True, None)

    def certify_all(self):
        self.certify_homomorphism()
        self.certify_injective()
        self.certify_surjective()
        self.certify_diagonal()
        return self

    @property
    def is_isomorphism(self):
        return self.is_homomorphism and self.is_injective and self.is_surjective

    def inverse(self):
        """The inverse map, the inverse permutation of the targets;
        requires a bijective map."""
        n, m = self.codomain.dim, self.domain.dim
        if n != m:
            raise ValueError(f"{self.name} maps dimension {m} to {n}; "
                             "not invertible")
        if len(set(self.targets)) != n:
            raise ValueError(f"{self.name} is not surjective; no inverse")
        targets = [0] * n
        for i, t in enumerate(self.targets):
            targets[t] = i
        return AlgebraMap(self.codomain, self.domain, targets,
                          name=f"{self.name}^-1")

    def compose(self, inner, name=None):
        """self o inner.  The middle algebras must agree structurally
        (same basis), not necessarily as objects."""
        if inner.codomain.basis_labels != self.domain.basis_labels:
            raise ValueError("composition domains do not match")
        return AlgebraMap(inner.domain, self.codomain,
                          [self.targets[t] for t in inner.targets],
                          name=name or f"{self.name}o{inner.name}")

    def __repr__(self):
        return (f"AlgebraMap({self.name}: {self.domain.dim} -> "
                f"{self.codomain.dim})")


# ---------------------------------------------------------------------------
# The skew group ring <-> Steinberg algebra isomorphism for a partial
# group action.
# ---------------------------------------------------------------------------

def rho(action, groupoid, module=None):
    """The isomorphism from the partial skew group ring onto the Steinberg
    algebra of groupoid, the transformation groupoid of the action.  On
    basis elements it sends the point mass at x in D_g (times delta_g) to
    the point mass at the arrow (g, x).  All four certificates are
    computed exhaustively."""
    if module is None:
        module = CovarianceModule(induce_algebra_action(action))
    algebra = SteinbergAlgebra(groupoid)
    targets = [groupoid.index(label) for label in module.basis_labels]
    return AlgebraMap(module, algebra, targets, name="rho").certify_all()


# ---------------------------------------------------------------------------
# Continuous orbit equivalence of partial group actions.
# ---------------------------------------------------------------------------

class OrbitEquivalenceData:
    """A bijection of the spaces plus the two pointwise cocycles."""

    def __init__(self, phi, a, b):
        self.phi = dict(phi)
        self.a = dict(a)
        self.b = dict(b)

    def __repr__(self):
        return f"OrbitEquivalenceData(phi={self.phi})"


def verify_orbit_equivalence(theta, gamma, data):
    """Exhaustively check both intertwining identities and the implicit
    containments; returns (ok, first violation or None)."""
    x_space, y_space = set(theta.space), set(gamma.space)
    phi = data.phi
    if set(phi) != x_space or set(phi.values()) != y_space \
            or len(set(phi.values())) != len(phi):
        return (False, "phi is not a bijection between the spaces")
    g_grp, h_grp = theta.group, gamma.group
    g_set, h_set = set(g_grp.elements), set(h_grp.elements)
    for g in g_grp.elements:
        for x in theta.domain_points(g_grp.inv(g)):
            h = data.a.get((g, x))
            if h is None or h not in h_set:
                return (False, f"cocycle a undefined on ({g}, {x})")
            if phi[x] not in gamma.domains[h_grp.inv(h)]:
                return (False, f"a({g}, {x}) = {h} but phi({x}) is outside "
                               f"the domain of gamma_{h}")
            if gamma.theta(h, phi[x]) != phi[theta.theta(g, x)]:
                return (False, f"phi(theta_{g}({x})) != "
                               f"gamma_{h}(phi({x}))")
    phi_inv = {y: x for x, y in phi.items()}
    for h in h_grp.elements:
        for y in gamma.domain_points(h_grp.inv(h)):
            g = data.b.get((h, y))
            if g is None or g not in g_set:
                return (False, f"cocycle b undefined on ({h}, {y})")
            if phi_inv[y] not in theta.domains[g_grp.inv(g)]:
                return (False, f"b({h}, {y}) = {g} but phi^-1({y}) is outside "
                               f"the domain of theta_{g}")
            if theta.theta(g, phi_inv[y]) != phi_inv[gamma.theta(h, y)]:
                return (False, f"phi^-1(gamma_{h}({y})) != "
                               f"theta_{g}(phi^-1({y}))")
    return (True, None)


def _orbits(action):
    """Point -> its orbit {theta_g(x) : g in G, x in X_{g^-1}}, as a
    frozenset."""
    group = action.group
    orbits = {x: {x} for x in action.space}
    for g in group.elements:
        for x in action.domain_points(group.inv(g)):
            orbits[x].add(action.theta(g, x))
    return {x: frozenset(orbit) for x, orbit in orbits.items()}


def _cocycle(theta, gamma, phi):
    """(g, x) -> the first h with gamma_h(phi(x)) = phi(theta_g(x)), for
    every g and x in X_{g^-1}; None when some pair has no such h."""
    g_grp, h_grp = theta.group, gamma.group
    cocycle = {}
    for g in g_grp.elements:
        for x in theta.domain_points(g_grp.inv(g)):
            target = phi[theta.theta(g, x)]
            h = next((h for h in h_grp.elements
                      if phi[x] in gamma.domains[h_grp.inv(h)]
                      and gamma.theta(h, phi[x]) == target), None)
            if h is None:
                return None
            cocycle[(g, x)] = h
    return cocycle


def search_orbit_equivalence(theta, gamma, bound=DEFAULT_ORBIT_BOUND):
    """The lexicographically first orbit equivalence, in the order of
    permutations(gamma.space), with its pointwise cocycles; None when
    there is none.

    For a partial action, R = {(x, theta_g(x)) : x in X_{g^-1}} is an
    equivalence relation whose classes are the orbits.  The cocycles a
    and b make phi x phi carry R_theta onto R_gamma, so a witness phi
    maps each orbit onto an orbit.  Conversely, every bijection that maps
    orbits onto orbits has both cocycles, chosen pointwise.  So a witness
    exists exactly when the point counts and the sorted orbit-size lists
    agree.  They are compared before the bound applies, and a mismatch
    returns None at once.

    phi is built point by point, in the order of theta.space.  Each x
    takes the first unused y in the orbit already matched to the orbit of
    x; when that orbit is not matched yet, x takes the first y whose
    orbit is unmatched and of the same size.  Each choice leaves the rest
    completable, as the unmatched orbits on the two sides keep equal
    size lists, so phi is the first orbit-preserving bijection in
    permutations order.  On input that is not a partial action the
    construction can fail; then the result is None."""
    n = len(theta.space)
    if n != len(gamma.space):
        return None
    x_orbits, y_orbits = _orbits(theta), _orbits(gamma)
    if sorted(map(len, x_orbits.values())) != \
            sorted(map(len, y_orbits.values())):
        return None
    if n > bound:
        raise BoundExceeded(f"spaces too large: {n} points "
                            f"exceeds orbit bound {bound}")
    phi, phi_inv, matched, images = {}, {}, {}, set()
    for x in theta.space:
        orbit = x_orbits[x]
        if orbit in matched:
            fits = (y for y in gamma.space if y_orbits[y] == matched[orbit])
        else:
            fits = (y for y in gamma.space if y_orbits[y] not in images
                    and len(y_orbits[y]) == len(orbit))
        y = next((y for y in fits if y not in phi_inv), None)
        if y is None:
            return None
        phi[x], phi_inv[y] = y, x
        matched.setdefault(orbit, y_orbits[y])
        images.add(y_orbits[y])
    a = _cocycle(theta, gamma, phi)
    b = _cocycle(gamma, theta, phi_inv)
    if a is None or b is None:
        return None
    return OrbitEquivalenceData(phi, a, b)


# ---------------------------------------------------------------------------
# Groupoid isomorphism search.
# ---------------------------------------------------------------------------

class GroupoidIsomorphism:
    """An arrow bijection carrying units to units, preserving range and
    source, and multiplicative on composable pairs."""

    def __init__(self, mapping):
        self.mapping = dict(mapping)

    def __call__(self, arrow):
        return self.mapping[arrow]

    def __repr__(self):
        return f"GroupoidIsomorphism({len(self.mapping)} arrows)"


def _unit_profiles(g):
    """Unit -> (isotropy group order, number of arrows with that range,
    sorted element orders of the isotropy group).  g must pass
    validate_groupoid, so the isotropy at u, the arrows b with
    r(b) = s(b) = u, is a group with identity u, and the order of b is
    the least k <= |H| with b^k = u, read off the composition table."""
    fibre = Counter(g.range(b) for b in g.arrows)
    isotropy = {u: [] for u in g.units}
    for b in g.arrows:
        if g.range(b) == g.source(b):
            isotropy[g.range(b)].append(b)
    compose = g.compose_table
    profiles = {}
    for u, members in isotropy.items():
        orders = []
        for b in members:
            power, k = b, 1
            while power != u:
                power, k = compose[(power, b)], k + 1
            orders.append(k)
        profiles[u] = (len(members), fibre[u], tuple(sorted(orders)))
    return profiles


def search_groupoid_isomorphism(g1, g2, bound=DEFAULT_ISO_BOUND):
    """Backtracking over arrow bijections, units first, pruned by the
    unit/range/source/inverse/composition constraints; sound and complete
    within the bound.  Returns the lexicographically first witness or None.

    An isomorphism preserves range and source, so it maps the isotropy
    group and the range fibre of each unit u bijectively onto those of its
    image, the group isomorphically: units keep their profile (isotropy
    order, range fibre size, element orders of the isotropy group).
    Hence the arrow and unit counts and the sorted profile lists of
    isomorphic groupoids agree; they are compared before the bound
    applies, and a mismatch returns None without searching.  These checks
    only reject pairs that have no witness, so the verdict and the first
    witness are those of the search alone.

    The witness is not verified here.  On point masses, a map that is a
    homomorphism, injective, surjective and diagonal-preserving is
    exactly a groupoid isomorphism, so steinberg_transport's certificates
    are the witness's."""
    if g1.n_arrows != g2.n_arrows or len(g1.units) != len(g2.units):
        return None
    if sorted(_unit_profiles(g1).values()) != \
            sorted(_unit_profiles(g2).values()):
        return None
    if g1.n_arrows > bound:
        raise BoundExceeded(f"groupoids too large: {g1.n_arrows} arrows "
                            f"exceeds iso bound {bound}")

    order1 = g1.sort_arrows(g1.units) + \
        [a for a in g1.arrows if not g1.is_unit(a)]
    units2 = [a for a in g2.arrows if g2.is_unit(a)]
    nonunits2 = [a for a in g2.arrows if not g2.is_unit(a)]

    mapping = {}
    used = set()

    def consistent(a, b):
        if g1.is_unit(a) != g2.is_unit(b):
            return False
        ra, sa = g1.range(a), g1.source(a)
        if ra in mapping and mapping[ra] != g2.range(b):
            return False
        if sa in mapping and mapping[sa] != g2.source(b):
            return False
        inv_a = g1.inverse(a)
        if inv_a in mapping and mapping[inv_a] != g2.inverse(b):
            return False
        for a2, b2 in mapping.items():
            if g1.composable(a, a2) != g2.composable(b, b2):
                return False
            if g1.composable(a2, a) != g2.composable(b2, b):
                return False
            if g1.composable(a, a2):
                c = g1.compose(a, a2)
                if c in mapping and mapping[c] != g2.compose(b, b2):
                    return False
            if g1.composable(a2, a):
                c = g1.compose(a2, a)
                if c in mapping and mapping[c] != g2.compose(b2, b):
                    return False
        return True

    def backtrack(pos):
        if pos == len(order1):
            return True
        a = order1[pos]
        candidates = units2 if g1.is_unit(a) else nonunits2
        for b in candidates:
            if b in used or not consistent(a, b):
                continue
            mapping[a] = b
            used.add(b)
            if backtrack(pos + 1):
                return True
            del mapping[a]
            used.discard(b)
        return False

    if backtrack(0):
        return GroupoidIsomorphism(mapping)
    return None


# ---------------------------------------------------------------------------
# Transport of isomorphisms along a groupoid isomorphism.
# ---------------------------------------------------------------------------

def steinberg_transport(iso, algebra1, algebra2):
    """Pull a groupoid isomorphism back to a diagonal-preserving algebra
    isomorphism of the Steinberg algebras (point masses map to point
    masses)."""
    targets = [algebra2.groupoid.index(iso(a)) for a in algebra1.basis_labels]
    return AlgebraMap(algebra1, algebra2, targets, name="Gamma").certify_all()


def transported_skew_isomorphism(rho1, rho2, gamma):
    """The induced isomorphism of the partial skew group rings carrying the
    coefficient algebra onto the coefficient algebra: the composite of
    rho1, the Steinberg-level transport, and the inverse of rho2."""
    composite = rho2.inverse().compose(gamma.compose(rho1), name="Phi")
    return composite.certify_all()


# ---------------------------------------------------------------------------
# The bisection action (the intrinsic partial action of the inverse
# semigroup of bisections on the unit space) and the skew realization of a
# Steinberg algebra.
# ---------------------------------------------------------------------------

def bisection_action(groupoid, semigroup):
    """The partial action of semigroup, the bisection semigroup of
    groupoid (bisection_semigroup), on the unit space:
    a bisection B acts by source-fiber-to-range-fiber transport, sending
    s(b) to r(b) for each arrow b in B.  The domain attached to B is r(B),
    read off the semigroup's arrow indices (BisectionAction).

    For a groupoid that passed validate_groupoid this is a partial action
    of the inverse semigroup S that bisection_semigroup builds (Exel,
    Inverse semigroups and combinatorial C*-algebras, 2008), so it is not
    validated again.  theta_B is a bijection s(B) -> r(B), as r and s are
    injective on B, with inverse theta_{B*}, as r(b*) = s(b).
    X_{B*} & X_C = s(B) & r(C), and BC has an arrow bc exactly when
    s(b) = r(c) lies there, with range r(b) = theta_B(s(b)); so
    theta_B(X_{B*} & X_C) = r(BC) = X_B & X_{BC}, r(BC) lying in r(B).
    For x in X_{C*} & X_{(BC)*} = s(BC), the arrow bc of BC with source x
    has s(c) = x, so theta_B theta_C(x) = theta_B(r(c)) = r(b) = r(bc) =
    theta_{BC}(x).  The unit of S is G0, with domain X = G0, and it
    acts as the identity."""
    return BisectionAction(groupoid, semigroup)


class BisectionAction:
    """The bisection action on the units of groupoid in canonical order,
    with no per-bisection copy of the arrows that index keeps."""

    def __init__(self, groupoid, semigroup):
        self.groupoid = groupoid
        self.index = semigroup
        self.space = groupoid.sort_arrows(groupoid.units)

    def star_graph(self, e):
        """The pairs (r(b), s(b)) = (x, theta_{B*}(x)) over the arrows b of
        element e, as positions of units, in increasing r(b)."""
        index = self.index
        return [(index._range[a], index._source[a]) for a in index._arrows[e]]


class SkewRealization:
    """Everything produced while realizing a Steinberg algebra as a partial
    skew inverse semigroup ring: the bisection semigroup, the covariance
    module L of its action, the ideal I, the quotient L/I, and the certified
    maps psi (on L) and psi_tilde (on L/I)."""

    def __init__(self, groupoid, semigroup, module, ideal, quotient,
                 steinberg, psi_map, psi_tilde):
        self.groupoid = groupoid
        self.semigroup = semigroup
        self.module = module
        self.ideal = ideal
        self.quotient = quotient
        self.steinberg = steinberg
        self.psi_map = psi_map
        self.psi_tilde = psi_tilde

    @property
    def dimension_ledger(self):
        """(dim L, dim I, dim L/I, dim A_R(G))."""
        return (self.module.dim, self.ideal.dimension,
                self.quotient.dim, self.steinberg.dim)

    def psi_vanishes_on_ideal(self):
        """Check psi = 0 on the ideal.  I is a congruence on the basis of
        L, spanned by the rows e_a - e_rep(a); psi sends each row to zero
        iff a and rep(a) share a target."""
        targets = self.psi_map.targets
        return all(targets[a] == targets[r]
                   for a, r in enumerate(self.ideal.rep) if a != r)

    def phi_values(self, values):
        """phi of the function with the given nonzero values on arrow
        indices, as {quotient index: sum of values}, the sums not reduced
        in the ring and zeros kept.  Each block B of split_levels, with
        value r, adds r at the class of (B, r(b)) for each arrow b of B,
        the basis index of L at the point r(b) and the element of bitmask
        B.  The classes are read from the quotient on each call."""
        semigroup, basis_at = self.semigroup, self.module._basis_at
        position, ranges = semigroup._position, semigroup._range
        cls, out = self.quotient._class, {}
        for block, value in split_levels(values, ranges, semigroup._source):
            mask = 0
            for i in block:
                mask |= 1 << i
            e = position[mask]
            for i in block:
                q = cls[basis_at[ranges[i]][e]]
                out[q] = out[q] + value if q in out else value
        return out


def psi(groupoid, groupoid_report,
        bisection_bound=DEFAULT_BISECTION_BOUND):
    """Realize the Steinberg algebra of a finite groupoid as a partial skew
    inverse semigroup ring over its bisection semigroup.

    The map psi sends the basis element (point mass at u) delta_B to the
    point mass at the unique arrow of B with range u; it is certified
    multiplicative and surjective, vanishes on the ideal, and descends to
    the certified isomorphism psi_tilde on the quotient.

    groupoid_report is the report of validate_groupoid on groupoid, the
    one premise of L's associativity (module.premises): the bisections
    form an inverse semigroup and act partially on the unit space by
    construction (see bisection_semigroup and bisection_action), so
    neither is validated again.  When it passes, module.associative is
    True, and psi's certificate and the two-sidedness of I read only the
    generator rows of L (CovarianceModule.generator_basis); psi_tilde's
    homomorphism is derived from them.  Works over any scalar ring.
    """
    semigroup = bisection_semigroup(groupoid, bisection_bound)
    module = CovarianceModule(induce_algebra_action(
        bisection_action(groupoid, semigroup)))
    module.verify_associativity((groupoid_report,))
    steinberg = SteinbergAlgebra(groupoid)

    # (B, u) goes to the arrow of B with range u, its column point: L
    # lists the (B, r(b)) in the order of semigroup._arrows (star_graph).
    targets = [a for arrows in semigroup._arrows for a in arrows]
    psi_map = AlgebraMap(module, steinberg, targets, name="psi")
    # A_R(G) is associative as the groupoid is, and L by its premise, so
    # the generator rows of L suffice (module.generator_basis).
    psi_map.certify_homomorphism(module.generator_basis())
    psi_map.certify_injective()
    psi_map.certify_surjective()

    ideal = build_ideal(module)
    quotient = build_quotient(module, ideal)
    # The class of a basis element goes where its representative goes.
    psi_tilde = AlgebraMap(quotient, steinberg,
                           [targets[a] for a in quotient.representatives],
                           name="psi~")
    realization = SkewRealization(groupoid, semigroup, module, ideal,
                                  quotient, steinberg, psi_map, psi_tilde)
    # psi~(pi(a) pi(b)) = psi~(pi(ab)) = psi(ab) = psi(a) psi(b): the
    # first step is representative independence, which build_quotient
    # checked, the second is psi vanishing on I, the third psi's
    # homomorphism.
    psi_tilde.derive_homomorphism(
        (("representative_independence",
          quotient.representative_independence_violation is None),
         ("psi_homomorphism", psi_map.is_homomorphism),
         ("psi_vanishes_on_ideal", realization.psi_vanishes_on_ideal())))
    psi_tilde.certify_injective()
    psi_tilde.certify_surjective()
    return realization


def verify_phi_left_inverse(realization):
    """phi o psi_tilde must fix every quotient basis class: phi of the
    point mass at each arrow psi~(e_q), read by phi_values, must be the
    class q with coefficient 1.  A point mass is one block of split_levels,
    so phi_values gives it one class with coefficient 1 over every ring."""
    labels = realization.quotient.basis_labels
    for q, t in enumerate(realization.psi_tilde.targets):
        (got, c), = realization.phi_values({t: 1}).items()
        if got != q:
            return (False, f"phi(psi~(e_{q})) = {c}*{labels[got]}")
    return (True, None)


PHI_TRIALS = 200


def verify_phi_additive(realization, ring, rng):
    """phi(f + g) = phi(f) + phi(g) as classes, on PHI_TRIALS random
    pairs over ring.  Each pair is drawn as values on arrow indices, by
    the calls of rng that random GroupoidFunctions would make: for each
    arrow in order, a coin and, on heads, ring.random_value's draw, kept
    when nonzero.  The pair's values are then scaled by the least common
    multiple of their denominators (1 outside Q), which keeps the answer
    of every sum, equality and zero test, so the trial runs on integers."""
    n, modulus = realization.steinberg.dim, ring.modulus

    def draw():
        values = {}
        for i in range(n):
            if rng.random() < 0.5:
                v = ring.random_value(rng)
                if v:
                    values[i] = v
        return values

    def nonzero(sums):
        # Reduced mod the modulus (None outside Z/n), zeros dropped.
        if modulus:
            sums = {q: v % modulus for q, v in sums.items()}
        return {q: v for q, v in sums.items() if v}

    phi = realization.phi_values
    for trial in range(PHI_TRIALS):
        f, g = draw(), draw()
        scale = lcm(*(v.denominator for v in (*f.values(), *g.values())))
        f, g = ({i: v.numerator * (scale // v.denominator)
                 for i, v in values.items()} for values in (f, g))
        total = dict(f)
        for i, v in g.items():
            total[i] = total[i] + v if i in total else v
        rhs = phi(f)
        for q, v in phi(g).items():
            rhs[q] = rhs[q] + v if q in rhs else v
        if nonzero(phi(nonzero(total))) != nonzero(rhs):
            return (False, f"additivity fails at trial {trial}")
    return (True, None)
