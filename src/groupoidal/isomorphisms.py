"""Executable, certified algebra isomorphisms between partial skew rings
and Steinberg algebras, orbit equivalence by matching orbits,
groupoid-isomorphism search, the realization of a Steinberg algebra as a
partial skew inverse semigroup ring, and brute-force group-ring probes.

Every map built here (rho, psi, psi~, and the transported Gamma and Phi)
sends point masses to point masses with coefficient 1, so an AlgebraMap
is given by target indices: targets[i] is the codomain basis index of the
image of e_i.  Every structural flag on an AlgebraMap is backed by an
exhaustive integer certificate on those indices and the product tables of
the two algebras, the same over every scalar ring; a flag is never
asserted without one.
"""

from __future__ import annotations

from collections import Counter
from itertools import product

from .groupoid_core import (DEFAULT_BISECTION_BOUND, isotropy_group,
                            range_set)
from .inverse_semigroups import (bisection_semigroup,
                                 validate_inverse_semigroup)
from .partial_actions import (SemigroupPartialAction, SpaceFunction,
                              induce_algebra_action,
                              validate_isg_partial_action)
from .scalars import zero_vector
from .skew_rings import (CovarianceModule, SkewElement, build_ideal,
                         build_quotient)
from .steinberg_algebra import (GroupoidFunction, SteinbergAlgebra,
                                disjoint_decomposition)
from .transformation_groupoid import build_transformation_groupoid
from .validation import BoundExceeded

DEFAULT_ISO_BOUND = 10
DEFAULT_ORBIT_BOUND = 6


class AlgebraMap:
    """A map between two based algebras sending each domain basis element
    e_i to the codomain basis element e_{targets[i]}, extended linearly.
    Every map of the paper (rho, psi, psi~, Gamma, Phi) has this form, so
    the certificates (homomorphism, injective, surjective,
    diagonal-preserving) are exhaustive integer checks on the targets and
    the product tables, the same over every ring.  They are computed on
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

    def apply(self, vec):
        ring = self.codomain.ring
        out = [ring.zero()] * self.codomain.dim
        for t, c in zip(self.targets, vec):
            if c:
                out[t] = out[t] + c
        return out

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

    def certify_homomorphism(self):
        """Exhaustive multiplicativity on all domain basis pairs:
        e_{t(i)} e_{t(j)} must be e_{t(k)} where e_i e_j = e_k, and zero
        where e_i e_j = 0.

        In each algebra here e_i e_j is nonzero exactly when the row point
        of e_i is the column point of e_j.  So the nonzero products are
        checked one by one, and the zero products at once: they map to
        zero when one injective point map carries the row and column
        points of every e_i to those of its image, as distinct points then
        stay distinct.  When either check fails, the scan over all pairs in
        row-major order runs, to name the first failing pair."""
        if self._keeps_zero_products() and self._keeps_nonzero_products():
            return self._store("homomorphism", True, None)
        targets = self.targets
        # Index -1 (a zero product) reads the appended -1.  Rows may be
        # arrays, so both sides are gathered into lists.
        image = targets + [-1]
        for i in range(self.domain.dim):
            cod_row = self.codomain.row(targets[i])
            lhs = list(map(image.__getitem__, self.domain.row(i)))
            rhs = list(map(cod_row.__getitem__, targets))
            if lhs != rhs:
                j = next(j for j, (a, b) in enumerate(zip(lhs, rhs)) if a != b)
                return self._store(
                    "homomorphism", False,
                    f"fails on basis pair ({self.domain.basis_labels[i]}, "
                    f"{self.domain.basis_labels[j]})")
        return self._store("homomorphism", True, None)

    def _keeps_zero_products(self):
        dom, cod = self.domain, self.codomain
        if dom.row_points is None or cod.row_points is None:
            return False
        point_map = {}
        for points, images in ((dom.row_points, cod.row_points),
                               (dom.col_points, cod.col_points)):
            for p, q in zip(points, map(images.__getitem__, self.targets)):
                if point_map.setdefault(p, q) != q:
                    return False
        return len(set(point_map.values())) == len(point_map)

    def _keeps_nonzero_products(self):
        dom, cod, targets = self.domain, self.codomain, self.targets
        # The images of the columns at each point of the domain.
        images = {p: [targets[j] for j in columns]
                  for p, columns in dom.at_point.items()}
        for i, t in enumerate(targets):
            lhs = list(map(targets.__getitem__, dom.row_products(i)))
            if lhs != cod.products(t, images.get(dom.row_points[i], ())):
                return False
        return True

    def certify_injective(self):
        """Distinct targets.  Otherwise the kernel vector reported is
        e_a - e_m, for the smallest a whose target a later index shares
        and the largest m with that target: the first row of the reduced
        echelon basis of the kernel."""
        last = {t: i for i, t in enumerate(self.targets)}
        for a, t in enumerate(self.targets):
            m = last[t]
            if m != a:
                one = self.domain.ring.one()
                labels = self.domain.basis_labels
                return self._store("injective", False,
                                   f"kernel vector {one}*{labels[a]} + "
                                   f"{-one}*{labels[m]}")
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

    def inverse(self, name=None):
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
                          name=name or f"{self.name}^-1")

    def compose(self, inner, name=None):
        """self o inner.  The middle algebras must agree structurally
        (same ring and basis), not necessarily as objects."""
        if (inner.codomain.ring != self.domain.ring
                or inner.codomain.basis_labels != self.domain.basis_labels):
            raise ValueError("composition domains do not match")
        return AlgebraMap(inner.domain, self.codomain,
                          [self.targets[t] for t in inner.targets],
                          name=name or f"{self.name}o{inner.name}")

    def is_identity(self):
        return (self.domain.dim == self.codomain.dim
                and self.targets == list(range(self.domain.dim)))

    def __repr__(self):
        return (f"AlgebraMap({self.name}: {self.domain.dim} -> "
                f"{self.codomain.dim})")


# ---------------------------------------------------------------------------
# The skew group ring <-> Steinberg algebra isomorphism for a partial
# group action.
# ---------------------------------------------------------------------------

def rho(action, ring, module=None, groupoid=None):
    """The isomorphism from the partial skew group ring onto the Steinberg
    algebra of the transformation groupoid.  On basis elements it sends the
    point mass at x in D_g (times delta_g) to the point mass at the arrow
    (g, x).  All four certificates are computed exhaustively."""
    if module is None:
        module = CovarianceModule(induce_algebra_action(action, ring))
    if groupoid is None:
        groupoid = build_transformation_groupoid(action)
    algebra = SteinbergAlgebra(groupoid, ring)
    targets = [groupoid.index(label) for label in module.basis_labels]
    return AlgebraMap(module, algebra, targets, name="rho").certify_all()


def rho_inverse(f, module):
    """Recover the formal sum from a function on the transformation
    groupoid: the delta_g coefficient at x is the value at the arrow
    (g, x)."""
    terms = {}
    for (g, x), c in f.values.items():
        terms.setdefault(g, {})[x] = c
    return SkewElement(module.algebra_action,
                       {g: SpaceFunction(module.ring, vals)
                        for g, vals in terms.items()})


def check_diagonal_correspondence(rho_map):
    """The image of the coefficient algebra (the delta_e block) must equal
    the diagonal of the Steinberg algebra, as exact spans."""
    if "diagonal" not in rho_map.certificates:
        rho_map.certify_diagonal()
    return rho_map.preserves_diagonal


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
    for g in g_grp.elements:
        for x in theta.domain_points(g_grp.inv(g)):
            h = data.a.get((g, x))
            if h is None or h not in set(h_grp.elements):
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
            if g is None or g not in set(g_grp.elements):
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


def verify_groupoid_isomorphism(g1, g2, iso):
    m = iso.mapping
    if set(m) != set(g1.arrows) or set(m.values()) != set(g2.arrows) \
            or len(set(m.values())) != len(m):
        return (False, "not an arrow bijection")
    for a in g1.arrows:
        if g1.is_unit(a) != g2.is_unit(m[a]):
            return (False, f"unit flag not preserved on {a}")
        if m[g1.range(a)] != g2.range(m[a]) or m[g1.source(a)] != g2.source(m[a]):
            return (False, f"range/source not preserved on {a}")
        if m[g1.inverse(a)] != g2.inverse(m[a]):
            return (False, f"inverse not preserved on {a}")
    for a in g1.arrows:
        for b in g1.arrows:
            if g1.composable(a, b) != g2.composable(m[a], m[b]):
                return (False, f"composability not preserved on ({a}, {b})")
            if g1.composable(a, b) and m[g1.compose(a, b)] != g2.compose(m[a], m[b]):
                return (False, f"composition not preserved on ({a}, {b})")
    return (True, None)


def _unit_profiles(g):
    """Unit -> (isotropy group order, number of arrows with that range,
    sorted element orders of the isotropy group).  The order of b is the
    least k >= 1 with b^k = 1, read off the group's index table."""
    fibre = Counter(g.range(b) for b in g.arrows)
    profiles = {}
    for u in g.units:
        group = isotropy_group(g, u)
        table, e = group.table, group.index(group.identity)
        orders = []
        for b in range(group.order):
            power, k = b, 1
            while power != e:
                power, k = table[power][b], k + 1
            orders.append(k)
        profiles[u] = (group.order, fibre[u], tuple(sorted(orders)))
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
    witness are those of the search alone."""
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
        iso = GroupoidIsomorphism(mapping)
        ok, why = verify_groupoid_isomorphism(g1, g2, iso)
        if not ok:
            raise AssertionError(f"search produced a non-isomorphism: {why}")
        return iso
    return None


# ---------------------------------------------------------------------------
# Transport of isomorphisms along a groupoid isomorphism.
# ---------------------------------------------------------------------------

def steinberg_transport(iso, algebra1, algebra2, name="Gamma"):
    """Pull a groupoid isomorphism back to a diagonal-preserving algebra
    isomorphism of the Steinberg algebras (point masses map to point
    masses)."""
    targets = [algebra2.groupoid.index(iso(a)) for a in algebra1.basis_labels]
    return AlgebraMap(algebra1, algebra2, targets, name=name).certify_all()


def transported_skew_isomorphism(rho1, rho2, gamma, name="Phi"):
    """The induced isomorphism of the partial skew group rings carrying the
    coefficient algebra onto the coefficient algebra: the composite of
    rho1, the Steinberg-level transport, and the inverse of rho2."""
    composite = rho2.inverse().compose(gamma.compose(rho1), name=name)
    return composite.certify_all()


# ---------------------------------------------------------------------------
# The bisection action (the intrinsic partial action of the inverse
# semigroup of bisections on the unit space) and the skew realization of a
# Steinberg algebra.
# ---------------------------------------------------------------------------

def bisection_action(groupoid, semigroup=None, bound=DEFAULT_BISECTION_BOUND):
    """The partial action of the bisection semigroup on the unit space:
    a bisection B acts by source-fiber-to-range-fiber transport, sending
    s(b) to r(b) for each arrow b in B.  The domain attached to B is r(B)."""
    if semigroup is None:
        semigroup = bisection_semigroup(groupoid, bound)
    space = groupoid.sort_arrows(groupoid.units)
    domains = {}
    maps = {}
    for bis in semigroup.elements:
        domains[bis] = range_set(groupoid, bis)
        maps[bis] = {groupoid.source(b): groupoid.range(b) for b in bis}
    return SemigroupPartialAction(semigroup, space, domains, maps,
                                  name=f"bisections@{groupoid.name}")


class SkewRealization:
    """Everything produced while realizing a Steinberg algebra as a partial
    skew inverse semigroup ring: the bisection semigroup, its action, the
    covariance module L, the ideal I, the quotient L/I, and the certified
    maps psi (on L) and psi_tilde (on L/I)."""

    def __init__(self, groupoid, ring, semigroup, action, algebra_action,
                 module, ideal, quotient, steinberg, psi_map, psi_tilde):
        self.groupoid = groupoid
        self.ring = ring
        self.semigroup = semigroup
        self.action = action
        self.algebra_action = algebra_action
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


def psi(groupoid, ring, bisection_bound=DEFAULT_BISECTION_BOUND):
    """Realize the Steinberg algebra of a finite groupoid as a partial skew
    inverse semigroup ring over its bisection semigroup.

    The map psi sends the basis element (point mass at u) delta_B to the
    point mass at the unique arrow of B with range u; it is certified
    multiplicative and surjective, vanishes on the ideal, and descends to
    the certified isomorphism psi_tilde on the quotient.  The semigroup
    and action validators run here, once, as the premises of L's
    associativity (module.premises).  Works over any scalar ring.
    """
    semigroup = bisection_semigroup(groupoid, bisection_bound)
    semigroup_report = validate_inverse_semigroup(semigroup)
    action = bisection_action(groupoid, semigroup)
    action_report = validate_isg_partial_action(action)
    algebra_action = induce_algebra_action(action, ring)
    module = CovarianceModule(algebra_action)
    module.verify_associativity((semigroup_report, action_report))
    steinberg = SteinbergAlgebra(groupoid, ring)

    targets = [groupoid.index(next(b for b in bis if groupoid.range(b) == u))
               for (bis, u) in module.basis_labels]
    psi_map = AlgebraMap(module, steinberg, targets, name="psi")
    psi_map.certify_homomorphism()
    psi_map.certify_injective()
    psi_map.certify_surjective()

    ideal = build_ideal(module)
    quotient = build_quotient(module, ideal)
    # The class of a basis element goes where its representative goes.
    psi_tilde = AlgebraMap(quotient, steinberg,
                           [targets[a] for a in quotient.representatives],
                           name="psi~")
    psi_tilde.certify_homomorphism()
    psi_tilde.certify_injective()
    psi_tilde.certify_surjective()

    return SkewRealization(groupoid, ring, semigroup, action, algebra_action,
                           module, ideal, quotient, steinberg, psi_map,
                           psi_tilde)


def phi_classes(f, realization):
    """The left inverse of psi_tilde: decompose f canonically into disjoint
    bisection indicators sum r_i 1_{B_i} and map it to the class of
    sum r_i (indicator of r(B_i)) delta_{B_i}, as {quotient index:
    coefficient} with zeros dropped."""
    if f.parent is not realization.groupoid or f.ring != realization.ring:
        raise ValueError("function does not live on the realized groupoid")
    range_of = realization.groupoid.range
    label_index = realization.module.label_index
    cls = realization.quotient._class
    out = {}
    for coeff, bis in disjoint_decomposition(f):
        for b in bis:
            q = cls[label_index(bis, range_of(b))]
            out[q] = out[q] + coeff if q in out else coeff
    return {q: c for q, c in out.items() if c}


def phi(f, realization):
    """phi_classes as quotient coordinates."""
    vec = zero_vector(realization.ring, realization.quotient.dim)
    for q, c in phi_classes(f, realization).items():
        vec[q] = c
    return vec


def verify_phi_left_inverse(realization):
    """phi o psi_tilde must fix every quotient basis class."""
    labels = realization.quotient.basis_labels
    one = realization.ring.one()
    for q, t in enumerate(realization.psi_tilde.targets):
        f = GroupoidFunction.point_mass(realization.groupoid, realization.ring,
                                        realization.steinberg.basis_labels[t])
        got = phi_classes(f, realization)
        if got != {q: one}:
            image = " + ".join(f"{c}*{labels[i]}"
                               for i, c in sorted(got.items()))
            return (False, f"phi(psi~(e_{q})) = {image or 0}")
    return (True, None)


def verify_phi_additive(realization, rng, trials=200):
    """phi(f + g) = phi(f) + phi(g) as classes, on random pairs."""
    steinberg = realization.steinberg
    for trial in range(trials):
        f = _random_function(steinberg, rng)
        g = _random_function(steinberg, rng)
        lhs = phi_classes(f + g, realization)
        rhs = phi_classes(f, realization)
        for q, c in phi_classes(g, realization).items():
            rhs[q] = rhs[q] + c if q in rhs else c
        if lhs != {q: c for q, c in rhs.items() if c}:
            return (False, f"additivity fails at trial {trial}")
    return (True, None)


def _random_function(steinberg, rng):
    g = steinberg.groupoid
    values = {}
    for a in g.arrows:
        if rng.random() < 0.5:
            c = steinberg.ring.random(rng)
            if c:
                values[a] = c
    return GroupoidFunction(g, steinberg.ring, values)


# ---------------------------------------------------------------------------
# Brute-force probes of finite group rings.
# ---------------------------------------------------------------------------

class GroupRingProbe:
    """Outcome of an exhaustive scan of the group ring of a finite group
    over a finite ring (or of the ring-flag shortcut for the trivial
    group)."""

    def __init__(self, group, ring, method, has_zero_divisors,
                 zero_divisor_pair, has_nontrivial_units, nontrivial_unit):
        self.group = group
        self.ring = ring
        self.method = method
        self.has_zero_divisors = has_zero_divisors
        self.zero_divisor_pair = zero_divisor_pair
        self.has_nontrivial_units = has_nontrivial_units
        self.nontrivial_unit = nontrivial_unit


def group_ring_probe(group, ring, bound=1024):
    """Scan R[G] for zero divisors and nontrivial units by enumeration.

    The trivial group is answered from the ring flags (R[G] is R, and every
    unit r e is trivial).  Otherwise the ring must be finite with
    |R|^|G| <= bound.
    """
    n = group.order
    if n == 1:
        e = group.identity
        pair = None
        if not ring.is_integral_domain:
            d = next(d for d in range(2, ring.modulus)
                     if ring.modulus % d == 0)
            pair = ({e: d}, {e: ring.modulus // d})
        return GroupRingProbe(group, ring, "ring-flags",
                              not ring.is_integral_domain, pair, False, None)
    if ring.size is None:
        raise BoundExceeded(f"cannot enumerate {ring.tag()}[{group.name}]: "
                            "infinite ring")
    total = ring.size ** n
    if total > bound:
        raise BoundExceeded(f"|{ring.tag()}[{group.name}]| = {total} "
                            f"exceeds probe bound {bound}")

    mod = ring.modulus
    elems = group.elements
    mul_idx = group.table

    def conv(x, y):
        out = [0] * n
        for i in range(n):
            if x[i]:
                for j in range(n):
                    if y[j]:
                        k = mul_idx[i][j]
                        out[k] = (out[k] + x[i] * y[j]) % mod
        return tuple(out)

    all_elems = list(product(range(mod), repeat=n))
    zero = tuple([0] * n)
    one = tuple(1 if g == group.identity else 0 for g in elems)

    def as_dict(x):
        return {elems[i]: x[i] for i in range(n) if x[i]}

    zero_pair = None
    for x in all_elems:
        if x == zero:
            continue
        for y in all_elems:
            if y == zero:
                continue
            if conv(x, y) == zero:
                zero_pair = (as_dict(x), as_dict(y))
                break
        if zero_pair:
            break

    nontrivial_unit = None
    for x in all_elems:
        if sum(1 for v in x if v) < 2:
            continue
        inv = next((y for y in all_elems
                    if conv(x, y) == one and conv(y, x) == one), None)
        if inv is not None:
            nontrivial_unit = as_dict(x)
            break

    return GroupRingProbe(group, ring, "enumeration",
                          zero_pair is not None, zero_pair,
                          nontrivial_unit is not None, nontrivial_unit)
