"""Executable, certified algebra isomorphisms between partial skew rings
and Steinberg algebras, orbit equivalence by matching orbits,
groupoid-isomorphism search, and the realization of a Steinberg algebra
as a partial skew inverse semigroup ring.

Every map built here (rho, psi, psi~, and the transported Gamma and Phi)
sends point masses to point masses with coefficient 1, so an AlgebraMap
is given by target indices: targets[i] is the codomain basis index of the
image of e_i.  Every structural flag on an AlgebraMap is written by a
certify_* pass, an exhaustive integer check on those indices and the
factored products of the two algebras, the same over every scalar ring.
psi~ carries no flag: its isomorphism is read off psi's (see psi).
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
from .validation import BoundExceeded, stable

DEFAULT_ISO_BOUND = 10
DEFAULT_ORBIT_BOUND = 6


class AlgebraMap:
    """A map between two based algebras sending each domain basis element
    e_i to the codomain basis element e_{targets[i]}, extended linearly.
    Every map of the paper (rho, psi, psi~, Gamma, Phi) has this form, so
    the certificates (homomorphism, injective, surjective,
    diagonal-preserving) are exhaustive integer checks on the targets and
    the factored products, the same over every ring.  The certify_*
    methods compute them and cache each with its counterexample, named by
    stable(label(i)); reading one not computed raises RuntimeError."""

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
                    f"fails on basis pair ({stable(dom.label(i))}, "
                    f"{stable(dom.label(j))})")
        return self._store("homomorphism", True, None)

    def certify_injective(self):
        """Distinct targets.  Otherwise the kernel vector reported is
        e_a - e_m, for the smallest a whose target a later index shares
        and the largest m with that target: the first row of the reduced
        echelon basis of the kernel."""
        last = {t: i for i, t in enumerate(self.targets)}
        for a, t in enumerate(self.targets):
            m = last[t]
            if m != a:
                label = self.domain.label
                return self._store("injective", False,
                                   f"kernel vector 1*{stable(label(a))} + "
                                   f"-1*{stable(label(m))}")
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
                    f"image of diagonal basis {stable(self.domain.label(i))} "
                    f"leaks to {stable(self.codomain.label(t))}")
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
        if list(map(inner.codomain.label, range(inner.codomain.dim))) != \
                list(map(self.domain.label, range(self.domain.dim))):
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
    the point mass at the arrow (g, x), found by its key in arrow_at.  All
    four certificates are computed exhaustively."""
    if module is None:
        module = CovarianceModule(induce_algebra_action(action))
    algebra = SteinbergAlgebra(groupoid)
    targets = list(map(groupoid.arrow_at.__getitem__,
                       zip(module._element, module.col_points)))
    return AlgebraMap(module, algebra, targets, name="rho").certify_all()


# ---------------------------------------------------------------------------
# Continuous orbit equivalence of partial group actions.
# ---------------------------------------------------------------------------

class OrbitEquivalenceData:
    """A bijection of the spaces plus the two pointwise cocycles, on
    indices: phi[x] is the position of the image of the point at position
    x, and a[i, x], b[i, x] are element indices."""

    def __init__(self, phi, a, b):
        self.phi = phi
        self.a = a
        self.b = b

    def __repr__(self):
        return f"OrbitEquivalenceData(phi={self.phi})"


def _cocycle_violation(theta, gamma, phi, cocycle, words):
    """The first failure of gamma_h(phi(x)) = phi(theta_g(x)), with its
    containment, for h = cocycle[g, x], in the order of g and x; words
    names the cocycle, phi and the actions in the message.  The star
    graph of g^-1 is that of theta_g on X_{g^-1}."""
    c, f, left, right = words
    g_grp, h_grp = theta.group, gamma.group
    for i, g in enumerate(g_grp.elements):
        for x, y in theta.star_graph(g_grp.star_table[i]):
            h, p = cocycle.get((i, x)), theta.space[x]
            if h not in range(len(h_grp.elements)):
                return f"cocycle {c} undefined on ({g}, {p})"
            k = h_grp.elements[h]
            if phi[x] not in gamma.domains[h_grp.star_table[h]]:
                return (f"{c}({g}, {p}) = {k} but {f}({p}) is outside the "
                        f"domain of {right}_{k}")
            if gamma.maps[h][phi[x]] != phi[y]:
                return f"{f}({left}_{g}({p})) != {right}_{k}({f}({p}))"
    return None


def verify_orbit_equivalence(theta, gamma, data):
    """Exhaustively check both intertwining identities and the implicit
    containments; returns (ok, first violation or None)."""
    phi, n = data.phi, len(gamma.space)
    if len(phi) != len(theta.space) or sorted(phi) != list(range(n)):
        return (False, "phi is not a bijection between the spaces")
    # phi is a permutation of range(n), and this is its inverse.
    phi_inv = sorted(range(n), key=phi.__getitem__)
    why = (_cocycle_violation(theta, gamma, phi, data.a,
                              ("a", "phi", "theta", "gamma"))
           or _cocycle_violation(gamma, theta, phi_inv, data.b,
                                 ("b", "phi^-1", "gamma", "theta")))
    return (why is None, why)


def _orbits(action):
    """Point -> its orbit {theta_g(x) : g in G, x in X_{g^-1}}, as a
    frozenset, on positions."""
    orbits = [{x} for x in range(len(action.space))]
    for i in action.group.star_table:
        for x, y in action.star_graph(i):
            orbits[x].add(y)
    return list(map(frozenset, orbits))


def _cocycle(theta, gamma, phi):
    """(i, x) -> the first h with gamma_h(phi(x)) = phi(theta_g(x)), for
    g of index i and x in X_{g^-1}; None when some pair has none.  In a
    validated gamma, gamma_h is defined exactly on X_{h^-1}."""
    maps = gamma.maps
    cocycle = {}
    for i, inverse in enumerate(theta.group.star_table):
        for x, y in theta.star_graph(inverse):
            target, p = phi[y], phi[x]
            h = next((h for h, m in enumerate(maps) if m[p] == target), None)
            if h is None:
                return None
            cocycle[i, x] = h
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
    permutations order.  The witness is on indices
    (OrbitEquivalenceData).  On input that is not a partial action the
    construction can fail; then the result is None, or a witness that
    verify_orbit_equivalence refuses."""
    n = len(theta.space)
    if n != len(gamma.space):
        return None
    x_orbits, y_orbits = _orbits(theta), _orbits(gamma)
    if sorted(map(len, x_orbits)) != sorted(map(len, y_orbits)):
        return None
    if n > bound:
        raise BoundExceeded(f"spaces too large: {n} points "
                            f"exceeds orbit bound {bound}")
    phi, phi_inv, matched, images = [-1] * n, [-1] * n, {}, set()
    for x, orbit in enumerate(x_orbits):
        if orbit in matched:
            fits = (y for y in range(n) if y_orbits[y] == matched[orbit])
        else:
            fits = (y for y in range(n) if y_orbits[y] not in images
                    and len(y_orbits[y]) == len(orbit))
        y = next((y for y in fits if phi_inv[y] < 0), None)
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

def _unit_profiles(g):
    """Unit index -> (isotropy group order, number of arrows with that
    range, sorted element orders of the isotropy group).  g must pass
    validate_groupoid, so the isotropy at u, the arrows b with
    r(b) = s(b) = u, is a group with identity u, and the order of b is
    the least k <= |H| with b^k = u, read off the composites."""
    fibre = Counter(g.range)
    isotropy = {u: [] for u in g.units}
    for b, (r, s) in enumerate(zip(g.range, g.source)):
        if r == s:
            isotropy[r].append(b)
    profiles = {}
    for u, members in isotropy.items():
        orders = []
        for b in members:
            power, k = b, 1
            while power != u:
                power, k = g.composite(power, b), k + 1
            orders.append(k)
        profiles[u] = (len(members), fibre[u], tuple(sorted(orders)))
    return profiles


def search_groupoid_isomorphism(g1, g2, bound=DEFAULT_ISO_BOUND):
    """Backtracking over arrow bijections, units first, pruned by the
    unit/range/source/composition constraints; sound and complete within
    the bound.  Returns the lexicographically first witness, as the list
    of the image index of each arrow index of g1, or None.

    Inverses need no constraint of their own, as the others imply it at
    the same step.  Say a is placed at b, after a^-1 was placed at b2.
    A unit is its own inverse, so a is not one, and r(a), a unit, is
    placed.  Composition makes (b, b2) composable in g2, with b b2 the
    image of a a^-1 = r(a), and range makes that image r(b).  So
    b2 = b^-1 (b b2) = b^-1 r(b) = b^-1 in g2, which is validated.

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
    return _first_isomorphism(g1, g2)


def _first_isomorphism(g1, g2):
    """The backtracking of search_groupoid_isomorphism, over arrows of
    equal count: units first, each arrow against the arrows placed
    before it, composites read off the rows."""
    n = g1.n_arrows
    order1 = sorted(g1.units) + [a for a in range(n) if a not in g1.units]
    units2 = sorted(g2.units)
    nonunits2 = [b for b in range(n) if b not in g2.units]
    candidates = [units2 if a in g1.units else nonunits2 for a in order1]
    range1, source1, rows1, place1 = g1.range, g1.source, g1.rows, g1.place
    range2, source2, rows2, place2 = g2.range, g2.source, g2.rows, g2.place

    image = [-1] * n  # image[a] is the image of arrow a, or -1
    used = [False] * n

    def agrees(a, b):
        # The image of a, where it has one, is b.
        return image[a] < 0 or image[a] == b

    def consistent(pos, b):
        # Arrow order1[pos] against the arrows mapped before it.
        a = order1[pos]
        r1, s1, r2, s2 = range1[a], source1[a], range2[b], source2[b]
        if not (agrees(r1, r2) and agrees(s1, s2)):
            return False
        for a2 in order1[:pos]:
            b2 = image[a2]
            for c, d in ((rows1[a][place1[a2]] if s1 == range1[a2] else -1,
                          rows2[b][place2[b2]] if s2 == range2[b2] else -1),
                         (rows1[a2][place1[a]] if source1[a2] == r1 else -1,
                          rows2[b2][place2[b]] if source2[b2] == r2 else -1)):
                if (c < 0) != (d < 0):
                    return False
                if c >= 0 and not agrees(c, d):
                    return False
        return True

    # Depth-first over the positions with an explicit stack: tried[pos]
    # counts the candidates of order1[pos] tried so far, so the first
    # complete assignment is the lexicographically first witness.
    tried = [0] * n
    pos = 0
    while pos < n:
        a = order1[pos]
        if image[a] >= 0:
            used[image[a]], image[a] = False, -1
        options, k = candidates[pos], tried[pos]
        while k < len(options) and (used[options[k]]
                                    or not consistent(pos, options[k])):
            k += 1
        if k == len(options):
            if pos == 0:
                return None
            tried[pos] = 0
            pos -= 1
            continue
        b = options[k]
        tried[pos] = k + 1
        image[a], used[b] = b, True
        pos += 1
    return image


# ---------------------------------------------------------------------------
# Transport of isomorphisms along a groupoid isomorphism.
# ---------------------------------------------------------------------------

def steinberg_transport(iso, algebra1, algebra2):
    """Pull a groupoid isomorphism, given by the image index of each arrow
    index (search_groupoid_isomorphism), back to a diagonal-preserving
    algebra isomorphism of the Steinberg algebras: the point mass at
    arrow a goes to the point mass at arrow iso[a]."""
    return AlgebraMap(algebra1, algebra2, iso, name="Gamma").certify_all()


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
        self.space = [groupoid.arrows[u] for u in sorted(groupoid.units)]

    def star_graph(self, e):
        """The pairs (r(b), s(b)) = (x, theta_{B*}(x)) over the arrows b of
        element e, as positions of units, in increasing r(b)."""
        index = self.index
        return [(index._range[a], index._source[a]) for a in index._arrows[e]]


class SkewRealization:
    """Everything produced while realizing a Steinberg algebra as a partial
    skew inverse semigroup ring: the bisection semigroup, the covariance
    module L of its action, the ideal I, the quotient L/I, the certified
    map psi (on L), and psi_tilde (on L/I), which carries no certificate
    of its own (see psi)."""

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
    multiplicative and surjective.  psi_tilde sends each class of L/I to
    its representative's target and computes no certificate (reading one
    of its flags raises RuntimeError): by the first isomorphism theorem it
    is an isomorphism onto A_R(G) iff
    - I = ker psi for the homomorphism psi.  One pass over psi's targets
      decides it and records whether I lies in ker psi
      (QuotientAlgebra.verify_representative_independence); its verdict
      is None exactly when psi's certificate passed and both halves
      held.  Then psi_tilde o pi = psi, multiplicative and injective;
    - psi is onto: once I lies in ker psi, each class shares its
      representative's target, so psi_tilde has psi's image.
    Conversely psi induces a map on L/I only when I lies in ker psi, and
    then it is injective only when ker psi lies in I, multiplicative only
    when psi is, and onto only when psi is.  psi's own injectivity is not
    computed: no row reads it, and the kernel pass decides its kernel.

    groupoid_report is the report of validate_groupoid on groupoid, the
    one premise of L's associativity: the bisections form an inverse
    semigroup and act partially on the unit space by construction (see
    bisection_semigroup and bisection_action), so neither is validated
    again.  When it passes, module.associative is True, and psi's
    certificate reads only the generator rows of L
    (CovarianceModule.generator_basis).  Works over any scalar ring.
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
    psi_map.certify_surjective()

    ideal = build_ideal(module)
    quotient = build_quotient(module, ideal, psi_map)
    # The class of a basis element goes where its representative goes.
    psi_tilde = AlgebraMap(quotient, steinberg,
                           [targets[a] for a in quotient.representatives],
                           name="psi~")
    return SkewRealization(groupoid, semigroup, module, ideal, quotient,
                           steinberg, psi_map, psi_tilde)


def verify_phi_left_inverse(realization):
    """phi o psi_tilde must fix every quotient basis class: phi of the
    point mass at each arrow psi~(e_q), read by phi_values, must be the
    class q with coefficient 1.  A point mass is one block of split_levels,
    so phi_values gives it one class with coefficient 1 over every ring."""
    label = realization.quotient.label
    for q, t in enumerate(realization.psi_tilde.targets):
        (got, c), = realization.phi_values({t: 1}).items()
        if got != q:
            return (False, f"phi(psi~(e_{q})) = {c}*{stable(label(got))}")
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
