"""The covariance module L of a partial action, spanned by the terms
a_s delta_s, with its twisted product; the partial skew group ring; the
ideal I identifying a delta_s with a delta_t for s <= t; and the quotient
L/I.

L is a based algebra with 0/1 structure constants, kept factored by the
row and column point of each basis element, with no product table.  I is
spanned by differences of basis vectors, so it is a congruence on the
basis; for the bisection action its classes are the germs, read off the
bisections' masks.  L/I is held as its classes, one basis element each,
with no product of its own: by the first isomorphism theorem, psi~ is an
isomorphism onto A_R(G) once I = ker psi and psi is onto.  L, I and L/I
carry no scalar ring (see the scalars module).

The empty-domain convention: an index element with empty domain
contributes no basis vectors (D_s = {0}), which covers the zero bisection
of a bisection semigroup.
"""

from __future__ import annotations

from .scalars import BasedAlgebra, ScalarRing, SpanTracker, zero_vector
from .validation import ValidationReport, stable


class CovarianceModule(BasedAlgebra):
    """Coordinate view of L in the basis of point masses: one basis vector
    (s, x) for each index element s and each point x of X_s.

    The product of basis vectors is (s, x)(t, y) = (st, x) when
    y = theta_{s*}(x) and zero otherwise.  So basis index i = (s, x) has
    the row point theta_{s*}(x) and the column point x, as positions in
    the space, and a nonzero product is read off the index's product and
    the basis index of (st, x).  A row of L reads a row of the index.  The
    basis is read off the action's star_graph(e), from its maps or, for
    the bisection action, from the arrows of each bisection.
    """

    def __init__(self, algebra_action):
        self.algebra_action = algebra_action
        index, action = algebra_action.index, algebra_action.action
        self._index = index
        self._element, row_points, col_points = [], [], []
        # _basis_at[p][e] is the basis index of (element e, point p), or
        # -1; the last slot answers a product the index table leaves out.
        self._basis_at = [[-1] * (index.order + 1) for _ in action.space]
        for e in range(index.order):
            for p, q in action.star_graph(e):
                self._basis_at[p][e] = len(self._element)
                self._element.append(e)
                col_points.append(p)
                row_points.append(q)
        self.dim = len(self._element)
        self._set_points(row_points, col_points)
        self._column_elements = {p: [self._element[j] for j in columns]
                                 for p, columns in self.at_point.items()}
        self.associative = None

    def label(self, i):
        """The pair (s, x) of basis element i, named by index and space."""
        return (self._index.label(self._element[i]),
                self.algebra_action.action.space[self.col_points[i]])

    def row_products(self, i):
        by_point = self._basis_at[self.col_points[i]]
        products = list(map(by_point.__getitem__, map(
            self._index.row(self._element[i]).__getitem__,
            self._column_elements.get(self.row_points[i], ()))))
        if -1 in products:
            raise KeyError(f"{stable(self.label(i))} has a product outside L")
        return products

    def generator_basis(self):
        """Basis indices whose products generate L, in increasing order:
        the (g, x) with g in the index's generators once L is certified
        associative, and the whole basis otherwise.

        An index whose generators are all its elements gives the whole
        basis.  For the bisection action, where X_{BC} = r(BC) lies in
        r(B) = X_B, take s = g1 g2 ... gk with each gi a generator and x
        in X_s.  Then (g1, x)(g2, theta_{g1*}(x)) ... (gk, ...) is (s, x):
        by induction, (g1, x)(t, y) = (g1 t, x) for t = g2 ... gk and
        y = theta_{g1*}(x), which lies in X_t as x lies in
        X_s & X_{g1} = theta_{g1}(X_{g1*} & X_t) by the intertwining law.
        So these rows generate L as an algebra.  A law closed under
        products that holds on them holds on all of L (see
        BasedAlgebra.associativity_counterexample); the laws checked on
        them here are closed under products because L is associative, so
        without that certificate every row is read."""
        if not self.associative:
            return range(self.dim)
        generators = set(self._index.generators)
        return [i for i, e in enumerate(self._element) if e in generators]

    def diagonal_indices(self):
        """Basis indices of the copy of the coefficient algebra sitting
        over the unit of the index (empty when there is no unit)."""
        unit = self._index.unit
        return [i for i, e in enumerate(self._element) if e == unit]

    def verify_associativity(self, premises):
        """Certify (e_i e_j) e_k = e_i (e_j e_k) on all basis triples from
        premises; stores and returns whether all of them passed.

        premises are validator reports that, when all pass, make the
        index an inverse semigroup and the action a partial action: for a
        group action, the group's table_report and the report of
        validate_group_partial_action; for the bisection action of a
        groupoid, the report of validate_groupoid alone (see
        bisection_semigroup and bisection_action).  Then L is associative.
        (s, x)(t, y) is nonzero iff y = theta_{s*}(x), and then it is
        (st, x): x = theta_s(y) lies in theta_s(X_{s*} & X_t) =
        X_s & X_{st} by the intertwining law.  So with y = theta_{s*}(x)
        (otherwise both sides are 0), ((s, x)(t, y))(u, z) is nonzero iff
        z = theta_{(st)*}(x), and (s, x)((t, y)(u, z)) iff
        z = theta_{t*}(y).  On X_s & X_{st} the composition law gives
        theta_{t*} theta_{s*} = theta_{t*s*}, and t*s* = (st)* in an
        inverse semigroup, so both sides are nonzero together, as
        ((st)u, x) and (s(tu), x), equal as S is associative.  A group is
        an inverse semigroup, so this covers the partial skew group ring
        too.  When a premise fails, L is not certified and nothing is
        searched: without the premises its product need not even be
        closed."""
        self.associative = all(report.ok for report in premises)
        return self.associative


class IdealCongruence:
    """The ideal I as a congruence on the basis of L.  I is spanned by the
    differences e_a - e_b of basis vectors in one class, a germ (see
    build_ideal); rep[a] is the largest index in the class of a;
    generator_count is the number of generators 1_x delta_s - 1_x delta_t
    of I, for s < t and x in X_s."""

    def __init__(self, module, generator_count, rep):
        self.module = module
        self.rep = rep
        self.generator_count = generator_count
        self.dimension = sum(1 for a, r in enumerate(rep) if a != r)


def build_ideal(module):
    """I for the bisection action of a validated groupoid on all its
    bisections (bisection_semigroup, bisection_action), as its germ
    classes: dim I is dim L minus the number of arrows.  Works over any
    ring.  That this span is ker psi, and so a two-sided ideal, is checked
    by build_quotient, in one pass over psi's targets.

    Here X_t = r(t), and s <= t iff s is a subset of t (see
    BisectionSemigroup.down_sets).  For b = (t, x), let a be the arrow of
    t with range x; the singleton {a} = e_x t, for the idempotent
    e_x = {x}, is read off the masks as t's mask AND the arrows with
    range x.  Each b is joined to ({a}, x): e_x t <= t and x lies in
    X_{e_x t}, so each join of two elements is a generator of I, and the
    span J of the joins lies in I by construction.  Its classes are the
    germs, the (t, x) that share a, each holding one singleton, so rep is
    the last b joined to each singleton, with no union-find.  Every
    generator of I stays inside a germ, as s <= t holds the arrow of t
    at x, so J = I; the certificates check this independently.  psi
    sends (s, x) and (t, x) to the same arrow for s <= t, so I lies in
    the kernel of psi; build_quotient certifies that the kernel is J.
    build_ideal reads no psi target, so that certificate does not rest on
    its construction.

    generator_count is in closed form: the s < t with x in X_s are the
    subsets of t that hold a, other than t, 2^{|t| - 1} - 1 of them."""
    index, basis_at = module._index, module._basis_at
    masks, position = index.masks, index._position
    at_range = [0] * len(basis_at)
    for arrow, p in enumerate(index._range):
        at_range[p] |= 1 << arrow
    germ = [basis_at[p][position[masks[e] & at_range[p]]]
            for e, p in zip(module._element, module.col_points)]
    # A later (b, a) overwrites an earlier one: the last b of each germ.
    last = dict(zip(germ, range(module.dim)))
    count = sum((1 << masks[e].bit_count() - 1) - 1 for e in module._element)
    return IdealCongruence(module, count, list(map(last.__getitem__, germ)))


class QuotientAlgebra:
    """L/I as its classes: one basis element per class of the congruence,
    labelled by its representative, in increasing order, so e_a lies in
    class q = _class[a] with representatives[q] = rep(a).  The product of
    two classes, the class of their representatives' product, is well
    defined when I is two-sided, which build_quotient certifies as
    I = ker psi (recording representative_independence_violation and
    ideal_in_kernel); then L/I = L/ker psi, so psi~ is an isomorphism when
    psi is onto, and no product of L/I or certificate of psi~ is computed."""

    def __init__(self, module, ideal):
        self.module = module
        self.ideal = ideal
        self.representatives = [a for a, r in enumerate(ideal.rep) if a == r]
        position = {a: q for q, a in enumerate(self.representatives)}
        self._class = [position[r] for r in ideal.rep]
        self.dim = len(self.representatives)

    def label(self, q):
        """The pair (s, x) of q's representative in L."""
        return self.module.label(self.representatives[q])

    def verify_representative_independence(self, psi_map):
        """The induced product is well defined iff I is a two-sided ideal.
        Here it is decided as I = ker psi, for psi_map a map out of L whose
        homomorphism certificate has been computed: the kernel of a
        multiplicative map is a two-sided ideal, as psi(x k) =
        psi(x) psi(k) = 0 = psi(k x) for k in it.  Returns a violation, or
        None; when psi's certificate failed, nothing is derived.

        psi sends each e_a to a basis vector e_{t(a)}, so over every ring
        a vector lies in its kernel iff its coefficients sum to zero over
        each target fibre, and such a vector is the sum of its coefficient
        at a times e_a - e_m, over its a, for m one element of a's fibre:
        the kernel is spanned by the differences inside each fibre.  I is
        spanned by the differences e_a - e_rep(a) inside each class.  So I
        lies in ker psi iff every a shares rep(a)'s target, which makes
        each fibre a union of classes, and then ker psi lies in I iff each
        fibre holds one class, that is iff no two representatives share a
        target.  One pass over the basis reads both halves, whatever psi's
        certificate says, and records whether I lies in ker psi as
        ideal_in_kernel; a violation names the basis pair where a half
        first fails, by increasing a."""
        targets, first, violation = psi_map.targets, {}, None
        self.ideal_in_kernel = True
        for a, r in enumerate(self.ideal.rep):
            if targets[a] != targets[r]:
                self.ideal_in_kernel = False
                violation = violation or \
                    f"e_{a} - e_{r} lies in I but not in ker psi"
                break
            if a == r and violation is None:
                b = first.setdefault(targets[a], a)
                if b != a:
                    violation = f"e_{b} - e_{a} lies in ker psi but not in I"
        if not psi_map.is_homomorphism:
            return "not derived: psi_homomorphism failed"
        return violation


def build_quotient(module, ideal, psi_map):
    """The partial skew inverse semigroup ring L/I; well-definedness of
    the product is verified, not assumed, as I = ker psi for psi_map (see
    QuotientAlgebra.verify_representative_independence), and its verdict
    and ideal_in_kernel are recorded on the quotient for the report."""
    quotient = QuotientAlgebra(module, ideal)
    quotient.representative_independence_violation = \
        quotient.verify_representative_independence(psi_map)
    return quotient


def check_pregrading(quotient):
    """Check that the family B_s (the images of D_s delta_s) pre-grades
    the quotient L/I: B_s B_t inside B_{st}, monotone along the natural
    order, and jointly spanning.

    B_s is spanned by the classes of the e_(s,x), so B_s is a set of basis
    indices.  The rest holds once build_quotient has certified I = ker psi,
    a two-sided ideal, so that the product of classes is well defined; no
    product of L/I is computed, as each inclusion is read off L's: the
    class of e_(s,x) times the class of e_(t,y) is the class of
    (s,x)(t,y) = (st,x), or zero, so B_s B_t lies in B_st; and for s <= t
    the generator e_(s,x) - e_(t,x) of I puts the class of e_(s,x) in B_t;
    without it there is no product to pre-grade.
    Spanning holds too: the e_(s,x) over every s and x in X_s are L's
    basis, and each class of L/I has its representative there.  The
    unit vectors of the classes still go through a SpanTracker over Q,
    whose span perfbench's trace expects (ROADMAP item 3); being unit
    vectors, they span over every ring as they do over Q.
    """
    index = quotient.module.algebra_action.index
    report = ValidationReport(f"pre-grading over {getattr(index, 'name', 'index')}")
    if quotient.representative_independence_violation is not None:
        report.add("B_s B_t is not defined: representative independence "
                   "failed")
    span = SpanTracker(ScalarRing("Q"), quotient.dim)
    for i in range(quotient.dim):
        vec = zero_vector(span.ring, quotient.dim)
        vec[i] = span.ring.one()
        span.add(vec)
    if span.dimension != quotient.dim:
        report.add(f"the union of the B_s spans only {span.dimension} "
                   f"of {quotient.dim} dimensions")
    return report
