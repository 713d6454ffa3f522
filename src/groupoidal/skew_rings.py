"""The covariance module L of a partial action, spanned by the terms
a_s delta_s, with its twisted product; the partial skew group ring; the
ideal I identifying a delta_s with a delta_t for s <= t; and the quotient
L/I.

L and L/I are based algebras with 0/1 structure constants, both kept
factored by the row and column point of each basis element, with no
product table.  I is spanned by differences of basis vectors, so it is a
congruence on the basis; for the bisection action its classes are the
germs, read off the bisections' masks.  L/I has one basis element per
class.  L, I and L/I carry no scalar ring (see the scalars module).

The empty-domain convention: an index element with empty domain
contributes no basis vectors (D_s = {0}), which covers the zero bisection
of a bisection semigroup.
"""

from __future__ import annotations

from .scalars import (BasedAlgebra, ScalarRing, SpanTracker, points_at,
                      zero_vector)
from .validation import ValidationReport


class CovarianceModule(BasedAlgebra):
    """Coordinate view of L in the basis of point masses: one basis vector
    (s, x) for each index element s and each point x of X_s.

    The product of basis vectors is (s, x)(t, y) = (st, x) when
    y = theta_{s*}(x) and zero otherwise.  So basis index i = (s, x) has
    the row point theta_{s*}(x) and the column point x, as positions in
    the space, and a nonzero product is read off the index's product and
    the basis index of (st, x).  A row of L reads a row of the index, and
    a column of L a column of the index.  The basis is read off the
    action's star_graph(e), from its maps or, for the bisection action,
    from the arrows of each bisection.
    """

    def __init__(self, algebra_action):
        self.algebra_action = algebra_action
        index, action = algebra_action.index, algebra_action.action
        self._index = index
        self._point = {x: p for p, x in enumerate(action.space)}
        self.basis_labels, self._element = [], []
        row_points, col_points = [], []
        # _basis_at[p][e] is the basis index of (element e, point p), or
        # -1; the last slot answers a product the index table leaves out.
        self._basis_at = [[-1] * (len(index.elements) + 1)
                          for _ in action.space]
        for e, s in enumerate(index.elements):
            for p, q in action.star_graph(e):
                self._basis_at[p][e] = len(self.basis_labels)
                self.basis_labels.append((s, action.space[p]))
                self._element.append(e)
                col_points.append(p)
                row_points.append(q)
        self.dim = len(self.basis_labels)
        self._set_points(row_points, col_points)
        self._column_elements = {p: [self._element[j] for j in columns]
                                 for p, columns in self.at_point.items()}
        self._rows_at = points_at(row_points)
        self.premises = self.associative = None

    def label_index(self, s, x):
        i = self._basis_at[self._point[x]][self._index.index(s)]
        if i < 0:
            raise KeyError((s, x))
        return i

    def row_products(self, i):
        by_point = self._basis_at[self.col_points[i]]
        products = list(map(by_point.__getitem__, map(
            self._index.row(self._element[i]).__getitem__,
            self._column_elements.get(self.row_points[i], ()))))
        if -1 in products:
            raise KeyError(f"{self.basis_labels[i]} has a product outside L")
        return products

    def column_products(self, j):
        """The nonzero products e_a e_j, over the a whose row point is the
        column point of e_j, in increasing order: (s, x)(t, y) = (st, x)
        reads the column of t in the index."""
        basis_at, col_points = self._basis_at, self.col_points
        column = self._index.column(self._element[j])
        products = [basis_at[col_points[a]][column[self._element[a]]]
                    for a in self._rows_at.get(col_points[j], ())]
        if -1 in products:
            raise KeyError(f"{self.basis_labels[j]} has a product outside L")
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
        if unit is None:
            return []
        return [i for i, (s, _) in enumerate(self.basis_labels) if s == unit]

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
        closed.  The premises are kept on the module."""
        self.premises = premises
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
    ring.  That this span is a two-sided ideal is checked by
    build_quotient.

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
    the kernel of psi; psi vanishing on J and psi~ injective on L/J
    certify that the kernel is J.  build_ideal reads no psi target, so
    those certificates do not rest on its construction.

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


class QuotientAlgebra(BasedAlgebra):
    """L/I with one basis element per class of the congruence, labelled by
    its representative, in increasing order: the class of e_a is basis
    element q when representatives[q] = rep(a).  Its points are those of
    the representatives in L, and the product of two classes is the
    class of the product of their representatives, which build_quotient
    checks, recording representative_independence_violation."""

    def __init__(self, module, ideal):
        self.module = module
        self.ideal = ideal
        self.representatives = [a for a, r in enumerate(ideal.rep) if a == r]
        position = {a: q for q, a in enumerate(self.representatives)}
        # _class[a] is the quotient index of e_a; the trailing -1 sends a
        # zero product (index -1) to zero.
        self._class = [position[r] for r in ideal.rep] + [-1]
        self.basis_labels = [module.basis_labels[a]
                             for a in self.representatives]
        self.dim = len(self.representatives)
        self._set_points(
            [module.row_points[a] for a in self.representatives],
            [module.col_points[a] for a in self.representatives])

    def row_products(self, q):
        """The classes of L's row at the representative of q, read at the
        representatives of the classes at q's row point."""
        row = self.module.row_products(self.representatives[q])
        place, reps = self.module.place, self.representatives
        return [self._class[row[place[reps[r]]]]
                for r in self.at_point.get(self.row_points[q], ())]

    def diagonal_indices(self):
        unit = self.module._index.unit
        return [i for i, (s, _) in enumerate(self.basis_labels) if s == unit]

    def verify_representative_independence(self):
        """The induced product is well defined iff I is a two-sided ideal,
        that is iff e_k (e_a - e_b) and (e_a - e_b) e_k lie in I for every
        (a, b) in a spanning set of I and every e_k in a generating set
        of L: the two products are both zero or basis vectors of one
        class.  Returns a violation, or None.

        For a subspace I of an associative L, {x : x I in I} is closed
        under products, as (x y) I = x (y I) lies in x I, and so is
        {x : I x in I}.  So the check reads only the generator rows and
        columns, module.generator_basis(), which is the whole basis
        unless L is certified associative.

        The spanning rows are e_a - e_rep(a).  For a generator e_k, let
        its class row be the classes of e_k e_a, over all a, and its
        class column those of e_a e_k.  (e_a - e_rep(a)) e_k lies in I for
        all a iff the class column is unchanged when read through rep,
        and e_k (e_a - e_rep(a)) iff the class row is.  Each is zero off
        the basis elements at one point, and a zero reads as None, so only
        the a that carry that point, or whose rep(a) does, are read.  A
        violation names the first generator, the right product first, and
        the first a where the two readings differ.  Over a validated
        action a class keeps to one row and one column point (s = t e
        gives theta_{s*}(x) = theta_{t*}(x)): these a are those at it."""
        module, cls, rep = self.module, self._class, self.ideal.rep
        by_row = _members_at(module.row_points, rep)
        by_column = _members_at(module.col_points, rep)
        for k in module.generator_basis():
            p, q = module.col_points[k], module.row_points[k]
            column = dict(zip(module._rows_at.get(p, ()),
                              map(cls.__getitem__, module.column_products(k))))
            row = dict(zip(module.at_point.get(q, ()),
                           map(cls.__getitem__, module.row_products(k))))
            for classes, members, text in (
                    (column, by_row.get(p, ()),
                     "(e_{a} - e_{r}) * e_{k} leaves the ideal"),
                    (row, by_column.get(q, ()),
                     "e_{k} * (e_{a} - e_{r}) leaves the ideal")):
                through_rep = list(map(classes.get,
                                       map(rep.__getitem__, members)))
                direct = list(map(classes.get, members))
                if through_rep != direct:
                    a = next(a for a, x, y in zip(members, through_rep, direct)
                             if x != y)
                    return text.format(a=a, r=rep[a], k=k)
        return None


def _members_at(points, rep):
    """Point -> the a that carry it or whose rep(a) does, increasing."""
    at = {}
    for a, r in enumerate(rep):
        for p in {points[a], points[r]}:
            at.setdefault(p, []).append(a)
    return at


def build_quotient(module, ideal):
    """The partial skew inverse semigroup ring L/I; well-definedness of
    the product is verified, not assumed, and a violation is recorded on
    the quotient for the report."""
    quotient = QuotientAlgebra(module, ideal)
    quotient.representative_independence_violation = \
        quotient.verify_representative_independence()
    return quotient


def check_pregrading(quotient):
    """Check that the family B_s (the images of D_s delta_s) pre-grades
    the quotient L/I: B_s B_t inside B_{st}, monotone along the natural
    order, and jointly spanning.

    B_s is spanned by the classes of the e_(s,x), so B_s is a set of basis
    indices.  The rest holds once build_quotient has certified
    representative independence: the class of e_(s,x) times the class of
    e_(t,y) is the class of (s,x)(t,y) = (st,x), or zero, so B_s B_t lies
    in B_st; and for s <= t the generator e_(s,x) - e_(t,x) of I puts the
    class of e_(s,x) in B_t; without it there is no product to pre-grade.
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
