"""Formal sums a_s delta_s over a partial action: the covariance module L
with its twisted product, the partial skew group ring, the ideal I
identifying a delta_s with a delta_t for s <= t, and the quotient L/I.

L and L/I are based algebras with 0/1 structure constants.  L is kept
factored, by the row and column point of each basis element, and L/I by
a product table of basis indices.  I is spanned by differences of basis
vectors, so it is a congruence on the basis, found by union-find over any
scalar ring; L/I has one basis element per class.

The empty-domain convention: an index element with empty domain
contributes no basis vectors (D_s = {0}), which covers the zero bisection
of a bisection semigroup.
"""

from __future__ import annotations

from .inverse_semigroups import validate_inverse_semigroup
from .partial_actions import (GroupPartialAction, SpaceFunction,
                              validate_group_partial_action,
                              validate_isg_partial_action)
from .scalars import (SpanTracker, TableAlgebra, index_row, points_at,
                      table_associativity_counterexample, table_mul_basis,
                      table_mul_vectors, zero_vector)
from .validation import ValidationReport, stable


class SkewElement:
    """A finite formal sum of terms a_s delta_s with a_s supported in X_s."""

    __slots__ = ("algebra_action", "terms")

    def __init__(self, algebra_action, terms):
        self.algebra_action = algebra_action
        pruned = {}
        for s, f in terms.items():
            if f.ring != algebra_action.ring:
                raise ValueError("coefficient has the wrong scalar ring")
            if not f.vanishes_off(algebra_action.domains[s]):
                raise ValueError(f"coefficient of delta_{stable(s)} does not "
                                 f"vanish off X_{{{stable(s)}}}")
            if f:
                pruned[s] = f
        self.terms = pruned

    @classmethod
    def zero(cls, algebra_action):
        return cls(algebra_action, {})

    @classmethod
    def basis(cls, algebra_action, s, x, coeff=None):
        mass = SpaceFunction.point_mass(algebra_action.ring, x, coeff)
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
            st = index.mul(s, t)
            coeff = alg.alpha(s, alg.alpha(alg.star(s), a_s) * a_t)
            if coeff:
                acc[st] = acc[st] + coeff if st in acc else coeff
    return SkewElement(alg, acc)


class CovarianceModule:
    """Coordinate view of L in the basis of point masses: one basis vector
    (s, x) for each index element s and each point x of X_s.

    The product of basis vectors is (s, x)(t, y) = (st, x) when
    y = theta_{s*}(x) and zero otherwise.  So L is kept factored, with no
    product table: basis index i = (s, x) has the row point
    row_points[i] = theta_{s*}(x) and the column point col_points[i] = x,
    as positions in the space.  e_i e_j is nonzero exactly when
    row_points[i] == col_points[j], at the columns at_point[p] of the
    point, and is read off the index table and the basis index of (st, x).
    """

    def __init__(self, algebra_action):
        self.algebra_action = algebra_action
        self.ring = algebra_action.ring
        index, action = algebra_action.index, algebra_action.action
        self._index_table = index.table
        point = {x: p for p, x in enumerate(action.space)}
        self.basis_labels, self._element = [], []
        self.row_points, self.col_points = [], []
        # _basis_at[p][e] is the basis index of (element e, point p), or
        # -1; the last slot answers a product the index table leaves out.
        self._basis_at = [[-1] * (len(index.elements) + 1) for _ in point]
        for e, s in enumerate(index.elements):
            s_star = index.star(s)
            for x in algebra_action.domain_points(s):
                self._basis_at[point[x]][e] = len(self.basis_labels)
                self.basis_labels.append((s, x))
                self._element.append(e)
                self.col_points.append(point[x])
                self.row_points.append(point[action.theta(s_star, x)])
        self.dim = len(self.basis_labels)
        self._idx = {lbl: i for i, lbl in enumerate(self.basis_labels)}
        self.at_point = points_at(self.col_points)
        self._column_elements = {p: [self._element[j] for j in columns]
                                 for p, columns in self.at_point.items()}
        self.premises = self.associativity_counterexample = None

    def label_index(self, s, x):
        return self._idx[(s, x)]

    def row_products(self, i):
        """The nonzero products of e_i, over at_point[row_points[i]]."""
        by_point = self._basis_at[self.col_points[i]]
        products = list(map(by_point.__getitem__, map(
            self._index_table[self._element[i]].__getitem__,
            self._column_elements.get(self.row_points[i], ()))))
        if -1 in products:
            raise KeyError(f"{self.basis_labels[i]} has a product outside L")
        return products

    def product(self, i, j):
        if self.row_points[i] != self.col_points[j]:
            return -1
        st = self._index_table[self._element[i]][self._element[j]]
        k = self._basis_at[self.col_points[i]][st]
        if k < 0:
            raise KeyError(f"{self.basis_labels[i]} has a product outside L")
        return k

    def products(self, i, columns):
        return [self.product(i, j) for j in columns]

    def row(self, i):
        return self.products(i, range(self.dim))

    def to_vector(self, elem):
        if elem.algebra_action is not self.algebra_action:
            raise ValueError("element does not belong to this module")
        vec = zero_vector(self.ring, self.dim)
        for s, f in elem.terms.items():
            for x, c in f.values.items():
                vec[self._idx[(s, x)]] = c
        return vec

    def from_vector(self, vec):
        terms = {}
        for i, c in enumerate(vec):
            if c:
                s, x = self.basis_labels[i]
                terms.setdefault(s, {})[x] = c
        return SkewElement(self.algebra_action,
                           {s: SpaceFunction(self.ring, vals)
                            for s, vals in terms.items()})

    def diagonal_indices(self):
        """Basis indices of the copy of the coefficient algebra sitting
        over the unit of the index (empty when there is no unit)."""
        unit = self.algebra_action.unit_element()
        if unit is None:
            return []
        return [i for i, (s, _) in enumerate(self.basis_labels) if s == unit]

    def verify_associativity(self, premises=None):
        """Decide (e_i e_j) e_k = e_i (e_j e_k) on all basis triples;
        stores and returns the first failing triple, in lexicographic
        order, or None.

        premises are the reports of the validators of the index
        (validate_inverse_semigroup, or a group's table_report) and of the
        action (validate_isg_partial_action or
        validate_group_partial_action), computed here when not given.
        When all pass, L is associative.  (s, x)(t, y) is nonzero iff
        y = theta_{s*}(x), and then it is (st, x): x = theta_s(y) lies in
        theta_s(X_{s*} & X_t) = X_s & X_{st} by the intertwining law.  So
        with y = theta_{s*}(x) (otherwise both sides are 0),
        ((s, x)(t, y))(u, z) is nonzero iff z = theta_{(st)*}(x), and
        (s, x)((t, y)(u, z)) iff z = theta_{t*}(y).  On X_s & X_{st} the
        composition law gives theta_{t*} theta_{s*} = theta_{t*s*}, and
        t*s* = (st)* in an inverse semigroup, so both sides are nonzero
        together, as ((st)u, x) and (s(tu), x), equal as S is associative.
        A group is an inverse semigroup, so this covers the partial skew
        group ring too.  When a premise fails, the test runs on the
        factored product, to name the first triple.  The premises are kept
        on the module."""
        if premises is None:
            alg = self.algebra_action
            check = (validate_group_partial_action
                     if isinstance(alg.action, GroupPartialAction)
                     else validate_isg_partial_action)
            premises = (validate_inverse_semigroup(alg.index),
                        check(alg.action))
        self.premises = premises
        counter = None
        if not all(report.ok for report in premises):
            counter = table_associativity_counterexample(
                [self.row(i) for i in range(self.dim)])
        self.associativity_counterexample = counter
        return counter


def build_skew_group_ring(algebra_action, premises=None):
    """The partial skew group ring as a based algebra: dimension is the sum
    of the domain sizes, the product is factored, and associativity is
    certified (a failure is recorded as a counterexample on the module,
    not raised); premises as in verify_associativity."""
    module = CovarianceModule(algebra_action)
    module.verify_associativity(premises)
    return module


def ideal_generators(module):
    """The generators 1_x delta_s - 1_x delta_t of the ideal, for s < t in
    the natural order and x ranging over X_s, as basis index pairs (a, b)
    standing for e_a - e_b."""
    alg = module.algebra_action
    order = alg.index.natural_order()
    return [(module.label_index(s, x), module.label_index(t, x))
            for t in alg.index.elements
            for s in order.strictly_below(t)
            for x in alg.domain_points(s)]


class IdealCongruence:
    """The ideal I as a congruence on the basis of L.  I is spanned by the
    differences e_a - e_b of basis vectors in one class; rep[a] is the
    largest index in the class of a."""

    def __init__(self, module, edges, rep):
        self.module = module
        self.edges = edges
        self.rep = rep
        self.generator_count = len(edges)
        self.dimension = sum(1 for a, r in enumerate(rep) if a != r)

    @property
    def rows(self):
        """The spanning rows of the congruence I: e_a - e_rep(a) for each
        a that does not represent its class, in increasing order of a."""
        ring, dim = self.module.ring, self.module.dim
        rows = []
        for a, r in enumerate(self.rep):
            if a != r:
                row = zero_vector(ring, dim)
                row[a] = ring.one()
                row[r] = -ring.one()
                rows.append(row)
        return rows


def build_ideal(module):
    """The span of the generators, by union-find over their index pairs:
    dim I is dim L minus the number of classes.  Works over any ring.
    That this span is a two-sided ideal is checked by build_quotient."""
    edges = ideal_generators(module)
    parent = list(range(module.dim))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for a, b in edges:
        ra, rb = find(a), find(b)
        if ra != rb:
            # The larger root stays, so each root is the largest index of
            # its class.
            parent[min(ra, rb)] = max(ra, rb)
    return IdealCongruence(module, edges, [find(a) for a in range(module.dim)])


class QuotientAlgebra(TableAlgebra):
    """L/I with one basis element per class of the congruence, labelled by
    its representative, in increasing order: the class of e_a is basis
    element q when representatives[q] = rep(a).  Its table and points are
    those of the representatives in L."""

    def __init__(self, module, ideal):
        self.module = module
        self.ideal = ideal
        self.ring = module.ring
        self.representatives = [a for a, r in enumerate(ideal.rep) if a == r]
        position = {a: q for q, a in enumerate(self.representatives)}
        # _class[a] is the quotient index of e_a; the trailing -1 sends a
        # zero product (index -1) to zero.
        self._class = [position[r] for r in ideal.rep] + [-1]
        self.basis_labels = [module.basis_labels[a]
                             for a in self.representatives]
        self.dim = len(self.representatives)
        self.row_points = [module.row_points[a] for a in self.representatives]
        self.col_points = [module.col_points[a] for a in self.representatives]
        self.at_point = points_at(self.col_points)
        self.table = [index_row(self.dim, [
            self._class[module.product(a, b)] for b in self.representatives])
            for a in self.representatives]
        self.representative_independence_verified = False

    def mul_basis(self, i, j):
        return table_mul_basis(self.table, self.ring, i, j)

    def mul_vectors(self, u, v):
        return table_mul_vectors(self.table, self.ring, u, v)

    def diagonal_indices(self):
        unit = self.module.algebra_action.unit_element()
        return [i for i, (s, _) in enumerate(self.basis_labels) if s == unit]

    def verify_representative_independence(self):
        """The induced product is well defined iff I is a two-sided ideal,
        that is iff e_k (e_a - e_b) and (e_a - e_b) e_k lie in I for every
        (a, b) in a spanning set of I and every basis element e_k: the two
        products are both zero or basis vectors of one class.  Checks this
        exhaustively and returns the first violation, or None.

        The check runs over the dim I spanning rows e_a - e_rep(a).  Let
        the class row of a be the classes of e_a e_k, over all k.  Then
        (e_a - e_rep(a)) e_k lies in I for all k iff class rows a and
        rep(a) are equal, and e_k (e_a - e_rep(a)) lies in I for all a iff
        class row k is unchanged when read through rep.  Once every class
        row equals that of its representative, the second test need only
        run on the representatives' rows.  A class row is zero off the
        columns at the row point of a, so it is compared there.  Only on a
        failure does the scan over the generators run, to name the first
        violation."""
        if not self._spanning_rows_close():
            return self._first_generator_violation()
        return None

    def _spanning_rows_close(self):
        module, cls, rep = self.module, self._class, self.ideal.rep
        at_point = module.at_point

        def class_row(a):
            # The row point and the classes there; None for a zero row.
            p = module.row_points[a]
            if p not in at_point:
                return None
            return p, tuple(map(cls.__getitem__, module.row_products(a)))

        kept = {r: class_row(r) for r in self.representatives}
        for a, r in enumerate(rep):
            if a != r and class_row(a) != kept[r]:
                return False
        for p, classes in filter(None, kept.values()):
            # Column -> class, None where the product is zero.
            class_at = dict(zip(at_point[p], classes))
            if list(map(class_at.get, rep)) != \
                    list(map(class_at.get, range(len(rep)))):
                return False
        return True

    def _first_generator_violation(self):
        module, cls = self.module, self._class
        for a, b in self.ideal.edges:
            row_a, row_b = module.row(a), module.row(b)
            for k in range(module.dim):
                if cls[module.product(k, a)] != cls[module.product(k, b)]:
                    return f"e_{k} * (e_{a} - e_{b}) leaves the ideal"
                if cls[row_a[k]] != cls[row_b[k]]:
                    return f"(e_{a} - e_{b}) * e_{k} leaves the ideal"
        return None


def build_quotient(module, ideal):
    """The partial skew inverse semigroup ring L/I; well-definedness of
    the product is verified, not assumed."""
    quotient = QuotientAlgebra(module, ideal)
    violation = quotient.verify_representative_independence()
    if violation is not None:
        raise ValueError(f"ideal is not two-sided: {violation}")
    quotient.representative_independence_verified = True
    return quotient


class PregradingReport(ValidationReport):
    pass


def check_pregrading(algebra):
    """Check that the family B_s (the images of D_s delta_s) pre-grades the
    algebra: B_s B_t inside B_{st}, monotone along the natural order, and
    jointly spanning.

    Accepts a CovarianceModule or a QuotientAlgebra.  In both, B_s is
    spanned by basis elements, e_(s,x) or the class of e_(s,x), so B_s is
    its set of basis indices and membership is a test of support.
    """
    if isinstance(algebra, QuotientAlgebra):
        module, cls = algebra.module, algebra._class
    else:
        module, cls = algebra, range(algebra.dim)
    alg = module.algebra_action
    index = alg.index
    order = index.natural_order()
    at_point, row_points = algebra.at_point, algebra.row_points
    report = PregradingReport(f"pre-grading over {getattr(index, 'name', 'index')}")

    # blocks[i] is B_s for the element s of index i; products of elements
    # are read off the index table.
    elements = index.elements
    blocks = [{cls[module.label_index(s, x)] for x in alg.domain_points(s)}
              for s in elements]
    # B_s B_t lies in B_st iff every product e_a e_b with a in B_s and b in
    # B_t does.  Sets of basis indices are bitmasks here: reach[b] holds
    # the nonzero products e_a e_b over a in B_s.
    bit = [1 << k for k in range(algebra.dim)]
    masks = [sum(bit[k] for k in block) for block in blocks]
    for i, s in enumerate(elements):
        reach = [0] * algebra.dim
        for a in blocks[i]:
            for b, k in zip(at_point.get(row_points[a], ()),
                            algebra.row_products(a)):
                reach[b] |= bit[k]
        products = index.table[i]
        for j, t in enumerate(elements):
            st = products[j]
            if st < 0:
                raise KeyError((s, t))
            got = 0
            for b in blocks[j]:
                got |= reach[b]
            if got & ~masks[st]:
                report.add(f"B_{{{stable(s)}}} B_{{{stable(t)}}} is "
                           f"not contained in B_{{{stable(elements[st])}}}")
    for j, t in enumerate(elements):
        for s in order.strictly_below(t):
            if not blocks[index.index(s)] <= blocks[j]:
                report.add(f"{stable(s)} <= {stable(t)} but B_{{{stable(s)}}} "
                           f"is not contained in B_{{{stable(t)}}}")
    ring = algebra.ring
    covered = set().union(*blocks)
    if ring.is_field:
        span = SpanTracker(ring, algebra.dim)
        for i in sorted(covered):
            vec = zero_vector(ring, algebra.dim)
            vec[i] = ring.one()
            span.add(vec)
        if span.dimension != algebra.dim:
            report.add(f"the union of the B_s spans only {span.dimension} "
                       f"of {algebra.dim} dimensions")
    elif len(covered) != algebra.dim:
        report.add("the union of the B_s does not cover the basis")
    return report
