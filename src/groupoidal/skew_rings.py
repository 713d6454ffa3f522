"""Formal sums a_s delta_s over a partial action: the covariance module L
with its twisted product, the partial skew group ring, the ideal I
identifying a delta_s with a delta_t for s <= t, and the quotient L/I.

L and L/I are based algebras with 0/1 structure constants: each is given
by a product table of basis indices.  I is spanned by differences of
basis vectors, so it is a congruence on the basis, found by union-find
over any scalar ring; L/I has one basis element per class.

The empty-domain convention: an index element with empty domain
contributes no basis vectors (D_s = {0}), which covers the zero bisection
of a bisection semigroup.
"""

from __future__ import annotations

from .partial_actions import SpaceFunction
from .scalars import (SpanTracker, index_row,
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
    y = theta_{s*}(x) and zero otherwise, so L is given by its product
    table, built once here.
    """

    def __init__(self, algebra_action):
        self.algebra_action = algebra_action
        self.ring = algebra_action.ring
        index = algebra_action.index
        self.basis_labels = [(s, x) for s in index.elements
                             for x in algebra_action.domain_points(s)]
        self.dim = len(self.basis_labels)
        self._idx = {lbl: i for i, lbl in enumerate(self.basis_labels)}
        at_point = {}
        for j, (t, y) in enumerate(self.basis_labels):
            at_point.setdefault(y, []).append((j, t))
        theta = algebra_action.action.theta
        blank = index_row(self.dim, [-1]) * self.dim
        self.table = []
        for s, x in self.basis_labels:
            row = blank[:]
            for j, t in at_point.get(theta(index.star(s), x), ()):
                row[j] = self._idx[(index.mul(s, t), x)]
            self.table.append(row)
        self.associativity_counterexample = None

    def label_index(self, s, x):
        return self._idx[(s, x)]

    def mul_basis(self, i, j):
        return table_mul_basis(self.table, self.ring, i, j)

    def mul_vectors(self, u, v):
        return table_mul_vectors(self.table, self.ring, u, v)

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

    def verify_associativity(self):
        """Check (e_i e_j) e_k = e_i (e_j e_k) on all basis triples; stores
        and returns the first counterexample triple, or None."""
        self.associativity_counterexample = \
            table_associativity_counterexample(self.table)
        return self.associativity_counterexample


def build_skew_group_ring(algebra_action):
    """The partial skew group ring as a based algebra: dimension is the sum
    of the domain sizes, the multiplication table is materialized, and
    associativity is checked exhaustively on basis triples (a failure is
    recorded as a counterexample on the module, not raised)."""
    module = CovarianceModule(algebra_action)
    module.verify_associativity()
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


class QuotientAlgebra:
    """L/I with one basis element per class of the congruence, labelled by
    its representative, in increasing order: the class of e_a is basis
    element q when representatives[q] = rep(a)."""

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
        self.table = [index_row(self.dim, [self._class[module.table[a][b]]
                                           for b in self.representatives])
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
        run on the representatives' rows.  Only on a failure does the scan
        over the generators run, to name the first violation."""
        if not self._spanning_rows_close():
            return self._first_generator_violation()
        return None

    def _spanning_rows_close(self):
        table, cls, rep = self.module.table, self._class, self.ideal.rep
        # The rows are transient tuples; only the representatives' are kept.
        kept = {r: tuple(map(cls.__getitem__, table[r]))
                for r in self.representatives}
        for a, r in enumerate(rep):
            if a != r and tuple(map(cls.__getitem__, table[a])) != kept[r]:
                return False
        return all(tuple(map(row.__getitem__, rep)) == row
                   for row in kept.values())

    def _first_generator_violation(self):
        table, cls = self.module.table, self._class
        for a, b in self.ideal.edges:
            row_a, row_b = table[a], table[b]
            for k, row_k in enumerate(table):
                if cls[row_k[a]] != cls[row_k[b]]:
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
    table = algebra.table
    report = PregradingReport(f"pre-grading over {getattr(index, 'name', 'index')}")

    # blocks[i] is B_s for the element s of index i; products of elements
    # are read off the index table.
    elements = index.elements
    blocks = [{cls[module.label_index(s, x)] for x in alg.domain_points(s)}
              for s in elements]
    # B_s B_t lies in B_st iff every product e_a e_b with a in B_s and b in
    # B_t does.  Sets of basis indices are bitmasks here: reach[b] holds
    # the products e_a e_b over a in B_s, a zero product (-1) adding none.
    bit = [1 << k for k in range(algebra.dim)] + [0]
    masks = [sum(bit[k] for k in block) for block in blocks]
    for i, s in enumerate(elements):
        reach = [0] * algebra.dim
        for a in blocks[i]:
            for b, k in enumerate(table[a]):
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
