"""Dense product tables of the three algebras, built without reading the
factored product they check: L's from the basis labels as
`CovarianceModule` built it before L was kept factored, A_R(G)'s from
the groupoid's composition table (`composition_table`, the contracted
table the groupoid validator built before it read `GroupoidProduct`),
and L/I's from L's dense table, a zero product sent to zero
(`zero_or_class`).  The engine holds L/I as its classes only;
`FactoredQuotient` keeps the factored product it had, for the tests that
run Light's test or a computed homomorphism certificate on L/I.  On top
of them, the checks that ran on dense rows: Light's test on the whole
table with its generator rule (`table_associativity_counterexample`,
`table_light_generators`), the row-major homomorphism scan, and the
two-sidedness scan, and the tests that a named witness fails there:
`triple_fails` for a basis triple, `breaks_kernel` for a basis pair
where a half of I = ker psi fails.  `psi_of` is psi on a bisection
module, its targets read off the basis labels, with its homomorphism
certificate computed; `quotient_of` builds L/I with
it.  `ideal_generators` walks every generator of the ideal, and
`reference_build_ideal` is the union-find over them, the reference for
`build_ideal`'s germ classes; it runs on any validated index, not only
on bisections.  The factored product must agree with these;
`product_rows` reads it as dense rows, and `closed` is the precondition
of its Light's test.  `premises` gives the validator reports that
`CovarianceModule.verify_associativity` takes; `realize` runs psi with
the groupoid validator's report as its premise.  `dense_replay_theorem5`
reads psi from a theorem5 report's listing and checks it on the dense
tables over the whole basis, and `dense_replay_theorem3` does the same
for rho, with A_R(G)'s table read off the action document.  Where L is
built on the engine's bisection action, the label-keyed readers take its
label form (`families.label_view`).

`mul_basis` and `mul_vectors` multiply vectors of any of the algebras
over a given ring through its dense table, so that references in the
tests do not read the product they check.  The dense vectors of the
algebras are here too: the coordinates of a formal sum or of a groupoid
function, the image of a vector under an AlgebraMap, the spanning rows
of the ideal I, and phi on a groupoid function, as classes
(`phi_classes`, the label form of `SkewRealization.phi_values`) and as
quotient coordinates.  The algebras carry no ring, so each vector helper
takes the ring its caller holds.
"""

import json
import re
import weakref

from itertools import groupby
from operator import itemgetter

from families import (basis_labels, compose_table, label_bisection_action,
                      label_groupoid, label_index, label_view, mul, star_of)
from formula_oracle import SkewElement, SpaceFunction
from groupoidal.groupoid_core import validate_groupoid
from groupoidal.inverse_semigroups import (bisection_semigroup,
                                           natural_order,
                                           validate_inverse_semigroup)
from groupoidal.isomorphisms import AlgebraMap, psi
from groupoidal.partial_actions import (GroupPartialAction,
                                        induce_algebra_action,
                                        validate_group_partial_action,
                                        validate_isg_partial_action)
from groupoidal.scalars import BasedAlgebra, DenseTable, index_row, zero_vector
from groupoidal.skew_rings import (CovarianceModule, IdealCongruence,
                                   QuotientAlgebra, build_quotient)
from groupoidal.specfiles import parse_document
from groupoidal.steinberg_algebra import GroupoidFunction, SteinbergAlgebra
from groupoidal.validation import ValidationReport, stable
from replay_oracle import action_arrows, action_group, parse_rows


def dense_table(module):
    """table[i][j] is the index k with e_i e_j = e_k, or -1 when the
    product is zero: (s, x)(t, y) = (st, x) when y = theta_{s*}(x).  A
    product the index or the basis leaves out raises KeyError."""
    alg = module.algebra_action
    index = alg.index
    at_point = {}
    for j, (t, y) in enumerate(basis_labels(module)):
        at_point.setdefault(y, []).append((j, t))
    theta = label_view(alg.action).theta
    blank = index_row(module.dim, [-1]) * module.dim
    table = []
    for s, x in basis_labels(module):
        row = blank[:]
        for j, t in at_point.get(theta(star_of(index, s), x), ()):
            row[j] = label_index(module, mul(index, s, t), x)
        table.append(row)
    return table


def composition_table(g):
    """The contracted semigroup G u {0} on arrow indices: row b holds the
    index of bc at c, and -1 where (b, c) is not composable."""
    blank = index_row(g.n_arrows, [-1]) * g.n_arrows
    table = [blank[:] for _ in g.arrows]
    for (b, c), d in compose_table(g).items():
        table[b][c] = d
    return table


def product_rows(algebra):
    """The dense rows of a based algebra read through its factored
    product: row i holds row_products(i) at the columns at_point gives
    for its row point, and -1 elsewhere."""
    rows = []
    for i in range(algebra.dim):
        row = [-1] * algebra.dim
        for j, k in zip(algebra.at_point.get(algebra.row_points[i], ()),
                        algebra.row_products(i)):
            row[j] = k
        rows.append(row)
    return rows


def closed(algebra):
    """Whether every nonzero product e_i e_j = e_k of a based algebra has
    the column point of e_i and the row point of e_j, the precondition of
    BasedAlgebra.associativity_counterexample."""
    cols, rows = algebra.col_points, algebra.row_points
    return all(cols[k] == cols[i] and rows[k] == rows[j]
               for i in range(algebra.dim)
               for j, k in zip(algebra.at_point.get(rows[i], ()),
                               algebra.row_products(i)))


def table_light_generators(table):
    """light_generators on a dense table, as it ran before it read a
    based algebra: the same candidates and closure, with -1 a zero
    product that is never added."""
    n = len(table)
    # The last slot tallies the zero products (-1).
    counts = [0] * (n + 1)
    for row in table:
        for k in row:
            counts[k] += 1
    candidates = sorted(range(n), key=counts.__getitem__)
    generators = []
    inside = set()
    members = []
    done = 0
    for candidate in candidates:
        if len(inside) == n:
            break
        if candidate in inside:
            continue
        generators.append(candidate)
        inside.add(candidate)
        members.append(candidate)
        while done < len(members) and len(inside) < n:
            z = members[done]
            head = members[:done + 1]
            fresh = set(map(table[z].__getitem__, head))
            fresh.update(map(itemgetter(z), map(table.__getitem__, head)))
            fresh.discard(-1)
            fresh -= inside
            inside |= fresh
            members.extend(fresh)
            done += 1
    return generators


def table_associativity_counterexample(table):
    """Light's test on a whole dense table, any magma with zero (-1): a
    triple (i, g, k) with (e_i e_g) e_k != e_i (e_g e_k), rows outer and
    generators inner, k the first column where the sides differ; or
    None when the table is associative."""
    n = len(table)
    if n < 2:
        # e_0 e_0 is 0 or e_0, and either way the one triple associates.
        return None
    zero_row = (-1,) * n
    # gather(row_i) is (e_i (e_g e_k))_k, read through row_i.
    gathers = [(g, itemgetter(*table[g]))
               for g in table_light_generators(table)]
    for i, row in enumerate(table):
        # Index -1 (a zero product) reads the appended -1.
        row_i = list(row) + [-1]
        for g, gather in gathers:
            ig = row[g]
            left = tuple(table[ig]) if ig >= 0 else zero_row
            right = gather(row_i)
            if left != right:
                return (i, g, next(k for k in range(n)
                                   if left[k] != right[k]))
    return None


def table_of(algebra):
    """The dense table of any of the three algebras, and of a Cayley
    table's one-point view."""
    if isinstance(algebra, CovarianceModule):
        return dense_table(algebra)
    if isinstance(algebra, FactoredQuotient):
        algebra = algebra.quotient
    if isinstance(algebra, QuotientAlgebra):
        return [index_row(algebra.dim, row)
                for row in dense_quotient_table(algebra)]
    if isinstance(algebra, DenseTable):
        return algebra.table
    return composition_table(algebra.groupoid)


def dense_associativity(module):
    """A failing basis triple of L, or None, by Light's test on the dense
    table."""
    return table_associativity_counterexample(dense_table(module))


def triple_fails(table, triple):
    """Whether (e_i e_j) e_k != e_i (e_j e_k) in a dense table, for the
    triple (i, j, k); -1 stands for a zero product."""
    def mul(a, b):
        return -1 if a < 0 or b < 0 else table[a][b]

    i, j, k = triple
    return mul(mul(i, j), k) != mul(i, mul(j, k))


def premises(action):
    """The validator reports verify_associativity takes as premises, for
    the index of the action and for the action read through its label
    form (label_view), which the bisection action needs, back in the
    validators' form; a validator that raises gives a failing report."""
    check = (validate_group_partial_action
             if isinstance(action, GroupPartialAction)
             else validate_isg_partial_action)
    reports = []
    for validator, subject in ((validate_inverse_semigroup, action.index),
                               (check, label_view(action).indexed())):
        try:
            reports.append(validator(subject))
        except (KeyError, ValueError) as exc:
            report = ValidationReport("premise")
            report.add(str(exc))
            reports.append(report)
    return reports


def skew_ring(algebra_action):
    """L with its associativity decided from the premises."""
    module = CovarianceModule(algebra_action)
    module.verify_associativity(premises(algebra_action.action))
    return module


def realize(groupoid):
    """psi of a groupoid, with its validator's report as the premise."""
    return psi(groupoid, validate_groupoid(groupoid))


def dense_homomorphism(m, rows=None):
    """The homomorphism certificate (flag, detail) of an AlgebraMap by the
    row-major scan over the dense tables of its domain and codomain, on
    the given domain rows, by default all."""
    targets = m.targets
    image = targets + [-1]
    dom, cod = table_of(m.domain), table_of(m.codomain)
    for i in range(len(dom)) if rows is None else rows:
        row = dom[i]
        cod_row = cod[targets[i]]
        lhs = [image[k] for k in row]
        rhs = [cod_row[t] for t in targets]
        if lhs != rhs:
            j = next(j for j, (a, b) in enumerate(zip(lhs, rhs)) if a != b)
            labels = basis_labels(m.domain)
            return (False, f"fails on basis pair ({stable(labels[i])}, "
                           f"{stable(labels[j])})")
    return (True, None)


def zero_or_class(quotient):
    """quotient._class extended to a zero product: index -1 of L's dense
    table reads -1, never the last class."""
    return quotient._class + [-1]


def dense_quotient_table(quotient):
    """The table of L/I read off the dense table of L."""
    table, cls = dense_table(quotient.module), zero_or_class(quotient)
    reps = quotient.representatives
    return [[cls[table[a][b]] for b in reps] for a in reps]


class FactoredQuotient(BasedAlgebra):
    """L/I as a based algebra with a product of its own, as QuotientAlgebra
    kept it before L/I was held as its classes alone: the reference for
    the tests that run Light's test or a computed homomorphism
    certificate on L/I.  Its points are those of the representatives in
    L, and a row is the classes of L's row at q's representative, read
    at the representatives of the classes at q's row point; L's rows hold
    no zero product, so no class is read at -1."""

    def __init__(self, quotient):
        self.quotient = quotient
        self.module, self.representatives = (quotient.module,
                                             quotient.representatives)
        self.dim, self.label = quotient.dim, quotient.label
        self._set_points(
            [self.module.row_points[a] for a in self.representatives],
            [self.module.col_points[a] for a in self.representatives])

    def row_products(self, q):
        row = self.module.row_products(self.representatives[q])
        place, reps = self.module.place, self.representatives
        return [self.quotient._class[row[place[reps[r]]]]
                for r in self.at_point.get(self.row_points[q], ())]


def ideal_generators(module):
    """The generators 1_x delta_s - 1_x delta_t of the ideal, for s < t in
    the natural order and x in X_s, as an iterator of basis index pairs
    (a, b) standing for e_a - e_b.  L's basis is walked once, as the pairs
    are read: each (t, x) is paired with the (s, x) for s != t in the
    down-set of t, read by element index at the point of x in _basis_at,
    which is -1 exactly when x is not in X_s.

    That finds every generator, as X_s lies in X_t for s <= t when the
    action is validated or built from a validated groupoid
    (bisection_action).  Write s = t e with e = s* s (see natural_order).
    The intertwining law for (s*, s) reads theta_{s*}(X_s) = X_{s*} & X_e,
    and theta_{s*} maps X_s onto X_{s*}, so X_{s*} lies in X_e.  On
    X_{s*} = X_{e*} & X_{(te)*} the composition law gives
    theta_s = theta_t theta_e, so X_s, the image of theta_s, lies in X_t,
    the image of theta_t."""
    below, basis_at = natural_order(module._index), module._basis_at
    return ((a, b) for b, (t, p) in enumerate(zip(module._element,
                                                  module.col_points))
            for a in map(basis_at[p].__getitem__, below[t])
            if a >= 0 and a != b)


def reference_build_ideal(module):
    """The span of the generators, by union-find, on any validated index:
    dim I is dim L minus the number of classes, and rep[a] is the largest
    index of the class of a.

    Each (t, x) is joined only to the first (s, x) listed below it, which
    gives the classes of all the generators.  For fixed x, D(t) = {s <= t :
    x in X_s} is closed under meets: X_{te1} & X_{te2} = X_{te1e2}, as
    X_{te} = theta_t(X_{t*} & X_e) (the intertwining law, X_{te} lying in
    X_t) and X_e & X_f = X_{ef} (theta_e is the identity on X_e).  So D(t)
    has a least element m(t), which is m(s) for every s in D(t).  A chain
    of first generators runs strictly down the order to (m(t), x), and
    every generator joins two (s, x) of one m(s).  The generators are
    counted as they are read, and never held all at once."""
    parent = list(range(module.dim))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    # ideal_generators yields the generators of each (t, x) together.
    count = 0
    for b, pairs in groupby(ideal_generators(module), itemgetter(1)):
        ra, rb = find(next(pairs)[0]), find(b)
        count += 1 + sum(1 for _ in pairs)
        if ra != rb:
            # The larger root stays, so each root is the largest index of
            # its class.
            parent[min(ra, rb)] = max(ra, rb)
    return IdealCongruence(module, count,
                           [find(a) for a in range(module.dim)])


def reference_generator_scan(quotient, table=None, edges=None):
    """The first generator e_a - e_b and basis element e_k whose product
    leaves the ideal, scanning the dense table of L.  The generators are
    ideal_generators(module) unless given."""
    if table is None:
        table = dense_table(quotient.module)
    if edges is None:
        edges = ideal_generators(quotient.module)
    cls = zero_or_class(quotient)
    for a, b in edges:
        row_a, row_b = table[a], table[b]
        for k, row_k in enumerate(table):
            if cls[row_k[a]] != cls[row_k[b]]:
                return f"e_{k} * (e_{a} - e_{b}) leaves the ideal"
            if cls[row_a[k]] != cls[row_b[k]]:
                return f"(e_{a} - e_{b}) * e_{k} leaves the ideal"
    return None


def psi_of(module):
    """psi on L of a bisection action, with its homomorphism certificate
    computed on module.generator_basis(): (B, x) goes to the arrow of B
    with range x, read off the labels."""
    g = module.algebra_action.index.groupoid
    labels = label_groupoid(g)
    targets = [g.index(next(b for b in s if labels.range(b) == x))
               for s, x in basis_labels(module)]
    psi_map = AlgebraMap(module, SteinbergAlgebra(g), targets, name="psi")
    psi_map.certify_homomorphism(module.generator_basis())
    return psi_map


def quotient_of(module, ideal):
    """L/I for a bisection module, built by build_quotient with psi_of."""
    return build_quotient(module, ideal, psi_of(module))


_IN_I = re.compile(r"e_(\d+) - e_(\d+) lies in I but not in ker psi")
_IN_KERNEL = re.compile(r"e_(\d+) - e_(\d+) lies in ker psi but not in I")


def breaks_kernel(quotient, psi_map, text):
    """Whether the violation text of verify_representative_independence
    holds: psi's homomorphism certificate failed, or the pair e_a - e_b
    named lies in I and not in the kernel of psi, or the other way round.
    A difference of basis vectors lies in I iff they share a class, and
    in the kernel iff they share a target."""
    if text == "not derived: psi_homomorphism failed":
        return not psi_map.is_homomorphism
    in_i, in_kernel = _IN_I.fullmatch(text), _IN_KERNEL.fullmatch(text)
    a, b = map(int, (in_i or in_kernel).groups())
    same_class = quotient._class[a] == quotient._class[b]
    same_target = psi_map.targets[a] == psi_map.targets[b]
    return (same_class, same_target) == ((True, False) if in_i
                                         else (False, True))


_TABLES = weakref.WeakKeyDictionary()


def _table(algebra):
    """table_of(algebra), built once per algebra."""
    if algebra not in _TABLES:
        _TABLES[algebra] = table_of(algebra)
    return _TABLES[algebra]


def table_mul_basis(table, ring, i, j):
    vec = zero_vector(ring, len(table))
    k = table[i][j]
    if k >= 0:
        vec[k] = ring.one()
    return vec


def table_mul_vectors(table, ring, u, v):
    out = zero_vector(ring, len(table))
    right = [(j, b) for j, b in enumerate(v) if b]
    for i, a in enumerate(u):
        if not a:
            continue
        row = table[i]
        for j, b in right:
            k = row[j]
            if k >= 0:
                out[k] = out[k] + a * b
    return out


def mul_basis(algebra, ring, i, j):
    return table_mul_basis(_table(algebra), ring, i, j)


def mul_vectors(algebra, ring, u, v):
    return table_mul_vectors(_table(algebra), ring, u, v)


def apply(algebra_map, ring, vec):
    """The image of a coordinate vector over ring: e_i goes to
    e_{targets[i]}."""
    out = [ring.zero()] * algebra_map.codomain.dim
    for t, c in zip(algebra_map.targets, vec):
        if c:
            out[t] = out[t] + c
    return out


def to_vector(algebra, ring, element):
    """Coordinates over ring of a SkewElement in L, or of a
    GroupoidFunction in A_R(G)."""
    vec = zero_vector(ring, algebra.dim)
    if isinstance(algebra, CovarianceModule):
        if element.algebra_action is not algebra.algebra_action:
            raise ValueError("element does not belong to this module")
        for s, f in element.terms.items():
            for x, c in f.values.items():
                vec[label_index(algebra, s, x)] = c
        return vec
    if element.parent is not algebra.groupoid or element.ring != ring:
        raise ValueError("function does not belong to this algebra")
    for a, c in element.values.items():
        vec[algebra.groupoid.index(a)] = c
    return vec


def from_vector(algebra, ring, vec):
    """The SkewElement or GroupoidFunction with the given coordinates over
    ring."""
    if isinstance(algebra, CovarianceModule):
        terms = {}
        for i, c in enumerate(vec):
            if c:
                s, x = basis_labels(algebra)[i]
                terms.setdefault(s, {})[x] = c
        return SkewElement(algebra.algebra_action,
                           {s: SpaceFunction(ring, vals)
                            for s, vals in terms.items()})
    values = {basis_labels(algebra)[i]: c for i, c in enumerate(vec) if c}
    return GroupoidFunction(algebra.groupoid, ring, values)


def ideal_rows(ideal, ring):
    """The spanning rows over ring of the congruence I: e_a - e_rep(a)
    for each a that does not represent its class, in increasing order of
    a."""
    dim = ideal.module.dim
    rows = []
    for a, r in enumerate(ideal.rep):
        if a != r:
            row = zero_vector(ring, dim)
            row[a] = ring.one()
            row[r] = -ring.one()
            rows.append(row)
    return rows


def phi_classes(f, realization):
    """The left inverse of psi_tilde: decompose f canonically into disjoint
    bisection indicators sum r_i 1_{B_i} and map it to the class of
    sum r_i (indicator of r(B_i)) delta_{B_i}, as {quotient index:
    coefficient} over f's ring, with zeros dropped (see
    SkewRealization.phi_values)."""
    if f.parent is not realization.groupoid:
        raise ValueError("function does not live on the realized groupoid")
    index, ring = realization.groupoid._index, f.ring
    sums = realization.phi_values({index[a]: c.value
                                   for a, c in f.values.items()})
    out = {q: ring.scalar(v) for q, v in sums.items()}
    return {q: c for q, c in out.items() if c}


def phi(f, realization):
    """phi_classes as quotient coordinates over f's ring."""
    vec = zero_vector(f.ring, realization.quotient.dim)
    for q, c in phi_classes(f, realization).items():
        vec[q] = c
    return vec


def dense_replay_theorem5(groupoid, text):
    """The ways psi, as a passing theorem5 report lists it in
    psi_basis_images, fails on the dense tables, as messages, empty when
    it replays.  L is built from the label form of the bisection action
    (label_bisection_action, indexed), I is reference_build_ideal's, and psi is
    read from the listing alone.  Three checks, each on the whole basis
    where the engine reads generator rows or derives: psi is
    multiplicative on every basis pair of the dense tables of L and
    A_R(G), psi vanishes on I, and psi~ sends one representative of each
    class of I to each arrow."""
    semigroup = bisection_semigroup(groupoid, groupoid.n_arrows)
    module = CovarianceModule(induce_algebra_action(
        label_bisection_action(groupoid, semigroup).indexed()))
    entries = [entry.rsplit(":", 1)[0].split("->") for entry in
               parse_rows(text)["psi_basis_images"][1].split("; ")]
    index = {a: i for i, a in enumerate(groupoid.arrows)}
    if [label for label, _ in entries] != \
            [stable(label) for label in basis_labels(module)] or \
            any(arrow not in index for _, arrow in entries):
        return ["psi_basis_images does not list L's basis onto arrows"]
    targets = [index[arrow] for _, arrow in entries]
    problems = []
    ok, detail = dense_homomorphism(AlgebraMap(
        module, SteinbergAlgebra(groupoid), targets))
    if not ok:
        problems.append(f"psi_homomorphism: {detail}")
    rep = reference_build_ideal(module).rep
    if any(targets[a] != targets[r] for a, r in enumerate(rep)):
        problems.append("psi_vanishes_on_ideal")
    if sorted(targets[a] for a, r in enumerate(rep) if a == r) != \
            list(range(groupoid.n_arrows)):
        problems.append("psi_tilde_bijective")
    return problems


def dense_replay_theorem3(doc, text):
    """The ways rho, as a passing theorem3 report lists it in
    rho_basis_images, fails on the dense tables, as messages, empty when
    it replays.  doc is the action document as json reads it.  L's table
    is dense_table on the action parsed from doc.  A_R(G)'s is read off
    doc by the pair formulas (s, y)(t, theta_{s^-1}(y)) = (st, y), on the
    arrows (g, x) for x in X_g as replay_oracle reads them, not off the
    transformation groupoid's table.  rho is read from the listing alone
    and checked multiplicative on every basis pair, and bijective."""
    module = CovarianceModule(induce_algebra_action(
        parse_document(json.dumps(doc).encode()).payload))
    elements, product = action_group(doc)
    identity, arrows = action_arrows(doc)
    index = {arrow: k for k, arrow in enumerate(arrows)}
    rendered = {f"({g},{x})": k for k, (g, x) in enumerate(arrows)}
    entries = [entry.rsplit(":", 1)[0].split("->") for entry in
               parse_rows(text)["rho_basis_images"][1].split("; ")]
    if [label for label, _ in entries] != \
            [stable(label) for label in basis_labels(module)] or \
            any(arrow not in rendered for _, arrow in entries):
        return ["rho_basis_images does not list L's basis onto arrows"]
    targets = [rendered[arrow] for _, arrow in entries]
    inverse = {s: next(t for t in elements if product[s, t] == identity)
               for s in elements}
    algebra = [[-1] * len(arrows) for _ in arrows]
    for k, (s, y) in enumerate(arrows):
        z = doc["maps"][inverse[s]][y]
        for t in elements:
            if (t, z) in index:
                algebra[k][index[t, z]] = index[product[s, t], y]
    problems = []
    image = targets + [-1]
    for i, row in enumerate(dense_table(module)):
        j = next((j for j, k in enumerate(row)
                  if image[k] != algebra[targets[i]][targets[j]]), None)
        if j is not None:
            problems.append(f"rho_homomorphism: fails on basis pair "
                            f"({stable(basis_labels(module)[i])}, "
                            f"{stable(basis_labels(module)[j])})")
            break
    if sorted(targets) != list(range(len(arrows))):
        problems.append("rho_bijective")
    return problems
