"""Groupoid families beyond the catalog, as spec documents and as parsed
groupoids: pair groupoids and bundles of cyclic groups; the regular
actions of cyclic groups; the symmetric inverse monoids I(X) of
partial bijections; inverse semigroups and groups built from dict
tables; the label constructors of groupoid functions, `indicator`
and `point_mass`, which no command needs; and groupoids in label form:
`LabelGroupoid`, the tables keyed by arrow labels that FiniteGroupoid
held before it moved to arrow indices, `label_groupoid`, which reads a
FiniteGroupoid through its labels, and `groupoid_from_labels`, which
builds one from label tables.  Also the structures the library builds
from one argument that its calls always pass: rho on a freshly built
transformation groupoid, the bisection action on a freshly built
bisection semigroup, and random scalars.

Partial actions in label form, the oracle of the engine's, which holds
domains and maps on point indices: `LabelPartialAction`, domain sets and
point maps keyed by element labels, the form the engine's actions had
before, with `LabelGroupAction` and `SemigroupPartialAction` over a
group and over an inverse semigroup; `action_from_labels`, which builds
the engine's form from label tables; and `label_view`, which reads any
action in label form.  The label form of the bisection action is the
oracle of the engine's, which is read off the semigroup's arrow indices:
`range_set`, and `label_bisection_action`, which builds a domain r(B)
and a map s(b) -> r(b) per bisection B.  `bisection_sets` gives
enumerate_bisections' masks as sets of arrows; `star_of` reads a
pseudo-inverse by label.

The semigroups and algebras of theorems 3 and 5 in label form, the
oracle of the engine's, which holds them on indices and builds a label
only for a report: `label_semigroup` gives a bisection semigroup the
frozenset of arrows of each bisection and the label -> index dict it
held before; `basis_labels` is the (s, x) list of a covariance module
(the representatives' pairs for L/I, the arrows for A_R(G)), and
`label_index` reads it back."""

import json
import weakref
from itertools import combinations, permutations

from groupoidal.groupoid_core import (DEFAULT_BISECTION_BOUND,
                                      FiniteGroupoid, enumerate_bisections)
from groupoidal.groups import FiniteGroup
from groupoidal.inverse_semigroups import (FiniteInverseSemigroup,
                                           bisection_semigroup, natural_order)
from groupoidal.isomorphisms import bisection_action, rho
from groupoidal.partial_actions import GroupPartialAction, _PartialActionBase
from groupoidal.scalars import Scalar, index_row
from groupoidal.specfiles import FORMAT_TAG, parse_document
from groupoidal.steinberg_algebra import GroupoidFunction
from groupoidal.transformation_groupoid import build_transformation_groupoid


def pair_groupoid_spec(n):
    """The pair groupoid on n points: arrow a{i}_{j} runs from j to i."""
    units = [f"a{i}_{i}" for i in range(n)]
    others = [f"a{i}_{j}" for i in range(n) for j in range(n) if i != j]
    return {"format": FORMAT_TAG, "kind": "groupoid",
            "name": f"pair_groupoid_{n}",
            "arrows": units + others, "units": units,
            "inverse": {f"a{i}_{j}": f"a{j}_{i}"
                        for i in range(n) for j in range(n)},
            "compose": {f"a{i}_{j} a{j}_{k}": f"a{i}_{k}"
                        for i in range(n) for j in range(n)
                        for k in range(n)}}


def cyclic_bundle_spec(orders):
    """The disjoint union of cyclic groups Z_k, one per unit."""
    arrows, units, inverse, compose = [], [], {}, {}
    for i, k in enumerate(orders):
        units.append(f"c{i}_0")
        for r in range(k):
            arrows.append(f"c{i}_{r}")
            inverse[f"c{i}_{r}"] = f"c{i}_{-r % k}"
            for s in range(k):
                compose[f"c{i}_{r} c{i}_{s}"] = f"c{i}_{(r + s) % k}"
    return {"format": FORMAT_TAG, "kind": "groupoid",
            "name": "bundle_" + "_".join(f"z{k}" for k in orders),
            "arrows": arrows, "units": units,
            "inverse": inverse, "compose": compose}


def parse(spec):
    return parse_document(json.dumps(spec).encode()).payload


CYCLIC_BUNDLES = [(2,), (3,), (2, 2, 2), (4, 4), (2, 3, 5)]


def family_groupoids(max_pair=4):
    """Pair groupoids on 1 to max_pair points and the cyclic bundles."""
    return ([parse(pair_groupoid_spec(n)) for n in range(1, max_pair + 1)]
            + [parse(cyclic_bundle_spec(ks)) for ks in CYCLIC_BUNDLES])


def regular_action(n):
    """Z_n acting on itself by rotation: g^k sends point i to i + k."""
    group = FiniteGroup.cyclic(n)
    space = [str(i) for i in range(n)]
    maps = {g: {str(i): str((i + k) % n) for i in range(n)}
            for k, g in enumerate(group.elements)}
    return action_from_labels(group, space, {g: space for g in maps}, maps,
                              name=f"regular_z{n}")


def regular_action_spec(n):
    """The regular action of Z_n as a spec document, points 0 to n-1: by
    the preset of Z_n up to order 6 (`trivial` for n = 1), above by an
    explicit table on the preset's element names."""
    names = ["e"] + ["g" if k == 1 else f"g{k}" for k in range(1, n)]
    if n == 1:
        group = {"preset": "trivial"}
    elif n <= 6:
        group = {"preset": f"Z{n}"}
    else:
        group = {"elements": names,
                 "table": {f"{names[i]} {names[j]}": names[(i + j) % n]
                           for i in range(n) for j in range(n)}}
    space = [str(i) for i in range(n)]
    return {"format": FORMAT_TAG, "kind": "action",
            "name": f"regular_z{n}", "group": group, "space": space,
            "domains": {g: space for g in names},
            "maps": {g: {str(i): str((i + k) % n) for i in range(n)}
                     for k, g in enumerate(names)}}


class PartialBijection:
    """A bijection between two subsets of a fixed finite set, the element
    type of the symmetric inverse monoid I(X)."""

    __slots__ = ("mapping", "_key")

    def __init__(self, mapping):
        mapping = dict(mapping)
        if len(set(mapping.values())) != len(mapping):
            raise ValueError("mapping is not injective")
        self.mapping = mapping
        self._key = frozenset(mapping.items())

    @classmethod
    def identity(cls, points):
        return cls({x: x for x in points})

    @property
    def domain(self):
        return frozenset(self.mapping)

    @property
    def image(self):
        return frozenset(self.mapping.values())

    def __call__(self, x):
        return self.mapping[x]

    def compose(self, other):
        """self after other, defined where the composite makes sense."""
        return PartialBijection({x: self.mapping[y]
                                 for x, y in other.mapping.items()
                                 if y in self.mapping})

    def inverse(self):
        return PartialBijection({y: x for x, y in self.mapping.items()})

    def __eq__(self, other):
        return isinstance(other, PartialBijection) and self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        pairs = ",".join(f"{x}>{y}" for x, y in sorted(self.mapping.items(),
                                                       key=lambda xy: str(xy[0])))
        return f"[{pairs}]"


def symmetric_inverse_monoid(points, name=None):
    """The inverse semigroup I(X) of all partial bijections of a finite
    set, under composition-where-defined and inversion."""
    points = list(points)
    order = {x: i for i, x in enumerate(points)}
    elements = []
    for k in range(len(points) + 1):
        for domain in combinations(points, k):
            for image in permutations(points, k):
                elements.append(PartialBijection(dict(zip(domain, image))))
    elements.sort(key=lambda p: (len(p.mapping),
                                 sorted((order[x], order[y])
                                        for x, y in p.mapping.items())))
    table = {(f, g): f.compose(g) for f in elements for g in elements}
    star = {f: f.inverse() for f in elements}
    return semigroup_from_products(
        elements, table, star, name=name or f"I({len(points)} points)")


def mul(s, a, b):
    """The product of two elements of a semigroup, by label, read off its
    index rows; KeyError where the table leaves it out."""
    s = label_semigroup(s)
    k = s.row(s.index(a))[s.index(b)]
    if k < 0:
        raise KeyError((a, b))
    return s.elements[k]


def star_of(s, a):
    """The pseudo-inverse of an element of a semigroup (the inverse, in a
    group), by label, read off its star table; KeyError where the table
    leaves it out."""
    s = label_semigroup(s)
    k = s.star_table[s.index(a)]
    if k < 0:
        raise KeyError(a)
    return s.elements[k]


def order_pairs(s):
    """The natural order of s as the set of label pairs (a, b) with
    a <= b, read off the index down-sets of natural_order."""
    elems = label_semigroup(s).elements
    return frozenset((elems[a], elems[b])
                     for b, below in enumerate(natural_order(s))
                     for a in below)


def tabulated(s):
    """An inverse semigroup with products on demand, such as a bisection
    semigroup, as a FiniteInverseSemigroup with its whole table, so that
    tests can read or corrupt entries."""
    return FiniteInverseSemigroup(
        label_semigroup(s).elements,
        [index_row(s.order, s.row(i)) for i in range(s.order)],
        list(s.star_table), name=s.name)


def idempotents(s):
    """The elements e of an inverse semigroup with e e = e."""
    return [e for e in label_semigroup(s).elements if mul(s, e, e) == e]


def product_rows(elements, products):
    """The index rows of a dict of products keyed by element pairs: an
    absent key becomes -1; a value that is not an element is refused."""
    elements = list(elements)
    index = {e: i for i, e in enumerate(elements)}
    return [index_row(len(elements), [_at(index, products.get((a, b)),
                                          f"product of ({a}, {b})")
                                      for b in elements])
            for a in elements]


def _at(index, value, where):
    if value is None:
        return -1
    if value not in index:
        raise ValueError(f"{where} is {value}, not an element")
    return index[value]


def semigroup_from_products(elements, products, star, name="semigroup"):
    """A FiniteInverseSemigroup with its index tables built from a dict of
    products keyed by element pairs and a dict of pseudo-inverses, as
    product_rows reads them."""
    table = product_rows(elements, products)
    index = {e: i for i, e in enumerate(elements)}
    star_table = [_at(index, star.get(a), f"star of {a}") for a in elements]
    return FiniteInverseSemigroup(elements, table, star_table, name=name)


def group_from_products(elements, products, name="group"):
    """A FiniteGroup on the index rows of a dict of products keyed by
    element pairs (product_rows)."""
    return FiniteGroup(elements, product_rows(elements, products), name=name)


def indicator(parent, ring, arrows):
    """The indicator function of a set of arrows of parent."""
    return GroupoidFunction(parent, ring, dict.fromkeys(arrows, ring.one()))


def point_mass(parent, ring, arrow):
    return indicator(parent, ring, [arrow])


def transformation_rho(action):
    """rho of the action, onto its transformation groupoid built here."""
    return rho(action, build_transformation_groupoid(action))


def bisection_action_of(g, bound=DEFAULT_BISECTION_BOUND):
    """The action of the bisection semigroup of g, built here, on the
    units of g."""
    return bisection_action(g, bisection_semigroup(g, bound))


class LabelPartialAction:
    """A partial action keyed by labels: domains[s] the set X_s and
    maps[s] the dict x -> theta_s(x), for each element s of the index.
    The constructor checks the keys and that the domains lie in the
    space, as the engine's constructor did before the parser took those
    checks over."""

    def __init__(self, index, space, domains, maps, name="action"):
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
        self.name = name

    def domain_points(self, s):
        return sorted(self.domains[s], key=self._order.__getitem__)

    def theta(self, s, x):
        """Apply the partial bijection of s (defined on X_{s*})."""
        try:
            return self.maps[s][x]
        except KeyError:
            raise ValueError(f"{x} is not in the domain of the map of {s}") from None

    def copy(self):
        """A copy whose domains and maps can be changed."""
        return type(self)(self.index, self.space, self.domains, self.maps,
                          name=self.name)

    def indexed(self):
        """The action in the engine's form (action_from_labels)."""
        return action_from_labels(self.index, self.space, self.domains,
                                  self.maps, name=self.name)


class LabelGroupAction(LabelPartialAction):
    """A partial action of a finite group, keyed by labels."""

    def __init__(self, group, space, domains, maps, name="action"):
        super().__init__(group, space, domains, maps, name)
        self.group = group


class SemigroupPartialAction(LabelPartialAction):
    """A partial action of a finite inverse semigroup on a finite set,
    keyed by labels."""

    def __init__(self, semigroup, space, domains, maps, name="action"):
        super().__init__(semigroup, space, domains, maps, name)
        self.semigroup = semigroup


def action_from_labels(index, space, domains, maps, name="action"):
    """The engine's form of the partial action of index given by label
    tables: a GroupPartialAction when index is a group, else the index
    form over an inverse semigroup.  domains[s] is the set X_s and
    maps[s] the dict x -> theta_s(x); an unknown point raises KeyError."""
    space = list(space)
    position = {x: p for p, x in enumerate(space)}
    point_domains, point_maps = [], []
    for s in index.elements:
        point_domains.append(sorted({position[x] for x in domains[s]}))
        entry = [-1] * len(space)
        for x, y in maps[s].items():
            entry[position[x]] = position[y]
        point_maps.append(entry)
    if isinstance(index, FiniteGroup):
        return GroupPartialAction(index, space, point_domains, point_maps,
                                  name=name)
    return _PartialActionBase(index, space, point_domains, point_maps, name)


def range_set(g, bis):
    g = label_groupoid(g)
    return frozenset(g.range(b) for b in bis)


def label_bisection_action(groupoid, semigroup):
    """The bisection action built from labels: for each bisection B, the
    domain r(B) and the map s(b) -> r(b) over the arrows b of B."""
    groupoid, semigroup = label_groupoid(groupoid), label_semigroup(semigroup)
    space = groupoid.sort_arrows(groupoid.units)
    domains = {}
    maps = {}
    for bis in semigroup.elements:
        domains[bis] = range_set(groupoid, bis)
        maps[bis] = {groupoid.source(b): groupoid.range(b) for b in bis}
    return SemigroupPartialAction(semigroup, space, domains, maps,
                                  name=f"bisections@{groupoid.name}")


_LABEL_VIEWS = weakref.WeakKeyDictionary()


def label_view(action):
    """The action in label form, built once per action: the action itself
    when it is in label form; for the engine's bisection action,
    label_bisection_action on its groupoid and semigroup; else the
    engine's domains and maps read through the labels of the points and
    elements, each map in the order of the space.  The view is shared:
    change a copy()."""
    if isinstance(action, LabelPartialAction):
        return action
    view = _LABEL_VIEWS.get(action)
    if view is None:
        if hasattr(action, "maps"):
            space, elements = action.space, action.index.elements
            kind = (LabelGroupAction if isinstance(action, GroupPartialAction)
                    else SemigroupPartialAction)
            view = kind(action.index, space,
                        {s: {space[x] for x in d}
                         for s, d in zip(elements, action.domains)},
                        {s: {space[x]: space[y] for x, y in enumerate(m)
                             if y >= 0} for s, m in zip(elements, action.maps)},
                        name=action.name)
        else:
            view = label_bisection_action(action.groupoid, action.index)
        _LABEL_VIEWS[action] = view
    return view


def label_bisection_action_of(g, bound=DEFAULT_BISECTION_BOUND):
    """label_bisection_action on a bisection semigroup of g built here."""
    return label_bisection_action(g, bisection_semigroup(g, bound))


def mask_arrows(g, mask):
    """The bisection of bitmask mask over g's arrow order, as a set."""
    return frozenset(a for i, a in enumerate(g.arrows) if mask >> i & 1)


def bisection_sets(g, bound=DEFAULT_BISECTION_BOUND):
    """The bisections of g as sets of arrows, in enumerate_bisections'
    order."""
    return [mask_arrows(g, mask) for mask in enumerate_bisections(g, bound)]


class LabelGroupoid:
    """A finite groupoid on arrow labels: the form FiniteGroupoid had
    before its tables moved to arrow indices, kept as the reference of
    the oracles that read labels.  inverse and compose are dicts keyed
    by labels; range and source are derived (r(b) = b b^{-1},
    s(b) = b^{-1} b, None where that pair has no composite)."""

    def __init__(self, arrows, units, inverse, compose, name="groupoid"):
        self.name = name
        self.arrows = list(arrows)
        if len(set(self.arrows)) != len(self.arrows):
            raise ValueError("duplicate arrows")
        self._index = {a: i for i, a in enumerate(self.arrows)}
        self.units = frozenset(units)
        self.inverse_table = dict(inverse)
        self.compose_table = dict(compose)
        self._range = {}
        self._source = {}
        for a in self.arrows:
            ainv = self.inverse_table.get(a)
            self._range[a] = self.compose_table.get((a, ainv))
            self._source[a] = self.compose_table.get((ainv, a))

    @property
    def n_arrows(self):
        return len(self.arrows)

    def index(self, a):
        return self._index[a]

    def is_unit(self, a):
        return a in self.units

    def inverse(self, a):
        return self.inverse_table[a]

    def source(self, a):
        return self._source[a]

    def range(self, a):
        return self._range[a]

    def composable(self, b, c):
        return (b, c) in self.compose_table

    def compose(self, b, c):
        try:
            return self.compose_table[(b, c)]
        except KeyError:
            raise ValueError(f"arrows {b} and {c} are not composable") from None

    def sort_arrows(self, subset):
        return sorted(subset, key=self._index.__getitem__)


_LABEL_GROUPOIDS = weakref.WeakKeyDictionary()


def label_groupoid(g):
    """The tables of a FiniteGroupoid read through its arrow labels, as a
    LabelGroupoid built once per groupoid (a LabelGroupoid is returned as
    it is).  An inverse left out stays out."""
    if isinstance(g, LabelGroupoid):
        return g
    view = _LABEL_GROUPOIDS.get(g)
    if view is None:
        names = g.arrows
        view = _LABEL_GROUPOIDS[g] = LabelGroupoid(
            names, [names[u] for u in g.units],
            {names[a]: names[b] for a, b in enumerate(g.inverse) if b >= 0},
            {(names[b], names[c]): names[d]
             for (b, c), d in compose_table(g).items()}, name=g.name)
    return view


def compose_table(g):
    """g's composites as a dict from index pairs to an index: the parser's
    raw table as it was read, or, where g holds only its rows (a
    transformation groupoid), the table read off the rows, b-major and in
    increasing c."""
    if g.compose is not None:
        return g.compose
    return {(b, c): d for b, (p, row) in enumerate(zip(g.source, g.rows))
            for c, d in zip(g.at_range.get(p, ()), row)}


def table_groupoid(g):
    """g as the parser builds a groupoid: its composites as a raw table
    (compose_table), range and source derived from that table, so that
    composability_violation judges the composites as a raw table."""
    return FiniteGroupoid(g.arrows, g.units, g.inverse, compose_table(g),
                          name=g.name)


def groupoid_from_labels(arrows, units, inverse, compose, name="groupoid"):
    """A FiniteGroupoid from tables on arrow labels: units a collection of
    arrows, inverse and compose dicts keyed by arrows and pairs of arrows.
    An arrow with no inverse entry gets -1; a unit, inverse or composite
    that is not an arrow raises KeyError, as the parser refuses it."""
    index = {a: i for i, a in enumerate(arrows)}
    return FiniteGroupoid(
        arrows, [index[u] for u in units],
        [index[inverse[a]] if a in inverse else -1 for a in arrows],
        {(index[b], index[c]): index[d] for (b, c), d in compose.items()},
        name=name)


def random_scalar(ring, rng):
    """A pseudo-random scalar, by ScalarRing.random_value's draw."""
    return Scalar(ring, ring.random_value(rng))


class LabelSemigroup:
    """A bisection semigroup with the labels it held before it moved to
    indices: elements, the frozenset of arrows of each bisection, read off
    its mask, and index(), the label -> index dict.  Everything else is
    read from the semigroup it views, the unit too, an element index."""

    def __init__(self, semigroup):
        self._semigroup = semigroup
        self.elements = [mask_arrows(semigroup.groupoid, mask)
                         for mask in semigroup.masks]
        self._labels = {e: i for i, e in enumerate(self.elements)}

    def index(self, s):
        return self._labels[s]

    def __getattr__(self, name):
        return getattr(self._semigroup, name)


_LABEL_SEMIGROUPS = weakref.WeakKeyDictionary()


def label_semigroup(s):
    """s in label form: s itself when it lists its elements, else its
    LabelSemigroup, built once per semigroup."""
    if hasattr(s, "elements"):
        return s
    view = _LABEL_SEMIGROUPS.get(s)
    if view is None:
        view = _LABEL_SEMIGROUPS[s] = LabelSemigroup(s)
    return view


_BASIS_LABELS = weakref.WeakKeyDictionary()


def basis_labels(algebra):
    """The labels of an algebra's basis, in order, built once per algebra
    as the engine built them before it moved to indices: for L, the pair
    (s, x) per point x of X_s, for s in the index's order and x in the
    order of star_graph; for L/I, the pairs of the representatives; for
    A_R(G), the arrows."""
    labels = _BASIS_LABELS.get(algebra)
    if labels is None:
        if hasattr(algebra, "groupoid"):
            labels = list(algebra.groupoid.arrows)
        elif hasattr(algebra, "representatives"):
            module = basis_labels(algebra.module)
            labels = [module[a] for a in algebra.representatives]
        else:
            action = algebra.algebra_action.action
            labels = [(s, action.space[p]) for e, s in
                      enumerate(label_semigroup(action.index).elements)
                      for p, _ in action.star_graph(e)]
        _BASIS_LABELS[algebra] = labels
    return labels


_LABEL_INDEX = weakref.WeakKeyDictionary()


def label_index(algebra, s, x):
    """The basis index of the label (s, x) in basis_labels(algebra);
    KeyError for a pair that is not a basis element."""
    index = _LABEL_INDEX.get(algebra)
    if index is None:
        index = _LABEL_INDEX[algebra] = {
            label: i for i, label in enumerate(basis_labels(algebra))}
    return index[s, x]
