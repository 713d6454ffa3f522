"""Groupoid families beyond the catalog, as spec documents and as parsed
groupoids: pair groupoids and bundles of cyclic groups; the regular
actions of cyclic groups; the symmetric inverse monoids I(X) of
partial bijections; inverse semigroups and groups built from dict
tables; and the label constructors of groupoid functions, `indicator`
and `point_mass`, which no command needs.  Also the structures the library builds from one argument that its calls
always pass: rho on a freshly built transformation groupoid, the
bisection action on a freshly built bisection semigroup, and random
scalars.

The label form of the bisection action is the oracle of the engine's,
which is read off the semigroup's arrow indices:
`SemigroupPartialAction`, a partial action given by domain sets and
point maps keyed by element labels, `range_set`, and
`label_bisection_action`, which builds a domain r(B) and a map
s(b) -> r(b) per bisection B.  `label_view` gives any action in label
form, for the oracles that read domains and maps; `bisection_sets`
gives enumerate_bisections' masks as sets of arrows."""

import json
import weakref
from itertools import combinations, permutations

from groupoidal.groupoid_core import (DEFAULT_BISECTION_BOUND,
                                      enumerate_bisections)
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
    return GroupPartialAction(group, space, {g: space for g in maps}, maps,
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
    k = s.row(s.index(a))[s.index(b)]
    if k < 0:
        raise KeyError((a, b))
    return s.elements[k]


def order_pairs(s):
    """The natural order of s as the set of label pairs (a, b) with
    a <= b, read off the index down-sets of natural_order."""
    elems = s.elements
    return frozenset((elems[a], elems[b])
                     for b, below in enumerate(natural_order(s))
                     for a in below)


def tabulated(s):
    """An inverse semigroup with products on demand, such as a bisection
    semigroup, as a FiniteInverseSemigroup with its whole table, so that
    tests can read or corrupt entries."""
    return FiniteInverseSemigroup(
        s.elements, [index_row(s.order, s.row(i)) for i in range(s.order)],
        list(s.star_table), name=s.name)


def idempotents(s):
    """The elements e of an inverse semigroup with e e = e."""
    return [e for e in s.elements if mul(s, e, e) == e]


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


class SemigroupPartialAction(_PartialActionBase):
    """A partial action of a finite inverse semigroup on a finite set."""

    def __init__(self, semigroup, space, domains, maps, name="action"):
        super().__init__(semigroup, space, domains, maps)
        self.semigroup = semigroup
        self.name = name


def range_set(g, bis):
    return frozenset(g.range(b) for b in bis)


def label_bisection_action(groupoid, semigroup):
    """The bisection action built from labels: for each bisection B, the
    domain r(B) and the map s(b) -> r(b) over the arrows b of B."""
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
    """The action with label domains and maps: the action itself when it
    has them, else, for the engine's bisection action,
    label_bisection_action on its groupoid and semigroup, built once."""
    if hasattr(action, "maps"):
        return action
    view = _LABEL_VIEWS.get(action)
    if view is None:
        view = _LABEL_VIEWS[action] = label_bisection_action(action.groupoid,
                                                             action.index)
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


def random_scalar(ring, rng):
    """A pseudo-random scalar, by ScalarRing.random_value's draw."""
    return Scalar(ring, ring.random_value(rng))
