"""FiniteGroup as an inverse semigroup with a total index table, against
the dict-table group it replaced.

Kept verbatim as references, apart from their names: the dict-table
`FiniteGroup`, whose validator runs the label-level associativity cube,
`validate_group_table`, and the label-level `_element_order` and
`_unit_profiles`.  The new code must give the same violation lists (so
the same first failing triple), the same identity, inverses and index
tables, and the same unit profiles, on the presets, the catalog, seeded
corruptions, random small tables and generated partial actions.
"""

import random
from collections import Counter
from itertools import permutations

import pytest
from hypothesis import given, settings

from test_search_oracle import partial_actions

from groupoidal import catalog, groups, specfiles
from groupoidal.groupoid_core import isotropy_group
from groupoidal.groups import FiniteGroup, NaturalOrder, validate_group_table
from groupoidal.inverse_semigroups import (FiniteInverseSemigroup, from_group,
                                           validate_inverse_semigroup)
from groupoidal.isomorphisms import _unit_profiles
from groupoidal.transformation_groupoid import build_transformation_groupoid
from groupoidal.validation import ValidationReport


# --- the dict-table group -----------------------------------------------------

class ReferenceGroup:
    """A finite group: an element list (fixing the canonical order) and a
    total multiplication table.  Identity and inverses are derived, so the
    constructor rejects tables that are not groups."""

    def __init__(self, elements, table, name="group"):
        self.name = name
        self.elements = list(elements)
        if len(set(self.elements)) != len(self.elements):
            raise ValueError("duplicate group elements")
        self._table = dict(table)
        report = reference_validate_group_table(self.elements, self._table)
        if not report.ok:
            raise ValueError(f"not a group: {report.first}")
        self.identity = next(
            e for e in self.elements
            if all(self._table[(e, x)] == x == self._table[(x, e)] for x in self.elements))
        self._inv = {}
        for a in self.elements:
            self._inv[a] = next(b for b in self.elements
                                if self._table[(a, b)] == self.identity)
        # Index tables over the element list, as an inverse semigroup has.
        position = {a: i for i, a in enumerate(self.elements)}
        self.table = [[position[self._table[(a, b)]] for b in self.elements]
                      for a in self.elements]
        self.star_table = [position[self._inv[a]] for a in self.elements]

    @property
    def order(self):
        return len(self.elements)

    # .unit / .star / .natural_order and the index tables mirror the
    # inverse-semigroup protocol, so code indexed by "a group or an inverse
    # semigroup" can treat both uniformly.
    @property
    def unit(self):
        return self.identity

    def natural_order(self):
        """The natural partial order of a group, which is equality:
        s = t s* s = t."""
        return NaturalOrder(self, ((a, a) for a in self.elements))

    def mul(self, a, b):
        return self._table[(a, b)]

    def inv(self, a):
        return self._inv[a]

    def star(self, a):
        return self._inv[a]

    def index(self, a):
        return self.elements.index(a)

    def is_subgroup(self, subset):
        subset = set(subset)
        if self.identity not in subset:
            return False
        return all(self.mul(a, b) in subset for a in subset for b in subset) and \
            all(self.inv(a) in subset for a in subset)

    def subgroup(self, subset, name="subgroup"):
        members = [a for a in self.elements if a in set(subset)]
        if not self.is_subgroup(members):
            raise ValueError(f"{sorted(map(str, subset))} is not a subgroup")
        table = {(a, b): self.mul(a, b) for a in members for b in members}
        return ReferenceGroup(members, table, name=name)

    def __repr__(self):
        return f"FiniteGroup({self.name}, order={self.order})"

    @classmethod
    def trivial(cls, element="e"):
        return cls([element], {(element, element): element}, name="trivial")

    @classmethod
    def cyclic(cls, n):
        """Cyclic group of order n with elements e, g, g2, ..., g{n-1}."""
        if n < 1:
            raise ValueError("order must be positive")
        names = ["e"] + ["g" if k == 1 else f"g{k}" for k in range(1, n)]
        table = {(names[i], names[j]): names[(i + j) % n]
                 for i in range(n) for j in range(n)}
        return cls(names, table, name=f"Z{n}")


def reference_validate_group_table(elements, table):
    """Exhaustively check that (elements, table) is a finite group."""
    report = ValidationReport("group table")
    elems = list(elements)
    eset = set(elems)
    for a in elems:
        for b in elems:
            c = table.get((a, b))
            if c is None:
                report.add(f"table missing entry ({a}, {b})")
            elif c not in eset:
                report.add(f"table value {c} for ({a}, {b}) is not an element")
    if not report.ok:
        return report
    for a in elems:
        for b in elems:
            for c in elems:
                left = table[(table[(a, b)], c)]
                right = table[(a, table[(b, c)])]
                if left != right:
                    report.add(f"associativity fails on ({a}, {b}, {c})")
                    return report
    identities = [e for e in elems
                  if all(table[(e, x)] == x == table[(x, e)] for x in elems)]
    if len(identities) != 1:
        report.add(f"expected exactly one identity, found {len(identities)}")
        return report
    e = identities[0]
    for a in elems:
        if not any(table[(a, b)] == e and table[(b, a)] == e for b in elems):
            report.add(f"element {a} has no inverse")
    return report


def reference_element_order(g, u, b, limit):
    """The least k >= 1 with b^k = u, read off the composition table; 0 if
    there is none up to ``limit``."""
    power = b
    for k in range(1, limit + 1):
        if power == u:
            return k
        power = g.compose_table.get((power, b))
    return 0


def reference_unit_profiles(g):
    """Unit -> (isotropy group order, number of arrows with that range,
    sorted element orders of the isotropy group)."""
    fibre = Counter(g.range(b) for b in g.arrows)
    isotropy = {u: [] for u in g.units}
    for b in g.arrows:
        u = g.range(b)
        if u == g.source(b) and u in isotropy:
            isotropy[u].append(b)
    return {u: (len(group), fibre[u],
                tuple(sorted(reference_element_order(g, u, b, len(group))
                             for b in group)))
            for u, group in isotropy.items()}


# --- inputs ---------------------------------------------------------------------

def cayley(elements, mul):
    return {(a, b): mul(a, b) for a in elements for b in elements}


def symmetric_group_3():
    perms = ["".join(map(str, p)) for p in permutations(range(3))]
    # (p q)(x) = p(q(x)): composition of permutations of {0, 1, 2}.
    return perms, cayley(perms, lambda p, q: "".join(p[int(q[x])]
                                                     for x in range(3)))


TABLES = {
    "Z4": ([f"z{a}" for a in range(4)],
           cayley([f"z{a}" for a in range(4)],
                  lambda a, b: f"z{(int(a[1]) + int(b[1])) % 4}")),
    "Z2xZ2": ([f"k{a}" for a in range(4)],
              cayley([f"k{a}" for a in range(4)],
                     lambda a, b: f"k{int(a[1]) ^ int(b[1])}")),
    "Z6": ([f"s{a}" for a in range(6)],
           cayley([f"s{a}" for a in range(6)],
                  lambda a, b: f"s{(int(a[1]) + int(b[1])) % 6}")),
    "S3": symmetric_group_3(),
}


# Multiplication mod 4 and mod 6: associative monoids in which several
# elements have no inverse.
MONOIDS = [([f"m{a}" for a in range(n)],
            cayley([f"m{a}" for a in range(n)],
                   lambda a, b, n=n: f"m{int(a[1]) * int(b[1]) % n}"))
           for n in (4, 6)]


def corrupted(elements, table, rng):
    """One to three changes: a value moved to another element, an entry
    deleted, or a value outside the elements."""
    table = dict(table)
    keys = sorted(table)
    for _ in range(rng.randint(1, 3)):
        key = rng.choice(keys)
        kind = rng.randrange(6)
        if kind < 4:
            table[key] = rng.choice(elements)
        elif kind == 4:
            table.pop(key, None)
        else:
            table[key] = "outside"
    return table


def random_table(rng):
    n = rng.randint(1, 4)
    elements = [f"x{i}" for i in range(n)]
    return elements, cayley(elements, lambda a, b: rng.choice(elements))


def group_tables():
    """Every preset and catalog group, as (elements, dict table)."""
    found = [specfiles._PRESETS[name]() for name in sorted(specfiles._PRESETS)]
    for name in catalog.action_names():
        found.append(catalog.load_action(name).group)
    for name in catalog.pair_names():
        found += [action.group for action in catalog.load_pair(name)]
    return [(g.elements, cayley(g.elements, g.mul)) for g in found]


def seeded_tables():
    rng = random.Random(9)
    tables = []
    for elements, table in TABLES.values():
        tables += [(elements, corrupted(elements, table, rng))
                   for _ in range(300)]
    tables += [random_table(rng) for _ in range(500)]
    return tables + MONOIDS


# --- comparison -----------------------------------------------------------------

def outcome(cls, elements, table):
    try:
        return cls(elements, table)
    except ValueError as exc:
        return str(exc)


def assert_same_group(elements, table):
    assert (validate_group_table(elements, table).violations
            == reference_validate_group_table(elements, table).violations)
    new, old = outcome(FiniteGroup, elements, table), \
        outcome(ReferenceGroup, elements, table)
    if isinstance(old, str):
        assert new == old
        return False
    assert new.identity == old.identity
    assert [new.inv(a) for a in elements] == [old.inv(a) for a in elements]
    assert [list(row) for row in new.table] == old.table
    assert new.star_table == old.star_table
    assert new.natural_order().pairs == old.natural_order().pairs
    return True


def test_presets_and_catalog_groups_agree():
    for elements, table in group_tables():
        assert assert_same_group(elements, table)
    for elements, table in TABLES.values():
        assert assert_same_group(elements, table)


def test_corrupted_and_random_tables_agree():
    outcomes = Counter()
    for elements, table in seeded_tables():
        verdict = reference_validate_group_table(elements, table).first
        outcomes[verdict.split(" ")[0] if verdict else "group"] += 1
        assert_same_group(elements, table)
    # Every kind of violation is reached, and some tables are groups.
    assert set(outcomes) == {"group", "table", "associativity", "expected",
                             "element"}, outcomes


def test_a_group_is_an_inverse_semigroup():
    for n in range(1, 9):
        group = FiniteGroup.cyclic(n)
        assert isinstance(group, FiniteInverseSemigroup)
        assert validate_inverse_semigroup(group).ok
        assert group.idempotents() == [group.identity] == [group.unit]
        view = from_group(group)
        assert view.table is group.table
        assert view.star_table is group.star_table
    for elements, table in TABLES.values():
        assert validate_inverse_semigroup(FiniteGroup(elements, table)).ok


def test_parse_group_validates_once(monkeypatch):
    calls = []
    validate = groups.validate_group_table

    def counted(*args):
        calls.append(args)
        return validate(*args)

    monkeypatch.setattr(groups, "validate_group_table", counted)
    elements, table = TABLES["S3"]
    spec = {"elements": elements,
            "table": {f"{a} {b}": c for (a, b), c in table.items()}}
    group = specfiles._parse_group(spec)
    assert len(calls) == 1
    assert group.order == 6

    spec["table"][f"{elements[1]} {elements[2]}"] = elements[1]
    calls.clear()
    with pytest.raises(specfiles.SpecContentError) as exc:
        specfiles._parse_group(spec)
    assert len(calls) == 1
    broken = {(a, b): c for (a, b), c in table.items()}
    broken[(elements[1], elements[2])] = elements[1]
    first = reference_validate_group_table(elements, broken).first
    assert str(exc.value) == f"group table is not a group: {first}"


def test_unit_profiles_agree_on_the_catalog():
    groupoids = [catalog.load_groupoid(name)
                 for name in catalog.groupoid_names()]
    groupoids += [build_transformation_groupoid(catalog.load_action(name))
                  for name in catalog.action_names()]
    for g in groupoids:
        assert _unit_profiles(g) == reference_unit_profiles(g)
        for u in g.units:
            assert isotropy_group(g, u).identity == u


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(partial_actions())
def test_unit_profiles_agree_on_partial_cyclic_actions(action):
    g = build_transformation_groupoid(action)
    assert _unit_profiles(g) == reference_unit_profiles(g)
