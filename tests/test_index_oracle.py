"""The certificates that run on index tables against the label-based code
they replaced.

`reference_generator_scan` (in dense_oracle) is the two-sidedness scan
over the ideal's generators, on dense rows; `reference_composition`,
`reference_monotonicity` and `reference_natural_order` are the
composition law, the monotonicity loop and the natural order over
element labels, all kept verbatim.  The index
versions must give the same verdict and byte-equal reports or exception
texts, on the catalog, on the 16-arrow pair groupoid and on seeded
corruptions.
"""

import copy
import random

from dense_oracle import reference_generator_scan
from families import pair_groupoid_spec, parse

from groupoidal import catalog
from groupoidal.groups import NaturalOrder
from groupoidal.inverse_semigroups import (FiniteInverseSemigroup,
                                           bisection_semigroup,
                                           natural_order,
                                           symmetric_inverse_monoid)
from groupoidal.isomorphisms import bisection_action
from groupoidal.partial_actions import (SemigroupPartialAction,
                                        _validate_maps,
                                        induce_algebra_action,
                                        validate_group_partial_action,
                                        validate_isg_partial_action)
from groupoidal.scalars import index_row, points_at
from groupoidal.skew_rings import (CovarianceModule, IdealCongruence,
                                   QuotientAlgebra, build_ideal)
from groupoidal.validation import ValidationReport, stable


def reference_composition(action, mul, star, report):
    idx_elements = action.index.elements
    for s in idx_elements:
        for t in idx_elements:
            st = mul(s, t)
            lhs = {action.theta(s, x)
                   for x in action.domains[star(s)] & action.domains[t]}
            rhs = action.domains[s] & action.domains[st]
            if lhs != rhs:
                report.add(
                    f"theta_{stable(s)}(X_{{{stable(star(s))}}} & "
                    f"X_{{{stable(t)}}}) = {stable(lhs)} but "
                    f"X_{{{stable(s)}}} & X_{{{stable(st)}}} = {stable(rhs)}")
    for s in idx_elements:
        for t in idx_elements:
            st = mul(s, t)
            for x in action.domain_points(star(t)):
                if x not in action.domains[mul(star(t), star(s))]:
                    continue
                y = action.theta(t, x)
                if y not in action.domains[star(s)]:
                    report.add(f"theta_{stable(t)}({stable(x)}) = {stable(y)} "
                               f"escapes the domain of theta_{stable(s)}")
                    continue
                if action.theta(s, y) != action.theta(st, x):
                    report.add(f"theta_{stable(s)}(theta_{stable(t)}({stable(x)})) "
                               f"!= theta_{{{stable(st)}}}({stable(x)})")


def reference_monotonicity(action, order, report):
    s = action.semigroup
    for (a, b) in sorted(((a, b) for a in s.elements for b in s.elements
                          if order.le(a, b) and a != b),
                         key=lambda ab: (s.index(ab[0]), s.index(ab[1]))):
        if not action.domains[a] <= action.domains[b]:
            report.add(f"monotonicity fails: {stable(a)} <= {stable(b)} but "
                       f"X_{{{stable(a)}}} is not contained in X_{{{stable(b)}}}")


def reference_natural_order(s):
    pairs = set()
    for a in s.elements:
        for b in s.elements:
            left = a == s.mul(b, s.mul(s.star(a), a))
            right = a == s.mul(s.mul(a, s.star(a)), b)
            if left != right:
                raise ValueError(
                    f"order characterizations disagree on ({a}, {b}); "
                    "not an inverse semigroup")
            if left:
                pairs.add((a, b))
    for a in s.elements:
        if (a, a) not in pairs:
            raise ValueError(f"natural order is not reflexive at {a}")
    for (a, b) in pairs:
        if a != b and (b, a) in pairs:
            raise ValueError(f"natural order is not antisymmetric on ({a}, {b})")
        for c in s.elements:
            if (b, c) in pairs and (a, c) not in pairs:
                raise ValueError(f"natural order is not transitive on ({a}, {b}, {c})")
    return NaturalOrder(s, pairs)


def outcome(fn, *args):
    """The report's violations or the order's pairs, or the exception's
    type and text."""
    try:
        result = fn(*args)
    except (KeyError, ValueError) as exc:
        return (type(exc).__name__, str(exc))
    return result.pairs if isinstance(result, NaturalOrder) \
        else result.violations


def reference_isg(action):
    """validate_isg_partial_action with the label-based loops."""
    report = ValidationReport(f"partial action {action.name}")
    s = action.semigroup
    unit = s.unit
    if unit is not None:
        if action.domains[unit] != frozenset(action.space):
            report.add("X_1 must be the whole space when the semigroup has a unit")
        elif action.maps[unit] != {x: x for x in action.space}:
            report.add("the unit must act as the identity map")
    _validate_maps(action, report)
    if not report.ok:
        return report
    reference_monotonicity(action, reference_natural_order(s), report)
    reference_composition(action, s.mul, s.star, report)
    return report


def reference_group(action):
    """validate_group_partial_action with the label-based loops."""
    report = ValidationReport(f"partial action {action.name}")
    g = action.group
    if action.domains[g.identity] != frozenset(action.space):
        report.add("X_e must be the whole space")
    elif action.maps[g.identity] != {x: x for x in action.space}:
        report.add("the identity must act as the identity map")
    _validate_maps(action, report)
    if not report.ok:
        return report
    reference_composition(action, g.mul, g.inv, report)
    return report


def bisection_module(g, ring):
    action = bisection_action(g)
    return CovarianceModule(induce_algebra_action(action, ring))


def catalog_modules(ring):
    modules = [bisection_module(catalog.load_groupoid(name), ring)
               for name in catalog.groupoid_names()]
    modules += [CovarianceModule(induce_algebra_action(
        catalog.load_action(name), ring)) for name in catalog.action_names()]
    return modules


def test_two_sidedness_equals_the_generator_scan_on_the_catalog(Q):
    modules = catalog_modules(Q)
    for module in modules:
        quotient = QuotientAlgebra(module, build_ideal(module))
        assert quotient.verify_representative_independence() is None
        assert reference_generator_scan(quotient) is None


def test_two_sidedness_equals_the_generator_scan_on_the_rung(Q):
    module = bisection_module(parse(pair_groupoid_spec(4)), Q)
    ideal = build_ideal(module)
    assert (module.dim, ideal.dimension, ideal.generator_count) == \
        (544, 528, 1680)
    quotient = QuotientAlgebra(module, ideal)
    assert quotient.verify_representative_independence() is None
    assert reference_generator_scan(quotient) is None


def corrupted_module(module, rng):
    """A copy of the module whose product sends 1 to 3 basis elements
    (u, p), as products, to another basis index."""
    corrupted = copy.copy(module)
    corrupted._basis_at = [list(at) for at in module._basis_at]
    for _ in range(rng.randint(1, 3)):
        k = rng.randrange(module.dim)
        (u, x), p = module.basis_labels[k], module.col_points[k]
        e = module.algebra_action.index.index(u)
        corrupted._basis_at[p][e] = rng.choice(
            [v for v in range(module.dim) if v != k])
    return corrupted


def rows_of(module):
    """The dense table of the module's product, read row by row."""
    return [module.row(i) for i in range(module.dim)]


def test_corrupted_l_tables_give_the_generator_scan_violation(Q):
    # L has no table; its product is corrupted where it is stored.
    module = bisection_module(catalog.load_groupoid("pair_groupoid_3"), Q)
    ideal = build_ideal(module)
    assert module.dim == 63
    rng = random.Random(17)
    texts = []
    for _ in range(240):
        corrupted = corrupted_module(module, rng)
        quotient = QuotientAlgebra(corrupted, ideal)
        text = quotient.verify_representative_independence()
        assert text == reference_generator_scan(quotient, rows_of(corrupted))
        texts.append(text)
    failing = [t for t in texts if t is not None]
    assert len(failing) > 180
    assert any(t.startswith("(") for t in failing)
    assert any(t.startswith("e_") for t in failing)


def congruence(module, edges):
    """The union-find congruence of build_ideal over the given edges."""
    parent = list(range(module.dim))

    def find(a):
        while parent[a] != a:
            a = parent[a]
        return a

    for a, b in edges:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[min(ra, rb)] = max(ra, rb)
    return IdealCongruence(module, edges,
                           [find(a) for a in range(module.dim)])


def test_corrupted_ideals_give_the_generator_scan_violation(Q):
    # Extra generators merge classes: the class rows of a merged class
    # can differ, and a row read through rep can change.
    module = bisection_module(catalog.load_groupoid("pair_groupoid_3"), Q)
    edges = build_ideal(module).edges
    table = rows_of(module)
    rng = random.Random(22)
    texts = []
    for _ in range(100):
        extra = [tuple(rng.sample(range(module.dim), 2))
                 for _ in range(rng.randint(1, 2))]
        position = rng.randrange(len(edges) + 1)
        quotient = QuotientAlgebra(
            module, congruence(module, edges[:position] + extra
                               + edges[position:]))
        text = quotient.verify_representative_independence()
        assert text == reference_generator_scan(quotient, table)
        texts.append(text)
    failing = [t for t in texts if t is not None]
    assert len(failing) > 50
    assert any(t.startswith("(") for t in failing)
    assert any(t.startswith("e_") for t in failing)


def test_right_congruences_give_the_generator_scan_violation(Q):
    # Elements with one row point have their products at one row point,
    # so joining I with "same row point" keeps every class row equal to
    # its representative's; only the left products can leave the ideal.
    texts = []
    for module in catalog_modules(Q):
        edges = list(build_ideal(module).edges)
        for columns in points_at(module.row_points).values():
            edges += zip(columns, columns[1:])
        quotient = QuotientAlgebra(module, congruence(module, edges))
        text = quotient.verify_representative_independence()
        assert text == reference_generator_scan(quotient, rows_of(module))
        texts.append(text)
    failing = [t for t in texts if t is not None]
    assert len(failing) > 5
    assert all(t.startswith("e_") for t in failing)


def catalog_actions():
    actions = [bisection_action(catalog.load_groupoid(name))
               for name in catalog.groupoid_names()]
    actions += [catalog.load_action(name) for name in catalog.action_names()]
    return actions


def validate(action):
    if isinstance(action, SemigroupPartialAction):
        return outcome(validate_isg_partial_action, action), \
            outcome(reference_isg, action)
    return outcome(validate_group_partial_action, action), \
        outcome(reference_group, action)


def test_action_reports_equal_the_reference_on_the_catalog():
    actions = catalog_actions()
    kinds = {type(a).__name__ for a in actions}
    assert kinds == {"SemigroupPartialAction", "GroupPartialAction"}
    failing = 0
    for action in actions:
        fast, slow = validate(action)
        assert fast == slow, action.name
        failing += bool(fast)
    # Some catalog group actions are invalid on purpose.
    assert failing < len(actions)


def corrupt_action(action, rng):
    """A copy of a bisection action with 1 or 2 changes: an idempotent
    acting on one point fewer or more (its map stays the identity, so the
    maps stay consistent), a permuted map with its inverse to match, or a
    map value or domain changed outright."""
    s, space = action.semigroup, action.space
    domains = {e: set(d) for e, d in action.domains.items()}
    maps = {e: dict(m) for e, m in action.maps.items()}
    for _ in range(rng.randint(1, 2)):
        kind = rng.randrange(4)
        if kind < 2:
            e = rng.choice(s.idempotents())
            if kind == 0 and domains[e]:
                domains[e].discard(rng.choice(sorted(domains[e])))
            else:
                domains[e].add(rng.choice(space))
            maps[e] = {x: x for x in domains[e]}
        elif kind == 2:
            a = rng.choice(s.elements)
            image = sorted(domains[a])
            shuffled = rng.sample(image, len(image))
            swap = dict(zip(image, shuffled))
            maps[a] = {x: swap[y] for x, y in maps[a].items()}
            maps[s.star(a)] = {y: x for x, y in maps[a].items()}
        else:
            a = rng.choice(s.elements)
            if maps[a] and rng.random() < 0.5:
                maps[a][rng.choice(sorted(maps[a]))] = rng.choice(space)
            else:
                domains[a] ^= {rng.choice(space)}
    return SemigroupPartialAction(s, space, domains, maps, name=action.name)


VIOLATION_KINDS = ("map of", "monotonicity", "but X_", "escapes", "!= theta")


def test_corrupted_bisection_actions_give_equal_reports():
    base = [bisection_action(catalog.load_groupoid(name))
            for name in ("pair_groupoid_2", "pair_groupoid_3", "two_z2",
                         "pair_plus_unit")]
    rng = random.Random(18)
    kinds = set()
    for trial in range(160):
        action = corrupt_action(base[trial % len(base)], rng)
        fast, slow = validate(action)
        assert fast == slow
        kinds.update(next((k for k in VIOLATION_KINDS if k in text), text)
                     for text in fast)
    # The corruptions reach the map checks, monotonicity and every part of
    # the composition law.
    assert set(VIOLATION_KINDS) <= kinds


def test_corrupted_group_actions_give_equal_reports():
    rng = random.Random(19)
    names = catalog.action_names()
    for _ in range(60):
        action = copy.copy(catalog.load_action(rng.choice(names)))
        action.domains = dict(action.domains)
        action.maps = {g: dict(m) for g, m in action.maps.items()}
        g = rng.choice(action.group.elements)
        if action.maps[g] and rng.random() < 0.5:
            x = rng.choice(sorted(action.maps[g]))
            action.maps[g][x] = rng.choice(action.space)
        else:
            action.domains[g] = action.domains[g] ^ {rng.choice(action.space)}
        fast, slow = validate(action)
        assert fast == slow


def test_natural_order_equals_the_reference_on_the_catalog():
    semigroups = [catalog.load_semigroup(name)
                  for name in catalog.semigroup_names()]
    semigroups += [bisection_semigroup(catalog.load_groupoid(name))
                   for name in catalog.groupoid_names()]
    for s in semigroups:
        assert natural_order(s).pairs == reference_natural_order(s).pairs


def test_corrupted_i3_natural_orders_equal_the_reference():
    s = symmetric_inverse_monoid(range(3))
    n = s.order
    rng = random.Random(20)
    kinds = set()
    for trial in range(150):
        corrupted = copy.copy(s)
        corrupted.table = [row[:] for row in s.table]
        corrupted.star_table = list(s.star_table)
        if trial % 5 == 0:
            # A product left out.
            corrupted.table[rng.randrange(n)][rng.randrange(n)] = -1
        elif trial % 5 == 1:
            corrupted.star_table[rng.randrange(n)] = -1
        else:
            for _ in range(rng.randint(1, 3)):
                i = rng.randrange(n)
                if rng.random() < 0.2:
                    corrupted.star_table[i] = rng.randrange(n)
                else:
                    corrupted.table[i][rng.randrange(n)] = rng.randrange(n)
        fast = outcome(natural_order, corrupted)
        assert fast == outcome(reference_natural_order, corrupted)
        kinds.add(fast[0] if isinstance(fast, tuple) else "order")
        if isinstance(fast, tuple) and fast[0] == "ValueError":
            kinds.add(fast[1].split(" on ")[0].split(" at ")[0])
    assert kinds == {"KeyError", "ValueError", "order",
                     "order characterizations disagree",
                     "natural order is not reflexive"}


def test_random_small_natural_orders_equal_the_reference():
    rng = random.Random(21)
    for _ in range(500):
        n = rng.randint(1, 4)
        table = [index_row(n, [rng.randrange(n) for _ in range(n)])
                 for _ in range(n)]
        star = [rng.randrange(n) for _ in range(n)]
        s = FiniteInverseSemigroup([f"x{i}" for i in range(n)], table, star)
        assert outcome(natural_order, s) == \
            outcome(reference_natural_order, s)
