"""The certificates that run on index tables against the label-based code
they replaced.

`reference_generator_scan` (in dense_oracle) is the two-sidedness scan
over the ideal's generators, on dense rows; `reference_composition`,
`reference_monotonicity` and `reference_natural_order` are the
composition law, the monotonicity loop and the natural order over
element labels, and `reference_maps` is the map check over label dicts,
all kept verbatim apart from reading pseudo-inverses by `star_of`.  The
references read the label form of an action (`families`), the
validators its engine form.  The action validator no longer
checks monotonicity, which the composition and intertwining laws imply,
so an action the reference fails on monotonicity must still fail.  The
index versions must give the same verdict, on the catalog, on the
16-arrow pair groupoid and on seeded corruptions.  Passing reports are
byte-equal, and so are exception texts.  The natural order needs a
semigroup that passed `validate_inverse_semigroup`; on each one, among
them random inverse subsemigroups of I(3) and I(4), it has the
reference's pairs, and the oracle's `ideal_generators`, which reads its
index down-sets, gives the generators built from the reference's label
pairs (`reference_ideal_generators`).  The oracle's
`reference_build_ideal`, which joins only the first generator of each
(t, x), and, on bisection actions, `build_ideal`, which joins each
(t, x) to the singleton of its germ, give the classes of the union-find
over all of them (`congruence`), and their count.  The two-sidedness
check, decided as I = ker psi, refuses every congruence that the dense
scan refuses, and the basis pair it names breaks a half of
I = ker psi (`assert_kernel_verdict`); a failing action report names
only violations in the reference's full list.  The bisection semigroups, L, L/I and
A_R(G) hold no labels: read by index, their labels are those of the
label construction in `families` (`label_semigroup`, `basis_labels`,
`label_index`), in order, and so are the unit, the diagonal and rho's
targets.
"""

import copy
import random
from collections import Counter
from functools import partial

from dense_oracle import (breaks_kernel, ideal_generators, product_rows,
                          psi_of, reference_build_ideal,
                          reference_generator_scan)
from families import (CYCLIC_BUNDLES, SemigroupPartialAction,
                      action_from_labels, basis_labels, bisection_action_of,
                      cyclic_bundle_spec, family_groupoids, idempotents,
                      label_bisection_action_of, label_groupoid, label_index,
                      label_semigroup, label_view, mul, order_pairs,
                      pair_groupoid_spec, parse, regular_action, star_of,
                      symmetric_inverse_monoid, transformation_rho)
from test_cli import drop_one_join, join_another_germ
from test_factored_oracle import ladder_groupoids

import catalog
from groupoidal.groupoid_core import validate_groupoid
from groupoidal.isomorphisms import AlgebraMap, psi
from groupoidal.inverse_semigroups import (FiniteInverseSemigroup,
                                           bisection_semigroup,
                                           validate_inverse_semigroup)
from groupoidal.partial_actions import (induce_algebra_action,
                                        validate_group_partial_action,
                                        validate_isg_partial_action)
from groupoidal.scalars import index_row, points_at
from groupoidal.skew_rings import (CovarianceModule, IdealCongruence,
                                   QuotientAlgebra, build_ideal)
from groupoidal.validation import ValidationReport, stable


def reference_maps(action, report):
    index = action.index
    for s in index.elements:
        m = action.maps[s]
        dom_expected = action.domains[star_of(index, s)]
        if set(m) != dom_expected:
            report.add(f"map of {stable(s)} is defined on "
                       f"{stable(set(m))}, expected "
                       f"X_{{{stable(star_of(index, s))}}} = "
                       f"{stable(dom_expected)}")
            continue
        values = list(m.values())
        if len(set(values)) != len(values):
            report.add(f"map of {stable(s)} is not injective")
            continue
        if set(values) != action.domains[s]:
            report.add(f"map of {stable(s)} is not onto X_{{{stable(s)}}}")
    if not report.ok:
        return
    for s in index.elements:
        inv = {y: x for x, y in action.maps[s].items()}
        if action.maps[star_of(index, s)] != inv:
            report.add(f"map of {stable(star_of(index, s))} is not the "
                       f"inverse of the map of {stable(s)}")


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
                          if (a, b) in order and a != b),
                         key=lambda ab: (s.index(ab[0]), s.index(ab[1]))):
        if not action.domains[a] <= action.domains[b]:
            report.add(f"monotonicity fails: {stable(a)} <= {stable(b)} but "
                       f"X_{{{stable(a)}}} is not contained in X_{{{stable(b)}}}")


def reference_natural_order(s):
    s = label_semigroup(s)
    pairs = set()
    for a in s.elements:
        for b in s.elements:
            left = a == mul(s, b, mul(s, star_of(s, a), a))
            right = a == mul(s, mul(s, a, star_of(s, a)), b)
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
    return frozenset(pairs)


def outcome(fn, *args):
    """The report's violations, or the exception's type and text."""
    try:
        result = fn(*args)
    except (KeyError, ValueError) as exc:
        return (type(exc).__name__, str(exc))
    return result.violations


def reference_isg(action):
    """validate_isg_partial_action with the label-based loops."""
    report = ValidationReport(f"partial action {action.name}")
    s = action.semigroup
    if s.unit is not None:
        unit = s.elements[s.unit]
        if action.domains[unit] != frozenset(action.space):
            report.add("X_1 must be the whole space when the semigroup has a unit")
        elif action.maps[unit] != {x: x for x in action.space}:
            report.add("the unit must act as the identity map")
    reference_maps(action, report)
    if not report.ok:
        return report
    reference_monotonicity(action, reference_natural_order(s), report)
    reference_composition(action, partial(mul, s), partial(star_of, s),
                          report)
    return report


def reference_group(action):
    """validate_group_partial_action with the label-based loops."""
    report = ValidationReport(f"partial action {action.name}")
    g = action.group
    if action.domains[g.identity] != frozenset(action.space):
        report.add("X_e must be the whole space")
    elif action.maps[g.identity] != {x: x for x in action.space}:
        report.add("the identity must act as the identity map")
    reference_maps(action, report)
    if not report.ok:
        return report
    reference_composition(action, partial(mul, g), partial(star_of, g),
                          report)
    return report


def bisection_module(g):
    action = bisection_action_of(g)
    return CovarianceModule(induce_algebra_action(action))


def catalog_modules():
    modules = [bisection_module(catalog.load_groupoid(name))
               for name in catalog.groupoid_names()]
    modules += [CovarianceModule(induce_algebra_action(
        catalog.load_action(name))) for name in catalog.action_names()]
    return modules


def test_two_sidedness_equals_the_generator_scan_on_the_catalog():
    # A bisection action's I is certified as ker psi.  A group action has
    # no psi; its ideal, zero, is judged by the dense scan alone.
    for module in catalog_modules():
        quotient = QuotientAlgebra(module, reference_build_ideal(module))
        if hasattr(module.algebra_action.index, "groupoid"):
            assert quotient.verify_representative_independence(
                psi_of(module)) is None
        else:
            assert quotient.dim == module.dim
        assert reference_generator_scan(quotient) is None


def test_two_sidedness_equals_the_generator_scan_on_the_rung():
    module = bisection_module(parse(pair_groupoid_spec(4)))
    ideal = build_ideal(module)
    assert (module.dim, ideal.dimension, ideal.generator_count) == \
        (544, 528, 1680)
    quotient = QuotientAlgebra(module, ideal)
    assert quotient.verify_representative_independence(psi_of(module)) \
        is None
    assert reference_generator_scan(quotient) is None


def corrupted_module(module, rng):
    """A copy of the module whose product sends 1 to 3 basis elements
    (u, p), as products, to another basis index."""
    corrupted = copy.copy(module)
    corrupted._basis_at = [list(at) for at in module._basis_at]
    for _ in range(rng.randint(1, 3)):
        k = rng.randrange(module.dim)
        (u, x), p = basis_labels(module)[k], module.col_points[k]
        e = label_semigroup(module.algebra_action.index).index(u)
        corrupted._basis_at[p][e] = rng.choice(
            [v for v in range(module.dim) if v != k])
    return corrupted


def assert_kernel_verdict(quotient, psi_map, table, edges=None):
    """verify_representative_independence is sound: it refuses every
    congruence whose span the dense scan finds not two-sided, and what a
    refusal names holds (breaks_kernel).  Returns both texts."""
    text = quotient.verify_representative_independence(psi_map)
    expected = reference_generator_scan(quotient, table, edges)
    # I lies in ker psi iff psi is constant on each class.
    assert quotient.ideal_in_kernel == (
        len(set(zip(quotient._class, psi_map.targets))) == quotient.dim)
    assert text is not None or expected is None
    assert text is None or breaks_kernel(quotient, psi_map, text)
    return text, expected


def refusals(results):
    """How many kernel verdicts name each reason: "not derived", "not in
    ker psi" (I outside the kernel) and "not in I" (the kernel outside
    I); "scan left" and "scan right" count the dense scan's refusals by
    the side of the product it names."""
    kinds = Counter()
    for text, expected in results:
        if text is not None:
            kinds["not derived" if text.startswith("not derived")
                  else text.split(" but ")[1]] += 1
        if expected is not None:
            kinds["scan left" if expected.startswith("e_")
                  else "scan right"] += 1
    return kinds


def test_corrupted_l_tables_give_the_generator_scan_violation():
    # L has no table; its product is corrupted where it is stored.  The
    # corrupted L is not certified associative, so psi's certificate
    # reads every row of it, and the kernel of a multiplicative psi is
    # two-sided in the corrupted product too.
    module = bisection_module(catalog.load_groupoid("pair_groupoid_3"))
    ideal = build_ideal(module)
    assert module.dim == 63
    rng = random.Random(17)
    texts = []
    for _ in range(240):
        corrupted = corrupted_module(module, rng)
        quotient = QuotientAlgebra(corrupted, ideal)
        texts.append(assert_kernel_verdict(
            quotient, psi_of(corrupted), product_rows(corrupted)))
    kinds = refusals(texts)
    assert kinds["scan left"] + kinds["scan right"] > 180
    assert min(kinds["scan left"], kinds["scan right"]) > 0
    assert kinds["not derived"] > 180


def premised_module(g):
    """The bisection module with L certified associative from the
    groupoid's report, so that psi's certificate reads only the
    generator rows."""
    module = bisection_module(g)
    module.verify_associativity((validate_groupoid(g),))
    return module


def test_without_the_premise_every_row_is_read():
    g = catalog.load_groupoid("pair_groupoid_3")
    module = bisection_module(g)
    assert list(module.generator_basis()) == list(range(module.dim))
    failing = ValidationReport("premise")
    failing.add("not a groupoid")
    module.verify_associativity((failing,))
    assert list(module.generator_basis()) == list(range(module.dim))
    generators = set(module.algebra_action.index.generators)
    assert premised_module(g).generator_basis() == \
        [i for i, (s, _) in enumerate(basis_labels(module))
         if label_semigroup(module.algebra_action.index).index(s)
         in generators]


def test_group_actions_read_every_row_of_l():
    # generator_basis's lemma needs X_{st} inside X_s, which a partial
    # group action need not have: on z2_empty_domains g alone generates
    # Z2, yet X_g is empty, so no row (g, x) exists.  So for every group
    # action L is certified on all of its rows.
    for name in catalog.action_names():
        action = catalog.load_action(name)
        module = CovarianceModule(induce_algebra_action(action))
        assert module.verify_associativity(
            (action.group.table_report,
             validate_group_partial_action(action))), name
        assert list(module.generator_basis()) == list(range(module.dim)), \
            name
    action = catalog.load_action("z2_empty_domains")
    g = action.group.index("g")
    assert action.group.row(g)[g] == action.group.unit
    assert action.domains[g] == []


def mutated(module, ideal, mutate):
    """The congruence of build_ideal's classes changed by a mutant of the
    theorem5 tests, and its spanning pairs (a, rep(a)); None where the
    mutant needs two germs or a bisection of two arrows."""
    rep = list(ideal.rep)
    if len(set(rep)) < 2 or module.dim == len(set(rep)):
        return None
    mutate(module, rep)
    return (IdealCongruence(module, ideal.generator_count, rep),
            [(a, r) for a, r in enumerate(rep) if a != r])


def test_kernel_verdict_is_sound_on_the_ladder():
    # I = ker psi for a certified homomorphism psi is a two-sided ideal,
    # so on every congruence the kernel verdict refuses what the dense
    # scan refuses.  On each ladder groupoid, with L premised so that psi
    # is certified on the generator rows only: the ideal, which passes;
    # a germ split (drop_one_join) and two germs joined
    # (join_another_germ); the ideal joined with "same row point"; and
    # the ideal with random extra generators.  A psi whose certificate
    # is forced to fail derives nothing.
    rng = random.Random(23)
    texts = []
    fewer = 0
    for g in ladder_groupoids():
        module = premised_module(g)
        fewer += len(module.generator_basis()) < module.dim
        psi_map, table = psi_of(module), product_rows(module)
        ideal = build_ideal(module)
        quotient = QuotientAlgebra(module, ideal)
        assert assert_kernel_verdict(quotient, psi_map, table) == \
            (None, None), g.name
        forced = copy.copy(psi_map)
        forced.certificates = {"homomorphism": (False, "forced")}
        assert quotient.verify_representative_independence(forced) == \
            "not derived: psi_homomorphism failed"
        edges = list(ideal_generators(module))
        congruences = [mutated(module, ideal, mutate)
                       for mutate in (drop_one_join, join_another_germ)]
        congruences = [c for c in congruences if c is not None]
        joined = edges + [pair for columns in points_at(
            module.row_points).values() for pair in zip(columns, columns[1:])]
        congruences.append((congruence(module, joined), joined))
        for _ in range(10 if module.dim > 1 else 0):
            extra = [tuple(rng.sample(range(module.dim), 2))
                     for _ in range(rng.randint(1, 2))]
            merged = edges + extra
            congruences.append((congruence(module, merged), merged))
        for classes, spanning in congruences:
            texts.append(assert_kernel_verdict(
                QuotientAlgebra(module, classes), psi_map, table, spanning))
    assert fewer > 4
    kinds = refusals(texts)
    assert kinds["not in ker psi"] > 60 and kinds["not in I"] > 5
    assert min(kinds["scan left"], kinds["scan right"]) > 0


def test_the_kernel_pass_reads_both_halves_past_a_violation():
    # The first class takes the second's target, so the kernel leaves I
    # at the second representative; the last basis element outside its
    # representative then leaves its class's target, so I leaves the
    # kernel later.  The verdict names the first violation, and the
    # record that I is not in ker psi, which the psi_vanishes_on_ideal
    # row reads, comes from the rest of the pass, whatever psi's
    # certificate says.
    module = premised_module(catalog.load_groupoid("pair_groupoid_3"))
    psi_map, ideal = psi_of(module), build_ideal(module)
    quotient = QuotientAlgebra(module, ideal)
    first, second = quotient.representatives[:2]
    late = max(a for a, r in enumerate(ideal.rep) if a != r)
    assert late > second
    targets = list(psi_map.targets)
    for a, r in enumerate(ideal.rep):
        if r == first:
            targets[a] = psi_map.targets[second]
    targets[late] = next(t for t in range(psi_map.codomain.dim)
                         if t != targets[ideal.rep[late]])
    mutant = AlgebraMap(module, psi_map.codomain, targets, name="psi'")
    for flag, text in ((True, f"e_{first} - e_{second} lies in ker psi "
                              "but not in I"),
                       (False, "not derived: psi_homomorphism failed")):
        mutant.certificates = {"homomorphism": (flag, None)}
        assert quotient.verify_representative_independence(mutant) == text
        assert quotient.ideal_in_kernel is False


def congruence(module, edges):
    """The union-find congruence over all the given edges, the largest
    index of each class its root, as build_ideal joined every generator
    before it joined only the first of each (t, x), and then only the
    singleton of each germ."""
    parent = list(range(module.dim))

    def find(a):
        while parent[a] != a:
            a = parent[a]
        return a

    for a, b in edges:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[min(ra, rb)] = max(ra, rb)
    return IdealCongruence(module, len(edges),
                           [find(a) for a in range(module.dim)])


def test_corrupted_ideals_give_the_generator_scan_violation():
    # Extra generators merge classes, of two targets of psi, and the
    # verdict names a pair in I outside ker psi.
    module = bisection_module(catalog.load_groupoid("pair_groupoid_3"))
    psi_map = psi_of(module)
    edges = list(ideal_generators(module))
    table = product_rows(module)
    rng = random.Random(22)
    texts = []
    for _ in range(100):
        extra = [tuple(rng.sample(range(module.dim), 2))
                 for _ in range(rng.randint(1, 2))]
        position = rng.randrange(len(edges) + 1)
        merged = edges[:position] + extra + edges[position:]
        quotient = QuotientAlgebra(module, congruence(module, merged))
        texts.append(assert_kernel_verdict(quotient, psi_map, table, merged))
    kinds = refusals(texts)
    assert kinds["not in ker psi"] > 50
    assert min(kinds["scan left"], kinds["scan right"]) > 0


def test_right_congruences_give_the_generator_scan_violation():
    # Elements with one row point have their products at one row point,
    # so joining I with "same row point" keeps every class row equal to
    # its representative's; only the left products can leave the ideal.
    # The kernel verdict refuses each such join that is not I itself,
    # also where the join is a two-sided ideal larger than I.
    texts = []
    for g in ladder_groupoids():
        module = bisection_module(g)
        edges = list(ideal_generators(module))
        for columns in points_at(module.row_points).values():
            edges += zip(columns, columns[1:])
        quotient = QuotientAlgebra(module, congruence(module, edges))
        texts.append(assert_kernel_verdict(quotient, psi_of(module),
                                           product_rows(module), edges))
    kinds = refusals(texts)
    assert kinds["scan left"] > 5 and kinds["scan right"] == 0
    assert kinds["not in ker psi"] >= kinds["scan left"]


def catalog_actions():
    actions = [label_bisection_action_of(catalog.load_groupoid(name))
               for name in catalog.groupoid_names()]
    actions += [label_view(catalog.load_action(name))
                for name in catalog.action_names()]
    return actions


def validate(action):
    """The validator's outcome on the engine's form of a label action,
    and the reference's on the label form."""
    if isinstance(action, SemigroupPartialAction):
        return outcome(validate_isg_partial_action, action.indexed()), \
            outcome(reference_isg, action)
    return outcome(validate_group_partial_action, action.indexed()), \
        outcome(reference_group, action)


def assert_reference_outcome(fast, slow):
    """The same exception, or the same verdict with every violation named
    in the reference's full list."""
    if isinstance(slow, tuple):
        assert fast == slow
    else:
        assert isinstance(fast, list) and bool(fast) == bool(slow)
        assert set(fast) <= set(slow)


def test_action_reports_equal_the_reference_on_the_catalog():
    actions = catalog_actions()
    kinds = {type(a).__name__ for a in actions}
    assert kinds == {"SemigroupPartialAction", "LabelGroupAction"}
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
    maps stay consistent), a map permuted on the values it takes, with its
    inverse to match, or a map value or domain changed outright."""
    s, space = action.semigroup, action.space
    domains = {e: set(d) for e, d in action.domains.items()}
    maps = {e: dict(m) for e, m in action.maps.items()}
    for _ in range(rng.randint(1, 2)):
        kind = rng.randrange(4)
        if kind < 2:
            e = rng.choice(idempotents(s))
            if kind == 0 and domains[e]:
                domains[e].discard(rng.choice(sorted(domains[e])))
            else:
                domains[e].add(rng.choice(space))
            maps[e] = {x: x for x in domains[e]}
        elif kind == 2:
            a = rng.choice(s.elements)
            image = sorted(set(maps[a].values()))
            shuffled = rng.sample(image, len(image))
            swap = dict(zip(image, shuffled))
            maps[a] = {x: swap[y] for x, y in maps[a].items()}
            maps[star_of(s, a)] = {y: x for x, y in maps[a].items()}
        else:
            a = rng.choice(s.elements)
            if maps[a] and rng.random() < 0.5:
                maps[a][rng.choice(sorted(maps[a]))] = rng.choice(space)
            else:
                domains[a] ^= {rng.choice(space)}
    return SemigroupPartialAction(s, space, domains, maps, name=action.name)


VIOLATION_KINDS = ("map of", "but X_", "escapes", "!= theta")


def test_corrupted_bisection_actions_give_equal_reports():
    base = [label_bisection_action_of(catalog.load_groupoid(name))
            for name in ("pair_groupoid_2", "pair_groupoid_3", "two_z2",
                         "pair_plus_unit")]
    rng = random.Random(18)
    kinds = set()
    monotonicity = 0
    for trial in range(160):
        action = corrupt_action(base[trial % len(base)], rng)
        fast, slow = validate(action)
        assert_reference_outcome(fast, slow)
        kinds.update(next((k for k in VIOLATION_KINDS if k in text), text)
                     for text in fast)
        if isinstance(slow, list) and any("monotonicity" in text
                                          for text in slow):
            # The laws checked imply monotonicity, so the validator,
            # which no longer checks it, still fails the action.
            assert fast
            monotonicity += 1
    # The corruptions reach the map checks, monotonicity and every part of
    # the composition law.
    assert set(VIOLATION_KINDS) <= kinds
    assert monotonicity > 0


def test_corrupted_group_actions_give_equal_reports():
    rng = random.Random(19)
    names = catalog.action_names()
    for _ in range(60):
        action = label_view(catalog.load_action(rng.choice(names))).copy()
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
        assert order_pairs(s) == reference_natural_order(s)


I3, I4 = symmetric_inverse_monoid(range(3)), symmetric_inverse_monoid(range(4))


def random_inverse_subsemigroup(rng):
    """The inverse subsemigroup of I(3) or I(4) generated by 1 to 3 random
    partial bijections: their closure, with their inverses, under
    composition."""
    monoid = rng.choice([I3, I4])
    table, star = monoid.table, monoid.star_table
    closure = set()
    for i in rng.sample(range(monoid.order), rng.randint(1, 3)):
        closure |= {i, star[i]}
    grown = True
    while grown:
        products = {table[i][j] for i in closure for j in closure}
        grown = not products <= closure
        closure |= products
    kept = sorted(closure)
    position = {i: k for k, i in enumerate(kept)}
    return FiniteInverseSemigroup(
        [monoid.elements[i] for i in kept],
        [index_row(len(kept), [position[table[i][j]] for j in kept])
         for i in kept],
        [position[star[i]] for i in kept], name="sub")


def assert_orders_agree(s):
    """On a semigroup that passes the validator, the reference finds a
    partial order and natural_order gives its pairs.  Returns whether s
    passed."""
    valid = validate_inverse_semigroup(s).ok
    if valid:
        assert order_pairs(s) == reference_natural_order(s)
    return valid


def test_corrupted_i3_natural_orders_equal_the_reference():
    s = I3
    n = s.order
    rng = random.Random(20)
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
        assert_orders_agree(corrupted)
        assert assert_orders_agree(random_inverse_subsemigroup(rng))


def test_random_small_natural_orders_equal_the_reference():
    rng = random.Random(21)
    passed = 0
    for _ in range(500):
        n = rng.randint(1, 4)
        table = [index_row(n, [rng.randrange(n) for _ in range(n)])
                 for _ in range(n)]
        star = [rng.randrange(n) for _ in range(n)]
        s = FiniteInverseSemigroup([f"x{i}" for i in range(n)], table, star)
        passed += assert_orders_agree(s)
    # The one-element tables pass, and a few larger ones.
    assert passed > 100
    for _ in range(50):
        assert assert_orders_agree(random_inverse_subsemigroup(rng))


# --- the ideal's generators from the label order ------------------------------

def reference_ideal_generators(module):
    """The generators by labels, as ideal_generators built them from the
    natural order's label pairs: (s, x) and (t, x) for each s < t of
    reference_natural_order and each x in X_s."""
    alg = module.algebra_action
    return [(label_index(module, s, x), label_index(module, t, x))
            for s, t in reference_natural_order(alg.index) if s != t
            for x in label_view(alg.action).domain_points(s)]


def natural_action(s):
    """An inverse semigroup of partial bijections acting on the union of
    their images: f maps its domain onto X_f, its image."""
    space = sorted(set().union(*(f.image for f in s.elements)))
    return action_from_labels(
        s, space, {f: f.image for f in s.elements},
        {f: f.mapping for f in s.elements}, name=f"{s.name}@X")


def ideal_actions(pairs):
    """The bisection actions of every catalog groupoid, of the pair
    groupoids on the given numbers of points and of the cyclic ladder
    bundles, then I(3)'s natural action and those of 10 seeded inverse
    subsemigroups of I(3) and I(4).  Returns the actions and the number
    of groupoids."""
    groupoids = [catalog.load_groupoid(name)
                 for name in catalog.groupoid_names()]
    groupoids += [parse(pair_groupoid_spec(n)) for n in pairs]
    groupoids += [parse(cyclic_bundle_spec(ks)) for ks in CYCLIC_BUNDLES]
    actions = [bisection_action_of(g, g.n_arrows) for g in groupoids]
    rng = random.Random(24)
    actions.append(natural_action(I3))
    actions += [natural_action(random_inverse_subsemigroup(rng))
                for _ in range(10)]
    return actions, len(groupoids)


def test_ideal_generators_equal_the_label_order_builder():
    actions, groupoids = ideal_actions((2, 3, 4))
    strict = 0
    for action in actions:
        assert validate_isg_partial_action(
            label_view(action).indexed()).ok, action.index.name
        module = CovarianceModule(induce_algebra_action(action))
        edges, expected = ideal_generators(module), \
            reference_ideal_generators(module)
        assert sorted(edges) == sorted(expected), action.index.name
        assert reference_build_ideal(module).generator_count == len(expected)
        strict += bool(expected)
    assert strict > groupoids


def test_build_ideal_equals_the_union_find_over_every_generator():
    # congruence joins every generator; the oracle joins each (t, x) only
    # to the first generator listed below it, and, on the bisection
    # actions, build_ideal joins it to the singleton of its germ.
    actions, groupoids = ideal_actions((2, 3, 4, 5))
    several = 0
    for k, action in enumerate(actions):
        assert validate_isg_partial_action(
            label_view(action).indexed()).ok, action.index.name
        module = CovarianceModule(induce_algebra_action(action))
        edges = list(ideal_generators(module))
        expected = congruence(module, edges)
        ideals = [reference_build_ideal(module)]
        if k < groupoids:
            ideals.append(build_ideal(module))
        for ideal in ideals:
            assert ideal.rep == expected.rep, action.index.name
            assert ideal.dimension == expected.dimension, action.index.name
            assert ideal.generator_count == len(edges), action.index.name
        several += len(edges) > len({b for _, b in edges})
    assert several > 10


def assert_module_reads_as_labels(module, unit):
    """L's labels by index are basis_labels, label_index reads each back,
    and the diagonal is the basis over the unit label."""
    labels = basis_labels(module)
    assert list(map(module.label, range(module.dim))) == labels
    assert [label_index(module, s, x) for s, x in labels] == \
        list(range(module.dim))
    assert module.diagonal_indices() == \
        [i for i, (s, _) in enumerate(labels) if s == unit]


def test_index_forms_read_as_the_label_construction():
    groupoids = [catalog.load_groupoid(name)
                 for name in catalog.groupoid_names()] + family_groupoids(4)
    for g in groupoids:
        r = psi(g, validate_groupoid(g))
        s, view = r.semigroup, label_semigroup(r.semigroup)
        assert list(map(s.label, range(s.order))) == view.elements, g.name
        assert [view.index(b) for b in view.elements] == list(range(s.order))
        unit = view.elements[s.unit]
        assert unit == label_groupoid(g).units, g.name
        assert_module_reads_as_labels(r.module, unit)
        assert list(map(r.quotient.label, range(r.quotient.dim))) == \
            basis_labels(r.quotient), g.name
        assert list(map(r.steinberg.label, range(r.steinberg.dim))) == \
            basis_labels(r.steinberg) == g.arrows
    actions = [catalog.load_action(name) for name in catalog.action_names()]
    actions += [regular_action(n) for n in range(1, 13)]
    for action in actions:
        m = transformation_rho(action)
        assert_module_reads_as_labels(m.domain, action.group.identity)
        groupoid = m.codomain.groupoid
        assert m.targets == [groupoid.index(label)
                             for label in basis_labels(m.domain)], action.name
