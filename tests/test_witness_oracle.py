"""Every witness a failing check names really fails, on seeded corruptions
of the catalog and ladder inputs.

The fast checks stop where they fail and name the violation found there,
not always the lexicographically first.  Hypothesis draws a base input
and a random source for its corruption: a groupoid (`validate_groupoid`),
a dense product table (the dense Light's test, and Light's test on the
one-point view where the table stays total), a bisection action (its
validator), an action with a map permuted or a Z4 action that breaks
the composition law (L's associativity certificate, and Light's test on
L where its products stay closed) and an ideal with extra generators
(two-sidedness, decided as I = ker psi).  The verdict must equal the
reference's, or, for two-sidedness, refuse whatever the dense scan
refuses, and each violation named must fail in the dense oracle: it is
in the reference validator's full list, its triple fails in the dense
table, or its basis pair lies in one of I and ker psi but not the other.
"""

import pytest
from hypothesis import given, settings, strategies as st

from dense_oracle import (closed, dense_table, ideal_generators, premises,
                          product_rows, psi_of,
                          table_associativity_counterexample, triple_fails)
from test_associativity_oracle import (corrupt, groupoid_tables,
                                       reference_cube)
from test_factored_oracle import partial_corruptions, z4_actions
from test_groupoid_oracle import (assert_reference_violations, corrupted,
                                  ladder, reference_validate_groupoid,
                                  steiner_loop_groupoid)
from test_index_oracle import (assert_kernel_verdict, assert_reference_outcome,
                               bisection_module, congruence, corrupt_action,
                               validate)

from families import label_bisection_action_of
import catalog
from groupoidal.groupoid_core import validate_groupoid
from groupoidal.partial_actions import induce_algebra_action
from groupoidal.scalars import DenseTable
from groupoidal.skew_rings import CovarianceModule, QuotientAlgebra

SETTINGS = settings(max_examples=200, deadline=None, derandomize=True,
                    database=None)


def outcome(fn, *args):
    """The result, or the exception's type and text."""
    try:
        return fn(*args)
    except (KeyError, ValueError) as exc:
        return (type(exc).__name__, str(exc))


@pytest.fixture(scope="module")
def groupoids():
    # The reference scans every triple of arrows, so the bases are kept
    # small.
    return ([g for g in ladder() if 0 < g.n_arrows <= 30]
            + [steiner_loop_groupoid(1)])


@pytest.fixture(scope="module")
def tables():
    found = []
    for name in ("pair_groupoid_2", "pair_groupoid_3", "two_z2",
                 "z3_one_unit"):
        found += groupoid_tables(name, catalog.load_groupoid(name))
    found += [(name, catalog.load_semigroup(name).table)
              for name in catalog.semigroup_names()]
    return [table for _, table in found]


@pytest.fixture(scope="module")
def actions():
    return [label_bisection_action_of(catalog.load_groupoid(name))
            for name in ("pair_groupoid_2", "pair_groupoid_3", "two_z2",
                         "pair_plus_unit")]


@pytest.fixture(scope="module")
def modules():
    found = [bisection_module(catalog.load_groupoid(name))
             for name in catalog.groupoid_names()]
    return [(module, psi_of(module), product_rows(module),
             list(ideal_generators(module)))
            for module in found if module.dim > 1]


@SETTINGS
@given(st.data(), st.randoms(use_true_random=False))
def test_groupoid_violations_are_in_the_reference_list(groupoids, data, rng):
    g = corrupted(data.draw(st.sampled_from(groupoids)), rng)
    expected = outcome(reference_validate_groupoid, g)
    report = outcome(validate_groupoid, g)
    if isinstance(expected, tuple):
        assert report == expected
    else:
        assert_reference_violations(report, expected)


@SETTINGS
@given(st.data(), st.randoms(use_true_random=False))
def test_table_triples_fail_in_the_dense_table(tables, data, rng):
    table = corrupt(data.draw(st.sampled_from(tables)), rng)
    found = table_associativity_counterexample(table)
    assert (found is None) == (reference_cube(
        [list(row) for row in table]) is None)
    assert found is None or triple_fails(table, found)
    if all(-1 not in row for row in table):
        # A total table is the one-point case of Light's test.
        one_point = DenseTable(table).associativity_counterexample()
        assert (one_point is None) == (found is None)
        assert one_point is None or triple_fails(table, one_point)


@SETTINGS
@given(st.data(), st.randoms(use_true_random=False))
def test_action_violations_are_in_the_reference_list(actions, data, rng):
    action = corrupt_action(data.draw(st.sampled_from(actions)), rng)
    assert_reference_outcome(*validate(action))


@SETTINGS
@given(st.sampled_from([z4_actions, partial_corruptions]),
       st.randoms(use_true_random=False))
def test_l_triples_fail_in_the_dense_table(corruptions, rng):
    action = next(corruptions(rng, 1))
    try:
        module = CovarianceModule(induce_algebra_action(action))
    except (KeyError, ValueError):
        return
    reports = premises(action)
    certified = module.verify_associativity(reports)
    assert certified == all(r.ok for r in reports)
    table = outcome(dense_table, module)
    if isinstance(table, tuple):
        # A product outside L: some premise fails.
        assert not certified and table[0] == "KeyError"
        return
    cube = reference_cube([list(row) for row in table])
    # With the premises holding, L is associative without a look at it.
    assert not certified or cube is None
    if closed(module):
        found = module.associativity_counterexample()
        assert (found is None) == (cube is None)
        assert found is None or triple_fails(table, found)


@SETTINGS
@given(st.data(), st.randoms(use_true_random=False))
def test_ideal_violations_leave_the_ideal(modules, data, rng):
    module, psi_map, table, edges = data.draw(st.sampled_from(modules))
    extra = [tuple(rng.sample(range(module.dim), 2))
             for _ in range(rng.randint(1, 2))]
    merged = edges + extra
    rng.shuffle(merged)
    quotient = QuotientAlgebra(module, congruence(module, merged))
    assert_kernel_verdict(quotient, psi_map, table, merged)
