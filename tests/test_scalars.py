import random
from fractions import Fraction
from itertools import product

import pytest

from groupoidal.scalars import (ring_from_tag, SpanTracker,
                                table_associativity_counterexample,
                                table_mul_vectors)


def vec(ring, *values):
    return [ring.scalar(v) for v in values]


def test_ring_tags():
    assert ring_from_tag("Q").kind == "Q"
    assert ring_from_tag("Z").kind == "Z"
    assert ring_from_tag("Z/7").modulus == 7
    with pytest.raises(ValueError):
        ring_from_tag("R")
    with pytest.raises(ValueError):
        ring_from_tag("Z/1")


def test_field_flags():
    assert ring_from_tag("Q").is_field
    assert not ring_from_tag("Z").is_field
    assert ring_from_tag("Z").is_integral_domain
    assert ring_from_tag("Z/5").is_field
    assert not ring_from_tag("Z/6").is_field
    assert not ring_from_tag("Z/6").is_integral_domain
    for tag in ("Q", "Z", "Z/2", "Z/4", "Z/9", "Z/11"):
        ring = ring_from_tag(tag)
        assert not ring.is_field or ring.is_integral_domain


def test_rational_arithmetic():
    Q = ring_from_tag("Q")
    assert Q.parse("1/2") + Q.parse("1/3") == Q.parse("5/6")
    third = Q.scalar(Fraction(2, 6))
    assert third.value == Fraction(1, 3)
    assert third.value.denominator == 3
    neg = Q.scalar(Fraction(1, -2))
    assert neg.value.denominator == 2 and neg.value.numerator == -1


def test_modular_arithmetic():
    Z5 = ring_from_tag("Z/5")
    assert Z5.scalar(3) * Z5.scalar(4) == Z5.scalar(2)
    assert Z5.scalar(-1) == Z5.scalar(4)
    assert all(0 <= Z5.scalar(v).value < 5 for v in range(-10, 10))


def test_integer_arithmetic():
    Z = ring_from_tag("Z")
    assert Z.scalar(7) * Z.scalar(0) == Z.zero()
    big = Z.scalar(10**40) * Z.scalar(10**40)
    assert big.value == 10**80


def test_division():
    Q = ring_from_tag("Q")
    assert Q.parse("1/2") / Q.parse("1/3") == Q.parse("3/2")
    Z7 = ring_from_tag("Z/7")
    assert Z7.scalar(3) / Z7.scalar(5) == Z7.scalar(2)  # 5*2 = 3 mod 7
    with pytest.raises(ZeroDivisionError):
        Q.one() / Q.zero()
    with pytest.raises(ValueError):
        ring_from_tag("Z").scalar(4) / ring_from_tag("Z").scalar(2)


def test_mixed_ring_operands_rejected():
    Q = ring_from_tag("Q")
    Z = ring_from_tag("Z")
    with pytest.raises(ValueError):
        Q.one() + Z.one()
    with pytest.raises(ValueError):
        ring_from_tag("Z/5").one() * ring_from_tag("Z/7").one()


@pytest.mark.parametrize("tag", ["Q", "Z", "Z/5", "Z/6"])
def test_ring_axioms_on_random_triples(tag):
    ring = ring_from_tag(tag)
    rng = random.Random(20240601)
    zero, one = ring.zero(), ring.one()
    assert zero != one
    for _ in range(1000):
        a, b, c = (ring.random(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a + b == b + a
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert a + zero == a and a * one == a
        assert a + (-a) == zero


def span_of(ring, vectors):
    span = SpanTracker(ring, 3)
    for v in vectors:
        span.add(v)
    return span


def test_span_dimension_shuffle_invariant(Q):
    rng = random.Random(99)
    vectors = [vec(Q, 1, 0, 2), vec(Q, 0, 1, 1), vec(Q, 1, 1, 3),
               vec(Q, 2, 0, 4)]
    baseline = span_of(Q, vectors)
    assert baseline.dimension == 2
    for _ in range(10):
        shuffled = vectors[:]
        rng.shuffle(shuffled)
        # The reduced echelon basis is canonical, not only its size.
        assert span_of(Q, shuffled).rows == baseline.rows


def test_span_needs_field(Z):
    with pytest.raises(ValueError):
        SpanTracker(Z, 3)


def test_tracker_reduce_and_contains(Q):
    tracker = SpanTracker(Q, 3)
    assert tracker.add(vec(Q, 1, 2, 0))
    assert tracker.add(vec(Q, 0, 1, 1))
    assert not tracker.add(vec(Q, 1, 3, 1))
    assert tracker.dimension == 2
    assert tracker.contains(vec(Q, 2, 5, 1))
    assert not tracker.contains(vec(Q, 0, 0, 1))


def cube_oracle(table):
    """The associativity cube as a plain triple loop."""
    def mul(a, b):
        return -1 if a < 0 or b < 0 else table[a][b]
    for i, j, k in product(range(len(table)), repeat=3):
        if mul(mul(i, j), k) != mul(i, mul(j, k)):
            return (i, j, k)
    return None


def test_associativity_cube_matches_triple_loop():
    rng = random.Random(4)
    # Z/3 under addition, and the 2 x 2 matrix units, are associative.
    tables = [[[(i + j) % 3 for j in range(3)] for i in range(3)],
              [[2 * (i // 2) + j % 2 if i % 2 == j // 2 else -1
                for j in range(4)]
               for i in range(4)]]
    tables += [[[rng.randrange(-1, n) for _ in range(n)] for _ in range(n)]
               for n in (1, 2, 3, 4) for _ in range(25)]
    found = [table_associativity_counterexample(t) for t in tables]
    assert found == [cube_oracle(t) for t in tables]
    assert found[:2] == [None, None]
    assert any(found)


def test_table_product_is_bilinear(Z):
    # e_0 is an identity and e_1 e_1 = 0 in this 2-dimensional algebra.
    table = [[0, 1], [1, -1]]
    u, v = vec(Z, 2, 3), vec(Z, 5, -1)
    # (2 e_0 + 3 e_1)(5 e_0 - e_1) = 10 e_0 + (15 - 2) e_1
    assert table_mul_vectors(table, Z, u, v) == vec(Z, 10, 13)
