import math
import random
from fractions import Fraction
from itertools import product

import pytest
from dense_oracle import (table_associativity_counterexample,
                          table_mul_vectors, triple_fails)

from families import random_scalar
from groupoidal.scalars import (_MR_EXACT_BELOW, MAX_MODULUS_DIGITS,
                                _is_prime, ring_from_tag, SpanTracker)


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
    # The tag is read up to MAX_MODULUS_DIGITS digits and refused past it,
    # with the engine's message.
    n = MAX_MODULUS_DIGITS
    assert ring_from_tag("Z/1" + "0" * (n - 1)).modulus == 10 ** (n - 1)
    with pytest.raises(ValueError, match=f"^ring modulus has {n + 1} "
                       f"digits, more than the {n} allowed$"):
        ring_from_tag("Z/1" + "0" * n)


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


def trial_division(n):
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


def test_primality_equals_trial_division_below_10_5():
    assert [n for n in range(10 ** 5) if _is_prime(n)] == \
        [n for n in range(10 ** 5) if trial_division(n)]


def test_primality_of_large_moduli():
    # 2^61 - 1 is prime; 561 is a Carmichael number; 3215031751 is a
    # strong pseudoprime to the bases 2, 3, 5 and 7, and
    # 318665857834031151167461 to the first twelve primes 2, ..., 37.
    assert ring_from_tag("Z/2305843009213693951").is_field
    for n in (561, 3215031751, 318665857834031151167461):
        ring = ring_from_tag(f"Z/{n}")
        assert not ring.is_field and not ring.is_integral_domain
    mersenne_89 = 2 ** 89 - 1
    assert mersenne_89 > _MR_EXACT_BELOW
    # Above the bound a witness still proves a modulus composite.
    assert not _is_prime(mersenne_89 * (2 ** 61 - 1))
    assert not ring_from_tag(f"Z/{mersenne_89 + 2}").is_field
    # With no witness the modulus is refused: a prime, and the least
    # strong pseudoprime to all thirteen bases, the bound itself.
    for n in (mersenne_89, _MR_EXACT_BELOW):
        with pytest.raises(ValueError, match="cannot decide"):
            ring_from_tag(f"Z/{n}")


def test_rational_arithmetic():
    Q = ring_from_tag("Q")
    assert Q.scalar(Fraction(1, 2)) + Q.scalar(Fraction(1, 3)) == \
        Q.scalar(Fraction(5, 6))
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
    assert Q.scalar(Fraction(1, 2)) / Q.scalar(Fraction(1, 3)) == \
        Q.scalar(Fraction(3, 2))
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
        a, b, c = (random_scalar(ring, rng) for _ in range(3))
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
    assert [f is None for f in found] == \
        [cube_oracle(t) is None for t in tables]
    for table, triple in zip(tables, found):
        assert triple is None or triple_fails(table, triple)
    assert found[:2] == [None, None]
    assert any(found)


def test_table_product_is_bilinear(Z):
    # e_0 is an identity and e_1 e_1 = 0 in this 2-dimensional algebra.
    table = [[0, 1], [1, -1]]
    u, v = vec(Z, 2, 3), vec(Z, 5, -1)
    # (2 e_0 + 3 e_1)(5 e_0 - e_1) = 10 e_0 + (15 - 2) e_1
    assert table_mul_vectors(table, Z, u, v) == vec(Z, 10, 13)
