"""Exact coefficient rings (Q, Z, Z/n), coordinate vectors, based
algebras with 0/1 structure constants and their associativity check, and
exact linear algebra over fields.

All arithmetic is arbitrary precision; no value is ever rounded.  Rationals
are stored as ``fractions.Fraction`` (lowest terms, positive denominator),
integers as Python ints, and residues mod n as ints in [0, n).

Base change.  A_R(G), the covariance module L and the quotient L/I are
built once, over Z, with no scalar ring (for A_R(G), see Steinberg, A
groupoid approach to discrete inverse semigroup algebras, 2010).  Each
has a basis whose nonzero products are basis elements, I is spanned by
the differences e_a - e_rep(a), and rho, psi, psi~, Gamma and Phi send
basis elements to basis elements.  So over every R each algebra is
R (x)_Z of its Z-form, L/I is free on the classes, and each map has the
same targets.  Every certificate compares basis indices, and a failure
names basis elements or the kernel vector e_a - e_m, nonzero over Q, Z
and Z/n, so each verdict is the same over every R.  The ring is read
only by the command line (the report header and equivalence's
integral-domain guard), by the random draws of phi's additivity trials,
and by GroupoidFunction.
"""

from __future__ import annotations

from array import array
from collections import Counter
from fractions import Fraction
from operator import itemgetter


# Miller-Rabin with the first 13 primes as bases decides primality for
# every n below _MR_EXACT_BELOW, the least strong pseudoprime to all 13
# (Sorenson and Webster, Strong pseudoprimes to twelve prime bases, Math.
# Comp. 2017).  The first 12 primes alone stop at 318665857834031151167461.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_EXACT_BELOW = 3317044064679887385961981


def _is_prime(n):
    """Whether n is prime, by Miller-Rabin on _MR_BASES.  A witness proves
    n composite at any size; a prime n at or above _MR_EXACT_BELOW, where
    the bases no longer decide, is refused with ValueError."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if n >= _MR_EXACT_BELOW:
        raise ValueError(f"cannot decide whether the modulus {n} is prime")
    return True


class ScalarRing:
    """A commutative coefficient ring with decidable equality.

    kind is one of "Q" (exact rationals), "Z" (integers) or "Zn"
    (integers mod n, n >= 2).
    """

    def __init__(self, kind, modulus=None):
        if kind not in ("Q", "Z", "Zn"):
            raise ValueError(f"unknown ring kind {kind!r}")
        if kind == "Zn":
            if modulus is None or modulus < 2:
                raise ValueError("modulus must be an integer >= 2")
        elif modulus is not None:
            raise ValueError(f"ring {kind} takes no modulus")
        self.kind = kind
        self.modulus = modulus
        self.is_field = kind == "Q" or (kind == "Zn" and _is_prime(modulus))
        self.is_integral_domain = self.is_field or kind == "Z"

    def __eq__(self, other):
        return (isinstance(other, ScalarRing)
                and self.kind == other.kind and self.modulus == other.modulus)

    def __hash__(self):
        return hash((self.kind, self.modulus))

    def __repr__(self):
        return f"ScalarRing({self.tag()})"

    def tag(self):
        if self.kind == "Zn":
            return f"Z/{self.modulus}"
        return self.kind

    def _normalize(self, raw):
        if self.kind == "Q":
            return raw if isinstance(raw, Fraction) else Fraction(raw)
        if self.kind == "Z":
            return int(raw)
        return int(raw) % self.modulus

    def scalar(self, raw):
        """Wrap a Python number (or pre-normalized value) in this ring."""
        return Scalar(self, self._normalize(raw))

    def zero(self):
        return self.scalar(0)

    def one(self):
        return self.scalar(1)

    def random_value(self, rng):
        """A pseudo-random value of the ring, drawn from rng."""
        if self.kind == "Q":
            return Fraction(rng.randint(-30, 30), rng.randint(1, 12))
        if self.kind == "Z":
            return rng.randint(-50, 50)
        return rng.randrange(self.modulus)


# The most digits of a Z/n modulus: a 300-digit prime, refused only after
# all 13 bases of _is_prime, takes 0.06 s on a 2-vCPU VM, in a 0.1 s budget.
MAX_MODULUS_DIGITS = 300


def ring_from_tag(tag):
    """Build a ring from its input-file tag, outer whitespace stripped:
    "Q", "Z", or "Z/" and ASCII digits, at most MAX_MODULUS_DIGITS of
    them; any other tag is unknown."""
    tag = tag.strip()
    if tag == "Q":
        return ScalarRing("Q")
    if tag == "Z":
        return ScalarRing("Z")
    digits = tag[2:]
    if tag.startswith("Z/") and digits.isascii() and digits.isdigit():
        if len(digits) > MAX_MODULUS_DIGITS:
            raise ValueError(f"ring modulus has {len(digits)} digits, more "
                             f"than the {MAX_MODULUS_DIGITS} allowed")
        return ScalarRing("Zn", int(digits))
    raise ValueError(f"unknown ring tag {tag!r}")


class Scalar:
    """An exact element of a ScalarRing."""

    __slots__ = ("ring", "value")

    def __init__(self, ring, value):
        self.ring = ring
        self.value = value

    def _check(self, other):
        if not isinstance(other, Scalar):
            raise TypeError(f"expected Scalar, got {type(other).__name__}")
        if other.ring != self.ring:
            raise ValueError(f"mixed rings: {self.ring.tag()} vs {other.ring.tag()}")

    def __add__(self, other):
        self._check(other)
        return self.ring.scalar(self.value + other.value)

    def __sub__(self, other):
        self._check(other)
        return self.ring.scalar(self.value - other.value)

    def __mul__(self, other):
        self._check(other)
        return self.ring.scalar(self.value * other.value)

    def __neg__(self):
        return self.ring.scalar(-self.value)

    def __truediv__(self, other):
        self._check(other)
        if not self.ring.is_field:
            raise ValueError(f"{self.ring.tag()} is not a field; no division")
        if not other:
            raise ZeroDivisionError("scalar division by zero")
        if self.ring.kind == "Q":
            return self.ring.scalar(self.value / other.value)
        return self.ring.scalar(self.value * pow(other.value, -1, self.ring.modulus))

    def inverse(self):
        return self.ring.one() / self

    def __eq__(self, other):
        return (isinstance(other, Scalar) and self.ring == other.ring
                and self.value == other.value)

    def __hash__(self):
        return hash((self.ring, self.value))

    def __bool__(self):
        return self.value != 0

    def __repr__(self):
        return f"{self.value}:{self.ring.tag()}"

    def __str__(self):
        return str(self.value)


# ---------------------------------------------------------------------------
# Coordinate vectors (plain lists of Scalar) over any ring, and exact
# linear algebra over a field.
# ---------------------------------------------------------------------------

def zero_vector(ring, length):
    z = ring.zero()
    return [z] * length


# Based algebras whose basis products are single basis elements or zero
# (0/1 monomial structure constants).  A dense product table, where one is
# kept, has table[i][j] the index k with e_i e_j = e_k; its rows are arrays
# built by index_row.

def index_typecode(n):
    """The array typecode for the indices below n and -1: 16-bit while n
    fits, wider above.  'l' and 'q' are at least 32 and 64 bits wide."""
    if n <= 0x7FFF:
        return "h"
    if n <= 0x7FFFFFFF:
        return "l"
    return "q"


def index_row(n, entries):
    """A product-table row for dimension n holding the given entries."""
    return array(index_typecode(n), entries)


def points_at(points):
    """Point -> the indices carrying it, in increasing order."""
    at = {}
    for j, p in enumerate(points):
        at.setdefault(p, []).append(j)
    return at


def point_places(points):
    """points_at(points), and the position of each index among the
    indices carrying its point."""
    at = points_at(points)
    place = [0] * len(points)
    for indices in at.values():
        for k, j in enumerate(indices):
            place[j] = k
    return at, place


class BasedAlgebra:
    """A based algebra with 0/1 structure constants, factored by points:
    e_i e_j is nonzero exactly when row_points[i] equals col_points[j].
    at_point maps a point to the columns carrying it, in increasing
    order, and place[j] is the position of column j there, so that
    e_i e_j is e_k for k = row_products(i)[place[j]] where it is nonzero.
    A subclass sets the points with _set_points, the dimension dim, and
    defines row_products(i), the nonzero products of e_i, over
    at_point[row_points[i]]: products are read only by rows."""

    def _set_points(self, row_points, col_points):
        self.row_points = row_points
        self.col_points = col_points
        self.at_point, self.place = point_places(col_points)

    def associativity_counterexample(self):
        """A basis triple (x, g, y) with (e_x e_g) e_y != e_x (e_g e_y),
        or None when the algebra is associative.  The precondition is
        closure: a nonzero e_i e_j has the column point of e_i and the row
        point of e_j.

        Light's test (Clifford and Preston, The Algebraic Theory of
        Semigroups I, 1961, section 1.2): let M be the basis with a zero 0
        adjoined, and A the set of b in M with (x b) y = x (b y) for all
        x, y in M.  0 is in A, and A is closed under products: for b, c
        in A, (x (bc)) y = ((x b) c) y = (x b)(c y) = x (b (c y)) =
        x ((b c) y).  So A holds every left-normed product
        (..(g1 g2)..) gk of its members, and if the generators
        light_generators(self) of M, of which every element is such a
        product, lie in A, M is associative; as products with 0 are 0, x
        and y range over the basis.

        With closure, (e_x e_g) e_y is nonzero iff the row point of x is
        the column point of g and the column point of y is the row point
        of e_x e_g, that of g; e_x (e_g e_y) is nonzero under the same two
        conditions, as e_g e_y has the column point of g.  So g needs only
        those x and y, for any other both sides being 0.  The left side
        is then row_products(e_x e_g), and the right side reads row x at
        the places of the products e_g e_y.  The loop runs over the
        generators, then x, then y; the triple named is the first where
        the sides differ, a true counterexample, not always the
        lexicographically first.
        """
        rows_at = points_at(self.row_points)
        place = self.place
        for g in light_generators(self):
            ys = self.at_point.get(self.row_points[g])
            if ys is None:
                continue
            places = [place[k] for k in self.row_products(g)]
            # gather(row_x) is the tuple (e_x (e_g e_y))_y.
            gather = (itemgetter(*places) if len(places) > 1
                      else lambda row, p=places[0]: (row[p],))
            for x in rows_at.get(self.col_points[g], ()):
                row_x = self.row_products(x)
                left = tuple(self.row_products(row_x[place[g]]))
                right = gather(row_x)
                if left != right:
                    return (x, g, next(y for y, a, b in zip(ys, left, right)
                                       if a != b))
        return None


class DenseTable(BasedAlgebra):
    """A total index table, table[i][j] the index of e_i e_j with no -1
    entry (a group's or an inverse semigroup's), as the one-point based
    algebra: every product is nonzero, so closure holds."""

    def __init__(self, table):
        self.table = table
        self.dim = len(table)
        self._set_points([0] * self.dim, [0] * self.dim)

    def row_products(self, i):
        return self.table[i]


def generating_set(n, candidates, times):
    """A generating set of the products on the indices below n: the
    candidates in order, skipping any that is already a left-normed
    product (..(g1 g2)..) gk of those taken.  times(g) returns the
    function from a list of indices to their products with g on the
    right, -1 for zero.  Each index reached is multiplied by each
    generator once."""
    inside = bytearray(n)
    members, generators, products = [], [], []

    def reach(times_g, factors):
        """The products of the factors with a generator that were not
        reached before, now marked."""
        new = []
        for p in times_g(factors):
            if p >= 0 and not inside[p]:
                inside[p] = 1
                new.append(p)
        return new

    for c in candidates:
        if len(members) == n:
            break
        if inside[c]:
            continue
        generators.append(c)
        products.append(times(c))
        inside[c] = 1
        fresh = [c] + reach(products[-1], members)
        while fresh:
            members += fresh
            fresh = [p for times_g in products for p in reach(times_g, fresh)]
    return generators


def light_generators(algebra):
    """generating_set on the basis indices of a based algebra, read off
    its nonzero products, the candidates in ascending order of how often
    they occur as a product, ties by index, so the non-products first.
    Rarely produced indices are the ones few products reach, and once
    they are in, their products tend to cover the common ones."""
    n = algebra.dim
    # The rows as the algebra keeps them, or built once each.
    rows = list(map(algebra.row_products, range(n)))
    counts = Counter()
    for row in rows:
        counts.update(row)
    points = algebra.row_points

    def times(g):
        # x g is nonzero when the row point of x is the column point of g.
        p, k = algebra.col_points[g], algebra.place[g]
        return lambda xs: [rows[x][k] if points[x] == p else -1 for x in xs]

    return generating_set(n, sorted(range(n), key=counts.__getitem__), times)


def is_zero_vector(vec):
    return not any(vec)


class SpanTracker:
    """Reduced row-echelon basis of a growing span, over a field.

    Rows are kept fully reduced (each pivot column is zero in every other
    row, pivot entries are 1) and sorted by pivot column, so the tracked
    basis is canonical for the span regardless of insertion order.
    """

    def __init__(self, ring, length):
        if not ring.is_field:
            raise ValueError(f"echelon reduction needs a field, got {ring.tag()}")
        self.ring = ring
        self.length = length
        self.rows = []
        self.pivots = []

    @property
    def dimension(self):
        return len(self.rows)

    def reduce(self, vec):
        """Residual of vec after eliminating all pivot coordinates."""
        if len(vec) != self.length:
            raise ValueError("vector length mismatch")
        vec = list(vec)
        for row, piv in zip(self.rows, self.pivots):
            c = vec[piv]
            if c:
                vec = [a - c * b for a, b in zip(vec, row)]
        return vec

    def contains(self, vec):
        return is_zero_vector(self.reduce(vec))

    def add(self, vec):
        """Adjoin vec to the span; returns True when the rank grew."""
        res = self.reduce(vec)
        piv = next((i for i, a in enumerate(res) if a), None)
        if piv is None:
            return False
        inv = res[piv].inverse()
        res = [inv * a for a in res]
        for i, row in enumerate(self.rows):
            c = row[piv]
            if c:
                self.rows[i] = [a - c * b for a, b in zip(row, res)]
        at = next((k for k, p in enumerate(self.pivots) if p > piv), len(self.pivots))
        self.rows.insert(at, res)
        self.pivots.insert(at, piv)
        return True

