"""Exact coefficient rings (Q, Z, Z/n), coordinate vectors and product
tables of based algebras, and exact linear algebra over fields.

All arithmetic is arbitrary precision; no value is ever rounded.  Rationals
are stored as ``fractions.Fraction`` (lowest terms, positive denominator),
integers as Python ints, and residues mod n as ints in [0, n).
"""

from __future__ import annotations

from array import array
from fractions import Fraction
from operator import itemgetter


def _is_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
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
        if kind == "Q":
            self.is_field = True
            self.is_integral_domain = True
        elif kind == "Z":
            self.is_field = False
            self.is_integral_domain = True
        else:
            self.is_field = _is_prime(modulus)
            self.is_integral_domain = self.is_field

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

    @property
    def size(self):
        """Number of elements, or None when infinite."""
        return self.modulus if self.kind == "Zn" else None

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

    def parse(self, text):
        """Parse a scalar from its string form, e.g. "-3", "5/6"."""
        text = text.strip()
        if "/" in text:
            if self.kind != "Q":
                raise ValueError(f"{text!r} is not a valid {self.tag()} scalar")
            num, den = text.split("/", 1)
            return self.scalar(Fraction(int(num), int(den)))
        return self.scalar(int(text))

    def elements(self):
        """All ring elements; only defined for finite rings."""
        if self.kind != "Zn":
            raise ValueError(f"{self.tag()} is infinite")
        return [self.scalar(v) for v in range(self.modulus)]

    def random(self, rng):
        """A pseudo-random scalar, for property tests."""
        if self.kind == "Q":
            return self.scalar(Fraction(rng.randint(-30, 30), rng.randint(1, 12)))
        if self.kind == "Z":
            return self.scalar(rng.randint(-50, 50))
        return self.scalar(rng.randrange(self.modulus))


def ring_from_tag(tag):
    """Build a ring from its input-file tag: "Q", "Z" or "Z/n"."""
    tag = tag.strip()
    if tag == "Q":
        return ScalarRing("Q")
    if tag == "Z":
        return ScalarRing("Z")
    if tag.startswith("Z/"):
        return ScalarRing("Zn", int(tag[2:]))
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
# (0/1 monomial structure constants) are given by a product table:
# table[i][j] is the index k with e_i e_j = e_k, or -1 when e_i e_j = 0.
# Its rows are arrays built by index_row.

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


class TableAlgebra:
    """Products read off a dense product table.  Every based algebra here
    also has a point structure: e_i e_j is nonzero exactly when
    row_points[i] equals col_points[j], and at_point maps a point to the
    columns carrying it.  The points are None when the table has no such
    structure."""

    def row(self, i):
        return self.table[i]

    def products(self, i, columns):
        return list(map(self.table[i].__getitem__, columns))

    def row_products(self, i):
        """The nonzero products of e_i, over at_point[row_points[i]]."""
        return self.products(i, self.at_point.get(self.row_points[i], ()))


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


def light_generators(table):
    """A generating set G of the magma on the basis indices, read off the
    table.  Candidates are taken in ascending order of how often they occur
    as a product, ties by index, so the indices that are no product come
    first; a candidate already inside the magma closure of G is skipped.
    Rarely produced indices are the ones few products reach, and once they
    are in, their products tend to cover the common ones.  A zero product
    (-1) is not an index and is never added."""
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
        # Each pair of members is multiplied, both ways, once the later of
        # the two is reached, until every index is inside.
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


def _first_counterexample(table):
    """The full cube: the first triple in lexicographic order."""
    n = len(table)
    zero_row = (-1,) * n
    for i, row in enumerate(table):
        # Index -1 (a zero product) reads the appended -1.
        row_i = list(row) + [-1]
        for j in range(n):
            ij = row[j]
            left = tuple(table[ij]) if ij >= 0 else zero_row
            right = tuple(map(row_i.__getitem__, table[j]))
            if left != right:
                k = next(k for k in range(n) if left[k] != right[k])
                return (i, j, k)
    return None


def table_associativity_counterexample(table):
    """The first basis triple (i, j, k), in lexicographic order, with
    (e_i e_j) e_k != e_i (e_j e_k), or None.

    Light's associativity test (Clifford and Preston, The Algebraic Theory
    of Semigroups I, 1961, section 1.2) decides the verdict.  Let M be the
    basis with a zero 0 adjoined (the -1 entries), and let A be the set of
    b in M with (x b) y = x (b y) for all x, y in M.  Then 0 is in A, both
    sides being 0, and A is closed under products: for b, c in A,
    (x (bc)) y = ((x b) c) y = (x b)(c y) = x (b (c y)) = x ((b c) y).
    So if a set G that generates M as a magma lies in A, then A = M and M
    is associative.  As products with 0 are 0, x and y need only range
    over the basis.  This check costs n^2 |G| lookups instead of n^3; G is
    light_generators(table), valid for any table.  Only when it fails does
    the full cube run, to name the first triple.
    """
    n = len(table)
    if n < 2:
        # itemgetter returns a tuple only for two or more indices; one
        # triple is the whole cube anyway.
        return _first_counterexample(table)
    zero_row = (-1,) * n
    # gather(row_i) is (e_i (e_g e_k))_k, read through row_i.  Rows are
    # compared as tuples, made one at a time.
    gathers = [(g, itemgetter(*table[g])) for g in light_generators(table)]
    for row in table:
        # Index -1 (a zero product) reads the appended -1.
        row_i = list(row) + [-1]
        for g, gather in gathers:
            ig = row[g]
            left = tuple(table[ig]) if ig >= 0 else zero_row
            if left != gather(row_i):
                return _first_counterexample(table)
    return None


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

