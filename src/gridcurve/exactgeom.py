"""Exact lattice arithmetic for grids with turn unit 2*pi/n.

Positions and displacements are integer vectors over the power basis
{zeta^0, ..., zeta^(phi(n)-1)} of the ring Z[zeta], zeta = exp(2*pi*i/n).
Equality of points, and hence of directed edges, is decided exactly;
floating point enters only when exporting coordinates, for drawing and for
distance bounds.

Each exact operation has one home here.  ``mul_vec`` multiplies two
elements as polynomials in zeta and reduces the product modulo the n-th
cyclotomic polynomial, which is monic, so the remainder has integer
coefficients; ``rotations`` multiplies by zeta n times with the same
recurrence, and ``unit_coeffs`` holds the powers of zeta it gives.
``Lattice`` is the one solver for a lattice spanned by two elements: its
echelon basis gives both the canonical residue of a point (``reduce``),
which decides congruence, and a lattice point's integer coordinates on
the spanning pair (``coords``).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache
from operator import add, mul, sub
from typing import Iterable, Sequence


def _divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def _poly_div_exact(num: list[int], den: list[int]) -> list[int]:
    """Quotient of integer polynomials (ascending coefficients), exact."""
    num = list(num)
    dlead = den[-1]
    q = [0] * (len(num) - len(den) + 1)
    for i in range(len(q) - 1, -1, -1):
        c = num[i + len(den) - 1]
        if c % dlead != 0:
            raise ArithmeticError("non-exact polynomial division")
        q[i] = c // dlead
        for j, dc in enumerate(den):
            num[i + j] -= q[i] * dc
    if any(num):
        raise ArithmeticError("non-exact polynomial division")
    return q


@lru_cache(maxsize=None)
def cyclotomic(n: int) -> tuple[int, ...]:
    """Coefficients of the n-th cyclotomic polynomial, ascending, monic."""
    if n == 1:
        return (-1, 1)
    poly = [-1] + [0] * (n - 1) + [1]
    for d in _divisors(n):
        if d < n:
            poly = _poly_div_exact(poly, list(cyclotomic(d)))
    return tuple(poly)


@lru_cache(maxsize=None)
def phi(n: int) -> int:
    return len(cyclotomic(n)) - 1


@lru_cache(maxsize=None)
def _embed_basis(n: int) -> tuple[complex, ...]:
    return tuple(cmath.exp(2j * cmath.pi * k / n) for k in range(phi(n)))


def add_vec(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(map(add, a, b))


def sub_vec(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(map(sub, a, b))


def mul_vec(a: tuple[int, ...], b: tuple[int, ...], n: int) -> tuple[int, ...]:
    """The product of two ring elements: their convolution, reduced modulo
    the monic cyclotomic polynomial from the top coefficient down."""
    conv = [0] * (2 * len(a) - 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            if y:
                conv[i + j] += x * y
    low = cyclotomic(n)[:-1]  # zeta^deg = -(low[0] + low[1] zeta + ...)
    deg = len(low)
    for top in range(len(conv) - 1, deg - 1, -1):
        c = conv[top]
        if c:
            for i, t in enumerate(low, top - deg):
                conv[i] -= c * t
    return tuple(conv[:deg])


def rotations(a: tuple[int, ...], n: int) -> tuple[tuple[int, ...], ...]:
    """a * zeta^k for every k in range(n), one multiplication by zeta each."""
    low = cyclotomic(n)[:-1]  # zeta^deg = -(low[0] + low[1] zeta + ...)
    out = [tuple(a)]
    for _ in range(n - 1):
        prev = out[-1]
        out.append(tuple(c - prev[-1] * t for c, t in zip((0,) + prev[:-1], low)))
    return tuple(out)


@lru_cache(maxsize=None)
def unit_coeffs(n: int) -> tuple[tuple[int, ...], ...]:
    """Canonical coefficient vectors of zeta^k for k in range(n)."""
    return rotations((1,) + (0,) * (phi(n) - 1), n)


def embed_vec(a: Sequence[int], n: int) -> complex:
    basis = _embed_basis(n)
    return sum(map(mul, a, basis)) if any(a) else 0j


def galois_apply(a: tuple[int, ...], k: int, n: int) -> tuple[int, ...]:
    """Image of a under zeta -> zeta^k (k coprime to n); k = n - 1 is the
    complex conjugate."""
    units = unit_coeffs(n)
    deg = phi(n)
    out = [0] * deg
    for j, c in enumerate(a):
        if c == 0:
            continue
        rep = units[(j * k) % n]
        for i in range(deg):
            out[i] += c * rep[i]
    return tuple(out)


def ring_div_exact(num: tuple[int, ...], den: tuple[int, ...], n: int) -> tuple[int, ...]:
    """num / den in Z[zeta_n] when the quotient lies in the ring.

    Multiplies by the product of the other Galois conjugates of den, then
    divides by the rational field norm, that product times den.  Raises on
    inexact division.  Its one caller, ``validator.scale_analysis``, divides
    a few times per curve-set, so the conjugates are not cached.
    """
    if not any(den):
        raise ZeroDivisionError("division by zero in Z[zeta]")
    adj = unit_coeffs(n)[0]
    for k in range(2, n):
        if math.gcd(k, n) == 1:
            adj = mul_vec(adj, galois_apply(den, k, n), n)
    norm_vec = mul_vec(den, adj, n)
    if any(norm_vec[1:]):
        raise ArithmeticError("field norm did not come out rational")
    norm = norm_vec[0]
    prod = mul_vec(num, adj, n)
    if any(c % norm for c in prod):
        raise ArithmeticError("non-exact division in Z[zeta]")
    return tuple(c // norm for c in prod)


@dataclass(frozen=True)
class Point:
    """Exact lattice point: integer coordinates over the power basis of zeta_n."""

    n: int
    coeffs: tuple[int, ...]

    @staticmethod
    def zero(n: int) -> "Point":
        return Point(n, (0,) * phi(n))

    def _check(self, other: "Point") -> None:
        if self.n != other.n:
            raise ValueError(f"mixed turn resolutions {self.n} and {other.n}")

    def __add__(self, other: "Point") -> "Point":
        self._check(other)
        return Point(self.n, add_vec(self.coeffs, other.coeffs))

    def __sub__(self, other: "Point") -> "Point":
        self._check(other)
        return Point(self.n, sub_vec(self.coeffs, other.coeffs))

    def __neg__(self) -> "Point":
        return Point(self.n, tuple(-c for c in self.coeffs))

    def __mul__(self, other: "Point") -> "Point":
        self._check(other)
        return Point(self.n, mul_vec(self.coeffs, other.coeffs, self.n))

    def conjugate(self) -> "Point":
        return Point(self.n, galois_apply(self.coeffs, self.n - 1, self.n))

    def scaled(self, m: int) -> "Point":
        return Point(self.n, tuple(m * c for c in self.coeffs))

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def norm2(self) -> "Point":
        """|self|^2 as an exact (real) ring element."""
        return self * self.conjugate()

    def norm2_int(self) -> int | None:
        """|self|^2 when it is a rational integer, else None."""
        v = self.norm2().coeffs
        if any(v[1:]):
            return None
        return v[0]

    def to_complex(self) -> complex:
        return embed_vec(self.coeffs, self.n)

    def __abs__(self) -> float:
        return abs(self.to_complex())


def trace_tokens(
    tokens: Iterable[str | int],
    n: int,
    start: tuple[int, ...] | None = None,
    start_dir: int = 0,
) -> tuple[tuple[int, ...], int, list[tuple[tuple[int, ...], int, str]]]:
    """Turtle-walk a token sequence; raw form used by the heavier checks.

    Letters draw a unit edge, integers turn.  Returns the end position,
    end direction, and one (tail, dir, letter) triple per edge.
    """
    units = unit_coeffs(n)
    pos = start if start is not None else (0,) * phi(n)
    d = start_dir % n
    edges: list[tuple[tuple[int, ...], int, str]] = []
    for tok in tokens:
        if isinstance(tok, int):
            d = (d + tok) % n
        else:
            edges.append((pos, d, tok))
            pos = tuple(map(add, pos, units[d]))  # add_vec, inlined
    return pos, d, edges


REPEATS_EDGE = "repeats a directed edge"
REDRAWS_SEGMENT = "redraws a segment (opposite direction)"
STROKES_CROSS = "strokes cross at a vertex"


def _chord(in_d: int, out_d: int, n: int) -> tuple[int, int]:
    """The lanes, on the cycle of 4n around a vertex, of the stroke that
    arrives in direction in_d and leaves in direction out_d."""
    lanes = 4 * n
    return (4 * in_d + 2 * n - 1) % lanes, (4 * out_d + 1) % lanes


@lru_cache(maxsize=None)
def _crossing_table(n: int) -> tuple[int, ...]:
    """For each stroke in_d * n + out_d, the set of strokes that interleave
    with it around a vertex, as a bit mask: those with one end strictly
    inside its chord and the other end outside."""
    lanes = 4 * n
    chords = [_chord(i, o, n) for i in range(n) for o in range(n)]
    table = []
    for a1, a2 in chords:
        span = (a2 - a1) % lanes
        inside = [x != a1 and (x - a1) % lanes < span for x in range(lanes)]
        table.append(sum(1 << b for b, (b1, b2) in enumerate(chords) if inside[b1] != inside[b2]))
    return tuple(table)


class StrokeSet:
    """The edges of a walk drawn so far, for Dekking's self-avoidance rules
    (Dekking, "Recurrent sets", Adv. Math. 1982), grown and shrunk one edge
    at a time.

    ``push(tail, d, prev_d)`` adds the unit edge from ``tail`` in direction
    ``d``, entered from an edge in direction ``prev_d`` (None for the first
    edge of a walk).  It returns None, or the rule the edge breaks and
    leaves the set as it was: ``REPEATS_EDGE`` for a directed edge drawn
    before, ``REDRAWS_SEGMENT`` for a segment drawn before the other way
    round (allowed once per direction on double-edge grids), and
    ``STROKES_CROSS`` when the stroke through ``tail`` interleaves with an
    earlier stroke through the same vertex.  ``pop()`` undoes the last
    successful push.

    A stroke is a chord on a cycle of 4n lanes around its vertex, from the
    in-lane of the arriving edge to the out-lane of the leaving one, so
    that the two lanes of an anti-parallel edge pair stay distinct.
    ``chords`` holds, per vertex, the strokes through it as a bit mask, bit
    in_d * n + out_d for each, and ``_crossing_table`` which of them
    interleave.
    """

    def __init__(self, n: int, double: bool):
        self.n = n
        self.units = unit_coeffs(n)
        # the reverse of direction d is d + n/2; odd n has no reverse edges
        self.reverse = n // 2 if not double and n % 2 == 0 else None
        self.crossing = _crossing_table(n)
        self.edges: set[tuple[tuple[int, ...], int]] = set()
        self.chords: dict[tuple[int, ...], int] = {}
        self.pushed: list[tuple[tuple[int, ...], int, int]] = []

    def push(self, tail: tuple[int, ...], d: int, prev_d: int | None) -> str | None:
        edge = (tail, d)
        if edge in self.edges:
            return REPEATS_EDGE
        if self.reverse is not None and (
                add_vec(tail, self.units[d]), (d + self.reverse) % self.n) in self.edges:
            return REDRAWS_SEGMENT
        bit = 0
        if prev_d is not None:
            stroke = prev_d * self.n + d
            at = self.chords.get(tail, 0)
            if self.crossing[stroke] & at:
                return STROKES_CROSS
            # the bit is clear (else the edge would repeat), so pop clears it with ^
            bit = 1 << stroke
            self.chords[tail] = at | bit
        self.edges.add(edge)
        self.pushed.append((tail, d, bit))
        return None

    def pop(self) -> None:
        tail, d, bit = self.pushed.pop()
        self.edges.remove((tail, d))
        if bit:
            at = self.chords[tail] ^ bit
            if at:
                self.chords[tail] = at
            else:
                del self.chords[tail]


def normalize_turn(t: int, n: int) -> int:
    """Reduce a turn mod n into (-n/2, n/2]; U-turns come out as +n/2."""
    t %= n
    if 2 * t > n:
        t -= n
    return t


class Lattice:
    """The lattice spanned by two exact vectors g1 and g2 (``basis``), kept
    in echelon form.

    Euclid on the first column where a generator is non-zero leaves one
    basis row with a positive pivot there and the other row zero there; the
    second row's first non-zero entry, made positive, is the second pivot.
    ``reduce`` takes each pivot coordinate modulo its pivot, in order, so
    two points are congruent modulo the lattice iff their reductions are
    equal (Hermite normal form; Cohen, *A Course in Computational Algebraic
    Number Theory*, ch. 2).  Each row's coordinates on (g1, g2), carried
    through the same unimodular steps, are in ``transform``, so ``coords``
    reads a lattice point's coordinates off the quotients of its reduction.
    """

    def __init__(self, g1: Point, g2: Point):
        if g1.n != g2.n:
            raise ValueError("mixed turn resolutions")
        self.basis = g1, g2
        a, b = g1.coeffs, g2.coeffs
        ta, tb = (1, 0), (0, 1)  # a = ta[0]*g1 + ta[1]*g2, likewise b
        c1 = next((i for i, pair in enumerate(zip(a, b)) if any(pair)), None)
        if c1 is None:
            raise ValueError("lattice vectors are collinear")
        while b[c1]:
            q = a[c1] // b[c1]
            a, b = b, tuple(x - q * y for x, y in zip(a, b))
            ta, tb = tb, (ta[0] - q * tb[0], ta[1] - q * tb[1])
        c2 = next((i for i, y in enumerate(b) if y), None)
        if c2 is None:
            raise ValueError("lattice vectors are collinear")
        rows = [(c, row, t) if row[c] > 0 else (c, tuple(-x for x in row), (-t[0], -t[1]))
                for c, row, t in ((c1, a, ta), (c2, b, tb))]
        self.pivots = tuple((c, row) for c, row, _ in rows)
        self.transform = tuple(t for _, _, t in rows)

    def reduce(self, coeffs: tuple[int, ...]) -> tuple[int, ...]:
        """The canonical representative of coeffs modulo the lattice."""
        for c, row in self.pivots:
            q = coeffs[c] // row[c]
            if q:
                coeffs = tuple(x - q * y for x, y in zip(coeffs, row))
        return coeffs

    def coords(self, coeffs: tuple[int, ...]) -> tuple[int, int] | None:
        """The integers (x, y) with coeffs = x*g1 + y*g2, or None where
        coeffs is not in the lattice (its reduction is not zero)."""
        x = y = 0
        for (c, row), (tx, ty) in zip(self.pivots, self.transform):
            q = coeffs[c] // row[c]
            if q:
                coeffs = tuple(u - q * v for u, v in zip(coeffs, row))
                x, y = x + q * tx, y + q * ty
        return None if any(coeffs) else (x, y)
