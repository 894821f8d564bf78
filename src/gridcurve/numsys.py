"""Complex-base numeration systems over the Gaussian and Eisenstein integers.

The two rings are Z[zeta_n] for n = 4 (Gaussian, beta = i) and n = 6
(Eisenstein, beta = zeta_6 = exp(i*pi/3), beta^2 = beta - 1); a + b*beta
is the ``exactgeom.Point`` with coefficients (a, b).  A system is a radix
b and a digit set D in one ring; D is a complete residue system when its
members are pairwise incongruent mod b and |D| = norm(b).  Integer
expansion is greedy: pick the unique digit congruent to z, divide, repeat;
orbits may cycle instead of reaching 0, in which case the cycle is
reported as a value.

Both rings have the basis (1, beta), so the ideal b*Z[beta] is the rank-2
lattice b*Z + b*beta*Z (``NumerationSystem.ideal``).  Congruence mod b is
equality of reductions modulo that lattice (``Lattice.reduce``), so a
digit is chosen by looking up the reduction of z, and the quotient
(z - d) / b = x + y*beta is read off as the coordinates (x, y) of z - d
on (b, b*beta) (``Lattice.coords``).
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from typing import Iterable

from .exactgeom import Lattice, Point

GAUSSIAN = "gaussian"
EISENSTEIN = "eisenstein"
RING_TURNS = {GAUSSIAN: 4, EISENSTEIN: 6}


def parse_elem(text: str, ring: str) -> Point:
    """Parse 'a,b' as a + b*beta."""
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"expected 'a,b', got {text!r}")
    return Point(RING_TURNS[ring], (int(parts[0]), int(parts[1])))


def format_elem(z: Point) -> str:
    """'a+bi' (Gaussian) or 'a+bw' (Eisenstein)."""
    a, b = z.coeffs
    return f"{a}{b:+}{'i' if z.n == 4 else 'w'}"


def plot_elem(z: Point) -> complex:
    """a + b*beta in floating point, for drawing.  Unlike
    ``Point.to_complex``, i is exactly 1j, so points on the imaginary axis
    have a real part of exactly 0, not about 6e-17 * b."""
    a, b = z.coeffs
    return a + b * (1j if z.n == 4 else cmath.exp(1j * cmath.pi / 3))


@dataclass(frozen=True)
class NumerationSystem:
    radix: Point  # its ring is radix.n
    digits: tuple[Point, ...]

    @staticmethod
    def make(radix: Point, digits: Iterable[Point]):
        if radix.norm2_int() < 2:
            raise ValueError("norm of the radix must be >= 2")
        return NumerationSystem(radix, tuple(digits))

    def ideal(self) -> Lattice:
        """The multiples of the radix: the lattice spanned by radix and
        radix*beta."""
        return Lattice(self.radix, self.radix * Point(self.radix.n, (0, 1)))


@dataclass
class ResidueReport:
    ok: bool
    expected: int  # norm of the radix
    duplicates: list[tuple[Point, Point]]
    missing_count: int

    def __bool__(self) -> bool:
        return self.ok


def check_residue_system(ns: NumerationSystem) -> ResidueReport:
    """Digits pairwise incongruent mod the radix, |digits| = norm(radix)."""
    n = ns.radix.norm2_int()
    reduce = ns.ideal().reduce
    residues = [reduce(d.coeffs) for d in ns.digits]
    dup = []
    for i in range(len(ns.digits)):
        for j in range(i + 1, len(ns.digits)):
            if residues[i] == residues[j]:
                dup.append((ns.digits[i], ns.digits[j]))
    ok = not dup and len(ns.digits) == n
    return ResidueReport(ok, n, dup, max(0, n - len(ns.digits)) + len(dup))


@dataclass
class Expansion:
    digits: list[int]  # indices into ns.digits, least significant first
    cycle: list[Point] | None = None

    @property
    def terminated(self) -> bool:
        return self.cycle is None


# Bound on the states ``expand_integer`` visits before it gives up.
_MAX_STATES = 10**6


def expand_integer(ns: NumerationSystem, z: Point) -> Expansion:
    """Greedy expansion of z; a revisited state is returned as a cycle.
    The digit is the first one congruent to the current state."""
    ideal = ns.ideal()
    digit_of: dict[tuple, int] = {}
    for i, d in enumerate(ns.digits):
        digit_of.setdefault(ideal.reduce(d.coeffs), i)
    seen: dict[Point, int] = {}
    out: list[int] = []
    trail: list[Point] = []
    cur = z
    while not cur.is_zero():
        if cur in seen:
            return Expansion(out[: seen[cur]], trail[seen[cur]:])
        if len(seen) > _MAX_STATES:
            raise RuntimeError("expansion did not terminate or cycle in bounds")
        seen[cur] = len(out)
        trail.append(cur)
        i = digit_of.get(ideal.reduce(cur.coeffs))
        if i is None:
            raise ValueError(f"no digit congruent to {format_elem(cur)} "
                             f"mod {format_elem(ns.radix)}")
        out.append(i)
        cur = Point(cur.n, ideal.coords((cur - ns.digits[i]).coeffs))
    return Expansion(out)


def fundamental_region_points(ns: NumerationSystem, k: int) -> list[Point]:
    """All k-digit combinations sum d_i radix^i (duplicates removed)."""
    if k < 0:
        raise ValueError("depth must be >= 0")
    power = Point(ns.radix.n, (1, 0))
    acc = [Point.zero(ns.radix.n)]
    for _ in range(k):
        terms = [d * power for d in ns.digits]
        acc = list(dict.fromkeys(p + t for p in acc for t in terms))
        power = power * ns.radix
    return acc
