"""Ring arithmetic in Z[zeta_n] by a second route, shared by the tests.

Products are folded into the power basis with a table of zeta^j for j in
range(2n), each reduced by one step of the cyclotomic recurrence from the
one before, instead of reducing a product modulo the cyclotomic polynomial
as ``exactgeom.mul_vec`` does.  ``rotate_vec`` multiplies by one power of
zeta through that fold, so it checks ``exactgeom.rotations`` and the point
maps of ``search.TorusPatch.symmetries`` from outside.
"""

from functools import cache
from typing import Sequence

from gridcurve.exactgeom import cyclotomic, phi


@cache
def power_reps(n: int) -> tuple[tuple[int, ...], ...]:
    """zeta^j reduced to the power basis, for j in range(2n)."""
    deg = phi(n)
    top = cyclotomic(n)  # x^deg = -(top[0] + top[1] x + ...)
    reps: list[tuple[int, ...]] = []
    for j in range(2 * n):
        if j < deg:
            vec = [0] * deg
            vec[j] = 1
        else:
            prev = reps[j - 1]
            vec = [0] + list(prev[:-1])
            for i in range(deg):
                vec[i] -= prev[-1] * top[i]
        reps.append(tuple(vec))
    return tuple(reps)


def canonicalize(coeffs: Sequence[int], n: int) -> tuple[int, ...]:
    """Fold an integer vector over powers of zeta into the power basis."""
    deg = phi(n)
    reps = power_reps(n)
    out = [0] * deg
    for j, c in enumerate(coeffs):
        if j < deg:
            out[j] += c
        else:
            for i in range(deg):
                out[i] += c * reps[j % (2 * n)][i]
    return tuple(out)


def folded_product(a: Sequence[int], b: Sequence[int], n: int) -> tuple[int, ...]:
    """a * b: the convolution of the coefficients, folded by ``canonicalize``."""
    conv = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            conv[i + j] += x * y
    return canonicalize(conv, n)


def rotate_vec(a: Sequence[int], k: int, n: int) -> tuple[int, ...]:
    """a * zeta^k."""
    return folded_product(a, power_reps(n)[k % n], n)
