import cmath
import random

import pytest

from gridcurve.exactgeom import Lattice, Point, ring_div_exact
from gridcurve.numsys import (
    EISENSTEIN,
    GAUSSIAN,
    Expansion,
    NumerationSystem,
    check_residue_system,
    expand_integer,
    format_elem,
    fundamental_region_points,
    parse_elem,
    plot_elem,
)


def G(a, b):
    return Point(4, (a, b))


def E(a, b):
    return Point(6, (a, b))


def reconstruct(ns: NumerationSystem, digits: list[int]) -> Point:
    """Sum d_i * radix^i, exactly."""
    acc = Point.zero(ns.radix.n)
    power = Point(ns.radix.n, (1, 0))
    for i in digits:
        acc = acc + ns.digits[i] * power
        power = power * ns.radix
    return acc


def fundamental_region_count(ns: NumerationSystem, k: int) -> int:
    """Number of distinct depth-k points (|digits|^k iff digits are a CRS)."""
    return len(fundamental_region_points(ns, k))


# four worked systems
def builtin_systems() -> dict[str, NumerationSystem]:
    return {
        "radix3": NumerationSystem.make(
            G(3, 0),
            [G(0, 0), G(1, -1), G(-1, 1), G(0, 2), G(0, -2),
             G(1, 3), G(-1, -3), G(2, 2), G(-2, -2)],
        ),
        "radix-1+3w": NumerationSystem.make(
            E(-1, 3),
            [E(0, 0), E(0, 1), E(0, -1), E(-1, 1), E(1, -1), E(-2, 2), E(1, 1)],
        ),
        "radix-2": NumerationSystem.make(
            E(-2, 0), [E(0, 0), E(1, 0), E(0, 1), E(1, 1)]
        ),
        "radix-2+i": NumerationSystem.make(
            G(-2, 1),
            [G(0, 0), G(1, 0), G(-1, 0), G(1, -1), G(-1, 1)],
        ),
    }


def test_norms():
    assert G(3, 4).norm2_int() == 25
    assert E(-1, 3).norm2_int() == 7
    assert E(1, 1).norm2_int() == 3
    assert G(-2, 1).norm2_int() == 5


def test_arithmetic_against_complex():
    rng = random.Random(3)
    for elem in (G, E):
        for _ in range(200):
            x = elem(rng.randint(-9, 9), rng.randint(-9, 9))
            y = elem(rng.randint(-9, 9), rng.randint(-9, 9))
            assert abs(plot_elem(x * y) - plot_elem(x) * plot_elem(y)) < 1e-9
            assert abs(plot_elem(x + y) - plot_elem(x) - plot_elem(y)) < 1e-9
            assert abs(x.norm2_int() - abs(plot_elem(x)) ** 2) < 1e-9
            assert abs(plot_elem(x) - x.to_complex()) < 1e-9


def test_crs_radix3():
    ns = builtin_systems()["radix3"]
    rep = check_residue_system(ns)
    assert rep.ok and rep.expected == 9 and len(ns.digits) == 9


def test_crs_radix_eisenstein7():
    ns = builtin_systems()["radix-1+3w"]
    assert check_residue_system(ns).ok
    assert len(ns.digits) == 7 == ns.radix.norm2_int()
    # digit set includes 2*omega_3 = -2+2w and 1+omega_6
    assert E(-2, 2) in ns.digits and E(1, 1) in ns.digits


def test_crs_radix_minus2():
    ns = builtin_systems()["radix-2"]
    assert check_residue_system(ns).ok
    assert len(ns.digits) == 4 == ns.radix.norm2_int()


def test_non_crs_radix_minus2_plus_i():
    ns = builtin_systems()["radix-2+i"]
    rep = check_residue_system(ns)
    assert not rep.ok
    # the witnesses: 1 = -1+i and -1 = 1-i modulo -2+i
    pairs = {frozenset((a.coeffs, b.coeffs)) for a, b in rep.duplicates}
    assert frozenset(((1, 0), (-1, 1))) in pairs
    assert frozenset(((-1, 0), (1, -1))) in pairs


def test_expand_zero():
    ns = builtin_systems()["radix3"]
    assert expand_integer(ns, G(0, 0)).digits == []


def test_make_rejects_a_radix_of_norm_below_two():
    for radix in (G(0, 0), G(1, 0), G(0, -1), E(0, 1)):
        with pytest.raises(ValueError, match="norm of the radix"):
            NumerationSystem.make(radix, [])


def test_expand_raises_beyond_the_state_bound(monkeypatch):
    import gridcurve.numsys as numsys

    # the twindragon expansion of 3+2i visits four nonzero states
    ns = NumerationSystem.make(G(-1, 1), [G(0, 0), G(1, 0)])
    monkeypatch.setattr(numsys, "_MAX_STATES", 3)
    assert expand_integer(ns, G(3, 2)).digits == [1, 0, 0, 1]
    monkeypatch.setattr(numsys, "_MAX_STATES", 2)
    with pytest.raises(RuntimeError, match="did not terminate"):
        expand_integer(ns, G(3, 2))


def test_expand_restricted_negabinary():
    ns = NumerationSystem.make(E(-2, 0), [E(0, 0), E(1, 0)])
    ex = expand_integer(ns, E(-1, 0))
    assert ex.terminated and ex.digits == [1, 1]


def test_expand_spec_example():
    ns = builtin_systems()["radix-1+3w"]
    ex = expand_integer(ns, E(1, 0))
    assert ex.terminated
    assert [ns.digits[i] for i in ex.digits] == [E(-2, 2), E(0, -1)]
    # verify 1 = 2w3 + (-1+3w)(-w)
    assert reconstruct(ns, ex.digits) == E(1, 0)


def test_expand_cycle_is_value():
    ns = builtin_systems()["radix3"]
    ex = expand_integer(ns, G(-1, 0))
    assert not ex.terminated
    assert ex.cycle  # a genuine repeating state
    # partial digits plus the cycle entry reconstruct the input
    power = G(1, 0)
    for _ in ex.digits:
        power = power * ns.radix
    assert reconstruct(ns, ex.digits) + ex.cycle[0] * power == G(-1, 0)


@pytest.mark.parametrize("name", ["radix3", "radix-1+3w", "radix-2"])
def test_reconstruction_random(name):
    ns = builtin_systems()[name]
    rng = random.Random(hash(name) & 0xFFFF)
    for _ in range(1000):
        z = Point(ns.radix.n, (rng.randint(-50, 50), rng.randint(-50, 50)))
        ex = expand_integer(ns, z)
        if ex.terminated:
            assert reconstruct(ns, ex.digits) == z
        else:
            power = Point(ns.radix.n, (1, 0))
            for _ in ex.digits:
                power = power * ns.radix
            assert reconstruct(ns, ex.digits) + ex.cycle[0] * power == z


def test_region_depth1_is_digit_set():
    ns = builtin_systems()["radix-2"]
    pts = fundamental_region_points(ns, 1)
    assert set(pts) == set(ns.digits)


def test_region_counts_crs():
    ns = builtin_systems()["radix3"]
    assert fundamental_region_count(ns, 2) == 81


def test_region_collisions_non_crs():
    ns = builtin_systems()["radix-2+i"]
    assert fundamental_region_count(ns, 2) < 25


@pytest.mark.parametrize("name", ["radix3", "radix-1+3w", "radix-2", "radix-2+i"])
def test_crs_iff_injective(name):
    ns = builtin_systems()[name]
    crs = check_residue_system(ns).ok
    m = len(ns.digits)
    for k in (1, 2, 3, 4):
        distinct = fundamental_region_count(ns, k)
        if crs:
            assert distinct == m ** k
        elif k >= 2:
            assert distinct < m ** k


def quotient(z: Point, b: Point) -> Point | None:
    """z / b by the coordinates of z on the radix ideal's basis (b, b*beta),
    or None where b does not divide z."""
    xy = NumerationSystem(b, ()).ideal().coords(z.coeffs)
    return None if xy is None else Point(z.n, xy)


def test_ideal_coords_divide_exactly():
    assert quotient(G(1, 0), G(-2, 1)) is None
    assert quotient(G(5, 0), G(-2, 1)) == G(-2, -1)  # 5 = (-2+i)(-2-i)
    assert quotient(G(-7, 1), G(-2, 1)) == G(3, 1)


@pytest.mark.parametrize("name", ["radix3", "radix-1+3w", "radix-2", "radix-2+i"])
def test_ideal_congruence_agrees_with_ring_division(name):
    # z = w mod b iff b divides z - w in the ring, and then the quotient
    # read off the ideal is the ring quotient
    ns = builtin_systems()[name]
    n, b = ns.radix.n, ns.radix.coeffs
    ideal = ns.ideal()
    rng = random.Random(name)
    hits = 0
    for _ in range(400):
        z, w = (Point(n, (rng.randint(-30, 30), rng.randint(-30, 30))) for _ in range(2))
        if rng.random() < 0.3:  # a congruent pair, so both answers are seen
            w = z + ns.radix * Point(n, (rng.randint(-9, 9), rng.randint(-9, 9)))
        try:
            ring = Point(n, ring_div_exact((z - w).coeffs, b, n))
        except ArithmeticError:
            ring = None
        assert (ideal.reduce(z.coeffs) == ideal.reduce(w.coeffs)) == (ring is not None)
        assert quotient(z - w, ns.radix) == ring
        hits += ring is not None
    assert 100 < hits < 400


def test_expand_integer_reads_one_quotient_per_digit(monkeypatch):
    # each digit is looked up by the reduction of the state and the next
    # state read as one quotient off the radix ideal: no trial division by
    # every digit
    ns = builtin_systems()["radix3"]
    calls = []
    coords = Lattice.coords
    monkeypatch.setattr(Lattice, "coords", lambda self, w: (calls.append(w), coords(self, w))[1])
    ex = expand_integer(ns, G(40, -27))
    # one state per step: those before the cycle, then the cycle's own
    assert len(ex.digits) == 5 and ex.cycle == [G(0, -1)]
    assert len(calls) == len(ex.digits) + len(ex.cycle)


def test_parse_elem():
    assert parse_elem("-1,3", EISENSTEIN) == E(-1, 3)
    with pytest.raises(ValueError):
        parse_elem("1", GAUSSIAN)


def test_ideal_coords_eisenstein_and_by_zero():
    b = E(-1, 3)
    assert quotient(E(2, 5) * b, b) == E(2, 5)
    assert quotient(E(1, 0), b) is None
    # the multiples of zero span no lattice
    with pytest.raises(ValueError, match="collinear"):
        quotient(E(1, 0), E(0, 0))


def test_format_elem():
    assert format_elem(G(3, -2)) == "3-2i"
    assert format_elem(E(0, 1)) == "0+1w"
    assert format_elem(parse_elem("-1,0", GAUSSIAN)) == "-1+0i"


def test_plot_elem_is_exact_on_the_imaginary_axis():
    # Point.to_complex images i as exp(2*pi*i/4), whose real part is 6e-17:
    # a drawn point on the axis would print as -0.0000 after scaling
    assert G(0, -3).to_complex().real != 0.0
    for b in (-3, 2):
        assert plot_elem(G(0, b)).real == 0.0
    assert plot_elem(E(1, 1)) == 1 + cmath.exp(1j * cmath.pi / 3)
