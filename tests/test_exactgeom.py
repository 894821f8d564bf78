import cmath
import itertools
import json
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridcurve.exactgeom import (
    REPEATS_EDGE,
    STROKES_CROSS,
    Lattice,
    Point,
    StrokeSet,
    cyclotomic,
    embed_vec,
    galois_apply,
    mul_vec,
    normalize_turn,
    phi,
    ring_div_exact,
    rotations,
    trace_tokens,
    unit_coeffs,
)
from gridcurve import catalog
from gridcurve.words import parse_word
from ring_oracle import canonicalize, folded_product, power_reps, rotate_vec

NS = [3, 4, 6, 8, 12]


def test_cyclotomic_polynomials():
    assert cyclotomic(4) == (1, 0, 1)  # x^2 + 1
    assert cyclotomic(6) == (1, -1, 1)  # x^2 - x + 1
    assert cyclotomic(8) == (1, 0, 0, 0, 1)
    assert cyclotomic(12) == (1, 0, -1, 0, 1)
    assert phi(3) == 2 and phi(12) == 4


def unit(n: int, k: int) -> Point:
    return Point(n, unit_coeffs(n)[k])


def test_unit_examples():
    assert unit(4, 0).coeffs == (1, 0)
    assert unit(4, 2).coeffs == (-1, 0)
    # zeta_6^4 = -zeta_6; the float oracle pins the coefficients
    p = unit(6, 4)
    assert p.coeffs == (0, -1)
    assert abs(p.to_complex() - cmath.exp(2j * cmath.pi * 4 / 6)) < 1e-12


@pytest.mark.parametrize("n", NS)
def test_full_polygon_closes(n):
    s = Point.zero(n)
    for k in range(n):
        s = s + unit(n, k)
    assert s.is_zero()


def test_add_identities():
    p = unit(12, 5)
    assert (p + Point.zero(12)).coeffs == p.coeffs
    q = unit(12, 0) + unit(12, 6)
    assert q.is_zero()


def test_mixed_n_rejected():
    with pytest.raises(ValueError):
        Point.zero(4) + Point.zero(6)


def _elements(n: int, bound: int = 9):
    return st.tuples(*[st.integers(-bound, bound)] * phi(n))


@settings(max_examples=200)
@given(st.sampled_from(NS + [5, 10]), st.data())
def test_mul_vec_by_one_leaves_a_reduced_vector(n, data):
    # a product is already in the power basis, so multiplying it by 1
    # reduces nothing further (the reduction is idempotent)
    vec = data.draw(_elements(n))
    one = unit_coeffs(n)[0]
    assert mul_vec(vec, one, n) == mul_vec(one, vec, n) == vec
    prod = mul_vec(vec, data.draw(_elements(n)), n)
    assert mul_vec(prod, one, n) == prod


@settings(max_examples=200)
@given(st.sampled_from(NS + [5, 10]), st.data())
def test_mul_vec_matches_the_folded_convolution(n, data):
    # the oracle folds the convolution with a table of powers of zeta; both
    # keep the value of the complex product
    a, b = data.draw(_elements(n, 30)), data.draw(_elements(n, 30))
    prod = mul_vec(a, b, n)
    assert prod == folded_product(a, b, n)
    z_raw = embed_vec(a, n) * embed_vec(b, n)
    assert abs(z_raw - embed_vec(prod, n)) < 1e-9 * max(1.0, abs(z_raw))


@settings(max_examples=150)
@given(st.sampled_from(NS), st.lists(st.integers(-30, 30), min_size=1, max_size=24))
def test_canonicalize_oracle_preserves_value(n, vec):
    z_raw = sum(c * cmath.exp(2j * cmath.pi * j / n) for j, c in enumerate(vec))
    z_canon = embed_vec(canonicalize(tuple(vec), n), n)
    assert abs(z_raw - z_canon) < 1e-9 * max(1.0, abs(z_raw))


@pytest.mark.parametrize("n", NS + [5, 10])
def test_units_and_galois_match_the_power_table(n):
    reps = power_reps(n)
    assert unit_coeffs(n) == reps[:n]
    vec = tuple(range(1, phi(n) + 1))
    for k in range(1, n):
        if math.gcd(k, n) == 1:
            # zeta^j -> zeta^(jk) on each power, folded by the oracle
            raw = [0] * (n * len(vec))
            for j, c in enumerate(vec):
                raw[j * k] += c
            assert galois_apply(vec, k, n) == canonicalize(raw, n)


@settings(max_examples=100)
@given(st.sampled_from(NS + [5, 10]), st.data())
def test_rotations_match_rotate_vec(n, data):
    vec = tuple(data.draw(st.lists(st.integers(-9, 9), min_size=phi(n), max_size=phi(n))))
    assert rotations(vec, n) == tuple(rotate_vec(vec, k, n) for k in range(n))


def test_embedding_fidelity_bulk():
    rng = random.Random(1)
    for _ in range(10_000):
        n = rng.choice(NS)
        coeffs = tuple(rng.randint(-50, 50) for _ in range(phi(n)))
        direct = sum(
            c * complex(math.cos(2 * math.pi * j / n), math.sin(2 * math.pi * j / n))
            for j, c in enumerate(coeffs)
        )
        assert abs(Point(n, coeffs).to_complex() - direct) < 1e-9


def test_trace_terdragon():
    w = parse_word("F+F-F")
    end, d, edges = trace_tokens(w.tokens, 3)
    assert len(edges) == 3
    assert d == 0
    assert Point(3, end).norm2_int() == 3


def test_trace_empty():
    end, d, edges = trace_tokens((), 5)
    assert not any(end) and d == 0 and edges == []


def test_trace_dsquare_r4():
    w = parse_word("A+A!A+A", 4)
    end, d, edges = trace_tokens(w.tokens, 4)
    assert len(edges) == 4
    assert end == (2, 0)  # twice the unit in direction 0
    # edges 2 and 3 are anti-parallel on one segment
    (p2, d2, _), (p3, d3, _) = edges[1], edges[2]
    assert (d2 + 2) % 4 == d3
    from gridcurve.exactgeom import add_vec

    assert add_vec(p2, unit_coeffs(4)[d2]) == p3


def test_closed_walk_agrees_with_floats():
    rng = random.Random(7)
    for _ in range(300):
        n = rng.choice(NS)
        tokens = []
        for _ in range(rng.randint(1, 30)):
            tokens.append("F")
            tokens.append(rng.randint(-(n // 2), n // 2))
        end, _, _ = trace_tokens(tuple(tokens), n)
        z = embed_vec(end, n)
        assert (not any(end)) == (abs(z) < 1e-9)


def test_normalize_turn():
    assert normalize_turn(7, 12) == -5
    assert normalize_turn(-6, 12) == 6
    assert normalize_turn(6, 12) == 6
    assert normalize_turn(2, 4) == 2
    assert normalize_turn(-2, 4) == 2
    assert normalize_turn(0, 6) == 0


def test_norm2_values():
    lam = Point(12, (3, 0, 2, 0))  # 3 + 2*zeta12^2 = 4 + sqrt(3) i
    assert lam.norm2_int() == 19
    assert Point(12, (0, 1, 0, 0)).norm2_int() == 1
    assert Point(12, (1, 1, 0, 0)).norm2_int() is None  # 2 + sqrt(3)


def test_ring_division_exact():
    n = 12
    a = Point(n, (2, 1, -1, 3))
    b = Point(n, (1, 1, 0, -2))
    prod = (a * b).coeffs
    assert ring_div_exact(prod, b.coeffs, n) == a.coeffs
    with pytest.raises(ArithmeticError):
        ring_div_exact((1, 0, 0, 0), (2, 0, 0, 0), n)


def _in_lattice(d: tuple, g1: tuple, g2: tuple) -> bool:
    """Oracle for membership: solve d = a*g1 + b*g2 over the rationals."""
    for i, j in itertools.combinations(range(len(d)), 2):
        det = g1[i] * g2[j] - g1[j] * g2[i]
        if det:
            a = Fraction(d[i] * g2[j] - d[j] * g2[i], det)
            b = Fraction(g1[i] * d[j] - g1[j] * d[i], det)
            return (a.denominator == b.denominator == 1
                    and all(x == a * y + b * z for x, y, z in zip(d, g1, g2)))
    raise AssertionError("collinear generators")


def _generators(dim: int):
    vec = st.tuples(*[st.integers(-6, 6)] * dim)
    return st.tuples(vec, vec).filter(lambda g: any(
        g[0][i] * g[1][j] != g[0][j] * g[1][i]
        for i, j in itertools.combinations(range(dim), 2)))


def _check_reduction(n, gens, p, q, a, b):
    g1, g2 = gens
    lat = Lattice(Point(n, g1), Point(n, g2))
    shifted = tuple(x + a * y + b * z for x, y, z in zip(p, g1, g2))
    assert lat.reduce(shifted) == lat.reduce(p)
    assert _in_lattice(tuple(x - y for x, y in zip(lat.reduce(p), p)), g1, g2)
    diff = tuple(x - y for x, y in zip(p, q))
    assert (lat.reduce(p) == lat.reduce(q)) == _in_lattice(diff, g1, g2)


COEFF = st.integers(-40, 40)


@given(_generators(2), st.tuples(COEFF, COEFF), st.tuples(COEFF, COEFF),
       st.integers(-5, 5), st.integers(-5, 5))
@settings(max_examples=200, deadline=None)
def test_lattice_reduce_square(gens, p, q, a, b):
    _check_reduction(4, gens, p, q, a, b)


@given(_generators(4), st.tuples(*[COEFF] * 4), st.tuples(*[COEFF] * 4),
       st.integers(-5, 5), st.integers(-5, 5))
@settings(max_examples=200, deadline=None)
def test_lattice_reduce_rank2_in_z4(gens, p, q, a, b):
    # n = 12: the torus lattice has rank 2 inside Z^4, so most points lie
    # off the plane it spans and must still reduce consistently
    _check_reduction(12, gens, p, q, a, b)


@given(st.sampled_from([4, 12]), st.lists(st.integers(-6, 6), min_size=4, max_size=4),
       st.integers(-4, 4), st.integers(-4, 4))
def test_lattice_collinear_generators_raise(n, g, m1, m2):
    g = tuple(g[: phi(n)])
    with pytest.raises(ValueError, match="collinear"):
        Lattice(Point(n, tuple(m1 * x for x in g)), Point(n, tuple(m2 * x for x in g)))


def test_lattice_examples():
    lat = Lattice(Point(4, (1, 1)), Point(4, (1, -1)))
    assert lat.reduce((1, 0)) != lat.reduce((0, 0))
    assert lat.reduce((3, 1)) == lat.reduce((0, 0))
    assert lat.reduce((2, 5)) == lat.reduce((1, 0))
    with pytest.raises(ValueError, match="collinear"):
        Lattice(Point(4, (1, 1)), Point(4, (-2, -2)))
    with pytest.raises(ValueError, match="collinear"):
        Lattice(Point(12, (0, 2, 0, 4)), Point(12, (0, 0, 0, 0)))
    with pytest.raises(ValueError, match="collinear"):
        Lattice(Point(4, (0, 0)), Point(4, (0, 0)))
    with pytest.raises(ValueError, match="mixed"):
        Lattice(Point(4, (1, 0)), Point(6, (0, 1)))


COORDS_NS = [3, 4, 5, 6, 8, 10, 12]


@st.composite
def _lattice_and_point(draw):
    n = draw(st.sampled_from(COORDS_NS))
    g1, g2 = draw(_generators(phi(n)))
    return n, g1, g2, draw(st.tuples(*[COEFF] * phi(n)))


@given(_lattice_and_point(), st.integers(-50, 50), st.integers(-50, 50))
@settings(max_examples=300, deadline=None)
def test_lattice_coords_inverts_the_basis(case, x, y):
    n, g1, g2, p = case
    lat = Lattice(Point(n, g1), Point(n, g2))
    assert lat.basis == (Point(n, g1), Point(n, g2))
    assert lat.coords(tuple(x * a + y * b for a, b in zip(g1, g2))) == (x, y)
    # off the lattice exactly where the reduction is not zero, and the
    # coordinates of a point on it rebuild the point
    xy = lat.coords(p)
    assert (xy is None) == any(lat.reduce(p)) == (not _in_lattice(p, g1, g2))
    if xy is not None:
        assert tuple(xy[0] * a + xy[1] * b for a, b in zip(g1, g2)) == p


def test_lattice_coords_degenerate_inputs():
    lat = Lattice(Point(12, (0, 2, 0, 4)), Point(12, (1, 0, 0, 0)))
    assert lat.coords((0, 0, 0, 0)) == (0, 0)
    assert lat.coords((0, 1, 0, 2)) is None  # half a generator
    assert lat.coords((0, 0, 1, 0)) is None  # off the plane the lattice spans
    assert lat.coords((3, -4, 0, -8)) == (-2, 3)
    # a basis that Euclid swaps and negates
    lat = Lattice(Point(4, (-2, 0)), Point(4, (-5, 1)))
    assert lat.coords((-2, 0)) == (1, 0) and lat.coords((-5, 1)) == (0, 1)
    assert lat.coords((1, 0)) is None


def push_walk(strokes: StrokeSet, edges, prev_d=None) -> list:
    """Push every edge of a walk, each entered from the edge before it; a
    rejected push leaves the set as it was."""
    verdicts = []
    for tail, d, _ in edges:
        verdicts.append(strokes.push(tail, d, prev_d))
        prev_d = d
    return verdicts


def test_stroke_set_pop_undoes_push():
    doc = json.loads(Path(__file__).with_name("self_avoid.json").read_text())
    grids = {}
    for case in doc["cases"]:
        grid = grids.setdefault(case["grid"], catalog.grid(case["grid"]))
        if any(tok not in grid.letters for tok in case["tokens"] if isinstance(tok, str)):
            continue
        _, _, edges = trace_tokens(case["tokens"], grid.n)
        strokes = StrokeSet(grid.n, grid.double)
        verdicts = push_walk(strokes, edges)
        pushed = verdicts.count(None)
        assert len(strokes.pushed) == pushed
        # pop the later half, push it again: the same verdicts
        half = len(edges) // 2
        for _ in range(verdicts[half:].count(None)):
            strokes.pop()
        prev_d = edges[half - 1][1] if half else None
        assert push_walk(strokes, edges[half:], prev_d) == verdicts[half:]
        for _ in range(pushed):
            strokes.pop()
        assert not (strokes.pushed or strokes.edges or strokes.chords), case
        assert push_walk(strokes, edges) == verdicts, case


def test_stroke_set_rules():
    strokes = StrokeSet(4, double=False)
    assert strokes.push((0, 0), 0, None) is None
    assert strokes.push((0, 0), 0, None) == REPEATS_EDGE
    # the square grid has one direction per segment; the double one two
    assert strokes.push((1, 0), 2, 0) == "redraws a segment (opposite direction)"
    double = StrokeSet(4, double=True)
    assert double.push((0, 0), 0, None) is None
    assert double.push((1, 0), 2, 0) is None
    # through the origin north to south, then west to east: the strokes cross
    cross = StrokeSet(4, double=False)
    assert cross.push((0, 1), 3, None) is None
    assert cross.push((0, 0), 3, 3) is None
    assert cross.push((-1, 0), 0, None) is None
    assert cross.push((0, 0), 0, 0) == STROKES_CROSS
