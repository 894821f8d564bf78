"""Everything checkable about a curve-set.

Hard checks: grid consistency of the productions, self-avoidance of all
iterates (first iterates of all transitions suffice), and edge coverage at
desk scale.  Scale consistency (one exact displacement shared by all
non-constant letters, squared length equal to the order) is required for
the verdict Valid; curve-sets that fail only that are degraded to
ValidWithCaveats since families with unequal per-letter displacements or
uneven growth can still cover every edge.  Interior-filled tiles and
matrix irreducibility are diagnostics, never verdicts: both tile criteria
have counterexamples and are encoded as such in the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .exactgeom import (
    Point,
    add_vec,
    normalize_turn,
    phi,
    rotate_vec,
    sub_vec,
    trace_tokens,
    unit_coeffs,
)
from .gridmodel import (
    LEFT,
    RIGHT,
    EdgeKey,
    GridSpec,
    Prototile,
    prototiles,
    realize,
)
from .lsystem import (
    CurveSet,
    SubstMatrix,
    UnequalRowSums,
    expand,
    is_irreducible,
    order,
    subst_matrix,
)
from .words import Word


# -- self-avoidance ----------------------------------------------------


@dataclass
class SelfAvoidReport:
    ok: bool
    violation: str | None = None

    def __bool__(self) -> bool:
        return self.ok


def _chords_cross(a: tuple[int, int], b: tuple[int, int], m: int) -> bool:
    """Strict interleaving of two chords on the cycle Z_m."""
    a1, a2 = a
    b1, b2 = b

    def inside(x: int) -> bool:
        return (x - a1) % m < (a2 - a1) % m and x != a1

    i1, i2 = inside(b1), inside(b2)
    return i1 != i2


def check_self_avoiding(
    word: Word, grid: GridSpec | None, n: int | None = None, closed: bool = False
) -> SelfAvoidReport:
    """No repeated directed edge, no doubly drawn segment (one traversal per
    direction allowed on double-edge grids), no two visits of a vertex whose
    stroke chords interleave around it.

    Chords live on a refined cycle of 4n spoke positions so that the two
    lanes of an anti-parallel edge pair stay distinct.
    """
    if grid is not None:
        n = grid.n
        double = grid.double
        for L in word.letters():
            if L not in grid.letters:
                return SelfAvoidReport(False, f"letter {L!r} outside grid alphabet")
        for t in word.turns():
            if abs(normalize_turn(t, n)) * 2 > n and normalize_turn(t, n) != n // 2:
                return SelfAvoidReport(False, f"turn {t} outside grid range")
    else:
        if n is None:
            raise ValueError("need a grid or a turn resolution")
        double = True
    _, _, edges = trace_tokens(word.tokens, n)
    if not edges:
        return SelfAvoidReport(True)
    seen: set[EdgeKey] = set()
    segments: dict[tuple, int] = {}
    chords: dict[tuple, list[tuple[int, int]]] = {}
    units = unit_coeffs(n)
    m = 4 * n
    half_open: dict[tuple, int] = {}

    def seg_key(tail: tuple, d: int) -> tuple[tuple, int]:
        head = add_vec(tail, units[d])
        if tail <= head:
            return (tail, head), +1
        return (head, tail), -1

    for i, (tail, d, letter) in enumerate(edges):
        ek = (tail, d)
        if ek in seen:
            return SelfAvoidReport(False, f"edge {i} repeats a directed edge")
        seen.add(ek)
        key, orient = seg_key(tail, d)
        prev = segments.get(key)
        if prev is not None:
            if prev == orient or not double:
                which = "same direction" if prev == orient else "opposite direction"
                return SelfAvoidReport(False, f"edge {i} redraws a segment ({which})")
            segments[key] = 2  # both directions used up
            if orient == 2:
                return SelfAvoidReport(False, f"edge {i} redraws a segment (third pass)")
        else:
            segments[key] = orient
        # chord bookkeeping at the tail vertex: out-lane of this edge plus
        # in-lane of the previous edge when the walk passes through tail
        out_pos = (4 * d + 1) % m
        if i > 0:
            ptail, pd, _ = edges[i - 1]
            in_pos = (4 * pd + 2 * n - 1) % m
            chord = (in_pos, out_pos)
            at = chords.setdefault(tail, [])
            for other in at:
                if _chords_cross(chord, other, m):
                    return SelfAvoidReport(
                        False, f"strokes cross at a vertex before edge {i}"
                    )
            at.append(chord)
        else:
            half_open[tail] = out_pos
    if closed:
        last_tail, last_d, _ = edges[-1]
        endpoint = add_vec(last_tail, units[last_d])
        first_tail, first_d, _ = edges[0]
        if endpoint != first_tail:
            return SelfAvoidReport(False, "closed word does not return to start")
        chord = ((4 * last_d + 2 * n - 1) % m, (4 * first_d + 1) % m)
        at = chords.setdefault(endpoint, [])
        for other in at:
            if _chords_cross(chord, other, m):
                return SelfAvoidReport(False, "strokes cross at the base vertex")
        at.append(chord)
    return SelfAvoidReport(True)


# -- grid consistency ---------------------------------------------------


def check_grid_consistent(cs: CurveSet) -> tuple[bool, list[str]]:
    """Productions chain along grid transitions, and every transition's
    junction expands to a transition again."""
    grid = cs.grid
    if grid is None:
        return True, ["no grid: consistency not applicable"]
    problems = []
    for letter, w in cs.productions:
        if not w.nletters():
            problems.append(f"production of {letter} draws nothing")
            continue
        for a, t, b in w.pairs():
            if not grid.has_transition(a, t, b):
                problems.append(f"production of {letter} uses missing transition {a}{t:+d}{b}")
    for tr in grid.transitions:
        pa = cs.production(tr.src)
        pb = cs.production(tr.dst)
        last = pa.letters()[-1] if pa.nletters() else None
        first = pb.letters()[0] if pb.nletters() else None
        if last is None or first is None:
            continue
        if not grid.has_transition(last, tr.turn, first):
            problems.append(
                f"junction of {tr} expands to missing transition {last}{tr.turn:+d}{first}"
            )
    return not problems, problems


# -- Dekking-style criteria ----------------------------------------------


def check_dekking1(cs: CurveSet, form: str = "transitions") -> tuple[bool, str | None]:
    """Self-avoidance of the first iterates of all prototiles (or of all
    transitions; the two forms are equivalent)."""
    grid = cs.grid
    if grid is None:
        raise ValueError("needs a grid")
    if form == "transitions":
        for tr in grid.transitions:
            w = cs.production(tr.src).concat(tr.turn, cs.production(tr.dst))
            rep = check_self_avoiding(w, grid)
            if not rep.ok:
                return False, f"transition {tr}: {rep.violation}"
        return True, None
    if form == "prototiles":
        for tile in prototiles(grid):
            w = expand(cs, tile.boundary_word(), 1)
            rep = check_self_avoiding(w, grid, closed=True)
            if not rep.ok:
                return False, f"tile {tile}: {rep.violation}"
        return True, None
    raise ValueError(f"unknown form {form!r}")


def _grid_letters(grid: GridSpec, tokens: tuple, edges: list) -> dict[EdgeKey, str]:
    """The grid's letters on the traced edges of an iterate of a face
    boundary anchored at the origin.  They are carried along the
    transitions from the boundary's last edge, which arrives at the origin;
    the curve's own letters need not match them."""
    n = grid.n
    out: dict[EdgeKey, str] = {}
    letter, dirk = tokens[-2], -tokens[-1] % n
    for p, d, _ in edges:
        letter = grid.forward.get((letter, normalize_turn(d - dirk, n)))
        if letter is None:
            raise ValueError("tile boundary iterate leaves the grid")
        out[(p, d)] = letter
        dirk = d
    return out


def check_interior_filled(cs: CurveSet, tile: Prototile, k: int = 1) -> bool:
    """Expand the tile boundary k times and flood the faces it encloses:
    every directed edge with interior faces on both sides must be traversed.

    The boundary is anchored at the origin with its first edge in direction
    0; every edge of one letter sees the same grid around it, so this copy
    stands for every occurrence of the tile.  Face instances are walked from
    the face table on demand, starting on both sides of every curve edge,
    and a component of faces joined across non-curve edges is flooded
    until it is known to lie outside the curve.  It lies outside when one
    of its faces does not close or reaches a vertex farther from the origin
    than every curve vertex: the curve, and all it encloses, lies in that
    disc.  A component that stays inside and crosses a non-curve edge holds
    an edge that the curve leaves undrawn, and the answer is False.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    grid = cs.grid
    if grid is None:
        raise ValueError("needs a grid")
    n = grid.n
    tokens = tile.boundary_word().tokens
    table = grid.face_table
    if all(table.word.get((tokens[0], side)) != tokens for side in (LEFT, RIGHT)):
        raise ValueError(f"tile {tile} is not a face of the grid")
    origin = (0,) * phi(n)
    w = expand(cs, Word(tokens), k)
    end, _, edges = trace_tokens(w.tokens, n, origin, 0)
    if end != origin:
        raise ValueError("tile boundary iterate does not close (scale inconsistency)")
    curve = _grid_letters(grid, tokens, edges)
    radius = max(abs(Point(n, p).to_complex()) for p, _, _ in edges) + 1e-9
    norms: dict[tuple, float] = {}

    def beyond(pos: tuple) -> bool:
        r = norms.get(pos)
        if r is None:
            r = norms[pos] = abs(Point(n, pos).to_complex())
        return r > radius

    outside: set[tuple[EdgeKey, str]] = set()  # (edge, side) of outer faces
    visited: set[tuple[EdgeKey, str]] = set()
    other = {LEFT: RIGHT, RIGHT: LEFT}
    for start, start_letter in curve.items():
        for start_side in (LEFT, RIGHT):
            if (start, start_side) in visited:
                continue
            component: set[tuple[EdgeKey, str]] = set()
            todo = [(start, start_letter, start_side)]
            crossed = is_outside = False
            while todo and not is_outside:
                e, letter, side = todo.pop()
                if (e, side) in component:
                    continue
                if (e, side) in outside:
                    is_outside = True
                    break
                cycle = grid.face_cycle(e, letter, side)
                if cycle is None:
                    is_outside = True
                    break
                for e2, letter2 in cycle:
                    component.add((e2, side))
                    if beyond(e2[0]):
                        is_outside = True
                    if e2 not in curve:
                        crossed = True
                        todo.append((e2, letter2, other[side]))
            visited |= component
            if is_outside:
                outside |= component
            elif crossed:
                return False
    return True


# -- coverage ------------------------------------------------------------


@dataclass
class CoverageDiagnostic:
    k: int
    r: float
    missing: int
    total: int
    aspects: dict[str, list[float]]
    rising_aspect: bool
    missing_sample: list[EdgeKey] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.missing == 0


class _LazyExpander:
    """Expansion of anchored words down to single edges, pruning whole
    subtrees that cannot reach the disc of interest.

    Per-level displacement of every letter is exact; the reach bound is a
    float over-approximation, so pruning never changes the answer.
    """

    def __init__(self, cs: CurveSet, k: int, r: float):
        self.cs = cs
        self.n = cs.n
        self.k = k
        self.r = r
        self.units = unit_coeffs(self.n)
        letters = cs.letters
        zero = (0,) * phi(self.n)
        # delta[lv][X]: exact displacement of the lv-th iterate of X
        self.delta: list[dict[str, tuple]] = [
            {X: self.units[0] for X in letters}
        ]
        self.reach: list[dict[str, float]] = [{X: 1.0 for X in letters}]
        for lv in range(1, k + 1):
            d_prev = self.delta[lv - 1]
            r_prev = self.reach[lv - 1]
            d_cur: dict[str, tuple] = {}
            r_cur: dict[str, float] = {}
            for X in letters:
                pos = zero
                dirk = 0
                worst = 0.0
                for tok in cs.production(X).tokens:
                    if isinstance(tok, int):
                        dirk = (dirk + tok) % self.n
                    else:
                        worst = max(
                            worst,
                            abs(Point(self.n, pos).to_complex()) + r_prev[tok],
                        )
                        pos = add_vec(pos, rotate_vec(d_prev[tok], dirk, self.n))
                d_cur[X] = pos
                r_cur[X] = worst
            self.delta.append(d_cur)
            self.reach.append(r_cur)
        self.covered: set[EdgeKey] = set()

    def run(self, word: Word, anchor: tuple, dirk: int) -> None:
        pos = anchor
        for tok in word.tokens:
            if isinstance(tok, int):
                dirk = (dirk + tok) % self.n
            else:
                self._descend(tok, self.k, pos, dirk)
                pos = add_vec(pos, rotate_vec(self.delta[self.k][tok], dirk, self.n))

    def _descend(self, letter: str, lv: int, pos: tuple, dirk: int) -> None:
        if abs(Point(self.n, pos).to_complex()) > self.r + self.reach[lv][letter] + 1.0:
            return
        if lv == 0:
            self.covered.add((pos, dirk))
            return
        d_prev = self.delta[lv - 1]
        for tok in self.cs.production(letter).tokens:
            if isinstance(tok, int):
                dirk = (dirk + tok) % self.n
            else:
                self._descend(tok, lv - 1, pos, dirk)
                pos = add_vec(pos, rotate_vec(d_prev[tok], dirk, self.n))


def _support_aspects(cs: CurveSet, kmax: int) -> dict[str, list[float]]:
    """Bounding-box aspect ratio of each letter's iterates, via support
    values over the grid's direction fan (no expansion needed)."""
    n = cs.n
    if 360 % n:
        return {X: [1.0] * kmax for X in cs.letters}
    letters = cs.letters
    g = math.gcd(90, 360 // n)
    angles = [math.radians(a) for a in range(0, 360, g)]
    na = len(angles)
    rot_step = (360 // n) // g
    # level 0 is a single edge from the origin in direction 0, so the
    # support in direction a is max(0, cos a)
    prev = {X: [max(0.0, math.cos(a)) for a in angles] for X in letters}
    out: dict[str, list[float]] = {X: [] for X in letters}
    for lv in range(1, kmax + 1):
        delta_prev = _level_delta(cs, lv - 1)
        cur: dict[str, list[float]] = {}
        for X in letters:
            prefixes: list[tuple[complex, str, int]] = []
            pos = (0,) * phi(n)
            dirk = 0
            for tok in cs.production(X).tokens:
                if isinstance(tok, int):
                    dirk = (dirk + tok) % n
                else:
                    prefixes.append((Point(n, pos).to_complex(), tok, dirk))
                    pos = add_vec(pos, rotate_vec(delta_prev[tok], dirk, n))
            vals = []
            for ai, a in enumerate(angles):
                ca, sa = math.cos(a), math.sin(a)
                best = 0.0
                for base, tok, dirk in prefixes:
                    ai2 = (ai - dirk * rot_step) % na
                    best = max(best, base.real * ca + base.imag * sa + prev[tok][ai2])
                vals.append(best)
            cur[X] = vals
        prev = cur
        for X in letters:
            sup = lambda deg: cur[X][(deg // g) % na]
            w = sup(0) + sup(180)
            h = sup(90) + sup(270)
            lo, hi = min(w, h), max(w, h)
            out[X].append(hi / lo if lo > 1e-9 else float("inf"))
    return out


_DELTA_CACHE: dict[CurveSet, list[dict[str, tuple]]] = {}


def _level_delta(cs: CurveSet, lv: int) -> dict[str, tuple]:
    table = _DELTA_CACHE.setdefault(cs, [])
    if not table:
        table.append({X: unit_coeffs(cs.n)[0] for X in cs.letters})
    while len(table) <= lv:
        prev = table[-1]
        cur = {}
        n = cs.n
        for X in cs.letters:
            pos = (0,) * phi(n)
            dirk = 0
            for tok in cs.production(X).tokens:
                if isinstance(tok, int):
                    dirk = (dirk + tok) % n
                else:
                    pos = add_vec(pos, rotate_vec(prev[tok], dirk, n))
            cur[X] = pos
        table.append(cur)
    return table[lv]


def check_coverage(cs: CurveSet, k: int = 3, r: float = 3.0) -> CoverageDiagnostic:
    """Expand the faces around the seed vertex k times; report grid edges
    within distance r of the seed that no iterate covers."""
    grid = cs.grid
    if grid is None:
        raise ValueError("needs a grid")
    n = grid.n
    patch = realize(grid, int(math.ceil((r + 1) * 2.2)) + 4)
    origin = (0,) * phi(n)
    target = [
        e
        for e in patch.edges
        if abs(Point(n, e[0]).to_complex() + _unit_complex(n, e[1]) / 2) <= r
    ]
    faces: dict[frozenset, tuple[list, tuple]] = {}
    for e in patch.out_at.get(origin, ()):
        letter = patch.edges[e]
        for side in (LEFT, RIGHT):
            cycle = grid.face_cycle(e, letter, side)
            if cycle is not None:
                tokens = grid.face_table.word[(letter, side)]
                faces.setdefault(frozenset(e2 for e2, _ in cycle), (cycle, tokens))
    expander = _LazyExpander(cs, k, r)
    for cycle, tokens in faces.values():
        # anchor the boundary at every edge of the cycle: each anchored
        # iterate grows from a different corner, so corner artifacts of one
        # anchoring are interior to another
        for idx, ((tail, dirk), _) in enumerate(cycle):
            rotated = tokens[2 * idx :] + tokens[: 2 * idx]
            expander.run(Word(rotated), tail, dirk)
    missing = [e for e in target if e not in expander.covered]
    kasp = max(k, 8)
    aspects = _support_aspects(cs, kasp)
    rising = False
    for series in aspects.values():
        # bounded shapes oscillate below their early maximum; unbounded
        # growth keeps setting new highs by a clear margin
        if len(series) >= 3:
            a, b, c = max(series[:-2]), series[-2], series[-1]
            if b > 1.1 * a and c > 1.1 * max(a, b):
                rising = True
        if len(series) >= 2 and series[-1] == float("inf") == series[-2]:
            rising = True
    return CoverageDiagnostic(
        k, r, len(missing), len(target), aspects, rising, missing[:8]
    )


def _unit_complex(n: int, k: int) -> complex:
    return Point(n, unit_coeffs(n)[k]).to_complex()


# -- scale analysis -------------------------------------------------------


@dataclass
class ScaleAnalysis:
    common_turn: bool
    common_lambda: Point | None
    lambda_norm: int | None
    strong: bool
    eigen: Point | None = None
    eigen_period: int = 1
    eigen_ok: bool = False


def scale_analysis(cs: CurveSet, expected_order: int | None = None) -> ScaleAnalysis:
    """Strong form: all non-constant displacements equal, |lambda|^2 = order.

    Fallback diagnostic for families with per-letter displacements: the
    exact displacement substitution has an eigenvalue of squared modulus
    order^p over its turn period p (verified in exact arithmetic).
    """
    n = cs.n
    try:
        r = order(cs) if expected_order is None else expected_order
    except UnequalRowSums:
        return ScaleAnalysis(False, None, None, False)
    noncon = [X for X in cs.letters if X not in cs.constants]
    if not noncon:
        return ScaleAnalysis(True, None, None, True)
    taus = {cs.production(X).net_turn() % n for X in noncon}
    common_turn = len(taus) == 1
    lams = {X: cs.displacement(X) for X in noncon}
    vals = {lam.coeffs for lam in lams.values()}
    common = None
    norm = None
    strong = False
    if len(vals) == 1:
        common = next(iter(lams.values()))
        norm = common.norm2_int()
        strong = common_turn and norm == r and taus == {0}
    analysis = ScaleAnalysis(common_turn, common, norm, strong)
    if not strong:
        _eigen_analysis(cs, r, analysis)
    return analysis


def _eigen_analysis(cs: CurveSet, r: int, out: ScaleAnalysis) -> None:
    import cmath

    n = cs.n
    letters = cs.letters
    L = len(letters)
    # per-level net turns mod n
    tau = {X: cs.production(X).net_turn() % n for X in letters}
    seen = [dict(tau)]
    for _ in range(4 * n):
        nxt = {}
        for X in letters:
            s = sum(tau[Y] for Y in cs.production(X).letters())
            nxt[X] = (s + cs.production(X).net_turn()) % n
        tau = nxt
        if tau in seen:
            k0 = seen.index(tau)
            period = len(seen) - k0
            break
        seen.append(dict(tau))
    else:
        return

    def level_matrix(tv: dict[str, int]) -> list[list[tuple]]:
        zerov = (0,) * phi(n)
        mat = [[zerov for _ in letters] for _ in letters]
        for xi, X in enumerate(letters):
            pre = 0
            for tok in cs.production(X).tokens:
                if isinstance(tok, int):
                    pre = (pre + tok) % n
                else:
                    yi = letters.index(tok)
                    mat[xi][yi] = add_vec(mat[xi][yi], unit_coeffs(n)[(pre) % n])
                    pre = (pre + tv[tok]) % n
        return mat

    def mat_mul(a, b):
        from .exactgeom import mul_vec

        zerov = (0,) * phi(n)
        out_m = [[zerov for _ in letters] for _ in letters]
        for i in range(L):
            for j in range(L):
                acc = zerov
                for t in range(L):
                    if any(a[i][t]) and any(b[t][j]):
                        acc = add_vec(acc, mul_vec(a[i][t], b[t][j], n))
                out_m[i][j] = acc
        return out_m

    prod_mat = None
    tv = seen[k0]
    cur_tv = dict(tv)
    for _ in range(period):
        m_lv = level_matrix(cur_tv)
        prod_mat = m_lv if prod_mat is None else mat_mul(m_lv, prod_mat)
        nxt = {}
        for X in letters:
            s = sum(cur_tv[Y] for Y in cs.production(X).letters())
            nxt[X] = (s + cs.production(X).net_turn()) % n
        cur_tv = nxt

    # numeric dominant eigenvalue, then exact verification
    cm = [
        [Point(n, prod_mat[i][j]).to_complex() for j in range(L)]
        for i in range(L)
    ]
    v = [complex(1, 0.1 * (i + 1)) for i in range(L)]
    for _ in range(2000):
        w = [sum(cm[i][j] * v[j] for j in range(L)) for i in range(L)]
        norm = max(abs(x) for x in w)
        if norm == 0:
            return
        v = [x / norm for x in w]
    lam_num = sum(
        (sum(cm[i][j] * v[j] for j in range(L))) * v[i].conjugate() for i in range(L)
    ) / sum(v[i] * v[i].conjugate() for i in range(L))
    target = r ** period
    for cand in _ring_elements_near(lam_num, target, n):
        if cand.norm2_int() == target and _det_is_zero(prod_mat, cand, n):
            out.eigen = cand
            out.eigen_period = period
            out.eigen_ok = True
            return


def _ring_elements_near(z: complex, norm_target: int, n: int) -> list[Point]:
    """Ring elements within floating tolerance of z, coefficients bounded by
    the norm target.  Empty when the search box would be unreasonable."""
    deg = phi(n)
    bound = int(math.isqrt(norm_target)) * 2 + 1
    if (2 * bound + 1) ** deg > 2_000_000:
        return []
    from .exactgeom import _embed_basis

    basis = _embed_basis(n)
    out = []
    rng = range(-bound, bound + 1)

    def rec(i: int, acc: complex, coeffs: tuple):
        if abs(acc - z) <= (deg - i) * bound * 1.05 + 1e-6:
            if i == deg:
                if abs(acc - z) <= 1e-6 * max(1.0, abs(z)):
                    out.append(Point(n, coeffs))
                return
            for c in rng:
                rec(i + 1, acc + c * basis[i], coeffs + (c,))

    rec(0, 0j, ())
    return out


def _det_is_zero(mat: list[list[tuple]], lam: Point, n: int) -> bool:
    from .exactgeom import mul_vec

    L = len(mat)
    work = [[Point(n, mat[i][j]) for j in range(L)] for i in range(L)]
    for i in range(L):
        work[i][i] = work[i][i] - lam
    # fraction-free Gaussian elimination (Bareiss) over the ring
    prev = Point(n, unit_coeffs(n)[0])
    for col in range(L - 1):
        piv = None
        for r_ in range(col, L):
            if not work[r_][col].is_zero():
                piv = r_
                break
        if piv is None:
            return True
        if piv != col:
            work[col], work[piv] = work[piv], work[col]
        for r_ in range(col + 1, L):
            for c_ in range(col + 1, L):
                num = work[r_][c_] * work[col][col] - work[r_][col] * work[col][c_]
                work[r_][c_] = _ring_div(num, prev)
            work[r_][col] = Point.zero(n)
        prev = work[col][col]
    return work[L - 1][L - 1].is_zero()


def _ring_div(num: Point, den: Point) -> Point:
    """Exact division in the ring; den is a previous Bareiss pivot so the
    quotient exists."""
    if den.coeffs == unit_coeffs(den.n)[0]:
        return num
    from .exactgeom import ring_div_exact

    return Point(num.n, ring_div_exact(num.coeffs, den.coeffs, num.n))


# -- aggregation -----------------------------------------------------------


VALID = "Valid"
VALID_WITH_CAVEATS = "ValidWithCaveats"
INVALID = "Invalid"


@dataclass
class ValidationReport:
    name: str
    grid_consistent: bool | None
    self_avoiding: bool | None
    scale_consistent: bool
    scale: ScaleAnalysis | None
    order: int | None
    row_sums: dict[str, int] | None
    interior_filled: dict[str, bool] | None
    irreducible: bool
    constants: list[str]
    coverage: CoverageDiagnostic | None
    verdict: str
    reasons: list[str]

    def to_text(self) -> str:
        lines = [f"curveset: {self.name}"]
        na = lambda v: "N/A" if v is None else ("yes" if v else "no")
        lines.append(f"gridConsistent: {na(self.grid_consistent)}")
        lines.append(f"selfAvoiding: {na(self.self_avoiding)}")
        lines.append(f"scaleConsistent: {'yes' if self.scale_consistent else 'no'}")
        lines.append(f"order: {self.order if self.order is not None else 'undefined'}")
        if self.row_sums and self.order is None:
            lines.append(f"rowSums: {self.row_sums}")
        lines.append(f"irreducible: {'yes' if self.irreducible else 'no'}")
        lines.append(f"constants: {''.join(self.constants) or '-'}")
        if self.interior_filled is not None:
            filled = ", ".join(f"{t}={'yes' if v else 'no'}" for t, v in self.interior_filled.items())
            lines.append(f"interiorFilled: {filled}")
        if self.coverage is not None:
            c = self.coverage
            lines.append(
                f"coverage: k={c.k} r={c.r} missing={c.missing}/{c.total}"
                f" risingAspect={'yes' if c.rising_aspect else 'no'}"
            )
        lines.append(f"verdict: {self.verdict}")
        for why in self.reasons:
            lines.append(f"reason: {why}")
        return "\n".join(lines)

    def to_json(self) -> dict:
        return {
            "curveset": self.name,
            "gridConsistent": self.grid_consistent,
            "selfAvoiding": self.self_avoiding,
            "scaleConsistent": self.scale_consistent,
            "order": self.order,
            "rowSums": self.row_sums,
            "irreducible": self.irreducible,
            "constants": self.constants,
            "interiorFilled": self.interior_filled,
            "coverage": None
            if self.coverage is None
            else {
                "k": self.coverage.k,
                "r": self.coverage.r,
                "missing": self.coverage.missing,
                "total": self.coverage.total,
                "risingAspect": self.coverage.rising_aspect,
            },
            "verdict": self.verdict,
            "reasons": self.reasons,
        }


def validate(
    cs: CurveSet,
    coverage_k: int = 3,
    coverage_r: float = 3.0,
    dekking_form: str = "transitions",
) -> ValidationReport:
    reasons: list[str] = []
    constants = sorted(cs.constants)
    try:
        r = order(cs)
        row_sums = subst_matrix(cs).row_sums()
    except UnequalRowSums as exc:
        r = None
        row_sums = exc.row_sums
        reasons.append(f"row sums differ: {row_sums}")
    irr = is_irreducible(subst_matrix(cs))

    if cs.grid is None:
        ok_letters = all(
            check_self_avoiding(expand(cs, Word((X,)), k), None, cs.n).ok
            for X in cs.letters
            for k in (1, 2, 3)
        )
        reasons.append("no grid: grid validation not applicable")
        verdict = VALID_WITH_CAVEATS if ok_letters else INVALID
        if not ok_letters:
            reasons.append("an iterate crosses or redraws an edge")
        return ValidationReport(
            cs.name, None, ok_letters, False, None, r, row_sums,
            None, irr, constants, None, verdict, reasons,
        )

    gc, gc_problems = check_grid_consistent(cs)
    if not gc:
        reasons.extend(gc_problems[:4])
    sa, sa_why = check_dekking1(cs, dekking_form)
    if not sa:
        reasons.append(f"self-avoidance fails: {sa_why}")
    scale = scale_analysis(cs, r) if r is not None else ScaleAnalysis(False, None, None, False)
    if not scale.strong:
        if scale.eigen_ok:
            reasons.append(
                "per-letter displacements differ; exact scale eigenvalue of "
                f"squared modulus order^{scale.eigen_period} exists"
            )
        else:
            reasons.append("no common displacement of squared length equal to the order")
    filled: dict[str, bool] = {}
    coverage = None
    if gc and sa:
        for tile in prototiles(cs.grid):
            label = tile.to_string(cs.n, cs.grid.double)
            try:
                filled[label] = check_interior_filled(cs, tile, 1)
            except ValueError as exc:
                reasons.append(f"interior check failed for {label}: {exc}")
        coverage = check_coverage(cs, coverage_k, coverage_r)
        if not coverage.ok:
            reasons.append(
                f"coverage: {coverage.missing} of {coverage.total} edges missed "
                f"at k={coverage.k}, r={coverage.r}"
            )
        if coverage.rising_aspect:
            reasons.append("aspect ratio of iterates keeps rising (uneven growth)")
    if not irr:
        reasons.append("substitution matrix is reducible")

    hard = gc and sa and coverage is not None and coverage.ok and r is not None
    if not hard:
        verdict = INVALID
    elif scale.strong and not coverage.rising_aspect and irr:
        verdict = VALID
    else:
        verdict = VALID_WITH_CAVEATS
    return ValidationReport(
        cs.name, gc, sa, scale.strong, scale, r, row_sums,
        filled or None, irr, constants, coverage, verdict, reasons,
    )
