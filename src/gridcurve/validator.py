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

Coverage, the aspect ratios of the iterates and the scale eigenvalue all
read one table of the iterates of every letter, built level by level
(``_iterates``), so each (level, letter) is walked once per check.
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Iterator
from dataclasses import dataclass, field
from functools import cache
from itertools import islice, product
from operator import add

from .exactgeom import (
    REDRAWS_SEGMENT,
    REPEATS_EDGE,
    STROKES_CROSS,
    Point,
    StrokeSet,
    add_vec,
    charpoly,
    dot_vec,
    embed_vec,
    embedding_reps,
    galois_apply,
    phi,
    poly_eval,
    rotations,
    round_from_embeddings,
    trace_tokens,
    unit_coeffs,
)
from .gridmodel import (
    LEFT,
    RIGHT,
    EdgeKey,
    GridSpec,
    Prototile,
    grid_letters,
    prototiles,
)
from .lsystem import (
    CurveSet,
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


_VIOLATIONS = {
    REPEATS_EDGE: "edge {i} repeats a directed edge",
    REDRAWS_SEGMENT: "edge {i} redraws a segment (opposite direction)",
    STROKES_CROSS: "strokes cross at a vertex before edge {i}",
}


def check_self_avoiding(
    word: Word, grid: GridSpec | None, n: int | None = None, closed: bool = False
) -> SelfAvoidReport:
    """Push the word's edges, in order, onto a ``StrokeSet``: no repeated
    directed edge, no doubly drawn segment, no two visits of a vertex whose
    strokes interleave around it.  Double-edge grids, and words checked
    without a grid, may draw a segment once in each direction.  A closed
    word must also end where it starts, and its last and first edges make
    one more stroke through that base vertex.
    """
    if grid is not None:
        n = grid.n
        double = grid.double
        for L in word.letters():
            if L not in grid.letters:
                return SelfAvoidReport(False, f"letter {L!r} outside grid alphabet")
    else:
        if n is None:
            raise ValueError("need a grid or a turn resolution")
        double = True
    end, _, edges = trace_tokens(word.tokens, n)
    strokes = StrokeSet(n, double)
    push = strokes.push
    prev_d = None
    for i, (tail, d, _) in enumerate(edges):
        broken = push(tail, d, prev_d)
        if broken is not None:
            return SelfAvoidReport(False, _VIOLATIONS[broken].format(i=i))
        prev_d = d
    if closed and edges:
        base, first_d, _ = edges[0]
        if end != base:
            return SelfAvoidReport(False, "closed word does not return to start")
        if strokes.crosses(base, prev_d, first_d):
            return SelfAvoidReport(False, "strokes cross at the base vertex")
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


def check_interior_filled(cs: CurveSet, tile: Prototile) -> bool:
    """Expand the tile boundary once and flood the faces its first iterate
    encloses: every directed edge with interior faces on both sides must be
    traversed.

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
    grid = cs.grid
    if grid is None:
        raise ValueError("needs a grid")
    n = grid.n
    tokens = tile.boundary_word().tokens
    table = grid.face_table
    if all(table.word.get((tokens[0], side)) != tokens for side in (LEFT, RIGHT)):
        raise ValueError(f"tile {tile} is not a face of the grid")
    origin = (0,) * phi(n)
    w = expand(cs, Word(tokens), 1)
    end, _, edges = trace_tokens(w.tokens, n, origin, 0)
    if end != origin:
        raise ValueError("tile boundary iterate does not close (scale inconsistency)")
    # the grid's letters, carried from the boundary's last edge, which
    # arrives at the origin
    letters = grid_letters(grid, edges, tokens[-2], -tokens[-1])
    curve = {(p, d): letter for (p, d, _), letter in zip(edges, letters)}
    radius = max(abs(embed_vec(p, n)) for p, _, _ in edges) + 1e-9

    @cache
    def beyond(pos: tuple) -> bool:
        return abs(embed_vec(pos, n)) > radius

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


def _walk(
    tokens: tuple, level: dict[str, tuple], n: int, pos: tuple, dirk: int = 0
) -> tuple[list[tuple[str, int, tuple]], tuple, int]:
    """Walk a word whose letters stand for their iterates at one level.

    ``level[X]`` is X's entry in one level of ``_iterates``: its iterate's
    displacement in each of the n directions and its net turn, so a step
    adds one vector.  Returns (letter, direction, tail) for every letter,
    then the end point and the end direction.  An iterate starts in the
    direction of every turn before it in the expanded word, and those
    include the net turns of the iterates before it.
    """
    out = []
    for tok in tokens:
        if isinstance(tok, int):
            dirk = (dirk + tok) % n
        else:
            out.append((tok, dirk, pos))
            rots, turn, _ = level[tok]
            pos = tuple(map(add, pos, rots[dirk]))
            dirk = (dirk + turn) % n
    return out, pos, dirk


def _iterates(cs: CurveSet) -> Iterator[dict[str, tuple]]:
    """Yield the table of the lv-th iterates for lv = 0, 1, 2, ...; the
    caller bounds the levels it takes.

    level[X] is (rots, turn, row): the exact displacement of X's lv-th
    iterate rotated n ways (``rotations``, so element 0 is the displacement
    itself), its net turn mod n, and its direction-0 row.  The row holds,
    per letter of X's production, the child letter, its direction, the
    exact offset of its tail from X's tail and that offset's embedding;
    level 0, a single edge, has no row.  Each level is walked once, on the
    one below it, so every displacement is rotated once.
    """
    n = cs.n
    origin = (0,) * phi(n)
    level = {X: (rotations(unit_coeffs(n)[0], n), 0, ()) for X in cs.letters}
    while True:
        yield level
        below = level
        level = {}
        for X in cs.letters:
            children, disp, turn = _walk(cs.production(X).tokens, below, n, origin)
            level[X] = (rotations(disp, n), turn,
                        [(Y, d, p, embed_vec(p, n)) for Y, d, p in children])


def _covered(
    cs: CurveSet, table: list[dict[str, tuple]], k: int, r: float, faces: list[tuple]
) -> set[EdgeKey]:
    """The (tail, direction) keys of the edges of the k-th iterates of the
    anchored words in ``faces`` that lie within reach of the disc of radius
    r, walked without expanding the words.

    A subtree whose tail lies too far out to reach the disc is pruned.  The
    lv-th iterate of a letter X whose first edge points in direction d has
    one row of children (see ``_iterates``); the rows of direction 0 come
    from the table, the others are built on their first visit and reused
    for every later (lv, X, d).  Descent runs on an explicit stack that
    carries each subtree's exact tail, for the covered keys, and its float
    embedding, for the prune test.  The reach bound is a float
    over-approximation with a margin of one edge, so pruning never changes
    which disc edges are covered.
    """
    n = cs.n
    origin = (0,) * phi(n)
    # reach[lv][X]: distance from the tail that the lv-th iterate of X can
    # reach, at most; offsets keep their length under rotation, so the rows
    # of direction 0 give it
    reach = [dict.fromkeys(cs.letters, 1.0)]
    for level in table[1:k + 1]:
        below = reach[-1]
        reach.append({
            X: max((abs(z) + below[Y] for Y, _, _, z in row), default=0.0)
            for X, (_, _, row) in level.items()
        })
    # limit[lv][X]: a subtree whose tail lies farther out is pruned
    limit = [{X: r + far + 1.0 for X, far in level.items()} for level in reach]
    rows = {(lv, X, 0): table[lv][X][2] for lv in range(1, k + 1) for X in cs.letters}
    stack = []
    for tokens, anchor, dirk in faces:
        for X, d, pos in _walk(tokens, table[k], n, anchor, dirk)[0]:
            z = embed_vec(pos, n)
            if abs(z) <= limit[k][X]:
                stack.append((k, X, pos, z, d))
    if k == 0:
        return {(pos, d) for _, _, pos, _, d in stack}
    covered: set[EdgeKey] = set()
    while stack:
        lv, X, pos, z, dirk = stack.pop()
        row = rows.get((lv, X, dirk))
        if row is None:
            children, _, _ = _walk(cs.production(X).tokens, table[lv - 1], n, origin, dirk)
            row = rows[(lv, X, dirk)] = [(Y, d, p, embed_vec(p, n)) for Y, d, p in children]
        below = limit[lv - 1]
        for Y, dY, offset, z_offset in row:
            zY = z + z_offset
            if abs(zY) > below[Y]:
                continue
            pY = tuple(map(add, pos, offset))  # add_vec, inlined: once per node
            if lv == 1:
                covered.add((pY, dY))
            else:
                stack.append((lv - 1, Y, pY, zY, dY))
    return covered


def _support_aspects(cs: CurveSet, levels: list[dict[str, tuple]]) -> dict[str, list[float]]:
    """Bounding-box aspect ratio of each letter's iterates, via support
    values over the grid's direction fan (no expansion needed); levels
    holds the levels 1, 2, ... of ``_iterates``, one ratio per level."""
    n = cs.n
    if 360 % n:
        return {X: [1.0] * len(levels) for X in cs.letters}
    letters = cs.letters
    g = math.gcd(90, 360 // n)
    angles = [math.radians(a) for a in range(0, 360, g)]
    na = len(angles)
    rot_step = (360 // n) // g
    # level 0 is a single edge from the origin in direction 0, so the
    # support in direction a is max(0, cos a)
    prev = {X: [max(0.0, math.cos(a)) for a in angles] for X in letters}
    out: dict[str, list[float]] = {X: [] for X in letters}
    for level in levels:
        cur: dict[str, list[float]] = {}
        for X in letters:
            row = level[X][2]
            vals = []
            for ai, a in enumerate(angles):
                ca, sa = math.cos(a), math.sin(a)
                best = 0.0
                for tok, dirk, _, base in row:
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


def check_coverage(cs: CurveSet, k: int = 3, r: float = 3.0) -> CoverageDiagnostic:
    """Expand the faces around the seed vertex k times; report grid edges
    within distance r of the seed that no iterate covers.

    The target edges and the anchored faces at the origin come from the
    grid's ``target_disc(r)``, realized once per grid out to the Euclidean
    radius r.  One table of the iterates (``_iterates``), max(k, 8) levels
    deep, serves both ``_covered``, which walks the iterates without
    expanding them, and the aspect ratios of ``_support_aspects``.
    """
    grid = cs.grid
    if grid is None:
        raise ValueError("needs a grid")
    disc = grid.target_disc(r)
    table = list(islice(_iterates(cs), max(k, 8) + 1))
    covered = _covered(cs, table, k, r, disc.anchored_faces)
    missing = [e for e in disc.edges if e not in covered]
    aspects = _support_aspects(cs, table[1:])
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
        k, r, len(missing), len(disc.edges), aspects, rising, missing[:8]
    )


# -- scale analysis -------------------------------------------------------


# Bounds of the exact-eigenvalue fallback.  Hitting one leaves the scale
# eigenvalue undetermined (ScaleAnalysis.undetermined), never absent.
_TURN_PERIOD_LEVELS = 4  # turn vectors tried per turn unit: 4n levels in all
_ROOT_ITERATIONS = 500  # Durand-Kerner sweeps per embedding


@dataclass
class ScaleAnalysis:
    common_turn: bool
    common_lambda: Point | None
    lambda_norm: int | None
    strong: bool
    eigen: Point | None = None
    eigen_period: int = 1
    eigen_ok: bool = False
    undetermined: str | None = None


def scale_analysis(cs: CurveSet, expected_order: int | None = None) -> ScaleAnalysis:
    """Strong form: all non-constant displacements equal, |lambda|^2 = order.

    Fallback for families with per-letter displacements: follow the net
    turns of the iterates to their period p and take the product M of the
    exact displacement matrices over one period.  ``eigen`` is a dominant
    eigenvalue of M (largest modulus) with |eigen|^2 = order^p.  Both
    properties that define it are checked exactly: its squared norm is the
    rational integer order^p, and the characteristic polynomial of M,
    evaluated over Z[zeta] by Horner's rule, vanishes at it.  When several
    dominant eigenvalues pass, the one with the smallest argument in
    [0, 2*pi) is reported.  The turn period search and the numeric root
    finder are bounded; hitting a bound, or a nilpotent M, sets
    ``undetermined`` to the reason instead.
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
    """Set ``out.eigen`` from the period matrix M, or ``out.undetermined``.

    An element of Z[zeta] is fixed by its images under one Galois map
    zeta -> zeta^k per complex-conjugate pair: its power-basis coefficients
    solve a real phi(n) x phi(n) system.  An eigenvalue lambda is a root of
    the characteristic polynomial chi of M, and sigma_k(lambda) a root of
    sigma_k(chi) of the same squared modulus order^p.  So a dominant root
    of chi and one root on that circle per other embedding, solved for and
    rounded, make a candidate, and only the exact checks accept it.
    chi(lambda) = +-det(M - lambda*I), so chi(lambda) = 0 decides the
    eigenvalue exactly; since Z[zeta] is an integral domain and lambda is
    not 0, the factors x stripped from chi do not change the answer.
    """
    n = cs.n
    periodic = _period_matrix(cs)
    if periodic is None:
        out.undetermined = (
            "net turns of the iterates do not repeat within "
            f"{_TURN_PERIOD_LEVELS * n + 1} levels")
        return
    prod_mat, period = periodic
    poly = charpoly(prod_mat, n)
    while not any(poly[-1]):  # roots at zero are never the answer
        poly.pop()
    if len(poly) == 1:
        out.undetermined = "the displacement matrix is nilpotent"
        return
    target = r ** period
    circle = math.sqrt(target)
    choices = []
    for k in embedding_reps(n):
        clusters = _root_clusters([embed_vec(galois_apply(c, k, n), n) for c in poly])
        if clusters is None:
            out.undetermined = (
                f"root finder did not converge in {_ROOT_ITERATIONS} iterations")
            return
        if k == 1:  # the clusters that may hold a root of largest modulus
            top = max(lo for _, lo, _ in clusters)
            clusters = [cl for cl in clusters if cl[2] >= top]
        # sigma_k(lambda) has the rational squared modulus order^p as well
        choices.append([z for zs, lo, hi in clusters if lo <= circle <= hi for z in zs])
    tried = set()
    found = []
    for zs in product(*choices):
        coeffs = round_from_embeddings(zs, n)
        if coeffs in tried:
            continue
        tried.add(coeffs)
        cand = Point(n, coeffs)
        if cand.norm2_int() == target and not any(poly_eval(poly, coeffs, n)):
            found.append(cand)
    if found:
        out.eigen = min(found, key=lambda lam: _argument(lam.to_complex()))
        out.eigen_period = period
        out.eigen_ok = True


def _period_matrix(cs: CurveSet) -> tuple[list[list[tuple]], int] | None:
    """Product of the exact displacement matrices over one period of the
    net turns of the iterates, with that period; None when the turns do
    not repeat within the period bound.

    The matrix of level lv sums, per child of X's lv-th iterate, the unit
    vector of the child's direction into entry (X, child letter), so it
    reads the directions of the direction-0 rows of ``_iterates``.
    """
    n = cs.n
    letters = cs.letters
    levels = []  # levels 1, 2, ... of the table
    seen = []  # their net turns, in letter order
    for level in islice(_iterates(cs), 1, _TURN_PERIOD_LEVELS * n + 2):
        levels.append(level)
        turns = tuple(level[X][1] for X in letters)
        if turns in seen:
            k0 = seen.index(turns)
            break
        seen.append(turns)
    else:
        return None
    period = len(seen) - k0
    # level k0 + 1 + p turns as level k0 + 1 does, so the rows of the levels
    # k0 + 2 up to the repeat use one period of turns
    unit = unit_coeffs(n)
    zerov = (0,) * phi(n)

    def mat_mul(a, b):
        cols = list(zip(*b))
        return [[dot_vec(row, col, n) for col in cols] for row in a]

    prod_mat = None
    for level in levels[k0 + 1:]:
        m_lv = [[zerov for _ in letters] for _ in letters]
        for xi, X in enumerate(letters):
            for Y, d, _, _ in level[X][2]:
                yi = letters.index(Y)
                m_lv[xi][yi] = add_vec(m_lv[xi][yi], unit[d])
        prod_mat = m_lv if prod_mat is None else mat_mul(m_lv, prod_mat)
    return prod_mat, period


def _root_clusters(coeffs: list[complex]) -> list[tuple[list[complex], float, float]] | None:
    """Roots of a monic polynomial (leading coefficient first), as clusters
    of approximations with an interval that holds the moduli of their roots;
    None when ``_ROOT_ITERATIONS`` Durand-Kerner sweeps do not settle them.

    An approximation is settled once its residual is within the rounding
    error of Horner's rule, which approximations of a multiple root reach
    too.  The disc of radius d*|W_i| around approximation z_i, where W_i is
    its Weierstrass correction p(z_i) / prod(z_i - z_j), holds a root, and
    a connected union of k such discs holds exactly k roots (Gerschgorin's
    theorem on diag(z) - 1*W^T, whose characteristic polynomial is p).  Each
    cluster is one such union, so a multiple root is one cluster.
    """
    d = len(coeffs) - 1
    radius = 1 + max(abs(c) for c in coeffs[1:])
    zs = [radius * (0.4 + 0.9j) ** i for i in range(d)]
    eps = 16 * d * 2.0 ** -52

    def residual(z: complex) -> tuple[complex, float]:
        val, bound = 0j, 0.0
        for c in coeffs:
            val = val * z + c
            bound = bound * abs(z) + abs(c)
        return val, eps * bound

    def others(i: int, z: complex) -> complex:
        den = 1 + 0j
        for j, w in enumerate(zs):
            if j != i:
                den *= z - w
        return den

    for _ in range(_ROOT_ITERATIONS):
        settled = True
        for i, z in enumerate(zs):
            val, noise = residual(z)
            if abs(val) > noise:
                settled = False
                den = others(i, z)
                zs[i] = z - val / den if den else z + noise * 1j
        if settled:
            break
    else:
        return None
    clusters: list[list[tuple[complex, float]]] = []
    for i, z in enumerate(zs):
        val, noise = residual(z)
        den = abs(others(i, z))
        disc = (z, d * max(abs(val), noise) / den if den else math.inf)
        near, far = [], []
        for cl in clusters:
            touches = any(abs(z - w) <= disc[1] + rho for w, rho in cl)
            (near if touches else far).append(cl)
        clusters = far + [[disc] + [x for cl in near for x in cl]]
    return [
        ([z for z, _ in cl], min(abs(z) - rho for z, rho in cl),
         max(abs(z) + rho for z, rho in cl))
        for cl in clusters
    ]


def _argument(z: complex) -> float:
    """Argument in [0, 2*pi), with rounding noise below zero read as 0."""
    a = cmath.phase(z)
    return a + 2 * math.pi if a < -1e-9 else max(a, 0.0)


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


def _iterates_self_avoid(cs: CurveSet) -> bool:
    """Without a grid: the first three iterates of every letter self-avoid."""
    return all(
        check_self_avoiding(expand(cs, Word((X,)), k), None, cs.n).ok
        for X in cs.letters
        for k in (1, 2, 3)
    )


def is_invalid(cs: CurveSet, coverage_k: int = 3) -> bool:
    """True exactly when ``validate(cs, coverage_k).verdict`` is INVALID.
    Only the hard checks run, cheapest first, and the first failure
    decides: equal row sums, grid consistency, Dekking-1, then coverage.  The report-only diagnostics (scale, irreducibility, filled
    interiors) are skipped."""
    if cs.grid is None:
        return not _iterates_self_avoid(cs)
    try:
        order(cs)
    except UnequalRowSums:
        return True
    return not (check_grid_consistent(cs)[0] and check_dekking1(cs)[0]
                and check_coverage(cs, coverage_k).ok)


def validate(
    cs: CurveSet,
    coverage_k: int = 3,
    coverage_r: float = 3.0,
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
        ok_letters = _iterates_self_avoid(cs)
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
    sa, sa_why = check_dekking1(cs)
    if not sa:
        reasons.append(f"self-avoidance fails: {sa_why}")
    scale = scale_analysis(cs, r) if r is not None else ScaleAnalysis(False, None, None, False)
    if not scale.strong:
        if scale.eigen_ok:
            reasons.append(
                "per-letter displacements differ; exact scale eigenvalue of "
                f"squared modulus order^{scale.eigen_period} exists"
            )
        elif scale.undetermined:
            reasons.append(f"scale eigenvalue undetermined: {scale.undetermined}")
        else:
            reasons.append("no common displacement of squared length equal to the order")
    filled: dict[str, bool] = {}
    coverage = None
    if gc and sa:
        for tile in prototiles(cs.grid):
            label = tile.to_string(cs.n, cs.grid.double)
            try:
                filled[label] = check_interior_filled(cs, tile)
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
