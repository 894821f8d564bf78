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

Coverage reads one table of the iterates of every letter, built level by
level (``_iterates``), so each (level, letter) is walked once per check.
The scale eigenvalue and the growth of the tiles read only the first
iterate, as a map of the grid's vertices (``vertex_map``): an exact 2x2
integer matrix M on the translation lattice.  Growth is uneven exactly
when M's two eigenvalues differ in modulus or M is a Jordan block
(``_uneven``), decided from M's trace and determinant.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from functools import cache
from itertools import combinations, islice
from operator import add, mul

from .exactgeom import (
    REDRAWS_SEGMENT,
    REPEATS_EDGE,
    STROKES_CROSS,
    Point,
    StrokeSet,
    add_vec,
    embed_vec,
    phi,
    ring_div_exact,
    rotate_vec,
    rotations,
    sub_vec,
    trace_tokens,
    unit_coeffs,
)
from .gridmodel import (
    LEFT,
    RIGHT,
    EdgeKey,
    GridError,
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


def check_self_avoiding(word: Word, grid: GridSpec | None, n: int | None = None) -> SelfAvoidReport:
    """Push the word's edges, in order, onto a ``StrokeSet``: no repeated
    directed edge, no doubly drawn segment, no two visits of a vertex whose
    strokes interleave around it.  Double-edge grids, and words checked
    without a grid, may draw a segment once in each direction.
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
    _, _, edges = trace_tokens(word.tokens, n)
    strokes = StrokeSet(n, double)
    push = strokes.push
    prev_d = None
    for i, (tail, d, _) in enumerate(edges):
        broken = push(tail, d, prev_d)
        if broken is not None:
            return SelfAvoidReport(False, _VIOLATIONS[broken].format(i=i))
        prev_d = d
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


def check_dekking1(cs: CurveSet) -> tuple[bool, str | None]:
    """Self-avoidance of the first iterates of all transitions (Dekking's
    criterion; the first iterates of all prototiles are an equivalent
    form)."""
    grid = cs.grid
    if grid is None:
        raise ValueError("needs a grid")
    for tr in grid.transitions:
        w = cs.production(tr.src).concat(tr.turn, cs.production(tr.dst))
        rep = check_self_avoiding(w, grid)
        if not rep.ok:
            return False, f"transition {tr}: {rep.violation}"
    return True, None


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
    # reach[lv][X]: how far the lv-th iterate of X reaches from its tail, at
    # most; rotation keeps lengths, so direction 0 gives it
    reach = [dict.fromkeys(cs.letters, 1.0)]
    for level in table[1:k + 1]:
        below = reach[-1]
        reach.append({
            X: max((abs(z) + below[Y] for Y, _, _, z in row), default=0.0)
            for X, (_, _, row) in level.items()
        })
    # an infinite reach would prune nothing
    if not all(math.isfinite(far) for level in reach for far in level.values()):
        raise OverflowError("the reach of the iterates overflows a float")
    # limit[lv][X]: a subtree whose tail lies farther out is pruned
    limit = [{X: r + far + 1.0 for X, far in level.items()} for level in reach]
    rows = {(lv, X, 0): table[lv][X][2] for lv in range(1, k + 1) for X in cs.letters}
    units = [embed_vec(u, n) for u in unit_coeffs(n)]
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
            row = rows[(lv, X, dirk)] = [(Y, (d + dirk) % n, rotate_vec(p, dirk, n), w * units[dirk])
                                         for Y, d, p, w in rows[(lv, X, 0)]]
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


def check_coverage(cs: CurveSet, k: int = 3, r: float = 3.0) -> CoverageDiagnostic:
    """Expand the faces around the seed vertex k times; report grid edges
    within distance r of the seed that no iterate covers.

    The target edges and the anchored faces at the origin come from the
    grid's ``target_disc(r)``, realized once per grid out to the Euclidean
    radius r.  The levels 0 to k of ``_iterates`` serve ``_covered``, which
    walks the iterates without expanding them.  A negative k, or a disc
    that holds no edge, raises ValueError: missing nothing there would say
    nothing.  So does a radius that is not finite, whose disc would grow
    without end, and a k so deep that the float embedding of the iterates'
    offsets, which the prune test reads, overflows.
    """
    grid = cs.grid
    if grid is None:
        raise ValueError("needs a grid")
    if k < 0:
        raise ValueError(f"coverage depth k must be >= 0, got {k}")
    if not math.isfinite(r):
        raise ValueError(f"coverage radius r must be finite, got {r}")
    disc = grid.target_disc(r)
    if not disc.edges:
        raise ValueError(f"coverage disc of radius r={r} holds no edge")
    try:
        covered = _covered(cs, list(islice(_iterates(cs), k + 1)), k, r, disc.anchored_faces)
    except OverflowError:
        raise ValueError(
            f"coverage depth k={k} is too deep: the iterates' offsets overflow a float") from None
    missing = [e for e in disc.edges if e not in covered]
    return CoverageDiagnostic(k, r, len(missing), len(disc.edges), missing[:8])


# -- scale analysis -------------------------------------------------------


# The fallback tries M^p for p up to this; see scale_analysis for why no
# larger p can be the least one.
_MAX_PERIOD = 6


@dataclass
class ScaleAnalysis:
    """What ``scale_analysis`` found.  ``common_lambda`` is the displacement
    that all non-constant letters share, if they do, with its squared
    length ``lambda_norm``; ``strong`` is the strong form.  Past it,
    ``eigen`` is the mu with M^p = mu for the vertex map M, with
    ``eigen_period`` p, set only when ``eigen_ok`` (|mu|^2 = order^p), and
    ``undetermined`` the reason the vertex map is undefined.
    ``uneven_growth`` is ``_uneven(M)``, False for a strong set without
    constants, and None where M is undefined or was not sought."""

    common_turn: bool
    common_lambda: Point | None
    lambda_norm: int | None
    strong: bool
    eigen: Point | None = None
    eigen_period: int = 1
    eigen_ok: bool = False
    undetermined: str | None = None
    uneven_growth: bool | None = None


def _walk_image(
    walk: Iterable[tuple[int, str, int]], first: dict[str, tuple], n: int
) -> tuple[tuple, int]:
    """phi(end) - phi(start) of a walk of (sign, letter, direction) steps
    (``GridSpec.lattice_walks``), and the net turn T it carries to its
    last edge from T = 0 on its first (see ``vertex_map``): crossing an
    edge forward passes on its T plus its letter's net turn, and an edge
    crossed backward has the T it passes on less that net turn.  ``first``
    is level 1 of ``_iterates``."""
    pos, T = (0,) * phi(n), 0
    for sign, L, k in walk:
        rots, turn, _ = first[L]
        if sign > 0:
            pos, T = add_vec(pos, rots[(k + T) % n]), T + turn
        else:
            T -= turn
            pos = sub_vec(pos, rots[(k + T) % n])
    return pos, T % n


def _lattice_coords(w: Point, v1: Point, v2: Point) -> tuple[int, int] | None:
    """Integers (x, y) with w = x*v1 + y*v2, or None: Cramer's rule on two
    coordinates where v1 and v2 are independent, checked on all of them."""
    a, b, c = v1.coeffs, v2.coeffs, w.coeffs
    i, j = next((i, j) for i, j in combinations(range(len(a)), 2)
                if a[i] * b[j] != a[j] * b[i])
    det = a[i] * b[j] - a[j] * b[i]
    x, rx = divmod(c[i] * b[j] - c[j] * b[i], det)
    y, ry = divmod(a[i] * c[j] - a[j] * c[i], det)
    if rx or ry or v1.scaled(x) + v2.scaled(y) != w:
        return None
    return x, y


def vertex_map(cs: CurveSet) -> tuple[tuple[int, int], tuple[int, int]] | str:
    """The first iterate as a map phi on the grid's vertices: its matrix
    ((a, b), (c, d)) on the basis (v1, v2) of ``grid.translation_lattice``,
    phi(v1) = a*v1 + c*v2 and phi(v2) = b*v1 + d*v2, or the reason phi is
    undefined.

    phi fixes the origin, and an edge (p, d) of letter L adds
    zeta^(d+T) * D_L, where D_L is the displacement of L's first iterate,
    read with its rotations and net turn from level 1 of ``_iterates``, and
    T is the net turn carried along the transitions: 0 on the seed edge,
    and an edge of letter L passes T plus the net turn of L's production to
    the edges after it.  phi and T are well defined when the first iterate
    of every face of ``grid.face_table`` closes in position and in T: the
    faces span the cycles of the grid, and the corners of the faces at a
    vertex give every transition through it.  A lattice translation v that leaves T
    unchanged commutes with phi, which is then Z-linear on the lattice;
    phi(v) is read along ``grid.lattice_walks``.
    """
    grid = cs.grid
    if grid is None:
        return "no grid"
    n = cs.n
    _, first = islice(_iterates(cs), 2)
    for key, steps in grid.face_table.steps.items():
        if _walk_image(((1, L, d) for _, d, L in steps), first, n) != ((0,) * phi(n), 0):
            face = Word(grid.face_table.word[key]).to_string(n, grid.double)
            return f"the first iterate of the face {face} does not close"
    try:
        lattice = grid.translation_lattice
        walks = grid.lattice_walks
    except GridError as exc:
        return str(exc)
    cols = []
    for v, walk in zip(lattice, walks):
        w, T = _walk_image(walk, first, n)
        if T:
            return f"the translation by {v.coeffs} changes the net turn T"
        xy = _lattice_coords(Point(n, w), *lattice)
        if xy is None:
            return f"the image of {v.coeffs} is not in the translation lattice"
        cols.append(xy)
    (a, c), (b, d) = cols
    return (a, b), (c, d)


def _uneven(M: tuple[tuple[int, int], tuple[int, int]]) -> bool:
    """Whether the tiles grow unevenly under phi, whose matrix on the
    translation lattice is M = ((a, b), (c, d)) (``vertex_map``).

    Growth here is the tile's growth under phi: phi^k maps a fundamental
    domain of the lattice onto the k-th inflated tile, whose shape is that
    of M^k.  A constant letter's iterate stays one edge long, so it does not
    grow and is no evidence either way.  Growth is even when M^k stays a
    similarity up to a bounded distortion, which holds exactly when M is
    diagonalizable over C with eigenvalues of one modulus.  Let t = a + d
    and Delta = t^2 - 4 det M.
    - Delta < 0: a complex conjugate pair, so M is conjugate over R to a
      rotation times a scalar.  Even.
    - t = 0 < Delta: the real pair +-sqrt(-det M), and M^2 = -det M * I.
      Even.
    - M scalar.  Even.
    - Delta > 0 and t != 0: two real eigenvalues of different moduli, so
      the aspect ratio of M^k grows like the k-th power of their ratio.
      Uneven.
    - Delta = 0 and M not scalar: a Jordan block lambda*I + N with N != 0
      and N^2 = 0, so M^k = lambda^k*I + k*lambda^(k-1)*N distorts linearly
      in k, and at lambda = 0 it flattens the plane onto a line.  Uneven.
    """
    (a, b), (c, d) = M
    t = a + d
    delta = t * t - 4 * (a * d - b * c)
    return not (delta < 0 or (t == 0 and delta > 0) or (b == c == 0 and a == d))


def scale_analysis(cs: CurveSet, expected_order: int | None = None) -> ScaleAnalysis:
    """Strong form: all non-constant displacements equal, |lambda|^2 = order.

    Fallback for families with per-letter displacements: the least p <=
    _MAX_PERIOD for which M^p, with M = ``vertex_map(cs)``, acts on the
    translation lattice as multiplication by one mu in Z[zeta]:
    mu = M^p*v1 / v1 exactly (``ring_div_exact``), and M^p*v2 = mu*v2.
    ``eigen`` is that mu, with period p, when |mu|^2 = order^p.  An
    undefined vertex map sets ``undetermined`` to the reason instead.

    No larger p can be the least.  If mu is not real, M commutes with
    multiplication by mu, so by i: M is itself a complex multiplication and
    p = 1.  If mu is real, M^p = mu*I, so the ratio of M's two eigenvalues
    is a root of unity.  It lies in the field of M's characteristic
    polynomial, of degree at most 2 over Q, so its order q is 1, 2, 3, 4
    or 6.  If the eigenvalues differ, M is diagonalizable and M^q is its
    least power that is a real multiple of I; if they are equal, M is that
    already or no power of it is.

    ``uneven_growth`` is read from M too (``_uneven``), except on a strong
    set without constants, where phi is multiplication by lambda and
    growth is even without M.
    """
    n = cs.n
    try:
        r = order(cs) if expected_order is None else expected_order
    except UnequalRowSums:
        return ScaleAnalysis(False, None, None, False)
    noncon = [X for X in cs.letters if X not in cs.constants]
    if not noncon:  # phi is the identity
        return ScaleAnalysis(True, None, None, True, uneven_growth=False)
    _, first = islice(_iterates(cs), 2)
    taus = {first[X][1] for X in noncon}
    common_turn = len(taus) == 1
    vals = {first[X][0][0] for X in noncon}
    common = None
    norm = None
    strong = False
    if len(vals) == 1:
        common = Point(n, vals.pop())
        norm = common.norm2_int()
        strong = common_turn and norm == r and taus == {0}
    analysis = ScaleAnalysis(common_turn, common, norm, strong)
    if strong and not cs.constants:
        analysis.uneven_growth = False
        return analysis
    mat = vertex_map(cs)
    if isinstance(mat, str):
        analysis.undetermined = mat
        return analysis
    analysis.uneven_growth = _uneven(mat)
    if strong:
        return analysis
    v1, v2 = cs.grid.translation_lattice
    power = mat
    for p in range(1, _MAX_PERIOD + 1):
        (a, b), (c, d) = power
        try:
            mu = Point(n, ring_div_exact((v1.scaled(a) + v2.scaled(c)).coeffs, v1.coeffs, n))
        except ArithmeticError:  # v1 is not an eigenvector of M^p
            mu = None
        if mu is not None and mu * v2 == v1.scaled(b) + v2.scaled(d):
            if mu.norm2_int() == r ** p:
                analysis.eigen, analysis.eigen_period, analysis.eigen_ok = mu, p, True
            break
        power = tuple(tuple(sum(map(mul, row, col)) for col in zip(*mat)) for row in power)
    return analysis


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
            rising = self.scale.uneven_growth
            lines.append(
                f"coverage: k={c.k} r={c.r} missing={c.missing}/{c.total}"
                f" risingAspect={'undetermined' if rising is None else na(rising)}"
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
                "risingAspect": self.scale.uneven_growth,
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


def is_invalid(cs: CurveSet) -> bool:
    """True exactly when ``validate(cs).verdict`` is INVALID.  Only the
    hard checks run, cheapest first, and the first failure decides: equal
    row sums, grid consistency, Dekking-1, then coverage.  The report-only
    diagnostics (scale and growth, irreducibility, filled interiors) are
    skipped."""
    if cs.grid is None:
        return not _iterates_self_avoid(cs)
    try:
        order(cs)
    except UnequalRowSums:
        return True
    return not (check_grid_consistent(cs)[0] and check_dekking1(cs)[0]
                and check_coverage(cs).ok)


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
        if scale.uneven_growth:
            reasons.append("aspect ratio of iterates keeps rising (uneven growth)")
    if not irr:
        reasons.append("substitution matrix is reducible")

    hard = gc and sa and coverage is not None and coverage.ok and r is not None
    if not hard:
        verdict = INVALID
    elif scale.strong and not scale.uneven_growth and irr:
        verdict = VALID
    else:
        verdict = VALID_WITH_CAVEATS
    return ValidationReport(
        cs.name, gc, sa, scale.strong, scale, r, row_sums,
        filled or None, irr, constants, coverage, verdict, reasons,
    )
