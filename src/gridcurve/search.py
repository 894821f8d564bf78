"""Combinatorial searches: grid colorings on a torus, and curve-sets of a
given order.

The coloring search assigns letters to the directed edges of a toroidal
patch subject to the unique transition property in both directions.  It
colours the edges one at a time, branches only where the partial
transition tables force no colour, and undoes its own changes when it
backtracks.  It keeps one coloring per class under letter permutation and
under the torus's symmetry group, the least one: the torus translations
and, by default, the point maps (rotations and reflections) that keep the
torus lattice and the base grid's letters, each with its translation part.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .exactgeom import (
    Lattice,
    Point,
    StrokeSet,
    add_vec,
    galois_apply,
    mul_vec,
    normalize_turn,
    phi,
    sub_vec,
    unit_coeffs,
)
from .gridmodel import (
    EdgeKey,
    GridSpec,
    Transition,
    closure,
)
from .lsystem import CurveSet, UnequalRowSums, order
from .validator import is_invalid
from .words import Word


class SearchBudgetExceeded(RuntimeError):
    pass


# Bound on the nodes ``search_colorings`` visits before it raises
# SearchBudgetExceeded.
_COLORING_BUDGET = 10_000_000

# the names of a coloring's letters, in colour order
_LETTERS = "ABCDEFGHIJKLMNOPQRSTUVWX"


@dataclass
class TorusPatch:
    """The grid modulo the lattice spanned by R*v1 and C*v2.

    Every vertex is stored as its canonical representative modulo that
    lattice (``Lattice.reduce``), so an edge of the quotient is looked up by
    reducing its tail: ``index[(lattice.reduce(tail), direction)]``.
    ``succ[ei]`` maps each turn t out of edge ei's letter to the edge that
    follows ei after t, in ``turns_from`` order; ``pred[ej]`` maps t to the
    edge that ej follows after t, in ascending edge order.
    """

    base: GridSpec
    R: int
    C: int
    v1: Point
    v2: Point
    lattice: Lattice
    edges: list[tuple[tuple, int, str]]
    index: dict[EdgeKey, int]
    succ: list[dict[int, int]]
    pred: list[dict[int, int]]

    @staticmethod
    def build(base: GridSpec, R: int, C: int) -> "TorusPatch":
        """The quotient that ``closure`` reaches modulo the lattice, with its
        successor and predecessor maps filled in one pass in edge order."""
        v1, v2 = base.translation_lattice
        lattice = Lattice(v1.scaled(R), v2.scaled(C))
        letters, _ = closure(base, lattice.reduce)
        edges = [(pos, k, letter) for (pos, k), letter in letters.items()]
        tp = TorusPatch(base, R, C, v1, v2, lattice, edges, {e: i for i, e in enumerate(letters)},
                        [{} for _ in edges], [{} for _ in edges])
        units = unit_coeffs(base.n)
        for ei, (pos, k, letter) in enumerate(edges):
            head = lattice.reduce(add_vec(pos, units[k]))
            for t in base.turns_from.get(letter, ()):
                sj = tp.index[(head, (k + t) % base.n)]
                tp.succ[ei][t] = sj
                tp.pred[sj][t] = ei
        return tp

    def __len__(self) -> int:
        return len(self.edges)

    def translations(self) -> tuple[list[int], list[int]]:
        """The edge permutations of the translations by v1 and by v2."""
        reduce, index = self.lattice.reduce, self.index
        return tuple([index[(reduce(add_vec(pos, v.coeffs)), k)] for pos, k, _ in self.edges]
                     for v in (self.v1, self.v2))

    def symmetries(self, point_group: bool = True) -> list[list[int]]:
        """Edge permutations induced by maps x -> zeta^j x + u and, with the
        point group enabled, x -> zeta^j conj(x) + u, that keep the torus
        lattice and preserve the base grid.  point_group=False keeps only the
        torus translations.

        Write u = c + x v1 + y v2, with c the representative of u's vertex
        class modulo the base lattice, the tail of a key of
        ``base.lattice_classes``, and 0 <= x < R, 0 <= y < C.  The map is
        then m (the same point map, with translation part c) followed by the
        translation T1^x T2^y (``translations``), which keeps the letters.
        So m's letters are checked once per class, and its R*C permutations
        T1^x T2^y m are composed by indexing.  The point map multiplies by
        the unit zeta^j (``mul_vec``), after conjugating for a reflection."""
        n = self.base.n
        reduce = self.lattice.reduce
        units = unit_coeffs(n)
        classes = dict.fromkeys(pos for pos, _ in self.base.lattice_classes)
        t1, t2 = self.translations()
        shifts = [[a[e] for e in b] for a in _powers(t1, self.R) for b in _powers(t2, self.C)]
        perms: list[list[int]] = []
        rot_range = range(n) if point_group else range(1)
        flips = (False, True) if point_group else (False,)
        zero = (0,) * phi(n)
        for flip in flips:
            for j in rot_range:
                def linear(p: tuple) -> tuple:
                    return mul_vec(galois_apply(p, n - 1, n) if flip else p, units[j], n)

                # the map acts on the torus, as a bijection, only if it
                # keeps the lattice
                if any(reduce(linear(row)) != zero for _, row in self.lattice.pivots):
                    continue
                moved = [(linear(pos), ((j - k) if flip else (k + j)) % n, letter)
                         for pos, k, letter in self.edges]
                for c in classes:
                    m: list[int] = []
                    for q, k2, letter in moved:
                        target = self.index.get((reduce(add_vec(q, c)), k2))
                        if target is None or self.edges[target][2] != letter:
                            break
                        m.append(target)
                    else:
                        perms.extend([shift[e] for e in m] for shift in shifts)
        return perms


def _powers(perm: list[int], count: int) -> list[list[int]]:
    """perm^0, ..., perm^(count - 1), each composed from the one before."""
    out = [list(range(len(perm)))]
    for _ in range(count - 1):
        out.append([perm[e] for e in out[-1]])
    return out


@dataclass
class Coloring:
    """A letter assignment to torus edges satisfying unique transitions."""

    torus: TorusPatch
    assignment: tuple[int, ...]
    num_colors: int
    minimal_vector: tuple[int, int]

    def letters(self) -> tuple[str, ...]:
        return tuple(_LETTERS[:self.num_colors])

    def to_gridspec(self, name: str) -> GridSpec:
        """The grid of the coloring's transitions; ``GridSpec`` sorts them."""
        letters, colors, base = self.letters(), self.assignment, self.torus.base
        trans = {Transition(letters[colors[ei]], t, letters[colors[sj]])
                 for ei, after in enumerate(self.torus.succ) for t, sj in after.items()}
        return GridSpec(name, base.n, letters, tuple(trans), base.double)


def _is_least(colors: Sequence[int], perms: list[list[int]]) -> bool:
    """Whether no image colors[perm[i]] under the permutations, with its
    colours renumbered in order of first appearance, sorts below colors,
    whose colours are so numbered.  Each image is dropped at its first
    entry that differs from colors.

    The permutations are a group's (``TorusPatch.symmetries``), so the
    images colors[perm[i]] are the same set as those that move each colour
    to perm[i]."""
    m = max(colors) + 1
    for perm in perms:
        relabel, fresh = [-1] * m, 0
        for e, c in zip(perm, colors):
            r = relabel[colors[e]]
            if r < 0:
                r = relabel[colors[e]] = fresh
                fresh += 1
            if r != c:
                if r < c:
                    return False
                break
    return True


def search_colorings(
    base: GridSpec,
    R: int,
    C: int,
    m: int,
    dedup_rotations: bool = True,
) -> list[Coloring]:
    """All colorings of the R x C torus with exactly m letters, one per
    class under letter permutation and ``TorusPatch.symmetries``: the torus
    translations, times the rotations and reflections that keep the torus
    when dedup_rotations is set.  Each is its class's least member, its
    colours numbered in order of first appearance, and they come sorted.

    The edges are coloured in the order ``closure`` reached them, so each
    edge after the first has a coloured neighbour.  A rule (c, t, c') of
    the partial transition tables read off such a neighbour forces the
    edge's colour.  Where none does, the edge is a branch point: it takes
    each colour used so far, then one new colour.  Each coloured edge adds
    the rules it makes with its coloured neighbours, and backtracking
    removes them, so one colour list and one pair of rule tables serve the
    whole search.  Leaves arrive in lexicographic order, and the first of
    each class is its least image; a leaf is kept when ``_is_least``.

    A node is a branch point, and the search raises SearchBudgetExceeded
    past ``_COLORING_BUDGET`` of them, which bounds its work by that
    budget times N edge placements.  The forced edges after a branch point
    are coloured in a loop, and each branch point but the first adds a
    rule, so the recursion is at most m * |turns| + 1 deep whatever N is."""
    if R < 1 or C < 1 or m < 1:
        raise ValueError("R, C, m must be >= 1")
    if m > len(_LETTERS):
        raise ValueError(f"m must be <= {len(_LETTERS)}, the letters {_LETTERS[0]}-{_LETTERS[-1]}")
    torus = TorusPatch.build(base, R, C)
    N = len(torus)
    succ, pred = torus.succ, torus.pred
    perms = torus.symmetries(point_group=dedup_rotations)
    # colours of the edges before the current one; the rest are stale
    colors = [-1] * N
    fwd: dict[tuple[int, int], int] = {}  # (c, t) -> c'
    bwd: dict[tuple[int, int], int] = {}  # (t, c') -> c
    added: list[tuple[int, int, int]] = []  # the rules (c, t, c'), oldest first
    found: list[tuple[int, ...]] = []
    nodes = 0

    def forced(e: int) -> int | None:
        """The colour that a rule read off a coloured neighbour gives e."""
        for t, p in pred[e].items():
            if p < e and (c := fwd.get((colors[p], t))) is not None:
                return c
        for t, s in succ[e].items():
            if s < e and (c := bwd.get((t, colors[s]))) is not None:
                return c
        return None

    def place(e: int, c: int) -> bool:
        """Colour e with c and add the rules it makes with its coloured
        neighbours (e itself among them); False at the first rule that
        breaks unique transitions."""
        colors[e] = c
        rules = [(colors[p], t, c) for t, p in pred[e].items() if p <= e]
        rules += [(c, t, colors[s]) for t, s in succ[e].items() if s <= e]
        for a, t, b in rules:
            got = fwd.get((a, t))
            if got is None:
                if (t, b) in bwd:
                    return False
                fwd[(a, t)] = b
                bwd[(t, b)] = a
                added.append((a, t, b))
            elif got != b:
                return False
        return True

    def branch(e: int, used: int) -> None:
        """Colour e, a branch point, with each colour it may take, and the
        edges after it in a loop while rules force them."""
        nonlocal nodes
        nodes += 1
        if nodes > _COLORING_BUDGET:
            raise SearchBudgetExceeded(f"over {_COLORING_BUDGET} nodes")
        for c in range(min(used + 1, m)):
            mark = len(added)
            now = max(used, c + 1)
            f, ok = e, place(e, c)
            while ok:
                f += 1
                if f == N:
                    if now == m and _is_least(colors, perms):
                        found.append(tuple(colors))
                    break
                c2 = forced(f)
                if c2 is None:
                    branch(f, now)
                    break
                ok = place(f, c2)
            while len(added) > mark:
                a, t, b = added.pop()
                del fwd[(a, t)], bwd[(t, b)]

    branch(0, 0)
    t1, t2 = torus.translations()
    return [Coloring(torus, colors, m, (_period(colors, t1, R), _period(colors, t2, C)))
            for colors in found]


def _period(colors: Sequence[int], shift: list[int], count: int) -> int:
    """The least d dividing count such that the d-th power of the edge
    permutation shift keeps every colour; shift^count is the identity."""
    powers = _powers(shift, count)
    return next((d for d in range(1, count) if count % d == 0
                 and all(colors[e] == c for e, c in zip(powers[d], colors))), count)


# -- curve-set enumeration --------------------------------------------------


@dataclass
class SearchResult:
    curvesets: list[CurveSet]
    complete: bool
    nodes: int


def _lambda_targets(n: int, R: int) -> list[tuple]:
    deg = phi(n)
    bound = int(math.isqrt(R)) + 2
    out = []

    def rec(coeffs: tuple):
        if len(coeffs) == deg:
            p = Point(n, coeffs)
            if p.norm2_int() == R:
                out.append(coeffs)
            return
        for c in range(-bound, bound + 1):
            rec(coeffs + (c,))

    rec(())
    return out


def enumerate_curve_sets(
    grid: GridSpec,
    R: int,
    budget: int = 2_000_000,
) -> SearchResult:
    """Depth-first enumeration of curve-sets of the given order.

    Productions are built edge by edge along grid transitions towards a
    common displacement target of squared length R.  A branch is pruned
    when its next edge breaks a self-avoidance rule of the ``StrokeSet``
    that ``check_self_avoiding`` also uses, in the word itself or in
    w t w for a self-transition (L, t, L) of its letter, which Dekking-1
    draws and whose second copy is known edge by edge as w grows.  It is
    also pruned when the target lies more edges away than the letters left.
    That distance is exact up to self-avoidance: one table per target, by
    breadth-first search backwards over ``grid.arrivals``, gives the fewest
    edges from each (head, direction, letter) to the target in direction 0,
    so it never over-estimates and prunes no word that reaches the target.
    A candidate set is kept unless ``is_invalid`` says its validation
    verdict would be Invalid; that runs only the hard checks and stops at
    the first failure.  ``nodes`` counts the prefixes visited, over all
    targets and letters; the search stops at node budget + 1 and marks the
    result incomplete.  Mirror-image duplicates are removed when the
    transition set is closed under turn negation.  Each mirror class is
    reported by a set that passed ``is_invalid``, the one that sorts first
    when both images did: on double grids the stroke lanes are chiral at a
    U-turn, so the mirror image of a valid set can be Invalid.
    """
    n = grid.n
    letters = grid.letters
    units = unit_coeffs(n)
    nodes = 0
    complete = True
    # mirror class -> (sort key, curve-set) of the set reported for it
    found: dict[tuple, tuple[tuple, CurveSet]] = {}

    sign_symmetric = all(
        any(t2.src == t.src and t2.dst == t.dst and
            t2.turn == normalize_turn(-t.turn, n) for t2 in grid.transitions)
        for t in grid.transitions
    )

    max_len = R * len(letters) - (len(letters) - 1)

    def sortable(prods: dict[str, Word]) -> tuple:
        return tuple(sorted((L, w.to_string(n, grid.double)) for L, w in prods.items()))

    def distances_to(target: tuple) -> dict[tuple, int]:
        """Fewest further edges from (head, direction of the last edge, last
        letter) to an end state (target, 0, any letter), ignoring
        self-avoidance and letter budgets.  A drawn edge leaves at most
        max_len - 1, so farther states are left out."""
        dist = {(target, 0, L): 0 for L in letters}
        frontier = list(dist)
        for d in range(1, max_len):
            reached = []
            for pos, k, L in frontier:
                tail = sub_vec(pos, units[k])
                for tr in grid.arrivals[L]:
                    state = (tail, (k - tr.turn) % n, tr.src)
                    if state not in dist:
                        dist[state] = d
                        reached.append(state)
            frontier = reached
        return dist

    def word_candidates(target: tuple, dist: dict[tuple, int], remaining: dict[str, int],
                        self_turns: list[int]):
        """Production words towards the target, given remaining per-letter
        occurrence budgets (row-sum bookkeeping), each with its letter
        counts.  One token list (a turn before every letter, 0 before the
        first) and one count table grow and shrink with the walk; a word is
        copied only when it reaches the target.

        Each self-transition (L, t, L) of the letter draws w t w in
        Dekking-1.  Every word ends at the target in direction 0, so the
        copy of w after the turn is known edge by edge as w grows: it starts
        at the target, rotated by t, and its first stroke turns off
        direction 0.  One ``StrokeSet`` per self-transition turn holds the
        prefix of w and that of its copy (one set holds w alone when there
        is no self-transition).  A refused push is a conflict between two
        strokes of every extension's w t w, so the branch is pruned."""
        out: list[tuple[Word, dict[str, int]]] = []
        tokens: list = []
        counts = dict.fromkeys(letters, 0)
        walks = ([(StrokeSet(n, grid.double), turn) for turn in self_turns]
                 or [(StrokeSet(n, grid.double), None)])

        def grow(pos: tuple, dirk: int, drawn: int, twins: tuple):
            # twins: the head of each walk's copy of w (unused for w alone)
            nonlocal nodes
            nodes += 1
            if nodes > budget:
                raise SearchBudgetExceeded(f"over {budget} nodes")
            if drawn and pos == target and dirk == 0:
                out.append((Word(tokens[1:]), {L: c for L, c in counts.items() if c}))
            room = max_len - drawn
            if room <= 0 or (drawn and dist.get((pos, dirk, tokens[-1]), room + 1) > room):
                return
            if drawn:
                last = tokens[-1]
                steps = [(t, grid.forward[(last, t)]) for t in grid.turns_from[last]]
            else:
                steps = [(0, L) for L in letters]
            for t, L in steps:
                if remaining.get(L, 0) - counts[L] <= 0:
                    continue
                d = (dirk + t) % n
                pushed = []
                for (strokes, turn), twin in zip(walks, twins):
                    if strokes.push(pos, d, dirk if drawn else None) is not None:
                        break
                    pushed.append(strokes)
                    if turn is not None:
                        # the copy's first edge follows w's last, in direction 0
                        if strokes.push(twin, (d + turn) % n,
                                        (dirk + turn) % n if drawn else 0) is not None:
                            break
                        pushed.append(strokes)
                else:
                    tokens.extend((t, L))
                    counts[L] += 1
                    grow(add_vec(pos, units[d]), d, drawn + 1, tuple(
                        twin if turn is None else add_vec(twin, units[(d + turn) % n])
                        for (_, turn), twin in zip(walks, twins)))
                    counts[L] -= 1
                    del tokens[-2:]
                for strokes in pushed:
                    strokes.pop()

        grow((0,) * phi(n), 0, 0, (target,) * len(walks))
        grow = None  # the closure refers to itself; free the walk's state now
        return out

    targets = _lambda_targets(n, R)
    self_turns = {L: [tr.turn for tr in grid.transitions if tr.src == tr.dst == L]
                  for L in letters}

    for target in targets:
        dist = distances_to(target)

        def assign(idx: int, remaining: dict[str, int], prods: dict[str, Word]):
            if idx == len(letters):
                cs = CurveSet.make(f"search-{len(found)}", grid, prods)
                try:
                    if order(cs) != R:
                        return
                except UnequalRowSums:
                    return
                if is_invalid(cs):
                    return
                key = sortable(prods)
                mirror_class = key
                if sign_symmetric:
                    mirror_class = min(key, sortable({
                        L: Word(tuple(normalize_turn(-t, n) if isinstance(t, int) else t
                                      for t in w.tokens))
                        for L, w in prods.items()
                    }))
                kept = found.get(mirror_class)
                if kept is None or key < kept[0]:
                    found[mirror_class] = (key, cs)
                return
            L = letters[idx]
            for w, counts in word_candidates(target, dist, remaining, self_turns[L]):
                rem2 = dict(remaining)
                ok = True
                for X, c in counts.items():
                    rem2[X] = rem2.get(X, 0) - c
                    if rem2[X] < 0:
                        ok = False
                if ok:
                    assign(idx + 1, rem2, {**prods, L: w})

        try:
            assign(0, {L: R for L in letters}, {})
        except SearchBudgetExceeded:
            complete = False
            break

    results = [cs.with_name(f"found-{i + 1}")
               for i, (_, cs) in enumerate(sorted(found.values(), key=lambda kept: kept[0]))]
    return SearchResult(results, complete, nodes)
