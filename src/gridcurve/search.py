"""Combinatorial searches: grid colorings on a torus, and curve-sets of a
given order.

The coloring search assigns letters to the directed edges of a toroidal
patch subject to the unique transition property in both directions,
pruning contradictions as soon as the partial transition tables force
them.  Results are canonicalized under letter permutation, torus
translation, and (by default) the torus rotations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .exactgeom import (
    LatticeSolver,
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
    EdgeKey,
    GridSpec,
    Transition,
    check_grid,
    detect_translation_lattice,
    realize,
)
from .lsystem import CurveSet, UnequalRowSums, order, subst_matrix
from .validator import INVALID, check_self_avoiding, validate
from .words import Word


class SearchBudgetExceeded(RuntimeError):
    pass


@dataclass
class TorusPatch:
    """The grid modulo the lattice spanned by R*v1 and C*v2.

    Vertices are reduced exactly: a point is identified with an existing
    representative when their difference decomposes integrally over the
    lattice basis.
    """

    base: GridSpec
    R: int
    C: int
    v1: Point
    v2: Point
    edges: list[tuple[tuple, int, str]] = field(default_factory=list)
    index: dict[EdgeKey, int] = field(default_factory=dict)

    @staticmethod
    def build(base: GridSpec, R: int, C: int,
              vectors: tuple[Point, Point] | None = None) -> "TorusPatch":
        if vectors is None:
            v1, v2 = detect_translation_lattice(base)
        else:
            v1, v2 = vectors
        tp = TorusPatch(base, R, C, v1, v2)
        tp._fill()
        return tp

    def _fill(self) -> None:
        n = self.base.n
        units = unit_coeffs(n)
        solver = LatticeSolver(self.v1.scaled(self.R), self.v2.scaled(self.C))
        reps: list[tuple] = []

        def reduce_point(p: tuple) -> tuple:
            pt = Point(n, p)
            for q in reps:
                if solver.decompose(pt - Point(n, q)) is not None:
                    return q
            reps.append(p)
            return p

        seed = (reduce_point((0,) * phi(n)), 0)
        self.index[seed] = 0
        self.edges.append((seed[0], 0, self.base.seed_letter()))
        frontier = [0]
        while frontier:
            new_frontier = []
            for ei in frontier:
                pos, k, letter = self.edges[ei]
                head = reduce_point(add_vec(pos, units[k]))
                for t in self.base.turns_from.get(letter, ()):
                    dst = self.base.forward[(letter, t)]
                    self._claim((head, (k + t) % n), dst, new_frontier)
                for tr in self.base.transitions:
                    if tr.dst != letter:
                        continue
                    k0 = (k - tr.turn) % n
                    tail0 = reduce_point(sub_vec(pos, units[k0]))
                    self._claim((tail0, k0), tr.src, new_frontier)
            frontier = new_frontier

    def _claim(self, edge: EdgeKey, letter: str, frontier: list[int]) -> None:
        got = self.index.get(edge)
        if got is None:
            self.index[edge] = len(self.edges)
            self.edges.append((edge[0], edge[1], letter))
            frontier.append(len(self.edges) - 1)
        else:
            if self.edges[got][2] != letter:
                raise ValueError(
                    f"torus quotient conflicts with the coloring at {edge}"
                )

    def __len__(self) -> int:
        return len(self.edges)

    def letter_counts(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for _, _, letter in self.edges:
            out[letter] = out.get(letter, 0) + 1
        return out

    def successor(self, ei: int, t: int) -> int | None:
        n = self.base.n
        units = unit_coeffs(n)
        pos, k, _ = self.edges[ei]
        head = add_vec(pos, units[k])
        head = self._find_rep(head)
        return self.index.get((head, (k + t) % n))

    def _find_rep(self, p: tuple) -> tuple:
        n = self.base.n
        solver = LatticeSolver(self.v1.scaled(self.R), self.v2.scaled(self.C))
        pt = Point(n, p)
        for (q, _k), _i in self.index.items():
            if solver.decompose(pt - Point(n, q)) is not None:
                return q
        return p

    def symmetries(self, point_group: bool = True) -> list[list[int]]:
        """Edge permutations induced by maps x -> zeta^j x + u and, with the
        point group enabled, x -> zeta^j conj(x) + u, that preserve the base
        grid.  point_group=False keeps only the torus translations."""
        from .exactgeom import conj_vec

        n = self.base.n
        solver = LatticeSolver(self.v1.scaled(self.R), self.v2.scaled(self.C))
        vertices = {pos for pos, _, _ in self.edges}
        perms: list[list[int]] = []
        rot_range = range(n) if point_group else range(1)
        flips = (False, True) if point_group else (False,)
        for flip in flips:
            for j in rot_range:
                for u in vertices:
                    perm: list[int] = []
                    ok = True
                    for pos, k, letter in self.edges:
                        base_pos = conj_vec(pos, n) if flip else pos
                        q = add_vec(rotate_vec(base_pos, j, n), u)
                        k2 = ((j - k) if flip else (k + j)) % n
                        target = None
                        ptq = Point(n, q)
                        for (rep, kk), idx in self.index.items():
                            if kk != k2:
                                continue
                            if solver.decompose(ptq - Point(n, rep)) is not None:
                                target = idx
                                break
                        if target is None or self.edges[target][2] != letter:
                            ok = False
                            break
                        perm.append(target)
                    if ok and len(set(perm)) == len(perm):
                        perms.append(perm)
        return perms


@dataclass
class Coloring:
    """A letter assignment to torus edges satisfying unique transitions."""

    torus: TorusPatch
    assignment: tuple[int, ...]
    num_colors: int
    minimal_vector: tuple[int, int]

    def letters(self) -> tuple[str, ...]:
        return tuple("ABCDEFGHIJKLMNOPQRSTUVWX"[i] for i in range(self.num_colors))

    def to_gridspec(self, name: str) -> GridSpec:
        letters = self.letters()
        trans: set[Transition] = set()
        base = self.torus.base
        for ei, (_, _, baseletter) in enumerate(self.torus.edges):
            for t in base.turns_from[baseletter]:
                sj = self.torus.successor(ei, t)
                if sj is None:
                    continue
                trans.add(
                    Transition(letters[self.assignment[ei]], t,
                               letters[self.assignment[sj]])
                )
        double = base.double
        return GridSpec(name, base.n, letters, tuple(sorted(
            trans, key=lambda tr: (tr.src, tr.turn, tr.dst))), double)


def _canonical_form(colors: Sequence[int], perms: list[list[int]]) -> tuple[int, ...]:
    best: tuple[int, ...] | None = None
    for perm in perms:
        moved = [0] * len(colors)
        for i, c in enumerate(colors):
            moved[perm[i]] = c
        relabel: dict[int, int] = {}
        out = []
        for c in moved:
            if c not in relabel:
                relabel[c] = len(relabel)
            out.append(relabel[c])
        cand = tuple(out)
        if best is None or cand < best:
            best = cand
    return best


def search_colorings(
    base: GridSpec,
    R: int,
    C: int,
    m: int,
    dedup_rotations: bool = True,
    budget: int = 10_000_000,
) -> list[Coloring]:
    """All colorings of the R x C torus with exactly m letters, canonical
    under letter permutation, translation, and optionally rotation."""
    if R < 1 or C < 1 or m < 1:
        raise ValueError("R, C, m must be >= 1")
    torus = TorusPatch.build(base, R, C)
    n = base.n
    N = len(torus)
    succ: dict[int, list[tuple[int, int]]] = {}
    pred: dict[int, list[tuple[int, int]]] = {}
    turn_values = sorted({t.turn for t in base.transitions})
    for ei in range(N):
        baseletter = torus.edges[ei][2]
        for t in base.turns_from[baseletter]:
            sj = torus.successor(ei, t)
            if sj is None:
                raise ValueError("torus successor missing; lattice too small")
            succ.setdefault(ei, []).append((t, sj))
            pred.setdefault(sj, []).append((t, ei))

    results: dict[tuple[int, ...], tuple[int, ...]] = {}
    nodes = 0
    succ1 = {(ei, t): sj for ei, pairs in succ.items() for t, sj in pairs}
    pred1 = {(sj, t): ei for sj, pairs in pred.items() for t, ei in pairs}

    def propagate(colors: list[int], fwd: dict, bwd: dict, queue: list[int]) -> bool:
        rules: list[tuple[int, int, int]] = []

        def set_color(e: int, c: int) -> bool:
            if colors[e] == c:
                return True
            if colors[e] >= 0:
                return False
            colors[e] = c
            queue.append(e)
            return True

        def add_rule(c: int, t: int, cs: int) -> bool:
            key, rkey = (c, t), (t, cs)
            if key in fwd:
                return fwd[key] == cs
            if rkey in bwd and bwd[rkey] != c:
                return False
            fwd[key] = cs
            bwd[rkey] = c
            rules.append((c, t, cs))
            return True

        while queue or rules:
            while rules:
                c, t, cs = rules.pop()
                for ej in range(N):
                    if colors[ej] == c:
                        sj = succ1.get((ej, t))
                        if sj is not None and not set_color(sj, cs):
                            return False
                    if colors[ej] == cs:
                        pj = pred1.get((ej, t))
                        if pj is not None and not set_color(pj, c):
                            return False
            if not queue:
                break
            ei = queue.pop()
            c = colors[ei]
            for t, sj in succ.get(ei, ()):
                cs = colors[sj]
                if cs >= 0:
                    if not add_rule(c, t, cs):
                        return False
                elif (c, t) in fwd:
                    if not set_color(sj, fwd[(c, t)]):
                        return False
            for t, pj in pred.get(ei, ()):
                cp = colors[pj]
                if cp >= 0:
                    if not add_rule(cp, t, c):
                        return False
                elif (t, c) in bwd:
                    if not set_color(pj, bwd[(t, c)]):
                        return False
        return True

    sym_perms = torus.symmetries(point_group=dedup_rotations)

    def dfs(colors: list[int], fwd: dict, bwd: dict, used: int):
        nonlocal nodes
        nodes += 1
        if nodes > budget:
            raise SearchBudgetExceeded(f"over {budget} nodes")
        try:
            ei = colors.index(-1)
        except ValueError:
            if used == m:
                canon = _canonical_form(colors, sym_perms)
                if canon not in results:
                    results[canon] = tuple(colors)
            return
        upper = min(used + 1, m)
        for c in range(upper):
            trial = colors[:]
            trial[ei] = c
            f2, b2 = dict(fwd), dict(bwd)
            if propagate(trial, f2, b2, [ei]):
                dfs(trial, f2, b2, max(used, c + 1))

    initial = [-1] * N
    initial[0] = 0
    fwd0: dict = {}
    bwd0: dict = {}
    if propagate(initial, fwd0, bwd0, [0]):
        dfs(initial, fwd0, bwd0, 1)

    out: list[Coloring] = []
    for canon, colors in sorted(results.items()):
        minvec = _minimal_vector(torus, colors, R, C)
        out.append(Coloring(torus, colors, m, minvec))
    return out


def _minimal_vector(
    torus: TorusPatch, colors: Sequence[int], R: int, C: int
) -> tuple[int, int]:
    n = torus.base.n
    solver = LatticeSolver(torus.v1.scaled(torus.R), torus.v2.scaled(torus.C))

    def preserved(shift: Point) -> bool:
        for (pos, k, _), c in zip(torus.edges, colors):
            q = add_vec(pos, shift.coeffs)
            target = None
            ptq = Point(n, q)
            for (rep, kk), idx in torus.index.items():
                if kk != k:
                    continue
                if solver.decompose(ptq - Point(n, rep)) is not None:
                    target = idx
                    break
            if target is None or colors[target] != c:
                return False
        return True

    r = next(d for d in range(1, R + 1) if R % d == 0 and preserved(torus.v1.scaled(d)))
    c = next(d for d in range(1, C + 1) if C % d == 0 and preserved(torus.v2.scaled(d)))
    return (r, c)


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
    constraints: dict[str, Word] | None = None,
    budget: int = 2_000_000,
    coverage_k: int = 3,
) -> SearchResult:
    """Depth-first enumeration of curve-sets of the given order.

    Productions are built along grid transitions with a common displacement
    target of squared length R, pruned by partial self-avoidance and
    distance; emitted sets pass validation.  Mirror-image duplicates are
    removed when the transition set is closed under turn negation.
    """
    constraints = constraints or {}
    n = grid.n
    letters = grid.letters
    units = unit_coeffs(n)
    nodes = 0
    complete = True
    results: list[CurveSet] = []
    seen_keys: set = set()

    sign_symmetric = all(
        any(t2.src == t.src and t2.dst == t.dst and
            t2.turn == normalize_turn(-t.turn, n) for t2 in grid.transitions)
        for t in grid.transitions
    )

    max_len = R * len(letters) - (len(letters) - 1)

    def word_candidates(letter: str, target: tuple, remaining: dict[str, int]):
        """Yield production words for one letter, given remaining per-letter
        occurrence budgets (row-sum bookkeeping)."""
        nonlocal nodes, complete
        target_pt = Point(n, target)
        out: list[tuple[Word, dict[str, int]]] = []

        def rec(tokens: list, pos: tuple, dirk: int, counts: dict[str, int],
                segs: dict, seen_edges: set, chords: dict, prev_dir: int | None):
            nonlocal nodes, complete
            nodes += 1
            if nodes > budget:
                complete = False
                return
            tot = sum(counts.values())
            if tokens and isinstance(tokens[-1], str):
                if pos == target and (dirk % n) == 0 and tot >= 1:
                    out.append((Word(tuple(tokens)), dict(counts)))
                # continue growing regardless
            room = max_len - tot
            if room <= 0:
                return
            dist = abs(Point(n, pos).to_complex() - target_pt.to_complex())
            if dist > room + 1e-9:
                return
            cur_letter = tokens[-1] if tokens and isinstance(tokens[-1], str) else None
            if cur_letter is None:
                next_letters = letters  # first letter: anything
                turn_opts = [None]
            else:
                turn_opts = grid.turns_from[cur_letter]
            if cur_letter is None:
                for L in letters:
                    if remaining.get(L, 0) - counts.get(L, 0) <= 0:
                        continue
                    _try(tokens, None, L, pos, dirk, counts, segs, seen_edges,
                         chords)
            else:
                for t in turn_opts:
                    L = grid.forward[(cur_letter, t)]
                    if remaining.get(L, 0) - counts.get(L, 0) <= 0:
                        continue
                    _try(tokens, t, L, pos, dirk, counts, segs, seen_edges,
                         chords)

        def _try(tokens, turn, L, pos, dirk, counts, segs, seen_edges, chords):
            d2 = dirk if turn is None else (dirk + turn) % n
            edge = (pos, d2)
            if edge in seen_edges:
                return
            head = add_vec(pos, units[d2])
            skey = (pos, head) if pos <= head else (head, pos)
            orient = 1 if pos <= head else -1
            prevo = segs.get(skey)
            if prevo is not None and (prevo == orient or not grid.double):
                return
            # vertex chord check
            m4 = 4 * n
            new_chords = None
            if turn is not None:
                in_pos = (4 * dirk + 2 * n - 1) % m4
                out_pos = (4 * d2 + 1) % m4
                chord = (in_pos, out_pos)
                at = chords.get(pos, ())
                from .validator import _chords_cross
                for other in at:
                    if _chords_cross(chord, other, m4):
                        return
                new_chords = dict(chords)
                new_chords[pos] = tuple(at) + (chord,)
            toks2 = list(tokens)
            if turn is not None:
                toks2.append(turn)
            toks2.append(L)
            counts2 = dict(counts)
            counts2[L] = counts2.get(L, 0) + 1
            segs2 = dict(segs)
            segs2[skey] = 2 if prevo is not None else orient
            rec(toks2, head, d2, counts2, segs2, seen_edges | {edge},
                new_chords if new_chords is not None else chords, dirk)

        rec([], (0,) * phi(n), 0, {}, {}, set(), {}, None)
        return out

    targets = _lambda_targets(n, R)
    free_letters = [L for L in letters if L not in constraints]

    for target in targets:
        def assign(idx: int, remaining: dict[str, int], acc: dict[str, Word]):
            nonlocal complete
            if idx == len(free_letters):
                prods = dict(acc)
                for L, w in constraints.items():
                    prods[L] = w
                cs = CurveSet.make(f"search-{len(results)}", grid, prods)
                try:
                    if order(cs) != R:
                        return
                except UnequalRowSums:
                    return
                rep = validate(cs, coverage_k=coverage_k)
                if rep.verdict == INVALID:
                    return

                def sortable(ps):
                    return tuple(sorted(
                        (L, w.to_string(n, grid.double)) for L, w in ps.items()
                    ))

                key = sortable(prods)
                if sign_symmetric:
                    mirrored = {
                        L: Word(tuple(-t if isinstance(t, int) else t
                                      for t in w.tokens))
                        for L, w in prods.items()
                    }
                    mirror = sortable(mirrored)
                    if mirror < key:
                        key = mirror
                        prods = mirrored
                        cs = CurveSet.make(cs.name, grid, prods)
                if key in seen_keys:
                    return
                seen_keys.add(key)
                results.append(cs.with_name(f"found-{len(results) + 1}"))
                return
            L = free_letters[idx]
            for w, counts in word_candidates(L, target, remaining):
                rem2 = dict(remaining)
                ok = True
                for X, c in counts.items():
                    rem2[X] = rem2.get(X, 0) - c
                    if rem2[X] < 0:
                        ok = False
                if ok:
                    acc2 = dict(acc)
                    acc2[L] = w
                    assign(idx + 1, rem2, acc2)

        rem0 = {L: R for L in letters}
        for L, w in constraints.items():
            for X in w.letters():
                rem0[X] -= 1
        assign(0, rem0, {})

    results.sort(key=lambda cs: tuple(sorted(
        (L, w.to_string(n, grid.double)) for L, w in cs.productions)))
    results = [cs.with_name(f"found-{i + 1}") for i, cs in enumerate(results)]
    return SearchResult(results, complete, nodes)
