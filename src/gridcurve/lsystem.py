"""Curve-sets: one production word per edge class, plus the word transforms.

The substitution matrix counts letter r in the production of class c; its
common row sum is the order of the curve-set, which equals the squared
displacement of every non-constant production.  Curve families without a
common row sum exist but fall outside this framework; expansion and
rendering still work for them (a curve-set may carry no grid, only a turn
resolution).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, Sequence

from .exactgeom import normalize_turn
from .gridmodel import GridSpec
from .words import Word, WordError, parse_word


class UnequalRowSums(ValueError):
    """Row sums of the substitution matrix differ; no order is defined."""

    def __init__(self, row_sums: dict[str, int]):
        self.row_sums = row_sums
        super().__init__(f"row sums differ: {row_sums}")


class TransformError(ValueError):
    pass


@dataclass(frozen=True)
class CurveSet:
    """Productions for every letter of a grid; constants map to themselves.

    ``grid`` may be None for freeform families; then ``turn`` supplies the
    turn resolution and no grid-level validation applies.
    """

    name: str
    grid: GridSpec | None
    productions: tuple[tuple[str, Word], ...]
    turn: int | None = None

    @staticmethod
    def make(
        name: str,
        grid: GridSpec | None,
        productions: Mapping[str, Word],
        turn: int | None = None,
    ) -> "CurveSet":
        if grid is not None:
            missing = [c for c in grid.letters if c not in productions]
            if missing:
                raise WordError(f"no production for letters {missing}")
            extra = [c for c in productions if c not in grid.letters]
            if extra:
                raise WordError(f"productions for unknown letters {extra}")
            items = tuple((c, productions[c]) for c in grid.letters)
        else:
            items = tuple(sorted(productions.items()))
        return CurveSet(name, grid, items, turn)

    @property
    def n(self) -> int:
        if self.grid is not None:
            return self.grid.n
        if self.turn is None:
            raise ValueError(f"curve-set {self.name!r} has no turn resolution")
        return self.turn

    @property
    def double(self) -> bool:
        """Whether U-turns are allowed; freeform sets allow them."""
        return self.grid.double if self.grid is not None else True

    @cached_property
    def prod(self) -> dict[str, Word]:
        return dict(self.productions)

    @property
    def letters(self) -> tuple[str, ...]:
        if self.grid is not None:
            return self.grid.letters
        return tuple(c for c, _ in self.productions)

    @cached_property
    def constants(self) -> frozenset[str]:
        return frozenset(
            c for c, w in self.productions if w.tokens == (c,)
        )

    def production(self, letter: str) -> Word:
        return self.prod[letter]

    def with_name(self, name: str) -> "CurveSet":
        return CurveSet(name, self.grid, self.productions, self.turn)


def expand(cs: CurveSet, axiom: Word, k: int) -> Word:
    """Apply the productions k times to the axiom."""
    if k < 0:
        raise ValueError("iteration count must be >= 0")
    tokens: Sequence = axiom.tokens
    prod = {c: w.tokens for c, w in cs.productions}
    for _ in range(k):
        out: list = []
        for tok in tokens:
            if isinstance(tok, int):
                if out and isinstance(out[-1], int):
                    out[-1] += tok
                else:
                    out.append(tok)
            else:
                repl = prod.get(tok)
                if repl is None:
                    raise WordError(f"letter {tok!r} has no production")
                if repl and out and isinstance(out[-1], int) and isinstance(repl[0], int):
                    out[-1] += repl[0]
                    out.extend(repl[1:])
                else:
                    out.extend(repl)
        tokens = out
    # the loop merges every turn it writes into a turn before it
    return Word.from_merged(tuple(tokens))


def expand_tagged(cs: CurveSet, axiom: Word, k: int) -> tuple[Word, list[int]]:
    """Expand and tag every letter of the result with the index of the
    first-iterate edge it descends from (ancestor coloring): tag i repeats
    once per letter of the (k-1)-th iterate of first-iterate letter i."""
    word = expand(cs, axiom, k)
    if k == 0:
        return word, list(range(word.nletters()))
    first = expand(cs, axiom, 1).letters()
    sizes = {c: expand(cs, Word((c,)), k - 1).nletters() for c in set(first)}
    return word, [i for i, c in enumerate(first) for _ in range(sizes[c])]


@dataclass(frozen=True)
class SubstMatrix:
    """entries[r][c] = number of letters[r] in the production of letters[c]."""

    letters: tuple[str, ...]
    entries: tuple[tuple[int, ...], ...]

    def row_sums(self) -> dict[str, int]:
        return {
            c: sum(self.entries[i]) for i, c in enumerate(self.letters)
        }

    def __getitem__(self, rc: tuple[str, str]) -> int:
        r, c = rc
        return self.entries[self.letters.index(r)][self.letters.index(c)]

    def to_lists(self) -> list[list[int]]:
        return [list(row) for row in self.entries]

    def __str__(self) -> str:
        return "[" + ",".join(
            "[" + ",".join(str(x) for x in row) + "]" for row in self.entries
        ) + "]"


def subst_matrix(cs: CurveSet) -> SubstMatrix:
    letters = cs.letters
    idx = {c: i for i, c in enumerate(letters)}
    cols = {c: cs.production(c).letters() for c in letters}
    entries = tuple(
        tuple(cols[c].count(r) for c in letters) for r in letters
    )
    return SubstMatrix(letters, entries)


def order(cs: CurveSet) -> int:
    m = subst_matrix(cs)
    sums = m.row_sums()
    values = set(sums.values())
    if len(values) != 1:
        raise UnequalRowSums(sums)
    return values.pop()


def _reach(entries: Sequence[Sequence[int]], start: int) -> set[int]:
    """Letter indices reachable from start along the arcs c -> r, one for
    each r with entries[r][c] > 0 (r occurs in the production of c)."""
    seen = {start}
    todo = [start]
    while todo:
        v = todo.pop()
        for w, row in enumerate(entries):
            if w not in seen and row[v] > 0:
                seen.add(w)
                todo.append(w)
    return seen


def is_irreducible(m: SubstMatrix) -> bool:
    """True iff the letter-dependency digraph is strongly connected."""
    k = len(m.letters)
    return len(_reach(m.entries, 0)) == k and len(_reach(tuple(zip(*m.entries)), 0)) == k


def reachable_letters(m: SubstMatrix, letter: str) -> list[str]:
    seen = _reach(m.entries, m.letters.index(letter))
    return [c for i, c in enumerate(m.letters) if i in seen]


# Bound of the power iteration in ``spectral_radius``, and the relative
# change of the norm at which it counts as settled.  Hitting the bound leaves
# the radius, and the similarity dimension, undetermined (None).
_POWER_ITERATIONS = 100000
_POWER_TOLERANCE = 1e-12


def spectral_radius(entries: Sequence[Sequence[int]]) -> float | None:
    """Largest eigenvalue modulus of a nonnegative integer matrix; None when
    ``_POWER_ITERATIONS`` steps do not settle it.

    Power iteration on M + I (the shift forces aperiodicity so the
    iteration converges even for cyclic dependency structures).
    """
    k = len(entries)
    v = [1.0] * k
    prev = 0.0
    for _ in range(_POWER_ITERATIONS):
        w = [
            sum(entries[i][j] * v[j] for j in range(k)) + v[i]
            for i in range(k)
        ]
        norm = max(abs(x) for x in w)
        if norm == 0:
            return 0.0
        v = [x / norm for x in w]
        if abs(norm - prev) <= _POWER_TOLERANCE * max(1.0, norm):
            return norm - 1.0
        prev = norm
    return None


def dimension(cs: CurveSet, letter: str) -> float | None:
    """Similarity dimension of one curve: 2*log_R(rho) over the letters
    reachable from it; constants give 0, and an undetermined rho None."""
    r = order(cs)
    m = subst_matrix(cs)
    keep = reachable_letters(m, letter)
    idx = [m.letters.index(c) for c in keep]
    sub = [[m.entries[i][j] for j in idx] for i in idx]
    rho = spectral_radius(sub)
    if rho is None:
        return None
    if rho <= 1.0:
        return 0.0
    return 2.0 * math.log(rho) / math.log(r)


# -- word transforms ---------------------------------------------------


def make_folding(prod_l: Word) -> Word:
    """Companion production: reverse, swap + with -, and swap L with R."""
    if not prod_l.alphabet() <= {"L", "R"}:
        raise TransformError("folding construction needs the alphabet {L, R}")
    return prod_l.reversed_complement({"L": "R", "R": "L"})


def drop_letters_normalize(
    cs: CurveSet, drop: Iterable[str], target_n: int | None = None
) -> CurveSet:
    """Remove constant letters from all productions and merge the turns.

    Merged turns are reduced mod n into (-n/2, n/2].  With target_n the
    turns are rescaled by n/target_n (all merged turns must be divisible);
    half-turn results become U-turns on the coarser resolution.
    """
    if target_n is not None and target_n < 1:
        raise TransformError(f"--target-n must be >= 1, got {target_n}")
    drop = set(drop)
    n = cs.n
    bad = drop - cs.constants
    if bad:
        raise TransformError(f"letters {sorted(bad)} are not constants")
    out: dict[str, Word] = {}
    for letter, w in cs.productions:
        if letter in drop:
            continue
        kept = Word(t for t in w.tokens if isinstance(t, int) or t not in drop)
        kept = kept.normalized(n)
        if target_n is not None:
            if n % target_n:
                raise TransformError(f"{target_n} does not divide {n}")
            scale = n // target_n
            rescaled = []
            for t in kept.tokens:
                if isinstance(t, int):
                    if t % scale:
                        raise TransformError(
                            f"turn {t} not divisible by {scale} when rescaling"
                        )
                    rescaled.append(normalize_turn(t // scale, target_n))
                else:
                    rescaled.append(t)
            kept = Word(rescaled)
        out[letter] = kept
    return CurveSet.make(
        cs.name + "-dropped",
        None,
        out,
        turn=target_n if target_n is not None else n,
    )


def rewrite(text: str, rules: Sequence[tuple[str, str]], n: int | None = None) -> Word:
    """Apply ordered global textual substitutions, then reparse as a word
    (adjacent turn runs produced by the rules are merged)."""
    for find, repl in rules:
        text = text.replace(find, repl)
    return parse_word(text, n, merge_adjacent=True)


TRIANGLE_EMBED_RULES: tuple[tuple[str, str], ...] = (
    ("+", "p"),
    ("-", "m"),
    ("0", "n"),
    ("p", "B++D++E--C"),
    ("m", "B++D--E--C"),
    ("n", "B++D0E--C"),
    ("F", "+A-"),
)

SQUARE_POINT_RULES: tuple[tuple[str, str], ...] = (
    ("+", "+F+"),
    ("A", "+F-F-F+"),
    ("!", "--F--"),
)


def embed_triangle_word(text: str) -> Word:
    """Lift a one-letter triangle-grid word onto the five-letter grid whose
    A-edges form the triangle grid; the result uses turn resolution 6.  The
    ``+`` before the first A and the ``-`` after the last are dropped."""
    tokens = rewrite(text, TRIANGLE_EMBED_RULES, 6).tokens
    if tokens[:1] == (1,):
        tokens = tokens[1:]
    if tokens[-1:] == (-1,):
        tokens = tokens[:-1]
    return Word.from_merged(tokens)


def decorate_square_point_word(text: str) -> Word:
    """Re-render a double-square-grid word so it traverses the points of the
    truncated square grid; the result uses turn resolution 8."""
    return rewrite(text, SQUARE_POINT_RULES, 8)
