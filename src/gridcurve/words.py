"""Words: alternating edge letters and integer turn amounts.

A word like ``F+F--F`` is stored as the token tuple ``('F', 1, 'F', -2, 'F')``.
Turns count in units of 2*pi/n for whatever grid the word is drawn on; the
U-turn on double-edge grids is written ``!`` and stored as +n/2.  Boundary
words of tiles carry a trailing turn, e.g. ``[A++]^6`` expands to six letters
``A`` with a ``++`` after each.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator


class WordError(ValueError):
    """A malformed word or token; ``offset`` is the index of the offending
    character when the error comes from parsing text."""

    def __init__(self, message: str, offset: int | None = None):
        super().__init__(message)
        self.offset = offset


def _merge_tokens(tokens: Iterable) -> tuple:
    out: list = []
    for tok in tokens:
        if isinstance(tok, int):
            if out and isinstance(out[-1], int):
                out[-1] += tok
            else:
                out.append(tok)
        elif isinstance(tok, str) and len(tok) == 1:
            out.append(tok)
        else:
            raise WordError(f"bad token {tok!r}")
    return tuple(out)


@dataclass(frozen=True)
class Word:
    """Immutable token sequence; adjacent turns are merged on construction."""

    tokens: tuple

    def __init__(self, tokens: Iterable = ()):
        object.__setattr__(self, "tokens", _merge_tokens(tokens))

    @classmethod
    def from_merged(cls, tokens: tuple) -> "Word":
        """A word of tokens that are already merged: single-character
        letters and ints, no two ints adjacent.  Nothing is checked."""
        word = object.__new__(cls)
        object.__setattr__(word, "tokens", tokens)
        return word

    def __len__(self) -> int:
        return len(self.tokens)

    def __iter__(self) -> Iterator:
        return iter(self.tokens)

    def __bool__(self) -> bool:
        return bool(self.tokens)

    def letters(self) -> list[str]:
        return [t for t in self.tokens if isinstance(t, str)]

    def nletters(self) -> int:
        return sum(map(str.__instancecheck__, self.tokens))

    def alphabet(self) -> set[str]:
        return set(self.letters())

    def concat(self, turn: int, other: "Word") -> "Word":
        return Word(self.tokens + (turn,) + other.tokens)

    def repeated(self, k: int) -> "Word":
        if k < 0:
            raise WordError("negative repetition")
        return Word(self.tokens * k)

    def reversed_complement(self, relabel: dict[str, str] | None = None) -> "Word":
        relabel = relabel or {}
        out = []
        for tok in reversed(self.tokens):
            if isinstance(tok, int):
                out.append(-tok)
            else:
                out.append(relabel.get(tok, tok))
        return Word(out)

    def normalized(self, n: int) -> "Word":
        """Reduce every turn mod n into (-n/2, n/2]."""
        from .exactgeom import normalize_turn

        return Word(
            normalize_turn(t, n) if isinstance(t, int) else t for t in self.tokens
        )

    def pairs(self) -> list[tuple[str, int, str]]:
        """(letter, turn, letter) for each two consecutive letters, in order.
        The turn is 0 between adjacent letters, which ``trace_tokens`` draws
        straight on."""
        out = []
        last, turn = None, 0
        for tok in self.tokens:
            if isinstance(tok, int):
                turn = tok
            else:
                if last is not None:
                    out.append((last, turn, tok))
                last, turn = tok, 0
        return out

    def to_string(self, n: int | None = None, double: bool = True) -> str:
        parts = []
        for tok in self.tokens:
            if isinstance(tok, str):
                parts.append(tok)
            else:
                parts.append(format_turn(tok, n, double))
        return "".join(parts)

    def __str__(self) -> str:
        return self.to_string()

    def __repr__(self) -> str:
        return f"Word({self.to_string()!r})"


def format_turn(t: int, n: int | None = None, double: bool = True) -> str:
    if t == 0:
        return "0"
    if n is not None:
        if abs(t) > n // 2:
            raise WordError(f"turn {t} not printable at resolution {n}")
        if n % 2 == 0 and t == n // 2 and double:
            return "!"
    return ("+" if t > 0 else "-") * abs(t)


def parse_word(text: str, n: int | None = None, double: bool = True,
               merge_adjacent: bool = False) -> Word:
    """Parse a bare word like ``F+F-F`` or a tile form ``[A++]^6``.

    This is the one reader of the word grammar: letters, maximal runs of
    ``+`` or ``-`` (one unit each), ``0``, and ``!``.  With n known, a run
    longer than n/2 is rejected.  ``!`` is the U-turn, +n/2; it needs a
    known even n and double edges.  Adjacent turns are rejected unless
    merge_adjacent is set (rewrite recipes produce them legitimately).
    A ``WordError`` raised here carries the offset in ``text`` of the
    offending character.
    """
    lo, hi, k = 0, len(text), 1
    if text.lstrip().startswith("["):
        lo, hi = text.index("[") + 1, text.find("]")
        if hi < 0:
            raise WordError("tile form needs a closing ']'", len(text))
        rest = text[hi + 1 :].strip()
        if not rest.startswith("^") or not rest[1:].strip().isdecimal():
            raise WordError("tile form needs an exponent: [word]^k", hi + 1)
        k = int(rest[1:])
        if k < 1:
            raise WordError("tile form needs an exponent >= 1", hi + 1)
    tokens: list = []
    i = lo
    while i < hi:
        c = text[i]
        start = i
        i += 1
        if c.isalpha():
            tokens.append(c)
            continue
        if c.isspace():
            continue
        if c in "+-":
            while i < hi and text[i] == c:
                i += 1
            run = i - start
            if n is not None and run > n // 2:
                raise WordError(f"turn of {run} exceeds n/2 = {n // 2} units", start)
            turn = run if c == "+" else -run
        elif c == "0":
            turn = 0
        elif c == "!":
            if n is None:
                raise WordError("'!' needs a known turn resolution", start)
            if n % 2:
                raise WordError("'!' needs an even turn resolution", start)
            if not double:
                raise WordError("'!' is only valid on double-edge grids", start)
            turn = n // 2
        else:
            raise WordError(f"unexpected character {c!r} in word", start)
        if not merge_adjacent and tokens and isinstance(tokens[-1], int):
            raise WordError("adjacent turns; merge them in the source", start)
        tokens.append(turn)
    return Word(tokens * k)
