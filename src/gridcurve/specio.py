"""The .gcs text format for grids, curve-sets, and axioms.

    # comment
    grid square { turn = 4; letters = F; transitions = F+F, F-F }
    curveset r5 on square { F |--> F+F+F-F-F }
    curveset zigzag turn = 3 { F |--> F+F-F  H |--> H+F-F-F+H0H }
    axiom hexring = [A++]^6

Turn runs are maximal same-character runs; '!' (the U-turn) is only valid
on grids declared double.  A trailing backslash continues a line.  Forward
references from curve-sets to grids are resolved before returning.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .gridmodel import GridSpec, Transition
from .lsystem import CurveSet
from .words import Word, format_turn


class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        self.line = line
        self.col = col
        super().__init__(f"line {line}, column {col}: {message}")


@dataclass
class _Token:
    kind: str  # word, punct
    text: str
    line: int
    col: int


_PUNCT = {"{", "}", "=", ";", ",", "^", "[", "]"}


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if c == "\\" and i + 1 < n and text[i + 1] == "\n":
            i += 2
            line += 1
            col = 1
            continue
        if c == "\n":
            if tokens and tokens[-1].kind != "break":
                tokens.append(_Token("break", "", line, col))
            i += 1
            line += 1
            col = 1
            continue
        if c.isspace():
            i += 1
            col += 1
            continue
        if c in _PUNCT:
            tokens.append(_Token("punct", c, line, col))
            i += 1
            col += 1
            continue
        j = i
        while j < n and not text[j].isspace() and text[j] not in _PUNCT and text[j] != "#":
            if text[j] == "\\" and j + 1 < n and text[j + 1] == "\n":
                break
            j += 1
        tokens.append(_Token("word", text[i:j], line, col))
        col += j - i
        i = j
    tokens.append(_Token("eof", "", line, col))
    return tokens


@dataclass
class AxiomDef:
    name: str
    word: Word


@dataclass
class SpecDocument:
    items: list = field(default_factory=list)

    def grids(self) -> dict[str, GridSpec]:
        return {it.name: it for it in self.items if isinstance(it, GridSpec)}

    def curvesets(self) -> dict[str, CurveSet]:
        return {it.name: it for it in self.items if isinstance(it, CurveSet)}

    def axioms(self) -> dict[str, AxiomDef]:
        return {it.name: it for it in self.items if isinstance(it, AxiomDef)}


@dataclass
class _RawWord:
    """Letters and textual turn runs, resolved once the grid's n is known."""

    parts: list[tuple[str, str, int, int]]  # (kind, text, line, col)
    repeat: int = 1

    def resolve(self, n: int, double: bool) -> Word:
        tokens: list = []
        prev_turn = False
        for kind, text, line, col in self.parts:
            if kind == "letter":
                tokens.append(text)
                prev_turn = False
                continue
            if prev_turn:
                raise ParseError("adjacent turns; merge them in the source", line, col)
            prev_turn = True
            if text == "0":
                tokens.append(0)
            elif text == "!":
                if not double:
                    raise ParseError("'!' is only valid on double-edge grids", line, col)
                tokens.append(n // 2)
            else:
                run = len(text)
                if run > n // 2:
                    raise ParseError(
                        f"turn of {run} exceeds n/2 = {n // 2} units", line, col
                    )
                tokens.append(run if text[0] == "+" else -run)
        word = Word(tokens)
        if self.repeat != 1:
            word = word.repeated(self.repeat)
        return word


class _Parser:
    def __init__(self, text: str):
        self.tokens = [t for t in _tokenize(text)]
        self.pos = 0

    # breaks are only meaningful inside axiom definitions; skip elsewhere
    def peek(self, skip_breaks: bool = True) -> _Token:
        p = self.pos
        while skip_breaks and self.tokens[p].kind == "break":
            p += 1
        return self.tokens[p]

    def next(self, skip_breaks: bool = True) -> _Token:
        while skip_breaks and self.tokens[self.pos].kind == "break":
            self.pos += 1
        t = self.tokens[self.pos]
        self.pos += 1
        return t

    def expect(self, text: str) -> _Token:
        t = self.next()
        if t.text != text:
            raise ParseError(f"expected {text!r}, found {t.text!r}", t.line, t.col)
        return t

    def expect_name(self) -> _Token:
        t = self.next()
        if t.kind != "word" or not t.text or not t.text[0].isalnum():
            raise ParseError(f"expected a name, found {t.text!r}", t.line, t.col)
        return t

    def parse_document(self) -> SpecDocument:
        raw_items: list = []
        while True:
            t = self.peek()
            if t.kind == "eof":
                break
            if t.text == "grid":
                raw_items.append(self._grid())
            elif t.text == "curveset":
                raw_items.append(self._curveset())
            elif t.text == "axiom":
                raw_items.append(self._axiom())
            else:
                raise ParseError(
                    f"expected 'grid', 'curveset', or 'axiom', found {t.text!r}",
                    t.line,
                    t.col,
                )
        return self._resolve(raw_items)

    def _grid(self) -> GridSpec:
        self.expect("grid")
        name = self.expect_name().text
        self.expect("{")
        self.expect("turn")
        self.expect("=")
        t = self.next()
        try:
            n = int(t.text)
        except ValueError:
            raise ParseError(f"turn resolution must be an integer", t.line, t.col)
        if n < 3:
            raise ParseError("turn resolution must be >= 3", t.line, t.col)
        self.expect(";")
        self.expect("letters")
        self.expect("=")
        letters: list[str] = []
        while True:
            t = self.peek()
            if t.text == ";":
                if not letters:
                    raise ParseError("expected letters, found ';'", t.line, t.col)
                self.next()
                break
            t = self.next()
            if t.kind != "word" or not t.text.isalpha():
                raise ParseError(f"expected letters, found {t.text!r}", t.line, t.col)
            for c in t.text:
                if c in letters:
                    raise ParseError(f"duplicate letter {c!r}", t.line, t.col)
                letters.append(c)
        double = False
        if self.peek().text == "double":
            self.next()
            self.expect(";")
            double = True
        self.expect("transitions")
        self.expect("=")
        transitions: list[Transition] = []
        while True:
            t = self.next()
            if t.kind != "word":
                raise ParseError(f"expected a transition, found {t.text!r}", t.line, t.col)
            transitions.append(self._transition(t, n, double, letters))
            sep = self.next()
            if sep.text == ",":
                continue
            if sep.text == "}":
                break
            raise ParseError(f"expected ',' or '}}', found {sep.text!r}", sep.line, sep.col)
        return GridSpec(name, n, tuple(letters), tuple(transitions), double)

    def _transition(
        self, tok: _Token, n: int, double: bool, letters: list[str]
    ) -> Transition:
        text = tok.text
        if len(text) < 3 or not text[0].isalpha() or not text[-1].isalpha():
            raise ParseError(f"malformed transition {text!r}", tok.line, tok.col)
        src, dst = text[0], text[-1]
        mid = text[1:-1]
        for c, name in ((src, src), (dst, dst)):
            if c not in letters:
                raise ParseError(f"unknown letter {c!r}", tok.line, tok.col)
        if mid == "0":
            turn = 0
        elif mid == "!":
            if not double:
                raise ParseError(
                    "'!' is only valid on double-edge grids", tok.line, tok.col
                )
            turn = n // 2
        elif mid and all(c == "+" for c in mid):
            turn = len(mid)
        elif mid and all(c == "-" for c in mid):
            turn = -len(mid)
        else:
            raise ParseError(f"malformed turn {mid!r}", tok.line, tok.col)
        if abs(turn) > n // 2:
            raise ParseError(
                f"turn of {abs(turn)} exceeds n/2 = {n // 2} units", tok.line, tok.col
            )
        return Transition(src, turn, dst)

    def _raw_word(self, tok: _Token) -> _RawWord:
        parts: list[tuple[str, str, int, int]] = []
        text = tok.text
        col = tok.col
        i = 0
        while i < len(text):
            c = text[i]
            if c.isalpha():
                parts.append(("letter", c, tok.line, col + i))
                i += 1
            elif c in "+-":
                j = i
                while j < len(text) and text[j] == c:
                    j += 1
                parts.append(("turn", text[i:j], tok.line, col + i))
                i = j
            elif c in "0!":
                parts.append(("turn", c, tok.line, col + i))
                i += 1
            else:
                raise ParseError(f"unexpected {c!r} in word", tok.line, col + i)
        if not parts:
            raise ParseError("empty word", tok.line, tok.col)
        return _RawWord(parts)

    def _bracket_word(self) -> _RawWord:
        self.expect("[")
        t = self.next()
        raw = self._raw_word(t)
        self.expect("]")
        self.expect("^")
        t = self.next()
        try:
            raw.repeat = int(t.text)
        except ValueError:
            raise ParseError("exponent must be an integer", t.line, t.col)
        if raw.repeat < 1:
            raise ParseError("exponent must be >= 1", t.line, t.col)
        return raw

    def _curveset(self):
        self.expect("curveset")
        name = self.expect_name().text
        t = self.next()
        grid_ref: tuple[str, int, int] | None = None
        turn: int | None = None
        if t.text == "on":
            g = self.expect_name()
            grid_ref = (g.text, g.line, g.col)
        elif t.text == "turn":
            self.expect("=")
            tt = self.next()
            try:
                turn = int(tt.text)
            except ValueError:
                raise ParseError("turn resolution must be an integer", tt.line, tt.col)
        else:
            raise ParseError(f"expected 'on' or 'turn', found {t.text!r}", t.line, t.col)
        self.expect("{")
        maps: list[tuple[str, _RawWord, int, int]] = []
        while True:
            t = self.next()
            if t.text == "}":
                break
            if t.kind != "word" or len(t.text) != 1 or not t.text.isalpha():
                raise ParseError(
                    f"expected a letter, found {t.text!r}", t.line, t.col
                )
            letter = t.text
            arrow = self.next()
            if arrow.text != "|-->":
                raise ParseError(
                    f"expected '|-->', found {arrow.text!r}", arrow.line, arrow.col
                )
            w = self.next()
            if w.kind != "word":
                raise ParseError(f"expected a word, found {w.text!r}", w.line, w.col)
            maps.append((letter, self._raw_word(w), t.line, t.col))
        return ("curveset", name, grid_ref, turn, maps)

    def _axiom(self):
        self.expect("axiom")
        name = self.expect_name().text
        self.expect("=")
        if self.peek().text == "[":
            raw = self._bracket_word()
        else:
            t = self.next()
            raw = self._raw_word(t)
        return ("axiom", name, raw)

    def _resolve(self, raw_items: list) -> SpecDocument:
        doc = SpecDocument()
        grids: dict[str, GridSpec] = {}
        names: set[str] = set()
        for item in raw_items:
            if isinstance(item, GridSpec):
                grids[item.name] = item
        max_n = max((g.n for g in grids.values()), default=12)
        for item in raw_items:
            if isinstance(item, GridSpec):
                if item.name in names:
                    raise ParseError(f"duplicate name {item.name!r}", 1, 1)
                names.add(item.name)
                doc.items.append(item)
                continue
            kind = item[0]
            if kind == "curveset":
                _, name, grid_ref, turn, maps = item
                if name in names:
                    raise ParseError(f"duplicate name {name!r}", 1, 1)
                names.add(name)
                if grid_ref is not None:
                    gname, line, col = grid_ref
                    grid = grids.get(gname)
                    if grid is None:
                        raise ParseError(f"unknown grid {gname!r}", line, col)
                    n, double = grid.n, grid.double
                else:
                    grid = None
                    n, double = turn, True
                prods: dict[str, Word] = {}
                for letter, raw, line, col in maps:
                    if letter in prods:
                        raise ParseError(f"duplicate production for {letter!r}", line, col)
                    if grid is not None and letter not in grid.letters:
                        raise ParseError(
                            f"letter {letter!r} not in grid {grid.name!r}", line, col
                        )
                    prods[letter] = raw.resolve(n, double)
                if grid is not None:
                    for letter, w, line, col in (
                        (l, prods[l], line, col) for l, _, line, col in maps
                    ):
                        for c in w.letters():
                            if c not in grid.letters:
                                raise ParseError(
                                    f"letter {c!r} not in grid {grid.name!r}", line, col
                                )
                doc.items.append(CurveSet.make(name, grid, prods, turn))
            elif kind == "axiom":
                _, name, raw = item
                if name in names:
                    raise ParseError(f"duplicate name {name!r}", 1, 1)
                names.add(name)
                doc.items.append(AxiomDef(name, raw.resolve(max_n, True)))
        return doc


def parse(text: str) -> SpecDocument:
    return _Parser(text).parse_document()


def print_document(doc: SpecDocument) -> str:
    """Canonical text: parse(print_document(doc)) is structurally identical."""
    chunks: list[str] = []
    for item in doc.items:
        if isinstance(item, GridSpec):
            lines = [f"grid {item.name} {{"]
            lines.append(f"  turn = {item.n};")
            lines.append(f"  letters = {''.join(item.letters)};")
            if item.double:
                lines.append("  double;")
            trans = ", ".join(
                f"{t.src}{format_turn(t.turn, item.n, item.double)}{t.dst}"
                for t in item.transitions
            )
            lines.append(f"  transitions = {trans}")
            lines.append("}")
            chunks.append("\n".join(lines))
        elif isinstance(item, CurveSet):
            head = (
                f"curveset {item.name} on {item.grid.name} {{"
                if item.grid is not None
                else f"curveset {item.name} turn = {item.turn} {{"
            )
            lines = [head]
            n = item.n
            double = item.grid.double if item.grid is not None else True
            for letter, w in item.productions:
                lines.append(f"  {letter} |--> {w.to_string(n, double)}")
            lines.append("}")
            chunks.append("\n".join(lines))
        elif isinstance(item, AxiomDef):
            chunks.append(f"axiom {item.name} = {item.word.to_string()}")
    return "\n\n".join(chunks) + ("\n" if chunks else "")
