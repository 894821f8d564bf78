"""The .gcs text format for grids and curve-sets.

    # comment
    grid square { turn = 4; letters = F; transitions = F+F, F-F }
    curveset r5 on square { F |--> F+F+F-F-F }
    curveset zigzag turn = 3 { F |--> F+F-F  H |--> H+F-F-F+H0H }

Words, in productions and transitions, follow the one grammar of
``words.parse_word``, read once the turn resolution n is known: a turn run
is a maximal same-character run of at most n/2 units, and '!' (the U-turn,
+n/2) needs an even n and double edges.  A curve-set reads n and double
from its grid; a freeform set (``turn = N``, N >= 3) has double edges.  A
trailing backslash continues a line.  Forward references from curve-sets
to grids are resolved before returning.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .gridmodel import GridSpec, Transition
from .lsystem import CurveSet
from .words import Word, WordError, format_turn, parse_word


class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        self.line = line
        self.col = col
        super().__init__(f"line {line}, column {col}: {message}")


@dataclass
class _Token:
    kind: str  # word, punct, eof
    text: str
    line: int
    col: int


_PUNCT = {"{", "}", "=", ";", ","}


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
class SpecDocument:
    items: list = field(default_factory=list)

    def grids(self) -> dict[str, GridSpec]:
        return {it.name: it for it in self.items if isinstance(it, GridSpec)}

    def curvesets(self) -> dict[str, CurveSet]:
        return {it.name: it for it in self.items if isinstance(it, CurveSet)}


def _word(tok: _Token, n: int, double: bool) -> Word:
    """The word in a token, read by ``parse_word`` once n is known."""
    try:
        return parse_word(tok.text, n, double)
    except WordError as e:
        raise ParseError(str(e), tok.line, tok.col + e.offset) from None


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
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

    def expect_word(self) -> _Token:
        t = self.next()
        if t.kind != "word":
            raise ParseError(f"expected a word, found {t.text!r}", t.line, t.col)
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
            else:
                raise ParseError(
                    f"expected 'grid' or 'curveset', found {t.text!r}", t.line, t.col
                )
        return self._resolve(raw_items)

    def _turn(self) -> int:
        """``turn = N``, the turn resolution of a grid or a freeform set."""
        self.expect("turn")
        self.expect("=")
        t = self.next()
        try:
            n = int(t.text)
        except ValueError:
            raise ParseError("turn resolution must be an integer", t.line, t.col) from None
        if n < 3:
            raise ParseError("turn resolution must be >= 3", t.line, t.col)
        return n

    def _grid(self):
        self.expect("grid")
        name = self.expect_name()
        self.expect("{")
        n = self._turn()
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
        grid = GridSpec(name.text, n, tuple(letters), tuple(transitions), double)
        return ("grid", name, grid)

    def _transition(
        self, tok: _Token, n: int, double: bool, letters: list[str]
    ) -> Transition:
        tokens = _word(tok, n, double).tokens
        if len(tokens) != 3 or not isinstance(tokens[1], int):
            raise ParseError(f"malformed transition {tok.text!r}", tok.line, tok.col)
        for c in tokens[::2]:
            if c not in letters:
                raise ParseError(f"unknown letter {c!r}", tok.line, tok.col)
        return Transition(*tokens)

    def _curveset(self):
        self.expect("curveset")
        name = self.expect_name()
        grid_ref: _Token | None = None
        turn: int | None = None
        t = self.peek()
        if t.text == "on":
            self.next()
            grid_ref = self.expect_name()
        elif t.text == "turn":
            turn = self._turn()
        else:
            raise ParseError(f"expected 'on' or 'turn', found {t.text!r}", t.line, t.col)
        self.expect("{")
        maps: list[tuple[_Token, _Token]] = []
        while True:
            t = self.next()
            if t.text == "}":
                break
            if t.kind != "word" or len(t.text) != 1 or not t.text.isalpha():
                raise ParseError(
                    f"expected a letter, found {t.text!r}", t.line, t.col
                )
            arrow = self.next()
            if arrow.text != "|-->":
                raise ParseError(
                    f"expected '|-->', found {arrow.text!r}", arrow.line, arrow.col
                )
            maps.append((t, self.expect_word()))
        return ("curveset", name, grid_ref, turn, maps)

    def _resolve(self, raw_items: list) -> SpecDocument:
        doc = SpecDocument()
        grids = {item[2].name: item[2] for item in raw_items if item[0] == "grid"}
        names: set[str] = set()
        for kind, name, *rest in raw_items:
            if name.text in names:
                raise ParseError(f"duplicate name {name.text!r}", name.line, name.col)
            names.add(name.text)
            if kind == "grid":
                doc.items.append(rest[0])
            else:
                grid_ref, turn, maps = rest
                if grid_ref is not None:
                    grid = grids.get(grid_ref.text)
                    if grid is None:
                        raise ParseError(
                            f"unknown grid {grid_ref.text!r}", grid_ref.line, grid_ref.col
                        )
                    n, double = grid.n, grid.double
                else:
                    grid = None
                    n, double = turn, True
                prods: dict[str, Word] = {}
                for t, w in maps:
                    letter = t.text
                    if letter in prods:
                        raise ParseError(f"duplicate production for {letter!r}", t.line, t.col)
                    if grid is not None and letter not in grid.letters:
                        raise ParseError(
                            f"letter {letter!r} not in grid {grid.name!r}", t.line, t.col
                        )
                    prods[letter] = _word(w, n, double)
                if grid is not None:
                    for t, _ in maps:
                        for c in prods[t.text].letters():
                            if c not in grid.letters:
                                raise ParseError(
                                    f"letter {c!r} not in grid {grid.name!r}", t.line, t.col
                                )
                doc.items.append(CurveSet.make(name.text, grid, prods, turn))
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
            for letter, w in item.productions:
                lines.append(f"  {letter} |--> {w.to_string(item.n, item.double)}")
            lines.append("}")
            chunks.append("\n".join(lines))
    return "\n\n".join(chunks) + ("\n" if chunks else "")
