import random

import pytest

from gridcurve import catalog
from gridcurve.gridmodel import GridSpec
from gridcurve.lsystem import CurveSet
from gridcurve.specio import ParseError, SpecDocument, parse, print_document


def test_parse_3446_transitions():
    doc = parse(
        "grid g { turn = 12; letters = ABCDEF;\n"
        "  transitions = A++A, B++++C, C++++D, D++++B, E+++F, F+++E, \\\n"
        "    A---B, B---F, C--E, D---A, E--C, F---D }"
    )
    g = doc.grids()["g"]
    assert len(g.transitions) == 12
    assert g.forward[("B", 4)] == "C"
    assert g.has_transition("A", -3, "B")


def test_axiom_item_fails_at_its_token():
    with pytest.raises(ParseError) as exc:
        parse("grid h { turn = 12; letters = A; transitions = A++A }\n"
              "axiom ring = [A++]^6\n")
    assert (exc.value.line, exc.value.col) == (2, 1)
    assert "expected 'grid' or 'curveset', found 'axiom'" in str(exc.value)


def test_tile_word_semantics():
    doc = parse(
        "grid h { turn = 12; letters = A; transitions = A++A }\n"
        "curveset ring on h { A |--> [A++]^6 }\n"
    )
    w = doc.curvesets()["ring"].production("A")
    assert w.nletters() == 6
    assert [t for t in w.tokens if isinstance(t, int)] == [2] * 6
    assert isinstance(w.tokens[-1], int)


def test_undeclared_grid_position():
    with pytest.raises(ParseError) as exc:
        parse("curveset c on missing { F |--> F }")
    assert exc.value.line == 1
    assert exc.value.col == 15  # inside the token 'missing'


def test_round_trip_catalog_files():
    for fname in catalog.DATA_FILES:
        text = catalog.raw_text(fname)
        doc = parse(text)
        printed = print_document(doc)
        again = print_document(parse(printed))
        assert printed == again, fname


def test_round_trip_structural_equality():
    text = catalog.raw_text("g3464.gcs")
    doc = parse(text)
    doc2 = parse(print_document(doc))
    assert [type(i).__name__ for i in doc.items] == [
        type(i).__name__ for i in doc2.items
    ]
    for a, b in zip(doc.items, doc2.items):
        if isinstance(a, GridSpec):
            assert a == b
        elif isinstance(a, CurveSet):
            assert a.name == b.name and a.productions == b.productions


def test_empty_document():
    assert print_document(parse("")) == ""
    assert print_document(SpecDocument()) == ""


def test_ju19_file_contains_printed_maps():
    text = catalog.raw_text("g3464.gcs")
    assert "B---A++A++A---B++++B++++B---A---B---A++A---B++++B" in text


def _random_document(rng: random.Random) -> str:
    lines = []
    n = rng.choice([3, 4, 6, 8, 12])
    letters = "".join(
        sorted(rng.sample("ABCDEFGH", rng.randint(1, 4)))
    )
    trans = []
    seen_fwd = set()
    seen_bwd = set()
    for src in letters:
        for _ in range(rng.randint(1, 2)):
            t = rng.randint(-(n // 2), n // 2)
            if n % 2 == 0 and t == n // 2 and rng.random() < 0.7:
                t = rng.randint(0, n // 2 - 1)
            dst = rng.choice(letters)
            if (src, t) in seen_fwd or (t, dst) in seen_bwd:
                continue
            seen_fwd.add((src, t))
            seen_bwd.add((t, dst))
            trans.append((src, t, dst))
    if not trans:
        trans = [(letters[0], 1, letters[0])]
        seen_fwd = {(letters[0], 1)}
    double = any(n % 2 == 0 and t == n // 2 for _, t, _ in trans)
    def turn_text(t):
        if t == 0:
            return "0"
        if n % 2 == 0 and t == n // 2 and double:
            return "!"
        return ("+" if t > 0 else "-") * abs(t)

    lines.append(f"grid g {{ turn = {n}; letters = {letters};")
    if double:
        lines.append("  double;")
    lines.append(
        "  transitions = "
        + ", ".join(f"{s}{turn_text(t)}{d}" for s, t, d in trans)
        + " }"
    )
    # one curve-set with words walking along valid transitions
    prods = []
    for letter in letters:
        word = [letter]
        cur = letter
        for _ in range(rng.randint(0, 5)):
            options = [(t, d) for (s, t) in seen_fwd if s == cur
                       for d in [dict(((a, b), c) for a, b, c in trans).get((cur, t))]
                       if d]
            if not options:
                break
            t, d = rng.choice(options)
            word.append(turn_text(t))
            word.append(d)
            cur = d
        prods.append((letter, "".join(word)))
    lines.append("curveset c on g {")
    for letter, w in prods:
        lines.append(f"  {letter} |--> {w}")
    lines.append("}")
    return "\n".join(lines)


def test_fuzz_round_trip():
    rng = random.Random(99)
    for i in range(1000):
        text = _random_document(rng)
        try:
            doc = parse(text)
        except ParseError:
            continue  # generator occasionally builds duplicate transitions
        printed = print_document(doc)
        assert print_document(parse(printed)) == printed, text


INVALID_INPUTS = [
    ("grid g { turn = X; letters = F; transitions = F+F }", 1, 14),
    ("grid g { turn = 2; letters = F; transitions = F+F }", 1, 17),
    ("grid g { turn = 4 letters = F; transitions = F+F }", 1, 19),
    ("grid g { turn = 4; letters = ; transitions = F+F }", 1, 30),
    ("grid g { turn = 4; letters = FF; transitions = F+F }", 1, 30),
    ("grid g { turn = 4; letters = F; transitions = F+G }", 1, 47),
    ("grid g { turn = 4; letters = F; transitions = F+++F }", 1, 47),
    ("grid g { turn = 4; letters = F; transitions = F!F }", 1, 47),
    ("grid g { turn = 4; letters = F; transitions = FF }", 1, 47),
    ("grid g { turn = 4; letters = F; transitions = F+-F }", 1, 47),
    ("grid g { turn = 4; letters = F; transitions = F+F, F+F, }", 1, 58),
    ("grid g { turn = 4; letters = F; transitions = F+F,, F-F }", 1, 53),
    ("grommet g { }", 1, 1),
    ("grid { turn = 4; letters = F; transitions = F+F }", 1, 6),
    ("grid g turn = 4; letters = F; transitions = F+F }", 1, 8),
    ("curveset c on missing { F |--> F }", 1, 15),
    ("curveset c { F |--> F }", 1, 12),
    ("curveset c turn = three { F |--> F }", 1, 19),
    ("curveset z turn = 1 { F |--> F }", 1, 19),
    ("curveset z turn = -4 { F |--> F }", 1, 19),
    ("curveset z turn = 3 { F |--> F!F }", 1, 31),
    ("grid g { turn = 4; letters = F; transitions = F+F }\n"
     "curveset c on g { G |--> G }", 2, 19),
    ("grid g { turn = 4; letters = F; transitions = F+F }\n"
     "curveset c on g { F |--> G }", 2, 19),
    ("grid g { turn = 4; letters = F; transitions = F+F }\n"
     "curveset c on g { F |--> F+++F }", 2, 26),
    ("grid g { turn = 4; letters = F; transitions = F+F }\n"
     "curveset c on g { F |--> F!F }", 2, 26),
    ("grid g { turn = 4; letters = F; transitions = F+F }\n"
     "curveset c on g { F |--> F+-F }", 2, 27),
    ("grid g { turn = 4; letters = F; transitions = F+F }\n"
     "curveset c on g { F |--> F+F F |--> F }", 2, 29),
    ("grid g { turn = 4; letters = F; transitions = F+F }\n"
     "curveset c on g { F --> F }", 2, 21),
    ("grid g { turn = 4; letters = F; transitions = F+F }\n"
     "curveset c on g { F |--> F?F }", 2, 27),
    ("grid g { turn = 4; letters = F; transitions = F+F }\n"
     "curveset c on g { F |--> [F+^6 }", 2, 31),
    ("grid g { turn = 4; letters = F; transitions = F+F }\n"
     "curveset c on g { F |--> [F+]6 }", 2, 30),
    ("grid g { turn = 4; letters = F; transitions = F+F }\n"
     "curveset c on g { F |--> [F+]^x }", 2, 30),
    ("grid g { turn = 4; letters = F; transitions = F+F }\n"
     "curveset c on g { F |--> [F+]^0 }", 2, 30),
    ("axiom a =", 1, 1),
    ("grid g { turn = 4; letters = F; transitions = F+F }\n"
     "grid g { turn = 4; letters = F; transitions = F+F }", 2, 6),
    ("grid g { turn = 4; letters = F; transitions = F+F }\n"
     "curveset g on g { F |--> F }", 2, 10),
]

EXTRA_INVALID = [
    "grid g { turn = 4; letters = F; transitions = }",
    "grid g { turn = 4; letters = F; transitions = F+F",
    "grid g { turn = 4; letters = F }",
    "grid g { letters = F; turn = 4; transitions = F+F }",
    "grid g { turn = 4; double; letters = F; transitions = F+F }",
    "curveset c on g",
    "curveset c on g {",
    "curveset c on g { }",
    "axiom = F+F",
    "axiom a [F+]^6",
    "grid g { turn = -4; letters = F; transitions = F+F }",
    "grid g { turn = 4; letters = F; transitions = F0 }",
    "grid g { turn = 4; letters = F; transitions = +F }",
    "grid g { turn = 4; letters = 9; transitions = 9+9 }",
    "grid g { turn = 4; letters = F; transitions = F + F }",
    "grid g { turn = 4; letters = F; transitions = F++++++F }",
]


@pytest.mark.parametrize("text,line,col", INVALID_INPUTS)
def test_invalid_inputs_positions(text, line, col):
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert exc.value.line == line, exc.value
    assert abs(exc.value.col - col) <= 12, exc.value


@pytest.mark.parametrize("text", EXTRA_INVALID)
def test_invalid_inputs_rejected(text):
    with pytest.raises(ParseError):
        parse(text)


@pytest.mark.parametrize("text,line,col", [
    ("grid g { turn = 4; letters = F; transitions = F+F }\n"
     "curveset c on g { F |--> F+F+++F }", 2, 29),
    ("grid g { turn = 4; letters = F; transitions = F+-F }", 1, 49),
    ("grid g { turn = 4; letters = F; transitions = F+F }\n"
     "curveset c on g { F |--> [F+F?]^2 }", 2, 30),
])
def test_word_errors_point_at_the_character(text, line, col):
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert (exc.value.line, exc.value.col) == (line, col), exc.value


def test_line_continuation_positions():
    text = "grid g { turn = 4; letters = F; \\\n  transitions = F+G }"
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert exc.value.line == 2
