import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridcurve.specio import parse
from gridcurve.words import Word, WordError, format_turn, parse_word


def test_parse_simple():
    w = parse_word("F+F-F")
    assert w.tokens == ("F", 1, "F", -1, "F")
    assert w.nletters() == 3
    assert sum(t for t in w.tokens if isinstance(t, int)) == 0


def test_parse_runs_and_bang():
    w = parse_word("A++++B!A", 8)
    assert w.tokens == ("A", 4, "B", 4, "A")
    with pytest.raises(WordError):
        parse_word("A!A")  # '!' needs n
    with pytest.raises(WordError):
        parse_word("A+++A", 4)  # run exceeds n/2


def test_parse_tile_form():
    w = parse_word("[A++]^6", 12)
    assert w.nletters() == 6
    assert [t for t in w.tokens if isinstance(t, int)] == [2] * 6  # five interior turns plus the trailing one
    assert w.tokens[-1] == 2


@pytest.mark.parametrize("text,offset", [
    ("[F+", 3), ("[F+]^x", 4), ("[F+]^-2", 4), ("[F+]^0", 4), ("F+F?", 3), ("F+-F", 2),
])
def test_word_errors_carry_the_offset(text, offset):
    with pytest.raises(WordError) as exc:
        parse_word(text, 4)
    assert exc.value.offset == offset


def test_adjacent_turns_rejected():
    with pytest.raises(WordError):
        parse_word("F+-F")


def test_merge_on_construction():
    w = Word(("A", 1, -2, 1, "A"))
    assert w.tokens == ("A", 0, "A")


def test_reversed_complement():
    w = parse_word("L+R")
    assert w.reversed_complement({"L": "R", "R": "L"}).tokens == ("L", -1, "R")


def test_round_trip_strings():
    for text, n in [("F+F-F", 3), ("A+A!A+A", 4), ("B++++B---A", 12)]:
        assert parse_word(text, n).to_string(n) == text


def test_format_turn():
    assert format_turn(0) == "0"
    assert format_turn(3, 6) == "!"
    assert format_turn(3, 6, double=False) == "+++"
    assert format_turn(-2) == "--"
    with pytest.raises(WordError):
        format_turn(5, 6)


def test_pairs():
    w = parse_word("A+B--C", 6)
    assert w.pairs() == [("A", 1, "B"), ("B", -2, "C")]
    # adjacent letters are drawn straight on
    assert parse_word("AB+C").pairs() == [("A", 0, "B"), ("B", 1, "C")]


@st.composite
def _printable_words(draw):
    """(n, double, word) where every turn of the word is printable at n."""
    n = draw(st.sampled_from([3, 4, 5, 6, 8, 12]))
    double = draw(st.booleans())
    turn = st.integers(-(n // 2), n // 2)
    tokens: list = []
    for letter in draw(st.lists(st.sampled_from("ABFL"), max_size=8)):
        if draw(st.booleans()):
            tokens.append(draw(turn))
        tokens.append(letter)
    if draw(st.booleans()):
        tokens.append(draw(turn))
    return n, double, Word(tokens)


@settings(max_examples=300, deadline=None)
@given(_printable_words())
def test_printed_words_parse_back(case):
    n, double, word = case
    text = word.to_string(n, double)
    assert parse_word(text, n, double) == word
    if not text:
        return
    # the same text as a production of a .gcs curve-set
    doc = parse(
        f"grid g {{ turn = {n}; letters = ABFL;{' double;' if double else ''}"
        f" transitions = A0A }}\n"
        f"curveset c on g {{ A |--> {text} B |--> B F |--> F L |--> L }}"
    )
    assert doc.curvesets()["c"].production("A") == word
