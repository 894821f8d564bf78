import hashlib
import itertools
import json
import math

import pytest

from gridcurve import catalog, lsystem
from gridcurve.exactgeom import Point, trace_tokens
from gridcurve.lsystem import (
    CurveSet,
    TransformError,
    UnequalRowSums,
    decorate_square_point_word,
    dimension,
    drop_letters_normalize,
    embed_triangle_word,
    expand,
    expand_tagged,
    is_irreducible,
    make_folding,
    order,
    rewrite,
    spectral_radius,
    subst_matrix,
)
from gridcurve.words import Word, _merge_tokens, parse_word


def test_expand_terdragon():
    ter = catalog.curveset("terdragon")
    w = expand(ter, parse_word("F"), 2)
    assert w.to_string(3) == "F+F-F+F+F-F-F+F-F"


def test_expand_k0_identity():
    ju = catalog.curveset("ju19")
    axiom = parse_word("A---B", 12)
    assert expand(ju, axiom, 0).tokens == axiom.tokens


def test_expand_ju19_k1():
    ju = catalog.curveset("ju19")
    w = expand(ju, parse_word("A"), 1)
    assert w.nletters() == 25
    assert w.tokens == ju.production("A").tokens


def test_matrix_ju19():
    m = subst_matrix(catalog.curveset("ju19"))
    assert m.to_lists() == [[13, 6], [12, 7]]
    assert order(catalog.curveset("ju19")) == 19


def test_matrix_fischer():
    m = subst_matrix(catalog.curveset("fischer"))
    assert m.to_lists() == [
        [2, 4, 0, 0],
        [1, 5, 0, 0],
        [0, 0, 5, 1],
        [0, 0, 4, 2],
    ]
    assert not is_irreducible(m)


def test_matrix_single_letter():
    m = subst_matrix(catalog.curveset("tri-r13-1"))
    assert m.to_lists() == [[13]]
    assert is_irreducible(m)


def test_order_terdragon():
    assert order(catalog.curveset("terdragon")) == 3


def test_unequal_row_sums():
    cs = catalog.curveset("nofit-1")
    with pytest.raises(UnequalRowSums) as exc:
        order(cs)
    assert exc.value.row_sums == {"F": 12, "H": 3}


def test_irreducible_examples():
    assert is_irreducible(subst_matrix(catalog.curveset("ju19")))
    assert not is_irreducible(subst_matrix(catalog.curveset("sausage")))


def test_dimension_r7():
    cs = catalog.curveset("3446-r7")
    assert dimension(cs, "A") == pytest.approx(2.0, abs=1e-9)
    want = 2 * math.log(5) / math.log(7)
    assert dimension(cs, "F") == pytest.approx(want, abs=1e-9)
    for const in "BCDE":
        assert dimension(cs, const) == 0.0


def test_spectral_radius_bound_leaves_it_undetermined(monkeypatch):
    monkeypatch.setattr(lsystem, "_POWER_ITERATIONS", 1)
    assert spectral_radius([[13, 6], [12, 7]]) is None
    assert dimension(catalog.curveset("ju19"), "A") is None


def test_spectral_radius_values():
    assert spectral_radius([[13, 6], [12, 7]]) == pytest.approx(19, abs=1e-9)
    assert spectral_radius([[5]]) == pytest.approx(5, abs=1e-12)
    # cyclic dependency still converges (shifted iteration)
    assert spectral_radius([[0, 2], [2, 0]]) == pytest.approx(2, abs=1e-9)


def test_make_folding_printed_pair():
    l9 = parse_word("L+R+L-R+L+R-L+R-L")
    assert make_folding(l9).to_string(4, False) == "R+L-R+L-R-L+R-L-R"


def test_make_folding_small():
    assert make_folding(parse_word("L")).to_string() == "R"
    assert make_folding(parse_word("L+R")).to_string(4, False) == "L-R"


def test_make_folding_involution():
    for name in ("fold-r9", "fold-r9-filling", "fold-r5"):
        cs = catalog.curveset(name)
        l = cs.production("L")
        assert make_folding(make_folding(l)).tokens == l.tokens
        # and the catalog R production is the folding companion
        assert make_folding(l).tokens == cs.production("R").tokens


def test_make_folding_wrong_alphabet():
    with pytest.raises(TransformError):
        make_folding(parse_word("A+B"))


def test_reversal_complement_printed_g():
    f = parse_word("F+F+F+F+F--F+F+F--F--F+F+F--F", 6)
    g = f.reversed_complement({"F": "G"})
    assert g.to_string(6, False) == "G++G-G-G++G++G-G-G++G-G-G-G-G"
    assert catalog.curveset("dtrihex-r13").production("G").tokens == g.tokens


def test_reversal_complement_identity_cases():
    assert parse_word("A").reversed_complement({"A": "B"}).to_string() == "B"
    w = parse_word("A+B--C0A", 6)
    assert w.reversed_complement().reversed_complement().tokens == w.tokens


def test_reversal_complement_split_pair():
    split = catalog.curveset("dtri-ab-r13-split")
    b = split.production("A").reversed_complement({"A": "B"})
    assert b.tokens == split.production("B").tokens


def test_drop_letters_trihex_to_triangle():
    cs = catalog.curveset("trihex-ab-r16")
    out = drop_letters_normalize(cs, {"B"}, target_n=3)
    w = Word("F" if t == "A" else t for t in out.production("A").tokens)
    assert w.to_string(3, False) == "F+F-F-F+F-F+F+F0F-F-F+F-F+F+F-F"


def test_drop_letters_3464_to_dhexagon():
    cs = catalog.curveset("3464-bconst-r19")
    out = drop_letters_normalize(cs, {"B"}, target_n=6)
    got = out.production("A").to_string(6)
    assert got == "A+A-A+A+A!A-A+A+A!A+A+A!A+A+A+A+A+A-A"
    assert got == catalog.curveset("dhex-r19").production("A").to_string(6)


def test_drop_letters_identity():
    cs = catalog.curveset("ju19")
    out = drop_letters_normalize(cs, set())
    for letter, w in cs.productions:
        assert out.production(letter).tokens == w.tokens


def test_drop_letters_requires_constants():
    with pytest.raises(TransformError):
        drop_letters_normalize(catalog.curveset("ju19"), {"B"})


def test_drop_letters_bad_rescale():
    cs = catalog.curveset("trihex-ab-r16")
    with pytest.raises(TransformError):
        drop_letters_normalize(cs, {"B"}, target_n=4)


def test_rewrite_chain():
    w = rewrite("F+F", [("+", "p"), ("p", "0")], 4)
    assert w.to_string(4) == "F0F"
    # adjacent runs produced by rules merge
    assert rewrite("F+F", [("+", "+-")], 4).to_string(4) == "F0F"
    from gridcurve.words import WordError

    with pytest.raises(WordError):
        rewrite("F+F", [("+", "?")], 4)


def test_embed_single_letter():
    assert embed_triangle_word("F").to_string(6) == "A"


def test_embed_r13_15():
    got = embed_triangle_word("F+F0F0F-F-F+F0F+F+F-F0F-F")
    want = catalog.curveset("3366-r13-15").production("A")
    assert got.tokens == want.tokens


def test_decorate_point_rendering():
    cs = catalog.curveset("dsq-r4")
    word = expand(cs, parse_word("A", 4), 1)
    decorated = decorate_square_point_word(word.to_string(4))
    # drawable at turn resolution 8: all turns within range
    assert all(abs(t) <= 4 for t in decorated.tokens if isinstance(t, int))
    from gridcurve.exactgeom import trace_tokens

    end, d, edges = trace_tokens(decorated.tokens, 8)
    assert len(edges) == decorated.nletters()
    # the decoration triples every original edge into three unit strokes
    # plus one per turn and two per U-turn
    assert decorated.nletters() > 3 * word.nletters()


def test_counting_identity(regression_sets):
    budget = 60_000
    for cs in regression_sets:
        m = subst_matrix(cs)
        letters = m.letters
        sizes = {c: 1 for c in letters}  # letter counts of iterate 0 of "X"
        mats = m.to_lists()
        counts = {c: [0] * len(letters) for c in letters}
        for j, c in enumerate(letters):
            counts[c][j] = 1
        for k in range(1, 5):
            new_counts = {}
            for c in letters:
                new_counts[c] = [
                    sum(mats[r][x] * counts[c][x] for x in range(len(letters)))
                    for r in range(len(letters))
                ]
            counts = new_counts
            for c in letters:
                expected = sum(counts[c])
                if expected > budget:
                    continue
                w = expand(cs, Word((c,)), k)
                assert w.nletters() == expected, (cs.name, c, k)


def test_common_scale_pinned_examples():
    def displacement(cs, letter):
        return Point(cs.n, trace_tokens(cs.production(letter).tokens, cs.n)[0])

    ter = catalog.curveset("terdragon")
    lam = displacement(ter, "F")
    assert lam.norm2_int() == 3
    dsq = catalog.curveset("dsq-r4")
    assert displacement(dsq, "A").coeffs == (2, 0)
    sq5 = catalog.curveset("sq-r5")
    lam = displacement(sq5, "F")
    assert lam.norm2_int() == 5
    assert lam.coeffs in ((1, 2), (2, 1), (2, -1), (1, -2), (-1, 2), (-2, 1))


def test_expand_tagged_propagation():
    cs = catalog.curveset("tri-r13-1")
    w, tags = expand_tagged(cs, parse_word("F"), 2)
    assert w.nletters() == 169
    assert len(tags) == 169
    # ancestor index is the ordinal of the level-1 edge: 13 runs of 13
    for j, tag in enumerate(tags):
        assert tag == j // 13


def test_expand_empty_production_merges_the_turns_around_it():
    # B writes nothing, so the turns on either side of it become one turn
    cs = CurveSet.make("e", None, {"A": parse_word("A+B"), "B": Word(())}, turn=4)
    w = expand(cs, Word(("A",)), 2)
    assert Word(w.tokens) == w
    assert w.tokens == ("A", 1, "B", 1)
    w = expand(cs, Word(("A", 1, "B", -1, "A")), 1)
    assert Word(w.tokens) == w
    assert w.tokens == ("A", 1, "B", 0, "A", 1, "B")


def test_expand_output_is_merged(all_curvesets):
    # expand returns its tokens without merging them again, so its loop
    # must leave no two turns adjacent; the axiom puts a turn before every
    # letter.  The digest pins the ancestor tags, run-length encoded, from
    # the expander that merged its output once more
    runs = []
    for name in catalog.curveset_names():
        cs = all_curvesets[name]
        axiom = Word(tok for X in cs.letters for tok in (1, X))
        for k in range(4):
            word, tags = expand_tagged(cs, axiom, k)
            assert word.tokens == _merge_tokens(word.tokens), (name, k)
            runs.append([name, k, word.nletters(),
                         [[tag, len(list(run))] for tag, run in itertools.groupby(tags)]])
    assert hashlib.sha256(json.dumps(runs).encode()).hexdigest() == (
        "fecf585a755969032a8aee1f4f43699a909f74108bbbf785102ed6cb46f34c8a")
