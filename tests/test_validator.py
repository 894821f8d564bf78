import json
import random
from pathlib import Path

import pytest

from gridcurve import catalog
from gridcurve.exactgeom import trace_tokens
from gridcurve.gridmodel import prototiles, realize
from gridcurve.lsystem import CurveSet, expand, subst_matrix
from gridcurve.validator import (
    INVALID,
    VALID,
    VALID_WITH_CAVEATS,
    _grid_letters,
    check_coverage,
    check_dekking1,
    check_grid_consistent,
    check_interior_filled,
    check_self_avoiding,
    scale_analysis,
    validate,
)
from gridcurve.words import Word, parse_word


# -- self-avoidance ----------------------------------------------------------


def test_self_avoiding_terdragon_motif():
    tri = catalog.grid("triangle")
    assert check_self_avoiding(parse_word("F+F-F"), tri).ok


def test_self_avoiding_square_loop_retrace():
    sq = catalog.grid("square")
    rep = check_self_avoiding(parse_word("F+F+F+F+F"), sq)
    assert not rep.ok
    assert "repeats" in rep.violation


def test_self_avoiding_fold_r5_tiles():
    cs = catalog.curveset("fold-r5")
    for tile in prototiles(cs.grid):
        w = expand(cs, tile.boundary_word(), 1)
        assert check_self_avoiding(w, cs.grid, closed=True).ok


def test_self_avoiding_double_edges():
    dsq = catalog.grid("d-square")
    assert check_self_avoiding(parse_word("A+A!A+A", 4), dsq).ok
    # one direction per segment only: a third pass repeats a directed edge
    rep = check_self_avoiding(parse_word("A!A!A", 4), dsq)
    assert not rep.ok


def test_self_avoiding_crossing():
    dsq = catalog.grid("d-square")
    # eastbound straight through (1,0), later southbound straight through it
    rep = check_self_avoiding(parse_word("A0A+A+A+A0A", 4), dsq)
    assert not rep.ok
    assert "cross" in rep.violation


def test_doubly_drawn_forbidden_on_plain_grid():
    tri = catalog.grid("triangle")
    # returning over the same segment is not possible with n=3 turns, so
    # use the square: F+F+F+F closes, a fifth edge repeats
    sq = catalog.grid("square")
    assert not check_self_avoiding(parse_word("F+F+F+F+F"), sq).ok


def test_letter_outside_grid():
    sq = catalog.grid("square")
    rep = check_self_avoiding(parse_word("F+G"), sq)
    assert not rep.ok and "alphabet" in rep.violation


# -- grid consistency --------------------------------------------------------


def test_grid_consistent_catalog(regression_sets):
    for cs in regression_sets:
        ok, problems = check_grid_consistent(cs)
        assert ok, (cs.name, problems)


def test_grid_consistent_junction_violation():
    ju = catalog.curveset("ju19")
    prods = dict(ju.prod)
    # make B's production end on a letter breaking the B---A junction
    prods["B"] = parse_word("B---A++A++A---B++++B++++B---A---B---A++A---B++++B---A", 12)
    broken = CurveSet.make("broken", ju.grid, prods)
    ok, problems = check_grid_consistent(broken)
    assert not ok


# -- Dekking criteria --------------------------------------------------------


def test_dekking1_ju19_both_forms():
    ju = catalog.curveset("ju19")
    assert check_dekking1(ju, "transitions")[0]
    assert check_dekking1(ju, "prototiles")[0]


def test_dekking1_mutated_ju19_fails():
    ju = catalog.curveset("ju19")
    a = ju.production("A")
    failures = 0
    for i, tok in enumerate(a.tokens):
        if not isinstance(tok, int):
            continue
        flipped = list(a.tokens)
        flipped[i] = -tok
        prods = dict(ju.prod)
        prods["A"] = Word(tuple(flipped))
        mutant = CurveSet.make("mutant", ju.grid, prods)
        if not check_dekking1(mutant, "transitions")[0]:
            failures += 1
    assert failures > 0


def test_dekking1_fold_r9():
    assert check_dekking1(catalog.curveset("fold-r9"), "transitions")[0]
    assert check_dekking1(catalog.curveset("fold-r9"), "prototiles")[0]


def test_dekking1_equivalence_catalog(regression_sets):
    for cs in regression_sets:
        t = check_dekking1(cs, "transitions")[0]
        p = check_dekking1(cs, "prototiles")[0]
        assert t == p, cs.name


def test_dekking1_forms_on_mutants():
    # On intact curve-sets the two forms agree (tested above).  On broken
    # mutants the closed prototile iterate can catch collisions between
    # non-adjacent production copies that no pairwise junction sees, so
    # only one direction holds: a prototile-form pass implies a
    # transition-form pass.
    rng = random.Random(2024)
    names = [e.name for e in catalog.CURVE_ENTRIES if e.kind == "valid"]
    agree = total = 0
    for _ in range(100):
        cs = catalog.curveset(rng.choice(names))
        n = cs.n
        letter = rng.choice([c for c in cs.letters if c not in cs.constants])
        tokens = list(cs.production(letter).tokens)
        turn_positions = [i for i, t in enumerate(tokens) if isinstance(t, int)]
        if not turn_positions:
            continue
        i = rng.choice(turn_positions)
        choices = [t for t in range(-(n // 2) + 1, n // 2 + 1) if t != tokens[i]]
        tokens[i] = rng.choice(choices)
        prods = dict(cs.prod)
        prods[letter] = Word(tuple(tokens))
        mutant = CurveSet.make("mutant", cs.grid, prods)
        t = check_dekking1(mutant, "transitions")[0]
        p = check_dekking1(mutant, "prototiles")[0]
        if p:
            assert t, (cs.name, letter, i)
        total += 1
        agree += t == p
    assert total >= 95
    assert agree >= total * 4 // 5


def test_monotone_self_avoidance(regression_sets):
    budget = 60_000
    for cs in regression_sets:
        if cs.grid is None:
            continue
        for letter in cs.letters:
            if letter in cs.constants:
                continue
            if not check_dekking1(cs, "transitions")[0]:
                continue
            for k in range(1, 5):
                w = expand(cs, Word((letter,)), k)
                if w.nletters() > budget:
                    break
                assert check_self_avoiding(w, cs.grid).ok, (cs.name, letter, k)
            break  # one non-constant letter per curve-set keeps this fast


# -- interior fill and coverage ----------------------------------------------


def tile_by_name(grid, text):
    for tile in prototiles(grid):
        if tile.to_string(grid.n, grid.double) == text:
            return tile
    raise AssertionError(f"no tile {text}")


def test_interior_filled_folding_pair():
    filling = catalog.curveset("fold-r9-filling")
    tile = tile_by_name(filling.grid, "[L+R+]^2")
    assert check_interior_filled(filling, tile, 1)
    nonfilling = catalog.curveset("fold-r5")
    tile = tile_by_name(nonfilling.grid, "[L+R+]^2")
    assert not check_interior_filled(nonfilling, tile, 1)


def test_interior_filled_pinned():
    # every (curve-set, prototile) pair that validate reaches, against the
    # answers of the earlier flood fill over a realized patch
    pinned = json.loads(Path(__file__).with_name("interior_filled.json").read_text())
    got = {}
    for entry in catalog.CURVE_ENTRIES:
        cs = catalog.curveset(entry.name)
        if cs.grid is None or not check_grid_consistent(cs)[0] or not check_dekking1(cs)[0]:
            continue
        got[entry.name] = {
            tile.to_string(cs.n, cs.grid.double): check_interior_filled(cs, tile, 1)
            for tile in prototiles(cs.grid)
        }
    assert sum(map(len, got.values())) == 169
    assert got == pinned


def test_interior_fill_reads_grid_letters():
    # on sq-set-r4 the iterate's letters differ from the grid's letters on
    # the same edges; the faces must come from the grid's
    cs = catalog.curveset("sq-set-r4")
    patch = realize(cs.grid, 12)
    for tile in prototiles(cs.grid):
        tokens = tile.boundary_word().tokens
        assert tokens[0] == cs.grid.seed_letter()  # anchored like the patch
        _, _, edges = trace_tokens(expand(cs, Word(tokens), 1).tokens, cs.n)
        letters = _grid_letters(cs.grid, tokens, edges)
        assert letters == {e: patch.edges[e] for e in letters}
        assert any(letters[(p, d)] != own for p, d, own in edges)


def test_interior_filled_sausage_yet_no_coverage():
    sausage = catalog.curveset("sausage")
    for tile in prototiles(sausage.grid):
        assert check_interior_filled(sausage, tile, 1), str(tile)
    cov = check_coverage(sausage, 6, 3.0)
    assert cov.missing > 0


def test_interior_filled_fischer_yet_no_coverage():
    fischer = catalog.curveset("fischer")
    for tile in prototiles(fischer.grid):
        assert check_interior_filled(fischer, tile, 1), str(tile)
    cov = check_coverage(fischer, 6, 3.0)
    assert cov.missing > 0
    assert not subst_matrix(fischer).entries[0][2]  # block structure


def test_coverage_ju19():
    cov = check_coverage(catalog.curveset("ju19"), 3, 3.0)
    assert cov.missing == 0
    assert not cov.rising_aspect


def test_coverage_keili():
    cov = check_coverage(catalog.curveset("keili"), 6, 3.0)
    assert cov.missing == 0
    assert cov.rising_aspect
    series = cov.aspects["C"]
    assert series[-1] > series[-2] > series[-3]


# -- scale analysis ----------------------------------------------------------


def test_scale_strong_examples():
    for name in ("terdragon", "sq-r5", "dsq-r4", "sq-fg-r25"):
        sa = scale_analysis(catalog.curveset(name))
        assert sa.strong, name


def test_scale_eigen_ju19():
    sa = scale_analysis(catalog.curveset("ju19"))
    assert not sa.strong
    assert sa.eigen_ok
    assert sa.eigen.coeffs == (3, 0, 2, 0)
    assert sa.eigen.norm2_int() == 19


def test_scale_eigen_folding_period_two():
    sa = scale_analysis(catalog.curveset("fold-r9"))
    assert not sa.strong
    assert sa.eigen_ok and sa.eigen_period == 2
    assert sa.eigen.norm2_int() == 81


def test_scale_fold_r5_mismatch():
    sa = scale_analysis(catalog.curveset("fold-r5"))
    assert not sa.strong
    assert sa.common_lambda is not None
    assert sa.lambda_norm == 9  # versus order 5: provably not edge-covering
    assert not sa.eigen_ok


# -- validate ----------------------------------------------------------------


def test_validate_counterexamples_invalid():
    for name in ("sausage", "fischer"):
        rep = validate(catalog.curveset(name), coverage_k=6)
        assert rep.verdict == INVALID, name
        assert rep.interior_filled and all(rep.interior_filled.values())
        assert not rep.irreducible


def test_validate_generic_mode():
    rep = validate(catalog.curveset("nofit-1"))
    assert rep.grid_consistent is None
    assert rep.verdict == VALID_WITH_CAVEATS
    assert rep.order is None
    assert rep.row_sums == {"F": 12, "H": 3}
    assert any("not applicable" in r for r in rep.reasons)


def test_validate_report_serialization():
    rep = validate(catalog.curveset("terdragon"))
    text = rep.to_text()
    assert "verdict: Valid" in text
    assert "gridConsistent: yes" in text
    js = rep.to_json()
    assert js["verdict"] == VALID
    assert js["order"] == 3
    import json

    json.dumps(js)


def test_validate_verdict_requires_all_hard_checks():
    rep = validate(catalog.curveset("terdragon"))
    assert rep.verdict == VALID
    assert rep.grid_consistent and rep.self_avoiding and rep.scale_consistent
    assert rep.coverage.ok
