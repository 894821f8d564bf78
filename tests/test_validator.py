import dataclasses
import gc
import hashlib
import json
import math
import random
import re
import string
import weakref
from pathlib import Path

import pytest

from gridcurve import catalog, gridmodel, validator
from gridcurve.exactgeom import (
    Point,
    StrokeSet,
    _chords_cross,
    add_vec,
    embed_vec,
    normalize_turn,
    rotations,
    trace_tokens,
    unit_coeffs,
)
from gridcurve.gridmodel import (
    GridSpec,
    InconsistentColoring,
    Transition,
    check_grid,
    grid_letters,
    prototiles,
    realize,
)
from gridcurve.lsystem import CurveSet, UnequalRowSums, expand, expand_tagged, order, subst_matrix
from gridcurve.validator import (
    DENSITY,
    INVALID,
    LETTERS,
    OVERLAP,
    PARTITION,
    UNDETERMINED,
    VALID,
    VALID_WITH_CAVEATS,
    _expanding,
    _uneven,
    check_coverage,
    check_dekking1,
    check_grid_consistent,
    check_interior_filled,
    check_self_avoiding,
    is_invalid,
    scale_analysis,
    validate,
    vertex_map,
)
from gridcurve.words import Word, parse_word
from level_one import level_one_hits

GRID_SETS = [e.name for e in catalog.CURVE_ENTRIES if catalog.curveset(e.name).grid is not None]


# -- self-avoidance ----------------------------------------------------------


def closed_self_avoiding(word: Word, grid: GridSpec) -> tuple[bool, str | None]:
    """``check_self_avoiding`` of a closed word: it must also end where it
    starts, and its last and first edges make one more stroke through that
    base vertex, which must not interleave with the strokes already there."""
    rep = check_self_avoiding(word, grid)
    if not rep.ok:
        return False, rep.violation
    end, _, edges = trace_tokens(word.tokens, grid.n)
    if not edges:
        return True, None
    base, first_d, _ = edges[0]
    if end != base:
        return False, "closed word does not return to start"
    strokes = StrokeSet(grid.n, grid.double)
    closing = strokes.chord(edges[-1][1], first_d)
    if any(_chords_cross(closing, strokes.chord(a, b), strokes.lanes)
           for (_, a, _), (tail, b, _) in zip(edges, edges[1:]) if tail == base):
        return False, "strokes cross at the base vertex"
    return True, None


def dekking1_prototiles(cs: CurveSet) -> bool:
    """The prototile form of Dekking-1, the oracle of the transition form
    that ``check_dekking1`` runs: the first iterate of every prototile's
    boundary self-avoids as a closed word."""
    return all(closed_self_avoiding(expand(cs, tile.boundary_word(), 1), cs.grid)[0]
               for tile in prototiles(cs.grid))


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
        assert closed_self_avoiding(w, cs.grid)[0]


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


def test_self_avoiding_pinned():
    # seeded random walks, open and closed, on five grids; pinned from the
    # implementation that kept its own edge, segment and chord tables
    doc = json.loads(Path(__file__).with_name("self_avoid.json").read_text())
    grids = {name: catalog.grid(name) for name in
             ("square", "triangle", "d-square", "d-hexagon", "3464")}
    assert {c["grid"] for c in doc["cases"]} == set(grids)
    for case in doc["cases"]:
        word, grid = Word(case["tokens"]), grids[case["grid"]]
        if case["closed"]:
            got = closed_self_avoiding(word, grid)
        else:
            rep = check_self_avoiding(word, grid)
            got = rep.ok, rep.violation
        assert got == (case["ok"], case["violation"]), case
    kinds = {re.sub(r"\d+", "#", c["violation"] or "") for c in doc["cases"]}
    assert len(kinds) == 7  # every verdict check_self_avoiding can give


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
    assert check_dekking1(ju)[0]
    assert dekking1_prototiles(ju)


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
        if not check_dekking1(mutant)[0]:
            failures += 1
    assert failures > 0


def test_dekking1_fold_r9():
    assert check_dekking1(catalog.curveset("fold-r9"))[0]
    assert dekking1_prototiles(catalog.curveset("fold-r9"))


def test_dekking1_equivalence_catalog(regression_sets):
    for cs in regression_sets:
        t = check_dekking1(cs)[0]
        p = dekking1_prototiles(cs)
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
        t = check_dekking1(mutant)[0]
        p = dekking1_prototiles(mutant)
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
            if not check_dekking1(cs)[0]:
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
    assert check_interior_filled(filling, tile)
    nonfilling = catalog.curveset("fold-r5")
    tile = tile_by_name(nonfilling.grid, "[L+R+]^2")
    assert not check_interior_filled(nonfilling, tile)


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
            tile.to_string(cs.n, cs.grid.double): check_interior_filled(cs, tile)
            for tile in prototiles(cs.grid)
        }
    assert sum(map(len, got.values())) == 169
    assert got == pinned


def test_validate_keeps_no_reference_to_the_curveset():
    # the grid outlives the curve-set, and keeps its face table and the
    # lattice classes that validate read
    cs = catalog.curveset("sq-r5").with_name("tmp")
    grid = cs.grid
    assert validate(cs).verdict == VALID
    assert "_lattice" in vars(grid)
    ref = weakref.ref(cs)
    del cs
    gc.collect()
    assert ref() is None


def test_interior_fill_reads_grid_letters():
    # on sq-set-r4 the iterate's letters differ from the grid's letters on
    # the same edges; the faces must come from the grid's
    cs = catalog.curveset("sq-set-r4")
    patch = realize(cs.grid, 12)
    for tile in prototiles(cs.grid):
        tokens = tile.boundary_word().tokens
        assert tokens[0] == cs.grid.seed_letter()  # anchored like the patch
        _, _, edges = trace_tokens(expand(cs, Word(tokens), 1).tokens, cs.n)
        letters = grid_letters(cs.grid, edges, tokens[-2], -tokens[-1])
        assert letters == [patch.edges[(p, d)] for p, d, _ in edges]
        assert any(letter != own for letter, (_, _, own) in zip(letters, edges))


def test_interior_filled_sausage_yet_no_coverage():
    # its first iterate partitions the grid, but its vertex map has the
    # eigenvalues 1 and 2
    sausage = catalog.curveset("sausage")
    for tile in prototiles(sausage.grid):
        assert check_interior_filled(sausage, tile), str(tile)
    cov = check_coverage(sausage)
    assert cov.status == PARTITION and not cov.expanding and not cov.ok


def test_interior_filled_fischer_yet_no_coverage():
    fischer = catalog.curveset("fischer")
    for tile in prototiles(fischer.grid):
        assert check_interior_filled(fischer, tile), str(tile)
    cov = check_coverage(fischer)
    assert cov.status == PARTITION and not cov.expanding and not cov.ok
    assert vertex_map(fischer) == ((1, 0), (0, 6))
    assert not subst_matrix(fischer).entries[0][2]  # block structure


def test_coverage_ju19():
    cov = check_coverage(catalog.curveset("ju19"))
    assert (cov.status, cov.missing, cov.total, cov.expanding) == (PARTITION, 0, 228, True)
    assert cov.ok


COVERAGE_DOMAINS = json.loads(Path(__file__).with_name("coverage_domains.json").read_text())


def test_coverage_domains_pin_every_grid_set():
    assert sorted(COVERAGE_DOMAINS) == sorted(GRID_SETS) and len(GRID_SETS) == 63
    assert {name for name, pin in COVERAGE_DOMAINS.items() if pin["status"] != PARTITION} == {"fold-r5"}
    assert {name for name, pin in COVERAGE_DOMAINS.items() if not pin["expanding"]} == {"fischer", "sausage"}


@pytest.mark.parametrize("name", GRID_SETS)
def test_coverage_domains_pinned(name):
    # the status, the vertex map M, the number E of edge classes modulo the
    # translation lattice, |det M|, the distinct children of one fundamental
    # domain of phi of the lattice, and expansion
    cs = catalog.curveset(name)
    cov = check_coverage(cs)
    (a, b), (c, d) = M = vertex_map(cs)
    E = len(cs.grid.lattice_classes)
    assert cov.total == E * abs(a * d - b * c)
    got = {"status": cov.status, "M": [list(row) for row in M], "E": E,
           "det": abs(a * d - b * c), "children": cov.total - cov.missing,
           "expanding": cov.expanding}
    assert got == COVERAGE_DOMAINS[name]


@pytest.mark.parametrize("name", GRID_SETS)
def test_coverage_agrees_with_the_level_one_oracle(name):
    # the first iterate of a realized patch, drawn edge by edge with expand
    # and trace_tokens, hits every edge near the origin exactly once on
    # every set that partitions, and leaves edges unhit only on fold-r5
    cs = catalog.curveset(name)
    hits = level_one_hits(cs, 6, 3)
    status = check_coverage(cs).status
    if name == "fold-r5":
        assert status == DENSITY
        assert (sum(1 for h in hits.values() if h == 0), len(hits)) == (24, 52)
    else:
        assert status == PARTITION
        assert set(hits.values()) == {1}


def test_fold_r5_draws_20_of_36_edges():
    # M = 3I, so a fundamental domain of phi of the lattice holds 4 * 9 = 36
    # edges, and the 4 classes have 5 children each
    cs = catalog.curveset("fold-r5")
    cov = check_coverage(cs)
    assert vertex_map(cs) == ((3, 0), (0, 3))
    assert (cov.status, cov.missing, cov.total, cov.expanding) == (DENSITY, 16, 36, True)
    rep = validate(cs)
    assert rep.verdict == INVALID
    assert "coverage: the iterates draw only 20/36 of the edges" in rep.reasons
    assert "coverage: density missing=16/36 expanding=yes" in rep.to_text()


def test_sq_set_r4_partitions_along_its_letter_shifts(monkeypatch):
    # its first iterate carries the grid's letters shifted along a 4-cycle,
    # so four shifted curve-sets are tested, each with M = 2I
    cs = catalog.curveset("sq-set-r4")
    tested = []
    inner = validator._children
    monkeypatch.setattr(validator, "_children",
                        lambda twin, M: (tested.append(twin.productions), inner(twin, M))[1])
    cov = check_coverage(cs)
    assert (cov.status, cov.missing, cov.total, cov.expanding) == (PARTITION, 0, 16, True)
    assert len(tested) == len(set(tested)) == 4
    assert tested[0] == cs.productions


def test_coverage_undetermined_when_a_shift_changes_the_vertex_map(monkeypatch):
    cs = catalog.curveset("sq-set-r4")
    inner = validator.vertex_map
    monkeypatch.setattr(validator, "vertex_map",
                        lambda twin: inner(twin) if twin.productions == cs.productions else ((3, 0), (0, 3)))
    cov = check_coverage(cs)
    assert (cov.status, cov.expanding) == (UNDETERMINED, True)
    rep = validate(cs)
    assert rep.verdict == VALID_WITH_CAVEATS
    assert "coverage undetermined: a shift of the letters changes the vertex map" in rep.reasons
    assert not is_invalid(cs)


def test_coverage_overlap_where_a_child_is_drawn_twice():
    # F -> F-F-F on the square grid: M = diag(1, -1), so the 4 edge classes
    # of a fundamental domain take 12 children, each edge three times
    cs = CurveSet.make("f3", catalog.grid("square"), {"F": parse_word("F-F-F")})
    assert vertex_map(cs) == ((1, 0), (0, -1))
    cov = check_coverage(cs)
    assert (cov.status, cov.missing, cov.total, cov.expanding) == (OVERLAP, 0, 4, False)
    assert not cov.ok
    assert validator._coverage_reasons(cs, cov)[0] == (
        "coverage: the first iterate of the grid draws some edge twice")


def test_coverage_letters_where_no_letter_map_fits():
    # sq-star-r49 with the productions of C and D swapped: its children
    # carry letters that no map of the transitions onto themselves gives;
    # validate never gets that far, since the set is not grid consistent
    cs = catalog.curveset("sq-star-r49")
    swap = {"A": "A", "B": "B", "C": "D", "D": "C"}
    twin = CurveSet.make(cs.name, cs.grid, {X: cs.production(swap[X]) for X in cs.letters})
    cov = check_coverage(twin)
    assert cov.status == LETTERS and not cov.ok
    assert not check_grid_consistent(twin)[0]


@pytest.mark.parametrize("M, expanding", [
    (((2, 0), (0, 2)), True),
    (((1, -2), (2, 1)), True),  # sq-r5: 1 +- 2i
    (((2, 1), (0, 3)), True),  # keili
    (((-3, 0), (0, -3)), True),  # fold-r9
    (((0, 1), (-2, 0)), True),  # +- i*sqrt(2)
    (((1, 0), (0, 6)), False),  # fischer: eigenvalue 1
    (((1, 0), (1, 2)), False),  # sausage: eigenvalue 1
    (((-1, 0), (0, 3)), False),  # eigenvalue -1
    (((0, 1), (2, 4)), False),  # 2 - sqrt(6), inside the unit circle
    (((1, 1), (-1, 0)), False),  # sixth roots of unity
    (((2, 0), (0, -2)), True),  # det < 0
    (((2, 0), (0, 0)), False),  # det 0
])
def test_expanding_branches(M, expanding):
    assert _expanding(M) is expanding


def test_coverage_raises_on_every_call_for_a_contradictory_coloring():
    # every (letter, turn) and (turn, letter) pair is unique, yet walking
    # the transitions forces two letters onto one edge
    grid = GridSpec("contradictory", 4, ("A", "B"),
                    (Transition("A", 1, "A"), Transition("B", -1, "A"), Transition("B", 0, "B")))
    assert check_grid(grid) == []
    cs = CurveSet.make("c", grid, {"A": parse_word("A"), "B": parse_word("B")})
    for _ in range(2):
        with pytest.raises(InconsistentColoring):
            check_coverage(cs)


def test_validate_realizes_only_for_lattice_detection(monkeypatch):
    # one pass over the catalog on fresh grids: every patch is one that
    # lattice detection tries, 2 to 6 in radius, on the 28 grids that carry
    # a curve-set; coverage realizes none of its own
    fresh = {}
    sets = []
    for entry in catalog.CURVE_ENTRIES:
        cs = catalog.curveset(entry.name)
        if cs.grid is not None:
            grid = fresh.setdefault(cs.grid.name, dataclasses.replace(cs.grid))
            cs = CurveSet.make(cs.name, grid, cs.prod)
        sets.append(cs)
    calls, detecting = [], []
    realize, detect = gridmodel.realize, gridmodel.detect_translation_lattice
    monkeypatch.setattr(gridmodel, "realize",
                        lambda *a: calls.append(bool(detecting)) or realize(*a))

    def detect_and_note(spec):
        detecting.append(spec)
        try:
            return detect(spec)
        finally:
            detecting.pop()

    monkeypatch.setattr(gridmodel, "detect_translation_lattice", detect_and_note)
    for cs in sets:
        validate(cs)
    assert len(fresh) == 28
    assert len(calls) == 55 and all(calls)


def test_coverage_keili():
    # keili covers, yet its tiles grow unevenly: the vertex map has trace 5
    # and determinant 6, so the eigenvalues 2 and 3
    cs = catalog.curveset("keili")
    cov = check_coverage(cs)
    assert cov.status == PARTITION and cov.expanding
    (a, b), (c, d) = vertex_map(cs)
    assert (a + d, a * d - b * c) == (5, 6)
    assert scale_analysis(cs).uneven_growth


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


def test_scale_eigen_folding_u_turn():
    # both productions turn by a U-turn, so phi reverses every edge and
    # -3 acts on the lattice already; (-3)^2 = 9 is the square of period 2
    cs = catalog.curveset("fold-r9")
    sa = scale_analysis(cs)
    assert not sa.strong
    assert {trace_tokens(cs.production(X).tokens, 4)[1] for X in cs.letters} == {2}
    assert vertex_map(cs) == ((-3, 0), (0, -3))
    assert sa.eigen_ok and sa.eigen_period == 1
    assert sa.eigen == Point(4, (-3, 0))


def test_scale_fold_r5_mismatch():
    sa = scale_analysis(catalog.curveset("fold-r5"))
    assert not sa.strong
    assert sa.common_lambda is not None
    assert sa.lambda_norm == 9  # versus order 5: provably not edge-covering
    assert not sa.eigen_ok


def test_scale_eigen_pinned(monkeypatch):
    # every catalog curve-set that reaches the vertex-map fallback
    reached = []
    inner = validator.vertex_map
    monkeypatch.setattr(validator, "vertex_map",
                        lambda cs: (reached.append(cs.name), inner(cs))[1])
    got = {}
    for entry in catalog.CURVE_ENTRIES:
        sa = scale_analysis(catalog.curveset(entry.name))
        if entry.name in reached:
            got[entry.name] = [sa.eigen_ok, sa.eigen and list(sa.eigen.coeffs), sa.eigen_period]
    doc = json.loads(Path(__file__).with_name("scale_eigen.json").read_text())
    assert len(got) == 26
    assert got == doc["pins"]
    assert set(doc["changed"]) == {
        "3464-fhg-r9", "fold-r9", "sq-set-r3", "sq-set-r4", "trihex-set6-r16"}


def test_scale_eigen_sixth_power():
    # M has trace 3 and determinant 3, so its eigenvalues are sqrt(3) times
    # sixth roots of unity: M^6 = -27, and no smaller power is scalar
    cs = catalog.curveset("sq-set-r3")
    assert vertex_map(cs) == ((1, -1), (1, 2))
    sa = scale_analysis(cs)
    assert sa.eigen_ok and sa.eigen_period == 6
    assert sa.eigen == Point(4, (-27, 0))


def test_scale_eigen_conjugate_pair_is_the_complex_multiplication():
    # M has trace 3 and determinant 9: its eigenvalues are the conjugate
    # pair 3*zeta^2 and 3*zeta^10, and phi multiplies the lattice by the
    # first
    cs = catalog.curveset("3464-fhg-r9")
    (a, b), (c, d) = vertex_map(cs)
    assert (a + d, a * d - b * c) == (3, 9)
    sa = scale_analysis(cs)
    assert sa.eigen_ok and sa.eigen == Point(12, unit_coeffs(12)[2]).scaled(3)
    assert sa.eigen.coeffs == (0, 0, 3, 0)
    assert sa.eigen_period == 1
    assert sa.undetermined is None


def test_sq_set_r4_vertex_map_is_the_same_along_its_letter_cycle():
    # the first iterate of sq-set-r4 carries the grid's letters shifted by
    # the cycle A -> D -> C -> B -> A, so level k + 1 of its iterates
    # places the productions shifted k times; every shift has the same
    # vertex map, so the scale eigenvalue 2 holds at every level
    cs = catalog.curveset("sq-set-r4")
    shift = dict(zip("ABCD", "DABC"))
    letters = {X: X for X in cs.letters}
    for _ in range(4):
        twin = CurveSet.make(cs.name, cs.grid,
                             {X: cs.production(letters[X]) for X in cs.letters})
        assert vertex_map(twin) == ((2, 0), (0, 2))
        letters = {X: shift[Y] for X, Y in letters.items()}
    sa = scale_analysis(cs)
    assert sa.eigen_ok and sa.eigen == Point(4, (2, 0)) and sa.eigen_period == 1


def vertex_images(cs: CurveSet, radius: float) -> dict[tuple, tuple]:
    """phi of vertex_map on every vertex of the grid edges whose tails lie
    within radius, from a breadth-first walk that carries phi and the net
    turn T across every transition at heads and tails, as a reference."""
    grid, n = cs.grid, cs.n
    units = unit_coeffs(n)
    traced = {X: trace_tokens(cs.production(X).tokens, n) for X in cs.letters}
    turn = {X: d for X, (_, d, _) in traced.items()}
    step = {X: rotations(end, n) for X, (end, _, _) in traced.items()}
    origin = (0,) * len(units[0])
    image = {origin: origin}
    state = {(origin, 0): (grid.seed_letter(), 0)}  # edge -> (letter, T)
    frontier = [(origin, 0)]
    while frontier:
        reached = []
        for pos, k in frontier:
            letter, T = state[(pos, k)]
            head = add_vec(pos, units[k])
            image.setdefault(head, add_vec(image[pos], step[letter][(k + T) % n]))
            near = [((head, (k + t) % n), grid.forward[(letter, t)], T + turn[letter])
                    for t in grid.turns_from[letter]]
            for tr in grid.arrivals[letter]:
                k0 = (k - tr.turn) % n
                T0 = T - turn[tr.src]
                tail = tuple(a - b for a, b in zip(pos, units[k0]))
                image.setdefault(tail, tuple(
                    a - b for a, b in zip(image[pos], step[tr.src][(k0 + T0) % n])))
                near.append(((tail, k0), tr.src, T0))
            for edge, letter2, T2 in near:
                if edge not in state:
                    state[edge] = (letter2, T2)
                    if abs(embed_vec(edge[0], n)) <= radius:
                        reached.append(edge)
        frontier = reached
    return image


@pytest.mark.parametrize("name", GRID_SETS)
def test_vertex_map_sends_the_first_iterate_onto_the_second(name):
    # phi maps every vertex of the first iterate of the seed letter onto
    # the tail of that edge's first child in the second iterate, and it
    # commutes with the lattice translations by the matrix vertex_map gives
    cs = catalog.curveset(name)
    grid, n = cs.grid, cs.n
    seed = grid.seed_letter()
    end, _, first = trace_tokens(expand(cs, Word((seed,)), 1).tokens, n)
    # the second iterate expands the first iterate's own letters, which
    # are the grid's up to a letter map: a cycle on sq-set-r4, else none
    arrival = grid.arrivals[seed][0]
    carried = grid_letters(grid, first, arrival.src, -arrival.turn)
    letter_map = {X: L for X, (_, _, L) in zip(carried, first)}
    assert [letter_map[X] for X in carried] == [L for _, _, L in first]
    moved = {X: L for X, L in letter_map.items() if X != L}
    assert moved == ({"A": "D", "B": "A", "C": "B", "D": "C"} if name == "sq-set-r4" else {})
    twin = CurveSet.make(name, grid, {X: cs.production(letter_map.get(X, X))
                                      for X in grid.letters})
    word, tags = expand_tagged(cs, Word((seed,)), 2)
    end2, _, second = trace_tokens(word.tokens, n)
    child = {}
    for (tail, _, _), i in zip(second, tags):
        child.setdefault(i, tail)
    radius = max(abs(embed_vec(p, n)) for p, _, _ in first) + 2
    image = vertex_images(twin, radius)
    assert [image[p] for p, _, _ in first] + [image[end]] == [
        child[i] for i in range(len(first))] + [end2]

    (a, b), (c, d) = vertex_map(cs)
    v1, v2 = grid.translation_lattice
    image = vertex_images(cs, radius)
    for v, w in ((v1, v1.scaled(a) + v2.scaled(c)), (v2, v1.scaled(b) + v2.scaled(d))):
        shifted = [(u, add_vec(u, v.coeffs)) for u in image if add_vec(u, v.coeffs) in image]
        assert len(shifted) >= 2
        assert all(image[uv] == add_vec(image[u], w.coeffs) for u, uv in shifted)


def _period_one_eigen_sets() -> list[str]:
    out = []
    for entry in catalog.CURVE_ENTRIES:
        cs = catalog.curveset(entry.name)
        try:
            order(cs)
        except UnequalRowSums:
            continue
        sa = scale_analysis(cs)
        if sa.eigen_ok and sa.eigen_period == 1:
            out.append(entry.name)
    return out


PERIOD_ONE_EIGEN_SETS = _period_one_eigen_sets()


def test_period_one_eigen_sets_include_the_large_orders():
    assert {"3464-r9", "ju19", "3464-r37", "d31212-r27", "fold-r9"} <= set(PERIOD_ONE_EIGEN_SETS)


@pytest.mark.parametrize("name", PERIOD_ONE_EIGEN_SETS)
def test_scale_eigen_of_second_iterate_is_the_square(name):
    cs = catalog.curveset(name)
    lam = scale_analysis(cs).eigen
    twice = CurveSet.make(
        f"{name}^2", cs.grid, {X: expand(cs, Word((X,)), 2) for X in cs.letters}, cs.turn)
    assert order(twice) == order(cs) ** 2
    sa = scale_analysis(twice)
    if sa.strong:  # fold-r9: the U-turns cancel in the square
        assert sa.common_lambda == lam * lam
        return
    assert sa.eigen_ok, sa.undetermined
    assert sa.eigen == lam * lam
    assert sa.eigen_period == 1


def test_scale_undetermined_when_a_face_does_not_close():
    # both displacements are 1 + i, but the turn each production carries
    # rotates the square face's four images into one direction
    grid = catalog.grid("sq-lr")
    cs = CurveSet.make("open-face", grid, {"L": parse_word("L+R", 4), "R": parse_word("R+L", 4)})
    why = "the first iterate of the face L-R-L-R- does not close"
    assert vertex_map(cs) == why
    report = validate(cs)
    assert report.scale.undetermined == why and not report.scale.eigen_ok
    assert f"scale eigenvalue undetermined: {why}" in report.reasons
    assert not any(r.startswith("no common displacement") for r in report.reasons)


def test_scale_undetermined_without_a_translation_lattice(monkeypatch):
    # lattice detection on patches too small to hold two translations
    cs = catalog.curveset("ju19")
    before = validate(cs)
    monkeypatch.setattr(gridmodel, "_LATTICE_RADII", (2,))
    fresh = CurveSet.make(cs.name, dataclasses.replace(cs.grid), cs.prod)
    why = f"could not detect two independent translations for {cs.grid.name!r}"
    assert vertex_map(fresh) == why
    report = validate(fresh)
    assert report.scale.undetermined == why and not report.scale.eigen_ok
    assert f"scale eigenvalue undetermined: {why}" in report.reasons
    assert report.verdict == before.verdict


def test_coverage_undetermined_is_never_valid(monkeypatch):
    # sq-r5 is strong, so its scale needs no vertex map; without a
    # translation lattice its coverage is undetermined, which degrades Valid
    cs = catalog.curveset("sq-r5")
    assert validate(cs).verdict == VALID
    monkeypatch.setattr(gridmodel, "_LATTICE_RADII", ())
    fresh = CurveSet.make(cs.name, dataclasses.replace(cs.grid), cs.prod)
    why = f"could not detect two independent translations for {cs.grid.name!r}"
    cov = check_coverage(fresh)
    assert (cov.status, cov.missing, cov.total, cov.expanding) == (UNDETERMINED, 0, 0, None)
    report = validate(fresh)
    assert report.verdict == VALID_WITH_CAVEATS
    assert report.reasons == [f"coverage undetermined: {why}"]
    assert "coverage: undetermined missing=0/0 expanding=undetermined" in report.to_text()
    assert not is_invalid(fresh)


@pytest.mark.parametrize("M, uneven", [
    (((1, -1), (1, 1)), False),  # complex pair 1 +- i
    (((0, -1), (1, 0)), False),  # a quarter turn
    (((0, 1), (9, 0)), False),  # t = 0 < Delta: the pair +-3
    (((3, 0), (0, -3)), False),  # a reflection times 3, as on fold-r9
    (((2, 0), (0, 2)), False),  # scalar
    (((0, 0), (0, 0)), False),  # scalar zero
    (((2, 1), (0, 2)), True),  # Jordan block
    (((2, 1), (0, 3)), True),  # distinct real moduli, as on keili
    (((1, 0), (0, 6)), True),  # as on fischer
    (((1, 2), (3, 0)), True),  # eigenvalues 3 and -2
    (((1, 0), (0, 0)), True),  # eigenvalues 1 and 0
    (((0, 1), (0, 0)), True),  # non-zero nilpotent
])
def test_uneven_branches(M, uneven):
    assert _uneven(M) is uneven


def test_uneven_growth_on_the_catalog():
    # the strong shortcut, which skips the vertex map, agrees with it, and
    # an exact scale eigenvalue always comes with even growth
    uneven = set()
    for name in GRID_SETS:
        cs = catalog.curveset(name)
        M, sa = vertex_map(cs), scale_analysis(cs)
        assert sa.uneven_growth is _uneven(M), name
        if sa.eigen_ok:
            assert not sa.uneven_growth, name
        if _uneven(M):
            uneven.add(name)
    assert uneven == {"keili", "sausage", "fischer"}


def test_uneven_growth_matches_the_condition_of_powers():
    # a float oracle: the condition number of M^k stays bounded when growth
    # is even, and grows with k when it is not
    def product(P, Q):
        return tuple(tuple(sum(p * q for p, q in zip(row, col)) for col in zip(*Q)) for row in P)

    def condition(P):
        # sigma_max / sigma_min = x with x + 1/x = |P|_F^2 / |det P|
        (a, b), (c, d) = P
        s = (a * a + b * b + c * c + d * d) / abs(a * d - b * c)
        return (s + math.sqrt(s * s - 4)) / 2

    for name in GRID_SETS:
        M = vertex_map(catalog.curveset(name))
        M20 = ((1, 0), (0, 1))
        for _ in range(20):
            M20 = product(M20, M)
        grows = condition(product(M20, M20)) > 2 * condition(M20)
        assert grows is _uneven(M), name


# -- validate ----------------------------------------------------------------


def test_validate_counterexamples_invalid():
    for name in ("sausage", "fischer"):
        rep = validate(catalog.curveset(name))
        assert rep.verdict == INVALID, name
        assert any(r.startswith("coverage: the vertex map has an eigenvalue of modulus at most 1")
                   for r in rep.reasons), name
        assert rep.interior_filled and all(rep.interior_filled.values())
        assert not rep.irreducible


def test_is_invalid_matches_validate_on_catalog():
    kinds = set()
    reports = []
    for entry in catalog.CURVE_ENTRIES:
        cs = catalog.curveset(entry.name)
        rep = validate(cs)
        assert is_invalid(cs) == (rep.verdict == INVALID), entry.name
        assert rep.coverage is None or rep.coverage.status != UNDETERMINED, entry.name
        kinds.add(rep.verdict)
        reports.append(rep.to_json())
    # all three verdicts occur: the three Invalid entries fail only coverage
    assert kinds == {VALID, VALID_WITH_CAVEATS, INVALID}
    # every report of the catalog, pinned before validate lost its
    # dekking_form parameter; re-pinned when the scale fallback moved to the
    # vertex map, which changed one reason line each of fold-r9, sq-set-r3,
    # sq-set-r4 and trihex-set6-r16 and nothing else; re-pinned when growth
    # moved to the vertex map, which changed risingAspect and its reason
    # line on sq-set-r3, sq-set-r6, trihex-ab-r16, 3464-aconst-r9,
    # 3464-bconst-r19, 3366-r13-15, 3446-r7, 3446-r31, d488-r5 and fischer;
    # re-pinned when coverage moved to one fundamental domain of the vertex
    # map, which changed every coverage object (status and expanding for k
    # and r), fold-r5's verdict (Invalid) with its density reason, and the
    # coverage reason of fischer and sausage (non-expansion)
    assert len(reports) == 66
    assert hashlib.sha256(json.dumps(reports, sort_keys=True).encode()).hexdigest() == (
        "24e5ddfd6bae3b7b5122762c378f61c7ec727bab67a95395ab2f6eeb5581bef4")


def relabelled(cs: CurveSet) -> CurveSet:
    """The curve-set with its grid's letters, and the productions' letters,
    renamed consistently; the letter order, so the seed letter, stays."""
    grid = cs.grid
    used = set(grid.letters) | {c for _, w in cs.productions for c in w.letters()}
    new = dict(zip(grid.letters, [c for c in reversed(string.ascii_letters) if c not in used]))
    renamed = GridSpec(grid.name, grid.n, tuple(new[c] for c in grid.letters),
                       tuple(Transition(new[t.src], t.turn, new[t.dst]) for t in grid.transitions),
                       grid.double)
    return CurveSet.make(cs.name, renamed, {
        new[X]: Word(new.get(t, t) if isinstance(t, str) else t for t in w.tokens)
        for X, w in cs.productions})


def test_verdict_invariant_under_letter_relabelling():
    def summary(rep):
        cov, scale = rep.coverage, rep.scale
        return (rep.verdict, rep.order, rep.scale_consistent,
                None if cov is None else (cov.status, cov.missing, cov.total, cov.expanding),
                scale and (scale.common_turn, scale.strong, scale.eigen_ok, scale.eigen,
                           scale.eigen_period, scale.undetermined, scale.uneven_growth))

    for name in GRID_SETS:
        cs = catalog.curveset(name)
        twin = relabelled(cs)
        assert set(twin.letters).isdisjoint(cs.letters)
        assert summary(validate(twin)) == summary(validate(cs)), name


def test_verdict_invariant_under_mirror_on_sign_symmetric_grids():
    # on a grid without double edges whose transitions are closed under
    # turn negation, the mirror map carries the coloring onto itself, so
    # negating every turn of the productions changes no verdict; double
    # grids are left out, since their stroke lanes are chiral at a U-turn
    checked = 0
    for entry in catalog.CURVE_ENTRIES:
        cs = catalog.curveset(entry.name)
        grid = cs.grid
        if grid is None or grid.double or {(t.src, t.turn, t.dst) for t in grid.transitions} != {
                (t.src, normalize_turn(-t.turn, grid.n), t.dst) for t in grid.transitions}:
            continue
        twin = CurveSet.make(cs.name, grid, {
            X: Word(normalize_turn(-t, cs.n) if isinstance(t, int) else t for t in w.tokens)
            for X, w in cs.productions})
        reps = [validate(c) for c in (cs, twin)]
        assert len({(r.verdict, r.order, r.coverage.status, r.coverage.missing, r.coverage.total)
                    for r in reps}) == 1, entry.name
        checked += 1
    assert checked == 16


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
