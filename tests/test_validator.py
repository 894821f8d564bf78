import gc
import hashlib
import json
import random
import re
import string
import weakref
from itertools import islice
from pathlib import Path

import pytest

from gridcurve import catalog, gridmodel, validator
from gridcurve.exactgeom import (
    Point,
    charpoly,
    embed_vec,
    poly_eval,
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
from gridcurve.lsystem import CurveSet, UnequalRowSums, expand, order, subst_matrix
from gridcurve.validator import (
    INVALID,
    VALID,
    VALID_WITH_CAVEATS,
    _covered,
    _iterates,
    _period_matrix,
    check_coverage,
    check_dekking1,
    check_grid_consistent,
    check_interior_filled,
    check_self_avoiding,
    is_invalid,
    scale_analysis,
    validate,
)
from gridcurve.words import Word, parse_word

GRID_SETS = [e.name for e in catalog.CURVE_ENTRIES if catalog.curveset(e.name).grid is not None]


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


def test_self_avoiding_pinned():
    # seeded random walks, open and closed, on five grids; pinned from the
    # implementation that kept its own edge, segment and chord tables
    doc = json.loads(Path(__file__).with_name("self_avoid.json").read_text())
    grids = {name: catalog.grid(name) for name in
             ("square", "triangle", "d-square", "d-hexagon", "3464")}
    assert {c["grid"] for c in doc["cases"]} == set(grids)
    for case in doc["cases"]:
        rep = check_self_avoiding(Word(case["tokens"]), grids[case["grid"]],
                                  closed=case["closed"])
        assert (rep.ok, rep.violation) == (case["ok"], case["violation"]), case
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
    # coverage target disc that validate built
    cs = catalog.curveset("sq-r5").with_name("tmp")
    grid = cs.grid
    assert validate(cs).verdict == VALID
    assert 3.0 in grid._target_discs
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
    sausage = catalog.curveset("sausage")
    for tile in prototiles(sausage.grid):
        assert check_interior_filled(sausage, tile), str(tile)
    cov = check_coverage(sausage, 6, 3.0)
    assert cov.missing > 0


def test_interior_filled_fischer_yet_no_coverage():
    fischer = catalog.curveset("fischer")
    for tile in prototiles(fischer.grid):
        assert check_interior_filled(fischer, tile), str(tile)
    cov = check_coverage(fischer, 6, 3.0)
    assert cov.missing > 0
    assert not subst_matrix(fischer).entries[0][2]  # block structure


def test_coverage_ju19():
    cov = check_coverage(catalog.curveset("ju19"), 3, 3.0)
    assert cov.missing == 0
    assert not cov.rising_aspect


def test_coverage_pinned():
    # (missing, total, missing_sample) at each catalog coverage_k, pinned
    # from the earlier recursive expander
    pinned = json.loads(Path(__file__).with_name("coverage.json").read_text())
    got = {}
    for name in GRID_SETS:
        k = catalog.entry(name).coverage_k
        cov = check_coverage(catalog.curveset(name), k, 3.0)
        got[name] = {"k": k, "missing": cov.missing, "total": cov.total,
                     "missing_sample": [[list(p), d] for p, d in cov.missing_sample]}
    assert len(got) == 63
    assert got == pinned


@pytest.mark.parametrize("name", GRID_SETS)
def test_lazy_expander_matches_full_expansion(name):
    # inside the target disc, the pruned walk covers exactly the edges of
    # the expanded and traced face words; outside it, pruning may drop
    # edges whose tails sit on the threshold
    cs = catalog.curveset(name)
    disc = cs.grid.target_disc(3.0)
    target = set(disc.edges)
    for k in (1, 2):
        table = list(islice(_iterates(cs), k + 1))
        for tokens, tail, dirk in disc.anchored_faces:
            covered = _covered(cs, table, k, 3.0, [(tokens, tail, dirk)])
            _, _, edges = trace_tokens(expand(cs, Word(tokens), k).tokens, cs.n, tail, dirk)
            traced = {(p, d) for p, d, _ in edges} & target
            assert covered & target == traced, (k, tokens, tail, dirk)


def test_displacement_table_follows_net_turns():
    # fold-r9's productions turn by a half turn, so the second letter of an
    # iterate starts half a turn away from where its production alone says
    cs = catalog.curveset("fold-r9")
    assert {cs.production(X).net_turn() % cs.n for X in cs.letters} == {2}
    for lv, level in enumerate(islice(_iterates(cs), 4)):
        for X, (rots, turn, _) in level.items():
            end, end_dir, _ = trace_tokens(expand(cs, Word((X,)), lv).tokens, cs.n)
            assert (rots[0], turn) == (end, end_dir), (lv, X)
            assert rots == rotations(end, cs.n), (lv, X)


@pytest.mark.parametrize("name", ["fold-r9", "3464-r9"])
def test_iterate_rows_follow_expansion(name):
    # the child at letter i of X's production starts where the production's
    # prefix before it, expanded lv - 1 times, ends: fold-r9 turns by a half
    # turn (turn period 2), 3464-r9 lives on n = 12
    cs = catalog.curveset(name)
    for lv, level in enumerate(islice(_iterates(cs), 1, 4), 1):
        for X, (_, _, row) in level.items():
            tokens = cs.production(X).tokens
            at = [i for i, tok in enumerate(tokens) if isinstance(tok, str)]
            assert len(row) == len(at), (lv, X)
            for (Y, d, tail, z), i in zip(row, at):
                prefix = expand(cs, Word(tokens[:i]), lv - 1)
                end, end_dir, _ = trace_tokens(prefix.tokens, cs.n)
                assert (Y, d, tail) == (tokens[i], end_dir, end), (lv, X, i)
                assert z == embed_vec(tail, cs.n), (lv, X, i)


def test_coverage_raises_on_every_call_for_a_contradictory_coloring():
    # every (letter, turn) and (turn, letter) pair is unique, yet walking
    # the transitions forces two letters onto one edge
    grid = GridSpec("contradictory", 4, ("A", "B"),
                    (Transition("A", 1, "A"), Transition("B", -1, "A"), Transition("B", 0, "B")))
    assert check_grid(grid) == []
    cs = CurveSet.make("c", grid, {"A": parse_word("A"), "B": parse_word("B")})
    for _ in range(2):
        with pytest.raises(InconsistentColoring):
            check_coverage(cs, 2, 3.0)


def test_target_disc_realized_once_per_radius(monkeypatch):
    base = catalog.grid("square")
    grid = GridSpec(base.name, base.n, base.letters, base.transitions)
    cs = CurveSet.make("c", grid, dict(catalog.curveset("sq-r5").prod))
    calls = []
    real = gridmodel.realize
    monkeypatch.setattr(gridmodel, "realize", lambda *a: calls.append(a) or real(*a))
    first = check_coverage(cs, 2, 3.0)
    again = check_coverage(cs, 3, 3.0)
    assert len(calls) == 1
    assert grid.target_disc(3.0) is grid.target_disc(3.0)
    assert first.total == again.total
    assert check_coverage(cs, 2, 2.0).total < first.total
    assert len(calls) == 2


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


def test_scale_eigen_pinned(monkeypatch):
    # every catalog curve-set that reaches the exact-eigenvalue fallback
    reached = []
    inner = validator._eigen_analysis
    monkeypatch.setattr(validator, "_eigen_analysis",
                        lambda cs, r, out: (reached.append(cs.name), inner(cs, r, out)))
    got = {}
    for entry in catalog.CURVE_ENTRIES:
        sa = scale_analysis(catalog.curveset(entry.name))
        if entry.name in reached:
            got[entry.name] = [sa.eigen_ok, sa.eigen and list(sa.eigen.coeffs), sa.eigen_period]
    doc = json.loads(Path(__file__).with_name("scale_eigen.json").read_text())
    assert len(got) == 26
    assert got == doc["pins"]
    assert set(doc["changed"]) == {"3464-fhg-r9"}


def test_scale_eigen_conjugate_pair_smallest_argument():
    # 3*zeta^2 and 3*zeta^10 are both dominant, of squared modulus 9
    cs = catalog.curveset("3464-fhg-r9")
    mat, period = _period_matrix(cs)
    assert period == 1
    pair = [Point(12, unit_coeffs(12)[k]).scaled(3) for k in (2, 10)]
    for lam in pair:
        assert lam.norm2_int() == 9
        assert not any(poly_eval(charpoly(mat, 12), lam.coeffs, 12))
    sa = scale_analysis(cs)
    assert sa.eigen_ok and sa.eigen == pair[0]
    assert sa.eigen.coeffs == (0, 0, 3, 0)
    assert sa.undetermined is None


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
    assert {"3464-r9", "ju19", "3464-r37", "d31212-r27"} <= set(PERIOD_ONE_EIGEN_SETS)


@pytest.mark.parametrize("name", PERIOD_ONE_EIGEN_SETS)
def test_scale_eigen_of_second_iterate_is_the_square(name):
    cs = catalog.curveset(name)
    lam = scale_analysis(cs).eigen
    twice = CurveSet.make(
        f"{name}^2", cs.grid, {X: expand(cs, Word((X,)), 2) for X in cs.letters}, cs.turn)
    assert order(twice) == order(cs) ** 2
    sa = scale_analysis(twice)
    assert sa.eigen_ok, sa.undetermined
    assert sa.eigen == lam * lam
    assert sa.eigen_period == 1


@pytest.mark.parametrize("roots", [
    [3, 3, 3, 3, 1, 1],
    [3, 3, 3, 3, 3, 3],
    [3j, -3j, 3, -3, 1, 1],
    [2 + 1j, 2 + 1j, 2 + 1j, 2 - 1j, 0.5],
    [5, -4, 1],
])
def test_root_clusters_hold_multiple_roots(roots):
    coeffs = [1 + 0j]
    for r in roots:  # expand prod(x - r), leading coefficient first
        coeffs = [a - r * b for a, b in zip(coeffs + [0], [0] + coeffs)]
    clusters = validator._root_clusters(coeffs)
    assert sum(len(zs) for zs, _, _ in clusters) == len(roots)
    for r in set(roots):
        holding = [(zs, lo, hi) for zs, lo, hi in clusters
                   if lo <= abs(r) <= hi and min(abs(z - r) for z in zs) < 0.05]
        assert len(holding) == 1
        assert len(holding[0][0]) == roots.count(r)


def test_root_clusters_iteration_bound(monkeypatch):
    monkeypatch.setattr(validator, "_ROOT_ITERATIONS", 3)
    assert validator._root_clusters([1, -12, 54, -108, 81]) is None  # (x - 3)^4


def test_scale_undetermined_turn_period():
    # net turns mod 3 run through 24 distinct vectors before repeating
    prods = {
        "A": Word(("C",)),
        "B": Word(("B", "C")),
        "C": Word(("A", 1, "A", "A", "A", "B", "B", "B", "C", "C")),
    }
    sa = scale_analysis(CurveSet.make("long-period", None, prods, 3))
    assert not sa.strong and not sa.eigen_ok
    assert sa.undetermined == "net turns of the iterates do not repeat within 13 levels"


def test_scale_undetermined_nilpotent_matrix():
    # F, U-turn, F: the two edges cancel, so the displacement matrix is zero
    cs = CurveSet.make("there-and-back", None, {"A": Word(("A", 2, "A", 2))}, 4)
    assert _period_matrix(cs) == ([[(0, 0)]], 1)
    sa = scale_analysis(cs)
    assert sa.undetermined == "the displacement matrix is nilpotent"
    assert not sa.eigen_ok


@pytest.mark.parametrize("knob, why", [
    ("_ROOT_ITERATIONS", "root finder did not converge in 0 iterations"),
    ("_TURN_PERIOD_LEVELS", "net turns of the iterates do not repeat within 1 levels"),
])
def test_validate_reports_undetermined_scale(monkeypatch, knob, why):
    before = validate(catalog.curveset("ju19"))
    monkeypatch.setattr(validator, knob, 0)
    report = validate(catalog.curveset("ju19"))
    assert not report.scale.eigen_ok
    assert report.scale.undetermined == why
    assert f"scale eigenvalue undetermined: {why}" in report.reasons
    assert not any(r.startswith("no common displacement") for r in report.reasons)
    assert report.verdict == before.verdict


# -- validate ----------------------------------------------------------------


def test_validate_counterexamples_invalid():
    for name in ("sausage", "fischer"):
        rep = validate(catalog.curveset(name), coverage_k=6)
        assert rep.verdict == INVALID, name
        assert rep.interior_filled and all(rep.interior_filled.values())
        assert not rep.irreducible


def test_is_invalid_matches_validate_on_catalog():
    kinds = set()
    reports = []
    for entry in catalog.CURVE_ENTRIES:
        cs = catalog.curveset(entry.name)
        rep = validate(cs, coverage_k=entry.coverage_k)
        assert is_invalid(cs, entry.coverage_k) == (rep.verdict == INVALID), entry.name
        kinds.add(rep.verdict)
        reports.append(rep.to_json())
    # both answers occur: the two Invalid entries fail only coverage
    assert kinds == {VALID, VALID_WITH_CAVEATS, INVALID}
    # every report of the catalog, pinned before validate lost its
    # dekking_form parameter
    assert len(reports) == 66
    assert hashlib.sha256(json.dumps(reports, sort_keys=True).encode()).hexdigest() == (
        "3d743ed5ab686b0167ddb0f26e78cac40da0c3dc46597c87483f7b350fd58a64")


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
                None if cov is None else (cov.missing, cov.total, cov.rising_aspect),
                scale and (scale.common_turn, scale.strong, scale.eigen_ok, scale.undetermined))

    for name in GRID_SETS:
        cs = catalog.curveset(name)
        twin = relabelled(cs)
        assert set(twin.letters).isdisjoint(cs.letters)
        assert summary(validate(twin)) == summary(validate(cs)), name


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
