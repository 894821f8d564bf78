import hashlib
import itertools
import json
from collections import Counter
from pathlib import Path

import pytest

from gridcurve import catalog
from gridcurve.exactgeom import normalize_turn
from gridcurve.gridmodel import check_grid
from gridcurve import search
from gridcurve.search import (
    SearchBudgetExceeded,
    TorusPatch,
    enumerate_curve_sets,
    search_colorings,
)
from gridcurve.lsystem import CurveSet
from gridcurve.validator import INVALID, check_dekking1, is_invalid, validate
from gridcurve.words import parse_word
from level_one import level_one_hits


@pytest.fixture(scope="module")
def square():
    return catalog.grid("square")


def canon_transitions(g):
    best = None
    for perm in itertools.permutations(g.letters):
        rel = dict(zip(g.letters, perm))
        key = tuple(sorted((rel[t.src], t.turn, rel[t.dst]) for t in g.transitions))
        if best is None or key < best:
            best = key
    return best


def test_torus_edge_count(square):
    tp = TorusPatch.build(square, 2, 2)
    assert len(tp) == 16  # 4 directed edges per fundamental cell
    tp = TorusPatch.build(square, 4, 6)
    assert len(tp) == 96


def test_torus_symmetries_pinned(all_grids):
    # every catalog grid on the 2x2 torus, pinned from the earlier
    # reduction that scanned every representative
    pinned = json.loads(Path(__file__).with_name("torus_symmetries.json").read_text())
    got = {}
    for name, grid in all_grids.items():
        tp = TorusPatch.build(grid, 2, 2)
        perms = tp.symmetries()
        got[name] = {
            "edges": len(tp),
            "symmetries": len(perms),
            "translations": len(tp.symmetries(point_group=False)),
            "sha256": hashlib.sha256(json.dumps(sorted(perms)).encode()).hexdigest(),
        }
    assert len(got) == 32
    assert got == pinned


@pytest.mark.parametrize("name, R, C, count", [
    ("square", 2, 3, 24),
    ("triangle", 3, 2, 6),
    ("d-hexagon", 2, 3, 12),
    ("tri-abc-star", 3, 2, 6),
])
def test_torus_symmetries_are_automorphisms(name, R, C, count):
    # on an R x C torus with R != C some rotations do not keep the lattice;
    # every permutation returned must still commute with the successor map
    # (with the turn negated for a reflection)
    grid = catalog.grid(name)
    tp = TorusPatch.build(grid, R, C)
    turns = sorted({t.turn for t in grid.transitions})

    def commutes(perm, sign):
        for e in range(len(tp)):
            for t in turns:
                s = tp.succ[e].get(t)
                if s is not None and perm[s] != tp.succ[perm[e]].get(normalize_turn(sign * t, grid.n)):
                    return False
        return True

    perms = tp.symmetries()
    assert len(perms) == count
    assert all(commutes(p, 1) or commutes(p, -1) for p in perms)
    translations = tp.symmetries(point_group=False)
    assert all(commutes(p, 1) for p in translations)
    assert {tuple(p) for p in translations} <= {tuple(p) for p in perms}


def test_torus_successor_and_predecessor_maps(all_grids):
    # every edge has a successor for each turn out of its letter, and the
    # predecessor map is its inverse, listed in ascending edge order
    for name, grid in all_grids.items():
        tp = TorusPatch.build(grid, 2, 2)
        for ei, (_, _, letter) in enumerate(tp.edges):
            assert list(tp.succ[ei]) == list(grid.turns_from[letter]), name
            for t, sj in tp.succ[ei].items():
                assert tp.edges[sj][2] == grid.forward[(letter, t)]
                assert tp.pred[sj][t] == ei
        for before in tp.pred:
            assert list(before.values()) == sorted(before.values())
        assert sum(map(len, tp.pred)) == sum(map(len, tp.succ))


# (edges, sha256 of the edges, successor and predecessor maps in order),
# pinned from the torus builder that walked the quotient on its own
TORUS_PINS = {
    "square 5x5": (100, "e08209ae8173fe336a15e9ecd1c15099d2f9ac79f43a4e228c70c8aaa768aba0"),
    "square 4x4": (64, "69c42f5da85a1b7ee06fb6b325a0dc24f1643ccd178d774df117ca0ee682c19f"),
    "triangle 6x6": (108, "70448141d2818d300383d0d7b0c94169c072355c899d8e4ed4402a87a6622ab9"),
    "trihex 2x2": (24, "cc59a3b467a77a4277bb771a8c07ef7b0cc345c2c0abfcfcb06f6570ab960a99"),
    "3464 2x3": (72, "0728fdb18e1e362a47babd99e2939b6539fc2e11d6eb28835229104df0cd32a1"),
    "d-square 3x3": (36, "1d1ff2bab5094887aba8cdb66ebfd3938aab9ae814c3656a14117958d5a6ca58"),
    "d488 2x2": (48, "82e20f29f65b4d9a6f77f9712a73e72a834b6bd21315ae4356583d27235d229c"),
    "d31212 1x2": (36, "82044856c7b20aa64fa111540ccfd1f891d9061b4627a1be6ada9a247ccf3534"),
}


def test_torus_quotients_pinned():
    got = {}
    for key in TORUS_PINS:
        name, size = key.split()
        tp = TorusPatch.build(catalog.grid(name), *map(int, size.split("x")))
        blob = json.dumps([tp.edges, [list(s.items()) for s in tp.succ],
                           [list(p.items()) for p in tp.pred]])
        got[key] = (len(tp), hashlib.sha256(blob.encode()).hexdigest())
    assert got == TORUS_PINS


def test_search_colorings_budget_exceeded(monkeypatch):
    monkeypatch.setattr(search, "_COLORING_BUDGET", 10)
    with pytest.raises(SearchBudgetExceeded, match="over 10 nodes"):
        search_colorings(catalog.grid("square"), 4, 4, 4)


def test_non_symmetries_merge_no_colorings():
    # a rotation that does not keep the 3x2 lattice once merged two of these
    assert len(search_colorings(catalog.grid("tri-abc-star"), 3, 2, 3)) == 4


def test_counts_two_colors(square):
    found = search_colorings(square, 4, 4, 2)
    assert len(found) == 2
    vecs = sorted(c.minimal_vector for c in found)
    assert vecs == [(1, 1), (2, 2)]


def test_counts_four_colors(square):
    found = search_colorings(square, 4, 4, 4)
    assert len(found) == 5


def test_counts_five_colors(square):
    # equal class sizes force 5 | 4*R*C, so the smallest catalogable torus
    # holding five classes is 5x5
    found = search_colorings(square, 5, 5, 5)
    assert len(found) == 1


def test_single_color(square):
    for R, C in ((1, 1), (2, 2), (3, 2)):
        found = search_colorings(square, R, C, 1)
        assert len(found) == 1
        assert found[0].minimal_vector == (1, 1)


def test_star_and_set_found(square):
    found = search_colorings(square, 4, 4, 4)
    canon = {canon_transitions(c.to_gridspec("x")) for c in found}
    assert canon_transitions(catalog.grid("sq-star")) in canon
    assert canon_transitions(catalog.grid("sq-set")) in canon


def test_search_soundness(square):
    for m in (1, 2, 4):
        for col in search_colorings(square, 4, 4, m):
            g = col.to_gridspec("check")
            assert check_grid(g) == []
            r, c = col.minimal_vector
            assert 4 % r == 0 and 4 % c == 0


def test_search_determinism(square):
    a = search_colorings(square, 4, 4, 2)
    b = search_colorings(square, 4, 4, 2)
    assert [c.assignment for c in a] == [c.assignment for c in b]


def test_divisor_property_inclusion(square):
    runs = {
        (2, 2): search_colorings(square, 2, 2, 2),
        (2, 3): search_colorings(square, 2, 3, 2),
        (4, 6): search_colorings(square, 4, 6, 2),
    }
    canon = {
        key: {canon_transitions(c.to_gridspec("x")) for c in found}
        for key, found in runs.items()
    }
    # every coloring found on a small torus appears on the larger multiple
    assert canon[(2, 2)] <= canon[(4, 6)]
    assert canon[(2, 3)] <= canon[(4, 6)]
    # and the (2,3) run only finds colorings with r|2, c|3
    for col in runs[(2, 3)]:
        r, c = col.minimal_vector
        assert 2 % r == 0 and 3 % c == 0


def test_no_rotation_dedup_is_coarser(square):
    default = search_colorings(square, 2, 2, 2)
    translations_only = search_colorings(square, 2, 2, 2, dedup_rotations=False)
    assert len(translations_only) >= len(default)


def test_enumerate_dsquare_order4():
    res = enumerate_curve_sets(catalog.grid("d-square"), 4)
    assert res.complete
    assert len(res.curvesets) == 1
    (letter, word), = res.curvesets[0].productions
    assert word.to_string(4) == "A+A!A+A"


def test_enumerate_square_order5():
    res = enumerate_curve_sets(catalog.grid("square"), 5)
    assert res.complete
    assert len(res.curvesets) == 1
    (letter, word), = res.curvesets[0].productions
    assert word.to_string(4, False) == "F+F+F-F-F"


def test_enumerate_dsquare_order5_includes_printed():
    res = enumerate_curve_sets(catalog.grid("d-square"), 5)
    assert res.complete
    words = {w.to_string(4) for cs in res.curvesets for _, w in cs.productions}
    assert "A+A0A!A+A" in words


# nodes of the word DFS that pruned by Euclidean distance, keyed by
# (grid, order, budget); the exact distance prune may only lower them
EUCLIDEAN_PRUNE_NODES = {
    ("triangle", 9, None): 6509,
    ("square", 13, None): 6364,
    ("d-square", 5, None): 612,
    ("d-triangle", 4, None): 375,
    ("d-hexagon", 4, None): 75,
    ("trihex", 4, None): 40,
    ("3464", 3, None): 265,
    ("d488", 2, None): 305,
    ("d-trihex", 3, None): 778,
    ("d-square", 10, None): 127156,
    ("d-triangle", 7, None): 63374,
    ("triangle", 13, None): 439334,
    ("square", 17, None): 49476,
    ("d-square", 5, 50): 61,
}

# nodes of the word DFS with the exact distance prune, before it pruned
# self-transitions that fail Dekking-1; that prune may only lower them
EXACT_DISTANCE_PRUNE_NODES = {
    ("triangle", 9, None): 2660,
    ("square", 13, None): 2100,
    ("d-square", 5, None): 212,
    ("d-triangle", 4, None): 104,
    ("d-hexagon", 4, None): 12,
    ("trihex", 4, None): 12,
    ("3464", 3, None): 36,
    ("d488", 2, None): 50,
    ("d-trihex", 3, None): 88,
    ("d-square", 10, None): 48255,
    ("d-triangle", 7, None): 16069,
    ("triangle", 13, None): 108596,
    ("square", 17, None): 16816,
    ("d-square", 5, 50): 51,
}


def pinned_cases():
    return json.loads(Path(__file__).with_name("enumerate_pins.json").read_text())["cases"]


def parsed_set(grid, productions):
    return CurveSet.make("pinned", grid, {L: parse_word(w, grid.n) for L, w in productions})


def test_enumerate_pinned():
    # nodes, completeness and results; the productions of every complete
    # case are those of the Euclidean-pruned DFS (with the mirror class of
    # d-square 8 and d-triangle 7 reported by an image that is not
    # Invalid), each prune lowers the node count or keeps it, and the last
    # case is cut by its budget
    cases = pinned_cases()
    assert {(c["grid"], c["order"], c["budget"]) for c in cases} == set(EXACT_DISTANCE_PRUNE_NODES)
    for case in cases:
        key = (case["grid"], case["order"], case["budget"])
        assert case["nodes"] <= EXACT_DISTANCE_PRUNE_NODES[key] <= EUCLIDEAN_PRUNE_NODES[key], key
        grid = catalog.grid(case["grid"])
        budget = {} if case["budget"] is None else {"budget": case["budget"]}
        res = enumerate_curve_sets(grid, case["order"], **budget)
        got = [sorted([L, w.to_string(grid.n, grid.double)] for L, w in cs.productions)
               for cs in res.curvesets]
        assert (res.nodes, res.complete, got) == (
            case["nodes"], case["complete"], case["curvesets"]), case["grid"]


def test_enumerate_soundness():
    # on double grids the mirror image of a valid set can be Invalid, so
    # every reported image must be checked, not only its mirror class
    sets = [parsed_set(catalog.grid(case["grid"]), productions)
            for case in pinned_cases() if case["complete"]
            for productions in case["curvesets"]]
    res = enumerate_curve_sets(catalog.grid("d-square"), 8)
    assert res.complete and len(res.curvesets) == 6
    sets += res.curvesets
    assert len(sets) == 128
    for cs in sets:
        assert validate(cs).verdict != INVALID, [str(w) for _, w in cs.productions]


def test_enumerate_emits_only_sets_that_draw_every_edge_once():
    # exact coverage drops 24 sets on sq-lr that pass every other check,
    # each of which leaves some edge near the origin undrawn by its first
    # iterate; the word DFS, and so its node count, does not depend on it
    res = enumerate_curve_sets(catalog.grid("sq-lr"), 9)
    assert (res.complete, res.nodes, len(res.curvesets)) == (True, 60_088, 28)
    for cs in res.curvesets:
        hits = level_one_hits(cs, 6, 3)
        assert set(hits.values()) == {1}, [str(w) for _, w in cs.productions]


@pytest.mark.parametrize("name, R, budget", [
    ("d-square", 5, 50),
    ("d-square", 5, 68),
    ("d-triangle", 7, 1000),
    ("triangle", 9, 400),
])
def test_enumerate_budget_stops_exactly(name, R, budget):
    res = enumerate_curve_sets(catalog.grid(name), R, budget=budget)
    assert (res.complete, res.nodes) == (False, budget + 1)


def test_enumerate_budget_equal_to_nodes_completes():
    res = enumerate_curve_sets(catalog.grid("d-square"), 5, budget=69)
    assert (res.complete, res.nodes, len(res.curvesets)) == (True, 69, 5)


@pytest.mark.parametrize("name, R, count", [("d-triangle", 7, 35), ("d-square", 8, 6)])
def test_enumerate_mirror_images_are_normalized(name, R, count):
    # every turn in (-n/2, n/2]: a mirrored U-turn must come out as +n/2
    grid = catalog.grid(name)
    res = enumerate_curve_sets(grid, R)
    assert len(res.curvesets) == count
    turns = {t for cs in res.curvesets for _, w in cs.productions
             for t in w.tokens if isinstance(t, int)}
    assert all(-grid.n < 2 * t <= grid.n for t in turns)
    assert grid.n // 2 in turns


@pytest.fixture(scope="module")
def search_candidates():
    # (grid, order, candidate curve-sets) that the search sent to is_invalid
    # before it pruned self-transitions failing Dekking-1
    doc = json.loads(Path(__file__).with_name("search_candidates.json").read_text())
    out = []
    for case in doc["cases"]:
        grid = catalog.grid(case["grid"])
        out.append((grid, case["order"],
                    [parsed_set(grid, productions) for productions in case["candidates"]]))
    return out


def test_is_invalid_matches_validate_on_search_candidates(search_candidates):
    sets = [cs for _, _, candidates in search_candidates for cs in candidates]
    assert len(sets) == 324
    got = [is_invalid(cs) for cs in sets]
    assert got == [validate(cs).verdict == INVALID for cs in sets]
    assert sum(got) == 292


def test_search_candidates_are_those_passing_dekking1(search_candidates, monkeypatch):
    # the prune's oracle: on these one-letter grids every Dekking-1 check is
    # a self-transition, so the search now sends is_invalid exactly the
    # earlier candidates that pass it, in the same order
    import gridcurve.search as search

    seen = []

    def recording(cs):
        seen.append(cs)
        return is_invalid(cs)

    monkeypatch.setattr(search, "is_invalid", recording)
    total = 0
    for grid, R, candidates in search_candidates:
        seen.clear()
        enumerate_curve_sets(grid, R)
        passing = [cs.productions for cs in candidates if check_dekking1(cs)[0]]
        assert [cs.productions for cs in seen] == passing, grid.name
        assert not any(is_invalid(cs) for cs in seen)
        total += len(passing)
    assert total == 32


def test_enumerate_determinism():
    a = enumerate_curve_sets(catalog.grid("square"), 5)
    b = enumerate_curve_sets(catalog.grid("square"), 5)
    assert [
        [w.tokens for _, w in cs.productions] for cs in a.curvesets
    ] == [
        [w.tokens for _, w in cs.productions] for cs in b.curvesets
    ]


def test_orbit_equinumerosity_all_catalog(all_grids):
    for name, grid in sorted(all_grids.items()):
        tp = TorusPatch.build(grid, 1, 1)
        counts = Counter(letter for _, _, letter in tp.edges)
        assert len(set(counts.values())) == 1, (name, counts)
        assert set(counts) == set(grid.letters)


def test_order_errors_other_than_unequal_rows_propagate(monkeypatch):
    import gridcurve.search as search

    def broken(cs):
        raise TypeError("broken order")

    monkeypatch.setattr(search, "order", broken)
    with pytest.raises(TypeError, match="broken order"):
        enumerate_curve_sets(catalog.grid("square"), 5)
