import itertools

import pytest

from gridcurve import catalog
from gridcurve.gridmodel import check_grid
from gridcurve.search import (
    TorusPatch,
    enumerate_curve_sets,
    search_colorings,
)
from gridcurve.validator import INVALID, validate


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


def test_enumerate_soundness():
    res = enumerate_curve_sets(catalog.grid("d-square"), 4)
    for cs in res.curvesets:
        assert validate(cs).verdict != INVALID


def test_enumerate_budget():
    res = enumerate_curve_sets(catalog.grid("d-square"), 5, budget=50)
    assert not res.complete


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
        counts = tp.letter_counts()
        assert len(set(counts.values())) == 1, (name, counts)
        assert set(counts) == set(grid.letters)


def test_order_errors_other_than_unequal_rows_propagate(monkeypatch):
    import gridcurve.search as search

    def broken(cs):
        raise TypeError("broken order")

    monkeypatch.setattr(search, "order", broken)
    with pytest.raises(TypeError, match="broken order"):
        enumerate_curve_sets(catalog.grid("square"), 5)
