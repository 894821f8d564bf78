import pytest

from gridcurve import catalog
from gridcurve.exactgeom import Point, phi
from gridcurve.gridmodel import (
    CCW,
    CW,
    DIGON,
    LEFT,
    RIGHT,
    GridSpec,
    InconsistentColoring,
    Transition,
    check_grid,
    detect_translation_lattice,
    face_key,
    prototiles,
    realize,
)
from gridcurve.specio import parse


def T(s, t, d):
    return Transition(s, t, d)


def test_check_grid_3464():
    assert check_grid(catalog.grid("3464")) == []


def test_check_grid_conflict():
    g = GridSpec("bad", 4, ("A", "B", "C"),
                 (T("A", 1, "B"), T("A", 1, "C")))
    violations = check_grid(g)
    assert len(violations) == 1
    assert "(A,+)" in violations[0]


def test_check_grid_3366():
    g = catalog.grid("3366")
    assert len(g.transitions) == 11
    assert check_grid(g) == []
    # three different turns lead from D to E
    assert set(g.pair_turns[("D", "E")]) == {2, -2, 0}


def test_uturn_needs_double():
    g = GridSpec("bad", 4, ("A",), (T("A", 2, "A"),), double=False)
    assert any("U-turn" in v for v in check_grid(g))


def test_realize_triangle_valency():
    patch = realize(catalog.grid("triangle"), 4)
    origin = (0,) * phi(3)
    # find a comfortably interior vertex and count incident edges
    from gridcurve.exactgeom import add_vec, unit_coeffs

    units = unit_coeffs(3)
    counts = {}
    for (pos, k), letter in patch.edges.items():
        head = add_vec(pos, units[k])
        counts[pos] = counts.get(pos, 0) + 1
        counts[head] = counts.get(head, 0) + 1
    assert counts[origin] == 6


def test_realize_square_no_straight():
    patch = realize(catalog.grid("square"), 3)
    for edge in patch.edges:
        for t, e2 in patch.successors(edge):
            assert t != 0


def test_realize_broken_coloring_raises():
    g = GridSpec("broken", 4, ("A", "B"),
                 (T("A", 1, "A"), T("A", -1, "B"), T("B", 1, "A"), T("B", -1, "B")))
    with pytest.raises(InconsistentColoring):
        realize(g, 3)


def test_prototiles_3464():
    tiles = {t.to_string(12): t.sense for t in prototiles(catalog.grid("3464"))}
    assert tiles == {
        "[A++]^6": CCW,
        "[B++++]^3": CCW,
        "[A---B---]^2": CW,
    }


def test_prototiles_dhexagon():
    tiles = {t.to_string(6): t.sense for t in prototiles(catalog.grid("d-hexagon"))}
    assert tiles == {"[A+]^6": CCW, "[A!]^2": DIGON}


def test_prototiles_3446():
    tiles = {t.to_string(12, False): (t.sense, t.exponent)
             for t in prototiles(catalog.grid("3446-3464"))}
    assert tiles == {
        "[A++]^6": (CCW, 6),
        "[B++++C++++D++++]^1": (CCW, 1),
        "[E+++F+++]^2": (CCW, 2),
        "[A---B---F---D---]^1": (CW, 1),
        "[C--E--]^3": (CW, 3),
    }


def test_exponent_maximality(all_grids):
    for name, g in all_grids.items():
        for tile in prototiles(g):
            period = tile.period.tokens
            m = len(period) // 2
            for p in range(1, m):
                if m % p:
                    continue
                assert period != period[2 * p:] + period[:2 * p], (name, tile)


def test_prototile_turning(all_grids):
    for name, g in all_grids.items():
        for tile in prototiles(g):
            total = sum(tile.boundary_word().turns())
            if tile.sense == CCW:
                assert total == g.n, (name, str(tile))
            elif tile.sense == CW:
                assert total == -g.n, (name, str(tile))


def test_face_cover(all_grids):
    # interior edges border one CCW face on the left and one CW or digon
    # face on the right; the face table continues each face with the
    # extreme turn among the successors that the realized patch holds;
    # radius 8 closes the dodecagons of d31212 around every edge of depth 2
    for name, g in all_grids.items():
        patch = realize(g, 8)
        left, right, faces = patch.face_maps()
        interior = [e for e, d in patch.depth.items() if d <= 2]
        for e in interior:
            lf, rf = left[e], right[e]
            assert lf >= 0 and rf >= 0, (name, e)
            assert faces[lf].sense == CCW
            assert faces[rf].sense in (CW, DIGON)
            if g.double:
                assert faces[rf].sense == DIGON
            turns = [t for t, _ in patch.successors(e)]
            letter = patch.edges[e]
            key = lambda t: face_key(t, g.n)
            assert g.face_table.turn[(letter, LEFT)] == max(turns, key=key), (name, e)
            assert g.face_table.turn[(letter, RIGHT)] == min(turns, key=key), (name, e)


def test_face_table_is_lazy():
    doc = parse("grid g { turn = 4; letters = F; transitions = F-F, F+F }")
    g = doc.grids()["g"]
    assert "face_table" not in g.__dict__
    assert g.face_table.word[("F", LEFT)] == ("F", 1) * 4
    assert g.face_table.sense[("F", RIGHT)] == CW


def test_catalog_d488():
    g = catalog.grid("d488")
    assert g.letters == ("A", "b", "B")
    assert g.double
    assert g.n == 8
    spelled = {f"{t.src}{t.turn:+d}{t.dst}" for t in g.transitions}
    assert "A+1B" in spelled and "A+4A" in spelled and "A-1b" in spelled
    assert "b+2b" in spelled and "B-2B" in spelled and "B+4b" in spelled


def test_catalog_d31212():
    g = catalog.grid("d31212")
    assert g.n == 12
    spelled = {f"{t.src}{t.turn:+d}{t.dst}" for t in g.transitions}
    assert "B-4B" in spelled and "b+4b" in spelled


def test_catalog_unknown():
    with pytest.raises(catalog.CatalogError):
        catalog.grid("unknown-grid")


def test_catalog_required_entries():
    required = [
        "square", "triangle", "trihex", "3464", "3446-3464", "3366",
        "sq-fg", "sq-lr", "sq-star", "sq-set", "sq-4col-a", "sq-4col-b",
        "sq-4col-c", "sq-5col",
        "tri-fgh", "tri-abc-star", "tri-abc-rot", "tri-bizarro",
        "trihex-ab", "trihex-fgh", "trihex-set6",
        "3464-rot4", "3464-fhg6",
        "d-hexagon", "d-hexagon-abc", "d-square", "d-triangle",
        "d-triangle-ab", "d-trihex", "d488", "d31212",
    ]
    names = set(catalog.grid_names())
    for name in required:
        assert name in names, name
    for name in names:
        assert check_grid(catalog.grid(name)) == [], name


def test_translation_lattice_square():
    v1, v2 = detect_translation_lattice(catalog.grid("square"))
    z1, z2 = v1.to_complex(), v2.to_complex()
    # the diagonal lattice: both vectors of squared length 2, independent
    assert abs(abs(z1) ** 2 - 2) < 1e-9
    assert abs(abs(z2) ** 2 - 2) < 1e-9
    assert abs((z1 * z2.conjugate()).imag) > 1e-9


def test_cli_prototiles(capsys):
    from gridcurve import cli

    assert cli.main(["prototiles", "d-hexagon"]) == 0
    assert capsys.readouterr().out == "[A+]^6 CCW\n[A!]^2 DIGON\n"
