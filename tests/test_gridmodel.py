import json
from pathlib import Path

import pytest

from gridcurve import catalog, gridmodel
from gridcurve.exactgeom import Lattice, Point, add_vec, embed_vec, normalize_turn, phi, unit_coeffs
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
    closure,
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
    assert {t.turn for t in g.transitions if (t.src, t.dst) == ("D", "E")} == {2, -2, 0}


def test_uturn_needs_double():
    g = GridSpec("bad", 4, ("A",), (T("A", 2, "A"),), double=False)
    assert any("U-turn" in v for v in check_grid(g))


def test_realize_triangle_valency():
    patch = realize(catalog.grid("triangle"), 4)
    origin = (0,) * phi(3)
    # find a comfortably interior vertex and count incident edges
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
        for e2 in patch.out_at.get(patch.head(edge), ()):
            assert e2[1] != edge[1]


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
            total = sum(t for t in tile.boundary_word().tokens if isinstance(t, int))
            if tile.sense == CCW:
                assert total == g.n, (name, str(tile))
            elif tile.sense == CW:
                assert total == -g.n, (name, str(tile))


def test_face_cover(all_grids):
    # interior edges border one CCW face on the left and one CW or digon
    # face on the right; the face table continues each face with the
    # extreme turn among the successors that the realized patch holds, and
    # its exact centre is the mean of the patch face's tails; radius 8
    # closes the dodecagons of d31212 around every edge of depth 2
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
            turns = [normalize_turn(e2[1] - e[1], g.n) for e2 in patch.out_at.get(patch.head(e), ())]
            letter = patch.edges[e]
            key = lambda t: face_key(t, g.n)
            assert g.face_table.turn[(letter, LEFT)] == max(turns, key=key), (name, e)
            assert g.face_table.turn[(letter, RIGHT)] == min(turns, key=key), (name, e)
            for side, face in ((LEFT, faces[lf]), (RIGHT, faces[rf])):
                tails = [Point(g.n, f[0]).to_complex() for f in face.cycle]
                vertex_sum, size = g.face_vertices(e, letter, side)
                center = embed_vec(vertex_sum, g.n) / size
                assert abs(center - sum(tails) / len(tails)) < 1e-9, (name, e, side)


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


def test_realize_reaches_every_edge_within_the_radius(all_grids):
    # the edges within a Euclidean radius are the same in a patch grown to
    # that radius as in one grown well past it, and every edge of the patch
    # lies within it or next to an edge that does
    def within(edge, n, r):
        return abs(embed_vec(edge[0], n) + embed_vec(unit_coeffs(n)[edge[1]], n) / 2) <= r

    for name, g in all_grids.items():
        patch, wide = realize(g, 2.5), realize(g, 5.0)
        inner = {e for e in patch.edges if within(e, g.n, 2.5)}
        assert inner == {e for e in wide.edges if within(e, g.n, 2.5)}, name
        assert all(patch.edges[e] == wide.edges[e] for e in patch.edges), name
        assert all(patch.depth[e] == wide.depth[e] for e in inner), name
        ends = {v for e in inner for v in (e[0], patch.head(e))}
        assert all(e[0] in ends or patch.head(e) in ends for e in patch.edges), name


def test_face_cycle_walks_the_boundary_word(all_grids):
    # the face table's rotated steps give the edges that the face's boundary
    # word walks from an edge in any direction, and their tails sum to the
    # vertex sum from direction 0
    for name, g in all_grids.items():
        units = unit_coeffs(g.n)
        for (letter, side), tokens in g.face_table.word.items():
            for k in range(g.n):
                pos, d, want = units[1], k, []
                for i in range(0, len(tokens), 2):
                    want.append(((pos, d), tokens[i]))
                    pos, d = add_vec(pos, units[d]), (d + tokens[i + 1]) % g.n
                assert g.face_cycle((units[1], k), letter, side) == want, (name, letter, side, k)
            tails = [e[0] for e, _ in g.face_cycle(((0,) * phi(g.n), 0), letter, side)]
            assert g.face_table.vertex_sum[(letter, side)][0] == tuple(map(sum, zip(*tails)))


def test_translation_lattices_pinned(all_grids):
    # pinned from the earlier detect_translation_lattice, which verified on
    # patches of edge depth 12, 18 and 26
    pinned = json.loads(Path(__file__).with_name("translation_lattices.json").read_text())
    got = {name: [list(v.coeffs) for v in detect_translation_lattice(g)[0]]
           for name, g in all_grids.items()}
    assert len(got) == 32
    assert got == pinned


def test_every_seed_letter_edge_is_a_translation(all_grids):
    # the check that lattice detection made before it proved its lattice on
    # the quotient: on a patch of radius 6, every direction-0 edge with the
    # seed letter at v carries the edges whose tails lie within 6 - |v| - 1
    # onto edges of the same letter
    checked = 0
    for name, g in all_grids.items():
        patch = realize(g, 6)
        norm = {pos: abs(embed_vec(pos, g.n)) for pos, _ in patch.edges}
        for (v, k), letter in patch.edges.items():
            if k or letter != g.seed_letter() or not any(v):
                continue
            inner = [(e, L) for e, L in patch.edges.items() if norm[e[0]] <= 6 - norm[v] - 1]
            assert all(patch.edges.get((add_vec(pos, v), d)) == L for (pos, d), L in inner), (name, v)
            checked += bool(inner)
    assert checked > 100


def test_contradictory_coloring_raises_from_lattice_and_torus():
    from gridcurve.search import TorusPatch

    # every (letter, turn) and (turn, letter) pair is unique, yet walking
    # the transitions forces two letters onto one edge
    transitions = (T("A", 1, "A"), T("B", -1, "A"), T("B", 0, "B"))
    with pytest.raises(InconsistentColoring):
        detect_translation_lattice(GridSpec("contradictory", 4, ("A", "B"), transitions))
    with pytest.raises(InconsistentColoring):
        TorusPatch.build(GridSpec("contradictory", 4, ("A", "B"), transitions), 2, 2)


def test_detection_proves_its_lattice_on_the_quotient(monkeypatch):
    # detection closes the grid modulo the lattice it returns, once: the
    # quotient that the 1x1 torus also holds
    from gridcurve.search import TorusPatch

    quotients = []
    real = gridmodel.closure

    def recording(spec, reduce=None, **kwargs):
        out = real(spec, reduce, **kwargs)
        if reduce is not None:
            quotients.append(out[0])
        return out

    monkeypatch.setattr(gridmodel, "closure", recording)
    for name in ("square", "3446-3464", "d31212", "trihex-set6"):
        base = catalog.grid(name)
        torus = TorusPatch.build(GridSpec(name, base.n, base.letters, base.transitions, base.double), 1, 1)
        quotients.clear()
        assert detect_translation_lattice(base)[0] == (torus.v1, torus.v2)
        assert [list(q.items()) for q in quotients] == [
            [((pos, k), letter) for pos, k, letter in torus.edges]], name


def test_quotient_by_a_non_translation_conflicts(all_grids):
    # a direction-0 edge at u with another letter than the seed's is no
    # translation, and closing the grid modulo a lattice through u puts
    # both letters on the seed edge's class
    tried = 0
    for name, g in all_grids.items():
        v1, v2 = g.translation_lattice
        assert closure(g, Lattice(v1, v2).reduce)[0], name
        patch = realize(g, 4)
        for (u, k), letter in patch.edges.items():
            if k == 0 and letter != g.seed_letter():
                w = Point(g.n, u)  # paired with a lattice vector not parallel to it
                other = v2 if w * v1.conjugate() == w.conjugate() * v1 else v1
                with pytest.raises(InconsistentColoring):
                    closure(g, Lattice(w, other).reduce)
                tried += 1
                break
    assert tried >= 10  # the grids with another letter in direction 0


def test_translation_lattice_cached_for_torus_builds(monkeypatch):
    from gridcurve.search import TorusPatch

    base = catalog.grid("square")
    grid = GridSpec(base.name, base.n, base.letters, base.transitions)
    calls = []
    real = gridmodel.realize
    monkeypatch.setattr(gridmodel, "realize", lambda *a: calls.append(a) or real(*a))
    first = TorusPatch.build(grid, 2, 2)
    again = TorusPatch.build(grid, 3, 3)
    assert len(calls) == 1
    assert (first.v1, first.v2) == (again.v1, again.v2) == grid.translation_lattice
    # the walks come from the patch in which the lattice was found
    assert len(grid.lattice_walks) == 2 and len(calls) == 1


def test_lattice_walks_reach_the_translates_over_grid_edges(all_grids):
    # each walk crosses edges of the realized grid, with their letters, one
    # after another from the origin, and ends at its lattice vector
    for name, grid in all_grids.items():
        n, units = grid.n, unit_coeffs(grid.n)
        patch = realize(grid, 14)
        for v, walk in zip(grid.translation_lattice, grid.lattice_walks):
            pos = (0,) * phi(n)
            for sign, L, k in walk:
                tail = pos if sign > 0 else tuple(a - b for a, b in zip(pos, units[k]))
                assert patch.edges[(tail, k)] == L, name
                pos = add_vec(tail, units[k]) if sign > 0 else tail
            assert pos == v.coeffs, name


def test_lattice_classes_walk_to_an_edge_of_each_class(all_grids):
    # one class per edge of the closure modulo the lattice, each with the
    # quotient's letter, and a walk over grid edges that ends on the tail
    # of an edge of the class
    for name, grid in all_grids.items():
        n, units = grid.n, unit_coeffs(grid.n)
        reduce = Lattice(*grid.translation_lattice).reduce
        letters, _ = closure(grid, reduce)
        classes = grid.lattice_classes
        assert {key: letter for key, (letter, _) in classes.items()} == letters, name
        patch = realize(grid, 14)
        for (rep, k), (letter, walk) in classes.items():
            pos = (0,) * phi(n)
            for sign, L, j in walk:
                tail = pos if sign > 0 else tuple(a - b for a, b in zip(pos, units[j]))
                assert patch.edges[(tail, j)] == L, name
                pos = add_vec(tail, units[j]) if sign > 0 else tail
            assert reduce(pos) == rep and patch.edges[(pos, k)] == letter, name


def test_translation_lattice_square():
    (v1, v2), _, _ = detect_translation_lattice(catalog.grid("square"))
    z1, z2 = v1.to_complex(), v2.to_complex()
    # the diagonal lattice: both vectors of squared length 2, independent
    assert abs(abs(z1) ** 2 - 2) < 1e-9
    assert abs(abs(z2) ** 2 - 2) < 1e-9
    assert abs((z1 * z2.conjugate()).imag) > 1e-9


def test_cli_prototiles(capsys):
    from gridcurve import cli

    assert cli.main(["prototiles", "d-hexagon"]) == 0
    assert capsys.readouterr().out == "[A+]^6 CCW\n[A!]^2 DIGON\n"
