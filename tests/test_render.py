import hashlib
import re

import pytest

from gridcurve import catalog, gridmodel
from gridcurve.exactgeom import Point, phi
from gridcurve.gridmodel import DIGON, LEFT, RIGHT, GridSpec, Transition, prototiles, realize
from gridcurve.lsystem import expand, expand_tagged
from gridcurve.render import (
    AREA,
    BY_ANCESTOR,
    BY_LETTER,
    BY_ORIENTATION,
    LINE,
    RenderStyle,
    _face_centers,
    check_svg,
    render_area,
    render_line,
    render_points,
)
from gridcurve.words import Word, parse_word


def polygon_areas(svg):
    out = []
    for m in re.finditer(r'points="([^"]+)"', svg):
        pts = [tuple(map(float, p.split(","))) for p in m.group(1).split()]
        area = 0.0
        for i in range(len(pts)):
            x1, y1 = pts[i]
            x2, y2 = pts[(i + 1) % len(pts)]
            area += x1 * y2 - x2 * y1
        out.append(abs(area) / 2)
    return out


def test_line_terdragon_motif():
    tri = catalog.grid("triangle")
    svg = render_line(parse_word("F+F-F"), tri, RenderStyle())
    assert check_svg(svg)
    assert svg.count("<path") == 1
    path = re.search(r'd="([^"]+)"', svg).group(1)
    assert path.count("L") == 3  # three segments
    assert path.count("A") == 2  # two fillets


def test_line_sharp_corners():
    tri = catalog.grid("triangle")
    svg = render_line(parse_word("F+F-F"), tri, RenderStyle(corner_radius=0))
    path = re.search(r'd="([^"]+)"', svg).group(1)
    assert "A" not in path


def test_line_empty_word():
    from gridcurve.words import Word

    tri = catalog.grid("triangle")
    svg = render_line(Word(()), tri, RenderStyle())
    assert check_svg(svg)
    assert "<path" not in svg


def test_ancestor_coloring_r13():
    cs = catalog.curveset("tri-r13-1")
    w, tags = expand_tagged(cs, parse_word("F"), 2)
    style = RenderStyle(color_scheme=BY_ANCESTOR, palette=tuple(
        f"#0000{i:02x}" for i in range(13)
    ))
    svg = render_line(w, cs.grid, style, tags=tags)
    assert check_svg(svg)
    paths = re.findall(r"<path [^>]*>", svg)
    assert len(paths) == 13  # 13 contiguous color runs
    for p in paths:
        d = re.search(r'd="([^"]+)"', p).group(1)
        assert d.count("L") == 13  # of 13 edges each


def test_area_single_edge_half_cell():
    sq = catalog.grid("square")
    style = RenderStyle(mode=AREA, scale=10.0)
    svg = render_area(parse_word("F"), sq, style)
    areas = polygon_areas(svg)
    assert len(areas) == 1
    assert areas[0] == pytest.approx(0.5 * 10.0 * 10.0, rel=1e-6)


def test_area_dtriangle_half_density():
    # the half-curve of order 3 visits each segment in one direction only,
    # painting one of the two side-thirds: half of any covered region stays
    # empty.  Each left-triangle is a third of a cell.
    import math

    cs = catalog.curveset("dtri-r3")
    cell = math.sqrt(3) / 4
    for k in (1, 2):
        w = expand(cs, parse_word("A", 6), k)
        svg = render_area(w, cs.grid, RenderStyle(mode=AREA, scale=1000.0))
        areas = polygon_areas(svg)
        assert len(areas) == 3 ** k
        assert sum(areas) / 1000.0 ** 2 == pytest.approx(3 ** k * cell / 3, rel=1e-6)


def test_area_partition_dsquare_tile():
    cs = catalog.curveset("dsq-r4")
    tile = parse_word("[A+]^4", 4)
    w = expand(cs, tile, 1)
    style = RenderStyle(mode=AREA, scale=1000.0)
    svg = render_area(w, cs.grid, style)
    areas = polygon_areas(svg)
    assert len(areas) == 16
    # the sixteen left-triangles tile the 2x2 square
    assert sum(areas) / 1000.0 ** 2 == pytest.approx(4.0, rel=1e-6)


# SVG digests of area renders of the curve-set's first letter at depth k,
# pinned from the patch-based renderer
AREA_PINS = {
    ("sq-r5", 5): "6f0a87c5ba436d7893a7c503c239beb713e993d306e60b7130560a81a9186dc9",
    ("gosper", 4): "6a8d34b97988e48a157e2b3decf853992e4ab3b67ddddcdf3145ed261e2522a9",
    ("dtri-r4", 5): "b55419142d931bb98a93d0d5a8ca7ecd436952373d50a00c9ffd823bad6a2a5b",
}


@pytest.mark.parametrize("name, k", AREA_PINS, ids=lambda v: str(v))
def test_area_realizes_no_patch(monkeypatch, name, k):
    def no_patch(*args):
        raise AssertionError("render_area realized a patch")

    monkeypatch.setattr(gridmodel, "realize", no_patch)
    cs = catalog.curveset(name)
    w = expand(cs, Word((cs.letters[0],)), k)
    svg = render_area(w, cs.grid, RenderStyle(mode=AREA))
    assert svg.count("<polygon") == w.nletters()
    assert hashlib.sha256(svg.encode()).hexdigest() == AREA_PINS[(name, k)]


# SVG digests of renders of the curve-set's first letter at depth k, with
# ancestor tags from expand_tagged when tagged, pinned from the renderer
# that kept a list of every edge's end points and widened the bounding box
# one point at a time
RENDER_PINS = {
    ("sq-r5", 6, False, ()): "56c8f5172c6ec8d22aed4cc43f60b859f0f4c1f23ff61460b9497d4980297464",
    ("gosper", 5, False, ()): "5d18dfd2175f8863b976ea2c137c49565a801a033db01ab8635cc3bd8324bbf6",
    ("sq-r5", 3, False, (("corner_radius", 0),)):
        "1f65344db0f43cd2c8c52940d4150abde0e36738b301ffa4c4b4c23698e59ac9",
    ("gosper", 3, False, (("corner_radius", 0.5),)):
        "52096477ab475ec9f58cffbaab0eca58761014711873cbb309db27a9c3a78ad2",
    ("gosper", 3, False, (("color_scheme", BY_ORIENTATION),)):
        "0bfa649720b6c1991d67ce4bc2c2f2a7c38a1f272ee49c7e8cbeaf02af7cbafd",
    ("tri-r13-1", 2, True, (("color_scheme", BY_ANCESTOR),)):
        "b33b3dea411f9aa547ae677ca6047889cd9a05e9d42222dff57ef0d60af9879a",
    # a double-edge grid: strokes shift to their left lanes
    ("dtri-r4", 4, False, ()): "591949f1239d50ae6e42737e85bca47e0880e01195bb3b042713a9e2d3d86a7e",
    # no grid: render_line takes the curve-set's turn resolution
    ("nofit-1", 3, False, ()): "08e30bad99c751772c3c70d35077b26a78f2bf1754932a001031e35b5f5b5181",
    ("gosper", 3, True, (("mode", AREA), ("color_scheme", BY_ANCESTOR))):
        "936fc4e20107cce625a0e7d0daf2f2fd0a14da802c2b395c8a13b3437051ae20",
    ("3446-r31", 1, False, (("mode", AREA), ("color_scheme", BY_ORIENTATION))):
        "b3c206a6d6134af2d348105c21bae18af6c4d40356e35526bd1529dd360f78a2",
    ("dsq-r4", 3, False, (("mode", AREA), ("draw_borders", True))):
        "3b65cc3696ebea39f0324847b41904fd3a6955fa100383468ed584f2fff71d13",
}


@pytest.mark.parametrize("name, k, tagged, style", RENDER_PINS, ids=lambda v: str(v))
def test_render_bytes_pinned(name, k, tagged, style):
    cs = catalog.curveset(name)
    axiom = Word((cs.letters[0],))
    word, tags = expand_tagged(cs, axiom, k) if tagged else (expand(cs, axiom, k), None)
    style_obj = RenderStyle(**dict(style))
    if style_obj.mode == AREA:
        svg = render_area(word, cs.grid, style_obj, tags=tags)
    else:
        svg = render_line(word, cs.grid, style_obj, n=cs.n, tags=tags)
    assert hashlib.sha256(svg.encode()).hexdigest() == RENDER_PINS[(name, k, tagged, style)]


def test_area_rim_faces_sq_r29():
    # every face beside the curve closes on the square grid, so every
    # polygon is a full lozenge of area 1/2; a patch around the curve cut
    # off two faces at its rim and drew a half-width corner (580,1290)
    cs = catalog.curveset("sq-r29")
    w = expand(cs, Word((cs.letters[0],)), 2)
    svg = render_area(w, cs.grid, RenderStyle(mode=AREA, scale=40.0))
    areas = polygon_areas(svg)
    assert len(areas) == 29 ** 2
    assert areas == pytest.approx([0.5 * 40.0 ** 2] * len(areas), rel=1e-9)
    assert "580.0000,1300.0000" in svg and "580.0000,1290.0000" not in svg


def test_area_turn_off_grid_raises():
    # square is directed: no edge of it leaves a vertex the way it came
    with pytest.raises(ValueError, match="leaves grid 'square' at edge 1"):
        render_area(parse_word("F++F"), catalog.grid("square"), RenderStyle(mode=AREA))
    # no edge arrives at the seed edge, so no letter can be carried onto it
    g = GridSpec("g", 4, ("A", "B"), (Transition("A", 1, "B"), Transition("B", 1, "B")))
    with pytest.raises(ValueError, match="arrives at its seed letter"):
        render_area(parse_word("A"), g, RenderStyle(mode=AREA))


def test_area_axiom_starting_with_a_turn(all_grids):
    # a one-edge word that turns to direction k first draws the grid's edge
    # (origin, k), whatever its letter; its face centres are those of the
    # realized patch's faces, and digons fall back
    for name, g in all_grids.items():
        patch = realize(g, 8)
        left, right, faces = patch.face_maps()
        origin = (0,) * phi(g.n)
        for (pos, k), letter in patch.edges.items():
            if pos != origin:
                continue
            want = []
            for side_map in (left, right):
                face = faces[side_map[(pos, k)]]
                tails = [Point(g.n, e[0]).to_complex() for e in face.cycle]
                want.append(None if face.sense == DIGON else sum(tails) / len(tails))
            got = _face_centers(g, [(pos, k, g.seed_letter())])
            assert len(got) == 1
            for expected, center, side in zip(want, got[0], (LEFT, RIGHT)):
                assert (expected is None) == (center is None), (name, k, side)
                assert expected is None or abs(expected - center) < 1e-9, (name, k, side)
            word = Word((k, letter)) if k else Word((letter,))
            assert render_area(word, g, RenderStyle(mode=AREA)).count("<polygon") == 1


def test_orientation_coloring_3446():
    grid = catalog.grid("3446-3464")
    cs = catalog.curveset("3446-r31")
    w = expand(cs, parse_word("A", 12), 1)
    style = RenderStyle(mode=AREA, color_scheme=BY_ORIENTATION)
    svg = render_area(w, grid, style)
    fills = set(re.findall(r'fill="([^"]+)"', svg))
    assert len(fills) == 6  # directions modulo a half turn


def test_area_borders():
    cs = catalog.curveset("dsq-r4")
    w = expand(cs, parse_word("A", 4), 1)
    with_borders = render_area(w, cs.grid, RenderStyle(mode=AREA, draw_borders=True))
    without = render_area(w, cs.grid, RenderStyle(mode=AREA))
    assert "stroke" in with_borders and "stroke" not in without


def test_render_points_cloud():
    svg = render_points([0 + 0j, 1 + 1j, -1 + 0.5j])
    assert check_svg(svg)
    assert svg.count("<polygon") == 3
    svg = render_points([0j, 1 + 1j, -1 + 0.5j, 0.25 - 2j])
    assert hashlib.sha256(svg.encode()).hexdigest() == (
        "582d8c279e781935ee363e9c63294463ea9e4fe2ec65cd0729842173743efb96")


def test_svg_structure_many():
    for name in ("terdragon", "ju19", "dsq-r5"):
        cs = catalog.curveset(name)
        seed = cs.letters[0]
        w = expand(cs, parse_word(seed, cs.n), 2)
        svg = render_line(w, cs.grid, RenderStyle())
        assert check_svg(svg)
        allowed = {"svg", "g", "path", "polygon"}
        for tag in re.findall(r"<(\w+)[ >]", svg):
            assert tag in allowed


def test_check_svg_rejects_malformed_xml():
    for text in ("<svg", "", "<svg></g>", '<svg xmlns="http://www.w3.org/2000/svg"><path d="M 0 0"></svg>'):
        assert not check_svg(text), text


@pytest.mark.parametrize("coords", ["nan inf", "1 NaN", "-Infinity 2", "+inf 0", "1e999 0"])
def test_check_svg_rejects_non_finite_coordinates(coords):
    svg = f'<svg xmlns="http://www.w3.org/2000/svg"><path d="M {coords} L 1 2"/></svg>'
    assert not check_svg(svg)
    # words that merely contain "nan" or "inf" are not numbers
    assert check_svg(svg.replace(coords, "0 0").replace("<path", '<path class="infinite nano"'))


def test_style_validation():
    with pytest.raises(ValueError):
        RenderStyle(corner_radius=0.7)
    with pytest.raises(ValueError):
        RenderStyle(mode="volume")
    with pytest.raises(ValueError):
        RenderStyle(color_scheme="mood")
