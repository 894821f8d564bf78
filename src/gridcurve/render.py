"""SVG output: line drawings with rounded corners, and area drawings.

Line mode draws one path per color run, with circular fillets at interior
turns (U-turns become semicircular caps around the vertex).  Area mode
assigns each edge a polygon: the quadrilateral spanned by tail, right face
center, head, left face center on plain grids, or the triangle tail, head,
left face center on double-edge grids, where the area of an edge lies on
its left.  Face centers come from the grid's face table, so area mode does
work linear in the drawn edges; a side whose face never closes, or is a
digon, gets a point a quarter edge off the edge's midpoint instead.  Only
svg, g, path, and polygon elements are emitted.

Both modes draw in one pass over the traced edges: each edge's points are
computed once, formatted into one string, and widen a running bounding
box that the document receives at the end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, partial
from typing import Iterable, Sequence

from .exactgeom import embed_vec, normalize_turn, trace_tokens, unit_coeffs
from .gridmodel import DIGON, LEFT, RIGHT, GridSpec, grid_letters
from .words import Word

LINE = "line"
AREA = "area"
BY_LETTER = "letter"
BY_ANCESTOR = "ancestor"
BY_ORIENTATION = "orientation"

PALETTE = (
    "#3566c8", "#d43d3d", "#3ca648", "#e9a127", "#8a51c0", "#2aa9b8",
    "#d06aac", "#7a7f2a", "#b5542a", "#4f6f8f", "#99b83c", "#6a4a3a",
)


@dataclass(frozen=True)
class RenderStyle:
    mode: str = LINE
    corner_radius: float = 0.25  # fraction of the edge length, in [0, 0.5]
    color_scheme: str = BY_LETTER
    palette: tuple[str, ...] = PALETTE
    scale: float = 40.0
    draw_borders: bool = False

    def __post_init__(self):
        if not 0 <= self.corner_radius <= 0.5:
            raise ValueError("corner radius must lie in [0, 0.5]")
        if self.mode not in (LINE, AREA):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.color_scheme not in (BY_LETTER, BY_ANCESTOR, BY_ORIENTATION):
            raise ValueError(f"unknown color scheme {self.color_scheme!r}")


# the bounding box (min_x, min_y, max_x, max_y) of no points
_NO_BOX = (math.inf, math.inf, -math.inf, -math.inf)

# line width in render_line, as a fraction of the edge length
_STROKE_WIDTH = 0.08
# render_points: drawing units per unit of the plane, and the diamonds'
# half-diagonal in units of the plane
_POINT_SCALE = 40.0
_POINT_RADIUS = 0.18


class SvgDoc:
    """SVG elements and their bounding box, in drawing units."""

    def __init__(self, elements: Sequence[str] = (), box: tuple[float, ...] = _NO_BOX):
        self.elements = list(elements)
        self.min_x, self.min_y, self.max_x, self.max_y = box

    def to_string(self) -> str:
        if not self.elements or self.min_x == float("inf"):
            return (
                '<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 1 1">'
                "<g></g></svg>\n"
            )
        w = self.max_x - self.min_x or 1.0
        h = self.max_y - self.min_y or 1.0
        mx, my = 0.05 * w, 0.05 * h
        view = "%.4f %.4f %.4f %.4f" % (self.min_x - mx, self.min_y - my, w + 2 * mx, h + 2 * my)
        body = "\n".join(self.elements)
        return (
            f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="{view}">\n'
            f"<g>\n{body}\n</g>\n</svg>\n"
        )


def _edge_color(style: RenderStyle, grid: GridSpec | None, letter: str,
                dirk: int, n: int, tag: int | None) -> str:
    if style.color_scheme == BY_ORIENTATION:
        cls = dirk % (n // 2) if n % 2 == 0 else dirk
        return style.palette[cls % len(style.palette)]
    if style.color_scheme == BY_ANCESTOR and tag is not None:
        return style.palette[tag % len(style.palette)]
    letters = grid.letters if grid is not None else sorted({letter})
    idx = letters.index(letter) if letter in letters else 0
    return style.palette[idx % len(style.palette)]


def render_line(
    word: Word,
    grid: GridSpec | None,
    style: RenderStyle,
    n: int | None = None,
    tags: Sequence[int] | None = None,
) -> str:
    """One polyline per color run, fillet arcs at interior turns.  One
    pass over the traced edges computes each edge's segment once and
    formats its commands as one string."""
    n = grid.n if grid is not None else n
    if n is None:
        raise ValueError("need a grid or a turn resolution")
    double = grid.double if grid is not None else True
    _, _, edges = trace_tokens(word.tokens, n)
    if not edges:
        return SvgDoc().to_string()
    s = style.scale
    f = style.corner_radius
    units = [embed_vec(u, n) for u in unit_coeffs(n)]
    # shift each stroke to its left so anti-parallel pairs separate
    offsets = [u * 1j * 0.10 for u in units]

    def segment(pos, k):
        a = embed_vec(pos, n)
        b = a + units[k]
        return (a + offsets[k], b + offsets[k]) if double else (a, b)

    # per turn t mod n: the fillet's sweep flag, and the divisor
    # 2 sin(angle / 2) from its chord to its radius (None for no turn)
    turns = [normalize_turn(t, n) for t in range(n)]
    fillets = [(0 if t > 0 else 1, 2 * math.sin(abs(t) * 2 * math.pi / n / 2) if t else None)
               for t in turns]
    color_of = cache(partial(_edge_color, style, grid))
    path = ('<path d="%s" fill="none" stroke="%s" stroke-width="'
            + "%.4f" % (_STROKE_WIDTH * s) + '" stroke-linecap="round"/>')
    min_x, min_y, max_x, max_y = _NO_BOX
    elements: list[str] = []
    cmds: list[str] = []
    color = None
    k = edges[0][1]
    a, b = segment(edges[0][0], k)
    start = a  # the edge's tail, trimmed for the fillet before it
    for i, (_, _, letter) in enumerate(edges):
        c = color_of(letter, k, n, tags[i] if tags is not None else None)
        x, y = start.real * s, -start.imag * s
        if c != color:
            if cmds:
                elements.append(path % (" ".join(cmds), color))
            cmds, color = ["M %.4f %.4f" % (x, y)], c
        end, arc = b, None
        if i + 1 < len(edges):
            pos, k2, _ = edges[i + 1]
            na, nb = segment(pos, k2)
            start = na
            if f > 0:
                # trim for fillets at both ends, and join them by an arc
                end, start = b - (b - a) * f, na + (nb - na) * f
                sweep, div = fillets[(k2 - k) % n]
                chord = abs(start - end)
                rad = (chord / div if div else chord) * s
                arc = (rad, rad, sweep, start.real * s, -start.imag * s)
            a, b, k = na, nb, k2
        ex, ey = end.real * s, -end.imag * s
        # the box grows seldom: test before calling min or max
        if x < min_x or ex < min_x:
            min_x = min(min_x, x, ex)
        if x > max_x or ex > max_x:
            max_x = max(max_x, x, ex)
        if y < min_y or ey < min_y:
            min_y = min(min_y, y, ey)
        if y > max_y or ey > max_y:
            max_y = max(max_y, y, ey)
        if arc is None:
            cmds.append("L %.4f %.4f" % (ex, ey))
        else:
            cmds.append("L %.4f %.4f A %.4f %.4f 0 0 %d %.4f %.4f" % (ex, ey, *arc))
    elements.append(path % (" ".join(cmds), color))
    return SvgDoc(elements, (min_x, min_y, max_x, max_y)).to_string()


def _face_centers(grid: GridSpec, edges) -> list[tuple[complex | None, complex | None]]:
    """Left and right face centers of every traced edge, from the face
    table, each computed once per face, keyed by its exact vertex sum and
    size; None where the face never closes or is a digon.  The path
    starts at the tail of the grid's seed edge, and the grid's letters on
    it are carried from an edge that arrives there."""
    arrivals = grid.arrivals.get(grid.seed_letter())
    if not arrivals:
        raise ValueError(f"no transition of grid {grid.name!r} arrives at its seed letter")
    start = arrivals[0]
    letters = grid_letters(grid, edges, start.src, -start.turn)
    sense = grid.face_table.sense
    centres: dict = {None: None}  # (exact vertex sum, size) -> centre; None: no face

    def centre(pos: tuple, k: int, letter: str, side: str) -> complex | None:
        if sense.get((letter, side)) == DIGON:
            return None
        face = grid.face_vertices((pos, k), letter, side)
        if face not in centres:
            centres[face] = embed_vec(face[0], grid.n) / face[1]
        return centres[face]

    return [(centre(pos, k, letter, LEFT), centre(pos, k, letter, RIGHT))
            for (pos, k, _), letter in zip(edges, letters)]


def render_area(
    word: Word,
    grid: GridSpec,
    style: RenderStyle,
    tags: Sequence[int] | None = None,
) -> str:
    """Per-edge polygons; lozenges on plain grids, left-triangles on
    double-edge grids.  A side whose face never closes, or is a digon,
    falls back to a half-width quadrilateral corner.  The word starts at
    the grid's seed vertex; a turn the grid lacks raises ValueError.  One
    pass over the traced edges formats each polygon as one string."""
    n = grid.n
    _, _, edges = trace_tokens(word.tokens, n)
    if not edges:
        return SvgDoc().to_string()
    centers = _face_centers(grid, edges)
    units = [embed_vec(u, n) for u in unit_coeffs(n)]
    quarter_normals = [u * 1j * 0.25 for u in units]  # to the left
    s = style.scale
    color_of = cache(partial(_edge_color, style, grid))
    border = ' stroke="#777777" stroke-width="%.4f"' % (0.02 * s) if style.draw_borders else ""
    polygon = '<polygon points="%s" fill="%s"' + border + "/>"
    min_x, min_y, max_x, max_y = _NO_BOX
    elements: list[str] = []
    for i, ((pos, k, letter), (lc, rc)) in enumerate(zip(edges, centers)):
        a = embed_vec(pos, n)
        b = a + units[k]
        if lc is None:
            lc = (a + b) / 2 + quarter_normals[k]
        if grid.double:
            corners = (a, b, lc)
        else:
            if rc is None:
                rc = (a + b) / 2 - quarter_normals[k]
            corners = (a, rc, b, lc)
        xs = [z.real * s for z in corners]
        ys = [-z.imag * s for z in corners]
        min_x, max_x = min(min_x, *xs), max(max_x, *xs)
        min_y, max_y = min(min_y, *ys), max(max_y, *ys)
        points = " ".join(["%.4f,%.4f" % xy for xy in zip(xs, ys)])
        color = color_of(letter, k, n, tags[i] if tags is not None else None)
        elements.append(polygon % (points, color))
    return SvgDoc(elements, (min_x, min_y, max_x, max_y)).to_string()


def render_points(points: Iterable[complex]) -> str:
    """Point cloud as small diamonds (numeration-system regions)."""
    scale = _POINT_SCALE
    r = _POINT_RADIUS * scale
    min_x, min_y, max_x, max_y = _NO_BOX
    elements: list[str] = []
    for z in points:
        x, y = z.real * scale, -z.imag * scale
        min_x, min_y = min(min_x, x - r, x + r), min(min_y, y - r, y + r)
        max_x, max_y = max(max_x, x - r, x + r), max(max_y, y - r, y + r)
        elements.append('<polygon points="%.4f,%.4f %.4f,%.4f %.4f,%.4f %.4f,%.4f" '
                        'fill="#3566c8"/>' % (x - r, y, x, y - r, x + r, y, x, y + r))
    return SvgDoc(elements, (min_x, min_y, max_x, max_y)).to_string()


def check_svg(text: str) -> bool:
    """Structural check: well-formed XML, one svg root, finite coordinates."""
    import xml.etree.ElementTree as ET

    try:
        root = ET.fromstring(text)
    except ET.ParseError:
        return False
    if not root.tag.endswith("svg"):
        return False
    return all(math.isfinite(num) for num in _numbers(text))


def _numbers(text: str):
    """Every number in the text, nan and inf (any case or sign) included."""
    import re

    pattern = r"-?\d+\.?\d*(?:e[+-]?\d+)?|[-+]?\b(?:nan|inf(?:inity)?)\b"
    for m in re.finditer(pattern, text, re.IGNORECASE):
        yield float(m.group(0))
