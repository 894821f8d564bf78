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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .exactgeom import Point, normalize_turn, trace_tokens, unit_coeffs
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
    stroke_width: float = 0.08
    scale: float = 40.0
    draw_borders: bool = False

    def __post_init__(self):
        if not 0 <= self.corner_radius <= 0.5:
            raise ValueError("corner radius must lie in [0, 0.5]")
        if self.mode not in (LINE, AREA):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.color_scheme not in (BY_LETTER, BY_ANCESTOR, BY_ORIENTATION):
            raise ValueError(f"unknown color scheme {self.color_scheme!r}")


def _fmt(x: float) -> str:
    return f"{x:.4f}"


class SvgDoc:
    def __init__(self):
        self.elements: list[str] = []
        self.min_x = self.min_y = float("inf")
        self.max_x = self.max_y = float("-inf")

    def bump(self, x: float, y: float) -> None:
        self.min_x = min(self.min_x, x)
        self.max_x = max(self.max_x, x)
        self.min_y = min(self.min_y, y)
        self.max_y = max(self.max_y, y)

    def to_string(self) -> str:
        if not self.elements or self.min_x == float("inf"):
            return (
                '<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 1 1">'
                "<g></g></svg>\n"
            )
        w = self.max_x - self.min_x or 1.0
        h = self.max_y - self.min_y or 1.0
        mx, my = 0.05 * w, 0.05 * h
        view = (
            f"{_fmt(self.min_x - mx)} {_fmt(self.min_y - my)} "
            f"{_fmt(w + 2 * mx)} {_fmt(h + 2 * my)}"
        )
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
    """One polyline per color run, fillet arcs at interior turns."""
    n = grid.n if grid is not None else n
    if n is None:
        raise ValueError("need a grid or a turn resolution")
    double = grid.double if grid is not None else True
    _, _, edges = trace_tokens(word.tokens, n)
    doc = SvgDoc()
    if not edges:
        return doc.to_string()
    s = style.scale
    pts: list[tuple[complex, complex]] = []
    units = [Point(n, unit_coeffs(n)[k]).to_complex() for k in range(n)]
    lane = 0.10 if double else 0.0
    for pos, k, letter in edges:
        a = Point(n, pos).to_complex()
        b = a + units[k]
        if lane:
            # shift each stroke to its left so anti-parallel pairs separate
            offset = units[k] * 1j * lane
            a, b = a + offset, b + offset
        pts.append((a, b))
    colors = [
        _edge_color(style, grid, letter, k, n,
                    tags[i] if tags is not None else None)
        for i, (pos, k, letter) in enumerate(edges)
    ]
    f = style.corner_radius
    runs: list[tuple[str, int, int]] = []
    start = 0
    for i in range(1, len(edges) + 1):
        if i == len(edges) or colors[i] != colors[start]:
            runs.append((colors[start], start, i))
            start = i
    for color, lo, hi in runs:
        cmds: list[str] = []
        for i in range(lo, hi):
            a, b = pts[i]
            # trim for fillets at both ends when a turn happens there
            a_trim = a
            b_trim = b
            if i > 0 and f > 0:
                a_trim = a + (b - a) * f
            if i + 1 < len(edges) and f > 0:
                b_trim = b - (b - a) * f
            if i == lo:
                cmds.append(f"M {_fmt(a_trim.real * s)} {_fmt(-a_trim.imag * s)}")
            doc.bump(a_trim.real * s, -a_trim.imag * s)
            cmds.append(f"L {_fmt(b_trim.real * s)} {_fmt(-b_trim.imag * s)}")
            doc.bump(b_trim.real * s, -b_trim.imag * s)
            if i + 1 < len(edges) and f > 0:
                na, nb = pts[i + 1]
                next_start = na + (nb - na) * f
                turn = normalize_turn(edges[i + 1][1] - edges[i][1], n)
                angle = abs(turn) * 2 * math.pi / n
                chord = abs(next_start - b_trim)
                rad = chord / (2 * math.sin(angle / 2)) if angle else chord
                sweep = 0 if turn > 0 else 1
                cmds.append(
                    f"A {_fmt(rad * s)} {_fmt(rad * s)} 0 0 {sweep} "
                    f"{_fmt(next_start.real * s)} {_fmt(-next_start.imag * s)}"
                )
                doc.bump(next_start.real * s, -next_start.imag * s)
        doc.elements.append(
            f'<path d="{" ".join(cmds)}" fill="none" stroke="{color}" '
            f'stroke-width="{_fmt(style.stroke_width * s)}" '
            'stroke-linecap="round"/>'
        )
    return doc.to_string()


def _face_centers(grid: GridSpec, edges) -> list[tuple[complex | None, complex | None]]:
    """Left and right face centers of every traced edge, from the face
    table; None where the face never closes or is a digon.  The path
    starts at the tail of the grid's seed edge, and the grid's letters on
    it are carried from an edge that arrives there."""
    arrivals = grid.arrivals.get(grid.seed_letter())
    if not arrivals:
        raise ValueError(f"no transition of grid {grid.name!r} arrives at its seed letter")
    start = arrivals[0]
    letters = grid_letters(grid, edges, start.src, -start.turn)
    sense = grid.face_table.sense
    out = []
    for (pos, k, _), letter in zip(edges, letters):
        out.append(tuple(
            None if sense.get((letter, side)) == DIGON
            else grid.face_center((pos, k), letter, side)
            for side in (LEFT, RIGHT)
        ))
    return out


def render_area(
    word: Word,
    grid: GridSpec,
    style: RenderStyle,
    tags: Sequence[int] | None = None,
) -> str:
    """Per-edge polygons; lozenges on plain grids, left-triangles on
    double-edge grids.  A side whose face never closes, or is a digon,
    falls back to a half-width quadrilateral corner.  The word starts at
    the grid's seed vertex; a turn the grid lacks raises ValueError."""
    n = grid.n
    _, _, edges = trace_tokens(word.tokens, n)
    doc = SvgDoc()
    if not edges:
        return doc.to_string()
    centers = _face_centers(grid, edges)
    units = [Point(n, unit_coeffs(n)[k]).to_complex() for k in range(n)]
    s = style.scale
    for i, ((pos, k, letter), (lc, rc)) in enumerate(zip(edges, centers)):
        a = Point(n, pos).to_complex()
        b = a + units[k]
        normal = units[k] * 1j  # unit left normal
        if lc is None:
            lc = (a + b) / 2 + normal * 0.25
        if grid.double:
            corners = [a, b, lc]
        else:
            if rc is None:
                rc = (a + b) / 2 - normal * 0.25
            corners = [a, rc, b, lc]
        color = _edge_color(style, grid, letter, k, n,
                            tags[i] if tags is not None else None)
        pts = []
        for z in corners:
            doc.bump(z.real * s, -z.imag * s)
            pts.append(f"{_fmt(z.real * s)},{_fmt(-z.imag * s)}")
        border = (
            f' stroke="#777777" stroke-width="{_fmt(0.02 * s)}"'
            if style.draw_borders
            else ""
        )
        doc.elements.append(
            f'<polygon points="{" ".join(pts)}" fill="{color}"{border}/>'
        )
    return doc.to_string()


def render_points(points: Iterable[complex], scale: float = 40.0,
                  radius: float = 0.18) -> str:
    """Point cloud as small diamonds (numeration-system regions)."""
    doc = SvgDoc()
    s = scale
    for z in points:
        x, y = z.real * s, -z.imag * s
        r = radius * s
        doc.bump(x - r, y - r)
        doc.bump(x + r, y + r)
        pts = f"{_fmt(x - r)},{_fmt(y)} {_fmt(x)},{_fmt(y - r)} " \
              f"{_fmt(x + r)},{_fmt(y)} {_fmt(x)},{_fmt(y + r)}"
        doc.elements.append(f'<polygon points="{pts}" fill="#3566c8"/>')
    return doc.to_string()


def check_svg(text: str) -> bool:
    """Structural check: well-formed XML, one svg root, finite coordinates."""
    import xml.etree.ElementTree as ET

    root = ET.fromstring(text)
    if not root.tag.endswith("svg"):
        return False
    return all(math.isfinite(num) for num in _numbers(text))


def _numbers(text: str):
    """Every number in the text, nan and inf (any case or sign) included."""
    import re

    pattern = r"-?\d+\.?\d*(?:e[+-]?\d+)?|[-+]?\b(?:nan|inf(?:inity)?)\b"
    for m in re.finditer(pattern, text, re.IGNORECASE):
        yield float(m.group(0))
