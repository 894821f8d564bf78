"""The flood-fill oracle of ``validator.check_interior_filled``, shared by
the tests.

It floods grid faces from both sides of every edge of the tile boundary's
first iterate, joined across the edges that the curve leaves undrawn, and
lets a component go once it reaches a face that does not close or a vertex
outside the disc that holds the curve.  It walks grid faces one at a time
(``face_cycle``) and knows nothing of the curve's own faces, so it checks
the boundary walk from outside.
"""

from operator import add

from gridcurve.exactgeom import embed_vec, phi, trace_tokens
from gridcurve.gridmodel import LEFT, RIGHT, GridSpec, grid_letters
from gridcurve.lsystem import CurveSet, expand
from gridcurve.words import Word


def face_cycle(grid: GridSpec, edge: tuple, letter: str, side: str) -> list[tuple[tuple, str]] | None:
    """Edges and letters of the face on one side of an edge, starting with
    that edge, from the face table's steps; None when the face does not
    close."""
    steps = grid.face_table.steps.get((letter, side))
    if steps is None:
        return None
    pos, k = edge
    return [((tuple(map(add, pos, rots[k])), (d + k) % grid.n), c) for rots, d, c in steps]


def boundary_iterate(cs: CurveSet, tile) -> dict[tuple, str]:
    """The edges of the tile boundary's first iterate, laid from the origin
    in direction 0, each with the grid's letter on it."""
    n = cs.n
    tokens = tile.boundary_word().tokens
    origin = (0,) * phi(n)
    end, _, edges = trace_tokens(expand(cs, Word(tokens), 1).tokens, n, origin, 0)
    assert end == origin
    letters = grid_letters(cs.grid, edges, tokens[-2], -tokens[-1])
    return {(p, d): letter for (p, d, _), letter in zip(edges, letters)}


def flood_filled(cs: CurveSet, tile) -> bool:
    """Whether the faces that the tile boundary's first iterate encloses
    hold no undrawn grid edge, by flooding them.  A component of faces lies
    outside when one of its faces does not close or reaches a vertex
    farther from the origin than every curve vertex; one that stays inside
    and crosses an undrawn edge makes the answer False."""
    grid, n = cs.grid, cs.n
    curve = boundary_iterate(cs, tile)
    radius = max(abs(embed_vec(p, n)) for p, _ in curve) + 1e-9
    outside: set = set()  # (edge, side) of outer faces
    visited: set = set()
    other = {LEFT: RIGHT, RIGHT: LEFT}
    for start, start_letter in curve.items():
        for start_side in (LEFT, RIGHT):
            if (start, start_side) in visited:
                continue
            component: set = set()
            todo = [(start, start_letter, start_side)]
            crossed = is_outside = False
            while todo and not is_outside:
                e, letter, side = todo.pop()
                if (e, side) in component:
                    continue
                cycle = face_cycle(grid, e, letter, side)
                if (e, side) in outside or cycle is None:
                    is_outside = True
                    break
                for e2, letter2 in cycle:
                    component.add((e2, side))
                    if abs(embed_vec(e2[0], n)) > radius:
                        is_outside = True
                    if e2 not in curve:
                        crossed = True
                        todo.append((e2, letter2, other[side]))
            visited |= component
            if is_outside:
                outside |= component
            elif crossed:
                return False
    return True
