"""The level-1 oracle of edge coverage, shared by the tests.

It draws the first iterate of a realized patch of the grid edge by edge,
with ``expand`` and ``trace_tokens``, and counts how often it draws each
edge near the origin.  It reads neither the translation lattice nor the
vertex map's matrix, so it checks ``validator.check_coverage`` from outside.
"""

from collections import deque

from gridcurve.exactgeom import add_vec, embed_vec, sub_vec, trace_tokens, unit_coeffs
from gridcurve.gridmodel import realize
from gridcurve.lsystem import CurveSet, expand
from gridcurve.words import Word


def level_one_hits(cs: CurveSet, patch_radius: float, disc_radius: float) -> dict[tuple, int]:
    """For each edge of the grid whose midpoint lies within disc_radius of
    the origin, how many children of the edges of ``realize(grid,
    patch_radius)`` lie on it.

    An edge (p, k) of letter X is expanded once, in direction k + T from
    phi(p).  Both are carried breadth-first from the seed edge, where they
    are 0, across the transitions of the patch: X's first iterate, laid so,
    ends at phi of the edge's head, and the edges after it start with the T
    that its end direction gives; an edge (q, j) of letter W before it has
    T' = T - (W's net turn), and phi(q) is phi(p) less W's first iterate
    laid in direction j + T'.
    """
    grid, n = cs.grid, cs.n
    units = unit_coeffs(n)
    patch = realize(grid, patch_radius)
    hits = {(p, k): 0 for p, k in patch.edges
            if abs(embed_vec(p, n) + embed_vec(units[k], n) / 2) <= disc_radius}

    words = {X: expand(cs, Word((X,)), 1).tokens for X in cs.letters}

    def lay(letter: str, start: tuple, direction: int):
        return trace_tokens(words[letter], n, start, direction)

    origin = (0,) * len(units[0])
    turn = {X: lay(X, origin, 0)[1] for X in cs.letters}
    seed = next(iter(patch.edges))
    state = {seed: (origin, 0)}  # edge -> (phi of its tail, T)
    todo = deque([seed])
    while todo:
        (pos, k) = edge = todo.popleft()
        letter = patch.edges[edge]
        image, T = state[edge]
        end, end_dir, children = lay(letter, image, k + T)
        for tail, d, _ in children:
            if (tail, d) in hits:
                hits[(tail, d)] += 1
        head = add_vec(pos, units[k])
        for t in grid.turns_from[letter]:
            after = (head, (k + t) % n)
            if after in patch.edges and after not in state:
                state[after] = (end, (end_dir - k) % n)
                todo.append(after)
        for tr in grid.arrivals[letter]:
            j = (k - tr.turn) % n
            before = (sub_vec(pos, units[j]), j)
            if before in patch.edges and before not in state:
                T0 = (T - turn[tr.src]) % n
                state[before] = (sub_vec(image, lay(tr.src, origin, j + T0)[0]), T0)
                todo.append(before)
    return hits
