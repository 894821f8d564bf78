"""The colouring search by a second route, shared by the tests.

It is the propagating search that ``search.search_colorings`` replaced.
Each node copies the colours and both rule tables, colours the first
uncoloured edge by index, and propagates: every new rule is applied to
every edge of the torus, and every newly coloured edge adds its rules,
until nothing changes or two rules clash.  Every leaf is folded to the
least image under the torus symmetries, and one leaf is kept per least
image.  It shares the torus, its symmetries and ``_period`` with the
search, so it checks the branching, the forcing, the undo and the
least-member test from outside.
"""

from typing import Sequence

from gridcurve.gridmodel import GridSpec
from gridcurve.search import TorusPatch, _period


def canonical_form(colors: Sequence[int], perms: list[list[int]]) -> tuple[int, ...]:
    """The least of the images colors[perm[i]] under the permutations,
    each with its colours relabelled in order of first appearance."""
    best = None
    for perm in perms:
        relabel: dict[int, int] = {}
        image = tuple(relabel.setdefault(colors[e], len(relabel)) for e in perm)
        if best is None or image < best:
            best = image
    return best


def propagate_search(base: GridSpec, R: int, C: int, m: int,
                     dedup_rotations: bool = True) -> list[tuple[tuple[int, ...], tuple[int, int]]]:
    """(assignment, minimal vector) of every colouring of the R x C torus
    with exactly m letters, one per class, sorted by least image."""
    torus = TorusPatch.build(base, R, C)
    N = len(torus)
    succ, pred = torus.succ, torus.pred
    results: dict[tuple[int, ...], tuple[int, ...]] = {}

    def propagate(colors: list[int], fwd: dict, bwd: dict, queue: list[int]) -> bool:
        rules: list[tuple[int, int, int]] = []

        def set_color(e: int, c: int) -> bool:
            if colors[e] == c:
                return True
            if colors[e] >= 0:
                return False
            colors[e] = c
            queue.append(e)
            return True

        def add_rule(c: int, t: int, cs: int) -> bool:
            key, rkey = (c, t), (t, cs)
            if key in fwd:
                return fwd[key] == cs
            if rkey in bwd and bwd[rkey] != c:
                return False
            fwd[key] = cs
            bwd[rkey] = c
            rules.append((c, t, cs))
            return True

        while queue or rules:
            while rules:
                c, t, cs = rules.pop()
                for ej in range(N):
                    if colors[ej] == c:
                        sj = succ[ej].get(t)
                        if sj is not None and not set_color(sj, cs):
                            return False
                    if colors[ej] == cs:
                        pj = pred[ej].get(t)
                        if pj is not None and not set_color(pj, c):
                            return False
            if not queue:
                break
            ei = queue.pop()
            c = colors[ei]
            for t, sj in succ[ei].items():
                cs = colors[sj]
                if cs >= 0:
                    if not add_rule(c, t, cs):
                        return False
                elif (c, t) in fwd:
                    if not set_color(sj, fwd[(c, t)]):
                        return False
            for t, pj in pred[ei].items():
                cp = colors[pj]
                if cp >= 0:
                    if not add_rule(cp, t, c):
                        return False
                elif (t, c) in bwd:
                    if not set_color(pj, bwd[(t, c)]):
                        return False
        return True

    perms = torus.symmetries(point_group=dedup_rotations)

    def dfs(colors: list[int], fwd: dict, bwd: dict, used: int):
        try:
            ei = colors.index(-1)
        except ValueError:
            if used == m:
                results.setdefault(canonical_form(colors, perms), tuple(colors))
            return
        for c in range(min(used + 1, m)):
            trial = colors[:]
            trial[ei] = c
            f2, b2 = dict(fwd), dict(bwd)
            if propagate(trial, f2, b2, [ei]):
                dfs(trial, f2, b2, max(used, c + 1))

    initial = [-1] * N
    initial[0] = 0
    fwd0: dict = {}
    bwd0: dict = {}
    if propagate(initial, fwd0, bwd0, [0]):
        dfs(initial, fwd0, bwd0, 1)

    t1, t2 = torus.translations()
    return [(colors, (_period(colors, t1, R), _period(colors, t2, C)))
            for _, colors in sorted(results.items())]
