"""Colored directed grids given by transition triples, and their geometry.

A grid is a set of transitions (F, t, G): after drawing an edge of class F
and turning t, the next edge has class G, and (F, t) determines G uniquely
(likewise (t, G) determines F).  The face on either side of an edge
therefore follows from the edge's letter alone: ``GridSpec.face_table``
holds, per letter and side, the turn that continues the face, the face's
boundary word, and its exact edges and vertex sum from an edge in each
direction.  Prototiles and face centres come from that table, and
``grid_letters`` carries the grid's letters along a traced path.
For the same reason one edge's letter decides the letter of every edge
reachable from it, and ``closure`` walks the transitions breadth-first
from a seed edge to find them, raising InconsistentColoring where two
letters meet on one edge.  Its three uses: ``realize`` closes out to a
Euclidean radius; ``detect_translation_lattice`` (cached as
``GridSpec.lattice``) closes modulo a candidate lattice, a
finite quotient whose closing proves the lattice exactly; and
``search.TorusPatch`` closes modulo a multiple of that lattice.
``GridSpec.lattice_walks`` holds, per basis vector of the lattice, a
shortest walk of edges from the seed edge to its translate, and
``GridSpec.lattice_classes`` the quotient's letters with a shortest walk to
an edge of each class, all read back along the levels of the patch in which
the lattice was found.  ``validator.vertex_map`` carries a curve-set's first
iterate along the former, and ``validator.check_coverage`` lays the children
of each class from the end of the latter.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, cached_property

from .exactgeom import (
    Lattice,
    Point,
    add_vec,
    embed_vec,
    normalize_turn,
    phi,
    rotations,
    sub_vec,
    unit_coeffs,
)
from .words import Word, format_turn

EdgeKey = tuple  # ((coeff, ...), dir_k)
Walk = tuple  # ((sign, letter, dir_k), ...), see Patch.walk

CCW = "CCW"
CW = "CW"
DIGON = "DIGON"

LEFT = "L"
RIGHT = "R"


class GridError(ValueError):
    pass


class InconsistentColoring(GridError):
    """The transition set forces two letters onto one directed edge."""

    def __init__(self, edge: EdgeKey, letter_a: str, letter_b: str):
        self.edge = edge
        self.letter_a = letter_a
        self.letter_b = letter_b
        super().__init__(f"edge {edge} assigned both {letter_a!r} and {letter_b!r}")


@dataclass(frozen=True)
class Transition:
    src: str
    turn: int
    dst: str

    def __str__(self) -> str:
        return f"{self.src}{format_turn(self.turn)}{self.dst}"


@dataclass(frozen=True)
class GridSpec:
    """A colored directed grid: alphabet, turn resolution, transitions."""

    name: str
    n: int
    letters: tuple[str, ...]
    transitions: tuple[Transition, ...]
    double: bool = False

    def __post_init__(self):
        norm = tuple(
            Transition(t.src, normalize_turn(t.turn, self.n), t.dst)
            for t in self.transitions
        )
        order = {c: i for i, c in enumerate(self.letters)}
        norm = tuple(
            sorted(set(norm), key=lambda t: (order.get(t.src, 99), t.turn, t.dst))
        )
        object.__setattr__(self, "transitions", norm)

    @cached_property
    def forward(self) -> dict[tuple[str, int], str]:
        return {(t.src, t.turn): t.dst for t in self.transitions}

    @cached_property
    def arrivals(self) -> dict[str, tuple[Transition, ...]]:
        """Transitions into each letter, in transition order."""
        out: dict[str, list[Transition]] = {c: [] for c in self.letters}
        for t in self.transitions:
            out.setdefault(t.dst, []).append(t)
        return {c: tuple(ts) for c, ts in out.items()}

    @cached_property
    def turns_from(self) -> dict[str, tuple[int, ...]]:
        out: dict[str, list[int]] = {c: [] for c in self.letters}
        for t in self.transitions:
            out.setdefault(t.src, []).append(t.turn)
        return {c: tuple(sorted(ts)) for c, ts in out.items()}

    @cached_property
    def face_table(self) -> "FaceTable":
        return _build_face_table(self)

    @cached_property
    def _lattice(self) -> tuple[Lattice, tuple[Walk, Walk], dict[EdgeKey, tuple[str, Walk]]]:
        return detect_translation_lattice(self)

    @property
    def lattice(self) -> Lattice:
        """The translation lattice that ``detect_translation_lattice``
        proved, for reduction modulo it and coordinates on its basis."""
        return self._lattice[0]

    @property
    def translation_lattice(self) -> tuple[Point, Point]:
        return self._lattice[0].basis

    @property
    def lattice_walks(self) -> tuple[Walk, Walk]:
        """For each basis vector v of the translation lattice, the steps of
        a walk from the seed edge to its translate by v (``Patch.walk``)."""
        return self._lattice[1]

    @property
    def lattice_classes(self) -> dict[EdgeKey, tuple[str, Walk]]:
        """The edge classes modulo the translation lattice, keyed by their
        representatives (``Lattice.reduce`` of the tail, and the
        direction): each class's letter and the steps of a walk from the
        seed edge to one of its edges (``Patch.walk``)."""
        return self._lattice[2]

    def face_vertices(self, edge: EdgeKey, letter: str, side: str) -> tuple[tuple, int] | None:
        """The exact sum of the vertices of the face on one side of an edge,
        and their number, which give its centre; None when the face does
        not close."""
        sums = self.face_table.vertex_sum.get((letter, side))
        if sums is None:
            return None
        m = len(self.face_table.word[(letter, side)]) // 2
        pos, k = edge  # sums[k] is read from an edge in direction k
        return tuple(m * c + s for c, s in zip(pos, sums[k])), m

    def has_transition(self, src: str, turn: int, dst: str) -> bool:
        return self.forward.get((src, normalize_turn(turn, self.n))) == dst

    def seed_letter(self) -> str:
        return self.letters[0]


def face_key(turn: int, n: int) -> int:
    """Order of turns for face traversal: the left face of an edge continues
    with the largest key, the right face with the smallest.  U-turns sort
    below every other turn, so the left face of an edge is always the
    polygon, the right face the digon (when present)."""
    half = n // 2
    if n % 2 == 0 and turn == half:
        return -half
    return turn


@dataclass(frozen=True)
class FaceTable:
    """The faces on either side of an edge, keyed by (letter, side).

    ``turn`` holds the turn that continues the face past an edge of that
    letter.  ``word`` holds the face's boundary tokens read from such an
    edge (letter, turn, letter, turn, ...), ``sense`` its sense, and
    ``steps[key]`` lists the face's edges from such an edge leaving the
    origin: per edge, the exact offset of its tail for each direction k of
    the first edge (``rotations``), its direction when k = 0, and its
    letter.  ``vertex_sum[key][k]`` is the exact sum of those tails, the
    face's vertices, for direction k.  All four leave out faces that never
    close and left-side digons, just as a realized patch has no such faces.
    """

    turn: dict[tuple[str, str], int]
    word: dict[tuple[str, str], tuple]
    sense: dict[tuple[str, str], str]
    vertex_sum: dict[tuple[str, str], tuple[tuple[int, ...], ...]]
    steps: dict[tuple[str, str], tuple[tuple[tuple[tuple[int, ...], ...], int, str], ...]]


def _build_face_table(spec: GridSpec) -> FaceTable:
    n = spec.n
    units = unit_coeffs(n)
    turn: dict[tuple[str, str], int] = {}
    for letter, turns in spec.turns_from.items():
        if turns:
            turn[(letter, LEFT)] = max(turns, key=lambda t: face_key(t, n))
            turn[(letter, RIGHT)] = min(turns, key=lambda t: face_key(t, n))
    word: dict[tuple[str, str], tuple] = {}
    sense: dict[tuple[str, str], str] = {}
    vertex_sum: dict[tuple[str, str], tuple] = {}
    steps: dict[tuple[str, str], tuple] = {}
    rotated = cache(lambda p: rotations(p, n))  # one copy per tail offset
    # after |letters| * n steps some (letter, direction) pair has repeated,
    # so a walk that has not come back to its start by then never will
    limit = len(spec.letters) * n
    for letter, side in turn:
        tokens: list = []
        tails: list = []  # (tail, direction) of the edges walked so far
        cur, dirk, pos = letter, 0, (0,) * phi(n)
        while len(tokens) < 2 * limit and (cur, side) in turn:
            t = turn[(cur, side)]
            tokens += [cur, t]
            tails.append((pos, dirk))
            pos = add_vec(pos, units[dirk])
            cur, dirk = spec.forward[(cur, t)], (dirk + t) % n
            if cur == letter and dirk == 0:
                break
        if cur != letter or dirk != 0 or any(pos):
            continue
        if len(tokens) == 4 and n % 2 == 0 and tokens[1] == n // 2:
            if side == LEFT:
                continue  # digons are right faces
            sense[(letter, side)] = DIGON
        else:
            sense[(letter, side)] = CCW if sum(tokens[1::2]) > 0 else CW
        word[(letter, side)] = tuple(tokens)
        vertex_sum[(letter, side)] = rotations(tuple(map(sum, zip(*(p for p, _ in tails)))), n)
        steps[(letter, side)] = tuple((rotated(p), d, c) for (p, d), c in zip(tails, tokens[::2]))
    return FaceTable(turn, word, sense, vertex_sum, steps)


def grid_letters(spec: GridSpec, edges: list, letter: str, dirk: int) -> list[str]:
    """The grid's letters on a path of traced (tail, dir, letter) edges.

    They are carried along the transitions from an edge of ``letter`` in
    direction ``dirk`` that arrives at the first edge's tail; the path's
    own letters need not match them.  A turn that the grid lacks after the
    letter carried so far raises ValueError.
    """
    n = spec.n
    out: list[str] = []
    for i, (_, d, _) in enumerate(edges):
        turn = normalize_turn(d - dirk, n)
        nxt = spec.forward.get((letter, turn))
        if nxt is None:
            raise ValueError(
                f"path leaves grid {spec.name!r} at edge {i}: "
                f"no turn {format_turn(turn)} after {letter!r}"
            )
        out.append(nxt)
        letter, dirk = nxt, d
    return out


def check_grid(spec: GridSpec) -> list[str]:
    """Unique-transition violations; empty list means the spec is a grid."""
    violations = []
    fwd: dict[tuple[str, int], Transition] = {}
    bwd: dict[tuple[int, str], Transition] = {}
    for t in spec.transitions:
        if t.src not in spec.letters or t.dst not in spec.letters:
            violations.append(f"transition {t} uses a letter outside the alphabet")
        key = (t.src, t.turn)
        if key in fwd:
            violations.append(f"({t.src},{format_turn(t.turn)}) is ambiguous: {fwd[key]} vs {t}")
        else:
            fwd[key] = t
        rkey = (t.turn, t.dst)
        if rkey in bwd:
            violations.append(f"({format_turn(t.turn)},{t.dst}) is ambiguous: {bwd[rkey]} vs {t}")
        else:
            bwd[rkey] = t
        if not spec.double and spec.n % 2 == 0 and t.turn == spec.n // 2:
            violations.append(f"U-turn transition {t} on a grid without double edges")
    return violations


class Patch:
    """A realized disc of the grid: letters assigned to directed edges, in
    the order ``closure`` reaches them, with each edge's breadth-first
    level in ``depth``."""

    def __init__(self, spec: GridSpec, edges: dict[EdgeKey, str], depth: dict[EdgeKey, int]):
        self.spec = spec
        self.n = spec.n
        self.edges = edges
        self.depth = depth
        self.out_at: dict[tuple, list[EdgeKey]] = {}
        for edge in edges:
            self.out_at.setdefault(edge[0], []).append(edge)
        self._units = unit_coeffs(spec.n)
        self._faces: list["Face"] | None = None

    # -- queries ------------------------------------------------------

    def head(self, edge: EdgeKey) -> tuple:
        return add_vec(edge[0], self._units[edge[1]])

    def walk(self, edge: EdgeKey) -> Walk:
        """The steps of a shortest walk in the patch from the seed edge to
        ``edge``, read back along ``depth``: each edge before ``edge`` is a
        neighbour of the next one level lower.

        The walk follows a chain of edges, each joined to the next through
        a transition, and stands on the tail of each in turn.  It moves on
        to an edge leaving the head by crossing the current edge, (1,
        letter, direction), and to an edge arriving at the tail by crossing
        that edge backwards, (-1, letter, direction).
        """
        steps = []
        while self.depth[edge]:
            below, letter = self.depth[edge] - 1, self.edges[edge]
            sign, before, L = next(
                near for near in _near(self.spec, edge, letter) if self.depth.get(near[1]) == below)
            steps.append((1, L, before[1]) if sign < 0 else (-1, letter, edge[1]))
            edge = before
        return tuple(reversed(steps))

    # -- faces ----------------------------------------------------------

    def faces(self) -> list["Face"]:
        if self._faces is None:
            self._faces = self._build_faces()
        return self._faces

    def _build_faces(self) -> list["Face"]:
        table = self.spec.face_table
        faces: list[Face] = []
        for side in (LEFT, RIGHT):
            seen: set[EdgeKey] = set()
            for start in self.edges:
                if start in seen:
                    continue
                key = (self.edges[start], side)
                tokens = table.word.get(key)
                if tokens is None:
                    continue
                # follow the face's turns through the patch's own edge keys;
                # the last turn leads back to start
                cycle = [start]
                for t in tokens[1:-2:2]:
                    cur = cycle[-1]
                    d = (cur[1] + t) % self.n
                    nxt = next((e for e in self.out_at.get(self.head(cur), ()) if e[1] == d), None)
                    if nxt is None:
                        break  # the face runs off the rim
                    cycle.append(nxt)
                seen.update(cycle)
                if 2 * len(cycle) == len(tokens):
                    faces.append(Face(cycle, Word(tokens), table.sense[key], side, tuple(sorted(cycle))))
        uniq: dict[tuple, Face] = {}
        for f in faces:
            uniq.setdefault(f.edge_set_key, f)
        return list(uniq.values())

    def face_maps(self) -> tuple[dict[EdgeKey, int], dict[EdgeKey, int], list["Face"]]:
        """Per-edge left/right face indices; -1 marks the unbounded side."""
        faces = self.faces()
        left: dict[EdgeKey, int] = {}
        right: dict[EdgeKey, int] = {}
        for idx, f in enumerate(faces):
            target = left if f.side == LEFT else right
            for e in f.cycle:
                target[e] = idx
        for e in self.edges:
            left.setdefault(e, -1)
            right.setdefault(e, -1)
        return left, right, faces


@dataclass
class Face:
    """A closed face of a realized patch with its boundary word."""

    cycle: list[EdgeKey]
    word: Word
    sense: str
    side: str
    edge_set_key: tuple = field(repr=False, default=())


def _midpoint_norm(edge: EdgeKey, n: int) -> float:
    """Distance from the origin to the midpoint of a directed edge."""
    pos, k = edge
    return abs(embed_vec(pos, n) + embed_vec(unit_coeffs(n)[k], n) / 2)


def _near(spec: GridSpec, edge: EdgeKey, letter: str) -> list[tuple[int, EdgeKey, str]]:
    """The neighbours of an edge of ``letter`` through the transitions, with
    the letters these force on them: (1, edge, letter) for each edge after
    it at its head, in ``turns_from`` order, then (-1, edge, letter) for each
    edge before it at its tail, in ``arrivals`` order."""
    n, units = spec.n, unit_coeffs(spec.n)
    pos, k = edge
    head = add_vec(pos, units[k])
    out = [(1, (head, (k + t) % n), spec.forward[(letter, t)]) for t in spec.turns_from.get(letter, ())]
    for tr in spec.arrivals.get(letter, ()):
        k0 = (k - tr.turn) % n
        out.append((-1, (sub_vec(pos, units[k0]), k0), tr.src))
    return out


def closure(
    spec: GridSpec, reduce=None, within=None, limit: int | None = None
) -> tuple[dict[EdgeKey, str], dict[EdgeKey, int]]:
    """Breadth-first closure of the transitions from the seed edge.

    The seed is the first alphabet letter, tail at the origin, direction 0.
    Each edge reached adds its neighbours (``_near``) with the letters the
    transitions force on them, level by level.  Only the edges that
    ``within`` accepts are expanded (all when it is None).  ``reduce`` maps
    each tail to its representative modulo a lattice, so the closure is the
    quotient of the grid by that lattice.  Returns the letters of the edges
    in the order reached and each edge's breadth-first level.  Two letters
    on one edge raise InconsistentColoring; more than ``limit`` edges raise
    GridError.
    """
    seed: EdgeKey = ((0,) * phi(spec.n), 0)
    letters = {seed: spec.seed_letter()}
    depth = {seed: 0}
    frontier = [seed]
    level = 0
    while frontier:
        level += 1
        reached = []
        for edge in frontier:
            if within is not None and not within(edge):
                continue
            for _, e2, letter in _near(spec, edge, letters[edge]):
                if reduce is not None:
                    e2 = (reduce(e2[0]), e2[1])
                got = letters.get(e2)
                if got is None:
                    letters[e2] = letter
                    depth[e2] = level
                    reached.append(e2)
                elif got != letter:
                    raise InconsistentColoring(e2, got, letter)
        if limit is not None and len(letters) > limit:
            raise GridError(f"the closure of {spec.name!r} exceeds {limit} edges")
        frontier = reached
    return letters, depth


def realize(spec: GridSpec, radius: float) -> Patch:
    """The patch of the edges whose midpoints lie within ``radius`` of the
    origin and their neighbours: the ``closure`` that expands exactly those
    edges.  A contradiction among them raises InconsistentColoring.
    """
    n = spec.n
    return Patch(spec, *closure(spec, within=lambda edge: _midpoint_norm(edge, n) <= radius))


@dataclass(frozen=True)
class Prototile:
    """One face type of a grid: boundary = period word repeated exponent times."""

    period: Word
    exponent: int
    sense: str

    def boundary_word(self) -> Word:
        return self.period.repeated(self.exponent)

    def to_string(self, n: int | None = None, double: bool = True) -> str:
        return f"[{self.period.to_string(n, double)}]^{self.exponent}"

    def __str__(self) -> str:
        return self.to_string()


def _canonical_rotation(tokens: tuple) -> tuple:
    # boundary tokens alternate letter, turn, letter, turn, ...
    m = len(tokens) // 2
    rotations = [tokens[2 * i :] + tokens[: 2 * i] for i in range(m)]
    return min(rotations, key=_rotation_key)


def _rotation_key(tokens: tuple) -> tuple:
    return tuple(
        (0, t) if isinstance(t, str) else (1, t) for t in tokens
    )


def prototiles(spec: GridSpec) -> list[Prototile]:
    """Enumerate the face types of the grid from its face table."""
    violations = check_grid(spec)
    if violations:
        raise GridError("; ".join(violations))
    table = spec.face_table
    seen: dict[tuple, Prototile] = {}
    for key, word in table.word.items():
        tokens = _canonical_rotation(word)
        if tokens in seen:
            continue
        m = len(tokens) // 2
        exponent = 1
        for p in range(1, m + 1):
            if m % p:
                continue
            if tokens == tokens[2 * p :] + tokens[: 2 * p]:
                exponent = m // p
                break
        period = Word(tokens[: 2 * (m // exponent)])
        seen[tokens] = Prototile(period, exponent, table.sense[key])
    order = {CCW: 0, CW: 1, DIGON: 2}
    return sorted(
        seen.values(),
        key=lambda p: (order[p.sense], _rotation_key(p.boundary_word().tokens)),
    )


# Euclidean radii of the patches detect_translation_lattice tries, in order
_LATTICE_RADII = (2, 3, 4, 6, 9, 12)


def detect_translation_lattice(
    spec: GridSpec,
) -> tuple[Lattice, tuple[Walk, Walk], dict[EdgeKey, tuple[str, Walk]]]:
    """The lattice of two shortest independent translations mapping the
    coloring onto itself, and a walk from the seed edge to each one's
    translate.

    The transitions are deterministic, so the letter of one edge decides
    the letters of all edges reachable from it.  If the coloring is
    consistent and the edge (v, 0) carries the seed letter, the coloring
    read from that edge is the seed's coloring translated by v, so v is a
    translation.  The candidates are such edges of the patch that
    ``realize`` grows to a radius r, with 0 < |v| <= r - 1/2 so that the
    patch holds all of them; ordered by (|v|, coefficients), the first one
    and the first one independent of it (exactly: v1 * conj(v2) is not
    real) are taken.  r runs through ``_LATTICE_RADII`` until two are found.

    The pair is proved by ``closure`` modulo the lattice it spans, a finite
    quotient: every class has an edge with its tail within (|v1| + |v2|) / 2
    of the origin, which the patch holds, so the patch's edge count bounds
    it.  If it closes without a conflict, its letters lift to a consistent
    coloring of the whole plane that v1 and v2 carry onto itself, and that
    is the coloring the seed decides.  A conflict raises
    InconsistentColoring: a consistent coloring would carry no conflict
    into the quotient.
    The quotient's letters are returned per class, keyed by its
    representative, with a shortest walk to an edge of the class.  These
    walks and the walks to the two translates are read back along the same
    patch (``Patch.walk``).  ``GridSpec.lattice`` (with its basis
    ``GridSpec.translation_lattice``), ``GridSpec.lattice_walks`` and
    ``GridSpec.lattice_classes`` cache the result.
    """
    n, seed = spec.n, spec.seed_letter()
    for radius in _LATTICE_RADII:
        patch = realize(spec, radius)
        found = sorted(
            (Point(n, pos) for (pos, k), letter in patch.edges.items()
             if k == 0 and letter == seed and any(pos) and abs(embed_vec(pos, n)) <= radius - 0.5),
            key=lambda p: (abs(p), p.coeffs))
        for v in found:
            if found[0] * v.conjugate() != found[0].conjugate() * v:  # independent
                lattice = Lattice(found[0], v)
                reduce = lattice.reduce
                letters, _ = closure(spec, reduce, limit=len(patch.edges))
                reps: dict[EdgeKey, EdgeKey] = {}
                for pos, k in patch.edges:  # breadth-first: the shallowest edge per class
                    reps.setdefault((reduce(pos), k), (pos, k))
                assert len(reps) == len(letters), "the patch misses an edge class"
                return (lattice, tuple(patch.walk((u.coeffs, 0)) for u in lattice.basis),
                        {key: (letter, patch.walk(reps[key])) for key, letter in letters.items()})
    raise GridError(
        f"could not detect two independent translations for {spec.name!r}"
    )
