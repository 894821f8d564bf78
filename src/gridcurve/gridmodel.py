"""Colored directed grids given by transition triples, and their geometry.

A grid is a set of transitions (F, t, G): after drawing an edge of class F
and turning t, the next edge has class G, and (F, t) determines G uniquely
(likewise (t, G) determines F).  The face on either side of an edge
therefore follows from the edge's letter alone: ``GridSpec.face_table``
holds, per letter and side, the turn that continues the face and the
face's boundary word.  Prototiles and face instances come from that table.
Realizing a grid walks the transitions outward from a seed edge and assigns
a letter to every directed edge it reaches; it is only for callers that
need the concrete edges of a disc, such as the renderer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .exactgeom import (
    Point,
    add_vec,
    normalize_turn,
    phi,
    sub_vec,
    unit_coeffs,
)
from .words import Word, format_turn

EdgeKey = tuple  # ((coeff, ...), dir_k)

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
    def backward(self) -> dict[tuple[int, str], str]:
        return {(t.turn, t.dst): t.src for t in self.transitions}

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
    def pair_turns(self) -> dict[tuple[str, str], tuple[int, ...]]:
        out: dict[tuple[str, str], list[int]] = {}
        for t in self.transitions:
            out.setdefault((t.src, t.dst), []).append(t.turn)
        return {k: tuple(sorted(v)) for k, v in out.items()}

    @cached_property
    def face_table(self) -> "FaceTable":
        return _build_face_table(self)

    def face_cycle(
        self, edge: EdgeKey, letter: str, side: str
    ) -> list[tuple[EdgeKey, str]] | None:
        """Edges and letters of the face on one side of an edge, starting
        with that edge; None when the face does not close."""
        tokens = self.face_table.word.get((letter, side))
        if tokens is None:
            return None
        units = unit_coeffs(self.n)
        pos, k = edge
        out = []
        for i in range(0, len(tokens), 2):
            out.append(((pos, k), tokens[i]))
            pos = add_vec(pos, units[k])
            k = (k + tokens[i + 1]) % self.n
        return out

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
    edge (letter, turn, letter, turn, ...) and ``sense`` its sense; both
    leave out faces that never close and left-side digons, just as a
    realized patch has no such faces.
    """

    turn: dict[tuple[str, str], int]
    word: dict[tuple[str, str], tuple]
    sense: dict[tuple[str, str], str]


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
    # after |letters| * n steps some (letter, direction) pair has repeated,
    # so a walk that has not come back to its start by then never will
    limit = len(spec.letters) * n
    for letter, side in turn:
        tokens: list = []
        cur, dirk, pos = letter, 0, (0,) * phi(n)
        while len(tokens) < 2 * limit and (cur, side) in turn:
            t = turn[(cur, side)]
            tokens += [cur, t]
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
    return FaceTable(turn, word, sense)


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
    """A realized disc of the grid: letters assigned to directed edges."""

    def __init__(self, spec: GridSpec):
        self.spec = spec
        self.n = spec.n
        self.edges: dict[EdgeKey, str] = {}
        self.depth: dict[EdgeKey, int] = {}
        self.out_at: dict[tuple, list[EdgeKey]] = {}
        self.in_at: dict[tuple, list[EdgeKey]] = {}
        self._units = unit_coeffs(spec.n)
        self._faces: list["Face"] | None = None

    # -- construction -------------------------------------------------

    def _head(self, edge: EdgeKey) -> tuple:
        return add_vec(edge[0], self._units[edge[1]])

    def _add(self, edge: EdgeKey, letter: str, depth: int) -> bool:
        got = self.edges.get(edge)
        if got is not None:
            if got != letter:
                raise InconsistentColoring(edge, got, letter)
            if depth < self.depth[edge]:
                self.depth[edge] = depth
            return False
        self.edges[edge] = letter
        self.depth[edge] = depth
        self.out_at.setdefault(edge[0], []).append(edge)
        self.in_at.setdefault(self._head(edge), []).append(edge)
        return True

    # -- queries ------------------------------------------------------

    def letter(self, edge: EdgeKey) -> str | None:
        return self.edges.get(edge)

    def head(self, edge: EdgeKey) -> tuple:
        return self._head(edge)

    def successors(self, edge: EdgeKey) -> list[tuple[int, EdgeKey]]:
        h = self._head(edge)
        out = []
        for e2 in self.out_at.get(h, ()):
            t = normalize_turn(e2[1] - edge[1], self.n)
            out.append((t, e2))
        return out

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
                    nxt = next((e for e in self.out_at.get(self._head(cur), ()) if e[1] == d), None)
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

    def face_center(self, face: "Face") -> complex:
        pts = [Point(self.n, e[0]).to_complex() for e in face.cycle]
        return sum(pts) / len(pts)


@dataclass
class Face:
    """A closed face of a realized patch with its boundary word."""

    cycle: list[EdgeKey]
    word: Word
    sense: str
    side: str
    edge_set_key: tuple = field(repr=False, default=())


def realize(spec: GridSpec, radius: int) -> Patch:
    """Breadth-first closure of the transitions out to the given edge depth.

    The seed is the first alphabet letter, tail at the origin, direction 0.
    Transitions are applied forward at heads and backward at tails; a
    contradiction raises InconsistentColoring.
    """
    patch = Patch(spec)
    seed: EdgeKey = ((0,) * phi(spec.n), 0)
    patch._add(seed, spec.seed_letter(), 0)
    frontier = [seed]
    units = unit_coeffs(spec.n)
    n = spec.n
    for d in range(1, radius + 1):
        new_frontier: list[EdgeKey] = []
        for edge in frontier:
            letter = patch.edges[edge]
            pos, k = edge
            head = add_vec(pos, units[k])
            for t in spec.turns_from.get(letter, ()):
                dst = spec.forward[(letter, t)]
                e2 = (head, (k + t) % n)
                if patch._add(e2, dst, d):
                    new_frontier.append(e2)
            for tr in spec.arrivals.get(letter, ()):
                k0 = (k - tr.turn) % n
                tail0 = sub_vec(pos, units[k0])
                e0 = (tail0, k0)
                if patch._add(e0, tr.src, d):
                    new_frontier.append(e0)
        frontier = new_frontier
        if not frontier:
            break
    return patch


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


def detect_translation_lattice(
    spec: GridSpec, radius: int | None = None
) -> tuple[Point, Point]:
    """Two shortest independent translations mapping the coloring onto itself.

    Verified on a realized patch; torus construction re-verifies the result
    exactly, so a too-small patch fails loudly rather than silently.
    """
    if radius is None:
        last = None
        for radius in (12, 18, 26):
            try:
                return detect_translation_lattice(spec, radius)
            except GridError as exc:
                last = exc
        raise last
    patch = realize(spec, radius)
    seed = ((0,) * phi(spec.n), 0)
    seed_letter = patch.edges[seed]
    covered = radius / 2.2  # Euclidean radius certainly inside the patch
    candidates: list[Point] = []
    for (pos, k), letter in patch.edges.items():
        if k == 0 and letter == seed_letter and any(pos):
            v = Point(spec.n, pos)
            if abs(v) <= covered - 1.5:
                candidates.append(v)
    candidates.sort(key=lambda p: (abs(p), p.coeffs))

    def is_translation(v: Point) -> bool:
        vk = v.coeffs
        limit = covered - abs(v) - 1.0
        if limit <= 0.5:
            return False
        checked = 0
        for (pos, k), letter in patch.edges.items():
            if abs(Point(spec.n, pos).to_complex()) > limit:
                continue
            got = patch.edges.get((add_vec(pos, vk), k))
            if got != letter:
                return False
            checked += 1
        return checked > 0

    valid: list[Point] = []
    for v in candidates:
        if not is_translation(v):
            continue
        valid.append(v)
        for u in valid[:-1]:
            cross = (u.to_complex() * v.to_complex().conjugate()).imag
            if abs(cross) > 1e-9:
                return u, v
    raise GridError(
        f"could not detect two independent translations for {spec.name!r}"
    )
