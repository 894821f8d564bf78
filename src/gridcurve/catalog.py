"""Built-in catalog: every grid coloring and curve-set shipped with the tool.

The geometry lives in the .gcs files under data/; this module adds lookup,
aliases, and the regression expectations used by the test suite (expected
order and expected validation outcome).  ``CatalogEntry.coverage_k`` is
read only by the benchmark's workloads, which pass it on to ``validate``;
coverage has no depth, so it changes nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources

from .gridmodel import GridSpec
from .lsystem import CurveSet
from .specio import SpecDocument, parse

DATA_FILES = (
    "square.gcs",
    "triangle.gcs",
    "trihex.gcs",
    "g3464.gcs",
    "g3366.gcs",
    "g3446.gcs",
    "dhexagon.gcs",
    "dsquare.gcs",
    "dtriangle.gcs",
    "dtrihex.gcs",
    "d488.gcs",
    "d31212.gcs",
    "freeform.gcs",
)

GRID_ALIASES = {
    "4444": "square",
    "333333": "triangle",
    "3636": "trihex",
    "dsquare": "d-square",
    "dtriangle": "d-triangle",
    "dhexagon": "d-hexagon",
    "dtrihex": "d-trihex",
    "d-488": "d488",
    "d488-grid": "d488",
    "d-31212": "d31212",
    "488": "d488",
    "31212": "d31212",
}

VALID = "valid"  # expected verdict Valid or ValidWithCaveats
NONFILLING = "nonfilling"  # self-avoiding but provably not edge-covering
COUNTEREXAMPLE = "counterexample"  # expected verdict Invalid
FREEFORM = "freeform"  # no grid; generic expansion only


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    kind: str
    order: int | None
    coverage_k: int = 3
    note: str = ""


CURVE_ENTRIES = (
    CatalogEntry("sq-r5", VALID, 5),
    CatalogEntry("sq-r29", VALID, 29),
    CatalogEntry("sq-fg-r25", VALID, 25),
    CatalogEntry("sq-fg2-r49", VALID, 49),
    CatalogEntry("sq-lr-r13", VALID, 13),
    CatalogEntry("fold-r9", VALID, 9),
    CatalogEntry("fold-r9-filling", VALID, 9),
    CatalogEntry("fold-r5", NONFILLING, 5,
                 note="self-avoiding; displacement norm 9 exceeds the order"),
    CatalogEntry("sausage", COUNTEREXAMPLE, 2,
                 note="fills both tiles at depth 1 yet covers nothing"),
    CatalogEntry("fischer", COUNTEREXAMPLE, 6,
                 note="no constants, tiles filled, still line-shaped"),
    CatalogEntry("sq-star-r49", VALID, 49),
    CatalogEntry("sq-star-r5", VALID, 5),
    CatalogEntry("sq-set-r4", VALID, 4),
    CatalogEntry("sq-set-r7", VALID, 7),
    CatalogEntry("sq-set-r3", VALID, 3),
    CatalogEntry("sq-set-r6", VALID, 6),
    CatalogEntry("terdragon", VALID, 3),
    CatalogEntry("gosper", VALID, 7),
    CatalogEntry("tri-r13-1", VALID, 13),
    CatalogEntry("tri-r25", VALID, 25),
    CatalogEntry("tri-fgh-r16", VALID, 16,
                 note="stated order 25 in the source text; the maps sum to 16"),
    CatalogEntry("tri-star-r16", VALID, 16),
    CatalogEntry("tri-star-r16-manta", VALID, 16),
    CatalogEntry("tri-rot-r7", VALID, 7),
    CatalogEntry("tri-rot-r36", VALID, 36),
    CatalogEntry("keili", VALID, 6, note="plane-filling with uneven growth"),
    CatalogEntry("tri-bizarro-r9", VALID, 9),
    CatalogEntry("trihex-r67", VALID, 67),
    CatalogEntry("trihex-ab-r25", VALID, 25),
    CatalogEntry("trihex-ab-r16", VALID, 16,
                 note="stated order 9 in the source text; the maps sum to 16"),
    CatalogEntry("trihex-fgh-r25", VALID, 25),
    CatalogEntry("trihex-set6-r16", VALID, 16),
    CatalogEntry("ju19", VALID, 19),
    CatalogEntry("3464-r9", VALID, 9),
    CatalogEntry("3464-r39", VALID, 39),
    CatalogEntry("3464-r37", VALID, 37),
    CatalogEntry("3464-aconst-r9", VALID, 9),
    CatalogEntry("3464-bconst-r19", VALID, 19),
    CatalogEntry("3464-rot4-r9a", VALID, 9),
    CatalogEntry("3464-rot4-r9b", VALID, 9),
    CatalogEntry("3464-fhg-r9", VALID, 9),
    CatalogEntry("3366-r16", VALID, 16),
    CatalogEntry("3366-r13-15", VALID, 13),
    CatalogEntry("3446-r7", VALID, 7,
                 note="production of A reconstructed to match the printed matrix"),
    CatalogEntry("3446-r31", VALID, 31),
    CatalogEntry("dhex-r25", VALID, 25),
    CatalogEntry("dhex-r109", VALID, 109),
    CatalogEntry("dhex-r19", VALID, 19),
    CatalogEntry("dhex-abc-r13", VALID, 13),
    CatalogEntry("dsq-r4", VALID, 4),
    CatalogEntry("dsq-r5", VALID, 5),
    CatalogEntry("dsq-r17", VALID, 17),
    CatalogEntry("dsq-r85", VALID, 85),
    CatalogEntry("dtri-r4", VALID, 4),
    CatalogEntry("dtri-r3", VALID, 3,
                 note="half of the order-3 triangle curve on double edges"),
    CatalogEntry("dtri-r61", VALID, 61),
    CatalogEntry("dtri-ab-r13", VALID, 13),
    CatalogEntry("dtri-ab-r13-split", VALID, 13,
                 note="an order-13 triangle curve split over two classes"),
    CatalogEntry("dtrihex-r13", VALID, 13),
    CatalogEntry("dtrihex-r9-koch", VALID, 9),
    CatalogEntry("d488-r5", VALID, 5),
    CatalogEntry("d488-r13", VALID, 13),
    CatalogEntry("d31212-r27", VALID, 27),
    CatalogEntry("nofit-1", FREEFORM, None),
    CatalogEntry("nofit-2", FREEFORM, None),
    CatalogEntry("nofit-3", FREEFORM, None),
)

ENTRY_BY_NAME = {e.name: e for e in CURVE_ENTRIES}

_cache: dict[str, SpecDocument] = {}


class CatalogError(KeyError):
    pass


def _documents() -> dict[str, SpecDocument]:
    if not _cache:
        for fname in DATA_FILES:
            text = resources.files("gridcurve.data").joinpath(fname).read_text()
            _cache[fname] = parse(text)
    return _cache


def raw_text(fname: str) -> str:
    if fname not in DATA_FILES:
        raise CatalogError(f"no catalog file {fname!r}")
    return resources.files("gridcurve.data").joinpath(fname).read_text()


def grid_names() -> list[str]:
    out = []
    for doc in _documents().values():
        out.extend(doc.grids())
    return sorted(out)


def curveset_names() -> list[str]:
    out = []
    for doc in _documents().values():
        out.extend(doc.curvesets())
    return sorted(out)


def grid(name: str) -> GridSpec:
    name = GRID_ALIASES.get(name, name)
    for doc in _documents().values():
        g = doc.grids().get(name)
        if g is not None:
            return g
    raise CatalogError(f"no grid named {name!r} in the catalog")


def curveset(name: str) -> CurveSet:
    for doc in _documents().values():
        cs = doc.curvesets().get(name)
        if cs is not None:
            return cs
    raise CatalogError(f"no curve-set named {name!r} in the catalog")
