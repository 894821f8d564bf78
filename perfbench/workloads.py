"""The benchmark's workloads: operation lists, set-up and oracles.

Each workload is a fixed list of operations.  ``set_up`` parses the catalog
and builds the inputs; the seed only shuffles the order the operations run
in.  Each operation's output is reduced to a small JSON summary, and
``check`` compares the summary with the oracle: the catalog's expectations
for validate-catalog, and the values pinned in expected.json for search and
render.  Importing this module imports gridcurve.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

from gridcurve import catalog
from gridcurve.lsystem import expand
from gridcurve.render import AREA, LINE, RenderStyle, check_svg, render_area, render_line
from gridcurve.search import enumerate_curve_sets, search_colorings
from gridcurve.validator import INVALID, VALID, VALID_WITH_CAVEATS, validate
from gridcurve.words import Word

EXPECTED_FILE = Path(__file__).with_name("expected.json")

# (grid, order) for enumerate_curve_sets
ENUMERATIONS = (("d-square", 10), ("triangle", 9), ("square", 13))
# (grid, rows, columns, letters) for search_colorings
COLORINGS = (("square", 5, 5, 5), ("triangle", 6, 6, 3), ("square", 4, 4, 4))
# (curve-set, depth, mode); the axiom is the curve-set's first letter
RENDERS = (
    ("sq-r5", 5, AREA),
    ("gosper", 4, AREA),
    ("dtri-r4", 5, AREA),
    ("sq-r5", 6, LINE),
    ("gosper", 5, LINE),
)

# verdicts each catalog kind allows
ALLOWED_VERDICTS = {
    catalog.VALID: {VALID, VALID_WITH_CAVEATS},
    catalog.COUNTEREXAMPLE: {INVALID},
    catalog.NONFILLING: {VALID_WITH_CAVEATS, INVALID},
    catalog.FREEFORM: {VALID_WITH_CAVEATS},
}


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    summarize: Callable[[object], dict]
    check: Callable[[dict], str | None]  # None when the summary is right


def digest(value) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()


def load_expected() -> dict:
    return json.loads(EXPECTED_FILE.read_text())


# -- validate-catalog --------------------------------------------------------


def _report_summary(report) -> dict:
    return {"verdict": report.verdict, "order": report.order, "report": digest(report.to_json())}


def _check_verdict(entry: catalog.CatalogEntry, summary: dict) -> str | None:
    if summary["verdict"] not in ALLOWED_VERDICTS[entry.kind]:
        return f"verdict {summary['verdict']} for a {entry.kind} entry"
    if summary["order"] != entry.order:
        return f"order {summary['order']}, catalog says {entry.order}"
    return None


def _validate_ops(expected: dict) -> list[Op]:
    return [
        Op(e.name, partial(validate, catalog.curveset(e.name), coverage_k=e.coverage_k),
           _report_summary, partial(_check_verdict, e))
        for e in catalog.CURVE_ENTRIES
    ]


# -- search ------------------------------------------------------------------


def _curvesets_summary(result) -> dict:
    sets = sorted(
        sorted((letter, word.to_string(cs.n, cs.grid.double)) for letter, word in cs.productions)
        for cs in result.curvesets
    )
    return {"complete": result.complete, "count": len(sets), "sha256": digest(sets)}


def _colorings_summary(found) -> dict:
    cols = sorted([list(c.assignment), c.num_colors, list(c.minimal_vector)] for c in found)
    return {"count": len(cols), "sha256": digest(cols)}


def _check_pinned(want: dict, summary: dict) -> str | None:
    return None if summary == want else f"got {summary}, pinned {want}"


def _search_ops(expected: dict) -> list[Op]:
    ops = []
    for grid_name, order in ENUMERATIONS:
        name = f"enumerate {grid_name} R={order}"
        ops.append(Op(name, partial(enumerate_curve_sets, catalog.grid(grid_name), order),
                      _curvesets_summary, partial(_check_pinned, expected.get(name))))
    for grid_name, rows, cols, letters in COLORINGS:
        name = f"colorings {grid_name} {rows}x{cols} m={letters}"
        ops.append(Op(name, partial(search_colorings, catalog.grid(grid_name), rows, cols, letters),
                      _colorings_summary, partial(_check_pinned, expected.get(name))))
    return ops


# -- render ------------------------------------------------------------------


def _render(cs, depth: int, style: RenderStyle):
    word = expand(cs, Word((cs.letters[0],)), depth)
    draw = render_area if style.mode == AREA else render_line
    return word, draw(word, cs.grid, style)


def _svg_summary(output) -> dict:
    word, svg = output
    return {
        "edges": word.nletters(),
        "polygons": svg.count("<polygon"),
        "well_formed": check_svg(svg),
        "svg_bytes": len(svg.encode()),
        "sha256": hashlib.sha256(svg.encode()).hexdigest(),
    }


def _check_svg(mode: str, want: dict, summary: dict) -> str | None:
    if not summary["well_formed"]:
        return "check_svg rejects the output"
    if mode == AREA and summary["polygons"] != summary["edges"]:
        return f"{summary['polygons']} polygons for {summary['edges']} traced edges"
    return _check_pinned(want, summary)


def _render_ops(expected: dict) -> list[Op]:
    ops = []
    for cs_name, depth, mode in RENDERS:
        name = f"{mode} {cs_name} k={depth}"
        ops.append(Op(name, partial(_render, catalog.curveset(cs_name), depth, RenderStyle(mode=mode)),
                      _svg_summary, partial(_check_svg, mode, expected.get(name))))
    return ops


BUILDERS = {
    "validate-catalog": _validate_ops,
    "search": _search_ops,
    "render": _render_ops,
}


def set_up(workload: str, seed: int, expected: dict | None = None) -> list[Op]:
    """Parse the catalog, build the workload's operations and shuffle them."""
    ops = BUILDERS[workload](load_expected() if expected is None else expected)
    random.Random(seed).shuffle(ops)
    return ops
