"""Span recorder for the traced benchmark pass.

The recorder wraps public gridcurve functions at every import binding that
holds them (``gridmodel.realize``, ``validator.realize``, ``render.realize``
and so on) and the methods named in ``TARGETS``.  Each call records one span:
a name, a start, an end, the span that was open when it began, and the
counts read from its arguments and result.  Spans stay in memory;
``layer_metrics`` reduces them to the per-layer metrics when the pass ends.
The originals are put back when the ``with`` block exits.

Importing this module imports nothing from gridcurve.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field


def _svg_bytes(args, svg):
    return {"render.svg_bytes": len(svg.encode())}


# span name -> None, or a function of (args, result) giving the span's counts
TARGETS = {
    "specio.parse": None,
    "lsystem.expand": lambda args, word: {"lsystem.expand.letters": word.nletters()},
    "exactgeom.trace_tokens": lambda args, out: {"exactgeom.trace_tokens.edges": len(out[2])},
    "gridmodel.realize": lambda args, patch: {"gridmodel.realize.edges": len(patch.edges)},
    "gridmodel.Patch.faces": None,
    "gridmodel.Patch.face_maps": None,
    "gridmodel.prototiles": None,
    "gridmodel.detect_translation_lattice": None,
    "validator.validate": None,
    "validator.check_interior_filled": None,
    "validator.check_coverage": lambda args, cov: {"validator.check_coverage.target_edges": cov.total},
    "validator.check_dekking1": None,
    "validator.check_self_avoiding": lambda args, rep: {
        "validator.check_self_avoiding.edges": args[0].nletters()},
    "validator.scale_analysis": None,
    "search.enumerate_curve_sets": lambda args, res: {
        "search.enumerate_curve_sets.nodes": res.nodes, "emitted": len(res.curvesets)},
    "search.TorusPatch.build": None,
    "search.TorusPatch.symmetries": lambda args, perms: {
        "search.TorusPatch.symmetries.count": len(perms)},
    "search.search_colorings": None,
    "render.render_area": _svg_bytes,
    "render.render_line": _svg_bytes,
}

# layer whose self time a span adds to, where it is not the span's own name
LAYER_OF = {
    "gridmodel.Patch.faces": "gridmodel.faces",
    "gridmodel.Patch.face_maps": "gridmodel.faces",
}

CALLS = (
    "lsystem.expand",
    "gridmodel.realize",
    "gridmodel.prototiles",
    "validator.validate",
    "validator.check_interior_filled",
    "validator.check_coverage",
    "validator.check_self_avoiding",
)

SECONDS, COUNT, RATIO, BYTES = "s", "count", "ratio", "bytes"

# every per-layer metric the traced run reports, with its unit
LAYER_UNITS = {
    **{f"{LAYER_OF.get(name, name)}.self_s": SECONDS for name in TARGETS},
    **{f"{name}.calls": COUNT for name in CALLS},
    "lsystem.expand.letters": COUNT,
    "exactgeom.trace_tokens.edges": COUNT,
    "gridmodel.realize.edges": COUNT,
    "validator.check_coverage.target_edges": COUNT,
    "validator.check_self_avoiding.edges": COUNT,
    "search.enumerate_curve_sets.nodes": COUNT,
    "search.candidates_validated": COUNT,
    "search.candidate_accept_ratio": RATIO,
    "search.TorusPatch.symmetries.count": COUNT,
    "render.svg_bytes": BYTES,
    "render.realized_per_drawn_edge": RATIO,
    "trace.overhead_s": SECONDS,
}


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 at the top
    counts: dict = field(default_factory=dict)


class Recorder:
    """Context manager that traces the TARGETS while it is open."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Recorder":
        for name, counter in TARGETS.items():
            module_name, *path = name.split(".")
            module = importlib.import_module(f"gridcurve.{module_name}")
            if len(path) == 1:
                self._wrap_bindings(getattr(module, path[0]), name, counter)
            else:
                cls_name, method = path
                self._wrap_method(getattr(module, cls_name), method, name, counter)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _wrap_bindings(self, fn, name, counter) -> None:
        wrapper = self._wrapper(fn, name, counter)
        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", None)
            if not isinstance(namespace, dict):
                continue
            for attr, value in list(namespace.items()):
                if value is fn:
                    self._undo.append((module, attr, fn))
                    setattr(module, attr, wrapper)

    def _wrap_method(self, cls, method, name, counter) -> None:
        raw = cls.__dict__[method]
        if isinstance(raw, staticmethod):
            replacement = staticmethod(self._wrapper(raw.__func__, name, counter))
        else:
            replacement = self._wrapper(raw, name, counter)
        self._undo.append((cls, method, raw))
        setattr(cls, method, replacement)

    def _wrapper(self, fn, name, counter):
        spans, open_spans, clock = self.spans, self._open, time.perf_counter

        def traced(*args, **kwargs):
            span = Span(name, 0.0, 0.0, open_spans[-1] if open_spans else -1)
            open_spans.append(len(spans))
            spans.append(span)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                open_spans.pop()
            if counter is not None:
                span.counts = counter(args, result)
            return result

        return traced


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    covered = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            covered[span.parent] += span.end - span.start
    return [s.end - s.start - c for s, c in zip(spans, covered)]


def _has_ancestor(spans: list[Span], i: int, name: str) -> bool:
    i = spans[i].parent
    while i >= 0:
        if spans[i].name == name:
            return True
        i = spans[i].parent
    return False


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Every per-layer metric except trace.overhead_s, which needs an
    untraced pass to compare with."""
    out: dict[str, float] = defaultdict(int)  # a layer never called reads 0
    for span, own in zip(spans, self_times(spans)):
        out[f"{LAYER_OF.get(span.name, span.name)}.self_s"] += own
        if span.name in CALLS:
            out[f"{span.name}.calls"] += 1
        for key, value in span.counts.items():
            out[key] += value
    validated = realized = drawn = 0
    for i, span in enumerate(spans):
        if span.name == "validator.validate" and _has_ancestor(spans, i, "search.enumerate_curve_sets"):
            validated += 1
        elif span.name == "gridmodel.realize" and _has_ancestor(spans, i, "render.render_area"):
            realized += span.counts["gridmodel.realize.edges"]
        elif (span.name == "exactgeom.trace_tokens" and span.parent >= 0
              and spans[span.parent].name == "render.render_area"):
            drawn += span.counts["exactgeom.trace_tokens.edges"]
    out["search.candidates_validated"] = validated
    out["search.candidate_accept_ratio"] = out["emitted"] / validated if validated else 0.0
    out["render.realized_per_drawn_edge"] = realized / drawn if drawn else 0.0
    return {name: out[name] for name in LAYER_UNITS if name != "trace.overhead_s"}
