"""The gridcurve command line tool.

Inputs are .gcs files or catalog: references (e.g. catalog:ju19).  Data goes
to stdout, diagnostics to stderr.  Exit codes: 0 success, 1 bad input,
2 validation verdict Invalid, 3 search budget exceeded.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import catalog
from .gridmodel import GridSpec, check_grid, prototiles
from .lsystem import (
    CurveSet,
    UnequalRowSums,
    dimension,
    drop_letters_normalize,
    embed_triangle_word,
    decorate_square_point_word,
    expand,
    expand_tagged,
    is_irreducible,
    make_folding,
    order,
    rewrite,
    subst_matrix,
)
from .numsys import (
    EISENSTEIN,
    GAUSSIAN,
    NumerationSystem,
    check_residue_system,
    expand_integer,
    format_elem,
    fundamental_region_points,
    parse_elem,
    plot_elem,
)
from .render import AREA, LINE, RenderStyle, render_area, render_line, render_points
from .search import SearchBudgetExceeded, enumerate_curve_sets, search_colorings
from .specio import ParseError, SpecDocument, parse, print_document
from .validator import INVALID, validate
from .words import Word, WordError, parse_word

EXIT_OK = 0
EXIT_BAD_INPUT = 1
EXIT_INVALID = 2
EXIT_BUDGET = 3


class CliError(Exception):
    pass


def _load_document(ref: str) -> SpecDocument:
    if ref.startswith("catalog:"):
        name = ref[len("catalog:"):]
        doc = SpecDocument()
        try:
            cs = catalog.curveset(name)
            if cs.grid is not None:
                doc.items.append(cs.grid)
            doc.items.append(cs)
            return doc
        except catalog.CatalogError:
            pass
        try:
            g = catalog.grid(name)
            doc.items.append(g)
            return doc
        except catalog.CatalogError:
            raise CliError(f"nothing named {name!r} in the catalog")
    path = Path(ref)
    if not path.exists():
        raise CliError(f"no such file: {ref}")
    return parse(path.read_text())


def _pick_curveset(doc: SpecDocument, name: str | None) -> CurveSet:
    sets = doc.curvesets()
    if not sets:
        raise CliError("input contains no curve-set")
    if name is None:
        if len(sets) == 1:
            return next(iter(sets.values()))
        raise CliError(
            f"input has {len(sets)} curve-sets; pick one with --set "
            f"({', '.join(sorted(sets))})"
        )
    if name not in sets:
        raise CliError(f"no curve-set named {name!r} in the input")
    return sets[name]


def _pick_grid(ref: str) -> GridSpec:
    try:
        return catalog.grid(ref)
    except catalog.CatalogError:
        pass
    doc = _load_document(ref)
    grids = doc.grids()
    if len(grids) == 1:
        return next(iter(grids.values()))
    raise CliError(f"{ref!r} is not a grid")


def _axiom(cs: CurveSet, text: str) -> Word:
    return parse_word(text, cs.n, cs.double)


def _out(text: str, path: str | None) -> None:
    if path:
        Path(path).write_text(text)
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


# -- verbs -----------------------------------------------------------------


def cmd_validate(args) -> int:
    doc = _load_document(args.input)
    sets = doc.curvesets()
    if args.set:
        sets = {args.set: _pick_curveset(doc, args.set)}
    if not sets:
        raise CliError("input contains no curve-set")
    worst = EXIT_OK
    reports = []
    for name in sorted(sets):
        rep = validate(sets[name])
        reports.append(rep)
        if rep.verdict == INVALID:
            worst = EXIT_INVALID
    if args.json:
        print(json.dumps([r.to_json() for r in reports], indent=2))
    else:
        print("\n\n".join(r.to_text() for r in reports))
    return worst


def cmd_expand(args) -> int:
    doc = _load_document(args.input)
    cs = _pick_curveset(doc, args.set)
    word = expand(cs, _axiom(cs, args.axiom), args.k)
    _out(word.to_string(cs.n, cs.double), args.output)
    return EXIT_OK


def cmd_render(args) -> int:
    doc = _load_document(args.input)
    cs = _pick_curveset(doc, args.set)
    axiom = _axiom(cs, args.axiom)
    tags = None
    if args.colors == "ancestor":
        word, tags = expand_tagged(cs, axiom, args.k)
    else:
        word = expand(cs, axiom, args.k)
    style = RenderStyle(
        mode=args.mode,
        corner_radius=args.rounded,
        color_scheme=args.colors,
        draw_borders=args.borders,
    )
    if args.mode == LINE:
        svg = render_line(word, cs.grid, style, n=cs.n, tags=tags)
    else:
        if cs.grid is None:
            raise CliError("area mode needs a grid")
        svg = render_area(word, cs.grid, style, tags=tags)
    _out(svg, args.output)
    return EXIT_OK


def cmd_matrix(args) -> int:
    doc = _load_document(args.input)
    cs = _pick_curveset(doc, args.set)
    m = subst_matrix(cs)
    if args.json:
        out = {"letters": list(m.letters), "matrix": m.to_lists(),
               "irreducible": is_irreducible(m)}
        try:
            out["order"] = order(cs)
        except UnequalRowSums as exc:
            out["order"] = None
            out["rowSums"] = exc.row_sums
        print(json.dumps(out, indent=2))
        return EXIT_OK
    print(m)
    try:
        print(f"order {order(cs)}")
    except UnequalRowSums as exc:
        print(f"row sums differ: {exc.row_sums}")
    print(f"irreducible {'yes' if is_irreducible(m) else 'no'}")
    return EXIT_OK


def cmd_dimension(args) -> int:
    doc = _load_document(args.input)
    cs = _pick_curveset(doc, args.set)
    if args.letter is not None and args.letter not in cs.letters:
        raise CliError(f"--letter {args.letter!r} is not a letter of {cs.name!r} "
                       f"({', '.join(cs.letters)})")
    letters = [args.letter] if args.letter else list(cs.letters)
    for letter in letters:
        dim = dimension(cs, letter)
        print(f"{letter} undetermined" if dim is None else f"{letter} {dim:.9f}")
    return EXIT_OK


def cmd_prototiles(args) -> int:
    grid = _pick_grid(args.grid)
    violations = check_grid(grid)
    if violations:
        for v in violations:
            print(v, file=sys.stderr)
        return EXIT_BAD_INPUT
    for tile in prototiles(grid):
        print(f"{tile.to_string(grid.n, grid.double)} {tile.sense}")
    return EXIT_OK


def cmd_search_colorings(args) -> int:
    grid = _pick_grid(args.grid)
    try:
        rr, cc = args.torus.lower().split("x")
        R, C = int(rr), int(cc)
    except ValueError:
        raise CliError("--torus expects RxC, e.g. 4x4")
    try:
        found = search_colorings(grid, R, C, args.colors,
                                 dedup_rotations=not args.no_rotations)
    except SearchBudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    print(f"{len(found)} colorings", file=sys.stderr)
    docs = []
    for i, col in enumerate(found):
        g = col.to_gridspec(f"{grid.name}-c{args.colors}-{i + 1}")
        doc = SpecDocument()
        doc.items.append(g)
        text = (f"# minimal vector {col.minimal_vector}\n"
                + print_document(doc))
        if args.output:
            os.makedirs(args.output, exist_ok=True)
            Path(args.output, f"{g.name}.gcs").write_text(text)
        else:
            print(text, end="")
    return EXIT_OK


def cmd_search_curves(args) -> int:
    grid = _pick_grid(args.grid)
    if args.order < 0:
        raise CliError(f"--order must be >= 0, got {args.order}")
    result = enumerate_curve_sets(grid, args.order, budget=args.budget)
    print(f"{len(result.curvesets)} curve-sets, "
          f"{'complete' if result.complete else 'budget exceeded'}",
          file=sys.stderr)
    for cs in result.curvesets:
        doc = SpecDocument()
        doc.items.append(grid)
        doc.items.append(cs)
        text = print_document(doc)
        if args.output:
            os.makedirs(args.output, exist_ok=True)
            Path(args.output, f"{cs.name}.gcs").write_text(text)
        else:
            print(text, end="")
    return EXIT_OK if result.complete else EXIT_BUDGET


def cmd_numsys(args) -> int:
    ring = {"g": GAUSSIAN, "e": EISENSTEIN}[args.ring]
    radix = parse_elem(args.radix, ring)
    digits = [parse_elem(d, ring)
              for d in args.digits.replace(";", " ").split()]
    ns = NumerationSystem.make(radix, digits)
    if args.check or not (args.expand or args.region is not None):
        rep = check_residue_system(ns)
        print(f"digits {len(ns.digits)}  norm {rep.expected}  "
              f"complete-residue-system {'yes' if rep.ok else 'no'}")
        for a, b in rep.duplicates:
            print(f"congruent digits: {format_elem(a)} = {format_elem(b)} "
                  f"(mod {format_elem(ns.radix)})")
    if args.expand:
        z = parse_elem(args.expand, ring)
        ex = expand_integer(ns, z)
        ds = " ".join(format_elem(ns.digits[i]) for i in ex.digits)
        if ex.terminated:
            print(f"{format_elem(z)} = [{ds}] (least significant first)")
        else:
            print(f"{format_elem(z)} = [{ds}] then cycles at {format_elem(ex.cycle[0])}")
    if args.region is not None:
        pts = fundamental_region_points(ns, args.region)
        print(f"{len(pts)} points at depth {args.region}")
        if args.svg:
            scale = ns.radix.norm2_int() ** (-args.region / 2)
            zs = [plot_elem(p) * scale for p in pts]
            Path(args.svg).write_text(render_points(zs))
    return EXIT_OK


def _required(args, name: str) -> str:
    value = getattr(args, name)
    if value is None:
        raise CliError(f"transform --op {args.op} needs --{name}")
    return value


def cmd_transform(args) -> int:
    if args.op == "drop":
        doc = _load_document(_required(args, "input"))
        cs = _pick_curveset(doc, args.set)
        out = drop_letters_normalize(cs, set(args.drop or ""), args.target_n)
        lines = [
            f"{letter} |--> {w.to_string(out.n)}" for letter, w in out.productions
        ]
        _out("\n".join(lines), args.output)
        return EXIT_OK
    word = _required(args, "word")
    if args.op == "folding":
        w = parse_word(word, 4)
        _out(make_folding(w).to_string(4, False), args.output)
        return EXIT_OK
    if args.op == "revcomp":
        relabel = {}
        for pair in args.relabel.split(",") if args.relabel else ():
            if pair.count(":") != 1:
                raise CliError(f"--relabel expects A:B pairs separated by commas, got {pair!r}")
            a, b = pair.split(":")
            relabel[a] = b
        w = parse_word(word, args.turn)
        _out(w.reversed_complement(relabel).to_string(args.turn), args.output)
        return EXIT_OK
    if args.op == "embed":
        _out(embed_triangle_word(word).to_string(6, False), args.output)
        return EXIT_OK
    if args.op == "decorate":
        _out(decorate_square_point_word(word).to_string(8, False),
             args.output)
        return EXIT_OK
    if args.op == "rewrite":
        rules = []
        for rule in args.rules or []:
            if "=" not in rule:
                raise CliError(f"rule {rule!r} is not find=replace")
            find, repl = rule.split("=", 1)
            rules.append((find, repl))
        w = rewrite(word, rules, args.turn)
        _out(w.to_string(args.turn), args.output)
        return EXIT_OK
    raise CliError(f"unknown transform {args.op!r}")


def cmd_catalog(args) -> int:
    if args.action == "list":
        print("grids:")
        for name in catalog.grid_names():
            print(f"  {name}")
        print("curvesets:")
        for name in catalog.curveset_names():
            e = catalog.ENTRY_BY_NAME.get(name)
            extra = f" ({e.kind}, order {e.order})" if e else ""
            print(f"  {name}{extra}")
        return EXIT_OK
    if args.action == "show":
        if not args.name:
            raise CliError("catalog show needs a name")
        doc = _load_document(f"catalog:{args.name}")
        print(print_document(doc), end="")
        return EXIT_OK
    if args.action == "export":
        target = Path(args.name or ".")
        target.mkdir(parents=True, exist_ok=True)
        for fname in catalog.DATA_FILES:
            (target / fname).write_text(catalog.raw_text(fname))
            print(f"wrote {target / fname}", file=sys.stderr)
        return EXIT_OK
    raise CliError(f"unknown catalog action {args.action!r}")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="gridcurve",
        description="edge-colored grids, plane-filling curve-sets, SVG output",
    )
    sub = p.add_subparsers(dest="verb", required=True)

    v = sub.add_parser("validate", help="run all checks on curve-sets")
    v.add_argument("input")
    v.add_argument("--set")
    v.add_argument("--json", action="store_true")
    v.set_defaults(func=cmd_validate)

    e = sub.add_parser("expand", help="apply the productions k times")
    e.add_argument("input")
    e.add_argument("--set")
    e.add_argument("--axiom", required=True)
    e.add_argument("-k", type=int, required=True)
    e.add_argument("-o", "--output")
    e.set_defaults(func=cmd_expand)

    r = sub.add_parser("render", help="draw an iterate as SVG")
    r.add_argument("input")
    r.add_argument("--set")
    r.add_argument("--axiom", required=True)
    r.add_argument("-k", type=int, required=True)
    r.add_argument("--mode", choices=[LINE, AREA], default=LINE)
    r.add_argument("--colors", choices=["letter", "ancestor", "orientation"],
                   default="letter")
    r.add_argument("--rounded", type=float, default=0.25)
    r.add_argument("--borders", action="store_true")
    r.add_argument("-o", "--output")
    r.set_defaults(func=cmd_render)

    m = sub.add_parser("matrix", help="substitution matrix and order")
    m.add_argument("input")
    m.add_argument("--set")
    m.add_argument("--json", action="store_true")
    m.set_defaults(func=cmd_matrix)

    d = sub.add_parser("dimension", help="similarity dimension per letter")
    d.add_argument("input")
    d.add_argument("--set")
    d.add_argument("--letter")
    d.set_defaults(func=cmd_dimension)

    t = sub.add_parser("prototiles", help="face types of a grid")
    t.add_argument("grid")
    t.set_defaults(func=cmd_prototiles)

    sc = sub.add_parser("search-colorings", help="color a toroidal patch")
    sc.add_argument("--grid", required=True)
    sc.add_argument("--torus", required=True, help="RxC")
    sc.add_argument("--colors", type=int, required=True)
    sc.add_argument("--no-rotations", action="store_true",
                    help="deduplicate under translations only")
    sc.add_argument("-o", "--output", help="directory for .gcs results")
    sc.set_defaults(func=cmd_search_colorings)

    se = sub.add_parser("search-curves", help="enumerate curve-sets of one order")
    se.add_argument("--grid", required=True)
    se.add_argument("--order", type=int, required=True)
    se.add_argument("--budget", type=int, default=2_000_000)
    se.add_argument("-o", "--output", help="directory for .gcs results")
    se.set_defaults(func=cmd_search_curves)

    ns = sub.add_parser("numsys", help="complex-base numeration systems")
    ns.add_argument("--ring", choices=["g", "e"], required=True)
    ns.add_argument("--radix", required=True, help="a,b (use --radix=-1,3 for negatives)")
    ns.add_argument("--digits", required=True,
                    help="space-separated a,b pairs in one argument")
    ns.add_argument("--check", action="store_true")
    ns.add_argument("--expand", help="a,b")
    ns.add_argument("--region", type=int)
    ns.add_argument("--svg")
    ns.set_defaults(func=cmd_numsys)

    tr = sub.add_parser("transform", help="word and curve-set transforms")
    tr.add_argument("--op", required=True,
                    choices=["folding", "revcomp", "drop", "embed",
                             "decorate", "rewrite"])
    tr.add_argument("--word")
    tr.add_argument("--input")
    tr.add_argument("--set")
    tr.add_argument("--drop", help="letters to remove")
    tr.add_argument("--target-n", type=int)
    tr.add_argument("--turn", type=int, default=4)
    tr.add_argument("--relabel", help="A:B,C:D")
    tr.add_argument("--rules", nargs="+", help="find=replace ...")
    tr.add_argument("-o", "--output")
    tr.set_defaults(func=cmd_transform)

    c = sub.add_parser("catalog", help="list, show, or export built-in data")
    c.add_argument("action", choices=["list", "show", "export"])
    c.add_argument("name", nargs="?")
    c.set_defaults(func=cmd_catalog)
    return p


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse prints the usage and exits 2 on a usage error, but 2
        # means the verdict Invalid here; --help exits 0
        return EXIT_BAD_INPUT if exc.code else EXIT_OK
    try:
        return args.func(args)
    except (CliError, ParseError, WordError, catalog.CatalogError,
            UnequalRowSums, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
