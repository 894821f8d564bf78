"""Golden runs of CLI verbs through cli.main(argv), with catalog inputs."""

import hashlib
import json

import pytest

from gridcurve import cli, lsystem, search


def test_search_colorings_golden(capsys):
    argv = ["search-colorings", "--grid", "square", "--torus", "4x4", "--colors", "4"]
    assert cli.main(argv) == 0
    out, err = capsys.readouterr()
    assert err == "5 colorings\n"
    assert out.startswith("# minimal vector (2, 2)\ngrid square-c4-1 {\n")
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "bf8c1d9855cc20d24652c71aa7dc60b6431ac7f8f3a51274f65324041cca2927")


def test_search_colorings_bad_torus(capsys):
    argv = ["search-colorings", "--grid", "square", "--torus", "4", "--colors", "4"]
    assert cli.main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert "--torus expects RxC" in err


def test_search_colorings_budget_exceeded_exits_3(capsys, monkeypatch):
    monkeypatch.setattr(search, "_COLORING_BUDGET", 10)
    argv = ["search-colorings", "--grid", "square", "--torus", "4x4", "--colors", "4"]
    assert cli.main(argv) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "budget exceeded: over 10 nodes\n"


def test_render_golden(capsys):
    # both outputs are pinned from the patch-based area renderer
    pins = {
        "line": "ecac87f1954c601314d0830d3961cb11ffdf978e9299b9cca19d1b46d9715b73",
        "area": "3636e52961055553a650385a70ffc250e2237057e95cefc993e11adac02aef94",
    }
    for mode, pin in pins.items():
        argv = ["render", "catalog:sq-r5", "--axiom", "F", "-k", "3", "--mode", mode]
        assert cli.main(argv) == 0
        out, err = capsys.readouterr()
        assert err == ""
        assert hashlib.sha256(out.encode()).hexdigest() == pin, mode


def test_render_area_needs_a_grid(capsys):
    argv = ["render", "catalog:nofit-1", "--axiom", "F", "-k", "1", "--mode", "area"]
    assert cli.main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert "area mode needs a grid" in err


def test_render_area_leaving_the_grid(capsys):
    argv = ["render", "catalog:sq-r5", "--axiom", "F++F", "-k", "1", "--mode", "area"]
    assert cli.main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: path leaves grid 'square'")


def test_axiom_u_turn_needs_double_edges(capsys):
    # sq-r5 is on the square grid, which has no double edges
    for verb in ("expand", "render"):
        argv = [verb, "catalog:sq-r5", "--axiom", "F!F", "-k", "1"]
        assert cli.main(argv) == 1, verb
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: '!' is only valid on double-edge grids\n"


def test_axiom_u_turn_on_a_double_edge_grid(capsys):
    assert cli.main(["expand", "catalog:dsq-r4", "--axiom", "A!A", "-k", "0"]) == 0
    assert capsys.readouterr() == ("A!A\n", "")


def test_validate_golden(capsys):
    # exit 0 for a valid set, 2 when a report says Invalid; stdout pinned
    # from the recursive coverage expander, fischer's re-pinned when growth
    # moved to the vertex map: its risingAspect became true, with the
    # reason line for it; all three re-pinned when coverage moved to one
    # fundamental domain of the vertex map: the coverage line or object,
    # and the coverage reason of sausage and fischer (non-expansion)
    runs = [
        (["validate", "catalog:sq-r5"], 0,
         "3a95fc4cd0a0789dc1326256098942c3e34aa1a938a0411d36f1d9a07bc19590"),
        (["validate", "catalog:sausage"], 2,
         "be2b97be751641135638e62adf38a12b98110af76b5ea34f629aa13f99dd334c"),
        (["validate", "catalog:fischer", "--json"], 2,
         "dc18ed454bd580f1bc95906bd91acf91c88a4f5e3686d644061745b79a719b99"),
    ]
    for argv, code, pin in runs:
        assert cli.main(argv) == code, argv
        out, err = capsys.readouterr()
        assert err == ""
        assert hashlib.sha256(out.encode()).hexdigest() == pin, argv


@pytest.mark.parametrize("argv", [
    ["validate"],
    ["validate", "catalog:sq-r5", "-k", "3"],  # coverage has no depth
    ["validate", "catalog:sq-r5", "-r", "3"],  # nor a radius
    ["search-curves", "--grid", "square", "--order", "x"],
    ["frobnicate"],
    [],
])
def test_usage_errors_are_bad_input(capsys, argv):
    # argparse exits 2 on a usage error; 2 is kept for the verdict Invalid
    assert cli.main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("usage: gridcurve") and "error: " in err


def test_help_exits_0(capsys):
    for argv in (["--help"], ["validate", "--help"]):
        assert cli.main(argv) == 0, argv
        out, err = capsys.readouterr()
        assert out.startswith("usage: gridcurve") and err == ""


@pytest.mark.parametrize("name, code, reason", [
    ("fold-r5", 2, "reason: coverage: the iterates draw only 20/36 of the edges\n"),
    ("fischer", 2, "reason: coverage: the vertex map has an eigenvalue of modulus at most 1 "
                   "(trace 7, determinant 6), so no iterate grows over the plane\n"),
    ("sq-set-r4", 0, "coverage: partition missing=0/16 expanding=yes risingAspect=no\n"),
])
def test_validate_coverage_verdicts(capsys, name, code, reason):
    assert cli.main(["validate", f"catalog:{name}"]) == code
    out, err = capsys.readouterr()
    assert reason in out and err == ""


def test_dimension_golden(capsys):
    assert cli.main(["dimension", "catalog:ju19"]) == 0
    out, err = capsys.readouterr()
    assert (out, err) == ("A 2.000000000\nB 2.000000000\n", "")


def test_dimension_unknown_letter_names_the_argument(capsys):
    assert cli.main(["dimension", "catalog:sq-r5", "--letter", "Z"]) == 1
    assert capsys.readouterr() == (
        "", "error: --letter 'Z' is not a letter of 'sq-r5' (F)\n")


def test_dimension_undetermined_at_the_iteration_bound(capsys, monkeypatch):
    monkeypatch.setattr(lsystem, "_POWER_ITERATIONS", 1)
    assert cli.main(["dimension", "catalog:ju19"]) == 0
    assert capsys.readouterr() == ("A undetermined\nB undetermined\n", "")


def test_matrix_golden(capsys):
    assert cli.main(["matrix", "catalog:ju19"]) == 0
    out, err = capsys.readouterr()
    assert (out, err) == ("[[13,6],[12,7]]\norder 19\nirreducible yes\n", "")
    assert cli.main(["matrix", "catalog:ju19", "--json"]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert json.loads(out) == {
        "letters": ["A", "B"], "matrix": [[13, 6], [12, 7]],
        "irreducible": True, "order": 19,
    }
    assert out == json.dumps(json.loads(out), indent=2) + "\n"


def test_validate_conjugate_pair_eigenvalue(capsys):
    # only the reason line differs from the power-iteration fallback, which
    # found no eigenvalue here and said "no common displacement ..."
    assert cli.main(["validate", "catalog:3464-fhg-r9"]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert out == (
        "curveset: 3464-fhg-r9\n"
        "gridConsistent: yes\n"
        "selfAvoiding: yes\n"
        "scaleConsistent: no\n"
        "order: 9\n"
        "irreducible: yes\n"
        "constants: -\n"
        "interiorFilled: [F++G++H++]^2=yes, [f++++h++++g++++]^1=yes, [F---f---]^2=yes, "
        "[G---g---]^2=yes, [H---h---]^2=yes\n"
        "coverage: partition missing=0/108 expanding=yes risingAspect=no\n"
        "verdict: ValidWithCaveats\n"
        "reason: per-letter displacements differ; exact scale eigenvalue of "
        "squared modulus order^1 exists\n"
    )


def test_search_curves_golden(capsys):
    # stdout pinned from the word DFS that copied its state at every node
    assert cli.main(["search-curves", "--grid", "triangle", "--order", "9"]) == 0
    out, err = capsys.readouterr()
    assert err == "8 curve-sets, complete\n"
    assert out.count("curveset found-") == 8
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "f63e4dfd1be1d265857e809cfb78bcc2197760db9ff773fe9654b1f33ea819d1")


def test_search_curves_negative_order_names_the_argument(capsys):
    assert cli.main(["search-curves", "--grid", "square", "--order", "-3"]) == 1
    assert capsys.readouterr() == ("", "error: --order must be >= 0, got -3\n")


def test_search_curves_budget_exceeded(capsys):
    # with the distance and Dekking-1 prunes, three of the five sets are
    # checked before the 51st node
    argv = ["search-curves", "--grid", "d-square", "--order", "5", "--budget", "50"]
    assert cli.main(argv) == 3
    out, err = capsys.readouterr()
    assert err == "3 curve-sets, budget exceeded\n"
    grid = ("grid d-square {\n  turn = 4;\n  letters = A;\n  double;\n"
            "  transitions = A-A, A0A, A+A, A!A\n}\n\n")
    assert out == "".join(
        f"{grid}curveset found-{i} on d-square {{\n  A |--> {word}\n}}\n"
        for i, word in enumerate(["A+A!A0A+A", "A+A+A-A-A", "A0A!A+A+A"], 1))


def test_expand_golden(capsys):
    assert cli.main(["expand", "catalog:sq-r5", "--axiom", "F", "-k", "2"]) == 0
    out, err = capsys.readouterr()
    assert (out, err) == ("F+F+F-F-F+F+F+F-F-F+F+F+F-F-F-F+F+F-F-F-F+F+F-F-F\n", "")


def test_render_ancestor_colors_golden(capsys):
    # pinned from the expand_tagged that re-expanded with its own tag lists
    argv = ["render", "catalog:tri-r13-1", "--axiom", "F", "-k", "2", "--colors", "ancestor"]
    assert cli.main(argv) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "b33b3dea411f9aa547ae677ca6047889cd9a05e9d42222dff57ef0d60af9879a")


def test_numsys_golden(capsys):
    # the twindragon system: radix -1+i, digits 0 and 1
    argv = ["numsys", "--ring", "g", "--radix=-1,1", "--digits", "0,0 1,0",
            "--check", "--expand", "3,2", "--region", "6"]
    assert cli.main(argv) == 0
    out, err = capsys.readouterr()
    assert (out, err) == (
        "digits 2  norm 2  complete-residue-system yes\n"
        "3+2i = [1+0i 0+0i 0+0i 1+0i] (least significant first)\n"
        "64 points at depth 6\n", "")


RADIX3_DIGITS = "0,0 1,-1 -1,1 0,2 0,-2 1,3 -1,-3 2,2 -2,-2"


def test_numsys_eisenstein_golden(capsys, tmp_path):
    # pinned from the two-coordinate LatticeElem arithmetic
    argv = ["numsys", "--ring", "e", "--radix=-1,3",
            "--digits", "0,0 0,1 0,-1 -1,1 1,-1 -2,2 1,1",
            "--check", "--expand", "1,0", "--region", "3"]
    assert cli.main(argv) == 0
    out, err = capsys.readouterr()
    assert (out, err) == (
        "digits 7  norm 7  complete-residue-system yes\n"
        "1+0w = [-2+2w 0-1w] (least significant first)\n"
        "343 points at depth 3\n", "")
    svg = tmp_path / "e.svg"
    argv = ["numsys", "--ring", "e", "--radix=-2,0", "--digits", "0,0 1,0 0,1 1,1",
            "--region", "3", "--svg", str(svg)]
    assert cli.main(argv) == 0
    assert capsys.readouterr() == ("64 points at depth 3\n", "")
    assert hashlib.sha256(svg.read_bytes()).hexdigest() == (
        "6639db1a3e77813fd7fdd4765611f36b4c34203b4c69728eefdd1b3268a24404")


def test_numsys_non_residue_golden(capsys):
    argv = ["numsys", "--ring", "g", "--radix=-2,1", "--digits", "0,0 1,0 -1,0 1,-1 -1,1",
            "--check", "--region", "2"]
    assert cli.main(argv) == 0
    out, err = capsys.readouterr()
    assert (out, err) == (
        "digits 5  norm 5  complete-residue-system no\n"
        "congruent digits: 1+0i = -1+1i (mod -2+1i)\n"
        "congruent digits: -1+0i = 1-1i (mod -2+1i)\n"
        "21 points at depth 2\n", "")


def test_numsys_cycle_golden(capsys):
    argv = ["numsys", "--ring", "g", "--radix=3,0", "--digits", RADIX3_DIGITS, "--expand=-1,0"]
    assert cli.main(argv) == 0
    out, err = capsys.readouterr()
    assert (out, err) == ("-1+0i = [-1-3i] then cycles at 0+1i\n", "")


def test_numsys_region_svg_golden(capsys, tmp_path):
    # points on the imaginary axis must print 0.0000, not -0.0000: the
    # plotting embedding is a + b*i, without a float image of i
    svg = tmp_path / "r3.svg"
    argv = ["numsys", "--ring", "g", "--radix=3,0", "--digits", RADIX3_DIGITS,
            "--region", "3", "--svg", str(svg)]
    assert cli.main(argv) == 0
    assert capsys.readouterr() == ("729 points at depth 3\n", "")
    assert hashlib.sha256(svg.read_bytes()).hexdigest() == (
        "6bfee4c93a90fd8f60da69822e4bc52b20b5f374be69aad87b5ed909ba1ba51e")


def test_numsys_zero_radix_expand_is_bad_input(capsys):
    argv = ["numsys", "--ring", "g", "--radix=0,0", "--digits", "0,0 1,0", "--expand", "1,0"]
    assert cli.main(argv) == 1
    assert capsys.readouterr() == ("", "error: norm of the radix must be >= 2\n")


def test_numsys_zero_radix_region_svg_is_bad_input(capsys, tmp_path):
    svg = tmp_path / "f.svg"
    argv = ["numsys", "--ring", "g", "--radix=0,0", "--digits", "0,0 1,0",
            "--region", "2", "--svg", str(svg)]
    assert cli.main(argv) == 1
    assert capsys.readouterr() == ("", "error: norm of the radix must be >= 2\n")
    assert not svg.exists()


def test_transform_drop_golden(capsys):
    # dropping d488-r5's constant letters leaves the printed d-square curve
    argv = ["transform", "--op", "drop", "--input", "catalog:d488-r5",
            "--drop", "Bb", "--target-n", "4"]
    assert cli.main(argv) == 0
    out, err = capsys.readouterr()
    assert (out, err) == ("A |--> A+A0A!A+A\n", "")
    argv = ["transform", "--op", "drop", "--input", "catalog:d488-r5", "--drop", "A"]
    assert cli.main(argv) == 1
    out, err = capsys.readouterr()
    assert (out, err) == ("", "error: letters ['A'] are not constants\n")


@pytest.mark.parametrize("target_n", ["0", "-4"])
def test_transform_drop_target_resolution_below_one(capsys, target_n):
    # 0 used to end in a ZeroDivisionError traceback, -4 in "turn 3 not
    # printable at resolution -4"
    argv = ["transform", "--op", "drop", "--input", "catalog:d488-r5",
            "--drop", "Bb", "--target-n", target_n]
    assert cli.main(argv) == 1
    assert capsys.readouterr() == ("", f"error: --target-n must be >= 1, got {target_n}\n")


@pytest.mark.parametrize("op, argv, why", [
    ("folding", [], "transform --op folding needs --word"),
    ("revcomp", [], "transform --op revcomp needs --word"),
    ("revcomp", ["--word", "A+B", "--relabel", "A"],
     "--relabel expects A:B pairs separated by commas, got 'A'"),
    ("revcomp", ["--word", "A+B", "--relabel", "A:B:C"],
     "--relabel expects A:B pairs separated by commas, got 'A:B:C'"),
    ("drop", ["--drop", "B"], "transform --op drop needs --input"),
    ("embed", [], "transform --op embed needs --word"),
    ("decorate", [], "transform --op decorate needs --word"),
    ("rewrite", ["--rules", "A=B"], "transform --op rewrite needs --word"),
])
def test_transform_missing_or_malformed_argument_is_bad_input(capsys, op, argv, why):
    # each used to end in a traceback, or in "not enough values to unpack"
    assert cli.main(["transform", "--op", op, *argv]) == 1
    assert capsys.readouterr() == ("", f"error: {why}\n")


def test_transform_revcomp_relabels(capsys):
    argv = ["transform", "--op", "revcomp", "--word", "A+B", "--relabel", "A:B,B:A"]
    assert cli.main(argv) == 0
    assert capsys.readouterr() == ("A-B\n", "")


def test_catalog_golden(capsys):
    assert cli.main(["catalog", "show", "ju19"]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert out == (
        "grid 3464 {\n  turn = 12;\n  letters = AB;\n"
        "  transitions = A---B, A++A, B---A, B++++B\n}\n\n"
        "curveset ju19 on 3464 {\n"
        "  A |--> A++A++A++A---B---A---B++++B++++B---A++A++A++A---B---A---B++++B"
        "---A---B++++B---A---B++++B++++B---A\n"
        "  B |--> B---A++A++A---B++++B++++B---A---B---A++A---B++++B\n}\n"
    )
    assert cli.main(["catalog", "list"]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "023c5f278726dd403d82ecb6a5e898419353cc9d9ba32b6a6d6e9b7cdf6622f4")
