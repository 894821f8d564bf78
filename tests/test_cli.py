"""Golden runs of CLI verbs through cli.main(argv), with catalog inputs."""

import hashlib

from gridcurve import cli


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
