"""Bad points rows, maxout groups that do not divide their layer and empty
boxes end in contract exit codes; the eval writer keeps its exact bytes."""

import numpy as np
import pytest

from pwlkit.cli import main
from pwlkit.formats import ParseError, deserialize, load_model, save_model, serialize
from pwlkit.models import HingeModel
from pwlkit.network import init_params, network_from_sizes


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def hinge_file(tmp_path):
    path = tmp_path / "hh.txt"
    save_model(HingeModel([1.0, -0.5], 0.2, [(1.5, [1.0, 1.0], -0.3)]), path)
    return path


@pytest.fixture
def net_file(tmp_path):
    net = network_from_sizes([2, 3, 1], "relu")
    init_params(net, seed=0)
    path = tmp_path / "net.txt"
    save_model(net, path)
    return path


# ---------------------------------------------------------------------------
# eval --points
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("text,message", [
    ("x1,x2\n0,0\n0.5,abc\n", "row 3, column 2: not a number: 'abc'"),
    ("0,0\n\nx,1\n", "row 3, column 1: not a number: 'x'"),
    ("x1,x2\nx1,x2\n", "row 2, column 1: not a number: 'x1'"),
    ("0,0\n0.5\n", "row 2 has 1 values, the first has 2"),
    ("1," + "2" * 200000 + "\n", "field larger than field limit (131072)"),
])
def test_bad_points_row_exits_2(capsys, tmp_path, hinge_file, text, message):
    points = tmp_path / "points.csv"
    points.write_text(text)
    code, out, err = run(capsys, "eval", "--model", hinge_file, "--points", points)
    assert code == 2
    assert out == ""
    assert err == f"cannot read points: {message}\n"


@pytest.mark.parametrize("text", ["x1,x2\n0.5,-1\n1e-300,-0.0\n", "0.5,-1\n1e-300,-0.0\n",
                                  "\nx1,x2\n0.5,-1\n\n1e-300,-0.0\n"])
def test_header_is_the_first_row_only(capsys, tmp_path, hinge_file, text):
    points = tmp_path / "points.csv"
    points.write_text(text)
    code, out, err = run(capsys, "eval", "--model", hinge_file, "--points", points)
    assert code == 0, err
    assert [line.split(",")[:2] for line in out.splitlines()] == \
        [["0.5", "-1.0"], ["1e-300", "-0.0"]]


def test_eval_writes_the_repr_of_every_float(capsys, tmp_path, hinge_file):
    # the bytes of the per-point writer: repr of each coordinate and value
    X = np.array([[0.1 + 0.2, -0.0], [1e-300, 123456789.0], [2.5, 1 / 3]])
    points = tmp_path / "points.csv"
    points.write_text("".join(f"{a!r},{b!r}\n" for a, b in X.tolist()))
    code, out, _ = run(capsys, "eval", "--model", hinge_file, "--points", points)
    assert code == 0
    values = load_model(hinge_file).values(X)
    want = "".join(",".join(repr(float(c)) for c in x) + "," + repr(float(v)) + "\n"
                   for x, v in zip(X, values))
    assert out == want


# ---------------------------------------------------------------------------
# net-file layers
# ---------------------------------------------------------------------------

MAXOUT_NET = serialize(network_from_sizes([2, 4, 1], "maxout"))


@pytest.mark.parametrize("edit,message", [
    ((" k=2", " k=3"), "maxout group size 3 does not divide out=8 (line 2, column "),
    ((" k=2", " k=2.5"), "maxout group size 2.5 does not divide out=8 (line 2, column "),
    (("b: 0.0,0.0,0.0,0.0,0.0,0.0,0.0,0.0", "b: 0.0,0.0"),
     "bad layer: 8 weight rows vs 2 biases (line 2)"),
])
def test_inconsistent_layer_is_a_parse_error_at_its_line(edit, message):
    assert edit[0] in MAXOUT_NET
    with pytest.raises(ParseError) as err:
        deserialize(MAXOUT_NET.replace(*edit, 1))
    assert message in str(err.value)
    assert err.value.line == 2


def test_maxout_group_not_dividing_out_exits_2(capsys, tmp_path):
    path = tmp_path / "net.txt"
    path.write_text(MAXOUT_NET.replace(" k=2", " k=3", 1))
    code, out, err = run(capsys, "eval", "--model", path, "--grid", "0:1:0.5,0:1:0.5")
    assert code == 2
    assert out == ""
    assert err.startswith("cannot load model: maxout group size 3 does not divide out=8")


# ---------------------------------------------------------------------------
# --box
# ---------------------------------------------------------------------------

def command(name, hinge_file, net_file, tmp_path):
    return {"regions": ["regions", "--model", net_file],
            "equiv": ["equiv", "--model-a", hinge_file, "--model-b", hinge_file],
            "convert": ["convert", "--model", hinge_file, "--to", "cplr",
                        "--out", tmp_path / "out.txt"]}[name]


@pytest.mark.parametrize("box,part", [("1:-1,-1:1", "1:-1"), ("-1:1,0.5:0.5", "0.5:0.5")])
@pytest.mark.parametrize("name", ["regions", "equiv", "convert"])
def test_box_with_lo_not_below_hi_exits_64(capsys, tmp_path, hinge_file, net_file,
                                           name, box, part):
    argv = command(name, hinge_file, net_file, tmp_path)
    code, out, err = run(capsys, *argv, f"--box={box}")
    assert code == 64
    assert out == ""
    assert err == f"usage error: bad box component '{part}', want lo < hi\n"
    assert not (tmp_path / "out.txt").exists()
