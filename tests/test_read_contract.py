"""Every input file the CLI reads ends in exit 2 with its own stderr prefix
when it is missing, not UTF-8 text, over the csv field limit or malformed,
and model files reject constructor errors and non-finite numbers."""

import numpy as np
import pytest

from pwlkit.cli import main
from pwlkit.formats import save_model, serialize
from pwlkit.models import HingeModel
from pwlkit.network import network_from_sizes


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def hinge_file(tmp_path):
    path = tmp_path / "hh.txt"
    save_model(HingeModel([1.0], 0.2, [(1.5, [1.0], -0.3)]), path)
    return path


@pytest.fixture
def data_csv(tmp_path):
    x = np.linspace(-1.0, 1.0, 20).tolist()
    path = tmp_path / "data.csv"
    path.write_text("x,y\n" + "".join(f"{a!r},{abs(a)!r}\n" for a in x))
    return path


# ---------------------------------------------------------------------------
# unreadable input files
# ---------------------------------------------------------------------------

def _argv(flag, bad, tmp_path, hinge_file, data_csv):
    out = tmp_path / "out.txt"
    return {
        "--model": ["eval", "--model", bad, "--grid", "0:1:0.5"],
        "--data": ["fit", "--data", bad, "--kind", "hh", "--out", out],
        "--points": ["eval", "--model", hinge_file, "--points", bad],
        "--trace": ["trace-export", "--trace", bad],
        "--config": ["fit", "--data", data_csv, "--kind", "hh", "--out", out,
                     "--config", bad],
    }[flag]


PREFIX = {"--model": "cannot load model: ", "--data": "cannot read dataset: ",
          "--points": "cannot read points: ", "--trace": "cannot read trace: ",
          "--config": "cannot read config: "}

CONTENT = {
    "missing": None,
    "not-utf8": b"x,y\n\xff\xfe,1\n",
    # one field over the csv module's 131072-byte limit; the points case is
    # in test_cli_input_checks
    "huge-field": b"x,y\n1," + b"2" * 200000 + b"\n",
}

CASES = [(flag, case) for flag in PREFIX for case in ("missing", "not-utf8")] + [
    (flag, "huge-field") for flag in ("--data", "--trace")]


@pytest.mark.parametrize("flag,case", CASES)
def test_unreadable_input_exits_2(capsys, tmp_path, hinge_file, data_csv, flag, case):
    bad = tmp_path / f"bad-{case}"
    if CONTENT[case] is not None:
        bad.write_bytes(CONTENT[case])
    code, out, err = run(capsys, *_argv(flag, bad, tmp_path, hinge_file, data_csv))
    assert code == 2
    assert out == ""
    assert err.startswith(PREFIX[flag]) and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("text,message", [
    ("x,y\n0,0\n0.5\n", "row 3 has 1 values, the first has 2"),
    ("x,y\n0,0\n\n0.5,abc\n", "row 4, column 2: not a number: 'abc'"),
])
def test_bad_dataset_row_exits_2_naming_the_row(capsys, tmp_path, text, message):
    data = tmp_path / "data.csv"
    data.write_text(text)
    code, out, err = run(capsys, "fit", "--data", data, "--kind", "hh",
                         "--out", tmp_path / "m.txt")
    assert code == 2
    assert out == ""
    assert err == f"cannot read dataset: {message}\n"


# ---------------------------------------------------------------------------
# model files with values no model can take
# ---------------------------------------------------------------------------

REFUSED = {
    "cplr-eta": "pwl-cplr v1 dim=1 terms=1\naffine: alpha=1.0 beta=0.0\n"
                "term: eta=3 alpha=1.0 beta=0.0\n",
    "hh-1d-alpha-under-2d": "pwl-hh v1 dim=2 hinges=1\naffine: alpha=1.0,0.0 beta=0.0\n"
                            "hinge: w=1.0 alpha=1.0 beta=0.0\n",
    "sbf-negative-gamma": "pwl-sbf v1 dim=1 bases=1\nbasis: w=1.0 gamma=-1.0 zeta=0.0\n",
    "hlcplr-zero-interval": "pwl-hlcplr v1 dim=1 interval=0.0 coords=0\n",
    "ghh-no-terms": "pwl-ghh v1 dim=1 terms=0\n",
    "dc-ragged-rows": "pwl-dc v1 dim=1 plus=1 minus=1\np: J=1.0 b=0.0\n"
                      "m: J=1.0,2.0 b=0.0\n",
    "conventional-2d-piece": "pwl-conventional v1 dim=1 pieces=1\nJ=1.0,2.0 b=0.0\n"
                             "H: normal=1.0 offset=0.0 closed=1\n",
    "lattice-bad-index": "pwl-lattice v1 dim=1 affines=1 sets=1\n"
                         "a: J=1.0 b=0.0\nS: 0,x\n",
    "lattice-index-out-of-range": "pwl-lattice v1 dim=1 affines=1 sets=1\n"
                                  "a: J=1.0 b=0.0\nS: 5\n",
}


@pytest.mark.parametrize("name", sorted(REFUSED))
def test_model_a_constructor_refuses_exits_2(capsys, tmp_path, name):
    path = tmp_path / f"{name}.txt"
    path.write_text(REFUSED[name])
    code, out, err = run(capsys, "eval", "--model", path, "--grid", "0:1:0.5")
    assert code == 2
    assert out == ""
    assert err.startswith("cannot load model: ") and "(line " in err


NON_FINITE = ("pwl-hh v1 dim=1 hinges=1\naffine: alpha={} beta={}\n"
              "hinge: w={} alpha=1.0 beta=0.0\n")


@pytest.mark.parametrize("values,line", [(("nan", "0.0", "1.0"), 2),
                                         (("1.0", "-inf", "1.0"), 2),
                                         (("1.0", "0.0", "inf"), 3)])
def test_non_finite_model_number_exits_2(capsys, tmp_path, values, line):
    path = tmp_path / "hh.txt"
    path.write_text(NON_FINITE.format(*values))
    code, out, err = run(capsys, "eval", "--model", path, "--grid", "0:1:0.5")
    assert code == 2
    assert out == ""
    assert err.startswith("cannot load model: bad float") and f"(line {line}, " in err


# ---------------------------------------------------------------------------
# model headers that disagree with their data
# ---------------------------------------------------------------------------

HEADER_MISMATCH = {
    "dc-dim-3-over-2d-rows": (
        "pwl-dc v1 dim=3 plus=1 minus=1\np: J=1.0,2.0 b=0.0\nm: J=0.0,0.0 b=0.0\n",
        "header has dim=3, the model's data has dimension 2 (line 1)"),
    "hh-dim-2-over-1d-vectors": (
        "pwl-hh v1 dim=2 hinges=1\naffine: alpha=1.0 beta=0.0\n"
        "hinge: w=1.0 alpha=1.0 beta=0.0\n",
        "header has dim=2, the model's data has dimension 1 (line 1)"),
    "sbf-negative-bases": ("pwl-sbf v1 dim=1 bases=-3\n",
                           "bad count '-3' (line 1, column 24)"),
    "dc-p-rows-of-two-widths": (
        "pwl-dc v1 dim=2 plus=2 minus=1\np: J=1.0,2.0 b=0.0\np: J=1.0 b=0.0\n"
        "m: J=0.0,0.0 b=0.0\n",
        "J has 1 values, the first row has 2 (line 3, column 6)"),
    "dc-m-row-wider-than-p": (
        "pwl-dc v1 dim=1 plus=1 minus=1\np: J=1.0 b=0.0\nm: J=1.0,2.0 b=0.0\n",
        "J has 2 values, the first row has 1 (line 3, column 6)"),
    "dc-no-rows": ("pwl-dc v1 plus=0 minus=0\n",
                   "bad model: both sides need at least one affine row (line 1)"),
    "dc-no-minus-rows": ("pwl-dc v1 dim=2 plus=1 minus=0\np: J=1.0,2.0 b=0.0\n",
                         "bad model: both sides need at least one affine row (line 2)"),
    "dc-no-plus-rows": ("pwl-dc v1 dim=2 plus=0 minus=1\nm: J=1.0,2.0 b=0.0\n",
                        "bad model: both sides need at least one affine row (line 2)"),
    "net-inputs-3-over-2-columns": (
        serialize(network_from_sizes([2, 2, 1], "relu")).replace("inputs=2", "inputs=3"),
        "header has inputs=3, the model's data has dimension 2 (line 1)"),
}


@pytest.mark.parametrize("name", sorted(HEADER_MISMATCH))
def test_header_that_disagrees_with_the_data_exits_2(capsys, tmp_path, name):
    text, message = HEADER_MISMATCH[name]
    path = tmp_path / f"{name}.txt"
    path.write_text(text)
    code, out, err = run(capsys, "eval", "--model", path, "--grid", "0:1:0.5")
    assert code == 2
    assert out == ""
    assert err == f"cannot load model: {message}\n"


# ---------------------------------------------------------------------------
# a field followed by records is parsed before them
# ---------------------------------------------------------------------------

EARLY_FIELD = {
    "ahh-intercept": ("pwl-ahh v1 dim=2 intercept=abc bases=1\nbasis: w=1.0 factors=2\n"
                      "f: delta=1 var=0 knot=0.0\nf: delta=-1 var=1 knot=0.5\n", 1, 28),
    "ahh-basis-w": ("pwl-ahh v1 dim=2 intercept=0.0 bases=1\nbasis: w=abc factors=2\n"
                    "f: delta=1 var=0 knot=0.0\nf: delta=-1 var=1 knot=0.5\n", 2, 10),
    "ghh-term-w": ("pwl-ghh v1 dim=1 terms=1\nterm: w=abc affines=2\na: J=1.0 b=0.0\n"
                   "a: J=-1.0 b=0.0\n", 2, 9),
    "hlcplr-interval": ("pwl-hlcplr v1 dim=2 interval=abc coords=2\nc: axis=0 knot=1\n"
                        "c: axis=1 knot=2\n", 1, 30),
}


@pytest.mark.parametrize("name", sorted(EARLY_FIELD))
def test_bad_field_before_its_records_names_its_own_line(capsys, tmp_path, name):
    text, line, column = EARLY_FIELD[name]
    path = tmp_path / f"{name}.txt"
    path.write_text(text)
    code, out, err = run(capsys, "eval", "--model", path, "--grid", "0:1:0.5")
    assert (code, out) == (2, "")
    assert err == f"cannot load model: bad float 'abc' (line {line}, column {column})\n"
