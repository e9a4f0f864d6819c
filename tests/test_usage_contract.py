"""Bad flags, config values and net-file layer options end in contract exit
codes (64 for usage, 2 for input, 3 for a fit) instead of tracebacks, and
``--box`` and ``--density`` reach the conversions' own checks."""

import tracemalloc
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

from pwlkit.cli import MAX_GRID_POINTS, UsageError, _build_config, _check_density, main
from pwlkit.formats import save_model, serialize
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


@pytest.fixture
def data_csv(tmp_path):
    X = np.random.default_rng(0).uniform(-1, 1, (30, 2))
    path = tmp_path / "data.csv"
    path.write_text("x1,x2,y\n" + "".join(
        f"{a!r},{b!r},{abs(a - b)!r}\n" for a, b in X.tolist()))
    return path


def command(name, hinge_file, net_file, tmp_path):
    if name == "convert-lattice":   # the committed triangulation without its domain
        tri8 = tmp_path / "tri8.txt"
        tri8.write_text((Path(__file__).parent / "data" / "tri8.txt").read_text()
                        .split("domain\n")[0])
        return ["convert", "--model", tri8, "--to", "lattice", "--out", tmp_path / "out.txt"]
    return {"regions": ["regions", "--model", net_file],
            "equiv": ["equiv", "--model-a", hinge_file, "--model-b", hinge_file],
            "convert": ["convert", "--model", hinge_file, "--to", "cplr",
                        "--out", tmp_path / "out.txt"]}[name]


# ---------------------------------------------------------------------------
# --box and --density
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", ["regions", "equiv", "convert", "convert-lattice"])
def test_good_box_is_accepted(capsys, tmp_path, hinge_file, net_file, name):
    argv = command(name, hinge_file, net_file, tmp_path)
    code, _, err = run(capsys, *argv, "--box=-1:1,-1:1")
    assert code == 0, err


@pytest.mark.parametrize("box", ["a:b,0:1", "0:inf,0:1", "0:1,-inf:0", "0:nan,0:1",
                                 "0:1:2,0:1"])
@pytest.mark.parametrize("name", ["regions", "equiv", "convert"])
def test_bad_box_exits_64(capsys, tmp_path, hinge_file, net_file, name, box):
    argv = command(name, hinge_file, net_file, tmp_path)
    code, out, err = run(capsys, *argv, f"--box={box}")
    assert code == 64
    assert out == ""
    assert err.startswith("usage error: bad box component")
    assert not (tmp_path / "out.txt").exists()


@pytest.mark.parametrize("density", [-1, 100000, 3163])
@pytest.mark.parametrize("name", ["equiv", "convert"])
def test_bad_density_exits_64(capsys, tmp_path, hinge_file, net_file, name, density):
    argv = command(name, hinge_file, net_file, tmp_path)
    code, out, err = run(capsys, *argv, "--box=-1:1,-1:1", f"--density={density}")
    assert code == 64
    assert out == ""
    assert err.startswith(f"usage error: --density {density} in 2 dimensions")
    assert not (tmp_path / "out.txt").exists()


@pytest.mark.parametrize("density,dim", [(100000, 2), (10**6, 3), (33, 5)])
def test_oversized_density_is_refused_before_allocating(density, dim):
    assert density ** dim > MAX_GRID_POINTS
    tracemalloc.start()
    try:
        with pytest.raises(UsageError):
            _check_density(density, dim)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("density,dim", [(0, 2), (3162, 2), (33, 4), (10**7, 1)])
def test_density_within_the_cap_is_accepted(density, dim):
    _check_density(density, dim)


# |x1| on [-1, 1]^4: a 33^4 check grid's points alone would take 38 MB
ABS4 = "".join(["pwl-conventional v1 dim=4 pieces=2\n",
                "J=1.0,0.0,0.0,0.0 b=0.0\nH: normal=-1.0,0.0,0.0,0.0 offset=0.0 closed=1\n",
                "J=-1.0,0.0,0.0,0.0 b=0.0\nH: normal=1.0,0.0,0.0,0.0 offset=0.0 closed=1\n",
                "domain\n"] + [f"H: normal={','.join(map(str, row))} offset=-1.0 closed=1\n"
                               for row in np.vstack([np.eye(4), -np.eye(4)]).tolist()])


@pytest.mark.parametrize("target", ["cplr", "dc"])
def test_density_bounds_the_conversion_self_check(capsys, tmp_path, target):
    path = tmp_path / "abs4.txt"
    path.write_text(ABS4)
    argv = ("convert", "--model", path, "--to", target, "--density", 3,
            "--out", tmp_path / "out.txt")
    assert run(capsys, *argv)[0] == 0     # imports every module the conversion uses
    tracemalloc.start()
    try:
        code, _, err = run(capsys, *argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0, err
    assert peak < 16 << 20


# ---------------------------------------------------------------------------
# fit flags and config values
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("rows,split", [(3, "0"), (30, "0.9")])
def test_too_few_hinge_rows_exit_3(capsys, tmp_path, data_csv, rows, split):
    path = tmp_path / "few.csv"
    path.write_text("".join(data_csv.read_text().splitlines(True)[:rows + 1]))
    code, out, err = run(capsys, "fit", "--data", path, "--kind", "hh",
                         "--validation-split", split, "--out", tmp_path / "m.txt")
    assert (code, out) == (3, "")
    assert err == "fit failed: need at least 6 samples for a hinge in dimension 2, got 3\n"
    assert not (tmp_path / "m.txt").exists()


def test_non_numeric_config_value_exits_64(capsys, tmp_path, data_csv):
    config = tmp_path / "fit.cfg"
    config.write_text("max_terms = abc\n")
    code, out, err = run(capsys, "fit", "--data", data_csv, "--kind", "hh",
                         "--out", tmp_path / "m.txt", "--config", config)
    assert code == 64
    assert out == ""
    assert err.startswith("usage error: ") and "'abc'" in err


@pytest.mark.parametrize("word", ["on", "off", "2", "y", "truth", ""])
def test_header_flag_takes_only_boolean_words(capsys, tmp_path, data_csv, word):
    code, out, err = run(capsys, "fit", "--data", data_csv, "--kind", "hh",
                         "--out", tmp_path / "m.txt", "--header", word)
    assert code == 64
    assert out == ""
    assert err == (f"usage error: argument --header: not a boolean: {word!r}, "
                   "want 1/true/yes or 0/false/no\n")


@pytest.mark.parametrize("word", ["1", "TRUE", "Yes"])
def test_header_flag_on_reads_the_header_row(capsys, tmp_path, word):
    path = tmp_path / "data.csv"
    path.write_text("x,y\n" + "".join(f"{k / 8!r},{abs(k / 8)!r}\n" for k in range(-8, 9)))
    code, _, err = run(capsys, "fit", "--data", path, "--kind", "hh",
                       "--out", tmp_path / "m.txt", "--header", word)
    assert code == 0, err


@pytest.mark.parametrize("word", ["0", "False", "NO"])
def test_header_flag_off_reads_the_first_row_as_data(capsys, tmp_path, word):
    path = tmp_path / "data.csv"
    path.write_text("x,y\n0.0,1.0\n")
    code, _, err = run(capsys, "fit", "--data", path, "--kind", "hh",
                       "--out", tmp_path / "m.txt", "--header", word)
    assert code == 2
    assert err == "cannot read dataset: row 1, column 1: not a number: 'x'\n"


@dataclass
class _Switch:
    flag: bool = False


@pytest.mark.parametrize("word,value", [("1", True), ("true", True), ("YES", True),
                                        ("0", False), ("False", False), ("no", False)])
def test_boolean_config_field_takes_boolean_words(word, value):
    assert _build_config(_Switch, {"flag": word}, {}).flag is value


@pytest.mark.parametrize("word", ["on", "off", "2", ""])
def test_boolean_config_field_refuses_other_words(word):
    with pytest.raises(UsageError) as err:
        _build_config(_Switch, {"flag": word}, {})
    assert err.value.code == 64
    assert str(err.value) == (f"usage error: config field flag: not a boolean: {word!r}, "
                              "want 1/true/yes or 0/false/no")


@pytest.mark.parametrize("hidden,message", [("a,b", "bad hidden sizes 'a,b'"),
                                            ("4,0", "hidden sizes must be positive")])
def test_bad_hidden_sizes_exit_64(capsys, tmp_path, data_csv, hidden, message):
    code, out, err = run(capsys, "fit", "--data", data_csv, "--kind", "dnn",
                         "--out", tmp_path / "m.txt", "--hidden", hidden)
    assert code == 64
    assert out == ""
    assert err == f"usage error: argument --hidden: {message}\n"


def test_unknown_activation_exits_64(capsys, tmp_path, data_csv):
    code, out, err = run(capsys, "fit", "--data", data_csv, "--kind", "dnn",
                         "--out", tmp_path / "m.txt", "--activation", "foo")
    assert code == 64
    assert out == ""
    assert err.startswith("usage error: argument --activation: invalid choice: 'foo'")


def test_linear_activation_fits_an_affine_net(capsys, tmp_path, data_csv):
    out_file = tmp_path / "m.txt"
    code, _, err = run(capsys, "fit", "--data", data_csv, "--kind", "dnn",
                       "--out", out_file, "--activation", "linear",
                       "--hidden", "3", "--epochs", "2")
    assert code == 0, err
    assert "layer: out=3 activation=linear" in out_file.read_text()


# ---------------------------------------------------------------------------
# net-file layer options
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("edit,message", [
    ((" k=2", " k=abc"), "bad float 'abc' (line 2, column "),
    ((" k=2", " k=2 foo=1"), "bad layer: "),
    (("activation=maxout k=2", "activation=softsign"),
     "bad layer: unknown activation kind 'softsign'"),
])
def test_bad_layer_option_exits_2(capsys, tmp_path, edit, message):
    text = serialize(network_from_sizes([1, 2, 1], "maxout"))
    assert edit[0] in text
    path = tmp_path / "net.txt"
    path.write_text(text.replace(*edit, 1))
    code, out, err = run(capsys, "eval", "--model", path, "--grid", "0:1:0.5")
    assert code == 2
    assert out == ""
    assert err.startswith("cannot load model: " + message)
    assert "(line 2" in err
