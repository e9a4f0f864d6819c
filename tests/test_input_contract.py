"""Malformed model files and oversized grids end in contract exit codes,
maxout groups of any size evaluate the right slot, and the library refuses
boxes and grid densities it cannot analyse."""

import re
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from pwlkit.cli import MAX_GRID_POINTS, UsageError, _parse_grid, main
from pwlkit.errors import InvalidInputError, PwlError
from pwlkit.formats import ParseError, deserialize, save_model, serialize
from pwlkit.network import (
    Layer,
    Maxout,
    PwlNetwork,
    count_regions,
    init_params,
    network_from_sizes,
)
from pwlkit.transforms import check_equivalence


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


MAXOUT_NET = serialize(network_from_sizes([1, 2, 1], "maxout"))

BROKEN = {
    # hh record without beta=
    "hh-missing-beta": ("pwl-hh v1 dim=1 hinges=0\naffine: alpha=1.0\n",
                        "missing field beta= (line 2)"),
    # bare token on a conventional piece line
    "conventional-bare-token": (
        "pwl-conventional v1 dim=1 pieces=1\nJ=1.0 b=0.0 junk\n"
        "H: normal=1.0 offset=0.0 closed=1\n",
        "malformed field 'junk' (line 2, column 13)"),
    # maxout layer with group size 0
    "maxout-k0": (MAXOUT_NET.replace(" k=2", " k=0", 1),
                  "maxout group size must be at least 1 (line 2"),
}


@pytest.mark.parametrize("name", sorted(BROKEN))
def test_malformed_model_is_a_parse_error_with_a_line(name):
    text, message = BROKEN[name]
    with pytest.raises(ParseError) as err:
        deserialize(text)
    assert message in str(err.value)
    assert err.value.line == 2


@pytest.mark.parametrize("name", sorted(BROKEN))
@pytest.mark.parametrize("command", ["eval", "validate", "convert"])
def test_malformed_model_exits_2(capsys, tmp_path, name, command):
    text, message = BROKEN[name]
    path = tmp_path / f"{name}.txt"
    path.write_text(text)
    extra = {"eval": ["--grid", "0:1:0.5"], "validate": [],
             "convert": ["--to", "dc", "--out", tmp_path / "out.txt"]}[command]
    code, out, err = run(capsys, command, "--model", path, *extra)
    assert code == 2
    assert out == ""
    assert err.startswith("cannot load model: ") and message in err


def test_missing_header_field_names_line_1():
    with pytest.raises(ParseError) as err:
        deserialize("pwl-hlcplr v1 interval=0.5 coords=0\n")
    assert str(err.value) == "missing field dim= (line 1)"


def test_wide_maxout_group_selects_its_argmax_slot():
    # 200 slots: slot 150 wins with bias 1, every other slot is 0
    bias = np.zeros(200)
    bias[150] = 1.0
    act = Maxout(1, k=200)
    net = PwlNetwork([Layer(np.zeros((200, 1)), bias, act), Layer([[1.0]], [0.0])])
    assert net.values(np.array([[0.0]])).tolist() == [1.0]
    assert act.pattern(bias[None, :]).tolist() == [[150]]


def test_wide_maxout_round_trips_through_the_cli(capsys, tmp_path):
    bias = np.zeros(200)
    bias[150] = 1.0
    net = PwlNetwork([Layer(np.zeros((200, 1)), bias, Maxout(1, k=200)),
                      Layer([[1.0]], [0.0])])
    path = tmp_path / "net.txt"
    save_model(net, path)
    code, out, _ = run(capsys, "eval", "--model", path, "--grid", "0:1:1")
    assert code == 0
    assert out == "0.0,1.0\n1.0,1.0\n"


class TestGridCap:
    def test_benchmark_largest_grid_is_accepted(self):
        pts = _parse_grid("-1.0:1.0:0.00625,-1.0:1.0:0.00625")
        assert pts.shape == (103041, 2)
        assert pts[0].tolist() == [-1.0, -1.0] and pts[-1].tolist() == [1.0, 1.0]

    @pytest.mark.parametrize("spec", ["0:1e9:1e-9", "0:10000000:1",
                                      "0:9999:1,0:1000:1", "-1e300:1e300:1e-10"])
    def test_oversized_grid_is_refused_before_allocating(self, spec):
        tracemalloc.start()
        try:
            with pytest.raises(UsageError, match=f"points, the limit is {MAX_GRID_POINTS}"):
                _parse_grid(spec)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize("spec", ["0:1", "0:1:x", "0:nan:0.1", "0:inf:0.1",
                                      "1:0:0.1", "0:1:0", "-inf:0:1",
                                      "-1e308:1e308:1"])
    def test_malformed_grid_is_a_usage_error(self, spec):
        with pytest.raises(UsageError):
            _parse_grid(spec)

    def test_cli_exits_64(self, capsys, tmp_path):
        path = tmp_path / "net.txt"
        path.write_text(MAXOUT_NET)
        code, out, err = run(capsys, "eval", "--model", path, "--grid", "0:1e9:1e-9")
        assert code == 64
        assert out == ""
        assert err == "usage error: grid has 1e+18 points, the limit is 10000000\n"


# ---------------------------------------------------------------------------
# Degenerate halfspaces and coverage gaps in the committed fixtures
# ---------------------------------------------------------------------------

DATA = Path(__file__).parent / "data"
TRI8 = (DATA / "tri8.txt").read_text()

# the first normal's Euclidean length underflows to 0 or overflows to inf
DEGENERATE_NORMALS = {"underflow": ("1e-300,1e-300", "0.0"),
                      "overflow": ("1e308,1e308", "inf")}

COMMANDS = {
    "eval": lambda path, out: ["eval", "--model", path, "--grid", "0:1:0.5,0:1:0.5"],
    "validate": lambda path, out: ["validate", "--model", path],
    "convert": lambda path, out: ["convert", "--model", path, "--to", "lattice",
                                  "--out", out],
    "equiv": lambda path, out: ["equiv", "--model-a", path, "--model-b", path,
                                "--box=0:1,0:1"],
}


@pytest.mark.parametrize("command", sorted(COMMANDS))
@pytest.mark.parametrize("name", sorted(DEGENERATE_NORMALS))
def test_degenerate_halfspace_normal_exits_2(capsys, tmp_path, name, command):
    normal, length = DEGENERATE_NORMALS[name]
    path = tmp_path / "tri8.txt"
    path.write_text(TRI8.replace("normal=-0.0,1.0", f"normal={normal}", 1))
    code, out, err = run(capsys, *COMMANDS[command](path, tmp_path / "out.txt"))
    assert (code, out) == (2, "")
    assert err == ("cannot load model: bad model: halfspace normal must have a "
                   f"finite, nonzero length (got {length}) (line 3)\n")


def test_coverage_gap_in_a_conversion_exits_2(capsys, tmp_path):
    # both halves of the square's lower-left cell move off the diagonal
    path = tmp_path / "gap.txt"
    path.write_text(TRI8.replace("H: normal=-1.0,1.0 offset=-0.0",
                                 "H: normal=-1.0,1.0 offset=3"))
    for target in ("lattice", "cplr", "dc"):
        code, out, err = run(capsys, "convert", "--model", path, "--to", target,
                             "--out", tmp_path / "out.txt")
        assert (code, out) == (2, "")
        assert err == "conversion failed: no region contains the point [-1.0, -0.9375]\n"
    (tmp_path / "points.csv").write_text("0.5,1.0\n")
    code, out, err = run(capsys, "eval", "--model", path, "--points",
                         tmp_path / "points.csv")
    assert (code, out) == (2, "")
    assert err == "evaluation failed: no region contains the point [0.5, 1.0]\n"


def test_equivalence_box_beyond_the_regions_exits_2(capsys, tmp_path, tent_corrected):
    path = tmp_path / "tent.txt"
    save_model(tent_corrected, path)
    code, out, err = run(capsys, "convert", "--model", path, "--to", "cplr",
                         "--out", tmp_path / "out.txt", "--box=-1:6")
    assert (code, out) == (2, "")
    assert err == "conversion failed: no region contains the point [-1.0]\n"


# Finite models whose conversion overflows: the plateau's two leaves scaled to
# 1e308 (its DC rows sum them), and a canonical model whose hinge rewrite
# subtracts 1e308 from -1e308
OVERFLOWING = {
    "dc": (DATA / "plateau-nested.txt").read_text().replace("alpha=1.0,-1.0",
                                                            "alpha=1e308,-1.0"),
    "ghh": (DATA / "plateau-nested.txt").read_text().replace("alpha=1.0,-1.0",
                                                             "alpha=1e308,-1.0"),
    "hh": "pwl-cplr v1 dim=1 terms=1\naffine: alpha=-1e308 beta=0.0\n"
          "term: eta=1 alpha=1e308 beta=0.0\n",
}


@pytest.mark.parametrize("target", sorted(OVERFLOWING))
def test_conversion_that_overflows_exits_2_and_writes_nothing(capsys, tmp_path, target):
    path = tmp_path / "model.txt"
    path.write_text(OVERFLOWING[target])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "convert", "--model", path, "--to", target,
                             "--out", tmp_path / "out.txt")
    assert (code, out) == (2, "")
    assert err == (f"conversion failed: the {target} form has coefficients that are "
                   "not finite; the model's coefficients are too large\n")
    assert not (tmp_path / "out.txt").exists()


def test_eval_of_values_that_overflow_exits_2(capsys, tmp_path):
    path = tmp_path / "model.txt"
    path.write_text(OVERFLOWING["dc"])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "eval", "--model", path, "--grid=-1:1:1,-1:1:1")
    assert (code, out) == (2, "")
    assert err == ("evaluation failed: the model's value is not finite at the point "
                   "[-1.0, -1.0]\n")


def test_equiv_of_values_that_overflow_exits_2(capsys, tmp_path):
    path = tmp_path / "model.txt"
    path.write_text(OVERFLOWING["dc"])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "equiv", "--model-a", path, "--model-b", path,
                             "--box=-1:1,-1:1")
    assert (code, out) == (2, "")
    assert err == ("evaluation failed: the first model's value is not finite at the "
                   "point [-1.0, -1.0]\n")


def test_conversion_whose_values_overflow_exits_2(capsys, tmp_path):
    # finite coefficients, and a finite DC form, but 1e308 x1 + 1e308 x2
    # overflows at the grid's corners
    path = tmp_path / "model.txt"
    path.write_text("pwl-hh v1 dim=2 hinges=1\naffine: alpha=1e+308,1e+308 beta=0.0\n"
                    "hinge: w=1.0 alpha=1.0,-1.0 beta=0.0\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "convert", "--model", path, "--to", "dc",
                             "--out", tmp_path / "out.txt")
    assert (code, out) == (2, "")
    assert err == ("conversion failed: the first model's value is not finite at the "
                   "point [-1.0, -1.0]\n")
    assert not (tmp_path / "out.txt").exists()


def test_finite_values_keep_their_bytes(capsys, tmp_path):
    # the same model with its leaves at 1e300: large values, all finite
    path = tmp_path / "model.txt"
    path.write_text(OVERFLOWING["dc"].replace("1e308", "1e300"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, _ = run(capsys, "eval", "--model", path, "--grid=-1:1:1,-1:1:1")
        assert code == 0 and "nan" not in out and "inf" not in out
        assert run(capsys, "equiv", "--model-a", path, "--model-b", path,
                   "--box=-1:1,-1:1")[:2] == (
            0, "max-abs-deviation: 0.0\nargmax-point: -1.0,-1.0\nsample-count: 1601\n"
               "tolerance: 1e-09\nequivalent: yes\n")


def test_equiv_beyond_the_regions_exits_2(capsys):
    tri8 = DATA / "tri8.txt"
    code, out, err = run(capsys, "equiv", "--model-a", tri8, "--model-b", tri8,
                         "--box=-3:1,-1:1")
    assert (code, out) == (2, "")
    assert err == "evaluation failed: no region contains the point [-3.0, -1.0]\n"


# ---------------------------------------------------------------------------
# Seeded mutations of the committed fixtures
# ---------------------------------------------------------------------------

# a float (counts and flags have no point) that is a field's value or
# follows a comma in one
NUMBER = re.compile(r"(?<=[=,])-?[0-9]*\.[0-9]+(?:e[-+]?[0-9]+)?")
EXTREMES = ["0", "-0.0", "0.5", "3", "-1", "1e-12", "1e12", "1e-300", "1e308",
            "-1e308", "nan", "inf"]
CONTRACT_EXITS = {0, 2, 3, 4, 5, 6, 64}


def mutate(text, rng):
    """``text`` with one or two of its floats replaced by extreme numbers."""
    spans = [m.span() for m in NUMBER.finditer(text)]
    picks = rng.choice(len(spans), rng.integers(1, 3), replace=False)
    for k in sorted(picks, reverse=True):
        start, end = spans[k]
        text = text[:start] + str(rng.choice(EXTREMES)) + text[end:]
    return text


@pytest.mark.parametrize("name,dim", [("arr3d", 3), ("plateau-ghh", 2),
                                      ("plateau-nested", 2), ("tri8", 2)])
def test_mutated_fixtures_end_in_contract_exits(capsys, tmp_path, name, dim):
    rng = np.random.default_rng(14)
    text = (DATA / f"{name}.txt").read_text()
    grid = "--grid=" + ",".join(["-1:1:0.5"] * dim)
    for k in range(24):
        path = tmp_path / "model.txt"
        path.write_text(mutate(text, rng))
        argv = [["eval", "--model", path, grid],
                ["validate", "--model", path],
                ["convert", "--model", path, "--to", str(rng.choice(("lattice", "cplr",
                                                                     "dc", "hh"))),
                 "--out", tmp_path / "out.txt"]][k % 3]
        try:
            code, _, err = run(capsys, *argv)
        except Exception as e:       # any exception breaks the exit-code contract
            pytest.fail(f"{argv[0]} raised {e!r} on\n{path.read_text()}")
        assert code in CONTRACT_EXITS, (argv, err)
        assert "Traceback" not in err


def test_mutated_arrangement_warns_nothing(capsys, tmp_path):
    # a -1e308 Jacobian entry once overflowed the norm of a facet's jump
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        test_mutated_fixtures_end_in_contract_exits(capsys, tmp_path, "arr3d", 3)


# ---------------------------------------------------------------------------
# Boxes and grid densities in the library
# ---------------------------------------------------------------------------

BAD_BOXES = {
    "reversed": ([1.0, 1.0], [-1.0, -1.0]),
    "one-axis-flat": ([-1.0, 0.5], [1.0, 0.5]),
    "nan-lower-bound": ([np.nan, -1.0], [1.0, 1.0]),
    "inf-upper-bound": ([-1.0, -1.0], [1.0, np.inf]),
    "wrong-dimension": ([-1.0, -1.0, -1.0], [1.0, 1.0, 1.0]),
    "not-a-pair": ([-1.0, -1.0],),
    "not-numbers": (["a", "b"], [1.0, 1.0]),
}


def small_relu_net():
    net = network_from_sizes([2, 8, 1], "relu")
    init_params(net, seed=1)
    net.layers[0].bias[...] = np.random.default_rng(1).uniform(-0.5, 0.5, 8)
    return net


@pytest.mark.parametrize("method", ["grid-probe", "pattern-enumeration"])
@pytest.mark.parametrize("name", sorted(BAD_BOXES))
def test_count_regions_refuses_a_bad_box(name, method):
    with pytest.raises(InvalidInputError) as info:
        count_regions(small_relu_net(), BAD_BOXES[name], method=method)
    assert isinstance(info.value, PwlError) and isinstance(info.value, ValueError)


@pytest.mark.parametrize("density", [0, -3, np.nan])
def test_count_regions_refuses_a_grid_density_below_1(density):
    for method in ("grid-probe", "pattern-enumeration"):
        with pytest.raises(InvalidInputError, match="grid density"):
            count_regions(small_relu_net(), ([-1.0, -1.0], [1.0, 1.0]), method=method,
                          grid_density=density)


@pytest.mark.parametrize("name", sorted(BAD_BOXES))
def test_check_equivalence_refuses_a_bad_box(name):
    net = small_relu_net()
    with pytest.raises(InvalidInputError):
        check_equivalence(net, net, BAD_BOXES[name])


def test_good_boxes_of_lists_arrays_and_scalars_are_accepted():
    net = small_relu_net()
    listed = count_regions(net, ([-1.0, -1.0], [1.0, 1.0]))
    arrays = count_regions(net, (np.full(2, -1.0), np.full(2, 1.0)))
    assert listed.count == arrays.count > 1
    assert check_equivalence(net, net, ([-1.0, -1.0], [1.0, 1.0])).equivalent
    line = network_from_sizes([1, 3, 1], "relu")
    init_params(line, seed=0)
    assert count_regions(line, (-1.0, 1.0)).count >= 1
