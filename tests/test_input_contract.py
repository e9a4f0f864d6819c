"""Malformed model files and oversized grids end in contract exit codes, and
maxout groups of any size evaluate the right slot."""

import tracemalloc

import numpy as np
import pytest

from pwlkit.cli import MAX_GRID_POINTS, UsageError, _parse_grid, main
from pwlkit.formats import ParseError, deserialize, save_model, serialize
from pwlkit.network import Layer, Maxout, PwlNetwork, network_from_sizes


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
