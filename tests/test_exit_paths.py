"""A conversion that fails its own check, and a nested model nested too deeply,
end in contract exit codes rather than tracebacks."""

import os
import sys

import numpy as np
import pytest

from pwlkit import ConstructionError, CoverageGapError, DcSizeError, PwlError
from pwlkit.affine import grid_points
from pwlkit.cli import EXIT_BUDGET, EXIT_INPUT, EXIT_OK, EXIT_VIOLATIONS, main
from pwlkit.formats import MAX_NEST_DEPTH, deserialize, load_model
from pwlkit.transforms import DC_SIZE_CAP, dc_from_model, lattice_from_conventional

# a continuous model on [-1, 1]^2: random heights on a 2x2 grid, each square
# cut into two triangles along its diagonal
TRI8 = os.path.join(os.path.dirname(__file__), "data", "tri8.txt")
# four planes cut 15 cells from [-1, 1]^3, but the model lists 14: the cell
# x1 < 1/8, x2 + x3 < 0, x1 - x2 + 2 x3 > -1/4, 2 x1 + x2 - x3 > 3/8, of
# inscribed radius 0.017 about HOLE, is missing
ARR3D = os.path.join(os.path.dirname(__file__), "data", "arr3d.txt")
HOLE = [0.1077, 0.0888, -0.1133]


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_arrangement_fixture_has_a_hole():
    with pytest.raises(CoverageGapError):
        load_model(ARR3D).values([HOLE])


def test_lattice_of_a_model_with_a_hole_fails_its_check():
    with pytest.raises(ConstructionError, match="lattice construction failed"):
        lattice_from_conventional(load_model(ARR3D))
    assert issubclass(ConstructionError, PwlError)


def test_failed_lattice_check_exits_5(capsys, tmp_path):
    out = tmp_path / "lattice.txt"
    code, stdout, err = run(capsys, "convert", "--model", ARR3D, "--to", "lattice",
                            "--out", out)
    assert code == EXIT_VIOLATIONS
    assert stdout == ""
    assert err.startswith("conversion failed: lattice construction failed "
                          "verification: max deviation ")
    assert not out.exists()


def test_lattice_of_triangulation_is_exact(capsys, tmp_path):
    out = tmp_path / "lattice.txt"
    code, stdout, err = run(capsys, "convert", "--model", TRI8, "--to", "lattice",
                            "--out", out)
    assert (code, err) == (EXIT_OK, "")
    assert "max-deviation: " in stdout
    model = load_model(TRI8)
    pts = grid_points(*model.domain_box(), 801)
    assert np.max(np.abs(load_model(out).values(pts) - model.values(pts))) <= 1e-9


@pytest.mark.parametrize("target", ["dc", "ghh"])
def test_triangulation_lowering_stops_at_the_dc_cap(capsys, tmp_path, target):
    out = tmp_path / "out.txt"
    code, stdout, err = run(capsys, "convert", "--model", TRI8, "--to", target,
                            "--out", out)
    assert (code, stdout) == (EXIT_BUDGET, "")
    assert err == f"difference-of-convex affine set grew to 5238 rows, cap is {DC_SIZE_CAP}\n"
    assert not out.exists()


def nested_text(depth):
    """A one-variable ``pwl-nested`` chain whose deepest node is ``depth``
    levels below the root."""
    lines = ["pwl-nested v1 dim=1"]
    for _ in range(depth):
        lines += ["node: alpha=1.0 beta=0.0 children=1", "child: coeff=0.5"]
    lines.append("node: alpha=1.0 beta=-0.25 children=0")
    return "\n".join(lines) + "\n"


def test_nesting_at_the_limit_loads_and_evaluates(capsys, tmp_path):
    path = tmp_path / "deep.txt"
    path.write_text(nested_text(MAX_NEST_DEPTH))
    assert load_model(path).level == MAX_NEST_DEPTH
    code, out, _ = run(capsys, "eval", "--model", path, "--grid", "0:1:0.5")
    assert code == EXIT_OK
    assert len(out.splitlines()) == 3


@pytest.mark.parametrize("depth", [MAX_NEST_DEPTH + 1, 3000])
def test_nesting_past_the_limit_exits_2(capsys, tmp_path, depth):
    path = tmp_path / "deep.txt"
    path.write_text(nested_text(depth))
    code, out, err = run(capsys, "eval", "--model", path, "--grid", "0:1:0.5")
    assert code == EXIT_INPUT
    assert out == ""
    # the first node past the limit is named by its line
    line = 2 + 2 * (MAX_NEST_DEPTH + 1)
    assert err == (f"cannot load model: nesting deeper than {MAX_NEST_DEPTH} "
                   f"levels (line {line})\n")


def test_limit_leaves_room_for_the_recursive_walks():
    # parsing, sorting, evaluation and DC lowering recurse one or two frames
    # per level; a model at the limit fits in 3 frames per level
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 3 * MAX_NEST_DEPTH + 50)
    try:
        model = deserialize(nested_text(MAX_NEST_DEPTH))
        values = model.values(np.array([[0.0], [1.0]]))
        try:
            dc_from_model(model)
        except DcSizeError:     # the rows outgrow the cap on the way back up
            pass
    finally:
        sys.setrecursionlimit(limit)
    assert model.level == MAX_NEST_DEPTH
    assert np.all(np.isfinite(values))


def _stack_depth():
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth
