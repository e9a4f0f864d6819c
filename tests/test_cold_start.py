"""The CLI starts without scipy.

Only the facet and box LPs and the null spaces use scipy, and they import
it where they are called; the Halton sweeps are drawn without it.  Each test
runs the CLI in a fresh interpreter, so modules loaded by other tests do not
count.
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import pwlkit
from pwlkit.cli import main
from pwlkit.formats import save_model
from pwlkit.network import init_params, network_from_sizes

SRC = os.path.dirname(os.path.dirname(os.path.abspath(pwlkit.__file__)))

# runs each argv list through cli.main; prints exit codes, stdout and the
# scipy modules loaded by then
SCRIPT = """
import contextlib, io, json, sys
from pwlkit.cli import main
out = io.StringIO()
with contextlib.redirect_stdout(out):
    codes = [main(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps({"codes": codes, "stdout": out.getvalue(),
                  "scipy": sorted(m for m in sys.modules if m.startswith("scipy"))}))
"""


def python(*args):
    """stdout of a fresh interpreter run with this package on its path."""
    done = subprocess.run([sys.executable, *args], env=dict(os.environ, PYTHONPATH=SRC),
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout


def fresh(*argvs):
    argvs = [[str(a) for a in argv] for argv in argvs]
    return json.loads(python("-c", SCRIPT, json.dumps(argvs)).splitlines()[-1])


@pytest.mark.parametrize("module", ["pwlkit", "pwlkit.cli"])
def test_import_loads_no_scipy(module):
    code = (f"import sys, {module}; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    assert python("-c", code).strip() == "[]"


@pytest.fixture
def files(tmp_path):
    x = np.linspace(-1.0, 1.0, 41)
    data = tmp_path / "data.csv"
    data.write_text("x,y\n" + "".join(f"{a!r},{abs(a)!r}\n" for a in x.tolist()))
    points = tmp_path / "points.csv"
    points.write_text("x1,x2\n0.0,0.5\n-0.25,1.0\n")
    net = tmp_path / "net.txt"
    network = network_from_sizes([2, 4, 1])
    init_params(network, seed=3)
    save_model(network, net)
    return {"dir": tmp_path, "data": data, "points": points, "net": net}


def test_analysis_free_commands_load_no_scipy(files):
    d = files["dir"]
    result = fresh(
        ["fit", "--data", files["data"], "--kind", "hh", "--out", d / "hh.txt",
         "--trace", d / "trace.csv", "--max-terms", 2, "--seed", 0],
        ["fit", "--data", files["data"], "--kind", "dnn", "--out", d / "dnn.txt",
         "--hidden", 4, "--epochs", 3, "--seed", 0],
        ["eval", "--model", files["net"], "--points", files["points"]],
        ["eval", "--model", d / "hh.txt", "--grid=-1:1:0.5"],
        ["regions", "--model", files["net"], "--box=-1:1,-1:1"],
        ["trace-export", "--trace", d / "trace.csv"],
    )
    assert result["codes"] == [0] * 6
    assert result["scipy"] == []


def test_analysis_commands_load_scipy_when_called(files, capsys, tent_corrected,
                                                  plateau2d):
    d = files["dir"]
    save_model(tent_corrected, d / "tent.txt")
    save_model(plateau2d, d / "plateau.txt")
    argvs = [
        ["validate", "--model", d / "plateau.txt"],
        ["convert", "--model", d / "tent.txt", "--to", "lattice",
         "--out", d / "lattice.txt"],
        ["equiv", "--model-a", d / "tent.txt", "--model-b", d / "lattice.txt",
         "--box=0:5"],
    ]
    result = fresh(*argvs)
    assert result["codes"] == [0, 0, 0]
    assert "scipy.optimize" in result["scipy"]
    assert not [m for m in result["scipy"] if m.startswith("scipy.stats")]

    codes = [main([str(a) for a in argv]) for argv in argvs]
    assert codes == [0, 0, 0]
    assert result["stdout"] == capsys.readouterr().out


def test_equiv_loads_no_scipy(files, capsys, plateau2d_nested, plateau2d_ghh,
                              zigzag_cplr, tent_corrected):
    d = files["dir"]
    save_model(plateau2d_nested, d / "nested.txt")
    save_model(plateau2d_ghh, d / "ghh.txt")
    save_model(zigzag_cplr, d / "cplr.txt")
    save_model(tent_corrected, d / "tent.txt")
    argvs = [
        ["equiv", "--model-a", d / "nested.txt", "--model-b", d / "ghh.txt",
         "--box=0:1,0:1"],
        ["equiv", "--model-a", d / "cplr.txt", "--model-b", d / "cplr.txt",
         "--box=-3:3"],
        ["equiv", "--model-a", d / "tent.txt", "--model-b", d / "tent.txt",
         "--box=0:5"],
    ]
    result = fresh(*argvs)
    assert result["codes"] == [0, 0, 0]
    assert result["scipy"] == []

    codes = [main([str(a) for a in argv]) for argv in argvs]
    assert codes == [0, 0, 0]
    assert result["stdout"] == capsys.readouterr().out
    assert "sample-count: 1601" in result["stdout"]    # 33² grid + 512 Halton points
