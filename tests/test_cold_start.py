"""The CLI starts without scipy, and a command loads only the pwlkit
modules it calls.

The region LPs are solved by a numpy kernel, and the Halton sweeps are
drawn without scipy; only an LP too large for the kernel imports scipy,
where it is solved.  The package's names are imported on first use, and
each command imports the library modules it calls when it runs.  Each test
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
from pwlkit.models import HingeModel
from pwlkit.network import init_params, network_from_sizes

SRC = os.path.dirname(os.path.dirname(os.path.abspath(pwlkit.__file__)))

# runs each argv list through cli.main; prints exit codes, stdout and the
# scipy and pwlkit modules loaded by then
SCRIPT = """
import contextlib, io, json, sys
from pwlkit.cli import main
out = io.StringIO()
with contextlib.redirect_stdout(out):
    codes = [main(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps({"codes": codes, "stdout": out.getvalue(),
                  "scipy": sorted(m for m in sys.modules if m.startswith("scipy")),
                  "pwlkit": sorted(m for m in sys.modules if m.startswith("pwlkit"))}))
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


@pytest.mark.parametrize("module,loaded", [
    ("pwlkit", ["pwlkit"]),
    ("pwlkit.cli", ["pwlkit", "pwlkit.cli", "pwlkit.errors"]),
])
def test_import_loads_only_its_own_modules(module, loaded):
    code = (f"import json, sys, {module}; "
            "print(json.dumps([sorted(m for m in sys.modules if m.startswith('pwlkit')), "
            "'dataclasses' in sys.modules]))")
    assert json.loads(python("-c", code)) == [loaded, False]


# the public names of the package before they were imported on first use
ALL = """ActivationPattern AffineFunction AhhBasis AhhModel BudgetExceededError
ConstructionError ContinuityReport ConventionalPWL CoverageGapError CplrExpr
CplrModel DCForm Dataset DcSizeError DegenerateSplitError DimensionMismatchError
DiscontinuousModelError EquivalenceReport FitConfig FitTrace GhhModel Halfspace
HingeModel HlCplrBasis LatticeModel Layer NestedCplrModel NonFiniteLossError
NotCplrRepresentableError ParseError PwlError PwlNetwork Region SbfModel
SingularSystemError TrainConfig activation_pattern affine affine_zero backward
box_region check_consistent_variation check_continuity check_equivalence
conventional count_regions cplr_from_consistent dc_abs dc_from_affine dc_from_model
dc_max dc_min dc_negate dc_prune dc_scale dc_sum deserialize errors find_hinge
fit_ahh fit_hh fit_sbf formats ghh_from_dc gradient_check init_params
lattice_from_conventional learning least_squares load_model local_affine_map
make_activation masked_forward models network network_from_sizes save_model
serialize train_sgd transforms zaslavsky_bound""".split()

# in a fresh interpreter: the public names of dir(pwlkit) and each name's
# defining module, before and after ``from pwlkit import *``
NAMES_SCRIPT = """
import json, sys, types
import pwlkit
listed = [n for n in dir(pwlkit) if not n.startswith("_")]
star = {}
exec("from pwlkit import *", star)
star.pop("__builtins__")
where = {}
for name in pwlkit.__all__:
    obj = getattr(pwlkit, name)
    if isinstance(obj, types.ModuleType):
        where[name] = [obj.__name__, sys.modules[obj.__name__] is obj]
    else:
        owner = sys.modules[obj.__module__]
        where[name] = [obj.__module__, getattr(owner, name) is obj]
    assert star[name] is obj, name
print(json.dumps({"all": pwlkit.__all__, "dir": listed, "star": sorted(star),
                  "after": [n for n in dir(pwlkit) if not n.startswith("_")],
                  "where": where}))
"""


def test_every_public_name_resolves_to_its_modules_object():
    got = json.loads(python("-c", NAMES_SCRIPT))
    assert got["all"] == got["dir"] == got["star"] == got["after"] == ALL
    for name, (module, same) in got["where"].items():
        assert module.startswith("pwlkit.") and same, name


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


def test_validate_and_convert_load_no_scipy(files, capsys, tent_corrected, plateau2d):
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
    assert result["scipy"] == []

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


# per command: its argv and the library modules it loads besides
# pwlkit, pwlkit.cli and pwlkit.errors
COMMAND_MODULES = {
    "fit-hh": (["fit", "--data", "data.csv", "--kind", "hh", "--out", "out.txt",
                "--max-terms", 2, "--seed", 0],
               ["affine", "formats", "learning", "models"]),
    "fit-dnn": (["fit", "--data", "data.csv", "--kind", "dnn", "--out", "out.txt",
                 "--hidden", 4, "--epochs", 2, "--seed", 0],
                ["affine", "formats", "learning", "models", "network"]),
    "eval-hh": (["eval", "--model", "hh.txt", "--points", "points.csv"],
                ["affine", "formats", "models"]),
    "eval-net": (["eval", "--model", "net.txt", "--grid=-1:1:0.5,0:1:0.5"],
                 ["affine", "formats", "network"]),
    "validate-hh": (["validate", "--model", "hh.txt"], ["affine", "formats", "models"]),
    "validate-tent": (["validate", "--model", "tent.txt"],
                      ["affine", "conventional", "formats", "models"]),
    "convert-hh": (["convert", "--model", "hh.txt", "--to", "dc", "--out", "out.txt"],
                   ["affine", "conventional", "formats", "models", "transforms"]),
    "equiv": (["equiv", "--model-a", "hh.txt", "--model-b", "hh.txt", "--box=-1:1,-1:1"],
              ["affine", "conventional", "formats", "models", "transforms"]),
    "regions": (["regions", "--model", "net.txt", "--box=-1:1,-1:1"],
                ["affine", "formats", "network"]),
    "trace-export": (["trace-export", "--trace", "trace.csv"], ["formats"]),
}


@pytest.mark.parametrize("name", sorted(COMMAND_MODULES))
def test_command_loads_only_the_modules_it_calls(files, tent_corrected, name):
    d = files["dir"]
    save_model(HingeModel([1.0, 0.0], 0.5, [(2.0, [1.0, -1.0], 0.0)]), d / "hh.txt")
    save_model(tent_corrected, d / "tent.txt")
    (d / "trace.csv").write_text("step,loss\n0,1.5\n")
    argv, modules = COMMAND_MODULES[name]
    argv = [d / a if str(a).endswith((".txt", ".csv")) else a for a in argv]
    result = fresh(argv)
    assert result["codes"] == [0]
    assert result["scipy"] == []
    assert result["pwlkit"] == sorted(["pwlkit", "pwlkit.cli", "pwlkit.errors",
                                       *(f"pwlkit.{m}" for m in modules)])
