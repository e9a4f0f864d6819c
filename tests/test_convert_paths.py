"""Every model kind converted to every ``convert`` target through the CLI.

``cli.CONVERT_PATHS`` declares the paths ``convert`` takes.  Each (kind,
target) pair runs on the pinned models of ``test_format_bytes`` and on
derandomized draws from its strategies in 1-3 dimensions, with and without
``--box``.  An accepted pair exits 0 with a target that matches the source
on fresh Halton points, or ends in a contract exit with one stderr line (a
discontinuous model exits 2; a coefficient of 1e16 or a draw's ±1e6
coefficients can deviate beyond the absolute tolerance, exit 5).  A refused
pair exits 2 naming every path.  No pair ends in a traceback.
"""

import contextlib
import io

import numpy as np
import pytest
from hypothesis import given, settings

from pwlkit import cli
from pwlkit.affine import halton
from pwlkit.formats import _KINDS, deserialize, kind_of, serialize
from test_format_bytes import STRATEGIES, _models

KINDS = sorted(header.removeprefix("pwl-") for header in _KINDS)
PINNED = {}
for _model in _models().values():
    PINNED.setdefault(kind_of(_model).removeprefix("pwl-"), []).append(_model)

REFUSAL = ("supported paths: conventional->lattice, conventional->cplr, hh->cplr, "
           "any->dc, any->ghh, cplr->hh (any: every kind but net)\n")

# exit codes of a contract failure: input, not representable, deviation, budget
CONTRACT_EXITS = (2, 4, 5, 6)


def accepted(kind, target):
    return ((kind, target) in cli.CONVERT_PATHS
            or (kind != "net" and ("any", target) in cli.CONVERT_PATHS))


def convert(tmp_path, model, target, box):
    """Exit code, stdout and stderr of ``convert`` of ``model`` to ``target``."""
    src, out = tmp_path / "model.txt", tmp_path / "out.txt"
    src.write_text(serialize(model))
    argv = ["convert", "--model", str(src), "--to", target, "--out", str(out)]
    if box:
        argv.append("--box=" + ",".join("-1:1" for _ in range(model.dim)))
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(argv)
    return code, stdout.getvalue(), stderr.getvalue()


def check_outcome(tmp_path, model, kind, target, box):
    """Assert the outcome the table asks for; return the exit code."""
    code, out, err = convert(tmp_path, model, target, box)
    if not accepted(kind, target):
        assert (code, out) == (2, "")
        assert err == f"no {kind} to {target} conversion; " + REFUSAL
        return code
    if code != 0:
        assert code in CONTRACT_EXITS, (code, err)
        assert err.endswith("\n") and err.count("\n") == 1, err
        return code
    assert err == ""
    converted = deserialize((tmp_path / "out.txt").read_text())
    assert kind_of(converted) == f"pwl-{target}"
    n = model.dim
    if box or kind != "conventional" or model.domain is None:
        lo, hi = np.full(n, -1.0), np.full(n, 1.0)
    else:
        lo, hi = model.domain_box()
    points = lo + halton(256, n, seed=5) * (hi - lo)
    with np.errstate(all="ignore"):
        deviation = np.max(np.abs(converted.values(points) - model.values(points)))
    assert deviation <= 1e-9, (kind, target, deviation)
    return code


@pytest.mark.parametrize("target", cli.CONVERSIONS)
@pytest.mark.parametrize("kind", KINDS)
def test_every_kind_to_every_target(tmp_path, kind, target):
    codes = [check_outcome(tmp_path, model, kind, target, box)
             for model in PINNED[kind] for box in (False, True)]

    @settings(derandomize=True, max_examples=6, deadline=None, database=None)
    @given(STRATEGIES[kind])
    def drawn(model):
        for box in (False, True):
            codes.append(check_outcome(tmp_path, model, kind, target, box))

    drawn()
    if accepted(kind, target):
        assert 0 in codes
    else:
        assert set(codes) == {2}


def test_targets_keep_their_order():
    assert cli.CONVERSIONS == ("lattice", "cplr", "dc", "ghh", "hh")
