"""A fit whose sum of squared errors overflows fails with a PwlError, and the
CLI exits 3 without writing a model or printing a numpy warning."""

import warnings

import numpy as np
import pytest

from pwlkit import Dataset, FitConfig, PwlError, fit_ahh, fit_hh, fit_sbf
from pwlkit.cli import EXIT_FIT, main
from pwlkit.errors import NonFiniteFitError

# finite targets whose squares overflow
X = np.linspace(-1.0, 1.0, 40)
Y = 1e155 * (1.0 + np.abs(X))


@pytest.mark.parametrize("fit", [fit_hh, fit_ahh, fit_sbf])
def test_overflowing_fit_raises(fit):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteFitError, match="the sum of squared errors is inf"):
            fit(Dataset(X[:, None], Y), FitConfig(max_terms=3))
    assert issubclass(NonFiniteFitError, PwlError)


@pytest.mark.parametrize("kind", ["hh", "ahh", "sbf"])
def test_overflowing_fit_exits_3_and_writes_nothing(capsys, tmp_path, kind):
    data = tmp_path / "data.csv"
    data.write_text("x,y\n" + "".join(f"{a!r},{b!r}\n" for a, b in zip(X.tolist(), Y.tolist())))
    out, trace = tmp_path / "model.txt", tmp_path / "trace.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["fit", "--data", str(data), "--kind", kind, "--max-terms", "3",
                     "--out", str(out), "--trace", str(trace)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (EXIT_FIT, "")
    assert captured.err == ("fit failed: the sum of squared errors is inf; the data are "
                            "too large to fit\n")
    assert not out.exists() and not trace.exists()
