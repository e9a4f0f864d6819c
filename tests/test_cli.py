import numpy as np
import pytest

from pwlkit.cli import main
from pwlkit.formats import save_model
from pwlkit.models import CplrModel


@pytest.fixture
def zigzag_csv(tmp_path, zigzag_cplr):
    path = tmp_path / "zigzag.csv"
    x = np.linspace(-3, 3, 601)
    rows = ["x,y"]
    rows += [f"{float(xi)!r},{float(yi)!r}"
             for xi, yi in zip(x, zigzag_cplr.values(x))]
    path.write_text("\n".join(rows) + "\n")
    return path


@pytest.fixture
def tent_file(tmp_path, tent_corrected):
    path = tmp_path / "tent.txt"
    save_model(tent_corrected, path)
    return path


@pytest.fixture
def tent_verbatim_file(tmp_path, tent_verbatim):
    path = tmp_path / "tent-verbatim.txt"
    save_model(tent_verbatim, path)
    return path


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestFit:
    def test_hh_fit_summary_and_exit(self, capsys, tmp_path, zigzag_csv):
        out_file = tmp_path / "m.txt"
        trace = tmp_path / "t.csv"
        code, out, _ = run(capsys, "fit", "--data", zigzag_csv, "--kind", "hh",
                           "--out", out_file, "--trace", trace,
                           "--max-terms", 2, "--seed", 0)
        assert code == 0
        summary = dict((k.strip(), v.strip()) for k, v in
                       (line.split(":", 1) for line in
                        out.strip().splitlines()))
        assert summary["kind"] == "hh"
        assert float(summary["train-rmse"]) <= 1e-6
        assert out_file.exists() and trace.exists()

    def test_zero_max_terms_is_usage_error(self, capsys, tmp_path, zigzag_csv):
        code, _, err = run(capsys, "fit", "--data", zigzag_csv, "--kind", "hh",
                           "--out", tmp_path / "m.txt", "--max-terms", 0)
        assert code == 64
        assert "max_terms" in err

    def test_unreadable_data_exits_2(self, capsys, tmp_path):
        code, _, _ = run(capsys, "fit", "--data", tmp_path / "missing.csv",
                         "--kind", "hh", "--out", tmp_path / "m.txt")
        assert code == 2

    def test_unknown_flag_is_usage_error(self, capsys, tmp_path, zigzag_csv):
        code, _, _ = run(capsys, "fit", "--data", zigzag_csv, "--kind", "hh",
                         "--out", tmp_path / "m.txt", "--bogus", 1)
        assert code == 64

    @pytest.mark.parametrize("kind,extra", [
        ("hh", ("--max-terms", 2)),
        ("ahh", ("--max-terms", 4)),
        ("sbf", ("--max-terms", 3)),
        ("dnn", ("--hidden", "4", "--epochs", 20)),
    ])
    def test_reruns_are_byte_identical(self, capsys, tmp_path, zigzag_csv,
                                       kind, extra):
        files = []
        for tag in ("a", "b"):
            out_file = tmp_path / f"{kind}-{tag}.txt"
            trace = tmp_path / f"{kind}-{tag}-trace.csv"
            code, _, _ = run(capsys, "fit", "--data", zigzag_csv,
                             "--kind", kind, "--out", out_file,
                             "--trace", trace, "--seed", 7, *extra)
            assert code == 0
            files.append((out_file.read_bytes(), trace.read_bytes()))
        assert files[0] == files[1]

    def test_config_file_with_flag_override(self, capsys, tmp_path, zigzag_csv):
        cfg = tmp_path / "fit.cfg"
        cfg.write_text("max_terms = 1\nseed = 3\n")
        out_file = tmp_path / "m.txt"
        code, out, _ = run(capsys, "fit", "--data", zigzag_csv, "--kind", "hh",
                           "--out", out_file, "--config", cfg,
                           "--max-terms", 2)
        assert code == 0
        summary = dict((k.strip(), v.strip()) for k, v in
                       (line.split(":", 1) for line in
                        out.strip().splitlines()))
        assert summary["terms"] == "2"      # flag wins over file
        assert summary["seed"] == "3"


class TestEval:
    def test_grid_row_values(self, capsys, tmp_path, tent_file, tent_corrected):
        lattice_file = tmp_path / "lat.txt"
        code, out, _ = run(capsys, "convert", "--model", tent_file,
                           "--to", "lattice", "--out", lattice_file)
        assert code == 0
        code, out, _ = run(capsys, "eval", "--model", lattice_file,
                           "--grid", "0:5:0.5")
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()]
        assert len(rows) == 11
        at = {float(r[0]): float(r[1]) for r in rows}
        assert at[2.5] == 2.0

    def test_empty_points_file(self, capsys, tmp_path, tent_file):
        pts = tmp_path / "empty.csv"
        pts.write_text("")
        code, out, _ = run(capsys, "eval", "--model", tent_file,
                           "--points", pts)
        assert code == 0
        assert out == ""

    def test_dimension_mismatch_exits_2(self, capsys, tmp_path, tent_file):
        pts = tmp_path / "pts.csv"
        pts.write_text("1.0,2.0\n")
        code, _, _ = run(capsys, "eval", "--model", tent_file, "--points", pts)
        assert code == 2

    def test_nested_model_point(self, capsys, tmp_path, plateau2d_nested):
        model_file = tmp_path / "nested.txt"
        save_model(plateau2d_nested, model_file)
        pts = tmp_path / "pts.csv"
        pts.write_text("1.0,1.0\n")
        code, out, _ = run(capsys, "eval", "--model", model_file,
                           "--points", pts)
        assert code == 0
        assert float(out.strip().split(",")[-1]) == 20.0


class TestConvert:
    def test_tent_to_lattice_prints_selection_sets(self, capsys, tmp_path,
                                                   tent_file):
        code, out, _ = run(capsys, "convert", "--model", tent_file,
                           "--to", "lattice", "--out", tmp_path / "lat.txt")
        assert code == 0
        assert "S0: {0,2,3,4}" in out
        assert "S1: {1,2,3,4}" in out
        assert "S2: {1,2,3}" in out
        assert "S3: {0,1,2,3}" in out
        assert "S4: {0,1,2,4}" in out
        assert "max-deviation: 0.0" in out

    def test_plateau_to_cplr_exits_4(self, capsys, tmp_path, plateau2d):
        model_file = tmp_path / "plateau.txt"
        save_model(plateau2d, model_file)
        code, _, err = run(capsys, "convert", "--model", model_file,
                           "--to", "cplr", "--out", tmp_path / "c.txt")
        assert code == 4
        assert "certificate hyperplane: (0.707106781, -0.707106781, -0.0)\n" in err

    def test_cplr_to_hh_round_trip_deviation(self, capsys, tmp_path,
                                             zigzag_cplr):
        model_file = tmp_path / "zig.txt"
        save_model(zigzag_cplr, model_file)
        hh_file = tmp_path / "hh.txt"
        code, out, _ = run(capsys, "convert", "--model", model_file,
                           "--to", "hh", "--out", hh_file,
                           "--box=-3:3")
        assert code == 0
        dev = float(dict(l.split(": ", 1) for l in out.strip().splitlines()
                         if ": " in l)["max-deviation"])
        assert dev <= 1e-12

    def test_unsupported_path_exits_2(self, capsys, tmp_path, zigzag_cplr):
        model_file = tmp_path / "zig.txt"
        save_model(zigzag_cplr, model_file)
        code, _, err = run(capsys, "convert", "--model", model_file,
                           "--to", "lattice", "--out", tmp_path / "x.txt")
        assert code == 2
        assert "supported paths" in err

    def test_any_to_dc_to_ghh(self, capsys, tmp_path, plateau2d_ghh):
        src = tmp_path / "ghh.txt"
        save_model(plateau2d_ghh, src)
        dc_file = tmp_path / "dc.txt"
        code, _, _ = run(capsys, "convert", "--model", src, "--to", "dc",
                         "--out", dc_file, "--box=-2:2,-2:2")
        assert code == 0
        code, _, _ = run(capsys, "convert", "--model", dc_file, "--to", "ghh",
                         "--out", tmp_path / "back.txt", "--box=-2:2,-2:2")
        assert code == 0


class TestValidate:
    def test_inconsistent_breaks_exit_5(self, capsys, tent_verbatim_file):
        code, out, _ = run(capsys, "validate", "--model", tent_verbatim_file)
        assert code == 5
        assert "continuity-violations: 2" in out
        assert "1.8" in out and "3.2" in out

    def test_fold_model_clean_and_representable(self, capsys, tmp_path, fold3d):
        path = tmp_path / "fold.txt"
        save_model(fold3d, path)
        code, out, _ = run(capsys, "validate", "--model", path)
        assert code == 0
        assert "consistent-variation: yes" in out

    def test_certificate_prints_plain_floats(self, capsys, tmp_path, plateau2d):
        path = tmp_path / "plateau.txt"
        save_model(plateau2d, path)
        code, out, _ = run(capsys, "validate", "--model", path)
        assert code == 0
        assert out.splitlines()[-2:] == [
            "consistent-variation: no",
            "certificate-hyperplane: (0.707106781, -0.707106781, -0.0)",
        ]

    def test_compact_model_is_structurally_continuous(self, capsys, tmp_path,
                                                      zigzag_cplr):
        path = tmp_path / "zig.txt"
        save_model(zigzag_cplr, path)
        code, out, _ = run(capsys, "validate", "--model", path)
        assert code == 0
        assert "continuous by construction" in out

    def test_parse_failure_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("pwl-cplr v1 dim=1 terms=1\n")
        code, _, _ = run(capsys, "validate", "--model", bad)
        assert code == 2


class TestRegions:
    @pytest.fixture
    def lines3_file(self, tmp_path):
        from pwlkit.network import Layer, PwlNetwork, Relu
        W = np.array([[1.0, 0.0], [0.5, 0.8660254], [-0.5, 0.8660254]])
        net = PwlNetwork([Layer(W, [0.1, -0.2, 0.15], Relu(3)),
                          Layer([[1.0, 1.0, 1.0]], [0.0], None)])
        path = tmp_path / "net3.txt"
        save_model(net, path)
        return path

    def test_three_lines_count_and_bound(self, capsys, lines3_file):
        code, out, _ = run(capsys, "regions", "--model", lines3_file,
                           "--box=-1:1,-1:1")
        assert code == 0
        assert "count: 7" in out
        assert "arrangement-bound: 7" in out

    def test_certificates_csv(self, capsys, tmp_path, lines3_file):
        csv_file = tmp_path / "regions.csv"
        code, _, _ = run(capsys, "regions", "--model", lines3_file,
                         "--box=-1:1,-1:1", "--out", csv_file)
        assert code == 0
        rows = csv_file.read_text().strip().splitlines()
        assert len(rows) == 7
        # columns: point (2), jacobian (2), bias (1)
        assert all(len(r.split(",")) == 5 for r in rows)

    def test_budget_exit_6(self, capsys, tmp_path):
        from pwlkit.network import init_params, network_from_sizes
        net = network_from_sizes([2, 25, 1], "relu")
        init_params(net, seed=0)
        path = tmp_path / "big.txt"
        save_model(net, path)
        code, _, err = run(capsys, "regions", "--model", path,
                           "--box=-1:1,-1:1")
        assert code == 6
        assert err == "25 hidden units exceed the pattern-enumeration budget of 20\n"


class TestEquiv:
    def test_identical_models_exit_0(self, capsys, tmp_path, zigzag_cplr):
        a = tmp_path / "a.txt"
        save_model(zigzag_cplr, a)
        code, out, _ = run(capsys, "equiv", "--model-a", a, "--model-b", a,
                           "--box=-3:3")
        assert code == 0
        assert "max-abs-deviation: 0.0" in out

    def test_different_models_exit_5(self, capsys, tmp_path, zigzag_cplr):
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        save_model(zigzag_cplr, a)
        save_model(CplrModel([1.0], 0.5, []), b)
        code, _, _ = run(capsys, "equiv", "--model-a", a, "--model-b", b,
                         "--box=-3:3")
        assert code == 5


class TestTraceExport:
    def test_round_trips_trace(self, capsys, tmp_path, zigzag_csv):
        trace = tmp_path / "t.csv"
        code, _, _ = run(capsys, "fit", "--data", zigzag_csv, "--kind", "sbf",
                         "--out", tmp_path / "m.txt", "--trace", trace,
                         "--max-terms", 2, "--seed", 0)
        assert code == 0
        out_file = tmp_path / "tidy.csv"
        code, _, _ = run(capsys, "trace-export", "--trace", trace,
                         "--out", out_file)
        assert code == 0
        assert out_file.read_text().startswith("step,term_count,train_sse")
