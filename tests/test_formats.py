import numpy as np
import pytest

from pwlkit import (
    AhhBasis,
    AhhModel,
    HingeModel,
    HlCplrBasis,
    ParseError,
    SbfModel,
    deserialize,
    serialize,
)
from pwlkit.formats import TextChunks, load_model, save_model, write_text_atomic
from pwlkit.network import init_params, network_from_sizes
from pwlkit.transforms import dc_from_model


def roundtrip(model):
    return deserialize(serialize(model))


def assert_identical_eval(a, b, points):
    assert np.array_equal(a.values(points), b.values(points))


class TestRoundTrips:
    def test_cplr_on_grid(self, zigzag_cplr):
        assert_identical_eval(roundtrip(zigzag_cplr), zigzag_cplr,
                              np.linspace(-3, 3, 100))

    def test_affine_only_cplr(self):
        from pwlkit import CplrModel
        m = CplrModel([2.0, -0.5], 1.25, [])
        pts = np.random.default_rng(0).uniform(-1, 1, (20, 2))
        assert_identical_eval(roundtrip(m), m, pts)

    def test_lattice_preserves_sorted_sets(self, tent_lattice):
        again = roundtrip(tent_lattice)
        assert again.sets == tent_lattice.sets
        assert_identical_eval(again, tent_lattice, np.linspace(0, 5, 100))

    def test_nested_tree(self, plateau2d_nested):
        pts = np.random.default_rng(1).uniform(-2, 2, (50, 2))
        assert_identical_eval(roundtrip(plateau2d_nested), plateau2d_nested, pts)

    def test_ghh(self, plateau2d_ghh):
        pts = np.random.default_rng(2).uniform(-2, 2, (50, 2))
        assert_identical_eval(roundtrip(plateau2d_ghh), plateau2d_ghh, pts)

    def test_hinge_model(self, zigzag_cplr):
        hh = HingeModel.from_cplr(zigzag_cplr)
        assert_identical_eval(roundtrip(hh), hh, np.linspace(-3, 3, 100))

    def test_hlcplr_basis(self):
        b = HlCplrBasis(3, 0.25, [(2, -1), (0, 4)])
        pts = np.random.default_rng(3).uniform(-2, 2, (50, 3))
        assert_identical_eval(roundtrip(b), b, pts)

    def test_ahh(self):
        m = AhhModel(2, -0.75,
                     [(1.5, AhhBasis([(1, 0, 0.125)])),
                      (-2.0, AhhBasis([(1, 1, 0.3), (-1, 0, 0.6)]))])
        pts = np.random.default_rng(4).uniform(-1, 2, (50, 2))
        assert_identical_eval(roundtrip(m), m, pts)

    def test_sbf(self):
        m = SbfModel(2, [(3.0, [2.0, 2.0], [0.5, 0.5]),
                         (-0.25, [0.125, 8.0], [0.1, 0.9])])
        pts = np.random.default_rng(5).uniform(-1, 2, (50, 2))
        assert_identical_eval(roundtrip(m), m, pts)

    def test_dc_form(self, tent_lattice):
        dc = dc_from_model(tent_lattice)
        again = roundtrip(dc)
        assert np.array_equal(again.plus, dc.plus)
        assert np.array_equal(again.minus, dc.minus)

    def test_conventional_with_domain(self, tent_corrected):
        again = roundtrip(tent_corrected)
        g = np.linspace(0, 5, 200)
        assert np.array_equal(again.values(g), tent_corrected.values(g))
        assert again.domain is not None

    def test_conventional_without_domain(self, tent_corrected):
        from pwlkit import ConventionalPWL
        bare = ConventionalPWL(1, tent_corrected.regions,
                               tent_corrected.pieces, domain=None)
        again = roundtrip(bare)
        assert again.domain is None
        g = np.linspace(0, 5, 50)
        assert np.array_equal(again.values(g), bare.values(g))

    @pytest.mark.parametrize("kind,config", [
        ("relu", {}),
        ("leaky_relu", {}),
        ("parametric_relu", {}),
        ("s_shaped_relu", {}),
        ("flexible_relu", {}),
        ("apl", {"segments": 2}),
        ("maxout", {}),
    ])
    def test_networks_every_activation(self, kind, config):
        net = network_from_sizes([2, 4, 1], kind, **config)
        init_params(net, seed=13)
        rng = np.random.default_rng(14)
        for layer in net.layers:
            layer.bias[...] = rng.normal(size=layer.bias.shape)
            if layer.activation:
                for arr in layer.activation.param_arrays():
                    arr[...] = rng.normal(size=arr.shape)
        pts = rng.uniform(-2, 2, (50, 2))
        assert_identical_eval(roundtrip(net), net, pts)

    def test_exact_parameter_recovery_of_awkward_floats(self):
        from pwlkit import CplrModel
        vals = [1 / 3, np.pi, 1e-300, 1.7976931348623157e308 / 1e10]
        m = CplrModel([vals[0]], vals[1], [(1, [vals[2]], vals[3])])
        again = roundtrip(m)
        assert float(again.alpha0[0]) == vals[0]
        assert again.beta0 == vals[1]
        assert float(again.terms[0][1][0]) == vals[2]
        assert again.terms[0][2] == vals[3]


class TestStability:
    def test_serialization_is_canonical_under_term_order(self, zigzag_cplr):
        from pwlkit import CplrModel
        swapped = CplrModel([1.0], 0.0, [(1, [1.0], -1.0), (-1, [1.0], 1.0)])
        assert serialize(swapped) == serialize(zigzag_cplr)

    def test_save_load_file(self, tmp_path, zigzag_cplr):
        path = tmp_path / "model.txt"
        save_model(zigzag_cplr, path)
        again = load_model(path)
        g = np.linspace(-3, 3, 50)
        assert np.array_equal(again.values(g), zigzag_cplr.values(g))

    def test_text_written_from_chunks_is_the_joined_text(self, tmp_path):
        chunks = ["x,y\n", "", "0.5,1e-300\n", "a,\r\n" * 3, "-0.0,nan"]
        text = "".join(chunks)
        write_text_atomic(tmp_path / "whole.txt", text)
        for name, arg in (("list", list(chunks)), ("iter", iter(chunks))):
            write_text_atomic(tmp_path / f"{name}.txt", arg)
            assert (tmp_path / f"{name}.txt").read_bytes() == \
                (tmp_path / "whole.txt").read_bytes()
        counted = TextChunks(iter(chunks))
        assert len(counted) == 0
        write_text_atomic(tmp_path / "counted.txt", counted)
        assert len(counted) == len(text)
        assert (tmp_path / "counted.txt").read_bytes() == \
            (tmp_path / "whole.txt").read_bytes()
        write_text_atomic(tmp_path / "empty.txt", iter(()))
        assert (tmp_path / "empty.txt").read_bytes() == b""
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "counted.txt", "empty.txt", "iter.txt", "list.txt", "whole.txt"]


class TestParseErrors:
    def test_unknown_header(self):
        with pytest.raises(ParseError):
            deserialize("pwl-bogus v1 dim=1\n")

    def test_error_carries_line_and_column(self):
        text = "pwl-cplr v1 dim=1 terms=1\naffine: alpha=1.0 beta=0.0\nterm: eta=oops alpha=1.0 beta=0.0\n"
        with pytest.raises(ParseError) as err:
            deserialize(text)
        assert err.value.line == 3
        assert err.value.column == 11

    def test_bad_float_reported(self):
        text = "pwl-cplr v1 dim=1 terms=0\naffine: alpha=abc beta=0.0\n"
        with pytest.raises(ParseError) as err:
            deserialize(text)
        assert "abc" in str(err.value)

    def test_trailing_garbage_rejected(self):
        text = "pwl-cplr v1 dim=1 terms=0\naffine: alpha=1.0 beta=0.0\nextra\n"
        with pytest.raises(ParseError):
            deserialize(text)

    def test_truncated_file_rejected(self):
        with pytest.raises(ParseError):
            deserialize("pwl-cplr v1 dim=1 terms=3\naffine: alpha=1.0 beta=0.0\n")
