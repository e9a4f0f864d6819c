"""The activation protocol (kinks, restrict, backprop) for every activation kind,
and the CLI exit codes of conversions and equivalence reports."""

import numpy as np
import pytest

from pwlkit.cli import main
from pwlkit.formats import save_model
from pwlkit.learning import Dataset, FitConfig, fit_hh
from pwlkit.models import CplrModel, HingeModel
from pwlkit.network import (
    ACTIVATION_KINDS,
    Layer,
    PwlNetwork,
    _pattern_margin,
    _patterns_of_batch,
    count_regions,
    init_params,
    local_affine_map,
    make_activation,
    network_from_sizes,
)

KINDS = [("relu", {}), ("leaky_relu", {}), ("parametric_relu", {}),
         ("s_shaped_relu", {}), ("flexible_relu", {}), ("apl", {"segments": 2}),
         ("maxout", {})]
SIZES = [(2, 4, 1), (2, 3, 3, 1)]
BOX = (np.array([-1.0, -1.0]), np.array([1.0, 1.0]))


def test_every_kind_is_covered():
    assert sorted(k for k, _ in KINDS) == sorted(ACTIVATION_KINDS)


def perturbed_net(kind, config, sizes, seed=3):
    net = network_from_sizes(list(sizes), kind, **config)
    init_params(net, seed=seed)
    rng = np.random.default_rng(seed + 100)
    for layer in net.layers:
        layer.bias[...] = rng.normal(0.0, 0.3, layer.bias.shape)
        if layer.activation:
            for arr in layer.activation.param_arrays():
                arr[...] = rng.uniform(0.1, 0.7, arr.shape)
    return net


def kink_margin(net, x):
    _, cache = net.forward(x)
    worst = np.inf
    for layer, (_, z, code) in zip(net.layers, cache):
        if layer.activation is not None:
            D, t = layer.activation.kinks(code[0])
            if D.shape[0]:
                worst = min(worst, float(np.min(np.abs(D @ z[0] - t))))
    return worst


def composed_restrict(net, pattern):
    J, c = np.eye(net.in_dim), np.zeros(net.in_dim)
    codes = iter(pattern.codes)
    for layer in net.layers:
        J, c = layer.weight @ J, layer.weight @ c + layer.bias
        if layer.activation is not None:
            J, c = layer.activation.restrict(J, c, next(codes))
    return J, c


@pytest.mark.parametrize("sizes", SIZES, ids=lambda s: "-".join(map(str, s)))
@pytest.mark.parametrize("kind,config", KINDS, ids=[k for k, _ in KINDS])
class TestEveryActivation:
    def test_region_certificates_reproduce_forward(self, kind, config, sizes):
        net = perturbed_net(kind, config, sizes)
        result = count_regions(net, BOX, method="pattern-enumeration")
        assert result.count == len(result.certificates) > 1
        for cert in result.certificates:
            want = net.values(cert.point)[0]
            got = float(cert.jacobian[0] @ cert.point + cert.bias[0])
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want))

    def test_pattern_margin_is_min_kink_distance(self, kind, config, sizes):
        net = perturbed_net(kind, config, sizes)
        for x in np.random.default_rng(0).uniform(-1, 1, (25, 2)):
            assert _pattern_margin(net, x) == kink_margin(net, x)

    def test_restrict_composes_to_local_affine_map(self, kind, config, sizes):
        net = perturbed_net(kind, config, sizes)
        X = np.random.default_rng(1).uniform(-1, 1, (25, 2))
        for x, pat in zip(X, _patterns_of_batch(net, X)):
            J, c = composed_restrict(net, pat)
            J_map, c_map = local_affine_map(net, pat)
            assert np.array_equal(J, J_map) and np.array_equal(c, c_map)
            assert abs(float(J[0] @ x + c[0]) - net.values(x)[0]) <= 1e-12


@pytest.mark.parametrize("kind,config", KINDS, ids=[k for k, _ in KINDS])
def test_kinks_bound_the_branch(kind, config):
    """Pre-activations on the same side of every kink share the branch."""
    act = make_activation(kind, 3, **config)
    rng = np.random.default_rng(2)
    for arr in act.param_arrays():
        arr[...] = rng.uniform(0.1, 0.7, arr.shape)
    z1 = rng.normal(0.0, 1.0, (40, act.pre_width()))
    z2 = z1 + rng.normal(0.0, 0.3, z1.shape)
    p1, p2 = act.pattern(z1), act.pattern(z2)
    for i in range(z1.shape[0]):
        D, t = act.kinks(p1[i])
        same_side = np.array_equal(D @ z1[i] - t >= 0, D @ z2[i] - t >= 0)
        assert same_side == np.array_equal(p1[i], p2[i])


def test_linear_hidden_layer_keeps_region_walk():
    """An identity layer in front of a net leaves its region count unchanged."""
    net = network_from_sizes([2, 6, 1], "relu")
    init_params(net, seed=1)
    net.layers[0].bias[...] = np.random.default_rng(1).uniform(-0.5, 0.5, 6)
    widened = PwlNetwork([Layer(np.eye(2), np.zeros(2), None)] + net.layers)
    alone = count_regions(net, BOX, grid_density=5)
    behind = count_regions(widened, BOX, grid_density=5)
    assert behind.count == alone.count


def test_fit_trace_records_split_sizes():
    X = np.random.default_rng(0).uniform(-1, 1, (40, 1))
    data = Dataset(X, np.abs(X[:, 0]))
    _, trace = fit_hh(data, FitConfig(max_terms=1, validation_split=0.25))
    assert (trace.train_size, trace.validation_size) == (30, 10)
    _, trace = fit_hh(data, FitConfig(max_terms=1))
    assert (trace.train_size, trace.validation_size) == (40, 0)


def test_cplr_from_hinges_matches_hinges():
    rng = np.random.default_rng(4)
    hh = HingeModel(rng.normal(size=2), 0.3,
                    [(w, rng.normal(size=2), rng.normal()) for w in (1.5, -0.5, 0.0)])
    X = rng.uniform(-2, 2, (200, 2))
    assert np.allclose(CplrModel.from_hinges(hh).values(X), hh.values(X),
                       rtol=0, atol=1e-12)


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("target", ["dc", "ghh"])
def test_network_to_dc_exits_2(capsys, tmp_path, target):
    path = tmp_path / "net.txt"
    save_model(perturbed_net("relu", {}, (2, 4, 1)), path)
    code, _, err = run(capsys, "convert", "--model", path, "--to", target,
                       "--out", tmp_path / "out.txt")
    assert code == 2
    assert "supported paths" in err


def test_dc_size_cap_exits_6(capsys, tmp_path):
    rng = np.random.default_rng(5)
    hh = HingeModel(np.zeros(2), 0.0,
                    [(1.0, rng.normal(size=2), rng.normal()) for _ in range(16)])
    path = tmp_path / "hh16.txt"
    save_model(hh, path)
    code, _, err = run(capsys, "convert", "--model", path, "--to", "dc",
                       "--out", tmp_path / "dc.txt")
    assert code == 6
    assert "cap" in err


def test_equiv_prints_plain_floats(capsys, tmp_path, zigzag_cplr):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    save_model(zigzag_cplr, a)
    save_model(CplrModel([1.0], 0.5, zigzag_cplr.terms), b)
    code, out, _ = run(capsys, "equiv", "--model-a", a, "--model-b", b,
                       "--box=-2:2")
    assert code == 5
    line = next(l for l in out.splitlines() if l.startswith("argmax-point:"))
    value = line.split(":", 1)[1].strip()
    assert repr(float(value)) == value
