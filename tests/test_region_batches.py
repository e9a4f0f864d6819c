"""The region walk in batches changes no output bit.

``count_regions`` composes the maps of many patterns in one stacked
``_compose`` call, and its ``pattern-enumeration`` walk computes the boundary
crossings of a batch of queued regions with one forward pass, then replays
the pops depth-first.  The references below are the walk that computes one
region per pop, with one forward pass per region, and the composition of one
pattern by 2-D products; each test asserts byte-equal counts, certificate
order and certificate bytes, and the walk's tests strictly less work.
"""

import numpy as np
import pytest

import pwlkit.network as network
from pwlkit.affine import grid_points
from pwlkit.network import (
    ENUMERATION_BUDGET,
    ActivationPattern,
    Layer,
    PwlNetwork,
    RegionCertificate,
    _arrangement_bound,
    _hidden_codes,
    count_regions,
    init_params,
    local_affine_map,
    network_from_sizes,
)

KINDS = [("relu", {}), ("leaky_relu", {}), ("parametric_relu", {}),
         ("s_shaped_relu", {}), ("flexible_relu", {}), ("apl", {"segments": 2}),
         ("maxout", {})]
SIZES = [(1, 5, 1), (2, 5, 1), (2, 4, 3, 1), (3, 4, 1), (3, 3, 3, 1)]
METHODS = ["grid-probe", "pattern-enumeration"]


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


def box(n):
    return np.full(n, -1.0), np.full(n, 1.0)


# ---------------------------------------------------------------------------
# Reference: one pattern composed by 2-D products, one region per pop
# ---------------------------------------------------------------------------

def reference_maps(net, pattern):
    """Per layer ``(activation, code, J, c)``: ``z = J x + c`` on the region."""
    J, c = np.eye(net.in_dim), np.zeros(net.in_dim)
    codes = iter(pattern.codes)
    for layer in net.layers:
        J = layer.weight @ J
        c = layer.weight @ c + layer.bias
        act = layer.activation
        code = None if act is None else next(codes)
        yield act, code, J, c
        if act is not None:
            J, c = act.restrict(J, c, code)


def reference_local_map(net, pattern):
    for _act, _code, J, c in reference_maps(net, pattern):
        pass
    return J, c


def reference_distinct_patterns(net, X):
    X, per_layer = _hidden_codes(net, X)
    codes = np.concatenate([np.zeros((X.shape[0], 1), np.int8)] + per_layer, axis=1)
    rows = codes.view(np.dtype((np.void, codes.itemsize * codes.shape[1])))[:, 0]
    first = np.sort(np.unique(rows, return_index=True)[1])
    return [(ActivationPattern(tuple(p[i] for p in per_layer)), X[i].copy())
            for i in first]


def reference_crossings(net, pattern, x, lo, hi, span):
    out = [np.empty((0, x.shape[0]))]
    for act, code, Jz, cz in reference_maps(net, pattern):
        if act is None:
            continue
        D, t = act.kinks(code)
        G, gval = D @ Jz, D @ (Jz @ x + cz) - t
        norm2 = np.array([g @ g for g in G])
        keep = ~(norm2 <= 1e-18)
        G, gval, norm2 = G[keep], gval[keep], norm2[keep]
        side = np.where(gval == 0, 1.0, np.sign(gval))
        shift = side[:, None] * (np.array([1e-7, 1e-4]) * span)
        step = (gval[:, None] + shift) / norm2[:, None]
        out.append(np.clip(x - step[:, :, None] * G[:, None, :], lo, hi)
                   .reshape(-1, x.shape[0]))
    return np.concatenate(out)


def reference_count(net, box, method, grid_density=None):
    lo, hi = (np.atleast_1d(np.asarray(b, dtype=float)) for b in box)
    n = net.in_dim
    if method == "grid-probe":
        seen = {}
        for pat, x in reference_distinct_patterns(
                net, grid_points(lo, hi, grid_density or (201 if n <= 2 else 31))):
            J, c = reference_local_map(net, pat)
            seen.setdefault((J.tobytes(), c.tobytes()), RegionCertificate(x, J, c))
        return list(seen.values()), None
    seen = dict(reference_distinct_patterns(
        net, grid_points(lo, hi, grid_density or (41 if n <= 2 else 11))))
    queue = list(seen.items())
    span = float(np.max(hi - lo))
    passes = 1
    while queue:
        crossings = reference_crossings(net, *queue.pop(), lo, hi, span)
        passes += 1
        for pat, x in reference_distinct_patterns(net, crossings):
            if pat not in seen:
                seen[pat] = x
                queue.append((pat, x))
    certs = [RegionCertificate(x, *reference_local_map(net, pat)) for pat, x in seen.items()]
    return certs, passes


def certificate_bytes(certs):
    return [(c.point.tobytes(), c.jacobian.shape, c.jacobian.tobytes(),
             c.bias.shape, c.bias.tobytes()) for c in certs]


def count_work(monkeypatch):
    """Forward passes, and the number of patterns of each ``_compose`` call."""
    passes, composed = [], []
    forward, compose = PwlNetwork.forward_batch, network._compose

    def counted_forward(self, *args, **kwargs):
        passes.append(1)
        return forward(self, *args, **kwargs)

    def counted_compose(net, codes):
        composed.append(codes[0].shape[0] if codes else 1)
        return compose(net, codes)

    monkeypatch.setattr(PwlNetwork, "forward_batch", counted_forward)
    monkeypatch.setattr(network, "_compose", counted_compose)
    return passes, composed


def assert_same_regions(net, method, grid_density=None):
    result = count_regions(net, box(net.in_dim), method=method, grid_density=grid_density)
    want, _ = reference_count(net, box(net.in_dim), method, grid_density)
    assert result.count == len(want)
    assert certificate_bytes(result.certificates) == certificate_bytes(want)
    assert result.bound == _arrangement_bound(net)
    return result


# ---------------------------------------------------------------------------
# Byte identity
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("sizes", SIZES, ids=lambda s: "-".join(map(str, s)))
@pytest.mark.parametrize("kind,config", KINDS, ids=[k for k, _ in KINDS])
def test_regions_match_the_one_region_walk(kind, config, sizes, method):
    net = perturbed_net(kind, config, sizes)
    density = 15 if method == "grid-probe" and sizes[0] == 3 else None
    result = assert_same_regions(net, method, density)
    assert result.count > 1


@pytest.mark.parametrize("method", METHODS)
def test_linear_hidden_layer_keeps_its_regions(method):
    net = perturbed_net("relu", {}, (2, 6, 1))
    widened = PwlNetwork([Layer(np.eye(2), np.zeros(2), None)] + net.layers
                         + [Layer(np.ones((1, 1)), np.zeros(1), None)])
    assert assert_same_regions(widened, method).count == \
        count_regions(net, box(2), method=method).count


@pytest.mark.parametrize("method", METHODS)
def test_net_without_hidden_units_matches(method):
    net = perturbed_net("relu", {}, (2, 1))
    assert assert_same_regions(net, method).count == 1


@pytest.mark.parametrize("kind,config", [("relu", {}), ("maxout", {"maxout_k": 3})])
def test_net_at_the_enumeration_budget_matches(kind, config):
    net = perturbed_net(kind, config, (2, ENUMERATION_BUDGET // 2, ENUMERATION_BUDGET // 2, 1))
    assert net.hidden_unit_count == ENUMERATION_BUDGET
    assert assert_same_regions(net, "pattern-enumeration", grid_density=9).count > 1


@pytest.mark.parametrize("kind,config", KINDS, ids=[k for k, _ in KINDS])
def test_local_affine_map_has_the_bits_of_the_2d_composition(kind, config):
    net = perturbed_net(kind, config, (3, 4, 3, 2))
    X = np.random.default_rng(5).uniform(-1, 1, (20, 3))
    for pat, _ in reference_distinct_patterns(net, X):
        J, c = local_affine_map(net, pat)
        want_J, want_c = reference_local_map(net, pat)
        assert (J.shape, J.tobytes(), c.shape, c.tobytes()) == \
            (want_J.shape, want_J.tobytes(), want_c.shape, want_c.tobytes())


@pytest.mark.parametrize("batch", [1, 2, 7])
def test_small_batches_keep_the_walk(monkeypatch, batch):
    """Batches that leave queued regions behind replay the same walk."""
    net = perturbed_net("apl", {"segments": 2}, (2, 4, 3, 1))
    want, _ = reference_count(net, box(2), "pattern-enumeration")
    monkeypatch.setattr(network, "WALK_BATCH", batch)
    passes, composed = count_work(monkeypatch)
    result = count_regions(net, box(2), method="pattern-enumeration")
    assert certificate_bytes(result.certificates) == certificate_bytes(want)
    assert max(composed) <= batch and sum(composed) == result.count
    assert len(passes) == len(composed) + 1


# ---------------------------------------------------------------------------
# Less work
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("sizes", [(2, 8, 1), (2, 5, 5, 1), (3, 4, 1)],
                         ids=lambda s: "-".join(map(str, s)))
def test_walk_makes_one_forward_pass_per_batch(monkeypatch, sizes):
    net = perturbed_net("relu", {}, sizes)
    _, reference_passes = reference_count(net, box(net.in_dim), "pattern-enumeration")
    passes, composed = count_work(monkeypatch)
    result = count_regions(net, box(net.in_dim), method="pattern-enumeration")
    assert sum(composed) == result.count == reference_passes - 1
    assert len(passes) <= len(composed) + 1 < reference_passes
