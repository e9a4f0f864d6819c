"""The bytes each model kind is written as, pinned.

The round-trip tests in ``test_formats`` would still pass if a writer and
its reader changed together; these fix the text itself.  ``EXPECTED`` holds
one fixed model per kind (plus a conventional model with a domain, a nested
tree and a net with every activation and learnable arrays) and the text it
is written as.  The derandomized round trips draw models shaped like
``perfbench/gen.py``'s ``*_params`` and check that a written text reads back
to a model that writes the same text and gives bit-equal values.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pwlkit import (
    AffineFunction,
    AhhBasis,
    AhhModel,
    ConventionalPWL,
    CplrExpr,
    CplrModel,
    GhhModel,
    Halfspace,
    HingeModel,
    HlCplrBasis,
    LatticeModel,
    NestedCplrModel,
    Region,
    SbfModel,
    box_region,
    deserialize,
    serialize,
)
from pwlkit.network import Layer, PwlNetwork, make_activation
from pwlkit.transforms import DCForm


def _values(shape, k):
    """Awkward but reproducible floats in [-1, 1)."""
    return ((np.arange(int(np.prod(shape))) * 0.37 + k) % 2.0 - 1.0).reshape(shape)


def _net(hidden):
    """A 2-input net with one hidden layer per ``(kind, width, config)`` and
    every weight, bias and learnable array set to ``_values``."""
    layers, fan_in = [], 2
    for k, (kind, width, config) in enumerate(hidden + [("linear", 1, {})]):
        act = make_activation(kind, width, **config)
        rows = width if act is None else act.pre_width()
        if act is not None:
            for i, arr in enumerate(act.param_arrays()):
                arr[...] = _values(arr.shape, 0.1 * k + 0.01 * i)
        layers.append(Layer(_values((rows, fan_in), k), _values(rows, -k), act))
        fan_in = width
    return PwlNetwork(layers)


def _models():
    a = [AffineFunction([1.0, -0.5], 0.25), AffineFunction([-1 / 3, 0.0], 1e-300),
         AffineFunction([2.5, 7.0], -0.0)]
    tree = CplrExpr(AffineFunction([0.5, 0.25], -1.0), [
        (2.0, CplrExpr(AffineFunction([1.0, -1.0], 0.0))),
        (-0.125, CplrExpr(AffineFunction([-7.5, 1e-7], 5.0), [
            (32.5, CplrExpr(AffineFunction([0.1, 0.2], 0.3))),
            (1.0, CplrExpr(AffineFunction([0.0, 3.0], -2.0), [
                (-1.0, CplrExpr(AffineFunction([1e16, -2.0], 1 / 7)))]))]))])
    return {
        "conventional": ConventionalPWL(
            2, [Region([Halfspace([1.0, -0.5], 0.25, closed=True)], 0),
                Region([Halfspace([-1.0, 0.5], -0.25, closed=False),
                        Halfspace([0.0, 1.0], 1 / 3)], 1)],
            [a[0], a[1]]),
        "conventional-domain": ConventionalPWL(
            3, [Region([Halfspace([1.0, -1.0, 1.0], -1.0, closed=True)], 0),
                Region([Halfspace([-1.0, 1.0, -1.0], 1.0, closed=False)], 1)],
            [AffineFunction([1.0, -1.0, 1.0], 1.0), AffineFunction([-1.0, 1.0, -1.0], -1.0)],
            domain=box_region([-2.0, -2.0, -2.0], [2.0, 2.0, 0.5])),
        "cplr": CplrModel([0.5, -2.0], 1 / 3, [(1, [1.0, -1.0], 0.25), (-1, [0.1, 0.2], -3.0)]),
        "hh": HingeModel([-0.0, 1.5], 2.0, [(0.75, [1.0, 2.0], -1.0),
                                            (-1e-7, [3.0, -0.5], 0.1)]),
        "ghh": GhhModel([(1.0, a), (-0.5, a[:2])]),
        "nested": NestedCplrModel(CplrExpr(AffineFunction([0.5, 0.25], -1.0),
                                           [(2.0, CplrExpr(a[0]))])),
        "nested-tree": NestedCplrModel(tree),
        "hlcplr": HlCplrBasis(3, 0.25, [(2, -1), (0, 4)]),
        "ahh": AhhModel(2, -0.75, [(1.5, AhhBasis([(1, 0, 0.125)])),
                                   (-2.0, AhhBasis([(1, 1, 0.3), (-1, 0, 0.6)]))]),
        "sbf": SbfModel(2, [(3.0, [2.0, 2.0], [0.5, 0.5]),
                            (-0.25, [0.125, 8.0], [0.1, 0.9])]),
        "lattice": LatticeModel(a, [[0, 2], [2, 1, 0], [1]]),
        "dc": DCForm([[1.0, 2.0, 0.5], [-1.0, 0.0, 0.1], [1.0, 2.0, 0.5]],
                     [[0.0, -0.0, 1 / 3]]),
        "net": _net([("relu", 3, {})]),
        "net-every-activation": _net([
            ("relu", 3, {}), ("leaky_relu", 2, {"lam": 0.05}), ("parametric_relu", 3, {}),
            ("s_shaped_relu", 2, {}), ("flexible_relu", 3, {}), ("apl", 2, {"segments": 2}),
            ("maxout", 2, {"k": 3})]),
    }


EXPECTED = {
    "ahh": (
        "pwl-ahh v1 dim=2 intercept=-0.75 bases=2\n"
        "basis: w=1.5 factors=1\n"
        "f: delta=1 var=0 knot=0.125\n"
        "basis: w=-2.0 factors=2\n"
        "f: delta=1 var=1 knot=0.3\n"
        "f: delta=-1 var=0 knot=0.6\n"
    ),
    "conventional": (
        "pwl-conventional v1 dim=2 pieces=2\n"
        "J=1.0,-0.5 b=0.25\n"
        "H: normal=1.0,-0.5 offset=0.25 closed=1\n"
        "J=-0.3333333333333333,0.0 b=1e-300\n"
        "H: normal=-1.0,0.5 offset=-0.25 closed=0\n"
        "H: normal=0.0,1.0 offset=0.3333333333333333 closed=1\n"
    ),
    "conventional-domain": (
        "pwl-conventional v1 dim=3 pieces=2\n"
        "J=1.0,-1.0,1.0 b=1.0\n"
        "H: normal=1.0,-1.0,1.0 offset=-1.0 closed=1\n"
        "J=-1.0,1.0,-1.0 b=-1.0\n"
        "H: normal=-1.0,1.0,-1.0 offset=1.0 closed=0\n"
        "domain\n"
        "H: normal=1.0,0.0,0.0 offset=-2.0 closed=1\n"
        "H: normal=-1.0,-0.0,-0.0 offset=-2.0 closed=1\n"
        "H: normal=0.0,1.0,0.0 offset=-2.0 closed=1\n"
        "H: normal=-0.0,-1.0,-0.0 offset=-2.0 closed=1\n"
        "H: normal=0.0,0.0,1.0 offset=-2.0 closed=1\n"
        "H: normal=-0.0,-0.0,-1.0 offset=-0.5 closed=1\n"
    ),
    "cplr": (
        "pwl-cplr v1 dim=2 terms=2\n"
        "affine: alpha=0.5,-2.0 beta=0.3333333333333333\n"
        "term: eta=-1 alpha=0.1,0.2 beta=-3.0\n"
        "term: eta=1 alpha=1.0,-1.0 beta=0.25\n"
    ),
    "dc": (
        "pwl-dc v1 dim=2 plus=2 minus=1\n"
        "p: J=-1.0,0.0 b=0.1\n"
        "p: J=1.0,2.0 b=0.5\n"
        "m: J=0.0,-0.0 b=0.3333333333333333\n"
    ),
    "ghh": (
        "pwl-ghh v1 dim=2 terms=2\n"
        "term: w=-0.5 affines=2\n"
        "a: J=-0.3333333333333333,0.0 b=1e-300\n"
        "a: J=1.0,-0.5 b=0.25\n"
        "term: w=1.0 affines=3\n"
        "a: J=-0.3333333333333333,0.0 b=1e-300\n"
        "a: J=1.0,-0.5 b=0.25\n"
        "a: J=2.5,7.0 b=-0.0\n"
    ),
    "hh": (
        "pwl-hh v1 dim=2 hinges=2\n"
        "affine: alpha=-0.0,1.5 beta=2.0\n"
        "hinge: w=0.75 alpha=1.0,2.0 beta=-1.0\n"
        "hinge: w=-1e-07 alpha=3.0,-0.5 beta=0.1\n"
    ),
    "hlcplr": (
        "pwl-hlcplr v1 dim=3 interval=0.25 coords=2\n"
        "c: axis=2 knot=-1\n"
        "c: axis=0 knot=4\n"
    ),
    "lattice": (
        "pwl-lattice v1 dim=2 affines=3 sets=3\n"
        "a: J=1.0,-0.5 b=0.25\n"
        "a: J=-0.3333333333333333,0.0 b=1e-300\n"
        "a: J=2.5,7.0 b=-0.0\n"
        "S: 0,2\n"
        "S: 0,1,2\n"
        "S: 1\n"
    ),
    "nested": (
        "pwl-nested v1 dim=2\n"
        "node: alpha=0.5,0.25 beta=-1.0 children=1\n"
        "child: coeff=2.0\n"
        "node: alpha=1.0,-0.5 beta=0.25 children=0\n"
    ),
    "nested-tree": (
        "pwl-nested v1 dim=2\n"
        "node: alpha=0.5,0.25 beta=-1.0 children=2\n"
        "child: coeff=-0.125\n"
        "node: alpha=-7.5,1e-07 beta=5.0 children=2\n"
        "child: coeff=1.0\n"
        "node: alpha=0.0,3.0 beta=-2.0 children=1\n"
        "child: coeff=-1.0\n"
        "node: alpha=1e+16,-2.0 beta=0.14285714285714285 children=0\n"
        "child: coeff=32.5\n"
        "node: alpha=0.1,0.2 beta=0.3 children=0\n"
        "child: coeff=2.0\n"
        "node: alpha=1.0,-1.0 beta=0.0 children=0\n"
    ),
    "net": (
        "pwl-net v1 inputs=2 layers=2\n"
        "layer: out=3 activation=relu\n"
        "W: rows=3 cols=2\n"
        "-1.0,-0.63\n"
        "-0.26,0.10999999999999988\n"
        "0.48,0.8500000000000001\n"
        "b: -1.0,-0.63,-0.26\n"
        "layer: out=1 activation=linear\n"
        "W: rows=1 cols=3\n"
        "0.0,0.3700000000000001,0.74\n"
        "b: 0.0\n"
    ),
    "net-every-activation": (
        "pwl-net v1 inputs=2 layers=8\n"
        "layer: out=3 activation=relu\n"
        "W: rows=3 cols=2\n"
        "-1.0,-0.63\n"
        "-0.26,0.10999999999999988\n"
        "0.48,0.8500000000000001\n"
        "b: -1.0,-0.63,-0.26\n"
        "layer: out=2 activation=leaky_relu lam=0.05\n"
        "W: rows=2 cols=3\n"
        "0.0,0.3700000000000001,0.74\n"
        "-0.8900000000000001,-0.52,-0.1499999999999999\n"
        "b: 0.0,0.3700000000000001\n"
        "layer: out=3 activation=parametric_relu\n"
        "W: rows=3 cols=2\n"
        "-1.0,-0.6299999999999999\n"
        "-0.2599999999999998,0.10999999999999988\n"
        "0.48,0.8500000000000001\n"
        "b: -1.0,-0.6299999999999999,-0.26\n"
        "param0: rows=1 cols=3\n"
        "-0.8,-0.42999999999999994,-0.06000000000000005\n"
        "layer: out=2 activation=s_shaped_relu\n"
        "W: rows=2 cols=3\n"
        "0.0,0.3700000000000001,0.7400000000000002\n"
        "-0.8900000000000006,-0.5199999999999996,-0.15000000000000036\n"
        "b: 0.0,0.3700000000000001\n"
        "param0: rows=1 cols=2\n"
        "-0.7,-0.32999999999999996\n"
        "param1: rows=1 cols=2\n"
        "-0.69,-0.31999999999999995\n"
        "param2: rows=1 cols=2\n"
        "-0.6799999999999999,-0.30999999999999994\n"
        "param3: rows=1 cols=2\n"
        "-0.6699999999999999,-0.29999999999999993\n"
        "param4: rows=1 cols=2\n"
        "-0.6599999999999999,-0.29000000000000004\n"
        "param5: rows=1 cols=2\n"
        "-0.6499999999999999,-0.28\n"
        "layer: out=3 activation=flexible_relu\n"
        "W: rows=3 cols=2\n"
        "-1.0,-0.6299999999999999\n"
        "-0.2599999999999998,0.10999999999999943\n"
        "0.4800000000000004,0.8499999999999996\n"
        "b: -1.0,-0.6299999999999999,-0.2599999999999998\n"
        "param0: rows=1 cols=3\n"
        "-0.6,-0.22999999999999998,0.14000000000000012\n"
        "param1: rows=1 cols=3\n"
        "-0.59,-0.21999999999999997,0.1499999999999999\n"
        "layer: out=2 activation=apl segments=2\n"
        "W: rows=2 cols=3\n"
        "0.0,0.3700000000000001,0.7400000000000002\n"
        "-0.8900000000000006,-0.5199999999999996,-0.15000000000000036\n"
        "b: 0.0,0.3700000000000001\n"
        "param0: rows=2 cols=2\n"
        "-0.5,-0.13\n"
        "0.24,0.6099999999999999\n"
        "param1: rows=2 cols=2\n"
        "-0.49,-0.12\n"
        "0.25,0.6199999999999999\n"
        "layer: out=6 activation=maxout k=3\n"
        "W: rows=6 cols=2\n"
        "-1.0,-0.6299999999999999\n"
        "-0.2599999999999998,0.10999999999999943\n"
        "0.4800000000000004,0.8499999999999996\n"
        "-0.7800000000000011,-0.41000000000000014\n"
        "-0.03999999999999915,0.33000000000000007\n"
        "0.6999999999999993,-0.9299999999999997\n"
        "b: -1.0,-0.6299999999999999,-0.2599999999999998,0.10999999999999943,0.4800000000000004,0.8499999999999996\n"
        "layer: out=1 activation=linear\n"
        "W: rows=1 cols=2\n"
        "0.0,0.3700000000000001\n"
        "b: 0.0\n"
    ),
    "sbf": (
        "pwl-sbf v1 dim=2 bases=2\n"
        "basis: w=-0.25 gamma=0.125,8.0 zeta=0.1,0.9\n"
        "basis: w=3.0 gamma=2.0,2.0 zeta=0.5,0.5\n"
    ),
}


def test_every_kind_is_pinned():
    assert sorted(EXPECTED) == sorted(_models())
    assert {text.split()[0] for text in EXPECTED.values()} == {
        "pwl-conventional", "pwl-cplr", "pwl-hh", "pwl-ghh", "pwl-nested", "pwl-hlcplr",
        "pwl-ahh", "pwl-sbf", "pwl-lattice", "pwl-dc", "pwl-net"}


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_written_bytes_are_pinned(name):
    assert serialize(_models()[name]) == EXPECTED[name]


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_pinned_text_reads_back_to_itself(name):
    assert serialize(deserialize(EXPECTED[name])) == EXPECTED[name]


# ---------------------------------------------------------------------------
# round trips of generated models
# ---------------------------------------------------------------------------

num = st.floats(-1e6, 1e6)
dims = st.integers(1, 3)


def vec(n, elements=num):
    return st.lists(elements, min_size=n, max_size=n)


@st.composite
def affines(draw, n):
    return AffineFunction(draw(vec(n)), draw(num))


@st.composite
def halfspaces(draw, n):
    normal = draw(vec(n).filter(lambda v: np.linalg.norm(v) > 0))
    return Halfspace(normal, draw(num), closed=draw(st.booleans()))


@st.composite
def conventional_models(draw):
    n = draw(dims)
    regions = draw(st.lists(st.lists(halfspaces(n), min_size=1, max_size=3), max_size=3))
    regions.append([Halfspace(np.eye(n)[0], -2.0)])     # holds the points checked
    domain = draw(st.none() | st.lists(halfspaces(n), min_size=1, max_size=3))
    return ConventionalPWL(n, [Region(hs, k) for k, hs in enumerate(regions)],
                           [draw(affines(n)) for _ in regions],
                           domain=None if domain is None else Region(domain, -1))


@st.composite
def cplr_models(draw):
    n = draw(dims)
    terms = draw(st.lists(st.tuples(st.sampled_from([-1, 1]), vec(n), num), max_size=4))
    return CplrModel(draw(vec(n)), draw(num), terms)


@st.composite
def hh_models(draw):
    n = draw(dims)
    return HingeModel(draw(vec(n)), draw(num),
                      draw(st.lists(st.tuples(num, vec(n), num), max_size=4)))


@st.composite
def ghh_models(draw):
    n = draw(dims)
    return GhhModel(draw(st.lists(st.tuples(num, st.lists(affines(n), min_size=1, max_size=3)),
                                  min_size=1, max_size=3)))


@st.composite
def expr(draw, n, depth):
    width = draw(st.integers(0, 2)) if depth else 0
    return CplrExpr(draw(affines(n)), [(draw(num), draw(expr(n, depth - 1)))
                                       for _ in range(width)])


@st.composite
def nested_models(draw):
    return NestedCplrModel(draw(expr(draw(dims), draw(st.integers(0, 3)))))


@st.composite
def hlcplr_models(draw):
    n = draw(st.integers(2, 3))
    axes = draw(st.permutations(range(n)))[:draw(st.integers(1, 2))]
    return HlCplrBasis(n, draw(st.floats(1e-3, 10.0)),
                       [(a, draw(st.integers(-3, 3))) for a in axes])


@st.composite
def ahh_models(draw):
    n = draw(dims)
    factor = st.tuples(st.sampled_from([-1, 1]), st.integers(0, n - 1), num)
    bases = draw(st.lists(st.tuples(num, st.lists(factor, min_size=1, max_size=3)),
                          max_size=4))
    return AhhModel(n, draw(num), [(w, AhhBasis(f)) for w, f in bases])


@st.composite
def sbf_models(draw):
    n = draw(dims)
    return SbfModel(n, draw(st.lists(st.tuples(num, vec(n, st.floats(0.0, 1e3)), vec(n)),
                                     max_size=4)))


@st.composite
def lattice_models(draw):
    n, k = draw(dims), draw(st.integers(1, 4))
    index_sets = st.lists(st.integers(0, k - 1), min_size=1, max_size=3, unique=True)
    return LatticeModel([draw(affines(n)) for _ in range(k)],
                        draw(st.lists(index_sets, min_size=1, max_size=4)))


@st.composite
def dc_models(draw):
    n = draw(dims)
    side = st.lists(vec(n + 1), min_size=1, max_size=4)
    return DCForm(draw(side), draw(side))


@st.composite
def net_models(draw):
    sizes = [draw(dims)] + draw(st.lists(st.integers(1, 3), min_size=0, max_size=2)) + [1]
    layers = []
    for i in range(len(sizes) - 1):
        act = make_activation("relu" if i < len(sizes) - 2 else "linear", sizes[i + 1])
        layers.append(Layer(np.reshape(draw(vec(sizes[i + 1] * sizes[i])),
                                       (sizes[i + 1], sizes[i])),
                            draw(vec(sizes[i + 1])), act))
    return PwlNetwork(layers)


STRATEGIES = {"conventional": conventional_models(), "cplr": cplr_models(),
              "hh": hh_models(), "ghh": ghh_models(), "nested": nested_models(),
              "hlcplr": hlcplr_models(), "ahh": ahh_models(), "sbf": sbf_models(),
              "lattice": lattice_models(), "dc": dc_models(), "net": net_models()}


@pytest.mark.parametrize("kind", sorted(STRATEGIES))
def test_generated_models_round_trip_bit_for_bit(kind):
    @settings(derandomize=True, max_examples=25, deadline=None, database=None)
    @given(STRATEGIES[kind])
    def round_trip(model):
        text = serialize(model)
        again = deserialize(text)
        assert serialize(again) == text
        points = np.linspace(-1.0, 1.0, 7 * model.dim).reshape(7, model.dim)
        with np.errstate(all="ignore"):
            assert again.values(points).tobytes() == model.values(points).tobytes()

    round_trip()
