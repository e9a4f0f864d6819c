"""Small piecewise-linear network engine.

Dense layers with PWL activations, exact forward evaluation, chain-rule
gradients with a right-derivative convention at kinks, seeded mini-batch
SGD, activation-pattern extraction, and linear-region counting with the
hyperplane-arrangement bound as a cross-check.

Every activation evaluates by first deciding its discrete branch state and
then applying the branch expression, so replaying a stored pattern
reproduces the forward pass bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from .affine import as_points, grid_points
from .errors import (
    BudgetExceededError,
    DimensionMismatchError,
    NonFiniteLossError,
)

# Exact pattern enumeration refuses nets with more hidden units than this.
ENUMERATION_BUDGET = 20


# ---------------------------------------------------------------------------
# Activations
# ---------------------------------------------------------------------------

class Activation:
    """Base: elementwise PWL map with optional learnable per-neuron arrays."""

    kind = ""

    def __init__(self, width):
        self.width = int(width)

    def pre_width(self):
        """Pre-activation entries consumed per layer (maxout uses groups)."""
        return self.width

    def pattern(self, z):
        raise NotImplementedError

    def apply(self, z, pattern):
        """Branch-evaluate; forward() == apply(z, pattern(z)) bit for bit."""
        raise NotImplementedError

    def forward(self, z):
        p = self.pattern(z)
        return self.apply(z, p), p

    def grad_z(self, z, pattern):
        """d(output)/d(pre-activation): the branch slope."""
        return self.affine_view(pattern)[0]

    def param_arrays(self):
        return []

    def param_grads(self, z, pattern, upstream):
        """Gradients for param_arrays(), summed over the batch."""
        return []

    def affine_view(self, pattern):
        """Per-neuron (slope, intercept) on the branch: out = slope*z + c."""
        raise NotImplementedError

    def kinks(self, code):
        """Boundaries of one unit pattern's branch as ``(D, t)``.

        Row ``r`` is the branch change where ``D[r] . z - t[r]`` changes
        sign, ``z`` being the layer's pre-activation vector.
        """
        raise NotImplementedError

    def restrict(self, J, c, code):
        """Compose the pre-activation map ``z = J x + c`` with a frozen branch."""
        slope, intercept = self.affine_view(code[None, :])
        slope = np.asarray(slope, dtype=float).ravel()
        intercept = np.asarray(intercept, dtype=float).ravel()
        return slope[:, None] * J, slope * c + intercept

    def backprop(self, z, pattern, upstream):
        """d(loss)/d(pre-activation) from d(loss)/d(output)."""
        return upstream * self.grad_z(z, pattern)

    def config(self):
        """Fixed (non-learnable) settings for serialization."""
        return {}


class Relu(Activation):
    kind = "relu"

    def pattern(self, z):
        return (z >= 0).astype(np.int8)

    def apply(self, z, p):
        return z * p

    def affine_view(self, p):
        return p.astype(float), np.zeros(p.shape[-1])

    def kinks(self, code):
        return np.eye(self.width), np.zeros(self.width)


class LeakyRelu(Activation):
    kind = "leaky_relu"

    def __init__(self, width, lam=0.01):
        super().__init__(width)
        self.lam = float(lam)

    def pattern(self, z):
        return (z >= 0).astype(np.int8)

    def apply(self, z, p):
        return np.where(p == 1, z, self.lam * z)

    def affine_view(self, p):
        return np.where(p == 1, 1.0, self.lam), np.zeros(p.shape[-1])

    def kinks(self, code):
        return np.eye(self.width), np.zeros(self.width)

    def config(self):
        return {"lam": self.lam}


class ParametricRelu(LeakyRelu):
    """Leaky slope learnable per neuron."""

    kind = "parametric_relu"

    def __init__(self, width, lam=0.25):
        super().__init__(width, lam)
        self.lam = np.full(width, self.lam)

    def param_arrays(self):
        return [self.lam]

    def param_grads(self, z, p, upstream):
        neg = (p == 0)
        return [np.sum(upstream * np.where(neg, z, 0.0), axis=0)]

    def config(self):
        """No fixed settings: the learnable slopes are saved as a parameter array."""
        return {}


class SShapedRelu(Activation):
    """Three linear intervals: a0*z + b0 + a1*|z - tl| + a2*|z - tr|."""

    kind = "s_shaped_relu"

    def __init__(self, width, a0=0.5, b0=0.0, a1=0.5, a2=0.0, tl=0.0, tr=1.0):
        super().__init__(width)
        self.a0 = np.full(width, float(a0))
        self.b0 = np.full(width, float(b0))
        self.a1 = np.full(width, float(a1))
        self.a2 = np.full(width, float(a2))
        self.tl = np.full(width, float(tl))
        self.tr = np.full(width, float(tr))

    def pattern(self, z):
        return (2 * (z - self.tl >= 0) + (z - self.tr >= 0)).astype(np.int8)

    def _signs(self, p):
        s1 = np.where(p >= 2, 1.0, -1.0)
        s2 = np.where(p % 2 == 1, 1.0, -1.0)
        return s1, s2

    def apply(self, z, p):
        s1, s2 = self._signs(p)
        return (self.a0 * z + self.b0 + self.a1 * (s1 * (z - self.tl))
                + self.a2 * (s2 * (z - self.tr)))

    def param_arrays(self):
        return [self.a0, self.b0, self.a1, self.a2, self.tl, self.tr]

    def param_grads(self, z, p, upstream):
        s1, s2 = self._signs(p)
        return [
            np.sum(upstream * z, axis=0),
            np.sum(upstream, axis=0),
            np.sum(upstream * (s1 * (z - self.tl)), axis=0),
            np.sum(upstream * (s2 * (z - self.tr)), axis=0),
            np.sum(upstream * (-self.a1 * s1), axis=0),
            np.sum(upstream * (-self.a2 * s2), axis=0),
        ]

    def affine_view(self, p):
        s1, s2 = self._signs(p)
        slope = self.a0 + self.a1 * s1 + self.a2 * s2
        intercept = self.b0 - self.a1 * s1 * self.tl - self.a2 * s2 * self.tr
        return slope, intercept

    def kinks(self, code):
        eye = np.eye(self.width)
        return np.vstack([eye, eye]), np.concatenate([self.tl, self.tr])


class FlexibleRelu(Activation):
    """max(z + a, 0) + b with learnable shift and level."""

    kind = "flexible_relu"

    def __init__(self, width, a=0.0, b=0.0):
        super().__init__(width)
        self.a = np.full(width, float(a))
        self.b = np.full(width, float(b))

    def pattern(self, z):
        return (z + self.a >= 0).astype(np.int8)

    def apply(self, z, p):
        return (z + self.a) * p + self.b

    def param_arrays(self):
        return [self.a, self.b]

    def param_grads(self, z, p, upstream):
        act = p.astype(float)
        return [np.sum(upstream * act, axis=0), np.sum(upstream, axis=0)]

    def affine_view(self, p):
        act = p.astype(float)
        return act, act * self.a + self.b

    def kinks(self, code):
        return np.eye(self.width), -self.a


class Apl(Activation):
    """max(z, 0) plus S learnable hinge terms a_s * max(0, -z + b_s)."""

    kind = "apl"

    def __init__(self, width, segments=1, a=None, b=None):
        super().__init__(width)
        self.segments = int(segments)
        self.a = (np.zeros((width, self.segments)) if a is None
                  else np.asarray(a, dtype=float).reshape(width, self.segments))
        self.b = (np.zeros((width, self.segments)) if b is None
                  else np.asarray(b, dtype=float).reshape(width, self.segments))

    def pattern(self, z):
        code = (z >= 0).astype(np.int64)
        for s in range(self.segments):
            code = code + ((-z + self.b[:, s] >= 0).astype(np.int64) << (s + 1))
        return code

    def _bits(self, p):
        main = (p & 1).astype(float)
        hinge = [(p >> (s + 1) & 1).astype(float) for s in range(self.segments)]
        return main, hinge

    def apply(self, z, p):
        main, hinge = self._bits(p)
        out = z * main
        for s in range(self.segments):
            out = out + self.a[:, s] * ((-z + self.b[:, s]) * hinge[s])
        return out

    def param_arrays(self):
        return [self.a, self.b]

    def param_grads(self, z, p, upstream):
        main, hinge = self._bits(p)
        ga = np.empty_like(self.a)
        gb = np.empty_like(self.b)
        for s in range(self.segments):
            ga[:, s] = np.sum(upstream * ((-z + self.b[:, s]) * hinge[s]), axis=0)
            gb[:, s] = np.sum(upstream * (self.a[:, s] * hinge[s]), axis=0)
        return [ga, gb]

    def affine_view(self, p):
        main, hinge = self._bits(p)
        slope = main.copy()
        intercept = np.zeros(p.shape[-1])
        for s in range(self.segments):
            slope = slope - self.a[:, s] * hinge[s]
            intercept = intercept + self.a[:, s] * self.b[:, s] * hinge[s]
        return slope, intercept

    def kinks(self, code):
        eye = np.eye(self.width)
        return (np.vstack([eye] * (self.segments + 1)),
                np.concatenate([np.zeros(self.width)]
                               + [self.b[:, s] for s in range(self.segments)]))

    def config(self):
        return {"segments": self.segments}


class Maxout(Activation):
    """Max over groups of k pre-activations; pattern is the argmax index."""

    kind = "maxout"

    def __init__(self, width, k=2):
        super().__init__(width)
        self.k = int(k)
        if self.k < 1:
            raise ValueError("maxout group size must be at least 1")

    def pre_width(self):
        return self.width * self.k

    def _grouped(self, z):
        return z.reshape(z.shape[0], self.width, self.k)

    def pattern(self, z):
        return np.argmax(self._grouped(z), axis=2)

    def apply(self, z, p):
        g = self._grouped(z)
        return np.take_along_axis(g, p[:, :, None].astype(int), axis=2)[:, :, 0]

    def backprop(self, z, p, upstream):
        """Route each unit's upstream gradient to its argmax slot."""
        g = np.zeros((z.shape[0], self.width, self.k))
        np.put_along_axis(g, p[:, :, None].astype(int), upstream[:, :, None], axis=2)
        return g.reshape(z.shape[0], self.width * self.k)

    def restrict(self, J, c, code):
        rows = np.asarray(code, dtype=int) + np.arange(self.width) * self.k
        return J[rows], c[rows]

    def kinks(self, code):
        """One row ``z[other] - z[top]`` per unit and losing slot."""
        eye = np.eye(self.pre_width())
        D = [eye[w * self.k + j] - eye[w * self.k + int(code[w])]
             for w in range(self.width) for j in range(self.k) if j != code[w]]
        return np.array(D).reshape(len(D), self.pre_width()), np.zeros(len(D))

    def config(self):
        return {"k": self.k}


ACTIVATION_KINDS = {
    cls.kind: cls
    for cls in (Relu, LeakyRelu, ParametricRelu, SShapedRelu, FlexibleRelu,
                Apl, Maxout)
}


def make_activation(kind, width, **config):
    if kind in (None, "linear"):
        return None
    if kind not in ACTIVATION_KINDS:
        raise ValueError(f"unknown activation kind {kind!r}; "
                         f"known: {sorted(ACTIVATION_KINDS)} or 'linear'")
    return ACTIVATION_KINDS[kind](width, **config)


# ---------------------------------------------------------------------------
# Network
# ---------------------------------------------------------------------------

class Layer:
    """Dense weights plus an optional activation (None = affine output)."""

    def __init__(self, weight, bias, activation=None):
        self.weight = np.atleast_2d(np.asarray(weight, dtype=float))
        self.bias = np.asarray(bias, dtype=float).ravel()
        if self.weight.shape[0] != self.bias.shape[0]:
            raise ValueError(
                f"{self.weight.shape[0]} weight rows vs {self.bias.shape[0]} biases"
            )
        self.activation = activation
        if activation is not None and activation.pre_width() != self.weight.shape[0]:
            raise ValueError(
                f"activation consumes {activation.pre_width()} pre-activations, "
                f"layer produces {self.weight.shape[0]}"
            )

    @property
    def in_dim(self):
        return self.weight.shape[1]

    @property
    def out_dim(self):
        if self.activation is None:
            return self.weight.shape[0]
        return self.activation.width


class PwlNetwork:
    """Feedforward net; the last layer is affine, hidden layers are PWL."""

    def __init__(self, layers):
        self.layers = list(layers)
        if not self.layers:
            raise ValueError("network needs at least one layer")
        if self.layers[-1].activation is not None:
            raise ValueError("output layer must be affine (activation None)")
        for prev, nxt in zip(self.layers, self.layers[1:]):
            if nxt.in_dim != prev.out_dim:
                raise ValueError(
                    f"layer widths disagree: {prev.out_dim} feeds {nxt.in_dim}"
                )

    @property
    def in_dim(self):
        return self.layers[0].in_dim

    @property
    def dim(self):
        return self.in_dim

    @property
    def out_dim(self):
        return self.layers[-1].out_dim

    @property
    def hidden_unit_count(self):
        return sum(l.activation.width for l in self.layers if l.activation)

    def parameter_count(self):
        count = 0
        for l in self.layers:
            count += l.weight.size + l.bias.size
            if l.activation:
                count += sum(a.size for a in l.activation.param_arrays())
        return count

    def parameters(self):
        """Mutable parameter arrays, in a stable order."""
        out = []
        for l in self.layers:
            out.append(l.weight)
            out.append(l.bias)
            if l.activation:
                out.extend(l.activation.param_arrays())
        return out

    def snapshot(self):
        return [p.copy() for p in self.parameters()]

    def restore(self, snap):
        for p, s in zip(self.parameters(), snap):
            p[...] = s

    def forward_batch(self, X, want_cache=False):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if X.shape[1] != self.in_dim:
            raise DimensionMismatchError(self.in_dim, X.shape[1], what="input")
        a = X
        cache = []
        for l in self.layers:
            z = a @ l.weight.T + l.bias
            if l.activation is None:
                out, pattern = z, None
            else:
                out, pattern = l.activation.forward(z)
            cache.append((a, z, pattern))
            a = out
        if want_cache:
            return a, cache
        return a

    def forward(self, x):
        """Single-point forward returning the output vector and the cache."""
        out, cache = self.forward_batch(np.atleast_1d(np.asarray(x, dtype=float))[None, :],
                                        want_cache=True)
        return out[0], cache

    def value(self, x):
        out, _ = self.forward(x)
        if out.shape[0] != 1:
            raise ValueError("value() needs a single-output network")
        return float(out[0])

    def values(self, points):
        out = self.forward_batch(as_points(points, self.in_dim))
        if out.shape[1] != 1:
            raise ValueError("values() needs a single-output network")
        return out[:, 0]


def network_from_sizes(sizes, activation="relu", maxout_k=2, **config):
    """Zero-initialized network from layer sizes m0..m_{K+1}."""
    layers = []
    for i in range(len(sizes) - 1):
        is_output = i == len(sizes) - 2
        width = sizes[i + 1]
        if is_output:
            act = None
            rows = width
        else:
            act = make_activation(activation, width,
                                  **({"k": maxout_k} if activation == "maxout"
                                     else config))
            rows = act.pre_width()
        layers.append(Layer(np.zeros((rows, sizes[i])), np.zeros(rows), act))
    return PwlNetwork(layers)


# "scaled-normal-for-rectifiers" is accepted as a long-form alias
INIT_SCHEMES = ("scaled-normal", "scaled-normal-for-rectifiers", "uniform")


def init_params(net, scheme="scaled-normal", seed=0):
    """Seeded in-place init; the scaled-normal schemes draw variance
    2/fan_in weights (rectifier-aware); biases start at zero."""
    if scheme not in INIT_SCHEMES:
        raise ValueError(f"unknown init scheme {scheme!r}")
    rng = np.random.default_rng(seed)
    for l in net.layers:
        fan_in = l.in_dim
        if fan_in < 1 or l.weight.shape[0] < 1:
            raise ValueError("zero-size layer cannot be initialized")
        if scheme == "uniform":
            r = 1.0 / np.sqrt(fan_in)
            l.weight[...] = rng.uniform(-r, r, l.weight.shape)
        else:
            l.weight[...] = rng.normal(0.0, np.sqrt(2.0 / fan_in), l.weight.shape)
        l.bias[...] = 0.0
    return net


# ---------------------------------------------------------------------------
# Backpropagation
# ---------------------------------------------------------------------------

def _check_finite(arrays, layer_index):
    for a in arrays:
        if not np.all(np.isfinite(a)):
            raise NonFiniteLossError(layer_index)


def backward_batch(net, X, y):
    """Mean-squared-error gradients over a batch.

    Loss is ``mean_i |out_i - y_i|^2``; returns (loss, grads) with grads
    ordered like ``net.parameters()``.  Kink derivatives follow the branch
    the forward pass chose (right derivative).
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.asarray(y, dtype=float)
    if y.ndim == 1:
        y = y[:, None]
    out, cache = net.forward_batch(X, want_cache=True)
    B = X.shape[0]
    for idx, (_, z, _) in enumerate(cache):
        _check_finite([z], idx)
    diff = out - y
    loss = float(np.mean(np.sum(diff * diff, axis=1)))
    if not np.isfinite(loss):
        raise NonFiniteLossError(len(net.layers) - 1)

    per_layer = []
    upstream = 2.0 * diff / B      # d loss / d output
    for layer, (a_in, z, pattern) in zip(reversed(net.layers), reversed(cache)):
        act_grads = []
        if layer.activation is None:
            dz = upstream
        else:
            act_grads = layer.activation.param_grads(z, pattern, upstream)
            dz = layer.activation.backprop(z, pattern, upstream)
        per_layer.append([dz.T @ a_in, np.sum(dz, axis=0)] + act_grads)
        upstream = dz @ layer.weight
    return loss, [g for grads in reversed(per_layer) for g in grads]


def backward(net, x, y):
    """Single-point gradients; convenience wrapper over the batch path."""
    return backward_batch(net, np.atleast_1d(np.asarray(x, dtype=float))[None, :],
                          np.atleast_1d(np.asarray(y, dtype=float))[None, :])


def gradient_check(net, x, y, step=1e-6):
    """Relative error of every parameter gradient vs central differences."""
    _, grads = backward(net, x, y)
    params = net.parameters()
    worst = 0.0
    for p, g in zip(params, grads):
        flat_p = p.ravel()
        flat_g = np.asarray(g, dtype=float).ravel()
        for idx in range(flat_p.size):
            keep = flat_p[idx]
            flat_p[idx] = keep + step
            lp, _ = backward(net, x, y)
            flat_p[idx] = keep - step
            lm, _ = backward(net, x, y)
            flat_p[idx] = keep
            fd = (lp - lm) / (2.0 * step)
            scale = max(1.0, abs(fd), abs(flat_g[idx]))
            worst = max(worst, abs(fd - flat_g[idx]) / scale)
    return worst


@dataclass
class TrainConfig:
    learning_rate: float = 0.01
    batch_size: int = 32
    epochs: int = 100
    seed: int = 0
    loss: str = "squared"
    init: str = "scaled-normal"

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        if self.epochs < 0:
            raise ValueError("epochs must be nonnegative")
        if self.loss != "squared":
            raise ValueError("only squared-error loss is supported")
        if self.init not in INIT_SCHEMES:
            raise ValueError(f"unknown init scheme {self.init!r}")


DIVERGENCE_LIMIT = 1e12


def train_sgd(net, data, cfg):
    """Seeded mini-batch SGD; aborts to the last finite state on divergence.

    Returns the trained net and the per-epoch mean-loss curve.
    """
    rng = np.random.default_rng(cfg.seed)
    X, y = data.inputs, data.targets
    curve = []
    good = net.snapshot()
    for _epoch in range(cfg.epochs):
        perm = rng.permutation(data.size)
        for start in range(0, data.size, cfg.batch_size):
            idx = perm[start:start + cfg.batch_size]
            try:
                _, grads = backward_batch(net, X[idx], y[idx])
            except NonFiniteLossError:
                net.restore(good)
                return net, np.array(curve)
            for p, g in zip(net.parameters(), grads):
                p -= cfg.learning_rate * np.asarray(g, dtype=float).reshape(p.shape)
        epoch_loss = float(np.mean((net.forward_batch(X)[:, 0] - y) ** 2))
        if not np.isfinite(epoch_loss) or epoch_loss > DIVERGENCE_LIMIT:
            net.restore(good)
            return net, np.array(curve)
        good = net.snapshot()
        curve.append(epoch_loss)
    return net, np.array(curve)


# ---------------------------------------------------------------------------
# Activation patterns and region analysis
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ActivationPattern:
    """Discrete branch state of every hidden unit, one array per layer."""

    codes: tuple   # tuple of int arrays, one per hidden layer

    def key(self):
        return b"|".join(np.ascontiguousarray(c).tobytes() for c in self.codes)

    def __eq__(self, other):
        return isinstance(other, ActivationPattern) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())


def activation_pattern(net, x):
    """Branch state at a point; fixing it makes the network affine."""
    _, cache = net.forward(x)
    codes = tuple(p[0] for (_, _, p) in cache if p is not None)
    return ActivationPattern(codes)


def local_affine_map(net, pattern):
    """Composed (J, c) of the network on the pattern's region.

    Built deterministically from the pattern and the parameters alone, so
    equal patterns give bit-identical coefficients.
    """
    for _act, _code, J, c in _pre_activation_maps(net, pattern):
        pass    # the output layer is affine: its pre-activation is the output
    return J, c


def _pre_activation_maps(net, pattern):
    """Per layer ``(activation, code, J, c)``: ``z = J x + c`` on the region."""
    n = net.in_dim
    J = np.eye(n)
    c = np.zeros(n)
    codes = iter(pattern.codes)
    for layer in net.layers:
        J = layer.weight @ J
        c = layer.weight @ c + layer.bias
        act = layer.activation
        code = None if act is None else next(codes)
        yield act, code, J, c
        if act is not None:
            J, c = act.restrict(J, c, code)


def masked_forward(net, pattern, x):
    """Replay the forward pass with branch decisions frozen to a pattern.

    At the pattern's own witness points this reproduces forward() exactly,
    operation for operation.
    """
    a = np.atleast_1d(np.asarray(x, dtype=float))[None, :]
    hidden = 0
    for layer in net.layers:
        z = a @ layer.weight.T + layer.bias
        if layer.activation is None:
            a = z
        else:
            a = layer.activation.apply(z, pattern.codes[hidden][None, :])
            hidden += 1
    return a[0]


def _patterns_of_batch(net, X):
    X = np.atleast_2d(np.asarray(X, dtype=float))
    _, cache = net.forward_batch(X, want_cache=True)
    per_layer = [p for (_, _, p) in cache if p is not None]
    out = []
    for i in range(X.shape[0]):
        out.append(ActivationPattern(tuple(p[i] for p in per_layer)))
    return out


def _pattern_margin(net, x):
    """Smallest |pre-activation distance to a branch change| at x."""
    _, cache = net.forward(x)
    worst = np.inf
    for layer, (_, z, code) in zip(net.layers, cache):
        if layer.activation is not None:
            D, t = layer.activation.kinks(code[0])
            worst = min(worst, float(np.min(np.abs(D @ z[0] - t), initial=np.inf)))
    return worst


def zaslavsky_bound(m, n):
    """Maximal regions cut from dimension-n space by m hyperplanes."""
    if m < 0 or n < 0:
        raise ValueError("counts must be nonnegative")
    return sum(comb(m, j) for j in range(0, min(m, n) + 1))


@dataclass
class RegionCertificate:
    point: np.ndarray
    jacobian: np.ndarray
    bias: np.ndarray


@dataclass
class RegionCount:
    count: int
    method: str
    certificates: list
    bound: int | None   # arrangement bound, one-hidden-layer nets only


def _one_hidden_relu_like(net):
    return (len(net.layers) == 2
            and isinstance(net.layers[0].activation, (Relu, LeakyRelu,
                                                      ParametricRelu,
                                                      FlexibleRelu)))


def count_regions(net, box, method="pattern-enumeration", grid_density=None):
    """Count linear pieces of the network map inside a box.

    ``grid-probe`` counts distinct composed affine maps over a dense grid
    (a certified lower bound).  ``pattern-enumeration`` additionally walks
    across every unit's local boundary from each discovered region, which
    reaches regions a coarse grid misses; it refuses nets above the
    enumeration budget.
    """
    lo = np.atleast_1d(np.asarray(box[0], dtype=float))
    hi = np.atleast_1d(np.asarray(box[1], dtype=float))
    n = net.in_dim
    if method == "grid-probe":
        density = grid_density or (201 if n <= 2 else 31)
        pts = grid_points(lo, hi, density)
        seen = {}
        for x, pat in zip(pts, _patterns_of_batch(net, pts)):
            J, c = local_affine_map(net, pat)
            key = (J.tobytes(), c.tobytes())
            if key not in seen:
                seen[key] = RegionCertificate(x.copy(), J, c)
        certs = list(seen.values())
        return RegionCount(len(certs), method, certs, _bound_if_shallow(net, n))
    if method != "pattern-enumeration":
        raise ValueError(f"unknown method {method!r}")
    if net.hidden_unit_count > ENUMERATION_BUDGET:
        raise BudgetExceededError(net.hidden_unit_count, ENUMERATION_BUDGET)

    density = grid_density or (41 if n <= 2 else 11)
    pts = grid_points(lo, hi, density)
    queue = []
    seen = {}
    for x, pat in zip(pts, _patterns_of_batch(net, pts)):
        if pat not in seen:
            seen[pat] = x.copy()
            queue.append((pat, x.copy()))
    span = float(np.max(hi - lo))
    while queue:
        pat, x = queue.pop()
        for x2 in _boundary_crossings(net, pat, x, lo, hi, span):
            p2 = _patterns_of_batch(net, x2[None, :])[0]
            if p2 not in seen:
                seen[p2] = x2.copy()
                queue.append((p2, x2.copy()))
    certs = []
    for pat, x in seen.items():
        J, c = local_affine_map(net, pat)
        certs.append(RegionCertificate(x, J, c))
    return RegionCount(len(certs), method, certs, _bound_if_shallow(net, n))


def _bound_if_shallow(net, n):
    if _one_hidden_relu_like(net):
        return zaslavsky_bound(net.layers[0].activation.width, n)
    return None


def _boundary_crossings(net, pattern, x, lo, hi, span):
    """Candidate witness points just across each unit's local boundary."""
    out = []
    for act, code, Jz, cz in _pre_activation_maps(net, pattern):
        if act is None:
            continue
        D, t = act.kinks(code)
        # boundary r is the hyperplane D[r] . (Jz x + cz) = t[r] on this region
        for gdir, gval in zip(D @ Jz, D @ (Jz @ x + cz) - t):
            norm2 = float(gdir @ gdir)
            if norm2 <= 1e-18:
                continue
            # step across the local hyperplane with a small overshoot
            for overshoot in (1e-7 * span, 1e-4 * span):
                x2 = x - ((gval + np.sign(gval or 1.0) * overshoot) / norm2) * gdir
                x2 = np.clip(x2, lo, hi)
                out.append(x2)
    return out
