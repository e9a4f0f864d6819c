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
from itertools import islice
from math import comb, isfinite

import numpy as np

from .affine import as_box, as_points, grid_points
from .errors import (
    BudgetExceededError,
    DimensionMismatchError,
    InvalidInputError,
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

    def thresholds(self):
        """Per-unit kink thresholds, ``(kinks per unit, width)``; 0 for a relu."""
        return np.zeros((1, self.width))

    def kinks(self, code):
        """Boundaries of a pattern's branch, or of stacked patterns ``(...,
        width)``, as ``(D, t)`` of shapes ``(..., rows, pre_width)`` and
        ``(..., rows)``: row ``r`` is the branch change where ``D[r] . z - t[r]``
        changes sign, ``z`` being the layer's pre-activation vector."""
        t = self.thresholds().ravel()
        D = np.tile(np.eye(self.width), (t.shape[0] // self.width, 1))
        lead = np.shape(code)[:-1]
        return np.broadcast_to(D, lead + D.shape), np.broadcast_to(t, lead + t.shape)

    def restrict(self, J, c, code):
        """Compose the pre-activation map ``z = J x + c`` with a frozen branch.

        ``code`` may stack patterns, ``(..., width)``, with ``J`` of shape
        ``(..., width, n)`` and ``c`` of shape ``(..., width)``."""
        slope, intercept = self.affine_view(code)
        slope = np.asarray(slope, dtype=float)
        return slope[..., None] * J, slope * c + intercept

    def backprop(self, z, pattern, upstream):
        """d(loss)/d(pre-activation) from d(loss)/d(output)."""
        return upstream * self.grad_z(z, pattern)

    def config(self):
        """Fixed (non-learnable) settings for serialization."""
        return {}


def _on(p):
    """The on-branch mask of a 0/1 code; a view, not a copy, of int8 codes."""
    return p.view(bool) if p.dtype == np.int8 else p == 1


class Relu(Activation):
    kind = "relu"

    def pattern(self, z):
        return (z >= 0).view(np.int8)

    def apply(self, z, p):
        return z * p

    def backprop(self, z, p, upstream):
        return upstream * p

    def affine_view(self, p):
        return p.astype(float), np.zeros(p.shape[-1])


class LeakyRelu(Activation):
    kind = "leaky_relu"

    def __init__(self, width, lam=0.01):
        super().__init__(width)
        self.lam = float(lam)

    def pattern(self, z):
        return (z >= 0).view(np.int8)

    def apply(self, z, p):
        out = self.lam * z
        np.putmask(out, _on(p), z)
        return out

    def backprop(self, z, p, upstream):
        g = upstream * self.lam
        np.putmask(g, _on(p), upstream)
        return g

    def affine_view(self, p):
        return np.where(p == 1, 1.0, self.lam), np.zeros(p.shape[-1])

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

    def thresholds(self):
        return np.stack([self.tl, self.tr])


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

    def thresholds(self):
        return -self.a[None]


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

    def thresholds(self):
        return np.vstack([np.zeros(self.width), self.b.T])

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
        """``np.argmax`` over each unit's k slots as a left-to-right chain of
        comparisons, far faster on short groups: the lowest slot wins a tie
        and the first NaN wins, as in ``np.argmax``."""
        g = self._grouped(z)
        top = g[:, :, 0]
        code = np.zeros(top.shape, dtype=np.intp)
        for j in range(1, self.k):
            v = g[:, :, j]
            take = ~(v <= top) & (top == top)     # greater, or a NaN after none
            code = take.astype(np.intp) if j == 1 else np.where(take, j, code)
            if j + 1 < self.k:
                top = np.where(take, v, top)
        return code

    def _slots(self, p):
        """Flat index ``p + unit·k + row·width·k`` of each unit's chosen slot in
        an ``(N, width * k)`` array."""
        slots = np.arange(0, p.shape[0] * self.width * self.k, self.k).reshape(p.shape)
        slots += p
        return slots

    def apply(self, z, p):
        return np.take(z, self._slots(p))

    def backprop(self, z, p, upstream):
        """Route each unit's upstream gradient to its argmax slot."""
        g = np.zeros(z.shape[0] * self.width * self.k)
        g[self._slots(p)] = upstream
        return g.reshape(z.shape[0], self.width * self.k)

    def restrict(self, J, c, code):
        rows = np.asarray(code, dtype=int) + np.arange(self.width) * self.k
        return (np.take_along_axis(J, rows[..., None], axis=-2),
                np.take_along_axis(c, rows, axis=-1))

    def kinks(self, code):
        """One row ``z[other] - z[top]`` per unit and losing slot, unit by unit."""
        code = np.asarray(code, dtype=int)
        others = np.arange(self.k - 1) + (np.arange(self.k - 1) >= code[..., None])
        first, eye = np.arange(self.width) * self.k, np.eye(self.pre_width())
        D = eye[first[:, None] + others] - eye[first + code][..., None, :]
        D = D.reshape(code.shape[:-1] + (-1, self.pre_width()))
        return D, np.zeros(D.shape[:-1])

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
        _restore(self.parameters(), snap)

    def forward_batch(self, X, want_cache=False):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if X.shape[1] != self.in_dim:
            raise DimensionMismatchError(self.in_dim, X.shape[1], what="input")
        out, cache = _forward(_bound_layers(self), X)
        if want_cache:
            return out, cache
        return out

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


def _bound_layers(net, grads=None):
    """Per layer ``(W, W.T, b, activation, dW, db)``.  The arrays are the
    parameters themselves, so in-place updates show through a binding kept
    across steps; ``grads`` holds per layer the ``(dW, db)`` arrays that
    ``_loss_and_grads`` writes (None for a forward-only binding)."""
    grads = grads or [(None, None)] * len(net.layers)
    return [(l.weight, l.weight.T, l.bias, l.activation, dW, db)
            for l, (dW, db) in zip(net.layers, grads)]


def _flat(layers):
    """One flat float64 buffer and, per layer, ``(weight, bias)``-shaped views
    of it, laid out layer by layer, the weight before the bias."""
    buf = np.empty(sum(l.weight.size + l.bias.size for l in layers))
    views, start = [], 0
    for l in layers:
        mid = start + l.weight.size
        end = mid + l.bias.size
        views.append((buf[start:mid].reshape(l.weight.shape), buf[mid:end]))
        start = end
    return buf, views


def _forward(bound, X, zs=None):
    """Forward pass over bound layers: the output and, per layer, the
    ``(input, pre-activation, pattern)`` cache that gradients need.

    ``zs``, if given, holds per layer an array that receives its
    pre-activations, so a pass repeated on the same rows allocates no new
    pre-activation arrays."""
    a = X
    cache = []
    for i, (_W, WT, b, act, _dW, _db) in enumerate(bound):
        z = np.matmul(a, WT) if zs is None else np.matmul(a, WT, out=zs[i])
        z += b
        if act is None:
            out, pattern = z, None
        else:
            out, pattern = act.forward(z)
        cache.append((a, z, pattern))
        a = out
    return a, cache


def network_from_sizes(sizes, activation="relu", maxout_k=2, **config):
    """Zero-initialized network from layer sizes m0..m_{K+1}."""
    layers = []
    for i in range(len(sizes) - 1):
        act = None
        if i < len(sizes) - 2:      # hidden layer; "linear" leaves it affine
            act = make_activation(activation, sizes[i + 1],
                                  **({"k": maxout_k} if activation == "maxout"
                                     else config))
        rows = sizes[i + 1] if act is None else act.pre_width()
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

def _loss_and_grads(bound, X, Y):
    """Mean-squared-error loss and gradients on one ``(B, n)``/``(B, out)`` batch.

    Each layer's weight and bias gradients are written into its bound
    ``(dW, db)``; returns the loss and, per layer, the activation's parameter
    gradients (a list, empty for none).

    Finiteness is tested once, on the sum of every hidden pre-activation and
    the loss (a non-finite output, the affine output layer's pre-activation,
    makes the loss non-finite); only when that sum is not finite are the
    layers scanned in order, so the error names the first non-finite layer
    (the output layer for a non-finite loss), and a sum that merely
    overflowed passes.
    """
    out, cache = _forward(bound, X)
    diff = out - Y
    loss = float(np.add.reduce(np.add.reduce(diff * diff, axis=1)) / X.shape[0])
    if not isfinite(loss + sum(float(np.add.reduce(z, None)) for _, z, _ in cache[:-1])):
        for idx, (_, z, _) in enumerate(cache):
            if not np.all(np.isfinite(z)):
                raise NonFiniteLossError(idx)
        if not isfinite(loss):
            raise NonFiniteLossError(len(cache) - 1)

    act_grads = [[]] * len(bound)
    upstream = 2.0 * diff / X.shape[0]      # d loss / d output
    for i in range(len(bound) - 1, -1, -1):
        W, _, _, act, dW, db = bound[i]
        a_in, z, pattern = cache[i]
        if act is None:
            dz = upstream
        else:
            act_grads[i] = act.param_grads(z, pattern, upstream)
            dz = act.backprop(z, pattern, upstream)
        np.add.reduce(dz, axis=0, out=db)
        np.matmul(dz.T, a_in, out=dW)
        if i:       # the first layer's input gradient is never read
            upstream = np.matmul(dz, W)
    return loss, act_grads


def backward_batch(net, X, y):
    """Mean-squared-error gradients over a batch.

    Loss is ``mean_i |out_i - y_i|^2``; returns (loss, grads) with grads
    ordered like ``net.parameters()``.  Kink derivatives follow the branch
    the forward pass chose (right derivative).
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[1] != net.in_dim:
        raise DimensionMismatchError(net.in_dim, X.shape[1], what="input")
    y = np.asarray(y, dtype=float)
    if y.ndim == 1:
        y = y[:, None]
    _, views = _flat(net.layers)
    loss, act_grads = _loss_and_grads(_bound_layers(net, views), X, y)
    return loss, [g for (dW, db), ag in zip(views, act_grads) for g in (dW, db, *ag)]


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

    Returns the trained net and the per-epoch mean-loss curve.  The layers'
    weights and biases train as views of one flat vector, updated in one
    ``theta -= lr * G`` per step, which is the per-array update ``p -= lr * g``
    element by element; they are copied back into the net's own arrays at
    the end.  Learnable activation arrays are updated in place.
    """
    rng = np.random.default_rng(cfg.seed)
    X, y = data.inputs, data.targets
    if X.shape[1] != net.in_dim:
        raise DimensionMismatchError(net.in_dim, X.shape[1], what="input")
    if net.out_dim != 1:
        raise DimensionMismatchError(1, net.out_dim, what="output")
    Y = y[:, None]
    layers = net.layers
    theta, params = _flat(layers)
    G, grads = _flat(layers)
    T = np.empty_like(theta)
    for l, (W, b) in zip(layers, params):
        W[...] = l.weight
        b[...] = l.bias
    bound = [(W, W.T, b, l.activation, dW, db)
             for l, (W, b), (dW, db) in zip(layers, params, grads)]
    # the arrays a divergence restores: theta and the learnable activation arrays
    state = [theta] + [a for l in layers if l.activation for a in l.activation.param_arrays()]
    # each epoch's shuffled rows and the epoch loss's pre-activations reuse
    # these arrays, so no epoch allocates data-sized arrays for them afresh
    Xp, Yp = np.empty(X.shape), np.empty(Y.shape)
    zs = [np.empty((data.size, W.shape[0])) for W, _ in params]
    lr = cfg.learning_rate
    curve = []
    good = [a.copy() for a in state]
    try:
        for _epoch in range(cfg.epochs):
            perm = rng.permutation(data.size)
            np.take(X, perm, axis=0, out=Xp)
            np.take(Y, perm, axis=0, out=Yp)
            for start in range(0, data.size, cfg.batch_size):
                stop = start + cfg.batch_size
                try:
                    _, act_grads = _loss_and_grads(bound, Xp[start:stop], Yp[start:stop])
                except NonFiniteLossError:
                    _restore(state, good)
                    return net, np.array(curve)
                np.multiply(G, lr, out=T)
                theta -= T
                for p, g in zip(state[1:], (g for ag in act_grads for g in ag)):
                    p -= lr * g
            epoch_loss = float(np.mean((_forward(bound, X, zs)[0][:, 0] - y) ** 2))
            if not np.isfinite(epoch_loss) or epoch_loss > DIVERGENCE_LIMIT:
                _restore(state, good)
                return net, np.array(curve)
            good = [a.copy() for a in state]
            curve.append(epoch_loss)
        return net, np.array(curve)
    finally:
        for l, (W, b) in zip(layers, params):
            l.weight[...] = W
            l.bias[...] = b


def _restore(arrays, snapshot):
    """Copy a snapshot back into the arrays it was taken from."""
    for a, s in zip(arrays, snapshot):
        a[...] = s


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
    return _patterns_of_batch(net, np.atleast_1d(x)[None, :])[0]


def local_affine_map(net, pattern):
    """Composed (J, c) of the network on the pattern's region.

    Built deterministically from the pattern and the parameters alone, so
    equal patterns give bit-identical coefficients.
    """
    # the output layer is affine: its pre-activation is the output
    J, c = _compose(net, [code[None, :] for code in pattern.codes])[-1]
    return J[0], c[0]


def _compose(net, codes):
    """Each layer's pre-activation map ``z = J[r] x + c[r]`` on the regions of
    R patterns, as ``(J, c)`` of shapes ``(R, rows, n)`` and ``(R, rows)``.

    ``codes`` holds per hidden layer the ``(R, width)`` codes of the patterns
    (R is 1 for a net without hidden units, whose one pattern has no codes).
    A stacked ``np.matmul`` makes, per pattern, the BLAS call that the
    pattern's own 2-D product makes, so each pattern's maps have the bits of
    its composition alone."""
    n = net.in_dim
    R = codes[0].shape[0] if codes else 1
    J = np.broadcast_to(np.eye(n), (R, n, n))
    c = np.zeros((R, n))
    codes = iter(codes)
    maps = []
    for layer in net.layers:
        J = np.matmul(layer.weight, J)
        c = np.matmul(layer.weight, c[..., None])[..., 0] + layer.bias
        maps.append((J, c))
        if layer.activation is not None:
            J, c = layer.activation.restrict(J, c, next(codes))
    return maps


def masked_forward(net, pattern, x):
    """Replay the forward pass with branch decisions frozen to a pattern.

    At the pattern's own witness points this reproduces forward() exactly,
    operation for operation.
    """
    a = np.atleast_1d(np.asarray(x, dtype=float))[None, :]
    codes = iter(pattern.codes)
    for layer in net.layers:
        a = a @ layer.weight.T + layer.bias
        if layer.activation is not None:
            a = layer.activation.apply(a, next(codes)[None, :])
    return a[0]


def _hidden_codes(net, X):
    """The points as an ``(N, n)`` array and each hidden layer's codes there."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    _, cache = net.forward_batch(X, want_cache=True)
    return X, [p for (_, _, p) in cache if p is not None]


def _patterns_of_batch(net, X):
    X, per_layer = _hidden_codes(net, X)
    return [ActivationPattern(tuple(p[i] for p in per_layer)) for i in range(X.shape[0])]


def _distinct_patterns(net, X, owner=None):
    """The first row of each distinct pattern at the rows of X, in order of
    first appearance, found in one forward pass: those rows' codes per hidden
    layer (the layers' own dtypes), their codes as one opaque key each, and
    their indices.

    With ``owner`` (a nondecreasing group index per row) a pattern is
    distinct per group: the first rows are those of each group in turn."""
    X, per_layer = _hidden_codes(net, X)
    # the integer codes of a row as one opaque item: np.unique sorts these far
    # faster than along axis=0, with the same first index per distinct row.
    # The leading zero column keeps a row non-empty for a net without hidden
    # units, whose rows then all share one pattern; as int8 it widens no
    # layer's codes (int8 for the relu family), and the common dtype holds
    # every code exactly, so equal rows are equal items.
    codes = np.concatenate([np.zeros((X.shape[0], 1), np.int8)] + per_layer, axis=1)
    keys = codes.view(np.dtype((np.void, codes.itemsize * codes.shape[1])))[:, 0]
    items = keys
    if owner is not None:
        ids = np.unique(keys, return_inverse=True)[1]
        items = owner * (np.max(ids, initial=0) + 1) + ids
    first = np.sort(np.unique(items, return_index=True)[1])
    return [p[first] for p in per_layer], keys[first], first


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


def count_regions(net, box, method="pattern-enumeration", grid_density=None):
    """Lower bounds on the linear regions of the network map inside a box.

    Both methods seed from the distinct activation patterns on a grid over
    the box; neither is exhaustive.  ``grid-probe`` counts the distinct
    composed affine maps ``(J, c)`` of the patterns on a dense grid.
    ``pattern-enumeration`` counts the activation patterns that a heuristic
    walk from a coarse grid reaches by stepping just across each unit's local
    boundary; it refuses nets above the enumeration budget.
    """
    n = net.in_dim
    lo, hi = as_box(box, n)
    if grid_density is not None and not grid_density >= 1:
        raise InvalidInputError(f"grid density {grid_density!r} is below 1")
    if method == "grid-probe":
        X = grid_points(lo, hi, grid_density or (201 if n <= 2 else 31))
        codes, _, first = _distinct_patterns(net, X)
        J, c = _compose(net, codes)[-1]
        seen = {}
        for i, Ji, ci in zip(first, J, c):
            seen.setdefault((Ji.tobytes(), ci.tobytes()),
                            RegionCertificate(X[i].copy(), Ji, ci))
        certs = list(seen.values())
        return RegionCount(len(certs), method, certs, _arrangement_bound(net))
    if method != "pattern-enumeration":
        raise ValueError(f"unknown method {method!r}")
    if net.hidden_unit_count > ENUMERATION_BUDGET:
        raise BudgetExceededError(net.hidden_unit_count, ENUMERATION_BUDGET)
    walk = _Walk(net, lo, hi)
    walk.run(grid_points(lo, hi, grid_density or (41 if n <= 2 else 11)))
    certs = [RegionCertificate(x, *m) for x, m in zip(walk.points, walk.maps)]
    return RegionCount(len(certs), method, certs, _arrangement_bound(net))


def _arrangement_bound(net):
    """Zaslavsky bound for one-hidden-layer relu-like nets, else None."""
    first = net.layers[0].activation
    if len(net.layers) == 2 and isinstance(first, (Relu, LeakyRelu, ParametricRelu,
                                                   FlexibleRelu)):
        return zaslavsky_bound(first.width, net.in_dim)
    return None


# Regions whose boundary crossings one batch of the walk computes at most; it
# bounds the batch's arrays for wide nets in n-D.
WALK_BATCH = 32


class _Walk:
    """The depth-first boundary walk of ``pattern-enumeration``, in batches.

    Region r, numbered in order of discovery, is its activation pattern
    (``codes[r]``, one row per hidden layer) and its witness ``points[r]``.
    Popping region r replays the distinct patterns of the points just across
    its local boundaries, in order of first appearance, and queues those not
    yet seen.  Those patterns depend on the region's pattern and witness
    alone, both fixed when it is found, so whenever a popped region has not
    been computed, it is computed together with up to ``WALK_BATCH - 1``
    queued regions nearest the top that have not been either: one stacked
    composition and one forward pass per batch, and the same pops, regions
    and witnesses as a walk that computes each region when it is popped.
    """

    def __init__(self, net, lo, hi):
        self.net, self.lo, self.hi = net, lo, hi
        self.span = float(np.max(hi - lo))
        self.seen = {}          # code-row bytes -> region number
        self.points, self.codes = [], []
        self.maps = []          # (J, c) of the network map, once computed
        self.queue = []
        self.found = {}         # computed, unpopped region -> its crossings' patterns

    def first_rows(self, X, owner=None, groups=1):
        """Per group of rows of X, the arguments of ``add`` for its distinct
        patterns: the first rows' codes per hidden layer, keys (bytes) and
        points, all copies, so the arrays of X's rows are freed."""
        codes, keys, first = _distinct_patterns(self.net, X, owner)
        kept = (codes, keys.tolist(), X[first])
        bounds = ([0, len(first)] if owner is None
                  else np.searchsorted(owner[first], np.arange(groups + 1)))
        return [(*kept, range(a, b)) for a, b in zip(bounds[:-1], bounds[1:])]

    def add(self, per_layer, keys, X, rows):
        """Number and queue the patterns of the given rows not yet seen,
        each with a copy of its point and codes."""
        for i in rows:
            if keys[i] not in self.seen:
                self.seen[keys[i]] = len(self.points)
                self.queue.append(len(self.points))
                self.points.append(X[i].copy())
                self.codes.append([p[i].copy() for p in per_layer])
                self.maps.append(None)

    def run(self, X):
        """Walk from the distinct patterns at the rows of X."""
        self.add(*self.first_rows(X)[0])
        while self.queue:
            r = self.queue.pop()
            if r not in self.found:
                rest = (q for q in reversed(self.queue) if q not in self.found)
                self._compute([r, *islice(rest, WALK_BATCH - 1)])
            self.add(*self.found.pop(r))

    def _compute(self, batch):
        """Compose the batch's regions and find the distinct patterns just
        across each one's local boundaries."""
        net, n = self.net, self.net.in_dim
        X = np.array([self.points[r] for r in batch])
        codes = [np.array(rows) for rows in zip(*(self.codes[r] for r in batch))]
        maps = _compose(net, codes)
        J, c = maps[-1]
        for b, r in enumerate(batch):
            self.maps[r] = (J[b], c[b])
        # boundary k of region b is the hyperplane D[b, k] . (J[b] x + c[b]) = t[b, k]
        G, gval = [np.empty((len(batch), 0, n))], [np.empty((len(batch), 0))]
        hidden = [(l.activation, m) for l, m in zip(net.layers, maps) if l.activation]
        for (act, (Jz, cz)), code in zip(hidden, codes):
            D, t = act.kinks(code)
            G.append(np.matmul(D, Jz))
            z = np.matmul(Jz, X[:, :, None])[..., 0] + cz
            gval.append(np.matmul(D, z[..., None])[..., 0] - t)
        G, gval = np.concatenate(G, axis=1), np.concatenate(gval, axis=1)
        # one dot product per row, a (1 x n) @ (n x 1) product: a batched
        # reduction rounds differently
        norm2 = np.matmul(G[..., None, :], G[..., None])[..., 0, 0]
        keep = ~(norm2 <= 1e-18)
        G, gval, norm2 = G[keep], gval[keep], norm2[keep]
        owner = np.repeat(np.arange(len(batch)), np.count_nonzero(keep, axis=1))
        # step across the local hyperplane with a small, then a larger overshoot
        side = np.where(gval == 0, 1.0, np.sign(gval))
        shift = side[:, None] * (np.array([1e-7, 1e-4]) * self.span)
        step = (gval[:, None] + shift) / norm2[:, None]
        cross = np.clip(X[owner][:, None, :] - step[:, :, None] * G[:, None, :],
                        self.lo, self.hi).reshape(-1, n)
        self.found.update(zip(batch, self.first_rows(cross, np.repeat(owner, 2),
                                                     len(batch))))
