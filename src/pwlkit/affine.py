"""Affine functions: the atom every piecewise-linear representation is built from."""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionMismatchError, InvalidInputError, NonFiniteValueError


def as_vector(v, name="vector"):
    """Coerce to a read-only 1-D float array."""
    a = np.atleast_1d(np.asarray(v, dtype=float))
    if a.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {a.shape}")
    a = a.copy()
    a.setflags(write=False)
    return a


def as_points(points, dim):
    """Coerce to an (N, dim) float array.

    A 1-D input is N points when ``dim`` is 1 and a single point otherwise.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim == 1:
        points = points[:, None] if dim == 1 else points[None, :]
    if points.shape[1] != dim:
        raise DimensionMismatchError(dim, points.shape[1], what="points")
    return points


def as_box(box, dim):
    """Coerce a ``(lo, hi)`` pair to two (dim,) float arrays, or raise
    InvalidInputError unless both are finite and ``lo < hi`` on every axis."""
    try:
        lo, hi = (np.atleast_1d(np.asarray(b, dtype=float)) for b in box)
    except (TypeError, ValueError) as e:
        raise InvalidInputError(f"a box is a (lo, hi) pair of bounds: {e}") from None
    if lo.shape != (dim,) or hi.shape != (dim,):
        raise InvalidInputError(f"box bounds have shapes {lo.shape} and {hi.shape}, "
                                f"expected ({dim},)")
    if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
        raise InvalidInputError(f"box bounds {lo.tolist()} and {hi.tolist()} are not finite")
    if not np.all(lo < hi):
        raise InvalidInputError(f"box bounds {lo.tolist()} and {hi.tolist()} are not "
                                "lo < hi on every axis")
    return lo, hi


def finite_values(model, points, what="the model"):
    """``model.values(points)`` of an (N, dim) array, or NonFiniteValueError
    naming the first finite point where a value is not finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        values = model.values(points)
    bad = ~np.isfinite(values) & np.all(np.isfinite(points), axis=1)
    if np.any(bad):
        raise NonFiniteValueError(points[np.argmax(bad)], what)
    return values


def mesh_points(axes):
    """Every point of the product of per-axis coordinates, last axis fastest."""
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.column_stack([m.ravel() for m in mesh])


def grid_points(lo, hi, density):
    """Full lattice grid over a box, ``density`` points per axis."""
    lo = np.atleast_1d(np.asarray(lo, dtype=float))
    hi = np.atleast_1d(np.asarray(hi, dtype=float))
    return mesh_points([np.linspace(lo[i], hi[i], int(density))
                        for i in range(lo.shape[0])])


def halton(count, dim, seed):
    """``count`` scrambled Halton points in ``[0, 1)^dim``.

    Owen's randomized Halton sequence (arXiv:1706.02808), drawn bit for bit
    as ``scipy.stats.qmc.Halton(d=dim, seed=seed).random(count)`` draws it:
    axis j takes the j-th prime as base, each digit of the point's index has
    its own shuffle of ``range(base)`` (one generator for all axes, shuffled
    in order), and the shuffled digits are summed most significant first.
    """
    rng = np.random.default_rng(seed)
    out = np.empty((count, dim))
    bases = []
    base = 2
    while len(bases) < dim:
        if all(base % p for p in bases):
            bases.append(base)
        base += 1
    for j, base in enumerate(bases):
        digits = math.ceil(54 / math.log2(base)) - 1    # until base**-k <= 2**-54
        perms = rng.permuted(np.tile(np.arange(base), (digits, 1)), axis=1)
        scales = [1.0 / base]
        while len(scales) < digits:
            scales.append(scales[-1] / base)
        index = np.arange(count)
        col = np.zeros(count)
        live = 0    # the low index digits, the ones not 0 for every index
        while base ** live < count:
            index, digit = np.divmod(index, base)
            col += perms[live, digit] * scales[live]
            live += 1
        # the higher digits are 0 for every index and add the same terms to
        # every point; cumsum adds left to right, as the digit loop does
        tail = perms[live:, 0] * scales[live:]
        terms = np.column_stack([col, np.broadcast_to(tail, (count, tail.size))])
        out[:, j] = np.cumsum(terms, axis=1, out=terms)[:, -1]
    return out


class AffineFunction:
    """A linear map plus bias, ``value(x) = jacobian . x + bias``."""

    __slots__ = ("jacobian", "bias")

    def __init__(self, jacobian, bias):
        self.jacobian = as_vector(jacobian, "jacobian")
        self.bias = float(bias)

    @property
    def dim(self):
        return self.jacobian.shape[0]

    def check_dim(self, x):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if x.shape[-1] != self.dim:
            raise DimensionMismatchError(self.dim, x.shape[-1])
        return x

    def value(self, x):
        """Evaluate at a single point."""
        x = self.check_dim(x)
        return float(self.jacobian @ x + self.bias)

    def values(self, points):
        """Evaluate at an (N, n) array of points."""
        return as_points(points, self.dim) @ self.jacobian + self.bias

    def scaled(self, c):
        return AffineFunction(c * self.jacobian, c * self.bias)

    def plus(self, other):
        if other.dim != self.dim:
            raise DimensionMismatchError(self.dim, other.dim, what="affine operand")
        return AffineFunction(self.jacobian + other.jacobian, self.bias + other.bias)

    def __neg__(self):
        return self.scaled(-1.0)

    def __repr__(self):
        return f"AffineFunction(jacobian={self.jacobian.tolist()}, bias={self.bias})"


def affine_zero(dim):
    return AffineFunction(np.zeros(dim), 0.0)


def stack_affines(affines):
    """Pack affine functions into a coefficient matrix (N, n) plus bias vector."""
    J = np.array([a.jacobian for a in affines], dtype=float)
    b = np.array([a.bias for a in affines], dtype=float)
    return J, b
