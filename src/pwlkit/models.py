"""Compact shallow piecewise-linear representations.

Seven parameter families, all evaluable at points or point batches:
canonical sum-of-absolute-values (flat and nested), hinge sums,
generalized hinges (max-of-affines), grid simplex bases, adaptive hinge
bases, simplex tent bases, and the max-min lattice.
"""

from __future__ import annotations

import numpy as np

from .affine import AffineFunction, as_points, as_vector, stack_affines
from .errors import DimensionMismatchError


class PwlModel:
    """Base of the batch-evaluated models: ``value`` is ``values`` at one point."""

    def value(self, x):
        return float(self.values(np.atleast_1d(np.asarray(x, dtype=float)))[0])


class CplrModel(PwlModel):
    """Affine part plus a signed sum of absolute values of affine forms."""

    def __init__(self, alpha0, beta0, terms=()):
        self.alpha0 = as_vector(alpha0, "alpha0")
        self.beta0 = float(beta0)
        checked = []
        for eta, alpha, beta in terms:
            eta = int(eta)
            if eta not in (1, -1):
                raise ValueError(f"eta must be +1 or -1, got {eta}")
            alpha = as_vector(alpha, "alpha")
            if alpha.shape[0] != self.dim:
                raise DimensionMismatchError(self.dim, alpha.shape[0], what="term alpha")
            checked.append((eta, alpha, float(beta)))
        checked.sort(key=lambda t: (tuple(t[1]), t[2], t[0]))
        self.terms = tuple(checked)

    @property
    def dim(self):
        return self.alpha0.shape[0]

    @classmethod
    def from_hinges(cls, m):
        """Rewrite ``max(u, 0) = (u + |u|) / 2`` hinge by hinge."""
        alpha0 = np.array(m.alpha0)
        beta0 = m.beta0
        terms = []
        for w, alpha, beta in m.hinges:
            alpha0 = alpha0 + (w / 2.0) * alpha
            beta0 = beta0 + (w / 2.0) * beta
            eta = 1 if w >= 0 else -1
            scale = abs(w) / 2.0
            if scale > 0:
                terms.append((eta, scale * alpha, scale * beta))
        return cls(alpha0, beta0, terms)

    def values(self, points):
        points = as_points(points, self.dim)
        out = points @ self.alpha0 + self.beta0
        for eta, alpha, beta in self.terms:
            out = out + eta * np.abs(points @ alpha + beta)
        return out


class CplrExpr:
    """Node of a nested canonical expression: affine plus weighted abs-children."""

    __slots__ = ("affine", "children")

    def __init__(self, affine, children=()):
        self.affine = affine
        kids = [(float(c), node) for c, node in children]
        kids.sort(key=lambda cn: (cn[0], cn[1].sort_key()))
        self.children = tuple(kids)
        for _, node in self.children:
            if node.affine.dim != affine.dim:
                raise DimensionMismatchError(affine.dim, node.affine.dim, what="child")

    def sort_key(self):
        return (tuple(self.affine.jacobian), self.affine.bias,
                tuple((c, n.sort_key()) for c, n in self.children))

    @property
    def dim(self):
        return self.affine.dim

    @property
    def level(self):
        """Nesting depth: 0 for a bare affine leaf."""
        if not self.children:
            return 0
        return 1 + max(node.level for _, node in self.children)

    def values(self, points):
        out = self.affine.values(points)
        for coeff, node in self.children:
            out = out + coeff * np.abs(node.values(points))
        return out


class NestedCplrModel(PwlModel):
    """Nested canonical representation as an explicit expression tree."""

    def __init__(self, root):
        self.root = root

    @property
    def dim(self):
        return self.root.dim

    @property
    def level(self):
        return max(1, self.root.level)

    @classmethod
    def from_cplr(cls, m):
        children = [
            (eta, CplrExpr(AffineFunction(alpha, beta)))
            for eta, alpha, beta in m.terms
        ]
        return cls(CplrExpr(AffineFunction(m.alpha0, m.beta0), children))

    def values(self, points):
        return self.root.values(as_points(points, self.dim))


class HingeModel(PwlModel):
    """Affine part plus weighted one-sided hinges ``w * max(alpha.x + beta, 0)``."""

    def __init__(self, alpha0, beta0, hinges=()):
        self.alpha0 = as_vector(alpha0, "alpha0")
        self.beta0 = float(beta0)
        checked = []
        for w, alpha, beta in hinges:
            alpha = as_vector(alpha, "alpha")
            if alpha.shape[0] != self.dim:
                raise DimensionMismatchError(self.dim, alpha.shape[0], what="hinge alpha")
            checked.append((float(w), alpha, float(beta)))
        checked.sort(key=lambda h: (tuple(h[1]), h[2], h[0]))
        self.hinges = tuple(checked)

    @property
    def dim(self):
        return self.alpha0.shape[0]

    @classmethod
    def from_cplr(cls, m):
        """Rewrite ``|u| = 2 max(u, 0) - u`` term by term."""
        alpha0 = np.array(m.alpha0)
        beta0 = m.beta0
        hinges = []
        for eta, alpha, beta in m.terms:
            hinges.append((2.0 * eta, alpha, beta))
            alpha0 = alpha0 - eta * alpha
            beta0 = beta0 - eta * beta
        return cls(alpha0, beta0, hinges)

    def values(self, points):
        points = as_points(points, self.dim)
        out = points @ self.alpha0 + self.beta0
        for w, alpha, beta in self.hinges:
            out = out + w * np.maximum(points @ alpha + beta, 0.0)
        return out


class GhhModel(PwlModel):
    """Weighted sum of maxima over affine families."""

    def __init__(self, terms):
        checked = []
        dim = None
        for w, affines in terms:
            affines = tuple(sorted(affines,
                                   key=lambda a: (tuple(a.jacobian), a.bias)))
            if not affines:
                raise ValueError("each term needs at least one affine function")
            for a in affines:
                if dim is None:
                    dim = a.dim
                elif a.dim != dim:
                    raise DimensionMismatchError(dim, a.dim, what="term affine")
            checked.append((float(w), affines))
        if not checked:
            raise ValueError("model needs at least one term")
        checked.sort(key=lambda t: (t[0], tuple((tuple(a.jacobian), a.bias)
                                                for a in t[1])))
        self._dim = dim
        self.terms = tuple(checked)
        self._stacked = tuple((w, *stack_affines(affines)) for w, affines in checked)

    @property
    def dim(self):
        return self._dim

    @property
    def order(self):
        """Largest affine count per term, minus one."""
        return max(len(affines) for _, affines in self.terms) - 1

    def values(self, points):
        points = as_points(points, self.dim)
        out = np.zeros(points.shape[0])
        for w, J, b in self._stacked:
            # ``J.T`` stays a transposed view: a contiguous copy sends a
            # one-point call down another BLAS kernel, which rounds differently
            z = points @ J.T
            z += b
            # ``out`` starts at +0.0 and only adds, so the sign of a zero
            # maximum, where _row_max and np.max may differ, never reaches it
            out += w * _row_max(z)
        return out


def _row_max(z):
    """Row maxima of a 2-D array as a left-to-right ``np.maximum`` chain over
    its columns, far faster than ``np.max(z, axis=1)`` on short rows.  The two
    agree except, possibly, in the sign bit of a zero or NaN maximum."""
    top = z[:, 0]
    for j in range(1, z.shape[1]):
        top = np.maximum(top, z[:, j])
    return top


class HlCplrBasis(PwlModel):
    """Grid simplex basis: ``max(0, min_r (x_{k_r} - j_{k_r} d))``.

    Axis indices are zero-based and must be distinct; ``d`` is the grid
    interval and each coordinate pins a knot index on its axis.
    """

    def __init__(self, dim, interval, coordinates):
        self.dim_ = int(dim)
        self.interval = float(interval)
        if self.interval <= 0:
            raise ValueError("grid interval must be positive")
        coords = []
        seen = set()
        for axis, knot in coordinates:
            axis = int(axis)
            if not 0 <= axis < self.dim_:
                raise ValueError(f"axis {axis} outside dimension {self.dim_}")
            if axis in seen:
                raise ValueError(f"duplicate axis index {axis}")
            seen.add(axis)
            coords.append((axis, int(knot)))
        if not coords:
            raise ValueError("basis needs at least one coordinate")
        self.coordinates = tuple(coords)

    @property
    def dim(self):
        return self.dim_

    def values(self, points):
        points = as_points(points, self.dim_)
        cols = [points[:, axis] - knot * self.interval
                for axis, knot in self.coordinates]
        return np.maximum(np.min(np.column_stack(cols), axis=1), 0.0)

    def as_hinge(self):
        """The single-coordinate case is exactly a shifted hinge."""
        if len(self.coordinates) != 1:
            raise ValueError("only a one-coordinate basis reduces to a hinge")
        axis, knot = self.coordinates[0]
        alpha = np.zeros(self.dim_)
        alpha[axis] = 1.0
        return HingeModel(np.zeros(self.dim_), 0.0,
                          [(1.0, alpha, -knot * self.interval)])


class AhhBasis:
    """Min over one-sided axis hinges: ``min_j max(0, delta (x_v - knot))``."""

    __slots__ = ("factors",)

    def __init__(self, factors):
        checked = []
        for delta, var, knot in factors:
            delta = int(delta)
            if delta not in (1, -1):
                raise ValueError(f"delta must be +1 or -1, got {delta}")
            checked.append((delta, int(var), float(knot)))
        if not checked:
            raise ValueError("basis needs at least one factor")
        self.factors = tuple(checked)

    def max_var(self):
        return max(v for _, v, _ in self.factors)

    def values(self, points):
        cols = []
        for delta, var, knot in self.factors:
            cols.append(np.maximum(delta * (points[:, var] - knot), 0.0))
        return np.min(np.column_stack(cols), axis=1)


class AhhModel(PwlModel):
    """Adaptive hinge model: intercept plus weighted min-of-hinge bases.

    The constant basis is carried explicitly as ``intercept``; repeated
    variables inside one basis are allowed (min is idempotent).
    """

    def __init__(self, dim, intercept=0.0, bases=()):
        self.dim_ = int(dim)
        self.intercept = float(intercept)
        checked = []
        for w, basis in bases:
            if not isinstance(basis, AhhBasis):
                basis = AhhBasis(basis)
            if basis.max_var() >= self.dim_:
                raise ValueError(
                    f"variable index {basis.max_var()} outside dimension {self.dim_}"
                )
            checked.append((float(w), basis))
        checked.sort(key=lambda wb: (wb[1].factors, wb[0]))
        self.bases = tuple(checked)

    @property
    def dim(self):
        return self.dim_

    def values(self, points):
        points = as_points(points, self.dim_)
        out = np.full(points.shape[0], self.intercept)
        for w, basis in self.bases:
            out = out + w * basis.values(points)
        return out


class SbfModel(PwlModel):
    """Weighted simplex tents ``w * max(0, 1 - sum_i gamma_i |x_i - zeta_i|)``."""

    def __init__(self, dim, bases=()):
        self.dim_ = int(dim)
        checked = []
        for w, gamma, zeta in bases:
            gamma = as_vector(gamma, "gamma")
            zeta = as_vector(zeta, "zeta")
            if gamma.shape[0] != self.dim_ or zeta.shape[0] != self.dim_:
                raise DimensionMismatchError(self.dim_, gamma.shape[0], what="basis")
            if np.any(gamma < 0):
                raise ValueError("gamma components must be nonnegative")
            checked.append((float(w), gamma, zeta))
        checked.sort(key=lambda b: (tuple(b[2]), tuple(b[1]), b[0]))
        self.bases = tuple(checked)

    @property
    def dim(self):
        return self.dim_

    def values(self, points):
        points = as_points(points, self.dim_)
        out = np.zeros(points.shape[0])
        for w, gamma, zeta in self.bases:
            hat = 1.0 - np.abs(points - zeta) @ gamma
            out = out + w * np.maximum(hat, 0.0)
        return out


class LatticeModel(PwlModel):
    """Max over rows of mins over selected affine functions."""

    def __init__(self, affines, sets):
        self.affines = tuple(affines)
        if not self.affines:
            raise ValueError("lattice needs at least one affine function")
        dim = self.affines[0].dim
        for a in self.affines:
            if a.dim != dim:
                raise DimensionMismatchError(dim, a.dim, what="affine")
        d = len(self.affines)
        checked = []
        for s in sets:
            idx = sorted(set(int(k) for k in s))
            if not idx:
                raise ValueError("selection sets must be non-empty")
            if idx[0] < 0 or idx[-1] >= d:
                raise ValueError(f"selection index outside 0..{d - 1}: {idx}")
            checked.append(tuple(idx))
        if not checked:
            raise ValueError("lattice needs at least one selection set")
        self.sets = tuple(checked)
        self._J, self._b = stack_affines(self.affines)

    @property
    def dim(self):
        return self.affines[0].dim

    def values(self, points):
        points = as_points(points, self.dim)
        vals = points @ self._J.T + self._b        # (N, d) piece values
        rows = [np.min(vals[:, s], axis=1) for s in self.sets]
        return np.max(np.column_stack(rows), axis=1)
