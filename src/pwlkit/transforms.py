"""Cross-representation constructions and equivalence machinery.

The central tool is a closed difference-of-convex algebra: every model
here can be lowered to ``max of affines - max of affines``, from which a
two-term max-of-affines form falls out directly.  The lattice builder and
the canonical-form reconstruction work on region-wise models instead.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .affine import AffineFunction, as_box, as_points, finite_values, grid_points, halton
from .conventional import (
    CONTINUITY_RTOL,
    ConventionalPWL,
    Region,
    chebyshev_centers,
    check_consistent_variation,
    check_continuity,
    solve_lp_blocks,
)
from .errors import (
    ConstructionError,
    DcSizeError,
    DimensionMismatchError,
    DiscontinuousModelError,
    NotCplrRepresentableError,
)
from .models import (
    AhhModel,
    CplrModel,
    GhhModel,
    HingeModel,
    HlCplrBasis,
    LatticeModel,
    NestedCplrModel,
    PwlModel,
    SbfModel,
)

# Hard cap on affine-set rows; growth past this fails loudly instead of
# silently pruning.
DC_SIZE_CAP = 4096


class DCForm(PwlModel):
    """Difference of two convex max-of-affines functions.

    Stored as homogeneous coefficient rows ``[J | b]``, sorted and without
    exact duplicates; the value is ``max(plus rows) - max(minus rows)``.
    """

    def __init__(self, plus, minus):
        plus, minus = np.asarray(plus, dtype=float), np.asarray(minus, dtype=float)
        if plus.size == 0 or minus.size == 0:    # before a 1-D empty side becomes (1, 0)
            raise ValueError("both sides need at least one affine row")
        plus, minus = np.atleast_2d(plus), np.atleast_2d(minus)
        if plus.shape[1] != minus.shape[1]:
            raise DimensionMismatchError(plus.shape[1] - 1, minus.shape[1] - 1,
                                         what="minus side")
        self.plus = np.unique(plus, axis=0)
        self.minus = np.unique(minus, axis=0)
        worst = max(self.plus.shape[0], self.minus.shape[0])
        if worst > DC_SIZE_CAP:
            raise DcSizeError(worst, DC_SIZE_CAP)

    @property
    def dim(self):
        return self.plus.shape[1] - 1

    def values(self, points):
        points = as_points(points, self.dim)
        H = np.column_stack([points, np.ones(points.shape[0])])
        return np.max(H @ self.plus.T, axis=1) - np.max(H @ self.minus.T, axis=1)

    def plus_affines(self):
        return [AffineFunction(r[:-1], r[-1]) for r in self.plus]

    def minus_affines(self):
        return [AffineFunction(r[:-1], r[-1]) for r in self.minus]


def _rows(affine):
    return np.concatenate([affine.jacobian, [affine.bias]])[None, :]


def _pairwise_sum(a, b):
    out = (a[:, None, :] + b[None, :, :]).reshape(-1, a.shape[1])
    if out.shape[0] > DC_SIZE_CAP:
        raise DcSizeError(out.shape[0], DC_SIZE_CAP)
    return out


def dc_from_affine(affine):
    """Lift an affine function: plus = {f}, minus = {0}."""
    zero = np.zeros((1, affine.dim + 1))
    return DCForm(_rows(affine), zero)


def dc_sum(f, g):
    if f.dim != g.dim:
        raise DimensionMismatchError(f.dim, g.dim, what="operand")
    return DCForm(_pairwise_sum(f.plus, g.plus), _pairwise_sum(f.minus, g.minus))


def dc_negate(f):
    return DCForm(f.minus, f.plus)


def dc_scale(f, c):
    c = float(c)
    if c < 0:
        return dc_negate(dc_scale(f, -c))
    return DCForm(c * f.plus, c * f.minus)


def dc_max(f, g):
    """max(P_f - Q_f, P_g - Q_g) = max(P_f + Q_g, P_g + Q_f) - (Q_f + Q_g)."""
    if f.dim != g.dim:
        raise DimensionMismatchError(f.dim, g.dim, what="operand")
    plus = np.vstack([_pairwise_sum(f.plus, g.minus),
                      _pairwise_sum(g.plus, f.minus)])
    if plus.shape[0] > DC_SIZE_CAP:
        raise DcSizeError(plus.shape[0], DC_SIZE_CAP)
    return DCForm(plus, _pairwise_sum(f.minus, g.minus))


def dc_min(f, g):
    return dc_negate(dc_max(dc_negate(f), dc_negate(g)))


def dc_abs(f):
    return dc_max(f, dc_negate(f))


def dc_prune(f, box, density=33, margin=1e-9):
    """Drop rows strictly dominated on a probe grid by the given margin.

    This is a grid-certified reduction: a row is removed only when it sits
    below the side's max by more than ``margin`` at every probe point.
    """
    lo, hi = box
    pts = grid_points(lo, hi, density)
    H = np.column_stack([pts, np.ones(pts.shape[0])])

    def keep(rows):
        vals = H @ rows.T
        top = np.max(vals, axis=1)
        mask = np.max(vals - top[:, None], axis=0) > -margin
        return rows[mask] if np.any(mask) else rows[:1]

    return DCForm(keep(f.plus), keep(f.minus))


def _dc_axis(dim, bias=0.0, axis=None, slope=1.0):
    """Lift ``slope * x[axis] + bias``, or the constant ``bias`` without an axis."""
    alpha = np.zeros(dim)
    if axis is not None:
        alpha[axis] = slope
    return dc_from_affine(AffineFunction(alpha, bias))


def dc_from_model(model):
    """Lower any supported model to difference-of-convex form."""
    if isinstance(model, DCForm):
        return model
    if isinstance(model, AffineFunction):
        return dc_from_affine(model)
    if isinstance(model, CplrModel):
        out = dc_from_affine(AffineFunction(model.alpha0, model.beta0))
        for eta, alpha, beta in model.terms:
            term = dc_abs(dc_from_affine(AffineFunction(alpha, beta)))
            out = dc_sum(out, dc_scale(term, eta))
        return out
    if isinstance(model, NestedCplrModel):
        return _dc_from_expr(model.root)
    if isinstance(model, HingeModel):
        out = dc_from_affine(AffineFunction(model.alpha0, model.beta0))
        zero = _dc_axis(model.dim)
        for w, alpha, beta in model.hinges:
            hinge = dc_max(dc_from_affine(AffineFunction(alpha, beta)), zero)
            out = dc_sum(out, dc_scale(hinge, w))
        return out
    if isinstance(model, GhhModel):
        out = None
        zero = np.zeros((1, model.dim + 1))
        for w, affines in model.terms:
            term = DCForm(np.vstack([_rows(a) for a in affines]), zero)
            term = dc_scale(term, w)
            out = term if out is None else dc_sum(out, term)
        return out
    if isinstance(model, HlCplrBasis):
        factors = [_dc_axis(model.dim, -knot * model.interval, axis)
                   for axis, knot in model.coordinates]
        inner = factors[0]
        for fac in factors[1:]:
            inner = dc_min(inner, fac)
        return dc_max(_dc_axis(model.dim), inner)
    if isinstance(model, AhhModel):
        out = _dc_axis(model.dim, model.intercept)
        zero = _dc_axis(model.dim)
        for w, basis in model.bases:
            parts = [dc_max(_dc_axis(model.dim, -delta * knot, var, float(delta)), zero)
                     for delta, var, knot in basis.factors]
            acc = parts[0]
            for p in parts[1:]:
                acc = dc_min(acc, p)
            out = dc_sum(out, dc_scale(acc, w))
        return out
    if isinstance(model, SbfModel):
        zero = _dc_axis(model.dim)
        out = zero
        for w, gamma, zeta in model.bases:
            hat = _dc_axis(model.dim, 1.0)
            for i in range(model.dim):
                if gamma[i] == 0.0:
                    continue
                tent = dc_abs(_dc_axis(model.dim, -gamma[i] * zeta[i], i, gamma[i]))
                hat = dc_sum(hat, dc_negate(tent))
            out = dc_sum(out, dc_scale(dc_max(zero, hat), w))
        return out
    if isinstance(model, LatticeModel):
        rows = None
        for s in model.sets:
            acc = dc_from_affine(model.affines[s[0]])
            for j in s[1:]:
                acc = dc_min(acc, dc_from_affine(model.affines[j]))
            rows = acc if rows is None else dc_max(rows, acc)
        return rows
    if isinstance(model, ConventionalPWL):
        return dc_from_model(lattice_from_conventional(model))
    raise TypeError(f"no difference-of-convex lowering for {type(model).__name__}")


def _dc_from_expr(node):
    out = dc_from_affine(node.affine)
    for coeff, child in node.children:
        out = dc_sum(out, dc_scale(dc_abs(_dc_from_expr(child)), coeff))
    return out


def ghh_from_dc(f):
    """Two-term max-of-affines model: ``(+1, plus) , (-1, minus)``."""
    return GhhModel([(1.0, f.plus_affines()), (-1.0, f.minus_affines())])


# ---------------------------------------------------------------------------
# Lattice from a region-wise model
# ---------------------------------------------------------------------------

def _verify_on_grid(model, candidate, pts, what):
    """Raise unless ``candidate`` matches ``model`` to 1e-9 on the grid
    points inside the model's domain."""
    if model.domain is not None:
        pts = pts[model.domain.contains_many(pts, tol=1e-9)]
    err = np.max(np.abs(candidate.values(pts) - model.values(pts)), initial=0.0)
    if not err <= 1e-9:     # a NaN deviation fails too
        raise ConstructionError(f"{what} failed verification: max deviation {err:.3e}")


def lattice_from_conventional(model, probe_density=33, box=None):
    """Build the max-min form with one LP per pair of pieces.

    Row ``i`` holds piece ``i`` and each piece ``j`` whose minimum of
    ``f_j - f_i`` over region ``i``, the domain and ``box`` is at least
    ``-CONTINUITY_RTOL * max(1, |f_i|, |f_j|)`` (Tarela & Martinez).  The
    P(P-1) LPs are solved together; a region empty within the box gets no
    row.  The lattice equals the model when the regions tile a convex domain
    and no piece crosses piece ``i`` inside region ``i``; a ``probe_density``
    grid over ``box`` (by default the ``domain_box``) verifies it.
    """
    cont = check_continuity(model)
    if not cont.ok:
        raise DiscontinuousModelError(
            "lattice construction requires a continuous model; "
            f"{len(cont.violations)} facet violations found"
        )
    if box is None:
        if model.domain is None:
            raise ValueError("model has no domain; pass an explicit probe box")
        box = model.domain_box()
    J = np.array([p.jacobian for p in model.pieces])
    b = np.array([p.bias for p in model.pieces])
    walls = () if model.domain is None else model.domain.halfspaces
    forms = [Region(r.halfspaces + walls).matrix_form() for r in model.regions]
    pairs = [(i, j) for i in range(len(J)) for j in range(len(J)) if j != i]
    solved = solve_lp_blocks([(J[j] - J[i], -forms[i][0], -forms[i][1], list(zip(*box)))
                              for i, j in pairs])
    rows, empty = [[i] for i in range(len(J))], set()
    for (i, j), (status, x) in zip(pairs, solved):
        if status == 2:
            empty.add(i)
        elif status != 0:
            raise ConstructionError(f"the LP of pieces {i} and {j} ended with status {status}")
        elif (f := J @ x + b)[j] - f[i] >= -CONTINUITY_RTOL * max(1.0, abs(f[i]), abs(f[j])):
            rows[i].append(j)
    sets = [row for i, row in enumerate(rows) if i not in empty]
    if not sets:
        raise ConstructionError("no region meets the box")
    lattice = LatticeModel(model.pieces, sets)
    _verify_on_grid(model, lattice, grid_points(*box, probe_density), "lattice construction")
    return lattice


# ---------------------------------------------------------------------------
# Canonical form from a consistent region-wise model
# ---------------------------------------------------------------------------

def cplr_from_consistent(model, probe_density=33):
    """Reconstruct the canonical sum-of-absolute-values form, fit free.

    One absolute-value term per boundary hyperplane; the affine part and
    per-hyperplane coefficients are solved by least squares over region
    Jacobians, then the result is verified on a ``probe_density``-per-axis
    grid over the model's ``domain_box``.
    """
    verdict = check_consistent_variation(model)
    if not verdict.representable:
        raise NotCplrRepresentableError(verdict.certificate)
    box = model.domain_box()
    n = model.dimension
    planes = list(verdict.hyperplanes.values())   # (alpha, beta, jump scalar)
    h = len(planes)

    signs = np.zeros((model.piece_count, h))
    # a center only picks the side of each hyperplane its region lies on
    for i, (center, _) in enumerate(chebyshev_centers(model.regions, box=box)):
        if center is None:
            raise ConstructionError(f"region {i} has no interior point for side probing")
        for k, (alpha, beta, _) in enumerate(planes):
            signs[i, k] = 1.0 if float(alpha @ center - beta) >= 0 else -1.0

    # alpha0 and per-plane coefficients from J_i = alpha0 + sum_k g_k s_ik alpha_k
    rows, want = [], []
    for i, piece in enumerate(model.pieces):
        block = np.zeros((n, n + h))
        block[:, :n] = np.eye(n)
        for k, (alpha, _, _) in enumerate(planes):
            block[:, n + k] = signs[i, k] * alpha
        rows.append(block)
        want.append(piece.jacobian)
    theta, *_ = np.linalg.lstsq(np.vstack(rows), np.concatenate(want), rcond=None)
    alpha0, coeffs = theta[:n], theta[n:]

    beta0 = model.pieces[0].bias
    for k, (alpha, beta, _) in enumerate(planes):
        beta0 += coeffs[k] * signs[0, k] * beta

    terms = []
    for k, (alpha, beta, _) in enumerate(planes):
        g = coeffs[k]
        if abs(g) <= 1e-12:
            continue
        eta = 1 if g > 0 else -1
        terms.append((eta, abs(g) * alpha, -abs(g) * beta))
    cplr = CplrModel(alpha0, beta0, terms)
    _verify_on_grid(model, cplr, grid_points(*box, probe_density), "canonical reconstruction")
    return cplr


# ---------------------------------------------------------------------------
# Equivalence checking
# ---------------------------------------------------------------------------

@dataclass
class EquivalenceReport:
    max_abs_deviation: float
    argmax_point: np.ndarray
    sample_count: int
    tolerance: float

    @property
    def equivalent(self):
        return self.max_abs_deviation <= self.tolerance

    def __str__(self):
        return "\n".join([
            f"max-abs-deviation: {self.max_abs_deviation!r}",
            f"argmax-point: {','.join(repr(float(v)) for v in self.argmax_point)}",
            f"sample-count: {self.sample_count}",
            f"tolerance: {self.tolerance!r}",
            f"equivalent: {'yes' if self.equivalent else 'no'}",
        ])


def check_equivalence(a, b, box, grid_density=33, tolerance=1e-9, qmc_samples=512):
    """Max deviation between two evaluables over a grid plus Halton sweep."""
    if a.dim != b.dim:
        raise DimensionMismatchError(a.dim, b.dim, what="second model")
    lo, hi = as_box(box, a.dim)
    pts = grid_points(lo, hi, grid_density)
    if qmc_samples > 0:
        extra = lo + halton(qmc_samples, a.dim, seed=11) * (hi - lo)
        pts = np.vstack([pts, extra])
    dev = np.abs(finite_values(a, pts, "the first model")
                 - finite_values(b, pts, "the second model"))
    k = int(np.argmax(dev))
    return EquivalenceReport(float(dev[k]), pts[k], pts.shape[0], float(tolerance))
