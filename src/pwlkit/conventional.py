"""Region-by-region piecewise-linear models and their structural checks.

A conventional model lists polyhedral regions, one affine piece per region.
The checks here enforce the two structural assumptions every transform in
this package relies on: continuity across shared facets, and the
consistent-variation condition that decides whether a single-level
canonical (sum-of-absolute-values) form exists.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import null_space
from scipy.optimize import linprog
from scipy.stats import qmc

from .affine import as_points, as_vector
from .errors import (
    CoverageGapError,
    DimensionMismatchError,
    DiscontinuousModelError,
)
from .models import PwlModel

# Feasibility tolerance for region emptiness and facet detection.
FEASIBILITY_TOL = 1e-9

# Relative tolerance for piece agreement on shared facets, and for boundary
# Jacobian jumps being parallel and equal.
CONTINUITY_RTOL = 1e-9

# Fallback probe box half-width used when a model declares no domain.
DEFAULT_BOX_HALFWIDTH = 10.0


class Halfspace:
    """One linear inequality, ``normal . x - offset >= 0`` (or ``> 0`` if open)."""

    __slots__ = ("normal", "offset", "closed")

    def __init__(self, normal, offset, closed=True):
        self.normal = as_vector(normal, "normal")
        if not np.any(self.normal):
            raise ValueError("halfspace normal must not be the zero vector")
        self.offset = float(offset)
        self.closed = bool(closed)

    @property
    def dim(self):
        return self.normal.shape[0]

    def margins(self, points):
        return np.asarray(points, dtype=float) @ self.normal - self.offset

    def canonical(self):
        """Unit-normal hyperplane key ``(alpha, beta)`` plus this side's sign.

        The sign is +1 when this halfspace lies on the ``alpha . x >= beta``
        side of the canonical hyperplane.
        """
        norm = float(np.linalg.norm(self.normal))
        alpha = self.normal / norm
        beta = self.offset / norm
        sign = 1.0
        nz = np.nonzero(np.abs(alpha) > 1e-12)[0]
        if nz.size and alpha[nz[0]] < 0:
            alpha, beta, sign = -alpha, -beta, -1.0
        return alpha, beta, sign

    def __repr__(self):
        op = ">=" if self.closed else ">"
        return f"Halfspace({self.normal.tolist()} . x {op} {self.offset})"


class Region:
    """Intersection of halfspaces with an integer label."""

    __slots__ = ("halfspaces", "label")

    def __init__(self, halfspaces, label=0):
        self.halfspaces = tuple(halfspaces)
        if not self.halfspaces:
            raise ValueError("region needs at least one halfspace")
        dims = {h.dim for h in self.halfspaces}
        if len(dims) != 1:
            raise ValueError(f"halfspaces have mixed dimensions {sorted(dims)}")
        self.label = int(label)

    @property
    def dim(self):
        return self.halfspaces[0].dim

    def contains(self, x, tol=0.0):
        return bool(self.contains_many(np.reshape(x, (1, -1)), tol)[0])

    def contains_many(self, points, tol=0.0):
        points = np.asarray(points, dtype=float)
        out = np.ones(points.shape[0], dtype=bool)
        for h in self.halfspaces:
            m = h.margins(points)
            if tol > 0.0:
                out &= m >= -tol
            else:
                out &= (m >= 0.0) if h.closed else (m > 0.0)
        return out

    @classmethod
    def validated(cls, halfspaces, label=0, box=None):
        """Construct and certify non-emptiness by finding a feasible point."""
        region = cls(halfspaces, label)
        center, radius = chebyshev_center(region, box=box)
        if center is None or radius < -FEASIBILITY_TOL:
            raise ValueError(
                f"region {label} is empty at feasibility tolerance {FEASIBILITY_TOL}"
            )
        return region

    def matrix_form(self):
        """Rows ``A`` and vector ``c`` with the region being ``A x >= c``."""
        A = np.array([h.normal for h in self.halfspaces], dtype=float)
        c = np.array([h.offset for h in self.halfspaces], dtype=float)
        return A, c

    def __repr__(self):
        return f"Region(label={self.label}, halfspaces={len(self.halfspaces)})"


def box_region(lo, hi, label=-1):
    """Axis-aligned box as a Region."""
    lo = np.atleast_1d(np.asarray(lo, dtype=float))
    hi = np.atleast_1d(np.asarray(hi, dtype=float))
    if lo.shape != hi.shape or np.any(lo >= hi):
        raise ValueError("box bounds must satisfy lo < hi componentwise")
    n = lo.shape[0]
    hs = []
    for i in range(n):
        e = np.zeros(n)
        e[i] = 1.0
        hs.append(Halfspace(e, lo[i]))
        hs.append(Halfspace(-e, -hi[i]))
    return Region(hs, label)


def _default_box(n):
    return np.full(n, -DEFAULT_BOX_HALFWIDTH), np.full(n, DEFAULT_BOX_HALFWIDTH)


def bounding_box(region):
    """Per-axis bounds of a region via 2n small LPs, clipped to the default box."""
    n = region.dim
    A, c = region.matrix_form()
    lo, hi = _default_box(n)
    bounds = list(zip(lo, hi))
    for i in range(n):
        obj = np.zeros(n)
        obj[i] = 1.0
        for sign, store in ((1.0, lo), (-1.0, hi)):
            res = linprog(sign * obj, A_ub=-A, b_ub=-c, bounds=bounds, method="highs")
            if res.status == 0:
                store[i] = sign * res.fun
    return lo, hi


def chebyshev_center(region, box=None):
    """Deepest interior point of a region and its inscribed radius.

    Solves ``max r`` subject to ``a . x - off >= r ||a||`` for every
    halfspace, with box walls (the default box when ``box`` is None) added
    so unbounded regions stay solvable.  Returns ``(center, radius)``;
    radius below the feasibility tolerance means the region is empty or
    degenerate at probe scale.
    """
    n = region.dim
    A, c = region.matrix_form()
    norms = np.linalg.norm(A, axis=1)
    lo, hi = _default_box(n) if box is None else box
    rows = [np.concatenate([-A, norms[:, None]], axis=1)]
    rhs = [-c]
    eye = np.eye(n)
    rows.append(np.concatenate([eye, np.ones((n, 1))], axis=1))
    rhs.append(hi)
    rows.append(np.concatenate([-eye, np.ones((n, 1))], axis=1))
    rhs.append(-lo)
    A_ub = np.vstack(rows)
    b_ub = np.concatenate(rhs)
    obj = np.zeros(n + 1)
    obj[-1] = -1.0
    res = linprog(obj, A_ub=A_ub, b_ub=b_ub,
                  bounds=[(None, None)] * n + [(None, None)], method="highs")
    if res.status != 0:
        return None, -np.inf
    return res.x[:n], float(res.x[n])


class ConventionalPWL(PwlModel):
    """Piecewise-linear function given region by region.

    Regions and pieces are aligned and sorted by region label; evaluation
    returns the piece of the first (lowest-label) region containing the
    query point.
    """

    def __init__(self, dimension, regions, pieces, domain=None):
        self.dimension = int(dimension)
        regions = list(regions)
        pieces = list(pieces)
        if len(regions) != len(pieces) or not regions:
            raise ValueError(
                f"need equally many regions and pieces, at least one each "
                f"(got {len(regions)} regions, {len(pieces)} pieces)"
            )
        for r in regions:
            if r.dim != self.dimension:
                raise DimensionMismatchError(self.dimension, r.dim, what="region")
        for p in pieces:
            if p.dim != self.dimension:
                raise DimensionMismatchError(self.dimension, p.dim, what="piece")
        order = sorted(range(len(regions)), key=lambda k: regions[k].label)
        self.regions = tuple(regions[k] for k in order)
        self.pieces = tuple(pieces[k] for k in order)
        if domain is not None and domain.dim != self.dimension:
            raise DimensionMismatchError(self.dimension, domain.dim, what="domain")
        self.domain = domain
        self._box = None

    @property
    def dim(self):
        return self.dimension

    @property
    def piece_count(self):
        return len(self.pieces)

    def region_index(self, x):
        """Index of the first region containing the point ``x`` (see ``values``)."""
        return int(self._first_hits(np.reshape(x, (1, -1)))[0])

    def values(self, points):
        points = as_points(points, self.dimension)
        piece_vals = np.column_stack([p.values(points) for p in self.pieces])
        return piece_vals[np.arange(points.shape[0]), self._first_hits(points)]

    def _first_hits(self, points):
        """Per point, the index of the first region containing it.

        Membership is tried exactly first, then with the feasibility tolerance
        so grid points that land a rounding error outside a closed region
        still resolve; CoverageGapError names the first point in neither.
        """
        points = as_points(points, self.dimension)
        member = np.column_stack([r.contains_many(points) for r in self.regions])
        miss = ~np.any(member, axis=1)
        if np.any(miss):
            loose = np.column_stack([r.contains_many(points, FEASIBILITY_TOL)
                                     for r in self.regions])
            member[miss] = loose[miss]
            gap = ~np.any(member, axis=1)
            if np.any(gap):
                raise CoverageGapError(points[np.argmax(gap)])
        return np.argmax(member, axis=1)

    def domain_box(self):
        """The box every analysis of this model works in.

        The domain's bounding box, or the default box when the model has no
        domain.  Computed on first use and kept (read-only).
        """
        if self._box is None:
            lo, hi = (_default_box(self.dimension) if self.domain is None
                      else bounding_box(self.domain))
            lo.setflags(write=False)
            hi.setflags(write=False)
            self._box = (lo, hi)
        return self._box

    def max_jacobian_norm(self):
        return max(float(np.linalg.norm(p.jacobian)) for p in self.pieces)

    def __repr__(self):
        return (f"ConventionalPWL(dim={self.dimension}, "
                f"pieces={self.piece_count}, domain={'set' if self.domain else 'none'})")


# ---------------------------------------------------------------------------
# Facet detection and sampling
# ---------------------------------------------------------------------------

@dataclass
class Facet:
    """Shared boundary between two regions of a conventional model."""

    i: int                      # lower region index
    j: int                      # higher region index
    alpha: np.ndarray           # unit normal of the canonical hyperplane
    beta: float                 # canonical offset, hyperplane is alpha.x = beta
    side_i: float               # +1 if region i lies on alpha.x >= beta
    center: np.ndarray          # relative-interior point of the facet
    radius: float               # inscribed radius within the facet
    tangent: np.ndarray         # (n, n-1) orthonormal basis of the hyperplane

    def sample_points(self, count):
        """Deterministic points in the facet's relative interior."""
        pts = [self.center]
        k = self.tangent.shape[1]
        if k == 0 or count <= 1 or self.radius <= 0:
            return np.array(pts)
        reach = 0.8 * self.radius
        if k == 1:
            offs = np.linspace(-reach, reach, count - 1)[:, None]
        else:
            sampler = qmc.Halton(d=k, seed=7)
            cube = sampler.random(count - 1)
            offs = (2.0 * cube - 1.0) * reach / np.sqrt(k)
        for t in offs:
            pts.append(self.center + self.tangent @ t)
        return np.array(pts)


def hyperplane_key(alpha, beta):
    return tuple(np.round(alpha, 9)) + (round(float(beta), 9),)


def _facet_interior(alpha, beta, joint, box):
    """Chebyshev center restricted to the hyperplane ``alpha . x = beta``.

    ``joint`` holds the constraints of both regions' closures.  Returns
    ``(center, radius, tangent_basis)`` or ``(None, -inf, None)`` when the
    closures do not meet on an (n-1)-dimensional set.
    """
    n = alpha.shape[0]
    x0 = beta * alpha
    N = null_space(alpha[None, :])
    A, c = joint.matrix_form()
    lo, hi = box
    eye = np.eye(n)
    A = np.vstack([A, eye, -eye])
    c = np.concatenate([c, lo, -hi])
    if N.shape[1] == 0:
        margins = A @ x0 - c
        if np.all(margins >= -FEASIBILITY_TOL):
            return x0, 0.0, N
        return None, -np.inf, None
    # constraints in tangent coordinates: (A N) t >= c - A x0, margin-scaled
    At = A @ N
    ct = c - A @ x0
    scale = np.linalg.norm(At, axis=1)
    flat = scale <= 1e-12
    if np.any(ct[flat] > FEASIBILITY_TOL):
        return None, -np.inf, None
    At, ct, scale = At[~flat], ct[~flat], scale[~flat]
    k = N.shape[1]
    A_ub = np.concatenate([-At, scale[:, None]], axis=1)
    obj = np.zeros(k + 1)
    obj[-1] = -1.0
    res = linprog(obj, A_ub=A_ub, b_ub=-ct,
                  bounds=[(None, None)] * (k + 1), method="highs")
    if res.status != 0:
        return None, -np.inf, None
    t, r = res.x[:k], float(res.x[k])
    if r < FEASIBILITY_TOL:
        return None, -np.inf, None
    return x0 + N @ t, r, N


def find_facets(model):
    """All facets between region pairs of a conventional model.

    A pair is adjacent when the two regions carry the same hyperplane with
    flipped orientation (syntactic) or when their closures meet and a tight
    constraint at the meeting point induces an (n-1)-dimensional facet.
    The search works in the model's ``domain_box``; each region's canonical
    hyperplanes are formed once, and its Chebyshev center is solved at most
    once, per call.
    """
    box = model.domain_box()
    regions = model.regions
    canon = [[h.canonical() for h in r.halfspaces] for r in regions]
    centers = {}
    facets = []
    for i in range(len(regions)):
        for j in range(i + 1, len(regions)):
            joint = Region(regions[i].halfspaces + regions[j].halfspaces)
            candidates = {}
            for ai, bi, si in canon[i]:
                for aj, bj, sj in canon[j]:
                    if si * sj < 0 and abs(bi - bj) <= 1e-9 and \
                            np.all(np.abs(ai - aj) <= 1e-9):
                        candidates[hyperplane_key(ai, bi)] = (ai, bi, si)
            if not candidates:
                # orient each tight hyperplane by the side region i's deepest
                # point lies on
                for alpha, beta in _tight_hyperplanes(joint, canon[i] + canon[j], box):
                    if i not in centers:
                        centers[i], _ = chebyshev_center(regions[i], box=box)
                    ci = centers[i]
                    side_i = 1.0 if ci is not None and float(alpha @ ci - beta) >= 0 \
                        else -1.0
                    candidates[hyperplane_key(alpha, beta)] = (alpha, beta, side_i)
            for alpha, beta, side_i in candidates.values():
                center, radius, N = _facet_interior(alpha, beta, joint, box)
                if center is not None:
                    facets.append(Facet(i, j, alpha, float(beta), side_i,
                                        center, radius, N))
    return facets


def _tight_hyperplanes(joint, canon, box):
    """Fallback adjacency probe: ``(alpha, beta)`` of each constraint of
    ``joint`` (canonical forms ``canon``) tight where two closures meet."""
    center, radius = chebyshev_center(joint, box=box)
    if center is None or radius < -FEASIBILITY_TOL:
        return []
    A, c = joint.matrix_form()
    tight = np.abs(A @ center - c) <= max(1e-7, 10 * abs(radius))
    return [canon[k][:2] for k in np.nonzero(tight)[0]]


# ---------------------------------------------------------------------------
# Continuity
# ---------------------------------------------------------------------------

@dataclass
class ContinuityViolation:
    region_i: int
    region_j: int
    point: np.ndarray
    value_i: float
    value_j: float

    def __str__(self):
        return (f"pieces {self.region_i} and {self.region_j} disagree at "
                f"{self.point.tolist()}: {self.value_i} vs {self.value_j}")


@dataclass
class ContinuityReport:
    facets: list = field(default_factory=list)
    violations: list = field(default_factory=list)

    @property
    def ok(self):
        return not self.violations

    def __str__(self):
        lines = [f"facets checked: {len(self.facets)}",
                 f"violations: {len(self.violations)}"]
        lines += [f"  {v}" for v in self.violations]
        return "\n".join(lines)


def check_continuity(model):
    """Compare adjacent pieces on five sampled points of every facet.

    Two pieces must agree on their shared facet to a 1e-9 relative
    tolerance; every disagreement is reported with a witness point.
    """
    report = ContinuityReport(facets=find_facets(model))
    for f in report.facets:
        pts = f.sample_points(5)
        vi = model.pieces[f.i].values(pts)
        vj = model.pieces[f.j].values(pts)
        scale = np.maximum(1.0, np.maximum(np.abs(vi), np.abs(vj)))
        bad = np.abs(vi - vj) > CONTINUITY_RTOL * scale
        for k in np.nonzero(bad)[0]:
            report.violations.append(
                ContinuityViolation(f.i, f.j, pts[k], float(vi[k]), float(vj[k]))
            )
    return report


# ---------------------------------------------------------------------------
# Consistent variation
# ---------------------------------------------------------------------------

@dataclass
class BoundaryJump:
    """Oriented Jacobian difference across one facet of one hyperplane."""

    hyperplane: tuple
    region_pos: int
    region_neg: int
    delta_jacobian: np.ndarray
    scalar: float               # c with delta = c * alpha when parallel
    parallel: bool


@dataclass
class ConsistentVariationResult:
    representable: bool
    certificate: tuple | None   # violating hyperplane key, or None
    jumps: list = field(default_factory=list)
    hyperplanes: dict = field(default_factory=dict)  # key -> (alpha, beta, scalar)

    def __bool__(self):
        return self.representable


def check_consistent_variation(model, continuity=None):
    """Decide CPLR representability via boundary Jacobian jumps.

    For every boundary hyperplane, the oriented Jacobian difference of each
    adjacent region pair must be a scalar multiple of the hyperplane normal,
    and that scalar must be the same for every pair crossing the hyperplane.
    The first failing hyperplane is returned as certificate.  The facets
    come from ``continuity``, the model's ``check_continuity`` report, which
    is computed here when the caller has none.
    """
    cont = check_continuity(model) if continuity is None else continuity
    if not cont.ok:
        raise DiscontinuousModelError(
            "consistent variation is defined for continuous models only; "
            "run check_continuity for the violation report"
        )
    groups = {}
    jumps = []
    for f in cont.facets:
        key = hyperplane_key(f.alpha, f.beta)
        if f.side_i > 0:
            pos, neg = f.i, f.j
        else:
            pos, neg = f.j, f.i
        delta = model.pieces[pos].jacobian - model.pieces[neg].jacobian
        c = float(f.alpha @ delta)
        resid = delta - c * f.alpha
        scale = max(1.0, float(np.linalg.norm(delta)))
        parallel = bool(np.linalg.norm(resid) <= CONTINUITY_RTOL * scale)
        jump = BoundaryJump(key, model.regions[pos].label,
                            model.regions[neg].label, delta, c, parallel)
        jumps.append(jump)
        groups.setdefault(key, (f.alpha, f.beta, []))[2].append(jump)

    hyperplanes = {}
    for key, (alpha, beta, grp) in groups.items():
        for jump in grp:
            if not jump.parallel:
                return ConsistentVariationResult(False, key, jumps, hyperplanes)
        scalars = np.array([j.scalar for j in grp])
        ref = scalars[0]
        if np.any(np.abs(scalars - ref) > CONTINUITY_RTOL * max(1.0, abs(ref))):
            return ConsistentVariationResult(False, key, jumps, hyperplanes)
        hyperplanes[key] = (alpha, float(beta), float(ref))
    return ConsistentVariationResult(True, None, jumps, hyperplanes)
