"""Region-by-region piecewise-linear models and their structural checks.

A conventional model lists polyhedral regions, one affine piece per region.
The checks here enforce the two structural assumptions every transform in
this package relies on: continuity across shared facets, and the
consistent-variation condition that decides whether a single-level
canonical (sum-of-absolute-values) form exists.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from math import comb

import numpy as np

from .affine import as_box, as_points, as_vector
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

# Two canonical unit normals are parallel when ``|cos|`` is within this of 1,
# an angle below about 1.4e-6 rad; hyperplanes matched to 1e-9 stay parallel.
PARALLEL_TOL = 1e-12

# Fallback probe box half-width used when a model declares no domain.
DEFAULT_BOX_HALFWIDTH = 10.0

# An LP block with more d-subsets of rows than this goes to HiGHS
# (``solve_lp_blocks``).  One LP alone at 1,001 subsets took 1.1 ms in the
# kernel and 1.2 ms in a warm HiGHS call, at 3,060 subsets 3.8 and 1.3 ms.
SUBSET_LIMIT = 2000

# Subsets solved per numpy call, which bounds the LP kernel's memory.
CHUNK_SUBSETS = 8192

# A d x d system is singular when its |det| is below this times the product
# of its rows' largest entries.
SINGULAR_RTOL = 1e-12

# Vertex objective values within this of the least, relative to
# max(1, |least|), tie; the first subset among them gives the point.
TIE_RTOL = 1e-13


class Halfspace:
    """One linear inequality, ``normal . x - offset >= 0`` (or ``> 0`` if open)."""

    __slots__ = ("normal", "offset", "closed")

    def __init__(self, normal, offset, closed=True):
        self.normal = as_vector(normal, "normal")
        with np.errstate(over="ignore"):
            norm = float(np.linalg.norm(self.normal))
        if not 0.0 < norm < np.inf:
            raise ValueError(f"halfspace normal must have a finite, nonzero length "
                             f"(got {norm!r})")
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
    """Axis-aligned box as a Region; the bounds as ``affine.as_box`` takes them."""
    lo, hi = as_box((lo, hi), np.size(lo))
    return Region([h for e, a, b in zip(np.eye(lo.shape[0]), lo, hi)
                   for h in (Halfspace(e, a), Halfspace(-e, -b))], label)


def _default_box(n):
    return np.full(n, -DEFAULT_BOX_HALFWIDTH), np.full(n, DEFAULT_BOX_HALFWIDTH)


def linprog(*args, **kwargs):
    """``scipy.optimize.linprog``, imported when first called.

    Importing scipy costs about a second and 49 MB, so the package imports
    it only where it is used: the LP blocks ``solve_lp_blocks`` hands to
    HiGHS.
    """
    from scipy.optimize import linprog as scipy_linprog
    return scipy_linprog(*args, **kwargs)


def solve_lp_blocks(blocks):
    """Solve independent small LPs and return each one's ``(status, x)``.

    Each block is ``(c, A_ub, b_ub, bounds)`` in ``linprog``'s terms:
    minimise ``c . x`` subject to ``A_ub x <= b_ub`` and ``bounds``, a list
    of ``(lo, hi)`` pairs with None for no bound.  The status is 0 (optimal,
    at the point ``x``), 2 (infeasible) or 3 (unbounded); ``x`` is None
    unless the status is 0.

    A block is solved by vertex enumeration (Avis & Fukuda 1992).  Its rows
    are ``A_ub`` plus its finite bounds (those that do not repeat a row of
    ``A_ub``), m rows in d variables.  Each of the
    C(m, d) d-subsets of rows that is not singular meets in one point, and
    the points that satisfy every row are the vertices.  The block is
    infeasible when it has none.  Otherwise the point is the vertex of the
    first subset whose objective is within ``TIE_RTOL`` of the least, and
    the block is unbounded when no subset's rows carry ``-c`` as a
    nonnegative combination (no dual certificate).  Blocks of one shape and
    the same bounds are solved together by numpy, each on its own matrices,
    so a block's bits do not depend on the other blocks.

    A block with more than ``SUBSET_LIMIT`` subsets, or with no nonsingular
    subset (its rows have rank below d), goes alone to HiGHS through
    ``linprog``.  The analysis LPs of this package have full rank, and they
    stay under the limit while no region (or pair of regions, for the
    probes) has more than 19 walls in 2-D or 10 in 3-D, so they load no
    scipy.
    """
    groups = {}
    for k, (c, A_ub, b_ub, bounds) in enumerate(blocks):
        bnd = np.array(bounds, dtype=float)             # (d, 2), None is NaN
        groups.setdefault((np.shape(A_ub), bnd.tobytes()), (bnd, []))[1].append(k)
    solved = [None] * len(blocks)
    for ((rows, d), _), (bnd, members) in groups.items():
        n = len(members)
        A = np.array([blocks[k][1] for k in members], dtype=float).reshape(n, rows, d)
        b = np.array([blocks[k][2] for k in members], dtype=float).reshape(n, rows)
        c = np.array([blocks[k][0] for k in members], dtype=float)
        lo, hi = bnd.T
        eye = np.eye(d)
        Gb = np.concatenate([-eye[np.isfinite(lo)], eye[np.isfinite(hi)]])
        hb = np.concatenate([-lo[np.isfinite(lo)], hi[np.isfinite(hi)]])
        # a bound that repeats one of a block's rows adds no vertex, so it is
        # left out (a lattice LP's bounds repeat its domain walls, and its
        # subsets halve); blocks that repeat the same bounds go together
        repeats = np.any(np.all(A[:, :, None] == Gb, axis=3) & (b[:, :, None] == hb), axis=1)
        kinds = {}
        for i, row in enumerate(repeats):
            kinds.setdefault(row.tobytes(), []).append(i)
        for same in kinds.values():
            keep = ~repeats[same[0]]
            for i, got in zip(same, _vertex_lps(c[same], A[same], b[same], Gb[keep], hb[keep],
                                                not np.all(np.isfinite(bnd)))):
                solved[members[i]] = got
    for k, (c, A_ub, b_ub, bounds) in enumerate(blocks):
        if solved[k] is None:
            res = linprog(c, A_ub=A_ub, b_ub=b_ub, bounds=bounds, method="highs")
            solved[k] = (res.status, res.x)
    return solved


def _vertex_lps(c, A, b, Gb, hb, free):
    """``(status, x)`` of LP blocks ``min c . x`` subject to ``A x <= b`` and
    ``Gb x <= hb``, their bounds as rows (the same for every block), stacked
    on the first axis; None for a block with too many subsets or none that
    is nonsingular.  ``free`` says whether the blocks can be unbounded (a
    variable has an infinite bound).  The blocks are solved in chunks of
    ``CHUNK_SUBSETS`` subsets."""
    n, rows, d = A.shape
    m = rows + hb.shape[0]
    if not 0 < comb(m, d) <= SUBSET_LIMIT:
        return [None] * n
    subsets = np.array(list(combinations(range(m), d)), dtype=np.intp)
    step = max(1, CHUNK_SUBSETS // len(subsets))
    out = []
    for s in range(0, n, step):
        B = min(step, n - s)
        G = np.concatenate([A[s:s + B], np.broadcast_to(Gb, (B,) + Gb.shape)], axis=1)
        h = np.concatenate([b[s:s + B], np.broadcast_to(hb, (B,) + hb.shape)], axis=1)
        out += _vertex_chunk(c[s:s + B], G, h, free, subsets)
    return out


def _vertex_chunk(c, G, h, free, subsets):
    """``_vertex_lps`` of blocks ``min c . x`` subject to ``G x <= h``, from
    their vertices at the row ``subsets``."""
    B, d = c.shape
    with np.errstate(all="ignore"):
        # |det| <= product of the rows' largest entries times d^(d/2)
        scale = np.prod(np.max(np.abs(G), axis=2)[:, subsets], axis=2)
    # the columns are eliminated last first: the Chebyshev and facet LPs
    # put the radius last, and pivoting on it first gives a center between
    # two parallel walls at their exact midpoint
    ok, X = _solve_nonsingular(G[:, subsets, ::-1], h[:, subsets], scale)
    X = X[..., ::-1]
    with np.errstate(all="ignore"):
        Gt = G.transpose(0, 2, 1)
        slack = h[:, None, :] - X @ Gt
        tol = FEASIBILITY_TOL * (1.0 + np.abs(h)[:, None, :] + np.abs(X) @ np.abs(Gt))
        feasible = ok & np.all(np.isfinite(X), axis=2) & np.all(slack >= -tol, axis=2)
        value = np.where(feasible, np.sum(X * c[:, None, :], axis=2), np.inf)
        best = np.min(value, axis=1)
        first = np.argmax(value <= (best + TIE_RTOL * np.maximum(1.0, np.abs(best)))[:, None],
                          axis=1)
    status = np.where(np.isfinite(best), 0, 2)
    check = np.flatnonzero(status == 0) if free else np.zeros(0, dtype=np.intp)
    if check.size:
        basis = G[check[:, None], subsets[first[check]]].transpose(0, 2, 1)
        certified = _dual_feasible(*_solve_nonsingular(basis, -c[check],
                                                       scale[check, first[check]]))
        for b in check[~certified]:
            # a degenerate optimal vertex can be certified by another basis
            every = G[b][subsets].transpose(0, 2, 1)
            if not np.any(_dual_feasible(*_solve_nonsingular(
                    every, np.broadcast_to(-c[b], (len(subsets), d)), scale[b]))):
                status[b] = 3
    points = X[np.arange(B), first]
    return [None if not vertex else (0, x) if s == 0 else (s, None)
            for vertex, s, x in zip(np.any(ok, axis=1).tolist(), status.tolist(), points)]


def _solve_nonsingular(M, rhs, scale):
    """``(ok, x)``: whether each stacked square matrix of ``M`` is
    nonsingular (``|det|`` above ``SINGULAR_RTOL`` times its ``scale``), and
    ``M x = rhs`` solved where it is (the identity stands in elsewhere; ``M``
    is overwritten there)."""
    with np.errstate(all="ignore"):
        ok = np.abs(np.linalg.det(M)) > SINGULAR_RTOL * scale
        M[~ok] = np.eye(M.shape[-1])
        x = np.linalg.solve(M, rhs[..., None])
    return ok, x[..., 0]


def _dual_feasible(ok, y):
    """Per multiplier vector of ``y``: nonnegative to ``FEASIBILITY_TOL``
    relative to its largest entry, and from a nonsingular system."""
    with np.errstate(all="ignore"):
        scale = np.max(np.abs(y), axis=-1, keepdims=True)
        return ok & np.all(y >= -FEASIBILITY_TOL * scale, axis=-1)


def bounding_box(region):
    """Per-axis bounds of a region via 2n small LPs, clipped to the default box."""
    n = region.dim
    A, c = region.matrix_form()
    lo, hi = _default_box(n)
    bounds = list(zip(lo, hi))
    eye = np.eye(n)
    axes = [(i, sign) for i in range(n) for sign in (1.0, -1.0)]
    blocks = [(sign * eye[i], -A, -c, bounds) for i, sign in axes]
    for (i, sign), (status, x) in zip(axes, solve_lp_blocks(blocks)):
        if status == 0:
            # a zero bound is +0.0 below and -0.0 above, whichever zero the
            # vertex has
            (lo if sign > 0 else hi)[i] = sign * (0.0 + sign * x[i])
    return lo, hi


def _inscribed_ball_lp(A, c):
    """The LP block of the largest ball in ``A y >= c``: variables ``(y, r)``,
    maximise ``r`` subject to ``A_k . y - r ||A_k|| >= c_k``."""
    k = A.shape[1]
    obj = np.zeros(k + 1)
    obj[-1] = -1.0
    A_ub = np.concatenate([-A, np.linalg.norm(A, axis=1)[:, None]], axis=1)
    return obj, A_ub, -c, [(None, None)] * (k + 1)


def _chebyshev_lp(region, box=None):
    """The LP block of ``chebyshev_center``: the region's rows, then the
    ``hi`` walls, then the ``lo`` walls."""
    n = region.dim
    A, c = region.matrix_form()
    lo, hi = _default_box(n) if box is None else box
    eye = np.eye(n)
    return _inscribed_ball_lp(np.vstack([A, -eye, eye]), np.concatenate([c, -hi, lo]))


def chebyshev_centers(regions, box=None):
    """``chebyshev_center`` of each region, the LPs solved together.

    Each center has the bits that its region's lone solve gives: a block's
    solution does not depend on the other blocks (see ``solve_lp_blocks``).
    """
    solved = solve_lp_blocks([_chebyshev_lp(r, box=box) for r in regions])
    return [(x[:r.dim], float(x[r.dim])) if status == 0 else (None, -np.inf)
            for r, (status, x) in zip(regions, solved)]


def chebyshev_center(region, box=None):
    """Deepest interior point of a region and its inscribed radius.

    Solves ``max r`` subject to ``a . x - off >= r ||a||`` for every
    halfspace, with box walls (the default box when ``box`` is None) added
    so unbounded regions stay solvable.  Returns ``(center, radius)``;
    radius below the feasibility tolerance means the region is empty or
    degenerate at probe scale.
    """
    return chebyshev_centers([region], box=box)[0]


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
# Facet detection
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


def hyperplane_key(alpha, beta):
    """``(alpha, beta)`` rounded to 9 places, as a tuple of Python floats."""
    return tuple(np.round(alpha, 9).tolist()) + (round(float(beta), 9),)


def _facet_lp(alpha, beta, joint, box):
    """The LP of a facet's center and radius within the hyperplane
    ``alpha . x = beta`` where the closures in ``joint`` meet, posed in
    tangent coordinates ``(t, r)``.

    Returns ``(x0, N, block)``: ``x0`` is the hyperplane's point nearest the
    origin and ``N`` its orthonormal tangent basis.  ``block`` is None when
    the answer needs no LP; ``x0`` is then None if the closures cannot meet
    on the hyperplane, and the facet is the point ``x0`` otherwise (n = 1).
    """
    n = alpha.shape[0]
    x0 = beta * alpha
    N = np.linalg.svd(alpha[None, :])[2][1:].T
    A, c = joint.matrix_form()
    lo, hi = box
    eye = np.eye(n)
    A = np.vstack([A, eye, -eye])
    c = np.concatenate([c, lo, -hi])
    if N.shape[1] == 0:
        margins = A @ x0 - c
        return (x0 if np.all(margins >= -FEASIBILITY_TOL) else None), N, None
    # constraints in tangent coordinates: (A N) t >= c - A x0
    At = A @ N
    ct = c - A @ x0
    flat = np.linalg.norm(At, axis=1) <= 1e-12
    if np.any(ct[flat] > FEASIBILITY_TOL):
        return None, N, None
    return x0, N, _inscribed_ball_lp(At[~flat], ct[~flat])


def _facet_interiors(queries, box):
    """``(center, radius)`` of the facet of each ``(alpha, beta, joint)``
    query, or ``(None, -inf)`` where the closures do not meet on an
    (n-1)-dimensional set.

    The LPs are solved together, each to the bits of a lone solve.  Where a
    facet's deepest point is not unique, only the radius, the optimal value,
    decides whether the facet exists.
    """
    posed = [_facet_lp(alpha, beta, joint, box) for alpha, beta, joint in queries]
    solved = iter(solve_lp_blocks([block for _, _, block in posed if block is not None]))
    out = []
    for x0, N, block in posed:
        if block is None:
            out.append((None, -np.inf) if x0 is None else (x0, 0.0))
            continue
        k = N.shape[1]
        status, x = next(solved)
        if status != 0 or float(x[k]) < FEASIBILITY_TOL:
            out.append((None, -np.inf))
        else:
            out.append((x0 + N @ x[:k], float(x[k])))
    return out


def find_facets(model):
    """All facets between region pairs of a conventional model.

    A pair's syntactic candidates are the hyperplanes both regions carry
    with opposite orientation (matched to 1e-9).  When two candidates are
    non-parallel the pair is skipped without an LP: region i's closure lies
    on one side of each candidate and region j's on the other, so the
    closures meet only inside the intersection of two non-parallel
    hyperplanes, which has dimension at most n-2 and holds no facet.
    Otherwise each candidate gets one facet LP.  A pair with no candidate
    falls back to probing the constraints tight where the two closures
    meet.  The search works in the model's ``domain_box``; each region's
    canonical hyperplanes are formed once, and its Chebyshev center is
    solved at most once, per call.  The LPs are solved together, one
    problem per phase: the tight probes, then the centers that orient the
    probed hyperplanes, then the facet LPs.
    """
    box = model.domain_box()
    regions = model.regions
    canon = [[h.canonical() for h in r.halfspaces] for r in regions]
    stacked = [tuple(np.array(col) for col in zip(*c)) for c in canon]
    pairs = []
    for i in range(len(regions)):
        ai, bi, si = stacked[i]
        for j in range(i + 1, len(regions)):
            aj, bj, sj = stacked[j]
            match = ((si[:, None] * sj[None, :] < 0)
                     & (np.abs(bi[:, None] - bj[None, :]) <= 1e-9)
                     & np.all(np.abs(ai[:, None, :] - aj[None, :, :]) <= 1e-9, axis=2))
            rows = np.flatnonzero(np.any(match, axis=1))
            if _has_nonparallel(ai[rows]):
                continue
            candidates = {}
            for k in rows.tolist():
                alpha, beta, side_i = canon[i][k]
                candidates[hyperplane_key(alpha, beta)] = (alpha, beta, side_i)
            joint = Region(regions[i].halfspaces + regions[j].halfspaces)
            pairs.append((i, j, joint, candidates))
    _probe_candidateless(pairs, canon, regions, box)
    interiors = iter(_facet_interiors(
        [(alpha, beta, joint) for _, _, joint, candidates in pairs
         for alpha, beta, _ in candidates.values()], box))
    facets = []
    for i, j, _, candidates in pairs:
        for alpha, beta, side_i in candidates.values():
            center, radius = next(interiors)
            if center is not None:
                facets.append(Facet(i, j, alpha, float(beta), side_i, center, radius))
    return facets


def _probe_candidateless(pairs, canon, regions, box):
    """Fill in the candidates of the ``(i, j, joint, candidates)`` pairs that
    have none: each constraint tight where the two closures meet, oriented
    by the side region i's deepest point lies on."""
    probe = [pair for pair in pairs if not pair[3]]
    probed = chebyshev_centers([joint for _, _, joint, _ in probe], box=box)
    tight = [_tight_hyperplanes(joint, canon[i] + canon[j], *solved)
             for (i, j, joint, _), solved in zip(probe, probed)]
    need = list(dict.fromkeys(i for (i, *_), planes in zip(probe, tight) if planes))
    centers = dict(zip(need, chebyshev_centers([regions[i] for i in need], box=box)))
    for (i, _, _, candidates), planes in zip(probe, tight):
        for alpha, beta in planes:
            ci = centers[i][0]
            side_i = 1.0 if ci is not None and float(alpha @ ci - beta) >= 0 else -1.0
            candidates[hyperplane_key(alpha, beta)] = (alpha, beta, side_i)


def _has_nonparallel(alphas):
    """Whether two of these unit normals are not parallel (``|cos|`` more
    than ``PARALLEL_TOL`` below 1)."""
    cos = alphas @ alphas.T
    return bool(np.any(np.abs(cos) < 1.0 - PARALLEL_TOL))


def _tight_hyperplanes(joint, canon, center, radius):
    """Fallback adjacency probe: ``(alpha, beta)`` of each constraint of
    ``joint`` (canonical forms ``canon``) tight at ``center``, the joint
    region's Chebyshev center of inscribed radius ``radius``, where two
    closures meet."""
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
    """Compare adjacent pieces on five points of every facet.

    Their difference is affine along the facet, so on the disc of radius
    ``0.8 * radius`` about its center it is largest at the ends of the
    diameter along the Jacobian jump's component within the hyperplane.
    The pieces are compared at the center and at four evenly spaced points
    of that diameter (of a fixed one if the jump is normal to the
    hyperplane), to a 1e-9 relative tolerance.  A failing facet is reported
    once, at the first point where they disagree.
    """
    report = ContinuityReport(facets=find_facets(model))
    for f in report.facets:
        pi, pj = model.pieces[f.i], model.pieces[f.j]
        _, along, _ = _split_jump(f.alpha, pi.jacobian - pj.jacobian)
        reach = np.linspace(-0.8 * f.radius, 0.8 * f.radius, 4)[:, None]
        pts = np.vstack([f.center, f.center + reach * _in_plane(f.alpha, along)])
        vi, vj = pi.values(pts), pj.values(pts)
        scale = np.maximum(1.0, np.maximum(np.abs(vi), np.abs(vj)))
        # a NaN difference (pieces that overflow there) is a violation too
        bad = np.flatnonzero(~(np.abs(vi - vj) <= CONTINUITY_RTOL * scale))
        if bad.size:
            k = bad[0]
            report.violations.append(
                ContinuityViolation(f.i, f.j, pts[k], float(vi[k]), float(vj[k])))
    return report


def _in_plane(alpha, along):
    """The unit direction of ``along``, a Jacobian jump projected into the
    hyperplane of unit normal ``alpha``, after one more projection; or of a
    fixed vector of the hyperplane when that projection removes most of
    ``along``, which was then rounding left of a jump normal to the
    hyperplane ("twice is enough", Kahan).  Zero in 1-D."""
    again = along - float(alpha @ along) * alpha
    if not _norm(again) > 0.5 * _norm(along):
        axis = np.eye(alpha.shape[0])[np.argmin(np.abs(alpha))]
        again = axis - float(alpha @ axis) * alpha
    norm = _norm(again)
    return again / norm if norm > 0 else again


def _split_jump(alpha, delta):
    """A Jacobian jump ``delta`` across the unit normal ``alpha``: its normal
    component ``c``, its component ``delta - c alpha`` within the hyperplane,
    and whether that component is negligible (the jump is parallel to
    ``alpha``) to ``CONTINUITY_RTOL`` relative to ``max(1, |delta|)``."""
    c = float(alpha @ delta)
    along = delta - c * alpha
    scale = max(1.0, _norm(delta))
    return c, along, bool(_norm(along) <= CONTINUITY_RTOL * scale)


def _norm(v):
    """``np.linalg.norm(v)``, recomputed from ``v`` scaled by its largest
    entry only when the plain sum of squares overflows."""
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(v))
    if norm == np.inf and np.all(np.isfinite(v)):
        big = float(np.max(np.abs(v)))
        norm = big * float(np.linalg.norm(v / big))
    return norm


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
        c, _, parallel = _split_jump(f.alpha, delta)
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
        if not np.all(np.abs(scalars - ref) <= CONTINUITY_RTOL * max(1.0, abs(ref))):
            return ConsistentVariationResult(False, key, jumps, hyperplanes)
        hyperplanes[key] = (alpha, float(beta), float(ref))
    return ConsistentVariationResult(True, None, jumps, hyperplanes)
