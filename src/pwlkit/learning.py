"""Incremental fitting for shallow piecewise-linear models.

Three growers share one ridge-damped least-squares engine: hinge sums via
alternating partition/refit, adaptive hinge bases via greedy tree search
with backward pruning, and simplex tents via residual-peak placement with
a coordinate-descent shape search.  All fitting is deterministic for a
fixed seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (DegenerateSplitError, InvalidInputError, NonFiniteFitError,
                     SingularSystemError)
from .formats import csv_text, read_csv_floats
from .models import AhhBasis, AhhModel, HingeModel, SbfModel

# Random re-splits allowed before hinge finding gives up on a side.
RESTART_BUDGET = 10

# Backfit sweeps over existing hinges after each accepted growth step.
BACKFIT_SWEEPS = 4

# Joint mask-and-refit rounds of the simultaneous polish.
POLISH_ITERS = 15

# Shape-search grid for simplex tents: powers of two, 1/8 .. 8.
SBF_GAMMA_GRID = tuple(2.0 ** k for k in range(-3, 4))

# Coordinate-descent sweeps over the shape grid.
SBF_SWEEPS = 2

# Knot candidates: empirical quantiles 5%, 10%, ..., 95% of the support.
AHH_KNOT_QUANTILES = tuple(q / 100.0 for q in range(5, 100, 5))


class Dataset:
    """Input matrix plus target vector, all entries finite."""

    def __init__(self, inputs, targets, feature_names=None):
        self.inputs = np.atleast_2d(np.asarray(inputs, dtype=float))
        self.targets = np.asarray(targets, dtype=float).ravel()
        if self.inputs.shape[0] != self.targets.shape[0]:
            raise ValueError(
                f"{self.inputs.shape[0]} input rows vs {self.targets.shape[0]} targets"
            )
        if self.inputs.shape[0] < 1:
            raise ValueError("dataset needs at least one sample")
        if not (np.all(np.isfinite(self.inputs)) and np.all(np.isfinite(self.targets))):
            raise ValueError("dataset contains non-finite entries")
        if feature_names is not None:
            feature_names = tuple(feature_names)
            if len(feature_names) != self.inputs.shape[1]:
                raise ValueError("one feature name per input column required")
        self.feature_names = feature_names

    @property
    def size(self):
        return self.inputs.shape[0]

    @property
    def dim(self):
        return self.inputs.shape[1]

    @classmethod
    def from_csv(cls, path, header="auto"):
        """Load a comma-separated file; the last column is the target.

        ``header`` may be True, False, or "auto" (non-numeric first row).
        """
        names, data = read_csv_floats(path, header)
        if names is None and not data.size:
            raise ValueError(f"{path}: empty dataset")
        if not data.size:
            raise ValueError(f"{path}: no data rows")
        if data.shape[1] < 2:
            raise ValueError(f"{path}: need at least one input column plus target")
        return cls(data[:, :-1], data[:, -1],
                   feature_names=None if names is None else names[:-1])


@dataclass
class FitConfig:
    """Budgets and knobs shared by all fitters."""

    max_terms: int = 10
    max_iterations: int = 50
    tolerance: float = 1e-10
    ridge: float = 1e-8
    seed: int = 0
    validation_split: float = 0.0

    def __post_init__(self):
        if self.max_terms < 1:
            raise ValueError("max_terms must be at least 1")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        if self.tolerance <= 0:
            raise ValueError("tolerance must be positive")
        if self.ridge < 0:
            raise ValueError("ridge must be nonnegative")
        if not 0.0 <= self.validation_split < 1.0:
            raise ValueError("validation_split must lie in [0, 1)")


@dataclass
class TraceRecord:
    step: int
    term_count: int
    train_sse: float
    validation_sse: float
    action: str


@dataclass
class FitTrace:
    """Per-step record of a fit, plus how many rows it trained and validated on."""

    records: list = field(default_factory=list)
    train_size: int = field(default=0, init=False)
    validation_size: int = field(default=0, init=False)

    def add(self, term_count, train_sse, validation_sse, action):
        self.records.append(TraceRecord(len(self.records), int(term_count),
                                        float(train_sse), float(validation_sse),
                                        action))

    def to_csv(self):
        return csv_text(["step", "term_count", "train_sse", "validation_sse", "action"],
                        ([r.step, r.term_count, repr(r.train_sse), repr(r.validation_sse),
                          r.action] for r in self.records))

    @property
    def final(self):
        return self.records[-1] if self.records else None


def least_squares(X, y, ridge=0.0):
    """Minimize ``|X theta - y|^2 + ridge |theta|^2`` stably.

    Damping is applied through augmented rows so the solve stays a plain
    least-squares factorization.  A rank-deficient system with no damping
    raises instead of silently returning the pseudo-inverse solution.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.asarray(y, dtype=float).ravel()
    if ridge < 0:
        raise ValueError("ridge must be nonnegative")
    if ridge > 0:
        k = X.shape[1]
        Xa = np.vstack([X, np.sqrt(ridge) * np.eye(k)])
        ya = np.concatenate([y, np.zeros(k)])
        theta, *_ = np.linalg.lstsq(Xa, ya, rcond=None)
        return theta
    theta, _, rank, _ = np.linalg.lstsq(X, y, rcond=None)
    if rank < X.shape[1]:
        raise SingularSystemError(
            f"design matrix has rank {rank} < {X.shape[1]} columns; "
            "pass ridge > 0 to regularize"
        )
    return theta


def _sse(residual):
    """Sum of squares of ``residual``; NonFiniteFitError when it overflows."""
    with np.errstate(over="ignore", invalid="ignore"):
        sse = float(np.sum(residual ** 2))
    if not np.isfinite(sse):
        raise NonFiniteFitError(f"the sum of squared errors is {sse!r}; the data are "
                                "too large to fit")
    return sse


def _refit_columns(C, y, ridge):
    """Ridge least squares of ``y`` on the columns of ``C``, and its SSE."""
    if not C.shape[1]:
        return np.empty(0), _sse(y)
    theta = least_squares(C, y, ridge)
    return theta, _sse(C @ theta - y)


def _augment(X):
    return np.column_stack([X, np.ones(X.shape[0])])


def _grams(B, y):
    """``B.T @ B``, ``B.T @ y`` and ``y @ y``: a scan's fixed-column terms."""
    return B.T @ B, B.T @ y, float(y @ y)


def _scan_candidate_blocks(B, y, blocks, ridge, grams=None):
    """SSE of the ridge solve for ``[B | block]`` per candidate block.

    ``B`` holds the fixed design columns; ``blocks`` is (N, count, m) with
    one m-column block per candidate.  Normal equations are assembled from
    one Gram precompute plus one matmul across all candidates, so the scan
    costs O(N k m) per candidate instead of a full factorization.  Callers
    that scan one ``(B, y)`` many times pass its ``grams`` (``_grams(B,
    y)``).  Returns an SSE array (inf where the tiny system is singular).
    """
    N, k = B.shape
    _, count, m = blocks.shape
    G, gy, yy = _grams(B, y) if grams is None else grams
    flat = blocks.reshape(N, count * m)
    cross = (B.T @ flat).reshape(k, count, m).transpose(1, 0, 2)   # (count, k, m)
    # one two-operand product per slot pair: the same sums, in the same order,
    # as einsum("nim,nil->iml"), without its slow generic loop
    cc = np.empty((count, m, m))
    for a in range(m):
        for b in range(a, m):
            cc[:, a, b] = cc[:, b, a] = np.einsum("ni,ni->i", blocks[:, :, a],
                                                  blocks[:, :, b])
    cy = np.einsum("nim,n->im", blocks, y)
    K = np.empty((count, k + m, k + m))
    K[:, :k, :k] = G
    K[:, :k, k:] = cross
    K[:, k:, :k] = cross.transpose(0, 2, 1)
    K[:, k:, k:] = cc
    rhs = np.empty((count, k + m))
    rhs[:, :k] = gy
    rhs[:, k:] = cy
    damp = max(ridge, 1e-12) * np.eye(k + m)
    try:
        theta = np.linalg.solve(K + damp, rhs[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError:
        sse = np.full(count, np.inf)
        for i in range(count):
            try:
                th = np.linalg.solve(K[i] + damp, rhs[i])
            except np.linalg.LinAlgError:
                continue
            sse[i] = yy - 2.0 * float(rhs[i] @ th) + float(th @ K[i] @ th)
        return sse
    return (yy - 2.0 * np.einsum("ij,ij->i", rhs, theta)
            + np.einsum("ij,ijl,il->i", theta, K, theta))


def _fit_setup(data, cfg):
    """Start of every grower: config, seeded rng, empty trace, train and
    validation rows ``(Xt, yt, Xv, yv)``; a split of 0 validates on none."""
    cfg = cfg or FitConfig()
    rng = np.random.default_rng(cfg.seed)
    train_idx, val_idx = np.arange(data.size), np.empty(0, dtype=int)
    if cfg.validation_split > 0.0:
        perm = rng.permutation(data.size)
        n_val = max(1, int(round(cfg.validation_split * data.size)))
        train_idx, val_idx = np.sort(perm[n_val:]), np.sort(perm[:n_val])
    trace = FitTrace()
    trace.train_size, trace.validation_size = len(train_idx), len(val_idx)
    X, y = data.inputs, data.targets
    return (cfg, rng, trace, X[train_idx], y[train_idx], X[val_idx], y[val_idx])


def _validation_sse(predict, Xv, yv, train_sse):
    """SSE of ``predict`` on the validation rows; the train SSE without any."""
    if not len(yv):
        return train_sse
    return _sse(predict(Xv) - yv)


# ---------------------------------------------------------------------------
# Hinge finding
# ---------------------------------------------------------------------------

@dataclass
class HingeFit:
    """One fitted hinge: two half-planes in augmented coordinates."""

    theta_plus: np.ndarray       # length n+1, last entry is the bias
    theta_minus: np.ndarray
    plus_mask: np.ndarray        # membership of the positive side
    iterations: int
    converged: bool
    sse: float

    @property
    def direction(self):
        """Augmented difference vector; its sign splits the data."""
        return self.theta_plus - self.theta_minus

    def values(self, X):
        Xa = _augment(np.atleast_2d(np.asarray(X, dtype=float)))
        return np.maximum(Xa @ self.theta_plus, Xa @ self.theta_minus)


def find_hinge(data, cfg=None, init=None):
    """Locate one hinge on a dataset by alternating split and refit."""
    cfg = cfg or FitConfig()
    return _find_hinge(data.inputs, data.targets, cfg,
                       np.random.default_rng(cfg.seed), init=init)


def _find_hinge(X, y, cfg, rng, init=None):
    """Alternate membership split and per-side least squares.

    A split that reproduces itself is converged and returned.  A split
    already refit since the last random re-split ends the alternation with
    the best refit seen: each step is a function of the split alone, so
    the loop would only replay that cycle until the iteration budget runs
    out.  An empty side triggers a seeded random re-split; once the restart
    budget is spent the best hinge seen so far is returned, and a
    degenerate-split error is raised only if no two-sided refit ever
    succeeded.
    """
    N, n = X.shape
    if N < 2 * (n + 1):
        raise InvalidInputError(f"need at least {2 * (n + 1)} samples for a hinge "
                                f"in dimension {n}, got {N}")
    Xa = _augment(X)

    if init is not None:
        tp0, tm0 = (np.asarray(t, dtype=float) for t in init)
        mask = Xa @ (tp0 - tm0) > 0
    else:
        theta0 = least_squares(Xa, y, cfg.ridge)
        mask = (y - Xa @ theta0) > 0
    if mask.all() or not mask.any():
        mask = rng.random(N) < 0.5

    best = None
    restarts = 0
    seen = set()    # splits refit since the last random re-split, bit-packed
    for it in range(1, cfg.max_iterations + 1):
        if mask.all() or not mask.any():
            restarts += 1
            if restarts > RESTART_BUDGET:
                break
            mask = rng.random(N) < 0.5
            seen.clear()
            continue
        key = np.packbits(mask).tobytes()
        if key in seen:
            break
        seen.add(key)
        tp = least_squares(Xa[mask], y[mask], cfg.ridge)
        tm = least_squares(Xa[~mask], y[~mask], cfg.ridge)
        sse = _sse(y - np.maximum(Xa @ tp, Xa @ tm))
        new_mask = Xa @ (tp - tm) > 0
        if np.array_equal(new_mask, mask):
            return HingeFit(tp, tm, mask.copy(), it, True, sse)
        if best is None or sse < best.sse:
            best = HingeFit(tp, tm, mask.copy(), it, False, sse)
        mask = new_mask
    if best is None:
        raise DegenerateSplitError(
            f"no two-sided split survived {RESTART_BUDGET} restarts"
        )
    return best


# ---------------------------------------------------------------------------
# Hinge-sum fitting
# ---------------------------------------------------------------------------

def _hinge_columns(X, directions):
    """``X``, a constant and one ReLU column ``max(Xa @ d, 0)`` per hinge."""
    Xa = _augment(X)
    return np.column_stack([Xa] + [np.maximum(Xa @ d, 0.0) for d in directions])


def _refit_hinges(X, y, directions, ridge):
    """Joint ridge refit of affine part plus one weight per hinge column."""
    return _refit_columns(_hinge_columns(X, directions), y, ridge)


def _normalized(direction):
    """Scale so the normal part has unit norm; weight refits absorb scale."""
    norm = float(np.linalg.norm(direction[:-1]))
    return direction / norm if norm > 1e-12 else direction


MAX_BIAS_CANDIDATES = 512


def _simultaneous_polish(X, y, directions, ridge):
    """Joint alternation over all hinges at once.

    With every hinge's activity mask frozen, the model is linear in the
    per-hinge direction vectors, so one ridge solve updates them all
    together; masks are then recomputed and the loop repeats.  Moving all
    breakpoints simultaneously escapes the symmetric traps coordinate-wise
    relocation gets stuck in.  Each step is a function of the masks alone,
    so the loop stops at the first mask set it has already solved; the best
    refit seen is returned.
    """
    if not directions:
        return directions, None, np.inf
    Xa = _augment(X)
    n1 = Xa.shape[1]
    dirs = [d.copy() for d in directions]
    best_dirs, best_theta, best_sse = None, None, np.inf
    seen = set()
    for _ in range(POLISH_ITERS):
        masks = [Xa @ d > 0 for d in dirs]
        if any(m.all() or not m.any() for m in masks):
            break
        key = np.packbits(masks).tobytes()
        if key in seen:
            break
        seen.add(key)
        cols = [Xa] + [m[:, None] * Xa for m in masks]
        theta = least_squares(np.column_stack(cols), y, ridge)
        new_dirs = []
        degenerate = False
        for k in range(len(dirs)):
            gamma = theta[n1 * (k + 1): n1 * (k + 2)]
            if np.linalg.norm(gamma[:-1]) <= 1e-12:
                degenerate = True
                break
            new_dirs.append(_normalized(gamma))
        if degenerate:
            break
        dirs = new_dirs
        th, sse = _refit_hinges(X, y, dirs, ridge)
        if sse < best_sse:
            best_dirs, best_theta, best_sse = [d.copy() for d in dirs], th, sse
    if best_dirs is None:
        return directions, None, np.inf
    return best_dirs, best_theta, best_sse


def _refine_bias(X, y, directions, k, ridge, sse):
    """Snap hinge k's breakpoint to the best data projection.

    Along a fixed normal the joint SSE is piecewise in the hinge bias and
    any exactly recoverable kink sits on a data projection, so scanning
    projections (subsampled when large) finds it.  Keeps the incumbent
    when nothing improves.
    """
    d = directions[k]
    proj = X @ d[:-1]
    cand = np.unique(proj)
    if cand.shape[0] > MAX_BIAS_CANDIDATES:
        idx = np.round(np.linspace(0, cand.shape[0] - 1,
                                   MAX_BIAS_CANDIDATES)).astype(int)
        cand = cand[idx]
    B = _hinge_columns(X, directions[:k] + directions[k + 1:])
    blocks = np.subtract.outer(proj, cand)
    np.maximum(blocks, 0.0, out=blocks)     # in place: one (N, count) buffer
    scan = _scan_candidate_blocks(B, y, blocks[:, :, None], ridge)
    i = int(np.argmin(scan))
    if not np.isfinite(scan[i]):
        return directions, None, sse, False
    trial_dir = d.copy()
    trial_dir[-1] = -float(cand[i])
    trial = list(directions)
    trial[k] = trial_dir
    theta, s = _refit_hinges(X, y, trial, ridge)
    if not s < sse - 1e-15:
        return directions, None, sse, False
    return trial, theta, s, True


def _hinge_model(n, theta, directions):
    alpha0, beta0 = theta[:n], theta[n]
    hinges = [(float(theta[n + 1 + k]), d[:n], float(d[n]))
              for k, d in enumerate(directions)]
    return HingeModel(alpha0, beta0, hinges)


def _backfit_step(X, y, directions, theta, sse, k, cfg, rng, refine):
    """One backfit move: joint polish for ``k == -1``, else re-find hinge k
    against the residual of the others and re-snap its breakpoint with
    ``refine(directions, k, sse)`` (``_refine_bias`` on X and y).

    Returns ``(directions, theta, sse, moved)``; a replacement is kept only
    when it lowers the joint SSE.
    """
    if k < 0:
        p_dirs, p_theta, p_sse = _simultaneous_polish(X, y, directions, cfg.ridge)
        if p_sse < sse - cfg.tolerance:
            return p_dirs, p_theta, p_sse, True
        return directions, theta, sse, False
    n = X.shape[1]
    moved = False
    others = directions[:k] + directions[k + 1 :]
    theta_o, _ = _refit_hinges(X, y, others, cfg.ridge)
    partial = y - _hinge_model(n, theta_o, others).values(X)
    try:
        hk = _find_hinge(X, partial, cfg, rng, init=(directions[k], np.zeros(n + 1)))
    except DegenerateSplitError:
        return directions, theta, sse, False
    trial = list(directions)
    trial[k] = _normalized(hk.direction)
    t_theta, t_sse = _refit_hinges(X, y, trial, cfg.ridge)
    if t_sse < sse - cfg.tolerance:
        directions, theta, sse, moved = trial, t_theta, t_sse, True
    directions, th_k, sse_k, snapped = refine(directions, k, sse)
    if snapped:
        return directions, th_k, sse_k, True
    return directions, theta, sse, moved


def fit_hh(data, cfg=None):
    """Grow a hinge sum: find a hinge on the residual, append, refit all.

    After each accepted hinge a backfit sweep polishes all hinges jointly,
    then re-runs hinge finding for every existing hinge against the
    residual of the others, keeping any replacement that lowers the joint
    SSE.  Sweeps end after one that moved nothing, or as soon as the
    polish and every hinge have been re-tested on an unchanged state
    without drawing from the rng.  Growth stops at the term budget or when
    a round fails to improve by the configured tolerance.
    """
    cfg, rng, trace, Xt, yt, Xv, yv = _fit_setup(data, cfg)
    n = data.dim

    # _refine_bias is a function of the hinges, k and the SSE alone (the data
    # and ridge are fixed for the fit), and backfit steps that drew from the
    # rng often hand it an input it has already scanned
    snapped = {}

    def refine(dirs, k, s):
        key = (b"".join(d.tobytes() for d in dirs), k, np.float64(s).tobytes())
        if key not in snapped:
            snapped[key] = _refine_bias(Xt, yt, dirs, k, cfg.ridge, s)
        return snapped[key]

    directions = []
    theta, sse = _refit_hinges(Xt, yt, directions, cfg.ridge)
    model = _hinge_model(n, theta, directions)
    val_sse = _validation_sse(model.values, Xv, yv, sse)
    trace.add(0, sse, val_sse, "affine")

    for _ in range(cfg.max_terms):
        residual = yt - _hinge_model(n, theta, directions).values(Xt)
        try:
            hf = _find_hinge(Xt, residual, cfg, rng)
        except DegenerateSplitError:
            trace.add(len(directions), sse, val_sse, "skip-degenerate")
            break
        delta = hf.direction
        if np.linalg.norm(delta[:-1]) <= 1e-12:
            trace.add(len(directions), sse, val_sse, "skip-degenerate")
            break
        new_dirs = directions + [_normalized(delta)]
        new_theta, new_sse = _refit_hinges(Xt, yt, new_dirs, cfg.ridge)
        new_dirs, th_r, sse_r, moved = refine(new_dirs, len(new_dirs) - 1, new_sse)
        if moved:
            new_theta, new_sse = th_r, sse_r
        if not new_sse <= sse - cfg.tolerance:
            trace.add(len(directions), sse, val_sse, "stop-no-progress")
            break
        directions, theta, sse = new_dirs, new_theta, new_sse

        # polish all hinges jointly (step -1), then re-fit and re-snap each
        # hinge k (step k).  A step sees only the hinges, the SSE and the
        # rng, so once every step in a row has neither moved nor drawn from
        # the rng, the rest of the sweeps would replay them unchanged.
        steps = range(-1, len(directions))
        quiet = 0   # consecutive steps that changed neither state nor rng
        for _sweep in range(BACKFIT_SWEEPS):
            improved = False
            for k in steps:
                drawn = rng.bit_generator.state
                directions, theta, sse, moved = _backfit_step(
                    Xt, yt, directions, theta, sse, k, cfg, rng, refine)
                improved |= moved
                quiet = 0 if moved or rng.bit_generator.state != drawn else quiet + 1
                if quiet == len(steps):
                    break
            if not improved or quiet == len(steps):
                break

        model = _hinge_model(n, theta, directions)
        val_sse = _validation_sse(model.values, Xv, yv, sse)
        trace.add(len(directions), sse, val_sse, "add-hinge")

    model = _hinge_model(n, theta, directions)
    return model, trace


# ---------------------------------------------------------------------------
# Adaptive hinge tree search
# ---------------------------------------------------------------------------

@dataclass
class AhhTreeNode:
    """Provenance of one basis in the growth tree.

    ``parent_factors`` is None for children of the constant basis; pruned
    nodes stay in the tree so the full search history is reconstructable.
    """

    factors: tuple
    parent_factors: tuple | None
    delta: int
    variable: int
    knot: float
    pruned: bool = False


def _ahh_columns(X, bases):
    cols = [np.ones(X.shape[0])]
    for b in bases:
        cols.append(b.values(X))
    return np.column_stack(cols)


def _ahh_knots(xs):
    """Quantile knot candidates of one variable over a parent's support, or
    None when the support has no span in that variable."""
    if xs.max() - xs.min() <= 1e-12:
        return None
    return np.unique(np.quantile(xs, AHH_KNOT_QUANTILES))


def fit_ahh(data, cfg=None):
    """Grow min-of-hinge bases by recursive partition search, then prune.

    Forward pass: every iteration scans (parent basis, variable, quantile
    knot) candidates, adds the sign pair whose joint weight refit gives
    the lowest SSE.  Backward pass: greedily delete bases while deletion
    improves validation SSE.  Returns the model, the trace, and the tree.
    """
    cfg, _rng, trace, Xt, yt, Xv, yv = _fit_setup(data, cfg)
    n = data.dim

    bases: list[AhhBasis] = []
    tree: list[AhhTreeNode] = []
    # the design matrices on the train and validation rows: intercept, then
    # one column per basis, each basis evaluated once
    B, Bv = _ahh_columns(Xt, bases), _ahh_columns(Xv, bases)
    theta, sse = _refit_columns(B, yt, cfg.ridge)

    def val_sse_of(Cv, th, train_sse):
        return _validation_sse(lambda _: Cv @ th, Xv, yv, train_sse)

    trace.add(0, sse, val_sse_of(Bv, theta, sse), "intercept")

    # a parent's support never changes while bases only grow, so its knots
    # are found once: (parent, v) -> knots, or None for a zero-span support
    knots_of = {}
    while len(bases) + 2 <= cfg.max_terms:
        basis_cols = B[:, 1:]
        grams = _grams(B, yt)
        best = None   # (sse, parent, v, knot)
        for parent in range(-1, len(bases)):
            parent_col = (np.ones(Xt.shape[0]) if parent < 0
                          else basis_cols[:, parent])
            support = parent_col > 0
            if not np.any(support):
                continue
            for v in range(n):
                if (parent, v) not in knots_of:
                    knots_of[parent, v] = _ahh_knots(Xt[support, v])
                knots = knots_of[parent, v]
                if knots is None:
                    continue
                x = Xt[:, v][:, None]
                blocks = np.empty((Xt.shape[0], knots.shape[0], 2))
                np.minimum(parent_col[:, None], np.maximum(x - knots, 0.0),
                           out=blocks[:, :, 0])
                np.minimum(parent_col[:, None], np.maximum(knots - x, 0.0),
                           out=blocks[:, :, 1])
                scan = _scan_candidate_blocks(B, yt, blocks, cfg.ridge, grams)
                i = int(np.argmin(scan))
                if np.isfinite(scan[i]) and (best is None or scan[i] < best[0] - 1e-15):
                    best = (float(scan[i]), parent, v, float(knots[i]))
        if best is None or not best[0] <= sse - cfg.tolerance:
            trace.add(len(bases), sse, val_sse_of(Bv, theta, sse), "stop-no-progress")
            break
        _, parent, v, knot = best
        parent_factors = () if parent < 0 else bases[parent].factors
        pair = [AhhBasis(parent_factors + ((+1, v, knot),)),
                AhhBasis(parent_factors + ((-1, v, knot),))]
        C = np.column_stack([B] + [b.values(Xt) for b in pair])
        th, s = _refit_columns(C, yt, cfg.ridge)
        if not s <= sse - cfg.tolerance:
            trace.add(len(bases), sse, val_sse_of(Bv, theta, sse), "stop-no-progress")
            break
        for delta, child in zip((+1, -1), pair):
            bases.append(child)
            tree.append(AhhTreeNode(child.factors,
                                    parent_factors if parent >= 0 else None,
                                    delta, v, knot))
        B, Bv = C, np.column_stack([Bv] + [b.values(Xv) for b in pair])
        theta, sse = th, s
        trace.add(len(bases), sse, val_sse_of(Bv, theta, sse), "add-pair")

    # backward pruning on validation error; each drop-one trial deletes a
    # column from the design matrices instead of re-evaluating bases
    current_val = val_sse_of(Bv, theta, sse)
    while bases:
        best = None   # (val_sse, index, theta, train_sse)
        for k in range(len(bases)):
            th, s = _refit_columns(np.delete(B, k + 1, axis=1), yt, cfg.ridge)
            vs = _validation_sse(lambda _: np.delete(Bv, k + 1, axis=1) @ th,
                                 Xv, yv, s)
            if best is None or vs < best[0]:
                best = (vs, k, th, s)
        if best is None or best[0] >= current_val:
            break
        current_val, k, theta, sse = best[0], best[1], best[2], best[3]
        removed = bases.pop(k)
        B, Bv = np.delete(B, k + 1, axis=1), np.delete(Bv, k + 1, axis=1)
        for node in tree:
            if node.factors == removed.factors and not node.pruned:
                node.pruned = True
                break
        trace.add(len(bases), sse, current_val, "prune")

    model = AhhModel(n, float(theta[0]),
                     [(float(theta[1 + k]), b) for k, b in enumerate(bases)])
    return model, trace, tree


# ---------------------------------------------------------------------------
# Simplex tent fitting
# ---------------------------------------------------------------------------

def _sbf_column(A, gamma):
    """One tent's column from ``A = |X - zeta|``, its center's offsets."""
    return np.maximum(1.0 - A @ gamma, 0.0)


def fit_sbf(data, cfg=None):
    """Grow simplex tents at residual peaks with a shape search per tent.

    Each round centers a new tent on the sample with the largest absolute
    residual, then tunes its per-coordinate widths by coordinate descent
    over a geometric grid, scoring each candidate by the SSE after a full
    weight refit.
    """
    cfg, _rng, trace, Xt, yt, Xv, yv = _fit_setup(data, cfg)
    n = data.dim

    bases = []   # (gamma, zeta)
    # the accepted tents' columns on the train and validation rows
    B, Bv = np.empty((Xt.shape[0], 0)), np.empty((Xv.shape[0], 0))
    theta, sse = _refit_columns(B, yt, cfg.ridge)

    def val_sse_of(Cv, th, train_sse):
        return _validation_sse(lambda _: Cv @ th, Xv, yv, train_sse)

    trace.add(0, sse, val_sse_of(Bv, theta, sse), "empty")

    for _ in range(cfg.max_terms):
        abs_residual = np.abs(yt - B @ theta)
        peak = float(np.max(abs_residual))
        if peak <= 1e-12:
            trace.add(len(bases), sse, val_sse_of(Bv, theta, sse), "stop-perfect")
            break
        zeta = Xt[int(np.argmax(abs_residual))].copy()
        gamma = np.ones(n)
        A = np.abs(Xt - zeta)
        grams = _grams(B, yt)
        for _sweep in range(SBF_SWEEPS):
            for i in range(n):
                cols = []
                for g in SBF_GAMMA_GRID:
                    trial_gamma = gamma.copy()
                    trial_gamma[i] = g
                    cols.append(_sbf_column(A, trial_gamma))
                blocks = np.stack(cols, axis=1)[:, :, None]
                scan = _scan_candidate_blocks(B, yt, blocks, cfg.ridge, grams)
                j = int(np.argmin(scan))
                if np.isfinite(scan[j]):
                    gamma[i] = SBF_GAMMA_GRID[j]
        C = np.column_stack([B, _sbf_column(A, gamma)])
        new_theta, new_sse = _refit_columns(C, yt, cfg.ridge)
        if not new_sse <= sse - cfg.tolerance:
            trace.add(len(bases), sse, val_sse_of(Bv, theta, sse), "stop-no-progress")
            break
        bases.append((gamma, zeta))
        B, Bv = C, np.column_stack([Bv, _sbf_column(np.abs(Xv - zeta), gamma)])
        theta, sse = new_theta, new_sse
        trace.add(len(bases), sse, val_sse_of(Bv, theta, sse), "add-tent")

    model = SbfModel(n, [(float(theta[k]), g, z) for k, (g, z) in enumerate(bases)])
    return model, trace
