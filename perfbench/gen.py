"""Seeded inputs and job lists for the two benchmark workloads.

``generate(workload, seed, root, smoke)`` writes data and model files under
``root`` and returns a manifest: the list of CLI jobs, each with its argv,
the exit codes that count as success, the files it writes and what the
output check needs.  Everything is drawn from ``numpy.random.default_rng``
seeded by ``seed``; the program under test sees only the files.  Sizes do
not depend on the seed, so different seeds cost about the same to run.

``smoke=True`` makes the same job list at minimal sizes, for the warm-up
pass and for the benchmark's own smoke test.
"""

from __future__ import annotations

import json
import os

import numpy as np

import refs

WORKLOADS = ("fit", "analyze-eval")

BOX = 1.0   # analyze and eval models live on [-1, 1]^2

PROBES = 33     # pwlkit's lattice probe grid: 33 points per axis over the domain

# A known defect names the only way its job may fail and still count as
# known: a traceback of one exception type, or exit codes with a lattice
# that still reproduces the model on every probe point (it can only be
# wrong between them).  It is attached only to inputs that can show it.
LATTICE_DEFECT = {
    "why": "lattice rows come from piece dominance on 33x33 probe points, so a small "
           "cell can get a wrong row: the lattice deviates from the model between "
           "the probe points (exit 5, or exit 0 when the CLI's own sweep misses it)",
    "exits": [0, 5], "probe_deviation": 1e-9}
DC_DEFECT = {
    "why": "DcSizeError escapes cmd_convert as a traceback instead of a contract "
           "exit code",
    "exception": "DcSizeError"}


class _Builder:
    def __init__(self, root, seed, smoke):
        self.root = root
        self.rng = np.random.default_rng(seed)
        self.smoke = smoke
        self.models = {}
        self.jobs = []

    def path(self, name):
        return os.path.join(self.root, name)

    def write(self, name, text):
        with open(self.path(name), "w") as fh:
            fh.write(text)
        return self.path(name)

    def model(self, name, params):
        self.models[name] = params
        return self.write(name + ".txt", refs.write_text(params))

    def job(self, jid, argv, expect=(0,), outputs=(), check=None, known_defect=None):
        spec = {"id": jid, "argv": [str(a) for a in argv], "expect": list(expect),
                "outputs": list(outputs), "check": check or {"type": "exit"}}
        if known_defect:
            spec["known_defect"] = known_defect
        self.jobs.append(spec)


# ---------------------------------------------------------------------------
# Data sets for the fit workloads
# ---------------------------------------------------------------------------

def _plateau(X):
    """Fold with plateau of acceptance criterion 11 (max-of-affines form)."""
    d = 65.0 * (X[:, 0] - X[:, 1])
    top = np.maximum(np.maximum(d, -d), 15.0 * (X[:, 0] + X[:, 1]) - 10.0)
    return top - np.maximum(d, -d)


def _write_csv(b, name, X, y, header):
    lines = []
    if header:
        lines.append(",".join([f"x{i + 1}" for i in range(X.shape[1])] + ["y"]))
    for row, t in zip(X, y):
        lines.append(",".join(repr(float(v)) for v in row) + "," + repr(float(t)))
    return b.write(name, "\n".join(lines) + "\n")


def _fit_data(b):
    """Plateau-fold grids and 4-D scattered hinge data, two sizes each."""
    out = {}
    # The 41x41 grid is criterion 11's data exactly, so the costliest fit
    # (hh, 8 terms) does not change cost with the seed; the small grid is noisy.
    for name, side, noise in (("plateau-big", 41, 0.0), ("plateau-small", 21, 0.01)):
        side = 9 if b.smoke else side
        ax = np.linspace(0.0, 1.0, side)
        g0, g1 = np.meshgrid(ax, ax, indexing="ij")
        X = np.column_stack([g0.ravel(), g1.ravel()])
        y = _plateau(X) + b.rng.normal(0.0, noise, X.shape[0])
        out[name] = _write_csv(b, name + ".csv", X, y, header=False)
    for name, rows in (("scatter-big", 4000), ("scatter-small", 1000)):
        rows = 60 if b.smoke else rows
        X = b.rng.uniform(-1.0, 1.0, (rows, 4))
        a = b.rng.normal(0.0, 1.0, 4)
        k1, k2 = b.rng.uniform(-0.5, 0.5, 2)
        y = (2.0 * np.maximum(X @ a + 0.2, 0.0)
             + 3.0 * np.minimum(np.maximum(X[:, 0] - k1, 0.0),
                                np.maximum(k2 - X[:, 1], 0.0))
             + b.rng.normal(0.0, 0.05, rows))
        out[name] = _write_csv(b, name + ".csv", X, y, header=True)
    return out


# (data set, kind, max terms, validation split).  Term budgets and sizes
# spread the job costs evenly, so latency percentiles do not fall into a gap
# between two groups of jobs.  Fits whose cost swings with the data (hh on
# noisy data, ahh on scattered data without a validation split) are kept
# cheap, so that the costliest jobs, which set the tail, cost the same on
# every seed.
SHALLOW_JOBS = (
    ("plateau-big", "hh", 8, 0.0),
    ("scatter-big", "ahh", 10, 0.2),
    ("scatter-big", "sbf", 20, 0.0),
    ("scatter-big", "ahh", 8, 0.2),
    ("scatter-big", "sbf", 16, 0.0),
    ("plateau-big", "sbf", 10, 0.2),
    ("plateau-big", "sbf", 16, 0.0),
    ("plateau-big", "ahh", 12, 0.2),
    ("plateau-big", "ahh", 6, 0.0),
    ("plateau-big", "hh", 3, 0.2),
    ("scatter-small", "hh", 2, 0.2),
    ("scatter-small", "ahh", 8, 0.2),
    ("scatter-small", "ahh", 14, 0.0),
    ("scatter-small", "sbf", 6, 0.0),
    ("scatter-small", "sbf", 12, 0.2),
    ("plateau-small", "hh", 4, 0.2),
    ("plateau-big", "ahh", 16, 0.0),
    ("plateau-small", "ahh", 6, 0.0),
    ("plateau-small", "ahh", 10, 0.2),
    ("plateau-small", "ahh", 14, 0.0),
    ("plateau-small", "sbf", 4, 0.0),
    ("plateau-small", "sbf", 8, 0.2),
    ("scatter-small", "sbf", 16, 0.0),
    ("plateau-big", "hh", 4, 0.0),
)

# (data set, activation, hidden sizes, epochs, batch size)
DNN_JOBS = (
    ("plateau-big", "relu", "16,16", 200, 64),
    ("plateau-big", "leaky_relu", "16,16", 60, 64),
    ("plateau-big", "maxout", "16,16", 40, 64),
    ("plateau-big", "relu", "16,16", 30, 64),
    ("plateau-big", "relu", "8", 40, 32),
    ("scatter-big", "relu", "16,16", 20, 64),
    ("scatter-big", "leaky_relu", "8", 10, 64),
    ("scatter-big", "maxout", "8", 8, 64),
    ("scatter-small", "relu", "8", 60, 32),
    ("scatter-small", "leaky_relu", "16,16", 30, 64),
    ("scatter-small", "maxout", "16,16", 20, 64),
    ("scatter-small", "relu", "16,16", 40, 64),
    ("plateau-small", "relu", "16,16", 60, 64),
    ("plateau-small", "maxout", "8", 40, 32),
    ("plateau-small", "leaky_relu", "16,16", 50, 64),
    ("plateau-small", "relu", "8", 80, 32),
    ("scatter-small", "relu", "16", 40, 64),
    ("plateau-big", "leaky_relu", "8", 50, 32),
    ("plateau-big", "relu", "16,16", 60, 64),
    ("plateau-big", "maxout", "8", 20, 64),
    ("scatter-big", "relu", "8", 15, 32),
)


def _fit_jobs(b, data):
    for i, row in enumerate(SHALLOW_JOBS + DNN_JOBS):
        out = b.path(f"fit-{i}.txt")
        trace = b.path(f"fit-{i}.csv")
        argv = ["fit", "--data", data[row[0]], "--out", out, "--trace", trace,
                "--seed", i]   # the data carry the workload seed
        check = {"type": "fit", "data": data[row[0]], "model": out, "split": 0.0,
                 "seed": i}
        if i >= len(SHALLOW_JOBS):
            _, act, hidden, epochs, batch = row
            epochs = 2 if b.smoke else epochs
            argv += ["--kind", "dnn", "--activation", act, "--hidden", hidden,
                     "--epochs", epochs, "--batch-size", batch]
            jid = f"dnn-{act}-{hidden}-{row[0]}-{epochs}ep"
        else:
            _, kind, terms, split = row
            terms = min(terms, 4) if b.smoke else terms
            argv += ["--kind", kind, "--max-terms", terms, "--validation-split", split]
            check["split"] = split
            jid = f"{kind}-{row[0]}-{terms}t-v{split}"
        b.job(jid, argv, outputs=[out, trace], check=check)


# ---------------------------------------------------------------------------
# Compact models
# ---------------------------------------------------------------------------

def _affine(rng, dim, scale=1.0):
    return [float(v) for v in rng.normal(0.0, scale, dim)], float(rng.normal(0.0, scale))


def hh_params(rng, dim, hinges):
    a0, b0 = _affine(rng, dim)
    return {"kind": "hh", "alpha0": a0, "beta0": b0,
            "hinges": [[float(rng.normal()), *_affine(rng, dim)] for _ in range(hinges)]}


def cplr_params(rng, dim, terms):
    a0, b0 = _affine(rng, dim)
    return {"kind": "cplr", "alpha0": a0, "beta0": b0,
            "terms": [[int(rng.choice([-1, 1])), *_affine(rng, dim)]
                      for _ in range(terms)]}


def hh_from_cplr(m):
    """``|u| = 2 max(u, 0) - u`` term by term."""
    a0 = np.array(m["alpha0"])
    b0 = m["beta0"]
    hinges = []
    for e, a, b in m["terms"]:
        hinges.append([2.0 * e, a, b])
        a0 = a0 - e * np.array(a)
        b0 = b0 - e * b
    return {"kind": "hh", "alpha0": [float(v) for v in a0], "beta0": float(b0),
            "hinges": hinges}


def cplr_from_hh(m):
    """``w max(u, 0) = (w/2) u + (|w|/2) sign(w) |u|`` hinge by hinge."""
    a0 = np.array(m["alpha0"])
    b0 = m["beta0"]
    terms = []
    for w, a, b in m["hinges"]:
        a0 = a0 + (w / 2.0) * np.array(a)
        b0 = b0 + (w / 2.0) * b
        terms.append([1 if w >= 0 else -1, [abs(w) / 2.0 * v for v in a], abs(w) / 2.0 * b])
    return {"kind": "cplr", "alpha0": [float(v) for v in a0], "beta0": float(b0),
            "terms": terms}


def nested_params(rng, dim, depth, width):
    a, b = _affine(rng, dim)
    node = {"alpha": a, "beta": b, "children": []}
    if depth > 0:
        node["children"] = [[float(rng.normal()), nested_params(rng, dim, depth - 1, width)]
                            for _ in range(width)]
    return node


def ghh_params(rng, dim, terms, affines):
    return {"kind": "ghh", "dim": dim,
            "terms": [[float(rng.normal()), [list(_affine(rng, dim)) for _ in range(affines)]]
                      for _ in range(terms)]}


def ahh_params(rng, dim, bases):
    out = []
    for _ in range(bases):
        factors = [[int(rng.choice([-1, 1])), int(rng.integers(0, dim)),
                    float(rng.uniform(-0.8, 0.8))]
                   for _ in range(int(rng.integers(1, 4)))]
        out.append([float(rng.normal()), factors])
    return {"kind": "ahh", "dim": dim, "intercept": float(rng.normal()), "bases": out}


def sbf_params(rng, dim, bases):
    return {"kind": "sbf", "dim": dim,
            "bases": [[float(rng.normal()),
                       [float(v) for v in rng.uniform(0.5, 3.0, dim)],
                       [float(v) for v in rng.uniform(-0.8, 0.8, dim)]]
                      for _ in range(bases)]}


def hlcplr_params(rng, dim):
    axes = rng.permutation(dim)[:2]
    return {"kind": "hlcplr", "dim": dim, "interval": 0.25,
            "coords": [[int(a), int(rng.integers(-3, 3))] for a in axes]}


def lattice_params(rng, dim, affines, sets):
    return {"kind": "lattice",
            "affines": [list(_affine(rng, dim)) for _ in range(affines)],
            "sets": [sorted(int(v) for v in rng.choice(affines, int(rng.integers(1, 4)),
                                                       replace=False))
                     for _ in range(sets)]}


def dc_params(rng, dim, rows):
    return {"kind": "dc",
            "plus": [[float(v) for v in rng.normal(0.0, 1.0, dim + 1)] for _ in range(rows)],
            "minus": [[float(v) for v in rng.normal(0.0, 1.0, dim + 1)] for _ in range(rows)]}


def net_params(rng, sizes):
    layers = []
    for i in range(len(sizes) - 1):
        W = rng.normal(0.0, np.sqrt(2.0 / sizes[i]), (sizes[i + 1], sizes[i]))
        bias = rng.normal(0.0, 0.3, sizes[i + 1])
        layers.append({"W": W.tolist(), "b": bias.tolist(),
                       "activation": "linear" if i == len(sizes) - 2 else "relu"})
    return {"kind": "net", "layers": layers}


# ---------------------------------------------------------------------------
# Region-wise models
# ---------------------------------------------------------------------------

def _domain(dim):
    hs = []
    for i in range(dim):
        e = [0.0] * dim
        e[i] = 1.0
        hs.append([e, -BOX])
        hs.append([[-v for v in e], -BOX])
    return hs


def _arrangement_ok(alphas, betas, cells_wanted):
    """General position with room around every vertex; exact cell count.

    Lines through the open box cross it, so the cells inside number
    1 + lines + (crossings inside the box).
    """
    k = len(alphas)
    inside = 0
    for i in range(k):
        for j in range(i + 1, k):
            det = alphas[i][0] * alphas[j][1] - alphas[i][1] * alphas[j][0]
            if abs(det) < 0.15:
                return False
            p = np.linalg.solve(alphas[[i, j]], betas[[i, j]])
            edge = BOX - np.max(np.abs(p))
            if abs(edge) < 0.04:
                return False
            if edge > 0:
                inside += 1
                gap = np.abs(alphas @ p - betas)
                gap[[i, j]] = np.inf
                if np.min(gap) < 0.04:
                    return False
    return 1 + k + inside == cells_wanted


def arrangement_params(rng, lines, cells):
    """Cells of a random line arrangement as a consistent region-wise model.

    The pieces come from ``f = a0.x + b0 + sum_k g_k |alpha_k.x - beta_k|``,
    which is kept as the reference evaluator.
    """
    ax = np.linspace(-BOX, BOX, 241)
    g0, g1 = np.meshgrid(ax, ax, indexing="ij")
    grid = np.column_stack([g0.ravel(), g1.ravel()])
    while True:
        theta = rng.uniform(0.0, np.pi, lines)
        alphas = np.column_stack([np.cos(theta), np.sin(theta)])
        anchors = rng.uniform(-0.7, 0.7, (lines, 2))
        betas = np.einsum("ij,ij->i", alphas, anchors)
        if not _arrangement_ok(alphas, betas, cells):
            continue
        margins = grid @ alphas.T - betas
        clear = np.all(np.abs(margins) > 1e-6, axis=1)
        signs = np.unique(np.sign(margins[clear]).astype(int), axis=0)
        if signs.shape[0] == cells:   # every cell holds a grid point
            break
    gains = rng.uniform(0.5, 2.0, lines) * rng.choice([-1.0, 1.0], lines)
    a0, b0 = _affine(rng, 2)
    pieces, regions = [], []
    for s in signs:
        J = np.array(a0) + (gains * s) @ alphas
        bias = b0 - float(np.sum(gains * s * betas))
        pieces.append([[float(v) for v in J], bias])
        regions.append([[[float(v) for v in s[k] * alphas[k]], float(s[k] * betas[k])]
                        for k in range(lines)])
    cplr = {"kind": "cplr", "alpha0": a0, "beta0": b0,
            "terms": [[1 if g > 0 else -1, [float(v) for v in abs(g) * alphas[k]],
                       float(-abs(g) * betas[k])] for k, g in enumerate(gains)]}
    return {"kind": "conventional", "dim": 2, "pieces": pieces, "regions": regions,
            "domain": _domain(2), "cplr": cplr}


def _cell_vertices(halfspaces):
    """Corners of the polygon ``{x : a.x >= b for (a, b) in halfspaces}``."""
    A = np.array([h[0] for h in halfspaces])
    B = np.array([h[1] for h in halfspaces])
    out = []
    for i in range(len(B)):
        for j in range(i + 1, len(B)):
            if abs(np.linalg.det(A[[i, j]])) < 1e-12:
                continue
            p = np.linalg.solve(A[[i, j]], B[[i, j]])
            if np.all(A @ p - B >= -1e-9):
                out.append(p)
    return np.array(out)


def probe_lattice_exact(params):
    """Whether pwlkit's probe-based lattice rows are provably right for
    this arrangement model.

    Row ``i`` of the lattice should hold the pieces that stay above piece
    ``i`` on all of cell ``i``; pwlkit decides that on the probe points in
    the cell.  For affine pieces the exact answer is decided at the cell's
    corners.  The rows agree when every cell holds several probe points,
    no probe point sits on a line of the arrangement (so no rounding can
    move it between cells) and the probe answer equals the corner answer
    with a clear margin.
    """
    ax = np.linspace(-BOX, BOX, PROBES)
    g0, g1 = np.meshgrid(ax, ax, indexing="ij")
    probes = np.column_stack([g0.ravel(), g1.ravel()])
    J = np.array([p[0] for p in params["pieces"]])
    c = np.array([p[1] for p in params["pieces"]])
    values = probes @ J.T + c
    for i, region in enumerate(params["regions"]):
        margins = probes @ np.array([h[0] for h in region]).T - [h[1] for h in region]
        if np.min(np.abs(margins)) < 1e-6:
            return False
        member = np.all(margins > 0.0, axis=1)
        if np.count_nonzero(member) < 3:
            return False
        gap = np.min(values[member] - values[member, i:i + 1], axis=0)
        corners = _cell_vertices(region + params["domain"])
        exact = np.min(corners @ J.T + c - (corners @ J[i] + c[i])[:, None], axis=0)
        if np.any((gap >= 0.0) != (exact >= -1e-9)) or np.any((gap < 0.0) & (gap > -1e-6)):
            return False
    return True


def triangulated_params(rng, side):
    """Random heights on a triangulated grid: continuous, almost surely
    without the consistent-variation property."""
    ax = np.linspace(-BOX, BOX, side + 1)
    z = rng.normal(0.0, 1.0, (side + 1, side + 1))
    pieces, regions = [], []
    for i in range(side):
        for j in range(side):
            v00 = (ax[i], ax[j], z[i, j])
            v10 = (ax[i + 1], ax[j], z[i + 1, j])
            v01 = (ax[i], ax[j + 1], z[i, j + 1])
            v11 = (ax[i + 1], ax[j + 1], z[i + 1, j + 1])
            for tri in ((v00, v10, v11), (v00, v11, v01)):
                A = np.array([[x, y, 1.0] for x, y, _ in tri])
                coef = np.linalg.solve(A, np.array([t[2] for t in tri]))
                pieces.append([[float(coef[0]), float(coef[1])], float(coef[2])])
                hs = []
                for k in range(3):
                    p, q, r = tri[k], tri[(k + 1) % 3], tri[(k + 2) % 3]
                    normal = np.array([q[1] - p[1], p[0] - q[0]])
                    offset = float(normal @ np.array(p[:2]))
                    if normal @ np.array(r[:2]) < offset:
                        normal, offset = -normal, -offset
                    hs.append([[float(v) for v in normal], offset])
                regions.append(hs)
    return {"kind": "conventional", "dim": 2, "pieces": pieces, "regions": regions,
            "domain": _domain(2)}


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

def _equiv_check(a, b, tol):
    return {"type": "equiv", "a": a, "b": b, "tol": tol}


def _analyze(b):
    rng = b.rng
    box = f"-{BOX}:{BOX},-{BOX}:{BOX}"
    # (lines, cells, jobs): the 18-cell model runs validate (check_continuity
    # twice) and the two conversions that each repeat it; with the regions
    # grid probes they are the costliest jobs, close in cost, so the tail
    # percentile falls among them rather than in a gap.  The first
    # model is drawn until its probe-based lattice is exact, so its lattice
    # job must pass; the others may hit the known lattice defect unless
    # their own draw happens to be exact.
    shapes = ((4, 9, ("validate", "cplr", "lattice")), (5, 12, ("lattice",)),
              (6, 18, ("validate", "lattice", "cplr")))
    if b.smoke:
        shapes = shapes[:1]
    exact = f"arr{shapes[0][1]}"
    for lines, cells, kinds in shapes:
        name = f"arr{cells}"
        params = arrangement_params(rng, lines, cells)
        while name == exact and not probe_lattice_exact(params):
            params = arrangement_params(rng, lines, cells)
        path = b.model(name, params)
        for to in kinds:
            if to == "validate":
                b.job(f"validate-{name}", ["validate", "--model", path],
                      check={"type": "validate", "consistent": "yes"})
                continue
            out = b.path(f"{name}-{to}.txt")
            check = {"type": "convert", "source": name, "out": out}
            defect = None
            if to == "lattice":
                check["probes"] = PROBES
                if not probe_lattice_exact(params):
                    defect = LATTICE_DEFECT
            b.job(f"convert-{name}-{to}", ["convert", "--model", path, "--to", to,
                                           "--out", out],
                  outputs=[out], check=check, known_defect=defect)
    b.models["arr-cplr"] = b.models[exact]["cplr"]
    cplr_path = b.model("arr-cplr", b.models["arr-cplr"])
    b.job("equiv-arr-vs-cplr", ["equiv", "--model-a", b.path(f"{exact}.txt"),
                                "--model-b", cplr_path, "--box=" + box],
          check=_equiv_check(exact, "arr-cplr", 1e-9))

    broken = arrangement_params(rng, 4, 9)
    broken["pieces"][0][1] += 0.5
    del broken["cplr"]
    path = b.model("arr-broken", broken)
    b.job("validate-discontinuous", ["validate", "--model", path], expect=(5,),
          check={"type": "validate", "violations": True})

    tri = b.model("tri", triangulated_params(rng, 2))
    b.job("validate-tri", ["validate", "--model", tri],
          check={"type": "validate", "consistent": "no"})
    b.job("convert-tri-cplr", ["convert", "--model", tri, "--to", "cplr",
                               "--out", b.path("tri-cplr.txt")], expect=(4,),
          check={"type": "stderr", "contains": "not representable"})

    compact = {
        "cplr": cplr_params(rng, 2, 5),
        "hh": hh_params(rng, 2, 4),
        "ahh": ahh_params(rng, 2, 3),
        "sbf": sbf_params(rng, 2, 2),
        "nested": {"kind": "nested", "root": nested_params(rng, 2, 2, 2)},
        "lattice": lattice_params(rng, 2, 4, 3),
    }
    for kind, params in compact.items():
        path = b.model(f"small-{kind}", params)
        targets = {"cplr": ("dc", "ghh", "hh"), "hh": ("dc", "cplr")}.get(kind, ("dc",))
        for to in targets:
            out = b.path(f"small-{kind}-{to}.txt")
            b.job(f"convert-{kind}-{to}", ["convert", "--model", path, "--to", to,
                                           "--out", out],
                  outputs=[out], check={"type": "convert", "source": f"small-{kind}",
                                        "out": out})

    b.models["small-cplr-hh"] = hh_from_cplr(compact["cplr"])
    rewrite = b.model("small-cplr-hh", b.models["small-cplr-hh"])
    b.job("equiv-cplr-vs-hh", ["equiv", "--model-a", b.path("small-cplr.txt"),
                               "--model-b", rewrite, "--box=" + box, "--density", "65"],
          check=_equiv_check("small-cplr", "small-cplr-hh", 1e-9))
    b.models["small-hh-cplr"] = cplr_from_hh(compact["hh"])
    rewrite = b.model("small-hh-cplr", b.models["small-hh-cplr"])
    b.job("equiv-hh-vs-cplr", ["equiv", "--model-a", b.path("small-hh.txt"),
                               "--model-b", rewrite, "--box=" + box, "--density", "65"],
          check=_equiv_check("small-hh", "small-hh-cplr", 1e-9))
    # More equivalent pairs: fixed-size sweeps whose cost does not change
    # with the seed, so the median job is a steady one.
    for k, terms in enumerate((3, 4, 5, 6, 7)):
        for src, rewrite_of in (("cplr", hh_from_cplr), ("hh", cplr_from_hh)):
            name = f"pair{k}-{src}"
            params = cplr_params(rng, 2, terms) if src == "cplr" else hh_params(rng, 2, terms)
            path_a = b.model(name, params)
            b.models[name + "-rewrite"] = rewrite_of(params)
            path_b = b.model(name + "-rewrite", b.models[name + "-rewrite"])
            b.job(f"equiv-{name}", ["equiv", "--model-a", path_a, "--model-b", path_b,
                                    "--box=" + box, "--density", "65"],
                  check=_equiv_check(name, name + "-rewrite", 1e-9))
    moved = json.loads(json.dumps(compact["hh"]))
    moved["beta0"] += 0.25
    b.models["small-hh-moved"] = moved
    path = b.model("small-hh-moved", moved)
    b.job("equiv-hh-vs-moved", ["equiv", "--model-a", b.path("small-hh.txt"),
                                "--model-b", path, "--box=" + box, "--density", "65"],
          expect=(5,),
          check=_equiv_check("small-hh", "small-hh-moved", None))

    big = b.model("hh32", hh_params(rng, 2, 32))
    b.job("convert-hh32-dc", ["convert", "--model", big, "--to", "dc",
                              "--out", b.path("hh32-dc.txt")], expect=(2, 4, 6),
          known_defect=DC_DEFECT)

    nets = (("net-deep", (2, 8, 8, 1), "grid-probe"),
            ("net-deep-b", (2, 8, 8, 1), "grid-probe"),
            ("net-shallow6", (2, 6, 1), "pattern-enumeration"),
            ("net-shallow8", (2, 8, 1), "pattern-enumeration"),
            ("net-shallow10", (2, 10, 1), "pattern-enumeration"),
            ("net-shallow12", (2, 12, 1), "pattern-enumeration"),
            ("net-shallow14", (2, 14, 1), "pattern-enumeration"),
            ("net-shallow16", (2, 16, 1), "pattern-enumeration"),
            ("net-deep4", (2, 4, 4, 1), "pattern-enumeration"),
            ("net-deep5", (2, 5, 5, 1), "pattern-enumeration"),
            ("net-deep6", (2, 6, 6, 1), "pattern-enumeration"),
            ("net-deep7", (2, 7, 7, 1), "pattern-enumeration"),
            ("net-deep8", (2, 8, 8, 1), "pattern-enumeration"))
    if b.smoke:
        nets = nets[2:4]
    for name, sizes, method in nets:
        path = b.model(name, net_params(rng, sizes))
        out = b.path(f"{name}-regions.csv")
        b.job(f"regions-{name}-{method}", ["regions", "--model", path, "--method", method,
                                           "--out", out],
              outputs=[out], check={"type": "regions", "net": name, "out": out,
                                    "shallow": len(sizes) == 3})


def _eval(b):
    rng = b.rng
    # grid step per kind: 0.01 gives 201^2 points, 0.00625 gives 321^2
    steps = {"hh": "0.01", "ghh": "0.00625", "conventional": "0.01"}
    coarse, npts = ("0.125", 200) if b.smoke else ("0.02", 10000)
    models = {
        "hh": hh_params(rng, 2, 32),
        "cplr": cplr_params(rng, 2, 16),
        "nested": {"kind": "nested", "root": nested_params(rng, 2, 3, 2)},
        "ghh": ghh_params(rng, 2, 32, 3),
        "hlcplr": hlcplr_params(rng, 2),
        "ahh": ahh_params(rng, 2, 16),
        "sbf": sbf_params(rng, 2, 16),
        "lattice": lattice_params(rng, 2, 8, 6),
        "dc": dc_params(rng, 2, 16),
        "conventional": arrangement_params(rng, 5, 12),
        "net": net_params(rng, (2, 16, 16, 1)),
    }
    pts = rng.uniform(-BOX, BOX, (npts, 2))
    points = b.write("points.csv", "x1,x2\n" + "".join(
        f"{float(p[0])!r},{float(p[1])!r}\n" for p in pts))
    for kind, params in models.items():
        path = b.model(f"eval-{kind}", params)
        step = coarse if b.smoke else steps.get(kind, coarse)
        grid = f"-{BOX}:{BOX}:{step},-{BOX}:{BOX}:{step}"
        out = b.path(f"eval-{kind}-grid.csv")
        b.job(f"eval-{kind}-grid", ["eval", "--model", path, "--grid=" + grid, "--out", out],
              outputs=[out], check={"type": "eval", "model": f"eval-{kind}", "out": out,
                                    "grid": [[-BOX, BOX, float(step)]] * 2})
        out = b.path(f"eval-{kind}-points.csv")
        b.job(f"eval-{kind}-points", ["eval", "--model", path, "--points", points,
                                      "--out", out],
              outputs=[out], check={"type": "eval", "model": f"eval-{kind}", "out": out,
                                    "points": points})
    for kind in ("hh", "conventional"):
        b.job(f"eval-{kind}-stdout", ["eval", "--model", b.path(f"eval-{kind}.txt"),
                                      "--points", points],
              check={"type": "eval", "model": f"eval-{kind}", "out": None, "points": points})


def generate(workload, seed, root, smoke=False):
    """Write the inputs of one workload under ``root``; return the manifest."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")
    os.makedirs(root, exist_ok=True)
    b = _Builder(root, seed, smoke)
    if workload == "fit":
        _fit_jobs(b, _fit_data(b))
    else:
        _analyze(b)
        _eval(b)
    manifest = {"workload": workload, "seed": seed, "smoke": smoke,
                "models": b.models, "jobs": b.jobs}
    with open(os.path.join(root, "manifest.json"), "w") as fh:
        json.dump(manifest, fh)
    return manifest
