"""Output checks, run after the timed work is over.

``check_job(job, first, models, seed)`` looks at the files and the stdout
of a job's first execution and returns ``(ok, reason, figures)``; ``figures``
holds the normalised train RMSE of fit jobs (``nrmse``) and, for lattice
conversions, the deviation on pwlkit's own probe grid (``probe_deviation``).
Reference values come from ``refs.evaluate`` on the generated parameters
wherever an independent answer exists; fitted and converted models are reloaded with
pwlkit's own reader, since their parameters exist only in pwlkit's files.
"""

from __future__ import annotations

import io

import numpy as np

import refs


def _summary(stdout):
    out = {}
    for line in stdout.splitlines():
        key, sep, value = line.partition(": ")
        if sep:
            out[key] = value
    return out


def _load_csv(path):
    with open(path) as fh:
        first = fh.readline()
    try:
        [float(v) for v in first.split(",")]
        skip = 0
    except ValueError:
        skip = 1
    return np.loadtxt(path, delimiter=",", skiprows=skip, ndmin=2)


def _float(text):
    """A float printed by ``repr``, also as numpy 2 prints it (``np.float64(x)``)."""
    text = text.strip()
    if text.startswith("np.float64(") and text.endswith(")"):
        text = text[len("np.float64("):-1]
    return float(text)


def _fresh_points(seed, dim, count=256):
    """Halton points on [-1, 1]^dim that pwlkit's own sweeps never use."""
    return -1.0 + 2.0 * refs.halton(count, dim, skip=1000 + 97 * seed)


def _close(got, want, rtol):
    scale = np.maximum(1.0, np.abs(want))
    return bool(np.all(np.abs(got - want) <= rtol * scale))


def _check_fit(job, stdout):
    from pwlkit.formats import load_model

    spec = job["check"]
    reported = float(_summary(stdout)["train-rmse"])
    data = _load_csv(spec["data"])
    X, y = data[:, :-1], data[:, -1]
    train = np.arange(len(y))
    if spec["split"] > 0:
        perm = np.random.default_rng(spec["seed"]).permutation(len(y))
        n_val = max(1, int(round(spec["split"] * len(y))))
        train = np.sort(perm[n_val:])
    pred = load_model(spec["model"]).values(X[train])
    rmse = float(np.sqrt(np.mean((pred - y[train]) ** 2)))
    nrmse = reported / float(np.std(y))
    if abs(rmse - reported) > 1e-9 * max(reported, 1e-12):
        return False, f"train-rmse {reported!r} but reloaded model gives {rmse!r}", nrmse
    return True, "", nrmse


def _check_eval(job, stdout, models):
    spec = job["check"]
    out = np.loadtxt(spec["out"] or io.StringIO(stdout), delimiter=",", ndmin=2)
    if "grid" in spec:
        axes = [a + s * np.arange(int(np.floor((b - a) / s + 0.5)) + 1)
                for a, b, s in spec["grid"]]
        mesh = np.meshgrid(*axes, indexing="ij")
        pts = np.column_stack([m.ravel() for m in mesh])
    else:
        pts = _load_csv(spec["points"])
    if out.shape != (pts.shape[0], pts.shape[1] + 1):
        return False, f"output shape {out.shape}, expected {(pts.shape[0], pts.shape[1] + 1)}"
    if not np.array_equal(out[:, :-1], pts):
        return False, "output points differ from the requested points"
    want = refs.evaluate(models[spec["model"]], pts)
    if not _close(out[:, -1], want, 1e-9):
        worst = float(np.max(np.abs(out[:, -1] - want)))
        return False, f"values deviate from the reference by up to {worst:.3e}"
    return True, ""


def _check_convert(job, stdout, models, seed):
    from pwlkit.formats import load_model

    spec = job["check"]
    source = models[spec["source"]]
    pts = _fresh_points(seed, 2)
    want = refs.evaluate(source, pts)
    converted = load_model(spec["out"])
    figures = {}
    if "probes" in spec:
        ax = np.linspace(-1.0, 1.0, spec["probes"])
        grid = np.column_stack([m.ravel() for m in np.meshgrid(ax, ax, indexing="ij")])
        figures["probe_deviation"] = float(np.max(np.abs(
            converted.values(grid) - refs.evaluate(source, grid))))
    got = converted.values(pts)
    if not _close(got, want, 1e-9):
        return (False, f"converted model deviates by {float(np.max(np.abs(got - want))):.3e}",
                figures)
    if float(_summary(stdout)["max-deviation"]) > 1e-9:
        return False, "reported max-deviation above the tolerance", figures
    return True, "", figures


def _check_equiv(job, stdout, models, seed):
    spec = job["check"]
    report = _summary(stdout)
    a, b = models[spec["a"]], models[spec["b"]]
    if spec["tol"] is not None:
        pts = _fresh_points(seed, 2)
        dev = float(np.max(np.abs(refs.evaluate(a, pts) - refs.evaluate(b, pts))))
        if dev > spec["tol"] * max(1.0, float(np.max(np.abs(refs.evaluate(a, pts))))):
            return False, f"inputs differ by {dev:.3e} on fresh points"
        if report.get("equivalent") != "yes":
            return False, "equivalent pair reported as not equivalent"
        return True, ""
    point = np.array([[_float(v) for v in report["argmax-point"].split(",")]])
    dev = abs(float(refs.evaluate(a, point)[0] - refs.evaluate(b, point)[0]))
    reported = float(report["max-abs-deviation"])
    if report.get("equivalent") != "no" or abs(dev - reported) > 1e-9 * max(1.0, dev):
        return False, f"reported deviation {reported!r}, reference {dev!r} at argmax point"
    return True, ""


def _check_validate(job, stdout):
    spec = job["check"]
    report = _summary(stdout)
    violations = int(report.get("continuity-violations", "-1"))
    if spec.get("violations"):
        return (violations > 0, "" if violations > 0 else "violation not reported")
    if violations != 0:
        return False, f"{violations} continuity violations on a continuous model"
    if int(report.get("facets", "0")) < 1:
        return False, "no facets found"
    if report.get("consistent-variation") != spec["consistent"]:
        return False, f"consistent-variation {report.get('consistent-variation')!r}"
    return True, ""


def _check_regions(job, stdout, models):
    spec = job["check"]
    net = models[spec["net"]]
    rows = np.loadtxt(spec["out"], delimiter=",", ndmin=2)
    count = int(_summary(stdout)["count"])
    if rows.shape[0] != count:
        return False, f"count {count} but {rows.shape[0]} certificates"
    n = len(net["layers"][0]["W"][0])
    x, J, c = rows[:, :n], rows[:, n:2 * n], rows[:, 2 * n]
    want = refs.net_forward(net["layers"], x)
    got = np.einsum("ij,ij->i", J, x) + c
    if not _close(got, want, 1e-12):
        return False, f"certificate maps deviate by {float(np.max(np.abs(got - want))):.3e}"
    if spec["shallow"]:
        bound = refs.zaslavsky(len(net["layers"][0]["W"]), n)
        if count > bound:
            return False, f"count {count} above the arrangement bound {bound}"
    return True, ""


def check_job(job, first, models, seed):
    """Check one job's first execution; returns (ok, reason, figures)."""
    kind = job["check"]["type"]
    stdout = first["stdout"]
    if kind == "fit":
        ok, reason, nrmse = _check_fit(job, stdout)
        return ok, reason, {"nrmse": nrmse}
    if kind == "convert":
        return _check_convert(job, stdout, models, seed)
    if kind == "eval":
        result = _check_eval(job, stdout, models)
    elif kind == "equiv":
        result = _check_equiv(job, stdout, models, seed)
    elif kind == "validate":
        result = _check_validate(job, stdout)
    elif kind == "regions":
        result = _check_regions(job, stdout, models)
    elif kind == "stderr":
        needle = job["check"]["contains"]
        ok = needle in first["stderr"]
        result = (ok, "" if ok else f"stderr lacks {needle!r}")
    else:
        result = (True, "")
    return result[0], result[1], {}
