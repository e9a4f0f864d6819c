"""Command-line surface: fit, eval, convert, validate, regions, equiv.

Exit codes form a contract: 0 ok, 2 input error, 3 fit failure, 4 not
representable, 5 validation violations (or conversion deviation above
tolerance), 6 budget exceeded, 64 usage error.  All file writes are
atomic and all commands are deterministic for fixed inputs and seeds.
"""

from __future__ import annotations

import argparse
import csv
import io
import sys

import numpy as np

from .affine import mesh_points
from .conventional import ConventionalPWL, check_consistent_variation, check_continuity
from .errors import (
    BudgetExceededError,
    DcSizeError,
    DiscontinuousModelError,
    NotCplrRepresentableError,
    ParseError,
    PwlError,
)
from .formats import load_model, save_model, write_text_atomic
from .learning import Dataset, FitConfig, fit_ahh, fit_hh, fit_sbf
from .models import CplrModel, HingeModel
from .network import (
    PwlNetwork,
    TrainConfig,
    count_regions,
    init_params,
    network_from_sizes,
    train_sgd,
)
from .transforms import (
    check_equivalence,
    cplr_from_consistent,
    dc_from_model,
    ghh_from_dc,
    lattice_from_conventional,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_FIT = 3
EXIT_NOT_REPRESENTABLE = 4
EXIT_VIOLATIONS = 5
EXIT_BUDGET = 6
EXIT_USAGE = 64

# Largest point count an ``eval --grid`` spec may ask for.
MAX_GRID_POINTS = 10**7


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse variant that reports usage problems with exit code 64."""

    def error(self, message):
        raise UsageError(message)


def _fail(code, message):
    print(message, file=sys.stderr)
    return code


def _parse_box(spec, dim=None):
    """Box spec ``lo:hi[,lo:hi...]`` into (lo, hi) arrays."""
    lo, hi = [], []
    for part in spec.split(","):
        bits = part.split(":")
        if len(bits) != 2:
            raise UsageError(f"bad box component {part!r}, want lo:hi")
        lo.append(float(bits[0]))
        hi.append(float(bits[1]))
    if dim is not None and len(lo) != dim:
        raise UsageError(f"box has {len(lo)} components, model needs {dim}")
    return np.array(lo), np.array(hi)


def _parse_grid(spec):
    """Grid spec ``a:b:step[,a:b:step...]`` into a lexicographic point list.

    The point count is worked out from the spec first, and a grid of more
    than ``MAX_GRID_POINTS`` points is refused before anything is allocated.
    """
    axes = []
    for part in spec.split(","):
        bits = part.split(":")
        try:
            a, b, step = (float(v) for v in bits)
        except ValueError:
            raise UsageError(f"bad grid component {part!r}, want a:b:step") from None
        if not (step > 0 and b >= a and np.isfinite(b - a)):
            raise UsageError(f"bad grid range {part!r}")
        axes.append((a, step, np.floor((b - a) / step + 0.5) + 1))
    total = float(np.prod([n for _, _, n in axes]))
    if not total <= MAX_GRID_POINTS:
        raise UsageError(f"grid has {total:.4g} points, the limit is {MAX_GRID_POINTS}")
    return mesh_points([a + step * np.arange(int(n)) for a, step, n in axes])


def _read_config(path):
    """Flat ``key = value`` config file."""
    out = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise UsageError(f"{path}:{lineno}: expected key = value")
            key, value = (s.strip() for s in line.split("=", 1))
            out[key.replace("-", "_")] = value
    return out


def _coerce(value, like):
    if isinstance(like, bool):
        return value.lower() in ("1", "true", "yes")
    return type(like)(value)


def _build_config(cls, file_values, overrides):
    defaults = cls()
    kwargs = {}
    for key, value in file_values.items():
        if hasattr(defaults, key):
            kwargs[key] = _coerce(value, getattr(defaults, key))
    for key, value in overrides.items():
        if value is not None:
            kwargs[key] = value
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as e:
        raise UsageError(str(e)) from e


def _summary(pairs):
    for key, value in pairs:
        print(f"{key}: {value}")


def _rmse(sse, count):
    return float(np.sqrt(sse / count)) if count else float("nan")


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_fit(args):
    try:
        data = Dataset.from_csv(args.data, header="auto" if args.header is None
                                else args.header)
    except (OSError, ValueError) as e:
        return _fail(EXIT_INPUT, f"cannot read dataset: {e}")

    file_values = _read_config(args.config) if args.config else {}

    if args.kind == "dnn":
        overrides = {"learning_rate": args.learning_rate,
                     "batch_size": args.batch_size,
                     "epochs": args.epochs, "seed": args.seed}
        cfg = _build_config(TrainConfig, file_values, overrides)
        hidden = [int(v) for v in (args.hidden or "16,16").split(",")]
        if any(h < 1 for h in hidden):
            raise UsageError("hidden sizes must be positive")
        net = network_from_sizes([data.dim] + hidden + [1], args.activation)
        init_params(net, scheme=cfg.init, seed=cfg.seed)
        net, curve = train_sgd(net, data, cfg)
        model = net
        pred = net.values(data.inputs)
        train_sse = float(np.sum((pred - data.targets) ** 2))
        val_sse = train_sse
        n_train = n_val = data.size
        terms = net.hidden_unit_count
        trace_text = _curve_csv(curve)
        seed = cfg.seed
    else:
        overrides = {"max_terms": args.max_terms, "seed": args.seed,
                     "ridge": args.ridge,
                     "validation_split": args.validation_split}
        cfg = _build_config(FitConfig, file_values, overrides)
        try:
            if args.kind == "hh":
                model, trace = fit_hh(data, cfg)
                terms = len(model.hinges)
            elif args.kind == "ahh":
                model, trace, _tree = fit_ahh(data, cfg)
                terms = len(model.bases)
            elif args.kind == "sbf":
                model, trace = fit_sbf(data, cfg)
                terms = len(model.bases)
            else:
                raise UsageError(f"unknown fit kind {args.kind!r}")
        except PwlError as e:
            return _fail(EXIT_FIT, f"fit failed: {e}")
        final = trace.final
        n_train = trace.train_size
        n_val = trace.validation_size or n_train
        train_sse, val_sse = final.train_sse, final.validation_sse
        trace_text = trace.to_csv()
        seed = cfg.seed

    save_model(model, args.out)
    if args.trace:
        write_text_atomic(args.trace, trace_text)
    _summary([
        ("kind", args.kind),
        ("terms", terms),
        ("train-rmse", repr(_rmse(train_sse, n_train))),
        ("validation-rmse", repr(_rmse(val_sse, n_val))),
        ("seed", seed),
        ("model-file", args.out),
        ("trace-file", args.trace or ""),
    ])
    return EXIT_OK


def _curve_csv(curve):
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["epoch", "loss"])
    for i, v in enumerate(curve):
        w.writerow([i, repr(float(v))])
    return buf.getvalue()


def cmd_eval(args):
    try:
        model = load_model(args.model)
    except (OSError, ParseError) as e:
        return _fail(EXIT_INPUT, f"cannot load model: {e}")
    if args.grid:
        points = _parse_grid(args.grid)
    else:
        try:
            with open(args.points, newline="") as fh:
                rows = [r for r in csv.reader(fh) if r]
        except OSError as e:
            return _fail(EXIT_INPUT, f"cannot read points: {e}")
        if rows:
            try:
                [float(v) for v in rows[0]]
            except ValueError:
                rows = rows[1:]
        if not rows:
            points = np.empty((0, model.dim))
        else:
            points = np.array([[float(v) for v in r] for r in rows])
    if points.shape[0] and points.shape[1] != model.dim:
        return _fail(EXIT_INPUT,
                     f"points have dimension {points.shape[1]}, "
                     f"model expects {model.dim}")
    lines = []
    if points.shape[0]:
        try:
            values = model.values(points)
        except PwlError as e:
            return _fail(EXIT_INPUT, f"evaluation failed: {e}")
        for x, v in zip(points, values):
            lines.append(",".join(repr(float(c)) for c in x) + "," + repr(float(v)))
    text = "\n".join(lines) + ("\n" if lines else "")
    if args.out:
        write_text_atomic(args.out, text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


CONVERSIONS = ("lattice", "cplr", "dc", "ghh", "hh")


def cmd_convert(args):
    try:
        model = load_model(args.model)
    except (OSError, ParseError) as e:
        return _fail(EXIT_INPUT, f"cannot load model: {e}")

    target_kind = args.to
    try:
        if target_kind == "lattice":
            if not isinstance(model, ConventionalPWL):
                return _fail(EXIT_INPUT,
                             "lattice conversion needs a conventional model; "
                             f"supported paths: {_conversion_help()}")
            target = lattice_from_conventional(model, probe_density=args.density)
        elif target_kind == "cplr":
            if isinstance(model, HingeModel):
                target = CplrModel.from_hinges(model)
            elif isinstance(model, ConventionalPWL):
                target = cplr_from_consistent(model)
            else:
                return _fail(EXIT_INPUT,
                             "canonical conversion needs a conventional or "
                             f"hinge model; supported paths: {_conversion_help()}")
        elif target_kind in ("dc", "ghh"):
            if isinstance(model, PwlNetwork):
                return _fail(EXIT_INPUT,
                             "networks have no difference-of-convex lowering; "
                             f"supported paths: {_conversion_help()}")
            target = dc_from_model(model)
            if target_kind == "ghh":
                target = ghh_from_dc(target)
        elif target_kind == "hh":
            if not isinstance(model, CplrModel):
                return _fail(EXIT_INPUT,
                             "hinge conversion needs a canonical model; "
                             f"supported paths: {_conversion_help()}")
            target = HingeModel.from_cplr(model)
        else:
            return _fail(EXIT_INPUT,
                         f"unsupported target {target_kind!r}; "
                         f"supported paths: {_conversion_help()}")
    except NotCplrRepresentableError as e:
        print(f"not representable; certificate hyperplane: {e.certificate}",
              file=sys.stderr)
        return EXIT_NOT_REPRESENTABLE
    except (DiscontinuousModelError, ValueError) as e:
        return _fail(EXIT_INPUT, f"conversion failed: {e}")

    if args.box:
        box = _parse_box(args.box, model.dim)
    elif isinstance(model, ConventionalPWL) and model.domain is not None:
        box = model.domain_box()
    else:
        box = (np.full(model.dim, -1.0), np.full(model.dim, 1.0))
    report = check_equivalence(model, target, box, grid_density=args.density,
                               tolerance=args.tolerance)
    save_model(target, args.out)
    _summary([
        ("from", type(model).__name__),
        ("to", target_kind),
        ("max-deviation", repr(report.max_abs_deviation)),
        ("samples", report.sample_count),
        ("model-file", args.out),
    ])
    if hasattr(target, "sets"):
        for i, s in enumerate(target.sets):
            print(f"S{i}: {{{','.join(str(j) for j in s)}}}")
    if not report.equivalent:
        print(f"conversion deviates by {report.max_abs_deviation!r} "
              f"(tolerance {args.tolerance!r})", file=sys.stderr)
        return EXIT_VIOLATIONS
    return EXIT_OK


def _conversion_help():
    return ("conventional->lattice, conventional->cplr, hh->cplr, cplr->hh, "
            "any->dc, any->ghh")


def cmd_validate(args):
    try:
        model = load_model(args.model)
    except (OSError, ParseError) as e:
        return _fail(EXIT_INPUT, f"cannot load model: {e}")
    if not isinstance(model, ConventionalPWL):
        _summary([
            ("kind", type(model).__name__),
            ("continuity", "continuous by construction"),
        ])
        return EXIT_OK
    report = check_continuity(model)
    _summary([
        ("kind", "ConventionalPWL"),
        ("facets", len(report.facets)),
        ("continuity-violations", len(report.violations)),
    ])
    for v in report.violations:
        print(f"violation: pieces {v.region_i}/{v.region_j} at "
              f"{','.join(repr(float(c)) for c in v.point)}: "
              f"{v.value_i!r} vs {v.value_j!r}")
    if report.violations:
        return EXIT_VIOLATIONS
    verdict = check_consistent_variation(model, report)
    _summary([
        ("consistent-variation", "yes" if verdict.representable else "no"),
    ])
    if not verdict.representable:
        print(f"certificate-hyperplane: {verdict.certificate}")
    return EXIT_OK


def cmd_regions(args):
    try:
        model = load_model(args.model)
    except (OSError, ParseError) as e:
        return _fail(EXIT_INPUT, f"cannot load model: {e}")
    if not isinstance(model, PwlNetwork):
        return _fail(EXIT_INPUT, "region analysis needs a network model")
    box = _parse_box(args.box, model.in_dim) if args.box else \
        (np.full(model.in_dim, -1.0), np.full(model.in_dim, 1.0))
    result = count_regions(model, box, method=args.method)
    pairs = [("count", result.count), ("method", result.method)]
    if result.bound is not None:
        pairs.append(("arrangement-bound", result.bound))
    pairs.append(("hidden-units", model.hidden_unit_count))
    _summary(pairs)
    if args.out:
        lines = []
        for cert in result.certificates:
            row = [repr(float(v)) for v in cert.point]
            row += [repr(float(v)) for v in cert.jacobian.ravel()]
            row += [repr(float(v)) for v in cert.bias.ravel()]
            lines.append(",".join(row))
        write_text_atomic(args.out, "\n".join(lines) + ("\n" if lines else ""))
    return EXIT_OK


def cmd_equiv(args):
    try:
        a = load_model(args.model_a)
        b = load_model(args.model_b)
    except (OSError, ParseError) as e:
        return _fail(EXIT_INPUT, f"cannot load model: {e}")
    if a.dim != b.dim:
        return _fail(EXIT_INPUT,
                     f"dimension mismatch: {a.dim} vs {b.dim}")
    box = _parse_box(args.box, a.dim)
    report = check_equivalence(a, b, box, grid_density=args.density,
                               tolerance=args.tolerance)
    print(report)
    return EXIT_OK if report.equivalent else EXIT_VIOLATIONS


def cmd_trace_export(args):
    try:
        with open(args.trace, newline="") as fh:
            rows = list(csv.reader(fh))
    except OSError as e:
        return _fail(EXIT_INPUT, f"cannot read trace: {e}")
    if not rows:
        return _fail(EXIT_INPUT, "empty trace file")
    header, body = rows[0], rows[1:]
    out = io.StringIO()
    w = csv.writer(out, lineterminator="\n")
    w.writerow(header)
    for r in body:
        w.writerow(r)
    text = out.getvalue()
    if args.out:
        write_text_atomic(args.out, text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def build_parser():
    p = _Parser(prog="pwlkit",
                description="Piecewise-linear model fitting, evaluation, "
                            "conversion, validation, and region analysis.")
    sub = p.add_subparsers(dest="command", required=True)

    f = sub.add_parser("fit", help="fit a model to CSV data")
    f.add_argument("--data", required=True)
    f.add_argument("--kind", required=True, choices=("hh", "ahh", "sbf", "dnn"))
    f.add_argument("--out", required=True)
    f.add_argument("--trace")
    f.add_argument("--config")
    f.add_argument("--header", type=lambda v: v.lower() in ("1", "true", "yes"),
                   default=None, help="force header row on/off (default: auto)")
    f.add_argument("--max-terms", type=int, default=None)
    f.add_argument("--seed", type=int, default=None)
    f.add_argument("--ridge", type=float, default=None)
    f.add_argument("--validation-split", type=float, default=None)
    f.add_argument("--hidden", help="dnn hidden sizes, e.g. 16,16")
    f.add_argument("--activation", default="relu")
    f.add_argument("--learning-rate", type=float, default=None)
    f.add_argument("--batch-size", type=int, default=None)
    f.add_argument("--epochs", type=int, default=None)
    f.set_defaults(func=cmd_fit)

    e = sub.add_parser("eval", help="evaluate a model on points or a grid")
    e.add_argument("--model", required=True)
    g = e.add_mutually_exclusive_group(required=True)
    g.add_argument("--points")
    g.add_argument("--grid", help="a:b:step[,a:b:step...]")
    e.add_argument("--out")
    e.set_defaults(func=cmd_eval)

    c = sub.add_parser("convert", help="convert between representations")
    c.add_argument("--model", required=True)
    c.add_argument("--to", required=True, choices=CONVERSIONS)
    c.add_argument("--out", required=True)
    c.add_argument("--box", help="lo:hi[,lo:hi...] equivalence-check box")
    c.add_argument("--density", type=int, default=33)
    c.add_argument("--tolerance", type=float, default=1e-9)
    c.set_defaults(func=cmd_convert)

    v = sub.add_parser("validate", help="check continuity and representability")
    v.add_argument("--model", required=True)
    v.set_defaults(func=cmd_validate)

    r = sub.add_parser("regions", help="count linear regions of a network")
    r.add_argument("--model", required=True)
    r.add_argument("--box", help="lo:hi[,lo:hi...]")
    r.add_argument("--method", default="pattern-enumeration",
                   choices=("pattern-enumeration", "grid-probe"))
    r.add_argument("--out", help="CSV of region certificates")
    r.set_defaults(func=cmd_regions)

    q = sub.add_parser("equiv", help="max deviation between two models")
    q.add_argument("--model-a", required=True)
    q.add_argument("--model-b", required=True)
    q.add_argument("--box", required=True)
    q.add_argument("--density", type=int, default=33)
    q.add_argument("--tolerance", type=float, default=1e-9)
    q.set_defaults(func=cmd_equiv)

    t = sub.add_parser("trace-export", help="re-emit a fit trace as tidy CSV")
    t.add_argument("--trace", required=True)
    t.add_argument("--out")
    t.set_defaults(func=cmd_trace_export)

    return p


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (BudgetExceededError, DcSizeError) as e:
        print(str(e), file=sys.stderr)
        return EXIT_BUDGET


if __name__ == "__main__":
    sys.exit(main())
