"""Command-line surface: fit, eval, convert, validate, regions, equiv.

Exit codes form a contract: 0 ok, 2 input error, 3 fit failure, 4 not
representable, 5 validation violations (or conversion deviation above
tolerance), 6 budget exceeded, 64 usage error.  All file writes are
atomic and all commands are deterministic for fixed inputs and seeds.

Each command imports the library modules it calls when it runs, never at
module scope, so ``import pwlkit.cli`` loads only ``pwlkit.errors``
besides this module.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import itertools
import sys

import numpy as np

from .errors import (
    BudgetExceededError,
    ConstructionError,
    CoverageGapError,
    DcSizeError,
    DiscontinuousModelError,
    NonFiniteValueError,
    NotCplrRepresentableError,
    ParseError,
    PwlError,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_FIT = 3
EXIT_NOT_REPRESENTABLE = 4
EXIT_VIOLATIONS = 5
EXIT_BUDGET = 6
EXIT_USAGE = 64

# Largest point count an ``eval --grid`` spec or a ``--density`` grid may ask for.
MAX_GRID_POINTS = 10**7

# Rows ``eval`` formats at a time.
EVAL_BLOCK_ROWS = 4096

# ``--activation`` choices: the keys of ``network.ACTIVATION_KINDS`` in their
# order, then "linear"; spelled out so that the parser needs no network module.
ACTIVATIONS = ("relu", "leaky_relu", "parametric_relu", "s_shaped_relu",
               "flexible_relu", "apl", "maxout", "linear")


class CliError(Exception):
    """A failure that ``main`` prints to stderr and returns as exit ``code``."""

    def __init__(self, code, message):
        super().__init__(message)
        self.code = code


class UsageError(CliError):
    def __init__(self, message):
        super().__init__(EXIT_USAGE, f"usage error: {message}")


class _Parser(argparse.ArgumentParser):
    """argparse variant that reports usage problems with exit code 64."""

    def error(self, message):
        raise UsageError(message)


@contextlib.contextmanager
def _reading(what):
    """Turn an input file that cannot be read or parsed into exit 2."""
    try:
        yield
    except (OSError, ValueError, csv.Error, ParseError) as e:
        raise CliError(EXIT_INPUT, f"cannot {what}: {e}") from e


def _load(path):
    from .formats import load_model
    with _reading("load model"):
        return load_model(path)


def _components(spec, what, form):
    """The comma-separated components of a spec, each ``form`` in finite floats."""
    rows = []
    for part in spec.split(","):
        try:
            row = [float(v) for v in part.split(":")]
        except ValueError:
            row = []
        if len(row) != form.count(":") + 1 or not np.all(np.isfinite(row)):
            raise UsageError(f"bad {what} component {part!r}, want finite {form}")
        rows.append(row)
    return rows


def _parse_box(spec, dim=None):
    """Box spec ``lo:hi[,lo:hi...]`` into (lo, hi) arrays, ``lo < hi`` on every axis."""
    rows = _components(spec, "box", "lo:hi")
    for part, (a, b) in zip(spec.split(","), rows):
        if not a < b:
            raise UsageError(f"bad box component {part!r}, want lo < hi")
    lo, hi = np.array(rows).T
    if dim is not None and lo.shape[0] != dim:
        raise UsageError(f"box has {lo.shape[0]} components, model needs {dim}")
    return lo, hi


def _grid_axes(spec):
    """Grid spec ``a:b:step[,a:b:step...]`` into per-axis coordinates
    ``a + step * i``.

    The point count is worked out from the spec first, and a grid of more
    than ``MAX_GRID_POINTS`` points is refused before anything is allocated.
    """
    axes = []
    for a, b, step in _components(spec, "grid", "a:b:step"):
        if not (step > 0 and b >= a and np.isfinite(b - a)):
            raise UsageError(f"bad grid range {a!r}:{b!r}:{step!r}")
        axes.append((a, step, np.floor((b - a) / step + 0.5) + 1))
    total = float(np.prod([n for _, _, n in axes]))
    if not total <= MAX_GRID_POINTS:
        raise UsageError(f"grid has {total:.4g} points, the limit is {MAX_GRID_POINTS}")
    return [a + step * np.arange(int(n)) for a, step, n in axes]


def _parse_grid(spec):
    """Grid spec into its lexicographic point list, last axis fastest."""
    from .affine import mesh_points
    return mesh_points(_grid_axes(spec))


def _check_density(density, dim):
    """Refuse a per-axis density whose grid in ``dim`` dimensions is too big."""
    if density < 0 or float(density) ** dim > MAX_GRID_POINTS:
        raise UsageError(f"--density {density} in {dim} dimensions is out of range "
                         f"(0 to {MAX_GRID_POINTS} grid points)")


def _hidden_sizes(spec):
    """Hidden layer sizes ``16,16`` as positive integers."""
    try:
        sizes = [int(v) for v in spec.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad hidden sizes {spec!r}") from None
    if any(h < 1 for h in sizes):
        raise argparse.ArgumentTypeError("hidden sizes must be positive")
    return sizes


def _read_config(path):
    """Flat ``key = value`` config file."""
    out = {}
    with _reading("read config"), open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise UsageError(f"{path}:{lineno}: expected key = value")
            key, value = (s.strip() for s in line.split("=", 1))
            out[key.replace("-", "_")] = value
    return out


_BOOLEANS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


def _boolean(text):
    """``1``/``true``/``yes`` or ``0``/``false``/``no``, in any case."""
    value = _BOOLEANS.get(text.lower())
    if value is None:
        raise argparse.ArgumentTypeError(
            f"not a boolean: {text!r}, want 1/true/yes or 0/false/no")
    return value


def _coerce(key, value, like):
    """A config file's ``value`` for field ``key``, of the type of ``like``."""
    try:
        return _boolean(value) if isinstance(like, bool) else type(like)(value)
    except (ValueError, argparse.ArgumentTypeError) as e:
        raise UsageError(f"config field {key}: {e}") from e


def _build_config(cls, file_values, overrides):
    defaults = cls()
    kwargs = {}
    try:
        for key, value in file_values.items():
            if hasattr(defaults, key):
                kwargs[key] = _coerce(key, value, getattr(defaults, key))
        for key, value in overrides.items():
            if value is not None:
                kwargs[key] = value
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
    from .formats import csv_text, save_model, write_text_atomic
    from .learning import Dataset
    with _reading("read dataset"):
        data = Dataset.from_csv(args.data, header="auto" if args.header is None
                                else args.header)

    file_values = _read_config(args.config) if args.config else {}

    if args.kind == "dnn":
        from .network import TrainConfig, init_params, network_from_sizes, train_sgd
        overrides = {"learning_rate": args.learning_rate,
                     "batch_size": args.batch_size,
                     "epochs": args.epochs, "seed": args.seed}
        cfg = _build_config(TrainConfig, file_values, overrides)
        net = network_from_sizes([data.dim] + args.hidden + [1], args.activation)
        init_params(net, scheme=cfg.init, seed=cfg.seed)
        net, curve = train_sgd(net, data, cfg)
        model = net
        pred = net.values(data.inputs)
        train_sse = float(np.sum((pred - data.targets) ** 2))
        val_sse = train_sse
        n_train = n_val = data.size
        terms = net.hidden_unit_count
        trace_text = csv_text(["epoch", "loss"],
                              ((i, repr(float(v))) for i, v in enumerate(curve)))
        seed = cfg.seed
    else:
        from .learning import FitConfig, fit_ahh, fit_hh, fit_sbf
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
            else:
                model, trace = fit_sbf(data, cfg)
                terms = len(model.bases)
        except PwlError as e:
            raise CliError(EXIT_FIT, f"fit failed: {e}") from e
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


def cmd_eval(args):
    from .affine import finite_values, mesh_points
    from .formats import TextChunks, read_csv_floats, write_text_atomic
    model = _load(args.model)
    axes = None
    if args.grid:
        axes = _grid_axes(args.grid)
        points = mesh_points(axes)
    else:
        with _reading("read points"):
            _, points = read_csv_floats(args.points)
    if points.shape[0] and points.shape[1] != model.dim:
        raise CliError(EXIT_INPUT, f"points have dimension {points.shape[1]}, "
                                   f"model expects {model.dim}")
    blocks = ()
    if points.shape[0]:
        try:
            values = finite_values(model, points)
        except PwlError as e:
            raise CliError(EXIT_INPUT, f"evaluation failed: {e}") from e
        if axes is None:
            table = np.column_stack([points, values]).astype(float, copy=False)
            blocks = (_csv_block(table[k:k + EVAL_BLOCK_ROWS])
                      for k in range(0, table.shape[0], EVAL_BLOCK_ROWS))
        else:
            blocks = _grid_csv(axes, values)
    # each block is written as it is formatted, never the whole text at once
    if args.out:
        write_text_atomic(args.out, TextChunks(blocks))
    else:
        sys.stdout.writelines(blocks)
    return EXIT_OK


def _csv_block(table):
    """CSV lines of a float table, ``repr`` of every value.

    Formats column by column instead of point by point (the same bytes,
    without a Python loop per point); callers pass blocks of at most
    ``EVAL_BLOCK_ROWS`` rows so the column lists stay small.
    """
    cols = [map(repr, col) for col in table.T.tolist()]
    return "\n".join(map(",".join, zip(*cols))) + "\n"


def _grid_csv(axes, values):
    """CSV blocks of values on the product of ``axes``: joined, the bytes
    ``_csv_block`` gives for the meshed points, with each axis's coordinates
    formatted once instead of once per point."""
    coords = itertools.product(*[[repr(v) for v in ax.tolist()] for ax in axes])
    values = np.asarray(values, dtype=float)
    for k in range(0, values.shape[0], EVAL_BLOCK_ROWS):
        block = values[k:k + EVAL_BLOCK_ROWS].tolist()
        rows = map(tuple.__add__, itertools.islice(coords, len(block)),
                   zip(map(repr, block)))
        yield "\n".join(map(",".join, rows)) + "\n"


CONVERSIONS = ("lattice", "cplr", "dc", "ghh", "hh")


def _unsupported(reason):
    return CliError(EXIT_INPUT, f"{reason}; supported paths: conventional->lattice, "
                    "conventional->cplr, hh->cplr, cplr->hh, any->dc, any->ghh")


def _convert(model, target_kind, density):
    """``model`` in the ``target_kind`` representation."""
    from .conventional import ConventionalPWL
    from .formats import instance_of
    from .models import CplrModel, HingeModel
    from .transforms import (cplr_from_consistent, dc_from_model, ghh_from_dc,
                             lattice_from_conventional)
    if target_kind == "lattice":
        if not isinstance(model, ConventionalPWL):
            raise _unsupported("lattice conversion needs a conventional model")
        return lattice_from_conventional(model, probe_density=density)
    if target_kind == "cplr":
        if isinstance(model, HingeModel):
            return CplrModel.from_hinges(model)
        if isinstance(model, ConventionalPWL):
            return cplr_from_consistent(model)
        raise _unsupported("canonical conversion needs a conventional or hinge model")
    if target_kind in ("dc", "ghh"):
        if instance_of(model, "network", "PwlNetwork"):
            raise _unsupported("networks have no difference-of-convex lowering")
        target = dc_from_model(model)
        return ghh_from_dc(target) if target_kind == "ghh" else target
    if not isinstance(model, CplrModel):
        raise _unsupported("hinge conversion needs a canonical model")
    return HingeModel.from_cplr(model)


def _finite(value):
    """Whether every number in ``value`` is finite: a number or an array, an
    affine function, a model (its attributes), or a tuple or list of these."""
    if isinstance(value, (tuple, list)):
        return all(map(_finite, value))
    if hasattr(value, "jacobian"):          # an AffineFunction, which has slots
        return _finite((value.jacobian, value.bias))
    if hasattr(value, "__dict__"):
        return _finite(list(vars(value).values()))
    return bool(np.all(np.isfinite(value)))


def cmd_convert(args):
    from .conventional import ConventionalPWL
    from .formats import save_model
    from .transforms import check_equivalence
    model = _load(args.model)
    box = _parse_box(args.box, model.dim) if args.box else None
    _check_density(args.density, model.dim)
    target_kind = args.to
    try:
        # huge finite coefficients can overflow to a non-finite target, which
        # is refused here, before it is evaluated or written
        with np.errstate(over="ignore", invalid="ignore"):
            target = _convert(model, target_kind, args.density)
        if not _finite(target):
            raise ValueError(f"the {target_kind} form has coefficients that are not "
                             "finite; the model's coefficients are too large")
        if box is None and isinstance(model, ConventionalPWL) and model.domain is not None:
            box = model.domain_box()
        elif box is None:
            box = (np.full(model.dim, -1.0), np.full(model.dim, 1.0))
        report = check_equivalence(model, target, box, grid_density=args.density,
                                   tolerance=args.tolerance)
    except NotCplrRepresentableError as e:
        raise CliError(EXIT_NOT_REPRESENTABLE, "not representable; certificate "
                       f"hyperplane: {e.certificate}") from e
    except (CoverageGapError, DiscontinuousModelError, NonFiniteValueError,
            ValueError) as e:
        raise CliError(EXIT_INPUT, f"conversion failed: {e}") from e
    except ConstructionError as e:
        raise CliError(EXIT_VIOLATIONS, f"conversion failed: {e}") from e

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
        raise CliError(EXIT_VIOLATIONS, f"conversion deviates by "
                       f"{report.max_abs_deviation!r} (tolerance {args.tolerance!r})")
    return EXIT_OK


def cmd_validate(args):
    from .formats import instance_of
    model = _load(args.model)
    if not instance_of(model, "conventional", "ConventionalPWL"):
        _summary([
            ("kind", type(model).__name__),
            ("continuity", "continuous by construction"),
        ])
        return EXIT_OK
    from .conventional import check_consistent_variation, check_continuity
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
    from .formats import write_text_atomic
    from .network import PwlNetwork, count_regions
    model = _load(args.model)
    if not isinstance(model, PwlNetwork):
        raise CliError(EXIT_INPUT, "region analysis needs a network model")
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
    from .transforms import check_equivalence
    a, b = _load(args.model_a), _load(args.model_b)
    if a.dim != b.dim:
        raise CliError(EXIT_INPUT, f"dimension mismatch: {a.dim} vs {b.dim}")
    box = _parse_box(args.box, a.dim)
    _check_density(args.density, a.dim)
    try:
        report = check_equivalence(a, b, box, grid_density=args.density,
                                   tolerance=args.tolerance)
    except PwlError as e:
        raise CliError(EXIT_INPUT, f"evaluation failed: {e}") from e
    print(report)
    return EXIT_OK if report.equivalent else EXIT_VIOLATIONS


def cmd_trace_export(args):
    from .formats import csv_text, write_text_atomic
    with _reading("read trace"), open(args.trace, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise CliError(EXIT_INPUT, "empty trace file")
    text = csv_text(rows[0], rows[1:])
    if args.out:
        write_text_atomic(args.out, text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

COMMANDS = ("fit", "eval", "convert", "validate", "regions", "equiv", "trace-export")


def build_parser(command=None):
    """The CLI parser.  With ``command`` naming a subcommand only that
    subcommand is declared, which parses its argv as the full parser does."""
    p = _Parser(prog="pwlkit",
                description="Piecewise-linear model fitting, evaluation, "
                            "conversion, validation, and region analysis.")
    sub = p.add_subparsers(dest="command", required=True)
    wanted = {command} if command in COMMANDS else set(COMMANDS)

    if "fit" in wanted:
        f = sub.add_parser("fit", help="fit a model to CSV data")
        f.add_argument("--data", required=True)
        f.add_argument("--kind", required=True, choices=("hh", "ahh", "sbf", "dnn"))
        f.add_argument("--out", required=True)
        f.add_argument("--trace")
        f.add_argument("--config")
        f.add_argument("--header", type=_boolean, default=None,
                       help="force a header row: 1/true/yes or 0/false/no "
                            "(default: auto)")
        f.add_argument("--max-terms", type=int, default=None)
        f.add_argument("--seed", type=int, default=None)
        f.add_argument("--ridge", type=float, default=None)
        f.add_argument("--validation-split", type=float, default=None)
        f.add_argument("--hidden", type=_hidden_sizes, default="16,16", help="e.g. 16,16")
        f.add_argument("--activation", default="relu",
                       choices=ACTIVATIONS)
        f.add_argument("--learning-rate", type=float, default=None)
        f.add_argument("--batch-size", type=int, default=None)
        f.add_argument("--epochs", type=int, default=None)
        f.set_defaults(func=cmd_fit)

    if "eval" in wanted:
        e = sub.add_parser("eval", help="evaluate a model on points or a grid")
        e.add_argument("--model", required=True)
        g = e.add_mutually_exclusive_group(required=True)
        g.add_argument("--points")
        g.add_argument("--grid", help="a:b:step[,a:b:step...]")
        e.add_argument("--out")
        e.set_defaults(func=cmd_eval)

    if "convert" in wanted:
        c = sub.add_parser("convert", help="convert between representations")
        c.add_argument("--model", required=True)
        c.add_argument("--to", required=True, choices=CONVERSIONS)
        c.add_argument("--out", required=True)
        c.add_argument("--box", help="lo:hi[,lo:hi...] equivalence-check box")
        c.add_argument("--density", type=int, default=33)
        c.add_argument("--tolerance", type=float, default=1e-9)
        c.set_defaults(func=cmd_convert)

    if "validate" in wanted:
        v = sub.add_parser("validate", help="check continuity and representability")
        v.add_argument("--model", required=True)
        v.set_defaults(func=cmd_validate)

    if "regions" in wanted:
        r = sub.add_parser("regions", help="count linear regions of a network")
        r.add_argument("--model", required=True)
        r.add_argument("--box", help="lo:hi[,lo:hi...]")
        r.add_argument("--method", default="pattern-enumeration",
                       choices=("pattern-enumeration", "grid-probe"))
        r.add_argument("--out", help="CSV of region certificates")
        r.set_defaults(func=cmd_regions)

    if "equiv" in wanted:
        q = sub.add_parser("equiv", help="max deviation between two models")
        q.add_argument("--model-a", required=True)
        q.add_argument("--model-b", required=True)
        q.add_argument("--box", required=True)
        q.add_argument("--density", type=int, default=33)
        q.add_argument("--tolerance", type=float, default=1e-9)
        q.set_defaults(func=cmd_equiv)

    if "trace-export" in wanted:
        t = sub.add_parser("trace-export", help="re-emit a fit trace as tidy CSV")
        t.add_argument("--trace", required=True)
        t.add_argument("--out")
        t.set_defaults(func=cmd_trace_export)

    return p


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser(argv[0] if argv else None)
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except CliError as e:
        print(e, file=sys.stderr)
        return e.code
    except (BudgetExceededError, DcSizeError) as e:
        print(str(e), file=sys.stderr)
        return EXIT_BUDGET


if __name__ == "__main__":
    sys.exit(main())
