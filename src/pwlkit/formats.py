"""Versioned line-oriented text formats for every model kind.

Each file starts with ``pwl-<kind> v1`` followed by kind-specific records.
Floats are written with shortest round-trip precision, so a load after a
save recovers every parameter bit for bit.  ``load_model`` dispatches on
the header; ``save_model`` picks the format from the object type.  The
comma-separated tables the CLI reads and writes are here too.

A reader imports the module of its model kind when it runs, so loading
a model compiles only the modules that model needs.
"""

from __future__ import annotations

import csv
import io
import math
import os
import stat
import sys
import tempfile
import warnings

import numpy as np

from .errors import DimensionMismatchError, ParseError

# Deepest child a ``pwl-nested`` node may have below the root.  The
# expression tree is walked recursively (parsing, sorting, evaluation, DC
# lowering), so this keeps every walk well inside Python's recursion limit.
MAX_NEST_DEPTH = 100


def _fmt(v):
    return repr(float(v))


def _fmt_vec(v):
    return ",".join(_fmt(x) for x in np.atleast_1d(v))


class _Reader:
    """Line cursor with parse-error positions."""

    def __init__(self, text):
        self.lines = text.splitlines()
        self.pos = 0

    def column_of(self, needle):
        """1-based column of a token within the line just consumed."""
        if 0 < self.pos <= len(self.lines):
            at = self.lines[self.pos - 1].find(needle)
            if at >= 0:
                return at + 1
        return None

    def next(self, expect=None):
        while self.pos < len(self.lines) and not self.lines[self.pos].strip():
            self.pos += 1
        if self.pos >= len(self.lines):
            raise ParseError("unexpected end of file", len(self.lines))
        line = self.lines[self.pos].strip()
        self.pos += 1
        if expect is not None and not line.startswith(expect):
            raise ParseError(f"expected {expect!r}, got {line!r}", self.pos)
        return line

    def peek(self):
        while self.pos < len(self.lines) and not self.lines[self.pos].strip():
            self.pos += 1
        if self.pos >= len(self.lines):
            return None
        return self.lines[self.pos].strip()

    def done(self):
        return self.peek() is None

    def error(self, message, needle=None):
        column = self.column_of(needle) if needle else None
        raise ParseError(message, self.pos, column)


class _Fields(dict):
    """``key=value`` fields of one line; a missing key is a parse error there."""

    def __init__(self, line):
        super().__init__()
        self.line = line

    def __missing__(self, key):
        raise ParseError(f"missing field {key}=", self.line)


def _fields(line, reader):
    """Parse the ``key=value`` tokens of a line, after its tag if it has one."""
    out = _Fields(reader.pos)
    tokens = line.split()
    for tok in tokens[1:] if tokens and "=" not in tokens[0] else tokens:
        if "=" not in tok:
            reader.error(f"malformed field {tok!r}", needle=tok)
        k, v = tok.split("=", 1)
        out[k] = v
    return out


def _floats(text, reader):
    try:
        values = [float(v) for v in text.split(",")]
        if all(map(math.isfinite, values)):
            return np.array(values)
    except ValueError:
        pass
    reader.error(f"bad float list {text!r}", needle=text)


def _float(text, reader):
    try:
        value = float(text)
        if math.isfinite(value):
            return value
    except ValueError:
        pass
    reader.error(f"bad float {text!r}", needle=text)


def _int(text, reader):
    try:
        return int(text)
    except ValueError:
        reader.error(f"bad integer {text!r}", needle=text)


def _count(text, reader):
    """A count or a dimension: a non-negative integer."""
    value = _int(text, reader)
    if value < 0:
        reader.error(f"bad count {text!r}", needle=text)
    return value


# ---------------------------------------------------------------------------
# Writers
# ---------------------------------------------------------------------------

def _write_halfspaces(region, out):
    for h in region.halfspaces:
        out.append(f"H: normal={_fmt_vec(h.normal)} offset={_fmt(h.offset)} "
                   f"closed={1 if h.closed else 0}")


def _write_conventional(m):
    out = [f"pwl-conventional v1 dim={m.dimension} pieces={m.piece_count}"]
    for piece, region in zip(m.pieces, m.regions):
        out.append(f"J={_fmt_vec(piece.jacobian)} b={_fmt(piece.bias)}")
        _write_halfspaces(region, out)
    if m.domain is not None:
        out.append("domain")
        _write_halfspaces(m.domain, out)
    return "\n".join(out) + "\n"


def _write_cplr(m):
    out = [f"pwl-cplr v1 dim={m.dim} terms={len(m.terms)}",
           f"affine: alpha={_fmt_vec(m.alpha0)} beta={_fmt(m.beta0)}"]
    for eta, alpha, beta in m.terms:
        out.append(f"term: eta={eta} alpha={_fmt_vec(alpha)} beta={_fmt(beta)}")
    return "\n".join(out) + "\n"


def _write_hh(m):
    out = [f"pwl-hh v1 dim={m.dim} hinges={len(m.hinges)}",
           f"affine: alpha={_fmt_vec(m.alpha0)} beta={_fmt(m.beta0)}"]
    for w, alpha, beta in m.hinges:
        out.append(f"hinge: w={_fmt(w)} alpha={_fmt_vec(alpha)} beta={_fmt(beta)}")
    return "\n".join(out) + "\n"


def _write_ghh(m):
    out = [f"pwl-ghh v1 dim={m.dim} terms={len(m.terms)}"]
    for w, affines in m.terms:
        out.append(f"term: w={_fmt(w)} affines={len(affines)}")
        for a in affines:
            out.append(f"a: J={_fmt_vec(a.jacobian)} b={_fmt(a.bias)}")
    return "\n".join(out) + "\n"


def _write_expr(node, out):
    out.append(f"node: alpha={_fmt_vec(node.affine.jacobian)} "
               f"beta={_fmt(node.affine.bias)} children={len(node.children)}")
    for coeff, child in node.children:
        out.append(f"child: coeff={_fmt(coeff)}")
        _write_expr(child, out)


def _write_nested(m):
    out = [f"pwl-nested v1 dim={m.dim}"]
    _write_expr(m.root, out)
    return "\n".join(out) + "\n"


def _write_hlcplr(b):
    out = [f"pwl-hlcplr v1 dim={b.dim} interval={_fmt(b.interval)} "
           f"coords={len(b.coordinates)}"]
    for axis, knot in b.coordinates:
        out.append(f"c: axis={axis} knot={knot}")
    return "\n".join(out) + "\n"


def _write_ahh(m):
    out = [f"pwl-ahh v1 dim={m.dim} intercept={_fmt(m.intercept)} "
           f"bases={len(m.bases)}"]
    for w, basis in m.bases:
        out.append(f"basis: w={_fmt(w)} factors={len(basis.factors)}")
        for delta, var, knot in basis.factors:
            out.append(f"f: delta={delta} var={var} knot={_fmt(knot)}")
    return "\n".join(out) + "\n"


def _write_sbf(m):
    out = [f"pwl-sbf v1 dim={m.dim} bases={len(m.bases)}"]
    for w, gamma, zeta in m.bases:
        out.append(f"basis: w={_fmt(w)} gamma={_fmt_vec(gamma)} "
                   f"zeta={_fmt_vec(zeta)}")
    return "\n".join(out) + "\n"


def _write_lattice(m):
    out = [f"pwl-lattice v1 dim={m.dim} affines={len(m.affines)} "
           f"sets={len(m.sets)}"]
    for a in m.affines:
        out.append(f"a: J={_fmt_vec(a.jacobian)} b={_fmt(a.bias)}")
    for s in m.sets:
        out.append("S: " + ",".join(str(i) for i in s))
    return "\n".join(out) + "\n"


def _write_dc(m):
    out = [f"pwl-dc v1 dim={m.dim} plus={m.plus.shape[0]} minus={m.minus.shape[0]}"]
    for row in m.plus:
        out.append(f"p: J={_fmt_vec(row[:-1])} b={_fmt(row[-1])}")
    for row in m.minus:
        out.append(f"m: J={_fmt_vec(row[:-1])} b={_fmt(row[-1])}")
    return "\n".join(out) + "\n"


def _write_matrix(name, arr, out):
    arr = np.atleast_2d(np.asarray(arr, dtype=float))
    out.append(f"{name}: rows={arr.shape[0]} cols={arr.shape[1]}")
    for row in arr:
        out.append(_fmt_vec(row))


def _write_network(net):
    out = [f"pwl-net v1 inputs={net.in_dim} layers={len(net.layers)}"]
    for layer in net.layers:
        act = layer.activation
        if act is None:
            desc = "activation=linear"
        else:
            desc = f"activation={act.kind}"
            for k, v in act.config().items():
                desc += f" {k}={v!r}" if isinstance(v, str) else f" {k}={v}"
        out.append(f"layer: out={layer.weight.shape[0]} {desc}")
        _write_matrix("W", layer.weight, out)
        out.append(f"b: {_fmt_vec(layer.bias)}")
        if act is not None:
            for i, arr in enumerate(act.param_arrays()):
                _write_matrix(f"param{i}", arr, out)
    return "\n".join(out) + "\n"


# (pwlkit module, class, writer), tried in this order
_WRITERS = [
    ("conventional", "ConventionalPWL", _write_conventional),
    ("models", "CplrModel", _write_cplr),
    ("models", "HingeModel", _write_hh),
    ("models", "GhhModel", _write_ghh),
    ("models", "NestedCplrModel", _write_nested),
    ("models", "HlCplrBasis", _write_hlcplr),
    ("models", "AhhModel", _write_ahh),
    ("models", "SbfModel", _write_sbf),
    ("models", "LatticeModel", _write_lattice),
    ("transforms", "DCForm", _write_dc),
    ("network", "PwlNetwork", _write_network),
]


def instance_of(obj, module, name):
    """``isinstance(obj, pwlkit.<module>.<name>)``, without importing ``module``.

    An object's class is defined before the object exists, so while the
    module is not loaded nothing can be an instance of its classes.
    """
    loaded = sys.modules.get(f"{__package__}.{module}")
    return loaded is not None and isinstance(obj, getattr(loaded, name))


def serialize(model):
    """Render any supported model to its text format."""
    for module, name, writer in _WRITERS:
        if instance_of(model, module, name):
            return writer(model)
    raise TypeError(f"no text format for {type(model).__name__}")


# ---------------------------------------------------------------------------
# Readers
# ---------------------------------------------------------------------------

def _read_halfspaces(r):
    from .conventional import Halfspace
    hs = []
    while r.peek() is not None and r.peek().startswith("H:"):
        hf = _fields(r.next(), r)
        hs.append(Halfspace(_floats(hf["normal"], r), _float(hf["offset"], r),
                            closed=_int(hf["closed"], r) == 1))
    return hs


def _read_conventional(r, fields):
    from .affine import AffineFunction
    from .conventional import ConventionalPWL, Region
    dim = _count(fields.get("dim", ""), r)
    pieces_n = _count(fields.get("pieces", ""), r)
    pieces, regions = [], []
    for label in range(pieces_n):
        f = _fields(r.next("J="), r)
        pieces.append(AffineFunction(_floats(f["J"], r), _float(f["b"], r)))
        hs = _read_halfspaces(r)
        if not hs:
            r.error(f"piece {label} has no halfspaces")
        regions.append(Region(hs, label))
    domain = None
    if r.peek() == "domain":
        r.next()
        domain = Region(_read_halfspaces(r), -1)
    return ConventionalPWL(dim, regions, pieces, domain=domain)


def _read_cplr(r, fields):
    from .models import CplrModel
    f = _fields(r.next("affine:"), r)
    alpha0, beta0 = _floats(f["alpha"], r), _float(f["beta"], r)
    terms = []
    for _ in range(_count(fields.get("terms", "0"), r)):
        tf = _fields(r.next("term:"), r)
        terms.append((_int(tf["eta"], r), _floats(tf["alpha"], r),
                      _float(tf["beta"], r)))
    return CplrModel(alpha0, beta0, terms)


def _read_hh(r, fields):
    from .models import HingeModel
    f = _fields(r.next("affine:"), r)
    alpha0, beta0 = _floats(f["alpha"], r), _float(f["beta"], r)
    hinges = []
    for _ in range(_count(fields.get("hinges", "0"), r)):
        hf = _fields(r.next("hinge:"), r)
        hinges.append((_float(hf["w"], r), _floats(hf["alpha"], r),
                       _float(hf["beta"], r)))
    return HingeModel(alpha0, beta0, hinges)


def _read_ghh(r, fields):
    from .affine import AffineFunction
    from .models import GhhModel
    terms = []
    for _ in range(_count(fields.get("terms", "0"), r)):
        tf = _fields(r.next("term:"), r)
        w, affines = _float(tf["w"], r), []
        for _ in range(_count(tf["affines"], r)):
            af = _fields(r.next("a:"), r)
            affines.append(AffineFunction(_floats(af["J"], r), _float(af["b"], r)))
        terms.append((w, affines))
    return GhhModel(terms)


def _read_expr(r, depth=0):
    from .affine import AffineFunction
    from .models import CplrExpr
    line = r.next("node:")
    if depth > MAX_NEST_DEPTH:
        r.error(f"nesting deeper than {MAX_NEST_DEPTH} levels")
    f = _fields(line, r)
    affine = AffineFunction(_floats(f["alpha"], r), _float(f["beta"], r))
    children = []
    for _ in range(_count(f["children"], r)):
        cf = _fields(r.next("child:"), r)
        children.append((_float(cf["coeff"], r), _read_expr(r, depth + 1)))
    return CplrExpr(affine, children)


def _read_nested(r, fields):
    from .models import NestedCplrModel
    return NestedCplrModel(_read_expr(r))


def _read_hlcplr(r, fields):
    from .models import HlCplrBasis
    interval, coords = _float(fields["interval"], r), []
    for _ in range(_count(fields.get("coords", "0"), r)):
        cf = _fields(r.next("c:"), r)
        coords.append((_int(cf["axis"], r), _int(cf["knot"], r)))
    return HlCplrBasis(_count(fields["dim"], r), interval, coords)


def _read_ahh(r, fields):
    from .models import AhhBasis, AhhModel
    intercept, bases = _float(fields["intercept"], r), []
    for _ in range(_count(fields.get("bases", "0"), r)):
        bf = _fields(r.next("basis:"), r)
        w, factors = _float(bf["w"], r), []
        for _ in range(_count(bf["factors"], r)):
            ff = _fields(r.next("f:"), r)
            factors.append((_int(ff["delta"], r), _int(ff["var"], r),
                            _float(ff["knot"], r)))
        bases.append((w, AhhBasis(factors)))
    return AhhModel(_count(fields["dim"], r), intercept, bases)


def _read_sbf(r, fields):
    from .models import SbfModel
    bases = []
    for _ in range(_count(fields.get("bases", "0"), r)):
        bf = _fields(r.next("basis:"), r)
        bases.append((_float(bf["w"], r), _floats(bf["gamma"], r),
                      _floats(bf["zeta"], r)))
    return SbfModel(_count(fields["dim"], r), bases)


def _read_lattice(r, fields):
    from .affine import AffineFunction
    from .models import LatticeModel
    affines = []
    for _ in range(_count(fields.get("affines", "0"), r)):
        af = _fields(r.next("a:"), r)
        affines.append(AffineFunction(_floats(af["J"], r), _float(af["b"], r)))
    sets = []
    for _ in range(_count(fields.get("sets", "0"), r)):
        line = r.next("S:")
        body = line[2:].strip()
        sets.append([_int(tok, r) for tok in body.split(",") if tok])
    return LatticeModel(affines, sets)


def _read_dc(r, fields):
    from .transforms import DCForm
    sides, width = ([], []), None
    for rows, tag, key in zip(sides, ("p:", "m:"), ("plus", "minus")):
        for _ in range(_count(fields.get(key, "0"), r)):
            f = _fields(r.next(tag), r)
            J = _floats(f["J"], r)
            width = J.shape[0] if width is None else width
            if J.shape[0] != width:
                r.error(f"J has {J.shape[0]} values, the first row has {width}",
                        needle=f["J"])
            rows.append(np.concatenate([J, [_float(f["b"], r)]]))
    return DCForm(np.array(sides[0]), np.array(sides[1]))


def _read_matrix(r, name):
    f = _fields(r.next(f"{name}"), r)
    rows, cols = _count(f["rows"], r), _count(f["cols"], r)
    data = np.empty((rows, cols))
    for i in range(rows):
        row = _floats(r.next(), r)
        if row.shape[0] != cols:
            r.error(f"expected {cols} values, got {row.shape[0]}")
        data[i] = row
    return data


def _read_network(r, fields):
    from .network import Layer, PwlNetwork, make_activation
    header = r.pos
    layers = []
    for _ in range(_count(fields.get("layers", "0"), r)):
        lf = _fields(r.next("layer:"), r)
        line = r.pos
        kind = lf.pop("activation", "linear")
        out_rows = _count(lf["out"], r)
        del lf["out"]
        config = {}
        for k, v in lf.items():
            try:
                config[k] = int(v)
            except ValueError:
                config[k] = _float(v, r)
        group = config.get("k", 2)
        if kind == "maxout" and group < 1:
            r.error("maxout group size must be at least 1", needle="k=")
        if kind == "maxout" and out_rows % group:
            r.error(f"maxout group size {group} does not divide out={out_rows}",
                    needle="k=")
        width = out_rows // group if kind == "maxout" else out_rows
        try:
            act = make_activation(kind, width, **config)
        except (TypeError, ValueError) as e:
            r.error(f"bad layer: {e}")
        W = _read_matrix(r, "W")
        bline = r.next("b:")
        b = _floats(bline.split(":", 1)[1].strip(), r)
        try:
            for i, arr in enumerate(act.param_arrays() if act else ()):
                arr[...] = _read_matrix(r, f"param{i}").reshape(arr.shape)
            layers.append(Layer(W, b, act))
        except ValueError as e:
            raise ParseError(f"bad layer: {e}", line) from None
    try:
        return PwlNetwork(layers)
    except ValueError as e:
        raise ParseError(f"bad network: {e}", header) from None


_READERS = {
    "pwl-conventional": _read_conventional,
    "pwl-cplr": _read_cplr,
    "pwl-hh": _read_hh,
    "pwl-ghh": _read_ghh,
    "pwl-nested": _read_nested,
    "pwl-hlcplr": _read_hlcplr,
    "pwl-ahh": _read_ahh,
    "pwl-sbf": _read_sbf,
    "pwl-lattice": _read_lattice,
    "pwl-dc": _read_dc,
    "pwl-net": _read_network,
}


def deserialize(text):
    """Parse any supported model from its text format."""
    r = _Reader(text)
    header = r.next()
    parts = header.split()
    if len(parts) < 2 or parts[1] != "v1" or parts[0] not in _READERS:
        r.error(f"unrecognized header {header!r}")
    fields = _fields(" ".join([parts[0]] + parts[2:]), r)
    declared = {key: _count(fields[key], r) for key in ("dim", "inputs") if key in fields}
    try:
        model = _READERS[parts[0]](r, fields)
    except (ValueError, DimensionMismatchError) as e:
        raise ParseError(f"bad model: {e}", r.pos) from None
    for key, value in declared.items():
        if value != model.dim:
            raise ParseError(f"header has {key}={value}, the model's data has "
                             f"dimension {model.dim}", fields.line)
    if not r.done():
        r.error(f"trailing content {r.peek()!r}")
    return model


def save_model(model, path):
    """Serialize to a file atomically (write temp, then rename)."""
    write_text_atomic(path, serialize(model))


def load_model(path):
    with open(path) as fh:
        return deserialize(fh.read())


def write_text_atomic(path, text):
    """Write ``text`` to ``path`` through a temporary file beside it.

    ``text`` is a str or an iterable of str chunks, each written as it comes,
    so the whole text need never be held at once.
    """
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w") as fh:
            if isinstance(text, str):
                fh.write(text)
            else:
                fh.writelines(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


class TextChunks:
    """Text made chunk by chunk while it is written.

    Iterating hands out the chunks once; ``len`` counts the characters
    handed out so far, so once written it measures like the str it stands
    for, to a caller that counts what ``write_text_atomic`` wrote by ``len``
    of its argument.
    """

    def __init__(self, chunks):
        self._chunks = chunks
        self._size = 0

    def __iter__(self):
        for chunk in self._chunks:
            self._size += len(chunk)
            yield chunk

    def __len__(self):
        return self._size


# ---------------------------------------------------------------------------
# CSV tables
# ---------------------------------------------------------------------------

def read_csv_floats(path, header="auto"):
    """The header row (or None) and the float rows of a comma-separated file.

    Blank lines are skipped.  ``header`` may be True, False, or "auto" (a
    first row that is not all numbers).  A bad value, or a row whose length
    differs from the first data row, is a ValueError naming its row.
    """
    try:
        return _read_csv_numpy(path, header)
    except Exception:
        # any file numpy does not take is read again row by row, which
        # gives its values or names the error at its row and column
        return _read_csv_rows(path, header)


def _read_csv_numpy(path, header):
    """``read_csv_floats`` of a regular file, the header found through ``csv``
    and the rows parsed by numpy's C reader, which rounds as ``float`` does.

    Raises on any input the row loop may read otherwise: a bad value, a
    ragged row, quotes, ``1_0`` or non-ASCII digits, no data rows (numpy
    only warns), or a line over csv's field limit (numpy reads it).
    """
    if not stat.S_ISREG(os.stat(path).st_mode):
        raise ValueError("not a regular file")  # a pipe is read only once
    buf = np.fromfile(path, np.uint8)
    ends = np.flatnonzero(buf == ord("\n"))
    if np.diff(ends, prepend=-1, append=buf.size).max() > csv.field_size_limit():
        raise ValueError("line longer than the csv field limit")
    skip = 0
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        names = next(filter(None, reader), None) if header else None
        if header == "auto" and names is not None:
            try:
                list(map(float, names))
            except ValueError:
                pass
            else:
                names = None
        if names is not None:
            skip = reader.line_num
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        data = np.loadtxt(path, delimiter=",", comments=None, quotechar=None,
                          skiprows=skip, ndmin=2)
    return names, data


def _read_csv_rows(path, header):
    """``read_csv_floats`` one row at a time, naming the first bad row."""
    rows = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        records = filter(None, reader)
        names = next(records, None) if header and header != "auto" else None
        for raw in records:
            try:
                row = list(map(float, raw))
            except ValueError:
                if header == "auto" and names is None and not rows:
                    names = raw
                    continue
                for col, v in enumerate(raw, 1):
                    try:
                        float(v)
                    except ValueError:
                        raise ValueError(f"row {reader.line_num}, column {col}: "
                                         f"not a number: {v!r}") from None
            if rows and len(row) != len(rows[0]):
                raise ValueError(f"row {reader.line_num} has {len(row)} values, "
                                 f"the first has {len(rows[0])}")
            rows.append(row)
    return names, np.array(rows)


def csv_text(header, rows):
    """CSV text of a header row and the rows under it, newline-terminated."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    w.writerows(rows)
    return buf.getvalue()
