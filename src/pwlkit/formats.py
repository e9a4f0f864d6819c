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

    def peek(self):
        while self.pos < len(self.lines) and not self.lines[self.pos].strip():
            self.pos += 1
        return self.lines[self.pos].strip() if self.pos < len(self.lines) else None

    def next(self, expect=None):
        line = self.peek()
        if line is None:
            raise ParseError("unexpected end of file", len(self.lines))
        self.pos += 1
        if expect is not None and not line.startswith(expect):
            raise ParseError(f"expected {expect!r}, got {line!r}", self.pos)
        return line

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
# Record codecs shared by the model kinds
# ---------------------------------------------------------------------------

def _records(r, count_text, tag):
    """The fields of each of ``count_text`` records, lines starting ``tag``.

    The count is parsed when the first record is asked for.
    """
    for _ in range(_count(count_text, r)):
        yield _fields(r.next(tag), r)


# the keys of an affine record written as alpha=/beta= rather than J=/b=
_ALPHA_BETA = ("alpha", "beta")


def _affine(f, r, j="J", b="b"):
    """The affine function of a record's ``J=``/``b=`` fields, in that order."""
    from .affine import AffineFunction
    return AffineFunction(_floats(f[j], r), _float(f[b], r))


def _affine_text(jacobian, bias, j="J", b="b"):
    return f"{j}={_fmt_vec(jacobian)} {b}={_fmt(bias)}"


def _write_matrix(name, arr):
    arr = np.atleast_2d(np.asarray(arr, dtype=float))
    yield f"{name}: rows={arr.shape[0]} cols={arr.shape[1]}"
    yield from map(_fmt_vec, arr)


def _read_matrix(r, name):
    f = _fields(r.next(name), r)
    rows, cols = _count(f["rows"], r), _count(f["cols"], r)
    data = np.empty((rows, cols))
    for i in range(rows):
        row = _floats(r.next(), r)
        if row.shape[0] != cols:
            r.error(f"expected {cols} values, got {row.shape[0]}")
        data[i] = row
    return data


# ---------------------------------------------------------------------------
# One writer and one reader per model kind
#
# A writer yields the lines of a model's text, the first being the header's
# fields after ``pwl-<kind> v1``.  A reader takes the cursor past the header
# and the header's fields.
# ---------------------------------------------------------------------------

def _write_halfspaces(region):
    for h in region.halfspaces:
        yield (f"H: normal={_fmt_vec(h.normal)} offset={_fmt(h.offset)} "
               f"closed={1 if h.closed else 0}")


def _read_halfspaces(r):
    from .conventional import Halfspace
    hs = []
    while (r.peek() or "").startswith("H:"):
        hf = _fields(r.next(), r)
        hs.append(Halfspace(_floats(hf["normal"], r), _float(hf["offset"], r),
                            closed=_int(hf["closed"], r) == 1))
    return hs


def _write_conventional(m):
    yield f"dim={m.dimension} pieces={m.piece_count}"
    for piece, region in zip(m.pieces, m.regions):
        yield _affine_text(piece.jacobian, piece.bias)
        yield from _write_halfspaces(region)
    if m.domain is not None:
        yield "domain"
        yield from _write_halfspaces(m.domain)


def _read_conventional(r, fields):
    from .conventional import ConventionalPWL, Region
    dim, pieces, regions = _count(fields.get("dim", ""), r), [], []
    for label, f in enumerate(_records(r, fields.get("pieces", ""), "J=")):
        pieces.append(_affine(f, r))
        hs = _read_halfspaces(r)
        if not hs:
            r.error(f"piece {label} has no halfspaces")
        regions.append(Region(hs, label))
    domain = None
    if r.peek() == "domain":
        r.next()
        domain = Region(_read_halfspaces(r), -1)
    return ConventionalPWL(dim, regions, pieces, domain=domain)


def _write_cplr(m):
    yield f"dim={m.dim} terms={len(m.terms)}"
    yield "affine: " + _affine_text(m.alpha0, m.beta0, *_ALPHA_BETA)
    for eta, alpha, beta in m.terms:
        yield f"term: eta={eta} " + _affine_text(alpha, beta, *_ALPHA_BETA)


def _read_cplr(r, fields):
    from .models import CplrModel
    a = _affine(_fields(r.next("affine:"), r), r, *_ALPHA_BETA)
    terms = [(_int(tf["eta"], r), _affine(tf, r, *_ALPHA_BETA))
             for tf in _records(r, fields.get("terms", "0"), "term:")]
    return CplrModel(a.jacobian, a.bias, [(e, t.jacobian, t.bias) for e, t in terms])


def _write_hh(m):
    yield f"dim={m.dim} hinges={len(m.hinges)}"
    yield "affine: " + _affine_text(m.alpha0, m.beta0, *_ALPHA_BETA)
    for w, alpha, beta in m.hinges:
        yield f"hinge: w={_fmt(w)} " + _affine_text(alpha, beta, *_ALPHA_BETA)


def _read_hh(r, fields):
    from .models import HingeModel
    a = _affine(_fields(r.next("affine:"), r), r, *_ALPHA_BETA)
    hinges = [(_float(hf["w"], r), _affine(hf, r, *_ALPHA_BETA))
              for hf in _records(r, fields.get("hinges", "0"), "hinge:")]
    return HingeModel(a.jacobian, a.bias, [(w, h.jacobian, h.bias) for w, h in hinges])


def _write_ghh(m):
    yield f"dim={m.dim} terms={len(m.terms)}"
    for w, affines in m.terms:
        yield f"term: w={_fmt(w)} affines={len(affines)}"
        for a in affines:
            yield "a: " + _affine_text(a.jacobian, a.bias)


def _read_ghh(r, fields):
    from .models import GhhModel
    return GhhModel([(_float(tf["w"], r),
                      [_affine(af, r) for af in _records(r, tf["affines"], "a:")])
                     for tf in _records(r, fields.get("terms", "0"), "term:")])


def _write_expr(node):
    yield (f"node: {_affine_text(node.affine.jacobian, node.affine.bias, *_ALPHA_BETA)} "
           f"children={len(node.children)}")
    for coeff, child in node.children:
        yield f"child: coeff={_fmt(coeff)}"
        yield from _write_expr(child)


def _write_nested(m):
    yield f"dim={m.dim}"
    yield from _write_expr(m.root)


def _read_expr(r, depth=0):
    from .models import CplrExpr
    line = r.next("node:")
    if depth > MAX_NEST_DEPTH:
        r.error(f"nesting deeper than {MAX_NEST_DEPTH} levels")
    f = _fields(line, r)
    return CplrExpr(_affine(f, r, *_ALPHA_BETA),
                    [(_float(cf["coeff"], r), _read_expr(r, depth + 1))
                     for cf in _records(r, f["children"], "child:")])


def _read_nested(r, fields):
    from .models import NestedCplrModel
    return NestedCplrModel(_read_expr(r))


def _write_hlcplr(b):
    yield f"dim={b.dim} interval={_fmt(b.interval)} coords={len(b.coordinates)}"
    for axis, knot in b.coordinates:
        yield f"c: axis={axis} knot={knot}"


def _read_hlcplr(r, fields):
    from .models import HlCplrBasis
    interval = _float(fields["interval"], r)
    coords = [(_int(cf["axis"], r), _int(cf["knot"], r))
              for cf in _records(r, fields.get("coords", "0"), "c:")]
    return HlCplrBasis(_count(fields["dim"], r), interval, coords)


def _write_ahh(m):
    yield f"dim={m.dim} intercept={_fmt(m.intercept)} bases={len(m.bases)}"
    for w, basis in m.bases:
        yield f"basis: w={_fmt(w)} factors={len(basis.factors)}"
        for delta, var, knot in basis.factors:
            yield f"f: delta={delta} var={var} knot={_fmt(knot)}"


def _read_ahh(r, fields):
    from .models import AhhBasis, AhhModel
    intercept = _float(fields["intercept"], r)
    bases = [(_float(bf["w"], r),
              AhhBasis([(_int(ff["delta"], r), _int(ff["var"], r), _float(ff["knot"], r))
                        for ff in _records(r, bf["factors"], "f:")]))
             for bf in _records(r, fields.get("bases", "0"), "basis:")]
    return AhhModel(_count(fields["dim"], r), intercept, bases)


def _write_sbf(m):
    yield f"dim={m.dim} bases={len(m.bases)}"
    for w, gamma, zeta in m.bases:
        yield f"basis: w={_fmt(w)} gamma={_fmt_vec(gamma)} zeta={_fmt_vec(zeta)}"


def _read_sbf(r, fields):
    from .models import SbfModel
    bases = [(_float(bf["w"], r), _floats(bf["gamma"], r), _floats(bf["zeta"], r))
             for bf in _records(r, fields.get("bases", "0"), "basis:")]
    return SbfModel(_count(fields["dim"], r), bases)


def _write_lattice(m):
    yield f"dim={m.dim} affines={len(m.affines)} sets={len(m.sets)}"
    for a in m.affines:
        yield "a: " + _affine_text(a.jacobian, a.bias)
    for s in m.sets:
        yield "S: " + ",".join(str(i) for i in s)


def _read_lattice(r, fields):
    from .models import LatticeModel
    affines = [_affine(af, r) for af in _records(r, fields.get("affines", "0"), "a:")]
    sets = [[_int(tok, r) for tok in r.next("S:")[2:].strip().split(",") if tok]
            for _ in range(_count(fields.get("sets", "0"), r))]
    return LatticeModel(affines, sets)


def _write_dc(m):
    yield f"dim={m.dim} plus={m.plus.shape[0]} minus={m.minus.shape[0]}"
    for tag, rows in (("p", m.plus), ("m", m.minus)):
        for row in rows:
            yield f"{tag}: " + _affine_text(row[:-1], row[-1])


def _read_dc(r, fields):
    from .transforms import DCForm
    sides, width = ([], []), None
    for rows, tag, key in zip(sides, ("p:", "m:"), ("plus", "minus")):
        for f in _records(r, fields.get(key, "0"), tag):
            J = _floats(f["J"], r)
            width = width or J.shape[0]
            if J.shape[0] != width:
                r.error(f"J has {J.shape[0]} values, the first row has {width}",
                        needle=f["J"])
            rows.append(np.append(J, _float(f["b"], r)))
    return DCForm(np.array(sides[0]), np.array(sides[1]))


def _write_network(net):
    yield f"inputs={net.in_dim} layers={len(net.layers)}"
    for layer in net.layers:
        act = layer.activation
        config = {} if act is None else act.config()
        yield (f"layer: out={layer.weight.shape[0]} "
               f"activation={'linear' if act is None else act.kind}"
               + "".join(f" {k}={v}" for k, v in config.items()))
        yield from _write_matrix("W", layer.weight)
        yield f"b: {_fmt_vec(layer.bias)}"
        for i, arr in enumerate(act.param_arrays() if act else ()):
            yield from _write_matrix(f"param{i}", arr)


def _read_network(r, fields):
    from .network import Layer, PwlNetwork, make_activation
    header = r.pos
    layers = []
    for lf in _records(r, fields.get("layers", "0"), "layer:"):
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


# header: (pwlkit module, class, reader, writer); ``serialize`` tries the
# classes in this order
_KINDS = {
    "pwl-conventional": ("conventional", "ConventionalPWL", _read_conventional,
                         _write_conventional),
    "pwl-cplr": ("models", "CplrModel", _read_cplr, _write_cplr),
    "pwl-hh": ("models", "HingeModel", _read_hh, _write_hh),
    "pwl-ghh": ("models", "GhhModel", _read_ghh, _write_ghh),
    "pwl-nested": ("models", "NestedCplrModel", _read_nested, _write_nested),
    "pwl-hlcplr": ("models", "HlCplrBasis", _read_hlcplr, _write_hlcplr),
    "pwl-ahh": ("models", "AhhModel", _read_ahh, _write_ahh),
    "pwl-sbf": ("models", "SbfModel", _read_sbf, _write_sbf),
    "pwl-lattice": ("models", "LatticeModel", _read_lattice, _write_lattice),
    "pwl-dc": ("transforms", "DCForm", _read_dc, _write_dc),
    "pwl-net": ("network", "PwlNetwork", _read_network, _write_network),
}


def instance_of(obj, module, name):
    """``isinstance(obj, pwlkit.<module>.<name>)``, without importing ``module``.

    An object's class is defined before the object exists, so while the
    module is not loaded nothing can be an instance of its classes.
    """
    loaded = sys.modules.get(f"{__package__}.{module}")
    return loaded is not None and isinstance(obj, getattr(loaded, name))


def serialize(model):
    """Render any supported model to its text format."""
    for header, (module, name, _, write) in _KINDS.items():
        if instance_of(model, module, name):
            return f"{header} v1 " + "\n".join(write(model)) + "\n"
    raise TypeError(f"no text format for {type(model).__name__}")


def deserialize(text):
    """Parse any supported model from its text format."""
    r = _Reader(text)
    header = r.next()
    parts = header.split()
    if len(parts) < 2 or parts[1] != "v1" or parts[0] not in _KINDS:
        r.error(f"unrecognized header {header!r}")
    fields = _fields(" ".join([parts[0]] + parts[2:]), r)
    declared = {key: _count(fields[key], r) for key in ("dim", "inputs") if key in fields}
    try:
        model = _KINDS[parts[0]][2](r, fields)
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
