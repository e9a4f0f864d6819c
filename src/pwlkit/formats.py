"""Versioned line-oriented text formats for every model kind.

Each file starts with ``pwl-<kind> v1`` followed by kind-specific records.
Floats are written with shortest round-trip precision, so a load after a
save recovers every parameter bit for bit.  ``load_model`` dispatches on
the header; ``save_model`` picks the format from the object type.
"""

from __future__ import annotations

import os
import tempfile

import numpy as np

from .affine import AffineFunction
from .conventional import ConventionalPWL, Halfspace, Region
from .errors import ParseError
from .models import (
    AhhBasis,
    AhhModel,
    CplrExpr,
    CplrModel,
    GhhModel,
    HingeModel,
    HlCplrBasis,
    LatticeModel,
    NestedCplrModel,
    SbfModel,
)
from .network import Layer, PwlNetwork, make_activation
from .transforms import DCForm


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
        return np.array([float(v) for v in text.split(",")])
    except ValueError:
        reader.error(f"bad float list {text!r}", needle=text)


def _float(text, reader):
    try:
        return float(text)
    except ValueError:
        reader.error(f"bad float {text!r}", needle=text)


def _int(text, reader):
    try:
        return int(text)
    except ValueError:
        reader.error(f"bad integer {text!r}", needle=text)


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


_WRITERS = [
    (ConventionalPWL, _write_conventional),
    (CplrModel, _write_cplr),
    (HingeModel, _write_hh),
    (GhhModel, _write_ghh),
    (NestedCplrModel, _write_nested),
    (HlCplrBasis, _write_hlcplr),
    (AhhModel, _write_ahh),
    (SbfModel, _write_sbf),
    (LatticeModel, _write_lattice),
    (DCForm, _write_dc),
    (PwlNetwork, _write_network),
]


def serialize(model):
    """Render any supported model to its text format."""
    for cls, writer in _WRITERS:
        if isinstance(model, cls):
            return writer(model)
    raise TypeError(f"no text format for {type(model).__name__}")


# ---------------------------------------------------------------------------
# Readers
# ---------------------------------------------------------------------------

def _read_halfspaces(r):
    hs = []
    while r.peek() is not None and r.peek().startswith("H:"):
        hf = _fields(r.next(), r)
        hs.append(Halfspace(_floats(hf["normal"], r), _float(hf["offset"], r),
                            closed=_int(hf["closed"], r) == 1))
    return hs


def _read_conventional(r, fields):
    dim = _int(fields.get("dim", ""), r)
    pieces_n = _int(fields.get("pieces", ""), r)
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
    f = _fields(r.next("affine:"), r)
    alpha0, beta0 = _floats(f["alpha"], r), _float(f["beta"], r)
    terms = []
    for _ in range(_int(fields.get("terms", "0"), r)):
        tf = _fields(r.next("term:"), r)
        terms.append((_int(tf["eta"], r), _floats(tf["alpha"], r),
                      _float(tf["beta"], r)))
    return CplrModel(alpha0, beta0, terms)


def _read_hh(r, fields):
    f = _fields(r.next("affine:"), r)
    alpha0, beta0 = _floats(f["alpha"], r), _float(f["beta"], r)
    hinges = []
    for _ in range(_int(fields.get("hinges", "0"), r)):
        hf = _fields(r.next("hinge:"), r)
        hinges.append((_float(hf["w"], r), _floats(hf["alpha"], r),
                       _float(hf["beta"], r)))
    return HingeModel(alpha0, beta0, hinges)


def _read_ghh(r, fields):
    terms = []
    for _ in range(_int(fields.get("terms", "0"), r)):
        tf = _fields(r.next("term:"), r)
        affines = []
        for _ in range(_int(tf["affines"], r)):
            af = _fields(r.next("a:"), r)
            affines.append(AffineFunction(_floats(af["J"], r), _float(af["b"], r)))
        terms.append((_float(tf["w"], r), affines))
    return GhhModel(terms)


def _read_expr(r):
    f = _fields(r.next("node:"), r)
    affine = AffineFunction(_floats(f["alpha"], r), _float(f["beta"], r))
    children = []
    for _ in range(_int(f["children"], r)):
        cf = _fields(r.next("child:"), r)
        children.append((_float(cf["coeff"], r), _read_expr(r)))
    return CplrExpr(affine, children)


def _read_nested(r, fields):
    return NestedCplrModel(_read_expr(r))


def _read_hlcplr(r, fields):
    coords = []
    for _ in range(_int(fields.get("coords", "0"), r)):
        cf = _fields(r.next("c:"), r)
        coords.append((_int(cf["axis"], r), _int(cf["knot"], r)))
    return HlCplrBasis(_int(fields["dim"], r), _float(fields["interval"], r),
                       coords)


def _read_ahh(r, fields):
    bases = []
    for _ in range(_int(fields.get("bases", "0"), r)):
        bf = _fields(r.next("basis:"), r)
        factors = []
        for _ in range(_int(bf["factors"], r)):
            ff = _fields(r.next("f:"), r)
            factors.append((_int(ff["delta"], r), _int(ff["var"], r),
                            _float(ff["knot"], r)))
        bases.append((_float(bf["w"], r), AhhBasis(factors)))
    return AhhModel(_int(fields["dim"], r), _float(fields["intercept"], r), bases)


def _read_sbf(r, fields):
    bases = []
    for _ in range(_int(fields.get("bases", "0"), r)):
        bf = _fields(r.next("basis:"), r)
        bases.append((_float(bf["w"], r), _floats(bf["gamma"], r),
                      _floats(bf["zeta"], r)))
    return SbfModel(_int(fields["dim"], r), bases)


def _read_lattice(r, fields):
    affines = []
    for _ in range(_int(fields.get("affines", "0"), r)):
        af = _fields(r.next("a:"), r)
        affines.append(AffineFunction(_floats(af["J"], r), _float(af["b"], r)))
    sets = []
    for _ in range(_int(fields.get("sets", "0"), r)):
        line = r.next("S:")
        body = line[2:].strip()
        sets.append([int(tok) for tok in body.split(",") if tok])
    return LatticeModel(affines, sets)


def _read_dc(r, fields):
    plus, minus = [], []
    for _ in range(_int(fields.get("plus", "0"), r)):
        pf = _fields(r.next("p:"), r)
        plus.append(np.concatenate([_floats(pf["J"], r), [_float(pf["b"], r)]]))
    for _ in range(_int(fields.get("minus", "0"), r)):
        mf = _fields(r.next("m:"), r)
        minus.append(np.concatenate([_floats(mf["J"], r), [_float(mf["b"], r)]]))
    return DCForm(np.array(plus), np.array(minus))


def _read_matrix(r, name):
    f = _fields(r.next(f"{name}"), r)
    rows, cols = _int(f["rows"], r), _int(f["cols"], r)
    data = np.empty((rows, cols))
    for i in range(rows):
        row = _floats(r.next(), r)
        if row.shape[0] != cols:
            r.error(f"expected {cols} values, got {row.shape[0]}")
        data[i] = row
    return data


def _read_network(r, fields):
    layers = []
    for _ in range(_int(fields.get("layers", "0"), r)):
        lf = _fields(r.next("layer:"), r)
        kind = lf.pop("activation", "linear")
        out_rows = _int(lf["out"], r)
        del lf["out"]
        config = {}
        for k, v in lf.items():
            try:
                config[k] = int(v)
            except ValueError:
                config[k] = float(v)
        if kind == "maxout" and config.get("k", 2) < 1:
            r.error("maxout group size must be at least 1", needle="k=")
        W = _read_matrix(r, "W")
        bline = r.next("b:")
        b = _floats(bline.split(":", 1)[1].strip(), r)
        if kind == "linear":
            act = None
        else:
            width = out_rows
            if kind == "maxout":
                width = out_rows // config.get("k", 2)
            act = make_activation(kind, width, **config)
            for i, arr in enumerate(act.param_arrays()):
                data = _read_matrix(r, f"param{i}")
                arr[...] = data.reshape(arr.shape)
        layers.append(Layer(W, b, act))
    return PwlNetwork(layers)


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
    model = _READERS[parts[0]](r, fields)
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
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise

