"""Model parameters as plain data: text writers and reference evaluators.

Every model the benchmark feeds to pwlkit is first built here as a dict of
numbers.  ``write_text`` renders it in pwlkit's ``pwl-<kind> v1`` file
format and ``evaluate`` computes its value with plain numpy, so the output
checks compare pwlkit against arithmetic that shares no code with it.
"""

from __future__ import annotations

import math

import numpy as np


def _f(v):
    return repr(float(v))


def _vec(v):
    return ",".join(_f(x) for x in v)


# ---------------------------------------------------------------------------
# Text writers
# ---------------------------------------------------------------------------

def _write_affine_sum(tag, count_name, rows, m):
    out = [f"pwl-{tag} v1 dim={len(m['alpha0'])} {count_name}={len(rows)}",
           f"affine: alpha={_vec(m['alpha0'])} beta={_f(m['beta0'])}"]
    return out


def _write_nested_node(node, out):
    out.append(f"node: alpha={_vec(node['alpha'])} beta={_f(node['beta'])} "
               f"children={len(node['children'])}")
    for coeff, child in node["children"]:
        out.append(f"child: coeff={_f(coeff)}")
        _write_nested_node(child, out)


def _halfspace_lines(halfspaces):
    return [f"H: normal={_vec(n)} offset={_f(o)} closed=1" for n, o in halfspaces]


def write_text(m):
    kind = m["kind"]
    if kind == "hh":
        out = _write_affine_sum("hh", "hinges", m["hinges"], m)
        out += [f"hinge: w={_f(w)} alpha={_vec(a)} beta={_f(b)}"
                for w, a, b in m["hinges"]]
    elif kind == "cplr":
        out = _write_affine_sum("cplr", "terms", m["terms"], m)
        out += [f"term: eta={int(e)} alpha={_vec(a)} beta={_f(b)}"
                for e, a, b in m["terms"]]
    elif kind == "nested":
        out = [f"pwl-nested v1 dim={len(m['root']['alpha'])}"]
        _write_nested_node(m["root"], out)
    elif kind == "ghh":
        out = [f"pwl-ghh v1 dim={m['dim']} terms={len(m['terms'])}"]
        for w, affines in m["terms"]:
            out.append(f"term: w={_f(w)} affines={len(affines)}")
            out += [f"a: J={_vec(J)} b={_f(b)}" for J, b in affines]
    elif kind == "hlcplr":
        out = [f"pwl-hlcplr v1 dim={m['dim']} interval={_f(m['interval'])} "
               f"coords={len(m['coords'])}"]
        out += [f"c: axis={a} knot={k}" for a, k in m["coords"]]
    elif kind == "ahh":
        out = [f"pwl-ahh v1 dim={m['dim']} intercept={_f(m['intercept'])} "
               f"bases={len(m['bases'])}"]
        for w, factors in m["bases"]:
            out.append(f"basis: w={_f(w)} factors={len(factors)}")
            out += [f"f: delta={d} var={v} knot={_f(k)}" for d, v, k in factors]
    elif kind == "sbf":
        out = [f"pwl-sbf v1 dim={m['dim']} bases={len(m['bases'])}"]
        out += [f"basis: w={_f(w)} gamma={_vec(g)} zeta={_vec(z)}"
                for w, g, z in m["bases"]]
    elif kind == "lattice":
        out = [f"pwl-lattice v1 dim={len(m['affines'][0][0])} "
               f"affines={len(m['affines'])} sets={len(m['sets'])}"]
        out += [f"a: J={_vec(J)} b={_f(b)}" for J, b in m["affines"]]
        out += ["S: " + ",".join(str(i) for i in s) for s in m["sets"]]
    elif kind == "dc":
        out = [f"pwl-dc v1 dim={len(m['plus'][0]) - 1} plus={len(m['plus'])} "
               f"minus={len(m['minus'])}"]
        out += [f"p: J={_vec(r[:-1])} b={_f(r[-1])}" for r in m["plus"]]
        out += [f"m: J={_vec(r[:-1])} b={_f(r[-1])}" for r in m["minus"]]
    elif kind == "conventional":
        out = [f"pwl-conventional v1 dim={m['dim']} pieces={len(m['pieces'])}"]
        for (J, b), region in zip(m["pieces"], m["regions"]):
            out.append(f"J={_vec(J)} b={_f(b)}")
            out += _halfspace_lines(region)
        out.append("domain")
        out += _halfspace_lines(m["domain"])
    elif kind == "net":
        layers = m["layers"]
        out = [f"pwl-net v1 inputs={len(layers[0]['W'][0])} layers={len(layers)}"]
        for layer in layers:
            W = layer["W"]
            out.append(f"layer: out={len(W)} activation={layer['activation']}")
            out.append(f"W: rows={len(W)} cols={len(W[0])}")
            out += [_vec(row) for row in W]
            out.append(f"b: {_vec(layer['b'])}")
    else:
        raise ValueError(f"no writer for kind {kind!r}")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# Reference evaluators
# ---------------------------------------------------------------------------

def _nested_values(node, X):
    out = X @ np.array(node["alpha"]) + node["beta"]
    for coeff, child in node["children"]:
        out = out + coeff * np.abs(_nested_values(child, X))
    return out


def net_forward(layers, X):
    """Plain forward pass of a relu/linear network."""
    a = X
    for layer in layers:
        a = a @ np.array(layer["W"]).T + np.array(layer["b"])
        if layer["activation"] == "relu":
            a = np.maximum(a, 0.0)
    return a[:, 0]


def evaluate(m, X):
    """Value of a parameter dict at each row of ``X``."""
    X = np.asarray(X, dtype=float)
    kind = m["kind"]
    if kind in ("hh", "cplr"):
        out = X @ np.array(m["alpha0"]) + m["beta0"]
        if kind == "hh":
            for w, a, b in m["hinges"]:
                out = out + w * np.maximum(X @ np.array(a) + b, 0.0)
        else:
            for e, a, b in m["terms"]:
                out = out + e * np.abs(X @ np.array(a) + b)
        return out
    if kind == "nested":
        return _nested_values(m["root"], X)
    if kind == "ghh":
        out = np.zeros(X.shape[0])
        for w, affines in m["terms"]:
            J = np.array([a[0] for a in affines])
            b = np.array([a[1] for a in affines])
            out = out + w * np.max(X @ J.T + b, axis=1)
        return out
    if kind == "hlcplr":
        cols = [X[:, a] - k * m["interval"] for a, k in m["coords"]]
        return np.maximum(np.min(np.column_stack(cols), axis=1), 0.0)
    if kind == "ahh":
        out = np.full(X.shape[0], m["intercept"])
        for w, factors in m["bases"]:
            cols = [np.maximum(d * (X[:, v] - k), 0.0) for d, v, k in factors]
            out = out + w * np.min(np.column_stack(cols), axis=1)
        return out
    if kind == "sbf":
        out = np.zeros(X.shape[0])
        for w, g, z in m["bases"]:
            out = out + w * np.maximum(1.0 - np.abs(X - np.array(z)) @ np.array(g), 0.0)
        return out
    if kind == "lattice":
        J = np.array([a[0] for a in m["affines"]])
        b = np.array([a[1] for a in m["affines"]])
        vals = X @ J.T + b
        return np.max(np.column_stack([np.min(vals[:, s], axis=1)
                                       for s in m["sets"]]), axis=1)
    if kind == "dc":
        H = np.column_stack([X, np.ones(X.shape[0])])
        return (np.max(H @ np.array(m["plus"]).T, axis=1)
                - np.max(H @ np.array(m["minus"]).T, axis=1))
    if kind == "conventional":
        return evaluate(m["cplr"], X)   # arrangement models keep their formula
    if kind == "net":
        return net_forward(m["layers"], X)
    raise ValueError(f"no evaluator for kind {kind!r}")


def halton(count, dim, skip):
    """Halton points in the unit cube, starting at index ``skip + 1``."""
    primes = [2, 3, 5, 7, 11, 13, 17, 19][:dim]
    out = np.empty((count, dim))
    for j, base in enumerate(primes):
        for i in range(count):
            k, f, r = skip + i + 1, 1.0, 0.0
            while k > 0:
                f /= base
                r += f * (k % base)
                k //= base
            out[i, j] = r
    return out


def zaslavsky(m, n):
    return sum(math.comb(m, j) for j in range(min(m, n) + 1))
