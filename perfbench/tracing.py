"""Spans around calls into pwlkit's modules, recorded from outside the program.

``Tracer.install`` replaces each target function with a wrapper in every
pwlkit module namespace that holds it (and on its class, for methods), so
calls made through names imported with ``from .x import y`` are seen too.
``uninstall`` puts the originals back.  A span is ``(name, start, end,
parent span, job, amount)``; ``amount`` is a count taken at the same
boundary (rows, points, bytes, facets...).  Self time is a span's duration
minus the durations of its direct children.
"""

from __future__ import annotations

import importlib
import os
import sys
from time import perf_counter

import numpy as np


def _rows(args, kwargs, result):
    return int(np.shape(args[1])[0]) if np.ndim(args[1]) == 2 else 1


def _file_size(index):
    return lambda args, kwargs, result: os.path.getsize(args[index])


def _text_len(args, kwargs, result):
    return len(args[1])


def _candidates(args, kwargs, result):
    return int(args[2].shape[1])


def _result_len(args, kwargs, result):
    return len(result)


def _dc_rows(args, kwargs, result):
    return int(result.plus.shape[0] + result.minus.shape[0])


# (span name, module, attribute path, amount, only under this parent span)
TARGETS = (
    ("cli.main", "pwlkit.cli", "main", None, None),
    ("learning.least_squares", "pwlkit.learning", "least_squares", None, None),
    ("learning.lstsq", "numpy.linalg", "lstsq", None, "learning.least_squares"),
    ("learning._scan_candidate_blocks", "pwlkit.learning", "_scan_candidate_blocks",
     _candidates, None),
    ("learning.fit_hh", "pwlkit.learning", "fit_hh", None, None),
    ("learning.fit_ahh", "pwlkit.learning", "fit_ahh", None, None),
    ("learning.fit_sbf", "pwlkit.learning", "fit_sbf", None, None),
    ("learning.Dataset.from_csv", "pwlkit.learning", "Dataset.from_csv",
     _file_size(1), None),
    ("network.train_sgd", "pwlkit.network", "train_sgd", None, None),
    ("network.backward_batch", "pwlkit.network", "backward_batch", None, None),
    ("network.forward_batch", "pwlkit.network", "PwlNetwork.forward_batch", _rows, None),
    ("network.count_regions", "pwlkit.network", "count_regions",
     lambda a, k, r: r.count, None),
    ("network.local_affine_map", "pwlkit.network", "local_affine_map", None, None),
    ("network._patterns_of_batch", "pwlkit.network", "_patterns_of_batch", None, None),
    ("conventional.linprog", "pwlkit.conventional", "linprog", None, None),
    ("conventional.find_facets", "pwlkit.conventional", "find_facets", _result_len, None),
    ("conventional.check_continuity", "pwlkit.conventional", "check_continuity",
     None, None),
    ("conventional.ConventionalPWL.values", "pwlkit.conventional",
     "ConventionalPWL.values", _rows, None),
    ("transforms.lattice_from_conventional", "pwlkit.transforms",
     "lattice_from_conventional", None, None),
    ("transforms.cplr_from_consistent", "pwlkit.transforms", "cplr_from_consistent",
     None, None),
    ("transforms.dc_from_model", "pwlkit.transforms", "dc_from_model", _dc_rows, None),
    ("transforms.check_equivalence", "pwlkit.transforms", "check_equivalence",
     lambda a, k, r: r.sample_count, None),
    ("formats.load_model", "pwlkit.formats", "load_model", _file_size(0), None),
    ("formats.save_model", "pwlkit.formats", "save_model", None, None),
    ("formats.write_text_atomic", "pwlkit.formats", "write_text_atomic", _text_len, None),
) + tuple(
    ("models.values", "pwlkit.models", f"{cls}.values", _rows, None)
    for cls in ("CplrModel", "NestedCplrModel", "HingeModel", "GhhModel",
                "HlCplrBasis", "AhhModel", "SbfModel", "LatticeModel")
) + (("models.values", "pwlkit.transforms", "DCForm.values", _rows, None),)


def _resolve(module, path):
    """(owner, attribute, raw value) for ``module:path``, or None if absent."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if isinstance(owner, type):
        raw = owner.__dict__.get(parts[-1])
    else:
        raw = getattr(owner, parts[-1], None)
    if raw is None:
        return None
    return owner, parts[-1], raw


class Tracer:
    def __init__(self):
        self.names = []
        self.spans = []
        self.stack = []         # (span index, name index) of open spans
        self.job = -1
        self.absent = []
        self._patches = []      # (owner, attribute, original) to restore
        self._wrappers = []     # (owner, attribute, original, replacement)
        for name, module, path, amount, parent in TARGETS:
            found = _resolve(module, path)
            if found is None or (parent is not None and parent not in self.names):
                self.absent.append(f"{module}:{path}")
                continue
            owner, attr, raw = found
            if name not in self.names:
                self.names.append(name)
            nid = self.names.index(name)
            pid = None if parent is None else self.names.index(parent)
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(raw.__func__, nid, amount, pid))
            else:
                wrapped = self._wrap(raw, nid, amount, pid)
            self._wrappers.append((owner, attr, raw, wrapped))

    def _wrap(self, fn, nid, amount, parent_nid):
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            if parent_nid is not None and (not stack or stack[-1][1] != parent_nid):
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1][0] if stack else -1
            stack.append((index, nid))
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (nid, start, end, parent, self.job, 0)
            if amount is not None:
                spans[index] = (nid, start, end, parent, self.job,
                                amount(args, kwargs, result))
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Swap every wrapped function in, wherever pwlkit refers to it."""
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "pwlkit" or n.startswith("pwlkit."))]
        for owner, attr, raw, wrapped in self._wrappers:
            self._set(owner, attr, raw, wrapped)
            if isinstance(owner, type):
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is raw and mod is not owner:
                        self._set(mod, key, raw, wrapped)

    def _set(self, owner, attr, original, replacement):
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def dump(self, path):
        with open(path, "w") as fh:
            fh.write("name,start,end,parent,job,amount\n")
            for nid, start, end, parent, job, amount in self.spans:
                fh.write(f"{self.names[nid]},{start!r},{end!r},{parent},{job},{amount}\n")

    def summary(self):
        """Per span name: calls, self seconds, summed amount.

        An amount is counted only on the outermost span of a name, so a
        recursive call is not counted twice.
        """
        child = [0.0] * len(self.spans)
        for nid, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {n: {"calls": 0, "self_s": 0.0, "amount": 0} for n in self.names}
        for i, (nid, start, end, parent, _, amount) in enumerate(self.spans):
            row = out[self.names[nid]]
            row["calls"] += 1
            row["self_s"] += (end - start) - child[i]
            if parent < 0 or self.spans[parent][0] != nid:
                row["amount"] += amount
        return out
