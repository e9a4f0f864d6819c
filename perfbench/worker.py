"""One workload process: run a job list through ``pwlkit.cli.main`` in a loop.

Usage: worker.py MANIFEST WARMUP_MANIFEST SECONDS TRACE RESULT_JSON

One client, closed loop: each job starts when the previous one returns.
The warm-up manifest (same jobs at minimal size) runs once, untimed.  Then
whole passes over the job list run until SECONDS of job time have passed
(at least ``MIN_PASSES``).  A fixed calibration kernel that does not touch
pwlkit runs before the first job and after every job (untimed); each
execution records the mean of the two calibrations around it, so the
caller can scale job times to a reference machine speed.  With TRACE=1,
untraced and traced passes alternate instead, and the spans of the traced
passes are written next to the result.  Output checks are not done here:
the worker records each execution's exit code, escaped exception and
output digests, and keeps the first execution's stdout and stderr for the
checker.
"""

from __future__ import annotations

import contextlib
import ctypes
import gc
import glob
import hashlib
import io
import json
import os
import resource
import sys
from time import perf_counter

MIN_PASSES = 3      # the tail percentile needs repeats
CALIBRATION_ROUNDS = 3


def calibrate():
    """Seconds taken by a fixed mix of interpreter, numpy and LAPACK work.

    It stands for the kinds of work the jobs do: a Python loop, numpy calls
    on small arrays (as in SGD steps and CLI parsing), vector kernels on a
    few hundred kilobytes and least squares on a 2000x10 matrix (as in the
    shallow fits).  So its time tracks how fast the machine runs the jobs
    right now.  The fastest of a few rounds is taken.
    """
    import numpy as np
    small = np.linspace(-1.0, 1.0, 512).reshape(64, 8)
    big = np.linspace(-1.0, 1.0, 20000).reshape(2000, 10)
    y_small, y_big = np.cos(np.arange(64.0)), np.cos(np.arange(2000.0))
    best = float("inf")
    for _ in range(CALIBRATION_ROUNDS):
        start = perf_counter()
        acc = 0
        for i in range(1500):
            acc += len(str(i)) + len({i: i})
        v = np.linspace(0.0, 1.0, 2048)
        for _ in range(30):
            v = np.sqrt(v * v + 1.0)
        for _ in range(10):
            np.linalg.lstsq(small + v[0], y_small, rcond=None)
        w = np.linspace(0.0, 1.0, 32768)
        for _ in range(20):
            w = np.sqrt(w * w + 1.0)
        for _ in range(4):
            np.linalg.lstsq(big + w[0], y_big, rcond=None)
        best = min(best, perf_counter() - start)
    return best


def _blas_threads():
    """Thread count the bundled OpenBLAS reports, or None if unknown."""
    import numpy as np
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _digest(path):
    try:
        with open(path, "rb") as fh:
            return hashlib.blake2b(fh.read(), digest_size=16).hexdigest()
    except FileNotFoundError:
        return None


def _run_job(cli, job):
    gc.collect()    # the previous job's garbage is not this job's cost
    out, err = io.StringIO(), io.StringIO()
    code, exc = None, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = perf_counter()
        try:
            code = cli.main(job["argv"])
        except Exception as e:      # the job failed; the loop keeps going
            exc = f"{type(e).__name__}: {e}"
        finally:
            elapsed = perf_counter() - start
    return elapsed, code, exc, out.getvalue(), err.getvalue()


def _pass(cli, jobs, records, firsts, traced, tracer, pass_index):
    total = 0.0
    before = calibrate()
    for index, job in enumerate(jobs):
        if tracer is not None:
            tracer.job = index
        elapsed, code, exc, out, err = _run_job(cli, job)
        after = calibrate()
        total += elapsed
        calibration, before = (before + after) / 2.0, after
        if records is None:
            continue
        text = hashlib.blake2b((out + "\0" + err).encode(), digest_size=16).hexdigest()
        records.append({"job": index, "pass": pass_index, "traced": traced,
                        "seconds": elapsed, "calibration_s": calibration,
                        "exit": code, "exception": exc,
                        "stdout_digest": text,
                        "output_digests": [_digest(p) for p in job["outputs"]]})
        if index not in firsts:
            firsts[index] = {"stdout": out, "stderr": err}
    return total


def main(argv):
    manifest_path, warmup_path, seconds, trace, result_path = argv
    seconds, trace = float(seconds), trace == "1"
    start = perf_counter()
    from pwlkit import cli
    import_s = perf_counter() - start
    import_calibration_s = calibrate()
    src = os.path.join(os.getcwd(), "src")
    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        raise SystemExit(f"pwlkit was imported from {cli.__file__}, not from {src}")

    with open(manifest_path) as fh:
        jobs = json.load(fh)["jobs"]
    with open(warmup_path) as fh:
        warmup = json.load(fh)["jobs"]

    _pass(cli, warmup, None, {}, False, None, -1)
    # Modules and the objects the warm-up left behind are kept out of the
    # per-job collections, which would otherwise walk them every time.
    gc.collect()
    gc.freeze()

    tracer = None
    if trace:
        from tracing import Tracer
        tracer = Tracer()

    records, firsts = [], {}
    traced_passes = 0
    spent = 0.0
    passes = 0
    while passes < MIN_PASSES or spent < seconds or (trace and passes % 2):
        traced = trace and passes % 2 == 1
        if traced:
            tracer.install()
        try:
            t = _pass(cli, jobs, records, firsts, traced, tracer if traced else None, passes)
        finally:
            if traced:
                tracer.uninstall()
        traced_passes += traced
        spent += t
        passes += 1

    result = {"import_s": import_s, "import_calibration_s": import_calibration_s,
              "passes": passes, "traced_passes": traced_passes,
              "blas_threads": _blas_threads(),
              "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              "records": records, "firsts": {str(k): v for k, v in firsts.items()}}
    if tracer is not None:
        tracer.dump(os.path.splitext(result_path)[0] + "-spans.csv")
        result["trace"] = tracer.summary()
        result["absent"] = tracer.absent
    with open(result_path, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1:])
