"""pwlkit benchmark: seeded CLI job streams, end-to-end and per-module metrics.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload fit --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --smoke

A run generates the workload's inputs from the seed (``gen.py``), times
``import pwlkit.cli`` in fresh interpreters, then starts one worker process
(``worker.py``) that feeds the job list to ``pwlkit.cli.main`` in a closed
loop with one client and BLAS pinned to one thread.  After the worker has
exited, every job's output is checked (``checks.py``).  Every time is scaled
to a reference machine speed by a calibration kernel measured next to it
(``worker.calibrate``; see ``scaled``).  The last line of
stdout is the result object; the line before it is a report with the
environment, the tail percentile used, failures and the metrics that are
not part of the contract (``failed_frac``, ``fit_nrmse``).

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and reports per-module metrics, per pass over
the job list, from spans recorded around calls into pwlkit (``tracing.py``),
plus the tracing overhead.  ``--workload all`` runs every workload and
prints one table.  ``--smoke`` runs every workload at minimal size in both
modes and exits non-zero unless the only failures are the known ones,
every metric prints with its unit and every per-layer name is present or
marked absent.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import gen  # noqa: E402
from worker import MIN_PASSES  # noqa: E402

WORK = ".perfbench_work"
SETUP_SAMPLES = 3           # plus the worker's own import
WORKER_TIMEOUT_S = 150
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)

# Times in the metrics are seconds on a machine where ``worker.calibrate``
# takes this long.
CALIBRATION_REF_S = 3.0e-3

IMPORT_PROBE = ("import sys, time; t = time.perf_counter(); import pwlkit.cli; "
                "d = time.perf_counter() - t; sys.path.insert(0, {here!r}); "
                "from worker import calibrate; print(repr(d), repr(calibrate()))")

E2E_UNITS = {"setup_s": "s", "jobs_per_s": "1/s", "job_s.p50": "s",
             "job_s.tail": "s", "peak_rss_mb": "MB"}

# (metric, span name, field) read from the tracer's per-name summary
LAYER_FIELDS = (
    ("learning.least_squares.calls", "learning.least_squares", "calls"),
    ("learning.least_squares.self_s", "learning.least_squares", "self_s"),
    ("learning.lstsq.calls", "learning.lstsq", "calls"),
    ("learning._scan_candidate_blocks.calls", "learning._scan_candidate_blocks", "calls"),
    ("learning._scan_candidate_blocks.self_s", "learning._scan_candidate_blocks", "self_s"),
    ("learning.scan.candidates", "learning._scan_candidate_blocks", "amount"),
    ("learning.fit_hh.self_s", "learning.fit_hh", "self_s"),
    ("learning.fit_ahh.self_s", "learning.fit_ahh", "self_s"),
    ("learning.fit_sbf.self_s", "learning.fit_sbf", "self_s"),
    ("learning.Dataset.from_csv.self_s", "learning.Dataset.from_csv", "self_s"),
    ("network.train_sgd.self_s", "network.train_sgd", "self_s"),
    ("network.backward_batch.calls", "network.backward_batch", "calls"),
    ("network.backward_batch.self_s", "network.backward_batch", "self_s"),
    ("network.forward_batch.calls", "network.forward_batch", "calls"),
    ("network.forward_batch.rows", "network.forward_batch", "amount"),
    ("network.forward_batch.self_s", "network.forward_batch", "self_s"),
    ("network.count_regions.self_s", "network.count_regions", "self_s"),
    ("network.local_affine_map.calls", "network.local_affine_map", "calls"),
    ("network.local_affine_map.self_s", "network.local_affine_map", "self_s"),
    ("network._patterns_of_batch.self_s", "network._patterns_of_batch", "self_s"),
    ("conventional.linprog.calls", "conventional.linprog", "calls"),
    ("conventional.linprog.self_s", "conventional.linprog", "self_s"),
    ("conventional.find_facets.self_s", "conventional.find_facets", "self_s"),
    ("conventional.check_continuity.calls", "conventional.check_continuity", "calls"),
    ("conventional.check_continuity.self_s", "conventional.check_continuity", "self_s"),
    ("conventional.ConventionalPWL.values.self_s", "conventional.ConventionalPWL.values",
     "self_s"),
    ("conventional.ConventionalPWL.values.points", "conventional.ConventionalPWL.values",
     "amount"),
    ("transforms.lattice_from_conventional.self_s", "transforms.lattice_from_conventional",
     "self_s"),
    ("transforms.cplr_from_consistent.self_s", "transforms.cplr_from_consistent", "self_s"),
    ("transforms.dc_from_model.self_s", "transforms.dc_from_model", "self_s"),
    ("transforms.dc.rows", "transforms.dc_from_model", "amount"),
    ("transforms.check_equivalence.self_s", "transforms.check_equivalence", "self_s"),
    ("transforms.check_equivalence.points", "transforms.check_equivalence", "amount"),
    ("models.values.calls", "models.values", "calls"),
    ("models.values.self_s", "models.values", "self_s"),
    ("models.values.points", "models.values", "amount"),
    ("formats.load_model.self_s", "formats.load_model", "self_s"),
    ("formats.save_model.self_s", "formats.save_model", "self_s"),
    ("cli.main.self_s", "cli.main", "self_s"),
)


def _unit(metric):
    if metric.endswith("_s"):
        return "s"
    if metric.startswith("formats.bytes"):
        return "B"
    if metric.endswith(("yield", "frac", "nrmse")):
        return "ratio"
    return "count"


LAYER_UNITS = {m: _unit(m) for m, _, _ in LAYER_FIELDS}
LAYER_UNITS.update({"formats.bytes_read": "B", "formats.bytes_written": "B",
                    "network.regions.map_yield": "ratio",
                    "conventional.facet_yield": "ratio",
                    "fit.nrmse": "ratio", "trace.overhead_s": "s"})


# ---------------------------------------------------------------------------
# Environment
# ---------------------------------------------------------------------------

def _child_env():
    env = dict(os.environ)
    src = os.path.join(os.getcwd(), "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment(blas_threads):
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": _cpu_model(),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": importlib.metadata.version("scipy"),
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": blas_threads,
            "clients": 1, "worker_processes": 1}


# ---------------------------------------------------------------------------
# One workload
# ---------------------------------------------------------------------------

def _median(values):
    return statistics.median(values) if values else 0.0


def _tail_percentile(min_samples):
    """Highest ladder percentile with at least ten samples beyond it."""
    best = TAIL_LADDER[0]
    for p in TAIL_LADDER:
        if min_samples * (1.0 - p / 100.0) >= 10.0:
            best = p
    return best


def _percentile(values, p):
    ordered = sorted(values)
    pos = (len(ordered) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def scaled(seconds, calibration_s):
    """``seconds`` measured while ``worker.calibrate`` took ``calibration_s``,
    scaled to the reference speed.

    Other tenants of a shared machine change its speed by tens of percent
    over seconds to minutes; the calibration kernel, run right next to the
    measured work, slows down with it, so the ratio stays put while a
    change in pwlkit's own cost still shows in full.
    """
    return seconds * CALIBRATION_REF_S / calibration_s


def _measure_setup(env):
    """Scaled import times of ``pwlkit.cli``, one per fresh interpreter."""
    probe = IMPORT_PROBE.format(here=HERE)
    samples = []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run([sys.executable, "-c", probe], env=env,
                              capture_output=True, text=True, timeout=60, check=True)
        seconds, calibration = done.stdout.strip().splitlines()[-1].split()
        samples.append(scaled(float(seconds), float(calibration)))
    return samples


def _judge(manifest, result, seed):
    """Check outputs; returns per-job ``(ok, reason, known)`` and fit nrmse values.

    ``known`` marks a failure that matches the job's known defect: a
    traceback of the named exception, or exit codes the defect allows with
    a deviation on the probe grid within its bound.  Any other failure of
    the same job is unexpected.
    """
    import checks
    jobs = manifest["jobs"]
    verdicts, nrmse = {}, []
    for index, job in enumerate(jobs):
        first = result["firsts"].get(str(index))
        recs = [r for r in result["records"] if r["job"] == index]
        defect = job.get("known_defect", {})
        raised = sorted({r["exception"] for r in recs if r["exception"] is not None})
        if raised:
            known = "exception" in defect and all(
                e.startswith(defect["exception"] + ":") for e in raised)
            verdicts[index] = (False, f"traceback: {raised[0]}", known)
            continue
        if len({(r["stdout_digest"], tuple(r["output_digests"])) for r in recs}) > 1:
            verdicts[index] = (False, "outputs differ between repeated executions", False)
            continue
        try:
            ok, reason, figures = checks.check_job(job, first, manifest["models"], seed)
        except Exception as e:      # a malformed or missing output is a failed check
            ok, reason, figures = False, f"check raised {type(e).__name__}: {e}", {}
        exits = {r["exit"] for r in recs}
        if not exits <= set(job["expect"]):
            ok, reason = False, (f"exit {sorted(exits)}, expected {job['expect']}: "
                                 f"{first['stderr'].strip()[:200]}")
        known = (not ok and exits <= set(defect.get("exits", ()))
                 and figures.get("probe_deviation", float("inf")) <= defect["probe_deviation"])
        verdicts[index] = (ok, reason, known)
        if ok and "nrmse" in figures:
            nrmse.append(figures["nrmse"])
    return verdicts, nrmse


def _pass_seconds(records, traced):
    """Mean scaled job time of one traced or untraced pass."""
    chosen = [r for r in records if r["traced"] == traced]
    passes = len({r["pass"] for r in chosen})
    return sum(scaled(r["seconds"], r["calibration_s"]) for r in chosen) / passes


def _job_means(records, seconds):
    """Each job's mean of ``seconds`` over its executions in ``records``."""
    per_job = {}
    for r, t in zip(records, seconds):
        per_job.setdefault(r["job"], []).append(t)
    return [statistics.fmean(v) for v in per_job.values()]


def _first_pass_ratio(timed):
    """Scaled time of the first timed pass over the mean of the later ones.

    State that pwlkit keeps between calls in one process (a cache, say)
    would make later passes cheaper than a fresh CLI call; this shows it.
    """
    passes = {}
    for r in timed:
        passes[r["pass"]] = passes.get(r["pass"], 0.0) + scaled(r["seconds"],
                                                                 r["calibration_s"])
    first = passes.pop(min(passes))
    return first / statistics.fmean(passes.values())


def _layer_metrics(result):
    passes = max(1, result["traced_passes"])
    summary = result["trace"]

    def get(name, field):
        return summary.get(name, {}).get(field, 0) / passes

    out = {m: get(name, field) for m, name, field in LAYER_FIELDS}
    out["formats.bytes_read"] = (get("formats.load_model", "amount")
                                 + get("learning.Dataset.from_csv", "amount"))
    out["formats.bytes_written"] = get("formats.write_text_atomic", "amount")
    maps = get("network.local_affine_map", "calls")
    out["network.regions.map_yield"] = (get("network.count_regions", "amount") / maps
                                        if maps else 0.0)
    lps = get("conventional.linprog", "calls")
    out["conventional.facet_yield"] = (get("conventional.find_facets", "amount") / lps
                                       if lps else 0.0)
    out["trace.overhead_s"] = (_pass_seconds(result["records"], True)
                               - _pass_seconds(result["records"], False))
    return out


def run_workload(workload, seed, seconds, trace, smoke=False):
    """Generate, time, check; returns (result line, report)."""
    tag = f"{workload}-seed{seed}" + ("-smoke" if smoke else "")
    work = os.path.join(WORK, tag)
    shutil.rmtree(work, ignore_errors=True)
    phase = {"start": perf_counter()}
    manifest = gen.generate(workload, seed, os.path.join(work, "jobs"), smoke=smoke)
    gen.generate(workload, seed, os.path.join(work, "warmup"), smoke=True)

    phase["generate"] = perf_counter()
    env = _child_env()
    setup = _measure_setup(env)
    phase["setup"] = perf_counter()
    result_path = os.path.join(work, "result.json")
    subprocess.run([sys.executable, os.path.join(HERE, "worker.py"),
                    os.path.join(work, "jobs", "manifest.json"),
                    os.path.join(work, "warmup", "manifest.json"),
                    str(seconds), "1" if trace else "0", result_path],
                   env=env, timeout=WORKER_TIMEOUT_S, check=True)
    with open(result_path) as fh:
        result = json.load(fh)
    setup.append(scaled(result["import_s"], result["import_calibration_s"]))
    phase["worker"] = perf_counter()

    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    verdicts, nrmse = _judge(manifest, result, seed)
    phase["check"] = perf_counter()
    jobs = manifest["jobs"]
    records = result["records"]
    failed = [r for r in records if not verdicts[r["job"]][0]]
    failures = {jobs[i]["id"]: reason for i, (ok, reason, _) in verdicts.items() if not ok}
    unexpected = [jobs[i]["id"] for i, (ok, _, known) in verdicts.items()
                  if not ok and not known]

    timed = [r for r in records if not r["traced"]]
    plain = [scaled(r["seconds"], r["calibration_s"]) for r in timed]
    wall = [r["seconds"] for r in timed]
    tail_p = _tail_percentile(MIN_PASSES * len(jobs))
    end_to_end = {
        "setup_s": _median(setup),
        "jobs_per_s": len(plain) / sum(plain),
        "job_s.p50": _percentile(_job_means(timed, plain), 50.0),
        "job_s.tail": _percentile(plain, tail_p),
        "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
    }
    report = {
        "workload": workload, "seed": seed, "trace": int(trace),
        "environment": environment(result["blas_threads"]),
        "passes": result["passes"], "jobs_per_pass": len(jobs),
        "timed_job_seconds": sum(wall),
        "first_pass_ratio": _first_pass_ratio(timed),
        "unscaled": {"jobs_per_s": len(wall) / sum(wall),
                     "job_s.p50": _percentile(_job_means(timed, wall), 50.0),
                     "job_s.tail": _percentile(wall, tail_p),
                     "calibration_s.p50": _median([r["calibration_s"] for r in timed])},
        "tail_percentile": tail_p, "latency_samples": len(plain),
        "setup_samples_s": setup,
        "phase_s": {k: phase[k] - phase[prev] for prev, k in
                    zip(list(phase), list(phase)[1:])},
        "failed_frac": len(failed) / len(records),
        "fit_nrmse": statistics.fmean(nrmse) if nrmse else None,
        "failures": failures, "unexpected_failures": unexpected,
        "known_defects": {j["id"]: j["known_defect"] for j in jobs if "known_defect" in j},
    }
    if trace:
        metrics = _layer_metrics(result)
        metrics["fit.nrmse"] = report["fit_nrmse"] or 0.0
        units = LAYER_UNITS
        report["absent"] = result["absent"]
        report["trace_overhead_s"] = metrics["trace.overhead_s"]
        spans = os.path.splitext(result_path)[0] + "-spans.csv"
        kept = os.path.join(WORK, f"spans-{tag}.csv")
        os.replace(spans, kept)
        report["spans_file"] = kept
    else:
        metrics = end_to_end
        units = E2E_UNITS
    report["end_to_end"] = {**end_to_end, "failed_frac": report["failed_frac"],
                            "fit_nrmse": report["fit_nrmse"]}
    shutil.rmtree(work, ignore_errors=True)
    line = {"correct": not unexpected, "attempted": len(records), "failed": len(failed),
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    return line, report


# ---------------------------------------------------------------------------
# Modes
# ---------------------------------------------------------------------------

E2E_TABLE = (("setup_s", "s"), ("jobs_per_s", "1/s"), ("job_s.p50", "s"),
             ("job_s.tail", "s"), ("failed_frac", "ratio"), ("peak_rss_mb", "MB"),
             ("fit_nrmse", "ratio"))


def _print_table(reports):
    print(f"{'workload':<12} " + " ".join(f"{f'{m} [{u}]':>18}" for m, u in E2E_TABLE))
    for rep in reports:
        cells = []
        for m, _ in E2E_TABLE:
            v = rep["end_to_end"][m]
            cells.append(f"{'n/a' if v is None else f'{v:.6g}':>18}")
        print(f"{rep['workload']:<12} " + " ".join(cells))


def smoke():
    """Every workload at minimal size, both modes; returns a list of problems."""
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    problems = []
    for workload in gen.WORKLOADS:
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            line, report = run_workload(workload, 0, 0.0, trace, smoke=True)
            where = f"{workload} trace={int(trace)}"
            if report["unexpected_failures"]:
                problems.append(f"{where}: unexpected failures "
                                f"{ {j: report['failures'][j] for j in report['unexpected_failures']} }")
            for m in spec[key]:
                got = line["metrics"].get(m["name"])
                if got is None or got["unit"] != m["unit"] or \
                        not isinstance(got["value"], (int, float)):
                    problems.append(f"{where}: metric {m['name']} missing or without "
                                    f"unit {m['unit']}")
            if trace and report["absent"]:
                print(f"{where}: absent targets {report['absent']}", file=sys.stderr)
            print(f"smoke {where}: {line['attempted']} jobs, {line['failed']} failed "
                  f"({', '.join(report['failures']) or 'none'})", file=sys.stderr)
    return problems


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=gen.WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true")
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "pwlkit", "cli.py")):
        print("perfbench: run from the root of a pwlkit checkout (src/pwlkit/cli.py "
              "not found)", file=sys.stderr)
        return 2
    if args.smoke:
        problems = smoke()
        for problem in problems:
            print(f"smoke: {problem}", file=sys.stderr)
        print("smoke: " + ("FAILED" if problems else "ok"))
        return 1 if problems else 0
    if args.workload is None:
        p.error("--workload is required unless --smoke is given")
    if args.workload == "all":
        reports = [run_workload(w, args.seed, args.seconds, bool(args.trace))[1]
                   for w in gen.WORKLOADS]
        _print_table(reports)
        return 0
    line, report = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"report": report}))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
