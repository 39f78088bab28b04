"""fwkit benchmark: time-to-tolerance of seeded solver jobs, and a traced per-layer breakdown.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload lasso-dense --seed 1 --seconds 45 --trace 0
    python3 -m pytest perfbench -q        # tests of the benchmark's own code

Workloads (see ``workloads.py``): ``lasso-dense``, ``small-audit`` and
``matcomp-nuclear``.  One single-threaded process runs one workload as a
closed loop with one caller for ``--seconds`` seconds.  Each job is one
``fwkit.solve`` call, timed from outside, then certified by the
benchmark's own numpy code (``certify.py``) outside the timed call.  A job
fails if it raises, ends with anything but GapTol, fails its certificate
or fails one of its diagnostics checks.

``--trace 0`` reports the end-to-end metrics: job_s.tail (the highest
nearest-rank percentile with at least ten jobs beyond it, a failed job
counting as +inf), jobs_per_s (passed jobs over total job time), setup_s
(median of five set-ups, each building every instance with its L, mu and
D) and peak_rss_mb (rise of the resident high-water mark above its level
after imports).  The text lines also give job_s.p50, the tail's
percentile and job count, and failed_frac; failed_frac is also the
result's failed/attempted.  job_s.p50 is not in the result: lasso-dense
runs two fast and two slow solver configurations per instance, so its
median falls between two clusters and jumps from run to run.

``--trace 1`` runs the closed loop untraced for half the time, then runs
the same job sequence again with span-recording wrappers rebound around
fwkit's layer entry points (``tracing.py``).  It reports the per-layer
metrics (``*_s`` are seconds per traced job, counts are totals over the
traced jobs), checks that every traced job reproduces the untraced
iteration count, termination and final objective bit for bit, and reports
the tracing overhead.  Spans go to ``.bench_out/<workload>.trace.npz``.

BLAS threads are pinned to one before numpy loads.  The last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics; the lines before it are the run's provenance and a
readable table, also written with every job's outcome to
``.bench_out/<workload>-seed<seed>-trace<0|1>.json``.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib.metadata  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import struct  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
if not (SRC / "fwkit" / "__init__.py").is_file():
    sys.exit("perfbench: no fwkit sources under %s" % SRC)
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import certify  # noqa: E402
import fwkit as fw  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from fwkit import diagnostics  # noqa: E402

SETUP_REPEATS = 5


def _rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    return loose.read_text().strip() if loose.is_file() else ref


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(args):
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(), "cpu": _cpu_model(),
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "blas": "%s %s" % (blas.get("name", "?"), blas.get("version", "?")),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "git_commit": _git_commit(),
    }


# diagnostics are looked up at call time, so a traced run sees its wrappers
CHECKS = {
    "sublinear": lambda rep, job: diagnostics.verify_sublinear_bound(rep),
    "lower_bound": lambda rep, job: diagnostics.lower_bound_check(rep, job.instance.region.n),
    "per_step": lambda rep, job: diagnostics.per_step_guarantees(rep),
    "min_gap": lambda rep, job: diagnostics.min_gap_rate_check(rep),
}


def execute(job, index):
    """Solve one job, then certify it outside the timed call; returns (outcome, report)."""
    error = None
    report = None
    t0 = time.perf_counter()
    try:
        report = fw.solve(job.instance, job.config)
    except Exception as exc:  # a raising job is a failed job, not a failed run
        error = type(exc).__name__
    elapsed = time.perf_counter() - t0
    outcome = {"job": index, "name": job.name, "variant": job.config.variant,
               "s": elapsed, "passed": False, "incorrect": False, "checks_failed": 0}
    if report is None:
        outcome.update(termination="raised:" + error, iters=0, f=None)
        return outcome, None
    records = report.records
    outcome.update(termination=report.termination, iters=len(records),
                   steps=sum(r.kind != "stop" for r in records),
                   good=int(report.good_steps), f=struct.pack("<d", records[-1].f).hex())
    if report.termination != "GapTol":
        return outcome, report
    if job.config.variant == "WolfeMNP":
        ok, detail = job.problem.certify(report.x_final, job.config.gap_tol,
                                         report.meta["corral"], report.meta["weights"])
    else:
        ok, detail = job.problem.certify(report.x_final, job.config.gap_tol)
    outcome["certificate"] = detail
    for check in job.checks:
        try:
            check_ok = CHECKS[check](report, job).ok
        except Exception:  # a check that cannot run on this trace has failed
            check_ok = False
        outcome["checks_failed"] += not check_ok
    outcome["incorrect"] = not ok or outcome["checks_failed"] > 0
    outcome["passed"] = not outcome["incorrect"]
    return outcome, report


def closed_loop(jobs, seconds, on_report=None):
    """Run jobs back to back, cycling through the list, until ``seconds`` have passed."""
    outcomes = []
    start = time.perf_counter()
    while not outcomes or time.perf_counter() - start < seconds:
        index = len(outcomes) % len(jobs)
        outcome, report = execute(jobs[index], index)
        if on_report is not None and report is not None:
            on_report(report)
        outcomes.append(outcome)
    return outcomes


def end_to_end(outcomes, setup_s, rss_rise):
    times = [o["s"] if o["passed"] else float("inf") for o in outcomes]
    tail, pct, count = stats.tail(times)
    passed = sum(o["passed"] for o in outcomes)
    metrics = {
        "job_s.tail": (tail, "s"),
        "jobs_per_s": (passed / sum(o["s"] for o in outcomes), "1/s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss_rise, "MB"),
    }
    # reported but not gated: see the module docstring
    extra = {"job_s.p50": (statistics.median(times), "s"),
             "job_s.tail.percentile": (pct, "%"), "job_s.tail.jobs": (count, "count")}
    return metrics, extra


def _drift(report):
    active = report.active_set
    if active is None:
        return 0.0
    rebuilt = sum(w * a.densify() for a, w in zip(active.atoms, active.weights))
    return float(np.linalg.norm(np.ravel(report.x_final - rebuilt)))


def _reference(workload, region):
    ref = workload.references.get(id(region))
    if ref is None and isinstance(region, fw.Simplex):
        ref = certify.Simplex()  # blocks of a product, and EFW's inner simplices
    return ref


def traced_phase(wl, sequence, rec):
    """Run the job ``sequence`` again under tracing; returns outcomes and layer samples."""
    samples = {"lmo_rel_error": [0.0], "drift": [0.0], "drops": 0}
    outcomes = []
    with tracing.Tracing(rec, wl.setfn_regions):
        for pos, index in enumerate(sequence):
            rec.job = pos
            outcome, report = execute(wl.jobs[index], index)
            rec.flush()
            outcomes.append(outcome)
            for region, g, atom in rec.lmo_samples:
                ref = _reference(wl, region)
                if ref is None:
                    continue
                best = ref.value(g)
                got = float(np.vdot(g, atom.densify()))
                samples["lmo_rel_error"].append(abs(got - best) / max(abs(best), 1e-300))
            rec.lmo_samples.clear()
            if report is not None:
                samples["drift"].append(_drift(report))
                samples["drops"] += sum(r.kind == "Drop" for r in report.records)
    return outcomes, samples


def per_layer(rec, cols, untraced, traced, samples, iter_ns):
    ids = {name: i for i, name in enumerate(rec.names)}

    def spans(name):
        """Outermost calls of ``name``: nested calls (a product's block LMOs) are not counted."""
        nid = ids.get(name, -2)
        return (cols["name"] == nid) & (cols["parent_name"] != nid)

    def per_job_s(mask, col=None):
        """Seconds per traced job: total span time, or self time, over the job count."""
        if col == "self":
            ns = cols["self_ns"][mask].sum()
        else:
            ns = (cols["end"][mask] - cols["start"][mask]).sum()
        return float(ns) / 1e9 / len(traced)

    def children_of(child, parent):
        return spans(child) & (cols["parent_name"] == ids.get(parent, -2))

    iters = sum(o["iters"] for o in traced)
    per_iter = max(iters, 1)
    evals = spans("objectives.eval")
    steps = spans("stepsizes.compute_step")
    lmos = spans("regions.lmo")
    lmo_ms = (cols["end"][lmos] - cols["start"][lmos]) / 1e6
    setfn = children_of("regions.setfn", "regions.lmo")
    setfn_lmos = len(np.unique(cols["parent"][setfn]))
    diag = np.zeros_like(evals)
    for check in tracing.DIAGNOSTIC_CHECKS:
        diag |= spans("diagnostics." + check)
    untraced_s = sum(o["s"] for o in untraced)
    mismatched = sum((a["iters"], a["f"], a["termination"]) != (b["iters"], b["f"],
                                                                 b["termination"])
                     for a, b in zip(untraced, traced))
    metrics = {
        "objectives.eval_per_iter": (int(evals.sum()) / per_iter, "1"),
        "objectives.eval_s": (per_job_s(evals), "s"),
        "objectives.curvature_per_iter": (
            int(spans("objectives.curvature_along").sum()) / per_iter, "1"),
        "stepsizes.calls": (int(steps.sum()), "count"),
        "stepsizes.self_s": (per_job_s(steps, "self"), "s"),
        "stepsizes.evals_per_step": (
            int(children_of("objectives.eval", "stepsizes.compute_step").sum())
            / max(int(steps.sum()), 1), "1"),
        "regions.lmo_per_iter": (int(lmos.sum()) / per_iter, "1"),
        "regions.lmo_s": (per_job_s(lmos), "s"),
        "regions.lmo_ms.p50": (float(np.median(lmo_ms)) if lmo_ms.size else 0.0, "ms"),
        "regions.lmo_raised": (int(cols["raised"][lmos].sum()), "count"),
        "regions.lmo_rel_error.max": (max(samples["lmo_rel_error"]), "1"),
        "regions.lmo_residual.max": (max(rec.svd_residuals, default=0.0), "1"),
        "regions.setfn_evals_per_lmo": (int(setfn.sum()) / max(setfn_lmos, 1), "1"),
        "atoms.select_away_s": (per_job_s(spans("atoms.select_away_vertex")), "s"),
        "atoms.apply_step_s": (per_job_s(spans("atoms.apply_step")), "s"),
        "atoms.active_size.mean": (float(np.mean(rec.active_sizes or [0])), "count"),
        "atoms.drop_steps": (samples["drops"], "count"),
        "atoms.drift.max": (max(samples["drift"]), "1"),
        "solvers.iters": (iters, "count"),
        "solvers.iter_us.p50": (float(np.median(iter_ns)) / 1e3 if len(iter_ns) else 0.0,
                                "us"),
        "solvers.self_s": (per_job_s(spans("solvers.solve"), "self"), "s"),
        "solvers.good_step_frac": (sum(o.get("good", 0) for o in traced)
                                   / max(sum(o.get("steps", 0) for o in traced), 1), "1"),
    }
    for cause in ("GapTol", "MaxIter", "NumericalError", "raised"):
        count = sum(o["termination"].split(":")[0] == cause for o in traced)
        metrics["solvers.termination." + cause] = (count, "count")
    metrics.update({
        "minnorm.s": (per_job_s(spans("minnorm.solve_wolfe_mnp")), "s"),
        "minnorm.major_cycles": (sum(o.get("steps", 0) for o in traced
                                     if o["variant"] == "WolfeMNP"), "count"),
        "diagnostics.s": (per_job_s(diag), "s"),
        "diagnostics.failed": (sum(o["checks_failed"] for o in traced), "count"),
        "trace.overhead_frac": (sum(o["s"] for o in traced) / untraced_s - 1.0, "1"),
        "trace.mismatched_jobs": (mismatched, "count"),
        "trace.jobs": (len(traced), "count"),
    })
    return metrics


def print_table(metrics):
    for name, (value, unit) in metrics.items():
        print("%-34s %14.6g %s" % (name, value, unit))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    rss_base = _rss_mb()
    setup_times = []
    for _ in range(SETUP_REPEATS):
        workload = None  # release the previous set before building the next
        gc.collect()
        t0 = time.perf_counter()
        workload = workloads.build(args.workload, args.seed)
        setup_times.append(time.perf_counter() - t0)
    meta = provenance(args)
    print("# provenance " + json.dumps(meta))
    OUT.mkdir(exist_ok=True)
    gc.collect()

    if args.trace == 0:
        outcomes = closed_loop(workload.jobs, args.seconds)
        metrics, extra = end_to_end(outcomes, statistics.median(setup_times),
                                    _rss_mb() - rss_base)
        correct = True
    else:
        iter_ns = []

        def keep_iter_times(report):
            stamps = np.array([r.elapsed_ns for r in report.records], dtype=np.int64)
            iter_ns.extend(np.diff(stamps).tolist())

        untraced = closed_loop(workload.jobs, args.seconds / 2.0, keep_iter_times)
        rec = tracing.Recorder()
        traced, samples = traced_phase(workload, [o["job"] for o in untraced], rec)
        cols = rec.arrays()
        metrics = per_layer(rec, cols, untraced, traced, samples, iter_ns)
        extra = {}
        outcomes = untraced + traced
        correct = metrics["trace.mismatched_jobs"][0] == 0
        rec.save(OUT / ("%s.trace.npz" % args.workload), cols)
    correct = correct and not any(o["incorrect"] for o in outcomes)
    failed = sum(not o["passed"] for o in outcomes)
    extra["failed_frac"] = (failed / len(outcomes), "1")
    print_table({**metrics, **extra})
    record = {"provenance": meta, "setup_s": setup_times, "metrics": {**metrics, **extra},
              "jobs": outcomes}
    name = "%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace)
    (OUT / name).write_text(json.dumps(record, indent=1))
    result = {"correct": bool(correct), "attempted": len(outcomes), "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
