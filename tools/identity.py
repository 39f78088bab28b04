"""Parent-versus-change identity check: one fixed solve matrix in two trees, compared bit for bit.

Usage, from the root of the repository:

    python tools/identity.py --parent <rev> [--skip FIELD ...]

``<rev>`` is checked out into a temporary ``git worktree`` of this
repository (no network), and the working tree is the change.  A subprocess
per tree runs the same matrix with that tree's ``fwkit`` and BLAS pinned to
one thread: every job of the benchmark's ``small-audit`` and ``lasso-dense``
workloads (``perfbench/workloads.py`` of the working tree) for seeds 1 and
2, which covers FW, AFW, PFW, EFW, FDFW, BCFW and WolfeMNP, and the small
``fixed_jobs`` matrix of regions and starts those workloads never run
(keyed as workload ``fixed``).

Per solve it compares the instance's L, mu and D as ``float.hex()``, the
refusal's error class, the record count, every public record attribute
(``record_attributes``) but the wall time as float bits (kinds, ``good``
and supports as values, read through the attribute), the termination,
``good_steps``, the bytes of ``x_final``, the returned active set (each
atom's class and public fields, and the weights, as bits) and every meta
entry.  It prints the first differing field of each solve that differs,
then a count per variant and, where solves differ, how many of them changed
their termination and the largest |f_final change| / |f_0| among them (f_0
and f_final the parent's first and both trees' last record f), and exits 1
on any difference in a field that ``--skip`` does not name.  A field is a
record field (``f``, ``kind``, ...), ``records`` (the count),
``termination``, ``good_steps``, ``x_final``, ``active_set``, ``error``,
``L``, ``mu``, ``D`` or ``meta.<key>``; ``--skip meta`` skips every meta
entry.
"""

import argparse
import collections
import hashlib
import inspect
import os
import pickle
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
MATRIX = (("small-audit", 1), ("small-audit", 2), ("lasso-dense", 1), ("lasso-dense", 2))
_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def _digest(data):
    return hashlib.blake2b(data, digest_size=16).hexdigest()


def canon(value):
    """A comparable, picklable stand-in for ``value``: floats by their hex, arrays by their bytes."""
    if value is None or isinstance(value, (bool, str)):
        return value
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value).hex()
    if isinstance(value, np.ndarray):
        return ("array", value.dtype.str, value.shape, _digest(np.ascontiguousarray(value).tobytes()))
    if isinstance(value, (frozenset, set)):
        return ("set",) + tuple(sorted(canon(v) for v in value))
    if isinstance(value, (list, tuple)):
        return tuple(canon(v) for v in value)
    if isinstance(value, dict):
        return ("dict",) + tuple(sorted((str(k), canon(v)) for k, v in value.items()))
    return ("object", type(value).__name__)


def record_attributes(record):
    """The public attributes a record is read by, slots and properties alike: a value a
    record keeps in a private slot (a support held as its mask) compares by what its
    public attribute gives."""
    cls = type(record)
    return sorted(name for name in dir(cls)
                  if not name.startswith("_") and inspect.isdatadescriptor(getattr(cls, name)))


def active_set_summary(active):
    """An active set (or None) as the class and public slots of each atom, as bits, and the
    bits of its weights."""
    if active is None:
        return None
    atoms = tuple((type(atom).__name__,) + tuple(
        (name, canon(getattr(atom, name))) for cls in type(atom).__mro__
        for name in getattr(cls, "__slots__", ()) if not name.startswith("_"))
        for atom in active.atoms)
    return atoms, canon(np.array(active.weights, dtype=float))


def summarise(instance, report=None, error=None):
    """One solve's comparable summary: its instance constants and its report, or its refusal."""
    out = {"L": canon(instance.L), "mu": canon(instance.mu), "D": canon(instance.D),
           "error": None if error is None else type(error).__name__}
    if report is None:
        return out
    records = report.records
    for name in record_attributes(records[0]) if records else ():
        if name == "elapsed_ns":
            continue
        col = [getattr(r, name) for r in records]
        if isinstance(col[0], float):
            out[name] = np.array(col, dtype=float).view(np.uint64)
        else:
            unique = {id(v): v for v in col}  # records share support sets: reduce each once
            reduced = {key: canon(v) for key, v in unique.items()}
            out[name] = [reduced[id(v)] for v in col]
    out.update(records=len(records), termination=report.termination,
               good_steps=int(report.good_steps), x_final=canon(report.meta.get("x_final")),
               active_set=active_set_summary(report.active_set))
    out.update(("meta." + k, canon(v)) for k, v in report.meta.items() if k != "x_final")
    return out


_CAUSES = ("error", "L", "mu", "D")


def differences(a, b, skip=()):
    """(field, detail) where two summaries differ, the first difference first.

    The refusal and the constants come first, as they explain the rest;
    then the record field that differs earliest; then the other fields.
    """
    found = []
    for name in set(a) | set(b):
        if name in skip or name.split(".")[0] in skip:
            continue
        x, y = a.get(name), b.get(name)
        if isinstance(x, (np.ndarray, list)) or isinstance(y, (np.ndarray, list)):
            x = [] if x is None else list(x)
            y = [] if y is None else list(y)
            at = next((i for i, (u, v) in enumerate(zip(x, y)) if u != v), None)
            if at is None and len(x) == len(y):
                continue
            at = min(len(x), len(y)) if at is None else at
            found.append(((1, at, name), name, "record %d" % at))
        elif x != y:
            rank = (0, _CAUSES.index(name), name) if name in _CAUSES else (2, 0, name)
            found.append((rank, name, "%r != %r" % (x, y)))
    return [(name, detail) for _, name, detail in sorted(found)]


def fixed_jobs():
    """[(job name, instance, config, initial active set or None)]: solves outside the benchmark.

    FDFW on a box; AFW and PFW on a box, an l-inf ball, a vertex hull and a
    product of simplices; EFW from a given active set; FW + exact on a small
    matrix completion (rank-one atoms) and AFW on a max-clique program.  The
    box and the ball hold a 10 x 6 least squares, evaluated at every
    iterate; AFW + exact on a 64 x 64 least squares over a box tracks A x
    and the gradient on dense atoms (a design of ``_TRACK_GRADIENT_MIN``
    entries).
    """
    import fwkit as fw

    rng = np.random.default_rng(19)
    n = 6
    lsq = fw.LeastSquares(rng.standard_normal((10, n)), 2.0 * rng.standard_normal(10))
    box = fw.Box(-rng.uniform(0.2, 1.0, n), rng.uniform(0.2, 1.0, n))
    hull = fw.VertexHull(rng.standard_normal((12, 3)) + 0.5)
    regions = {"box": fw.ProblemInstance(lsq, box, lsq.lipschitz_upper(), 0.0, box.diameter()),
               "linf": fw.ProblemInstance(lsq, fw.LinfBall(0.5, n), lsq.lipschitz_upper(), 0.0,
                                          fw.LinfBall(0.5, n).diameter()),
               "hull": fw.build_instance("min_norm_point", points=hull.points),
               "product": fw.build_instance("product", b=3, n=4)}

    def config(variant, rule, seed=0):
        return fw.SolverConfig(variant=variant, stepsize=rule, max_iter=1500, gap_tol=1e-10,
                               seed=seed)

    jobs = [("box/FDFW+exact", regions["box"], config("FDFW", fw.ExactLine()), None),
            ("box/FDFW+armijo", regions["box"], config("FDFW", fw.Armijo(), 1), None)]
    for name, inst in regions.items():
        jobs += [("%s/AFW+exact" % name, inst, config("AFW", fw.ExactLine()), None),
                 ("%s/PFW+armijo" % name, inst, config("PFW", fw.Armijo(), 1), None)]
    interior = fw.build_instance("interior_quadratic", n=8, seed=3)
    start = fw.ActiveSet([fw.SignedUnitAtom(i, 1, 1.0, 8) for i in (1, 4, 6)],
                         np.array([0.5, 0.3, 0.2]))
    jobs.append(("interior/EFW+exact from 3 atoms", interior, config("EFW", fw.ExactLine()),
                 start))
    matcomp = fw.build_instance("matcomp", m=6, n=5, seed=4)
    clique = fw.build_instance("max_clique", n=12, edges=[
        (u, v, 1.0) for u in range(12) for v in range(u + 1, 12) if rng.random() < 0.5])
    jobs += [("matcomp/FW+exact", matcomp, fw.SolverConfig("FW", fw.ExactLine(), max_iter=200,
                                                           gap_tol=1e-8), None),
             ("max_clique/AFW+armijo", clique, config("AFW", fw.Armijo(), 1), None)]
    lsq64 = fw.LeastSquares(rng.standard_normal((64, 64)), 4.0 * rng.standard_normal(64))
    box64 = fw.ProblemInstance(lsq64, fw.Box(-np.ones(64), np.ones(64)))
    jobs.append(("box64/AFW+exact", box64, config("AFW", fw.ExactLine()), None))
    return jobs


def _summary(instance, config, initial_active=None):
    import fwkit as fw

    try:
        report = fw.solve(instance, config, initial_active=initial_active)
    except Exception as exc:  # a refusal compares by its class
        return summarise(instance, error=exc)
    return summarise(instance, report)


def run_matrix(matrix=MATRIX):
    """{(workload, seed, job index, job name, variant): summary} for every job of the matrix
    and of ``fixed_jobs``."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    out = {}
    for name, seed in matrix:
        for i, job in enumerate(workloads.build(name, seed).jobs):
            out[(name, seed, i, job.name, job.config.variant)] = _summary(job.instance,
                                                                          job.config)
    for i, (name, inst, config, start) in enumerate(fixed_jobs()):
        out[("fixed", 0, i, name, config.variant)] = _summary(inst, config, start)
    return out


def _emit(tree, out_path):
    env = dict(os.environ, PYTHONPATH=str(Path(tree) / "src"))
    env.update((var, "1") for var in _THREADS)
    return subprocess.Popen([sys.executable, __file__, "--emit", str(out_path),
                             "--src", str(Path(tree) / "src")], env=env)


def _final_f_move(parent, change):
    """|f_final change| / |f_0| between two summaries with records (|f_0| taken as 1 where
    f_0 is 0)."""
    f_parent, f_change = (np.asarray(s["f"], dtype=np.uint64).view(np.float64)
                          for s in (parent, change))
    return abs(float(f_change[-1]) - float(f_parent[-1])) / (abs(float(f_parent[0])) or 1.0)


def compare(parent, change, skip=()):
    """Print the first differing field per solve, a count per variant and, where solves
    differ, their termination changes and largest final f move; the number differing."""
    counts = collections.Counter()
    differing = collections.Counter()
    in_both = []  # the differing solves that both trees ran
    for key in sorted(set(parent) | set(change), key=lambda k: (k[0], k[1], k[2])):
        counts[key[4]] += 1
        if key not in parent or key not in change:
            diffs = [("solve", "only in the %s" % ("change" if key in change else "parent"))]
        else:
            diffs = differences(parent[key], change[key], skip)
        if diffs:
            differing[key[4]] += 1
            if key in parent and key in change:
                in_both.append(key)
            print("%s seed %d job %d %s: %s (%s), %d field(s) differ"
                  % (key[0], key[1], key[2], key[3], diffs[0][0], diffs[0][1], len(diffs)))
    for variant in sorted(counts):
        print("%-9s %d of %d solves differ" % (variant, differing[variant], counts[variant]))
    total = sum(differing.values())
    if total:
        ended = sum(parent[key].get("termination") != change[key].get("termination")
                    for key in in_both)
        moves = [_final_f_move(parent[key], change[key]) for key in in_both
                 if len(parent[key].get("f", ())) and len(change[key].get("f", ()))]
        print("termination changed in %d of %d differing solves" % (ended, total))
        print("largest |f_final change| / |f_0| among them: %.3g" % max(moves, default=0.0))
    return total


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", help="revision to compare the working tree against")
    parser.add_argument("--skip", action="append", default=[], help="field left uncompared")
    parser.add_argument("--emit", help=argparse.SUPPRESS)
    parser.add_argument("--src", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.emit:
        import fwkit

        if Path(fwkit.__file__).resolve().parent.parent != Path(args.src).resolve():
            sys.exit("fwkit came from %s, not from %s" % (fwkit.__file__, args.src))
        with open(args.emit, "wb") as fh:
            pickle.dump(run_matrix(), fh)
        return 0
    if not args.parent:
        parser.error("--parent is required")
    with tempfile.TemporaryDirectory(prefix="fwkit-identity-") as tmp:
        tree = Path(tmp) / "parent"
        subprocess.run(["git", "-C", str(ROOT), "worktree", "add", "--detach", "--quiet",
                        str(tree), args.parent], check=True)
        try:
            procs = [_emit(tree, Path(tmp) / "parent.pkl"), _emit(ROOT, Path(tmp) / "change.pkl")]
            if [p.wait() for p in procs] != [0, 0]:
                sys.exit("a solve matrix did not finish")
        finally:
            subprocess.run(["git", "-C", str(ROOT), "worktree", "remove", "--force", str(tree)],
                           check=False)
        summaries = [pickle.load(open(Path(tmp) / name, "rb"))
                     for name in ("parent.pkl", "change.pkl")]
    return 1 if compare(*summaries, skip=set(args.skip)) else 0


if __name__ == "__main__":
    sys.exit(main())
