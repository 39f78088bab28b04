"""Span recording around fwkit's layer entry points.

``Tracing`` rebinds the public functions and methods each layer exposes
(objective ``eval``/``curvature_along``, region ``lmo``, the 1-SVD, the
step, away-vertex and active-set calls the solver loop makes, the min-norm
point and diagnostics entry points, and the set functions of base
polytopes) to wrappers that record one span per call, and puts the
original bindings back on exit.  fwkit's own files are not touched.

A span is (id, name, start, end, parent id, job id, self time, raised);
self time is the span's duration minus the time covered by its children.
Spans are kept in memory in flat arrays and written out once, at the end.
"""

import functools
import itertools
import time

import numpy as np

import fwkit
from fwkit import diagnostics, minnorm, objectives, regions, solvers

OBJECTIVE_CLASSES = (objectives.LeastSquares, objectives.FactoredQuadratic,
                     objectives.Quadratic, objectives.ShiftedNormSquare,
                     objectives.MatrixCompletionLoss, objectives.BlockSeparable)
REGION_CLASSES = (regions.Simplex, regions.L1Ball, regions.L2Ball,
                  regions.LinfBall, regions.Box, regions.NuclearBall,
                  regions.BasePolytope, regions.ProductRegion,
                  regions.VertexHull)
DIAGNOSTIC_CHECKS = ("verify_sublinear_bound", "lower_bound_check",
                     "per_step_guarantees", "min_gap_rate_check")


class Recorder:
    """In-memory span store plus the per-call samples some layers need."""

    COLUMNS = ("id", "name", "start", "end", "parent", "job", "self_ns", "raised")

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self._pending = []          # finished spans of the current job, one tuple each
        self._chunks = []           # int64 tables of earlier jobs
        self._stack = []            # [span id, time covered by children] of open spans
        self._ids = itertools.count()
        self.job = -1
        self.lmo_samples = []       # (region, gradient copy, atom) of the current job
        self.svd_residuals = []     # ||a^T u - sigma v|| of each returned 1-SVD
        self.active_sizes = []      # active-set size entering each apply_step

    def name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def flush(self):
        """Move the current job's spans into the table; call between jobs, outside timing."""
        if self._pending:
            table = np.array(self._pending, dtype=np.int64)
            self._chunks.append(np.insert(table, 5, self.job, axis=1))
            self._pending.clear()

    def arrays(self):
        """Columns as numpy arrays, plus each span's parent name id (-1 at the root)."""
        self.flush()
        table = (np.concatenate(self._chunks) if self._chunks
                 else np.zeros((0, len(self.COLUMNS)), dtype=np.int64))
        self._chunks = [table]  # hold one copy of the spans, not two
        cols = {col: table[:, i] for i, col in enumerate(self.COLUMNS)}
        name_of = np.full(int(cols["id"].max(initial=-1)) + 1, -1, dtype=np.int64)
        name_of[cols["id"]] = cols["name"]
        cols["parent_name"] = np.where(cols["parent"] >= 0,
                                       name_of[np.maximum(cols["parent"], 0)], -1)
        return cols

    def save(self, path, cols):
        """Write the span table (as returned by ``arrays``) compressed to ``path``."""
        np.savez_compressed(path, names=np.array(self.names),
                            **{col: cols[col] for col in self.COLUMNS})


def _wrap(rec, name, fn, before=None, after=None):
    # the span bookkeeping is inlined: it runs on every call of the hot loop
    nid = rec.name_id(name)
    stack = rec._stack
    ids = rec._ids
    store = rec._pending.append
    clock = time.perf_counter_ns

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if before is not None:
            before(args)
        frame = [next(ids), 0]
        stack.append(frame)
        done = False
        start = clock()
        try:
            out = fn(*args, **kwargs)
            done = True
        finally:
            end = clock()
            stack.pop()
            duration = end - start
            parent = -1
            if stack:
                stack[-1][1] += duration
                parent = stack[-1][0]
            store((frame[0], nid, start, end, parent, duration - frame[1], not done))
        if after is not None:
            after(args, out)
        return out

    return wrapper


def bindings(rec, setfn_regions=()):
    """(owner, attribute, span name, before hook, after hook) for every wrapped entry point."""

    def lmo_sample(args, atom):
        rec.lmo_samples.append((args[0], np.array(args[1], dtype=float), atom))

    def svd_residual(args, triple):
        u, sigma, v = triple
        a = np.asarray(args[0], dtype=float)
        rec.svd_residuals.append(float(np.linalg.norm(a.T @ u - sigma * v)))

    def active_size(args):
        rec.active_sizes.append(len(args[0]))

    out = [(fwkit, "solve", "solvers.solve", None, None),
           (solvers, "compute_step", "stepsizes.compute_step", None, None),
           (solvers, "select_away_vertex", "atoms.select_away_vertex", None, None),
           (solvers, "apply_step", "atoms.apply_step", active_size, None),
           (regions, "top_singular_triple", "regions.top_singular_triple", None,
            svd_residual),
           (minnorm, "solve_wolfe_mnp", "minnorm.solve_wolfe_mnp", None, None)]
    out += [(diagnostics, fn, "diagnostics." + fn, None, None) for fn in DIAGNOSTIC_CHECKS]
    for cls in OBJECTIVE_CLASSES:
        out.append((cls, "eval", "objectives.eval", None, None))
        out.append((cls, "curvature_along", "objectives.curvature_along", None, None))
    out += [(cls, "lmo", "regions.lmo", None, lmo_sample) for cls in REGION_CLASSES]
    out += [(region, "oracle", "regions.setfn", None, None) for region in setfn_regions]
    return out


class Tracing:
    """Context manager: wrappers in place on entry, original bindings back on exit."""

    def __init__(self, rec, setfn_regions=()):
        self.rec = rec
        self.setfn_regions = list(setfn_regions)
        self._undo = []

    def __enter__(self):
        try:
            for owner, attr, name, before, after in bindings(self.rec, self.setfn_regions):
                original = getattr(owner, attr)
                self._undo.append((owner, attr, original))
                setattr(owner, attr, _wrap(self.rec, name, original, before, after))
        except BaseException:
            self._restore()
            raise
        return self.rec

    def __exit__(self, *exc):
        self._restore()
        return False

    def _restore(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)
