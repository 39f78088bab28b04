"""Frank-Wolfe solver family.

One driver per variant: classic FW, away-step (AFW), pairwise (PFW),
in-face (FDFW), fully corrective (EFW), block coordinate (BCFW), and
Wolfe's min-norm-point method (see ``minnorm``).  EFW's correction and the
min-norm point share Wolfe's corral method: both minimize a quadratic over
the hull of a few atoms with ``minnorm``'s minor cycle.  Every run produces a
``SolveReport`` with a per-iteration trace: objective, FW gap, step kind
and size, support size, and good-step classification.

A record at index k describes the state x_k plus the step taken from it;
the final record marks the stopping state with kind "stop" and alpha 0.
The initial point is always the oracle's vertex at a seeded random
gradient, so sparsity bounds hold from the start.
"""

import copy
import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import regions as rg
from .atoms import ActiveSet, StepDescriptor, apply_step, atoms_equal, \
    away_step_cap, reconstruct_point, select_away_vertex
from .errors import CapabilityError, InputError, NumericalError
from .objectives import BlockSeparable, FactoredQuadratic, LeastSquares
from .stepsizes import BlockDiminishing, Diminishing, compute_step

_POLYTOPAL = (rg.Simplex, rg.L1Ball, rg.Box, rg.LinfBall, rg.BasePolytope,
              rg.VertexHull)


# steps between recomputations of a tracked image A x from x (see _AffineImage)
_RESYNC_EVERY = 64
# entries of A from which _AffineImage tracks the gradient too (see there).
# Tracked over evaluated run time, median of paired runs on a 2-vCPU Xeon VM
# (4 MiB L2, BLAS on one thread): 1.03-1.05 on AFW/PFW at 900 entries
# (n = 30 simplex quadratics), 0.96-1.02 at 4800 and 0.89-1.08 from 1e4 to
# 1e5 on lasso FW/AFW/PFW (A in cache, an A^T r pass ~20 us), and 0.47 (FW),
# 0.74 (AFW), 0.96 (PFW) at 4e5 (lasso 200x2000), where A leaves the cache.
_TRACK_GRADIENT_MIN = 4096


def _is_polytopal(region):
    if isinstance(region, _POLYTOPAL):
        return True
    if isinstance(region, rg.ProductRegion):
        return all(_is_polytopal(b) for b in region.blocks)
    return False


@dataclass
class SolverConfig:
    variant: str = "FW"
    stepsize: object = None
    max_iter: int = 1000
    gap_tol: float = 1e-8
    seed: int = 0
    efw_inner_tol: float = 1e-10
    record_every: int = 1
    store_points: bool = False

    def __post_init__(self):
        if self.max_iter < 1:
            raise InputError("max_iter must be >= 1")
        if not self.gap_tol > 0:
            raise InputError("gap_tol must be positive")
        if self.record_every < 1:
            raise InputError("record_every must be >= 1")
        if self.stepsize is None:
            self.stepsize = Diminishing()


@dataclass
class IterationRecord:
    k: int
    kind: str
    alpha: float
    f: float
    gap: float
    support_size: int
    elapsed_ns: int
    dg: float = 0.0        # <grad, direction> of the step taken at k
    dnorm: float = 0.0     # ||direction||
    alpha_max: float = 0.0
    good: bool = False
    support: object = None  # frozenset of coordinates, when cheap to store
    x: object = None        # iterate copy, only when store_points is set


@dataclass
class SolveReport:
    records: list
    active_set: object
    termination: str
    good_steps: int
    meta: dict = field(default_factory=dict)

    @property
    def x_final(self):
        return self.meta.get("x_final")

    def primal_gaps(self):
        """h_k = f(x_k) - f* for every record; needs f_star in meta."""
        f_star = self.meta.get("f_star")
        if f_star is None:
            raise InputError("report has no f_star")
        return np.array([r.f - f_star for r in self.records])


_SUPPORT_TOL = 1e-12
_SUPPORT_MAX = 4096  # records of larger or non-vector iterates hold no support


def _support_set(x, tol=_SUPPORT_TOL):
    """{i : |x_i| > tol} as a frozenset: a record's support, built afresh."""
    if x.ndim != 1 or x.size > _SUPPORT_MAX:
        return None
    return frozenset(np.flatnonzero(np.abs(x) > tol).tolist())


def _norm(d):
    """||d||: the sqrt(d . d) that ``np.linalg.norm`` takes of a real array, bit for bit."""
    v = d.ravel()
    return math.sqrt(v.dot(v))


class _Tracer:
    """Collects records and termination bookkeeping for one run.

    A record's support is ``_support_set`` of its iterate.  Most steps keep
    the support of the step before, so the tracer keeps the last support
    mask: while a new mask has the same bytes, the record shares the last
    record's frozenset, and one is built only when the support moves.
    """

    def __init__(self, config):
        self.config = config
        self.records = []
        self.good_steps = 0
        self.t0 = time.perf_counter_ns()
        self._mask = None  # bytes of the last support mask |x| > tol
        self._support = None  # the frozenset built from that mask

    def _support_of(self, x):
        if x.ndim != 1 or x.size > _SUPPORT_MAX:
            return None
        mask = np.abs(x) > _SUPPORT_TOL
        key = mask.tobytes()
        if key != self._mask:
            self._mask = key
            self._support = frozenset(np.flatnonzero(mask).tolist())
        return self._support

    def make(self, k, f, gap, support_size, x, support=None):
        return IterationRecord(
            k=k, kind="stop", alpha=0.0, f=float(f), gap=float(gap),
            support_size=int(support_size),
            elapsed_ns=time.perf_counter_ns() - self.t0,
            support=support if support is not None else self._support_of(x),
            x=x.copy() if self.config.store_points else None)

    def push(self, rec, terminal=False):
        if terminal or rec.k % self.config.record_every == 0:
            self.records.append(rec)

    def mark_step(self, rec, kind, alpha, dg, dnorm, alpha_max):
        rec.kind = kind
        rec.alpha = float(alpha)
        rec.dg = float(dg)
        rec.dnorm = float(dnorm)
        rec.alpha_max = float(alpha_max)
        if kind == "FW":
            rec.good = alpha >= 1.0 or alpha < alpha_max
        elif kind in ("FullCorrective",) or kind.startswith("Block"):
            rec.good = True
        else:
            rec.good = alpha < alpha_max
        if rec.good:
            self.good_steps += 1


class _AffineImage:
    """The image A x of the iterate, and its gradient, kept beside x for f seen through A.

    A step moves A x by the image of its direction, built from atom images: a
    signed-unit atom's image is a scaled column of A, so those steps cost
    O(m).  f is quadratic, so its gradient is affine in x and moves with the
    gradients at the atoms a step runs between:

        FW        g' = (1 - alpha) g + alpha grad(s)     (alpha = 1: grad(s))
        Away      g' = (1 + alpha) g - alpha grad(v)
        Pairwise  g' = g + alpha (grad(s) - grad(v))

    Each atom's gradient costs one A^T r pass (an ``eval`` at the atom, on its
    image), made once per solve and cached with the image; the value comes
    from A x in O(m) (``value``).  The cache lives as long as this object,
    which the solve owns.  On a small A an A^T r pass is cheaper than the
    cache's bookkeeping, so below ``_TRACK_GRADIENT_MIN`` entries only A x is
    tracked and every iteration evaluates the gradient.

    Rounding drift is bounded by recomputing A x (and g) from x every
    ``_RESYNC_EVERY`` steps; ``drift_max`` and ``grad_drift_max`` are the
    largest ||A x (tracked) - A x|| and ||g (tracked) - g|| seen at a re-sync.
    Given the solve's active set, a re-sync also measures how far x has
    drifted from the point the set represents: ``active_drift_max`` is the
    largest ||x - reconstruct_point(active)||.
    ``grad_passes`` counts the full gradient passes: the evaluations at
    iterates (the first, re-syncs, and every iteration when g is not
    tracked) and at atoms.
    """

    def __init__(self, obj, x, track=None, active=None):
        self.obj = obj
        self.a = obj.a
        self.ax = self.a @ x
        self.track = self.a.size >= _TRACK_GRADIENT_MIN if track is None else track
        self.active = active
        self.g = None  # tracked gradient at x; None until first evaluated
        self._atoms = {}  # atom key -> [atom, image, gradient or None]
        self._ends = None, None  # entries of the step ``direction`` priced last
        self.steps = 0  # steps since A x was last computed from x
        self.resyncs = 0
        self.drift_max = 0.0
        self.grad_drift_max = 0.0
        self.active_drift_max = 0.0
        self.grad_passes = 0

    def _eval(self, x, ax):
        self.grad_passes += 1
        return self.obj.eval(x, ax=ax)

    def value_and_grad(self, x):
        """(f, g) at x: from the tracked state when g is tracked, else one evaluation."""
        if self.g is None:
            f, g = self._eval(x, self.ax)
            if self.track:
                self.g = g
            return f, g
        return self.obj.value(x, self.ax), self.g

    def _image(self, atom):
        if atom.tag == "signed_unit":
            return (atom.sign * atom.scale) * self.a[:, atom.index]
        return self.a @ atom.densify()

    def _entry(self, atom):
        """[atom, image, gradient or None]; cached when g is tracked."""
        if not self.track:
            return [atom, self._image(atom), None]
        key = atom._key()
        entry = self._atoms.get(key)
        if entry is None or not atoms_equal(entry[0], atom):
            entry = self._atoms[key] = [atom, self._image(atom), None]
        return entry

    def _grad(self, entry):
        """The gradient of f at an entry's atom, from its image; once per atom and solve."""
        if entry[2] is None:
            entry[2] = self._eval(entry[0].densify(), entry[1])[1]
        return entry[2]

    def direction(self, kind, s_atom, v_atom):
        """A d for a step of ``kind``: d runs from x or v (the away atom) to s or x."""
        s = None if kind == "Away" else self._entry(s_atom)
        v = None if kind == "FW" else self._entry(v_atom)
        self._ends = s, v
        return (self.ax if s is None else s[1]) - (self.ax if v is None else v[1])

    def move(self, kind, alpha, ad, x):
        """Follow the step last priced by ``direction``, of size alpha, to x.

        A x and g move in place, with the elementwise operations (and so
        the bits) of ``ax + alpha ad`` and the formulas above; they are this
        object's own arrays, never cached ones.
        """
        s, v = self._ends
        if kind == "FW" and alpha >= 1.0:
            self.ax = s[1].copy()
            if self.g is not None:
                self.g = self._grad(s).copy()
        else:
            self.ax += alpha * ad
            g = self.g
            if g is not None:
                if kind == "FW":
                    g *= 1.0 - alpha
                    g += alpha * self._grad(s)
                elif kind == "Away":
                    g *= 1.0 + alpha
                    g -= alpha * self._grad(v)
                else:
                    g += alpha * (self._grad(s) - self._grad(v))
        self.steps += 1
        if self.steps >= _RESYNC_EVERY:
            self.resync(x)

    def resync(self, x):
        exact = self.a @ x
        self.drift_max = max(self.drift_max, _norm(self.ax - exact))
        self.ax = exact
        if self.g is not None:
            g = self._eval(x, exact)[1]
            self.grad_drift_max = max(self.grad_drift_max, _norm(self.g - g))
            self.g = g
        if self.active is not None:
            self.active_drift_max = max(self.active_drift_max,
                                        _norm(x - reconstruct_point(self.active)))
        self.steps = 0
        self.resyncs += 1


def _base_meta(instance, config):
    return {
        "family": instance.family,
        "f_star": instance.f_star,
        "L": instance.L,
        "mu": instance.mu,
        "D": instance.D,
        "variant": config.variant,
        "stepsize": config.stepsize.name,
        "seed": config.seed,
        "gap_tol": config.gap_tol,
        "max_iter": config.max_iter,
        **instance.meta,
    }


def _initial_atom(region, rng):
    g0 = rng.standard_normal(region.shape)
    return region.lmo(g0)


def solve(instance, config, inexact=None, initial_active=None):
    """Run the solver selected by ``config.variant`` on a problem instance."""
    variant = config.variant
    if variant in ("FW", "AFW", "PFW"):
        return _run_atomic(instance, config, away=variant != "FW", pairwise=variant == "PFW",
                           inexact=inexact, initial_active=initial_active)
    if variant == "FDFW":
        return solve_fdfw(instance, config)
    if variant == "EFW":
        return solve_efw(instance, config, initial_active=initial_active)
    if variant == "BCFW":
        return solve_bcfw(instance, config)
    if variant == "WolfeMNP":
        from .minnorm import solve_wolfe_mnp

        if not isinstance(instance.region, rg.VertexHull):
            raise CapabilityError("WolfeMNP needs an explicit vertex list")
        return solve_wolfe_mnp(instance.region.points, config)
    raise InputError("unknown solver variant %r" % variant)


def _run_atomic(instance, config, away, pairwise, inexact=None, initial_active=None):
    """Shared driver for FW / AFW / PFW over an atom-tracking active set."""
    obj, region = instance.objective, instance.region
    if away and not _is_polytopal(region):
        raise CapabilityError("away/pairwise variants need a polytopal region")
    rule = copy.deepcopy(config.stepsize)
    rng = np.random.default_rng(config.seed)
    if initial_active is not None:
        active = initial_active.copy()
        x = reconstruct_point(active)
    else:
        atom = _initial_atom(region, rng)
        active = ActiveSet.from_atom(atom)
        x = atom.densify().copy()
    image = _AffineImage(obj, x, active=active) \
        if isinstance(obj, (LeastSquares, FactoredQuadratic)) else None
    tracer = _Tracer(config)
    termination = "MaxIter"
    k = 0
    evals = 0  # gradient passes when there is no image to count them
    try:
        while True:
            if image is None:
                f, g = obj.eval(x)
                evals += 1
            else:
                f, g = image.value_and_grad(x)
            if inexact is not None:
                exact_atom, s_atom = inexact.query(g, x)
            else:
                exact_atom = s_atom = region.lmo(g)
            s = exact_atom.densify()
            gap = float(np.vdot(g, x) - np.vdot(g, s))
            rec = tracer.make(k, f, gap, len(active), x)
            if gap <= config.gap_tol:
                if image is not None and image.steps:
                    image.resync(x)  # GapTol only on a gap from an exact A x and g
                    continue
                termination = "GapTol"
                tracer.push(rec, terminal=True)
                break
            if k >= config.max_iter:
                termination = "MaxIter"
                tracer.push(rec, terminal=True)
                break
            if s_atom is not exact_atom:
                s_used = s_atom.densify()
            else:
                s_used = s
            d_fw = s_used - x
            dg_fw = float(np.vdot(g, d_fw))
            kind = "FW"
            if away:
                v_atom, w_v, _ = select_away_vertex(active, g)
                d_aw = x - v_atom.densify()
                dg_aw = float(np.vdot(g, d_aw))
                if pairwise:
                    kind = "Pairwise"
                    d = s_used - v_atom.densify()
                    dg = float(np.vdot(g, d))
                    alpha_max = float(w_v)
                    step = StepDescriptor("Pairwise", toward=s_atom, away=v_atom)
                elif -dg_aw > -dg_fw and w_v < 1.0:
                    kind = "Away"
                    d = d_aw
                    dg = dg_aw
                    alpha_max = away_step_cap(w_v)
                    step = StepDescriptor("Away", away=v_atom)
                else:
                    d = d_fw
                    dg = dg_fw
                    alpha_max = 1.0
                    step = StepDescriptor("FW", toward=s_atom)
            else:
                d = d_fw
                dg = dg_fw
                alpha_max = 1.0
                step = StepDescriptor("FW", toward=s_atom)
            if not d.any() or (inexact is not None and dg >= 0.0):
                if inexact is not None:
                    # the degraded oracle may stall an iteration; the error
                    # budget shrinks with k, so progress resumes on its own
                    rec.kind = kind
                    rec.dg = float(dg)
                    rec.dnorm = _norm(d)
                    rec.alpha_max = float(alpha_max)
                    tracer.push(rec)
                    k += 1
                    continue
                if image is not None and image.steps:
                    image.resync(x)
                    continue
                # stationary over the current atoms; the gap check above governs
                termination = "GapTol" if gap <= 10.0 * config.gap_tol else "NumericalError"
                tracer.push(rec, terminal=True)
                break
            ad = None if image is None else image.direction(kind, s_atom, step.away)
            alpha = compute_step(rule, k, obj, x, g, d, alpha_max, f=f, ad=ad, slope=dg)
            if alpha <= 0.0:
                termination = "NumericalError"
                tracer.push(rec, terminal=True)
                break
            apply_step(active, step, alpha)
            if kind == "FW" and alpha >= 1.0:
                x = s_used.copy()
            else:
                x = x + alpha * d
            if image is not None:
                image.move(kind, alpha, ad, x)
            recorded_kind = kind
            if kind in ("Away", "Pairwise") and alpha >= alpha_max:
                recorded_kind = "Drop"
            tracer.mark_step(rec, recorded_kind, alpha, dg, _norm(d), alpha_max)
            tracer.push(rec)
            k += 1
    except NumericalError:
        termination = "NumericalError"
    meta = _base_meta(instance, config)
    meta["x_final"] = x
    meta["grad_passes"] = evals if image is None else image.grad_passes
    if image is not None:
        meta["affine_resyncs"] = image.resyncs
        meta["affine_drift_max"] = image.drift_max
        meta["grad_drift_max"] = image.grad_drift_max
        meta["active_drift_max"] = image.active_drift_max
    if inexact is not None:
        meta["inexact_mode"] = inexact.schedule.mode
        meta["inexact_delta"] = inexact.schedule.delta
        meta["inexact_kappa"] = inexact.schedule.kappa_upper
    return SolveReport(tracer.records, active, termination, tracer.good_steps, meta)


def solve_fdfw(instance, config):
    """In-face variant: away candidates come from the minimal face of x."""
    obj, region = instance.objective, instance.region
    if not isinstance(region, (rg.Simplex, rg.Box)):
        raise CapabilityError("FDFW is restricted to simplex and box regions")
    rule = copy.deepcopy(config.stepsize)
    rng = np.random.default_rng(config.seed)
    atom = _initial_atom(region, rng)
    x = atom.densify().copy()
    tracer = _Tracer(config)
    termination = "MaxIter"
    k = 0

    def support_size(pt):
        if isinstance(region, rg.Simplex):
            return int(np.sum(pt > 1e-12))
        free = (pt > region.lower + 1e-12) & (pt < region.upper - 1e-12)
        return int(np.sum(free)) + 1

    try:
        while True:
            f, g = obj.eval(x)
            s_atom = region.lmo(g)
            s = s_atom.densify()
            gap = float(np.vdot(g, x - s))
            rec = tracer.make(k, f, gap, support_size(x), x)
            if gap <= config.gap_tol:
                termination = "GapTol"
                tracer.push(rec, terminal=True)
                break
            if k >= config.max_iter:
                termination = "MaxIter"
                tracer.push(rec, terminal=True)
                break
            d_fw = s - x
            dg_fw = float(np.vdot(g, d_fw))
            v = rg.face_away_vertex(region, x, g).densify()
            d_aw = x - v
            dg_aw = float(np.vdot(g, d_aw))
            if -dg_aw > -dg_fw and np.any(d_aw):
                kind = "InFace"
                d = d_aw
                dg = dg_aw
                alpha_max = region.max_step(x, d)
            else:
                kind = "FW"
                d = d_fw
                dg = dg_fw
                alpha_max = 1.0
            if alpha_max <= 0.0 or not np.any(d):
                termination = "GapTol" if gap <= 10.0 * config.gap_tol else "NumericalError"
                tracer.push(rec, terminal=True)
                break
            alpha = compute_step(rule, k, obj, x, g, d, alpha_max, f=f, slope=dg)
            if alpha <= 0.0:
                termination = "NumericalError"
                tracer.push(rec, terminal=True)
                break
            if kind == "FW" and alpha >= 1.0:
                x = s.copy()
            else:
                x = x + alpha * d
            # snap coordinates that numerically reached a face
            if isinstance(region, rg.Simplex):
                x[np.abs(x) <= 1e-12] = 0.0
                x = np.maximum(x, 0.0)
                x /= x.sum()
            else:
                x = np.where(np.abs(x - region.lower) <= 1e-12, region.lower, x)
                x = np.where(np.abs(x - region.upper) <= 1e-12, region.upper, x)
            recorded_kind = kind
            if kind == "InFace" and alpha >= alpha_max:
                recorded_kind = "Drop"
            tracer.mark_step(rec, recorded_kind, alpha, dg, _norm(d), alpha_max)
            tracer.push(rec)
            k += 1
    except NumericalError:
        termination = "NumericalError"
    meta = _base_meta(instance, config)
    meta["x_final"] = x
    return SolveReport(tracer.records, None, termination, tracer.good_steps, meta)


def solve_efw(instance, config, initial_active=None):
    """Fully corrective variant: reoptimize over the active atoms each round.

    Each round minimizes f over the convex hull of the active atoms, warm
    started from the current weights, by Wolfe's corral method
    (``minnorm.corral_weights``) down to a weights' FW gap of
    max(efw_inner_tol, gap_tol / 10): a hull that contains the optimum is
    corrected to it in one round.  f is quadratic, so the gradient of the
    weights' objective is M lam with M_ij = <v_i, grad f(v_j)>, built from
    gradients at the atoms (``_AtomGradients``).
    """
    from .minnorm import corral_weights

    obj, region = instance.objective, instance.region
    if not _is_polytopal(region):
        raise CapabilityError("EFW needs a polytopal region")
    rng = np.random.default_rng(config.seed)
    if initial_active is not None:
        active = initial_active.copy()
        x = reconstruct_point(active)
    else:
        atom = _initial_atom(region, rng)
        active = ActiveSet.from_atom(atom)
        x = atom.densify().copy()
    grads = _AtomGradients(obj)
    inner_tol = max(config.efw_inner_tol, 0.1 * config.gap_tol)
    tracer = _Tracer(config)
    termination = "MaxIter"
    k = 0
    evals = 0
    cycles = 0
    try:
        while True:
            f, g = obj.eval(x)
            evals += 1
            s_atom = region.lmo(g)
            s = s_atom.densify()
            gap = float(np.vdot(g, x) - np.vdot(g, s))
            rec = tracer.make(k, f, gap, len(active), x)
            if gap <= config.gap_tol:
                termination = "GapTol"
                tracer.push(rec, terminal=True)
                break
            if k >= config.max_iter:
                termination = "MaxIter"
                tracer.push(rec, terminal=True)
                break
            if active.find(s_atom) is None:
                active._append(s_atom, 0.0)
            mat = grads.matrix(active)
            if not np.isfinite(mat).all():
                raise NumericalError("non-finite gradient at an active atom")
            lam, used = corral_weights(mat, active.weights, inner_tol,
                                       max(200, 40 * len(active)))
            cycles += used
            active.weights = lam  # one weight per atom: the atoms' index arrays stay valid
            active._prune_and_renormalize()
            x_new = reconstruct_point(active)
            d = x_new - x
            dg = float(np.vdot(g, d))
            tracer.mark_step(rec, "FullCorrective", 1.0, dg, _norm(d), 1.0)
            tracer.push(rec)
            x = x_new
            k += 1
    except NumericalError:
        termination = "NumericalError"
    meta = _base_meta(instance, config)
    meta["x_final"] = x
    meta["grad_passes"] = evals + grads.passes
    meta["correction_cycles"] = cycles
    return SolveReport(tracer.records, active, termination, tracer.good_steps, meta)


class _AtomGradients:
    """Gradients of f at atoms, one evaluation per distinct atom and solve.

    On weights lam that sum to one, f(sum_j lam_j v_j) has the gradient
    M lam with M_ij = <v_i, grad f(v_j)>, because f is quadratic and its
    gradient affine.  ``matrix`` builds M over an active set from the cached
    gradients: on signed-unit atoms row i is coef_i times the gradients'
    entries at idx_i, with no dense atom formed; on dense vectors it is the
    set's stacked rows times the gradients.  The cache lives as long as
    this object, which one solve owns; ``passes`` counts the evaluations.
    """

    def __init__(self, obj):
        self.obj = obj
        self._atoms = {}  # atom key -> (atom, gradient at the atom)
        self.passes = 0

    def _grad(self, atom):
        key = atom._key()
        entry = self._atoms.get(key)
        if entry is None or not atoms_equal(entry[0], atom):
            self.passes += 1
            entry = self._atoms[key] = (atom, self.obj.eval(atom.densify())[1].ravel())
        return entry[1]

    def matrix(self, active):
        grads = np.array([self._grad(a) for a in active.atoms])
        if active._idx is not None:
            return active._coef[:, None] * grads[:, active._idx].T
        if active._rows is not None:
            return active._rows @ grads.T
        return np.array([a.densify().ravel() for a in active.atoms]) @ grads.T


def solve_bcfw(instance, config):
    """Block coordinate FW (Lacoste-Julien et al., 2013): a random block steps each round.

    A step on block i changes only its value, gradient, LMO vertex, gap term
    and support, so these are cached per block and a step with alpha > 0
    refreshes block i alone.  f and the gap sum the cached terms in block
    order, as ``BlockSeparable.eval`` does; the step rules get the
    full-length g and direction, as block slices' dot products round apart.
    """
    obj, region = instance.objective, instance.region
    if not isinstance(region, rg.ProductRegion):
        raise CapabilityError("BCFW needs a product region")
    if not isinstance(obj, BlockSeparable) or list(obj.sizes) != region.sizes:
        raise CapabilityError("BCFW needs a BlockSeparable objective on the region's blocks")
    m = len(region.blocks)
    rule = copy.deepcopy(config.stepsize)
    if rule.name in ("diminishing", "block_diminishing"):
        rule = BlockDiminishing(m=m)
    rng = np.random.default_rng(config.seed)
    x = np.concatenate([b.lmo(rng.standard_normal(b.shape)).densify() for b in region.blocks])
    g = np.zeros(obj.shape)
    slices = [region.block_slice(i) for i in range(m)]
    vals, verts, gaps, sups = ([None] * m for _ in range(4))  # per block

    def refresh(i):
        """Recompute block i's cached terms; True when its support moved."""
        sl = slices[i]
        xi = x[sl]
        vals[i], g[sl] = obj.parts[i].eval(xi)
        verts[i] = region.blocks[i].lmo(g[sl]).densify()
        gaps[i] = float(g[sl] @ xi - g[sl] @ verts[i])
        sup = frozenset((np.flatnonzero(np.abs(xi) > _SUPPORT_TOL) + sl.start).tolist())
        moved = sup != sups[i]
        sups[i] = sup
        return moved

    def totals():
        f = gap = 0.0
        for i in range(m):
            f += vals[i]
            gap += gaps[i]
        return f, gap, sum(map(len, sups))

    def union():
        return frozenset().union(*sups) if x.size <= _SUPPORT_MAX else None

    tracer = _Tracer(config)
    termination = "MaxIter"
    k = 0
    block_evals = m
    try:
        for i in range(m):
            refresh(i)
        f, gap, support_size = totals()
        support = union()
        while True:
            rec = tracer.make(k, f, gap, support_size, x, support)
            if gap <= config.gap_tol:
                termination = "GapTol"
                tracer.push(rec, terminal=True)
                break
            if k >= config.max_iter:
                termination = "MaxIter"
                tracer.push(rec, terminal=True)
                break
            i = int(rng.integers(m))
            sl = slices[i]
            d_bl = verts[i] - x[sl]
            dg = float(g[sl] @ d_bl)
            if not d_bl.any() or dg >= 0.0:
                alpha = 0.0
            else:
                d_full = None
                if rule.name != "block_diminishing":
                    d_full = np.zeros_like(x)
                    d_full[sl] = d_bl
                alpha = compute_step(rule, k, obj, x, g, d_full, 1.0, f=f)
            if alpha > 0.0:
                x[sl] = x[sl] + alpha * d_bl
                if refresh(i):
                    support = union()  # else the last record's set, shared
                block_evals += 1
                f, gap, support_size = totals()
            tracer.mark_step(rec, "Block(%d)" % i, alpha, dg, _norm(d_bl), 1.0)
            tracer.push(rec)
            k += 1
    except NumericalError:
        termination = "NumericalError"
    meta = _base_meta(instance, config)
    meta["x_final"] = x
    meta["blocks"] = m
    meta["block_evals"] = block_evals
    return SolveReport(tracer.records, None, termination, tracer.good_steps, meta)


def reference_f_star(instance, gap_tol=1e-12, max_iter=100000, seed=1):
    """Reference optimal value from a long away-step run.

    Convex instances get the certified lower bound max over the trace of
    f(x_k) - G(x_k), which never exceeds f*, with error at most the
    smallest gap reached.  Non-convex instances (where f - G certifies
    nothing) get the best objective value observed instead.
    """
    from .stepsizes import ExactLine

    config = SolverConfig(variant="AFW", stepsize=ExactLine(), max_iter=max_iter,
                          gap_tol=gap_tol, seed=seed, record_every=1)
    report = _run_atomic(instance, config, away=True, pairwise=False)
    if instance.meta.get("convex", True):
        bound = max(r.f - r.gap for r in report.records)
    else:
        bound = min(r.f for r in report.records)
    return bound, report
