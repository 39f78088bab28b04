"""Frank-Wolfe solver family.

``solve`` runs every variant, on what ``CAPABILITIES`` lets it run on.
Classic FW, away-step (AFW), pairwise (PFW) and fully corrective (EFW)
share one driver; Wolfe's min-norm point (``minnorm.solve_wolfe_mnp``) is
EFW on the ``min_norm_point`` instance, so it runs in that driver too, and
in-face (FDFW) and block coordinate (BCFW) keep their own loops.  EFW
corrects by ``minnorm``'s corral method.  Every run produces a
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
from typing import NamedTuple

import numpy as np

from . import regions as rg
from .atoms import ActiveSet, StepDescriptor, apply_step, atoms_equal, \
    away_step_cap, reconstruct_point, select_away_vertex
from .errors import CapabilityError, InputError, NumericalError
from .objectives import BlockSeparable, design_of
from .stepsizes import BlockDiminishing, Diminishing, ExactLine, compute_step

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


class Capability(NamedTuple):
    """A variant's needs: a predicate on the instance, its wording, and if it takes inexact LMOs."""

    needs: object
    wording: str
    inexact: bool


def _on_blocks(instance):
    region, obj = instance.region, instance.objective
    return (isinstance(region, rg.ProductRegion) and isinstance(obj, BlockSeparable)
            and list(obj.sizes) == region.sizes)


_POLYTOPE = Capability(lambda inst: _is_polytopal(inst.region), "a polytopal region", True)
CAPABILITIES = {
    "FW": Capability(lambda inst: True, "", True),
    "AFW": _POLYTOPE,
    "PFW": _POLYTOPE,
    "EFW": _POLYTOPE._replace(inexact=False),
    "FDFW": Capability(lambda inst: isinstance(inst.region, (rg.Simplex, rg.Box)),
                       "a simplex or box region", False),
    "BCFW": Capability(_on_blocks, "a product region and a BlockSeparable objective on "
                       "its blocks", False),
    "WolfeMNP": Capability(lambda inst: isinstance(inst.region, rg.VertexHull),
                           "an explicit vertex list (a VertexHull region)", False),
}


def check_capability(instance, variant, inexact=False):
    """Raise ``CapabilityError`` unless ``variant`` runs on ``instance`` (inexact LMO if set)."""
    cap = CAPABILITIES.get(variant)
    if cap is None:
        raise InputError("unknown solver variant %r" % variant)
    if not cap.needs(instance):
        raise CapabilityError("%s needs %s" % (variant, cap.wording))
    if inexact and not cap.inexact:
        raise CapabilityError("%s takes no inexact oracle" % variant)


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
        elif (isinstance(self.stepsize, type) or not callable(getattr(self.stepsize, "step", None))
              or not isinstance(getattr(self.stepsize, "name", None), str)):
            # the loops call its step, and every report's meta names it
            raise InputError("stepsize must be a rule object with a step method and a name "
                             "(see stepsizes.RULES), got %r" % (self.stepsize,))


@dataclass(slots=True)
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


def _norm(d):
    """||d||: the sqrt(d . d) that ``np.linalg.norm`` takes of a real array, bit for bit."""
    v = d.ravel()
    return math.sqrt(v.dot(v))


class _Tracer:
    """Collects records and termination bookkeeping for one run.

    A record's support is the frozenset {i : |x_i| > 1e-12} of its iterate
    (None for matrices and past ``_SUPPORT_MAX`` entries).  Most steps keep
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
            self._support = frozenset(mask.nonzero()[0].tolist())
        return self._support

    def make(self, k, f, gap, support_size, x, support=None):
        ns = time.perf_counter_ns() - self.t0
        return IterationRecord(k, "stop", 0.0, float(f), float(gap), int(support_size), ns,
                               0.0, 0.0, 0.0, False,
                               self._support_of(x) if support is None else support,
                               x.copy() if self.config.store_points else None)

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
        elif kind == "FullCorrective" or kind.startswith("Block"):
            rec.good = True
        else:
            rec.good = alpha < alpha_max
        if rec.good:
            self.good_steps += 1


class _AtomCache:
    """One solve's entries [atom, image A v or None, gradient of f at v or None].

    The image is made with the entry when the solve tracks A x (``a`` is
    given).  The gradient is filled on first use, on the image when there
    is one, else by ``eval(v)``; ``passes`` counts these evaluations.  A
    lookup goes by the atom's memoised key, confirmed with ``atoms_equal``
    unless it finds that very atom.

    f is quadratic, so on weights lam that sum to one f(sum_j lam_j v_j) has
    the gradient M lam with M_ij = <v_i, grad f(v_j)>.  ``matrix`` builds M
    over an active set: on signed-unit atoms row i is coef_i times the
    gradients' entries at idx_i; on dense vectors, the stacked rows times
    the gradients.
    """

    def __init__(self, obj, a=None):
        self.obj = obj
        self.a = a
        self._atoms = {}  # atom key -> [atom, image or None, gradient or None]
        self.passes = 0

    def entry(self, atom):
        key = atom._key()
        entry = self._atoms.get(key)
        if entry is None or (entry[0] is not atom and not atoms_equal(entry[0], atom)):
            image = None
            if self.a is not None:
                image = (atom.sign * atom.scale) * self.a[:, atom.index] \
                    if atom.tag == "signed_unit" else self.a @ atom.densify()
            entry = self._atoms[key] = [atom, image, None]
        return entry

    def grad(self, entry):
        if entry[2] is None:
            self.passes += 1
            v = entry[0].densify()
            entry[2] = (self.obj.eval(v) if entry[1] is None
                        else self.obj.eval(v, ax=entry[1]))[1]
        return entry[2]

    def matrix(self, active):
        grads = np.array([self.grad(self.entry(a)) for a in active.atoms])
        if active._idx is not None:
            return active._coef[:, None] * grads[:, active._idx].T
        if active._rows is not None:
            return active._rows @ grads.T
        return np.array([a.densify().ravel() for a in active.atoms]) @ grads.T


class _AffineImage:
    """The image A x of the iterate, and its gradient, kept beside x for f seen through A.

    A step moves A x by the image of its direction, built from the atom
    images in the solve's ``_AtomCache``: a signed-unit atom's image is a
    scaled column of A, so those steps cost O(m).  f is quadratic, so its
    gradient is affine in x and moves with the gradients at the atoms a step
    runs between:

        FW        g' = (1 - alpha) g + alpha grad(s)     (alpha = 1: grad(s))
        Away      g' = (1 + alpha) g - alpha grad(v)
        Pairwise  g' = g + alpha (grad(s) - grad(v))

    Each atom's gradient costs one A^T r pass, made once per solve by the
    cache; the value comes from A x in O(m) (``value``).  On a small A an
    A^T r pass is cheaper than moving g, so below ``_TRACK_GRADIENT_MIN``
    entries only A x is tracked and every iteration evaluates the gradient.

    Rounding drift is bounded by recomputing A x (and g) from x every
    ``_RESYNC_EVERY`` steps; ``drift_max`` and ``grad_drift_max`` are the
    largest ||A x (tracked) - A x|| and ||g (tracked) - g|| seen at a re-sync.
    Given the solve's active set, a re-sync also measures how far x has
    drifted from the point the set represents: ``active_drift_max`` is the
    largest ||x - reconstruct_point(active)||.
    ``evals`` counts the evaluations at iterates (the first, re-syncs, and
    every iteration when g is not tracked); ``grad_passes`` adds those at
    atoms.
    """

    def __init__(self, cache, x, track=None, active=None):
        self.obj = cache.obj
        self.a = cache.a
        self.cache = cache
        self.ax = self.a @ x
        self.track = self.a.size >= _TRACK_GRADIENT_MIN if track is None else track
        self.active = active
        self.g = None  # tracked gradient at x; None until first evaluated
        self._ends = None, None  # cache entries of the step ``direction`` priced last
        self.steps = 0  # steps since A x was last computed from x
        self.resyncs = 0
        self.drift_max = 0.0
        self.grad_drift_max = 0.0
        self.active_drift_max = 0.0
        self.evals = 0

    @property
    def grad_passes(self):
        return self.evals + self.cache.passes

    def _eval(self, x, ax):
        self.evals += 1
        return self.obj.eval(x, ax=ax)

    def value_and_grad(self, x):
        """(f, g) at x: from the tracked state when g is tracked, else one evaluation."""
        if self.g is None:
            f, g = self._eval(x, self.ax)
            if self.track:
                self.g = g
            return f, g
        return self.obj.value(x, self.ax), self.g

    def direction(self, s, v):
        """A d for a step from x or v to s or x: ``s`` and ``v`` are the cache
        entries of the toward and away atoms, None for x."""
        self._ends = s, v
        return (self.ax if s is None else s[1]) - (self.ax if v is None else v[1])

    def move(self, kind, alpha, ad, x):
        """Follow the step last priced by ``direction``, of size alpha, to x.

        A x and g move in place, with the elementwise operations (and so
        the bits) of ``ax + alpha ad`` and the formulas above; they are this
        object's own arrays, never cached ones.
        """
        s, v = self._ends
        grad = self.cache.grad
        if kind == "FW" and alpha >= 1.0:
            self.ax = s[1].copy()
            if self.g is not None:
                self.g = grad(s).copy()
        else:
            self.ax += alpha * ad
            g = self.g
            if g is not None:
                if kind == "FW":
                    g *= 1.0 - alpha
                    g += alpha * grad(s)
                elif kind == "Away":
                    g *= 1.0 + alpha
                    g -= alpha * grad(v)
                else:
                    g += alpha * (grad(s) - grad(v))
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
    """Run ``config.variant`` on a problem instance, after ``check_capability``.

    ``initial_active`` starts FW, AFW, PFW and EFW from a given active set;
    the other variants refuse one with ``InputError`` before any work.
    """
    variant = config.variant
    check_capability(instance, variant, inexact is not None)
    atomic = variant in ("FW", "AFW", "PFW", "EFW")
    if initial_active is not None and not atomic:
        raise InputError("%s takes no initial active set" % variant)
    if atomic:
        return _run_atomic(instance, config, inexact=inexact, initial_active=initial_active)
    if variant == "FDFW":
        return _solve_fdfw(instance, config)
    if variant == "BCFW":
        return _solve_bcfw(instance, config)
    from . import minnorm  # the attribute is read per call, where a caller may wrap it

    report = minnorm.solve_wolfe_mnp(instance.region.points, config)
    report.meta["D"] = instance.D  # computed once, when the instance was built
    return report


def _run_atomic(instance, config, inexact=None, initial_active=None):
    """Shared driver of FW / AFW / PFW / EFW over an atom-tracking active set.

    The variants share the start, the evaluation, the LMO, the gap, the
    record and the termination; they differ in the move from the active
    set.  FW steps toward the LMO atom s, AFW may step away from the active
    atom v maximizing <g, v> instead, PFW moves weight from v to s, and EFW
    re-optimizes all the weights (``_correct``).  x jumps each EFW round, so
    EFW evaluates f at x afresh and tracks no A x.  A move that leaves x
    where it was ends the run by the stationary rule (``_stationary``).
    """
    obj, region = instance.objective, instance.region
    corrective = config.variant == "EFW"
    away = config.variant == "AFW"  # PFW always takes its pairwise step
    pairwise = config.variant == "PFW"
    rule = copy.deepcopy(config.stepsize)
    rng = np.random.default_rng(config.seed)
    if initial_active is not None:
        active = initial_active.copy()
        x = reconstruct_point(active)
    else:
        atom = _initial_atom(region, rng)
        active = ActiveSet.from_atom(atom)
        x = atom.densify().copy()
    design = None if corrective else design_of(obj)
    cache = _AtomCache(obj, design)
    image = None if design is None else _AffineImage(cache, x, active=active)
    inner_tol = max(config.efw_inner_tol, 0.1 * config.gap_tol)
    tracer = _Tracer(config)
    termination = "MaxIter"
    k = 0
    evals = 0  # gradient passes at iterates when there is no image to count them
    cycles = 0  # EFW's corral cycles
    settled = False  # whether the last correction ended within its cycle cap
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
            if corrective:
                # once a correction has settled the weights, s holding weight
                # leaves nothing to correct; a round that leaves x where it was
                # (the corral turned s away) would only repeat itself: both end the run
                if not settled or active.find(s_atom) is None:
                    used, settled = _correct(active, s_atom, cache, inner_tol)
                    cycles += used
                x_new = reconstruct_point(active)
                d = x_new - x
                if not d.any():
                    termination = _stationary(gap, config)
                    tracer.push(rec, terminal=True)
                    break
                tracer.mark_step(rec, "FullCorrective", 1.0, float(np.vdot(g, d)), _norm(d), 1.0)
                tracer.push(rec)
                x = x_new
                k += 1
                continue
            s_used = s if s_atom is exact_atom else s_atom.densify()
            v_atom = pos_v = None
            if pairwise:
                v_atom, w_v, pos_v = select_away_vertex(active, g)
                kind, d, alpha_max = "Pairwise", s_used - v_atom.densify(), float(w_v)
                dg = float(np.vdot(g, d))
            else:
                kind, d, alpha_max = "FW", s_used - x, 1.0
                dg = float(np.vdot(g, d))
                if away:
                    v_atom, w_v, pos_v = select_away_vertex(active, g)
                    d_aw = x - v_atom.densify()
                    dg_aw = float(np.vdot(g, d_aw))
                    if -dg_aw > -dg and w_v < 1.0:
                        kind, d, dg, alpha_max = "Away", d_aw, dg_aw, away_step_cap(w_v)
            # g is finite (the LMO checked it), so d = 0 gives dg = 0: only then is d scanned
            if (dg == 0.0 and not d.any()) or (inexact is not None and dg >= 0.0):
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
                termination = _stationary(gap, config)
                tracer.push(rec, terminal=True)
                break
            # the step's atoms are looked up once: in the cache (for their
            # images) and in the active set, whose position apply_step takes
            toward = None if kind == "Away" else s_atom
            s_entry = v_entry = ad = None
            if image is not None:
                s_entry = None if toward is None else cache.entry(s_atom)
                v_entry = None if kind == "FW" else cache.entry(v_atom)
                ad = image.direction(s_entry, v_entry)
            alpha = compute_step(rule, k, obj, x, g, d, alpha_max, f=f, ad=ad, slope=dg)
            if alpha <= 0.0:
                termination = "NumericalError"
                tracer.push(rec, terminal=True)
                break
            pos_s = None if toward is None else \
                active.find(s_atom, None if s_entry is None else s_entry[0])
            apply_step(active, StepDescriptor(kind, toward, v_atom if kind != "FW" else None,
                                              (pos_s, pos_v)), alpha)
            x = s_used.copy() if kind == "FW" and alpha >= 1.0 else x + alpha * d
            if image is not None:
                image.move(kind, alpha, ad, x)
            recorded_kind = "Drop" if kind != "FW" and alpha >= alpha_max else kind
            tracer.mark_step(rec, recorded_kind, alpha, dg, _norm(d), alpha_max)
            tracer.push(rec)
            k += 1
    except NumericalError:
        termination = "NumericalError"
    meta = _base_meta(instance, config)
    meta["x_final"] = x
    meta["grad_passes"] = evals + cache.passes if image is None else image.grad_passes
    if corrective:
        meta["correction_cycles"] = cycles
    if image is not None:
        meta.update(affine_resyncs=image.resyncs, affine_drift_max=image.drift_max,
                    grad_drift_max=image.grad_drift_max,
                    active_drift_max=image.active_drift_max)
    if inexact is not None:
        sched = inexact.schedule
        meta.update(inexact_mode=sched.mode, inexact_delta=sched.delta,
                    inexact_kappa=sched.kappa_upper)
    return SolveReport(tracer.records, active, termination, tracer.good_steps, meta)


def _stationary(gap, config):
    """Termination of a run stationary over its atoms: the gap check governs, within 10x."""
    return "GapTol" if gap <= 10.0 * config.gap_tol else "NumericalError"


def _cycle_cap(atoms):
    """The minor cycles one EFW correction may run over ``atoms`` atoms."""
    return max(200, 40 * atoms)


def _correct(active, s_atom, cache, inner_tol):
    """EFW's round: s joins at weight 0, then f is minimized over the hull of the active atoms.

    Wolfe's corral method (``minnorm.corral_weights``), warm started from
    the current weights, runs down to a weights' FW gap of ``inner_tol`` on
    the weights' gradient M lam (``_AtomCache.matrix``): a hull that
    contains the optimum is corrected to it in one round.  Returns the
    corral cycles used and whether they stopped short of their cap (the
    weights settled).
    """
    from .minnorm import corral_weights

    if active.find(s_atom) is None:
        active._append(s_atom, 0.0)
    mat = cache.matrix(active)
    if not np.isfinite(mat).all():
        raise NumericalError("non-finite gradient at an active atom")
    cap = _cycle_cap(len(active))
    lam, used = corral_weights(mat, active.weights, inner_tol, cap)
    active.weights = lam  # one weight per atom: the atoms' index arrays stay valid
    active._prune_and_renormalize()
    return used, used < cap


def _solve_fdfw(instance, config):
    """In-face variant: away candidates come from the minimal face of x."""
    obj, region = instance.objective, instance.region
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
                kind, d, dg, alpha_max = "InFace", d_aw, dg_aw, region.max_step(x, d_aw)
            else:
                kind, d, dg, alpha_max = "FW", d_fw, dg_fw, 1.0
            if alpha_max <= 0.0 or not np.any(d):
                termination = _stationary(gap, config)
                tracer.push(rec, terminal=True)
                break
            alpha = compute_step(rule, k, obj, x, g, d, alpha_max, f=f, slope=dg)
            if alpha <= 0.0:
                termination = "NumericalError"
                tracer.push(rec, terminal=True)
                break
            x = s.copy() if kind == "FW" and alpha >= 1.0 else x + alpha * d
            # snap coordinates that numerically reached a face
            if isinstance(region, rg.Simplex):
                x[np.abs(x) <= 1e-12] = 0.0
                x = np.maximum(x, 0.0)
                x /= x.sum()
            else:
                x = np.where(np.abs(x - region.lower) <= 1e-12, region.lower, x)
                x = np.where(np.abs(x - region.upper) <= 1e-12, region.upper, x)
            recorded_kind = "Drop" if kind == "InFace" and alpha >= alpha_max else kind
            tracer.mark_step(rec, recorded_kind, alpha, dg, _norm(d), alpha_max)
            tracer.push(rec)
            k += 1
    except NumericalError:
        termination = "NumericalError"
    meta = _base_meta(instance, config)
    meta["x_final"] = x
    return SolveReport(tracer.records, None, termination, tracer.good_steps, meta)


def _solve_bcfw(instance, config):
    """Block coordinate FW (Lacoste-Julien et al., 2013): a random block steps each round.

    A step on block i changes only its value, gradient, LMO vertex, gap term
    and support, so these are cached per block and a step with alpha > 0
    refreshes block i alone; its support set is rebuilt only when the bytes
    of its mask |x_i| > 1e-12 change.  f and the gap sum the cached terms in
    block order, as ``BlockSeparable.eval`` does; the step rules get the
    full-length g and direction, as block slices' dot products round apart.
    The blocks are drawn 64 at a time, which gives the stream of one
    ``rng.integers(m)`` per iteration.
    """
    obj, region = instance.objective, instance.region
    m = len(region.blocks)
    rule = copy.deepcopy(config.stepsize)
    if isinstance(rule, (Diminishing, BlockDiminishing)):
        rule = BlockDiminishing(m=m)
    rng = np.random.default_rng(config.seed)
    x = np.concatenate([b.lmo(rng.standard_normal(b.shape)).densify() for b in region.blocks])
    g = np.zeros(obj.shape)
    slices = [region.block_slice(i) for i in range(m)]
    kinds = ["Block(%d)" % i for i in range(m)]
    vals, verts, gaps, sups, masks = ([None] * m for _ in range(5))  # per block

    def refresh(i):
        """Recompute block i's cached terms; True when its support moved."""
        sl = slices[i]
        xi = x[sl]
        vals[i], g[sl] = obj.parts[i].eval(xi)
        gi = g[sl]
        verts[i] = region.blocks[i].lmo(gi).densify()
        gaps[i] = float(gi @ xi - gi @ verts[i])
        mask = np.abs(xi) > _SUPPORT_TOL
        key = mask.tobytes()
        if key == masks[i]:
            return False
        masks[i] = key
        sups[i] = frozenset((mask.nonzero()[0] + sl.start).tolist())
        return True

    def blocks():
        while True:
            yield from rng.integers(m, size=64).tolist()

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
    draws = blocks()
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
            i = next(draws)
            sl = slices[i]
            d_bl = verts[i] - x[sl]
            dg = float(g[sl] @ d_bl)
            if dg >= 0.0:  # also when d_bl = 0: the LMO checked that g is finite
                alpha = 0.0
            else:
                d_full = None
                if not isinstance(rule, BlockDiminishing):
                    d_full = np.zeros_like(x)
                    d_full[sl] = d_bl
                alpha = compute_step(rule, k, obj, x, g, d_full, 1.0, f=f)
            if alpha > 0.0:
                x[sl] = x[sl] + alpha * d_bl
                if refresh(i):
                    support = union()  # else the last record's set, shared
                block_evals += 1
                f, gap, support_size = totals()
            tracer.mark_step(rec, kinds[i], alpha, dg, _norm(d_bl), 1.0)
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
    """Reference optimal value from a long away-step run; ``CAPABILITIES["AFW"]`` applies.

    Convex instances get the certified lower bound max over the trace of
    f(x_k) - G(x_k), which never exceeds f*, with error at most the
    smallest gap reached.  Non-convex instances (where f - G certifies
    nothing) get the best objective value observed instead.
    """
    config = SolverConfig(variant="AFW", stepsize=ExactLine(), max_iter=max_iter,
                          gap_tol=gap_tol, seed=seed, record_every=1)
    report = solve(instance, config)
    if instance.meta.get("convex", True):
        bound = max(r.f - r.gap for r in report.records)
    else:
        bound = min(r.f for r in report.records)
    return bound, report
