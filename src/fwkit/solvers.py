"""Frank-Wolfe solver family.

``solve`` runs every variant as ``CAPABILITIES`` declares it, in one
loop (``_drive``) with a direction policy per family: atoms for FW,
away-step (AFW), pairwise (PFW) and fully corrective (EFW), the face for
in-face FW (FDFW) and blocks for block coordinate FW (BCFW).  EFW corrects
by ``minnorm``'s corral method; Wolfe's min-norm point is EFW on the
``min_norm_point`` instance.  Every run produces a ``SolveReport`` with a
per-iteration trace: objective, FW gap, step kind and size, support size,
and good-step classification.

A record at index k describes the state x_k plus the step taken from it;
the final record marks the stopping state with kind "stop" and alpha 0.
The initial point is always the oracle's vertex at a seeded random
gradient, so sparsity bounds hold from the start.
"""

import copy
import itertools
import math
import time
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import regions as rg
from .atoms import ActiveSet, StepDescriptor, apply_step, atom_image, atoms_equal, \
    away_step_cap, pairing_matrix, reconstruct_point, select_away_vertex
from .errors import CapabilityError, InputError, NumericalError
from .objectives import BlockSeparable, ShiftedNormSquare, design_of
from .stepsizes import BlockDiminishing, Diminishing, ExactLine, compute_step

# steps between recomputations of a tracked image A x from x (see _AffineImage)
_RESYNC_EVERY = 64
# entries of A from which _AffineImage tracks the gradient too (see there).
# Tracked over evaluated run time, median of paired runs on a 2-vCPU Xeon VM
# (4 MiB L2, BLAS on one thread): 1.03-1.05 on AFW/PFW at 900 entries
# (n = 30 simplex quadratics), 0.96-1.02 at 4800 and 0.89-1.08 from 1e4 to
# 1e5 on lasso FW/AFW/PFW (A in cache, an A^T r pass ~20 us), and 0.47 (FW),
# 0.74 (AFW), 0.96 (PFW) at 4e5 (lasso 200x2000), where A leaves the cache.
_TRACK_GRADIENT_MIN = 4096


class Capability(NamedTuple):
    """A variant's needs (a predicate on the instance, and its wording) and how it runs."""

    needs: object
    wording: str
    inexact: bool  # takes an inexact LMO
    initial_active: bool  # takes a caller's initial active set
    runs: object  # runs(instance, config, inexact, initial_active) gives the SolveReport
    corral_tol: object = None  # gap_tol -> a corral's weights' FW gap; None: the rule sizes steps


def check_capability(instance, variant, inexact=False):
    """``variant``'s ``Capability``; ``CapabilityError`` unless it runs on
    ``instance`` (with an inexact LMO if set)."""
    cap = CAPABILITIES.get(variant)
    if cap is None:
        raise InputError("unknown solver variant %r" % variant)
    if not cap.needs(instance):
        raise CapabilityError("%s needs %s" % (variant, cap.wording))
    if inexact and not cap.inexact:
        raise CapabilityError("%s takes no inexact oracle" % variant)
    return cap


@dataclass
class SolverConfig:
    variant: str = "FW"
    stepsize: object = None
    max_iter: int = 1000
    gap_tol: float = 1e-8
    seed: int = 0
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
    support: object = None  # frozenset of coordinates, built when first read (_Support)
    x: object = None        # iterate copy, only when store_points is set


class _Support:
    """A support held as the bytes of its mask |x| > 1e-12; its frozenset is built when first read.

    A record reads the frozenset through ``IterationRecord.support``, and
    every record handed the same holder shares that one frozenset.
    """

    __slots__ = ("_mask", "_set")

    def __init__(self, mask):
        self._mask, self._set = mask, None

    def frozen(self):
        if self._set is None:
            self._set = frozenset(np.frombuffer(self._mask, dtype=bool).nonzero()[0].tolist())
            self._mask = None
        return self._set


def _read_support(slot):
    """``IterationRecord.support`` over the field's slot: a ``_Support`` held there reads as
    its frozenset.  The dataclass's __init__, __eq__, __repr__ and pickling all go through it."""
    def read(rec):
        held = slot.__get__(rec)
        return held.frozen() if type(held) is _Support else held
    return property(read, slot.__set__)


IterationRecord.support = _read_support(IterationRecord.support)


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


class _Supports:
    """The support of each iterate: the frozenset {i : |x_i| > 1e-12} (None
    for matrices and past ``_SUPPORT_MAX`` entries), held by a ``_Support``.

    The bytes of the last mask are kept, and each new mask gets one holder,
    shared by the records while the mask's bytes stay the same.
    """

    __slots__ = ("_mask", "_held")

    def __init__(self):
        self._mask = self._held = None

    def of(self, x):
        if x.ndim != 1 or x.size > _SUPPORT_MAX:
            return None
        mask = (np.abs(x) > _SUPPORT_TOL).tobytes()
        if mask != self._mask:
            self._mask, self._held = mask, _Support(mask)
        return self._held


def _judged(kind, alpha, alpha_max):
    """(kind recorded, good) of a step: an away, pairwise or in-face step that reaches
    alpha_max is recorded as a "Drop"; a block step is judged as an FW step (alpha_max 1)."""
    if kind == "FullCorrective":
        return kind, True
    if kind == "FW" or kind.startswith("Block"):
        return kind, alpha >= 1.0 or 0.0 < alpha < alpha_max
    return "Drop" if alpha >= alpha_max else kind, 0.0 < alpha < alpha_max


class _AtomCache:
    """One solve's entries [atom, image A v or None, gradient of f at v or None].

    The image is made with the entry when the solve tracks A x (``a`` is
    given).  The gradient is filled on first use, on the image when there
    is one, else by ``eval(v)``; ``passes`` counts these evaluations.  A
    lookup goes by the atom's memoised key, confirmed with ``atoms_equal``
    unless it finds that very atom.

    f is quadratic, so on weights lam that sum to one f(sum_j lam_j v_j) has
    the gradient M lam with M_ij = <v_i, grad f(v_j)>.  ``matrix`` builds M
    over an active set (``atoms.pairing_matrix``).
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
            image = None if self.a is None else atom_image(atom, self.a)
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
        return pairing_matrix(active, np.array([self.grad(self.entry(a)) for a in active.atoms]))


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

    def __init__(self, cache, x, active=None):
        self.obj = cache.obj
        self.a = cache.a
        self.cache = cache
        self.ax = self.a @ x
        self.track = self.a.size >= _TRACK_GRADIENT_MIN
        self.active = active
        self.g = None  # tracked gradient at x; None until first evaluated
        self._buf = None  # where move combines atom gradients, made with the tracked g
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
                self.g, self._buf = g, np.empty_like(g)
            return f, g
        return self.obj.value(x, self.ax), self.g

    def direction(self, s, v):
        """A d for a step from x or v to s or x: ``s`` and ``v`` are the cache
        entries of the toward and away atoms, None for x."""
        return (self.ax if s is None else s[1]) - (self.ax if v is None else v[1])

    def move(self, kind, alpha, ad, x, s, v):
        """Take the step of size alpha to x whose ``direction(s, v)`` is ``ad``.

        A x and g move in place, with the elementwise operations (and so
        the bits) of ``ax + alpha ad`` and the formulas above; they are this
        object's own arrays, never cached ones.  The atom gradients are
        combined in one buffer, made with the tracked g.
        """
        grad = self.cache.grad
        if kind == "FW" and alpha >= 1.0:
            self.ax = s[1].copy()
            if self.g is not None:
                self.g = grad(s).copy()
        else:
            self.ax += alpha * ad
            g, buf = self.g, self._buf
            if g is not None:
                if kind == "FW":
                    g *= 1.0 - alpha
                    g += np.multiply(alpha, grad(s), out=buf)
                elif kind == "Away":
                    g *= 1.0 + alpha
                    g -= np.multiply(alpha, grad(v), out=buf)
                else:
                    g += np.multiply(alpha, np.subtract(grad(s), grad(v), out=buf), out=buf)
        self.steps += 1
        if self.steps >= _RESYNC_EVERY:
            self.resync(x)

    def resync(self, x):
        """Recompute A x (and g) from x, recording their drift; returns True."""
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
        return True


def planned_meta(instance, config, inexact=None):
    """A report's meta as known before the run, which adds its results: the instance's
    constants, family and meta, the config's variant, seed, tolerances and rule (None
    where the rule sizes no step), and the inexact oracle's schedule."""
    rule = config.stepsize.name if CAPABILITIES[config.variant].corral_tol is None else None
    meta = {"family": instance.family, "f_star": instance.f_star, "L": instance.L,
            "mu": instance.mu, "D": instance.D, "variant": config.variant, "stepsize": rule,
            "seed": config.seed, "gap_tol": config.gap_tol, "max_iter": config.max_iter,
            **instance.meta}
    if inexact is not None:
        sched = inexact.schedule
        meta.update(inexact_mode=sched.mode, inexact_delta=sched.delta,
                    inexact_kappa=sched.kappa_upper)
    return meta


def _initial_atom(region, rng):
    g0 = rng.standard_normal(region.shape)
    return region.lmo(g0)


def solve(instance, config, inexact=None, initial_active=None):
    """Run ``config.variant`` on a problem instance, after ``check_capability``.

    ``initial_active`` starts a variant whose capability takes one from a
    given active set; the others refuse one with ``InputError`` before any work.
    """
    cap = check_capability(instance, config.variant, inexact is not None)
    if initial_active is not None and not cap.initial_active:
        raise InputError("%s takes no initial active set" % config.variant)
    return cap.runs(instance, config, inexact, initial_active)


def _wolfe_mnp(instance, config, inexact=None, initial_active=None):
    """Wolfe's method on the instance's points (``minnorm.solve_wolfe_mnp``)."""
    from . import minnorm  # the attribute is read per call, where a caller may wrap it

    report = minnorm.solve_wolfe_mnp(instance.region.points, config)
    report.meta["D"] = instance.D  # computed once, when the instance was built
    return report


def _drive(instance, config, policy):
    """The iteration loop of every variant: ``policy`` observes x and offers each step.

    The run stops at ``max_iter``, or by the stationary rule (``GapTol``
    within 10 ``gap_tol``, else ``NumericalError``) where the gap is within
    ``gap_tol`` or no step moves x, once the policy has re-synced.  A zero
    step from the rule is a ``NumericalError`` where the next pass repeats it.
    Each record is built once: for x_k, what the step moves (the time, the
    support, the ``store_points`` copy) is taken before it, the rest after.
    """
    records, good_steps, termination, k = [], 0, "MaxIter", 0
    supports, t0 = _Supports(), time.perf_counter_ns()
    try:
        while True:
            f, g, gap, support_size, support = policy.observe()
            ns = time.perf_counter_ns() - t0
            held = supports.of(policy.x) if support is None else support
            kept = policy.x.copy() if config.store_points else None
            if gap > config.gap_tol and k >= config.max_iter:
                break
            step = policy.step() if gap > config.gap_tol else None
            if step is None:
                if policy.resync():
                    continue
                termination = "GapTol" if gap <= 10.0 * config.gap_tol else "NumericalError"
                break
            kind, dg, dnorm, alpha_max, alpha, d, ad, slope = step
            if alpha is None:
                alpha = compute_step(policy.rule, k, instance.objective, policy.x, g, d, alpha_max,
                                     f=f, ad=ad, slope=slope)
                if alpha <= 0.0 and policy.zero_step_ends_run:
                    termination = "NumericalError"
                    break
            policy.move(alpha)
            kind, good = _judged(kind, alpha, alpha_max)
            if good:
                good_steps += 1
            if k % config.record_every == 0:
                records.append(IterationRecord(k, kind, float(alpha), float(f), float(gap),
                                               int(support_size), ns, float(dg), float(dnorm),
                                               float(alpha_max), good, held, kept))
            k += 1
        records.append(IterationRecord(k, "stop", 0.0, float(f), float(gap), int(support_size),
                                       ns, 0.0, 0.0, 0.0, False, held, kept))
    except NumericalError:
        termination = "NumericalError"
    return SolveReport(records, policy.active, termination, good_steps,
                       {**planned_meta(instance, config, policy.inexact), "x_final": policy.x,
                        **policy.meta()})


class _Policy:
    """How a family of variants observes the iterate ``x`` and steps from it.

    ``observe()`` gives (f, g, gap, support size, support or None) at x.
    ``step()`` gives None where no step moves x, else the tuple (kind,
    <g, d>, ||d||, alpha_max, alpha, d, A d, slope): the record's fields,
    the size the policy fixes or None to ask the rule, and what the rule
    reads (d None for a rule that reads none; slope the <g, d> it may take
    as given).  ``move(alpha)`` takes that step; ``resync()`` tells whether
    it re-synced tracked state from x.
    """

    zero_step_ends_run = True
    active = inexact = None

    def __init__(self, instance, config, inexact=None, initial_active=None):
        self.obj, self.region = instance.objective, instance.region
        self.rule = copy.deepcopy(config.stepsize)
        self.rng = np.random.default_rng(config.seed)

    @classmethod
    def run(cls, instance, config, inexact=None, initial_active=None):
        """Solve with ``_drive`` and a fresh policy of this class (see ``CAPABILITIES``)."""
        return _drive(instance, config, cls(instance, config, inexact, initial_active))

    def resync(self):
        return False

    def meta(self):
        return {}


class _Atoms(_Policy):
    """FW over an atom-tracking active set; AFW, PFW and EFW subclass it (see ``CAPABILITIES``).

    On a quadratic form A x is tracked (``_AffineImage``).  Under an inexact
    oracle a direction that does not descend is a step of size 0: the error
    budget shrinks with k.
    """

    corrective = False  # _Corrective evaluates f afresh at each iterate, with no tracked A x

    def __init__(self, instance, config, inexact=None, initial_active=None):
        super().__init__(instance, config)
        self.inexact = inexact
        if initial_active is not None:
            self.active = initial_active.copy()
            self.x = reconstruct_point(self.active)
        else:
            atom = _initial_atom(self.region, self.rng)
            self.active = ActiveSet.from_atom(atom)
            self.x = atom.densify().copy()
        design = None if self.corrective else design_of(self.obj)
        cache = self.cache = _AtomCache(self.obj, design)
        self.image = None if design is None else _AffineImage(cache, self.x, active=self.active)
        self.evals = 0  # evaluations at iterates without an image

    def observe(self):
        x, image = self.x, self.image
        if image is None:
            f, g = self.obj.eval(x)
            self.evals += 1
        else:
            f, g = image.value_and_grad(x)
        if self.inexact is not None:
            exact_atom, s_atom = self.inexact.query(g)
        else:
            exact_atom = s_atom = self.region.lmo(g)
        s = exact_atom.densify()
        self.g, self.s, self.s_atom, self.exact = g, s, s_atom, s_atom is exact_atom
        return f, g, float(np.vdot(g, x) - np.vdot(g, s)), len(self.active), None

    def resync(self):
        return self.image is not None and self.image.steps > 0 and self.image.resync(self.x)

    def direction(self, s, x, g):
        """(kind, d, <g, d>, alpha_max, away atom, its position) of the step from x: toward s."""
        d = s - x
        return "FW", d, float(np.vdot(g, d)), 1.0, None, None

    def step(self):
        x, g, active, s_atom = self.x, self.g, self.active, self.s_atom
        s = self.s if self.exact else s_atom.densify()
        kind, d, dg, alpha_max, v_atom, pos_v = self.direction(s, x, g)
        if self.inexact is not None and dg >= 0.0:
            return kind, dg, _norm(d), alpha_max, 0.0, None, None, None
        # g is finite (the LMO checked it), so d = 0 gives dg = 0: only then is d scanned
        if dg == 0.0 and not d.any():
            return None
        # the step's atoms are looked up once: in the cache (for their
        # images) and in the active set, whose position apply_step takes
        toward = None if kind == "Away" else s_atom
        s_entry = v_entry = ad = None
        if self.image is not None:
            s_entry = None if toward is None else self.cache.entry(s_atom)
            v_entry = None if v_atom is None else self.cache.entry(v_atom)
            ad = self.image.direction(s_entry, v_entry)
        pos_s = None if toward is None else \
            active.find(toward, None if s_entry is None else s_entry[0])
        self.ends = (s, d, ad, StepDescriptor(kind, toward, v_atom, (pos_s, pos_v)),
                     s_entry, v_entry)
        return kind, dg, _norm(d), alpha_max, None, d, ad, dg

    def move(self, alpha):
        if alpha != 0.0:  # 0 is the inexact oracle's stall, which leaves x
            s, d, ad, descriptor, s_entry, v_entry = self.ends
            apply_step(self.active, descriptor, alpha)
            kind = descriptor.kind
            if kind == "FW" and alpha >= 1.0:
                self.x = s.copy()
            else:  # in place, with the bits of x + alpha d: d is this step's own array
                d *= alpha
                self.x += d
            if self.image is not None:
                self.image.move(kind, alpha, ad, self.x, s_entry, v_entry)

    def meta(self):
        image = self.image
        if image is None:
            return {"grad_passes": self.evals + self.cache.passes}
        return dict(grad_passes=image.grad_passes, affine_resyncs=image.resyncs,
                    affine_drift_max=image.drift_max, grad_drift_max=image.grad_drift_max,
                    active_drift_max=image.active_drift_max)


class _Away(_Atoms):
    """AFW: the FW step, or the step away from the active atom v maximizing <g, v> if steeper."""

    def direction(self, s, x, g):
        v_atom, w_v, pos_v = select_away_vertex(self.active, g)
        fw = super().direction(s, x, g)
        d = x - v_atom.densify()
        dg = float(np.vdot(g, d))
        if -dg > -fw[2] and w_v < 1.0:
            return "Away", d, dg, away_step_cap(w_v), v_atom, pos_v
        return fw


class _Pairwise(_Atoms):
    """PFW: weight moves from the active atom v maximizing <g, v> to s, at most v's weight."""

    def direction(self, s, x, g):
        v_atom, w_v, pos_v = select_away_vertex(self.active, g)
        d = s - v_atom.densify()
        return "Pairwise", d, float(np.vdot(g, d)), float(w_v), v_atom, pos_v


def _cycle_cap(atoms):
    """The minor cycles one EFW correction may run over ``atoms`` atoms."""
    return max(200, 40 * atoms)


class _Corrective(_Atoms):
    """EFW (and WolfeMNP on its own instance): s joins at weight 0, f is minimized over
    the hull of the active atoms, and x moves there at alpha 1, with no tracked A x.

    Wolfe's corral method (``minnorm.corral_weights``), warm started from the
    weights, runs down to a weights' FW gap of the capability's corral
    tolerance on their gradient M lam (``_AtomCache.matrix``).
    """

    corrective = True
    cycles, settled = 0, False  # corral cycles; whether the last round stopped short of its cap

    def __init__(self, instance, config, *args):
        super().__init__(instance, config, *args)
        self.corral_tol = CAPABILITIES[config.variant].corral_tol(config.gap_tol)

    def step(self):
        from .minnorm import corral_weights

        active, s_atom = self.active, self.s_atom
        # once a correction has settled the weights, s holding weight
        # leaves nothing to correct; a round that leaves x where it was
        # (the corral turned s away) would only repeat itself: both end the run
        if not self.settled or active.find(s_atom) is None:
            if active.find(s_atom) is None:
                active._append(s_atom, 0.0)
            mat = self.cache.matrix(active)
            if not np.isfinite(mat).all():
                raise NumericalError("non-finite gradient at an active atom")
            cap = _cycle_cap(len(active))
            lam, used = corral_weights(mat, active.weights, self.corral_tol, cap)
            active.weights = lam  # one weight per atom: the atoms' index arrays stay valid
            active._prune_and_renormalize()
            self.cycles, self.settled = self.cycles + used, used < cap
        self.target = reconstruct_point(active)
        d = self.target - self.x
        if not d.any():
            return None
        return "FullCorrective", float(np.vdot(self.g, d)), _norm(d), 1.0, 1.0, None, None, None

    def move(self, alpha):
        self.x = self.target

    def meta(self):
        return {**super().meta(), "correction_cycles": self.cycles}


class _Face(_Policy):
    """In-face FW (FDFW) on a region's minimal faces, with no active set.

    The region owns its faces (see ``regions.FACE_OPERATIONS``): the away
    vertex comes from x's minimal face, an in-face step stops at the face's
    boundary (``max_step``), each move snaps x onto the faces it is within
    rounding of, and the support is the region's count for x's face.  The
    gap is <g, x - s>.
    """

    def __init__(self, *args):
        super().__init__(*args)
        self.x = _initial_atom(self.region, self.rng).densify().copy()

    def observe(self):
        x, region = self.x, self.region
        f, g = self.obj.eval(x)
        s = self.s = region.lmo(g).densify()
        self.g = g
        return f, g, float(np.vdot(g, x - s)), region.face_support(x), None

    def step(self):
        x, g, region = self.x, self.g, self.region
        d_fw = self.s - x
        dg_fw = float(np.vdot(g, d_fw))
        d_aw = x - region.face_away_vertex(x, g)
        dg_aw = float(np.vdot(g, d_aw))
        if -dg_aw > -dg_fw and np.any(d_aw):
            kind, d, dg, alpha_max = "InFace", d_aw, dg_aw, region.max_step(x, d_aw)
        else:
            kind, d, dg, alpha_max = "FW", d_fw, dg_fw, 1.0
        if alpha_max <= 0.0 or not np.any(d):
            return None
        self.fw, self.d = kind == "FW", d
        return kind, dg, _norm(d), alpha_max, None, d, None, dg

    def move(self, alpha):
        x = self.s.copy() if self.fw and alpha >= 1.0 else self.x + alpha * self.d
        self.x = self.region.snap_to_face(x)


class _Blocks(_Policy):
    """Block coordinate FW (Lacoste-Julien et al., 2013): a random block steps each pass.

    A step on block i changes only its value, gradient, LMO vertex, gap term
    and support, so these are cached per block, the support as the bytes of
    its mask |x_i| > 1e-12 and their count of entries.  The blocks are
    contiguous and in order, so their masks joined are x's: a new ``_Support``
    holds them only when a block's mask changes.  f and the gap sum
    the terms in block order, as ``BlockSeparable.eval`` does; the rules get
    the full-length g and direction, as block slices' dot products round
    apart.  A block that does not descend steps by 0, and a zero from the
    rule is no error: the next pass draws another block.
    """

    zero_step_ends_run = False

    def __init__(self, *args):
        super().__init__(*args)
        region = self.region
        m = self.m = len(region.blocks)
        if isinstance(self.rule, Diminishing) or self.rule == BlockDiminishing():
            self.rule = BlockDiminishing(m=m)  # a rule with its own m runs as given
        self.x = np.concatenate([b.lmo(self.rng.standard_normal(b.shape)).densify()
                                 for b in region.blocks])
        self.g = np.zeros(self.obj.shape)
        self.slices = [region.block_slice(i) for i in range(m)]
        self.kinds = ["Block(%d)" % i for i in range(m)]
        self.vals, self.verts, self.gaps, self.masks, self.counts = ([None] * m for _ in range(5))
        self.block_evals, self.support = m, None
        # one rng.integers(m) per pass, drawn 64 at a time
        self.draws = (i for _ in itertools.repeat(None)
                      for i in self.rng.integers(m, size=64).tolist())

    def _update(self, blocks):
        for i in blocks:
            sl = self.slices[i]
            xi = self.x[sl]
            self.vals[i], self.g[sl] = self.obj.parts[i].eval(xi)
            gi = self.g[sl]
            self.verts[i] = self.region.blocks[i].lmo(gi).densify()
            self.gaps[i] = float(gi @ xi - gi @ self.verts[i])
            mask = np.abs(xi) > _SUPPORT_TOL
            key = mask.tobytes()
            if key != self.masks[i]:
                self.masks[i], self.counts[i], self.support = key, np.count_nonzero(mask), None

    def observe(self):
        if self.vals[0] is None:  # the first pass evaluates every block
            self._update(range(self.m))
        if self.support is None and self.x.size <= _SUPPORT_MAX:
            self.support = _Support(b"".join(self.masks))  # records share it while it stays
        f = gap = 0.0
        for i in range(self.m):
            f += self.vals[i]
            gap += self.gaps[i]
        return f, self.g, gap, sum(self.counts), self.support

    def step(self):
        i = self.i = next(self.draws)
        sl = self.slices[i]
        d_bl = self.d_bl = self.verts[i] - self.x[sl]
        dg = float(self.g[sl] @ d_bl)
        if dg >= 0.0:  # also when d_bl = 0: the LMO checked that g is finite
            return self.kinds[i], dg, _norm(d_bl), 1.0, 0.0, None, None, None
        d_full = None
        if not isinstance(self.rule, BlockDiminishing):  # which reads no direction
            d_full = np.zeros_like(self.x)
            d_full[sl] = d_bl
        return self.kinds[i], dg, _norm(d_bl), 1.0, None, d_full, None, None

    def move(self, alpha):
        if alpha > 0.0:
            self.x[self.slices[self.i]] += alpha * self.d_bl
            self._update((self.i,))
            self.block_evals += 1

    def meta(self):
        return {"blocks": self.m, "block_evals": self.block_evals}


def _min_norm(instance):
    """f = 1/2 ||x||^2 over an explicit vertex list: the one instance Wolfe's method solves."""
    obj = instance.objective
    return (isinstance(instance.region, rg.VertexHull) and isinstance(obj, ShiftedNormSquare)
            and obj.scale == 0.5 and not np.any(obj.center))


def _on_blocks(instance):
    region, obj = instance.region, instance.objective
    return (isinstance(region, rg.ProductRegion) and isinstance(obj, BlockSeparable)
            and list(obj.sizes) == region.sizes)


_POLYTOPE = Capability(lambda inst: getattr(inst.region, "polytopal", False),
                       "a polytopal region", True, True, _Away.run)
CAPABILITIES = {
    "FW": Capability(lambda inst: True, "", True, True, _Atoms.run),
    "AFW": _POLYTOPE,
    "PFW": _POLYTOPE._replace(runs=_Pairwise.run),
    "EFW": _POLYTOPE._replace(inexact=False, runs=_Corrective.run,
                              corral_tol=lambda gap_tol: max(1e-10, 0.1 * gap_tol)),
    "FDFW": Capability(lambda inst: all(hasattr(inst.region, op) for op in rg.FACE_OPERATIONS),
                       "a region with minimal-face operations (a simplex or a box)", False,
                       False, _Face.run),
    "BCFW": Capability(_on_blocks, "a product region and a BlockSeparable objective on "
                       "its blocks", False, False, _Blocks.run),
    "WolfeMNP": Capability(_min_norm, "f = 1/2 ||x||^2 (a ShiftedNormSquare with a zero "
                           "center and scale 1/2) over a VertexHull region; EFW solves any "
                           "other objective over a hull", False, False, _wolfe_mnp,
                           lambda gap_tol: 0.1 * gap_tol),
}

REFERENCE_VARIANT = "AFW"


def reference_f_star(instance, gap_tol=1e-12, max_iter=100000):
    """Reference optimal value from a long away-step run of ``REFERENCE_VARIANT``.

    Convex instances get the certified lower bound max over the trace of
    f(x_k) - G(x_k), which never exceeds f*, with error at most the
    smallest gap reached.  Non-convex instances (where f - G certifies
    nothing) get the best objective value observed instead.
    """
    config = SolverConfig(variant=REFERENCE_VARIANT, stepsize=ExactLine(), max_iter=max_iter,
                          gap_tol=gap_tol, seed=1, record_every=1)
    report = solve(instance, config)
    if instance.meta.get("convex", True):
        bound = max(r.f - r.gap for r in report.records)
    else:
        bound = min(r.f for r in report.records)
    return bound, report
