"""Convergence diagnostics over solver traces.

Each check inspects a ``SolveReport`` and returns a ``CheckResult`` with a
pass flag, the measured margin (how far from violating), and the first
violating iteration if any.  Rate fits regress log primal gap against the
(good-)step count over the trailing half of the trace.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import InputError

_H_SLACK = 1e-9


class Check(NamedTuple):
    """A check's function in this module, whether it reads f*, and its hypothesis or None."""

    function: str
    reads_f_star: bool
    hypothesis: tuple = None  # (report.meta key, the value it must hold, wording)


# the checks by name: the CLI validates, fetches f* and dispatches from here,
# and each function refuses a report outside its hypothesis with ``require``
CHECKS = {
    "sublinear_bound": Check("verify_sublinear_bound", True),
    "lower_bound": Check("lower_bound_check", True,
                         ("family", "simplex_distance", "the simplex distance family")),
    "inexact_rate": Check("inexact_rate_check", True,
                          ("inexact_mode", "decaying", "a decaying inexact oracle")),
    "strongly_convex_domain": Check("strongly_convex_domain_check", True,
                                    ("family", "ball_quadratic", "the ball quadratic family")),
    "min_gap_rate": Check("min_gap_rate_check", False),
    "nonconvex_min_gap": Check("nonconvex_min_gap_check", False),
    "per_step_guarantees": Check("per_step_guarantees", True,
                                 ("stepsize", "lipschitz", "the Lipschitz rule")),
}


def require(name, meta):
    """Raise ``InputError`` unless ``meta`` (a report's, or the one a run
    will carry) meets the hypothesis of check ``name``."""
    hypothesis = CHECKS[name].hypothesis
    if hypothesis is not None:
        key, value, wording = hypothesis
        if meta.get(key) != value:
            raise InputError("%s applies to %s (%s %r), not to %s %r"
                             % (name, wording, key, value, key, meta.get(key)))


@dataclass
class CheckResult:
    check: str
    ok: bool
    margin: float
    k_violation: object = None

    def as_json(self):
        return {"check": self.check, "pass": bool(self.ok),
                "margin": float(self.margin),
                "k_violation": None if self.k_violation is None else int(self.k_violation)}


@dataclass
class RateFit:
    q: float
    r2: float
    window: tuple

    """Fitted per-(good-)step geometric factor and fit quality."""


def _gaps_with_index(report, f_star=None):
    f_star = report.meta.get("f_star") if f_star is None else f_star
    if f_star is None:
        raise InputError("check needs a known f_star")
    ks = np.array([r.k for r in report.records])
    hs = np.array([r.f - f_star for r in report.records])
    return ks, hs


def _below(name, ks, values, bound):
    """Check ``name``: values[k] <= bound(k) + 1e-9 at every recorded k >= 1.

    The margin is the least slack, infinite on a trace without such k; a
    failure names the first k past its bound.
    """
    mask = ks >= 1
    excess = values[mask] - (bound(ks[mask]) + _H_SLACK)
    margin = float(-np.max(excess)) if excess.size else np.inf
    ok = bool(np.all(excess <= 0.0))
    return CheckResult(name, ok, margin, None if ok else int(ks[mask][np.argmax(excess > 0.0)]))


def _bounded_growth(ks, weighted):
    """(ok, margin, first violating k): ``weighted`` past k = 20 stays within
    twice its largest value over k = 1..20 (plus 1e-9)."""
    head = weighted[(ks >= 1) & (ks <= 20)]
    if head.size == 0:
        raise InputError("trace too short")
    limit = 2.0 * float(np.max(head)) + _H_SLACK
    late = ks > 20
    tail = weighted[late]
    ok = bool(np.all(tail <= limit))
    margin = float(limit - np.max(tail)) if tail.size else np.inf
    return ok, margin, None if ok else int(ks[late][np.argmax(tail > limit)])


def verify_sublinear_bound(report, L=None, D=None, f_star=None):
    """h_k <= 2 L D^2 / (k + 2) for every recorded k >= 1."""
    L = report.meta["L"] if L is None else L
    D = report.meta["D"] if D is None else D
    ks, hs = _gaps_with_index(report, f_star)
    return _below("sublinear_bound", ks, hs, lambda k: 2.0 * L * D ** 2 / (k + 2.0))


def fit_geometric_rate(report, good_only=True, f_star=None):
    """Least-squares geometric fit of h over the trailing half of the trace.

    The abscissa is the cumulative good-step count when ``good_only`` is
    set, the iteration index otherwise; the window truncates at the first
    nonpositive gap.
    """
    f_star = report.meta.get("f_star") if f_star is None else f_star
    if f_star is None:
        raise InputError("rate fit needs a known f_star")
    hs = []
    ts = []
    t = 0
    for r in report.records:
        h = r.f - f_star
        if h <= 0.0:
            break
        hs.append(h)
        ts.append(t)
        if good_only:
            t += 1 if r.good else 0
        else:
            t += 1
    if len(hs) < 3:
        raise InputError("trace too short for a rate fit")
    lo = len(hs) // 2
    y = np.log(np.array(hs[lo:]))
    x = np.array(ts[lo:], dtype=float)
    if np.ptp(x) == 0.0:
        raise InputError("no steps of the requested type in the window")
    slope, intercept = np.polyfit(x, y, 1)
    pred = slope * x + intercept
    ss_res = float(np.sum((y - pred) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else max(0.0, 1.0 - ss_res / ss_tot)
    return RateFit(q=float(np.exp(slope)), r2=r2, window=(lo, len(hs)))


def simplex_multipliers(x, g):
    """Multiplier functions lambda_i = <g, e_i - x> = g_i - <g, x>."""
    x = np.asarray(x, dtype=float)
    g = np.asarray(g, dtype=float)
    return g - float(g @ x)


def active_set_radius(lam, L):
    """Radius delta_min / (delta_min + 2 L) of the support-identification ball."""
    lam = np.asarray(lam, dtype=float)
    positive = lam[lam > 1e-12]
    if positive.size == 0:
        raise InputError("all multipliers vanish; the instance is fully degenerate")
    delta_min = float(np.min(positive))
    return delta_min / (delta_min + 2.0 * float(L))


def support_identification(report, i_star):
    """First recorded k whose support stays inside i_star through the end."""
    i_star = frozenset(int(i) for i in i_star)
    supports = [(r.k, r.support) for r in report.records if r.support is not None]
    if not supports:
        raise InputError("report carries no stored supports")
    hit = None
    for k, supp in supports:
        if supp <= i_star:
            if hit is None:
                hit = k
        else:
            hit = None
    return hit


def lower_bound_check(report, n=None):
    """Sparsity lower bound h_k >= 1/(k+1) - 1/n on the simplex-distance family.

    n defaults to the dimension of the report's final iterate.
    """
    require("lower_bound", report.meta)
    n = len(report.meta["x_final"]) if n is None else n
    ks, hs = _gaps_with_index(report)
    ok = True
    margin = np.inf
    first = None
    for k, h in zip(ks, hs):
        if k > n - 2:
            continue
        bound = 1.0 / (k + 1.0) - 1.0 / n - 1e-12
        margin = min(margin, h - bound)
        if h < bound and first is None:
            ok = False
            first = int(k)
    return CheckResult("lower_bound", ok, float(margin), first)


def inexact_rate_check(report, delta=None, kappa_upper=None):
    """h_k <= 2 kappa (1 + delta) / (k + 2) for decaying-error oracle runs."""
    require("inexact_rate", report.meta)
    delta = report.meta["inexact_delta"] if delta is None else delta
    kappa_upper = report.meta["inexact_kappa"] if kappa_upper is None else kappa_upper
    ks, hs = _gaps_with_index(report)
    return _below("inexact_rate", ks, hs, lambda k: 2.0 * kappa_upper * (1.0 + delta) / (k + 2.0))


def strongly_convex_domain_check(report):
    """k^2 h_k boundedness on ball instances; geometric rate when the gradient
    is bounded away from zero."""
    require("strongly_convex_domain", report.meta)
    ks, hs = _gaps_with_index(report)
    ok, margin, first = _bounded_growth(ks, ks.astype(float) ** 2 * hs)
    if ok and report.meta.get("grad_lower_bound", 0.0) > 0.0:
        fit = fit_geometric_rate(report, good_only=True)
        if not fit.q < 1.0:
            return CheckResult("strongly_convex_domain", False, float(1.0 - fit.q))
    return CheckResult("strongly_convex_domain", ok, margin, first)


def min_gap_rate_check(report, kappa_upper=None, slack=0.1):
    """min_{i<=k} G(x_i) <= (9 kappa / 2k) (1 + slack) for diminishing FW."""
    kappa = report.meta["L"] * report.meta["D"] ** 2 if kappa_upper is None else kappa_upper
    ks = np.array([r.k for r in report.records])
    running = np.minimum.accumulate(np.array([r.gap for r in report.records]))
    return _below("min_gap_rate", ks, running,
                  lambda k: 9.0 * kappa / (2.0 * k) * (1.0 + slack))


def nonconvex_min_gap_check(report):
    """Boundedness proxy for min-gap * sqrt(k) on non-convex runs (``_bounded_growth``);
    a failure names the first k past the bound."""
    ks = np.array([r.k for r in report.records])
    running = np.minimum.accumulate(np.array([r.gap for r in report.records]))
    ok, margin, first = _bounded_growth(ks, running * np.sqrt(np.maximum(ks, 1)))
    return CheckResult("nonconvex_min_gap", ok, margin, first)


def per_step_guarantees(report, L=None, f_star=None):
    """Per-step decrease and halving guarantees along a Lipschitz-rule trace.

    For consecutive records: a step with alpha < alpha_max must satisfy
    f_next <= f - <g,d>^2 / (2 L ||d||^2); a full FW step (alpha = 1) must
    satisfy h_next <= min(L ||d||^2, h) / 2.  Both with 1e-10 slack.
    Requires a contiguous trace (record_every = 1).
    """
    require("per_step_guarantees", report.meta)
    L = report.meta["L"] if L is None else L
    f_star = report.meta.get("f_star") if f_star is None else f_star
    recs = report.records
    worst = np.inf
    first = None
    for prev, nxt in zip(recs[:-1], recs[1:]):
        if nxt.k != prev.k + 1 or prev.kind == "stop" or prev.alpha <= 0.0:
            continue
        if prev.alpha < prev.alpha_max:
            allowed = prev.f - prev.dg ** 2 / (2.0 * L * prev.dnorm ** 2) + 1e-10
            worst = min(worst, allowed - nxt.f)
            if nxt.f > allowed and first is None:
                first = prev.k
        elif prev.kind == "FW" and prev.alpha == 1.0 and f_star is not None:
            h_prev = prev.f - f_star
            allowed = 0.5 * min(L * prev.dnorm ** 2, h_prev) + 1e-10
            worst = min(worst, allowed - (nxt.f - f_star))
            if nxt.f - f_star > allowed and first is None:
                first = prev.k
    return CheckResult("per_step_guarantees", first is None, float(worst), first)


def affine_invariance_harness(instance, p, variants=("FW", "AFW", "PFW", "EFW"),
                              iters=200, seed=0):
    """Max trajectory deviation ||y_k - P x_k|| under an invertible map P.

    Runs each variant with the diminishing rule on the simplex instance and
    on its image (vertex-hull region P e_i, objective composed with the
    inverse map), starting both at corresponding vertices.  Index-based tie
    breaking makes the trajectories agree up to rounding.
    """
    from .atoms import ActiveSet, DenseAtom, SignedUnitAtom
    from .objectives import ProblemInstance, compose_with_linear
    from .regions import Simplex, VertexHull
    from .solvers import SolverConfig, solve
    from .stepsizes import Diminishing

    region = instance.region
    if not isinstance(region, Simplex):
        raise InputError("the harness maps simplex instances")
    n = region.n
    p = np.asarray(p, dtype=float)
    p_inv = np.linalg.inv(p)
    hull = VertexHull(p.T.copy())  # row j is P e_j
    obj_t = compose_with_linear(instance.objective, p_inv)
    transformed = ProblemInstance(obj_t, hull, instance.L, 0.0, hull.diameter(),
                                  family="affine_image")
    rng = np.random.default_rng(seed)
    j0 = int(np.argmin(rng.standard_normal(n)))
    deviations = {}
    for variant in variants:
        start = ActiveSet.from_atom(SignedUnitAtom(j0, +1, 1.0, n))
        start_t = ActiveSet.from_atom(DenseAtom(p[:, j0].copy()))
        config = SolverConfig(variant=variant, stepsize=Diminishing(),
                              max_iter=iters, gap_tol=1e-300, seed=seed,
                              store_points=True)
        rep = solve(instance, config, initial_active=start)
        rep_t = solve(transformed, config, initial_active=start_t)
        xs = [r.x for r in rep.records]
        ys = [r.x for r in rep_t.records]
        m = min(len(xs), len(ys))
        deviations[variant] = max(
            float(np.linalg.norm(ys[k] - p @ xs[k])) for k in range(m))
    return deviations


def interior_contraction_check(report, rate=None):
    """Good steps must contract h by 1 - (mu/L) (dist/D)^2 (plus 1e-6 slack).

    Applies to interior-optimum runs; ratios are judged only while the
    incoming gap exceeds 1e-13 to stay clear of float cancellation.
    """
    meta = report.meta
    if rate is None:
        dist = meta.get("interior_distance")
        if dist is None:
            raise InputError("report lacks the interior distance")
        rate = 1.0 - (meta["mu"] / meta["L"]) * (dist / meta["D"]) ** 2
    f_star = meta.get("f_star")
    if f_star is None:
        raise InputError("check needs f_star")
    recs = report.records
    worst = np.inf
    first = None
    for prev, nxt in zip(recs[:-1], recs[1:]):
        if nxt.k != prev.k + 1 or prev.kind == "stop" or not prev.good:
            continue
        h_prev = prev.f - f_star
        if h_prev <= 1e-13:
            continue
        ratio = (nxt.f - f_star) / h_prev
        worst = min(worst, rate + 1e-6 - ratio)
        if ratio > rate + 1e-6 and first is None:
            first = prev.k
    return CheckResult("interior_contraction", first is None, float(worst), first)
