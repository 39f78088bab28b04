"""Convergence diagnostics over solver traces.

Each check inspects a ``SolveReport`` and returns a ``CheckResult`` with a
pass flag, the measured margin (how far from violating), and the first
violating iteration if any.  Rate fits regress log primal gap against the
(good-)step count over the trailing half of the trace.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .atoms import ActiveSet, DenseAtom, SignedUnitAtom
from .errors import InputError
from .objectives import ProblemInstance, compose_with_linear
from .regions import Simplex, VertexHull
from .solvers import SolverConfig, solve
from .stepsizes import Diminishing

_H_SLACK = 1e-9


class Check(NamedTuple):
    """A check's function, whether it reads f*, and its hypothesis or None."""

    function: object
    reads_f_star: bool
    hypothesis: tuple = None  # (report.meta key, the value it must hold, wording)


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


def _column(records, name):
    return np.array([getattr(r, name) for r in records])


def _steps(records):
    """Indices i of a trace's steps: record i is not ``stop`` and record i + 1 is that of k + 1."""
    ks = _column(records, "k")
    return np.flatnonzero((ks[1:] == ks[:-1] + 1)
                          & np.array([r.kind != "stop" for r in records[:-1]], dtype=bool))


def _verdict(name, ks, slack):
    """Check ``name`` on the judged ``ks``: its bound holds where ``slack >= 0``, so a NaN
    slack fails.  The margin is the least slack (inf when no k is judged, NaN when a
    slack is NaN); a failure names the first k whose slack fails."""
    failed = ~(slack >= 0.0)
    first = int(ks[np.argmax(failed)]) if failed.any() else None
    return CheckResult(name, first is None, float(np.min(slack)) if slack.size else np.inf, first)


def _below(name, ks, values, bound):
    """Check ``name``: values[k] <= bound(k) + 1e-9 at every recorded k >= 1."""
    judged = ks >= 1
    ks = ks[judged]
    # the negated excess: a value exactly on its bound reads margin -0.0
    return _verdict(name, ks, -(values[judged] - (bound(ks) + _H_SLACK)))


def _bounded_growth(name, ks, weighted):
    """Check ``name``: ``weighted`` past k = 20 stays within twice its largest
    value over k = 1..20 (plus 1e-9).  A NaN over k = 1..20 sets no limit, so
    it is judged too, and fails."""
    window = (ks >= 1) & (ks <= 20)
    head = weighted[window]
    if head.size == 0:
        raise InputError("trace too short")
    judged = (ks > 20) | (window & np.isnan(weighted))
    return _verdict(name, ks[judged], 2.0 * float(np.max(head)) + _H_SLACK - weighted[judged])


def verify_sublinear_bound(report):
    """h_k <= 2 L D^2 / (k + 2) for every recorded k >= 1."""
    L, D = report.meta["L"], report.meta["D"]
    return _below("sublinear_bound", _column(report.records, "k"), report.primal_gaps(),
                  lambda k: 2.0 * L * D ** 2 / (k + 2.0))


def fit_geometric_rate(report, good_only=True):
    """Least-squares geometric fit of h over the trailing half of the trace.

    The abscissa is the cumulative good-step count when ``good_only`` is
    set, the iteration index otherwise; the window truncates at the first
    nonpositive gap.  q is inf when the fitted gap grows past the float range
    in one step.
    """
    hs = report.primal_gaps()
    end = np.flatnonzero(hs <= 0.0)
    hs = hs[:end[0]] if end.size else hs
    if hs.size < 3:
        raise InputError("trace too short for a rate fit")
    good = _column(report.records[:hs.size], "good")
    ts = np.cumsum(good) - good if good_only else np.arange(hs.size)
    lo = hs.size // 2
    y = np.log(hs[lo:])
    x = ts[lo:].astype(float)
    if np.ptp(x) == 0.0:
        raise InputError("no steps of the requested type in the window")
    slope, intercept = np.polyfit(x, y, 1)
    pred = slope * x + intercept
    ss_res = float(np.sum((y - pred) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else max(0.0, 1.0 - ss_res / ss_tot)
    with np.errstate(over="ignore"):
        q = float(np.exp(slope))
    return RateFit(q=q, r2=r2, window=(lo, hs.size))


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
    ks, hs = _column(report.records, "k"), report.primal_gaps()
    judged = ks <= n - 2
    ks = ks[judged]
    return _verdict("lower_bound", ks, hs[judged] - (1.0 / (ks + 1.0) - 1.0 / n - 1e-12))


def inexact_rate_check(report):
    """h_k <= 2 kappa (1 + delta) / (k + 2) for decaying-error oracle runs."""
    require("inexact_rate", report.meta)
    scale = 2.0 * report.meta["inexact_kappa"] * (1.0 + report.meta["inexact_delta"])
    return _below("inexact_rate", _column(report.records, "k"), report.primal_gaps(),
                  lambda k: scale / (k + 2.0))


def strongly_convex_domain_check(report):
    """k^2 h_k boundedness on ball instances; geometric rate when the gradient
    is bounded away from zero."""
    require("strongly_convex_domain", report.meta)
    ks = _column(report.records, "k")
    result = _bounded_growth("strongly_convex_domain", ks,
                             ks.astype(float) ** 2 * report.primal_gaps())
    if result.ok and report.meta.get("grad_lower_bound", 0.0) > 0.0:
        q = fit_geometric_rate(report, good_only=True).q
        if not q < 1.0:
            return CheckResult("strongly_convex_domain", False, float(1.0 - q))
    return result


def min_gap_rate_check(report):
    """min_{i<=k} G(x_i) <= (9 kappa / 2k) (1 + 0.1) for diminishing FW, with kappa = L D^2."""
    kappa = report.meta["L"] * report.meta["D"] ** 2
    running = np.minimum.accumulate(_column(report.records, "gap"))
    return _below("min_gap_rate", _column(report.records, "k"), running,
                  lambda k: 9.0 * kappa / (2.0 * k) * (1.0 + 0.1))


def nonconvex_min_gap_check(report):
    """Boundedness proxy for min-gap * sqrt(k) on non-convex runs (``_bounded_growth``);
    a failure names the first k past the bound."""
    ks = _column(report.records, "k")
    running = np.minimum.accumulate(_column(report.records, "gap"))
    return _bounded_growth("nonconvex_min_gap", ks, running * np.sqrt(np.maximum(ks, 1)))


def per_step_guarantees(report):
    """Per-step decrease and halving guarantees along a Lipschitz-rule trace.

    For each step: one with alpha < alpha_max must satisfy
    f_next <= f - <g,d>^2 / (2 L ||d||^2); a full FW step (alpha = 1) must
    satisfy h_next <= min(L ||d||^2, h) / 2, judged when f* is known.  Both
    with 1e-10 slack.  Requires a contiguous trace (record_every = 1).
    """
    require("per_step_guarantees", report.meta)
    L, recs = report.meta["L"], report.records
    i = _steps(recs)
    alpha, alpha_max = _column(recs, "alpha")[i], _column(recs, "alpha_max")[i]
    short = (alpha > 0.0) & (alpha < alpha_max)
    full = ((alpha == 1.0) & ~short & (_column(recs, "kind")[i] == "FW")
            & (report.meta.get("f_star") is not None))
    # Python's scalar ** squares these: numpy's vector square can round otherwise in the last bit
    dg2, dn2 = (np.array([getattr(r, name) ** 2 for r in recs]) for name in ("dg", "dnorm"))
    f, slack = _column(recs, "f"), np.empty(i.size)
    j = i[short]
    slack[short] = f[j] - dg2[j] / (2.0 * L * dn2[j]) + 1e-10 - f[j + 1]
    if full.any():
        h, j = report.primal_gaps(), i[full]
        slack[full] = 0.5 * np.minimum(L * dn2[j], h[j]) + 1e-10 - h[j + 1]
    judged = short | full
    return _verdict("per_step_guarantees", _column(recs, "k")[i[judged]], slack[judged])


def affine_invariance_harness(instance, p, variants=("FW", "AFW", "PFW", "EFW"),
                              iters=200, seed=0):
    """Max trajectory deviation ||y_k - P x_k|| under an invertible map P.

    Runs each variant with the diminishing rule on the simplex instance and
    on its image (vertex-hull region P e_i, objective composed with the
    inverse map), starting both at corresponding vertices.  Index-based tie
    breaking makes the trajectories agree up to rounding.
    """
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


def interior_contraction_check(report):
    """Good steps must contract h by 1 - (mu/L) (dist/D)^2 (plus 1e-6 slack).

    Applies to interior-optimum runs; ratios are judged only while the
    incoming gap exceeds 1e-13 to stay clear of float cancellation.
    """
    meta = report.meta
    dist = meta.get("interior_distance")
    if dist is None:
        raise InputError("report lacks the interior distance")
    rate = 1.0 - (meta["mu"] / meta["L"]) * (dist / meta["D"]) ** 2
    recs, h = report.records, report.primal_gaps()
    i = _steps(recs)
    i = i[_column(recs, "good")[i] & ~(h[i] <= 1e-13)]  # a NaN h is judged, and fails
    return _verdict("interior_contraction", _column(recs, "k")[i], rate + 1e-6 - h[i + 1] / h[i])


# the checks by name: the CLI validates, fetches f* and dispatches from here,
# and each function refuses a report outside its hypothesis with ``require``
CHECKS = {
    "sublinear_bound": Check(verify_sublinear_bound, True),
    "lower_bound": Check(lower_bound_check, True,
                         ("family", "simplex_distance", "the simplex distance family")),
    "inexact_rate": Check(inexact_rate_check, True,
                          ("inexact_mode", "decaying", "a decaying inexact oracle")),
    "strongly_convex_domain": Check(strongly_convex_domain_check, True,
                                    ("family", "ball_quadratic", "the ball quadratic family")),
    "min_gap_rate": Check(min_gap_rate_check, False),
    "nonconvex_min_gap": Check(nonconvex_min_gap_check, False),
    "per_step_guarantees": Check(per_step_guarantees, True,
                                 ("stepsize", "lipschitz", "the Lipschitz rule")),
}
