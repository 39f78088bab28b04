"""Stepsize rules shared by all solvers.

Four rules: the diminishing 2/(k+2) schedule, exact line search (closed
form on quadratics, safeguarded Armijo otherwise), Armijo backtracking with
sufficient decrease, and the Lipschitz-constant step -<g,d>/(L||d||^2),
plus a backtracking estimator for L when it is unknown.  On quadratics the
solvers' steps evaluate nothing: the exact, Armijo and backtracking rules
probe f along the direction in closed form from the value and gradient the
solver already holds and one curvature value.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractViolation, InputError, NumericalError


@dataclass
class Diminishing:
    name: str = "diminishing"


@dataclass
class ExactLine:
    name: str = "exact"


@dataclass
class Armijo:
    delta: float = 0.5
    gamma: float = 0.1
    name: str = "armijo"

    def __post_init__(self):
        if not 0.0 < self.delta < 1.0:
            raise InputError("armijo shrink factor must lie in (0, 1)")
        if not 0.0 < self.gamma < 0.5:
            raise InputError("armijo slope fraction must lie in (0, 1/2)")


@dataclass
class LipschitzDep:
    L: float = 1.0
    name: str = "lipschitz"

    def __post_init__(self):
        if not self.L > 0:
            raise InputError("L must be positive")


@dataclass
class BacktrackingL:
    L0: float = 1.0
    up: float = 2.0
    down: float = 0.5
    name: str = "backtracking"
    lhat: float = field(init=False)

    def __post_init__(self):
        if not self.L0 > 0:
            raise InputError("initial estimate must be positive")
        self.lhat = self.L0


@dataclass
class BlockDiminishing:
    """2m/(k+2m) schedule for block coordinate runs with m blocks."""

    m: int = 1
    name: str = "block_diminishing"


def stepsize_diminishing(k):
    """2/(k+2); equals 1 at k = 0."""
    if k < 0:
        raise InputError("iteration index must be nonnegative")
    return 2.0 / (k + 2.0)


def stepsize_lipschitz(g, d, L, alpha_max):
    """min(-<g,d>/(L ||d||^2), alpha_max); requires a descent direction."""
    g = np.asarray(g, dtype=float)
    d = np.asarray(d, dtype=float)
    if not np.any(d):
        raise InputError("direction must be nonzero")
    if not (L > 0 and alpha_max > 0):
        raise InputError("L and alpha_max must be positive")
    slope = float(np.vdot(g, d))
    scale = np.linalg.norm(g.ravel()) * np.linalg.norm(d.ravel())
    if slope > 1e-12 * max(scale, 1e-300):
        raise ContractViolation("ascent direction passed to the Lipschitz rule")
    if slope >= 0.0:
        return 0.0
    return min(-slope / (L * float(np.vdot(d, d))), alpha_max)


def _armijo(phi, f0, slope, alpha_max, delta, gamma):
    """Largest delta^m * alpha_max with phi(alpha) <= f0 + gamma * alpha * slope.

    After 101 probes the search goes on only while the required decrease
    is still visible in floating point (f0 + gamma alpha slope < f0): a
    descent direction with a tiny slope can need more probes, but below
    that floor no probe can show a sufficient decrease.
    """
    alpha = float(alpha_max)
    for _ in range(101):
        if phi(alpha) <= f0 + gamma * alpha * slope:
            return alpha
        alpha *= delta
    while alpha < math.inf and f0 + gamma * alpha * slope < f0:
        if phi(alpha) <= f0 + gamma * alpha * slope:
            return alpha
        alpha *= delta
    raise NumericalError("armijo backtracking hit its floor; direction may not descend")


def _backtrack(rule, phi, f0, slope, dd, alpha_max):
    """Lipschitz-rule step with the doubling estimate of ``stepsize_backtracking_L``."""
    lhat = max(rule.lhat * rule.down, 1e-12)
    for _ in range(60):
        alpha = min(-slope / (lhat * dd), alpha_max)
        model = f0 + alpha * slope + 0.5 * lhat * alpha * alpha * dd
        if phi(alpha) <= model + 1e-12 * max(1.0, abs(f0)):
            rule.lhat = lhat
            return alpha, lhat
        lhat *= rule.up
    raise NumericalError("backtracking could not certify a Lipschitz estimate")


def _probe(obj, x, d):
    """phi(alpha) = f(x + alpha d) by a full evaluation."""
    return lambda alpha: obj.eval(x + alpha * d)[0]


def _model(f0, slope, c):
    """phi(alpha) = f0 + alpha <g,d> + alpha^2 c / 2: f along d when f is quadratic."""
    return lambda alpha: f0 + alpha * slope + 0.5 * alpha * alpha * c


def stepsize_armijo(obj, x, d, alpha_max, delta=0.5, gamma=0.1):
    """Largest delta^m * alpha_max satisfying the sufficient decrease test."""
    d = np.asarray(d, dtype=float)
    if not np.any(d):
        raise InputError("direction must be nonzero")
    f0, g = obj.eval(x)
    return _armijo(_probe(obj, x, d), f0, float(np.vdot(g, d)), alpha_max, delta, gamma)


def _backtracking_descends(slope, g, d):
    """False for a flat direction (the rule then steps 0); raises on an ascent one."""
    if slope < 0.0:
        return True
    if slope > 1e-12 * max(np.linalg.norm(g.ravel()) * np.linalg.norm(d.ravel()), 1e-300):
        raise ContractViolation("ascent direction passed to backtracking")
    return False


def stepsize_backtracking_L(rule, g, d, alpha_max, obj, x):
    """Step via the Lipschitz rule with a doubling estimate of L.

    Starts from the current estimate shrunk once by ``rule.down`` and doubles
    by ``rule.up`` until the quadratic model at the induced step overestimates
    f.  Returns (alpha, accepted_L) and stores the estimate on the rule.
    """
    g = np.asarray(g, dtype=float)
    d = np.asarray(d, dtype=float)
    if not np.any(d):
        raise InputError("direction must be nonzero")
    slope = float(np.vdot(g, d))
    if not _backtracking_descends(slope, g, d):
        return 0.0, rule.lhat
    f0, _ = obj.eval(x)
    return _backtrack(rule, _probe(obj, x, d), f0, slope, float(np.vdot(d, d)), alpha_max)


def _quadratic_step(rule, obj, g, d, alpha_max, f, ad, slope):
    """Exact, Armijo or backtracking step on a quadratic, without evaluating f.

    Along d a quadratic is phi(alpha) = f + alpha <g,d> + alpha^2 c / 2 with
    c = ``obj.curvature_along(d)``, so every probe is closed form; ``ad``
    (the image A d, when the solver tracks A x) makes c an O(m) product.
    A given ``slope`` stands for a nonzero d's <g,d>, as ``compute_step``
    documents.
    """
    if slope is None:
        if not np.asarray(d).any():
            raise InputError("direction must be nonzero")
        slope = float(np.vdot(g, d))
    if rule.name == "backtracking" and not _backtracking_descends(slope, g, d):
        return 0.0
    c = obj.curvature_along(d) if ad is None else obj.curvature_along(d, ad=ad)
    phi = _model(f, slope, c)
    if rule.name == "exact":
        if not alpha_max > 0:
            raise InputError("alpha_max must be positive")
        if c > 0.0:
            return min(max(-slope / c, 0.0), alpha_max)
        return 0.0 if f <= phi(alpha_max) else float(alpha_max)
    if rule.name == "armijo":
        return _armijo(phi, f, slope, alpha_max, rule.delta, rule.gamma)
    return _backtrack(rule, phi, f, slope, float(np.vdot(d, d)), alpha_max)[0]


def compute_step(rule, k, obj, x, g, d, alpha_max, f, ad=None, slope=None):
    """Dispatch a stepsize rule; returns alpha in [0, alpha_max].

    ``f`` and ``g`` are the value and gradient at x, which the solver
    already holds.  On objectives exposing ``curvature_along`` (quadratics)
    the exact, Armijo and backtracking rules probe f along d in closed form
    and evaluate nothing; ``ad`` is the image A d when the solver tracks
    A x (see ``_quadratic_step``).  ``slope``, when given, is
    ``float(np.vdot(g, d))`` for a d the caller has checked is nonzero;
    the closed-form rules then take it instead of computing it again.
    """
    if rule.name == "diminishing":
        return min(stepsize_diminishing(k), alpha_max)
    if rule.name == "block_diminishing":
        m = rule.m
        return min(2.0 * m / (k + 2.0 * m), alpha_max)
    if rule.name == "lipschitz":
        return stepsize_lipschitz(g, d, rule.L, alpha_max)
    if rule.name not in ("exact", "armijo", "backtracking"):
        raise InputError("unknown stepsize rule %r" % rule.name)
    if getattr(obj, "curvature_along", None) is not None:
        return _quadratic_step(rule, obj, g, d, alpha_max, f, ad, slope)
    if rule.name == "armijo":
        return stepsize_armijo(obj, x, d, alpha_max, rule.delta, rule.gamma)
    if rule.name == "backtracking":
        alpha, _ = stepsize_backtracking_L(rule, g, d, alpha_max, obj, x)
        return alpha
    # non-quadratic exact line search: near-exact Armijo
    return stepsize_armijo(obj, x, d, alpha_max, delta=0.9, gamma=0.45)


def rule_from_name(name, L=None, m=1):
    """Stepsize rule from its CLI name."""
    if name == "diminishing":
        return Diminishing()
    if name == "exact":
        return ExactLine()
    if name == "armijo":
        return Armijo()
    if name == "lipschitz":
        if L is None:
            raise InputError("the Lipschitz rule needs a constant")
        return LipschitzDep(L)
    if name == "backtracking":
        return BacktrackingL(L0=L if L else 1.0)
    if name == "block_diminishing":
        return BlockDiminishing(m=m)
    raise InputError("unknown stepsize rule %r" % name)
