"""Stepsize rules shared by all solvers.

Six rules, each an object with one ``step`` method (its arguments are
documented at ``compute_step``): the diminishing 2/(k+2) schedule and its
block version 2m/(k+2m), exact line search (closed form on quadratics,
safeguarded Armijo otherwise), Armijo backtracking with sufficient
decrease, the Lipschitz-constant step -<g,d>/(L||d||^2), and that step with
a backtracking estimate of L for when L is unknown.  ``RULES`` maps each
rule's name to its class.  The exact, Armijo and backtracking rules see f
along the direction through ``_line``: on quadratics in closed form from
the value and gradient the solver already holds and one curvature value,
so they evaluate nothing, and otherwise by evaluating f at each probe.
"""

import math
from dataclasses import dataclass, field
from typing import ClassVar, Optional

import numpy as np

from .errors import ContractViolation, InputError, NumericalError


def _slope(g, d, slope):
    """<g,d>, or the caller's ``slope``, which stands for a nonzero d's <g,d>."""
    if slope is None:
        if not np.asarray(d).any():
            raise InputError("direction must be nonzero")
        slope = float(np.vdot(g, d))
    return slope


def _ascends(slope, g, d):
    """True when the slope <g,d> is positive past rounding: d is an ascent direction."""
    return slope > 0.0 and \
        slope > 1e-12 * max(np.linalg.norm(np.ravel(g)) * np.linalg.norm(np.ravel(d)), 1e-300)


def _line(obj, x, d, f, slope, ad):
    """(phi, c): phi(alpha) = f(x + alpha d), and the curvature c = <d, Hessian d>.

    On objectives exposing ``curvature_along`` (quadratics) phi is the
    closed form f + alpha <g,d> + alpha^2 c / 2 from the value f and the
    slope the solver holds; ``ad`` (the image A d, when the solver tracks
    A x) makes c an O(m) product.  Otherwise phi evaluates f at each probe
    and c is None.
    """
    curvature = getattr(obj, "curvature_along", None)
    if curvature is None:
        return (lambda alpha: obj.eval(x + alpha * d)[0]), None
    c = curvature(d) if ad is None else curvature(d, ad=ad)
    return (lambda alpha: f + alpha * slope + 0.5 * alpha * alpha * c), c


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


@dataclass
class Diminishing:
    """2/(k+2), which is 1 at k = 0."""

    name: ClassVar[str] = "diminishing"

    def step(self, k, obj, x, g, d, alpha_max, f, ad=None, slope=None):
        if k < 0:
            raise InputError("iteration index must be nonnegative")
        return min(2.0 / (k + 2.0), alpha_max)


@dataclass
class BlockDiminishing:
    """2m/(k+2m) schedule for m blocks; m None is the block count under BCFW, 1 elsewhere."""

    m: Optional[int] = None
    name: ClassVar[str] = "block_diminishing"

    def step(self, k, obj, x, g, d, alpha_max, f, ad=None, slope=None):
        m = 1 if self.m is None else self.m
        return min(2.0 * m / (k + 2.0 * m), alpha_max)


@dataclass
class ExactLine:
    """Smallest minimizer of f along d over [0, alpha_max]; near-exact Armijo off quadratics.

    Positive curvature gives the clamped Newton step; otherwise the cheaper
    endpoint wins, preferring 0 on ties.
    """

    name: ClassVar[str] = "exact"

    def step(self, k, obj, x, g, d, alpha_max, f, ad=None, slope=None):
        slope = _slope(g, d, slope)
        phi, c = _line(obj, x, d, f, slope, ad)
        if c is None:
            return _armijo(phi, f, slope, alpha_max, 0.9, 0.45)
        if not alpha_max > 0:
            raise InputError("alpha_max must be positive")
        if c > 0.0:
            return min(max(-slope / c, 0.0), alpha_max)
        return 0.0 if f <= phi(alpha_max) else float(alpha_max)


@dataclass
class Armijo:
    """Largest delta^m * alpha_max passing the sufficient decrease test with fraction gamma."""

    delta: float = 0.5
    gamma: float = 0.1
    name: ClassVar[str] = "armijo"

    def __post_init__(self):
        if not 0.0 < self.delta < 1.0:
            raise InputError("armijo shrink factor must lie in (0, 1)")
        if not 0.0 < self.gamma < 0.5:
            raise InputError("armijo slope fraction must lie in (0, 1/2)")

    def step(self, k, obj, x, g, d, alpha_max, f, ad=None, slope=None):
        slope = _slope(g, d, slope)
        phi, _ = _line(obj, x, d, f, slope, ad)
        return _armijo(phi, f, slope, alpha_max, self.delta, self.gamma)


@dataclass
class LipschitzDep:
    """min(-<g,d>/(L ||d||^2), alpha_max); 0 on a flat direction, refused on an ascent one."""

    L: float = 1.0
    name: ClassVar[str] = "lipschitz"

    def __post_init__(self):
        if not self.L > 0:
            raise InputError("L must be positive")

    def step(self, k, obj, x, g, d, alpha_max, f, ad=None, slope=None):
        slope = _slope(g, d, slope)
        if not alpha_max > 0:
            raise InputError("alpha_max must be positive")
        if _ascends(slope, g, d):
            raise ContractViolation("ascent direction passed to the Lipschitz rule")
        if slope >= 0.0:
            return 0.0
        return min(-slope / (self.L * float(np.vdot(d, d))), alpha_max)


@dataclass
class BacktrackingL:
    """The Lipschitz step with a doubling estimate ``lhat`` of L.

    Each step starts from the last estimate halved once and doubles it
    until the quadratic model at the induced step overestimates f; the
    accepted estimate is kept for the next step.
    """

    L0: float = 1.0
    name: ClassVar[str] = "backtracking"
    lhat: float = field(init=False)

    def __post_init__(self):
        if not self.L0 > 0:
            raise InputError("initial estimate must be positive")
        self.lhat = self.L0

    def step(self, k, obj, x, g, d, alpha_max, f, ad=None, slope=None):
        slope = _slope(g, d, slope)
        if not slope < 0.0:
            if _ascends(slope, g, d):
                raise ContractViolation("ascent direction passed to backtracking")
            return 0.0
        phi, _ = _line(obj, x, d, f, slope, ad)
        dd = float(np.vdot(d, d))
        lhat = max(self.lhat * 0.5, 1e-12)
        for _ in range(60):
            alpha = min(-slope / (lhat * dd), alpha_max)
            model = f + alpha * slope + 0.5 * lhat * alpha * alpha * dd
            if phi(alpha) <= model + 1e-12 * max(1.0, abs(f)):
                self.lhat = lhat
                return alpha
            lhat *= 2.0
        raise NumericalError("backtracking could not certify a Lipschitz estimate")


RULES = {rule.name: rule for rule in (Diminishing, BlockDiminishing, ExactLine, Armijo,
                                      LipschitzDep, BacktrackingL)}


def compute_step(rule, k, obj, x, g, d, alpha_max, f, ad=None, slope=None):
    """``rule.step``: the step of size alpha in [0, alpha_max] at iteration k.

    ``f`` and ``g`` are the value and gradient at x, which the solver
    already holds.  ``ad`` is the image A d when the solver tracks A x (see
    ``_line``).  ``slope``, when given, is ``float(np.vdot(g, d))`` for a d
    the caller has checked is nonzero; the rules then take it instead of
    computing it again.  The solver loops call this one name for every step.
    """
    return rule.step(k, obj, x, g, d, alpha_max, f, ad=ad, slope=slope)


def rule_from_name(name, L=None):
    """Stepsize rule from its ``RULES`` name; L seeds the Lipschitz rules."""
    rule = RULES.get(name) if isinstance(name, str) else None
    if rule is None:
        raise InputError("unknown stepsize rule %r" % (name,))
    if rule is LipschitzDep and L is None:
        raise InputError("the Lipschitz rule needs a constant")
    kwargs = {LipschitzDep: {"L": L}, BacktrackingL: {"L0": L or 1.0}}
    return rule(**kwargs.get(rule, {}))
