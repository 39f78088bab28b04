"""Wolfe's corral method: the fully corrective step's reoptimisation over the
active atoms, and the min-norm point of explicit vertices, which is that step
run on 1/2 ||x||^2.

The fully corrective Frank-Wolfe step (EFW) minimizes phi(lam) = f(V lam)
over the weights of a few atoms.  On weights lam that sum to one the
gradient of such a quadratic phi is ``mat @ lam`` with ``mat[i, j] = <v_i,
grad(v_j)>`` (the Gram matrix of the vertices when f = 1/2 ||x||^2).  A
minor cycle (``corral_step``) moves to the stationary point of phi on the
corral's affine hull (the KKT system of ``_affine_min_coeffs``), clipping
the move at the boundary of the hull and evicting atoms whose affine
coefficient is nonpositive.  Where phi is not convex along that move, the
cycle runs down the descending side to the boundary instead, so no cycle
raises phi.  The major cycle inserts the atom of least gradient entry, until
the weights' FW gap is within its tolerance (``corral_weights``).

Wolfe's method (Wolfe 1976) is EFW on the ``min_norm_point`` instance
(``solve_wolfe_mnp``): each round adds the vertex s minimizing <x, s> and
corrects, and the run stops when <x, x - s> <= gap_tol or no round can move
x.
"""

from dataclasses import replace

import numpy as np

from .atoms import ActiveSet, DenseAtom
from .errors import InputError
from .objectives import ProblemInstance, ShiftedNormSquare
from .regions import VertexHull
from .solvers import SolverConfig, _Corrective

_COEFF_ZERO = 1e-12


def _affine_min_coeffs(mat):
    """(beta, None): a stationary point of phi on sum beta = 1, or (None, d).

    Solves the KKT system [2 mat, 1; 1^T, 0] (beta, nu) = (0, 1).  Singular
    systems go through least squares (any affine representation of a
    stationary point works).  If the constraint still cannot be met, phi
    has no stationary point on the affine hull: it falls without bound
    along a direction of zero curvature, and the system's null vector gives
    that direction d (with sum d = 0) in place of beta.
    """
    k = mat.shape[0]
    kkt = np.zeros((k + 1, k + 1))
    kkt[:k, :k] = 2.0 * mat
    kkt[:k, k] = 1.0
    kkt[k, :k] = 1.0
    rhs = np.zeros(k + 1)
    rhs[k] = 1.0
    scale = 1e-8 * max(1.0, np.abs(mat).max())
    try:
        sol = np.linalg.solve(kkt, rhs)
        residual = kkt @ sol - rhs
        if np.max(np.abs(residual)) <= scale:
            return sol[:k], None
    except np.linalg.LinAlgError:
        pass
    sol, *_ = np.linalg.lstsq(kkt, rhs, rcond=None)
    residual = kkt @ sol - rhs
    if np.max(np.abs(residual)) <= scale:
        return sol[:k], None
    d = np.linalg.svd(kkt)[2][-1, :k]
    return None, d - d.mean()


def corral_step(mat, lam):
    """One minor cycle on a corral: ``mat`` is its k x k matrix, lam its weights.

    Returns (lam, keep).  keep is None when the corral is settled: lam is
    the affine stationary point beta, all of whose coefficients are
    positive, or the minimum along the ray below, or a point the steps
    below cannot descend from.  Otherwise keep marks the atoms that stay
    and lam holds their weights, renormalized: lam moved toward beta (or
    along the ray) until a coefficient reached zero, or took the
    Frank-Wolfe step below.

    Moving to beta lowers phi only where phi curves up along d = beta - lam.
    Where d^T mat d <= 0 (f not convex there), or phi has no stationary
    point on the affine hull, the cycle runs along the descending sign of d
    (of the zero-curvature direction in the latter case) to the boundary of
    the hull, stopping short only at a minimum along the way.  If a weight-0
    atom blocks that ray, it steps toward the corral's atom of least
    gradient entry instead, as a Frank-Wolfe step with exact line search.
    No cycle raises phi.
    """
    beta, d = _affine_min_coeffs(mat)
    if beta is not None:
        d = beta - lam
        d -= d.mean()  # sum d = 0 to rounding in |d|, so mat's linear part drops out
        if d @ (mat @ d) > 0.0 or not (d < 0.0).any():
            if (beta > _COEFF_ZERO).all():
                return beta, None
            shrink = beta <= _COEFF_ZERO
            denom = lam[shrink] - beta[shrink]
            with np.errstate(divide="ignore", invalid="ignore"):
                ratios = np.where(denom > 0, lam[shrink] / denom, np.inf)
            theta = float(min(1.0, np.min(ratios)))
            lam = (1.0 - theta) * lam + theta * beta
            return _evict(lam, np.flatnonzero(shrink)[int(np.argmin(ratios))])
    grad = mat @ lam
    slope = grad @ d
    if slope > 0.0:
        d, slope = -d, -slope
    fall = d < 0.0
    ratios = np.full(d.size, np.inf)
    ratios[fall] = lam[fall] / -d[fall]
    drop = int(np.argmin(ratios))
    t = ratios[drop]
    ray = t > 0.0
    if not ray:
        j = int(grad.argmin())
        d = -lam
        d[j] += 1.0
        slope = grad[j] - grad @ lam
        if not slope < 0.0:
            return lam, None
        t = 1.0
    curv = d @ (mat @ d)
    if curv > 0.0 and -slope < t * curv:
        lam = lam + (-slope / curv) * d
        # on the ray this is a minimum along the only direction left; after
        # a Frank-Wolfe step every weight is positive and the cycles go on
        return (lam, None) if ray else (lam, np.ones(lam.size, dtype=bool))
    return _evict(lam + t * d, drop)


def _evict(lam, drop):
    """Zero the weights at rounding level, forcing ``drop`` out if none is; renormalize."""
    lam[lam <= _COEFF_ZERO] = 0.0
    keep = lam > 0.0
    if keep.all():
        keep[drop] = False  # the ratio-defining atom leaves despite rounding
    lam = lam[keep]
    return lam / lam.sum(), keep


def corral_weights(mat, lam, tol, max_cycles):
    """Minimize phi over the weight simplex by the corral method, from lam.

    ``mat @ lam`` is phi's gradient at weights lam (see the module
    docstring).  Minor cycles first settle the corral of lam's positive
    weights; each major cycle then adds the atom of least gradient entry,
    until the weights' FW gap ``(mat @ lam) @ lam - min(mat @ lam)`` is at
    most ``tol``, the least entry already belongs to the corral (the gap is
    then at its rounding floor), or ``max_cycles`` minor cycles have run.
    Returns (lam, minor cycles run).
    """
    lam = np.array(lam, dtype=float)
    corral = np.flatnonzero(lam > 0.0)
    cycles = 0
    while cycles < max_cycles:
        cycles += 1
        sub, keep = corral_step(mat[np.ix_(corral, corral)], lam[corral])
        if keep is not None:
            lam[corral[~keep]] = 0.0
            corral = corral[keep]
        lam[corral] = sub
        if keep is not None:
            continue
        grad = mat @ lam
        j = int(grad.argmin())
        if grad @ lam - grad[j] <= tol or lam[j] > 0.0:
            break
        corral = np.append(corral, j)
    return lam, cycles


def solve_wolfe_mnp(vertices, config):
    """Min-norm point of conv(vertices); returns a SolveReport.

    Wolfe's method is EFW on f = 1/2 ||x||^2 over the vertices' hull (the
    ``min_norm_point`` instance), started from the vertex of least norm:
    each round the LMO's vertex joins the corral and ``corral_weights``
    drives the weights' FW gap to WolfeMNP's corral tolerance, 0.1 * gap_tol
    (``solvers.CAPABILITIES``).  Records hold f and the
    gap <x, x - s>, one per round; the run ends at the gap tolerance, at
    max_iter, or where no round can move x (the driver's stationary rule).
    The meta adds the corral as point indices and its weights.  Its D is
    NaN: the run never reads the diameter, an O(k^2 n) pass, so it is not
    computed (``solve`` on a built instance reports that instance's D).
    """
    region = VertexHull(vertices)  # which refuses anything but a finite (k, n) array
    pts = region.points
    if len(pts) > 10 ** 4:
        raise InputError("vertex list too large")
    # the min_norm_point family's instance, without its D
    instance = ProblemInstance(ShiftedNormSquare(np.zeros(region.n), scale=0.5), region,
                               1.0, 1.0, np.nan, family="min_norm_point")
    start = int(np.argmin(np.linalg.norm(pts, axis=1)))
    report = _Corrective.run(instance, replace(config, variant="WolfeMNP"), None,
                             ActiveSet.from_atom(DenseAtom(pts[start].copy())))
    active = report.active_set
    # the LMO's atoms are copies of rows: each is found again by exact equality
    corral = [int((pts == a.vector).all(axis=1).argmax()) for a in active.atoms]
    report.meta.update(corral=corral, weights=active.weights.copy())
    return report


def hull_distance(points_a, points_b):
    """Euclidean distance between the convex hulls of two vertex sets.

    Computed as the norm of the min-norm point of the Minkowski difference,
    to a gap of 1e-14 times the largest squared coordinate difference (at least 1).
    """
    a = np.asarray(points_a, dtype=float)
    b = np.asarray(points_b, dtype=float)
    diffs = (a[:, None, :] - b[None, :, :]).reshape(-1, a.shape[1])
    scale = max(1.0, float(np.max(np.abs(diffs))) ** 2)
    config = SolverConfig(variant="WolfeMNP", max_iter=10 * len(diffs) + 10,
                          gap_tol=1e-14 * scale)
    report = solve_wolfe_mnp(diffs, config)
    return float(np.linalg.norm(report.meta["x_final"]))
