"""Feasible regions and their linear minimization oracles.

Every region answers ``lmo(g)`` with an extreme point minimizing ``<g, z>``
(ties broken toward the lowest coordinate/vertex index), knows its own
diameter and maximal feasible step along a direction, and can test
membership.  The module also provides the greedy oracle for submodular
base polytopes, the Frank-Wolfe gap, minimal-face selectors used by the
in-face solver, a brute-force pyramidal width, and a wrapper that degrades
an exact oracle into an adversarial inexact one.
"""

import itertools

import numpy as np

from .atoms import DenseAtom, RankOneAtom, SignedUnitAtom
from .errors import CapabilityError, ContractViolation, InputError, NumericalError

_POWER_ITER_CAP = 5000
_POWER_ITER_TOL = 1e-10
_POWER_ITER_SEED = 20210907  # fixed so the 1-SVD oracle is a pure function


def _check_gradient(g, shape):
    g = np.asarray(g, dtype=float)
    if g.shape != shape:
        raise InputError("gradient shape %s does not match region %s" % (g.shape, shape))
    if not np.isfinite(g).all():
        raise InputError("gradient has non-finite entries")
    return g


class Simplex:
    """Standard simplex: x >= 0, sum x = 1."""

    def __init__(self, n):
        if n < 1:
            raise InputError("simplex dimension must be >= 1")
        self.n = int(n)
        self.shape = (self.n,)

    def lmo(self, g):
        g = _check_gradient(g, self.shape)
        return SignedUnitAtom(int(np.argmin(g)), +1, 1.0, self.n)

    def diameter(self):
        return np.sqrt(2.0) if self.n > 1 else 0.0

    def contains(self, x, tol=1e-9):
        x = np.asarray(x, dtype=float)
        return x.shape == self.shape and np.all(x >= -tol) and abs(x.sum() - 1.0) <= tol

    def max_step(self, x, d):
        x, d = _step_inputs(x, d, self.shape)
        if abs(d.sum()) > 1e-9 * max(1.0, np.abs(d).max()):
            return 0.0
        neg = d < 0
        if not np.any(neg):
            return 0.0
        return float(np.min(x[neg] / -d[neg]))

    def vertices(self):
        return np.eye(self.n)


class L1Ball:
    """Scaled cross-polytope: ||x||_1 <= tau."""

    def __init__(self, tau, n):
        if not tau > 0:
            raise InputError("tau must be positive")
        self.tau = float(tau)
        self.n = int(n)
        self.shape = (self.n,)

    def lmo(self, g):
        g = _check_gradient(g, self.shape)
        i = int(np.argmax(np.abs(g)))
        sign = 1 if g[i] <= 0 else -1
        return SignedUnitAtom(i, sign, self.tau, self.n)

    def diameter(self):
        return 2.0 * self.tau

    def contains(self, x, tol=1e-9):
        x = np.asarray(x, dtype=float)
        return x.shape == self.shape and np.abs(x).sum() <= self.tau + tol

    def max_step(self, x, d):
        x, d = _step_inputs(x, d, self.shape)
        # ||x + a d||_1 is piecewise linear convex in a; walk its breakpoints.
        phi0 = np.abs(x).sum()
        if phi0 > self.tau + 1e-9:
            raise ContractViolation("x is infeasible")
        bps = sorted({float(-xi / di) for xi, di in zip(x, d)
                      if di != 0.0 and -xi / di > 0.0})
        prev_a, prev_phi = 0.0, phi0
        for a in bps + [None]:
            if a is None:
                slope = float(np.sum(np.sign(x + (prev_a + 1.0) * d) * d))
                if slope <= 0:
                    return np.inf
                return prev_a + (self.tau - prev_phi) / slope
            phi = float(np.abs(x + a * d).sum())
            if phi > self.tau:
                slope = (phi - prev_phi) / (a - prev_a)
                return prev_a + (self.tau - prev_phi) / slope
            prev_a, prev_phi = a, phi
        return prev_a

    def vertices(self):
        vs = []
        for i in range(self.n):
            for sign in (+1, -1):
                v = np.zeros(self.n)
                v[i] = sign * self.tau
                vs.append(v)
        return np.array(vs)


class L2Ball:
    """Euclidean ball of radius eps centered at the origin."""

    def __init__(self, eps, n):
        if not eps > 0:
            raise InputError("eps must be positive")
        self.eps = float(eps)
        self.n = int(n)
        self.shape = (self.n,)

    def lmo(self, g):
        g = _check_gradient(g, self.shape)
        nrm = np.linalg.norm(g)
        if nrm == 0.0:
            return DenseAtom(np.zeros(self.n))  # every point minimizes; center is canonical
        return DenseAtom(-self.eps * g / nrm)

    def diameter(self):
        return 2.0 * self.eps

    def contains(self, x, tol=1e-9):
        x = np.asarray(x, dtype=float)
        return x.shape == self.shape and np.linalg.norm(x) <= self.eps + tol

    def max_step(self, x, d):
        x, d = _step_inputs(x, d, self.shape)
        dd = float(d @ d)
        xd = float(x @ d)
        slack = self.eps ** 2 - float(x @ x)
        disc = xd * xd + dd * max(slack, 0.0)
        return (-xd + np.sqrt(disc)) / dd


class LinfBall:
    """Hypercube ||x||_inf <= eps."""

    def __init__(self, eps, n):
        if not eps > 0:
            raise InputError("eps must be positive")
        self.eps = float(eps)
        self.n = int(n)
        self.shape = (self.n,)

    def lmo(self, g):
        g = _check_gradient(g, self.shape)
        # sign(0) := +1 so the zero-gradient coordinates land deterministically
        s = np.where(g >= 0.0, 1.0, -1.0)
        return DenseAtom(-self.eps * s)

    def diameter(self):
        return 2.0 * self.eps * np.sqrt(self.n)

    def contains(self, x, tol=1e-9):
        x = np.asarray(x, dtype=float)
        return x.shape == self.shape and np.max(np.abs(x)) <= self.eps + tol

    def max_step(self, x, d):
        return Box(-self.eps * np.ones(self.n), self.eps * np.ones(self.n)).max_step(x, d)

    def vertices(self):
        if self.n > 16:
            raise CapabilityError("vertex enumeration limited to n <= 16")
        vs = []
        for signs in itertools.product((-1.0, 1.0), repeat=self.n):
            vs.append(self.eps * np.array(signs))
        return np.array(vs)


class Box:
    """Axis-aligned box lower <= x <= upper."""

    def __init__(self, lower, upper):
        self.lower = np.asarray(lower, dtype=float)
        self.upper = np.asarray(upper, dtype=float)
        if self.lower.shape != self.upper.shape or self.lower.ndim != 1:
            raise InputError("box bounds must be matching vectors")
        if np.any(self.lower > self.upper):
            raise InputError("box requires lower <= upper componentwise")
        self.n = self.lower.size
        self.shape = (self.n,)

    def lmo(self, g):
        g = _check_gradient(g, self.shape)
        return DenseAtom(np.where(g > 0.0, self.lower, np.where(g < 0.0, self.upper, self.lower)))

    def diameter(self):
        return float(np.linalg.norm(self.upper - self.lower))

    def contains(self, x, tol=1e-9):
        x = np.asarray(x, dtype=float)
        return (x.shape == self.shape and np.all(x >= self.lower - tol)
                and np.all(x <= self.upper + tol))

    def max_step(self, x, d):
        x, d = _step_inputs(x, d, self.shape)
        alpha = np.inf
        pos = d > 0
        if np.any(pos):
            alpha = min(alpha, float(np.min((self.upper[pos] - x[pos]) / d[pos])))
        neg = d < 0
        if np.any(neg):
            alpha = min(alpha, float(np.min((x[neg] - self.lower[neg]) / -d[neg])))
        return max(alpha, 0.0)

    def vertices(self):
        if self.n > 16:
            raise CapabilityError("vertex enumeration limited to n <= 16")
        vs = []
        for bits in itertools.product((0, 1), repeat=self.n):
            vs.append(np.where(np.array(bits) == 0, self.lower, self.upper))
        return np.array(vs)


class NuclearBall:
    """Nuclear-norm ball of matrices: ||X||_* <= delta."""

    def __init__(self, delta, m, n):
        if not delta > 0:
            raise InputError("delta must be positive")
        self.delta = float(delta)
        self.m = int(m)
        self.n = int(n)
        self.shape = (self.m, self.n)

    def lmo(self, g):
        g = _check_gradient(g, self.shape)
        if not np.any(g):
            u = np.zeros(self.m)
            v = np.zeros(self.n)
            u[0] = 1.0
            v[0] = 1.0
            return RankOneAtom(u, v, self.delta)
        u, _, v = top_singular_triple(-g)
        return RankOneAtom(u, v, self.delta)

    def diameter(self):
        return 2.0 * self.delta

    def contains(self, x, tol=1e-9):
        x = np.asarray(x, dtype=float)
        if x.shape != self.shape:
            return False
        return float(np.linalg.svd(x, compute_uv=False).sum()) <= self.delta + tol

    def max_step(self, x, d):
        # nuclear norm along a ray has no closed form; bisect the convex scalar
        x = np.asarray(x, dtype=float)
        d = np.asarray(d, dtype=float)
        if not np.any(d):
            raise InputError("direction must be nonzero")

        def nn(a):
            return float(np.linalg.svd(x + a * d, compute_uv=False).sum())

        hi = 1.0
        while nn(hi) <= self.delta and hi < 1e12:
            hi *= 2.0
        if nn(hi) <= self.delta:
            return hi
        lo = 0.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if nn(mid) <= self.delta:
                lo = mid
            else:
                hi = mid
            if hi - lo <= 1e-12 * max(1.0, hi):
                break
        return lo


def top_singular_triple(a):
    """Leading singular triple (u, sigma, v) of ``a`` by power iteration.

    Iterates on the Gram matrix of the smaller side with a fixed-seed random
    start; stops when the Rayleigh quotient moves less than 1e-10 relatively,
    raises NumericalError (with the residual attached) after 5000 rounds.
    """
    a = np.asarray(a, dtype=float)
    m, n = a.shape
    rng = np.random.default_rng(_POWER_ITER_SEED)
    if m >= n:
        w = rng.standard_normal(n)
    else:
        w = rng.standard_normal(m)
    w /= np.linalg.norm(w)
    rho = 0.0
    for _ in range(_POWER_ITER_CAP):
        if m >= n:
            z = a.T @ (a @ w)
        else:
            z = a @ (a.T @ w)
        nz = np.linalg.norm(z)
        if nz == 0.0:
            raise NumericalError("power iteration started orthogonal to range", residual=0.0)
        w_new = z / nz
        rho_new = nz  # Rayleigh quotient of the Gram matrix at w
        if abs(rho_new - rho) <= _POWER_ITER_TOL * max(rho_new, 1e-30):
            w = w_new
            rho = rho_new
            break
        w = w_new
        rho_prev, rho = rho, rho_new
    else:
        raise NumericalError("power iteration did not converge",
                             residual=abs(rho - rho_prev))
    sigma = np.sqrt(rho)
    if m >= n:
        v = w
        u = a @ v
        nu = np.linalg.norm(u)
        if nu == 0.0:
            raise NumericalError("degenerate singular vector", residual=0.0)
        u /= nu
    else:
        u = w
        v = a.T @ u
        nv = np.linalg.norm(v)
        if nv == 0.0:
            raise NumericalError("degenerate singular vector", residual=0.0)
        v /= nv
    return u, float(sigma), v


class BasePolytope:
    """Base polytope of a submodular function r with r(empty) = 0.

    ``oracle`` maps a frozenset of indices in range(n) to a float.  Linear
    minimization runs the greedy algorithm on the negated gradient: the
    marginal gains of r along the elements sorted by increasing gradient.

    An oracle may carry a ``greedy(order)`` attribute that returns those
    gains (entry j the gain of element j) along a permutation ``order`` in
    one pass; the built-in set functions of ``fwkit.objectives`` do.  It is
    read once, here, so rebinding ``oracle`` later leaves the LMO as it is.
    Without it the LMO asks ``oracle`` about the n prefixes of the order
    (``base_polytope_greedy``), as membership, the ratio test, the vertex
    enumeration and the diameter always do.
    """

    def __init__(self, oracle, n):
        self.n = int(n)
        self.shape = (self.n,)
        val = oracle(frozenset())
        if abs(val) > 1e-12:
            raise InputError("submodular oracle must satisfy r(empty) = 0")
        self.oracle = oracle
        self._greedy = getattr(oracle, "greedy", None)
        if self._greedy is not None:
            shape = np.shape(self._greedy(np.arange(self.n)))
            if shape != self.shape:
                raise InputError("set function's greedy gains have shape %s, expected %s"
                                 % (shape, self.shape))
        self._rv = None  # cached r(V)

    def total(self):
        if self._rv is None:
            self._rv = float(self.oracle(frozenset(range(self.n))))
        return self._rv

    def lmo(self, g):
        g = _check_gradient(g, self.shape)
        if self._greedy is None:
            return DenseAtom(base_polytope_greedy(self.oracle, -g))
        return DenseAtom(self._greedy(_greedy_order(-g)))

    def diameter(self):
        verts = self.vertices(limit=512)
        if verts is not None:
            best = 0.0
            for i in range(len(verts)):
                best = max(best, float(np.max(np.linalg.norm(verts[i + 1:] - verts[i], axis=1),
                                              initial=0.0)))
            return best
        # documented upper bound when enumeration is out of reach
        worst = 0.0
        ground = frozenset(range(self.n))
        rv = self.total()
        for i in range(self.n):
            hi = abs(self.oracle(frozenset([i])))
            lo = abs(rv - self.oracle(ground - {i}))
            worst = max(worst, hi + lo)
        return 2.0 * worst * np.sqrt(self.n)

    def contains(self, x, tol=1e-9):
        x = np.asarray(x, dtype=float)
        if x.shape != self.shape:
            return False
        if self.n > 16:
            raise CapabilityError("membership enumeration limited to n <= 16")
        if abs(x.sum() - self.total()) > tol:
            return False
        for k in range(1, self.n):
            for subset in itertools.combinations(range(self.n), k):
                if x[list(subset)].sum() > self.oracle(frozenset(subset)) + tol:
                    return False
        return True

    def vertices(self, limit=None):
        """Distinct greedy vertices over all orderings (n <= 7), else None."""
        if self.n > 7:
            return None
        seen = {}
        for order in itertools.permutations(range(self.n)):
            v = np.zeros(self.n)
            prefix = set()
            prev = 0.0
            for j in order:
                prefix.add(j)
                cur = float(self.oracle(frozenset(prefix)))
                v[j] = cur - prev
                prev = cur
            seen.setdefault(v.round(12).tobytes(), v)
            if limit is not None and len(seen) > limit:
                return None
        return np.array(list(seen.values()))

    def max_step(self, x, d):
        x, d = _step_inputs(x, d, self.shape)
        if self.n > 16:
            raise CapabilityError("ratio test enumeration limited to n <= 16")
        if abs(d.sum()) > 1e-9 * max(1.0, np.abs(d).max()):
            return 0.0
        alpha = np.inf
        for k in range(1, self.n):
            for subset in itertools.combinations(range(self.n), k):
                idx = list(subset)
                dsum = d[idx].sum()
                if dsum > 1e-15:
                    slack = self.oracle(frozenset(subset)) - x[idx].sum()
                    alpha = min(alpha, max(slack, 0.0) / dsum)
        return alpha


def _greedy_order(w):
    """Elements by decreasing weight, ties by lower index first."""
    w = np.asarray(w, dtype=float)
    if not np.isfinite(w).all():
        raise InputError("weight vector has non-finite entries")
    return np.argsort(-w, kind="stable")


def base_polytope_greedy(oracle, w):
    """Greedy maximizer of <w, s> over the base polytope of ``oracle``.

    Sorts the weights in decreasing order (ties by lower index first) and
    returns the vector of marginal gains along that ordering, one oracle
    call per prefix; its entries sum to r(V) exactly.
    """
    order = _greedy_order(w)
    s = np.zeros(order.size)
    prefix = set()
    prev = float(oracle(frozenset()))
    for j in order:
        prefix.add(int(j))
        cur = float(oracle(frozenset(prefix)))
        s[j] = cur - prev
        prev = cur
    return s


class ProductRegion:
    """Cartesian product of one-dimensional-point regions."""

    def __init__(self, blocks):
        if not blocks:
            raise InputError("product needs at least one block")
        self.blocks = list(blocks)
        sizes = []
        for b in self.blocks:
            if len(b.shape) != 1 or b.shape[0] < 1:
                raise InputError("product blocks must be nonempty vector regions")
            sizes.append(b.shape[0])
        self.sizes = sizes
        self.offsets = np.concatenate([[0], np.cumsum(sizes)])
        self.n = int(self.offsets[-1])
        self.shape = (self.n,)

    def block_slice(self, i):
        return slice(int(self.offsets[i]), int(self.offsets[i + 1]))

    def lmo(self, g):
        g = _check_gradient(g, self.shape)
        parts = [b.lmo(g[self.block_slice(i)]).densify() for i, b in enumerate(self.blocks)]
        return DenseAtom(np.concatenate(parts))

    def diameter(self):
        return float(np.sqrt(sum(b.diameter() ** 2 for b in self.blocks)))

    def contains(self, x, tol=1e-9):
        x = np.asarray(x, dtype=float)
        if x.shape != self.shape:
            return False
        return all(b.contains(x[self.block_slice(i)], tol) for i, b in enumerate(self.blocks))

    def max_step(self, x, d):
        x, d = _step_inputs(x, d, self.shape)
        alpha = np.inf
        for i, b in enumerate(self.blocks):
            db = d[self.block_slice(i)]
            if np.any(db != 0.0):
                alpha = min(alpha, b.max_step(x[self.block_slice(i)], db))
        return alpha


class VertexHull:
    """Convex hull of an explicit vertex list (rows of ``points``)."""

    def __init__(self, points):
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[0] < 1:
            raise InputError("vertex hull needs a (k, n) array of vertices")
        if not np.all(np.isfinite(pts)):
            raise InputError("vertices have non-finite entries")
        self.points = pts
        self.n = pts.shape[1]
        self.shape = (self.n,)

    def lmo(self, g):
        g = _check_gradient(g, self.shape)
        return DenseAtom(self.points[int(np.argmin(self.points @ g))].copy())

    def diameter(self):
        pts = self.points
        if len(pts) > 4096:
            raise CapabilityError("diameter enumeration limited to 4096 vertices")
        best = 0.0
        for i in range(len(pts)):
            best = max(best, float(np.max(np.linalg.norm(pts[i + 1:] - pts[i], axis=1),
                                          initial=0.0)))
        return best

    def contains(self, x, tol=1e-9):
        # feasibility LP: x = P^T lam, lam in simplex
        from scipy.optimize import linprog

        x = np.asarray(x, dtype=float)
        if x.shape != self.shape:
            return False
        k = len(self.points)
        a_eq = np.vstack([self.points.T, np.ones(k)])
        b_eq = np.concatenate([x, [1.0]])
        res = linprog(np.zeros(k), A_eq=a_eq, b_eq=b_eq, bounds=[(0, None)] * k,
                      method="highs")
        if res.status == 0:
            return True
        # retry with slack for boundary points
        res = linprog(np.zeros(k), A_eq=a_eq, b_eq=b_eq, bounds=[(-tol, None)] * k,
                      method="highs", options={"primal_feasibility_tolerance": max(tol, 1e-11)})
        return res.status == 0

    def vertices(self):
        return self.points.copy()


def _step_inputs(x, d, shape):
    x = np.asarray(x, dtype=float)
    d = np.asarray(d, dtype=float)
    if x.shape != shape or d.shape != shape:
        raise InputError("point/direction shape mismatch")
    if not np.any(d):
        raise InputError("direction must be nonzero")
    return x, d


def lmo(region, g):
    """Extreme point of ``region`` minimizing <g, z>."""
    return region.lmo(g)


def diameter(region):
    return region.diameter()


def max_feasible_step(region, x, d):
    """sup{alpha >= 0 : x + alpha d in region}."""
    return region.max_step(x, d)


def fw_gap(region, x, g):
    """Frank-Wolfe gap <g, x - lmo(g)>: nonnegative, zero exactly at stationarity."""
    x = np.asarray(x, dtype=float)
    g = np.asarray(g, dtype=float)
    s = region.lmo(g).densify()
    return float(np.vdot(g, x) - np.vdot(g, s))


class BoxFace:
    """Minimal face of a box at x: fixed coordinates stay put, free ones span.

    Acts as a lazy vertex selector so the 2^free corners are never listed.
    """

    def __init__(self, box, x, tol=1e-12):
        self.box = box
        self.x = np.asarray(x, dtype=float)
        self.at_lower = np.abs(self.x - box.lower) <= tol
        self.at_upper = np.abs(self.x - box.upper) <= tol

    def away_vertex(self, g):
        """Face vertex maximizing <g, v>, computed coordinatewise."""
        g = np.asarray(g, dtype=float)
        v = np.where(g > 0.0, self.box.upper, self.box.lower)
        v = np.where(self.at_lower, self.box.lower, v)
        v = np.where(self.at_upper, self.box.upper, v)
        return DenseAtom(v)


def minimal_face_vertices(region, x, tol=1e-12):
    """Vertices of the minimal face of the region containing x.

    Simplex: the unit atoms on the support of x.  Box: a lazy ``BoxFace``
    selector.  Other regions are not supported (the in-face solver is
    restricted to simplex and box).
    """
    x = np.asarray(x, dtype=float)
    if isinstance(region, Simplex):
        return [SignedUnitAtom(i, +1, 1.0, region.n) for i in range(region.n) if x[i] > tol]
    if isinstance(region, Box):
        return BoxFace(region, x, tol)
    raise CapabilityError("minimal faces implemented for simplex and box only")


def face_away_vertex(region, x, g, tol=1e-12):
    """Away vertex over the minimal face of x (ties: lowest coordinate index)."""
    x = np.asarray(x, dtype=float)
    g = np.asarray(g, dtype=float)
    if isinstance(region, Simplex):
        support = np.flatnonzero(x > tol)
        best = support[int(np.argmax(g[support]))]
        return SignedUnitAtom(int(best), +1, 1.0, region.n)
    if isinstance(region, Box):
        return BoxFace(region, x, tol).away_vertex(g)
    raise CapabilityError("minimal faces implemented for simplex and box only")


def _is_face(points, subset_mask):
    """True if the atoms flagged by ``subset_mask`` span a face of conv(points).

    Feasibility LP for a hyperplane containing exactly the flagged atoms and
    strictly separating the rest (margin normalized to 1).
    """
    from scipy.optimize import linprog

    n = points.shape[1]
    on = points[subset_mask]
    off = points[~subset_mask]
    # variables: c (n), b (1)
    a_eq = np.hstack([on, -np.ones((len(on), 1))])
    b_eq = np.zeros(len(on))
    a_ub = np.hstack([off, -np.ones((len(off), 1))])
    b_ub = -np.ones(len(off))
    res = linprog(np.zeros(n + 1), A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
                  bounds=[(None, None)] * (n + 1), method="highs")
    return res.status == 0


def pyramidal_width_bruteforce(vertices):
    """Pyramidal width of a vertex set by exhaustive face enumeration.

    min over proper faces F of conv(A) of dist(F, conv(A - F)); hull-to-hull
    distances go through the min-norm-point solver on the Minkowski
    difference.  Limited to 12 vertices.
    """
    from .minnorm import hull_distance

    pts = np.asarray(vertices, dtype=float)
    if pts.ndim != 2:
        raise InputError("vertices must form a (k, n) array")
    k = pts.shape[0]
    if k > 12:
        raise CapabilityError("face enumeration limited to 12 vertices")
    if k < 2:
        raise InputError("need at least two vertices")
    best = np.inf
    for bits in itertools.product((False, True), repeat=k):
        mask = np.array(bits)
        if not mask.any() or mask.all():
            continue
        if not _is_face(pts, mask):
            continue
        best = min(best, hull_distance(pts[mask], pts[~mask]))
    if not np.isfinite(best):
        raise NumericalError("no proper face found; vertex set degenerate")
    return float(best)


class InexactSchedule:
    """Error schedule for an inexact linear oracle.

    ``constant`` keeps delta_k = delta; ``decaying`` uses
    delta_k = delta * kappa_upper / (k + 2), which shrinks fast enough to
    retain the 1/k rate.
    """

    def __init__(self, mode, delta, kappa_upper=None, seed=0):
        if mode not in ("constant", "decaying"):
            raise InputError("mode must be 'constant' or 'decaying'")
        if delta < 0:
            raise InputError("delta must be nonnegative")
        if mode == "decaying" and (kappa_upper is None or kappa_upper <= 0):
            raise InputError("decaying schedule needs a positive kappa_upper")
        self.mode = mode
        self.delta = float(delta)
        self.kappa_upper = None if kappa_upper is None else float(kappa_upper)
        self.seed = int(seed)

    def value(self, k):
        if self.mode == "constant":
            return self.delta
        return self.delta * self.kappa_upper / (k + 2.0)


class InexactLMO:
    """Adversarial wrapper around an exact oracle.

    At call k it computes the exact vertex, then substitutes the admissible
    vertex with the largest slack <= delta_k (worst case), choosing among
    float-tied candidates with a PRNG seeded from the schedule.  Regions
    without a cheap vertex list fall back to the exact vertex when no
    admissible alternative is found.  Single consumer; owns its call count.
    """

    def __init__(self, region, schedule):
        self.region = region
        self.schedule = schedule
        self.rng = np.random.default_rng(schedule.seed)
        self.calls = 0
        self._verts = None
        self._verts_known = False

    def _vertex_table(self):
        if not self._verts_known:
            self._verts_known = True
            enumerate_vertices = getattr(self.region, "vertices", None)
            if enumerate_vertices is not None:
                try:
                    self._verts = enumerate_vertices()
                except CapabilityError:
                    self._verts = None
        return self._verts

    def query(self, g, x):
        """Returns (exact_atom, served_atom) and advances the call counter."""
        k = self.calls
        self.calls += 1
        exact = self.region.lmo(g)
        delta_k = self.schedule.value(k)
        if delta_k <= 0.0:
            return exact, exact
        verts = self._vertex_table()
        if verts is None:
            return exact, exact
        g = np.asarray(g, dtype=float)
        vals = verts @ g
        base = float(np.vdot(g, exact.densify()))
        slack = vals - base
        admissible = slack <= delta_k + 1e-15
        worst = np.max(slack[admissible])
        tied = np.flatnonzero(admissible & (slack >= worst - 1e-12 * max(1.0, abs(worst))))
        pick = int(tied[self.rng.integers(len(tied))]) if len(tied) > 1 else int(tied[0])
        return exact, DenseAtom(verts[pick].copy())


def make_inexact_lmo(region, schedule):
    """Wrap a region's exact oracle into an adversarial inexact one."""
    return InexactLMO(region, schedule)
