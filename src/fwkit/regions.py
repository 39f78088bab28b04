"""Feasible regions and their linear minimization oracles.

Every region answers ``lmo(g)`` with an extreme point minimizing ``<g, z>``
(ties broken toward the lowest coordinate/vertex index), knows its own
diameter, and can test membership.  The module also provides the greedy
oracle for submodular base polytopes, the Frank-Wolfe gap, a brute-force
pyramidal width, and a wrapper that degrades an exact oracle into an
adversarial inexact one.

A region declares what ``solvers.CAPABILITIES`` asks of it.  AFW, PFW and
EFW need ``polytopal`` True: the hull of finitely many atoms (a product is
polytopal when its blocks are).  In-face FW (FDFW) needs the
``FACE_OPERATIONS``: ``face_away_vertex(x, g)`` (the array of the vertex of
x's minimal face maximizing <g, v>: FDFW holds no atoms), ``face_support(x)``
(the support a record counts), ``snap_to_face(x)`` (x put on the faces it is
within 1e-12 of) and ``max_step(x, d)``, where an in-face step stops.  Only
the simplex and the box (so the l-inf ball) have faces this cheap; they
declare all four.
"""

import functools
import itertools
import math

import numpy as np
from scipy.linalg import eigh

from .atoms import DenseAtom, RankOneAtom, SignedUnitAtom
from .errors import CapabilityError, InputError, NumericalError, all_finite, count_in

_RESIDUAL_BOUND = 1e-10  # relative residual past which a singular triple is refused
_PAIR_BLOCK = 1 << 16  # float64 entries in one block of pairwise differences (512 KiB)
_FACE_TOL = 1e-12  # a coordinate this close to a face lies on it
# what a region declares to have minimal faces, and so to run in-face FW
FACE_OPERATIONS = ("face_away_vertex", "face_support", "snap_to_face", "max_step")


def _size(value, what):
    """``value`` as a float, refused unless positive and finite."""
    if not 0 < value < np.inf:
        raise InputError("%s must be positive and finite" % what)
    return float(value)


def _max_pairwise_distance(pts):
    """Largest ``np.linalg.norm`` of a difference of two rows of ``pts``, bit for bit:
    blocks of rows against the later rows, squares summed over the last axis as
    ``norm`` sums them, and one sqrt (monotone, correctly rounded) of the largest."""
    step = max(1, _PAIR_BLOCK // max(pts.size, 1))
    best = 0.0
    for a in range(0, len(pts), step):
        d = pts[a:a + step, None, :] - pts[None, a + 1:, :]
        d *= d
        best = max(best, float(np.max(np.add.reduce(d, axis=-1), initial=0.0)))
    return float(np.sqrt(best))


_NON_FINITE_GRADIENT = "gradient has non-finite entries"


def _gradient_of_shape(g, shape):
    g = np.asarray(g, dtype=float)
    if g.shape != shape:
        raise InputError("gradient shape %s does not match region %s" % (g.shape, shape))
    return g


def _check_gradient(g, shape):
    g = _gradient_of_shape(g, shape)
    if not all_finite(g):
        raise InputError(_NON_FINITE_GRADIENT)
    return g


class Simplex:
    """Standard simplex: x >= 0, sum x = 1."""

    polytopal = True

    def __init__(self, n):
        self.n = count_in(n, "simplex dimension")
        self.shape = (self.n,)

    def lmo(self, g):
        g = _check_gradient(g, self.shape)
        return SignedUnitAtom.trusted(int(g.argmin()), 1, 1.0, self.n)

    def diameter(self):
        return np.sqrt(2.0) if self.n > 1 else 0.0

    def contains(self, x, tol=1e-9):
        x = np.asarray(x, dtype=float)
        return x.shape == self.shape and np.all(x >= -tol) and abs(x.sum() - 1.0) <= tol

    def max_step(self, x, d):
        x, d = _step_inputs(x, d, self.shape)
        if abs(d.sum()) > 1e-9 * np.abs(d).max():  # d leaves the hyperplane sum x = const
            return 0.0
        neg = d < 0
        if not np.any(neg):
            return 0.0
        return float(np.min(x[neg] / -d[neg]))

    def vertices(self):
        return np.eye(self.n)

    def face_away_vertex(self, x, g):
        support = np.flatnonzero(x > _FACE_TOL)
        return np.eye(1, self.n, int(support[int(g[support].argmax())]))[0]

    def face_support(self, x):
        return int(np.sum(x > _FACE_TOL))

    def snap_to_face(self, x):
        x = np.maximum(np.where(np.abs(x) <= _FACE_TOL, 0.0, x), 0.0)
        x /= x.sum()
        return x


class L1Ball:
    """Scaled cross-polytope: ||x||_1 <= tau."""

    polytopal = True

    def __init__(self, tau, n):
        self.tau = _size(tau, "tau")
        self.n = count_in(n, "l1 ball dimension")
        self.shape = (self.n,)

    def lmo(self, g):
        g = _gradient_of_shape(g, self.shape)
        i = int(np.abs(g).argmax())
        # the argmax picks the first NaN, else an infinity: g is finite iff g[i] is
        if not math.isfinite(g[i]):
            raise InputError(_NON_FINITE_GRADIENT)
        return SignedUnitAtom.trusted(i, 1 if g[i] <= 0 else -1, self.tau, self.n)

    def diameter(self):
        return 2.0 * self.tau

    def contains(self, x, tol=1e-9):
        x = np.asarray(x, dtype=float)
        return x.shape == self.shape and np.abs(x).sum() <= self.tau + tol

    def vertices(self):
        vs, i = np.zeros((2 * self.n, self.n)), np.arange(self.n)
        vs[2 * i, i], vs[2 * i + 1, i] = self.tau, -self.tau  # +tau e_i, then -tau e_i
        return vs


class L2Ball:
    """Euclidean ball of radius eps centered at the origin."""

    polytopal = False

    def __init__(self, eps, n):
        self.eps = _size(eps, "eps")
        self.n = count_in(n, "l2 ball dimension")
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


class Box:
    """Axis-aligned box lower <= x <= upper."""

    polytopal = True

    def __init__(self, lower, upper):
        self.lower = np.asarray(lower, dtype=float)
        self.upper = np.asarray(upper, dtype=float)
        if self.lower.shape != self.upper.shape or self.lower.ndim != 1:
            raise InputError("box bounds must be matching vectors")
        if not (all_finite(self.lower) and all_finite(self.upper)):
            raise InputError("box bounds must be finite")
        if np.any(self.lower > self.upper):
            raise InputError("box requires lower <= upper componentwise")
        self.n = count_in(self.lower.size, "box dimension")
        self.shape = (self.n,)

    def lmo(self, g):
        g = _check_gradient(g, self.shape)
        return DenseAtom(np.where(g < 0.0, self.upper, self.lower))  # g_i = +-0 gives lower_i

    def diameter(self):
        return float(np.linalg.norm(self.upper - self.lower))

    def contains(self, x, tol=1e-9):
        x = np.asarray(x, dtype=float)
        return (x.shape == self.shape and np.all(x >= self.lower - tol)
                and np.all(x <= self.upper + tol))

    def max_step(self, x, d):
        x, d = _step_inputs(x, d, self.shape)
        moving = d != 0.0  # each moving coordinate's room to the bound d points at
        with np.errstate(over="ignore"):  # past the float range (a subnormal d_i): inf
            room = np.where(d > 0.0, self.upper - x, x - self.lower)[moving] / np.abs(d[moving])
        return max(float(np.min(room)), 0.0)

    def vertices(self):
        if self.n > 16:
            raise CapabilityError("vertex enumeration limited to n <= 16")
        corners = np.array(list(itertools.product((False, True), repeat=self.n)))
        return np.where(corners, self.upper, self.lower)

    def face_away_vertex(self, x, g):
        """The face's vertex maximizing <g, v>, coordinatewise: a coordinate of x on
        a bound stays at it, a free one goes to the bound g points at."""
        v = np.where(g > 0.0, self.upper, self.lower)
        v = np.where(np.abs(x - self.lower) <= _FACE_TOL, self.lower, v)
        return np.where(np.abs(x - self.upper) <= _FACE_TOL, self.upper, v)

    def face_support(self, x):
        """The free coordinates of x, plus one."""
        return int(np.sum((x > self.lower + _FACE_TOL) & (x < self.upper - _FACE_TOL))) + 1

    def snap_to_face(self, x):
        x = np.where(np.abs(x - self.lower) <= _FACE_TOL, self.lower, x)
        return np.where(np.abs(x - self.upper) <= _FACE_TOL, self.upper, x)


class LinfBall(Box):
    """Hypercube ||x||_inf <= eps: the box [-eps, eps]^n, with its closed-form diameter."""

    def __init__(self, eps, n):
        self.eps = _size(eps, "eps")
        ones = np.ones(count_in(n, "l-inf ball dimension"))
        super().__init__(-self.eps * ones, self.eps * ones)

    def diameter(self):
        return 2.0 * self.eps * np.sqrt(self.n)


class NuclearBall:
    """Nuclear-norm ball of matrices: ||X||_* <= delta."""

    polytopal = False

    def __init__(self, delta, m, n):
        self.delta = _size(delta, "delta")
        self.m = count_in(m, "nuclear ball row count")
        self.n = count_in(n, "nuclear ball column count")
        self.shape = (self.m, self.n)

    def lmo(self, g):
        u, _, v = top_singular_triple(-_check_gradient(g, self.shape))
        return RankOneAtom(u, v, self.delta)

    def diameter(self):
        return 2.0 * self.delta

    def contains(self, x, tol=1e-9):
        x = np.asarray(x, dtype=float)
        if x.shape != self.shape:
            return False
        return float(np.linalg.svd(x, compute_uv=False).sum()) <= self.delta + tol


def top_singular_triple(a):
    """Leading singular triple (u, sigma, v) of ``a``, checked by its residual.

    The top eigenvector w of the Gram matrix of the smaller side (A A^T for a
    wide ``a``, A^T A otherwise) comes from LAPACK's single-eigenpair solver;
    the other factor is z = A^T w / sigma (or A w / sigma), so that
    A^T w = sigma z holds by construction.  The answer is refused with
    NumericalError, its residual attached, when ||A z - sigma w|| / sigma,
    the test of w as an eigenvector, exceeds ``_RESIDUAL_BOUND``.  A zero
    matrix gives (e_1, 0.0, e_1); a non-finite entry raises InputError.
    """
    a = np.asarray(a, dtype=float)
    if not all_finite(a):
        raise InputError("matrix has non-finite entries")
    m, n = a.shape
    peak = max(a.max(), -a.min())
    if peak == 0.0:  # every unit pair is singular; the first unit vectors are canonical
        return np.eye(1, m)[0], 0.0, np.eye(1, n)[0]
    exp = int(np.frexp(peak)[1])
    a = np.ldexp(a, -exp)  # exact power-of-two scaling: the Gram neither overflows nor underflows
    side = a if m < n else a.T  # rows: the smaller side
    k = side.shape[0]
    w = eigh(side @ side.T, subset_by_index=[k - 1, k - 1])[1][:, 0]
    z = side.T @ w
    sigma = float(np.linalg.norm(z))
    z /= sigma
    residual = float(np.linalg.norm(side @ z - sigma * w)) / sigma
    if not residual <= _RESIDUAL_BOUND:
        raise NumericalError("singular triple has relative residual %.3g" % residual,
                             residual=residual)
    sigma = float(np.ldexp(sigma, exp))
    return (w, sigma, z) if m < n else (z, sigma, w)


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
    (``base_polytope_greedy``), as membership, the ratio test and the vertex
    enumeration always do.

    Past 7 elements or 512 vertices the diameter is the bound 2 sqrt(n) max_i(|r({i})|
    + |r(V) - r(V - {i})|), from an ``end_gains()`` attribute read once like ``greedy``
    (the cut and cap functions carry one), else from 2n + 1 calls of ``oracle``.
    """

    polytopal = True

    def __init__(self, oracle, n):
        self.n = count_in(n, "base polytope dimension")
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
        self._end_gains = getattr(oracle, "end_gains", None)
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
            return _max_pairwise_distance(verts)
        # documented upper bound when enumeration is out of reach
        if self._end_gains is not None:
            first, last = self._end_gains()
        else:  # r({i}) and r(V) - r(V - {i}) by 2n calls
            ground, rv = frozenset(range(self.n)), self.total()
            first = np.array([self.oracle(frozenset([i])) for i in range(self.n)], dtype=float)
            last = np.array([rv - self.oracle(ground - {i}) for i in range(self.n)], dtype=float)
        worst = float(np.max(np.abs(first) + np.abs(last), initial=0.0))
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
            v = _prefix_gains(self.oracle, order, 0.0)
            seen.setdefault(v.round(12).tobytes(), v)
            if limit is not None and len(seen) > limit:
                return None
        return np.array(list(seen.values()))


def _greedy_order(w):
    """Elements by decreasing weight, ties by lower index first."""
    return np.argsort(-w, kind="stable")


def base_polytope_greedy(oracle, w):
    """Greedy maximizer of <w, s> over the base polytope of ``oracle``.

    Sorts the weights in decreasing order (ties by lower index first) and
    returns the vector of marginal gains along that ordering, one oracle
    call per prefix; its entries sum to r(V) exactly.
    """
    w = np.asarray(w, dtype=float)
    if not np.isfinite(w).all():
        raise InputError("weight vector has non-finite entries")
    return _prefix_gains(oracle, _greedy_order(w), float(oracle(frozenset())))


def _prefix_gains(oracle, order, start):
    """Gains of ``oracle`` along ``order`` (entry j element j's); ``start`` is r(empty)."""
    gains = np.zeros(len(order))
    prefix = set()
    prev = start
    for j in order:
        prefix.add(int(j))
        cur = float(oracle(frozenset(prefix)))
        gains[j] = cur - prev
        prev = cur
    return gains


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
        self.polytopal = all(getattr(b, "polytopal", False) for b in self.blocks)

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


class VertexHull:
    """Convex hull of an explicit vertex list (rows of ``points``)."""

    polytopal = True

    def __init__(self, points):
        # C order: D sums each row's squares in one order, whatever the caller's layout
        pts = np.ascontiguousarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[0] < 1:
            raise InputError("vertex hull needs a (k, n) array of vertices")
        if not np.all(np.isfinite(pts)):
            raise InputError("vertices have non-finite entries")
        self.points = pts
        self.n = count_in(pts.shape[1], "vertex dimension")
        self.shape = (self.n,)

    def lmo(self, g):
        g = _check_gradient(g, self.shape)
        return DenseAtom(self.points[int((self.points @ g).argmin())].copy())

    def diameter(self):
        return _max_pairwise_distance(self.points)

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


def fw_gap(region, x, g):
    """Frank-Wolfe gap <g, x - lmo(g)>: nonnegative, zero exactly at stationarity."""
    x = np.asarray(x, dtype=float)
    g = np.asarray(g, dtype=float)
    s = region.lmo(g).densify()
    return float(np.vdot(g, x) - np.vdot(g, s))


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

    @functools.cached_property
    def _verts(self):
        """The region's vertex list, listed on first use; None where it lists none."""
        try:
            return self.region.vertices() if hasattr(self.region, "vertices") else None
        except CapabilityError:
            return None

    def query(self, g):
        """Returns (exact_atom, served_atom) and advances the call counter."""
        k = self.calls
        self.calls += 1
        exact = self.region.lmo(g)
        delta_k = self.schedule.value(k)
        if delta_k <= 0.0 or self._verts is None:
            return exact, exact
        verts = self._verts
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
