"""Differentiable objectives, their constants, and problem builders.

Objectives expose ``eval(x) -> (value, gradient)`` plus enough curvature
information for exact line search on quadratics.  The two that see x only
through a design matrix A (``LeastSquares``, ``FactoredQuadratic``) also
take the images A x and A d from a caller that tracks them, and give the
value alone from A x (``value``, O(m) plus O(n) for a linear term): a solver
that also tracks the gradient, which is affine in x, needs no A^T r pass
for f.  ``build_instance``
assembles the benchmark families (LASSO, minimum enclosing ball dual, SVM
dual, max-clique, matrix completion, simplex distance, interior/boundary
quadratics, ball quadratic, block products) into ``ProblemInstance``
records carrying L, mu, diameter, and the optimum when known analytically.
"""

import numpy as np

from . import regions as rg
from .errors import InputError


def _finite(x):
    x = np.asarray(x, dtype=float)
    if not np.isfinite(x).all():
        raise InputError("non-finite input point")
    return x


def _sigma_extremes(a):
    """(sigma_max, sigma_min of A^T A as a map on R^n); dense SVD up to 512."""
    a = np.asarray(a, dtype=float)
    if min(a.shape) <= 512:
        s = np.linalg.svd(a, compute_uv=False)
        smin = float(s[-1]) if a.shape[0] >= a.shape[1] else 0.0
        return float(s[0]), smin
    _, smax, _ = rg.top_singular_triple(a)
    return smax, 0.0  # conservative fallback beyond the dense cutoff


class FactoredQuadratic:
    """sign * x^T A^T A x + b^T x + c."""

    variant = "factored_quadratic"

    def __init__(self, a, b=None, c=0.0, sign=+1):
        self.a = np.asarray(a, dtype=float)
        n = self.a.shape[1]
        self.b = np.zeros(n) if b is None else np.asarray(b, dtype=float)
        if self.b.shape != (n,):
            raise InputError("linear term has wrong dimension")
        self.c = float(c)
        if sign not in (-1, +1):
            raise InputError("sign must be -1 or +1")
        self.sign = int(sign)
        self.shape = (n,)

    def eval(self, x, ax=None):
        """(value, gradient); ``ax``, when given, is the image A x held by the caller."""
        x = _finite(x)
        if ax is None:
            ax = self.a @ x
        val = self.sign * float(ax @ ax) + float(self.b @ x) + self.c
        grad = 2.0 * self.sign * (self.a.T @ ax) + self.b
        return val, grad

    def value(self, x, ax):
        """The value of ``eval(x, ax=ax)`` without its gradient."""
        x = _finite(x)
        return self.sign * float(ax @ ax) + float(self.b @ x) + self.c

    def lipschitz_upper(self):
        smax, _ = _sigma_extremes(self.a)
        return 2.0 * smax ** 2

    def strong_convexity_lower(self):
        if self.sign < 0:
            return 0.0
        _, smin = _sigma_extremes(self.a)
        return 2.0 * smin ** 2

    def curvature_along(self, d, ad=None):
        if ad is None:
            ad = self.a @ d
        return 2.0 * self.sign * float(ad @ ad)


class LeastSquares:
    """||A x - b||^2."""

    variant = "least_squares"

    def __init__(self, a, b):
        self.a = np.asarray(a, dtype=float)
        self.b = np.asarray(b, dtype=float)
        if self.b.shape != (self.a.shape[0],):
            raise InputError("residual target has wrong dimension")
        self.shape = (self.a.shape[1],)

    def eval(self, x, ax=None):
        """(value, gradient); ``ax``, when given, is the image A x held by the caller."""
        x = _finite(x)
        r = (self.a @ x if ax is None else ax) - self.b
        return float(r @ r), 2.0 * (self.a.T @ r)

    def value(self, x, ax):
        """The value of ``eval(x, ax=ax)`` without its gradient."""
        _finite(x)
        r = ax - self.b
        return float(r @ r)

    def lipschitz_upper(self):
        smax, _ = _sigma_extremes(self.a)
        return 2.0 * smax ** 2

    def strong_convexity_lower(self):
        if self.a.shape[0] < self.a.shape[1]:
            return 0.0
        _, smin = _sigma_extremes(self.a)
        return 2.0 * smin ** 2

    def curvature_along(self, d, ad=None):
        if ad is None:
            ad = self.a @ d
        return 2.0 * float(ad @ ad)


class Quadratic:
    """x^T Q x + b^T x + c with symmetric Q (possibly indefinite).

    The factored form cannot express indefinite simplex programs such as
    the clique objective, so those builders use this variant.
    """

    variant = "quadratic"

    def __init__(self, q, b=None, c=0.0):
        self.q = np.asarray(q, dtype=float)
        n = self.q.shape[0]
        if self.q.shape != (n, n):
            raise InputError("Q must be square")
        if np.max(np.abs(self.q - self.q.T)) > 1e-10:
            raise InputError("Q must be symmetric")
        self.b = np.zeros(n) if b is None else np.asarray(b, dtype=float)
        self.c = float(c)
        self.shape = (n,)

    def eval(self, x):
        x = _finite(x)
        qx = self.q @ x
        return float(x @ qx) + float(self.b @ x) + self.c, 2.0 * qx + self.b

    def lipschitz_upper(self):
        w = np.linalg.eigvalsh(self.q)
        return 2.0 * float(np.max(np.abs(w)))

    def strong_convexity_lower(self):
        w = np.linalg.eigvalsh(self.q)
        return 2.0 * float(w[0]) if w[0] > 0 else 0.0

    def curvature_along(self, d):
        return 2.0 * float(d @ (self.q @ d))


class ShiftedNormSquare:
    """||x - center||^2."""

    variant = "shifted_norm_square"

    def __init__(self, center):
        self.center = np.asarray(center, dtype=float)
        self.shape = self.center.shape

    def eval(self, x):
        x = _finite(x)
        r = x - self.center
        return float(np.vdot(r, r)), 2.0 * r

    def lipschitz_upper(self):
        return 2.0

    def strong_convexity_lower(self):
        return 2.0

    def curvature_along(self, d):
        return 2.0 * float(np.vdot(d, d))


class MatrixCompletionLoss:
    """Sum over observed entries (i, j) of (X_ij - U_ij)^2."""

    variant = "matrix_completion"

    def __init__(self, observations, m, n):
        self.m = int(m)
        self.n = int(n)
        rows, cols, vals = [], [], []
        for i, j, u in observations:
            if not (0 <= i < m and 0 <= j < n):
                raise InputError("observation index out of range")
            rows.append(int(i))
            cols.append(int(j))
            vals.append(float(u))
        if not rows:
            raise InputError("need at least one observation")
        self.rows = np.array(rows)
        self.cols = np.array(cols)
        self.values = np.array(vals)
        self.shape = (self.m, self.n)

    def eval(self, x):
        x = _finite(x)
        r = x[self.rows, self.cols] - self.values
        grad = np.zeros(self.shape)
        np.add.at(grad, (self.rows, self.cols), 2.0 * r)
        return float(r @ r), grad

    def lipschitz_upper(self):
        return 2.0  # Hessian is twice the projector onto the observed mask

    def strong_convexity_lower(self):
        return 0.0

    def curvature_along(self, d):
        return 2.0 * float(np.sum(d[self.rows, self.cols] ** 2))


class BlockSeparable:
    """Sum of independent objectives on the blocks of a product region."""

    variant = "block_separable"

    def __init__(self, objectives, sizes=None):
        self.parts = list(objectives)
        if sizes is None:
            sizes = [p.shape[0] for p in self.parts]
        self.sizes = list(sizes)
        self.offsets = np.concatenate([[0], np.cumsum(self.sizes)])
        self.shape = (int(self.offsets[-1]),)

    def block_slice(self, i):
        return slice(int(self.offsets[i]), int(self.offsets[i + 1]))

    def eval(self, x):
        x = _finite(x)
        val = 0.0
        grad = np.zeros(self.shape)
        for i, p in enumerate(self.parts):
            sl = self.block_slice(i)
            v, g = p.eval(x[sl])
            val += v
            grad[sl] = g
        return val, grad

    def lipschitz_upper(self):
        return max(p.lipschitz_upper() for p in self.parts)

    def strong_convexity_lower(self):
        return min(p.strong_convexity_lower() for p in self.parts)

    def curvature_along(self, d):
        return sum(p.curvature_along(d[self.block_slice(i)])
                   for i, p in enumerate(self.parts))


def lipschitz_upper(obj):
    """Upper bound on the gradient's Lipschitz constant."""
    return obj.lipschitz_upper()


def strong_convexity_lower(obj):
    """Lower bound on the strong convexity modulus (0 if none certified)."""
    return obj.strong_convexity_lower()


def exact_linesearch_quadratic(obj, x, d, alpha_max):
    """Smallest minimizer of f(x + alpha d) over [0, alpha_max] for quadratics.

    Positive curvature along d gives the clamped Newton step; otherwise the
    cheaper endpoint wins, preferring 0 on ties.
    """
    d = np.asarray(d, dtype=float)
    if not np.any(d):
        raise InputError("direction must be nonzero")
    if not alpha_max > 0:
        raise InputError("alpha_max must be positive")
    curv = getattr(obj, "curvature_along", None)
    if curv is None:
        raise InputError("objective has no quadratic structure")
    f0, g = obj.eval(x)
    slope = float(np.vdot(g, d))
    c = curv(d)
    if c > 0.0:
        return min(max(-slope / c, 0.0), alpha_max)
    f1, _ = obj.eval(x + alpha_max * d)
    return 0.0 if f0 <= f1 else float(alpha_max)


class ProblemInstance:
    """Objective + region + known constants of one benchmark problem."""

    def __init__(self, objective, region, L, mu, D, f_star=None, x_star=None,
                 family=None, meta=None):
        self.objective = objective
        self.region = region
        self.L = float(L)
        self.mu = float(mu)
        self.D = float(D)
        self.f_star = None if f_star is None else float(f_star)
        self.x_star = None if x_star is None else np.asarray(x_star, dtype=float)
        self.family = family
        self.meta = dict(meta or {})
        self.curvature_upper = self.L * self.D ** 2
        if self.x_star is not None:
            if not region.contains(self.x_star, tol=1e-9):
                raise InputError("declared optimum is infeasible")
            val, _ = objective.eval(self.x_star)
            if self.f_star is None or abs(val - self.f_star) > 1e-9 * max(1.0, abs(val)):
                raise InputError("declared optimum does not match f_star")


def cardinality_cap_oracle(n, cap):
    """Submodular r(A) = min(|A|, cap)."""
    cap = int(cap)

    def oracle(subset):
        return float(min(len(subset), cap))

    def greedy(order):
        s = np.zeros(n)
        s[order[:max(cap, 0)]] = 1.0
        return s

    oracle.greedy = greedy
    return oracle


def modular_oracle(costs):
    """Modular r(A) = sum of costs over A."""
    costs = np.asarray(costs, dtype=float)
    if costs.ndim != 1 or not np.isfinite(costs).all():
        raise InputError("modular costs must be a finite vector")

    def oracle(subset):
        return float(sum(costs[i] for i in subset))

    def greedy(order):
        return costs.copy()

    oracle.greedy = greedy
    return oracle


def graph_cut_oracle(n, edges):
    """Submodular cut function of a weighted undirected graph.

    ``edges`` is a list of (u, v, weight) triples with 0-based endpoints and
    finite nonnegative weights (a negative weight makes the cut function
    not submodular).
    """
    table = [(int(u), int(v), float(w)) for u, v, w in edges]
    for u, v, w in table:
        if not (0 <= u < n and 0 <= v < n):
            raise InputError("edge endpoint out of range")
        if not 0.0 <= w < np.inf:
            raise InputError("edge weight must be finite and nonnegative, got %r" % w)
    # self-loops are never cut
    ends = np.array([(u, v) for u, v, _ in table if u != v], dtype=np.intp).reshape(-1, 2)
    weights = np.array([w for u, v, w in table if u != v])

    def oracle(subset):
        return float(sum(w for u, v, w in table if (u in subset) != (v in subset)))

    def greedy(order):
        # along the order an edge adds +w to the gain of its earlier endpoint
        # and -w to that of its later one
        rank = np.empty(n, dtype=np.intp)
        rank[order] = np.arange(n)
        u_first = rank[ends[:, 0]] < rank[ends[:, 1]]
        first = np.where(u_first, ends[:, 0], ends[:, 1])
        last = np.where(u_first, ends[:, 1], ends[:, 0])
        return (np.bincount(first, weights, minlength=n)
                - np.bincount(last, weights, minlength=n))

    oracle.greedy = greedy
    return oracle


def load_edge_list(path, weighted=True, one_indexed=True):
    """Parse 'u v [weight]' lines into (u, v, weight) triples (0-based)."""
    edges = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            u, v = int(parts[0]), int(parts[1])
            if one_indexed:
                u, v = u - 1, v - 1
            w = float(parts[2]) if weighted and len(parts) > 2 else 1.0
            edges.append((u, v, w))
    return edges


def load_observations(path, one_indexed=True):
    """Parse 'i j value' lines into (i, j, value) triples (0-based)."""
    obs = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            i, j, v = line.split()
            i, j = int(i), int(j)
            if one_indexed:
                i, j = i - 1, j - 1
            obs.append((i, j, float(v)))
    return obs


def _simplex_interior_distance(z):
    """Distance from an interior simplex point to the relative boundary."""
    n = z.size
    return float(np.min(z) * np.sqrt(n / (n - 1.0)))


def build_instance(family, seed=0, **params):
    """Seeded construction of one benchmark problem family."""
    rng = np.random.default_rng(seed)
    if family == "lasso":
        m = int(params.get("m", 20))
        n = int(params.get("n", 50))
        tau = float(params.get("tau", 1.0))
        noise = float(params.get("noise", 0.01))
        support = int(params.get("support", max(1, min(5, n))))
        a = params.get("design")
        b = params.get("response")
        if a is None:
            a = rng.standard_normal((m, n))
            # planted solution: `support` coordinates, signs random, 1-norm 0.9 tau
            idx = rng.choice(n, size=support, replace=False)
            x_plant = np.zeros(n)
            x_plant[idx] = rng.choice([-1.0, 1.0], size=support) * (0.9 * tau / support)
            b = a @ x_plant + noise * rng.standard_normal(m)
        else:
            a = np.asarray(a, dtype=float)
            b = np.asarray(b, dtype=float)
        obj = LeastSquares(a, b)
        region = rg.L1Ball(tau, n)
        return ProblemInstance(obj, region, obj.lipschitz_upper(),
                               obj.strong_convexity_lower(), region.diameter(),
                               family="lasso", meta={"tau": tau})
    if family == "meb_dual":
        pts = np.asarray(params["points"], dtype=float)  # (count, dim)
        a = pts.T
        b = np.array([float(p @ p) for p in pts])
        obj = FactoredQuadratic(a, b=-b, c=0.0, sign=+1)
        region = rg.Simplex(len(pts))
        return ProblemInstance(obj, region, obj.lipschitz_upper(),
                               obj.strong_convexity_lower(), region.diameter(),
                               family="meb_dual", meta={"points": pts})
    if family == "svm_dual":
        pts = np.asarray(params["points"], dtype=float)
        labels = np.asarray(params["labels"], dtype=float)
        a = (pts * labels[:, None]).T
        obj = FactoredQuadratic(a, sign=+1)
        region = rg.Simplex(len(pts))
        return ProblemInstance(obj, region, obj.lipschitz_upper(),
                               obj.strong_convexity_lower(), region.diameter(),
                               family="svm_dual")
    if family == "max_clique":
        edges = params.get("edges")
        n = int(params["n"])
        adj = np.zeros((n, n))
        for e in edges:
            u, v = int(e[0]), int(e[1])
            adj[u, v] = adj[v, u] = 1.0
        obj = Quadratic(-(adj + 0.5 * np.eye(n)))  # minimization form of the clique program
        region = rg.Simplex(n)
        return ProblemInstance(obj, region, obj.lipschitz_upper(), 0.0,
                               region.diameter(), family="max_clique",
                               meta={"adjacency": adj, "convex": False})
    if family == "matcomp":
        m = int(params.get("m", 20))
        n = int(params.get("n", 20))
        rank = int(params.get("rank", 2))
        density = float(params.get("density", 0.3))
        delta = float(params.get("delta", 2.0 * rank))
        obs = params.get("observations")
        if obs is None:
            u = rng.standard_normal((m, rank)) / np.sqrt(rank)
            v = rng.standard_normal((n, rank)) / np.sqrt(rank)
            target = u @ v.T
            mask = rng.random((m, n)) < density
            if not mask.any():
                mask[0, 0] = True
            obs = [(i, j, target[i, j]) for i, j in zip(*np.nonzero(mask))]
        obj = MatrixCompletionLoss(obs, m, n)
        region = rg.NuclearBall(delta, m, n)
        return ProblemInstance(obj, region, 2.0, 0.0, region.diameter(),
                               family="matcomp", meta={"delta": delta})
    if family == "simplex_distance":
        n = int(params["n"])
        center = np.full(n, 1.0 / n)
        obj = ShiftedNormSquare(center)
        region = rg.Simplex(n)
        return ProblemInstance(obj, region, 2.0, 2.0, region.diameter(),
                               f_star=0.0, x_star=center, family="simplex_distance")
    if family == "interior_quadratic":
        n = int(params["n"])
        offset = float(params.get("offset", 0.5))
        # optimum: barycenter nudged toward a seeded interior point
        w = rng.random(n) + 0.25
        z = (1.0 - offset) * np.full(n, 1.0 / n) + offset * (w / w.sum())
        a = np.eye(n) + 0.3 * rng.standard_normal((n, n)) / np.sqrt(n)
        obj = LeastSquares(a, a @ z)
        region = rg.Simplex(n)
        return ProblemInstance(obj, region, obj.lipschitz_upper(),
                               obj.strong_convexity_lower(), region.diameter(),
                               f_star=0.0, x_star=z, family="interior_quadratic",
                               meta={"interior_distance": _simplex_interior_distance(z)})
    if family == "boundary_quadratic":
        n = int(params["n"])
        support = int(params.get("support", max(2, n // 3)))
        grad_scale = float(params.get("grad_scale", 1.0))
        a = np.eye(n) + 0.3 * rng.standard_normal((n, n)) / np.sqrt(n)
        x_star = np.zeros(n)
        w = rng.random(support) + 0.5
        x_star[:support] = w / w.sum()
        g_star = np.zeros(n)
        g_star[support:] = grad_scale * (0.5 + rng.random(n - support))
        # f = ||A x - y||^2 with y chosen so grad(x*) = g*; KKT holds on the face
        y = a @ x_star - np.linalg.solve(a.T, g_star) / 2.0
        obj = LeastSquares(a, y)
        f_star, _ = obj.eval(x_star)
        region = rg.Simplex(n)
        return ProblemInstance(obj, region, obj.lipschitz_upper(),
                               obj.strong_convexity_lower(), region.diameter(),
                               f_star=f_star, x_star=x_star, family="boundary_quadratic",
                               meta={"support": list(range(support))})
    if family == "ball_quadratic":
        n = int(params["n"])
        eps = float(params.get("eps", 1.0))
        c = float(params.get("c", 0.0))
        direction = rng.standard_normal(n)
        direction /= np.linalg.norm(direction)
        dist = eps + c / 2.0 if c > 0 else eps
        z = dist * direction
        obj = ShiftedNormSquare(z)
        region = rg.L2Ball(eps, n)
        x_star = eps * direction if c > 0 else z
        f_star = (dist - eps) ** 2
        return ProblemInstance(obj, region, 2.0, 2.0, region.diameter(),
                               f_star=f_star, x_star=x_star, family="ball_quadratic",
                               meta={"grad_lower_bound": c})
    if family == "product":
        b = int(params.get("b", params.get("blocks", 3)))
        n = int(params["n"])
        blocks = [rg.Simplex(n) for _ in range(b)]
        centers = [np.full(n, 1.0 / n) for _ in range(b)]
        parts = [ShiftedNormSquare(cnt) for cnt in centers]
        obj = BlockSeparable(parts)
        region = rg.ProductRegion(blocks)
        return ProblemInstance(obj, region, 2.0, 2.0, region.diameter(),
                               f_star=0.0, x_star=np.concatenate(centers),
                               family="product",
                               meta={"block_L": [2.0] * b,
                                     "block_D": [blk.diameter() for blk in blocks]})
    if family == "min_norm_point":
        pts = np.asarray(params["points"], dtype=float)
        region = rg.VertexHull(pts)
        obj = ShiftedNormSquare(np.zeros(pts.shape[1]))
        return ProblemInstance(obj, region, 2.0, 2.0, region.diameter(),
                               family="min_norm_point")
    if family == "base_polytope_norm":
        oracle_name = params.get("oracle", "cardinality_cap")
        n = int(params["n"])
        if oracle_name == "cardinality_cap":
            oracle = cardinality_cap_oracle(n, params.get("cap", max(1, n // 2)))
        elif oracle_name == "graph_cut":
            edges = params.get("edges")
            if edges is None:
                edges = load_edge_list(params["edges_file"])
            oracle = graph_cut_oracle(n, edges)
        elif oracle_name == "modular":
            oracle = modular_oracle(params["costs"])
        else:
            raise InputError("unknown submodular oracle %r" % oracle_name)
        region = rg.BasePolytope(oracle, n)
        obj = ShiftedNormSquare(np.zeros(n))
        return ProblemInstance(obj, region, 2.0, 2.0, region.diameter(),
                               family="base_polytope_norm")
    raise InputError("unknown problem family %r" % family)


def compose_with_linear(obj, m):
    """Objective y -> f(M y) for an invertible change of variables."""
    m = np.asarray(m, dtype=float)
    if obj.variant == "least_squares":
        return LeastSquares(obj.a @ m, obj.b)
    if obj.variant == "factored_quadratic":
        return FactoredQuadratic(obj.a @ m, m.T @ obj.b, obj.c, obj.sign)
    if obj.variant == "shifted_norm_square":
        return LeastSquares(m, obj.center)
    if obj.variant == "quadratic":
        return Quadratic(m.T @ obj.q @ m, m.T @ obj.b, obj.c)
    raise InputError("cannot compose variant %r with a linear map" % obj.variant)

