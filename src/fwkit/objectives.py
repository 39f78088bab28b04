"""Differentiable objectives, their constants, and problem builders.

Objectives expose ``eval(x) -> (value, gradient)`` plus enough curvature
information for exact line search on quadratics.  The four quadratics
(``LeastSquares``, ``FactoredQuadratic``, ``Quadratic``,
``ShiftedNormSquare``) only name the parts of one form,
s <r, W r> + <b, x> + c with r = A x - t, which validates its inputs,
evaluates, and gives the constants.  A form with a design matrix A also
takes the images A x and A d from a caller that tracks them, and gives the
value alone from A x (``value``, O(m) plus O(n) for a linear term): a
solver that also tracks the gradient, which is affine in x, needs no A^T r
pass for f.  ``build_instance`` assembles the benchmark families (LASSO,
minimum enclosing ball dual, SVM dual, max-clique, matrix completion,
simplex distance, interior/boundary quadratics, ball quadratic, block
products) into ``ProblemInstance`` records carrying L, mu, diameter, and
the optimum when known analytically.
"""

from functools import cached_property

import numpy as np

from . import regions as rg
from .errors import InputError, all_finite


def _finite(v, what="input point"):
    v = np.asarray(v, dtype=float)
    if not all_finite(v):
        raise InputError("non-finite %s" % what)
    return v


def _sigma_extremes(a):
    """(sigma_max, sigma_min of A^T A as a map on R^n).

    A dense SVD gives both where sigma_min is wanted, for a tall or square A
    of at most 512 columns; elsewhere sigma_max is the 1-SVD's and sigma_min
    is taken as 0 (exact for a wide A, conservative past 512 columns).
    """
    a = np.asarray(a, dtype=float)
    m, n = a.shape
    if m >= n and n <= 512:
        s = np.linalg.svd(a, compute_uv=False)
        return float(s[0]), float(s[-1])
    return rg.top_singular_triple(a)[1], 0.0


class _QuadraticForm:
    """f(x) = s <r, W r> + <b, x> + c with r = A x - t, the one quadratic behind
    ``LeastSquares``, ``FactoredQuadratic``, ``Quadratic`` and ``ShiftedNormSquare``.

    A (design), W (symmetric weight), t (target), b and c are each optional: a
    missing A or W acts as the identity and a missing t as zero, while b and
    c are added only when given (adding zeros would turn a -0.0 into +0.0).
    A weighted form has neither A nor t, so it is x^T W x plus the linear
    part.  The scale s is any finite nonzero number (1/2 ||x||^2 has s = 1/2
    and no W to store).  ``a`` is public: the solvers track A x for forms
    that have one.
    """

    def __init__(self, a=None, w=None, t=None, b=None, c=None, s=+1):
        self.a = None if a is None else _finite(a, "design")
        self._w = None if w is None else _finite(w, "weight")
        self._t = None if t is None else _finite(t, "target")
        if self._w is not None:
            if self.a is not None or self._t is not None:
                raise InputError("a weighted form takes no design and no target")
            n = self._w.shape[0]
            if self._w.shape != (n, n):
                raise InputError("weight must be square")
            if not np.max(np.abs(self._w - self._w.T)) <= 1e-10:
                raise InputError("weight must be symmetric")
            self.shape = (n,)
        elif self.a is not None:
            if self.a.ndim != 2:
                raise InputError("design must be a matrix")
            self.shape = (self.a.shape[1],)
            if self._t is not None and self._t.shape != (self.a.shape[0],):
                raise InputError("residual target has wrong dimension")
        else:
            self.shape = self._t.shape
        self._b = None if b is None else _finite(b, "linear term")
        if self._b is not None and self._b.shape != self.shape:
            raise InputError("linear term has wrong dimension")
        self._c = None if c is None else float(_finite(c, "constant"))
        if not (np.isfinite(s) and s != 0):
            raise InputError("scale must be finite and nonzero")
        self._s = s

    def _value_and_wr(self, x, ax):
        """(f(x), W r): ``ax``, when given, is the image A x held by the caller."""
        r = x if self.a is None else (self.a @ x if ax is None else ax)
        if self._t is not None:
            r = r - self._t
        wr = r if self._w is None else self._w @ r
        val = self._s * float(np.vdot(r, wr))
        if self._b is not None:
            val += float(self._b @ x)
        if self._c is not None:
            val += self._c
        return val, wr

    def eval(self, x, ax=None):
        """(value, gradient); ``ax``, when given, is the image A x held by the caller."""
        x = _finite(x)
        val, wr = self._value_and_wr(x, ax)
        if self.a is None:
            grad = (2.0 * self._s) * wr
        else:
            grad = self.a.T @ wr
            grad *= 2.0 * self._s  # in place, with the bits of (2 s) * (A^T W r)
        if self._b is not None:
            grad += self._b
        return val, grad

    def value(self, x, ax):
        """The value of ``eval(x, ax=ax)`` without its gradient.  Unlike ``eval`` it does
        not check x: its caller is a solver, whose x is its own convex combination of
        atoms that were already checked."""
        return self._value_and_wr(x, ax)[0]

    def curvature_along(self, d, ad=None):
        """<d, Hessian d> = 2 s <A d, W A d>; ``ad``, when given, is the image A d."""
        if ad is None:
            ad = d if self.a is None else self.a @ d
        wad = ad if self._w is None else self._w @ ad
        return 2.0 * self._s * float(np.vdot(ad, wad))

    @cached_property
    def _spectrum(self):
        """(largest |eigenvalue|, smallest eigenvalue) of A^T W A, computed once per form."""
        if self._w is not None:
            eig = np.linalg.eigvalsh(self._w)
            return float(np.max(np.abs(eig))), float(eig[0])
        if self.a is None:
            return 1.0, 1.0
        smax, smin = _sigma_extremes(self.a)
        return smax ** 2, smin ** 2

    def lipschitz_upper(self):
        return 2.0 * abs(self._s) * self._spectrum[0]

    def strong_convexity_lower(self):
        if self._s < 0 or (self.a is not None and self.a.shape[0] < self.a.shape[1]):
            return 0.0
        low = self._spectrum[1]
        return 2.0 * self._s * low if low > 0 else 0.0


class FactoredQuadratic(_QuadraticForm):
    """sign * x^T A^T A x + b^T x + c."""

    def __init__(self, a, b=None, c=0.0, sign=+1):
        if sign not in (-1, +1):
            raise InputError("sign must be -1 or +1")
        super().__init__(a=a, b=np.zeros(np.shape(a)[-1]) if b is None else b, c=c, s=int(sign))
        self.b, self.c, self.sign = self._b, self._c, self._s


class LeastSquares(_QuadraticForm):
    """||A x - b||^2."""

    def __init__(self, a, b):
        super().__init__(a=a, t=b)
        self.b = self._t


class Quadratic(_QuadraticForm):
    """x^T Q x + b^T x + c with symmetric Q (possibly indefinite).

    The factored form cannot express indefinite simplex programs such as
    the clique objective, so those builders use this one.
    """

    def __init__(self, q, b=None, c=0.0):
        super().__init__(w=q, b=np.zeros(len(q)) if b is None else b, c=c)
        self.q, self.b, self.c = self._w, self._b, self._c


class ShiftedNormSquare(_QuadraticForm):
    """scale * ||x - center||^2 (scale 1/2 is the min-norm point's objective)."""

    def __init__(self, center, scale=1):
        super().__init__(t=center, s=scale)
        self.center = self._t


class MatrixCompletionLoss:
    """Sum over observed entries (i, j) of (X_ij - U_ij)^2."""

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
        # a zero block adds an exact +-0.0, so summing over the blocks where d
        # is nonzero (in block order) keeps the sum's bits
        total = 0.0
        hit = np.searchsorted(self.offsets, np.flatnonzero(d), side="right") - 1
        for i in np.unique(hit).tolist():
            total += self.parts[i].curvature_along(d[self.block_slice(i)])
        return total


def design_of(obj):
    """The design matrix A of a quadratic form, or None for any other objective."""
    return obj.a if isinstance(obj, _QuadraticForm) else None


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

    def end_gains():
        return np.full(n, float(min(1, cap))), np.full(n, float(min(n, cap) - min(n - 1, cap)))

    oracle.greedy = greedy
    oracle.end_gains = end_gains
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

    def end_gains():
        # r({i}) = r(V - {i}) = i's weights summed from 0.0 in edge order, as `oracle` does
        cut = np.bincount(ends.ravel(), np.repeat(weights, 2), minlength=n)
        return cut, 0.0 - cut

    oracle.greedy = greedy
    oracle.end_gains = end_gains
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


# the families ``build_instance`` builds
FAMILIES = ("lasso", "meb_dual", "svm_dual", "max_clique", "matcomp",
            "simplex_distance", "interior_quadratic", "boundary_quadratic",
            "ball_quadratic", "product", "base_polytope_norm", "min_norm_point")


def build_instance(family, seed=0, **params):
    """Seeded construction of one benchmark problem family (one of ``FAMILIES``).

    A parameter the family needs and ``params`` lacks raises ``InputError``.
    """
    rng = np.random.default_rng(seed)

    def need(key, when=""):
        if key not in params:
            raise InputError("%s%s needs the parameter %r" % (family, when, key))
        return params[key]

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
        pts = np.asarray(need("points"), dtype=float)  # (count, dim)
        a = pts.T
        b = np.array([float(p @ p) for p in pts])
        obj = FactoredQuadratic(a, b=-b, c=0.0, sign=+1)
        region = rg.Simplex(len(pts))
        return ProblemInstance(obj, region, obj.lipschitz_upper(),
                               obj.strong_convexity_lower(), region.diameter(),
                               family="meb_dual", meta={"points": pts})
    if family == "svm_dual":
        pts = np.asarray(need("points"), dtype=float)
        labels = np.asarray(need("labels"), dtype=float)
        a = (pts * labels[:, None]).T
        obj = FactoredQuadratic(a, sign=+1)
        region = rg.Simplex(len(pts))
        return ProblemInstance(obj, region, obj.lipschitz_upper(),
                               obj.strong_convexity_lower(), region.diameter(),
                               family="svm_dual")
    if family == "max_clique":
        edges = need("edges")
        n = int(need("n"))
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
        n = int(need("n"))
        center = np.full(n, 1.0 / n)
        obj = ShiftedNormSquare(center)
        region = rg.Simplex(n)
        return ProblemInstance(obj, region, 2.0, 2.0, region.diameter(),
                               f_star=0.0, x_star=center, family="simplex_distance")
    if family == "interior_quadratic":
        n = int(need("n"))
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
        n = int(need("n"))
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
        n = int(need("n"))
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
        n = int(need("n"))
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
        pts = np.asarray(need("points"), dtype=float)
        region = rg.VertexHull(pts)
        obj = ShiftedNormSquare(np.zeros(pts.shape[1]), scale=0.5)  # as Wolfe's method minimizes
        return ProblemInstance(obj, region, 1.0, 1.0, region.diameter(),
                               family="min_norm_point")
    if family == "base_polytope_norm":
        oracle_name = params.get("oracle", "cardinality_cap")
        n = int(need("n"))
        if oracle_name == "cardinality_cap":
            oracle = cardinality_cap_oracle(n, params.get("cap", max(1, n // 2)))
        elif oracle_name == "graph_cut":
            edges = params.get("edges")
            if edges is None:
                when = " with the graph_cut oracle and no edges"
                edges = load_edge_list(need("edges_file", when))
            oracle = graph_cut_oracle(n, edges)
        elif oracle_name == "modular":
            oracle = modular_oracle(need("costs"))
        else:
            raise InputError("unknown submodular oracle %r" % oracle_name)
        region = rg.BasePolytope(oracle, n)
        obj = ShiftedNormSquare(np.zeros(n))
        return ProblemInstance(obj, region, 2.0, 2.0, region.diameter(),
                               family="base_polytope_norm")
    raise InputError("unknown problem family %r" % family)


def compose_with_linear(obj, m):
    """Objective y -> f(M y) for an invertible change of variables.

    On a quadratic form M joins the design, A' = (A or I) M, when there is
    no weight, and the weight, W' = M^T W M, otherwise; b' = M^T b in both.
    """
    if not isinstance(obj, _QuadraticForm):
        raise InputError("cannot compose %s with a linear map" % type(obj).__name__)
    m = np.asarray(m, dtype=float)
    a, w = obj.a, obj._w
    if w is None:
        a = m if a is None else a @ m
    else:
        w = m.T @ w @ m
    return _QuadraticForm(a=a, w=w, t=obj._t, b=None if obj._b is None else m.T @ obj._b,
                          c=obj._c, s=obj._s)
