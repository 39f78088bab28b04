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

import inspect
from functools import cached_property

import numpy as np

from . import regions as rg
from .errors import InputError, all_finite, count_in


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
        if any(part is not None and part.size == 0 for part in (self.a, self._w, self._t)):
            raise InputError("a quadratic form's design, weight and target must be nonempty")
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
        self.center, self.scale = self._t, scale


class MatrixCompletionLoss:
    """Sum over observed entries (i, j) of (X_ij - U_ij)^2."""

    def __init__(self, observations, m, n):
        self.m = int(m)
        self.n = int(n)
        table = np.array([(i, j, u) for i, j, u in observations], dtype=float)
        if not table.size:
            raise InputError("need at least one observation")
        i, j, values = table.T.copy()  # the rows of a C-order copy: each one contiguous
        if not (np.all((0 <= i) & (i < self.m)) and np.all((0 <= j) & (j < self.n))):
            raise InputError("observation index out of range")
        if np.any(table[:, :2] % 1.0):
            raise InputError("observation indices must be whole numbers")
        if not all_finite(values):
            raise InputError("observation values must be finite")
        self.rows, self.cols, self.values = i.astype(int), j.astype(int), values
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

    def __init__(self, objectives):
        self.parts = list(objectives)
        self.sizes = [p.shape[0] for p in self.parts]
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
    """Objective + region + known constants of one benchmark problem; L, mu and D default to
    the objective's ``lipschitz_upper()``, ``strong_convexity_lower()`` and the region's
    ``diameter()``."""

    def __init__(self, objective, region, L=None, mu=None, D=None, f_star=None, x_star=None,
                 family=None, meta=None):
        self.objective = objective
        self.region = region
        self.L = float(objective.lipschitz_upper() if L is None else L)
        self.mu = float(objective.strong_convexity_lower() if mu is None else mu)
        self.D = float(region.diameter() if D is None else D)
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


class _Triples:
    """A file of 'a b [c]' lines, one per 0-based triple (a - 1, b - 1, c): the indices are
    1-based, blank and '#' lines are skipped, and c is left out where it is ``default`` (an
    edge's weight 1); a None default makes every c required."""

    def __init__(self, default=None):
        self.default = default

    def load(self, path):
        triples = []
        with open(path) as fh:
            for number, line in enumerate(fh, 1):
                parts = line.split()
                if not parts or parts[0].startswith("#"):
                    continue
                where = "%s, line %d %r" % (path, number, line.strip())
                if len(parts) == 2 and self.default is None:
                    raise InputError("%s lacks its value" % where)
                try:
                    a, b, *c = parts
                    if len(c) > 1:
                        raise ValueError("%d fields" % len(parts))
                    triples.append((int(a) - 1, int(b) - 1, float(c[0]) if c else self.default))
                except ValueError as exc:
                    raise InputError("%s is not 'a b [c]' with integer a and b and a number c "
                                     "(%s)" % (where, exc)) from None
        return triples

    def save(self, path, triples):
        with open(path, "w") as fh:
            for a, b, c in triples:
                fh.write("%d %d%s\n" % (a + 1, b + 1, "" if c == self.default else " %.17g" % c))


EDGES, OBSERVATIONS = _Triples(1.0), _Triples()
load_edge_list, load_observations = EDGES.load, OBSERVATIONS.load


def _missing(family, key, when=""):
    return InputError("%s%s needs the parameter %r" % (family, when, key))


# One builder per family: its signature after ``rng`` is the family's parameter list, with
# its defaults; a parameter without a default is required.  Each returns the instance,
# whose L, mu and D ``ProblemInstance`` derives unless the builder states them (three
# norm-square families state L = mu = 2: they are built hundreds of times per set-up).

def _lasso(rng, m=None, n=None, tau=1.0, noise=0.01, support=None, design=None,
           response=None):
    """Least squares on the l1 ball: a given design (which sets m and n) and response, or a
    seeded 20 x 50 design and a response planted on min(5, n) coordinates by default."""
    tau = float(tau)
    if (design is None) != (response is None):
        raise InputError("lasso takes a design and a response together")
    if design is None:
        m = count_in(20 if m is None else m, "lasso's m")
        n = count_in(50 if n is None else n, "lasso's n")
        support = count_in(min(5, n) if support is None else support, "lasso's support", 1, n)
        a = rng.standard_normal((m, n))
        # planted solution: `support` coordinates, signs random, 1-norm 0.9 tau
        idx = rng.choice(n, size=support, replace=False)
        x_plant = np.zeros(n)
        x_plant[idx] = rng.choice([-1.0, 1.0], size=support) * (0.9 * tau / support)
        obj = LeastSquares(a, a @ x_plant + float(noise) * rng.standard_normal(m))
    else:
        obj = LeastSquares(design, response)  # which checks the design is a finite matrix
        if any(v is not None and int(v) != size for v, size in zip((m, n), obj.a.shape)):
            raise InputError("lasso's design is %d x %d; m and n must match it" % obj.a.shape)
        n = obj.shape[0]
    return ProblemInstance(obj, rg.L1Ball(tau, n), meta={"tau": tau})


def _meb_dual(rng, points):
    """Minimum enclosing ball dual on the simplex, over the rows of ``points``."""
    pts = np.asarray(points, dtype=float)  # (count, dim)
    b = np.array([float(p @ p) for p in pts])
    return ProblemInstance(FactoredQuadratic(pts.T, b=-b, c=0.0, sign=+1),
                           rg.Simplex(len(pts)), meta={"points": pts})


def _svm_dual(rng, points, labels):
    """Hard-margin SVM dual on the simplex."""
    pts = np.asarray(points, dtype=float)
    labels = np.asarray(labels, dtype=float)
    if labels.ndim != 1 or len(labels) != len(pts):
        raise InputError("svm_dual takes a vector of one label per point: %d points, %d labels"
                         % (len(pts), labels.size))
    return ProblemInstance(FactoredQuadratic((pts * labels[:, None]).T, sign=+1),
                           rg.Simplex(len(pts)))


def _max_clique(rng, edges, n):
    """The clique program of an n-node graph on the simplex, in minimization form."""
    n = count_in(n, "max_clique's n")
    ends = np.array([(int(e[0]), int(e[1])) for e in edges], dtype=np.intp).reshape(-1, 2)
    if not np.all((0 <= ends) & (ends < n)):
        raise InputError("edge endpoint out of range")
    adj = np.zeros((n, n))
    adj[ends.ravel(), ends[:, ::-1].ravel()] = 1.0  # u v and v u of each edge
    return ProblemInstance(Quadratic(-(adj + 0.5 * np.eye(n))), rg.Simplex(n),
                           meta={"adjacency": adj, "convex": False})


def _matcomp(rng, m=20, n=20, rank=2, density=0.3, delta=None, observations=None):
    """Matrix completion on the nuclear ball of radius delta (2 rank by default)."""
    m, n = count_in(m, "matcomp's m"), count_in(n, "matcomp's n")
    rank, density = int(rank), float(density)
    delta = float(2.0 * rank if delta is None else delta)
    if observations is None:
        u = rng.standard_normal((m, rank)) / np.sqrt(rank)
        v = rng.standard_normal((n, rank)) / np.sqrt(rank)
        target = u @ v.T
        mask = rng.random((m, n)) < density
        if not mask.any():
            mask[0, 0] = True
        observations = [(i, j, target[i, j]) for i, j in zip(*np.nonzero(mask))]
    return ProblemInstance(MatrixCompletionLoss(observations, m, n),
                           rg.NuclearBall(delta, m, n), meta={"delta": delta})


def _simplex_distance(rng, n):
    """Squared distance to the barycenter of the simplex: the tight Omega(1/k) example."""
    n = count_in(n, "simplex_distance's n")
    center = np.full(n, 1.0 / n)
    return ProblemInstance(ShiftedNormSquare(center), rg.Simplex(n), 2.0, 2.0, f_star=0.0,
                           x_star=center)


def _interior_quadratic(rng, n, offset=0.5):
    """A strongly convex quadratic with its optimum inside the simplex."""
    n, offset = count_in(n, "interior_quadratic's n", 2), float(offset)
    # optimum: barycenter nudged toward a seeded interior point
    w = rng.random(n) + 0.25
    z = (1.0 - offset) * np.full(n, 1.0 / n) + offset * (w / w.sum())
    a = np.eye(n) + 0.3 * rng.standard_normal((n, n)) / np.sqrt(n)
    # z's distance to the simplex's relative boundary
    return ProblemInstance(LeastSquares(a, a @ z), rg.Simplex(n), f_star=0.0, x_star=z,
                           meta={"interior_distance": float(np.min(z) * np.sqrt(n / (n - 1.0)))})


def _boundary_quadratic(rng, n, support=None, grad_scale=1.0):
    """A strongly convex quadratic with its optimum on the face of the first ``support``."""
    n = count_in(n, "boundary_quadratic's n")
    support = count_in(max(2, n // 3) if support is None else support,
                       "boundary_quadratic's support", 1, n)
    grad_scale = float(grad_scale)
    a = np.eye(n) + 0.3 * rng.standard_normal((n, n)) / np.sqrt(n)
    x_star = np.zeros(n)
    w = rng.random(support) + 0.5
    x_star[:support] = w / w.sum()
    g_star = np.zeros(n)
    g_star[support:] = grad_scale * (0.5 + rng.random(n - support))
    # f = ||A x - y||^2 with y chosen so grad(x*) = g*; KKT holds on the face
    obj = LeastSquares(a, a @ x_star - np.linalg.solve(a.T, g_star) / 2.0)
    return ProblemInstance(obj, rg.Simplex(n), f_star=obj.eval(x_star)[0], x_star=x_star,
                           meta={"support": list(range(support))})


def _ball_quadratic(rng, n, eps=1.0, c=0.0):
    """Squared distance over the ball of radius eps, whose gradient norm stays above c."""
    n, eps, c = count_in(n, "ball_quadratic's n"), float(eps), float(c)
    direction = rng.standard_normal(n)
    direction /= np.linalg.norm(direction)
    dist = eps + c / 2.0 if c > 0 else eps
    z = dist * direction
    return ProblemInstance(ShiftedNormSquare(z), rg.L2Ball(eps, n), f_star=(dist - eps) ** 2,
                           x_star=eps * direction if c > 0 else z,
                           meta={"grad_lower_bound": c})


def _product(rng, n, b=3):
    """Squared distance to the barycenters of b simplices of n vertices, block by block."""
    b, n = int(b), int(n)
    blocks = [rg.Simplex(n) for _ in range(b)]
    centers = [np.full(n, 1.0 / n) for _ in range(b)]
    parts = [ShiftedNormSquare(cnt) for cnt in centers]
    return ProblemInstance(BlockSeparable(parts), rg.ProductRegion(blocks), 2.0, 2.0,
                           f_star=0.0, x_star=np.concatenate(centers),
                           meta={"block_L": [2.0] * b,
                                 "block_D": [blk.diameter() for blk in blocks]})


def _min_norm_point(rng, points):
    """f = 1/2 ||x||^2, as Wolfe's method minimizes, over the hull of the rows of ``points``."""
    region = rg.VertexHull(np.asarray(points, dtype=float))
    return ProblemInstance(ShiftedNormSquare(np.zeros(region.n), scale=0.5), region)


def _base_polytope_norm(rng, n, oracle="cardinality_cap", cap=None, edges=None, costs=None):
    """||x||^2 over the base polytope of a built-in submodular function of n elements."""
    n = int(n)
    for name, value, reader in (("cap", cap, "cardinality_cap"), ("edges", edges, "graph_cut"),
                                ("costs", costs, "modular")):
        if value is not None and oracle != reader:
            raise InputError("base_polytope_norm reads %r only with the %s oracle, not with %r"
                             % (name, reader, oracle))
    if oracle == "cardinality_cap":
        fn = cardinality_cap_oracle(n, max(1, n // 2) if cap is None else cap)
    elif oracle == "graph_cut":
        if edges is None:
            raise _missing("base_polytope_norm", "edges", " with the graph_cut oracle")
        fn = graph_cut_oracle(n, edges)
    elif oracle == "modular":
        if costs is None:
            raise _missing("base_polytope_norm", "costs", " with the modular oracle")
        fn = modular_oracle(costs)
    else:
        raise InputError("unknown submodular oracle %r" % (oracle,))
    return ProblemInstance(ShiftedNormSquare(np.zeros(n)), rg.BasePolytope(fn, n), 2.0, 2.0)


# the families ``build_instance`` builds, each named by its builder
FAMILIES = {builder.__name__[1:]: builder for builder in (
    _lasso, _meb_dual, _svm_dual, _max_clique, _matcomp, _simplex_distance,
    _interior_quadratic, _boundary_quadratic, _ball_quadratic, _product,
    _base_polytope_norm, _min_norm_point)}


def _parameters(builder):
    """(names, required names) of a builder's parameters after ``rng``."""
    params = list(inspect.signature(builder).parameters.values())[1:]
    return {p.name for p in params}, [p.name for p in params if p.default is p.empty]


_PARAMETERS = {name: _parameters(builder) for name, builder in FAMILIES.items()}


def build_instance(family, seed=0, **params):
    """Seeded construction of one benchmark problem family (one of ``FAMILIES``).

    A parameter the family does not take, or one it needs and ``params``
    lacks, raises ``InputError`` naming it.
    """
    builder = FAMILIES.get(family) if isinstance(family, str) else None
    if builder is None:
        raise InputError("unknown problem family %r" % (family,))
    names, required = _PARAMETERS[family]
    for key in params:
        if key not in names:
            raise InputError("%s takes no parameter %r" % (family, key))
    for key in required:
        if key not in params:
            raise _missing(family, key)
    instance = builder(np.random.default_rng(seed), **params)
    instance.family = family
    return instance


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
