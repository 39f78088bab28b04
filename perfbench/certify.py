"""Independent certificates for solver outputs, in plain numpy.

Nothing here calls fwkit: each problem is described again from its raw
data (design matrix, observations, edge list, vertex list), with its own
gradient, its own linear minimization oracle and its own membership test.
A job passes when its final point is feasible and the Frank-Wolfe gap
recomputed at that point is within the job's tolerance.
"""

import numpy as np

_REL = 1e-9  # rounding slack relative to the magnitudes that enter a test


class LeastSquares:
    """f(x) = ||A x - b||^2."""

    def __init__(self, a, b):
        self.a = np.asarray(a, dtype=float)
        self.b = np.asarray(b, dtype=float)

    def grad(self, x):
        return 2.0 * (self.a.T @ (self.a @ x - self.b))


class ShiftedSquare:
    """f(x) = ||x - c||^2."""

    def __init__(self, center):
        self.center = np.asarray(center, dtype=float)

    def grad(self, x):
        return 2.0 * (x - self.center)


class MatrixCompletion:
    """f(X) = sum over observed (i, j) of (X_ij - U_ij)^2."""

    def __init__(self, rows, cols, values, shape):
        self.rows = np.asarray(rows)
        self.cols = np.asarray(cols)
        self.values = np.asarray(values, dtype=float)
        self.shape = shape

    def grad(self, x):
        g = np.zeros(self.shape)
        g[self.rows, self.cols] = 2.0 * (x[self.rows, self.cols] - self.values)
        return g


class L1Ball:
    def __init__(self, tau):
        self.tau = float(tau)

    def value(self, g):
        """min over the ball of <g, s>."""
        return -self.tau * float(np.max(np.abs(g)))

    def contains(self, x):
        return float(np.abs(x).sum()) <= self.tau * (1.0 + _REL)


class NuclearBall:
    def __init__(self, delta):
        self.delta = float(delta)

    def value(self, g):
        return -self.delta * float(np.linalg.svd(g, compute_uv=False)[0])

    def contains(self, x):
        return float(np.linalg.svd(x, compute_uv=False).sum()) <= self.delta * (1.0 + _REL)


class Simplex:
    def value(self, g):
        return float(np.min(g))

    def contains(self, x):
        return bool(np.min(x) >= -1e-12 and abs(float(np.sum(x)) - 1.0) <= _REL)


class Product:
    """Cartesian product of equal-sized blocks."""

    def __init__(self, blocks, size):
        self.blocks = list(blocks)
        self.size = int(size)

    def _parts(self, v):
        return [v[i * self.size:(i + 1) * self.size] for i in range(len(self.blocks))]

    def value(self, g):
        return sum(b.value(p) for b, p in zip(self.blocks, self._parts(g)))

    def contains(self, x):
        return all(b.contains(p) for b, p in zip(self.blocks, self._parts(x)))


class GraphCutBase:
    """Base polytope of the cut function of a weighted undirected graph."""

    def __init__(self, n, edges):
        self.n = int(n)
        w = np.zeros((self.n, self.n))
        for u, v, weight in edges:
            if u != v:
                w[u, v] += weight
                w[v, u] += weight
        self.w = w

    def cut(self, members):
        inside = np.asarray(members, dtype=float)
        return float(inside @ self.w @ (1.0 - inside))

    def greedy(self, g):
        """Vertex minimizing <g, s>: marginal cut gains in increasing order of g."""
        order = np.argsort(g, kind="stable")
        inside = np.zeros(self.n)
        s = np.zeros(self.n)
        for j in order:
            # adding j cuts its edges to the outside and uncuts those to the inside
            s[j] = float(self.w[j] @ (1.0 - 2.0 * inside))
            inside[j] = 1.0
        return s

    def value(self, g):
        return float(g @ self.greedy(g))

    def contains(self, x):
        """Necessary conditions: x(V) = r(V), and x(S) <= r(S) on singletons
        and on the prefixes of x sorted in decreasing order."""
        tol = _REL * max(1.0, float(self.w.sum()))
        if abs(float(x.sum())) > tol:  # x(V) must equal r(V), and the cut of V is empty
            return False
        single = self.w.sum(axis=1)
        if np.any(x > single + tol):
            return False
        inside = np.zeros(self.n)
        total = 0.0
        for j in np.argsort(-x, kind="stable"):
            inside[j] = 1.0
            total += float(x[j])
            if total > self.cut(inside) + tol:
                return False
        return True


class Problem:
    """Objective plus region, each described from the job's raw data."""

    def __init__(self, objective, region):
        self.objective = objective
        self.region = region

    def gap(self, x):
        g = self.objective.grad(x)
        gx = float(np.vdot(g, x))
        low = self.region.value(g)
        return gx - low, _REL * (abs(gx) + abs(low))

    def certify(self, x, gap_tol):
        """(ok, detail) for a final point claimed to meet ``gap_tol``."""
        x = np.asarray(x, dtype=float)
        if not np.all(np.isfinite(x)):
            return False, "non-finite point"
        if not self.region.contains(x):
            return False, "infeasible point"
        gap, slack = self.gap(x)
        if gap > gap_tol + slack:
            return False, "gap %.3e above tolerance %.1e" % (gap, gap_tol)
        return True, "gap %.3e" % gap


class MinNormPoint:
    """Wolfe's problem: least-norm point of the hull of ``points``."""

    def __init__(self, points):
        self.points = np.asarray(points, dtype=float)

    def certify(self, x, gap_tol, corral, weights):
        x = np.asarray(x, dtype=float)
        weights = np.asarray(weights, dtype=float)
        scale = max(1.0, float(np.max(np.abs(self.points))))
        if np.any(weights < -1e-12) or abs(float(weights.sum()) - 1.0) > _REL:
            return False, "corral weights off the simplex"
        if np.linalg.norm(weights @ self.points[list(corral)] - x) > _REL * scale:
            return False, "point differs from its corral combination"
        gap = float(x @ x - np.min(self.points @ x))
        if gap > gap_tol + 1e-14 * scale * scale:
            return False, "gap %.3e above tolerance %.1e" % (gap, gap_tol)
        return True, "gap %.3e" % gap
