# python3
"""
Wolfe's min-norm-point method
=============================

Finds the point of a polytope closest to the origin by maintaining a
corral: affinely independent vertices whose hull contains the current
iterate in its relative interior.  It is fully corrective Frank-Wolfe (EFW)
on f = 1/2 ||x||^2 over the vertices' hull, started from the vertex of
least norm: each round inserts the vertex screening the current gradient,
and minor cycles jump to the least-norm point of the corral's affine hull,
clipping at the hull boundary and evicting atoms with nonpositive
coefficients.  Its records are the instance's f, so it compares with any
other variant on the same instance.  The same engine measures distances
between convex hulls via the Minkowski difference.
"""
import numpy as np

import fwkit as fw
from fwkit.objectives import FactoredQuadratic, ProblemInstance
from fwkit.regions import Simplex

rng = np.random.default_rng(4)
pts = rng.standard_normal((40, 6)) + 0.8

config = fw.SolverConfig(variant="WolfeMNP", max_iter=500, gap_tol=1e-14)
report = fw.solve_wolfe_mnp(pts, config)
x = report.meta["x_final"]
print("min-norm point: ||x|| = %.10f after %d major cycles (%s)"
      % (np.linalg.norm(x), report.records[-1].k, report.termination))
print("corral size at the end: %d (dimension + 1 = %d possible)"
      % (report.records[-1].support_size, pts.shape[1] + 1))

# cross-check against a long away-step run on the equivalent simplex QP
obj = FactoredQuadratic(pts.T)
inst = ProblemInstance(obj, Simplex(len(pts)), obj.lipschitz_upper(), 0.0,
                       np.sqrt(2.0), family="qp_reference")
ref = fw.solve(inst, fw.SolverConfig(variant="AFW", stepsize=fw.ExactLine(),
                                     max_iter=20000, gap_tol=1e-15,
                                     record_every=10 ** 9))
x_ref = pts.T @ ref.meta["x_final"]
print("distance to the QP reference: %.2e" % np.linalg.norm(x - x_ref))
assert np.linalg.norm(x - x_ref) <= 1e-8

# the same f = 1/2 ||x||^2 on the same hull, minimized by away-step FW
inst = fw.build_instance("min_norm_point", points=pts)
afw = fw.solve(inst, fw.SolverConfig(variant="AFW", stepsize=fw.ExactLine(),
                                     max_iter=20000, gap_tol=1e-12))
print("f: WolfeMNP %.12f in %d rounds, AFW %.12f in %d steps"
      % (report.records[-1].f, report.records[-1].k, afw.records[-1].f, afw.records[-1].k))
assert abs(report.records[-1].f - afw.records[-1].f) <= 1e-12

# hull-to-hull distance via the Minkowski difference
a = rng.standard_normal((8, 3))
b = rng.standard_normal((8, 3)) + np.array([4.0, 0.0, 0.0])
print("distance between two random hulls: %.6f" % fw.hull_distance(a, b))
