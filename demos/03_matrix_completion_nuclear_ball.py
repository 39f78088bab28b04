# python3
"""
Matrix completion over the nuclear-norm ball
============================================

The oracle for the nuclear ball is a 1-SVD: the top singular pair of the
(sparse) negated gradient, from the top eigenvector of the Gram matrix of
its smaller side, checked by its residual.  Each
step adds one rank-one atom, so the iterate after k steps has rank at most
k + 1 -- low-rank structure for free, no projections anywhere.
"""
import numpy as np

import fwkit as fw

inst = fw.build_instance("matcomp", m=30, n=24, rank=3, density=0.35,
                         delta=6.0, seed=5)
config = fw.SolverConfig(variant="FW", stepsize=fw.ExactLine(),
                         max_iter=300, gap_tol=1e-6, seed=0)
report = fw.solve(inst, config)

print("observed entries: %d of %d" % (len(inst.objective.values), 30 * 24))
print("termination: %s after %d iterations" % (report.termination, report.records[-1].k))
print("training loss: %.3e (from %.3e)" % (report.records[-1].f, report.records[0].f))

x = report.meta["x_final"]
svals = np.linalg.svd(x, compute_uv=False)
print("nuclear norm of the iterate: %.3f (budget %.1f)" % (svals.sum(), 6.0))
print("effective rank (sigma > 1e-6): %d, atoms held: %d"
      % (int(np.sum(svals > 1e-6)), report.records[-1].support_size))

# the 1-SVD inside the oracle agrees with a dense decomposition
_, g = inst.objective.eval(x)
u, sigma, v = fw.top_singular_triple(-g)
dense_sigma = np.linalg.svd(-g, compute_uv=False)[0]
print("1-SVD sigma: %.12f vs dense SVD %.12f" % (sigma, dense_sigma))
assert abs(sigma - dense_sigma) <= 1e-12 * dense_sigma
