# python3
"""
Submodular minimization through the base polytope
=================================================

The base polytope of a submodular function admits a sorting-based linear
oracle, so projection-free methods run at n log n per round where a
projection would need a full combinatorial solve.  Finding the min-norm
point of the base polytope solves submodular minimization: the strictly
negative coordinates of the optimum spell out a minimizing set.  We use a
graph cut rewarded for covering vertices (cut minus a modular weight,
still submodular: some vertices pay, some reward) and verify against
brute-force enumeration.
"""
import itertools

import numpy as np

import fwkit as fw
from fwkit.objectives import ProblemInstance, ShiftedNormSquare, graph_cut_oracle
from fwkit.regions import BasePolytope

n = 6
edges = [(0, 1, 1.0), (1, 2, 0.5), (2, 3, 2.0), (3, 4, 0.5), (4, 5, 1.0),
         (0, 5, 1.5), (1, 4, 0.5)]
cut = graph_cut_oracle(n, edges)
vertex_gain = np.array([2.0, 3.0, -1.0, 2.5, -2.5, 0.5])


def objective_set_function(subset):
    return cut(subset) - float(sum(vertex_gain[i] for i in subset))


# The marginal gains along a whole order in one numpy pass: the cut's own
# closed form minus the modular part.  The LMO uses it in place of n calls
# on growing prefixes.
objective_set_function.greedy = lambda order: cut.greedy(order) - vertex_gain

region = BasePolytope(objective_set_function, n)
inst = ProblemInstance(ShiftedNormSquare(np.zeros(n)), region, 2.0, 2.0,
                       region.diameter(), family="base_polytope_norm")
config = fw.SolverConfig(variant="AFW", stepsize=fw.ExactLine(),
                         max_iter=5000, gap_tol=1e-12, seed=0)
report = fw.solve(inst, config)
s = report.meta["x_final"]
print("min-norm point of the base polytope: ||s|| = %.6f (%s, %d iterations)"
      % (np.linalg.norm(s), report.termination, report.records[-1].k))

proposed = frozenset(int(i) for i in np.flatnonzero(s < -1e-9))
brute_best, brute_arg = min(
    ((objective_set_function(frozenset(sub)), frozenset(sub))
     for r in range(n + 1) for sub in itertools.combinations(range(n), r)),
    key=lambda t: t[0])
print("thresholded set %s scores %.1f; brute-force minimum %.1f at %s"
      % (sorted(proposed), objective_set_function(proposed), brute_best,
         sorted(brute_arg)))
assert objective_set_function(proposed) == brute_best

w = np.array([2.5, -1.0, 0.5, 3.0, -0.5, 1.0])
vertex = fw.base_polytope_greedy(objective_set_function, w)
print("greedy vertex for weights %s:\n  %s (total mass %.1f = r(V))"
      % (w, np.round(vertex, 3), vertex.sum()))
closed_form = region.lmo(-w).densify()
print("closed-form greedy differs from the prefix greedy by %.1e"
      % np.abs(closed_form - vertex).max())
assert np.allclose(closed_form, vertex, atol=1e-12)
