"""The benchmark's three workloads: seeded inputs, solver jobs and their certificates.

A workload is built once per set-up from the run's seed.  It is a list of
jobs; a job is one ``fwkit.solve`` call on a prebuilt instance, run to a
gap tolerance, plus the independent certificate (``certify``) and, in
``small-audit``, the diagnostics checks its output must pass.  Each run
cycles through the job list in a closed loop: one caller, the next job
starts when the previous one returns.

The inputs (design matrices, observations, edge lists, point sets) are
drawn here and handed to fwkit's instance builder, so the certificates can
describe each problem from the same raw data without asking fwkit.

lasso-dense      lasso 200x2000, tau = 1.  Per instance: FW + exact line
                 search to gap 5e-2; AFW + exact, PFW + Armijo and AFW +
                 backtracking to 1e-2.  The 3.2 MB design does not fit in L2,
                 so objective evaluations and line-search probes dominate.
small-audit      n = 12 and 30: simplex_distance FW + Lipschitz step (checks:
                 sublinear bound, lower bound, per-step guarantees);
                 boundary_quadratic AFW, PFW, FDFW; interior_quadratic EFW and
                 FW + diminishing (checks: sublinear bound, min-gap rate); a
                 4-block product with BCFW; a graph-cut base polytope with AFW;
                 Wolfe's min-norm point on n points in R^3.  Per-iteration
                 Python overhead is the cost.
matcomp-nuclear  matcomp 200x200, rank 5, density 0.2, delta = 10, FW + exact to
                 gap 0.2; the power-iteration 1-SVD is nearly all of the time.
                 ``top_singular_triple`` raises NumericalError at its
                 5000-round cap (and reports residual 0.0, because it reads
                 rho_new - rho after setting rho = rho_new); nearly half of these
                 jobs end that way, which shows in failed_frac and
                 regions.lmo_raised.  With that many failures counted as +inf,
                 job_s.tail is +inf on most seeds, so BENCHMARK.json leaves this
                 workload out; run it by hand.
"""

from dataclasses import dataclass

import numpy as np

import fwkit as fw

import certify as ct

# instances built per run: enough that a 45-second run of the program as it
# stands never repeats a job, so each run samples as many inputs as it can
INSTANCES = {"lasso-dense": 16, "matcomp-nuclear": 32, "small-audit": 64}
NAMES = tuple(INSTANCES)


@dataclass
class Job:
    name: str
    instance: object
    config: object
    problem: object
    checks: tuple = ()


@dataclass
class Workload:
    jobs: list
    references: dict     # id(fwkit region) -> certify region, for LMO reference values
    setfn_regions: list  # base polytopes whose set function is traced


def _rng(seed, name, k):
    return np.random.default_rng([abs(seed), seed < 0, NAMES.index(name), k])


def _config(variant, stepsize, gap_tol, seed, max_iter=20000):
    # every job reaches its tolerance in a few thousand iterations; the cap only
    # bounds how long a run can overrun its time if a change breaks convergence
    return fw.SolverConfig(variant=variant, stepsize=stepsize, max_iter=max_iter,
                           gap_tol=gap_tol, seed=seed)


def _lasso(wl, rng, k):
    m, n, tau = 200, 2000, 1.0
    a = rng.standard_normal((m, n))
    idx = rng.choice(n, size=5, replace=False)
    planted = np.zeros(n)
    planted[idx] = rng.choice([-1.0, 1.0], size=5) * (0.9 * tau / 5)
    b = a @ planted + 0.01 * rng.standard_normal(m)
    seed = int(rng.integers(2 ** 31))
    inst = fw.build_instance("lasso", m=m, n=n, tau=tau, design=a, response=b)
    problem = ct.Problem(ct.LeastSquares(a, b), ct.L1Ball(tau))
    wl.references[id(inst.region)] = problem.region
    for variant, rule, tol in (("FW", fw.ExactLine(), 5e-2),
                               ("AFW", fw.ExactLine(), 1e-2),
                               ("PFW", fw.Armijo(), 1e-2),
                               ("AFW", fw.rule_from_name("backtracking", L=inst.L), 1e-2)):
        wl.jobs.append(Job("%s+%s#%d" % (variant, rule.name, k), inst,
                           _config(variant, rule, tol, seed), problem))


def _matcomp(wl, rng, k):
    m = n = 200
    rank, density, delta = 5, 0.2, 10.0
    u = rng.standard_normal((m, rank)) / np.sqrt(rank)
    v = rng.standard_normal((n, rank)) / np.sqrt(rank)
    target = u @ v.T
    rows, cols = np.nonzero(rng.random((m, n)) < density)
    vals = target[rows, cols]
    seed = int(rng.integers(2 ** 31))
    obs = list(zip(rows.tolist(), cols.tolist(), vals.tolist()))
    inst = fw.build_instance("matcomp", m=m, n=n, rank=rank, density=density,
                             delta=delta, observations=obs)
    problem = ct.Problem(ct.MatrixCompletion(rows, cols, vals, (m, n)), ct.NuclearBall(delta))
    wl.references[id(inst.region)] = problem.region
    wl.jobs.append(Job("FW+exact#%d" % k, inst, _config("FW", fw.ExactLine(), 0.2, seed),
                       problem))


def _graph_edges(rng, n):
    """A ring through every node plus each other pair with probability 0.2.

    Without the ring, a few graphs take AFW 10 to 30 times its median
    iteration count to reach the tolerance, and one such job decides a whole
    run's throughput.
    """
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    keep = rng.random(len(pairs)) < 0.2
    weights = rng.uniform(0.5, 2.0, size=len(pairs))
    ring = {(min(u, (u + 1) % n), max(u, (u + 1) % n)) for u in range(n)}
    return [(u, v, float(w)) for (u, v), w, on in zip(pairs, weights, keep)
            if on or (u, v) in ring]


def _small(wl, rng, k):
    for n in (12, 30):
        seed = int(rng.integers(2 ** 31))
        simplex = ct.Simplex()

        inst = fw.build_instance("simplex_distance", n=n)
        problem = ct.Problem(ct.ShiftedSquare(np.full(n, 1.0 / n)), simplex)
        wl.jobs.append(Job("simplex_distance/FW+lipschitz n=%d" % n, inst,
                           _config("FW", fw.LipschitzDep(inst.L), 1e-6, seed), problem,
                           ("sublinear", "lower_bound", "per_step")))

        inst = fw.build_instance("boundary_quadratic", n=n, seed=seed)
        problem = ct.Problem(ct.LeastSquares(inst.objective.a, inst.objective.b), simplex)
        for variant in ("AFW", "PFW", "FDFW"):
            wl.jobs.append(Job("boundary_quadratic/%s+exact n=%d" % (variant, n), inst,
                               _config(variant, fw.ExactLine(), 1e-8, seed), problem))

        inst = fw.build_instance("interior_quadratic", n=n, seed=seed)
        problem = ct.Problem(ct.LeastSquares(inst.objective.a, inst.objective.b), simplex)
        wl.jobs.append(Job("interior_quadratic/EFW n=%d" % n, inst,
                           _config("EFW", fw.ExactLine(), 1e-8, seed), problem))
        wl.jobs.append(Job("interior_quadratic/FW+diminishing n=%d" % n, inst,
                           _config("FW", fw.Diminishing(), 1e-3, seed), problem,
                           ("sublinear", "min_gap")))

        inst = fw.build_instance("product", b=4, n=n)
        problem = ct.Problem(ct.ShiftedSquare(np.full(4 * n, 1.0 / n)),
                             ct.Product([simplex] * 4, n))
        wl.jobs.append(Job("product/BCFW n=%d" % n, inst,
                           _config("BCFW", fw.Diminishing(), 5e-2, seed), problem))

        edges = _graph_edges(rng, n)
        inst = fw.build_instance("base_polytope_norm", oracle="graph_cut", n=n, edges=edges)
        problem = ct.Problem(ct.ShiftedSquare(np.zeros(n)), ct.GraphCutBase(n, edges))
        wl.references[id(inst.region)] = problem.region
        wl.setfn_regions.append(inst.region)
        wl.jobs.append(Job("graph_cut/AFW+exact n=%d" % n, inst,
                           _config("AFW", fw.ExactLine(), 5e-2, seed), problem))

        points = rng.standard_normal((n, 3)) + rng.uniform(-1.0, 1.0, size=3)
        inst = fw.build_instance("min_norm_point", points=points)
        wl.jobs.append(Job("min_norm_point/WolfeMNP n=%d" % n, inst,
                           _config("WolfeMNP", None, 1e-12, seed, max_iter=500),
                           ct.MinNormPoint(points)))


_BUILDERS = {"lasso-dense": _lasso, "matcomp-nuclear": _matcomp, "small-audit": _small}


def build(name, seed):
    """All jobs of one workload for one seed; the same seed gives the same inputs."""
    wl = Workload([], {}, [])
    for k in range(INSTANCES[name]):
        _BUILDERS[name](wl, _rng(seed, name, k), k)
    return wl
