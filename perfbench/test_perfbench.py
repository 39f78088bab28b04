"""Tests of the benchmark's own code: certificates, the tail rule and the tracing wrappers.

Run with ``python3 -m pytest perfbench -q`` from the repository root.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import certify as ct  # noqa: E402
import fwkit as fw  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402
from fwkit import objectives, regions, solvers  # noqa: E402


def _solve(inst, variant="AFW", gap_tol=1e-8, rule=None):
    config = fw.SolverConfig(variant=variant, stepsize=rule or fw.ExactLine(),
                             max_iter=20000, gap_tol=gap_tol, seed=3)
    report = fw.solve(inst, config)
    assert report.termination == "GapTol"
    return report


@pytest.fixture(scope="module")
def lasso():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((20, 50))
    b = a @ np.where(np.arange(50) < 3, 0.3, 0.0) + 0.01 * rng.standard_normal(20)
    inst = fw.build_instance("lasso", m=20, n=50, tau=1.0, design=a, response=b)
    return inst, ct.Problem(ct.LeastSquares(a, b), ct.L1Ball(1.0)), _solve(inst)


def test_certificate_accepts_solver_output(lasso):
    _, problem, report = lasso
    ok, detail = problem.certify(report.x_final, 1e-8)
    assert ok, detail


def test_certificate_rejects_perturbed_point(lasso):
    _, problem, report = lasso
    x = report.x_final.copy()
    vertex = np.zeros_like(x)
    vertex[int(np.argmin(np.abs(x)))] = 1.0
    moved = 0.9 * x + 0.1 * vertex  # still feasible, no longer optimal
    assert ct.L1Ball(1.0).contains(moved)
    ok, detail = problem.certify(moved, 1e-8)
    assert not ok and "gap" in detail


def test_certificate_rejects_infeasible_point(lasso):
    _, problem, report = lasso
    ok, detail = problem.certify(1.5 * report.x_final, 1e3)
    assert not ok and detail == "infeasible point"
    ok, _ = problem.certify(np.full_like(report.x_final, np.nan), 1e3)
    assert not ok


def test_nuclear_certificate():
    rng = np.random.default_rng(1)
    m = n = 12
    rows, cols = np.nonzero(rng.random((m, n)) < 0.5)
    target = rng.standard_normal((m, 2)) @ rng.standard_normal((2, n))
    vals = target[rows, cols]
    obs = list(zip(rows.tolist(), cols.tolist(), vals.tolist()))
    inst = fw.build_instance("matcomp", m=m, n=n, delta=3.0, observations=obs)
    problem = ct.Problem(ct.MatrixCompletion(rows, cols, vals, (m, n)), ct.NuclearBall(3.0))
    report = _solve(inst, variant="FW", gap_tol=1e-2)
    assert problem.certify(report.x_final, 1e-2)[0]
    assert not problem.certify(2.0 * report.x_final, 1e3)[0]
    assert not problem.certify(0.5 * report.x_final, 1e-2)[0]


def test_simplex_and_product_membership():
    assert ct.Simplex().contains(np.array([0.25, 0.75]))
    assert not ct.Simplex().contains(np.array([-0.25, 1.25]))
    assert not ct.Simplex().contains(np.array([0.5, 0.6]))
    product = ct.Product([ct.Simplex()] * 2, 2)
    assert product.contains(np.array([0.5, 0.5, 1.0, 0.0]))
    assert not product.contains(np.array([0.5, 0.5, 1.0, 0.1]))


def test_graph_cut_reference_matches_fwkit_greedy_and_rejects_bad_points():
    rng = np.random.default_rng(2)
    n = 9
    edges = [(u, v, float(rng.uniform(0.5, 2.0))) for u in range(n)
             for v in range(u + 1, n) if rng.random() < 0.4]
    ref = ct.GraphCutBase(n, edges)
    oracle = objectives.graph_cut_oracle(n, edges)
    for _ in range(20):
        g = rng.standard_normal(n)
        assert ref.value(g) == pytest.approx(float(g @ regions.base_polytope_greedy(oracle, -g)),
                                             abs=1e-12)
    inst = fw.build_instance("base_polytope_norm", oracle="graph_cut", n=n, edges=edges)
    problem = ct.Problem(ct.ShiftedSquare(np.zeros(n)), ref)
    report = _solve(inst, gap_tol=1e-6)
    assert problem.certify(report.x_final, 1e-6)[0]
    shifted = report.x_final + 0.1
    assert not problem.certify(shifted, 1e3)[0]        # x(V) != r(V)
    lumped = np.zeros(n)
    lumped[0], lumped[1] = 1e3, -1e3                   # x({0}) above the cut of {0}
    assert not ref.contains(lumped)


def test_min_norm_point_certificate():
    rng = np.random.default_rng(4)
    points = rng.standard_normal((10, 3)) + 1.0
    report = fw.solve_wolfe_mnp(points, fw.SolverConfig(variant="WolfeMNP", max_iter=500,
                                                        gap_tol=1e-12))
    x, corral, weights = report.meta["x_final"], report.meta["corral"], report.meta["weights"]
    mnp = ct.MinNormPoint(points)
    assert mnp.certify(x, 1e-12, corral, weights)[0]
    assert not mnp.certify(x + 1e-3, 1e-12, corral, weights)[0]
    assert not mnp.certify(x, 1e-12, corral, weights * 1.1)[0]


@pytest.mark.parametrize("n, pct, rank", [(11, 9, 1), (20, 50, 10), (40, 75, 30),
                                          (1000, 99, 990)])
def test_tail_leaves_ten_jobs_beyond(n, pct, rank):
    values = list(range(1, n + 1))[::-1]
    value, got_pct, count = stats.tail(values)
    assert (value, got_pct, count) == (rank, pct, n)
    assert sum(v > value for v in values) >= 10


def test_tail_of_a_short_sample_is_its_minimum_and_failures_count_as_inf():
    assert stats.tail([3.0, 1.0, 2.0]) == (1.0, 0, 3)
    times = [1.0] * 15 + [float("inf")] * 11
    assert stats.tail(times)[0] == float("inf")


def _bindings_now(rec, setfn_regions):
    return [getattr(owner, attr) for owner, attr, *_ in tracing.bindings(rec, setfn_regions)]


def test_tracing_restores_every_binding():
    inst = fw.build_instance("base_polytope_norm", oracle="graph_cut", n=5,
                             edges=[(0, 1, 1.0), (1, 2, 2.0), (3, 4, 1.0)])
    rec = tracing.Recorder()
    before = _bindings_now(rec, [inst.region])
    with tracing.Tracing(rec, [inst.region]):
        during = _bindings_now(rec, [inst.region])
        assert all(a is not b for a, b in zip(before, during))
    after = _bindings_now(rec, [inst.region])
    assert all(a is b for a, b in zip(before, after))
    with pytest.raises(RuntimeError):
        with tracing.Tracing(rec, [inst.region]):
            raise RuntimeError("job failed")
    assert all(a is b for a, b in zip(before, _bindings_now(rec, [inst.region])))
    assert solvers.compute_step is before[1] and fw.solve is before[0]


def test_traced_solve_reproduces_untraced_run_and_nests_spans():
    inst = fw.build_instance("boundary_quadratic", n=12, seed=5)
    plain = _solve(inst, variant="PFW", rule=fw.Armijo())
    rec = tracing.Recorder()
    with tracing.Tracing(rec):
        traced = _solve(inst, variant="PFW", rule=fw.Armijo())
    assert [r.f for r in plain.records] == [r.f for r in traced.records]
    assert len(plain.records) == len(traced.records)
    cols = rec.arrays()
    names = rec.names
    solve = np.flatnonzero(cols["name"] == names.index("solvers.solve"))
    assert len(solve) == 1 and cols["parent"][solve[0]] == -1
    children = cols["parent"] == cols["id"][solve[0]]
    covered = int((cols["end"][children] - cols["start"][children]).sum())
    duration = int(cols["end"][solve[0]] - cols["start"][solve[0]])
    assert cols["self_ns"][solve[0]] == duration - covered
    steps = cols["name"] == names.index("stepsizes.compute_step")
    evals = cols["name"] == names.index("objectives.eval")
    assert steps.sum() == len(plain.records) - 1
    assert (evals & (cols["parent_name"] == names.index("stepsizes.compute_step"))).sum() > 0
