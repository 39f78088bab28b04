import numpy as np
import pytest

from fwkit.minnorm import corral_step, hull_distance, solve_wolfe_mnp
from fwkit.objectives import FactoredQuadratic, ProblemInstance
from fwkit.regions import Simplex
from fwkit.solvers import SolverConfig, solve
from fwkit.stepsizes import ExactLine


def mnp_config(**kw):
    defaults = dict(variant="WolfeMNP", max_iter=500, gap_tol=1e-13)
    defaults.update(kw)
    return SolverConfig(**defaults)


def qp_reference(points, gap_tol=1e-15, max_iter=5000):
    """Oracle: min ||V^T lam||^2 over the weight simplex via a long AFW run."""
    obj = FactoredQuadratic(points.T)
    inst = ProblemInstance(obj, Simplex(len(points)), obj.lipschitz_upper(),
                           0.0, np.sqrt(2.0), family="qp_reference")
    config = SolverConfig(variant="AFW", stepsize=ExactLine(), max_iter=max_iter,
                          gap_tol=gap_tol, record_every=10 ** 9)
    report = solve(inst, config)
    return points.T @ report.meta["x_final"]


def test_segment_projection():
    # oracle by hand: projecting the origin onto the segment gives (1/2, 1/2)
    report = solve_wolfe_mnp(np.array([[1.0, 0.0], [0.0, 1.0]]), mnp_config())
    assert np.allclose(report.meta["x_final"], [0.5, 0.5], atol=1e-12)
    assert report.termination == "GapTol"


def test_collinear_nearest_vertex():
    report = solve_wolfe_mnp(np.array([[1.0, 0.0], [2.0, 0.0]]), mnp_config())
    assert np.allclose(report.meta["x_final"], [1.0, 0.0], atol=1e-12)


def test_origin_inside_hull_gives_zero():
    pts = np.array([[1.0, 0.0], [-1.0, 1.0], [-1.0, -1.0]])
    report = solve_wolfe_mnp(pts, mnp_config())
    assert np.linalg.norm(report.meta["x_final"]) <= 1e-7


def test_matches_qp_reference_on_seeded_polytopes():
    rng = np.random.default_rng(0)
    for _ in range(10):
        pts = rng.standard_normal((10, 3)) + rng.uniform(-1, 1, size=3)
        report = solve_wolfe_mnp(pts, mnp_config())
        x_ref = qp_reference(pts)
        assert np.linalg.norm(report.meta["x_final"] - x_ref) <= 1e-8


def test_report_shape_and_objective_records():
    pts = np.array([[2.0, 1.0], [1.0, 2.0], [3.0, 3.0]])
    report = solve_wolfe_mnp(pts, mnp_config())
    assert report.records[0].f == pytest.approx(0.5 * min(np.sum(pts ** 2, axis=1)))
    fs = [r.f for r in report.records]
    assert all(b <= a + 1e-12 for a, b in zip(fs[:-1], fs[1:]))
    assert report.records[-1].kind == "stop"


def test_corral_stays_small():
    rng = np.random.default_rng(5)
    pts = rng.standard_normal((50, 4))
    report = solve_wolfe_mnp(pts, mnp_config())
    assert report.termination == "GapTol"
    # a corral is affinely independent: at most dim + 1 atoms
    assert max(r.support_size for r in report.records) <= 6


def test_hull_distance_parallel_segments():
    # oracle by hand: segments on y=0 and y=2 are distance 2 apart
    a = np.array([[0.0, 0.0], [1.0, 0.0]])
    b = np.array([[0.0, 2.0], [1.0, 2.0]])
    assert hull_distance(a, b) == pytest.approx(2.0, abs=1e-10)


def test_hull_distance_point_to_triangle():
    # oracle by hand: distance from (0,0) to the plane x+y=1 region is 1/sqrt(2)
    a = np.array([[0.0, 0.0]])
    b = np.array([[1.0, 0.0], [0.0, 1.0]])
    assert hull_distance(a, b) == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-10)


def test_minor_cycle_blocked_by_a_weight_zero_atom_still_descends():
    # phi = -||lam||^2: the affine stationary point (1/3, 1/3, 1/3) is a
    # maximum, and the descending side of the line through it would lower the
    # weight-0 third atom; the cycle steps to the vertex of least gradient
    mat = -2.0 * np.eye(3)
    lam = np.array([0.7, 0.3, 0.0])
    new, keep = corral_step(mat, lam)
    assert keep.tolist() == [True, False, False]
    assert new.tolist() == [1.0]
    assert 0.5 * lam @ mat @ lam == pytest.approx(-0.58, abs=1e-15)
