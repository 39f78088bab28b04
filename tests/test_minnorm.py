import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fwkit.errors import CapabilityError, InputError
from fwkit.minnorm import corral_step, hull_distance, solve_wolfe_mnp
from fwkit.objectives import (FactoredQuadratic, ProblemInstance, Quadratic,
                              ShiftedNormSquare, build_instance)
from fwkit.regions import Simplex, VertexHull
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


@settings(max_examples=300, deadline=None)
@given(st.integers(2, 6), st.integers(0, 2 ** 32 - 1), st.booleans())
def test_no_minor_cycle_raises_phi_on_a_symmetric_indefinite_matrix(k, seed, zero_weight):
    # phi(lam) = 1/2 lam^T M lam, whose gradient is M lam; M has eigenvalues of both signs
    rng = np.random.default_rng(seed)
    q = np.linalg.qr(rng.standard_normal((k, k)))[0]
    eig = rng.standard_normal(k)
    eig[0], eig[1] = abs(eig[0]) + 0.1, -abs(eig[1]) - 0.1
    mat = (q * eig) @ q.T
    mat = 0.5 * (mat + mat.T)
    lam = rng.random(k) + 0.01
    if zero_weight:
        lam[-1] = 0.0
    lam /= lam.sum()
    new, keep = corral_step(mat, lam.copy())
    full = new if keep is None else np.zeros(k)
    if keep is not None:
        full[keep] = new
    assert (full >= 0.0).all() and full.sum() == pytest.approx(1.0, abs=1e-12)
    assert 0.5 * full @ mat @ full <= 0.5 * lam @ mat @ lam + 1e-12 * np.abs(mat).max()


@pytest.mark.parametrize("seed, records", [(0, 5), (2, 4), (6, 4), (8, 4), (10, 4)])
def test_a_run_at_its_rounding_floor_ends_with_numerical_error(seed, records):
    # the origin lies in these hulls and gap_tol 1e-300 is out of reach: the run
    # stops where no round can move x, at the record count of the loop this
    # replaced; EFW's driver without that stop ran on to max_iter (501 records)
    rng = np.random.default_rng(seed)
    pts = rng.standard_normal((12, 3)) + rng.uniform(-1, 1, size=3)
    report = solve_wolfe_mnp(pts, mnp_config(gap_tol=1e-300))
    assert report.termination == "NumericalError"
    assert len(report.records) == records


def test_more_vertices_than_the_pairwise_block_still_solve():
    # every point has first coordinate >= 1 and (1, +-1) are vertices, so the
    # min-norm point is (1, 0); D of 5000 vertices is computed, not refused
    rng = np.random.default_rng(7)
    pts = np.vstack([[1.0, 1.0], [1.0, -1.0],
                     rng.uniform([1.0, -1.0], [2.0, 1.0], size=(4998, 2))])
    report = solve(build_instance("min_norm_point", points=pts), mnp_config())
    assert report.termination == "GapTol"
    assert np.allclose(report.meta["x_final"], [1.0, 0.0], atol=1e-12)
    assert report.meta["D"] == pytest.approx(np.sqrt(5.0), abs=0.05)
    direct = solve_wolfe_mnp(pts, mnp_config())
    assert direct.meta["x_final"].tobytes() == report.meta["x_final"].tobytes()
    with pytest.raises(InputError, match="too large"):
        solve_wolfe_mnp(np.ones((10 ** 4 + 1, 2)), mnp_config())


def test_records_hold_the_instances_f_and_full_corrective_steps():
    pts = np.random.default_rng(3).standard_normal((20, 3)) + 1.0
    report = solve_wolfe_mnp(pts, mnp_config(store_points=True))
    inst = build_instance("min_norm_point", points=pts)
    assert (inst.L, inst.mu) == (1.0, 1.0)
    assert report.meta["variant"] == "WolfeMNP" and report.meta["family"] == "min_norm_point"
    steps, stop = report.records[:-1], report.records[-1]
    assert stop.kind == "stop" and report.good_steps == len(steps) >= 2
    for rec, nxt in zip(report.records, report.records[1:]):
        assert rec.f == pytest.approx(inst.objective.eval(rec.x)[0], abs=1e-15)
        assert rec.f == pytest.approx(0.5 * rec.x @ rec.x, abs=1e-15)
        assert rec.gap == pytest.approx(rec.x @ rec.x - np.min(pts @ rec.x), abs=1e-15)
        # the step is the jump to the next corrected point: dg = <x, d> < 0, dnorm = |d|
        d = nxt.x - rec.x
        assert (rec.kind, rec.alpha, rec.good) == ("FullCorrective", 1.0, True)
        assert rec.dg == pytest.approx(rec.x @ d, abs=1e-15) and rec.dg < 0.0
        assert rec.dnorm == pytest.approx(np.linalg.norm(d), abs=1e-15)
    corral, weights = report.meta["corral"], report.meta["weights"]
    assert len(corral) == len(weights) == stop.support_size
    assert np.allclose(weights @ pts[corral], report.meta["x_final"], atol=1e-15)


def test_solve_reaches_the_module_attribute_at_call_time(monkeypatch):
    # a wrapper bound to minnorm.solve_wolfe_mnp (as the benchmark's tracer
    # binds one) sees every WolfeMNP solve
    from fwkit import minnorm

    calls = []
    original = minnorm.solve_wolfe_mnp

    def wrapped(vertices, config):
        calls.append(len(vertices))
        return original(vertices, config)

    monkeypatch.setattr(minnorm, "solve_wolfe_mnp", wrapped)
    pts = np.array([[2.0, 1.0], [1.0, 2.0], [3.0, 3.0]])
    report = solve(build_instance("min_norm_point", points=pts), mnp_config())
    assert calls == [3]
    assert np.allclose(report.meta["x_final"], [1.5, 1.5], atol=1e-12)


def test_wolfe_mnp_refuses_every_objective_but_half_the_squared_norm():
    # Wolfe's method minimizes 1/2 ||x||^2 over the points whatever f is: on
    # ||x - 3 1||^2 over a hull it once ended GapTol with f = 45.0 at its
    # x_final, where EFW reaches 18.7
    pts = np.random.default_rng(0).standard_normal((20, 5))
    region = VertexHull(pts)
    for obj in (ShiftedNormSquare(np.full(5, 3.0)), ShiftedNormSquare(np.zeros(5)),
                ShiftedNormSquare(np.full(5, 3.0), scale=0.5), Quadratic(0.5 * np.eye(5))):
        inst = ProblemInstance(obj, region)
        with pytest.raises(CapabilityError, match="EFW solves any other objective"):
            solve(inst, mnp_config())
    shifted = ProblemInstance(ShiftedNormSquare(np.full(5, 3.0)), region)
    efw = solve(shifted, SolverConfig(variant="EFW", max_iter=500, gap_tol=1e-10))
    assert efw.termination == "GapTol" and efw.records[-1].f == pytest.approx(18.7, abs=0.05)
    mnp = ProblemInstance(ShiftedNormSquare(np.zeros(5), scale=0.5), region)
    assert solve(mnp, mnp_config()).termination == "GapTol"


def test_the_diameter_is_computed_only_for_a_built_instance(monkeypatch):
    # D is an O(k^2 n) pass the run never reads: solve_wolfe_mnp and
    # hull_distance leave it NaN, solve reports the D its instance was built with
    calls = []
    original = VertexHull.diameter

    def counted(self):
        calls.append(len(self.points))
        return original(self)

    monkeypatch.setattr(VertexHull, "diameter", counted)
    pts = np.random.default_rng(4).standard_normal((40, 3)) + 1.0
    assert np.isnan(solve_wolfe_mnp(pts, mnp_config()).meta["D"])
    assert hull_distance(pts, -pts + 5.0) > 0.0
    assert calls == []
    inst = build_instance("min_norm_point", points=pts)
    report = solve(inst, mnp_config())
    assert calls == [40]
    assert report.meta["D"].hex() == inst.D.hex()


def test_a_hull_in_thousands_of_dimensions_stores_no_n_by_n_weight():
    # 1/2 ||x||^2 is a scaled norm, not a matrix: the solve's memory is a few
    # copies of the points (20 x 3000 floats, 0.5 MB), not a 72 MB weight
    n = 3000
    rng = np.random.default_rng(5)
    pts = rng.standard_normal((20, n)) + 0.1
    inst = build_instance("min_norm_point", points=pts)
    assert inst.objective._w is None and inst.objective.lipschitz_upper() == 1.0
    tracemalloc.start()
    try:
        report = solve_wolfe_mnp(pts, mnp_config())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.termination == "GapTol"
    assert peak < 8 * n * n / 10
    x = report.meta["x_final"]
    assert report.records[-1].f == pytest.approx(0.5 * x @ x, rel=1e-15)
