import numpy as np
import pytest

from fwkit.atoms import ActiveSet, SignedUnitAtom
from fwkit.diagnostics import fit_geometric_rate
from fwkit.errors import CapabilityError
from fwkit.objectives import (BlockSeparable, ProblemInstance,
                              ShiftedNormSquare, build_instance)
from fwkit.regions import Box, NuclearBall, ProductRegion, Simplex
from fwkit.solvers import SolverConfig, reference_f_star, solve
from fwkit.stepsizes import Diminishing, ExactLine, LipschitzDep


def cfg(variant, rule, **kw):
    defaults = dict(max_iter=500, gap_tol=1e-10, seed=0, record_every=1)
    defaults.update(kw)
    return SolverConfig(variant=variant, stepsize=rule, **defaults)


def records_h(report):
    return report.primal_gaps()


def test_fw_stationary_start_stops_immediately():
    inst = build_instance("simplex_distance", n=4)
    start = ActiveSet([SignedUnitAtom(i, +1, 1.0, 4) for i in range(4)],
                      np.full(4, 0.25))
    report = solve(inst, cfg("FW", LipschitzDep(inst.L)), initial_active=start)
    assert report.termination == "GapTol"
    assert report.records[-1].k == 0


def test_fw_sublinear_bound_on_simplex_distance():
    inst = build_instance("simplex_distance", n=12)
    report = solve(inst, cfg("FW", LipschitzDep(inst.L), max_iter=2000, gap_tol=1e-14))
    hs = records_h(report)
    for rec, h in zip(report.records, hs):
        if rec.k >= 1:
            assert h <= 2 * inst.L * inst.D ** 2 / (rec.k + 2) + 1e-9


def test_fw_monotone_for_monotone_rules():
    inst = build_instance("lasso", m=10, n=25, tau=1.0, seed=3)
    for rule in (LipschitzDep(inst.L), ExactLine()):
        report = solve(inst, cfg("FW", rule, max_iter=300, gap_tol=1e-12))
        fs = [r.f for r in report.records]
        assert all(b <= a + 1e-12 for a, b in zip(fs[:-1], fs[1:]))


def test_fw_lasso_diminishing_reaches_small_gap():
    inst = build_instance("lasso", m=20, n=50, tau=1.0, seed=7)
    f_star, _ = reference_f_star(inst, gap_tol=1e-12, max_iter=50000)
    inst.f_star = f_star
    report = solve(inst, cfg("FW", Diminishing(), max_iter=10000, gap_tol=1e-14))
    assert records_h(report)[-1] <= 1e-3


def test_afw_single_atom_takes_fw_step():
    inst = build_instance("simplex_distance", n=4)
    report = solve(inst, cfg("AFW", ExactLine()))
    assert report.records[0].kind == "FW"


def test_afw_linear_rate_on_boundary_instance():
    inst = build_instance("boundary_quadratic", n=10, support=3, seed=42)
    report = solve(inst, cfg("AFW", ExactLine(), gap_tol=1e-11))
    fit = fit_geometric_rate(report, good_only=True)
    assert fit.q < 1.0
    # plain FW on the same instance crawls
    fw_report = solve(inst, cfg("FW", ExactLine(), gap_tol=1e-30))
    fw_fit = fit_geometric_rate(fw_report, good_only=True)
    assert fw_fit.q > fit.q


def test_afw_interior_optimum_all_steps_good_eventually():
    # trace inspection: with an interior optimum the support settles, away
    # steps are never capped (no drops), and every step counts as good
    inst = build_instance("interior_quadratic", n=5, seed=11)
    report = solve(inst, cfg("AFW", LipschitzDep(inst.L), max_iter=2000, gap_tol=1e-9))
    steps = [r for r in report.records if r.kind != "stop"]
    tail = steps[len(steps) // 4:]
    assert all(r.kind in ("FW", "Away") for r in tail)
    assert all(r.good for r in tail)
    assert report.termination == "GapTol"


def test_pfw_first_step_transfers_mass():
    inst = build_instance("simplex_distance", n=3)
    report = solve(inst, cfg("PFW", ExactLine()))
    first = report.records[0]
    assert first.kind in ("Pairwise", "Drop")
    assert report.termination == "GapTol"


def test_pfw_vertex_optimum_stops_at_start():
    # optimum at a vertex: starting there, s = v and the gap check fires
    obj = ShiftedNormSquare(np.array([1.0, 0.0, 0.0]))
    inst = ProblemInstance(obj, Simplex(3), 2.0, 2.0, np.sqrt(2.0),
                           f_star=0.0, x_star=np.array([1.0, 0.0, 0.0]),
                           family="vertex_optimum")
    start = ActiveSet.from_atom(SignedUnitAtom(0, +1, 1.0, 3))
    report = solve(inst, cfg("PFW", ExactLine()), initial_active=start)
    assert report.termination == "GapTol"
    assert report.records[-1].k == 0


def test_pfw_linear_rate_on_boundary_instance():
    inst = build_instance("boundary_quadratic", n=10, support=3, seed=42)
    report = solve(inst, cfg("PFW", ExactLine(), gap_tol=1e-11))
    assert fit_geometric_rate(report, good_only=True).q < 1.0


def test_fdfw_simplex_away_vertex_from_face():
    inst = build_instance("boundary_quadratic", n=6, support=2, seed=5)
    report = solve(inst, cfg("FDFW", ExactLine(), gap_tol=1e-11))
    assert report.termination == "GapTol"
    kinds = {r.kind for r in report.records}
    assert kinds <= {"FW", "InFace", "Drop", "stop"}


def test_fdfw_box_vertex_optimum_identified():
    # oracle: the unconstrained optimum clamps to the corner (1, 0)
    target = np.array([1.3, -0.2])
    obj = ShiftedNormSquare(target)
    region = Box(np.zeros(2), np.ones(2))
    x_star = np.clip(target, 0.0, 1.0)
    f_star = float(np.sum((x_star - target) ** 2))
    inst = ProblemInstance(obj, region, 2.0, 2.0, region.diameter(),
                           f_star=f_star, x_star=x_star, family="box_quadratic")
    report = solve(inst, cfg("FDFW", ExactLine(), gap_tol=1e-12))
    assert report.termination == "GapTol"
    assert np.allclose(report.meta["x_final"], [1.0, 0.0], atol=1e-9)


def test_fdfw_vertex_start_first_step_is_fw():
    inst = build_instance("simplex_distance", n=4)
    report = solve(inst, cfg("FDFW", ExactLine()))
    assert report.records[0].kind == "FW"


def test_fdfw_rejects_unsupported_region():
    inst = build_instance("matcomp", m=4, n=4, rank=1, density=0.6, seed=0)
    with pytest.raises(CapabilityError):
        solve(inst, cfg("FDFW", ExactLine()))


def test_efw_dominates_afw_pointwise():
    # paired-run comparison on a convex quadratic over the simplex
    inst = build_instance("boundary_quadratic", n=5, support=2, seed=9)
    efw = solve(inst, cfg("EFW", ExactLine(), max_iter=60, gap_tol=1e-12))
    afw = solve(inst, cfg("AFW", ExactLine(), max_iter=60, gap_tol=1e-12))
    m = min(len(efw.records), len(afw.records))
    for k in range(m):
        assert efw.records[k].f <= afw.records[k].f + 1e-10
    fs = [r.f for r in efw.records]
    assert all(b <= a + 1e-12 for a, b in zip(fs[:-1], fs[1:]))


def test_efw_hull_already_contains_optimum():
    inst = build_instance("simplex_distance", n=3)
    start = ActiveSet([SignedUnitAtom(i, +1, 1.0, 3) for i in range(3)],
                      np.array([0.5, 0.3, 0.2]))
    report = solve(inst, cfg("EFW", ExactLine(), gap_tol=1e-10), initial_active=start)
    assert report.termination == "GapTol"
    assert report.records[-1].k <= 1


def test_efw_inner_tol_dominates_outer():
    inst = build_instance("boundary_quadratic", n=6, support=2, seed=2)
    config = cfg("EFW", ExactLine(), gap_tol=1e-8, efw_inner_tol=1e-8)
    report = solve(inst, config)
    assert report.termination == "GapTol"
    assert report.records[-1].gap <= 1e-8


def test_efw_prunes_zero_weight_atoms():
    inst = build_instance("boundary_quadratic", n=8, support=2, seed=4)
    report = solve(inst, cfg("EFW", ExactLine(), gap_tol=1e-11))
    assert report.termination == "GapTol"
    assert len(report.active_set) <= 8


def test_sparsity_bound_support_at_most_k_plus_one():
    inst = build_instance("simplex_distance", n=30)
    for variant in ("FW", "AFW", "PFW", "EFW"):
        rule = ExactLine() if variant != "FW" else LipschitzDep(inst.L)
        report = solve(inst, cfg(variant, rule, max_iter=100, gap_tol=1e-13))
        for rec in report.records:
            assert rec.support_size <= rec.k + 1


def test_gap_dominates_primal_gap():
    for family, kw in (("simplex_distance", {"n": 8}),
                       ("interior_quadratic", {"n": 6, "seed": 2})):
        inst = build_instance(family, **kw)
        report = solve(inst, cfg("FW", LipschitzDep(inst.L), max_iter=300, gap_tol=1e-12))
        for rec, h in zip(report.records, records_h(report)):
            assert rec.gap >= h - 1e-10


def test_full_fw_step_halving():
    inst = build_instance("simplex_distance", n=15)
    report = solve(inst, cfg("FW", LipschitzDep(inst.L), max_iter=400, gap_tol=1e-14))
    hs = records_h(report)
    for (rec, h), h_next in zip(zip(report.records[:-1], hs[:-1]), hs[1:]):
        if rec.kind == "FW" and rec.alpha == 1.0:
            assert h_next <= 0.5 * min(inst.L * rec.dnorm ** 2, h) + 1e-10


def test_good_step_contraction_with_pyramidal_width():
    from fwkit.regions import pyramidal_width_bruteforce

    inst = build_instance("boundary_quadratic", n=6, support=2, seed=13)
    tau = pyramidal_width_bruteforce(np.eye(6)) / inst.D
    factor = max(0.5, 1.0 - tau ** 2 * inst.mu / inst.L)
    report = solve(inst, cfg("AFW", LipschitzDep(inst.L), gap_tol=1e-12))
    hs = records_h(report)
    for (rec, h), h_next in zip(zip(report.records[:-1], hs[:-1]), hs[1:]):
        if rec.kind == "stop" or not rec.good or h <= 1e-13:
            continue
        assert h_next <= factor * h + 1e-10


def test_bcfw_single_block_equals_fw():
    blocks = [Simplex(5)]
    region = ProductRegion(blocks)
    obj = BlockSeparable([ShiftedNormSquare(np.full(5, 0.2))])
    inst = ProblemInstance(obj, region, 2.0, 2.0, region.diameter(),
                           f_star=0.0, family="product")
    bcfw = solve(inst, cfg("BCFW", Diminishing(), max_iter=100, gap_tol=1e-13, seed=4))
    plain = build_instance("simplex_distance", n=5)
    fw = solve(plain, cfg("FW", Diminishing(), max_iter=100, gap_tol=1e-13, seed=4))
    fs_b = [r.f for r in bcfw.records]
    fs_f = [r.f for r in fw.records]
    assert np.allclose(fs_b, fs_f, rtol=0, atol=1e-14)


def test_bcfw_zero_gradient_block_is_a_zero_step():
    # one block is a single point: its gradient direction vanishes
    region = ProductRegion([Simplex(1), Simplex(3)])
    obj = BlockSeparable([ShiftedNormSquare(np.ones(1)),
                          ShiftedNormSquare(np.full(3, 1.0 / 3.0))])
    inst = ProblemInstance(obj, region, 2.0, 2.0, region.diameter(),
                           f_star=0.0, family="product")
    report = solve(inst, cfg("BCFW", Diminishing(), max_iter=50, gap_tol=1e-14, seed=1))
    zero_steps = [r for r in report.records if r.kind == "Block(0)" and r.k > 0]
    for rec in zero_steps:
        assert rec.alpha == 0.0
    fs = [r.f for r in report.records]
    for prev, nxt, rec in zip(fs[:-1], fs[1:], report.records[:-1]):
        if rec.alpha == 0.0 and rec.kind != "stop":
            assert nxt == prev


def test_bcfw_with_per_block_lipschitz_rule_is_monotone():
    inst = build_instance("product", b=3, n=4)
    report = solve(inst, cfg("BCFW", LipschitzDep(inst.L), max_iter=300,
                             gap_tol=1e-12, seed=2))
    fs = [r.f for r in report.records]
    assert all(b <= a + 1e-12 for a, b in zip(fs[:-1], fs[1:]))
    assert fs[-1] <= 1e-9


def test_bcfw_with_exact_line_search():
    inst = build_instance("product", b=2, n=5)
    report = solve(inst, cfg("BCFW", ExactLine(), max_iter=200,
                             gap_tol=1e-12, seed=3))
    fs = [r.f for r in report.records]
    assert all(b <= a + 1e-12 for a, b in zip(fs[:-1], fs[1:]))
    assert report.termination == "GapTol"


def test_bcfw_mean_rate_bound_small():
    inst = build_instance("product", b=3, n=4)
    m = 3
    kappa = sum(l * d * d for l, d in zip(inst.meta["block_L"], inst.meta["block_D"]))
    traces = []
    for seed in range(10):
        report = solve(inst, cfg("BCFW", Diminishing(), max_iter=300,
                                 gap_tol=1e-300, seed=seed))
        traces.append(records_h(report))
    length = min(len(t) for t in traces)
    mean_h = np.mean([t[:length] for t in traces], axis=0)
    big_k = np.mean([t[0] for t in traces]) + kappa
    for k in range(1, length):
        assert mean_h[k] <= 2 * big_k * m / (k + 2 * m) + 1e-9


def test_afw_rejects_nonpolytopal_region():
    inst = build_instance("ball_quadratic", n=5, eps=1.0, c=0.0, seed=0)
    with pytest.raises(CapabilityError):
        solve(inst, cfg("AFW", ExactLine()))
    matcomp = build_instance("matcomp", m=4, n=4, rank=1, density=0.5, seed=1)
    with pytest.raises(CapabilityError):
        solve(matcomp, cfg("PFW", ExactLine()))


def test_fw_runs_on_nuclear_ball():
    inst = build_instance("matcomp", m=8, n=6, rank=2, density=0.5, delta=3.0, seed=2)
    report = solve(inst, cfg("FW", ExactLine(), max_iter=200, gap_tol=1e-7))
    fs = [r.f for r in report.records]
    assert fs[-1] < fs[0]
    assert isinstance(inst.region, NuclearBall)


def test_determinism_identical_reports():
    inst = build_instance("boundary_quadratic", n=8, support=3, seed=1)
    def run():
        return solve(inst, cfg("AFW", ExactLine(), seed=9, max_iter=200, gap_tol=1e-12))
    r1, r2 = run(), run()
    assert len(r1.records) == len(r2.records)
    for a, b in zip(r1.records, r2.records):
        assert (a.k, a.kind, a.alpha, a.f, a.gap, a.support_size) == \
               (b.k, b.kind, b.alpha, b.f, b.gap, b.support_size)
    assert r1.termination == r2.termination
    assert r1.good_steps == r2.good_steps


def test_record_every_stride_and_terminal_row():
    inst = build_instance("simplex_distance", n=10)
    report = solve(inst, cfg("FW", LipschitzDep(inst.L), max_iter=37,
                             gap_tol=1e-300, record_every=5))
    ks = [r.k for r in report.records]
    assert ks == sorted(ks)
    assert all(k % 5 == 0 for k in ks[:-1])
    assert ks[-1] == 37
    assert report.records[-1].kind == "stop"
    assert report.termination == "MaxIter"


def test_record_invariants_across_variants():
    inst = build_instance("boundary_quadratic", n=7, support=2, seed=6)
    for variant in ("FW", "AFW", "PFW", "FDFW", "EFW"):
        report = solve(inst, cfg(variant, ExactLine(), max_iter=150, gap_tol=1e-10))
        assert len(report.records) >= 1
        total_steps = sum(1 for r in report.records if r.kind != "stop")
        assert report.good_steps <= max(total_steps, report.records[-1].k)
        for rec in report.records:
            assert rec.gap >= -1e-12
            assert rec.support_size >= 1


def test_numerical_error_aborts_with_partial_report(monkeypatch):
    inst = build_instance("simplex_distance", n=6)
    from fwkit import solvers as sv
    from fwkit.errors import NumericalError

    calls = {"n": 0}
    original = sv.compute_step

    def flaky(rule, k, obj, x, g, d, alpha_max, **kwargs):
        calls["n"] += 1
        if calls["n"] > 3:
            raise NumericalError("synthetic failure")
        return original(rule, k, obj, x, g, d, alpha_max, **kwargs)

    monkeypatch.setattr(sv, "compute_step", flaky)
    report = solve(inst, cfg("FW", LipschitzDep(inst.L), max_iter=50, gap_tol=1e-300))
    assert report.termination == "NumericalError"
    assert len(report.records) >= 1
