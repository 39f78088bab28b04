from pathlib import Path

import numpy as np
import pytest

from fwkit.diagnostics import (CHECKS, CheckResult, active_set_radius,
                               affine_invariance_harness, fit_geometric_rate,
                               inexact_rate_check, lower_bound_check,
                               min_gap_rate_check, nonconvex_min_gap_check,
                               per_step_guarantees, simplex_multipliers,
                               strongly_convex_domain_check,
                               support_identification, verify_sublinear_bound)
from fwkit.errors import InputError
from fwkit.objectives import build_instance
from fwkit.regions import InexactSchedule, fw_gap, make_inexact_lmo
from fwkit.solvers import IterationRecord, SolveReport, SolverConfig, solve
from fwkit.stepsizes import Diminishing, ExactLine, LipschitzDep


def synth_report(hs, f_star=0.0, meta=None, kinds=None, good=None, gaps=None,
                 supports=None):
    records = []
    for k, h in enumerate(hs):
        records.append(IterationRecord(
            k=k, kind=(kinds[k] if kinds else "FW"), alpha=0.5,
            f=h + f_star, gap=(gaps[k] if gaps is not None else max(h, 0.0)),
            support_size=1, elapsed_ns=0,
            good=(good[k] if good is not None else True),
            support=(supports[k] if supports is not None else None)))
    base = {"f_star": f_star, "L": 1.0, "D": 1.0, "family": "synthetic",
            "stepsize": "lipschitz", "mu": 1.0}
    base.update(meta or {})
    return SolveReport(records, None, "MaxIter", sum(r.good for r in records), base)


def test_verify_sublinear_bound_passes_and_fails():
    inst = build_instance("simplex_distance", n=10)
    report = solve(inst, SolverConfig(variant="FW", stepsize=LipschitzDep(inst.L),
                                      max_iter=500, gap_tol=1e-13))
    assert verify_sublinear_bound(report).ok
    # constructed violation: h_1 equal to 2 L D^2 exceeds the k=1 bound
    bad = synth_report([3.0, 2.0], meta={"L": 1.0, "D": np.sqrt(2.0)})
    res = verify_sublinear_bound(bad)
    assert not res.ok and res.k_violation == 1
    # single-entry trace is vacuously fine
    assert verify_sublinear_bound(synth_report([5.0])).ok


def test_verify_sublinear_requires_f_star():
    rep = synth_report([1.0, 0.5])
    rep.meta["f_star"] = None
    with pytest.raises(InputError):
        verify_sublinear_bound(rep)


def test_fit_geometric_rate_exact_series():
    rep = synth_report([0.5 ** k for k in range(40)])
    fit = fit_geometric_rate(rep, good_only=False)
    assert fit.q == pytest.approx(0.5, rel=1e-9)
    assert fit.r2 == pytest.approx(1.0, abs=1e-12)


def test_fit_geometric_rate_truncates_at_nonpositive():
    hs = [0.5 ** k for k in range(30)] + [0.0, -1.0]
    fit = fit_geometric_rate(synth_report(hs), good_only=False)
    assert fit.window[1] == 30


def test_fit_geometric_rate_contrasts_fw_and_afw():
    inst = build_instance("boundary_quadratic", n=8, support=3, seed=3)
    fw_rep = solve(inst, SolverConfig(variant="FW", stepsize=ExactLine(),
                                      max_iter=400, gap_tol=1e-30))
    afw_rep = solve(inst, SolverConfig(variant="AFW", stepsize=ExactLine(),
                                       max_iter=400, gap_tol=1e-11))
    assert fit_geometric_rate(fw_rep).q > 0.98
    assert fit_geometric_rate(afw_rep).q < 0.9


def test_simplex_multipliers_examples():
    # oracle by hand: lambda_i = g_i - <g, x>
    lam = simplex_multipliers(np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 2.0]))
    assert np.allclose(lam, [0.0, 1.0, 2.0])
    lam = simplex_multipliers(np.full(4, 0.25), np.full(4, 3.0))
    assert np.allclose(lam, 0.0)


def test_simplex_multipliers_stationary_complementarity():
    inst = build_instance("boundary_quadratic", n=7, support=3, seed=5)
    _, g = inst.objective.eval(inst.x_star)
    lam = simplex_multipliers(inst.x_star, g)
    assert min(lam) >= -1e-8
    assert min(lam) <= 1e-8
    assert np.max(np.abs(lam * inst.x_star)) <= 1e-8
    assert fw_gap(inst.region, inst.x_star, g) <= 1e-8


def test_active_set_radius_formula():
    assert active_set_radius(np.array([0.0, 2.0, 3.0]), 1.0) == pytest.approx(0.5)
    assert active_set_radius(np.array([0.0, 1e-9]), 1.0) < 1e-8
    with pytest.raises(InputError):
        active_set_radius(np.zeros(3), 1.0)


def test_active_set_radius_from_known_instance():
    inst = build_instance("boundary_quadratic", n=6, support=2, seed=8)
    _, g = inst.objective.eval(inst.x_star)
    lam = simplex_multipliers(inst.x_star, g)
    delta_min = np.min(lam[lam > 1e-12])
    expect = delta_min / (delta_min + 2 * inst.L)
    assert active_set_radius(lam, inst.L) == pytest.approx(expect, rel=1e-12)


def test_support_identification_finite_for_afw():
    inst = build_instance("boundary_quadratic", n=8, support=3, seed=21)
    _, g = inst.objective.eval(inst.x_star)
    lam = simplex_multipliers(inst.x_star, g)
    i_star = frozenset(int(i) for i in np.flatnonzero(lam <= 1e-10))
    rep = solve(inst, SolverConfig(variant="AFW", stepsize=ExactLine(),
                                   max_iter=500, gap_tol=1e-12))
    k_id = support_identification(rep, i_star)
    assert k_id is not None
    assert k_id <= rep.records[-1].k


def test_support_identification_immediate_when_started_inside():
    supports = [frozenset({0}), frozenset({0, 1}), frozenset({0, 1})]
    rep = synth_report([1.0, 0.5, 0.2], supports=supports)
    assert support_identification(rep, {0, 1, 2}) == 0


def test_support_identification_absent_for_fw_diminishing():
    # diminishing FW never drops mass; once the oracle hands it an off-face
    # vertex (here by a cross-coupled Hessian at x_1 = e_1), that coordinate
    # stays in the support forever and identification never happens
    from fwkit.atoms import ActiveSet, SignedUnitAtom
    from fwkit.objectives import ProblemInstance, Quadratic
    from fwkit.regions import Simplex

    h = np.array([[2.0, 0.0, -2.0], [0.0, 2.0, 2.0], [-2.0, 2.0, 6.0]])
    x_star = np.array([0.5, 0.5, 0.0])
    g_star = np.array([0.0, 0.0, 0.5])
    obj = Quadratic(h / 2.0, -h @ x_star + g_star,
                    0.5 * x_star @ h @ x_star - g_star @ x_star)
    _, g_check = obj.eval(x_star)
    assert np.allclose(g_check, g_star)
    w = np.linalg.eigvalsh(h)
    inst = ProblemInstance(obj, Simplex(3), float(w[-1]), float(w[0]),
                           np.sqrt(2.0), f_star=0.0, x_star=x_star,
                           family="crossed_quadratic")
    i_star = frozenset({0, 1})
    start = ActiveSet.from_atom(SignedUnitAtom(1, +1, 1.0, 3))
    rep = solve(inst, SolverConfig(variant="FW", stepsize=Diminishing(),
                                   max_iter=400, gap_tol=1e-13),
                initial_active=start)
    assert any(2 in r.support for r in rep.records if r.k >= 1)
    assert support_identification(rep, i_star) is None


def test_lower_bound_check_exact_attainment():
    # oracle by hand: on two coordinates the best value is 1/2 - 1/3 = 1/6
    inst = build_instance("simplex_distance", n=3)
    rep = solve(inst, SolverConfig(variant="FW", stepsize=LipschitzDep(2.0),
                                   max_iter=50, gap_tol=1e-300))
    hs = rep.primal_gaps()
    assert hs[1] == pytest.approx(1.0 / 6.0, abs=1e-12)
    assert lower_bound_check(rep, 3).ok


def test_lower_bound_check_rejects_wrong_family():
    rep = synth_report([1.0, 0.5])
    with pytest.raises(InputError):
        lower_bound_check(rep, 5)


def test_inexact_rate_check_requires_decaying():
    rep = synth_report([1.0, 0.5], meta={"inexact_mode": "constant",
                                         "inexact_delta": 0.1,
                                         "inexact_kappa": 1.0})
    with pytest.raises(InputError):
        inexact_rate_check(rep)


def test_inexact_rate_zero_delta_equals_exact_bound():
    inst = build_instance("simplex_distance", n=10)
    sched = InexactSchedule("decaying", delta=0.0, kappa_upper=inst.curvature_upper)
    oracle = make_inexact_lmo(inst.region, sched)
    rep = solve(inst, SolverConfig(variant="FW", stepsize=Diminishing(),
                                   max_iter=500, gap_tol=1e-13), inexact=oracle)
    res = inexact_rate_check(rep)
    assert res.ok
    exact_equiv = verify_sublinear_bound(rep)
    assert exact_equiv.ok


def test_strongly_convex_domain_check_rejects_simplex():
    rep = synth_report([1.0, 0.5])
    with pytest.raises(InputError):
        strongly_convex_domain_check(rep)


def test_min_gap_rate_on_seeded_instances():
    for family, kw in (("simplex_distance", {"n": 12}),
                       ("interior_quadratic", {"n": 6, "seed": 4}),
                       ("boundary_quadratic", {"n": 9, "support": 3, "seed": 2})):
        inst = build_instance(family, **kw)
        rep = solve(inst, SolverConfig(variant="FW", stepsize=Diminishing(),
                                       max_iter=800, gap_tol=1e-13))
        assert min_gap_rate_check(rep).ok, family


def test_nonconvex_min_gap_boundedness():
    inst = build_instance("max_clique", n=8,
                          edges=[(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (4, 5),
                                 (5, 6), (6, 7), (3, 7), (1, 3)])
    rep = solve(inst, SolverConfig(variant="FW", stepsize=Diminishing(),
                                   max_iter=800, gap_tol=1e-13))
    assert nonconvex_min_gap_check(rep).ok


def test_nonconvex_min_gap_names_the_first_violating_k():
    # a gap stuck at 1: min-gap * sqrt(k) passes twice its largest value over
    # k = 1..20 (sqrt(80)) first at k = 81
    rep = synth_report([1.0] * 100)
    result = nonconvex_min_gap_check(rep)
    assert not result.ok and result.k_violation == 81
    assert result.as_json()["k_violation"] == 81
    assert nonconvex_min_gap_check(synth_report([1.0] * 81)).ok  # k = 80 sits on the bound


def test_per_step_guarantees_requires_lipschitz():
    rep = synth_report([1.0, 0.5], meta={"stepsize": "exact"})
    with pytest.raises(InputError):
        per_step_guarantees(rep)


def test_per_step_guarantees_on_real_run():
    inst = build_instance("interior_quadratic", n=6, seed=1)
    rep = solve(inst, SolverConfig(variant="FW", stepsize=LipschitzDep(inst.L),
                                   max_iter=400, gap_tol=1e-11))
    assert per_step_guarantees(rep).ok


def test_affine_invariance_harness_deviations():
    inst = build_instance("boundary_quadratic", n=6, support=3, seed=7)
    rng = np.random.default_rng(99)
    q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
    p = q @ np.diag(np.linspace(0.7, 1.5, 6)) @ q.T
    dev = affine_invariance_harness(inst, p, iters=120, seed=5)
    assert set(dev) == {"FW", "AFW", "PFW", "EFW"}
    for variant, value in dev.items():
        assert value <= 1e-9, variant


def test_check_result_json_shape():
    res = CheckResult("demo", True, 0.25, None)
    js = res.as_json()
    assert js == {"check": "demo", "pass": True, "margin": 0.25, "k_violation": None}


def test_readme_lists_each_check_as_the_registry_declares_it():
    lines = (Path(__file__).resolve().parent.parent / "README.md").read_text().splitlines()
    for name, check in CHECKS.items():
        hypothesis = "none" if check.hypothesis is None else "`%s` is `%s`" % check.hypothesis[:2]
        row = "| `%s` | `%s` | %s | %s |" % (name, check.function,
                                             "yes" if check.reads_f_star else "no", hypothesis)
        assert row in lines, row
