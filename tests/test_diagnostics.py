import dataclasses
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fwkit.diagnostics import (CHECKS, CheckResult, active_set_radius,
                               affine_invariance_harness, fit_geometric_rate,
                               inexact_rate_check, interior_contraction_check,
                               lower_bound_check,
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


def test_fit_geometric_rate_reads_inf_past_the_float_range():
    # log h rises by about 744 in one step, and exp of that slope is past the float range
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        fit = fit_geometric_rate(synth_report([1.0, 1.0, 5e-324, 1.0]), good_only=False)
    assert fit.q == np.inf and fit.window == (2, 4)


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
        row = "| `%s` | `%s` | %s | %s |" % (name, check.function.__name__,
                                             "yes" if check.reads_f_star else "no", hypothesis)
        assert row in lines, row


# The reference the checks are held to: each check's verdict written as its own
# loop or excess, with the rate fit's abscissa counted step by step.

def _ref_below(name, ks, values, bound):
    mask = ks >= 1
    excess = values[mask] - (bound(ks[mask]) + 1e-9)
    margin = float(-np.max(excess)) if excess.size else np.inf
    ok = bool(np.all(excess <= 0.0))
    return CheckResult(name, ok, margin, None if ok else int(ks[mask][np.argmax(excess > 0.0)]))


def _ref_bounded_growth(name, ks, weighted):
    window = (ks >= 1) & (ks <= 20)
    head = weighted[window]
    if head.size == 0:
        raise InputError("trace too short")
    for k, w in zip(ks[window], head):
        if np.isnan(w):  # no limit: the check fails at the first NaN that would set it
            return CheckResult(name, False, np.nan, int(k))
    limit = 2.0 * float(np.max(head)) + 1e-9
    late = ks > 20
    tail = weighted[late]
    ok = bool(np.all(tail <= limit))
    margin = float(limit - np.max(tail)) if tail.size else np.inf
    return CheckResult(name, ok, margin,
                       None if ok else int(ks[late][np.argmax(~(tail <= limit))]))


def _ref_lower_bound(ks, hs, n):
    ok, margin, first = True, np.inf, None
    for k, h in zip(ks, hs):
        if k > n - 2:
            continue
        bound = 1.0 / (k + 1.0) - 1.0 / n - 1e-12
        margin = min(margin, h - bound)
        if h < bound and first is None:
            ok, first = False, int(k)
    return CheckResult("lower_bound", ok, float(margin), first)


def _ref_per_step(recs, L, f_star):
    worst, first = np.inf, None
    for prev, nxt in zip(recs[:-1], recs[1:]):
        if nxt.k != prev.k + 1 or prev.kind == "stop" or prev.alpha <= 0.0:
            continue
        if prev.alpha < prev.alpha_max:
            allowed = prev.f - prev.dg ** 2 / (2.0 * L * prev.dnorm ** 2) + 1e-10
            worst = min(worst, allowed - nxt.f)
            if nxt.f > allowed and first is None:
                first = prev.k
        elif prev.kind == "FW" and prev.alpha == 1.0 and f_star is not None:
            allowed = 0.5 * min(L * prev.dnorm ** 2, prev.f - f_star) + 1e-10
            worst = min(worst, allowed - (nxt.f - f_star))
            if nxt.f - f_star > allowed and first is None:
                first = prev.k
    return CheckResult("per_step_guarantees", first is None, float(worst), first)


def _ref_interior(recs, rate, f_star):
    worst, first = np.inf, None
    for prev, nxt in zip(recs[:-1], recs[1:]):
        if nxt.k != prev.k + 1 or prev.kind == "stop" or not prev.good:
            continue
        h_prev = prev.f - f_star
        if h_prev <= 1e-13:
            continue
        ratio = (nxt.f - f_star) / h_prev
        worst = min(worst, rate + 1e-6 - ratio)
        if ratio > rate + 1e-6 and first is None:
            first = prev.k
    return CheckResult("interior_contraction", first is None, float(worst), first)


def _ref_fit(recs, f_star, good_only):
    hs, ts, t = [], [], 0
    for r in recs:
        if r.f - f_star <= 0.0:
            break
        hs.append(r.f - f_star)
        ts.append(t)
        t += (1 if r.good else 0) if good_only else 1
    if len(hs) < 3:
        raise InputError("trace too short for a rate fit")
    lo = len(hs) // 2
    y, x = np.log(np.array(hs[lo:])), np.array(ts[lo:], dtype=float)
    if np.ptp(x) == 0.0:
        raise InputError("no steps of the requested type in the window")
    slope, intercept = np.polyfit(x, y, 1)
    with np.errstate(over="ignore"):  # q is inf past the float range
        q = float(np.exp(slope))
    ss_res = float(np.sum((y - (slope * x + intercept)) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else max(0.0, 1.0 - ss_res / ss_tot)
    return q, r2, (lo, len(hs))


def reference(name, report):
    """Check ``name``'s result on ``report`` by the reference above."""
    meta, recs = report.meta, report.records
    ks = np.array([r.k for r in recs])
    hs = np.array([r.f - meta["f_star"] for r in recs])
    running = np.minimum.accumulate(np.array([r.gap for r in recs]))
    if name == "sublinear_bound":
        return _ref_below(name, ks, hs, lambda k: 2.0 * meta["L"] * meta["D"] ** 2 / (k + 2.0))
    if name == "inexact_rate":
        kappa, delta = meta["inexact_kappa"], meta["inexact_delta"]
        return _ref_below(name, ks, hs, lambda k: 2.0 * kappa * (1.0 + delta) / (k + 2.0))
    if name == "min_gap_rate":
        kappa = meta["L"] * meta["D"] ** 2
        return _ref_below(name, ks, running, lambda k: 9.0 * kappa / (2.0 * k) * (1.0 + 0.1))
    if name == "nonconvex_min_gap":
        return _ref_bounded_growth(name, ks, running * np.sqrt(np.maximum(ks, 1)))
    if name == "strongly_convex_domain":
        return _ref_bounded_growth(name, ks, ks.astype(float) ** 2 * hs)
    if name == "lower_bound":
        return _ref_lower_bound(ks, hs, len(meta["x_final"]))
    if name == "per_step_guarantees":
        return _ref_per_step(recs, meta["L"], meta["f_star"])
    rate = 1.0 - (meta["mu"] / meta["L"]) * (meta["interior_distance"] / meta["D"]) ** 2
    return _ref_interior(recs, rate, meta["f_star"])


_FUNCTIONS = {**{name: check.function for name, check in CHECKS.items()},
              "interior_contraction": interior_contraction_check}


def _outcome(call):
    try:
        res = call()
    except InputError as exc:
        return str(exc)
    return res.ok, float(res.margin).hex(), res.k_violation


@st.composite
def traces(draw):
    """Records with violations, ``stop`` records, gaps in k (as ``record_every`` > 1
    leaves), negative h and, in short traces, no judged k; none of them NaN."""
    unit = st.floats(0.0, 1.0)
    records, k, floor = [], 0, draw(st.integers(0, 100)) / 100.0  # a floor keeps min-gap up
    for _ in range(draw(st.integers(1, 60))):
        alpha_max = draw(st.sampled_from([1.0, 0.5, 2.0]))
        records.append(IterationRecord(
            k=k, kind=draw(st.sampled_from(["FW", "FW", "Away", "Pairwise", "Drop", "stop"])),
            alpha=draw(st.sampled_from([0.0, 1.0, alpha_max, 0.3])),
            f=draw(st.floats(-0.5, 3.0)) / (k + 1.0),
            gap=floor + draw(st.integers(0, 400)) / 100.0 / (k + 1.0),
            support_size=1, elapsed_ns=0, dg=-draw(unit), dnorm=0.5 + draw(unit),
            alpha_max=alpha_max, good=draw(st.booleans())))
        k += draw(st.sampled_from([1, 1, 1, 2, 3]))
    meta = {"f_star": 0.0, "L": 0.2 + draw(unit), "D": 0.5 + draw(unit), "mu": 0.1 * draw(unit),
            "interior_distance": draw(unit), "inexact_kappa": 0.2 + draw(unit),
            "inexact_delta": draw(unit), "x_final": np.zeros(draw(st.integers(2, 30))),
            "family": "synthetic", "stepsize": "lipschitz", "inexact_mode": "decaying"}
    return SolveReport(records, None, "MaxIter", sum(r.good for r in records), meta)


@settings(max_examples=150, deadline=None)
@given(traces(), st.integers(0, 59), st.sampled_from(["f", "gap"]))
def test_each_check_returns_its_reference_verdict(report, at, field):
    for name, function in _FUNCTIONS.items():
        hypothesis = CHECKS[name].hypothesis if name in CHECKS else None
        meta = dict(report.meta, **({} if hypothesis is None else {hypothesis[0]: hypothesis[1]}))
        rep = dataclasses.replace(report, meta=meta)
        assert _outcome(lambda: function(rep)) == _outcome(lambda: reference(name, rep)), name
    unknown = dataclasses.replace(report, meta=dict(report.meta, f_star=None))
    assert _outcome(lambda: per_step_guarantees(unknown)) == \
        _outcome(lambda: _ref_per_step(report.records, report.meta["L"], None))
    for good_only in (True, False):
        try:
            fit = fit_geometric_rate(report, good_only=good_only)
            got = float(fit.q).hex(), float(fit.r2).hex(), fit.window
        except InputError as exc:
            got = str(exc)
        try:
            q, r2, window = _ref_fit(report.records, 0.0, good_only)
            want = q.hex(), float(r2).hex(), window
        except InputError as exc:
            want = str(exc)
        assert got == want, good_only
    # the growth checks on the trace with f or the gap NaN at one record, short traces too
    records = list(report.records)
    at %= len(records)
    records[at] = dataclasses.replace(records[at], **{field: float("nan")})
    for name in ("nonconvex_min_gap", "strongly_convex_domain"):
        hypothesis = CHECKS[name].hypothesis
        rep = dataclasses.replace(report, records=records, meta=dict(
            report.meta, **({} if hypothesis is None else {hypothesis[0]: hypothesis[1]})))
        assert _outcome(lambda: _FUNCTIONS[name](rep)) == _outcome(lambda: reference(name, rep))


def _nan_trace(field, family, length):
    """A trace of ``length`` records of ``family`` that passes every bound check, and
    that trace with ``field`` NaN at k = 3."""
    records = [IterationRecord(k=k, kind="FW", alpha=0.5, f=1.0 / (k + 1.0), gap=0.5 ** k,
                               support_size=1, elapsed_ns=0, dnorm=1.0, alpha_max=1.0,
                               good=True) for k in range(length)]
    meta = {"f_star": 0.0, "L": 1.0, "D": 1.0, "mu": 1.0, "interior_distance": 0.1,
            "inexact_kappa": 1.0, "inexact_delta": 0.0, "x_final": np.zeros(30),
            "family": family, "stepsize": "lipschitz", "inexact_mode": "decaying"}
    nan = list(records)
    nan[3] = dataclasses.replace(records[3], **{field: float("nan")})
    return (SolveReport(records, None, "MaxIter", 30, meta),
            SolveReport(nan, None, "MaxIter", 30, meta))


# check -> (the field turned NaN at k = 3, the k of its first NaN slack): the steps name
# the step into the NaN, and the others the NaN's own k
_NAN_CASES = {"sublinear_bound": ("f", 3), "inexact_rate": ("f", 3), "lower_bound": ("f", 3),
              "strongly_convex_domain": ("f", 3), "per_step_guarantees": ("f", 2),
              "interior_contraction": ("f", 2), "min_gap_rate": ("gap", 3),
              "nonconvex_min_gap": ("gap", 3)}


@pytest.mark.parametrize("name", sorted(_NAN_CASES))
def test_a_nan_trace_fails_every_bound_check_at_its_first_nan_slack(name):
    field, k = _NAN_CASES[name]
    hypothesis = CHECKS[name].hypothesis if name in CHECKS else None
    family = hypothesis[1] if hypothesis and hypothesis[0] == "family" else "synthetic"
    for length in (30, 15):  # 15 records judge no k past 20
        clean, nan = _nan_trace(field, family, length)
        assert _FUNCTIONS[name](clean).ok
        result = _FUNCTIONS[name](nan)
        assert not result.ok and np.isnan(result.margin) and result.k_violation == k
