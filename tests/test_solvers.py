import copy
import gc
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fwkit import solvers
from fwkit.atoms import ActiveSet, DenseAtom, SignedUnitAtom
from fwkit.diagnostics import fit_geometric_rate, per_step_guarantees
from fwkit.errors import CapabilityError, InputError
from fwkit.minnorm import corral_weights
from fwkit.objectives import (BlockSeparable, FactoredQuadratic, LeastSquares,
                              ProblemInstance, Quadratic, ShiftedNormSquare,
                              build_instance)
from fwkit.regions import Box, L1Ball, NuclearBall, ProductRegion, Simplex
from fwkit.solvers import SolverConfig, reference_f_star, solve
from fwkit.stepsizes import (Armijo, BacktrackingL, BlockDiminishing, Diminishing,
                             ExactLine, LipschitzDep, compute_step, rule_from_name)


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


@pytest.mark.parametrize("family, params", [
    ("interior_quadratic", dict(n=30, seed=3)), ("boundary_quadratic", dict(n=12, seed=3)),
    ("simplex_distance", dict(n=8)), ("lasso", dict(m=40, n=120, seed=3))])
def test_efw_at_its_rounding_floor_stops_instead_of_running_to_max_iter(family, params):
    # gap_tol 1e-300 is out of reach: once a round can no longer move x (the
    # LMO's atom already holds weight, or the corral turns it away) the run
    # ends by the stationary rule; these runs once spun on to max_iter at the
    # gap where they stop now
    inst = build_instance(family, **params)
    report = solve(inst, cfg("EFW", ExactLine(), gap_tol=1e-300, max_iter=2000, seed=1))
    assert report.termination == "NumericalError"
    assert len(report.records) < 100
    assert report.records[-1].gap == min(r.gap for r in report.records) < 1e-14


def test_efw_corrects_again_after_a_round_stopped_at_its_cycle_cap(monkeypatch):
    # two minor cycles per round leave the weights unsettled: a round whose
    # LMO atom already holds weight must still correct, not end the run
    # (Wolfe's method: EFW from the vertex of least norm, corral tolerance gap_tol/10)
    monkeypatch.setattr(solvers, "_cycle_cap", lambda atoms: 2)
    rng = np.random.default_rng(0)
    pts = rng.standard_normal((30, 5)) + rng.uniform(-1, 1, size=5)
    inst = build_instance("min_norm_point", points=pts)
    report = solve(inst, cfg("WolfeMNP", ExactLine()))
    assert report.termination == "GapTol"
    monkeypatch.undo()
    settled = solve(inst, cfg("WolfeMNP", ExactLine()))
    assert np.allclose(report.x_final, settled.x_final, atol=1e-9)


@pytest.mark.parametrize("variant,gap_tol,corral_tol", [
    ("EFW", 1e-6, 0.1 * 1e-6), ("EFW", 1e-12, 1e-10), ("WolfeMNP", 1e-12, 0.1 * 1e-12)])
def test_each_correction_runs_to_its_variants_corral_tolerance(monkeypatch, variant, gap_tol,
                                                                corral_tol):
    # EFW's corral stops at a weights' gap of max(1e-10, gap_tol/10), Wolfe's
    # method at gap_tol/10, as CAPABILITIES declares
    from fwkit import minnorm

    tols = []
    corral = minnorm.corral_weights
    monkeypatch.setattr(minnorm, "corral_weights",
                        lambda mat, lam, tol, cap: tols.append(tol) or corral(mat, lam, tol, cap))
    pts = np.random.default_rng(4).standard_normal((12, 3)) + 1.0
    report = solve(build_instance("min_norm_point", points=pts), cfg(variant, ExactLine(),
                                                                     gap_tol=gap_tol))
    assert report.termination == "GapTol" and report.records[-1].gap <= gap_tol
    assert tols and set(tols) == {corral_tol}
    assert solvers.CAPABILITIES[variant].corral_tol(gap_tol) == corral_tol


def test_efw_prunes_zero_weight_atoms():
    inst = build_instance("boundary_quadratic", n=8, support=2, seed=4)
    report = solve(inst, cfg("EFW", ExactLine(), gap_tol=1e-11))
    assert report.termination == "GapTol"
    assert len(report.active_set) <= 8


def _afw_correction(obj, atoms, weights):
    """Reference: minimize f(V lam) over the weight simplex by a long AFW run.

    This is how the fully corrective step used to correct: f composed with
    the atoms as a quadratic in the weights, solved by AFW with exact line
    search from the warm weights.  The composition reads f's constant,
    linear and quadratic parts off evaluations at 0 and at the unit vectors.
    Returns the run's last f and gap: f - gap is a lower bound on the
    minimum, as f is convex.
    """
    n = obj.shape[0]
    f0, g0 = obj.eval(np.zeros(n))
    hess = np.column_stack([obj.eval(e)[1] - g0 for e in np.eye(n)])
    v = np.column_stack([a.densify() for a in atoms])
    q = v.T @ (0.25 * (hess + hess.T)) @ v
    inner = ProblemInstance(Quadratic(0.5 * (q + q.T), v.T @ g0, f0), Simplex(len(atoms)),
                            1.0, 0.0, np.sqrt(2.0), family="efw_reference")
    keep = weights > 0.0
    start = ActiveSet([SignedUnitAtom(i, +1, 1.0, len(atoms)) for i in np.flatnonzero(keep)],
                      weights[keep] / weights[keep].sum())
    report = solve(inner, cfg("AFW", ExactLine(), max_iter=20000, gap_tol=1e-13,
                              record_every=10 ** 9), initial_active=start)
    return report.records[-1].f, report.records[-1].gap


@st.composite
def corrections(draw):
    """(objective, atoms, warm weights): a convex quadratic and a few distinct atoms."""
    n = draw(st.integers(2, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kind = draw(st.sampled_from(["least_squares", "factored", "shifted", "psd"]))
    if kind == "least_squares":
        m = draw(st.integers(1, 5))
        obj = LeastSquares(rng.standard_normal((m, n)), rng.standard_normal(m))
    elif kind == "factored":  # a linear term: on a rank-deficient A, f falls along lines
        m = draw(st.integers(1, 5))
        obj = FactoredQuadratic(rng.standard_normal((m, n)), rng.standard_normal(n),
                                float(rng.standard_normal()), sign=+1)
    elif kind == "shifted":
        obj = ShiftedNormSquare(rng.standard_normal(n))
    else:
        b = rng.standard_normal((draw(st.integers(1, n)), n))
        obj = Quadratic(b.T @ b, rng.standard_normal(n), float(rng.standard_normal()))
    k = draw(st.integers(1, 6))
    if draw(st.booleans()):
        slots = rng.permutation(2 * n)[:k]
        scale = float(rng.uniform(0.5, 2.0))
        atoms = [SignedUnitAtom(c % n, 1 - 2 * (c // n), scale, n) for c in slots]
    else:
        atoms = [DenseAtom(rng.standard_normal(n)) for _ in range(k)]
    weights = rng.random(len(atoms)) * (rng.random(len(atoms)) < 0.7)
    weights[draw(st.integers(0, len(atoms) - 1))] += 0.1
    return obj, atoms, weights / weights.sum()


@settings(max_examples=150, deadline=None)
@given(corrections())
def test_corral_correction_minimizes_over_the_hull(case):
    obj, atoms, weights = case
    tol = 1e-10
    active = ActiveSet(atoms, weights)
    mat = solvers._AtomCache(obj).matrix(active)
    lam, cycles = corral_weights(mat, weights, tol, max(200, 40 * len(atoms)))
    assert cycles >= 1
    assert (lam >= 0.0).all() and abs(lam.sum() - 1.0) <= 1e-12
    v = np.column_stack([a.densify() for a in atoms])
    f, g = obj.eval(v @ lam)
    scores = v.T @ g
    scale = max(1.0, abs(f), float(np.abs(scores).max()))
    assert scores @ lam - scores.min() <= tol + 1e-13 * scale
    assert f <= obj.eval(v @ weights)[0] + 1e-14 * scale
    # within 1e-9 of the reference where it converged; the reference can
    # stop short of the minimum (an AFW run 4e-8 above it after 20000 steps
    # was seen), so below it only its own certificate bounds f
    f_ref, gap_ref = _afw_correction(obj, atoms, weights)
    assert f_ref - gap_ref - 1e-12 * scale <= f <= f_ref + 1e-9 * max(1.0, abs(f))


def test_efw_descends_on_a_concave_objective():
    # f = -||x||^2: the corral's affine stationary point (1/2, 1/2) is its
    # maximum, f = -0.5; the correction runs down to the vertex instead
    inst = ProblemInstance(Quadratic(-np.eye(4)), Simplex(4), 2.0, 0.0, np.sqrt(2.0),
                           family="concave")
    start = ActiveSet([SignedUnitAtom(0, +1, 1.0, 4), SignedUnitAtom(1, +1, 1.0, 4)],
                      np.array([0.7, 0.3]))
    report = solve(inst, cfg("EFW", ExactLine(), max_iter=50), initial_active=start)
    assert [r.f for r in report.records] == pytest.approx([-0.58, -1.0], abs=1e-15)
    assert report.termination == "GapTol"


@pytest.mark.parametrize("n, f_final, outer", [(6, -0.875, 4), (10, -0.875, 4), (20, -0.9, 5)])
def test_efw_max_clique_reaches_the_pinned_clique(n, f_final, outer):
    # f = -(1 - 1/(2k)) at the barycentre of a k-clique; values pinned from
    # the nested-AFW correction this replaced
    rng = np.random.default_rng(n)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = [p for p, on in zip(pairs, rng.random(len(pairs)) < 0.5) if on]
    inst = build_instance("max_clique", n=n, edges=edges)
    report = solve(inst, cfg("EFW", ExactLine(), max_iter=200, seed=n))
    assert report.termination == "GapTol"
    assert len(report.records) == outer
    assert report.records[-1].f == pytest.approx(f_final, abs=1e-12)


def test_efw_gradient_cache_dies_with_the_solve():
    inst = build_instance("boundary_quadratic", n=12, seed=3)
    obj = inst.objective
    attrs = dict(vars(obj))
    config = cfg("EFW", ExactLine(), gap_tol=1e-8)
    first, second = solve(inst, config), solve(inst, config)
    gc.collect()
    assert not any(isinstance(o, solvers._AtomCache) for o in gc.get_objects())
    assert vars(obj).keys() == attrs.keys()
    assert all(vars(obj)[key] is value for key, value in attrs.items())
    assert [r.f for r in first.records] == [r.f for r in second.records]
    for key in ("grad_passes", "correction_cycles"):
        assert first.meta[key] == second.meta[key]


def test_efw_counts_one_gradient_per_round_and_per_atom(monkeypatch):
    inst = build_instance("interior_quadratic", n=12, seed=5)
    answers = []
    lmo = inst.region.lmo

    def recording_lmo(g):
        answers.append(lmo(g))
        return answers[-1]

    monkeypatch.setattr(inst.region, "lmo", recording_lmo)
    report = solve(inst, cfg("EFW", ExactLine(), gap_tol=1e-8))
    assert report.termination == "GapTol"
    # the first answer is the initial vertex; the last one, at the stopping
    # round, joins no active set
    met = {(a.index, a.sign) for a in answers[:-1]}
    rounds = len(report.records)
    assert report.meta["grad_passes"] == rounds + len(met)
    assert report.meta["correction_cycles"] >= rounds - 1


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
    # a zero step evaluates nothing: one evaluation per block, then per moved step
    moved = sum(1 for r in report.records if r.alpha > 0.0)
    assert zero_steps and report.meta["block_evals"] == 2 + moved


def test_bcfw_judges_block_steps_by_the_fw_rule():
    # a block step is good iff alpha > 0, and never a "Drop": on this instance
    # the 29 Block(0) steps have alpha 0, and good_steps once read 50 of 50
    region = ProductRegion([Simplex(1), Simplex(3)])
    obj = BlockSeparable([ShiftedNormSquare(np.ones(1)),
                          ShiftedNormSquare(np.full(3, 1.0 / 3.0))])
    inst = ProblemInstance(obj, region, 2.0, 2.0, region.diameter(),
                           f_star=0.0, family="product")
    report = solve(inst, cfg("BCFW", Diminishing(), max_iter=50, gap_tol=1e-14, seed=1))
    steps = report.records[:-1]
    assert len(steps) == 50 and all(r.kind.startswith("Block") for r in steps)
    assert sum(r.kind == "Block(0)" and r.alpha == 0.0 for r in steps) == 29
    assert all(r.good == (r.alpha > 0.0) for r in steps)
    assert report.good_steps == sum(r.good for r in steps) == 21


def test_bcfw_runs_an_explicit_block_count_as_given():
    # on 4 blocks: m = 7 steps 2m/(k+2m) = 14/15 at k = 1, while Diminishing and a
    # BlockDiminishing without m (the CLI's block_diminishing) run m = 4, 8/9
    inst = build_instance("product", b=4, n=5)
    for rule, alpha in ((BlockDiminishing(m=7), 14 / 15), (BlockDiminishing(), 8 / 9),
                        (Diminishing(), 8 / 9), (rule_from_name("block_diminishing"), 8 / 9)):
        report = solve(inst, cfg("BCFW", rule, max_iter=3, seed=0))
        assert report.records[1].alpha == alpha, rule
    assert BlockDiminishing().step(1, None, None, None, None, np.inf, None) == 2 / 3


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


def _bcfw_full_evaluation(instance, config):
    """BCFW that evaluates f and runs every block LMO on each iteration.

    The reference for ``solve_bcfw``, whose per-block caches must reproduce
    its (records, termination, good steps, x_final) bit for bit.  Its
    records are built here, their supports afresh from x: a block step is
    good exactly when it moves x.
    """
    obj, region = instance.objective, instance.region
    m = len(region.blocks)
    rule = copy.deepcopy(config.stepsize)
    if isinstance(rule, Diminishing) or rule == BlockDiminishing():
        rule = BlockDiminishing(m=m)
    rng = np.random.default_rng(config.seed)
    x = np.concatenate([b.lmo(rng.standard_normal(b.shape)).densify()
                        for b in region.blocks])
    records, good_steps = [], 0
    termination = "MaxIter"
    k = 0
    while True:
        f, g = obj.eval(x)
        block_atoms = []
        gap = 0.0
        for i, b in enumerate(region.blocks):
            sl = region.block_slice(i)
            a = b.lmo(g[sl])
            block_atoms.append(a)
            gap += float(g[sl] @ x[sl] - g[sl] @ a.densify())
        state = dict(k=k, f=float(f), gap=gap, support_size=int(np.sum(np.abs(x) > 1e-12)),
                     elapsed_ns=0, support=_support_set(x))
        if gap <= config.gap_tol:
            termination = "GapTol"
            records.append(solvers.IterationRecord(kind="stop", alpha=0.0, **state))
            break
        if k >= config.max_iter:
            records.append(solvers.IterationRecord(kind="stop", alpha=0.0, **state))
            break
        i = int(rng.integers(m))
        sl = region.block_slice(i)
        d_bl = block_atoms[i].densify() - x[sl]
        dg = float(g[sl] @ d_bl)
        if not np.any(d_bl) or dg >= 0.0:
            alpha = 0.0
        else:
            d_full = np.zeros_like(x)
            d_full[sl] = d_bl
            alpha = compute_step(rule, k, obj, x, g, d_full, 1.0, f=f)
        if alpha > 0.0:
            x = x.copy()
            x[sl] = x[sl] + alpha * d_bl
            good_steps += 1
        if k % config.record_every == 0:
            records.append(solvers.IterationRecord(
                kind="Block(%d)" % i, alpha=float(alpha), dg=dg,
                dnorm=float(np.linalg.norm(d_bl)), alpha_max=1.0, good=alpha > 0.0, **state))
        k += 1
    return records, termination, good_steps, x


def _record_bits(rec):
    floats = tuple(float(v).hex() for v in (rec.f, rec.gap, rec.alpha, rec.dg,
                                             rec.dnorm, rec.alpha_max))
    return (rec.k, rec.kind, rec.support_size, rec.support, rec.good) + floats


@st.composite
def block_products(draw):
    sizes = draw(st.lists(st.integers(1, 6), min_size=1, max_size=6))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    parts = []
    for n in sizes:
        if draw(st.booleans()):
            parts.append(ShiftedNormSquare(rng.random(n) / n))
        else:
            b = rng.standard_normal((draw(st.integers(1, n)), n))
            parts.append(Quadratic(b.T @ b, rng.standard_normal(n)))
    obj = BlockSeparable(parts)
    region = ProductRegion([Simplex(n) for n in sizes])
    inst = ProblemInstance(obj, region, obj.lipschitz_upper(), 0.0, region.diameter(),
                           family="product")
    rule = draw(st.sampled_from([
        Diminishing, BlockDiminishing, ExactLine, Armijo,
        lambda: BacktrackingL(L0=float(rng.choice([0.1, 1.0, 10.0]))),
        lambda: LipschitzDep(max(obj.lipschitz_upper(), 1e-3))]))()
    config = SolverConfig(variant="BCFW", stepsize=rule, max_iter=draw(st.integers(1, 80)),
                          gap_tol=draw(st.sampled_from([1e-1, 1e-3, 1e-300])),
                          seed=draw(st.integers(0, 1000)))
    return inst, config


@settings(max_examples=200, deadline=None)
@given(block_products())
def test_bcfw_block_caches_reproduce_the_full_evaluation_bit_for_bit(case):
    inst, config = case
    records, termination, good_steps, x = _bcfw_full_evaluation(inst, config)
    report = solve(inst, config)
    assert report.termination == termination
    assert report.good_steps == good_steps
    assert [_record_bits(r) for r in report.records] == [_record_bits(r) for r in records]
    assert report.x_final.tobytes() == x.tobytes()


@st.composite
def support_runs(draw):
    """A small FW/AFW/PFW/FDFW/EFW run on a simplex, l1 ball or box, storing points."""
    n = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kind = draw(st.sampled_from(["simplex", "l1", "box"]))
    if kind == "simplex":
        region = Simplex(n)
    elif kind == "l1":
        region = L1Ball(draw(st.sampled_from([0.5, 1.0, 3.0])), n)
    else:
        lower = rng.choice([0.0, -1.0], n)
        region = Box(lower, lower + rng.uniform(0.5, 2.0, n))
    if draw(st.booleans()):
        obj = ShiftedNormSquare(rng.standard_normal(n))
    else:
        m = draw(st.integers(1, 6))
        obj = LeastSquares(rng.standard_normal((m, n)), rng.standard_normal(m))
    inst = ProblemInstance(obj, region, 1.0, 0.0, 1.0, family="support")
    variant = draw(st.sampled_from(["FW", "AFW", "PFW", "EFW"]
                                   + (["FDFW"] if kind != "l1" else [])))
    rule = draw(st.sampled_from([ExactLine, Diminishing, Armijo]))()
    config = SolverConfig(variant=variant, stepsize=rule, max_iter=draw(st.integers(1, 60)),
                          gap_tol=1e-12, seed=draw(st.integers(0, 1000)), store_points=True)
    return inst, config


def _support_set(x):
    """Reference: {i : |x_i| > 1e-12} of a vector iterate as a frozenset, built afresh."""
    if x.ndim != 1 or x.size > 4096:
        return None
    return frozenset(np.flatnonzero(np.abs(x) > 1e-12).tolist())


@settings(max_examples=150, deadline=None)
@given(support_runs())
def test_records_share_a_support_while_it_does_not_move(case):
    inst, config = case
    records = solve(inst, config).records
    for prev, rec in zip([None] + records, records):
        assert rec.support == _support_set(rec.x)
        if prev is not None and rec.support == prev.support:
            assert rec.support is prev.support


def _supports_built_when_read(monkeypatch, inst, config):
    """Solve, checking that no support set is built until a record's is read, and that
    records of equal masks share one."""
    built = []

    def counted(items=()):
        built.append(frozenset(items))
        return built[-1]

    monkeypatch.setattr(solvers, "frozenset", counted, raising=False)
    records = solve(inst, config).records
    assert built == []
    supports = [rec.support for rec in records]
    assert 1 < len(built) < len(records)  # one set per support the run moved to
    for prev, rec, support in zip([None] + records, records, supports):
        assert support == _support_set(rec.x)
        assert rec.support is support  # a second read builds nothing
        if prev is not None and support == prev.support:
            assert support is prev.support
    assert len(built) == len({id(s) for s in supports})
    return records


def test_records_build_their_support_set_when_it_is_read(monkeypatch):
    inst = build_instance("lasso", m=40, n=120, seed=3)
    config = cfg("PFW", ExactLine(), max_iter=300, gap_tol=1e-12, store_points=True)
    _supports_built_when_read(monkeypatch, inst, config)


def test_bcfw_records_build_their_support_set_when_it_is_read(monkeypatch):
    # the blocks' masks, joined, are held like every other policy's support
    inst = build_instance("product", b=4, n=12)
    config = cfg("BCFW", ExactLine(), max_iter=300, gap_tol=1e-12, seed=5, store_points=True)
    for rec in _supports_built_when_read(monkeypatch, inst, config):
        assert rec.support_size == len(rec.support)  # the sum of the blocks' counts


def test_record_supports_are_given_assigned_and_pickled_as_frozensets():
    rec = solvers.IterationRecord(0, "FW", 0.5, 1.0, 0.1, 2, 0, support=frozenset({1, 4}))
    assert rec.support == frozenset({1, 4})
    rec.support = frozenset({7})
    assert rec.support == frozenset({7})
    assert rec == solvers.IterationRecord(0, "FW", 0.5, 1.0, 0.1, 2, 0, support=frozenset({7}))

    inst = build_instance("lasso", m=40, n=120, seed=3)
    report = solve(inst, cfg("PFW", ExactLine(), max_iter=60, store_points=True))
    clone = pickle.loads(pickle.dumps(report))  # before any support was read
    assert [type(r.support) for r in clone.records] == [frozenset] * len(report.records)
    assert [r.support for r in clone.records] == [_support_set(r.x) for r in report.records]
    report.records[1].support = frozenset({99})
    assert report.records[1].support == frozenset({99})
    assert report.records[0].support == _support_set(report.records[0].x)


def test_bcfw_counts_one_block_evaluation_per_block_and_moved_step():
    inst = build_instance("product", b=4, n=12)
    report = solve(inst, cfg("BCFW", ExactLine(), max_iter=300, gap_tol=1e-12, seed=5))
    moved = sum(1 for r in report.records if r.alpha > 0.0)
    assert report.termination == "GapTol"
    assert report.meta["block_evals"] == 4 + moved == 50


def test_bcfw_needs_a_block_separable_objective_with_the_region_blocks():
    region = ProductRegion([Simplex(3), Simplex(3)])
    for obj in (ShiftedNormSquare(np.zeros(6)),
                BlockSeparable([ShiftedNormSquare(np.zeros(2)),
                                ShiftedNormSquare(np.zeros(4))]),
                BlockSeparable([ShiftedNormSquare(np.zeros(6))])):
        inst = ProblemInstance(obj, region, 2.0, 2.0, region.diameter(), family="product")
        with pytest.raises(CapabilityError):
            solve(inst, cfg("BCFW", Diminishing()))


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


@pytest.mark.parametrize("variant, family, params", [
    ("EFW", "simplex_distance", dict(n=5)),
    ("FDFW", "simplex_distance", dict(n=5)),
    ("BCFW", "product", dict(b=2, n=3)),
    ("WolfeMNP", "min_norm_point", dict(points=np.eye(3))),
])
def test_variants_without_an_inexact_oracle_refuse_one(variant, family, params):
    # such a solve used to drop the oracle silently: it ran exact LMOs and
    # its report had no inexact_* meta
    from fwkit.regions import InexactSchedule, make_inexact_lmo

    inst = build_instance(family, **params)
    oracle = make_inexact_lmo(inst.region, InexactSchedule("constant", 0.1))
    with pytest.raises(CapabilityError):
        solve(inst, cfg(variant, Diminishing()), inexact=oracle)
    assert oracle.calls == 0


@pytest.mark.parametrize("variant, family, params", [
    ("FDFW", "simplex_distance", dict(n=4)),
    ("BCFW", "product", dict(b=2, n=2)),
    ("WolfeMNP", "min_norm_point", dict(points=np.eye(4))),
])
def test_variants_without_an_initial_active_set_refuse_one(variant, family, params,
                                                            monkeypatch):
    # such a solve used to drop the set silently: FDFW from the barycentre of
    # the simplex recorded f = 0.75 where FW stops at once with f = 0
    inst = build_instance(family, **params)
    start = ActiveSet([SignedUnitAtom(i, +1, 1.0, 4) for i in range(4)], np.full(4, 0.25))
    work = []
    monkeypatch.setattr(solvers, "_initial_atom", lambda *args: work.append(args))
    monkeypatch.setattr(type(inst.region), "lmo", lambda *args: work.append(args))
    with pytest.raises(InputError, match="initial active set"):
        solve(inst, cfg(variant, Diminishing()), initial_active=start)
    assert work == []


def test_only_a_quadratic_form_has_its_design_tracked():
    # an objective that stores some other matrix as .a is evaluated through
    # its own eval(x), as it was before the forms shared one class
    lasso = build_instance("lasso", m=5, n=8, seed=2)

    class Wrapped:
        a = np.ones((3, 3))

        def eval(self, x):
            return lasso.objective.eval(x)

    inst = ProblemInstance(Wrapped(), lasso.region, lasso.L, lasso.mu, lasso.D)
    report = solve(inst, cfg("AFW", Diminishing(), max_iter=20))
    direct = solve(lasso, cfg("AFW", Diminishing(), max_iter=20))
    assert [r.f for r in report.records] == pytest.approx([r.f for r in direct.records])


def test_reference_f_star_refuses_a_nuclear_ball():
    inst = build_instance("matcomp", m=4, n=4, rank=1, density=0.5, seed=1)
    with pytest.raises(CapabilityError):
        reference_f_star(inst, max_iter=10)


def test_solve_refuses_exactly_where_the_capability_table_does():
    insts = [build_instance("simplex_distance", n=4),
             build_instance("lasso", m=5, n=8, seed=2),
             build_instance("ball_quadratic", n=3, seed=0),
             build_instance("matcomp", m=4, n=3, rank=1, density=0.6, seed=0),
             build_instance("product", b=2, n=3),
             build_instance("min_norm_point", points=np.eye(3)),
             build_instance("base_polytope_norm", n=4),
             ProblemInstance(Quadratic(np.eye(3)), Box(-np.ones(3), np.ones(3)),
                             2.0, 2.0, 2.0 * np.sqrt(3.0))]
    for inst in insts:
        for variant, cap in solvers.CAPABILITIES.items():
            runs = cap.needs(inst)
            try:
                solvers.check_capability(inst, variant)
            except CapabilityError:
                assert not runs
            else:
                assert runs
            if runs:
                solve(inst, cfg(variant, Diminishing(), max_iter=3))
            else:
                with pytest.raises(CapabilityError):
                    solve(inst, cfg(variant, Diminishing(), max_iter=3))


class _Unnamed:
    def step(self, k, obj, x, g, d, alpha_max, f, ad=None, slope=None):
        return 0.5 * alpha_max


@pytest.mark.parametrize("stepsize", ["exact", ExactLine, object(), 0.5, _Unnamed()])
def test_config_refuses_a_stepsize_that_is_not_a_rule(stepsize):
    # "exact" used to be accepted and then fail inside the loop with an
    # AttributeError on .step; a rule without a name, after the whole solve,
    # on .name
    with pytest.raises(InputError, match="stepsize must be a rule"):
        SolverConfig(stepsize=stepsize)


def test_config_takes_a_rule_of_the_caller_s_own():
    class Half(_Unnamed):
        name = "half"

    report = solve(build_instance("simplex_distance", n=4), cfg("FW", Half(), max_iter=5))
    assert report.meta["stepsize"] == "half"
    assert [r.alpha for r in report.records[:2]] == [0.5, 0.5]


@pytest.mark.parametrize("variant", ["EFW", "WolfeMNP"])
def test_a_run_that_asks_no_step_rule_names_none(variant):
    # EFW and Wolfe's method size every step by their correction; their
    # reports once named the config's rule all the same ("diminishing" for
    # a config from `fwkit gen --family min_norm_point`)
    pts = np.random.default_rng(3).standard_normal((12, 3)) + 1.0
    inst = build_instance("min_norm_point", points=pts)
    report = solve(inst, cfg(variant, Diminishing()))
    assert report.termination == "GapTol" and report.meta["stepsize"] is None
    with pytest.raises(InputError, match="Lipschitz rule"):
        per_step_guarantees(report)
    assert solve(inst, cfg("AFW", Diminishing(), max_iter=5)).meta["stepsize"] == "diminishing"


class _TurnsNaN:
    """Its objective's gradient, with a NaN from the ``after``-th evaluation on."""

    def __init__(self, obj, after):
        self.obj, self.after, self.calls = obj, after, 0
        self.shape = obj.shape

    def eval(self, x):
        self.calls += 1
        f, g = self.obj.eval(x)
        if self.calls >= self.after:
            g = g.copy()
            g[0] = np.nan
        return f, g


@pytest.mark.parametrize("variant", ["FW", "AFW", "PFW", "EFW", "FDFW"])
def test_a_gradient_turning_nan_mid_solve_raises_input_error(variant):
    inst = build_instance("boundary_quadratic", n=6, seed=1)
    obj = _TurnsNaN(inst.objective, after=4)
    wrapped = ProblemInstance(obj, inst.region, inst.L, inst.mu, inst.D)
    with pytest.raises(InputError, match="gradient has non-finite entries"):
        solve(wrapped, cfg(variant, ExactLine(), max_iter=50, gap_tol=1e-300))
    assert obj.calls >= 4


_LAYER_CASES = [pytest.param(family, variant, ExactLine, id="%s-%s" % (family, variant))
                for variant in ("FW", "AFW", "PFW")
                for family in ("boundary_quadratic", "simplex_distance")]
_LAYER_CASES += [
    pytest.param("boundary_quadratic", "FDFW", ExactLine, id="boundary_quadratic-FDFW"),
    pytest.param("product", "BCFW", Diminishing, id="product-BCFW-diminishing"),
    pytest.param("product", "BCFW", ExactLine, id="product-BCFW-exact")]


@pytest.mark.parametrize("family, variant, rule", _LAYER_CASES)
def test_atomic_driver_calls_its_layers_through_their_module_names(monkeypatch, family, variant,
                                                                   rule):
    # a tracer that rebinds solvers.compute_step, solvers.apply_step,
    # solvers.select_away_vertex and the classes' eval and lmo sees every
    # call; BCFW evaluates its parts and its blocks' LMOs, not the product's
    inst = build_instance(family, n=8, seed=2, **({"b": 3} if family == "product" else {}))
    config = cfg(variant, rule(), max_iter=40, gap_tol=1e-300)
    plain = solve(inst, config)
    counts = dict.fromkeys(["eval", "lmo", "compute_step", "apply_step",
                            "select_away_vertex"], 0)

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in ("compute_step", "apply_step", "select_away_vertex"):
        monkeypatch.setattr(solvers, name, counted(name, getattr(solvers, name)))
    obj, region = inst.objective, inst.region
    if variant == "BCFW":
        obj, region = obj.parts[0], region.blocks[0]  # the parts share a class, as do the blocks
    monkeypatch.setattr(type(obj), "eval", counted("eval", type(obj).eval))
    monkeypatch.setattr(type(region), "lmo", counted("lmo", type(region).lmo))
    report = solve(inst, config)
    assert [_record_bits(r) for r in report.records] == [_record_bits(r) for r in plain.records]
    steps = sum(r.kind != "stop" for r in report.records)
    assert steps > 0
    # one per pass of the loop (a re-sync repeats a pass) and the initial vertex
    assert counts["lmo"] >= len(report.records) + 1
    if variant in ("FDFW", "BCFW"):
        # no active set; every FDFW step and every descending BCFW block asks the rule
        asked = sum(r.kind != "stop" and (variant == "FDFW" or r.dg < 0.0)
                    for r in report.records)
        assert counts["compute_step"] == asked > 0
        assert counts["apply_step"] == counts["select_away_vertex"] == 0
        assert counts["eval"] >= len(report.records)
        return
    assert counts["eval"] >= 1
    assert counts["compute_step"] == counts["apply_step"] == steps
    assert counts["select_away_vertex"] == (0 if variant == "FW" else steps)


def test_block_draws_in_chunks_give_the_stream_of_single_draws():
    # BCFW draws its blocks 64 at a time; its traces equal those of one
    # rng.integers(m) per iteration only while numpy gives the same stream
    for m in (1, 2, 4, 7, 1000):
        one, chunked = np.random.default_rng(m), np.random.default_rng(m)
        singles = [int(one.integers(m)) for _ in range(200)]
        chunks = np.concatenate([chunked.integers(m, size=64) for _ in range(4)])
        assert chunks[:200].tolist() == singles
