"""The quadratic fast path: closed-form line search, the tracked A x and gradient.

With the objective value at x in hand, the exact, Armijo and backtracking
rules probe phi(alpha) = f + alpha <g,d> + alpha^2 c / 2 instead of
evaluating f; for objectives of the form ||A x - b||^2 the atomic solvers
also keep A x beside x and move it with atom images, and on a large enough
A they move the gradient with the gradients at the atoms.
"""

from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import fwkit as fw
from fwkit import solvers
from fwkit.atoms import (ActiveSet, StepDescriptor, apply_step, away_step_cap,
                         reconstruct_point)
from fwkit.errors import ContractViolation, InputError, NumericalError
from fwkit.objectives import (BlockSeparable, FactoredQuadratic, LeastSquares,
                              ProblemInstance, Quadratic, ShiftedNormSquare)
from fwkit.regions import L1Ball, Simplex, top_singular_triple
from fwkit.stepsizes import (RULES, Armijo, BacktrackingL, BlockDiminishing, Diminishing,
                             ExactLine, LipschitzDep, _line, compute_step)

FAST = settings(max_examples=60, deadline=None)


def _vectors(draw, n, lo=-3.0, hi=3.0):
    return np.array(draw(st.lists(st.floats(lo, hi), min_size=n, max_size=n)))


@st.composite
def cases(draw):
    """(objective, x, d, alpha_max) with a random quadratic of each family."""
    n = draw(st.integers(1, 5))
    kind = draw(st.sampled_from(["least_squares", "factored", "quadratic", "shifted",
                                 "block"]))
    if kind == "least_squares":
        m = draw(st.integers(1, 5))
        obj = LeastSquares(_vectors(draw, m * n).reshape(m, n), _vectors(draw, m))
    elif kind == "factored":  # either sign: concave when negative
        m = draw(st.integers(1, 5))
        obj = FactoredQuadratic(_vectors(draw, m * n).reshape(m, n), _vectors(draw, n),
                                draw(st.floats(-3.0, 3.0)), draw(st.sampled_from([-1, +1])))
    elif kind == "quadratic":  # indefinite in general
        q = _vectors(draw, n * n).reshape(n, n)
        obj = Quadratic(0.5 * (q + q.T), _vectors(draw, n), draw(st.floats(-3.0, 3.0)))
    elif kind == "shifted":
        obj = ShiftedNormSquare(_vectors(draw, n))
    else:
        m = draw(st.integers(1, 4))
        obj = BlockSeparable([LeastSquares(_vectors(draw, m * n).reshape(m, n),
                                           _vectors(draw, m)),
                              ShiftedNormSquare(_vectors(draw, n))])
    dim = obj.shape[0]
    x = _vectors(draw, dim)
    d = _vectors(draw, dim)
    assume(np.linalg.norm(d) > 1e-3)
    return obj, x, d, draw(st.floats(1e-3, 2.0))


def _bits(v):
    return np.asarray(v, dtype=float).tobytes()


def _evaluated(obj):
    """``obj`` without ``curvature_along``: the line-search rules then evaluate f at each probe."""
    return SimpleNamespace(eval=obj.eval, shape=obj.shape)


def exact_linesearch_quadratic(obj, x, d, alpha_max):
    """Reference: smallest minimizer of f(x + alpha d) over [0, alpha_max] for quadratics,
    from evaluations at x and at x + alpha_max d and the curvature along d."""
    d = np.asarray(d, dtype=float)
    if not np.any(d):
        raise InputError("direction must be nonzero")
    f0, g = obj.eval(x)
    c = obj.curvature_along(d)
    if c > 0.0:
        return min(max(-float(np.vdot(g, d)) / c, 0.0), alpha_max)
    f1, _ = obj.eval(x + alpha_max * d)
    return 0.0 if f0 <= f1 else float(alpha_max)


def _singular_values(a):
    """A dense SVD's singular values of a tall or square A; for a wide A, whose
    sigma_min is not wanted, the 1-SVD's sigma_max alone (the SVD's differs in
    its last bits)."""
    if a.shape[0] >= a.shape[1]:
        return np.linalg.svd(a, compute_uv=False)
    return [top_singular_triple(a)[1]]


def _textbook(obj):
    """Each public quadratic written out in numpy: (value and gradient at x given A x,
    curvature along d given A d, A or None, L, mu)."""
    if isinstance(obj, LeastSquares):
        a, t = obj.a, obj.b
        s = _singular_values(a)
        mu = 2.0 * s[-1] ** 2 if a.shape[0] >= a.shape[1] else 0.0

        def f_g(x, ax):
            r = ax - t
            return float(r @ r), 2.0 * (a.T @ r)
        return f_g, lambda d, ad: 2.0 * float(ad @ ad), a, 2.0 * s[0] ** 2, mu
    if isinstance(obj, FactoredQuadratic):
        a, b, c, sign = obj.a, obj.b, obj.c, obj.sign
        s = _singular_values(a)
        smin = s[-1] if a.shape[0] >= a.shape[1] else 0.0
        mu = 0.0 if sign < 0 else 2.0 * smin ** 2

        def f_g(x, ax):
            return (sign * float(ax @ ax) + float(b @ x) + c,
                    2.0 * sign * (a.T @ ax) + b)
        return f_g, lambda d, ad: 2.0 * sign * float(ad @ ad), a, 2.0 * s[0] ** 2, mu
    if isinstance(obj, Quadratic):
        q, b, c = obj.q, obj.b, obj.c
        eig = np.linalg.eigvalsh(q)

        def f_g(x, ax):
            return float(x @ (q @ x)) + float(b @ x) + c, 2.0 * (q @ x) + b
        return (f_g, lambda d, ad: 2.0 * float(d @ (q @ d)), None,
                2.0 * float(np.max(np.abs(eig))), 2.0 * float(eig[0]) if eig[0] > 0 else 0.0)
    center = obj.center

    def f_g(x, ax):
        r = x - center
        return float(r @ r), 2.0 * r
    return f_g, lambda d, ad: 2.0 * float(d @ d), None, 2.0, 2.0


@FAST
@given(cases())
@example((ShiftedNormSquare(np.zeros(2)), np.array([-0.0, 1.0]), np.ones(2), 1.0))
def test_each_public_quadratic_is_its_textbook_formula_bit_for_bit(case):
    # the example's gradient starts with -0.0, which adding a zero linear term would flip
    obj, x, d, _ = case
    blocks = ([(part, obj.block_slice(i)) for i, part in enumerate(obj.parts)]
              if isinstance(obj, BlockSeparable) else [(obj, slice(None))])
    for part, sl in blocks:
        xp, dp = x[sl], d[sl]
        f_g, curv, a, lip, mu = _textbook(part)
        ax, ad = (xp, dp) if a is None else (a @ xp, a @ dp)
        f, g = f_g(xp, ax)
        evals = [part.eval(xp)] + ([part.eval(xp, ax=ax)] if a is not None else [])
        for f_obj, g_obj in evals:
            assert _bits(f_obj) == _bits(f) and _bits(g_obj) == _bits(g)
        curvatures = [part.curvature_along(dp)]
        if a is not None:
            assert _bits(part.value(xp, ax)) == _bits(f)
            curvatures.append(part.curvature_along(dp, ad=ad))
        assert all(_bits(c) == _bits(curv(dp, ad)) for c in curvatures)
        assert _bits(part.lipschitz_upper()) == _bits(lip)
        assert _bits(part.strong_convexity_lower()) == _bits(mu)


def _scale(f0, slope, c, alpha):
    return abs(f0) + abs(alpha * slope) + abs(0.5 * alpha * alpha * c)


def _step_or_error(rule, obj, x, g, d, alpha_max, f0, k=0, **kwargs):
    """repr of the step or of the error: equal reprs are equal bits (and signs of 0)."""
    try:
        return repr(compute_step(rule, k, obj, x, g, d, alpha_max, f=f0, **kwargs))
    except (ContractViolation, NumericalError) as exc:
        return repr(exc)


@FAST
@given(cases(), st.sampled_from(sorted(RULES)), st.booleans(), st.integers(0, 50),
       st.floats(0.1, 0.9), st.floats(1e-3, 0.49), st.floats(0.05, 50.0))
# the evaluated probes of a backtracking step, on an objective without curvature_along
@example(case=(ShiftedNormSquare(np.zeros(2)), np.array([1.0, 0.0]), np.array([-1.0, 0.5]), 1.0),
         name="backtracking", evaluated=True, k=0, delta=0.5, gamma=0.1, l0=0.1)
def test_given_slope_gives_the_rule_s_own_step_bit_for_bit(case, name, evaluated, k, delta,
                                                           gamma, l0):
    # the solvers pass the <g, d> they already hold; the rules must not move a bit
    obj, x, d, alpha_max = case
    f0, g = obj.eval(x)
    if evaluated:
        obj = _evaluated(obj)

    def rule():
        return {"diminishing": Diminishing(), "block_diminishing": BlockDiminishing(m=3),
                "exact": ExactLine(), "armijo": Armijo(delta, gamma),
                "lipschitz": LipschitzDep(l0), "backtracking": BacktrackingL(L0=l0)}[name]

    own, given_slope = rule(), rule()
    want = _step_or_error(own, obj, x, g, d, alpha_max, f0, k=k)
    got = _step_or_error(given_slope, obj, x, g, d, alpha_max, f0, k=k,
                         slope=float(np.vdot(g, d)))
    assert got == want
    assert given_slope == own  # backtracking's estimate too
    if not want.startswith(("ContractViolation", "NumericalError")):
        assert 0.0 <= float(want) <= alpha_max


@FAST
@given(cases(), st.one_of(st.just(0.0), st.floats(1e-6, 2.0)))
def test_model_matches_evaluation_along_the_line(case, alpha):
    # alpha is 0 or well above the rounding of x + alpha d, which evaluation also sees
    obj, x, d, _ = case
    f0, g = obj.eval(x)
    slope = float(g @ d)
    phi, c = _line(obj, x, d, f0, slope, None)
    assert c == obj.curvature_along(d)
    truth = obj.eval(x + alpha * d)[0]
    assert abs(phi(alpha) - truth) <= 1e-9 * max(_scale(f0, slope, c, alpha), 1e-300)


@FAST
@given(cases(), st.floats(0.1, 0.9), st.floats(1e-3, 0.49))
# a descending direction whose steps that pass lie below delta^100 (see test_stepsizes)
@example(case=(ShiftedNormSquare(np.zeros(4)), np.array([-1e-5, 0.0, 0.0, 0.0]),
               np.array([1.0, 0.0, 0.0, 0.0]), 1.0), delta=0.8984375, gamma=0.25)
def test_armijo_step_passes_sufficient_decrease_on_the_real_objective(case, delta, gamma):
    obj, x, d, alpha_max = case
    f0, g = obj.eval(x)
    slope = float(g @ d)
    c = obj.curvature_along(d)
    assume(slope < -1e-6 * max(_scale(f0, slope, c, alpha_max), 1.0))
    alpha = compute_step(Armijo(delta, gamma), 0, obj, x, g, d, alpha_max, f=f0)
    assert 0.0 < alpha <= alpha_max
    f1 = obj.eval(x + alpha * d)[0]
    assert f1 <= f0 + gamma * alpha * slope + 1e-9 * _scale(f0, slope, c, alpha)
    assert alpha == Armijo(delta, gamma).step(0, _evaluated(obj), x, g, d, alpha_max, f0)


@FAST
@given(cases())
def test_exact_step_equals_exact_linesearch_quadratic(case):
    obj, x, d, alpha_max = case
    f0, g = obj.eval(x)
    slope = float(g @ d)
    c = obj.curvature_along(d)
    if c <= 0.0:
        # endpoint comparison: stay off rounding-level ties (exact ties are tested below)
        move = alpha_max * slope + 0.5 * alpha_max * alpha_max * c
        assume(abs(move) > 1e-9 * max(_scale(f0, slope, c, alpha_max), 1e-300))
    alpha = compute_step(ExactLine(), 0, obj, x, g, d, alpha_max, f=f0)
    assert alpha == exact_linesearch_quadratic(obj, x, d, alpha_max)


@pytest.mark.parametrize("b,expected", [((0.0, 1.0), 0.0), ((1.0, 0.0), 0.0),
                                        ((-1.0, 0.0), 3.0)])
def test_exact_step_flat_direction_prefers_zero_on_ties(b, expected):
    # c = 0 along d = e_1, so f moves by alpha * b[0]: a tie (b[0] = 0) and an
    # increase both give 0, a decrease gives alpha_max
    obj = Quadratic(np.array([[0.0, 0.0], [0.0, -1.0]]), np.array(b))
    x = np.array([0.3, 0.7])
    d = np.array([1.0, 0.0])
    f0, g = obj.eval(x)
    assert obj.curvature_along(d) == 0.0
    alpha = compute_step(ExactLine(), 0, obj, x, g, d, 3.0, f=f0)
    assert alpha == exact_linesearch_quadratic(obj, x, d, 3.0) == expected


@FAST
@given(cases(), st.floats(0.05, 50.0))
def test_backtracking_closed_form_matches_evaluated_probes(case, l0):
    obj, x, d, alpha_max = case
    f0, g = obj.eval(x)
    slope = float(g @ d)
    assume(slope < -1e-6 * max(abs(f0), 1.0))
    fast, probed = BacktrackingL(L0=l0), BacktrackingL(L0=l0)
    alpha = compute_step(fast, 0, obj, x, g, d, alpha_max, f=f0)
    want = probed.step(0, _evaluated(obj), x, g, d, alpha_max, f0)
    assert alpha == pytest.approx(want, rel=1e-12)
    assert fast.lhat == pytest.approx(probed.lhat, rel=1e-12)


def _armijo_by_evaluation(obj, x, d, alpha_max, delta, gamma):
    f0, g = obj.eval(x)
    slope = float(g @ d)
    alpha = alpha_max
    while obj.eval(x + alpha * d)[0] > f0 + gamma * alpha * slope:
        alpha *= delta
    return alpha


def _backtracking_by_evaluation(l0, g, d, alpha_max, obj, x):
    slope, dd = float(g @ d), float(d @ d)
    f0 = obj.eval(x)[0]
    lhat = l0 * 0.5
    while True:
        alpha = min(-slope / (lhat * dd), alpha_max)
        model = f0 + alpha * slope + 0.5 * lhat * alpha * alpha * dd
        if obj.eval(x + alpha * d)[0] <= model + 1e-12 * max(1.0, abs(f0)):
            return alpha, lhat
        lhat *= 2.0


def test_evaluated_probes_match_a_plain_evaluation_loop():
    rng = np.random.default_rng(0)
    for _ in range(20):
        a = rng.standard_normal((6, 4))
        obj = LeastSquares(a, rng.standard_normal(6))
        x = rng.standard_normal(4)
        f0, g = obj.eval(x)
        d = -g + 0.1 * rng.standard_normal(4)
        probed = _evaluated(obj)
        assert Armijo(0.5, 0.1).step(0, probed, x, g, d, 1.0, f0) == \
            _armijo_by_evaluation(obj, x, d, 1.0, 0.5, 0.1)
        rule = BacktrackingL(L0=3.0)
        assert (rule.step(0, probed, x, g, d, 1.0, f0), rule.lhat) == \
            _backtracking_by_evaluation(3.0, g, d, 1.0, obj, x)
        c = obj.curvature_along(d)
        assert ExactLine().step(0, obj, x, g, d, 1.0, f0) == \
            float(np.clip(-float(g @ d) / c, 0.0, 1.0))


def test_curvature_from_a_tracked_image_matches():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((7, 5))
    obj = LeastSquares(a, rng.standard_normal(7))
    x, d = rng.standard_normal(5), rng.standard_normal(5)
    assert obj.curvature_along(d, ad=a @ d) == obj.curvature_along(d)
    assert obj.eval(x, ax=a @ x)[0] == obj.eval(x)[0]
    assert np.array_equal(obj.eval(x, ax=a @ x)[1], obj.eval(x)[1])


def _lasso_run(variant, rule, max_iter, gap_tol):
    inst = fw.build_instance("lasso", m=40, n=120, tau=1.0, seed=3)
    config = fw.SolverConfig(variant=variant, stepsize=rule, max_iter=max_iter,
                             gap_tol=gap_tol, seed=3)
    return inst, fw.solve(inst, config)


def test_tracked_image_drift_stays_bounded_over_a_long_pairwise_run():
    inst, report = _lasso_run("PFW", ExactLine(), 5000, 1e-300)
    assert len(report.records) == 5001
    assert report.meta["affine_resyncs"] >= 5000 // 64
    b = inst.objective.b
    assert report.meta["affine_drift_max"] <= 1e-10 * max(1.0, float(np.linalg.norm(b)))
    assert report.meta["grad_drift_max"] <= 1e-10 * max(1.0, float(np.linalg.norm(b)))


@pytest.mark.parametrize("variant,gap_tol", [("FW", 1e-2), ("AFW", 1e-4), ("PFW", 1e-6)])
def test_gap_tolerance_is_declared_on_an_exact_image(variant, gap_tol):
    inst, report = _lasso_run(variant, ExactLine(), 3000, gap_tol)
    assert report.termination == "GapTol"
    # the last record's f comes from A x recomputed from x, so it is f(x) to the bit
    assert report.records[-1].f == inst.objective.eval(report.x_final)[0]


def test_image_counters_only_on_tracked_objectives():
    _, report = _lasso_run("AFW", ExactLine(), 200, 1e-8)
    assert report.meta["affine_resyncs"] >= 1
    assert report.meta["affine_drift_max"] >= 0.0
    inst = fw.build_instance("simplex_distance", n=8)
    report = fw.solve(inst, fw.SolverConfig(variant="AFW", stepsize=ExactLine(),
                                            max_iter=50, gap_tol=1e-8))
    assert "affine_resyncs" not in report.meta


# --- the tracked gradient -------------------------------------------------


@st.composite
def tracked_objectives(draw):
    """(objective, region): least squares or a factored quadratic of either sign."""
    m, n = draw(st.integers(1, 6)), draw(st.integers(2, 8))
    a = _vectors(draw, m * n).reshape(m, n)
    kind = draw(st.sampled_from(["least_squares", "factored+", "factored-"]))
    if kind == "least_squares":
        obj = LeastSquares(a, _vectors(draw, m))
    else:
        obj = FactoredQuadratic(a, _vectors(draw, n), draw(st.floats(-3.0, 3.0)),
                                sign=+1 if kind == "factored+" else -1)
    if draw(st.booleans()):
        return obj, L1Ball(draw(st.floats(0.25, 3.0)), n)
    return obj, Simplex(n)


@FAST
@given(tracked_objectives(), st.data())
def test_tracked_gradient_follows_random_steps(case, data):
    # an away step of size alpha scales the rounding already in g (and in x)
    # by 1 + alpha, so the bound grows by that factor until the next re-sync;
    # FW and pairwise steps leave it at 1e-12 max(1, ||g||)
    obj, region = case

    def draw_vector():
        return np.array(data.draw(st.lists(st.floats(-1.0, 1.0), min_size=region.n,
                                           max_size=region.n)))

    atom = region.lmo(draw_vector())
    active = ActiveSet.from_atom(atom)
    x = atom.densify().copy()
    with mock.patch.object(solvers, "_TRACK_GRADIENT_MIN", 0):  # g is tracked on any A
        image = solvers._AffineImage(solvers._AtomCache(obj, obj.a), x)
    image.value_and_grad(x)
    growth = 1.0
    steps = data.draw(st.integers(1, solvers._RESYNC_EVERY + 8))  # crosses a re-sync
    for _ in range(steps):
        s_atom = region.lmo(draw_vector())
        pos = data.draw(st.integers(0, len(active) - 1))
        v_atom, w_v = active.atoms[pos], float(active.weights[pos])
        kind = data.draw(st.sampled_from(["FW", "Away", "Pairwise"]))
        if kind == "Away" and w_v >= 1.0:
            kind = "FW"
        if kind == "FW":
            step, d, alpha_max = StepDescriptor("FW", toward=s_atom), s_atom.densify() - x, 1.0
        elif kind == "Away":
            step, d = StepDescriptor("Away", away=v_atom), x - v_atom.densify()
            alpha_max = away_step_cap(w_v)
        else:
            step = StepDescriptor("Pairwise", toward=s_atom, away=v_atom)
            d, alpha_max = s_atom.densify() - v_atom.densify(), w_v
        if not np.any(d):
            continue
        alpha = alpha_max * data.draw(st.sampled_from([1.0, 0.5, 1e-3]) | st.floats(1e-3, 1.0))
        s_entry = None if kind == "Away" else image.cache.entry(s_atom)
        v_entry = None if kind == "FW" else image.cache.entry(v_atom)
        ad = image.direction(s_entry, v_entry)
        apply_step(active, step, alpha)
        x = s_atom.densify().copy() if kind == "FW" and alpha >= 1.0 else x + alpha * d
        image.move(kind, alpha, ad, x, s_entry, v_entry)
        growth = 1.0 if image.steps == 0 else growth * (1.0 + alpha if kind == "Away" else 1.0)
        _, g = image.value_and_grad(x)
        want = obj.eval(x)[1]
        assert np.linalg.norm(g - want) <= 1e-12 * max(1.0, float(np.linalg.norm(want))) * growth
    assert image.grad_passes <= 1 + 2 * steps + image.resyncs


def test_active_set_drift_is_measured_at_resyncs_and_stays_small():
    # x moves by x + alpha d while the weights are renormalized on their own;
    # 20000 pairwise steps on lasso 40x120 drifted 1.5e-14 apart (4.2e-12 on
    # lasso 200x2000)
    inst = fw.build_instance("lasso", m=40, n=120, tau=1.0, seed=3)
    report = solvers.solve(inst, solvers.SolverConfig(
        variant="PFW", stepsize=ExactLine(), max_iter=20000, gap_tol=1e-300, seed=1))
    assert report.termination == "MaxIter"
    assert report.meta["affine_resyncs"] == 20000 // solvers._RESYNC_EVERY
    drift = report.meta["active_drift_max"]
    assert 0.0 < drift <= 1e-12
    final = np.linalg.norm(report.x_final - reconstruct_point(report.active_set))
    assert final <= 1e-12


def _tracked_instance(kind, seed):
    """An instance whose A is large enough for the solvers to track the gradient."""
    m, n = 40, 120
    if kind == "lasso":
        return fw.build_instance("lasso", m=m, n=n, tau=1.0, seed=seed)
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((m, n)) / np.sqrt(m)
    sign = +1 if kind == "factored+" else -1
    obj = FactoredQuadratic(a, rng.standard_normal(n), 0.5, sign=sign)
    region = Simplex(n)
    return ProblemInstance(obj, region, obj.lipschitz_upper(), 0.0, region.diameter())


@settings(max_examples=15, deadline=None)
@given(st.sampled_from(["lasso", "factored+", "factored-"]), st.integers(0, 10 ** 6),
       st.sampled_from(["FW", "AFW", "PFW"]),
       st.sampled_from([ExactLine(), Armijo(), BacktrackingL(L0=10.0)]),
       st.sampled_from([1e-2, 1e-4]))
def test_gap_tolerance_gap_is_the_gap_of_a_fresh_evaluation(kind, seed, variant, rule, gap_tol):
    if variant == "FW":
        gap_tol = 1e-2  # FW's sublinear rate needs far more steps for 1e-4
    inst = _tracked_instance(kind, seed)
    obj = inst.objective
    assert obj.a.size >= solvers._TRACK_GRADIENT_MIN
    report = fw.solve(inst, fw.SolverConfig(variant=variant, stepsize=rule, max_iter=5000,
                                            gap_tol=gap_tol, seed=seed))
    if kind == "lasso":
        assert report.termination == "GapTol"
    if report.termination != "GapTol":
        return
    x = report.x_final
    f, g = obj.eval(x)
    s = inst.region.lmo(g).densify()
    last = report.records[-1]
    assert last.gap == float(np.vdot(g, x) - np.vdot(g, s))
    assert last.f == f


def test_gradient_passes_fall_to_one_per_atom_plus_resyncs():
    _, report = _lasso_run("FW", ExactLine(), 3000, 1e-2)
    coords = set().union(*(r.support for r in report.records))
    assert report.termination == "GapTol"
    assert report.meta["grad_passes"] < len(report.records) / 10
    # the first evaluation, the re-syncs and the atoms +/- tau e_i moved toward
    assert report.meta["grad_passes"] <= 1 + report.meta["affine_resyncs"] + 2 * len(coords)


def test_no_gradient_cache_outlives_a_solve():
    inst = fw.build_instance("lasso", m=40, n=120, tau=1.0, seed=4)
    obj = inst.objective
    attrs = dict(vars(obj))
    config = fw.SolverConfig(variant="AFW", stepsize=ExactLine(), max_iter=2000,
                             gap_tol=1e-6, seed=4)
    first, second = fw.solve(inst, config), fw.solve(inst, config)
    for key in ("grad_passes", "affine_resyncs", "grad_drift_max", "affine_drift_max"):
        assert first.meta[key] == second.meta[key]
    assert [r.f for r in first.records] == [r.f for r in second.records]
    assert vars(obj).keys() == attrs.keys()
    assert all(vars(obj)[key] is value for key, value in attrs.items())


def test_small_designs_evaluate_the_gradient_every_iteration():
    inst = fw.build_instance("boundary_quadratic", n=12, seed=2)
    assert inst.objective.a.size < solvers._TRACK_GRADIENT_MIN
    report = fw.solve(inst, fw.SolverConfig(variant="AFW", stepsize=ExactLine(),
                                            max_iter=500, gap_tol=1e-8))
    assert report.meta["grad_drift_max"] == 0.0
    # one pass per loop turn: every record, plus a turn per GapTol re-sync
    assert len(report.records) <= report.meta["grad_passes"] <= len(report.records) + 1
    inst = fw.build_instance("simplex_distance", n=8)
    report = fw.solve(inst, fw.SolverConfig(variant="FW", stepsize=ExactLine(),
                                            max_iter=50, gap_tol=1e-8))
    assert report.meta["grad_passes"] == len(report.records)
