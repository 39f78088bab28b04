from types import SimpleNamespace

import numpy as np
import pytest

from fwkit.errors import ContractViolation, InputError, NumericalError
from fwkit.objectives import FactoredQuadratic, LeastSquares, ShiftedNormSquare
from fwkit.stepsizes import (RULES, Armijo, BacktrackingL, Diminishing, LipschitzDep,
                             _armijo, compute_step, rule_from_name)


def _evaluated(obj):
    """``obj`` without ``curvature_along``: the line-search rules then evaluate f at each probe."""
    return SimpleNamespace(eval=obj.eval, shape=obj.shape)


def _probed_step(rule, obj, x, d, alpha_max):
    """The rule's step from x along d, probing f by evaluation."""
    f0, g = obj.eval(x)
    return rule.step(0, _evaluated(obj), x, g, d, alpha_max, f0)


def _lipschitz(g, d, L, alpha_max):
    return LipschitzDep(L).step(0, None, None, g, d, alpha_max, None)


def test_every_rule_is_found_under_its_own_name_and_cannot_be_renamed():
    # a settable name once let Diminishing(name="exact") run exact line search
    for key, rule in RULES.items():
        assert rule.name == key
        assert rule_from_name(key, L=2.0).name == key
        with pytest.raises(TypeError):
            rule(name="exact")
    with pytest.raises(InputError):
        rule_from_name("newton")
    with pytest.raises(InputError):
        rule_from_name("lipschitz")


def test_diminishing_values():
    def step(k):
        return Diminishing().step(k, None, None, None, None, np.inf, None)

    assert step(0) == 1.0
    assert step(2) == 0.5
    assert step(198) == pytest.approx(0.01)
    with pytest.raises(InputError):
        step(-1)


def test_lipschitz_caps_at_alpha_max():
    a = _lipschitz(np.array([-1.0, 0.0]), np.array([1.0, 0.0]), 1.0, 1.0)
    assert a == 1.0


def test_lipschitz_formula_value():
    # oracle by hand from the rule's definition: -<g, d> / (L ||d||^2)
    # = -(-1 * 2) / (1 * 4) = 0.5
    a = _lipschitz(np.array([-1.0, 0.0]), np.array([2.0, 0.0]), 1.0, 1.0)
    assert a == pytest.approx(0.5)


def test_lipschitz_zero_slope_returns_zero():
    assert _lipschitz(np.array([0.0, 1.0]), np.array([1.0, 0.0]), 2.0, 1.0) == 0.0


def test_lipschitz_rejects_ascent():
    with pytest.raises(ContractViolation):
        _lipschitz(np.array([1.0, 0.0]), np.array([1.0, 0.0]), 1.0, 1.0)


def _scalar_square():
    # f(x) = x^2 as a one-dimensional least squares
    return LeastSquares(np.array([[1.0]]), np.array([0.0]))


def test_armijo_accepts_full_step():
    # oracle: f(0) = 0 <= 1 + 0.25 * 1 * (-2) = 0.5
    obj = _scalar_square()
    a = _probed_step(Armijo(delta=0.5, gamma=0.25), obj, np.array([1.0]), np.array([-1.0]), 1.0)
    assert a == 1.0


def test_armijo_backtracks_once():
    # oracle at m=0: f(-2) = 4 > 1 + 0.25 * (-6) = -0.5, reject
    # oracle at m=1: f(-0.5) = 0.25 <= 1 + 0.25 * 0.5 * (-6) = 0.25, accept
    obj = _scalar_square()
    a = _probed_step(Armijo(delta=0.5, gamma=0.25), obj, np.array([1.0]), np.array([-3.0]), 1.0)
    assert a == 0.5


def test_armijo_tiny_gamma_accepts_alpha_max_at_minimizer():
    obj = _scalar_square()
    a = _probed_step(Armijo(delta=0.5, gamma=1e-9), obj, np.array([1.0]), np.array([-1.0]), 1.0)
    assert a == 1.0


def test_armijo_searches_past_101_probes_on_a_descending_direction():
    # slope -2e-5: the steps that pass lie at or below 1.5e-5, under
    # delta^100 = 2.2e-5, so the search needs probe 102 or later
    obj = ShiftedNormSquare(np.zeros(4))
    x = np.array([-1e-5, 0.0, 0.0, 0.0])
    d = np.array([1.0, 0.0, 0.0, 0.0])
    delta, gamma = 0.8984375, 0.25
    f0, g = obj.eval(x)
    fast = compute_step(Armijo(delta, gamma), 0, obj, x, g, d, 1.0, f=f0)
    probed = _probed_step(Armijo(delta, gamma), obj, x, d, 1.0)
    assert fast == probed
    assert 0.0 < probed < delta ** 100
    assert obj.eval(x + probed * d)[0] <= f0 + gamma * probed * float(g @ d)
    assert obj.eval(x + (probed / delta) * d)[0] > f0 + gamma * (probed / delta) * float(g @ d)


def test_armijo_probes_down_to_the_floating_point_floor_then_raises():
    # phi stays above f0: past probe 101 the search shrinks alpha until
    # f0 + gamma alpha slope rounds to f0, probes the last alpha above that, and raises
    f0, slope, delta, gamma = 1.0, -1.0, 0.9, 0.25
    probes = []

    def above(alpha):
        probes.append(alpha)
        return f0 + 1e-3

    with pytest.raises(NumericalError):
        _armijo(above, f0, slope, 1.0, delta, gamma)
    assert len(probes) > 101
    assert f0 + gamma * probes[-1] * slope < f0
    assert f0 + gamma * (probes[-1] * delta) * slope == f0
    # at a minimizer the slope is 0: no decrease can show, so probe 101 is the last
    probes.clear()
    with pytest.raises(NumericalError):
        _armijo(above, f0, 0.0, 1.0, delta, gamma)
    assert len(probes) == 101


def test_armijo_output_satisfies_sufficient_decrease():
    rng = np.random.default_rng(3)
    for _ in range(50):
        a_mat = rng.standard_normal((5, 4))
        obj = LeastSquares(a_mat, rng.standard_normal(5))
        x = rng.standard_normal(4)
        f0, g = obj.eval(x)
        d = -g
        if np.linalg.norm(d) < 1e-12:
            continue
        alpha = _probed_step(Armijo(delta=0.5, gamma=0.1), obj, x, d, 1.0)
        f1, _ = obj.eval(x + alpha * d)
        assert f1 <= f0 + 0.1 * alpha * float(g @ d) + 1e-12 * max(1.0, abs(f0))


def test_armijo_parameter_ranges():
    with pytest.raises(InputError):
        Armijo(delta=1.5)
    with pytest.raises(InputError):
        Armijo(gamma=0.5)


def test_backtracking_accepts_near_true_constant():
    # property: for f with true L = 2 and initial estimate 2, the accepted
    # estimate stays in [down * L, up * L] and the model overestimates
    obj = ShiftedNormSquare(np.zeros(3))
    rule = BacktrackingL(L0=2.0)
    x = np.array([1.0, -0.5, 0.25])
    f0, g = obj.eval(x)
    d = -g
    alpha = _probed_step(rule, obj, x, d, 1.0)
    lhat = rule.lhat
    assert 1.0 <= lhat <= 4.0
    f1, _ = obj.eval(x + alpha * d)
    model = f0 + alpha * float(g @ d) + 0.5 * lhat * alpha ** 2 * float(d @ d)
    assert f1 <= model + 1e-10


def test_backtracking_recovers_from_overestimate():
    obj = ShiftedNormSquare(np.zeros(2))
    rule = BacktrackingL(L0=1e6)
    x = np.array([1.0, 0.0])
    f0, g = obj.eval(x)
    d = -g
    alpha = _probed_step(rule, obj, x, d, 1.0)
    assert alpha > 0.0
    f1, _ = obj.eval(x + alpha * d)
    assert f1 <= f0  # sufficient decrease despite the loose model


def test_backtracking_zero_slope_keeps_estimate():
    obj = ShiftedNormSquare(np.zeros(2))
    rule = BacktrackingL(L0=3.0)
    x = np.array([1.0, 0.0])
    alpha = rule.step(0, _evaluated(obj), x, np.array([0.0, -1.0]) * 0.0,
                      np.array([0.0, 1.0]), 1.0, obj.eval(x)[0])
    assert alpha == 0.0 and rule.lhat == 3.0


def test_lipschitz_step_improvement_bound():
    # property: when alpha < alpha_max, the objective drops by at least
    # <g, d_hat>^2 / (2 L) (the classic per-step decrease)
    rng = np.random.default_rng(31)
    checked = 0
    while checked < 100:
        a_mat = rng.standard_normal((6, 5))
        obj = FactoredQuadratic(a_mat, rng.standard_normal(5), 0.0, +1)
        L = obj.lipschitz_upper()
        x = rng.standard_normal(5)
        f0, g = obj.eval(x)
        d = -g + 0.1 * rng.standard_normal(5)
        if float(g @ d) >= 0:
            continue
        alpha = _lipschitz(g, d, L, np.inf if rng.random() < 0.5 else 10.0)
        if alpha >= 10.0:
            continue
        f1, _ = obj.eval(x + alpha * d)
        dhat = d / np.linalg.norm(d)
        assert f1 <= f0 - float(g @ dhat) ** 2 / (2 * L) + 1e-10 * max(1.0, abs(f0))
        checked += 1
