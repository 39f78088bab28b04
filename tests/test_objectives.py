import inspect
import warnings
from pathlib import Path

import numpy as np
import pytest

from fwkit import objectives
from fwkit.errors import InputError, all_finite
from fwkit.objectives import (BlockSeparable, FactoredQuadratic, LeastSquares,
                              MatrixCompletionLoss, ProblemInstance, Quadratic,
                              ShiftedNormSquare, build_instance,
                              compose_with_linear)
from fwkit.regions import Simplex
from fwkit.stepsizes import ExactLine


def seeded_objectives():
    rng = np.random.default_rng(23)
    a = rng.standard_normal((6, 4))
    q = rng.standard_normal((4, 4))
    return [
        ("factored", FactoredQuadratic(a, rng.standard_normal(4), 0.3, +1), 4),
        ("factored_neg", FactoredQuadratic(a, rng.standard_normal(4), 0.0, -1), 4),
        ("least_squares", LeastSquares(a, rng.standard_normal(6)), 4),
        ("quadratic", Quadratic((q + q.T) / 2, rng.standard_normal(4)), 4),
        ("shifted", ShiftedNormSquare(rng.standard_normal(4)), 4),
        ("block", BlockSeparable([ShiftedNormSquare(rng.standard_normal(2)),
                                  LeastSquares(rng.standard_normal((3, 2)),
                                               rng.standard_normal(3))]), 4),
    ]


def test_eval_shifted_norm_minimum():
    obj = ShiftedNormSquare(np.full(3, 1.0 / 3.0))
    val, grad = obj.eval(np.full(3, 1.0 / 3.0))
    assert val == 0.0
    assert np.allclose(grad, 0.0)


def test_eval_least_squares_hand_expansion():
    # oracle by hand: ||x - b||^2 at 0 is 1, gradient -2b
    obj = LeastSquares(np.eye(2), np.array([1.0, 0.0]))
    val, grad = obj.eval(np.zeros(2))
    assert val == pytest.approx(1.0)
    assert np.allclose(grad, [-2.0, 0.0])


def test_eval_matrix_completion_hand_case():
    obj = MatrixCompletionLoss([(0, 0, 2.0)], 2, 2)
    val, grad = obj.eval(np.zeros((2, 2)))
    assert val == pytest.approx(4.0)
    assert grad[0, 0] == pytest.approx(-4.0)
    assert np.all(grad[1:, :] == 0.0) and grad[0, 1] == 0.0


def test_lipschitz_upper_values():
    assert LeastSquares(np.eye(3), np.zeros(3)).lipschitz_upper() == pytest.approx(2.0)
    # oracle: dense SVD gives sigma_max = 2, so L = 2 * 4
    obj = FactoredQuadratic(np.diag([2.0, 1.0]))
    assert np.linalg.svd(np.diag([2.0, 1.0]), compute_uv=False)[0] == 2.0
    assert obj.lipschitz_upper() == pytest.approx(8.0)
    assert MatrixCompletionLoss([(0, 1, 1.0)], 2, 3).lipschitz_upper() == 2.0


@pytest.mark.parametrize("shape", [
    (40, 90), (90, 40), (60, 60),        # under 512 columns: the 1-SVD, then the dense SVD
    (600, 700), (700, 600), (600, 600),  # past 512 columns: the 1-SVD
], ids=lambda shape: "%dx%d" % shape)
def test_lipschitz_upper_is_twice_the_top_singular_value_squared(shape):
    a = np.random.default_rng(shape).standard_normal(shape)
    smax = np.linalg.svd(a, compute_uv=False)[0]
    assert LeastSquares(a, np.zeros(shape[0])).lipschitz_upper() == pytest.approx(
        2.0 * smax ** 2, rel=1e-13)


@pytest.mark.parametrize("wide", [True, False], ids=["wide", "tall"])
def test_lipschitz_upper_on_a_clustered_top(wide):
    # sigma_2 / sigma_1 = 1 - 1e-6, on 600 x 700 and 700 x 600 designs (both take the 1-SVD)
    rng = np.random.default_rng(8)
    q1 = np.linalg.qr(rng.standard_normal((600, 600)))[0]
    q2 = np.linalg.qr(rng.standard_normal((700, 600)))[0]
    s = np.concatenate([[3.0, 3.0 * (1.0 - 1e-6)], np.linspace(2.0, 0.1, 598)])
    a = (q1 * s) @ q2.T
    a = a if wide else a.T
    smax = np.linalg.svd(a, compute_uv=False)[0]
    assert LeastSquares(a, np.zeros(a.shape[0])).lipschitz_upper() == pytest.approx(
        2.0 * smax ** 2, rel=1e-13)


def test_strong_convexity_values():
    assert ShiftedNormSquare(np.zeros(2)).strong_convexity_lower() == 2.0
    # oracle: dense SVD gives sigma_min = 1
    assert LeastSquares(np.diag([2.0, 1.0]), np.zeros(2)).strong_convexity_lower() == pytest.approx(2.0)
    wide = LeastSquares(np.ones((1, 3)), np.zeros(1))
    assert wide.strong_convexity_lower() == 0.0


def test_half_norm_square_scales_the_unit_norm_square():
    # 1/2 ||x - c||^2: value and curvature halved, gradient x - c, L = mu = 1
    rng = np.random.default_rng(6)
    c, x, d = rng.standard_normal((3, 5))
    half, unit = ShiftedNormSquare(c, scale=0.5), ShiftedNormSquare(c)
    (v, g), (v1, g1) = half.eval(x), unit.eval(x)
    assert v == 0.5 * v1 and g.tobytes() == (x - c).tobytes() and (g1 == 2.0 * g).all()
    assert half.curvature_along(d) == 0.5 * unit.curvature_along(d)
    assert (half.lipschitz_upper(), half.strong_convexity_lower()) == (1.0, 1.0)


def test_gradient_matches_finite_differences():
    # oracle: central differences, step 1e-6, 100 seeded points per variant
    rng = np.random.default_rng(2)
    for name, obj, n in seeded_objectives():
        for _ in range(100 // 6 + 1):
            x = rng.standard_normal(n)
            _, grad = obj.eval(x)
            fd = np.zeros(n)
            for i in range(n):
                e = np.zeros(n)
                e[i] = 1e-6
                fp, _ = obj.eval(x + e)
                fm, _ = obj.eval(x - e)
                fd[i] = (fp - fm) / 2e-6
            scale = max(1.0, np.linalg.norm(grad))
            assert np.linalg.norm(fd - grad) <= 1e-4 * scale, name


def test_matrix_completion_gradient_finite_differences():
    rng = np.random.default_rng(4)
    obj = MatrixCompletionLoss([(0, 0, 1.0), (1, 2, -0.5), (0, 2, 0.25)], 2, 3)
    for _ in range(20):
        x = rng.standard_normal((2, 3))
        _, grad = obj.eval(x)
        fd = np.zeros((2, 3))
        for i in range(2):
            for j in range(3):
                e = np.zeros((2, 3))
                e[i, j] = 1e-6
                fd[i, j] = (obj.eval(x + e)[0] - obj.eval(x - e)[0]) / 2e-6
        assert np.max(np.abs(fd - grad)) <= 1e-4 * max(1.0, np.abs(grad).max())


def test_descent_lemma_upper_model():
    # property: f(x + a d) <= f(x) + a <g, d> + L a^2 ||d||^2 / 2
    rng = np.random.default_rng(9)
    for name, obj, n in seeded_objectives():
        L = obj.lipschitz_upper()
        for _ in range(100 // 6 + 1):
            x = rng.standard_normal(n)
            d = rng.standard_normal(n)
            a = float(rng.uniform(0.0, 1.5))
            f0, g = obj.eval(x)
            f1, _ = obj.eval(x + a * d)
            model = f0 + a * float(g @ d) + 0.5 * L * a * a * float(d @ d)
            assert f1 <= model + 1e-9 * max(1.0, abs(model)), name


def test_strong_convexity_inequality():
    rng = np.random.default_rng(13)
    for name, obj, n in seeded_objectives():
        if name in ("factored_neg", "quadratic"):
            continue
        mu = obj.strong_convexity_lower()
        for _ in range(100 // 4 + 1):
            x = rng.standard_normal(n)
            y = rng.standard_normal(n)
            fx, gx = obj.eval(x)
            fy, _ = obj.eval(y)
            lower = fx + float(gx @ (y - x)) + 0.5 * mu * float((x - y) @ (x - y))
            assert fy >= lower - 1e-9 * max(1.0, abs(lower)), name


def test_block_curvature_skips_zero_blocks_bit_for_bit():
    # BCFW's direction is nonzero in one block: its curvature is that block's
    rng = np.random.default_rng(5)
    b = rng.standard_normal((4, 3))
    obj = BlockSeparable([ShiftedNormSquare(rng.standard_normal(2)),
                          Quadratic(b.T @ b, rng.standard_normal(3)),
                          LeastSquares(rng.standard_normal((3, 4)), rng.standard_normal(3))])
    for i, part in enumerate(obj.parts):
        sl = obj.block_slice(i)
        d = np.zeros(obj.shape)
        d[sl] = rng.standard_normal(sl.stop - sl.start)
        d[sl.start] = 0.0  # a block is zero only when all of it is
        got = obj.curvature_along(d)
        assert type(got) is float
        assert got.hex() == float(part.curvature_along(d[sl])).hex()
    d = rng.standard_normal(obj.shape)
    d[obj.block_slice(1)] = 0.0
    want = 0.0 + obj.parts[0].curvature_along(d[:2]) + obj.parts[2].curvature_along(d[5:])
    assert obj.curvature_along(d).hex() == want.hex()
    assert obj.curvature_along(np.zeros(obj.shape)) == 0.0


def _exact_step(obj, x, d, alpha_max):
    f0, g = obj.eval(x)
    return ExactLine().step(0, obj, x, g, d, alpha_max, f0)


def test_exact_linesearch_cases():
    obj = ShiftedNormSquare(np.zeros(2))
    x = np.array([1.0, 0.0])
    d = np.array([-1.0, 0.0])
    # oracle by hand: the unconstrained minimizer along d sits at alpha = 1
    assert _exact_step(obj, x, d, 1.0) == pytest.approx(1.0)
    assert _exact_step(obj, x, d, 0.5) == pytest.approx(0.5)
    d_perp = np.array([0.0, 1.0])
    assert _exact_step(obj, x, d_perp, 1.0) == pytest.approx(0.0)


def test_exact_linesearch_concave_prefers_cheaper_endpoint():
    obj = Quadratic(-np.eye(2))
    x = np.array([0.1, 0.0])
    d = np.array([1.0, 0.0])
    # concave along d and descending: the far endpoint wins
    assert _exact_step(obj, x, d, 2.0) == pytest.approx(2.0)
    # symmetric case ties at both endpoints: the smallest minimizer is 0
    obj_flat = Quadratic(np.zeros((2, 2)))
    assert _exact_step(obj_flat, x, np.array([0.0, 1.0]), 3.0) == 0.0


def test_exact_linesearch_rejects_zero_direction():
    with pytest.raises(InputError):
        _exact_step(ShiftedNormSquare(np.zeros(2)), np.zeros(2), np.zeros(2), 1.0)


def test_meb_dual_two_points_hand_solution():
    # oracle by hand: the dual on two points (0,0), (2,0) is 4 t^2 - 4 t over
    # t in [0,1]; optimum t = 1/2, value -1, center (1, 0), radius 1
    inst = build_instance("meb_dual", points=np.array([[0.0, 0.0], [2.0, 0.0]]))
    x = np.array([0.5, 0.5])
    val, grad = inst.objective.eval(x)
    assert val == pytest.approx(-1.0)
    lam = grad - float(grad @ x)
    assert np.allclose(lam, 0.0, atol=1e-12)  # stationary on the simplex
    center = np.array([[0.0, 0.0], [2.0, 0.0]]).T @ x
    assert np.allclose(center, [1.0, 0.0])
    radius2 = max(np.linalg.norm(p - center) ** 2 for p in [(0, 0), (2, 0)])
    assert radius2 == pytest.approx(1.0)
    assert -val == pytest.approx(radius2)


def test_simplex_distance_instance():
    inst = build_instance("simplex_distance", n=3)
    assert inst.f_star == 0.0
    assert np.allclose(inst.x_star, np.full(3, 1.0 / 3.0))
    assert inst.L == 2.0 and inst.mu == 2.0
    assert inst.curvature_upper == pytest.approx(inst.L * inst.D ** 2)


def test_max_clique_triangle_grid_oracle():
    # oracle: dense grid over the simplex plus local refinement confirms the
    # maximum of x'Ax + ||x||^2/2 on K3 is 5/6 at the barycenter
    inst = build_instance("max_clique", n=3, edges=[(0, 1), (0, 2), (1, 2)])
    best = -np.inf
    arg = None
    steps = 60
    for i in range(steps + 1):
        for j in range(steps + 1 - i):
            x = np.array([i, j, steps - i - j]) / steps
            val, _ = inst.objective.eval(x)
            if -val > best:
                best = -val
                arg = x
    assert best == pytest.approx(5.0 / 6.0, abs=1e-3)
    assert np.allclose(arg, 1.0 / 3.0, atol=0.05)
    val_bary, _ = inst.objective.eval(np.full(3, 1.0 / 3.0))
    assert -val_bary == pytest.approx(5.0 / 6.0, abs=1e-12)


def test_build_instance_deterministic():
    a = build_instance("lasso", seed=5, m=8, n=12, tau=1.0)
    b = build_instance("lasso", seed=5, m=8, n=12, tau=1.0)
    assert np.array_equal(a.objective.a, b.objective.a)
    assert np.array_equal(a.objective.b, b.objective.b)
    c = build_instance("boundary_quadratic", seed=5, n=6)
    d = build_instance("boundary_quadratic", seed=5, n=6)
    assert np.array_equal(c.objective.a, d.objective.a)
    assert np.array_equal(c.x_star, d.x_star)


@pytest.mark.parametrize("family, params, missing", [
    ("meb_dual", {}, "points"),
    ("svm_dual", {"points": np.eye(2)}, "labels"),
    ("interior_quadratic", {}, "n"),
    ("base_polytope_norm", {"oracle": "graph_cut", "n": 3}, "edges"),
    ("base_polytope_norm", {"oracle": "modular", "n": 3}, "costs"),
])
def test_missing_parameter_is_an_input_error_naming_it(family, params, missing):
    with pytest.raises(InputError, match="%s.*'%s'" % (family, missing)):
        build_instance(family, **params)


@pytest.mark.parametrize("family, params, unknown", [
    ("lasso", {"tua": 2.0}, "tua"),
    ("product", {"n": 3, "blocks": 2}, "blocks"),
    ("base_polytope_norm", {"n": 3, "oracle": "graph_cut", "edges_file": "g.txt"}, "edges_file"),
    ("lasso", {"points": np.eye(2)}, "points"),
])
def test_build_instance_refuses_a_parameter_the_family_does_not_take(family, params, unknown):
    with pytest.raises(InputError, match="^%s takes no parameter '%s'$" % (family, unknown)):
        build_instance(family, **params)


@pytest.mark.parametrize("oracle, params, unread", [
    ("modular", {"costs": [1, 2, 0.5, 1], "cap": 2}, "cap"),
    ("modular", {"costs": [1, 2, 0.5, 1], "edges": [(0, 1, 1.0)]}, "edges"),
    ("cardinality_cap", {"costs": [1, 2, 0.5, 1]}, "costs"),
    ("graph_cut", {"edges": [(0, 1, 1.0)], "cap": 2}, "cap"),
])
def test_base_polytope_norm_refuses_a_parameter_its_oracle_does_not_read(oracle, params, unread):
    with pytest.raises(InputError, match="'%s'.*not with '%s'" % (unread, oracle)):
        build_instance("base_polytope_norm", n=4, oracle=oracle, **params)


def test_a_lasso_design_sets_the_dimension():
    rng = np.random.default_rng(8)
    a, b = rng.standard_normal((10, 30)), rng.standard_normal(10)
    inst = build_instance("lasso", design=a, response=b)
    assert inst.region.n == 30 and inst.objective.shape == (30,)
    assert build_instance("lasso", m=10, n=30, design=a, response=b).region.n == 30
    for shape in ({"n": 50}, {"m": 20}, {"m": 30, "n": 10}):
        with pytest.raises(InputError, match="10 x 30"):
            build_instance("lasso", design=a, response=b, **shape)
    with pytest.raises(InputError, match="together"):
        build_instance("lasso", design=a)


def test_instances_derive_the_constants_they_are_not_given():
    obj, region = ShiftedNormSquare(np.full(4, 0.25), scale=0.5), Simplex(4)
    inst = ProblemInstance(obj, region)
    assert (inst.L, inst.mu, inst.D) == (1.0, 1.0, region.diameter())
    assert ProblemInstance(obj, region, 3.0, 0.0, np.nan).L == 3.0


def test_readme_lists_each_family_as_its_builder_declares_it():
    lines = (Path(__file__).resolve().parent.parent / "README.md").read_text().splitlines()
    for family, builder in objectives.FAMILIES.items():
        params = list(inspect.signature(builder).parameters.values())[1:]
        entry = "- `%s(%s)`" % (family, ", ".join(str(p) for p in params))
        assert any(line.startswith(entry + " ") for line in lines), entry


def test_data_file_readers_share_one_parser(tmp_path):
    path = tmp_path / "t.txt"
    path.write_text("# comment\n1 2 0.5\n\n  3 4\n")
    assert objectives.load_edge_list(path) == [(0, 1, 0.5), (2, 3, 1.0)]
    with pytest.raises(InputError, match="lacks its value"):
        objectives.load_observations(path)
    path.write_text("1 2 3.5\n2 1 -1\n")
    assert objectives.load_observations(path) == [(0, 1, 3.5), (1, 0, -1.0)]


def test_each_quadratic_form_computes_its_spectrum_once(monkeypatch):
    calls = []
    sigma_extremes = objectives._sigma_extremes
    monkeypatch.setattr(objectives, "_sigma_extremes",
                        lambda a: calls.append(a) or sigma_extremes(a))
    inst = build_instance("interior_quadratic", n=8, seed=3)
    assert len(calls) == 1
    assert inst.objective.lipschitz_upper() == inst.L
    assert inst.objective.strong_convexity_lower() == inst.mu
    assert len(calls) == 1


def test_problem_instance_validates_optimum():
    obj = ShiftedNormSquare(np.full(2, 0.5))
    with pytest.raises(InputError):
        ProblemInstance(obj, Simplex(2), 2.0, 2.0, np.sqrt(2.0),
                        f_star=0.5, x_star=np.array([0.5, 0.5]))
    with pytest.raises(InputError):
        ProblemInstance(obj, Simplex(2), 2.0, 2.0, np.sqrt(2.0),
                        f_star=0.0, x_star=np.array([2.0, -1.0]))


def test_interior_and_boundary_instances_are_stationary():
    inst = build_instance("interior_quadratic", n=5, seed=3)
    _, g = inst.objective.eval(inst.x_star)
    assert np.linalg.norm(g) <= 1e-9
    inst = build_instance("boundary_quadratic", n=7, support=3, seed=3)
    _, g = inst.objective.eval(inst.x_star)
    lam = g - float(g @ inst.x_star)
    support = np.flatnonzero(inst.x_star > 0)
    assert np.allclose(lam[support], 0.0, atol=1e-9)
    assert np.all(lam[len(support):] > 0.1)  # strict complementarity


def test_ball_quadratic_gradient_bound():
    inst = build_instance("ball_quadratic", n=6, eps=1.0, c=0.5, seed=0)
    rng = np.random.default_rng(1)
    for _ in range(200):
        z = rng.standard_normal(6)
        z *= rng.random() / np.linalg.norm(z)
        _, g = inst.objective.eval(z)
        assert np.linalg.norm(g) >= 0.5 - 1e-9
    val, _ = inst.objective.eval(inst.x_star)
    assert val == pytest.approx(inst.f_star, abs=1e-12)


def test_compose_with_linear_matches_pointwise():
    rng = np.random.default_rng(8)
    m = rng.standard_normal((4, 4)) + 2 * np.eye(4)
    for name, obj, n in seeded_objectives():
        if name == "block":
            continue
        composed = compose_with_linear(obj, m)
        for _ in range(10):
            y = rng.standard_normal(4)
            v1, g1 = composed.eval(y)
            v2, g2 = obj.eval(m @ y)
            assert v1 == pytest.approx(v2, rel=1e-10, abs=1e-10)
            assert np.allclose(g1, m.T @ g2, atol=1e-9)


@pytest.mark.parametrize("q, b, match", [
    ([[np.nan, 1.0], [2.0, 1.0]], None, "non-finite"),
    ([[np.inf, 0.0], [0.0, 1.0]], None, "non-finite"),
    ([[1.0, 0.0], [0.0, np.nan]], None, "non-finite"),
    (np.eye(2), [1.0, np.nan], "non-finite"),
    (np.eye(2), [np.inf, 0.0], "non-finite"),
    (np.eye(2), [1.0, 2.0, 3.0], "dimension"),
    (np.eye(2), [[1.0, 2.0]], "dimension"),
    ([[1.0, 2.0], [0.0, 1.0]], None, "symmetric"),
    # the other public quadratics: the class in place of Q, its arguments in place of b
    pytest.param(LeastSquares, ([[np.nan]], [0.0]), "non-finite", id="least_squares-a"),
    pytest.param(LeastSquares, (np.eye(2), [np.inf, 0.0]), "non-finite",
                 id="least_squares-b"),
    pytest.param(LeastSquares, (np.eye(2), [1.0]), "dimension", id="least_squares-b-dim"),
    pytest.param(FactoredQuadratic, ([[np.inf]],), "non-finite", id="factored-a"),
    pytest.param(FactoredQuadratic, (np.eye(2), [0.0, np.nan]), "non-finite",
                 id="factored-b"),
    pytest.param(FactoredQuadratic, (np.eye(2), None, np.inf), "non-finite",
                 id="factored-c"),
    pytest.param(FactoredQuadratic, (np.eye(2), None, 0.0, 2), "sign", id="factored-sign"),
    pytest.param(ShiftedNormSquare, ([np.nan, 0.0],), "non-finite", id="shifted-center"),
    pytest.param(ShiftedNormSquare, ([0.0], 0.0), "scale", id="shifted-scale-zero"),
    pytest.param(ShiftedNormSquare, ([0.0], np.inf), "scale", id="shifted-scale-inf"),
])
def test_quadratic_rejects_bad_input_at_construction(q, b, match):
    make, args = (q, b) if isinstance(q, type) else (Quadratic, (q, b))
    with pytest.raises(InputError, match=match):
        make(*args)


def _evaluated_objectives():
    rng = np.random.default_rng(4)
    a = rng.standard_normal((4, 3))
    return [LeastSquares(a, rng.standard_normal(4)), FactoredQuadratic(a),
            Quadratic(np.eye(3)), ShiftedNormSquare(np.ones(3)),
            BlockSeparable([ShiftedNormSquare(np.ones(2)), ShiftedNormSquare(np.ones(1))]),
            MatrixCompletionLoss([(0, 0, 1.0), (1, 2, -1.0)], 2, 3)]


@pytest.mark.parametrize("obj", _evaluated_objectives(), ids=lambda o: type(o).__name__)
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_eval_refuses_a_non_finite_point(obj, bad):
    x = np.zeros(obj.shape)
    x.flat[1] = bad
    with pytest.raises(InputError, match="^non-finite input point$"):
        obj.eval(x)


@pytest.mark.parametrize("obj", _evaluated_objectives(), ids=lambda o: type(o).__name__)
def test_eval_takes_a_finite_point_whose_squares_overflow(obj):
    x = np.full(obj.shape, 1e200)
    with np.errstate(over="ignore", invalid="ignore"):
        obj.eval(x)  # the value overflows; the point is finite, so no InputError


def test_all_finite_is_exact_and_silent_on_overflow():
    # 1e200 squared overflows: the entrywise fallback decides, and the dot
    # product that overflowed warns of nothing
    cases = [([1.0, -2.0], True), ([1e200, -1e200, 3e199], True), ([1e308] * 4, True),
             ([1e200, np.inf], False), ([np.nan, 1.0], False), ([-np.inf], False),
             ([], True), (5.0, True), (np.nan, False)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for v, want in cases:
            assert all_finite(np.array(v, dtype=float)) is want
        assert all_finite(np.full((3, 4), 1e300).T)
        assert not all_finite(np.array([[1.0, np.nan], [2.0, 3.0]]).T)


@pytest.mark.parametrize("family, params", [
    ("simplex_distance", {"n": 0}),
    ("interior_quadratic", {"n": 0}),
    ("interior_quadratic", {"n": 1}),
    ("boundary_quadratic", {"n": 1}),
    ("boundary_quadratic", {"n": 5, "support": 0}),
    ("lasso", {"m": 0}),
    ("lasso", {"n": 0}),
    ("lasso", {"n": 4, "support": 5}),
    ("max_clique", {"n": 0, "edges": []}),
    ("matcomp", {"m": 0}),
    ("ball_quadratic", {"n": 0}),
    ("base_polytope_norm", {"n": 0}),
    ("min_norm_point", {"points": np.zeros((3, 0))}),
])
def test_a_size_the_family_cannot_build_is_an_input_error(family, params):
    # these raised ZeroDivisionError, numpy's ValueError or IndexError, or built
    # 0-dimensional instances
    with pytest.raises(InputError):
        build_instance(family, **params)


@pytest.mark.parametrize("form", [lambda: LeastSquares(np.zeros((0, 3)), np.zeros(0)),
                                  lambda: Quadratic(np.zeros((0, 0))),
                                  lambda: ShiftedNormSquare(np.zeros(0))],
                         ids=["design", "weight", "target"])
def test_an_empty_quadratic_form_is_refused(form):
    with pytest.raises(InputError, match="nonempty"):
        form()


@pytest.mark.parametrize("edge", [(-1, 2, 1.0), (0, 3, 1.0)])
def test_max_clique_refuses_an_edge_endpoint_outside_its_nodes(edge):
    # -1 (a "0" in a 1-based edges file) once wrapped to node n - 1; n raised IndexError
    with pytest.raises(InputError, match="edge endpoint out of range"):
        build_instance("max_clique", n=3, edges=[(0, 1, 1.0), edge])


def test_max_clique_sets_each_edge_both_ways():
    adj = build_instance("max_clique", n=4, edges=[(0, 2, 1.0), (3, 1, 1.0), (2, 0, 1.0)]).meta[
        "adjacency"]
    assert np.array_equal(adj, adj.T) and np.array_equal(np.argwhere(adj),
                                                         [[0, 2], [1, 3], [2, 0], [3, 1]])


@pytest.mark.parametrize("triple, match", [
    ((0, 1, np.nan), "values must be finite"),
    ((0, 1, np.inf), "values must be finite"),
    ((0, 1, -np.inf), "values must be finite"),
    ((0.5, 1, 2.0), "whole numbers"),
    ((0, 1.25, 2.0), "whole numbers"),
])
def test_matrix_completion_refuses_a_non_finite_value_or_a_fractional_index(triple, match):
    # NaN was accepted, and its solve failed at the first LMO; 0.5 was truncated to 0
    with pytest.raises(InputError, match=match):
        MatrixCompletionLoss([(1, 0, 1.0), triple], 2, 2)
    with pytest.raises(InputError, match=match):
        build_instance("matcomp", m=2, n=2, observations=[triple])


def test_matrix_completion_reads_any_iterable_of_triples():
    pairs = [(1, 0, 0.5), (0, 1, -2.0)]
    loss = MatrixCompletionLoss(iter(pairs), 2, 3)
    assert loss.rows.tolist() == [1, 0] and loss.cols.tolist() == [0, 1]
    assert loss.rows.dtype == np.array([1]).dtype and loss.values.tolist() == [0.5, -2.0]
    assert loss.values.flags.c_contiguous
    for bad, match in (([], "at least one"), ([(2, 0, 1.0)], "out of range")):
        with pytest.raises(InputError, match=match):
            MatrixCompletionLoss(bad, 2, 3)
