import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fwkit.errors import CapabilityError, InputError
from fwkit.objectives import (ProblemInstance, ShiftedNormSquare, build_instance,
                              cardinality_cap_oracle, graph_cut_oracle, modular_oracle)
from fwkit.solvers import SolverConfig, solve
from fwkit.stepsizes import ExactLine
from fwkit.regions import (BasePolytope, Box, InexactSchedule, L1Ball, L2Ball,
                           LinfBall, NuclearBall, ProductRegion, Simplex,
                           base_polytope_greedy, face_away_vertex,
                           fw_gap, make_inexact_lmo, max_feasible_step,
                           minimal_face_vertices, top_singular_triple)


def all_orderings_vertices(oracle, n):
    """Oracle: every greedy vertex over all n! orderings."""
    verts = []
    for order in itertools.permutations(range(n)):
        v = np.zeros(n)
        prefix = set()
        prev = 0.0
        for j in order:
            prefix.add(j)
            cur = oracle(frozenset(prefix))
            v[j] = cur - prev
            prev = cur
        verts.append(v)
    return np.array(verts)


def test_simplex_lmo_argmin_coordinate():
    atom = Simplex(3).lmo(np.array([3.0, 1.0, 2.0]))
    assert atom.index == 1 and atom.sign == 1 and atom.scale == 1.0


def test_l1_lmo_sign_and_magnitude():
    atom = L1Ball(2.0, 2).lmo(np.array([1.0, -3.0]))
    assert atom.index == 1 and atom.sign == 1 and atom.scale == 2.0
    assert np.allclose(atom.densify(), [0.0, 2.0])


def test_nuclear_lmo_vs_dense_svd():
    # oracle: dense SVD of the 2x2 gradient; the atom's linear value must
    # match the optimum -sigma_max to high accuracy (vector residue is
    # second order there)
    g = np.diag([-3.0, -1.0])
    s_o = np.linalg.svd(-g, compute_uv=False)[0]
    atom = NuclearBall(1.0, 2, 2).lmo(g)
    assert np.allclose(atom.densify(), np.diag([1.0, 0.0]), atol=1e-6)
    assert float(np.vdot(g, atom.densify())) == pytest.approx(-s_o, rel=1e-12)


def test_lmo_rejects_nonfinite():
    with pytest.raises(InputError):
        Simplex(2).lmo(np.array([np.nan, 1.0]))


def test_linf_lmo_zero_gradient_sign_convention():
    atom = LinfBall(2.0, 3).lmo(np.array([1.0, 0.0, -1.0]))
    assert np.allclose(atom.densify(), [-2.0, -2.0, 2.0])


def test_l2_lmo_center_at_zero_gradient():
    atom = L2Ball(1.5, 3).lmo(np.zeros(3))
    assert np.allclose(atom.densify(), np.zeros(3))


def test_box_lmo_componentwise():
    atom = Box([0.0, -1.0], [2.0, 1.0]).lmo(np.array([1.0, -2.0]))
    assert np.allclose(atom.densify(), [0.0, 1.0])


@pytest.mark.parametrize("region", [
    Simplex(5),
    L1Ball(2.0, 4),
    Box(np.array([-1.0, 0.0, 2.0]), np.array([1.0, 3.0, 2.5])),
    LinfBall(1.5, 4),
])
def test_lmo_beats_vertex_enumeration(region):
    # oracle: brute-force minimum over the enumerated vertex set
    verts = region.vertices()
    rng = np.random.default_rng(7)
    for _ in range(100):
        g = rng.standard_normal(region.shape)
        val = float(np.vdot(g, region.lmo(g).densify()))
        assert val <= np.min(verts @ g) + 1e-12


def test_base_polytope_lmo_beats_enumeration():
    oracle = graph_cut_oracle(4, [(0, 1, 2.0), (1, 2, 1.0), (2, 3, 3.0), (0, 3, 1.0)])
    region = BasePolytope(oracle, 4)
    verts = all_orderings_vertices(oracle, 4)
    rng = np.random.default_rng(11)
    for _ in range(100):
        g = rng.standard_normal(4)
        val = float(np.vdot(g, region.lmo(g).densify()))
        assert val <= np.min(verts @ g) + 1e-12


@pytest.mark.parametrize("region", [L2Ball(2.0, 4), NuclearBall(1.5, 3, 4)])
def test_ball_lmo_beats_random_feasible_points(region):
    # oracle: 1000 random feasible points cannot do better
    rng = np.random.default_rng(3)
    for _ in range(20):
        g = rng.standard_normal(region.shape)
        val = float(np.vdot(g, region.lmo(g).densify()))
        for _ in range(50):
            if isinstance(region, L2Ball):
                z = rng.standard_normal(region.shape)
                z *= region.eps * rng.random() / np.linalg.norm(z)
            else:
                z = rng.standard_normal(region.shape)
                s = np.linalg.svd(z, compute_uv=False).sum()
                z *= region.delta * rng.random() / s
            assert val <= float(np.vdot(g, z)) + 1e-9


def test_product_lmo_blockwise_concatenation():
    # oracle: brute force over the cross product of block vertex sets
    region = ProductRegion([Simplex(3), L1Ball(2.0, 2)])
    verts_a = Simplex(3).vertices()
    verts_b = L1Ball(2.0, 2).vertices()
    rng = np.random.default_rng(21)
    for _ in range(50):
        g = rng.standard_normal(5)
        val = float(np.vdot(g, region.lmo(g).densify()))
        best = min(float(g[:3] @ a + g[3:] @ b) for a in verts_a for b in verts_b)
        assert val <= best + 1e-12


def test_greedy_cap_function_examples():
    # oracle: enumerate both orderings of r(A) = min(|A|, 1)
    oracle = cardinality_cap_oracle(2, 1)
    verts = all_orderings_vertices(oracle, 2)
    assert {tuple(v) for v in verts} == {(1.0, 0.0), (0.0, 1.0)}
    assert np.allclose(base_polytope_greedy(oracle, np.array([0.7, 0.3])), [1.0, 0.0])
    assert np.allclose(base_polytope_greedy(oracle, np.array([0.3, 0.7])), [0.0, 1.0])


def test_greedy_modular_telescopes():
    oracle = modular_oracle([1.0, 1.0, 1.0])
    for w in ([0.5, 0.1, 0.9], [-1.0, 2.0, 0.0]):
        assert np.allclose(base_polytope_greedy(oracle, np.array(w)), np.ones(3))


def test_greedy_tie_break_by_lower_index():
    oracle = cardinality_cap_oracle(3, 1)
    s = base_polytope_greedy(oracle, np.array([0.5, 0.5, 0.2]))
    assert np.allclose(s, [1.0, 0.0, 0.0])


def test_greedy_output_in_base_polytope():
    # property: all 2^n prefix constraints hold and the total is r(V)
    cut = graph_cut_oracle(5, [(0, 1, 1.0), (1, 2, 2.0), (2, 3, 1.0), (3, 4, 2.0), (0, 4, 1.0)])
    cap = cardinality_cap_oracle(5, 2)
    rng = np.random.default_rng(5)
    for oracle in (cut, cap):
        rv = oracle(frozenset(range(5)))
        for _ in range(50):
            s = base_polytope_greedy(oracle, rng.standard_normal(5))
            assert s.sum() == pytest.approx(rv, abs=1e-12)
            for k in range(1, 5):
                for subset in itertools.combinations(range(5), k):
                    assert s[list(subset)].sum() <= oracle(frozenset(subset)) + 1e-12


# ---------------------------------------------------------------------------
# The closed-form greedy of the built-in set functions against the prefix
# greedy, which asks the set function about every prefix of the order.

# few distinct weights, so that the greedy order has ties
_TIE_WEIGHTS = st.sampled_from([-1.0, 0.0, 0.5, 1.0, 2.0])


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 9), st.data())
def test_closed_form_greedy_matches_prefix_greedy(n, data):
    w = np.array(data.draw(st.lists(st.one_of(_TIE_WEIGHTS, st.floats(-5.0, 5.0)),
                                    min_size=n, max_size=n)))
    # self-loops and parallel edges allowed, weights 0 included
    edges = data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                                         st.one_of(st.just(0.0), st.just(1.0),
                                                   st.floats(0.0, 3.0))),
                               max_size=3 * n))
    costs = data.draw(st.lists(st.floats(-3.0, 3.0), min_size=n, max_size=n))
    cap = data.draw(st.integers(0, n + 2))
    order = np.argsort(-w, kind="stable")
    # the gains differ from the prefix differences by the rounding of sums
    # of at most |E| (cut) or n (modular) terms; the cap's are integers
    cut_tol = 1e-14 * max(1.0, sum(e[2] for e in edges))
    modular_tol = 1e-14 * max(1.0, float(np.abs(costs).sum()))
    for oracle, tol in ((graph_cut_oracle(n, edges), cut_tol),
                        (modular_oracle(costs), modular_tol),
                        (cardinality_cap_oracle(n, cap), 0.0)):
        ref = base_polytope_greedy(oracle, w)
        gains = oracle.greedy(order)
        assert gains.shape == (n,)
        assert np.abs(gains - ref).max() <= tol
        atom = BasePolytope(oracle, n).lmo(-w)
        assert atom.vector.tobytes() == gains.tobytes()


def _counting(oracle):
    calls = []

    def plain(subset):
        calls.append(subset)
        return oracle(subset)

    return plain, calls


def test_plain_set_function_keeps_prefix_greedy():
    plain, calls = _counting(graph_cut_oracle(5, [(0, 1, 0.3), (1, 2, 0.7), (2, 4, 1.1),
                                                   (4, 0, 0.2), (3, 3, 5.0)]))
    region = BasePolytope(plain, 5)
    rng = np.random.default_rng(3)
    for _ in range(10):
        g = rng.standard_normal(5)
        del calls[:]
        atom = region.lmo(g)
        assert len(calls) == 6  # r(empty) and the five prefixes
        assert atom.vector.tobytes() == base_polytope_greedy(plain, -g).tobytes()


def test_rebinding_the_oracle_leaves_the_lmo_unchanged():
    region = BasePolytope(graph_cut_oracle(4, [(0, 1, 2.0), (1, 2, 1.0), (2, 3, 3.0)]), 4)
    g = np.array([0.3, -1.0, 0.3, 2.0])
    before = region.lmo(g).vector
    region.oracle, calls = _counting(region.oracle)  # as a tracer wraps it
    assert region.lmo(g).vector.tobytes() == before.tobytes()
    assert calls == []


def test_set_function_inputs_rejected_at_construction():
    with pytest.raises(InputError):
        build_instance("base_polytope_norm", oracle="modular", n=3, costs=[1.0, 2.0])
    with pytest.raises(InputError):
        BasePolytope(modular_oracle([1.0, 2.0, 3.0, 4.0]), 3)
    with pytest.raises(InputError):
        modular_oracle([1.0, np.nan])
    for w in (-0.5, np.nan, np.inf):
        with pytest.raises(InputError):
            graph_cut_oracle(3, [(0, 1, 1.0), (1, 2, w)])


def _ring_plus_random_edges(rng, n):
    edges = [(u, (u + 1) % n, float(rng.uniform(0.5, 2.0))) for u in range(n)]
    for u in range(n):
        for v in range(u + 2, n):
            if rng.random() < 0.2 and (u, v) != (0, n - 1):
                edges.append((u, v, float(rng.uniform(0.5, 2.0))))
    return edges


@pytest.mark.parametrize("n, gap_tol", [(12, 1e-6), (30, 5e-2)])
def test_afw_on_closed_form_greedy_matches_prefix_greedy(n, gap_tol):
    # same run through the prefix greedy: the termination and the iteration
    # count agree, and f within 1e-12 of max(1, |f|) (f is near 0 here)
    config = SolverConfig(variant="AFW", stepsize=ExactLine(), gap_tol=gap_tol, seed=0)
    for seed in range(10):
        edges = _ring_plus_random_edges(np.random.default_rng([n, seed]), n)
        inst = build_instance("base_polytope_norm", oracle="graph_cut", n=n, edges=edges)
        plain, _ = _counting(graph_cut_oracle(n, edges))
        ref_inst = ProblemInstance(ShiftedNormSquare(np.zeros(n)), BasePolytope(plain, n),
                                   inst.L, inst.mu, inst.D, family="base_polytope_norm")
        report, ref = solve(inst, config), solve(ref_inst, config)
        assert report.termination == ref.termination == "GapTol"
        assert len(report.records) == len(ref.records)
        f, f_ref = report.records[-1].f, ref.records[-1].f
        assert abs(f - f_ref) <= 1e-12 * max(1.0, abs(f_ref))


def test_fw_gap_examples():
    assert fw_gap(Simplex(2), np.array([0.5, 0.5]), np.array([1.0, 1.0])) == pytest.approx(0.0, abs=1e-15)
    # oracle by hand: <g, x - e2> = 1
    assert fw_gap(Simplex(2), np.array([1.0, 0.0]), np.array([1.0, 0.0])) == pytest.approx(1.0)
    assert fw_gap(L1Ball(3.0, 4), np.zeros(4), np.zeros(4)) == 0.0


def test_max_feasible_step_simplex_ratio():
    # oracle by hand: coordinate 0 hits zero at (1+a) * 0.5 - a = 0, a = 1
    x = np.array([0.5, 0.5, 0.0])
    d = x - np.array([1.0, 0.0, 0.0])
    assert max_feasible_step(Simplex(3), x, d) == pytest.approx(1.0)


def test_max_feasible_step_box_and_ball():
    box = Box([0.0, 0.0], [1.0, 1.0])
    assert max_feasible_step(box, np.array([0.5, 0.5]), np.array([1.0, 0.0])) == pytest.approx(0.5)
    assert max_feasible_step(L2Ball(1.0, 2), np.zeros(2), np.array([1.0, 0.0])) == pytest.approx(1.0)


def test_max_feasible_step_zero_direction_rejected():
    with pytest.raises(InputError):
        max_feasible_step(Simplex(2), np.array([0.5, 0.5]), np.zeros(2))


@pytest.mark.parametrize("region,x,d", [
    (Simplex(4), np.array([0.4, 0.3, 0.2, 0.1]), np.array([0.1, -0.3, 0.1, 0.1])),
    (L1Ball(2.0, 3), np.array([0.5, -0.5, 0.0]), np.array([1.0, -0.5, 0.25])),
    (L2Ball(1.0, 3), np.array([0.2, 0.1, 0.0]), np.array([1.0, 1.0, -0.5])),
    (LinfBall(1.0, 3), np.array([0.5, 0.0, -0.5]), np.array([1.0, -1.0, 0.5])),
    (Box(np.zeros(3), np.ones(3)), np.array([0.25, 0.5, 0.75]), np.array([1.0, 0.5, -0.25])),
    (NuclearBall(2.0, 2, 2), 0.5 * np.eye(2), np.array([[1.0, 0.2], [0.0, -0.5]])),
    (ProductRegion([Simplex(2), Simplex(3)]),
     np.array([0.5, 0.5, 0.6, 0.4, 0.0]),
     np.array([0.5, -0.5, -0.2, 0.1, 0.1])),
])
def test_max_step_lands_on_boundary(region, x, d):
    assert region.contains(x, 1e-9)
    alpha = max_feasible_step(region, x, d)
    assert region.contains(x + alpha * d, 1e-9)
    assert not region.contains(x + (alpha + 1e-6) * d, 1e-12)


def test_base_polytope_max_step_enumeration():
    oracle = cardinality_cap_oracle(3, 2)
    region = BasePolytope(oracle, 3)
    x = base_polytope_greedy(oracle, np.array([3.0, 2.0, 1.0]))
    x = 0.5 * x + 0.5 * base_polytope_greedy(oracle, np.array([1.0, 2.0, 3.0]))
    d = np.array([1.0, 0.0, -1.0])
    alpha = region.max_step(x, d)
    assert region.contains(x + alpha * d, 1e-9)
    assert not region.contains(x + (alpha + 1e-6) * d, 1e-12)


def test_minimal_face_simplex_support():
    atoms = minimal_face_vertices(Simplex(3), np.array([0.5, 0.5, 0.0]))
    assert sorted(a.index for a in atoms) == [0, 1]
    atoms = minimal_face_vertices(Simplex(3), np.array([1.0, 0.0, 0.0]))
    assert [a.index for a in atoms] == [0]


def test_minimal_face_box_away_vertex():
    # oracle: coordinatewise maximization over the face x0 = 1
    box = Box([0.0, 0.0], [1.0, 1.0])
    away = face_away_vertex(box, np.array([1.0, 0.3]), np.array([0.0, 1.0]))
    assert np.allclose(away.densify(), [1.0, 1.0])
    sel = minimal_face_vertices(box, np.array([1.0, 0.3]))
    assert np.allclose(sel.away_vertex(np.array([0.0, -1.0])).densify(), [1.0, 0.0])


def test_minimal_face_unsupported_region():
    with pytest.raises(CapabilityError):
        minimal_face_vertices(L2Ball(1.0, 2), np.zeros(2))


def test_diameters_closed_forms():
    assert Simplex(5).diameter() == pytest.approx(np.sqrt(2.0))
    assert L1Ball(3.0, 7).diameter() == pytest.approx(6.0)
    assert Box(np.zeros(3), np.ones(3)).diameter() == pytest.approx(np.sqrt(3.0))
    assert L2Ball(2.0, 9).diameter() == pytest.approx(4.0)
    assert LinfBall(1.0, 4).diameter() == pytest.approx(4.0)
    assert NuclearBall(1.5, 3, 4).diameter() == pytest.approx(3.0)
    prod = ProductRegion([Simplex(3), Simplex(4)])
    assert prod.diameter() == pytest.approx(2.0)


def test_base_polytope_diameter_bruteforce():
    # oracle: max pairwise distance over all greedy vertices
    oracle = cardinality_cap_oracle(3, 1)
    verts = all_orderings_vertices(oracle, 3)
    best = max(np.linalg.norm(a - b) for a in verts for b in verts)
    assert BasePolytope(oracle, 3).diameter() == pytest.approx(best)


def test_power_iteration_matches_dense_svd():
    rng = np.random.default_rng(17)
    for trial in range(20):
        m, n = rng.integers(2, 51), rng.integers(2, 51)
        a = rng.standard_normal((m, n))
        if trial % 3 == 0:
            a[rng.random((m, n)) < 0.8] = 0.0  # sparse-like gradient
        if not np.any(a):
            continue
        u, sigma, v = top_singular_triple(a)
        s_dense = np.linalg.svd(a, compute_uv=False)[0]
        assert abs(sigma - s_dense) <= 1e-6 * s_dense
        assert np.linalg.norm(a @ v - sigma * u) <= 1e-5 * max(1.0, s_dense)


def test_inexact_schedule_values():
    sched = InexactSchedule("decaying", delta=1.0, kappa_upper=4.0)
    assert sched.value(0) == pytest.approx(2.0)
    assert sched.value(2) == pytest.approx(1.0)
    with pytest.raises(InputError):
        InexactSchedule("sometimes", 0.1)
    with pytest.raises(InputError):
        InexactSchedule("decaying", 0.1)


def test_inexact_zero_error_is_exact():
    region = Simplex(4)
    oracle = make_inexact_lmo(region, InexactSchedule("constant", 0.0))
    rng = np.random.default_rng(0)
    for _ in range(20):
        g = rng.standard_normal(4)
        exact, served = oracle.query(g, np.full(4, 0.25))
        assert exact is served
        assert served.index == int(np.argmin(g))


def test_inexact_picks_worst_admissible_vertex():
    # oracle: slacks by enumeration -- e1 has 0, e2 has 0.1 <= 0.2
    region = Simplex(2)
    oracle = make_inexact_lmo(region, InexactSchedule("constant", 0.2))
    g = np.array([0.4, 0.5])
    exact, served = oracle.query(g, np.array([1.0, 0.0]))
    assert exact.index == 0
    assert np.allclose(served.densify(), [0.0, 1.0])
