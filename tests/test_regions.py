import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fwkit import regions
from fwkit.errors import CapabilityError, InputError
from fwkit.objectives import (ProblemInstance, ShiftedNormSquare, build_instance,
                              cardinality_cap_oracle, graph_cut_oracle, modular_oracle)
from fwkit.solvers import SolverConfig, solve
from fwkit.stepsizes import ExactLine
from fwkit.regions import (BasePolytope, Box, InexactSchedule, L1Ball, L2Ball,
                           LinfBall, NuclearBall, ProductRegion, Simplex,
                           base_polytope_greedy, fw_gap, make_inexact_lmo, VertexHull)


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


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=12),
       st.lists(st.tuples(st.integers(0, 11), st.sampled_from([np.nan, np.inf, -np.inf])),
                max_size=4))
def test_l1_lmo_refuses_every_non_finite_gradient_and_keeps_its_atom(values, planted):
    # finite entries span the whole float range (squares past 1e154 overflow);
    # planted NaNs and infinities land anywhere, mixed
    g = np.array(values)
    for pos, bad in planted:
        g[pos % len(g)] = bad
    ball = L1Ball(1.5, len(g))
    if planted:
        with pytest.raises(InputError, match="^gradient has non-finite entries$"):
            ball.lmo(g)
        return
    # reference: the first coordinate of largest |g_i|, signed against g_i
    i = max(range(len(values)), key=lambda j: abs(values[j]))
    atom = ball.lmo(g)
    assert (atom.index, atom.sign, atom.scale) == (i, 1 if values[i] <= 0 else -1, 1.5)


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


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_greedy_refuses_non_finite_weights(bad):
    with pytest.raises(InputError, match="^weight vector has non-finite entries$"):
        base_polytope_greedy(cardinality_cap_oracle(3, 1), [0.5, bad, 0.2])


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
    assert Simplex(3).max_step(x, d) == pytest.approx(1.0)


def test_max_feasible_step_box_and_ball():
    box = Box([0.0, 0.0], [1.0, 1.0])
    assert box.max_step(np.array([0.5, 0.5]), np.array([1.0, 0.0])) == pytest.approx(0.5)


def test_max_feasible_step_zero_direction_rejected():
    with pytest.raises(InputError):
        Simplex(2).max_step(np.array([0.5, 0.5]), np.zeros(2))


# Case ids keep the numbers they had when the table also held the l1, l2,
# nuclear and product cases, so each case keeps its name.
@pytest.mark.parametrize("region,x,d", [
    pytest.param(Simplex(4), np.array([0.4, 0.3, 0.2, 0.1]),
                 np.array([0.1, -0.3, 0.1, 0.1]), id="region0-x0-d0"),
    pytest.param(LinfBall(1.0, 3), np.array([0.5, 0.0, -0.5]),
                 np.array([1.0, -1.0, 0.5]), id="region3-x3-d3"),
    pytest.param(Box(np.zeros(3), np.ones(3)), np.array([0.25, 0.5, 0.75]),
                 np.array([1.0, 0.5, -0.25]), id="region4-x4-d4"),
])
def test_max_step_lands_on_boundary(region, x, d):
    assert region.contains(x, 1e-9)
    alpha = region.max_step(x, d)
    assert region.contains(x + alpha * d, 1e-9)
    assert not region.contains(x + (alpha + 1e-6) * d, 1e-12)


def test_hull_membership_retries_with_slack_only_for_boundary_points(monkeypatch):
    import scipy.optimize

    calls = []
    linprog = scipy.optimize.linprog

    def counting(*args, **kwargs):
        calls.append(kwargs["bounds"][0][0])
        return linprog(*args, **kwargs)

    monkeypatch.setattr(scipy.optimize, "linprog", counting)
    hull = VertexHull([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    cases = [([0.2, 0.3], 1e-6, True, [0]),  # inside: the exact LP decides
             ([0.5, 0.5 + 5e-7], 1e-6, True, [0, -1e-6]),  # past the edge, within tol
             ([0.5, 0.5 + 5e-7], 1e-9, False, [0, -1e-9]),  # the same point, past tol
             ([0.5, 0.6], 1e-6, False, [0, -1e-6])]  # outside
    for x, tol, inside, bounds in cases:
        calls.clear()
        assert hull.contains(np.array(x), tol) is inside
        assert calls == bounds
    assert hull.contains(np.zeros(3)) is False  # the wrong shape


def test_minimal_face_box_away_vertex():
    # oracle: coordinatewise maximization over the face x0 = 1
    box = Box([0.0, 0.0], [1.0, 1.0])
    x = np.array([1.0, 0.3])
    assert np.allclose(box.face_away_vertex(x, np.array([0.0, 1.0])), [1.0, 1.0])
    assert np.allclose(box.face_away_vertex(x, np.array([0.0, -1.0])), [1.0, 0.0])


class _Declared:
    """A box seen through a wrapper: the region's attributes, and only the declarations given."""

    def __init__(self, box, **declared):
        self.box = box
        self.__dict__.update(declared)

    def __getattr__(self, name):
        if name == "polytopal" or name in regions.FACE_OPERATIONS:
            raise AttributeError(name)
        return getattr(self.box, name)


def test_the_variants_a_region_runs_follow_its_declarations_not_its_class():
    box = Box([-1.0, -0.5, 0.0], [1.0, 0.5, 2.0])
    obj = ShiftedNormSquare(np.array([2.0, 0.1, -1.0]))
    # the four operations FDFW calls
    faces = {op: getattr(box, op) for op in regions.FACE_OPERATIONS}

    def inst(region):
        return ProblemInstance(obj, region, 2.0, 2.0, box.diameter())

    plain = _Declared(box)
    for variant in ("AFW", "FDFW"):
        with pytest.raises(CapabilityError):
            solve(inst(plain), SolverConfig(variant=variant))
    for variant, declared in (("AFW", {"polytopal": True}), ("FDFW", faces)):
        config = SolverConfig(variant=variant, stepsize=ExactLine(), gap_tol=1e-10)
        ref = solve(inst(box), config)
        got = solve(inst(_Declared(box, **declared)), config)
        assert [(r.kind, r.f, r.gap) for r in got.records] == \
            [(r.kind, r.f, r.gap) for r in ref.records]
    # a product is polytopal when every block is
    assert ProductRegion([Simplex(2), box]).polytopal
    assert not ProductRegion([Simplex(2), L2Ball(1.0, 2)]).polytopal
    assert not ProductRegion([Simplex(2), plain]).polytopal


class _NoMaxStep:
    """A simplex that declares three face operations but not ``max_step``; counts its LMO calls."""

    def __init__(self, region):
        self.region, self.lmo_calls = region, 0

    def lmo(self, g):
        self.lmo_calls += 1
        return self.region.lmo(g)

    def __getattr__(self, name):
        if name == "max_step":
            raise AttributeError(name)
        return getattr(self.region, name)


def test_fdfw_refuses_a_region_without_max_step_before_any_work():
    # an in-face step stops at the face's boundary, so FDFW calls max_step;
    # this f takes in-face steps on the plain simplex
    obj = ShiftedNormSquare(np.array([0.6, 0.5, 0.3, -0.2, -0.1, 0.0]))
    region = _NoMaxStep(Simplex(6))
    assert all(hasattr(region, op) for op in regions.FACE_OPERATIONS if op != "max_step")
    with pytest.raises(CapabilityError, match="FDFW needs a region with minimal-face"):
        solve(ProblemInstance(obj, region, 2.0, 2.0, np.sqrt(2.0)),
              SolverConfig(variant="FDFW", stepsize=ExactLine()))
    assert region.lmo_calls == 0


def test_fdfw_on_an_linf_ball_is_fdfw_on_the_equal_box():
    rng = np.random.default_rng(21)
    n, eps = 6, 0.5
    obj = ShiftedNormSquare(rng.uniform(-1.0, 1.0, n))  # optimum: the center clipped to the box
    config = SolverConfig(variant="FDFW", stepsize=ExactLine(), max_iter=200, gap_tol=1e-12)

    def run(region):
        report = solve(ProblemInstance(obj, region, 2.0, 2.0, 2.0 * eps * np.sqrt(n)), config)
        return ([(r.k, r.kind, r.alpha.hex(), r.f.hex(), r.gap.hex(), r.support_size, r.good)
                 for r in report.records], report.termination, report.x_final.tobytes())

    ball = run(LinfBall(eps, n))
    assert ball == run(Box(-eps * np.ones(n), eps * np.ones(n)))
    assert {"InFace", "Drop"} & {rec[1] for rec in ball[0]}


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


def _loop_max_distance(pts):
    """Reference: the per-point loop both diameters ran before the blocked pass."""
    best = 0.0
    for i in range(len(pts)):
        best = max(best, float(np.max(np.linalg.norm(pts[i + 1:] - pts[i], axis=1),
                                      initial=0.0)))
    return best


def _loop_diameter_bound(oracle, n):
    """Reference: the 2n-call bound 2 sqrt(n) max_i(|r({i})| + |r(V) - r(V - {i})|)."""
    worst = 0.0
    ground = frozenset(range(n))
    rv = float(oracle(ground))
    for i in range(n):
        hi = abs(oracle(frozenset([i])))
        lo = abs(rv - oracle(ground - {i}))
        worst = max(worst, hi + lo)
    return 2.0 * worst * np.sqrt(n)


def _assert_end_gains_match_the_oracle(oracle, n):
    first, last = oracle.end_gains()
    assert first.shape == last.shape == (n,)
    ground = frozenset(range(n))
    rv = float(oracle(ground))
    for i in range(n):
        assert float(first[i]).hex() == float(oracle(frozenset([i]))).hex()
        assert float(last[i]).hex() == (rv - oracle(ground - {i})).hex()


_CUT_WEIGHTS = st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 3.0),
                         st.floats(1e-9, 1e9))


@settings(max_examples=300, deadline=None)
@given(st.integers(8, 40), st.data())
def test_cut_end_gains_give_the_loop_diameter_bit_for_bit(n, data):
    # endpoints among the first `used` nodes leave the others isolated;
    # self-loops, parallel edges and zero weights come up among them
    used = data.draw(st.integers(1, n))
    edge = st.tuples(st.integers(0, used - 1), st.integers(0, used - 1), _CUT_WEIGHTS)
    edges = data.draw(st.lists(edge, max_size=4 * n))
    edges += edges[:data.draw(st.integers(0, len(edges)))]
    oracle = graph_cut_oracle(n, edges)
    _assert_end_gains_match_the_oracle(oracle, n)
    region = BasePolytope(oracle, n)
    region.oracle, calls = _counting(oracle)  # the bound must come from end_gains()
    assert region.diameter().hex() == _loop_diameter_bound(oracle, n).hex()
    assert calls == []


@pytest.mark.parametrize("n", [1, 2, 7, 8, 9, 30])
def test_cap_end_gains_give_the_loop_diameter_bit_for_bit(n):
    for cap in range(n + 3):
        oracle = cardinality_cap_oracle(n, cap)
        _assert_end_gains_match_the_oracle(oracle, n)
        if n > 7:
            region = BasePolytope(oracle, n)
            region.oracle, calls = _counting(oracle)
            assert region.diameter().hex() == _loop_diameter_bound(oracle, n).hex()
            assert calls == []


def test_set_functions_without_end_gains_keep_the_loop_bound():
    costs = np.random.default_rng(4).uniform(-2.0, 2.0, 12)
    plain, calls = _counting(graph_cut_oracle(12, _ring_plus_random_edges(
        np.random.default_rng(5), 12)))
    for oracle in (modular_oracle(costs), plain):
        region = BasePolytope(oracle, 12)
        del calls[:]
        diameter = region.diameter()
        if oracle is plain:
            assert len(calls) == 1 + 2 * 12  # r(V), then r({i}) and r(V - {i}) for each i
        assert diameter.hex() == _loop_diameter_bound(oracle, 12).hex()


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 5), st.data())
def test_enumerated_base_polytope_diameter_matches_the_loop(n, data):
    edges = data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                                         _CUT_WEIGHTS), max_size=3 * n))
    costs = data.draw(st.lists(st.floats(-3.0, 3.0), min_size=n, max_size=n))
    for oracle in (graph_cut_oracle(n, edges), modular_oracle(costs),
                   cardinality_cap_oracle(n, data.draw(st.integers(0, n + 2)))):
        region = BasePolytope(oracle, n)
        assert region.diameter().hex() == _loop_max_distance(region.vertices()).hex()


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 60), st.integers(1, 12), st.data())
def test_hull_diameter_matches_the_loop_bit_for_bit(k, n, data):
    # k distinct-or-repeated rows drawn from a pool; the block holds `rows`
    # rows, drawn on both sides of k, or is the module's own
    pool = data.draw(st.integers(1, k))
    scale = 10.0 ** data.draw(st.integers(-6, 6))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    pts = (scale * rng.standard_normal((pool, n)))[rng.integers(0, pool, k)]
    rows = data.draw(st.one_of(st.integers(1, 70), st.none()))
    with pytest.MonkeyPatch.context() as mp:
        if rows is not None:
            mp.setattr(regions, "_PAIR_BLOCK", rows * pts.size)
        assert VertexHull(pts).diameter().hex() == _loop_max_distance(pts).hex()


@pytest.mark.parametrize("k, n", [(1, 3), (2, 1), (600, 3), (300, 40)])
def test_hull_diameter_matches_the_loop_across_default_blocks(k, n):
    pts = np.random.default_rng([k, n]).standard_normal((k, n))
    assert VertexHull(pts).diameter().hex() == _loop_max_distance(pts).hex()


def test_hull_diameter_does_not_depend_on_the_memory_layout_of_the_points():
    # a Fortran-ordered difference block once summed its squares in another
    # order, so D differed in the last bits from that of the C-ordered copy
    rng = np.random.default_rng(14)
    for _ in range(200):
        pts = rng.standard_normal((int(rng.integers(2, 60)), int(rng.integers(1, 41))))
        hulls = VertexHull(np.asfortranarray(pts)), VertexHull(np.ascontiguousarray(pts))
        assert hulls[0].points.flags.c_contiguous
        assert hulls[0].diameter().hex() == hulls[1].diameter().hex()


_SIZED = {"L1Ball": lambda size: L1Ball(size, 3),
          "L2Ball": lambda size: L2Ball(size, 3),
          "LinfBall": lambda size: LinfBall(size, 3),
          "NuclearBall": lambda size: NuclearBall(size, 2, 2),
          "Box-lower": lambda size: Box(-size * np.ones(3), np.ones(3)),
          "Box-upper": lambda size: Box(np.zeros(3), size * np.ones(3))}


@pytest.mark.parametrize("make", list(_SIZED.values()), ids=list(_SIZED))
@pytest.mark.parametrize("size", [np.inf, np.nan])
def test_region_refuses_a_size_or_bound_that_is_not_finite(make, size):
    with pytest.raises(InputError, match="finite$"):
        make(size)
    make(1e300).lmo(np.ones(make(1.0).shape))  # a finite size, however large, constructs


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
        exact, served = oracle.query(g)
        assert exact is served
        assert served.index == int(np.argmin(g))


def test_inexact_picks_worst_admissible_vertex():
    # oracle: slacks by enumeration -- e1 has 0, e2 has 0.1 <= 0.2
    region = Simplex(2)
    oracle = make_inexact_lmo(region, InexactSchedule("constant", 0.2))
    g = np.array([0.4, 0.5])
    exact, served = oracle.query(g)
    assert exact.index == 0
    assert np.allclose(served.densify(), [0.0, 1.0])


@st.composite
def enumerable_regions(draw):
    """A small simplex, l1 ball, box, l-inf ball, graph-cut base polytope or vertex hull."""
    n = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kind = draw(st.sampled_from(["simplex", "l1", "box", "linf", "graph_cut", "hull"]))
    if kind == "simplex":
        return Simplex(n)
    if kind == "l1":
        return L1Ball(float(rng.uniform(0.1, 3.0)), n)
    if kind == "box":
        lower = rng.uniform(-2.0, 1.0, n)
        return Box(lower, lower + rng.choice([0.0, 0.5, 2.0], n))
    if kind == "linf":
        return LinfBall(float(rng.uniform(0.1, 3.0)), n)
    if kind == "graph_cut":
        edges = [(u, v, float(rng.uniform(0.5, 2.0))) for u in range(n)
                 for v in range(u + 1, n) if rng.random() < 0.6]
        return BasePolytope(graph_cut_oracle(n, edges), n)
    return VertexHull(rng.standard_normal((draw(st.integers(1, 8)), n)))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 5), st.floats(0.1, 3.0), st.data())
def test_an_linf_ball_is_the_equal_box_bit_for_bit(n, eps, data):
    ball, box = LinfBall(eps, n), Box(-eps * np.ones(n), eps * np.ones(n))
    # zero gradient entries of either sign, which the LMO sends to -eps
    g = np.array(data.draw(st.lists(st.sampled_from([0.0, -0.0, 1.0, -2.5]) | st.floats(-1e3, 1e3),
                                    min_size=n, max_size=n)))
    s = ball.lmo(g).densify()
    assert s.tobytes() == box.lmo(g).densify().tobytes()
    assert s.tobytes() == np.where(g >= 0.0, -eps, eps).tobytes()
    # points at, inside and just past the faces, and directions along and off them
    x = eps * np.array(data.draw(st.lists(st.sampled_from([-1.0, -0.5, 0.0, 1.0, 1.0 + 1e-10,
                                                           -1.0 - 1e-8]),
                                          min_size=n, max_size=n)))
    tol = data.draw(st.sampled_from([0.0, 1e-12, 1e-9]))
    assert ball.contains(x, tol) == box.contains(x, tol) == bool(np.max(np.abs(x)) <= eps + tol)
    d = g if np.any(g) else np.ones(n)
    if ball.contains(x, 0.0):
        assert ball.max_step(x, d) == box.max_step(x, d)
    assert ball.vertices().tobytes() == box.vertices().tobytes()
    assert ball.diameter() == 2.0 * eps * np.sqrt(n)


@settings(max_examples=300, deadline=None)
@given(enumerable_regions(), st.data())
def test_lmo_value_never_exceeds_the_best_enumerated_vertex(region, data):
    # ties come from a gradient drawn on a coarse grid as often as from a fine one
    entries = st.integers(-3, 3).map(float) | st.floats(-1e3, 1e3)
    g = np.array(data.draw(st.lists(entries, min_size=region.n, max_size=region.n)))
    verts = region.vertices()
    val = float(np.vdot(g, region.lmo(g).densify()))
    scale = max(1.0, float(np.abs(g).sum() * np.abs(verts).max()))
    assert val <= float(np.min(verts @ g)) + 1e-12 * scale


_LMO_REGIONS = [Simplex(3), L1Ball(2.0, 3), L2Ball(1.0, 3), LinfBall(1.5, 3),
                Box(np.zeros(3), np.ones(3)), ProductRegion([Simplex(2), Simplex(1)]),
                BasePolytope(graph_cut_oracle(3, [(0, 1, 1.0), (1, 2, 2.0)]), 3),
                VertexHull(np.eye(3))]


@pytest.mark.parametrize("region", _LMO_REGIONS, ids=lambda r: type(r).__name__)
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_lmo_refuses_a_non_finite_gradient(region, bad):
    g = np.array([1.0, bad, -2.0])
    with pytest.raises(InputError, match="^gradient has non-finite entries$"):
        region.lmo(g)


@pytest.mark.parametrize("region", _LMO_REGIONS + [NuclearBall(1.0, 2, 3)],
                         ids=lambda r: type(r).__name__)
def test_lmo_refuses_a_gradient_of_the_wrong_shape(region):
    g = np.ones(7)
    with pytest.raises(InputError, match=r"^gradient shape \(7,\) does not match region"):
        region.lmo(g)


@pytest.mark.parametrize("region", _LMO_REGIONS, ids=lambda r: type(r).__name__)
def test_lmo_takes_a_finite_gradient_whose_squares_overflow(region):
    # 1e200 squared overflows, so the one-dot-product finiteness test cannot
    # decide; the entrywise test must, and it passes
    g = np.array([1e200, -1e200, 3e199])
    with np.errstate(over="ignore"):  # the L2 ball's norm overflows, as it always did
        assert np.isinf(g @ g)
        region.lmo(g)


@st.composite
def steps_from_feasible_points(draw):
    """(region, x, d): a region that defines ``max_step``, a feasible x and a nonzero d.

    x is a random point of the region, often on its boundary (zero weights,
    clipped coordinates); d is a Gaussian vector or a solver's direction
    (toward a vertex, away from one, or between two).
    """
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = draw(st.integers(1, 5))
    edge = draw(st.booleans())  # push x onto the boundary
    kind = draw(st.sampled_from(["simplex", "linf", "box"]))
    if kind == "simplex":
        region = Simplex(n)
        verts = np.array([region.lmo(rng.standard_normal(region.shape)).densify()
                          for _ in range(4)])
        w = rng.random(4) * (rng.random(4) < (0.5 if edge else 1.0))
        w[0] += 0.1
        x = (w / w.sum()) @ verts
    else:
        if kind == "linf":
            region = LinfBall(float(rng.uniform(0.1, 3.0)), n)
            lower, upper = -region.eps * np.ones(n), region.eps * np.ones(n)
        else:
            lower = rng.uniform(-2.0, 1.0, n)
            upper = lower + rng.choice([0.0, 0.5, 2.0], n)
            region = Box(lower, upper)
        u = rng.random(n)
        if edge:
            u[rng.random(n) < 0.5] = rng.integers(0, 2)
        x = lower + u * (upper - lower)
    how = draw(st.sampled_from(["gaussian", "toward", "away", "pairwise"]))
    s, v = (region.lmo(rng.standard_normal(region.shape)).densify() for _ in range(2))
    d = {"gaussian": rng.standard_normal(region.shape), "toward": s - x,
         "away": x - v, "pairwise": s - v}[how]
    assume(np.any(d))
    return region, x, d


@settings(max_examples=300, deadline=None)
@given(steps_from_feasible_points())
def test_max_step_is_the_exact_exit_along_d(case):
    region, x, d = case
    assert region.contains(x, 1e-9)
    alpha = region.max_step(x, d)
    assert 0.0 <= alpha < np.inf  # every region is bounded
    size = max(1.0, float(np.abs(x).max()), alpha * float(np.abs(d).max()))
    assert region.contains(x + alpha * d, 1e-9 * size)
    # a step past alpha by 1e-6 of itself (by 1e-6 from alpha = 0) leaves the
    # region by more than a thousandth of the overshoot of d's smallest entry,
    # where the whole overshoot clears the rounding of the point
    beyond = alpha * (1.0 + 1e-6) if alpha > 0.0 else 1e-6
    assume((beyond - alpha) * float(np.abs(d).max()) > 1e-9 * size)
    smallest = float(np.abs(d[d != 0.0]).min())
    assert not region.contains(x + beyond * d, 1e-3 * (beyond - alpha) * smallest)


@pytest.mark.parametrize("make", [
    lambda: Simplex(0), lambda: L1Ball(1.0, 0), lambda: L2Ball(1.0, 0), lambda: Box([], []),
    lambda: LinfBall(1.0, 0), lambda: LinfBall(1.0, -1), lambda: NuclearBall(1.0, 0, 3),
    lambda: NuclearBall(1.0, 3, 0), lambda: BasePolytope(lambda subset: 0.0, 0),
    lambda: VertexHull(np.zeros((3, 0)))],
    ids=["simplex", "l1", "l2", "box", "linf", "linf-negative", "nuclear-rows", "nuclear-cols",
         "base", "hull"])
def test_no_region_is_zero_dimensional(make):
    # only the simplex refused a dimension below 1; a negative l-inf ball size raised
    # numpy's ValueError
    with pytest.raises(InputError, match=r"must be in \[1, inf\], got -?[01]$"):
        make()
