"""The 1-SVD behind the nuclear-ball LMO: exact, and refused when not."""

import numpy as np
import pytest

import fwkit as fw
from fwkit import regions
from fwkit.errors import InputError, NumericalError
from fwkit.regions import top_singular_triple


def _residuals(a, u, sigma, v):
    return (np.linalg.norm(a @ v - sigma * u) / sigma, np.linalg.norm(a.T @ u - sigma * v) / sigma)


def _dense_triple(a):
    u, s, vt = np.linalg.svd(a)
    return u[:, 0], float(s[0]), vt[0]


def test_singular_triple_matches_dense_svd():
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
        assert abs(sigma - s_dense) <= 1e-13 * s_dense
        assert max(_residuals(a, u, sigma, v)) <= 1e-13
        assert np.linalg.norm(u) == pytest.approx(1.0, abs=1e-14)
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-14)


def test_singular_triple_of_a_diagonal():
    u, sigma, v = top_singular_triple(np.diag([3.0, 1.0, 0.5]))
    assert sigma == pytest.approx(3.0, rel=1e-15)
    assert abs(u[0]) == pytest.approx(1.0) and abs(v[0]) == pytest.approx(1.0)


def test_singular_triple_of_zero_is_the_first_unit_pair():
    u, sigma, v = top_singular_triple(np.zeros((2, 3)))
    assert sigma == 0.0 and list(u) == [1.0, 0.0] and list(v) == [1.0, 0.0, 0.0]


@pytest.mark.parametrize("scale", [1e-200, 1e200])
def test_singular_triple_takes_entries_whose_squares_leave_the_float_range(scale):
    a = np.random.default_rng(4).standard_normal((5, 7))
    u, sigma, v = top_singular_triple(scale * a)
    assert sigma == pytest.approx(scale * np.linalg.svd(a, compute_uv=False)[0], rel=1e-14)
    assert max(_residuals(a, u, sigma / scale, v)) <= 1e-13


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_singular_triple_refuses_a_non_finite_entry(bad):
    a = np.ones((3, 4))
    a[1, 2] = bad
    with pytest.raises(InputError, match="non-finite"):
        top_singular_triple(a)


def test_an_inexact_eigenvector_is_refused_with_its_residual(monkeypatch):
    # sigma_1 and sigma_2 nearly equal: a vector 1e-3 off the top eigenvector
    # has a Rayleigh quotient close to sigma_1^2 but a residual far past the bound
    a = np.diag(np.concatenate([[1.0, 1.0 - 1e-6], np.linspace(0.9, 0.1, 58)]))
    w = np.zeros(60)
    w[0], w[2] = 1.0, 1e-3

    def eigh_off_by_a_little(g, subset_by_index):
        return np.array([1.0]), (w / np.linalg.norm(w))[:, None]

    monkeypatch.setattr(regions, "eigh", eigh_off_by_a_little)
    with pytest.raises(NumericalError, match="residual") as err:
        top_singular_triple(a)
    assert err.value.residual == pytest.approx(1e-3 * (1.0 - 0.9 ** 2), rel=1e-2)


def test_a_triple_past_the_residual_bound_is_refused(monkeypatch):
    monkeypatch.setattr(regions, "_RESIDUAL_BOUND", 0.0)
    with pytest.raises(NumericalError) as err:
        top_singular_triple(np.random.default_rng(5).standard_normal((6, 4)))
    assert err.value.residual > 0.0


def test_nuclear_lmo_is_exact_along_a_matcomp_run(monkeypatch):
    # sigma_2 / sigma_1 reaches 0.9994 on this run; a 1-SVD that stops when its
    # Rayleigh quotient stalls ends it at f = 1455.3679 and gap 0.131 instead
    def run(record):
        inst = fw.build_instance("matcomp", m=200, n=200, rank=5, density=0.2, delta=5.0, seed=3)
        lmo = inst.region.lmo
        if record is not None:
            inst.region.lmo = lambda g: record.append((np.array(g), lmo(g))) or record[-1][1]
        config = fw.SolverConfig(variant="FW", stepsize=fw.ExactLine(), max_iter=60,
                                 gap_tol=1e-12, seed=0)
        return fw.solve(inst, config).records[-1]

    calls = []
    last = run(calls)
    assert len(calls) == 62 and last.k == 60  # the start, then one per iteration k = 0..60
    for g, atom in calls:
        sigma = np.linalg.svd(g, compute_uv=False)[0]
        assert float(np.vdot(g, atom.densify())) == pytest.approx(-5.0 * sigma, rel=1e-12)
    monkeypatch.setattr(regions, "top_singular_triple", _dense_triple)
    reference = run(None)
    assert last.f == pytest.approx(reference.f, rel=1e-9)
    assert last.gap == pytest.approx(reference.gap, rel=1e-9)
    assert last.f == pytest.approx(1455.3573, abs=1e-4) and last.gap == pytest.approx(0.032, abs=1e-3)
