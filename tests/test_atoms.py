import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fwkit.atoms import (WEIGHT_PRUNE, ActiveSet, DenseAtom, RankOneAtom, SignedUnitAtom,
                         StepDescriptor, apply_step, atoms_equal, away_step_cap,
                         reconstruct_point, select_away_vertex)
from fwkit.errors import ContractViolation, InputError
from fwkit.objectives import graph_cut_oracle
from fwkit.regions import BasePolytope


def unit(i, n, scale=1.0, sign=+1):
    return SignedUnitAtom(i, sign, scale, n)


def test_densify_norm_equals_scale():
    a = unit(2, 5, scale=3.0, sign=-1)
    assert np.linalg.norm(a.densify()) == pytest.approx(3.0, abs=1e-15)
    u = np.array([0.6, 0.8])
    v = np.array([1.0, 0.0, 0.0])
    r = RankOneAtom(u, v, 2.5)
    assert np.linalg.norm(r.densify()) == pytest.approx(2.5, abs=1e-12)


def test_rank_one_rejects_nonunit_factors():
    with pytest.raises(InputError):
        RankOneAtom(np.array([1.0, 1.0]), np.array([1.0, 0.0]), 1.0)


@pytest.mark.parametrize("make", [lambda scale: SignedUnitAtom(0, 1, scale, 3),
                                  lambda scale: RankOneAtom(np.array([0.6, 0.8]),
                                                            np.array([1.0, 0.0]), scale)],
                         ids=["SignedUnitAtom", "RankOneAtom"])
@pytest.mark.parametrize("scale", [np.inf, np.nan, 0.0, -1.0])
def test_atom_refuses_a_scale_not_positive_and_finite(make, scale):
    with pytest.raises(InputError, match="^scale must be positive and finite$"):
        make(scale)
    assert atoms_equal(make(1e300), make(1e300))


def test_atom_equality_structural():
    assert atoms_equal(unit(1, 4), unit(1, 4))
    assert not atoms_equal(unit(1, 4), unit(2, 4))
    assert not atoms_equal(unit(1, 4), unit(1, 4, sign=-1))
    a = DenseAtom(np.array([1.0, 2.0]))
    b = DenseAtom(np.array([1.0, 2.0 + 5e-13]))
    assert atoms_equal(a, b)
    # rank-one sign flip of both factors is the same matrix
    u = np.array([0.6, 0.8])
    v = np.array([0.0, 1.0])
    assert atoms_equal(RankOneAtom(u, v, 1.0), RankOneAtom(-u, -v, 1.0))


def test_reconstruct_convex_combination():
    active = ActiveSet([unit(0, 3), unit(1, 3)], [0.5, 0.5])
    assert np.allclose(reconstruct_point(active), [0.5, 0.5, 0.0], atol=1e-15)


def test_reconstruct_single_atom_identity():
    a = unit(2, 4)
    active = ActiveSet.from_atom(a)
    assert np.array_equal(reconstruct_point(active), a.densify())


def test_reconstruct_rank_one_mix():
    # oracle: direct matrix arithmetic
    e1 = np.array([1.0, 0.0])
    e2 = np.array([0.0, 1.0])
    a1 = RankOneAtom(e1, e1, 2.0)
    a2 = RankOneAtom(e2, e2, 2.0)
    expected = 0.25 * 2.0 * np.outer(e1, e1) + 0.75 * 2.0 * np.outer(e2, e2)
    assert np.allclose(expected, np.diag([0.5, 1.5]))
    active = ActiveSet([a1, a2], [0.25, 0.75])
    assert np.allclose(reconstruct_point(active), np.diag([0.5, 1.5]), atol=1e-15)


def test_active_set_invariants_enforced():
    with pytest.raises(ContractViolation):
        ActiveSet([unit(0, 2), unit(1, 2)], [0.6, 0.6])
    with pytest.raises(ContractViolation):
        ActiveSet([unit(0, 2), unit(0, 2)], [0.5, 0.5])
    with pytest.raises(InputError):
        ActiveSet([], [])
    with pytest.raises(InputError):
        ActiveSet([unit(0, 2), unit(0, 3)], [0.5, 0.5])


def test_select_away_vertex_argmax():
    active = ActiveSet([unit(0, 3), unit(1, 3)], [0.5, 0.5])
    atom, w, _ = select_away_vertex(active, np.array([1.0, 2.0, 3.0]))
    assert atom.index == 1 and w == 0.5


def test_select_away_vertex_singleton():
    active = ActiveSet.from_atom(unit(0, 3))
    atom, w, _ = select_away_vertex(active, np.array([-5.0, 7.0, 1.0]))
    assert atom.index == 0 and w == 1.0


def test_select_away_vertex_tie_break_lowest_insertion():
    active = ActiveSet([unit(0, 3), unit(2, 3)], [0.5, 0.5])
    atom, w, _ = select_away_vertex(active, np.array([2.0, 0.0, 2.0]))
    assert atom.index == 0 and w == 0.5


def test_apply_fw_step():
    active = ActiveSet.from_atom(unit(0, 3))
    apply_step(active, StepDescriptor("FW", toward=unit(1, 3)), 0.5)
    assert sorted(a.index for a in active.atoms) == [0, 1]
    assert np.allclose(sorted(active.weights), [0.5, 0.5])


def test_apply_pairwise_full_transfer_drops_away():
    active = ActiveSet([unit(0, 3), unit(1, 3)], [0.5, 0.5])
    apply_step(active, StepDescriptor("Pairwise", toward=unit(2, 3), away=unit(0, 3)), 0.5)
    assert sorted(a.index for a in active.atoms) == [1, 2]
    assert np.allclose(sorted(active.weights), [0.5, 0.5])


def test_apply_away_drop_step():
    # oracle: (1 + a) * 0.25 - a = 0 at a = 1/3, so the away atom is dropped
    a = 0.25 / 0.75
    assert (1 + a) * 0.25 - a == pytest.approx(0.0, abs=1e-15)
    active = ActiveSet([unit(0, 3), unit(1, 3)], [0.75, 0.25])
    assert away_step_cap(0.25) == pytest.approx(a)
    apply_step(active, StepDescriptor("Away", away=unit(1, 3)), a)
    assert [at.index for at in active.atoms] == [0]
    assert active.weights[0] == pytest.approx(1.0, abs=1e-12)


def test_apply_step_rejects_excess_alpha():
    active = ActiveSet([unit(0, 3), unit(1, 3)], [0.5, 0.5])
    with pytest.raises(ContractViolation):
        apply_step(active, StepDescriptor("Pairwise", toward=unit(2, 3), away=unit(0, 3)), 0.7)
    with pytest.raises(ContractViolation):
        apply_step(active, StepDescriptor("FW", toward=unit(2, 3)), 1.2)
    with pytest.raises(ContractViolation):
        apply_step(active, StepDescriptor("Away", away=unit(0, 3)), 1.5)


def test_random_step_sequences_keep_invariants_and_sparsity():
    # property: after k steps from a singleton, weights stay a distribution
    # and the set holds at most k+1 atoms; reconstruction tracks the direct
    # point update within 1e-9
    rng = np.random.default_rng(0)
    n = 8
    for trial in range(20):
        active = ActiveSet.from_atom(unit(0, n))
        x = reconstruct_point(active)
        for k in range(30):
            kind = rng.choice(["FW", "Pairwise", "Away"])
            toward = unit(int(rng.integers(n)), n)
            g = rng.standard_normal(n)
            away_atom, w_away, _ = select_away_vertex(active, g)
            if kind == "FW":
                alpha = float(rng.uniform(0.05, 1.0))
                step = StepDescriptor("FW", toward=toward)
                d = toward.densify() - x
            elif kind == "Pairwise":
                if atoms_equal(toward, away_atom):
                    continue
                alpha = float(rng.uniform(0.0, 1.0)) * w_away
                if alpha <= 0:
                    continue
                step = StepDescriptor("Pairwise", toward=toward, away=away_atom)
                d = toward.densify() - away_atom.densify()
            else:
                if w_away >= 1.0:
                    continue
                alpha = float(rng.uniform(0.0, 1.0)) * away_step_cap(w_away)
                if alpha <= 0:
                    continue
                step = StepDescriptor("Away", away=away_atom)
                d = x - away_atom.densify()
            apply_step(active, step, alpha)
            x_direct = x + alpha * d
            x = reconstruct_point(active)
            assert np.all(active.weights >= 0.0)
            assert abs(active.weights.sum() - 1.0) <= 1e-10
            assert len(active) <= k + 2
            assert np.linalg.norm(x - x_direct) <= 1e-9


def test_weight_pruning_threshold():
    active = ActiveSet([unit(0, 3), unit(1, 3)], [1.0 - 1e-13, 1e-13])
    apply_step(active, StepDescriptor("FW", toward=unit(0, 3)), 0.5)
    assert len(active) == 1  # the dead atom is pruned


@settings(max_examples=100, deadline=None)
@given(st.lists(st.one_of(st.floats(1e-13, 1.0), st.sampled_from([0.0, 1e-12, np.nan])),
                min_size=1, max_size=6))
def test_prune_and_renormalize_matches_the_reference_bit_for_bit(raw):
    # a set with no weight at or below WEIGHT_PRUNE skips the pruning pass;
    # a NaN weight takes the full path, which drops it
    w = np.array(raw)
    keep = w > WEIGHT_PRUNE
    if not keep.any():
        return
    atoms = [unit(i, len(raw)) for i in range(len(raw))]
    active = ActiveSet(atoms, np.full(len(raw), 1.0 / len(raw)))
    active.weights = w.copy()  # the atoms' arrays stay valid (see ActiveSet)
    active._prune_and_renormalize()
    want = w[keep] / w[keep].sum()
    assert active.weights.tobytes() == want.tobytes()
    assert active.atoms == [a for a, k in zip(atoms, keep) if k]
    assert active._idx.tolist() == [a.index for a in active.atoms]


# ---------------------------------------------------------------------------
# Properties of the active set under random step sequences.  The per-atom
# loops below are the reference the array-backed fast paths must reproduce
# bit for bit.

def _away_reference(active, g):
    best_pos = None
    best_val = -np.inf
    for pos, (a, w) in enumerate(zip(active.atoms, active.weights)):
        if w <= 0.0:
            continue
        if a.tag == "signed_unit":
            val = g[a.index] * a.sign * a.scale
        else:
            val = float(np.vdot(g, a.densify()))
        if val > best_val:
            best_val = val
            best_pos = pos
    return active.atoms[best_pos], float(active.weights[best_pos]), best_pos


def _point_reference(active):
    x = np.zeros(active.atoms[0].shape)
    for a, w in zip(active.atoms, active.weights):
        if a.tag == "signed_unit":
            x[a.index] += w * a.sign * a.scale
        else:
            x += w * a.densify()
    return x


# few distinct values, so that <g, atom> ties exactly (-0.0 against 0.0 too);
# dense atoms draw their entries from a like set, so that every sum in
# rows @ g is exact and the stacked product equals the loop's np.vdot
_G_VALUES = st.sampled_from([-2.0, -1.0, -0.0, 0.0, 0.5, 1.0, 2.0])
_ENTRY_VALUES = st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0, 2.0])
_FRACTIONS = st.one_of(st.just(1.0), st.floats(1e-3, 1.0))


def _check_rows(active):
    if active._rows is None:
        return
    assert all(a.tag == "dense" and a.vector.ndim == 1 for a in active.atoms)
    stacked = np.array([a.vector for a in active.atoms])
    assert active._rows.shape == stacked.shape
    assert active._rows.tobytes() == stacked.tobytes()


def _check_invariants(active, g, all_dense=False):
    assert (active.weights >= 0.0).all()
    assert abs(active.weights.sum() - 1.0) <= 1e-10
    assert len(active) == active.weights.size >= 1
    for i, a in enumerate(active.atoms):
        for b in active.atoms[i + 1:]:
            assert not atoms_equal(a, b)
    if active._idx is None:
        assert active._coef is None
    else:
        assert all(a.tag == "signed_unit" for a in active.atoms)
        assert active._idx.dtype == np.intp
        assert active._idx.tolist() == [a.index for a in active.atoms]
        assert active._coef.tolist() == [a.sign * a.scale for a in active.atoms]
    if any(a.tag != "signed_unit" for a in active.atoms):
        assert active._idx is None
    _check_rows(active)
    if all_dense:
        assert active._rows is not None
    copied = active.copy()
    _check_rows(copied)
    if active._rows is not None:
        assert copied._rows is not None and copied._rows is not active._rows
    atom, w, pos = select_away_vertex(active, g)
    ref_atom, ref_w, ref_pos = _away_reference(active, g)
    assert (atom, w, pos) == (ref_atom, ref_w, ref_pos)
    assert reconstruct_point(active).tobytes() == _point_reference(active).tobytes()


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 4), st.sampled_from(["unit", "mixed", "dense", "dense"]), st.data())
def test_step_sequences_keep_arrays_in_step_with_atoms(n, mode, data):
    all_dense = mode == "dense"

    def draw_atom():
        if all_dense and data.draw(st.booleans()):
            return DenseAtom(np.array(data.draw(st.lists(_ENTRY_VALUES, min_size=n,
                                                         max_size=n))))
        a = unit(data.draw(st.integers(0, n - 1)), n,
                 scale=data.draw(st.sampled_from([1.0, 2.0])),
                 sign=data.draw(st.sampled_from([-1, 1])))
        if all_dense or (mode == "mixed" and data.draw(st.integers(0, 9)) == 0):
            return DenseAtom(a.densify())
        return a

    def draw_g():
        return np.array(data.draw(st.lists(_G_VALUES, min_size=n, max_size=n)))

    active = ActiveSet.from_atom(draw_atom())
    _check_invariants(active, draw_g(), all_dense)
    for _ in range(data.draw(st.integers(1, 25))):
        kind = data.draw(st.sampled_from(["FW", "Away", "Pairwise", "EFW"]))
        pos = data.draw(st.integers(0, len(active) - 1))
        atom, w = active.atoms[pos], float(active.weights[pos])
        if kind == "FW":
            apply_step(active, StepDescriptor("FW", toward=draw_atom()),
                       data.draw(_FRACTIONS))
        elif kind == "Away" and w < 0.9:  # caps near w/(1-w) = inf amplify rounding
            apply_step(active, StepDescriptor("Away", away=atom),
                       data.draw(_FRACTIONS) * away_step_cap(w))
        elif kind == "Pairwise":
            toward = draw_atom()
            if atoms_equal(toward, atom):
                continue
            apply_step(active, StepDescriptor("Pairwise", toward=toward, away=atom),
                       data.draw(_FRACTIONS) * w)
        elif kind == "EFW":
            # as EFW's correction: append the new atom at weight 0, reassign all the
            # weights (some zero), then prune
            s_atom = draw_atom()
            if active.find(s_atom) is None:
                active._append(s_atom, 0.0)
                _check_invariants(active, draw_g(), all_dense)
            raw = np.array(data.draw(st.lists(st.sampled_from([0.0, 0.25, 1.0, 3.0]),
                                              min_size=len(active), max_size=len(active))))
            if not raw.any():
                raw[-1] = 1.0
            active.weights = raw / raw.sum()
            _check_invariants(active, draw_g(), all_dense)
            active._prune_and_renormalize()
        _check_invariants(active, draw_g(), all_dense)


def test_signed_unit_arrays_and_mixed_sets():
    active = ActiveSet([unit(3, 5, 2.0, -1), unit(0, 5)], [0.25, 0.75])
    assert active._idx.tolist() == [3, 0] and active._coef.tolist() == [-2.0, 1.0]
    assert active.copy()._idx is not active._idx
    apply_step(active, StepDescriptor("FW", toward=DenseAtom(np.ones(5) / 5)), 0.5)
    assert active._idx is None and active._coef is None
    g = np.array([1.0, 0.0, 0.0, -1.0, 3.0])
    assert select_away_vertex(active, g) == _away_reference(active, g)
    assert np.array_equal(reconstruct_point(active), _point_reference(active))


@pytest.mark.filterwarnings("ignore:invalid value encountered in matmul")
def test_dense_rows_for_vectors_only():
    rows = ActiveSet([DenseAtom([1.0, 0.0]), DenseAtom([0.5, 0.5]), DenseAtom([0.0, 1.0])],
                     [0.25, 0.25, 0.5])
    assert rows._rows.tolist() == [[1.0, 0.0], [0.5, 0.5], [0.0, 1.0]]
    assert rows.copy()._rows is not rows._rows
    # inf * 0.0 is NaN, which sends the choice to the loop; it skips NaN values
    for g in ([np.inf, -1.0], [2.0, np.inf]):
        g = np.array(g)
        assert select_away_vertex(rows, g) == _away_reference(rows, g)
    for g in ([np.nan, 1.0], [-1.0, -np.inf]):
        with pytest.raises(ContractViolation):
            select_away_vertex(rows, np.array(g))
    matrices = ActiveSet([DenseAtom(np.eye(2)), DenseAtom(np.ones((2, 2)))], [0.5, 0.5])
    assert matrices._rows is None
    g = np.array([[1.0, 0.0], [0.0, 3.0]])
    assert select_away_vertex(matrices, g) == _away_reference(matrices, g)
    apply_step(rows, StepDescriptor("FW", toward=unit(1, 2)), 0.5)
    assert rows._rows is None
    g = np.array([1.0, 2.0])
    assert select_away_vertex(rows, g) == _away_reference(rows, g)


def test_dense_atom_key_is_computed_once_per_atom(monkeypatch):
    # a step toward a new greedy vertex of a graph-cut base polytope looks it
    # up, appends it and prunes: one key computation for the atom, none for
    # the atoms already keyed
    calls = []
    make_key = DenseAtom._make_key

    def counting(atom):
        calls.append(atom)
        return make_key(atom)

    monkeypatch.setattr(DenseAtom, "_make_key", counting)
    rng = np.random.default_rng(2)
    cut = BasePolytope(graph_cut_oracle(8, [(i, (i + 1) % 8, 1.0 + i) for i in range(8)]), 8)
    atoms = [cut.lmo(rng.standard_normal(8)) for _ in range(6)]  # greedy vertices
    atoms = [a for i, a in enumerate(atoms)
             if not any(atoms_equal(a, b) for b in atoms[:i])]
    assert len(atoms) >= 3
    active = ActiveSet.from_atom(atoms[0])
    for atom in atoms[1:]:
        calls.clear()
        apply_step(active, StepDescriptor("FW", toward=atom), 0.3)
        assert calls == [atom]
        assert active.find(atom) == len(active) - 1
        assert calls == [atom]
    calls.clear()
    apply_step(active, StepDescriptor("Pairwise", toward=atoms[1], away=atoms[0]), 0.01)
    assert calls == []


def test_select_away_vertex_nonfinite_gradient_matches_loop():
    active = ActiveSet([unit(0, 3), unit(1, 3), unit(2, 3)], [0.2, 0.3, 0.5])
    # NaN values are never a maximum; the loop skips them
    g = np.array([np.nan, 1.0, 2.0])
    assert select_away_vertex(active, g) == _away_reference(active, g)
    g = np.array([1.0, np.nan, -np.inf])
    assert select_away_vertex(active, g) == _away_reference(active, g)
    with pytest.raises(ContractViolation):
        select_away_vertex(active, np.full(3, -np.inf))
    with pytest.raises(ContractViolation):
        select_away_vertex(active, np.full(3, np.nan))


def test_select_away_vertex_skips_zero_weights():
    active = ActiveSet([unit(0, 3), unit(1, 3)], [1.0, 0.0])
    atom, w, pos = select_away_vertex(active, np.array([0.0, 5.0, 0.0]))
    assert (atom.index, w, pos) == (0, 1.0, 0)
    active.weights = np.zeros(2)
    with pytest.raises(ContractViolation):
        select_away_vertex(active, np.array([0.0, 5.0, 0.0]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_dense_atom_refuses_non_finite_entries(bad):
    with pytest.raises(InputError, match="^dense atom has non-finite entries$"):
        DenseAtom([1.0, bad])
    with pytest.raises(InputError, match="^dense atom has non-finite entries$"):
        DenseAtom(np.array([[1.0, 2.0], [bad, 0.0]]))


def test_dense_atom_takes_finite_entries_whose_squares_overflow():
    atom = DenseAtom([1e200, -1e200, 1e308])
    assert atom.densify().tolist() == [1e200, -1e200, 1e308]


def test_trusted_signed_unit_atom_equals_the_checked_one():
    for args in [(2, 1, 1.0, 5), (0, -1, 0.7, 3), (4, 1, 3.0, 5)]:
        checked, trusted = SignedUnitAtom(*args), SignedUnitAtom.trusted(*args)
        assert [getattr(trusted, f) for f in ("index", "sign", "scale", "dim", "shape")] \
            == [getattr(checked, f) for f in ("index", "sign", "scale", "dim", "shape")]
        assert trusted._key() == checked._key()
        assert atoms_equal(trusted, checked)
    # a whole-number scale keys as its own rounding
    assert SignedUnitAtom(1, 1, 2.0, 3)._key() == ("u", 3, 1, 1, round(2.0, 9))
    assert SignedUnitAtom(1, 1, 0.1 + 0.2, 3)._key() == ("u", 3, 1, 1, round(0.1 + 0.2, 9))


def test_atoms_take_no_attributes_beyond_their_fields():
    for atom in (DenseAtom([1.0, 0.0]), SignedUnitAtom(0, 1, 1.0, 2),
                 RankOneAtom([1.0, 0.0], [0.0, 1.0], 2.0)):
        with pytest.raises(AttributeError):
            atom.extra = 1


def test_appends_grow_views_of_doubling_buffers():
    # k appends keep the arrays as length-k views and reallocate O(log k) times
    active = ActiveSet.from_atom(unit(0, 40))
    buffers = set()
    for i in range(1, 40):
        active._append(unit(i, 40), 0.0)
        buffers.add(id(active._bufs["weights"]))
        assert active.weights.base is active._bufs["weights"]
        assert active._idx.base is active._bufs["_idx"]
        assert len(active.weights) == len(active._idx) == len(active._coef) == i + 1
    assert len(buffers) <= 5
    assert active._idx.tolist() == list(range(40))
    assert active._coef.tolist() == [1.0] * 40
    rows = ActiveSet.from_atom(DenseAtom([1.0, 0.0]))
    rows._append(DenseAtom([0.0, 1.0]), 0.0)
    rows._append(DenseAtom([0.5, 0.5]), 0.0)
    assert rows._rows.tolist() == [[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]]
    assert rows._rows.base is rows._bufs["_rows"]


def test_assigned_weights_are_copied_into_a_new_buffer_on_append():
    # EFW's correction assigns the weights; the caller's array is never written
    active = ActiveSet([unit(0, 4), unit(1, 4)], np.array([0.5, 0.5]))
    active._append(unit(2, 4), 0.0)
    lam = np.array([0.2, 0.3, 0.5, 9.0, 9.0])[:3]
    active.weights = lam
    active._append(unit(3, 4), 0.0)
    assert lam.base.tolist() == [0.2, 0.3, 0.5, 9.0, 9.0]
    assert active.weights.tolist() == [0.2, 0.3, 0.5, 0.0]
    assert active.weights.base is active._bufs["weights"]
    # a prune leaves fresh arrays, which the next append copies in turn
    active.weights[:] = [0.5, 0.5, 0.0, 0.0]
    active._prune_and_renormalize()
    assert active.weights.tolist() == [0.5, 0.5] and active._idx.tolist() == [0, 1]
    active._append(unit(3, 4), 0.0)
    assert active._idx.tolist() == [0, 1, 3]
    assert active.find(unit(3, 4)) == 2
