"""Atoms (extreme points) and convex active sets.

An atom is an extreme point handed back by a linear minimization oracle.
Three representations are supported: a dense vector/matrix, a signed and
scaled coordinate vector, and a scaled rank-one matrix u v^T.  An
``ActiveSet`` keeps a list of pairwise-distinct atoms together with convex
weights and supports the three step updates (toward, away, pairwise) used
by the solvers, dropping atoms whose weight falls below ``WEIGHT_PRUNE``.

While every atom of a set is a ``SignedUnitAtom`` (the atoms of the simplex
and the L1 ball), the set also keeps their coordinate indices and signed
scales as two arrays.  The away vertex and the point the set represents
are then one vectorised pass over those arrays, with the same values, tie
rule and accumulation order as the per-atom loop.  While every atom is a
dense vector (the greedy vertices of a base polytope, the vertices of a
hull), the set keeps them stacked as the rows of one array, and the away
vertex is one matrix-vector product; its values round apart from the
loop's per-atom dot products, by the last bits of a sum.  Matrix and
rank-one sets keep the per-atom loop.  The same tables give the pairings
<v_i, w_j> that the fully corrective step solves on (``pairing_matrix``).
"""

import numpy as np

from .errors import ContractViolation, InputError, all_finite

ATOM_TOL = 1e-12      # structural equality tolerance between atoms
WEIGHT_PRUNE = 1e-12  # weights below this are dropped and the set renormalized
_BUCKET_DECIMALS = 9  # rounding used for the dedup hash buckets


class _Keyed:
    """Memoises an atom's dedup key: atoms are not changed after construction."""

    __slots__ = ("_k",)

    def _key(self):
        k = self._k
        if k is None:
            k = self._k = self._make_key()
        return k


class DenseAtom(_Keyed):
    """Extreme point stored as an explicit vector or matrix."""

    __slots__ = ("vector", "shape")
    tag = "dense"

    def __init__(self, vector):
        v = np.asarray(vector, dtype=float)
        if not all_finite(v):
            raise InputError("dense atom has non-finite entries")
        self.vector = v
        self.shape = v.shape
        self._k = None

    def densify(self):
        return self.vector

    def _make_key(self):
        return ("d",) + self.shape + (self.vector.round(_BUCKET_DECIMALS).tobytes(),)

    def __repr__(self):
        return "DenseAtom(%s)" % (self.vector,)


class SignedUnitAtom(_Keyed):
    """Extreme point +/- scale * e_index of a scaled cross-polytope or simplex."""

    __slots__ = ("index", "sign", "scale", "dim", "shape")
    tag = "signed_unit"

    def __init__(self, index, sign, scale, dim):
        if sign not in (-1, 1):
            raise InputError("sign must be -1 or +1")
        if not 0 < scale < np.inf:
            raise InputError("scale must be positive and finite")
        if not 0 <= index < dim:
            raise InputError("index out of range")
        self._set(int(index), int(sign), float(scale), int(dim))

    def _set(self, index, sign, scale, dim):
        self.index = index
        self.sign = sign
        self.scale = scale
        self.dim = dim
        self.shape = (dim,)
        self._k = None

    @classmethod
    def trusted(cls, index, sign, scale, dim):
        """The atom from a region's own int index, int sign, float scale and int dim, unchecked."""
        atom = cls.__new__(cls)
        atom._set(index, sign, scale, dim)
        return atom

    def densify(self):
        v = np.zeros(self.dim)
        v[self.index] = self.sign * self.scale
        return v

    def _make_key(self):
        scale = self.scale  # a whole number (1.0 on the simplex) is its own rounding
        return ("u", self.dim, self.index, self.sign,
                scale if scale.is_integer() else round(scale, _BUCKET_DECIMALS))

    def __repr__(self):
        return "SignedUnitAtom(i=%d, sign=%+d, scale=%g)" % (self.index, self.sign, self.scale)


class RankOneAtom(_Keyed):
    """Extreme point scale * u v^T of the nuclear-norm ball (|u| = |v| = 1)."""

    __slots__ = ("u", "v", "scale", "shape")
    tag = "rank_one"

    def __init__(self, u, v, scale):
        u = np.asarray(u, dtype=float)
        v = np.asarray(v, dtype=float)
        if not 0 < scale < np.inf:
            raise InputError("scale must be positive and finite")
        if abs(np.linalg.norm(u) - 1.0) > 1e-12 or abs(np.linalg.norm(v) - 1.0) > 1e-12:
            raise InputError("rank-one factors must have unit norm")
        self.u = u
        self.v = v
        self.scale = float(scale)
        self.shape = (u.size, v.size)
        self._k = None

    def densify(self):
        return self.scale * np.outer(self.u, self.v)

    def _make_key(self):
        return ("r", self.shape,
                self.u.round(_BUCKET_DECIMALS).tobytes(),
                self.v.round(_BUCKET_DECIMALS).tobytes(),
                round(self.scale, _BUCKET_DECIMALS))

    def __repr__(self):
        return "RankOneAtom(scale=%g, %dx%d)" % (self.scale, self.u.size, self.v.size)


def atoms_equal(a, b):
    """Structural equality: same tag and fields within ``ATOM_TOL``."""
    if a.tag != b.tag or a.shape != b.shape:
        return False
    if a.tag == "dense":
        return bool(np.max(np.abs(a.vector - b.vector)) <= ATOM_TOL)
    if a.tag == "signed_unit":
        return a.index == b.index and a.sign == b.sign and abs(a.scale - b.scale) <= ATOM_TOL
    # rank-one: u v^T == u' v'^T also when both factors are negated
    if abs(a.scale - b.scale) > ATOM_TOL:
        return False
    du = np.max(np.abs(a.u - b.u))
    dv = np.max(np.abs(a.v - b.v))
    if du <= ATOM_TOL and dv <= ATOM_TOL:
        return True
    du = np.max(np.abs(a.u + b.u))
    dv = np.max(np.abs(a.v + b.v))
    return du <= ATOM_TOL and dv <= ATOM_TOL


class StepDescriptor:
    """A solver step: its kind plus the atoms it moves toward / away from.

    Kinds: FW carries ``toward`` only, Away carries ``away`` only, Pairwise
    carries both.  ``at``, when given, is the pair (position of ``toward``,
    or None when the set lacks it; position of ``away``) in the active set
    the step is for, as ``ActiveSet.find`` and ``select_away_vertex`` gave
    them; ``apply_step`` then takes it instead of looking the atoms up.
    """

    __slots__ = ("kind", "toward", "away", "at")

    def __init__(self, kind, toward=None, away=None, at=None):
        if kind == "FW" and (toward is None or away is not None):
            raise InputError("FW steps carry a toward atom only")
        if kind == "Away" and (away is None or toward is not None):
            raise InputError("away steps carry an away atom only")
        if kind == "Pairwise" and (toward is None or away is None):
            raise InputError("pairwise steps carry both atoms")
        self.kind = kind
        self.toward = toward
        self.away = away
        self.at = at

    def __repr__(self):
        return "StepDescriptor(%s)" % self.kind


class ActiveSet:
    """Convex combination of atoms: the iterate's bookkeeping.

    Invariants: weights nonnegative and summing to one (within 1e-10), no
    two atoms structurally equal, at least one atom.  The set is a value
    type owned by a single solver; step application mutates it in place.

    While every atom is signed-unit, ``_idx`` (intp) and ``_coef``
    (sign * scale) hold the atoms' coordinates and signed scales, element
    by element with ``atoms``; otherwise both are None.  While every atom
    is a 1-D ``DenseAtom``, ``_rows`` holds their vectors as the rows of a
    k x n array; otherwise it is None.  Assigning ``weights`` alone leaves
    these arrays valid, since they depend on the atoms only.

    An appended atom extends ``weights``, ``_idx``, ``_coef`` and ``_rows``
    in place: each is a length-k view of a buffer of the set's own (in
    ``_bufs``) that doubles when full, so k appends copy O(k) entries in all.
    An array assigned from outside is copied into a new buffer when an atom
    is next appended.
    """

    def __init__(self, atoms, weights):
        self.atoms = list(atoms)
        self.weights = np.asarray(weights, dtype=float).copy()
        if len(self.atoms) == 0:
            raise InputError("active set needs at least one atom")
        if len(self.atoms) != self.weights.size:
            raise InputError("atoms and weights length mismatch")
        shape = self.atoms[0].shape
        for a in self.atoms[1:]:
            if a.shape != shape:
                raise InputError("atoms have mismatched dimensions")
        if (self.weights < -1e-12).any():
            raise ContractViolation("negative weight in active set")
        s = self.weights.sum()
        if abs(s - 1.0) > 1e-10:
            raise ContractViolation("weights must sum to one, got %r" % s)
        self._index = {}
        for pos, a in enumerate(self.atoms):
            self._index.setdefault(a._key(), []).append(pos)
        if any(len(b) > 1 for b in self._index.values()):
            raise ContractViolation("duplicate atoms in active set")
        if all(a.tag == "signed_unit" for a in self.atoms):
            self._idx = np.array([a.index for a in self.atoms], dtype=np.intp)
            self._coef = np.array([a.sign * a.scale for a in self.atoms])
        else:
            self._idx = self._coef = None
        if all(_is_dense_vector(a) for a in self.atoms):
            self._rows = np.array([a.vector for a in self.atoms])
        else:
            self._rows = None
        self._bufs = {}  # attribute name -> the buffer its array is a prefix view of

    @classmethod
    def from_atom(cls, atom):
        return cls([atom], np.array([1.0]))

    def __len__(self):
        return len(self.atoms)

    def copy(self):
        return ActiveSet(self.atoms, self.weights)

    def find(self, atom, same=None):
        """Position of a structurally equal atom, or None.

        ``same``, when given, is an atom the caller knows to be equal to
        ``atom``; a position holding that very object (or ``atom`` itself)
        is taken without comparing fields.
        """
        atoms = self.atoms
        for pos in self._index.get(atom._key(), ()):
            held = atoms[pos]
            if held is atom or held is same or atoms_equal(held, atom):
                return pos
        return None

    def _grown(self, name, value):
        """The array attribute ``name`` with ``value`` appended, as a view of its buffer."""
        view = getattr(self, name)
        buf = self._bufs.get(name)
        k = len(view)
        if buf is None or view.base is not buf or k == len(buf):
            buf = self._bufs[name] = np.empty((max(2 * k, 4),) + view.shape[1:], view.dtype)
            buf[:k] = view
        buf[k] = value
        return buf[:k + 1]

    def _append(self, atom, weight):
        self.atoms.append(atom)
        self.weights = self._grown("weights", weight)
        self._index.setdefault(atom._key(), []).append(len(self.atoms) - 1)
        if self._idx is not None:
            if atom.tag == "signed_unit":
                self._idx = self._grown("_idx", atom.index)
                self._coef = self._grown("_coef", atom.sign * atom.scale)
            else:
                self._idx = self._coef = None
        if self._rows is not None:
            if _is_dense_vector(atom):
                self._rows = self._grown("_rows", atom.vector)
            else:
                self._rows = None

    def _prune_and_renormalize(self):
        w = self.weights
        # the reductions of w.min() and w.sum(), without their Python wrappers
        if np.minimum.reduce(w) > WEIGHT_PRUNE:  # nothing to prune; False on a NaN weight
            w /= np.add.reduce(w)
            return
        if (w < -1e-9).any():
            raise ContractViolation("weight went negative beyond tolerance")
        keep = w > WEIGHT_PRUNE
        if not keep.all():
            if not keep.any():
                raise ContractViolation("all weights vanished")
            self.atoms = [a for a, k in zip(self.atoms, keep) if k]
            self.weights = w[keep]
            if self._idx is not None:
                self._idx = self._idx[keep]
                self._coef = self._coef[keep]
            if self._rows is not None:
                self._rows = self._rows[keep]
            self._index = {}
            for pos, a in enumerate(self.atoms):
                self._index.setdefault(a._key(), []).append(pos)
        self.weights /= self.weights.sum()


def _is_dense_vector(atom):
    return atom.tag == "dense" and atom.vector.ndim == 1


def reconstruct_point(active_set):
    """Dense point Sum_i w_i * densify(atom_i) represented by the set."""
    x = np.zeros(active_set.atoms[0].shape)
    if active_set._idx is not None:
        # unbuffered and in atom order: the same sums as the loop below
        np.add.at(x, active_set._idx, active_set.weights * active_set._coef)
        return x
    for a, w in zip(active_set.atoms, active_set.weights):
        if a.tag == "signed_unit":
            x[a.index] += w * a.sign * a.scale
        else:
            x += w * a.densify()
    return x


def atom_image(atom, a):
    """The image A v of an atom: a scaled column of ``a`` for a signed-unit atom."""
    if atom.tag == "signed_unit":
        return (atom.sign * atom.scale) * a[:, atom.index]
    return a @ atom.densify()


def pairing_matrix(active_set, vectors):
    """M_ij = <v_i, vectors[j]> over the set's atoms v_i, one row of ``vectors`` per atom."""
    if active_set._idx is not None:
        return active_set._coef[:, None] * vectors[:, active_set._idx].T
    if active_set._rows is not None:
        return active_set._rows @ vectors.T
    return np.array([a.densify().ravel() for a in active_set.atoms]) @ vectors.T


def select_away_vertex(active_set, g):
    """Active atom maximizing <g, atom>; ties go to the earliest-inserted atom.

    Returns (atom, weight, position).  On a signed-unit set this is one
    argmax over g[idx] * coef, which returns the first maximum; g[i] *
    (sign * scale) equals the loop's g[i] * sign * scale bit for bit, as
    negation is exact.  On a set of dense vectors it is one argmax over
    rows @ g, whose values may differ from the loop's ``np.vdot`` in the
    last bits (so a near-tie within rounding can go the other way).  A
    first maximum of positive weight is also the first maximum over the
    positive-weight atoms, so only when a weight-0 atom wins (or the maximum
    is NaN or -inf) does the per-atom loop decide.
    """
    g = np.asarray(g, dtype=float)
    if active_set._idx is not None:
        vals = g[active_set._idx] * active_set._coef
    elif active_set._rows is not None:
        vals = active_set._rows @ g
    else:
        return _select_away_loop(active_set, g)
    pos = int(vals.argmax())
    w = active_set.weights[pos]
    if w > 0.0 and vals[pos] > -np.inf:
        return active_set.atoms[pos], float(w), pos
    return _select_away_loop(active_set, g)


def _select_away_loop(active_set, g):
    best_pos = None
    best_val = -np.inf
    for pos, (a, w) in enumerate(zip(active_set.atoms, active_set.weights)):
        if w <= 0.0:
            continue
        if a.tag == "signed_unit":
            val = g[a.index] * a.sign * a.scale
        else:
            val = float(np.vdot(g, a.densify()))
        if val > best_val:
            best_val = val
            best_pos = pos
    if best_pos is None:
        raise ContractViolation("active set has no positive-weight atom")
    return active_set.atoms[best_pos], float(active_set.weights[best_pos]), best_pos


def away_step_cap(weight):
    """Maximal away stepsize w/(1-w); the step that zeroes the away atom."""
    if weight >= 1.0:
        raise ContractViolation("away step undefined for a weight-one atom")
    return weight / (1.0 - weight)


def apply_step(active_set, step, alpha):
    """Apply a step in place and return the updated set.

    FW:       weights scale by (1-alpha), toward gains alpha.
    Away:     weights scale by (1+alpha), away loses alpha; alpha_max = w/(1-w).
    Pairwise: alpha moves from away to toward; alpha_max = w_away.
    Weights below 1e-12 are dropped and the set renormalized.  The step's
    atoms are looked up in the set unless it carries their positions
    (``StepDescriptor.at``).
    """
    if not alpha > 0:
        raise ContractViolation("stepsize must be positive")
    kind = step.kind
    if kind not in ("FW", "Away", "Pairwise"):
        raise InputError("apply_step cannot handle kind %r" % kind)
    at = step.at
    if at is None:
        at = (None if kind == "Away" else active_set.find(step.toward),
              None if kind == "FW" else active_set.find(step.away))
        if kind != "FW" and at[1] is None:
            raise ContractViolation("away atom not in active set")
    pos_to, pos_away = at
    w = active_set.weights
    eps = 1e-12
    if kind == "FW":
        if alpha > 1.0 + eps:
            raise ContractViolation("FW stepsize exceeds 1")
        alpha = min(alpha, 1.0)
        w *= (1.0 - alpha)
    elif kind == "Away":
        cap = away_step_cap(w[pos_away])
        if alpha > cap * (1.0 + 1e-9) + eps:
            raise ContractViolation("away stepsize exceeds w/(1-w)")
        alpha = min(alpha, cap)
        w *= (1.0 + alpha)
        w[pos_away] -= alpha
    else:
        cap = w[pos_away]
        if alpha > cap * (1.0 + 1e-9) + eps:
            raise ContractViolation("pairwise stepsize exceeds the away weight")
        alpha = min(alpha, cap)
        w[pos_away] -= alpha
    if kind != "Away":
        if pos_to is None:
            active_set._append(step.toward, alpha)
        else:
            w[pos_to] += alpha
    active_set._prune_and_renormalize()
    return active_set
