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
rank-one sets keep the per-atom loop.
"""

import numpy as np

from .errors import ContractViolation, InputError

ATOM_TOL = 1e-12      # structural equality tolerance between atoms
WEIGHT_PRUNE = 1e-12  # weights below this are dropped and the set renormalized
_BUCKET_DECIMALS = 9  # rounding used for the dedup hash buckets


class DenseAtom:
    """Extreme point stored as an explicit vector or matrix."""

    tag = "dense"

    def __init__(self, vector):
        v = np.asarray(vector, dtype=float)
        if not np.isfinite(v).all():
            raise InputError("dense atom has non-finite entries")
        self.vector = v
        self.shape = v.shape

    def densify(self):
        return self.vector

    def _key(self):
        return ("d",) + self.shape + (self.vector.round(_BUCKET_DECIMALS).tobytes(),)

    def __repr__(self):
        return "DenseAtom(%s)" % (self.vector,)


class SignedUnitAtom:
    """Extreme point +/- scale * e_index of a scaled cross-polytope or simplex."""

    tag = "signed_unit"

    def __init__(self, index, sign, scale, dim):
        if sign not in (-1, 1):
            raise InputError("sign must be -1 or +1")
        if not scale > 0:
            raise InputError("scale must be positive")
        if not 0 <= index < dim:
            raise InputError("index out of range")
        self.index = int(index)
        self.sign = int(sign)
        self.scale = float(scale)
        self.dim = int(dim)
        self.shape = (dim,)

    def densify(self):
        v = np.zeros(self.dim)
        v[self.index] = self.sign * self.scale
        return v

    def _key(self):
        return ("u", self.dim, self.index, self.sign, round(self.scale, _BUCKET_DECIMALS))

    def __repr__(self):
        return "SignedUnitAtom(i=%d, sign=%+d, scale=%g)" % (self.index, self.sign, self.scale)


class RankOneAtom:
    """Extreme point scale * u v^T of the nuclear-norm ball (|u| = |v| = 1)."""

    tag = "rank_one"

    def __init__(self, u, v, scale):
        u = np.asarray(u, dtype=float)
        v = np.asarray(v, dtype=float)
        if not scale > 0:
            raise InputError("scale must be positive")
        if abs(np.linalg.norm(u) - 1.0) > 1e-12 or abs(np.linalg.norm(v) - 1.0) > 1e-12:
            raise InputError("rank-one factors must have unit norm")
        self.u = u
        self.v = v
        self.scale = float(scale)
        self.shape = (u.size, v.size)

    def densify(self):
        return self.scale * np.outer(self.u, self.v)

    def _key(self):
        return ("r", self.shape,
                self.u.round(_BUCKET_DECIMALS).tobytes(),
                self.v.round(_BUCKET_DECIMALS).tobytes(),
                round(self.scale, _BUCKET_DECIMALS))

    def __repr__(self):
        return "RankOneAtom(scale=%g, %dx%d)" % (self.scale, self.u.size, self.v.size)


def atoms_equal(a, b, tol=ATOM_TOL):
    """Structural equality: same tag and fields within ``tol``."""
    if a.tag != b.tag or a.shape != b.shape:
        return False
    if a.tag == "dense":
        return bool(np.max(np.abs(a.vector - b.vector)) <= tol)
    if a.tag == "signed_unit":
        return a.index == b.index and a.sign == b.sign and abs(a.scale - b.scale) <= tol
    # rank-one: u v^T == u' v'^T also when both factors are negated
    if abs(a.scale - b.scale) > tol:
        return False
    du = np.max(np.abs(a.u - b.u))
    dv = np.max(np.abs(a.v - b.v))
    if du <= tol and dv <= tol:
        return True
    du = np.max(np.abs(a.u + b.u))
    dv = np.max(np.abs(a.v + b.v))
    return du <= tol and dv <= tol


class StepDescriptor:
    """A solver step: its kind plus the atoms it moves toward / away from.

    Kinds: FW, Away, Pairwise, InFace, Drop, FullCorrective, Block(i).
    FW and FullCorrective carry ``toward`` only, Away carries ``away`` only,
    Pairwise carries both.
    """

    def __init__(self, kind, toward=None, away=None, block=None):
        if kind in ("FW", "FullCorrective") and (toward is None or away is not None):
            raise InputError("%s steps carry a toward atom only" % kind)
        if kind == "Away" and (away is None or toward is not None):
            raise InputError("away steps carry an away atom only")
        if kind == "Pairwise" and (toward is None or away is None):
            raise InputError("pairwise steps carry both atoms")
        self.kind = kind
        self.toward = toward
        self.away = away
        self.block = block

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

    @classmethod
    def from_atom(cls, atom):
        return cls([atom], np.array([1.0]))

    def __len__(self):
        return len(self.atoms)

    def copy(self):
        return ActiveSet(self.atoms, self.weights)

    def find(self, atom):
        """Position of a structurally equal atom, or None."""
        for pos in self._index.get(atom._key(), ()):
            if atoms_equal(self.atoms[pos], atom):
                return pos
        return None

    def _append(self, atom, weight):
        self.atoms.append(atom)
        self.weights = np.append(self.weights, weight)
        self._index.setdefault(atom._key(), []).append(len(self.atoms) - 1)
        if self._idx is not None:
            if atom.tag == "signed_unit":
                self._idx = np.append(self._idx, atom.index)
                self._coef = np.append(self._coef, atom.sign * atom.scale)
            else:
                self._idx = self._coef = None
        if self._rows is not None:
            if _is_dense_vector(atom):
                self._rows = np.vstack((self._rows, atom.vector))
            else:
                self._rows = None

    def _prune_and_renormalize(self):
        w = self.weights
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
    InFace steps are treated like Away.  Weights below 1e-12 are dropped and
    the set renormalized.
    """
    if not alpha > 0:
        raise ContractViolation("stepsize must be positive")
    kind = step.kind
    eps = 1e-12
    if kind in ("FW", "FullCorrective"):
        if alpha > 1.0 + eps:
            raise ContractViolation("FW stepsize exceeds 1")
        alpha = min(alpha, 1.0)
        active_set.weights *= (1.0 - alpha)
        pos = active_set.find(step.toward)
        if pos is None:
            active_set._append(step.toward, alpha)
        else:
            active_set.weights[pos] += alpha
    elif kind in ("Away", "InFace"):
        pos = active_set.find(step.away)
        if pos is None:
            raise ContractViolation("away atom not in active set")
        cap = away_step_cap(active_set.weights[pos])
        if alpha > cap * (1.0 + 1e-9) + eps:
            raise ContractViolation("away stepsize exceeds w/(1-w)")
        alpha = min(alpha, cap)
        active_set.weights *= (1.0 + alpha)
        active_set.weights[pos] -= alpha
    elif kind == "Pairwise":
        pos_away = active_set.find(step.away)
        if pos_away is None:
            raise ContractViolation("away atom not in active set")
        cap = active_set.weights[pos_away]
        if alpha > cap * (1.0 + 1e-9) + eps:
            raise ContractViolation("pairwise stepsize exceeds the away weight")
        alpha = min(alpha, cap)
        active_set.weights[pos_away] -= alpha
        pos_to = active_set.find(step.toward)
        if pos_to is None:
            active_set._append(step.toward, alpha)
        else:
            active_set.weights[pos_to] += alpha
    else:
        raise InputError("apply_step cannot handle kind %r" % kind)
    active_set._prune_and_renormalize()
    return active_set
