"""Density matrices, pure-state ensembles, and reweighting machinery.

A QuantumState is a validated density matrix with an explicit tensor
factorization. Construction decomposes the matrix once: the positivity
check reads its eigenvalues, and the state keeps the spectrum for every
later use (its rank, its spectral ensemble, its range). An Ensemble is a
pure-state decomposition of a density matrix held as two arrays, the
weights and the unit vectors as rows; its mixture() is the one sum of a
weighted ensemble. Reweighting an ensemble (keeping its pure states,
changing the probabilities) is the basic move the rest of the package
builds on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import TOLERANCES
from .errors import BadWeights, DimensionMismatch, InvalidState, NotIsometry


def _positive_dims(dims):
    out = tuple(map(int, dims))
    if (not out or min(out) < 1 or list(out) != list(dims)
            or bool in map(type, dims)):
        raise InvalidState(f"dims: {dims!r} is not a list of positive integers")
    return out


@dataclass(frozen=True)
class QuantumState:
    """Density matrix plus its subsystem dimensions.

    Construction runs one eigendecomposition: positivity is checked on its
    eigenvalues, and eigensystem() returns it, read-only.
    """

    matrix: np.ndarray
    dims: tuple = (2, 2)

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "dims", _positive_dims(self.dims))
        d = int(np.prod(self.dims))
        if m.ndim != 2 or m.shape != (d, d):
            raise InvalidState(
                f"dims: matrix shape {m.shape} does not match dims {self.dims}"
            )
        if not np.all(np.isfinite(m)):
            raise InvalidState("finite: matrix contains NaN or Inf")
        if np.max(np.abs(m - np.conj(m.T))) > TOLERANCES["hermitian"]:
            raise InvalidState("hermitian: matrix is not Hermitian")
        if abs(np.trace(m).real - 1.0) > TOLERANCES["trace_one"]:
            raise InvalidState(f"trace: tr = {np.trace(m).real!r}, expected 1")
        vals, vecs = np.linalg.eigh(m)
        if vals[0] < TOLERANCES["positivity"]:
            raise InvalidState(f"positive: minimum eigenvalue {float(vals[0])}")
        order = np.argsort(vals)[::-1]
        vals, vecs = vals[order], vecs[:, order]
        vals.flags.writeable = vecs.flags.writeable = False
        object.__setattr__(self, "_eig", (vals, vecs))

    @property
    def dim(self):
        return self.matrix.shape[0]

    def eigensystem(self):
        """(eigenvalues, eigenvectors), eigenvalues descending;
        eigenvectors[:, i] belongs to eigenvalues[i]."""
        return self._eig

    def rank(self):
        """Count of eigenvalues above rank_cutoff_rel times the largest."""
        vals = self._eig[0]
        return int(np.sum(vals > TOLERANCES["rank_cutoff_rel"] * vals[0]))


@dataclass(frozen=True)
class Ensemble:
    """Weighted pure-state decomposition of a density matrix: weights of
    shape (k,) and unit vectors as the rows of a (k, d) array, both
    read-only. mixture() is the one place a weighted ensemble is summed.
    """

    weights: np.ndarray
    vectors: np.ndarray
    dims: tuple = (2, 2)

    def __post_init__(self):
        if len({np.shape(x) for x in self.vectors}) > 1:
            raise InvalidState("dims: member vectors differ in shape")
        w = np.array(self.weights, dtype=float)
        v = np.array(self.vectors, dtype=complex)
        dims = _positive_dims(self.dims)
        outside = w[~((w > 0.0) & (w <= 1.0 + 1e-12))]
        if outside.size:
            raise InvalidState(f"weights: weight {outside[0]} outside (0, 1]")
        if w.ndim != 1 or v.shape != (len(w), int(np.prod(dims))):
            raise InvalidState(f"dims: shapes {w.shape} and {v.shape} of "
                               f"weights and vectors do not fit dims {dims}")
        if not np.all(np.isfinite(v)):
            raise InvalidState("finite: member vector contains NaN or Inf")
        # an entry of modulus above 1 fails before a norm squares it
        tol = TOLERANCES["trace_one"]
        if (np.any(np.abs(v) > 1.0 + tol)
                or np.any(abs(np.linalg.norm(v, axis=1) - 1.0) > tol)):
            raise InvalidState("norm: member vector is not unit norm")
        total = sum(w.tolist())
        if abs(total - 1.0) > tol:
            raise InvalidState(f"weights: sum {total}, expected 1")
        w.flags.writeable = v.flags.writeable = False
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "vectors", v)
        object.__setattr__(self, "dims", dims)

    def __len__(self):
        return len(self.weights)

    def mixture(self, weights=None):
        """sum_i w_i |v_i><v_i| as a matrix, under the ensemble's own
        weights or the given ones."""
        w = self.weights if weights is None else weights
        return (self.vectors.T * w) @ np.conj(self.vectors)


def from_ensemble(e: Ensemble) -> QuantumState:
    """Density matrix of a weighted pure-state mixture."""
    return QuantumState(e.mixture(), e.dims)


def spectral_ensemble(rho: QuantumState) -> Ensemble:
    """Eigen-decomposition ensemble: orthonormal vectors, eigenvalue weights.

    Eigenvalues below the rank cutoff are dropped.
    """
    vals, vecs = rho.eigensystem()
    w = vals[:rho.rank()]
    # Python's left-to-right sum: reports depend on the total's last bit
    return Ensemble(w / sum(w.tolist()), vecs[:, :len(w)].T, rho.dims)


def reweight(e: Ensemble, w) -> QuantumState:
    """Mixture of the ensemble's pure states under replacement weights."""
    w = np.asarray(w, dtype=float)
    if w.shape != (len(e),):
        raise BadWeights("weight count does not match ensemble size")
    if not np.all(w > 0.0):
        raise BadWeights("weights must be positive")
    if abs(w.sum() - 1.0) > TOLERANCES["trace_one"]:
        raise BadWeights(f"weights sum to {w.sum()}, expected 1")
    return QuantumState(e.mixture(w), e.dims)


def transform_ensemble(e: Ensemble, u) -> Ensemble:
    """New decomposition z_i = sum_j u_ij x_j over the subnormalized members.

    u must have orthonormal columns with one column per member; the density
    matrix is unchanged. Weights are folded into the vectors internally and
    unfolded on output; members of weight below 1e-14 are dropped.
    """
    u = np.asarray(u, dtype=complex)
    if u.ndim != 2 or u.shape[1] != len(e):
        raise NotIsometry(
            f"transform shape {u.shape} does not match ensemble size {len(e)}"
        )
    if np.max(np.abs(np.conj(u.T) @ u - np.eye(u.shape[1]))) > TOLERANCES["unitary"]:
        raise NotIsometry("columns are not orthonormal within tolerance")
    z = u @ (np.sqrt(e.weights)[:, None] * e.vectors)
    # one vdot per row: reports depend on these weights' last bits
    w = np.array([np.vdot(zi, zi).real for zi in z])
    z, w = z[w > 1e-14], w[w > 1e-14]
    return Ensemble(w / sum(w.tolist()), z / np.sqrt(w)[:, None], e.dims)


def purity(rho: QuantumState) -> float:
    return float(np.real(np.trace(rho.matrix @ rho.matrix)))


def is_pure(rho: QuantumState) -> bool:
    return rho.rank() == 1


def fidelity_pure(rho: QuantumState, psi) -> float:
    """<psi|rho|psi> for a normalized ket psi."""
    psi = np.asarray(psi, dtype=complex)
    if psi.shape != (rho.dim,):
        raise DimensionMismatch(
            f"ket dimension {psi.shape} does not match state dimension {rho.dim}"
        )
    return float(np.real(np.conj(psi) @ rho.matrix @ psi))


# ---------------------------------------------------------------------------
# common constructors

def ket(index, dim):
    v = np.zeros(dim, dtype=complex)
    v[index] = 1.0
    return v


def basis_ket(bits, dims):
    """Computational basis ket from per-subsystem digits."""
    index = 0
    for b, d in zip(bits, dims):
        index = index * d + b
    return ket(index, int(np.prod(dims)))


PHI_PLUS = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
PSI_PLUS = np.array([0, 1, 1, 0], dtype=complex) / np.sqrt(2)
PSI_MINUS = np.array([0, 1, -1, 0], dtype=complex) / np.sqrt(2)


def pure_state(psi, dims=(2, 2)) -> QuantumState:
    psi = np.asarray(psi, dtype=complex)
    psi = psi / np.linalg.norm(psi)
    return QuantumState(np.outer(psi, np.conj(psi)), dims)


def werner(p) -> QuantumState:
    """p |Phi+><Phi+| + (1-p) I/4."""
    m = p * np.outer(PHI_PLUS, np.conj(PHI_PLUS)) + (1 - p) * np.eye(4) / 4
    return QuantumState(m, (2, 2))


def random_density(dims, rank=None, seed=0) -> QuantumState:
    """Random density matrix from a Ginibre factor of the given rank."""
    rng = np.random.default_rng(seed)
    return random_density_from_rng(dims, rng, rank)


def random_density_from_rng(dims, rng, rank=None) -> QuantumState:
    d = int(np.prod(dims))
    r = d if rank is None else int(rank)
    g = rng.normal(size=(d, r)) + 1j * rng.normal(size=(d, r))
    m = g @ np.conj(g.T)
    m /= np.trace(m).real
    m = (m + np.conj(m.T)) / 2
    return QuantumState(m, dims)


def random_pure_from_rng(dims, rng):
    d = int(np.prod(dims))
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    return v / np.linalg.norm(v)


# ---------------------------------------------------------------------------
# JSON encoding (the CLI's file format)

def complex_to_pairs(arr):
    arr = np.asarray(arr, dtype=complex)
    return np.stack([arr.real, arr.imag], axis=-1).tolist()


# what parsing a malformed JSON document can raise besides InvalidState
_MALFORMED = (KeyError, TypeError, IndexError, ValueError, OverflowError)


def pairs_to_complex(data):
    try:
        arr = np.asarray(data, dtype=float)
    except _MALFORMED as exc:
        raise InvalidState(f"format: {exc}") from exc
    if arr.ndim == 0 or arr.shape[-1] != 2:
        raise InvalidState("format: complex entries must be [re, im] pairs")
    if not np.all(np.isfinite(arr)):
        raise InvalidState("finite: complex entries must be finite numbers")
    return arr[..., 0] + 1j * arr[..., 1]


def state_to_dict(rho: QuantumState) -> dict:
    return {"dims": list(rho.dims), "matrix": complex_to_pairs(rho.matrix)}


def state_from_dict(data) -> QuantumState:
    try:
        return QuantumState(pairs_to_complex(data["matrix"]), data["dims"])
    except _MALFORMED as exc:
        raise InvalidState(f"format: {exc}") from exc


def ensemble_to_dict(e: Ensemble) -> dict:
    return {
        "dims": list(e.dims),
        "members": [
            {"weight": w, "vector": v}
            for w, v in zip(e.weights.tolist(), complex_to_pairs(e.vectors))
        ],
    }


def ensemble_from_dict(data) -> Ensemble:
    try:
        members = data["members"]
        return Ensemble([m["weight"] for m in members],
                        [pairs_to_complex(m["vector"]) for m in members],
                        data["dims"])
    except _MALFORMED as exc:
        raise InvalidState(f"format: {exc}") from exc
