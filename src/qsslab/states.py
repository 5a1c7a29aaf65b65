"""Density matrices, pure-state ensembles, and reweighting machinery.

A QuantumState is a validated density matrix with an explicit tensor
factorization. An Ensemble is a weighted list of normalized pure states
realizing a density matrix; reweighting an ensemble (keeping its pure
states, changing the probabilities) is the basic move the rest of the
package builds on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .config import TOLERANCES
from .errors import BadWeights, DimensionMismatch, InvalidState, NotIsometry


def _positive_dims(dims):
    out = tuple(int(d) for d in dims)
    if not out or min(out) < 1 or list(out) != list(dims):
        raise InvalidState(f"dims: {dims!r} is not a list of positive integers")
    return out


@dataclass(frozen=True)
class QuantumState:
    """Density matrix plus its subsystem dimensions."""

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
        min_eig = float(np.min(np.linalg.eigvalsh(m)))
        if min_eig < TOLERANCES["positivity"]:
            raise InvalidState(f"positive: minimum eigenvalue {min_eig}")

    @property
    def dim(self):
        return self.matrix.shape[0]

    def eigensystem(self):
        return linalg.hermitian_eig(self.matrix)

    def rank(self):
        vals, _ = self.eigensystem()
        return linalg.numerical_rank(vals)


@dataclass(frozen=True)
class Ensemble:
    """Weighted pure-state decomposition of a density matrix.

    Vectors are stored normalized; weights carry the probabilities.
    """

    members: tuple  # of (weight, vector)
    dims: tuple = (2, 2)

    def __post_init__(self):
        members = tuple(
            (float(w), np.asarray(v, dtype=complex)) for w, v in self.members
        )
        object.__setattr__(self, "members", members)
        object.__setattr__(self, "dims", _positive_dims(self.dims))
        d = int(np.prod(self.dims))
        total = 0.0
        for w, v in members:
            if not 0.0 < w <= 1.0 + 1e-12:
                raise InvalidState(f"weights: weight {w} outside (0, 1]")
            if v.shape != (d,):
                raise InvalidState(
                    f"dims: vector shape {v.shape} does not match dims"
                )
            if abs(np.linalg.norm(v) - 1.0) > TOLERANCES["trace_one"]:
                raise InvalidState("norm: member vector is not unit norm")
            total += w
        if abs(total - 1.0) > TOLERANCES["trace_one"]:
            raise InvalidState(f"weights: sum {total}, expected 1")

    @property
    def weights(self):
        return np.array([w for w, _ in self.members])

    @property
    def vectors(self):
        return [v for _, v in self.members]

    def __len__(self):
        return len(self.members)


def from_ensemble(e: Ensemble) -> QuantumState:
    """Density matrix of a weighted pure-state mixture."""
    d = int(np.prod(e.dims))
    m = np.zeros((d, d), dtype=complex)
    for w, v in e.members:
        m += w * np.outer(v, np.conj(v))
    return QuantumState(m, e.dims)


def spectral_ensemble(rho: QuantumState) -> Ensemble:
    """Eigen-decomposition ensemble: orthonormal vectors, eigenvalue weights.

    Eigenvalues below the rank cutoff are dropped.
    """
    vals, vecs = rho.eigensystem()
    cutoff = TOLERANCES["rank_cutoff_rel"] * max(np.max(vals), 0.0)
    members = []
    for i, lam in enumerate(vals):
        if lam > cutoff:
            members.append((float(lam), vecs[:, i]))
    total = sum(w for w, _ in members)
    members = [(w / total, v) for w, v in members]
    return Ensemble(tuple(members), rho.dims)


def reweight(e: Ensemble, w) -> QuantumState:
    """Mixture of the ensemble's pure states under replacement weights."""
    w = np.asarray(w, dtype=float)
    if w.shape != (len(e),):
        raise BadWeights("weight count does not match ensemble size")
    if np.any(w <= 0.0):
        raise BadWeights("weights must be positive")
    if abs(w.sum() - 1.0) > TOLERANCES["trace_one"]:
        raise BadWeights(f"weights sum to {w.sum()}, expected 1")
    reweighted = Ensemble(
        tuple((float(wi), v) for wi, (_, v) in zip(w, e.members)), e.dims
    )
    return from_ensemble(reweighted)


def transform_ensemble(e: Ensemble, u) -> Ensemble:
    """New decomposition z_i = sum_j u_ij x_j over the subnormalized members.

    u must have orthonormal columns with one column per member; the density
    matrix is unchanged. Weights are folded into the vectors internally and
    unfolded on output.
    """
    u = np.asarray(u, dtype=complex)
    if u.ndim != 2 or u.shape[1] != len(e):
        raise NotIsometry(
            f"transform shape {u.shape} does not match ensemble size {len(e)}"
        )
    if np.max(np.abs(np.conj(u.T) @ u - np.eye(u.shape[1]))) > TOLERANCES["unitary"]:
        raise NotIsometry("columns are not orthonormal within tolerance")
    x = np.array([np.sqrt(w) * v for w, v in e.members])  # subnormalized rows
    z = u @ x
    members = []
    for zi in z:
        wi = float(np.real(np.vdot(zi, zi)))
        if wi > 1e-14:
            members.append((wi, zi / np.sqrt(wi)))
    total = sum(w for w, _ in members)
    members = [(w / total, v) for w, v in members]
    return Ensemble(tuple(members), e.dims)


def purity(rho: QuantumState) -> float:
    return float(np.real(np.trace(rho.matrix @ rho.matrix)))


def is_pure(rho: QuantumState) -> bool:
    return purity(rho) >= 1.0 - TOLERANCES["purity_pure"]


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
PHI_MINUS = np.array([1, 0, 0, -1], dtype=complex) / np.sqrt(2)
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
            {"weight": w, "vector": complex_to_pairs(v)} for w, v in e.members
        ],
    }


def ensemble_from_dict(data) -> Ensemble:
    try:
        members = tuple(
            (m["weight"], pairs_to_complex(m["vector"])) for m in data["members"]
        )
        return Ensemble(members, data["dims"])
    except _MALFORMED as exc:
        raise InvalidState(f"format: {exc}") from exc
