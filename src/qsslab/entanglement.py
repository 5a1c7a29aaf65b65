"""Two-qubit entanglement measures and the diagonal spin-flip decomposition.

The central object is the decomposition {|z_i>} of a two-qubit density
matrix whose spin-flip overlap matrix <z_i|z~_j> is diagonal with
non-negative entries; its diagonal is the same spectrum the concurrence is
built from.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg, states
from .config import TOLERANCES
from .errors import DimensionMismatch
from .linalg import SIGMA_Y

Y2 = np.kron(SIGMA_Y, SIGMA_Y).real  # sigma_y (x) sigma_y is real


def spin_flip(v):
    """|v~> = (sigma_y (x) sigma_y) |v*> for a two-qubit ket."""
    v = np.asarray(v, dtype=complex)
    if v.shape != (4,):
        raise DimensionMismatch(f"spin flip needs a 4-dim ket, got {v.shape}")
    return Y2 @ np.conj(v)


def _check_two_qubit(rho: states.QuantumState):
    if tuple(rho.dims) != (2, 2):
        raise DimensionMismatch(f"expected a 2x2 system, got dims {rho.dims}")


def lambda_spectrum(rho: states.QuantumState):
    """Descending square roots of the eigenvalues of rho * rho~.

    Computed through the Hermitian form sqrt(rho) rho~ sqrt(rho), which has
    the same spectrum and a stable eigensolve.
    """
    _check_two_qubit(rho)
    m = rho.matrix
    vals, vecs = np.linalg.eigh(m)
    sqrt_rho = (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ np.conj(vecs.T)
    rho_tilde = Y2 @ np.conj(m) @ Y2
    herm = sqrt_rho @ rho_tilde @ sqrt_rho
    herm = (herm + np.conj(herm.T)) / 2
    ev = np.clip(np.linalg.eigvalsh(herm), 0.0, None)
    # kill eigensolver noise before the sqrt amplifies it
    ev[ev < max(1e-16, 1e-14 * ev[-1])] = 0.0
    return np.sqrt(ev)[::-1]


def concurrence(rho: states.QuantumState) -> float:
    lam = lambda_spectrum(rho)
    return float(max(0.0, lam[0] - lam[1:].sum()))


def concurrence_matrix(m):
    """Concurrence straight from 4x4 density matrices (fast scoring path).

    m has shape (..., 4, 4). A single matrix gives a float, a stack an
    array; each entry is bitwise what a single call returns, since the
    eigensolver still runs one matrix at a time.
    """
    ev = np.abs(np.real(np.linalg.eigvals(m @ (Y2 @ np.conj(m) @ Y2))))
    ev[ev < np.maximum(1e-16, 1e-14 * ev.max(axis=-1, keepdims=True))] = 0.0
    lam = np.sqrt(ev)
    lam.sort(axis=-1)
    l0, l1, l2, l3 = lam.T  # ascending
    gap = (l3 - (l2 + l1 + l0)).T
    if gap.ndim == 0:
        return float(max(0.0, gap))
    return np.where(gap > 0.0, gap, 0.0)


@dataclass(frozen=True)
class MagicDecomposition:
    """Decomposition with diagonal spin-flip overlaps.

    z_states are unnormalized so <z_i|z_i> carries the mixture weight;
    transform maps the subnormalized eigenvectors onto them.
    """

    z_states: tuple
    lambda_primes: np.ndarray
    transform: np.ndarray

    def weights(self):
        return np.array([np.real(np.vdot(z, z)) for z in self.z_states])

    def ensemble(self, dims=(2, 2)) -> states.Ensemble:
        members = []
        for z in self.z_states:
            w = float(np.real(np.vdot(z, z)))
            members.append((w, z / np.sqrt(w)))
        return states.Ensemble(tuple(members), dims)


def magic_decomposition(rho: states.QuantumState) -> MagicDecomposition:
    """Build {|z_i>} with <z_i|z~_j> = lambda'_i delta_ij.

    Route: subnormalized eigenvectors x_i, the complex symmetric overlap
    tau_ij = x_i^T (sigma_y (x) sigma_y) x_j, Takagi factorization of tau,
    then per-vector phases so the diagonal is real non-negative.
    """
    _check_two_qubit(rho)
    ens = states.spectral_ensemble(rho)
    x = np.array([np.sqrt(w) * v for w, v in ens.members])  # rows
    tau = x @ Y2 @ x.T
    tau = (tau + tau.T) / 2
    v, d = linalg.takagi(tau)
    u = np.conj(v.T)  # rows u_i give z_i = sum_j u_ij x_j with diagonal overlaps
    z = u @ x
    # fix residual phases so z_i^T Y z_i (hence <z_i|z~_i>) is real >= 0
    for i in range(len(z)):
        diag = z[i] @ Y2 @ z[i]
        if abs(diag) > 1e-14:
            phase = np.exp(-0.5j * np.angle(diag))
            z[i] = phase * z[i]
            u[i] = phase * u[i]
    order = _tie_broken_order(d, z)
    return MagicDecomposition(
        z_states=tuple(z[i] for i in order),
        lambda_primes=d[order],
        transform=u[order],
    )


def _tie_broken_order(d, z):
    """Descending by lambda'; ties broken lexicographically on z entries."""
    keys = []
    for i in range(len(d)):
        entry = np.round(np.concatenate([z[i].real, z[i].imag]), 12)
        keys.append((-np.round(d[i], 9), tuple(entry)))
    return sorted(range(len(d)), key=lambda i: keys[i])


def ppt_separable(rho: states.QuantumState) -> bool:
    """Positivity of the partial transpose.

    Exact separability test only for d_A * d_B <= 6; a necessary condition
    above that.
    """
    if len(rho.dims) != 2:
        raise DimensionMismatch(
            f"PPT needs an explicit bipartition, got dims {rho.dims}"
        )
    pt = linalg.partial_transpose(rho.matrix, rho.dims, side="B")
    return float(np.min(np.linalg.eigvalsh(pt))) >= TOLERANCES["ppt_min_eig"]


def min_pt_eigenvalue(matrix, dims) -> float:
    pt = linalg.partial_transpose(matrix, dims, side="B")
    return float(np.min(np.linalg.eigvalsh(pt)))


def schmidt_coefficients(psi, dims):
    """Descending Schmidt coefficients of a bipartite pure state."""
    psi = np.asarray(psi, dtype=complex)
    da, db = dims
    if psi.shape != (da * db,):
        raise DimensionMismatch(
            f"ket shape {psi.shape} does not match dims {dims}"
        )
    return np.linalg.svd(psi.reshape(da, db), compute_uv=False)
