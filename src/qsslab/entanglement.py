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


def lambda_spectrum(rho):
    """Descending square roots of the eigenvalues of rho * rho~.

    rho is a two-qubit QuantumState or a stack of 4x4 density matrices of
    shape (..., 4, 4), which gives one spectrum per matrix. Computed
    through the Hermitian form sqrt(rho) rho~ sqrt(rho), which has the
    same spectrum and a stable eigensolve.
    """
    if isinstance(rho, states.QuantumState):
        _check_two_qubit(rho)
        rho = rho.matrix
    vals, vecs = np.linalg.eigh(rho)
    # eigenvalues below the rank cutoff are eigensolver noise; their square
    # roots would leak into the spectrum of a rank-deficient rho
    vals[vals < TOLERANCES["rank_cutoff_rel"] * vals[..., -1:]] = 0.0
    sqrt_rho = (vecs * np.sqrt(vals)[..., None, :]) @ linalg.dagger(vecs)
    herm = sqrt_rho @ (Y2 @ np.conj(rho) @ Y2) @ sqrt_rho
    ev = np.linalg.eigvalsh((herm + linalg.dagger(herm)) / 2)
    # kill eigensolver noise before the sqrt amplifies it
    ev[ev < np.maximum(1e-16, 1e-14 * ev[..., -1:])] = 0.0
    return np.sqrt(ev)[..., ::-1]


def concurrence(rho: states.QuantumState) -> float:
    _check_two_qubit(rho)
    return concurrence_matrix(rho.matrix)


def concurrence_matrix(m):
    """Concurrence max(0, lambda_1 - lambda_2 - lambda_3 - lambda_4) of 4x4
    density matrices, shape (..., 4, 4): a float for a single matrix, an
    array for a stack."""
    lam = lambda_spectrum(m)
    gap = lam[..., 0] - lam[..., 1:].sum(axis=-1)
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
    # takagi returns d descending, so z and lambda' are already in order
    return MagicDecomposition(z_states=tuple(z), lambda_primes=d, transform=u)


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
