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


def _check_two_qubit(rho: states.QuantumState):
    if tuple(rho.dims) != (2, 2):
        raise DimensionMismatch(f"expected a 2x2 system, got dims {rho.dims}")


# sigma(tau) of a pure product state is rounding noise, at most 1.7e-15 over
# 3,000 random ones; this floor reads it as 0.0 and lies far below
# concurrence_zero, so lambdas near 1e-9 stay resolved.
LAMBDA_FLOOR = 1e-12


def lambda_spectrum(rho):
    """Descending square roots of the eigenvalues of rho * rho~.

    rho is a 4x4 density matrix or a stack of them of shape (..., 4, 4),
    which gives one spectrum per matrix. For rho = X X^dagger with
    X = V sqrt(Lambda) from its eigendecomposition, they are the singular
    values of tau = X^T (sigma_y (x) sigma_y) X, the overlap matrix
    magic_decomposition factorizes: rho rho~ and tau tau^dagger share their
    nonzero eigenvalues, so one SVD gives the lambdas unsquared.
    """
    vals, vecs = np.linalg.eigh(rho)
    # eigenvalues below the rank cutoff are eigensolver noise; their square
    # roots would leak into the spectrum of a rank-deficient rho
    vals[vals < TOLERANCES["rank_cutoff_rel"] * vals[..., -1:]] = 0.0
    x = vecs * np.sqrt(vals)[..., None, :]
    lam = np.linalg.svd(np.swapaxes(x, -1, -2) @ Y2 @ x, compute_uv=False)
    lam[lam < LAMBDA_FLOOR] = 0.0
    return lam


def concurrence(rho: states.QuantumState) -> float:
    _check_two_qubit(rho)
    return concurrence_matrix(rho.matrix)


# rho^T_B of a two-qubit state has at most one negative eigenvalue, and it
# has one exactly when rho is entangled (Sanpera, Tarrach and Vidal 1998,
# PRA 58, 826). One negative eigenvalue and three non-negative ones give
# det(rho^T_B) <= 0, so det(rho^T_B) > 0 leaves none: rho is separable and
# its concurrence is 0. For unit-trace input the computed det is off by
# about 1e-15, so a computed det above this constant has a positive exact det.
SEPARABLE_DET = 1e-12


def concurrence_matrix(m):
    """Concurrence max(0, lambda_1 - lambda_2 - lambda_3 - lambda_4) of 4x4
    density matrices, shape (..., 4, 4): a float for a single matrix, an
    array for a stack.

    A matrix whose partial transpose has det above SEPARABLE_DET is
    separable and gets 0.0 without a spin-flip spectrum.
    """
    m = np.asarray(m)
    det = np.linalg.det(linalg.partial_transpose(m, (2, 2))).real
    gap = np.zeros(det.shape)
    unscreened = ~(det > SEPARABLE_DET)  # NaN stays on the spectrum route
    if unscreened.any():
        lam = lambda_spectrum(m[unscreened])
        gap[unscreened] = lam[..., 0] - lam[..., 1:].sum(axis=-1)
    if gap.ndim == 0:
        return float(max(0.0, gap))
    return np.where(gap > 0.0, gap, 0.0)


@dataclass(frozen=True)
class MagicDecomposition:
    """Decomposition with diagonal spin-flip overlaps.

    z_states are unnormalized so <z_i|z_i> carries the mixture weight.
    """

    z_states: tuple
    lambda_primes: np.ndarray

    def ensemble(self, dims=(2, 2)) -> states.Ensemble:
        z = np.array(self.z_states)
        w = np.array([np.vdot(zi, zi).real for zi in z])
        return states.Ensemble(w, z / np.sqrt(w)[:, None], dims)


def magic_decomposition(rho: states.QuantumState) -> MagicDecomposition:
    """Build {|z_i>} with <z_i|z~_j> = lambda'_i delta_ij.

    Route: subnormalized eigenvectors x_i, the complex symmetric overlap
    tau_ij = x_i^T (sigma_y (x) sigma_y) x_j, Takagi factorization of tau,
    then per-vector phases so the diagonal is real non-negative.
    """
    _check_two_qubit(rho)
    ens = states.spectral_ensemble(rho)
    x = np.sqrt(ens.weights)[:, None] * ens.vectors  # rows
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
    # takagi returns d descending, so z and lambda' are already in order
    return MagicDecomposition(z_states=tuple(z), lambda_primes=d)


def ppt_separable(rho: states.QuantumState) -> bool:
    """Positivity of the partial transpose.

    Exact separability test only for d_A * d_B <= 6; a necessary condition
    above that.
    """
    if len(rho.dims) != 2:
        raise DimensionMismatch(
            f"PPT needs an explicit bipartition, got dims {rho.dims}"
        )
    return min_pt_eigenvalue(rho.matrix, rho.dims) >= TOLERANCES["ppt_min_eig"]


def min_pt_eigenvalue(matrix, dims):
    """Smallest eigenvalue of the partial transpose of one matrix over the
    second factor of dims = (d_A, d_B)."""
    pt = linalg.partial_transpose(matrix, dims)
    return float(np.linalg.eigvalsh(pt)[0])


def separable(rho: states.QuantumState) -> bool:
    """The one separability test: the partial transpose across
    (d_A, rest) has smallest eigenvalue >= ppt_min_eig and, for two
    qubits, the concurrence is also <= concurrence_zero.

    PPT is exact for d_A * d_B <= 6 and a necessary condition above that.
    The two-qubit concurrence gate is there because the PPT tolerance
    alone is loose: a smallest PT eigenvalue of -e still allows a
    concurrence of up to 2 sqrt(e), 2e-5 at e = 1e-10 (Verstraete,
    Audenaert, Dehaene and De Moor 2001, J. Phys. A 34, 10327). The bound
    is reached by p Phi+ + (1 - p)|01><01|, with concurrence p and smallest
    PT eigenvalue about -p^2/4. Without the gate, a certificate could also
    starve one member's weight until its PT eigenvalue crossed the
    threshold while the state stayed entangled.
    """
    if len(rho.dims) < 2:
        raise DimensionMismatch(
            f"separability needs an explicit bipartition, got dims {rho.dims}"
        )
    pt_dims = (rho.dims[0], int(np.prod(rho.dims[1:])))
    ppt = min_pt_eigenvalue(rho.matrix, pt_dims) >= TOLERANCES["ppt_min_eig"]
    return ppt and (tuple(rho.dims) != (2, 2)
                    or concurrence(rho) <= TOLERANCES["concurrence_zero"])


def schmidt_coefficients(psi, dims):
    """Descending Schmidt coefficients of a bipartite pure state."""
    psi = np.asarray(psi, dtype=complex)
    da, db = dims
    if psi.shape != (da * db,):
        raise DimensionMismatch(
            f"ket shape {psi.shape} does not match dims {dims}"
        )
    return np.linalg.svd(psi.reshape(da, db), compute_uv=False)
