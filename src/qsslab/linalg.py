"""Dense complex linear algebra for small Hilbert spaces (dim <= ~64).

Everything works on plain complex128 numpy arrays. Operators and kets are
immutable by convention: no function here mutates its inputs. The
coordinate pattern search that both the QSS heuristic and the protocol
search climb with lives here too.
"""

from __future__ import annotations

import functools

import numpy as np
import scipy.linalg

from .config import TOLERANCES
from .errors import (
    BadParameterCount,
    DimensionMismatch,
    NotHermitian,
    NotSymmetric,
)

I2 = np.eye(2, dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])


def kron(a, b):
    """Kronecker product of two operators (or kets)."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def dagger(m):
    """Conjugate transpose of a matrix or of each matrix of a stack."""
    return np.conj(np.swapaxes(m, -1, -2))


def is_unitary(u, tol=TOLERANCES["unitary"]):
    u = np.asarray(u)
    return np.max(np.abs(u @ dagger(u) - np.eye(u.shape[0]))) <= tol


def hermitian_eig(h):
    """Eigendecomposition of a Hermitian matrix.

    Returns (eigenvalues, eigenvectors) with eigenvalues real and sorted
    descending; eigenvectors[:, i] belongs to eigenvalues[i].
    """
    h = np.asarray(h, dtype=complex)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise DimensionMismatch(f"expected square matrix, got shape {h.shape}")
    if np.max(np.abs(h - dagger(h))) > TOLERANCES["hermitian"]:
        raise NotHermitian("matrix is not Hermitian within tolerance")
    vals, vecs = np.linalg.eigh(h)
    order = np.argsort(vals)[::-1]
    return vals[order], vecs[:, order]


def numerical_rank(eigenvalues, rel_cutoff=TOLERANCES["rank_cutoff_rel"]):
    """Count eigenvalues above the relative rank cutoff."""
    vals = np.asarray(eigenvalues, dtype=float)
    top = np.max(np.abs(vals)) if vals.size else 0.0
    if top == 0.0:
        return 0
    return int(np.sum(vals > rel_cutoff * top))


def takagi(s):
    """Takagi factorization of a complex symmetric matrix.

    Returns (u, d) with u unitary and d non-negative descending such that
    s = u @ diag(d) @ u.T.
    """
    s = np.asarray(s, dtype=complex)
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise DimensionMismatch(f"expected square matrix, got shape {s.shape}")
    if np.max(np.abs(s - s.T)) > TOLERANCES["symmetric"]:
        raise NotSymmetric("matrix is not complex symmetric within tolerance")

    v, d, wh = np.linalg.svd(s)
    w = dagger(wh)
    # For symmetric s, Z = V^T W is unitary symmetric block-diagonal over
    # groups of equal singular values; u = V conj(sqrt(Z)) symmetrizes the
    # factorization within each degenerate block.
    scale = d[0] if d.size and d[0] > 0 else 1.0
    blocks = []
    start = 0
    for i in range(1, len(d) + 1):
        if i == len(d) or d[start] - d[i] > 1e-8 * scale:
            idx = np.arange(start, i)
            z = v[:, idx].T @ w[:, idx]
            blocks.append(scipy.linalg.sqrtm(z))
            start = i
    q = scipy.linalg.block_diag(*blocks) if blocks else np.zeros_like(s)
    u = v @ np.conj(q)
    return u, d


def partial_trace(m, dims, keep):
    """Trace out all tensor factors not listed in keep.

    dims is the ordered list of factor dimensions, keep a set/list of factor
    indices to retain (order preserved).
    """
    m = np.asarray(m, dtype=complex)
    dims = list(dims)
    n = int(np.prod(dims))
    if m.shape != (n, n):
        raise DimensionMismatch(
            f"matrix shape {m.shape} does not match dims product {n}"
        )
    keep = sorted(keep)
    if any(k < 0 or k >= len(dims) for k in keep):
        raise DimensionMismatch(f"keep indices {keep} out of range for {dims}")
    k = len(dims)
    t = m.reshape(dims + dims)
    # trace the discarded factors pairwise, from the back so axis numbers
    # stay valid
    for ax in sorted(set(range(k)) - set(keep), reverse=True):
        t = np.trace(t, axis1=ax, axis2=ax + t.ndim // 2)
    d_keep = int(np.prod([dims[i] for i in keep])) if keep else 1
    return t.reshape(d_keep, d_keep)


def partial_transpose(m, dims, side="B"):
    """Partial transpose of a bipartite operator on dims = (d_A, d_B)."""
    m = np.asarray(m, dtype=complex)
    da, db = dims
    if m.shape != (da * db, da * db):
        raise DimensionMismatch(
            f"matrix shape {m.shape} does not match dims {dims}"
        )
    t = m.reshape(da, db, da, db)
    if side == "A":
        t = t.transpose(2, 1, 0, 3)
    elif side == "B":
        t = t.transpose(0, 3, 2, 1)
    else:
        raise DimensionMismatch(f"side must be 'A' or 'B', got {side!r}")
    return t.reshape(da * db, da * db)


def haar_unitary(dim, seed):
    """Haar-distributed random unitary via QR of a Ginibre matrix."""
    rng = np.random.default_rng(seed)
    return haar_unitary_from_rng(dim, rng)


def haar_unitary_from_rng(dim, rng):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    phases = np.diagonal(r).copy()
    phases /= np.abs(phases)
    return q * phases


@functools.lru_cache(maxsize=None)
def _givens_layout(dim):
    """Constant part of parameterized_unitary's factors, and where its
    parameters go.

    Factor 0 is the phase layer, factor k >= 1 the two-level rotation of
    the k-th index pair; positions index the flattened factor stack, in
    the order [phases, (i, i), (j, j), (i, j), (j, i)].
    """
    pairs = [(i, j) for i in range(dim) for j in range(i + 1, dim)]
    template = np.zeros((len(pairs) + 1, dim, dim), dtype=complex)
    template[1:] = np.eye(dim)
    pos = [i * (dim + 1) for i in range(dim)]
    for a, b in ((0, 0), (1, 1), (0, 1), (1, 0)):
        pos += [(k * dim + p[a]) * dim + p[b] for k, p in enumerate(pairs, 1)]
    pos = np.array(pos)
    template.flags.writeable = pos.flags.writeable = False  # cached, shared
    return template, pos


def parameterized_unitary(theta, dim):
    """Unitary from dim^2 real parameters; theta = 0 gives the identity.

    Layout: the first dim entries are diagonal phases, then for each index
    pair (i, j) with i < j a rotation angle and a relative phase for a
    two-level Givens rotation. The product of phase layer and rotations is
    surjective onto U(dim) up to measure zero.

    theta may carry leading batch axes, shape (..., dim^2); the result then
    has shape (..., dim, dim). Each matrix of a stack is bitwise the one a
    single call returns: the factors are multiplied one matrix at a time.
    """
    theta = np.asarray(theta, dtype=float)
    if theta.shape[-1:] != (dim * dim,):
        raise BadParameterCount(
            f"expected {dim * dim} parameters for dim {dim}, got {theta.shape}"
        )
    batch = theta.shape[:-1]
    template, pos = _givens_layout(dim)
    half = theta[..., dim::2] / 2
    e = np.exp(1j * theta)
    c = np.cos(half)
    es = e[..., dim + 1::2] * np.sin(half)
    g = np.empty(batch + template.shape, dtype=complex)
    g[...] = template
    g.reshape(batch + (-1,))[..., pos] = np.concatenate(
        (e[..., :dim], c, c, -es, np.conj(es)), axis=-1
    )
    u = g[..., 0, :, :]
    for k in range(1, len(template)):
        u = u @ g[..., k, :, :]
    return u


def pattern_search(theta0, iters, target):
    """Coordinate pattern search that maximizes a score, starting at theta0.

    A generator: it yields (candidate, score to beat) and is sent the
    candidate's score; it returns (best score, best parameters,
    evaluations). The step starts at 0.3, halves after a sweep without
    improvement and stops at 1e-4; the first improving candidate is taken;
    at most `iters` evaluations; it stops as soon as the best score
    reaches `target`, the start included.
    """
    theta = np.asarray(theta0, dtype=float)
    best = yield theta, -np.inf
    evals = 1
    step = 0.3
    while step > 1e-4 and evals < iters and best < target:
        improved = False
        for i in range(len(theta)):
            if evals >= iters:
                break
            for sgn in (1.0, -1.0):
                cand = theta.copy()
                cand[i] += sgn * step
                val = yield cand, best
                evals += 1
                if val > best:
                    theta, best = cand, val
                    improved = True
                    break
                if evals >= iters:
                    break
        if not improved:
            step *= 0.5
    return best, theta, evals
