"""Dense complex linear algebra for small Hilbert spaces (dim <= ~64).

Everything works on plain complex128 numpy arrays. Operators and kets are
immutable by convention: no function here mutates its inputs. The
coordinate pattern search that the protocol search climbs with lives here
too.
"""

from __future__ import annotations

import functools

import numpy as np

from .config import TOLERANCES
from .errors import (
    BadParameterCount,
    DimensionMismatch,
    NotHermitian,
    NotSymmetric,
)

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
    # For symmetric s, Z = V^T W is unitary and block-diagonal over groups
    # of equal singular values, symmetric on each nonzero group; u =
    # V conj(q), q a symmetric square root of Z, symmetrizes each group. A
    # symmetric unitary's real and imaginary parts commute, so the
    # eigenvectors of a generic real combination are a real orthogonal o
    # with o^T Z o diagonal: q = o sqrt(o^T Z o) o^T stays right where
    # rounding splits a repeated eigenvalue -1 across sqrt's branch cut; a
    # 1x1 block is symmetric too, and gets o = 1. A zero group adds nothing
    # to u d u^T, so any unitary root serves it: the identity keeps u
    # exactly unitary where Z's eigenvalues cluster.
    scale = d[0] if d.size and d[0] > 0 else 1.0
    gap = 1e-8 * scale
    q = np.zeros_like(s)
    start = 0
    for i in range(1, len(d) + 1):
        if i == len(d) or d[start] - d[i] > gap:
            idx = np.arange(start, i)
            z = v[:, idx].T @ w[:, idx]
            if d[start] <= gap:
                root = np.eye(len(idx))
            else:
                o = np.linalg.eigh(z.real + np.sqrt(0.5) * z.imag)[1]
                root = (o * np.sqrt(np.diagonal(o.T @ z @ o))) @ o.T
            q[np.ix_(idx, idx)] = root
            start = i
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
    """Partial transpose of a bipartite operator on dims = (d_A, d_B), or
    of each operator of a stack of shape (..., d_A d_B, d_A d_B)."""
    m = np.asarray(m, dtype=complex)
    da, db = dims
    if m.shape[-2:] != (da * db, da * db):
        raise DimensionMismatch(
            f"matrix shape {m.shape} does not match dims {dims}"
        )
    t = m.reshape(m.shape[:-2] + (da, db, da, db))
    if side == "A":
        t = t.swapaxes(-4, -2)
    elif side == "B":
        t = t.swapaxes(-3, -1)
    else:
        raise DimensionMismatch(f"side must be 'A' or 'B', got {side!r}")
    return t.reshape(m.shape)


def haar_unitary_from_rng(dim, rng):
    """Haar-distributed random unitary via QR of a Ginibre matrix."""
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


# A climb's run holds up to LOOKAHEAD candidates (the two moves of two
# coordinates), and a stacked call scores about STEP_ROWS rows in all: a
# call's fixed cost dominates small stacks, while large stacks cost more
# per row and an improvement discards the rest of its run. Only the
# protocol search climbs; measured fastest per restart: 2-4 at 8
# restarts, 2 at 16, 1 at 32 and 64.
LOOKAHEAD = 4
STEP_ROWS = 32


def run_length(climbs):
    """The pattern_search lookahead for `climbs` climbs scored together:
    LOOKAHEAD for a single climb, fewer for many, never below 1."""
    return max(1, min(LOOKAHEAD, STEP_ROWS // climbs))


def pattern_search(theta0, iters, target, lookahead=1):
    """Coordinate pattern search that maximizes a score, starting at theta0.

    A generator: it yields runs (a list of k candidates, score to beat)
    and is sent the run's k scores; it returns (best score, best
    parameters, evaluations). The first run is theta0 alone; each later
    run is the next (at most) `lookahead` candidates the climb would try
    if none of them improved. The climb reads a run's scores in order up
    to and including its first improvement and discards the rest, which
    are not evaluations, so its decisions, result and the candidates it
    reads do not depend on `lookahead`.

    A sweep tries +step, then -step on each coordinate in turn; the first
    improving candidate is taken and the sweep goes on with the next
    coordinate. The step starts at 0.3 and halves after a sweep without
    improvement. The climb stops after `iters` evaluations, when the step
    falls to 1e-4 or below, or when the best score is at or above
    `target` at the start (theta0 included) or the end of a sweep; a
    target reached mid-sweep finishes that sweep first.
    """
    theta = np.asarray(theta0, dtype=float)
    sweep = 2 * len(theta)  # move m steps coordinate m // 2, up for even m
    best = (yield [theta], -np.inf)[0]
    evals = 1
    # the next move, its step and whether its sweep has improved; the climb
    # starts at the end of an improving sweep, so its first step is 0.3
    step, move, improved = 0.3, sweep, True
    while True:
        cands, moves = [], []
        room = min(lookahead, iters - evals)
        while len(cands) < room:
            if move == sweep:
                if not improved:
                    step *= 0.5
                if step <= 1e-4 or best >= target:
                    break
                move, improved = 0, False
                continue
            cand = theta.copy()
            cand[move // 2] += -step if move % 2 else step
            cands.append(cand)
            moves.append((step, move))
            move += 1
        if not cands:
            return best, theta, evals
        vals = yield cands, best
        for cand, (s, m), val in zip(cands, moves, vals):
            evals += 1
            if val > best:
                theta, best = cand, val
                step, move, improved = s, m - m % 2 + 2, True
                break
