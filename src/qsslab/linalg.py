"""Dense complex linear algebra for small Hilbert spaces (dim <= ~64).

Everything works on plain complex128 numpy arrays. Operators and kets are
immutable by convention: no function here mutates its inputs. A density
matrix's eigendecomposition and numerical rank are not here: a
states.QuantumState computes them from the one decomposition its
validation runs. The coordinate pattern search that the protocol search
climbs with lives here too: one object holds every restart's climb as
arrays.
"""

from __future__ import annotations

import functools

import numpy as np

from .config import TOLERANCES
from .errors import BadParameterCount, DimensionMismatch, NotSymmetric

SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])


def dagger(m):
    """Conjugate transpose of a matrix or of each matrix of a stack."""
    return np.conj(np.swapaxes(m, -1, -2))


def is_unitary(u, tol=TOLERANCES["unitary"]):
    u = np.asarray(u)
    # no entry of a unitary exceeds modulus 1; a larger one fails before
    # the product can overflow
    if np.max(np.abs(u)) > 1.0 + tol:
        return False
    return np.max(np.abs(u @ dagger(u) - np.eye(u.shape[0]))) <= tol


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


def partial_transpose(m, dims):
    """Partial transpose over B of a bipartite operator on dims =
    (d_A, d_B), or of each operator of a stack of shape
    (..., d_A d_B, d_A d_B)."""
    m = np.asarray(m, dtype=complex)
    da, db = dims
    if m.shape[-2:] != (da * db, da * db):
        raise DimensionMismatch(
            f"matrix shape {m.shape} does not match dims {dims}"
        )
    t = m.reshape(m.shape[:-2] + (da, db, da, db))
    return t.swapaxes(-3, -1).reshape(m.shape)


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


# A climb's run holds up to LOOKAHEAD candidates of its sweep (the two
# moves of two coordinates), and a lockstep step of PatternSearch scores
# about STEP_ROWS rows in one stacked call: a call's fixed cost dominates
# small stacks, while large stacks cost more per row and an improvement
# discards the rest of its run. Only the protocol search climbs; measured
# fastest per restart: 2-4 at 8 restarts, 2 at 16, 1 at 32 and 64.
LOOKAHEAD = 4
STEP_ROWS = 32


def run_length(climbs):
    """The PatternSearch lookahead for `climbs` climbs scored together:
    LOOKAHEAD for a single climb, fewer for many, never below 1."""
    return max(1, min(LOOKAHEAD, STEP_ROWS // climbs))


class PatternSearch:
    """Coordinate pattern searches that maximize a score, one climb per
    row of theta0 (R, n), held as arrays and stepped in lockstep.

    best0 (R,) holds the scores of theta0, each climb's first evaluation.
    run() returns (rows, candidates, scores to beat) for every live climb,
    or None once all have stopped; `coords` then names the coordinate each
    candidate moves. A climb's run is the next (at most) `lookahead`
    candidates of its sweep that it would try if none of them improved.
    read(scores) is given the run's scores and returns the mask of the
    candidates taken. A climb reads its run's scores in order up to and
    including its first improvement and discards the rest, which are not
    evaluations, so its decisions, result and the candidates it reads do
    not depend on `lookahead` or on the other rows. The results are the
    attributes best, theta and evals.

    A sweep tries +step, then -step on each coordinate in turn; the first
    improving candidate is taken and the sweep goes on with the next
    coordinate. The step starts at 0.3 and halves after a sweep without
    improvement. A climb stops after `iters` evaluations, when the step
    falls to 1e-4 or below, or when its best score is at or above `target`
    at the start (theta0 included) or the end of a sweep; a target reached
    mid-sweep finishes that sweep first.
    """

    def __init__(self, theta0, best0, iters, target, lookahead=1):
        self.theta = np.array(theta0, dtype=float)
        self.best = np.array(best0, dtype=float)
        self.evals = np.ones(len(self.best), dtype=int)
        self.iters, self.target, self.lookahead = iters, target, lookahead
        # each climb's next move (move m steps coordinate m // 2, up for
        # even m), its step and whether its sweep has improved; a climb
        # starts at the end of an improving sweep, so its first step is 0.3
        self.sweep = 2 * self.theta.shape[1]
        self.move = np.full(len(self.best), self.sweep)
        self.step = np.full(len(self.best), 0.3)
        self.improved = np.ones(len(self.best), dtype=bool)
        self.stopped = np.zeros(len(self.best), dtype=bool)

    def run(self):
        # a run ends at its sweep's end, so a sweep ends only between runs
        end = (self.move == self.sweep) & ~self.stopped
        if end.any():
            self.step[end & ~self.improved] *= 0.5
            self.stopped |= end & ((self.step <= 1e-4)
                                   | (self.best >= self.target))
            start = end & ~self.stopped
            self.move[start] = 0
            self.improved[start] = False
        size = np.minimum(np.minimum(self.lookahead, self.iters - self.evals),
                          self.sweep - self.move)
        self.stopped |= size <= 0
        live = np.flatnonzero(~self.stopped)
        if not live.size:
            return None
        size = size[live]
        stop = size.cumsum()  # one past each run's last candidate
        rows = live.repeat(size)
        at = np.arange(len(rows))
        moves = self.move[rows] + at - (stop - size).repeat(size)
        self.coords = moves // 2
        step = self.step[rows]
        cands = self.theta[rows]
        cands[at, self.coords] += np.where(moves % 2, -step, step)
        self._run = live, size, rows, stop.repeat(size), cands
        return rows, cands, self.best[rows]

    def read(self, scores):
        live, size, rows, stop, cands = self._run
        scores = np.asarray(scores)
        up = np.flatnonzero(scores > self.best[rows])
        won = rows[up]
        first = np.ones(len(up), dtype=bool)  # each row's first improvement
        first[1:] = won[1:] != won[:-1]
        up, won = up[first], won[first]
        # the candidates after a row's first improvement are not evaluations
        self.evals[live] += size
        self.evals[won] -= stop[up] - up - 1
        self.move[live] += size
        self.move[won] = 2 * self.coords[up] + 2  # the next coordinate
        self.theta[won] = cands[up]
        self.best[won] = scores[up]
        self.improved[won] = True
        taken = np.zeros(len(rows), dtype=bool)
        taken[up] = True
        return taken
