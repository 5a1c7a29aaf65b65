"""One round of the purification protocol class, and compositions of rounds.

A round is: attach a fresh ancilla pair, apply local unitaries (Alice on
her source+ancilla factors, Bob on his), measure every ancilla particle in
the computational product basis, and keep the postselected source state.

Storage order for the joint state is [SS_A, SS_B, AS_A, AS_B] (the plain
kron of source and ancilla); the local unitaries act in the order
[SS_A, AS_A, SS_B, AS_B]. round_kernel reorders the tensor factors with
a transpose, the single most error-prone spot in this module;
permutation_matrix spells the same reordering out as a matrix.

Both postselections, a round's ancilla outcome and a filter, keep the
normalized post state of the branch that was kept; _post_state builds
every one of them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import linalg, states
from .config import TOLERANCES
from .errors import (
    BadParameters,
    DimensionMismatch,
    NonUnitary,
    ZeroProbability,
)


@dataclass(frozen=True)
class ProtocolRound:
    """Local unitaries for one round; measurement is fixed to the
    computational product basis of the ancilla."""

    u_alice: np.ndarray
    u_bob: np.ndarray

    def __post_init__(self):
        ua = np.asarray(self.u_alice, dtype=complex)
        ub = np.asarray(self.u_bob, dtype=complex)
        object.__setattr__(self, "u_alice", ua)
        object.__setattr__(self, "u_bob", ub)
        for u, name in ((ua, "u_alice"), (ub, "u_bob")):
            if u.ndim != 2 or u.shape[0] != u.shape[1]:
                raise DimensionMismatch(f"{name} is not square: {u.shape}")
            if not linalg.is_unitary(u):
                raise NonUnitary(f"{name} is not unitary within tolerance")


@dataclass(frozen=True)
class RoundOutcome:
    outcome_index: str
    probability: float
    post_state: states.QuantumState | None

    def to_dict(self):
        post = self.post_state
        return {
            "outcome": self.outcome_index,
            "probability": self.probability,
            "post_state": None if post is None else states.state_to_dict(post),
        }


def permutation_matrix(dims, perm):
    """Matrix sending |i_0 ... i_{k-1}> (factor dims `dims`) to the ket with
    factors reordered as perm."""
    dims = list(dims)
    n = int(np.prod(dims))
    p = np.zeros((n, n))
    new_dims = [dims[j] for j in perm]
    for idx in itertools.product(*[range(d) for d in dims]):
        src = 0
        for i, d in zip(idx, dims):
            src = src * d + i
        dst = 0
        for j, d in zip(perm, new_dims):
            dst = dst * d + idx[j]
        p[dst, src] = 1.0
    return p


def round_kernel(total, dims_s, dims_a, u_alice, u_bob, work=None):
    """Outcome probabilities and unnormalized post blocks of rounds.

    total is kron(source, ancilla) in storage order. u_alice (..., da, da)
    and u_bob (..., db, db) are local unitaries with matching leading axes,
    one round per index. Returns probabilities (..., K) and blocks
    (..., K, ds, ds) for the K ancilla outcomes in label order 00, 01, ...

    work, a list, keeps the (rounds, dim, dim) work arrays between calls of
    one caller: they grow to the largest stack it has passed and are then
    reused, so a search does not allocate (and fault in) a fresh set per
    step. The returned arrays never share memory with them.
    """
    dsa, dsb = dims_s
    daa, dab = dims_a
    if u_alice.shape[-1] != dsa * daa or u_bob.shape[-1] != dsb * dab:
        raise DimensionMismatch(
            "round unitaries do not match source/ancilla dimensions"
        )
    batch = u_alice.shape[:-2]
    n = len(batch)
    dim = dsa * dsb * daa * dab
    rows = int(np.prod(batch, dtype=int))
    if work is None:
        work = []
    if not work or work[0].shape[0] < rows or work[0].shape[1:] != (dim, dim):
        work[:] = [np.empty((rows, dim, dim), dtype=complex) for _ in range(3)]
    act, u, out = (w[:rows].reshape(batch + (dim, dim)) for w in work)
    # kron(uA, uB) acts in the order [SS_A, AS_A, SS_B, AS_B]; reorder its
    # row and column factors to the storage order [SS_A, SS_B, AS_A, AS_B]
    np.multiply(u_alice[..., :, None, :, None], u_bob[..., None, :, None, :],
                out=act.reshape(batch + (dsa * daa, dsb * dab) * 2))
    order = [*range(n)] + [n + k for k in (0, 2, 1, 3, 4, 6, 5, 7)]
    np.copyto(u.reshape(batch + (dsa, dsb, daa, dab) * 2),
              act.reshape(batch + (dsa, daa, dsb, dab) * 2).transpose(order))
    # act is free once copied into u; conj(u) read transposed is u's
    # adjoint, and u itself is not needed after
    ut = np.matmul(u, total, out=act)
    np.matmul(ut, np.swapaxes(np.conj(u, out=u), -1, -2), out=out)
    t = out.reshape(batch + (dsa, dsb, daa, dab) * 2)
    # block (ma, mb) is t[..., :, :, ma, mb, :, :, ma, mb]; a contiguous
    # copy (never a view of the work arrays), so its trace sums in the
    # same order for any batch shape
    blocks = np.einsum("...abijcdij->...ijabcd", t).copy().reshape(
        batch + (daa * dab, dsa * dsb, dsa * dsb)
    )
    probs = np.real(np.trace(blocks, axis1=-2, axis2=-1))
    return probs, blocks


def _post_state(block, prob, dims):
    """The post state of an unnormalized block of trace prob, normalized
    and hermitized; None when prob is at most probability_floor."""
    if prob <= TOLERANCES["probability_floor"]:
        return None
    m = block / prob
    return states.QuantumState((m + np.conj(m.T)) / 2, dims)


def run_round(rho_s, rho_a, rnd) -> list[RoundOutcome]:
    """Simulate one round and return every measurement branch."""
    probs, blocks = round_kernel(
        np.kron(rho_s.matrix, rho_a.matrix), rho_s.dims, rho_a.dims,
        rnd.u_alice, rnd.u_bob,
    )
    daa, dab = rho_a.dims
    labels = [f"{ma}{mb}" for ma in range(daa) for mb in range(dab)]
    return [RoundOutcome(label, max(prob, 0.0),
                         _post_state(block, prob, rho_s.dims))
            for label, prob, block in zip(labels, probs.tolist(), blocks)]


def apply_local_filter(rho_s, a, b):
    """Individual-measurement filter A (x) B, normalized, with its
    success probability."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    dsa, dsb = rho_s.dims
    if a.shape != (dsa, dsa) or b.shape != (dsb, dsb):
        raise DimensionMismatch("filter shapes do not match source dims")
    return apply_global_filter(rho_s, np.kron(a, b))


def apply_global_filter(rho_s, c):
    """Collective-measurement filter C on the whole source space."""
    c = np.asarray(c, dtype=complex)
    if c.shape != (rho_s.dim, rho_s.dim):
        raise DimensionMismatch("filter shape does not match source dimension")
    m = c @ rho_s.matrix @ np.conj(c.T)
    prob = float(np.real(np.trace(m)))
    out = _post_state(m, prob, rho_s.dims)
    if out is None:
        raise ZeroProbability(f"filter annihilates the state (trace {prob})")
    return out, prob


# ---------------------------------------------------------------------------
# named protocols

CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)


def swap_matrix(d):
    """|i j> -> |j i> on two d-level factors."""
    eye = np.eye(d * d, dtype=complex).reshape(d, d, d * d)
    return eye.transpose(1, 0, 2).reshape(d * d, d * d)


def named_round(name, dims_s=(2, 2), dims_a=(2, 2)) -> ProtocolRound:
    """Built-in rounds: "identity", "swap", "bilateral-cnot"."""
    dsa, dsb = dims_s
    daa, dab = dims_a
    if name == "identity":
        return ProtocolRound(np.eye(dsa * daa), np.eye(dsb * dab))
    if name == "swap":
        if dsa != daa or dsb != dab:
            raise BadParameters("swap needs matching source/ancilla dims")
        return ProtocolRound(swap_matrix(dsa), swap_matrix(dsb))
    if name == "bilateral-cnot":
        if (dsa, dsb, daa, dab) != (2, 2, 2, 2):
            raise BadParameters("bilateral-cnot is a two-qubit protocol")
        return ProtocolRound(CNOT, CNOT)
    raise BadParameters(f"unknown protocol name {name!r}")


def cnot_example(p1, lambda2) -> list[RoundOutcome]:
    """Bilateral CNOT on p1*Phi+ + (1-p1)*|01><01| with ancilla
    (1-lambda2)*|11><11| + lambda2*Psi+.

    Outcome "01" carries probability p1*lambda2/2 and a pure Phi+ source.
    """
    if not (0.0 < p1 < 1.0 and 0.0 < lambda2 < 1.0):
        raise BadParameters("p1 and lambda2 must lie in (0, 1)")
    rho_s = states.QuantumState(
        p1 * np.outer(states.PHI_PLUS, np.conj(states.PHI_PLUS))
        + (1 - p1) * np.outer(states.basis_ket((0, 1), (2, 2)),
                              np.conj(states.basis_ket((0, 1), (2, 2)))),
        (2, 2),
    )
    rho_a = states.QuantumState(
        (1 - lambda2) * np.outer(states.basis_ket((1, 1), (2, 2)),
                                 np.conj(states.basis_ket((1, 1), (2, 2))))
        + lambda2 * np.outer(states.PSI_PLUS, np.conj(states.PSI_PLUS)),
        (2, 2),
    )
    return run_round(rho_s, rho_a, named_round("bilateral-cnot"))


# ---------------------------------------------------------------------------
# multi-round chaining

@dataclass(frozen=True)
class Branch:
    """One leaf of the branch tree: outcome labels per round, cumulative
    probability, and the final source state (None if the branch died)."""

    labels: tuple
    probability: float
    post_state: states.QuantumState | None


def run_sequence(rho_s, rounds) -> list[Branch]:
    """Chain rounds, each consuming a fresh ancilla, and expand every
    outcome."""
    branches = [Branch((), 1.0, rho_s)]
    for rho_a, rnd in rounds:
        nxt = []
        for br in branches:
            if br.post_state is None:
                nxt.append(br)
                continue
            nxt.extend(
                Branch(br.labels + (o.outcome_index,),
                       br.probability * o.probability, o.post_state)
                for o in run_round(br.post_state, rho_a, rnd)
            )
        branches = nxt
    return branches
