"""Quasi-separability classification.

A state is quasi-separable (QSS) when some reweighting of one of its
pure-state decompositions is separable. Full-rank states always are (the
uniform reweighting of the eigenbasis is maximally mixed); rank-deficient
two-qubit states are decided through the diagonal spin-flip decomposition;
separable states are their own certificate; 2xN and Nx2 states of rank at
least N get one in closed form from product vectors spanning their range;
everything else gets the reweighting whose partial transpose has the
largest smallest eigenvalue, by a log-barrier Newton solve.

A QSS verdict always carries a certificate that is re-verified before it
is returned. NOT_QSS_CANDIDATE is a candidate status, never a proof.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import entanglement, linalg, states
from .config import TOLERANCES
from .errors import BadParameters, DimensionMismatch, QsslabError

QSS = "QSS"
NOT_QSS_CANDIDATE = "NOT_QSS_CANDIDATE"
UNKNOWN = "UNKNOWN"
# evidence note on verdicts whose separability rests on PPT alone
PPT_ONLY = "PPT-only (necessary condition)"


@dataclass(frozen=True)
class QssVerdict:
    status: str
    certificate: tuple | None = None  # (Ensemble, weights)
    evidence: dict = field(default_factory=dict)

    def to_dict(self):
        cert = None
        if self.certificate is not None:
            ens, w = self.certificate
            cert = {
                "ensemble": states.ensemble_to_dict(ens),
                "weights": list(np.asarray(w, dtype=float)),
            }
        evidence = {}
        for k, v in self.evidence.items():
            if isinstance(v, np.ndarray):
                evidence[k] = v.tolist()
            else:
                evidence[k] = v
        return {"status": self.status, "certificate": cert, "evidence": evidence}


def verify_certificate(rho: states.QuantumState, ensemble, weights) -> bool:
    """Independent check: the ensemble decomposes rho and its reweighting
    passes entanglement.separable (PPT, plus the concurrence for two
    qubits; PPT alone is a necessary condition only beyond
    d_A * d_B = 6). A uniform reweighting that lands exactly on I/d is
    accepted at any dimension (explicit product decomposition of the
    identity).
    """
    recon = states.from_ensemble(ensemble)
    if np.max(np.abs(recon.matrix - rho.matrix)) > TOLERANCES["reconstruction"]:
        return False
    new_state = states.reweight(ensemble, weights)
    d = new_state.dim
    if np.max(np.abs(new_state.matrix - np.eye(d) / d)) <= 1e-10:
        return True
    return entanglement.separable(new_state)


def _verified(rho, ensemble, weights, evidence):
    if not verify_certificate(rho, ensemble, weights):
        raise QsslabError("internal: QSS certificate failed verification")
    return QssVerdict(QSS, (ensemble, np.asarray(weights, dtype=float)), evidence)


def _separable_certificate(rho):
    """A separable rho certifies itself at its spectral weights."""
    ens = states.spectral_ensemble(rho)
    evidence = {"rank": len(ens), "route": "already-separable"}
    if rho.dim > 6:
        evidence["separability"] = PPT_ONLY
    return _verified(rho, ens, ens.weights, evidence)


def full_rank_certificate(rho: states.QuantumState) -> QssVerdict:
    """Theorem-2 route: full rank means the uniform reweighting of the
    eigenbasis is I/d, which is separable."""
    rank = rho.rank()
    d = rho.dim
    if rank < d:
        return QssVerdict(UNKNOWN, evidence={"rank": rank})
    ens = states.spectral_ensemble(rho)
    w = np.full(len(ens), 1.0 / len(ens))
    return _verified(rho, ens, w, {"rank": rank, "route": "full-rank"})


def reweight_certificate_2q(rho: states.QuantumState) -> QssVerdict:
    """Rank-deficient two-qubit criterion, in closed form.

    Uses the diagonal spin-flip decomposition {|z_i>} with weights w_i.
    Weight q on z_1 and the others scaled by s = (1 - q)/(1 - w_1) rescale
    its spectrum exactly: lambda(rho') = sort(q/w_1 lambda'_1, s lambda'_2,
    s lambda'_3, s lambda'_4) (Wootters 1998). With T the sum and M the
    largest of lambda'_2..4, rho' is therefore separable exactly when
    s(2M - T) <= q/w_1 lambda'_1 <= s T, an interval of q that exists
    whenever any of lambda'_2..4 is nonzero; the certificate takes its
    midpoint. If they all vanish while lambda'_1 > 0, the state is flagged
    as a non-QSS candidate.
    """
    if tuple(rho.dims) != (2, 2):
        raise DimensionMismatch(f"expected a 2x2 system, got dims {rho.dims}")
    if entanglement.separable(rho):
        return _separable_certificate(rho)
    md = entanglement.magic_decomposition(rho)
    lam = md.lambda_primes
    evidence = {"lambda_primes": lam, "rank": len(md.z_states)}
    if np.all(lam[1:] <= TOLERANCES["concurrence_zero"]):
        return QssVerdict(NOT_QSS_CANDIDATE, evidence=evidence)

    ens = md.ensemble(rho.dims)
    w = ens.weights
    head = lam[0] / w[0]
    total = lam[1:].sum()
    # 1 - w_1 as the sum of the other weights: near-pure states have
    # w_1 = 1 - O(1e-8), where the difference would cancel badly
    others = w[1:].sum()
    # each end of the interval: q/w_1 lambda'_1 = s t solves linearly in q
    ends = [t / others for t in (max(2 * lam[1:].max() - total, 0.0), total)]
    q = float(np.mean([a / (head + a) for a in ends]))
    wq = np.array(w, dtype=float)
    wq[0] = q
    wq[1:] *= (1.0 - q) / others
    evidence["z1_weight"] = q
    if not verify_certificate(rho, ens, wq):
        return QssVerdict(UNKNOWN, evidence=evidence)
    evidence["route"] = "z1-reweighting"
    return QssVerdict(QSS, (ens, wq), evidence)


# ---------------------------------------------------------------------------
# range view of 2xN and Nx2 states
#
# Any reweighting with weights above zero keeps range(rho), and any state
# sigma with that range is one: with rho = X X^dagger, M = X^+ sigma
# X^+dagger = V D V^dagger and z_i = X v_i give rho = sum z_i z_i^dagger and
# sigma = sum d_i z_i z_i^dagger. So rho is QSS when product vectors span
# its range, and their projectors sum to a separable sigma. The product
# vectors a (x) b in the range solve (a_0 Q_0 + a_1 Q_1) b = 0, where the
# rows of Q span the range's orthogonal complement and Q_i is Q's slice at
# the qubit's basis state i (Kraus, Cirac, Karnas and Lewenstein 2000, PRA
# 61, 062302).

# mu of the square pencil's eigenproblem (Q_0 + mu Q_1)^-1 Q_1
PENCIL_SHIFT = 0.6 + 0.8j
# a product vector farther than this from the range is not in it
RANGE_RESIDUAL = 1e-9
# smallest singular value, relative to the largest, of a spanning set
# whitened by X^+
SPAN_FLOOR = 1e-6


def range_product_vectors(rho: states.QuantumState):
    """Unit product vectors in the range of a 2xN or Nx2 state of rank
    N <= r < 2N, as the rows of a (k, 2N) array; None for any other input,
    or when a vector fails its residual check.

    For r = N the pencil (Q_0 + t Q_1) b = 0 is square: with
    t = mu - 1/lambda it is the eigenproblem of (Q_0 + mu Q_1)^-1 Q_1, and
    lambda = 0 is t = infinity, where Q_1 b = 0. Generically its N
    eigenvectors give k = N product vectors. For r > N the pencil has a
    kernel of dimension r - N for every t; r points t on the unit circle
    give k = r (r - N) vectors, a whole kernel basis at each.
    """
    dims = tuple(rho.dims)
    if len(dims) != 2 or 2 not in dims:
        return None
    n = rho.dim // 2
    vals, vecs = rho.eigensystem()
    rank = linalg.numerical_rank(vals)
    if not n <= rank < 2 * n:
        return None
    complement = vecs[:, rank:]
    # Q as (rows, qubit, n)
    q = np.conj(complement.T).reshape((-1,) + dims)
    if dims[0] != 2:
        q = q.swapaxes(1, 2)
    if rank == n:
        try:
            lam, b = np.linalg.eig(
                np.linalg.solve(q[:, 0] + PENCIL_SHIFT * q[:, 1], q[:, 1]))
        except np.linalg.LinAlgError:
            return None
        a = np.stack([lam, PENCIL_SHIFT * lam - 1.0], axis=1)
        b = b.T
    else:
        t = np.exp(2j * np.pi * (np.arange(rank) + 0.5) / rank)
        vh = np.linalg.svd(q[:, 0] + t[:, None, None] * q[:, 1])[2]
        b = np.conj(vh[:, 2 * n - rank:]).reshape(-1, n)
        a = np.stack([np.ones(len(b)), np.repeat(t, rank - n)], axis=1)
    a /= np.linalg.norm(a, axis=1, keepdims=True)
    b /= np.linalg.norm(b, axis=1, keepdims=True)
    prod = a[:, :, None] * b[:, None, :]
    if dims[0] != 2:
        prod = prod.swapaxes(1, 2)
    prod = prod.reshape(len(b), -1)
    # |Q (a (x) b)|; a NaN from a singular pencil fails too
    if not np.all(np.linalg.norm(prod @ np.conj(complement), axis=1)
                  <= RANGE_RESIDUAL):
        return None
    return prod


def range_certificate(rho: states.QuantumState) -> QssVerdict | None:
    """Certificate from product vectors spanning range(rho) (see
    range_product_vectors): the reweighting of {z_i} by q_i ~ d_i |z_i|^2
    is the normalized sum of their projectors. None, never an exception,
    when there is no spanning set, the set is ill-conditioned or the
    certificate fails verify_certificate.
    """
    prod = range_product_vectors(rho)
    if prod is None:
        return None
    ens = states.spectral_ensemble(rho)
    # X^+ applied to the product vectors: column k is X^+ |a_k b_k>
    c = np.conj(np.array(ens.vectors)) @ prod.T
    c /= np.sqrt(ens.weights)[:, None]
    v, s, _ = np.linalg.svd(c)
    if s[-1] < SPAN_FLOOR * s[0]:
        return None
    z_ens = states.transform_ensemble(ens, v.T)
    weights = s * s * z_ens.weights
    weights /= weights.sum()
    if not verify_certificate(rho, z_ens, weights):
        return None
    evidence = {"rank": len(ens), "route": "range-product-vectors",
                "product_vectors": len(prod)}
    if rho.dim > 6:
        evidence["separability"] = PPT_ONLY
    return QssVerdict(QSS, (z_ens, weights), evidence)


def _check_budget(budget):
    if budget < 1:
        raise BadParameters(f"budget must be >= 1, got {budget}")


def heuristic_search(rho: states.QuantumState, budget=10000, seed=0) -> QssVerdict:
    """General-dimension fallback: the reweighting of rho whose partial
    transpose has the largest smallest eigenvalue.

    Each reweighting of rho = V Lambda V^dagger is V H V^dagger for a
    density matrix H > 0. This maximizes t s.t. Phi(H) = (V H V^dagger)^T_B
    >= t I, H >= min_certificate_weight I, by damped Newton steps on a
    log-barrier path from H = I / l. It stops with a certificate at the
    first Phi(H) >= 0, when the barrier gap (d + l) mu falls below
    |ppt_min_eig|, or after `budget` steps. Evidence: best_pt_eigenvalue,
    that of the last H; pt_eigenvalue_bound, an upper bound over every
    reweighting (weak duality); evaluations, the steps plus one. No result
    depends on `seed`. A budget below 1 raises BadParameters.
    """
    _check_budget(budget)
    if len(rho.dims) < 2:
        raise DimensionMismatch("need an explicit bipartition")
    pt_dims = (rho.dims[0], int(np.prod(rho.dims[1:])))
    d = rho.dim
    ens = states.spectral_ensemble(rho)
    l = len(ens)
    evidence = {"rank": l, "budget": budget}

    if l == 1:
        evidence["route"] = "rank-1"
        evidence["best_pt_eigenvalue"] = entanglement.min_pt_eigenvalue(
            rho.matrix, pt_dims
        )
        return QssVerdict(UNKNOWN, evidence=evidence)

    v = np.array(ens.vectors).T
    floor = TOLERANCES["min_certificate_weight"]

    def phi(h):
        return linalg.partial_transpose(v @ h @ linalg.dagger(v), pt_dims)

    h = np.eye(l) / l
    lam, u = np.linalg.eigh(phi(h))
    # t starts 1/d below the smallest eigenvalue; mu zeroes its gradient
    t = lam[0] - 1.0 / d
    mu = 1.0 / np.sum(1.0 / (lam - t))
    steps = 0
    while (lam[0] < 0.0 and steps < budget
           and (d + l) * mu >= -TOLERANCES["ppt_min_eig"]):
        if steps == 0:
            # on the first step only: E_k, from the real matrices orthogonal
            # to I. With H = I / l + sum_k y_k E_k, a unit step in (y, t)
            # along k moves H by h_dir[k] and Phi(H) - t I by pt_dir[k]
            x = np.linalg.svd(np.eye(l).ravel()[None])[2][1:].reshape(-1, l, l)
            basis = (x + x.swapaxes(1, 2) + 1j * (x - x.swapaxes(1, 2))) / 2
            h_dir = np.concatenate([basis, np.zeros((1, l, l))])
            pt_dir = np.concatenate([phi(basis), -np.eye(d)[None]])
        s = lam - t
        r, w = np.linalg.eigh(h - floor * np.eye(l))
        # the directions in the barriers' eigenbases, scaled by their
        # inverse square roots: the traces make the gradient and the Gram
        # matrix the Hessian, one (n x d^2)(d^2 x n) product
        a = linalg.dagger(u) @ pt_dir @ u / np.sqrt(np.outer(s, s))
        b = linalg.dagger(w) @ h_dir @ w / np.sqrt(np.outer(r, r))
        a, b = a.reshape(len(a), -1), b.reshape(len(b), -1)
        grad = a[:, ::d + 1].real.sum(axis=1) + b[:, ::l + 1].real.sum(axis=1)
        grad[-1] += 1.0 / mu
        gram = (a @ linalg.dagger(a)).real + (b @ linalg.dagger(b)).real
        try:
            step = np.linalg.solve(gram, grad)
        except np.linalg.LinAlgError:  # rounding, far down the path
            break
        # the step's local norm, the Newton decrement: a step of local
        # norm below 1 stays inside both barriers
        dec = np.sqrt(np.linalg.norm(step @ a) ** 2
                      + np.linalg.norm(step @ b) ** 2)
        step /= 1.0 + dec
        h = h + np.tensordot(step[:-1], basis, 1)
        t += step[-1]
        if dec < 2.0:  # near the central path: move along it
            mu *= 0.1
        steps += 1
        lam, u = np.linalg.eigh(phi(h))

    s = lam - t
    sigma = v @ h @ linalg.dagger(v)
    best = entanglement.min_pt_eigenvalue(sigma / np.trace(sigma).real,
                                          pt_dims)
    # for P = S / tr S and every H: lambda_min(Phi(H)) <= tr(P Phi(H)) =
    # tr(V^dagger P^T_B V H) <= lambda_max(V^dagger P^T_B V)
    p = linalg.partial_transpose((u / s) @ linalg.dagger(u), pt_dims)
    evidence["best_pt_eigenvalue"] = best
    evidence["pt_eigenvalue_bound"] = float(np.linalg.eigvalsh(
        linalg.dagger(v) @ p @ v)[-1] / np.sum(1.0 / s))
    evidence["evaluations"] = steps + 1
    if best >= 0.0:
        # z_i = V sqrt(Lambda) w_i for Lambda^-1/2 H Lambda^-1/2 = W D W^dagger
        root = 1.0 / np.sqrt(ens.weights)
        dw, wv = np.linalg.eigh(root[:, None] * h * root)
        z_ens = states.transform_ensemble(ens, wv.T)
        weights = dw * z_ens.weights
        weights /= weights.sum()
        if verify_certificate(rho, z_ens, weights):
            evidence["route"] = "heuristic-search"
            if d > 6:
                evidence["separability"] = PPT_ONLY
            return QssVerdict(QSS, (z_ens, weights), evidence)
    return QssVerdict(UNKNOWN, evidence=evidence)


def classify(rho: states.QuantumState, budget=10000, seed=0) -> QssVerdict:
    """Full pipeline: full rank -> two-qubit criterion, or separable ->
    range product vectors (2xN, Nx2) -> heuristic search.

    The full-rank route runs first so full-rank states always get the
    canonical uniform-weights certificate (reweighting to I/d), whether or
    not they happen to be separable already. The two-qubit criterion runs
    its own separability test first. An entangled 2xN or Nx2 state of
    rank at least N then tries range_certificate; when that finds no
    verified certificate, it and every other input go on to the heuristic
    search, the only route the budget bounds: it caps its Newton steps. An
    entangled pure state beyond two qubits is a NOT_QSS_CANDIDATE, as a
    two-qubit one is: its only decomposition is itself. A budget below 1
    raises BadParameters on every route. No verdict depends on `seed`.
    """
    _check_budget(budget)
    verdict = full_rank_certificate(rho)
    if verdict.status == QSS:
        return verdict
    if tuple(rho.dims) == (2, 2):
        return reweight_certificate_2q(rho)
    if entanglement.separable(rho):
        return _separable_certificate(rho)
    verdict = range_certificate(rho)
    if verdict is not None:
        return verdict
    verdict = heuristic_search(rho, budget=budget, seed=seed)
    if verdict.evidence.get("route") == "rank-1":
        return QssVerdict(NOT_QSS_CANDIDATE, evidence=verdict.evidence)
    return verdict
