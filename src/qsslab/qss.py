"""Quasi-separability classification.

A state is quasi-separable (QSS) when some reweighting of one of its
pure-state decompositions is separable. Full-rank states always are (the
uniform reweighting of the eigenbasis is maximally mixed); rank-deficient
two-qubit states are decided through the diagonal spin-flip decomposition;
separable states are their own certificate; 2xN and Nx2 states of rank at
least N get one in closed form from product vectors spanning their range;
everything else gets a budgeted derivative-free search.

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
    """General-dimension fallback: search decompositions and weights for a
    reweighting whose partial transpose is positive.

    Maximizes the minimum partial-transpose eigenvalue over (unitary mixing
    of the spectral ensemble, weight simplex) by seeded pattern search.
    Each climb scores its runs of candidates (see linalg.pattern_search)
    in one stacked call; its decisions are those of a climb that scores
    one candidate at a time. Deterministic for a fixed seed. classify calls
    it only after the full-rank, separability and range routes, so it
    runs neither of the first two checks itself. A budget below 1 raises
    BadParameters.
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

    x = np.array([np.sqrt(w) * v for w, v in ens.members])
    floor = TOLERANCES["min_certificate_weight"]
    target = TOLERANCES["ppt_min_eig"]
    lookahead = linalg.run_length(1)

    def mixing(params):
        """Mixing unitaries and weights of parameters (..., l^2 + l)."""
        u = linalg.parameterized_unitary(params[..., : l * l], l)
        raw = params[..., l * l:]
        weights = raw * raw + floor
        return u, weights / weights.sum(axis=-1, keepdims=True)

    def objective(params):
        """Scores of a run (k, l^2 + l). The reweighted states are summed
        member by member, in member order, so each score is bitwise
        independent of the run length."""
        u, weights = mixing(params)
        z = u @ x
        norms = np.real(np.einsum("kij,kij->ki", np.conj(z), z))
        scale = weights / norms
        m = np.zeros((len(params), d, d), dtype=complex)
        for zi, si in zip(z.swapaxes(0, 1), scale.T):
            m += si[:, None, None] * (zi[:, :, None] * np.conj(zi[:, None, :]))
        m /= np.real(np.trace(m, axis1=-2, axis2=-1))[:, None, None]
        return entanglement.min_pt_eigenvalue(m, pt_dims).tolist()

    best_val, best_theta = -np.inf, None
    evals = 0
    restart = 0
    while evals < budget:
        if restart == 0:
            p = np.concatenate([np.zeros(l * l), np.ones(l)])
        else:
            r_rng = np.random.default_rng([seed, restart])
            p = np.concatenate([
                r_rng.uniform(-np.pi, np.pi, l * l),
                r_rng.uniform(0.2, 1.0, l),
            ])
        climb = linalg.pattern_search(p, budget - evals, target, lookahead)
        run, _ = next(climb)
        try:
            while True:
                run, _ = climb.send(objective(np.array(run)))
        except StopIteration as stop:
            val, theta, used = stop.value
        evals += used
        if val > best_val:
            best_val, best_theta = val, theta
        if best_val >= target:
            break
        restart += 1

    evidence["best_pt_eigenvalue"] = float(best_val)
    evidence["evaluations"] = evals
    if best_val >= target:
        u, weights = mixing(best_theta)
        z_ens = states.transform_ensemble(ens, u)
        evidence["route"] = "heuristic-search"
        if d > 6:
            evidence["separability"] = PPT_ONLY
        try:
            return _verified(rho, z_ens, weights, evidence)
        except QsslabError:
            pass
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
    search, the only route the budget bounds. An entangled pure state
    beyond two qubits is a NOT_QSS_CANDIDATE, as a two-qubit one is: its
    only decomposition is itself. A budget below 1 raises BadParameters on
    every route.
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
