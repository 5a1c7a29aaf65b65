"""Derivative-free search over protocol rounds.

Scores a round by the best outcome's simultaneous probability / purity /
entanglement margins, climbs the score with a seeded coordinate pattern
search around Haar-random and named starting rounds, and juxtaposes the
result with QSS verdicts to probe the impossibility statements: a verified
(QSS, QSS) pair together with a successful search would be a theorem
violation and must never occur.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import entanglement, linalg, protocol, qss, states
from .config import TOLERANCES
from .errors import BadParameters

_P_PROB = TOLERANCES["success_probability"]
_P_PURITY = TOLERANCES["success_purity"]
_P_ENT = TOLERANCES["success_entanglement"]


def outcome_score(prob, post_matrix, dims):
    """Product of probability, purity, and entanglement margins in [0, 1].

    A score of 1 (probability >= 1e-6, purity >= 1 - 1e-6, entanglement
    >= 1e-3) is necessary, not sufficient: outcome_success also needs a
    rank-1 post state, and a mixed outcome at 1 is a conservative miss.
    """
    if prob <= 0.0 or post_matrix is None:
        return 0.0
    return float(outcome_scores(np.array([prob]), post_matrix[None], dims)[0])


def outcome_scores(probs, posts, dims, above=-np.inf):
    """outcome_score of a stack: probabilities (L,), post matrices (L, n, n).

    The score is (m_p * m_pure) * m_ent with every margin at most 1, so an
    outcome whose first product is at most `above` (a scalar or one value
    per outcome) cannot score above it: its entanglement witness is
    skipped, and its entry is that product, an upper bound of its score.
    """
    m_p = np.minimum(1.0, probs / _P_PROB)
    purity = np.real(np.trace(posts @ posts, axis1=-2, axis2=-1))
    floor = 1.0 / posts.shape[-1]  # maximally mixed
    m_pure = np.minimum(
        1.0, np.maximum(0.0, (purity - floor) / (1.0 - _P_PURITY - floor))
    )
    scores = m_p * m_pure
    full = scores > above
    if full.any():
        ent = _entanglement_witness(posts[full], dims)
        scores[full] *= np.minimum(1.0, ent / _P_ENT)
    return scores


def _entanglement_witness(posts, dims):
    """Concurrence for two qubits; second Schmidt coefficient of the
    principal eigenvector otherwise. One value per matrix of the stack."""
    if tuple(dims) == (2, 2):
        return entanglement.concurrence_matrix(posts)
    da, db = dims
    if min(da, db) < 2:
        return np.zeros(len(posts))
    vecs = np.linalg.eigh(posts)[1][..., -1]
    return np.linalg.svd(vecs.reshape(-1, da, db), compute_uv=False)[:, 1]


def outcome_success(prob, post_state: states.QuantumState) -> bool:
    """A pure entangled outcome: probability above success_probability, a
    post state of numerical rank 1 (states.is_pure), and the entanglement
    witness that scores an outcome at least success_entanglement."""
    if post_state is None or prob <= _P_PROB or not states.is_pure(post_state):
        return False
    ent = _entanglement_witness(post_state.matrix[None], post_state.dims)[0]
    return bool(ent >= _P_ENT)


@dataclass(frozen=True)
class SearchReport:
    best_score: float
    best_round: protocol.ProtocolRound
    best_outcome: protocol.RoundOutcome | None
    restarts_used: int
    success: bool
    trace: tuple = ()
    # objective evaluations over all restarts, not counting the candidates
    # a run scored past its first improvement, and the processes the
    # restarts ran on; neither is part of to_dict
    evaluations: int = 0
    processes: int = 1

    def to_dict(self):
        best = self.best_outcome
        return {
            "best_score": self.best_score,
            "best_round": {
                "u_alice": states.complex_to_pairs(self.best_round.u_alice),
                "u_bob": states.complex_to_pairs(self.best_round.u_bob),
            },
            "best_outcome": None if best is None else best.to_dict(),
            "restarts_used": self.restarts_used,
            "success": self.success,
            "trace": list(self.trace),
        }


class _RoundScorer:
    """Scores stacks of candidate rounds for one (source, ancilla) pair."""

    def __init__(self, rho_s, rho_a):
        self.rho_s = rho_s
        self.rho_a = rho_a
        self.da = rho_s.dims[0] * rho_a.dims[0]
        self.db = rho_s.dims[1] * rho_a.dims[1]
        self.total = np.kron(rho_s.matrix, rho_a.matrix)
        self.work = []  # round_kernel's work arrays, reused across calls

    def score(self, u_alice, u_bob, above=-np.inf):
        """Best outcome score of each round of the stack, u_alice
        (..., da, da) and u_bob (..., db, db). A round whose score is at
        most `above` (one value per round) may get an upper bound that is
        also at most `above` in its place; see outcome_scores."""
        probs, blocks = protocol.round_kernel(
            self.total, self.rho_s.dims, self.rho_a.dims, u_alice, u_bob,
            self.work,
        )
        live = probs > TOLERANCES["probability_floor"]
        p = probs[live]
        bar = np.broadcast_to(np.asarray(above)[..., None], probs.shape)[live]
        scores = np.zeros(probs.shape)
        scores[live] = outcome_scores(
            p, blocks[live] / p[:, None, None], self.rho_s.dims, bar
        )
        return scores.max(axis=-1)


def _restart_bases(rho_s, rho_a, restarts, seed):
    """Starting (u_alice, u_bob) of each restart: restart i starts from the
    i-th named protocol round that fits the dimensions, or from Haar-random
    unitaries drawn from the seed sequence [seed, i]."""
    dsa, dsb = rho_s.dims
    daa, dab = rho_a.dims
    names = ["identity"]
    if (dsa, dsb) == (daa, dab):
        names.append("swap")
    if (dsa, dsb, daa, dab) == (2, 2, 2, 2):
        names.append("bilateral-cnot")
    rounds = [protocol.named_round(n, rho_s.dims, rho_a.dims) for n in names]
    bases = [(r.u_alice, r.u_bob) for r in rounds[:restarts]]
    for i in range(len(bases), restarts):
        rng = np.random.default_rng([seed, i])
        bases.append((linalg.haar_unitary_from_rng(dsa * daa, rng),
                      linalg.haar_unitary_from_rng(dsb * dab, rng)))
    return bases


def _search_chunk(rho_s, rho_a, bases, iters):
    """Pattern searches around base rounds [(u_alice, u_bob), ...], run in
    lockstep: each step scores the next run of candidates of every live
    restart (see linalg.PatternSearch) in one stacked call. Returns
    (score, u_alice, u_bob, evaluations) per restart, each bitwise
    independent of the other restarts in the chunk.
    """
    scorer = _RoundScorer(rho_s, rho_a)
    na = scorer.da**2
    n = na + scorer.db**2
    base_a, base_b = (np.array(u) for u in zip(*bases))
    sides = [(slice(0, na), scorer.da, base_a),
             (slice(na, n), scorer.db, base_b)]
    held = [base_a.copy(), base_b.copy()]  # each restart's current unitaries
    climb = linalg.PatternSearch(
        np.zeros((len(bases), n)), scorer.score(*held), iters, 1.0,
        linalg.run_length(len(bases)),
    )
    # a candidate moves one coordinate: its side is rebuilt, and the other
    # side is copied from its restart's current unitaries
    while (run := climb.run()) is not None:
        rows, cand, above = run
        on_a = climb.coords < na
        units = [h[rows] for h in held]
        for (cols, dim, base), u, moved in zip(sides, units, (on_a, ~on_a)):
            if moved.any():
                u[moved] = base[rows[moved]] @ linalg.parameterized_unitary(
                    cand[moved, cols], dim
                )
        taken = climb.read(scorer.score(*units, above))
        for h, u in zip(held, units):
            h[rows[taken]] = u[taken]
    return list(zip(climb.best.tolist(), *held, climb.evals.tolist()))


# A search forks a second process only when every chunk gets at least
# MIN_CHUNK restarts. Timed in fresh interpreters on two cores, 500
# iterations per restart (BENCH_12.json): from 32 restarts two processes
# mostly finished first, whether the other core was idle or busy; below
# that, which side finished first depended on the other core's load, and
# the pool's start-up, forks and per-process call overhead cost 1.3-2.0x
# the CPU of one process.
MIN_CHUNK = 16


def _restart_chunks(restarts, workers):
    """Contiguous runs of restart indices, one per process: at most
    `workers` runs, and more than one only when each holds at least
    MIN_CHUNK restarts; their lengths differ by at most one."""
    n = max(1, min(workers, restarts // MIN_CHUNK))
    edges = [restarts * k // n for k in range(n + 1)]
    return [range(a, b) for a, b in zip(edges, edges[1:])]


def optimize_protocol(
    rho_s,
    rho_a,
    restarts=16,
    iters=500,
    seed=0,
    workers=1,
) -> SearchReport:
    """Best protocol round found over seeded restarts.

    Each restart runs a coordinate pattern search (initial step 0.3 rad,
    halved on failed sweeps, floor 1e-4) in the unitary parameters around
    its starting round, with at most `iters` objective evaluations. Named
    protocol rounds are always among the starting points. The restarts are
    split into contiguous chunks, one process each: at most `workers` of
    them, and a single one, run in the caller, unless every chunk gets at
    least MIN_CHUNK restarts. A chunk runs its restarts as one
    linalg.PatternSearch, each step scoring a run of up to
    linalg.run_length(chunk size) candidates per restart in one stacked
    call. Candidates scored past a run's first improvement are discarded
    and are not evaluations.
    Fully deterministic for fixed (inputs, seed, restarts, iters), bitwise
    independent of worker count.
    """
    if restarts < 1:
        raise BadParameters("restarts must be >= 1")
    if iters < 1:
        raise BadParameters("iters must be >= 1")
    if workers < 1:
        raise BadParameters("workers must be >= 1")
    bases = _restart_bases(rho_s, rho_a, restarts, seed)
    chunks = [bases[c.start:c.stop] for c in _restart_chunks(restarts, workers)]
    n = len(chunks)
    if n > 1:
        # deferred: the pool's modules, logging among them, add about 4 ms
        # to start-up that an in-process search never needs
        import concurrent.futures

        with concurrent.futures.ProcessPoolExecutor(n) as ex:
            parts = list(ex.map(_search_chunk, [rho_s] * n, [rho_a] * n,
                                chunks, [iters] * n))
    else:
        parts = [_search_chunk(rho_s, rho_a, chunks[0], iters)]
    results = [r for part in parts for r in part]
    trace = tuple(float(r[0]) for r in results)
    best = max(range(restarts), key=lambda i: (results[i][0], -i))
    best_score, best_ua, best_ub, _ = results[best]
    best_round = protocol.ProtocolRound(best_ua, best_ub)
    outcomes = protocol.run_round(rho_s, rho_a, best_round)
    live = [o for o in outcomes if o.post_state is not None]
    best_outcome = None
    if live:
        best_outcome = max(
            live,
            key=lambda o: outcome_score(
                o.probability, o.post_state.matrix, rho_s.dims
            ),
        )
    success = best_outcome is not None and outcome_success(
        best_outcome.probability, best_outcome.post_state
    )
    return SearchReport(
        best_score=float(best_score),
        best_round=best_round,
        best_outcome=best_outcome,
        restarts_used=restarts,
        success=success,
        trace=trace,
        evaluations=sum(r[3] for r in results),
        processes=n,
    )


@dataclass(frozen=True)
class ProbeResult:
    verdict_source: qss.QssVerdict
    verdict_ancilla: qss.QssVerdict
    report: SearchReport
    violation: bool

    def to_dict(self):
        return {
            "verdict_source": self.verdict_source.to_dict(),
            "verdict_ancilla": self.verdict_ancilla.to_dict(),
            "report": self.report.to_dict(),
            "violation": self.violation,
        }


def impossibility_probe(
    rho_s, rho_a, budget=32000, seed=0, workers=1
) -> ProbeResult:
    """Classify both inputs, then search for a purifying round.

    A (QSS, QSS, success=true) result would contradict the impossibility
    theorem; the flag is surfaced so any occurrence fails loudly in the
    acceptance suite. The probe covers single rounds only and is evidence,
    never proof.
    """
    verdict_s = qss.classify(rho_s, budget=budget, seed=seed)
    verdict_a = qss.classify(rho_a, budget=budget, seed=seed)
    iters = 500
    restarts = max(1, budget // iters)
    report = optimize_protocol(
        rho_s, rho_a, restarts=restarts, iters=iters, seed=seed, workers=workers
    )
    violation = (
        verdict_s.status == qss.QSS
        and verdict_a.status == qss.QSS
        and report.success
    )
    return ProbeResult(verdict_s, verdict_a, report, violation)
