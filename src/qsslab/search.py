"""Derivative-free search over protocol rounds.

Scores a round by the best outcome's simultaneous probability / purity /
entanglement margins, climbs the score with a seeded coordinate pattern
search around Haar-random and named starting rounds, and juxtaposes the
result with QSS verdicts to probe the impossibility statements: a verified
(QSS, QSS) pair together with a successful search would be a theorem
violation and must never occur.
"""

from __future__ import annotations

import concurrent.futures
from dataclasses import dataclass, field

import numpy as np

from . import entanglement, linalg, protocol, qss, states
from .config import TOLERANCES
from .errors import BadParameters

_P_PROB = TOLERANCES["success_probability"]
_P_PURITY = TOLERANCES["success_purity"]
_P_ENT = TOLERANCES["success_entanglement"]


def outcome_score(prob, post_matrix, dims):
    """Product of probability, purity, and entanglement margins in [0, 1].

    Equals 1 exactly when the outcome meets the success predicate
    (probability > 1e-6, purity >= 1 - 1e-6, entanglement >= 1e-3).
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
    """The exact success predicate, with the entanglement witness that
    scores an outcome."""
    if post_state is None or prob <= _P_PROB:
        return False
    if states.purity(post_state) < 1.0 - _P_PURITY:
        return False
    ent = _entanglement_witness(post_state.matrix[None], post_state.dims)[0]
    return bool(ent >= _P_ENT)


def score_round(rho_s, rho_a, rnd) -> float:
    """Best outcome score of a round (see outcome_score)."""
    return float(_RoundScorer(rho_s, rho_a).score(rnd.u_alice, rnd.u_bob))


@dataclass(frozen=True)
class SearchReport:
    best_score: float
    best_round: protocol.ProtocolRound
    best_outcome: protocol.RoundOutcome | None
    restarts_used: int
    success: bool
    trace: tuple = ()
    # objective evaluations over all restarts; not part of to_dict
    evaluations: int = 0

    def to_dict(self):
        best_outcome = None
        if self.best_outcome is not None:
            post = self.best_outcome.post_state
            best_outcome = {
                "outcome": self.best_outcome.outcome_index,
                "probability": self.best_outcome.probability,
                "post_state": states.state_to_dict(post) if post else None,
            }
        return {
            "best_score": self.best_score,
            "best_round": {
                "u_alice": states.complex_to_pairs(self.best_round.u_alice),
                "u_bob": states.complex_to_pairs(self.best_round.u_bob),
            },
            "best_outcome": best_outcome,
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

    def score(self, u_alice, u_bob, above=-np.inf):
        """Best outcome score of each round of the stack, u_alice
        (..., da, da) and u_bob (..., db, db). A round whose score is at
        most `above` (one value per round) may get an upper bound that is
        also at most `above` in its place; see outcome_scores."""
        probs, blocks = protocol.round_kernel(
            self.total, self.rho_s.dims, self.rho_a.dims, u_alice, u_bob
        )
        live = probs > TOLERANCES["probability_floor"]
        p = probs[live]
        bar = np.broadcast_to(np.asarray(above)[..., None], probs.shape)[live]
        scores = np.zeros(probs.shape)
        scores[live] = outcome_scores(
            p, blocks[live] / p[:, None, None], self.rho_s.dims, bar
        )
        return scores.max(axis=-1)


def _restart_seeds(rho_s, rho_a, seeds_in):
    """Named protocols first, then caller-provided rounds."""
    dsa, dsb = rho_s.dims
    daa, dab = rho_a.dims
    rounds = [protocol.named_round("identity", rho_s.dims, rho_a.dims)]
    if (dsa, dsb) == (daa, dab):
        rounds.append(protocol.named_round("swap", rho_s.dims, rho_a.dims))
    if (dsa, dsb, daa, dab) == (2, 2, 2, 2):
        rounds.append(protocol.named_round("bilateral-cnot"))
    rounds.extend(seeds_in or [])
    return rounds


def _search_chunk(rho_s, rho_a, bases, iters):
    """Pattern searches around base rounds [(u_alice, u_bob), ...], run in
    lockstep: each step scores the pending candidate of every live restart
    in one stacked call. Returns (score, u_alice, u_bob, evaluations) per
    restart, each bitwise independent of the other restarts in the chunk.
    """
    scorer = _RoundScorer(rho_s, rho_a)
    na = scorer.da**2
    n = na + scorer.db**2
    sides = [  # (parameter columns, dimension, base unitaries)
        (slice(0, na), scorer.da, np.array([b[0] for b in bases])),
        (slice(na, n), scorer.db, np.array([b[1] for b in bases])),
    ]
    # each restart's last candidate: its parameters (NaN before the first)
    # and its two unitaries, of which only a side that moved is rebuilt
    last = np.full((len(bases), n), np.nan)
    units = [np.empty_like(base) for _, _, base in sides]
    searches = [linalg.pattern_search(np.zeros(n), iters, 1.0) for _ in bases]
    pending = [next(s) for s in searches]
    done = [None] * len(bases)
    live = np.arange(len(bases))
    while live.size:
        cand = np.array([pending[r][0] for r in live])
        for (cols, dim, base), u in zip(sides, units):
            moved = np.any(cand[:, cols] != last[live, cols], axis=1)
            if moved.any():
                rows = live[moved]
                u[rows] = base[rows] @ linalg.parameterized_unitary(
                    cand[moved, cols], dim
                )
        last[live] = cand
        vals = scorer.score(
            units[0][live], units[1][live],
            np.array([pending[r][1] for r in live]),
        )
        still = []
        for r, val in zip(live, vals):
            try:
                pending[r] = searches[r].send(float(val))
                still.append(r)
            except StopIteration as stop:
                done[r] = stop.value
        live = np.array(still, dtype=int)
    thetas = np.array([theta for _, theta, _ in done])
    u_a, u_b = (
        base @ linalg.parameterized_unitary(thetas[:, cols], dim)
        for cols, dim, base in sides
    )
    return [
        (best, ua, ub, evals)
        for (best, _, evals), ua, ub in zip(done, u_a, u_b)
    ]


def _chunk_task(args):
    """Run a chunk of restarts; returns (index, score, u_alice, u_bob,
    evaluations) per restart. Restart i starts from the i-th seed round,
    or from Haar-random unitaries drawn from the seed sequence [seed, i]."""
    rho_s, rho_a, seed, indices, iters, seed_rounds = args
    da = rho_s.dims[0] * rho_a.dims[0]
    db = rho_s.dims[1] * rho_a.dims[1]
    bases = []
    for index in indices:
        if index < len(seed_rounds):
            rnd = seed_rounds[index]
            bases.append((rnd.u_alice, rnd.u_bob))
        else:
            rng = np.random.default_rng([seed, index])
            bases.append((linalg.haar_unitary_from_rng(da, rng),
                          linalg.haar_unitary_from_rng(db, rng)))
    results = _search_chunk(rho_s, rho_a, bases, iters)
    return [(i, *res) for i, res in zip(indices, results)]


def _restart_chunks(restarts, workers):
    """Contiguous runs of restart indices, one per worker process and never
    more runs than restarts; their lengths differ by at most one."""
    n = min(workers, restarts)
    edges = [restarts * k // n for k in range(n + 1)]
    return [range(a, b) for a, b in zip(edges, edges[1:])]


def optimize_protocol(
    rho_s,
    rho_a,
    restarts=16,
    iters=500,
    seed=0,
    seeds_in=None,
    workers=1,
) -> SearchReport:
    """Best protocol round found over seeded restarts.

    Each restart runs a coordinate pattern search (initial step 0.3 rad,
    halved on failed sweeps, floor 1e-4) in the unitary parameters around
    its starting round, with at most `iters` objective evaluations. Named
    protocol rounds are always among the starting points. The restarts are
    split into min(workers, restarts) contiguous chunks, one process each;
    a chunk runs its restarts in lockstep. Fully deterministic for fixed
    (inputs, seed, restarts, iters), bitwise independent of worker count.
    """
    if restarts < 1:
        raise BadParameters("restarts must be >= 1")
    if workers < 1:
        raise BadParameters("workers must be >= 1")
    seed_rounds = _restart_seeds(rho_s, rho_a, seeds_in)
    tasks = [
        (rho_s, rho_a, seed, chunk, iters, seed_rounds)
        for chunk in _restart_chunks(restarts, workers)
    ]
    if len(tasks) > 1:
        with concurrent.futures.ProcessPoolExecutor(len(tasks)) as ex:
            parts = list(ex.map(_chunk_task, tasks))
    else:
        parts = [_chunk_task(tasks[0])]
    results = [r for part in parts for r in part]
    trace = tuple(float(r[1]) for r in results)
    best_index, best_score, best_ua, best_ub, _ = max(
        results, key=lambda r: (r[1], -r[0])
    )
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
        evaluations=sum(r[4] for r in results),
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
