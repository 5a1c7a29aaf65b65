import concurrent.futures

import numpy as np
import pytest

from qsslab import entanglement, linalg, protocol, qss, search, states
from qsslab.config import TOLERANCES
from qsslab.errors import BadParameters
from conftest import eq10_source, eq11_ancilla


def score_round(rho_s, rho_a, name):
    """Best outcome score of a named round."""
    rnd = protocol.named_round(name, rho_s.dims, rho_a.dims)
    return search._RoundScorer(rho_s, rho_a).score(rnd.u_alice, rnd.u_bob)


def test_score_cnot_example_is_success():
    score = score_round(eq10_source(), eq11_ancilla(), "bilateral-cnot")
    assert score >= 1.0 - 1e-9


def test_score_identity_on_werner_pair_below_one():
    w = states.werner(0.9)
    score = score_round(w, w, "identity")
    assert score < 1.0 - 1e-3


def test_score_swap_case():
    rho_s = states.pure_state(states.basis_ket((0, 0), (2, 2)))
    rho_a = states.pure_state(states.PHI_PLUS)
    score = score_round(rho_s, rho_a, "swap")
    assert score >= 1.0 - 1e-9


def test_optimize_finds_cnot_via_seed():
    rep = search.optimize_protocol(
        eq10_source(), eq11_ancilla(), restarts=4, iters=50, seed=0
    )
    assert rep.success
    assert rep.best_outcome.probability >= 0.12
    assert abs(rep.best_outcome.probability - 0.125) <= 1e-6
    assert states.fidelity_pure(rep.best_outcome.post_state, states.PHI_PLUS) >= 1 - 1e-9


def test_optimize_finds_swap_via_seed():
    rho_s = states.pure_state(states.basis_ket((0, 0), (2, 2)))
    rho_a = states.pure_state(states.PHI_PLUS)
    rep = search.optimize_protocol(rho_s, rho_a, restarts=4, iters=50, seed=0)
    assert rep.success
    assert abs(rep.best_outcome.probability - 1.0) <= 1e-6


def test_outcome_success_on_2x3_posts_matches_schmidt_route(rng):
    def schmidt_route(prob, post):  # the predicate's former 2x3 branch
        vals, vecs = np.linalg.eigh(post.matrix)
        if prob <= 1e-6 or vals[-2] > TOLERANCES["rank_cutoff_rel"] * vals[-1]:
            return False
        coeffs = entanglement.schmidt_coefficients(vecs[:, -1], post.dims)
        return float(coeffs[1]) >= 1e-3

    product = np.kron(states.ket(0, 2), states.random_pure_from_rng((3,), rng))
    near_product = product + 5e-4 * states.random_pure_from_rng((2, 3), rng)
    # an entangled post with lambda_2 / lambda_1 = 1e-8: purity 1 - 2e-8
    psi = states.random_pure_from_rng((2, 3), rng)
    phi = states.random_pure_from_rng((2, 3), rng)
    phi = phi - np.vdot(psi, phi) * psi
    phi = phi / np.linalg.norm(phi)
    eps = 1e-8 / (1 + 1e-8)
    m = (1 - eps) * np.outer(psi, np.conj(psi)) + eps * np.outer(phi,
                                                                 np.conj(phi))
    near_pure = states.QuantumState((m + np.conj(m.T)) / 2, (2, 3))
    posts = [
        states.pure_state(states.random_pure_from_rng((2, 3), rng), (2, 3)),
        states.pure_state(product, (2, 3)),
        states.pure_state(near_product / np.linalg.norm(near_product), (2, 3)),
        states.random_density_from_rng((2, 3), rng, rank=2),
        near_pure,
    ]
    got = [search.outcome_success(0.5, post) for post in posts]
    assert got == [schmidt_route(0.5, post) for post in posts]
    assert got[0] and not got[1]
    # a purity rule at 1 - 1e-6 would call the last post pure
    assert states.purity(near_pure) >= 1.0 - 1e-6 and not got[-1]


def test_optimize_rejects_bad_restarts():
    with pytest.raises(BadParameters):
        search.optimize_protocol(states.werner(0.9), states.werner(0.9), restarts=0)
    with pytest.raises(BadParameters):
        search.optimize_protocol(states.werner(0.9), states.werner(0.9), iters=0)


def test_outcome_success_needs_a_rank_one_post():
    # (1 - eps)|psi><psi| + eps|phi><phi|, phi orthogonal to psi: the score
    # is 1 up to eps = 4e-7, but the post is pure only at eps = 0
    rng = np.random.default_rng([16, 0])
    for dims in [(2, 2), (2, 3)]:
        psi = states.random_pure_from_rng(dims, rng)
        phi = states.random_pure_from_rng(dims, rng)
        phi = phi - np.vdot(psi, phi) * psi
        phi = phi / np.linalg.norm(phi)
        for eps in [0.0, 1e-9, 1e-8, 1e-7, 4e-7]:
            m = (1 - eps) * np.outer(psi, np.conj(psi)) + eps * np.outer(
                phi, np.conj(phi)
            )
            post = states.QuantumState((m + np.conj(m.T)) / 2, dims)
            assert search.outcome_score(0.5, post.matrix, dims) == 1.0
            assert states.is_pure(post) == (eps == 0.0)
            assert search.outcome_success(0.5, post) == (eps == 0.0)


def test_optimize_deterministic_and_worker_independent():
    rho_s = states.werner(0.85)
    rho_a = states.werner(0.85)
    rep1 = search.optimize_protocol(rho_s, rho_a, restarts=4, iters=60, seed=7)
    rep2 = search.optimize_protocol(rho_s, rho_a, restarts=4, iters=60, seed=7)
    rep3 = search.optimize_protocol(
        rho_s, rho_a, restarts=4, iters=60, seed=7, workers=2
    )
    assert rep1.trace == rep2.trace == rep3.trace
    assert rep1.best_score == rep2.best_score == rep3.best_score
    assert np.array_equal(rep1.best_round.u_alice, rep3.best_round.u_alice)
    assert np.array_equal(rep1.best_round.u_bob, rep3.best_round.u_bob)
    assert rep3.processes == 1  # 4 restarts run in the caller
    # 64 restarts give each of two workers at least search.MIN_CHUNK: the
    # pool runs, and its chunks reproduce the single-process search bitwise
    one = search.optimize_protocol(rho_s, rho_a, restarts=64, iters=20, seed=7)
    two = search.optimize_protocol(
        rho_s, rho_a, restarts=64, iters=20, seed=7, workers=2
    )
    assert (one.processes, two.processes) == (1, 2)
    assert one.trace == two.trace
    assert one.best_round.u_alice.tobytes() == two.best_round.u_alice.tobytes()
    assert one.best_round.u_bob.tobytes() == two.best_round.u_bob.tobytes()
    assert one.evaluations == two.evaluations
    assert one.to_dict() == two.to_dict()
    assert "processes" not in one.to_dict()


def test_small_search_starts_no_pool(monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a 2-restart search started a process pool")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    w = states.werner(0.9)
    rep = search.optimize_protocol(w, w, restarts=2, iters=20, seed=0, workers=2)
    assert rep.processes == 1
    assert len(rep.trace) == 2


def test_trace_has_one_entry_per_restart():
    rep = search.optimize_protocol(
        states.werner(0.9), states.werner(0.9), restarts=5, iters=30, seed=1
    )
    assert len(rep.trace) == 5
    assert rep.restarts_used == 5
    assert all(0.0 <= t <= 1.0 for t in rep.trace)
    assert rep.best_score == max(rep.trace)


def test_impossibility_probe_werner_pair():
    w = states.werner(0.9)
    result = search.impossibility_probe(w, w, budget=2000, seed=0)
    assert result.verdict_source.status == qss.QSS
    assert result.verdict_ancilla.status == qss.QSS
    assert not result.report.success
    assert not result.violation


def test_impossibility_probe_eq10_eq11_positive():
    result = search.impossibility_probe(
        eq10_source(), eq11_ancilla(), budget=2000, seed=0
    )
    assert result.verdict_source.status == qss.NOT_QSS_CANDIDATE
    assert result.verdict_ancilla.status == qss.NOT_QSS_CANDIDATE
    assert result.report.success
    assert not result.violation


def test_report_serialization():
    rep = search.optimize_protocol(
        eq10_source(), eq11_ancilla(), restarts=3, iters=20, seed=0
    )
    import json

    data = rep.to_dict()
    text = json.dumps(data, sort_keys=True)
    assert json.loads(text) == data
    assert data["success"] is True


# Per-restart (best score, evaluations), recorded from the one-restart-at-a-
# time search that the lockstep search replaced; "2x3-rank-3-37", whose
# budget runs out inside runs of candidates, from the lockstep search that
# scored one candidate per restart and step. Inputs: GOLDEN_INPUTS.
GOLDEN = {
    "full-rank-101": [
        (0.8125569113113741, 500),
        (0.837439474676603, 500),
        (0.8511073100135877, 500),
        (0.8686708327030938, 500),
        (0.8468256306149851, 500),
        (0.8707895693586891, 500),
        (0.8689446384639508, 500),
        (0.8526940866491182, 500),
    ],
    "full-rank-202": [
        (0.8257675593900202, 500),
        (0.8366066689946987, 500),
        (0.8313565813646185, 500),
        (0.8429083882981065, 500),
        (0.8278040691884166, 500),
        (0.8826653111039866, 500),
        (0.8923142794565089, 500),
        (0.866902620164012, 500),
    ],
    "2x3-rank-3": [
        (0.5253545629332275, 200),
        (0.6805185970496276, 200),
        (0.7262366365691753, 200),
        (0.7084714369428479, 200),
    ],
    "2x3-rank-3-37": [
        (0.24093633440842743, 37),
        (0.29091417058667723, 37),
        (0.30872296440271924, 37),
    ],
    "cnot": [
        (0.798823359343912, 50),
        (0.8143248014338927, 50),
        (1.0, 1),
        (0.5461446061181222, 50),
    ],
    "swap": [
        (0.0, 50),
        (1.0, 1),
        (0.0, 50),
        (1.0, 1),
    ],
}


def _full_rank_pair(key):
    rng = np.random.default_rng(key)
    rho_s = states.random_density_from_rng((2, 2), rng)
    return rho_s, states.random_density_from_rng((2, 2), rng)


def _two_by_three_pair():
    rng = np.random.default_rng(303)
    rho_s = states.random_density_from_rng((2, 3), rng, rank=3)
    return rho_s, states.random_density_from_rng((2, 2), rng)


# name -> (make pair, restarts, iters, seed)
GOLDEN_INPUTS = {
    "full-rank-101": (lambda: _full_rank_pair(101), 8, 500, 3),
    "full-rank-202": (lambda: _full_rank_pair(202), 8, 500, 6),
    "2x3-rank-3": (_two_by_three_pair, 4, 200, 5),
    "2x3-rank-3-37": (_two_by_three_pair, 3, 37, 8),
    "cnot": (lambda: (eq10_source(), eq11_ancilla()), 4, 50, 0),
    "swap": (lambda: (states.pure_state(states.basis_ket((0, 0), (2, 2))),
                      states.pure_state(states.PHI_PLUS)), 4, 50, 0),
}


def _run_chunks(rho_s, rho_a, seed, chunks, iters):
    """(index, score, u_alice, u_bob, evaluations) per restart, each chunk
    of restart indices searched on its own."""
    bases = search._restart_bases(rho_s, rho_a, chunks[-1].stop, seed)
    return [
        (i, *r) for chunk in chunks
        for i, r in zip(chunk, search._search_chunk(
            rho_s, rho_a, bases[chunk.start:chunk.stop], iters))
    ]


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_restart_traces_match_golden(name):
    make, restarts, iters, seed = GOLDEN_INPUTS[name]
    rho_s, rho_a = make()
    want_scores = np.array([score for score, _ in GOLDEN[name]])
    want_counts = [count for _, count in GOLDEN[name]]
    per_restart = _run_chunks(rho_s, rho_a, seed, [range(restarts)], iters)
    assert [r[4] for r in per_restart] == want_counts
    rep = search.optimize_protocol(
        rho_s, rho_a, restarts=restarts, iters=iters, seed=seed
    )
    assert np.max(np.abs(np.array(rep.trace) - want_scores)) <= 1e-12
    assert rep.trace == tuple(r[1] for r in per_restart)
    assert rep.evaluations == sum(want_counts)
    assert "evaluations" not in rep.to_dict()


def test_lockstep_chunks_are_bitwise_independent():
    rho_s, rho_a = _full_rank_pair(404)
    whole = _run_chunks(rho_s, rho_a, 9, [range(8)], 150)
    split = _run_chunks(rho_s, rho_a, 9, [range(3), range(3, 8)], 150)
    single = _run_chunks(rho_s, rho_a, 9, [range(i, i + 1) for i in range(8)],
                         150)
    rep = search.optimize_protocol(rho_s, rho_a, restarts=8, iters=150, seed=9)
    best = max(whole, key=lambda r: (r[1], -r[0]))
    for other in (split, single):
        assert len(other) == len(whole)
        for a, b in zip(whole, other):
            assert a[0] == b[0] and a[1] == b[1] and a[4] == b[4]
            assert a[2].tobytes() == b[2].tobytes()
            assert a[3].tobytes() == b[3].tobytes()
    assert rep.trace == tuple(r[1] for r in whole)
    assert rep.best_round.u_alice.tobytes() == best[2].tobytes()
    assert rep.best_round.u_bob.tobytes() == best[3].tobytes()


@pytest.mark.parametrize("make", [lambda: _full_rank_pair(505),
                                  _two_by_three_pair])
def test_lockstep_results_do_not_depend_on_run_length(make, monkeypatch):
    rho_s, rho_a = make()
    monkeypatch.setattr(linalg, "STEP_ROWS", 1000)
    results = {}
    for lookahead in (1, 2, 3, 4, 6):
        monkeypatch.setattr(linalg, "LOOKAHEAD", lookahead)
        results[lookahead] = _run_chunks(rho_s, rho_a, 2, [range(5)], 77)
    for other in results.values():
        for a, b in zip(results[1], other):
            assert a[0] == b[0] and a[1] == b[1] and a[4] == b[4]
            assert a[2].tobytes() == b[2].tobytes()
            assert a[3].tobytes() == b[3].tobytes()


def test_optimize_rejects_bad_workers():
    for workers in (0, -1):
        with pytest.raises(BadParameters):
            search.optimize_protocol(
                states.werner(0.9), states.werner(0.9), workers=workers
            )


def test_restart_chunks_cover_restarts_in_order():
    # a second process only when every chunk gets search.MIN_CHUNK restarts
    assert search.MIN_CHUNK == 16
    assert search._restart_chunks(64, 2) == [range(0, 32), range(32, 64)]
    assert search._restart_chunks(31, 2) == [range(0, 31)]
    assert search._restart_chunks(32, 2) == [range(0, 16), range(16, 32)]
    assert search._restart_chunks(2, 512) == [range(0, 2)]
    assert search._restart_chunks(7, 1) == [range(0, 7)]
    assert search._restart_chunks(50, 8) == [
        range(0, 16), range(16, 33), range(33, 50)
    ]
    for restarts in [*range(1, 70), 127, 128, 300]:
        for workers in range(1, 14):
            chunks = search._restart_chunks(restarts, workers)
            assert len(chunks) == max(1, min(workers, restarts // 16))
            assert [i for c in chunks for i in c] == list(range(restarts))
            sizes = [len(c) for c in chunks]
            assert max(sizes) - min(sizes) <= 1
            assert len(chunks) == 1 or min(sizes) >= 16


def test_round_scorer_results_survive_later_stacks():
    # the scorer reuses its round-kernel work arrays across calls; each
    # stack's scores must match a fresh scorer's and outlive later calls
    rng = np.random.default_rng([52, 0])
    rho_s, rho_a = _full_rank_pair(3)
    scorer = search._RoundScorer(rho_s, rho_a)
    results = []
    for n in (32, 3, 64):
        uas = np.array([linalg.haar_unitary_from_rng(4, rng) for _ in range(n)])
        ubs = np.array([linalg.haar_unitary_from_rng(4, rng) for _ in range(n)])
        scores = scorer.score(uas, ubs)
        results.append((uas, ubs, scores, scores.copy()))
    for uas, ubs, scores, kept in results:
        assert scores.tobytes() == kept.tobytes()
        fresh = search._RoundScorer(rho_s, rho_a).score(uas, ubs)
        assert fresh.tobytes() == scores.tobytes()


def test_outcome_scores_cut_is_an_upper_bound(rng):
    posts, probs = [], []
    for rank in (1, 1, 2, 3, 4):
        posts.append(states.random_density_from_rng((2, 2), rng, rank=rank).matrix)
        probs.append(float(rng.uniform(1e-7, 1.0)))
    posts, probs = np.array(posts), np.array(probs)
    exact = search.outcome_scores(probs, posts, (2, 2))
    for p, m, s in zip(probs, posts, exact):
        assert s == search.outcome_score(p, m, (2, 2))
    for above in (0.0, 0.3, 0.9):
        cut = search.outcome_scores(probs, posts, (2, 2), above)
        assert np.all(cut >= exact)
        assert np.all((cut == exact) | (cut <= above))
