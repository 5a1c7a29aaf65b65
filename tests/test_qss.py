import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qsslab import entanglement, qss, states
from qsslab.config import TOLERANCES
from qsslab.errors import BadParameters, DimensionMismatch, QsslabError
from conftest import bell_projector, eq10_source, eq11_ancilla

_SEEDS = st.integers(0, 2**32 - 1)


def test_full_rank_certificate_werner():
    verdict = qss.full_rank_certificate(states.werner(0.9))
    assert verdict.status == qss.QSS
    ens, w = verdict.certificate
    out = states.reweight(ens, w)
    assert np.max(np.abs(out.matrix - np.eye(4) / 4)) <= 1e-10
    assert entanglement.ppt_separable(out)


def test_full_rank_certificate_rank_deficient_defers():
    verdict = qss.full_rank_certificate(states.pure_state(states.PHI_PLUS))
    assert verdict.status == qss.UNKNOWN
    assert verdict.evidence["rank"] == 1


def test_full_rank_certificate_identity_mixing(rng):
    # any state mixed with a sliver of identity has full rank, hence QSS
    rho = states.pure_state(states.PHI_PLUS)
    eps = 1e-3
    mixed = states.QuantumState(
        (1 - eps) * rho.matrix + eps * np.eye(4) / 4, (2, 2)
    )
    assert qss.full_rank_certificate(mixed).status == qss.QSS


def test_reweight_certificate_bell_diagonal():
    m = 0.7 * bell_projector(states.PHI_PLUS) + 0.3 * bell_projector(
        states.PSI_MINUS
    )
    verdict = qss.reweight_certificate_2q(states.QuantumState(m, (2, 2)))
    assert verdict.status == qss.QSS
    ens, w = verdict.certificate
    assert np.allclose(sorted(w), [0.5, 0.5], atol=1e-6)
    assert entanglement.ppt_separable(states.reweight(ens, w))


def test_reweight_certificate_eq10_is_candidate():
    verdict = qss.reweight_certificate_2q(eq10_source())
    assert verdict.status == qss.NOT_QSS_CANDIDATE
    lam = verdict.evidence["lambda_primes"]
    assert lam[0] > 1e-3
    assert np.max(lam[1:]) <= 1e-9


def test_reweight_certificate_separable_state():
    verdict = qss.reweight_certificate_2q(states.werner(0.2))
    assert verdict.status == qss.QSS
    ens, w = verdict.certificate
    recon = states.reweight(ens, w)
    assert np.max(np.abs(recon.matrix - states.werner(0.2).matrix)) <= 1e-9


def test_reweight_certificate_requires_two_qubits():
    rho = states.QuantumState(np.eye(6) / 6, (2, 3))
    with pytest.raises(DimensionMismatch):
        qss.reweight_certificate_2q(rho)


def test_heuristic_search_full_rank_trivial(rng):
    rho = states.random_density_from_rng((2, 2), rng)
    verdict = qss.heuristic_search(rho, budget=10)
    assert verdict.status == qss.QSS


def test_heuristic_search_rank_one_unknown():
    verdict = qss.heuristic_search(states.pure_state(states.PHI_PLUS), budget=100)
    assert verdict.status == qss.UNKNOWN
    assert verdict.evidence["route"] == "rank-1"


def test_heuristic_search_eq10_unknown():
    verdict = qss.heuristic_search(eq10_source(), budget=10**4)
    assert verdict.status == qss.UNKNOWN
    assert "best_pt_eigenvalue" in verdict.evidence


def test_heuristic_search_deterministic():
    rho = states.random_density(( 2, 3), rank=4, seed=5)
    v1 = qss.heuristic_search(rho, budget=500)
    v2 = qss.heuristic_search(rho, budget=500)
    assert v1.status == v2.status
    assert v1.evidence.get("best_pt_eigenvalue") == v2.evidence.get(
        "best_pt_eigenvalue"
    )


def test_heuristic_search_rank_deficient_2x3():
    # rank-5 2x3 states are rank deficient; the search finds a separable
    # reweighting of each
    for seed in range(3):
        rho = states.random_density((2, 3), rank=5, seed=seed)
        verdict = qss.heuristic_search(rho, budget=4000)
        assert verdict.status == qss.QSS
        ens, w = verdict.certificate
        assert qss.verify_certificate(rho, ens, w)


# (rank, seed) -> (status, best_pt_eigenvalue, evaluations,
# pt_eigenvalue_bound) of heuristic_search(random_density((2, 3), rank,
# seed), budget=1000, seed). Every start here is not PPT.
HEURISTIC_GOLDEN = {
    (2, 0): (qss.UNKNOWN, -0.05119083812436394, 30,
             -0.051190715838207064),
    (2, 1): (qss.UNKNOWN, -0.13526270075082172, 29,
             -0.13526255632485076),
    (3, 0): (qss.UNKNOWN, -5.87431345451386e-11, 38,
             2.2290787367369048e-08),
    (3, 5): (qss.UNKNOWN, -6.312701829940104e-11, 38,
             5.945080707878974e-08),
    (4, 1): (qss.QSS, 0.0013828947960904385, 4,
             0.07987297289896057),
    (4, 2): (qss.QSS, 0.0007268779841498268, 2,
             0.12978145151368026),
    (4, 3): (qss.QSS, 0.0026055499439628996, 2,
             0.12652246072603957),
}
# best_pt_eigenvalue of the UNKNOWN cases as a 1000-evaluation pattern
# search over unitary mixings and weights reached it: a lower bound on the
# optimum
CLIMB_BEST = {
    (2, 0): -0.05120046825415155,
    (2, 1): -0.13527556709353925,
    (3, 0): -0.012300100655126829,
    (3, 5): -0.0004807907359569947,
}


def _check_heuristic_verdict(rho, verdict, rank, seed):
    """The verdict matches HEURISTIC_GOLDEN: rank 4 is QSS with a verified
    certificate, ranks 2 and 3 are UNKNOWN at least as high as the climb
    got, with the bound within 1e-5 of the best."""
    ev = verdict.evidence
    best, bound = ev["best_pt_eigenvalue"], ev["pt_eigenvalue_bound"]
    assert (verdict.status, best, ev["evaluations"], bound) == \
        HEURISTIC_GOLDEN[rank, seed]
    assert verdict.status == (qss.QSS if rank == 4 else qss.UNKNOWN)
    assert best <= bound
    if verdict.status == qss.QSS:
        assert best >= 0.0
        assert qss.verify_certificate(rho, *verdict.certificate)
    else:
        assert verdict.certificate is None
        assert best >= CLIMB_BEST[rank, seed]
        assert bound <= best + 1e-5


@pytest.mark.parametrize("rank, seed", sorted(HEURISTIC_GOLDEN))
def test_heuristic_search_matches_golden(rank, seed):
    rho = states.random_density((2, 3), rank=rank, seed=seed)
    verdict = qss.heuristic_search(rho, budget=1000)
    _check_heuristic_verdict(rho, verdict, rank, seed)


def test_heuristic_search_stops_at_a_ppt_start():
    # the uniform reweighting of a rank-5 2x3 eigenbasis is already PPT
    rho = states.random_density((2, 3), rank=5, seed=0)
    verdict = qss.heuristic_search(rho, budget=1000)
    assert verdict.status == qss.QSS
    assert verdict.evidence["evaluations"] == 1
    ens, w = verdict.certificate
    assert qss.verify_certificate(rho, ens, w)


@pytest.mark.parametrize("seed", [0, 5])
def test_classify_certifies_rank_3_golden_states_from_the_range(seed):
    # the heuristic spends its budget on these and returns UNKNOWN
    rho = states.random_density((2, 3), rank=3, seed=seed)
    verdict = qss.classify(rho, budget=1000, seed=seed)
    assert verdict.status == qss.QSS
    assert verdict.evidence == {"rank": 3, "route": "range-product-vectors",
                                "product_vectors": 3}
    assert qss.verify_certificate(rho, *verdict.certificate)


@pytest.mark.parametrize("seed", [0, 1])
def test_classify_keeps_the_heuristic_verdict_on_rank_2_golden_states(seed):
    # rank 2 < N = 3: the range route does not apply
    rho = states.random_density((2, 3), rank=2, seed=seed)
    assert qss.range_product_vectors(rho) is None
    verdict = qss.classify(rho, budget=1000, seed=seed)
    _check_heuristic_verdict(rho, verdict, 2, seed)
    _, best, evals, bound = HEURISTIC_GOLDEN[2, seed]
    assert verdict.evidence == {"rank": 2, "budget": 1000,
                                "best_pt_eigenvalue": best,
                                "pt_eigenvalue_bound": bound,
                                "evaluations": evals}


@pytest.mark.parametrize("rank, seed", [(3, 0), (3, 5), (4, 1)])
def test_range_route_failures_fall_through_to_the_heuristic(rank, seed,
                                                            monkeypatch):
    # with every spanning set counted as ill-conditioned, classify returns
    # the heuristic's verdict unchanged
    monkeypatch.setattr(qss, "SPAN_FLOOR", 2.0)
    rho = states.random_density((2, 3), rank=rank, seed=seed)
    assert qss.range_certificate(rho) is None
    verdict = qss.classify(rho, budget=1000, seed=seed)
    _check_heuristic_verdict(rho, verdict, rank, seed)


def _pure_plus_product(p, psi, a, b):
    """p|psi><psi| + (1 - p)|a b><a b| on 2x3."""
    ab = np.kron(a, b)
    m = p * np.outer(psi, np.conj(psi)) + (1 - p) * np.outer(ab, np.conj(ab))
    return states.QuantumState(m, (2, 3))


def _embedded_eq10(p1):
    """p1 Phi+ + (1 - p1)|01><01| with Phi+ = (|00> + |11>)/sqrt 2, in 2x3."""
    phi = np.kron([1.0, 0.0], [1.0, 0.0, 0.0]) + np.kron([0.0, 1.0],
                                                         [0.0, 1.0, 0.0])
    return _pure_plus_product(p1, phi / np.sqrt(2), np.array([1.0, 0.0]),
                              np.array([0.0, 1.0, 0.0]))


def _random_pure_plus_product(seed):
    rng = np.random.default_rng([20, seed])
    return _pure_plus_product(rng.uniform(0.1, 0.9),
                              states.random_pure_from_rng((2, 3), rng),
                              states.random_pure_from_rng((2,), rng),
                              states.random_pure_from_rng((3,), rng))


# rank-2 2x3 states whose range holds a single product vector, |a b>: no
# product vectors span it, so they are not QSS
@pytest.mark.parametrize("rho", [
    *(_embedded_eq10(p1) for p1 in (1e-3, 0.1, 0.5, 0.9)),
    *(_random_pure_plus_product(seed) for seed in range(6)),
], ids=[f"eq10-p1-{p1}" for p1 in (1e-3, 0.1, 0.5, 0.9)]
    + [f"random-{seed}" for seed in range(6)])
def test_rank_2_states_with_one_product_vector_are_not_qss(rho):
    assert rho.rank() == 2
    verdict = qss.classify(rho, budget=1000)
    assert verdict.status == qss.UNKNOWN
    ev = verdict.evidence
    assert ev["evaluations"] <= 1000 + 1
    assert ev["best_pt_eigenvalue"] < 0.0
    assert ev["best_pt_eigenvalue"] <= ev["pt_eigenvalue_bound"]


def _sweep_states():
    for dims, ranks in (((3, 3), range(2, 9)), ((2, 4), range(2, 4))):
        for rank in ranks:
            for s in range(3):
                yield dims, rank, s


@pytest.mark.parametrize("dims, rank, seed", list(_sweep_states()),
                         ids=lambda x: "x".join(map(str, x))
                         if isinstance(x, tuple) else str(x))
def test_heuristic_search_brackets_the_optimum_beyond_2x3(dims, rank, seed):
    # a generic range of dimension below (d_A - 1)(d_B - 1) + 1 holds no
    # product vector; there the bound proves that no reweighting is PPT
    rho = states.random_density_from_rng(dims, np.random.default_rng([9, seed]),
                                         rank=rank)
    verdict = qss.heuristic_search(rho, budget=1000)
    ev = verdict.evidence
    assert ev["best_pt_eigenvalue"] <= ev["pt_eigenvalue_bound"]
    # the pattern search this replaced spent all 1000 evaluations on
    # every UNKNOWN state here
    assert ev["evaluations"] <= 60
    if rank < (dims[0] - 1) * (dims[1] - 1) + 1:
        assert verdict.status == qss.UNKNOWN
        assert ev["pt_eigenvalue_bound"] < TOLERANCES["ppt_min_eig"]
    else:
        assert verdict.status == qss.QSS
        assert ev["separability"] == qss.PPT_ONLY
        assert qss.verify_certificate(rho, *verdict.certificate)


@settings(max_examples=80, derandomize=True, deadline=None)
@given(seed=_SEEDS, n=st.sampled_from([3, 4]), extra=st.integers(0, 3),
       qubit_first=st.booleans())
def test_range_route_certifies_2xN_states_of_rank_N_and_above(
        seed, n, extra, qubit_first):
    rank = n + extra % n  # N to 2N - 1
    dims = (2, n) if qubit_first else (n, 2)
    rho = states.random_density_from_rng(dims, np.random.default_rng(seed),
                                         rank=rank)
    verdict = qss.range_certificate(rho)
    assert verdict is not None and verdict.status == qss.QSS
    assert qss.verify_certificate(rho, *verdict.certificate)
    want = {"rank": rank, "route": "range-product-vectors",
            "product_vectors": n if rank == n else rank * (rank - n)}
    if 2 * n > 6:
        want["separability"] = qss.PPT_ONLY
    assert verdict.evidence == want
    assert qss.classify(rho, budget=1).status == qss.QSS


def test_range_route_agrees_with_the_two_qubit_criterion():
    for s in range(300):
        rng = np.random.default_rng([9, s])
        rho = states.random_density_from_rng((2, 2), rng,
                                             rank=2 + s % 2)
        verdict = qss.range_certificate(rho)
        closed_form = qss.reweight_certificate_2q(rho)
        assert (verdict is not None) == (closed_form.status == qss.QSS)
        if verdict is not None:
            assert qss.verify_certificate(rho, *verdict.certificate)


def _pure_entangled_2x3():
    return states.pure_state(
        np.array([1.0, 0.0, 0.0, 0.0, 1.0, 0.0]) / np.sqrt(2), (2, 3))


def test_classify_pure_entangled_states_are_candidates_in_any_dims():
    # a pure state's only decomposition is itself, so an entangled one is
    # a non-QSS candidate whether or not it is two qubits
    two_qubit = qss.classify(states.pure_state(states.PHI_PLUS))
    assert two_qubit.status == qss.NOT_QSS_CANDIDATE
    rho = _pure_entangled_2x3()
    verdict = qss.classify(rho, budget=50)
    assert verdict.status == qss.NOT_QSS_CANDIDATE
    assert verdict.certificate is None
    low = entanglement.min_pt_eigenvalue(rho.matrix, (2, 3))
    assert verdict.evidence == {"rank": 1, "budget": 50, "route": "rank-1",
                                "best_pt_eigenvalue": low}
    assert verdict.evidence["best_pt_eigenvalue"] < 0.0
    # a pure product state beyond two qubits is still certified separable
    product = states.pure_state(np.kron([0.6, 0.8], [0.0, 1.0, 0.0]), (2, 3))
    assert qss.classify(product).status == qss.QSS


@pytest.mark.parametrize("rho", [
    states.werner(0.9),
    states.random_density((2, 2), rank=2, seed=3),
    states.pure_state(states.PHI_PLUS),
    states.QuantumState(np.kron(np.diag([1.0, 0.0]), np.eye(3) / 3), (2, 3)),
    states.random_density((2, 3), rank=2, seed=0),
    states.random_density((2, 3), rank=3, seed=0),
    _pure_entangled_2x3(),
], ids=["full-rank", "2q-rank-2", "2q-pure", "2x3-separable", "2x3-rank-2",
        "2x3-rank-3", "2x3-pure"])
@pytest.mark.parametrize("budget", [0, -3])
def test_budgets_below_one_are_bad_parameters(rho, budget):
    with pytest.raises(BadParameters):
        qss.classify(rho, budget=budget)
    with pytest.raises(BadParameters):
        qss.heuristic_search(rho, budget=budget)


def _rank_deficient_2q(seed, rank, p):
    """A dominant random pure state plus rank - 1 others of total weight
    about p: small p makes lambda'_2..4 small and w_1 close to 1."""
    rng = np.random.default_rng(seed)
    weights = np.concatenate([[1.0], p * rng.uniform(0.1, 1.0, rank - 1)])
    weights /= weights.sum()
    m = sum(w * np.outer(v, np.conj(v)) for w, v in zip(
        weights, (states.random_pure_from_rng((2, 2), rng) for _ in weights)))
    return states.QuantumState(m, (2, 2))


@settings(max_examples=60, derandomize=True, deadline=None)
@given(seed=_SEEDS, rank=st.sampled_from([2, 3]))
def test_reweighting_rescales_lambda_spectrum(seed, rank):
    rng = np.random.default_rng(seed)
    rho = states.random_density_from_rng((2, 2), rng, rank=rank)
    md = entanglement.magic_decomposition(rho)
    ens = md.ensemble(rho.dims)
    wq = rng.uniform(0.05, 1.0, rank)
    wq /= wq.sum()
    want = np.zeros(4)
    want[:rank] = np.sort(wq / ens.weights * md.lambda_primes)[::-1]
    got = entanglement.lambda_spectrum(states.reweight(ens, wq).matrix)
    assert np.max(np.abs(got - want)) <= 1e-12


@settings(max_examples=80, derandomize=True, deadline=None)
@given(seed=_SEEDS, rank=st.sampled_from([2, 3]),
       log_p=st.floats(-12.0, 0.0))
def test_entangled_rank_deficient_states_get_a_certificate(seed, rank, log_p):
    rho = _rank_deficient_2q(seed, rank, 10.0**log_p)
    if entanglement.concurrence(rho) <= TOLERANCES["concurrence_zero"]:
        return
    lam = entanglement.magic_decomposition(rho).lambda_primes
    verdict = qss.reweight_certificate_2q(rho)
    if np.max(lam[1:], initial=0.0) <= TOLERANCES["concurrence_zero"]:
        assert verdict.status == qss.NOT_QSS_CANDIDATE
        return
    assert verdict.status == qss.QSS
    ens, w = verdict.certificate
    assert qss.verify_certificate(rho, ens, w)
    if len(lam) == 3 and lam[1:].min() > 1e-6:
        # the midpoint lies strictly inside the separable interval
        new = entanglement.lambda_spectrum(states.reweight(ens, w).matrix)
        assert 2 * new[0] - new.sum() < 0.0


def test_classify_maximally_mixed():
    verdict = qss.classify(states.QuantumState(np.eye(4) / 4, (2, 2)))
    assert verdict.status == qss.QSS


def test_classify_eq11_candidate():
    verdict = qss.classify(eq11_ancilla())
    assert verdict.status == qss.NOT_QSS_CANDIDATE


def test_classify_rank3_entangled(rng):
    for _ in range(10):
        rho = states.random_density_from_rng((2, 2), rng, rank=3)
        verdict = qss.classify(rho)
        assert verdict.status == qss.QSS
        ens, w = verdict.certificate
        assert qss.verify_certificate(rho, ens, w)


def test_classify_tests_a_rank_deficient_two_qubit_input_once(monkeypatch):
    # the two-qubit criterion runs its own separability test, so classify
    # must not run one of its own first
    rho = states.random_density((2, 2), rank=2, seed=3)
    assert not entanglement.separable(rho)
    seen = []
    real = entanglement.separable

    def counting(state):
        seen.append(state)
        return real(state)

    monkeypatch.setattr(entanglement, "separable", counting)
    verdict = qss.classify(rho)
    assert verdict.status == qss.QSS
    assert verdict.evidence["route"] == "z1-reweighting"
    assert sum(state is rho for state in seen) == 1
    assert len(seen) == 2  # the input, then its certificate's reweighting


def test_classify_rank_deficient_separable_two_qubit_state():
    a, b = states.basis_ket((0, 0), (2, 2)), states.basis_ket((1, 1), (2, 2))
    rho = states.QuantumState(0.6 * np.outer(a, a) + 0.4 * np.outer(b, b))
    verdict = qss.classify(rho)
    assert verdict.status == qss.QSS
    assert verdict.evidence == {"rank": 2, "route": "already-separable"}
    assert qss.verify_certificate(rho, *verdict.certificate)


def test_classify_deterministic():
    rho = states.random_density((2, 2), rank=2, seed=9)
    v1 = qss.classify(rho, budget=1000, seed=3)
    v2 = qss.classify(rho, budget=1000, seed=3)
    assert v1.status == v2.status


def test_certificate_soundness_on_random_states(rng):
    for _ in range(30):
        rank = int(rng.integers(1, 5))
        rho = states.random_density_from_rng((2, 2), rng, rank=rank)
        verdict = qss.classify(rho)
        if verdict.status == qss.QSS:
            ens, w = verdict.certificate
            assert qss.verify_certificate(rho, ens, w)
            new_state = states.reweight(ens, w)
            assert entanglement.ppt_separable(new_state)


def test_verify_certificate_rejects_a_mismatched_certificate():
    # a (x) b, a in C^3 and b in C^2, is a product across (3, 2) but
    # entangled across (2, 3)
    rng = np.random.default_rng(0)
    a = states.random_pure_from_rng((3,), rng)
    b = states.random_pure_from_rng((2,), rng)
    v = np.kron(a, b)
    rho = states.pure_state(v, (2, 3))
    assert qss.classify(rho).status == qss.NOT_QSS_CANDIDATE
    ens = states.spectral_ensemble(rho)
    # the right decomposition on another cut, or of another state
    assert not qss.verify_certificate(
        rho, states.Ensemble([1.0], [v], (3, 2)), [1.0])
    assert not qss.verify_certificate(
        rho, states.Ensemble([1.0], [states.PHI_PLUS], (2, 2)), [1.0])
    # weights that are no reweighting: the wrong count, or a zero
    assert not qss.verify_certificate(rho, ens, [0.5, 0.5])
    mixed = states.random_density((2, 3), rank=2, seed=0)
    assert not qss.verify_certificate(
        mixed, states.spectral_ensemble(mixed), [1.0, 0.0])


def test_verify_certificate_builds_only_the_reweighted_state(monkeypatch):
    # the reconstruction check compares matrices; the one state built is
    # the reweighted one the separability test reads
    rho = states.random_density((2, 3), rank=4, seed=3)
    verdict = qss.classify(rho)
    assert verdict.status == qss.QSS
    ens, w = verdict.certificate
    init = states.QuantumState.__post_init__
    built = []

    def counting(self):
        built.append(self)
        init(self)

    monkeypatch.setattr(states.QuantumState, "__post_init__", counting)
    assert qss.verify_certificate(rho, ens, w)
    assert len(built) == 1


def _separable_rank2_2x3():
    m = np.zeros((6, 6))
    m[0, 0] = m[4, 4] = 0.5  # |00> and |11>
    return states.QuantumState(m, (2, 3))


@pytest.mark.parametrize("route, rho, failed", [
    (qss.full_rank_certificate, states.random_density((2, 2), seed=0),
     QsslabError),
    (qss.classify, _separable_rank2_2x3(), QsslabError),
    (qss.reweight_certificate_2q,
     states.random_density((2, 2), rank=2, seed=0), qss.UNKNOWN),
    (qss.range_certificate, states.random_density((2, 3), rank=4, seed=0),
     None),
    (qss.heuristic_search, states.random_density((3, 3), rank=6, seed=0),
     qss.UNKNOWN),
], ids=["full-rank", "already-separable", "z1-reweighting",
        "range-product-vectors", "heuristic-search"])
def test_failed_verification_keeps_each_routes_policy(monkeypatch, route,
                                                      rho, failed):
    assert route(rho).status == qss.QSS
    monkeypatch.setattr(qss, "verify_certificate", lambda *args: False)
    if failed is QsslabError:
        with pytest.raises(QsslabError, match="verification"):
            route(rho)
    elif failed is None:
        assert route(rho) is None
    else:
        verdict = route(rho)
        assert verdict.status == failed
        assert verdict.certificate is None and "route" not in verdict.evidence


def test_certificate_transported_through_local_filter(rng):
    # LOCC stability at the certificate level: filtering the certificate's
    # members and reweighting with the same weights reconstructs the
    # new-state of the filtered density matrix
    rho = states.random_density_from_rng((2, 2), rng, rank=3)
    verdict = qss.classify(rho)
    assert verdict.status == qss.QSS
    ens, w = verdict.certificate
    a = np.diag([1.0, 0.6]).astype(complex)
    b = np.diag([0.8, 1.0]).astype(complex)
    f = np.kron(a, b)
    # transported ensemble: filter each member, renormalize
    members = []
    new_w = []
    for wi, v in zip(w, ens.vectors):
        fv = f @ v
        n = np.real(np.vdot(fv, fv))
        members.append(fv / np.sqrt(n))
        new_w.append(wi * n)
    new_w = np.array(new_w)
    new_w /= new_w.sum()
    transported = states.Ensemble(new_w, members, (2, 2))
    # reference: the same weights applied before filtering
    pre = states.reweight(ens, w)
    ref = f @ pre.matrix @ np.conj(f.T)
    ref /= np.trace(ref).real
    got = states.from_ensemble(transported)
    assert np.max(np.abs(got.matrix - ref)) <= 1e-10


def test_verdict_serialization_roundtrip():
    verdict = qss.classify(states.werner(0.9))
    data = verdict.to_dict()
    assert data["status"] == "QSS"
    assert data["certificate"] is not None
    import json

    text = json.dumps(data, sort_keys=True)
    assert json.loads(text) == data


def _cos_sin(a):
    """cos a|00> + sin a|11>: entangled for any a > 0, with smallest PT
    eigenvalue -cos a sin a and concurrence sin 2a."""
    return states.pure_state(np.array([np.cos(a), 0.0, 0.0, np.sin(a)]))


# each is PPT within ppt_min_eig, or has concurrence within
# concurrence_zero, but not both: separable(rho) is false
@pytest.mark.parametrize("rho", [
    eq10_source(1e-5), eq10_source(1.9e-5), _cos_sin(2.5e-10),
], ids=["eq10-p1-1e-5", "eq10-p1-1.9e-5", "cos-sin-2.5e-10"])
def test_classify_boundary_states_are_candidates(rho):
    assert qss.classify(rho).status == qss.NOT_QSS_CANDIDATE
    assert not entanglement.separable(rho)


def test_classify_ppt_input_beyond_six_dims_is_already_separable():
    rho = states.QuantumState(
        np.kron(np.diag([1.0, 0.0]), np.eye(4) / 4), (2, 4)
    )
    verdict = qss.classify(rho, budget=10)
    assert verdict.status == qss.QSS
    assert verdict.evidence["route"] == "already-separable"
    assert verdict.evidence["separability"] == qss.PPT_ONLY


def _ket(rng, d):
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    return v / np.linalg.norm(v)


def _near_product(rng, log_eps, log_w):
    """(1 - w)|v><v| + w|a b_perp><a b_perp| with v close to the product
    a b: entangled but within the PPT tolerance of separable for small
    eps. Returns the state and its generating factor
    F = [sqrt(1 - w) v, sqrt(w) a b_perp], rho = F F^dagger."""
    a, b, r = _ket(rng, 2), _ket(rng, 2), _ket(rng, 4)
    b_perp = np.array([-np.conj(b[1]), np.conj(b[0])])
    v = np.kron(a, b) + 10.0**log_eps * r
    v /= np.linalg.norm(v)
    u = np.kron(a, b_perp)
    w = 10.0**log_w
    f = np.stack([np.sqrt(1 - w) * v, np.sqrt(w) * u], axis=1)
    m = (1 - w) * np.outer(v, np.conj(v)) + w * np.outer(u, np.conj(u))
    return states.QuantumState((m + np.conj(m.T)) / 2, (2, 2)), f


@settings(max_examples=200, derandomize=True, deadline=None)
@given(seed=_SEEDS, log_eps=st.floats(-7.0, -3.0), log_w=st.floats(-3.0, 0.0))
def test_near_product_rank_two_states_classify_soundly(seed, log_eps, log_w):
    rho, f = _near_product(np.random.default_rng(seed), log_eps, log_w)
    if rho.rank() == 2:
        # the spin-flip spectrum of rho = F F^dagger is sigma(F^T Y2 F);
        # at rank 1 the rank cutoff has dropped F's lighter column
        want = np.zeros(4)
        want[:2] = np.linalg.svd(f.T @ entanglement.Y2 @ f, compute_uv=False)
        got = entanglement.lambda_spectrum(rho.matrix)
        assert np.max(np.abs(got - want)) <= 1e-11
    verdict = qss.classify(rho)  # must not raise
    if verdict.status == qss.QSS:
        ens, wq = verdict.certificate
        assert qss.verify_certificate(rho, ens, wq)


# members of the seeded near-product family, eps = 10^U(-7, -3) and
# w = 10^U(-3, 0) drawn first from default_rng([44, s]), whose lambda'_2
# lies between concurrence_zero and 1e-8
@pytest.mark.parametrize("seed", [1041, 2680])
def test_boundary_near_product_states_get_a_verified_certificate(seed):
    rng = np.random.default_rng([44, seed])
    log_eps, log_w = rng.uniform(-7.0, -3.0), rng.uniform(-3.0, 0.0)
    rho, _ = _near_product(rng, log_eps, log_w)
    verdict = qss.classify(rho)
    assert verdict.status == qss.QSS
    ens, wq = verdict.certificate
    assert qss.verify_certificate(rho, ens, wq)
