import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qsslab import entanglement, linalg, protocol, states
from qsslab.errors import BadParameters, NonUnitary, ZeroProbability
from conftest import bell_projector, eq10_source, eq11_ancilla


def oracle_run_round(rho_s, rho_a, rnd):
    """Independent 16-dim simulation: explicit projectors, no reshaping."""
    dsa, dsb = rho_s.dims
    daa, dab = rho_a.dims
    p = protocol.permutation_matrix([dsa, dsb, daa, dab], (0, 2, 1, 3))
    u = p.T @ np.kron(rnd.u_alice, rnd.u_bob) @ p
    total = u @ np.kron(rho_s.matrix, rho_a.matrix) @ np.conj(u.T)
    results = {}
    for ma in range(daa):
        for mb in range(dab):
            proj_as = np.outer(
                states.basis_ket((ma, mb), (daa, dab)),
                np.conj(states.basis_ket((ma, mb), (daa, dab))),
            )
            proj = np.kron(np.eye(dsa * dsb), proj_as)
            sub = proj @ total @ proj
            prob = np.trace(sub).real
            post = linalg.partial_trace(sub, [dsa, dsb, daa, dab], [0, 1])
            results[f"{ma}{mb}"] = (prob, post)
    return results


def test_permutation_matrix_reorders_kets():
    dims = [2, 2, 2, 2]
    p = protocol.permutation_matrix(dims, (0, 2, 1, 3))
    for idx in [(0, 1, 1, 0), (1, 0, 0, 1), (1, 1, 0, 0)]:
        src = states.basis_ket(idx, dims)
        want = states.basis_ket((idx[0], idx[2], idx[1], idx[3]), dims)
        assert np.array_equal(p @ src, want)
    assert np.allclose(p @ p.T, np.eye(16))


def test_swap_matrix_is_the_factor_permutation():
    for d in (2, 3, 4):
        s = protocol.swap_matrix(d)
        assert s.dtype == complex
        assert np.array_equal(s, protocol.permutation_matrix([d, d], (1, 0)))


def test_round_rejects_non_unitary():
    with pytest.raises(NonUnitary):
        protocol.ProtocolRound(np.ones((4, 4)), np.eye(4))


def test_identity_round_with_pure_ancilla():
    rho_s = states.werner(0.7)
    rho_a = states.pure_state(states.basis_ket((0, 0), (2, 2)))
    outcomes = protocol.run_round(rho_s, rho_a, protocol.named_round("identity"))
    by_label = {o.outcome_index: o for o in outcomes}
    assert abs(by_label["00"].probability - 1.0) <= 1e-12
    assert np.max(np.abs(by_label["00"].post_state.matrix - rho_s.matrix)) <= 1e-12
    for label in ("01", "10", "11"):
        assert by_label[label].probability <= 1e-12
        assert by_label[label].post_state is None


def test_swap_round_moves_ancilla_into_source():
    rho_s = states.pure_state(states.basis_ket((0, 0), (2, 2)))
    rho_a = states.pure_state(states.PHI_PLUS)
    outcomes = protocol.run_round(rho_s, rho_a, protocol.named_round("swap"))
    total = 0.0
    for o in outcomes:
        total += o.probability
        if o.post_state is not None:
            assert states.fidelity_pure(o.post_state, states.PHI_PLUS) >= 1 - 1e-12
    assert abs(total - 1.0) <= 1e-9


def test_run_round_matches_oracle_on_random_inputs(rng):
    for _ in range(10):
        rho_s = states.random_density_from_rng((2, 2), rng)
        rho_a = states.random_density_from_rng((2, 2), rng)
        rnd = protocol.ProtocolRound(
            linalg.haar_unitary_from_rng(4, rng),
            linalg.haar_unitary_from_rng(4, rng),
        )
        got = protocol.run_round(rho_s, rho_a, rnd)
        want = oracle_run_round(rho_s, rho_a, rnd)
        total = 0.0
        for o in got:
            prob, post = want[o.outcome_index]
            total += o.probability
            assert abs(o.probability - prob) <= 1e-12
            if o.post_state is not None:
                assert np.max(np.abs(o.post_state.matrix * prob - post)) <= 1e-12
        assert abs(total - 1.0) <= 1e-9


def test_cnot_example_values():
    outcomes = protocol.cnot_example(0.5, 0.5)
    by_label = {o.outcome_index: o for o in outcomes}
    assert abs(by_label["01"].probability - 0.125) <= 1e-12
    assert states.fidelity_pure(by_label["01"].post_state, states.PHI_PLUS) >= 1 - 1e-10
    # probability of "01" is p1 * lambda2 / 2 in general
    for p1, lam2 in [(0.3, 0.8), (0.9, 0.2)]:
        out = protocol.cnot_example(p1, lam2)
        o = {x.outcome_index: x for x in out}["01"]
        assert abs(o.probability - p1 * lam2 / 2) <= 1e-12
        assert states.fidelity_pure(o.post_state, states.PHI_PLUS) >= 1 - 1e-10


def test_cnot_example_pure_corner():
    out = protocol.cnot_example(1 - 1e-9, 1 - 1e-9)
    o = {x.outcome_index: x for x in out}["01"]
    assert abs(o.probability - 0.5) <= 1e-8


def test_cnot_example_other_outcomes():
    outcomes = protocol.cnot_example(0.5, 0.5)
    by_label = {o.outcome_index: o for o in outcomes}
    assert entanglement.concurrence(by_label["11"].post_state) <= 1e-9
    # "01" is the only pure entangled branch
    for o in outcomes:
        if o.outcome_index != "01" and o.post_state is not None:
            pure = states.is_pure(o.post_state)
            entangled = entanglement.concurrence(o.post_state) > 1e-9
            assert not (pure and entangled)


def test_cnot_example_rejects_bad_parameters():
    with pytest.raises(BadParameters):
        protocol.cnot_example(0.0, 0.5)
    with pytest.raises(BadParameters):
        protocol.cnot_example(0.5, 1.0)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       dims_s=st.sampled_from([(2, 2), (2, 3)]),
       dims_a=st.sampled_from([(2, 2), (2, 3)]),
       rank=st.integers(1, 6))
def test_probability_completeness_random(seed, dims_s, dims_a, rank):
    rng = np.random.default_rng(seed)
    rho_s = states.random_density_from_rng(
        dims_s, rng, rank=min(rank, dims_s[0] * dims_s[1])
    )
    rho_a = states.random_density_from_rng(dims_a, rng)
    rnd = protocol.ProtocolRound(
        linalg.haar_unitary_from_rng(dims_s[0] * dims_a[0], rng),
        linalg.haar_unitary_from_rng(dims_s[1] * dims_a[1], rng),
    )
    outcomes = protocol.run_round(rho_s, rho_a, rnd)
    assert len(outcomes) == dims_a[0] * dims_a[1]
    assert all(o.probability >= 0.0 for o in outcomes)
    assert abs(sum(o.probability for o in outcomes) - 1.0) <= 1e-9


def test_apply_local_filter_identity():
    rho = states.werner(0.8)
    out, prob = protocol.apply_local_filter(rho, np.eye(2), np.eye(2))
    assert abs(prob - 1.0) <= 1e-12
    assert np.max(np.abs(out.matrix - rho.matrix)) <= 1e-12


def test_apply_local_filter_projector():
    a, b = 0.6, 0.8
    psi = a * states.basis_ket((0, 0), (2, 2)) + b * states.basis_ket((1, 1), (2, 2))
    rho = states.pure_state(psi)
    proj0 = np.diag([1.0, 0.0]).astype(complex)
    out, prob = protocol.apply_local_filter(rho, proj0, np.eye(2))
    assert abs(prob - a**2) <= 1e-12
    assert states.fidelity_pure(out, states.basis_ket((0, 0), (2, 2))) >= 1 - 1e-12


def test_apply_local_filter_balances_amplitudes():
    # filter diag(1, a/b) (x) I turns a|00>+b|11> into Phi+
    a, b = 0.3, np.sqrt(1 - 0.09)
    psi = a * states.basis_ket((0, 0), (2, 2)) + b * states.basis_ket((1, 1), (2, 2))
    rho = states.pure_state(psi)
    filt = np.diag([1.0, a / b]).astype(complex)
    out, prob = protocol.apply_local_filter(rho, filt, np.eye(2))
    assert prob > 1e-6
    assert states.fidelity_pure(out, states.PHI_PLUS) >= 1 - 1e-10


def test_apply_global_filter_bell_projector_on_werner():
    for p in (0.3, 0.7):
        c = bell_projector(states.PHI_PLUS)
        out, prob = protocol.apply_global_filter(states.werner(p), c)
        assert abs(prob - (p + (1 - p) / 4)) <= 1e-12
        assert states.fidelity_pure(out, states.PHI_PLUS) >= 1 - 1e-12


def test_apply_global_filter_matches_local(rng):
    rho = states.random_density_from_rng((2, 2), rng)
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    out1, p1 = protocol.apply_local_filter(rho, a, b)
    out2, p2 = protocol.apply_global_filter(rho, np.kron(a, b))
    assert abs(p1 - p2) <= 1e-12
    assert np.max(np.abs(out1.matrix - out2.matrix)) <= 1e-12


def test_apply_global_filter_zero_probability():
    rho = states.pure_state(states.basis_ket((0, 0), (2, 2)))
    annihilator = np.diag([0.0, 0.0, 0.0, 1.0]).astype(complex)
    with pytest.raises(ZeroProbability):
        protocol.apply_global_filter(rho, annihilator)


def embed_filter_round(a_alice, a_bob):
    """Round whose "00" outcome realizes the local filter a_alice (x) a_bob.

    Per party: u(|s>|0>) = (A|s>)|0> + (B|s>)|1> with A^+A + B^+B = I, built
    from per-source-level rotations (A, B diagonal real).
    """
    def party_unitary(diag):
        u = np.zeros((4, 4), dtype=complex)
        for s in range(2):
            a = diag[s]
            b = np.sqrt(1 - a * a)
            # basis order |s,anc>: columns s*2+0 and s*2+1
            u[s * 2 + 0, s * 2 + 0] = a
            u[s * 2 + 1, s * 2 + 0] = b
            u[s * 2 + 0, s * 2 + 1] = -b
            u[s * 2 + 1, s * 2 + 1] = a
        return u

    return protocol.ProtocolRound(party_unitary(a_alice), party_unitary(a_bob))


def test_run_round_realizes_local_filter(rng):
    # individual-measurement filters are a special case of a round with a
    # pure product ancilla and postselection
    a_alice = [1.0, 0.4]
    a_bob = [0.7, 1.0]
    rho_s = states.random_density_from_rng((2, 2), rng)
    rho_a = states.pure_state(states.basis_ket((0, 0), (2, 2)))
    rnd = embed_filter_round(a_alice, a_bob)
    outcomes = {o.outcome_index: o for o in protocol.run_round(rho_s, rho_a, rnd)}
    filtered, prob = protocol.apply_local_filter(
        rho_s, np.diag(a_alice).astype(complex), np.diag(a_bob).astype(complex)
    )
    o = outcomes["00"]
    assert abs(o.probability - prob) <= 1e-12
    assert np.max(np.abs(o.post_state.matrix - filtered.matrix)) <= 1e-10


def test_lemma_invariance_on_cnot_family(rng):
    # a pure postselected output survives any reweighting of the source and
    # ancilla spectral ensembles; only its probability moves
    outcomes = protocol.cnot_example(0.5, 0.5)
    psi = states.PHI_PLUS
    rnd = protocol.named_round("bilateral-cnot")
    es = states.spectral_ensemble(eq10_source(0.5))
    ea = states.spectral_ensemble(eq11_ancilla(0.5))
    for _ in range(10):
        ws = rng.uniform(1e-3, 1 - 1e-3, len(es))
        wa = rng.uniform(1e-3, 1 - 1e-3, len(ea))
        rs = states.reweight(es, ws / ws.sum())
        ra = states.reweight(ea, wa / wa.sum())
        out = {o.outcome_index: o for o in protocol.run_round(rs, ra, rnd)}["01"]
        if out.probability > 1e-12:
            assert states.fidelity_pure(out.post_state, psi) >= 1 - 1e-9


def test_locc_cannot_create_entanglement(rng):
    # separable source, product-form separable ancilla: every outcome stays
    # separable
    for _ in range(5):
        rho_s = states.werner(0.2)
        a1 = states.random_density_from_rng((2,), rng).matrix
        a2 = states.random_density_from_rng((2,), rng).matrix
        rho_a = states.QuantumState(np.kron(a1, a2), (2, 2))
        rnd = protocol.ProtocolRound(
            linalg.haar_unitary_from_rng(4, rng),
            linalg.haar_unitary_from_rng(4, rng),
        )
        for o in protocol.run_round(rho_s, rho_a, rnd):
            if o.post_state is not None:
                assert entanglement.concurrence(o.post_state) <= 1e-9


def test_run_sequence_single_round_matches_run_round():
    rho_s = eq10_source()
    rho_a = eq11_ancilla()
    rnd = protocol.named_round("bilateral-cnot")
    branches = protocol.run_sequence(rho_s, [(rho_a, rnd)])
    outcomes = {o.outcome_index: o for o in protocol.run_round(rho_s, rho_a, rnd)}
    assert len(branches) == 4
    for br in branches:
        o = outcomes[br.labels[0]]
        assert abs(br.probability - o.probability) <= 1e-12


def test_run_sequence_identity_rounds():
    rho_s = states.werner(0.7)
    anc = states.pure_state(states.basis_ket((0, 0), (2, 2)))
    rnd = protocol.named_round("identity")
    branches = protocol.run_sequence(rho_s, [(anc, rnd), (anc, rnd)])
    total = sum(b.probability for b in branches)
    assert abs(total - 1.0) <= 1e-9
    for b in branches:
        if b.post_state is not None and b.probability > 1e-12:
            assert np.max(np.abs(b.post_state.matrix - rho_s.matrix)) <= 1e-10


def test_run_sequence_cnot_then_filter_keeps_phi_plus():
    rho_s = eq10_source()
    rho_a = eq11_ancilla()
    branches = protocol.run_sequence(
        rho_s,
        [(rho_a, protocol.named_round("bilateral-cnot"))],
    )
    br = next(b for b in branches if b.labels == ("01",))
    filtered, prob = protocol.apply_local_filter(
        br.post_state, np.diag([1.0, 0.9]).astype(complex), np.eye(2)
    )
    # Phi+ is an eigenstate family member: a diagonal filter reshapes but the
    # fidelity after re-balancing stays; here just check purity survived
    assert states.is_pure(br.post_state)
    assert states.fidelity_pure(br.post_state, states.PHI_PLUS) >= 1 - 1e-10


def test_round_kernel_stack_matches_single_rounds(rng):
    for dims_s, dims_a in (((2, 2), (2, 2)), ((2, 3), (2, 2)), ((3, 2), (2, 3))):
        rho_s = states.random_density_from_rng(dims_s, rng)
        rho_a = states.random_density_from_rng(dims_a, rng)
        total = np.kron(rho_s.matrix, rho_a.matrix)
        da, db = dims_s[0] * dims_a[0], dims_s[1] * dims_a[1]
        uas = np.array([linalg.haar_unitary_from_rng(da, rng) for _ in range(3)])
        ubs = np.array([linalg.haar_unitary_from_rng(db, rng) for _ in range(3)])
        probs, blocks = protocol.round_kernel(total, dims_s, dims_a, uas, ubs)
        assert probs.shape == (3, dims_a[0] * dims_a[1])
        for k in range(3):
            rnd = protocol.ProtocolRound(uas[k], ubs[k])
            want = oracle_run_round(rho_s, rho_a, rnd)
            single = protocol.round_kernel(total, dims_s, dims_a, uas[k], ubs[k])
            outcomes = protocol.run_round(rho_s, rho_a, rnd)
            assert [o.probability for o in outcomes] == single[0].tolist()
            for o, prob, block, p, b in zip(outcomes, *single, probs[k],
                                            blocks[k]):
                assert prob == p and block.tobytes() == b.tobytes()
                assert abs(prob - want[o.outcome_index][0]) <= 1e-12
                assert np.max(np.abs(block - want[o.outcome_index][1])) <= 1e-12


def _unitary_stacks(rng, da, db, sizes):
    return [
        (np.array([linalg.haar_unitary_from_rng(da, rng) for _ in range(n)]),
         np.array([linalg.haar_unitary_from_rng(db, rng) for _ in range(n)]))
        for n in sizes
    ]


def test_round_kernel_work_arrays_never_alias_results():
    # one work list across a growing, shrinking and growing stack: every
    # result must survive the later calls and match a call without it
    rng = np.random.default_rng([51, 0])
    rho_s = states.random_density_from_rng((2, 2), rng)
    rho_a = states.random_density_from_rng((2, 2), rng)
    total = np.kron(rho_s.matrix, rho_a.matrix)
    work, results = [], []
    for uas, ubs in _unitary_stacks(rng, 4, 4, (32, 3, 64)):
        probs, blocks = protocol.round_kernel(
            total, (2, 2), (2, 2), uas, ubs, work
        )
        results.append((uas, ubs, probs, blocks, probs.copy(), blocks.copy()))
        assert not any(np.shares_memory(blocks, w) or np.shares_memory(probs, w)
                       for w in work)
    assert len(work[0]) == 64
    for uas, ubs, probs, blocks, probs0, blocks0 in results:
        assert probs.tobytes() == probs0.tobytes()
        assert blocks.tobytes() == blocks0.tobytes()
        fresh = protocol.round_kernel(total, (2, 2), (2, 2), uas, ubs)
        assert fresh[0].tobytes() == probs.tobytes()
        assert fresh[1].tobytes() == blocks.tobytes()


def test_run_round_results_survive_later_rounds():
    rng = np.random.default_rng([51, 1])
    rho_s = states.random_density_from_rng((2, 3), rng)
    rho_a = states.random_density_from_rng((2, 2), rng)
    rounds = [protocol.ProtocolRound(ua[0], ub[0])
              for ua, ub in _unitary_stacks(rng, 4, 6, (1, 1, 1))]
    total = np.kron(rho_s.matrix, rho_a.matrix)

    def blocks(rnd):  # a single round through the kernel, no work list
        return protocol.round_kernel(total, rho_s.dims, rho_a.dims,
                                     rnd.u_alice, rnd.u_bob)[1]

    raw = blocks(rounds[0])
    outcomes = protocol.run_round(rho_s, rho_a, rounds[0])
    kept_raw = [b.copy() for b in raw]
    kept = [o.post_state.matrix.copy() for o in outcomes]
    for rnd in rounds[1:]:
        blocks(rnd)
        protocol.run_round(rho_s, rho_a, rnd)
    assert all(np.array_equal(b, k) for b, k in zip(raw, kept_raw))
    assert all(np.array_equal(o.post_state.matrix, k)
               for o, k in zip(outcomes, kept))
