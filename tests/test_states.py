import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qsslab import entanglement, linalg, qss, states
from qsslab.errors import BadWeights, DimensionMismatch, InvalidState, NotIsometry
from conftest import bell_projector


def test_from_ensemble_pure_member():
    psi = states.basis_ket((0, 0), (2, 2))
    e = states.Ensemble([1.0], [psi], (2, 2))
    rho = states.from_ensemble(e)
    assert np.allclose(rho.matrix, bell_projector(psi))


def test_from_ensemble_eq10_mixture():
    e = states.Ensemble(
        [0.5, 0.5], [states.PHI_PLUS, states.basis_ket((0, 1), (2, 2))], (2, 2)
    )
    rho = states.from_ensemble(e)
    expected = 0.5 * bell_projector(states.PHI_PLUS) + 0.5 * bell_projector(
        states.basis_ket((0, 1), (2, 2))
    )
    assert np.allclose(rho.matrix, expected)


def test_from_ensemble_complete_basis_is_maximally_mixed():
    rho = states.from_ensemble(
        states.Ensemble(np.full(4, 0.25), np.eye(4), (2, 2)))
    assert np.allclose(rho.matrix, np.eye(4) / 4)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       dims=st.sampled_from([(2, 2), (2, 3), (3, 3)]), k=st.integers(1, 6))
def test_mixture_matches_a_sum_of_outer_products(seed, dims, k):
    rng = np.random.default_rng(seed)
    vectors = [states.random_pure_from_rng(dims, rng) for _ in range(k)]
    weights, other = rng.dirichlet(np.ones(k), size=2)
    e = states.Ensemble(weights, vectors, dims)
    assert not e.weights.flags.writeable and not e.vectors.flags.writeable
    for w, got in ((weights, e.mixture()), (other, e.mixture(other))):
        ref = sum(wi * np.outer(v, np.conj(v)) for wi, v in zip(w, vectors))
        assert np.max(np.abs(got - ref)) <= 1e-14


def test_spectral_ensemble_pure():
    rho = states.pure_state(states.PHI_PLUS)
    e = states.spectral_ensemble(rho)
    assert len(e) == 1
    assert abs(e.weights[0] - 1.0) <= 1e-12


def test_spectral_ensemble_maximally_mixed():
    rho = states.QuantumState(np.eye(4) / 4, (2, 2))
    e = states.spectral_ensemble(rho)
    assert len(e) == 4
    assert np.allclose(e.weights, 0.25)
    gram = np.array([[np.vdot(a, b) for b in e.vectors] for a in e.vectors])
    assert np.max(np.abs(gram - np.eye(4))) <= 1e-10


def test_spectral_ensemble_werner_weights():
    e = states.spectral_ensemble(states.werner(0.5))
    assert np.allclose(sorted(e.weights, reverse=True), [0.625, 0.125, 0.125, 0.125])


def test_spectral_roundtrip_random(rng):
    for _ in range(20):
        rho = states.random_density_from_rng((2, 2), rng)
        recon = states.from_ensemble(states.spectral_ensemble(rho))
        assert np.max(np.abs(recon.matrix - rho.matrix)) <= 1e-9


def test_reweight_identity():
    e = states.spectral_ensemble(states.werner(0.7))
    rho = states.reweight(e, e.weights)
    assert np.max(np.abs(rho.matrix - states.werner(0.7).matrix)) <= 1e-12


def test_reweight_uniform_gives_maximally_mixed(rng):
    rho = states.random_density_from_rng((2, 2), rng)
    e = states.spectral_ensemble(rho)
    out = states.reweight(e, np.full(len(e), 1.0 / len(e)))
    assert np.max(np.abs(out.matrix - np.eye(4) / 4)) <= 1e-10


def test_reweight_bell_mixture_kills_concurrence():
    e = states.Ensemble([0.7, 0.3], [states.PHI_PLUS, states.PSI_MINUS], (2, 2))
    out = states.reweight(e, [0.5, 0.5])
    assert entanglement.concurrence(out) <= 1e-12


def test_reweight_rejects_bad_weights():
    e = states.spectral_ensemble(states.werner(0.7))
    with pytest.raises(BadWeights):
        states.reweight(e, [0.5, 0.5])
    with pytest.raises(BadWeights):
        states.reweight(e, [0.5, 0.3, 0.3, -0.1])


def test_reweight_rejects_nan_weights():
    # w <= 0 and |sum - 1| > tol are both false for NaN
    e = states.spectral_ensemble(states.random_density((2, 2), rank=2, seed=0))
    with pytest.raises(BadWeights, match="positive"):
        states.reweight(e, [np.nan, 1.0])


def test_reweight_positivity_near_vertex(rng):
    rho = states.random_density_from_rng((2, 2), rng)
    e = states.spectral_ensemble(rho)
    w = np.array([1 - 3e-6, 1e-6, 1e-6, 1e-6])
    out = states.reweight(e, w)
    assert np.min(np.linalg.eigvalsh(out.matrix)) >= -1e-12


def test_transform_ensemble_identity():
    e = states.spectral_ensemble(states.werner(0.6))
    out = states.transform_ensemble(e, np.eye(len(e)))
    assert np.max(np.abs(out.weights - e.weights)) <= 1e-12


def test_transform_ensemble_hadamard_mix():
    e = states.Ensemble([0.5, 0.5], np.eye(2), (2,))
    h = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2)
    out = states.transform_ensemble(e, h)
    assert len(out) == 2
    assert np.max(
        np.abs(states.from_ensemble(out).matrix - np.eye(2) / 2)
    ) <= 1e-12


def test_transform_ensemble_random_isometry_preserves_state(rng):
    rho = states.random_density_from_rng((2, 2), rng, rank=2)
    e = states.spectral_ensemble(rho)
    # taller isometry: 2 columns of a random 4x4 unitary
    u = linalg.haar_unitary_from_rng(4, rng)[:, : len(e)]
    out = states.transform_ensemble(e, u)
    assert np.max(np.abs(states.from_ensemble(out).matrix - rho.matrix)) <= 1e-10


def test_transform_ensemble_rejects_non_isometry():
    e = states.spectral_ensemble(states.werner(0.6))
    with pytest.raises(NotIsometry):
        states.transform_ensemble(e, np.ones((4, 4)))


def test_purity_examples(rng):
    assert abs(states.purity(states.pure_state(states.PHI_PLUS)) - 1.0) <= 1e-12
    assert states.is_pure(states.pure_state(states.PHI_PLUS))
    mixed = states.QuantumState(np.eye(4) / 4, (2, 2))
    assert abs(states.purity(mixed) - 0.25) <= 1e-12
    assert not states.is_pure(mixed)
    half = states.QuantumState(
        0.5 * bell_projector(states.PHI_PLUS)
        + 0.5 * bell_projector(states.basis_ket((0, 1), (2, 2))),
        (2, 2),
    )
    # oracle: tr(rho^2) by direct matrix multiplication
    assert abs(states.purity(half) - np.trace(half.matrix @ half.matrix).real) <= 1e-14
    assert abs(states.purity(half) - 0.5) <= 1e-12


def test_fidelity_pure_examples():
    psi = states.PHI_PLUS
    assert abs(states.fidelity_pure(states.pure_state(psi), psi) - 1.0) <= 1e-12
    assert abs(states.fidelity_pure(states.pure_state(states.PSI_PLUS), psi)) <= 1e-12
    for p in (0.2, 0.5, 0.9):
        assert abs(
            states.fidelity_pure(states.werner(p), psi) - (p + (1 - p) / 4)
        ) <= 1e-12


def test_fidelity_pure_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        states.fidelity_pure(states.werner(0.5), states.ket(0, 2))


@pytest.mark.parametrize("rho, want, basis", [
    (states.QuantumState(np.eye(4) / 4), [0.25] * 4, None),
    (states.werner(0.5), [0.625, 0.125, 0.125, 0.125], None),
    (states.QuantumState(np.diag([0.125, 0.5, 0.375]), (3,)),
     [0.5, 0.375, 0.125], [1, 2, 0]),
], ids=["maximally-mixed", "werner", "diagonal"])
def test_eigensystem_descending(rho, want, basis):
    vals, vecs = rho.eigensystem()
    assert np.allclose(vals, want)
    if basis is not None:
        assert np.allclose(np.abs(vecs), np.eye(len(want))[:, basis])


def test_eigensystem_reconstruction(rng):
    for rank in range(1, 7):
        rho = states.random_density_from_rng((2, 3), rng, rank=rank)
        vals, vecs = rho.eigensystem()
        assert abs(vals.sum() - 1.0) <= 1e-9
        recon = (vecs * vals) @ np.conj(vecs.T)
        assert np.max(np.abs(recon - rho.matrix)) <= 1e-8
        gram = np.conj(vecs.T) @ vecs
        assert np.max(np.abs(gram - np.eye(6))) <= 1e-10
        assert np.all(np.diff(vals) <= 0.0)
        assert rho.rank() == rank


def test_classify_decomposes_rho_once(monkeypatch):
    # the state's one eigendecomposition serves every classify route
    m = states.random_density((2, 3), rank=3, seed=4).matrix
    eigh = np.linalg.eigh
    calls = []

    def counting(a, *args, **kwargs):
        calls.append(np.array_equal(a, m))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    rho = states.QuantumState(m, (2, 3))
    qss.classify(rho)
    assert sum(calls) == 1
    vals, vecs = rho.eigensystem()
    assert not vals.flags.writeable and not vecs.flags.writeable


def test_state_invariants_rejected():
    with pytest.raises(InvalidState, match="trace"):
        states.QuantumState(np.eye(4) * 0.9 / 4, (2, 2))
    bad = np.eye(4) / 4
    bad[0, 1] = 0.1
    with pytest.raises(InvalidState, match="hermitian"):
        states.QuantumState(bad, (2, 2))
    neg = np.diag([1.5, -0.5, 0.0, 0.0]).astype(complex)
    with pytest.raises(InvalidState, match="positive"):
        states.QuantumState(neg, (2, 2))
    with pytest.raises(InvalidState, match="dims"):
        states.QuantumState(np.eye(4) / 4, (2, 3))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.nan)])
def test_ensemble_rejects_non_finite_members(bad):
    # abs(norm - 1) > tol is false for NaN, so the norm check alone lets it in
    vector = np.array([bad, 0, 0, 0], dtype=complex)
    with pytest.raises(InvalidState, match="finite"):
        states.Ensemble([1.0], [vector], (2, 2))
    with pytest.raises(InvalidState):
        states.Ensemble([np.real(bad)], [states.PHI_PLUS], (2, 2))


def test_ensemble_rejects_vectors_of_unequal_length():
    vectors = [states.PHI_PLUS, np.ones(3) / np.sqrt(3)]
    with pytest.raises(InvalidState, match="dims"):
        states.Ensemble([0.5, 0.5], vectors, (2, 2))


def test_json_roundtrip(rng):
    rho = states.random_density_from_rng((2, 2), rng)
    data = json.loads(json.dumps(states.state_to_dict(rho)))
    back = states.state_from_dict(data)
    assert np.array_equal(back.matrix, rho.matrix)
    assert back.dims == rho.dims

    e = states.spectral_ensemble(rho)
    data = json.loads(json.dumps(states.ensemble_to_dict(e)))
    back = states.ensemble_from_dict(data)
    assert len(back) == len(e)
    for w1, v1, w2, v2 in zip(back.weights, back.vectors, e.weights, e.vectors):
        assert w1 == pytest.approx(w2, abs=0)
        assert np.array_equal(v1, v2)
