import numpy as np
import pytest

from qsslab import entanglement, linalg, qss, states
from qsslab.errors import DimensionMismatch
from conftest import bell_projector


def oracle_lambda_spectrum(m):
    """Direct eigen-solve of rho * rho~, independent of the Hermitian route."""
    y2 = np.kron(linalg.SIGMA_Y, linalg.SIGMA_Y)
    ev = np.linalg.eigvals(m @ y2 @ np.conj(m) @ y2)
    return np.sort(np.sqrt(np.abs(np.real(ev))))[::-1]


def test_spin_flip_basis_kets():
    out = entanglement.spin_flip(states.basis_ket((0, 1), (2, 2)))
    assert np.allclose(out, states.basis_ket((1, 0), (2, 2)))


def test_spin_flip_phi_plus():
    flipped = entanglement.spin_flip(states.PHI_PLUS)
    assert np.allclose(flipped, -states.PHI_PLUS)
    assert abs(abs(np.vdot(states.PHI_PLUS, flipped)) - 1.0) <= 1e-12


def test_spin_flip_involution_and_norm(rng):
    for _ in range(20):
        v = rng.normal(size=4) + 1j * rng.normal(size=4)
        v /= np.linalg.norm(v)
        assert np.allclose(entanglement.spin_flip(entanglement.spin_flip(v)), v)
        assert abs(np.linalg.norm(entanglement.spin_flip(v)) - 1.0) <= 1e-14


def test_spin_flip_dimension():
    with pytest.raises(DimensionMismatch):
        entanglement.spin_flip(np.ones(3))


def test_concurrence_bell():
    assert abs(entanglement.concurrence(states.pure_state(states.PHI_PLUS)) - 1.0) <= 1e-12


def test_concurrence_product_pure(rng):
    a = states.random_pure_from_rng((2,), rng)
    b = states.random_pure_from_rng((2,), rng)
    rho = states.pure_state(np.kron(a, b))
    assert entanglement.concurrence(rho) <= 1e-10


def test_concurrence_half_bell_half_01():
    m = 0.5 * bell_projector(states.PHI_PLUS) + 0.5 * bell_projector(
        states.basis_ket((0, 1), (2, 2))
    )
    rho = states.QuantumState(m, (2, 2))
    assert abs(entanglement.concurrence(rho) - 0.5) <= 1e-12
    # independent oracle: single nonzero eigenvalue 1/4 of rho*rho~
    lam = oracle_lambda_spectrum(m)
    assert abs(lam[0] - 0.5) <= 1e-12
    assert np.max(lam[1:]) <= 1e-8


@pytest.mark.parametrize("p", [0.2, 1 / 3, 0.5, 0.9])
def test_concurrence_werner_closed_form(p):
    got = entanglement.concurrence(states.werner(p))
    assert abs(got - max(0.0, (3 * p - 1) / 2)) <= 1e-9


def test_concurrence_matches_oracle_on_random_states(rng):
    for _ in range(50):
        rho = states.random_density_from_rng((2, 2), rng)
        lam = oracle_lambda_spectrum(rho.matrix)
        want = max(0.0, lam[0] - lam[1:].sum())
        assert abs(entanglement.concurrence(rho) - want) <= 1e-9


def magic_overlap_table(md):
    z = np.array(md.z_states)
    # <z_i | z~_j>
    return np.conj(z) @ entanglement.Y2 @ np.conj(z).T


def test_magic_decomposition_pure_entangled():
    psi = 0.8 * states.basis_ket((0, 0), (2, 2)) + 0.6 * states.basis_ket(
        (1, 1), (2, 2)
    )
    rho = states.pure_state(psi)
    md = entanglement.magic_decomposition(rho)
    assert len(md.z_states) == 1
    assert abs(md.lambda_primes[0] - entanglement.concurrence(rho)) <= 1e-10
    assert abs(abs(np.vdot(md.z_states[0], psi)) - 1.0) <= 1e-10


def test_magic_decomposition_bell_diagonal():
    m = 0.7 * bell_projector(states.PHI_PLUS) + 0.3 * bell_projector(
        states.PSI_MINUS
    )
    md = entanglement.magic_decomposition(states.QuantumState(m, (2, 2)))
    assert np.allclose(md.lambda_primes, [0.7, 0.3], atol=1e-10)
    # z's proportional to the Bell vectors up to phase
    for z in md.z_states:
        zn = z / np.linalg.norm(z)
        overlaps = [abs(np.vdot(b, zn)) for b in (states.PHI_PLUS, states.PSI_MINUS)]
        assert max(overlaps) >= 1.0 - 1e-10


def test_magic_decomposition_random_invariants(rng):
    for _ in range(30):
        rho = states.random_density_from_rng((2, 2), rng)
        md = entanglement.magic_decomposition(rho)
        table = magic_overlap_table(md)
        off = table - np.diag(np.diag(table))
        assert np.max(np.abs(off)) <= 1e-9
        assert np.max(np.abs(np.diag(table) - md.lambda_primes)) <= 1e-9
        assert np.all(md.lambda_primes >= -1e-12)
        assert np.all(np.diff(md.lambda_primes) <= 1e-9)
        recon = sum(np.outer(z, np.conj(z)) for z in md.z_states)
        assert np.max(np.abs(recon - rho.matrix)) <= 1e-9
        lam = oracle_lambda_spectrum(rho.matrix)
        assert np.max(np.abs(lam[: len(md.lambda_primes)] - md.lambda_primes)) <= 1e-8


def test_magic_lambda_invariant_under_local_unitaries(rng):
    for _ in range(20):
        rho = states.random_density_from_rng((2, 2), rng)
        ua = linalg.haar_unitary_from_rng(2, rng)
        ub = linalg.haar_unitary_from_rng(2, rng)
        u = np.kron(ua, ub)
        rotated = states.QuantumState(u @ rho.matrix @ np.conj(u.T), (2, 2))
        lam1 = entanglement.magic_decomposition(rho).lambda_primes
        lam2 = entanglement.magic_decomposition(rotated).lambda_primes
        n = min(len(lam1), len(lam2))
        assert np.max(np.abs(lam1[:n] - lam2[:n])) <= 1e-8


def test_concurrence_convexity_on_bell_diagonal():
    e = states.Ensemble(
        ((0.7, states.PHI_PLUS), (0.3, states.PSI_MINUS)), (2, 2)
    )
    base = max(
        entanglement.concurrence(states.pure_state(states.PHI_PLUS)),
        entanglement.concurrence(states.pure_state(states.PSI_MINUS)),
    )
    for t in np.linspace(0.0, 1.0, 11):
        w0 = 0.7 * (1 - t) + 0.5 * t
        mixed = states.reweight(e, [w0, 1 - w0])
        assert entanglement.concurrence(mixed) <= base + 1e-12


def test_ppt_separable_examples():
    assert entanglement.ppt_separable(states.QuantumState(np.eye(4) / 4, (2, 2)))
    assert not entanglement.ppt_separable(states.pure_state(states.PHI_PLUS))


@pytest.mark.parametrize("p", [0.1, 1 / 3, 0.4, 0.9])
def test_ppt_werner_boundary(p):
    rho = states.werner(p)
    assert entanglement.ppt_separable(rho) == (p <= 1 / 3 + 1e-12)
    pt = linalg.partial_transpose(rho.matrix, (2, 2), "B")
    assert abs(np.min(np.linalg.eigvalsh(pt)) - (1 - 3 * p) / 4) <= 1e-12


def test_concurrence_ppt_agree_on_two_qubits(rng):
    # both are exact separability tests in 2x2
    for _ in range(1000):
        rho = states.random_density_from_rng(
            (2, 2), rng, rank=int(rng.integers(1, 5))
        )
        conc_zero = entanglement.concurrence(rho) <= 1e-9
        assert conc_zero == entanglement.ppt_separable(rho)


def test_schmidt_coefficients_examples(rng):
    a = states.random_pure_from_rng((2,), rng)
    b = states.random_pure_from_rng((2,), rng)
    c = entanglement.schmidt_coefficients(np.kron(a, b), (2, 2))
    assert abs(c[0] - 1.0) <= 1e-10
    assert np.max(c[1:]) <= 1e-10

    c = entanglement.schmidt_coefficients(states.PHI_PLUS, (2, 2))
    assert np.allclose(c, [1 / np.sqrt(2), 1 / np.sqrt(2)])

    psi = 0.8 * states.basis_ket((0, 0), (2, 2)) + 0.6j * states.basis_ket(
        (1, 1), (2, 2)
    )
    c = entanglement.schmidt_coefficients(psi, (2, 2))
    assert np.allclose(c, [0.8, 0.6])
    assert abs(np.sum(c**2) - 1.0) <= 1e-10


def test_concurrence_matrix_stack_matches_single_calls(rng):
    ms = np.array([
        states.random_density_from_rng((2, 2), rng, rank=1 + i % 4).matrix
        for i in range(12)
    ]).reshape(3, 4, 4, 4)
    stack = entanglement.concurrence_matrix(ms)
    assert stack.shape == (3, 4)
    spectra = entanglement.lambda_spectrum(ms)
    assert spectra.shape == (3, 4, 4)
    for m, c, lam in zip(ms.reshape(-1, 4, 4), stack.ravel(),
                         spectra.reshape(-1, 4)):
        single = entanglement.concurrence_matrix(m)
        assert isinstance(single, float)
        assert single == c
        # one spin-flip spectrum behind the score and the success paths
        assert single == entanglement.concurrence(states.QuantumState(m))
        assert np.array_equal(lam, entanglement.lambda_spectrum(m))
        assert single == max(0.0, lam[0] - lam[1:].sum())


def _pure_product(seed):
    rng = np.random.default_rng([21, seed])
    a = states.random_pure_from_rng((2,), rng)
    b = states.random_pure_from_rng((2,), rng)
    return states.pure_state(np.kron(a, b))


def test_pure_product_states_are_certified_separable():
    # rho's zero eigenvalues come out of eigh as noise of either sign;
    # their square roots must not reach the spectrum or the certificate
    for seed in range(1000):
        rho = _pure_product(seed)
        assert entanglement.concurrence(rho) == 0.0
        verdict = qss.classify(rho)
        assert verdict.status == qss.QSS
        assert qss.verify_certificate(rho, *verdict.certificate)


def _near_pure(seed):
    """Weight 1 - eps on one Haar column, eps spread over 1 or 2 more."""
    rng = np.random.default_rng([9, seed])
    rank = int(rng.integers(2, 4))
    u = linalg.haar_unitary_from_rng(4, rng)
    eps = 10.0 ** rng.uniform(-9, 0)
    w = np.concatenate([[1 - eps], np.full(rank - 1, eps / (rank - 1))])
    m = (u[:, :rank] * w) @ np.conj(u[:, :rank].T)
    return states.QuantumState(m, (2, 2))


def test_magic_decomposition_lambda_primes_descend_on_near_pure_states():
    # seeds 205 and 326 hold two lambda' within 1e-9 of each other
    for seed in range(400):
        md = entanglement.magic_decomposition(_near_pure(seed))
        assert np.all(np.diff(md.lambda_primes) <= 0.0), seed
        table = magic_overlap_table(md)
        assert np.max(np.abs(np.diag(table) - md.lambda_primes)) <= 1e-9
