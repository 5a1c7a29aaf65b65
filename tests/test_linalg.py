import zlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qsslab import linalg, states
from qsslab.errors import BadParameterCount, DimensionMismatch, NotSymmetric


def test_takagi_identity():
    u, d = linalg.takagi(np.eye(3))
    assert np.allclose(d, np.ones(3))
    assert np.allclose(u @ np.diag(d) @ u.T, np.eye(3))


def test_takagi_diagonal_phases():
    phases = np.exp(1j * np.array([0.3, -1.2, 2.5]))
    s = np.diag(phases)
    u, d = linalg.takagi(s)
    assert np.allclose(d, np.ones(3))
    assert np.max(np.abs(u @ np.diag(d) @ u.T - s)) <= 1e-9


def test_takagi_random_reconstruction(rng):
    for n in (2, 3, 4, 6):
        for _ in range(10):
            g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            s = g + g.T
            u, d = linalg.takagi(s)
            assert np.max(np.abs(u @ np.diag(d) @ u.T - s)) <= 1e-9
            assert np.all(d >= 0)
            assert np.all(np.diff(d) <= 1e-12)
            # d must be the singular values
            sv = np.linalg.svd(s, compute_uv=False)
            assert np.max(np.abs(sv - d)) <= 1e-9
            assert linalg.is_unitary(u)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_takagi_degenerate_and_zero_singular_values(n):
    # groups of equal singular values, zero ones among them, take the
    # square root of a block of Z = V^T W larger than 1x1
    rng = np.random.default_rng([61, n])
    for trial in range(60):
        d = rng.uniform(0.1, 1.0, size=n)
        k = rng.integers(2, n + 1)
        d[:k] = d[0]  # a repeated value
        d[rng.permutation(n)[: rng.integers(1, n)]] = 0.0  # zero values
        if trial % 2:
            o = np.linalg.qr(rng.normal(size=(n, n)))[0]
        else:
            o = linalg.haar_unitary_from_rng(n, rng)
        s = o @ np.diag(d) @ o.T
        s = (s + s.T) / 2
        u, dt = linalg.takagi(s)
        assert np.max(np.abs(u @ np.diag(dt) @ u.T - s)) <= 1e-9
        assert linalg.is_unitary(u)
        assert np.max(np.abs(dt - np.sort(d)[::-1])) <= 1e-9


def test_takagi_repeated_eigenvalue_on_the_branch_cut():
    # Z = V^T W of the repeated singular value 1 has a repeated eigenvalue
    # -1 that rounding splits across the principal square root's branch
    # cut; a complex eigendecomposition of Z then gives a root that is
    # neither symmetric nor unitary (residual 1.3, unitarity error 0.31)
    o = np.linalg.qr(np.random.default_rng(2).normal(size=(4, 4)))[0]
    s = o @ np.diag([-1.0, -1.0, 0.0, 0.0]) @ o.T
    u, d = linalg.takagi(s)
    assert np.max(np.abs(u @ np.diag(d) @ u.T - s)) <= 1e-12
    assert np.max(np.abs(u @ linalg.dagger(u) - np.eye(4))) <= 1e-12
    assert np.max(np.abs(d - [1.0, 1.0, 0.0, 0.0])) <= 1e-12


def test_takagi_zero_groups_stay_unitary():
    # rank-1 inputs: Z's three-dimensional zero group has clustered
    # eigenvalues, where a complex eigendecomposition's vectors lose
    # orthogonality (unitarity error up to 2.7e-11 over these seeds; the
    # identity root gives 2.0e-15)
    worst = 0.0
    for seed in range(3000):
        rng = np.random.default_rng([71, seed])
        d = rng.uniform(0.1, 1.0)
        if seed % 2:
            o = linalg.haar_unitary_from_rng(4, rng)
        else:
            o = np.linalg.qr(rng.normal(size=(4, 4)))[0]
        s = d * np.outer(o[:, 0], o[:, 0])
        u, dt = linalg.takagi(s)
        assert np.max(np.abs(u @ np.diag(dt) @ u.T - s)) <= 1e-14
        worst = max(worst, np.max(np.abs(u @ linalg.dagger(u) - np.eye(4))))
    assert worst <= 1e-13


def test_takagi_rejects_asymmetric():
    with pytest.raises(NotSymmetric):
        linalg.takagi(np.array([[0.0, 1.0], [0.5, 0.0]]))


def test_partial_trace_product_state(rng):
    rho = states.random_density_from_rng((2,), rng).matrix
    sigma = states.random_density_from_rng((3,), rng).matrix
    m = np.kron(rho, sigma)
    assert np.allclose(linalg.partial_trace(m, [2, 3], [0]), rho)
    assert np.allclose(linalg.partial_trace(m, [2, 3], [1]), sigma)


def test_partial_trace_bell():
    m = np.outer(states.PHI_PLUS, np.conj(states.PHI_PLUS))
    assert np.allclose(linalg.partial_trace(m, [2, 2], [0]), np.eye(2) / 2)


def brute_force_partial_trace(m, dims, keep):
    """Index-summation oracle, independent of the reshape implementation."""
    keep = sorted(keep)
    traced = [i for i in range(len(dims)) if i not in keep]
    d_keep = int(np.prod([dims[i] for i in keep]))
    out = np.zeros((d_keep, d_keep), dtype=complex)
    import itertools

    def flat(idx):
        r = 0
        for i, d in zip(idx, dims):
            r = r * d + i
        return r

    for row in itertools.product(*[range(dims[i]) for i in keep]):
        for col in itertools.product(*[range(dims[i]) for i in keep]):
            acc = 0.0
            for t in itertools.product(*[range(dims[i]) for i in traced]):
                full_r = [0] * len(dims)
                full_c = [0] * len(dims)
                for i, v in zip(keep, row):
                    full_r[i] = v
                    full_c[i] = col[keep.index(i)]
                for i, v in zip(traced, t):
                    full_r[i] = v
                    full_c[i] = v
                acc += m[flat(full_r), flat(full_c)]
            r_out = 0
            for i, v in zip(keep, row):
                r_out = r_out * dims[i] + v
            c_out = 0
            for i, v in zip(keep, col):
                c_out = c_out * dims[i] + v
            out[r_out, c_out] = acc
    return out


def test_partial_trace_four_party_oracle(rng):
    dims = [2, 2, 2, 2]
    rho = states.random_density_from_rng(dims, rng).matrix
    got = linalg.partial_trace(rho, dims, [1, 3])
    want = brute_force_partial_trace(rho, dims, [1, 3])
    assert np.max(np.abs(got - want)) <= 1e-12
    assert abs(np.trace(got) - np.trace(rho)) <= 1e-12


def test_partial_trace_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        linalg.partial_trace(np.eye(4), [2, 3], [0])


def test_partial_transpose_product_case(rng):
    rho = states.random_density_from_rng((2,), rng).matrix
    sigma = states.random_density_from_rng((2,), rng).matrix
    m = np.kron(rho, sigma)
    pt = linalg.partial_transpose(m, (2, 2))
    assert np.allclose(pt, np.kron(rho, sigma.T))
    assert np.min(np.linalg.eigvalsh(pt)) >= -1e-12


def test_partial_transpose_bell_min_eig():
    m = np.outer(states.PHI_PLUS, np.conj(states.PHI_PLUS))
    pt = linalg.partial_transpose(m, (2, 2))
    assert abs(np.min(np.linalg.eigvalsh(pt)) + 0.5) <= 1e-12


def test_partial_transpose_involution(rng):
    m = states.random_density_from_rng((2, 3), rng).matrix
    pt2 = linalg.partial_transpose(linalg.partial_transpose(m, (2, 3)), (2, 3))
    assert np.array_equal(pt2, m)
    assert abs(np.trace(linalg.partial_transpose(m, (2, 3))) - 1) <= 1e-12


def test_partial_transpose_stack_matches_single_calls(rng):
    ms = np.array([
        states.random_density_from_rng((2, 3), rng).matrix for _ in range(6)
    ]).reshape(2, 3, 6, 6)
    stack = linalg.partial_transpose(ms, (2, 3))
    assert stack.shape == ms.shape
    for m, pt in zip(ms.reshape(-1, 6, 6), stack.reshape(-1, 6, 6)):
        assert np.array_equal(pt, linalg.partial_transpose(m, (2, 3)))
    with pytest.raises(DimensionMismatch):
        linalg.partial_transpose(ms, (3, 3))


def haar_unitary(dim, seed):
    return linalg.haar_unitary_from_rng(dim, np.random.default_rng(seed))


def test_haar_unitary_dim_one():
    u = haar_unitary(1, seed=3)
    assert u.shape == (1, 1)
    assert abs(abs(u[0, 0]) - 1.0) <= 1e-12


def test_haar_unitary_deterministic():
    assert np.array_equal(haar_unitary(4, 7), haar_unitary(4, 7))


def test_haar_unitary_unitarity(rng):
    for dim in (2, 3, 6):
        for seed in range(20):
            assert linalg.is_unitary(haar_unitary(dim, seed))


def test_haar_unitary_first_entry_marginal():
    # E|u_00|^2 = 1/dim under the Haar measure
    dim = 3
    n = 10**4
    rng = np.random.default_rng(123)
    samples = np.array(
        [abs(linalg.haar_unitary_from_rng(dim, rng)[0, 0]) ** 2 for _ in range(n)]
    )
    se = samples.std(ddof=1) / np.sqrt(n)
    assert abs(samples.mean() - 1.0 / dim) <= 3 * se


def test_parameterized_unitary_zero_is_identity():
    for dim in (2, 3, 4):
        u = linalg.parameterized_unitary(np.zeros(dim * dim), dim)
        assert np.max(np.abs(u - np.eye(dim))) <= 1e-12


def test_parameterized_unitary_always_unitary(rng):
    for dim in (2, 3, 4):
        for _ in range(20):
            theta = rng.uniform(-np.pi, np.pi, dim * dim)
            u = linalg.parameterized_unitary(theta, dim)
            assert linalg.is_unitary(u)


def test_parameterized_unitary_single_angle_orbit():
    # for dim=2, parameter index 2 is the rotation angle of the only
    # two-level rotation: |<0|u|0>| = |cos(theta/2)|
    for ang in np.linspace(-np.pi, np.pi, 17):
        theta = np.zeros(4)
        theta[2] = ang
        u = linalg.parameterized_unitary(theta, 2)
        assert abs(abs(u[0, 0]) - abs(np.cos(ang / 2))) <= 1e-12


def test_parameterized_unitary_bad_count():
    with pytest.raises(BadParameterCount):
        linalg.parameterized_unitary(np.zeros(3), 2)


def test_parameterized_unitary_stack_matches_single_calls(rng):
    for dim in (1, 2, 3, 4, 6):
        thetas = rng.uniform(-np.pi, np.pi, (3, 5, dim * dim))
        stack = linalg.parameterized_unitary(thetas, dim)
        assert stack.shape == (3, 5, dim, dim)
        for theta, u in zip(thetas.reshape(-1, dim * dim),
                            stack.reshape(-1, dim, dim)):
            single = linalg.parameterized_unitary(theta, dim)
            assert single.tobytes() == np.ascontiguousarray(u).tobytes()


def _drive_rows(theta0, iters, target, scores, lookahead=1):
    """Run a PatternSearch over the rows of theta0, row i on scores[i],
    scoring every candidate of each run. Returns each row's (best, theta,
    evals) and every (candidate, score to beat) it read: theta0, then a
    run's candidates up to and including its first improvement, which
    must be the candidate the climb takes."""
    theta0 = np.asarray(theta0, dtype=float)
    climb = linalg.PatternSearch(
        theta0, [f(t) for f, t in zip(scores, theta0)], iters, target,
        lookahead)
    reads = [[(t, -np.inf)] for t in theta0]
    while (run := climb.run()) is not None:
        rows, cands, above = run
        vals = [scores[r](c) for r, c in zip(rows, cands)]
        want = np.zeros(len(rows), dtype=bool)
        done = set()
        for i, (r, c, bar, v) in enumerate(zip(rows, cands, above, vals)):
            # each candidate moves the one coordinate `coords` names
            assert list(np.flatnonzero(c != climb.theta[r])) == [
                climb.coords[i]]
            if r not in done:
                reads[r].append((c, bar))
                if v > bar:
                    want[i] = True
                    done.add(r)
        assert np.array_equal(climb.read(np.array(vals)), want)
    results = list(zip(climb.best, climb.theta, climb.evals))
    return results, reads


def _drive(theta0, iters, target, score, lookahead=1):
    """One climb of _drive_rows: its (best, theta, evals) and its reads."""
    results, reads = _drive_rows([theta0], iters, target, [score], lookahead)
    return results[0], reads[0]


def test_pattern_search_start_meeting_target_takes_one_evaluation():
    theta0 = np.array([0.5, -1.0, 2.0])
    (best, theta, evals), read = _drive(theta0, 100, 1.0, lambda t: 1.0)
    assert (best, evals, len(read)) == (1.0, 1, 1)
    assert np.array_equal(theta, theta0)


def test_pattern_search_never_exceeds_iters():
    def unbounded(t):
        return float(t.sum())

    def peaked(t):  # the step floor ends the search near (0.7, 0.7, 0.7)
        return -float(np.sum((t - 0.7) ** 2))

    for iters in (1, 2, 3, 7, 50, 400):
        for score in (unbounded, peaked):
            (best, theta, evals), read = _drive(
                np.zeros(3), iters, np.inf, score)
            assert evals == len(read) <= iters
            assert best == score(theta)
            if score is unbounded:
                assert evals == iters


def test_pattern_search_takes_first_improving_candidate():
    # every +step move improves sum(theta): each is taken at once, and the
    # score to beat is the score of the last candidate taken
    (best, theta, evals), read = _drive(
        np.zeros(2), 5, np.inf, lambda t: float(t.sum()))
    cands = [list(c) for c, _ in read]
    assert cands == [[0.0, 0.0], [0.3, 0.0], [0.3, 0.3], [0.6, 0.3], [0.6, 0.6]]
    assert [b for _, b in read] == [-np.inf, 0.0, 0.3, 0.6, 0.6 + 0.3]
    assert evals == 5 and np.array_equal(theta, [0.6, 0.6])
    # a failed +step move is followed by the -step move of that coordinate
    _, read = _drive(np.zeros(2), 5, np.inf, lambda t: -float(t.sum()))
    cands = [list(c) for c, _ in read]
    assert cands == [[0.0, 0.0], [0.3, 0.0], [-0.3, 0.0], [-0.3, 0.3],
                     [-0.3, -0.3]]


def test_pattern_search_target_is_checked_between_sweeps():
    # the score reaches the target on evaluation 2, mid-sweep; the climb
    # finishes the sweep (two moves on each later coordinate) and stops
    for lookahead in (1, 4):
        (best, theta, evals), read = _drive(
            np.zeros(3), 100, 1.0, lambda t: 1.0 if t[0] > 0 else 0.0,
            lookahead)
        assert (best, evals, len(read)) == (1.0, 6, 6)
        assert np.array_equal(theta, [0.3, 0.0, 0.0])


def _level_score(levels, seed):
    """A score with plateaus and ties: each candidate's bytes pick one of
    `levels` values."""
    def score(t):
        return float(levels[zlib.crc32(t.tobytes(), seed) % len(levels)])
    return score


def _slope_score(weights, quantum):
    """A linear score rounded to `quantum`: flat within a cell, so moves
    tie until a step crosses a cell edge."""
    def score(t):
        return float(np.round(weights @ t / quantum) * quantum)
    return score


@settings(max_examples=120, derandomize=True, deadline=None)
@given(
    n=st.integers(0, 5),
    iters=st.one_of(st.sampled_from([1, 2, 3, 400]),
                    st.integers(2, 30).map(lambda k: 2 * k + 1)),
    target=st.sampled_from([np.inf, 0.5, 1.0]),
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(["levels", "slope"]),
)
def test_pattern_search_lookahead_reads_the_same_climb(n, iters, target, seed,
                                                        kind):
    rng = np.random.default_rng(seed)
    if kind == "levels":
        score = _level_score(rng.choice([0.0, 0.25, 0.5, 1.0], 3), seed)
    else:
        score = _slope_score(rng.normal(size=n), rng.choice([0.05, 0.3, 1.0]))
    theta0 = rng.uniform(-1.0, 1.0, n)
    one, read_one = _drive(theta0, iters, target, score)
    four, read_four = _drive(theta0, iters, target, score, 4)
    assert one[0] == four[0] and one[2] == four[2]
    assert one[1].tobytes() == four[1].tobytes()
    assert len(read_one) == len(read_four) == one[2] <= iters
    for (c1, bar1), (c4, bar4) in zip(read_one, read_four):
        assert c1.tobytes() == c4.tobytes() and bar1 == bar4
    assert one[0] == score(one[1])


def _budget_score(weights):
    """Linear and below 1: every sweep improves, so only the budget stops
    it at target 1.0 (weights nonzero, fewer than 1000 steps of 0.3)."""
    def score(t):
        return float(weights @ t) * 1e-4
    return score


def _peak_score(centre):
    """At most 0 and peaked: the step floor stops it at target 1.0."""
    def score(t):
        return -float(np.sum((t - centre) ** 2))
    return score


def _target_score(coord, edge):
    """1.0 once coordinate `coord` passes `edge`: the target stops it."""
    def score(t):
        return 1.0 if t[coord] > edge else 0.0
    return score


@settings(max_examples=60, derandomize=True, deadline=None)
@given(
    n=st.integers(1, 4),
    iters=st.integers(250, 400),
    lookahead=st.integers(1, 6),
    extra=st.lists(st.sampled_from(["levels", "slope"]), max_size=3),
    seed=st.integers(0, 2**32 - 1),
)
def test_pattern_search_rows_climb_as_single_climbs(n, iters, lookahead,
                                                     extra, seed):
    # rows that stop at different steps, for each of the three reasons,
    # next to rows with plateaus and ties, in a shuffled order
    rng = np.random.default_rng(seed)
    theta0 = rng.uniform(-1.0, 1.0, (3 + len(extra), n))
    coord = int(rng.integers(n))
    scores = [
        _budget_score(rng.choice([-1.0, 1.0], n) * rng.uniform(0.5, 2.0, n)),
        _peak_score(theta0[1] + rng.uniform(-0.5, 0.5, n)),
        _target_score(coord, theta0[2, coord] + 0.2),
    ]
    for kind in extra:
        if kind == "levels":
            scores.append(_level_score(rng.choice([0.0, 0.25, 0.5, 1.0], 3),
                                       seed))
        else:
            scores.append(_slope_score(rng.normal(size=n),
                                       rng.choice([0.05, 0.3, 1.0])))
    order = rng.permutation(len(scores))
    theta0, scores = theta0[order], [scores[i] for i in order]
    rows, reads = _drive_rows(theta0, iters, 1.0, scores, lookahead)
    for i, (row, read) in enumerate(zip(rows, reads)):
        single, single_read = _drive(theta0[i], iters, 1.0, scores[i])
        assert row[0] == single[0] and row[2] == single[2]
        assert row[1].tobytes() == single[1].tobytes()
        assert len(read) == len(single_read) == row[2]
        for (c, bar), (c1, bar1) in zip(read, single_read):
            assert c.tobytes() == c1.tobytes() and bar == bar1
    best, _, evals = zip(*rows)
    budget, floor, target = (int(np.flatnonzero(order == k)[0])
                             for k in range(3))
    # the floor row stops early below the target: on the step floor
    assert evals[budget] == iters > max(evals[floor], evals[target])
    assert best[floor] < 1.0 and best[target] == 1.0


def test_run_length_gives_a_single_climb_four_candidates():
    # a single climb gets LOOKAHEAD candidates per run; many climbs scored
    # together share about STEP_ROWS rows, never less than one each
    assert linalg.run_length(1) == linalg.LOOKAHEAD == 4
    assert [linalg.run_length(n) for n in (2, 8, 9, 16, 17, 32, 64)] == [
        4, 4, 3, 2, 1, 1, 1]
