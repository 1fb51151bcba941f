"""Dense linear-algebra core: trace rule, collapse, reconstruction, generator."""

import math

import numpy as np
import pytest

from qfoundry import quantum as qt


def test_spin_operator_axes():
    assert np.allclose(qt.spin_operator(0.0, 0.0), np.diag([1.0, -1.0]), atol=1e-12)
    sx = qt.spin_operator(0.0, math.pi / 2)
    assert np.allclose(sx, np.array([[0, 1], [1, 0]]), atol=1e-12)
    sy = qt.spin_operator(math.pi / 2, math.pi / 2)
    assert np.allclose(sy, np.array([[0, -1j], [1j, 0]]), atol=1e-12)


def test_spin_operator_involution_random():
    rng = np.random.default_rng(2)
    for _ in range(25):
        theta, phi = rng.uniform(0, 2 * math.pi, 2)
        sigma = qt.spin_operator(theta, phi)
        assert np.allclose(sigma @ sigma, np.eye(2), atol=1e-12)
        values = np.linalg.eigvalsh(sigma)
        assert np.allclose(sorted(values), [-1.0, 1.0], atol=1e-12)
        up, down = qt.spin_projectors(theta, phi)
        assert np.allclose(up.matrix + down.matrix, np.eye(2), atol=1e-12)


def test_born_pure_state():
    rho = qt.DensityOperator.pure([1, 0, 0])
    proj = qt.ProjectionOp.onto([1, 0, 0])
    assert qt.born_probability(rho, proj) == pytest.approx(1.0, abs=1e-12)


def test_born_singlet_half():
    rho = qt.DensityOperator.pure(qt.SINGLET)
    up, _ = qt.spin_projectors(0.0, 0.0)
    proj = qt.ProjectionOp(np.kron(up.matrix, np.eye(2)))
    assert qt.born_probability(rho, proj) == pytest.approx(0.5, abs=1e-12)


def test_born_maximally_mixed():
    rho = qt.DensityOperator.maximally_mixed(2)
    rng = np.random.default_rng(8)
    v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    assert qt.born_probability(rho, qt.ProjectionOp.onto(v)) == pytest.approx(0.5, abs=1e-12)


def test_born_resolution_sums_to_one():
    rng = np.random.default_rng(4)
    for dim in (2, 3, 4):
        raw = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        rho = qt.DensityOperator(raw @ raw.conj().T / np.trace(raw @ raw.conj().T).real)
        unitary, _ = np.linalg.qr(raw)
        total = sum(
            qt.born_probability(rho, qt.ProjectionOp.onto(unitary[:, k]))
            for k in range(dim)
        )
        assert total == pytest.approx(1.0, abs=1e-10)


def test_collapse_singlet_z():
    rho = qt.DensityOperator.pure(qt.SINGLET)
    up, _ = qt.spin_projectors(0.0, 0.0)
    proj = qt.ProjectionOp(np.kron(up.matrix, np.eye(2)))
    after = qt.collapse(rho, proj)
    assert np.allclose(after.matrix, np.diag([0, 1, 0, 0]), atol=1e-12)
    assert qt.born_probability(after, proj) == pytest.approx(1.0, abs=1e-10)


def test_collapse_singlet_equatorial():
    # spin-up along the theta=0 equatorial axis projects the singlet onto
    # the ray of (-1, 1, -1, 1)
    rho = qt.DensityOperator.pure(qt.SINGLET)
    up, _ = qt.spin_projectors(0.0, math.pi / 2)
    proj = qt.ProjectionOp(np.kron(up.matrix, np.eye(2)))
    after = qt.collapse(rho, proj)
    target = np.array([-1, 1, -1, 1], dtype=complex) / 2
    assert np.allclose(after.matrix, np.outer(target, target.conj()), atol=1e-12)


def test_collapse_idempotent():
    rho = qt.DensityOperator.pure(qt.SINGLET)
    up, _ = qt.spin_projectors(0.7, 1.1)
    proj = qt.ProjectionOp(np.kron(up.matrix, np.eye(2)))
    once = qt.collapse(rho, proj)
    twice = qt.collapse(once, proj)
    assert np.allclose(once.matrix, twice.matrix, atol=1e-12)


def test_collapse_zero_probability():
    rho = qt.DensityOperator.pure([1, 0])
    proj = qt.ProjectionOp.onto([0, 1])
    with pytest.raises(qt.ConditioningError):
        qt.collapse(rho, proj)


@pytest.mark.parametrize("vector", [[1e-160, 0, 0], [1e300, 1e300, 0], [1e-320, 0, 0]],
                         ids=["subnormal-square", "overflowing-square", "zero-square"])
@pytest.mark.parametrize("build", [qt.DensityOperator.pure, qt.ProjectionOp.onto],
                         ids=["pure", "onto"])
def test_unnormalizable_vectors_are_refused(build, vector):
    with pytest.raises(ValueError) as caught:
        build(vector)
    assert str(caught.value) == ("vector must be nonzero, with a squared norm that neither "
                                 "underflows nor overflows")


def _oracle_for(state):
    return lambda ops: np.trace(state @ ops, axis1=1, axis2=2).real


def test_reconstruct_projection():
    proj = qt.ProjectionOp.onto([1, 0, 0]).matrix
    basis = [np.eye(3, dtype=complex)[:, k] for k in range(3)]
    recovered = qt.reconstruct_state(_oracle_for(proj), basis)
    assert np.abs(recovered - proj).max() < 1e-12


def test_reconstruct_random_density():
    rng = np.random.default_rng(12)
    raw = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    state = raw @ raw.conj().T
    state = state / np.trace(state).real
    basis = [np.eye(3, dtype=complex)[:, k] for k in range(3)]
    recovered = qt.reconstruct_state(_oracle_for(state), basis)
    assert np.abs(recovered - state).max() < 1e-10


def test_reconstruct_basis_independent():
    rng = np.random.default_rng(13)
    raw = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    state = raw @ raw.conj().T
    state = state / np.trace(state).real
    standard = [np.eye(3, dtype=complex)[:, k] for k in range(3)]
    unitary, _ = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    rotated = [unitary[:, k] for k in range(3)]
    a = qt.reconstruct_state(_oracle_for(state), standard)
    b = qt.reconstruct_state(_oracle_for(state), rotated)
    assert np.abs(a - b).max() < 1e-10


def test_reconstruct_dispersive_direction():
    rng = np.random.default_rng(14)
    raw = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    state = raw @ raw.conj().T
    state = state / np.trace(state).real
    basis = [np.eye(3, dtype=complex)[:, k] for k in range(3)]
    recovered = qt.reconstruct_state(_oracle_for(state), basis)
    # the recovered state is dispersive: e, the leading and the last
    # eigenvector mixed half and half, has 0 < <e, U e> < 1
    vectors = np.linalg.eigh(recovered)[1]
    e = (vectors[:, -1] + vectors[:, 0]) / math.sqrt(2)
    p = float(np.real(e.conj() @ recovered @ e))
    assert 0.0 < p < 1.0


def test_reconstruct_inconsistent_oracle():
    # a constant oracle cannot be a trace functional: the antisymmetric pair
    # operators satisfy G_{ji} = -G_{ij}, so their expectations must flip sign
    basis = [np.eye(2, dtype=complex)[:, k] for k in range(2)]
    with pytest.raises(qt.InconsistentOracleError):
        qt.reconstruct_state(lambda ops: np.full(len(ops), 0.3), basis)


def _reconstruct_per_query(expectation, basis):
    """Reference: the per-query loop with a per-operator oracle and np.outer
    pair operators."""
    vecs = [np.asarray(e, dtype=complex) for e in basis]
    n = len(vecs)
    coords = np.zeros((n, n), dtype=complex)
    for i in range(n):
        coords[i, i] = expectation(np.outer(vecs[i], vecs[i].conj()))
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            f_op = np.outer(vecs[i], vecs[j].conj()) + np.outer(vecs[j], vecs[i].conj())
            g_op = 1j * np.outer(vecs[i], vecs[j].conj()) - 1j * np.outer(vecs[j], vecs[i].conj())
            coords[i, j] = 0.5 * expectation(f_op) + 0.5j * expectation(g_op)
    b = np.column_stack(vecs)
    return b @ coords @ b.conj().T


@pytest.mark.parametrize("dim", range(1, 7))
def test_reconstruct_matches_per_query_reference(dim):
    rng = np.random.default_rng(dim)
    standard = [np.eye(dim, dtype=complex)[:, k] for k in range(dim)]
    raw = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    haar = [column for column in np.linalg.qr(raw)[0].T]
    for basis in (standard, haar):
        for _ in range(5):
            raw = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            state = raw + raw.conj().T  # Hermitian, not necessarily a density
            expected = _reconstruct_per_query(lambda op: float(np.trace(state @ op).real), basis)
            got = qt.reconstruct_state(_oracle_for(state), basis)
            assert np.abs(got - expected).max() <= 1e-14


def test_reconstruct_calls_oracle_once():
    state = np.diag([0.5, 0.3, 0.2]).astype(complex)
    basis = [np.eye(3, dtype=complex)[:, k] for k in range(3)]
    shapes = []

    def oracle(ops):
        shapes.append(ops.shape)
        return np.trace(state @ ops, axis1=1, axis2=2).real

    qt.reconstruct_state(oracle, basis)
    assert shapes == [(3 + 2 * 3 * 3, 3, 3)]


@pytest.mark.parametrize(
    "oracle",
    [
        lambda ops: float(np.trace(ops[0]).real),  # a per-operator oracle's scalar
        lambda ops: np.zeros(len(ops) - 1),
        lambda ops: np.zeros((len(ops), 1)),
        lambda ops: np.trace(ops, axis1=1, axis2=2),  # complex
        lambda ops: np.full(len(ops), np.nan),
        lambda ops: ["0.1"] * len(ops),
        lambda ops: np.zeros((3, len(ops) - 1)),
        lambda ops: np.zeros((3, len(ops), 1)),
    ],
    ids=["scalar", "short", "column", "complex", "nan", "strings", "batch-short",
         "batch-column"],
)
def test_reconstruct_rejects_malformed_oracle_values(oracle):
    basis = [np.eye(2, dtype=complex)[:, k] for k in range(2)]
    with pytest.raises(ValueError, match=r"must return 10 finite reals of shape \(10,\)"):
        qt.reconstruct_state(oracle, basis)


def _hermitian(rng, dim):
    raw = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return raw + raw.conj().T


@pytest.mark.parametrize("dim", range(1, 7))
def test_reconstruct_batch_equals_single_calls(dim):
    rng = np.random.default_rng(100 + dim)
    standard = [np.eye(dim, dtype=complex)[:, k] for k in range(dim)]
    raw = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    haar = list(np.linalg.qr(raw)[0].T)
    states = [_hermitian(rng, dim) for _ in range(6)]
    for basis in (standard, haar):
        shapes = []

        def oracle(ops):
            shapes.append(ops.shape)
            return np.array([_oracle_for(state)(ops) for state in states])

        got = qt.reconstruct_state(oracle, basis)
        assert shapes == [(dim + 2 * dim * dim, dim, dim)]
        assert got.shape == (6, dim, dim)
        for state, member in zip(states, got):
            assert np.array_equal(member, qt.reconstruct_state(_oracle_for(state), basis))
        # any leading batch shape, including an empty one
        grid = qt.reconstruct_state(lambda ops: oracle(ops).reshape(2, 3, -1), basis)
        assert np.array_equal(grid, got.reshape(2, 3, dim, dim))
        empty = qt.reconstruct_state(lambda ops: oracle(ops)[:0], basis)
        assert empty.shape == (0, dim, dim)


def test_reconstruct_batch_with_one_inconsistent_member():
    rng = np.random.default_rng(21)
    basis = [np.eye(3, dtype=complex)[:, k] for k in range(3)]
    states = [_hermitian(rng, 3) for _ in range(4)]

    def oracle(ops):
        values = np.array([_oracle_for(state)(ops) for state in states])
        values[2] = 0.3  # a constant row, as in test_reconstruct_inconsistent_oracle
        return values

    with pytest.raises(qt.InconsistentOracleError):
        qt.reconstruct_state(oracle, basis)


@pytest.mark.parametrize(
    "basis",
    [
        [np.array([1, 0]), np.array([1, 1]) / math.sqrt(2)],  # not orthogonal
        [np.array([2, 0]), np.array([0, 1])],  # not normalised
        [np.array([1, 0])],  # one vector of C^2
    ],
    ids=["oblique", "unnormalised", "incomplete"],
)
def test_reconstruct_requires_orthonormal_basis(basis):
    state = np.diag([0.7, 0.3]).astype(complex)
    with pytest.raises(ValueError, match="orthonormal"):
        qt.reconstruct_state(_oracle_for(state), basis)


def test_generator_base_cases():
    p1 = qt.ProjectionOp.onto([1, 0, 0])
    gen, alphas, residuals = qt.ks_single_generator([p1])
    assert alphas == [1.0]
    assert np.allclose(gen, p1.matrix)
    assert max(residuals) < 1e-12

    p2 = qt.ProjectionOp.onto([0, 1, 0])
    gen, alphas, residuals = qt.ks_single_generator([p1, p2])
    assert alphas == [1.0, 0.5]
    # h(1) = 0 and h(1/2) = 1, so one application recovers the second projection
    h_of_gen = 4 * (gen - gen @ gen)
    assert np.abs(h_of_gen - p2.matrix).max() < 1e-12
    assert max(residuals) < 1e-10


def test_generator_rotated_triple():
    rng = np.random.default_rng(21)
    raw = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    unitary, _ = np.linalg.qr(raw)
    projections = [qt.ProjectionOp.onto(unitary[:, k]) for k in range(3)]
    _, alphas, residuals = qt.ks_single_generator(projections)
    assert max(residuals) < 1e-8
    assert alphas[2] == pytest.approx(0.5 * (1 - math.sqrt(0.5)))


def test_generator_spectrum_and_h_chain():
    dim = 5
    rng = np.random.default_rng(22)
    raw = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    unitary, _ = np.linalg.qr(raw)
    projections = [qt.ProjectionOp.onto(unitary[:, k]) for k in range(5)]
    gen, alphas, residuals = qt.ks_single_generator(projections)
    assert max(residuals) < 1e-8
    spectrum = sorted(np.linalg.eigvalsh(gen))
    assert np.allclose(spectrum, sorted(alphas), atol=1e-10)
    for k in range(1, 5):
        h_val = 4 * (alphas[k] - alphas[k] ** 2)
        assert h_val == pytest.approx(alphas[k - 1], abs=1e-10)


def test_generator_spectrum_includes_zero_on_deficient_tuple():
    # three rank-1 projections inside dimension 4 leave a kernel
    projections = [qt.ProjectionOp.onto(np.eye(4)[:, k]) for k in range(3)]
    gen, alphas, _ = qt.ks_single_generator(projections)
    spectrum = sorted(np.linalg.eigvalsh(gen))
    assert np.allclose(spectrum, sorted(alphas + [0.0]), atol=1e-10)


def test_generator_rejects_non_orthogonal():
    p1 = qt.ProjectionOp.onto([1, 0, 0])
    p2 = qt.ProjectionOp.onto([1, 1, 0])
    with pytest.raises(ValueError):
        qt.ks_single_generator([p1, p2])


def test_generator_tuple_cap():
    projections = [qt.ProjectionOp.onto(np.eye(6)[:, k]) for k in range(6)]
    with pytest.raises(ValueError):
        qt.ks_single_generator(projections)


def test_density_invariants_enforced():
    with pytest.raises(ValueError):
        qt.DensityOperator(np.eye(2))  # trace 2
    with pytest.raises(ValueError):
        qt.ProjectionOp(np.diag([0.5, 0.5]))  # not idempotent


def test_spectral_projectors_group_degenerate():
    mat = np.diag([1.0, 1.0 + 1e-10, 0.0])
    groups = qt.spectral_projectors(mat)
    assert len(groups) == 2
    ranks = sorted(int(round(np.trace(p).real)) for _, p in groups)
    assert ranks == [1, 2]


def _probabilities(n, zero, seed):
    """Random probabilities over n outcomes, one of them 0 at the given place."""
    probs = np.random.default_rng((seed, n)).random(n) + 0.05
    if zero is not None and n > 1:
        probs[{"first": 0, "middle": n // 2, "last": n - 1}[zero]] = 0.0
    return probs / probs.sum()


@pytest.mark.parametrize("zero", [None, "first", "middle", "last"])
@pytest.mark.parametrize("n", [*range(1, 9), 300])
def test_categorical_is_generator_choice(n, zero):
    """Equal to Generator.choice at every size, across the edges of the
    blocks the uniforms are drawn in; n = 300 needs uint16 picks, and n = 1
    leaves categorical_counts no cdf entry to count below."""
    block = qt._DRAW_BLOCK
    for seed in (0, 7, 0xC0FFEE):
        probs = _probabilities(n, zero, seed)
        for size in (0, 1, 7, 100_000, block - 1, block, block + 1, 2 * block + 1):
            mine, numpys = np.random.default_rng(seed), np.random.default_rng(seed)
            got = qt.categorical(mine, probs, size)
            want = numpys.choice(n, size, p=probs)
            assert got.dtype == np.min_scalar_type(n) and got.shape == (size,)
            assert np.array_equal(got, want)
            assert mine.bit_generator.state == numpys.bit_generator.state
            mine, numpys = np.random.default_rng(seed), np.random.default_rng(seed)
            counts = qt.categorical_counts(mine, probs, size)
            assert np.array_equal(counts, np.bincount(numpys.choice(n, size, p=probs),
                                                      minlength=n))
            assert mine.bit_generator.state == numpys.bit_generator.state


def test_categorical_counts_holds_one_block(traced_peak):
    """A million draws hold one block of uniforms (512 KiB), not 8 MB."""
    rng = np.random.default_rng(1)
    assert traced_peak(lambda: qt.categorical_counts(rng, [0.1, 0.2, 0.3, 0.4], 10**6)) < 1.5e6


@pytest.mark.parametrize("n", range(1, 6))
def test_threshold_counts_is_capped_searchsorted(n):
    """On an unnormalized cdf the count ignores the last entry, which caps
    every bin at n - 1: the branch picks of the sequence simulator."""
    rng = np.random.default_rng(n)
    cdf = np.cumsum(rng.random(n) * 0.3)
    uniforms = np.concatenate([rng.random(1000), cdf, np.nextafter(cdf, 0)])
    want = np.minimum(cdf.searchsorted(uniforms, side="right"), n - 1)
    assert np.array_equal(qt.threshold_counts(uniforms, cdf), want)
