"""Hidden-variable simulator: families, valuations, sequential dynamics."""

import gc
import math
from itertools import combinations, permutations

import numpy as np
import pytest

from qfoundry import mkc
from qfoundry import quantum as qt

SEED = 0xC0FFEE
SHOTS = 100_000


@pytest.fixture(scope="module")
def family3():
    return mkc.generate_basis_family(3, 16, SEED)


@pytest.fixture(scope="module")
def rho3():
    rng = np.random.default_rng(41)
    raw = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    return qt.DensityOperator(raw @ raw.conj().T / np.trace(raw @ raw.conj().T).real)


def test_single_basis_family_trivially_incompatible():
    family = mkc.generate_basis_family(2, 1, seed=1)
    assert family.size == 1


def test_hand_commutator_dim2():
    b1 = np.eye(2, dtype=complex)
    b2 = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
    p = np.diag([1.0, 0.0]).astype(complex)
    q = np.outer(b2[0], b2[0].conj())
    assert np.linalg.norm(p @ q - q @ p, 2) == pytest.approx(0.5, abs=1e-12)
    assert mkc.totally_incompatible(b1, b2)


def test_random_family_pairwise_incompatible():
    family = mkc.generate_basis_family(3, 10, seed=42)
    pairs = [(i, j) for i in range(10) for j in range(i + 1, 10)]
    assert len(pairs) == 45
    assert all(mkc.totally_incompatible(family.bases[i], family.bases[j]) for i, j in pairs)


def _all_subsets_incompatible(b1, b2):
    """Reference: every nontrivial projection of one basis against the other's,
    each commutator by its operator norm."""

    def projections(basis):
        n = basis.shape[0]
        return np.array([
            sum(np.outer(basis[j], basis[j].conj()) for j in subset)
            for r in range(1, n)
            for subset in combinations(range(n), r)
        ])

    p = projections(b1)[:, None]
    q = projections(b2)[None, :]
    norms = np.linalg.norm(p @ q - q @ p, 2, axis=(2, 3))
    return bool(np.all(norms > mkc.INCOMPATIBILITY_THRESHOLD))


@pytest.mark.parametrize("n", [3, 4])
def test_shared_vector_is_not_totally_incompatible(n):
    rng = np.random.default_rng(n)
    b1 = mkc.random_unitary(rng, n).T
    b2 = mkc._basis_containing(rng, b1[1])
    assert not mkc.totally_incompatible(b1, b2)
    assert not mkc.totally_incompatible(b2, b1)


def _block_rotated(rng, basis):
    """The basis with rows (0, 1) and (2, 3) rotated within their planes."""
    out = basis.copy()
    for lo in range(0, basis.shape[0] - 1, 2):
        out[lo : lo + 2] = mkc.random_unitary(rng, 2) @ basis[lo : lo + 2]
    return out


@pytest.mark.parametrize("n, rejected", [(2, 10), (3, 20), (4, 20)])
def test_totally_incompatible_matches_all_subsets(n, rejected):
    # pairs cycle through a shared vector, shared planes (in d=4 a rank-2
    # projection commutes although no two atoms do) and independent draws
    rng = np.random.default_rng(100 + n)
    verdicts = []
    for trial in range(30):
        b1 = mkc.random_unitary(rng, n).T
        if trial % 3 == 0:
            b2 = mkc._basis_containing(rng, b1[-1])
        elif trial % 3 == 1:
            b2 = _block_rotated(rng, b1)
        else:
            b2 = mkc.random_unitary(rng, n).T
        expected = _all_subsets_incompatible(b1, b2)
        assert mkc.totally_incompatible(b1, b2) == expected
        verdicts.append(expected)
    assert verdicts.count(False) == rejected


def _stack_with_member(rng, n, kind, position, size=5):
    """A stack of random bases; the one at `position` shares a vector with b1
    or is b1 block-rotated (kind "shared"/"rotated"), or is random too."""
    b1 = mkc.random_unitary(rng, n).T
    stack = np.array([mkc.random_unitary(rng, n).T for _ in range(size)])
    if kind == "shared":
        stack[position] = mkc._basis_containing(rng, b1[-1])
    elif kind == "rotated":
        stack[position] = _block_rotated(rng, b1)
    return b1, stack


@pytest.mark.parametrize("n", [2, 3, 4])
def test_empty_stack_is_totally_incompatible(n):
    b1 = mkc.random_unitary(np.random.default_rng(n), n).T
    assert mkc.totally_incompatible(b1, np.empty((0, n, n), dtype=complex))


STACK_KINDS = ("shared", "rotated", "random")


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("kind", STACK_KINDS)
@pytest.mark.parametrize("position", [0, 2, 4])
def test_stacked_verdict_matches_pairs(n, kind, position):
    rng = np.random.default_rng((n, position, STACK_KINDS.index(kind)))
    b1, stack = _stack_with_member(rng, n, kind, position)
    pairwise = [mkc.totally_incompatible(b1, b2) for b2 in stack]
    assert pairwise == [_all_subsets_incompatible(b1, b2) for b2 in stack]
    assert mkc.totally_incompatible(b1, stack) == all(pairwise)
    # in d = 2 a block rotation is just another random basis
    assert all(pairwise) == (kind == "random" or (kind == "rotated" and n == 2))


@pytest.mark.parametrize("shape", [(2, 2), (3, 2), (2, 2, 2), (2, 4, 4), (1, 2, 3, 3), (0,)])
def test_stack_shape_must_match_basis(shape):
    b1 = mkc.random_unitary(np.random.default_rng(0), 3).T
    with pytest.raises(ValueError, match="stack of bases"):
        mkc.totally_incompatible(b1, np.zeros(shape, dtype=complex))


def _operator_norm_batches(monkeypatch):
    """Record the number of matrices of every operator-norm call."""
    batches = []
    norm = np.linalg.norm

    def counting_norm(x, ord=None, axis=None, keepdims=False):
        if ord == 2:
            batches.append(len(x))
        return norm(x, ord, axis, keepdims)

    monkeypatch.setattr(np.linalg, "norm", counting_norm)
    return batches


def _tilted_basis(rng, b1, angle):
    """A random basis containing b1's first vector rotated by `angle`."""
    n = b1.shape[0]
    w = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    w -= b1[0] * np.vdot(b1[0], w)
    w /= np.linalg.norm(w)
    return mkc._basis_containing(rng, math.cos(angle) * b1[0] + math.sin(angle) * w)


@pytest.mark.parametrize("n, angle", [(2, 1e-9), (3, 1e-9), (4, 1e-9), (2, 1.7e-8)])
def test_near_threshold_pair_reaches_operator_norm(monkeypatch, n, angle):
    # b2 contains b1's first vector rotated by `angle`, so some commutators
    # have norms of order `angle`: at 1e-9 they commute within the threshold;
    # at 1.7e-8 in d = 2 the one commutator has operator norm 1.7e-8 (above
    # it) and Frobenius norm 2.4e-8, which lies below the 2 sqrt(2) 1e-8 bound
    rng = np.random.default_rng(n)
    b1 = mkc.random_unitary(rng, n).T
    b2 = _tilted_basis(rng, b1, angle)
    expected = _all_subsets_incompatible(b1, b2)
    assert expected == (angle > mkc.INCOMPATIBILITY_THRESHOLD)
    batches = _operator_norm_batches(monkeypatch)
    assert mkc.totally_incompatible(b1, b2) == expected
    assert mkc.totally_incompatible(b1, b2[None]) == expected
    assert sum(batches) >= 2


@pytest.mark.parametrize("n", [2, 3, 4])
def test_random_bases_never_reach_operator_norm(monkeypatch, n):
    rng = np.random.default_rng(n)
    b1 = mkc.random_unitary(rng, n).T
    stack = np.array([mkc.random_unitary(rng, n).T for _ in range(20)])
    batches = _operator_norm_batches(monkeypatch)
    assert mkc.totally_incompatible(b1, stack)
    assert batches == []


PAIR_KINDS = ("random", "shared", "permuted-phased", "block-rotated", "tilt-1e-9", "tilt-1.7e-8")


def _seeded_pair(rng, n, kind):
    """(b1, b2) of one kind: independent draws, a shared vector, b1's vectors
    permuted with random phases, b1 block-rotated (shared planes in d = 4),
    or a basis holding b1's first vector rotated by 1e-9 or 1.7e-8."""
    b1 = mkc.random_unitary(rng, n).T
    if kind == "random":
        b2 = mkc.random_unitary(rng, n).T
    elif kind == "shared":
        b2 = mkc._basis_containing(rng, b1[rng.integers(n)])
    elif kind == "permuted-phased":
        b2 = np.exp(2j * math.pi * rng.random(n))[:, None] * b1[rng.permutation(n)]
    elif kind == "block-rotated":
        b2 = _block_rotated(rng, b1)
    else:
        b2 = _tilted_basis(rng, b1, float(kind.removeprefix("tilt-")))
    return b1, b2


@pytest.mark.parametrize("n", [2, 3, 4])
def test_closed_form_matches_all_subsets_on_seeded_pairs(n):
    # 3 x 336 = 1008 pairs; every kind is drawn 56 times per dimension
    rng = np.random.default_rng((0x1C, n))
    verdicts = {kind: set() for kind in PAIR_KINDS}
    for trial in range(336):
        kind = PAIR_KINDS[trial % len(PAIR_KINDS)]
        b1, b2 = _seeded_pair(rng, n, kind)
        expected = _all_subsets_incompatible(b1, b2)
        assert mkc.totally_incompatible(b1, b2) == expected, (kind, trial)
        assert mkc.totally_incompatible(b2, b1) == expected, (kind, trial)
        verdicts[kind].add(expected)
    assert verdicts["random"] == {True}
    for kind in ("shared", "permuted-phased", "tilt-1e-9"):
        assert verdicts[kind] == {False}
    assert verdicts["block-rotated"] == ({True} if n == 2 else {False})
    # at 1.7e-8 the two rank-1 projections commute only up to 1.7e-8, above the
    # threshold; in d >= 3 a pair of larger projections can still commute within it
    assert verdicts["tilt-1.7e-8"] == ({True} if n == 2 else {True, False} if n == 3 else {False})


def _pairwise_family(n, size, seed, include=()):
    """Reference: the generator testing a candidate against each accepted
    basis in turn, every commutator by its operator norm."""

    def projections(basis):
        atoms = np.einsum("ki,kj->kij", basis, basis.conj())
        return np.array([
            atoms[[0, *rest]].sum(axis=0)
            for r in range(n - 1)
            for rest in combinations(range(1, n), r)
        ])

    def incompatible(b1, b2):
        p = projections(b1)[:, None]
        q = projections(b2)[None, :]
        norms = np.linalg.norm(p @ q - q @ p, 2, axis=(2, 3))
        return not np.any(norms <= mkc.INCOMPATIBILITY_THRESHOLD)

    include = [np.asarray(v, dtype=complex) for v in include]
    rng = np.random.default_rng(seed)
    accepted = []
    while (k := len(accepted)) < size:
        if k < len(include):
            basis = mkc._basis_containing(rng, include[k])
        else:
            basis = mkc.random_unitary(rng, n).T
        if all(incompatible(basis, prev) for prev in accepted):
            accepted.append(basis)
    return np.array(accepted)


PLANTED = [np.ones(3) / math.sqrt(3), np.array([1.0, 1.0, -1.0]) / math.sqrt(3)]


@pytest.mark.parametrize(
    "n, size, seeds, include",
    [pytest.param(n, size, range(5), (), id=f"d{n}-k{size}") for n in (2, 3, 4) for size in (1, 16)]
    + [pytest.param(4, 64, [SEED], (), id="d4-k64"),
       pytest.param(3, 16, range(5), PLANTED, id="d3-k16-planted")],
)
def test_family_matches_pairwise_reference(n, size, seeds, include):
    for seed in seeds:
        family = mkc.generate_basis_family(n, size, seed, include=include)
        assert family.bases.tobytes() == _pairwise_family(n, size, seed, include).tobytes()


def test_family_reproducible_and_prefix_stable():
    a = mkc.generate_basis_family(3, 12, seed=7)
    b = mkc.generate_basis_family(3, 12, seed=7)
    assert all(np.array_equal(x, y) for x, y in zip(a.bases, b.bases))
    prefix = mkc.generate_basis_family(3, 5, seed=7)
    assert all(np.array_equal(x, y) for x, y in zip(prefix.bases, a.bases[:5]))


def test_probability_trivial_projections(family3, rho3):
    n = family3.dimension
    assert mkc.mkc_probability(rho3, np.eye(n), family3) == pytest.approx(1.0)
    assert mkc.mkc_probability(rho3, np.zeros((n, n)), family3) == pytest.approx(0.0)


def test_probability_matches_trace_rule(family3, rho3):
    for m in (0, 3, 7):
        atom = family3.projector(m, 1)
        assert mkc.mkc_probability(rho3, atom, family3) == pytest.approx(
            qt.born_probability(rho3, qt.ProjectionOp(atom)), abs=1e-12
        )
        rank2 = family3.projector(m, 0) + family3.projector(m, 2)
        assert mkc.mkc_probability(rho3, rank2, family3) == pytest.approx(
            qt.born_probability(rho3, qt.ProjectionOp(rank2)), abs=1e-12
        )


def test_probability_outside_family(family3, rho3):
    rogue = qt.ProjectionOp.onto([1.0, 2.0, 3.0]).matrix
    with pytest.raises(mkc.NotInFamilyError):
        mkc.mkc_probability(rho3, rogue, family3)


def test_valuation_sum_rule(family3, rho3):
    valuation = mkc.sample_valuation(rho3, family3, seed=5)
    for m in range(family3.size):
        values = [valuation.value(family3.projector(m, j)) for j in range(3)]
        assert sum(values) == 1


def test_valuation_deterministic_on_eigenstate(family3):
    rho = qt.DensityOperator.pure(family3.bases[2][0])
    for seed in range(10):
        valuation = mkc.sample_valuation(rho, family3, seed)
        assert valuation.choice(2) == 0


def test_valuation_query_order_independent(family3, rho3):
    a = mkc.sample_valuation(rho3, family3, seed=9)
    b = mkc.sample_valuation(rho3, family3, seed=9)
    order_a = [a.choice(m) for m in range(8)]
    order_b = [b.choice(m) for m in reversed(range(8))]
    assert order_a == list(reversed(order_b))


def test_uniform_marginal_dim2():
    family = mkc.generate_basis_family(2, 4, seed=3)
    rho = qt.DensityOperator.maximally_mixed(2)
    choices = mkc.sample_choices(rho, family, 0, SHOTS, seed=3)
    freq = float(np.mean(choices == 0))
    sigma = math.sqrt(0.25 / SHOTS)
    assert abs(freq - 0.5) <= 3 * sigma


def test_sample_choices_hold_one_byte_per_shot(family3, rho3, traced_peak):
    """One byte per draw, plus one block of uniforms at a time: 8 bytes per
    row of the block, and 4 more cover its one-byte temporaries."""
    shots = 10**6
    peak = traced_peak(lambda: mkc.sample_choices(rho3, family3, 0, shots, seed=3))
    assert peak < shots + 12 * qt._DRAW_BLOCK


def test_joint_frequencies_factorize(family3, rho3):
    c0 = mkc.sample_choices(rho3, family3, 0, SHOTS, seed=SEED)
    c1 = mkc.sample_choices(rho3, family3, 1, SHOTS, seed=SEED)
    p = family3.atom_probabilities(rho3, 0)[0]
    q = family3.atom_probabilities(rho3, 1)[0]
    joint = float(np.mean((c0 == 0) & (c1 == 0)))
    sigma = math.sqrt(p * q * (1 - p * q) / SHOTS)
    assert abs(joint - p * q) <= 3 * sigma


def test_commuting_projections_functionally_dependent(family3, rho3):
    valuation = mkc.sample_valuation(rho3, family3, seed=2)
    atom = family3.projector(4, 1)
    rank2 = family3.projector(4, 1) + family3.projector(4, 2)
    # same-basis projections: value of the larger is implied by the atom
    assert valuation.value(rank2) >= valuation.value(atom)


def test_nearest_observable_exact_when_diagonal(family3):
    values = np.array([2.0, -1.0, 0.5])
    target = sum(values[k] * family3.projector(5, k) for k in range(3))
    realized, m, dist = mkc.nearest_family_observable(target, family3)
    assert m == 5
    assert dist < 1e-12
    assert np.allclose(realized, target, atol=1e-12)


def test_nearest_observable_probability_shift_bound(family3, rho3):
    proj = qt.ProjectionOp.onto([1.0, 1.0, 1.0]).matrix
    realized, _, dist = mkc.nearest_family_observable(proj, family3)
    groups = qt.spectral_projectors(realized)
    near = max(groups, key=lambda g: g[0])[1]
    shift = abs(
        qt.born_probability(rho3, qt.ProjectionOp(near))
        - qt.born_probability(rho3, qt.ProjectionOp(proj))
    )
    assert shift <= np.linalg.norm(near - proj, 2) + 1e-12


def test_nearest_observable_distance_monotone_in_size():
    rng = np.random.default_rng(17)
    raw = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    observable = raw + raw.conj().T
    small = mkc.generate_basis_family(3, 8, seed=1)
    large = mkc.generate_basis_family(3, 32, seed=1)
    _, _, d_small = mkc.nearest_family_observable(observable, small)
    _, _, d_large = mkc.nearest_family_observable(observable, large)
    assert d_large <= d_small + 1e-12


def _nearest_per_basis(observable, family):
    """Reference: one candidate per basis and vector matching, first within 1e-15 wins."""
    values, _ = np.linalg.eigh(observable)
    n = observable.shape[0]
    best = None
    for m in range(family.size):
        atoms = [family.projector(m, j) for j in range(n)]
        for perm in permutations(range(n)):
            candidate = sum(values[k] * atoms[perm[k]] for k in range(n))
            dist = float(np.linalg.norm(observable - candidate, 2))
            if best is None or dist < best[0] - 1e-15:
                best = (dist, m, candidate)
    dist, m, realized = best
    return realized, m, dist


@pytest.mark.parametrize("n, size", [(2, 64), (3, 16), (4, 32)])
def test_nearest_matches_per_basis_reference(n, size):
    family = mkc.generate_basis_family(n, size, seed=n)
    rng = np.random.default_rng(n)
    raw = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    observables = [
        raw + raw.conj().T,
        family.projector(2, 0),  # exact hit
        np.eye(n, dtype=complex),  # every candidate ties: the tie rule decides
        np.diag(np.arange(n, dtype=float)).astype(complex),
    ]
    for observable in observables:
        realized, m, dist = mkc.nearest_family_observable(observable, family)
        ref_realized, ref_m, ref_dist = _nearest_per_basis(observable, family)
        assert realized.tobytes() == ref_realized.tobytes()
        assert m == ref_m
        assert np.float64(dist).tobytes() == np.float64(ref_dist).tobytes()


def _nearest_full_scan(observable, family):
    """Reference: every candidate's operator norm, then one scan in order
    where the first within 1e-15 of the best wins."""
    mat = np.asarray(observable, dtype=complex)
    values, _ = np.linalg.eigh(mat)
    atoms = family.atom_projectors()
    perms = np.array(list(permutations(range(len(values)))))
    candidates = sum(values[k] * atoms[:, perms[:, k]] for k in range(len(values)))
    dists = np.linalg.norm(mat - candidates, 2, axis=(2, 3)).ravel()
    best = 0
    for i, dist in enumerate(dists):
        if dist < dists[best] - 1e-15:
            best = i
    m, p = divmod(best, len(perms))
    return candidates[m, p], m, float(dists[best])


def _seeded_observables(rng, family, count):
    """Hermitian matrices of many kinds: random ones at several scales, family
    atoms and degenerate sums of them (whose candidates tie), exact and
    slightly perturbed family observables, random projectors, multiples of
    the identity (every candidate ties) and huge ones (bounds overflow)."""
    n, size = family.dimension, family.size

    def hermitian(scale=1.0):
        raw = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        return scale * (raw + raw.conj().T)

    out = []
    for i in range(count):
        kind, m = i % 9, int(rng.integers(size))
        if kind == 0:
            out.append(hermitian())
        elif kind == 1:
            out.append(family.projector(m, int(rng.integers(n))))
        elif kind == 2:
            atoms = rng.permutation(n)[: int(rng.integers(1, n))]
            out.append(sum(family.projector(m, int(j)) for j in atoms))
        elif kind == 3:
            out.append(sum(rng.standard_normal() * family.projector(m, j) for j in range(n)))
        elif kind == 4:
            exact = sum(rng.standard_normal() * family.projector(m, j) for j in range(n))
            out.append(exact + hermitian(10.0 ** rng.integers(-15, -9)))
        elif kind == 5:
            v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            out.append(np.outer(v, v.conj()) / np.vdot(v, v).real)
        elif kind == 6:
            out.append(rng.standard_normal() * np.eye(n, dtype=complex))
        elif kind == 7:
            out.append(hermitian(10.0 ** rng.uniform(-8, 8)))
        else:
            out.append(hermitian(1e160))  # the Gram bound overflows to inf
    return out


@pytest.mark.parametrize("n, size", [(2, 64), (3, 16), (4, 16), (4, 64)])
def test_prefiltered_nearest_matches_full_scan(n, size):
    family = mkc.generate_basis_family(n, size, seed=size + n)
    rng = np.random.default_rng((0xF1, n, size))
    for observable in _seeded_observables(rng, family, 207):
        realized, m, dist = mkc.nearest_family_observable(observable, family)
        ref_realized, ref_m, ref_dist = _nearest_full_scan(observable, family)
        assert m == ref_m
        assert np.float64(dist).tobytes() == np.float64(ref_dist).tobytes()
        assert realized.tobytes() == ref_realized.tobytes()


def test_prefilter_leaves_few_operator_norms(monkeypatch):
    family = mkc.generate_basis_family(4, 64, seed=4)
    candidates = 64 * 24
    batches = _operator_norm_batches(monkeypatch)
    mkc.nearest_family_observable(family.projector(9, 2), family)
    # the exact hit and its ties within basis 9: the other atoms' values are
    # equal, so the 3! matchings that keep atom 2 give the same candidate
    assert batches == [6]
    batches.clear()
    rng = np.random.default_rng(4)
    for _ in range(20):
        raw = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        mkc.nearest_family_observable(raw + raw.conj().T, family)
    assert len(batches) == 20 and sum(batches) < 20 * candidates / 10
    batches.clear()
    mkc.nearest_family_observable(1e160 * np.eye(4), family)
    assert batches == [candidates]


def _locate_per_basis(family, mat):
    """Reference: each basis's atom subset rebuilt and compared on its own."""
    n = family.dimension
    for trivial in (np.zeros((n, n)), np.eye(n)):
        if np.linalg.norm(mat - trivial, 2) <= qt.STRUCT_TOL:
            return None
    hits = []
    for m, basis in enumerate(family.bases):
        weights = np.einsum("ki,ij,kj->k", basis.conj(), mat, basis).real
        atoms = tuple(j for j in range(n) if weights[j] > 0.5)
        rebuilt = sum(family.projector(m, j) for j in atoms) if atoms else np.zeros((n, n))
        if np.linalg.norm(mat - rebuilt, 2) <= qt.STRUCT_TOL:
            hits.append((m, atoms))
    if not hits:
        raise mkc.NotInFamilyError("projection does not belong to any family algebra")
    if len(hits) > 1:
        raise mkc.NotInFamilyError(
            f"projection belongs to {len(hits)} family algebras; bases are "
            "not totally incompatible"
        )
    return hits[0]


def _outcome(locate, *args):
    try:
        return locate(*args)
    except mkc.NotInFamilyError as exc:
        return str(exc)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_locate_matches_per_basis_reference(n):
    family = mkc.generate_basis_family(n, 12, seed=n)
    doubled = mkc.BasisFamily(n, np.array([family.bases[0], family.bases[0]]))
    rogue = qt.ProjectionOp.onto(np.arange(1.0, n + 1)).matrix
    projections = [np.zeros((n, n)), np.eye(n), rogue]
    for m in (0, 5, 11):
        for r in range(1, n):
            for atoms in combinations(range(n), r):
                projections.append(sum(family.projector(m, j) for j in atoms))
    outcomes = []
    for fam in (family, doubled):
        for mat in projections:
            got = _outcome(fam.locate, mat)
            assert got == _outcome(_locate_per_basis, fam, mat)
            outcomes.append(got)
    assert outcomes[:2] == [None, None]
    assert "does not belong to any family algebra" in outcomes[2]
    assert outcomes[3] == (0, (0,))
    assert any(isinstance(o, str) and "belongs to 2 family algebras" in o for o in outcomes)


def test_atom_weights_match_per_basis_trace_rule():
    for n in (2, 3, 4):
        family = mkc.generate_basis_family(n, 16, seed=n)
        rng = np.random.default_rng(n)
        raw = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        mat = raw + raw.conj().T
        weights = family.atom_weights(mat)
        for m, basis in enumerate(family.bases):
            ref = np.einsum("ki,ij,kj->k", basis.conj(), mat, basis).real
            # the same sums; a 2 x 2 einsum adds its four terms in another order
            assert np.abs(weights[m] - ref).max() <= 4 * np.finfo(float).eps * np.abs(mat).max()
            if n > 2:
                assert weights[m].tobytes() == ref.tobytes()


def test_valuation_choice_is_sample_choices_draw(family3, rho3):
    for seed in range(10):
        valuation = mkc.sample_valuation(rho3, family3, seed)
        for m in range(family3.size):
            probs = family3.atom_probabilities(rho3, m)
            scalar_draw = np.random.default_rng((seed, m)).choice(len(probs), p=probs)
            assert valuation.choice(m) == scalar_draw
            assert valuation.choice(m) == mkc.sample_choices(rho3, family3, m, 1, seed)[0]


def test_sequence_repeatability(family3):
    rho = qt.DensityOperator.maximally_mixed(3)
    proj = family3.projector(1, 0)
    report = mkc.simulate_sequence(rho, [proj, proj], family3, seed=3, shots=20_000)
    repeated = sum(v for k, v in report.frequencies.items() if k[0] == k[1])
    assert repeated == pytest.approx(1.0)


def test_sequence_small_overlap_small_joint():
    e1 = np.array([1.0, 0.0, 0.0])
    tilted = np.array([0.12, 1.0, 0.0])
    tilted = tilted / np.linalg.norm(tilted)
    family = mkc.generate_basis_family(3, 8, seed=11, include=[e1, tilted])
    rho = qt.DensityOperator.pure(e1)
    p1 = np.outer(e1, e1.conj())
    p2 = np.outer(tilted, tilted.conj())
    report = mkc.simulate_sequence(rho, [p1, p2], family, seed=11, shots=50_000)
    overlap = float(abs(np.vdot(e1, tilted)) ** 2)
    joint = report.frequencies.get((1.0, 1.0), 0.0)
    sigma = math.sqrt(overlap * (1 - overlap) / 50_000)
    assert abs(joint - overlap) <= 4 * sigma
    assert joint < 0.05


def test_sequence_frees_its_arrays_on_return(family3, rho3):
    # the walk must leave no reference cycle behind (a recursive closure that
    # refers to itself would be one): a cycle would keep the (shots, steps)
    # uniforms alive until the next gc pass
    gc.collect()
    gc.disable()
    try:
        mkc.simulate_sequence(rho3, [family3.projector(0, 0)], family3, seed=1, shots=1000)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_sequence_matches_per_shot_walk(family3, rho3):
    """Frequencies equal a walk that collapses the state shot by shot."""
    observables = [family3.projector(0, 0), np.diag([1.0, 2.0, 3.0]), family3.projector(5, 2)]
    seed, shots = 23, 3000
    steps = [
        qt.spectral_projectors(mkc.nearest_family_observable(obs, family3)[0])
        for obs in observables
    ]
    uniforms = np.random.default_rng((seed, 0x5EC)).random((shots, len(steps)))
    counts = {}
    for row in uniforms:
        state, values = rho3, []
        for u, groups in zip(row, steps):
            probs = np.array([max(0.0, np.trace(state.matrix @ p).real) for _, p in groups])
            probs = probs / probs.sum()
            live = [k for k in range(len(groups)) if probs[k] > 1e-12]
            pick = np.searchsorted(np.cumsum(probs[live]), u, side="right")
            k = live[min(int(pick), len(live) - 1)]
            values.append(round(groups[k][0], 12) + 0.0)
            state = qt.collapse(state, groups[k][1])
        counts[tuple(values)] = counts.get(tuple(values), 0) + 1
    expected = {key: n / shots for key, n in sorted(counts.items())}

    report = mkc.simulate_sequence(rho3, observables, family3, seed, shots)
    assert report.frequencies == expected
    assert list(report.frequencies) == list(expected)
    assert set(report.frequencies) <= set(report.exact_probabilities)
    assert sum(report.exact_probabilities.values()) == pytest.approx(1.0, abs=1e-12)


def _recursive_walk(rho0, observables, family, seed, shots):
    """Reference: one depth-first recursion over the collapse chain; the
    shots reaching a node are binned by quantum.threshold_counts over its
    live branches.  Returns (frequencies, exact probabilities)."""
    realized = [
        qt.spectral_projectors(mkc.nearest_family_observable(obs, family)[0])
        for obs in observables
    ]
    uniforms = np.random.default_rng((seed, 0x5EC)).random((shots, len(realized)))
    counts, exact = {}, {}

    def expand(state, rows, acc, values):
        step = len(values)
        if step == len(realized):
            exact[values] = exact.get(values, 0.0) + acc
            counts[values] = counts.get(values, 0) + len(rows)
            return
        groups = realized[step]
        probs = np.array([max(0.0, np.trace(state.matrix @ p).real) for _, p in groups])
        total = probs.sum()
        probs = probs / total if total > 0 else probs
        live = [k for k in range(len(groups)) if probs[k] > 1e-12]
        branch = np.asarray(live)[qt.threshold_counts(uniforms[rows, step], np.cumsum(probs[live]))]
        for k in live:
            value = round(groups[k][0], 12) + 0.0
            child = qt.collapse(state, groups[k][1])
            expand(child, rows[branch == k], acc * float(probs[k]), values + (value,))

    expand(rho0, np.arange(shots), 1.0, ())
    return {k: v / shots for k, v in sorted(counts.items()) if v}, exact


def _sequence_programs(family3, rho3):
    """(start state, observables, family) with 1 to 4 steps: degenerate
    groups, a one-group step, zero-probability branches and d = 2 and 4."""
    f = family3.projector
    # atoms 0 and 1 of basis 2 in equal parts: atom 2 (eigenvalue 0 in the
    # first step, the lowest group) is a dead branch before two live ones
    superposed = qt.DensityOperator.pure(family3.bases[2][0] + family3.bases[2][1])
    family2 = mkc.generate_basis_family(2, 8, seed=2)
    family4 = mkc.generate_basis_family(4, 8, seed=4)
    rng = np.random.default_rng(4)
    raw = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    return {
        "one-step": (rho3, [f(0, 0)], family3),
        "three-steps": (rho3, [f(0, 0), np.diag([1.0, 2.0, 3.0]), f(5, 2)], family3),
        "degenerate-four-steps": (
            rho3, [np.diag([1.0, 1.0, 2.0]), f(1, 0) + f(1, 1), np.eye(3), f(2, 1)], family3),
        "zero-probability": (superposed, [f(2, 0) + 2 * f(2, 1), f(2, 0), f(2, 2)], family3),
        "dim-2": (qt.DensityOperator.maximally_mixed(2),
                  [family2.projector(0, 0), family2.projector(3, 1)], family2),
        "dim-4": (qt.DensityOperator.maximally_mixed(4), [raw + raw.conj().T] * 2, family4),
    }


@pytest.mark.parametrize("shots", [1, 7, SHOTS, 2 * qt._DRAW_BLOCK + 17])
@pytest.mark.parametrize("seed", [0, 1, 23, SEED])
def test_level_walk_matches_recursive_walk(family3, rho3, shots, seed):
    for name, (rho, observables, family) in _sequence_programs(family3, rho3).items():
        report = mkc.simulate_sequence(rho, observables, family, seed, shots)
        frequencies, exact = _recursive_walk(rho, observables, family, seed, shots)
        assert repr(list(report.frequencies.items())) == repr(list(frequencies.items())), name
        assert repr(list(report.exact_probabilities.items())) == repr(list(exact.items())), name


def test_sequence_holds_blocks_not_shots(family3, rho3, traced_peak):
    """A million shots of three steps hold blocks of uniforms and node
    indices, not the 24 MB (shots, steps) draw."""
    observables = [family3.projector(0, 0), np.diag([1.0, 2.0, 3.0]), family3.projector(5, 2)]
    peak = traced_peak(
        lambda: mkc.simulate_sequence(rho3, observables, family3, seed=3, shots=10**6))
    assert peak < 8e6


def test_zero_probability_branches_are_dropped(family3, rho3):
    rho, observables, family = _sequence_programs(family3, rho3)["zero-probability"]
    report = mkc.simulate_sequence(rho, observables, family, seed=1, shots=1000)
    # no outcome has value 0 in the first step, and after it every step has
    # one live branch
    assert list(report.exact_probabilities) == [(1.0, 1.0, 0.0), (2.0, 0.0, 0.0)]
    assert list(report.frequencies) == [(1.0, 1.0, 0.0), (2.0, 0.0, 0.0)]
    assert sum(report.frequencies.values()) == 1.0


def test_sequence_cabello_one_ninth():
    e1 = np.ones(3) / math.sqrt(3)
    e2 = np.array([1.0, 1.0, -1.0]) / math.sqrt(3)
    family = mkc.generate_basis_family(3, 16, SEED, include=[e1, e2])
    report = mkc.simulate_sequence(
        qt.DensityOperator.pure(e1),
        [np.outer(e1, e1.conj()), np.outer(e2, e2.conj())],
        family,
        seed=SEED,
        shots=SHOTS,
    )
    assert max(report.realized_distances) < 1e-12
    joint = report.frequencies.get((1.0, 1.0), 0.0)
    sigma = math.sqrt((1 / 9) * (8 / 9) / SHOTS)
    assert abs(joint - 1 / 9) <= 3 * sigma
    assert report.exact_probabilities[(1.0, 1.0)] == pytest.approx(1 / 9, abs=1e-10)


def test_family_generation_validation():
    with pytest.raises(ValueError):
        mkc.generate_basis_family(5, 4, seed=0)
    with pytest.raises(ValueError):
        mkc.generate_basis_family(3, 65, seed=0)
    with pytest.raises(ValueError, match="family size must lie in"):
        mkc.generate_basis_family(3, 0, seed=0)  # an empty family has no (K, n, n) shape


@pytest.mark.parametrize(
    "vector",
    [np.zeros(3), np.array([1.0, np.nan, 0.0]), np.array([1e-320, 0.0, 0.0]),
     np.array([1e-160, 0.0, 0.0]), np.array([1e300, 1e300, 0.0]), np.array([0.0, 1e200j, 0.0])],
    ids=["zero", "nan", "tiny", "subnormal-square", "huge", "huge-imaginary"],
)
def test_planted_vector_must_be_finite_and_nonzero(monkeypatch, vector):
    # unchecked, a vector whose squared norm underflows to 0 normalises to NaN
    # and the basis completion never ends; the patch makes that a failure
    def no_draw(*args):
        raise AssertionError("a basis was drawn")

    monkeypatch.setattr(mkc, "_basis_containing", no_draw)
    with pytest.raises(ValueError, match="finite and nonzero"):
        mkc.generate_basis_family(3, 4, 0, include=[vector])


@pytest.mark.parametrize(
    "vector, expected",
    [(np.array([1e-150, 0.0]), True), (np.array([1e153, 1e153]), True),
     (np.array([1e-160, 0.0]), False), (np.array([1e155, 0.0]), False),
     (np.array([np.inf, 0.0]), False), (np.zeros(2), False)],
)
def test_normalizable_means_a_normal_squared_norm(vector, expected):
    assert qt.normalizable(vector.astype(complex)) is expected


@pytest.mark.parametrize(
    "planted",
    [
        [np.array([1.0, 0, 0]), np.array([0, 1.0, 0])],
        [np.array([1.0, 0, 0]), np.array([2.0, 0, 0])],
        [np.array([1.0, 1.0, 0]), np.array([1.0, 0, 1.0]), np.array([0, 0, 1j])],
    ],
    ids=["orthogonal", "parallel", "first-and-third"],
)
def test_commuting_planted_vectors_refused_before_any_draw(monkeypatch, planted):
    def no_draw(*args):
        raise AssertionError("a basis was drawn")

    monkeypatch.setattr(mkc, "_basis_containing", no_draw)
    pair = f"0 and {len(planted) - 1}"
    with pytest.raises(mkc.FamilyGenerationError, match=f"vectors {pair} have commuting projectors"):
        mkc.generate_basis_family(3, 4, 0, include=planted)


def _factorization_defect(mat):
    """Operator-norm distance of a two-qubit operator from X (x) 1 for the
    best X, which is its normalized partial trace over the second qubit."""
    partial = np.einsum("ikjk->ij", mat.reshape(2, 2, 2, 2)) / 2
    return float(np.linalg.norm(mat - np.kron(partial, np.eye(2)), 2))


def test_composite_family_not_factorizable():
    # a one-sided observable realized in a dim-4 family is generically
    # non-local: its realization is far from every X (x) 1
    family = mkc.generate_basis_family(4, 6, seed=19)
    sigma_z = np.diag([1.0, -1.0]).astype(complex)
    one_sided = np.kron(sigma_z, np.eye(2))
    assert _factorization_defect(one_sided) < 1e-12
    realized, _, dist = mkc.nearest_family_observable(one_sided, family)
    assert dist > 0.1  # random bases never contain the product observable
    assert _factorization_defect(realized) > 0.05
