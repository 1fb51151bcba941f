"""Orthogonality structures and coloring search."""

import time
import tracemalloc
from itertools import combinations, product

import numpy as np
import pytest

from qfoundry.datasets import build_cabello18, build_peres33
from qfoundry.exact import (
    DegenerateInputError,
    ExactVector,
    VectorSet,
    orthogonal,
    orthogonality_masks,
)
from qfoundry.ks import (
    Coloring,
    NotApplicableError,
    OrthStructure,
    build_orth_structure,
    cabello_parity_witness,
    complete_pairs_to_triads,
    count_colorings,
    is_valid_coloring,
    search_coloring,
)
from test_exact import _adjugate_ray_key, _count_blocks, _pairwise_masks, _scaled

REDUCED_PERES_COLORINGS = 48  # frozen from an independent product-enumeration oracle
# the first coloring the search finds for peres33 without g_2^2 and g_2^3;
# pinned so that a change of tie-break or candidate order shows
REDUCED_PERES_FIRST = (1, 0, 0, 0, 1, 1, 0, 0, 0, 0, 0, 1, 0, 0, 0, 1,
                       0, 1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 1, 1, 0)


@pytest.fixture(scope="module")
def peres():
    return build_orth_structure(build_peres33())


@pytest.fixture(scope="module")
def cabello():
    return build_orth_structure(build_cabello18())


def test_peres_structure_counts(peres):
    assert len(peres.vectors) == 33
    assert len(peres.bases) == 16
    assert len(peres.pairs) == 24


def test_cabello_structure_counts(cabello):
    assert len(cabello.vectors) == 18
    assert len(cabello.bases) == 9
    memberships = [0] * 18
    for basis in cabello.bases:
        for i in basis:
            memberships[i] += 1
    assert set(memberships) == {2}


def test_single_triad_structure():
    vset = VectorSet(3, [ExactVector([1, 0, 0]), ExactVector([0, 1, 0]), ExactVector([0, 0, 1])])
    s = build_orth_structure(vset)
    assert len(s.bases) == 1
    assert len(s.pairs) == 0
    result = search_coloring(s)
    assert result.colorable
    assert is_valid_coloring(s, result.coloring)


def test_is_valid_coloring_rejects_wrong_length():
    vset = VectorSet(3, [ExactVector([1, 0, 0]), ExactVector([0, 1, 0]), ExactVector([0, 0, 1])])
    s = build_orth_structure(vset)
    assert is_valid_coloring(s, Coloring((1, 0, 0)))
    assert not is_valid_coloring(s, Coloring((1, 0, 0, 0)))
    assert not is_valid_coloring(s, Coloring((1, 0, 0, 1)))
    assert not is_valid_coloring(s, Coloring((1, 0)))
    assert not is_valid_coloring(s, Coloring(()))


def test_duplicate_rays_rejected():
    with pytest.raises(DegenerateInputError):
        build_orth_structure(
            VectorSet(3, [ExactVector([1, 0, 0]), ExactVector([-2, 0, 0])])
        )


def test_peres_uncolorable(peres):
    result = search_coloring(peres)
    assert not result.colorable
    assert result.certificate is not None
    assert count_colorings(peres) == 0


def test_cabello_uncolorable(cabello):
    result = search_coloring(cabello)
    assert not result.colorable
    assert count_colorings(cabello) == 0


def test_count_single_basis_dim_n():
    for dim in (3, 4):
        basis = [ExactVector([1 if k == j else 0 for k in range(dim)]) for j in range(dim)]
        s = build_orth_structure(VectorSet(dim, basis))
        assert count_colorings(s) == dim


def _reduced_peres():
    keep = [v for v in build_peres33() if v.label not in ("g_2^2", "g_2^3")]
    return build_orth_structure(VectorSet(3, keep))


def test_count_reduced_peres():
    s = _reduced_peres()
    assert len(s.vectors) == 31
    assert count_colorings(s) == REDUCED_PERES_COLORINGS


def _free_rays(count):
    """`count` pairwise non-orthogonal rays (1, k) in d = 2: no basis and no
    pair, so every one of the 2^count assignments is a coloring."""
    return build_orth_structure(VectorSet(2, [ExactVector([1, k]) for k in range(1, count + 1)]))


def test_count_does_not_store_colorings(peres):
    assert count_colorings(_free_rays(16)) == 1 << 16
    # one connected part of 55 vectors with 2048 colorings: a count that kept
    # each coloring would hold 2048 tuples of 55 entries (about 1 MB)
    vectors = complete_pairs_to_triads(peres).vectors[2:]
    structure = build_orth_structure(VectorSet(3, vectors))
    tracemalloc.start()
    try:
        count = count_colorings(structure)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert count == 2048
    assert peak < 1 << 18


@pytest.mark.parametrize("count", [16, 40])
def test_count_multiplies_independent_parts(count):
    # each unconstrained ray is its own part with 2 colorings; a walk over
    # every coloring would take days at 40 rays
    structure = _free_rays(count)
    started = time.perf_counter()
    assert count_colorings(structure) == 1 << count
    assert time.perf_counter() - started < 1.0


def test_count_multiplies_parts_with_bases():
    # two bases of d = 2 that share no vector, and a ray in neither
    rays = [[1, 0], [0, 1], [1, 1], [1, -1], [1, 2]]
    structure = build_orth_structure(VectorSet(2, [ExactVector(r) for r in rays]))
    assert len(structure.bases) == 2
    assert count_colorings(structure) == _naive_count(structure) == 2 * 2 * 2


def _unsplit_count(structure):
    return len(_trail_search(structure, count_all=True)[0])


@pytest.mark.parametrize("base, dropped, expected", [
    # the subsets of the exhaustive benchmark workload at seed 0xC0FFEE
    ("peres33", [8], 16),
    ("peres33", [15], 16),
    ("peres33", [30], 16),
    ("completed57", [2, 24], 778),
    ("completed57", [0, 1], 2048),
])
def test_count_on_benchmark_subsets_unchanged(peres, base, dropped, expected):
    vectors = peres.vectors if base == "peres33" else complete_pairs_to_triads(peres).vectors
    structure = build_orth_structure(
        VectorSet(3, [v for i, v in enumerate(vectors) if i not in dropped]))
    assert count_colorings(structure) == _unsplit_count(structure) == expected


@pytest.mark.parametrize("first, expected", [(12, 340_952), (15, 2_513_808)])
def test_count_large_completed57_subsets(peres, first, expected):
    # the 57-ray completion without its first vectors; a walk over every
    # coloring found these counts in 2.7 s and 18.7 s on a 2-core x86 host
    vectors = complete_pairs_to_triads(peres).vectors[first:]
    structure = build_orth_structure(VectorSet(3, vectors))
    started = time.perf_counter()
    assert count_colorings(structure) == expected
    assert time.perf_counter() - started < 1.0


def test_count_matches_unsplit_walk_on_random_deletions(peres, cabello):
    # deletion sizes keep the walk short: the colorings of completed57 grow
    # past 10^4 beyond 5 deletions, and cabello18 keeps at most 14 vectors
    # for the 2^n oracle
    rng = np.random.default_rng(14)
    completed = build_orth_structure(complete_pairs_to_triads(peres))
    for full, low, high in ((peres, 1, 7), (cabello, 4, 9), (completed, 1, 6)):
        for _ in range(8):
            drop = set(rng.choice(len(full.vectors), int(rng.integers(low, high)), replace=False))
            kept = [v for i, v in enumerate(full.vectors) if i not in drop]
            structure = build_orth_structure(VectorSet(full.dimension, kept))
            expected = _unsplit_count(structure)
            if len(kept) <= 16:
                assert _naive_count(structure) == expected
            assert count_colorings(structure) == expected
            shuffled = [kept[i] for i in rng.permutation(len(kept))]
            assert count_colorings(build_orth_structure(VectorSet(full.dimension, shuffled))) == expected


def test_search_nodes_are_frozen(peres, cabello):
    # node counts are fixed by the basis choice and the candidate order
    completed = build_orth_structure(complete_pairs_to_triads(peres))
    assert [search_coloring(s).nodes_explored for s in (peres, cabello, completed)] == [16, 13, 16]
    result = search_coloring(_reduced_peres())
    assert result.nodes_explored == 7
    assert result.coloring.assignment == REDUCED_PERES_FIRST


def _trail_search(structure, count_all):
    """Reference search on an assignment array with a trail, undone on backtrack.

    Same rules and tie-breaks as ks.search_coloring; returns (solutions, nodes).
    """
    n, unset = len(structure.vectors), -1
    adj = [set() for _ in range(n)]
    for group in [*structure.bases, *structure.pairs]:
        for i, j in combinations(group, 2):
            adj[i].add(j)
            adj[j].add(i)
    assignment, solutions, nodes = [unset] * n, [], [0]

    def propagate(trail, queue):
        while queue:
            v = queue.pop()
            if assignment[v] == 1:
                for u in adj[v]:
                    if assignment[u] == 1:
                        return False
                    if assignment[u] == unset:
                        assignment[u] = 0
                        trail.append(u)
                        queue.append(u)
            for basis in structure.bases:
                if v not in basis:
                    continue
                ones = sum(assignment[u] == 1 for u in basis)
                open_ = [u for u in basis if assignment[u] == unset]
                if ones > 1 or ones == 0 and not open_:
                    return False
                if ones == 0 and len(open_) == 1:
                    assignment[open_[0]] = 1
                    trail.append(open_[0])
                    queue.append(open_[0])
        return True

    def attempt(v, value):
        assignment[v] = value
        trail = [v]
        stop = propagate(trail, [v]) and branch()
        for u in trail:
            assignment[u] = unset
        return stop

    def branch():
        nodes[0] += 1
        open_bases = [[u for u in b if assignment[u] == unset] for b in structure.bases
                      if all(assignment[u] != 1 for u in b)]
        if open_bases:
            basis = min(open_bases, key=len)
            return any(attempt(u, 1) for u in sorted(basis, key=lambda u: (-len(adj[u]), u)))
        if unset not in assignment:
            solutions.append(tuple(assignment))
            return not count_all
        v = assignment.index(unset)
        return attempt(v, 1) or attempt(v, 0)

    def seed():
        """Force the member of every single-member basis (dimension 1) to 1."""
        for basis in structure.bases:
            if len(basis) == 1 and assignment[basis[0]] == unset:
                assignment[basis[0]] = 1
                if not propagate([], [basis[0]]):
                    return False
        return True

    if seed():
        branch()
    return solutions, nodes[0]


def test_search_matches_trail_reference(peres, cabello):
    rng = np.random.default_rng(5)
    completed = build_orth_structure(complete_pairs_to_triads(peres))
    cases = [peres, cabello, completed, _reduced_peres()]
    for full in (peres, cabello, completed):
        for _ in range(6):
            drop = set(rng.choice(len(full.vectors), int(rng.integers(1, 8)), replace=False))
            kept = [v for i, v in enumerate(full.vectors) if i not in drop]
            cases.append(build_orth_structure(VectorSet(full.dimension, kept)))
    cases += [build_orth_structure(_random_structure(rng)) for _ in range(10)]
    for structure in cases:
        first, nodes = _trail_search(structure, count_all=False)
        result = search_coloring(structure)
        assert ([result.coloring.assignment] if result.colorable else []) == first
        assert result.nodes_explored == nodes
        assert count_colorings(structure) == _unsplit_count(structure)


def _e8_rays() -> VectorSet:
    """The 240 E8 roots (±2,±2,0^6) and (±1)^8 with an even number of minus
    signs, taken up to sign: 120 rays in dimension 8."""
    roots = []
    for i, j in combinations(range(8), 2):
        for si, sj in product((2, -2), repeat=2):
            root = [0] * 8
            root[i], root[j] = si, sj
            roots.append(root)
    roots += [list(signs) for signs in product((1, -1), repeat=8) if signs.count(-1) % 2 == 0]
    rays = [r for r in roots if next(x for x in r if x) > 0]
    return VectorSet(8, [ExactVector(r, f"e8_{k}") for k, r in enumerate(rays)])


def test_ray_key_matches_adjugate_formula_on_ray_sets(peres):
    sets = [build_peres33(), build_cabello18(), complete_pairs_to_triads(peres), _e8_rays()]
    assert [len(vset) for vset in sets] == [33, 18, 57, 120]
    for vset in sets:
        for v in vset:
            assert v.ray_key() == _adjugate_ray_key(v)


def test_e8_uncolorable():
    s = build_orth_structure(_e8_rays())
    assert len(s.vectors) == 120
    assert len(s.bases) == 2025
    assert len(s.pairs) == 0
    result = search_coloring(s)
    assert not result.colorable
    assert result.nodes_explored == 41


def test_e8_masks_across_blocks(monkeypatch):
    blocks = _count_blocks(monkeypatch)
    vectors = _e8_rays().vectors
    assert orthogonality_masks(vectors) == _pairwise_masks(vectors)
    assert len(blocks) == 8


def _random_structure(rng) -> VectorSet:
    """Small random integer vector set in dimension 3, unique rays."""
    vectors = []
    seen = set()
    target = int(rng.integers(5, 12))
    while len(vectors) < target:
        coords = [int(c) for c in rng.integers(-2, 3, 3)]
        if not any(coords):
            continue
        v = ExactVector(coords)
        if v.ray_key() in seen:
            continue
        seen.add(v.ray_key())
        vectors.append(v)
    return VectorSet(3, vectors)


def _pairwise_orth_structure(vset: VectorSet) -> OrthStructure:
    """build_orth_structure with one `orthogonal` call per pair, the
    reference for the batched masks (no duplicate check)."""
    vectors = tuple(vset.vectors)
    n, dim = len(vectors), vset.dimension
    orth = [0] * n
    for i, j in combinations(range(n), 2):
        if orthogonal(vectors[i], vectors[j]):
            orth[i] |= 1 << j
    bases = []

    def extend(clique, candidates):
        if len(clique) == dim:
            bases.append(tuple(clique))
            return
        while candidates:
            cand = (candidates & -candidates).bit_length() - 1
            candidates &= candidates - 1
            extend(clique + [cand], candidates & orth[cand])

    extend([], (1 << n) - 1)
    for basis in bases:
        for i, j in combinations(basis, 2):
            orth[i] &= ~(1 << j)
    pairs = tuple((i, j) for i, j in combinations(range(n), 2) if orth[i] >> j & 1)
    return OrthStructure(vectors, tuple(bases), pairs)


def test_build_matches_pairwise_reference(peres):
    rng = np.random.default_rng(15)
    sets = [build_peres33(), build_cabello18(), complete_pairs_to_triads(peres), _e8_rays()]
    sets += [_random_structure(rng) for _ in range(10)]
    for vset in list(sets[:3]):
        for _ in range(4):
            keep = np.sort(rng.choice(len(vset), int(rng.integers(1, len(vset))), replace=False))
            kept = [vset.vectors[i] for i in keep]
            sets.append(VectorSet(vset.dimension, kept))
            sets.append(VectorSet(vset.dimension, [kept[i] for i in rng.permutation(len(kept))]))
    e8 = _e8_rays().vectors
    sets.append(VectorSet(8, [e8[i] for i in rng.permutation(len(e8))[:60]]))
    for vset in sets:
        assert build_orth_structure(vset) == _pairwise_orth_structure(vset)


def _naive_count(structure) -> int:
    """2^k enumeration oracle used to validate the pruned search."""
    n = len(structure.vectors)
    count = 0
    for mask in range(1 << n):
        bits = [(mask >> i) & 1 for i in range(n)]
        if any(sum(bits[i] for i in basis) != 1 for basis in structure.bases):
            continue
        if any(bits[i] + bits[j] > 1 for i, j in structure.pairs):
            continue
        count += 1
    return count


def test_propagation_matches_naive_enumeration():
    rng = np.random.default_rng(99)
    for _ in range(15):
        structure = build_orth_structure(_random_structure(rng))
        expected = _naive_count(structure)
        assert count_colorings(structure) == expected
        result = search_coloring(structure)
        assert result.colorable == (expected > 0)
        if result.colorable:
            assert is_valid_coloring(structure, result.coloring)


def test_colorability_invariant_under_rescale_and_permutation():
    base = [v for v in build_peres33() if v.label not in ("g_2^2", "g_2^3")]
    rng = np.random.default_rng(3)
    order = rng.permutation(len(base))
    scaled = [
        _scaled(base[i], int(rng.integers(1, 5)) * (1 if rng.random() < 0.5 else -1))
        for i in order
    ]
    original = build_orth_structure(VectorSet(3, base))
    shuffled = build_orth_structure(VectorSet(3, scaled))
    assert count_colorings(original) == count_colorings(shuffled)


def test_parity_witness_cabello(cabello):
    witness = cabello_parity_witness(cabello)
    assert witness.bases_count == 9
    assert witness.bases_parity_odd
    assert set(witness.membership_counts) == {2}
    assert witness.uncolorable


def test_parity_witness_disjoint_bases_not_applicable():
    b1 = [ExactVector([1 if k == j else 0 for k in range(4)]) for j in range(4)]
    b2 = [
        ExactVector([1, 1, 1, 1]),
        ExactVector([1, -1, 1, -1]),
        ExactVector([1, 1, -1, -1]),
        ExactVector([1, -1, -1, 1]),
    ]
    s = build_orth_structure(VectorSet(4, b1 + b2))
    with pytest.raises(NotApplicableError):
        cabello_parity_witness(s)


def test_parity_witness_cabello_without_column(cabello):
    # delete one basis worth of vectors: membership counts drop to 1
    drop = set(cabello.bases[0])
    keep = [v for i, v in enumerate(cabello.vectors) if i not in drop]
    s = build_orth_structure(VectorSet(4, keep))
    with pytest.raises(NotApplicableError):
        cabello_parity_witness(s)


def test_pair_completion_gives_forty_triads(peres):
    completed = complete_pairs_to_triads(peres)
    assert len(completed) == 57
    s = build_orth_structure(completed)
    assert len(s.bases) == 40
    assert len(s.pairs) == 0
    assert not search_coloring(s).colorable


def test_completed_pairs_remain_orthogonal(peres):
    completed = complete_pairs_to_triads(peres)
    for i, j in peres.pairs:
        assert orthogonal(peres.vectors[i], peres.vectors[j])
