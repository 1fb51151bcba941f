"""Non-contextual hidden-variable simulator over finite basis families.

A family is a finite list of pairwise totally incompatible orthonormal
bases; a valuation picks one marked vector per basis, lazily, with the
trace-rule weights.  Sequential measurements re-draw the valuation from
the collapsed state, which is the model's dynamics rule; the sequence
simulator samples the collapse chain, which has the same distribution.

The kernels work in closed form where one exists: total incompatibility
sums the commutators' Frobenius norms from the two bases' overlaps, the
nearest family observable runs an SVD only on the candidates a Frobenius
bound cannot rule out, and the shots move down the collapse chain one
level at a time as integer node indices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations, permutations
from typing import Optional, Sequence

import numpy as np

from .quantum import (
    DensityOperator,
    STRUCT_TOL,
    _as_matrix,
    _uniform_blocks,
    categorical,
    collapse,
    normalizable,
    spectral_projectors,
)

INCOMPATIBILITY_THRESHOLD = 1e-8
RESAMPLE_BUDGET = 1000
MAX_FAMILY_SIZE = 64
NEAREST_MARGIN = 1e-9  # far above the 1e-15 tie window, see nearest_family_observable


class FamilyGenerationError(RuntimeError):
    """Raised when the resample budget is exhausted."""


class NotInFamilyError(ValueError):
    """Raised for projections that belong to no family algebra."""


@dataclass(frozen=True)
class BasisFamily:
    """K orthonormal bases, pairwise totally incompatible.

    bases is a (K, n, n) array; bases[m] has the m-th basis vectors as rows.
    """

    dimension: int
    bases: np.ndarray

    @property
    def size(self) -> int:
        return len(self.bases)

    def projector(self, m: int, j: int) -> np.ndarray:
        v = self.bases[m][j]
        return np.outer(v, v.conj())

    def atom_projectors(self) -> np.ndarray:
        """(K, n, n, n) array: [m, j] projects onto the j-th vector of basis m."""
        b = self.bases
        return b[:, :, :, None] * b[:, :, None, :].conj()

    def atom_weights(self, mat: np.ndarray) -> np.ndarray:
        """(K, n) trace-rule weights <v|mat|v> of every basis vector v."""
        return np.einsum("mki,ij,mkj->mk", self.bases.conj(), mat, self.bases).real

    def atom_probabilities(self, rho: DensityOperator, m: int) -> np.ndarray:
        """Trace-rule weights of the m-th basis vectors, normalized."""
        probs = np.clip(self.atom_weights(_as_matrix(rho))[m], 0.0, None)
        return probs / probs.sum()

    def locate(self, projection) -> tuple[int, tuple[int, ...]] | None:
        """The unique (basis index, atom subset) realizing a projection.

        Returns None for the trivial projections 0 and 1, raises when the
        projection is in no family algebra or in more than one.
        """
        mat = _as_matrix(projection)
        if _trivial_value(mat) is not None:
            return None
        chosen = self.atom_weights(mat) > 0.5
        rebuilt = (self.atom_projectors() * chosen[:, :, None, None]).sum(axis=1)
        hits = np.flatnonzero(np.linalg.norm(mat - rebuilt, 2, axis=(1, 2)) <= STRUCT_TOL)
        if len(hits) == 0:
            raise NotInFamilyError("projection does not belong to any family algebra")
        if len(hits) > 1:
            raise NotInFamilyError(
                f"projection belongs to {len(hits)} family algebras; bases are "
                "not totally incompatible"
            )
        m = int(hits[0])
        return m, tuple(int(j) for j in np.flatnonzero(chosen[m]))


def _trivial_value(mat: np.ndarray) -> Optional[int]:
    """0 or 1 for the trivial projections 0 and 1, None for any other."""
    if np.linalg.norm(mat, 2) <= STRUCT_TOL:
        return 0
    if np.linalg.norm(mat - np.eye(mat.shape[0]), 2) <= STRUCT_TOL:
        return 1
    return None


@lru_cache(maxsize=None)
def _first_atom_subsets(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The 0/1 rows s (P, n) of atom 0 plus each proper subset of atoms
    1..n-1, one per complement pair of nontrivial projections
    (P = 2^(n-1) - 1), and the (n*n, P) weights s_a (1 - s_b) that sum the
    entries (a in S, b not in S) of a flattened n x n matrix."""
    subsets = np.array([
        [j == 0 or j in rest for j in range(n)]
        for r in range(n - 1)
        for rest in combinations(range(1, n), r)
    ], dtype=float)
    across = np.einsum("sa,sb->abs", subsets, 1 - subsets).reshape(n * n, len(subsets))
    subsets.flags.writeable = across.flags.writeable = False  # shared by every call
    return subsets, across


def totally_incompatible(b1: np.ndarray, b2: np.ndarray) -> bool:
    """No nontrivial projection of b1's algebra commutes with one of b2's.

    b2 is one basis (n, n) or a stack (k, n, n); the result is True when b1
    is totally incompatible with every basis of the stack (so an empty
    stack gives True).  Since [1 - P, Q] = -[P, Q], testing the projections
    that contain atom 0 on both sides (atom subsets S of b1, T of b2) covers
    every pair.

    The test works in b1's coordinates, where P_S is the 0/1 diagonal s.
    With the overlaps M_aj = <v_a|w_j> of b1's vectors v and b2's w (one
    (k, n, n) product), Q_T becomes X = M_T M_T^* (the columns T of M), so
    [P_S, X]_ab = (s_a - s_b) X_ab and, X being Hermitian,
    ||[P_S, Q_T]||_F^2 = 2 sum_{a in S, b not in S} |X_ab|^2, one product
    over every (T, k, S).  A commutator C has ||C||_2 >= ||C||_F / sqrt(n),
    so one whose Frobenius norm exceeds 2 sqrt(n) times the threshold cannot
    commute within it; only the few others are built and decided by the
    operator norm, which the unitary change of basis leaves as it is.
    """
    b1, b2 = np.asarray(b1), np.asarray(b2)
    if b2.ndim not in (2, 3) or b2.shape[-2:] != b1.shape:
        raise ValueError(
            f"b2 must be one basis or a stack of bases of shape {b1.shape}, got {b2.shape}"
        )
    n = b1.shape[0]
    subsets, across = _first_atom_subsets(n)
    overlaps = b2.reshape(-1, n, n).transpose(1, 0, 2) @ b1.conj().T  # [j, k, a] = M_aj
    rank_one = overlaps[:, :, :, None] * overlaps[:, :, None, :].conj()  # M_aj conj(M_bj)
    x = (subsets @ rank_one.reshape(n, -1)).reshape(len(subsets), -1, n * n)  # [T, k, ab]
    frob_sq = 2 * ((x.real**2 + x.imag**2) @ across)  # [T, k, S]
    bound = 2 * math.sqrt(n) * INCOMPATIBILITY_THRESHOLD
    t, k, s = np.nonzero(frob_sq <= bound**2)
    if len(t) == 0:
        return True
    near = (subsets[s, :, None] - subsets[s, None, :]) * x[t, k].reshape(-1, n, n)
    return not np.any(np.linalg.norm(near, 2, axis=(1, 2)) <= INCOMPATIBILITY_THRESHOLD)


def random_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    """Haar-random unitary from the QR of a Ginibre matrix, phases fixed."""
    raw = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(raw)
    # fix the QR phase ambiguity for reproducibility
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def _basis_containing(rng: np.random.Generator, vector: np.ndarray) -> np.ndarray:
    """An orthonormal basis whose first vector is the given unit vector."""
    n = vector.shape[0]
    cols = [vector / np.linalg.norm(vector)]
    while len(cols) < n:
        cand = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        for existing in cols:
            cand = cand - existing * np.vdot(existing, cand)
        norm = np.linalg.norm(cand)
        if norm > 1e-6:
            cols.append(cand / norm)
    return np.array(cols)


def generate_basis_family(
    n: int, size: int, seed: int, include: Sequence[np.ndarray] = ()
) -> BasisFamily:
    """Seeded family of `size` pairwise totally incompatible bases.

    Optional `include` vectors are planted: each gets one basis containing
    it (random orthonormal completion) before the random bases are drawn.
    Two planted vectors whose projectors commute (orthogonal or parallel
    ones) can never lie in totally incompatible bases, so they are refused
    before any draw.  Bases violating pairwise total incompatibility are
    rejected and resampled, so the first k accepted bases do not depend on
    `size`.
    """
    if n not in (2, 3, 4):
        raise ValueError("family dimension must be 2, 3 or 4")
    if not 1 <= size <= MAX_FAMILY_SIZE:
        raise ValueError(f"family size must lie in [1, {MAX_FAMILY_SIZE}]")
    if len(include) > size:
        raise ValueError("more planted vectors than bases")
    include = [np.asarray(vec, dtype=complex) for vec in include]
    if not all(normalizable(v) for v in include):
        raise ValueError("planted vectors must be finite and nonzero, with a squared "
                         "norm that neither underflows nor overflows")
    projectors = [np.outer(v, v.conj()) / np.vdot(v, v).real for v in include]
    for (i, p), (j, q) in combinations(enumerate(projectors), 2):
        if np.linalg.norm(p @ q - q @ p, 2) <= INCOMPATIBILITY_THRESHOLD:
            raise FamilyGenerationError(f"planted vectors {i} and {j} have commuting projectors")
    rng = np.random.default_rng(seed)
    bases = np.empty((size, n, n), dtype=complex)
    k = attempts = 0
    while k < size:
        attempts += 1
        if attempts > RESAMPLE_BUDGET:
            raise FamilyGenerationError("resample budget exhausted")
        if k < len(include):
            basis = _basis_containing(rng, include[k])
        else:
            basis = random_unitary(rng, n).T  # rows = basis vectors
        if totally_incompatible(basis, bases[:k]):
            bases[k] = basis
            k += 1
    return BasisFamily(dimension=n, bases=bases)


def mkc_probability(rho: DensityOperator, projection, family: BasisFamily) -> float:
    """Model probability of value 1: the sum of the trace-rule weights of
    the atoms below the projection, which equals the trace rule itself."""
    where = family.locate(projection)
    if where is None:
        return float(_trivial_value(_as_matrix(projection)))
    m, atoms = where
    return float(family.atom_weights(_as_matrix(rho))[m, list(atoms)].sum())


@dataclass
class ValuationSeed:
    """Lazily sampled valuation: one marked basis vector per accessed basis.

    The draw for basis m is the first `sample_choices` draw on the (seed, m)
    stream, so it does not depend on the order in which bases are queried.
    """

    family: BasisFamily
    rho: DensityOperator
    seed: int
    _choices: dict = field(default_factory=dict)

    def choice(self, m: int) -> int:
        if m not in self._choices:
            self._choices[m] = int(sample_choices(self.rho, self.family, m, 1, self.seed)[0])
        return self._choices[m]

    def value(self, projection) -> int:
        """The 0/1 value assigned to a projection of a family algebra."""
        where = self.family.locate(projection)
        if where is None:
            return _trivial_value(_as_matrix(projection))
        m, atoms = where
        return 1 if self.choice(m) in atoms else 0


def sample_valuation(rho: DensityOperator, family: BasisFamily, seed: int) -> ValuationSeed:
    return ValuationSeed(family=family, rho=rho, seed=seed)


def sample_choices(
    rho: DensityOperator, family: BasisFamily, m: int, shots: int, seed: int
) -> np.ndarray:
    """Vectorized draw of the basis-m choice over many valuations, one byte
    (uint8) per draw."""
    probs = family.atom_probabilities(rho, m)
    return categorical(np.random.default_rng((seed, m)), probs, shots)


def nearest_family_observable(
    observable, family: BasisFamily
) -> tuple[np.ndarray, int, float]:
    """Closest family realization of a Hermitian matrix.

    Keeps the observable's eigenvalues and re-attaches them to the basis
    (and vector matching) that minimizes the operator-norm distance.
    Returns (realized matrix, basis index, distance); on a tie within
    1e-15 the first basis and permutation in order win.

    Only some candidates need the operator norm (an SVD each).  A difference
    X has ||X||_2^2 = ||X^*X||_2, and every n x n matrix Y has
    ||Y||_F / sqrt(n) <= ||Y||_2 <= ||Y||_F; on Y = X^*X this puts ||X||_2
    between U / n^(1/4) and U = ||X^*X||_F^(1/2).  A candidate whose lower
    bound exceeds the least U by NEAREST_MARGIN * (1 + U) is farther than
    the nearest by more than that margin and is dropped.  Scanning the
    survivors in their original order picks what a scan of every candidate
    picks: the margin spans more than 2 K n! tie windows, so it holds a
    window-wide gap with no distance in it; every candidate below the gap
    survives and every one above it lies more than a window higher, so in
    either scan the first candidate below the gap becomes the best and only
    candidates below the gap follow it.  A non-finite bound keeps every
    candidate.
    """
    mat = _as_matrix(observable)
    if np.abs(mat - mat.conj().T).max() > STRUCT_TOL:
        raise ValueError("observable must be Hermitian")
    n = mat.shape[0]
    values, _ = np.linalg.eigh(mat)  # eigvalsh's values differ in the last bits
    atoms = family.atom_projectors()
    perms = np.array(list(permutations(range(n))))
    # candidates[m, p] attaches values[k] to atom perms[p, k] of basis m
    candidates = sum(values[k] * atoms[:, perms[:, k]] for k in range(n))
    diffs = (mat - candidates).reshape(-1, n, n)
    with np.errstate(over="ignore", invalid="ignore"):  # huge entries: kept below
        gram = diffs.conj().transpose(0, 2, 1) @ diffs
        upper = np.sqrt(np.linalg.norm(gram, axis=(1, 2)))
    if np.isfinite(upper).all():
        least = upper.min()
        kept = np.flatnonzero(upper / n**0.25 <= least + NEAREST_MARGIN * (1 + least))
    else:
        kept = np.arange(len(diffs))
    dists = np.linalg.norm(diffs[kept], 2, axis=(1, 2))
    best = 0
    for i, dist in enumerate(dists):
        if dist < dists[best] - 1e-15:
            best = i
    m, p = divmod(int(kept[best]), len(perms))
    return candidates[m, p], m, float(dists[best])


@dataclass(frozen=True)
class SequenceReport:
    """Aggregated outcomes of a repeated measurement sequence."""

    frequencies: dict
    exact_probabilities: dict
    realized_distances: tuple[float, ...]
    shots: int

    @property
    def total_variation_distance(self) -> float:
        keys = set(self.frequencies) | set(self.exact_probabilities)
        return 0.5 * sum(
            abs(self.frequencies.get(k, 0.0) - self.exact_probabilities.get(k, 0.0))
            for k in keys
        )


def simulate_sequence(
    rho0: DensityOperator,
    observables: Sequence,
    family: BasisFamily,
    seed: int,
    shots: int,
) -> SequenceReport:
    """Monte Carlo over sequential measurements along the collapse chain.

    Each intended observable is first realized in the family.  Each step's
    outcome is drawn from the trace-rule weights of the current state, which
    then collapses onto the outcome's eigenspace; this chain has the same
    distribution as the model's valuation re-draws on the collapsed state.
    The chain's levels (steps) are built once, before any shot is drawn.
    Each level lists its nodes in depth-first order; each node keeps its
    live (nonzero probability) branches and their cdf.  The shots are then
    walked in blocks of quantum._DRAW_BLOCK rows of one row-major
    (shots, steps) draw of uniforms, each shot holding the index of its node
    in a narrow integer array.  A shot picks its branch by categorical
    sampling of its uniform for the step against its node's cdf, and moves
    to that child.  The leaves' exact probabilities are summed in
    depth-first order and their shots counted by one bincount per block.
    """
    realized = []
    distances = []
    for obs in observables:
        matrix, _, dist = nearest_family_observable(obs, family)
        realized.append(spectral_projectors(matrix))
        distances.append(dist)

    # one level of the chain: (state, exact probability, outcome values) per
    # node, in depth-first order; each level's table is (cdf, first)
    nodes = [(rho0, 1.0, ())]
    levels = []
    for groups in realized:
        cdf = np.full((len(groups) - 1, len(nodes)), np.inf)
        first = np.empty(len(nodes), dtype=np.intp)  # a node's live children are consecutive
        children = []
        for i, (state, acc, values) in enumerate(nodes):
            probs = np.array(
                [max(0.0, np.trace(state.matrix @ proj).real) for _, proj in groups]
            )
            total = probs.sum()
            probs = probs / total if total > 0 else probs
            # zero-probability branches are dropped so samples always land on a branch
            live = [k for k in range(len(groups)) if probs[k] > 1e-12]
            cdf[: len(live) - 1, i] = np.cumsum(probs[live])[:-1]
            first[i] = len(children)
            for k in live:
                value = round(groups[k][0], 12) + 0.0  # +0.0 kills -0.0
                children.append(
                    (collapse(state, groups[k][1]), acc * float(probs[k]), values + (value,))
                )
        levels.append((cdf, first.astype(np.min_scalar_type(len(children) - 1))))
        nodes = children

    # the shots in blocks of rows of one row-major (shots, steps) draw, each
    # shot's node as an index into its level
    rng = np.random.default_rng((seed, 0x5EC))
    hits = np.zeros(len(nodes), dtype=np.int64)
    for _, uniforms in _uniform_blocks(rng, shots, (len(levels),)):
        codes = np.zeros(len(uniforms), dtype=np.uint8)
        for u, (cdf, first) in zip(uniforms.T, levels):
            # a shot's live branch is the count of its node's cdf entries <=
            # its uniform, as in quantum.threshold_counts; the +inf padding
            # never counts
            picks = np.zeros(len(u), dtype=np.uint8)
            for row in cdf:
                picks += u >= row.take(codes)
            codes = first.take(codes) + picks
        hits += np.bincount(codes, minlength=len(nodes))

    counts: dict[tuple[float, ...], int] = {}
    exact: dict[tuple[float, ...], float] = {}
    for (_, acc, values), n in zip(nodes, hits.tolist()):
        exact[values] = exact.get(values, 0.0) + acc
        counts[values] = counts.get(values, 0) + n
    frequencies = {k: v / shots for k, v in sorted(counts.items()) if v}

    return SequenceReport(
        frequencies=frequencies,
        exact_probabilities=exact,
        realized_distances=tuple(distances),
        shots=shots,
    )
