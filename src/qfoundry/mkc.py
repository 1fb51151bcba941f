"""Non-contextual hidden-variable simulator over finite basis families.

A family is a finite list of pairwise totally incompatible orthonormal
bases; a valuation picks one marked vector per basis, lazily, with the
trace-rule weights.  Sequential measurements re-draw the valuation from
the collapsed state, which is the model's dynamics rule; the sequence
simulator samples the collapse chain, which has the same distribution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations, permutations
from typing import Optional, Sequence

import numpy as np

from .quantum import (
    DensityOperator,
    STRUCT_TOL,
    _as_matrix,
    categorical,
    collapse,
    spectral_projectors,
    threshold_counts,
)

INCOMPATIBILITY_THRESHOLD = 1e-8
RESAMPLE_BUDGET = 1000
MAX_FAMILY_SIZE = 64


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
    seed: int

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


def _projectors_with_first_atom(bases: np.ndarray) -> np.ndarray:
    """Nontrivial projections containing atom 0 of one basis (n, n) or a stack
    (k, n, n), one per complement pair: shape (..., P, n, n)."""
    n = bases.shape[-1]
    subsets = np.array([  # 0/1 rows: atom 0 plus each proper subset of atoms 1..n-1
        [j == 0 or j in rest for j in range(n)]
        for r in range(n - 1)
        for rest in combinations(range(1, n), r)
    ], dtype=float)
    atoms = np.einsum("...ki,...kj->...kij", bases, bases.conj())
    return np.einsum("sk,...kij->...sij", subsets, atoms)


def totally_incompatible(b1: np.ndarray, b2: np.ndarray) -> bool:
    """No nontrivial projection of b1's algebra commutes with one of b2's.

    b2 is one basis (n, n) or a stack (k, n, n); the result is True when b1
    is totally incompatible with every basis of the stack (so an empty
    stack gives True).  Since [1 - P, Q] = -[P, Q], testing the projections
    that contain atom 0 on both sides covers every pair.  A commutator X
    has ||X||_2 >= ||X||_F / sqrt(n), so one whose Frobenius norm exceeds
    2 sqrt(n) times the threshold cannot commute within it; only the rest
    are decided by the operator norm.
    """
    b1, b2 = np.asarray(b1), np.asarray(b2)
    if b2.ndim not in (2, 3) or b2.shape[-2:] != b1.shape:
        raise ValueError(
            f"b2 must be one basis or a stack of bases of shape {b1.shape}, got {b2.shape}"
        )
    p = _projectors_with_first_atom(b1)[:, None, None]
    q = _projectors_with_first_atom(b2.reshape(-1, *b1.shape))
    commutators = p @ q - q @ p  # (P, k, P, n, n)
    bound = 2 * math.sqrt(b1.shape[0]) * INCOMPATIBILITY_THRESHOLD
    near = commutators[np.linalg.norm(commutators, axis=(-2, -1)) <= bound]
    if len(near) == 0:
        return True
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
    if not all(np.isfinite(v).all() and v.any() for v in include):
        raise ValueError("planted vectors must be finite and nonzero")
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
    return BasisFamily(dimension=n, bases=bases, seed=seed)


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
    """Vectorized draw of the basis-m choice over many valuations."""
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
    """
    mat = _as_matrix(observable)
    if np.abs(mat - mat.conj().T).max() > STRUCT_TOL:
        raise ValueError("observable must be Hermitian")
    values, _ = np.linalg.eigh(mat)  # eigvalsh's values differ in the last bits
    atoms = family.atom_projectors()
    perms = np.array(list(permutations(range(len(values)))))
    # candidates[m, p] attaches values[k] to atom perms[p, k] of basis m
    candidates = sum(values[k] * atoms[:, perms[:, k]] for k in range(len(values)))
    dists = np.linalg.norm(mat - candidates, 2, axis=(2, 3)).ravel()
    best = 0
    for i, dist in enumerate(dists):
        if dist < dists[best] - 1e-15:
            best = i
    m, p = divmod(best, len(perms))
    return candidates[m, p], m, float(dists[best])


def factorization_defect(observable, dims: tuple[int, int] = (2, 2)) -> float:
    """Distance of a two-party operator from the one-sided product form.

    Returns the operator-norm gap between the matrix and X (x) 1 for the
    best X, which is the normalized partial trace over the second factor.
    A realized family observable for a composite system generically has a
    large defect: the family does not respect the tensor-product split.
    """
    mat = _as_matrix(observable)
    d1, d2 = dims
    if mat.shape[0] != d1 * d2:
        raise ValueError(f"operator dimension {mat.shape[0]} is not {d1}*{d2}")
    blocks = mat.reshape(d1, d2, d1, d2)
    partial = np.einsum("ikjk->ij", blocks) / d2
    return float(np.linalg.norm(mat - np.kron(partial, np.eye(d2)), 2))


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
    One depth-first walk of the chain sums each leaf's exact probability and
    routes the shots: the shots reaching a node pick its branch by
    categorical sampling of their uniform for that step.
    """
    realized = []
    distances = []
    for obs in observables:
        matrix, _, dist = nearest_family_observable(obs, family)
        realized.append(spectral_projectors(matrix))
        distances.append(dist)

    rng = np.random.default_rng((seed, 0x5EC))
    uniforms = rng.random((shots, len(realized)))
    counts: dict[tuple[float, ...], int] = {}
    exact: dict[tuple[float, ...], float] = {}

    def expand(
        state: DensityOperator, rows: np.ndarray, acc: float, values: tuple[float, ...]
    ) -> None:
        step = len(values)
        if step == len(realized):
            exact[values] = exact.get(values, 0.0) + acc
            counts[values] = counts.get(values, 0) + len(rows)
            return
        groups = realized[step]
        probs = np.array(
            [max(0.0, np.trace(state.matrix @ proj).real) for _, proj in groups]
        )
        total = probs.sum()
        probs = probs / total if total > 0 else probs
        # zero-probability branches are dropped so samples always land on a branch
        live = [k for k in range(len(groups)) if probs[k] > 1e-12]
        picks = threshold_counts(uniforms[rows, step], np.cumsum(probs[live]))
        branch = np.asarray(live)[picks]
        for k in live:
            value = round(groups[k][0], 12) + 0.0  # +0.0 kills -0.0
            child = collapse(state, groups[k][1])
            expand(child, rows[branch == k], acc * float(probs[k]), values + (value,))

    expand(rho0, np.arange(shots), 1.0, ())
    del expand  # break the closure's self-reference, so its arrays are freed on return
    frequencies = {k: v / shots for k, v in sorted(counts.items()) if v}

    return SequenceReport(
        frequencies=frequencies,
        exact_probabilities=exact,
        realized_distances=tuple(distances),
        shots=shots,
    )
