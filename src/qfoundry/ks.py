"""Orthogonality structures and exhaustive search for 0/1 colorings.

A coloring assigns 1 to exactly one vector of every full orthogonal basis
and at most one vector of every remaining orthogonal pair.  The search is
complete backtracking with unit propagation, so a negative answer is an
exhaustion certificate.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Optional

from .exact import (
    DegenerateInputError,
    ExactVector,
    VectorSet,
    cross_product,
    orthogonal,
)

COUNT_LIMIT = 64


class NotApplicableError(ValueError):
    """Raised when a structure does not meet an argument's preconditions."""


@dataclass(frozen=True)
class OrthStructure:
    """Vectors with their full orthogonal bases and leftover orthogonal pairs."""

    vectors: tuple[ExactVector, ...]
    bases: tuple[tuple[int, ...], ...]
    pairs: tuple[tuple[int, int], ...]

    @property
    def dimension(self) -> int:
        return self.vectors[0].dimension

    def adjacency(self) -> list[set[int]]:
        """Orthogonality graph over all basis and pair constraints."""
        adj: list[set[int]] = [set() for _ in self.vectors]
        for basis in self.bases:
            for i, j in combinations(basis, 2):
                adj[i].add(j)
                adj[j].add(i)
        for i, j in self.pairs:
            adj[i].add(j)
            adj[j].add(i)
        return adj


@dataclass(frozen=True)
class Coloring:
    """A satisfying 0/1 assignment, indexed like the structure's vectors."""

    assignment: tuple[int, ...]

    def value(self, index: int) -> int:
        return self.assignment[index]


@dataclass(frozen=True)
class ExhaustionCertificate:
    """Witness that the backtracking tree was fully explored with no solution."""

    nodes_explored: int


@dataclass(frozen=True)
class SearchResult:
    coloring: Optional[Coloring]
    certificate: Optional[ExhaustionCertificate]
    nodes_explored: int

    @property
    def colorable(self) -> bool:
        return self.coloring is not None


@dataclass(frozen=True)
class ParityReport:
    """Outcome of the double-membership parity argument."""

    bases_count: int
    bases_parity_odd: bool
    membership_counts: tuple[int, ...]
    uncolorable: bool


def build_orth_structure(vset: VectorSet) -> OrthStructure:
    """Extract all full orthogonal bases and leftover orthogonal pairs.

    Bases are the mutually-orthogonal cliques of size equal to the ambient
    dimension; pairs are the orthogonal pairs not inside any such basis.
    Duplicate rays are rejected.
    """
    vectors = tuple(vset.vectors)
    seen: dict = {}
    for v in vectors:
        if v.ray_key() in seen:
            raise DegenerateInputError(
                f"duplicate ray: {v.label!r} and {seen[v.ray_key()]!r}"
            )
        seen[v.ray_key()] = v.label

    n = len(vectors)
    dim = vset.dimension
    # orth[i] has bit j set for every later vector j orthogonal to vector i
    orth = [0] * n
    for i, j in combinations(range(n), 2):
        if orthogonal(vectors[i], vectors[j]):
            orth[i] |= 1 << j

    bases: list[tuple[int, ...]] = []

    def extend(clique: list[int], candidates: int) -> None:
        """Grow the clique by later vectors orthogonal to all its members."""
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


def complete_pairs_to_triads(structure: OrthStructure) -> VectorSet:
    """Adjoin the cross-product completion of every leftover pair (dim 3).

    This turns each pair constraint into a full triad, giving the enlarged
    vector set used by the triad-completed reading of the pair sum rule.
    """
    if structure.dimension != 3:
        raise NotApplicableError("pair completion requires dimension 3")
    vectors = list(structure.vectors)
    known = {v.ray_key() for v in vectors}
    for i, j in structure.pairs:
        third = cross_product(structure.vectors[i], structure.vectors[j])
        if third.ray_key() not in known:
            known.add(third.ray_key())
            vectors.append(third)
    return VectorSet(3, vectors)


class _Search:
    UNSET = -1

    def __init__(self, structure: OrthStructure):
        self.structure = structure
        self.n = len(structure.vectors)
        self.adj = [sorted(s) for s in structure.adjacency()]
        self.degree = [len(s) for s in self.adj]
        self.bases = structure.bases
        self.nodes = 0

    def run(self, count_all: bool) -> tuple[list[tuple[int, ...]], int]:
        solutions: list[tuple[int, ...]] = []
        assignment = [self.UNSET] * self.n

        def propagate(trail: list[int], seeds: list[int]) -> bool:
            """Push forced values; returns False on contradiction."""
            queue = list(seeds)
            while queue:
                v = queue.pop()
                if assignment[v] == 1:
                    for u in self.adj[v]:
                        if assignment[u] == 1:
                            return False
                        if assignment[u] == self.UNSET:
                            assignment[u] = 0
                            trail.append(u)
                            queue.append(u)
                # a basis with all-but-one 0 forces its last member to 1
                for basis in self.bases:
                    if v not in basis:
                        continue
                    unset = [u for u in basis if assignment[u] == self.UNSET]
                    ones = sum(1 for u in basis if assignment[u] == 1)
                    if ones == 0:
                        if not unset:
                            return False
                        if len(unset) == 1:
                            last = unset[0]
                            assignment[last] = 1
                            trail.append(last)
                            queue.append(last)
                    elif ones > 1:
                        return False
            return True

        def undo(trail: list[int]) -> None:
            for v in trail:
                assignment[v] = self.UNSET

        def pick_basis() -> Optional[tuple[int, ...]]:
            best = None
            best_open = None
            for basis in self.bases:
                if any(assignment[u] == 1 for u in basis):
                    continue
                open_count = sum(1 for u in basis if assignment[u] == self.UNSET)
                if best is None or open_count < best_open:
                    best, best_open = basis, open_count
            return best

        def branch() -> bool:
            """Depth-first search; returns True to stop early (decision mode)."""
            self.nodes += 1
            basis = pick_basis()
            if basis is not None:
                candidates = [u for u in basis if assignment[u] == self.UNSET]
                # highest orthogonality degree first, ties by ascending index
                candidates.sort(key=lambda u: (-self.degree[u], u))
                for u in candidates:
                    assignment[u] = 1
                    trail = [u]
                    if propagate(trail, [u]) and branch():
                        return True
                    undo(trail)
                return False
            # all bases satisfied: branch the remaining pair-only vectors
            free = next(
                (v for v in range(self.n) if assignment[v] == self.UNSET), None
            )
            if free is None:
                solutions.append(tuple(assignment))
                return not count_all
            for value in (1, 0):
                assignment[free] = value
                trail = [free]
                if propagate(trail, [free]) and branch():
                    return True
                undo(trail)
            return False

        trail0: list[int] = []
        # seed propagation handles single-member bases (dimension 1 corner)
        ok = True
        for basis in self.bases:
            if len(basis) == 1 and assignment[basis[0]] == self.UNSET:
                assignment[basis[0]] = 1
                trail0.append(basis[0])
                ok = propagate(trail0, [basis[0]])
                if not ok:
                    break
        if ok:
            branch()
        return solutions, self.nodes


def search_coloring(structure: OrthStructure) -> SearchResult:
    """Find a satisfying coloring or certify by exhaustion that none exists."""
    solutions, nodes = _Search(structure).run(count_all=False)
    if solutions:
        return SearchResult(Coloring(solutions[0]), None, nodes)
    return SearchResult(None, ExhaustionCertificate(nodes), nodes)


def count_colorings(structure: OrthStructure) -> int:
    """Exact number of valid colorings by complete backtracking enumeration."""
    if len(structure.vectors) > COUNT_LIMIT:
        raise NotApplicableError(
            f"structure has {len(structure.vectors)} vectors, over the "
            f"enumeration limit of {COUNT_LIMIT}"
        )
    solutions, _ = _Search(structure).run(count_all=True)
    return len(solutions)


def is_valid_coloring(structure: OrthStructure, coloring: Coloring) -> bool:
    a = coloring.assignment
    if any(x not in (0, 1) for x in a):
        return False
    for basis in structure.bases:
        if sum(a[i] for i in basis) != 1:
            return False
    return all(a[i] + a[j] <= 1 for i, j in structure.pairs)


def cabello_parity_witness(structure: OrthStructure) -> ParityReport:
    """Certify uncolorability by the even-counting argument, without search.

    Applies when every vector lies in exactly two bases and the number of
    bases is odd: each coloring would mark the value 1 an odd number of
    times across bases, yet double membership forces an even count.
    """
    counts = [0] * len(structure.vectors)
    for basis in structure.bases:
        for i in basis:
            counts[i] += 1
    if any(c != 2 for c in counts):
        raise NotApplicableError(
            "parity argument needs every vector in exactly 2 bases; "
            f"membership counts are {sorted(set(counts))}"
        )
    odd = len(structure.bases) % 2 == 1
    if not odd:
        raise NotApplicableError(
            f"parity argument needs an odd number of bases, got {len(structure.bases)}"
        )
    return ParityReport(
        bases_count=len(structure.bases),
        bases_parity_odd=odd,
        membership_counts=tuple(counts),
        uncolorable=True,
    )
