"""Orthogonality structures and exhaustive search for 0/1 colorings.

Every orthogonal pair of a set is found by one integer Gram product on
the stacked primitive ray keys (`exact.orthogonality_masks`, in the
blocks of `exact.product_blocks`, each reduced to bitmasks before the
next is formed), and the bases are grown as cliques on those bitmasks.

A coloring assigns 1 to exactly one vector of every full orthogonal basis
and at most one vector of every remaining orthogonal pair.  The search is
complete backtracking with unit propagation, so a negative answer is an
exhaustion certificate.  Its state is two int bitsets over the vectors,
those fixed to 1 and those fixed to 0, passed down the recursion; each
basis is one mask, and propagation visits only the bases of a changed
vector.  One branching rule, `_Search.branches`, lists the decisions at
a node for both searches: the decision stops at its first coloring, and
counting, on the same state, splits the free vectors again into connected
parts after every decision, multiplies the parts' counts and caches each
part's count by its free-vector mask for one call.
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
    orthogonal,  # noqa: F401  the per-pair test, re-exported
    orthogonality_masks,
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


@dataclass(frozen=True)
class Coloring:
    """A satisfying 0/1 assignment, indexed like the structure's vectors."""

    assignment: tuple[int, ...]


@dataclass(frozen=True)
class ExhaustionCertificate:
    """Witness that the backtracking tree was fully explored with no solution."""

    nodes_explored: int


@dataclass(frozen=True)
class SearchResult:
    coloring: Optional[Coloring]
    nodes_explored: int

    @property
    def colorable(self) -> bool:
        return self.coloring is not None

    @property
    def certificate(self) -> Optional[ExhaustionCertificate]:
        return None if self.colorable else ExhaustionCertificate(self.nodes_explored)


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
    orth = orthogonality_masks(vectors)

    bases: list[tuple[int, ...]] = []

    def extend(clique: tuple[int, ...], candidates: int) -> None:
        """Grow the clique by later vectors orthogonal to all its members,
        while enough candidates remain to fill a basis."""
        if len(clique) == dim:
            bases.append(clique)
            return
        while candidates.bit_count() >= dim - len(clique):
            cand = (candidates & -candidates).bit_length() - 1
            candidates &= candidates - 1
            extend(clique + (cand,), candidates & orth[cand])

    extend((), (1 << n) - 1)

    for basis in bases:
        for i, j in combinations(basis, 2):
            orth[i] &= ~(1 << j)
    pairs = tuple((i, j) for i in range(n) for j in _bits(orth[i]))
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


def _bits(mask: int):
    """Indices of the set bits of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class _Search:
    """Propagation and the one branching rule over two int bitsets: the
    vectors fixed to 1 and to 0."""

    def __init__(self, structure: OrthStructure):
        self.n = len(structure.vectors)
        self.basis_masks = [sum(1 << v for v in basis) for basis in structure.bases]
        # incident[v]: indices of the bases holding v; orth[v]: v's neighbours
        self.incident: list[list[int]] = [[] for _ in range(self.n)]
        self.orth = [0] * self.n
        for b, basis in enumerate(structure.bases):
            for v in basis:
                self.incident[v].append(b)
                self.orth[v] |= self.basis_masks[b] & ~(1 << v)
        for i, j in structure.pairs:
            self.orth[i] |= 1 << j
            self.orth[j] |= 1 << i
        self.full = (1 << self.n) - 1
        self.neg_degree = [-m.bit_count() for m in self.orth]

    def propagate(self, ones: int, zeros: int, queue: list[int]) -> Optional[tuple[int, int]]:
        """Close (ones, zeros) under the forcing rules; None on contradiction.

        A 1 forces its neighbours to 0.  A basis with no 1 forces its only
        open member to 1, and is violated when it has none.
        """
        while queue:
            v = queue.pop()
            if ones >> v & 1:
                if self.orth[v] & ones:
                    return None
                new = self.orth[v] & ~zeros
                zeros |= new
                queue.extend(_bits(new))
            for b in self.incident[v]:
                if self.basis_masks[b] & ones:
                    continue
                open_ = self.basis_masks[b] & ~zeros
                if not open_:
                    return None
                if not open_ & (open_ - 1):
                    ones |= open_
                    queue.append(open_.bit_length() - 1)
        return ones, zeros

    def branches(self, ones: int, zeros: int) -> list[tuple[int, int, list[int]]]:
        """The decisions at a propagated node, as `propagate` arguments: each
        open member of the first basis with no 1 and the fewest open members
        set to 1, highest degree first, ties by index; when every basis holds
        a 1, the lowest free vector set to 1, then to 0; none when no vector
        is free.  After propagation a basis has an open member exactly when
        it holds no 1, so the rule reads the same on one connected part, as
        `branches(0, ~part)`.
        """
        free = ~(ones | zeros) & self.full
        basis = min((m & free for m in self.basis_masks if m & free),
                    key=int.bit_count, default=0)
        if basis:
            return [(ones | 1 << u, zeros, [u])
                    for u in sorted(_bits(basis), key=self.neg_degree.__getitem__)]
        if not free:
            return []
        v = (free & -free).bit_length() - 1
        return [(ones | 1 << v, zeros, [v]), (ones, zeros | 1 << v, [v])]


def search_coloring(structure: OrthStructure) -> SearchResult:
    """Find a satisfying coloring or certify by exhaustion that none exists."""
    search = _Search(structure)
    nodes = 0

    def first(ones: int, zeros: int) -> Optional[int]:
        """Depth-first; the `ones` mask of the first coloring below the node."""
        nonlocal nodes
        nodes += 1
        decisions = search.branches(ones, zeros)
        if not decisions:
            return ones
        for decision in decisions:
            state = search.propagate(*decision)
            found = first(*state) if state else None
            if found is not None:
                return found
        return None

    state = search.propagate(0, 0, list(range(search.n)))
    found = first(*state) if state else None
    coloring = None if found is None else Coloring(tuple(found >> v & 1 for v in range(search.n)))
    return SearchResult(coloring, nodes)


def count_colorings(structure: OrthStructure) -> int:
    """Exact number of valid colorings, counted by connected parts.

    After unit propagation the free vectors split into connected parts
    (linked by a shared basis or pair), and the count is the product of
    the parts' counts.  A part is counted over the decisions of
    `_Search.branches`, and each branch is propagated and split again.
    Part counts are cached by the part's free-vector mask for the length
    of one call; no coloring is stored, and a vector in no basis and no
    pair is a factor of 2.
    """
    if len(structure.vectors) > COUNT_LIMIT:
        raise NotApplicableError(
            f"structure has {len(structure.vectors)} vectors, over the "
            f"enumeration limit of {COUNT_LIMIT}"
        )
    search = _Search(structure)
    # Why the free mask alone is a sound key: after propagation every
    # neighbour of a 1 is 0, so a basis that still has a free member holds
    # no 1 and asks for exactly one 1 among its free members (all in one
    # part, being mutually linked), and a pair constrains only pairs of free
    # vectors.  The remaining problem depends on nothing but the free
    # vectors, so a part is counted with everything outside it taken as 0.
    cache: dict[int, int] = {}

    def residual(ones: int, zeros: int) -> int:
        """Product of the counts of the connected parts of the free vectors."""
        free = ~(ones | zeros) & search.full
        total = 1
        while free and total:
            part, grown = 0, free & -free
            while grown != part:
                new, part = grown & ~part, grown
                for v in _bits(new):
                    grown |= search.orth[v] & free
            free &= ~part
            total *= part_count(part)
        return total

    def part_count(part: int) -> int:
        if part not in cache:
            total = 0
            for decision in search.branches(0, ~part):
                state = search.propagate(*decision)
                if state:
                    total += residual(*state)
            cache[part] = total
        return cache[part]

    state = search.propagate(0, 0, list(range(search.n)))
    return residual(*state) if state else 0


def is_valid_coloring(structure: OrthStructure, coloring: Coloring) -> bool:
    """Whether the coloring gives each vector 0 or 1 and meets every rule."""
    a = coloring.assignment
    if len(a) != len(structure.vectors) or any(x not in (0, 1) for x in a):
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
