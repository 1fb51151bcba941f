"""Subspace logic and context-indexed Heyting algebras.

Two structures are implemented: the lattice of closed subspaces with
span/intersection/orthocomplement connectives, and two lattices of
context-indexed projection assignments over a finite poset of abelian
algebras (one monotone along inclusion, one against it).  Within each context everything is an exact
bitmask over that context's atoms; floating point only enters when
projections are related across contexts.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import reduce
from typing import Iterable, Optional, Sequence

import numpy as np

from .quantum import STRUCT_TOL, ProjectionOp, _as_matrix

CONTAINMENT_TOL = 1e-9
MAX_SUBSPACE_DIM = 4
MAX_EXHAUSTIVE_ELEMENTS = 512  # the law check holds (E, E, C) mask tables
MAX_POSET_BASES = 64  # the poset build compares every pair of contexts
CONTAINMENT_BLOCK = 1 << 14  # atom pairs per batched containment test


def _range_basis(projection: np.ndarray) -> np.ndarray:
    values, vectors = np.linalg.eigh(projection)
    return vectors[:, values > 0.5]


def _containment(atoms: np.ndarray) -> np.ndarray:
    """leq[b, a]: whether atom a lies below atom b, decided by the norm
    norm(P_b Q_a - Q_a, 2) <= CONTAINMENT_TOL on every pair of the (N, d, d)
    stack at once (in row blocks of at most CONTAINMENT_BLOCK pairs, to bound
    memory).

    Since ||X||_F / sqrt(d) <= ||X||_2 <= ||X||_F, a pair whose Frobenius
    norm is at most half the tolerance passes and one whose Frobenius norm
    exceeds 2 sqrt(d) times it fails, both with a factor 2 to spare for
    rounding; only the pairs in between take the operator-norm SVD.
    """
    rows = max(1, CONTAINMENT_BLOCK // len(atoms))
    bound = 2 * np.sqrt(atoms.shape[-1]) * CONTAINMENT_TOL
    blocks = []
    for lo in range(0, len(atoms), rows):
        diffs = atoms[lo : lo + rows, None] @ atoms - atoms
        frobenius = np.linalg.norm(diffs, axis=(-2, -1))
        leq = frobenius <= CONTAINMENT_TOL / 2
        unsure = ~leq & (frobenius <= bound)
        leq[unsure] = np.linalg.norm(diffs[unsure], 2, axis=(-2, -1)) <= CONTAINMENT_TOL
        blocks.append(leq)
    return np.concatenate(blocks)


class Subspace:
    """A closed subspace of C^n, held as its orthogonal projection."""

    def __init__(self, projection) -> None:
        mat = _as_matrix(projection)
        if mat.shape[0] > MAX_SUBSPACE_DIM:
            raise ValueError("subspace lattice capped at dimension 4")
        self.projection = ProjectionOp(mat).matrix

    @property
    def dimension(self) -> int:
        return self.projection.shape[0]

    @property
    def rank(self) -> int:
        return int(round(np.trace(self.projection).real))

    @classmethod
    def spanned_by(cls, *vectors) -> "Subspace":
        dim = len(np.asarray(vectors[0]))
        cols = np.column_stack([np.asarray(v, dtype=complex) for v in vectors])
        u, s, _ = np.linalg.svd(cols, full_matrices=False)
        keep = u[:, s > CONTAINMENT_TOL]
        return cls(keep @ keep.conj().T)

    def isclose(self, other: "Subspace") -> bool:
        return float(np.linalg.norm(self.projection - other.projection, 2)) <= CONTAINMENT_TOL


def ql_join(*subspaces: Subspace) -> Subspace:
    """Projector onto the closed span of the arguments."""
    dim = subspaces[0].dimension
    blocks = [_range_basis(s.projection) for s in subspaces]
    stacked = np.hstack([b for b in blocks if b.shape[1]] or [np.zeros((dim, 1))])
    u, s, _ = np.linalg.svd(stacked, full_matrices=False)
    keep = u[:, s > CONTAINMENT_TOL]
    return Subspace(keep @ keep.conj().T)


def ql_meet(a: Subspace, b: Subspace) -> Subspace:
    """Projector onto the intersection: the kernel of (1-P) + (1-Q)."""
    dim = a.dimension
    eye = np.eye(dim)
    values, vectors = np.linalg.eigh((eye - a.projection) + (eye - b.projection))
    keep = vectors[:, values <= CONTAINMENT_TOL]
    return Subspace(keep @ keep.conj().T)


def ql_ortho(a: Subspace) -> Subspace:
    return Subspace(np.eye(a.dimension) - a.projection)


@dataclass(frozen=True)
class Context:
    """An abelian algebra given by its atoms (a partition of the identity)."""

    atoms: tuple[np.ndarray, ...]
    name: str = ""

    def __post_init__(self):
        # every residual norm in one call, then the checks in the order of one
        # atom at a time: the sum, then each atom's projection checks before
        # its orthogonality to the later atoms
        mats = np.array([_as_matrix(p) for p in self.atoms])
        count, dim = mats.shape[:2]
        residual = mats[:, None] @ mats  # P_i P_j, which vanishes off the diagonal
        residual[range(count), range(count)] -= mats  # P_i P_i - P_i
        norms = np.linalg.norm(np.concatenate([[sum(mats) - np.eye(dim)],
                                               residual.reshape(-1, dim, dim)]), 2, axis=(-2, -1))
        if norms[0] > STRUCT_TOL:
            raise ValueError(f"atoms of context {self.name!r} do not sum to identity")
        norms = norms[1:].reshape(count, count)
        hermitian = np.abs(mats - mats.conj().swapaxes(1, 2)).max(axis=(1, 2)) <= STRUCT_TOL
        for i in range(count):
            if not hermitian[i]:
                raise ValueError("projection must be Hermitian")
            if norms[i, i] > STRUCT_TOL:
                raise ValueError("projection must be idempotent within 1e-10")
            if (norms[i, i + 1 :] > STRUCT_TOL).any():
                raise ValueError(f"atoms of context {self.name!r} are not orthogonal")

    @property
    def size(self) -> int:
        return len(self.atoms)


class ContextPoset:
    """A finite poset of contexts ordered by algebra inclusion.

    Inclusion i <= j means every atom of context j refines into (lies below)
    an atom of context i.  One _containment call over the atoms of the
    trivial context and of every given context decides it for every pair,
    and it alone decides algebra identity too: a context included both ways
    in an earlier kept one is the same algebra and is dropped (the first
    copy wins).  So the poset always contains the trivial context first and
    each algebra once, and inclusion is antisymmetric.  Refinement maps, and
    a table of every mask's expansion along each, are precomputed so lattice
    elements are pure bitmask data.
    """

    def __init__(self, contexts: Iterable[Context]) -> None:
        contexts = list(contexts)
        dim = contexts[0].atoms[0].shape[0]
        contexts.insert(0, Context(atoms=(np.eye(dim, dtype=complex),), name="trivial"))
        bounds = np.cumsum([0, *(ctx.size for ctx in contexts)])
        leq = _containment(np.concatenate([np.array(ctx.atoms, dtype=complex)
                                           for ctx in contexts]))
        # included[i, j]: every atom of context j lies below an atom of context i
        included = np.logical_and.reduceat(np.logical_or.reduceat(leq, bounds[:-1], axis=0),
                                           bounds[:-1], axis=1)
        # a context included both ways in an earlier kept one is that algebra again
        same = included & included.T
        keep: list[int] = []
        for j in range(len(contexts)):
            if not same[keep, j].any():
                keep.append(j)
        self.contexts = [contexts[k] for k in keep]
        included = included[np.ix_(keep, keep)]
        n = len(keep)
        sizes = [ctx.size for ctx in self.contexts]
        self._full = [(1 << size) - 1 for size in sizes]
        # the narrowest unsigned dtype holding every mask; mask tables in it
        # move a fraction of the memory an int64 table would
        self.mask_dtype = np.min_scalar_type(max(self._full))
        # refine[i][j][k] = index of the atom of context i containing atom k
        # of context j (the first one, in atom order), present only when
        # context i is included in context j
        self.refine: list[list[Optional[list[int]]]] = [[None] * n for _ in range(n)]
        self._expand: list[list[Optional[np.ndarray]]] = [[None] * n for _ in range(n)]
        spans = [slice(bounds[k], bounds[k + 1]) for k in keep]  # each kept context's atoms
        for i, span in enumerate(spans):
            parent = leq[span].argmax(axis=0)
            masks = np.arange(1 << sizes[i])
            for j in np.flatnonzero(included[i]):
                self.refine[i][j] = parent[spans[j]].tolist()
                # the expansion of every mask of context i, indexed by mask
                self._expand[i][j] = sum((masks >> p & 1) << k for k, p in
                                         enumerate(self.refine[i][j])).astype(self.mask_dtype)
        self._subs = [tuple(np.flatnonzero(col).tolist()) for col in included.T]
        self._supers = [tuple(np.flatnonzero(row).tolist()) for row in included]

    def sub_contexts(self, j: int) -> tuple[int, ...]:
        """Contexts included in context j (j among them), ascending."""
        return self._subs[j]

    def super_contexts(self, i: int) -> tuple[int, ...]:
        """Contexts that include context i (i among them), ascending."""
        return self._supers[i]

    def expand_mask(self, i: int, j: int, mask):
        """Re-express a projection of context i as an atom mask of finer j
        (mask may be an int, giving an int, or an int array); bits past
        context i's atoms are ignored."""
        found = self._expand[i][j][mask & self.full_mask(i)]
        return found if isinstance(found, np.ndarray) else int(found)

    def full_mask(self, i: int) -> int:
        return self._full[i]


def poset_from_bases(bases: Sequence[np.ndarray]) -> ContextPoset:
    """Generate a finite poset from a list of orthonormal bases.

    Each basis contributes its maximal abelian algebra; in dimension >= 3
    the two-block algebras {P_i, 1 - P_i} are included as intermediate
    contexts.  Duplicate algebras are merged by ContextPoset.
    """
    contexts: list[Context] = []
    for b_idx, basis in enumerate(bases):
        basis = np.asarray(basis, dtype=complex)
        dim = basis.shape[0]
        atoms = tuple(np.outer(basis[k], basis[k].conj()) for k in range(dim))
        contexts.append(Context(atoms=atoms, name=f"basis{b_idx}"))
        if dim >= 3:
            eye = np.eye(dim, dtype=complex)
            for k in range(dim):
                block = (atoms[k], eye - atoms[k])
                contexts.append(Context(atoms=block, name=f"basis{b_idx}:block{k}"))
    return ContextPoset(contexts)


class ContextFunction:
    """A context-indexed projection assignment as per-context atom masks."""

    __slots__ = ("masks",)

    def __init__(self, masks: Sequence[int]) -> None:
        self.masks = tuple(masks)

    def __eq__(self, other) -> bool:
        return isinstance(other, ContextFunction) and self.masks == other.masks

    def __hash__(self) -> int:
        return hash(self.masks)

    def __repr__(self) -> str:
        return f"ContextFunction{self.masks}"


VARIANT_DOWN = "l3"  # finer contexts carry smaller projections
VARIANT_UP = "l2"  # finer contexts carry larger projections


def _mask_bounds(poset, masks, i, variant) -> tuple[int, int]:
    """(forced, allowed) atom masks of context i given its coarser contexts'
    masks: a monotone element has forced <= masks[i] <= allowed there."""
    coarser = [poset.expand_mask(d, i, masks[d]) for d in poset.sub_contexts(i) if d != i]
    if variant == VARIANT_DOWN:  # S(fine) <= S(coarse)
        return 0, reduce(operator.and_, coarser, poset.full_mask(i))
    if variant == VARIANT_UP:  # S(coarse) <= S(fine)
        return reduce(operator.or_, coarser, 0), poset.full_mask(i)
    raise ValueError(f"unknown variant {variant!r}")


class ExhaustiveLimitError(ValueError):
    """More monotone elements than exhaustive checking takes."""


def _walk(poset: ContextPoset, variant: str, choices) -> list[list[int]]:
    """Monotone mask lists, filled coarse to fine along a linear extension:
    each context takes every mask that choices(forced, allowed) returns.

    Every context offers at least one mask, so the count of partial lists
    never falls: the walk refuses as soon as it passes
    MAX_EXHAUSTIVE_ELEMENTS."""
    partial = [[0] * len(poset.contexts)]
    for i in sorted(range(len(poset.contexts)), key=lambda c: len(poset.sub_contexts(c))):
        grown = []
        for masks in partial:
            grown += [masks[:i] + [mask] + masks[i + 1 :]
                      for mask in choices(*_mask_bounds(poset, masks, i, variant))]
            if len(grown) > MAX_EXHAUSTIVE_ELEMENTS:
                raise ExhaustiveLimitError(
                    f"poset has more than {MAX_EXHAUSTIVE_ELEMENTS} monotone {variant} "
                    f"elements, the exhaustive limit"
                )
        partial = grown
    return partial


def _monotone(poset: ContextPoset, m: np.ndarray, variant: str) -> np.ndarray:
    """is_monotone of every row of a (..., C) int mask array."""
    cols = np.moveaxis(m, -1, 0)
    holds = np.ones(m.shape[:-1], dtype=bool)
    for i, mask in enumerate(cols):
        forced, allowed = _mask_bounds(poset, cols, i, variant)
        holds &= (mask | forced) & allowed == mask  # forced <= mask <= allowed
    return holds


def is_monotone(poset: ContextPoset, element: ContextFunction, variant: str) -> bool:
    return bool(_monotone(poset, np.array(element.masks), variant))


def bottom(poset: ContextPoset) -> ContextFunction:
    return ContextFunction([0] * len(poset.contexts))


def top(poset: ContextPoset) -> ContextFunction:
    return ContextFunction([poset.full_mask(i) for i in range(len(poset.contexts))])


def _require_monotone(poset, elements, variant):
    for el in elements:
        if not is_monotone(poset, el, variant):
            raise ValueError(f"element {el} violates {variant} monotonicity")


def _arrow(poset: ContextPoset, variant: str, a, b) -> np.ndarray:
    """The implication a -> b of (..., C) int mask arrays that broadcast
    together, from the complement-join t = ~a | b at each context."""
    contexts = range(len(poset.contexts))
    t = [(poset.full_mask(d) & ~a[..., d]) | b[..., d] for d in contexts]
    if variant == VARIANT_DOWN:  # the meet of t over the coarser contexts
        cols = [reduce(operator.and_, [poset.expand_mask(d, c, t[d])
                                       for d in poset.sub_contexts(c)]) for c in contexts]
    elif variant == VARIANT_UP:  # the atoms that lie below t at every finer context
        cols = [sum(reduce(operator.and_, [poset.expand_mask(c, d, 1 << k) & ~t[d] == 0
                                           for d in poset.super_contexts(c)]) << k
                    for k in range(poset.contexts[c].size)) for c in contexts]
    else:
        raise ValueError(f"unknown variant {variant!r}")
    return np.stack(cols, axis=-1).astype(np.result_type(a, b), copy=False)


def l3_implication(
    poset: ContextPoset, s1: ContextFunction, s2: ContextFunction
) -> ContextFunction:
    """Pointwise meet of complement-joins over all coarser contexts."""
    _require_monotone(poset, (s1, s2), VARIANT_DOWN)
    return ContextFunction(_arrow(poset, VARIANT_DOWN, *np.array([s1.masks, s2.masks])).tolist())


def l3_negation(poset: ContextPoset, s: ContextFunction) -> ContextFunction:
    return l3_implication(poset, s, bottom(poset))


def l2_implication(
    poset: ContextPoset, s1: ContextFunction, s2: ContextFunction
) -> ContextFunction:
    """Largest context projection below every finer complement-join."""
    _require_monotone(poset, (s1, s2), VARIANT_UP)
    return ContextFunction(_arrow(poset, VARIANT_UP, *np.array([s1.masks, s2.masks])).tolist())


def enumerate_elements(poset: ContextPoset, variant: str) -> list[ContextFunction]:
    """All monotone elements, in lexicographic order of their mask tuples.

    The walk offers each context every mask between its forced and allowed
    masks, and raises ExhaustiveLimitError once the poset is seen to have
    more than MAX_EXHAUSTIVE_ELEMENTS of them.
    """

    def every(forced, allowed):
        return [m for m in range(allowed + 1) if not (forced & ~m or m & ~allowed)]

    return [ContextFunction(masks) for masks in sorted(_walk(poset, variant, every))]


def sample_elements(
    poset: ContextPoset, variant: str, count: int, seed: int
) -> list[ContextFunction]:
    """Seeded random monotone elements: each context keeps its forced atoms
    and draws each other allowed atom, in ascending order, with chance 1/2."""
    rng = np.random.default_rng(seed)

    def draw(forced, allowed):
        free = allowed & ~forced
        return [forced | sum(1 << k for k in range(free.bit_length())
                             if free >> k & 1 and rng.random() < 0.5)]

    return [ContextFunction(_walk(poset, variant, draw)[0]) for _ in range(count)]


@dataclass(frozen=True)
class LawReport:
    variant: str
    element_count: int
    triples_checked: int
    exhaustive: bool
    violations: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return not self.violations


def _pair_laws_hold(poset: ContextPoset, variant: str, m, meet, arrow) -> bool:
    """Conditions (a), (b) and (c) of check_heyting_laws on every pair of
    the (E, C) elements m, given meet[s, t] = s & t and arrow[t, r] = t -> r."""

    def below(x, y):
        return not (x & ~y).any()

    if not below(m[:, None] & arrow, m):  # (a) t & (t -> r) <= r
        return False
    if not below(m[:, None], _arrow(poset, variant, m[None], meet)):  # (b) s <= t -> (s & t)
        return False
    holders = [m[(m[:, c] >> k & 1).astype(bool)]
               for c, ctx in enumerate(poset.contexts) for k in range(ctx.size)]
    generators = {tuple(np.bitwise_and.reduce(h).tolist()) for h in holders if len(h)}
    # (c) t -> r <= t -> (r | g), one generator at a time to keep E^2 C memory;
    # r | g is an element, so t -> (r | g) is a column of the arrow table
    index = {row: k for k, row in enumerate(map(tuple, m.tolist()))}

    def joined(g):
        return [index[row] for row in map(tuple, (m | np.array(g, dtype=m.dtype)).tolist())]

    return all(below(arrow, arrow[:, joined(g)]) for g in generators)


def check_heyting_laws(
    poset: ContextPoset,
    variant: str,
    exhaustive: bool = True,
    sample_count: int = 12,
    seed: int = 0,
) -> LawReport:
    """Verify lattice axioms, distributivity, the implication adjunction and
    closure of the monotone elements under join, meet and implication.

    The elements (all when exhaustive, else a seeded sample plus bottom and
    top) form an (E, C) mask array m, so join and meet are `|` and `&`,
    and the (E, E, C) arrow table is one _arrow call on m against itself
    (the elements are monotone by construction, so it checks no input).
    Idempotence is checked over E elements; commutativity, absorption and
    closure (monotonicity of join, meet and implication) over E x E pairs.
    triples_checked counts the E^3 triples on which both associativities,
    both distributivities and the adjunction s & t <= r <=> s <= (t -> r)
    are decided.

    On an exhaustive element set whose closure holds, the triple laws are
    decided on pairs. Associativity and distributivity are identities of
    pointwise `|` and `&`. Let g range over the generators, the least
    element holding a given atom bit (the meet of the elements holding it);
    every element r is the join of the generators of its bits. Then the
    adjunction holds on every triple iff, on every pair,
    (a) t & (t -> r) <= r,  (b) s <= t -> (s & t),  (c) t -> r <= t -> (r | g).
    If s & t <= r, r is s & t joined with generators one at a time, each
    step an element, so s <= t -> (s & t) <= t -> r by (b) and then (c)
    along that chain; if s <= t -> r, then s & t <= t & (t -> r) <= r by (a)
    (Heunen-Landsman-Spitters, Commun. Math. Phys. 291 (2009) 63; Johnstone,
    Stone Spaces (1982), I.1).

    A sample is not the whole lattice, so there, and whenever closure or a
    pair condition fails, the triples are checked one (E, E) comparison per
    s. Violations are listed by s, then law, then (t, r) (pairs by law,
    then (s, t), before the triples); the report keeps the first 16.
    """
    if exhaustive:
        elements = enumerate_elements(poset, variant)
    else:
        elements = sample_elements(poset, variant, sample_count, seed)
        elements.extend([bottom(poset), top(poset)])
        elements = list(dict.fromkeys(elements))

    m = np.array([el.masks for el in elements], dtype=poset.mask_dtype)
    arrow = _arrow(poset, variant, m[:, None], m)  # arrow[t, r] = t -> r
    join, meet = m[:, None] | m, m[:, None] & m  # join[t, r] = t | r
    closed = _monotone(poset, np.stack([join, meet, arrow]), variant).all(axis=0)
    violations: list[str] = []

    def equal(a, b):
        return (a == b).all(axis=-1)

    def note(law, holds, *fixed):
        for at in np.argwhere(~holds)[: 16 - len(violations)]:
            where = ", ".join(str(elements[k]) for k in (*fixed, *at))
            violations.append(f"{law} fails at {where}")

    note("idempotence", equal(m | m, m) & equal(m & m, m))
    note("commutativity", equal(join, join.swapaxes(0, 1)) & equal(meet, meet.swapaxes(0, 1)))
    note("absorption", equal(m[:, None] | meet, m[:, None]) & equal(m[:, None] & join, m[:, None]))
    note("closure", closed)
    if not (exhaustive and closed.all() and _pair_laws_hold(poset, variant, m, meet, arrow)):
        for s in range(len(elements)):
            note("join associativity", equal(m[s] | join, join[s, :, None] | m), s)
            note("meet associativity", equal(m[s] & meet, meet[s, :, None] & m), s)
            note("meet-over-join distributivity", equal(m[s] & join, meet[s, :, None] | meet[s]), s)
            note("join-over-meet distributivity", equal(m[s] | meet, join[s, :, None] & join[s]), s)
            adjoint = equal(m[s] & arrow, m[s])  # s <= (t -> r)
            note("adjunction", equal(meet[s, :, None] & m, meet[s, :, None]) == adjoint, s)
    return LawReport(
        variant=variant,
        element_count=len(elements),
        triples_checked=len(elements) ** 3,
        exhaustive=exhaustive,
        violations=tuple(violations),
    )


def popper_counterexample() -> dict:
    """The two-dimensional distributivity failure with its probabilities.

    With the diagonal subspace against a coordinate axis and the state on
    that axis, conjoining with the axis-or-complement disjunction keeps the
    full diagonal probability 1/2, while distributing first annihilates it.
    """
    e1 = np.array([1.0, 0.0], dtype=complex)
    f = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)
    a = Subspace.spanned_by(e1)
    b = Subspace.spanned_by(f)
    excluded_middle = ql_join(a, ql_ortho(a))
    undistributed = ql_meet(b, excluded_middle)
    distributed = ql_join(ql_meet(b, a), ql_meet(b, ql_ortho(a)))
    state = np.outer(e1, e1.conj())
    return {
        "p_undistributed": float(np.trace(state @ undistributed.projection).real),
        "p_distributed": float(np.trace(state @ distributed.projection).real),
        "undistributed_equals_b": undistributed.isclose(b),
        "distributed_rank": distributed.rank,
    }
