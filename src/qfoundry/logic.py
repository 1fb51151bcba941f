"""Subspace logic and context-indexed Heyting algebras.

Two structures are implemented: the lattice of closed subspaces with
span/intersection/orthocomplement connectives, and two lattices of
context-indexed projection assignments over a finite poset of abelian
algebras (one monotone along inclusion, one against it).  The poset is
built from which basis vectors share a ray, and everything else is exact:
inclusion and refinement follow from the ray ids, and within each context
an element is a bitmask over that context's atoms.  Floating point only
enters in deciding which vectors share a ray.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .exact import product_dtype
from .quantum import MAX_DIM, STRUCT_TOL, ProjectionOp, _as_matrix

CONTAINMENT_TOL = 1e-9
MAX_SUBSPACE_DIM = 4
MAX_EXHAUSTIVE_ELEMENTS = 512  # the law check holds (E, E, C) mask tables
MAX_POSET_BASES = 64  # inclusion is C x C, with C up to 1 + 5 * 64 at dim 4
TRIPLE_BLOCK = 1 << 14  # (s, t, r) triples per blocked triple-law test
GATHER_BLOCK = 1 << 18  # table lookups per block of a grouped reduction


def _range_basis(projection: np.ndarray) -> np.ndarray:
    values, vectors = np.linalg.eigh(projection)
    return vectors[:, values > 0.5]


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


class Context(NamedTuple):
    """A context of a ContextPoset: its name and its number of atoms."""

    name: str
    size: int


class _Gather(NamedTuple):
    """One table lookup per included (coarse, fine) pair: pair p maps the
    mask x of its source context (full[p]: all its atoms) to
    values[offset[p] + x].  Pairs are grouped by the context the values
    belong to; groups[c] is the first pair of context c's group."""

    source: np.ndarray
    full: np.ndarray
    offset: np.ndarray
    values: np.ndarray
    groups: np.ndarray


class ContextPoset:
    """The poset of the abelian algebras of orthonormal bases, ordered by
    inclusion, built from the ray ids of the bases' vectors alone.

    bases[b] holds the ray ids of basis b's vectors in atom order, one id
    per ray.  The contexts are the trivial algebra, then each basis's
    maximal algebra (basis{b}) and, in dimension >= 3, the two-atom algebra
    {P, 1 - P} of each of its rays (basis{b}:block{k}); an algebra met
    before is dropped, so the first copy wins.  Inclusion i <= j (every
    atom of context j lies below an atom of context i) is combinatorial,
    since a rank-one atom lies below another only on its own ray: the
    trivial context lies below every context, each context below itself,
    and the block of ray r below each basis holding r.

    On an included pair i <= j, the atom of context i above atom k of
    context j is k on a context's own pair, 0 from the trivial context, and
    from a block 0 for its ray's atom, else 1.  Two gather tables, built
    once from these maps over every included pair (each context's own pair
    among them), make lattice elements pure bitmask data:
    _expand maps each mask of the coarse context to its expansion into the
    fine context's atoms, grouped by the fine context; _restrict maps each
    mask of the fine context to the largest coarse mask whose expansion lies
    below it (from each coarse atom's expansion), grouped by the coarse
    context.  _order is a linear extension: contexts by their number of
    coarser contexts.
    """

    def __init__(self, bases: Sequence[Sequence[int]]) -> None:
        dim = len(bases[0])
        self.contexts = [Context("trivial", 1)]
        # key[c]: the ray ids of basis context c's atoms; a block's ray, repeated
        key, seen, block, below = [[-1] * dim], set(), {}, []
        for b, rays in enumerate(bases):
            if frozenset(rays) in seen:
                continue
            seen.add(frozenset(rays))
            at = len(self.contexts)
            self.contexts.append(Context(f"basis{b}", dim))
            key.append(list(rays))
            for k, ray in enumerate(rays if dim >= 3 else ()):
                if ray not in block:
                    block[ray] = len(self.contexts)
                    self.contexts.append(Context(f"basis{b}:block{k}", 2))
                    key.append([ray] * dim)
                below.append((block[ray], at))
        n = len(self.contexts)
        included = np.eye(n, dtype=bool)  # included[i, j]: context i lies below context j
        included[0] = True
        below = np.array(below, dtype=np.intp).reshape(-1, 2)
        included[below[:, 0], below[:, 1]] = True
        fine, coarse = np.nonzero(included.T)  # grouped by the fine context
        sizes = np.array([ctx.size for ctx in self.contexts])
        # parent[p, k]: the atom of pair p's coarse context above atom k of its fine one
        atom = np.arange(dim)
        key = np.array(key)
        parent = np.where((coarse == fine)[:, None], atom,
                          (coarse[:, None] > 0) & (key[fine] != key[coarse, :1]))
        # the narrowest unsigned dtype holding every mask; mask tables in it
        # move a fraction of the memory an int64 table would
        self.mask_dtype = np.min_scalar_type((1 << dim) - 1)
        self._full = ((1 << sizes) - 1).astype(self.mask_dtype)
        # every coarse mask x, expanded: bit k is bit parent[p, k] of x
        offset, pair, x = _blocks(coarse, sizes)
        bits = (x[:, None] >> parent[pair] & (atom < sizes[fine, None])[pair]) << atom
        subs = np.bincount(fine, minlength=n)  # each context's coarser contexts, itself among them
        self._expand = _Gather(coarse, self._full[coarse], offset, np.bitwise_or.reduce(
            bits, axis=1).astype(self.mask_dtype), np.cumsum(subs) - subs)
        # every fine mask y, restricted: bit k is set when the expansion of
        # coarse atom k (a single-atom mask) lies in y
        by_coarse = np.argsort(coarse, kind="stable")
        fine, coarse = fine[by_coarse], coarse[by_coarse]
        coarse_atom = atom < sizes[coarse, None]
        single = self._expand.values[offset[by_coarse, None] + (coarse_atom << atom)]
        offset, pair, y = _blocks(fine, sizes)
        bits = ((single[pair] & ~y[:, None] == 0) & coarse_atom[pair]) << atom
        supers = np.bincount(coarse, minlength=n)
        self._restrict = _Gather(fine, self._full[fine], offset, np.bitwise_or.reduce(
            bits, axis=1).astype(self.mask_dtype), np.cumsum(supers) - supers)
        self._order = np.argsort(subs, kind="stable")

    def full_mask(self, i: int) -> int:
        return int(self._full[i])


def _blocks(source: np.ndarray, sizes: np.ndarray):
    """(offset, pair, mask) of a gather table read from the source contexts:
    pair p's block starts at offset[p] and holds one row per mask of its
    source context; pair and mask label every row."""
    lengths = 1 << sizes[source]
    offset = np.cumsum(lengths) - lengths
    pair = np.repeat(np.arange(len(source)), lengths)
    return offset, pair, np.arange(len(pair)) - offset[pair]


def poset_from_bases(bases: Sequence[np.ndarray]) -> ContextPoset:
    """The ContextPoset of a list of orthonormal bases of C^d (rows are
    vectors, 2 <= d <= MAX_DIM), its contexts named after the bases.

    Floating point enters only here, in deciding which vectors share a ray:
    v and w do when sin(v, w) = ||w - v <v, w>|| <= CONTAINMENT_TOL, which
    for their rank-one projections is norm(P_v Q_w - Q_w, 2) <=
    CONTAINMENT_TOL.  Only pairs with |<v, w>|^2 > 1/2 can share a ray, so
    only they take the norm (and never as 1 - |<v, w>|^2, which cancellation
    leaves ~1e-16 from 0 on one ray, a sine of ~1e-8).  Vectors take ray
    ids in order: a vector joins the first earlier vector that has its own
    index as id and shares its ray, else keeps its own index, so the first
    copy of a ray wins as for the algebras; a vector within the tolerance of
    two distinct rays, which leaves a shared pair with two ray ids, is refused.
    """
    if len(bases) == 0:
        raise ValueError("no bases given")
    shapes = {np.shape(basis) for basis in bases}
    if any(len(shape) != 2 or shape[0] != shape[1] for shape in shapes):
        raise ValueError("each basis must be a square array of its vectors")
    if len(shapes) > 1:
        raise ValueError("bases must all have the same dimension")
    vectors = np.array(bases, dtype=complex)
    dim = vectors.shape[1]
    if not 2 <= dim <= MAX_DIM:
        raise ValueError(f"bases must have dimension 2 to {MAX_DIM}")
    if not np.isfinite(vectors).all():
        raise ValueError("basis entries must be finite")
    if np.abs(vectors @ vectors.conj().swapaxes(1, 2) - np.eye(dim)).max() > STRUCT_TOL:
        raise ValueError("bases must be orthonormal within 1e-10")
    flat = vectors.reshape(-1, dim)
    overlap = flat.conj() @ flat.T  # overlap[a, b] = <v_a, v_b>
    a, b = np.nonzero(np.triu(abs(overlap) ** 2 > 0.5, 1))  # by a, then b
    shared = np.linalg.norm(flat[b] - flat[a] * overlap[a, b, None], axis=1) <= CONTAINMENT_TOL
    ray = list(range(len(flat)))
    for first, later in zip(a[shared].tolist(), b[shared].tolist()):
        # ray[first] is settled: its pairs with earlier vectors came before
        if ray[first] == first and ray[later] == later:
            ray[later] = first
        elif ray[first] != ray[later]:
            raise ValueError("a vector lies within CONTAINMENT_TOL of two distinct rays")
    return ContextPoset([ray[k : k + dim] for k in range(0, len(ray), dim)])


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


def _check_variant(variant: str) -> None:
    if variant not in (VARIANT_DOWN, VARIANT_UP):
        raise ValueError(f"unknown variant {variant!r}")


def _lookup(table: _Gather, cols, pairs=slice(None)) -> np.ndarray:
    """(P, R): the table's value for each of its pairs and each mask row of
    the context-major (C, R) int mask array cols, read at the mask of the
    pair's source context; bits past a context's atoms are ignored."""
    return table.values[table.offset[pairs, None]
                        + (cols[table.source[pairs]] & table.full[pairs, None])]


def _grouped(poset: ContextPoset, table: _Gather, ufunc, cols) -> np.ndarray:
    """(C, R): ufunc (np.bitwise_and or np.bitwise_or) reduced over each context's
    group of the table's lookups for the (C, R) mask array cols.

    A bitwise reduction acts on each bit alone, so the lookups of several
    mask rows are packed into one 64-bit word, and reduceat runs over words;
    columns go in blocks of at most GATHER_BLOCK lookups."""
    lanes = 8 // poset.mask_dtype.itemsize
    step = max(lanes, GATHER_BLOCK // len(table.source) // lanes * lanes)
    out = np.empty((len(poset.contexts), cols.shape[1]), dtype=poset.mask_dtype)
    for lo in range(0, cols.shape[1], step):
        block = cols[:, lo : lo + step]
        width = block.shape[1]
        values = np.zeros((len(table.source), -(-width // lanes) * lanes), dtype=poset.mask_dtype)
        values[:, :width] = _lookup(table, block)
        words = ufunc.reduceat(values.view(np.uint64), table.groups)
        out[:, lo : lo + width] = words.view(poset.mask_dtype)[:, :width]
    return out


def _initial(poset: ContextPoset, variant: str) -> "ContextFunction":
    """The walk's starting masks, which a context's own pair leaves neutral."""
    return top(poset) if variant == VARIANT_DOWN else bottom(poset)


class ExhaustiveLimitError(ValueError):
    """More monotone elements than exhaustive checking takes."""


def _walk(poset: ContextPoset, variant: str) -> np.ndarray:
    """Every monotone mask row, filled coarse to fine along the linear
    extension: each context takes every mask between the bounds its coarser
    contexts set, for all rows at once.

    Every context offers at least one mask, so the count of rows never
    falls: the walk refuses as soon as it passes MAX_EXHAUSTIVE_ELEMENTS."""
    _check_variant(variant)
    rows = np.array([_initial(poset, variant).masks], dtype=poset.mask_dtype)
    groups = np.append(poset._expand.groups, len(poset._expand.source)).tolist()
    for i in poset._order.tolist():
        expanded = _lookup(poset._expand, rows.T, slice(groups[i], groups[i + 1]))
        masks = np.arange(poset.full_mask(i) + 1, dtype=poset.mask_dtype)
        if variant == VARIANT_DOWN:  # below the meet of the coarser masks
            fits = masks & ~np.bitwise_and.reduce(expanded)[:, None] == 0
        else:  # above their join
            fits = ~masks & np.bitwise_or.reduce(expanded)[:, None] == 0
        which, chosen = np.nonzero(fits)
        if len(which) > MAX_EXHAUSTIVE_ELEMENTS:
            raise ExhaustiveLimitError(
                f"poset has more than {MAX_EXHAUSTIVE_ELEMENTS} monotone {variant} "
                f"elements, the exhaustive limit"
            )
        rows = rows[which]
        rows[:, i] = masks[chosen]
    return rows


def _monotone(poset: ContextPoset, m: np.ndarray, variant: str) -> np.ndarray:
    """is_monotone of every row of a (..., C) int mask array.

    A context's own pair expands its mask to itself (within its atoms), so
    with it among the coarser pairs, m is l3-monotone at c iff
    m[c] & AND(expansions) == m[c], and l2-monotone iff
    (m[c] | OR(expansions)) & full == m[c]."""
    return _monotone_columns(poset, m.reshape(-1, m.shape[-1]).T, variant).reshape(m.shape[:-1])


def _monotone_columns(poset: ContextPoset, cols, variant: str) -> np.ndarray:
    """(R,): _monotone of each column of a context-major (C, R) mask array."""
    _check_variant(variant)
    if variant == VARIANT_DOWN:
        holds = cols & _grouped(poset, poset._expand, np.bitwise_and, cols) == cols
    else:
        holds = (cols | _grouped(poset, poset._expand, np.bitwise_or, cols)) \
            & poset._full[:, None] == cols
    return holds.all(axis=0)


def is_monotone(poset: ContextPoset, element: ContextFunction, variant: str) -> bool:
    return bool(_monotone(poset, np.array(element.masks), variant))


def bottom(poset: ContextPoset) -> ContextFunction:
    return ContextFunction([0] * len(poset.contexts))


def top(poset: ContextPoset) -> ContextFunction:
    return ContextFunction(poset._full.tolist())


def _require_monotone(poset, elements, variant):
    for el in elements:
        if not is_monotone(poset, el, variant):
            raise ValueError(f"element {el} violates {variant} monotonicity")


def _arrow(poset: ContextPoset, variant: str, a, b) -> np.ndarray:
    """The implication a -> b of (..., C) int mask arrays that broadcast
    together, from the complement-join t = ~a | b at each context."""
    _check_variant(variant)
    t = (poset._full & ~a) | b
    # l3: the meet of t's expansions from the coarser contexts; l2: the meet of
    # t's restrictions from the finer contexts; c's own t among them
    table = poset._expand if variant == VARIANT_DOWN else poset._restrict
    arrow = _grouped(poset, table, np.bitwise_and, t.reshape(-1, t.shape[-1]).T)
    return arrow.T.reshape(t.shape).astype(np.result_type(a, b), copy=False)


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
    return [ContextFunction(masks) for masks in sorted(_walk(poset, variant).tolist())]


def sample_elements(
    poset: ContextPoset, variant: str, count: int, seed: int
) -> list[ContextFunction]:
    """Seeded random monotone elements, each filled along the walk's linear
    extension: each context keeps its forced atoms and draws each other
    allowed atom, in ascending order, with chance 1/2.

    A sample draws at most one number per atom, so all the draws are taken
    at once; rng.random(n) is the stream of n rng.random() calls."""
    _check_variant(variant)
    draws = iter(np.random.default_rng(seed).random(
        count * sum(ctx.size for ctx in poset.contexts)).tolist())
    table = poset._expand
    values, offset, coarse, full = (a.tolist() for a in (table.values, table.offset,
                                                         table.source, poset._full))
    groups = np.append(table.groups, len(coarse)).tolist()
    steps = [(i, full[i], [(offset[p], coarse[p]) for p in range(groups[i], groups[i + 1])])
             for i in poset._order.tolist()]
    meet = variant == VARIANT_DOWN
    initial = _initial(poset, variant).masks
    elements = []
    for _ in range(count):
        masks = list(initial)
        for i, full_i, pairs in steps:
            # l3: any atoms below the meet of the coarser masks; l2: the atoms of
            # their join and any others (the masks so far lie within their atoms)
            bound = full_i if meet else 0
            for at, d in pairs:
                if meet:
                    bound &= values[at + masks[d]]
                else:
                    bound |= values[at + masks[d]]
            mask, free = (0, bound) if meet else (bound, full_i & ~bound)
            bit = 1
            while bit <= free:
                if free & bit and next(draws) < 0.5:
                    mask |= bit
                bit <<= 1
            masks[i] = mask
        elements.append(ContextFunction(masks))
    return elements


TRIPLE_LAWS = ("join associativity", "meet associativity", "meet-over-join distributivity",
               "join-over-meet distributivity", "adjunction")


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


def _pair_laws_hold(poset: ContextPoset, m, meet, arrow) -> bool:
    """Conditions (a), (b) and (c) of check_heyting_laws on every pair of
    the exhaustive elements, given as context-major tables: m[:, s] is
    element s, in lexicographic order, meet[:, s, t] = s & t and
    arrow[:, t, r] = t -> r.  Closure holds, so s & t and r | g are
    elements, and their implications are columns of the arrow table, found
    by the mixed-radix number of each mask tuple, which orders them as m.
    Every partial sum of a number is below the product of the radices, and
    the numbers run on the `product_dtype` of that bound."""

    def below(x, y):
        return not (x & ~y).any()

    radix = [int(full) + 1 for full in poset._full]
    weights = np.array([math.prod(radix[c + 1 :]) for c in range(len(radix))],
                       dtype=product_dtype(math.prod(radix)))
    keys = weights @ m

    def position(rows):  # the columns of m holding the (C, ...) element masks rows
        return np.searchsorted(keys, (rows.T @ weights).T)

    if not below(m[:, :, None] & arrow, m[:, None]):  # (a) t & (t -> r) <= r
        return False
    # (b) s <= t -> (s & t)
    if not below(m[:, :, None], arrow[:, np.arange(m.shape[1]), position(meet)]):
        return False
    # the generators: for each atom some element holds, the meet of the elements
    # holding it (holds[c, k, e]: element e holds atom k of context c)
    bits = np.arange(int(poset._full.max()).bit_length())[:, None]
    holds = (m[:, None] >> bits & 1).astype(bool)
    # meets[d, c, k]: the generator's mask at context d
    meets = np.bitwise_and.reduce(
        np.where(holds, m[:, None, None], poset._full[:, None, None, None]), axis=-1)
    generators = m[:, list(dict.fromkeys(position(meets[:, holds.any(axis=-1)]).tolist()))]
    # (c) t -> r <= t -> (r | g), for a block of generators at a time (at most
    # TRIPLE_BLOCK (g, t, r) triples)
    joined = position(m[:, None] | generators[:, :, None])  # joined[g, r]: r | g
    step = max(1, TRIPLE_BLOCK // m.shape[1] ** 2)
    return all(below(arrow[:, :, None], arrow[:, :, joined[lo : lo + step]])
               for lo in range(0, len(joined), step))


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
    top) form a context-major (C, E) mask array m, so join and meet are `|`
    and `&`, and the (C, E, E) arrow table is one _arrow call on m against
    itself (the elements are monotone by construction, so it checks no
    input).
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
    pair condition fails, the triples are checked directly, for a block of
    s values at a time (at most TRIPLE_BLOCK triples). Violations are listed
    by s, then law, then (t, r) (pairs by law, then (s, t), before the
    triples); the report keeps the first 16.
    """
    if exhaustive:
        elements = enumerate_elements(poset, variant)
    else:
        elements = sample_elements(poset, variant, sample_count, seed)
        elements.extend([bottom(poset), top(poset)])
        elements = list(dict.fromkeys(elements))

    # context-major tables: m[:, s] is element s, and two masks are the same
    # element when they agree along axis 0
    m = np.array([el.masks for el in elements], dtype=poset.mask_dtype).T
    arrow = np.moveaxis(_arrow(poset, variant, m.T[:, None], m.T), -1, 0)  # arrow[:, t, r] = t -> r
    join, meet = m[:, :, None] | m[:, None], m[:, :, None] & m[:, None]  # join[:, t, r] = t | r
    closed = _monotone_columns(poset, np.stack([join, meet, arrow], axis=1).reshape(len(m), -1),
                               variant).reshape(3, -1, m.shape[1]).all(axis=0)
    violations: list[str] = []

    def equal(a, b):
        return (a == b).all(axis=0)

    def note(law, agree, *fixed):  # agree: a (C, ...) comparison, failing where a context differs
        if agree.all():
            return
        for at in np.argwhere(~agree.all(axis=0))[: 16 - len(violations)]:
            where = ", ".join(str(elements[k]) for k in (*fixed, *at))
            violations.append(f"{law} fails at {where}")

    s, r = m[:, :, None], m[:, None, None]  # s along axis 1, r along the last one
    note("idempotence", ((m | m) == m) & ((m & m) == m))
    note("commutativity", (join == join.swapaxes(1, 2)) & (meet == meet.swapaxes(1, 2)))
    note("absorption", ((s | meet) == s) & ((s & join) == s))
    note("closure", closed[None])
    if not (exhaustive and closed.all() and _pair_laws_hold(poset, m, meet, arrow)):
        # the five triple laws for a block of s at once, holds[s, law, t, r]
        step = max(1, TRIPLE_BLOCK // len(elements) ** 2)
        for lo in range(0, len(elements), step):
            if len(violations) == 16:
                break
            block = slice(lo, lo + step)
            s = m[:, block, None, None]
            s_meet, s_join = meet[:, block, :, None], join[:, block, :, None]  # s & t, s | t
            holds = np.stack([
                equal(s | join[:, None], s_join | r),
                equal(s & meet[:, None], s_meet & r),
                equal(s & join[:, None], s_meet | meet[:, block, None]),
                equal(s | meet[:, None], s_join & join[:, block, None]),
                # the adjunction: s & t <= r exactly when s <= (t -> r)
                equal(s_meet & r, s_meet) == equal(s & arrow[:, None], s),
            ], axis=1)
            for k, law, t, at_r in np.argwhere(~holds)[: 16 - len(violations)]:
                violations.append(f"{TRIPLE_LAWS[law]} fails at "
                                  f"{elements[lo + k]}, {elements[t]}, {elements[at_r]}")
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
