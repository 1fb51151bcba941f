"""Subspace lattice, union lattice, and context-function Heyting algebras."""

import math
from functools import lru_cache, reduce
from itertools import product
from operator import or_

import numpy as np
import pytest

from qfoundry import logic


@pytest.fixture(scope="module")
def m2_poset():
    b0 = np.eye(2, dtype=complex)
    b1 = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
    return logic.poset_from_bases([b0, b1])


@lru_cache(maxsize=8)
def _expansions(poset):
    """({(i, j): offset} over every included pair i <= j, values): context
    i's mask x expands into context j's atoms as values[offset + x], read
    from the poset's expand table."""
    table = poset._expand
    fine = np.searchsorted(table.groups, np.arange(len(table.source)), side="right") - 1
    offsets = dict(zip(zip(table.source.tolist(), fine.tolist()), table.offset.tolist()))
    return offsets, table.values.tolist()


def _subs(poset, j):
    """Contexts included in context j (j among them), ascending."""
    return tuple(i for i in range(len(poset.contexts)) if (i, j) in _expansions(poset)[0])


def _supers(poset, i):
    """Contexts that include context i (i among them), ascending."""
    return tuple(j for j in range(len(poset.contexts)) if (i, j) in _expansions(poset)[0])


def _contained(p, q):
    """Subspace p lies within subspace q: norm(Q P - P, 2) <= CONTAINMENT_TOL."""
    return np.linalg.norm(q.projection @ p.projection - p.projection, 2) <= logic.CONTAINMENT_TOL


def _random_subspace(rng, dim):
    rank = int(rng.integers(0, dim + 1))
    if rank == 0:
        return logic.Subspace(np.zeros((dim, dim)))
    raw = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    q, _ = np.linalg.qr(raw)
    return logic.Subspace(q @ q.conj().T)


def test_meet_with_complement_is_zero():
    rng = np.random.default_rng(1)
    for dim in (2, 3, 4):
        s = _random_subspace(rng, dim)
        met = logic.ql_meet(s, logic.ql_ortho(s))
        assert met.rank == 0


def test_join_of_axes_is_full():
    e1 = logic.Subspace.spanned_by([1, 0])
    e2 = logic.Subspace.spanned_by([0, 1])
    assert logic.ql_join(e1, e2).isclose(logic.Subspace(np.eye(2)))
    assert logic.ql_meet(e1, e2).rank == 0


def test_popper_distributivity_failure():
    out = logic.popper_counterexample()
    assert out["undistributed_equals_b"]
    assert out["distributed_rank"] == 0
    assert out["p_undistributed"] == pytest.approx(0.5, abs=1e-12)
    assert out["p_distributed"] == pytest.approx(0.0, abs=1e-12)


def test_orthomodular_law_random_pairs():
    rng = np.random.default_rng(3)
    for dim in (2, 3, 4):
        for _ in range(30):
            q = _random_subspace(rng, dim)
            # carve a random subspace of q so that p <= q
            basis = np.linalg.eigh(q.projection)[1][:, np.linalg.eigvalsh(q.projection) > 0.5]
            if basis.shape[1] == 0:
                continue
            keep = int(rng.integers(0, basis.shape[1] + 1))
            p = logic.Subspace(basis[:, :keep] @ basis[:, :keep].conj().T)
            assert _contained(p, q)
            # orthomodularity: P <= Q implies Q = P v (Q ^ not-P)
            assert logic.ql_join(p, logic.ql_meet(q, logic.ql_ortho(p))).isclose(q)


# An element of the union lattice is a finite union of closed subspaces,
# held here as the list of its components; its double negation is the
# smallest closed subspace containing the union, their ql_join.


def test_l1_single_subspace_regular():
    s = logic.Subspace.spanned_by([1, 0])
    assert logic.ql_join(s).isclose(s)


def test_l1_two_axes_not_regular():
    e1 = logic.Subspace.spanned_by([1.0, 0.0])
    e2 = logic.Subspace.spanned_by([0.0, 1.0])
    element = [e1, e2]
    closure = logic.ql_join(*element)
    assert closure.isclose(logic.Subspace(np.eye(2)))
    # the union itself is not the full space: it misses (1,1)
    diag = np.array([1.0, 1.0]) / math.sqrt(2)
    in_union = any(
        np.allclose(k.projection @ diag, diag, atol=1e-9) for k in element
    )
    assert not in_union


def test_l1_zero_element():
    assert logic.ql_join(logic.Subspace(np.zeros((2, 2)))).rank == 0


def test_l1_double_negation_minimality():
    rng = np.random.default_rng(9)
    components = [_random_subspace(rng, 3) for _ in range(3)]
    closure = logic.ql_join(*components)
    for k in components:
        assert _contained(k, closure)
    # minimal: any other upper bound built from joins contains the closure
    for subset in product([0, 1], repeat=3):
        if not any(subset):
            continue
        chosen = [c for c, flag in zip(components, subset) if flag]
        bound = logic.ql_join(*chosen, closure)
        assert _contained(closure, bound)


def test_poset_structure(m2_poset):
    assert len(m2_poset.contexts) == 3
    assert m2_poset.contexts[0].name == "trivial"
    assert _supers(m2_poset, 0) == (0, 1, 2)
    assert _supers(m2_poset, 1) == (1,)
    assert _supers(m2_poset, 2) == (2,)


def test_poset_dim3_intermediates():
    rng = np.random.default_rng(15)
    raw = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    q, _ = np.linalg.qr(raw)
    poset = logic.poset_from_bases([q.T])
    # trivial, the maximal algebra, and three two-block intermediates
    assert len(poset.contexts) == 5
    maximal = 1
    for i in range(2, 5):
        assert maximal in _supers(poset, i)
        assert i in _supers(poset, 0)


# the lattice operations on elements are |, & and & ~ on each context's mask


def _join(a, b):
    return logic.ContextFunction([x | y for x, y in zip(a.masks, b.masks)])


def _meet(a, b):
    return logic.ContextFunction([x & y for x, y in zip(a.masks, b.masks)])


def _leq(a, b):
    return all(x & ~y == 0 for x, y in zip(a.masks, b.masks))


def test_l3_element_count(m2_poset):
    elements = logic.enumerate_elements(m2_poset, "l3")
    assert len(elements) == 17  # 1 + 4*4 once the trivial value is fixed


def test_l3_exhaustive_laws(m2_poset):
    report = logic.check_heyting_laws(m2_poset, "l3", exhaustive=True)
    assert report.passed
    assert report.element_count == 17
    assert report.triples_checked == 17**3


def test_l3_negation_collapse(m2_poset):
    elements = logic.enumerate_elements(m2_poset, "l3")
    bot, top = logic.bottom(m2_poset), logic.top(m2_poset)
    for el in elements:
        negated = logic.l3_negation(m2_poset, el)
        assert negated == (top if el == bot else bot)


def test_l3_self_implication_is_top(m2_poset):
    for el in logic.enumerate_elements(m2_poset, "l3"):
        assert logic.l3_implication(m2_poset, el, el) == logic.top(m2_poset)


def test_l3_embedding(m2_poset):
    # a projection P embeds as P where a context holds it and the identity
    # elsewhere: here diag(1, 0), atom 0 of basis0, the rows of the identity
    assert m2_poset.contexts[1] == logic.Context("basis0", 2)
    assert logic.is_monotone(m2_poset, logic.ContextFunction([1, 0b01, 0b11]), "l3")


def test_l3_ops_preserve_monotonicity(m2_poset):
    elements = logic.enumerate_elements(m2_poset, "l3")
    for s, t in product(elements[:8], elements[:8]):
        assert logic.is_monotone(m2_poset, _join(s, t), "l3")
        assert logic.is_monotone(m2_poset, _meet(s, t), "l3")
        assert logic.is_monotone(m2_poset, logic.l3_implication(m2_poset, s, t), "l3")


def test_l3_rejects_non_monotone_input(m2_poset):
    bad = logic.ContextFunction((0, 3, 0))  # trivial says bottom, basis says top
    assert not logic.is_monotone(m2_poset, bad, "l3")
    with pytest.raises(ValueError):
        logic.l3_implication(m2_poset, bad, logic.bottom(m2_poset))


def test_l2_rejects_non_monotone_input(m2_poset):
    bad = logic.ContextFunction((1, 0, 3))  # trivial says top, basis says bottom
    assert not logic.is_monotone(m2_poset, bad, "l2")
    with pytest.raises(ValueError, match="violates l2 monotonicity"):
        logic.l2_implication(m2_poset, bad, logic.top(m2_poset))


def test_l2_exhaustive_laws(m2_poset):
    report = logic.check_heyting_laws(m2_poset, "l2", exhaustive=True)
    assert report.passed


def test_l2_top_implication_identity(m2_poset):
    top = logic.top(m2_poset)
    for el in logic.enumerate_elements(m2_poset, "l2"):
        assert logic.l2_implication(m2_poset, top, el) == el


def test_l2_implication_is_greatest(m2_poset):
    elements = logic.enumerate_elements(m2_poset, "l2")
    for s1, s2 in product(elements[:10], elements[:10]):
        arrow = logic.l2_implication(m2_poset, s1, s2)
        assert _leq(_meet(arrow, s1), s2)
        for candidate in elements:
            if _leq(_meet(candidate, s1), s2):
                assert _leq(candidate, arrow)


def test_l2_forced_zero_at_trivial_context(m2_poset):
    # any upward-monotone element whose maximal-context value is a single
    # atom must vanish on the trivial context
    for el in logic.enumerate_elements(m2_poset, "l2"):
        if el.masks[1] in (1, 2):
            assert el.masks[0] == 0


def test_sampled_elements_are_monotone(m2_poset):
    for variant in ("l3", "l2"):
        for el in logic.sample_elements(m2_poset, variant, 25, seed=4):
            assert logic.is_monotone(m2_poset, el, variant)


def test_dim3_l3_sampled_laws():
    rng = np.random.default_rng(15)
    raw = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    q1, _ = np.linalg.qr(raw)
    raw = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    q2, _ = np.linalg.qr(raw)
    poset = logic.poset_from_bases([q1.T, q2.T])
    report = logic.check_heyting_laws(poset, "l3", exhaustive=False, sample_count=8, seed=2)
    assert report.passed


# Reference versions of the poset build, the element enumeration, the
# sampler and the law checker as one loop per pair of atoms, candidate,
# element and triple, kept to pin down the mask-array implementations.


def _svd_containment(above, below):
    """Reference: [b, a] says whether atom a of below lies below atom b of
    above, by the operator norm of P_b Q_a - Q_a, from an SVD."""
    norms = np.linalg.norm(above[:, None] @ below - below, 2, axis=(-2, -1))
    return norms <= logic.CONTAINMENT_TOL


def _named_atoms(bases, name):
    """The projections a context name of poset_from_bases stands for."""
    dim = len(bases[0])
    if name == "trivial":
        return np.eye(dim, dtype=complex)[None]
    b, _, k = name.removeprefix("basis").partition(":block")
    basis = np.asarray(bases[int(b)], dtype=complex)
    atoms = basis[:, :, None] * basis[:, None].conj()
    return np.array([atoms[int(k)], np.eye(dim) - atoms[int(k)]]) if k else atoms


def _reference_refine(bases, coarse, fine):
    """The first atom of the coarse context above each atom of the fine one,
    or None, from the SVD containment of every pair of their atoms."""
    above, below = _named_atoms(bases, coarse), _named_atoms(bases, fine)
    leq = _svd_containment(above, below)
    return leq.argmax(axis=0).tolist() if leq.any(axis=0).all() else None


def _reference_names(bases):
    """The contexts poset_from_bases keeps: trivial, then each basis and, in
    dim >= 3, each of its blocks, unless an earlier kept context is the same
    algebra (included both ways)."""
    dim, names = len(bases[0]), ["trivial"]
    for b in range(len(bases)):
        for name in [f"basis{b}", *(f"basis{b}:block{k}" for k in range(dim) if dim >= 3)]:
            if not any(_reference_refine(bases, name, kept) is not None
                       and _reference_refine(bases, kept, name) is not None for kept in names):
                names.append(name)
    return names


def _reference_expand(poset, i, j, mask):
    """Context i's mask in context j's atoms: the union of its atoms' expansions."""
    offsets, values = _expansions(poset)
    at = offsets[i, j]
    return reduce(or_, (values[at + (1 << k)] for k in range(poset.contexts[i].size)
                        if mask >> k & 1), 0)


def _reference_is_monotone(poset, masks, variant):
    for i, j in _expansions(poset)[0]:
        if i == j:
            continue
        coarse_in_fine = _reference_expand(poset, i, j, masks[i])
        if variant == "l3" and masks[j] & ~coarse_in_fine:
            return False
        if variant == "l2" and coarse_in_fine & ~masks[j]:
            return False
    return True


def _reference_enumerate(poset, variant):
    sizes = [1 << ctx.size for ctx in poset.contexts]
    return [
        logic.ContextFunction(masks)
        for masks in product(*(range(s) for s in sizes))
        if _reference_is_monotone(poset, masks, variant)
    ]


def _reference_sample(poset, variant, count, seed):
    rng = np.random.default_rng(seed)
    order = sorted(range(len(poset.contexts)), key=lambda i: len(_subs(poset, i)))
    out = []
    for _ in range(count):
        masks = [0] * len(poset.contexts)
        for i in order:
            coarser = [_reference_expand(poset, d, i, masks[d])
                       for d in _subs(poset, i) if d != i]
            if variant == "l3":
                allowed = poset.full_mask(i)
                for c in coarser:
                    allowed &= c
                masks[i] = 0
                for k in range(poset.contexts[i].size):
                    if allowed >> k & 1 and rng.random() < 0.5:
                        masks[i] |= 1 << k
            else:
                masks[i] = 0
                for c in coarser:
                    masks[i] |= c
                for k in range(poset.contexts[i].size):
                    if not masks[i] >> k & 1 and rng.random() < 0.5:
                        masks[i] |= 1 << k
        out.append(logic.ContextFunction(masks))
    return out


def _reference_check(poset, variant):
    join, meet, leq = _join, _meet, _leq
    elements = _reference_enumerate(poset, variant)
    implication = logic.l3_implication if variant == "l3" else logic.l2_implication
    arrows = {(t, r): implication(poset, t, r) for t, r in product(elements, repeat=2)}
    violations = []
    for s in elements:
        if join(s, s) != s or meet(s, s) != s:
            violations.append(f"idempotence fails at {s}")
    for s, t in product(elements, repeat=2):
        if join(s, t) != join(t, s) or meet(s, t) != meet(t, s):
            violations.append(f"commutativity fails at {s}, {t}")
        if join(s, meet(s, t)) != s or meet(s, join(s, t)) != s:
            violations.append(f"absorption fails at {s}, {t}")
    checked = 0
    for s, t, r in product(elements, repeat=3):
        checked += 1
        if join(s, join(t, r)) != join(join(s, t), r):
            violations.append(f"join associativity fails at {s}, {t}, {r}")
        if meet(s, meet(t, r)) != meet(meet(s, t), r):
            violations.append(f"meet associativity fails at {s}, {t}, {r}")
        if meet(s, join(t, r)) != join(meet(s, t), meet(s, r)):
            violations.append(f"meet-over-join distributivity fails at {s}, {t}, {r}")
        if join(s, meet(t, r)) != meet(join(s, t), join(s, r)):
            violations.append(f"join-over-meet distributivity fails at {s}, {t}, {r}")
        if leq(meet(s, t), r) != leq(s, arrows[t, r]):
            violations.append(f"adjunction fails at {s}, {t}, {r}")
    return len(elements), checked, tuple(violations[:16])


def _reference_check_by_s(poset, variant, elements=None):
    """_reference_check with the triples taken one s at a time over the
    (t, r) grid and the arrows from one table, fast enough for E = 96; the
    same laws on every triple, violations in the same (s, t, r, law) order."""
    join, meet = _join, _meet
    if elements is None:
        elements = _reference_enumerate(poset, variant)
    violations = []
    for s in elements:
        if join(s, s) != s or meet(s, s) != s:
            violations.append(f"idempotence fails at {s}")
    for s, t in product(elements, repeat=2):
        if join(s, t) != join(t, s) or meet(s, t) != meet(t, s):
            violations.append(f"commutativity fails at {s}, {t}")
        if join(s, meet(s, t)) != s or meet(s, join(s, t)) != s:
            violations.append(f"absorption fails at {s}, {t}")
    laws = ("join associativity", "meet associativity", "meet-over-join distributivity",
            "join-over-meet distributivity", "adjunction")
    m = np.array([el.masks for el in elements])
    arrow = logic._arrow(poset, variant, m[:, None], m)  # arrow[t, r] = t -> r
    t, r = m[:, None], m[None]

    def equal(a, b):
        return (a == b).all(axis=-1)

    def below(a, b):
        return (a & ~b == 0).all(axis=-1)

    for i, s in enumerate(m):
        holds = np.stack([
            equal(s | (t | r), (s | t) | r),
            equal(s & (t & r), (s & t) & r),
            equal(s & (t | r), (s & t) | (s & r)),
            equal(s | (t & r), (s | t) & (s | r)),
            below(s & t, r) == below(s, arrow),
        ], axis=-1)
        for j, k, law in np.argwhere(~holds):
            violations.append(f"{laws[law]} fails at {elements[i]}, {elements[j]}, {elements[k]}")
    return len(elements), len(elements) ** 3, tuple(violations[:16])


def _unitary(rng, dim):
    raw = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return np.linalg.qr(raw)[0].T


def _random_bases(seed, dim, count):
    rng = np.random.default_rng(seed)
    return [_unitary(rng, dim) for _ in range(count)]


@pytest.mark.parametrize("variant", ["l2", "l3"])
def test_law_report_matches_per_triple_reference(m2_poset, variant):
    report = logic.check_heyting_laws(m2_poset, variant, exhaustive=True)
    count, checked, violations = _reference_check(m2_poset, variant)
    assert (report.element_count, report.triples_checked) == (count, checked)
    assert report.passed and not violations


@pytest.mark.parametrize("variant", ["l2", "l3"])
def test_broken_adjunction_matches_per_triple_reference(m2_poset, variant, monkeypatch):
    # top is monotone, so only the adjunction fails, in the same order
    def arrow(poset, _variant, a, b):
        return np.broadcast_to(logic.top(poset).masks, np.broadcast(a, b).shape)

    monkeypatch.setattr(logic, "_arrow", arrow)
    report = logic.check_heyting_laws(m2_poset, variant, exhaustive=True)
    count, checked, violations = _reference_check(m2_poset, variant)
    assert (report.element_count, report.triples_checked) == (count, checked)
    assert len(report.violations) == 16
    assert report.violations == violations


@pytest.mark.parametrize("dim, count", [(2, 1), (2, 2), (2, 3), (3, 1)])
@pytest.mark.parametrize("variant", ["l2", "l3"])
def test_enumeration_matches_product_filter(dim, count, variant):
    poset = logic.poset_from_bases(_random_bases(dim + count, dim, count))
    assert logic.enumerate_elements(poset, variant) == _reference_enumerate(poset, variant)


def _reference_implication(poset, variant, s1, s2):
    full = [poset.full_mask(d) for d in range(len(poset.contexts))]
    target = [(f & ~a) | b for f, a, b in zip(full, s1.masks, s2.masks)]
    masks = []
    for c, ctx in enumerate(poset.contexts):
        if variant == "l3":
            acc = full[c]
            for d in _subs(poset, c):
                acc &= _reference_expand(poset, d, c, target[d])
            masks.append(acc)
        else:
            masks.append(sum(
                1 << k for k in range(ctx.size)
                if all(not _reference_expand(poset, c, d, 1 << k) & ~target[d]
                       for d in _supers(poset, c))
            ))
    return masks


@pytest.mark.parametrize("dim, count", [(2, 1), (2, 2), (2, 3), (3, 1)])
@pytest.mark.parametrize("variant", ["l2", "l3"])
def test_arrow_table_matches_per_pair_reference(dim, count, variant):
    poset = logic.poset_from_bases(_random_bases(dim + count, dim, count))
    elements = logic.enumerate_elements(poset, variant)
    m = np.array([el.masks for el in elements])
    table = logic._arrow(poset, variant, m[:, None], m).tolist()
    for (i, t), (j, r) in product(enumerate(elements), repeat=2):
        assert table[i][j] == _reference_implication(poset, variant, t, r)


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("variant", ["l2", "l3"])
def test_sampling_matches_reference(seed, variant):
    poset = logic.poset_from_bases(_random_bases(seed, 3, 2))
    assert logic.sample_elements(poset, variant, 12, seed) == _reference_sample(
        poset, variant, 12, seed
    )


def test_non_monotone_implication_fails_closure(m2_poset, monkeypatch):
    real = logic._arrow
    # (0, 1, 0) lies above no element but bottom, so the adjunction still
    # holds, but it is not l3-monotone: the trivial context says bottom
    leaky = logic.ContextFunction((0, 1, 0))
    assert not logic.is_monotone(m2_poset, leaky, "l3")

    def arrow(poset, variant, a, b):
        out = real(poset, variant, a, b)
        return np.where((out == 0).all(axis=-1, keepdims=True), leaky.masks, out)

    monkeypatch.setattr(logic, "_arrow", arrow)
    report = logic.check_heyting_laws(m2_poset, "l3", exhaustive=True)
    assert not report.passed
    assert report.violations
    assert all(v.startswith("closure fails at ") for v in report.violations)


def _duplicate_bases():
    return [np.eye(2, dtype=complex), np.eye(2, dtype=complex)[::-1], np.eye(2, dtype=complex)]


@pytest.mark.parametrize("variant", ["l2", "l3"])
def test_duplicate_algebras_are_merged(variant):
    poset = logic.poset_from_bases(_duplicate_bases())
    assert [ctx.name for ctx in poset.contexts] == ["trivial", "basis0"]
    # the coarse-to-fine walk needs antisymmetric inclusion to match the filter
    assert logic.enumerate_elements(poset, variant) == _reference_enumerate(poset, variant)


# The bases of every poset the tests above build: exhaustive ones (E from 3
# to 96) and the dim-3, two-basis ones they sample.
EXHAUSTIVE_POSETS = {
    "d2-1": lambda: _random_bases(3, 2, 1),
    "d2-2": lambda: _random_bases(4, 2, 2),
    "d2-3": lambda: _random_bases(5, 2, 3),
    "d3-1": lambda: _random_bases(4, 3, 1),
    "d3-1-seed15": lambda: _random_bases(15, 3, 1),
    "duplicates": _duplicate_bases,
}


@pytest.mark.parametrize("name", EXHAUSTIVE_POSETS)
@pytest.mark.parametrize("variant", ["l2", "l3"])
def test_pair_decided_report_matches_reference(name, variant):
    poset = logic.poset_from_bases(EXHAUSTIVE_POSETS[name]())
    report = logic.check_heyting_laws(poset, variant, exhaustive=True)
    count, checked, violations = _reference_check_by_s(poset, variant)
    assert (report.element_count, report.triples_checked) == (count, checked)
    assert report.violations == violations == ()


@pytest.mark.parametrize("seed, sample_count", [(15, 8), (0, 12), (1, 12), (2, 12)])
@pytest.mark.parametrize("variant", ["l2", "l3"])
def test_sampled_report_matches_reference(seed, sample_count, variant):
    poset = logic.poset_from_bases(_random_bases(seed, 3, 2))
    report = logic.check_heyting_laws(poset, variant, exhaustive=False,
                                      sample_count=sample_count, seed=seed)
    elements = _reference_sample(poset, variant, sample_count, seed)
    elements = list(dict.fromkeys([*elements, logic.bottom(poset), logic.top(poset)]))
    assert (report.element_count, report.triples_checked, report.violations) == \
        _reference_check_by_s(poset, variant, elements)


def _reference_pair_conditions(poset, variant, elements):
    """Conditions (a), (b) and (c) of check_heyting_laws, one pair at a time."""
    join, meet, leq = _join, _meet, _leq
    implication = logic.l3_implication if variant == "l3" else logic.l2_implication
    arrow = {(t, r): implication(poset, t, r) for t, r in product(elements, repeat=2)}
    generators = {
        reduce(meet, [el for el in elements if el.masks[c] >> k & 1])
        for c, ctx in enumerate(poset.contexts) for k in range(ctx.size)
    }
    closed = all(logic.is_monotone(poset, value, variant) for value in arrow.values())
    return closed, (
        all(leq(meet(t, arrow[t, r]), r) for t, r in arrow),
        all(leq(s, arrow[t, meet(s, t)]) for s, t in arrow),
        all(leq(arrow[t, r], arrow[t, join(r, g)]) for t, r in arrow for g in generators),
    )


def _arrow_top(real):
    """t -> r = top: breaks (a) only."""
    def arrow(poset, variant, a, b):
        return np.broadcast_to(logic.top(poset).masks, np.broadcast(a, b).shape)
    return arrow


def _arrow_second(real):
    """t -> r = r: breaks (b) only."""
    def arrow(poset, variant, a, b):
        return np.broadcast_to(b, np.broadcast(a, b).shape)
    return arrow


def _arrow_drops_at_top(real):
    """t -> top = t, the true arrow elsewhere: breaks (c) only."""
    def arrow(poset, variant, a, b):
        a, b = np.broadcast_arrays(a, b)
        at_top = (b == logic.top(poset).masks).all(axis=-1, keepdims=True)
        return np.where(at_top, a, real(poset, variant, a, b))
    return arrow


@pytest.mark.parametrize("broken, patch", [
    ((False, True, True), _arrow_top),
    ((True, False, True), _arrow_second),
    ((True, True, False), _arrow_drops_at_top),
], ids=["a", "b", "c"])
@pytest.mark.parametrize("variant", ["l2", "l3"])
def test_each_broken_pair_condition_falls_back_to_triples(m2_poset, variant, broken, patch,
                                                          monkeypatch):
    monkeypatch.setattr(logic, "_arrow", patch(logic._arrow))
    elements = _reference_enumerate(m2_poset, variant)
    assert _reference_pair_conditions(m2_poset, variant, elements) == (True, broken)
    report = logic.check_heyting_laws(m2_poset, variant, exhaustive=True)
    count, checked, violations = _reference_check(m2_poset, variant)
    assert (report.element_count, report.triples_checked) == (count, checked)
    assert violations and report.violations == violations


@pytest.mark.parametrize("patch", [None, _arrow_top, _arrow_second, _arrow_drops_at_top],
                         ids=["true-arrow", "a-broken", "b-broken", "c-broken"])
@pytest.mark.parametrize("variant", ["l2", "l3"])
def test_by_s_reference_matches_per_triple_reference(m2_poset, variant, patch, monkeypatch):
    if patch:
        monkeypatch.setattr(logic, "_arrow", patch(logic._arrow))
    assert _reference_check_by_s(m2_poset, variant) == _reference_check(m2_poset, variant)


@pytest.mark.parametrize("name", EXHAUSTIVE_POSETS)
@pytest.mark.parametrize("variant", ["l2", "l3"])
def test_monotone_matches_reference_row_by_row(name, variant):
    poset = logic.poset_from_bases(EXHAUSTIVE_POSETS[name]())
    rows = list(product(*(range(poset.full_mask(i) + 1) for i in range(len(poset.contexts)))))
    expected = [_reference_is_monotone(poset, row, variant) for row in rows]
    assert logic._monotone(poset, np.array(rows), variant).tolist() == expected
    # any leading shape, and the one-row public form
    assert logic._monotone(poset, np.array(rows[:1] * 6).reshape(2, 3, -1), variant).tolist() \
        == [[expected[0]] * 3] * 2
    assert [logic.is_monotone(poset, logic.ContextFunction(row), variant)
            for row in rows[:64]] == expected[:64]


@pytest.mark.parametrize("variant", ["l2", "l3"])
def test_monotone_rejects_masks_outside_their_context(m2_poset, variant):
    top = logic.top(m2_poset).masks
    assert logic.is_monotone(m2_poset, logic.ContextFunction(top), variant)
    for bad in [(2, 3, 3), (1, 4, 3), (1, 3, -1)]:
        assert not logic.is_monotone(m2_poset, logic.ContextFunction(bad), variant)


def _sharing_one(rng, basis, k):
    """A basis holding vector k of the given one, times a phase, and a random
    unitary mix of its other vectors, in random order."""
    dim = len(basis)
    rest = _unitary(rng, dim - 1) @ np.delete(basis, k, axis=0)
    shared = np.exp(2j * np.pi * rng.random()) * basis[k]
    return np.vstack([shared, rest])[rng.permutation(dim)]


def _shared_vector_bases(dim):
    """The identity, a basis holding e_0 and one holding e_1 but no other of
    its vectors, and a random basis."""
    rng = np.random.default_rng(dim)
    eye = np.eye(dim, dtype=complex)
    return [eye, _sharing_one(rng, eye, 0), _sharing_one(rng, eye, 1), _unitary(rng, dim)]


def _seeded_bases(seed):
    """Random bases of dimension 2 to 4, some repeated with their vectors
    permuted (the same algebra, merged), some sharing one vector with an
    earlier basis, each basis's vectors in random order."""
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(2, 5))
    bases = _random_bases(seed, dim, int(rng.integers(1, 4)))
    bases = [basis[rng.permutation(dim)] for basis in bases]
    repeats = [bases[k][rng.permutation(dim)] for k in rng.integers(0, len(bases), 2)]
    repeats = repeats[: int(rng.integers(0, 3))]
    shared = [_sharing_one(rng, bases[k], int(rng.integers(dim)))
              for k in rng.integers(0, len(bases), 2)]
    return bases + repeats + shared[: int(rng.integers(0, 3))]


def _assert_matches_svd_reference(bases):
    """poset_from_bases(bases) against the SVD containment of the atoms each
    context name stands for: the contexts kept, and both gather tables,
    entry by entry (so inclusion on every pair), from the reference refine
    maps.  Returns the poset."""
    poset = logic.poset_from_bases(bases)
    names = [ctx.name for ctx in poset.contexts]
    assert names == _reference_names(bases)
    assert [ctx.size for ctx in poset.contexts] == [len(_named_atoms(bases, n)) for n in names]
    refine = [[_reference_refine(bases, i, j) for j in names] for i in names]
    n = range(len(names))
    # antisymmetric inclusion: no two contexts are one algebra
    assert all(i == j or None in (refine[i][j], refine[j][i]) for i, j in product(n, n))

    def expand(i, j, x):  # context i's mask x, in context j's atoms
        return sum((x >> parent & 1) << k for k, parent in enumerate(refine[i][j]))

    by_fine = [(i, j) for j in n for i in n if refine[i][j] is not None]
    by_coarse = sorted(by_fine)
    size = [ctx.size for ctx in poset.contexts]
    tables = [
        (poset._expand, [i for i, _ in by_fine], [j for _, j in by_fine],
         [[expand(i, j, x) for x in range(1 << size[i])] for i, j in by_fine]),
        # the largest coarse mask whose expansion lies below y
        (poset._restrict, [j for _, j in by_coarse], [i for i, _ in by_coarse],
         [[sum(1 << k for k in range(size[i]) if not expand(i, j, 1 << k) & ~y)
           for y in range(1 << size[j])] for i, j in by_coarse]),
    ]
    for table, source, group, values in tables:
        assert table.source.tolist() == source
        assert table.full.tolist() == [poset.full_mask(c) for c in source]
        assert table.groups.tolist() == [sum(g < c for g in group) for c in n]
        assert [table.values[at : at + len(row)].tolist()
                for at, row in zip(table.offset.tolist(), values)] == values
    return poset


def _assert_tables_match_reference(poset, seed, rows=6):
    """_monotone and _arrow on random, mostly non-monotone mask arrays (rows
    of them, and a (3, rows, rows, C) stack) against the _reference_expand-based
    references, for both variants."""
    rng = np.random.default_rng(seed)
    full = [poset.full_mask(i) for i in range(len(poset.contexts))]
    a, b = (rng.integers(0, np.array(full) + 1, size=(rows, len(full))) for _ in range(2))
    stack = rng.integers(0, np.array(full) + 1, size=(3, rows, rows, len(full)))
    for variant in ("l2", "l3"):
        assert logic._monotone(poset, a, variant).tolist() == \
            [_reference_is_monotone(poset, row, variant) for row in a.tolist()]
        assert logic._monotone(poset, stack, variant).tolist() == \
            [[[_reference_is_monotone(poset, row, variant) for row in block] for block in layer]
             for layer in stack.tolist()]
        element = logic.ContextFunction
        assert logic._arrow(poset, variant, a[:, None], b).tolist() == \
            [[_reference_implication(poset, variant, element(s), element(t)) for t in b.tolist()]
             for s in a.tolist()]


@pytest.mark.parametrize("seed", range(0, 120, 12))
def test_batched_refinement_matches_per_pair_containment(seed):
    for bases in map(_seeded_bases, range(seed, seed + 12)):
        poset = _assert_matches_svd_reference(bases)
        # the gather tables expand and restrict along every included pair
        _assert_tables_match_reference(poset, seed)


def _tilted_bases(dim, seed, scales=(0.0, 0.5, 0.9, 2.0, 2.9, 4.0)):
    """A random basis, then copies of it with its first two vectors rotated
    in their plane by each of scales times CONTAINMENT_TOL; with the default
    scales a rotated vector's sine to the original, and to the other
    copies', sits at least 0.1 CONTAINMENT_TOL from the tolerance, and no
    vector is within it of two distinct rays.  Each copy's vectors take
    random phases and a random order."""
    rng = np.random.default_rng((seed, dim))
    basis = _random_bases(seed, dim, 1)[0]
    bases = [basis]
    for scale in scales:
        eps = scale * logic.CONTAINMENT_TOL
        turned = basis.copy()
        turned[0] = math.cos(eps) * basis[0] + math.sin(eps) * basis[1]
        turned[1] = math.cos(eps) * basis[1] - math.sin(eps) * basis[0]
        phases = np.exp(2j * np.pi * rng.random(dim))[:, None]
        bases.append((phases * turned)[rng.permutation(dim)])
    return bases


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("dim", [2, 3, 4])
def test_containment_prefilter_matches_svd(dim, seed):
    # the ray test (|<v, w>|^2 > 1/2, then the sine) decides as the SVD of
    # P_v Q_w - Q_w does, near the tolerance too: the copies turned by 0, 0.5
    # and 0.9 tol merge into basis0, the one turned by 2 tol is kept and the
    # one turned by 2.9 tol merges into it, and the one turned by 4 tol is kept
    bases = _tilted_bases(dim, seed)
    poset = _assert_matches_svd_reference(bases)
    assert [ctx.name for ctx in poset.contexts if ":" not in ctx.name] == \
        ["trivial", "basis0", "basis4", "basis6"]


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("dim", [2, 3, 4])
def test_vector_near_two_rays_is_refused(dim, seed):
    # sharing a ray is not transitive within the tolerance: the copy turned
    # by 1.1 tol shares a ray with those turned by 0.5 and 0.9 tol, which
    # share the original's, but not with the original; the first copy of a
    # ray would keep the 1.1 copy apart and leave its pairs with two ray ids
    bases = _tilted_bases(dim, seed, (0.0, 0.5, 0.9, 1.1, 2.0, 4.0))
    with pytest.raises(ValueError, match="^a vector lies within CONTAINMENT_TOL of two "
                                         "distinct rays$"):
        logic.poset_from_bases(bases)


def test_smallest_vector_near_two_rays_is_refused():
    # three bases of C^2 turned by 0, 0.6 and 1.2 tol: the middle one's
    # vectors are within the tolerance of both others', which are not
    turned = [_rotation_basis(k * 0.6 * logic.CONTAINMENT_TOL) for k in range(3)]
    with pytest.raises(ValueError, match="two distinct rays"):
        logic.poset_from_bases(turned)
    assert [ctx.name for ctx in logic.poset_from_bases(turned[:2]).contexts] == \
        ["trivial", "basis0"]


@pytest.mark.parametrize("dim", [3, 4])
def test_block_of_a_shared_vector_lies_below_both_bases(dim):
    poset = logic.poset_from_bases(_shared_vector_bases(dim))
    names = [ctx.name for ctx in poset.contexts]
    assert len(names) == 3 + 4 * dim  # the trivial context, 4 bases, 4 dim - 2 rays

    def above(name):
        return [names[j] for j in _supers(poset, names.index(name))]

    assert above("basis0:block0") == ["basis0", "basis0:block0", "basis1"]
    assert above("basis0:block1") == ["basis0", "basis0:block1", "basis2"]
    assert all(above(name) == ["basis3", name] for name in names if name.startswith("basis3:"))


def _rotation_basis(theta):
    return np.array([[math.cos(theta), math.sin(theta)],
                     [-math.sin(theta), math.cos(theta)]], dtype=complex)


@pytest.mark.parametrize("variant", ["l2", "l3"])
def test_near_duplicate_bases_are_one_algebra(variant):
    # two bases 2e-12 apart whose atom entry cos^2 theta straddles a
    # 9-digit rounding boundary (0.30000000049999990 vs 0.30000000050183284)
    theta = math.acos(math.sqrt(0.3000000005))
    poset = logic.poset_from_bases([_rotation_basis(theta), _rotation_basis(theta - 2e-12)])
    assert [ctx.name for ctx in poset.contexts] == ["trivial", "basis0"]
    report = logic.check_heyting_laws(poset, variant, exhaustive=True)
    assert report.passed and report.element_count == 5


def test_permuted_repeats_are_merged():
    rng = np.random.default_rng(3)
    basis = _random_bases(3, 3, 1)[0]
    poset = logic.poset_from_bases([basis, basis[rng.permutation(3)]])
    assert [ctx.name for ctx in poset.contexts] == \
        ["trivial", "basis0", *(f"basis0:block{k}" for k in range(3))]


@pytest.mark.parametrize("bases, message", [
    ([], "no bases given"),
    ([np.eye(3)[:2]], "each basis must be a square array of its vectors"),
    ([np.ones(2)], "each basis must be a square array of its vectors"),
    ([np.eye(2), np.eye(3)], "bases must all have the same dimension"),
    ([np.eye(1)], "bases must have dimension 2 to 16"),
    ([np.eye(17)], "bases must have dimension 2 to 16"),
    ([np.eye(2), np.full((2, 2), np.nan)], "basis entries must be finite"),
    ([np.eye(2), [[1, 2e-10], [0, 1]]], "bases must be orthonormal within 1e-10"),
    ([[[1, 0], [0, 1 + 2e-10]]], "bases must be orthonormal within 1e-10"),
], ids=["empty", "non-square", "one-dimensional-array", "mixed-dimension", "dim-1", "dim-17",
        "not-finite", "not-orthogonal", "not-normalised"])
def test_poset_from_bases_refuses_malformed_bases(bases, message):
    with pytest.raises(ValueError) as caught:
        logic.poset_from_bases(bases)
    assert str(caught.value) == message


def test_poset_from_bases_takes_bases_orthonormal_within_the_tolerance():
    poset = logic.poset_from_bases([[[1, 0.5e-10], [0, 1]], [[1, 0], [0, 1 + 0.4e-10]]])
    assert [ctx.name for ctx in poset.contexts] == ["trivial", "basis0"]


# The bases of every poset the tests build, and of two whose bases share
# one vector, for the gather-table checks below.
ALL_POSETS = {
    **EXHAUSTIVE_POSETS,
    "m2": lambda: [np.eye(2, dtype=complex),
                   np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)],
    **{f"d3-2-seed{seed}": (lambda seed=seed: _random_bases(seed, 3, 2))
       for seed in (0, 1, 2, 15)},
    "near-duplicates": lambda: [_rotation_basis(math.acos(math.sqrt(0.3000000005))),
                                _rotation_basis(math.acos(math.sqrt(0.3000000005)) - 2e-12)],
    "permuted-repeats": lambda: [_random_bases(3, 3, 1)[0], _random_bases(3, 3, 1)[0][[2, 0, 1]]],
    "shared-d3": lambda: _shared_vector_bases(3),
    "shared-d4": lambda: _shared_vector_bases(4),
}


@pytest.mark.parametrize("name", ALL_POSETS)
def test_monotone_and_arrow_match_reference_on_random_masks(name, monkeypatch):
    poset = logic.poset_from_bases(ALL_POSETS[name]())
    for seed in range(3):
        _assert_tables_match_reference(poset, seed)
    monkeypatch.setattr(logic, "GATHER_BLOCK", 1)  # one 64-bit word of columns per block
    _assert_tables_match_reference(poset, 3)


@pytest.mark.parametrize("name", ALL_POSETS)
def test_poset_matches_svd_reference(name):
    _assert_matches_svd_reference(ALL_POSETS[name]())


@pytest.mark.parametrize("variant", ["l2", "l3"])
def test_sampled_report_with_a_late_block_failure_matches_reference(variant, monkeypatch):
    poset = logic.poset_from_bases(_random_bases(15, 3, 2))
    elements = _reference_sample(poset, variant, 8, 15)
    elements = list(dict.fromkeys([*elements, logic.bottom(poset), logic.top(poset)]))
    bottom, top = logic.bottom(poset), logic.top(poset)
    step = 2  # s values per block
    # x: an element past the first block with no other nonzero element below it
    # before there, so t = top, r = bottom fails the adjunction only past it
    x = next(el for k, el in enumerate(elements) if k >= step and el != bottom and not any(
        _leq(other, el) and other != bottom for other in elements[:step]))
    real = logic._arrow

    def arrow(poset, variant, a, b):
        out = real(poset, variant, a, b)
        a, b = np.broadcast_arrays(a, b)
        at = (a == top.masks).all(axis=-1) & (b == bottom.masks).all(axis=-1)
        return np.where(at[..., None], x.masks, out)

    monkeypatch.setattr(logic, "_arrow", arrow)
    monkeypatch.setattr(logic, "TRIPLE_BLOCK", step * len(elements) ** 2)
    report = logic.check_heyting_laws(poset, variant, exhaustive=False, sample_count=8, seed=15)
    count, checked, violations = _reference_check_by_s(poset, variant, elements)
    assert (report.element_count, report.triples_checked) == (count, checked)
    assert violations and report.violations == violations
    assert not any(v.startswith(f"adjunction fails at {el}, ")
                   for v in violations for el in elements[:step])
