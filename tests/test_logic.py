"""Subspace lattice, union lattice, and context-function Heyting algebras."""

import math
from functools import reduce
from itertools import product

import numpy as np
import pytest

from qfoundry import logic
from qfoundry.quantum import STRUCT_TOL


@pytest.fixture(scope="module")
def m2_poset():
    b0 = np.eye(2, dtype=complex)
    b1 = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
    return logic.poset_from_bases([b0, b1])


def _subs(poset, j):
    """Contexts included in context j (j among them), ascending."""
    return tuple(i for i in range(len(poset.contexts)) if poset.refine[i][j] is not None)


def _supers(poset, i):
    """Contexts that include context i (i among them), ascending."""
    return tuple(j for j in range(len(poset.contexts)) if poset.refine[i][j] is not None)


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
            assert logic._containment(np.array([p.projection, q.projection]))[1, 0]
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
        assert logic._containment(np.array([k.projection, closure.projection]))[1, 0]
    # minimal: any other upper bound built from joins contains the closure
    for subset in product([0, 1], repeat=3):
        if not any(subset):
            continue
        chosen = [c for c, flag in zip(components, subset) if flag]
        bound = logic.ql_join(*chosen, closure)
        assert logic._containment(np.array([closure.projection, bound.projection]))[1, 0]


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
    # elsewhere: here diag(1, 0), atom 0 of the diagonal basis context
    assert np.allclose(m2_poset.contexts[1].atoms[0], np.diag([1.0, 0.0]))
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


def _reference_refine(contexts, i, j):
    """The first atom of context i above each atom of context j, or None."""
    parents = []
    for q in contexts[j].atoms:
        above = [k for k, p in enumerate(contexts[i].atoms)
                 if logic._containment(np.array([q, p]))[1, 0]]
        if not above:
            return None
        parents.append(above[0])
    return parents


def _reference_expand(poset, i, j, mask):
    return sum((mask >> parent & 1) << k for k, parent in enumerate(poset.refine[i][j]))


def _reference_is_monotone(poset, masks, variant):
    for i, j in product(range(len(poset.contexts)), repeat=2):
        if i == j or j not in _supers(poset, i):
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


def _random_bases(seed, dim, count):
    rng = np.random.default_rng(seed)
    bases = []
    for _ in range(count):
        raw = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        bases.append(np.linalg.qr(raw)[0].T)
    return bases


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


def _duplicate_poset():
    atoms = tuple(np.diag(row).astype(complex) for row in np.eye(2))
    return logic.ContextPoset([
        logic.Context(atoms=atoms, name="a"),
        logic.Context(atoms=atoms[::-1], name="a permuted"),
        logic.Context(atoms=(np.eye(2, dtype=complex),), name="another trivial"),
        logic.Context(atoms=atoms, name="a again"),
    ])


@pytest.mark.parametrize("variant", ["l2", "l3"])
def test_duplicate_algebras_are_merged(variant):
    poset = _duplicate_poset()
    assert [ctx.name for ctx in poset.contexts] == ["trivial", "a"]
    # the coarse-to-fine walk needs antisymmetric inclusion to match the filter
    assert logic.enumerate_elements(poset, variant) == _reference_enumerate(poset, variant)


# Every poset the tests above build: exhaustive ones (E from 3 to 96) and the
# dim-3, two-basis ones they sample.
EXHAUSTIVE_POSETS = {
    "d2-1": lambda: logic.poset_from_bases(_random_bases(3, 2, 1)),
    "d2-2": lambda: logic.poset_from_bases(_random_bases(4, 2, 2)),
    "d2-3": lambda: logic.poset_from_bases(_random_bases(5, 2, 3)),
    "d3-1": lambda: logic.poset_from_bases(_random_bases(4, 3, 1)),
    "d3-1-seed15": lambda: logic.poset_from_bases(_random_bases(15, 3, 1)),
    "duplicates": _duplicate_poset,
}


@pytest.mark.parametrize("name", EXHAUSTIVE_POSETS)
@pytest.mark.parametrize("variant", ["l2", "l3"])
def test_pair_decided_report_matches_reference(name, variant):
    poset = EXHAUSTIVE_POSETS[name]()
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
    poset = EXHAUSTIVE_POSETS[name]()
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


def _seeded_poset(seed):
    """Random bases of dimension 2 to 4, some repeated with their vectors
    permuted (the same algebra, merged), each basis's vectors in random order."""
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(2, 5))
    bases = _random_bases(seed, dim, int(rng.integers(1, 4)))
    bases = [basis[rng.permutation(dim)] for basis in bases]
    repeats = [bases[k][rng.permutation(dim)] for k in rng.integers(0, len(bases), 2)]
    return logic.poset_from_bases(bases + repeats[: int(rng.integers(0, 3))])


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
    for poset in map(_seeded_poset, range(seed, seed + 12)):
        n = len(poset.contexts)
        for i, j in product(range(n), repeat=2):
            assert poset.refine[i][j] == _reference_refine(poset.contexts, i, j)
            assert i == j or not (j in _supers(poset, i) and i in _supers(poset, j))
        # the gather tables expand and restrict along every included pair
        _assert_tables_match_reference(poset, seed)


def _svd_containment(atoms):
    """Reference: the operator norm of every pair's P_b Q_a - Q_a, by SVD."""
    norms = np.linalg.norm(atoms[:, None] @ atoms - atoms, 2, axis=(-2, -1))
    return norms <= logic.CONTAINMENT_TOL


def _tilted_atoms(dim, seed):
    """Rank-1 atoms of random bases, their complements, exact duplicates, and
    copies whose vector is tilted by 0.5, 1, 2 and 4 times CONTAINMENT_TOL
    towards another basis vector, so the pair's norm sits at that multiple."""
    rng = np.random.default_rng((seed, dim))
    atoms = []
    for basis in _random_bases(seed, dim, 2):
        for v, w in zip(basis, np.roll(basis, 1, axis=0)):
            for scale in (0.0, 0.5, 1.0, 2.0, 4.0):
                eps = scale * logic.CONTAINMENT_TOL
                tilted = math.cos(eps) * v + math.sin(eps) * w
                atoms += [np.outer(tilted, tilted.conj())]
                atoms += [np.eye(dim) - atoms[-1]] if dim > 2 else []
    atoms += [atoms[k] for k in rng.integers(0, len(atoms), 4)]
    return np.array(atoms)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("dim", [2, 3, 4])
def test_containment_prefilter_matches_svd(dim, seed, monkeypatch):
    atoms = _tilted_atoms(dim, seed)
    want = _svd_containment(atoms)
    assert np.array_equal(logic._containment(atoms), want)
    assert all(logic._containment(atoms[[a, b]])[1, 0] == want[b, a]
               for a, b in product(range(len(atoms)), repeat=2))
    monkeypatch.setattr(logic, "CONTAINMENT_BLOCK", 3 * len(atoms) + 1)  # uneven row blocks
    assert np.array_equal(logic._containment(atoms), want)
    # the untilted atom lies below its 0.5-tilted copy and not below the 2-tilted one
    step = 2 if dim > 2 else 1
    assert want[step, 0] and not want[3 * step, 0]


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


_P = np.diag([1.0, 0.0]).astype(complex)
_I = np.eye(2, dtype=complex)


@pytest.mark.parametrize("atoms, message", [
    ((_P,), "atoms of context 'c' do not sum to identity"),
    ((0.5 * _I,), "atoms of context 'c' do not sum to identity"),  # before idempotence
    ((np.array([[1, 1], [0, 0]], dtype=complex), np.array([[0, -1], [0, 1]], dtype=complex)),
     "projection must be Hermitian"),
    ((np.array([[1, 1], [0, 0.5]], dtype=complex), np.array([[0, -1], [0, 0.5]], dtype=complex)),
     "projection must be Hermitian"),  # before idempotence
    ((0.5 * _I, 0.5 * _I), "projection must be idempotent within 1e-10"),
    ((_P, _P, _I - 2 * _P), "atoms of context 'c' are not orthogonal"),  # before atom 2's checks
    ((np.diag([1, 0, 0]), np.diag([0, 0.5, 0.5]), np.diag([0, 0.5, 0.5])),
     "projection must be idempotent within 1e-10"),  # atom 1's checks before its overlaps
    ((np.full((2, 2), np.nan),), "matrix entries must be finite"),
], ids=["sum", "sum-first", "hermitian", "hermitian-first", "idempotent", "orthogonal",
        "atom-order", "not-finite"])
def test_context_errors(atoms, message):
    with pytest.raises(ValueError) as caught:
        logic.Context(atoms=atoms, name="c")
    assert str(caught.value) == message


# Every poset the tests build, for the gather-table checks below.
ALL_POSETS = {
    **EXHAUSTIVE_POSETS,
    "m2": lambda: logic.poset_from_bases(
        [np.eye(2, dtype=complex), np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)]),
    **{f"d3-2-seed{seed}": (lambda seed=seed: logic.poset_from_bases(_random_bases(seed, 3, 2)))
       for seed in (0, 1, 2, 15)},
    "near-duplicates": lambda: logic.poset_from_bases(
        [_rotation_basis(math.acos(math.sqrt(0.3000000005))),
         _rotation_basis(math.acos(math.sqrt(0.3000000005)) - 2e-12)]),
    "permuted-repeats": lambda: logic.poset_from_bases(
        [_random_bases(3, 3, 1)[0], _random_bases(3, 3, 1)[0][[2, 0, 1]]]),
}


@pytest.mark.parametrize("name", ALL_POSETS)
def test_monotone_and_arrow_match_reference_on_random_masks(name, monkeypatch):
    poset = ALL_POSETS[name]()
    for seed in range(3):
        _assert_tables_match_reference(poset, seed)
    monkeypatch.setattr(logic, "GATHER_BLOCK", 1)  # one 64-bit word of columns per block
    _assert_tables_match_reference(poset, 3)


def _all_pairs_containment(atoms):
    """The all-pairs containment test that the Gram product prefilters: every
    pair's P_b Q_a - Q_a, Frobenius bounds first, the SVD in between."""
    rows = max(1, logic.CONTAINMENT_BLOCK // len(atoms))
    bound = 2 * np.sqrt(atoms.shape[-1]) * logic.CONTAINMENT_TOL
    blocks = []
    for lo in range(0, len(atoms), rows):
        diffs = atoms[lo : lo + rows, None] @ atoms - atoms
        frobenius = np.linalg.norm(diffs, axis=(-2, -1))
        leq = frobenius <= logic.CONTAINMENT_TOL / 2
        unsure = ~leq & (frobenius <= bound)
        leq[unsure] = np.linalg.norm(diffs[unsure], 2, axis=(-2, -1)) <= logic.CONTAINMENT_TOL
        blocks.append(leq)
    return np.concatenate(blocks)


def _poset_atoms(dim, count, seed):
    """The atoms ContextPoset stacks for poset_from_bases: the identity, each
    basis's rank-one projections, and in dim >= 3 each block {P, 1 - P}."""
    atoms = [np.eye(dim, dtype=complex)]
    for basis in _random_bases(seed, dim, count):
        rank_one = [np.outer(v, v.conj()) for v in basis]
        atoms += rank_one
        atoms += [x for p in rank_one for x in (p, np.eye(dim) - p)] if dim >= 3 else []
    return np.array(atoms)


@pytest.mark.parametrize("count", [1, 8, 64])
@pytest.mark.parametrize("dim", [2, 3, 4])
def test_gram_containment_matches_all_pairs_reference(dim, count):
    atoms = _poset_atoms(dim, count, dim + count)
    assert np.array_equal(logic._containment(atoms), _all_pairs_containment(atoms))


@pytest.mark.parametrize("scale", [0.4, 1.0, 2.5])
@pytest.mark.parametrize("dim", [2, 3, 4])
def test_gram_containment_matches_all_pairs_on_perturbed_atoms(dim, scale):
    # each rank-one atom next to a copy tilted by scale * CONTAINMENT_TOL, so
    # that pair's norm sits at that multiple of the tolerance
    atoms = list(_poset_atoms(dim, 2, 7))
    per_basis = 3 * dim if dim > 2 else dim  # rank-one atoms, then the blocks
    pairs = []  # (tilted copy, its atom)
    for b, basis in enumerate(_random_bases(7, dim, 2)):
        for k, (v, w) in enumerate(zip(basis, np.roll(basis, 1, axis=0))):
            eps = scale * logic.CONTAINMENT_TOL
            tilted = math.cos(eps) * v + math.sin(eps) * w
            pairs.append((len(atoms), 1 + b * per_basis + k))
            atoms += [np.outer(tilted, tilted.conj())]
    atoms = np.array(atoms)
    want = _all_pairs_containment(atoms)
    assert np.array_equal(logic._containment(atoms), want)
    if scale != 1.0:  # 1.0 sits on the tolerance, where rounding decides
        assert all(want[copy, atom] == (scale < 1) for copy, atom in pairs)


def _all_svd_context_error(atoms, name):
    """The message Context raised with every residual norm taken by SVD, or None."""
    mats = np.array(atoms, dtype=complex)
    count, dim = mats.shape[:2]
    residual = mats[:, None] @ mats
    residual[range(count), range(count)] -= mats
    norms = np.linalg.norm(np.concatenate([[sum(mats) - np.eye(dim)],
                                           residual.reshape(-1, dim, dim)]), 2, axis=(-2, -1))
    if norms[0] > STRUCT_TOL:
        return f"atoms of context {name!r} do not sum to identity"
    norms = norms[1:].reshape(count, count)
    hermitian = np.abs(mats - mats.conj().swapaxes(1, 2)).max(axis=(1, 2)) <= STRUCT_TOL
    for i in range(count):
        if not hermitian[i]:
            return "projection must be Hermitian"
        if norms[i, i] > STRUCT_TOL:
            return "projection must be idempotent within 1e-10"
        if (norms[i, i + 1 :] > STRUCT_TOL).any():
            return f"atoms of context {name!r} are not orthogonal"
    return None


def _context_error(atoms, name):
    try:
        logic.Context(atoms=tuple(atoms), name=name)
    except ValueError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("scale", [0.4, 1.0, 2.5])
@pytest.mark.parametrize("dim", [2, 3, 4])
def test_context_checks_match_all_svd_reference(dim, scale):
    basis = _random_bases(dim, dim, 1)[0]
    atoms = [np.outer(v, v.conj()) for v in basis]
    eps = scale * STRUCT_TOL
    tilted = math.cos(eps) * basis[0] + math.sin(eps) * basis[1]
    cases = [
        [(1 + eps) * atoms[0], *atoms[1:]],  # off in the sum and in idempotence
        [np.outer(tilted, tilted.conj()), *atoms[1:]],  # off in the sum and in orthogonality
        [atoms[0] + eps * np.eye(dim), atoms[1] - eps * np.eye(dim), *atoms[2:]],  # sum exact
        [atoms[0] + eps * (atoms[1] + atoms[0]) / 2, atoms[1] - eps * atoms[1] / 2, *atoms[2:]],
    ]
    messages = [_context_error(case, "c") for case in cases]
    assert messages == [_all_svd_context_error(case, "c") for case in cases]
    if scale != 1.0:  # 1.0 sits on the tolerance, where rounding decides
        assert (messages == [None] * len(cases)) == (scale < 1)


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
