"""Subspace lattice, union lattice, and context-function Heyting algebras."""

import math
from itertools import product

import numpy as np
import pytest

from qfoundry import logic


@pytest.fixture(scope="module")
def m2_poset():
    b0 = np.eye(2, dtype=complex)
    b1 = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
    return logic.poset_from_bases([b0, b1])


def _random_subspace(rng, dim):
    rank = int(rng.integers(0, dim + 1))
    if rank == 0:
        return logic.Subspace.zero(dim)
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
    assert logic.ql_join(e1, e2).isclose(logic.Subspace.full(2))


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
            p = (
                logic.Subspace.zero(dim)
                if keep == 0
                else logic.Subspace(basis[:, :keep] @ basis[:, :keep].conj().T)
            )
            assert p <= q
            assert logic.orthomodular_holds(p, q)


def test_l1_single_subspace_regular():
    s = logic.Subspace.spanned_by([1, 0])
    element = logic.l1_union([s])
    assert logic.l1_double_negation(element).isclose(s)


def test_l1_two_axes_not_regular():
    e1 = logic.Subspace.spanned_by([1.0, 0.0])
    e2 = logic.Subspace.spanned_by([0.0, 1.0])
    element = logic.l1_union([e1, e2])
    closure = logic.l1_double_negation(element)
    assert closure.isclose(logic.Subspace.full(2))
    # the union itself is not the full space: it misses (1,1)
    diag = np.array([1.0, 1.0]) / math.sqrt(2)
    in_union = any(
        np.allclose(k.projection @ diag, diag, atol=1e-9) for k in element
    )
    assert not in_union


def test_l1_zero_element():
    z = logic.Subspace.zero(2)
    assert logic.l1_double_negation(logic.l1_union([z])).rank == 0


def test_l1_double_negation_minimality():
    rng = np.random.default_rng(9)
    components = [_random_subspace(rng, 3) for _ in range(3)]
    closure = logic.l1_double_negation(components)
    for k in components:
        assert k <= closure
    # minimal: any other upper bound built from joins contains the closure
    for subset in product([0, 1], repeat=3):
        if not any(subset):
            continue
        chosen = [c for c, flag in zip(components, subset) if flag]
        bound = logic.ql_join(*chosen, closure)
        assert closure <= bound


def test_l1_join_meet_shapes():
    e1 = logic.Subspace.spanned_by([1.0, 0.0])
    e2 = logic.Subspace.spanned_by([0.0, 1.0])
    a = logic.l1_union([e1])
    b = logic.l1_union([e2])
    assert len(logic.l1_join(a, b)) == 1
    assert logic.l1_meet(a, b)[0].rank == 0
    with pytest.raises(ValueError):
        logic.l1_union([e1] * 9)


def test_poset_structure(m2_poset):
    assert len(m2_poset.contexts) == 3
    assert m2_poset.contexts[0].name == "trivial"
    assert m2_poset.included(0, 1) and m2_poset.included(0, 2)
    assert not m2_poset.included(1, 2)
    assert not m2_poset.included(2, 1)


def test_poset_dim3_intermediates():
    rng = np.random.default_rng(15)
    raw = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    q, _ = np.linalg.qr(raw)
    poset = logic.poset_from_bases([q.T])
    # trivial, the maximal algebra, and three two-block intermediates
    assert len(poset.contexts) == 5
    maximal = 1
    for i in range(2, 5):
        assert poset.included(i, maximal)
        assert poset.included(0, i)


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
    p = np.diag([1.0, 0.0]).astype(complex)
    element = logic.embed_projection(m2_poset, p)
    # value P at the diagonal basis context, identity elsewhere
    assert element.masks[0] == 1  # trivial context: identity
    diag_ctx = next(
        i for i, c in enumerate(m2_poset.contexts)
        if c.size == 2 and c.projection_to_mask(p) is not None
    )
    assert element.masks[diag_ctx] in (1, 2)
    other = next(
        i for i in range(1, 3) if i != diag_ctx
    )
    assert element.masks[other] == m2_poset.full_mask(other)


def test_l3_ops_preserve_monotonicity(m2_poset):
    elements = logic.enumerate_elements(m2_poset, "l3")
    for s, t in product(elements[:8], elements[:8]):
        assert logic.is_monotone(m2_poset, logic.cf_join(s, t), "l3")
        assert logic.is_monotone(m2_poset, logic.cf_meet(s, t), "l3")
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
        assert logic.cf_leq(logic.cf_meet(arrow, s1), s2)
        for candidate in elements:
            if logic.cf_leq(logic.cf_meet(candidate, s1), s2):
                assert logic.cf_leq(candidate, arrow)


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


# Reference versions of the element enumeration, the sampler and the law
# checker as one loop per candidate, element and triple, kept to pin down
# the mask-array implementations.


def _reference_is_monotone(poset, masks, variant):
    for i, j in product(range(len(poset.contexts)), repeat=2):
        if i == j or not poset.included(i, j):
            continue
        coarse_in_fine = poset.expand_mask(i, j, masks[i])
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
    order = sorted(range(len(poset.contexts)), key=lambda i: len(poset.sub_contexts(i)))
    out = []
    for _ in range(count):
        masks = [0] * len(poset.contexts)
        for i in order:
            coarser = [poset.expand_mask(d, i, masks[d]) for d in poset.sub_contexts(i) if d != i]
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
    join, meet, leq = logic.cf_join, logic.cf_meet, logic.cf_leq
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
            for d in poset.sub_contexts(c):
                acc &= poset.expand_mask(d, c, target[d])
            masks.append(acc)
        else:
            masks.append(sum(
                1 << k for k in range(ctx.size)
                if all(not poset.expand_mask(c, d, 1 << k) & ~target[d]
                       for d in poset.super_contexts(c))
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


@pytest.mark.parametrize("variant", ["l2", "l3"])
def test_duplicate_algebras_are_merged(variant):
    atoms = tuple(np.diag(row).astype(complex) for row in np.eye(2))
    contexts = [
        logic.Context(atoms=atoms, name="a"),
        logic.Context(atoms=atoms[::-1], name="a permuted"),
        logic.Context(atoms=(np.eye(2, dtype=complex),), name="another trivial"),
        logic.Context(atoms=atoms, name="a again"),
    ]
    poset = logic.ContextPoset(contexts)
    assert [ctx.name for ctx in poset.contexts] == ["trivial", "a"]
    # the coarse-to-fine walk needs antisymmetric inclusion to match the filter
    assert logic.enumerate_elements(poset, variant) == _reference_enumerate(poset, variant)
