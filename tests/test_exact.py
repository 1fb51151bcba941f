"""Exact scalars, vectors and rational sphere points.

The package has no field arithmetic on scalars; the references below are
built from its one product rule `_mul` and `_adjugate` over coefficient
4-tuples (1, sqrt2, sqrt3, sqrt6).
"""

import math
import operator
import re
from fractions import Fraction as Q
from functools import reduce
from itertools import combinations, product

import numpy as np
import pytest

from qfoundry.datasets import load_builtin
from qfoundry.meyer import enumerate_pyth_points
from qfoundry.exact import (
    DegenerateInputError,
    DimensionMismatchError,
    ExactVector,
    QuadScalar,
    RationalPoint,
    VectorSet,
    _adjugate,
    _mul,
    cross_product,
    orthogonal,
    orthogonality_masks,
)

R2 = QuadScalar.sqrt2()
R3 = QuadScalar.sqrt3()
R6 = QuadScalar.sqrt6()
ONE = (1, 0, 0, 0)


def _add(x, y):
    """Sum of two coefficient 4-tuples."""
    return tuple(map(operator.add, x, y))


def _plus(s, t):
    """Sum of two scalars."""
    return QuadScalar(*_add(s.coefficients(), t.coefficients()))


def _inverse(x):
    """Inverse of a nonzero coefficient 4-tuple: the adjugate over the field norm."""
    adj = _adjugate(x)
    norm = _mul(x, adj)[0]
    return tuple(Q(c) / norm for c in adj)


def _dot(u, v):
    """Entrywise inner product of two vectors, as a coefficient 4-tuple."""
    return reduce(_add, (
        _mul(x.coefficients(), y.coefficients())
        for x, y in zip(u.entries, v.entries, strict=True)
    ))


def _scaled(vector, factor):
    """The vector with every entry multiplied by a nonzero int, Fraction or scalar."""
    factor = factor if isinstance(factor, QuadScalar) else QuadScalar(factor)
    assert factor, "cannot scale a direction by zero"
    return ExactVector(
        [QuadScalar(*_mul(e.coefficients(), factor.coefficients())) for e in vector.entries],
        vector.label,
    )


def test_generator_products():
    r2, r3, r6 = R2.coefficients(), R3.coefficients(), R6.coefficients()
    assert _mul(r2, r3) == r6
    assert _mul(r2, r2) == (2, 0, 0, 0)
    assert _mul(r3, r3) == (3, 0, 0, 0)
    assert _mul(r2, r6) == (0, 0, 2, 0)  # 2*sqrt3
    assert _mul(r3, r6) == (0, 3, 0, 0)  # 3*sqrt2


def test_conjugate_product():
    # (1 + sqrt2)(1 - sqrt2) = -1
    assert _mul((1, 1, 0, 0), (1, -1, 0, 0)) == (-1, 0, 0, 0)


def _random_scalar(rng):
    return QuadScalar(
        Q(int(rng.integers(-9, 10)), int(rng.integers(1, 7))),
        Q(int(rng.integers(-9, 10)), int(rng.integers(1, 7))),
        Q(int(rng.integers(-9, 10)), int(rng.integers(1, 7))),
        Q(int(rng.integers(-9, 10)), int(rng.integers(1, 7))),
    )


def test_ring_axioms_random():
    rng = np.random.default_rng(23)
    for _ in range(200):
        s, t, r = (_random_scalar(rng).coefficients() for _ in range(3))
        assert _mul(_mul(s, t), r) == _mul(s, _mul(t, r))
        assert _mul(s, t) == _mul(t, s)
        assert _mul(s, _add(t, r)) == _add(_mul(s, t), _mul(s, r))
        assert _mul(s, ONE) == s


def test_inverse_random():
    # x times _adjugate(x) is a nonzero rational, so _inverse is the inverse
    rng = np.random.default_rng(5)
    for _ in range(100):
        s = _random_scalar(rng)
        if s.is_zero():
            continue
        norm = _mul(s.coefficients(), _adjugate(s.coefficients()))
        assert norm[0] != 0 and not any(norm[1:])
        assert _mul(s.coefficients(), _inverse(s.coefficients())) == ONE


def test_quad_scalar_coefficients_must_be_rational():
    s = QuadScalar(np.int64(3), Q(1, 2), np.uint8(2), True)
    assert s == QuadScalar(3, Q(1, 2), 2, 1)
    assert all(type(c) is Q and type(c.numerator) is int for c in s.coefficients())
    for value in (0.1, "1/3", np.float64(1.0), 1j, None):
        with pytest.raises(TypeError, match="is not rational"):
            QuadScalar(value)
        with pytest.raises(TypeError, match="is not rational"):
            QuadScalar(0, 0, 0, value)
    with pytest.raises(TypeError, match="is not rational"):
        ExactVector([0.1, 1, 0])


def test_inner_product_examples():
    e1 = ExactVector([1, 0, 0])
    e2 = ExactVector([0, 1, 0])
    assert not any(_dot(e1, e2))

    g31 = ExactVector([QuadScalar(1), R2, QuadScalar(0)])
    h11 = ExactVector([R2, QuadScalar(-1), QuadScalar(1)])
    assert not any(_dot(g31, h11))

    u = ExactVector([1, 1, 0, 0])
    v = ExactVector([1, -1, 0, 0])
    assert not any(_dot(u, v))


def test_inner_product_symmetry_random():
    rng = np.random.default_rng(11)
    for _ in range(50):
        u = ExactVector([_plus(_random_scalar(rng), QuadScalar(1)) for _ in range(3)])
        v = ExactVector([_plus(_random_scalar(rng), QuadScalar(1)) for _ in range(3)])
        assert _dot(u, v) == _dot(v, u)


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        orthogonal(ExactVector([1, 0]), ExactVector([0, 0, 1]))
    with pytest.raises(DimensionMismatchError):
        cross_product(ExactVector([1, 0]), ExactVector([0, 0, 1]))


def test_cross_product_examples():
    e1 = ExactVector([1, 0, 0])
    e2 = ExactVector([0, 1, 0])
    assert cross_product(e1, e2) == ExactVector([0, 0, 1])

    u = ExactVector([QuadScalar(1), R2, QuadScalar(0)])
    v = ExactVector([R2, QuadScalar(-1), QuadScalar(1)])
    w = cross_product(u, v)
    assert w == ExactVector([R2, QuadScalar(-1), QuadScalar(-3)])
    assert not any(_dot(u, w))
    assert not any(_dot(v, w))

    f11 = ExactVector([0, 1, 1])
    f12 = ExactVector([0, -1, 1])
    assert cross_product(f11, f12) == ExactVector([1, 0, 0])  # ray of (2,0,0)


def test_cross_product_degenerate():
    u = ExactVector([1, 2, 0])
    with pytest.raises(DegenerateInputError):
        cross_product(u, _scaled(u, 3))


def test_cross_product_orthogonal_to_inputs_random():
    rng = np.random.default_rng(37)
    built = 0
    while built < 30:
        u = ExactVector([_plus(_random_scalar(rng), QuadScalar(1)) for _ in range(3)])
        v = ExactVector([_plus(_random_scalar(rng), QuadScalar(2)) for _ in range(3)])
        try:
            w = cross_product(u, v)
        except DegenerateInputError:
            continue
        assert not any(_dot(u, w))
        assert not any(_dot(v, w))
        built += 1


def _entrywise_cross(u, v):
    """The cross product of the entries themselves, not of the ray keys."""
    a = [e.coefficients() for e in u.entries]
    b = [e.coefficients() for e in v.entries]
    return ExactVector(
        [QuadScalar(*map(operator.sub, _mul(a[i], b[j]), _mul(a[j], b[i])))
         for i, j in ((1, 2), (2, 0), (0, 1))],
        f"({u.label})x({v.label})",
    )


def test_cross_product_matches_entrywise_reference():
    rng = np.random.default_rng(43)
    for k in range(60):
        u = ExactVector([_random_scalar(rng) for _ in range(3)], f"u{k}")
        v = ExactVector([_random_scalar(rng) for _ in range(2)] + [R3], f"v{k}")
        w, expected = cross_product(u, v), _entrywise_cross(u, v)
        assert w == expected and w.ray_key() == expected.ray_key()
        assert w.label == expected.label == f"(u{k})x(v{k})"


def test_ray_equality_rational_scale():
    u = ExactVector([QuadScalar(1), R2, QuadScalar(0)])
    assert u == _scaled(u, Q(7, 3))
    assert u == _scaled(u, -2)
    assert hash(u) == hash(_scaled(u, 5))


def test_ray_equality_field_scale():
    # the same ray written with entries scaled by sqrt3
    u = ExactVector([QuadScalar(0), R3, R6])
    v = ExactVector([QuadScalar(0), QuadScalar(1), R2])
    assert u == v
    assert _scaled(u, R2) == u


def test_zero_vector_rejected():
    with pytest.raises(DegenerateInputError):
        ExactVector([0, 0, 0])


def test_rational_point_validation():
    p = RationalPoint(Q(3, 5), Q(-4, 5), 0)
    assert (p.triple, p.n) == ((3, -4, 0), 5)
    assert RationalPoint.from_triple(3, -4, 0, 5) == p
    with pytest.raises(ValueError):
        RationalPoint(Q(1, 2), Q(1, 2), 0)


@pytest.mark.parametrize("triple", [(2, 0, 0, 2), (1, 0, 0, -1), (1, 1, 1, 2)])
def test_from_triple_rejects_non_primitive_or_off_sphere(triple):
    with pytest.raises(ValueError, match="not a primitive point"):
        RationalPoint.from_triple(*triple)


@pytest.mark.parametrize("coords", [
    (1, 1, 0),
    (Q(2, 3), Q(2, 3), Q(2, 3)),
    (Q(3, 5), Q(4, 7), 0),
    # a sphere point (2m, m^2 - 1, 0) / n, n = m^2 + 1 with m = 2^40, and z = 1 / n:
    # the square sum is 1 + 1 / n^2
    (Q(2 << 40, (1 << 80) + 1), Q((1 << 80) - 1, (1 << 80) + 1), Q(1, (1 << 80) + 1)),
])
def test_rational_point_rejects_off_sphere(coords):
    with pytest.raises(ValueError, match="not on the unit sphere"):
        RationalPoint(*coords)


def test_rational_point_negation():
    p = RationalPoint(Q(2, 3), Q(-2, 3), Q(1, 3))
    q = -p
    assert q == RationalPoint(Q(-2, 3), Q(2, 3), Q(-1, 3))
    assert hash(q) == hash(RationalPoint(Q(-2, 3), Q(2, 3), Q(-1, 3)))
    assert all(isinstance(c, Q) for c in q.coords())
    assert -q == p
    for p in enumerate_pyth_points(12):
        for q in (p, -p):
            assert RationalPoint(*q.coords()) == q
            assert hash(RationalPoint(*q.coords())) == hash(q)
            assert -(-q) == q


def test_vector_set_json_roundtrip(tmp_path):
    vset = VectorSet(
        3,
        [
            ExactVector([QuadScalar(1), R2, QuadScalar(0)], "a"),
            ExactVector([0, 1, 1], "b"),
        ],
    )
    path = tmp_path / "set.json"
    vset.dump(path)
    loaded = VectorSet.load(path)
    assert loaded.dimension == 3
    assert [v.label for v in loaded] == ["a", "b"]
    assert all(x == y for x, y in zip(loaded, vset))


def test_vector_set_malformed(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ValueError, match="malformed"):
        VectorSet.load(path)


def test_orthogonality_scale_invariant():
    u = ExactVector([QuadScalar(1), R2, QuadScalar(0)])
    v = ExactVector([R2, QuadScalar(-1), QuadScalar(1)])
    assert orthogonal(u, v)
    assert orthogonal(_scaled(u, R3), _scaled(v, Q(-5, 2)))


def _division_ray_key(vector):
    """Reference ray key through the field inverse: divide every entry by the
    first nonzero one, clear denominators, then divide out the common factor."""
    inverse = _inverse(next(e.coefficients() for e in vector.entries if e))
    scaled = [_mul(e.coefficients(), inverse) for e in vector.entries]
    denom_lcm = reduce(math.lcm, (coef.denominator for row in scaled for coef in row), 1)
    ints = [[coef.numerator * (denom_lcm // coef.denominator) for coef in row] for row in scaled]
    common = reduce(math.gcd, (abs(x) for row in ints for x in row), 0)
    return tuple(tuple(x // common for x in row) for row in ints)


def _sparse_scalar(rng):
    """A random scalar with each coefficient zeroed with probability 1/2."""
    coefs = _random_scalar(rng).coefficients()
    return QuadScalar(*(c if rng.random() < 0.5 else 0 for c in coefs))


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_ray_key_matches_division_reference(dim):
    rng = np.random.default_rng(100 + dim)
    checked = 0
    while checked < 150:
        entries = [_sparse_scalar(rng) for _ in range(dim)]
        factor = _random_scalar(rng) if checked % 2 else _sparse_scalar(rng)
        if all(e.is_zero() for e in entries) or factor.is_zero():
            continue
        v = ExactVector(entries)
        w = _scaled(v, factor)
        assert v.ray_key() == _division_ray_key(v)
        assert w.ray_key() == _division_ray_key(w) == v.ray_key()
        lead = next(row for row in v.ray_key() if any(row))
        assert lead[0] > 0 and not any(lead[1:])
        checked += 1


@pytest.mark.parametrize("name", ["peres33", "cabello18"])
def test_orthogonal_matches_inner_product_on_builtin_sets(name):
    vectors = load_builtin(name).vectors
    hits = 0
    for u, v in product(vectors, vectors):
        assert orthogonal(u, v) == (not any(_dot(u, v)))
        hits += orthogonal(u, v)
    assert hits > 0


def test_orthogonal_matches_inner_product_random():
    rng = np.random.default_rng(41)
    hits = 0
    for _ in range(150):
        dim = int(rng.integers(2, 5))
        u = ExactVector([_plus(_sparse_scalar(rng), QuadScalar(1)) for _ in range(dim)])
        v = ExactVector([_sparse_scalar(rng) for _ in range(dim - 1)] + [QuadScalar(1)])
        pairs = [(u, v)]
        if dim == 3:
            try:
                w = _scaled(cross_product(u, v), _plus(_random_scalar(rng), QuadScalar(1, 1)))
                pairs += [(u, w), (w, _scaled(v, _plus(_sparse_scalar(rng), R3)))]
            except DegenerateInputError:
                continue
        for x, y in pairs:
            assert orthogonal(x, y) == (not any(_dot(x, y)))
            hits += orthogonal(x, y)
    assert hits > 50


def _pairwise_masks(vectors):
    """Reference masks from one `orthogonal` call per pair."""
    masks = [0] * len(vectors)
    for i, j in combinations(range(len(vectors)), 2):
        if orthogonal(vectors[i], vectors[j]):
            masks[i] |= 1 << j
    return masks


def _partner(v):
    """A vector orthogonal to v, for even dimension: swap in pairs, negate."""
    e = v.entries
    return ExactVector([x for k in range(0, len(e), 2) for x in (-e[k + 1], e[k])])


def _random_orthogonality_set(rng, dim):
    """Random Q(sqrt2, sqrt3) vectors, each followed by an orthogonal partner
    (a cross product with another member in d = 3), in shuffled order."""
    vectors = []
    while len(vectors) < 24:
        entries = [_sparse_scalar(rng) for _ in range(dim)]
        factor = _plus(_sparse_scalar(rng), R3)
        if all(e.is_zero() for e in entries) or factor.is_zero():
            continue
        v = ExactVector(entries)
        if dim == 3 and vectors:
            try:
                w = cross_product(v, vectors[int(rng.integers(len(vectors)))])
            except DegenerateInputError:
                continue
        else:
            w = _partner(v) if dim % 2 == 0 else v
        vectors += [v, _scaled(w, factor)]
    return [vectors[i] for i in rng.permutation(len(vectors))]


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_orthogonality_masks_match_pairwise_loop(dim):
    rng = np.random.default_rng(150 + dim)
    hits = 0
    for _ in range(6):
        vectors = _random_orthogonality_set(rng, dim)
        masks = orthogonality_masks(vectors)
        assert masks == _pairwise_masks(vectors)
        hits += sum(m.bit_count() for m in masks)
        # a key coefficient of 2^40 puts 12 * dim * M^2 over 2^63, so the
        # same set plus that vector runs on Python ints
        big = ExactVector([2**40] + [1] * (dim - 1))
        wide = orthogonality_masks(vectors + [big])
        assert wide == _pairwise_masks(vectors + [big])
        assert [m & ~(1 << len(vectors)) for m in wide[:-1]] == masks
    assert hits > 30


def test_orthogonality_masks_on_builtin_sets():
    for name in ("peres33", "cabello18"):
        vectors = load_builtin(name).vectors
        assert orthogonality_masks(vectors) == _pairwise_masks(vectors)


def test_orthogonality_masks_small_sets():
    assert orthogonality_masks([]) == []
    assert orthogonality_masks([ExactVector([R2, 1])]) == [0]
    assert orthogonality_masks([ExactVector([1, 1]), ExactVector([1, -1])]) == [0b10, 0]


def test_orthogonality_masks_exact_past_int64():
    # the key dot product is 2^64, which wraps to 0 in int64
    u, v = ExactVector([2**32, 1, 0]), ExactVector([2**32, 0, 1])
    assert not orthogonal(u, v)
    assert orthogonality_masks([u, v]) == [0, 0]


def test_orthogonality_masks_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        orthogonality_masks([ExactVector([1, 0]), ExactVector([0, 1, 0])])


@pytest.mark.parametrize(
    "payload, fragment",
    [
        ([], "positive integer 'dimension'"),
        ({"dimension": 2.5, "vectors": []}, "positive integer 'dimension'"),
        ({"dimension": True, "vectors": []}, "positive integer 'dimension'"),
        ({"dimension": 3, "vectors": []}, "nonempty 'vectors' list"),
        ({"dimension": 3, "vectors": {"entries": []}}, "nonempty 'vectors' list"),
        ({"dimension": 1, "vectors": ["x"]}, "vector 0 needs an 'entries' list"),
        ({"dimension": 1, "vectors": [{"label": 7, "entries": [[[1, 1]] * 4]}]},
         "vector 0 has a non-string label"),
        ({"dimension": 1, "vectors": [{"entries": [[[1.5, 1]] * 4]}]}, "vector 0 entry 0"),
        ({"dimension": 1, "vectors": [{"entries": [[[1, 1, 1]] * 4]}]}, "vector 0 entry 0"),
        ({"dimension": 2, "vectors": [{"entries": [[[1, 1]] * 4]}]}, "expected 2"),
        ({"dimension": 1, "vectors": [{"entries": [[[0, 1]] * 4]}]}, "zero vector"),
    ],
)
def test_vector_set_payload_faults(payload, fragment):
    with pytest.raises(ValueError, match=re.escape(fragment)):
        VectorSet.from_json_dict(payload)
