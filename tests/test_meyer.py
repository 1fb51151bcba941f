"""Pythagorean coloring of the rational sphere."""

import math
import random
from itertools import combinations

import numpy as np
import pytest

from qfoundry import meyer
from qfoundry.meyer import (
    ConditionReport,
    enumerate_pyth_points,
    verify_meyer_conditions,
)

from test_exact import _spy_product_dtype

# frozen counts for the corpus at max_n = 25, cross-checked below by an
# independent enumeration over non-primitive triples
RAYS_25 = 543
PAIRS_25 = 735
TRIADS_25 = 205


def _rows(*rows):
    """Rows [x, y, z, n] as an (R, 4) int64 array."""
    return np.array(rows, dtype=np.int64).reshape(-1, 4)


def _negated(rows):
    """The antipodes of rows: each triple negated, n kept."""
    return np.column_stack([-rows[:, :3], rows[:, 3]])


def test_pyth_triple_validation():
    # every enumerated row passes the row check, and one row off the sphere
    # among them, (1, 1, 1, 2), is refused wherever it stands
    rows = enumerate_pyth_points(5)
    assert verify_meyer_conditions(rows).rays == len(rows)
    for at in (0, len(rows) // 2, len(rows)):
        with pytest.raises(ValueError, match="not a primitive point"):
            verify_meyer_conditions(np.insert(rows, at, (1, 1, 1, 2), axis=0))


def test_color_examples():
    assert meyer._triple_color((0, 0, 1)) == 0
    assert meyer._triple_color((1, 0, 0)) == 1
    assert meyer._triple_color((2, 2, 1)) == 0


def test_coordinate_triad_colors():
    triad = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    colors = [meyer._triple_color(t) for t in triad]
    assert colors == [1, 1, 0]
    assert sum(colors) == 2


def test_primitive_triad_colors():
    # pairwise orthogonal integer triples on the n=3 sphere
    triad = [(2, 2, 1), (2, -1, -2), (1, -2, 2)]
    for a in range(3):
        for b in range(a + 1, 3):
            assert sum(x * y for x, y in zip(triad[a], triad[b])) == 0
    colors = [meyer._triple_color(t) for t in triad]
    assert colors == [0, 1, 1]
    assert sum(colors) == 2


def test_orthogonal_pair_rule():
    pair = [(0, 0, 1), (1, 0, 0)]
    assert meyer._triple_color(pair[0]) + meyer._triple_color(pair[1]) >= 1


def test_enumerate_n1():
    assert len(enumerate_pyth_points(1)) == 3  # the three coordinate axes as rays


def test_enumerate_n3_contains_221():
    triples = {tuple(r[:3]) for r in enumerate_pyth_points(3).tolist()}
    # the (2,2,1) ray in canonical sign, and permuted/sign variants
    assert (2, 2, 1) in triples
    assert (2, -2, 1) in triples or (-2, 2, -1) in triples
    assert (1, 2, 2) in triples
    assert (2, 1, 2) in triples


def test_exactly_one_odd_coordinate():
    for *t, n in enumerate_pyth_points(15).tolist():
        assert math.gcd(*t) == 1
        odd = sum(1 for c in t if c % 2)
        assert odd == 1


def test_antipodal_invariance():
    for x, y, z, n in enumerate_pyth_points(10).tolist():
        assert meyer._triple_color((x, y, z)) == meyer._triple_color((-x, -y, -z))


# rays, pairs and triads of the corpus by max_n
FROZEN_COUNTS = {25: (RAYS_25, PAIRS_25, TRIADS_25), 60: (2943, 4215, 1093),
                 100: (8247, 12831, 3053), 200: (32595, 55443, 12129)}


@pytest.mark.parametrize("max_n", FROZEN_COUNTS)
def test_frozen_counts_and_no_violations(max_n):
    report = verify_meyer_conditions(enumerate_pyth_points(max_n))
    assert (report.rays, report.pairs, report.triads) == FROZEN_COUNTS[max_n]
    assert report.violations == 0


def test_check_runs_on_triples_without_fractions():
    # the enumeration's int64 rows go to the check as they are
    rows = enumerate_pyth_points(25)
    assert rows.dtype == np.int64 and rows.shape == (RAYS_25, 4)
    report = verify_meyer_conditions(rows)
    assert (report.rays, report.pairs, report.triads) == (RAYS_25, PAIRS_25, TRIADS_25)
    assert report.violations == 0


@pytest.mark.parametrize("max_n", [1, 2, 5, 12])
def test_ray_count_oracle(max_n):
    """Independent oracle: enumerate all (not only primitive) triples and
    reduce each to its primitive ray."""
    rays = set()
    for x in range(-max_n, max_n + 1):
        for y in range(-max_n, max_n + 1):
            for z in range(-max_n, max_n + 1):
                if x == y == z == 0:
                    continue
                nn = x * x + y * y + z * z
                n = math.isqrt(nn)
                if n * n != nn or n > max_n:
                    continue
                g = math.gcd(x, y, z)
                t = (x // g, y // g, z // g)
                for v in t:
                    if v:
                        if v < 0:
                            t = tuple(-c for c in t)
                        break
                rays.add(t)
    rows = enumerate_pyth_points(max_n).tolist()
    assert [tuple(t) for *t, n in rows] == sorted(rays)
    for x, y, z, n in rows:
        assert n > 0 and x * x + y * y + z * z == n * n


def test_report_structure_small():
    report = verify_meyer_conditions(enumerate_pyth_points(5))
    assert report.violations == 0
    assert report.rays >= 3
    assert report.triads >= 1


def _dot(u, v):
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def _sign_flip(t):
    """The tuple negated when its first nonzero entry is negative."""
    return tuple(-c for c in t) if next(c for c in t if c) < 0 else t


def _combinations_reference(rows):
    """The pair scan as plain Python: every pair of sorted primitive rays,
    exact dot products, triads from the gcd-reduced cross products."""
    rows = [tuple(r) for r in rows.tolist()]
    rays = sorted({_sign_flip(r[:3]) for r in rows})
    antipodal = tuple(r for r in rows if meyer._triple_color(r[:3])
                      != meyer._triple_color(tuple(-c for c in r[:3])))
    colors = {r: meyer._triple_color(r) for r in rays}
    orth = [(u, v) for u, v in combinations(rays, 2) if _dot(u, v) == 0]
    triads = set()
    for u, v in orth:
        w = (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0])
        g = math.gcd(*w)
        w = _sign_flip(tuple(c // g for c in w))
        if w in colors:
            triads.add(tuple(sorted((u, v, w))))
    return ConditionReport(
        rays=len(rays),
        pairs=len(orth),
        triads=len(triads),
        antipodal_violations=antipodal,
        pair_violations=tuple((u, v) for u, v in orth if colors[u] + colors[v] < 1),
        triad_violations=tuple(t for t in sorted(triads) if sum(colors[r] for r in t) != 2),
    )


@pytest.mark.parametrize("max_n", [1, 5, 25, 40])
def test_block_scan_matches_combinations_reference(max_n):
    rows = enumerate_pyth_points(max_n)
    assert verify_meyer_conditions(rows) == _combinations_reference(rows)


def _mixed_points(max_n, seed):
    """The corpus rows with some antipodes and duplicates added, shuffled."""
    rng = random.Random(seed)
    rows = enumerate_pyth_points(max_n)
    every = range(len(rows))
    mixed = np.concatenate([rows, _negated(rows[rng.sample(every, len(rows) // 3)]),
                            rows[rng.sample(every, len(rows) // 4)]])
    order = list(range(len(mixed)))
    rng.shuffle(order)
    return mixed[order]


def test_shuffled_antipodes_and_duplicates_match_reference():
    rows = _mixed_points(25, 1)
    report = verify_meyer_conditions(rows)
    assert report == _combinations_reference(rows)
    assert (report.rays, report.pairs, report.triads) == (RAYS_25, PAIRS_25, TRIADS_25)


def test_unique_rows_matches_np_unique():
    rows = enumerate_pyth_points(25)[:, :3]
    rng = np.random.default_rng(5)
    canonical = meyer._canonical_rows(rows)
    cases = {
        "shuffled": rng.permutation(canonical),
        "duplicated": rng.permutation(np.concatenate([canonical, canonical[::3]])),
        "antipodal": rng.permutation(np.concatenate([rows, -rows])),
        "one": rows[:1],
        "empty": rows[:0],
    }
    for name, t in cases.items():
        got = meyer._unique_rows(t)
        assert got.dtype == np.int64 and got.shape[1:] == (3,), name
        assert np.array_equal(got, np.unique(t, axis=0)), name


def test_empty_point_list():
    assert verify_meyer_conditions(_rows()) == ConditionReport(0, 0, 0, (), (), ())


def test_wrong_color_rule_reported_like_reference(monkeypatch):
    # the inverted rule (odd z maps to 1) puts exactly one 1 in each triad and
    # two 0s in each pair of even-z rays (parity of any other axis would pass
    # by the same lemma); the block scan must name the same violations as
    # the reference, in the same order
    monkeypatch.setattr(meyer, "_triple_color", lambda t: t[2] % 2)
    rows = enumerate_pyth_points(25)
    report = verify_meyer_conditions(rows)
    assert report.pair_violations and report.triad_violations
    assert report == _combinations_reference(rows)


def test_sign_dependent_rule_reports_antipodes_in_input_order(monkeypatch):
    # odd z = 1 mod 4 differs between a ray and its antipode, so every input
    # row with odd z is an antipodal violation, listed in input order
    monkeypatch.setattr(meyer, "_triple_color", lambda t: (t[2] % 4 == 1) * 1)
    rows = _mixed_points(10, 2)
    report = verify_meyer_conditions(rows)
    assert report.antipodal_violations
    assert report == _combinations_reference(rows)


def test_coordinate_over_int64_bound_rejected():
    # (2m, m^2 - 1, 0) / (m^2 + 1) is primitive with a coordinate of 2^32 - 1
    m = 1 << 16
    far = (2 * m, m * m - 1, 0, m * m + 1)
    assert math.gcd(*far[:3]) == 1 and max(far[:3]) == m * m - 1
    with pytest.raises(ValueError, match="exceeds"):
        verify_meyer_conditions(_rows((0, 0, 1, 1), far))


def _large_rays():
    # coordinates near 2^28, whose cross products pass 2^56
    m = 1 << 14
    n = m * m + 1
    return _rows((0, 0, 1, 1), (2 * m, m * m - 1, 0, n), (m * m - 1, -2 * m, 0, n), (3, 4, 0, 5))


def _rays_with_cross_product_past_bound():
    # the rays' entries lie in [-24, 24]; (0, 4, 3) x (12, 3, -4) reduces to
    # (25, -36, 48), which packed base 51 without a bound would alias the ray
    # (24, 16, -3)
    return _rows((0, 4, 3, 5), (0, 7, -24, 25), (12, 3, -4, 13), (24, 16, -3, 29))


def test_triad_of_large_rays_found():
    # the triad through the z axis must still be found
    rows = _large_rays()
    report = verify_meyer_conditions(rows)
    assert (report.rays, report.pairs, report.triads) == (4, 4, 1)
    assert report == _combinations_reference(rows)


def test_cross_product_past_ray_bound_is_no_ray():
    # (25, -36, 48) must not count as a triad
    rows = _rays_with_cross_product_past_bound()
    report = verify_meyer_conditions(rows)
    assert (report.pairs, report.triads) == (1, 0)
    assert report == _combinations_reference(rows)


def _ray_array(rows):
    """The distinct canonical rays of rows as a sorted (R, 3) int64 array."""
    return meyer._unique_rows(meyer._canonical_rows(rows[:, :3]))


def _upper_triangle_pairs(a):
    """Reference pair scan: the zeros above the diagonal of the Gram matrix
    of the sorted rays a, in row blocks of at least 16 rows, in order."""
    block = max(16, (1 << 15) // max(1, len(a)))
    rows, cols = [np.empty(0, dtype=np.intp)], [np.empty(0, dtype=np.intp)]
    for lo in range(0, len(a), block):
        i, j = np.nonzero(a[lo:lo + block] @ a[lo:].T == 0)
        upper = j > i
        rows.append(i[upper] + lo)
        cols.append(j[upper] + lo)
    return np.concatenate(rows), np.concatenate(cols)


def _class_gram(a):
    """Dot products mod 4 of the distinct residue vectors mod 4 of the rows of a."""
    classes = np.unique(a % 4, axis=0)
    return classes @ classes.T % 4


# the dtype is checked as well as the pairs: a float64 product past 2^53 can
# still come out right, with a fused multiply-add
@pytest.mark.parametrize("rows, dtype", [
    *(pytest.param(lambda n=n: enumerate_pyth_points(n), np.float64, id=f"corpus-{n}")
      for n in (1, 5, 25, 40, 60, 100)),
    pytest.param(lambda: _mixed_points(25, 1), np.float64, id="mixed-25"),
    # 3 * M^2 is about 2^57.6
    pytest.param(_large_rays, np.int64, id="large-rays"),
    pytest.param(_rays_with_cross_product_past_bound, np.float64, id="cross-product-past-bound"),
])
def test_residue_sieve_matches_upper_triangle_scan(monkeypatch, rows, dtype):
    chosen = _spy_product_dtype(monkeypatch)
    a = _ray_array(rows())
    i, j = meyer._orthogonal_pairs(a)
    ref_i, ref_j = _upper_triangle_pairs(a)
    assert np.array_equal(i, ref_i) and np.array_equal(j, ref_j)
    assert chosen and all(d is dtype for d in chosen)
    # the sieve never pairs a class with itself: p . p = n^2 = 1 mod 4
    assert (np.diag(_class_gram(a)) == 1).all()


def test_parity_lemma_max_n_25():
    """Why the check finds no violation: each primitive ray has exactly one
    odd coordinate, orthogonal rays have it in different places, so every
    triad holds exactly one ray with odd z (color 0)."""
    rays = [tuple(t) for *t, n in enumerate_pyth_points(25).tolist()]

    def odd_place(r):
        (place,) = [k for k, c in enumerate(r) if c % 2]
        return place

    places = {r: odd_place(r) for r in rays}
    # the census is symmetric in the three axes
    assert [list(places.values()).count(k) for k in range(3)] == [RAYS_25 // 3] * 3
    orth = [(u, v) for u, v in combinations(rays, 2) if _dot(u, v) == 0]
    assert len(orth) == PAIRS_25
    assert all(places[u] != places[v] for u, v in orth)
    orth_set = set(orth)
    triads = [(u, v, w) for u, v in orth for w in rays
              if w > v and (u, w) in orth_set and (v, w) in orth_set]
    assert len(triads) == TRIADS_25
    assert all(sum(r[2] % 2 for r in t) == 1 for t in triads)
    # the two even coordinates agree mod 4, so the rays fall in the 12
    # residue classes mod 4, of which 24 pairs can be orthogonal
    gram = _class_gram(np.array(rays, dtype=np.int64))
    assert len(gram) == 12
    assert np.count_nonzero(np.triu(gram == 0)) == 24


@pytest.mark.parametrize("rows, expected", [
    pytest.param(_rows((2, 0, 0, 2)), "not a primitive point", id="non-primitive"),
    pytest.param(_rows((1, 0, 0, -1)), "not a primitive point", id="negative-n"),
    pytest.param(_rows((1, 1, 1, 2)), "not a primitive point", id="off-sphere"),
    # no n past 2^31 lies on the sphere, and its square would pass int64
    pytest.param(_rows((0, 0, 1, 1 << 62)), "not a primitive point", id="n-past-int64-square"),
    pytest.param(np.zeros((1, 3), dtype=np.int64), "integer array", id="three-columns"),
    pytest.param(np.array([[0.0, 0.0, 1.0, 1.0]]), "integer array", id="float"),
    # a sphere point (2m, m^2 - 1, 0) / (m^2 + 1) at m = 2^40, as Python ints
    pytest.param(np.array([(0, 0, 1, 1), (2 << 40, (1 << 80) - 1, 0, (1 << 80) + 1)],
                          dtype=object), "integer array", id="object-past-int64"),
    # only the triple is bounded: n = 2^30 + 1 of (2m, m^2 - 1, 0) at m = 2^15
    pytest.param(_rows((1 << 16, (1 << 30) - 1, 0, (1 << 30) + 1), (0, 0, 1, 1)), (2, 1),
                 id="n-past-coordinate-bound"),
])
def test_row_validation(rows, expected):
    if isinstance(expected, str):
        with pytest.raises(ValueError, match=expected):
            verify_meyer_conditions(rows)
    else:
        report = verify_meyer_conditions(rows)
        assert (report.rays, report.pairs) == expected


def _meeting_triples():
    """The class triples of the table that meet pairwise."""
    meets = meyer._MEETS
    return {(a, b, c) for a, b, c in combinations(range(len(meets)), 3)
            if meets[a, b] and meets[a, c] and meets[b, c]}


def test_class_table():
    residues, meets = meyer._RESIDUES, meyer._MEETS
    assert len(residues) == 12
    assert ((residues * residues).sum(axis=1) % 8 == 1).all()
    assert (meyer._CLASS[tuple(residues.T)] == np.arange(12)).all()
    assert np.count_nonzero(meyer._CLASS >= 0) == 12
    assert (meets == meets.T).all() and not meets.diagonal().any()
    assert np.count_nonzero(np.triu(meets)) == 24
    assert len(_meeting_triples()) == 16


@pytest.mark.parametrize("max_n, pairs, triples", [(5, 20, 10), (10, 24, 16), (25, 24, 16),
                                                   (60, 24, 16)])
def test_class_table_realised_by_corpus(max_n, pairs, triples):
    # the class pairs of the orthogonal pairs and the class triples of the
    # triads lie in the table, and from max_n 10 on they are all of it
    a = _ray_array(enumerate_pyth_points(max_n))
    key = meyer._CLASS[tuple((a % 4).T)]
    i, j = meyer._orthogonal_pairs(a)
    w = np.cross(a[i], a[j])
    k = meyer._find_rows(a, meyer._canonical_rows(w // np.gcd.reduce(w, axis=1, keepdims=True)))
    third = k > j
    met_pairs = {tuple(sorted(p)) for p in zip(key[i].tolist(), key[j].tolist())}
    met_triples = {tuple(sorted(t)) for t in zip(
        key[i[third]].tolist(), key[j[third]].tolist(), key[k[third]].tolist())}
    assert met_pairs <= set(zip(*np.nonzero(np.triu(meyer._MEETS)))) and len(met_pairs) == pairs
    assert met_triples <= _meeting_triples() and len(met_triples) == triples
