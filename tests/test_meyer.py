"""Pythagorean coloring of the rational sphere."""

import math
import random
from fractions import Fraction as Q
from itertools import combinations

import pytest

from qfoundry import meyer
from qfoundry.exact import RationalPoint
from qfoundry.meyer import (
    ConditionReport,
    enumerate_pyth_points,
    meyer_color,
    verify_meyer_conditions,
)

# frozen counts for the corpus at max_n = 25, cross-checked below by an
# independent enumeration over non-primitive triples
RAYS_25 = 543
PAIRS_25 = 735
TRIADS_25 = 205


def _triple(p):
    return (*p.triple, p.n)


def test_primitive_examples():
    assert _triple(RationalPoint(0, 0, 1)) == (0, 0, 1, 1)
    assert _triple(RationalPoint(Q(2, 3), Q(2, 3), Q(1, 3))) == (2, 2, 1, 3)
    assert _triple(RationalPoint(Q(3, 5), Q(-4, 5), 0)) == (3, -4, 0, 5)


def test_pyth_triple_validation():
    with pytest.raises(ValueError):
        RationalPoint.from_triple(1, 1, 1, 2)


def test_color_examples():
    assert meyer_color(RationalPoint(0, 0, 1)) == 0
    assert meyer_color(RationalPoint(1, 0, 0)) == 1
    assert meyer_color(RationalPoint(Q(2, 3), Q(2, 3), Q(1, 3))) == 0


def test_coordinate_triad_colors():
    triad = [RationalPoint(1, 0, 0), RationalPoint(0, 1, 0), RationalPoint(0, 0, 1)]
    colors = [meyer_color(p) for p in triad]
    assert colors == [1, 1, 0]
    assert sum(colors) == 2


def test_primitive_triad_colors():
    # pairwise orthogonal integer triples on the n=3 sphere
    triad = [(2, 2, 1), (2, -1, -2), (1, -2, 2)]
    for a in range(3):
        for b in range(a + 1, 3):
            assert sum(x * y for x, y in zip(triad[a], triad[b])) == 0
    points = [RationalPoint(Q(x, 3), Q(y, 3), Q(z, 3)) for x, y, z in triad]
    colors = [meyer_color(p) for p in points]
    assert colors == [0, 1, 1]
    assert sum(colors) == 2


def test_orthogonal_pair_rule():
    pair = [RationalPoint(0, 0, 1), RationalPoint(1, 0, 0)]
    assert meyer_color(pair[0]) + meyer_color(pair[1]) >= 1


def test_enumerate_n1():
    points = enumerate_pyth_points(1)
    assert len(points) == 3  # the three coordinate axes as rays


def test_enumerate_n3_contains_221():
    points = enumerate_pyth_points(3)
    triples = {p.triple for p in points}
    # the (2,2,1) ray in canonical sign, and permuted/sign variants
    assert (2, 2, 1) in triples
    assert (2, -2, 1) in triples or (-2, 2, -1) in triples
    assert (1, 2, 2) in triples
    assert (2, 1, 2) in triples


def test_exactly_one_odd_coordinate():
    for p in enumerate_pyth_points(15):
        assert math.gcd(*p.triple) == 1
        odd = sum(1 for c in p.triple if c % 2)
        assert odd == 1


def test_antipodal_invariance():
    for p in enumerate_pyth_points(10):
        assert meyer_color(p) == meyer_color(-p)


# rays, pairs and triads of the corpus by max_n
FROZEN_COUNTS = {25: (RAYS_25, PAIRS_25, TRIADS_25), 60: (2943, 4215, 1093),
                 100: (8247, 12831, 3053)}


@pytest.mark.parametrize("max_n", FROZEN_COUNTS)
def test_frozen_counts_and_no_violations(max_n):
    report = verify_meyer_conditions(enumerate_pyth_points(max_n))
    assert (report.rays, report.pairs, report.triads) == FROZEN_COUNTS[max_n]
    assert report.violations == 0


def test_check_runs_on_triples_without_fractions(monkeypatch):
    def refuse(self):
        raise AssertionError("Fraction coordinates")

    monkeypatch.setattr(RationalPoint, "coords", refuse)
    report = verify_meyer_conditions(enumerate_pyth_points(25))
    assert (report.rays, report.pairs, report.triads) == (RAYS_25, PAIRS_25, TRIADS_25)
    assert report.violations == 0


def test_ray_count_oracle_n12():
    """Independent oracle: enumerate all (not only primitive) triples and
    reduce each to its primitive ray."""
    max_n = 12
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
    points = enumerate_pyth_points(max_n)
    assert [p.triple for p in points] == sorted(rays)
    for p in points:
        assert p == RationalPoint(*(Q(c, p.n) for c in p.triple))


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


def _combinations_reference(points):
    """The pair scan as plain Python: every pair of sorted primitive rays,
    exact dot products, triads from the gcd-reduced cross products."""
    rays = sorted({_sign_flip(p.triple) for p in points})
    antipodal = tuple(p.coords() for p in points if meyer_color(p) != meyer_color(-p))
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


@pytest.mark.parametrize("max_n", [25, 40])
def test_block_scan_matches_combinations_reference(max_n):
    points = enumerate_pyth_points(max_n)
    assert verify_meyer_conditions(points) == _combinations_reference(points)


def _mixed_points(max_n, seed):
    """The corpus with some antipodes and duplicates added, shuffled."""
    rng = random.Random(seed)
    points = enumerate_pyth_points(max_n)
    mixed = points + [-p for p in rng.sample(points, len(points) // 3)]
    mixed += rng.sample(points, len(points) // 4)
    rng.shuffle(mixed)
    return mixed


def test_shuffled_antipodes_and_duplicates_match_reference():
    points = _mixed_points(25, 1)
    report = verify_meyer_conditions(points)
    assert report == _combinations_reference(points)
    assert (report.rays, report.pairs, report.triads) == (RAYS_25, PAIRS_25, TRIADS_25)


def test_empty_point_list():
    assert verify_meyer_conditions([]) == ConditionReport(0, 0, 0, (), (), ())


def test_wrong_color_rule_reported_like_reference(monkeypatch):
    # the inverted rule (odd z maps to 1) puts exactly one 1 in each triad and
    # two 0s in each pair of even-z rays (parity of any other axis would pass
    # by the same lemma); the block scan must name the same violations as
    # the reference, in the same order
    monkeypatch.setattr(meyer, "_triple_color", lambda t: t[2] % 2)
    points = enumerate_pyth_points(25)
    report = verify_meyer_conditions(points)
    assert report.pair_violations and report.triad_violations
    assert report == _combinations_reference(points)


def test_sign_dependent_rule_reports_antipodes_in_input_order(monkeypatch):
    # odd z = 1 mod 4 differs between a ray and its antipode, so every input
    # point with odd z is an antipodal violation, listed in input order
    monkeypatch.setattr(meyer, "_triple_color", lambda t: (t[2] % 4 == 1) * 1)
    points = _mixed_points(10, 2)
    report = verify_meyer_conditions(points)
    assert report.antipodal_violations
    assert report == _combinations_reference(points)


def test_coordinate_over_int64_bound_rejected():
    # (2m, m^2 - 1, 0) / (m^2 + 1) is primitive with a coordinate of 2^32 - 1
    m = 1 << 16
    far = RationalPoint(Q(2 * m, m * m + 1), Q(m * m - 1, m * m + 1), 0)
    assert math.gcd(*far.triple) == 1 and max(far.triple) == m * m - 1
    with pytest.raises(ValueError, match="exceeds"):
        verify_meyer_conditions([RationalPoint(0, 0, 1), far])


def test_triad_of_large_rays_found():
    # coordinates near 2^28, whose cross products pass 2^56: the triad
    # through the z axis must still be found
    m = 1 << 14
    n = m * m + 1
    points = [RationalPoint(0, 0, 1), RationalPoint(Q(2 * m, n), Q(m * m - 1, n), 0),
              RationalPoint(Q(m * m - 1, n), Q(-2 * m, n), 0), RationalPoint(Q(3, 5), Q(4, 5), 0)]
    report = verify_meyer_conditions(points)
    assert (report.rays, report.pairs, report.triads) == (4, 4, 1)
    assert report == _combinations_reference(points)


def test_cross_product_past_ray_bound_is_no_ray():
    # the rays' entries lie in [-24, 24]; (0, 4, 3) x (12, 3, -4) reduces to
    # (25, -36, 48), which packed base 51 without a bound would alias the ray
    # (24, 16, -3): it must not count as a triad
    points = [RationalPoint(Q(x, n), Q(y, n), Q(z, n)) for x, y, z, n in
              ((0, 4, 3, 5), (0, 7, -24, 25), (12, 3, -4, 13), (24, 16, -3, 29))]
    report = verify_meyer_conditions(points)
    assert (report.pairs, report.triads) == (1, 0)
    assert report == _combinations_reference(points)


def test_denominators_over_int64_rejected_before_conversion():
    # the same axis family at m = 2^40: numerators and denominators near 2^80
    m = 1 << 40
    far = RationalPoint(Q(2 * m, m * m + 1), Q(m * m - 1, m * m + 1), 0)
    with pytest.raises(ValueError, match="exceeds"):
        verify_meyer_conditions([RationalPoint(0, 0, 1), far])


def test_parity_lemma_max_n_25():
    """Why the check finds no violation: each primitive ray has exactly one
    odd coordinate, orthogonal rays have it in different places, so every
    triad holds exactly one ray with odd z (color 0)."""
    rays = [p.triple for p in enumerate_pyth_points(25)]

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
