"""Dense 0/1 coloring of the rational unit sphere via Pythagorean triples.

Every rational point of S^2 lies on the axis of a primitive integer triple
(x, y, z) with x^2 + y^2 + z^2 = n^2.  The color is decided by the parity
of the third coordinate of that primitive triple: odd maps to 0, even to 1.
A RationalPoint holds that primitive triple, so the enumeration and the
check run on int64 arrays of triples, with exact integer dot and cross
products; only the violations come back as tuples.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exact import RationalPoint

# largest `meyer verify --max-n`; the O(R^2) pair scan takes seconds there
MAX_N = 200
# int64 dot and cross products of rays with coordinates up to 2^30 are exact
MAX_COORDINATE = 1 << 30
# entries of one enumeration slab and of one block of the pair scan
_BLOCK_ENTRIES = 1 << 15
# rows of a scan block at least, so that above 2^15 rays a block is not one row
_MIN_BLOCK_ROWS = 16


@dataclass(frozen=True)
class ConditionReport:
    """Violation tally for the three coloring conditions over a point list."""

    rays: int
    pairs: int
    triads: int
    antipodal_violations: tuple
    pair_violations: tuple
    triad_violations: tuple

    @property
    def violations(self) -> int:
        return (
            len(self.antipodal_violations)
            + len(self.pair_violations)
            + len(self.triad_violations)
        )


def _first_nonzero(t):
    """The first nonzero entry of each row (0 for a zero row)."""
    return t[np.arange(len(t)), np.argmax(t != 0, axis=1)]


def _canonical_rows(t):
    """One representative per axis: flip each row whose first nonzero is negative."""
    return np.where(_first_nonzero(t)[:, None] < 0, -t, t)


def meyer_color(p: RationalPoint) -> int:
    """0 when the primitive triple's third coordinate is odd, else 1."""
    return _triple_color(p.triple)


def _triple_color(t):
    """The color rule on a triple, or on the rows of a (3, R) int array."""
    return 1 - t[2] % 2


def enumerate_pyth_points(max_n: int) -> list[RationalPoint]:
    """All primitive Pythagorean rays with hypotenuse at most max_n.

    Scans the integer points of the half cube x >= 0 of [-max_n, max_n]^3
    in int64 slabs of at most _BLOCK_ENTRIES points, in (x, y, z) order,
    and keeps those with x^2 + y^2 + z^2 = n^2 for an integer
    0 < n <= max_n, coprime coordinates and a positive first nonzero
    coordinate.  Returns one rational sphere point per axis, built from its
    triple by the checking RationalPoint.from_triple, in sorted ray order.
    """
    if max_n < 1:
        raise ValueError("max_n must be at least 1")
    line = np.arange(-max_n, max_n + 1, dtype=np.int64)
    # the (x, y) rows of the half cube, each holding every z of the line
    xs, ys = np.repeat(line[max_n:], len(line)), np.tile(line, max_n + 1)
    xy2, z2 = xs * xs + ys * ys, line * line
    # root[s] = n where s = n^2 for 0 < n <= max_n, else 0; s past the
    # table reads its last entry
    root = np.zeros(max_n * max_n + 2, dtype=np.int64)
    root[z2[max_n:]] = line[max_n:]
    step = max(1, _BLOCK_ENTRIES // len(line))
    found = []
    for lo in range(0, len(xs), step):
        s = xy2[lo:lo + step, None] + z2
        n = root[np.minimum(s, len(root) - 1, out=s)]
        r, c = np.nonzero(n)
        t = np.column_stack([xs[lo + r], ys[lo + r], line[c]])
        keep = (np.gcd.reduce(t, axis=1) == 1) & (_first_nonzero(t) > 0)
        found.append(np.column_stack([t[keep], n[r, c][keep]]))
    return [RationalPoint.from_triple(x, y, z, n)
            for x, y, z, n in np.concatenate(found).tolist()]


def verify_meyer_conditions(points: list[RationalPoint]) -> ConditionReport:
    """Check antipodal invariance, the pair rule and the triad sum rule.

    Works on the int64 array of the points' primitive triples; points on
    the same axis are merged.  Orthogonal pairs come from one scan of the
    upper triangle of the ray Gram matrix in row blocks, triads from
    looking up the canonical reduced cross product of each pair, as a
    tuple, in an index of the rays; both are listed in sorted ray order.
    Raises ValueError when a primitive coordinate exceeds MAX_COORDINATE,
    where int64 products could overflow.

    Why there are no violations (Meyer, PRL 83 (1999) 3751): squares are 0
    or 1 mod 4, so the number of odd coordinates of x^2 + y^2 + z^2 = n^2
    is 0 or 1 mod 4; a primitive triple has some odd coordinate, so it has
    exactly one (and n is odd).  Two orthogonal primitive rays have their
    odd coordinate in different places, since otherwise their dot product
    is odd.  So an orthogonal pair holds at most one ray with odd z
    (color 0), and a triad, whose three odd places are distinct, exactly
    one: every pair sum is at least 1 and every triad sum is 2.  The scan
    still checks each pair and triad; the lemma explains its result.
    """
    coordinates = [c for p in points for c in p.triple]
    if max(map(abs, coordinates), default=0) > MAX_COORDINATE:
        raise ValueError(f"a primitive coordinate exceeds {MAX_COORDINATE}, the int64 bound")
    triples = np.array(coordinates, dtype=np.int64).reshape(-1, 3)

    antipodal = np.flatnonzero(_triple_color(triples.T) != _triple_color(-triples.T))
    antipodal_violations = tuple(points[k].coords() for k in antipodal.tolist())

    a = np.unique(_canonical_rows(triples), axis=0)
    block = max(_MIN_BLOCK_ROWS, _BLOCK_ENTRIES // max(1, len(a)))
    rows, cols = [np.empty(0, dtype=np.intp)], [np.empty(0, dtype=np.intp)]
    for lo in range(0, len(a), block):
        i, j = np.nonzero(a[lo:lo + block] @ a[lo:].T == 0)
        upper = j > i
        rows.append(i[upper] + lo)
        cols.append(j[upper] + lo)
    i, j = np.concatenate(rows), np.concatenate(cols)
    pairs = len(i)

    def rays_at(index):
        return map(tuple, a[index].tolist())

    colors = _triple_color(a.T)
    bad = colors[i] + colors[j] < 1
    pair_violations = tuple(zip(rays_at(i[bad]), rays_at(j[bad])))

    # the canonical reduced cross product of each pair, looked up among the
    # rays (-1 when it is none); each triad once, from its first two rays
    w = np.cross(a[i], a[j])
    w = _canonical_rows(w // np.gcd.reduce(w, axis=1, keepdims=True))
    index = {ray: k for k, ray in enumerate(map(tuple, a.tolist()))}
    k = np.array([index.get(ray, -1) for ray in map(tuple, w.tolist())], dtype=np.intp)
    third = k > j
    i, j, k = i[third], j[third], k[third]
    bad = colors[i] + colors[j] + colors[k] != 2
    triad_violations = tuple(zip(rays_at(i[bad]), rays_at(j[bad]), rays_at(k[bad])))

    return ConditionReport(
        rays=len(a),
        pairs=pairs,
        triads=len(i),
        antipodal_violations=antipodal_violations,
        pair_violations=pair_violations,
        triad_violations=triad_violations,
    )
