"""Dense 0/1 coloring of the rational unit sphere via Pythagorean triples.

Every rational point of S^2 is (x, y, z) / n for a primitive integer triple
with x^2 + y^2 + z^2 = n^2, so the layer holds the corpus as one sorted
(R, 4) int64 array of rows [x, y, z, n], from the enumeration to the
verdict.  The color is decided by the parity of the third coordinate: odd
maps to 0, even to 1.  Dot and cross products are exact: the pair scan's
matrix products are the blocks of `exact.product_blocks`, on float64 BLAS
while every sum is an integer float64 holds, and the cross products run
on int64; only the violations come back as tuples.  One table of
the 12 residue classes mod 4 of primitive triples, and of the class pairs
that can be orthogonal, drives both the enumeration's sieve and the pair
scan.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exact import product_blocks

# largest `meyer verify --max-n`; its 32595 rays take about a quarter of a
# second to check, most of it in the pair scan: a third of the R^2 / 2
# products, in about 2100 blocks of `exact.product_blocks`
MAX_N = 200
# int64 dot and cross products of rays with coordinates up to 2^30 are exact
MAX_COORDINATE = 1 << 30
# entries of one enumeration slab
_BLOCK_ENTRIES = 1 << 15

# The residue classes mod 4 of primitive triples (Meyer, PRL 83 (1999) 3751).
# Squares are 0 or 1 mod 4, so the number of odd coordinates of
# x^2 + y^2 + z^2 = n^2 is 0 or 1 mod 4; a primitive triple has some odd
# coordinate, so it has exactly one, n is odd and n^2 = 1 mod 8.  Since x^2
# mod 8 depends only on x mod 4 (0, 1, 4, 1), the residues of (x, y, z) mod 4
# lie in the 12 classes whose squares sum to 1 mod 8: one odd coordinate and
# two even ones that agree mod 4.  A dot product is 0 only if it is 0 mod 4,
# and its residue mod 4 depends only on the two rays' classes, so only the
# 24 class pairs that _MEETS marks can hold an orthogonal pair.  No class
# meets itself: p . q = p . p = n^2 = 1 mod 4 for rays in one class.
# Two orthogonal rays thus have their odd coordinate in different places, so
# an orthogonal pair holds at most one ray with odd z (color 0), and a
# triad, whose three odd places are distinct, exactly one: every pair sum is
# at least 1 and every triad sum is 2.  The scan still checks each pair and
# triad; the argument explains its result.
_RESIDUES = np.indices((4, 4, 4)).reshape(3, -1).T
_RESIDUES = _RESIDUES[(_RESIDUES * _RESIDUES).sum(axis=1) % 8 == 1]
# _CLASS[x % 4, y % 4, z % 4]: the row of _RESIDUES, or -1 off the classes
_CLASS = np.full((4, 4, 4), -1)
_CLASS[tuple(_RESIDUES.T)] = np.arange(len(_RESIDUES))
_MEETS = _RESIDUES @ _RESIDUES.T % 4 == 0


@dataclass(frozen=True)
class ConditionReport:
    """Violation tally for the three coloring conditions over a row array."""

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


def _unique_rows(t):
    """The distinct rows of an (R, 3) int array in lexicographic order, as
    np.unique(t, axis=0) gives them, without its import of numpy.ma."""
    t = t[np.lexsort(t.T[::-1])]
    first = np.ones(len(t), dtype=bool)
    first[1:] = (t[1:] != t[:-1]).any(axis=1)
    return t[first]


def _triple_color(t):
    """The color rule on a triple, or on the rows of a (3, R) int array."""
    return 1 - t[2] % 2


def enumerate_pyth_points(max_n: int) -> np.ndarray:
    """All primitive Pythagorean rays with hypotenuse at most max_n.

    Scans the integer points of the half cube x >= 0 of [-max_n, max_n]^3
    that can lie on a primitive ray, in int64 slabs of at most
    _BLOCK_ENTRIES points, and keeps those with x^2 + y^2 + z^2 = n^2 for
    an integer 0 < n <= max_n, coprime coordinates and a positive first
    nonzero coordinate.  Returns the (R, 4) int64 array of rows
    [x, y, z, n], one per axis, in sorted ray order.  Each (x, y) row scans
    only the z whose residue mod 4 puts (x, y, z) in a class of _RESIDUES:
    none when x and y are both odd, one residue when one of them is odd,
    and the two odd residues when both are even and agree mod 4.
    """
    if max_n < 1:
        raise ValueError("max_n must be at least 1")
    line = np.arange(-max_n, max_n + 1, dtype=np.int64)
    # the (x, y) rows of the half cube
    xs, ys = np.repeat(line[max_n:], len(line)), np.tile(line, max_n + 1)
    xy2 = xs * xs + ys * ys
    # root[s] = n where s = n^2 for 0 < n <= max_n, else 0; s past the
    # table reads its last entry
    root = np.zeros(max_n * max_n + 2, dtype=np.int64)
    root[line[max_n:] ** 2] = line[max_n:]
    allowed = _CLASS[xs % 4, ys % 4] >= 0
    found = []
    for residue in range(4):
        rows = np.flatnonzero(allowed[:, residue])
        zs = line[line % 4 == residue]
        step = max(1, _BLOCK_ENTRIES // max(1, len(zs)))
        for lo in range(0, len(rows), step):
            row = rows[lo:lo + step]
            s = xy2[row, None] + zs * zs
            n = root[np.minimum(s, len(root) - 1, out=s)]
            r, c = np.nonzero(n)
            t = np.column_stack([xs[row[r]], ys[row[r]], zs[c]])
            keep = (np.gcd.reduce(t, axis=1) == 1) & (_first_nonzero(t) > 0)
            found.append(np.column_stack([t[keep], n[r, c][keep]]))
    found = np.concatenate(found)
    return found[np.lexsort(found[:, 2::-1].T)]


def _orthogonal_pairs(a):
    """The pairs i < j of rows of a with a[i] . a[j] == 0, in lexicographic order.

    The rows are primitive Pythagorean rays.  They are grouped by their
    class in _RESIDUES, and `exact.product_blocks` forms products only
    between groups that _MEETS marks: a third of the upper triangle's
    products on the corpus.  Every partial sum of a dot product is at most
    3*M^2 for M the largest |coordinate|.
    """
    key = _CLASS[tuple((a % 4).T)]
    counts = np.bincount(key, minlength=len(_RESIDUES))
    order = np.argsort(key, kind="stable")
    top = int(np.abs(a).max(initial=0))
    grouped = a[order]
    ends = np.cumsum(counts)
    starts = ends - counts
    rows, cols = [np.empty(0, dtype=np.intp)], [np.empty(0, dtype=np.intp)]
    for c in np.flatnonzero(counts):
        later = np.flatnonzero(_MEETS[c, c + 1:] & (counts[c + 1:] > 0)) + c + 1
        if not len(later):
            continue
        col = np.concatenate([np.arange(starts[d], ends[d]) for d in later])
        # flat zero indices into the class's (rows, len(col)) product: one
        # divmod per class costs a fraction of a 2-D nonzero per block
        zero = [np.flatnonzero(dots == 0) + first * len(col) for first, dots in
                product_blocks(grouped[starts[c]:ends[c]], grouped[col], 3 * top * top)]
        i, j = np.divmod(np.concatenate(zero), len(col))
        rows.append(order[i + starts[c]])
        cols.append(order[col[j]])
    i, j = np.concatenate(rows), np.concatenate(cols)
    i, j = np.minimum(i, j), np.maximum(i, j)
    first = np.lexsort((j, i))
    return i[first], j[first]


def _find_rows(a, w):
    """The index of each row of w among the distinct sorted rows of a, or -1.

    One stable lexsort of a stacked over w puts each row of w after every
    row of a that is not greater, so the last row of a before it is the
    only candidate.  Rows are compared entry by entry, so a row of w with
    entries past those of a finds none.
    """
    stacked = np.concatenate([a, w])
    order = np.lexsort(stacked[:, ::-1].T)
    # the rows of a come in increasing index, so a running maximum gives
    # the last one at or before each position (-1 before the first)
    ray = np.maximum.accumulate(np.where(order < len(a), order, -1))
    hit = (ray >= 0) & (stacked[order] == a[ray]).all(axis=1)
    k = np.empty(len(stacked), dtype=np.intp)
    k[order] = np.where(hit, ray, -1)
    return k[len(a):]


def _checked_rows(rows) -> np.ndarray:
    """rows as an (R, 4) int64 array of primitive points of the sphere, or ValueError."""
    rows = np.asarray(rows)
    # Python ints past int64 make an object array, and uint64 may not fit
    if rows.ndim != 2 or rows.shape[1] != 4 or not (
            rows.dtype.kind in "iu" and np.can_cast(rows.dtype, np.int64)):
        raise ValueError(f"rows must be an (R, 4) integer array of [x, y, z, n], "
                         f"not {rows.dtype} of shape {rows.shape}")
    rows = rows.astype(np.int64, copy=False)
    t, n = rows[:, :3], rows[:, 3]
    if len(t) and not (-MAX_COORDINATE <= t.min() and t.max() <= MAX_COORDINATE):
        raise ValueError(f"a primitive coordinate exceeds {MAX_COORDINATE}, the int64 bound")
    # the square sum is below 3 * 2^60, so an n past 2 * MAX_COORDINATE is off
    # the sphere, and clipping it keeps n^2 in int64
    clipped = np.minimum(n, 2 * MAX_COORDINATE)
    bad = (n <= 0) | (np.gcd.reduce(t, axis=1) != 1) | ((t * t).sum(axis=1) != clipped * clipped)
    if bad.any():
        x, y, z, n = rows[np.argmax(bad)].tolist()
        raise ValueError(f"({x}, {y}, {z}) / {n} is not a primitive point of the unit sphere")
    return rows


def verify_meyer_conditions(rows) -> ConditionReport:
    """Check antipodal invariance, the pair rule and the triad sum rule.

    Takes an (R, 4) integer array of rows [x, y, z, n], such as
    enumerate_pyth_points returns; rows on the same axis are merged.
    Orthogonal pairs come from exact matrix products between the groups of
    rays whose classes mod 4 can meet; triads from finding the canonical
    reduced cross product of each pair among the rays with one sort.  Both
    are listed in sorted ray order, and an antipodal violation is its input
    row.  Raises ValueError for a row that is not a primitive point of the
    sphere, and when a coordinate of the triple exceeds MAX_COORDINATE,
    where int64 products could overflow.  Why there are no violations: see
    the comment on _RESIDUES.
    """
    rows = _checked_rows(rows)
    triples = rows[:, :3]

    antipodal = np.flatnonzero(_triple_color(triples.T) != _triple_color(-triples.T))
    antipodal_violations = tuple(map(tuple, rows[antipodal].tolist()))

    a = _unique_rows(_canonical_rows(triples))
    i, j = _orthogonal_pairs(a)
    pairs = len(i)

    def rays_at(index):
        return map(tuple, a[index].tolist())

    colors = _triple_color(a.T)
    bad = colors[i] + colors[j] < 1
    pair_violations = tuple(zip(rays_at(i[bad]), rays_at(j[bad])))

    # the canonical reduced cross product of each pair, found among the
    # rays (-1 when it is none); each triad once, from its first two rays
    w = np.cross(a[i], a[j])
    k = _find_rows(a, _canonical_rows(w // np.gcd.reduce(w, axis=1, keepdims=True)))
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
