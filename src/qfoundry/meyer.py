"""Dense 0/1 coloring of the rational unit sphere via Pythagorean triples.

Every rational point of S^2 lies on the axis of a primitive integer triple
(x, y, z) with x^2 + y^2 + z^2 = n^2.  The color is decided by the parity
of the third coordinate of that primitive triple: odd maps to 0, even to 1.
All orthogonality checks run on exact integer dot products, in int64 row
blocks for the exhaustive pair scan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction as Q
from functools import reduce

import numpy as np

from .exact import DegenerateInputError, RationalPoint

# largest `meyer verify --max-n`; the O(R^2) pair scan takes seconds there
MAX_N = 200
# int64 dot and cross products of rays with coordinates up to 2^30 are exact
MAX_COORDINATE = 1 << 30
# entries of one block of the pair scan's dot-product matrix
_BLOCK_ENTRIES = 1 << 15


@dataclass(frozen=True)
class PythTriple:
    """Integer triple with x^2 + y^2 + z^2 = n^2."""

    x: int
    y: int
    z: int
    n: int

    def __post_init__(self):
        if self.n <= 0:
            raise ValueError("n must be positive")
        if self.x**2 + self.y**2 + self.z**2 != self.n**2:
            raise ValueError(f"({self.x}, {self.y}, {self.z}) fails x^2+y^2+z^2={self.n}^2")

    def is_primitive(self) -> bool:
        return math.gcd(self.x, self.y, self.z) == 1

    def coords(self) -> tuple[int, int, int]:
        return (self.x, self.y, self.z)


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


def to_primitive_pyth(p: RationalPoint) -> PythTriple:
    """Primitive integer triple on the same axis as a rational sphere point.

    Multiplies by the lcm of the denominators and divides out the gcd of
    the resulting integer coordinates.
    """
    lcm = reduce(math.lcm, (c.denominator for c in p.coords()), 1)
    ints = [c.numerator * (lcm // c.denominator) for c in p.coords()]
    if not any(ints):
        raise DegenerateInputError("zero vector has no axis")
    g = math.gcd(*ints)
    x, y, z = (v // g for v in ints)
    return PythTriple(x, y, z, lcm // g)


def meyer_color(p: RationalPoint) -> int:
    """0 when the primitive triple's third coordinate is odd, else 1."""
    return _triple_color(to_primitive_pyth(p).coords())


def _triple_color(t):
    """The color rule on a triple, or on the rows of a (3, R) int array."""
    return 1 - t[2] % 2


def _canonical_ray(x: int, y: int, z: int) -> tuple[int, int, int]:
    """One representative per axis: flip sign so the first nonzero is positive."""
    for v in (x, y, z):
        if v:
            return (x, y, z) if v > 0 else (-x, -y, -z)
    raise DegenerateInputError("zero vector has no axis")


def enumerate_pyth_points(max_n: int) -> list[RationalPoint]:
    """All primitive Pythagorean rays with hypotenuse at most max_n.

    Returns one rational sphere point per axis, in deterministic order.
    """
    if max_n < 1:
        raise ValueError("max_n must be at least 1")
    rays: set[tuple[int, int, int]] = set()
    for n in range(1, max_n + 1):
        nn = n * n
        for x in range(-n, n + 1):
            xx = x * x
            for y in range(-n, n + 1):
                rest = nn - xx - y * y
                if rest < 0:
                    continue
                z = math.isqrt(rest)
                if z * z != rest:
                    continue
                for zz in ({z, -z} if z else {0}):
                    if x == y == zz == 0:
                        continue
                    if math.gcd(x, y, zz) != 1:
                        continue
                    rays.add(_canonical_ray(x, y, zz))
    ordered = sorted(rays)
    points = []
    for x, y, z in ordered:
        n = math.isqrt(x * x + y * y + z * z)
        points.append(RationalPoint(Q(x, n), Q(y, n), Q(z, n)))
    return points


def verify_meyer_conditions(points: list[RationalPoint]) -> ConditionReport:
    """Check antipodal invariance, the pair rule and the triad sum rule.

    Works on primitive triples with exact integer dot products; points on
    the same axis are merged first.  Orthogonal pairs come from one scan of
    the upper triangle of the ray Gram matrix in int64 row blocks, triads
    from the reduced cross products of those pairs; both are listed in
    sorted ray order.  Raises ValueError when a primitive coordinate
    exceeds MAX_COORDINATE, where int64 products could overflow.

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
    triples = [to_primitive_pyth(p).coords() for p in points]
    rays = sorted({_canonical_ray(*t) for t in triples})
    if any(abs(c) > MAX_COORDINATE for ray in rays for c in ray):
        raise ValueError(f"a primitive coordinate exceeds {MAX_COORDINATE}, the int64 bound")

    antipodal_violations = [
        p.coords() for p, t in zip(points, triples) if _triple_color(t) != meyer_color(-p)
    ]

    a = np.array(rays, dtype=np.int64).reshape(-1, 3)
    colors = _triple_color(a.T).tolist()
    block = max(1, _BLOCK_ENTRIES // max(1, len(rays)))
    rows, cols = [np.empty(0, dtype=np.intp)], [np.empty(0, dtype=np.intp)]
    for lo in range(0, len(rays), block):
        i, j = np.nonzero(a[lo:lo + block] @ a[lo:].T == 0)
        upper = j > i
        rows.append(i[upper] + lo)
        cols.append(j[upper] + lo)
    i, j = np.concatenate(rows), np.concatenate(cols)

    w = np.cross(a[i], a[j])
    w //= np.gcd.reduce(w, axis=1, keepdims=True)
    index = {ray: k for k, ray in enumerate(rays)}
    pair_violations, triads = [], set()
    for u, v, t in zip(i.tolist(), j.tolist(), w.tolist()):
        if colors[u] + colors[v] < 1:
            pair_violations.append((rays[u], rays[v]))
        k = index.get(_canonical_ray(*t))
        if k is not None:
            triads.add(tuple(sorted((u, v, k))))
    triad_violations = [
        (rays[u], rays[v], rays[k])
        for u, v, k in sorted(triads)
        if colors[u] + colors[v] + colors[k] != 2
    ]

    return ConditionReport(
        rays=len(rays),
        pairs=len(i),
        triads=len(triads),
        antipodal_violations=tuple(antipodal_violations),
        pair_violations=tuple(pair_violations),
        triad_violations=tuple(triad_violations),
    )
