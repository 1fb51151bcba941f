"""Dense 0/1 coloring of the rational unit sphere via Pythagorean triples.

Every rational point of S^2 lies on the axis of a primitive integer triple
(x, y, z) with x^2 + y^2 + z^2 = n^2.  The color is decided by the parity
of the third coordinate of that primitive triple: odd maps to 0, even to 1.
All orthogonality checks run on exact integer dot products.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction as Q
from functools import reduce
from itertools import combinations

from .exact import DegenerateInputError, RationalPoint


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
    ints = [int(c * lcm) for c in p.coords()]
    if not any(ints):
        raise DegenerateInputError("zero vector has no axis")
    g = math.gcd(*ints)
    x, y, z = (v // g for v in ints)
    return PythTriple(x, y, z, lcm // g)


def meyer_color(p: RationalPoint) -> int:
    """0 when the primitive triple's third coordinate is odd, else 1."""
    return _triple_color(to_primitive_pyth(p).coords())


def _triple_color(t: tuple[int, int, int]) -> int:
    return 0 if t[2] % 2 else 1


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
    the same axis are merged first.
    """
    triples = {}
    for p in points:
        t = to_primitive_pyth(p)
        triples[_canonical_ray(*t.coords())] = None
    rays = sorted(triples)

    antipodal_violations = []
    for p in points:
        if meyer_color(p) != meyer_color(-p):
            antipodal_violations.append(p.coords())

    colors = {r: _triple_color(r) for r in rays}

    def dot(u, v):
        return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]

    pair_violations = []
    orth_pairs = [
        (u, v) for u, v in combinations(rays, 2) if dot(u, v) == 0
    ]
    for u, v in orth_pairs:
        if colors[u] + colors[v] < 1:
            pair_violations.append((u, v))

    triad_violations = []
    ray_set = set(rays)
    triads = set()
    for u, v in orth_pairs:
        w = (
            u[1] * v[2] - u[2] * v[1],
            u[2] * v[0] - u[0] * v[2],
            u[0] * v[1] - u[1] * v[0],
        )
        g = math.gcd(*w)
        w = _canonical_ray(w[0] // g, w[1] // g, w[2] // g)
        if w in ray_set:
            triads.add(tuple(sorted((u, v, w))))
    for u, v, w in sorted(triads):
        if colors[u] + colors[v] + colors[w] != 2:
            triad_violations.append((u, v, w))

    return ConditionReport(
        rays=len(rays),
        pairs=len(orth_pairs),
        triads=len(triads),
        antipodal_violations=tuple(antipodal_violations),
        pair_violations=tuple(pair_violations),
        triad_violations=tuple(triad_violations),
    )
