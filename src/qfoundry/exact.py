"""Exact arithmetic in the ring generated by sqrt(2) and sqrt(3).

Scalars are stored as a + b*sqrt2 + c*sqrt3 + d*sqrt6 with rational
coefficients.  Direction vectors are kept unnormalized, and each carries a
primitive ray key: its entries scaled by a nonzero field element to integer
coefficients over (1, sqrt2, sqrt3, sqrt6).  Ray identity and orthogonality
are integer computations on that key, never floating point.
"""

from __future__ import annotations

import json
import math
import operator
from fractions import Fraction as Q
from typing import Iterable, Sequence

import numpy as np

SQRT2_F = math.sqrt(2.0)
SQRT3_F = math.sqrt(3.0)
SQRT6_F = math.sqrt(6.0)

RationalLike = int | Q


class DimensionMismatchError(ValueError):
    """Raised when two vectors of different ambient dimension are combined."""


class DegenerateInputError(ValueError):
    """Raised when an operation receives parallel or zero input vectors."""


class QuadScalar:
    """An exact element a + b*sqrt2 + c*sqrt3 + d*sqrt6 of Q(sqrt2, sqrt3)."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(
        self,
        a: RationalLike = 0,
        b: RationalLike = 0,
        c: RationalLike = 0,
        d: RationalLike = 0,
    ) -> None:
        self.a = Q(a)
        self.b = Q(b)
        self.c = Q(c)
        self.d = Q(d)

    @classmethod
    def sqrt2(cls) -> "QuadScalar":
        return cls(0, 1, 0, 0)

    @classmethod
    def sqrt3(cls) -> "QuadScalar":
        return cls(0, 0, 1, 0)

    @classmethod
    def sqrt6(cls) -> "QuadScalar":
        return cls(0, 0, 0, 1)

    def coefficients(self) -> tuple[Q, Q, Q, Q]:
        return (self.a, self.b, self.c, self.d)

    def is_zero(self) -> bool:
        return not (self.a or self.b or self.c or self.d)

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Q)):
            other = QuadScalar(other)
        if not isinstance(other, QuadScalar):
            return NotImplemented
        return self.coefficients() == other.coefficients()

    def __hash__(self) -> int:
        return hash(self.coefficients())

    def __neg__(self) -> "QuadScalar":
        return QuadScalar(-self.a, -self.b, -self.c, -self.d)

    def __add__(self, other) -> "QuadScalar":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return QuadScalar(
            self.a + other.a, self.b + other.b, self.c + other.c, self.d + other.d
        )

    __radd__ = __add__

    def __sub__(self, other) -> "QuadScalar":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "QuadScalar":
        return (-self) + other

    def __mul__(self, other) -> "QuadScalar":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return QuadScalar(*_mul(self.coefficients(), other.coefficients()))

    __rmul__ = __mul__

    def inverse(self) -> "QuadScalar":
        """Multiplicative inverse, the adjugate over the field norm."""
        if self.is_zero():
            raise ZeroDivisionError("zero element of Q(sqrt2, sqrt3)")
        adj = _adjugate(self.coefficients())
        norm = _mul(self.coefficients(), adj)[0]
        return QuadScalar(*(coef / norm for coef in adj))

    def __truediv__(self, other) -> "QuadScalar":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def to_float(self) -> float:
        return (
            float(self.a)
            + float(self.b) * SQRT2_F
            + float(self.c) * SQRT3_F
            + float(self.d) * SQRT6_F
        )

    def __repr__(self) -> str:
        return f"QuadScalar({self.a!r}, {self.b!r}, {self.c!r}, {self.d!r})"

    def __str__(self) -> str:
        parts = []
        for coef, symbol in zip(self.coefficients(), ("", "√2", "√3", "√6")):
            if coef == 0:
                continue
            sign = "-" if coef < 0 else ("+" if parts else "")
            mag = abs(coef)
            if symbol and mag == 1:
                parts.append(f"{sign}{symbol}")
            else:
                parts.append(f"{sign}{mag}{symbol}")
        return "".join(parts) if parts else "0"


def _mul(x: tuple, y: tuple) -> tuple:
    """Product of two coefficient 4-tuples over (1, sqrt2, sqrt3, sqrt6)."""
    a1, b1, c1, d1 = x
    a2, b2, c2, d2 = y
    # sqrt2*sqrt3 = sqrt6, sqrt2*sqrt6 = 2*sqrt3, sqrt3*sqrt6 = 3*sqrt2
    return (
        a1 * a2 + 2 * b1 * b2 + 3 * c1 * c2 + 6 * d1 * d2,
        a1 * b2 + b1 * a2 + 3 * (c1 * d2 + d1 * c2),
        a1 * c2 + c1 * a2 + 2 * (b1 * d2 + d1 * b2),
        a1 * d2 + d1 * a2 + b1 * c2 + c1 * b2,
    )


def _adjugate(x: tuple) -> tuple:
    """Product of the three other conjugates of x, so x * _adjugate(x) is rational."""
    a, b, c, d = x
    return _mul(_mul((a, -b, c, -d), (a, b, -c, -d)), (a, -b, -c, d))


def _coerce(value) -> QuadScalar | None:
    if isinstance(value, QuadScalar):
        return value
    if isinstance(value, (int, Q)):
        return QuadScalar(value)
    return None


ZERO = QuadScalar()


class ExactVector:
    """An unnormalized direction vector with entries in Q(sqrt2, sqrt3).

    Vectors on the same ray (scalar multiples over the field, either sign)
    compare equal and hash equal.  The ray key scales the entries so that the
    first nonzero one becomes a positive integer and all coefficients are
    coprime integers, so ray identity is a plain tuple comparison.
    """

    __slots__ = ("entries", "label", "_key")

    def __init__(self, entries: Sequence[QuadScalar], label: str = "") -> None:
        entries = tuple(
            e if isinstance(e, QuadScalar) else QuadScalar(e) for e in entries
        )
        if all(e.is_zero() for e in entries):
            raise DegenerateInputError("zero vector is not a direction")
        self.entries = entries
        self.label = label
        self._key = _ray_key(entries)

    @property
    def dimension(self) -> int:
        return len(self.entries)

    def ray_key(self) -> tuple:
        """Canonical primitive coefficient tuple identifying the ray."""
        return self._key

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ExactVector):
            return NotImplemented
        return self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    def scaled(self, factor: QuadScalar | RationalLike) -> "ExactVector":
        factor = factor if isinstance(factor, QuadScalar) else QuadScalar(factor)
        if factor.is_zero():
            raise DegenerateInputError("cannot scale a direction by zero")
        return ExactVector(tuple(e * factor for e in self.entries), self.label)

    def __repr__(self) -> str:
        body = ", ".join(str(e) for e in self.entries)
        tag = f" {self.label}" if self.label else ""
        return f"<ExactVector{tag} ({body})>"


def _ray_key(entries: tuple[QuadScalar, ...]) -> tuple:
    coefs = [e.coefficients() for e in entries]
    denom_lcm = math.lcm(*(c.denominator for row in coefs for c in row))
    ints = [[c.numerator * (denom_lcm // c.denominator) for c in row] for row in coefs]
    # times its adjugate, the first nonzero entry becomes a nonzero integer
    adj = _adjugate(next(row for row in ints if any(row)))
    ints = [_mul(row, adj) for row in ints]
    lead = next(row[0] for row in ints if any(row))
    common = math.gcd(*(x for row in ints for x in row)) * (1 if lead > 0 else -1)
    return tuple(tuple(x // common for x in row) for row in ints)


def _check_dimensions(u: ExactVector, v: ExactVector) -> None:
    if u.dimension != v.dimension:
        raise DimensionMismatchError(f"dimension mismatch: {u.dimension} vs {v.dimension}")


def inner_product(u: ExactVector, v: ExactVector) -> QuadScalar:
    """Exact real inner product of two unnormalized vectors."""
    _check_dimensions(u, v)
    return sum((x * y for x, y in zip(u.entries, v.entries)), ZERO)


def orthogonal(u: ExactVector, v: ExactVector) -> bool:
    """Exact orthogonality test on the integer ray keys.

    Each key is a nonzero field multiple of its vector, so the key inner
    product vanishes exactly when the vectors' inner product does.  To test
    every pair of a set at once, use `orthogonality_masks`.
    """
    _check_dimensions(u, v)
    return not any(map(sum, zip(*map(_mul, u._key, v._key))))


# _MUL_TABLE[p, 4q + r]: coefficient r of the product of basis units p and q
_UNITS = [tuple(int(p == q) for q in range(4)) for p in range(4)]
_MUL_TABLE = [[c for e_q in _UNITS for c in _mul(e_p, e_q)] for e_p in _UNITS]


def orthogonality_masks(vectors: Sequence[ExactVector]) -> list[int]:
    """Every orthogonal pair of a set, as one integer Gram product on the keys.

    Returns, for each vector i, an int with bit j set for every later vector
    j > i orthogonal to it; pair by pair this agrees with `orthogonal`.  The
    keys are stacked into an (n, dim*4) array K, and the four coefficient
    Gram matrices over (1, sqrt2, sqrt3, sqrt6) are (K @ T) against K.T, with
    T the multiplication table of `_mul`.  Every Gram entry is bounded by
    12*dim*M^2 for M the largest key coefficient, so the products run on
    int64 when that bound is below 2^63 and on Python ints otherwise.
    """
    n = len(vectors)
    if not n:
        return []
    dim = vectors[0].dimension
    for v in vectors:
        _check_dimensions(vectors[0], v)
    keys = [v._key for v in vectors]
    top = max(abs(x) for key in keys for row in key for x in row)
    dtype = np.int64 if 12 * dim * top * top < 2**63 else object
    K = np.array(keys, dtype=dtype).reshape(n * dim, 4)
    table = np.array(_MUL_TABLE, dtype=dtype)
    # KT[i, k, q, r] = sum_p K[i, k, p] * T[p, q, r], regrouped to rows (i, r)
    KT = (K @ table).reshape(n, dim, 4, 4).transpose(0, 3, 1, 2).reshape(n * 4, dim * 4)
    gram = (KT @ K.reshape(n, dim * 4).T).reshape(n, 4, n)
    orth = np.triu(~(gram != 0).any(axis=1), 1)
    packed = np.packbits(orth, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def cross_product(u: ExactVector, v: ExactVector) -> ExactVector:
    """Exact exterior product of two independent vectors in dimension 3.

    Computed on the integer ray keys: their cross product is a nonzero field
    multiple of the vectors' own, so it lies on the same ray.
    """
    if u.dimension != 3 or v.dimension != 3:
        raise DimensionMismatchError("cross product requires dimension 3")
    a, b = u._key, v._key
    rows = [
        tuple(x - y for x, y in zip(_mul(a[i], b[j]), _mul(a[j], b[i])))
        for i, j in ((1, 2), (2, 0), (0, 1))
    ]
    if not any(map(any, rows)):
        raise DegenerateInputError("cross product of parallel vectors")
    return ExactVector(
        [QuadScalar(*row) for row in rows], f"({u.label})x({v.label})" if u.label else ""
    )


class RationalPoint:
    """A point of the rational unit sphere S^2 ∩ Q^3.

    Held as its primitive integer triple (x, y, z) and n > 0, the lcm of the
    reduced denominators: the point is (x, y, z) / n with x^2 + y^2 + z^2 = n^2.
    """

    __slots__ = ("triple", "n")

    def __init__(self, x: RationalLike, y: RationalLike, z: RationalLike) -> None:
        coords = [Q(c) for c in (x, y, z)]
        self.n = math.lcm(*(c.denominator for c in coords))
        # on the sphere the triple is primitive: a prime dividing all three
        # divides n, so not the one whose denominator holds all of it in n
        self.triple = tuple(c.numerator * (self.n // c.denominator) for c in coords)
        if sum(c * c for c in self.triple) != self.n * self.n:
            raise ValueError("(%s, %s, %s) is not on the unit sphere" % tuple(coords))

    @classmethod
    def from_triple(cls, x: int, y: int, z: int, n: int) -> "RationalPoint":
        """The point (x, y, z) / n of a primitive triple with x^2 + y^2 + z^2 = n^2."""
        x, y, z, n = map(operator.index, (x, y, z, n))
        if n <= 0 or math.gcd(x, y, z) != 1 or x * x + y * y + z * z != n * n:
            raise ValueError(f"({x}, {y}, {z}) / {n} is not a primitive point of the unit sphere")
        point = object.__new__(cls)
        point.triple, point.n = (x, y, z), n
        return point

    def coords(self) -> tuple[Q, Q, Q]:
        return tuple(Q(c, self.n) for c in self.triple)

    def __neg__(self) -> "RationalPoint":
        return RationalPoint.from_triple(*(-c for c in self.triple), self.n)

    # the primitive triple determines n, so it alone identifies the point
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RationalPoint):
            return NotImplemented
        return self.triple == other.triple

    def __hash__(self) -> int:
        return hash(self.triple)

    def __repr__(self) -> str:
        return "RationalPoint(%s, %s, %s)" % self.coords()


def _is_coordinate(coeffs) -> bool:
    """Whether coeffs is four [num, den] integer pairs with nonzero den."""
    return (isinstance(coeffs, list) and len(coeffs) == 4 and all(
        isinstance(pair, list) and len(pair) == 2
        and all(type(x) is int for x in pair) and pair[1] != 0
        for pair in coeffs
    ))


class VectorSet:
    """A labelled set of exact direction vectors sharing one dimension."""

    def __init__(self, dimension: int, vectors: Iterable[ExactVector]) -> None:
        self.dimension = dimension
        self.vectors = list(vectors)
        for v in self.vectors:
            if v.dimension != dimension:
                raise DimensionMismatchError(
                    f"vector {v.label!r} has dimension {v.dimension}, expected {dimension}"
                )

    def __len__(self) -> int:
        return len(self.vectors)

    def __iter__(self):
        return iter(self.vectors)

    def to_json_dict(self) -> dict:
        return {
            "dimension": self.dimension,
            "vectors": [
                {
                    "label": v.label,
                    "entries": [
                        [[coef.numerator, coef.denominator] for coef in e.coefficients()]
                        for e in v.entries
                    ],
                }
                for v in self.vectors
            ],
        }

    @classmethod
    def from_json_dict(cls, payload) -> "VectorSet":
        """Parse the vector-set JSON format; ValueError names the first fault."""
        dimension = payload.get("dimension") if isinstance(payload, dict) else None
        if type(dimension) is not int or dimension < 1:
            raise ValueError("vector set needs a positive integer 'dimension'")
        raw = payload.get("vectors")
        if not isinstance(raw, list) or not raw:
            raise ValueError("vector set needs a nonempty 'vectors' list")
        vectors = []
        for k, item in enumerate(raw):
            if not isinstance(item, dict) or not isinstance(item.get("entries"), list):
                raise ValueError(f"vector {k} needs an 'entries' list")
            label = item.get("label", "")
            if not isinstance(label, str):
                raise ValueError(f"vector {k} has a non-string label")
            entries = []
            for i, coeffs in enumerate(item["entries"]):
                if not _is_coordinate(coeffs):
                    raise ValueError(
                        f"vector {k} entry {i} must be four [num, den] integer pairs, den != 0"
                    )
                entries.append(QuadScalar(*(Q(num, den) for num, den in coeffs)))
            vectors.append(ExactVector(entries, label))
        return cls(dimension, vectors)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json_dict(), fh, indent=1)
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "VectorSet":
        with open(path, encoding="utf-8") as fh:
            try:
                payload = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ValueError(f"malformed vector-set JSON in {path}: {exc}") from exc
        return cls.from_json_dict(payload)
