"""Built-in vector tables: the 33-ray set in dimension 3 and the 18-vector
set in dimension 4.  The tables below are the only definition of both sets;
`qfoundry data export` writes them out in the JSON vector-set format."""

from __future__ import annotations

from .exact import ExactVector, QuadScalar, VectorSet

BUILTIN_SETS = ("peres33", "cabello18")

_R2 = QuadScalar.sqrt2()
_R3 = QuadScalar.sqrt3()
_R6 = QuadScalar.sqrt6()

# Unnormalized coordinates; normalization factors are irrelevant for ray
# identity and orthogonality.
_PERES33 = [
    ("e_1", (1, 0, 0)),
    ("e_2", (0, 1, 0)),
    ("e_3", (0, 0, 1)),
    ("f_1^1", (0, 1, 1)),
    ("f_2^1", (1, 0, 1)),
    ("f_3^1", (1, 1, 0)),
    ("f_1^2", (0, -1, 1)),
    ("f_2^2", (-1, 0, 1)),
    ("f_3^2", (1, -1, 0)),
    ("g_1^1", (0, _R3, _R6)),
    ("g_2^1", (_R6, 0, _R3)),
    ("g_3^1", (_R3, _R6, 0)),
    ("g_1^2", (0, _R6, -_R3)),
    ("g_2^2", (-_R3, 0, _R6)),
    ("g_3^2", (_R6, -_R3, 0)),
    ("g_1^3", (0, _R6, _R3)),
    ("g_2^3", (_R3, 0, _R6)),
    ("g_3^3", (_R6, _R3, 0)),
    ("g_1^4", (0, -_R3, _R6)),
    ("g_2^4", (_R6, 0, -_R3)),
    ("g_3^4", (-_R3, _R6, 0)),
    ("h_1^1", (_R2, -1, 1)),
    ("h_2^1", (-1, _R2, 1)),
    ("h_3^1", (-1, 1, _R2)),
    ("h_1^2", (_R2, 1, -1)),
    ("h_2^2", (1, _R2, -1)),
    ("h_3^2", (1, -1, _R2)),
    ("h_1^3", (_R2, -1, -1)),
    ("h_2^3", (-1, _R2, -1)),
    ("h_3^3", (-1, -1, _R2)),
    ("h_1^4", (_R2, 1, 1)),
    ("h_2^4", (1, _R2, 1)),
    ("h_3^4", (1, 1, _R2)),
]

_CABELLO18 = [
    (0, 0, 0, 1),
    (0, 0, 1, 0),
    (0, 1, 0, 0),
    (1, 1, 0, 0),
    (1, -1, 0, 0),
    (1, 0, 1, 0),
    (1, 0, -1, 0),
    (1, 0, 0, 1),
    (1, 0, 0, -1),
    (0, 0, 1, 1),
    (0, 1, 0, -1),
    (0, 1, -1, 0),
    (1, 1, 1, 1),
    (1, -1, 1, -1),
    (1, -1, -1, 1),
    (1, 1, -1, 1),
    (1, 1, 1, -1),
    (-1, 1, 1, 1),
]


def build_peres33() -> VectorSet:
    """The 33 rays in dimension 3 built from entries 1, sqrt2, sqrt3, sqrt6."""
    vectors = [ExactVector(coords, label) for label, coords in _PERES33]
    return VectorSet(3, vectors)


def build_cabello18() -> VectorSet:
    """The 18 integer vectors in dimension 4, each lying in two bases."""
    vectors = [
        ExactVector(coords, "(" + ",".join(str(x) for x in coords) + ")")
        for coords in _CABELLO18
    ]
    return VectorSet(4, vectors)


def load_builtin(name: str) -> VectorSet:
    """Build a built-in vector set by name ('peres33' or 'cabello18')."""
    if name == "peres33":
        return build_peres33()
    if name == "cabello18":
        return build_cabello18()
    raise KeyError(f"unknown dataset {name!r}; expected one of {BUILTIN_SETS}")
