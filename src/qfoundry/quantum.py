"""Dense complex linear algebra for small Hilbert spaces.

Trace-rule probabilities, projective collapse, categorical sampling, spin
operators, reconstruction of a state from an
expectation-value oracle, and the single-generator construction for tuples
of orthogonal projections.

Tolerances used throughout the package:
  ARITH_TOL   1e-12  exact arithmetic identities
  STRUCT_TOL  1e-10  structural invariants (hermiticity, idempotency, trace)
  VERIFY_TOL  1e-8   verification assertions on derived operators
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

ARITH_TOL = 1e-12
STRUCT_TOL = 1e-10
VERIFY_TOL = 1e-8

MAX_DIM = 16
MAX_GENERATOR_TUPLE = 5

# gap threshold for grouping degenerate eigenvalues into one spectral projector
EIGEN_GAP = 1e-8


class ConditioningError(ValueError):
    """Raised when conditioning on an outcome of (numerically) zero probability."""


class InconsistentOracleError(ValueError):
    """Raised when an expectation oracle is not generated by any Hermitian state."""


def _as_matrix(obj) -> np.ndarray:
    mat = obj.matrix if hasattr(obj, "matrix") else obj
    arr = np.asarray(mat, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {arr.shape}")
    if arr.shape[0] > MAX_DIM:
        raise ValueError(f"dimension {arr.shape[0]} exceeds the cap of {MAX_DIM}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("matrix entries must be finite")
    return arr


def normalizable(vector: np.ndarray) -> bool:
    """Whether |v|^2 is a finite normal float, so that v / |v| is a unit
    vector; NaN entries, and tiny or huge ones whose squared norm underflows
    or overflows, are not."""
    return bool(np.finfo(float).tiny <= np.vdot(vector, vector).real <= np.finfo(float).max)


def _ray_projector(vector: Sequence[complex]) -> np.ndarray:
    """The rank-one projector v v* / |v|^2, for a normalizable v."""
    v = np.asarray(vector, dtype=complex)
    if not normalizable(v):
        raise ValueError("vector must be nonzero, with a squared norm that neither "
                         "underflows nor overflows")
    v = v / np.linalg.norm(v)
    return np.outer(v, v.conj())


class DensityOperator:
    """Hermitian, positive-semidefinite, unit-trace matrix."""

    def __init__(self, matrix) -> None:
        mat = _as_matrix(matrix)
        if np.abs(mat - mat.conj().T).max() > ARITH_TOL:
            raise ValueError("density operator must be Hermitian within 1e-12")
        if abs(np.trace(mat).real - 1.0) > ARITH_TOL:
            raise ValueError("density operator must have unit trace within 1e-12")
        eigenvalues = np.linalg.eigvalsh(mat)
        if eigenvalues.min() < -STRUCT_TOL:
            raise ValueError(f"negative eigenvalue {eigenvalues.min():.3e}")
        self.matrix = mat

    @classmethod
    def pure(cls, vector: Sequence[complex]) -> "DensityOperator":
        return cls(_ray_projector(vector))

    @classmethod
    def maximally_mixed(cls, dimension: int) -> "DensityOperator":
        return cls(np.eye(dimension, dtype=complex) / dimension)


class ProjectionOp:
    """Hermitian idempotent matrix."""

    def __init__(self, matrix) -> None:
        mat = _as_matrix(matrix)
        if np.abs(mat - mat.conj().T).max() > STRUCT_TOL:
            raise ValueError("projection must be Hermitian")
        if np.linalg.norm(mat @ mat - mat, 2) > STRUCT_TOL:
            raise ValueError("projection must be idempotent within 1e-10")
        self.matrix = mat

    @classmethod
    def onto(cls, vector: Sequence[complex]) -> "ProjectionOp":
        return cls(_ray_projector(vector))


def born_probability(rho: DensityOperator, proj: ProjectionOp) -> float:
    """Trace-rule probability of the yes outcome, clamped to [0, 1]."""
    r, p = _as_matrix(rho), _as_matrix(proj)
    if r.shape != p.shape:
        raise ValueError(f"dimension mismatch: {r.shape[0]} vs {p.shape[0]}")
    value = np.trace(r @ p).real
    if value < -STRUCT_TOL or value > 1.0 + STRUCT_TOL:
        raise ValueError(f"trace value {value} outside [0,1] beyond tolerance")
    return min(1.0, max(0.0, value))


def collapse(rho: DensityOperator, proj: ProjectionOp) -> DensityOperator:
    """Post-measurement state P rho P / Tr(rho P) for the yes outcome."""
    r, p = _as_matrix(rho), _as_matrix(proj)
    weight = np.trace(r @ p).real
    if weight <= ARITH_TOL:
        raise ConditioningError(f"outcome probability {weight:.3e} is not positive")
    return DensityOperator(p @ r @ p / weight)


# uniforms a sampler draws and bins at a time (512 KiB of float64), so that
# no sampler holds more than one block of them, however many shots it draws
_DRAW_BLOCK = 1 << 16


def threshold_counts(uniforms: np.ndarray, cdf: Sequence[float]) -> np.ndarray:
    """For each uniform, how many entries of cdf[:-1] are <= it, in the
    narrowest unsigned dtype that holds len(cdf), np.min_scalar_type(len(cdf)).

    This is the categorical bin of the uniform: on a nondecreasing cdf it
    is the right-sided insertion index of u in cdf capped at len(cdf) - 1,
    and the cap is never reached when cdf[-1] = 1 > u.  One vectorized
    comparison per entry beats a binary search per uniform on the short
    cdfs drawn here, and the narrow counts add faster than int64 and take
    one byte per uniform for up to 255 entries.
    """
    picks = np.zeros(np.shape(uniforms), dtype=np.min_scalar_type(len(cdf)))
    for c in cdf[:-1]:
        picks += uniforms >= c
    return picks


def _cdf(probs) -> np.ndarray:
    """Generator.choice's normalized cdf."""
    cdf = np.cumsum(probs, dtype=float)
    cdf /= cdf[-1]
    return cdf


def _uniform_blocks(rng: np.random.Generator, rows: int, row_shape: tuple = ()):
    """rng.random((rows, *row_shape)) as (start, block) pairs of at most
    _DRAW_BLOCK rows: the same uniforms, in the same (row-major) order,
    leaving the generator in the same state.  Every block is drawn into one
    buffer, so a block is overwritten by the next one."""
    buffer = np.empty((min(rows, _DRAW_BLOCK), *row_shape))
    for start in range(0, rows, _DRAW_BLOCK):
        yield start, rng.random(out=buffer[:rows - start])


def categorical(rng: np.random.Generator, probs, size: int) -> np.ndarray:
    """size draws of indices into probs: the same draws, from the same
    uniforms, as numpy's Generator.choice with probabilities probs, leaving
    the generator in the same state; unlike it, probs are not validated,
    and the draws come in the dtype np.min_scalar_type(len(probs)) (uint8
    up to 255 entries) instead of int64.  The uniforms are drawn and
    binned one block of _DRAW_BLOCK at a time."""
    cdf = _cdf(probs)
    picks = np.empty(size, dtype=np.min_scalar_type(len(cdf)))
    for start, uniforms in _uniform_blocks(rng, size):
        picks[start:start + len(uniforms)] = threshold_counts(uniforms, cdf)
    return picks


def categorical_counts(rng: np.random.Generator, probs, size: int) -> np.ndarray:
    """How many of the `categorical` draws hit each index, without holding
    the draws or more than one block of uniforms: the uniforms below each
    cdf entry, added up over the blocks and differenced."""
    cdf = _cdf(probs)
    below = [0] * (len(cdf) - 1)
    for _, uniforms in _uniform_blocks(rng, size):
        below = [b + np.count_nonzero(uniforms < c) for b, c in zip(below, cdf[:-1])]
    return np.diff([0, *below, size])


def spin_operator(theta: float, phi: float) -> np.ndarray:
    """Spin along the axis (cos(theta)sin(phi), sin(theta)sin(phi), cos(phi))."""
    ct, st = math.cos(theta), math.sin(theta)
    cp, sp = math.cos(phi), math.sin(phi)
    return np.array(
        [[cp, ct * sp - 1j * st * sp], [ct * sp + 1j * st * sp, -cp]], dtype=complex
    )


def spin_projectors(theta: float, phi: float) -> tuple[ProjectionOp, ProjectionOp]:
    """The (up, down) projectors (1 ± sigma_r)/2 for the given axis."""
    sigma = spin_operator(theta, phi)
    eye = np.eye(2)
    return ProjectionOp((eye + sigma) / 2), ProjectionOp((eye - sigma) / 2)


SINGLET = np.array([0, 1, -1, 0], dtype=complex) / math.sqrt(2.0)


def reconstruct_state(
    expectation: Callable[[np.ndarray], np.ndarray],
    basis: Sequence[np.ndarray],
) -> np.ndarray:
    """Rebuild the generating operators of a batched expectation-value oracle.

    basis must be n orthonormal vectors of C^n.  The oracle is called once,
    on a (k, n, n) stack of Hermitian operators, and returns their k real
    expectations, or for a batch of states a (..., k) array of them, which
    gives the (..., n, n) batch of operators.  The stack holds the n
    rank-1 projections e_i e_i*, which give the diagonal, then for every
    ordered pair (i, j) the symmetric operator e_i e_j* + e_j e_i* and then
    for every ordered pair the antisymmetric one i e_i e_j* - i e_j e_i*,
    so k = n + 2n^2.  The (i, j) entry is half the symmetric expectation
    plus i/2 times the antisymmetric one.  Both triangle halves are queried
    independently and must agree, otherwise the oracle cannot come from any
    Hermitian operator.
    """
    b = np.column_stack([np.asarray(e, dtype=complex) for e in basis])
    n = b.shape[1]
    if b.shape != (n, n) or np.abs(b.conj().T @ b - np.eye(n)).max() > STRUCT_TOL:
        raise ValueError(
            f"basis must be n orthonormal vectors of C^n within 1e-10, got shape {b.shape}"
        )
    outer = b.T[:, None, :, None] * b.T.conj()[None, :, None, :]  # [i, j] = e_i e_j*
    swapped = outer.transpose(1, 0, 2, 3)
    diagonal = np.arange(n)
    ops = np.concatenate([
        outer[diagonal, diagonal],
        (outer + swapped).reshape(n * n, n, n),
        (1j * outer - 1j * swapped).reshape(n * n, n, n),
    ])
    k = len(ops)
    values = np.asarray(expectation(ops))
    if (values.shape[-1:] != (k,) or values.dtype.kind not in "iuf"
            or not np.isfinite(values).all()):
        raise ValueError(
            f"expectation oracle must return {k} finite reals of shape ({k},) "
            f"or (..., {k}), got dtype {values.dtype} and shape {values.shape}"
        )
    batch = values.shape[:-1]
    f_vals, g_vals = np.moveaxis(values[..., n:].reshape(*batch, 2, n, n), -3, 0)
    coords = 0.5 * f_vals + 0.5j * g_vals
    coords[..., diagonal, diagonal] = values[..., :n]
    if np.abs(coords - coords.conj().swapaxes(-1, -2)).max(initial=0.0) > STRUCT_TOL:
        raise InconsistentOracleError(
            "oracle reconstruction is not Hermitian within 1e-10"
        )
    # coords holds <e_i, U e_j>; assemble U in the original coordinates
    return b @ coords @ b.conj().T


def generator_alphas(n: int) -> list[float]:
    """Coefficients alpha_1..alpha_n with alpha_1=1 and
    alpha_k = (1 - sqrt(1 - alpha_{k-1})) / 2."""
    if not 1 <= n <= MAX_GENERATOR_TUPLE:
        raise ValueError(f"tuple length must be in 1..{MAX_GENERATOR_TUPLE}")
    alphas = [1.0]
    for _ in range(n - 1):
        alphas.append(0.5 * (1.0 - math.sqrt(1.0 - alphas[-1])))
    return alphas


def _h(mat: np.ndarray) -> np.ndarray:
    return 4.0 * (mat - mat @ mat)


def ks_single_generator(projections: Sequence[ProjectionOp]):
    """Single Hermitian generator for a tuple of orthogonal projections.

    Builds A = sum_k alpha_k P_k and evaluates the recursively defined
    functions that recover each P_k from A alone, returning the generator,
    the coefficients and the per-projection residuals.  The last function is
    the (n-1)-fold iterate of x -> 4(x - x^2); earlier ones peel off the
    recovered projection and recurse.
    """
    mats = [_as_matrix(p) for p in projections]
    n = len(mats)
    if not 1 <= n <= MAX_GENERATOR_TUPLE:
        raise ValueError(f"tuple length must be in 1..{MAX_GENERATOR_TUPLE}")
    for i in range(n):
        for j in range(i + 1, n):
            if np.linalg.norm(mats[i] @ mats[j], 2) > STRUCT_TOL:
                raise ValueError(f"projections {i} and {j} are not orthogonal")

    alphas = generator_alphas(n)
    gen = sum(alpha * mat for alpha, mat in zip(alphas, mats))

    def evaluate(k: int, m: int, mat: np.ndarray) -> np.ndarray:
        """f_{m,k} applied to a matrix, per the inductive construction."""
        if m == 1:
            return mat
        if k == m:
            out = mat
            for _ in range(m - 1):
                out = _h(out)
            return out
        peeled = mat - alphas[m - 1] * evaluate(m, m, mat)
        return evaluate(k, m - 1, peeled)

    recovered = [evaluate(k + 1, n, gen) for k in range(n)]
    residuals = [
        float(np.linalg.norm(rec - mat, 2)) for rec, mat in zip(recovered, mats)
    ]
    return gen, alphas, residuals


def spectral_projectors(matrix: np.ndarray) -> list[tuple[float, np.ndarray]]:
    """Eigenvalue/projector pairs with nearby eigenvalues grouped.

    Eigenvalues closer than the gap threshold are merged into one projector
    so that degeneracies do not split into spurious rank-1 pieces.
    """
    mat = _as_matrix(matrix)
    values, vectors = np.linalg.eigh(mat)
    groups: list[tuple[float, np.ndarray]] = []
    start = 0
    for idx in range(1, len(values) + 1):
        if idx == len(values) or values[idx] - values[idx - 1] > EIGEN_GAP:
            block = vectors[:, start:idx]
            proj = block @ block.conj().T
            groups.append((float(values[start:idx].mean()), proj))
            start = idx
    return groups
