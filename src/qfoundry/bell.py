"""Bell/CHSH machinery, the logical Bell inequality with its sequential
variant, the imprecise-measurement probability bound, and the free-will
robustness counting.

Hidden-variable strategies live on explicit response tables so the
deterministic bound of 2 can be certified by exhaustion with exact integer
arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction as Q
from itertools import product

import numpy as np

from .exact import cross_product
from .ks import OrthStructure, NotApplicableError
from .quantum import SINGLET, categorical_counts, spin_projectors

GRID_STEP_DEGREES = 1  # exhaustive sweeps use the 1-degree grid


@dataclass(frozen=True)
class AngleSetting:
    """Measurement axis (cos t sin p, sin t sin p, cos p)."""

    theta: float
    phi: float = math.pi / 2


def singlet_correlation(r1: AngleSetting, r2: AngleSetting) -> float:
    """Expectation of the product of spins on the two-particle singlet."""
    return -math.cos(r1.phi) * math.cos(r2.phi) - math.cos(
        r1.theta - r2.theta
    ) * math.sin(r1.phi) * math.sin(r2.phi)


def chsh_value(
    t1: float, t1p: float, t2: float, t2p: float, phi: float = math.pi / 2
) -> float:
    """|E(t1,t2) - E(t1,t2')| + |E(t1',t2) + E(t1',t2')| on the singlet."""

    def corr(a: float, b: float) -> float:
        return singlet_correlation(AngleSetting(a, phi), AngleSetting(b, phi))

    return abs(corr(t1, t2) - corr(t1, t2p)) + abs(corr(t1p, t2) + corr(t1p, t2p))


TSIRELSON = 2.0 * math.sqrt(2.0)


def chsh_grid_max(step_degrees: int = GRID_STEP_DEGREES) -> float:
    """Maximum CHSH value over the uniform four-angle grid.

    The value depends only on u = t1-t2, v = t1-t2' and w = t1'-t2 (then
    t1'-t2' = w + v - u), and a grid whose step divides 360 degrees is closed
    under differences mod 2pi.  With d = v - u the first term depends only on
    (u, d) and the second only on (w, d), so the maximum is
    max_d [max_u |cos u - cos(u+d)| + max_w |cos w + cos(w+d)|].
    """
    if 360 % step_degrees:
        raise ValueError(f"grid step {step_degrees} does not divide 360 degrees")
    cos = np.cos(np.deg2rad(np.arange(0, 360, step_degrees)))
    m = len(cos)
    shifted = cos[np.add.outer(np.arange(m), np.arange(m)) % m]  # [a, d] -> cos(a + d)
    first = np.abs(cos[:, None] - shifted).max(axis=0)
    second = np.abs(cos[:, None] + shifted).max(axis=0)
    return float((first + second).max())


@dataclass(frozen=True)
class LhvStrategy:
    """Local response tables over a finite shared hidden sample.

    responses_a[x][l] and responses_b[y][l] are the +-1 answers of the two
    sides for setting index x/y and hidden value l; each side sees only its
    own setting and the shared sample.
    """

    hidden_probabilities: tuple[Q, ...]
    responses_a: tuple[tuple[int, ...], ...]
    responses_b: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if sum(self.hidden_probabilities) != 1:
            raise ValueError("hidden-sample probabilities must sum to 1")
        if any(p < 0 for p in self.hidden_probabilities):
            raise ValueError("hidden-sample probabilities must be non-negative")
        for table in (*self.responses_a, *self.responses_b):
            if len(table) != len(self.hidden_probabilities):
                raise ValueError("response table length must match hidden samples")
            if any(r not in (-1, 1) for r in table):
                raise ValueError("responses must be +-1")


def anticorrelated_strategy() -> LhvStrategy:
    """Shared pair of signs; each side reads one of them, B answers opposite."""
    hidden = tuple(product((-1, 1), repeat=2))
    return LhvStrategy(
        hidden_probabilities=(Q(1, 4),) * 4,
        responses_a=(
            tuple(l[0] for l in hidden),
            tuple(l[1] for l in hidden),
        ),
        responses_b=(
            tuple(-l[0] for l in hidden),
            tuple(-l[1] for l in hidden),
        ),
    )


def random_response_strategy() -> LhvStrategy:
    """Both sides answer independent coin flips regardless of the setting."""
    hidden = tuple(product((-1, 1), repeat=2))
    return LhvStrategy(
        hidden_probabilities=(Q(1, 4),) * 4,
        responses_a=(
            tuple(l[0] for l in hidden),
            tuple(l[0] for l in hidden),
        ),
        responses_b=(
            tuple(l[1] for l in hidden),
            tuple(l[1] for l in hidden),
        ),
    )


def exhaustive_deterministic_chsh_max() -> Q:
    """Exact CHSH maximum over all local deterministic response tables.

    Sweeps every pair of maps (setting, shared bit) -> +-1 for both sides
    with the shared bit uniform.  Each correlation is half a sum of two +-1
    products, so twice it is an integer, and so is twice every CHSH value:
    the sweep runs on those integers, which involves no rounding, and halves
    the maximum as an exact fraction.
    """
    tables = np.array(list(product((-1, 1), repeat=4))).reshape(16, 2, 2)  # [table, x, bit]
    twice_e = np.einsum("axl,byl->abxy", tables, tables)  # 2 E(x, y) for tables a, b
    twice_chsh = np.abs(twice_e[..., 0, 0] - twice_e[..., 0, 1]) + np.abs(
        twice_e[..., 1, 0] + twice_e[..., 1, 1]
    )
    return Q(int(twice_chsh.max()), 2)


def lhv_chsh_monte_carlo(
    strategy: LhvStrategy, shots: int, seed: int
) -> tuple[float, float]:
    """Empirical CHSH of a local strategy and the 1-sigma sampling margin.

    Each correlation is the integer sum of the +-1 products over the shots,
    taken from the counts of the sampled hidden values, divided by shots.
    """
    if shots < 1:
        raise ValueError("shots must be at least 1")
    probs = [float(p) for p in strategy.hidden_probabilities]
    counts = categorical_counts(np.random.default_rng(seed), probs, shots)
    a = np.array(strategy.responses_a)
    b = np.array(strategy.responses_b)
    e = [[int(counts @ (a[x] * b[y])) / shots for y in (0, 1)] for x in (0, 1)]
    value = abs(e[0][0] - e[0][1]) + abs(e[1][0] + e[1][1])
    sigma = 2.0 / math.sqrt(shots)  # four +-1 means, each with variance <= 1/shots
    return value, sigma


def joint_up_probability(theta_a: float, theta_b: float) -> float:
    """Singlet probability of both spin-up for axes in the equatorial plane."""
    return 0.25 * (1.0 - math.cos(theta_a - theta_b))


@dataclass(frozen=True)
class LogicalBellResult:
    lhs: float
    rhs_sum: float
    terms: tuple[float, ...]

    @property
    def violated(self) -> bool:
        return self.lhs > self.rhs_sum + 1e-15


def logical_bell(a1: float, a2: float, b1: float, b2: float) -> LogicalBellResult:
    """The counterfactual conjunction inequality on the singlet.

    lhs = P(A1 and B1); rhs = P(A1 and B2) + P(A2 and B1) + P(not-A2 and
    not-B2), each conjunction evaluated as a simultaneous two-sided
    measurement.
    """
    terms = (
        joint_up_probability(a1, b2),
        joint_up_probability(a2, b1),
        joint_up_probability(a2, b2),  # both-down has the same closed form
    )
    return LogicalBellResult(
        lhs=joint_up_probability(a1, b1), rhs_sum=sum(terms), terms=terms
    )


def sequential_logical_bell(
    a1: float, a2: float, b1: float, b2: float
) -> tuple[LogicalBellResult, tuple[float, ...]]:
    """The same inequality with both observables per side actually measured.

    Side one measures a1 then a2, side two measures b1 then b2; second
    measurements are evaluated through projector sandwiches over the first
    outcome, which is summed out.  Returns the result and the four sandwich
    terms of P(not-A2 and not-B2) in the outcome order (+,+), (-,+), (+,-),
    (-,-).
    """
    pa1 = spin_projectors(a1, math.pi / 2)
    pa2 = spin_projectors(a2, math.pi / 2)
    pb1 = spin_projectors(b1, math.pi / 2)
    pb2 = spin_projectors(b2, math.pi / 2)

    def sandwich(first, second):
        return first.matrix @ second.matrix @ first.matrix

    def prob(op_left: np.ndarray, op_right: np.ndarray) -> float:
        op = np.kron(op_left, op_right)
        return float(np.real(SINGLET.conj() @ op @ SINGLET))

    lhs = prob(pa1[0].matrix, pb1[0].matrix)
    p_a1_b2 = sum(prob(pa1[0].matrix, sandwich(pb1[t], pb2[0])) for t in (0, 1))
    p_a2_b1 = sum(prob(sandwich(pa1[s], pa2[0]), pb1[0].matrix) for s in (0, 1))
    sandwich_terms = tuple(
        prob(sandwich(pa1[s], pa2[1]), sandwich(pb1[t], pb2[1]))
        for s, t in ((0, 0), (1, 0), (0, 1), (1, 1))
    )
    p_not2 = sum(sandwich_terms)
    result = LogicalBellResult(
        lhs=lhs, rhs_sum=p_a1_b2 + p_a2_b1 + p_not2, terms=(p_a1_b2, p_a2_b1, p_not2)
    )
    return result, sandwich_terms


def prob_sum_is_two(p1: float, p2: float, p3: float) -> float:
    """Probability that exactly two of three independent 0/1 results are 1."""
    return (1 - p1) * p2 * p3 + p1 * (1 - p2) * p3 + p1 * p2 * (1 - p3)


def imprecise_sum_grid_sup(steps: int = 101) -> tuple[float, tuple[float, float, float]]:
    """Grid supremum of P[sum = 2] over the rounded-rule-violating region.

    The (p1, p2, p3) grid is swept one p1 slice at a time; ties go to the
    first grid point in C order, since a later slice wins only when strictly
    larger.
    """
    axis = np.linspace(0.0, 1.0, steps)
    high = (axis >= 0.5).astype(int)
    high_pairs = high[:, None] + high[None, :]  # rounded-up count of (p2, p3)
    best, point = -np.inf, (0, 0, 0)
    for i, p1 in enumerate(axis):
        value = np.where(
            high_pairs + high[i] != 2, prob_sum_is_two(p1, axis[:, None], axis[None, :]), -np.inf
        )
        flat = int(np.argmax(value))
        if value.flat[flat] > best:
            best, point = value.flat[flat], (i, *divmod(flat, steps))
    return float(best), tuple(float(axis[k]) for k in point)


F_MIN = Q(1, 1320)
TWIN_MATCH_COEFFICIENT = Q(3, 33) * Q(16, 40) + Q(2, 33) * Q(24, 40)


@dataclass(frozen=True)
class FwtBounds:
    f_max: float
    f_min: float
    satisfied: bool


def fwt_bounds(eps_s: float, eps_t: float) -> FwtBounds:
    """Experimental upper bound vs deterministic lower bound on forced
    violations of the two spin axioms; satisfied means f_max < f_min."""
    if not (0.0 <= eps_s <= 1.0 and 0.0 <= eps_t <= 1.0):
        raise ValueError("epsilon parameters must lie in [0, 1]")
    f_max = eps_s + float(TWIN_MATCH_COEFFICIENT) * eps_t
    return FwtBounds(f_max=f_max, f_min=float(F_MIN), satisfied=f_max < float(F_MIN))


@dataclass(frozen=True)
class DirectionCounts:
    triads_total: int
    with_three_known: int
    with_two_known: int
    coefficient: Q
    joint_experiments: int


def fwt_direction_counts(structure: OrthStructure) -> DirectionCounts:
    """Triad census of the 33-ray structure after completing every leftover
    orthogonal pair with its cross product.

    Exactly the basis triads keep all three directions inside the original
    set; each completed pair contributes a third direction outside it.  The
    census reproduces the match-probability coefficient as an exact rational.
    """
    if structure.dimension != 3 or len(structure.vectors) != 33:
        raise NotApplicableError("direction counts expect the 33-ray structure")
    if len(structure.bases) != 16 or len(structure.pairs) != 24:
        raise NotApplicableError(
            "structure does not have the expected 16 bases and 24 pairs"
        )
    known = {v.ray_key() for v in structure.vectors}
    with_three = len(structure.bases)
    with_two = 0
    for i, j in structure.pairs:
        third = cross_product(structure.vectors[i], structure.vectors[j])
        if third.ray_key() in known:
            with_three += 1
        else:
            with_two += 1
    total = with_three + with_two
    directions = len(structure.vectors)
    coefficient = Q(3, directions) * Q(with_three, total) + Q(2, directions) * Q(
        with_two, total
    )
    return DirectionCounts(
        triads_total=total,
        with_three_known=with_three,
        with_two_known=with_two,
        coefficient=coefficient,
        joint_experiments=total * directions,
    )
