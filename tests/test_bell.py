"""CHSH, logical Bell, imprecision bound and free-will counting."""

import math
from fractions import Fraction as Q
from itertools import product

import numpy as np
import pytest

from qfoundry import bell, ks, meyer
from qfoundry import quantum as qt
from qfoundry.datasets import build_cabello18, build_peres33

PAPER_CHSH_ANGLES = (0.0, math.pi / 2, 7 * math.pi / 4, 5 * math.pi / 4)
PAPER_LOGIC_ANGLES = (0.0, 2 * math.pi / 3, math.pi, math.pi / 3)


def test_singlet_correlation_examples():
    r = bell.AngleSetting(0.3, 1.1)
    assert bell.singlet_correlation(r, r) == pytest.approx(-1.0, abs=1e-12)
    a = bell.AngleSetting(0.0)
    b = bell.AngleSetting(math.pi / 2)
    assert bell.singlet_correlation(a, b) == pytest.approx(0.0, abs=1e-12)
    c = bell.AngleSetting(7 * math.pi / 4)
    assert bell.singlet_correlation(a, c) == pytest.approx(-math.sqrt(2) / 2, abs=1e-12)


def test_singlet_correlation_closed_form_matches_matrices():
    # against <singlet| sigma_r1 (x) sigma_r2 |singlet> in dense tensor algebra
    rng = np.random.default_rng(31)
    for _ in range(60):
        t1, t2 = rng.uniform(0, 2 * math.pi, 2)
        p1, p2 = rng.uniform(0, math.pi, 2)
        r1, r2 = bell.AngleSetting(t1, p1), bell.AngleSetting(t2, p2)
        op = np.kron(qt.spin_operator(t1, p1), qt.spin_operator(t2, p2))
        assert bell.singlet_correlation(r1, r2) == pytest.approx(
            float(np.real(qt.SINGLET.conj() @ op @ qt.SINGLET)), abs=1e-12
        )


def test_chsh_paper_value():
    value = bell.chsh_value(*PAPER_CHSH_ANGLES)
    assert abs(value - bell.TSIRELSON) <= 1e-12


def test_chsh_equal_angles():
    assert bell.chsh_value(1.3, 1.3, 1.3, 1.3) == pytest.approx(2.0, abs=1e-12)


def test_chsh_grid_never_exceeds_tsirelson():
    # coarser grid here; the acceptance suite sweeps the 1-degree grid
    assert bell.chsh_grid_max(step_degrees=3) <= bell.TSIRELSON + 1e-12


def test_chsh_grid_max_matches_brute_force():
    # every four-angle tuple of the 30-degree grid, one chsh_value each
    grid = [math.radians(a) for a in range(0, 360, 30)]
    brute = max(bell.chsh_value(*angles) for angles in product(grid, repeat=4))
    assert abs(bell.chsh_grid_max(30) - brute) <= 1e-12


def test_chsh_grid_step_must_divide_360():
    with pytest.raises(ValueError, match="does not divide 360"):
        bell.chsh_grid_max(7)


def test_chsh_random_angles_below_tsirelson():
    rng = np.random.default_rng(77)
    for _ in range(500):
        angles = rng.uniform(0, 2 * math.pi, 4)
        assert bell.chsh_value(*angles) <= bell.TSIRELSON + 1e-12


def _correlation(strategy, x, y):
    """Exact expectation of the product of the two responses."""
    return sum(p * a * b for p, a, b in zip(
        strategy.hidden_probabilities, strategy.responses_a[x], strategy.responses_b[y]))


def _exact_chsh(strategy):
    e = [[_correlation(strategy, x, y) for y in (0, 1)] for x in (0, 1)]
    return abs(e[0][0] - e[0][1]) + abs(e[1][0] + e[1][1])


def test_anticorrelated_strategy_exact():
    strategy = bell.anticorrelated_strategy()
    # enumerate the four hidden values by hand: E(x,y) = -delta_{xy}
    assert _correlation(strategy, 0, 0) == Q(-1)
    assert _correlation(strategy, 0, 1) == Q(0)
    assert _correlation(strategy, 1, 1) == Q(-1)
    assert _exact_chsh(strategy) == Q(2)


def test_random_strategy_chsh_zero():
    strategy = bell.random_response_strategy()
    assert _exact_chsh(strategy) == Q(0)
    value, sigma = bell.lhv_chsh_monte_carlo(strategy, 100_000, seed=5)
    assert abs(value) <= 5 * sigma


def test_exhaustive_deterministic_tables_reach_exactly_two():
    assert bell.exhaustive_deterministic_chsh_max() == Q(2)


def _fraction_table_sweep():
    """Reference: every pair of deterministic tables in Fraction arithmetic."""
    half, best = Q(1, 2), Q(0)

    def expectation(ta, tb, x, y):
        return half * sum(ta[2 * x + l] * tb[2 * y + l] for l in (0, 1))

    for ta in product((-1, 1), repeat=4):
        for tb in product((-1, 1), repeat=4):
            value = abs(expectation(ta, tb, 0, 0) - expectation(ta, tb, 0, 1)) + abs(
                expectation(ta, tb, 1, 0) + expectation(ta, tb, 1, 1)
            )
            best = max(best, value)
    return best


def test_exhaustive_deterministic_matches_fraction_sweep():
    got = bell.exhaustive_deterministic_chsh_max()
    assert got == _fraction_table_sweep() == Q(2)
    assert type(got) is Q


def test_lhv_monte_carlo_respects_local_bound():
    for seed, strategy in (
        (1, bell.anticorrelated_strategy()),
        (2, bell.random_response_strategy()),
    ):
        value, sigma = bell.lhv_chsh_monte_carlo(strategy, 100_000, seed)
        assert value <= 2 + 5 * sigma


def _gathered_chsh(strategy, shots, seed):
    """Reference: gather each shot's +-1 responses and average the products."""
    rng = np.random.default_rng(seed)
    probs = np.array([float(p) for p in strategy.hidden_probabilities])
    samples = rng.choice(len(probs), size=shots, p=probs)
    a = np.array(strategy.responses_a)[:, samples]
    b = np.array(strategy.responses_b)[:, samples]
    e = [[float(np.mean(a[x] * b[y])) for y in (0, 1)] for x in (0, 1)]
    return abs(e[0][0] - e[0][1]) + abs(e[1][0] + e[1][1]), 2.0 / math.sqrt(shots)


def _unequal_strategy():
    """Four hidden values of unequal weight, one of them never drawn."""
    return bell.LhvStrategy(
        hidden_probabilities=(Q(1, 2), Q(0), Q(1, 8), Q(3, 8)),
        responses_a=((1, -1, -1, 1), (1, 1, -1, -1)),
        responses_b=((-1, 1, 1, 1), (1, -1, 1, -1)),
    )


@pytest.mark.parametrize("strategy", [bell.anticorrelated_strategy(),
                                      bell.random_response_strategy(),
                                      _unequal_strategy()],
                         ids=["anticorrelated", "random", "unequal"])
@pytest.mark.parametrize("shots", [1, 7, 100_000, 1_000_000])
def test_lhv_monte_carlo_matches_gathered_means(strategy, shots):
    for seed in (0, 5, 0xC0FFEE):
        assert bell.lhv_chsh_monte_carlo(strategy, shots, seed) == _gathered_chsh(
            strategy, shots, seed)


def test_lhv_strategy_refuses_negative_probability():
    with pytest.raises(ValueError, match="must be non-negative"):
        bell.LhvStrategy(
            hidden_probabilities=(Q(3, 2), Q(-1, 2)),
            responses_a=((1, -1), (1, 1)),
            responses_b=((1, 1), (-1, 1)),
        )


@pytest.mark.parametrize("shots", [0, -5])
def test_lhv_monte_carlo_needs_a_shot(shots):
    with pytest.raises(ValueError, match="shots must be at least 1"):
        bell.lhv_chsh_monte_carlo(bell.random_response_strategy(), shots, 1)


def test_logical_bell_paper_angles():
    result = bell.logical_bell(*PAPER_LOGIC_ANGLES)
    assert result.lhs == pytest.approx(0.5, abs=1e-12)
    assert result.rhs_sum == pytest.approx(0.375, abs=1e-12)
    assert result.violated


def test_logical_bell_equal_angles():
    result = bell.logical_bell(0.7, 0.7, 0.7, 0.7)
    assert result.lhs == pytest.approx(0.0, abs=1e-12)
    assert not result.violated


def test_logical_bell_opposite_first_pair():
    result = bell.logical_bell(0.0, 0.0, math.pi, 0.0)
    assert result.lhs == pytest.approx(0.5, abs=1e-12)
    assert result.rhs_sum >= 0.5 - 1e-12


def test_logical_bell_term_range_and_marginals():
    rng = np.random.default_rng(13)
    for _ in range(100):
        a, b = rng.uniform(0, 2 * math.pi, 2)
        p = bell.joint_up_probability(a, b)
        assert -1e-15 <= p <= 0.5 + 1e-15
        # both outcomes of one side sum to the 1/2 marginal
        down_axis = b + math.pi
        assert p + bell.joint_up_probability(a, down_axis) == pytest.approx(0.5, abs=1e-12)


def test_sequential_paper_values():
    result, sandwich = bell.sequential_logical_bell(*PAPER_LOGIC_ANGLES)
    assert sandwich == pytest.approx((9 / 32, 0.0, 0.0, 1 / 32), abs=1e-12)
    assert result.terms[2] == pytest.approx(5 / 16, abs=1e-12)
    assert result.terms[0] == pytest.approx(1 / 8, abs=1e-12)
    assert result.terms[1] == pytest.approx(1 / 8, abs=1e-12)
    assert result.lhs == pytest.approx(0.5, abs=1e-12)
    assert not result.violated


def test_sequential_reduces_to_plain_when_repeated():
    a1, b1 = 0.4, 2.0
    result, _ = bell.sequential_logical_bell(a1, a1, b1, b1)
    plain = bell.logical_bell(a1, a1, b1, b1)
    assert result.lhs == pytest.approx(plain.lhs, abs=1e-12)
    assert result.terms[2] == pytest.approx(
        bell.joint_up_probability(a1, b1), abs=1e-12
    )


def _sequential_rhs_closed_form(a1, a2, b1, b2):
    """Vectorized oracle for the sequential right-hand side.

    Rank-1 sandwiches collapse to transition weights: P_s X P_s =
    <s|X|s> P_s, so every term is a product of half-angle overlaps with the
    simultaneous first-round joint probabilities.
    """

    def overlap(s, first, second):  # |<first_s, second_->|^2
        return 0.5 * (1 - s * np.cos(first - second))

    def joint(s, t, a, b):  # <psi, P_{a s} x P_{b t} psi>
        return 0.25 * (1 - s * t * np.cos(a - b))

    p_a1_b2 = sum(joint(1, t, a1, b1) * (0.5 * (1 + t * np.cos(b1 - b2))) for t in (1, -1))
    p_a2_b1 = sum(joint(s, 1, a1, b1) * (0.5 * (1 + s * np.cos(a1 - a2))) for s in (1, -1))
    p_not = sum(
        joint(s, t, a1, b1) * overlap(s, a1, a2) * overlap(t, b1, b2)
        for s in (1, -1)
        for t in (1, -1)
    )
    return p_a1_b2 + p_a2_b1 + p_not


def test_sequential_closed_form_oracle_matches_matrices():
    rng = np.random.default_rng(19)
    for _ in range(40):
        a1, a2, b1, b2 = rng.uniform(0, 2 * math.pi, 4)
        result, _ = bell.sequential_logical_bell(a1, a2, b1, b2)
        assert result.rhs_sum == pytest.approx(
            _sequential_rhs_closed_form(a1, a2, b1, b2), abs=1e-12
        )


def test_sequential_inequality_never_violated_on_grid():
    # 20^4 seeded-random angle grid via the verified closed form
    rng = np.random.default_rng(0xC0FFEE)
    a1, a2, b1, b2 = (rng.uniform(0, 2 * math.pi, 20) for _ in range(4))
    a1, a2, b1, b2 = np.meshgrid(a1, a2, b1, b2, indexing="ij")
    lhs = 0.25 * (1 - np.cos(a1 - b1))
    rhs = _sequential_rhs_closed_form(a1, a2, b1, b2)
    assert np.all(lhs <= rhs + 1e-12)


def test_prob_sum_two_examples():
    assert bell.prob_sum_is_two(1, 1, 0) == 1
    assert bell.prob_sum_is_two(0.5, 0.5, 0.5) == pytest.approx(0.375)


def test_imprecise_grid_sup():
    sup, arg = bell.imprecise_sum_grid_sup(101)
    assert sup <= 0.5 + 1e-9
    assert sup >= 0.5 - 1e-3
    assert sum(p >= 0.5 for p in arg) != 2  # the rounded outcomes break the rule


def _meshgrid_grid_sup(steps):
    """Reference: the whole (steps, steps, steps) grid and one argmax."""
    axis = np.linspace(0.0, 1.0, steps)
    p1, p2, p3 = np.meshgrid(axis, axis, axis, indexing="ij", copy=False)
    value = bell.prob_sum_is_two(p1, p2, p3)
    violating = ((p1 >= 0.5).astype(int) + (p2 >= 0.5) + (p3 >= 0.5)) != 2
    value = np.where(violating, value, -np.inf)
    idx = np.unravel_index(int(np.argmax(value)), value.shape)
    return float(value[idx]), (float(p1[idx]), float(p2[idx]), float(p3[idx]))


@pytest.mark.parametrize("steps", [2, 3, 5, 11, 51, 100, 101, 201])
def test_imprecise_grid_sup_matches_meshgrid(steps):
    # the supremum is attained at several symmetric points, so equal points
    # also check that ties go to the first one in C order
    assert bell.imprecise_sum_grid_sup(steps) == _meshgrid_grid_sup(steps)


def test_prob_sum_two_exceeds_half_off_region():
    assert bell.prob_sum_is_two(0.95, 0.95, 0.05) > 0.5
    assert sum(p >= 0.5 for p in (0.95, 0.95, 0.05)) == 2


def test_appleby_bound_from_meyer_neighborhoods():
    """Couple the bound to the dense coloring: outcome probabilities are
    neighborhood averages of actual colors around a rational triad."""
    rows = meyer.enumerate_pyth_points(25)
    unit = {tuple(r[:3].tolist()): r[:3] / r[3] for r in rows}
    colors = {t: meyer._triple_color(t) for t in unit}
    triad = [(2, 2, 1), (2, -1, -2), (1, -2, 2)]
    radius = 0.35
    probs = []
    for center in triad:
        cu = np.array(center, dtype=float) / 3.0
        near = [
            colors[c]
            for c, u in unit.items()
            if min(np.linalg.norm(u - cu), np.linalg.norm(u + cu)) <= radius
        ]
        assert near, "empty neighborhood"
        probs.append(float(np.mean(near)))
    if sum(p >= 0.5 for p in probs) != 2:
        assert bell.prob_sum_is_two(*probs) <= 0.5 + 1e-12


def test_fwt_bounds_examples():
    assert bell.fwt_bounds(0.0, 0.0).satisfied
    boundary = bell.fwt_bounds(1 / 1320, 0.0)
    assert not boundary.satisfied
    for eps_s, eps_t in ((1 / 2900000, 0.0), (0.0, 1 / 8700000)):
        assert 3 * eps_t + eps_s <= 1 / 2900000 + 1e-18
        assert bell.fwt_bounds(eps_s, eps_t).satisfied
    with pytest.raises(ValueError):
        bell.fwt_bounds(-0.1, 0.0)


def test_fwt_direction_counts():
    structure = ks.build_orth_structure(build_peres33())
    counts = bell.fwt_direction_counts(structure)
    assert counts.triads_total == 40
    assert counts.with_three_known == 16
    assert counts.with_two_known == 24
    assert counts.coefficient == Q(4, 55)
    assert counts.joint_experiments == 1320


def test_fwt_direction_counts_wrong_input():
    structure = ks.build_orth_structure(build_cabello18())
    with pytest.raises(ks.NotApplicableError):
        bell.fwt_direction_counts(structure)
