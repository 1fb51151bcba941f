"""Acceptance suite: the ten headline checks, one test per criterion.

Each test prints a single CRITERION line so `pytest -s tests/test_acceptance.py`
reads as a checklist.  Tolerances are fixed here and nowhere else.
"""

import json
import math
import subprocess
import sys
import time
from fractions import Fraction as Q

import numpy as np

from qfoundry import bell, ks, logic, meyer, mkc
from qfoundry import quantum as qt
from qfoundry.datasets import build_cabello18, build_peres33

SEED = 0xC0FFEE
SHOTS = 100_000


def _report(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"CRITERION {name}: {status} {detail}".rstrip())
    assert ok, f"{name} failed: {detail}"


def test_criterion_1_ks_uncolorability():
    detail = []
    for name, build in (("peres33", build_peres33), ("cabello18", build_cabello18)):
        structure = ks.build_orth_structure(build())
        started = time.perf_counter()
        result = ks.search_coloring(structure)
        elapsed = time.perf_counter() - started
        ok = (not result.colorable) and elapsed < 5.0
        detail.append(f"{name}: colorable=false in {elapsed:.3f}s")
        assert ok, f"{name}: colorable={result.colorable}, {elapsed:.2f}s"
    witness = ks.cabello_parity_witness(ks.build_orth_structure(build_cabello18()))
    parity_ok = witness.bases_count == 9 and set(witness.membership_counts) == {2}
    detail.append("parity: 9 bases, all memberships 2")
    _report("1 ks-uncolorability", parity_ok, "; ".join(detail))


def test_criterion_2_meyer_conditions():
    started = time.perf_counter()
    report = meyer.verify_meyer_conditions(meyer.enumerate_pyth_points(25))
    elapsed = time.perf_counter() - started
    ok = report.violations == 0 and elapsed < 10.0
    _report(
        "2 meyer-conditions",
        ok,
        f"rays={report.rays} triads={report.triads} pairs={report.pairs} "
        f"violations={report.violations} in {elapsed:.2f}s",
    )


def test_criterion_3_chsh():
    value = bell.chsh_value(0.0, math.pi / 2, 7 * math.pi / 4, 5 * math.pi / 4)
    point_ok = abs(value - 2 * math.sqrt(2)) <= 1e-12
    grid_max = bell.chsh_grid_max(step_degrees=1)
    grid_ok = grid_max <= 2 * math.sqrt(2) + 1e-12
    tables_ok = bell.exhaustive_deterministic_chsh_max() == Q(2)
    mc_ok = True
    for seed_offset, strategy in (
        (0, bell.anticorrelated_strategy()),
        (1, bell.random_response_strategy()),
    ):
        empirical, sigma = bell.lhv_chsh_monte_carlo(strategy, SHOTS, SEED + seed_offset)
        mc_ok = mc_ok and empirical <= 2 + 5 * sigma
    ok = point_ok and grid_ok and tables_ok and mc_ok
    _report(
        "3 chsh",
        ok,
        f"point={value:.15f} grid_max={grid_max:.15f} tables=2 mc<=2+5sigma",
    )


def test_criterion_4_logical_bell():
    plain = bell.logical_bell(0.0, 2 * math.pi / 3, math.pi, math.pi / 3)
    plain_ok = (
        abs(plain.lhs - 0.5) <= 1e-12
        and abs(plain.rhs_sum - 0.375) <= 1e-12
        and plain.violated
    )
    seq, _ = bell.sequential_logical_bell(0.0, 2 * math.pi / 3, math.pi, math.pi / 3)
    seq_ok = abs(seq.terms[2] - 5 / 16) <= 1e-12 and not seq.violated
    _report(
        "4 logical-bell",
        plain_ok and seq_ok,
        f"lhs={plain.lhs} rhs={plain.rhs_sum} sequential_term={seq.terms[2]}",
    )


def test_criterion_5_mkc_statistics():
    family = mkc.generate_basis_family(3, 16, SEED)
    rng = np.random.default_rng((SEED, 0xA))
    raw = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    rho = qt.DensityOperator(raw @ raw.conj().T / np.trace(raw @ raw.conj().T).real)
    worst_pull = 0.0
    for m in range(6):
        choices = mkc.sample_choices(rho, family, m, SHOTS, SEED)
        probs = family.atom_probabilities(rho, m)
        for j in range(3):
            empirical = float(np.mean(choices == j))
            sigma = math.sqrt(max(probs[j] * (1 - probs[j]), 1e-12) / SHOTS)
            worst_pull = max(worst_pull, abs(empirical - probs[j]) / sigma)
    marginals_ok = worst_pull <= 3.0

    c0 = mkc.sample_choices(rho, family, 0, SHOTS, SEED)
    c1 = mkc.sample_choices(rho, family, 1, SHOTS, SEED)
    p = family.atom_probabilities(rho, 0)[0]
    q = family.atom_probabilities(rho, 1)[0]
    joint = float(np.mean((c0 == 0) & (c1 == 0)))
    sigma = math.sqrt(p * q * (1 - p * q) / SHOTS)
    factorize_ok = abs(joint - p * q) <= 3 * sigma

    e1 = np.ones(3) / math.sqrt(3)
    e2 = np.array([1.0, 1.0, -1.0]) / math.sqrt(3)
    planted = mkc.generate_basis_family(3, 16, SEED, include=[e1, e2])
    report = mkc.simulate_sequence(
        qt.DensityOperator.pure(e1),
        [np.outer(e1, e1.conj()), np.outer(e2, e2.conj())],
        planted,
        SEED,
        SHOTS,
    )
    joint11 = report.frequencies.get((1.0, 1.0), 0.0)
    cab_sigma = math.sqrt((1 / 9) * (8 / 9) / SHOTS)
    cabello_ok = abs(joint11 - 1 / 9) <= 3 * cab_sigma
    _report(
        "5 mkc-statistics",
        marginals_ok and factorize_ok and cabello_ok,
        f"worst_pull={worst_pull:.2f}sigma joint={joint:.5f} cabello={joint11:.5f}",
    )


def test_criterion_6_reconstruction():
    worst = 0.0
    for dim in (2, 3, 4):
        basis = [np.eye(dim, dtype=complex)[:, k] for k in range(dim)]
        for trial in range(100):
            rng = np.random.default_rng((SEED, dim, trial))
            raw = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            state = raw @ raw.conj().T
            state = state / np.trace(state).real
            recovered = qt.reconstruct_state(
                lambda ops: np.trace(state @ ops, axis1=1, axis2=2).real, basis
            )
            worst = max(worst, float(np.abs(recovered - state).max()))
    recon_ok = worst < 1e-10

    gen_worst = 0.0
    for n in range(1, 6):
        dim = max(n, 3)
        rng = np.random.default_rng((SEED, n))
        raw = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        unitary, _ = np.linalg.qr(raw)
        projections = [qt.ProjectionOp.onto(unitary[:, k]) for k in range(n)]
        _, _, residuals = qt.ks_single_generator(projections)
        gen_worst = max(gen_worst, max(residuals))
    gen_ok = gen_worst < 1e-8
    _report(
        "6 reconstruction",
        recon_ok and gen_ok,
        f"max_entry_error={worst:.2e} max_generator_residual={gen_worst:.2e}",
    )


def test_criterion_7_appleby_bound():
    sup, arg = bell.imprecise_sum_grid_sup(101)
    sup_ok = sup <= 0.5 + 1e-9
    approach_ok = sup >= 0.5 - 1e-3
    _report(
        "7 appleby-bound",
        sup_ok and approach_ok,
        f"grid_sup={sup} at {arg}",
    )


def test_criterion_8_fwt():
    counts = bell.fwt_direction_counts(ks.build_orth_structure(build_peres33()))
    counts_ok = (
        counts.triads_total,
        counts.with_three_known,
        counts.with_two_known,
    ) == (40, 16, 24)
    coeff_ok = counts.coefficient == Q(4, 55)
    bounds_ok = True
    for eps_s, eps_t in (
        (1 / 2900000, 0.0),
        (0.0, 1 / 8700000),
        (1 / 5800000, 1 / 17400000),
    ):
        assert 3 * eps_t + eps_s <= 1 / 2900000 * (1 + 1e-12)
        bounds_ok = bounds_ok and bell.fwt_bounds(eps_s, eps_t).satisfied
    _report(
        "8 fwt",
        counts_ok and coeff_ok and bounds_ok,
        f"counts=({counts.triads_total},{counts.with_three_known},"
        f"{counts.with_two_known}) coefficient={counts.coefficient}",
    )


def test_criterion_9_heyting():
    b0 = np.eye(2, dtype=complex)
    b1 = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
    poset = logic.poset_from_bases([b0, b1])
    report = logic.check_heyting_laws(poset, "l3", exhaustive=True)
    laws_ok = report.passed
    bot, top = logic.bottom(poset), logic.top(poset)
    collapse_ok = all(
        logic.l3_negation(poset, el) == (top if el == bot else bot)
        for el in logic.enumerate_elements(poset, "l3")
    )
    popper = logic.popper_counterexample()
    popper_ok = (
        abs(popper["p_undistributed"] - 0.5) <= 1e-12
        and abs(popper["p_distributed"]) <= 1e-12
    )
    _report(
        "9 heyting",
        laws_ok and collapse_ok and popper_ok,
        f"elements={report.element_count} popper=({popper['p_undistributed']},"
        f"{popper['p_distributed']})",
    )


def test_criterion_10_determinism():
    command = [
        sys.executable, "-m", "qfoundry.cli",
        "verify-all", "--seed", "0xC0FFEE", "--json",
    ]
    first = subprocess.run(command, capture_output=True, text=True, check=False)
    second = subprocess.run(command, capture_output=True, text=True, check=False)
    codes_ok = first.returncode == 0 and second.returncode == 0
    identical = first.stdout == second.stdout and len(first.stdout) > 0
    passed = json.loads(first.stdout)["passed"] if codes_ok else False
    _report(
        "10 determinism",
        codes_ok and identical and passed,
        f"bytes={len(first.stdout)} identical={identical}",
    )
