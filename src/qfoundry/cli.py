"""Batch command-line driver.

Subcommands: ks, meyer, quantum, mkc, bell, fwt, logic, data, verify-all.
Reports are JSON (schema "qfoundry/1") on stdout; --csv flattens them into
key,value rows.  Exit status 0 means all requested verification passed,
1 means a check failed, 2 means the invocation was unusable.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from fractions import Fraction as Q
from typing import Callable, Optional

# Set before numpy loads: OpenBLAS's idle worker threads spin and burn CPU, and
# no product here is large enough to use them.  A value already set wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

from . import DEFAULT_SEED, __version__
from . import bell, ks, logic, meyer, mkc
from . import quantum as qt
from .datasets import BUILTIN_SETS, load_builtin
from .exact import DegenerateInputError, VectorSet

SCHEMA = "qfoundry/1"

USAGE_ERROR = 2
CHECK_FAILURE = 1
# verify-all's sample_choices holds one byte per shot; every other sampler
# holds one block of quantum._DRAW_BLOCK uniforms, however many shots
MAX_SHOTS = 10**7


class CliError(Exception):
    """Usage-level error: bad dataset name, malformed file, bad arguments."""


def _flatten(prefix: str, value, rows: list[tuple[str, str]]) -> None:
    if isinstance(value, dict):
        for key, sub in value.items():
            _flatten(f"{prefix}.{key}" if prefix else str(key), sub, rows)
    elif isinstance(value, (list, tuple)):
        for idx, sub in enumerate(value):
            _flatten(f"{prefix}[{idx}]", sub, rows)
    else:
        rows.append((prefix, repr(value) if isinstance(value, float) else str(value)))


def _write(text: str) -> None:
    """Print to stdout; once its reader is gone, send all output to os.devnull."""
    try:
        print(text, flush=True)
    except BrokenPipeError:  # the command goes on to return its own exit code
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def emit(report: dict, args: argparse.Namespace) -> None:
    report = {"schema": SCHEMA, **report}
    if args.csv:
        rows: list[tuple[str, str]] = []
        _flatten("", report, rows)
        _write("\n".join(f"{key},{value}" for key, value in rows))
    else:
        _write(json.dumps(report, indent=2, allow_nan=False))


def load_vector_set(name: str) -> VectorSet:
    if name in BUILTIN_SETS:
        return load_builtin(name)
    if name.endswith(".json"):
        if not os.path.exists(name):
            raise CliError(f"vector-set file not found: {name}")
        try:
            return VectorSet.load(name)
        except (OSError, UnicodeDecodeError) as exc:
            raise CliError(f"cannot read {name}: {exc}") from exc
        except ValueError as exc:
            raise CliError(str(exc)) from exc
    raise CliError(f"unknown dataset {name!r}; expected one of {BUILTIN_SETS} or a .json path")


def load_structure(name: str) -> ks.OrthStructure:
    """Orthogonality structure of a set; a duplicate ray is a usage error."""
    try:
        return ks.build_orth_structure(load_vector_set(name))
    except DegenerateInputError as exc:
        raise CliError(str(exc)) from exc


def _parse_floats(text: str, count: int, what: str) -> list[float]:
    parts = text.split(",")
    if len(parts) != count:
        raise CliError(f"{what} needs {count} comma-separated values, got {len(parts)}")
    try:
        values = [float(p) for p in parts]
    except ValueError as exc:
        raise CliError(f"{what} must be numeric: {exc}") from exc
    if not all(math.isfinite(v) for v in values):
        raise CliError(f"{what} must be finite, got {text!r}")
    return values


def _bounded(convert: Callable, option: str, low=-math.inf, high=math.inf) -> Callable:
    """Argument type: a finite number in [low, high] (an infinite end is open)."""
    span = f"{'(' if low == -math.inf else '['}{low}, {high}{')' if high == math.inf else ']'}"
    kind = "a number" if convert is float else "an integer"

    def checked(text: str):
        try:
            value = convert(text)
        except ValueError:
            raise CliError(f"{option} must be {kind} in {span}, got {text}") from None
        if not low <= value <= high or value in (-math.inf, math.inf):
            raise CliError(f"{option} must lie in {span}, got {text}")
        return value

    return checked


def _ginibre_state(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Random density matrix G G* / Tr(G G*) from a complex Gaussian G."""
    raw = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    state = raw @ raw.conj().T
    return state / np.trace(state).real


def _reconstruction_error(states: np.ndarray) -> float:
    """Max entry error of a (T, n, n) stack of states rebuilt, in one
    batched oracle call, from their expectation values on the standard
    basis."""
    dim = states.shape[-1]
    basis = [np.eye(dim, dtype=complex)[:, k] for k in range(dim)]
    recovered = qt.reconstruct_state(
        lambda ops: np.trace(states[:, None] @ ops, axis1=2, axis2=3).real, basis
    )
    return float(np.abs(recovered - states).max())


def _generator_residuals(rng: np.random.Generator, n: int) -> tuple[list, list]:
    """Alphas and residuals of the single generator of the projections onto
    the first n columns of a random unitary of dimension max(n, 3)."""
    dim = max(n, 3)
    raw = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    unitary, _ = np.linalg.qr(raw)
    projections = [qt.ProjectionOp.onto(unitary[:, k]) for k in range(n)]
    _, alphas, residuals = qt.ks_single_generator(projections)
    return alphas, residuals


def _complex_array(payload, shape: tuple[int, ...], what: str) -> np.ndarray:
    """A complex array of the given shape from nested [re, im] number pairs."""
    try:
        pairs = np.array(payload)
    except ValueError as exc:  # ragged nesting
        raise CliError(f"{what} must be nested [re, im] pairs: {exc}") from exc
    if (pairs.dtype.kind not in "biuf" or pairs.shape != (*shape, 2)
            or not np.isfinite(pairs).all()):
        layout = "x".join(str(n) for n in shape)
        raise CliError(f"{what} must hold {layout} finite [re, im] number pairs")
    return pairs.astype(float).view(complex)[..., 0]


def _nonzero_vector(payload, dim: int, what: str) -> np.ndarray:
    vector = _complex_array(payload, (dim,), what)
    if not qt.normalizable(vector):
        raise CliError(f"{what} must be nonzero, with a squared norm that neither "
                       "underflows nor overflows")
    return vector


def load_program(
    path: str, dim: int, bases: int
) -> tuple[list[np.ndarray], list[np.ndarray], qt.DensityOperator]:
    """Observables, planted vectors and start state of an mkc program file."""
    try:
        with open(path, encoding="utf-8") as fh:
            program = json.load(fh)
    except FileNotFoundError as exc:
        raise CliError(f"program file not found: {path}") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CliError(f"malformed JSON in {path}: {exc}") from exc
    if not isinstance(program, dict) or "observables" not in program:
        raise CliError("program file must define 'observables'")
    observables = program["observables"]
    include = program.get("include", [])
    if not isinstance(observables, list) or not isinstance(include, list):
        raise CliError("program 'observables' and 'include' must be lists")
    if len(include) > bases:
        raise CliError(f"program plants {len(include)} vectors in {bases} bases")
    observables = [
        _complex_array(m, (dim, dim), f"observable {k}") for k, m in enumerate(observables)
    ]
    for k, mat in enumerate(observables):
        if np.abs(mat - mat.conj().T).max() > qt.STRUCT_TOL:
            raise CliError(f"observable {k} must be Hermitian")
    include = [_nonzero_vector(v, dim, f"planted vector {k}") for k, v in enumerate(include)]
    spec = program.get("state")
    if spec is None:
        rho = qt.DensityOperator.maximally_mixed(dim)
    elif isinstance(spec, dict) and "pure" in spec:
        rho = qt.DensityOperator.pure(_nonzero_vector(spec["pure"], dim, "pure state"))
    elif isinstance(spec, dict) and "density" in spec:
        matrix = _complex_array(spec["density"], (dim, dim), "density state")
        try:
            rho = qt.DensityOperator(matrix)
        except ValueError as exc:
            raise CliError(f"density state: {exc}") from exc
    else:
        raise CliError("state must be given as 'pure' or 'density'")
    return observables, include, rho


# ---------------------------------------------------------------- subcommands


def cmd_ks_check(args) -> int:
    structure = load_structure(args.set)
    try:
        if args.complete_pairs:
            structure = ks.build_orth_structure(ks.complete_pairs_to_triads(structure))
        colorings = ks.count_colorings(structure) if args.count else None
    except ks.NotApplicableError as exc:  # the set does not meet the option's precondition
        raise CliError(str(exc)) from exc
    result = ks.search_coloring(structure)
    emit(
        {
            "set": args.set,
            "vectors": len(structure.vectors),
            "bases": len(structure.bases),
            "pairs": len(structure.pairs),
            "colorable": result.colorable,
            "colorings": colorings,
            "nodes_explored": result.nodes_explored,
        },
        args,
    )
    return 0


def cmd_ks_parity(args) -> int:
    structure = load_structure(args.set)
    try:
        witness = ks.cabello_parity_witness(structure)
    except ks.NotApplicableError as exc:
        emit({"set": args.set, "applicable": False, "reason": str(exc)}, args)
        return CHECK_FAILURE
    emit(
        {
            "set": args.set,
            "applicable": True,
            "bases": witness.bases_count,
            "bases_parity_odd": witness.bases_parity_odd,
            "membership_counts": sorted(set(witness.membership_counts)),
            "uncolorable": witness.uncolorable,
        },
        args,
    )
    return 0


def cmd_meyer_verify(args) -> int:
    report = meyer.verify_meyer_conditions(meyer.enumerate_pyth_points(args.max_n))
    emit(
        {
            "max_n": args.max_n,
            "rays": report.rays,
            "triads": report.triads,
            "pairs": report.pairs,
            "violations": report.violations,
        },
        args,
    )
    return 0 if report.violations == 0 else CHECK_FAILURE


def cmd_quantum_reconstruct(args) -> int:
    tolerance = args.tolerance if args.tolerance is not None else qt.STRUCT_TOL
    error = _reconstruction_error(_ginibre_state(np.random.default_rng(args.seed), args.dim)[None])
    emit(
        {"dim": args.dim, "seed": args.seed, "max_entry_error": error,
         "tolerance": tolerance, "passed": error < tolerance},
        args,
    )
    return 0 if error < tolerance else CHECK_FAILURE


def cmd_quantum_generator(args) -> int:
    tolerance = args.tolerance if args.tolerance is not None else qt.VERIFY_TOL
    alphas, residuals = _generator_residuals(np.random.default_rng(args.seed), args.n)
    worst = max(residuals)
    emit(
        {"n": args.n, "alpha": alphas, "max_residual": worst,
         "tolerance": tolerance, "passed": worst < tolerance},
        args,
    )
    return 0 if worst < tolerance else CHECK_FAILURE


def cmd_mkc_simulate(args) -> int:
    observables, include, rho = load_program(args.program, args.dim, args.bases)
    try:
        family = mkc.generate_basis_family(args.dim, args.bases, args.seed, include=include)
    except mkc.FamilyGenerationError as exc:
        raise CliError(
            f"{exc}: orthogonal or parallel planted vectors can never lie in totally "
            "incompatible bases"
        ) from exc
    report = mkc.simulate_sequence(rho, observables, family, args.seed, args.shots)
    emit(
        {
            "dim": args.dim,
            "bases": args.bases,
            "seed": args.seed,
            "shots": args.shots,
            "realized_distances": list(report.realized_distances),
            "empirical": {str(k): v for k, v in report.frequencies.items()},
            "exact": {str(k): v for k, v in sorted(report.exact_probabilities.items())},
            "total_variation_distance": report.total_variation_distance,
        },
        args,
    )
    return 0


def cmd_bell_chsh(args) -> int:
    angles = _parse_floats(args.angles, 4, "--angles")
    value = bell.chsh_value(*angles)
    report = {"angles": angles, "value": value}
    if args.grid:
        report["grid_max"] = bell.chsh_grid_max()
        report["tsirelson"] = bell.TSIRELSON
    emit(report, args)
    return 0


def cmd_bell_logical(args) -> int:
    angles = _parse_floats(args.angles, 4, "--angles")
    plain = bell.logical_bell(*angles)
    report = {
        "angles": angles,
        "lhs": plain.lhs,
        "rhs_sum": plain.rhs_sum,
        "violated": plain.violated,
    }
    if args.sequential:
        seq, sandwich = bell.sequential_logical_bell(*angles)
        report["sequential"] = {
            "lhs": seq.lhs,
            "rhs_sum": seq.rhs_sum,
            "terms": list(seq.terms),
            "sandwich_terms": list(sandwich),
            "violated": seq.violated,
        }
    emit(report, args)
    return 0


def cmd_fwt_bounds(args) -> int:
    bounds = bell.fwt_bounds(args.eps_s, args.eps_t)
    emit(
        {
            "eps_s": args.eps_s,
            "eps_t": args.eps_t,
            "f_max": bounds.f_max,
            "f_min": bounds.f_min,
            "satisfied": bounds.satisfied,
        },
        args,
    )
    return 0


def cmd_fwt_counts(args) -> int:
    structure = ks.build_orth_structure(load_builtin("peres33"))
    counts = bell.fwt_direction_counts(structure)
    emit(
        {
            "triads_total": counts.triads_total,
            "with_three_known": counts.with_three_known,
            "with_two_known": counts.with_two_known,
            "coefficient": str(counts.coefficient),
            "joint_experiments": counts.joint_experiments,
        },
        args,
    )
    return 0


def cmd_logic_heyting(args) -> int:
    rng = np.random.default_rng(args.seed)
    bases = [mkc.random_unitary(rng, args.dim).T for _ in range(args.bases)]
    poset = logic.poset_from_bases(bases)
    try:
        report = logic.check_heyting_laws(
            poset, args.variant, exhaustive=args.exhaustive, seed=args.seed
        )
    except logic.ExhaustiveLimitError as exc:
        raise CliError(str(exc)) from exc
    emit(
        {
            "dim": args.dim,
            "bases": args.bases,
            "variant": report.variant,
            "contexts": len(poset.contexts),
            "elements": report.element_count,
            "triples_checked": report.triples_checked,
            "exhaustive": report.exhaustive,
            "passed": report.passed,
            "violations": list(report.violations),
        },
        args,
    )
    return 0 if report.passed else CHECK_FAILURE


def cmd_logic_popper(args) -> int:
    emit(logic.popper_counterexample(), args)
    return 0


def cmd_data_export(args) -> int:
    vset = load_vector_set(args.set)
    if args.out:
        try:
            vset.dump(args.out)
        except OSError as exc:
            raise CliError(f"cannot write {args.out}: {exc}") from exc
        emit({"set": args.set, "written": args.out, "vectors": len(vset)}, args)
    else:
        _write(json.dumps(vset.to_json_dict(), indent=1))
    return 0


# ------------------------------------------------------------------ verify-all


def _acceptance_checks(seed: int, shots: int) -> list[tuple[str, Callable[[], dict]]]:
    """Every acceptance criterion as a named check returning report details.

    Checks raise AssertionError with a message on failure.
    """

    def ks_uncolorable() -> dict:
        out = {}
        for name in ("peres33", "cabello18"):
            structure = ks.build_orth_structure(load_builtin(name))
            started = time.perf_counter()
            result = ks.search_coloring(structure)
            elapsed = time.perf_counter() - started
            assert not result.colorable, f"{name} unexpectedly colorable"
            assert elapsed < 5.0, f"{name} search took {elapsed:.2f}s"
            out[name] = {"nodes": result.nodes_explored}
        witness = ks.cabello_parity_witness(structure)  # the loop ends on cabello18
        assert witness.bases_count == 9 and witness.bases_parity_odd
        assert set(witness.membership_counts) == {2}
        out["parity"] = {"bases": witness.bases_count, "memberships": 2}
        return out

    def meyer_conditions() -> dict:
        started = time.perf_counter()
        report = meyer.verify_meyer_conditions(meyer.enumerate_pyth_points(25))
        elapsed = time.perf_counter() - started
        assert report.violations == 0, f"{report.violations} violations"
        assert elapsed < 10.0, f"verification took {elapsed:.2f}s"
        return {
            "rays": report.rays,
            "triads": report.triads,
            "pairs": report.pairs,
        }

    def chsh() -> dict:
        value = bell.chsh_value(0.0, math.pi / 2, 7 * math.pi / 4, 5 * math.pi / 4)
        assert abs(value - bell.TSIRELSON) <= 1e-12, f"point value {value}"
        grid_max = bell.chsh_grid_max()
        assert grid_max <= bell.TSIRELSON + 1e-12, f"grid max {grid_max}"
        table_max = bell.exhaustive_deterministic_chsh_max()
        assert table_max == 2, f"deterministic table max {table_max}"
        mc = {}
        for name, strategy in (
            ("anticorrelated", bell.anticorrelated_strategy()),
            ("random", bell.random_response_strategy()),
        ):
            empirical, sigma = bell.lhv_chsh_monte_carlo(strategy, shots, seed)
            assert empirical <= 2 + 5 * sigma, f"{name} exceeded local bound"
            mc[name] = round(empirical, 6)
        return {
            "value": value,
            "grid_max": grid_max,
            "deterministic_max": str(table_max),
            "monte_carlo": mc,
        }

    def logical() -> dict:
        angles = (0.0, 2 * math.pi / 3, math.pi, math.pi / 3)
        plain = bell.logical_bell(*angles)
        assert abs(plain.lhs - 0.5) <= 1e-12 and abs(plain.rhs_sum - 0.375) <= 1e-12
        assert plain.violated
        seq, _ = bell.sequential_logical_bell(*angles)
        assert abs(seq.terms[2] - 5 / 16) <= 1e-12, f"sequential term {seq.terms[2]}"
        assert not seq.violated
        return {
            "lhs": plain.lhs,
            "rhs": plain.rhs_sum,
            "sequential_not_a2_not_b2": seq.terms[2],
        }

    def mkc_statistics() -> dict:
        family = mkc.generate_basis_family(3, 16, seed)
        rho = qt.DensityOperator(_ginibre_state(np.random.default_rng((seed, 0xA)), 3))
        worst = 0.0
        block = qt._DRAW_BLOCK
        for m in range(4):
            choices = mkc.sample_choices(rho, family, m, shots, seed)
            if m == 0:
                c0 = choices  # kept for the joint with basis 1 only
            elif m == 1:
                both = sum(np.count_nonzero((c0[start:start + block] == 0)
                                            & (choices[start:start + block] == 0))
                           for start in range(0, shots, block))
                del c0
            probs = family.atom_probabilities(rho, m)
            # bincount widens its input to intp, so it counts one block at a time
            hits = sum(np.bincount(choices[start:start + block], minlength=3)
                       for start in range(0, shots, block))
            for j in range(3):
                empirical = float(hits[j] / shots)
                sigma = math.sqrt(max(probs[j] * (1 - probs[j]), 1e-12) / shots)
                pull = abs(empirical - probs[j]) / sigma
                worst = max(worst, pull)
                assert pull <= 3.0, f"basis {m} atom {j} off by {pull:.2f} sigma"
            # rank-2 projection of the same basis
            p2 = family.projector(m, 0) + family.projector(m, 1)
            model = mkc.mkc_probability(rho, p2, family)
            born = qt.born_probability(rho, qt.ProjectionOp(p2))
            assert abs(model - born) <= 1e-12
        del choices  # so that the sequence below runs beside no draw
        # independence of non-commuting projections across bases
        p = family.atom_probabilities(rho, 0)[0]
        q = family.atom_probabilities(rho, 1)[0]
        joint = both / shots
        sigma = math.sqrt(p * q * (1 - p * q) / shots)
        assert abs(joint - p * q) <= 3 * sigma, "joint frequency does not factorize"
        # sequential two-projection experiment at the planted directions
        e1 = np.ones(3) / math.sqrt(3)
        e2 = np.array([1.0, 1.0, -1.0]) / math.sqrt(3)
        planted = mkc.generate_basis_family(3, 16, seed, include=[e1, e2])
        report = mkc.simulate_sequence(
            qt.DensityOperator.pure(e1),
            [np.outer(e1, e1.conj()), np.outer(e2, e2.conj())],
            planted,
            seed,
            shots,
        )
        joint11 = report.frequencies.get((1.0, 1.0), 0.0)
        sigma = math.sqrt((1 / 9) * (8 / 9) / shots)
        assert abs(joint11 - 1 / 9) <= 3 * sigma, f"sequential joint {joint11}"
        return {
            "worst_marginal_pull_sigma": round(worst, 3),
            "factorization_joint": round(joint, 6),
            "sequential_joint": round(joint11, 6),
        }

    def reconstruction() -> dict:
        worst = max(
            _reconstruction_error(np.array([
                _ginibre_state(np.random.default_rng((seed, dim, trial)), dim)
                for trial in range(100)
            ]))
            for dim in (2, 3, 4)
        )
        assert worst < 1e-10, f"reconstruction error {worst}"
        gen_worst = max(
            max(_generator_residuals(np.random.default_rng((seed, n)), n)[1])
            for n in range(1, qt.MAX_GENERATOR_TUPLE + 1)
        )
        assert gen_worst < 1e-8, f"generator residual {gen_worst}"
        return {"max_entry_error": worst, "max_generator_residual": gen_worst}

    def imprecision_bound() -> dict:
        sup, arg = bell.imprecise_sum_grid_sup(101)
        assert sup <= 0.5 + 1e-9, f"grid sup {sup}"
        assert sup >= 0.5 - 1e-3, f"sup not approached: {sup}"
        return {"grid_sup": sup, "argmax": list(arg)}

    def fwt() -> dict:
        structure = ks.build_orth_structure(load_builtin("peres33"))
        counts = bell.fwt_direction_counts(structure)
        assert (counts.triads_total, counts.with_three_known, counts.with_two_known) == (
            40,
            16,
            24,
        )
        assert counts.coefficient == Q(4, 55)
        assert counts.joint_experiments == 1320
        for eps_s, eps_t in ((1 / 2900000, 0.0), (0.0, 1 / 8700000), (1 / 5800000, 1 / 17400000)):
            assert 3 * eps_t + eps_s <= 1 / 2900000 + 1e-18
            assert bell.fwt_bounds(eps_s, eps_t).satisfied
        return {
            "triads": counts.triads_total,
            "with_three": counts.with_three_known,
            "with_two": counts.with_two_known,
            "coefficient": str(counts.coefficient),
        }

    def heyting() -> dict:
        b0 = np.eye(2, dtype=complex)
        b1 = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
        poset = logic.poset_from_bases([b0, b1])
        report = logic.check_heyting_laws(poset, "l3", exhaustive=True)
        assert report.passed, f"L3 violations: {report.violations[:2]}"
        elements = logic.enumerate_elements(poset, "l3")
        bot, topel = logic.bottom(poset), logic.top(poset)
        for element in elements:
            negated = logic.l3_negation(poset, element)
            expected = topel if element == bot else bot
            assert negated == expected, f"negation collapse fails at {element}"
        popper = logic.popper_counterexample()
        assert abs(popper["p_undistributed"] - 0.5) <= 1e-12
        assert abs(popper["p_distributed"]) <= 1e-12
        return {
            "l3_elements": report.element_count,
            "l3_triples": report.triples_checked,
            "popper": [popper["p_undistributed"], popper["p_distributed"]],
        }

    return [
        ("ks-uncolorability", ks_uncolorable),
        ("meyer-conditions", meyer_conditions),
        ("chsh", chsh),
        ("logical-bell", logical),
        ("mkc-statistics", mkc_statistics),
        ("reconstruction", reconstruction),
        ("imprecision-bound", imprecision_bound),
        ("fwt", fwt),
        ("heyting-laws", heyting),
    ]


def cmd_verify_all(args) -> int:
    results: list[dict] = []
    for name, check in _acceptance_checks(args.seed, args.shots):
        try:
            details = check()
            results.append({"check": name, "passed": True, "details": details})
        except AssertionError as exc:
            results.append({"check": name, "passed": False, "error": str(exc)})
        except Exception as exc:  # corrupted data, numeric failure
            results.append({"check": name, "passed": False,
                            "error": f"{type(exc).__name__}: {exc}"})

    all_passed = all(r["passed"] for r in results)
    if args.json or args.csv:
        emit(
            {"seed": args.seed, "shots": args.shots,
             "passed": all_passed, "checks": results},
            args,
        )
    else:
        for r in results:
            status = "PASS" if r["passed"] else "FAIL"
            extra = "" if r["passed"] else f"  ({r['error']})"
            _write(f"[{status}] {r['check']}{extra}")
        _write(f"{'all checks passed' if all_passed else 'FAILURES present'} "
               f"(seed={args.seed:#x})")
    return 0 if all_passed else CHECK_FAILURE


# ---------------------------------------------------------------------- main


# the options that only some commands read; each command names its own
_SHARED_OPTIONS = {
    "--seed": dict(type=_bounded(lambda s: int(s, 0), "--seed", 0), default=DEFAULT_SEED,
                   help="RNG seed (default 0xC0FFEE)"),
    "--shots": dict(type=_bounded(int, "--shots", 1, MAX_SHOTS), default=100_000,
                    help="Monte Carlo sample count (default 100000)"),
    "--tolerance": dict(type=_bounded(float, "--tolerance", 0), default=None,
                        help="override the pass tolerance"),
}


def _command(sub, name: str, *options: str, **kwargs) -> argparse.ArgumentParser:
    """A subcommand that takes --json, --csv and the named shared options."""
    parser = sub.add_parser(name, **kwargs)
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    parser.add_argument("--csv", action="store_true", help="flat key,value output")
    for option in options:
        parser.add_argument(option, **_SHARED_OPTIONS[option])
    return parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qfoundry",
        description="Finite checkable computations from quantum foundations.",
    )
    parser.add_argument("--version", action="version", version=f"qfoundry {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    ks_parser = sub.add_parser("ks", help="coloring of orthogonality structures")
    ks_sub = ks_parser.add_subparsers(dest="subcommand", required=True)
    check = _command(ks_sub, "check", help="decide colorability by exhaustive search")
    check.add_argument("--set", required=True, help="peres33, cabello18 or a .json file")
    check.add_argument("--count", action="store_true", help="also count all colorings")
    check.add_argument("--complete-pairs", action="store_true",
                       help="complete leftover pairs to triads first (dim 3)")
    check.set_defaults(func=cmd_ks_check)
    parity = _command(ks_sub, "parity", help="double-membership parity witness")
    parity.add_argument("--set", required=True)
    parity.set_defaults(func=cmd_ks_parity)

    meyer_parser = sub.add_parser("meyer", help="rational-sphere coloring")
    meyer_sub = meyer_parser.add_subparsers(dest="subcommand", required=True)
    mv = _command(meyer_sub, "verify", help="check the three coloring conditions")
    mv.add_argument("--max-n", type=_bounded(int, "--max-n", 1, meyer.MAX_N), default=25)
    mv.set_defaults(func=cmd_meyer_verify)

    quantum_parser = sub.add_parser("quantum", help="dense linear-algebra checks")
    quantum_sub = quantum_parser.add_subparsers(dest="subcommand", required=True)
    qr = _command(quantum_sub, "reconstruct", "--seed", "--tolerance",
                  help="state reconstruction round-trip")
    qr.add_argument("--dim", type=_bounded(int, "--dim", 1, qt.MAX_DIM), default=3)
    qr.set_defaults(func=cmd_quantum_reconstruct)
    qg = _command(quantum_sub, "generator", "--seed", "--tolerance",
                  help="single-generator residuals")
    qg.add_argument("--n", type=_bounded(int, "--n", 1, qt.MAX_GENERATOR_TUPLE), default=3)
    qg.set_defaults(func=cmd_quantum_generator)

    mkc_parser = sub.add_parser("mkc", help="hidden-variable simulator")
    mkc_sub = mkc_parser.add_subparsers(dest="subcommand", required=True)
    ms = _command(mkc_sub, "simulate", "--seed", "--shots", help="run a measurement program")
    ms.add_argument("--dim", type=_bounded(int, "--dim", 2, 4), default=3)
    ms.add_argument("--bases", type=_bounded(int, "--bases", 1, mkc.MAX_FAMILY_SIZE), default=16)
    ms.add_argument("--program", required=True, help="JSON program file")
    ms.set_defaults(func=cmd_mkc_simulate)

    bell_parser = sub.add_parser("bell", help="Bell inequalities")
    bell_sub = bell_parser.add_subparsers(dest="subcommand", required=True)
    bc = _command(bell_sub, "chsh", help="CHSH value at four angles")
    bc.add_argument("--angles", required=True, help="t1,t1p,t2,t2p in radians")
    bc.add_argument("--grid", action="store_true", help="also sweep the degree grid")
    bc.set_defaults(func=cmd_bell_chsh)
    bl = _command(bell_sub, "logical", help="conjunction inequality")
    bl.add_argument("--angles", default="0.0,2.0943951023931953,3.141592653589793,1.0471975511965976")
    bl.add_argument("--sequential", action="store_true")
    bl.set_defaults(func=cmd_bell_logical)

    fwt_parser = sub.add_parser("fwt", help="free-will robustness bounds")
    fwt_sub = fwt_parser.add_subparsers(dest="subcommand", required=True)
    fb = _command(fwt_sub, "bounds")
    fb.add_argument("--eps-s", type=_bounded(float, "--eps-s", 0, 1), required=True)
    fb.add_argument("--eps-t", type=_bounded(float, "--eps-t", 0, 1), required=True)
    fb.set_defaults(func=cmd_fwt_bounds)
    fc = _command(fwt_sub, "counts")
    fc.set_defaults(func=cmd_fwt_counts)

    logic_parser = sub.add_parser("logic", help="lattice law checking")
    logic_sub = logic_parser.add_subparsers(dest="subcommand", required=True)
    lh = _command(logic_sub, "heyting", "--seed")
    lh.add_argument("--dim", type=_bounded(int, "--dim", 2, 4), default=2)
    lh.add_argument("--bases", type=_bounded(int, "--bases", 1, logic.MAX_POSET_BASES),
                    default=2)
    lh.add_argument("--variant", choices=("l2", "l3"), default="l3")
    lh.add_argument("--exhaustive", action="store_true")
    lh.set_defaults(func=cmd_logic_heyting)
    lp = _command(logic_sub, "popper", help="distributivity counterexample")
    lp.set_defaults(func=cmd_logic_popper)

    data_parser = sub.add_parser("data", help="embedded datasets")
    data_sub = data_parser.add_subparsers(dest="subcommand", required=True)
    de = _command(data_sub, "export")
    de.add_argument("--set", required=True)
    de.add_argument("--out", default=None)
    de.set_defaults(func=cmd_data_export)

    verify = _command(sub, "verify-all", "--seed", "--shots",
                      help="run the full acceptance suite")
    verify.set_defaults(func=cmd_verify_all)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser()
    try:
        # the top-level parser takes no option but --help and --version, so it
        # would read a command option's value as the command
        for arg in argv:
            if not arg.startswith("-"):
                break
            if arg.split("=", 1)[0] in ("--json", "--csv", *_SHARED_OPTIONS):
                raise CliError(f"{arg.split('=', 1)[0]} goes after the command")
        # argument types raise CliError for values out of range
        args, unread = parser.parse_known_args(argv)
        if unread:
            raise CliError(f"unrecognized arguments: {' '.join(unread)}")
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (ks.NotApplicableError, ValueError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return CHECK_FAILURE


if __name__ == "__main__":
    sys.exit(main())
