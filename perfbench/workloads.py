"""The three benchmark workloads: inputs from a seed, one pass, output checks.

Each workload builds every input from its program seed in `__init__`, so a
pass only calls into qfoundry.  `run` is one timed pass; `run_in_process`
is the form the traced run wraps (the same as `run` except for
`verify-all`, which is timed as a subprocess but traced through
`cli.main`).  `check` returns one `Check` per verified property, using the
assertions and tolerances of `qfoundry verify-all`; `summary` is the
JSON-able part of a result that the run digests.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import os
import subprocess
import sys
from contextlib import redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from qfoundry import bell, cli, datasets, ks, logic, meyer, mkc
from qfoundry import quantum as qt
from qfoundry.exact import VectorSet

SHOTS = 100_000  # verify-all's default --shots
MC_SHOTS = 1_000_000


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    # A Monte Carlo check at verify-all's 3-sigma tolerance: by design about
    # 0.3 % of seeds fail each such check without any defect.
    statistical: bool = False


def _random_bases(rng: np.random.Generator, dim: int, count: int) -> list[np.ndarray]:
    """Seeded orthonormal bases, rows = vectors, as `qfoundry logic heyting` draws them."""
    bases = []
    for _ in range(count):
        raw = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        q, r = np.linalg.qr(raw)
        bases.append((q * (np.diagonal(r) / np.abs(np.diagonal(r)))).T)
    return bases


def _pull_ok(empirical: float, p: float, sigma_sq: float) -> bool:
    return abs(empirical - p) <= 3 * math.sqrt(sigma_sq / SHOTS)


def _array_digest(arrays) -> str:
    data = np.round(np.asarray(arrays), 10) + 0.0
    return hashlib.sha256(data.tobytes()).hexdigest()


class VerifyAll:
    """`qfoundry verify-all --json --seed S` in a fresh interpreter per pass."""

    name = "verify-all"
    in_process = False

    def __init__(self, root: Path, seed: int) -> None:
        self.root = root
        self.seed = seed
        self.argv = ["verify-all", "--json", "--seed", hex(seed)]

    def run(self) -> tuple[int, str]:
        env = dict(os.environ, PYTHONPATH=str(self.root / "src"))
        proc = subprocess.run(
            [sys.executable, "-m", "qfoundry.cli", *self.argv],
            cwd=self.root, env=env, capture_output=True, text=True, timeout=120,
        )
        return proc.returncode, proc.stdout

    def run_in_process(self) -> tuple[int, str]:
        buffer = io.StringIO()
        with redirect_stdout(buffer):
            code = cli.main(list(self.argv))
        return code, buffer.getvalue()

    def check(self, result) -> list[Check]:
        code, stdout = result
        try:
            report = json.loads(stdout)
        except ValueError:
            return [Check("json output", False)]
        checks = [
            Check(entry["check"], entry["passed"] is True,
                  statistical=entry["check"] == "mkc-statistics")
            for entry in report["checks"]
        ]
        expected_code = 0 if report["passed"] and all(c.ok for c in checks) else 1
        checks.append(Check("exit code", code == expected_code))
        return checks

    def summary(self, result) -> str:
        return result[1]


class Exhaustive:
    """The pure-Python certificates: KS decide and count, Meyer, Heyting laws."""

    name = "exhaustive"
    in_process = True

    def __init__(self, root: Path, seed: int) -> None:
        self.seed = seed
        rng = np.random.default_rng(seed)
        self.peres_deletions = sorted(rng.choice(33, 3, replace=False).tolist())
        # two deletions each among the 33 original rays of the 57-ray completion
        self.completed_deletions = [
            sorted(rng.choice(33, 2, replace=False).tolist()) for _ in range(2)
        ]
        self.d2_bases = [_random_bases(rng, 2, 2) for _ in range(2)]
        self.d3_bases = _random_bases(rng, 3, 2)
        self.sample_seed = int(rng.integers(2**31))

    def run(self) -> dict:
        peres = datasets.load_builtin("peres33")
        cabello = datasets.load_builtin("cabello18")
        s33 = ks.build_orth_structure(peres)
        s18 = ks.build_orth_structure(cabello)
        s57 = ks.build_orth_structure(ks.complete_pairs_to_triads(s33))
        full = {name: ks.search_coloring(st)
                for name, st in (("peres33", s33), ("cabello18", s18), ("completed57", s57))}
        parity = ks.cabello_parity_witness(s18)

        deletions = [("peres33", [k], peres.vectors) for k in self.peres_deletions]
        deletions += [("completed57", pair, s57.vectors) for pair in self.completed_deletions]
        subsets = []
        for base, dropped, vectors in deletions:
            kept = VectorSet(3, [v for i, v in enumerate(vectors) if i not in dropped])
            structure = ks.build_orth_structure(kept)
            found = ks.search_coloring(structure)
            subsets.append((base, dropped, structure, found, ks.count_colorings(structure)))

        meyer_report = meyer.verify_meyer_conditions(meyer.enumerate_pyth_points(40))

        heyting = []
        for bases in self.d2_bases:
            poset = logic.poset_from_bases(bases)
            for variant in ("l2", "l3"):
                heyting.append(logic.check_heyting_laws(poset, variant, exhaustive=True))
        poset = logic.poset_from_bases(self.d3_bases)
        for variant in ("l2", "l3"):
            heyting.append(logic.check_heyting_laws(
                poset, variant, exhaustive=False, seed=self.sample_seed))
        return {"full": full, "parity": parity, "subsets": subsets,
                "meyer": meyer_report, "heyting": heyting}

    run_in_process = run

    def check(self, result) -> list[Check]:
        checks = [
            Check(f"{name} uncolorable", not r.colorable and r.certificate is not None)
            for name, r in result["full"].items()
        ]
        parity = result["parity"]
        checks.append(Check("cabello18 parity", parity.bases_count == 9
                            and parity.bases_parity_odd
                            and set(parity.membership_counts) == {2}))
        for base, dropped, structure, found, count in result["subsets"]:
            valid = (found.coloring is None
                     or ks.is_valid_coloring(structure, found.coloring))
            checks.append(Check(f"{base} minus {dropped}",
                                valid and found.colorable == (count > 0)))
        checks.append(Check("meyer violations", result["meyer"].violations == 0))
        checks += [Check(f"heyting {r.variant} #{i}", r.passed)
                   for i, r in enumerate(result["heyting"])]
        return checks

    def summary(self, result) -> dict:
        m = result["meyer"]
        return {
            "nodes": {name: r.nodes_explored for name, r in result["full"].items()},
            "subsets": [[base, dropped, len(st.bases), count]
                        for base, dropped, st, _, count in result["subsets"]],
            "meyer": [m.rays, m.triads, m.pairs, m.violations],
            "heyting": [[r.variant, r.element_count, r.triples_checked, r.passed]
                        for r in result["heyting"]],
        }


class Sampling:
    """The statistical side: basis families, MKC sampling, the CHSH grid."""

    name = "sampling"
    in_process = True

    def __init__(self, root: Path, seed: int) -> None:
        self.seed = seed
        # the mixed state of verify-all's mkc-statistics check at this seed
        rng = np.random.default_rng((seed, 0xA))
        raw = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        gram = raw @ raw.conj().T
        self.rho = qt.DensityOperator(gram / np.trace(gram).real)
        e1 = np.ones(3) / math.sqrt(3)
        e2 = np.array([1.0, 1.0, -1.0]) / math.sqrt(3)
        rng = np.random.default_rng((seed, 0xB))
        while True:
            e3 = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            e3 /= np.linalg.norm(e3)
            if min(abs(np.vdot(e3, e1)), abs(np.vdot(e3, e2))) > 0.1:
                break
        self.planted = [e1, e2, e3]
        self.start = qt.DensityOperator.pure(e1)
        self.observables = [np.outer(v, v.conj()) for v in self.planted]
        self.strategy = bell.random_response_strategy()

    def run(self) -> dict:
        seed = self.seed
        family3 = mkc.generate_basis_family(3, 16, seed)
        family4 = mkc.generate_basis_family(4, 16, seed)
        planted = mkc.generate_basis_family(3, 16, seed, include=self.planted)
        two_step = mkc.simulate_sequence(
            self.start, self.observables[:2], planted, seed, SHOTS)
        three_step = mkc.simulate_sequence(
            self.rho, self.observables, planted, seed, SHOTS)
        choices = [mkc.sample_choices(self.rho, family3, m, SHOTS, seed)
                   for m in range(family3.size)]
        grid_max = bell.chsh_grid_max()
        monte_carlo = bell.lhv_chsh_monte_carlo(self.strategy, MC_SHOTS, seed)
        return {"family3": family3, "family4": family4, "planted": planted,
                "two_step": two_step, "three_step": three_step, "choices": choices,
                "grid_max": grid_max, "monte_carlo": monte_carlo}

    run_in_process = run

    def check(self, result) -> list[Check]:
        rho = self.rho
        family3, choices = result["family3"], result["choices"]
        checks = [
            Check("family sizes", (family3.size, result["family4"].size,
                                   result["planted"].size) == (16, 16, 16)),
            Check("planted vectors", all(
                abs(abs(np.vdot(result["planted"].bases[i][0], v)) - 1) <= qt.STRUCT_TOL
                for i, v in enumerate(self.planted))),
            Check("choices in range", all(
                len(c) == SHOTS and c.min() >= 0 and c.max() < 3 for c in choices)),
        ]
        # verify-all's mkc-statistics assertions, on the same family and state
        for m in range(4):
            probs = family3.atom_probabilities(rho, m)
            for j in range(3):
                empirical = float(np.mean(choices[m] == j))
                checks.append(Check(f"marginal {m}/{j}", _pull_ok(
                    empirical, probs[j], max(probs[j] * (1 - probs[j]), 1e-12)),
                    statistical=True))
            p2 = family3.projector(m, 0) + family3.projector(m, 1)
            model = mkc.mkc_probability(rho, p2, family3)
            born = qt.born_probability(rho, qt.ProjectionOp(p2))
            checks.append(Check(f"rank-2 model {m}", abs(model - born) <= 1e-12))
        p = family3.atom_probabilities(rho, 0)[0]
        q = family3.atom_probabilities(rho, 1)[0]
        joint = float(np.mean((choices[0] == 0) & (choices[1] == 0)))
        checks.append(Check("factorization joint",
                            _pull_ok(joint, p * q, p * q * (1 - p * q)), statistical=True))
        two_step = result["two_step"]
        joint11 = two_step.frequencies.get((1.0, 1.0), 0.0)
        checks.append(Check("sequential 1/9", _pull_ok(joint11, 1 / 9, (1 / 9) * (8 / 9)),
                            statistical=True))

        three_step = result["three_step"]
        checks.append(Check("planted realization", max(
            two_step.realized_distances + three_step.realized_distances) <= qt.STRUCT_TOL))
        checks.append(Check("three-step support",
                            set(three_step.frequencies) <= set(three_step.exact_probabilities)
                            and abs(sum(three_step.frequencies.values()) - 1) <= 1e-9
                            and abs(sum(three_step.exact_probabilities.values()) - 1) <= 1e-12))
        checks.append(Check("chsh grid", result["grid_max"] <= bell.TSIRELSON + 1e-12))
        empirical, sigma = result["monte_carlo"]
        checks.append(Check("lhv monte carlo", empirical <= 2 + 5 * sigma))
        return checks

    def summary(self, result) -> dict:
        def freqs(report) -> dict:
            return {str(k): v for k, v in report.frequencies.items()}

        return {
            "families": [_array_digest(result[key].bases)
                         for key in ("family3", "family4", "planted")],
            "two_step": freqs(result["two_step"]),
            "three_step": freqs(result["three_step"]),
            "choices": [np.bincount(c, minlength=3).tolist() for c in result["choices"]],
            "grid_max": result["grid_max"],
            "monte_carlo": list(result["monte_carlo"]),
        }


WORKLOADS = {cls.name: cls for cls in (VerifyAll, Exhaustive, Sampling)}


def hooks() -> list:
    """Every traced entry point: (module, attribute callers look up, span, note)."""

    def result(args, value) -> dict:
        return {"result": bool(value)}

    def implication_key(args, value) -> dict:
        return {"key": (args[1].masks, args[2].masks)}

    def candidates(poset) -> int:
        return math.prod(1 << ctx.size for ctx in poset.contexts)

    def grid_points(args, value) -> dict:
        step = args[0] if args else bell.GRID_STEP_DEGREES
        return {"points": len(range(0, 360, step)) ** 3}

    return [
        (ks, "orthogonal", "exact.orthogonal", result),
        (ks, "cross_product", "exact.cross_product", None),
        (bell, "cross_product", "exact.cross_product", None),
        (datasets, "load_builtin", "datasets.load_builtin", None),
        (cli, "load_builtin", "datasets.load_builtin", None),
        (ks, "build_orth_structure", "ks.build_orth_structure",
         lambda args, value: {"bases": len(value.bases)}),
        (ks, "search_coloring", "ks.search_coloring",
         lambda args, value: {"nodes": value.nodes_explored}),
        (ks, "count_colorings", "ks.count_colorings", lambda args, value: {"count": value}),
        (ks, "complete_pairs_to_triads", "ks.complete_pairs_to_triads", None),
        (meyer, "enumerate_pyth_points", "meyer.enumerate_pyth_points", None),
        (meyer, "verify_meyer_conditions", "meyer.verify_meyer_conditions",
         lambda args, value: {"rays": value.rays, "pairs": value.pairs}),
        (logic, "poset_from_bases", "logic.poset_from_bases", None),
        (logic, "enumerate_elements", "logic.enumerate_elements",
         lambda args, value: {"accepted": len(value), "candidates": candidates(args[0])}),
        (logic, "sample_elements", "logic.sample_elements", None),
        (logic, "check_heyting_laws", "logic.check_heyting_laws",
         lambda args, value: {"triples": value.triples_checked}),
        (logic, "l3_implication", "logic.implication", implication_key),
        (logic, "l2_implication", "logic.implication", implication_key),
        (mkc, "generate_basis_family", "mkc.generate_basis_family",
         lambda args, value: {"accepted": value.size}),
        (mkc, "totally_incompatible", "mkc.totally_incompatible", result),
        (mkc, "simulate_sequence", "mkc.simulate_sequence",
         lambda args, value: {"shots": value.shots}),
        (mkc, "nearest_family_observable", "mkc.nearest_family_observable", None),
        (mkc, "sample_choices", "mkc.sample_choices", None),
        (mkc, "collapse", "quantum.collapse", None),
        (qt, "reconstruct_state", "quantum.reconstruct_state", None),
        (qt, "ks_single_generator", "quantum.ks_single_generator", None),
        (bell, "chsh_grid_max", "bell.chsh_grid_max", grid_points),
        (bell, "lhv_chsh_monte_carlo", "bell.lhv_chsh_monte_carlo", None),
        (bell, "exhaustive_deterministic_chsh_max",
         "bell.exhaustive_deterministic_chsh_max", None),
        (bell, "fwt_direction_counts", "bell.fwt_direction_counts", None),
        (bell, "imprecise_sum_grid_sup", "bell.imprecise_sum_grid_sup", None),
        (cli, "main", "cli.main", None),
        (cli, "_acceptance_checks", "cli.checks", lambda args, value: {"checks": len(value)}),
    ]
