"""Command-line interface: every documented invocation parses and runs."""

import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from qfoundry import cli
from qfoundry.datasets import build_cabello18, build_peres33
from qfoundry.exact import VectorSet


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    payload = json.loads(out)
    assert payload["schema"] == "qfoundry/1"
    return payload


README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
# the `qfoundry ...` lines of README's CLI block, trailing comments removed
README_COMMANDS = [line.split("#")[0].split()[1:]
                   for block in re.findall(r"```sh\n(.*?)```", README, re.S)
                   for line in block.splitlines() if line.startswith("qfoundry ")]
(README_PROGRAM,) = [block for block in re.findall(r"```json\n(.*?)```", README, re.S)
                     if "observables" in block]


@pytest.mark.parametrize("argv", README_COMMANDS, ids=" ".join)
def test_readme_examples_run(capsys, tmp_path, argv):
    # README's example program.json and every --out file live in tmp_path
    (tmp_path / "program.json").write_text(README_PROGRAM)
    argv = list(argv)
    for flag in ("--program", "--out"):
        if flag in argv:
            k = argv.index(flag) + 1
            argv[k] = str(tmp_path / argv[k])
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    json.loads(out)


def test_help_exits_zero():
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["--help"])
    assert excinfo.value.code == 0


def test_ks_check_peres(capsys):
    payload = run_json(capsys, "ks", "check", "--set", "peres33")
    assert payload["colorable"] is False
    assert payload["bases"] == 16
    assert payload["pairs"] == 24
    assert payload["colorings"] is None


def test_ks_check_cabello_with_count(capsys):
    payload = run_json(capsys, "ks", "check", "--set", "cabello18", "--count")
    assert payload["colorable"] is False
    assert payload["colorings"] == 0


def test_ks_check_completed_variant(capsys):
    payload = run_json(capsys, "ks", "check", "--set", "peres33", "--complete-pairs")
    assert payload["vectors"] == 57
    assert payload["colorable"] is False
    assert payload["pairs"] == 0


def test_ks_check_unknown_set(capsys):
    code, _, err = run_cli(capsys, "ks", "check", "--set", "nonsense")
    assert code == 2
    assert "unknown dataset" in err


def test_ks_check_custom_file(capsys, tmp_path):
    from qfoundry.exact import ExactVector, VectorSet

    path = tmp_path / "triad.json"
    VectorSet(
        3, [ExactVector([1, 0, 0], "x"), ExactVector([0, 1, 0], "y"), ExactVector([0, 0, 1], "z")]
    ).dump(path)
    payload = run_json(capsys, "ks", "check", "--set", str(path), "--count")
    assert payload["colorable"] is True
    assert payload["colorings"] == 3


def test_ks_check_malformed_file(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{oops")
    code, _, err = run_cli(capsys, "ks", "check", "--set", str(path))
    assert code == 2
    assert "malformed" in err


def test_ks_check_directory_path(capsys, tmp_path):
    path = tmp_path / "sets.json"
    path.mkdir()
    code, out, err = run_cli(capsys, "ks", "check", "--set", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot read {path}")


def test_ks_parity(capsys):
    payload = run_json(capsys, "ks", "parity", "--set", "cabello18")
    assert payload["bases"] == 9
    assert payload["membership_counts"] == [2]
    assert payload["uncolorable"] is True


def test_ks_parity_not_applicable(capsys):
    code, out, _ = run_cli(capsys, "ks", "parity", "--set", "peres33")
    assert code == 1
    assert json.loads(out)["applicable"] is False


def test_meyer_verify(capsys):
    payload = run_json(capsys, "meyer", "verify", "--max-n", "10")
    assert payload["violations"] == 0
    assert payload["rays"] > 0


def test_quantum_reconstruct(capsys):
    payload = run_json(capsys, "quantum", "reconstruct", "--dim", "3", "--seed", "11")
    assert payload["max_entry_error"] < 1e-10
    assert payload["passed"] is True


def test_quantum_generator(capsys):
    payload = run_json(capsys, "quantum", "generator", "--n", "4")
    assert payload["max_residual"] < 1e-8
    assert len(payload["alpha"]) == 4


def test_bell_chsh_paper_angles(capsys):
    payload = run_json(
        capsys, "bell", "chsh", "--angles", "0,1.5707963,5.4977871,3.9269908"
    )
    assert payload["value"] == pytest.approx(2.8284271, abs=1e-6)


def test_bell_chsh_bad_angles(capsys):
    code, _, err = run_cli(capsys, "bell", "chsh", "--angles", "1,2,3")
    assert code == 2
    assert "needs 4" in err


def test_bell_logical_default_angles(capsys):
    payload = run_json(capsys, "bell", "logical")
    assert payload["lhs"] == pytest.approx(0.5, abs=1e-12)
    assert payload["rhs_sum"] == pytest.approx(0.375, abs=1e-12)
    assert payload["violated"] is True


def test_bell_logical_sequential(capsys):
    payload = run_json(capsys, "bell", "logical", "--sequential")
    seq = payload["sequential"]
    assert seq["terms"][2] == pytest.approx(5 / 16, abs=1e-12)
    assert seq["violated"] is False


def test_fwt_bounds(capsys):
    payload = run_json(capsys, "fwt", "bounds", "--eps-s", "0", "--eps-t", "0")
    assert payload["satisfied"] is True


def test_fwt_counts(capsys):
    payload = run_json(capsys, "fwt", "counts")
    assert payload["triads_total"] == 40
    assert payload["coefficient"] == "4/55"


def test_logic_heyting(capsys):
    payload = run_json(
        capsys, "logic", "heyting", "--dim", "2", "--bases", "2",
        "--variant", "l3", "--exhaustive",
    )
    assert payload["passed"] is True


def test_logic_heyting_dim3_sampled(capsys):
    payload = run_json(
        capsys, "logic", "heyting", "--dim", "3", "--bases", "2", "--variant", "l3",
    )
    assert payload["passed"] is True
    assert payload["contexts"] >= 8  # trivial + 2 maximal + block contexts


def test_logic_heyting_l2_variant(capsys):
    payload = run_json(
        capsys, "logic", "heyting", "--dim", "2", "--bases", "3",
        "--variant", "l2", "--exhaustive",
    )
    assert payload["passed"] is True


@pytest.mark.parametrize("variant", ["l2", "l3"])
def test_logic_heyting_dim3_exhaustive(capsys, variant):
    payload = run_json(
        capsys, "logic", "heyting", "--dim", "3", "--bases", "1",
        "--variant", variant, "--exhaustive",
    )
    assert payload["passed"] is True
    assert payload["elements"] == 96
    assert payload["triples_checked"] == 96**3 == 884736


@pytest.mark.parametrize("variant", ["l2", "l3"])
def test_logic_heyting_dim4_exhaustive(capsys, variant):
    payload = run_json(
        capsys, "logic", "heyting", "--dim", "4", "--bases", "1",
        "--variant", variant, "--exhaustive",
    )
    assert payload["passed"] is True
    assert payload["contexts"] == 6  # trivial, the maximal algebra, four two-block algebras
    assert payload["elements"] == 354
    assert payload["triples_checked"] == 354**3


def test_logic_popper(capsys):
    payload = run_json(capsys, "logic", "popper")
    assert payload["p_undistributed"] == pytest.approx(0.5, abs=1e-12)
    assert payload["p_distributed"] == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize(
    "name, build",
    [("peres33", build_peres33), ("cabello18", build_cabello18)],
    ids=["peres33", "cabello18"],
)
def test_data_export(capsys, tmp_path, name, build):
    table = build()
    out_path = tmp_path / f"{name}.json"
    payload = run_json(capsys, "data", "export", "--set", name, "--out", str(out_path))
    assert payload["vectors"] == len(table)
    exported = VectorSet.load(out_path)
    assert exported.dimension == table.dimension
    assert [v.label for v in exported.vectors] == [v.label for v in table.vectors]
    assert [v.ray_key() for v in exported.vectors] == [v.ray_key() for v in table.vectors]
    code, out, _ = run_cli(capsys, "data", "export", "--set", name)
    assert code == 0
    assert out == out_path.read_text()


def test_mkc_simulate_program(capsys, tmp_path):
    e1 = np.ones(3) / math.sqrt(3)
    e2 = np.array([1.0, 1.0, -1.0]) / math.sqrt(3)

    def as_pairs(mat):
        return [[[float(z.real), float(z.imag)] for z in row] for row in mat]

    program = {
        "state": {"pure": [[float(x), 0.0] for x in e1]},
        "include": [[[float(x), 0.0] for x in e1], [[float(x), 0.0] for x in e2]],
        "observables": [
            as_pairs(np.outer(e1, e1.conj())),
            as_pairs(np.outer(e2, e2.conj())),
        ],
    }
    path = tmp_path / "program.json"
    path.write_text(json.dumps(program))
    payload = run_json(
        capsys, "mkc", "simulate", "--dim", "3", "--bases", "16",
        "--program", str(path), "--shots", "20000",
    )
    assert payload["total_variation_distance"] < 0.02
    assert payload["exact"]["(1.0, 1.0)"] == pytest.approx(1 / 9, abs=1e-9)


def test_mkc_simulate_missing_program(capsys):
    code, _, err = run_cli(capsys, "mkc", "simulate", "--program", "/no/such/file.json")
    assert code == 2
    assert "not found" in err


def test_mkc_simulate_malformed_program(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{nope")
    code, _, err = run_cli(capsys, "mkc", "simulate", "--program", str(path))
    assert code == 2
    assert "malformed" in err


def test_csv_output(capsys):
    code, out, _ = run_cli(capsys, "fwt", "counts", "--csv")
    assert code == 0
    rows = dict(line.split(",", 1) for line in out.strip().splitlines())
    assert rows["triads_total"] == "40"
    assert rows["coefficient"] == "4/55"


def test_verify_all_human_output(capsys):
    code, out, _ = run_cli(capsys, "verify-all", "--shots", "20000")
    assert code == 0
    assert out.count("[PASS]") == 9
    assert "all checks passed" in out


def test_verify_all_json_deterministic(capsys):
    code1, out1, _ = run_cli(capsys, "verify-all", "--json", "--shots", "20000")
    code2, out2, _ = run_cli(capsys, "verify-all", "--json", "--shots", "20000")
    assert code1 == code2 == 0
    assert out1 == out2


def test_verify_all_corrupted_dataset(capsys, monkeypatch):
    from qfoundry.datasets import load_builtin
    from qfoundry.exact import ExactVector, VectorSet

    def corrupted(name):
        if name == "peres33":
            # a lone triad is trivially colorable, so the check must fail
            return VectorSet(
                3,
                [ExactVector([1, 0, 0], "e_1"), ExactVector([0, 1, 0], "e_2"),
                 ExactVector([0, 0, 1], "e_3")],
            )
        return load_builtin(name)

    monkeypatch.setattr(cli, "load_builtin", corrupted)
    code, out, _ = run_cli(capsys, "verify-all", "--shots", "20000")
    assert code == 1
    assert "[FAIL] ks-uncolorability" in out


def test_seed_accepts_hex(capsys):
    payload = run_json(capsys, "quantum", "reconstruct", "--dim", "2", "--seed", "0xC0FFEE")
    assert payload["seed"] == 0xC0FFEE


class _VectorFile(dict):
    """A vector-set payload that test_usage_errors writes to a .json file."""

    def __init__(self, vectors, dimension=1):
        super().__init__(dimension=dimension, vectors=vectors)

    def write(self, directory):
        path = directory / "vectors.json"
        path.write_text(json.dumps(self))
        return path


class _BytesFile(bytes):
    """Raw file contents that test_usage_errors writes to a file."""

    def write(self, directory):
        path = directory / "raw.json"
        path.write_bytes(self)
        return path


class _Directory:
    """An argument that test_usage_errors replaces by an existing directory."""

    def write(self, directory):
        return directory


def _coord(num, den=1):
    """The coordinate num/den as four [num, den] pairs over 1, √2, √3, √6."""
    return [[num, den], [0, 1], [0, 1], [0, 1]]


@pytest.mark.parametrize(
    "argv, code, fragment",
    [
        (["data", "export", "--set", "peres33", "--out", "/nonexistent/x.json"],
         2, "cannot write /nonexistent/x.json"),
        (["bell", "chsh", "--angles", "0,nan,1,2"], 2, "must be finite"),
        (["--shots", "0", "verify-all"], 2, "--shots must lie in [1, 10000000], got 0"),
        (["verify-all", "--shots", "10000001"], 2,
         "--shots must lie in [1, 10000000], got 10000001"),
        (["meyer", "verify", "--max-n", "0"], 2, "--max-n must lie in [1, 200], got 0"),
        (["meyer", "verify", "--max-n", "201"], 2, "--max-n must lie in [1, 200], got 201"),
        (["quantum", "generator", "--n", "0"], 2, "--n must lie in [1, 5]"),
        (["quantum", "reconstruct", "--dim", "17"], 2, "--dim must lie in [1, 16], got 17"),
        (["mkc", "simulate", "--bases", "65", "--program", "p.json"], 2,
         "--bases must lie in [1, 64]"),
        (["mkc", "simulate", "--shots", "-5", "--program", "p.json"], 2, "--shots must lie"),
        (["mkc", "simulate", "--program", _Directory()], 2, "cannot read "),
        (["mkc", "simulate", "--program", _BytesFile(b'{"observables": "\xff"}')], 2,
         "cannot read "),
        (["fwt", "bounds", "--eps-s", "nan", "--eps-t", "0"], 2, "--eps-s must lie in [0, 1]"),
        (["--tolerance", "nan", "quantum", "reconstruct"], 2,
         "--tolerance must lie in [0, inf), got nan"),
        (["--tolerance", "-1", "quantum", "reconstruct"], 2,
         "--tolerance must lie in [0, inf), got -1"),
        (["quantum", "reconstruct", "--tolerance", "inf"], 2,
         "--tolerance must lie in [0, inf), got inf"),
        (["logic", "heyting", "--bases", "0"], 2, "--bases must lie in [1, 64]"),
        (["logic", "heyting", "--bases", "65"], 2, "--bases must lie in [1, 64], got 65"),
        (["--seed", "-1", "quantum", "reconstruct"], 2, "--seed must lie in [0, inf), got -1"),
        (["fwt", "bounds", "--eps-s", "0", "--eps-t", "inf"], 2, "--eps-t must lie"),
        (["quantum", "generator", "--tolerance=-inf"], 2, "--tolerance must lie"),
        (["logic", "heyting", "--dim", "3", "--bases", "2", "--exhaustive"], 2,
         "poset has more than 512 monotone l3 elements, the exhaustive limit"),
        (["ks", "check", "--set", _VectorFile([{"label": "x"}])], 2,
         "vector 0 needs an 'entries' list"),
        (["ks", "check", "--set", _VectorFile([{"entries": [_coord(1, 0)]}])], 2,
         "vector 0 entry 0 must be four [num, den] integer pairs, den != 0"),
        (["ks", "check", "--set", _VectorFile([{"entries": [_coord("1")]}])], 2,
         "vector 0 entry 0 must be four [num, den] integer pairs"),
        (["ks", "check", "--set", _VectorFile([{"entries": [[[1, 1]]]}])], 2,
         "vector 0 entry 0 must be four [num, den] integer pairs"),
        (["ks", "check", "--set", _VectorFile([], dimension=0)], 2,
         "vector set needs a positive integer 'dimension'"),
        (["ks", "check", "--complete-pairs", "--set", _VectorFile([], dimension=3)], 2,
         "vector set needs a nonempty 'vectors' list"),
        (["ks", "check", "--count", "--set", _VectorFile(
            [{"entries": [_coord(1), _coord(k)]} for k in range(65)], dimension=2)], 2,
         "structure has 65 vectors, over the enumeration limit of 64"),
        (["ks", "check", "--set", "cabello18", "--complete-pairs"], 2,
         "pair completion requires dimension 3"),
        (["ks", "check", "--set", _VectorFile([{"entries": [_coord(1)]},
                                                {"entries": [_coord(-2)]}])], 2,
         "duplicate ray"),
    ],
    ids=["unwritable-out", "nan-angle", "zero-shots", "shots-over-cap", "zero-max-n",
         "max-n-over-cap", "zero-generator-n",
         "reconstruct-dim-over-cap",
         "too-many-bases", "negative-shots", "program-directory", "non-utf8-program",
         "nan-eps", "nan-tolerance", "negative-tolerance",
         "inf-tolerance", "zero-heyting-bases",
         "heyting-bases-over-cap",
         "negative-seed", "inf-eps", "infinite-tolerance", "heyting-over-exhaustive-limit",
         "vector-without-entries", "zero-denominator", "string-coefficient", "short-coordinate",
         "zero-dimension", "empty-vector-list", "count-over-limit",
         "complete-pairs-in-dimension-4", "duplicate-ray"],
)
def test_usage_errors(capsys, tmp_path, argv, code, fragment):
    # a _VectorFile, _BytesFile or _Directory argument is made under tmp_path
    # and replaced by its path
    argv = [str(arg.write(tmp_path)) if hasattr(arg, "write") else arg for arg in argv]
    got, out, err = run_cli(capsys, *argv)
    assert got == code
    assert out == ""
    assert fragment in err
    assert err.startswith("error: ")


OBSERVABLE3 = [[[1.0, 0.0] if i == j == 0 else [0.0, 0.0] for j in range(3)] for i in range(3)]


@pytest.mark.parametrize(
    "program, fragment",
    [
        ({"include": [[1, 2]], "observables": [OBSERVABLE3]},
         "planted vector 0 must hold 3 finite [re, im] number pairs"),
        ({"observables": [[[[1, 0], [0, 0]], [[0, 0], [0, 0]]]]},
         "observable 0 must hold 3x3 finite [re, im] number pairs"),
        ({"include": [[[0, 0], [0, 0], [0, 0]]], "observables": [OBSERVABLE3]},
         "planted vector 0 must be nonzero"),
        ({"include": [[[1, 0], [0, 0], [0, 0]]] * 17, "observables": [OBSERVABLE3]},
         "plants 17 vectors in 16 bases"),
        ({"state": {"pure": [[0, 0], [1, 0]]}, "observables": [OBSERVABLE3]},
         "pure state must hold 3 finite"),
        ([OBSERVABLE3], "must define 'observables'"),
        ({"observables": [[[[0, 0], [1, 0], [0, 0]], [[0, 0]] * 3, [[0, 0]] * 3]]},
         "observable 0 must be Hermitian"),
        ({"state": {"density": [[[2, 0] if i == j == 0 else [0, 0] for j in range(3)]
                                for i in range(3)]},
          "observables": [OBSERVABLE3]},
         "density state: density operator must have unit trace"),
        ({"include": [[[1, 0], [0, 0], [0, 0]], [[0, 0], [1, 0], [0, 0]]],
          "observables": [OBSERVABLE3]},
         "orthogonal or parallel planted vectors can never lie in totally incompatible bases"),
        ({"include": [[[1, 0], [0, 0], [0, 0]], [[2, 0], [0, 0], [0, 0]]],
          "observables": [OBSERVABLE3]},
         "orthogonal or parallel planted vectors can never lie in totally incompatible bases"),
    ],
    ids=["include-not-pairs", "dimension-mismatch", "zero-include", "too-many-includes",
         "short-pure-state", "not-an-object", "non-hermitian-observable", "trace-two-density",
         "orthogonal-includes", "parallel-includes"],
)
def test_program_usage_errors(capsys, tmp_path, program, fragment):
    path = tmp_path / "program.json"
    path.write_text(json.dumps(program))
    got, out, err = run_cli(capsys, "mkc", "simulate", "--dim", "3", "--program", str(path))
    assert got == 2
    assert out == ""
    assert fragment in err
    assert err.startswith("error: ")
