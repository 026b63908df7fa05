import hashlib
import json
import random
import subprocess
import sys
import warnings
from fractions import Fraction

import pytest

import favard.fock
from favard.cli import main
from favard.errors import AdjointInconsistencyError
from favard.jacobi import jacobi_file_text, load_jacobi_file
from favard.moments import from_catalog, save_moment_file


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_decompose_writes_deterministic_bytes(tmp_path, capsys):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    args = ["decompose", "--measure", "gaussian_product", "--d", "2", "--N", "2"]
    code1, _, _ = run(capsys, *args, "--out", str(out1))
    code2, _, _ = run(capsys, *args, "--out", str(out2))
    assert code1 == code2 == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_decompose_reconstruct_decompose_is_a_fixpoint(tmp_path, capsys):
    j1 = tmp_path / "one.jacobi.json"
    mo = tmp_path / "round.moments.json"
    j2 = tmp_path / "two.jacobi.json"
    code, _, _ = run(capsys, "decompose", "--measure", "exponential_product",
                     "--d", "1", "--N", "3", "--out", str(j1))
    assert code == 0
    code, _, _ = run(capsys, "reconstruct", "--jacobi", str(j1), "--out", str(mo))
    assert code == 0
    code, _, _ = run(capsys, "decompose", "--moments", str(mo), "--N", "3",
                     "--out", str(j2))
    assert code == 0
    assert j1.read_bytes() == j2.read_bytes()


def test_reconstruct_emits_classical_moments(tmp_path, capsys):
    j = tmp_path / "g.jacobi.json"
    m = tmp_path / "g.moments.json"
    run(capsys, "decompose", "--measure", "gaussian_product", "--d", "1",
        "--N", "3", "--out", str(j))
    code, out, _ = run(capsys, "reconstruct", "--jacobi", str(j), "--out", str(m))
    assert code == 0
    assert json.loads(out)["max_degree"] == 7
    doc = json.loads(m.read_text())
    vals = {tuple(e["m"]): Fraction(e["v"]) for e in doc["moments"]}
    assert vals[(4,)] == 3
    assert vals[(6,)] == 15
    assert vals[(3,)] == 0


def test_reconstruct_rademacher(tmp_path, capsys):
    j = tmp_path / "r.jacobi.json"
    m = tmp_path / "r.moments.json"
    run(capsys, "decompose", "--measure", "rademacher_product", "--d", "1",
        "--N", "4", "--out", str(j))
    code, _, _ = run(capsys, "reconstruct", "--jacobi", str(j), "--out", str(m))
    assert code == 0
    doc = json.loads(m.read_text())
    vals = {tuple(e["m"]): Fraction(e["v"]) for e in doc["moments"]}
    for k in range(10):
        assert vals[(k,)] == (1 if k % 2 == 0 else 0)


def test_verify_measure_and_roundtrip_exit_zero(capsys):
    code, out, err = run(capsys, "verify", "--measure", "circle_uniform",
                         "--d", "2", "--N", "3")
    assert code == 0
    assert json.loads(out)["ok"] is True
    code, out, _ = run(capsys, "roundtrip", "--measure", "uniform_box",
                       "--d", "2", "--N", "2")
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_verify_jacobi_file(tmp_path, capsys):
    j = tmp_path / "c.jacobi.json"
    run(capsys, "decompose", "--measure", "circle_uniform", "--d", "2",
        "--N", "3", "--out", str(j))
    code, out, _ = run(capsys, "verify", "--jacobi", str(j))
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_verify_rejects_incompatible_jacobi_file(tmp_path, capsys):
    j = tmp_path / "bad.jacobi.json"
    doc = {
        "d": 1, "N": 2, "order": "graded-lex", "metric": "m!/n!",
        "levels": [
            {"n": 0, "Gomega": [["1"]], "alpha": {"1": [["0"]]}},
            {"n": 1, "Gomega": [["0"]], "alpha": {"1": [["0"]]}},
            {"n": 2, "Gomega": [["1"]], "alpha": {"1": [["0"]]}},
        ],
    }
    j.write_text(json.dumps(doc))
    code, out, err = run(capsys, "verify", "--jacobi", str(j))
    assert code == 1
    assert json.loads(out)["ok"] is False
    assert "kernel lift" in out or "kernel lift" in err


def test_reconstruct_refuses_incompatible_jacobi_file(tmp_path, capsys):
    j = tmp_path / "bad.jacobi.json"
    m = tmp_path / "never.moments.json"
    doc = {
        "d": 1, "N": 2, "order": "graded-lex", "metric": "m!/n!",
        "levels": [
            {"n": 0, "Gomega": [["1"]], "alpha": {"1": [["0"]]}},
            {"n": 1, "Gomega": [["0"]], "alpha": {"1": [["0"]]}},
            {"n": 2, "Gomega": [["1"]], "alpha": {"1": [["0"]]}},
        ],
    }
    j.write_text(json.dumps(doc))
    code, _, err = run(capsys, "reconstruct", "--jacobi", str(j), "--out", str(m))
    assert code == 2
    assert "annihilat" in err or "adjoint" in err
    assert not m.exists()


def test_repaired_jacobi_file_reconstructs(tmp_path, capsys):
    j = tmp_path / "ok.jacobi.json"
    m = tmp_path / "ok.moments.json"
    doc = {
        "d": 1, "N": 2, "order": "graded-lex", "metric": "m!/n!",
        "levels": [
            {"n": 0, "Gomega": [["1"]], "alpha": {"1": [["0"]]}},
            {"n": 1, "Gomega": [["0"]], "alpha": {"1": [["0"]]}},
            {"n": 2, "Gomega": [["0"]], "alpha": {"1": [["0"]]}},
        ],
    }
    j.write_text(json.dumps(doc))
    code, _, _ = run(capsys, "reconstruct", "--jacobi", str(j), "--out", str(m))
    assert code == 0
    doc = json.loads(m.read_text())
    vals = {tuple(e["m"]): Fraction(e["v"]) for e in doc["moments"]}
    assert vals[(0,)] == 1 and vals[(2,)] == 0


def test_float_adjointness_failure_is_exit_one(capsys):
    # the round trip rebuilds the Fock space from the extracted data; its
    # float U-unitarity deviation is a failed check in the report, and
    # build_fock must not refuse the data for it as bad input (exit 2)
    code, out, err = run(capsys, "verify", "--backend", "float", "--measure",
                         "gaussian_product", "--d", "1", "--N", "10")
    assert code == 1
    assert json.loads(out)["ok"] is False
    assert "verification failed: adjointness" in err


def test_float_uniform_box_n11_returns_an_exit_code(capsys):
    code, out, _ = run(capsys, "verify", "--backend", "float", "--measure",
                       "uniform_box", "--d", "2", "--N", "11")
    assert code == 0
    assert json.loads(out)["ok"] is True


@pytest.mark.parametrize("measure,N,level", [
    ("exponential_product", 7, 3),
    ("gaussian_product", 11, 2),
])
def test_float_breakdown_is_exit_three(capsys, measure, N, level):
    # valid input whose float sweep fails a least-squares solve is neither a
    # failed check (1) nor bad input (2), and no data is blamed for it
    code, out, err = run(capsys, "verify", "--backend", "float", "--measure", measure,
                         "--d", "1", "--N", str(N))
    assert code == 3 and out == ""
    assert f"at level {level}, coordinate 1: least-squares residual" in err
    assert "adjoint" not in err


def test_breakdown_error_is_exported():
    assert "NumericalBreakdownError" in favard.__all__
    assert issubclass(favard.NumericalBreakdownError, favard.FavardError)


def test_float_exponential_below_the_breakdown_passes(capsys):
    code, out, _ = run(capsys, "verify", "--backend", "float", "--measure",
                       "exponential_product", "--d", "1", "--N", "6")
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_bad_moment_file_is_exit_two(tmp_path, capsys):
    f = tmp_path / "bad.moments.json"
    f.write_text(json.dumps({
        "d": 1, "max_degree": 0, "scalar": "rational",
        "moments": [{"m": [0], "v": "2"}],
    }))
    code, _, err = run(capsys, "verify", "--moments", str(f), "--N", "0")
    assert code == 2
    assert "mass" in err or "normal" in err


def test_non_finite_moment_file_is_exit_two(tmp_path, capsys):
    for bad in (float("nan"), float("inf")):
        f = tmp_path / "nan.moments.json"
        f.write_text(json.dumps({
            "d": 1, "max_degree": 2, "scalar": "float",
            "moments": [{"m": [0], "v": 1.0}, {"m": [1], "v": bad},
                        {"m": [2], "v": 1.0}],
        }))
        code, _, err = run(capsys, "verify", "--moments", str(f), "--N", "1",
                           "--backend", "float")
        assert code == 2 and "finite" in err


def test_non_finite_jacobi_file_is_exit_two(tmp_path, capsys):
    j = tmp_path / "nan.jacobi.json"
    m = tmp_path / "never.moments.json"
    j.write_text(json.dumps({
        "d": 1, "N": 1, "order": "graded-lex", "metric": "m!/n!",
        "levels": [
            {"n": 0, "Gomega": [[1.0]], "alpha": {"1": [[float("nan")]]}},
            {"n": 1, "Gomega": [[1.0]], "alpha": {"1": [[0.0]]}},
        ],
    }))
    code, _, err = run(capsys, "verify", "--jacobi", str(j))
    assert code == 2 and "finite" in err
    code, _, err = run(capsys, "reconstruct", "--jacobi", str(j), "--out", str(m))
    assert code == 2 and "finite" in err
    assert not m.exists()


def test_reconstruct_refuses_overflowing_moments(tmp_path, capsys):
    # finite data whose vacuum moments overflow: 1e200 squared is inf at degree 2
    j = tmp_path / "big.jacobi.json"
    m = tmp_path / "never.moments.json"
    j.write_text(json.dumps({
        "d": 1, "N": 1, "order": "graded-lex", "metric": "m!/n!",
        "levels": [
            {"n": 0, "Gomega": [[1.0]], "alpha": {"1": [[1e200]]}},
            {"n": 1, "Gomega": [[1.0]], "alpha": {"1": [[0.0]]}},
        ],
    }))
    code, out, err = run(capsys, "reconstruct", "--jacobi", str(j), "--out", str(m))
    assert code == 2 and out == ""
    assert "reconstructed moments do not form a state" in err
    assert "multi-index (2,) is not finite" in err
    assert not m.exists()


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_float_samples_with_overflowing_moments_are_exit_two(tmp_path, capsys):
    s = tmp_path / "big.samples.json"
    s.write_text(json.dumps({"points": [[1e200], [0.0], [1.0]]}))
    code, out, err = run(capsys, "verify", "--backend", "float", "--samples", str(s),
                         "--N", "2")
    assert code == 2 and out == ""
    assert "multi-index (2,) is not finite" in err


def test_usage_errors_are_exit_two(tmp_path, capsys):
    code, _, err = run(capsys, "decompose", "--measure", "gaussian_product",
                       "--N", "2", "--out", str(tmp_path / "x.json"))
    assert code == 2 and "--d" in err
    code, _, err = run(capsys, "decompose", "--measure", "gaussian_product",
                       "--d", "1", "--N", "2")
    assert code == 2 and "--out" in err
    code, _, err = run(capsys, "verify", "--measure", "gaussian_product",
                       "--d", "1", "--N", "2", "--moments", "x.json")
    assert code == 2 and "exactly one" in err
    code, _, err = run(capsys, "verify", "--moments", str(tmp_path / "nope.json"),
                       "--N", "1")
    assert code == 2


def test_bad_tol_and_level_are_exit_two(tmp_path, capsys):
    out = tmp_path / "never.json"
    code, _, err = run(capsys, "decompose", "--measure", "gaussian_product", "--d", "1",
                       "--N", "2", "--tol", "0", "--out", str(out))
    assert code == 2 and "tol must be positive" in err
    code, _, err = run(capsys, "reconstruct", "--jacobi", "x.json", "--tol=-1e-3",
                       "--out", str(out))
    assert code == 2 and "tol must be positive" in err
    code, _, err = run(capsys, "verify", "--measure", "gaussian_product", "--d", "1",
                       "--N", "-1")
    assert code == 2 and "N must be >= 0" in err
    assert not out.exists()


@pytest.mark.parametrize("backend", ["exact", "float"])
@pytest.mark.parametrize("tol", ["inf", "1e400", "nan"])
def test_non_finite_tol_is_exit_two(capsys, backend, tol):
    code, out, err = run(capsys, "verify", "--measure", "gaussian_product", "--d", "1",
                         "--N", "2", "--backend", backend, "--tol", tol)
    assert code == 2 and out == ""
    assert err.startswith("error: tol must be positive")


@pytest.mark.parametrize("argv", [
    ("--measure", "atoms", "--d", "1", "--atoms", "[[1, 2]]"),
    ("--measure", "atoms", "--d", "1", "--atoms", '[[[1], "1/0"]]'),
    ("--samples", "{zero}"),
], ids=["atom-not-a-pair", "weight-over-zero", "sample-over-zero"])
def test_malformed_atom_scalars_are_exit_two(tmp_path, capsys, argv):
    zero = tmp_path / "zero.samples.json"
    zero.write_text(json.dumps({"points": [["1/0"]]}))
    argv = [a.format(zero=zero) for a in argv]
    code, out, err = run(capsys, "verify", "--N", "1", *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_float_sample_overflow_prints_only_the_error_line(tmp_path, capsys):
    s = tmp_path / "big.samples.json"
    s.write_text(json.dumps({"points": [[1e200], [0.0], [1.0]]}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "verify", "--backend", "float", "--samples", str(s),
                             "--N", "2")
    assert code == 2 and out == ""
    assert err == "error: moment for multi-index (2,) is not finite: inf\n"


def test_float_atom_overflow_prints_only_the_error_line(capsys):
    # the same points as the samples case above, as exact atoms cast to float
    atoms = json.dumps([[["1e200"], 1], [[0], 1], [[1], 1]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "verify", "--backend", "float", "--measure", "atoms",
                             "--d", "1", "--N", "2", "--atoms", atoms)
    assert code == 2 and out == ""
    assert err == "error: moment for multi-index (2,) is not finite: inf\n"


def test_atoms_flag(tmp_path, capsys):
    j = tmp_path / "a.jacobi.json"
    atoms = json.dumps([[["-1"], "1/4"], [["0"], "1/2"], [["2"], "1/4"]])
    code, out, _ = run(capsys, "decompose", "--measure", "atoms", "--atoms", atoms,
                       "--d", "1", "--N", "4", "--out", str(j))
    assert code == 0
    assert json.loads(out)["termination_level"] == 3


def test_samples_flag(tmp_path, capsys):
    s = tmp_path / "s.json"
    s.write_text(json.dumps({"points": [["1"], ["-1"]], "weights": ["1/2", "1/2"]}))
    code, out, _ = run(capsys, "verify", "--samples", str(s), "--N", "1")
    assert code == 0
    assert json.loads(out)["ok"] is True


@pytest.mark.parametrize("backend", ["exact", "float"])
@pytest.mark.parametrize("doc,needle", [
    ({"points": 5}, "points"),
    ({"points": [1.0, 2.0]}, "points"),
    ({"points": [[1.0], [2.0]], "weights": 5}, "weights"),
    ({"points": [[float("nan")], [1.0]]}, ""),
    ({"points": [[1e400], [1.0]]}, ""),
    ({"points": [[1.0], [2.0]], "weights": [float("nan"), 1.0]}, ""),
    ({"points": [[1.0], [2.0]], "weights": [1e400, 1.0]}, ""),
])
def test_malformed_sample_file_is_exit_two(tmp_path, capsys, backend, doc, needle):
    s = tmp_path / "bad.samples.json"
    # json.dumps writes NaN and Infinity tokens; 1e400 is written as Infinity
    s.write_text(json.dumps(doc))
    code, _, err = run(capsys, "verify", "--samples", str(s), "--N", "1",
                       "--backend", backend)
    assert code == 2
    assert needle in err
    if backend == "float" and not needle:
        assert "finite" in err


@pytest.mark.parametrize("backend", ["exact", "float"])
def test_negative_sample_weight_is_exit_two(tmp_path, capsys, backend):
    # the same weights --measure atoms refuses
    s = tmp_path / "neg.samples.json"
    s.write_text(json.dumps({"points": [[-1], [0], [1]], "weights": [1, -1, 1]}))
    code, out, err = run(capsys, "verify", "--samples", str(s), "--N", "1",
                         "--backend", backend)
    assert code == 2
    assert out == ""
    assert "weights must be nonnegative" in err


def test_verify_jacobi_reports_a_missing_adjoint(tmp_path, capsys, monkeypatch):
    j = tmp_path / "c.jacobi.json"
    run(capsys, "decompose", "--measure", "circle_uniform", "--d", "2",
        "--N", "3", "--out", str(j))

    def no_adjoint(gomega, d, j, n, backend, tol):
        raise AdjointInconsistencyError(f"creation operator for coordinate {j} has no adjoint")

    monkeypatch.setattr(favard.fock, "annihilator", no_adjoint)
    code, out, err = run(capsys, "verify", "--jacobi", str(j))
    payload = json.loads(out)
    assert code == 1
    assert payload["ok"] is False
    assert "no adjoint" in payload["adjoint_error"]
    assert "verification failed: creation operator" in err


@pytest.mark.parametrize("backend", ["exact", "float"])
def test_float_sample_file_loads(tmp_path, capsys, backend):
    # the plain-number layout written by bench/frontier.py
    s = tmp_path / "cloud.samples.json"
    s.write_text(json.dumps({"points": [[0.5, -1.25], [1.0, 0.0], [-0.75, 2.0]]}))
    code, out, _ = run(capsys, "verify", "--samples", str(s), "--N", "1",
                       "--backend", backend)
    assert code == 0
    assert json.loads(out)["ok"] is True


def _seeded_atoms(seed=3, count=6):
    rng = random.Random(seed)
    return [[[str(Fraction(rng.randint(-4, 4), rng.randint(1, 3))) for _ in range(2)],
             str(rng.randint(1, 4))] for _ in range(count)]


# sha256 of the decompose Jacobi file and of the verify stdout, recorded from
# the Polynomial-based pipeline that preceded the moment-matrix one
GOLDEN = [
    (["--measure", "circle_uniform", "--d", "2", "--N", "4"],
     "0155285621a91e407d85be18024f7a41f8c268640bc9865f7dd2718d660512b0",
     "12f54489e8b2093bfa1a6c83d567066bc9506b7a35a6359921d254ef9eb9123b"),
    (["--measure", "exponential_product", "--d", "1", "--N", "6"],
     "decef44c6751b3f06433da184158dfaaadb56b9c306e2c5a964a978bc93cc116",
     "3ab431bc249493d1f78e1b70180326d8d87fc2aa5a4ce4def45a2897ecf98d15"),
    (["--measure", "atoms", "--d", "2", "--atoms", json.dumps(_seeded_atoms()), "--N", "3"],
     "1ab766f7d5710c0f02f5abfdf0ea22a9fa1846469be8725a169f1268860a83fd",
     "cc54b2b66bb2220b630c312264c1732187a4e470eedebf93dfb3a6c0f3d697cd"),
]


@pytest.mark.parametrize("args,jacobi_sha,verify_sha", GOLDEN)
def test_exact_output_bytes_are_pinned(tmp_path, capsys, args, jacobi_sha, verify_sha):
    j = tmp_path / "pinned.jacobi.json"
    code, _, _ = run(capsys, "decompose", *args, "--out", str(j))
    assert code == 0
    assert hashlib.sha256(j.read_bytes()).hexdigest() == jacobi_sha
    code, out, _ = run(capsys, "verify", *args)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == verify_sha


def test_float_backend_flow(tmp_path, capsys):
    j = tmp_path / "f.jacobi.json"
    m = tmp_path / "f.moments.json"
    code, _, _ = run(capsys, "decompose", "--measure", "uniform_box", "--d", "2",
                     "--N", "2", "--backend", "float", "--out", str(j))
    assert code == 0
    js = load_jacobi_file(str(j))
    assert js.backend == "float"
    code, _, _ = run(capsys, "reconstruct", "--jacobi", str(j), "--out", str(m))
    assert code == 0
    doc = json.loads(m.read_text())
    ref = from_catalog("uniform_box", 2, 5)
    for entry in doc["moments"]:
        expect = float(ref.moment(tuple(entry["m"])))
        assert abs(entry["v"] - expect) <= 1e-9


def test_moment_file_input_via_save(tmp_path, capsys):
    f = tmp_path / "u.moments.json"
    save_moment_file(from_catalog("uniform_box", 1, 6), str(f))
    j = tmp_path / "u.jacobi.json"
    code, out, _ = run(capsys, "decompose", "--moments", str(f), "--N", "3",
                       "--out", str(j))
    assert code == 0
    js = load_jacobi_file(str(j))
    # even budget: the top preservation block is not derivable, so it is absent
    assert js.alpha_levels == 2
    assert jacobi_file_text(js) == j.read_text()


def test_installed_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "favard.cli", "roundtrip", "--measure",
         "gaussian_product", "--d", "1", "--N", "2"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["ok"] is True
