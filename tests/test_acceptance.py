"""Acceptance gate: one test per advertised guarantee.

Run with -v for one verdict line per criterion, or -s to see the
checklist prints.  Everything here goes through the public API only.
"""

import itertools
import json
import time
from fractions import Fraction
from math import factorial

import pytest

from favard import (
    AdjointInconsistencyError,
    build_fock,
    build_gradation,
    build_U,
    extract_cap,
    extract_jacobi,
    from_catalog,
    kernel_basis,
    load_jacobi_file,
    moment_of_word,
    omega_matrix,
    roundtrip_report,
    termination_level,
    verify_adjointness,
    verify_commutators,
    verify_favard_conditions,
    verify_jacobi_relation,
)
from favard.linalg import mat_vec
from favard.mindex import creation_shift, enumerate_level, tensor_metric
from favard.moments import MomentFunctional

from oracles import brute_gram_schmidt_1d


def _pass(num, text):
    print(f"[PASS] criterion {num}: {text}")


def _atoms_for(d):
    pts = [((1, 2, 0), Fraction(1, 2)), ((-1, 0, 1), Fraction(1, 3)),
           ((2, -1, -1), Fraction(1, 6))]
    return [(tuple(Fraction(x) for x in p[:d]), w) for p, w in pts]


def _catalog_instances():
    for d in (1, 2, 3):
        yield "gaussian_product", d, None
        yield "uniform_box", d, None
        yield "exponential_product", d, None
        yield "rademacher_product", d, None
        yield "atoms", d, _atoms_for(d)
    yield "circle_uniform", 2, None


def _decompose(name, d, N, atoms=None, backend="exact"):
    phi = from_catalog(name, d, 2 * N + 1, atoms=atoms, backend=backend)
    gb = build_gradation(phi, N)
    cap = extract_cap(gb)
    return phi, gb, cap, extract_jacobi(gb, cap)


def test_criterion_1_classical_families_exact_vs_brute_force():
    budgets = {"gaussian_product": 8, "uniform_box": 6, "exponential_product": 5}
    for name, N in budgets.items():
        t0 = time.perf_counter()
        phi, gb, cap, js = _decompose(name, 1, N)
        moments = [phi.moment((k,)) for k in range(2 * N + 2)]
        _, norms, alphas, omegas = brute_gram_schmidt_1d(moments, N)
        for n in range(N + 1):
            assert js.gomega[n] == [[norms[n]]]
            assert js.alpha[1][n] == [[alphas[n]]]
        if name == "gaussian_product":
            for n in range(N + 1):
                assert js.gomega[n] == [[Fraction(factorial(n))]]
                assert js.alpha[1][n] == [[Fraction(0)]]
        if name == "uniform_box":
            for n in range(1, N + 1):
                ratio = js.gomega[n][0][0] / js.gomega[n - 1][0][0]
                assert ratio == Fraction(n * n, 4 * n * n - 1)
                assert ratio == omegas[n - 1]
        if name == "exponential_product":
            for n in range(N + 1):
                assert js.alpha[1][n] == [[Fraction(2 * n + 1)]]
            for n in range(1, N + 1):
                assert js.gomega[n][0][0] / js.gomega[n - 1][0][0] == n * n
        elapsed = time.perf_counter() - t0
        assert elapsed < 1.0, f"{name}: {elapsed:.2f}s"
    _pass(1, "1-d classical families match the brute-force ladder exactly, <1s each")


def test_criterion_2_planar_gaussian_scaled_metric():
    t0 = time.perf_counter()
    phi, gb, cap, js = _decompose("gaussian_product", 2, 4)
    for n in range(5):
        t = tensor_metric(2, n)
        expect = [[factorial(n) * x for x in row] for row in t.metric_matrix()]
        assert js.gomega[n] == expect
        om = omega_matrix(js, n)
        dim = len(t.indices)
        assert om == [[factorial(n) if i == j else Fraction(0) for j in range(dim)]
                      for i in range(dim)]
        for j in (1, 2):
            assert all(x == 0 for row in js.alpha[j][n] for x in row)
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"{elapsed:.2f}s"
    _pass(2, "d=2 gaussian has Gomega_n = n! T_n and zero alpha, exact, <5s")


def test_criterion_3_roundtrip_closure_all_catalog_measures():
    t0 = time.perf_counter()
    N = 4
    for name, d, atoms in _catalog_instances():
        phi = from_catalog(name, d, 2 * N + 1, atoms=atoms)
        rep = roundtrip_report(phi, N)
        assert rep.ok, f"{name} d={d}: {rep.summary()}"
        assert all(c.deviation == 0 for c in rep.checks)
        # same sequence through float scalars
        fvals = {m: float(v) for m, v in phi.values.items()}
        fphi = MomentFunctional(d, 2 * N + 1, fvals, backend="float")
        frep = roundtrip_report(fphi, N)
        assert frep.ok, f"{name} d={d} float: {frep.summary()}"
        assert max(c.deviation for c in frep.checks) <= 1e-9
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"{elapsed:.2f}s"
    _pass(3, "roundtrip closure for every catalog measure, exact and float, <30s")


def test_criterion_4_operator_identity_suite():
    for name in ("gaussian_product", "uniform_box", "exponential_product"):
        for d in (1, 2, 3):
            phi, gb, cap, js = _decompose(name, d, 4)
            for rep in (verify_jacobi_relation(cap, gb),
                        verify_adjointness(cap, gb),
                        verify_commutators(cap)):
                assert rep.ok, f"{name} d={d}: {rep.summary()}"
                assert all(c.deviation == 0 for c in rep.checks)
    _pass(4, "Jacobi relation, adjointness and commutators hold exactly, d<=3 N=4")


def test_criterion_5_degeneracy_suite():
    phi, gb, cap, js = _decompose("rademacher_product", 1, 6)
    ranks = [gb.level(n).rank for n in range(7)]
    assert ranks == [1, 1, 0, 0, 0, 0, 0]
    assert termination_level(gb) == 2

    phi, gb, cap, js = _decompose("atoms", 1, 4, atoms=_atoms_for(1))
    assert [gb.level(n).rank for n in range(5)] == [1, 1, 1, 0, 0]
    assert termination_level(gb) == 3

    phi, gb, cap, js = _decompose("circle_uniform", 2, 4)
    ker = kernel_basis(gb, 2)
    assert len(ker) == 1
    v = [x / ker[0][0] for x in ker[0]]
    assert v == [Fraction(1), Fraction(0), Fraction(1)]
    for n in (2, 3):
        for kv in kernel_basis(gb, n):
            for j in (1, 2):
                lifted = mat_vec(creation_shift(2, n, j), kv)
                image = mat_vec(js.gomega[n + 1], lifted)
                assert all(x == 0 for x in image)
    rep = verify_favard_conditions(js)
    assert rep.ok, rep.summary()
    _pass(5, "termination, stabilization and kernel-lift propagation, exact")


def test_criterion_6_compatibility_is_adjointability(tmp_path):
    doc = {
        "d": 1, "N": 2, "order": "graded-lex", "metric": "m!/n!",
        "levels": [
            {"n": 0, "Gomega": [["1"]], "alpha": {"1": [["0"]]}},
            {"n": 1, "Gomega": [["0"]], "alpha": {"1": [["0"]]}},
            {"n": 2, "Gomega": [["1"]], "alpha": {"1": [["0"]]}},
        ],
    }
    path = tmp_path / "revived.jacobi.json"
    path.write_text(json.dumps(doc))
    js = load_jacobi_file(str(path))
    with pytest.raises(AdjointInconsistencyError) as exc:
        build_fock(js)
    assert "annihilat" in str(exc.value) or "adjoint" in str(exc.value)

    doc["levels"][2]["Gomega"] = [["0"]]
    path.write_text(json.dumps(doc))
    ops = build_fock(load_jacobi_file(str(path)))
    assert moment_of_word(ops, (1, 1)) == 0
    _pass(6, "incompatible file rejected with an adjoint diagnostic; repair passes")


def test_criterion_7_float_exact_agreement():
    N = 4
    for name, d, atoms in _catalog_instances():
        _, _, _, js = _decompose(name, d, N, atoms=atoms)
        fatoms = None
        if atoms is not None:
            fatoms = [(tuple(float(x) for x in p), float(w)) for p, w in atoms]
        _, _, _, fjs = _decompose(name, d, N, atoms=fatoms, backend="float")
        for n in range(N + 1):
            for re_, rf in zip(js.gomega[n], fjs.gomega[n]):
                for xe, xf in zip(re_, rf):
                    assert abs(float(xe) - xf) <= 1e-10, f"{name} d={d} level {n}"
        levels = min(js.alpha_levels, fjs.alpha_levels)
        for j in range(1, d + 1):
            for n in range(levels + 1):
                for re_, rf in zip(js.alpha[j][n], fjs.alpha[j][n]):
                    for xe, xf in zip(re_, rf):
                        assert abs(float(xe) - xf) <= 1e-10, f"{name} d={d} alpha {j},{n}"
    _pass(7, "float and exact backends agree to 1e-10 on every catalog sequence")


def test_criterion_8_word_order_independence():
    for name in ("uniform_box", "exponential_product"):
        phi, gb, cap, js = _decompose(name, 3, 3)
        u3 = build_U(cap, 3)
        for col, m in enumerate(enumerate_level(3, 3)):
            word = []
            for j, mult in enumerate(m, start=1):
                word.extend([j] * mult)
            seen = set()
            for perm in set(itertools.permutations(word)):
                vec = [Fraction(1)]
                for pos, j in enumerate(perm):
                    vec = mat_vec(cap.aplus[j][pos], vec)
                seen.add(tuple(vec))
            assert len(seen) == 1
            assert list(seen.pop()) == [row[col] for row in u3]
    _pass(8, "every ordering of each d=3 level-3 creation word agrees exactly")
