import itertools
import json
from fractions import Fraction
from math import factorial

import pytest

import favard.fock
import favard.jacobi
from favard.cap import extract_cap
from favard.errors import FileFormatError
from favard.fock import build_fock
from favard.gradation import build_gradation
from favard.jacobi import (
    JacobiSequence,
    METRIC_TAG,
    ORDER_TAG,
    analyze,
    build_U,
    extract_jacobi,
    jacobi_file_text,
    load_jacobi_file,
    omega_matrix,
    save_jacobi_file,
    verify_favard_conditions,
)
from favard.linalg import mat_mul, mat_vec, solve_min_norm, transpose
from favard.mindex import creation_shift, enumerate_level, enumerate_upto, tensor_metric
from favard.moments import from_catalog

from oracles import brute_gram_schmidt_1d


def _sequence(name, d, N, **kw):
    phi = from_catalog(name, d, 2 * N + 1, **kw)
    gb = build_gradation(phi, N)
    cap = extract_cap(gb)
    return phi, gb, cap, extract_jacobi(gb, cap)


# --------------------------------------------------------- change of basis

def test_build_U_base_cases():
    phi, gb, cap, js = _sequence("exponential_product", 1, 3)
    assert build_U(cap, 0) == [[Fraction(1)]]
    assert build_U(cap, 1) == [[Fraction(1)]]


def test_gaussian_2d_U_is_identity():
    phi, gb, cap, js = _sequence("gaussian_product", 2, 3)
    for n in range(4):
        dim = len(enumerate_level(2, n))
        assert build_U(cap, n) == [[Fraction(int(i == k)) for k in range(dim)] for i in range(dim)]


def test_rademacher_U_vanishes_on_dead_levels():
    phi, gb, cap, js = _sequence("rademacher_product", 1, 3)
    assert build_U(cap, 2) == [[Fraction(0)]]
    assert build_U(cap, 3) == [[Fraction(0)]]


def test_creation_words_are_order_independent():
    # every ordering of a creation word yields the same vector, exactly
    phi, gb, cap, js = _sequence("exponential_product", 3, 3)
    for m in enumerate_level(3, 3):
        word = []
        for j, mult in enumerate(m, start=1):
            word.extend([j] * mult)
        results = set()
        for perm in set(itertools.permutations(word)):
            vec = [Fraction(1)]
            for pos, j in enumerate(perm):
                vec = mat_vec(cap.aplus[j][pos], vec)
            results.add(tuple(vec))
        assert len(results) == 1


# ------------------------------------- Favard data read off the gradation

_GRADATION_CASES = [
    ("gaussian_product", 2, 4, None),
    ("circle_uniform", 2, 5, None),
    ("rademacher_product", 2, 4, None),
    ("atoms", 2, 3, [((0, 0), 1), ((1, 0), 2), ((0, 1), 1), ((1, 1), Fraction(1, 2))]),
]


def _form(p, m, q):
    """p m q^T for coefficient rows p and q, with the sums written out."""
    return [[sum(pi[a] * m[a][b] * qi[b] for a in range(len(pi)) for b in range(len(qi)))
             for qi in q] for pi in p]


@pytest.mark.parametrize("name,d,N,atoms", _GRADATION_CASES)
def test_creation_pairing_is_the_gram_times_the_index_shift(name, d, N, atoms):
    # <p_{n+1}, x_j p_n> and <p_n, x_j p_n> through the localizing matrix
    # L_j = [phi(x_j x^a x^b)], built here from the moments, exactly
    phi, gb, cap, js = _sequence(name, d, N, atoms=atoms)
    if name == "atoms":
        assert [lvl.rank for lvl in gb.levels] == [1, 2, 1, 0]
    monos = enumerate_upto(d, N)
    for j in range(1, d + 1):
        e_j = tuple(int(i == j) for i in range(1, d + 1))
        loc = [[phi.values[tuple(x + y + z for x, y, z in zip(a, b, e_j))] for b in monos]
               for a in monos]
        for n in range(N + 1):
            rows = gb.level(n).coeffs
            if n < N:
                pairing = _form(gb.level(n + 1).coeffs, loc, rows)
                assert pairing == mat_mul(gb.level(n + 1).gram, creation_shift(d, n, j))
            assert _form(rows, loc, rows) == mat_mul(gb.level(n).gram, cap.azero[j][n])


@pytest.mark.parametrize("budget", ["2N", "2N+1"])
@pytest.mark.parametrize("name,d,N,atoms", _GRADATION_CASES + [
    ("uniform_box", 3, 3, None),
    ("exponential_product", 1, 6, None),
])
def test_levels_keep_their_modified_moments(name, d, N, atoms, budget):
    # R_n = P_n H with H built here from the moments, over the columns of
    # degree <= max(N, n+1) the budget reaches; zero below degree n and G_n
    # on the level-n columns
    top = 2 * N + (budget == "2N+1")
    phi = from_catalog(name, d, top, atoms=atoms)
    gb = build_gradation(phi, N)
    for n, lvl in enumerate(gb.levels):
        rows = enumerate_upto(d, n)
        cols = enumerate_upto(d, min(max(N, n + 1), top - n))
        h = [[phi.values[tuple(x + y for x, y in zip(a, b))] for b in cols] for a in rows]
        assert lvl.mods == [[sum(p[a] * h[a][c] for a in range(len(rows)))
                             for c in range(len(cols))] for p in lvl.coeffs]
        low = len(enumerate_upto(d, n - 1))
        assert all(x == 0 for r in lvl.mods for x in r[:low])
        assert [r[low:len(rows)] for r in lvl.mods] == lvl.gram


@pytest.mark.parametrize("name,d,N,atoms", _GRADATION_CASES)
def test_transport_through_U_returns_the_gradation_data(name, d, N, atoms):
    # Gomega_n = U^T G_n U and alpha = the min-norm solution of U X = Azero U
    phi, gb, cap, js = _sequence(name, d, N, atoms=atoms)
    umats = [build_U(cap, n) for n in range(N + 1)]
    for n, u in enumerate(umats):
        g = gb.level(n).gram
        assert mat_mul(mat_mul(transpose(u), g), u) == g == js.gomega[n]
    for j in range(1, d + 1):
        assert len(js.alpha[j]) == cap.alpha_levels + 1 == N + 1
        for n, a0 in enumerate(cap.azero[j]):
            rhs = transpose(mat_mul(a0, umats[n]))
            assert transpose(solve_min_norm(umats[n], rhs, "exact")) == a0 == js.alpha[j][n]


@pytest.mark.parametrize("name,d,N,atoms", _GRADATION_CASES)
def test_forward_and_converse_annihilators_agree(name, d, N, atoms):
    # one adjoint solve serves both directions, so the blocks are equal exactly
    phi, gb, cap, js = _sequence(name, d, N, atoms=atoms)
    assert cap.aminus == build_fock(js)[1].aminus


@pytest.mark.parametrize("name,d,N,atoms", _GRADATION_CASES)
def test_extracted_sequence_survives_its_file(name, d, N, atoms):
    # the sequence holds exactly what the Jacobi file holds
    phi, gb, cap, js = _sequence(name, d, N, atoms=atoms)
    assert load_jacobi_file(jacobi_file_text(js), is_text=True) == js


def test_analyze_checks_the_favard_conditions_once(monkeypatch):
    calls = []

    def counted(js, tol=None):
        calls.append(js)
        return verify_favard_conditions(js, tol)

    monkeypatch.setattr(favard.jacobi, "verify_favard_conditions", counted)
    monkeypatch.setattr(favard.fock, "verify_favard_conditions", counted)
    ma = analyze(from_catalog("circle_uniform", 2, 5), 2, with_roundtrip=True)
    assert ma.ok and "roundtrip" in ma.reports
    assert len(calls) == 1


# ----------------------------------------------------------- extraction

def test_gaussian_1d_sequence():
    phi, gb, cap, js = _sequence("gaussian_product", 1, 4)
    for n in range(5):
        assert js.gomega[n] == [[Fraction(factorial(n))]]
        assert js.alpha[1][n] == [[Fraction(0)]]


def test_gaussian_2d_sequence_matches_scaled_metric():
    phi, gb, cap, js = _sequence("gaussian_product", 2, 4)
    for n in range(5):
        t = tensor_metric(2, n).metric_matrix()
        expect = [[factorial(n) * x for x in row] for row in t]
        assert js.gomega[n] == expect
    om = omega_matrix(js, 2)
    assert om == [[2, 0, 0], [0, 2, 0], [0, 0, 2]]


def test_1d_collapse_to_classical_recurrence():
    for name, N in [("uniform_box", 5), ("exponential_product", 4)]:
        phi, gb, cap, js = _sequence(name, 1, N)
        moments = [phi.moment((k,)) for k in range(2 * N + 2)]
        _, norms, alphas, omegas = brute_gram_schmidt_1d(moments, N)
        for n in range(N + 1):
            assert js.gomega[n] == [[norms[n]]]
            assert js.alpha[1][n] == [[alphas[n]]]
        for n in range(1, N + 1):
            # level matrix accumulates the product; classical omega_n is the ratio
            assert omega_matrix(js, n) == [[norms[n]]]
            assert norms[n] / norms[n - 1] == omegas[n - 1]


def test_rademacher_sequence_values():
    phi, gb, cap, js = _sequence("rademacher_product", 1, 3)
    assert [js.gomega[n] for n in range(4)] == [[[1]], [[1]], [[0]], [[0]]]
    assert js.alpha[1][2] == [[Fraction(0)]]  # zero on the dead level


def test_tensor_metric_symmetry_of_omega():
    phi, gb, cap, js = _sequence("circle_uniform", 2, 4)
    for n in range(5):
        t = tensor_metric(2, n).metric_matrix()
        om = omega_matrix(js, n)
        lhs = [[sum(t[i][k] * om[k][j] for k in range(len(om))) for j in range(len(om))]
               for i in range(len(om))]
        assert lhs == js.gomega[n]


# ------------------------------------------------------------ conditions

def test_favard_conditions_pass_on_catalogs():
    cases = [("gaussian_product", 2, 4), ("uniform_box", 3, 2),
             ("exponential_product", 2, 3), ("circle_uniform", 2, 4),
             ("rademacher_product", 2, 3)]
    for name, d, N in cases:
        phi, gb, cap, js = _sequence(name, d, N)
        rep = verify_favard_conditions(js)
        assert rep.ok, "{}: {}".format(name, rep.summary())


def test_kernel_lift_violation_detected():
    # rank revives after dying: the lifted kernel vector escapes the kernel
    js = JacobiSequence(
        d=1, N=2, backend="exact",
        gomega=[[[Fraction(1)]], [[Fraction(0)]], [[Fraction(1)]]],
        alpha={1: [[[Fraction(0)]], [[Fraction(0)]], [[Fraction(0)]]]},
    )
    rep = verify_favard_conditions(js)
    assert not rep.ok
    assert "kernel lift" in rep.first_failure().label


def test_alpha_asymmetry_detected():
    js = JacobiSequence(
        d=2, N=1, backend="exact",
        gomega=[[[Fraction(1)]], [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]],
        alpha={1: [[[Fraction(0)]], [[Fraction(0), Fraction(1)], [Fraction(0), Fraction(0)]]],
               2: [[[Fraction(0)]], [[Fraction(0)] * 2 for _ in range(2)]]},
    )
    rep = verify_favard_conditions(js)
    assert not rep.ok
    assert "symmet" in rep.first_failure().label


def test_indefinite_gomega_detected():
    js = JacobiSequence(
        d=1, N=1, backend="exact",
        gomega=[[[Fraction(1)]], [[Fraction(-1)]]],
        alpha={1: [[[Fraction(0)]], [[Fraction(0)]]]},
    )
    rep = verify_favard_conditions(js)
    assert not rep.ok


def test_max_word_length_tracks_alpha_levels():
    phi, gb, cap, js = _sequence("gaussian_product", 1, 3)
    assert js.alpha_levels == 3
    assert js.max_word_length() == 7
    trimmed = JacobiSequence(d=1, N=3, backend="exact",
                             gomega=js.gomega,
                             alpha={1: js.alpha[1][:3]})
    assert trimmed.alpha_levels == 2
    assert trimmed.max_word_length() == 6


# ---------------------------------------------------------------- file I/O

def test_jacobi_file_roundtrip_is_byte_exact(tmp_path):
    for name, d, N in [("exponential_product", 1, 3), ("circle_uniform", 2, 3)]:
        phi, gb, cap, js = _sequence(name, d, N)
        text = jacobi_file_text(js)
        again = jacobi_file_text(load_jacobi_file(text, is_text=True))
        assert text == again
        path = tmp_path / "{}.json".format(name)
        save_jacobi_file(js, str(path))
        loaded = load_jacobi_file(str(path))
        assert loaded.gomega == js.gomega
        assert loaded.alpha == js.alpha
        assert loaded.backend == "exact"


def test_jacobi_file_carries_conventions():
    phi, gb, cap, js = _sequence("gaussian_product", 1, 2)
    data = json.loads(jacobi_file_text(js))
    assert data["order"] == ORDER_TAG == "graded-lex"
    assert data["metric"] == METRIC_TAG == "m!/n!"
    assert [lv["n"] for lv in data["levels"]] == [0, 1, 2]


def _payload(name="gaussian_product", d=1, N=2):
    phi = from_catalog(name, d, 2 * N + 1)
    gb = build_gradation(phi, N)
    js = extract_jacobi(gb, extract_cap(gb))
    return json.loads(jacobi_file_text(js))


def _reject(data):
    with pytest.raises(FileFormatError):
        load_jacobi_file(json.dumps(data), is_text=True)


def test_jacobi_file_schema_rejections():
    base = _payload()
    load_jacobi_file(json.dumps(base), is_text=True)  # sanity

    bad = _payload(); bad["order"] = "lex"
    _reject(bad)
    bad = _payload(); bad["metric"] = "1"
    _reject(bad)
    bad = _payload(); del bad["levels"]
    _reject(bad)
    bad = _payload(); bad["junk"] = True
    _reject(bad)
    bad = _payload(); bad["levels"][1]["n"] = 5
    _reject(bad)  # levels must be 0..N in order
    bad = _payload(); bad["levels"].pop()
    _reject(bad)  # N+1 levels required
    bad = _payload(); bad["levels"][1]["Gomega"] = [[ "1", "0" ]]
    _reject(bad)  # wrong dimensions
    bad = _payload(); del bad["levels"][0]["alpha"]
    _reject(bad)  # alpha may be omitted only at the top level
    bad = _payload(); bad["levels"][0]["alpha"] = {"1": [["1/2"]], "2": [["0"]]}
    _reject(bad)  # alpha keys must match d
    bad = _payload(); bad["levels"][0]["Gomega"] = [[1.0]]
    _reject(bad)  # float value mixed into a rational file
    _reject({"d": 1, "N": 0, "order": ORDER_TAG, "metric": METRIC_TAG,
             "levels": "not-a-list"})


def test_jacobi_file_top_alpha_omission_allowed():
    data = _payload("exponential_product", 1, 2)
    del data["levels"][2]["alpha"]
    js = load_jacobi_file(json.dumps(data), is_text=True)
    assert js.alpha_levels == 1
    assert js.max_word_length() == 4


def test_float_jacobi_file():
    data = _payload("uniform_box", 1, 2)
    for lv in data["levels"]:
        lv["Gomega"] = [[float(Fraction(x)) for x in row] for row in lv["Gomega"]]
        lv["alpha"] = {k: [[float(Fraction(x)) for x in row] for row in m]
                       for k, m in lv["alpha"].items()}
    js = load_jacobi_file(json.dumps(data), is_text=True)
    assert js.backend == "float"
    rep = verify_favard_conditions(js)
    assert rep.ok, rep.summary()


# ---------------------------------------------------------------- analyze

def test_analyze_bundles_everything():
    phi = from_catalog("circle_uniform", 2, 9)
    ma = analyze(phi, 4)
    assert ma.ok
    assert ma.termination is None
    assert ma.ranks == [1, 2, 2, 2, 2]
    assert {"positivity", "jacobi_relation", "adjointness", "commutators",
            "favard_conditions", "roundtrip"} <= set(ma.reports)
    d = ma.to_dict()
    assert d["ok"] is True
    json.dumps(d)  # serializable


def test_analyze_terminating_measure():
    phi = from_catalog("rademacher_product", 1, 9)
    ma = analyze(phi, 4)
    assert ma.ok
    assert ma.termination == 2
