import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from favard.errors import FileFormatError, MomentDegreeError
from favard.moments import (
    CATALOG_MEASURES,
    apply,
    check_state_positivity,
    gram,
    MomentFunctional,
    from_catalog,
    from_file,
    from_samples,
    moment_file_text,
    save_moment_file,
)
from favard.poly import monomial, one

from oracles import (
    clt_band,
    quad_moment_circle,
    quad_moment_exponential,
    quad_moment_gaussian,
    quad_moment_uniform,
)


# --------------------------------------------- catalog formulas vs quadrature

def test_gaussian_moments_match_quadrature():
    phi = from_catalog("gaussian_product", 1, 16)
    for k in range(17):
        exact = float(phi.moment((k,)))
        assert abs(exact - quad_moment_gaussian(k)) < 1e-12 * max(1.0, exact)


def test_uniform_moments_match_quadrature():
    phi = from_catalog("uniform_box", 1, 12)
    for k in range(13):
        assert abs(float(phi.moment((k,))) - quad_moment_uniform(k)) < 1e-12


def test_exponential_moments_match_quadrature():
    phi = from_catalog("exponential_product", 1, 12)
    for k in range(13):
        assert abs(float(phi.moment((k,))) - quad_moment_exponential(k)) < 1e-6 * max(
            1.0, float(phi.moment((k,)))
        )


def test_circle_moments_match_quadrature():
    phi = from_catalog("circle_uniform", 2, 8)
    for a in range(9):
        for b in range(9 - a):
            assert abs(float(phi.moment((a, b))) - quad_moment_circle(a, b)) < 1e-12


def test_product_measures_factor():
    phi = from_catalog("gaussian_product", 3, 6)
    g1 = from_catalog("gaussian_product", 1, 6)
    for m in [(2, 2, 2), (4, 0, 2), (1, 3, 2), (0, 0, 6)]:
        expect = math.prod(g1.moment((mi,)) for mi in m)
        assert phi.moment(m) == expect


def test_rademacher_equals_two_point_atoms():
    phi = from_catalog("rademacher_product", 1, 8)
    atoms = from_catalog("atoms", 1, 8, atoms=[((1,), Fraction(1, 2)), ((-1,), Fraction(1, 2))])
    assert phi.values == atoms.values


def test_atom_moments_are_weighted_power_sums():
    pts = [((Fraction(1), Fraction(2)), Fraction(1, 4)), ((Fraction(-1), Fraction(0)), Fraction(3, 4))]
    phi = from_catalog("atoms", 2, 4, atoms=pts)
    for m in [(0, 0), (1, 0), (2, 2), (3, 1)]:
        expect = sum(w * x[0] ** m[0] * x[1] ** m[1] for x, w in pts)
        assert phi.moment(m) == expect


def test_catalog_names_and_errors():
    assert set(CATALOG_MEASURES) == {
        "gaussian_product", "uniform_box", "exponential_product",
        "rademacher_product", "atoms", "circle_uniform",
    }
    with pytest.raises(ValueError):
        from_catalog("circle_uniform", 3, 4)
    with pytest.raises(ValueError):
        from_catalog("no_such_measure", 1, 2)
    with pytest.raises(ValueError):
        from_catalog("atoms", 1, 2)  # needs explicit atoms


# ----------------------------------------------------------- the functional

def test_apply_and_gram():
    phi = from_catalog("gaussian_product", 2, 6)
    p = monomial(2, (1, 0)) + monomial(2, (0, 1))
    q = monomial(2, (1, 0)) - monomial(2, (0, 1))
    assert apply(phi, p * q) == 0
    assert apply(phi, p * p) == 2
    g = gram(phi, [p, q], [p, q])
    assert g == [[2, 0], [0, 2]]


@given(st.fractions(max_denominator=6), st.fractions(max_denominator=6))
@settings(max_examples=25)
def test_apply_is_linear(a, b):
    phi = from_catalog("uniform_box", 1, 6)
    p = monomial(1, (2,))
    q = monomial(1, (4,)) + one(1)
    assert apply(phi, a * p + b * q) == a * apply(phi, p) + b * apply(phi, q)


def test_degree_budget_enforced():
    phi = from_catalog("gaussian_product", 1, 4)
    with pytest.raises(MomentDegreeError):
        apply(phi, monomial(1, (5,)))
    with pytest.raises(MomentDegreeError):
        phi.moment((5,))


def test_positivity_check_passes_on_catalogs():
    for name in ("gaussian_product", "uniform_box", "exponential_product",
                 "rademacher_product", "circle_uniform"):
        d = 2 if name == "circle_uniform" else 1
        phi = from_catalog(name, d, 6)
        rep = check_state_positivity(phi, 3)
        assert rep.ok, rep.summary()


def test_positivity_check_flags_signed_functional():
    vals = {(0,): Fraction(1), (1,): Fraction(0), (2,): Fraction(-1)}
    phi = MomentFunctional(1, 2, vals)
    rep = check_state_positivity(phi, 1)
    assert not rep.ok
    assert "1" in rep.first_failure().label


# ------------------------------------------------------------- from_samples

def test_from_samples_exact_matches_atoms():
    pts = [(1, 2), (1, 2), (-1, 0), (3, 1)]
    phi = from_samples(pts, 3)
    assert phi.backend == "exact"
    atoms = [((Fraction(1), Fraction(2)), Fraction(2, 4)),
             ((Fraction(-1), Fraction(0)), Fraction(1, 4)),
             ((Fraction(3), Fraction(1)), Fraction(1, 4))]
    ref = from_catalog("atoms", 2, 3, atoms=atoms)
    assert phi.values == ref.values


def test_from_samples_float_within_clt_band():
    rng = np.random.default_rng(20240817)
    n = 200_000
    xs = rng.standard_normal((n, 1))
    phi = from_samples(xs, 4)
    assert phi.backend == "float"
    # Var(x^2) = 2 for a standard normal
    assert abs(phi.moment((2,)) - 1.0) < clt_band(2.0, n, sigmas=5.0)
    # Var(x^4) = m8 - m4^2 = 105 - 9 = 96
    assert abs(phi.moment((4,)) - 3.0) < clt_band(96.0, n, sigmas=5.0)


def test_from_samples_weighted():
    phi = from_samples([(0,), (2,)], 2, weights=[Fraction(3, 4), Fraction(1, 4)])
    assert phi.moment((1,)) == Fraction(1, 2)
    assert phi.moment((2,)) == 1


# ---------------------------------------------------------------- file I/O

def test_moment_file_roundtrip_bytes(tmp_path):
    phi = from_catalog("exponential_product", 2, 3)
    text = moment_file_text(phi)
    again = moment_file_text(from_file(text, is_text=True))
    assert text == again
    path = tmp_path / "m.json"
    save_moment_file(phi, path)
    loaded = from_file(path)
    assert loaded.values == phi.values
    assert loaded.backend == "exact"


def test_moment_file_float_mode(tmp_path):
    rng = np.random.default_rng(7)
    phi = from_samples(rng.standard_normal((50, 1)), 2)
    path = tmp_path / "f.json"
    save_moment_file(phi, path)
    loaded = from_file(path)
    assert loaded.backend == "float"
    assert loaded.moment((2,)) == pytest.approx(phi.moment((2,)))


def _valid_payload():
    return {
        "d": 1,
        "max_degree": 2,
        "scalar": "rational",
        "moments": [
            {"m": [0], "v": "1"},
            {"m": [1], "v": "0"},
            {"m": [2], "v": "1"},
        ],
    }


def _reject(payload):
    with pytest.raises(FileFormatError):
        from_file(json.dumps(payload), is_text=True)


def test_moment_file_schema_rejections():
    p = _valid_payload()
    from_file(json.dumps(p), is_text=True)  # sanity: the base payload loads

    bad = _valid_payload(); bad["extra"] = 1
    _reject(bad)
    bad = _valid_payload(); del bad["scalar"]
    _reject(bad)
    bad = _valid_payload(); bad["scalar"] = "decimal"
    _reject(bad)
    bad = _valid_payload(); bad["moments"][2]["m"] = [3]
    _reject(bad)  # dense coverage broken
    bad = _valid_payload(); bad["moments"].append({"m": [2], "v": "1"})
    _reject(bad)  # duplicate index
    bad = _valid_payload(); bad["moments"][0]["v"] = "2"
    _reject(bad)  # normalization: unit mass required
    bad = _valid_payload(); bad["moments"][1]["v"] = 0.5
    _reject(bad)  # float value in rational mode
    bad = _valid_payload(); bad["moments"][1]["v"] = "1/0"
    _reject(bad)
    bad = _valid_payload(); bad["moments"][1]["m"] = [1, 0]
    _reject(bad)  # wrong dimension
    _reject([1, 2, 3])  # not an object


def test_normalization_diagnostic_names_the_mass():
    p = _valid_payload()
    p["moments"][0]["v"] = "2"
    with pytest.raises(FileFormatError, match="mass|normal"):
        from_file(json.dumps(p), is_text=True)


def test_float_functional_refuses_non_finite_moments():
    # a NaN weight passes the sign and zero-sum checks but poisons every moment
    with pytest.raises(ValueError, match=r"multi-index \(0,\) is not finite: nan"):
        from_samples([[0.0], [1.0], [2.0]], 2, weights=[float("nan"), 1.0, 1.0])
    values = {(0,): 1.0, (1,): float("inf"), (2,): 1.0}
    with pytest.raises(ValueError, match=r"multi-index \(1,\) is not finite: inf"):
        MomentFunctional(d=1, max_degree=2, values=values, backend="float")
