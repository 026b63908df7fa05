import random
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from favard.errors import MomentDegreeError, PositivityError
from favard.gradation import (
    build_gradation,
    kernel_basis,
    project_onto_level,
    termination_level,
)
from favard.mindex import enumerate_level
from favard.moments import MomentFunctional, apply, from_catalog, from_samples, gram
from favard.poly import Polynomial, graded_component, monomial

from oracles import brute_gram_schmidt_1d


def _coeff_list(p, degree):
    return [p.coefficient((k,)) for k in range(degree + 1)]


def test_gaussian_1d_basis_polynomials():
    phi = from_catalog("gaussian_product", 1, 8)
    gb = build_gradation(phi, 4)
    p2 = gb.level(2).basis[0]
    p3 = gb.level(3).basis[0]
    assert p2 == monomial(1, (2,)) - Polynomial(1, {(0,): Fraction(1)})
    assert p3 == monomial(1, (3,)) - 3 * monomial(1, (1,))
    for n in range(5):
        assert gb.level(n).gram == [[Fraction(factorial(n))]]


@pytest.mark.parametrize(
    "name,N",
    [("gaussian_product", 6), ("uniform_box", 5), ("exponential_product", 4)],
)
def test_1d_ladder_matches_brute_force_oracle(name, N):
    phi = from_catalog(name, 1, 2 * N + 1)
    gb = build_gradation(phi, N)
    moments = [phi.moment((k,)) for k in range(2 * N + 2)]
    polys, norms, _, _ = brute_gram_schmidt_1d(moments, N)
    for n in range(N + 1):
        assert _coeff_list(gb.level(n).basis[0], n) == polys[n]
        assert gb.level(n).gram == [[norms[n]]]


def test_monic_leading_terms():
    for name, d in [("gaussian_product", 2), ("exponential_product", 2), ("circle_uniform", 2)]:
        phi = from_catalog(name, d, 6)
        gb = build_gradation(phi, 3)
        for n in range(4):
            lv = gb.level(n)
            for m, p in zip(lv.indices, lv.basis):
                diff = p - monomial(d, m)
                assert diff.degree() < n


def test_cross_level_orthogonality_exact():
    phi = from_catalog("circle_uniform", 2, 8)
    gb = build_gradation(phi, 4)
    for a in range(5):
        for b in range(a):
            g = gram(phi, gb.level(a).basis, gb.level(b).basis)
            assert all(x == 0 for row in g for x in row)


def test_gram_symmetry_and_projection_consistency():
    phi = from_catalog("uniform_box", 2, 8)
    gb = build_gradation(phi, 4)
    for n in range(5):
        g = gb.level(n).gram
        assert g == [list(col) for col in zip(*g)]


def test_project_onto_level_example():
    phi = from_catalog("gaussian_product", 1, 8)
    gb = build_gradation(phi, 4)
    q = monomial(1, (3,))
    assert project_onto_level(gb, q, 1) == [Fraction(3)]
    assert project_onto_level(gb, q, 3) == [Fraction(1)]
    assert project_onto_level(gb, q, 2) == [Fraction(0)]


@given(st.fractions(max_denominator=8), st.fractions(max_denominator=8))
@settings(max_examples=20, deadline=None)
def test_projection_is_linear(a, b):
    phi = from_catalog("exponential_product", 1, 8)
    gb = build_gradation(phi, 4)
    p = monomial(1, (3,))
    q = monomial(1, (2,)) + monomial(1, (1,))
    lin = project_onto_level(gb, a * p + b * q, 2)
    pa = project_onto_level(gb, p, 2)
    qa = project_onto_level(gb, q, 2)
    assert lin == [a * x + b * y for x, y in zip(pa, qa)]


def test_projection_reproduces_graded_expansion():
    # summing every level projection against the basis recovers the input
    phi = from_catalog("gaussian_product", 2, 8)
    gb = build_gradation(phi, 4)
    q = (monomial(2, (2, 1)) + 2 * monomial(2, (1, 0))) * monomial(2, (1, 0))
    total = Polynomial(2, {})
    for n in range(5):
        coeffs = project_onto_level(gb, q, n)
        for c, p in zip(coeffs, gb.level(n).basis):
            total = total + c * p
    assert total == q


# ------------------------------------------------------------- degeneracy

def test_circle_level2_gram_and_kernel():
    phi = from_catalog("circle_uniform", 2, 8)
    gb = build_gradation(phi, 4)
    e = Fraction(1, 8)
    assert gb.level(2).gram == [[e, 0, -e], [0, e, 0], [-e, 0, e]]
    assert gb.level(2).rank == 2
    ker = kernel_basis(gb, 2)
    assert len(ker) == 1
    v = ker[0]
    # x^2 + y^2 - 1 is null on the unit circle; kernel vector is its shadow
    scaled = [x / v[0] for x in v]
    assert scaled == [Fraction(1), Fraction(0), Fraction(1)]
    assert termination_level(gb) is None


def test_rademacher_terminates_and_stabilizes():
    phi = from_catalog("rademacher_product", 1, 8)
    gb = build_gradation(phi, 4)
    assert [gb.level(n).rank for n in range(5)] == [1, 1, 0, 0, 0]
    assert termination_level(gb) == 2


def test_dirac_terminates_at_level_one():
    phi = from_catalog("atoms", 1, 6, atoms=[((Fraction(0),), Fraction(1))])
    gb = build_gradation(phi, 3)
    assert [gb.level(n).rank for n in range(4)] == [1, 0, 0, 0]
    assert termination_level(gb) == 1


def test_three_atoms_terminate_at_level_three():
    atoms = [((Fraction(-1),), Fraction(1, 4)),
             ((Fraction(0),), Fraction(1, 2)),
             ((Fraction(2),), Fraction(1, 4))]
    phi = from_catalog("atoms", 1, 8, atoms=atoms)
    gb = build_gradation(phi, 4)
    assert [gb.level(n).rank for n in range(5)] == [1, 1, 1, 0, 0]
    assert termination_level(gb) == 3


@given(st.lists(st.integers(-3, 3), min_size=1, max_size=4, unique=True),
       st.data())
@settings(max_examples=30, deadline=None)
def test_atomic_rank_bounded_by_support(points, data):
    weights = [Fraction(1, len(points))] * len(points)
    atoms = [((Fraction(x),), w) for x, w in zip(points, weights)]
    phi = from_catalog("atoms", 1, 8, atoms=atoms)
    gb = build_gradation(phi, 4)
    total_rank = sum(gb.level(n).rank for n in range(5))
    assert total_rank == min(len(points), 5)
    ranks = [gb.level(n).rank for n in range(5)]
    # ranks are 1 up to the support size, then 0
    assert ranks == [1 if n < len(points) else 0 for n in range(5)]


def test_float_dead_levels_are_floored_to_exact_zero():
    # a terminated level's float Gram is pure cancellation noise; it must be
    # recognized as dead, not treated as a full-rank matrix of its own scale
    atoms = [((1, 2), Fraction(1, 2)), ((-1, 0), Fraction(1, 3)),
             ((2, -1), Fraction(1, 6))]
    exact = from_catalog("atoms", 2, 8, atoms=atoms)
    vals = {m: float(v) for m, v in exact.values.items()}
    phi = MomentFunctional(2, 8, vals, backend="float")
    gb = build_gradation(phi, 4)
    assert [gb.level(n).rank for n in range(5)] == [1, 2, 0, 0, 0]
    for n in (2, 3, 4):
        assert all(x == 0.0 for row in gb.level(n).gram for x in row)
    assert termination_level(gb) == 2


# ----------------------------------------------------------------- guards

def test_insufficient_moments_raise():
    phi = from_catalog("gaussian_product", 1, 5)
    with pytest.raises(MomentDegreeError):
        build_gradation(phi, 3)  # needs degree 6


def test_signed_functional_rejected():
    vals = {(0,): Fraction(1), (1,): Fraction(0), (2,): Fraction(-1),
            (3,): Fraction(0), (4,): Fraction(1)}
    phi = MomentFunctional(1, 4, vals)
    with pytest.raises(PositivityError):
        build_gradation(phi, 2)


# ------------------------------------------------------- block LDL^T of H

@pytest.mark.parametrize("name,d,N,atoms", [
    ("circle_uniform", 2, 5, None),
    ("gaussian_product", 2, 4, None),
    ("exponential_product", 1, 6, None),
    ("atoms", 2, 3, [((0, 0), 1), ((1, 0), 2), ((0, 1), 1), ((1, 1), Fraction(1, 2))]),
])
def test_level_rows_are_a_block_ldlt_of_the_moment_matrix(name, d, N, atoms):
    phi = from_catalog(name, d, 2 * N, atoms=atoms)
    gb = build_gradation(phi, N)
    monos = [m for k in range(N + 1) for m in enumerate_level(d, k)]
    h = [[phi.values[tuple(x + y for x, y in zip(a, b))] for b in monos] for a in monos]
    rows = []
    for n in range(N + 1):
        lvl = gb.level(n)
        for row, m in zip(lvl.coeffs, lvl.indices):
            padded = list(row) + [0] * (len(monos) - len(row))
            # monic on level n, and nothing above degree n
            for col, mono in enumerate(monos):
                if sum(mono) == n:
                    assert padded[col] == (1 if mono == m else 0)
                elif sum(mono) > n:
                    assert padded[col] == 0
            rows.append(padded)
    hp = [[sum(h[a][b] * q[b] for b in range(len(monos))) for a in range(len(monos))]
          for q in rows]
    form = [[sum(p[a] * hq[a] for a in range(len(monos))) for hq in hp] for p in rows]
    diag = [[0] * len(rows) for _ in rows]
    offset = 0
    for n in range(N + 1):
        g = gb.level(n).gram
        for i, grow in enumerate(g):
            for k, x in enumerate(grow):
                diag[offset + i][offset + k] = x
        offset += len(g)
    assert form == diag


# ---------------------------------------------------- float Gram symmetry

def _gaussian_cloud(seed, count=40):
    rng = random.Random(f"samples-{seed}")
    return [[rng.gauss(0.0, 1.0) for _ in range(2)] for _ in range(count)]


@pytest.mark.parametrize("source,N", [
    (lambda: from_catalog("gaussian_product", 2, 21, backend="float"), 10),
    (lambda: from_samples(_gaussian_cloud(0), 12, backend="float"), 6),
], ids=["gaussian_product-d2-N10", "cloud-seed0-N6"])
def test_float_grams_are_exactly_symmetric(source, N):
    gb = build_gradation(source(), N)
    for lvl in gb.levels:
        g = lvl.gram
        assert all(g[i][k] == g[k][i] for i in range(len(g)) for k in range(len(g)))
