from dataclasses import fields
from fractions import Fraction
from math import factorial

import pytest

from favard.cap import (
    extract_cap,
    verify_adjointness,
    verify_commutators,
    verify_jacobi_relation,
)
from favard.gradation import GradedBasis, build_gradation, kernel_basis
from favard.linalg import mat_vec, rank
from favard.mindex import level_dimension
from favard.moments import from_catalog


def _pipeline(name, d, N, **kw):
    phi = from_catalog(name, d, 2 * N + 1, **kw)
    gb = build_gradation(phi, N)
    return phi, gb, extract_cap(gb)


def test_gaussian_1d_operator_blocks():
    phi, gb, cap = _pipeline("gaussian_product", 1, 6)
    for n in range(6):
        assert cap.aplus[1][n] == [[Fraction(1)]]
    for n in range(7):
        assert cap.azero[1][n] == [[Fraction(0)]]
    for n in range(1, 7):
        assert cap.aminus[1][n] == [[Fraction(n)]]
    assert cap.aminus[1][0] == []


def test_exponential_1d_operator_blocks():
    phi, gb, cap = _pipeline("exponential_product", 1, 4)
    assert cap.azero[1][0] == [[Fraction(1)]]
    assert cap.azero[1][1] == [[Fraction(3)]]
    for n in range(5):
        assert cap.azero[1][n] == [[Fraction(2 * n + 1)]]
    for n in range(1, 5):
        assert cap.aminus[1][n] == [[Fraction(n * n)]]


def test_symmetric_measures_have_zero_preservation_part():
    for name, d in [("gaussian_product", 2), ("uniform_box", 2), ("rademacher_product", 1)]:
        phi, gb, cap = _pipeline(name, d, 3)
        for j in range(1, d + 1):
            for n in range(cap.alpha_levels + 1):
                assert all(x == 0 for row in cap.azero[j][n] for x in row)


def test_adjointness_identities():
    for name, d, N in [("gaussian_product", 2, 4), ("uniform_box", 2, 3),
                       ("exponential_product", 3, 2), ("circle_uniform", 2, 4)]:
        phi, gb, cap = _pipeline(name, d, N)
        rep = verify_adjointness(cap, gb)
        assert rep.ok, rep.summary()


def test_gaussian_creation_matrix_elements():
    # <p_{n+1,(n+1,0)}, a+_1 p_{n,(n,0)}> accumulates to (n+1)! for d=1
    phi, gb, cap = _pipeline("gaussian_product", 1, 5)
    for n in range(5):
        g = gb.level(n + 1).gram
        col = [row[0] for row in cap.aplus[1][n]]
        val = sum(g[0][i] * col[i] for i in range(len(col)))
        assert val == factorial(n + 1)


def test_jacobi_relation_residual_vanishes():
    for name, d, N in [("gaussian_product", 2, 4), ("exponential_product", 2, 3),
                       ("circle_uniform", 2, 4), ("rademacher_product", 1, 4)]:
        phi, gb, cap = _pipeline(name, d, N)
        rep = verify_jacobi_relation(cap, gb)
        assert rep.ok, rep.summary()


def test_corrupted_preservation_block_fails_jacobi_relation():
    phi, gb, cap = _pipeline("exponential_product", 1, 3)
    cap.azero[1][0] = [[Fraction(0)]]  # lie about the mean
    rep = verify_jacobi_relation(cap, gb)
    assert not rep.ok
    assert "level 0" in rep.first_failure().label


def test_commutator_identities():
    for name, d, N in [("gaussian_product", 2, 4), ("gaussian_product", 3, 3),
                       ("exponential_product", 2, 3), ("uniform_box", 3, 2)]:
        phi, gb, cap = _pipeline(name, d, N)
        rep = verify_commutators(cap)
        assert rep.ok, rep.summary()


def test_gaussian_mixed_commutator_at_vacuum():
    # [a-_j, a+_k] acts on the vacuum as delta_jk for a standard gaussian
    phi, gb, cap = _pipeline("gaussian_product", 2, 3)
    for j in (1, 2):
        for k in (1, 2):
            up = [row[0] for row in cap.aplus[k][0]]
            val = mat_vec(cap.aminus[j][1], up)[0]
            assert val == (1 if j == k else 0)


def test_creation_range_spans_next_level():
    for name, d, N in [("gaussian_product", 2, 3), ("exponential_product", 2, 3)]:
        phi, gb, cap = _pipeline(name, d, N)
        for n in range(N):
            cols = []
            for j in range(1, d + 1):
                for c in range(level_dimension(d, n)):
                    cols.append([row[c] for row in cap.aplus[j][n]])
            stacked = [list(col) for col in zip(*cols)]
            assert rank(stacked, "exact") == level_dimension(d, n + 1)


def test_circle_creation_range_spans_complement_of_kernel():
    phi, gb, cap = _pipeline("circle_uniform", 2, 4)
    for n in (2, 3):
        cols = []
        for j in (1, 2):
            for c in range(level_dimension(2, n)):
                cols.append([row[c] for row in cap.aplus[j][n]])
        for v in kernel_basis(gb, n + 1):
            cols.append(list(v))
        stacked = [list(col) for col in zip(*cols)]
        assert rank(stacked, "exact") == level_dimension(2, n + 1)


def test_operators_preserve_kernels():
    phi, gb, cap = _pipeline("circle_uniform", 2, 4)
    g3 = gb.level(3).gram
    g2 = gb.level(2).gram
    for v in kernel_basis(gb, 2):
        for j in (1, 2):
            up = mat_vec(cap.aplus[j][2], v)
            assert all(x == 0 for x in mat_vec(g3, up))
            keep = mat_vec(cap.azero[j][2], v)
            assert all(x == 0 for x in mat_vec(g2, keep))


def test_rank_zero_levels_act_as_zero():
    phi, gb, cap = _pipeline("rademacher_product", 1, 4)
    for n in (2, 3):
        g_next = gb.level(n + 1).gram
        v = [Fraction(1)]
        up = mat_vec(cap.aplus[1][n], v)
        assert all(x == 0 for x in mat_vec(g_next, up))


def test_field_operator_linear_in_direction():
    # the direction-v field block is the v-weighted sum of coordinate blocks
    phi, gb, cap = _pipeline("gaussian_product", 2, 3)
    v = [Fraction(2), Fraction(-3)]
    for n in range(3):
        combo = [
            [v[0] * a + v[1] * b for a, b in zip(ra, rb)]
            for ra, rb in zip(cap.aplus[1][n], cap.aplus[2][n])
        ]
        dim = level_dimension(2, n)
        for c in range(dim):
            col = [row[c] for row in combo]
            expect = [v[0] * row[c] for row in cap.aplus[1][n]]
            expect = [e + v[1] * row[c] for e, row in zip(expect, cap.aplus[2][n])]
            assert col == expect


def test_alpha_levels_budget_logic():
    # odd budget 2N+1 extends the preservation family to level N
    phi = from_catalog("gaussian_product", 1, 7)
    gb = build_gradation(phi, 3)
    assert extract_cap(gb).alpha_levels == 3
    phi = from_catalog("gaussian_product", 1, 6)
    gb = build_gradation(phi, 3)
    assert extract_cap(gb).alpha_levels == 2


def test_blocks_exist_once():
    phi, gb, cap = _pipeline("gaussian_product", 2, 3)
    assert extract_cap(gb).aplus is extract_cap(gb).aplus
    assert extract_cap(gb) is cap
    declared = {f.name for f in fields(GradedBasis)}
    assert not declared & {"aplus", "azero", "aminus", "alpha_levels"}
