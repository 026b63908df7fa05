from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import given, strategies as st

from favard.mindex import (
    LevelBasis,
    creation_shift,
    enumerate_level,
    index_position,
    level_dimension,
    multi_factorial,
    shift_index,
    tensor_metric,
)


def test_level_dimension_examples():
    assert level_dimension(1, 5) == 1
    assert level_dimension(2, 3) == 4
    assert level_dimension(3, 2) == 6
    assert level_dimension(4, 0) == 1


@given(st.integers(1, 5), st.integers(0, 7))
def test_level_dimension_matches_enumeration(d, n):
    assert level_dimension(d, n) == comb(n + d - 1, d - 1)
    assert len(enumerate_level(d, n)) == level_dimension(d, n)


def test_enumeration_order():
    assert enumerate_level(2, 2) == ((2, 0), (1, 1), (0, 2))
    assert enumerate_level(3, 1) == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert enumerate_level(1, 4) == ((4,),)
    assert enumerate_level(3, 0) == ((0, 0, 0),)


@given(st.integers(1, 4), st.integers(0, 6))
def test_enumeration_properties(d, n):
    idx = enumerate_level(d, n)
    assert len(set(idx)) == len(idx)
    for m in idx:
        assert len(m) == d
        assert all(c >= 0 for c in m)
        assert sum(m) == n
    # graded-lex, descending first coordinate
    assert list(idx) == sorted(idx, reverse=True)


@given(st.integers(1, 4), st.integers(0, 6))
def test_index_position_inverts(d, n):
    pos = index_position(d, n)
    for i, m in enumerate(enumerate_level(d, n)):
        assert pos[m] == i


def test_multi_factorial():
    assert multi_factorial((3, 0, 2)) == 12
    assert multi_factorial((0,)) == 1
    assert multi_factorial((1, 1, 1)) == 1


def test_tensor_metric_values():
    t = tensor_metric(2, 2)
    assert t.metric_diag == (Fraction(1), Fraction(1, 2), Fraction(1))
    t3 = tensor_metric(3, 3)
    for m, w in zip(t3.indices, t3.metric_diag):
        assert w == Fraction(multi_factorial(m), factorial(3))


@given(st.integers(1, 4), st.integers(0, 6))
def test_tensor_metric_range(d, n):
    for w in tensor_metric(d, n).metric_diag:
        assert 0 < w <= 1
        assert isinstance(w, Fraction)


def test_level_basis_metric_matrix():
    m = tensor_metric(2, 2).metric_matrix()
    assert m[0][0] == 1 and m[1][1] == Fraction(1, 2) and m[2][2] == 1
    assert m[0][1] == 0


def test_creation_shift_columns():
    s = creation_shift(2, 1, 1)  # level 1 -> 2, add e_1
    src = enumerate_level(2, 1)
    dst = enumerate_level(2, 2)
    for col, m in enumerate(src):
        target = (m[0] + 1, m[1])
        for row, mm in enumerate(dst):
            assert s[row][col] == (1 if mm == target else 0)


@given(st.integers(1, 3), st.integers(0, 4), st.data())
def test_creation_shifts_commute(d, n, data):
    j = data.draw(st.integers(1, d))
    k = data.draw(st.integers(1, d))
    a = [[sum(x * y for x, y in zip(r, c)) for c in zip(*creation_shift(d, n, k))]
         for r in creation_shift(d, n + 1, j)]
    b = [[sum(x * y for x, y in zip(r, c)) for c in zip(*creation_shift(d, n, j))]
         for r in creation_shift(d, n + 1, k)]
    assert a == b


@given(st.integers(1, 4), st.integers(0, 5), st.data())
def test_shift_index_is_the_index_shift_in_ascending_order(d, n, data):
    j = data.draw(st.integers(1, d))
    table = shift_index(d, n, j)
    up = enumerate_level(d, n + 1)
    assert len(table) == level_dimension(d, n)
    for c, m in enumerate(enumerate_level(d, n)):
        assert up[table[c]] == tuple(k + (i == j) for i, k in enumerate(m, start=1))
    # ascending positions make every gathered sum add the dense product's terms in order
    assert all(a < b for a, b in zip(table, table[1:]))


def test_shift_index_rejects_bad_coordinates():
    for j in (0, 3):
        with pytest.raises(ValueError):
            shift_index(2, 1, j)


def test_invalid_arguments():
    with pytest.raises(ValueError):
        enumerate_level(0, 1)
    with pytest.raises(ValueError):
        creation_shift(2, 1, 3)
    with pytest.raises(ValueError):
        creation_shift(2, 1, 0)
