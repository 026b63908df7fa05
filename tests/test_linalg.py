import re
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import favard.linalg
import favard.moments
from favard.cap import CapOperators
from favard.errors import InconsistentSystemError
from favard.fock import vacuum_moments
from favard.jacobi import JacobiSequence
from favard.linalg import (
    DEFAULT_TOL,
    mat_mul,
    mat_vec,
    nullspace,
    psd_floor,
    rank,
    rref,
    solve_min_norm,
    transpose,
)

frac = st.fractions(max_denominator=8)


def matrices(rows, cols):
    return st.lists(
        st.lists(frac, min_size=cols, max_size=cols), min_size=rows, max_size=rows
    )


@given(st.integers(1, 4), st.integers(1, 4), st.data())
@settings(max_examples=60)
def test_rref_reproduces_row_space(r, c, data):
    a = data.draw(matrices(r, c))
    red, pivots = rref(a)
    assert len(pivots) == rank(a, "exact")
    for j, p in enumerate(pivots):
        assert red[j][p] == 1
        for i in range(len(red)):
            if i != j:
                assert red[i][p] == 0


@given(st.integers(1, 4), st.integers(1, 4), st.data())
@settings(max_examples=60)
def test_nullspace_annihilated(r, c, data):
    a = data.draw(matrices(r, c))
    basis = nullspace(a, "exact")
    assert len(basis) == c - rank(a, "exact")
    for v in basis:
        assert all(x == 0 for x in mat_vec(a, v))


@given(st.integers(1, 4), st.integers(1, 4), st.data())
@settings(max_examples=60)
def test_min_norm_solution_exact(r, c, data):
    a = data.draw(matrices(r, c))
    x_true = data.draw(st.lists(frac, min_size=c, max_size=c))
    b = mat_vec(a, x_true)
    (x,) = solve_min_norm(a, [b], "exact")
    assert mat_vec(a, x) == b
    # least-norm solution is orthogonal to the kernel
    for v in nullspace(a, "exact"):
        assert sum(p * q for p, q in zip(x, v)) == 0


def test_full_rank_exact_solve_eliminates_once(monkeypatch):
    calls = []

    def counted(a):
        calls.append(a)
        return rref(a)

    monkeypatch.setattr(favard.linalg, "rref", counted)
    a = [[Fraction(2), Fraction(1)], [Fraction(1), Fraction(3)]]
    x = solve_min_norm(a, [[Fraction(1), Fraction(0)]], "exact")
    assert mat_vec(a, x[0]) == [1, 0]
    assert len(calls) == 1


def test_inconsistent_system_detected():
    a = [[Fraction(1), Fraction(0)], [Fraction(1), Fraction(0)]]
    b = [Fraction(1), Fraction(2)]
    with pytest.raises(InconsistentSystemError):
        solve_min_norm(a, [b], "exact")
    af = [[1.0, 0.0], [1.0, 0.0]]
    with pytest.raises(InconsistentSystemError):
        solve_min_norm(af, [[1.0, 2.0]], "float")


def test_min_norm_float_matches_exact():
    a = [[Fraction(1), Fraction(1), Fraction(0)], [Fraction(0), Fraction(1), Fraction(1)]]
    b = [Fraction(1), Fraction(2)]
    (xe,) = solve_min_norm(a, [b], "exact")
    af = [[float(v) for v in row] for row in a]
    (xf,) = solve_min_norm(af, [[1.0, 2.0]], "float")
    assert max(abs(float(p) - q) for p, q in zip(xe, xf)) < 1e-12


def test_psd_floor():
    g = [[Fraction(1, 8), 0, Fraction(-1, 8)], [0, Fraction(1, 8), 0],
         [Fraction(-1, 8), 0, Fraction(1, 8)]]
    ok, _ = psd_floor(g, "exact")
    assert ok
    bad = [[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]]
    ok, witness = psd_floor(bad, "exact")
    assert not ok
    assert witness == 0  # failing pivot index
    ok2, w2 = psd_floor([[Fraction(1), Fraction(0)], [Fraction(0), Fraction(-2)]], "exact")
    assert not ok2 and w2 == 1
    okf, mineig = psd_floor([[1.0, 2.0], [2.0, 1.0]], "float")
    assert not okf and mineig < -DEFAULT_TOL


def test_float_nullspace_threshold():
    a = np.array([[1.0, 0.0], [0.0, 1e-14]])
    basis = nullspace([list(r) for r in a], "float")
    assert len(basis) == 1
    assert abs(basis[0][1]) > 0.9
    assert rank([list(r) for r in a], "float") == 1


def test_matrix_helpers():
    a = [[Fraction(1), Fraction(2)], [Fraction(3), Fraction(4)]]
    assert transpose(a) == [[1, 3], [2, 4]]
    assert mat_mul(a, [[1, 0], [0, 1]]) == a
    assert mat_vec(a, [Fraction(1), Fraction(1)]) == [3, 7]


# ------------------------------------------------------ zero-skipping kernel


def _dense_dot(u, v):
    """Sum of every product u[k] * v[k], zero factors included."""
    return sum((u[k] * v[k] for k in range(len(v))), 0)


def _bits(x):
    return float(x).hex()


# mostly zeros, so zero rows and columns are common; the tiny floats make
# products that underflow to -0.0
exact_entries = st.one_of(st.just(0), st.just(0), st.integers(-3, 3), frac)
float_entries = st.one_of(
    st.just(0.0), st.just(-0.0), st.sampled_from([1e-200, -1e-200]),
    st.floats(-1e3, 1e3, allow_subnormal=False),
)


def _sparse(entries, rows, cols):
    return st.lists(st.lists(entries, min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows)


@given(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4),
       st.sampled_from(["exact", "float"]), st.data())
@settings(max_examples=150)
def test_kernels_equal_the_dense_sum(r, k, c, backend, data):
    entries = exact_entries if backend == "exact" else float_entries
    a = data.draw(_sparse(entries, r, k))
    b = data.draw(_sparse(entries, k, c))
    v = data.draw(st.lists(entries, min_size=k, max_size=k))
    want = [[_dense_dot(row, col) for col in zip(*b)] for row in a] if k else [[]] * r
    got = mat_mul(a, b)
    assert got == want
    want_v = [_dense_dot(row, v) for row in a]
    got_v = mat_vec(a, v)
    assert got_v == want_v
    if backend == "float":
        assert [[_bits(x) for x in row] for row in got] == [[_bits(x) for x in row] for row in want]
        assert [_bits(x) for x in got_v] == [_bits(x) for x in want_v]


def test_kernels_on_zero_rows_columns_and_signed_zeros():
    a = [[0, Fraction(1, 2), 0], [0, 0, 0], [3, 0, Fraction(-1, 3)]]
    b = [[0, 2], [0, 0], [Fraction(3), 0]]
    assert mat_mul(a, b) == [[0, 0], [0, 0], [-1, 6]]
    assert mat_vec(a, [1, 4, Fraction(3)]) == [2, 0, 2]
    af = [[-0.0, 1e-200], [0.0, 0.0]]
    got = mat_vec(af, [5.0, -1e-200])
    assert [_bits(x) for x in got] == [_bits(0.0), _bits(0.0)]
    assert mat_mul([[1.0, 2.0]], [[], []]) == [[]]
    assert mat_mul([[], []], []) == [[], []]
    assert mat_vec([[], []], []) == [0, 0]
    assert mat_mul([], [[1]]) == [] and mat_vec([], [1]) == []


@pytest.mark.parametrize("build", [
    lambda b: favard.linalg.within(Fraction(1, 10**12), b, 1e-10),
    lambda b: solve_min_norm([[1]], [], b),
    lambda b: favard.moments.MomentFunctional(d=1, max_degree=0, values={(0,): 1}, backend=b),
    lambda b: favard.moments.from_catalog("gaussian_product", 1, 2, backend=b),
    lambda b: JacobiSequence(d=1, N=0, backend=b, gomega=[[[1]]], alpha={1: [[[0]]]}),
    lambda b: vacuum_moments(CapOperators(d=1, N=0, backend=b, tol=DEFAULT_TOL, alpha_levels=0,
                                          grams=[[[1]]], azero={1: [[[0]]]}), 0),
], ids=["within", "solve_min_norm", "MomentFunctional", "from_catalog", "JacobiSequence",
        "vacuum_moments"])
def test_every_backend_name_is_checked_by_one_lookup(build):
    for backend in ("exacct", "Float", "decimal", None):
        with pytest.raises(ValueError, match=r"^backend must be 'exact' or 'float', got "):
            build(backend)


def test_scalar_families_are_found_by_name():
    assert favard.linalg.scalars("exact") is favard.linalg.EXACT
    assert favard.linalg.scalars("float") is favard.linalg.FLOAT
    assert favard.linalg.EXACT.zero == 0 and isinstance(favard.linalg.EXACT.cast(1), Fraction)
    assert isinstance(favard.linalg.FLOAT.zero, float) and favard.linalg.FLOAT.cast(1) == 1.0
    # the benchmark tracer wraps every callable in __all__ as a function
    assert not [n for n in favard.linalg.__all__ if isinstance(getattr(favard.linalg, n), type)]


def test_no_module_compares_a_backend_name_literal():
    # the exact/float decision lives in the scalar families alone
    pattern = re.compile(r'(==|!=) *"(exact|float)"')
    src = Path(favard.linalg.__file__).parent
    hits = [f"{path.name}:{no}: {line.strip()}"
            for path in sorted(src.glob("*.py"))
            for no, line in enumerate(path.read_text().splitlines(), start=1)
            if pattern.search(line)]
    assert hits == []
