import itertools
from fractions import Fraction
from math import factorial

import pytest

from favard.cap import extract_cap
from favard.errors import (
    AdjointInconsistencyError,
    FavardConditionError,
    WordLengthError,
)
from favard.fock import build_fock, moment_of_word, roundtrip_report, vacuum_moments
from favard.gradation import build_gradation
from favard.jacobi import JacobiSequence, extract_jacobi
from favard.mindex import enumerate_level
from favard.moments import from_catalog


def _fock(name, d, N, **kw):
    phi = from_catalog(name, d, 2 * N + 1, **kw)
    gb = build_gradation(phi, N)
    js = extract_jacobi(gb, extract_cap(gb))
    fock, ops = build_fock(js)
    return phi, js, fock, ops


def test_gaussian_annihilators_are_number_ladders():
    phi, js, fock, ops = _fock("gaussian_product", 1, 5)
    for n in range(1, 6):
        assert ops.aminus[1][n] == [[Fraction(n)]]


def test_vacuum_is_normalized():
    phi, js, fock, ops = _fock("uniform_box", 2, 2)
    v = fock.vacuum()
    assert v == {0: [Fraction(1)]}
    assert moment_of_word(fock, ops, ()) == 1


def test_exponential_second_moment_splits():
    # m_2 = alpha_0^2 + |a+ vacuum|^2 = 1 + 1 = 2
    phi, js, fock, ops = _fock("exponential_product", 1, 3)
    assert moment_of_word(fock, ops, (1,)) == 1
    assert moment_of_word(fock, ops, (1, 1)) == 2
    a0 = js.alpha[1][0][0][0]
    up_norm_sq = js.gomega[1][0][0]
    assert a0 * a0 + up_norm_sq == 2


def test_gaussian_word_moments():
    phi, js, fock, ops = _fock("gaussian_product", 1, 4)
    assert moment_of_word(fock, ops, (1, 1)) == 1
    assert moment_of_word(fock, ops, (1, 1, 1)) == 0
    assert moment_of_word(fock, ops, (1, 1, 1, 1)) == 3
    assert moment_of_word(fock, ops, (1,) * 8) == 105


def test_full_odd_word_length_supported():
    phi, js, fock, ops = _fock("exponential_product", 1, 2)
    assert js.max_word_length() == 5
    assert moment_of_word(fock, ops, (1,) * 5) == factorial(5)
    with pytest.raises(WordLengthError):
        moment_of_word(fock, ops, (1,) * 6)


def test_word_length_limit_without_top_alpha():
    phi, js, fock, ops = _fock("exponential_product", 1, 2)
    trimmed = JacobiSequence(d=1, N=2, backend="exact",
                             gomega=js.gomega, alpha={1: js.alpha[1][:2]})
    fock2, ops2 = build_fock(trimmed)
    assert moment_of_word(fock2, ops2, (1,) * 4) == factorial(4)
    with pytest.raises(WordLengthError):
        moment_of_word(fock2, ops2, (1,) * 5)


def test_bad_coordinates_rejected():
    phi, js, fock, ops = _fock("gaussian_product", 2, 2)
    with pytest.raises(ValueError):
        moment_of_word(fock, ops, (0,))
    with pytest.raises(ValueError):
        moment_of_word(fock, ops, (3,))


def test_mixed_words_are_order_independent():
    for name in ("gaussian_product", "exponential_product"):
        phi, js, fock, ops = _fock(name, 2, 3)
        for word in [(1, 2), (1, 1, 2), (1, 2, 1, 2), (2, 2, 1, 1, 2)]:
            vals = {moment_of_word(fock, ops, p)
                    for p in set(itertools.permutations(word))}
            assert len(vals) == 1


def test_mixed_words_match_moments():
    phi, js, fock, ops = _fock("circle_uniform", 2, 4)
    for word, m in [((1, 1), (2, 0)), ((1, 2, 1, 2), (2, 2)), ((2,) * 4, (0, 4))]:
        assert moment_of_word(fock, ops, word) == phi.moment(m)


def test_degenerate_words_stay_exact():
    phi, js, fock, ops = _fock("rademacher_product", 1, 4)
    for k in range(9):
        expect = 1 if k % 2 == 0 else 0
        assert moment_of_word(fock, ops, (1,) * k) == expect


def _ascending_word(m):
    return [j for j, count in enumerate(m, start=1) for _ in range(count)]


def _assert_walk_matches_words(js, fock, ops):
    top = js.max_word_length()
    walked = vacuum_moments(fock, ops, top)
    expected = {m: moment_of_word(fock, ops, _ascending_word(m))
                for n in range(top + 1) for m in enumerate_level(js.d, n)}
    assert walked == expected
    return walked


@pytest.mark.parametrize("backend", ["exact", "float"])
@pytest.mark.parametrize("name,d,N", [
    ("gaussian_product", 2, 3), ("circle_uniform", 2, 4),
    ("uniform_box", 3, 2), ("exponential_product", 1, 6),
    ("rademacher_product", 2, 2),
])
def test_one_pass_moments_equal_ascending_words(name, d, N, backend):
    phi, js, fock, ops = _fock(name, d, N, backend=backend)
    _assert_walk_matches_words(js, fock, ops)


def _noncommuting_sequence():
    # admissible, but X_1 and X_2 do not commute: alpha_{1,1} swaps the two
    # level-1 directions while alpha_{2,1} weighs only the first
    zero, one = Fraction(0), Fraction(1)
    return JacobiSequence(
        d=2, N=1, backend="exact",
        gomega=[[[one]], [[one, zero], [zero, one]]],
        alpha={1: [[[zero]], [[zero, one], [one, zero]]],
               2: [[[zero]], [[Fraction(5), zero], [zero, zero]]]},
    )


def test_one_pass_moments_follow_the_ascending_word_order():
    js = _noncommuting_sequence()
    fock, ops = build_fock(js)
    assert moment_of_word(fock, ops, (1, 1, 2)) == 1
    assert moment_of_word(fock, ops, (1, 2, 1)) == 5
    walked = _assert_walk_matches_words(js, fock, ops)
    assert walked[(2, 1)] == 1


def test_one_pass_moments_respect_the_word_length_limit():
    phi, js, fock, ops = _fock("exponential_product", 1, 2)
    with pytest.raises(WordLengthError):
        vacuum_moments(fock, ops, js.max_word_length() + 1)


# --------------------------------------------------------------- roundtrip

def test_roundtrip_reports_pass_exact():
    for name, d, N in [("gaussian_product", 2, 3), ("uniform_box", 3, 2),
                       ("circle_uniform", 2, 4), ("rademacher_product", 2, 2)]:
        phi = from_catalog(name, d, 2 * N + 1)
        rep = roundtrip_report(phi, N)
        assert rep.ok, "{}: {}".format(name, rep.summary())
        for c in rep.checks:
            assert c.deviation == 0


def test_roundtrip_float_backend_close():
    phi_exact = from_catalog("uniform_box", 2, 7)
    vals = {m: float(v) for m, v in phi_exact.values.items()}
    from favard.moments import MomentFunctional
    phi = MomentFunctional(2, 7, vals, backend="float")
    rep = roundtrip_report(phi, 3)
    assert rep.ok, rep.summary()
    worst = max(c.deviation for c in rep.checks)
    assert worst <= 1e-9


# ------------------------------------------------------------- refusals

def _violating_sequence():
    # rank dies at level 1 and revives at level 2
    return JacobiSequence(
        d=1, N=2, backend="exact",
        gomega=[[[Fraction(1)]], [[Fraction(0)]], [[Fraction(1)]]],
        alpha={1: [[[Fraction(0)]], [[Fraction(0)]], [[Fraction(0)]]]},
    )


def test_incompatible_sequence_is_rejected_with_adjoint_diagnostic():
    with pytest.raises(AdjointInconsistencyError) as exc:
        build_fock(_violating_sequence())
    msg = str(exc.value)
    assert "annihilat" in msg or "adjoint" in msg
    assert "2" in msg  # names the offending level


def test_repaired_sequence_is_accepted():
    js = _violating_sequence()
    js.gomega[2] = [[Fraction(0)]]
    fock, ops = build_fock(js)
    assert moment_of_word(fock, ops, (1, 1)) == 0


def test_indefinite_gomega_refused():
    js = JacobiSequence(
        d=1, N=1, backend="exact",
        gomega=[[[Fraction(1)]], [[Fraction(-1)]]],
        alpha={1: [[[Fraction(0)]], [[Fraction(0)]]]},
    )
    with pytest.raises(FavardConditionError):
        build_fock(js)


def test_asymmetric_alpha_refused():
    js = JacobiSequence(
        d=2, N=1, backend="exact",
        gomega=[[[Fraction(1)]],
                [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]],
        alpha={1: [[[Fraction(0)]],
                   [[Fraction(0), Fraction(1)], [Fraction(0), Fraction(0)]]],
               2: [[[Fraction(0)]],
                   [[Fraction(0), Fraction(0)], [Fraction(0), Fraction(0)]]]},
    )
    with pytest.raises(FavardConditionError):
        build_fock(js)
