"""Symmetric interacting Fock space built from a Jacobi sequence.

The space is the graded sum of symmetric tensor powers of R^d carrying the
level metrics Gomega_n; the vacuum spans level 0.  Field operators per
coordinate j:

    creation      S_{j,n}      : the index shift m -> m + e_j, a scatter by
        the position table mindex.shift_index; no matrix is formed
    preservation  alpha[j][n]  : copied from the Jacobi data
    annihilation  Aminus[j][n] : the Gomega-weighted adjoint of creation,
        cap.annihilator, the same solve the forward direction uses:
        Gomega_{n-1} Aminus[j][n] = S_{j,n-1}^T Gomega_n, minimum-norm
        column by column, with Aminus[j][0] = 0 on the vacuum.

The adjoint system is consistent exactly when kernel vectors of Gomega_n
lift into kernels one level up (the compatibility Favard condition); a
violating sequence is rejected with AdjointInconsistencyError because the
creator then has no adjoint.  build_fock is the admissibility gate in front
of the construction; callers that already hold a favard-conditions report
for the sequence (analyze, verify of a Jacobi file) build without it.

The coordinate field operator X_j = S_j + alpha_j + Aminus_j applied to
the vacuum reproduces the source moments: vacuum expectations of words in
the field operators equal the moments of the corresponding monomials.
The moment of m is the vacuum expectation of its ascending word
1^m_1 ... d^m_d (rightmost letter first); any order agrees on extracted
data, but build_fock does not check that hand-built operators commute.
vacuum_moments, behind reconstruct and the round trip, shares word suffixes
in one walk: one field step per monomial.
"""

from dataclasses import dataclass

from . import linalg
from .cap import annihilator, extract_cap
from .errors import FavardConditionError, WordLengthError
from .gradation import build_gradation
from .jacobi import JacobiSequence, extract_jacobi, verify_favard_conditions
from .mindex import enumerate_level, shift_index
from .reports import Report

__all__ = [
    "FockSpace", "FieldOperators", "build_fock", "moment_of_word", "vacuum_moments",
    "roundtrip_report",
]


@dataclass
class FockSpace:
    """Graded pre-Hilbert space: levels 0..N with metrics Gomega_n."""

    d: int
    N: int
    backend: str
    gomega: list
    tol: float

    def vacuum(self):
        return {0: [linalg.scalars(self.backend).cast(1)]}


@dataclass
class FieldOperators:
    """Preservation and annihilation blocks per coordinate; creation is mindex.shift_index."""

    d: int
    N: int
    alpha: dict
    aminus: dict
    alpha_levels: int


def build_fock(js: JacobiSequence, tol=None):
    """(FockSpace, FieldOperators) for an admissible Jacobi sequence.

    Refuses inadmissible data: non-PSD or asymmetric metrics and asymmetric
    alphas raise FavardConditionError; a compatibility violation surfaces
    as AdjointInconsistencyError from the annihilator solve.
    """
    tol = js.tol if tol is None else tol
    for c in verify_favard_conditions(js, tol).checks:
        if not (c.ok or c.label.startswith("kernel lift")):
            raise FavardConditionError(f"inadmissible Jacobi data: {c.label}")
    return _assemble_fock(js, tol)


def _assemble_fock(js: JacobiSequence, tol):
    """build_fock without the admissibility gate."""
    aminus = {  # nothing below the vacuum
        j: [[]] + [annihilator(js.gomega, js.d, j, n, js.backend, tol) for n in range(1, js.N + 1)]
        for j in range(1, js.d + 1)
    }
    fock = FockSpace(d=js.d, N=js.N, backend=js.backend, gomega=js.gomega, tol=tol)
    return fock, FieldOperators(js.d, js.N, js.alpha, aminus, js.alpha_levels)


def _check_word_length(ops: FieldOperators, k: int) -> None:
    limit = 2 * ops.N + (1 if ops.alpha_levels >= ops.N else 0)
    if k > limit:
        raise WordLengthError(
            f"word of length {k} exceeds the supported maximum {limit} for N={ops.N}"
        )


def _field_step(ops: FieldOperators, j: int, state: dict, reach: int) -> dict:
    """X_j on a graded state; a level above reach, the letters left to act, is never formed."""
    new = {}

    def _add(level, vec, at=None):  # at: the positions of vec's entries in the level
        out = new.setdefault(level, [0] * len(enumerate_level(ops.d, level)))
        for i, x in zip(at or range(len(out)), vec):
            out[i] += x

    for lvl, vec in state.items():
        if lvl < ops.N and lvl < reach:  # creation: entry m goes to m + e_j
            _add(lvl + 1, vec, shift_index(ops.d, lvl, j))
        if lvl <= ops.alpha_levels and lvl <= reach:
            _add(lvl, linalg.mat_vec(ops.alpha[j][lvl], vec))
        if 1 <= lvl <= reach + 1:
            _add(lvl - 1, linalg.mat_vec(ops.aminus[j][lvl], vec))
    return new


def _vacuum_expectation(fock: FockSpace, state: dict):
    bottom = state.get(0)
    if bottom is None:
        return linalg.scalars(fock.backend).zero
    return fock.gomega[0][0][0] * bottom[0]


def moment_of_word(fock: FockSpace, ops: FieldOperators, word) -> object:
    """Vacuum expectation of the product of field operators along the word.

    word lists 1-based coordinates; the rightmost letter acts first.  Words
    up to length 2N are supported, plus 2N+1 when the top-level alpha is
    present.  Paths are pruned to levels reachable and returnable within
    the word length, which never exceeds floor(len/2).
    """
    word = list(word)
    for j in word:
        if not 1 <= j <= fock.d:
            raise ValueError(f"coordinate {j} out of range 1..{fock.d}")
    _check_word_length(ops, len(word))
    state = fock.vacuum()
    for step, j in enumerate(reversed(word), start=1):
        state = _field_step(ops, j, state, len(word) - step)
    return _vacuum_expectation(fock, state)


def vacuum_moments(fock: FockSpace, ops: FieldOperators, top: int) -> dict:
    """Ascending-word vacuum moment of every monomial of degree <= top.

    With j the smallest coordinate used by m, the state of m is X_j applied
    to the state of m - e_j.  The walk is depth first; its stack holds at
    most d states per degree, never a table of all states.
    """
    _check_word_length(ops, top)
    moments = {}
    stack = [((0,) * fock.d, fock.vacuum(), fock.d)]  # (m, its state, largest next letter)
    while stack:
        m, state, last = stack.pop()
        moments[m] = _vacuum_expectation(fock, state)
        reach = top - sum(m) - 1
        if reach < 0:
            continue
        for j in range(1, last + 1):
            child = m[: j - 1] + (m[j - 1] + 1,) + m[j:]
            stack.append((child, _field_step(ops, j, state, reach), j))
    return moments


def roundtrip_report(phi, N, tol=linalg.DEFAULT_TOL) -> Report:
    """Decompose phi to Jacobi data, rebuild the Fock space, compare moments.

    Every monomial moment of degree <= min(2N or 2N+1, budget) must be
    reproduced by the corresponding vacuum word: exactly on the exact
    backend, within tol on the float backend.
    """
    gb = build_gradation(phi, N, tol)
    js = extract_jacobi(gb, extract_cap(gb))
    return _moment_report(phi, js, *build_fock(js, tol))


def _moment_report(phi, js: JacobiSequence, fock: FockSpace, ops: FieldOperators) -> Report:
    """Compare the vacuum moments of the Fock space built from js with phi."""
    top = min(js.max_word_length(), phi.max_degree)
    rebuilt = vacuum_moments(fock, ops, top)
    report = Report(name=f"moment roundtrip to degree {top}")
    for degree in range(top + 1):
        worst = 0
        for m in enumerate_level(phi.d, degree):
            dev = abs(rebuilt[m] - phi.values[m])
            if dev > worst:
                worst = dev
        report.check(f"moments of degree {degree}", worst, phi.backend, fock.tol)
    return report
