"""Orthogonal gradation of the polynomial algebra induced by a moment functional.

Level n is spanned by the monic polynomials

    p_{n,m} = X^m - (projection of X^m onto all earlier levels),

one per multi-index m of degree n, held as coefficient rows P_n over the
monomials of degree <= n.  Each level keeps its modified moments R_n = P_n H
(H = [phi(x^a x^b)] the moment matrix), so it pairs with a coefficient row
q as R_n q^T: X^m pairs with level k as column m of R_k; G_n = R_n P_n^T is
the diagonal block D_n of the block LDL^T factorization of H, whose L^{-1}
has the rows P_0..P_N; and x_j P_n pairs as R_n (x_j P_n)^T (module cap).
The projection onto level k solves G_k c = R_k e_m for the minimum
Euclidean norm coefficient vector, so degenerate levels (singular G_k) are
handled without quotienting: the representative is the one supported on
the orthogonal complement of ker G_k in coefficient space.  The
polynomials stay exactly monic; all degeneracy lives in the Gram
matrices.  Levels are mutually orthogonal by construction, exactly so on
the exact backend even when Gram matrices are singular, because the
projection systems are always consistent for a positive functional.
"""

from dataclasses import dataclass, field
from fractions import Fraction

from . import linalg
from .errors import PositivityError
from .mindex import enumerate_level, enumerate_upto
from .moments import MomentFunctional, check_state_positivity, moment_matrix
from .poly import Polynomial
from .reports import Report

__all__ = [
    "GradedLevel",
    "GradedBasis",
    "build_gradation",
    "project_onto_level",
    "kernel_basis",
    "termination_level",
]


@dataclass
class GradedLevel:
    """One level: basis rows P_n, modified moments R_n = P_n H, Gram G_n, ker G_n.

    Columns run in mindex.enumerate_upto order: coeffs over the monomials of
    degree <= n, mods over those of degree <= max(N, n+1) within the budget.
    """

    n: int
    indices: tuple
    coeffs: list
    mods: list
    gram: list
    kernel: list
    rank: int

    @property
    def basis(self):
        """The basis as Polynomials, for display and tests; the pipeline reads coeffs."""
        monos = enumerate_upto(len(self.indices[0]), self.n)
        return [Polynomial(len(monos[0]), dict(zip(monos, row))) for row in self.coeffs]


@dataclass
class GradedBasis:
    """Levels 0..N of the gradation for one moment functional."""

    phi: MomentFunctional
    N: int
    tol: float
    levels: list = field(default_factory=list)
    positivity: Report = None  # the state positivity check run before the build

    @property
    def d(self):
        return self.phi.d

    @property
    def backend(self):
        return self.phi.backend

    def level(self, n) -> GradedLevel:
        return self.levels[n]

    def times_x(self, j, n):
        """Coefficient rows of x_j p_{n,m} over the monomials of degree <= n + 1."""
        monos = enumerate_upto(self.d, n + 1)
        pos = {m: i for i, m in enumerate(monos)}
        rows = [[0] * len(monos) for _ in self.levels[n].coeffs]
        for row, p in zip(rows, self.levels[n].coeffs):
            for m, c in zip(monos, p):
                row[pos[m[: j - 1] + (m[j - 1] + 1,) + m[j:]]] = c
        return rows

    def pairing(self, a, b):
        """[phi(p q)] for the coefficient rows p in a and q in b: a H b^T."""
        monos = enumerate_upto(self.d, self.phi.max_degree)
        h = moment_matrix(self.phi, monos[: len(a[0])], monos[: len(b[0])])
        return linalg.mat_mul(linalg.mat_mul(a, h), linalg.transpose(b))


def build_gradation(phi: MomentFunctional, N: int, tol=linalg.DEFAULT_TOL) -> GradedBasis:
    """Construct levels 0..N for phi.

    Needs moments to degree 2N and a positive state; positivity of the
    monomial Gram matrices up to degree N is checked first and failures
    raise PositivityError naming the failing degree.
    """
    pos = check_state_positivity(phi, N, tol)
    if not pos.ok:
        bad = pos.first_failure()
        raise PositivityError(f"moment functional is not positive: {bad.label}")
    gb = GradedBasis(phi=phi, N=N, tol=tol, positivity=pos)
    scale = 1.0
    if phi.backend == "float":
        scale = max(1.0, max(abs(float(v)) for v in phi.values.values()))
    cast = Fraction if phi.backend == "exact" else float
    monos = enumerate_upto(phi.d, phi.max_degree)
    for n in range(N + 1):
        idxs = enumerate_level(phi.d, n)
        low = len(enumerate_upto(phi.d, n - 1))  # level-n monomials are the last columns
        width = low + len(idxs)
        rows = [[int(c == low + i) for c in range(width)] for i in range(len(idxs))]  # the X^m
        for lvl in gb.levels:
            # one min-norm solve per earlier level; X^m pairs with it as column m of R_k
            rhs = [[r[c] for r in lvl.mods] for c in range(low, width)]
            sols = linalg.solve_min_norm(lvl.gram, rhs, phi.backend, tol)
            for row, corr in zip(rows, linalg.mat_mul(sols, lvl.coeffs)):
                row[: len(corr)] = [x - c for x, c in zip(row, corr)]
        cols = len(enumerate_upto(phi.d, min(max(N, n + 1), phi.max_degree - n)))
        mods = linalg.mat_mul(rows, moment_matrix(phi, monos[:width], monos[:cols]))
        g = linalg.mat_mul([r[:width] for r in mods], linalg.transpose(rows))
        # (G + G^T)/2 is a no-op on exact data and makes float Grams exactly symmetric
        g = [[(cast(x) + cast(y)) / 2 for x, y in zip(row, col)] for row, col in zip(g, zip(*g))]
        # a float level whose whole Gram sits below the moment scale is
        # cancellation noise around a true zero; its own largest eigenvalue
        # is no scale reference, so floor it before any rank decision
        if phi.backend == "float" and linalg.mat_max_abs(g) <= tol * scale:
            g = [[0.0] * len(idxs) for _ in range(len(idxs))]
        kern = linalg.nullspace(g, phi.backend, tol)
        rank = len(idxs) - len(kern)
        gb.levels.append(
            GradedLevel(n=n, indices=idxs, coeffs=rows, mods=mods, gram=g, kernel=kern, rank=rank)
        )
    return gb


def project_onto_level(gb: GradedBasis, q: Polynomial, n: int):
    """Coefficients of the projection of q onto level n in the monic basis.

    Returns the minimum-norm solution c of G_n c = <basis_n, q>.  The
    system is consistent for every polynomial q whose products with the
    level basis stay inside the moment budget.
    """
    lvl = gb.level(n)
    pairing = moment_matrix(gb.phi, enumerate_upto(gb.d, n), list(q.terms))
    b = linalg.mat_vec(linalg.mat_mul(lvl.coeffs, pairing), list(q.terms.values()))
    return linalg.solve_min_norm(lvl.gram, [b], gb.backend, gb.tol)[0]


def kernel_basis(gb: GradedBasis, n: int):
    """Basis of ker G_n in coefficient space (empty when G_n is regular)."""
    return [list(v) for v in gb.level(n).kernel]


def termination_level(gb: GradedBasis):
    """Smallest built n with rank G_n = 0, or None if every level has mass.

    Once a level collapses every later one must too; this is asserted over
    the built range.
    """
    first = None
    for lvl in gb.levels:
        if first is None and lvl.rank == 0:
            first = lvl.n
        if first is not None and lvl.rank != 0:
            raise AssertionError(
                f"rank {lvl.rank} at level {lvl.n} after collapse at level {first}"
            )
    return first
