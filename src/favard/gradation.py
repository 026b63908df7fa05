"""Orthogonal gradation of the polynomial algebra induced by a moment functional.

Level n is spanned by the monic polynomials

    p_{n,m} = X^m - (projection of X^m onto all earlier levels),

one per multi-index m of degree n.  The projection onto an earlier level k
solves the Gram system G_k c = <basis_k, X^m> for the minimum Euclidean
norm coefficient vector, so degenerate levels (singular G_k) are handled
without quotienting: the representative is the one supported on the
orthogonal complement of ker G_k in coefficient space.  The polynomials
p_{n,m} stay exactly monic; all degeneracy lives in the Gram matrices.

Levels are mutually orthogonal by construction, exactly so on the exact
backend even when Gram matrices are singular, because the projection
systems are always consistent for a positive functional and are solved
exactly.
"""

from dataclasses import dataclass, field

from . import linalg
from .errors import PositivityError
from .mindex import enumerate_level, level_dimension
from .moments import MomentFunctional, apply, check_state_positivity, gram
from .poly import Polynomial, monomial
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
    """One level of the gradation: monic basis, Gram matrix, kernel data."""

    n: int
    indices: tuple
    basis: list
    gram: list
    kernel: list
    rank: int


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
    for n in range(N + 1):
        idxs = enumerate_level(phi.d, n)
        basis = []
        for m in idxs:
            q = monomial(phi.d, m)
            acc = q
            for k in range(n):
                comp = _level_projection(gb, q, k)
                if comp is not None:
                    acc = acc - comp
            basis.append(acc)
        g = gram(phi, basis, basis)
        # a float level whose whole Gram sits below the moment scale is
        # cancellation noise around a true zero; its own largest eigenvalue
        # is no scale reference, so floor it before any rank decision
        if phi.backend == "float" and linalg.mat_max_abs(g) <= tol * scale:
            g = [[0.0] * len(idxs) for _ in range(len(idxs))]
        kern = linalg.nullspace(g, phi.backend, tol)
        rank = len(idxs) - len(kern)
        gb.levels.append(
            GradedLevel(n=n, indices=idxs, basis=basis, gram=g, kernel=kern, rank=rank)
        )
    return gb


def _level_projection(gb: GradedBasis, q: Polynomial, k: int):
    """Projection of q onto level k as a Polynomial, or None when it is zero."""
    coeffs = project_onto_level(gb, q, k)
    if all(c == 0 for c in coeffs):
        return None
    lvl = gb.level(k)
    out = Polynomial(gb.d, {})
    for c, p in zip(coeffs, lvl.basis):
        if c != 0:
            out = out + c * p
    return out


def project_onto_level(gb: GradedBasis, q: Polynomial, n: int):
    """Coefficients of the projection of q onto level n in the monic basis.

    Returns the minimum-norm solution c of G_n c = <basis_n, q>.  The
    system is consistent for every polynomial q whose products with the
    level basis stay inside the moment budget.
    """
    lvl = gb.level(n)
    b = [apply(gb.phi, p * q) for p in lvl.basis]
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
