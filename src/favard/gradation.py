"""Orthogonal gradation of the polynomial algebra induced by a moment functional.

Level n is spanned by monic polynomials p_{n,m} = X^m + (degree < n), one
per multi-index m of degree n, orthogonal to every lower degree and held as
coefficient rows P_n over the monomials of degree <= n.  They come from the
three-term recurrence (the multivariate Favard lemma; in one dimension the
modified Chebyshev algorithm, Gautschi 2004, section 2.1.7), with j the
first nonzero coordinate of m and x_j p_{n-1} orthogonal below degree n-2:

    p_{n,m} = x_j p_{n-1,m-e_j} - Azero[j][n-1]^T P_{n-1} - Aminus[j][n-1]^T P_{n-2}.

Each level keeps its modified moments R_n = P_n H (H = [phi(x^a x^b)] the
moment matrix; the sweep reads leading blocks of the one phi.held_matrix(N))
and pairs with a coefficient row q as R_n q^T: R_n vanishes below degree n,
its level-n columns are the Gram G_n (the block D_n of the block LDL^T of
H, whose L^{-1} has the rows P_0..P_N), and x_j P_n pairs as
R_n (x_j P_n)^T.  build_gradation is one sweep: level n from the two
below, G_n off R_n, then the CAP blocks G_n completes, appended to the one
cap.CapOperators the basis holds (module cap).  They are minimum-norm
solutions, so degenerate levels (singular G_n) keep exactly monic
polynomials and all degeneracy lives in the Grams.  Exact levels are
orthogonal exactly; a float solve whose residual fails raises
NumericalBreakdownError.
"""

from dataclasses import dataclass, field

from . import cap, linalg
from .cap import CapOperators
from .errors import AdjointInconsistencyError, InconsistentSystemError
from .errors import NumericalBreakdownError, PositivityError
from .mindex import enumerate_level, enumerate_upto, index_position, shift_index
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
    """Levels 0..N of a moment functional's gradation and the CAP blocks its sweep solved."""

    phi: MomentFunctional
    N: int
    tol: float
    levels: list = field(default_factory=list)
    positivity: Report = None  # the state positivity check run before the build
    cap: CapOperators = None  # the sweep fills it level by level

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
        # m + e_j of level k sits in level k + 1, which starts at len(enumerate_upto(d, k))
        to = [len(enumerate_upto(self.d, k)) + s for k in range(n + 1)
              for s in shift_index(self.d, k, j)]
        rows = [[0] * len(enumerate_upto(self.d, n + 1)) for _ in self.levels[n].coeffs]
        for row, p in zip(rows, self.levels[n].coeffs):
            for t, c in zip(to, p):
                row[t] = c
        return rows


def build_gradation(phi: MomentFunctional, N: int, tol=linalg.DEFAULT_TOL) -> GradedBasis:
    """Construct levels 0..N for phi and the CAP blocks between them in one sweep.

    Needs moments to degree 2N and a positive state; positivity of the
    monomial Gram matrices up to degree N is checked first and failures
    raise PositivityError naming the failing degree.  Azero at level N
    needs degree 2N+1 and is omitted (alpha_levels = N-1) on a 2N budget.
    """
    pos = check_state_positivity(phi, N, tol)
    if not pos.ok:
        bad = pos.first_failure()
        raise PositivityError(f"moment functional is not positive: {bad.label}")
    ops = CapOperators(phi.d, N, phi.backend, tol, min(N, (phi.max_degree - 1) // 2))
    gb = GradedBasis(phi, N, tol, positivity=pos, cap=ops)
    sc = linalg.scalars(phi.backend)
    cast, dead = sc.cast, sc.cast(tol) * max(1, linalg.mat_max_abs([phi.values.values()]))
    for n in range(N + 1):
        idxs = enumerate_level(phi.d, n)
        low = len(enumerate_upto(phi.d, n - 1))  # level-n monomials are the last columns
        width = low + len(idxs)
        rows = _recurrence_rows(gb, idxs) if n else [[1]]
        cols = len(enumerate_upto(phi.d, min(max(N, n + 1), phi.max_degree - n)))
        mods = linalg.mat_mul(rows, [r[:cols] for r in phi.held_matrix(N)[:width]])
        # G_n = R_n P_n^T is R_n on the level-n columns (P_n monic, R_n zero below);
        # (G + G^T)/2 is a no-op on exact data and makes float Grams exactly symmetric
        g = [r[low:width] for r in mods]
        g = [[(cast(x) + cast(y)) / 2 for x, y in zip(row, col)] for row, col in zip(g, zip(*g))]
        # a float level whose whole Gram sits below the moment scale is cancellation
        # noise around a true zero; its own largest eigenvalue is no scale reference,
        # so floor it before any rank decision (exact: only a zero Gram is floored)
        if sc.within(linalg.mat_max_abs(g), dead):
            g = [[sc.zero] * len(idxs) for _ in range(len(idxs))]
        kern = linalg.nullspace(g, phi.backend, tol)
        rank = len(idxs) - len(kern)
        gb.levels.append(
            GradedLevel(n=n, indices=idxs, coeffs=rows, mods=mods, gram=g, kernel=kern, rank=rank)
        )
        _solve_blocks(gb, n)
    return gb


def _recurrence_rows(gb: GradedBasis, idxs):
    """P_n from the two levels below: x_j p_{n-1,m-e_j} less its images there."""
    n = sum(idxs[0])
    first = [next(j for j, k in enumerate(m, start=1) if k) for m in idxs]
    down = [m[: j - 1] + (m[j - 1] - 1,) + m[j:] for m, j in zip(idxs, first)]
    pos = index_position(gb.d, n - 1)
    src = [pos[m] for m in down]
    shifted = {j: gb.times_x(j, n - 1) for j in set(first)}
    rows = [shifted[j][s] for j, s in zip(first, src)]
    for blocks, k in ((gb.cap.azero, n - 1), (gb.cap.aminus, n - 2)):
        if k >= 0:  # column m is column m - e_j of coordinate j's block out of level n-1
            mats = [blocks[j][n - 1] for j in first]
            block = [[a[r][s] for a, s in zip(mats, src)] for r in range(len(mats[0]))]
            cap._subtract_image(rows, block, gb.levels[k].coeffs)
    return rows


def _solve_blocks(gb: GradedBasis, n):
    """G_n, then Aplus[j][n-1], Aminus[j][n] and Azero[j][n]: the CAP blocks G_n completes."""
    ops, g, backend, tol = gb.cap, gb.levels[n].gram, gb.backend, gb.tol
    ops.grams.append(g)
    for j in range(1, gb.d + 1):
        if n == 0:  # Aminus[j][0] is empty: no level below the vacuum
            ops.aplus[j], ops.azero[j], ops.aminus[j] = [], [], [[]]
        try:
            if n:  # <p_n, x_j p_{n-1}> = G_n S_{j,n-1}: the columns m + e_j of G_n
                shift = shift_index(gb.d, n - 1, j)
                up = [[row[s] for s in shift] for row in g]
                ops.aplus[j].append(cap._solve(g, up, backend, tol))
                ops.aminus[j].append(cap.annihilator(ops.grams, gb.d, j, n, backend, tol))
            if n <= ops.alpha_levels:  # <p_n, x_j p_n> = R_n (x_j P_n)^T
                xp = gb.times_x(j, n)
                mods = [r[: len(xp[0])] for r in gb.levels[n].mods]
                pairing = linalg.mat_mul(mods, linalg.transpose(xp))
                ops.azero[j].append(cap._solve(g, pairing, backend, tol))
        except (InconsistentSystemError, AdjointInconsistencyError) as exc:
            if linalg.scalars(backend) is linalg.EXACT:
                raise
            where = f"float gradation broke down at level {n}, coordinate {j}"
            raise NumericalBreakdownError(f"{where}: {exc.__cause__ or exc}") from exc


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
