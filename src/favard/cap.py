"""Creation / preservation / annihilation matrices of the coordinate operators.

Multiplication by the coordinate X_j maps level n into levels n+1, n, n-1
of the gradation and nothing else (the three-term relation).  The three
blocks, written in the monic level bases, are

    Aplus[j][n]  : d_{n+1} x d_n   level n -> n+1
    Azero[j][n]  : d_n     x d_n   level n -> n
    Aminus[j][n] : d_{n-1} x d_n   level n -> n-1

so that x_j P_n = Aplus^T P_{n+1} + Azero^T P_n + Aminus^T P_{n-1} up to
null polynomials.  Run backwards, that relation is the recurrence that
builds each level from the two below (module gradation); the gradation
sweep therefore solves every block once, as soon as its Grams exist, into
the one CapOperators the gradation holds, and extract_cap returns it.

Each block solves G_target X = B for the pairing B of the target level
with x_j times the source level.  Creation needs no moments beyond the
Grams: x_j p_{n,m} = p_{n+1,m+e_j} + (degree <= n), and level n+1 is
orthogonal to every lower degree, so B = G_{n+1} S_{j,n}, the columns
m + e_j of G_{n+1}: the index shift S_{j,n} is the position table
mindex.shift_index, and every product by it is a gather.  Annihilation is
the G-weighted adjoint of the index shift, G_{n-1} X = S_{j,n-1}^T G_n
with the rows m + e_j of G_n on the right; annihilator solves that system
for the forward direction and the Fock reconstruction alike (module fock),
and it is consistent exactly when kernel vectors of G_{n-1} lift into
ker G_n.  Preservation pairs the level's modified moments R_n = P_n H
with x_j P_n: B = R_n (x_j P_n)^T, which needs moments to degree 2n+1,
so the top level N carries Azero only when the budget reaches 2N+1
(alpha_levels records how far).  Each column is the minimum-norm
solution, so on degenerate levels the representative supported on the
kernel complement is chosen (Aplus is S followed by the projector onto
range G_{n+1}); identities involving adjoints hold in the G-weighted
sense, never entrywise.  Aminus[j][0] is the empty matrix (the vacuum
has no level below).
"""

from dataclasses import dataclass, field

from . import linalg
from .errors import AdjointInconsistencyError, InconsistentSystemError
from .mindex import enumerate_upto, shift_index
from .reports import Report

__all__ = [
    "CapOperators",
    "extract_cap",
    "annihilator",
    "verify_jacobi_relation",
    "verify_adjointness",
    "verify_commutators",
]


@dataclass
class CapOperators:
    """Grams and blocks of both directions; on the Fock side aplus is empty (the index shift)."""

    d: int
    N: int
    backend: str
    tol: float
    alpha_levels: int
    grams: list = field(default_factory=list)
    aplus: dict = field(default_factory=dict)
    azero: dict = field(default_factory=dict)
    aminus: dict = field(default_factory=dict)


def _solve(gram_matrix, pairing, backend, tol):
    """Min-norm solution X of G X = B, one solve per column of B."""
    if all(x == 0 for row in gram_matrix for x in row):
        # dead target level: its kernel complement is {0}, and positivity
        # (Cauchy-Schwarz) forces the true pairings to zero, so any nonzero
        # right hand side on the float backend is cancellation noise
        return [[linalg.scalars(backend).zero] * len(pairing[0]) for _ in gram_matrix]
    sols = linalg.solve_min_norm(gram_matrix, linalg.transpose(pairing), backend, tol)
    return linalg.transpose(sols)


def annihilator(gomega, d, j, n, backend, tol):
    """Aminus[j][n]: the min-norm X with Gomega_{n-1} X = S_{j,n-1}^T Gomega_n.

    gomega lists the level metrics.  The system is the adjoint of the index
    shift S_{j,n-1} in the Gomega-weighted pairing; it is inconsistent, and
    AdjointInconsistencyError is raised, when a kernel vector of
    Gomega_{n-1} does not lift into ker Gomega_n.
    """
    rhs = [gomega[n][s] for s in shift_index(d, n - 1, j)]  # the rows m + e_j of Gomega_n
    try:
        sols = linalg.solve_min_norm(gomega[n - 1], linalg.transpose(rhs), backend, tol)
    except InconsistentSystemError as exc:
        raise AdjointInconsistencyError(
            f"creation operator for coordinate {j} has no adjoint at level {n}: "
            f"a kernel vector of Gomega_{n - 1} does not lift into ker Gomega_{n} "
            f"({exc})"
        ) from exc
    return linalg.transpose(sols)


def extract_cap(gb) -> CapOperators:
    """The CAP blocks build_gradation solved in its sweep; solves and copies nothing."""
    return gb.cap


def _subtract_image(rows, block, lower):
    """rows -= block^T lower in place; lower's coefficient rows cover rows' leading columns."""
    for row, img in zip(rows, linalg.mat_mul(linalg.transpose(block), lower)):
        row[: len(img)] = [x - c for x, c in zip(row, img)]


def verify_jacobi_relation(cap: CapOperators, gb):
    """Check that X_j p_{n,m} equals its three-block image up to zero seminorm.

    The residual r = X_j p - (its images in levels n+1, n, n-1) is formed
    as a coefficient row over the monomials of degree <= n+1 first, and its
    squared seminorm r H r^T must vanish; the residual itself is nonzero
    in degenerate cases.  Expanding the form into differences of pairings
    instead would cancel in floats.
    """
    report = Report(name="three-term relation")
    backend, tol = cap.backend, cap.tol
    held = gb.phi.held_matrix(cap.N)
    sizes = [len(enumerate_upto(cap.d, n + 1)) for n in range(cap.N)]
    hs = [[r[:k] for r in held[:k]] for k in sizes]  # H over the degrees <= n+1: a leading block
    for j in range(1, cap.d + 1):
        for n in range(cap.N):
            res = gb.times_x(j, n)
            blocks = (cap.aplus[j][n], cap.azero[j][n], cap.aminus[j][n])
            for block, k in zip(blocks, (n + 1, n, n - 1)):
                if block:  # Aminus[j][0] is the empty matrix
                    _subtract_image(res, block, gb.level(k).coeffs)
            # only the diagonal of r H r^T is read; H is symmetric, so H r^T is r H
            worst = max([0] + [abs(linalg._dot(linalg.mat_vec(hs[n], r), r)) for r in res])
            report.check(f"residual seminorm j={j} level {n}", worst, backend, tol)
    return report


def verify_adjointness(cap: CapOperators, gb):
    """G-weighted adjoint identities between the blocks.

    Creation against annihilation: G_{n+1} A+_{j,n} = (A-_{j,n+1})^T G_n.
    Preservation self-adjointness:  G_n A0_{j,n} = (A0_{j,n})^T G_n.
    """
    report = Report(name="adjointness")
    backend, tol = cap.backend, cap.tol
    for j in range(1, cap.d + 1):
        for n in range(cap.N):
            lhs = linalg.mat_mul(cap.grams[n + 1], cap.aplus[j][n])
            rhs = linalg.mat_mul(linalg.transpose(cap.aminus[j][n + 1]), cap.grams[n])
            dev = linalg.mat_max_diff(lhs, rhs)
            report.check(f"creation-annihilation adjoint j={j} level {n}", dev, backend, tol)
        for n in range(cap.alpha_levels + 1):
            a0 = cap.azero[j][n]
            lhs = linalg.mat_mul(cap.grams[n], a0)
            rhs = linalg.mat_mul(linalg.transpose(a0), cap.grams[n])
            dev = linalg.mat_max_diff(lhs, rhs)
            report.check(f"preservation self-adjoint j={j} level {n}", dev, backend, tol)
    return report


def _seminorm_dev(g, diff):
    """Largest entry of D^T G D: the G-seminorm footprint of a difference map."""
    if not diff or not diff[0]:
        return 0
    m = linalg.mat_mul(linalg.mat_mul(linalg.transpose(diff), g), diff)
    return linalg.mat_max_abs(m)


def _msub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def _madd(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def verify_commutators(cap: CapOperators):
    """Commutation relations between the blocks, in G-seminorm.

    Checked per coordinate pair j<k on every level where all factors exist:
    creators commute; the creation-preservation mixed commutator vanishes;
    the full mixed commutator (creation-annihilation plus preservation-
    preservation plus annihilation-creation) vanishes.  On degenerate
    levels only the G-weighted norm of the difference is claimed.
    """
    report = Report(name="commutators")
    backend, tol, mm = cap.backend, cap.tol, linalg.mat_mul
    for j in range(1, cap.d + 1):
        for k in range(j + 1, cap.d + 1):
            for n in range(cap.N - 1):
                diff = _msub(
                    mm(cap.aplus[k][n + 1], cap.aplus[j][n]),
                    mm(cap.aplus[j][n + 1], cap.aplus[k][n]),
                )
                dev = _seminorm_dev(cap.grams[n + 2], diff)
                report.check(f"creators commute j={j},k={k} level {n}", dev, backend, tol)
            for n in range(min(cap.N - 1, cap.alpha_levels)):
                # needs Azero at n and n+1, Aplus at n and n+1
                diff = _msub(
                    _madd(
                        mm(cap.aplus[j][n], cap.azero[k][n]),
                        mm(cap.azero[j][n + 1], cap.aplus[k][n]),
                    ),
                    _madd(
                        mm(cap.azero[k][n + 1], cap.aplus[j][n]),
                        mm(cap.aplus[k][n], cap.azero[j][n]),
                    ),
                )
                dev = _seminorm_dev(cap.grams[n + 1], diff)
                label = f"creation-preservation commutator j={j},k={k} level {n}"
                report.check(label, dev, backend, tol)
            for n in range(min(cap.N, cap.alpha_levels + 1)):
                # [a+_j, a-_k] + [a0_j, a0_k] + [a-_j, a+_k] restricted to level n
                terms = []
                if n >= 1:
                    terms.append(mm(cap.aplus[j][n - 1], cap.aminus[k][n]))
                if n <= cap.N - 1:
                    terms.append(_neg(mm(cap.aminus[k][n + 1], cap.aplus[j][n])))
                terms.append(mm(cap.azero[j][n], cap.azero[k][n]))
                terms.append(_neg(mm(cap.azero[k][n], cap.azero[j][n])))
                if n <= cap.N - 1:
                    terms.append(mm(cap.aminus[j][n + 1], cap.aplus[k][n]))
                if n >= 1:
                    terms.append(_neg(mm(cap.aplus[k][n - 1], cap.aminus[j][n])))
                total = terms[0]
                for t in terms[1:]:
                    total = _madd(total, t)
                dev = _seminorm_dev(cap.grams[n], total)
                report.check(f"mixed commutator j={j},k={k} level {n}", dev, backend, tol)
    return report


def _neg(a):
    return [[-x for x in row] for row in a]
