"""Creation / preservation / annihilation matrices of the coordinate operators.

Multiplication by the coordinate X_j maps level n into levels n+1, n, n-1
of the gradation and nothing else (the three-term relation).  The three
blocks, written in the monic level bases, are

    Aplus[j][n]  : d_{n+1} x d_n   level n -> n+1
    Azero[j][n]  : d_n     x d_n   level n -> n
    Aminus[j][n] : d_{n-1} x d_n   level n -> n-1

Each block solves G_target X = B for the pairing B of the target level
with x_j times the source level.  Creation needs no moments beyond the
Grams: x_j p_{n,m} = p_{n+1,m+e_j} + (degree <= n), and level n+1 is
orthogonal to every lower degree, so B = G_{n+1} S_{j,n} with S_{j,n} the
0/1 index shift m -> m + e_j (mindex.creation_shift).  Annihilation is
the G-weighted adjoint of the index shift, G_{n-1} X = S_{j,n-1}^T G_n;
annihilator solves that system for the forward direction here and for
the Fock reconstruction alike (module fock), and it is consistent exactly
when kernel vectors of G_{n-1} lift into ker G_n.  Preservation pairs the
level's modified moments R_n = P_n H with x_j P_n: B = R_n (x_j P_n)^T.
Each column is the minimum-norm solution, so on degenerate levels the
representative supported on the kernel complement is chosen (Aplus is S
followed by the projector onto range G_{n+1}); identities involving
adjoints therefore hold in the G-weighted sense, never entrywise.
Aminus[j][0] is the empty matrix (the vacuum has no level below).

Preservation blocks need moments one degree beyond the Gram data (degree
2n+1 at level n), so the top level N carries Azero only when the moment
budget reaches 2N+1; alpha_levels records how far they go.
"""

from dataclasses import dataclass

from . import linalg
from .errors import AdjointInconsistencyError, InconsistentSystemError
from .gradation import GradedBasis
from .mindex import creation_shift
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
    d: int
    N: int
    backend: str
    tol: float
    grams: list
    aplus: dict
    azero: dict
    aminus: dict
    alpha_levels: int


def _solve(gram_matrix, pairing, backend, tol):
    """Min-norm solution X of G X = B, one solve per column of B."""
    if all(x == 0 for row in gram_matrix for x in row):
        # dead target level: its kernel complement is {0}, and positivity
        # (Cauchy-Schwarz) forces the true pairings to zero, so any nonzero
        # right hand side on the float backend is cancellation noise
        zero = 0 if backend == "exact" else 0.0
        return [[zero] * len(pairing[0]) for _ in gram_matrix]
    sols = linalg.solve_min_norm(gram_matrix, linalg.transpose(pairing), backend, tol)
    return linalg.transpose(sols)


def annihilator(gomega, d, j, n, backend, tol):
    """Aminus[j][n]: the min-norm X with Gomega_{n-1} X = S_{j,n-1}^T Gomega_n.

    gomega lists the level metrics.  The system is the adjoint of the index
    shift S_{j,n-1} in the Gomega-weighted pairing; it is inconsistent, and
    AdjointInconsistencyError is raised, when a kernel vector of
    Gomega_{n-1} does not lift into ker Gomega_n.
    """
    rhs = linalg.mat_mul(linalg.transpose(creation_shift(d, n - 1, j)), gomega[n])
    try:
        sols = linalg.solve_min_norm(gomega[n - 1], linalg.transpose(rhs), backend, tol)
    except InconsistentSystemError as exc:
        raise AdjointInconsistencyError(
            f"creation operator for coordinate {j} has no adjoint at level {n}: "
            f"a kernel vector of Gomega_{n - 1} does not lift into ker Gomega_{n} "
            f"({exc})"
        ) from exc
    return linalg.transpose(sols)


def extract_cap(gb: GradedBasis) -> CapOperators:
    """Extract all CAP matrices from a built gradation.

    Reads only the Grams and the modified moments of the levels.  The
    level-N preservation block needs moments to degree 2N+1 and is omitted
    (alpha_levels = N-1) when the budget stops at 2N.
    """
    N = gb.N
    alpha_levels = N if gb.phi.max_degree >= 2 * N + 1 else max(N - 1, 0)
    if N == 0 and gb.phi.max_degree < 1:
        alpha_levels = -1  # not even Azero[j][0] = [phi(X_j)] is computable
    backend, tol = gb.backend, gb.tol
    grams = [lvl.gram for lvl in gb.levels]
    aplus, azero, aminus = {}, {}, {}
    for j in range(1, gb.d + 1):
        aplus[j], azero[j] = [], []
        aminus[j] = [[]]  # Aminus[j][0] is the empty matrix: no level below the vacuum
        for n in range(N):
            # <p_{n+1}, x_j p_n> = G_{n+1} S_{j,n}
            up = linalg.mat_mul(grams[n + 1], creation_shift(gb.d, n, j))
            aplus[j].append(_solve(grams[n + 1], up, backend, tol))
            aminus[j].append(annihilator(grams, gb.d, j, n + 1, backend, tol))
        for n in range(alpha_levels + 1):
            # <p_n, x_j p_n> = R_n (x_j P_n)^T
            xp = gb.times_x(j, n)
            mods = [r[: len(xp[0])] for r in gb.level(n).mods]
            pairing = linalg.mat_mul(mods, linalg.transpose(xp))
            azero[j].append(_solve(grams[n], pairing, backend, tol))
    return CapOperators(
        d=gb.d,
        N=N,
        backend=backend,
        tol=tol,
        grams=grams,
        aplus=aplus,
        azero=azero,
        aminus=aminus,
        alpha_levels=alpha_levels,
    )


def verify_jacobi_relation(cap: CapOperators, gb: GradedBasis):
    """Check that X_j p_{n,m} equals its three-block image up to zero seminorm.

    The residual r = X_j p - (its images in levels n+1, n, n-1) is formed
    as a coefficient row over the monomials of degree <= n+1 first, and its
    squared seminorm r^T H r must vanish; the residual itself is nonzero
    in degenerate cases.  Expanding the form into differences of pairings
    instead would cancel in floats.
    """
    report = Report(name="three-term relation")
    for j in range(1, cap.d + 1):
        for n in range(cap.N):
            res = gb.times_x(j, n)
            images = [(cap.aplus[j][n], n + 1), (cap.azero[j][n], n)]
            if n >= 1:
                images.append((cap.aminus[j][n], n - 1))
            for block, k in images:
                image = linalg.mat_mul(linalg.transpose(block), gb.level(k).coeffs)
                for row, img in zip(res, image):
                    row[: len(img)] = [x - c for x, c in zip(row, img)]
            form = gb.pairing(res, res)
            worst = max([0] + [abs(form[i][i]) for i in range(len(res))])
            report.add(
                f"residual seminorm j={j} level {n}",
                linalg.within(worst, cap.backend, cap.tol),
                deviation=worst,
            )
    return report


def verify_adjointness(cap: CapOperators, gb: GradedBasis):
    """G-weighted adjoint identities between the blocks.

    Creation against annihilation: G_{n+1} A+_{j,n} = (A-_{j,n+1})^T G_n.
    Preservation self-adjointness:  G_n A0_{j,n} = (A0_{j,n})^T G_n.
    """
    report = Report(name="adjointness")
    for j in range(1, cap.d + 1):
        for n in range(cap.N):
            lhs = linalg.mat_mul(cap.grams[n + 1], cap.aplus[j][n])
            rhs = linalg.mat_mul(linalg.transpose(cap.aminus[j][n + 1]), cap.grams[n])
            dev = linalg.mat_max_diff(lhs, rhs)
            report.add(
                f"creation-annihilation adjoint j={j} level {n}",
                linalg.within(dev, cap.backend, cap.tol),
                deviation=dev,
            )
        for n in range(cap.alpha_levels + 1):
            a0 = cap.azero[j][n]
            lhs = linalg.mat_mul(cap.grams[n], a0)
            rhs = linalg.mat_mul(linalg.transpose(a0), cap.grams[n])
            dev = linalg.mat_max_diff(lhs, rhs)
            report.add(
                f"preservation self-adjoint j={j} level {n}",
                linalg.within(dev, cap.backend, cap.tol),
                deviation=dev,
            )
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
    mm = linalg.mat_mul
    for j in range(1, cap.d + 1):
        for k in range(j + 1, cap.d + 1):
            for n in range(cap.N - 1):
                diff = _msub(
                    mm(cap.aplus[k][n + 1], cap.aplus[j][n]),
                    mm(cap.aplus[j][n + 1], cap.aplus[k][n]),
                )
                dev = _seminorm_dev(cap.grams[n + 2], diff)
                report.add(
                    f"creators commute j={j},k={k} level {n}",
                    linalg.within(dev, cap.backend, cap.tol),
                    deviation=dev,
                )
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
                report.add(
                    f"creation-preservation commutator j={j},k={k} level {n}",
                    linalg.within(dev, cap.backend, cap.tol),
                    deviation=dev,
                )
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
                report.add(
                    f"mixed commutator j={j},k={k} level {n}",
                    linalg.within(dev, cap.backend, cap.tol),
                    deviation=dev,
                )
    return report


def _neg(a):
    return [[-x for x in row] for row in a]
