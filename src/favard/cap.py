"""Creation / preservation / annihilation matrices of the coordinate operators.

Multiplication by the coordinate X_j maps level n into levels n+1, n, n-1
of the gradation and nothing else (the three-term relation).  The three
blocks, written in the monic level bases, are

    Aplus[j][n]  : d_{n+1} x d_n   level n -> n+1
    Azero[j][n]  : d_n     x d_n   level n -> n
    Aminus[j][n] : d_{n-1} x d_n   level n -> n-1

Each column is the minimum-norm solution of the Gram system of the target
level, so on degenerate levels the representative supported on the kernel
complement is chosen; identities involving adjoints therefore hold in the
G-weighted sense, never entrywise.  Aminus[j][0] is the empty matrix (the
vacuum has no level below).

Preservation blocks need moments one degree beyond the Gram data (degree
2n+1 at level n), so the top level N carries Azero only when the moment
budget reaches 2N+1; alpha_levels records how far they go.
"""

from dataclasses import dataclass

from . import linalg
from .errors import MomentDegreeError
from .gradation import GradedBasis
from .moments import apply
from .poly import coordinate_multiply
from .reports import Report

__all__ = [
    "CapOperators",
    "extract_cap",
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
    kernels: list
    aplus: dict
    azero: dict
    aminus: dict
    alpha_levels: int


def _solve_columns(gram_matrix, rhs_columns, backend, tol):
    """Min-norm solves, one per column; returns the matrix with those columns."""
    if not rhs_columns:
        return []
    rows = len(gram_matrix)
    if rows and all(x == 0 for row in gram_matrix for x in row):
        # dead target level: its kernel complement is {0}, and positivity
        # (Cauchy-Schwarz) forces the true pairings to zero, so any nonzero
        # right hand side on the float backend is cancellation noise
        zero = 0 if backend == "exact" else 0.0
        return [[zero] * len(rhs_columns) for _ in range(rows)]
    sols = linalg.solve_min_norm(gram_matrix, rhs_columns, backend, tol)
    return linalg.transpose(sols)


def extract_cap(gb: GradedBasis, phi=None) -> CapOperators:
    """Extract all CAP matrices from a built gradation.

    phi defaults to the functional the gradation was built from.  Needs
    moments to degree 2N for the creation and annihilation blocks; the
    level-N preservation block additionally needs degree 2N+1 and is
    omitted (alpha_levels = N-1) when the budget stops at 2N.
    """
    phi = gb.phi if phi is None else phi
    if phi.d != gb.d:
        raise ValueError("functional dimension does not match gradation")
    N = gb.N
    if phi.max_degree < 2 * N:
        raise MomentDegreeError(
            f"cap extraction to level {N} needs moments to degree {2 * N}"
        )
    alpha_levels = N if phi.max_degree >= 2 * N + 1 else max(N - 1, 0)
    if N == 0 and phi.max_degree < 1:
        alpha_levels = -1  # not even Azero[j][0] = [phi(X_j)] is computable
    backend, tol = gb.backend, gb.tol
    aplus = {}
    azero = {}
    aminus = {}
    for j in range(1, gb.d + 1):
        ap, a0 = [], []
        am = [[]]  # Aminus[j][0] is the empty matrix: no level below the vacuum
        for n in range(N + 1):
            lvl = gb.level(n)
            shifted = [coordinate_multiply(p, j) for p in lvl.basis]
            if n <= N - 1:
                nxt = gb.level(n + 1)
                cols = [[apply(phi, q * s) for q in nxt.basis] for s in shifted]
                ap.append(_solve_columns(nxt.gram, cols, backend, tol))
            if n <= alpha_levels:
                cols = [[apply(phi, q * s) for q in lvl.basis] for s in shifted]
                a0.append(_solve_columns(lvl.gram, cols, backend, tol))
            if n >= 1:
                prev = gb.level(n - 1)
                cols = [[apply(phi, q * s) for q in prev.basis] for s in shifted]
                am.append(_solve_columns(prev.gram, cols, backend, tol))
        aplus[j] = ap
        azero[j] = a0
        aminus[j] = am
    return CapOperators(
        d=gb.d,
        N=N,
        backend=backend,
        tol=tol,
        grams=[lvl.gram for lvl in gb.levels],
        kernels=[lvl.kernel for lvl in gb.levels],
        aplus=aplus,
        azero=azero,
        aminus=aminus,
        alpha_levels=alpha_levels,
    )


def _dev_ok(dev, backend, tol):
    return dev == 0 if backend == "exact" else abs(dev) <= tol


def verify_jacobi_relation(cap: CapOperators, gb: GradedBasis, phi=None, tol=None):
    """Check that X_j p_{n,m} equals its three-block image up to zero seminorm.

    The residual is a polynomial of zero length only in degenerate cases;
    what must vanish is its squared seminorm under phi.
    """
    phi = gb.phi if phi is None else phi
    tol = cap.tol if tol is None else tol
    report = Report(name="three-term relation")
    for j in range(1, cap.d + 1):
        for n in range(cap.N):
            lvl, nxt = gb.level(n), gb.level(n + 1)
            prev = gb.level(n - 1) if n >= 1 else None
            worst = 0
            for col, p in enumerate(lvl.basis):
                image = None

                def _acc(image, coeffs_matrix, basis):
                    for i, q in enumerate(basis):
                        c = coeffs_matrix[i][col]
                        if c != 0:
                            image = q * c if image is None else image + q * c
                    return image

                image = _acc(image, cap.aplus[j][n], nxt.basis)
                if n <= cap.alpha_levels:
                    image = _acc(image, cap.azero[j][n], lvl.basis)
                if prev is not None:
                    image = _acc(image, cap.aminus[j][n], prev.basis)
                r = coordinate_multiply(p, j)
                if image is not None:
                    r = r - image
                dev = abs(apply(phi, r * r))
                if dev > worst:
                    worst = dev
            report.add(
                f"residual seminorm j={j} level {n}",
                _dev_ok(worst, cap.backend, tol),
                deviation=worst,
            )
    return report


def verify_adjointness(cap: CapOperators, gb: GradedBasis, tol=None):
    """G-weighted adjoint identities between the blocks.

    Creation against annihilation: G_{n+1} A+_{j,n} = (A-_{j,n+1})^T G_n.
    Preservation self-adjointness:  G_n A0_{j,n} = (A0_{j,n})^T G_n.
    """
    tol = cap.tol if tol is None else tol
    report = Report(name="adjointness")
    for j in range(1, cap.d + 1):
        for n in range(cap.N):
            lhs = linalg.mat_mul(cap.grams[n + 1], cap.aplus[j][n])
            rhs = linalg.mat_mul(linalg.transpose(cap.aminus[j][n + 1]), cap.grams[n])
            dev = linalg.mat_max_diff(lhs, rhs)
            report.add(
                f"creation-annihilation adjoint j={j} level {n}",
                _dev_ok(dev, cap.backend, tol),
                deviation=dev,
            )
        for n in range(cap.alpha_levels + 1):
            a0 = cap.azero[j][n]
            lhs = linalg.mat_mul(cap.grams[n], a0)
            rhs = linalg.mat_mul(linalg.transpose(a0), cap.grams[n])
            dev = linalg.mat_max_diff(lhs, rhs)
            report.add(
                f"preservation self-adjoint j={j} level {n}",
                _dev_ok(dev, cap.backend, tol),
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


def verify_commutators(cap: CapOperators, tol=None):
    """Commutation relations between the blocks, in G-seminorm.

    Checked per coordinate pair j<k on every level where all factors exist:
    creators commute; the creation-preservation mixed commutator vanishes;
    the full mixed commutator (creation-annihilation plus preservation-
    preservation plus annihilation-creation) vanishes.  On degenerate
    levels only the G-weighted norm of the difference is claimed.
    """
    tol = cap.tol if tol is None else tol
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
                    _dev_ok(dev, cap.backend, tol),
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
                    _dev_ok(dev, cap.backend, tol),
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
                    _dev_ok(dev, cap.backend, tol),
                    deviation=dev,
                )
    return report


def _neg(a):
    return [[-x for x in row] for row in a]
