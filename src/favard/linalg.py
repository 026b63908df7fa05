"""Small dense linear algebra over exact rationals and over floats.

Matrices are lists of rows; vectors are lists.  Exact entries are ints or
Fractions, float entries are Python floats.  Level dimensions stay small,
so the exact routines are plain eliminations; float routines defer to
numpy.  The two families sit behind backend-dispatching wrappers that take
``backend`` in {"exact", "float"} and, for the float family, a relative
tolerance used both as kernel threshold (eigenvalues below tol * lambda_max
count as zero) and as lstsq cutoff.
"""

from fractions import Fraction

import numpy as np

from .errors import InconsistentSystemError

DEFAULT_TOL = 1e-10

__all__ = [
    "DEFAULT_TOL",
    "transpose",
    "mat_mul",
    "mat_vec",
    "mat_max_abs",
    "mat_max_diff",
    "within",
    "solve_min_norm",
    "nullspace",
    "rank",
    "psd_floor",
]


# ---------------------------------------------------------------- shape ops


def transpose(a):
    if not a:
        return []
    return [list(col) for col in zip(*a)]


def mat_mul(a, b):
    """a @ b for list-of-rows matrices; empty factors give empty results."""
    if not a:
        return []
    if not b:
        return [[] for _ in a] if not a[0] else _fail_shape(a, b)
    if len(a[0]) != len(b):
        _fail_shape(a, b)
    bt = transpose(b)
    return [[_dot(row, col) for col in bt] for row in a]


def _fail_shape(a, b):
    raise ValueError(
        f"shape mismatch: ({len(a)},{len(a[0]) if a else 0}) @ ({len(b)},{len(b[0]) if b else 0})"
    )


def _dot(u, v):
    """Sum of x*y over the terms whose factors are both nonzero.

    Creation shifts, diagonal Grams and sparse CAP blocks make most terms
    zero.  For finite entries a skipped term is an exact zero that would
    not change the partial sum, so this equals the dense sum (0 if empty).
    """
    total = 0
    for x, y in zip(u, v):
        if x and y:
            total += x * y
    return total


def mat_vec(a, v):
    """a @ v; an empty matrix (zero rows) gives the empty vector."""
    if not a:
        return []
    if len(a[0]) != len(v):
        raise ValueError(f"shape mismatch: ({len(a)},{len(a[0])}) @ ({len(v)},)")
    return [_dot(row, v) for row in a]


def mat_max_abs(a):
    worst = 0
    for row in a:
        for x in row:
            if abs(x) > worst:
                worst = abs(x)
    return worst


def mat_max_diff(a, b):
    """Largest entrywise |a - b|; 0 when there are no entries."""
    return mat_max_abs([[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)])


def within(dev, backend, tol):
    """The tolerance rule: an exact deviation must vanish, a float one be <= tol."""
    return dev == 0 if backend == "exact" else dev <= tol


# ------------------------------------------------------------- exact family


def _to_fractions(a):
    return [[Fraction(x) for x in row] for row in a]


def rref(a):
    """Reduced row echelon form over the rationals.

    Returns (R, pivot_columns).  The input is not modified.
    """
    m = _to_fractions(a)
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, nrows):
            if m[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        inv = Fraction(1) / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m, pivots


def _kernel_from_rref(r, pivots, ncols):
    """Right kernel of the first ncols columns of an RREF, one vector per free column."""
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        v = [Fraction(0)] * ncols
        v[free] = Fraction(1)
        for row_idx, pc in enumerate(pivots):
            v[pc] = -r[row_idx][free]
        basis.append(v)
    return basis


def _nullspace_exact(a):
    if not a:
        return []
    return _kernel_from_rref(*rref(a), len(a[0]))


def _rank_exact(a):
    if not a:
        return 0
    return len(rref(a)[1])


def _solve_exact(a, b_cols):
    """Particular solutions of a X = B, free variables set to zero, and a basis of ker a.

    b_cols is a list of right-hand-side column vectors.  One elimination of
    the augmented matrix gives both: its first columns are the RREF of a.
    Raises InconsistentSystemError naming the offending column when no
    solution exists.
    """
    nrows = len(a)
    ncols = len(a[0]) if a else 0
    aug = [
        [Fraction(a[i][j]) for j in range(ncols)] + [Fraction(col[i]) for col in b_cols]
        for i in range(nrows)
    ]
    r, pivots = rref(aug)
    for pc in pivots:
        if pc >= ncols:
            raise InconsistentSystemError(
                f"linear system inconsistent in right-hand side column {pc - ncols}"
            )
    solutions = []
    for t in range(len(b_cols)):
        x = [Fraction(0)] * ncols
        for row_idx, pc in enumerate(pivots):
            x[pc] = r[row_idx][ncols + t]
        solutions.append(x)
    return solutions, _kernel_from_rref(r, pivots, ncols)


def _solve_min_norm_exact(a, b_cols):
    """Minimum Euclidean norm solutions of a X = B (consistent systems only).

    The particular solution is projected onto the orthogonal complement of
    the kernel, which picks the canonical representative supported on the
    row space.
    """
    xs, kern = _solve_exact(a, b_cols)
    if not kern:
        return xs
    gram = [[_dot(u, v) for v in kern] for u in kern]
    rhs_cols = [[_dot(u, x) for u in kern] for x in xs]
    ys, _ = _solve_exact(gram, rhs_cols)
    out = []
    for x, y in zip(xs, ys):
        corr = [Fraction(0)] * len(x)
        for coef, kv in zip(y, kern):
            for i, kvi in enumerate(kv):
                corr[i] += coef * kvi
        out.append([xi - ci for xi, ci in zip(x, corr)])
    return out


def _psd_pivots_exact(g):
    """Symmetric elimination pivots; decides positive semidefiniteness exactly.

    Returns (ok, witness).  A negative pivot, or a zero pivot whose row is
    not identically zero, certifies failure; witness is the offending index.
    """
    n = len(g)
    m = _to_fractions(g)
    for i in range(n):
        p = m[i][i]
        if p < 0:
            return False, i
        if p == 0:
            if any(m[i][j] != 0 for j in range(i + 1, n)):
                return False, i
            continue
        for r in range(i + 1, n):
            if m[r][i] == 0:
                continue
            f = m[r][i] / p
            for c in range(i, n):
                m[r][c] -= f * m[i][c]
    return True, None


# ------------------------------------------------------------- float family


def _np(a):
    return np.array(a, dtype=float).reshape(len(a), len(a[0]) if a else 0)


def _solve_min_norm_float(a, b_cols, tol, check_consistency=False):
    am = _np(a)
    bm = np.array(b_cols, dtype=float).T if b_cols else np.zeros((len(a), 0))
    if am.size == 0:
        return [[0.0] * (len(a[0]) if a else 0) for _ in b_cols]
    x, *_ = np.linalg.lstsq(am, bm, rcond=tol)
    if check_consistency:
        resid = am @ x - bm
        scale = max(np.abs(am).max(), np.abs(bm).max() if bm.size else 0.0, 1.0)
        worst = np.abs(resid).max() if resid.size else 0.0
        if worst > tol * scale:
            raise InconsistentSystemError(
                f"least-squares residual {worst:.3e} exceeds tolerance {tol * scale:.3e}"
            )
    return [list(map(float, x[:, t])) for t in range(x.shape[1])]


def _sym_eig_float(g):
    gm = _np(g)
    if gm.size == 0:
        return np.array([]), np.zeros((0, 0))
    gm = (gm + gm.T) / 2.0
    return np.linalg.eigh(gm)


def _nullspace_float(g, tol):
    w, v = _sym_eig_float(g)
    if w.size == 0:
        return []
    lam_max = float(np.abs(w).max())
    if lam_max == 0.0:
        return [list(map(float, v[:, i])) for i in range(v.shape[1])]
    keep = [i for i in range(len(w)) if abs(w[i]) < tol * lam_max]
    return [list(map(float, v[:, i])) for i in keep]


def _rank_float(a, tol):
    am = _np(a)
    if am.size == 0:
        return 0
    s = np.linalg.svd(am, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int((s > tol * s[0]).sum())


# ---------------------------------------------------------------- dispatch


def _check_backend(backend):
    if backend not in ("exact", "float"):
        raise ValueError(f"backend must be 'exact' or 'float', got {backend!r}")


def solve_min_norm(a, b_cols, backend, tol=DEFAULT_TOL, check_consistency=True):
    """Minimum-norm solutions X of a X = B, one column vector per entry of b_cols.

    The exact backend requires consistency and raises otherwise; the float
    backend checks the residual only when check_consistency is set.
    """
    _check_backend(backend)
    if not b_cols:
        return []
    if backend == "exact":
        return _solve_min_norm_exact(a, b_cols)
    return _solve_min_norm_float(a, b_cols, tol, check_consistency=check_consistency)


def nullspace(g, backend, tol=DEFAULT_TOL):
    """Kernel basis of a symmetric matrix.

    Float kernels collect eigenvectors with |eigenvalue| < tol * lambda_max;
    a zero matrix counts as all kernel.
    """
    _check_backend(backend)
    if backend == "exact":
        return _nullspace_exact(g)
    return _nullspace_float(g, tol)


def rank(a, backend, tol=DEFAULT_TOL):
    _check_backend(backend)
    if backend == "exact":
        return _rank_exact(a)
    return _rank_float(a, tol)


def psd_floor(g, backend, tol=DEFAULT_TOL):
    """(is_psd, floor) for a symmetric matrix.

    Exact: elimination pivot test, floor is None on success or the failing
    pivot index on failure.  Float: floor is the smallest eigenvalue and the
    test passes when it is >= -tol * max(1, lambda_max).
    """
    _check_backend(backend)
    if backend == "exact":
        return _psd_pivots_exact(g)
    w, _ = _sym_eig_float(g)
    if w.size == 0:
        return True, 0.0
    lam_min = float(w.min())
    lam_max = float(np.abs(w).max())
    return lam_min >= -tol * max(1.0, lam_max), lam_min
