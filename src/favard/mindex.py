"""Multi-index bookkeeping for graded monomial and symmetric tensor bases.

A *level* collects the exponent multi-indices of one fixed total degree.
Levels are always enumerated in graded-lexicographic order, descending in
the leading coordinate: for d=2, n=2 the order is (2,0), (1,1), (0,2).
Every matrix in this package is written against that enumeration, and the
serialized file formats inherit it, so the order is part of the public
contract.

The symmetric tensor power of R^d of order n has the same index set.  The
basis vector attached to a multi-index m is the symmetrized elementary
tensor with occupation numbers m, built with the averaging (idempotent)
symmetrizer.  Under the Euclidean tensor scalar product those vectors are
orthogonal with squared norm m!/n!, which is the diagonal metric returned
by :func:`tensor_metric`.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

MultiIndex = tuple

__all__ = [
    "MultiIndex",
    "LevelBasis",
    "level_dimension",
    "enumerate_level",
    "enumerate_upto",
    "index_position",
    "tensor_metric",
    "creation_shift",
    "multi_factorial",
]


def _check_d(d):
    if not isinstance(d, int) or d < 1:
        raise ValueError(f"dimension must be a positive integer, got {d!r}")


def _check_n(n):
    if not isinstance(n, int) or n < 0:
        raise ValueError(f"degree must be a nonnegative integer, got {n!r}")


def level_dimension(d: int, n: int) -> int:
    """Number of multi-indices in d coordinates with total degree n."""
    _check_d(d)
    _check_n(n)
    return comb(n + d - 1, d - 1)


@lru_cache(maxsize=None)
def enumerate_level(d: int, n: int) -> tuple:
    """All multi-indices of total degree n, graded-lexicographic descending.

    The leading coordinate runs from n down to 0, recursing on the rest.
    """
    _check_d(d)
    _check_n(n)
    if d == 1:
        return ((n,),)
    out = []
    for k in range(n, -1, -1):
        for tail in enumerate_level(d - 1, n - k):
            out.append((k,) + tail)
    return tuple(out)


@lru_cache(maxsize=None)
def enumerate_upto(d: int, n: int) -> tuple:
    """Levels 0..n in order: one column order whose prefixes serve every lower n."""
    return tuple(m for k in range(n + 1) for m in enumerate_level(d, k))


@lru_cache(maxsize=None)
def index_position(d: int, n: int) -> dict:
    """Map from multi-index to its column position inside level n."""
    return {m: i for i, m in enumerate(enumerate_level(d, n))}


def multi_factorial(m: MultiIndex) -> int:
    """m! = m_1! m_2! ... m_d!"""
    out = 1
    for k in m:
        out *= factorial(k)
    return out


@dataclass(frozen=True)
class LevelBasis:
    """One level of the symmetric tensor basis together with its metric.

    ``metric_diag[i]`` is the squared norm m!/n! of the symmetrized basis
    tensor for ``indices[i]``; off-diagonal scalar products vanish.
    """

    d: int
    n: int
    indices: tuple
    metric_diag: tuple

    def metric_matrix(self):
        dim = len(self.indices)
        return [
            [self.metric_diag[i] if i == j else Fraction(0) for j in range(dim)]
            for i in range(dim)
        ]


def tensor_metric(d: int, n: int) -> LevelBasis:
    """Level basis of the n-th symmetric tensor power with diagonal metric m!/n!."""
    idxs = enumerate_level(d, n)
    nfac = factorial(n)
    diag = tuple(Fraction(multi_factorial(m), nfac) for m in idxs)
    return LevelBasis(d=d, n=n, indices=idxs, metric_diag=diag)


def creation_shift(d: int, n: int, j: int):
    """0/1 matrix of the index shift m -> m + e_j from level n to level n+1.

    This is the matrix of the elementary symmetric creation operator in the
    occupation-number basis under the averaging symmetrizer convention.
    Coordinates are 1-based: 1 <= j <= d.
    """
    _check_d(d)
    if not 1 <= j <= d:
        raise ValueError(f"coordinate j must satisfy 1 <= j <= {d}, got {j}")
    src = enumerate_level(d, n)
    pos = index_position(d, n + 1)
    rows = level_dimension(d, n + 1)
    cols = len(src)
    mat = [[0] * cols for _ in range(rows)]
    for c, m in enumerate(src):
        lifted = list(m)
        lifted[j - 1] += 1
        mat[pos[tuple(lifted)]][c] = 1
    return mat
