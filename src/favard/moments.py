"""Moment functionals: states on the polynomial algebra given by their moments.

A moment functional of dimension d and degree budget D stores one scalar
per exponent multi-index of total degree <= D, normalized so the empty
index has value 1.  It is the linear-functional view of a probability
measure on R^d seen through its moments; positivity of the measure shows
up as positive semidefiniteness of the monomial Gram matrices, which
:func:`check_state_positivity` tests level by level.

Built-in catalog (all moments exact rationals):

==================== ======================================================
gaussian_product     standard normal per coordinate, m_k = (k-1)!! for even k
uniform_box          uniform on [-1,1]^d, m_k = 1/(k+1) for even k
exponential_product  rate-1 exponential per coordinate, m_k = k!
rademacher_product   fair +-1 coin per coordinate, m_k = 1 for even k
atoms                finite atomic measure sum_i w_i delta_{x_i}
circle_uniform       arc length on the unit circle (d=2 only),
                     m_(a,b) = (a-1)!!(b-1)!!/(a+b)!! for even a,b
==================== ======================================================
"""

import json
from dataclasses import dataclass
from fractions import Fraction
from math import factorial, inf
from operator import add

from . import linalg
from ._util import atomic_write_text
from .errors import FileFormatError, MomentDegreeError
from .mindex import enumerate_upto
from .poly import Polynomial

__all__ = [
    "MomentFunctional",
    "CATALOG_MEASURES",
    "from_catalog",
    "from_file",
    "from_samples",
    "save_moment_file",
    "moment_file_text",
    "apply",
    "gram",
    "moment_matrix",
    "check_state_positivity",
    "double_factorial",
]

CATALOG_MEASURES = (
    "gaussian_product",
    "uniform_box",
    "exponential_product",
    "rademacher_product",
    "atoms",
    "circle_uniform",
)


@dataclass
class MomentFunctional:
    """Linear functional on polynomials of degree <= max_degree.

    values maps every multi-index of total degree <= max_degree to its
    moment; the scalar family is fixed by backend ("exact" -> Fraction,
    "float" -> float, every moment finite).
    """

    d: int
    max_degree: int
    values: dict
    backend: str = "exact"
    source: str = ""

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("dimension must be >= 1")
        if self.max_degree < 0:
            raise ValueError("max_degree must be >= 0")
        sc = linalg.scalars(self.backend)
        for m in enumerate_upto(self.d, self.max_degree):
            if m not in self.values:
                raise ValueError(f"missing moment for multi-index {m}")
            if not sc.finite(self.values[m]):
                raise ValueError(f"moment for multi-index {m} is not finite: {self.values[m]!r}")
        mass = self.values[(0,) * self.d]
        # exact states are normalized exactly; float ones up to rounding noise
        if not sc.within(abs(mass - 1), 1e-12):
            raise ValueError(
                f"state must be normalized: moment of 1 is {mass}, expected 1"
            )

    def moment(self, m):
        m = tuple(m)
        if sum(m) > self.max_degree:
            raise MomentDegreeError(
                f"moment of degree {sum(m)} requested, only {self.max_degree} available"
            )
        return self.values[m]


def apply(phi: MomentFunctional, p: Polynomial):
    """phi(p); raises MomentDegreeError if deg p exceeds the budget."""
    if p.d != phi.d:
        raise ValueError(f"polynomial dimension {p.d} != functional dimension {phi.d}")
    if p.degree() > phi.max_degree:
        raise MomentDegreeError(
            f"polynomial degree {p.degree()} exceeds available moments ({phi.max_degree})"
        )
    total = linalg.scalars(phi.backend).zero
    for m, c in p.terms.items():
        total = total + c * phi.values[m]
    return total


def gram(phi: MomentFunctional, a_list, b_list):
    """Matrix of phi(a_i * b_j); degrees must fit the moment budget."""
    return [[apply(phi, a * b) for b in b_list] for a in a_list]


def moment_matrix(phi: MomentFunctional, rows, cols):
    """[phi(x^a x^b)] for a in rows, b in cols: a block of the moment matrix H."""
    try:
        return [[phi.values[tuple(map(add, a, b))] for b in cols] for a in rows]
    except KeyError as exc:
        raise MomentDegreeError(f"moment {exc} is past degree {phi.max_degree}") from None


def check_state_positivity(phi: MomentFunctional, N: int, tol=linalg.DEFAULT_TOL):
    """PSD test of the monomial Gram matrices up to degree N.

    For each k <= N the Gram matrix of all monomials of degree <= k is
    tested (exactly on the exact backend, by eigenvalue floor on the float
    backend).  Needs moments to degree 2N.
    """
    from .reports import Report

    if 2 * N > phi.max_degree:
        raise MomentDegreeError(
            f"positivity check to degree {N} needs moments to degree {2 * N}, "
            f"only {phi.max_degree} available"
        )
    report = Report(name=f"state positivity to degree {N}")
    exact = linalg.scalars(phi.backend) is linalg.EXACT  # exact floor: the failing pivot
    for k in range(N + 1):
        idxs = enumerate_upto(phi.d, k)
        h = moment_matrix(phi, idxs, idxs)
        ok, floor = linalg.psd_floor(h, phi.backend, tol)
        report.add(
            f"monomial gram PSD at degree <= {k}",
            ok,
            deviation=None if exact else floor,
            detail=f"failing pivot index {floor}" if exact and not ok else "",
        )
    return report


# ------------------------------------------------------------------ catalog


def double_factorial(k: int) -> int:
    """k!! with the conventions (-1)!! = 0!! = 1."""
    if k < 0:
        return 1
    out = 1
    while k > 1:
        out *= k
        k -= 2
    return out


def _gaussian_1d(k):
    return Fraction(double_factorial(k - 1)) if k % 2 == 0 else Fraction(0)


def _uniform_1d(k):
    return Fraction(1, k + 1) if k % 2 == 0 else Fraction(0)


def _exponential_1d(k):
    return Fraction(factorial(k))


def _rademacher_1d(k):
    return Fraction(1) if k % 2 == 0 else Fraction(0)


_PRODUCT_1D = {
    "gaussian_product": _gaussian_1d,
    "uniform_box": _uniform_1d,
    "exponential_product": _exponential_1d,
    "rademacher_product": _rademacher_1d,
}


def _circle_moment(m):
    a, b = m
    if a % 2 or b % 2:
        return Fraction(0)
    return Fraction(
        double_factorial(a - 1) * double_factorial(b - 1), double_factorial(a + b)
    )


def _atomic_moments(pts, wts, d, max_degree):
    """Exact moments of the atoms pts carrying the normalized weights wts."""
    values = {}
    for m in enumerate_upto(d, max_degree):
        v = Fraction(0)
        for p, w in zip(pts, wts):
            term = w
            for x, k in zip(p, m):
                if k:
                    term *= x**k
            v += term
        values[m] = v
    return values


def _check_weights(weights, kind):
    """Refuse a negative weight and weights that sum to zero (all zero, once nonnegative)."""
    if any(w < 0 for w in weights):
        raise ValueError(f"{kind} weights must be nonnegative")
    if not any(weights):
        raise ValueError(f"{kind} weights sum to zero")


def from_catalog(name, d, max_degree, atoms=None, backend="exact"):
    """Moment functional of a named catalog measure.

    atoms is required for name="atoms": a list of (point, weight) pairs
    with points of length d; weights are normalized to total mass 1.
    """
    if name not in CATALOG_MEASURES:
        raise ValueError(f"unknown catalog measure {name!r}; choose from {CATALOG_MEASURES}")
    values = {}
    if name in _PRODUCT_1D:
        mom1 = _PRODUCT_1D[name]
        for m in enumerate_upto(d, max_degree):
            v = Fraction(1)
            for k in m:
                v *= mom1(k)
            values[m] = v
    elif name == "circle_uniform":
        if d != 2:
            raise ValueError("circle_uniform is a planar measure, d must be 2")
        for m in enumerate_upto(d, max_degree):
            values[m] = _circle_moment(m)
    else:  # atoms
        if not atoms:
            raise ValueError("atoms catalog measure needs a nonempty (point, weight) list")
        pts = []
        wts = []
        for point, weight in atoms:
            point = tuple(Fraction(x) for x in point)
            if len(point) != d:
                raise ValueError(f"atom {point} has length {len(point)}, expected {d}")
            pts.append(point)
            wts.append(Fraction(weight))
        _check_weights(wts, "atom")
        total = sum(wts)
        values = _atomic_moments(pts, [w / total for w in wts], d, max_degree)
    cast = linalg.scalars(backend).cast
    values = {m: _cast_moment(cast, v) for m, v in values.items()}
    label = f"catalog:{name}(d={d})"
    return MomentFunctional(
        d=d, max_degree=max_degree, values=values, backend=backend, source=label
    )


def _cast_moment(cast, v):
    """cast(v); an exact moment past the float range is inf, as a float sum gives."""
    try:
        return cast(v)
    except OverflowError:
        return inf if v > 0 else -inf


def from_samples(points, max_degree, weights=None, backend=None):
    """Empirical moment functional of a weighted sample cloud.

    Exact (an atomic measure) when every coordinate and weight is an int or
    Fraction, statistical otherwise; pass backend to force the scalar
    family.  Weights default to uniform and are normalized to sum 1.
    """
    pts = [tuple(p) for p in points]
    if not pts:
        raise ValueError("need at least one sample point")
    d = len(pts[0])
    if d < 1 or any(len(p) != d for p in pts):
        raise ValueError("sample points must share one positive length")
    if weights is None:
        weights = [1] * len(pts)
    if len(weights) != len(pts):
        raise ValueError("weights must match points")

    def _is_exact(x):
        return isinstance(x, (int, Fraction)) and not isinstance(x, bool)

    exact_in = all(_is_exact(x) for p in pts for x in p) and all(
        _is_exact(w) for w in weights
    )
    if backend is None:
        backend = "exact" if exact_in else "float"
    if linalg.scalars(backend) is linalg.EXACT:
        pts = [tuple(Fraction(x) for x in p) for p in pts]
        weights = [Fraction(w) for w in weights]
        _check_weights(weights, "sample")
        total = sum(weights)
        values = _atomic_moments(pts, [w / total for w in weights], d, max_degree)
    else:
        import numpy as np

        arr = np.asarray(pts, dtype=float)
        w = np.asarray([float(x) for x in weights], dtype=float)
        _check_weights(w, "sample")
        w = w / w.sum()
        values = {}
        with np.errstate(over="ignore", invalid="ignore"):  # MomentFunctional names the moment
            for m in enumerate_upto(d, max_degree):
                prod = np.ones(len(arr))
                for col, k in enumerate(m):
                    if k:
                        prod = prod * arr[:, col] ** k
                values[m] = float(prod @ w)
    return MomentFunctional(
        d=d,
        max_degree=max_degree,
        values=values,
        backend=backend,
        source=f"samples:n={len(pts)}",
    )


# --------------------------------------------------------------- file format


_MOMENT_KEYS = {"d", "max_degree", "scalar", "moments"}
_ENTRY_KEYS = {"m", "v"}


def moment_file_text(phi: MomentFunctional) -> str:
    """Canonical serialization; deterministic bytes on the exact backend."""
    sc = linalg.scalars(phi.backend)
    entries = [{"m": list(m), "v": sc.format(phi.values[m])}
               for m in enumerate_upto(phi.d, phi.max_degree)]
    doc = {"d": phi.d, "max_degree": phi.max_degree, "scalar": sc.tag, "moments": entries}
    return json.dumps(doc, indent=1, sort_keys=True) + "\n"


def save_moment_file(phi: MomentFunctional, path: str) -> None:
    atomic_write_text(path, moment_file_text(phi))


def from_file(path_or_text, is_text=False):
    """Load a moment functional from its JSON file format.

    The schema is strict: exactly the keys d, max_degree, scalar, moments;
    each entry has keys m, v; rational mode wants 'p/q' strings, float mode
    wants numbers; every multi-index of degree <= max_degree must appear
    exactly once; the empty index must carry the value 1.
    """
    if is_text:
        text = path_or_text
    else:
        with open(path_or_text) as fh:
            text = fh.read()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FileFormatError(f"moment file is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise FileFormatError("moment file must be a JSON object")
    if set(doc) != _MOMENT_KEYS:
        raise FileFormatError(
            f"moment file keys must be exactly {sorted(_MOMENT_KEYS)}, got {sorted(doc)}"
        )
    d, max_degree, scalar = doc["d"], doc["max_degree"], doc["scalar"]
    if not isinstance(d, int) or d < 1:
        raise FileFormatError(f"bad dimension {d!r}")
    if not isinstance(max_degree, int) or max_degree < 0:
        raise FileFormatError(f"bad max_degree {max_degree!r}")
    sc = next((f for f in (linalg.EXACT, linalg.FLOAT) if f.tag == scalar), None)
    if sc is None:
        raise FileFormatError(f"scalar must be 'rational' or 'float', got {scalar!r}")
    if not isinstance(doc["moments"], list):
        raise FileFormatError("moments must be a list")
    values = {}
    for entry in doc["moments"]:
        if not isinstance(entry, dict) or set(entry) != _ENTRY_KEYS:
            raise FileFormatError(f"moment entries must have keys m and v, got {entry!r}")
        m = entry["m"]
        if (
            not isinstance(m, list)
            or len(m) != d
            or any(not isinstance(k, int) or isinstance(k, bool) or k < 0 for k in m)
        ):
            raise FileFormatError(f"bad multi-index {m!r}")
        if sum(m) > max_degree:
            raise FileFormatError(f"multi-index {m} exceeds max_degree {max_degree}")
        key = tuple(m)
        if key in values:
            raise FileFormatError(f"duplicate multi-index {m}")
        values[key] = sc.parse(entry["v"])
    source = "file" if is_text else f"file:{path_or_text}"
    try:
        return MomentFunctional(
            d=d, max_degree=max_degree, values=values, backend=sc.name, source=source
        )
    except ValueError as exc:
        raise FileFormatError(str(exc)) from exc
