"""Jacobi sequences: the Favard data (Gomega_n, alpha_{j|n}) of a moment functional.

The n-th symmetric tensor power of R^d is identified with gradation level n
through the map U_n sending the occupation basis vector of m to the image
of the vacuum under the creation word of m.  In the monic level basis
creation is the index shift m -> m + e_j followed by the projector onto
range G_{n+1} (module cap), and kernel compatibility makes U_n the
projector onto range G_n.  Pulling the polynomial pre-scalar product and
the preservation block back through U_n therefore returns the gradation's
own data:

    Gomega_n = U_n^T G_n U_n = G_n,      alpha_{j,n} = Azero[j][n],

the second because Azero[j][n] vanishes on ker G_n.  The pair
(Gomega, alpha) is the complete reconstruction datum and the one hand-off
between the two directions: together with the combinatorial index-shift
creators and their Gomega-weighted adjoints (cap.annihilator) it rebuilds
every moment (module fock).

The operator form Omega_n = T_n^{-1} Gomega_n (T_n the diagonal tensor
metric m!/n!) is derived on demand; the serialized object is always the
basis-honest Gram matrix Gomega_n.

Admissibility (the Favard conditions) of a Jacobi sequence:

  (i)   Gomega_n symmetric positive semidefinite,
  (ii)  kernel compatibility: lifting a kernel vector of Gomega_n by any
        coordinate shift lands in the kernel of Gomega_{n+1}; this is
        exactly the condition under which the creators have adjoints,
  (iii) alpha symmetry: Gomega_n alpha_{j,n} = alpha_{j,n}^T Gomega_n.

verify_favard_conditions checks these on the data alone.  analyze adds
(iv), a property of the extraction rather than of the data, to the same
report: U-unitarity U_n^T Gomega_n U_n = Gomega_n with U_n = build_U(cap,
n) from the extracted creation blocks, so the creators realise the
identification with the tensor levels.

Every functional-derived sequence passes all four; a hand-built sequence
may fail (ii), in which case no Fock reconstruction exists.
"""

import json
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

from . import linalg
from ._util import atomic_write_text, format_matrix, parse_matrix
from .cap import CapOperators
from .errors import FileFormatError
from .gradation import GradedBasis
from .mindex import creation_shift, enumerate_level, level_dimension, tensor_metric
from .reports import Report

__all__ = [
    "JacobiSequence",
    "MeasureAnalysis",
    "build_U",
    "extract_jacobi",
    "verify_favard_conditions",
    "omega_matrix",
    "jacobi_file_text",
    "save_jacobi_file",
    "load_jacobi_file",
]


@dataclass
class JacobiSequence:
    """Levels 0..N of Favard data: exactly what a Jacobi file holds.

    gomega[n] is the d_n x d_n metric of the n-th symmetric tensor power;
    alpha[j][n] the preservation matrix of coordinate j at level n.  The
    alpha lists may stop one level short of N when the source moment budget
    ended at degree 2N (the level-N preservation block needs degree 2N+1).
    tol is only the default tolerance of the checks run on the data.
    """

    d: int
    N: int
    backend: str
    gomega: list
    alpha: dict
    tol: float = linalg.DEFAULT_TOL

    @property
    def alpha_levels(self) -> int:
        lengths = {len(v) for v in self.alpha.values()}
        if len(lengths) != 1:
            raise ValueError("ragged alpha lists")
        return lengths.pop() - 1

    def max_word_length(self) -> int:
        """Longest vacuum word whose expectation the data determines."""
        return 2 * self.N + 1 if self.alpha_levels >= self.N else 2 * self.N


@lru_cache(maxsize=None)
def _metric_diag(d, n, backend):
    """Diagonal of the tensor metric T_n = m!/n! in the backend's scalars."""
    diag = tensor_metric(d, n).metric_diag
    return tuple(map(float, diag)) if backend == "float" else diag


def omega_matrix(js: JacobiSequence, n: int):
    """Omega_n = T_n^{-1} Gomega_n under the tensor metric m!/n!."""
    diag = _metric_diag(js.d, n, js.backend)
    return [[x / t for x in row] for t, row in zip(diag, js.gomega[n])]


def build_U(cap: CapOperators, n: int):
    """Matrix of U_n: column for e_m is the ascending creation word of m applied to 1.

    Creators commute, so any word with occupation m gives the same column;
    verify_commutators checks that in G-seminorm.
    """
    if n > cap.N:
        raise ValueError(f"U_{n} needs creation data to level {n}, have {cap.N}")
    cols = []
    for m in enumerate_level(cap.d, n):
        vec = [Fraction(1) if cap.backend == "exact" else 1.0]
        word = [j for j, k in enumerate(m, start=1) for _ in range(k)]
        for step, j in enumerate(word):
            vec = linalg.mat_vec(cap.aplus[j][step], vec)
        cols.append(vec)
    return linalg.transpose(cols)


def extract_jacobi(gb: GradedBasis, cap: CapOperators) -> JacobiSequence:
    """Read the Favard data off the gradation: Gomega_n = G_n, alpha_{j,n} = Azero[j][n]."""
    if gb.N != cap.N or gb.d != cap.d:
        raise ValueError("gradation and cap operators disagree on d or N")
    return JacobiSequence(
        d=cap.d,
        N=cap.N,
        backend=cap.backend,
        gomega=[lvl.gram for lvl in gb.levels],
        alpha={j: list(mats) for j, mats in cap.azero.items()},
        tol=cap.tol,
    )


def verify_favard_conditions(js: JacobiSequence, tol=None) -> Report:
    """Pass/fail per Favard condition (i)-(iii) per level, on the data alone."""
    tol = js.tol if tol is None else tol
    exact = js.backend == "exact"
    report = Report(name="favard conditions")
    for n, g in enumerate(js.gomega):
        dev = linalg.mat_max_diff(g, linalg.transpose(g))
        report.add(
            f"Gomega symmetric level {n}",
            linalg.within(dev, js.backend, tol),
            deviation=dev,
        )
        ok, floor = linalg.psd_floor(g, js.backend, tol)
        report.add(
            f"Gomega PSD level {n}",
            ok,
            deviation=None if exact else floor,
            detail="" if ok else "negative direction found",
        )
        # the operator form: T_n Omega_n must reproduce Gomega_n exactly
        diag = _metric_diag(js.d, n, js.backend)
        back = [[t * x for x in row] for t, row in zip(diag, omega_matrix(js, n))]
        dev = linalg.mat_max_diff(back, g)
        report.add(
            f"tensor-metric symmetry of Omega level {n}",
            linalg.within(dev, js.backend, tol),
            deviation=dev,
        )
    for n in range(js.N):
        kern = linalg.nullspace(js.gomega[n], js.backend, tol)
        worst = 0
        for v in kern:
            for j in range(1, js.d + 1):
                shift = creation_shift(js.d, n, j)
                lifted = linalg.mat_vec(shift, v)
                image = linalg.mat_vec(js.gomega[n + 1], lifted)
                dev = max((abs(x) for x in image), default=0)
                if dev > worst:
                    worst = dev
        report.add(
            f"kernel lift compatibility level {n} -> {n + 1}",
            linalg.within(worst, js.backend, tol),
            deviation=worst,
        )
    for j, mats in sorted(js.alpha.items()):
        for n, a in enumerate(mats):
            lhs = linalg.mat_mul(js.gomega[n], a)
            rhs = linalg.mat_mul(linalg.transpose(a), js.gomega[n])
            dev = linalg.mat_max_diff(lhs, rhs)
            report.add(
                f"alpha symmetry j={j} level {n}",
                linalg.within(dev, js.backend, tol),
                deviation=dev,
            )
    return report


# --------------------------------------------------------------- file format

_TOP_KEYS = {"d", "N", "order", "metric", "levels"}
_LEVEL_KEYS = {"n", "Gomega", "alpha"}
ORDER_TAG = "graded-lex"
METRIC_TAG = "m!/n!"


def jacobi_file_text(js: JacobiSequence) -> str:
    """Canonical serialization; bit-exact round trips on the exact backend."""
    levels = []
    for n in range(js.N + 1):
        entry = {"n": n, "Gomega": format_matrix(js.gomega[n], js.backend)}
        if n <= js.alpha_levels:
            entry["alpha"] = {
                str(j): format_matrix(js.alpha[j][n], js.backend)
                for j in range(1, js.d + 1)
            }
        levels.append(entry)
    doc = {
        "d": js.d,
        "N": js.N,
        "order": ORDER_TAG,
        "metric": METRIC_TAG,
        "levels": levels,
    }
    return json.dumps(doc, indent=1, sort_keys=True) + "\n"


def save_jacobi_file(js: JacobiSequence, path: str) -> None:
    atomic_write_text(path, jacobi_file_text(js))


def load_jacobi_file(path_or_text, is_text=False) -> JacobiSequence:
    """Parse and validate the Jacobi JSON format.

    Strict: exactly the documented keys, the documented order and metric
    tags, one level entry per n in 0..N in ascending order, square matrices
    of the right dimension.  Scalars must be 'p/q' strings (exact) or
    numbers (float), consistently; the first Gomega scalar picks the
    backend.  alpha may be omitted at the top level only (moment budget
    2N), never below.
    """
    if is_text:
        text = path_or_text
    else:
        with open(path_or_text) as fh:
            text = fh.read()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FileFormatError(f"Jacobi file is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or set(doc) != _TOP_KEYS:
        raise FileFormatError(f"Jacobi file keys must be exactly {sorted(_TOP_KEYS)}")
    d, n_top = doc["d"], doc["N"]
    if not isinstance(d, int) or d < 1:
        raise FileFormatError(f"bad dimension {d!r}")
    if not isinstance(n_top, int) or n_top < 0:
        raise FileFormatError(f"bad level count {n_top!r}")
    if doc["order"] != ORDER_TAG:
        raise FileFormatError(f"unsupported basis order {doc['order']!r}")
    if doc["metric"] != METRIC_TAG:
        raise FileFormatError(f"unsupported tensor metric {doc['metric']!r}")
    levels = doc["levels"]
    if not isinstance(levels, list) or len(levels) != n_top + 1:
        raise FileFormatError(f"expected {n_top + 1} level entries")
    backend = None
    gomega = []
    alpha = {j: [] for j in range(1, d + 1)}
    alpha_stopped = False
    for n, entry in enumerate(levels):
        if not isinstance(entry, dict) or not set(entry) <= _LEVEL_KEYS:
            raise FileFormatError(f"level {n}: keys must be within {sorted(_LEVEL_KEYS)}")
        if entry.get("n") != n:
            raise FileFormatError(f"level entries must be ascending; expected n={n}")
        if "Gomega" not in entry:
            raise FileFormatError(f"level {n}: missing Gomega")
        dim = level_dimension(d, n)
        if backend is None:
            probe = entry["Gomega"]
            if not (isinstance(probe, list) and probe and isinstance(probe[0], list) and probe[0]):
                raise FileFormatError("level 0: Gomega must be a nonempty matrix")
            backend = "exact" if isinstance(probe[0][0], str) else "float"
        gomega.append(parse_matrix(entry["Gomega"], backend, dim, dim, f"Gomega level {n}"))
        if "alpha" in entry:
            if alpha_stopped:
                raise FileFormatError(f"level {n}: alpha present after a level without it")
            amap = entry["alpha"]
            if not isinstance(amap, dict) or set(amap) != {str(j) for j in range(1, d + 1)}:
                raise FileFormatError(
                    f"level {n}: alpha must map every coordinate '1'..'{d}'"
                )
            for j in range(1, d + 1):
                alpha[j].append(
                    parse_matrix(amap[str(j)], backend, dim, dim, f"alpha[{j}] level {n}")
                )
        else:
            if n < n_top:
                raise FileFormatError(f"level {n}: alpha may be omitted only at the top level")
            alpha_stopped = True
    return JacobiSequence(
        d=d, N=n_top, backend=backend, gomega=gomega, alpha=alpha
    )


# ----------------------------------------------------------------- analysis


@dataclass
class MeasureAnalysis:
    """Everything one run of the pipeline learned about a moment functional."""

    source: str
    backend: str
    d: int
    N: int
    tol: float
    level_dims: list
    ranks: list
    termination: object
    jacobi: JacobiSequence
    reports: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.reports.values())

    def to_dict(self):
        return {
            "source": self.source,
            "backend": self.backend,
            "d": self.d,
            "N": self.N,
            "tol": self.tol,
            "level_dims": self.level_dims,
            "ranks": self.ranks,
            "termination_level": self.termination,
            "ok": self.ok,
            "reports": {k: r.to_dict() for k, r in sorted(self.reports.items())},
        }


def analyze(phi, N, tol=linalg.DEFAULT_TOL, with_roundtrip=True) -> MeasureAnalysis:
    """Run the full pipeline on phi and verify every identity on the way."""
    from .cap import extract_cap, verify_adjointness, verify_commutators, verify_jacobi_relation
    from .fock import _assemble_fock, _moment_report
    from .gradation import build_gradation, termination_level

    gb = build_gradation(phi, N, tol)
    cap = extract_cap(gb)
    js = extract_jacobi(gb, cap)
    reports = {
        "positivity": gb.positivity,
        "jacobi_relation": verify_jacobi_relation(cap, gb),
        "adjointness": verify_adjointness(cap, gb),
        "commutators": verify_commutators(cap),
        "favard_conditions": verify_favard_conditions(js, tol),
    }
    for n, g in enumerate(js.gomega):
        u = build_U(cap, n)
        dev = linalg.mat_max_diff(linalg.mat_mul(linalg.mat_mul(linalg.transpose(u), g), u), g)
        reports["favard_conditions"].add(
            f"U-unitarity level {n}", linalg.within(dev, js.backend, tol), deviation=dev
        )
    if with_roundtrip:
        # the report above already holds the admissibility verdict, so the
        # round trip builds without the build_fock gate
        reports["roundtrip"] = _moment_report(phi, js, *_assemble_fock(js, tol))
    return MeasureAnalysis(
        source=phi.source,
        backend=phi.backend,
        d=phi.d,
        N=N,
        tol=tol,
        level_dims=[len(lvl.indices) for lvl in gb.levels],
        ranks=[lvl.rank for lvl in gb.levels],
        termination=termination_level(gb),
        jacobi=js,
        reports=reports,
    )
