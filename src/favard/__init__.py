"""Jacobi sequences of multivariate moment functionals and their Fock reconstruction.

The forward direction decomposes a probability measure on R^d, given
through its moments, into graded Jacobi data (level metrics Gomega_n and
preservation matrices alpha_{j|n}).  The converse direction rebuilds every
moment from such data on a symmetric interacting Fock space, operator
identities verified along the way.  Both directions run on an exact
rational backend or a float backend behind the same interface.
"""

from .cap import (
    CapOperators,
    extract_cap,
    verify_adjointness,
    verify_commutators,
    verify_jacobi_relation,
)
from .errors import (
    AdjointInconsistencyError,
    FavardConditionError,
    FavardError,
    FileFormatError,
    InconsistentSystemError,
    MomentDegreeError,
    NumericalBreakdownError,
    PositivityError,
    WordLengthError,
)
from .fock import build_fock, moment_of_word, roundtrip_report, vacuum_moments
from .gradation import (
    GradedBasis,
    GradedLevel,
    build_gradation,
    kernel_basis,
    project_onto_level,
    termination_level,
)
from .jacobi import (
    JacobiSequence,
    MeasureAnalysis,
    analyze,
    build_U,
    extract_jacobi,
    jacobi_file_text,
    load_jacobi_file,
    omega_matrix,
    save_jacobi_file,
    verify_favard_conditions,
)
from .mindex import (
    LevelBasis,
    creation_shift,
    enumerate_level,
    index_position,
    level_dimension,
    multi_factorial,
    tensor_metric,
)
from .moments import (
    CATALOG_MEASURES,
    MomentFunctional,
    apply,
    check_state_positivity,
    from_catalog,
    from_file,
    from_samples,
    gram,
    moment_file_text,
    save_moment_file,
)
from .poly import Polynomial, coordinate_multiply, evaluate, graded_component, monomial
from .reports import Check, Report

__version__ = "0.1.0"

__all__ = [
    "AdjointInconsistencyError",
    "CATALOG_MEASURES",
    "CapOperators",
    "Check",
    "FavardConditionError",
    "FavardError",
    "FileFormatError",
    "GradedBasis",
    "GradedLevel",
    "InconsistentSystemError",
    "JacobiSequence",
    "LevelBasis",
    "MeasureAnalysis",
    "MomentDegreeError",
    "MomentFunctional",
    "NumericalBreakdownError",
    "Polynomial",
    "PositivityError",
    "Report",
    "WordLengthError",
    "analyze",
    "apply",
    "build_U",
    "build_fock",
    "build_gradation",
    "check_state_positivity",
    "coordinate_multiply",
    "creation_shift",
    "enumerate_level",
    "evaluate",
    "extract_cap",
    "extract_jacobi",
    "from_catalog",
    "from_file",
    "from_samples",
    "graded_component",
    "gram",
    "index_position",
    "jacobi_file_text",
    "kernel_basis",
    "level_dimension",
    "load_jacobi_file",
    "moment_file_text",
    "moment_of_word",
    "monomial",
    "multi_factorial",
    "omega_matrix",
    "project_onto_level",
    "roundtrip_report",
    "save_jacobi_file",
    "save_moment_file",
    "tensor_metric",
    "termination_level",
    "vacuum_moments",
    "verify_adjointness",
    "verify_commutators",
    "verify_favard_conditions",
    "verify_jacobi_relation",
]
