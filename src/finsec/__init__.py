"""Finite section and rectangular finite section solvers for band operators on lattices."""

from .catalog import (
    EXAMPLE_IDS,
    BUILTIN_DOMAINS,
    ExampleCase,
    build_example,
    builtin_domain,
    expected_outcomes,
    geometric_rhs,
)
from .errors import (
    ConfigError,
    FinsecError,
    GeneratorBoundError,
    HypothesisViolatedError,
    InsufficientDataError,
    NoFeasibleMError,
    NonFiniteResultError,
    NumericError,
    OpenFacetError,
    SingularGramError,
    SingularSectionError,
    UnboundedDomainError,
    UnknownExampleError,
    ZeroNotInteriorError,
)
from .fsm import (
    adjacency_section_invertible,
    classify_subsequences,
    fsm_solve,
    inverse_norm,
    stability_scan,
)
from .geometry import (
    Facet,
    IndexSet,
    StarlikeDomain,
    boundary_layer,
    lattice_section,
    lattice_section_size,
    validate_domain,
)
from .linalg import (
    least_squares,
    min_singular_value,
    spectral_norm,
)
from .operators import (
    AdjacencyGraph,
    BandDiagonals,
    BlockPeriodic,
    ConstantRule,
    OperatorSpec,
    PeriodicRule,
    Shift,
    SupportedVector,
    TableRule,
    compose_shift,
)
from .reports import RfsmRecord, RfsmReport, StabilityRecord, StabilityReport
from .rfsm import (
    RfsmParameters,
    choose_parameters,
    convergence_study,
    normal_equations_solve,
    overflow_norm,
    reference_tail_bound,
    rfsm_solve,
    solution_bound,
)
from .sections import (
    SectionMatrix,
    assemble,
    fsm_section,
    overflow_block,
    rfsm_section,
)

__version__ = "0.1.0"
