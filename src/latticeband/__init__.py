"""Band and gap structure of one-dimensional lattice Schroedinger operators.

The operator couples neighbouring sites through a periodic local potential
v(n) on the main diagonal and a periodic nonlocal coupling u(n) on the two
adjacent diagonals. The package propagates wave solutions safely through
spectral gaps, classifies energies via the period-map discriminant, builds
band diagrams, analyses the fundamental gap solutions (knots, neighbour
ratios, effective local potential, beats), and cross-checks every diagram
with an independent eigenvalue-counting oracle on finite hard-wall chains.
"""

from .bands import (
    BandDiagram,
    BandEdge,
    FloquetPair,
    Monodromy,
    SpectralClass,
    Zone,
    ZoneClass,
    bloch_phase,
    classify_energy,
    diagram_from_edges,
    dirichlet_spectrum,
    find_band_edges,
    floquet_multipliers,
    monodromy,
)
from .core import (
    HOPPING_EPSILON,
    RESCALE_LIMIT,
    RESIDUAL_TOLERANCE,
    CoefficientTable,
    InitialCondition,
    LatticeSpec,
    PeriodicPotential,
    SolutionTrace,
    propagate,
    recurrence_residual,
    stagger,
    validate_potential,
)
from .errors import (
    ConfigError,
    DegenerateEdgeError,
    GridResolutionWarning,
    HoppingDegenerateError,
    InsufficientDataError,
    LatticeBandError,
    NotForbiddenError,
    NumericalError,
    OutsideAllowedZoneError,
    ValidationMismatchError,
)
from .floquet import (
    BeatEstimate,
    EffectivePotentialProfile,
    KnotList,
    SweepResult,
    beat_estimate,
    effective_consistency_residual,
    effective_potential,
    effective_potential_periodicity_residual,
    envelope,
    floquet_solution,
    ic_sweep,
    knot_periodicity_residual,
    knots,
    mean_growth_rate,
    ratio_periodicity_residual,
    ratio_sequence,
    select_branch,
    tail_growth_rate,
)
from .oracle import (
    FiniteOperator,
    ValidationCheck,
    ValidationReport,
    cross_validate,
    sturm_count,
)
from .scenario import (
    FIG1_ENERGIES,
    EnergyRange,
    ReportSeries,
    RunResult,
    Scenario,
    Tolerances,
    parse_scenario,
    parse_scenario_file,
    run_scenario,
    scenario_hash,
    serialize_scenario,
)

__version__ = "0.1.0"
