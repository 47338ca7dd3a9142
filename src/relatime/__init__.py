"""relatime: density-matrix evolution as seen through inaccurate clocks.

The library computes the state a quantum system should be assigned when
the evolution time is known only through a noisy watch reading: a
kernel-weighted mixture of exact-time evolutions. That averaging
suppresses energy-basis coherences (energy decoherence), coincides with
ensemble-level energy-driven collapse dynamics for the Gaussian kernel,
and is undone by conditioning on an internal clock subsystem.
"""

__version__ = "0.1.0"

from .errors import (
    ConsistencyError,
    DimensionMismatchError,
    DimensionOverflowError,
    EigensolverError,
    EmptyTableError,
    InvalidDimensionError,
    KernelOffGridError,
    NonPositiveLambdaError,
    NotHermitianError,
    NotPointerTimeError,
    NotPositiveError,
    QuadratureDriftError,
    QuantumStateError,
    RelatimeError,
    ScenarioParseError,
    ScenarioValidationError,
    TraceNotOneError,
    ZeroProbabilityError,
)
from .qmat import (
    DIMENSION_CAP,
    HERMITICITY_TOL,
    PSD_TOL,
    TRACE_TOL,
    DensityMatrix,
    Hamiltonian,
    Observable,
    expectation,
    partial_trace,
    purity,
    tensor,
)
from .kernels import (
    DeltaKernel,
    GaussianKernel,
    QuadratureRule,
    TabulatedKernel,
    TimeKernel,
    UniformKernel,
    make_gaussian_kernel,
    quadrature_for,
)
from .evolution import (
    CoherenceReport,
    coherence_report,
    evolve_pearle,
    evolve_relational_dephasing,
    evolve_relational_quadrature,
    evolve_unitary,
)
from .clockmodel import (
    ClockSystem,
    CompositeScenario,
    alice_conditional,
    bob_conditional,
    bob_state,
    discretize_on_grid,
    pointer_weights,
    unconditioned_expectation,
)
from .scenario import (
    ResultTable,
    ScenarioFile,
    emit_scenario,
    parse_scenario,
    run_clock_recovery,
    run_decoherence_sweep,
    run_pearle_compare,
    run_report,
)
