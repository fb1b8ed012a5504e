"""Quantum free-fall experiments with Gaussian and cat-state test masses.

The package drops nonclassical wavepackets through a uniform force field
and extracts time-of-flight statistics: mean crossing times from the
exact moment dynamics, semiclassical spreads with their state-dependent
enhancement factor, and operational arrival-time densities from the
probability current at a detector plane. Gravity and uniformly
accelerated frames are two parameterizations of the same linear
Hamiltonian, which makes equivalence-principle comparisons exact.
"""

from ._version import __version__
from .core import DEFAULT_UNITS, MassPair, UnitSystem
from .errors import (
    BoundaryBreachError,
    ConfigurationError,
    DegenerateCrossingError,
    DegenerateStateError,
    DomainError,
    InfeasibleTargetError,
    NoCrossingError,
    ParseError,
    PreconditionError,
    SimulationError,
)
from .states import (
    CAT,
    GAUSSIAN,
    MomentSet,
    WavepacketSpec,
    analytic_moments,
    mixture_moments,
    normalization_constant,
)
from .prepare import (
    MatchReport,
    check_matched,
    match_second_particle,
    velocity_bound,
)
from .evolve import (
    ACCELERATED_FRAME,
    GRAVITY,
    LinearPotentialParams,
    arrival_current,
    closed_form_field,
    dump_snapshots,
    moment_evolution,
)
from .tof import (
    TofDistribution,
    asymptotic_sigma_tof,
    crossing_spread,
    crossing_time_from_moments,
    distribution_distance,
    distribution_from_current,
    ehrenfest_tof,
    epsilon_factor,
    semiclassical_sigma_tof,
)
from .experiments import (
    STATE_FAMILIES,
    ExperimentConfig,
    ExperimentReport,
    Particle,
    SolverSettings,
    SweepSettings,
    fit_power_law,
    run_decoherence_comparison,
    run_equivalence_test,
    run_galileo_pair,
    run_mass_sweep,
)
from .config import DEFAULT_CONFIG_TEXT, parse_config, parse_config_text
# The grid-based oracle of the closed forms above.
from .validate import (
    EvolutionResult, GridField, SpatialGrid, boundary_probability,
    build_wavefunction, current_tof_distribution, default_timestep,
    exact_wavefunction, make_grid, mean_crossing_time, norm, numeric_moments,
    plan_domain, refine_timestep, split_step_evolve,
)
