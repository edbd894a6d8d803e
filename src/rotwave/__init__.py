"""Separated inertial-wave solves on a rotating sphere and the simultaneous
recovery of viscosity and latitudinal differential rotation from surface
observations via accelerated Landweber iteration with adjoint-state
gradients."""

from .errors import ConfigurationError, NearResonanceError
from .grid import (
    ComplexField,
    DerivativeStencils,
    Grid,
    ScalarField,
    build_grid,
    build_stencils,
    norm_sobolev,
)
from .operator import (
    Parameters,
    State,
    WaveSystem,
    apply_B_prime,
    assemble_forward,
    frequency_condition,
    smallness_condition,
    solve,
)
from .inversion import (
    DataVector,
    GradientPair,
    InverseProblem,
    IterationConfig,
    ObservationScheme,
    ParameterMetric,
    ReconstructionTrace,
    adjoint_gradient,
    data_inner,
    data_norm,
    nesterov_landweber,
    observe,
    observe_adjoint,
    sensitivity,
    tcc_probe,
)
from .experiments import (
    ExperimentConfig,
    GroundTruth,
    NoiseSpec,
    ProbeConfig,
    RunRecord,
    add_noise,
    manufacture_truth,
    run_experiment,
    sweep,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
