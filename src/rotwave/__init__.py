"""Separated inertial-wave solves on a rotating sphere and the simultaneous
recovery of viscosity and latitudinal differential rotation from surface
observations via accelerated Landweber iteration with adjoint-state
gradients."""

from types import ModuleType as _ModuleType

from .errors import ConfigurationError, NearResonanceError
from .grid import (
    ComplexField,
    DerivativeStencils,
    Grid,
    ScalarField,
    build_grid,
    build_stencils,
)
from .operator import (
    AxisymmetricSystem,
    State,
    WaveSystem,
    apply_B_prime,
    assemble_forward,
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
    data_norm,
    nesterov_landweber,
    observe,
    sensitivity,
)
from .checks import tcc_probe
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

# the names bound above but not the submodules: a star import must not
# rebind the caller's `operator`
__all__ = [k for k, v in globals().items() if k[0] != "_" and not isinstance(v, _ModuleType)]
__version__ = "0.1.0"
