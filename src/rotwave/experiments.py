"""Manufactured ground truths, synthetic noise and reproducible experiments.

Ground truths are closed-form pairs (psi*, Omega*) chosen so that psi* is an
admissible separated field of the requested azimuthal order: it must satisfy
the pole conditions *and* vanish like sin^|m| there, otherwise the
manufactured source falls outside L^2 and the discretization error stops
contracting.  Every shape and profile is sin^k(theta) times a polynomial in
x = cos(theta), and the operator maps sin^|m| P(x) to sin^|m| times another
polynomial, so sources come from exact polynomial algebra in x
(numpy.polynomial's power basis, `_X`; no computer algebra), never from
the solver's own stencils: solving on any grid measures genuine
discretization error (no inverse crime).

An experiment's noise-free part is built once per process and shared by
every run that needs it: `manufacture_truth` returns one read-only
`GroundTruth` per (name, overrides), and `noise_free` keeps, on the
stencils of the run's grid and under the truth's settings
(`GroundTruth.settings`), each truth's nodal source, Omega* and clean
state psi* (`NoiseFree`), so that they die with the grid and a truth made
again after the truth cache dropped it finds them.  `build_problem`
gives each run its own `InverseProblem` on the shared source and observes
the run's data from the shared psi* through the run's scheme, so one
clean state serves every noise level and observation scheme of a sweep;
its arrays are read-only.  `build_grid.cache_clear()` drops all of it.

Experiment configs are plain JSON documents; unknown keys are rejected.  A
run writes a JSON record plus a per-iteration CSV, and sweeps aggregate the
records into a summary CSV.
"""

from __future__ import annotations

import csv
import io
import json
import math
import pathlib
import time
import types
from dataclasses import MISSING, asdict, dataclass, field, fields, replace

import numpy as np
from numpy.polynomial import Polynomial

from .errors import ConfigurationError
from .grid import (
    ComplexField,
    DerivativeStencils,
    Grid,
    ScalarField,
    build_grid,
    build_stencils,
    shared_cache,
    weighted_norm,
)
from .inversion import (
    DataVector,
    InverseProblem,
    IterationConfig,
    ObservationScheme,
    ReconstructionTrace,
    data_norm,
    nesterov_landweber,
    observe,
)
from .operator import State

ITERATION_CSV_HEADER = "iter,residual,gamma,rel_err_gamma,rel_err_omega,step_size"
SWEEP_CSV_HEADER = (
    "run_id,noise,epsilon,scheme,K,final_residual,rel_err_gamma,rel_err_omega,wall_ms"
)


# ----------------------------------------------------------------------
# polynomial catalogue in x = cos(theta)
# ----------------------------------------------------------------------

_X = Polynomial([0.0, 1.0])  # x = cos(theta)


def _coeff(coeffs: dict, group: str, key: str, default: float) -> float:
    """Coefficient `key` of the truth's `group` (psi_coeffs or omega_coeffs),
    which must be a finite number."""
    value = coeffs.get(key, default)
    try:
        x = float(value)
    except (TypeError, ValueError, OverflowError):
        x = math.nan
    if not math.isfinite(x):
        raise ConfigurationError(
            f"truth_overrides.{group}.{key} must be a finite number, got {value!r}"
        )
    return x


# the coefficients each state shape and rotation profile reads
_SHAPE_COEFFS = {"sin_power": ("b",), "clamped_sin2": ("b",), "cos_poly": ("a", "b")}
_PROFILE_COEFFS = {"constant": ("a",), "solar_like": ("a", "b"), "odd_poly": ("a", "b", "c")}


def _check_coeffs(kind: str, name: str, coeffs: dict, catalogue: dict) -> None:
    """Reject an unknown shape or profile name, and any coefficient it does
    not read: an ignored coefficient would silently leave the default."""
    if name not in catalogue:
        raise ConfigurationError(f"unknown {kind} {name!r}")
    unknown = set(coeffs) - set(catalogue[name])
    if unknown:
        raise ConfigurationError(
            f"{kind} {name!r} takes coefficients {list(catalogue[name])}, "
            f"not {sorted(unknown)}"
        )


def _psi_shape(name: str, m: int, coeffs: dict) -> tuple[int, Polynomial]:
    """Closed-form state shape sin^k(theta) P(cos theta), returned as (k, P).

    The complex amplitude is applied separately.
    """
    _check_coeffs("state shape", name, coeffs, _SHAPE_COEFFS)
    b = _coeff(coeffs, "psi_coeffs", "b", 0)
    if name == "sin_power":
        return abs(m), 1 + b * _X
    if name == "clamped_sin2":
        return 2, 1 + b * _X
    return 0, _coeff(coeffs, "psi_coeffs", "a", 1) * _X + b * _X**2  # cos_poly, m = 0 shapes


def _omega_profile(name: str, coeffs: dict) -> Polynomial:
    """Rotation profile Omega as a polynomial in cos(theta)."""
    _check_coeffs("rotation profile", name, coeffs, _PROFILE_COEFFS)
    coeff = lambda key, default: _coeff(coeffs, "omega_coeffs", key, default)
    if name == "constant":
        return Polynomial([coeff("a", 1)])
    if name == "solar_like":  # a + b cos^2; default mean-zero
        b = coeff("b", 1)
        a = -b / 3 if coeffs.get("a") is None else coeff("a", 0)
        return a + b * _X**2
    return coeff("a", 0) + coeff("b", 1) * _X + coeff("c", -0.5) * _X**3  # odd_poly


def _delta_m(q: Polynomial, m: int, r: float) -> Polynomial:
    """delta_m(sin^|m| q) = sin^|m| * result, all in x = cos(theta).

    This is the associated-Legendre form of the separated Laplacian:
    [(1 - x^2) q'' - 2(|m| + 1) x q' - |m|(|m| + 1) q] / r^2.
    """
    mu = abs(m)
    return (
        (1 - _X**2) * q.deriv(2) - 2 * (mu + 1) * _X * q.deriv() - mu * (mu + 1) * q
    ) / r**2


def _check_admissible(k: int, m: int) -> None:
    """Reject shapes sin^k(theta) P(cos theta) that are not order-m fields.

    Admissible shapes factor as sin^|m|(theta) times a smooth even function
    about both poles; that is exactly what makes them traces of smooth
    fields of azimuthal order m.  Since cos(theta) is even and sin(theta) odd
    about each pole, that holds when k >= |m| and k - |m| is even.  Checking
    only the pole conditions is not enough: a shape with the wrong vanishing
    rate or parity (sin^2 at m = 1, sin^3 at m = 2, ...) can satisfy them
    while the manufactured source leaves L^2 and breaks the convergence of
    the solve.
    """
    if k < abs(m):
        raise ConfigurationError(
            f"state shape is not an admissible order-{m} field: "
            f"it vanishes like sin^{k}, slower than sin^|m|"
        )
    if (k - abs(m)) % 2:
        raise ConfigurationError(
            f"state shape is not an admissible order-{m} field: "
            f"shape/sin^|m| = sin^{k - abs(m)} * P(cos) is not even about the poles"
        )


def _on_grid(grid: Grid, k: int, poly: Polynomial) -> np.ndarray:
    """sin^k(theta) * poly(cos(theta)) at the grid nodes."""
    return np.sin(grid.nodes) ** k * poly(np.cos(grid.nodes))


TRUTH_PRESETS = {
    # clean full-data reconstruction instance
    "m3_default": dict(
        psi_name="sin_power",
        psi_coeffs={},
        amplitude=1.0,
        phase=0.4,
        omega_name="solar_like",
        omega_coeffs={},
        gamma_true=0.05,
        m=3,
        omega_freq=3.0,
        omega_ref=0.0,
        r=1.0,
    ),
    # noise-sweep instance
    "m2_default": dict(
        psi_name="sin_power",
        psi_coeffs={},
        amplitude=1.0,
        phase=0.4,
        omega_name="solar_like",
        omega_coeffs={},
        gamma_true=0.05,
        m=2,
        omega_freq=1.0,
        omega_ref=0.0,
        r=1.0,
    ),
    # axisymmetric forward-only instance
    "m0_default": dict(
        psi_name="cos_poly",
        psi_coeffs={"a": 1, "b": 0},
        amplitude=1.0,
        phase=0.0,
        omega_name="constant",
        omega_coeffs={"a": 1},
        gamma_true=0.5,
        m=0,
        omega_freq=2.0,
        omega_ref=0.0,
        r=1.0,
    ),
}


class GroundTruth:
    """Closed-form truth with the source computed by exact polynomial algebra.

    Read-only once built: `manufacture_truth` shares one truth between every
    run that asks for the same settings, so setting an attribute raises.
    """

    def __init__(
        self,
        psi_name,
        psi_coeffs,
        amplitude,
        phase,
        omega_name,
        omega_coeffs,
        gamma_true,
        m,
        omega_freq,
        omega_ref,
        r,
    ):
        self.psi_name = psi_name
        self.psi_coeffs = types.MappingProxyType(dict(psi_coeffs))
        self.amplitude = float(amplitude)
        self.phase = float(phase)
        self.omega_name = omega_name
        self.omega_coeffs = types.MappingProxyType(dict(omega_coeffs))
        self.gamma_true = float(gamma_true)
        # int(m) would truncate 2.5 to 2 and read True as 1
        if isinstance(m, bool) or not isinstance(m, (int, np.integer)):
            raise ConfigurationError(f"truth m must be an integer, got {m!r}")
        self.m = int(m)
        self.omega_freq = float(omega_freq)
        self.omega_ref = float(omega_ref)
        self.r = float(r)
        # one string per distinct set of settings, equal for equal ones:
        # repr tells 0.0 from -0.0, which compare equal.  `noise_free` keys
        # on it, so a truth evicted and made again finds its set-up
        self.settings = repr((
            psi_name, sorted(self.psi_coeffs.items()), self.amplitude, self.phase,
            omega_name, sorted(self.omega_coeffs.items()), self.gamma_true, self.m,
            self.omega_freq, self.omega_ref, self.r,
        ))
        for name in ("amplitude", "phase", "gamma_true", "omega_freq", "omega_ref", "r"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigurationError(
                    f"truth {name} must be a finite number, got {getattr(self, name)!r}"
                )
        if self.gamma_true <= 0:
            raise ConfigurationError("gamma_true must be positive")
        if self.r <= 0:
            raise ConfigurationError(f"sphere radius must be positive, got r={self.r}")
        if self.amplitude == 0:
            raise ConfigurationError("truth amplitude must be nonzero: psi* = 0 gives data y = 0")

        k, shape = _psi_shape(psi_name, self.m, self.psi_coeffs)
        _check_admissible(k, self.m)
        omega = _omega_profile(omega_name, self.omega_coeffs)

        # psi = sin^|m| q and delta_m keeps the sin^|m| factor, so every term
        # of the source is sin^|m| times a polynomial in x = cos(theta)
        q = (1 - _X**2) ** ((k - abs(self.m)) // 2) * shape
        lap = _delta_m(q, self.m, self.r)
        bilap = _delta_m(lap, self.m, self.r)
        alpha = ((1 - _X**2) * omega).deriv(2) / self.r**2
        beta = omega - self.omega_ref
        self._source_re = self.gamma_true * bilap
        self._source_im = (self.omega_freq - self.m * beta) * lap + self.m * alpha * q
        self._shape = (k, shape)
        self._omega = omega
        self._amp = self.amplitude * np.exp(1j * self.phase)  # set last: seals the truth

    def __setattr__(self, name, value):
        if "_amp" in vars(self):
            raise AttributeError(f"a GroundTruth is shared and read-only; cannot set {name!r}")
        object.__setattr__(self, name, value)

    def psi_exact(self, grid: Grid) -> ComplexField:
        vals = self._amp * _on_grid(grid, *self._shape)
        return ComplexField(m=self.m, values=vals)

    def omega_exact(self, grid: Grid) -> ScalarField:
        return ScalarField(values=_on_grid(grid, 0, self._omega))

    def source(self, grid: Grid) -> ComplexField:
        mu = abs(self.m)
        re = _on_grid(grid, mu, self._source_re)
        im = _on_grid(grid, mu, self._source_im)
        return ComplexField(m=self.m, values=self._amp * (re + 1j * im))


@shared_cache
def _shared_truth(name: str, overrides_json: str) -> GroundTruth:
    return GroundTruth(**{**TRUTH_PRESETS[name], **json.loads(overrides_json)})


def manufacture_truth(name: str, overrides: dict | None = None) -> GroundTruth:
    """A catalogue truth, optionally overriding its fields, shared per
    process: the same name and equal overrides give the same read-only
    `GroundTruth`, from a `grid.shared_cache` that `build_grid.cache_clear()`
    empties."""
    if name not in TRUTH_PRESETS:
        raise ConfigurationError(
            f"unknown truth {name!r}; catalogue: {sorted(TRUTH_PRESETS)}"
        )
    preset = dict(TRUTH_PRESETS[name])
    for key, value in (overrides or {}).items():
        if key not in preset:
            raise ConfigurationError(f"unknown truth override {key!r}")
        if not _fits(value, preset[key]):
            raise ConfigurationError(
                f"truth_overrides.{key} must be {_type_name(preset[key])}, got {value!r}"
            )
        preset[key] = value
    # the canonical form of the overrides: JSON with sorted keys, nested
    # dicts included, which tells 1 from 1.0 and True, and 0.0 from -0.0,
    # and reads back as values equal to the given ones
    try:
        canonical = json.dumps(overrides or {}, sort_keys=True, allow_nan=False)
    except (TypeError, ValueError):  # no config file holds it; GroundTruth checks it
        return GroundTruth(**preset)
    return _shared_truth(name, canonical)


# ----------------------------------------------------------------------
# noise
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class NoiseSpec:
    relative_level: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.relative_level < 1.0:
            raise ConfigurationError("relative noise level must lie in [0, 1)")
        s = self.seed
        if isinstance(s, bool) or not isinstance(s, (int, np.integer)) or s < 0:
            raise ConfigurationError(f"noise seed must be a nonnegative integer, got {s!r}")


def add_noise(y: DataVector, spec: NoiseSpec, grid: Grid) -> tuple[DataVector, float]:
    """Additive Gaussian noise rescaled to the exact relative 2-norm level.

    The calibration ||noise||_2 / ||y||_2 uses plain 2-norms; the returned
    delta is the weighted data norm of the injected noise, which is what the
    discrepancy rule compares residuals against.
    """
    if spec.relative_level == 0.0:
        return y, 0.0
    rng = np.random.default_rng(spec.seed)
    draw = rng.standard_normal(len(y.values))
    if np.iscomplexobj(y.values):
        draw = draw + 1j * rng.standard_normal(len(y.values))
    draw *= spec.relative_level * np.linalg.norm(y.values) / np.linalg.norm(draw)
    noisy = DataVector(values=y.values + draw, window=y.window)
    delta = data_norm(grid, DataVector(values=draw, window=y.window))
    return noisy, delta


# ----------------------------------------------------------------------
# experiment configuration
# ----------------------------------------------------------------------

GAMMA_INIT_SCALE = 3.0  # a run starts at (3 gamma*, 0), as every study does
RESIDUAL_FLOOR_REL = 1e-8  # a run's stopping threshold is >= this * ||y_delta||


@dataclass(frozen=True)
class ProbeConfig:
    radius: float = 0.1
    samples: int = 100


@dataclass(frozen=True)
class ExperimentConfig:
    run_id: str = "run"
    n: int = 100
    truth: str = "m3_default"
    truth_overrides: dict = field(default_factory=dict)
    scheme: ObservationScheme = field(default_factory=ObservationScheme)
    noise: NoiseSpec = field(default_factory=NoiseSpec)
    iteration: IterationConfig = field(default_factory=IterationConfig)
    probe: ProbeConfig = field(default_factory=ProbeConfig)
    output_dir: str | None = None

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        return _dataclass_from_dict(cls, doc, "config")

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        return cls.from_dict(json.loads(text))


_NESTED = {
    "scheme": ObservationScheme,
    "noise": NoiseSpec,
    "iteration": IterationConfig,
    "probe": ProbeConfig,
}


def _fits(value, default) -> bool:
    """Whether a config value has the type of its field's default.

    An int field takes an int but not a bool or a float; a float field takes
    an int or a finite float, not NaN or an infinity; a field defaulting to
    None takes anything.
    """
    if default is None:
        return True
    if isinstance(value, bool) and not isinstance(default, bool):
        return False
    if isinstance(default, float):
        return isinstance(value, int) or isinstance(value, float) and math.isfinite(value)
    return isinstance(value, type(default))


def _type_name(default) -> str:
    """What `_fits` asks of a value for a field with this default."""
    return "a finite float" if isinstance(default, float) else type(default).__name__


def _dataclass_from_dict(cls, doc: dict, path: str):
    if not isinstance(doc, dict):
        raise ConfigurationError(f"{path} must be an object")
    defaults = {
        f.name: f.default if f.default is not MISSING else f.default_factory()
        for f in fields(cls)
    }
    unknown = set(doc) - set(defaults)
    if unknown:
        raise ConfigurationError(f"unknown keys in {path}: {sorted(unknown)}")
    kwargs = {}
    for key, value in doc.items():
        if key in _NESTED and isinstance(value, dict):
            value = _dataclass_from_dict(_NESTED[key], value, f"{path}.{key}")
        if not _fits(value, defaults[key]):
            raise ConfigurationError(
                f"{path}.{key} must be {_type_name(defaults[key])}, got {value!r}"
            )
        kwargs[key] = value
    try:
        return cls(**kwargs)
    except TypeError as exc:
        raise ConfigurationError(f"invalid {path}: {exc}") from exc


def apply_overrides(config: ExperimentConfig, overrides: dict) -> ExperimentConfig:
    """Apply dotted-key overrides like {'iteration.max_iter': 50}.  Under the
    free-form `truth_overrides` dict a missing key (nested ones such as
    `psi_coeffs.b` too) is created; `manufacture_truth` validates it."""
    doc = asdict(config)
    for dotted, value in overrides.items():
        parts = dotted.split(".")
        free = parts[0] == "truth_overrides"
        node = doc
        for part in parts[:-1]:
            if free and part not in node:
                node[part] = {}
            if not isinstance(node.get(part), dict):
                raise ConfigurationError(f"unknown override path {dotted!r}")
            node = node[part]
        if parts[-1] not in node and not free:
            raise ConfigurationError(f"unknown override path {dotted!r}")
        node[parts[-1]] = value
    return ExperimentConfig.from_dict(doc)


# ----------------------------------------------------------------------
# run record and experiment driver
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class RunRecord:
    config: dict
    stop_index: int
    stop_reason: str
    final_residual: float
    rel_err_gamma: float
    rel_err_omega: float
    wall_ms: float
    iteration_csv: str | None
    state_solves: int  # the loop's forward solves (`ReconstructionTrace`)
    gradients: int  # the loop's adjoint gradients
    threshold: float  # the residual the run stopped against: max(tau delta, floor)
    delta: float  # weighted data norm of the injected noise (0 for clean data)

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "RunRecord":
        return cls(**json.loads(text))


def _rel_errors(grid, truth, om_true, gamma, omega_values):
    """Relative errors of gamma and of Omega (weighted L2) against the truth,
    whose nodal Omega is `om_true`; the Omega error is NaN where it is
    undefined (Omega* = 0) or Omega is not identified (m = 0)."""
    w = grid.weights
    eg = abs(gamma - truth.gamma_true) / abs(truth.gamma_true)
    norm = weighted_norm(w, om_true) if truth.m != 0 else 0.0
    return eg, weighted_norm(w, omega_values - om_true) / norm if norm > 0 else math.nan


@dataclass(frozen=True, eq=False)
class NoiseFree:
    """A truth's problem on one grid under the full scheme, Omega* at the
    nodes and the clean state: the part of a run that no noise level or
    observation scheme changes.  Read-only."""

    problem: InverseProblem  # its source is the truth's, at the nodes
    omega: np.ndarray  # Omega* at the nodes
    state: State  # psi* = S(gamma*, Omega*), with its phi


def noise_free(truth: GroundTruth, stencils: DerivativeStencils) -> NoiseFree:
    """The truth's `NoiseFree` set-up on the stencils' grid, computed on first
    use and kept in `stencils.derived` under the truth's settings, so shared
    by every run on that grid with an equal truth."""
    key = ("noise_free", truth.settings)
    setup = stencils.derived.get(key)
    if setup is None:
        grid = stencils.grid
        omega = truth.omega_exact(grid).values
        problem = InverseProblem(
            grid=grid,
            stencils=stencils,
            m=truth.m,
            omega_freq=truth.omega_freq,
            source=truth.source(grid),
            scheme=ObservationScheme(),
            omega_ref=truth.omega_ref,
        )
        _, psi = problem.state(truth.gamma_true, omega)
        for a in (problem.source.values, omega, psi.values, psi.phi):
            a.flags.writeable = False
        setup = stencils.derived[key] = NoiseFree(problem=problem, omega=omega, state=psi)
    return setup


def build_problem(config: ExperimentConfig):
    """Truth, problem bundle (with its grid and stencils), the truth's state
    and its clean synthetic data.  The truth and its state are the shared,
    read-only ones (`manufacture_truth`, `noise_free`); the problem, the
    noise-free one under the run's scheme, and the data are the run's own."""
    truth = manufacture_truth(config.truth, config.truth_overrides)
    clean = noise_free(truth, build_stencils(build_grid(config.n, truth.r)))
    problem = replace(clean.problem, scheme=config.scheme)
    return truth, problem, clean.state, observe(clean.state, problem.scheme, problem.grid)


def csv_text(header: str, rows) -> str:
    """CSV text under a comma-separated header.  str and int cells are
    written as they are and every other cell as repr(float(x)), so a numpy
    scalar never leaks its repr (`np.float64(...)`) into a cell."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header.split(","))
    writer.writerows(
        [c if isinstance(c, (str, int)) else repr(float(c)) for c in row] for row in rows
    )
    return buf.getvalue()


def iteration_table(
    grid: Grid, truth: GroundTruth, om_true: np.ndarray, trace: ReconstructionTrace
) -> str:
    """Per-iteration CSV text (iter,residual,gamma,rel errors,step size);
    `om_true` is the truth's nodal Omega."""
    rows = []
    for k, ((gamma, omega), res) in enumerate(zip(trace.iterates, trace.residuals)):
        eg, eo = _rel_errors(grid, truth, om_true, gamma, omega)
        step = trace.step_sizes[k - 1] if k >= 1 else float("nan")
        rows.append([k, res, gamma, eg, eo, step])
    return csv_text(ITERATION_CSV_HEADER, rows)


def run_experiment(config: ExperimentConfig) -> RunRecord:
    """Manufacture, observe, corrupt, reconstruct from (`GAMMA_INIT_SCALE` *
    gamma_true, 0) and record one experiment."""
    start = time.perf_counter()
    truth, problem, _, y_clean = build_problem(config)
    grid = problem.grid
    y_delta, delta = add_noise(y_clean, config.noise, grid)
    floor = max(config.iteration.residual_floor, RESIDUAL_FLOOR_REL * data_norm(grid, y_delta))
    iteration = replace(config.iteration, residual_floor=floor)
    trace = nesterov_landweber(
        problem, y_delta, delta, iteration, gamma_init=GAMMA_INIT_SCALE * truth.gamma_true
    )
    gamma_k, omega_k = trace.iterates[trace.stop_index]
    om_true = noise_free(truth, problem.stencils).omega
    eg, eo = _rel_errors(grid, truth, om_true, gamma_k, omega_k)
    wall_ms = (time.perf_counter() - start) * 1e3

    csv_path = None
    if config.output_dir is not None:
        outdir = pathlib.Path(config.output_dir)
        outdir.mkdir(parents=True, exist_ok=True)
        csv_path = str(outdir / f"{config.run_id}_iterations.csv")
        with open(csv_path, "w") as fh:
            fh.write(iteration_table(grid, truth, om_true, trace))
    record = RunRecord(
        config=asdict(config),
        stop_index=trace.stop_index,
        stop_reason=trace.stop_reason,
        final_residual=trace.residuals[trace.stop_index],
        rel_err_gamma=eg,
        rel_err_omega=eo,
        wall_ms=wall_ms,
        iteration_csv=csv_path,
        state_solves=trace.state_solves,
        gradients=trace.gradients,
        threshold=trace.threshold,
        delta=delta,
    )
    if config.output_dir is not None:
        path = pathlib.Path(config.output_dir) / f"{config.run_id}_record.json"
        path.write_text(record.to_json())
    return record


SWEEP_AXES = ("noise_levels", "epsilon_values", "schemes")


def _sweep_point(base: ExperimentConfig, axis: str, value, path: str) -> ExperimentConfig:
    """The config of one sweep run; a value that does not fit the axis is a
    ConfigurationError."""
    if axis == "schemes":
        return replace(base, scheme=_dataclass_from_dict(ObservationScheme, value, path))
    try:
        x = float(value)
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"{path} must be a number, got {value!r}") from exc
    if axis == "noise_levels":
        return replace(base, noise=replace(base.noise, relative_level=x))
    kind = "full" if x == 0.0 else "restricted"
    return replace(base, scheme=replace(base.scheme, kind=kind, epsilon=x))


def sweep(base: ExperimentConfig, axis: str, values: list) -> tuple[list[RunRecord], str]:
    """Run a family of experiments along one axis; returns records + summary CSV."""
    if axis not in SWEEP_AXES:
        raise ConfigurationError(f"unknown sweep axis {axis!r}; one of {SWEEP_AXES}")
    # a sweep over no values would pass without running anything
    if not values:
        raise ConfigurationError(f"sweep along {axis} needs at least one value")
    records = []
    rows = []
    for i, value in enumerate(values):
        run_id = f"{base.run_id}_{axis}_{i}"
        try:
            cfg = replace(_sweep_point(base, axis, value, f"{axis}[{i}]"), run_id=run_id)
            rec = run_experiment(cfg)
        except (ConfigurationError, ArithmeticError) as exc:
            # an invalid or numerically failing run: record it, keep sweeping
            records.append(None)
            error = f"error: {type(exc).__name__}: {exc}"
            rows.append([run_id, "", "", "", "", "", "", "", error])
            continue
        records.append(rec)
        rows.append(
            [
                cfg.run_id,
                cfg.noise.relative_level,
                cfg.scheme.epsilon,
                cfg.scheme.kind + ("+re" if cfg.scheme.real_part_only else ""),
                rec.stop_index,
                rec.final_residual,
                rec.rel_err_gamma,
                rec.rel_err_omega,
                rec.wall_ms,
            ]
        )
    return records, csv_text(SWEEP_CSV_HEADER, rows)
