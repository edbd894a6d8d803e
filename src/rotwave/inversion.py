"""Observation operators, adjoint-state gradients and Nesterov-Landweber.

The forward map of the parameter identification problem is F = L o S where
S(gamma, Omega) solves the separated wave equation and L restricts the state
to the observed colatitudes (`restrict`, optionally the real part).  Gradients
come from one adjoint solve per evaluation:

    z = B*^-1 L* residual,          B* = W^-1 B^H W, the exact discrete adjoint
    d/dgamma  ->  -Re <delta^2 psi, z>
    d/dOmega  ->  -m * Im{ alpha* (conj(psi) z) - (delta_m conj(psi)) z }

where alpha* (`apply_alpha_adjoint`) is the weighted adjoint of the map
Omega -> alpha_Omega.

The minus sign is fixed by the analysis: it is the sign of the sensitivity
F'(p) dp = -L B^-1 B'(dp) psi.
The Omega gradient density is mapped into the parameter space by a Riesz
solve in the configured Sobolev metric (H1 or H2), which acts as a
smoothing preconditioner and pins the weighted mean to zero.

`InverseProblem.state` is the one place a forward state is built and
solved: one `assemble_forward` and one `WaveSystem.solve_values`.
`observed` and `residual` restrict its psi (`restrict`, and `- y` for the
residual).  `nesterov_landweber` takes every misfit and gradient from that
path, which the checks verify: a line-search trial's misfit is the norm
of `residual`, and each search's gradient is one `adjoint_gradient`, one
adjoint and one Riesz solve.  Its line search makes at most
`MOMENTUM_BACKTRACKS` trials from the momentum point and at most
`MAX_BACKTRACKS` from the iterate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.polynomial.legendre import legval

from .errors import ConfigurationError, NearResonanceError
from .grid import (
    ComplexField,
    DerivativeStencils,
    Grid,
    ScalarField,
    _check_field,
    weighted_mean,
    weighted_norm,
)
from .operator import (
    State,
    WaveSystem,
    apply_alpha_adjoint,
    apply_B_prime,
    assemble_forward,
)

# ----------------------------------------------------------------------
# observation schemes
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ObservationScheme:
    """Which part of the surface state is measured."""

    kind: str = "full"  # "full" | "restricted"
    epsilon: float = 0.0
    real_part_only: bool = False

    def __post_init__(self):
        if self.kind == "full":
            if self.epsilon != 0.0:
                raise ConfigurationError("full scheme requires epsilon = 0")
        elif self.kind == "restricted":
            if not 0.0 < self.epsilon < math.pi / 2:
                raise ConfigurationError(
                    f"restricted scheme needs 0 < epsilon < pi/2, got {self.epsilon}"
                )
        else:
            raise ConfigurationError(f"unknown scheme kind {self.kind!r}")


@dataclass(frozen=True, eq=False)
class DataVector:
    values: np.ndarray  # complex, or real when real_part_only
    mask: np.ndarray  # observed node indices


def observation_mask(grid: Grid, scheme: ObservationScheme) -> np.ndarray:
    """Indices of the nodes in the observed window; a window that holds no
    node is a ConfigurationError, since it would observe nothing."""
    eps = scheme.epsilon
    mask = np.where((grid.nodes > eps) & (grid.nodes < math.pi - eps))[0]
    if len(mask) == 0:
        raise ConfigurationError(
            f"observation window (epsilon={eps}) holds no node of the n={grid.n} grid"
        )
    return mask


def restrict(psi: np.ndarray, scheme: ObservationScheme, mask: np.ndarray) -> np.ndarray:
    """The state values `psi` at the observed nodes `mask`, real part only when
    the scheme says so: the one spelling of the observation L."""
    observed = psi[mask]
    return observed.real if scheme.real_part_only else observed


def observe(psi: ComplexField, scheme: ObservationScheme, grid: Grid) -> DataVector:
    """Restrict the state to the observed window, optionally real part only."""
    _check_field(grid, psi)
    mask = observation_mask(grid, scheme)
    return DataVector(values=restrict(psi.values, scheme, mask), mask=mask)


def observe_adjoint(d: DataVector, grid: Grid, m: int = 0) -> ComplexField:
    """Zero-extension back to the full grid (real data embed as complex).

    The azimuthal tag m is metadata for downstream pairing; the data vector
    itself does not carry one.
    """
    out = np.zeros(grid.n, dtype=complex)
    out[d.mask] = d.values
    return ComplexField(m=m, values=out)


def data_norm(grid: Grid, d: DataVector) -> float:
    """`weighted_norm` over the observed window, the norm the iteration stops on."""
    return weighted_norm(grid.weights[d.mask], d.values)


def data_inner(grid: Grid, a: DataVector, b: DataVector) -> float:
    """Real inner product on the data space."""
    return float(np.sum((a.values * np.conj(b.values)).real * grid.weights[a.mask]))


# ----------------------------------------------------------------------
# parameter metric and Riesz map
# ----------------------------------------------------------------------


class ParameterMetric:
    """Product metric gamma_scale * dgamma^2 + ||dOmega||_{H1 or H2}^2.

    The Omega block is realized by the closure operator A = -delta_0 (H1) or
    delta_0^2 (H2); the Riesz map solves A q + lambda 1 = g - mean_w(g) with
    the weighted mean of q pinned to zero.  Since A 1 = 0, that q is
    x - mean_w(x) for the mean-pinned (A + s 1 v^T) x = g: the m = 0 mixed
    solve A = (gamma delta_0 + d) delta_0 with gamma = 1, d = 0 (H2) or
    gamma = 0, d = -1 (H1), which the metric holds as a real, mean-pinned
    `WaveSystem` (nonsingular, so its pivot ratio goes unchecked) and reads
    psi from `solve_values`.  The bilinear form is evaluated as <u, A v>_w
    with A on the second argument, which reproduces the raw density exactly
    and keeps the discrete adjoint identity at roundoff level.
    """

    def __init__(self, grid, stencils, name: str = "H2", gamma_scale: float = 1.0):
        if name not in ("H1", "H2"):
            raise ConfigurationError(f"unknown parameter metric {name!r}")
        if gamma_scale <= 0:
            raise ConfigurationError("gamma_scale must be positive")
        self.grid = grid
        self.name = name
        self.gamma_scale = float(gamma_scale)
        self._lap = stencils.delta_matrix(0)
        gamma, d = (1.0, 0.0) if name == "H2" else (0.0, -1.0)
        self._system = WaveSystem(self._lap, gamma, d, 0.0, grid.weights)

    def project_mean_zero(self, g: np.ndarray) -> np.ndarray:
        return g - weighted_mean(self.grid, g)

    def riesz(self, g: np.ndarray) -> np.ndarray:
        """Solve the metric operator against a mean-zero projected density."""
        return self.project_mean_zero(self._system.solve_values(np.asarray(g, dtype=float))[0])

    def apply(self, v: np.ndarray) -> np.ndarray:
        """The metric operator A applied to v."""
        lap_v = self._lap @ v
        return -lap_v if self.name == "H1" else self._lap @ lap_v

    def omega_inner(self, u: np.ndarray, v: np.ndarray) -> float:
        return float(np.sum(u * self.apply(v) * self.grid.weights))

    def pair_inner(self, a: "GradientPair", b: "GradientPair") -> float:
        return self.gamma_scale * a.dgamma * b.dgamma + self.omega_inner(
            a.domega.values, b.domega.values
        )

    def pair_norm(self, a: "GradientPair") -> float:
        return math.sqrt(max(self.pair_inner(a, a), 0.0))


@dataclass(frozen=True, eq=False)
class GradientPair:
    """Riesz representative of a parameter-space functional."""

    dgamma: float
    domega: ScalarField


def smooth_omega(rng: np.random.Generator, metric: ParameterMetric, degree: int) -> np.ndarray:
    """Random smooth mean-zero Omega direction: a Legendre series in
    cos(theta) up to `degree`, coefficients drawn from `rng` and damped like
    k^-1.5, then projected to weighted mean zero."""
    coeffs = rng.standard_normal(degree) / np.arange(1, degree + 1) ** 1.5
    profile = legval(np.cos(metric.grid.nodes), np.concatenate([[0.0], coeffs]))
    return metric.project_mean_zero(profile)


# ----------------------------------------------------------------------
# problem bundle and forward/sensitivity/adjoint machinery
# ----------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class InverseProblem:
    """Everything fixed during a reconstruction run."""

    grid: Grid
    stencils: DerivativeStencils
    m: int
    omega_freq: float
    source: ComplexField
    scheme: ObservationScheme
    omega_ref: float = 0.0
    allow_negative_gamma: bool = False

    def __post_init__(self):
        n, m = len(self.source.values), self.source.m
        if n != self.grid.n or m != self.m:
            raise ConfigurationError(
                f"source has {n} values of order m={m}; the problem needs "
                f"{self.grid.n} values of order m={self.m}"
            )

    @cached_property
    def mask(self) -> np.ndarray:
        """Observed node indices, computed once per problem."""
        return observation_mask(self.grid, self.scheme)

    @cached_property
    def observed_weights(self) -> np.ndarray:
        """Quadrature weights of the observed nodes, the data norm's weights."""
        return self.grid.weights[self.mask]

    def state(self, gamma: float, omega_values: np.ndarray) -> tuple[WaveSystem, State]:
        """The factored forward operator at (gamma, Omega) and the state
        psi = S(gamma, Omega) from one `assemble_forward` and one solve."""
        system = assemble_forward(
            gamma, omega_values, self.omega_ref, self.omega_freq, self.m,
            self.grid, self.stencils, self.allow_negative_gamma,
        )
        psi, phi = system.solve_values(self.source.values)
        return system, State(m=self.m, values=psi, phi=phi)

    def observed(self, gamma: float, omega_values: np.ndarray) -> DataVector:
        """F(p) = `restrict`(psi) of the state at p."""
        psi = self.state(gamma, omega_values)[1]
        return DataVector(values=restrict(psi.values, self.scheme, self.mask), mask=self.mask)

    def residual(
        self, gamma: float, omega_values: np.ndarray, y: DataVector
    ) -> tuple[WaveSystem, State, DataVector]:
        """State at a point and its data residual F(p) - y = `restrict`(psi) - y."""
        system, psi = self.state(gamma, omega_values)
        r = restrict(psi.values, self.scheme, self.mask) - y.values
        return system, psi, DataVector(values=r, mask=self.mask)


def sensitivity(
    dp: GradientPair,
    psi: State,
    system: WaveSystem,
    grid: Grid,
    stencils: DerivativeStencils,
    scheme: ObservationScheme,
) -> DataVector:
    """Directional derivative F'(p) dp = -L B^-1 B'(dp) psi at the state psi."""
    rhs = apply_B_prime(dp.dgamma, dp.domega, psi, grid, stencils, psi.m, phi=psi.phi)
    dpsi = ComplexField(m=psi.m, values=system.solve_values(-rhs.values)[0])
    return observe(dpsi, scheme, grid)


def adjoint_gradient(
    problem: InverseProblem,
    residual: DataVector,
    psi: State,
    system: WaveSystem,
    metric: ParameterMetric,
):
    """Riesz gradient of the misfit functional driven by a data residual.

    Returns (pair, density) where pair is the GradientPair in the metric and
    density the raw (pre-Riesz) Omega functional density; the latter gives
    the squared gradient norm as gamma_scale*dgamma^2 + <domega, density>_w.

    The adjoint state z is the exact discrete one, solved through the
    forward factorization, and delta_m psi is the state's own phi.  The raw
    parts pair z with +B'(.) psi; the Omega part applies the weighted
    adjoint of the alpha coefficient map, the discretely exact counterpart
    of the analytic (sin/r^2) d/dtheta((1/sin) d/dtheta(.)) form.  The
    functional is their negative because the sensitivity is
    F'(p) dp = -L B^-1 B'(dp) psi; domega is the Riesz map of it.
    """
    grid, st, m = problem.grid, problem.stencils, problem.m
    w = grid.weights
    z = system.solve_weighted_adjoint(observe_adjoint(residual, grid).values, w)
    raw_gamma = float(np.sum((st.delta_matrix(m) @ psi.phi) * np.conj(z) * w).real)
    if m != 0:
        c = np.imag(np.conj(psi.values) * z)
        shear = np.imag(np.conj(psi.phi) * z)
        density = m * (apply_alpha_adjoint(grid, st, c) - shear)
    else:
        density = np.zeros(grid.n)
    g = -density
    dgamma = -raw_gamma / metric.gamma_scale
    return GradientPair(dgamma=dgamma, domega=ScalarField(values=metric.riesz(g))), g


# ----------------------------------------------------------------------
# Nesterov-Landweber iteration
# ----------------------------------------------------------------------


# The paper's momentum weight (k-1)/(k+alpha-1) with alpha = 3 (Neubauer
# 2017; Hubmer & Ramlau 2017) and the line search's first step, shrink
# factor, Armijo constant and trial budgets.  Every experiment uses these
# values, so they are constants; the loop reads them at call time.
NESTEROV_ALPHA = 3.0
MU0 = 1.0
SHRINK = 0.5
ARMIJO_C = 1e-4
# The fallback search from p_k ends the run when it fails, so it keeps the
# long budget.  A search from the momentum point only decides whether the
# fallback runs: on criterion 6 and the noise battery every one that
# succeeds does so within 3 trials, and 2 would change criterion 6's
# iterates.
MAX_BACKTRACKS = 40
MOMENTUM_BACKTRACKS = 4


@dataclass(frozen=True)
class IterationConfig:
    tau: float = 1.1
    max_iter: int = 500
    parameter_metric: str = "H2"
    gamma_scale: float = 1.0
    residual_floor: float = 0.0  # absolute floor on the stopping threshold

    def __post_init__(self):
        if self.tau <= 1.0:
            raise ConfigurationError("discrepancy factor tau must exceed 1")
        if self.max_iter < 0:
            raise ConfigurationError(f"max_iter must be nonnegative, got {self.max_iter}")


@dataclass(frozen=True, eq=False)
class ReconstructionTrace:
    iterates: list  # (gamma_k, omega_k values) for k = 0..K
    residuals: list  # ||F(p_k) - y||_Y for k = 0..K
    step_sizes: list  # accepted mu_k per update (length K)
    stop_index: int
    stop_reason: str  # discrepancy | residual_floor | max_iter |
    #                   line_search_failure | near_resonance
    threshold: float
    delta: float
    state_solves: int  # forward solves made, the first one included
    gradients: int  # adjoint gradients made, one per line search


def nesterov_landweber(
    problem: InverseProblem,
    y_delta: DataVector,
    delta: float,
    config: IterationConfig,
    gamma_init: float,
) -> ReconstructionTrace:
    """Accelerated Landweber with discrepancy stopping, from (gamma_init, 0).

    Two-line iteration with momentum weight (k-1)/(k+alpha-1), alpha =
    `NESTEROV_ALPHA`, gradient step from a warm-started backtracking line
    search (Armijo decrease on the half-squared misfit): the first trial
    step is `MU0`, each backtrack multiplies it by `SHRINK`, and a step is
    accepted under the Armijo constant `ARMIJO_C`; the next iteration
    starts at the accepted step / `SHRINK`.  A monotone safeguard falls
    back to a plain gradient step from p_k whenever the accelerated step
    would increase the misfit; this keeps the residual history
    nonincreasing, which the discrepancy principle relies on.  The search
    from the momentum point makes at most `MOMENTUM_BACKTRACKS` trials, the
    fallback at most `MAX_BACKTRACKS`.  A trial's misfit is the norm of
    `InverseProblem.residual`; at each search's start point the gradient is
    `adjoint_gradient` of the same residual.  The trace
    counts the state solves and gradients.
    """
    grid = problem.grid
    metric = ParameterMetric(
        grid, problem.stencils, config.parameter_metric, config.gamma_scale
    )
    if delta < 0:
        raise ConfigurationError("noise level delta must be nonnegative")
    threshold = max(config.tau * delta, config.residual_floor)
    w_obs = problem.observed_weights
    state_solves = gradients = 0

    def misfit(ga, om):
        """||F(p) - y||_Y at p = (ga, om), the norm of `data_norm`."""
        nonlocal state_solves
        state_solves += 1
        return weighted_norm(w_obs, problem.residual(ga, om, y_delta)[2].values)

    gamma = float(gamma_init)
    omega = np.zeros(grid.n)

    iterates = [(gamma, omega.copy())]
    step_sizes: list[float] = []
    stop_reason = None
    try:
        res_current = misfit(gamma, omega)
    except NearResonanceError:
        res_current, stop_reason = float("nan"), "near_resonance"
    residuals = [res_current]
    gamma_prev, omega_prev = gamma, omega.copy()
    mu_start = MU0

    k = 0
    while stop_reason is None:
        if res_current <= threshold:
            stop_reason = "discrepancy" if config.tau * delta >= res_current else "residual_floor"
            break
        if k >= config.max_iter:
            stop_reason = "max_iter"
            break
        k += 1
        weight = (k - 1) / (k + NESTEROV_ALPHA - 1)
        z_gamma = gamma + weight * (gamma - gamma_prev)
        z_omega = omega + weight * (omega - omega_prev)
        if z_gamma <= 0 and not problem.allow_negative_gamma:
            z_gamma, z_omega = gamma, omega  # momentum point infeasible

        accepted = None
        for src_gamma, src_omega, is_fallback in (
            (z_gamma, z_omega, False),
            (gamma, omega, True),
        ):
            state_solves += 1
            try:
                system, psi, res_vec = problem.residual(src_gamma, src_omega, y_delta)
            except NearResonanceError:
                stop_reason = "near_resonance"
                break
            gradients += 1
            grad, g_density = adjoint_gradient(problem, res_vec, psi, system, metric)
            dgamma, domega = grad.dgamma, grad.domega.values
            phi0 = 0.5 * weighted_norm(w_obs, res_vec.values) ** 2
            decrease = metric.gamma_scale * dgamma**2 + float(
                np.sum(domega * g_density * grid.weights)
            )
            decrease = max(decrease, 0.0)
            mu = mu_start
            for _ in range(MAX_BACKTRACKS if is_fallback else MOMENTUM_BACKTRACKS):
                trial_gamma = src_gamma - mu * dgamma
                trial_omega = src_omega - mu * domega
                if trial_gamma > 0 or problem.allow_negative_gamma:
                    try:
                        trial_res = misfit(trial_gamma, trial_omega)
                    except NearResonanceError:
                        mu *= SHRINK
                        continue
                    phi = 0.5 * trial_res**2
                    armijo = phi <= phi0 - ARMIJO_C * mu * decrease
                    monotone = trial_res <= res_current or is_fallback
                    if armijo and monotone:
                        accepted = (trial_gamma, trial_omega, trial_res, mu)
                        break
                mu *= SHRINK
            if accepted is not None:
                break
        if accepted is None:  # stop_reason is set if a state solve failed
            stop_reason = stop_reason or "line_search_failure"
            break
        gamma_prev, omega_prev = gamma, omega
        gamma, omega, res_current, mu = accepted
        iterates.append((gamma, omega.copy()))
        residuals.append(res_current)
        step_sizes.append(mu)
        mu_start = mu / SHRINK

    return ReconstructionTrace(
        iterates=iterates,
        residuals=residuals,
        step_sizes=step_sizes,
        stop_index=len(iterates) - 1,
        stop_reason=stop_reason,
        threshold=threshold,
        delta=delta,
        state_solves=state_solves,
        gradients=gradients,
    )


# ----------------------------------------------------------------------
# tangential-cone-condition probe
# ----------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class TCCReport:
    ratios: np.ndarray
    max_ratio: float
    median_ratio: float
    skipped: int
    radius: float
    samples: int


def _smooth_direction(rng, metric):
    """Random unit-norm parameter direction with a smooth Omega part."""
    dgamma = rng.standard_normal()
    domega = smooth_omega(rng, metric, 6)
    pair = GradientPair(dgamma=dgamma, domega=ScalarField(values=domega))
    norm = metric.pair_norm(pair)
    return GradientPair(
        dgamma=dgamma / norm, domega=ScalarField(values=domega / norm)
    )


def tcc_probe(
    problem: InverseProblem,
    gamma_truth: float,
    omega_truth: np.ndarray,
    radius: float,
    n_samples: int,
    rng_seed: int,
    metric: ParameterMetric | None = None,
) -> TCCReport:
    """Empirical tangential-cone ratio over random parameter pairs.

    For pairs p, p~ in the metric ball of the given radius around the truth
    the probe evaluates

        ||F(p) - F(p~) - F'(p)(p - p~)||_Y
        ---------------------------------------------
        ||p - p~||_{R x X} * ||F(p) - F(p~)||_Y

    Pairs with ||F(p) - F(p~)|| below 1e-13 are skipped and counted.
    """
    if radius <= 0:
        raise ConfigurationError("probe radius must be positive")
    if n_samples < 1:
        raise ConfigurationError("probe needs at least one sample")
    grid = problem.grid
    metric = metric or ParameterMetric(grid, problem.stencils)
    rng = np.random.default_rng(rng_seed)

    def point(direction, rad):
        g = gamma_truth + rad * direction.dgamma
        om = omega_truth + rad * direction.domega.values
        return g, om

    ratios = []
    skipped = 0
    for _ in range(n_samples):
        d1 = _smooth_direction(rng, metric)
        d2 = _smooth_direction(rng, metric)
        g1, om1 = point(d1, radius * rng.random())
        g2, om2 = point(d2, radius * rng.random())
        if g1 <= 0 or g2 <= 0:
            skipped += 1
            continue
        try:
            sys1, psi1, diff = problem.residual(g1, om1, problem.observed(g2, om2))
        except NearResonanceError:
            skipped += 1
            continue
        diff_norm = weighted_norm(problem.observed_weights, diff.values)
        if diff_norm < 1e-13:
            skipped += 1
            continue
        step = GradientPair(dgamma=g1 - g2, domega=ScalarField(values=om1 - om2))
        lin = sensitivity(step, psi1, sys1, grid, problem.stencils, problem.scheme)
        rem_norm = weighted_norm(problem.observed_weights, diff.values - lin.values)
        ratios.append(rem_norm / (metric.pair_norm(step) * diff_norm))
    ratios = np.asarray(ratios)
    return TCCReport(
        ratios=ratios,
        max_ratio=float(ratios.max()) if len(ratios) else float("nan"),
        median_ratio=float(np.median(ratios)) if len(ratios) else float("nan"),
        skipped=skipped,
        radius=radius,
        samples=n_samples,
    )
