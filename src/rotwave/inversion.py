"""Observation operators, adjoint-state gradients and Nesterov-Landweber.

The forward map of the parameter identification problem is F = L o S where
S(gamma, Omega) solves the separated wave equation and L restricts the state
to the observed colatitudes epsilon < theta < pi - epsilon, optionally the
real part.  Those nodes are always one contiguous run, so the package holds
them as one slice, `observation_window`, from the problem down to the data:
a `DataVector` carries its window, `restrict` is L on a state's values and
`data_norm` the weighted norm over the window.  Gradients come from one
adjoint solve per evaluation:

    z = B*^-1 L* residual,          B* = W^-1 B^H W, the exact discrete adjoint
    d/dgamma  ->  -Re <delta^2 psi, z>
    d/dOmega  ->  -m * Im{ alpha* (conj(psi) z) - (delta_m conj(psi)) z }

where L* extends the data by zero off the observed nodes and alpha*
(`apply_alpha_adjoint`) is the weighted adjoint of the map
Omega -> alpha_Omega.

The minus sign is fixed by the analysis: it is the sign of the sensitivity
F'(p) dp = -L B^-1 B'(dp) psi.
The Omega gradient density is mapped into the parameter space by a Riesz
solve in the H2 metric, which acts as a smoothing preconditioner and pins
the weighted mean to zero.

`InverseProblem.state` is the one place a forward state is built and
solved: one `assemble_forward` and one `solve_mixed` of the system it returns.
`observe` is the one way to make data from a state (`observed` calls it),
and `residual` restricts psi through the window and subtracts y.
`nesterov_landweber` refuses data from another window, and complex data
for a real-part-only scheme, before its first solve.  It takes every
misfit and gradient from that path: a line-search trial's misfit is the
`data_norm` of `residual`, and each search's gradient is one
`adjoint_gradient`, one adjoint and one Riesz solve.  Its line search
makes at most `MOMENTUM_BACKTRACKS` trials from the momentum point and at
most `MAX_BACKTRACKS` from the iterate.

Work that a run does not change is done once: per problem, the cached
`source_rhs` (the mixed right-hand side [f; 0]) and `window`; per grid,
the window of each epsilon (`observation_window`, kept in `Grid.windows`),
which every `observe` and so every `sensitivity` reads, and the weight sum
of `weighted_mean`; per stencils object, the factored, read-only H2 Riesz
band (`riesz_system`, kept in `DerivativeStencils.derived`), which every
`ParameterMetric` on those stencils takes, whatever its gamma_scale.  Both
die with their grid.  The observed weights are the view
`grid.weights[window]`.  No band-sized array outlives the call that
factors it, apart from the Riesz factorization and the m = 0 operator's
node-pinned delta_0 (`operator.pinned_delta0`), one of each per stencils
object.

This module holds the inverse problem and its solver only; the probes that
verify them (adjoint identity, gradient, tangential cone) are in `checks`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

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
    ForwardSystem,
    State,
    WaveSystem,
    apply_alpha_adjoint,
    apply_B_prime,
    assemble_forward,
    mixed_rhs,
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
    window: slice  # the observed nodes (`observation_window`)


def observation_window(grid: Grid, scheme: ObservationScheme) -> slice:
    """The nodes with epsilon < theta < pi - epsilon, one contiguous run, as
    a slice; a window that holds no node is a ConfigurationError, since it
    would observe nothing.  Computed once per grid and epsilon, and kept in
    `grid.windows`."""
    eps = scheme.epsilon
    window = grid.windows.get(eps)
    if window is None:
        inside = np.flatnonzero((grid.nodes > eps) & (grid.nodes < math.pi - eps))
        if len(inside) == 0:
            raise ConfigurationError(
                f"observation window (epsilon={eps}) holds no node of the n={grid.n} grid"
            )
        window = grid.windows[eps] = slice(int(inside[0]), int(inside[-1]) + 1)
    return window


def restrict(psi: np.ndarray, scheme: ObservationScheme, window: slice) -> np.ndarray:
    """The observation L: the state values `psi` in `window`, real part only
    when the scheme says so.  A view of `psi`."""
    return psi[window].real if scheme.real_part_only else psi[window]


def observe(psi: ComplexField, scheme: ObservationScheme, grid: Grid) -> DataVector:
    """The data L psi of a state, as a contiguous copy: it holds no solve's
    vector, and `np.vdot` sums it in memory order whatever the scheme."""
    _check_field(grid, psi)
    window = observation_window(grid, scheme)
    return DataVector(values=np.array(restrict(psi.values, scheme, window)), window=window)


def data_norm(grid: Grid, d: DataVector) -> float:
    """`weighted_norm` over the data's window: the one data norm."""
    return weighted_norm(grid.weights[d.window], d.values)


# ----------------------------------------------------------------------
# parameter metric and Riesz map
# ----------------------------------------------------------------------

def riesz_system(stencils: DerivativeStencils) -> WaveSystem:
    """The factored, read-only Riesz band of `ParameterMetric` on the
    stencils' grid: built on first use and kept in `stencils.derived`, so
    shared by every metric on them."""
    system = stencils.derived.get("riesz")
    if system is None:
        system = WaveSystem(stencils.delta_matrix(0), 1.0, pin_weights=stencils.grid.weights)
        stencils.derived["riesz"] = system.read_only()
    return system


class ParameterMetric:
    """Product metric gamma_scale * dgamma^2 + ||dOmega||_H2^2.

    The Omega block is A = delta_0^2.  Its Riesz map solves A q + lambda 1 =
    g - mean_w(g) with mean_w(q) = 0, which (A 1 = 0) is the mean-zero part
    of the real, mean-pinned m = 0 `WaveSystem` solve with gamma = 1 and no
    d or a block: `riesz_system`, one per stencils whatever the gamma_scale.
    The form <u, A v>_w keeps A on the second argument, which reproduces the
    raw density exactly and the discrete adjoint identity to roundoff.
    """

    def __init__(self, stencils: DerivativeStencils, gamma_scale: float = 1.0):
        if not 0 < gamma_scale < math.inf:  # NaN fails too
            raise ConfigurationError(f"gamma_scale must be finite and positive, got {gamma_scale}")
        self.grid = stencils.grid
        self.gamma_scale = float(gamma_scale)
        self._lap = stencils.delta_matrix(0)
        self._system = riesz_system(stencils)

    def project_mean_zero(self, g: np.ndarray) -> np.ndarray:
        return g - weighted_mean(self.grid, g)

    def riesz(self, g: np.ndarray) -> np.ndarray:
        """Solve the metric operator against a mean-zero projected density."""
        return self.project_mean_zero(self._system.solve_values(np.asarray(g, dtype=float))[0])

    def apply(self, v: np.ndarray) -> np.ndarray:
        """The metric operator A = delta_0^2 applied to v."""
        return self._lap @ (self._lap @ v)

    def pair_inner(self, a: "GradientPair", b: "GradientPair") -> float:
        omega = np.sum(a.domega.values * self.apply(b.domega.values) * self.grid.weights)
        return self.gamma_scale * a.dgamma * b.dgamma + float(omega)

    def pair_norm(self, a: "GradientPair") -> float:
        return math.sqrt(max(self.pair_inner(a, a), 0.0))


@dataclass(frozen=True, eq=False)
class GradientPair:
    """Riesz representative of a parameter-space functional."""

    dgamma: float
    domega: ScalarField


# ----------------------------------------------------------------------
# problem bundle and forward/sensitivity/adjoint machinery
# ----------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class InverseProblem:
    """Everything fixed during a reconstruction run; the forward map needs
    gamma > 0.  The stencils must be the grid's own (`stencils.grid is grid`)."""

    grid: Grid
    stencils: DerivativeStencils
    m: int
    omega_freq: float
    source: ComplexField
    scheme: ObservationScheme
    omega_ref: float = 0.0

    def __post_init__(self):
        grid, other = self.grid, self.stencils.grid
        if other is not grid:
            raise ConfigurationError(
                f"the problem's grid (n={grid.n}, r={grid.r}) has stencils built "
                f"for another grid (n={other.n}, r={other.r})"
            )
        n, m = len(self.source.values), self.source.m
        if n != self.grid.n or m != self.m:
            raise ConfigurationError(
                f"source has {n} values of order m={m}; the problem needs "
                f"{self.grid.n} values of order m={self.m}"
            )

    @cached_property
    def window(self) -> slice:
        """The observed nodes (`observation_window`)."""
        return observation_window(self.grid, self.scheme)

    @cached_property
    def source_rhs(self) -> np.ndarray:
        """The source as the mixed system's right-hand side [f; 0]
        (`mixed_rhs`), built from `source` on the first solve; every state
        solve reads it and none writes it."""
        full = mixed_rhs(self.source.values, complex)
        full.flags.writeable = False
        return full

    def state(self, gamma: float, omega_values: np.ndarray) -> tuple[ForwardSystem, State]:
        """The factored forward operator at (gamma, Omega) and the state
        psi = S(gamma, Omega) from one `assemble_forward` and one solve."""
        system = assemble_forward(
            gamma, omega_values, self.omega_ref, self.omega_freq, self.m, self.stencils
        )
        psi, phi = system.solve_mixed(self.source_rhs)
        return system, State(m=self.m, values=psi, phi=phi)

    def observed(self, gamma: float, omega_values: np.ndarray) -> DataVector:
        """F(p): the data `observe` makes from the state at p."""
        return observe(self.state(gamma, omega_values)[1], self.scheme, self.grid)

    def residual(
        self, gamma: float, omega_values: np.ndarray, y: DataVector
    ) -> tuple[ForwardSystem, State, DataVector]:
        """State at a point and its data residual F(p) - y = `restrict`(psi) - y."""
        system, psi = self.state(gamma, omega_values)
        r = restrict(psi.values, self.scheme, self.window) - y.values
        return system, psi, DataVector(values=r, window=self.window)


def sensitivity(
    dp: GradientPair,
    psi: State,
    system: ForwardSystem,
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
    system: ForwardSystem,
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
    grid, m = problem.grid, problem.m
    w = grid.weights
    # W L* residual at the odd (psi) positions of the window, zero elsewhere
    full = np.zeros(2 * grid.n, dtype=complex)
    full[1::2][residual.window] = w[residual.window] * residual.values
    z = system.solve_adjoint_mixed(full) / w
    raw_gamma = float(((problem.stencils.delta_matrix(m) @ psi.phi) * z.conj() * w).sum().real)
    if m != 0:
        c = (psi.values.conj() * z).imag
        shear = (psi.phi.conj() * z).imag
        density = m * (apply_alpha_adjoint(problem.stencils, c) - shear)
    else:
        density = np.zeros(grid.n)
    g = -density
    dgamma = -raw_gamma / metric.gamma_scale
    return GradientPair(dgamma=dgamma, domega=ScalarField(values=metric.riesz(g))), g


# ----------------------------------------------------------------------
# Nesterov-Landweber iteration
# ----------------------------------------------------------------------


# The paper's discrepancy factor tau, momentum weight (k-1)/(k+alpha-1) with
# alpha = 3 (Neubauer 2017; Hubmer & Ramlau 2017) and line-search settings:
# every study uses these values, so they are constants read at call time.
DISCREPANCY_TAU = 1.1
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
    max_iter: int = 500
    gamma_scale: float = 1.0
    residual_floor: float = 0.0  # absolute floor on the stopping threshold

    def __post_init__(self):
        k = self.max_iter
        if isinstance(k, bool) or not isinstance(k, (int, np.integer)) or k < 0:
            raise ConfigurationError(f"max_iter must be a nonnegative integer, got {k!r}")
        g = self.gamma_scale
        if not 0 < g < math.inf:  # NaN fails too
            raise ConfigurationError(f"gamma_scale must be finite and positive, got {g}")
        if not math.isfinite(self.residual_floor):
            raise ConfigurationError(f"residual_floor must be finite, got {self.residual_floor}")


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

    It stops at residual <= max(`DISCREPANCY_TAU` * delta, residual_floor);
    gamma_init must lie in (0, inf) and delta in [0, inf).  Two-line
    iteration with momentum weight (k-1)/(k+alpha-1), alpha =
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
    `adjoint_gradient` of the same residual; the first search's is that of
    the initial misfit (z_1 = p_0).  No momentum point or trial with gamma
    outside (0, inf) is solved.  The trace counts state solves and gradients.
    Data from another window than the problem's, or complex data for a
    real-part-only scheme, are a ConfigurationError.
    """
    if not 0 < gamma_init < math.inf:  # NaN fails too
        raise ConfigurationError(f"gamma_init must be finite and positive, got {gamma_init}")
    if not 0 <= delta < math.inf:
        raise ConfigurationError(f"noise level delta must be finite and nonnegative, got {delta}")
    window = problem.window
    if y_delta.window != window:
        raise ConfigurationError(f"data window {y_delta.window} != problem window {window}")
    if len(y_delta.values) != window.stop - window.start:
        raise ConfigurationError(
            f"data have {len(y_delta.values)} values; window {window} "
            f"holds {window.stop - window.start} nodes"
        )
    if problem.scheme.real_part_only and np.iscomplexobj(y_delta.values):
        raise ConfigurationError("complex data for a real-part-only observation scheme")
    grid = problem.grid
    metric = ParameterMetric(problem.stencils, gamma_scale=config.gamma_scale)
    threshold = max(DISCREPANCY_TAU * delta, config.residual_floor)
    state_solves = gradients = 0

    def solve(ga, om):
        """(system, state, residual) of `InverseProblem.residual` at p = (ga, om)."""
        nonlocal state_solves
        state_solves += 1
        return problem.residual(ga, om, y_delta)

    gamma = float(gamma_init)
    omega = np.zeros(grid.n)

    iterates = [(gamma, omega.copy())]
    step_sizes: list[float] = []
    stop_reason = None
    try:
        at_src = solve(gamma, omega)
        res_current = data_norm(grid, at_src[2])
    except NearResonanceError:
        res_current, stop_reason = float("nan"), "near_resonance"
    residuals = [res_current]
    gamma_prev, omega_prev = gamma, omega.copy()
    mu_start = MU0

    k = 0
    while stop_reason is None:
        if res_current <= threshold:
            by_noise = DISCREPANCY_TAU * delta >= res_current
            stop_reason = "discrepancy" if by_noise else "residual_floor"
            break
        if k >= config.max_iter:
            stop_reason = "max_iter"
            break
        k += 1
        weight = (k - 1) / (k + NESTEROV_ALPHA - 1)
        z_gamma = gamma + weight * (gamma - gamma_prev)
        z_omega = omega + weight * (omega - omega_prev)
        if not 0 < z_gamma < math.inf:
            z_gamma, z_omega = gamma, omega  # momentum point infeasible

        accepted = None
        for src_gamma, src_omega, is_fallback in (
            (z_gamma, z_omega, False),
            (gamma, omega, True),
        ):
            if k > 1 or is_fallback:  # z_1 = p_0, whose solve gave the first misfit
                try:
                    at_src = solve(src_gamma, src_omega)
                except NearResonanceError:
                    stop_reason = "near_resonance"
                    break
            system, psi, res_vec = at_src
            gradients += 1
            grad, g_density = adjoint_gradient(problem, res_vec, psi, system, metric)
            dgamma, domega = grad.dgamma, grad.domega.values
            phi0 = 0.5 * data_norm(grid, res_vec) ** 2
            decrease = metric.gamma_scale * dgamma**2 + float(
                (domega * g_density * grid.weights).sum()
            )
            decrease = max(decrease, 0.0)
            mu = mu_start
            for _ in range(MAX_BACKTRACKS if is_fallback else MOMENTUM_BACKTRACKS):
                trial_gamma = src_gamma - mu * dgamma
                trial_omega = src_omega - mu * domega
                if 0 < trial_gamma < math.inf:
                    try:
                        trial_res = data_norm(grid, solve(trial_gamma, trial_omega)[2])
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
