"""Adjoint-identity and finite-difference gradient checks.

Both return the worst relative mismatch over random trials, drawn from the
caller's generator so that repeated calls continue one reproducible stream.
The CLI's `adjoint-check`/`gradient-check` and the test suite share them.
"""

from __future__ import annotations

import numpy as np

from .grid import ScalarField
from .inversion import (
    DataVector,
    GradientPair,
    InverseProblem,
    ParameterMetric,
    adjoint_gradient,
    data_inner,
    data_norm,
    sensitivity,
    smooth_omega,
)

FD_STEP = 1e-5  # central-difference step along unit-scale directions


def _random_pair(metric, grid, rng):
    dom = metric.project_mean_zero(rng.standard_normal(grid.n))
    return GradientPair(dgamma=rng.standard_normal(), domega=ScalarField(values=dom))


def _smooth_pair(metric, rng):
    # smooth directions keep the cubic Taylor term of the misfit small enough
    # for central differences at FD_STEP to resolve 1e-6
    dom = smooth_omega(rng, metric, 5)
    return GradientPair(dgamma=rng.standard_normal(), domega=ScalarField(values=dom))


def adjoint_identity_mismatch(
    problem: InverseProblem,
    metric: ParameterMetric,
    gamma: float,
    omega_values: np.ndarray,
    rng: np.random.Generator,
    trials: int,
) -> float:
    """Worst |<F'(p) dp, y> - <dp, grad(y)>| / (||dp|| ||y||) at p over random
    data y and random directions dp."""
    grid, stencils, scheme = problem.grid, problem.stencils, problem.scheme
    system, psi = problem.state(gamma, omega_values)
    mask = problem.mask
    worst = 0.0
    for _ in range(trials):
        yv = rng.standard_normal(len(mask))
        if not scheme.real_part_only:
            yv = yv + 1j * rng.standard_normal(len(mask))
        data = DataVector(values=yv, mask=mask)
        dp = _random_pair(metric, grid, rng)
        lhs = data_inner(grid, sensitivity(dp, psi, system, grid, stencils, scheme), data)
        grad, _ = adjoint_gradient(problem, data, psi, system, metric)
        rhs = metric.pair_inner(dp, grad)
        scale = max(metric.pair_norm(dp) * data_norm(grid, data), 1e-300)
        worst = max(worst, abs(lhs - rhs) / scale)
    return worst


def gradient_fd_mismatch(
    problem: InverseProblem,
    metric: ParameterMetric,
    gamma: float,
    omega_values: np.ndarray,
    y: DataVector,
    rng: np.random.Generator,
    trials: int,
) -> float:
    """Worst relative gap between <dp, grad> of the misfit 0.5 ||F(p) - y||^2
    at p and its central difference along random smooth directions dp."""
    grid = problem.grid

    def misfit(ga, om):
        return 0.5 * data_norm(grid, problem.residual(ga, om, y)[2]) ** 2

    system, psi, res = problem.residual(gamma, omega_values, y)
    grad, _ = adjoint_gradient(problem, res, psi, system, metric)
    worst = 0.0
    for _ in range(trials):
        dp = _smooth_pair(metric, rng)
        step_g, step_om = FD_STEP * dp.dgamma, FD_STEP * dp.domega.values
        fd = (
            misfit(gamma + step_g, omega_values + step_om)
            - misfit(gamma - step_g, omega_values - step_om)
        ) / (2 * FD_STEP)
        pred = metric.pair_inner(dp, grad)
        worst = max(worst, abs(fd - pred) / max(abs(fd), 1e-300))
    return worst
