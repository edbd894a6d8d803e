"""The three probes of the forward map: adjoint identity, gradient against
finite differences, and the tangential cone condition.

The adjoint and gradient checks return the worst relative mismatch over
random trials drawn from the caller's generator, so that repeated calls
continue one reproducible stream; the cone probe seeds its own.  The CLI's
`adjoint-check`, `gradient-check` and `tcc` and the test suite share them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import legval

from .errors import ConfigurationError, NearResonanceError
from .grid import ScalarField
from .inversion import (
    DataVector,
    GradientPair,
    InverseProblem,
    ParameterMetric,
    adjoint_gradient,
    data_norm,
    sensitivity,
)

FD_STEP = 1e-5  # central-difference step along unit-scale directions


def _random_pair(metric, grid, rng):
    dom = metric.project_mean_zero(rng.standard_normal(grid.n))
    return GradientPair(dgamma=rng.standard_normal(), domega=ScalarField(values=dom))


def smooth_pair(rng: np.random.Generator, metric: ParameterMetric, degree: int) -> GradientPair:
    """Random direction: dgamma, then a smooth mean-zero Omega, a Legendre
    series in cos(theta) up to `degree` with coefficients damped like k^-1.5.

    Smooth directions keep the misfit's cubic Taylor term small enough for
    central differences at FD_STEP to resolve 1e-6."""
    dgamma = rng.standard_normal()
    coeffs = rng.standard_normal(degree) / np.arange(1, degree + 1) ** 1.5
    profile = legval(np.cos(metric.grid.nodes), np.concatenate([[0.0], coeffs]))
    domega = metric.project_mean_zero(profile)
    return GradientPair(dgamma=dgamma, domega=ScalarField(values=domega))


def adjoint_identity_mismatch(
    problem: InverseProblem,
    metric: ParameterMetric,
    gamma: float,
    omega_values: np.ndarray,
    rng: np.random.Generator,
    trials: int,
) -> float:
    """Worst |<F'(p) dp, y> - <dp, grad(y)>| / (||dp|| ||y||) at p over random
    data y and random directions dp; <., .> on the data is the weighted real
    inner product over the observed nodes."""
    grid, stencils, scheme = problem.grid, problem.stencils, problem.scheme
    system, psi = problem.state(gamma, omega_values)
    window = problem.window
    worst = 0.0
    for _ in range(trials):
        yv = rng.standard_normal(window.stop - window.start)
        if not scheme.real_part_only:
            yv = yv + 1j * rng.standard_normal(len(yv))
        data = DataVector(values=yv, window=window)
        dp = _random_pair(metric, grid, rng)
        sens = sensitivity(dp, psi, system, grid, stencils, scheme)
        lhs = float(np.sum((sens.values * np.conj(yv)).real * grid.weights[window]))
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
        dp = smooth_pair(rng, metric, 5)
        step_g, step_om = FD_STEP * dp.dgamma, FD_STEP * dp.domega.values
        fd = (
            misfit(gamma + step_g, omega_values + step_om)
            - misfit(gamma - step_g, omega_values - step_om)
        ) / (2 * FD_STEP)
        pred = metric.pair_inner(dp, grad)
        worst = max(worst, abs(fd - pred) / max(abs(fd), 1e-300))
    return worst


@dataclass(frozen=True, eq=False)
class TCCReport:
    ratios: np.ndarray
    max_ratio: float
    median_ratio: float
    skipped: int
    radius: float
    samples: int


def tcc_probe(
    problem: InverseProblem,
    metric: ParameterMetric,
    gamma_truth: float,
    omega_truth: np.ndarray,
    radius: float,
    n_samples: int,
    rng_seed: int,
) -> TCCReport:
    """Empirical tangential-cone ratio over random parameter pairs.

    For pairs p, p~ in the metric ball of the given radius around the truth
    the probe evaluates

        ||F(p) - F(p~) - F'(p)(p - p~)||_Y
        ---------------------------------------------
        ||p - p~||_{R x X} * ||F(p) - F(p~)||_Y

    Each point lies along a `smooth_pair` direction of unit metric norm, at
    a uniform random fraction of the radius.  Pairs with
    ||F(p) - F(p~)|| below 1e-13 are skipped and counted.
    """
    if not 0 < radius < math.inf:  # NaN fails too
        raise ConfigurationError(f"probe radius must be finite and positive, got {radius}")
    if n_samples < 1:
        raise ConfigurationError("probe needs at least one sample")
    grid = problem.grid
    rng = np.random.default_rng(rng_seed)

    def point(direction, rad):
        norm = metric.pair_norm(direction)
        g = gamma_truth + rad * (direction.dgamma / norm)
        om = omega_truth + rad * (direction.domega.values / norm)
        return g, om

    ratios = []
    skipped = 0
    for _ in range(n_samples):
        d1 = smooth_pair(rng, metric, 6)
        d2 = smooth_pair(rng, metric, 6)
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
        diff_norm = data_norm(grid, diff)
        if diff_norm < 1e-13:
            skipped += 1
            continue
        step = GradientPair(dgamma=g1 - g2, domega=ScalarField(values=om1 - om2))
        lin = sensitivity(step, psi1, sys1, grid, problem.stencils, problem.scheme)
        rem_norm = data_norm(grid, DataVector(values=diff.values - lin.values, window=diff.window))
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
