"""The band solver against dense LU of the dense reference in
`adjoint_reference`, which is built from the same band stencils.

Tolerances:
- solves (forward, weighted adjoint, Riesz): the dense LU answer itself is
  only good to about eps * cond_1 of the dense matrix (B, or the KKT matrix
  of the Riesz map), so that is the bound on the gap.  The same bound holds
  the state's phi against delta_m of the dense psi.  The band answers sit
  10-1000x inside it; a dropped m = 0 correction (of psi or of phi) or a
  transposed adjoint moves them by O(1) on these random right-hand sides.
- m = 0 solves against the dense mixed matrix (`assemble_dense_mixed`):
  its condition grows like n^2, so its LU is good to about 5e-11 at
  n = 400 and the gap is held to 1e-10.
- apply_B_prime: both sides are the same products in another order; on a
  random state nothing cancels, so the gap is 50 eps relative.
- the Nesterov-Landweber loop's misfit and gradient: the misfit inherits
  the forward solve's bound; the gradient chains the forward, the weighted
  adjoint and the Riesz solve, so its bound adds the KKT matrix's
  eps * cond_1 to B's.
"""

import numpy as np
import pytest

from adjoint_reference import (
    assemble_dense,
    assemble_dense_mixed,
    dense,
    dense_alpha,
    dense_b_prime,
    dense_kkt,
)
from rotwave import (
    ComplexField,
    DataVector,
    GradientPair,
    InverseProblem,
    ObservationScheme,
    ParameterMetric,
    ScalarField,
    State,
    WaveSystem,
    adjoint_gradient,
    apply_B_prime,
    assemble_forward,
    build_grid,
    build_stencils,
    data_norm,
    sensitivity,
)
from rotwave.grid import weighted_norm
from rotwave.inversion import restrict
from rotwave.operator import AxisymmetricSystem

EPS = np.finfo(float).eps


@pytest.fixture(scope="module", params=[16, 100, 400])
def case(request):
    n = request.param
    grid = build_grid(n, r=0.9)
    x = np.cos(grid.nodes)
    omega = 0.6 + 0.3 * x**2 - 0.2 * x**3
    return grid, build_stencils(grid), omega, np.random.default_rng(n)


def _rel(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


@pytest.mark.parametrize("m", [0, 1, 2, 3])
def test_band_solves_match_dense_lu(case, m):
    grid, stencils, omega, rng = case
    n, w = grid.n, grid.weights
    p = (0.05, omega, 0.1)
    system = assemble_forward(*p, 1.3, m, stencils)
    matrix = assemble_dense(*p, 1.3, m, grid, stencils)
    tol = EPS * np.linalg.cond(matrix, 1)
    f = rng.standard_normal(n) + 1j * rng.standard_normal(n)

    psi, phi = system.solve_values(f)
    want = np.linalg.solve(matrix, f)
    assert _rel(psi, want) < tol
    assert _rel(phi, dense(stencils.delta_matrix(m)) @ want) < tol

    adjoint = matrix.conj().T * (w[None, :] / w[:, None])  # W^-1 B^H W
    z = system.solve_weighted_adjoint(f, w)
    assert _rel(z, np.linalg.solve(adjoint, f)) < tol


@pytest.mark.parametrize("omega_freq", [2.0, -1.3, 1e-3, 0.0])
@pytest.mark.parametrize("n", [64, 100, 400])
def test_m0_solves_match_dense_mixed_lu(n, omega_freq):
    # the m = 0 operator, two n-point bands for omega != 0 and the pinned
    # mixed band at omega = 0: state, phi, sensitivity and weighted adjoint
    # against dense LU of the mixed matrix, and the state against dense LU
    # of B, which is good only to eps * cond_1(B), far above 1e-10 at n = 400
    grid = build_grid(n, r=0.9)
    stencils = build_stencils(grid)
    rng = np.random.default_rng([n, 7])
    w = grid.weights
    x = np.cos(grid.nodes)
    omega = 0.6 + 0.3 * x**2 - 0.2 * x**3
    system = assemble_forward(0.05, omega, 0.1, omega_freq, 0, stencils)
    assert isinstance(system, WaveSystem if omega_freq == 0 else AxisymmetricSystem)
    mixed = assemble_dense_mixed(0.05, omega_freq, grid, stencils)
    zeros = np.zeros(n, dtype=complex)
    f = rng.standard_normal(n) + 1j * rng.standard_normal(n)

    psi, phi = system.solve_values(f)
    want = np.linalg.solve(mixed, np.concatenate([f, zeros]))
    assert _rel(psi, want[n:]) < 1e-10
    assert _rel(phi, want[:n]) < 1e-10
    assert _rel(phi, dense(stencils.delta_matrix(0)) @ psi) < 1e-10
    matrix = assemble_dense(0.05, omega, 0.1, omega_freq, 0, grid, stencils)
    assert _rel(psi, np.linalg.solve(matrix, f)) < EPS * np.linalg.cond(matrix, 1)

    dp = GradientPair(dgamma=0.3, domega=ScalarField(values=rng.standard_normal(n)))
    state = State(m=0, values=psi, phi=phi)
    sens = sensitivity(dp, state, system, grid, stencils, ObservationScheme())
    rhs = dense_b_prime(dp.dgamma, dp.domega.values, psi, grid, stencils, 0)
    assert _rel(sens.values, np.linalg.solve(mixed, np.concatenate([-rhs, zeros]))[n:]) < 1e-10

    z = system.solve_weighted_adjoint(f, w)
    a = np.linalg.solve(mixed.conj().T, np.concatenate([zeros, w * f]))[:n]
    assert _rel(z, a / w) < 1e-10


@pytest.mark.parametrize("omega_freq", [2.0, -1.3, 1e-3])
def test_m0_two_bands_match_the_mixed_band_at_n1600(omega_freq):
    # at n = 1600 dense LU is too slow to be the reference; the pinned mixed
    # band, which serves omega = 0, is
    grid = build_grid(1600)
    stencils = build_stencils(grid)
    rng = np.random.default_rng(1600)
    w = grid.weights
    system = assemble_forward(0.5, np.ones(grid.n), 0.0, omega_freq, 0, stencils)
    assert isinstance(system, AxisymmetricSystem)
    mixed = WaveSystem(stencils.delta_matrix(0), 0.5, omega_freq, pin_weights=w)
    f = rng.standard_normal(grid.n) + 1j * rng.standard_normal(grid.n)
    for got, want in zip(system.solve_values(f), mixed.solve_values(f)):
        assert _rel(got, want) < 1e-10
    assert _rel(system.solve_weighted_adjoint(f, w), mixed.solve_weighted_adjoint(f, w)) < 1e-10


def test_m0_near_zero_frequency_keeps_the_mixed_band():
    # G = gamma delta_0 + i omega is singular at omega = 0 and its pivot
    # ratio falls below PIVOT_RTOL near it; those inputs solved on the mixed
    # band before and still do
    grid = build_grid(100)
    stencils = build_stencils(grid)
    f = np.cos(grid.nodes) + 0j
    for omega_freq, kind in ((1e-9, AxisymmetricSystem), (1e-12, WaveSystem), (0.0, WaveSystem)):
        system = assemble_forward(0.5, np.ones(grid.n), 0.0, omega_freq, 0, stencils)
        assert isinstance(system, kind)
        mixed = WaveSystem(stencils.delta_matrix(0), 0.5, omega_freq, pin_weights=grid.weights)
        assert _rel(system.solve_values(f)[0], mixed.solve_values(f)[0]) < 1e-10


@pytest.mark.parametrize("m", [0, 1, 2, 3])
def test_b_prime_matches_dense(case, m):
    grid, stencils, _, rng = case
    n = grid.n
    psi = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    domega = rng.standard_normal(n)
    got = apply_B_prime(0.3, domega, ComplexField(m=m, values=psi), grid, stencils, m).values
    assert _rel(got, dense_b_prime(0.3, domega, psi, grid, stencils, m)) < 50 * EPS


def test_riesz_matches_dense_kkt(case):
    grid, stencils, _, rng = case
    n, w = grid.n, grid.weights
    kkt = dense_kkt(grid, stencils)
    g = rng.standard_normal(n)
    want = np.linalg.solve(kkt, np.concatenate([g - np.sum(g * w) / np.sum(w), [0.0]]))[:n]
    got = ParameterMetric(stencils).riesz(g)
    assert _rel(got, want) < EPS * np.linalg.cond(kkt, 1)


# the four observation schemes of test_inversion
SCHEMES = {
    "full": ObservationScheme(),
    "restricted": ObservationScheme(kind="restricted", epsilon=0.45),
    "real": ObservationScheme(real_part_only=True),
    "restricted_real": ObservationScheme(kind="restricted", epsilon=0.45, real_part_only=True),
}


@pytest.mark.parametrize("scheme", list(SCHEMES))
@pytest.mark.parametrize("m", [0, 1, 2, 3])
@pytest.mark.parametrize("n", [16, 100])
def test_loop_misfit_and_gradient_match_dense_lu(n, m, scheme):
    # what nesterov_landweber evaluates: a trial's misfit, the norm of
    # `residual`, and a search's gradient, `adjoint_gradient` of the same
    # residual; against the same quantities from dense LU of B and of its
    # weighted adjoint and from the Riesz map's KKT matrix
    grid = build_grid(n, r=0.9)
    stencils = build_stencils(grid)
    rng = np.random.default_rng([n, m])
    w = grid.weights
    x = np.cos(grid.nodes)
    omega = 0.6 + 0.3 * x**2 - 0.2 * x**3
    f = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    problem = InverseProblem(
        grid=grid, stencils=stencils, m=m, omega_freq=1.3, source=ComplexField(m=m, values=f),
        scheme=SCHEMES[scheme], omega_ref=0.1,
    )
    window = problem.window
    yv = rng.standard_normal(window.stop - window.start)
    if not problem.scheme.real_part_only:
        yv = yv + 1j * rng.standard_normal(len(yv))
    metric = ParameterMetric(stencils, gamma_scale=3000.0)

    system, psi, res = problem.residual(0.05, omega, DataVector(values=yv, window=window))
    misfit = data_norm(grid, res)
    grad, density = adjoint_gradient(problem, res, psi, system, metric)

    matrix = assemble_dense(0.05, omega, 0.1, 1.3, m, grid, stencils)
    kkt = dense_kkt(grid, stencils)
    psi_d = np.linalg.solve(matrix, f)
    r_d = restrict(psi_d, problem.scheme, window) - yv
    assert abs(misfit - weighted_norm(w[window], r_d)) <= (
        EPS * np.linalg.cond(matrix, 1) * weighted_norm(w, psi_d)
    )

    rhs = np.zeros(n, dtype=complex)
    rhs[window] = r_d
    z = np.linalg.solve(matrix.conj().T * (w[None, :] / w[:, None]), rhs)  # W^-1 B^H W
    lap = dense(stencils.delta_matrix(m))
    dgamma = -float(np.sum((lap @ lap @ psi_d) * np.conj(z) * w).real) / 3000.0
    alpha_adjoint = dense_alpha(grid, stencils).T * (w[None, :] / w[:, None])
    density_d = -m * (
        alpha_adjoint @ np.imag(np.conj(psi_d) * z) - np.imag(np.conj(lap @ psi_d) * z)
    )
    g = density_d - np.sum(density_d * w) / np.sum(w)
    domega = np.linalg.solve(kkt, np.concatenate([g, [0.0]]))[:n]
    tol = EPS * (np.linalg.cond(matrix, 1) + np.linalg.cond(kkt, 1))
    assert abs(grad.dgamma - dgamma) <= tol * abs(dgamma)
    assert np.linalg.norm(density - density_d) <= tol * np.linalg.norm(density_d)
    assert np.linalg.norm(grad.domega.values - domega) <= tol * np.linalg.norm(domega)
