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
- m = 0 solves at n = 1600 and 6400, where dense LU is too slow to be the
  reference: the normwise backward error in the infinity norm,
  ||r|| / (||A|| ||x|| + ||b||), of each band equation formed with band
  products, G phi + s (v^T psi) 1 = f and delta_0 psi = phi, and of the
  adjoint equation delta_0^T G^H a + s (1^T a) v = g.  A backward-stable
  solve keeps it a small multiple of eps; it reads at most 18 eps here, and
  the bound is 100 eps.  Dropping the mean shift, or the 1/gamma at
  omega = 0, breaks it at every such omega, dropping either projection at
  omega <= 1e-3.
- m != 0 solves at n = 1600 and 6400, the same backward error of K's two
  block rows, (gamma delta_m + i d) phi + i a psi = f and delta_m psi = phi,
  and of the adjoint equation delta_m^T (gamma delta_m^T - i d) z - i a z = g,
  on the m2 and m3 truths' operators (d and a as in `assemble_forward`).
  It reads at most 3.8 eps here, and the bound is 100 eps.  A
  non-conjugated adjoint solve, or a 1e-3 relative error in K's coupling
  block, breaks it.
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
    adjoint_gradient,
    apply_B_prime,
    assemble_forward,
    build_grid,
    build_stencils,
    data_norm,
    manufacture_truth,
    sensitivity,
)
from rotwave.grid import weighted_norm
from rotwave.inversion import restrict
from rotwave.operator import AxisymmetricSystem, WaveSystem

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


# dense LU at omega = 1e-300 runs on subnormal numbers, 3 s at n = 400;
# n = 64 and 100 hold that omega to dense LU, and the backward-error test
# below holds it at n = 1600 and 6400
M0_CASES = [
    (n, omega_freq)
    for n in (64, 100, 400)
    for omega_freq in (2.0, -1.3, 1e-3, 1e-9, 1e-12, 1e-15, 1e-300, 0.0)
    if (n, omega_freq) != (400, 1e-300)
]


@pytest.mark.parametrize("n, omega_freq", M0_CASES)
def test_m0_solves_match_dense_mixed_lu(n, omega_freq):
    # the m = 0 operator, two n-point bands at every omega (at omega = 0
    # L_n / gamma stands in for the singular G, and near it G's pivot ratio
    # reads about 1e-15): state, phi, sensitivity and weighted adjoint
    # against dense LU of the mixed matrix, and the state against dense LU
    # of B, which is good only to eps * cond_1(B), far above 1e-10 at n = 400
    grid = build_grid(n, r=0.9)
    stencils = build_stencils(grid)
    rng = np.random.default_rng([n, 7])
    w = grid.weights
    x = np.cos(grid.nodes)
    omega = 0.6 + 0.3 * x**2 - 0.2 * x**3
    system = assemble_forward(0.05, omega, 0.1, omega_freq, 0, stencils)
    assert isinstance(system, AxisymmetricSystem)
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


def _inf(x):
    return np.max(np.abs(x))


def _inf_norms(lap):
    """||lap||_inf and ||lap^T||_inf: its largest row and column sums."""
    weights = np.abs(lap.weights)
    return np.max(weights.sum(axis=1)), np.max(np.bincount(lap.columns.ravel(), weights.ravel()))


def _rmatvec(lap, x):
    """lap^T x for complex x."""
    return lap.rmatvec(x.real) + 1j * lap.rmatvec(x.imag)


@pytest.mark.parametrize("omega_freq", [2.0, -1.3, 1e-3, 1e-9, 1e-12, 1e-300, 0.0])
@pytest.mark.parametrize("n", [1600, 6400])
def test_m0_band_equations_backward_error(n, omega_freq):
    grid = build_grid(n)
    stencils = build_stencils(grid)
    rng = np.random.default_rng([n, 3])
    gamma = 0.5
    system = assemble_forward(gamma, np.ones(n), 0.0, omega_freq, 0, stencils)
    assert isinstance(system, AxisymmetricSystem)
    lap = stencils.delta_matrix(0)
    lap_norm, lap_t_norm = _inf_norms(lap)
    g_norm = gamma * lap_norm + abs(omega_freq)  # ||G||_inf
    g_t_norm = gamma * lap_t_norm + abs(omega_freq)  # ||G^H||_inf
    s, v = system.scale, grid.weights / np.sum(grid.weights)
    f = rng.standard_normal(n) + 1j * rng.standard_normal(n)

    psi, phi = system.solve_values(f)
    r = gamma * (lap @ phi) + 1j * omega_freq * phi + s * (v @ psi) - f
    assert _inf(r) <= 100 * EPS * (g_norm * _inf(phi) + s * _inf(psi) + _inf(f))
    r = lap @ psi - phi
    assert _inf(r) <= 100 * EPS * (lap_norm * _inf(psi) + _inf(phi))

    a = system.solve_weighted_adjoint(f, grid.weights) * grid.weights  # B_mean^H a = W f
    g = grid.weights * f
    r = _rmatvec(lap, gamma * _rmatvec(lap, a) - 1j * omega_freq * a) + s * np.sum(a) * v - g
    bound = lap_t_norm * g_t_norm * _inf(a) + s * np.sum(np.abs(a)) * _inf(v) + _inf(g)
    assert _inf(r) <= 100 * EPS * bound


# m = 1 and 2 at m2_default's gamma, omega and Omega; m = 3 at m3_default's;
# then the same three at gamma = 1e-3, 50x below the presets' viscosity
WAVE_TRUTHS = [("m2_default", {"m": 1}), ("m2_default", {}), ("m3_default", {})]
WAVE_TRUTHS += [(preset, {**overrides, "gamma_true": 1e-3}) for preset, overrides in WAVE_TRUTHS]


@pytest.mark.parametrize("preset,overrides", WAVE_TRUTHS)
@pytest.mark.parametrize("n", [1600, 6400])
def test_wave_band_equations_backward_error(n, preset, overrides):
    truth = manufacture_truth(preset, overrides)
    grid = build_grid(n, truth.r)
    stencils = build_stencils(grid)
    m, gamma, omega = truth.m, truth.gamma_true, truth.omega_exact(grid).values
    rng = np.random.default_rng([n, m])
    system = assemble_forward(gamma, omega, truth.omega_ref, truth.omega_freq, m, stencils)
    assert isinstance(system, WaveSystem)
    d = truth.omega_freq - m * (omega - truth.omega_ref)
    a = m * (stencils.alpha @ omega)
    lap = stencils.delta_matrix(m)
    lap_norm, lap_t_norm = _inf_norms(lap)
    f = rng.standard_normal(n) + 1j * rng.standard_normal(n)

    # K's block rows: (gamma delta_m + i d) phi + i a psi = f and delta_m psi = phi
    psi, phi = system.solve_values(f)
    r = gamma * (lap @ phi) + 1j * d * phi + 1j * a * psi - f
    bound = (gamma * lap_norm + _inf(d)) * _inf(phi) + _inf(a) * _inf(psi) + _inf(f)
    assert _inf(r) <= 100 * EPS * bound
    r = lap @ psi - phi
    assert _inf(r) <= 100 * EPS * (lap_norm * _inf(psi) + _inf(phi))

    # B^H adj = W f with B^H = delta_m^T (gamma delta_m^T - i d) - i a
    adj = system.solve_weighted_adjoint(f, grid.weights) * grid.weights
    g = grid.weights * f
    r = _rmatvec(lap, gamma * _rmatvec(lap, adj) - 1j * d * adj) - 1j * a * adj - g
    bound = lap_t_norm * (gamma * lap_t_norm + _inf(d)) * _inf(adj) + _inf(a) * _inf(adj) + _inf(g)
    assert _inf(r) <= 100 * EPS * bound


@pytest.mark.parametrize("m", [0, 1, 2, 3])
def test_b_prime_matches_dense(case, m):
    grid, stencils, _, rng = case
    n = grid.n
    psi = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    domega = rng.standard_normal(n)
    field = ComplexField(m=m, values=psi)
    got = apply_B_prime(0.3, ScalarField(values=domega), field, grid, stencils, m).values
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
