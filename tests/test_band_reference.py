"""The band solver against dense LU of the dense reference in
`adjoint_reference`, which is built from the same band stencils.

Tolerances:
- solves (forward, weighted adjoint, Riesz): the dense LU answer itself is
  only good to about eps * cond_1 of the dense matrix (B, or the KKT matrix
  of the Riesz map), so that is the bound on the gap.  The same bound holds
  the state's phi against delta_m of the dense psi.  The band answers sit
  10-1000x inside it; a dropped m = 0 correction (of psi or of phi) or a
  transposed adjoint moves them by O(1) on these random right-hand sides.
- apply_B_prime: both sides are the same products in another order; on a
  random state nothing cancels, so the gap is 50 eps relative.
"""

import numpy as np
import pytest

from adjoint_reference import assemble_dense, dense, dense_b_prime, dense_kkt
from rotwave import (
    ComplexField,
    ParameterMetric,
    Parameters,
    apply_B_prime,
    assemble_forward,
    build_grid,
    build_stencils,
    solve,
)

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
    p = Parameters(gamma=0.05, omega=omega, omega_ref=0.1)
    system = assemble_forward(p, 1.3, m, grid, stencils)
    matrix = assemble_dense(p, 1.3, m, grid, stencils)
    tol = EPS * np.linalg.cond(matrix, 1)
    f = rng.standard_normal(n) + 1j * rng.standard_normal(n)

    state = solve(system, ComplexField(m=m, values=f))
    want = np.linalg.solve(matrix, f)
    assert _rel(state.values, want) < tol
    assert _rel(state.phi, dense(stencils.delta_matrix(m)) @ want) < tol

    adjoint = matrix.conj().T * (w[None, :] / w[:, None])  # W^-1 B^H W
    z = system.solve_weighted_adjoint(f, w)
    assert _rel(z, np.linalg.solve(adjoint, f)) < tol


@pytest.mark.parametrize("m", [0, 1, 2, 3])
def test_b_prime_matches_dense(case, m):
    grid, stencils, _, rng = case
    n = grid.n
    psi = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    domega = rng.standard_normal(n)
    got = apply_B_prime(0.3, domega, ComplexField(m=m, values=psi), grid, stencils, m).values
    assert _rel(got, dense_b_prime(0.3, domega, psi, grid, stencils, m)) < 50 * EPS


@pytest.mark.parametrize("name", ["H1", "H2"])
def test_riesz_matches_dense_kkt(case, name):
    grid, stencils, _, rng = case
    n, w = grid.n, grid.weights
    kkt = dense_kkt(grid, stencils, name)
    g = rng.standard_normal(n)
    want = np.linalg.solve(kkt, np.concatenate([g - np.sum(g * w) / np.sum(w), [0.0]]))[:n]
    got = ParameterMetric(grid, stencils, name).riesz(g)
    assert _rel(got, want) < EPS * np.linalg.cond(kkt, 1)
