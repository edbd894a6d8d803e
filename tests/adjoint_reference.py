"""Continuous-adjoint reference for the exact discrete adjoint.

The package applies only the discrete adjoint W^-1 B^H W (through the
forward factorization) and the weighted adjoint of the alpha map.  The
references here discretize the analytic adjoint operator and the analytic
form of the Omega gradient density instead; they agree with the package at
the discretization order, which is what the operator tests and acceptance
criterion 3 check.
"""

import numpy as np

from rotwave import GradientPair, Parameters, ScalarField, WaveSystem
from rotwave.inversion import observe_adjoint
from rotwave.operator import _mean_pin, apply_alpha


def assemble_adjoint(p, omega_freq, m, grid, stencils):
    """The discretization of  gamma delta^2 - i omega delta + i m delta(beta .) - i m alpha."""
    lap = stencils.delta_matrix(m)
    bilap = stencils.bilaplacian_matrix(m)
    mat = p.gamma * bilap - 1j * omega_freq * lap
    if m != 0:
        mat = mat + 1j * m * (lap * (p.omega - p.omega_ref)[None, :])
        mat = mat - 1j * m * np.diag(apply_alpha(grid, stencils, p.omega))
    else:
        mat = mat + _mean_pin(grid, float(np.max(np.abs(mat))))
    return WaveSystem(np.ascontiguousarray(mat.astype(complex)), m, omega_freq)


def continuous_gradient(problem, gamma, omega_values, psi, residual, metric):
    """`adjoint_gradient` with the adjoint state from `assemble_adjoint` and
    the differential form (sin/r^2) d/dtheta((1/sin) d/dtheta(.)) of the
    Omega density."""
    grid, st, m = problem.grid, problem.stencils, problem.m
    w = grid.weights
    p = Parameters(gamma, omega_values, problem.omega_ref)
    adj = assemble_adjoint(p, problem.omega_freq, m, grid, st)
    z = adj.solve_values(observe_adjoint(residual, grid).values)
    lap = st.delta_matrix(m)
    raw_gamma = float(np.sum((lap @ (lap @ psi.values)) * np.conj(z) * w).real)
    density = np.zeros(grid.n)
    if m != 0:
        c = np.imag(np.conj(psi.values) * z)
        sin = np.sin(grid.nodes)
        density = m * (
            sin / grid.r**2 * (st.d1 @ ((st.d1 @ c) / sin))
            - np.imag((lap @ np.conj(psi.values)) * z)
        )
    return GradientPair(
        dgamma=-raw_gamma / metric.gamma_scale, domega=ScalarField(values=metric.riesz(-density))
    )


def bandwidth(matrix):
    """Largest |i - j| with a structurally nonzero entry."""
    i, j = np.nonzero(np.abs(matrix) > 0)
    return int(np.max(np.abs(i - j))) if len(i) else 0
