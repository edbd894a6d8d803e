"""Dense references for the band solver and the exact discrete adjoint.

The package keeps every operator as band data and solves the fourth-order
operator B in mixed form; it never forms an n x n array.  The references
here densify the package's own band stencils instead:

- `assemble_dense` is B with the m = 0 mean pin as an n x n matrix, the
  reference the band solves are checked against with dense LU;
- `assemble_dense_mixed` is the same m = 0 operator in mixed form, a
  2n x 2n matrix whose condition grows like n^2, not n^4, so that its
  dense LU stays a reference to 1e-10 at n = 400;
- `dense_kkt` is the KKT matrix whose solve the band Riesz map replaces;
- `assemble_adjoint` and `continuous_gradient` discretize the analytic
  adjoint operator and the analytic form of the Omega gradient density;
  they agree with the package's discrete adjoint at the discretization
  order, which is what the operator tests and acceptance criterion 3 check.
"""

import numpy as np

from rotwave import GradientPair, ScalarField


def dense(band):
    """The n x n matrix of a `BandRows`."""
    n = len(band.weights)
    out = np.zeros((n, n))
    out[np.arange(n)[:, None], band.columns] = band.weights
    return out


def mean_pin(grid, gamma, omega_freq, lap):
    """s 1 v^T with v = w / sum(w) and s = max|gamma delta_0 + i omega|, the
    pin the band solver applies for m = 0."""
    scale = np.max(np.abs(gamma * lap + 1j * omega_freq * np.eye(grid.n)))
    w = grid.weights
    return scale * np.outer(np.ones(grid.n), w) / np.sum(w)


def assemble_dense(gamma, omega, omega_ref, omega_freq, m, grid, stencils):
    """gamma delta^2 + i omega delta - i m beta delta + i m alpha, pinned for
    m = 0; the arguments are those of `assemble_forward`."""
    lap = dense(stencils.delta_matrix(m))
    mat = gamma * (lap @ lap) + 1j * omega_freq * lap
    if m != 0:
        mat = mat - 1j * m * (omega - omega_ref)[:, None] * lap
        mat = mat + 1j * m * np.diag(stencils.alpha @ omega)
    else:
        mat = mat + mean_pin(grid, gamma, omega_freq, lap)
    return mat


def assemble_dense_mixed(gamma, omega_freq, grid, stencils):
    """[[gamma delta_0 + i omega, s 1 v^T], [-I, delta_0]], the m = 0 mixed
    matrix with the mean pin: its solve against [f; 0] is [phi; psi] with
    `assemble_dense` psi = f and phi = delta_0 psi, and its conjugate
    transpose against [0; g] gives a with B^H a = g in the first half."""
    n = grid.n
    lap = dense(stencils.delta_matrix(0))
    return np.block([
        [gamma * lap + 1j * omega_freq * np.eye(n), mean_pin(grid, gamma, omega_freq, lap)],
        [-np.eye(n), lap],
    ])


def dense_alpha(grid, stencils):
    """The map Omega -> alpha_Omega as an n x n matrix."""
    cot = np.cos(grid.nodes) / np.sin(grid.nodes)
    d1, d2 = dense(stencils.d1), dense(stencils.d2)
    return (d2 + 3.0 * cot[:, None] * d1 - 2.0 * np.eye(grid.n)) / grid.r**2


def dense_b_prime(dgamma, domega, psi, grid, stencils, m):
    """dgamma delta^2 psi - i m dOmega (delta psi) + i m alpha_dOmega psi with
    dense matrices of the band stencils."""
    lap = dense(stencils.delta_matrix(m))
    out = dgamma * (lap @ (lap @ psi))
    if m != 0:
        alpha = dense_alpha(grid, stencils) @ domega
        out = out - 1j * m * domega * (lap @ psi) + 1j * m * alpha * psi
    return out


def dense_kkt(grid, stencils):
    """The KKT matrix [[A, 1], [w^T, 0]] of the metric's Riesz map, with
    A = delta_0^2 (H2); the map is its solve against [g - mean_w(g); 0]."""
    n = grid.n
    lap = dense(stencils.delta_matrix(0))
    kkt = np.zeros((n + 1, n + 1))
    kkt[:n, :n] = lap @ lap
    kkt[:n, n] = 1.0
    kkt[n, :n] = grid.weights
    return kkt


def assemble_adjoint(gamma, omega, omega_ref, omega_freq, m, grid, stencils):
    """The discretization of  gamma delta^2 - i omega delta + i m delta(beta .) - i m alpha."""
    lap = dense(stencils.delta_matrix(m))
    mat = gamma * (lap @ lap) - 1j * omega_freq * lap
    if m != 0:
        mat = mat + 1j * m * (lap * (omega - omega_ref)[None, :])
        mat = mat - 1j * m * np.diag(stencils.alpha @ omega)
    else:
        mat = mat + mean_pin(grid, gamma, omega_freq, lap)
    return mat


def continuous_gradient(problem, gamma, omega_values, psi, residual, metric):
    """`adjoint_gradient` with the adjoint state from `assemble_adjoint` and
    the differential form (sin/r^2) d/dtheta((1/sin) d/dtheta(.)) of the
    Omega density."""
    grid, st, m = problem.grid, problem.stencils, problem.m
    w = grid.weights
    adj = assemble_adjoint(gamma, omega_values, problem.omega_ref, problem.omega_freq, m, grid, st)
    l_adj = np.zeros(grid.n, dtype=complex)  # L* residual, zero off the observed nodes
    l_adj[residual.window] = residual.values
    z = np.linalg.solve(adj, l_adj)
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
