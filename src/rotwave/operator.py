"""Separated wave operator: assembly, solve, derivative and diagnostics.

The forward boundary-value operator for azimuthal order m at temporal
frequency omega is

    B = gamma * delta_m^2 + i omega delta_m - i m beta delta_m + i m alpha

with rotation-derived coefficients

    alpha(theta) = (Omega'' + 3 Omega' cot(theta) - 2 Omega) / r^2
    beta(theta)  = Omega(theta) - Omega_ref

and the Gamma_m pole closure baked into delta_m.  Omega enters as its nodal
values (`Parameters.omega`); `apply_alpha` is the one spelling of the map
Omega -> alpha, shared by assembly and `apply_B_prime`.  The exact adjoint
of the discrete operator with respect to the weighted inner product,
W^-1 B^H W, is applied by `WaveSystem.solve_weighted_adjoint` through the
forward factorization; it is never assembled.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import lu_factor, lu_solve

from .errors import ConfigurationError, NearResonanceError
from .grid import ComplexField, DerivativeStencils, Grid, ScalarField, _check_field

# near-resonance threshold on min|U_ii| / max|U_ii| of the LU factor.  At
# n = 100, m = 1 the ratio is 1.5e-13 / 1.2e-13 / 9.3e-13 on the l = 2 / 3 / 5
# resonances (gamma = 1e-15); the default truths keep it above 7e-4 (m != 0)
# and 7e-9 (m = 0, falling like n^-3) for n up to 1600.
PIVOT_RTOL = 1e-12


@dataclass(frozen=True, eq=False)
class Parameters:
    """Unknowns of the inverse problem plus the rotating-frame reference.

    `omega` holds the nodal values of Omega(theta)."""

    gamma: float
    omega: np.ndarray
    omega_ref: float = 0.0


def apply_alpha(grid: Grid, stencils: DerivativeStencils, om: np.ndarray) -> np.ndarray:
    """The linear map Omega -> alpha_Omega = (Omega'' + 3 Omega' cot - 2 Omega) / r^2,
    through derivative matvecs."""
    cot = np.cos(grid.nodes) / np.sin(grid.nodes)
    return (stencils.d2 @ om + 3.0 * cot * (stencils.d1 @ om) - 2.0 * om) / grid.r**2


def apply_alpha_adjoint(grid: Grid, stencils: DerivativeStencils, v: np.ndarray) -> np.ndarray:
    """Adjoint of `apply_alpha` in the weighted inner product, W^-1 alpha^T W v."""
    cot = np.cos(grid.nodes) / np.sin(grid.nodes)
    wv = grid.weights * v
    out = stencils.d2.T @ wv + stencils.d1.T @ (3.0 * cot * wv) - 2.0 * wv
    return out / grid.r**2 / grid.weights


class WaveSystem:
    """Assembled separated operator with a lazily cached LU factorization.

    Immutable after assembly; concurrent solves against one factorization
    are safe (the factorization itself is computed on first use).
    """

    def __init__(self, matrix, m, omega_freq):
        self.matrix = matrix
        self.m = m
        self.omega_freq = omega_freq
        self._lu = None

    def factorization(self):
        if self._lu is None:
            lu, piv = lu_factor(self.matrix, check_finite=False)
            pivots = np.abs(np.diag(lu))
            ratio = float(pivots.min() / pivots.max())
            if not ratio >= PIVOT_RTOL:  # a NaN ratio (zero or non-finite matrix) trips too
                raise NearResonanceError(self.omega_freq, self.m, ratio)
            self._lu = (lu, piv)
        return self._lu

    def solve_values(self, rhs: np.ndarray) -> np.ndarray:
        lu = self.factorization()
        return lu_solve(lu, rhs, check_finite=False)

    def solve_weighted_adjoint(self, rhs: np.ndarray, weights: np.ndarray) -> np.ndarray:
        """Solve (W^-1 A^H W) z = rhs reusing this system's factorization."""
        lu = self.factorization()
        return lu_solve(lu, weights * rhs, trans=2, check_finite=False) / weights


def _mean_pin(grid: Grid, scale: float) -> np.ndarray:
    """Rank-one term pinning the constant mode of the m = 0 operator.

    delta_0 annihilates constants, so the axisymmetric problem is posed on
    mean-zero fields; scale * P with P x = mean_w(x) * 1 removes the null
    space, acts as zero on discretely mean-zero fields, and is self-adjoint
    in the weighted inner product (so the discrete and continuous adjoints
    share it).
    """
    w = grid.weights
    return scale * np.outer(np.ones(grid.n), w) / np.sum(w)


def _assemble_matrix(p: Parameters, omega_freq, m, grid, stencils):
    lap = stencils.delta_matrix(m)
    mat = p.gamma * stencils.bilaplacian_matrix(m) + 1j * omega_freq * lap
    if m != 0:
        mat = mat - 1j * m * (p.omega - p.omega_ref)[:, None] * lap
        mat = mat + 1j * m * np.diag(apply_alpha(grid, stencils, p.omega))
    else:
        mat = mat + _mean_pin(grid, float(np.max(np.abs(mat))))
    return np.ascontiguousarray(mat.astype(complex))


def assemble_forward(
    p: Parameters,
    omega_freq: float,
    m: int,
    grid: Grid,
    stencils: DerivativeStencils,
    _allow_any_gamma: bool = False,
) -> WaveSystem:
    """Assemble gamma delta_m^2 + i omega delta_m - i m beta delta_m + i m alpha."""
    if p.gamma <= 0 and not _allow_any_gamma:
        raise ConfigurationError(f"forward operator needs gamma > 0, got {p.gamma}")
    return WaveSystem(_assemble_matrix(p, omega_freq, m, grid, stencils), m, omega_freq)


def solve(system: WaveSystem, rhs: ComplexField) -> ComplexField:
    """Solve the assembled system for one right-hand side."""
    if rhs.m != system.m:
        raise ValueError(f"rhs has order {rhs.m}, system expects {system.m}")
    return ComplexField(m=system.m, values=system.solve_values(rhs.values.astype(complex)))


def apply_B_prime(
    dgamma: float,
    domega: ScalarField | np.ndarray,
    psi: ComplexField,
    grid: Grid,
    stencils: DerivativeStencils,
    m: int,
) -> ComplexField:
    """Parameter derivative of the operator applied to a state:

        dgamma * delta^2 psi - i m dOmega (delta psi) + i m alpha_dOmega psi.

    The operator is affine in (gamma, Omega), so this is exact, not a
    linearization.
    """
    _check_field(grid, psi, m)
    dom = domega.values if isinstance(domega, ScalarField) else np.asarray(domega, float)
    lap = stencils.delta_matrix(m)
    out = dgamma * (lap @ (lap @ psi.values))
    if m != 0:
        alpha_d = apply_alpha(grid, stencils, dom)
        out = out - 1j * m * dom * (lap @ psi.values) + 1j * m * alpha_d * psi.values
    return ComplexField(m=m, values=out)


# ----------------------------------------------------------------------
# well-posedness diagnostics (report-only)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class EmbeddingConstants:
    """Sobolev embedding constants entering the diagnostics (defaults 1)."""

    h1_to_l6: float = 1.0
    h_half_to_l3: float = 1.0
    h2_to_l3: float = 1.0
    h2_to_linf: float = 1.0
    h1_to_l4: float = 1.0


@dataclass(frozen=True)
class DiagnosticReport:
    satisfied: bool
    lhs: float
    rhs: float
    description: str


def _h1_full_norm(grid: Grid, stencils: DerivativeStencils, values: np.ndarray) -> float:
    w = grid.weights
    l2sq = float(np.sum(values**2 * w))
    gradsq = float(np.sum((stencils.d1 @ values) ** 2 * w)) / grid.r**2
    return float(np.sqrt(l2sq + gradsq))


def frequency_condition(
    p: Parameters,
    omega_freq: float,
    grid: Grid,
    stencils: DerivativeStencils,
    constants: EmbeddingConstants = EmbeddingConstants(),
) -> DiagnosticReport:
    """Large-frequency invertibility bound: |omega| against
    (4/gamma^3) (C1 C2)^4 (||Omega-Omega_ref||_H1^2 + 9 ||Omega||_H1^2)^2."""
    c = constants.h1_to_l6 * constants.h_half_to_l3
    nb = _h1_full_norm(grid, stencils, p.omega - p.omega_ref)
    na = _h1_full_norm(grid, stencils, p.omega)
    rhs = 4.0 / p.gamma**3 * c**4 * (nb**2 + 9.0 * na**2) ** 2
    return DiagnosticReport(
        satisfied=abs(omega_freq) > rhs,
        lhs=abs(omega_freq),
        rhs=rhs,
        description="|omega| exceeds the large-frequency invertibility threshold",
    )


def smallness_condition(
    p: Parameters,
    m: int,
    grid: Grid,
    stencils: DerivativeStencils,
    constants: EmbeddingConstants = EmbeddingConstants(),
) -> DiagnosticReport:
    """Uniqueness bound: ||Omega'||_L2 |m| C1 C2 / r compared against gamma."""
    w = grid.weights
    dnorm = float(np.sqrt(np.sum((stencils.d1 @ p.omega) ** 2 * w)))
    lhs = dnorm * abs(m) / grid.r * constants.h2_to_l3 * constants.h1_to_l6
    return DiagnosticReport(
        satisfied=lhs < p.gamma,
        lhs=lhs,
        rhs=p.gamma,
        description="rotation-shear norm is small compared to the viscosity",
    )
