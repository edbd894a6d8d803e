"""Separated wave operator: mixed-form band assembly, solve, derivative and
diagnostics.

The forward boundary-value operator for azimuthal order m at temporal
frequency omega is

    B = gamma * delta_m^2 + i omega delta_m - i m beta delta_m + i m alpha

with rotation-derived coefficients

    alpha(theta) = (Omega'' + 3 Omega' cot(theta) - 2 Omega) / r^2
    beta(theta)  = Omega(theta) - Omega_ref

and the Gamma_m pole closure baked into delta_m.  Omega enters as its nodal
values, an array beside gamma in every entry point; the band rows
`stencils.alpha` are the one spelling of the map Omega -> alpha, shared by
assembly and `apply_B_prime`.

B is never formed.  With phi = delta_m psi (the mixed form of Ciarlet and
Raviart for the biharmonic) the solve is

    K [phi; psi] = [f; 0],
    K = [[gamma delta_m + diag(i omega - i m beta), diag(i m alpha)], [-I, delta_m]],

and eliminating phi gives back exactly B psi = f.  The unknowns are
interleaved as (phi_j, psi_j) and node j's two equations follow K's block
rows: row 2j takes the source, row 2j+1 is -phi_j + (delta_m psi)_j.  Both
delta_m blocks then sit on the even offsets 2 (j - k), and K is a band with
kl = ku = 6 (delta_m couples nodes at most three apart).  Each stencils
object keeps delta_m by diagonals (`BandRows.diagonals`), so assembly is
five slice writes into LAPACK band storage, allocated in Fortran order.
`WaveSystem` is the one type that builds, factors and solves a mixed
band: the forward operator (`assemble_forward`, which in the package
only `inversion.InverseProblem.state` calls) and the Riesz map of
`inversion.ParameterMetric` (an m = 0 band with its own gamma and d) each
build one.  Its constructor factors K with gbtrf in place of the band (a
C-ordered band would be copied and transposed by f2py first), so the
system holds only the LU.  Every solve is one gbtrs against it, in place
of a fresh right-hand side, which gives psi at the odd unknowns and phi at
the even ones.  The exact adjoint of the discrete
operator with respect to the weighted inner product, W^-1 B^H W, is one
conjugate-transposed solve with the roles swapped: K^H [a; b] = [0; g]
gives B^H a = g, so g goes to the odd positions and a is read from the
even ones (`WaveSystem.solve_weighted_adjoint`).  Its condition number
grows like n^2 where that of B grows like n^4.  A system lives as long as
its caller holds it: the Nesterov-Landweber loop builds one per trial
point and keeps none beyond the gradient taken at it.

For m = 0, delta_0 annihilates constants, so the axisymmetric problem is
posed on mean-zero fields through the mean pin s 1 v^T (v = w / sum w)
added to B: it removes the null space, acts as zero on discretely mean-zero
fields and is self-adjoint in the weighted inner product, so the discrete
and continuous adjoints share it.  The band carries a one-node pin
s e_c e_c^T at the equator node c instead, on the a-entry of row 2c, and
the difference s (1 v^T - e_c e_c^T) is a rank-2 Woodbury correction
applied around each band solve, to phi as well as to psi (`_MeanPin`).  s
is the largest entry of gamma delta_0 + i omega, the block of K the pin
shares a row with.

gbtrf and gbtrs are scipy's own f2py wrappers, taken from its compiled
LAPACK module `scipy.linalg._flapack`, which `_load_flapack` loads by file
spec: importing `scipy.linalg` for them would run scipy's package imports,
which cost more than the rest of a cold `rotwave` start.
"""

from __future__ import annotations

import importlib.util
import math
import os
import sys
from dataclasses import dataclass
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder

import numpy as np

from .errors import ConfigurationError, NearResonanceError
from .grid import (
    BandRows,
    ComplexField,
    DerivativeStencils,
    Grid,
    ScalarField,
    _check_field,
    weighted_norm,
)

# near-resonance threshold on min|U_ii| / max|U_ii| of the band LU of K.  At
# n = 100, m = 1, gamma = 1e-15 the ratio is 2.5e-14 / 1.2e-13 / 2.9e-13 on
# the l = 2 / 3 / 5 resonances and 1.15e-4 / 9.05e-5 / 4.35e-5 a frequency
# step of 1e-3 away.  On the default truths it is 4.0e-3 (m2) and 1.9e-3
# (m3) at n = 100 and settles near 3.4e-3 and 1.5e-3 for larger n; for m0 it
# falls like 1/n: 1.1e-3 at n = 1600, 2.8e-4 at n = 6400.
PIVOT_RTOL = 1e-12

_REACH = 3  # delta_m couples nodes at most this far apart
_KL = _KU = 2 * _REACH  # sub- and superdiagonals of K, unknowns interleaved
_DIAG = _KL + _KU  # band-storage row of the main diagonal (rows above: fill-in)
_DELTA_ROWS = slice(_DIAG - _KL, _DIAG + _KL + 1, 2)  # band rows of delta_m's diagonals


def _load_flapack():
    """scipy's compiled LAPACK module, registered under its canonical name so
    that a later `import scipy.linalg` reuses it, without running
    `scipy/__init__` or `scipy/linalg/__init__`."""
    name = "scipy.linalg._flapack"
    if name in sys.modules:
        return sys.modules[name]
    scipy = importlib.util.find_spec("scipy")
    if scipy is None:
        raise ModuleNotFoundError("No module named 'scipy'", name="scipy")
    linalg = os.path.join(scipy.submodule_search_locations[0], "linalg")
    spec = FileFinder(linalg, (ExtensionFileLoader, EXTENSION_SUFFIXES)).find_spec(name)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


_flapack = _load_flapack()
# gbtrf and gbtrs by the band's dtype code: the metric bands are real, the
# wave operator's are complex
_GBTRF = {"d": _flapack.dgbtrf, "D": _flapack.zgbtrf}
_GBTRS = {"d": _flapack.dgbtrs, "D": _flapack.zgbtrs}


def apply_alpha_adjoint(grid: Grid, stencils: DerivativeStencils, v: np.ndarray) -> np.ndarray:
    """Weighted adjoint W^-1 alpha^T W v of the map Omega -> `stencils.alpha @ Omega`."""
    return stencils.alpha.rmatvec(grid.weights * v) / grid.weights


# ----------------------------------------------------------------------
# the factored mixed band
# ----------------------------------------------------------------------


def _gbtrs(lu: np.ndarray, piv: np.ndarray, full: np.ndarray, trans: int) -> np.ndarray:
    """Solve against a band LU in place of `full`, a fresh Fortran-ordered
    right-hand side of the LU's dtype."""
    gbtrs = _GBTRS[lu.dtype.char]
    return gbtrs(lu, _KL, _KU, full, piv, trans=trans, overwrite_b=1)[0]


class _MeanPin:
    """The m = 0 mean pin of one band.  Constructed on the unfactored band, it
    writes the one-node pin s e_c e_c^T at the equator node c; `factor` then
    keeps the Woodbury data of the mean pin B_mean = B_node + U V^T,
    U = s [1, e_c], V = [v, -e_c]: y = K^-1 [U; 0] (interleaved, phi and psi
    parts) and cinv = (I + V^T y_psi)^-1."""

    def __init__(self, band: np.ndarray, weights: np.ndarray):
        self.scale = float(np.max(np.abs(band[_DELTA_ROWS, 0::2])))
        self.node = len(weights) // 2
        band[_DIAG - 1, 2 * self.node + 1] += self.scale
        self.v = weights / np.sum(weights)

    def factor(self, lu: np.ndarray, piv: np.ndarray) -> None:
        """Form y and cinv from the LU of the pinned band."""
        u = np.zeros((lu.shape[1], 2), dtype=lu.dtype, order="F")  # [U; 0]
        u[0::2, 0] = self.scale
        u[2 * self.node, 1] = self.scale
        self.y = _gbtrs(lu, piv, u, 0)
        vt_y = np.array([self.v @ self.y[1::2], -self.y[2 * self.node + 1]])
        self.cinv = np.linalg.inv(np.eye(2) + vt_y)

    def correct(self, x: np.ndarray) -> None:
        """Turn a node-pinned solution [phi; psi] into the mean-pinned one, in
        place: B_mean^-1 = (I - y cinv V^T) B_node^-1, on phi and psi alike."""
        psi = x[1::2]
        x -= self.y @ (self.cinv @ np.array([self.v @ psi, -psi[self.node]]))

    def correct_adjoint(self, rhs: np.ndarray) -> np.ndarray:
        """The right-hand side that makes a node-pinned adjoint solve the
        mean-pinned one: B_mean^-H = B_node^-H (I - V cinv^H y_psi^H)."""
        t = self.cinv.conj().T @ (self.y[1::2].conj().T @ rhs)
        rhs = rhs - self.v * t[0]
        rhs[self.node] += t[1]
        return rhs


class WaveSystem:
    """The mixed band K = [[gamma L + diag(d), diag(a)], [-I, L]] of L = lap,
    factored in place at construction; d and a are nodal arrays or scalars.

    With `pin_weights` the band carries the mean pin (`_MeanPin`).
    `pivot_ratio` is min |U_ii| / max |U_ii| of the LU; `assemble_forward`
    checks it, the Riesz metric does not.  Solves do not modify the
    factors, so concurrent solves are safe.
    """

    def __init__(
        self,
        lap: BandRows,
        gamma: float,
        d: np.ndarray | complex,
        a: np.ndarray | complex,
        pin_weights: np.ndarray | None = None,
    ):
        dia = lap.diagonals
        # Fortran order, as gbtrf takes it, so that it factors the band in place
        band = np.zeros(
            (2 * _KL + _KU + 1, 2 * dia.shape[1]), dtype=np.result_type(d, a, float), order="F"
        )
        # row 2j: ((gamma L + d) phi + a psi)_j
        np.multiply(dia, gamma, out=band[_DELTA_ROWS, 0::2])
        band[_DIAG, 0::2] += d
        band[_DIAG - 1, 1::2] = a
        band[_DIAG + 1, 0::2] = -1.0  # row 2j+1: -phi_j + (L psi)_j
        band[_DELTA_ROWS, 1::2] = dia
        self._pin = None if pin_weights is None else _MeanPin(band, pin_weights)
        self.lu, self.piv, _ = _GBTRF[band.dtype.char](band, _KL, _KU, overwrite_ab=1)
        pivots = np.abs(self.lu[_DIAG])
        self.pivot_ratio = float(pivots.min() / pivots.max())
        if self._pin is not None:
            self._pin.factor(self.lu, self.piv)

    def solve_values(self, rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(psi, phi): psi = B^-1 rhs and phi = delta_m psi from one solve of
        K [phi; psi] = [rhs; 0]; a pinned system applies the mean pin in
        place of the one-node pin."""
        full = np.zeros((2 * len(rhs),) + rhs.shape[1:], dtype=self.lu.dtype, order="F")
        full[0::2] = rhs
        x = _gbtrs(self.lu, self.piv, full, 0)
        if self._pin is not None:
            self._pin.correct(x)
        return x[1::2], x[0::2]

    def solve_weighted_adjoint(self, rhs: np.ndarray, weights: np.ndarray) -> np.ndarray:
        """Solve (W^-1 B^H W) z = rhs: B^H a = W rhs is read off
        K^H [a; b] = [0; W rhs] at the even positions."""
        full = np.zeros(2 * len(rhs), dtype=self.lu.dtype)
        full[1::2] = weights * rhs
        if self._pin is not None:
            full[1::2] = self._pin.correct_adjoint(full[1::2])
        return _gbtrs(self.lu, self.piv, full, 2)[0::2] / weights


@dataclass(frozen=True, eq=False)
class State(ComplexField):
    """A solved field psi together with phi = delta_m psi from the same mixed
    solve; phi equals delta_m psi to solve accuracy."""

    phi: np.ndarray


def assemble_forward(
    gamma: float,
    omega: np.ndarray,
    omega_ref: float,
    omega_freq: float,
    m: int,
    grid: Grid,
    stencils: DerivativeStencils,
    allow_any_gamma: bool = False,
) -> WaveSystem:
    """The factored forward operator at (gamma, Omega) with Omega by its nodal
    values `omega`: the band of d = i (omega_freq - m beta) and a = i m alpha,
    or of d = i omega_freq and a = 0 and mean-pinned for m = 0.  gamma <= 0
    is a ConfigurationError unless `allow_any_gamma`; a pivot ratio below
    `PIVOT_RTOL` raises `NearResonanceError`, a NaN one (zero or non-finite
    band) too."""
    if gamma <= 0 and not allow_any_gamma:
        raise ConfigurationError(f"forward operator needs gamma > 0, got {gamma}")
    d, a = 1j * omega_freq, 0.0
    if m != 0:
        d = 1j * (omega_freq - m * (omega - omega_ref))
        a = 1j * m * (stencils.alpha @ omega)
    pin_weights = grid.weights if m == 0 else None
    system = WaveSystem(stencils.delta_matrix(m), gamma, d, a, pin_weights)
    if not system.pivot_ratio >= PIVOT_RTOL:
        raise NearResonanceError(omega_freq, m, system.pivot_ratio)
    return system


def apply_B_prime(
    dgamma: float,
    domega: ScalarField | np.ndarray,
    psi: ComplexField,
    grid: Grid,
    stencils: DerivativeStencils,
    m: int,
    phi: np.ndarray | None = None,
) -> ComplexField:
    """Parameter derivative of the operator applied to a state:

        dgamma * delta^2 psi - i m dOmega (delta psi) + i m alpha_dOmega psi.

    `phi` is delta psi when the caller has it (`State.phi`); otherwise it is
    computed here.  The operator is affine in (gamma, Omega), so this is
    exact, not a linearization.
    """
    _check_field(grid, psi, m)
    dom = domega.values if isinstance(domega, ScalarField) else np.asarray(domega, float)
    lap = stencils.delta_matrix(m)
    if phi is None:
        phi = lap @ psi.values
    out = dgamma * (lap @ phi)
    if m != 0:
        out = out - 1j * m * dom * phi + 1j * m * (stencils.alpha @ dom) * psi.values
    return ComplexField(m=m, values=out)


# ----------------------------------------------------------------------
# well-posedness diagnostics (report-only)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class DiagnosticReport:
    satisfied: bool
    lhs: float
    rhs: float
    description: str


def _h1_full_norm(grid: Grid, stencils: DerivativeStencils, values: np.ndarray) -> float:
    w = grid.weights
    return math.hypot(weighted_norm(w, values), weighted_norm(w, stencils.d1 @ values) / grid.r)


def frequency_condition(
    gamma: float,
    omega: np.ndarray,
    omega_ref: float,
    omega_freq: float,
    grid: Grid,
    stencils: DerivativeStencils,
) -> DiagnosticReport:
    """Large-frequency invertibility bound: |omega| against
    (4/gamma^3) (C1 C2)^4 (||Omega-Omega_ref||_H1^2 + 9 ||Omega||_H1^2)^2,
    with the embedding constants C1 (H1 -> L6) and C2 (H^1/2 -> L3) set
    to 1."""
    nb = _h1_full_norm(grid, stencils, omega - omega_ref)
    na = _h1_full_norm(grid, stencils, omega)
    rhs = 4.0 / gamma**3 * (nb**2 + 9.0 * na**2) ** 2
    return DiagnosticReport(
        satisfied=abs(omega_freq) > rhs,
        lhs=abs(omega_freq),
        rhs=rhs,
        description="|omega| exceeds the large-frequency invertibility threshold",
    )


def smallness_condition(
    gamma: float,
    omega: np.ndarray,
    m: int,
    grid: Grid,
    stencils: DerivativeStencils,
) -> DiagnosticReport:
    """Uniqueness bound: ||Omega'||_L2 |m| C1 C2 / r compared against gamma,
    with the embedding constants C1 (H2 -> L3) and C2 (H1 -> L6) set to 1."""
    lhs = weighted_norm(grid.weights, stencils.d1 @ omega) * abs(m) / grid.r
    return DiagnosticReport(
        satisfied=lhs < gamma,
        lhs=lhs,
        rhs=gamma,
        description="rotation-shear norm is small compared to the viscosity",
    )
