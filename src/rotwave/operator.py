"""Separated wave operator: mixed-form band assembly, solve and derivative.

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
five slice writes into LAPACK band storage, allocated in Fortran order:
the real ones through the band's real view, the imaginary coefficients
i d and i a through its imaginary view, so that no write casts.
`WaveSystem` is the one type that builds, factors and solves a mixed
band: the forward operator for m != 0 (`assemble_forward`, which in the
package only `inversion.InverseProblem.state` calls).  Its constructor
factors K with zgbtrf in place of the band (a C-ordered band would be
copied and transposed by f2py first), so the system holds only the LU.
Every forward system offers the same two solves, on nodal arrays:
`solve_values` and `solve_weighted_adjoint`.  The interleaved layout stays
inside `WaveSystem`: a state is one zgbtrs against [f; 0], built in the
solve and overwritten by it, which gives psi at the odd unknowns and phi
at the even ones.  The exact adjoint of the discrete operator with
respect to the weighted inner product, W^-1 B^H W, is one
conjugate-transposed solve with the roles swapped: K^H [a; b] = [0; g]
gives B^H a = g, so g = W rhs goes to the odd positions and a is read
from the even ones.  K's condition number grows like n^2 where that of B
grows like n^4.  A system lives as long as its caller holds it: the
Nesterov-Landweber loop builds one per trial point and keeps none beyond
the gradient taken at it.  So K's constant blocks (the -1 row and the
delta_m diagonals of the psi columns) are written again on every build: a
kept template would be a band-sized array per problem, about 1 MB at
n = 1600.

For m = 0, delta_0 annihilates constants, so the axisymmetric problem is
posed on mean-zero fields through the mean pin s 1 v^T (v = w / sum w)
added to B: it removes the null space, acts as zero on discretely mean-zero
fields and is self-adjoint in the weighted inner product, so the discrete
and continuous adjoints share it.  s is the largest |entry| of
G = gamma delta_0 + i omega.  K has no coupling block then, so
B_mean = G delta_0 + s 1 v^T splits into two n-point bands with
kl = ku = 3 (`AxisymmetricSystem`, the one m = 0 operator): G and the
node-pinned L_n = delta_0 + t e_c e_c^T at the equator node c, factored
once per stencils object together with delta_0's left null vector
ell = L_n^-T e_c (`pinned_delta0`).  ell^T B_mean psi = s (ell^T 1) v^T psi
fixes the mean of psi, so a state is one G solve against the source minus
its ell-component, then one L_n solve and a mean shift; the adjoint is the
same two solves transposed, in the other order.  delta_0's eigenvalues
are real, so for gamma > 0 G is singular only at omega = 0.  There
G = gamma delta_0, and on the right-hand sides its solves meet
(ell^T r = 0, 1^T y = 0) L_n / gamma inverts it: a static system factors
nothing of its own.  The H2 Riesz map of `inversion.ParameterMetric` is
that static system with gamma = 1, two zgbtrs on the grid's L_n per
gradient.

zgbtrf and zgbtrs are scipy's own f2py wrappers, taken from its compiled
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
)

# near-resonance threshold on min|U_ii| / max|U_ii| of the band LU of K,
# for m != 0.  At n = 100, m = 1, gamma = 1e-15 the ratio is 2.5e-14 /
# 1.2e-13 / 2.9e-13 on the l = 2 / 3 / 5 resonances and 1.15e-4 / 9.05e-5 /
# 4.35e-5 a frequency step of 1e-3 away.  On the default truths it is
# 4.0e-3 (m2) and 1.9e-3 (m3) at n = 100 and settles near 3.4e-3 and 1.5e-3
# for larger n.  m = 0 has no resonance to guard (G is singular only at
# omega = 0, which L_n serves), so no threshold: G's ratio reads about
# 1e-15 as omega -> 0 while its solves stay accurate.
PIVOT_RTOL = 1e-12

_REACH = 3  # delta_m couples nodes at most this far apart; kl = ku of an n-point band
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
# every band is complex
_zgbtrf, _zgbtrs = _flapack.zgbtrf, _flapack.zgbtrs


def apply_alpha_adjoint(stencils: DerivativeStencils, v: np.ndarray) -> np.ndarray:
    """Weighted adjoint W^-1 alpha^T W v of the map Omega -> `stencils.alpha @ Omega`."""
    w = stencils.grid.weights
    return stencils.alpha.rmatvec(w * v) / w


# ----------------------------------------------------------------------
# the factored mixed band
# ----------------------------------------------------------------------


def _gbtrs(
    lu: np.ndarray, piv: np.ndarray, full: np.ndarray, trans: int, overwrite: int, kl: int = _KL
) -> np.ndarray:
    """Solve against a band LU with kl = ku (K's unless given) for `full`, a
    Fortran-ordered right-hand side, in place of it when `overwrite` is 1
    and `full` is complex, else in a complex copy that f2py makes."""
    return _zgbtrs(lu, kl, kl, full, piv, trans=trans, overwrite_b=overwrite)[0]


def _pivot_ratio(lu: np.ndarray, diag: int) -> float:
    """min |U_ii| / max |U_ii| of a band LU whose diagonal is row `diag`,
    without numpy's floating-point warning when the pivots are not finite
    (inf / inf is NaN)."""
    pivots = np.abs(lu[diag])
    return float(pivots.min()) / float(pivots.max())


class WaveSystem:
    """The mixed band K = [[gamma L + i diag(d), i diag(a)], [-I, L]] of
    L = lap, the forward operator for m != 0, factored in place at
    construction.  d and a are real nodal arrays or scalars, the imaginary
    parts of K's coefficient blocks.  `pivot_ratio` is min |U_ii| / max
    |U_ii| of the LU, which `assemble_forward` checks.  Solves do not modify
    the factors, so concurrent solves are safe.
    """

    def __init__(self, lap: BandRows, gamma: float, d: np.ndarray | float, a: np.ndarray | float):
        dia = lap.diagonals
        # Fortran order, as zgbtrf takes it, so that it factors the band in
        # place.  Each block is written through the real or imaginary view:
        # a real-to-complex cast would run numpy's buffered loop instead.
        band = np.zeros((2 * _KL + _KU + 1, 2 * dia.shape[1]), dtype=complex, order="F")
        real = band.real
        # row 2j: ((gamma L + i d) phi + i a psi)_j
        real[_DELTA_ROWS, 0::2] = gamma * dia
        band.imag[_DIAG, 0::2] = d
        band.imag[_DIAG - 1, 1::2] = a
        real[_DIAG + 1, 0::2] = -1.0  # row 2j+1: -phi_j + (L psi)_j
        real[_DELTA_ROWS, 1::2] = dia
        self.lu, self.piv, _ = _zgbtrf(band, _KL, _KU, overwrite_ab=1)
        self.pivot_ratio = _pivot_ratio(self.lu, _DIAG)

    def solve_values(self, rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(psi, phi): psi = B^-1 rhs and phi = delta_m psi from one solve of
        K [phi; psi] = [rhs; 0], in place of that right-hand side."""
        full = np.zeros(2 * len(rhs), dtype=complex)
        full[0::2] = rhs
        x = _gbtrs(self.lu, self.piv, full, 0, 1)
        return x[1::2], x[0::2]

    def solve_weighted_adjoint(self, rhs: np.ndarray, weights: np.ndarray) -> np.ndarray:
        """Solve (W^-1 B^H W) z = rhs: B^H a = W rhs from one solve of
        K^H [a; b] = [0; W rhs], then z = a / w."""
        full = np.zeros(2 * len(rhs), dtype=complex)
        full[1::2] = weights * rhs
        return _gbtrs(self.lu, self.piv, full, 2, 1)[0::2] / weights


# ----------------------------------------------------------------------
# the m = 0 operator as two n-point bands
# ----------------------------------------------------------------------


def _delta0_band(stencils: DerivativeStencils, gamma: float) -> np.ndarray:
    """gamma delta_0 in complex LAPACK band storage with kl = ku = 3
    (fill-in rows above), Fortran-ordered for an in-place zgbtrf."""
    dia = stencils.delta_matrix(0).diagonals
    band = np.zeros((3 * _REACH + 1, dia.shape[1]), dtype=complex, order="F")
    band.real[_REACH:] = gamma * dia
    return band


class PinnedDelta0:
    """What the m = 0 solves of one grid share: the LU of the node-pinned
    L_n = delta_0 + t e_c e_c^T (c the equator node, t = `scale`, the
    largest |entry| of delta_0), delta_0's left null vector ell = L_n^-T e_c
    with its sum, and the mean pin's v = w / sum w.  L_n 1 = t e_c gives
    t ell_c = 1 and so ell^T delta_0 = 0.  The LU is complex although L_n
    is real: one zgbtrs on a complex vector is faster than dgbtrs on its
    real and imaginary parts (54 against 75 us at n = 1600, one BLAS thread
    on a 2-vCPU x86-64 VM).  Read-only; built once per stencils object
    (`pinned_delta0`)."""

    def __init__(self, stencils: DerivativeStencils):
        band = _delta0_band(stencils, 1.0)
        node = band.shape[1] // 2
        self.scale = float(np.max(np.abs(band[_REACH:])))
        band.real[2 * _REACH, node] += self.scale
        self.lu, self.piv, _ = _zgbtrf(band, _REACH, _REACH, overwrite_ab=1)
        e = np.zeros(band.shape[1], dtype=complex)
        e[node] = 1.0
        self.ell = _gbtrs(self.lu, self.piv, e, 1, 1, _REACH).real
        self.ell_sum = float(np.sum(self.ell))
        w = stencils.grid.weights
        self.v = w / np.sum(w)
        for a in (self.lu, self.piv, self.ell, self.v):
            a.flags.writeable = False


def pinned_delta0(stencils: DerivativeStencils) -> PinnedDelta0:
    """The stencils' `PinnedDelta0`: built on first use and kept in
    `stencils.derived`, so shared by every m = 0 system on them."""
    pinned = stencils.derived.get("delta0")
    if pinned is None:
        pinned = stencils.derived["delta0"] = PinnedDelta0(stencils)
    return pinned


class AxisymmetricSystem:
    """The m = 0 operator B_mean = G delta_0 + s 1 v^T, G = gamma delta_0 +
    i omega, s the largest |entry| of G, solved together with the grid's
    `PinnedDelta0`.  For omega != 0 G's band is factored in place at
    construction; at omega = 0 G = gamma delta_0 is singular, and L_n /
    gamma stands in for it, so the system factors nothing.  `lu`, `piv`
    and `pivot_ratio` are those of the factors that stand for G.  It offers
    `WaveSystem`'s solves, which take and return the same arrays.

    With ell^T G = i omega ell^T and ell^T delta_0 = 0, a state is
    c = ell^T f / (s ell^T 1), phi = G^-1 (f - (ell^T f / ell^T 1) 1),
    x = L_n^-1 phi, psi = x + (c - v^T x) 1; the adjoint B_mean^H a = g is
    y = L_n^-T (g - (1^T g) v), b = G^-H y,
    a = b + ((1^T g / s - 1^T b) / 1^T ell) ell.  G 1 = i omega 1 and
    G^H ell = -i omega ell, so G^-1 and G^-H amplify those directions by
    1 / omega.  Two projections, zero in exact arithmetic, keep the solves
    accurate as omega -> 0: phi is projected onto ell^T phi = 0 along 1,
    which removes rounding amplified along 1, and y onto 1^T y = 0 along
    ell, which removes the O(1) part along ell that L_n^-T leaves and G^-H
    would amplify.  At omega = 0 the same projections pick, among the
    solutions L_n^-1 / gamma gives of the singular G, the one that
    B_mean's phi = delta_0 psi and adjoint need.
    """

    def __init__(self, stencils: DerivativeStencils, gamma: float, omega_freq: float):
        self._delta0 = pinned = pinned_delta0(stencils)
        if omega_freq == 0:
            self.lu, self.piv, self._lu_scale = pinned.lu, pinned.piv, gamma
            self.scale = gamma * pinned.scale
        else:
            band = _delta0_band(stencils, gamma)
            band.imag[2 * _REACH] = omega_freq
            self.scale = float(np.max(np.abs(band[_REACH:])))
            self.lu, self.piv, _ = _zgbtrf(band, _REACH, _REACH, overwrite_ab=1)
            self._lu_scale = 1.0
        self.pivot_ratio = _pivot_ratio(self.lu, 2 * _REACH)

    def solve_values(self, rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(psi, phi): psi = B_mean^-1 rhs and phi = delta_0 psi."""
        pinned = self._delta0
        ell_f = pinned.ell @ rhs
        phi = rhs - ell_f / pinned.ell_sum
        if self._lu_scale != 1.0:
            phi /= self._lu_scale
        phi = _gbtrs(self.lu, self.piv, phi, 0, 1, _REACH)
        phi -= (pinned.ell @ phi) / pinned.ell_sum
        psi = _gbtrs(pinned.lu, pinned.piv, phi, 0, 0, _REACH)
        psi += ell_f / (self.scale * pinned.ell_sum) - pinned.v @ psi
        return psi, phi

    def solve_weighted_adjoint(self, rhs: np.ndarray, weights: np.ndarray) -> np.ndarray:
        """Solve (W^-1 B_mean^H W) z = rhs: B_mean^H a = g for g = W rhs, then
        z = a / w."""
        pinned = self._delta0
        g = weights * rhs
        g_sum = np.sum(g)
        y = _gbtrs(pinned.lu, pinned.piv, g - g_sum * pinned.v, 1, 1, _REACH)
        y -= (np.sum(y) / pinned.ell_sum) * pinned.ell
        if self._lu_scale != 1.0:
            y /= self._lu_scale
        a = _gbtrs(self.lu, self.piv, y, 2, 1, _REACH)
        a += ((g_sum / self.scale - np.sum(a)) / pinned.ell_sum) * pinned.ell
        return a / weights


# what `assemble_forward` returns; both offer the same solves
ForwardSystem = WaveSystem | AxisymmetricSystem


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
    stencils: DerivativeStencils,
) -> ForwardSystem:
    """The factored forward operator at (gamma, Omega) with Omega by its nodal
    values `omega`: for m != 0 the band of d = omega_freq - m beta and
    a = m alpha, for m = 0 the two bands of `AxisymmetricSystem`.  The model
    assumes 0 < gamma < inf; any other gamma (NaN too) is a
    ConfigurationError.  For m != 0 a pivot ratio below
    `PIVOT_RTOL` raises `NearResonanceError`; for m = 0, which has no
    resonance, only a zero ratio does (an exactly singular G).  A NaN ratio
    (a non-finite band) raises it for every m."""
    if not 0 < gamma < math.inf:  # NaN fails too
        raise ConfigurationError(f"forward operator needs 0 < gamma < inf, got {gamma}")
    if m == 0:
        system = AxisymmetricSystem(stencils, gamma, omega_freq)
        singular = not system.pivot_ratio > 0  # NaN fails too
    else:
        d = omega_freq - m * (omega - omega_ref)
        a = m * (stencils.alpha @ omega)
        system = WaveSystem(stencils.delta_matrix(m), gamma, d, a)
        singular = not system.pivot_ratio >= PIVOT_RTOL
    if singular:
        raise NearResonanceError(omega_freq, m, system.pivot_ratio)
    return system


def apply_B_prime(
    dgamma: float,
    domega: ScalarField,
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
    dom = domega.values
    lap = stencils.delta_matrix(m)
    if phi is None:
        phi = lap @ psi.values
    out = dgamma * (lap @ phi)
    if m != 0:
        out = out - 1j * m * dom * phi + 1j * m * (stencils.alpha @ dom) * psi.values
    return ComplexField(m=m, values=out)
