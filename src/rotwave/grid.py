"""Colatitude discretization of separated fields on a rotating sphere.

A field of azimuthal order m lives on a uniform cell-centered grid

    theta_j = (j + 1/2) * h,   h = pi / n,   j = 0 .. n-1,

so no node ever touches a pole and 1/sin(theta) stays finite everywhere.
Integrals use the midpoint rule with the area weight r^2 sin(theta) h (the
2*pi azimuthal factor is omitted consistently).

The separated Laplace-Beltrami operator

    delta_m = (1/(r^2 sin)) d/dtheta (sin d/dtheta) - m^2/(r^2 sin^2)

is discretized with a 5-point second-derivative stencil and a 6-point
first-derivative stencil (exact through degree 5).  The extra order on the
first derivative matters: the cot(theta) factor amplifies the stencil error
by 1/theta near the poles, and only the degree-5 exactness keeps the
odd-parity fields at full fourth-order accuracy there.

Stencil weights come from `fd_weights`, which solves one scaled moment
(Vandermonde) system per row.  The moments t^p are filled by products, row
p as row p-1 times t, so the weights are plain IEEE arithmetic plus LAPACK
and do not depend on which SIMD power routine the CPU takes.  Each row
keeps its own solve: sharing weights between rows with the same offset
pattern makes their rounding errors coherent, which raised the
manufactured-state errors 10-40x at large n when it was tried.

Pole conditions enter through two ghost layers per pole, eliminated against
the two m-dependent homogeneous conditions

    m = 0:     psi'  = psi''' = 0
    |m| = 1:   psi   = psi''  = 0
    |m| >= 2:  psi   = psi'   = 0

evaluated at theta in {0, pi} with 6-point one-sided formulas.  The ghost
elimination folds into the four columns nearest each pole, so delta_m stays
a band that couples nodes at most three apart.  Every derivative operator
is stored as band rows (`BandRows`): an (n, 6) weight array over one window
of six consecutive nodes per row, so each product costs O(n).  The
fourth-order operator is never formed here; `operator` solves it in mixed
form, with delta_m as its only stencil.

Each discretization is built once per process.  `build_grid` returns one
shared `Grid` per (int(n), float(r)) and `build_stencils` one shared
`DerivativeStencils` per grid, each from a least-recently-used cache of
`SHARED_DISCRETIZATIONS` entries; so repeated runs at one (n, r) also share
the per-m delta_m, ghost fills, `alpha` and `BandRows.diagonals` that the
stencils cache.  The shared arrays (`Grid.nodes`, `Grid.weights`, the ghost
fills and every `BandRows`' weights, columns and diagonals) are read-only,
so an in-place write raises instead of reaching later runs.
`build_grid.cache_clear()` and `build_stencils.cache_clear()` drop the
shared objects.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError

# np.einsum without its dispatch layer, about a third of a band product's
# time at n = 100: with optimize=False (its default) np.einsum passes its
# arguments to this function unchanged, so the products are the same
try:  # numpy >= 2
    from numpy._core.multiarray import c_einsum as _einsum
except ImportError:  # numpy 1.x
    from numpy.core.multiarray import c_einsum as _einsum

# derivative orders constrained at each pole, keyed by min(|m|, 2)
POLE_CONDITIONS = {0: (1, 3), 1: (0, 2), 2: (0, 1)}

_GHOST_LAYERS = 2
_FUNCTIONAL_POINTS = 6  # nodes per pole-condition functional (2 ghosts + 4 interior)

# grids and stencils kept alive per process (least recently used dropped
# first); covers the grid-convergence study's default sizes with room left
SHARED_DISCRETIZATIONS = 8


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def fd_weights(x0, nodes, order: int) -> np.ndarray:
    """Finite-difference weights for the `order`-th derivative at x0.

    Solves the scaled Taylor-moment system, exact on polynomials of degree
    len(nodes)-1.  Well conditioned for the small stencils used here.
    Batched: x0 of shape (...) with nodes of shape (..., k) gives (..., k),
    each row from its own moment system.
    """
    nodes = np.asarray(nodes, dtype=float)
    k = nodes.shape[-1]
    if order >= k:
        raise ValueError(f"need more than {k} nodes for derivative order {order}")
    offsets = nodes - np.asarray(x0, dtype=float)[..., None]
    scale = np.maximum(np.max(np.abs(offsets), axis=-1, keepdims=True), np.finfo(float).tiny)
    t = offsets / scale
    moments = np.empty(t.shape[:-1] + (k, k))  # moments[p, i] = t_i^p
    moments[..., 0, :] = 1.0
    for p in range(1, k):
        np.multiply(moments[..., p - 1, :], t, out=moments[..., p, :])
    rhs = np.zeros(k)
    rhs[order] = math.factorial(order)
    rhs = np.broadcast_to(rhs, moments.shape[:-1])[..., None]
    return np.linalg.solve(moments, rhs)[..., 0] / scale**order


@dataclass(frozen=True, eq=False)
class Grid:
    """Cell-centered colatitude grid with quadrature weights r^2 sin(theta) h."""

    n: int
    r: float
    h: float
    nodes: np.ndarray
    weights: np.ndarray

    @functools.cached_property
    def weight_sum(self):
        """Sum of the weights, the divisor of every `weighted_mean`."""
        return np.sum(self.weights)


def build_grid(n: int, r: float = 1.0) -> Grid:
    """The uniform pole-free grid with n cells on (0, pi), shared per process.

    n must be an integer of at least 16, so the one-sided boundary stencils
    have support, and r a finite positive radius.  Equal (int(n), float(r))
    return the same `Grid` (see the module docstring).
    """
    try:
        size, radius = int(n), float(r)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigurationError(
            f"grid needs an integer n and a real r, got n={n!r}, r={r!r}"
        ) from exc
    if size != n:
        raise ConfigurationError(f"grid needs an integer n, got n={n!r}")
    if size < 16:
        raise ConfigurationError(f"grid needs n >= 16, got n={n}")
    if not (math.isfinite(radius) and radius > 0):
        raise ConfigurationError(f"sphere radius must be finite and positive, got r={r}")
    return _shared_grid(size, radius)


# cached behind the canonical key, not on build_grid itself: lru_cache keys
# on the call's form, so build_grid(100), build_grid(np.int64(100)) and
# build_grid(100, r=1.0) would each build their own grid and stencils
@functools.lru_cache(maxsize=SHARED_DISCRETIZATIONS)
def _shared_grid(n: int, r: float) -> Grid:
    h = math.pi / n
    nodes = (np.arange(n) + 0.5) * h
    weights = r * r * np.sin(nodes) * h
    return Grid(n=n, r=r, h=h, nodes=_read_only(nodes), weights=_read_only(weights))


build_grid.cache_clear = _shared_grid.cache_clear


@dataclass(frozen=True, eq=False)
class ComplexField:
    """Complex separated field tagged with its azimuthal order m."""

    m: int
    values: np.ndarray


@dataclass(frozen=True, eq=False)
class ScalarField:
    """Real latitudinal profile (an m = 0 field)."""

    values: np.ndarray


def _check_field(grid: Grid, f: ComplexField, m: int | None = None) -> None:
    if len(f.values) != grid.n:
        raise ValueError(f"field length {len(f.values)} != grid size {grid.n}")
    if m is not None and f.m != m:
        raise ValueError(f"field has azimuthal order {f.m}, expected {m}")


@dataclass(frozen=True, eq=False)
class BandRows:
    """Band matrix stored by rows: row j holds `weights[j]` over the columns
    `columns[j]`, a window of consecutive nodes.  Products cost O(n * width)."""

    weights: np.ndarray  # (n, width)
    columns: np.ndarray  # (n, width) column index of each weight

    def __post_init__(self):
        # shared by every run at this (n, r): an in-place write must raise
        _read_only(self.weights)
        _read_only(self.columns)

    def __matmul__(self, v: np.ndarray) -> np.ndarray:
        return _einsum("jk,jk->j", self.weights, np.asarray(v)[self.columns])

    def rmatvec(self, u: np.ndarray) -> np.ndarray:
        """A^T u for a real vector u."""
        return np.bincount(
            self.columns.ravel(), (self.weights * u[:, None]).ravel(), minlength=len(u)
        )

    @functools.cached_property
    def diagonals(self) -> np.ndarray:
        """The matrix by diagonals, as in LAPACK band storage: entry (j, k)
        at [reach + j - k, k], where reach is the largest |j - k| of a
        nonzero weight.  Computed once, for writing the matrix into a band."""
        offsets = np.arange(len(self.weights))[:, None] - self.columns  # j - k
        nonzero = self.weights != 0
        reach = int(np.max(np.abs(offsets[nonzero])))
        out = np.zeros((2 * reach + 1, len(self.weights)))
        out[reach + offsets[nonzero], self.columns[nonzero]] = self.weights[nonzero]
        return _read_only(out)


def _stencil_rows(
    x0: np.ndarray, nodes: np.ndarray, starts: np.ndarray, width: int, order: int
) -> np.ndarray:
    """(len(x0), width) weights: row j holds the `order`-th derivative
    weights at x0[j] over the window nodes[starts[j] : starts[j] + width]."""
    return fd_weights(x0, nodes[starts[:, None] + np.arange(width)], order)


class DerivativeStencils:
    """Band derivative operators and per-m ghost closures for one grid.

    Public attributes:
      d1, d2   -- first/second derivative `BandRows` acting on plain nodal
                  fields with one-sided stencils near the poles (no
                  boundary conditions assumed); used for rotation profiles
                  and Sobolev seminorms.
      alpha    -- the rotation map Omega -> alpha_Omega as `BandRows`, built
                  on first use.

    The boundary-value operator delta_m comes from `delta_matrix(m)`, which
    folds the ghost closure `ghost_fill(m)` for the pole conditions of
    azimuthal order m into the four columns nearest each pole.  All these
    operators share one window per row: six nodes starting two before j,
    one further back past the equator, clipped into the grid.
    """

    def __init__(self, grid: Grid):
        self.grid = grid
        n, g = grid.n, _GHOST_LAYERS
        theta = grid.nodes
        self._theta_ext = (np.arange(-g, n + g) + 0.5) * grid.h

        j = np.arange(n)
        south = j >= n // 2
        self._starts = j - 2 - south
        self._columns = np.clip(self._starts, 0, n - 6)[:, None] + np.arange(6)
        plain = self._columns[:, 0]
        self.d1 = BandRows(_stencil_rows(theta, theta, plain, 6, order=1), self._columns)
        self.d2 = BandRows(_stencil_rows(theta, theta, plain, 6, order=2), self._columns)

        # over the ghost-extended grid, on the unclipped windows: the 6-point
        # d1 with its extra node on the equator side (degree-5 exactness, see
        # the module docstring for why) plus the 5-point centered d2, which
        # sits one node into the window past the equator.  Only the two rows
        # nearest each pole reach a ghost node.
        cot = np.cos(theta) / np.sin(theta)
        lap = cot[:, None] * _stencil_rows(theta, self._theta_ext, self._starts + g, 6, order=1)
        d2 = _stencil_rows(theta, self._theta_ext, j, 5, order=2)
        lap[~south, :5] += d2[~south]
        lap[south, 1:] += d2[south]
        self._lap_ext = lap

        self._fill_cache: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self._delta_cache: dict[int, BandRows] = {}

    @functools.cached_property
    def alpha(self) -> BandRows:
        """The rotation map Omega -> (Omega'' + 3 cot Omega' - 2 Omega) / r^2
        as one band operator on d1's and d2's windows."""
        theta, r = self.grid.nodes, self.grid.r
        cot = np.cos(theta) / np.sin(theta)
        weights = self.d2.weights + 3.0 * cot[:, None] * self.d1.weights
        rows = np.arange(self.grid.n)
        weights[rows, rows - self._columns[:, 0]] -= 2.0
        return BandRows(weights / (r * r), self._columns)

    def ghost_fill(self, m: int) -> tuple[np.ndarray, np.ndarray]:
        """2 x 4 maps (north, south) from the four nodes nearest a pole to
        that pole's two ghost values, eliminating the Gamma_m conditions."""
        key = min(abs(int(m)), 2)
        cached = self._fill_cache.get(key)
        if cached is not None:
            return cached
        g, k, h = _GHOST_LAYERS, _FUNCTIONAL_POINTS, self.grid.h
        poles = np.array([0.0, math.pi])
        pts = np.stack([self._theta_ext[:k], self._theta_ext[-k:]])
        # w[pole, condition, node], with h^d normalization for conditioning;
        # the ghosts are the first g nodes at the north pole, the last g at the south
        w = np.stack([fd_weights(poles, pts, d) * h**d for d in POLE_CONDITIONS[key]], axis=1)
        ghosts = np.stack([w[0, :, :g], w[1, :, -g:]])
        interior = np.stack([w[0, :, g:], w[1, :, :-g]])
        north, south = -np.linalg.solve(ghosts, interior)
        self._fill_cache[key] = (_read_only(north), _read_only(south))
        return self._fill_cache[key]

    def delta_matrix(self, m: int) -> BandRows:
        """delta_m including the Gamma_m closure, as band rows."""
        key = abs(int(m))
        cached = self._delta_cache.get(key)
        if cached is not None:
            return cached
        n, g = self.grid.n, _GHOST_LAYERS
        north, south = self.ghost_fill(key)
        k = north.shape[1]
        weights = self._lap_ext.copy()
        # rows reaching a ghost node: fold the ghost columns into the
        # interior columns each fill reads, then take the clipped window
        for j in (0, 1, n - 2, n - 1):
            row = np.zeros(n + 2 * g)
            row[self._starts[j] + g :][:6] = self._lap_ext[j]
            folded = row[g:-g].copy()
            folded[:k] += row[:g] @ north
            folded[-k:] += row[-g:] @ south
            weights[j] = folded[self._columns[j]]
        rows = np.arange(n)
        weights[rows, rows - self._columns[:, 0]] -= key * key / np.sin(self.grid.nodes) ** 2
        weights /= self.grid.r * self.grid.r
        self._delta_cache[key] = BandRows(weights, self._columns)
        return self._delta_cache[key]


@functools.lru_cache(maxsize=SHARED_DISCRETIZATIONS)
def build_stencils(grid: Grid) -> DerivativeStencils:
    """The stencils of `grid`, shared per process: cached on the grid's
    identity, like `build_grid` on (n, r)."""
    return DerivativeStencils(grid)


# ----------------------------------------------------------------------
# operations
# ----------------------------------------------------------------------


def weighted_mean(grid: Grid, values: np.ndarray):
    return (values * grid.weights).sum() / grid.weight_sum


def weighted_norm(weights: np.ndarray, values: np.ndarray) -> float:
    """Weighted L^2 norm sqrt(sum_j w_j |v_j|^2) of real or complex values:
    the one spelling of every state, parameter and data norm."""
    return math.sqrt(np.vdot(values, weights * values).real)

