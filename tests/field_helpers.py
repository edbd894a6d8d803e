"""Field helpers that only the tests use: sampling a function on the grid,
the weighted pairing of two fields, the data-space pairing and
zero-extension of observed data, delta_m and its square applied to a field,
and one-sided pole traces."""

import math

import numpy as np

from rotwave import ComplexField
from rotwave.grid import _FUNCTIONAL_POINTS, POLE_CONDITIONS, _check_field, fd_weights


def sample(grid, m, fn):
    """The field of order m with values fn(nodes)."""
    return ComplexField(m=m, values=np.asarray(fn(grid.nodes), dtype=complex))


def inner_product(grid, f, g):
    """Weighted L^2 pairing sum f_j conj(g_j) w_j of two same-m fields."""
    if f.m != g.m:
        raise ValueError(f"cannot pair fields of different order: {f.m} vs {g.m}")
    _check_field(grid, f)
    _check_field(grid, g)
    return complex(np.sum(f.values * np.conj(g.values) * grid.weights))


def data_pairing(grid, a, b):
    """The real data inner product sum Re(a conj(b)) w over a's observed nodes."""
    return float(np.sum((a.values * np.conj(b.values)).real * grid.weights[a.window]))


def zero_extension(grid, m, data):
    """L* of a data vector: the order-m field that holds the data at the
    observed nodes and zero elsewhere (real data embed as complex)."""
    values = np.zeros(grid.n, dtype=complex)
    values[data.window] = data.values
    return ComplexField(m=m, values=values)


def apply_delta_m(grid, stencils, m, psi):
    """Apply the separated Laplacian with the Gamma_m ghost closure."""
    _check_field(grid, psi, m)
    return ComplexField(m=m, values=stencils.delta_matrix(m) @ psi.values)


def apply_bilaplacian_m(grid, stencils, m, psi):
    """Two applications of delta_m with the closure re-applied in between."""
    _check_field(grid, psi, m)
    lap = stencils.delta_matrix(m)
    return ComplexField(m=m, values=lap @ (lap @ psi.values))


def boundary_trace(grid, m, psi):
    """One-sided estimates of the Gamma_m quantities at both poles.

    Returns (north first, north second, south first, south second) for the
    two derivative orders constrained at order m.  Uses interior nodes only,
    so it measures how well psi satisfies the conditions rather than
    assuming them.
    """
    _check_field(grid, psi)
    orders = POLE_CONDITIONS[min(abs(int(m)), 2)]
    k, theta, v = _FUNCTIONAL_POINTS, grid.nodes, psi.values
    north = [complex(fd_weights(0.0, theta[:k], d) @ v[:k]) for d in orders]
    south = [complex(fd_weights(math.pi, theta[-k:], d) @ v[-k:]) for d in orders]
    return north[0], north[1], south[0], south[1]
