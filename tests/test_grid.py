import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import lpmv
from scipy.integrate import quad

from conftest import observed_order, wl2
from field_helpers import (
    apply_bilaplacian_m,
    apply_delta_m,
    boundary_trace,
    data_pairing,
    inner_product,
    sample,
    zero_extension,
)
from rotwave import (
    ComplexField,
    ConfigurationError,
    build_grid,
    build_stencils,
)
from rotwave.grid import fd_weights, weighted_norm


# ----------------------------------------------------------------------
# grid construction
# ----------------------------------------------------------------------


def test_grid_nodes_are_cell_centered():
    g = build_grid(16)
    assert g.h == pytest.approx(math.pi / 16)
    assert g.nodes == pytest.approx((np.arange(16) + 0.5) * math.pi / 16)


def test_grid_hundred_point_resolution():
    g = build_grid(100)
    assert g.n == 100
    assert g.h == pytest.approx(math.pi / 100)
    assert len(g.nodes) == 100


def test_grid_rejects_small_n():
    with pytest.raises(ConfigurationError):
        build_grid(8)


@pytest.mark.parametrize("n", [100.5, float("nan"), float("inf"), "100", None])
def test_grid_rejects_non_integral_n(n):
    # 100.5 used to give a grid of 101 nodes whose stencils failed to index
    with pytest.raises(ConfigurationError, match="integer n"):
        build_grid(n)


@pytest.mark.parametrize("r", [float("nan"), float("inf"), -float("inf"), 0.0, -1.0])
def test_grid_rejects_non_finite_or_non_positive_r(r):
    # NaN slipped past `r <= 0` and gave NaN weights
    with pytest.raises(ConfigurationError, match="radius"):
        build_grid(100, r)


def test_grid_key_is_canonical():
    # equal (int(n), float(r)) share one grid, whose n is a plain int
    g = build_grid(100)
    assert build_grid(np.int64(100)) is g
    assert build_grid(100.0, 1) is g
    assert build_grid(100, r=np.float64(1.0)) is g
    assert type(g.n) is int and type(g.r) is float
    assert type(build_grid(np.int64(117)).n) is int


def test_grid_nodes_avoid_poles_and_weights_positive():
    for n in (16, 101, 256):
        g = build_grid(n, r=2.0)
        assert np.all(g.nodes > 0) and np.all(g.nodes < math.pi)
        assert np.all(g.weights > 0)


def test_weight_sum_converges_to_sphere_area_factor():
    # sum w_j -> 2 r^2 (azimuthal 2*pi factor omitted by convention)
    errs = [abs(np.sum(build_grid(n, r=1.5).weights) - 2 * 1.5**2) for n in (50, 200)]
    assert errs[1] < errs[0] / 10
    assert errs[1] < 1e-4


# ----------------------------------------------------------------------
# inner product / quadrature
# ----------------------------------------------------------------------


def test_inner_product_constants(grid100):
    one = sample(grid100, 0, np.ones_like)
    val = inner_product(grid100, one, one)
    assert val == pytest.approx(2.0, abs=2.0 / 100**2)


def test_inner_product_odd_symmetry(grid100):
    f = sample(grid100, 0, np.cos)
    g = sample(grid100, 0, np.ones_like)
    assert abs(inner_product(grid100, f, g)) < 1e-14


def test_inner_product_sin2_pair(grid100):
    # analytic: int_0^pi sin^5 = 16/15; cross-checked against quadrature
    oracle, _ = quad(lambda t: np.sin(t) ** 5, 0, np.pi)
    assert oracle == pytest.approx(16 / 15, rel=1e-12)
    f = sample(grid100, 0, lambda t: np.sin(t) ** 2)
    assert inner_product(grid100, f, f).real == pytest.approx(16 / 15, abs=3e-4)


def test_inner_product_rejects_mixed_m(grid100):
    f = sample(grid100, 1, np.sin)
    g = sample(grid100, 2, np.sin)
    with pytest.raises(ValueError):
        inner_product(grid100, f, g)


def test_inner_product_rejects_wrong_length(grid100):
    f = ComplexField(m=0, values=np.ones(7, dtype=complex))
    g = sample(grid100, 0, np.ones_like)
    with pytest.raises(ValueError):
        inner_product(grid100, f, g)


def test_quadrature_order_at_least_two(grids):
    # int_0^pi cos^2 sin = 2/3
    errs = []
    ns = (50, 100, 200, 400)
    for n in ns:
        g, _ = grids[n]
        f = sample(g, 0, lambda t: np.cos(t) ** 2)
        one = sample(g, 0, np.ones_like)
        errs.append(abs(inner_product(g, f, one).real - 2 / 3))
    assert observed_order(ns, errs, floor=1e-14) >= 2.0


@settings(deadline=None, max_examples=25)
@given(
    a=st.complex_numbers(max_magnitude=10, allow_nan=False, allow_infinity=False),
    seed=st.integers(0, 2**31),
)
def test_inner_product_sesquilinear(a, seed):
    g = build_grid(20)
    rng = np.random.default_rng(seed)
    u = ComplexField(m=1, values=rng.standard_normal(20) + 1j * rng.standard_normal(20))
    v = ComplexField(m=1, values=rng.standard_normal(20) + 1j * rng.standard_normal(20))
    ip = inner_product
    scaled = ComplexField(m=1, values=a * u.values)
    assert ip(g, scaled, v) == pytest.approx(a * ip(g, u, v), rel=1e-12, abs=1e-12)
    assert ip(g, v, u) == pytest.approx(np.conj(ip(g, u, v)), rel=1e-12, abs=1e-12)


# ----------------------------------------------------------------------
# separated Laplacian and bilaplacian
# ----------------------------------------------------------------------


def test_delta_m0_on_cos(grid100, stencils100):
    psi = sample(grid100, 0, np.cos)
    out = apply_delta_m(grid100, stencils100, 0, psi)
    assert np.max(np.abs(out.values + 2 * psi.values)) < 50 * grid100.h**4


def test_delta_m1_on_sin(grid100, stencils100):
    psi = sample(grid100, 1, np.sin)
    out = apply_delta_m(grid100, stencils100, 1, psi)
    assert np.max(np.abs(out.values + 2 * psi.values)) < 50 * grid100.h**4


def test_delta_m2_radius_scaling():
    g = build_grid(100, r=2.0)
    st_ = build_stencils(g)
    psi = sample(g, 2, lambda t: np.sin(t) ** 2)
    out = apply_delta_m(g, st_, 2, psi)
    assert np.max(np.abs(out.values + 6 / 4 * psi.values)) < 50 * g.h**4


def test_delta_rejects_mismatched_m(grid100, stencils100):
    psi = sample(grid100, 1, np.sin)
    with pytest.raises(ValueError):
        apply_delta_m(grid100, stencils100, 2, psi)


def test_eigenfunction_convergence_sample(grids):
    # full (l, m) table is exercised by the acceptance suite
    ns = (50, 100, 200, 400)
    for m, l in ((0, 4), (1, 3), (2, 5), (3, 6)):
        errs = []
        for n in ns:
            g, st_ = grids[n]
            psi = ComplexField(m=m, values=lpmv(m, l, np.cos(g.nodes)).astype(complex))
            out = apply_delta_m(g, st_, m, psi)
            ref = -l * (l + 1) * psi.values
            errs.append(np.max(np.abs(out.values - ref)) / np.max(np.abs(ref)))
        assert observed_order(ns, errs, floor=1e-11) >= 3.5, (m, l, errs)


def test_bilaplacian_eigenfunctions(grids):
    ns = (50, 100, 200)
    for m, l, lam2 in ((2, 2, 36.0), (0, 1, 4.0)):
        errs = []
        for n in ns:
            g, st_ = grids[n]
            psi = ComplexField(m=m, values=lpmv(m, l, np.cos(g.nodes)).astype(complex))
            out = apply_bilaplacian_m(g, st_, m, psi)
            errs.append(wl2(g, out.values - lam2 * psi.values) / wl2(g, lam2 * psi.values))
        assert errs[0] < 1e-3
        # cubic up to slope-measurement noise
        assert observed_order(ns, errs, floor=1e-9) >= 2.9, (m, l, errs)


def test_bilaplacian_zero_field(grid100, stencils100):
    psi = ComplexField(m=2, values=np.zeros(100, dtype=complex))
    out = apply_bilaplacian_m(grid100, stencils100, 2, psi)
    assert np.all(out.values == 0)


def test_discrete_symmetry_of_bilaplacian(grids):
    # symmetry defect on Gamma_m-compatible fields; decays (or sits at the
    # roundoff floor, which only sharpens the claim)
    ns = (50, 100, 200, 400)
    for m in range(4):
        vals = []
        for n in ns:
            g, st_ = grids[n]
            x = np.cos(g.nodes)
            u = ComplexField(m=m, values=(lpmv(m, max(m, 1), x) + 0.3 * lpmv(m, max(m, 1) + 2, x)).astype(complex))
            v = ComplexField(m=m, values=lpmv(m, max(m, 1) + 1, x).astype(complex))
            uu = apply_bilaplacian_m(g, st_, m, u)
            vv = apply_bilaplacian_m(g, st_, m, v)
            a = inner_product(g, uu, v)
            b = inner_product(g, u, vv)
            lap, w = st_.delta_matrix(m), g.weights
            denom = weighted_norm(w, lap @ u.values) * weighted_norm(w, lap @ v.values)
            vals.append(abs(a - b) / denom)
        assert max(vals) < 1e-9 or observed_order(ns, vals, floor=1e-11) >= 3.0, (m, vals)


def test_mean_zero_preservation(grids):
    # discrete integral of delta_0 psi sits at the roundoff floor already
    for n in (50, 100, 200, 400):
        g, st_ = grids[n]
        psi = sample(g, 0, lambda t: np.cos(t) ** 3 + 0.5 * np.cos(t))
        out = apply_delta_m(g, st_, 0, psi)
        assert abs(np.sum(out.values * g.weights)) / wl2(g, out.values) < 1e-10


# ----------------------------------------------------------------------
# boundary traces
# ----------------------------------------------------------------------


def test_trace_clamped_sin2(grid100):
    psi = sample(grid100, 2, lambda t: np.sin(t) ** 2)
    traces = boundary_trace(grid100, 2, psi)
    assert max(abs(t) for t in traces) < 100 * grid100.h**3


def test_trace_m1_sin(grid100):
    psi = sample(grid100, 1, np.sin)
    traces = boundary_trace(grid100, 1, psi)
    assert max(abs(t) for t in traces) < 100 * grid100.h**3


def test_trace_m0_cos(grid100):
    psi = sample(grid100, 0, np.cos)
    traces = boundary_trace(grid100, 0, psi)
    assert max(abs(t) for t in traces) < 100 * grid100.h**3


def test_trace_detects_violations(grid100):
    # cos(theta) violates the clamped conditions at order 2: psi(0) = 1
    psi = sample(grid100, 2, np.cos)
    traces = boundary_trace(grid100, 2, psi)
    assert abs(traces[0] - 1.0) < 1e-6


# ----------------------------------------------------------------------
# stencil and closure contracts
# ----------------------------------------------------------------------


def test_d1_annihilates_constants_and_differentiates_theta(grid100, stencils100):
    const = np.ones(100)
    assert np.max(np.abs(stencils100.d1 @ const)) < 1e-11
    lin = stencils100.d1 @ grid100.nodes
    interior = slice(4, -4)
    assert np.max(np.abs(lin[interior] - 1.0)) < 1e-10  # exact on degree <= 5


def test_ghost_closure_matches_smooth_extension(grid100, stencils100):
    # admissible order-m fields extend smoothly across the poles; the ghost
    # fill must reproduce that extension to high order
    h = grid100.h
    ghost_north = np.array([-1.5 * h, -0.5 * h])
    ghost_south = math.pi + np.array([0.5 * h, 1.5 * h])
    for m, fn in ((0, np.cos), (1, np.sin), (2, lambda t: np.sin(t) ** 2)):
        north, south = stencils100.ghost_fill(m)
        v = fn(grid100.nodes)
        # O(h^6) fill error; stencil division by h^2 still leaves O(h^4)
        assert np.max(np.abs(north @ v[:4] - fn(ghost_north))) < 1e-7, m
        assert np.max(np.abs(south @ v[-4:] - fn(ghost_south))) < 1e-7, m


@pytest.mark.parametrize("h", [math.pi / 100, math.pi / 1600])
def test_fd_weights_match_closed_form_on_uniform_nodes(h):
    x0 = 1.0
    centred = fd_weights(x0, x0 + h * np.arange(-2, 3), 2)
    want = np.array([-1, 16, -30, 16, -1]) / (12 * h * h)
    assert np.max(np.abs(centred - want)) < 1e-12 * np.max(np.abs(want))
    one_sided = fd_weights(x0, x0 + h * np.arange(6), 1)
    want = np.array([-137 / 60, 5, -5, 10 / 3, -5 / 4, 1 / 5]) / h
    assert np.max(np.abs(one_sided - want)) < 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("k, order", [(5, 2), (6, 1), (6, 3)])
def test_fd_weights_exact_on_monomials_at_random_nodes(k, order):
    # batched rows on non-uniform nodes: each row differentiates (x - x0)^p,
    # p < k, exactly, relative to the size of the terms it sums
    rng = np.random.default_rng(k + order)
    x0 = rng.uniform(0.5, 2.5, size=20)
    nodes = x0[:, None] + 0.05 * np.sort(rng.uniform(-3, 3, size=(20, k)), axis=1)
    w = fd_weights(x0, nodes, order)
    for p in range(k):
        terms = w * (nodes - x0[:, None]) ** p
        want = math.factorial(order) if p == order else 0.0
        err = np.abs(terms.sum(axis=1) - want)
        assert np.all(err < 1e-12 * np.abs(terms).sum(axis=1)), p


@pytest.mark.parametrize("n", [16, 100])
def test_delta_matrix_folds_ghost_fill(n):
    # delta_m psi must equal the ghost-extended stencils d2 + cot d1 (5 and
    # 6 points, the extra d1 node on the equator side) applied to psi padded
    # with the ghost_fill values, minus m^2 / sin^2
    grid = build_grid(n)
    stencils = build_stencils(grid)
    theta = grid.nodes
    ext = (np.arange(-2, n + 2) + 0.5) * grid.h
    rng = np.random.default_rng(n)
    psi = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    for m in range(4):
        north, south = stencils.ghost_fill(m)
        padded = np.concatenate([north @ psi[:4], psi, south @ psi[-4:]])
        want = np.empty(n, dtype=complex)
        for j in range(n):
            c = j + 2  # index of theta_j in ext
            lo = c - 2 if j < n // 2 else c - 3
            d2 = fd_weights(theta[j], ext[c - 2 : c + 3], 2) @ padded[c - 2 : c + 3]
            d1 = fd_weights(theta[j], ext[lo : lo + 6], 1) @ padded[lo : lo + 6]
            want[j] = d2 + d1 / math.tan(theta[j]) - m * m * psi[j] / math.sin(theta[j]) ** 2
        lap = stencils.delta_matrix(m)
        got = lap @ psi
        assert np.max(np.abs(got - want)) < 1e-12 * np.max(np.abs(want)), m
        # the folds stay inside the band: no weight couples nodes more than
        # three apart, which the mixed-form band layout relies on
        assert lap.diagonals.shape[0] <= 2 * 3 + 1, m


@settings(deadline=None, max_examples=20)
@given(level=st.floats(min_value=1e-6, max_value=0.9), seed=st.integers(0, 2**31))
def test_noise_calibration_property(level, seed):
    from rotwave import DataVector, NoiseSpec, add_noise

    g = build_grid(24)
    rng = np.random.default_rng(1)
    y = DataVector(
        values=rng.standard_normal(24) + 1j * rng.standard_normal(24),
        window=slice(0, 24),
    )
    noisy, delta = add_noise(y, NoiseSpec(relative_level=level, seed=seed), g)
    measured = np.linalg.norm(noisy.values - y.values) / np.linalg.norm(y.values)
    assert measured == pytest.approx(level, abs=1e-12)
    assert delta > 0


@settings(deadline=None, max_examples=20)
@given(eps=st.floats(min_value=0.05, max_value=1.5), seed=st.integers(0, 2**31))
def test_observation_projection_property(eps, seed):
    from rotwave import DataVector, ObservationScheme, observe
    from rotwave.inversion import observation_window

    g = build_grid(32)
    scheme = ObservationScheme(kind="restricted", epsilon=float(eps))
    rng = np.random.default_rng(seed)
    psi = ComplexField(m=1, values=rng.standard_normal(32) + 1j * rng.standard_normal(32))
    window = observation_window(g, scheme)
    # the window is the node set the scheme's inequalities pick
    inside = np.where((g.nodes > eps) & (g.nodes < np.pi - eps))[0]
    assert np.array_equal(np.arange(32)[window], inside)
    size = window.stop - window.start
    d = DataVector(
        values=rng.standard_normal(size) + 1j * rng.standard_normal(size),
        window=window,
    )
    lhs = data_pairing(g, observe(psi, scheme, g), d)
    rhs = inner_product(g, psi, zero_extension(g, 1, d)).real
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)
