import math

import numpy as np
import pytest
import sympy as sp
from scipy.special import lpmv

from adjoint_reference import assemble_adjoint, assemble_dense, bandwidth, dense, dense_alpha
from conftest import observed_order, wl2
from field_helpers import inner_product, sample
import rotwave.operator
from rotwave import (
    ComplexField,
    ConfigurationError,
    DerivativeStencils,
    InverseProblem,
    NearResonanceError,
    ObservationScheme,
    ScalarField,
    apply_B_prime,
    assemble_forward,
    build_grid,
    build_stencils,
    frequency_condition,
    smallness_condition,
)
from rotwave.experiments import ExperimentConfig, build_problem
from rotwave.inversion import ParameterMetric
from rotwave.operator import apply_alpha_adjoint, pinned_delta0


def rotation(grid, fn):
    return fn(grid.nodes)


def const_rotation(grid, c):
    return np.full(grid.n, float(c))


# ----------------------------------------------------------------------
# alpha coefficient
# ----------------------------------------------------------------------


def test_coefficients_constant_rotation(grid100, stencils100):
    c = 0.7
    alpha = stencils100.alpha @ const_rotation(grid100, c)
    assert alpha == pytest.approx(np.full(100, -2 * c), abs=1e-10)


def test_coefficients_zero_rotation(grid100, stencils100):
    alpha = stencils100.alpha @ const_rotation(grid100, 0.0)
    assert np.max(np.abs(alpha)) < 1e-12


def test_coefficients_against_nested_derivative_oracle(grids):
    # alpha in expanded form vs exact symbolic nested differentiation
    th = sp.symbols("theta", positive=True)
    omega_sym = sp.cos(th) ** 2
    nested = sp.diff(sp.diff(omega_sym * sp.sin(th) ** 2, th) / sp.sin(th), th) / sp.sin(th)
    oracle = sp.lambdify(th, sp.simplify(nested), "numpy")
    ns = (100, 200)
    errs = []
    for n in ns:
        g, st_ = grids[n]
        alpha = st_.alpha @ rotation(g, lambda t: np.cos(t) ** 2)
        ref = oracle(g.nodes)
        errs.append(np.max(np.abs(alpha - ref)) / np.max(np.abs(ref)))
    assert errs[0] < 1e-6
    assert observed_order(ns, errs, floor=1e-13) >= 3.5


@pytest.mark.parametrize("n", [64, 400])
def test_apply_alpha_matches_dense_reference(n):
    g = build_grid(n, r=0.8)
    st_ = build_stencils(g)
    matrix = dense_alpha(g, st_)
    rng = np.random.default_rng(n)
    for om in (rng.standard_normal(n), np.cos(g.nodes) ** 2 + 0.3 * np.cos(g.nodes) ** 3):
        # matvecs and the dense product round differently; bound the gap by
        # the rounding of one row sum over the largest stencil entries
        tol = 20 * np.finfo(float).eps * np.max(np.abs(matrix)) * np.max(np.abs(om))
        assert np.max(np.abs(st_.alpha @ om - matrix @ om)) < tol


@pytest.mark.parametrize("n", [64, 400])
def test_apply_alpha_adjoint_identity(n):
    g = build_grid(n, r=0.8)
    st_ = build_stencils(g)
    w = g.weights
    rng = np.random.default_rng(n + 1)
    for _ in range(5):
        u, v = rng.standard_normal(n), rng.standard_normal(n)
        lhs = np.sum((st_.alpha @ u) * v * w)
        rhs = np.sum(u * apply_alpha_adjoint(st_, v) * w)
        assert abs(lhs - rhs) <= 1e-12 * abs(lhs)


# ----------------------------------------------------------------------
# forward assembly
# ----------------------------------------------------------------------


def test_forward_eigen_identity(grid100, stencils100):
    gamma, om_freq, m, om0, om_ref = 0.3, 2.0, 2, 0.8, 0.1
    p = (gamma, const_rotation(grid100, om0), om_ref)
    matrix = assemble_dense(*p, om_freq, m, grid100, stencils100)
    psi = np.sin(grid100.nodes) ** 2
    factor = 36 * gamma - 6j * om_freq + 12j * (om0 - om_ref) - 4j * om0
    out = matrix @ psi
    assert np.max(np.abs(out - factor * psi)) < 200 * grid100.h**3


def test_forward_m0_drops_rotation_terms(grid100, stencils100):
    # rotation coefficients are multiplied by m; compare actions on a
    # mean-zero field (the assembled m = 0 matrix carries a mean pin)
    p = (0.7, rotation(grid100, lambda t: np.cos(t) ** 2), 0.3)
    matrix = assemble_dense(*p, 1.5, 0, grid100, stencils100)
    lap = dense(stencils100.delta_matrix(0))
    x = np.cos(grid100.nodes)  # discretely mean-zero by symmetry
    expected = 0.7 * (lap @ (lap @ x)) + 1.5j * (lap @ x)
    # tolerance reflects matvec accumulation over ~1e7-sized entries
    tol = 100 * np.finfo(float).eps * np.max(np.abs(matrix))
    assert np.max(np.abs(matrix @ x - expected)) < tol


def test_forward_reference_rotation_drops_beta(grid100, stencils100):
    om0 = 0.9
    p = (0.5, const_rotation(grid100, om0), om0)
    matrix = assemble_dense(*p, 2.0, 1, grid100, stencils100)
    lap = dense(stencils100.delta_matrix(1))
    alpha = -2 * om0  # r = 1
    expected = 0.5 * (lap @ lap) + 2.0j * lap + 1j * alpha * np.eye(100)
    assert np.max(np.abs(matrix - expected)) < 1e-10


def test_forward_rejects_nonpositive_gamma(grid100, stencils100):
    with pytest.raises(ConfigurationError):
        assemble_forward(0.0, const_rotation(grid100, 1.0), 0.0, 1.0, 2, stencils100)


@pytest.mark.parametrize("gamma", [math.nan, math.inf])
def test_forward_rejects_non_finite_gamma(grid100, stencils100, gamma):
    # `gamma <= 0` let both through: NaN factored a NaN band that read as a
    # near-resonance
    with pytest.raises(ConfigurationError, match="0 < gamma < inf"):
        assemble_forward(gamma, const_rotation(grid100, 1.0), 0.0, 1.0, 2, stencils100)


def test_bandwidth_is_bounded(grid100, stencils100):
    p = (0.5, const_rotation(grid100, 1.0), 0.0)
    assert bandwidth(assemble_dense(*p, 2.0, 2, grid100, stencils100)) <= 8


# ----------------------------------------------------------------------
# solve
# ----------------------------------------------------------------------


def manufactured_case(grid, stencils, gamma=0.3, om_freq=2.0, m=2, om0=0.8):
    """Constant-rotation eigenfunction truth with analytic source."""
    p = (gamma, const_rotation(grid, om0), 0.0)
    psi = sample(grid, m, lambda t: np.sin(t) ** 2)
    factor = 36 * gamma - 6j * om_freq + 12j * om0 - 4j * om0
    f = ComplexField(m=m, values=factor * psi.values)
    return p, psi, f, om_freq, m


def test_solve_manufactured(grid100, stencils100):
    p, psi, f, om_freq, m = manufactured_case(grid100, stencils100)
    system = assemble_forward(*p, om_freq, m, stencils100)
    out, _ = system.solve_values(f.values)
    assert wl2(grid100, out - psi.values) / wl2(grid100, psi.values) < 1e-5


def test_solve_zero_rhs(grid100, stencils100):
    p, psi, f, om_freq, m = manufactured_case(grid100, stencils100)
    system = assemble_forward(*p, om_freq, m, stencils100)
    assert np.all(system.solve_values(np.zeros(100, dtype=complex))[0] == 0)


def test_solve_linearity(grid100, stencils100):
    p, psi, f, om_freq, m = manufactured_case(grid100, stencils100)
    system = assemble_forward(*p, om_freq, m, stencils100)
    x1, _ = system.solve_values(f.values)
    x2, _ = system.solve_values(2 * f.values)
    assert np.max(np.abs(x2 - 2 * x1)) < 1e-12 * np.max(np.abs(x1))


def test_solve_residual_contract(grid100, stencils100):
    p, psi, f, om_freq, m = manufactured_case(grid100, stencils100)
    system = assemble_forward(*p, om_freq, m, stencils100)
    x, _ = system.solve_values(f.values)
    matrix = assemble_dense(*p, om_freq, m, grid100, stencils100)
    res = np.linalg.norm(matrix @ x - f.values)
    assert res / np.linalg.norm(f.values) < 1e-10


def test_solve_rejects_mismatched_order(grid100, stencils100):
    # the problem checks its source once, when it is built: a source of
    # another order or length would otherwise be solved silently
    p, psi, f, om_freq, m = manufactured_case(grid100, stencils100)
    for source, message in (
        (ComplexField(m=1, values=f.values), "order m=1"),
        (ComplexField(m=m, values=f.values[:-1]), "99 values"),
    ):
        with pytest.raises(ConfigurationError, match=message):
            InverseProblem(
                grid=grid100, stencils=stencils100, m=m, omega_freq=om_freq, source=source,
                scheme=ObservationScheme(),
            )


def test_factorization_reproduces_matrix(grid100, stencils100):
    # factorization quality measured by the backward residual (the forward
    # error is bounded by kappa * eps, not 1e-12, for a fourth-order band)
    p, psi, f, om_freq, m = manufactured_case(grid100, stencils100)
    system = assemble_forward(*p, om_freq, m, stencils100)
    rng = np.random.default_rng(0)
    x = rng.standard_normal(100) + 1j * rng.standard_normal(100)
    matrix = assemble_dense(*p, om_freq, m, grid100, stencils100)
    b = matrix @ x
    x2, _ = system.solve_values(b)
    res = np.linalg.norm(matrix @ x2 - b) / np.linalg.norm(b)
    assert res < 1e-12


def _record_gbtrf_bands(monkeypatch):
    """Route every gbtrf call through a recorder; return the bands it saw."""
    passed = []
    for code, gbtrf in list(rotwave.operator._GBTRF.items()):

        def recording(band, *args, gbtrf=gbtrf, **kwargs):
            passed.append(band)
            return gbtrf(band, *args, **kwargs)

        monkeypatch.setitem(rotwave.operator._GBTRF, code, recording)
    return passed


def _assert_factored_in_place_and_dropped(system, band):
    assert np.shares_memory(system.lu, band)
    # nothing of the band's size is kept beside the LU
    arrays = [k for k, v in vars(system).items() if np.shape(v) == band.shape]
    assert arrays == ["lu"]


@pytest.mark.parametrize("m", [0, 3])
def test_system_factors_its_band_in_place_and_drops_it(monkeypatch, grid100, m):
    # gbtrf writes the LU over the band only if the band is Fortran-ordered;
    # otherwise f2py silently factors a copy.  For m = 0 the band is G's, and
    # the stencils' node-pinned delta_0 is factored, in place too, before
    # the first system on them only; so the test takes stencils of its own
    stencils = DerivativeStencils(grid100)
    passed = _record_gbtrf_bands(monkeypatch)
    for _ in range(2):
        system = assemble_forward(0.05, np.cos(grid100.nodes) ** 2, 0.1, 1.3, m, stencils)
        _assert_factored_in_place_and_dropped(system, passed[-1])
    assert [band.dtype for band in passed] == [complex] * (3 if m == 0 else 2)
    if m == 0:
        assert np.shares_memory(pinned_delta0(stencils).lu, passed[0])


def test_riesz_band_is_factored_in_place(monkeypatch, grid100):
    # the real H2 metric band, as ParameterMetric assembles it.  The band is
    # built once per stencils object, so the test takes stencils of its own
    # (the shared ones may have built theirs already); a second metric on
    # them factors nothing
    stencils = DerivativeStencils(grid100)
    passed = _record_gbtrf_bands(monkeypatch)
    system = ParameterMetric(stencils)._system
    assert ParameterMetric(stencils, gamma_scale=3000.0)._system is system
    assert [band.dtype for band in passed] == [float]
    _assert_factored_in_place_and_dropped(system, passed[0])


def _resonant_frequency(stencils, m, om0, l):
    """Exact resonance of the discrete constant-rotation pencil near mode l.

    With beta = 0 the operator is gamma*L^2 + i(omega*L + m*alpha I); picking
    omega = -m*alpha/mu for a discrete eigenvalue mu of L makes the
    imaginary part vanish on that eigenvector, leaving gamma*mu^2.
    """
    L = dense(stencils.delta_matrix(m))
    mu = np.linalg.eigvals(L)
    mu_l = mu[np.argmin(np.abs(mu - (-l * (l + 1))))]
    alpha = -2 * om0
    return float(np.real(-m * alpha / mu_l))


def test_near_resonance_detection(grid100, stencils100):
    om0, m = 0.8, 1
    omega_freq = _resonant_frequency(stencils100, m, om0, l=2)
    with pytest.raises(NearResonanceError) as err:
        assemble_forward(1e-15, const_rotation(grid100, om0), om0, omega_freq, m, stencils100)
    assert err.value.m == m
    assert err.value.omega_freq == pytest.approx(omega_freq)


TRUTHS = ("m0_default", "m2_default", "m3_default")


@pytest.mark.parametrize(
    "truth_name, n",
    [(t, 1600) for t in TRUTHS] + [(t, 6400) for t in TRUTHS],
    ids=[*TRUTHS, *(f"{t}-n6400" for t in TRUTHS)],
)
def test_default_truths_solve_at_n1600(truth_name, n):
    # the pivot-ratio guard must not mistake a fine grid for a resonance:
    # the m = 0 ratio, G's, falls like n^-1 (2.5e-3 at n = 1600, 6.1e-4 at
    # n = 6400); m = 2, 3 stay near 3.4e-3 and 1.5e-3
    _, _, psi, _ = build_problem(ExperimentConfig(n=n, truth=truth_name))
    assert np.all(np.isfinite(psi.values))


@pytest.mark.parametrize("truth_name", TRUTHS)
def test_manufactured_state_accuracy_on_fine_grids(truth_name):
    # the mixed-form band solve keeps converging past n = 400, where dense
    # LU of the n^-4-conditioned B stalled and then lost accuracy (m0:
    # 1.4e-9 / 4.2e-8 / 1.0e-6 at n = 400 / 800 / 1600)
    errs = {}
    for n in (400, 800, 1600):
        truth, problem, psi, _ = build_problem(ExperimentConfig(n=n, truth=truth_name))
        grid = problem.grid
        exact = truth.psi_exact(grid).values
        errs[n] = wl2(grid, psi.values - exact) / wl2(grid, exact)
    assert errs[800] <= 1e-10 and errs[1600] <= 1e-10, errs
    assert errs[800] < errs[400], errs


def test_resonance_scan_shows_isolated_dips(grid100, stencils100):
    # smallest singular value dips sharply at the discrete resonances and
    # recovers in between: isolated near-singular frequencies
    om0, m = 0.8, 1
    p = (1e-5, const_rotation(grid100, om0), om0)

    def sigma_min(om_freq):
        matrix = assemble_dense(*p, om_freq, m, grid100, stencils100)
        return np.linalg.svd(matrix, compute_uv=False)[-1]

    res2 = _resonant_frequency(stencils100, m, om0, l=2)
    res3 = _resonant_frequency(stencils100, m, om0, l=3)
    mid = 0.5 * (res2 + res3)
    at_res2, at_res3, between = sigma_min(res2), sigma_min(res3), sigma_min(mid)
    assert at_res2 < 1e-2 * between
    assert at_res3 < 1e-2 * between


# ----------------------------------------------------------------------
# parameter derivative
# ----------------------------------------------------------------------


def test_b_prime_zero_direction(grid100, stencils100):
    psi = sample(grid100, 2, lambda t: np.sin(t) ** 2)
    out = apply_B_prime(0.0, np.zeros(100), psi, grid100, stencils100, 2)
    assert np.all(out.values == 0)


def test_b_prime_gamma_direction_eigen(grid100, stencils100):
    psi = sample(grid100, 2, lambda t: np.sin(t) ** 2)
    out = apply_B_prime(1.0, np.zeros(100), psi, grid100, stencils100, 2)
    assert np.max(np.abs(out.values - 36 * psi.values)) < 300 * grid100.h**3


def test_b_prime_affine_exactness(grid100, stencils100):
    rng = np.random.default_rng(3)
    psi = ComplexField(
        m=2, values=rng.standard_normal(100) + 1j * rng.standard_normal(100)
    )
    om_vals = np.cos(grid100.nodes) ** 2
    dgamma, dom_vals = 0.37, 0.5 * np.cos(grid100.nodes)
    b0 = assemble_dense(0.6, om_vals, 0.2, 2.0, 2, grid100, stencils100)
    b1 = assemble_dense(0.6 + dgamma, om_vals + dom_vals, 0.2, 2.0, 2, grid100, stencils100)
    diff = (b1 - b0) @ psi.values
    bp = apply_B_prime(dgamma, dom_vals, psi, grid100, stencils100, 2)
    scale = np.max(np.abs(diff))
    assert np.max(np.abs(diff - bp.values)) < 1e-12 * scale


# ----------------------------------------------------------------------
# adjoints
# ----------------------------------------------------------------------


def test_algebraic_adjoint_identity(grid100, stencils100):
    p = (0.4, rotation(grid100, lambda t: np.cos(t) ** 2 - 1 / 3), 0.1)
    fwd = assemble_dense(*p, 2.0, 2, grid100, stencils100)
    w = grid100.weights
    adj = fwd.conj().T * (w[None, :] / w[:, None])  # W^-1 B^H W
    rng = np.random.default_rng(1)
    for _ in range(5):
        u = ComplexField(m=2, values=rng.standard_normal(100) + 1j * rng.standard_normal(100))
        v = ComplexField(m=2, values=rng.standard_normal(100) + 1j * rng.standard_normal(100))
        lhs = inner_product(grid100, ComplexField(m=2, values=fwd @ u.values), v)
        rhs = inner_product(grid100, u, ComplexField(m=2, values=adj @ v.values))
        assert abs(lhs - rhs) / abs(lhs) < 1e-12


def _mode_agreement(grids, m, omega_fn, omega_ref):
    """Continuous reference vs exact discrete adjoint solutions for a smooth
    source (the latter through the forward factorization).

    The raw matrix actions differ O(1) pointwise at the pole rows (the
    weighted transpose is only weakly consistent there); the adjoint states
    themselves agree at the discretization order because the inverse damps
    those localized rows.
    """
    ns = (50, 100, 200)
    errs = []
    for n in ns:
        g, st_ = grids[n]
        p = (0.4, omega_fn(g.nodes), omega_ref)
        fwd = assemble_forward(*p, 2.0, m, st_)
        con = assemble_adjoint(*p, 2.0, m, g, st_)
        x = np.cos(g.nodes)
        f = ComplexField(
            m=m, values=(lpmv(m, max(m, 1), x) + 0.5 * lpmv(m, max(m, 1) + 2, x)).astype(complex)
        )
        za = fwd.solve_weighted_adjoint(f.values, g.weights)
        zc = np.linalg.solve(con, f.values)
        errs.append(wl2(g, za - zc) / wl2(g, zc))
    return ns, errs


def test_adjoint_modes_agree_m0(grids):
    # for m = 0 the discrete-adjoint solution carries an O(1) single-node
    # layer at each pole (weak consistency only there); agreement away from
    # the pole rows is at the discretization order
    ns = (50, 100, 200)
    errs = []
    for n in ns:
        g, st_ = grids[n]
        p = (0.4, np.cos(g.nodes) ** 2, 0.1)
        fwd = assemble_forward(*p, 2.0, 0, st_)
        con = assemble_adjoint(*p, 2.0, 0, g, st_)
        x = np.cos(g.nodes)
        f = ComplexField(m=0, values=(lpmv(0, 1, x) + 0.5 * lpmv(0, 3, x)).astype(complex))
        za = fwd.solve_weighted_adjoint(f.values, g.weights)[4:-4]
        zc = np.linalg.solve(con, f.values)[4:-4]
        errs.append(np.max(np.abs(za - zc)) / np.max(np.abs(zc)))
    assert errs[1] < 5e-4
    assert observed_order(ns, errs, floor=1e-12) >= 1.8


def test_adjoint_modes_agree_constant_rotation(grids):
    ns, errs = _mode_agreement(grids, 2, lambda t: np.full_like(t, 0.8), 0.3)
    assert errs[1] < 1e-3
    assert observed_order(ns, errs, floor=1e-12) >= 2.5


# ----------------------------------------------------------------------
# diagnostics
# ----------------------------------------------------------------------


def test_frequency_condition_zero_rotation(grid100, stencils100):
    rep = frequency_condition(1.0, const_rotation(grid100, 0.0), 0.0, 0.5, stencils100)
    assert rep.rhs == pytest.approx(0.0, abs=1e-20)
    assert rep.satisfied


def test_frequency_condition_monotone_in_gamma(grid100, stencils100):
    rot = rotation(grid100, lambda t: np.cos(t) ** 2)
    r1 = frequency_condition(1.0, rot, 0.0, 1.0, stencils100)
    r10 = frequency_condition(10.0, rot, 0.0, 1.0, stencils100)
    assert r10.rhs < r1.rhs


def test_frequency_condition_quadrature_value(grid100, stencils100):
    # Omega = cos^2, gamma = 1, r = 1, unit constants, Omega_ref = 0:
    # ||Omega||_H1^2 = 2/5 + 16/15 = 22/15, threshold = 4*(10*22/15)^2 = 7744/9
    rot = rotation(grid100, lambda t: np.cos(t) ** 2)
    rep = frequency_condition(1.0, rot, 0.0, 1.0, stencils100)
    assert rep.rhs == pytest.approx(7744 / 9, rel=1e-3)
    assert not rep.satisfied


def test_smallness_condition_constant_and_m0(grid100, stencils100):
    rot_const = const_rotation(grid100, 5.0)
    rep = smallness_condition(0.01, rot_const, 4, stencils100)
    assert rep.lhs < 1e-10 and rep.satisfied
    rot = rotation(grid100, lambda t: np.cos(t) ** 2)
    rep0 = smallness_condition(0.01, rot, 0, stencils100)
    assert rep0.lhs == 0.0 and rep0.satisfied


def test_smallness_condition_quadrature_value(grid100, stencils100):
    # ||Omega'||_L2 = sqrt(16/15) for Omega = cos^2 on r = 1
    rot = rotation(grid100, lambda t: np.cos(t) ** 2)
    rep = smallness_condition(0.01, rot, 3, stencils100)
    assert rep.lhs == pytest.approx(3 * np.sqrt(16 / 15), rel=1e-3)
    assert not rep.satisfied
