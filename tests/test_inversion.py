import gc
import math
import weakref
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import eval_legendre

from conftest import observed_order, wl2
from field_helpers import data_pairing, inner_product, sample, zero_extension
from rotwave import (
    ComplexField,
    ConfigurationError,
    DataVector,
    ExperimentConfig,
    GradientPair,
    InverseProblem,
    IterationConfig,
    ObservationScheme,
    ParameterMetric,
    ScalarField,
    adjoint_gradient,
    build_grid,
    build_stencils,
    data_norm,
    manufacture_truth,
    nesterov_landweber,
    observe,
    sensitivity,
    tcc_probe,
)
from rotwave.checks import adjoint_identity_mismatch, gradient_fd_mismatch
from rotwave.experiments import build_problem
from rotwave.grid import SHARED_DISCRETIZATIONS
from rotwave.inversion import DISCREPANCY_TAU, observation_window

SCHEMES = [
    ObservationScheme(),
    ObservationScheme(kind="restricted", epsilon=0.45),
    ObservationScheme(real_part_only=True),
    ObservationScheme(kind="restricted", epsilon=0.45, real_part_only=True),
]


def make_problem(n=100, truth_name="m3_default", scheme=None, **overrides):
    truth = manufacture_truth(truth_name, overrides)
    grid = build_grid(n, truth.r)
    stencils = build_stencils(grid)
    problem = InverseProblem(
        grid=grid,
        stencils=stencils,
        m=truth.m,
        omega_freq=truth.omega_freq,
        source=truth.source(grid),
        scheme=scheme or ObservationScheme(),
        omega_ref=truth.omega_ref,
    )
    return truth, grid, stencils, problem


# ----------------------------------------------------------------------
# observation
# ----------------------------------------------------------------------


def test_observe_full_is_identity(grid100):
    psi = sample(grid100, 2, lambda t: np.sin(t) ** 2 * np.exp(1j * t))
    d = observe(psi, ObservationScheme(), grid100)
    assert np.array_equal(d.values, psi.values)
    assert d.window == slice(0, 100)


def test_observe_restricted_mask_size(grid100):
    scheme = ObservationScheme(kind="restricted", epsilon=np.pi / 4)
    d = observe(sample(grid100, 0, np.sin), scheme, grid100)
    assert d.window == slice(25, 75)
    # an epsilon on a node leaves that node out: the window is the set the
    # strict inequalities epsilon < theta < pi - epsilon pick
    for n in (16, 100, 1600):
        grid = build_grid(n)
        nodes = grid.nodes
        for j in (0, n // 8, n // 2 - 2):
            eps = float(nodes[j])
            window = observation_window(grid, ObservationScheme("restricted", eps))
            inside = np.where((nodes > eps) & (nodes < np.pi - eps))[0]
            assert window.start == j + 1
            assert np.array_equal(np.arange(n)[window], inside), (n, j)


def test_observe_real_part_of_imaginary_field(grid100):
    psi = sample(grid100, 2, lambda t: 1j * np.sin(t) ** 2)
    d = observe(psi, ObservationScheme(real_part_only=True), grid100)
    assert np.all(d.values == 0.0)
    assert not np.iscomplexobj(d.values)


def test_scheme_validation():
    with pytest.raises(ConfigurationError):
        ObservationScheme(kind="restricted", epsilon=0.0)
    with pytest.raises(ConfigurationError):
        ObservationScheme(kind="full", epsilon=0.1)
    with pytest.raises(ConfigurationError):
        ObservationScheme(kind="banana")


def test_empty_observation_window_is_rejected():
    # at n = 16 the nodes nearest the equator lie pi/32 from it, outside
    # the window (1.5, pi - 1.5)
    grid = build_grid(16)
    with pytest.raises(ConfigurationError, match="holds no node"):
        observation_window(grid, ObservationScheme(kind="restricted", epsilon=1.5))


def test_restricted_equals_masked_full(grid100):
    psi = sample(grid100, 2, lambda t: np.sin(t) ** 2 * np.exp(2j * t))
    scheme = ObservationScheme(kind="restricted", epsilon=0.4)
    full = observe(psi, ObservationScheme(), grid100)
    restricted = observe(psi, scheme, grid100)
    assert np.array_equal(restricted.values, full.values[restricted.window])
    # data from `observed` are a contiguous copy, holding no solve's vector
    for each in SCHEMES:
        truth, grid, _, problem = make_problem(n=32, scheme=each)
        y = problem.observed(truth.gamma_true, truth.omega_exact(grid).values)
        assert y.values.flags.c_contiguous and y.values.flags.owndata, each


def test_observe_adjoint_zero_extension():
    # adjoint_gradient applies L* as the zero-extension (real data embed as
    # complex): a restricted real residual drives the same gradient as the
    # full-grid residual that holds it on the window and zero elsewhere
    truth, grid, stencils, full = make_problem(n=100)
    scheme = ObservationScheme(kind="restricted", epsilon=0.5, real_part_only=True)
    restricted = replace(full, scheme=scheme)
    metric = ParameterMetric(grid, stencils)
    system, psi = full.state(truth.gamma_true, truth.omega_exact(grid).values)
    window = restricted.window
    r = np.random.default_rng(3).standard_normal(window.stop - window.start)
    extended = np.zeros(grid.n, dtype=complex)
    extended[window] = r
    pair, density = adjoint_gradient(
        restricted, DataVector(values=r, window=window), psi, system, metric
    )
    pair_full, density_full = adjoint_gradient(
        full, DataVector(values=extended, window=full.window), psi, system, metric
    )
    assert len(r) < grid.n
    assert pair.dgamma == pair_full.dgamma
    assert np.array_equal(density, density_full)
    assert np.array_equal(pair.domega.values, pair_full.domega.values)


@pytest.mark.parametrize("scheme", SCHEMES, ids=["full", "restricted", "real", "restricted_real"])
def test_observe_adjoint_identity(grid100, scheme):
    # <L psi, d>_Y = Re <psi, L* d>_w with L* the zero-extension
    rng = np.random.default_rng(11)
    window = observation_window(grid100, scheme)
    psi = ComplexField(
        m=2, values=rng.standard_normal(100) + 1j * rng.standard_normal(100)
    )
    dv = rng.standard_normal(window.stop - window.start)
    if not scheme.real_part_only:
        dv = dv + 1j * rng.standard_normal(len(dv))
    d = DataVector(values=dv, window=window)
    lhs = data_pairing(grid100, observe(psi, scheme, grid100), d)
    rhs = float(inner_product(grid100, psi, zero_extension(grid100, 2, d)).real)
    assert lhs == pytest.approx(rhs, rel=1e-12)


@pytest.mark.parametrize("scheme", SCHEMES, ids=["full", "restricted", "real", "restricted_real"])
def test_observe_projection_property(grid100, scheme):
    # L* o L (zero-extension after observe) is an orthogonal projection:
    # idempotent and self-adjoint in the full-grid real pairing
    rng = np.random.default_rng(5)

    def project(field):
        return zero_extension(grid100, field.m, observe(field, scheme, grid100))

    u = ComplexField(m=2, values=rng.standard_normal(100) + 1j * rng.standard_normal(100))
    v = ComplexField(m=2, values=rng.standard_normal(100) + 1j * rng.standard_normal(100))
    pu, ppu = project(u), project(project(u))
    assert np.max(np.abs(pu.values - ppu.values)) < 1e-14
    lhs = inner_product(grid100, pu, v).real
    rhs = inner_product(grid100, u, project(v)).real
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


# ----------------------------------------------------------------------
# Riesz map
# ----------------------------------------------------------------------


def test_riesz_eigenfunction_laws(grids):
    ns = (50, 100, 200)
    errs = []
    for n in ns:
        g, st_ = grids[n]
        l = 3
        dens = eval_legendre(l, np.cos(g.nodes))
        out = ParameterMetric(g, st_).riesz(dens)
        ref = dens / (l * (l + 1)) ** 2
        # compare up to the mean-zero projection of the input
        ref = ref - np.sum(ref * g.weights) / np.sum(g.weights)
        errs.append(np.linalg.norm(out - ref) / np.linalg.norm(ref))
    assert errs[1] < 1e-4, errs
    assert observed_order(ns, errs, floor=1e-11) >= 2.5, errs


def test_riesz_zero(grid100, stencils100):
    out = ParameterMetric(grid100, stencils100).riesz(np.zeros(100))
    assert np.max(np.abs(out)) < 1e-14


def test_riesz_output_mean_zero(grid100, stencils100):
    rng = np.random.default_rng(0)
    out = ParameterMetric(grid100, stencils100).riesz(rng.standard_normal(100))
    assert abs(np.sum(out * grid100.weights)) < 1e-10


@pytest.mark.parametrize("gamma_scale", [math.nan, math.inf])
def test_metric_rejects_non_finite_gamma_scale(grid100, stencils100, gamma_scale):
    with pytest.raises(ConfigurationError, match="gamma_scale"):
        ParameterMetric(grid100, stencils100, gamma_scale=gamma_scale)


# ----------------------------------------------------------------------
# sensitivity and gradients
# ----------------------------------------------------------------------


def test_sensitivity_zero_direction():
    truth, grid, stencils, problem = make_problem(n=64)
    system, psi = problem.state(truth.gamma_true, truth.omega_exact(grid).values)
    dp = GradientPair(dgamma=0.0, domega=ScalarField(values=np.zeros(64)))
    out = sensitivity(dp, psi, system, grid, stencils, problem.scheme)
    assert np.all(out.values == 0)


def test_sensitivity_linearity():
    truth, grid, stencils, problem = make_problem(n=64)
    system, psi = problem.state(truth.gamma_true, truth.omega_exact(grid).values)
    rng = np.random.default_rng(2)
    dom = rng.standard_normal(64)
    dp1 = GradientPair(dgamma=0.3, domega=ScalarField(values=dom))
    dp2 = GradientPair(dgamma=0.6, domega=ScalarField(values=2 * dom))
    s1 = sensitivity(dp1, psi, system, grid, stencils, problem.scheme)
    s2 = sensitivity(dp2, psi, system, grid, stencils, problem.scheme)
    assert np.max(np.abs(s2.values - 2 * s1.values)) < 1e-12 * np.max(np.abs(s1.values))


def test_sensitivity_taylor_remainder():
    truth, grid, stencils, problem = make_problem(n=64)
    g0 = truth.gamma_true
    om0 = truth.omega_exact(grid).values
    system, psi = problem.state(g0, om0)
    metric = ParameterMetric(grid, stencils)
    rng = np.random.default_rng(7)
    dom = metric.project_mean_zero(rng.standard_normal(64))
    dom /= np.linalg.norm(dom)
    dp = GradientPair(dgamma=0.5, domega=ScalarField(values=dom))
    sens = sensitivity(dp, psi, system, grid, stencils, problem.scheme)
    base = problem.observed(g0, om0)
    ratios = []
    for t in (1e-2, 1e-3, 1e-4):
        pert = problem.observed(g0 + t * dp.dgamma, om0 + t * dom)
        rem = pert.values - base.values - t * sens.values
        ratios.append(
            data_norm(grid, DataVector(values=rem, window=base.window)) / t**2
        )
    # remainder is O(t^2): the ratio stays bounded as t shrinks
    assert max(ratios) < 10 * ratios[0] + 1e-9


@pytest.mark.parametrize("scheme", SCHEMES, ids=["full", "restricted", "real", "restricted_real"])
def test_adjoint_identity_all_schemes(scheme):
    # <F'(p) dp, y> = <dp, grad(y)> with the fixed minus sign in
    # adjoint_gradient, for every catalogue m class, at the truth and at the
    # reconstruction's start point (3 gamma_true, Omega = 0)
    for truth_name in ("m0_default", "m2_default", "m3_default"):
        truth, grid, stencils, problem = make_problem(
            n=100, truth_name=truth_name, scheme=scheme
        )
        metric = ParameterMetric(grid, stencils, gamma_scale=2.0)
        points = {
            "truth": (truth.gamma_true, truth.omega_exact(grid).values),
            "start": (3 * truth.gamma_true, np.zeros(100)),
        }
        for point, (g0, om0) in points.items():
            rng = np.random.default_rng(3)
            # normalized as in the acceptance contract: by ||dp|| * ||y||
            worst = adjoint_identity_mismatch(problem, metric, g0, om0, rng, 5)
            assert worst < 1e-10, (truth_name, point)


def test_stencil_caches_die_with_their_stencils():
    # the band layout of delta_m and the alpha operator are cached on the
    # stencils, not in a module-level table that would keep every sweep
    # run's delta_m rows alive.  The stencils themselves are shared per
    # (n, r) from a bounded cache, so what stays alive is at most the bound,
    # and clearing the caches frees it all.  Weakrefs to the rows as well as
    # to the stencils would catch a table that holds the rows alone.
    config = ExperimentConfig(run_id="shared", n=64, truth="m3_default")
    _, problem, _, _ = build_problem(config)
    stencils = problem.stencils
    assert build_problem(config)[1].stencils is stencils
    lap = stencils.delta_matrix(problem.m)
    assert "diagonals" in vars(lap) and "alpha" in vars(stencils)
    refs = [weakref.ref(stencils), weakref.ref(lap), weakref.ref(stencils.alpha)]
    swept = []
    for n in range(17, 17 + SHARED_DISCRETIZATIONS + 3):
        st = build_stencils(build_grid(n))
        rows = st.delta_matrix(2)
        assert rows.diagonals.shape == (7, n)  # fills the cached band layout
        swept.append([weakref.ref(st), weakref.ref(rows), weakref.ref(st.alpha)])
    del stencils, problem, lap, st, rows
    gc.collect()
    for column in zip(*swept):  # stencils, delta_2 rows, alpha rows
        assert sum(ref() is not None for ref in column) <= SHARED_DISCRETIZATIONS
    build_grid.cache_clear()
    build_stencils.cache_clear()
    gc.collect()
    refs += [ref for row in swept for ref in row]
    assert [ref() for ref in refs] == [None] * len(refs)


def _reachable_arrays(root, skip):
    """Every numpy array reachable from `root` through instance attributes
    (cached properties included), containers and array bases, except the
    objects in `skip`."""
    seen, found, stack = {id(s) for s in skip}, [], [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            found.append(obj)
            stack.append(obj.base)
        elif isinstance(obj, dict):
            stack.extend(obj.values())
        elif isinstance(obj, (list, tuple)):
            stack.extend(obj)
        elif hasattr(obj, "__dict__") and not isinstance(obj, type):
            stack.extend(vars(obj).values())
    return found


def test_no_band_sized_array_outlives_a_call():
    # the per-problem caches (source right-hand side, window) are small; a
    # cached band or band template would grow every problem by a band
    # (19 x 2n entries, about 1 MB at n = 1600).  The metric keeps
    # its own Riesz factorization by design, so that one band is skipped.
    truth, grid, stencils, problem = make_problem(n=400)
    metric = ParameterMetric(grid, stencils, gamma_scale=3000.0)
    om = truth.omega_exact(grid).values
    y = problem.observed(truth.gamma_true, om)
    problem.state(2 * truth.gamma_true, 0.5 * om)
    system, psi, res = problem.residual(2 * truth.gamma_true, 0.5 * om, y)
    adjoint_gradient(problem, res, psi, system, metric)
    config = IterationConfig(max_iter=3, gamma_scale=3000.0)
    nesterov_landweber(problem, y, delta=0.0, config=config, gamma_init=3 * truth.gamma_true)
    band_entries = 19 * 2 * grid.n
    assert system.lu.size == metric._system.lu.size == band_entries
    arrays = _reachable_arrays(problem, skip=()) + _reachable_arrays(
        metric, skip=(metric._system.lu,)
    )
    assert len(arrays) > 20  # the walk reached the caches and the stencils
    assert "source_rhs" in vars(problem)
    assert max(a.size for a in arrays) < band_entries


def test_gradient_zero_residual():
    truth, grid, stencils, problem = make_problem(n=64)
    metric = ParameterMetric(grid, stencils)
    system, psi = problem.state(truth.gamma_true, truth.omega_exact(grid).values)
    zero = DataVector(values=np.zeros(grid.n, dtype=complex), window=problem.window)
    grad, dens = adjoint_gradient(problem, zero, psi, system, metric)
    assert grad.dgamma == 0.0
    assert np.all(grad.domega.values == 0)


def test_gradient_matches_finite_differences():
    truth, grid, stencils, problem = make_problem(
        n=100, scheme=ObservationScheme(kind="restricted", epsilon=0.3)
    )
    metric = ParameterMetric(grid, stencils, gamma_scale=3.0)
    y = problem.observed(truth.gamma_true, truth.omega_exact(grid).values)
    rng = np.random.default_rng(9)
    # three parameter points x five directions (points away from the truth
    # so the directional derivatives stay O(1) against FD roundoff)
    for gamma0, om_scale in ((0.08, 0.0), (0.12, 0.6), (0.03, 1.8)):
        om0 = om_scale * truth.omega_exact(grid).values
        assert gradient_fd_mismatch(problem, metric, gamma0, om0, y, rng, 5) < 1e-6


# ----------------------------------------------------------------------
# Nesterov-Landweber
# ----------------------------------------------------------------------


def test_landweber_stops_immediately_at_exact_data():
    truth, grid, stencils, problem = make_problem(n=64)
    y = problem.observed(3 * truth.gamma_true, np.zeros(64))
    config = IterationConfig(max_iter=50, gamma_scale=100.0, residual_floor=1e-12)
    trace = nesterov_landweber(
        problem, y, delta=0.0, config=config, gamma_init=3 * truth.gamma_true
    )
    assert trace.stop_index == 0
    assert trace.stop_reason == "discrepancy"
    assert len(trace.residuals) == 1
    assert trace.residuals[0] <= 1e-12


def test_landweber_trace_invariants_on_noisy_run():
    truth, grid, stencils, problem = make_problem(n=64)
    y_clean = problem.observed(truth.gamma_true, truth.omega_exact(grid).values)
    rng = np.random.default_rng(1)
    noise = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    noise *= 0.05 * np.linalg.norm(y_clean.values) / np.linalg.norm(noise)
    y = DataVector(values=y_clean.values + noise, window=y_clean.window)
    delta = data_norm(grid, DataVector(values=noise, window=y.window))
    config = IterationConfig(max_iter=200, gamma_scale=3000.0)
    trace = nesterov_landweber(
        problem, y, delta=delta, config=config, gamma_init=3 * truth.gamma_true
    )
    assert trace.stop_reason == "discrepancy"
    K = trace.stop_index
    assert len(trace.residuals) == K + 1
    assert len(trace.iterates) == K + 1
    assert len(trace.step_sizes) == K
    assert trace.residuals[K] <= DISCREPANCY_TAU * delta < trace.residuals[K - 1]
    # monotone residual history (Armijo acceptance + monotone safeguard)
    assert all(b <= a + 1e-14 for a, b in zip(trace.residuals, trace.residuals[1:]))


def test_landweber_line_search_failure_reported(monkeypatch):
    import rotwave.inversion

    truth, grid, stencils, problem = make_problem(n=64)
    y = problem.observed(truth.gamma_true, truth.omega_exact(grid).values)
    monkeypatch.setattr(rotwave.inversion, "MU0", 1e25)
    monkeypatch.setattr(rotwave.inversion, "SHRINK", 0.9)
    monkeypatch.setattr(rotwave.inversion, "MAX_BACKTRACKS", 2)
    config = IterationConfig(max_iter=10, gamma_scale=3000.0)
    trace = nesterov_landweber(
        problem, y, delta=0.0, config=config, gamma_init=3 * truth.gamma_true
    )
    assert trace.stop_reason == "line_search_failure"


def test_landweber_config_validation():
    with pytest.raises(ConfigurationError, match="max_iter"):
        IterationConfig(max_iter=-1)
    assert IterationConfig(max_iter=0).max_iter == 0


@pytest.mark.parametrize(
    "gamma_init, delta, match",
    [
        (math.nan, 0.0, "gamma_init"),
        (math.inf, 0.0, "gamma_init"),
        (-1.0, 0.0, "gamma_init"),
        (1.0, math.nan, "delta"),
        (1.0, math.inf, "delta"),
        (1.0, -1.0, "delta"),
    ],
)
def test_landweber_rejects_bad_start_and_noise_level(gamma_init, delta, match):
    # a NaN or infinite start used to stop at K = 0 as `near_resonance`; a
    # NaN delta made the threshold NaN, so the discrepancy rule never fired
    # and the run went to max_iter, and an infinite one stopped at k = 0
    truth, grid, stencils, problem = make_problem(n=32, truth_name="m2_default")
    y = problem.observed(truth.gamma_true, truth.omega_exact(grid).values)
    config = IterationConfig(max_iter=20, gamma_scale=3000.0)
    with pytest.raises(ConfigurationError, match=match):
        nesterov_landweber(problem, y, delta=delta, config=config, gamma_init=gamma_init)


def _refuse_to_solve(*args):
    raise AssertionError("a state solve ran")


def test_landweber_rejects_data_from_another_window(monkeypatch):
    # restricted data on a full problem used to fail inside the first
    # residual with a numpy broadcast error; now it fails before any solve
    truth, grid, stencils, full = make_problem(n=32, truth_name="m2_default")
    restricted = replace(full, scheme=ObservationScheme(kind="restricted", epsilon=0.3))
    y = restricted.observed(truth.gamma_true, truth.omega_exact(grid).values)
    monkeypatch.setattr(InverseProblem, "state", _refuse_to_solve)
    config = IterationConfig(max_iter=20, gamma_scale=3000.0)
    with pytest.raises(ConfigurationError, match=r"window slice\(3, 29, None\) != problem window"):
        nesterov_landweber(full, y, delta=0.0, config=config, gamma_init=3 * truth.gamma_true)


def test_landweber_rejects_complex_data_for_real_part_scheme(monkeypatch):
    # complex data on a real-part-only problem used to run on with the
    # residual stuck near the imaginary part's norm, to a failed line search
    # or max_iter
    truth, grid, stencils, full = make_problem(n=32, truth_name="m2_default")
    real = replace(full, scheme=ObservationScheme(real_part_only=True))
    y = full.observed(truth.gamma_true, truth.omega_exact(grid).values)
    monkeypatch.setattr(InverseProblem, "state", _refuse_to_solve)
    config = IterationConfig(max_iter=20, gamma_scale=3000.0)
    with pytest.raises(ConfigurationError, match="complex data"):
        nesterov_landweber(real, y, delta=0.0, config=config, gamma_init=3 * truth.gamma_true)


@pytest.mark.parametrize(
    "field, value",
    [
        ("residual_floor", math.nan),
        ("residual_floor", math.inf),
        ("gamma_scale", math.nan),
        ("gamma_scale", math.inf),
        ("max_iter", 2.5),
        ("max_iter", True),
    ],
)
def test_iteration_config_rejects_non_finite_settings(field, value):
    # built directly, as the JSON path's type screen does not run
    with pytest.raises(ConfigurationError, match=field):
        IterationConfig(**{field: value})


def test_landweber_momentum_weight_first_step_is_plain():
    # the momentum weight (k-1)/(k+alpha-1) vanishes at k = 1, so the first
    # update is a plain gradient step from p0; with the fixed sign it descends
    truth, grid, stencils, problem = make_problem(n=64)
    y = problem.observed(truth.gamma_true, truth.omega_exact(grid).values)
    config = IterationConfig(max_iter=1, gamma_scale=3000.0)
    gamma0, omega0 = 3 * truth.gamma_true, np.zeros(64)
    trace = nesterov_landweber(problem, y, delta=0.0, config=config, gamma_init=gamma0)
    assert trace.stop_index == 1

    metric = ParameterMetric(grid, stencils, gamma_scale=config.gamma_scale)
    system, psi = problem.state(gamma0, omega0)
    obs = observe(psi, problem.scheme, grid)
    res = DataVector(values=obs.values - y.values, window=obs.window)
    grad, _ = adjoint_gradient(problem, res, psi, system, metric)
    mu = trace.step_sizes[0]
    gamma1, omega1 = trace.iterates[1]
    assert gamma1 == gamma0 - mu * grad.dgamma
    assert np.array_equal(omega1, omega0 - mu * grad.domega.values)
    # a real decrease (0.26 % here): with the sign reversed the line search
    # only finds steps near 1e-11 that move the residual at roundoff level
    assert trace.residuals[1] < (1 - 1e-3) * trace.residuals[0]


def test_landweber_near_resonant_start(monkeypatch):
    # a start point whose factorization trips the near-resonance guard ends
    # the run before any iteration, with an undefined (NaN) residual
    import rotwave.operator

    truth, grid, stencils, problem = make_problem(n=64)
    y = problem.observed(truth.gamma_true, truth.omega_exact(grid).values)
    monkeypatch.setattr(rotwave.operator, "PIVOT_RTOL", 1.0)
    trace = nesterov_landweber(
        problem, y, delta=0.0, config=IterationConfig(), gamma_init=3 * truth.gamma_true
    )
    assert trace.stop_reason == "near_resonance"
    assert trace.stop_index == 0
    assert len(trace.residuals) == 1 and np.isnan(trace.residuals[0])
    assert len(trace.iterates) == 1 and trace.step_sizes == []


def test_momentum_budget_changes_no_iterate(monkeypatch):
    # criterion 6's run (full scheme, n = 100, K = 500): the momentum search's
    # budget of MOMENTUM_BACKTRACKS trials only cuts searches that fail, so
    # every iterate equals that of a run with the fallback's budget; a search
    # that succeeds later than the budget would change them
    import rotwave.inversion

    truth, grid, stencils, problem = make_problem(n=100)
    y = problem.observed(truth.gamma_true, truth.omega_exact(grid).values)
    config = IterationConfig(
        max_iter=500, gamma_scale=3000.0, residual_floor=1e-8 * data_norm(grid, y)
    )

    def run():
        return nesterov_landweber(
            problem, y, delta=0.0, config=config, gamma_init=3 * truth.gamma_true
        )

    capped = run()
    monkeypatch.setattr(
        rotwave.inversion, "MOMENTUM_BACKTRACKS", rotwave.inversion.MAX_BACKTRACKS
    )
    uncapped = run()
    assert (capped.state_solves, uncapped.state_solves) == (1520, 1736)
    assert capped.gradients == uncapped.gradients == 506
    assert capped.residuals == uncapped.residuals
    assert capped.step_sizes == uncapped.step_sizes
    assert len(capped.iterates) == len(uncapped.iterates) == 501
    for (g1, om1), (g2, om2) in zip(capped.iterates, uncapped.iterates):
        assert g1 == g2 and om1.tobytes() == om2.tobytes()


def test_iteration_is_mesh_independent():
    # criterion 6's run at n = 50, 100 and 200: the H2 Riesz map makes the
    # discrete iteration follow the continuous one, so the first k with
    # residual <= 1e-6 ||y|| (458 / 459 / 459 when measured) and, once the
    # grid resolves the truth, every accepted step agree across n
    first, steps = {}, {}
    for n in (50, 100, 200):
        truth, grid, stencils, problem = make_problem(n=n)
        y = problem.observed(truth.gamma_true, truth.omega_exact(grid).values)
        config = IterationConfig(
            max_iter=500, gamma_scale=3000.0, residual_floor=1e-8 * data_norm(grid, y)
        )
        trace = nesterov_landweber(
            problem, y, delta=0.0, config=config, gamma_init=3 * truth.gamma_true
        )
        bound = 1e-6 * data_norm(grid, y)
        first[n] = next((k for k, r in enumerate(trace.residuals) if r <= bound), None)
        steps[n] = trace.step_sizes
    assert all(k is not None and abs(k - 459) <= 2 for k in first.values()), first
    assert steps[100] == steps[200]


# ----------------------------------------------------------------------
# TCC probe
# ----------------------------------------------------------------------


def test_tcc_probe_skips_degenerate_pairs():
    truth, grid, stencils, problem = make_problem(n=64)
    report = tcc_probe(
        problem,
        ParameterMetric(grid, stencils),
        truth.gamma_true,
        truth.omega_exact(grid).values,
        radius=1e-300,
        n_samples=4,
        rng_seed=0,
    )
    assert report.skipped == 4
    assert np.isnan(report.max_ratio)


def test_tcc_probe_bounded_ratios():
    truth, grid, stencils, problem = make_problem(n=64)
    report = tcc_probe(
        problem,
        ParameterMetric(grid, stencils),
        truth.gamma_true,
        truth.omega_exact(grid).values,
        radius=0.05,
        n_samples=20,
        rng_seed=4,
    )
    assert report.skipped == 0
    assert np.isfinite(report.max_ratio)
    assert report.median_ratio <= report.max_ratio


def test_tcc_probe_validation():
    truth, grid, stencils, problem = make_problem(n=64)
    metric = ParameterMetric(grid, stencils)
    with pytest.raises(ConfigurationError):
        tcc_probe(problem, metric, truth.gamma_true, np.zeros(64), -1.0, n_samples=2, rng_seed=0)
    with pytest.raises(ConfigurationError):
        tcc_probe(problem, metric, truth.gamma_true, np.zeros(64), 0.1, n_samples=0, rng_seed=0)


@pytest.mark.parametrize("radius", [math.nan, math.inf])
def test_tcc_probe_rejects_non_finite_radius(radius):
    truth, grid, stencils, problem = make_problem(n=64)
    metric = ParameterMetric(grid, stencils)
    with pytest.raises(ConfigurationError, match="radius"):
        tcc_probe(problem, metric, truth.gamma_true, np.zeros(64), radius, 2, rng_seed=0)


# ----------------------------------------------------------------------
# observed forward map and gamma-only probe
# ----------------------------------------------------------------------


def test_observed_matches_pipeline():
    # observed restricts the state of the one builder and the one solve
    from rotwave import assemble_forward

    truth, grid, stencils, problem = make_problem(n=64)
    om = truth.omega_exact(grid).values
    system = assemble_forward(
        truth.gamma_true, om, truth.omega_ref, truth.omega_freq, truth.m, grid, stencils
    )
    psi, _ = system.solve_values(truth.source(grid).values)
    d = observe(ComplexField(m=truth.m, values=psi), problem.scheme, grid)
    d2 = problem.observed(truth.gamma_true, om)
    assert np.array_equal(d.values, d2.values)


def test_trace_reports_the_data_norm():
    # the loop's misfit is data_norm itself: every recorded residual equals
    # data_norm of the residual at its iterate, bit for bit
    truth, grid, stencils, problem = make_problem(n=64)
    y = problem.observed(truth.gamma_true, truth.omega_exact(grid).values)
    config = IterationConfig(max_iter=30, gamma_scale=3000.0)
    trace = nesterov_landweber(
        problem, y, delta=0.0, config=config, gamma_init=3 * truth.gamma_true
    )
    assert trace.stop_index == 30
    for (gamma, omega), res in zip(trace.iterates, trace.residuals):
        assert res == data_norm(grid, problem.residual(gamma, omega, y)[2])


@pytest.mark.parametrize("scheme", SCHEMES, ids=["full", "restricted", "real", "restricted_real"])
def test_residual_is_observed_minus_data(scheme):
    # residual and observed restrict the state through the same code
    truth, grid, stencils, problem = make_problem(n=64, scheme=scheme)
    gamma, om = 1.7 * truth.gamma_true, truth.omega_exact(grid).values
    y = problem.observed(truth.gamma_true, 0.5 * om)
    res = problem.residual(gamma, om, y)[2]
    want = problem.observed(gamma, om).values - y.values
    assert res.values.dtype == want.dtype and res.values.tobytes() == want.tobytes()
    assert res.window == problem.window


def test_observed_linear_in_source():
    truth, grid, stencils, problem = make_problem(n=64)
    f = truth.source(grid)
    doubled = replace(problem, source=ComplexField(m=f.m, values=2 * f.values))
    om = truth.omega_exact(grid).values
    d1 = problem.observed(truth.gamma_true, om)
    d2 = doubled.observed(truth.gamma_true, om)
    assert np.max(np.abs(d2.values - 2 * d1.values)) < 1e-12 * np.max(np.abs(d1.values))


def test_tcc_ratio_gamma_only_perturbations():
    # pairs differing only in the viscosity: ratios finite and bounded
    truth, grid, stencils, problem = make_problem(n=64)
    metric = ParameterMetric(grid, stencils)
    om_true = truth.omega_exact(grid).values
    rng = np.random.default_rng(12)
    base_sys, base_psi = problem.state(truth.gamma_true, om_true)
    f_base = observe(base_psi, problem.scheme, grid)
    ratios = []
    for _ in range(100):
        g1 = truth.gamma_true * (1 + 0.3 * rng.standard_normal())
        g2 = truth.gamma_true * (1 + 0.3 * rng.standard_normal())
        if g1 <= 0 or g2 <= 0 or abs(g1 - g2) < 1e-12:
            continue
        sys1, psi1 = problem.state(g1, om_true)
        f1 = observe(psi1, problem.scheme, grid)
        f2 = problem.observed(g2, om_true)
        diff = DataVector(values=f1.values - f2.values, window=f1.window)
        dn = data_norm(grid, diff)
        if dn < 1e-13:
            continue
        step = GradientPair(dgamma=g1 - g2, domega=ScalarField(values=np.zeros(64)))
        lin = sensitivity(step, psi1, sys1, grid, stencils, problem.scheme)
        rem = DataVector(values=f1.values - f2.values - lin.values, window=f1.window)
        ratios.append(data_norm(grid, rem) / (metric.pair_norm(step) * dn))
    assert len(ratios) > 50
    assert np.isfinite(ratios).all()
    assert max(ratios) < 100.0
