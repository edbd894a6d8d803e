"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; tolerances are fixed here and nowhere else.
"""

import json
import time

import numpy as np
import pytest
from scipy.special import eval_legendre, lpmv

import golden_contract
from adjoint_reference import continuous_gradient
from conftest import ACCEPTANCE, observed_order, wl2
from field_helpers import apply_delta_m, inner_product
from rotwave import (
    ComplexField,
    DataVector,
    GradientPair,
    InverseProblem,
    ObservationScheme,
    ParameterMetric,
    ScalarField,
    adjoint_gradient,
    assemble_forward,
    build_grid,
    build_stencils,
    data_norm,
    manufacture_truth,
    sensitivity,
    tcc_probe,
)
from rotwave.checks import adjoint_identity_mismatch, gradient_fd_mismatch
from rotwave.grid import weighted_norm

NS = (50, 100, 200, 400)
ROUNDOFF_FLOOR = 1e-9  # relative errors below this count as converged


def report(criterion: str, passed: bool, detail: str, measured: dict, bound: dict) -> None:
    """Print the verdict line, record the measured values and their bounds
    for `acceptance.json` (written by conftest) and assert the verdict.

    `bound` maps a measured key to an [operator, value] pair, or to
    ["finite"]; measured keys without a bound are context, not gates."""
    ACCEPTANCE[criterion] = {"passed": bool(passed), "measured": measured, "bound": bound}
    print(f"[{'PASS' if passed else 'FAIL'}] {criterion}: {detail}")
    assert passed, f"{criterion}: {detail}"


def gaps(ordered) -> list:
    """Differences between consecutive values that should be nondecreasing."""
    return [float(b - a) for a, b in zip(ordered, ordered[1:])]


@pytest.fixture(scope="module")
def suite_grids():
    out = {}
    for n in NS:
        g = build_grid(n)
        out[n] = (g, build_stencils(g))
    return out


@pytest.fixture(scope="module")
def clean33_problem():
    return golden_contract.clean33_problem()


@pytest.fixture(scope="module")
def clean33_run(clean33_problem):
    """Criterion 6's reconstruction, run once: (y, config, trace, wall s)."""
    truth, grid, _, problem = clean33_problem
    t0 = time.perf_counter()
    y, config, trace = golden_contract.clean_reconstruction(truth, grid, problem)
    return y, config, trace, time.perf_counter() - t0


def test_criterion_1_operator_spectral_accuracy():
    # timed end to end, including grid/stencil/operator construction: the
    # shared discretizations are dropped first, so no earlier test warms them
    build_grid.cache_clear()
    build_stencils.cache_clear()
    t0 = time.perf_counter()
    local = {n: (lambda g: (g, build_stencils(g)))(build_grid(n)) for n in NS}
    worst = ("", np.inf)
    for m in range(4):
        for l in range(max(m, 1), 7):
            errs = []
            for n in NS:
                g, st = local[n]
                psi = ComplexField(m=m, values=lpmv(m, l, np.cos(g.nodes)).astype(complex))
                out = apply_delta_m(g, st, m, psi)
                ref = -l * (l + 1) * psi.values
                errs.append(np.max(np.abs(out.values - ref)) / np.max(np.abs(ref)))
            order = observed_order(NS, errs, floor=ROUNDOFF_FLOOR)
            if order < worst[1]:
                worst = (f"(l={l}, m={m})", order)
    elapsed = time.perf_counter() - t0
    ok = worst[1] >= 3.5 and elapsed < 5.0
    report(
        "criterion 1 (spectral accuracy)",
        ok,
        f"min observed order {worst[1]:.2f} at {worst[0]}, runtime {elapsed:.2f}s",
        {"min_observed_order": worst[1], "at": worst[0], "runtime_s": elapsed},
        {"min_observed_order": [">=", 3.5], "runtime_s": ["<", 5.0]},
    )


def test_criterion_2_discrete_symmetry(suite_grids):
    details = []
    measured = {}
    ok = True
    for m in range(4):
        vals = []
        for n in NS:
            g, st = suite_grids[n]
            x = np.cos(g.nodes)
            u = ComplexField(
                m=m,
                values=(lpmv(m, max(m, 1), x) + 0.3 * lpmv(m, max(m, 1) + 2, x)).astype(complex),
            )
            v = ComplexField(m=m, values=lpmv(m, max(m, 1) + 1, x).astype(complex))
            lap = st.delta_matrix(m)
            a = inner_product(g, ComplexField(m=m, values=lap @ (lap @ u.values)), v)
            b = inner_product(g, u, ComplexField(m=m, values=lap @ (lap @ v.values)))
            w = g.weights
            denom = weighted_norm(w, lap @ u.values) * weighted_norm(w, lap @ v.values)
            vals.append(abs(a - b) / denom)
        at_floor = max(vals) < 1e-9
        order = observed_order(NS, vals, floor=1e-11)
        ok = ok and (at_floor or order >= 3.0)
        # no order to report when every size sits at the roundoff floor
        measured[f"m={m}"] = {
            "max_mismatch": max(vals), "observed_order": None if at_floor else order
        }
        details.append(f"m={m}: max {max(vals):.1e}" + ("(floor)" if at_floor else f" order {order:.1f}"))
    report(
        "criterion 2 (discrete symmetry)",
        ok,
        "; ".join(details),
        measured,
        # per m: at the roundoff floor, or else converging at this order
        {"max_mismatch": ["<", 1e-9], "observed_order": [">=", 3.0]},
    )


def test_criterion_3_adjoint_identity(clean33_problem):
    truth, grid, stencils, base_problem = clean33_problem
    g0 = truth.gamma_true
    om0 = truth.omega_exact(grid).values
    schemes = [
        ObservationScheme(),
        ObservationScheme(kind="restricted", epsilon=0.45),
        ObservationScheme(real_part_only=True),
        ObservationScheme(kind="restricted", epsilon=0.45, real_part_only=True),
    ]
    worst = 0.0
    rng = np.random.default_rng(2024)
    for scheme in schemes:
        problem = InverseProblem(
            grid=grid,
            stencils=stencils,
            m=truth.m,
            omega_freq=truth.omega_freq,
            source=truth.source(grid),
            scheme=scheme,
            omega_ref=truth.omega_ref,
        )
        metric = ParameterMetric(grid, stencils, gamma_scale=1.0)
        worst = max(worst, adjoint_identity_mismatch(problem, metric, g0, om0, rng, 20))
    identity_ok = worst <= 1e-10

    # continuous-form gradient agrees with the algebraic one and improves
    errs = []
    for n in (50, 100, 200):
        truth_n = manufacture_truth("m3_default")
        gn = build_grid(n)
        stn = build_stencils(gn)
        problem_n = InverseProblem(
            grid=gn,
            stencils=stn,
            m=truth_n.m,
            omega_freq=truth_n.omega_freq,
            source=truth_n.source(gn),
            scheme=ObservationScheme(),
            omega_ref=truth_n.omega_ref,
        )
        metric_n = ParameterMetric(gn, stn, gamma_scale=1.0)
        om_n = truth_n.omega_exact(gn).values
        y_n = problem_n.observed(truth_n.gamma_true, om_n)
        y_off = DataVector(values=0.9 * y_n.values, window=y_n.window)
        system_n, psi_n, res_n = problem_n.residual(truth_n.gamma_true, om_n, y_off)
        ga, _ = adjoint_gradient(problem_n, res_n, psi_n, system_n, metric_n)
        gc = continuous_gradient(problem_n, truth_n.gamma_true, om_n, psi_n, res_n, metric_n)
        num = np.sqrt(
            (ga.dgamma - gc.dgamma) ** 2
            + wl2(gn, ga.domega.values - gc.domega.values) ** 2
        )
        den = np.sqrt(ga.dgamma**2 + wl2(gn, ga.domega.values) ** 2)
        errs.append(num / den)
    cont_order = observed_order((50, 100, 200), errs, floor=1e-12)
    cont_ok = errs[1] <= 1e-3 and cont_order >= 2.0
    report(
        "criterion 3 (adjoint identity)",
        identity_ok and cont_ok,
        f"max normalized mismatch {worst:.2e}; continuous-vs-algebraic "
        f"rel {errs[1]:.2e} at n=100, order {cont_order:.2f}",
        {"max_normalized_mismatch": worst, "continuous_rel_n100": errs[1],
         "continuous_order": cont_order},
        {"max_normalized_mismatch": ["<=", 1e-10], "continuous_rel_n100": ["<=", 1e-3],
         "continuous_order": [">=", 2.0]},
    )


def test_criterion_4_gradient_check(clean33_problem):
    truth, grid, stencils, problem = clean33_problem
    metric = ParameterMetric(grid, stencils, gamma_scale=3.0)
    y = problem.observed(truth.gamma_true, truth.omega_exact(grid).values)
    rng = np.random.default_rng(77)
    worst = 0.0
    for gamma0, om_scale in ((0.08, 0.0), (0.12, 0.6), (0.03, 1.8)):
        om0 = om_scale * truth.omega_exact(grid).values
        worst = max(worst, gradient_fd_mismatch(problem, metric, gamma0, om0, y, rng, 5))
    report(
        "criterion 4 (gradient vs finite differences)",
        worst <= 1e-6,
        f"max relative mismatch {worst:.2e} over 5 directions x 3 points",
        {"max_relative_mismatch": worst},
        {"max_relative_mismatch": ["<=", 1e-6]},
    )


def test_criterion_5_manufactured_forward_convergence(suite_grids):
    truth = manufacture_truth("m3_default")
    errs = []
    for n in NS:
        g, st = suite_grids[n]
        system = assemble_forward(
            truth.gamma_true, truth.omega_exact(g).values, truth.omega_ref,
            truth.omega_freq, truth.m, g, st,
        )
        psi, _ = system.solve_values(truth.source(g).values)
        ref = truth.psi_exact(g)
        errs.append(wl2(g, psi - ref.values) / wl2(g, ref.values))
    order = observed_order(NS, errs, floor=ROUNDOFF_FLOOR)
    report(
        "criterion 5 (manufactured forward convergence)",
        order >= 3.0,
        f"errors {['%.2e' % e for e in errs]}, observed order {order:.2f}",
        {"observed_order": order, "errors": errs},
        {"observed_order": [">=", 3.0]},
    )


def test_criterion_6_clean_reconstruction(clean33_problem, clean33_run):
    truth, grid, _, _ = clean33_problem
    y, config, trace, elapsed = clean33_run
    gamma_k, omega_k = trace.iterates[trace.stop_index]
    om_true = truth.omega_exact(grid).values
    eg = abs(gamma_k - truth.gamma_true) / truth.gamma_true
    eo = wl2(grid, omega_k - om_true) / wl2(grid, om_true)
    res_rel = trace.residuals[trace.stop_index] / data_norm(grid, y)
    ok = eg <= 0.02 and eo <= 0.05 and elapsed < 10.0 and res_rel <= 1e-6
    # the first k at the bound shows the margin left in the iteration budget
    first_k = next(
        (k for k, r in enumerate(trace.residuals) if r <= 1e-6 * data_norm(grid, y)), None
    )
    report(
        "criterion 6 (clean reconstruction)",
        ok,
        f"rel_err(gamma)={eg:.2e} (<=0.02), rel_err(Omega)={eo:.2e} (<=0.05), "
        f"residual {res_rel:.2e}||y|| within K={trace.stop_index} "
        f"(stop: {trace.stop_reason}; 1e-6||y|| first at k={first_k} of "
        f"{config.max_iter}), wall {elapsed:.1f}s (<10s)",
        {"rel_err_gamma": eg, "rel_err_omega": eo, "residual_rel": res_rel, "wall_s": elapsed,
         "first_k_at_residual_bound": first_k},
        {"rel_err_gamma": ["<=", 0.02], "rel_err_omega": ["<=", 0.05],
         "residual_rel": ["<=", 1e-6], "wall_s": ["<", 10.0]},
    )


@pytest.fixture(scope="module")
def leakage_records():
    """Criterion 7's nine runs, made once for the criterion and the golden
    contract: by seed, full, 0.2 pi/2 and 0.5 pi/2."""
    return golden_contract.leakage_records()


def test_criterion_7_leakage_degradation(leakage_records):
    details = []
    measured = {}
    ok = True
    for seed, recs in leakage_records.items():
        errs = [r.rel_err_omega for r in recs]
        ordered = errs[0] <= errs[1] <= errs[2]
        stopped = all(r.stop_reason in ("discrepancy", "residual_floor") for r in recs)
        ok = ok and ordered and stopped
        measured[f"seed {seed}"] = {
            "rel_err_omega": errs, "gaps": gaps(errs), "stop_reasons": [r.stop_reason for r in recs]
        }
        details.append(
            f"seed {seed}: {errs[0]:.3f} <= {errs[1]:.3f} <= {errs[2]:.3f} ({recs[0].stop_reason})"
        )
    report(
        "criterion 7 (leakage degradation)",
        ok,
        "; ".join(details),
        measured,
        # per seed: rel_err(Omega) ordered full <= 0.2 pi/2 <= 0.5 pi/2
        {"gaps": [">=", 0.0], "stop_reasons": ["in", ["discrepancy", "residual_floor"]]},
    )


@pytest.fixture(scope="module")
def noise_battery():
    """(omega, m) = (1, 2) runs over 5 seeds x 3 noise levels."""
    return golden_contract.noise_battery()


def test_criterion_8_noise_monotonicity(noise_battery):
    mean_eo = [np.mean([r.rel_err_omega for r in noise_battery[l]]) for l in (0.01, 0.05, 0.20)]
    mean_eg = [np.mean([r.rel_err_gamma for r in noise_battery[l]]) for l in (0.01, 0.05, 0.20)]
    ok = mean_eo[0] <= mean_eo[1] <= mean_eo[2] and mean_eg[0] <= mean_eg[1] <= mean_eg[2]
    report(
        "criterion 8 (noise monotonicity)",
        ok,
        f"mean rel_err(Omega) {['%.3f' % e for e in mean_eo]}, "
        f"mean rel_err(gamma) {['%.3f' % e for e in mean_eg]} over levels (1%, 5%, 20%)",
        {"mean_rel_err_omega": mean_eo, "mean_rel_err_gamma": mean_eg,
         "gaps_omega": gaps(mean_eo), "gaps_gamma": gaps(mean_eg)},
        {"gaps_omega": [">=", 0.0], "gaps_gamma": [">=", 0.0]},
    )


def test_criterion_9_discrepancy_index(noise_battery):
    mean_k = [np.mean([r.stop_index for r in noise_battery[l]]) for l in (0.01, 0.05, 0.20)]
    stopped = all(
        r.stop_reason == "discrepancy" for l in noise_battery for r in noise_battery[l]
    )
    ok = mean_k[0] >= mean_k[1] >= mean_k[2] and stopped
    report(
        "criterion 9 (discrepancy stopping index)",
        ok,
        f"mean K {['%.1f' % k for k in mean_k]} nondecreasing as noise decreases, "
        f"all runs discrepancy-stopped: {stopped}",
        {"mean_stop_index": mean_k, "gaps": [-g for g in gaps(mean_k)], "all_discrepancy": stopped},
        {"gaps": [">=", 0.0], "all_discrepancy": ["==", True]},
    )


def test_criterion_10_tcc_probe(clean33_problem):
    truth, grid, stencils, problem = clean33_problem
    metric = ParameterMetric(grid, stencils, gamma_scale=1.0)
    om_true = truth.omega_exact(grid).values
    reports = {
        radius: tcc_probe(
            problem,
            metric,
            truth.gamma_true,
            om_true,
            radius=radius,
            n_samples=100,
            rng_seed=42,
        )
        for radius in (0.1, 0.01)
    }
    finite = np.isfinite(reports[0.1].max_ratio)
    shrink_ok = reports[0.01].max_ratio <= 2.0 * reports[0.1].max_ratio

    # quadratic remainder scaling at three magnitudes of ||h||
    rng = np.random.default_rng(5)
    coeffs = rng.standard_normal(6) / np.arange(1, 7) ** 1.5
    dom = sum(c * eval_legendre(l + 1, np.cos(grid.nodes)) for l, c in enumerate(coeffs))
    dom = metric.project_mean_zero(dom)
    pair = GradientPair(dgamma=rng.standard_normal(), domega=ScalarField(values=dom))
    nrm = metric.pair_norm(pair)
    dgamma, dom = pair.dgamma / nrm, dom / nrm
    system, psi = problem.state(truth.gamma_true, om_true)
    base = problem.observed(truth.gamma_true, om_true)
    ratios = []
    for t in (1e-1, 1e-2, 1e-3):
        pert = problem.observed(truth.gamma_true + t * dgamma, om_true + t * dom)
        lin = sensitivity(
            GradientPair(dgamma=-t * dgamma, domega=ScalarField(values=-t * dom)),
            psi,
            system,
            grid,
            stencils,
            problem.scheme,
        )
        rem = base.values - pert.values - lin.values
        ratios.append(
            data_norm(grid, DataVector(values=rem, window=base.window))
            / t**2
        )
    quad_ok = max(ratios) <= 5 * min(ratios)
    report(
        "criterion 10 (tangential cone probe)",
        finite and shrink_ok and quad_ok,
        f"max ratio {reports[0.1].max_ratio:.3f} at R=0.1 vs {reports[0.01].max_ratio:.3f} "
        f"at R=0.01 (<=2x); remainder/||h||^2 in [{min(ratios):.3f}, {max(ratios):.3f}]",
        {"max_ratio_R0.1": reports[0.1].max_ratio, "max_ratio_R0.01": reports[0.01].max_ratio,
         "shrink": reports[0.01].max_ratio / reports[0.1].max_ratio,
         "remainder_spread": max(ratios) / min(ratios)},
        {"max_ratio_R0.1": ["finite"], "shrink": ["<=", 2.0], "remainder_spread": ["<=", 5.0]},
    )


@pytest.fixture(scope="module")
def restricted33_trace():
    """Criterion 6's run on the restricted window `golden_contract.RESTRICTED_SCHEME`."""
    truth, grid, _, problem = golden_contract.clean33_problem(golden_contract.RESTRICTED_SCHEME)
    return golden_contract.clean_reconstruction(truth, grid, problem)[2]


def test_golden_contract(clean33_run, restricted33_trace, leakage_records, noise_battery):
    """Criterion 6's traces and criteria 7-9's records against
    `tests/golden/contract.json` (see `golden_contract`)."""
    golden = json.loads(golden_contract.CONTRACT_PATH.read_text())
    actual = golden_contract.contract(
        clean33_run[2], restricted33_trace, leakage_records, noise_battery
    )
    mismatches, deviation = golden_contract.compare(golden, actual)
    report(
        "golden contract",
        not mismatches,
        f"{len(mismatches)} mismatches {mismatches[:3]}; largest relative float "
        f"deviation {deviation:.1e} (<= {golden_contract.FLOAT_RTOL:.0e})",
        {"mismatches": len(mismatches), "max_float_deviation": deviation},
        {"mismatches": ["==", 0], "max_float_deviation": ["<=", golden_contract.FLOAT_RTOL]},
    )
