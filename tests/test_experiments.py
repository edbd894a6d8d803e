import json
import math

import numpy as np
import pytest

from conftest import observed_order, wl2
import rotwave.experiments as experiments
from rotwave import (
    ComplexField,
    ConfigurationError,
    DataVector,
    ExperimentConfig,
    IterationConfig,
    NearResonanceError,
    NoiseSpec,
    ObservationScheme,
    RunRecord,
    add_noise,
    assemble_forward,
    build_grid,
    build_stencils,
    data_norm,
    manufacture_truth,
    run_experiment,
    sweep,
)
from rotwave.experiments import (
    ITERATION_CSV_HEADER,
    SWEEP_CSV_HEADER,
    TRUTH_PRESETS,
    GroundTruth,
    apply_overrides,
)


def small_iteration(**kw):
    base = dict(max_iter=40, gamma_scale=3000.0)
    base.update(kw)
    return IterationConfig(**base)


# ----------------------------------------------------------------------
# ground-truth catalogue
# ----------------------------------------------------------------------


def test_manufactured_source_matches_constant_coefficient_oracle():
    # constant rotation and the sin^2 eigenfunction at m = 2: the operator
    # action reduces to [36 gamma - 6i omega + 12i(Om0 - ref) - 4i Om0] psi
    om0, om_ref, gamma, omf = 0.7, 0.2, 0.3, 3.0
    truth = manufacture_truth(
        "m2_default",
        {
            "omega_name": "constant",
            "omega_coeffs": {"a": om0},
            "gamma_true": gamma,
            "omega_freq": omf,
            "omega_ref": om_ref,
        },
    )
    grid = build_grid(100)
    psi = truth.psi_exact(grid)
    factor = 36 * gamma - 6j * omf + 12j * (om0 - om_ref) - 4j * om0
    f = truth.source(grid)
    assert np.max(np.abs(f.values - factor * psi.values)) < 1e-10


def test_truth_accepts_sin2_at_m0():
    truth = manufacture_truth(
        "m0_default", {"psi_name": "clamped_sin2", "psi_coeffs": {}}
    )
    grid = build_grid(64)
    assert np.isfinite(truth.source(grid).values).all()


def test_truth_rejects_inadmissible_shape():
    # cos-type profile does not vanish at the poles: illegal for m = 2
    with pytest.raises(ConfigurationError):
        manufacture_truth("m2_default", {"psi_name": "cos_poly"})


def test_truth_rejects_wrong_vanishing_rate():
    # sin^2 satisfies the m = 3 pole conditions but is not an order-3 field;
    # accepting it would push the manufactured source out of L^2
    with pytest.raises(ConfigurationError):
        manufacture_truth("m3_default", {"psi_name": "clamped_sin2"})


def test_truth_unknown_override_rejected():
    with pytest.raises(ConfigurationError):
        manufacture_truth("m3_default", {"bogus": 1})
    with pytest.raises(ConfigurationError):
        manufacture_truth("nonexistent")


@pytest.mark.parametrize(
    "overrides",
    [
        {"psi_coeffs": {"bb": 5.0}},
        {"psi_name": "sin_power", "psi_coeffs": {"a": 1.0}},
        {"psi_name": "cos_poly", "psi_coeffs": {"c": 1.0}},
        {"omega_coeffs": {"c": 1.0}},
        {"omega_name": "constant", "omega_coeffs": {"b": 3.0}},
        {"omega_name": "odd_poly", "omega_coeffs": {"d": 1.0}},
    ],
    ids=["sin_power-bb", "sin_power-a", "cos_poly-c", "solar_like-c", "constant-b", "odd_poly-d"],
)
def test_truth_rejects_coefficients_its_shape_or_profile_does_not_read(overrides):
    # an ignored coefficient would silently leave the default truth
    with pytest.raises(ConfigurationError, match="takes coefficients"):
        manufacture_truth("m3_default", overrides)


def test_truth_rejects_zero_amplitude():
    # psi* = 0 would give data y = 0, which no parameter can be read from
    with pytest.raises(ConfigurationError, match="amplitude"):
        manufacture_truth("m3_default", {"amplitude": 0})


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    "field", ["amplitude", "phase", "gamma_true", "omega_freq", "omega_ref", "r"]
)
def test_truth_built_directly_rejects_non_finite_values(field, value):
    # the public constructor validates like manufacture_truth's overrides
    with pytest.raises(ConfigurationError, match=f"truth {field} must be a finite number"):
        GroundTruth(**{**TRUTH_PRESETS["m3_default"], field: value})


def test_zero_rotation_truth_runs():
    truth = manufacture_truth(
        "m2_default", {"omega_name": "constant", "omega_coeffs": {"a": 0}}
    )
    grid = build_grid(64)
    stencils = build_stencils(grid)
    system = assemble_forward(
        truth.gamma_true, truth.omega_exact(grid).values, truth.omega_ref,
        truth.omega_freq, truth.m, grid, stencils,
    )
    psi, _ = system.solve_values(truth.source(grid).values)
    ref = truth.psi_exact(grid)
    assert wl2(grid, psi - ref.values) / wl2(grid, ref.values) < 1e-4


def test_default_solar_profile_is_mean_zero():
    truth = manufacture_truth("m3_default")
    grid = build_grid(200)
    om = truth.omega_exact(grid).values
    assert abs(np.sum(om * grid.weights) / np.sum(grid.weights)) < 1e-4


def test_inverse_crime_guard():
    # exact analytic source: discrete solves must converge to the closed
    # form at order >= 3 (impossible if f came from the solver's stencils)
    truth = manufacture_truth("m3_default")
    errs = []
    ns = (50, 100)
    for n in ns:
        grid = build_grid(n)
        stencils = build_stencils(grid)
        system = assemble_forward(
            truth.gamma_true, truth.omega_exact(grid).values, truth.omega_ref,
            truth.omega_freq, truth.m, grid, stencils,
        )
        psi, _ = system.solve_values(truth.source(grid).values)
        ref = truth.psi_exact(grid)
        errs.append(wl2(grid, psi - ref.values) / wl2(grid, ref.values))
    assert errs[1] < errs[0] / 8  # order >= 3 between the two grids


# ----------------------------------------------------------------------
# noise
# ----------------------------------------------------------------------


def _clean_data(n=64):
    truth = manufacture_truth("m2_default")
    grid = build_grid(n)
    stencils = build_stencils(grid)
    system = assemble_forward(
        truth.gamma_true, truth.omega_exact(grid).values, truth.omega_ref,
        truth.omega_freq, truth.m, grid, stencils,
    )
    psi, _ = system.solve_values(truth.source(grid).values)
    return grid, DataVector(values=psi.copy(), window=slice(0, n))


def test_add_noise_zero_level():
    grid, y = _clean_data()
    noisy, delta = add_noise(y, NoiseSpec(relative_level=0.0, seed=3), grid)
    assert noisy is y
    assert delta == 0.0


def test_add_noise_exact_calibration():
    grid, y = _clean_data()
    for level in (0.01, 0.05, 0.2):
        noisy, delta = add_noise(y, NoiseSpec(relative_level=level, seed=7), grid)
        measured = np.linalg.norm(noisy.values - y.values) / np.linalg.norm(y.values)
        assert measured == pytest.approx(level, abs=1e-12)
        assert delta > 0


def test_add_noise_deterministic():
    grid, y = _clean_data()
    spec = NoiseSpec(relative_level=0.05, seed=11)
    n1, d1 = add_noise(y, spec, grid)
    n2, d2 = add_noise(y, spec, grid)
    assert np.array_equal(n1.values, n2.values)
    assert d1 == d2


def test_add_noise_real_data_stays_real():
    grid, y = _clean_data()
    real = DataVector(values=y.values.real.copy(), window=y.window)
    noisy, _ = add_noise(real, NoiseSpec(relative_level=0.1, seed=0), grid)
    assert not np.iscomplexobj(noisy.values)


def test_noise_level_validation():
    with pytest.raises(ConfigurationError):
        NoiseSpec(relative_level=1.5)
    with pytest.raises(ConfigurationError):
        NoiseSpec(seed=-1)


@pytest.mark.parametrize("seed", [1.5, True, "3"])
def test_noise_seed_must_be_an_integer(seed):
    # built directly, as the JSON path's type screen does not run; a float
    # seed used to build and fail in numpy's generator at the run
    with pytest.raises(ConfigurationError, match="noise seed"):
        NoiseSpec(seed=seed)
    assert NoiseSpec(seed=np.int64(3)).seed == 3


# ----------------------------------------------------------------------
# experiment runner
# ----------------------------------------------------------------------


def test_run_experiment_record_fields(tmp_path):
    config = ExperimentConfig(
        run_id="t0",
        n=64,
        truth="m3_default",
        iteration=small_iteration(),
        output_dir=str(tmp_path),
    )
    record = run_experiment(config)
    assert record.rel_err_gamma >= 0 and record.rel_err_omega >= 0
    assert record.stop_reason in (
        "discrepancy",
        "residual_floor",
        "max_iter",
        "line_search_failure",
        "near_resonance",
    )
    # record round-trips losslessly through JSON
    clone = RunRecord.from_json(record.to_json())
    assert clone == record
    # iteration CSV exists with the documented header
    csv_text = (tmp_path / "t0_iterations.csv").read_text()
    assert csv_text.splitlines()[0] == ITERATION_CSV_HEADER
    assert len(csv_text.splitlines()) == record.stop_index + 2


def test_run_experiment_deterministic(tmp_path):
    def run(tag):
        config = ExperimentConfig(
            run_id=tag,
            n=64,
            truth="m2_default",
            noise=NoiseSpec(relative_level=0.05, seed=5),
            iteration=small_iteration(),
            output_dir=str(tmp_path / tag),
        )
        record = run_experiment(config)
        csv_text = (tmp_path / tag / f"{tag}_iterations.csv").read_text()
        return record, csv_text

    r1, csv1 = run("a")
    r2, csv2 = run("b")
    assert csv1 == csv2  # bit-identical iteration history
    d1 = json.loads(r1.to_json())
    d2 = json.loads(r2.to_json())
    for skip in ("wall_ms", "config", "iteration_csv"):
        d1.pop(skip), d2.pop(skip)
    assert d1 == d2


def test_run_experiment_discrepancy_stop():
    config = ExperimentConfig(
        run_id="noisy",
        n=64,
        truth="m2_default",
        noise=NoiseSpec(relative_level=0.2, seed=1),
        iteration=IterationConfig(max_iter=200, gamma_scale=3000.0),
    )
    record = run_experiment(config)
    assert record.stop_reason == "discrepancy"
    assert record.stop_index < 200


def test_run_experiment_keeps_absolute_residual_floor():
    # an absolute floor above the first residual stops the run at k = 0
    config = ExperimentConfig(
        run_id="floor", n=32, iteration=IterationConfig(max_iter=40, residual_floor=1000.0)
    )
    record = run_experiment(config)
    assert record.stop_index == 0
    assert record.stop_reason == "residual_floor"


def test_record_carries_the_discrepancy_threshold():
    # a noisy run stops against tau * delta, and its record says so
    config = ExperimentConfig(
        run_id="tau",
        n=64,
        truth="m2_default",
        noise=NoiseSpec(relative_level=0.05, seed=1),
        iteration=IterationConfig(max_iter=200, gamma_scale=3000.0),
    )
    record = run_experiment(config)
    assert record.delta > 0
    assert record.threshold == 1.1 * record.delta
    assert record.stop_reason == "discrepancy"
    assert record.final_residual <= record.threshold


def test_clean_record_threshold_is_the_relative_floor():
    config = ExperimentConfig(run_id="clean", n=64, iteration=small_iteration())
    record = run_experiment(config)
    _, problem, _, y = experiments.build_problem(config)
    assert record.delta == 0.0
    assert record.threshold == experiments.RESIDUAL_FLOOR_REL * data_norm(problem.grid, y)


# ----------------------------------------------------------------------
# sweeps
# ----------------------------------------------------------------------


def test_sweep_noise_axis(tmp_path):
    base = ExperimentConfig(
        run_id="sw", n=64, truth="m2_default", iteration=small_iteration(max_iter=25)
    )
    records, summary = sweep(base, "noise_levels", [0.01, 0.05])
    assert len(records) == 2
    lines = summary.splitlines()
    assert lines[0] == SWEEP_CSV_HEADER
    assert len(lines) == 3


def test_sweep_empty_axis():
    # a sweep over no values would pass without running anything
    base = ExperimentConfig(run_id="sw", n=64, iteration=small_iteration())
    with pytest.raises(ConfigurationError, match="at least one value"):
        sweep(base, "noise_levels", [])


def test_sweep_epsilon_axis():
    base = ExperimentConfig(
        run_id="sw", n=64, truth="m2_default", iteration=small_iteration(max_iter=10)
    )
    records, summary = sweep(base, "epsilon_values", [0.0, 0.3])
    assert len(records) == 2
    assert records[1] is not None


def test_sweep_unknown_axis():
    with pytest.raises(ConfigurationError):
        sweep(ExperimentConfig(), "bogus_axis", [1])


# ----------------------------------------------------------------------
# config handling
# ----------------------------------------------------------------------


def test_config_json_round_trip():
    config = ExperimentConfig(
        n=80,
        noise=NoiseSpec(relative_level=0.05, seed=2),
        scheme=ObservationScheme(kind="restricted", epsilon=0.3),
        iteration=IterationConfig(max_iter=77, gamma_scale=12.0),
    )
    clone = ExperimentConfig.from_json(config.to_json())
    assert clone == config


def test_config_rejects_unknown_keys():
    with pytest.raises(ConfigurationError):
        ExperimentConfig.from_dict({"n": 64, "bogus": True})
    with pytest.raises(ConfigurationError):
        ExperimentConfig.from_dict({"noise": {"relative_level": 0.1, "sigma": 1}})


def test_config_checks_scalar_types():
    # a float field takes an int; an int field takes neither a float nor a bool
    config = ExperimentConfig.from_dict({"iteration": {"gamma_scale": 3000}})
    assert config.iteration.gamma_scale == 3000
    for doc, path in (
        ({"n": 20.5}, "config.n"),
        ({"n": True}, "config.n"),
        ({"noise": {"seed": "1"}}, "config.noise.seed"),
        ({"iteration": {"max_iter": "big"}}, "config.iteration.max_iter"),
        ({"scheme": 3}, "config.scheme"),
    ):
        with pytest.raises(ConfigurationError, match=path):
            ExperimentConfig.from_dict(doc)


def test_config_rejects_removed_iteration_settings():
    # the discrepancy factor, the momentum weight, the line search and the
    # H2 metric are module constants of rotwave.inversion, not config fields
    for doc in (
        {"iteration": {"nesterov_alpha": 3.0}},
        {"iteration": {"line_search": {"mu0": 1.0}}},
        {"iteration": {"tau": 1.1}},
        {"iteration": {"parameter_metric": "H2"}},
    ):
        with pytest.raises(ConfigurationError, match="unknown keys in config.iteration"):
            ExperimentConfig.from_dict(doc)


def test_config_dotted_overrides():
    config = ExperimentConfig()
    out = apply_overrides(config, {"iteration.max_iter": 50, "noise.seed": 9, "n": 128})
    assert out.iteration.max_iter == 50
    assert out.noise.seed == 9
    assert out.n == 128
    with pytest.raises(ConfigurationError):
        apply_overrides(config, {"iteration.bogus": 1})


def test_sweep_records_individual_failures():
    base = ExperimentConfig(
        run_id="swf", n=64, truth="m2_default", iteration=small_iteration(max_iter=5)
    )
    # second scheme value is invalid; the sweep must keep going
    records, summary = sweep(
        base,
        "schemes",
        [{"kind": "full"}, {"kind": "restricted", "epsilon": 3.5}],
    )
    assert records[0] is not None
    assert records[1] is None
    assert "error: ConfigurationError" in summary.splitlines()[2]


@pytest.mark.parametrize(
    "axis,bad,good",
    [
        ("noise_levels", 1.5, 0.05),
        ("noise_levels", "abc", 0.05),
        ("epsilon_values", 3.5, 0.0),
        ("epsilon_values", "abc", 0.0),
        ("schemes", 1, {"kind": "full"}),
        ("schemes", {"kind": "full", "bogus": 1}, {"kind": "full"}),
    ],
)
def test_sweep_records_unusable_value_and_continues(axis, bad, good):
    base = ExperimentConfig(
        run_id="swv", n=64, truth="m2_default", iteration=small_iteration(max_iter=5)
    )
    records, summary = sweep(base, axis, [bad, good])
    assert records[0] is None
    assert records[1] is not None
    assert "error: ConfigurationError" in summary.splitlines()[1]


def test_sweep_records_numerical_failure(monkeypatch):
    def resonant(config):
        raise NearResonanceError(config.n, 2, 1e-16)

    monkeypatch.setattr(experiments, "run_experiment", resonant)
    records, summary = sweep(ExperimentConfig(run_id="swr"), "noise_levels", [0.01])
    assert records == [None]
    assert "error: NearResonanceError" in summary.splitlines()[1]


def test_sweep_propagates_programming_errors(monkeypatch):
    def broken(config):
        raise TypeError("unsupported operand")

    monkeypatch.setattr(experiments, "run_experiment", broken)
    with pytest.raises(TypeError):
        sweep(ExperimentConfig(run_id="swt"), "noise_levels", [0.01])


def test_truth_rejects_wrong_parity_shape():
    # sin^2 satisfies the |m| = 1 pole conditions neither in trace (psi''(0)
    # = 2) nor in parity; the admissibility check must catch it
    with pytest.raises(ConfigurationError):
        manufacture_truth(
            "m2_default", {"psi_name": "clamped_sin2", "m": 1, "omega_freq": 1.0}
        )
