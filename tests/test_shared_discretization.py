"""One grid and one stencils object per (n, r) and process: the shared arrays
refuse writes, and runs give the same numbers whether the discretization
was built for them or reused from an earlier run."""

import hashlib
from dataclasses import asdict

import numpy as np
import pytest

import rotwave.experiments as experiments
from rotwave import (
    ExperimentConfig,
    InverseProblem,
    IterationConfig,
    NoiseSpec,
    ObservationScheme,
    build_grid,
    build_stencils,
    data_norm,
    manufacture_truth,
    nesterov_landweber,
    sweep,
)


def clear_shared():
    build_grid.cache_clear()
    build_stencils.cache_clear()


SHARED_ARRAYS = {
    "grid.weights": lambda g, st: g.weights,
    "grid.nodes": lambda g, st: g.nodes,
    "alpha.weights": lambda g, st: st.alpha.weights,
    "alpha.columns": lambda g, st: st.alpha.columns,
    **{
        f"delta_{m}.{part}": (lambda g, st, m=m, part=part: getattr(st.delta_matrix(m), part))
        for m in (0, 2, 3)
        for part in ("weights", "diagonals")
    },
}


@pytest.mark.parametrize("name", sorted(SHARED_ARRAYS))
def test_shared_arrays_refuse_in_place_writes(name):
    grid = build_grid(100)
    array = SHARED_ARRAYS[name](grid, build_stencils(grid))
    before = array.copy()
    with pytest.raises(ValueError, match="read-only"):
        array[0] += 1.0
    with pytest.raises(ValueError, match="read-only"):
        array *= 2.0
    assert np.array_equal(array, before)


def test_sweep_records_equal_with_warm_and_cleared_caches(monkeypatch):
    def battery():
        rows = []
        for seed in (0, 1):
            base = ExperimentConfig(
                run_id=f"shared_{seed}", n=100, truth="m2_default",
                noise=NoiseSpec(relative_level=0.0, seed=seed),
                iteration=IterationConfig(max_iter=800, gamma_scale=3000.0),
            )
            records, _ = sweep(base, "noise_levels", [0.01, 0.05, 0.20])
            rows += [{k: v for k, v in asdict(r).items() if k != "wall_ms"} for r in records]
        return rows

    run_experiment = experiments.run_experiment

    def cold_run(config):
        clear_shared()
        return run_experiment(config)

    with monkeypatch.context() as patch:
        patch.setattr(experiments, "run_experiment", cold_run)
        cold = battery()
    # warm: the last cold run left the n = 100 stencils with their band layout
    assert "diagonals" in vars(build_stencils(build_grid(100)).delta_matrix(2))
    warm = battery()
    assert len(warm) == 6 and all(r["stop_reason"] == "discrepancy" for r in warm)
    assert warm == cold


def _criterion_6_digest():
    truth = manufacture_truth("m3_default")
    grid = build_grid(100, truth.r)
    stencils = build_stencils(grid)
    problem = InverseProblem(
        grid=grid, stencils=stencils, m=truth.m, omega_freq=truth.omega_freq,
        source=truth.source(grid), scheme=ObservationScheme(), omega_ref=truth.omega_ref,
    )
    y = problem.observed(truth.gamma_true, truth.omega_exact(grid).values)
    config = IterationConfig(
        max_iter=500, gamma_scale=3000.0, residual_floor=1e-8 * data_norm(grid, y)
    )
    trace = nesterov_landweber(
        problem, y, delta=0.0, config=config, gamma_init=3 * truth.gamma_true
    )
    digest = hashlib.sha256()
    for gamma, omega in trace.iterates:
        digest.update(np.float64(gamma).tobytes() + np.ascontiguousarray(omega).tobytes())
    digest.update(np.asarray(trace.residuals, dtype=float).tobytes())
    digest.update(np.asarray(trace.step_sizes, dtype=float).tobytes())
    return stencils, (digest.hexdigest(), trace.stop_index, trace.state_solves)


def test_criterion_6_trace_hash_equal_with_warm_and_cleared_caches():
    clear_shared()
    cold_stencils, cold = _criterion_6_digest()
    warm_stencils, warm = _criterion_6_digest()
    assert warm_stencils is cold_stencils
    assert warm == cold
