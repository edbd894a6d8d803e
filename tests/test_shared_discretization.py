"""One grid per (n, r) and process, and hanging off it its stencils, its
observation windows, one pinned delta_0 (on which the Riesz map solves)
and one noise-free set-up per truth
(truth, nodal source, Omega*, clean state): the shared arrays refuse
writes, each piece is built once per process, the one clear drops them all,
and runs give the same numbers whether a piece was built for them or
reused from an earlier run."""

import gc
import hashlib
import json
import math
import weakref
from collections import Counter
from dataclasses import asdict, replace

import numpy as np
import pytest

from conftest import clear_shared
import rotwave.experiments as experiments
import rotwave.inversion as inversion
import rotwave.operator as operator
from rotwave import (
    ConfigurationError,
    ExperimentConfig,
    InverseProblem,
    IterationConfig,
    NoiseSpec,
    ObservationScheme,
    ParameterMetric,
    build_grid,
    build_stencils,
    data_norm,
    manufacture_truth,
    nesterov_landweber,
    sweep,
)


def m2_problem():
    """build_problem's (truth, problem, psi*, y) for m2_default at n = 100."""
    return experiments.build_problem(ExperimentConfig(n=100, truth="m2_default"))


def settings_json(name, overrides=None):
    """A catalogue truth's resolved settings as `noise_free` keys them: the
    preset with the overrides applied, as sorted-key JSON."""
    return json.dumps({**experiments.TRUTH_PRESETS[name], **(overrides or {})}, sort_keys=True)


SHARED_ARRAYS = {
    "grid.weights": lambda g, st: g.weights,
    "grid.nodes": lambda g, st: g.nodes,
    "source.values": lambda g, st: m2_problem()[1].source.values,
    "psi*.values": lambda g, st: m2_problem()[2].values,
    "psi*.phi": lambda g, st: m2_problem()[2].phi,
    "omega*": lambda g, st: experiments.noise_free(settings_json("m2_default"), st).omega,
    "riesz.lu": lambda g, st: ParameterMetric(st)._system.lu,
    "delta0.lu": lambda g, st: operator.pinned_delta0(st).lu,
    "delta0.ell": lambda g, st: operator.pinned_delta0(st).ell,
    "delta0.v": lambda g, st: operator.pinned_delta0(st).v,
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


def _sweep_derived_refs():
    """Weak references to the grid of an epsilon sweep, and to all else the
    sweep derived from that grid: the stencils, the pinned delta_0 that the Riesz
    map solves on, and the noise-free set-up with its truth.  n = 48 and this truth serve no fixture, so nothing outside the
    grid cache holds them."""
    overrides = {"gamma_true": 0.06}
    base = ExperimentConfig(
        run_id="owned", n=48, truth="m2_default", truth_overrides=overrides,
        noise=NoiseSpec(relative_level=0.05, seed=0),
        iteration=IterationConfig(max_iter=5, gamma_scale=3000.0),
    )
    records, _ = sweep(base, "epsilon_values", [0.0, 0.3])
    assert None not in records
    grid = build_grid(48)
    stencils = build_stencils(grid)
    setup = experiments.noise_free(settings_json("m2_default", overrides), stencils)
    owned = {
        "grid": grid,
        "stencils": stencils,
        "truth": setup.truth,
        "pinned delta_0": operator.pinned_delta0(stencils),
        "noise-free": setup,
    }
    return {name: weakref.ref(obj) for name, obj in owned.items()}


def test_one_clear_drops_a_sweep_grid_and_all_it_derived():
    refs = _sweep_derived_refs()
    clear_shared()
    gc.collect()
    assert {name: ref() is None for name, ref in refs.items()} == dict.fromkeys(refs, True)


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


def test_truth_shared_per_name_and_overrides_and_read_only():
    # a run's truth is its noise-free set-up's, shared by every run on the
    # grid with equal resolved settings
    def run_truth(overrides):
        config = ExperimentConfig(n=64, truth="m2_default", truth_overrides=overrides)
        return experiments.build_problem(config)[0]

    overrides = {"gamma_true": 0.1, "psi_coeffs": {"b": 0.5}}
    truth = run_truth(overrides)
    assert run_truth({"psi_coeffs": {"b": 0.5}, "gamma_true": 0.1}) is truth
    assert run_truth({"gamma_true": 0.1}) is not truth
    assert run_truth({"phase": -0.0}) is not run_truth({"phase": 0.0})
    with pytest.raises(AttributeError, match="read-only"):
        truth.gamma_true = 0.2
    with pytest.raises(TypeError):
        truth.psi_coeffs["b"] = 0.6
    clear_shared()
    assert run_truth(overrides) is not truth


def _sweep_rows(base, axis, values):
    """The sweep's records without `wall_ms`."""
    records, _ = sweep(base, axis, values)
    return [{k: v for k, v in asdict(r).items() if k != "wall_ms"} for r in records]


def test_epsilon_sweep_records_equal_with_warm_and_cleared_caches(monkeypatch):
    # one truth observed on two windows: both runs read the same shared
    # clean state, observed through each run's own scheme
    base = ExperimentConfig(
        run_id="shared_eps", n=100, truth="m3_default",
        noise=NoiseSpec(relative_level=0.01, seed=0),
        iteration=IterationConfig(max_iter=800, gamma_scale=3000.0),
    )
    values = [0.0, 0.2 * math.pi / 2]
    run_experiment = experiments.run_experiment

    def cold_run(config):
        clear_shared()
        return run_experiment(config)

    with monkeypatch.context() as patch:
        patch.setattr(experiments, "run_experiment", cold_run)
        cold = _sweep_rows(base, "epsilon_values", values)
    warm = _sweep_rows(base, "epsilon_values", values)
    assert [r["config"]["scheme"]["kind"] for r in warm] == ["full", "restricted"]
    assert all(r["stop_reason"] == "discrepancy" for r in warm)
    assert warm == cold


def test_noise_sweep_builds_its_noise_free_set_up_once(monkeypatch):
    # a three-level sweep manufactures the truth once, solves its clean
    # state once and factors the pinned delta_0 of its Riesz map once.
    # Forward assemblies count outside the loop only (the loop's own are its
    # iterates'); the pinned delta_0, which each loop's metric asks for,
    # counts everywhere
    counts = Counter()
    in_loop = []

    def counted(name, fn, outside_loop=True):
        def wrapper(*args, **kwargs):
            counts[name] += not (outside_loop and in_loop)
            return fn(*args, **kwargs)
        return wrapper

    def loop(*args, **kwargs):
        in_loop.append(True)
        try:
            return nesterov_landweber(*args, **kwargs)
        finally:
            in_loop.pop()

    clear_shared()
    monkeypatch.setattr(experiments.GroundTruth, "__init__",
                        counted("truth", experiments.GroundTruth.__init__))
    monkeypatch.setattr(inversion, "assemble_forward",
                        counted("clean state", inversion.assemble_forward))
    monkeypatch.setattr(operator, "PinnedDelta0", counted("riesz", operator.PinnedDelta0, False))
    monkeypatch.setattr(experiments, "nesterov_landweber", loop)
    base = ExperimentConfig(
        run_id="shared_count", n=100, truth="m2_default",
        iteration=IterationConfig(max_iter=800, gamma_scale=3000.0),
    )
    records, _ = sweep(base, "noise_levels", [0.01, 0.05, 0.20])
    assert [r.stop_reason for r in records] == ["discrepancy"] * 3
    assert counts == {"truth": 1, "clean state": 1, "riesz": 1}
    # one clean state serves every scheme as well as every noise level
    restricted = ObservationScheme(kind="restricted", epsilon=0.3)
    psi = experiments.build_problem(base)[2]
    assert experiments.build_problem(replace(base, scheme=restricted))[2] is psi
    assert counts == {"truth": 1, "clean state": 1, "riesz": 1}


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


def test_noise_free_set_up_keyed_on_the_truth_settings():
    # ten settings, each asked for twice: the string finds its set-up, whose
    # truth is built from it, and adds no second one
    clear_shared()
    stencils = build_stencils(build_grid(64))
    set_up = lambda **kw: experiments.noise_free(settings_json("m2_default", kw), stencils)
    gammas = [0.05 + 0.01 * k for k in range(10)]
    first = [set_up(gamma_true=g) for g in gammas]
    again = [set_up(gamma_true=g) for g in gammas]
    assert [a is b for a, b in zip(first, again)] == [True] * 10
    assert [setup.truth.gamma_true for setup in first] == gammas
    setups = [k for k in stencils.derived if isinstance(k, tuple) and k[0] == "noise_free"]
    assert len(setups) == 10
    # build_problem finds the set-up under the same string; 0.0 and -0.0,
    # and 1 and 1.0, are told apart
    zero = set_up(phase=0.0)
    config = ExperimentConfig(n=64, truth="m2_default", truth_overrides={"phase": 0.0})
    assert experiments.build_problem(config)[0] is zero.truth
    assert set_up(phase=-0.0) is not zero
    assert set_up(gamma_true=1) is not set_up(gamma_true=1.0)


def test_rejected_truth_leaves_no_set_up():
    # the truth is validated as its set-up is built: a rejected one leaves
    # nothing on the grid's stencils
    stencils = build_stencils(build_grid(64))
    before = set(stencils.derived)
    config = ExperimentConfig(n=64, truth="m2_default", truth_overrides={"amplitude": 0})
    with pytest.raises(ConfigurationError, match="amplitude"):
        experiments.build_problem(config)
    assert set(stencils.derived) == before
