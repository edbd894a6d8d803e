"""Golden record of the acceptance suite's reconstruction outputs.

`tests/golden/contract.json` holds what criteria 6-9 compute: criterion
6's full-scheme and restricted-window traces (stop index and reason, state
solves, gradients, accepted steps, residual history, final iterate), and
criterion 7's 9 and the noise battery's 15 run records without `wall_ms`.
The restricted trace and criterion 7's records pin the observed window, so
a shifted window shows here.  The acceptance suite builds all of them from
the set-ups below and compares them with `compare`: integers, strings,
steps and config echoes must match exactly, other floats within
`FLOAT_RTOL` (relative, element by element).

Regenerate the file, from the repository root, with

    PYTHONPATH=src python tests/golden_contract.py

only when a change means to move these outputs, and list every field that
moved in CHANGES.md.
"""

from __future__ import annotations

import json
import math
import os
import pathlib
from dataclasses import asdict

# one BLAS thread, as the test suite runs (see conftest.py)
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

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
    run_experiment,
)

CONTRACT_PATH = pathlib.Path(__file__).parent / "golden" / "contract.json"
FLOAT_RTOL = 1e-12
BATTERY_LEVELS = (0.01, 0.05, 0.20)
BATTERY_SEEDS = range(5)
# criterion 6's restricted case, the second case of the recon-clean-n100 benchmark
RESTRICTED_SCHEME = ObservationScheme(kind="restricted", epsilon=0.2 * math.pi / 2)
LEAKAGE_SEEDS = (0, 1, 2)
LEAKAGE_FRACTIONS = (0.0, 0.2, 0.5)  # epsilon as a fraction of pi/2


def clean33_problem(scheme: ObservationScheme = ObservationScheme()):
    """Criterion 6's instance: m3_default at n = 100, full observation
    unless `scheme` says otherwise."""
    truth = manufacture_truth("m3_default")
    grid = build_grid(100, truth.r)
    stencils = build_stencils(grid)
    problem = InverseProblem(
        grid=grid,
        stencils=stencils,
        m=truth.m,
        omega_freq=truth.omega_freq,
        source=truth.source(grid),
        scheme=scheme,
        omega_ref=truth.omega_ref,
    )
    return truth, grid, stencils, problem


def clean_reconstruction(truth, grid, problem):
    """Criterion 6's run: (clean data y, its config, the trace)."""
    y = problem.observed(truth.gamma_true, truth.omega_exact(grid).values)
    config = IterationConfig(
        max_iter=500, gamma_scale=3000.0, residual_floor=1e-8 * data_norm(grid, y)
    )
    trace = nesterov_landweber(
        problem, y, delta=0.0, config=config, gamma_init=3 * truth.gamma_true
    )
    return y, config, trace


def noise_battery() -> dict:
    """(omega, m) = (1, 2) runs over 5 seeds x 3 noise levels, by level."""
    out = {}
    for level in BATTERY_LEVELS:
        out[level] = [
            run_experiment(
                ExperimentConfig(
                    run_id=f"nb_{level}_{seed}",
                    n=100,
                    truth="m2_default",
                    noise=NoiseSpec(relative_level=level, seed=seed),
                    iteration=IterationConfig(max_iter=800, gamma_scale=3000.0),
                )
            )
            for seed in BATTERY_SEEDS
        ]
    return out


def leakage_run(seed: int, eps_fraction: float):
    """Criterion 7's run: m3_default at 1 % noise, observed for epsilon =
    eps_fraction * pi/2 (the full scheme at 0)."""
    eps = eps_fraction * math.pi / 2
    scheme = (
        ObservationScheme()
        if eps == 0.0
        else ObservationScheme(kind="restricted", epsilon=float(eps))
    )
    config = ExperimentConfig(
        run_id=f"leak_{seed}_{eps_fraction}",
        n=100,
        truth="m3_default",
        scheme=scheme,
        noise=NoiseSpec(relative_level=0.01, seed=seed),
        iteration=IterationConfig(max_iter=800, gamma_scale=3000.0),
    )
    return run_experiment(config)


def leakage_records() -> dict:
    """Criterion 7's records by seed, one per `LEAKAGE_FRACTIONS` entry."""
    return {seed: [leakage_run(seed, f) for f in LEAKAGE_FRACTIONS] for seed in LEAKAGE_SEEDS}


def trace_entry(trace) -> dict:
    gamma, omega = trace.iterates[trace.stop_index]
    return {
        "stop_index": trace.stop_index,
        "stop_reason": trace.stop_reason,
        "state_solves": trace.state_solves,
        "gradients": trace.gradients,
        "step_sizes": [float(s) for s in trace.step_sizes],
        "residuals": [float(r) for r in trace.residuals],
        "final_gamma": float(gamma),
        "final_omega": [float(v) for v in omega],
    }


def record_entry(record) -> dict:
    entry = asdict(record)
    del entry["wall_ms"]
    return entry


def contract(full_trace, restricted_trace, leakage: dict, battery: dict) -> dict:
    return {
        "criterion_6_full": trace_entry(full_trace),
        "criterion_6_restricted": trace_entry(restricted_trace),
        "criterion_7_leakage": [record_entry(r) for seed in LEAKAGE_SEEDS for r in leakage[seed]],
        "noise_battery": [record_entry(r) for level in BATTERY_LEVELS for r in battery[level]],
    }


# keys compared exactly although they hold floats: the accepted steps are
# powers of two, and the config echo is the run's input
EXACT_KEYS = ("step_sizes", "config")


def _float_deviation(expected: float, actual: float) -> float:
    if expected == actual or (math.isnan(expected) and math.isnan(actual)):
        return 0.0
    return abs(actual - expected) / abs(expected) if expected != 0 else math.inf


def compare(golden, actual, path: str = "") -> tuple[list[str], float]:
    """(mismatches, largest relative float deviation) of `actual` against
    `golden`.  Only the keys of `golden` are compared, so a record may gain
    fields without moving the pin."""
    if isinstance(golden, dict):
        if not isinstance(actual, dict):
            return [f"{path}: expected an object"], 0.0
        mismatches, worst = [], 0.0
        for key, value in golden.items():
            if key not in actual:
                mismatches.append(f"{path}.{key}: missing")
                continue
            sub = f"{path}.{key}"
            if key in EXACT_KEYS:
                if json.loads(json.dumps(actual[key])) != value:
                    mismatches.append(f"{sub}: differs")
                continue
            found, dev = compare(value, actual[key], sub)
            mismatches += found
            worst = max(worst, dev)
        return mismatches, worst
    if isinstance(golden, list):
        if not isinstance(actual, (list, tuple)) or len(actual) != len(golden):
            return [f"{path}: expected {len(golden)} entries"], 0.0
        mismatches, worst = [], 0.0
        for i, (g, a) in enumerate(zip(golden, actual)):
            found, dev = compare(g, a, f"{path}[{i}]")
            mismatches += found
            worst = max(worst, dev)
        return mismatches, worst
    if isinstance(golden, float) and not isinstance(actual, (str, bool)):
        dev = _float_deviation(golden, float(actual))
        return ([f"{path}: {actual!r} != {golden!r}"] if dev > FLOAT_RTOL else []), dev
    if golden != actual:
        return [f"{path}: {actual!r} != {golden!r}"], 0.0
    return [], 0.0


def main() -> None:
    traces = []
    for scheme in (ObservationScheme(), RESTRICTED_SCHEME):
        truth, grid, _, problem = clean33_problem(scheme)
        traces.append(clean_reconstruction(truth, grid, problem)[2])
    doc = contract(*traces, leakage_records(), noise_battery())
    CONTRACT_PATH.parent.mkdir(exist_ok=True)
    CONTRACT_PATH.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {CONTRACT_PATH}")


if __name__ == "__main__":
    main()
