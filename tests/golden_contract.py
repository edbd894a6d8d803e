"""Golden record of the acceptance suite's reconstruction outputs.

`tests/golden/contract.json` holds what criterion 6 and the noise battery
of criteria 8-9 compute: criterion 6's full-scheme trace (stop index and
reason, state solves, gradients, accepted steps, residual history, final
iterate) and the battery's 15 run records without `wall_ms`.  The
acceptance suite builds both from the set-ups below and compares them with
`compare`: integers, strings, steps and config echoes must match exactly,
other floats within `FLOAT_RTOL` (relative, element by element).

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


def clean33_problem():
    """Criterion 6's instance: m3_default at n = 100, full observation."""
    truth = manufacture_truth("m3_default")
    grid = build_grid(100, truth.r)
    stencils = build_stencils(grid)
    problem = InverseProblem(
        grid=grid,
        stencils=stencils,
        m=truth.m,
        omega_freq=truth.omega_freq,
        source=truth.source(grid),
        scheme=ObservationScheme(),
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


def contract(trace, battery: dict) -> dict:
    return {
        "criterion_6_full": trace_entry(trace),
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
    truth, grid, _, problem = clean33_problem()
    _, _, trace = clean_reconstruction(truth, grid, problem)
    doc = contract(trace, noise_battery())
    CONTRACT_PATH.parent.mkdir(exist_ok=True)
    CONTRACT_PATH.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {CONTRACT_PATH}")


if __name__ == "__main__":
    main()
