"""Tests of the benchmark's own arithmetic and wrapper hygiene.

Run from the repository root:

    PYTHONPATH=src python3 -m pytest -q -p no:cacheprovider perfbench
"""

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import tracer as tr  # noqa: E402
from tracer import LOOP, MISSING, Span, Tracer, layer_metrics, self_times  # noqa: E402


def test_self_time_subtracts_nested_children():
    spans = [
        Span("a", 0.0, 10.0, None, "op"),
        Span("b", 1.0, 4.0, 0, "op"),
        Span("c", 2.0, 3.0, 1, "op"),
        Span("d", 5.0, 6.5, 0, "op"),
    ]
    assert self_times(spans) == pytest.approx([10.0 - 3.0 - 1.5, 3.0 - 1.0, 1.0, 1.5])


def test_self_time_from_recorded_spans_with_a_fake_clock():
    ticks = iter([0.0, 1.0, 2.0, 4.0, 7.0, 8.0])
    t = Tracer(clock=lambda: next(ticks))
    with t.span("outer"):
        with t.span("inner"):
            with t.span("leaf"):
                pass
    assert [s.parent for s in t.spans] == [None, 0, 1]
    assert self_times(t.spans) == pytest.approx([8.0 - 6.0, 6.0 - 2.0, 2.0])


def _loop_spans():
    """Two loops: 2 + 1 iterations, 7 + 3 states and 5 + 2 misfit evaluations
    inside them, plus one state and one misfit evaluation outside any loop."""
    spans = [Span("inversion.observed", 0.0, 0.1, None, "setup")]
    spans.append(Span("inversion.state", 0.0, 0.1, 0, "setup"))
    for iterations, states, observed in ((2, 7, 5), (1, 3, 2)):
        loop = len(spans)
        spans.append(Span(LOOP, 1.0, 9.0, None, "op", {"iterations": iterations}))
        for k in range(states):
            parent = loop
            if k < observed:
                spans.append(Span("inversion.observed", 2.0, 3.0, loop, "op"))
                parent = len(spans) - 1
            spans.append(Span("inversion.state", 2.0, 3.0, parent, "op"))
    return spans


def test_derived_loop_ratios():
    values = layer_metrics(_loop_spans(), missing=[])
    assert values["inversion.iterations"] == 3
    assert values["inversion.state_calls"] == 10  # the state outside a loop is not counted
    assert values["inversion.solves_per_iter"] == pytest.approx(10 / 3)
    assert values["inversion.trials"] == 5  # 7 misfits minus one initial misfit per loop
    assert values["inversion.accept_ratio"] == pytest.approx(3 / 5)


def test_ratios_without_iterations_are_zero_not_errors():
    values = layer_metrics([], missing=[])
    assert values["inversion.solves_per_iter"] == 0.0
    assert values["inversion.accept_ratio"] == 0.0


def test_missing_boundary_marks_its_metrics_not_zero():
    t = Tracer()
    fake = dict(tr.BOUNDARIES)
    fake["inversion.calibrate_gradient_sign"] = ("rotwave.inversion", "no_such_function", None)
    with t.installed(fake):
        pass
    assert t.missing == ["inversion.calibrate_gradient_sign"]
    values = layer_metrics(t.spans, t.missing)
    assert values["inversion.calibrate_s"] == MISSING
    assert values["inversion.calibrate_calls"] == MISSING
    assert values["operator.factor_s"] == 0.0


def _bindings():
    """Every (module, name) -> object binding in the loaded rotwave modules,
    plus the methods of the traced classes."""
    import rotwave.experiments
    import rotwave.inversion
    import rotwave.operator

    found = {}
    for modname, mod in list(sys.modules.items()):
        if mod is not None and (modname == "rotwave" or modname.startswith("rotwave.")):
            for name, value in vars(mod).items():
                if callable(value):
                    found[(modname, name)] = value
    for cls in (rotwave.operator.WaveSystem, rotwave.inversion.InverseProblem,
                rotwave.inversion.ParameterMetric, rotwave.grid.DerivativeStencils):
        for name, value in vars(cls).items():
            found[(cls.__name__, name)] = value
    return found


def test_traced_run_wraps_reexports_and_restores_them():
    import rotwave
    import rotwave.experiments as ex
    import rotwave.inversion as inv
    import rotwave.operator as op

    before = _bindings()
    original_solve = op.solve
    t = Tracer()
    with t.installed():
        assert t.missing == []
        # the re-imported names are wrapped too, not only the defining module
        for owner in (op, inv, ex, rotwave):
            assert owner.solve is not original_solve
            assert owner.solve.__wrapped__ is original_solve
        grid = rotwave.grid.build_grid(32)
        stencils = rotwave.grid.build_stencils(grid)
        truth_m, omega_freq = 2, 1.0
        problem = inv.InverseProblem(
            grid=grid, stencils=stencils, m=truth_m, omega_freq=omega_freq,
            source=rotwave.grid.ComplexField(m=truth_m, values=(1.0 + 0j) * grid.weights),
            scheme=inv.ObservationScheme(),
        )
        system, _ = problem.state(0.05, 0.0 * grid.nodes)
        system.solve_values(grid.weights.astype(complex))  # second solve: no new factorization
    assert _bindings() == before
    names = [s.name for s in t.spans]
    assert names.count("operator.factorization") == 1
    assert names.count("operator.solve_values") == 2
    state = names.index("inversion.state")
    assert t.spans[names.index("operator.assemble_forward")].parent == state
    values = layer_metrics(t.spans, t.missing)
    assert values["operator.system_bytes"] >= 2 * 32 * 32 * 16  # matrix plus its LU


def test_wrappers_restored_when_the_run_raises():
    before = _bindings()
    with pytest.raises(ValueError):
        with Tracer().installed():
            import rotwave.grid

            rotwave.grid.build_grid(32).nodes.reshape(7)  # raises inside the traced run
    assert _bindings() == before


def test_best_round_takes_each_labels_fastest_call_times_its_calls_per_round():
    import run

    rounds = [
        [("full", 3.0), ("restricted", 2.0)],
        [("full", 1.0), ("restricted", 4.0)],
    ]
    assert run.best_round_s(rounds) == pytest.approx(1.0 + 2.0)
    sweep = [[("run", 2.0), ("run", 1.5), ("run", 1.7)], [("run", 1.2), ("run", 1.9), ("run", 1.4)]]
    assert run.best_round_s(sweep) == pytest.approx(3 * 1.2)


def test_benchmark_json_matches_the_reported_metrics():
    import run
    import workloads

    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert list(workloads.WORKLOADS) == list(run.WORKLOADS)
