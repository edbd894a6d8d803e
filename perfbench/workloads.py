"""The three benchmark workloads: set-up, one round of operations, checks.

Every input is generated here from the benchmark seed; rotwave only
receives it.  Calls go through module attributes (`ex.sweep`, not a name
imported at load time) so that a traced run reaches the tracer's wrappers.

An operation is one reconstruction, one sweep run or one forward operation.
It fails when it raises, returns no record, or misses its output check.
`operations(round_index)` yields (label, run, check) per operation; `check`
turns the result of `run()` into a verdict: None for a pass, else the reason.
"""

from __future__ import annotations

import contextlib
import math
import sys
import time

import numpy as np

import rotwave.experiments as ex
import rotwave.grid as gr
import rotwave.inversion as inv
import rotwave.operator as op


class Outcome:
    """Tally of attempted and failed operations with the failure reasons."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, op_id: str, problem: str | None) -> None:
        self.attempted += 1
        if problem is not None:
            self.failures.append(f"{op_id}: {problem}")


def _wl2(grid, values) -> float:
    return math.sqrt(float(np.sum(np.abs(values) ** 2 * grid.weights)))


def _smooth_profile(rng, grid, degree: int = 4) -> np.ndarray:
    """Random smooth latitudinal profile: a decaying Legendre series in cos(theta)."""
    coeffs = rng.standard_normal(degree) / np.arange(1, degree + 1) ** 1.5
    return np.polynomial.legendre.legval(np.cos(grid.nodes), np.concatenate([[0.0], coeffs]))


# ----------------------------------------------------------------------
# recon-clean-n100: criterion 6, the paper's headline reconstruction
# ----------------------------------------------------------------------


class ReconClean:
    """Clean m3_default reconstructions, full and restricted (eps = 0.2 pi/2).

    The instance is the paper's fixed one, so the seed changes nothing.
    Real-part-only observation is left out: it does not converge clean.
    """

    N = 100
    SCHEMES = (("full", {}), ("restricted", {"kind": "restricted", "epsilon": 0.2 * math.pi / 2}))

    def setup(self, seed: int) -> list[str | None]:
        truth = ex.manufacture_truth("m3_default")
        grid = gr.build_grid(self.N, truth.r)
        stencils = gr.build_stencils(grid)
        self.truth, self.grid = truth, grid
        self.omega_true = truth.omega_exact(grid).values
        source = truth.source(grid)
        self.cases = []
        for label, scheme in self.SCHEMES:
            problem = inv.InverseProblem(
                grid=grid, stencils=stencils, m=truth.m, omega_freq=truth.omega_freq,
                source=source, scheme=inv.ObservationScheme(**scheme),
                omega_ref=truth.omega_ref,
            )
            y = problem.observed(truth.gamma_true, self.omega_true)
            config = inv.IterationConfig(
                max_iter=500, gamma_scale=3000.0,
                residual_floor=1e-8 * inv.data_norm(grid, y),
            )
            self.cases.append((label, problem, y, config))
        return []

    def operations(self, round_index: int):
        for label, problem, y, config in self.cases:
            run = lambda problem=problem, y=y, config=config: inv.nesterov_landweber(
                problem, y, delta=0.0, config=config, gamma_init=3 * self.truth.gamma_true
            )
            yield label, run, (lambda trace, y=y: self.check(trace, y))

    def check(self, trace, y) -> str | None:
        """Criterion 6's bounds."""
        gamma, omega = trace.iterates[trace.stop_index]
        eg = abs(gamma - self.truth.gamma_true) / self.truth.gamma_true
        eo = _wl2(self.grid, omega - self.omega_true) / _wl2(self.grid, self.omega_true)
        res = trace.residuals[trace.stop_index] / inv.data_norm(self.grid, y)
        if eg <= 0.02 and eo <= 0.05 and res <= 1e-6:
            return None
        return f"rel_err_gamma={eg:.3e} rel_err_omega={eo:.3e} residual={res:.3e}||y||"


# ----------------------------------------------------------------------
# sweep-noise-n100: the noise battery of criteria 8 and 9
# ----------------------------------------------------------------------


class SweepNoise:
    """experiments.sweep over noise levels 1 %, 5 %, 20 % on m2_default.

    Round r uses the r-th noise seed drawn from the benchmark seed, so rounds
    run as long as time allows.  Each level is its own sweep call, so that
    each sweep run is timed on its own, and each starts from a cleared sympy
    cache: truth manufacture is cached symbolic work, and without the clear
    later runs would reuse the earlier runs' symbolic results, run faster
    the longer the process lives, and stop being alike samples of one run.
    """

    LEVELS = (0.01, 0.05, 0.20)

    def setup(self, seed: int) -> list[str | None]:
        self.rng = np.random.default_rng(seed)
        self.noise_seeds: list[int] = []
        return []

    def noise_seed(self, round_index: int) -> int:
        while len(self.noise_seeds) <= round_index:
            self.noise_seeds.append(int(self.rng.integers(0, 2**31)))
        return self.noise_seeds[round_index]

    def operations(self, round_index: int):
        base = ex.ExperimentConfig(
            run_id=f"bench_r{round_index}", n=100, truth="m2_default",
            noise=ex.NoiseSpec(relative_level=0.0, seed=self.noise_seed(round_index)),
            iteration=inv.IterationConfig(max_iter=800, gamma_scale=3000.0),
        )
        for level in self.LEVELS:
            if "sympy" in sys.modules:
                sys.modules["sympy"].core.cache.clear_cache()
            run = lambda level=level: ex.sweep(base, "noise_levels", [level])
            yield "run", run, (lambda result, level=level: self.check(result, level))

    @staticmethod
    def check(result, level: float) -> str | None:
        """The sweep row has a record, stopped by discrepancy, with finite errors."""
        records, _ = result
        rec = records[0] if len(records) == 1 else None
        if rec is None:
            return f"noise {level}: no record"
        if rec.stop_reason != "discrepancy":
            return f"noise {level}: stopped by {rec.stop_reason}"
        if not (math.isfinite(rec.rel_err_gamma) and math.isfinite(rec.rel_err_omega)):
            return f"noise {level}: non-finite errors"
        return None


# ----------------------------------------------------------------------
# forward-n1600: forward, sensitivity and adjoint solves at n = 1600
# ----------------------------------------------------------------------


class ForwardN1600:
    """Per truth: a perturbed state, one sensitivity and one weighted-adjoint
    solve on the same factorization (one cone-probe or gradient-check sample)."""

    N = 1600
    TRUTHS = ("m0_default", "m2_default", "m3_default")
    # truth-point state against psi_exact: about 5x the measured relative
    # errors 1.0e-6 (m0), 1.3e-7 (m2), 2.0e-8 (m3)
    STATE_RTOL = {0: 5e-6, 2: 6e-7, 3: 1e-7}
    # <S u, v>_w against <u, S* v>_w: measured at most 3e-8 (m0), 3e-9 (m2, m3)
    PAIRING_RTOL = 1e-6

    def setup(self, seed: int) -> list[str | None]:
        """Verdicts of the set-up checks: each truth-point state against psi_exact."""
        self.seed = seed
        truths = [ex.manufacture_truth(name) for name in self.TRUTHS]
        grid = gr.build_grid(self.N, truths[0].r)
        stencils = gr.build_stencils(grid)
        self.grid, self.stencils = grid, stencils
        self.cases = []
        verdicts = []
        for name, truth in zip(self.TRUTHS, truths):
            problem = inv.InverseProblem(
                grid=grid, stencils=stencils, m=truth.m, omega_freq=truth.omega_freq,
                source=truth.source(grid), scheme=inv.ObservationScheme(),
                omega_ref=truth.omega_ref,
            )
            omega_true = truth.omega_exact(grid).values
            _, psi = problem.state(truth.gamma_true, omega_true)
            self.cases.append((name, truth, problem, omega_true))
            exact = truth.psi_exact(grid).values
            err = _wl2(grid, psi.values - exact) / _wl2(grid, exact)
            ok = err <= self.STATE_RTOL[truth.m]
            verdicts.append(None if ok else f"{name}: truth-point state rel err {err:.3e}")
        return verdicts

    def operations(self, round_index: int):
        for k, (name, truth, problem, omega_true) in enumerate(self.cases):
            rng = np.random.default_rng([self.seed, round_index, k])
            grid = self.grid
            gamma = truth.gamma_true * (1.0 + 0.1 * rng.uniform(-1.0, 1.0))
            scale = 0.05 * max(float(np.max(np.abs(omega_true))), 1.0)
            omega = omega_true + scale * _smooth_profile(rng, grid)
            domega = _smooth_profile(rng, grid)
            domega -= np.sum(domega * grid.weights) / np.sum(grid.weights)
            dp = inv.GradientPair(
                dgamma=truth.gamma_true * rng.standard_normal(), domega=gr.ScalarField(values=domega)
            )
            v = rng.standard_normal(grid.n) + 1j * rng.standard_normal(grid.n)

            def run(problem=problem, gamma=gamma, omega=omega, dp=dp, v=v):
                system, psi = problem.state(gamma, omega)
                sens = inv.sensitivity(dp, psi, system, grid, self.stencils, problem.scheme)
                z = system.solve_weighted_adjoint(v, grid.weights)
                return psi, sens, z

            yield name, run, (lambda out, m=truth.m, dp=dp, v=v: self.check(out, m, dp, v))

    def check(self, out, m, dp, v) -> str | None:
        """Forward/adjoint pairing <S u, v>_w = <u, S* v>_w with u = -B'(dp) psi."""
        psi, sens, z = out
        w = self.grid.weights
        u = -op.apply_B_prime(dp.dgamma, dp.domega, psi, self.grid, self.stencils, m).values
        lhs = complex(np.sum(sens.values * np.conj(v) * w))
        rhs = complex(np.sum(u * np.conj(z) * w))
        mismatch = abs(lhs - rhs) / max(abs(lhs), 1e-300)
        if mismatch <= self.PAIRING_RTOL:
            return None
        return f"pairing mismatch {mismatch:.3e}"


WORKLOADS = {
    "recon-clean-n100": ReconClean,
    "sweep-noise-n100": SweepNoise,
    "forward-n1600": ForwardN1600,
}


def run_round(workload, round_index: int, outcome: Outcome, tracer=None) -> list:
    """Run one round of operations and check them; returns (label, wall
    seconds) of each operation, checks excluded.  A tracer records nothing
    while the checks run."""
    times = []
    for label, run, check in workload.operations(round_index):
        op_id = f"r{round_index}:{len(times)}:{label}"
        if tracer is not None:
            tracer.op = op_id
        t0 = time.perf_counter()
        try:
            result = run()
        except Exception as exc:  # an operation that raises counts as failed
            times.append((label, time.perf_counter() - t0))
            outcome.record(op_id, f"raised {type(exc).__name__}: {exc}")
            continue
        times.append((label, time.perf_counter() - t0))
        with tracer.paused() if tracer is not None else contextlib.nullcontext():
            try:
                verdict = check(result)
            except Exception as exc:  # a check that cannot evaluate the output fails it
                verdict = f"check raised {type(exc).__name__}: {exc}"
        outcome.record(op_id, verdict)
    return times
