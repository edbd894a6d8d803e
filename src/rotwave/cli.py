"""Command-line interface.

Subcommands: forward, reconstruct, adjoint-check, gradient-check, tcc,
sweep, grid-convergence.  Every run echoes its fully-resolved config into
the output directory; nonzero exits leave a machine-readable error.json
there.  Exit codes: 0 success, 2 configuration error, 3 numerical failure.

Configs are JSON documents mirroring ExperimentConfig; flags are sugar via
dotted-key overrides (`--overrides iteration.max_iter=50,noise.seed=3`).  The
output directory resolves from --output-dir, then the config, then the
ROTWAVE_OUTPUT_DIR environment variable, then ./rotwave_out.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import sys
from dataclasses import replace

import numpy as np

from .checks import adjoint_identity_mismatch, gradient_fd_mismatch, tcc_probe
from .errors import ConfigurationError, NearResonanceError
from .experiments import (
    ExperimentConfig,
    apply_overrides,
    build_problem,
    csv_text,
    run_experiment,
    sweep,
)
from .grid import weighted_norm
from .inversion import ParameterMetric


def _parse_value(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


def _read_config(args):
    """The raw JSON document named by --config, or None without one."""
    if not args.config:
        return None
    path = pathlib.Path(args.config)
    try:
        return json.loads(path.read_text())
    except OSError as exc:
        raise ConfigurationError(f"cannot read config file {path}: {exc}") from exc
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
        raise ConfigurationError(f"config file {path} is not valid JSON: {exc}") from exc


def _load_config(args, doc) -> ExperimentConfig:
    config = ExperimentConfig() if doc is None else ExperimentConfig.from_dict(doc)
    if args.overrides:
        pairs = {}
        for chunk in args.overrides.split(","):
            if "=" not in chunk:
                raise ConfigurationError(f"override {chunk!r} is not key=value")
            key, _, value = chunk.partition("=")
            pairs[key.strip()] = _parse_value(value.strip())
        config = apply_overrides(config, pairs)
    return config


def _output_dir(args, config_dir=None) -> pathlib.Path:
    # config_dir may come from a document that has not validated yet
    return pathlib.Path(
        args.output_dir
        or (config_dir if isinstance(config_dir, str) else None)
        or os.environ.get("ROTWAVE_OUTPUT_DIR")
        or "rotwave_out"
    )


def _echo_config(config: ExperimentConfig, outdir: pathlib.Path) -> ExperimentConfig:
    config = replace(config, output_dir=str(outdir))
    try:
        outdir.mkdir(parents=True, exist_ok=True)
        (outdir / "config.json").write_text(config.to_json())
    except OSError as exc:
        raise ConfigurationError(f"cannot write output directory {outdir}: {exc}") from exc
    return config


def cmd_forward(args, config, outdir) -> int:
    truth, problem, psi, _ = build_problem(config)
    rows = [[th, v.real, v.imag] for th, v in zip(problem.grid.nodes, psi.values)]
    (outdir / "state.csv").write_text(csv_text("theta,re_psi,im_psi", rows))
    print(
        f"forward: n={config.n} (omega,m)=({truth.omega_freq:g},{truth.m}) "
        f"state written to {outdir/'state.csv'}"
    )
    return 0


def _counts(record) -> str:
    return f"state_solves={record.state_solves} gradients={record.gradients}"


def cmd_reconstruct(args, config, outdir) -> int:
    record = run_experiment(config)
    print(
        f"reconstruct: K={record.stop_index} ({record.stop_reason}) "
        f"residual={record.final_residual:.3e} "
        f"rel_err_gamma={record.rel_err_gamma:.3e} "
        f"rel_err_omega={record.rel_err_omega:.3e}"
    )
    if args.verbose:
        print(f"reconstruct: {_counts(record)}")
    return 0


def _check_trials(args) -> None:
    # a check over zero trials would pass without checking anything
    if args.trials < 1:
        raise ConfigurationError(f"--trials must be at least 1, got {args.trials}")


def _report_check(args, outdir, check: str, worst: float, bound: float) -> int:
    """Write the check's worst mismatch to <command>.json (adjoint_check.json,
    gradient_check.json).  Exit code 0 when it is within its bound;
    otherwise a numerical failure, which `main` reports with exit code 3 and
    an error.json."""
    (outdir / f"{args.command.replace('-', '_')}.json").write_text(
        json.dumps({"max_relative_mismatch": worst, "trials": args.trials})
    )
    if not worst <= bound:  # a NaN mismatch fails too
        raise ArithmeticError(f"{check} mismatch {worst:.3e} exceeds its bound {bound:g}")
    return 0


def _probe_setup(config):
    """Truth, problem and clean data of `config`, and the parameter metric
    of its iteration's gamma_scale: what each probe command runs on."""
    truth, problem, _, y = build_problem(config)
    gamma_scale = config.iteration.gamma_scale
    metric = ParameterMetric(problem.stencils, gamma_scale=gamma_scale)
    return truth, problem, y, metric


def cmd_adjoint_check(args, config, outdir) -> int:
    _check_trials(args)
    truth, problem, _, metric = _probe_setup(config)
    rng = np.random.default_rng(config.noise.seed)
    omega = truth.omega_exact(problem.grid).values
    worst = adjoint_identity_mismatch(problem, metric, truth.gamma_true, omega, rng, args.trials)
    print(f"adjoint-check: max relative mismatch {worst:.3e} over {args.trials} trials")
    return _report_check(args, outdir, "adjoint identity", worst, 1e-10)


def cmd_gradient_check(args, config, outdir) -> int:
    _check_trials(args)
    truth, problem, y, metric = _probe_setup(config)
    gamma0 = truth.gamma_true * 1.7
    omega0 = 0.5 * truth.omega_exact(problem.grid).values
    rng = np.random.default_rng(config.noise.seed)
    worst = gradient_fd_mismatch(problem, metric, gamma0, omega0, y, rng, args.trials)
    print(f"gradient-check: max relative FD mismatch {worst:.3e} over {args.trials} trials")
    return _report_check(args, outdir, "finite-difference gradient", worst, 1e-6)


def cmd_tcc(args, config, outdir) -> int:
    truth, problem, _, metric = _probe_setup(config)
    report = tcc_probe(
        problem,
        metric,
        truth.gamma_true,
        truth.omega_exact(problem.grid).values,
        radius=config.probe.radius,
        n_samples=config.probe.samples,
        rng_seed=config.noise.seed,
    )
    (outdir / "tcc_ratios.csv").write_text(csv_text("sample,ratio", enumerate(report.ratios)))
    print(
        f"tcc: radius={report.radius:g} samples={report.samples} "
        f"max={report.max_ratio:.4f} median={report.median_ratio:.4f} "
        f"skipped={report.skipped}"
    )
    return 0


def cmd_sweep(args, config, outdir) -> int:
    # a JSON array or object (one scheme), or comma-separated values
    values = _parse_value(args.values)
    values = [values] if isinstance(values, dict) else values
    if not isinstance(values, list):
        values = [_parse_value(v) for v in args.values.split(",")] if args.values else []
    records, summary = sweep(config, args.axis, values)
    (outdir / "sweep_summary.csv").write_text(summary)
    if args.verbose:
        for record in records:
            if record is not None:
                print(f"sweep: {record.config['run_id']} K={record.stop_index} {_counts(record)}")
    done = sum(1 for r in records if r is not None)
    print(f"sweep: {done}/{len(records)} runs complete, summary at {outdir/'sweep_summary.csv'}")
    return 0


def _parse_sizes(text: str) -> list[int]:
    try:
        sizes = [int(v) for v in text.split(",")]
    except ValueError as exc:
        raise ConfigurationError(f"--sizes must be comma-separated integers, got {text!r}") from exc
    # an observed order needs two distinct sizes
    if len(set(sizes)) < 2:
        raise ConfigurationError(f"--sizes needs at least two distinct grid sizes, got {text!r}")
    return sizes


def cmd_grid_convergence(args, config, outdir) -> int:
    sizes = _parse_sizes(args.sizes)
    errors = []
    for n in sizes:
        truth, problem, psi, _ = build_problem(replace(config, n=n))
        ref = truth.psi_exact(problem.grid)
        w = problem.grid.weights
        errors.append(weighted_norm(w, psi.values - ref.values) / weighted_norm(w, ref.values))
    (outdir / "grid_convergence.csv").write_text(csv_text("n,rel_l2_error", zip(sizes, errors)))
    # one order per refinement step: a single fit through every size lets a
    # roundoff-polluted point decide the order of the whole study
    by_n = sorted(dict(zip(sizes, errors)).items())
    orders = [
        f"{n0}->{n1} {np.log(e0 / e1) / np.log(n1 / n0):.2f}"
        for (n0, e0), (n1, e1) in zip(by_n, by_n[1:])
    ]
    print(
        f"grid-convergence: errors {['%.3e' % e for e in errors]} "
        f"observed order {', '.join(orders)}"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rotwave",
        description="Separated inertial-wave solves and rotation/viscosity recovery.",
    )
    verbose_help = "print the reconstruction loop's state-solve and gradient counts"
    parser.add_argument("-v", "--verbose", action="count", default=0, help=verbose_help)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        # after the subcommand too; SUPPRESS keeps a -v given before it
        p.add_argument(
            "-v", "--verbose", action="count", default=argparse.SUPPRESS, help=verbose_help
        )
        p.add_argument("--config", help="JSON config path")
        p.add_argument("--overrides", help="comma-separated dotted-key=value pairs")
        p.add_argument("--output-dir", help="output directory")

    common(sub.add_parser("forward", help="solve the forward problem, write state.csv"))
    common(sub.add_parser("reconstruct", help="run a reconstruction experiment"))
    p = sub.add_parser("adjoint-check", help="verify the discrete adjoint identity")
    common(p)
    p.add_argument("--trials", type=int, default=20)
    p = sub.add_parser("gradient-check", help="verify gradients against finite differences")
    common(p)
    p.add_argument("--trials", type=int, default=5)
    common(sub.add_parser("tcc", help="sample the tangential-cone ratio"))
    p = sub.add_parser("sweep", help="run experiments along one axis")
    common(p)
    p.add_argument("--axis", default="noise_levels")
    p.add_argument("--values", default="0.01,0.05,0.2", help="comma-separated, or JSON")
    p = sub.add_parser("grid-convergence", help="manufactured-solution convergence study")
    common(p)
    p.add_argument("--sizes", default="50,100,200,400")
    return parser


_COMMANDS = {
    "forward": cmd_forward,
    "reconstruct": cmd_reconstruct,
    "adjoint-check": cmd_adjoint_check,
    "gradient-check": cmd_gradient_check,
    "tcc": cmd_tcc,
    "sweep": cmd_sweep,
    "grid-convergence": cmd_grid_convergence,
}


def _write_error(outdir: pathlib.Path, kind: str, message: str) -> None:
    try:
        outdir.mkdir(parents=True, exist_ok=True)
        (outdir / "error.json").write_text(
            json.dumps({"error": kind, "message": message})
        )
    except OSError as exc:
        print(f"could not write error.json to {outdir}: {exc}", file=sys.stderr)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    outdir = _output_dir(args)  # until the config file has been read
    try:
        doc = _read_config(args)
        if isinstance(doc, dict):
            # so error.json lands beside config.json if validation fails
            outdir = _output_dir(args, doc.get("output_dir"))
        config = _load_config(args, doc)
        outdir = _output_dir(args, config.output_dir)
        config = _echo_config(config, outdir)
        return _COMMANDS[args.command](args, config, outdir)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        _write_error(outdir, "configuration", str(exc))
        return 2
    except (NearResonanceError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        _write_error(outdir, "numerical", str(exc))
        return 3


if __name__ == "__main__":
    sys.exit(main())
