import csv
import json
import math
import pathlib
import shlex

import pytest

from rotwave import ExperimentConfig, ObservationScheme, cli
from rotwave.cli import main


def write_config(tmp_path, **kw):
    doc = {
        "run_id": "clitest",
        "n": 64,
        "truth": "m2_default",
        "iteration": {"max_iter": 20, "gamma_scale": 3000.0},
    }
    doc.update(kw)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_forward_writes_state(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["forward", "--config", cfg, "--output-dir", str(out)]) == 0
    lines = (out / "state.csv").read_text().splitlines()
    assert lines[0] == "theta,re_psi,im_psi"
    assert len(lines) == 65
    assert (out / "config.json").exists()


def test_forward_round_trip_reproduces(tmp_path):
    cfg = write_config(tmp_path)
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["forward", "--config", cfg, "--output-dir", str(out1)]) == 0
    # re-run from the echoed config: byte-identical state
    assert main(["forward", "--config", str(out1 / "config.json"), "--output-dir", str(out2)]) == 0
    assert (out1 / "state.csv").read_text() == (out2 / "state.csv").read_text()


def test_reconstruct_writes_record(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "rec"
    assert main(["reconstruct", "--config", cfg, "--output-dir", str(out)]) == 0
    record = json.loads((out / "clitest_record.json").read_text())
    assert "rel_err_gamma" in record
    assert (out / "clitest_iterations.csv").exists()
    assert "reconstruct:" in capsys.readouterr().out


def test_adjoint_check_passes(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "adj"
    code = main(
        ["adjoint-check", "--config", cfg, "--output-dir", str(out), "--trials", "5"]
    )
    assert code == 0
    report = json.loads((out / "adjoint_check.json").read_text())
    assert report["max_relative_mismatch"] <= 1e-10


def test_gradient_check_passes(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "grad"
    code = main(
        ["gradient-check", "--config", cfg, "--output-dir", str(out), "--trials", "3"]
    )
    assert code == 0


def test_tcc_writes_samples(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "tcc"
    code = main(
        [
            "tcc",
            "--config",
            cfg,
            "--output-dir",
            str(out),
            "--overrides",
            "probe.samples=6,probe.radius=0.05",
        ]
    )
    assert code == 0
    lines = (out / "tcc_ratios.csv").read_text().splitlines()
    assert lines[0] == "sample,ratio"
    assert len(lines) == 7


def test_sweep_cli(tmp_path):
    cfg = write_config(tmp_path, iteration={"max_iter": 10, "gamma_scale": 3000.0})
    out = tmp_path / "sweep"
    code = main(
        [
            "sweep",
            "--config",
            cfg,
            "--output-dir",
            str(out),
            "--axis",
            "noise_levels",
            "--values",
            "0.05,0.2",
        ]
    )
    assert code == 0
    assert (out / "sweep_summary.csv").exists()


def test_verbose_prints_the_loop_counts(tmp_path, capsys):
    # -v after the subcommand or before it; without it no counts are printed
    cfg = write_config(tmp_path)
    rec = tmp_path / "rec"
    assert main(["reconstruct", "-v", "--config", cfg, "--output-dir", str(rec)]) == 0
    record = json.loads((rec / "clitest_record.json").read_text())
    assert record["state_solves"] > record["gradients"] > 0
    counts = f"state_solves={record['state_solves']} gradients={record['gradients']}"
    assert counts in capsys.readouterr().out

    sweep = ["sweep", "--config", cfg, "--values", "0.05,0.2", "--output-dir"]
    assert main(["-v", *sweep, str(tmp_path / "s1")]) == 0
    lines = [line for line in capsys.readouterr().out.splitlines() if "state_solves=" in line]
    assert [line.split()[1] for line in lines] == [
        "clitest_noise_levels_0",
        "clitest_noise_levels_1",
    ]
    assert main([*sweep, str(tmp_path / "s2")]) == 0
    assert "state_solves=" not in capsys.readouterr().out


def test_grid_convergence_cli(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "conv"
    code = main(
        ["grid-convergence", "--config", cfg, "--output-dir", str(out), "--sizes", "32,64"]
    )
    assert code == 0
    assert (out / "grid_convergence.csv").exists()
    assert "observed order" in capsys.readouterr().out


def test_bad_config_exits_2_with_error_json(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"n": 64, "bogus_key": 1}))
    out = tmp_path / "err"
    code = main(["forward", "--config", str(path), "--output-dir", str(out)])
    assert code == 2
    err = json.loads((out / "error.json").read_text())
    assert err["error"] == "configuration"


def test_bad_override_exits_2(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "err2"
    code = main(
        ["forward", "--config", cfg, "--overrides", "bogus.path=3", "--output-dir", str(out)]
    )
    assert code == 2


def test_overrides_change_behavior(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "ovr"
    code = main(
        [
            "forward",
            "--config",
            cfg,
            "--overrides",
            "n=32",
            "--output-dir",
            str(out),
        ]
    )
    assert code == 0
    assert len((out / "state.csv").read_text().splitlines()) == 33
    echoed = json.loads((out / "config.json").read_text())
    assert echoed["n"] == 32


def test_tcc_dotted_probe_overrides(tmp_path):
    # probe settings live in the config and respond to dotted overrides
    cfg = write_config(tmp_path)
    out = tmp_path / "tcc_ovr"
    code = main(
        [
            "tcc",
            "--config",
            cfg,
            "--overrides",
            "probe.radius=0.05,probe.samples=4",
            "--output-dir",
            str(out),
        ]
    )
    assert code == 0
    lines = (out / "tcc_ratios.csv").read_text().splitlines()
    assert len(lines) == 5
    echoed = json.loads((out / "config.json").read_text())
    assert echoed["probe"] == {"radius": 0.05, "samples": 4}


def test_error_json_beside_config_from_config_output_dir(tmp_path, monkeypatch):
    # the output directory comes from the config file alone: error.json must
    # land beside the echoed config.json, not in ./rotwave_out
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("ROTWAVE_OUTPUT_DIR", raising=False)
    out = tmp_path / "from_config"
    cfg = write_config(tmp_path, output_dir=str(out))
    code = main(["tcc", "--config", cfg, "--overrides", "probe.radius=-1"])
    assert code == 2
    assert (out / "config.json").exists()
    err = json.loads((out / "error.json").read_text())
    assert err["error"] == "configuration"
    assert not (tmp_path / "rotwave_out").exists()


def test_error_json_beside_config_when_config_fails_to_validate(tmp_path, monkeypatch):
    # a config that fails to validate still names the output directory
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("ROTWAVE_OUTPUT_DIR", raising=False)
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"n": "abc", "output_dir": "from_config"}))
    assert main(["forward", "--config", str(path)]) == 2
    err = json.loads((tmp_path / "from_config" / "error.json").read_text())
    assert err["error"] == "configuration"
    assert not (tmp_path / "rotwave_out").exists()


def test_unwritable_error_json_is_reported(tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("a file, not a directory")
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"n": 64, "bogus_key": 1}))
    code = main(["forward", "--config", str(path), "--output-dir", str(blocker / "out")])
    assert code == 2
    assert "could not write error.json" in capsys.readouterr().err


@pytest.mark.parametrize("content", ["{bad", None], ids=["malformed", "missing"])
def test_unreadable_config_file_exits_2(tmp_path, capsys, content):
    path = tmp_path / "bad.json"
    if content is not None:
        path.write_text(content)
    out = tmp_path / "err"
    code = main(["forward", "--config", str(path), "--output-dir", str(out)])
    assert code == 2
    err = json.loads((out / "error.json").read_text())
    assert err["error"] == "configuration"
    assert str(path) in err["message"]
    assert "configuration error" in capsys.readouterr().err


def test_uncreatable_output_dir_exits_2(tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("a file, not a directory")
    cfg = write_config(tmp_path)
    code = main(["forward", "--config", cfg, "--output-dir", str(blocker / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and str(blocker / "out") in err
    assert "could not write error.json" in err


@pytest.mark.parametrize("command", ["adjoint-check", "gradient-check"])
def test_check_with_zero_trials_exits_2(tmp_path, command):
    # a check that ran no trial must not report a pass
    cfg = write_config(tmp_path)
    out = tmp_path / "zero"
    code = main([command, "--config", cfg, "--output-dir", str(out), "--trials", "0"])
    assert code == 2
    assert json.loads((out / "error.json").read_text())["error"] == "configuration"


@pytest.mark.parametrize(
    "command, check, bound",
    [
        ("adjoint-check", "adjoint_identity_mismatch", "1e-10"),
        ("gradient-check", "gradient_fd_mismatch", "1e-06"),
    ],
)
def test_failing_check_exits_3_with_error_json(tmp_path, monkeypatch, command, check, bound):
    monkeypatch.setattr(cli, check, lambda *args: 0.5)
    cfg = write_config(tmp_path)
    out = tmp_path / "failing"
    code = main([command, "--config", cfg, "--output-dir", str(out), "--trials", "1"])
    assert code == 3
    error = json.loads((out / "error.json").read_text())
    assert error["error"] == "numerical"
    assert "5.000e-01" in error["message"] and bound in error["message"]


@pytest.mark.parametrize("sizes", ["50,abc", "", "50", "50,50"])
def test_grid_convergence_needs_two_distinct_sizes(tmp_path, sizes):
    cfg = write_config(tmp_path)
    out = tmp_path / "conv_bad"
    code = main(["grid-convergence", "--config", cfg, "--output-dir", str(out), "--sizes", sizes])
    assert code == 2
    assert json.loads((out / "error.json").read_text())["error"] == "configuration"


@pytest.mark.parametrize(
    "override", ["n=abc", "n=20.5", "iteration.max_iter=abc", "scheme.real_part_only=1"]
)
def test_mistyped_override_exits_2(tmp_path, override):
    cfg = write_config(tmp_path)
    out = tmp_path / "typed"
    code = main(["forward", "--config", cfg, "--overrides", override, "--output-dir", str(out)])
    assert code == 2
    err = json.loads((out / "error.json").read_text())
    assert err["error"] == "configuration"
    assert f"config.{override.partition('=')[0]}" in err["message"]


@pytest.mark.parametrize("key,value", [("m", "abc"), ("gamma_true", "x"), ("psi_coeffs", [1])])
def test_mistyped_truth_override_exits_2(tmp_path, key, value):
    cfg = write_config(tmp_path, truth_overrides={key: value})
    out = tmp_path / "truth_typed"
    assert main(["forward", "--config", cfg, "--output-dir", str(out)]) == 2
    err = json.loads((out / "error.json").read_text())
    assert err["error"] == "configuration"
    assert f"truth_overrides.{key}" in err["message"]


@pytest.mark.parametrize(
    "command,override",
    [
        ("reconstruct", "iteration.gamma_scale=NaN"),
        ("reconstruct", "iteration.residual_floor=Infinity"),
        ("reconstruct", "truth_overrides.gamma_true=NaN"),
        ("forward", "truth_overrides.amplitude=NaN"),
        ("forward", "truth_overrides.omega_coeffs.b=Infinity"),
        ("forward", "truth_overrides.psi_coeffs.b=-Infinity"),
    ],
)
def test_non_finite_value_exits_2(tmp_path, command, override):
    # json.loads parses NaN and Infinity; a NaN amplitude used to write a
    # state of NaN
    cfg = write_config(tmp_path, iteration={"max_iter": 3, "gamma_scale": 3000.0})
    out = tmp_path / "nonfinite"
    code = main([command, "--config", cfg, "--overrides", override, "--output-dir", str(out)])
    assert code == 2
    err = json.loads((out / "error.json").read_text())
    assert err["error"] == "configuration"
    assert override.partition("=")[0].removeprefix("truth_overrides.") in err["message"]
    assert "finite" in err["message"]


@pytest.mark.parametrize(
    "argv", [["reconstruct"], ["grid-convergence", "--sizes", "16,32"]], ids=lambda a: a[0]
)
def test_zero_amplitude_truth_exits_2(tmp_path, argv):
    # psi* = 0 gives y = 0: reconstruct used to stop at K = 0 with residual 0,
    # grid-convergence to divide by ||psi*|| = 0
    cfg = write_config(tmp_path)
    out = tmp_path / "zero_amp"
    overrides = ["--overrides", "truth_overrides.amplitude=0"]
    assert main([*argv, "--config", cfg, *overrides, "--output-dir", str(out)]) == 2
    err = json.loads((out / "error.json").read_text())
    assert err["error"] == "configuration" and "amplitude" in err["message"]


def test_zero_rotation_reconstruction_reports_nan_omega_error(tmp_path, capsys):
    # Omega* = 0 (solar_like with b = 0) is a valid experiment; its relative
    # Omega error is undefined, so it reads NaN instead of dividing by zero
    cfg = write_config(tmp_path, truth="m3_default")
    out = tmp_path / "zero_rot"
    argv = ["--config", cfg, "--overrides", "truth_overrides.omega_coeffs.b=0"]
    assert main(["reconstruct", *argv, "--output-dir", str(out)]) == 0
    record = json.loads((out / "clitest_record.json").read_text())
    assert math.isnan(record["rel_err_omega"]) and math.isfinite(record["rel_err_gamma"])
    with open(out / "clitest_iterations.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == record["stop_index"] + 1
    assert all(math.isnan(float(row["rel_err_omega"])) for row in rows)
    assert main(["sweep", *argv, "--output-dir", str(out / "sweep"), "--values", "0.05"]) == 0
    rows = (out / "sweep" / "sweep_summary.csv").read_text().splitlines()[1:]
    assert len(rows) == 1 and "error" not in rows[0] and rows[0].split(",")[7] == "nan"


def test_m0_reconstruction_reports_omega_as_not_identified(tmp_path):
    # at m = 0 Omega does not enter B, so the data cannot see it: the record
    # says so with a NaN Omega error instead of 1.0, which read as a failed
    # run, and gamma is fitted as before (K = 13 in 47 state solves)
    out = tmp_path / "m0"
    assert main(["reconstruct", "--overrides", "truth=m0_default", "--output-dir", str(out)]) == 0
    record = json.loads((out / "run_record.json").read_text())
    assert math.isnan(record["rel_err_omega"]) and math.isfinite(record["rel_err_gamma"])
    assert record["rel_err_gamma"] < 1e-7
    assert (record["stop_index"], record["state_solves"]) == (13, 47)


def test_unread_truth_coefficient_exits_2(tmp_path):
    cfg = write_config(tmp_path, truth_overrides={"psi_coeffs": {"bb": 5.0}})
    out = tmp_path / "truth_coeffs"
    assert main(["forward", "--config", cfg, "--output-dir", str(out)]) == 2
    err = json.loads((out / "error.json").read_text())
    assert err["error"] == "configuration" and "'bb'" in err["message"]


def test_negative_max_iter_exits_2(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "max_iter"
    overrides = ["--overrides", "iteration.max_iter=-3"]
    assert main(["reconstruct", "--config", cfg, "--output-dir", str(out), *overrides]) == 2
    err = json.loads((out / "error.json").read_text())
    assert err["error"] == "configuration" and "max_iter" in err["message"]


def test_override_sets_truth_fields(tmp_path):
    # the default truth_overrides is {}: its keys, nested ones too, are created
    out = tmp_path / "truth_set"
    overrides = "n=16,truth_overrides.gamma_true=0.1,truth_overrides.psi_coeffs.b=2"
    assert main(["forward", "--overrides", overrides, "--output-dir", str(out)]) == 0
    echoed = json.loads((out / "config.json").read_text())["truth_overrides"]
    assert echoed == {"gamma_true": 0.1, "psi_coeffs": {"b": 2}}


def test_override_of_unknown_truth_field_exits_2(tmp_path):
    out = tmp_path / "truth_nope"
    assert main(["forward", "--overrides", "truth_overrides.nope=1", "--output-dir", str(out)]) == 2
    err = json.loads((out / "error.json").read_text())
    assert err["error"] == "configuration" and "'nope'" in err["message"]


@pytest.mark.parametrize(
    "key,value",
    [
        ("allow_negative_gamma", True),
        ("gamma_init_scale", 3.0),
        ("residual_floor_rel", 1e-6),
        ("iteration.tau", 1.5),
        ("iteration.parameter_metric", "H1"),
    ],
)
def test_removed_start_settings_are_unknown_keys(tmp_path, key, value):
    # the start is (3 gamma*, 0), gamma > 0 always, and tau, the H2 metric
    # and the relative floor are constants: none of them is a setting
    section, _, name = key.rpartition(".")
    iteration = {"max_iter": 20, "gamma_scale": 3000.0, name: value}
    cfg = write_config(tmp_path, **({section: iteration} if section else {key: value}))
    out = tmp_path / "removed"
    assert main(["reconstruct", "--config", cfg, "--output-dir", str(out)]) == 2
    err = json.loads((out / "error.json").read_text())
    assert err["error"] == "configuration"
    path = f"config.{section}" if section else "config"
    assert f"unknown keys in {path}: ['{name}']" in err["message"]
    code = main(["reconstruct", "--overrides", f"{key}=1.5", "--output-dir", str(out)])
    assert code == 2
    assert f"unknown override path {key!r}" in (out / "error.json").read_text()


def test_sweep_takes_a_json_array_of_schemes(tmp_path):
    # comma splitting would cut a scheme with more than one key apart
    cfg = write_config(tmp_path, n=32, iteration={"max_iter": 3, "gamma_scale": 3000.0})
    out = tmp_path / "sweep_schemes"
    schemes = '[{"kind": "restricted", "epsilon": 0.3}, {"kind": "full", "real_part_only": true}]'
    argv = ["--axis", "schemes", "--values", schemes]
    assert main(["sweep", "--config", cfg, "--output-dir", str(out), *argv]) == 0
    rows = [r.split(",") for r in (out / "sweep_summary.csv").read_text().splitlines()[1:]]
    assert [(r[2], r[3]) for r in rows] == [("0.3", "restricted"), ("0.0", "full+re")]


def test_sweep_takes_one_json_object_as_one_scheme(tmp_path, capsys):
    # comma splitting used to cut it into two "must be an object" rows
    cfg = write_config(tmp_path, n=32, iteration={"max_iter": 3, "gamma_scale": 3000.0})
    out = tmp_path / "sweep_scheme"
    argv = ["--axis", "schemes", "--values", '{"kind":"restricted","epsilon":0.3}']
    assert main(["sweep", "--config", cfg, "--output-dir", str(out), *argv]) == 0
    assert "1/1 runs complete" in capsys.readouterr().out
    rows = [r.split(",") for r in (out / "sweep_summary.csv").read_text().splitlines()[1:]]
    assert [(r[2], r[3]) for r in rows] == [("0.3", "restricted")]


def test_sweep_with_no_values_exits_2(tmp_path):
    # a sweep that ran nothing must not report a pass
    cfg = write_config(tmp_path)
    out = tmp_path / "sweep_empty"
    assert main(["sweep", "--config", cfg, "--output-dir", str(out), "--values", ""]) == 2
    assert json.loads((out / "error.json").read_text())["error"] == "configuration"


@pytest.mark.parametrize("axis,values", [("noise_levels", "abc,1.5"), ("schemes", "1")])
def test_sweep_records_unusable_values(tmp_path, axis, values):
    cfg = write_config(tmp_path)
    out = tmp_path / "sweep_bad"
    code = main(
        ["sweep", "--config", cfg, "--output-dir", str(out), "--axis", axis, "--values", values]
    )
    assert code == 0
    rows = (out / "sweep_summary.csv").read_text().splitlines()[1:]
    assert len(rows) == len(values.split(","))
    assert all("error: ConfigurationError" in row for row in rows)


def test_empty_observation_window_exits_2(tmp_path):
    # epsilon = 1.5 leaves no node of the n = 16 grid in the window
    cfg = write_config(tmp_path, n=16)
    out = tmp_path / "empty_window"
    overrides = ["--overrides", "scheme.kind=restricted,scheme.epsilon=1.5"]
    assert main(["reconstruct", "--config", cfg, "--output-dir", str(out), *overrides]) == 2
    err = json.loads((out / "error.json").read_text())
    assert err["error"] == "configuration" and "holds no node" in err["message"]
    sweep = ["--axis", "epsilon_values", "--values", "0.3,1.5"]
    assert main(["sweep", "--config", cfg, "--output-dir", str(out), *sweep]) == 0
    rows = (out / "sweep_summary.csv").read_text().splitlines()[1:]
    assert "error" not in rows[0]
    assert "error: ConfigurationError" in rows[1] and "holds no node" in rows[1]


@pytest.mark.parametrize("command", ["reconstruct", "adjoint-check"])
def test_negative_noise_seed_exits_2(tmp_path, command):
    cfg = write_config(tmp_path)
    out = tmp_path / "seed"
    code = main([command, "--config", cfg, "--output-dir", str(out), "--overrides", "noise.seed=-1"])
    assert code == 2
    err = json.loads((out / "error.json").read_text())
    assert err["error"] == "configuration" and "noise seed" in err["message"]


def _numeric_cells(path):
    # every column but the identifiers and the scheme label must parse
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert rows, path
    return [v for row in rows for k, v in row.items() if k not in ("run_id", "scheme")]


def test_every_csv_cell_parses_as_a_number(tmp_path):
    cfg = write_config(tmp_path, iteration={"max_iter": 5, "gamma_scale": 3000.0})
    out = tmp_path / "csv"
    common = ["--config", cfg, "--output-dir", str(out)]
    assert main(["forward", *common]) == 0
    assert main(["reconstruct", *common]) == 0
    assert main(["tcc", *common, "--overrides", "probe.samples=3,probe.radius=0.05"]) == 0
    assert main(["sweep", *common, "--values", "0.05,0.2"]) == 0
    assert main(["grid-convergence", *common, "--sizes", "32,64"]) == 0
    written = sorted(p.name for p in out.glob("*.csv"))
    assert written == [
        "clitest_iterations.csv",
        "clitest_noise_levels_0_iterations.csv",
        "clitest_noise_levels_1_iterations.csv",
        "grid_convergence.csv",
        "state.csv",
        "sweep_summary.csv",
        "tcc_ratios.csv",
    ]
    for name in written:
        for cell in _numeric_cells(out / name):
            float(cell)


def test_grid_convergence_prints_each_refinement_order(tmp_path, capsys):
    cfg = write_config(tmp_path, truth="m3_default")
    out = tmp_path / "orders"
    argv = ["grid-convergence", "--config", cfg, "--output-dir", str(out), "--sizes", "50,100,200"]
    assert main(argv) == 0
    printed = capsys.readouterr().out.split("observed order ")[1]
    orders = dict(item.split() for item in printed.strip().split(", "))
    assert list(orders) == ["50->100", "100->200"]
    rows = csv.DictReader((out / "grid_convergence.csv").read_text().splitlines())
    errors = [float(r["rel_l2_error"]) for r in rows]
    for (key, order), e0, e1 in zip(orders.items(), errors, errors[1:]):
        assert float(order) == pytest.approx(math.log2(e0 / e1), abs=0.005)
        assert float(order) >= 3.5, key  # the operator is fourth order


README = pathlib.Path(__file__).resolve().parents[1] / "README.md"
STUDIES = [
    shlex.split(line)
    for line in README.read_text().splitlines()
    if line.startswith("rotwave ") and "configs/" in line
]


def test_study_configs_load_and_are_named_in_readme():
    configs = sorted(README.parent.glob("configs/*.json"))
    assert configs
    named = {argv[argv.index("--config") + 1] for argv in STUDIES}
    for path in configs:
        ExperimentConfig.from_dict(json.loads(path.read_text()))
        assert f"configs/{path.name}" in named, path.name


@pytest.mark.parametrize("argv", STUDIES, ids=[a[a.index("--output-dir") + 1] for a in STUDIES])
def test_study_command_runs(tmp_path, monkeypatch, argv):
    # the README line as written, at a small grid and few iterations/samples;
    # argparse keeps only the last --overrides, so the line's own are joined in
    monkeypatch.chdir(README.parent)
    argv = argv[1:]
    own = argv[argv.index("--overrides") + 1] if "--overrides" in argv else ""
    small = ",".join(filter(None, [own, "n=32,iteration.max_iter=5,probe.samples=3"]))
    out = tmp_path / "out"
    assert main([*argv, "--overrides", small, "--output-dir", str(out)]) == 0
    echoed = json.loads((out / "config.json").read_text())
    for pair in filter(None, own.split(",")):
        key, _, value = pair.partition("=")
        node = echoed
        for part in key.split("."):
            node = node[part]
        assert node == json.loads(value), key


def test_readme_config_schema_loads():
    block = README.read_text().split("### Config schema")[1].split("```json\n")[1]
    config = ExperimentConfig.from_json(block.split("```")[0])
    assert config.run_id == "clean33"
    assert config.scheme == ObservationScheme(kind="restricted", epsilon=0.314)
