import json

import numpy as np
import pytest

import spmlab.cli
import spmlab.config
from spmlab.cli import _COMMANDS, main
from spmlab.config import ExperimentConfig, default_config_dict
from spmlab.errors import ConfigError
from spmlab.monotone import Linear, PowerLaw, StefanPiecewise
from spmlab.noise import NoiseMode, NormalJumps, rng_for, sample_path


def deep_update(base: dict, patch: dict) -> dict:
    for key, value in patch.items():
        if isinstance(value, dict) and isinstance(base.get(key), dict):
            deep_update(base[key], value)
        else:
            base[key] = value
    return base


def write_config(tmp_path, name="cfg.json", **patch):
    data = deep_update(default_config_dict(), patch)
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def small_run(tmp_path, **patch):
    base = {
        "noise": {"T": 0.125, "dt": 0.015625},
        "run": {"n_paths": 20, "output_dir": str(tmp_path / "out")},
    }
    return write_config(tmp_path, **deep_update(base, patch))


def read_csv(path):
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# spmlab config_sha256=")
    header = lines[1].split(",")
    rows = [line.split(",") for line in lines[2:]]
    return header, rows


def test_simulate_additive_zero_noise_zero_datum(tmp_path):
    cfg = small_run(
        tmp_path,
        initial={"kind": "zero"},
        diffusion={"variant": "constant_additive",
                   "params": {"modes": [{"kind": "zero"}, {"kind": "zero"}]}},
    )
    assert main(["simulate-additive", "--config", cfg]) == 0
    header, rows = read_csv(tmp_path / "out" / "trajectory.csv")
    assert header == ["time", "node", "state", "selection"]
    states = np.array([float(r[2]) for r in rows])
    assert np.all(states == 0.0)


def test_simulate_additive_martingale_csv(tmp_path):
    cfg = small_run(tmp_path)
    assert main(["simulate-additive", "--config", cfg]) == 0
    header, rows = read_csv(tmp_path / "out" / "martingale.csv")
    assert header == ["time", "mode", "value", "is_jump"]
    assert any(r[3] == "true" for r in rows)
    exp = ExperimentConfig.load(cfg)
    path = sample_path(exp.noise_spec(), exp.horizon, exp.dt, rng_for(exp.master_seed, 0))
    n_modes, n_times = path.values.shape
    # mode-major rows; is_jump is true exactly at the recorded (index, mode) jumps
    jumps = set(zip(path.jump_indices.tolist(), path.jump_modes.tolist()))
    assert [(int(r[1]), float(r[0]), float(r[2])) for r in rows] == [
        (k, path.times[i], path.values[k, i]) for k in range(n_modes) for i in range(n_times)]
    assert [r[3] for r in rows] == ["true" if (i, k) in jumps else "false"
                                    for k in range(n_modes) for i in range(n_times)]
    # time-major rows in the trajectory
    header, rows = read_csv(tmp_path / "out" / "trajectory.csv")
    assert header == ["time", "node", "state", "selection"]
    n_nodes = exp.laplacian().n
    assert [(float(r[0]), int(r[1])) for r in rows] == [
        (t, node) for t in path.times for node in range(n_nodes)]


def test_lambda_sweep_monotone_column(tmp_path):
    cfg = small_run(tmp_path, sweep={"lambdas": [0.25, 0.125, 0.0625, 0.03125, 0.015625]})
    assert main(["lambda-sweep", "--config", cfg]) == 0
    header, rows = read_csv(tmp_path / "out" / "sweep.csv")
    assert header[0] == "lambda" and header[1] == "sup_diff_prev"
    assert rows[0][1] == ""
    diffs = [float(r[1]) for r in rows[1:]]
    assert all(b < a for a, b in zip(diffs, diffs[1:]))


def test_mollify_demo(tmp_path):
    cfg = small_run(tmp_path)
    assert main(["mollify-demo", "--config", cfg]) == 0
    header, rows = read_csv(tmp_path / "out" / "mollify.csv")
    assert header == ["level", "defect_dual_norm", "norm_ratio"]
    defects = [float(r[1]) for r in rows]
    assert all(b <= a for a, b in zip(defects, defects[1:]))
    assert all(float(r[2]) <= 1.0 + 1e-12 for r in rows)


def test_simulate_multiplicative_and_generalized(tmp_path):
    cfg = small_run(tmp_path, run={"n_paths": 8}, generalized={"levels": [2, 4]})
    assert main(["simulate-multiplicative", "--config", cfg]) == 0
    header, rows = read_csv(tmp_path / "out" / "picard.csv")
    assert header[:2] == ["window", "t_start"]
    assert len(rows) >= 2
    assert main(["generalized", "--config", cfg]) == 0
    header, rows = read_csv(tmp_path / "out" / "levels.csv")
    assert [r[0] for r in rows] == ["2", "4"]


def test_picard_rows_pair_each_distance_with_its_factor(tmp_path):
    # the 8-window run of the output matrix: every window lists its distances
    # in order, and each row after the first its ratio to the row before
    out = tmp_path / "out"
    assert main(["simulate-multiplicative", "--out", str(out), "--paths", "50",
                 "--set", "noise.T=1", "--set", "solver.window_T0=0.125"]) == 0
    header, rows = read_csv(out / "picard.csv")
    assert header == ["window", "t_start", "t_end", "iteration", "distance_sq", "factor"]
    windows = {}
    for r in rows:
        windows.setdefault(int(r[0]), []).append(r)
    assert sorted(windows) == list(range(8))
    for window in windows.values():
        assert [int(r[3]) for r in window] == list(range(1, len(window) + 1))
        assert len(window) == 3
        dists = [float(r[4]) for r in window]
        assert [r[5] for r in window[:1]] == [""]
        assert [float(r[5]) for r in window[1:]] == [b / a for a, b in zip(dists, dists[1:])]


def test_verify_all_byte_identical_reruns(tmp_path):
    cfg = small_run(tmp_path, run={"n_paths": 60})
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["verify-all", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["verify-all", "--config", cfg, "--out", str(out2)]) == 0
    for name in ("reports.csv", "summary.txt"):
        a = (out1 / name).read_bytes()
        b = (out2 / name).read_bytes()
        assert a == b
    # the provenance hash reflects the effective config, so the --out override
    # differs between directories only in run.output_dir
    first = (out1 / "reports.csv").read_text().splitlines()[0]
    assert "config_sha256=" in first and "master_seed=" in first


def test_verify_all_refuses_one_path(tmp_path, capsys):
    # one path is a config error that writes nothing; two paths run, and doob
    # and both isometry rows draw stability's floor of 100 paths, since a
    # standard error from two samples gives a 3-sigma band of about 80 %
    cfg = small_run(tmp_path)
    one, two = tmp_path / "one", tmp_path / "two"
    assert main(["verify-all", "--config", cfg, "--paths", "1", "--out", str(one)]) == 2
    assert capsys.readouterr().err == (
        "config error: config run/n_paths: verify-all needs at least 2 paths, got 1\n")
    assert not one.exists()
    assert main(["verify-all", "--config", cfg, "--paths", "2", "--out", str(two)]) in (0, 1)
    rows = [line for line in (two / "summary.txt").read_text().splitlines()
            if " doob:" in line or " isometry:" in line]
    assert len(rows) == 3 and all(row.endswith(" paths=100") for row in rows)


@pytest.mark.parametrize("name", list(_COMMANDS))
def test_summary_and_stdout_start_with_the_command(tmp_path, capsys, name):
    cfg = small_run(tmp_path, generalized={"levels": [2, 4]})
    assert main([name, "--config", cfg]) in (0, 1)
    summary = (tmp_path / "out" / "summary.txt").read_text().splitlines()
    assert summary[0].startswith("# spmlab config_sha256=")
    assert summary[1] == f"command: {name}"
    assert capsys.readouterr().out.splitlines()[0] == f"command: {name}"


def test_each_csv_is_written_once_through_write_csv(tmp_path, monkeypatch):
    # the first argument is the file's path: the benchmark tracer reads it
    written = []
    write_csv = spmlab.cli.write_csv

    def recording(*args, **kwargs):
        path, header, columns = args[:3]
        # a column table: one array or list per header name, all of one length
        assert len(columns) == len(header)
        assert all(isinstance(c, (np.ndarray, list)) for c in columns)
        assert len({len(c) for c in columns}) == 1
        written.append(path)
        return write_csv(*args, **kwargs)

    monkeypatch.setattr(spmlab.cli, "write_csv", recording)
    cfg = small_run(tmp_path, noise={"T": 0.0625}, generalized={"levels": [2, 4]})
    n_files = {"simulate-additive": 2, "simulate-multiplicative": 3, "generalized": 1,
               "lambda-sweep": 1, "verify-all": 1, "mollify-demo": 1}
    assert set(n_files) == set(_COMMANDS)
    for name, count in n_files.items():
        written.clear()
        out = tmp_path / name
        assert main([name, "--config", cfg, "--out", str(out)]) in (0, 1)
        assert sorted(written) == sorted(str(p) for p in out.glob("*.csv"))
        assert len(written) == count


@pytest.mark.parametrize("out", ["123", "true", '"quoted"'])
def test_out_is_a_directory_name_even_when_it_parses_as_json(tmp_path, monkeypatch, out):
    monkeypatch.chdir(tmp_path)
    assert main(["mollify-demo", "--out", out]) == 0
    assert sorted(p.name for p in (tmp_path / out).iterdir()) == ["mollify.csv", "summary.txt"]


def test_overrides_change_outputs(tmp_path):
    cfg = small_run(tmp_path)
    out = tmp_path / "out"
    assert main(["simulate-additive", "--config", cfg, "--set", "noise.T=0.0625"]) == 0
    _, rows_short = read_csv(out / "trajectory.csv")
    assert main(["simulate-additive", "--config", cfg]) == 0
    _, rows_full = read_csv(out / "trajectory.csv")
    assert len(rows_short) < len(rows_full)


def test_config_error_exit_codes(tmp_path):
    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{ not json")
    assert main(["simulate-additive", "--config", str(bad_json)]) == 2
    assert main(["simulate-additive", "--config", str(tmp_path / "missing.json")]) == 2
    unknown = small_run(tmp_path, name="unknown.json", beta={"variant": "bogus"})
    assert main(["simulate-additive", "--config", unknown]) == 2
    lam0 = small_run(tmp_path, name="lam0.json", beta={"lambda": 0})
    assert main(["simulate-additive", "--config", lam0]) == 2
    wrong_modes = small_run(tmp_path, name="modes.json",
                            diffusion={"params": {"coeffs": [0.4]}})
    assert main(["simulate-additive", "--config", wrong_modes]) == 2


def test_grid_error_is_prefixed_once(tmp_path, capsys):
    argv = ["simulate-additive", "--out", str(tmp_path / "out"),
            "--set", "grid.dim=2", "--set", "grid.n=[3]"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.count("config grid:") == 1
    assert "n must have 2 entries, got 1" in err


@pytest.mark.parametrize("settings, message", [
    (["initial.index=99"], "eigenmode index 99 out of range for 15 nodes"),
    (["run.n_paths.x=1"], "override path 'run.n_paths.x' crosses a non-object"),
    (["grid.n=5000"], "config grid: grid has 5000 interior nodes, above the dense cap 4096"),
    # constructor errors: ValueError or TypeError from the class itself
    (["diffusion.variant=smoothed_nemytskii", "diffusion.params.transform=foo"],
     "config diffusion: unknown transform 'foo'"),
    (['diffusion.params.coeffs=[1,"a"]'], "config diffusion: could not convert string to float"),
    (["beta.params.exponent=[1]"], "config beta: float() argument must be"),
    # orders the schema cannot express, refused by the solver's own rule at load time
    (["sweep.lambdas=[0.1,0.2]"],
     "config sweep: lambdas must be a strictly decreasing positive list"),
    (["generalized.levels=[4,2]"],
     "config generalized: levels must be a strictly increasing list of positive ints"),
], ids=["index", "path", "node_cap", "transform", "coeffs", "exponent", "sweep_order",
        "levels_order"])
def test_config_errors_exit_2_with_message(tmp_path, capsys, settings, message):
    argv = ["simulate-additive", "--out", str(tmp_path / "out")]
    for setting in settings:
        argv += ["--set", setting]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and message in err


@pytest.mark.parametrize("settings, message", [
    (["grid.dim=2", "grid.n=[3]"], "config grid: n must have 2 entries, got 1"),
    (["grid.n=5000"], "config grid: grid has 5000 interior nodes, above the dense cap 4096"),
    (["beta.params.exponent=0.5"], "config beta: exponent must be >= 1, got 0.5"),
    (['noise.modes=[{"wiener_vol": 0.5, "jump_intensity": 1.0}]',
      "diffusion.params.coeffs=[0.4]"],
     "config noise: a jump law is required when jump_intensity > 0"),
    (["diffusion.variant=smoothed_nemytskii", "diffusion.params.transform=foo"],
     "config diffusion: unknown transform 'foo', choose from ['sin', 'soft_clip', 'tanh']"),
    (['diffusion.params.coeffs=[1,"a"]'],
     "config diffusion: could not convert string to float: 'a'"),
    (["diffusion.params.coeffs=[0.4]"],
     "config diffusion/params/coeffs: needs 2 entries (one per noise mode), got 1"),
    (["diffusion.params.coeffs=0.4"], "config diffusion: object of type 'float' has no len()"),
    (["diffusion.variant=constant_additive",
      'diffusion.params.modes=[{"kind": "zero"}]'],
     "config diffusion/params/modes: needs 2 entries (one per noise mode), got 1"),
    (["diffusion.variant=constant_additive",
      'diffusion.params.modes=[{"kind": "eigenmode", "index": 99}, {"kind": "zero"}]'],
     "config diffusion: eigenmode index 99 out of range for 15 nodes"),
    (["initial.index=99"], "config initial: eigenmode index 99 out of range for 15 nodes"),
    (["sweep.lambdas=[0.1,0.2]"],
     "config sweep: lambdas must be a strictly decreasing positive list"),
    (["generalized.levels=[4,2]"],
     "config generalized: levels must be a strictly increasing list of positive ints"),
], ids=["grid_dim", "node_cap", "exponent", "jump_law", "transform", "coeff_entry",
        "coeff_count", "coeff_list", "field_count", "field_index", "initial_index",
        "sweep_order", "levels_order"])
def test_every_refusal_names_its_section_once(tmp_path, capsys, settings, message):
    argv = ["simulate-additive", "--out", str(tmp_path / "out")]
    for setting in settings:
        argv += ["--set", setting]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err == f"config error: {message}\n"
    section = message.split(":")[0].split("/")[0]
    assert err.count(section) == 1
    assert not (tmp_path / "out").exists()


def test_jump_law_needs_its_parameter(tmp_path, capsys):
    for kind, key in (("two_point", "size"), ("normal", "std")):
        modes = [{"wiener_vol": 0.8, "jump_intensity": 2.0, "jump_law": {"kind": kind}},
                 {"wiener_vol": 0.5}]
        cfg = small_run(tmp_path, name=f"{kind}.json", noise={"modes": modes})
        assert main(["simulate-additive", "--config", cfg]) == 2
        assert f"jump_law: '{key}' is a required property" in capsys.readouterr().err


def test_config_builds_through_the_constructors():
    cfg = ExperimentConfig.load()
    # params entries that name no field of the chosen class are ignored
    linear = ExperimentConfig.load(None, ["beta.variant=linear"])
    assert linear.data["beta"]["params"] == {"exponent": 3.0}
    assert linear.graph() == Linear(1.0)
    assert ExperimentConfig.load(None, ["beta.params.exponent=2"]).graph() == PowerLaw(2.0)
    stefan = ExperimentConfig.load(None, ["beta.variant=stefan", "beta.params.height=0.5"])
    assert stefan.graph() == StefanPiecewise(1.0, 1.0, 0.5)
    with pytest.raises(ConfigError, match="config beta: exponent must be >= 1"):
        ExperimentConfig.load(None, ["beta.params.exponent=0.5"])
    assert cfg.noise_spec().modes[1] == NoiseMode(0.5, 1.0, NormalJumps(0.4))
    scfg = ExperimentConfig.load(None, ["solver.newton_max_iter=7.0"]).solver_config()
    assert type(scfg.newton_max_iter) is int and scfg.newton_max_iter == 7
    assert scfg.lam == 0.05 and scfg.dt == 0.0078125 and scfg.window_T0 is None


def test_config_cross_checks_direct():
    data = default_config_dict()
    data["beta"] = {"variant": "scaled_signum", "lambda": 0.1}
    with pytest.raises(ConfigError, match="nonsurjective"):
        ExperimentConfig(data)
    data["beta"]["allow_nonsurjective"] = True
    ExperimentConfig(data)


def test_override_parsing():
    cfg = ExperimentConfig(default_config_dict())
    new = ExperimentConfig.load(None, ["solver.picard_tol=1e-7", "run.output_dir=elsewhere"])
    assert new.data["solver"]["picard_tol"] == 1e-7
    assert new.data["run"]["output_dir"] == "elsewhere"
    assert new.digest != cfg.digest
    with pytest.raises(ConfigError):
        ExperimentConfig.load(None, ["no_equals_sign"])
    with pytest.raises(ConfigError):
        ExperimentConfig.load(None, ["solver.picard_tol=-1"])


def test_load_config_validates_the_schema_once(monkeypatch):
    # the overrides go into the JSON before the one validation, not into a
    # second config built from the first
    calls = []
    validate = spmlab.config._validate_schema
    monkeypatch.setattr(spmlab.config, "_validate_schema",
                        lambda data: calls.append(data) or validate(data))
    args = spmlab.cli.build_parser().parse_args(
        ["simulate-additive", "--seed", "3", "--set", "noise.T=0.5"])
    cfg = spmlab.cli.load_config(args)
    assert len(calls) == 1
    assert cfg.master_seed == 3 and cfg.horizon == 0.5


def test_override_repairs_an_invalid_file_value(tmp_path, capsys):
    # the file plus its overrides is what gets validated
    cfg = small_run(tmp_path, noise={"T": -1})
    assert main(["simulate-additive", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "config noise/T: -1 is less than or equal to the minimum of 0" in err
    args = spmlab.cli.build_parser().parse_args(
        ["simulate-additive", "--config", cfg, "--set", "noise.T=0.25"])
    assert spmlab.cli.load_config(args).horizon == 0.25
    argv = ["simulate-additive", "--config", cfg, "--set", "noise.T=0.25",
            "--set", "solver.picard_tol=-1"]
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        "config error: config solver/picard_tol: -1 is less than or equal to the minimum of 0\n")


def test_override_into_a_file_that_is_no_object_exits_2(tmp_path, capsys):
    # the overrides walk the raw JSON, which the schema has not yet seen
    path = tmp_path / "list.json"
    path.write_text("[1]")
    assert main(["simulate-additive", "--config", str(path), "--seed", "3"]) == 2
    assert "override path 'run.master_seed' crosses a non-object" in capsys.readouterr().err


def test_scaled_signum_gate_via_solver_config():
    data = default_config_dict()
    data["beta"] = {"variant": "scaled_signum", "allow_nonsurjective": True, "lambda": 0.1}
    cfg = ExperimentConfig(data)
    assert cfg.solver_config().allow_nonsurjective
    assert not cfg.graph().surjective


def test_solver_error_exit_code(tmp_path):
    cfg = small_run(tmp_path, name="diverge.json",
                    diffusion={"gamma": 0, "params": {"coeffs": [40, 30]}},
                    solver={"window_T0": 0.125},
                    run={"n_paths": 6})
    assert main(["simulate-multiplicative", "--config", cfg]) == 3


def test_schema_file_is_valid_draft7():
    import jsonschema
    from spmlab.config import _schema

    jsonschema.Draft7Validator.check_schema(_schema())


def test_spectral_random_initial_field_deterministic():
    cfg = ExperimentConfig(deep_update(default_config_dict(),
                                       {"initial": {"kind": "spectral_random",
                                                    "seed": 3, "decay": 1.0, "scale": 2.0}}))
    L = cfg.laplacian()
    a = cfg.initial_field(L)
    b = cfg.initial_field(L)
    np.testing.assert_array_equal(a, b)
    assert np.all(np.isfinite(a)) and np.any(a != 0)
