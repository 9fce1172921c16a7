import json

import numpy as np
import pytest

from spmlab.cli import main
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
    exp = ExperimentConfig.from_file(cfg)
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


@pytest.mark.parametrize("setting, message", [
    ("initial.index=99", "eigenmode index 99 out of range for 15 nodes"),
    ("run.n_paths.x=1", "override path 'run.n_paths.x' crosses a non-object"),
    ("grid.n=5000", "config grid: grid has 5000 interior nodes, above the dense cap 4096"),
], ids=["index", "path", "node_cap"])
def test_config_errors_exit_2_with_message(tmp_path, capsys, setting, message):
    assert main(["simulate-additive", "--out", str(tmp_path / "out"), "--set", setting]) == 2
    assert message in capsys.readouterr().err


def test_jump_law_needs_its_parameter(tmp_path, capsys):
    for kind, key in (("two_point", "size"), ("normal", "std")):
        modes = [{"wiener_vol": 0.8, "jump_intensity": 2.0, "jump_law": {"kind": kind}},
                 {"wiener_vol": 0.5}]
        cfg = small_run(tmp_path, name=f"{kind}.json", noise={"modes": modes})
        assert main(["simulate-additive", "--config", cfg]) == 2
        assert f"jump_law: '{key}' is a required property" in capsys.readouterr().err


def test_config_builds_through_the_constructors():
    cfg = ExperimentConfig.default()
    # params entries that name no field of the chosen class are ignored
    linear = cfg.apply_overrides(["beta.variant=linear"])
    assert linear.data["beta"]["params"] == {"exponent": 3.0}
    assert linear.graph() == Linear(1.0)
    assert cfg.apply_overrides(["beta.params.exponent=2"]).graph() == PowerLaw(2.0)
    stefan = cfg.apply_overrides(["beta.variant=stefan", "beta.params.height=0.5"])
    assert stefan.graph() == StefanPiecewise(1.0, 1.0, 0.5)
    with pytest.raises(ConfigError, match="config beta: exponent must be >= 1"):
        cfg.apply_overrides(["beta.params.exponent=0.5"])
    assert cfg.noise_spec().modes[1] == NoiseMode(0.5, 1.0, NormalJumps(0.4))
    scfg = cfg.apply_overrides(["solver.newton_max_iter=7.0"]).solver_config()
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
    new = cfg.apply_overrides(["solver.picard_tol=1e-7", "run.output_dir=elsewhere"])
    assert new.data["solver"]["picard_tol"] == 1e-7
    assert new.data["run"]["output_dir"] == "elsewhere"
    assert new.digest != cfg.digest
    with pytest.raises(ConfigError):
        cfg.apply_overrides(["no_equals_sign"])
    with pytest.raises(ConfigError):
        cfg.apply_overrides(["solver.picard_tol=-1"])


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
