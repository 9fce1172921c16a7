"""Tests of the benchmark itself: every workload passes its checks at a tiny
size, every check fails on a deliberately perturbed copy of the outputs, and
the tracer records spans only while installed.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import spmlab  # noqa: E402
import spmlab.cli as cli  # noqa: E402
from checks import check_outputs, laplacian_matrix  # noqa: E402
from tracer import LAYER_METRICS, Tracer  # noqa: E402
from workloads import TINY, WORKLOADS, command_line  # noqa: E402

SEED = 7


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Each workload run once at its tiny size: name -> (out_dir, exit, cfg)."""
    out = {}
    for name in WORKLOADS:
        out_dir = str(tmp_path_factory.mktemp(name))
        argv = command_line(name, SEED, out_dir, TINY[name])
        cfg = cli.load_config(cli.build_parser().parse_args(argv))
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        out[name] = (out_dir, code, cfg.data)
    return out


def _copy(runs, name, tmp_path):
    out_dir, code, cfg = runs[name]
    dst = str(tmp_path / name)
    shutil.copytree(out_dir, dst)
    return dst, code, cfg


def _verdicts(name, out_dir, code, cfg):
    return {check: ok for check, ok, _detail in check_outputs(name, out_dir, code, cfg)}


def _rewrite(path, edit):
    """Apply ``edit`` to the data lines of an spmlab CSV, keeping the
    provenance and header lines."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    with open(path, "w") as fh:
        fh.write("\n".join(lines[:2] + edit(lines[2:])) + "\n")


def _scale_row(path, first_cell, column, factor):
    """Multiply ``column`` by ``factor`` in the rows whose first cell matches."""
    with open(path) as fh:
        i = fh.read().splitlines()[1].split(",").index(column)

    def edit(rows):
        out = []
        for row in rows:
            cells = row.split(",")
            if cells[0] == first_cell:
                cells[i] = repr(float(cells[i]) * factor)
            out.append(",".join(cells))
        return out
    _rewrite(path, edit)


def _edit_trajectory(path, cfg, n_nodes, edit):
    """Replace the state and selection columns by edit(times, X, eta)."""
    data = np.loadtxt(path, delimiter=",", skiprows=2).reshape(-1, n_nodes, 4)
    states, selections = edit(data[:, 0, 0], data[:, :, 2].copy(), data[:, :, 3].copy())
    data[:, :, 2], data[:, :, 3] = states, selections

    def rows(_old):
        return [f"{t!r},{int(node)},{x!r},{s!r}" for t, node, x, s in data.reshape(-1, 4).tolist()]
    _rewrite(path, rows)


def _half_drift(cfg):
    """Rebuild X with half of the drift tau * A(eta + lam X) of every step."""
    a, _ = laplacian_matrix(cfg)
    lam = float(cfg["beta"]["lambda"])

    def edit(times, states, selections):
        drift = (selections[1:] + lam * states[1:]) @ a.T * np.diff(times)[:, None]
        increments = np.diff(states, axis=0) + 0.5 * drift
        out = states.copy()
        out[1:] = states[0] + np.cumsum(increments, axis=0)
        return out, selections
    return edit


def _nudge_selection(times, states, selections):
    return states, selections * (1.0 + 1e-6) + 1e-6


def test_every_workload_passes_its_checks(runs):
    for name, (out_dir, code, cfg) in runs.items():
        results = check_outputs(name, out_dir, code, cfg)
        assert all(ok for _check, ok, _detail in results), (name, results)


def test_missing_outputs_count_as_failed(runs, tmp_path):
    for name, (_out, code, cfg) in runs.items():
        results = check_outputs(name, str(tmp_path / "nothing"), code, cfg)
        assert results and all(ok is None for _check, ok, _detail in results)


def test_verify_checks_fail_on_perturbed_outputs(runs, tmp_path):
    name = "verify-1d"
    perturbations = {
        "ran_every_check": lambda d: _rewrite(
            os.path.join(d, "summary.txt"),
            lambda rows: rows[:-1] + [f"checks: 7 failed: {int(rows[-1].split()[-1]) + 1}"]),
        "isometry_targets": lambda d: _scale_row(
            os.path.join(d, "reports.csv"), "isometry", "bound_or_target", 1.01),
        "stability_bound": lambda d: _scale_row(
            os.path.join(d, "reports.csv"), "stability", "bound_or_target", 1.01),
        "contraction_k": lambda d: _rewrite(
            os.path.join(d, "reports.csv"),
            lambda rows: [r.replace(" k=", " k=1") for r in rows]),
    }
    _assert_each_fails(runs, name, perturbations, tmp_path)


def test_additive_checks_fail_on_perturbed_outputs(runs, tmp_path):
    name = "additive-long-1d"
    cfg = runs[name][2]
    n = cfg["grid"]["n"]
    traj = "trajectory.csv"
    perturbations = {
        "exit_code": "exit 3",
        "backward_euler_identity": lambda d: _edit_trajectory(
            os.path.join(d, traj), cfg, n, _half_drift(cfg)),
        "yosida_identity": lambda d: _edit_trajectory(
            os.path.join(d, traj), cfg, n, _nudge_selection),
    }
    _assert_each_fails(runs, name, perturbations, tmp_path)


def test_multiplicative_checks_fail_on_perturbed_outputs(runs, tmp_path):
    name = "multiplicative-2d"
    cfg = runs[name][2]
    nodes = cfg["grid"]["n"] ** cfg["grid"]["dim"]
    tol = cfg["solver"]["picard_tol"]
    traj = "trajectory0.csv"

    def not_converged(rows):
        cells = rows[-1].split(",")
        cells[4] = repr(10.0 * tol)
        return rows[:-1] + [",".join(cells)]

    perturbations = {
        "exit_code": "exit 3",
        "picard_converged": lambda d: _rewrite(os.path.join(d, "picard.csv"), not_converged),
        "initial_dual_norm": lambda d: _scale_row(
            os.path.join(d, "ensemble_norms.csv"), "0", "mean_sq_dual_norm", 1.01),
        "yosida_identity": lambda d: _edit_trajectory(
            os.path.join(d, traj), cfg, nodes, _nudge_selection),
        "scheme_identity": lambda d: _edit_trajectory(
            os.path.join(d, traj), cfg, nodes, _half_drift(cfg)),
    }
    _assert_each_fails(runs, name, perturbations, tmp_path)


def _assert_each_fails(runs, name, perturbations, tmp_path):
    for check, perturb in perturbations.items():
        out_dir, code, cfg = _copy(runs, name, tmp_path / check)
        if perturb == "exit 3":
            code = 3
        else:
            perturb(out_dir)
        verdicts = _verdicts(name, out_dir, code, cfg)
        assert verdicts[check] is False, (check, verdicts)
    assert set(perturbations) == set(_verdicts(name, *runs[name]))


def test_tracer_records_layers_only_while_installed(tmp_path):
    argv = command_line("additive-long-1d", SEED, str(tmp_path), TINY["additive-long-1d"])
    original = spmlab.solver.implicit_step
    tracer = Tracer()
    tracer.install()
    assert spmlab.solver.implicit_step is not original
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
    tracer.uninstall()
    assert spmlab.solver.implicit_step is original
    assert spmlab.implicit_step is original

    recorded = len(tracer.spans)
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(argv)
    assert len(tracer.spans) == recorded

    metrics = tracer.layer_metrics()
    assert set(metrics) == set(LAYER_METRICS)
    steps = metrics["solver.implicit_step.calls"][0]
    assert steps > 0
    assert metrics["solver.additive_path_solve.calls"][0] == 1
    # one value evaluation for the first residual, one per accepted Newton
    # step or backtrack, and one for the selection at the solution
    assert metrics["solver.residual_evals"][0] >= 2 * steps + metrics["solver.newton_iters"][0]
    assert metrics["grid.dual_norm.rows"][0] >= metrics["grid.dual_norm.calls"][0]
    assert metrics["reporting.bytes"][0] == sum(
        os.path.getsize(tmp_path / f) for f in ("trajectory.csv", "martingale.csv"))
    assert 0 < metrics["solver.implicit_step.self_s"][0] < metrics["solver.implicit_step.s"][0]


def test_tracer_leaves_out_metrics_of_a_missing_target(monkeypatch):
    monkeypatch.delattr(spmlab.solver, "lambda_sweep")
    tracer = Tracer()
    tracer.install()
    tracer.uninstall()
    metrics = tracer.layer_metrics()
    assert "solver.lambda_sweep.s" not in metrics
    assert "solver.implicit_step.calls" in metrics
    assert any("lambda_sweep" in note for note in tracer.notes)


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "trace", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify-1d", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert not proc.stdout.strip() or not proc.stdout.strip().splitlines()[-1].startswith("{")


def test_run_prints_the_result_line(tmp_path):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "additive-long-1d",
         "--seed", "3", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3
    assert set(result["metrics"]) == {"wall_s", "setup_s", "peak_rss_mb"}
