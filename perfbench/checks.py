"""Correctness checks on each workload's outputs, computed apart from spmlab.

The checks rebuild what they need from the CSV files the command wrote and
from the experiment config, with the benchmark's own second-difference matrix
and closed forms. The one exception is the path of the multiplicative
workload, which is re-drawn through spmlab's public sampler because the
program does not write it out. Each check is one operation of the benchmark:
``check_outputs`` returns ``[name, passed, detail]`` for every check of
the workload.
"""

from __future__ import annotations

import csv
import math
import os

import numpy as np

# relative agreement required between a closed form and the program's value;
# both sides are exact up to floating-point round-off
CLOSED_FORM_RTOL = 1e-9
# the contraction notes print k with 6 significant digits
NOTES_RTOL = 1e-5
# nodewise tolerance of the Yosida identity; the program's scalar resolvent
# Newton stops at steps below 1e-13
YOSIDA_TOL = 1e-9
# the reports verify-all writes, by name without the window length
VERIFY_REPORTS = {"doob", "isometry", "stability", "apriori_bounds", "contraction",
                  "lipschitz_map"}
# headroom over the bound on path 0's distance to the previous Picard iterate,
# which picard.csv gives only on the uniform base grid
PICARD_HEADROOM = 10.0


# -- reading the outputs ---------------------------------------------------

def _lines(path):
    with open(path, newline="") as fh:
        lines = fh.read().splitlines()
    if not lines or not lines[0].startswith("# spmlab "):
        raise ValueError(f"{path}: missing provenance line")
    return lines[1:]


def read_table(path) -> list[dict]:
    """Rows of an spmlab CSV file as dicts keyed by the header."""
    return list(csv.DictReader(_lines(path)))


def read_numeric(path, columns) -> np.ndarray:
    """Numeric columns of an spmlab CSV file as a (rows, len(columns)) array."""
    lines = _lines(path)
    header = lines[0].split(",")
    idx = [header.index(c) for c in columns]
    return np.loadtxt(lines[1:], delimiter=",", usecols=idx, ndmin=2)


def read_trajectory(path, n_nodes):
    """(times, states, selections) from a trajectory CSV."""
    data = read_numeric(path, ["time", "node", "state", "selection"])
    rows = data.reshape(-1, n_nodes, 4)
    if not np.array_equal(rows[:, :, 1], np.tile(np.arange(n_nodes), (len(rows), 1))):
        raise ValueError(f"{path}: nodes are not 0..{n_nodes - 1} at every time")
    return rows[:, 0, 0], rows[:, :, 2], rows[:, :, 3]


def read_martingale(path, n_modes):
    """(times, values (K, N+1)) from martingale.csv, which lists mode by mode."""
    data = read_numeric(path, ["time", "mode", "value"]).reshape(n_modes, -1, 3)
    return data[0, :, 0], data[:, :, 2]


# -- geometry and noise from the config --------------------------------------

def _grid(cfg: dict):
    grid = cfg["grid"]
    n, length = grid["n"], grid.get("length", 1.0)
    if not (np.ndim(n) == 0 and np.ndim(length) == 0):
        raise ValueError("the checks need a scalar grid.n and grid.length")
    return int(grid["dim"]), int(n), float(length)


def laplacian_matrix(cfg: dict):
    """(-Lap matrix, cell weight) on the interior nodes, nodes x-major in 2D."""
    dim, n, length = _grid(cfg)
    h = length / (n + 1)
    a = (2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)) / (h * h)
    if dim == 1:
        return a, h
    eye = np.eye(n)
    return np.kron(a, eye) + np.kron(eye, a), h * h


def first_eigenvalue(cfg: dict) -> float:
    """mu_1 = dim * (4/h^2) sin^2(pi h / 2 length)."""
    dim, n, length = _grid(cfg)
    h = length / (n + 1)
    return dim * 4.0 / (h * h) * math.sin(math.pi * h / (2.0 * length)) ** 2


def fractional_inverse(a: np.ndarray, gamma: float) -> np.ndarray:
    """a^(-gamma) for symmetric positive definite a (basis independent)."""
    w, v = np.linalg.eigh(a)
    return (v * w ** (-gamma)) @ v.T


def dual_norms(a: np.ndarray, weight: float, rows: np.ndarray) -> np.ndarray:
    """|f|_{-1} = sqrt(weight * f . a^{-1} f) for each row f."""
    rows = np.atleast_2d(rows)
    return np.sqrt(np.maximum(weight * np.sum(rows * np.linalg.solve(a, rows.T).T, axis=1), 0.0))


def variance_rates(cfg: dict) -> np.ndarray:
    """v_k = sigma_k^2 + lambda_k E[J^2] per noise mode."""
    rates = []
    for mode in cfg["noise"]["modes"]:
        rate = float(mode.get("wiener_vol", 0.0)) ** 2
        law = mode.get("jump_law")
        if float(mode.get("jump_intensity", 0.0)) > 0:
            moment = law["size"] ** 2 if law["kind"] == "two_point" else law["std"] ** 2
            rate += float(mode["jump_intensity"]) * moment
        rates.append(rate)
    return np.asarray(rates)


def _linear_spectral(cfg: dict):
    diff = cfg["diffusion"]
    if diff["variant"] != "linear_spectral":
        raise ValueError("the checks need the linear_spectral coefficient")
    return np.asarray(diff["params"]["coeffs"], dtype=float), float(diff.get("gamma", 1.0))


def _first_mode_scale(cfg: dict) -> float:
    init = cfg["initial"]
    if init.get("kind") != "eigenmode" or int(init.get("index", 0)) != 0:
        raise ValueError("the checks need the first eigenmode as the datum")
    return float(init.get("scale", 1.0))


def _power_law(cfg: dict):
    beta = cfg["beta"]
    if beta["variant"] != "power_law":
        raise ValueError("the checks need the power_law graph")
    m = float(beta["params"].get("exponent", 3.0))
    return lambda r: np.abs(r) ** (m - 1.0) * r


def _close(value: float, expected: float, rtol: float = CLOSED_FORM_RTOL) -> bool:
    return abs(value - expected) <= rtol * abs(expected)


# -- the checks ---------------------------------------------------------------

def _yosida(cfg, states, selections):
    """eta = beta(X - lam eta) at every node and time."""
    beta, lam = _power_law(cfg), float(cfg["beta"]["lambda"])
    defect = np.abs(selections - beta(states - lam * selections)) / (1.0 + np.abs(selections))
    worst = float(defect.max())
    return "yosida_identity", worst <= YOSIDA_TOL, f"max relative defect {worst:.3e}"


def _step_defects(cfg, times, states, selections, noise_increments):
    """Dual norms of X_i - X_{i-1} + tau_i A(eta_i + lam X_i) - noise_i."""
    a, weight = laplacian_matrix(cfg)
    lam = float(cfg["beta"]["lambda"])
    drift = selections[1:] + lam * states[1:]
    tau = np.diff(times)[:, None]
    defect = states[1:] - states[:-1] + tau * (drift @ a.T) - noise_increments
    return dual_norms(a, weight, defect), dual_norms(a, weight, states[:-1])


def check_verify(out_dir: str, exit_code: int, cfg: dict) -> list:
    reports = read_table(os.path.join(out_dir, "reports.csv"))
    summary = _lines(os.path.join(out_dir, "summary.txt"))
    coeffs, gamma = _linear_spectral(cfg)
    scale = _first_mode_scale(cfg)
    mu1 = first_eigenvalue(cfg)
    horizon = float(cfg["noise"]["T"])
    weighted = float(variance_rates(cfg) @ coeffs**2)
    budget = horizon * scale**2 * weighted * mu1 ** (-2.0 * gamma - 1.0)
    by_name = {}
    for row in reports:
        by_name.setdefault(row["name"].split("_T0=")[0], []).append(row)
    out = []

    n_failed = sum(r["verdict"] != "pass" for r in reports)
    ran = (VERIFY_REPORTS <= set(by_name) and exit_code == (1 if n_failed else 0)
           and summary[-1] == f"checks: {len(reports)} failed: {n_failed}")
    out.append(("ran_every_check", ran,
                f"exit {exit_code}, {len(reports)} reports, {n_failed} failed"))

    targets = [float(r["bound_or_target"]) for r in by_name.get("isometry", [])]
    ok = len(targets) == 2 and _close(targets[0], budget) and _close(targets[1], 0.625 * budget)
    out.append(("isometry_targets", ok, f"{targets} vs {budget:.17g} and x0.625"))

    rows = by_name.get("stability", [])
    expected = 0.25 * scale**2 / mu1 + 0.25 * budget
    ok = len(rows) == 1 and _close(float(rows[0]["bound_or_target"]), expected)
    out.append(("stability_bound", ok, f"{[r['bound_or_target'] for r in rows]} vs {expected:.17g}"))

    rows = by_name.get("contraction", [])
    exact = weighted * mu1 ** (-2.0 * gamma)
    notes = dict(item.split("=", 1) for item in rows[0]["notes"].split()) if len(rows) == 1 else {}
    ok = "k" in notes and 0.0 <= float(notes["k"]) <= exact * (1.0 + NOTES_RTOL)
    out.append(("contraction_k", ok, f"sampled k={notes.get('k')} vs exact {exact:.6g}"))
    return out


def check_additive(out_dir: str, exit_code: int, cfg: dict) -> list:
    _, n, _ = _grid(cfg)
    coeffs, gamma = _linear_spectral(cfg)
    times, states, selections = read_trajectory(os.path.join(out_dir, "trajectory.csv"), n)
    m_times, values = read_martingale(os.path.join(out_dir, "martingale.csv"), len(coeffs))
    out = [("exit_code", exit_code == 0, f"exit {exit_code}")]

    a, _ = laplacian_matrix(cfg)
    # the additive solve freezes the coefficient at the datum X(0)
    fields = coeffs[:, None] * (fractional_inverse(a, gamma) @ states[0])[None, :]
    noise = np.diff(values, axis=1).T @ fields
    if np.array_equal(times, m_times):
        defects, norms = _step_defects(cfg, times, states, selections, noise)
        newton_tol = float(cfg["solver"]["newton_tol"])
        ratio = float(np.max(defects / (newton_tol * (1.0 + norms))))
        out.append(("backward_euler_identity", ratio <= 1.0,
                    f"max defect / newton_tol scale {ratio:.3e} over {len(defects)} steps"))
    else:
        out.append(("backward_euler_identity", False, "trajectory and martingale grids differ"))
    out.append(_yosida(cfg, states, selections))
    return out


def check_multiplicative(out_dir: str, exit_code: int, cfg: dict) -> list:
    from spmlab import ExperimentConfig, rng_for, sample_path

    dim, n, _ = _grid(cfg)
    coeffs, gamma = _linear_spectral(cfg)
    picard_tol = float(cfg["solver"]["picard_tol"])
    summary = _lines(os.path.join(out_dir, "summary.txt"))
    out = [("exit_code", exit_code == 0 and "converged: true" in summary, f"exit {exit_code}")]

    last = {}
    for row in read_table(os.path.join(out_dir, "picard.csv")):
        last[int(row["window"])] = float(row["distance_sq"])
    ok = bool(last) and all(d < picard_tol for d in last.values())
    out.append(("picard_converged", ok,
                f"{len(last)} windows, worst last distance {max(last.values(), default=math.nan):.3e}"))

    norms = read_numeric(os.path.join(out_dir, "ensemble_norms.csv"), ["time", "mean_sq_dual_norm"])
    expected = _first_mode_scale(cfg) ** 2 / first_eigenvalue(cfg)
    ok = norms[0, 0] == 0.0 and _close(float(norms[0, 1]), expected)
    out.append(("initial_dual_norm", ok, f"{norms[0, 1]:.17g} vs 1/mu1 = {expected:.17g}"))

    times, states, selections = read_trajectory(os.path.join(out_dir, "trajectory0.csv"), n**dim)
    out.append(_yosida(cfg, states, selections))

    spec = ExperimentConfig(cfg).noise_spec()
    path = sample_path(spec, float(cfg["noise"]["T"]), float(cfg["noise"]["dt"]),
                       rng_for(int(cfg["run"]["master_seed"]), 0))
    if not np.array_equal(path.times, times):
        out.append(("scheme_identity", False, "re-drawn path is on another grid"))
        return out
    a, _ = laplacian_matrix(cfg)
    smooth = fractional_inverse(a, gamma)
    dm = np.diff(path.values, axis=1).T                    # (steps, K)
    left = states[:-1] @ smooth.T                          # (-Lap)^-gamma X(t-)
    noise = (dm @ coeffs)[:, None] * left
    defects, norms = _step_defects(cfg, times, states, selections, noise)
    # |B_k(x) - B_k(y)|_{-1} <= |c_k| mu_1^-gamma |x - y|_{-1}, and path 0's
    # squared distance to the previous iterate is at most n_paths * picard_tol
    lip = (np.abs(dm) @ np.abs(coeffs)) * first_eigenvalue(cfg) ** (-gamma)
    picard_gap = PICARD_HEADROOM * math.sqrt(int(cfg["run"]["n_paths"]) * picard_tol)
    tol = float(cfg["solver"]["newton_tol"]) * (1.0 + norms) + lip * picard_gap
    ratio = float(np.max(defects / tol))
    out.append(("scheme_identity", ratio <= 1.0,
                f"max defect / tolerance {ratio:.3e} over {len(defects)} steps"))
    return out


# workload -> (check function, the names of the checks it returns)
CHECKS = {
    "verify-1d": (check_verify, ("ran_every_check", "isometry_targets",
                                 "stability_bound", "contraction_k")),
    "multiplicative-2d": (check_multiplicative, ("exit_code", "picard_converged",
                                                 "initial_dual_norm", "yosida_identity",
                                                 "scheme_identity")),
    "additive-long-1d": (check_additive, ("exit_code", "backward_euler_identity",
                                          "yosida_identity")),
}


def check_outputs(workload: str, out_dir: str, exit_code: int, cfg: dict) -> list:
    """[name, passed, detail] per check; passed is None for a check that could
    not be evaluated because an output is missing or unreadable."""
    fn, names = CHECKS[workload]
    try:
        results = fn(out_dir, exit_code, cfg)
    except (OSError, ValueError, KeyError, IndexError) as err:
        return [[name, None, f"not evaluated: {err!r}"] for name in names]
    if [r[0] for r in results] != list(names):
        raise RuntimeError(f"{workload} checks returned {[r[0] for r in results]}")
    return [[name, bool(ok), str(detail)] for name, ok, detail in results]
