"""Monte Carlo verification of the bracket identities and stability estimates.

Every check draws a seeded ensemble, estimates the two sides of one identity
or inequality, and renders a pass/fail verdict with a statistical margin:

* inequality checks pass when estimate <= bound + margin_sigmas * std_error,
* identity checks pass when |estimate - target| <= margin_sigmas * std_error.

Both rules, and every report, go through one builder, ``_report``; a check
with a rule of its own passes its verdict to it.

Estimates are plain ensemble averages with standard errors from the same
ensemble; no variance reduction, so the numbers stay unbiased and auditable.
Where the two sides are estimated from the same paths, the standard error of
the pairwise difference is used. Reports are deterministic given the inputs
and the seed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .grid import DirichletLaplacian, eigenmode, hminus1_norm_sq_rows
from .monotone import MonotoneGraph
from .noise import (
    ConstantOperator,
    DiffusionCoefficient,
    NoiseSpec,
    StepOperator,
    as_mode_operator,
    lipschitz_constant,
    sample_ensemble,
    stochastic_integrals,
)
from .solver import (
    SolverConfig,
    base_grid_norms_sq,
    contraction_time_limit,
    ensemble_mean_sup_sq,
    lambda_sweep,
    march_batch,
    path_sup_norms_sq,
    picard_solve,
)


@dataclass
class VerificationReport:
    name: str
    kind: str                 # "inequality" or "identity"
    estimate: float
    std_error: float
    bound_or_target: float
    margin_sigmas: float
    passed: bool
    n_paths: int
    runtime_s: float
    notes: str = ""

    @property
    def verdict(self) -> str:
        return "pass" if self.passed else "fail"


# absolute slack protecting exact-equality cases from summation round-off
def _float_slack(reference: float) -> float:
    return 1e-12 * max(1.0, abs(reference))


def _report(name, kind, estimate, bound, std_error, margin, n_paths, t0, notes="",
            passed=None):
    """The verdict of one check, timed from t0. Unless the check passes its own
    verdict, an inequality needs estimate <= bound and an identity
    estimate = bound, each up to margin standard errors and the float slack."""
    if passed is None and kind == "inequality":
        passed = estimate <= bound + margin * std_error + _float_slack(bound)
    elif passed is None:
        passed = abs(estimate - bound) <= margin * std_error + _float_slack(bound)
    return VerificationReport(name=name, kind=kind, estimate=float(estimate),
                              std_error=float(std_error), bound_or_target=float(bound),
                              margin_sigmas=float(margin), passed=bool(passed),
                              n_paths=int(n_paths), runtime_s=time.perf_counter() - t0,
                              notes=notes)


def _std_err(samples: np.ndarray) -> float:
    if len(samples) < 2:
        return 0.0
    return float(np.std(samples, ddof=1) / np.sqrt(len(samples)))


def expected_quadratic_budget(G, spec: NoiseSpec, horizon: float,
                              L: DirichletLaplacian) -> float:
    """Exact value of int_0^T |G(s)|_{Q_M}^2 d<M>(s) = sum_k v_k int |G_k|^2 dt
    for constant and piecewise-constant integrands."""
    op = as_mode_operator(G)
    rates = spec.variance_rates
    if isinstance(op, ConstantOperator):
        return horizon * float(rates @ hminus1_norm_sq_rows(L, op.fields))
    if isinstance(op, StepOperator):
        total = 0.0
        for i in range(op.fields.shape[0]):
            lo = max(0.0, float(op.breakpoints[i]))
            hi = min(horizon, float(op.breakpoints[i + 1]))
            if hi > lo:
                total += (hi - lo) * float(rates @ hminus1_norm_sq_rows(L, op.fields[i]))
        return total
    raise ValueError("exact budget needs a constant or piecewise-constant integrand")


def check_doob(spec: NoiseSpec, G, horizon: float, dt: float, n_paths: int, seed: int,
               L: DirichletLaplacian, margin_sigmas: float = 3.0) -> VerificationReport:
    """E sup_t |G.M(t)|^2 against 4 E |G.M(T)|^2, paired over one ensemble."""
    t0 = time.perf_counter()
    paths = sample_ensemble(spec, horizon, dt, n_paths, seed)
    values = [ig.values for ig in stochastic_integrals(G, paths, L)]
    sup_sq = path_sup_norms_sq(L, values)
    fin_sq = hminus1_norm_sq_rows(L, np.stack([v[-1] for v in values]))
    diff = sup_sq - 4.0 * fin_sq
    return _report("doob", "inequality", float(sup_sq.mean()), 4.0 * float(fin_sq.mean()),
                   _std_err(diff), margin_sigmas, n_paths, t0,
                   notes=f"mean_diff={diff.mean():.6g}")


def check_isometry(spec: NoiseSpec, G, horizon: float, dt: float, n_paths: int, seed: int,
                   L: DirichletLaplacian, margin_sigmas: float = 3.0) -> VerificationReport:
    """E |G.M(T)|^2 against the exact integrand budget."""
    t0 = time.perf_counter()
    target = expected_quadratic_budget(G, spec, horizon, L)
    paths = sample_ensemble(spec, horizon, dt, n_paths, seed)
    fin_sq = hminus1_norm_sq_rows(
        L, np.stack([ig.values[-1] for ig in stochastic_integrals(G, paths, L)]))
    return _report("isometry", "identity", float(fin_sq.mean()), target, _std_err(fin_sq),
                   margin_sigmas, n_paths, t0)


def check_resta(graph: MonotoneGraph, cfg: SolverConfig, L: DirichletLaplacian,
                spec: NoiseSpec, data1, data2, horizon: float, n_paths: int, seed: int,
                margin_sigmas: float = 3.0, name: str = "stability") -> VerificationReport:
    """Stability of the additive solve in the data: sup_t E|Y1 - Y2|^2 against
    |x1 - x2|^2 plus the exact budget of G1 - G2."""
    t0 = time.perf_counter()
    x1, g_op1 = data1
    x2, g_op2 = data2
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    op1, op2 = as_mode_operator(g_op1), as_mode_operator(g_op2)
    diff_op = _difference_operator(op1, op2)
    bound = float(hminus1_norm_sq_rows(L, (x1 - x2)[None, :])[0])
    bound += expected_quadratic_budget(diff_op, spec, horizon, L)

    paths = sample_ensemble(spec, horizon, cfg.dt, n_paths, seed)
    diffs = _paired_differences(graph, cfg, L, paths, (x1, op1), (x2, op2))
    sq = base_grid_norms_sq(L, diffs, [p.base_indices for p in paths])
    mean = sq.mean(axis=0)
    idx = int(np.argmax(mean))
    return _report(name, "inequality", float(mean[idx]), bound, _std_err(sq[:, idx]),
                   margin_sigmas, n_paths, t0, notes=f"argmax_t={idx}")


def _paired_differences(graph, cfg, L, paths, data1, data2):
    """X1 - X2 per path, both data solved on each path's grid in one batched march."""
    (x1, op1), (x2, op2) = data1, data2
    times = [p.times for p in paths]
    gms = [ig.values for op in (op1, op2) for ig in stochastic_integrals(op, paths, L)]
    x0 = np.concatenate([np.tile(x1, (len(paths), 1)), np.tile(x2, (len(paths), 1))])
    states, _ = march_batch(graph, cfg, L, times + times, gms, x0)
    return [a - b for a, b in zip(states[:len(paths)], states[len(paths):])]


def _difference_operator(op1, op2):
    # constant (K, n) fields broadcast against step fields (B, K, n)
    breaks = {tuple(op.breakpoints) for op in (op1, op2) if isinstance(op, StepOperator)}
    if len(breaks) > 1:
        raise ValueError("stability check needs constant or aligned step integrands")
    fields = op1.fields - op2.fields
    return StepOperator(breaks.pop(), fields) if breaks else ConstantOperator(fields)


def check_apriori(graph: MonotoneGraph, cfg: SolverConfig, L: DirichletLaplacian,
                  x0, gm, lambdas: Sequence[float],
                  margin_factor: float = 2.0) -> VerificationReport:
    """Boundedness of the regularization quantities along a lambda sweep.

    Both int(j(z) + j*(eta)) and int|X - z|^2 / lam must stay within
    margin_factor of their values at the largest lambda (the fitted constant);
    the factor-2 slack mirrors the path dependence of the bounding constant.
    """
    t0 = time.perf_counter()
    report = lambda_sweep(graph, cfg, L, x0, gm, lambdas)
    combo = report.potential_integrals + report.conjugate_integrals
    ratios = []
    for series in (combo, report.gap_ratios):
        ref = series[0]
        if ref <= 0:
            ratios.append(1.0 if np.allclose(series, 0.0) else np.inf)
        else:
            ratios.append(float(np.max(series) / ref))
    estimate = max(ratios)
    return _report("apriori_bounds", "inequality", estimate, margin_factor, 0.0, 0.0, 1, t0,
                   notes=f"potential_ratio={ratios[0]:.4g} gap_ratio={ratios[1]:.4g}")


def check_contraction(graph: MonotoneGraph, B: DiffusionCoefficient, spec: NoiseSpec,
                      cfg: SolverConfig, L: DirichletLaplacian, x0,
                      T0_list: Sequence[float], n_paths: int, seed: int,
                      margin_sigmas: float = 3.0, perturbation=None) -> list:
    """Measured contraction factor of one fixed-point sweep per window length.

    Applies the map to the constant candidates X1 = x0 and X2 = x0 + d and
    compares the squared ensemble distance ratio against the theoretical
    modulus k * T0 * (1 + 6/eps) / (1 - 6 eps). For window lengths below the
    contraction threshold the factor must also sit below one at the margin.
    """
    x0 = np.asarray(x0, dtype=float)
    if perturbation is None:
        perturbation = 0.5 * eigenmode(L, 0)
    d = np.asarray(perturbation, dtype=float)
    denom = float(hminus1_norm_sq_rows(L, d[None, :])[0])
    k_est = lipschitz_constant(B, spec, L, seed=seed)
    threshold = contraction_time_limit(k_est, cfg.epsilon)
    modulus_coeff = (1.0 + 6.0 / cfg.epsilon) / (1.0 - 6.0 * cfg.epsilon)
    op1 = ConstantOperator(B.mode_fields(x0, L))
    op2 = ConstantOperator(B.mode_fields(x0 + d, L))

    reports = []
    for T0 in T0_list:
        t0 = time.perf_counter()
        paths = sample_ensemble(spec, T0, cfg.dt, n_paths, seed)
        sup_sq = path_sup_norms_sq(
            L, _paired_differences(graph, cfg, L, paths, (x0, op1), (x0, op2)))
        factor = float(sup_sq.mean()) / denom
        se = _std_err(sup_sq) / denom
        bound = k_est * T0 * modulus_coeff
        below_threshold = T0 < threshold
        passed = factor <= bound + margin_sigmas * se
        if below_threshold:
            passed = passed and (factor + margin_sigmas * se < 1.0)
        reports.append(_report(
            f"contraction_T0={T0:.6g}", "inequality", factor, bound, se, margin_sigmas,
            n_paths, t0, passed=passed,
            notes=f"threshold={threshold:.6g} k={k_est:.6g} "
                  f"below_threshold={below_threshold}",
        ))
    return reports


def check_lipschitz_map(graph: MonotoneGraph, B: DiffusionCoefficient, spec: NoiseSpec,
                        cfg: SolverConfig, L: DirichletLaplacian, y1, y2,
                        horizon: float, n_paths: int, seed: int,
                        stability_tol: float = 0.25) -> VerificationReport:
    """Measured squared-Lipschitz ratio of the datum-to-solution map.

    Runs the full fixed-point solve from two data on a common ensemble, then
    repeats with a fresh ensemble; passes when both ratios are finite and
    agree within stability_tol relative spread.
    """
    t0 = time.perf_counter()
    y1 = np.asarray(y1, dtype=float)
    y2 = np.asarray(y2, dtype=float)
    denom = float(hminus1_norm_sq_rows(L, (y1 - y2)[None, :])[0])
    if denom <= 0:
        return _report("lipschitz_map", "inequality", 0.0, 0.0, 0.0, 0.0, n_paths, t0,
                       notes="identical data")

    ratios = []
    for run, seed_run in enumerate((seed, seed + 1)):
        paths = sample_ensemble(spec, horizon, cfg.dt, n_paths, seed_run)
        r1 = picard_solve(graph, B, spec, cfg, L, y1, paths)
        r2 = picard_solve(graph, B, spec, cfg, L, y2, paths)
        ratios.append(ensemble_mean_sup_sq(r1.trajectories, r2.trajectories, L) / denom)
    spread = abs(ratios[0] - ratios[1])
    scale = max(ratios)
    passed = np.isfinite(ratios).all() and spread <= stability_tol * scale
    return _report("lipschitz_map", "inequality", spread, stability_tol * scale, 0.0, 0.0,
                   n_paths, t0, passed=passed,
                   notes=f"ratio_seed0={ratios[0]:.6g} ratio_seed1={ratios[1]:.6g}")
