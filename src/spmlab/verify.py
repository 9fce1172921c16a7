"""Monte Carlo verification of the bracket identities and stability estimates.

Every check draws a seeded ensemble, estimates the two sides of one identity
or inequality, and renders a pass/fail verdict with a statistical margin:

* inequality checks pass when estimate <= bound + MARGIN_SIGMAS * std_error,
* identity checks pass when |estimate - target| <= MARGIN_SIGMAS * std_error.

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

from . import solver
from .grid import DirichletLaplacian, eigenmode, hminus1_norm_sq_rows
from .monotone import MonotoneGraph
from .noise import (
    ConstantOperator,
    DiffusionCoefficient,
    NoiseSpec,
    StepOperator,
    lipschitz_constant,
    sample_ensemble,
    stochastic_integrals,
)
from .solver import (
    SolverConfig,
    contraction_time_limit,
    ensemble_mean_sup_sq,
    lambda_sweep,
)

# the verdict knobs, fixed for every check
MARGIN_SIGMAS = 3.0      # standard errors of slack in the statistical checks
APRIORI_FACTOR = 2.0     # allowed growth of the a priori quantities along a sweep
LIPSCHITZ_MAP_TOL = 0.25  # allowed relative spread of the lipschitz_map ratios


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


def expected_quadratic_budget(G: StepOperator, spec: NoiseSpec, horizon: float,
                              L: DirichletLaplacian) -> float:
    """Exact value of int_0^T |G(s)|_{Q_M}^2 d<M>(s) = sum_k v_k int_0^T |G_k|^2 dt:
    each piece's length in [0, T], the first piece from 0 and the last to T."""
    edges = np.clip(G.breakpoints, 0.0, horizon)
    edges[[0, -1]] = 0.0, horizon
    return float(np.diff(edges) @ (hminus1_norm_sq_rows(L, G.fields) @ spec.variance_rates))


def check_doob(spec: NoiseSpec, G: StepOperator, horizon: float, dt: float, n_paths: int,
               seed: int, L: DirichletLaplacian) -> VerificationReport:
    """E sup_t |G.M(t)|^2 against 4 E |G.M(T)|^2, paired over one ensemble."""
    t0 = time.perf_counter()
    values = stochastic_integrals(G, sample_ensemble(spec, horizon, dt, n_paths, seed), L)
    sup_sq = hminus1_norm_sq_rows(L, values).max(axis=1)
    fin_sq = hminus1_norm_sq_rows(L, values[:, -1])
    diff = sup_sq - 4.0 * fin_sq
    return _report("doob", "inequality", float(sup_sq.mean()), 4.0 * float(fin_sq.mean()),
                   _std_err(diff), MARGIN_SIGMAS, n_paths, t0,
                   notes=f"mean_diff={diff.mean():.6g}")


def check_isometry(spec: NoiseSpec, G: StepOperator, horizon: float, dt: float, n_paths: int,
                   seed: int, L: DirichletLaplacian) -> VerificationReport:
    """E |G.M(T)|^2 against the exact integrand budget."""
    t0 = time.perf_counter()
    target = expected_quadratic_budget(G, spec, horizon, L)
    ens = sample_ensemble(spec, horizon, dt, n_paths, seed)
    fin_sq = hminus1_norm_sq_rows(L, stochastic_integrals(G, ens, L)[:, -1])
    return _report("isometry", "identity", float(fin_sq.mean()), target, _std_err(fin_sq),
                   MARGIN_SIGMAS, n_paths, t0)


def check_resta(graph: MonotoneGraph, cfg: SolverConfig, L: DirichletLaplacian,
                spec: NoiseSpec, data1, data2, horizon: float, n_paths: int, seed: int,
                name: str = "stability") -> VerificationReport:
    """Stability of the additive solve in the data: sup_t E|Y1 - Y2|^2 against
    |x1 - x2|^2 plus the exact budget of G1 - G2; each datum is (x, StepOperator)."""
    t0 = time.perf_counter()
    (x1, op1), (x2, op2) = data1, data2
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    bound = float(hminus1_norm_sq_rows(L, (x1 - x2)[None, :])[0])
    bound += expected_quadratic_budget(op1 - op2, spec, horizon, L)

    ens = sample_ensemble(spec, horizon, cfg.dt, n_paths, seed)
    diffs = _paired_differences(graph, cfg, L, ens, (x1, op1), (x2, op2))
    sq = hminus1_norm_sq_rows(L, ens.at_base(diffs))
    mean = sq.mean(axis=0)
    idx = int(np.argmax(mean))
    return _report(name, "inequality", float(mean[idx]), bound, _std_err(sq[:, idx]),
                   MARGIN_SIGMAS, n_paths, t0, notes=f"argmax_t={idx}")


def _paired_differences(graph, cfg, L, ens, data1, data2):
    """Held X1 - X2, both data solved on each path's grid in one batched march."""
    gms = np.concatenate([stochastic_integrals(op, ens, L) for _, op in (data1, data2)])
    x0 = np.repeat(np.stack([data1[0], data2[0]]), len(ens.times), axis=0)
    states, _ = solver.march_batch(graph, cfg, L, np.tile(ens.times, (2, 1)), gms, x0)
    return np.subtract(*np.split(states, 2))


def check_apriori(graph: MonotoneGraph, cfg: SolverConfig, L: DirichletLaplacian,
                  x0, gm, lambdas: Sequence[float]) -> VerificationReport:
    """Boundedness of the regularization quantities along a lambda sweep.

    Both int(j(z) + j*(eta)) and int|X - z|^2 / lam must stay within
    APRIORI_FACTOR of their values at the largest lambda (the fitted constant);
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
    return _report("apriori_bounds", "inequality", estimate, APRIORI_FACTOR, 0.0, 0.0, 1, t0,
                   notes=f"potential_ratio={ratios[0]:.4g} gap_ratio={ratios[1]:.4g}")


def check_contraction(graph: MonotoneGraph, B: DiffusionCoefficient, spec: NoiseSpec,
                      cfg: SolverConfig, L: DirichletLaplacian, x0, T0: float,
                      n_paths: int, seed: int, k_est=None) -> VerificationReport:
    """Measured contraction factor of one fixed-point sweep on a window of length T0.

    Applies the map to the constant candidates X1 = x0 and X2 = x0 + d, d half
    the first eigenmode, and compares the squared ensemble distance ratio
    against the theoretical modulus k * T0 * (1 + 6/eps) / (1 - 6 eps). For a
    window below the contraction threshold the factor must also sit below one
    at the margin. k is ``k_est`` if given, else measured at ``seed``.
    """
    t0 = time.perf_counter()
    x0 = np.asarray(x0, dtype=float)
    d = 0.5 * eigenmode(L, 0)
    denom = float(hminus1_norm_sq_rows(L, d[None, :])[0])
    k_est = lipschitz_constant(B, spec, L, seed=seed) if k_est is None else k_est
    threshold = contraction_time_limit(k_est, cfg.epsilon)
    op1 = ConstantOperator(B.mode_fields(x0, L))
    op2 = ConstantOperator(B.mode_fields(x0 + d, L))

    ens = sample_ensemble(spec, T0, cfg.dt, n_paths, seed)
    sup_sq = hminus1_norm_sq_rows(
        L, _paired_differences(graph, cfg, L, ens, (x0, op1), (x0, op2))).max(axis=1)
    factor = float(sup_sq.mean()) / denom
    se = _std_err(sup_sq) / denom
    bound = k_est * T0 * ((1.0 + 6.0 / cfg.epsilon) / (1.0 - 6.0 * cfg.epsilon))
    below_threshold = T0 < threshold
    passed = factor <= bound + MARGIN_SIGMAS * se
    if below_threshold:
        passed = passed and (factor + MARGIN_SIGMAS * se < 1.0)
    return _report(f"contraction_T0={T0:.6g}", "inequality", factor, bound, se, MARGIN_SIGMAS,
                   n_paths, t0, passed=passed,
                   notes=f"threshold={threshold:.6g} k={k_est:.6g} "
                         f"below_threshold={below_threshold}")


def check_lipschitz_map(graph: MonotoneGraph, B: DiffusionCoefficient, spec: NoiseSpec,
                        cfg: SolverConfig, L: DirichletLaplacian, y1, y2,
                        horizon: float, n_paths: int, seed: int) -> VerificationReport:
    """Measured squared-Lipschitz ratio of the datum-to-solution map.

    Solves the multiplicative problem from two data on a common ensemble and on
    a fresh one, all four as one stacked causal pass (``march_batch`` with
    ``coeff``, the fixed point of the Picard map); passes when both ratios are
    finite and agree within LIPSCHITZ_MAP_TOL relative spread.
    """
    t0 = time.perf_counter()
    y1 = np.asarray(y1, dtype=float)
    y2 = np.asarray(y2, dtype=float)
    denom = float(hminus1_norm_sq_rows(L, (y1 - y2)[None, :])[0])
    if denom <= 0:
        return _report("lipschitz_map", "inequality", 0.0, 0.0, 0.0, 0.0, n_paths, t0,
                       notes="identical data")

    # both seeds' paths in one ensemble, tiled for the two data
    ens = sample_ensemble(spec, horizon, cfg.dt, n_paths, [seed, seed + 1])
    times, values = np.tile(ens.times, (2, 1)), np.tile(ens.values, (2, 1, 1))
    x0 = np.repeat(np.stack([y1, y2]), 2 * n_paths, axis=0)
    states, _ = solver.march_batch(graph, cfg, L, times, np.zeros(times.shape + (L.n,)), x0,
                                   coeff=(B, values))
    s1, s2 = (np.split(s, 2) for s in np.split(states, 2))  # by datum, then by seed
    ratios = [ensemble_mean_sup_sq(a, b, L) / denom for a, b in zip(s1, s2)]
    spread = abs(ratios[0] - ratios[1])
    scale = max(ratios)
    passed = np.isfinite(ratios).all() and spread <= LIPSCHITZ_MAP_TOL * scale
    return _report("lipschitz_map", "inequality", spread, LIPSCHITZ_MAP_TOL * scale, 0.0, 0.0,
                   n_paths, t0, passed=passed,
                   notes=f"ratio_seed0={ratios[0]:.6g} ratio_seed1={ratios[1]:.6g}")
