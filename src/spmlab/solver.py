"""Pathwise solvers for the jump-driven degenerate diffusion equation.

The additive-noise equation is reduced pathwise: with the driving integral
g(t) = (G . M)(t) precomputed on the grid, the substitution y = X - g turns
the stochastic equation into the deterministic evolution

    y' = Lap( b(y + g) ),        b(r) = yosida_lam(r) + lam * r,

which is integrated by backward Euler. Each implicit step solves the strictly
monotone system  y + tau * (-Lap) b(y + g_next) = rhs  by damped Newton with a
slope-clamped Jacobian (the slopes of b live in [lam, lam + 1/lam]). The noise
enters only through the exactly computed g, so no stochastic-integral
discretization error pollutes the drift solve. Grids contain every jump time,
hence integrands frozen at sub-interval left endpoints are genuine left limits.

All marching goes through one batched core, ``march_batch``: the P paths of an
ensemble advance in lock step as one (P, n) state. Every jump grid is its own,
so shorter grids are padded with zero-length steps that hold the driving
integral at its last value; a padded step is an exact no-op. Per Newton
iterate there is one resolvent solve (value, slope and selection together)
and a single LAPACK ``?gbsv`` call that solves the Newton systems of all
paths still above their target: the Jacobians share the band of the stencil,
are built in one array expression, and their stack is the band of one
block-diagonal matrix. That single solve is exact, since the blocks share no
entry and elimination never mixes them, so every path gets the arithmetic of
a banded LU of its own. The march's padded grids and driving integrals come
from one index gather. The line search backtracks per path. A single path and the public ``implicit_step``
are the P = 1 case of the same core, and a one-node grid takes the same
Newton iteration as any other; there is no scalar fallback.
Each path may carry its own lam, so ``lambda_sweep`` solves its whole list in
one march. The gates live here (``check_gates``); the config loader calls them.

Multiplicative noise is handled by the fixed-point map Phi: a candidate
process X yields the frozen coefficient t -> B(X(t-)), whose additive solve is
the next iterate. Phi contracts in the ensemble norm sup_t E| . |^2 on short
time windows; the window length is derived from the measured Lipschitz
constant of B and the contraction threshold (1 - 6 eps) / (1 + 6/eps) / k,
then relaxed when the observed contraction factor is comfortable. Rough
coefficients are run through the spectral mollifier at increasing levels and
the mollified solutions are reported with their Cauchy distances.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy.linalg.lapack import get_lapack_funcs

from .errors import NonContractionError, SolverError
from .grid import DirichletLaplacian, hminus1_norm_sq_rows, spectral_apply
from .monotone import MonotoneGraph
from .noise import (
    DiffusionCoefficient,
    IntegralPath,
    MartingalePath,
    NoiseSpec,
    ito_sums,
    lipschitz_constant,
    mollified,
)

_gbsv = get_lapack_funcs("gbsv", (np.empty(1),))


@dataclass(frozen=True)
class SolverConfig:
    """Knobs of the implicit marcher and the fixed-point iteration."""

    lam: float
    dt: float
    newton_tol: float = 1e-10
    newton_max_iter: int = 50
    picard_tol: float = 1e-9
    picard_max_iter: int = 40
    epsilon: float = 1.0 / 12.0
    window_T0: Optional[float] = None
    allow_nonsurjective: bool = False

    def __post_init__(self):
        if self.lam < 0:
            raise ValueError("lam must be >= 0")
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if not 0 < self.epsilon < 1.0 / 6.0:
            raise ValueError("epsilon must lie in (0, 1/6)")
        if self.newton_tol <= 0 or self.picard_tol <= 0:
            raise ValueError("tolerances must be positive")
        if self.window_T0 is not None and self.window_T0 <= 0:
            raise ValueError("window_T0 must be positive when set")


@dataclass
class Trajectory:
    """Time-indexed solution: states X(t_i) and the drift selections eta(t_i).

    ``selections`` is the regularized selection (the Yosida value at the
    state, or the minimal section when lam = 0); the discrete evolution
    integrates ``selections + lam * states``.
    """

    times: np.ndarray
    states: np.ndarray
    selections: np.ndarray
    lam: float


def uniform_times(horizon: float, dt: float) -> np.ndarray:
    if horizon <= 0 or dt <= 0:
        raise ValueError("horizon and dt must be positive")
    n = max(1, int(round(horizon / dt)))
    return np.linspace(0.0, horizon, n + 1)


def contraction_time_limit(k: float, eps: float) -> float:
    """Largest horizon on which the fixed-point map is guaranteed to contract,
    (1 - 6 eps) / (1 + 6 / eps) / k for squared-Lipschitz constant k."""
    if not 0 < eps < 1.0 / 6.0:
        raise ValueError("eps must lie in (0, 1/6)")
    if k <= 0:
        return np.inf
    return (1.0 - 6.0 * eps) / (1.0 + 6.0 / eps) / k


def _drift(graph: MonotoneGraph, lam: np.ndarray, u: np.ndarray):
    """b(u), its slope and the selection for the rows of u from one resolvent solve;
    lam has the shape of u (faster than broadcasting) and is all positive or all
    zero; b' lies in [lam, lam + 1/lam] by the Yosida clip."""
    if lam[0, 0] > 0:
        yos, slope = graph.yosida_and_slope(lam, u)
        return yos + lam * u, slope + lam, yos
    value = np.asarray(graph.minimal_section(u))
    return value, np.asarray(graph.section_slope(u)), value


def _dual_norms(L: DirichletLaplacian, rows: np.ndarray) -> np.ndarray:
    return np.sqrt(hminus1_norm_sq_rows(L, rows))


def _solve_jacobians(L: DirichletLaplacian, tau: np.ndarray, slope: np.ndarray,
                     rhs: np.ndarray):
    """Solve (I + tau_r*(-Lap)*diag(slope_r)) x_r = rhs_r for the k rows of rhs,
    which is overwritten, with one LAPACK ?gbsv call; returns (x, info).

    The Jacobians go into the gbsv band layout (diagonal on row 2b, rows 0..b-1
    left for the fill-in) of a C-ordered (k, n, 3b+1) buffer, which is the
    Fortran-ordered band of the (k n) x (k n) block-diagonal matrix of all k
    of them: the corners of L.band outside the matrix are zero. Elimination
    multiplies those off-block zeros by zero multipliers and partial pivoting
    never picks them, so each block gets the arithmetic of a call of its own.
    info > 0 is the 1-based column of the first zero pivot.
    """
    k, n, b = len(rhs), L.n, L.half_bandwidth
    buf = np.zeros((k, n, 3 * b + 1))
    ab = buf.transpose(0, 2, 1)
    ab[:, b:] = (tau[:, None] * slope)[:, None, :] * L.band
    ab[:, 2 * b] += 1.0
    _, _, x, info = _gbsv(b, b, buf.reshape(k * n, 3 * b + 1).T, rhs.reshape(k * n),
                          overwrite_ab=1, overwrite_b=1)
    return x.reshape(k, n), info


def _newton_batch(graph, lam, L, tau, rhs, g_next, tol, max_iter, paths=None):
    """Solve y + tau*(-Lap) b(y + g_next) = rhs row by row for a stack of P steps.

    lam, tau and tol have shape (P,), rhs and g_next (P, n). Each row runs its own
    damped Newton iteration in lock step with the others: one block-diagonal
    band solve (``_solve_jacobians``, a single LAPACK call) for the Jacobians
    of all rows still above their target, which is exact because the blocks
    share no entry, then a line search masked per row. The Jacobian is not
    symmetric, hence a general LU; with slopes >= 0 (zero ones included, at
    lam = 0) it is column diagonally dominant, so the LU's partial pivoting
    swaps no rows. Rows with a non-finite residual are left untouched for the
    caller's guard. Returns (y, selection).
    """
    mat = L.matrix
    n = L.n

    def failure(j, what):
        where = "" if paths is None else f", path {paths[j]}"
        return SolverError(f"implicit step failed: {what} "
                           f"(tau={tau[j]:.3e}, lam={lam[j]:.3e}, n={n}{where})")

    target = tol * (1.0 + _dual_norms(L, rhs))
    lam_full = np.repeat(lam, n).reshape(-1, n)  # once per call, for every _drift
    y = rhs.copy()
    value, slope, sel = _drift(graph, lam_full, y + g_next)
    res_vec = y + tau[:, None] * (value @ mat) - rhs
    res = _dual_norms(L, res_vec)
    live = np.ones(len(tau), dtype=bool)
    for _ in range(max_iter):
        act = np.flatnonzero(live & (res > target))
        if act.size == 0:
            break
        # every row active: index with a slice, which copies no rows
        rows = slice(None) if act.size == len(tau) else act
        delta, info = _solve_jacobians(L, tau[rows], slope[rows], -res_vec[rows])
        if info != 0:
            # info is the first zero pivot's 1-based column; its block names the path
            r = (info - 1) // n
            raise failure(act[r], f"singular Newton Jacobian (gbsv info={info - r * n})")
        # line search per row; rows that accept leave the pending set, so y,
        # res and the others still hold the pending rows' current iterate
        pending = act
        step = 1.0
        for _ in range(30):
            y_try = y[rows] + step * delta
            value, s_try, sel_try = _drift(graph, lam_full[rows], y_try + g_next[rows])
            vec_try = y_try + tau[rows, None] * (value @ mat) - rhs[rows]
            res_try = _dual_norms(L, vec_try)
            ok = res_try < res[rows]
            # when every pending row accepts, write back without a gather
            done, take = (rows, slice(None)) if ok.all() else (pending[ok], ok)
            y[done], res_vec[done], res[done] = y_try[take], vec_try[take], res_try[take]
            slope[done], sel[done] = s_try[take], sel_try[take]
            pending, delta = pending[~ok], delta[~ok]
            if pending.size == 0:
                break
            rows = pending
            step *= 0.5
        live[pending] = False

    failed = np.flatnonzero(res > target)
    if failed.size:
        j = failed[0]
        raise failure(j, f"residual {res[j]:.3e} above target {target[j]:.3e}")
    return y, sel


def implicit_step(graph: MonotoneGraph, lam: float, L: DirichletLaplacian, tau: float,
                  rhs: np.ndarray, g_next: np.ndarray, *,
                  newton_tol: float = 1e-10, newton_max_iter: int = 50):
    """One backward Euler step: solve y + tau*(-Lap) b(y + g_next) = rhs.

    Returns (y, selection) with the dual-norm residual below
    newton_tol * (1 + |rhs|); raises SolverError when damped Newton misses
    that target. This is the one-row case of the batched core.
    """
    if tau <= 0:
        raise ValueError("tau must be positive")
    y, sel = _newton_batch(graph, np.array([float(lam)]), L, np.array([float(tau)]),
                           np.array(rhs, dtype=float, ndmin=2),
                           np.array(g_next, dtype=float, ndmin=2),
                           np.array([float(newton_tol)]), newton_max_iter)
    return y[0], sel[0]


def check_gates(graph: MonotoneGraph, lam, allow_nonsurjective: bool = False):
    """Refuse what the theory does not cover: a graph of bounded range unless allowed,
    lam = 0 unless the graph is globally Lipschitz, lam = 0 mixed with lam > 0."""
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    if not graph.surjective and not allow_nonsurjective:
        raise SolverError(
            "graph range is not all of R; set allow_nonsurjective to run it anyway"
        )
    if not (np.all(lam > 0) or np.all(lam == 0)):
        raise ValueError(f"lam must be positive on every path or zero on every path, got {lam}")
    if lam[0] == 0 and graph.lipschitz_slope is None:
        raise SolverError("lam = 0 requires a globally Lipschitz single-valued graph")


def check_lambdas(lambdas) -> np.ndarray:
    """The sweep's lambdas as floats, refused unless positive and strictly decreasing."""
    lams = np.asarray(list(lambdas), dtype=float)
    if len(lams) < 1 or np.any(lams <= 0) or np.any(np.diff(lams) >= 0):
        raise ValueError("lambdas must be a strictly decreasing positive list")
    return lams


def check_levels(levels) -> list[int]:
    """The mollifier levels as ints, refused unless positive and strictly increasing."""
    levels = [int(n) for n in levels]
    if len(levels) < 1 or any(n < 1 for n in levels) or any(np.diff(levels) <= 0):
        raise ValueError("levels must be a strictly increasing list of positive ints")
    return levels


def march_batch(graph: MonotoneGraph, cfg: SolverConfig, L: DirichletLaplacian,
                times: Sequence[np.ndarray], gm_values: Sequence[np.ndarray], x0,
                lam=None):
    """Backward Euler on y = X - g for P paths at once, in lock step.

    times[p] is the grid of path p and gm_values[p] its driving integral on
    that grid, shape (len(times[p]), n); x0 is one datum (n,) or one per path
    (P, n), and lam one regularization parameter or one per path (cfg.lam
    when omitted). Shorter grids are padded with zero-length steps that hold the
    integral at its last value; a padded step is an exact no-op that no
    Newton iteration touches. Each path keeps the per-step tolerance
    newton_tol / (its own step count), which keeps its accumulated
    integral-identity defect at the newton_tol scale. Returns the per-path
    lists (states, selections).
    """
    n_paths = len(times)
    lam = np.broadcast_to(np.asarray(cfg.lam if lam is None else lam, dtype=float), (n_paths,))
    check_gates(graph, lam, cfg.allow_nonsurjective)
    steps = np.array([len(t) - 1 for t in times])
    for m, vals in zip(steps.tolist(), gm_values):
        if np.shape(vals) != (m + 1, L.n):
            raise ValueError(f"gm values must have shape {(m + 1, L.n)}, got {np.shape(vals)}")
    n_max = int(steps.max())
    # padded step i of path p reads its grid point min(i, steps[p]), one gather
    # into the concatenated grids and values; a padded step has tau = 0
    first = np.cumsum(steps + 1) - (steps + 1)
    at = first[:, None] + np.minimum(np.arange(n_max + 1), steps[:, None])
    taus = np.diff(np.concatenate(times, dtype=float)[at], axis=1)
    if np.any(taus[np.arange(n_max) < steps[:, None]] <= 0):
        raise ValueError("time grids must be strictly increasing")
    gm = np.concatenate(gm_values, dtype=float)[at]
    x0 = np.broadcast_to(np.asarray(x0, dtype=float), (n_paths, L.n))

    states = np.empty_like(gm)
    selections = np.empty_like(gm)
    states[:, 0] = x0
    selections[:, 0] = _drift(graph, np.repeat(lam, L.n).reshape(n_paths, L.n), states[:, 0])[2]
    y = x0 - gm[:, 0]
    step_tol = cfg.newton_tol / np.maximum(1, steps)
    for i in range(n_max):
        act = np.flatnonzero(steps > i)
        y_new, sel = _newton_batch(graph, lam[act], L, taus[act, i], y[act], gm[act, i + 1],
                                   step_tol[act], cfg.newton_max_iter, paths=act)
        x_new = y_new + gm[act, i + 1]
        bad = np.flatnonzero(~np.all(np.isfinite(x_new), axis=1))
        if bad.size:
            p = act[bad[0]]
            raise SolverError(f"non-finite state at t={times[p][i + 1]:.6g} on path {p}")
        y[act] = y_new
        states[act, i + 1] = x_new
        selections[act, i + 1] = sel
    return ([states[p, :m + 1] for p, m in enumerate(steps)],
            [selections[p, :m + 1] for p, m in enumerate(steps)])


def additive_path_solve(graph: MonotoneGraph, cfg: SolverConfig, L: DirichletLaplacian,
                        x0: np.ndarray, gm: IntegralPath) -> Trajectory:
    """Backward Euler on y = X - g along the grid of the driving integral."""
    states, selections = march_batch(graph, cfg, L, [gm.times], [gm.values], x0)
    return Trajectory(times=np.asarray(gm.times, dtype=float), states=states[0],
                      selections=selections[0], lam=cfg.lam)


def strong_identity_residual(traj: Trajectory, gm: IntegralPath, x0: np.ndarray,
                             L: DirichletLaplacian) -> np.ndarray:
    """Dual norms of X(t_i) - Lap sum_j tau_j drift_j - x0 - g(t_i).

    The drift section is selections + lam * states, the quantity the scheme
    actually integrates; at lam = 0 it coincides with the graph section.
    """
    drift = traj.selections + traj.lam * traj.states
    cum = np.zeros_like(traj.states)
    np.cumsum(np.diff(traj.times)[:, None] * drift[1:], axis=0, out=cum[1:])
    defect = traj.states - x0[None, :] - gm.values + cum @ L.matrix.T
    return _dual_norms(L, defect)


def _spacetime_integral(times: np.ndarray, L: DirichletLaplacian, values: np.ndarray):
    """Backward Euler quadrature sum_i tau_i * w * sum_nodes values[..., i, :] of
    fields given at t_1, ..., t_N; leading axes (one per lam) are kept."""
    return np.sum(np.diff(times) * L.grid.weight * np.sum(values, axis=-1), axis=-1)


def trajectory_diagnostics(traj: Trajectory, graph: MonotoneGraph,
                           L: DirichletLaplacian) -> dict:
    """Dual norms plus the space-time integrals of the potential at the
    resolvent point and of the conjugate at the selection."""
    z = graph.resolvent(traj.lam, traj.states[1:]) if traj.lam > 0 else traj.states[1:]
    return {
        "dual_norms": _dual_norms(L, traj.states),
        "potential_integral": float(_spacetime_integral(traj.times, L, graph.potential(z))),
        "conjugate_integral": float(_spacetime_integral(
            traj.times, L, graph.conjugate(traj.selections[1:]))),
    }


# ---------------------------------------------------------------------------
# regularization sweep

@dataclass
class LambdaSweepReport:
    lambdas: np.ndarray
    sup_diffs: np.ndarray            # sup-t dual distance between consecutive solves
    gap_integrals: np.ndarray        # int |X - resolvent(lam, X)|^2 over space-time
    gap_ratios: np.ndarray           # gap_integrals / lam
    potential_integrals: np.ndarray  # int j(z)
    conjugate_integrals: np.ndarray  # int j*(eta)
    initial_norm_sq: float


def lambda_sweep(graph: MonotoneGraph, cfg: SolverConfig, L: DirichletLaplacian,
                 x0: np.ndarray, gm: IntegralPath, lambdas: Sequence[float]) -> LambdaSweepReport:
    """Solve one pathwise problem for a decreasing list of regularization
    parameters in one batched march and report the convergence quantities."""
    lams = check_lambdas(lambdas)
    states, sels = march_batch(graph, cfg, L, [gm.times] * len(lams),
                               [gm.values] * len(lams), x0, lam=lams)
    states, sels = np.stack(states), np.stack(sels)
    z = graph.resolvent(lams[:, None, None], states[:, 1:])
    diffs = np.diff(states, axis=0)
    gaps = _spacetime_integral(gm.times, L, (states[:, 1:] - z) ** 2)

    return LambdaSweepReport(
        lambdas=lams,
        sup_diffs=_dual_norms(L, diffs.reshape(-1, L.n)).reshape(diffs.shape[:2]).max(axis=1),
        gap_integrals=gaps,
        gap_ratios=gaps / lams,
        potential_integrals=_spacetime_integral(gm.times, L, graph.potential(z)),
        conjugate_integrals=_spacetime_integral(gm.times, L, graph.conjugate(sels[:, 1:])),
        initial_norm_sq=float(hminus1_norm_sq_rows(L, np.asarray(x0)[None, :])[0]),
    )


# ---------------------------------------------------------------------------
# fixed-point solve for multiplicative noise

@dataclass
class PicardResult:
    trajectories: list
    base_times: np.ndarray
    windows: list
    window_distances: list
    window_factors: list
    iterations: int
    converged: bool
    lipschitz_estimate: float
    window_length: float


def _window_plan_checks(paths: Sequence[MartingalePath]):
    bases = [p.times[p.base_indices] for p in paths]
    if (any(len(b) != len(bases[0]) for b in bases)
            or not np.allclose(np.stack(bases), bases[0], rtol=0, atol=1e-12)):
        raise ValueError("all paths must share the same uniform base grid")
    return bases[0]


def picard_solve(graph: MonotoneGraph, B: DiffusionCoefficient, spec: NoiseSpec,
                 cfg: SolverConfig, L: DirichletLaplacian, x0: np.ndarray,
                 paths: Sequence[MartingalePath]) -> PicardResult:
    """Fixed-point construction of the multiplicative-noise solution.

    Iterates X -> additive solve with coefficient frozen at the left limits of
    the previous iterate, over consecutive time windows. Stops a window when
    the ensemble distance sup_t mean_paths |X_new - X_prev|^2 drops below
    picard_tol; raises NonContractionError after three consecutive
    non-contracting sweeps.
    """
    if len(paths) == 0:
        raise ValueError("need at least one path")
    x0 = np.asarray(x0, dtype=float)
    n_paths = len(paths)
    base_times = _window_plan_checks(paths)
    n_base = len(base_times) - 1
    dt_eff = base_times[1] - base_times[0]

    k_est = lipschitz_constant(B, spec, L, seed=0)
    limit = contraction_time_limit(k_est, cfg.epsilon)
    adaptive = cfg.window_T0 is None
    if adaptive:
        m0 = n_base if not np.isfinite(limit) else max(1, min(n_base, int(limit / dt_eff)))
    else:
        m0 = max(1, min(n_base, int(round(cfg.window_T0 / dt_eff))))

    # each window is solved in place: its slice of states starts as copies of
    # its first row, the datum, and every sweep overwrites it with the new iterate
    states_full = [np.tile(x0, (len(p.times), 1)) for p in paths]
    sel_full = [np.empty((len(p.times), L.n)) for p in paths]

    windows, window_distances, window_factors = [], [], []
    total_iters = 0
    widened = False
    b_start = 0
    while b_start < n_base:
        m_cur = min(10 * m0 if widened else m0, n_base - b_start)
        b_end = b_start + m_cur
        spans = [slice(p.base_indices[b_start], p.base_indices[b_end] + 1) for p in paths]
        local_base = [p.base_indices[b_start:b_end + 1] - sp.start
                      for p, sp in zip(paths, spans)]
        iterate = [st[sp] for st, sp in zip(states_full, spans)]
        for it in iterate:
            it[1:] = it[0]

        dists, factors = [], []
        converged_window = False
        for _ in range(cfg.picard_max_iter):
            # one coefficient evaluation for the left limits of every path
            lefts = B.mode_fields_batch(np.concatenate([it[:-1] for it in iterate]), L)
            gms = ito_sums(lefts, [p.values[:, sp] for p, sp in zip(paths, spans)])
            new_states, new_sels = march_batch(
                graph, cfg, L, [p.times[sp] for p, sp in zip(paths, spans)], gms,
                np.stack([it[0] for it in iterate]))
            sq_sums = base_grid_norms_sq(
                L, [st - it for st, it in zip(new_states, iterate)], local_base).sum(axis=0)
            for it, st, sf, sel, sp in zip(iterate, new_states, sel_full, new_sels, spans):
                it[:] = st
                sf[sp] = sel
            total_iters += 1
            dist = float(np.max(sq_sums / n_paths))
            if dists and dists[-1] > 0:
                factors.append(dist / dists[-1])
            dists.append(dist)
            if dist < cfg.picard_tol:
                converged_window = True
                break
            if len(factors) >= 3 and all(f >= 1.0 for f in factors[-3:]):
                hint = limit if np.isfinite(limit) else base_times[-1]
                raise NonContractionError(
                    f"fixed-point map not contracting on window of length "
                    f"{m_cur * dt_eff:.4g}; retry with window_T0 <= {0.5 * hint:.4g}"
                )
        if not converged_window:
            raise SolverError(
                f"fixed-point iteration did not reach tol {cfg.picard_tol:.2e} in "
                f"{cfg.picard_max_iter} sweeps (last distance {dists[-1]:.3e})"
            )

        windows.append((float(base_times[b_start]), float(base_times[b_end])))
        window_distances.append(dists)
        window_factors.append(factors)
        if adaptive and not widened and all(f < 0.5 for f in factors):
            widened = True
        b_start = b_end

    trajectories = [
        Trajectory(times=paths[pi].times, states=states_full[pi],
                   selections=sel_full[pi], lam=cfg.lam)
        for pi in range(n_paths)
    ]
    return PicardResult(
        trajectories=trajectories,
        base_times=base_times,
        windows=windows,
        window_distances=window_distances,
        window_factors=window_factors,
        iterations=total_iters,
        converged=True,
        lipschitz_estimate=k_est,
        window_length=m0 * dt_eff,
    )


def base_grid_norms_sq(L: DirichletLaplacian, fields: Sequence[np.ndarray],
                       indices: Sequence[np.ndarray]) -> np.ndarray:
    """Squared dual norms of fields[p][indices[p]] for every path p, in one
    call; indices[p] picks the shared base grid out of path p's own grid, so
    the result has one row per path and one column per base point."""
    rows = np.concatenate([f[idx] for f, idx in zip(fields, indices)])
    return hminus1_norm_sq_rows(L, rows).reshape(len(fields), -1)


def ensemble_sup_mean_sq(trajs_a: Sequence[Trajectory], trajs_b: Sequence[Trajectory],
                         paths: Sequence[MartingalePath], L: DirichletLaplacian) -> float:
    """sup over base grid points of mean over paths of |Xa - Xb|^2 (dual norm)."""
    sq = base_grid_norms_sq(L, [ta.states - tb.states for ta, tb in zip(trajs_a, trajs_b)],
                            [p.base_indices for p in paths])
    return float(np.max(sq.mean(axis=0)))


def ensemble_mean_sup_sq(trajs_a: Sequence[Trajectory], trajs_b: Sequence[Trajectory],
                         L: DirichletLaplacian) -> float:
    """Mean over paths of sup over the full grid of |Xa - Xb|^2 (dual norm)."""
    return float(path_sup_norms_sq(
        L, [ta.states - tb.states for ta, tb in zip(trajs_a, trajs_b)]).mean())


def path_sup_norms_sq(L: DirichletLaplacian, fields: Sequence[np.ndarray]) -> np.ndarray:
    """Sup over the rows of fields[p] of the squared dual norm, one value per
    path p; every row of every path goes through one dual-norm call."""
    lengths = np.array([len(f) for f in fields])
    norms = hminus1_norm_sq_rows(L, np.concatenate(fields))
    return np.maximum.reduceat(norms, np.cumsum(lengths) - lengths)


@dataclass
class GeneralizedResult:
    levels: list
    results: list
    sup_mean_distances: np.ndarray
    mean_sup_distances: np.ndarray
    cauchy_ok: bool

    @property
    def limit(self) -> PicardResult:
        return self.results[-1]


def generalized_solve(graph: MonotoneGraph, B_rough: DiffusionCoefficient, spec: NoiseSpec,
                      cfg: SolverConfig, L: DirichletLaplacian, x0: np.ndarray,
                      levels: Sequence[int], paths: Sequence[MartingalePath]) -> GeneralizedResult:
    """Solve with the coefficient mollified at increasing levels.

    Consecutive ensemble distances are reported in both the sup-of-mean and
    the mean-of-sup metrics; a failure to decrease is flagged, not raised.
    The finest-level ensemble is the generalized solution.
    """
    levels = check_levels(levels)
    results = [picard_solve(graph, mollified(B_rough, n), spec, cfg, L, x0, paths)
               for n in levels]
    sup_mean, mean_sup = [], []
    for a, b in zip(results[:-1], results[1:]):
        sup_mean.append(ensemble_sup_mean_sq(a.trajectories, b.trajectories, paths, L))
        mean_sup.append(ensemble_mean_sup_sq(a.trajectories, b.trajectories, L))
    sup_mean = np.asarray(sup_mean)
    cauchy_ok = bool(np.all(np.diff(sup_mean) <= 0)) if len(sup_mean) >= 2 else True
    return GeneralizedResult(
        levels=levels,
        results=results,
        sup_mean_distances=sup_mean,
        mean_sup_distances=np.asarray(mean_sup),
        cauchy_ok=cauchy_ok,
    )


# ---------------------------------------------------------------------------
# pathwise energy identity

def ito_residual(traj: Trajectory, gm: IntegralPath, path: MartingalePath,
                 L: DirichletLaplacian) -> np.ndarray:
    """Defect of the discrete energy identity for the squared dual norm.

    R(t_i) = |X(t_i)|^2 - |X(0)|^2 + 2 sum <X, drift>_2 tau
             - 2 sum <X(t-), dg>_{-1} - [G . M](t_i),

    with the realized quadratic variation reconstructed from the stored
    integrand. For jump-only noise the defect is exactly the backward Euler
    remainder and shrinks linearly with the step; a Wiener component adds the
    realized-versus-compensated variation gap of order sqrt(step).
    """
    from .noise import realized_qv

    if gm.integrand is None:
        raise ValueError("gm must carry its integrand to reconstruct the variation")
    if len(gm.times) != len(traj.times):
        raise ValueError("trajectory and integral are on different grids")
    states = traj.states
    drift = traj.selections + traj.lam * states
    w = L.grid.weight
    dtau = np.diff(traj.times)

    norms_sq = hminus1_norm_sq_rows(L, states)
    drift_cum = np.cumsum(dtau * w * np.sum(states[1:] * drift[1:], axis=1))
    dg = np.diff(gm.values, axis=0)
    lifted = spectral_apply(L, 1.0 / L.eigenvalues, dg.T)  # (n, N) columns (-Lap)^{-1} dg_j
    mart_cum = np.cumsum(w * np.sum(states[:-1] * lifted.T, axis=1))
    qv = realized_qv(gm.integrand, path, L)

    out = np.zeros(len(traj.times))
    out[1:] = (norms_sq[1:] - norms_sq[0] + 2.0 * drift_cum - 2.0 * mart_cum - qv[1:])
    return out
