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
ensemble advance in lock step, in the held layout of ``noise``, where a held
step has length zero. Every path marches through every window; a done path's
guess has an exactly zero residual, so it never enters a solve. The march
walks the grid in windows of W steps and solves each window all at once
(Gander 2015): backward Euler over steps 1..W is one system
F_i = y_i + tau_i (-Lap) b(y_i + g_i) - y_{i-1} = 0, whose Jacobian in
step-major order is a band with kl = n and ku = b, the stencil's half-width:
I + tau_i (-Lap) diag(b'_i) on the diagonal and -I n rows below it. W is the
most steps whose band buffer, 8 (2n + b + 1) n P W bytes, fits in 256 KiB, or
1 when that is fewer than 8: one 1D path at n = 15 gets W = 68, ensembles of
16 paths at n = 15 and 2D grids from 7x7 up get W = 1. A window of one step
uses the band kl = ku = b and accepts a line-search trial when its residual
falls, which is the step-by-step arithmetic bit for bit. A window that misses
its targets, stalls or hits a zero pivot is marched again step by step, which
raises the error of the step that fails. Per Newton iterate there is one
resolvent solve (value, slope and selection together) and one LAPACK call
(``?gtsv`` for single 1D steps, else ``?gbsv``) for all windows above target:
their Jacobians, built in one array expression, are one block-diagonal band
with no -I across a path seam. Elimination never mixes the blocks, so every
path gets the arithmetic of a solve of its own. The line search takes one
step length per window. ``implicit_step`` is the one-path, one-step case, and
a one-node grid takes the same Newton iteration as any other.
Each path may carry its own lam, so ``lambda_sweep`` solves its whole list in
one march. The gates live here (``check_gates``); the config loader calls them.

Multiplicative noise is handled by the fixed-point map Phi: a candidate
process X yields the frozen coefficient t -> B(X(t-)), whose additive solve is
the next iterate. Phi contracts in the ensemble norm sup_t E| . |^2 on short
time windows; the window length is derived from the measured Lipschitz
constant of B and the contraction threshold (1 - 6 eps) / (1 + 6/eps) / k,
then relaxed when the observed contraction factor is comfortable. From the
second sweep on, each march starts Newton at the last iterate (``warm``); a
held step starts where the row before does, and an untouched entry keeps the
last iterate bit for bit. The discrete system is lower triangular (X_i needs
only X_0..X_{i-1}), so one forward pass reaches the sweeps' fixed point to
Newton tolerance: ``causal_solve``, a march at W = 1 whose ``coeff`` adds
sum_k B_k(X_i) dM_k to step i+1's driving integral, the drift-implicit,
noise-explicit Euler scheme (Higham & Kloeden 2006). ``simulate-multiplicative``
keeps ``picard_solve``, the paper's construction. Rough coefficients are
mollified at increasing levels, each solved by ``causal_solve``, and reported
with their Cauchy distances.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass
from importlib.machinery import EXTENSION_SUFFIXES
from importlib.util import find_spec, module_from_spec, spec_from_file_location
from typing import Optional, Sequence

import numpy as np

from .errors import NonContractionError, SolverError
from .grid import DirichletLaplacian, hminus1_norm_sq_rows, spectral_apply
from .monotone import MonotoneGraph
from .noise import (
    DiffusionCoefficient,
    HeldEnsemble,
    IntegralPath,
    MartingalePath,
    MollifiedDiffusion,
    NoiseSpec,
    held_steps,
    hold_tails,
    ito_sums,
    lipschitz_constant,
    realized_qv,
)


def _load_flapack(scipy_dir: str):
    """scipy's LAPACK wrappers, from their file: the ``scipy.linalg`` package is slow to import."""
    path = os.path.join(scipy_dir, "linalg", "_flapack" + EXTENSION_SUFFIXES[0])
    if not os.path.isfile(path):
        from importlib.metadata import version  # ~40 ms, so only on failure

        raise ImportError(f"scipy's LAPACK wrappers {path} are missing (scipy {version('scipy')})")
    spec = spec_from_file_location("scipy.linalg._flapack", path)  # by an ExtensionFileLoader
    module = module_from_spec(spec)
    spec.loader.exec_module(module)
    return sys.modules.setdefault(spec.name, module)  # later scipy.linalg imports reuse it


_flapack = (sys.modules.get("scipy.linalg._flapack")
            or _load_flapack(os.path.dirname(find_spec("scipy").origin)))
_gbsv, _gtsv = _flapack.dgbsv, _flapack.dgtsv
# windows of steps are solved at once while their band buffer fits in this many
# bytes; fewer than _MIN_WINDOW steps cost more per step than single steps
_WINDOW_BYTES = 256 * 1024
_MIN_WINDOW = 8


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
        if self.newton_max_iter < 0 or self.picard_max_iter < 1:
            raise ValueError("newton_max_iter must be >= 0 and picard_max_iter >= 1")
        if self.window_T0 is not None and self.window_T0 <= 0:
            raise ValueError("window_T0 must be positive when set")


@dataclass
class Trajectory:
    """The solution record: states X(t_i) and the drift selections eta(t_i).

    One path has ``times`` (N+1,), ``states`` and ``selections`` (N+1, n);
    held paths, in the layout of ``noise``, have ``times`` (P, N+1), ``states``
    and ``selections`` (P, N+1, n). ``selections`` is the regularized selection
    (the Yosida value at the state, or the minimal section when lam = 0); the
    discrete evolution integrates ``selections + lam * states``.
    """

    times: np.ndarray
    states: np.ndarray
    selections: np.ndarray
    lam: float

    @property
    def trajectories(self) -> list:
        """One one-path ``Trajectory`` per held path: views of its rows up to its last step."""
        return [Trajectory(times=self.times[p, :m + 1], states=self.states[p, :m + 1],
                           selections=self.selections[p, :m + 1], lam=self.lam)
                for p, m in enumerate(held_steps(self.times))]


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
    if lam.flat[0] > 0:
        yos, slope = graph.yosida_and_slope(lam, u)
        return yos + lam * u, slope + lam, yos
    value = np.asarray(graph.minimal_section(u))
    return value, np.asarray(graph.section_slope(u)), value


def _dual_norms(L: DirichletLaplacian, rows: np.ndarray) -> np.ndarray:
    return np.sqrt(hminus1_norm_sq_rows(L, rows))


def _solve_jacobians(L: DirichletLaplacian, tau: np.ndarray, slope: np.ndarray,
                     rhs: np.ndarray):
    """Solve the Newton systems of k windows of w steps with one LAPACK call;
    rhs (k, w, n) is overwritten; returns (x, info, routine).

    A window's Jacobian is I + tau_i*(-Lap)*diag(slope_i) on the diagonal and -I
    n rows below it, a band with kl = n and ku = b (kl = ku = b when w = 1).
    Single tridiagonal steps (1D, n >= 2) go to ?gtsv, the rest to ?gbsv in its layout
    (diagonal on row kl + b, fill-in on rows 0..kl-1) of a C-ordered (k, w, n, 2kl+b+1)
    buffer: either way the block-diagonal matrix of all k windows, since the corners of
    L.band are zero and no -I crosses a seam. Elimination multiplies those zeros by zero
    multipliers and pivoting never picks them (slopes >= 0: column diagonally dominant,
    so ?gtsv swaps no rows), so each window gets the arithmetic of its own call. info > 0
    is the 1-based column of the first zero pivot.
    """
    n, b = L.n, L.half_bandwidth
    w = rhs.shape[1]
    m = rhs.size // n  # steps of all windows
    ts = tau.reshape(m, 1) * slope.reshape(m, n)
    if w == 1 and b == 1:
        up, diag, low = (L.band[:, None] * ts).reshape(3, m * n)
        *_, x, info = _gtsv(low[:-1], diag + 1.0, up[1:], rhs.reshape(m * n), overwrite_dl=1,
                            overwrite_d=1, overwrite_du=1, overwrite_b=1)
        return x.reshape(rhs.shape), info, "gtsv"
    kl = n if w > 1 else b
    buf = np.zeros((m, n, 2 * kl + b + 1))
    ab = buf.transpose(0, 2, 1)
    ab[:, kl:kl + 2 * b + 1] = ts[:, None, :] * L.band
    ab[:, kl + b] += 1.0
    buf.reshape(-1, w, n, buf.shape[2])[:, :-1, :, -1] = -1.0  # empty when w = 1
    _, _, x, info = _gbsv(kl, b, buf.reshape(m * n, -1).T, rhs.reshape(m * n),
                          overwrite_ab=1, overwrite_b=1)
    return x.reshape(rhs.shape), info, "gbsv"


def _newton_batch(graph, lam, L, tau, y0, g, tol, max_iter, name_paths=False, guess=None):
    """Solve the backward Euler steps y_i + tau_i*(-Lap) b(y_i + g_i) = y_{i-1},
    i = 1..w, of k windows at once, each from its start y_0.

    lam and tol have shape (k,), tau (k, w), y0 (k, n) and g (k, w, n). Each
    window runs its own damped Newton iteration, from ``guess`` (k, w, n) or
    else from a guess that holds its start, in lock step with the others: one
    band solve (``_solve_jacobians``) for all windows with a step above its
    target tol * (1 + |y_{i-1}|), y_{i-1} at the current iterate, then a line
    search with one step length per window. One step accepts a trial when its
    residual falls, a longer window when sum_i (res_i / target_i)^2 falls. With
    slopes >= 0 the Jacobian is column diagonally dominant. Windows with a
    non-finite residual never enter the solve, which would spread it to every
    window. Returns (y, selection), each (k, w, n).
    """
    mat = L.matrix
    k, w, n = g.shape

    def failure(j, i, what):
        where = f", path {j}" if name_paths else ""
        return SolverError(f"implicit step failed: {what} "
                           f"(tau={tau[j, i]:.3e}, lam={lam[j]:.3e}, n={n}{where})")

    def residual(y, start, tau, value):
        # y_i + tau_i*(-Lap) b(y_i + g_i) - y_{i-1}, with y_0 = start
        prev = start[:, None] if w == 1 else np.concatenate((start[:, None], y[:, :-1]), axis=1)
        return y + tau[:, :, None] * (value.reshape(-1, n) @ mat).reshape(value.shape) - prev

    def targets():  # tol * (1 + |y_{i-1}|) at the current iterate
        return tol[:, None] * (1.0 + _dual_norms(L, np.concatenate((y0[:, None], y[:, :-1]), 1)))

    lam_full = np.repeat(lam, w * n).reshape(k, w, n)  # once per call, for every _drift
    y = np.repeat(y0[:, None], w, axis=1) if guess is None else guess.copy()
    value, slope, sel = _drift(graph, lam_full, y + g)
    res_vec = residual(y, y0, tau, value)
    res = _dual_norms(L, res_vec)
    target = targets()
    # a trial is accepted only with a finite residual, so a window with a
    # non-finite one is left out of every solve from the start
    live = np.logical_and.reduce(np.isfinite(res), axis=1)
    for _ in range(max_iter):
        act = np.flatnonzero(live & np.logical_or.reduce(res > target, axis=1))
        if act.size == 0:
            break
        # every window active: index with a slice, which copies no rows
        rows = slice(None) if act.size == k else act
        delta, info, routine = _solve_jacobians(L, tau[rows], slope[rows], -res_vec[rows])
        if info != 0:
            # info is the first zero pivot's 1-based column; its block names the path
            r, c = divmod(info - 1, w * n)
            raise failure(act[r], c // n, f"singular Newton Jacobian ({routine} info={c % n + 1})")
        # line search per window; windows that accept leave the pending set, so
        # y, res and the others still hold the pending windows' current iterate
        pending = act
        step = 1.0
        for _ in range(30):
            y_try = y[rows] + step * delta
            value, s_try, sel_try = _drift(graph, lam_full[rows], y_try + g[rows])
            vec_try = residual(y_try, y0[rows], tau[rows], value)
            res_try = _dual_norms(L, vec_try)
            if w == 1:
                ok = res_try[:, 0] < res[rows, 0]
            else:
                merit = np.sum((np.stack((res_try, res[rows])) / target[rows]) ** 2, axis=2)
                ok = merit[0] < merit[1]
            # when every pending window accepts, write back without a gather
            done, take = (rows, slice(None)) if ok.all() else (pending[ok], ok)
            y[done], res_vec[done], res[done] = y_try[take], vec_try[take], res_try[take]
            slope[done], sel[done] = s_try[take], sel_try[take]
            pending, delta = pending[~ok], delta[~ok]
            if pending.size == 0:
                break
            rows = pending
            step *= 0.5
        live[pending] = False
        if w > 1:  # the targets follow y_{i-1}; a single step's start is fixed
            target = targets()

    failed = np.flatnonzero(np.logical_or.reduce(res > target, axis=1))
    if failed.size:
        j = failed[0]
        i = np.argmax(res[j] > target[j])
        raise failure(j, i, f"residual {res[j, i]:.3e} above target {target[j, i]:.3e}")
    return y, sel


def implicit_step(graph: MonotoneGraph, lam: float, L: DirichletLaplacian, tau: float,
                  rhs: np.ndarray, g_next: np.ndarray, *,
                  newton_tol: float = 1e-10, newton_max_iter: int = 50):
    """One backward Euler step: solve y + tau*(-Lap) b(y + g_next) = rhs.

    Returns (y, selection) with the dual-norm residual below
    newton_tol * (1 + |rhs|); raises SolverError when damped Newton misses
    that target. This is the one-row, one-step case of the batched core.
    """
    if tau <= 0:
        raise ValueError("tau must be positive")
    y, sel = _newton_batch(graph, np.array([float(lam)]), L, np.array([[float(tau)]]),
                           np.array(rhs, dtype=float, ndmin=2),
                           np.array(g_next, dtype=float, ndmin=3),
                           np.array([float(newton_tol)]), newton_max_iter)
    return y[0, 0], sel[0, 0]


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


def _window_length(L: DirichletLaplacian, n_paths: int) -> int:
    """Steps per window: the most whose band buffer fits in _WINDOW_BYTES, or 1
    when that is fewer than _MIN_WINDOW."""
    w = _WINDOW_BYTES // (8 * (2 * L.n + L.half_bandwidth + 1) * L.n * n_paths)
    return w if w >= _MIN_WINDOW else 1


def march_batch(graph: MonotoneGraph, cfg: SolverConfig, L: DirichletLaplacian,
                times: np.ndarray, gm: np.ndarray, x0, lam=None, warm=None, coeff=None):
    """Backward Euler on y = X - g for P paths at once, in lock step.

    times (P, N+1) holds the grids and gm (P, N+1, n) the driving integrals,
    in the held layout of ``noise``; each path's step count is read off its
    grid. Every path marches through every window; a done path has only held
    steps there, of length zero, so its guess has an exactly zero residual and
    it never enters a solve. x0 is one datum (n,) or one per path (P, n), and
    lam one regularization parameter or one per path (cfg.lam when omitted).
    Each path keeps the per-step tolerance newton_tol / (its own step count),
    which keeps its accumulated integral-identity defect at the newton_tol
    scale. The steps are solved in windows of ``_window_length`` steps, all at
    once, and a window that fails is marched step by step. Returns the held
    (states, selections), each (P, N+1, n). Held states ``warm`` move only
    where Newton starts: step i at warm_i - g_i, a step of zero length at the
    guess of the row before or the window start; an entry left there keeps warm_i.
    ``coeff`` = (B, values), with held mode values (P, N+1, K), adds B's Ito sum
    to gm causally, step i+1 taking sum_k B_k(X_i) (M_k(t_{i+1}) - M_k(t_i)) at the
    state just solved; the march then runs at W = 1.
    """
    times = np.asarray(times, dtype=float)
    gm = np.asarray(gm, dtype=float)
    n_paths = len(times)
    lam = np.broadcast_to(np.asarray(cfg.lam if lam is None else lam, dtype=float), (n_paths,))
    check_gates(graph, lam, cfg.allow_nonsurjective)
    if gm.shape != times.shape + (L.n,):
        raise ValueError(f"gm values must have shape {times.shape + (L.n,)}, got {gm.shape}")
    steps = held_steps(times)
    taus = np.diff(times, axis=1)
    if np.any((taus > 0) != (np.arange(taus.shape[1]) < steps[:, None])):
        raise ValueError("time grids must be strictly increasing")
    x0 = np.broadcast_to(np.asarray(x0, dtype=float), (n_paths, L.n))

    states, selections = np.empty((2,) + gm.shape)
    states[:, 0] = x0
    selections[:, 0] = _drift(graph, np.repeat(lam, L.n).reshape(n_paths, L.n), states[:, 0])[2]
    y = x0 - gm[:, 0]
    step_tol = cfg.newton_tol / np.maximum(1, steps)
    ito = np.zeros_like(y)  # coeff's running Ito sum

    def advance(i, w):
        # steps i+1..i+w of every path as one stack of windows; done paths never enter a solve
        cols = slice(i + 1, i + w + 1)
        g, guess = gm[:, cols], None
        if coeff is not None:  # w = 1: B at the left limit X_i; a held step adds zero
            B, values = coeff
            fields = B.mode_fields_batch(states[:, i], L)[:, None]  # (P, 1, K, n)
            ito[:] += ito_sums(fields, values[:, i:i + 2])[:, 1]
            g = g + ito[:, None]
        if warm is not None:  # a held step (they end each row) starts where the row before does
            starts = np.concatenate((y[:, None], warm[:, cols] - g), axis=1)
            guess = starts[np.arange(n_paths)[:, None],
                           np.minimum(np.arange(1, w + 1), np.clip(steps - i, 0, w)[:, None])]
        y_new, sel = _newton_batch(graph, lam, L, taus[:, i:i + w], y, g, step_tol,
                                   cfg.newton_max_iter, name_paths=True, guess=guess)
        x_new = y_new + g if warm is None else np.where(y_new == guess, warm[:, cols], y_new + g)
        bad = np.argwhere(~np.all(np.isfinite(x_new), axis=2).T)  # (step, path), earliest first
        if bad.size:
            j, p = bad[0]
            raise SolverError(f"non-finite state at t={times[p, i + j + 1]:.6g} on path {p}")
        y[:] = y_new[:, -1]
        states[:, cols], selections[:, cols] = x_new, sel

    n_steps, window = int(steps.max()), 1 if coeff is not None else _window_length(L, n_paths)
    for i in range(0, n_steps, window):
        w = min(window, n_steps - i)
        try:
            advance(i, w)
        except SolverError:
            # a window that misses, stalls or hits a zero pivot is marched step by
            # step, which raises the error of the step that fails
            if w == 1:
                raise
            for j in range(i, i + w):
                advance(j, 1)
    hold_tails(steps, states, selections)
    return states, selections


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
    times, values = (np.broadcast_to(a, (len(lams),) + np.shape(a)) for a in (gm.times, gm.values))
    states, sels = march_batch(graph, cfg, L, times, values, x0, lam=lams)
    z = graph.resolvent(lams[:, None, None], states[:, 1:])
    gaps = _spacetime_integral(gm.times, L, (states[:, 1:] - z) ** 2)

    return LambdaSweepReport(
        lambdas=lams,
        sup_diffs=np.sqrt(hminus1_norm_sq_rows(L, np.diff(states, axis=0)).max(axis=1)),
        gap_integrals=gaps,
        gap_ratios=gaps / lams,
        potential_integrals=_spacetime_integral(gm.times, L, graph.potential(z)),
        conjugate_integrals=_spacetime_integral(gm.times, L, graph.conjugate(sels[:, 1:])),
        initial_norm_sq=float(hminus1_norm_sq_rows(L, np.asarray(x0)[None, :])[0]),
    )


# ---------------------------------------------------------------------------
# multiplicative noise: the causal pass and the fixed-point solve

def causal_solve(graph: MonotoneGraph, B: DiffusionCoefficient, cfg: SolverConfig,
                 L: DirichletLaplacian, x0: np.ndarray, ens: HeldEnsemble) -> Trajectory:
    """The fixed point of Phi on a held ensemble in one forward pass: X_i needs only
    X_0..X_{i-1}, so a march with B at each left limit as it is reached (``coeff``)
    is the sweeps' limit. Returns the held ``Trajectory`` of the ensemble."""
    states, selections = march_batch(graph, cfg, L, ens.times, np.zeros(ens.times.shape + (L.n,)),
                                     x0, coeff=(B, ens.values))
    return Trajectory(ens.times, states, selections, cfg.lam)


@dataclass
class PicardResult(Trajectory):
    """The held ``Trajectory`` of the ensemble with the windows and sweeps that built it."""

    base_times: np.ndarray
    windows: list
    window_distances: list
    window_factors: list
    iterations: int
    converged: bool
    lipschitz_estimate: float
    window_length: float


def picard_solve(graph: MonotoneGraph, B: DiffusionCoefficient, spec: NoiseSpec,
                 cfg: SolverConfig, L: DirichletLaplacian, x0: np.ndarray,
                 ens: HeldEnsemble) -> PicardResult:
    """Fixed-point construction of the multiplicative-noise solution.

    Iterates X -> additive solve with coefficient frozen at the left limits of
    the previous iterate, over consecutive time windows, on a held ensemble.
    Stops a window when the ensemble distance sup_t mean_paths |X_new - X_prev|^2
    drops below picard_tol; raises NonContractionError after three consecutive
    non-contracting sweeps.
    """
    n_paths = len(ens.times)
    rows = np.arange(n_paths)[:, None]
    base_times = ens.times[0, ens.base_indices[0]]
    n_base = len(base_times) - 1
    dt_eff = base_times[1] - base_times[0]

    k_est = lipschitz_constant(B, spec, L, seed=0)
    limit = contraction_time_limit(k_est, cfg.epsilon)
    adaptive = cfg.window_T0 is None
    if adaptive:
        m0 = n_base if not np.isfinite(limit) else max(1, min(n_base, int(limit / dt_eff)))
    else:
        m0 = max(1, min(n_base, int(round(cfg.window_T0 / dt_eff))))

    states, selections = np.empty((2,) + ens.times.shape + (L.n,))
    states[:, 0] = x0

    windows, window_distances, window_factors = [], [], []
    widened = False
    b_start = 0
    while b_start < n_base:
        m_cur = min(10 * m0 if widened else m0, n_base - b_start)
        b_end = b_start + m_cur
        # row i of the window is grid point min(lo + i, hi) of each path, so the
        # window is held too; the iterate starts as copies of its first row
        lo, hi = ens.base_indices[:, b_start], ens.base_indices[:, b_end]
        at = np.minimum(lo[:, None] + np.arange((hi - lo).max() + 1), hi[:, None])
        times, values = ens.times[rows, at], ens.values[rows, at]
        local_base = ens.base_indices[:, b_start:b_end + 1] - lo[:, None]
        live = np.arange(at.shape[1] - 1) < (hi - lo)[:, None]
        fields = np.zeros(live.shape + (values.shape[2], L.n))
        iterate = np.repeat(states[rows, lo[:, None]], at.shape[1], axis=1)

        dists, factors = [], []
        for _ in range(cfg.picard_max_iter):
            # one coefficient evaluation for the left limits of every live step;
            # a held step has no increment, so its fields stay zero
            fields[live] = B.mode_fields_batch(iterate[:, :-1][live], L)
            # from the second sweep on, Newton starts at the previous iterate
            new, sel = march_batch(graph, cfg, L, times, ito_sums(fields, values), iterate[:, 0],
                                   warm=iterate if dists else None)
            sq_sums = hminus1_norm_sq_rows(L, (new - iterate)[rows, local_base]).sum(axis=0)
            iterate = new
            dist = float(np.max(sq_sums / n_paths))
            if dists:
                factors.append(dist / dists[-1])
            dists.append(dist)
            if dist < cfg.picard_tol:
                break
            if len(factors) >= 3 and all(f >= 1.0 for f in factors[-3:]):
                hint = limit if np.isfinite(limit) else base_times[-1]
                raise NonContractionError(
                    f"fixed-point map not contracting on window of length "
                    f"{m_cur * dt_eff:.4g}; retry with window_T0 <= {0.5 * hint:.4g}"
                )
        else:
            raise SolverError(
                f"fixed-point iteration did not reach tol {cfg.picard_tol:.2e} in "
                f"{cfg.picard_max_iter} sweeps (last distance {dists[-1]:.3e})"
            )
        states[rows, at], selections[rows, at] = iterate, sel

        windows.append((float(base_times[b_start]), float(base_times[b_end])))
        window_distances.append(dists)
        window_factors.append(factors)
        if adaptive and not widened and all(f < 0.5 for f in factors):
            widened = True
        b_start = b_end

    hold_tails(held_steps(ens.times), states, selections)
    return PicardResult(
        times=ens.times,
        states=states,
        selections=selections,
        lam=cfg.lam,
        base_times=base_times,
        windows=windows,
        window_distances=window_distances,
        window_factors=window_factors,
        iterations=sum(map(len, window_distances)),
        converged=True,
        lipschitz_estimate=k_est,
        window_length=m0 * dt_eff,
    )


def ensemble_mean_sup_sq(states_a: np.ndarray, states_b: np.ndarray,
                         L: DirichletLaplacian) -> float:
    """Mean over paths of sup over the full grid of |Xa - Xb|^2 (dual norm), for
    held (P, N+1, n) states."""
    return float(hminus1_norm_sq_rows(L, states_a - states_b).max(axis=1).mean())


@dataclass
class GeneralizedResult:
    levels: list
    results: list
    sup_mean_distances: np.ndarray
    mean_sup_distances: np.ndarray
    cauchy_ok: bool

    @property
    def limit(self) -> Trajectory:
        return self.results[-1]


def generalized_solve(graph: MonotoneGraph, B_rough: DiffusionCoefficient, cfg: SolverConfig,
                      L: DirichletLaplacian, x0: np.ndarray, levels: Sequence[int],
                      ens: HeldEnsemble) -> GeneralizedResult:
    """Solve a held ensemble with the coefficient mollified at increasing levels,
    each by ``causal_solve``.

    Consecutive ensemble distances are reported in both the sup-of-mean (over
    the base grid) and the mean-of-sup metrics; a failure to decrease is
    flagged, not raised. The finest-level ensemble is the generalized solution.
    """
    levels = check_levels(levels)
    results = [causal_solve(graph, MollifiedDiffusion(B_rough, n), cfg, L, x0, ens)
               for n in levels]
    pairs = list(zip(results[:-1], results[1:]))
    base_sq = [hminus1_norm_sq_rows(L, ens.at_base(a.states - b.states)) for a, b in pairs]
    sup_mean = np.array([sq.mean(axis=0).max() for sq in base_sq])
    return GeneralizedResult(
        levels=levels,
        results=results,
        sup_mean_distances=sup_mean,
        mean_sup_distances=np.array([ensemble_mean_sup_sq(a.states, b.states, L)
                                     for a, b in pairs]),
        cauchy_ok=bool(np.all(np.diff(sup_mean) <= 0)),
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
    lifted = spectral_apply(L, 1.0 / L.eigenvalues, dg)  # rows (-Lap)^{-1} dg_j
    mart_cum = np.cumsum(w * np.sum(states[:-1] * lifted, axis=1))
    qv = realized_qv(gm.integrand, path, L)

    out = np.zeros(len(traj.times))
    out[1:] = (norms_sq[1:] - norms_sq[0] + 2.0 * drift_cum - 2.0 * mart_cum - qv[1:])
    return out
