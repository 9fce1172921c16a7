"""Square-integrable jump martingales in a finite mode basis.

The driving noise is a vector of K independent scalar Levy martingales, one
per mode: a Wiener part with volatility sigma_k plus a compensated compound
Poisson part with intensity lambda_k and a mean-zero jump law. The covariance
operator is then diagonal, Q = diag(v_k) with v_k = sigma_k^2 + lambda_k E[J^2],
and the scalar bracket convention is

    <M>(t) = t * TrQ,       Q_M = Q / TrQ,

so that the integrand norm |G|_{Q_M}^2 d<M> integrates to sum_k v_k |G_k|^2 dt.

Paths are sampled on a uniform base grid with every jump time inserted
exactly, so integrands evaluated at the left endpoint of each sub-interval are
genuine left limits and the integral of a piecewise-constant operator is a
finite sum with no time-discretization error. Sampling is deterministic per
(master seed, path index).

Every integrand is a ``StepOperator``: ``fields[i]`` (K, n) holds on
[b_i, b_{i+1}), the first piece also before b_0 and the last one after the
final breakpoint. Evaluation, differences and the exact budget in ``verify``
all read it that way. A constant integrand (``ConstantOperator``) is the
one-piece step over (-inf, inf), and a plain (K, n) array stands for one.

An ensemble of P paths has one layout from sampling to the march, the held
layout built by ``hold_ensemble``: the grids are one (P, N+1) array, N the
most steps of any path, each row held at its path's final time after its last
step, so held steps have length zero; mode values (P, N+1, K) and driving
integrals, states and selections (P, N+1, n) are held at their last row. A sup
over a path is a max along axis 1, its final value row -1.

Diffusion coefficients map a stack of state fields to one field per mode and
state (``mode_fields_batch``, the one method each variant implements); the
built-in variants are a state-independent family, a spectrally smoothed linear
family and a smoothed superposition (Nemytskii) family. Their squared-Lipschitz
constant in the dual norm is measured on random fields (``lipschitz_constant``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .grid import (
    DirichletLaplacian,
    hminus1_norm_sq_rows,
    mollify,
    smooth_gamma,
)


def rng_for(master_seed: int, index: int) -> np.random.Generator:
    """Independent, reproducible stream for path ``index`` under one master seed."""
    return np.random.default_rng(np.random.SeedSequence(entropy=int(master_seed),
                                                        spawn_key=(int(index),)))


# ---------------------------------------------------------------------------
# jump laws (mean zero by construction, so the compensator drift vanishes)

@dataclass(frozen=True)
class TwoPointJumps:
    """Jumps of +-size with equal probability."""

    size: float

    def __post_init__(self):
        if self.size <= 0:
            raise ValueError(f"jump size must be positive, got {self.size}")

    @property
    def mean_square(self) -> float:
        return self.size * self.size

    def sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
        signs = np.where(rng.random(count) < 0.5, -1.0, 1.0)
        return self.size * signs


@dataclass(frozen=True)
class NormalJumps:
    """Centered Gaussian jumps with standard deviation ``std``."""

    std: float

    def __post_init__(self):
        if self.std <= 0:
            raise ValueError(f"jump std must be positive, got {self.std}")

    @property
    def mean_square(self) -> float:
        return self.std * self.std

    def sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
        return rng.normal(0.0, self.std, size=count)


JumpLaw = Union[TwoPointJumps, NormalJumps]


@dataclass(frozen=True)
class NoiseMode:
    wiener_vol: float = 0.0
    jump_intensity: float = 0.0
    jump_law: Optional[JumpLaw] = None

    def __post_init__(self):
        if self.wiener_vol < 0:
            raise ValueError("wiener_vol must be >= 0")
        if self.jump_intensity < 0:
            raise ValueError("jump_intensity must be >= 0")
        if self.jump_intensity > 0 and self.jump_law is None:
            raise ValueError("a jump law is required when jump_intensity > 0")

    @property
    def variance_rate(self) -> float:
        rate = self.wiener_vol**2
        if self.jump_intensity > 0:
            rate += self.jump_intensity * self.jump_law.mean_square
        return rate


@dataclass(frozen=True)
class NoiseSpec:
    modes: tuple[NoiseMode, ...]

    def __post_init__(self):
        if len(self.modes) < 1:
            raise ValueError("need at least one noise mode")

    @property
    def n_modes(self) -> int:
        return len(self.modes)

    @property
    def variance_rates(self) -> np.ndarray:
        return np.array([m.variance_rate for m in self.modes])

    @property
    def trace(self) -> float:
        """TrQ, the total variance rate."""
        return float(self.variance_rates.sum())

    @property
    def normalized_rates(self) -> np.ndarray:
        """Diagonal of Q_M = Q / TrQ; undefined for fully silent noise."""
        tr = self.trace
        if tr <= 0:
            raise ValueError("Q_M is undefined for a noise spec with TrQ = 0")
        return self.variance_rates / tr


def make_noise_spec(modes: Sequence[NoiseMode]) -> NoiseSpec:
    return NoiseSpec(modes=tuple(modes))


# ---------------------------------------------------------------------------
# sampled paths

@dataclass
class MartingalePath:
    """One sampled path of all modes on a shared grid.

    ``times`` contains the uniform base grid plus every jump time; ``values``
    holds the cadlag right limits M_k(t_i). Jump records identify the left
    limits: the jump of mode ``jump_modes[j]`` with size ``jump_sizes[j]``
    happens exactly at ``times[jump_indices[j]]``. ``base_indices`` maps the
    uniform grid into ``times`` for cross-path comparisons.
    """

    spec: NoiseSpec
    times: np.ndarray
    values: np.ndarray
    jump_indices: np.ndarray
    jump_modes: np.ndarray
    jump_sizes: np.ndarray
    base_indices: np.ndarray


def sample_path(spec: NoiseSpec, horizon: float, base_dt: float,
                seed: np.random.Generator) -> MartingalePath:
    """Sample one path on [0, horizon] with base step ``base_dt``.

    The base grid is uniform with round(horizon / base_dt) steps; all Poisson
    jump times are inserted into it. ``seed`` is the Generator the path draws
    from (``rng_for``); equal streams give bit-identical paths.
    """
    if horizon <= 0 or base_dt <= 0:
        raise ValueError("horizon and base_dt must be positive")
    n_base = max(1, int(round(horizon / base_dt)))
    base = np.linspace(0.0, horizon, n_base + 1)

    jump_times, jump_modes, jump_sizes = [], [], []
    for k, mode in enumerate(spec.modes):
        if mode.jump_intensity <= 0:
            continue
        count = int(seed.poisson(mode.jump_intensity * horizon))
        if count == 0:
            continue
        # 1 - U keeps times in (0, horizon]
        times_k = horizon * (1.0 - seed.random(count))
        jump_times.append(times_k)
        jump_modes.append(np.full(count, k, dtype=int))
        jump_sizes.append(mode.jump_law.sample(seed, count))

    if jump_times:
        jt = np.concatenate(jump_times)
        jm = np.concatenate(jump_modes)
        js = np.concatenate(jump_sizes)
        order = np.argsort(jt, kind="stable")
        jt, jm, js = jt[order], jm[order], js[order]
        times = np.unique(np.concatenate([base, jt]))
    else:
        jt = np.empty(0)
        jm = np.empty(0, dtype=int)
        js = np.empty(0)
        times = base

    n_steps = len(times) - 1
    dtaus = np.diff(times)
    values = np.zeros((spec.n_modes, n_steps + 1))
    incr = np.zeros((spec.n_modes, n_steps))
    for k, mode in enumerate(spec.modes):
        if mode.wiener_vol > 0:
            incr[k] += mode.wiener_vol * np.sqrt(dtaus) * seed.standard_normal(n_steps)
    jump_idx = np.searchsorted(times, jt)
    for idx, k, size in zip(jump_idx, jm, js):
        incr[k, idx - 1] += size
    values[:, 1:] = np.cumsum(incr, axis=1)

    return MartingalePath(
        spec=spec,
        times=times,
        values=values,
        jump_indices=jump_idx,
        jump_modes=jm,
        jump_sizes=js,
        base_indices=np.searchsorted(times, base),
    )


@dataclass(frozen=True)
class HeldEnsemble:
    """P paths in the held layout: ``times`` (P, N+1), mode ``values``
    (P, N+1, K) and the shared base grid's ``base_indices`` (P, n_base+1)."""

    times: np.ndarray
    values: np.ndarray
    base_indices: np.ndarray

    def at_base(self, held: np.ndarray) -> np.ndarray:
        """The base-grid rows of a held (P, N+1, ...) array, (P, n_base+1, ...)."""
        return held[np.arange(len(held))[:, None], self.base_indices]


def held_steps(times: np.ndarray) -> np.ndarray:
    """Step count of each held grid (P, N+1): its points before the final time."""
    return np.count_nonzero(times < times[:, -1:], axis=1)


def hold_tails(steps: np.ndarray, *arrays: np.ndarray) -> None:
    """Hold each (P, N+1, ...) array at row steps[p] after it, in place."""
    tail = np.arange(arrays[0].shape[1]) > steps[:, None]
    p = np.nonzero(tail)[0]
    for a in arrays:
        a[tail] = a[p, steps[p]]


def hold_ensemble(paths) -> HeldEnsemble:
    """The held layout of a list of paths on one base grid, from one index
    gather: held row i of path p is its grid point min(i, N_p). A held
    ensemble is returned as it is."""
    if isinstance(paths, HeldEnsemble):
        return paths
    if len(paths) == 0:
        raise ValueError("need at least one path")
    bases = [p.times[p.base_indices] for p in paths]
    if (any(len(b) != len(bases[0]) for b in bases)
            or not np.allclose(np.stack(bases), bases[0], rtol=0, atol=1e-12)):
        raise ValueError("all paths must share the same uniform base grid")
    steps = np.array([len(p.times) - 1 for p in paths])
    at = (np.cumsum(steps + 1) - (steps + 1))[:, None] + np.minimum(
        np.arange(steps.max() + 1), steps[:, None])
    return HeldEnsemble(times=np.concatenate([p.times for p in paths])[at],
                        values=np.concatenate([p.values.T for p in paths])[at],
                        base_indices=np.stack([p.base_indices for p in paths]))


def sample_ensemble(spec: NoiseSpec, horizon: float, base_dt: float, n_paths: int,
                    master_seed: int) -> HeldEnsemble:
    """Paths 0, ..., n_paths - 1 under one master seed, each from its own stream."""
    return hold_ensemble([sample_path(spec, horizon, base_dt, rng_for(master_seed, i))
                          for i in range(n_paths)])


# ---------------------------------------------------------------------------
# operator-valued integrands

class StepOperator:
    """Piecewise-constant integrand: ``fields`` (B, K, n) over strictly
    increasing ``breakpoints`` b_0 < ... < b_B, piece i on [b_i, b_{i+1}), the
    first piece also before b_0 and the last after b_B. Since the path grid
    contains every jump time, evaluation at sub-interval left endpoints yields
    the required left limits.
    """

    def __init__(self, breakpoints, fields):
        self.breakpoints = np.asarray(breakpoints, dtype=float)
        self.fields = np.asarray(fields, dtype=float)
        if self.fields.ndim != 3 or len(self.breakpoints) != self.fields.shape[0] + 1:
            raise ValueError("need len(breakpoints) == len(fields) + 1, fields (B, K, n)")
        if not np.all(np.diff(self.breakpoints) > 0):
            raise ValueError(f"breakpoints must be strictly increasing, got {self.breakpoints}")

    def at_many(self, ts: np.ndarray) -> np.ndarray:
        """The fields at times ts, shape ts.shape + (K, n); one piece gives a
        broadcast view with zero strides, not a copy."""
        ts = np.asarray(ts)
        if len(self.fields) == 1:
            return np.broadcast_to(self.fields[0], ts.shape + self.fields.shape[1:])
        idx = np.searchsorted(self.breakpoints, ts, side="right") - 1
        return self.fields[np.clip(idx, 0, len(self.fields) - 1)]

    def __sub__(self, other: "StepOperator") -> "StepOperator":
        """Pointwise difference, one piece per piece of the union of breakpoints."""
        edges = np.union1d(self.breakpoints, other.breakpoints)
        return StepOperator(edges, self.at_many(edges[:-1]) - other.at_many(edges[:-1]))


class ConstantOperator(StepOperator):
    """Time-independent integrand: one field per mode, shape (K, n), as the
    one-piece step over (-inf, inf)."""

    def __init__(self, fields):
        super().__init__([-np.inf, np.inf], np.atleast_2d(fields)[None])


def as_mode_operator(G) -> StepOperator:
    return G if isinstance(G, StepOperator) else ConstantOperator(G)


@dataclass
class IntegralPath:
    """A stochastic integral evaluated on a path grid.

    ``values[i]`` is the field (G . M)(t_i); ``integrand`` keeps the operator
    so that the realized quadratic variation can be reconstructed later.
    """

    times: np.ndarray
    values: np.ndarray
    integrand: Optional[StepOperator] = None

    @classmethod
    def zeros(cls, times, n_nodes: int) -> "IntegralPath":
        times = np.asarray(times, dtype=float)
        return cls(times=times, values=np.zeros((len(times), n_nodes)), integrand=None)


def ito_sums(g_left: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Running sums sum_{j <= i} sum_k G_k(t_{j-1}) (M_k(t_j) - M_k(t_{j-1})) of P
    paths at once, held (P, N+1, n) from zero: values holds the mode values
    (P, N+1, K) and g_left the left-endpoint fields (P, N, K, n). A held step
    has no increment, so the sums are held too. One einsum makes all increments
    and one cumsum runs along the steps."""
    incr = np.einsum("pjkn,pjk->pjn", g_left, np.diff(values, axis=1))
    out = np.zeros((incr.shape[0], incr.shape[1] + 1, incr.shape[2]))
    np.cumsum(incr, axis=1, out=out[:, 1:])
    return out


def stochastic_integrals(G, paths, L: Optional[DirichletLaplacian] = None) -> np.ndarray:
    """Integrate one operator against every path of an ensemble (held, or a
    list of paths), held (P, N+1, n): left endpoints times increments,

    (G . M)(t_i) = sum_{j <= i} sum_k G_k(t_{j-1}) (M_k(t_j) - M_k(t_{j-1})),

    with G evaluated once on all held left endpoints (a broadcast view for a
    constant operator) and one Ito sum for the ensemble. Exact for
    piecewise-constant G whose breakpoints lie on the grids.
    """
    ens = hold_ensemble(paths)
    g_left = as_mode_operator(G).at_many(ens.times[:, :-1])
    if g_left.shape[-2] != ens.values.shape[2]:
        raise ValueError(f"integrand has {g_left.shape[-2]} modes, path has {ens.values.shape[2]}")
    if L is not None and g_left.shape[-1] != L.n:
        raise ValueError(f"integrand fields have {g_left.shape[-1]} nodes, grid has {L.n}")
    return ito_sums(g_left, ens.values)


def stochastic_integral(G, path: MartingalePath,
                        L: Optional[DirichletLaplacian] = None) -> IntegralPath:
    """The one-path case of ``stochastic_integrals``, keeping its integrand."""
    op = as_mode_operator(G)
    return IntegralPath(path.times, stochastic_integrals(op, [path], L)[0], op)


def realized_qv(G, path: MartingalePath, L: DirichletLaplacian) -> np.ndarray:
    """Quadratic variation [G . M](t_i) in the dual norm.

    Continuous part by left-endpoint quadrature of sum_k sigma_k^2 |G_k(s)|^2,
    jump part as the exact sum of |G_k(jump-) * jump|^2 over recorded jumps.
    A jump at times[i] sees the integrand at the left endpoint times[i - 1].
    """
    g_left = as_mode_operator(G).at_many(path.times[:-1])
    vols_sq = np.array([m.wiener_vol**2 for m in path.spec.modes])

    norms = hminus1_norm_sq_rows(L, g_left)  # (n_steps, n_modes)
    incr = (norms @ vols_sq) * np.diff(path.times)
    steps = path.jump_indices - 1
    np.add.at(incr, steps, path.jump_sizes**2 * norms[steps, path.jump_modes])

    out = np.zeros(len(path.times))
    np.cumsum(incr, out=out[1:])
    return out


# ---------------------------------------------------------------------------
# diffusion coefficients

class DiffusionCoefficient:
    """Maps a state field to one field per mode."""

    state_independent = False

    def mode_fields(self, x: np.ndarray, L: DirichletLaplacian) -> np.ndarray:
        """(K, n) array of per-mode fields at state x."""
        return self.mode_fields_batch(np.asarray(x, dtype=float)[None, :], L)[0]

    def mode_fields_batch(self, states: np.ndarray, L: DirichletLaplacian) -> np.ndarray:
        """(m, K, n) array for a stack of states (m, n)."""
        raise NotImplementedError


@dataclass
class ConstantAdditive(DiffusionCoefficient):
    """State-independent coefficient: fixed fields, shape (K, n)."""

    fields: np.ndarray
    state_independent = True

    def __post_init__(self):
        self.fields = np.atleast_2d(np.asarray(self.fields, dtype=float))

    def mode_fields_batch(self, states, L):
        return np.broadcast_to(self.fields, (states.shape[0],) + self.fields.shape)


@dataclass
class LinearSpectral(DiffusionCoefficient):
    """Mode k carries coeffs[k] * (-Lap)^{-gamma} x; gamma = 0 is allowed only
    for generalized (mollified) runs."""

    coeffs: np.ndarray
    gamma: float = 1.0

    def __post_init__(self):
        self.coeffs = np.atleast_1d(np.asarray(self.coeffs, dtype=float))
        if self.gamma < 0:
            raise ValueError("gamma must be >= 0")

    def mode_fields_batch(self, states, L):
        return np.einsum("k,mn->mkn", self.coeffs, smooth_gamma(states, self.gamma, L))


_TRANSFORMS: dict[str, Callable[[np.ndarray], np.ndarray]] = {
    "tanh": np.tanh,
    "sin": np.sin,
    "soft_clip": lambda x: x / (1.0 + np.abs(x)),
}


@dataclass
class SmoothedNemytskii(DiffusionCoefficient):
    """Mode k carries coeffs[k] * (-Lap)^{-gamma} (transform o x) with a scalar
    Lipschitz transform applied nodewise."""

    coeffs: np.ndarray
    gamma: float = 1.0
    transform: str = "tanh"

    def __post_init__(self):
        self.coeffs = np.atleast_1d(np.asarray(self.coeffs, dtype=float))
        if self.gamma < 0:
            raise ValueError("gamma must be >= 0")
        if self.transform not in _TRANSFORMS:
            raise ValueError(
                f"unknown transform {self.transform!r}, choose from {sorted(_TRANSFORMS)}"
            )

    def mode_fields_batch(self, states, L):
        smooth = smooth_gamma(_TRANSFORMS[self.transform](states), self.gamma, L)
        return np.einsum("k,mn->mkn", self.coeffs, smooth)


@dataclass
class MollifiedDiffusion(DiffusionCoefficient):
    """Post-compose a coefficient with the heat-kernel mollifier at one level."""

    base: DiffusionCoefficient
    level: int

    def __post_init__(self):
        self.level = int(self.level)
        if self.level < 1:
            raise ValueError("mollifier level must be >= 1")
        self.state_independent = self.base.state_independent

    def mode_fields_batch(self, states, L):
        return mollify(self.base.mode_fields_batch(states, L), self.level, L)


def mollified(B: DiffusionCoefficient, level: int) -> MollifiedDiffusion:
    return MollifiedDiffusion(base=B, level=level)


def lipschitz_constant(B: DiffusionCoefficient, spec: NoiseSpec, L: DirichletLaplacian,
                       n_pairs: int = 48, seed: int = 0) -> float:
    """Measured squared-Lipschitz constant sup |B(x)-B(y)|_Q^2 / |x-y|_{-1}^2."""
    if B.state_independent:
        return 0.0
    xy = np.random.default_rng(seed).standard_normal((n_pairs, 2, L.n))
    fields = B.mode_fields_batch(xy.reshape(2 * n_pairs, L.n), L)
    diff = fields[0::2] - fields[1::2]
    sq = hminus1_norm_sq_rows(L, np.concatenate([xy[:, 0] - xy[:, 1],
                                                 diff.reshape(-1, L.n)]))
    dx_sq = sq[:n_pairs]
    num = sq[n_pairs:].reshape(n_pairs, -1) @ spec.variance_rates
    return float(np.max(num[dx_sq > 0] / dx_sq[dx_sq > 0], initial=0.0))
