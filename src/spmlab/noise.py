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
(master seed, path index). Integrands are operator objects, constant
(``ConstantOperator``) or piecewise constant in time (``StepOperator``); a
plain (K, n) array stands for a constant one.

Diffusion coefficients map a stack of state fields to one field per mode and
state (``mode_fields_batch``, the one method each variant implements); the
built-in variants are a state-independent family, a spectrally smoothed linear
family and a smoothed superposition (Nemytskii) family. Their Lipschitz and
growth constants in the dual norm are measured empirically on random fields.
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


def angle_bracket(spec: NoiseSpec, t: float) -> float:
    """Scalar bracket <M>(t) = t * TrQ."""
    if t < 0:
        raise ValueError(f"time must be >= 0, got {t}")
    return float(t) * spec.trace


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
                seed: Union[int, np.random.Generator]) -> MartingalePath:
    """Sample one path on [0, horizon] with base step ``base_dt``.

    The base grid is uniform with round(horizon / base_dt) steps; all Poisson
    jump times are inserted into it. Bit-identical output for equal seeds.
    """
    if horizon <= 0 or base_dt <= 0:
        raise ValueError("horizon and base_dt must be positive")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    n_base = max(1, int(round(horizon / base_dt)))
    base = np.linspace(0.0, horizon, n_base + 1)

    jump_times, jump_modes, jump_sizes = [], [], []
    for k, mode in enumerate(spec.modes):
        if mode.jump_intensity <= 0:
            continue
        count = int(rng.poisson(mode.jump_intensity * horizon))
        if count == 0:
            continue
        # 1 - U keeps times in (0, horizon]
        times_k = horizon * (1.0 - rng.random(count))
        jump_times.append(times_k)
        jump_modes.append(np.full(count, k, dtype=int))
        jump_sizes.append(mode.jump_law.sample(rng, count))

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
            incr[k] += mode.wiener_vol * np.sqrt(dtaus) * rng.standard_normal(n_steps)
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


def sample_ensemble(spec: NoiseSpec, horizon: float, base_dt: float, n_paths: int,
                    master_seed: int) -> list:
    """Paths 0, ..., n_paths - 1 under one master seed, each from its own stream."""
    return [sample_path(spec, horizon, base_dt, rng_for(master_seed, i)) for i in range(n_paths)]


# ---------------------------------------------------------------------------
# operator-valued integrands

class ConstantOperator:
    """Time-independent integrand: one field per mode, shape (K, n)."""

    def __init__(self, fields):
        self.fields = np.atleast_2d(np.asarray(fields, dtype=float))

    def at_many(self, ts: np.ndarray) -> np.ndarray:
        return np.broadcast_to(self.fields, (len(ts),) + self.fields.shape)


class StepOperator:
    """Right-continuous piecewise-constant integrand.

    ``fields[i]`` is the value on [breakpoints[i], breakpoints[i+1]); since the
    path grid contains every jump time, evaluation at sub-interval left
    endpoints yields the required left limits.
    """

    def __init__(self, breakpoints, fields):
        self.breakpoints = np.asarray(breakpoints, dtype=float)
        self.fields = np.asarray(fields, dtype=float)
        if self.fields.ndim != 3 or len(self.breakpoints) != self.fields.shape[0] + 1:
            raise ValueError("need len(breakpoints) == len(fields) + 1, fields (B, K, n)")

    def _locate(self, ts):
        idx = np.searchsorted(self.breakpoints, ts, side="right") - 1
        return np.clip(idx, 0, self.fields.shape[0] - 1)

    def at_many(self, ts: np.ndarray) -> np.ndarray:
        return self.fields[self._locate(np.asarray(ts))]


ModeOperator = Union[ConstantOperator, StepOperator]


def as_mode_operator(G) -> ModeOperator:
    return G if hasattr(G, "at_many") else ConstantOperator(G)


@dataclass
class IntegralPath:
    """A stochastic integral evaluated on a path grid.

    ``values[i]`` is the field (G . M)(t_i); ``integrand`` keeps the operator
    so that the realized quadratic variation can be reconstructed later.
    """

    times: np.ndarray
    values: np.ndarray
    integrand: Optional[ModeOperator] = None

    @classmethod
    def zeros(cls, times, n_nodes: int) -> "IntegralPath":
        times = np.asarray(times, dtype=float)
        return cls(times=times, values=np.zeros((len(times), n_nodes)), integrand=None)


def ito_sums(g_left: np.ndarray, values: Sequence[np.ndarray]) -> list:
    """Running sums sum_{j <= i} sum_k G_k(t_{j-1}) (M_k(t_j) - M_k(t_{j-1})) of P
    paths at once: values[p] holds path p's mode values (K, N_p + 1), and g_left
    every path's left-endpoint fields stacked in path order, (sum_p N_p, K, n).
    One einsum makes all increments and one cumsum runs along a zero-padded
    (P, N_max + 1, n) stack; returns the per-path sums (N_p + 1, n), from zero."""
    lengths = np.array([v.shape[1] - 1 for v in values])
    dm = np.diff(np.concatenate(values, axis=1), axis=1)
    # drop the differences across the seam between consecutive paths
    dm = np.delete(dm, np.cumsum(lengths + 1)[:-1] - 1, axis=1)
    incr = np.zeros((len(values), int(lengths.max()), g_left.shape[2]))
    incr[np.arange(incr.shape[1]) < lengths[:, None]] = np.einsum("jkn,kj->jn", g_left, dm)
    out = np.zeros((len(values), incr.shape[1] + 1, incr.shape[2]))
    np.cumsum(incr, axis=1, out=out[:, 1:])
    return [out[p, :m + 1] for p, m in enumerate(lengths)]


def stochastic_integrals(G, paths: Sequence[MartingalePath],
                         L: Optional[DirichletLaplacian] = None) -> list:
    """Integrate one operator against every path: left endpoints times increments,

    (G . M)(t_i) = sum_{j <= i} sum_k G_k(t_{j-1}) (M_k(t_j) - M_k(t_{j-1})),

    with G evaluated once on all paths' left endpoints (a broadcast view for a
    constant operator) and one Ito sum for the ensemble. Exact for
    piecewise-constant G whose breakpoints lie on the grids.
    """
    op = as_mode_operator(G)
    g_left = op.at_many(np.concatenate([p.times[:-1] for p in paths]))
    for path in paths:
        if g_left.shape[1] != path.spec.n_modes:
            raise ValueError(
                f"integrand has {g_left.shape[1]} modes, path has {path.spec.n_modes}"
            )
    if L is not None and g_left.shape[2] != L.n:
        raise ValueError(f"integrand fields have {g_left.shape[2]} nodes, grid has {L.n}")
    sums = ito_sums(g_left, [p.values for p in paths])
    return [IntegralPath(times=p.times, values=v, integrand=op) for p, v in zip(paths, sums)]


def stochastic_integral(G, path: MartingalePath,
                        L: Optional[DirichletLaplacian] = None) -> IntegralPath:
    """The one-path case of ``stochastic_integrals``."""
    return stochastic_integrals(G, [path], L)[0]


def realized_qv(G, path: MartingalePath, L: DirichletLaplacian) -> np.ndarray:
    """Quadratic variation [G . M](t_i) in the dual norm.

    Continuous part by left-endpoint quadrature of sum_k sigma_k^2 |G_k(s)|^2,
    jump part as the exact sum of |G_k(jump-) * jump|^2 over recorded jumps.
    A jump at times[i] sees the integrand at the left endpoint times[i - 1].
    """
    g_left = as_mode_operator(G).at_many(path.times[:-1])
    n_steps, n_modes, _ = g_left.shape
    vols_sq = np.array([m.wiener_vol**2 for m in path.spec.modes])

    norms = hminus1_norm_sq_rows(L, g_left.reshape(n_steps * n_modes, -1))
    norms = norms.reshape(n_steps, n_modes)
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
        smooth = smooth_gamma(states.T, self.gamma, L).T  # (m, n)
        return np.einsum("k,mn->mkn", self.coeffs, smooth)


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

    def _fn(self):
        return _TRANSFORMS[self.transform]

    def mode_fields_batch(self, states, L):
        smooth = smooth_gamma(self._fn()(states).T, self.gamma, L).T
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
        raw = self.base.mode_fields_batch(states, L)  # (m, K, n)
        m, k, n = raw.shape
        flat = mollify(raw.reshape(m * k, n).T, self.level, L).T
        return flat.reshape(m, k, n)


def mollified(B: DiffusionCoefficient, level: int) -> MollifiedDiffusion:
    return MollifiedDiffusion(base=B, level=level)


def hs_norm_q(B: DiffusionCoefficient, x, spec: NoiseSpec, L: DirichletLaplacian) -> float:
    """Hilbert-Schmidt norm of B(x) composed with Q^{1/2} in the dual norm."""
    fields = B.mode_fields(np.asarray(x, dtype=float), L)
    norms = hminus1_norm_sq_rows(L, fields)
    return float(np.sqrt(np.maximum(spec.variance_rates @ norms, 0.0)))


def lipschitz_constant(B: DiffusionCoefficient, spec: NoiseSpec, L: DirichletLaplacian,
                       n_pairs: int = 48, scale: float = 1.0, seed: int = 0) -> float:
    """Measured squared-Lipschitz constant sup |B(x)-B(y)|_Q^2 / |x-y|_{-1}^2."""
    if B.state_independent:
        return 0.0
    xy = scale * np.random.default_rng(seed).standard_normal((n_pairs, 2, L.n))
    fields = B.mode_fields_batch(xy.reshape(2 * n_pairs, L.n), L)
    diff = fields[0::2] - fields[1::2]
    sq = hminus1_norm_sq_rows(L, np.concatenate([xy[:, 0] - xy[:, 1],
                                                 diff.reshape(-1, L.n)]))
    dx_sq = sq[:n_pairs]
    num = sq[n_pairs:].reshape(n_pairs, -1) @ spec.variance_rates
    return float(np.max(num[dx_sq > 0] / dx_sq[dx_sq > 0], initial=0.0))


def growth_constant(B: DiffusionCoefficient, spec: NoiseSpec, L: DirichletLaplacian,
                    n_samples: int = 48, scale: float = 1.0, seed: int = 0) -> float:
    """Measured constant k with |B(x)|_Q^2 <= k (1 + |x|_{-1}^2) on random states
    and at x = 0."""
    states = np.zeros((n_samples + 1, L.n))
    states[1:] = scale * np.random.default_rng(seed).standard_normal((n_samples, L.n))
    fields = B.mode_fields_batch(states, L)
    sq = hminus1_norm_sq_rows(L, np.concatenate([states, fields.reshape(-1, L.n)]))
    hs_sq = np.maximum(sq[n_samples + 1:].reshape(n_samples + 1, -1) @ spec.variance_rates, 0.0)
    return float(np.max(hs_sq / (1.0 + sq[:n_samples + 1])))
