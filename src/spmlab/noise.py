"""Square-integrable jump martingales in a finite mode basis.

The driving noise is a vector of K independent scalar Levy martingales, one
per mode: a Wiener part with volatility sigma_k plus a compensated compound
Poisson part with intensity lambda_k and a mean-zero jump law. The covariance
operator is then diagonal, Q = diag(v_k), v_k = sigma_k^2 + lambda_k E[J^2]
(``variance_rates``), and with TrQ = sum_k v_k > 0 the bracket convention is

    <M>(t) = t * TrQ,       Q_M = Q / TrQ,

so that the integrand norm |G|_{Q_M}^2 d<M> integrates to sum_k v_k |G_k|^2 dt.

Paths are sampled on the base grid of ``uniform_times`` with every jump time
inserted exactly, so integrands evaluated at the left endpoint of each
sub-interval are genuine left limits and the integral of a piecewise-constant
operator is a finite sum with no time-discretization error. Path i under seed s
draws from SeedSequence(s, spawn_key=(i,)): numpy hashes s, ``rngs_for`` mixes all
indices into that pool at once, and ``_sample_held`` draws the paths in one pass.

Every integrand is a ``StepOperator``: ``fields[i]`` (K, n) holds on
[b_i, b_{i+1}), the first piece also before b_0 and the last one after the
final breakpoint. Evaluation, differences and the exact budget in ``verify``
all read it that way. A constant integrand (``ConstantOperator``) is the
one-piece step over (-inf, inf).

An ensemble of P paths has one layout from sampling to the march, the
``HeldEnsemble`` that ``sample_ensemble`` draws: the grids are one (P, N+1)
array, N the most steps of any path, each row held at its path's final time
after its last step, so held steps have length zero; mode values (P, N+1, K)
and driving integrals, states and selections (P, N+1, n) are held at their
last row. A sup over a path is a max along axis 1, its final value row -1.

Diffusion coefficients map a stack of state fields to one field per mode and
state (``mode_fields_batch``, the one method each variant implements); the
built-in variants are a state-independent family and one spectral family,
coeffs[k] (-Lap)^{-gamma} T(x) with T = x (linear) or a nodewise transform
(smoothed Nemytskii). Their squared-Lipschitz constant in the dual norm is
measured on random fields (``lipschitz_constant``).

``numpy.random`` is imported eagerly: numpy would import it lazily, inside a command's run time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

import numpy as np
import numpy.random  # noqa: F401  (eagerly: see the module docstring)

from .grid import (
    DirichletLaplacian,
    hminus1_norm_sq_rows,
    mollify,
    smooth_gamma,
)


def _union(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Sorted distinct values of a and b, bit for bit ``np.union1d``, minus its numpy.ma import."""
    s = np.sort(np.concatenate([a, b]))
    return s[np.insert(s[1:] != s[:-1], 0, True)] if s.size else s


_M32 = 0xFFFFFFFF


def _chain(const: int, mult: int, n: int) -> list:
    """The n + 1 multipliers of n steps of a SeedSequence hash chain."""
    out = [const]
    for _ in range(n):
        out.append(out[-1] * mult & _M32)
    return out


_STATE_MULTS = np.array(_chain(0x8B51F9DD, 0x58F38DED, 8), np.uint64)[:, None]  # INIT_B, MULT_B


def _hash(value, const, next_const):
    """SeedSequence's hashmix of 32-bit words at one chain step, on ints or uint64 arrays."""
    value = (value ^ const) * next_const & _M32
    return value ^ value >> 16


def _mix(x, y):
    value = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
    return value ^ value >> 16


@dataclass
class _StateWords(np.random.bit_generator.ISeedSequence):
    """PCG64's four state words, computed for it and handed to it as its seed."""

    words: np.ndarray

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def rngs_for(master_seed: int, indices) -> list:
    """``rng_for(master_seed, i)`` for each i in ``indices``: numpy's pool of the seed, every
    index mixed in on arrays. A seed < 0 or an index outside [0, 2**32) is refused and named."""
    seed, index = int(master_seed), np.asarray(indices, dtype=np.int64)
    if seed < 0 or (index >> 32).any():
        bad = seed if seed < 0 else index[index >> 32 != 0][0]
        raise ValueError(f"need master seed >= 0 and indices in [0, 2**32), got {bad}")
    j = 4 * max(4, -(-seed.bit_length() // 32))  # 4 hash steps per seed word, 4 words at least
    a = np.array(_chain(0x43B0D7E5, 0x931E8875, j + 4)[j:], np.uint64)[:, None]  # INIT_A, MULT_A
    pool = np.random.SeedSequence(seed).pool.astype(np.uint64)[:, None]
    pool = _mix(pool, _hash(index.astype(np.uint64), a[:-1], a[1:]))  # into every pool word
    state = _hash(pool[[0, 1, 2, 3] * 2], _STATE_MULTS[:-1], _STATE_MULTS[1:])  # the pool twice
    return [np.random.Generator(np.random.PCG64(_StateWords(row)))
            for row in (state[0::2] | state[1::2] << 32).T.copy()]


def rng_for(master_seed: int, index: int) -> np.random.Generator:
    """The (seed, index) SeedSequence child: numpy hashes the seed, ``rngs_for`` the index."""
    return rngs_for(master_seed, [index])[0]


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


def make_noise_spec(modes: Sequence[NoiseMode]) -> NoiseSpec:
    return NoiseSpec(modes=tuple(modes))


# ---------------------------------------------------------------------------
# sampled paths

def uniform_times(horizon: float, dt: float) -> np.ndarray:
    """The uniform base grid on [0, horizon] with round(horizon / dt) steps, at least one."""
    if horizon <= 0 or dt <= 0:
        raise ValueError("horizon and dt must be positive")
    return np.linspace(0.0, horizon, max(1, int(round(horizon / dt))) + 1)


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
    """Sample one path on [0, horizon] with base step ``base_dt``: the one-path
    case of ``sample_ensemble``.

    The base grid is ``uniform_times(horizon, base_dt)``; all Poisson jump
    times are inserted into it. ``seed`` is the Generator the path draws
    from (``rng_for``); equal streams give bit-identical paths.
    """
    ens, (_, index, modes, sizes) = _sample_held(spec, horizon, base_dt, [seed])
    return MartingalePath(spec=spec, times=ens.times[0],
                          values=np.ascontiguousarray(ens.values[0].T), jump_indices=index,
                          jump_modes=modes, jump_sizes=sizes, base_indices=ens.base_indices[0])


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


def _sample_held(spec: NoiseSpec, horizon: float, base_dt: float, rngs: list):
    """Path p drawn from rngs[p] in the order of one path alone, held, with its
    jumps (path, grid index, mode, size) sorted by path, time and draw; only
    the generator calls run per path, the merge, increments and cumsum once."""
    base = uniform_times(horizon, base_dt)
    n_paths, n_base, vols = len(rngs), len(base), np.array([m.wiener_vol for m in spec.modes])
    jumpy = [(k, m) for k, m in enumerate(spec.modes) if m.jump_intensity > 0]
    drawn, counts, us, sizes = [], [], [np.empty(0)], [np.empty(0)]
    for p, rng in enumerate(rngs):
        for k, mode in jumpy:
            count = int(rng.poisson(mode.jump_intensity * horizon))
            if count:
                drawn.append((p, k))
                counts.append(count)
                us.append(rng.random(count))
                sizes.append(mode.jump_law.sample(rng, count))
    path_mode = np.array(drawn, dtype=int).reshape(-1, 2)
    jp, jm = np.repeat(path_mode, counts, axis=0).T
    # base points first, so each keeps its place ahead of an equal jump time;
    # 1 - U keeps jump times in (0, horizon]
    at_t = np.concatenate([np.tile(base, n_paths), horizon * (1.0 - np.concatenate(us))])
    at_p = np.concatenate([np.repeat(np.arange(n_paths), n_base), jp])
    order = np.lexsort((at_t, at_p))  # stable: by path, time, then draw
    t_sorted, p_sorted = at_t[order], at_p[order]
    new = np.insert((t_sorted[1:] != t_sorted[:-1]) | (p_sorted[1:] != p_sorted[:-1]), 0, True)
    point = np.empty_like(order)
    point[order] = np.cumsum(new) - 1  # each time's flat grid point
    points = np.bincount(p_sorted[new], minlength=n_paths)
    first = np.cumsum(points) - points
    steps = points - 1
    at = first[:, None] + np.minimum(np.arange(steps.max() + 1), steps[:, None])
    times = t_sorted[new][at]

    dtaus = np.diff(times, axis=1)
    incr = np.zeros(dtaus.shape + (spec.n_modes,))
    wiener = np.flatnonzero(vols > 0)
    if wiener.size:  # a path's normals come mode by mode, each over its steps
        z = np.zeros(dtaus.shape + (wiener.size,))
        z[np.arange(dtaus.shape[1]) < steps[:, None]] = np.concatenate(
            [rng.standard_normal((wiener.size, s)).T for rng, s in zip(rngs, steps)])
        incr[:, :, wiener] += vols[wiener] * np.sqrt(dtaus)[:, :, None] * z
    n_fixed = n_paths * n_base
    jumps = order[order >= n_fixed] - n_fixed
    jp, jm, js = jp[jumps], jm[jumps], np.concatenate(sizes)[jumps]
    index = point[n_fixed + jumps] - first[jp]
    np.add.at(incr, (jp, index - 1, jm), js)
    # held steps add +0.0, and no increment is -0.0, so held rows repeat the last bit for bit
    values = np.zeros((n_paths, len(at[0]), spec.n_modes))
    np.cumsum(incr, axis=1, out=values[:, 1:])
    base_indices = point[:n_fixed].reshape(n_paths, n_base) - first[:, None]
    return HeldEnsemble(times, values, base_indices), (jp, index, jm, js)


def sample_ensemble(spec: NoiseSpec, horizon: float, base_dt: float, n_paths: int,
                    master_seed) -> HeldEnsemble:
    """Paths 0, ..., n_paths - 1 under one master seed, or under each seed of a list
    in turn, each on its own ``rng_for`` stream, a seed's all seeded in one pass."""
    rngs = [rng for seed in np.atleast_1d(master_seed) for rng in rngs_for(seed, range(n_paths))]
    return _sample_held(spec, horizon, base_dt, rngs)[0]


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
        edges = _union(self.breakpoints, other.breakpoints)
        return StepOperator(edges, self.at_many(edges[:-1]) - other.at_many(edges[:-1]))


class ConstantOperator(StepOperator):
    """Time-independent integrand: one field per mode, shape (K, n), as the
    one-piece step over (-inf, inf)."""

    def __init__(self, fields):
        super().__init__([-np.inf, np.inf], np.atleast_2d(fields)[None])


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


def stochastic_integrals(G: StepOperator, ens: HeldEnsemble, L: DirichletLaplacian) -> np.ndarray:
    """Integrate one operator against every path of a held ensemble, held
    (P, N+1, n): left endpoints times increments,

    (G . M)(t_i) = sum_{j <= i} sum_k G_k(t_{j-1}) (M_k(t_j) - M_k(t_{j-1})),

    with G evaluated once on all held left endpoints (a broadcast view for a
    constant operator) and one Ito sum for the ensemble. Exact for
    piecewise-constant G whose breakpoints lie on the grids.
    """
    g_left = G.at_many(ens.times[:, :-1])
    if g_left.shape[-2] != ens.values.shape[2]:
        raise ValueError(f"integrand has {g_left.shape[-2]} modes, path has {ens.values.shape[2]}")
    if g_left.shape[-1] != L.n:
        raise ValueError(f"integrand fields have {g_left.shape[-1]} nodes, grid has {L.n}")
    return ito_sums(g_left, ens.values)


def stochastic_integral(G: StepOperator, path: MartingalePath,
                        L: DirichletLaplacian) -> IntegralPath:
    """The one-path case of ``stochastic_integrals``, on the path as a one-row
    ensemble, keeping its integrand."""
    ens = HeldEnsemble(path.times[None], path.values.T[None], path.base_indices[None])
    return IntegralPath(path.times, stochastic_integrals(G, ens, L)[0], G)


def realized_qv(G: StepOperator, path: MartingalePath, L: DirichletLaplacian) -> np.ndarray:
    """Quadratic variation [G . M](t_i) in the dual norm.

    Continuous part by left-endpoint quadrature of sum_k sigma_k^2 |G_k(s)|^2,
    jump part as the exact sum of |G_k(jump-) * jump|^2 over recorded jumps.
    A jump at times[i] sees the integrand at the left endpoint times[i - 1].
    """
    g_left = G.at_many(path.times[:-1])
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
class _Spectral(DiffusionCoefficient):
    """Mode k carries coeffs[k] * (-Lap)^{-gamma} of a nodewise map of the
    state; a variant only names the map in ``_map``."""

    coeffs: np.ndarray
    gamma: float = 1.0

    def __post_init__(self):
        self.coeffs = np.atleast_1d(np.asarray(self.coeffs, dtype=float))
        if self.gamma < 0:
            raise ValueError("gamma must be >= 0")

    def mode_fields_batch(self, states, L):
        return np.einsum("k,mn->mkn", self.coeffs, smooth_gamma(self._map(states), self.gamma, L))


@dataclass
class LinearSpectral(_Spectral):
    """Mode k carries coeffs[k] * (-Lap)^{-gamma} x; gamma = 0 is allowed only
    for generalized (mollified) runs."""

    def _map(self, states):
        return states


_TRANSFORMS: dict[str, Callable[[np.ndarray], np.ndarray]] = {
    "tanh": np.tanh,
    "sin": np.sin,
    "soft_clip": lambda x: x / (1.0 + np.abs(x)),
}


@dataclass
class SmoothedNemytskii(_Spectral):
    """Mode k carries coeffs[k] * (-Lap)^{-gamma} (transform o x) with a scalar
    Lipschitz transform applied nodewise."""

    transform: str = "tanh"

    def __post_init__(self):
        super().__post_init__()
        if self.transform not in _TRANSFORMS:
            raise ValueError(f"unknown transform {self.transform!r}, "
                             f"choose from {sorted(_TRANSFORMS)}")

    def _map(self, states):
        return _TRANSFORMS[self.transform](states)


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
