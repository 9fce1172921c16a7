import re
from dataclasses import fields

import numpy as np
import pytest

from spmlab import (
    ConstantAdditive,
    ConstantOperator,
    LinearSpectral,
    MollifiedDiffusion,
    NoiseMode,
    NormalJumps,
    SmoothedNemytskii,
    StepOperator,
    TwoPointJumps,
    build_laplacian,
    eigenmode,
    hminus1_norm_sq_rows,
    lipschitz_constant,
    make_grid,
    make_noise_spec,
    mollify,
    realized_qv,
    rng_for,
    sample_path,
    smooth_gamma,
    solve_laplacian,
    stochastic_integral,
)
from spmlab.noise import (
    MartingalePath,
    _union,
    held_steps,
    rngs_for,
    sample_ensemble,
    stochastic_integrals,
)
from testkit import angle_bracket, growth_constant, hold_paths, hs_norm_q


@pytest.fixture(scope="module")
def lap():
    return build_laplacian(make_grid(1, 15, 1.0))


def two_mode_spec():
    return make_noise_spec([
        NoiseMode(wiener_vol=0.8, jump_intensity=2.0, jump_law=TwoPointJumps(0.5)),
        NoiseMode(wiener_vol=0.5, jump_intensity=1.0, jump_law=NormalJumps(0.4)),
    ])


def test_variance_rates_and_trace():
    spec = two_mode_spec()
    np.testing.assert_allclose(spec.variance_rates, [0.64 + 2 * 0.25, 0.25 + 0.16])
    assert angle_bracket(spec, 1.0) == pytest.approx(1.55)


def test_silent_spec_path_is_zero():
    spec = make_noise_spec([NoiseMode()])
    path = sample_path(spec, 1.0, 0.25, seed=np.random.default_rng(0))
    np.testing.assert_array_equal(path.values, np.zeros((1, 5)))
    assert len(path.jump_sizes) == 0


def test_angle_bracket_values():
    spec = make_noise_spec([
        NoiseMode(wiener_vol=np.sqrt(0.5)),
        NoiseMode(wiener_vol=np.sqrt(0.3)),
        NoiseMode(wiener_vol=np.sqrt(0.2)),
    ])
    assert angle_bracket(spec, 0.0) == 0.0
    assert angle_bracket(spec, 2.0) == pytest.approx(2.0)
    assert angle_bracket(spec, 2 * 1.7) == pytest.approx(2 * angle_bracket(spec, 1.7))
    with pytest.raises(ValueError):
        angle_bracket(spec, -1.0)


def test_poisson_count_oracle():
    # mean jump count over many paths approaches intensity * horizon
    spec = make_noise_spec([NoiseMode(jump_intensity=2.0, jump_law=TwoPointJumps(1.0))])
    n = 10_000
    ens = sample_ensemble(spec, 1.0, 0.5, n, 777)
    counts = held_steps(ens.times) - (ens.base_indices.shape[1] - 1)  # the inserted jump times
    assert abs(counts.mean() - 2.0) <= 3.0 * np.sqrt(2.0 / n)


def test_terminal_variance_matches_rate():
    # v = sigma^2 + intensity * E[J^2] = 1 + 1
    spec = make_noise_spec([NoiseMode(wiener_vol=1.0, jump_intensity=1.0,
                                      jump_law=TwoPointJumps(1.0))])
    n = 10_000
    finals = sample_ensemble(spec, 1.0, 0.25, n, 31).values[:, -1, 0]
    sq = finals**2
    assert abs(sq.mean() - 2.0) <= 3.0 * sq.std(ddof=1) / np.sqrt(n)
    # martingale property: mean final value compatible with zero
    assert abs(finals.mean()) <= 3.0 * finals.std(ddof=1) / np.sqrt(n)


def test_covariance_entrywise():
    spec = two_mode_spec()
    n = 4000
    finals = sample_ensemble(spec, 2.0, 0.25, n, 55).values[:, -1]
    target = np.diag(2.0 * spec.variance_rates)
    for a in range(2):
        for b in range(2):
            prod = finals[:, a] * finals[:, b]
            se = prod.std(ddof=1) / np.sqrt(n)
            assert abs(prod.mean() - target[a, b]) <= 3.0 * se


def test_path_grid_contains_base_and_jumps():
    spec = two_mode_spec()
    path = sample_path(spec, 1.0, 0.125, rng_for(9, 4))
    base = np.linspace(0, 1.0, 9)
    np.testing.assert_array_equal(path.times[path.base_indices], base)
    for idx, t in zip(path.jump_indices, path.times[path.jump_indices]):
        assert 0 < t <= 1.0
        assert path.times[idx] == t
    assert path.values.shape == (2, len(path.times))
    assert np.all(np.diff(path.times) > 0)


def test_jump_only_path_piecewise_constant():
    spec = make_noise_spec([NoiseMode(jump_intensity=3.0, jump_law=TwoPointJumps(0.7))])
    path = sample_path(spec, 1.0, 0.25, rng_for(2, 0))
    incr = np.diff(path.values[0])
    jump_steps = {int(i) - 1 for i in path.jump_indices}
    for j, d in enumerate(incr):
        if j in jump_steps:
            assert abs(d) == pytest.approx(0.7)
        else:
            assert d == 0.0


def test_reproducibility_and_stream_independence():
    spec = two_mode_spec()
    a = sample_path(spec, 1.0, 0.125, rng_for(123, 5))
    b = sample_path(spec, 1.0, 0.125, rng_for(123, 5))
    np.testing.assert_array_equal(a.times, b.times)
    np.testing.assert_array_equal(a.values, b.values)
    c = sample_path(spec, 1.0, 0.125, rng_for(123, 6))
    assert not np.array_equal(a.values[:, -1], c.values[:, -1])


def test_stochastic_integral_zero_and_constant(lap):
    spec = two_mode_spec()
    ens = sample_ensemble(spec, 1.0, 0.125, 1, 77)
    zero = stochastic_integrals(ConstantOperator(np.zeros((2, lap.n))), ens, lap)
    np.testing.assert_array_equal(zero, 0.0)
    # constant single-field integrand telescopes to g * M_k(t)
    g = eigenmode(lap, 1)
    fields = np.stack([g, np.zeros(lap.n)])
    gm = stochastic_integrals(ConstantOperator(fields), ens, lap)
    np.testing.assert_allclose(gm[0], np.outer(ens.values[0, :, 0], g), atol=1e-14)


def test_stochastic_integral_jump_hand_sum(lap):
    # paths 0 and 1 of seed 5; each final value is g times its jumps' sum
    spec = make_noise_spec([NoiseMode(jump_intensity=2.0, jump_law=TwoPointJumps(1.0))])
    ens = sample_ensemble(spec, 1.0, 0.5, 2, 5)
    path, _, _, sizes = ens.jumps
    assert np.count_nonzero(path == 1) > 0
    g = eigenmode(lap, 0)
    gm = stochastic_integrals(ConstantOperator(g[None, :]), ens, lap)
    for p in range(2):
        np.testing.assert_allclose(gm[p, -1], g * sizes[path == p].sum(), atol=1e-14)


def test_step_operator_left_limits(lap):
    spec = make_noise_spec([NoiseMode(wiener_vol=1.0)])
    ens = sample_ensemble(spec, 1.0, 0.25, 1, 8)
    g1, g2 = eigenmode(lap, 0), eigenmode(lap, 1)
    op = StepOperator([0.0, 0.5, 1.0], np.stack([g1[None, :], g2[None, :]]))
    gm = stochastic_integrals(op, ens, lap)
    m = ens.values[0, :, 0]
    t = ens.times[0]
    k = int(np.searchsorted(t, 0.5))
    expected = np.where((t <= 0.5)[:, None], np.outer(m, g1),
                        np.outer(m[k], g1) + np.outer(m - m[k], g2))
    np.testing.assert_allclose(gm[0], expected, atol=1e-12)


def ragged_paths(spec):
    # three paths on [0, 1/2] with 0, 1 and 3 jump times inserted into the
    # base grid, so their grids have 5, 6 and 8 points
    base = np.linspace(0.0, 0.5, 5)
    rng = np.random.default_rng(23)
    paths = []
    for jumps in ([], [0.3], [0.05, 0.2, 0.45]):
        times = np.unique(np.concatenate([base, jumps]))
        values = np.zeros((spec.n_modes, len(times)))
        np.cumsum(rng.standard_normal((spec.n_modes, len(times) - 1)), axis=1,
                  out=values[:, 1:])
        idx = np.searchsorted(times, jumps).astype(int)
        paths.append(MartingalePath(
            times=times, values=values, jump_indices=idx,
            jump_modes=np.zeros(len(idx), dtype=int),
            jump_sizes=values[0, idx] - values[0, idx - 1],
            base_indices=np.searchsorted(times, base)))
    return paths


def ito_reference(op, path, n):
    # sum_j sum_k G_k(t_{j-1}) (M_k(t_j) - M_k(t_{j-1})), one term at a time
    out = np.zeros((len(path.times), n))
    for j in range(1, len(path.times)):
        g = op.at_many(path.times[j - 1:j])[0]
        incr = np.zeros(n)
        for k in range(len(path.values)):
            incr = incr + g[k] * (path.values[k, j] - path.values[k, j - 1])
        out[j] = out[j - 1] + incr if j > 1 else incr
    return out


@pytest.mark.parametrize("n_modes", [1, 2, 3])
def test_stochastic_integrals_match_explicit_sums(lap, n_modes):
    spec = make_noise_spec([NoiseMode(wiener_vol=1.0)] * n_modes)
    paths = ragged_paths(spec)
    assert [len(p.jump_indices) for p in paths] == [0, 1, 3]
    assert [len(p.times) for p in paths] == [5, 6, 8]
    rng = np.random.default_rng(29)
    constant = ConstantOperator(rng.standard_normal((n_modes, lap.n)))
    # two pieces that switch at a jump time of the last path
    step = StepOperator([0.0, 0.2, 0.5], rng.standard_normal((2, n_modes, lap.n)))
    ens = hold_paths(paths)
    for op in (constant, step):
        integrals = stochastic_integrals(op, ens, lap)
        assert integrals.shape == (3, 8, lap.n)
        for path, values in zip(paths, integrals):
            m = len(path.times)
            np.testing.assert_array_equal(values[:m], ito_reference(op, path, lap.n))
            # every row after the path's last step holds its last row, bit for bit
            np.testing.assert_array_equal(values[m:], np.broadcast_to(values[m - 1],
                                                                      values[m:].shape))
            # the one-path view is the one-row ensemble's integral
            np.testing.assert_array_equal(stochastic_integral(op, path, lap), values[:m])


def test_stochastic_integrals_mode_and_node_errors(lap):
    paths = ragged_paths(make_noise_spec([NoiseMode(wiener_vol=1.0)] * 2))
    ens = hold_paths(paths)
    with pytest.raises(ValueError, match="integrand has 3 modes, path has 2"):
        stochastic_integrals(ConstantOperator(np.ones((3, lap.n))), ens, lap)
    with pytest.raises(ValueError, match="integrand fields have 4 nodes, grid has 15"):
        stochastic_integrals(ConstantOperator(np.ones((2, 4))), ens, lap)
    with pytest.raises(ValueError, match="integrand has 1 modes, path has 2"):
        stochastic_integral(ConstantOperator(np.ones((1, lap.n))), paths[1], lap)


@pytest.mark.parametrize("breaks", [[0.0, 0.75, 0.5, 1.0], [0.0, 0.5, 0.5, 1.0]],
                         ids=["misordered", "repeated"])
def test_step_breakpoints_must_increase_strictly(breaks):
    with pytest.raises(ValueError, match="strictly increasing"):
        StepOperator(breaks, np.ones((3, 1, 4)))


def test_one_piece_evaluation_is_a_zero_stride_view():
    # a constant integrated over an ensemble is one field for every path and
    # step, not one copy each
    fields = np.arange(8.0).reshape(2, 4)
    ts = np.zeros((1_000, 50))
    for op in (ConstantOperator(fields), StepOperator([0.0, 0.5], fields[None])):
        view = op.at_many(ts)
        assert view.shape == (1_000, 50, 2, 4)
        assert view.strides[:2] == (0, 0)
        np.testing.assert_array_equal(view[123, 45], fields)


def test_step_difference_lives_on_the_union_of_breakpoints():
    rng = np.random.default_rng(31)
    a = StepOperator([0.0, 0.125, 0.25], rng.standard_normal((2, 2, 3)))
    b = StepOperator([0.1, 0.25, 0.5], rng.standard_normal((2, 2, 3)))
    c = ConstantOperator(rng.standard_normal((2, 3)))
    # every piece of either side, and times before and after all breakpoints
    ts = np.array([-1.0, 0.0, 0.05, 0.1, 0.11, 0.125, 0.2, 0.25, 0.3, 0.5, 2.0])
    for op1, op2 in ((a, b), (b, a), (a, c), (c, b), (c, c)):
        diff = op1 - op2
        np.testing.assert_array_equal(diff.breakpoints,
                                      np.union1d(op1.breakpoints, op2.breakpoints))
        np.testing.assert_array_equal(diff.at_many(ts), op1.at_many(ts) - op2.at_many(ts))


def test_realized_qv_cases(lap):
    # paths 0 and 1 of seed 5, held: each row's variation is its own jumps'
    spec = make_noise_spec([NoiseMode(jump_intensity=2.0, jump_law=TwoPointJumps(1.0))])
    ens = sample_ensemble(spec, 1.0, 0.5, 2, 5)
    path, _, _, sizes = ens.jumps
    qv0 = realized_qv(ConstantOperator(np.zeros((1, lap.n))), ens, spec, lap)
    np.testing.assert_array_equal(qv0, 0.0)
    g = eigenmode(lap, 0)
    qv = realized_qv(ConstantOperator(g[None, :]), ens, spec, lap)
    assert qv.shape == ens.times.shape
    gsq = float(hminus1_norm_sq_rows(lap, g[None, :])[0])
    for p in range(2):
        assert qv[p, -1] == pytest.approx((sizes[path == p]**2).sum() * gsq, rel=1e-12)
    assert np.all(np.diff(qv, axis=1) >= -1e-15)


def test_qv_isometry_monte_carlo(lap):
    # E [G.M](T) and E |G.M(T)|^2 both match sum_k v_k |g_k|^2 T
    spec = two_mode_spec()
    g = np.stack([eigenmode(lap, 0), 0.5 * eigenmode(lap, 2)])
    target = 1.0 * float(spec.variance_rates @ hminus1_norm_sq_rows(lap, g))
    op = ConstantOperator(g)
    n = 4000
    # one pass draws the paths, one integral call gives their final values and
    # one realized_qv call their variations, read off the ensemble's jump records
    ens = sample_ensemble(spec, 1.0, 0.125, n, 99)
    finals = hminus1_norm_sq_rows(lap, stochastic_integrals(op, ens, lap)[:, -1])
    qvs = realized_qv(op, ens, spec, lap)[:, -1]
    assert abs(qvs.mean() - target) <= 3 * qvs.std(ddof=1) / np.sqrt(n)
    assert abs(finals.mean() - target) <= 3 * finals.std(ddof=1) / np.sqrt(n)


def test_hs_norm_q_cases(lap):
    spec = make_noise_spec([NoiseMode(wiener_vol=1.0)])
    zero = ConstantAdditive(fields=np.zeros((1, lap.n)))
    assert hs_norm_q(zero, np.zeros(lap.n), spec, lap) == 0.0
    B = ConstantAdditive(fields=eigenmode(lap, 0)[None, :])
    val = hs_norm_q(B, np.zeros(lap.n), spec, lap)
    assert val == pytest.approx(lap.eigenvalues[0] ** -0.5, rel=1e-10)
    B2 = ConstantAdditive(fields=2.0 * eigenmode(lap, 0)[None, :])
    assert hs_norm_q(B2, np.zeros(lap.n), spec, lap) == pytest.approx(2 * val, rel=1e-12)


def test_linear_spectral_lipschitz_and_growth(lap):
    spec = two_mode_spec()
    B = LinearSpectral(coeffs=[0.6, 0.4], gamma=1.0)
    analytic = float(spec.variance_rates @ np.array([0.36, 0.16])) * lap.eigenvalues[0] ** -2.0
    measured = lipschitz_constant(B, spec, lap, n_pairs=128, seed=3)
    assert measured <= analytic * (1 + 1e-9)
    assert measured >= 0.2 * analytic
    grown = growth_constant(B, spec, lap, seed=3)
    assert np.isfinite(grown) and grown > 0
    assert lipschitz_constant(ConstantAdditive(np.zeros((2, lap.n))), spec, lap) == 0.0


def test_mode_fields_batch_consistency(lap):
    spec = two_mode_spec()
    states = np.random.default_rng(0).standard_normal((6, lap.n))
    for B in (
        ConstantAdditive(fields=np.stack([eigenmode(lap, 0), eigenmode(lap, 1)])),
        LinearSpectral(coeffs=[0.6, 0.4], gamma=1.0),
        SmoothedNemytskii(coeffs=[0.6, 0.4], gamma=1.0, transform="tanh"),
        MollifiedDiffusion(LinearSpectral(coeffs=[0.6, 0.4], gamma=0.0), 4),
    ):
        batch = B.mode_fields_batch(states, lap)
        for i, x in enumerate(states):
            np.testing.assert_allclose(batch[i], B.mode_fields(x, lap), atol=1e-13)
    # closed forms, apart from the one-row wrapper: constant fields for every
    # state, and coeffs[k] * (-Lap)^{-gamma} x for the linear coefficient
    fields = np.stack([eigenmode(lap, 0), eigenmode(lap, 1)])
    np.testing.assert_array_equal(ConstantAdditive(fields=fields).mode_fields_batch(states, lap),
                                  np.broadcast_to(fields, (len(states),) + fields.shape))
    for gamma in (0.0, 0.5, 1.0):
        batch = LinearSpectral(coeffs=[0.6, 0.4], gamma=gamma).mode_fields_batch(states, lap)
        assert batch.shape == (len(states), 2, lap.n)
        for i, x in enumerate(states):
            for k, c in enumerate([0.6, 0.4]):
                np.testing.assert_allclose(batch[i, k], c * smooth_gamma(x, gamma, lap),
                                           rtol=0, atol=1e-13)
                if gamma == 1.0:
                    np.testing.assert_allclose(batch[i, k], c * solve_laplacian(lap, x),
                                               rtol=0, atol=1e-12)


def test_mollified_coefficient_matches_mollify(lap):
    base = LinearSpectral(coeffs=[0.6, 0.4], gamma=0.0)
    level = 4
    x = np.random.default_rng(1).standard_normal(lap.n)
    raw = base.mode_fields(x, lap)
    wrapped = MollifiedDiffusion(base, level).mode_fields(x, lap)
    for k in range(2):
        np.testing.assert_allclose(wrapped[k], mollify(raw[k], level, lap), atol=1e-13)


def test_nemytskii_transform_and_validation(lap):
    B = SmoothedNemytskii(coeffs=[1.0], gamma=1.0, transform="tanh")
    x = np.linspace(-2, 2, lap.n)
    np.testing.assert_allclose(B.mode_fields(x, lap)[0],
                               smooth_gamma(np.tanh(x), 1.0, lap), atol=1e-13)
    with pytest.raises(ValueError, match="transform"):
        SmoothedNemytskii(coeffs=[1.0], gamma=1.0, transform="bogus")


def test_spectral_coefficients_match_their_formula(lap):
    # the reference formula, written out apart from the shared spectral body:
    # mode k carries coeffs[k] * (-Lap)^{-gamma} T(x), T = identity for the linear one
    c = np.array([0.6, -0.4, 1.3])
    states = 2.0 * np.random.default_rng(4).standard_normal((5, lap.n))
    transforms = {"tanh": np.tanh, "sin": np.sin, "soft_clip": lambda x: x / (1.0 + np.abs(x))}
    for gamma in (0.0, 1.0):
        cases = [(LinearSpectral(coeffs=c, gamma=gamma), lambda x: x)]
        cases += [(SmoothedNemytskii(coeffs=c, gamma=gamma, transform=name), T)
                  for name, T in transforms.items()]
        for B, T in cases:
            np.testing.assert_array_equal(B.mode_fields_batch(states, lap),
                                          np.einsum("k,mn->mkn", c,
                                                    smooth_gamma(T(states), gamma, lap)))
    assert [f.name for f in fields(LinearSpectral)] == ["coeffs", "gamma"]
    assert [f.name for f in fields(SmoothedNemytskii)] == ["coeffs", "gamma", "transform"]
    assert repr(LinearSpectral([0.5])) == "LinearSpectral(coeffs=array([0.5]), gamma=1.0)"
    assert (repr(SmoothedNemytskii(0.5, 0.25, "sin"))
            == "SmoothedNemytskii(coeffs=array([0.5]), gamma=0.25, transform='sin')")
    for cls in (LinearSpectral, SmoothedNemytskii):
        with pytest.raises(ValueError, match=r"^gamma must be >= 0$"):
            cls(coeffs=[1.0], gamma=-0.5)
    with pytest.raises(ValueError, match="^" + re.escape(
            "unknown transform 'bogus', choose from ['sin', 'soft_clip', 'tanh']") + "$"):
        SmoothedNemytskii(coeffs=[1.0], transform="bogus")


def test_mode_validation():
    with pytest.raises(ValueError):
        NoiseMode(wiener_vol=-1.0)
    with pytest.raises(ValueError):
        NoiseMode(jump_intensity=1.0)  # missing law
    with pytest.raises(ValueError):
        TwoPointJumps(0.0)
    with pytest.raises(ValueError):
        NormalJumps(-1.0)


def test_realized_qv_step_operator_left_limit(lap):
    # the jump contribution must use the integrand value in force just before
    # the jump, not the value after a breakpoint crossing
    spec = make_noise_spec([NoiseMode(jump_intensity=2.0, jump_law=TwoPointJumps(1.0))])
    ens = sample_ensemble(spec, 1.0, 0.5, 2, 5)
    g1, g2 = eigenmode(lap, 0), eigenmode(lap, 1)
    op = StepOperator([0.0, 0.5, 1.0], np.stack([g1[None, :], g2[None, :]]))
    qv = realized_qv(op, ens, spec, lap)
    expected = np.zeros(2)
    for p, idx, _, size in zip(*ens.jumps):
        t_left = ens.times[p, idx - 1]
        g = g1 if t_left < 0.5 else g2
        expected[p] += size**2 * float(hminus1_norm_sq_rows(lap, g[None, :])[0])
    np.testing.assert_allclose(qv[:, -1], expected, rtol=1e-12)


def test_union_is_union1d_bit_for_bit():
    rng = np.random.default_rng(21)
    a = rng.choice(rng.standard_normal(12), 40)  # many repeats
    b = np.concatenate([rng.choice(a, 15), rng.standard_normal(6), [0.0, 0.0]])
    inf = np.array([np.inf, -np.inf, 0.5, np.inf])
    empty = np.empty(0)
    for x, y in [(a, b), (b, a), (inf, -inf), (inf, b), (empty, empty), (empty, a), (b, empty)]:
        got, want = _union(x, y), np.union1d(x, y)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


SAMPLER_SPECS = {
    "jumps-two-point": [NoiseMode(jump_intensity=6.0, jump_law=TwoPointJumps(0.5))],
    "jumps-normal": [NoiseMode(jump_intensity=6.0, jump_law=NormalJumps(0.4))],
    "wiener": [NoiseMode(wiener_vol=0.7)],
    "three-modes": [NoiseMode(wiener_vol=0.8, jump_intensity=2.0, jump_law=TwoPointJumps(0.5)),
                    NoiseMode(jump_intensity=8.0, jump_law=NormalJumps(0.3)),
                    NoiseMode(wiener_vol=0.5, jump_intensity=1.0, jump_law=NormalJumps(0.4))],
}


def seed_sequence_rng(seed, index):
    # the oracle stream of path index under seed, from numpy's own SeedSequence
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(index,)))


def assert_same_held_ensemble(ens, ref):
    # the held grids, values and base indices, and each jump record array, byte for byte
    pairs = [(ens.times, ref.times), (ens.values, ref.values),
             (ens.base_indices, ref.base_indices), *zip(ens.jumps, ref.jumps, strict=True)]
    for a, b in pairs:
        assert a.shape == b.shape and a.dtype == b.dtype
        assert a.tobytes() == b.tobytes()


# 2**128 - 1 and 2**128 are the last four-word and the first five-word seed
STREAM_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 + 3, 2**96, 2**128 - 1, 2**128, 2**130 + 9]


@pytest.mark.parametrize("n_paths", [1, 3, 400])
@pytest.mark.parametrize("seed", STREAM_SEEDS, ids=str)
def test_streams_are_numpys_seed_sequence_children(seed, n_paths):
    # the streams seeded in one pass are numpy's SeedSequence(seed, spawn_key=(i,))
    # generators, in state and in draws; rng_for is the one-index case
    rngs = rngs_for(seed, range(n_paths))
    assert len(rngs) == n_paths
    for i, rng in enumerate(rngs):
        ref = seed_sequence_rng(seed, i)
        assert rng.bit_generator.state == ref.bit_generator.state
        assert rng.random(3).tobytes() == ref.random(3).tobytes()
        assert np.array_equal(rng.integers(0, 2**62, 4), ref.integers(0, 2**62, 4))
    for i in (0, n_paths - 1, n_paths + 7, 2**32 - 1):
        ref = seed_sequence_rng(seed, i)
        assert rng_for(seed, i).bit_generator.state == ref.bit_generator.state


def test_streams_refuse_a_negative_seed_and_an_index_beyond_32_bits():
    # the message names the refused value: the seed, or the first index out of range
    for seed, indices, bad in [(-1, [0], -1), (-(2**70), [0], -(2**70)), (1, [2**32], 2**32),
                               (1, [0, 5, 2**40], 2**40), (1, [-1], -1), (3, [7, -2, 2**33], -2)]:
        with pytest.raises(ValueError, match=r"master seed >= 0 and indices in \[0, 2\*\*32\)"
                                             rf", got {bad}$"):
            rngs_for(seed, indices)
    with pytest.raises(ValueError):
        rng_for(-3, 0)
    with pytest.raises(ValueError):
        sample_ensemble(make_noise_spec(SAMPLER_SPECS["wiener"]), 0.25, 1 / 32, 3, [4, -1])


@pytest.mark.parametrize("horizon, dt, n_paths", [
    (0.25, 1 / 32, 40), (0.25, 1 / 32, 1), (1 / 32, 1 / 32, 60), (0.5, 0.1, 30),
    (2.0, 0.25, 25)], ids=["default", "one-path", "short", "dt-off-horizon", "long"])
@pytest.mark.parametrize("spec_name", sorted(SAMPLER_SPECS))
def test_sample_ensemble_is_held_paths_of_their_streams(spec_name, horizon, dt, n_paths):
    # one pass over the ensemble draws what path by path sampling draws, each
    # path from its own stream, numpy's SeedSequence child (seed, i): the held
    # layout is equal byte for byte
    spec = make_noise_spec(SAMPLER_SPECS[spec_name])
    ens = sample_ensemble(spec, horizon, dt, n_paths, 17)
    ref = hold_paths([sample_path(spec, horizon, dt, seed_sequence_rng(17, i))
                      for i in range(n_paths)])
    assert_same_held_ensemble(ens, ref)


@pytest.mark.parametrize("spec_name", sorted(SAMPLER_SPECS))
def test_sample_ensemble_of_several_seeds_holds_each_seeds_paths(spec_name):
    # a list of master seeds draws paths 0..P-1 under each seed in turn, in one
    # pass; each path is byte for byte the one its own stream draws, held to
    # the common width
    spec = make_noise_spec(SAMPLER_SPECS[spec_name])
    ens = sample_ensemble(spec, 0.25, 1 / 32, 6, [17, 18])
    ref = hold_paths([sample_path(spec, 0.25, 1 / 32, seed_sequence_rng(seed, i))
                      for seed in (17, 18) for i in range(6)])
    assert_same_held_ensemble(ens, ref)
