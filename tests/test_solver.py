from dataclasses import replace

import numpy as np
import pytest

import spmlab.solver as solver
from spmlab import (
    ConstantAdditive,
    ConstantOperator,
    Linear,
    LinearSpectral,
    NoiseMode,
    NonContractionError,
    PowerLaw,
    ScaledSignum,
    SolverError,
    SolverConfig,
    StefanPiecewise,
    TwoPointJumps,
    additive_path_solve,
    additive_solve,
    build_laplacian,
    causal_solve,
    eigenmode,
    ensemble_mean_sup_sq,
    generalized_solve,
    hminus1_norm_sq_rows,
    implicit_step,
    inner_l2,
    ito_residual,
    lambda_sweep,
    make_grid,
    make_noise_spec,
    march_batch,
    mollify,
    norm_hminus1,
    picard_solve,
    strong_identity_residual,
    trajectory_diagnostics,
    uniform_times,
)
from spmlab.cli import _Context
from spmlab.config import ExperimentConfig
from spmlab.noise import held_steps, sample_ensemble, stochastic_integrals
from spmlab.solver import Trajectory
from testkit import held


def quiet(times, L):
    # one noiseless path on a grid: the held one-row grid and its zero driving integral
    return times[None], np.zeros((1, len(times), L.n))


@pytest.fixture(scope="module")
def lap():
    return build_laplacian(make_grid(1, 15, 1.0))


@pytest.fixture(scope="module")
def lap1():
    return build_laplacian(make_grid(1, 1, 1.0))


def two_mode_spec():
    return make_noise_spec([
        NoiseMode(wiener_vol=1.0, jump_intensity=2.0, jump_law=TwoPointJumps(0.5)),
        NoiseMode(wiener_vol=0.7, jump_intensity=1.0, jump_law=TwoPointJumps(0.4)),
    ])


def scalar_step_oracle(graph, lam, a, tau, g, rhs):
    # bisection on the monotone scalar map y + tau*a*(yosida + lam*id)(y+g) = rhs
    def fn(y):
        u = y + g
        drift = graph.yosida(lam, u) + lam * u if lam > 0 else graph.minimal_section(u)
        return y + tau * a * drift - rhs

    lo, hi = rhs - abs(rhs) - 10, rhs + abs(rhs) + 10
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if fn(mid) > 0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def test_flapack_loader_names_the_folder_and_scipy_version(tmp_path):
    from importlib.metadata import version

    with pytest.raises(ImportError) as info:
        solver._load_flapack(str(tmp_path))
    assert str(tmp_path) in str(info.value)
    assert f"scipy {version('scipy')}" in str(info.value)


def test_implicit_step_zero_fixed_point(lap):
    for graph, lam in [(PowerLaw(3.0), 0.1), (StefanPiecewise(1.0, 2.0, 1.0), 0.1),
                       (Linear(1.0), 0.0)]:
        y, sel = implicit_step(graph, lam, lap, 0.01, np.zeros(lap.n), np.zeros(lap.n))
        np.testing.assert_allclose(y, 0.0, atol=1e-12)
        np.testing.assert_allclose(sel, 0.0, atol=1e-12)


def test_implicit_step_linear_by_hand(lap1):
    # n=1, mu=8, tau=1/8: y*(1 + tau*mu) = rhs -> y = 0.5
    y, sel = implicit_step(Linear(1.0), 0.0, lap1, 1.0 / 8.0, np.array([1.0]), np.array([0.0]))
    assert y[0] == pytest.approx(0.5, abs=1e-12)
    assert sel[0] == pytest.approx(0.5, abs=1e-12)


def test_implicit_step_powerlaw_vs_bisection(lap1):
    tau, lam = 0.05, 0.2
    graph = PowerLaw(3.0)
    for rhs, g in [(1.0, 0.0), (-0.7, 0.3), (2.5, -1.0)]:
        y, _ = implicit_step(graph, lam, lap1, tau, np.array([rhs]), np.array([g]))
        oracle = scalar_step_oracle(graph, lam, lap1.matrix[0, 0], tau, g, rhs)
        assert y[0] == pytest.approx(oracle, abs=1e-9)


def test_additive_zero_data_zero_solution(lap):
    times = uniform_times(0.5, 0.05)
    cfg = SolverConfig(lam=0.1, dt=0.05)
    traj = additive_solve(PowerLaw(3.0), cfg, lap, np.zeros(lap.n), *quiet(times, lap))
    np.testing.assert_array_equal(traj.states, 0.0)


def test_additive_linear_exact_decay(lap):
    tau = 0.01
    times = uniform_times(0.1, tau)
    phi = eigenmode(lap, 0)
    mu = lap.eigenvalues[0]
    cfg = SolverConfig(lam=0.0, dt=tau)
    traj = additive_solve(Linear(1.0), cfg, lap, phi, *quiet(times, lap))
    for i, t in enumerate(times):
        np.testing.assert_allclose(traj.states[0, i], (1 + tau * mu) ** (-i) * phi, atol=1e-12)


def test_additive_powerlaw_dissipative(lap):
    times = uniform_times(0.5, 0.01)
    cfg = SolverConfig(lam=0.05, dt=0.01)
    x0 = eigenmode(lap, 0) + 0.3 * eigenmode(lap, 2)
    traj = additive_solve(PowerLaw(3.0), cfg, lap, x0, *quiet(times, lap))
    norms = hminus1_norm_sq_rows(lap, traj.states[0])
    assert np.all(np.diff(norms) <= 1e-12)


def test_strong_identity_residual_and_dissipation_sign(lap):
    spec = two_mode_spec()
    ens = sample_ensemble(spec, 0.25, 1 / 128, 1, 17)
    fields = np.stack([0.4 * eigenmode(lap, 0), 0.2 * eigenmode(lap, 1)])
    gm = stochastic_integrals(ConstantOperator(fields), ens, lap)
    cfg = SolverConfig(lam=0.05, dt=1 / 128)
    x0 = eigenmode(lap, 0)
    traj = additive_solve(PowerLaw(3.0), cfg, lap, x0, ens.times, gm)
    resid = strong_identity_residual(traj, gm, x0, lap)
    assert resid.shape == ens.times.shape
    assert resid.max() <= 10 * cfg.newton_tol
    # the selection at the state never opposes it
    pairing = np.array([inner_l2(traj.states[0, i], traj.selections[0, i], lap.grid)
                        for i in range(ens.times.shape[1])])
    assert np.all(pairing >= -1e-10)
    diag = trajectory_diagnostics(traj, PowerLaw(3.0), lap)
    assert diag["potential_integral"][0] >= 0
    assert diag["conjugate_integral"][0] >= 0
    # the one-path view is the one-row solve
    view = additive_path_solve(PowerLaw(3.0), cfg, lap, x0, ens.times[0], gm[0])
    np.testing.assert_array_equal(view.states, traj.states[0])


def test_gates(lap):
    path = quiet(uniform_times(0.1, 0.05), lap)
    with pytest.raises(SolverError, match="surjective"):
        additive_solve(ScaledSignum(1.0), SolverConfig(lam=0.1, dt=0.05), lap,
                       np.zeros(lap.n), *path)
    # gated variant runs when explicitly allowed
    cfg = SolverConfig(lam=0.1, dt=0.05, allow_nonsurjective=True)
    additive_solve(ScaledSignum(1.0), cfg, lap, np.zeros(lap.n), *path)
    with pytest.raises(SolverError, match="Lipschitz"):
        additive_solve(PowerLaw(3.0), SolverConfig(lam=0.0, dt=0.05), lap,
                       np.zeros(lap.n), *path)


def test_lambda_sweep_linear_first_order(lap):
    # closed form: the regularized drift slope is c/(1+lam*c) + lam, which is
    # c + lam*(1 - c^2) + O(lam^2); for c != 1 the solves differ by O(lam)
    path = quiet(uniform_times(0.2, 0.01), lap)
    x0 = eigenmode(lap, 0)
    cfg = SolverConfig(lam=0.0, dt=0.01)
    base = additive_solve(Linear(0.5), cfg, lap, x0, *path)
    gaps = []
    for lam in (0.2, 0.1, 0.05, 0.025):
        traj = additive_solve(Linear(0.5), SolverConfig(lam=lam, dt=0.01), lap, x0, *path)
        gaps.append(np.sqrt(hminus1_norm_sq_rows(lap, traj.states - base.states)).max())
    ratios = np.array(gaps[:-1]) / np.array(gaps[1:])
    assert np.all(ratios > 1.5) and np.all(ratios < 2.5)


def test_lambda_sweep_report(lap):
    spec = two_mode_spec()
    ens = sample_ensemble(spec, 0.25, 1 / 256, 1, 11)
    fields = np.stack([0.3 * eigenmode(lap, 0), 0.2 * eigenmode(lap, 2)])
    gm = stochastic_integrals(ConstantOperator(fields), ens, lap)
    cfg = SolverConfig(lam=0.25, dt=1 / 256)
    lams = [2.0 ** (-k) for k in range(2, 8)]
    rep = lambda_sweep(PowerLaw(3.0), cfg, lap, eigenmode(lap, 0), ens.times, gm, lams)
    assert np.all(np.diff(rep.sup_diffs) < 0)
    assert np.all(rep.gap_ratios <= rep.gap_ratios[0] * (1 + 1e-12))
    assert np.all(rep.gap_integrals >= 0)
    # the batched sweep agrees with the smallest lam solved on its own
    alone = trajectory_diagnostics(
        additive_solve(PowerLaw(3.0), replace(cfg, lam=lams[-1]), lap, eigenmode(lap, 0), ens.times,
                       gm), PowerLaw(3.0), lap)
    assert rep.potential_integrals[-1] == pytest.approx(alone["potential_integral"][0], rel=1e-9)
    assert rep.conjugate_integrals[-1] == pytest.approx(alone["conjugate_integral"][0], rel=1e-9)
    # the gate tests the swept lams, not cfg.lam: lam = 0 is refused for
    # PowerLaw(3) only when it is marched
    rep0 = lambda_sweep(PowerLaw(3.0), replace(cfg, lam=0.0), lap, eigenmode(lap, 0), ens.times,
                        gm, lams)
    np.testing.assert_array_equal(rep0.gap_integrals, rep.gap_integrals)
    with pytest.raises(ValueError):
        lambda_sweep(PowerLaw(3.0), cfg, lap, eigenmode(lap, 0), ens.times, gm, [0.1, 0.2])


def test_same_noise_contraction_pathwise(lap):
    # identical integrands: squared dual distance never exceeds the datum gap
    spec = two_mode_spec()
    cfg = SolverConfig(lam=0.05, dt=1 / 64)
    fields = np.stack([0.4 * eigenmode(lap, 0), 0.2 * eigenmode(lap, 1)])
    x1 = eigenmode(lap, 0)
    x2 = 0.5 * eigenmode(lap, 0) + 0.2 * eigenmode(lap, 3)
    gap = float(hminus1_norm_sq_rows(lap, (x1 - x2)[None, :])[0])
    ens = sample_ensemble(spec, 0.25, 1 / 64, 5, 23)
    gm = stochastic_integrals(ConstantOperator(fields), ens, lap)
    t1 = additive_solve(PowerLaw(3.0), cfg, lap, x1, ens.times, gm)
    t2 = additive_solve(PowerLaw(3.0), cfg, lap, x2, ens.times, gm)
    dist = hminus1_norm_sq_rows(lap, t1.states - t2.states)
    assert np.all(dist <= gap * (1 + 1e-10))


def test_picard_zero_coefficient_matches_deterministic(lap):
    spec = two_mode_spec()
    cfg = SolverConfig(lam=0.0, dt=1 / 32)
    ens = sample_ensemble(spec, 0.25, 1 / 32, 3, 41)
    B0 = ConstantAdditive(fields=np.zeros((2, lap.n)))
    x0 = eigenmode(lap, 0)
    res = picard_solve(Linear(1.0), B0, spec, cfg, lap, x0, ens)
    traj = res.trajectories[0]
    det = additive_solve(Linear(1.0), cfg, lap, x0, *quiet(traj.times, lap))
    np.testing.assert_allclose(traj.states[ens.base_indices[0]],
                               det.states[0, det.times[0].searchsorted(res.base_times)],
                               atol=1e-12)
    assert res.window_distances[0][-1] == 0.0


def test_picard_constant_coefficient_two_sweeps(lap):
    spec = two_mode_spec()
    cfg = SolverConfig(lam=0.0, dt=1 / 32)
    # the held ensemble for the solver, each path cut to its steps and solved
    # alone as a one-row ensemble for the references
    ens = sample_ensemble(spec, 0.25, 1 / 32, 4, 43)
    B = ConstantAdditive(fields=np.stack([0.4 * eigenmode(lap, 0), 0.2 * eigenmode(lap, 1)]))
    gm = stochastic_integrals(ConstantOperator(B.fields), ens, lap)
    lengths = held_steps(ens.times) + 1

    def alone(graph, cfg, p):
        m = lengths[p]
        return additive_solve(graph, cfg, lap, eigenmode(lap, 0), ens.times[p:p + 1, :m],
                              gm[p:p + 1, :m])

    res = picard_solve(Linear(1.0), B, spec, cfg, lap, eigenmode(lap, 0), ens)
    # state-independent map: the second sweep reproduces the first exactly
    assert res.iterations == 2
    assert res.window_distances[0][-1] == 0.0
    # and it agrees with the direct additive solve path by path
    for p, traj in enumerate(res.trajectories):
        np.testing.assert_allclose(traj.states, alone(Linear(1.0), cfg, p).states[0], atol=1e-12)
    # four windows on grids of unequal lengths: each window is gathered from the
    # held ensemble and written back through the same indices; the windowed
    # march stops Newton at other per-step targets, hence the looser nonlinear atol
    assert list(lengths) == [11, 10, 9, 10]
    for graph, lam, atol in ((Linear(1.0), 0.0, 1e-12), (PowerLaw(3.0), 0.05, 1e-8)):
        wcfg = replace(cfg, lam=lam, window_T0=1 / 16)
        res = picard_solve(graph, B, spec, wcfg, lap, eigenmode(lap, 0), ens)
        assert len(res.windows) == 4 and res.iterations == 8
        for p, traj in enumerate(res.trajectories):
            # each row is a one-path Trajectory of views into the held arrays
            assert isinstance(traj, Trajectory) and traj.lam == lam
            for view, whole in ((traj.times, res.times), (traj.states, res.states),
                                (traj.selections, res.selections)):
                assert np.shares_memory(view, whole)
            direct = alone(graph, wcfg, p)
            np.testing.assert_array_equal(traj.times, direct.times[0])
            np.testing.assert_allclose(traj.states, direct.states[0], rtol=0, atol=atol)
            np.testing.assert_allclose(traj.selections, direct.selections[0], rtol=0, atol=atol)
            # the held states and selections repeat the last row after the last step
            for rows in (res.states[p, lengths[p] - 1:], res.selections[p, lengths[p] - 1:]):
                np.testing.assert_array_equal(rows, np.broadcast_to(rows[0], rows.shape))


def test_picard_linear_spectral_contracts(lap):
    spec = two_mode_spec()
    cfg = SolverConfig(lam=0.0, dt=1 / 64)
    ens = sample_ensemble(spec, 0.5, 1 / 64, 40, 47)
    B = LinearSpectral(coeffs=[0.6, 0.4], gamma=1.0)
    res = picard_solve(Linear(1.0), B, spec, cfg, lap, eigenmode(lap, 0), ens)
    assert res.converged
    dists = res.window_distances[0]
    assert all(b < a for a, b in zip(dists, dists[1:]))
    assert all(f < 1 for f in res.window_factors[0])


def test_picard_windowing_stitches(lap):
    spec = two_mode_spec()
    cfg = SolverConfig(lam=0.0, dt=1 / 32, window_T0=0.25)
    ens = sample_ensemble(spec, 1.0, 1 / 32, 6, 53)
    B = LinearSpectral(coeffs=[0.5, 0.3], gamma=1.0)
    res = picard_solve(Linear(1.0), B, spec, cfg, lap, eigenmode(lap, 0), ens)
    assert len(res.windows) == 4
    assert res.windows[0] == (0.0, 0.25) and res.windows[-1][1] == 1.0
    for traj in res.trajectories:
        assert np.all(np.isfinite(traj.states))


def test_picard_non_contraction_error(lap):
    spec = make_noise_spec([NoiseMode(wiener_vol=0.3, jump_intensity=4.0,
                                      jump_law=TwoPointJumps(0.4))])
    B = LinearSpectral(coeffs=[40.0], gamma=0.0)
    cfg = SolverConfig(lam=0.0, dt=1 / 64, window_T0=1.0)
    ens = sample_ensemble(spec, 1.0, 1 / 64, 8, 3)
    with pytest.raises(NonContractionError, match="window_T0"):
        picard_solve(Linear(1.0), B, spec, cfg, lap, eigenmode(lap, 0), ens)


def test_generalized_smooth_consistency_and_single_level(lap):
    spec = two_mode_spec()
    cfg = SolverConfig(lam=0.0, dt=1 / 32)
    ens = sample_ensemble(spec, 0.25, 1 / 32, 20, 61)
    x0 = eigenmode(lap, 0)
    # a smooth constant coefficient: mollified solves approach the direct one
    g = np.stack([0.5 * eigenmode(lap, 0), 0.3 * eigenmode(lap, 1)])
    B = ConstantAdditive(fields=g)
    res = generalized_solve(Linear(1.0), B, cfg, lap, x0, [2, 4, 8, 16], ens)
    assert res.cauchy_ok
    assert np.all(np.diff(res.sup_mean_distances) < 0)
    direct = picard_solve(Linear(1.0), B, spec, cfg, lap, x0, ens)
    # exact ensemble bound: distance <= horizon * sum_k v_k |(molly - id) g_k|^2
    floor = 0.25 * float(spec.variance_rates @ hminus1_norm_sq_rows(
        lap, np.stack([mollify(g[k], 16, lap) - g[k] for k in range(2)])))
    gap = ensemble_mean_sup_sq(res.limit.states, direct.states, lap)
    assert gap <= 4.0 * floor + 1e-12
    single = generalized_solve(Linear(1.0), B, cfg, lap, x0, [4], ens)
    assert single.cauchy_ok and len(single.sup_mean_distances) == 0
    with pytest.raises(ValueError):
        generalized_solve(Linear(1.0), B, cfg, lap, x0, [4, 2], ens)


def test_ito_residual_zero_case(lap):
    spec = make_noise_spec([NoiseMode(jump_intensity=1.0, jump_law=TwoPointJumps(0.5))])
    ens = sample_ensemble(spec, 0.5, 1 / 16, 1, 71)
    G = ConstantOperator(np.zeros((1, lap.n)))
    cfg = SolverConfig(lam=0.0, dt=1 / 16)
    traj = additive_solve(Linear(1.0), cfg, lap, np.zeros(lap.n), ens.times,
                          stochastic_integrals(G, ens, lap))
    R = ito_residual(traj, G, ens, spec, lap)
    assert R.shape == ens.times.shape
    np.testing.assert_allclose(R, 0.0, atol=1e-14)


def test_ito_residual_linear_no_noise_halves(lap):
    resids = []
    spec, G = make_noise_spec([NoiseMode()]), ConstantOperator(np.zeros((1, lap.n)))
    for dt in (1 / 32, 1 / 64, 1 / 128):
        ens = sample_ensemble(spec, 0.5, dt, 1, 0)
        cfg = SolverConfig(lam=0.0, dt=dt)
        traj = additive_solve(Linear(1.0), cfg, lap, eigenmode(lap, 0), *quiet(ens.times[0], lap))
        R = ito_residual(traj, G, ens, spec, lap)
        resids.append(abs(R[0, -1]))
    ratios = np.array(resids[1:]) / np.array(resids[:-1])
    assert np.all(ratios > 0.35) and np.all(ratios < 0.65)


def test_ito_residual_jump_noise_halves(lap):
    spec = make_noise_spec([NoiseMode(jump_intensity=5.0, jump_law=TwoPointJumps(0.6))])
    G = ConstantOperator(np.outer([0.4], eigenmode(lap, 0)))
    for graph, lam in [(Linear(1.0), 0.0), (PowerLaw(3.0), 0.05)]:
        resids = []
        for dt in (1 / 64, 1 / 128, 1 / 256):
            ens = sample_ensemble(spec, 0.5, dt, 1, 7)
            traj = additive_solve(graph, SolverConfig(lam=lam, dt=dt), lap, eigenmode(lap, 0),
                                  ens.times, stochastic_integrals(G, ens, lap))
            R = ito_residual(traj, G, ens, spec, lap)
            resids.append(abs(R[0, -1]))
        ratios = np.array(resids[1:]) / np.array(resids[:-1])
        assert np.all(ratios > 0.35) and np.all(ratios < 0.65)


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(lam=-0.1, dt=0.01)
    with pytest.raises(ValueError):
        SolverConfig(lam=0.1, dt=0.0)
    with pytest.raises(ValueError):
        SolverConfig(lam=0.1, dt=0.01, epsilon=0.2)
    with pytest.raises(ValueError):
        SolverConfig(lam=0.1, dt=0.01, window_T0=-1.0)
    # zero Picard sweeps leave no distance to judge a window by; zero Newton
    # iterations stay legal (tests force a Newton failure with them)
    with pytest.raises(ValueError, match="picard_max_iter >= 1"):
        SolverConfig(lam=0.1, dt=0.01, picard_max_iter=0)
    with pytest.raises(ValueError, match="newton_max_iter must be >= 0"):
        SolverConfig(lam=0.1, dt=0.01, newton_max_iter=-1)
    SolverConfig(lam=0.1, dt=0.01, newton_max_iter=0)


def test_two_dimensional_solve_and_picard():
    lap2 = build_laplacian(make_grid(2, (4, 5), (1.0, 1.5)))
    spec = make_noise_spec([NoiseMode(wiener_vol=0.5, jump_intensity=2.0,
                                      jump_law=TwoPointJumps(0.4))])
    cfg = SolverConfig(lam=0.05, dt=1 / 64)
    x0 = eigenmode(lap2, 0)
    one = sample_ensemble(spec, 0.25, 1 / 64, 1, 5)
    gm = stochastic_integrals(ConstantOperator(0.3 * x0[None, :]), one, lap2)
    traj = additive_solve(PowerLaw(3.0), cfg, lap2, x0, one.times, gm)
    assert strong_identity_residual(traj, gm, x0, lap2).max() <= 10 * cfg.newton_tol
    ens = sample_ensemble(spec, 0.25, 1 / 64, 5, 6)
    res = picard_solve(PowerLaw(3.0), LinearSpectral(coeffs=[0.4], gamma=1.0),
                       spec, cfg, lap2, x0, ens)
    assert res.converged


def test_picard_is_odd_in_the_datum():
    # PowerLaw(3) is odd and LinearSpectral linear, so -x0 on the same paths gives
    # -X: flipping the sign of an eigenmode datum flips the solution and nothing else
    lap6 = build_laplacian(make_grid(2, 6, 1.0))
    cfg = SolverConfig(lam=0.05, dt=1 / 64)
    B = LinearSpectral(coeffs=[0.6, 0.4], gamma=1.0)
    spec = two_mode_spec()
    ens = sample_ensemble(spec, 0.25, 1 / 64, 4, 9)
    plus, minus = (picard_solve(PowerLaw(3.0), B, spec, cfg, lap6, sign * eigenmode(lap6, 0),
                                ens) for sign in (1.0, -1.0))
    assert plus.iterations == minus.iterations
    for a, b in zip(plus.trajectories, minus.trajectories):
        np.testing.assert_allclose(b.states, -a.states, rtol=0, atol=1e-14)
        np.testing.assert_allclose(b.selections, -a.selections, rtol=0, atol=1e-14)


def test_implicit_step_residual_contract_stefan(lap):
    # kinked slopes exercise the damped Newton path; the post-condition is a
    # dual-norm residual below newton_tol * (1 + |rhs|)
    graph = StefanPiecewise(slope_neg=1.0, slope_pos=3.0, height=2.0)
    rng = np.random.default_rng(8)
    lam, tau = 0.1, 0.02
    for _ in range(5):
        rhs = rng.standard_normal(lap.n)
        g = 0.3 * rng.standard_normal(lap.n)
        y, sel = implicit_step(graph, lam, lap, tau, rhs, g, newton_tol=1e-10)
        drift = np.asarray(graph.yosida(lam, y + g)) + lam * (y + g)
        resid = y + tau * (lap.matrix @ drift) - rhs
        assert norm_hminus1(resid, lap) <= 1e-10 * (1 + norm_hminus1(rhs, lap))
        np.testing.assert_allclose(sel, np.asarray(graph.yosida(lam, y + g)), atol=1e-13)


def serial_reference_step(graph, lam, L, tau, rhs, g):
    # plain damped Newton on one step, driven to the rounding floor, with the
    # separate value and slope calls and a Cholesky dual norm
    def drift(u):
        if lam > 0:
            return np.asarray(graph.yosida(lam, u)) + lam * u, \
                np.clip(np.asarray(graph.yosida_slope(lam, u)) + lam, lam, lam + 1 / lam)
        return np.asarray(graph.minimal_section(u)), np.asarray(graph.section_slope(u))

    def residual(y):
        return y + tau * (L.matrix @ drift(y + g)[0]) - rhs

    y = rhs.copy()
    res = norm_hminus1(residual(y), L)
    for _ in range(100):
        jac = np.eye(L.n) + tau * L.matrix * drift(y + g)[1][None, :]
        delta = np.linalg.solve(jac, -residual(y))
        step = 1.0
        while step > 1e-9 and norm_hminus1(residual(y + step * delta), L) >= res:
            step *= 0.5
        if step <= 1e-9:
            break
        y = y + step * delta
        res = norm_hminus1(residual(y), L)
    return y


@pytest.mark.parametrize("dim,n", [(1, 15), (2, (6, 6)), (2, (5, 7)), (2, (7, 5))],
                         ids=["1d15", "2d6x6", "2d5x7", "2d7x5"])
@pytest.mark.parametrize("graph,lam", [(PowerLaw(3.0), 0.05), (PowerLaw(3.0), 0.0),
                                       (StefanPiecewise(1.0, 3.0, 2.0), 0.1)],
                         ids=["pl3", "pl3-lam0", "stefan"])
def test_banded_newton_matches_dense_reference(dim, n, graph, lam):
    # every third node starts at r = 0.1 * lam: at lam = 0 that is r = 0, where
    # the section slope 3 r^2 vanishes and the Jacobian has unit columns; for
    # Stefan it is on the flat part [0, lam * height] of the resolvent
    L = build_laplacian(make_grid(dim, n, 1.0))
    rng = np.random.default_rng(5)
    rhs, g = rng.standard_normal(L.n), 0.3 * rng.standard_normal(L.n)
    rhs[::3] = 0.1 * lam - g[::3]
    if lam == 0:
        assert np.all(graph.section_slope(rhs[::3] + g[::3]) == 0.0)
    tau = 0.02
    y, _ = implicit_step(graph, lam, L, tau, rhs, g)
    np.testing.assert_allclose(y, serial_reference_step(graph, lam, L, tau, rhs, g),
                               rtol=0, atol=1e-9)


class DecreasingGraph:
    # a non-monotone stand-in with slope -1: at tau = 1/8 the one-node
    # Jacobian 1 + tau * 8 * slope is exactly zero
    surjective = True
    lipschitz_slope = 1.0

    def minimal_section(self, r):
        return -np.asarray(r)

    def section_slope(self, r):
        return -np.ones_like(np.asarray(r))


def test_singular_newton_jacobian_raises_with_step_details(lap1):
    graph = DecreasingGraph()
    with pytest.raises(SolverError, match=r"singular Newton Jacobian .*\(tau=1\.250e-01, "
                                          r"lam=0\.000e\+00, n=1\)"):
        implicit_step(graph, 0.0, lap1, 0.125, np.ones(1), np.zeros(1))
    # path 0 starts at its solution and is never iterated; path 1 is named
    times, gms = [np.array([0.0, 0.125])] * 2, [np.zeros((2, 1))] * 2
    with pytest.raises(SolverError, match=r"singular Newton Jacobian .*n=1, path 1\)"):
        march_batch(graph, SolverConfig(lam=0.0, dt=0.125), lap1, times, gms,
                    np.array([[0.0], [1.0]]))
    # all three paths are pending in one stacked band solve and only the
    # middle one steps by tau = 1/8; it is named with its own pivot column
    times = [np.array([0.0, 0.1]), np.array([0.0, 0.125]), np.array([0.0, 0.1])]
    with pytest.raises(SolverError, match=r"singular Newton Jacobian \(gbsv info=1\) "
                                          r"\(tau=1\.250e-01, .*n=1, path 1\)"):
        march_batch(graph, SolverConfig(lam=0.0, dt=0.1), lap1, times,
                    [np.zeros((2, 1))] * 3, np.ones((3, 1)))


@pytest.mark.parametrize("dim,n", [(1, 1), (1, 15), (2, (6, 6)), (2, (5, 7)), (2, (7, 5))],
                         ids=["1d1", "1d15", "2d6x6", "2d5x7", "2d7x5"])
@pytest.mark.parametrize("k", [1, 3, 8])
def test_stacked_band_solve_matches_per_row_solves(dim, n, k):
    L = build_laplacian(make_grid(dim, n, 1.0))
    b = L.half_bandwidth
    rng = np.random.default_rng(11 + k)
    tau = rng.uniform(1e-3, 0.1, k)
    slope = rng.uniform(0.05, 20.0, (k, L.n))
    slope[:, ::3] = 0.0
    rhs = rng.standard_normal((k, L.n))
    x, info, routine = solver._solve_jacobians(L, tau, slope, rhs[:, None].copy())
    assert info == 0
    # a tridiagonal stencil (1D, n >= 2) goes to ?gtsv, every other one to ?gbsv
    assert routine == ("gtsv" if b == 1 else "gbsv")
    for r in range(k):
        if b == 1:
            up, diag, low = tau[r] * slope[r] * L.band
            *_, alone, info = solver._gtsv(low[:-1], diag + 1.0, up[1:], rhs[r].copy())
        else:
            ab = np.zeros((L.n, 3 * b + 1)).T
            ab[b:] = tau[r] * slope[r] * L.band
            ab[2 * b] += 1.0
            _, _, alone, info = solver._gbsv(b, b, ab, rhs[r].copy(), overwrite_ab=1,
                                             overwrite_b=1)
        assert info == 0
        np.testing.assert_array_equal(x[r, 0], alone)


def test_singular_block_names_its_pending_path(lap, monkeypatch):
    # stand-ins for both routines report a zero pivot in column 2n + 3: the window
    # (?gbsv) fails and is marched step by step, where that is column 3 of the
    # third block of the ?gtsv solve; path 0 starts at its solution, so the
    # pending paths are 1, 2, 3 and path 3 is named
    def singular_gbsv(kl, ku, ab, b, **kwargs):
        return ab, None, b, 2 * lap.n + 3

    def singular_gtsv(dl, d, du, b, **kwargs):
        return dl, d, du, b, 2 * lap.n + 3

    monkeypatch.setattr(solver, "_gbsv", singular_gbsv)
    monkeypatch.setattr(solver, "_gtsv", singular_gtsv)
    times, gms, x0 = ragged_ensemble(lap)
    times, gms = [times[0]] + times, [np.zeros_like(gms[0])] + gms
    x0 = np.concatenate([np.zeros((1, lap.n)), x0])
    with pytest.raises(SolverError, match=r"singular Newton Jacobian \(gtsv info=3\) "
                                          r".*n=15, path 3\)"):
        march_batch(PowerLaw(3.0), SolverConfig(lam=0.05, dt=1 / 32), lap, held(times),
                    held(gms), x0)


def ragged_ensemble(lap):
    # three grids on [0, 0.25] with 0, 1 and 3 inserted jump times, so the
    # shorter two are padded in the batch; the driving integrals jump there
    base = np.linspace(0.0, 0.25, 9)
    rng = np.random.default_rng(19)
    times, gms = [], []
    for extra in ([], [0.07], [0.01, 0.1, 0.2]):
        t = np.unique(np.concatenate([base, extra]))
        incr = 0.2 * np.sqrt(np.diff(t))[:, None] * rng.standard_normal((len(t) - 1, lap.n))
        for e in extra:
            incr[np.searchsorted(t, e) - 1] += 0.5 * eigenmode(lap, 1)
        gm = np.zeros((len(t), lap.n))
        np.cumsum(incr, axis=0, out=gm[1:])
        times.append(t)
        gms.append(gm)
    x0 = np.stack([eigenmode(lap, 0), -0.5 * eigenmode(lap, 2), 0.8 * eigenmode(lap, 1)])
    return times, gms, x0


@pytest.mark.parametrize("graph,lam,step_by_step", [
    pytest.param(graph, lam, step_by_step, id=name + ("-W1" if step_by_step else ""))
    for step_by_step in (False, True)
    for name, graph, lam in (("pl3", PowerLaw(3.0), 0.05),
                             ("stefan", StefanPiecewise(1.0, 3.0, 2.0), 0.1),
                             ("lin", Linear(1.0), 0.0))])
def test_march_batch_matches_serial_reference(lap, monkeypatch, graph, lam, step_by_step):
    # by default the ensemble marches in one window; step by step (W = 1) the
    # two shorter paths are done before the last steps of the longest one
    if step_by_step:
        monkeypatch.setattr(solver, "_WINDOW_BYTES", 0)
    times, gms, x0 = ragged_ensemble(lap)
    cfg = SolverConfig(lam=lam, dt=1 / 32)
    states, sels = march_batch(graph, cfg, lap, held(times), held(gms), x0)
    assert states.shape == sels.shape == (3, 12, lap.n)
    for p, (t, gm) in enumerate(zip(times, gms)):
        n_steps = len(t) - 1
        # every row after the path's last step holds its last row, bit for bit
        for held_rows in (states[p, n_steps:], sels[p, n_steps:]):
            np.testing.assert_array_equal(held_rows, np.broadcast_to(held_rows[0],
                                                                     held_rows.shape))
        y = x0[p] - gm[0]
        np.testing.assert_array_equal(states[p][0], x0[p])
        for i in range(n_steps):
            tau = t[i + 1] - t[i]
            y_next = serial_reference_step(graph, lam, lap, tau, y, gm[i + 1])
            np.testing.assert_allclose(states[p][i + 1], y_next + gm[i + 1], rtol=0, atol=1e-9)
            # the batched step met its own target: newton_tol / (its step count)
            x = states[p][i + 1]
            drift = sels[p][i + 1] + lam * x
            rhs = states[p][i] - gm[i]
            resid = (x - gm[i + 1]) + tau * (lap.matrix @ drift) - rhs
            target = cfg.newton_tol / n_steps * (1 + norm_hminus1(rhs, lap))
            assert norm_hminus1(resid, lap) <= target
            y = y_next
        ref_sel = (graph.yosida(lam, states[p, :len(t)]) if lam > 0
                   else graph.minimal_section(states[p, :len(t)]))
        np.testing.assert_allclose(sels[p, :len(t)], ref_sel, rtol=0, atol=1e-9)
        # one path alone agrees with the same path inside the batch
        alone, alone_sel = march_batch(graph, cfg, lap, [t], [gm], x0[p])
        np.testing.assert_allclose(alone[0], states[p, :len(t)], rtol=0, atol=1e-9)
        np.testing.assert_allclose(alone_sel[0], sels[p, :len(t)], rtol=0, atol=1e-9)


@pytest.mark.parametrize("graph", [PowerLaw(3.0), StefanPiecewise(1.0, 3.0, 2.0)],
                         ids=["pl3", "stefan"])
def test_march_batch_per_path_lambda_matches_one_at_a_time(lap, graph):
    times, gms, x0 = ragged_ensemble(lap)
    cfg = SolverConfig(lam=0.05, dt=1 / 32)
    lams = np.array([0.2, 0.0125, 0.05])
    states, sels = march_batch(graph, cfg, lap, held(times), held(gms), x0, lam=lams)
    for p, (t, gm) in enumerate(zip(times, gms)):
        alone, alone_sel = march_batch(graph, replace(cfg, lam=lams[p]), lap, [t], [gm], x0[p])
        np.testing.assert_allclose(states[p, :len(t)], alone[0], rtol=0, atol=1e-12)
        np.testing.assert_allclose(sels[p, :len(t)], alone_sel[0], rtol=0, atol=1e-12)
    # a Newton failure names the lam of the failing path
    with pytest.raises(SolverError, match=r"lam=2\.000e-01, n=15, path 0\)"):
        march_batch(graph, replace(cfg, newton_max_iter=0), lap, held(times), held(gms), x0,
                    lam=lams)


def test_march_batch_rejects_mixed_lambda(lap):
    times, gms, x0 = ragged_ensemble(lap)
    cfg = SolverConfig(lam=0.0, dt=1 / 32)
    for lams in ([0.1, 0.0, 0.1], [0.0, 0.1, 0.1], [0.1, -0.1, 0.1]):
        with pytest.raises(ValueError, match="every path"):
            march_batch(Linear(1.0), cfg, lap, held(times), held(gms), x0, lam=lams)


def test_march_batch_rejects_bad_grids(lap):
    times, gms, x0 = ragged_ensemble(lap)
    cfg = SolverConfig(lam=0.05, dt=1 / 32)
    with pytest.raises(ValueError, match=r"gm values must have shape \(3, 12, 15\), "
                                         r"got \(3, 11, 15\)"):
        march_batch(PowerLaw(3.0), cfg, lap, held(times), held(gms)[:, :-1], x0)
    # a repeated or a decreasing time on the longest grid; the others are held
    # with zero-length steps, which are not refused
    for t4 in (times[2][3], times[2][2]):
        bad = [times[0], times[1], times[2].copy()]
        bad[2][4] = t4
        with pytest.raises(ValueError, match="time grids must be strictly increasing"):
            march_batch(PowerLaw(3.0), cfg, lap, held(bad), held(gms), x0)
    # a grid that ends in a repeated final time reads as held
    states, _ = march_batch(PowerLaw(3.0), cfg, lap, [np.append(times[0], times[0][-1])],
                            [np.concatenate([gms[0], gms[0][-1:]])], x0[0])
    np.testing.assert_array_equal(states[0, -1], states[0, -2])


def test_march_batch_nan_in_driving_integral_names_time_and_path(lap):
    times, gms, x0 = ragged_ensemble(lap)
    gms[2][5, 3] = np.nan
    with pytest.raises(SolverError, match=rf"non-finite state at t={times[2][5]:.6g} on path 2"):
        march_batch(PowerLaw(3.0), SolverConfig(lam=0.05, dt=1 / 32), lap, held(times),
                    held(gms), x0)


def one_node_ragged_ensemble():
    # three one-node grids, the middle one shorter; the path with zero data
    # is solved before any Newton iteration
    times = [np.linspace(0.0, 0.2, 5), np.linspace(0.0, 0.2, 3), np.linspace(0.0, 0.2, 5)]
    gms = [np.zeros((5, 1)), np.linspace(0.0, 0.4, 3)[:, None], np.zeros((5, 1))]
    return times, gms, np.array([[1.5], [-0.7], [0.0]])


def test_newton_failure_raises_with_step_details(lap, lap1):
    rhs = eigenmode(lap, 0)
    with pytest.raises(SolverError, match=r"residual .* above target .*tau=1\.000e-02, "
                                          r"lam=5\.000e-02, n=15\)"):
        implicit_step(PowerLaw(3.0), 0.05, lap, 0.01, rhs, np.zeros(lap.n), newton_max_iter=0)
    cfg = SolverConfig(lam=0.05, dt=1 / 32, newton_max_iter=0)
    for L, (times, gms, x0) in ((lap, ragged_ensemble(lap)), (lap1, one_node_ragged_ensemble())):
        with pytest.raises(SolverError, match=rf"residual .*n={L.n}, path 0\)"):
            march_batch(PowerLaw(3.0), cfg, L, held(times), held(gms), x0)


def test_one_node_fallback_solves_only_the_failing_paths(lap1):
    # the one-node ensemble that used to need a bisection fallback is solved
    # by the batched Newton itself; the path with zero data is already at its
    # target, is never iterated and stays exactly zero
    graph, lam = PowerLaw(3.0), 0.2
    times, gms, x0 = one_node_ragged_ensemble()
    states, _ = march_batch(graph, SolverConfig(lam=lam, dt=0.05), lap1, held(times), held(gms),
                            x0)
    np.testing.assert_array_equal(states[2], 0.0)
    for p in (0, 1):
        g = gms[p][:, 0]
        for i in range(len(times[p]) - 1):
            tau = times[p][i + 1] - times[p][i]
            y = scalar_step_oracle(graph, lam, lap1.matrix[0, 0], tau, g[i + 1],
                                   states[p][i, 0] - g[i])
            assert states[p][i + 1, 0] == pytest.approx(y + g[i + 1], abs=1e-9)


@pytest.mark.parametrize("n_paths, step_by_step, expected", [
    pytest.param(1, True, {"band_lus": 96, "gbsv_calls": 0, "gtsv_calls": 96, "drifts": 129},
                 id="1-expected0"),
    pytest.param(8, True, {"band_lus": 778, "gbsv_calls": 0, "gtsv_calls": 101, "drifts": 135},
                 id="8-expected1"),
    pytest.param(1, False, {"band_lus": 160, "gbsv_calls": 5, "gtsv_calls": 0, "drifts": 7},
                 id="1-window"),
    pytest.param(8, False, {"band_lus": 1038, "gbsv_calls": 17, "gtsv_calls": 3, "drifts": 26},
                 id="8-window")])
def test_newton_work_is_pinned(lap, monkeypatch, n_paths, step_by_step, expected):
    # band LUs (Jacobian rows factored, by either LAPACK routine) and drift
    # evaluations of a fixed march, as counted before the Newton iterate was
    # streamlined; the same algorithm does the same work. All rows of one Newton
    # iterate share one LAPACK call: ?gtsv for single 1D steps, ?gbsv for
    # windows. Step by step forces W = 1; at the default cap one path marches in
    # one window of all its steps and 8 paths in windows of 8 steps, the last of
    # which is a single step
    if step_by_step:
        monkeypatch.setattr(solver, "_WINDOW_BYTES", 0)
    counts = dict.fromkeys(expected, 0)

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def counted_lapack(name, args):
        counts[f"{name}_calls"] += 1
        counts["band_lus"] += len(args[-1]) // lap.n

    recording_lapack(monkeypatch, counted_lapack)
    monkeypatch.setattr(solver, "_drift", counted("drifts", solver._drift))
    # closed-form sine modes, so nothing depends on the eigenvector signs of LAPACK
    x = np.arange(1, lap.n + 1) / (lap.n + 1)
    G = ConstantOperator(np.stack([0.4 * np.sin(np.pi * x), 0.2 * np.sin(2 * np.pi * x)]))
    ens = sample_ensemble(two_mode_spec(), 0.25, 1 / 128, n_paths, 31)
    march_batch(PowerLaw(3.0), SolverConfig(lam=0.05, dt=1 / 128), lap, ens.times,
                stochastic_integrals(G, ens, lap), np.sin(np.pi * x))
    assert counts == expected


def one_long_path(lap):
    # one path of the two-mode noise over [0, 2] at dt = 1/128, with closed-form
    # sine-mode coefficients; at n = 15 it marches in windows of 68 steps
    x = np.arange(1, lap.n + 1) / (lap.n + 1)
    op = ConstantOperator(np.stack([0.4 * np.sin(np.pi * x), 0.2 * np.sin(2 * np.pi * x)]))
    ens = sample_ensemble(two_mode_spec(), 2.0, 1 / 128, 1, 31)
    return list(ens.times), list(stochastic_integrals(op, ens, lap)), np.sin(np.pi * x)[None, :]


def recording_lapack(monkeypatch, record):
    # pass-through stand-ins for both LAPACK routines that hand the routine's
    # name ("gbsv" or "gtsv") and its positional arguments to record
    def recorded(name, fn):
        def wrapper(*args, **kwargs):
            record(name, args)
            return fn(*args, **kwargs)
        return wrapper

    for name in ("gbsv", "gtsv"):
        monkeypatch.setattr(solver, f"_{name}", recorded(name, getattr(solver, f"_{name}")))


@pytest.mark.parametrize("dim,n", [(1, 1), (1, 15), (2, (5, 7))], ids=["1d1", "1d15", "2d5x7"])
def test_window_band_solve_matches_dense_solve(dim, n):
    # three windows of four steps; the middle one ends after two steps, whose
    # held steps have tau = 0. Each window gets the arithmetic of a call of its own
    L = build_laplacian(make_grid(dim, n, 1.0))
    k, w = 3, 4
    rng = np.random.default_rng(13)
    tau = rng.uniform(1e-3, 0.1, (k, w))
    tau[1, 2:] = 0.0
    slope = rng.uniform(0.05, 20.0, (k, w, L.n))
    slope[..., ::3] = 0.0
    rhs = rng.standard_normal((k, w, L.n))
    x, info, _ = solver._solve_jacobians(L, tau, slope, rhs.copy())
    assert info == 0
    for r in range(k):
        jac = np.kron(np.eye(w, k=-1), -np.eye(L.n))
        for i in range(w):
            block = slice(i * L.n, (i + 1) * L.n)
            jac[block, block] = np.eye(L.n) + tau[r, i] * L.matrix * slope[r, i]
        np.testing.assert_allclose(x[r].ravel(), np.linalg.solve(jac, rhs[r].ravel()),
                                   rtol=1e-10, atol=1e-12)
        alone, info, _ = solver._solve_jacobians(L, tau[r:r + 1], slope[r:r + 1],
                                                 rhs[r:r + 1].copy())
        assert info == 0
        np.testing.assert_array_equal(x[r], alone[0])


@pytest.mark.parametrize("graph,lam", [(PowerLaw(3.0), 0.05),
                                       (StefanPiecewise(1.0, 3.0, 2.0), 0.1),
                                       (Linear(1.0), 0.0)], ids=["pl3", "stefan", "lin"])
@pytest.mark.parametrize("ensemble", [one_long_path, ragged_ensemble], ids=["long", "ragged"])
def test_window_matches_step_by_step(lap, monkeypatch, graph, lam, ensemble):
    # every Newton step is a window solve (?gbsv, kl = n) and none falls back; the
    # states agree with the march at W = 1 (?gtsv), and every step meets its own target
    times, gms, x0 = ensemble(lap)
    times, gms = held(times), held(gms)
    cfg = SolverConfig(lam=lam, dt=1 / 128)
    kls = set()
    recording_lapack(monkeypatch, lambda name, args: kls.add(args[0] if name == "gbsv" else name))
    states, sels = march_batch(graph, cfg, lap, times, gms, x0)
    assert kls == {lap.n}
    monkeypatch.setattr(solver, "_WINDOW_BYTES", 0)
    stepped, stepped_sels = march_batch(graph, cfg, lap, times, gms, x0)
    assert kls == {lap.n, "gtsv"}
    np.testing.assert_allclose(states, stepped, rtol=0, atol=1e-9)
    np.testing.assert_allclose(sels, stepped_sels, rtol=0, atol=1e-9)
    for p, t in enumerate(times):
        n_steps = np.count_nonzero(t < t[-1])
        for i in range(n_steps):
            x, rhs = states[p, i + 1], states[p, i] - gms[p, i]
            drift = sels[p, i + 1] + lam * x
            resid = (x - gms[p, i + 1]) + (t[i + 1] - t[i]) * (lap.matrix @ drift) - rhs
            target = cfg.newton_tol / n_steps * (1 + norm_hminus1(rhs, lap))
            assert norm_hminus1(resid, lap) <= target


def test_window_keeps_non_finite_paths_out_of_the_solve(lap, monkeypatch):
    # NaN driving integrals on path 2 at step 5 and on path 0 at step 8, both in
    # the one window of the ensemble: no LAPACK call sees a non-finite entry,
    # and the error names the earliest time and its path
    times, gms, x0 = ragged_ensemble(lap)
    assert solver._window_length(lap, 3) > len(times[2]) - 1
    gms[2][5, 3] = np.nan
    gms[0][8, 1] = np.nan

    def finite(name, args):
        assert all(np.all(np.isfinite(a)) for a in args)

    recording_lapack(monkeypatch, finite)
    with pytest.raises(SolverError, match=rf"non-finite state at t={times[2][5]:.6g} on path 2$"):
        march_batch(PowerLaw(3.0), SolverConfig(lam=0.05, dt=1 / 32), lap, held(times),
                    held(gms), x0)


def test_failed_window_is_marched_step_by_step(lap, monkeypatch):
    # a stand-in gbsv reports a zero pivot for every window solve (kl > ku) and
    # solves single steps; each window then falls back to W = 1 and the march
    # equals the step-by-step march bit for bit
    times, gms, x0 = one_long_path(lap)
    times, gms = held(times), held(gms)
    cfg = SolverConfig(lam=0.05, dt=1 / 128)
    gbsv = solver._gbsv

    def no_windows(kl, ku, ab, b, **kwargs):
        return (ab, None, b, 1) if kl > ku else gbsv(kl, ku, ab, b, **kwargs)

    monkeypatch.setattr(solver, "_gbsv", no_windows)
    fallen = march_batch(PowerLaw(3.0), cfg, lap, times, gms, x0)
    monkeypatch.setattr(solver, "_WINDOW_BYTES", 0)
    stepped = march_batch(PowerLaw(3.0), cfg, lap, times, gms, x0)
    for a, b in zip(fallen, stepped):
        np.testing.assert_array_equal(a, b)


def counted_rows(monkeypatch, lap, per_march):
    # Jacobian rows factored by either LAPACK routine, summed per march_batch call
    march = solver.march_batch

    def counted(name, args):
        per_march[-1] += len(args[-1]) // lap.n

    def counted_march(*args, **kwargs):
        per_march.append(0)
        return march(*args, **kwargs)

    recording_lapack(monkeypatch, counted)
    monkeypatch.setattr(solver, "march_batch", counted_march)


@pytest.mark.parametrize("step_by_step", [False, True], ids=["window", "W1"])
def test_warm_start_moves_only_where_newton_starts(lap, monkeypatch, step_by_step):
    # the ragged ensemble marches in one window of all its steps, or step by
    # step; a warm start moves only where Newton starts, so from any guess the
    # states agree with the cold march to Newton tolerance and every step meets
    # its own target
    if step_by_step:
        monkeypatch.setattr(solver, "_WINDOW_BYTES", 0)
    times, gms, x0 = ragged_ensemble(lap)
    times, gms = held(times), held(gms)
    cfg = SolverConfig(lam=0.05, dt=1 / 32)
    graph = PowerLaw(3.0)
    cold, _ = march_batch(graph, cfg, lap, times, gms, x0)
    noise = 0.3 * np.random.default_rng(23).standard_normal(cold.shape)
    for warm in (np.zeros_like(cold), x0[:, None] + noise):
        states, sels = march_batch(graph, cfg, lap, times, gms, x0, warm=warm)
        np.testing.assert_allclose(states, cold, rtol=0, atol=1e-9)
        for p, t in enumerate(times):
            n_steps = np.count_nonzero(t < t[-1])
            tail = states[p, n_steps:]
            np.testing.assert_array_equal(tail, np.broadcast_to(tail[0], tail.shape))
            for i in range(n_steps):
                x, rhs = states[p, i + 1], states[p, i] - gms[p, i]
                drift = sels[p, i + 1] + 0.05 * x
                resid = (x - gms[p, i + 1]) + (t[i + 1] - t[i]) * (lap.matrix @ drift) - rhs
                target = cfg.newton_tol / n_steps * (1 + norm_hminus1(rhs, lap))
                assert norm_hminus1(resid, lap) <= target
    # started a few ulps from its own result, the march factors no row, done
    # paths and held steps included, and every step keeps its warm state bit
    # for bit, which (warm - g) + g would not
    warm = cold * (1 + 1e-14 * np.random.default_rng(3).standard_normal(cold.shape))
    assert np.any((warm - gms) + gms != warm)
    rows = []
    counted_rows(monkeypatch, lap, rows)
    again, _ = solver.march_batch(graph, cfg, lap, times, gms, x0, warm=warm)
    assert rows == [0]
    for p, t in enumerate(times):
        n_steps = np.count_nonzero(t < t[-1])
        np.testing.assert_array_equal(again[p, 1:n_steps + 1], warm[p, 1:n_steps + 1])


@pytest.mark.parametrize("n_paths, expected", [
    pytest.param(3, [160, 90, 60, 30], id="window-22"),
    pytest.param(8, [352, 202, 148, 74], id="window-8"),
    pytest.param(20, [577, 345, 222], id="W1")])
def test_picard_warm_start_work_is_pinned(lap, monkeypatch, n_paths, expected):
    # Jacobian rows factored per sweep of a fixed Picard run; from the second
    # sweep on each step starts at the previous iterate, so a later sweep
    # factors fewer rows. Cold, every sweep factors the rows of the first
    rows = []
    counted_rows(monkeypatch, lap, rows)
    x = np.arange(1, lap.n + 1) / (lap.n + 1)
    ens = sample_ensemble(two_mode_spec(), 0.25, 1 / 32, n_paths, 61)
    picard_solve(PowerLaw(3.0), LinearSpectral(coeffs=[0.6, 0.4], gamma=1.0), two_mode_spec(),
                 SolverConfig(lam=0.05, dt=1 / 32), lap, np.sin(np.pi * x), ens)
    assert rows == expected
    assert rows[2] <= rows[0] / 2


# (config overrides, paths) of ensembles on which the causal pass must reach
# Picard's fixed point; 8 paths at n = 15 march in windows of 8 steps in Picard
CAUSAL_CASES = {
    "default-16": ([], 16),
    "default-8-window": ([], 8),
    "2d-6x6": (["grid.dim=2", "grid.n=6"], 4),
    "linear-lambda0": (["beta.variant=linear", "beta.lambda=0"], 16),
    "stefan": (["beta.variant=stefan"], 16),
}


@pytest.mark.parametrize("case", CAUSAL_CASES)
def test_causal_pass_reaches_the_picard_fixed_point(monkeypatch, case):
    # X_i depends only on X_0..X_{i-1} and the solve of step i, so one forward
    # pass with B at each left limit is the fixed point the Picard sweeps
    # approach: the largest squared dual distance over paths and times stays
    # below picard_tol. Picard marches in its own windows, the causal pass at W = 1
    overrides, n_paths = CAUSAL_CASES[case]
    ctx = _Context(ExperimentConfig.load(None, overrides))
    ens = sample_ensemble(ctx.spec, ctx.cfg.horizon, ctx.cfg.dt, n_paths, ctx.cfg.master_seed)
    widths, newton = [], solver._newton_batch

    def recorded(graph, lam, L, tau, *args, **kwargs):
        widths.append(tau.shape[1])
        return newton(graph, lam, L, tau, *args, **kwargs)

    monkeypatch.setattr(solver, "_newton_batch", recorded)
    picard = picard_solve(ctx.graph, ctx.B, ctx.spec, ctx.scfg, ctx.L, ctx.x0, ens)
    assert max(widths) == solver._window_length(ctx.L, n_paths)
    widths.clear()
    causal = causal_solve(ctx.graph, ctx.B, ctx.scfg, ctx.L, ctx.x0, ens)
    assert set(widths) == {1}
    gap = float(hminus1_norm_sq_rows(ctx.L, picard.states - causal.states).max())
    assert gap < ctx.scfg.picard_tol
    assert len(causal.trajectories) == n_paths


def test_causal_pass_with_constant_coefficient_is_the_additive_march(lap):
    # a state-independent B makes the driving integral its stochastic integral;
    # the march takes 8 paths in windows of 8 steps, the causal pass one step at
    # a time, and both meet their Newton targets
    graph, cfg, x0 = PowerLaw(3.0), SolverConfig(lam=0.05, dt=1 / 32), eigenmode(lap, 0)
    ens = sample_ensemble(two_mode_spec(), 0.25, 1 / 32, 8, 61)
    B = ConstantAdditive(fields=np.stack([0.5 * eigenmode(lap, 0), 0.3 * eigenmode(lap, 1)]))
    causal = causal_solve(graph, B, cfg, lap, x0, ens)
    gm = stochastic_integrals(ConstantOperator(B.fields), ens, lap)
    states, sels = march_batch(graph, cfg, lap, ens.times, gm, x0)
    assert np.sqrt(hminus1_norm_sq_rows(lap, causal.states - states).max()) <= cfg.newton_tol
    np.testing.assert_allclose(causal.selections, sels, rtol=0, atol=1e-9)
    # a held row of the record has the diagnostics of its path solved alone as
    # a one-row ensemble: the held steps after its last one add nothing
    m = held_steps(ens.times)[0]
    alone = additive_solve(graph, cfg, lap, x0, ens.times[:1, :m + 1], gm[:1, :m + 1])
    ours, theirs = (trajectory_diagnostics(t, graph, lap) for t in (causal, alone))
    np.testing.assert_allclose(ours["dual_norms"][0, :m + 1], theirs["dual_norms"][0], rtol=0,
                               atol=cfg.newton_tol)
    for key in ("potential_integral", "conjugate_integral"):
        assert ours[key][0] == pytest.approx(theirs[key][0], rel=0, abs=1e-9)


def test_causal_pass_non_finite_state_names_time_and_path(lap):
    ens = sample_ensemble(two_mode_spec(), 0.25, 1 / 32, 4, 61)
    values = ens.values.copy()
    values[2, 5, 0] = np.nan
    # the NaN enters the increment of step 5 on path 2, so its state there is the first bad one
    match = rf"non-finite state at t={ens.times[2, 5]:.6g} on path 2"
    with pytest.raises(SolverError, match=match):
        causal_solve(PowerLaw(3.0), LinearSpectral(coeffs=[0.6, 0.4], gamma=1.0),
                     SolverConfig(lam=0.05, dt=1 / 32), lap, eigenmode(lap, 0),
                     replace(ens, values=values))
