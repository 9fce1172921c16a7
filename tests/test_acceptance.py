"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines live. The
statistical checks are seeded, so verdicts reproduce exactly.
"""

import time

import numpy as np
import pytest

import spmlab as sp
from spmlab.cli import main as cli_main


def verdict(num, name, ok, detail=""):
    print(f"\nACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num} failed: {detail}"


@pytest.fixture(scope="module")
def lap():
    return sp.build_laplacian(sp.make_grid(1, 15, 1.0))


@pytest.fixture(scope="module")
def modes(lap):
    return [sp.eigenmode(lap, j) for j in range(6)]


def mixed_spec():
    return sp.make_noise_spec([
        sp.NoiseMode(wiener_vol=0.8, jump_intensity=2.0, jump_law=sp.TwoPointJumps(0.5)),
        sp.NoiseMode(wiener_vol=0.5, jump_intensity=1.0, jump_law=sp.NormalJumps(0.4)),
    ])


def test_criterion_01_monotone_toolkit():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2026)
    tol = 1e-9
    n_samples = 10_000
    ok = True
    details = []
    variants = [sp.PowerLaw(3.0), sp.PowerLaw(1.5), sp.Linear(0.7),
                sp.ScaledSignum(1.2), sp.StefanPiecewise(1.0, 2.0, 1.5)]
    for graph in variants:
        r1 = rng.uniform(-10, 10, n_samples)
        r2 = rng.uniform(-10, 10, n_samples)
        s = rng.uniform(-5, 5, n_samples)
        for lam in (1e-3, 1e-1, 1.0):
            res1 = np.asarray(graph.resolvent(lam, r1))
            res2 = np.asarray(graph.resolvent(lam, r2))
            ok &= bool(np.all(np.abs(res1 - res2) <= np.abs(r1 - r2) + tol))
            y1 = np.asarray(graph.yosida(lam, r1))
            y2 = np.asarray(graph.yosida(lam, r2))
            ok &= bool(np.all(np.abs(y1 - y2) <= np.abs(r1 - r2) / lam + tol))
            lo, hi = graph.section_interval(res1)
            ok &= bool(np.all(y1 >= np.asarray(lo) - tol) and np.all(y1 <= np.asarray(hi) + tol))
        fy = r1 * s - np.asarray(graph.potential(r1)) - np.asarray(graph.conjugate(s))
        ok &= bool(np.all(fy <= tol))
        details.append(type(graph).__name__)
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 5.0
    verdict(1, "monotone toolkit", ok, f"variants={len(variants)} runtime={elapsed:.2f}s")


def test_criterion_02_dual_geometry(lap):
    t0 = time.perf_counter()
    rng = np.random.default_rng(22)
    ok = True
    for _ in range(100):
        f = rng.standard_normal(lap.n)
        direct = sp.inner_hminus1(f, f, lap)
        spectral = float(sp.hminus1_norm_sq_rows(lap, f[None, :])[0])
        ok &= abs(spectral - direct) <= 1e-8 * abs(direct)
    f = rng.standard_normal(lap.n)
    base = sp.norm_hminus1(f, lap)
    defects = []
    for level in (1, 2, 4, 8, 16):
        smoothed = sp.mollify(f, level, lap)
        ok &= sp.norm_hminus1(smoothed, lap) <= base + 1e-12
        defects.append(sp.norm_hminus1(smoothed - f, lap))
    ok &= all(b < a for a, b in zip(defects, defects[1:]))
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 5.0
    verdict(2, "dual-norm geometry", ok,
            f"defects={['%.3g' % d for d in defects]} runtime={elapsed:.2f}s")


def test_criterion_03_noise_brackets(lap, modes):
    t0 = time.perf_counter()
    spec = mixed_spec()
    g = np.stack([modes[0], 0.4 * modes[2]])
    n_paths = 10_000
    rep_const = sp.check_isometry(spec, sp.ConstantOperator(g), 1.0, 1 / 64, n_paths, 101, lap)
    op_pc = sp.StepOperator([0.0, 0.5, 1.0], np.stack([g, 0.5 * g]))
    rep_pc = sp.check_isometry(spec, op_pc, 1.0, 1 / 64, n_paths, 102, lap)
    rep_doob = sp.check_doob(spec, sp.ConstantOperator(g), 1.0, 1 / 64, n_paths, 103, lap)
    ok = rep_const.passed and rep_pc.passed and rep_doob.passed
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 60.0
    verdict(3, "noise brackets", ok,
            f"iso={rep_const.estimate:.4g}/{rep_const.bound_or_target:.4g} "
            f"doob={rep_doob.estimate:.4g}<=4E={rep_doob.bound_or_target:.4g} "
            f"runtime={elapsed:.1f}s")


def test_criterion_04_linear_exactness(lap, modes):
    t0 = time.perf_counter()
    horizon = 0.25
    mu = lap.eigenvalues[0]
    phi = modes[0]
    errors = {}
    ok = True
    for n_steps in (64, 128):
        tau = horizon / n_steps
        times = sp.uniform_times(horizon, tau)
        cfg = sp.SolverConfig(lam=0.0, dt=tau)
        traj = sp.additive_path_solve(sp.Linear(1.0), cfg, lap, phi,
                                      sp.IntegralPath.zeros(times, lap.n))
        exact_discrete = (1 + tau * mu) ** (-n_steps) * phi
        ok &= bool(np.max(np.abs(traj.states[-1] - exact_discrete)) <= 1e-10)
        errors[n_steps] = sp.norm_hminus1(traj.states[-1] - np.exp(-mu * horizon) * phi, lap)
    order = np.log2(errors[64] / errors[128])
    ok &= 0.9 <= order <= 1.1
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 5.0
    verdict(4, "linear-graph exactness", ok, f"order={order:.3f} runtime={elapsed:.2f}s")


def test_criterion_05_regularization_sweep(lap, modes):
    t0 = time.perf_counter()
    spec = sp.make_noise_spec([
        sp.NoiseMode(wiener_vol=0.3, jump_intensity=4.0, jump_law=sp.TwoPointJumps(0.4)),
    ])
    path = sp.sample_path(spec, 0.5, 1 / 512, sp.rng_for(11, 0))
    fields = (0.3 * modes[0] + 0.2 * modes[2])[None, :]
    gm = sp.stochastic_integral(sp.ConstantOperator(fields), path, lap)
    cfg = sp.SolverConfig(lam=0.25, dt=1 / 512)
    lams = [2.0 ** (-k) for k in range(2, 9)]
    rep = sp.lambda_sweep(sp.PowerLaw(3.0), cfg, lap, modes[0], gm, lams)
    within_two = bool(np.all(rep.gap_ratios <= 2.0 * rep.gap_ratios[0]))
    decreasing = bool(np.all(np.diff(rep.sup_diffs) < 0))
    elapsed = time.perf_counter() - t0
    ok = within_two and decreasing and elapsed < 60.0
    verdict(5, "regularization sweep", ok,
            f"gap_ratio_max/first={rep.gap_ratios.max() / rep.gap_ratios[0]:.3f} "
            f"sup_diffs_decreasing={decreasing} runtime={elapsed:.1f}s")


def test_criterion_06_stability_estimate(lap, modes):
    t0 = time.perf_counter()
    n_paths = 2000
    mixed = mixed_spec()
    jumpy = sp.make_noise_spec([
        sp.NoiseMode(wiener_vol=0.05, jump_intensity=6.0, jump_law=sp.TwoPointJumps(0.5)),
        sp.NoiseMode(wiener_vol=0.0, jump_intensity=3.0, jump_law=sp.TwoPointJumps(0.3)),
    ])
    g1 = sp.ConstantOperator(np.stack([0.4 * modes[0], 0.2 * modes[1]]))
    g2 = sp.ConstantOperator(np.stack([0.1 * modes[2], 0.3 * modes[0]]))
    cfg_lin = sp.SolverConfig(lam=0.05, dt=1 / 64)
    cfg_pl = sp.SolverConfig(lam=0.05, dt=1 / 64)
    reports = [
        sp.check_resta(sp.Linear(1.0), cfg_lin, lap, mixed,
                       (modes[0], g1), (0.3 * modes[0] + 0.2 * modes[3], g1),
                       0.25, n_paths, 61, name="stability_same_G"),
        sp.check_resta(sp.Linear(1.0), cfg_lin, lap, mixed,
                       (modes[0], g1), (modes[0], g2),
                       0.25, n_paths, 62, name="stability_same_x"),
        sp.check_resta(sp.PowerLaw(3.0), cfg_pl, lap, jumpy,
                       (modes[0], g1), (0.5 * modes[0] + 0.2 * modes[3], g2),
                       0.125, n_paths, 63, name="stability_jump_dominated"),
    ]
    ok = all(r.passed for r in reports)
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 120.0
    verdict(6, "stability estimate", ok,
            " ".join(f"{r.name}={r.estimate:.3g}<={r.bound_or_target:.3g}" for r in reports)
            + f" runtime={elapsed:.1f}s")


def test_criterion_07_fixed_point_contraction(lap, modes):
    t0 = time.perf_counter()
    spec = mixed_spec()
    B = sp.LinearSpectral(coeffs=[0.6, 0.4], gamma=1.0)
    cfg = sp.SolverConfig(lam=0.0, dt=1 / 64)
    k = sp.lipschitz_constant(B, spec, lap, seed=70)
    threshold = sp.contraction_time_limit(k, cfg.epsilon)
    T0 = min(0.5, 0.5 * threshold)
    rep = sp.check_contraction(sp.Linear(1.0), B, spec, cfg, lap, modes[0], T0, 500, 71)
    ok = rep.passed and (rep.estimate + 3 * rep.std_error < 1.0)

    ens = sp.sample_ensemble(spec, 1.0, 1 / 64, 500, 72)
    cfg_win = sp.SolverConfig(lam=0.0, dt=1 / 64, window_T0=0.25)
    res = sp.picard_solve(sp.Linear(1.0), B, spec, cfg_win, lap, modes[0], ens)
    dists = res.window_distances[0]
    ok &= res.converged and len(res.windows) == 4
    ok &= all(b < a for a, b in zip(dists, dists[1:]))
    ok &= all(f < 1.0 for w in res.window_factors for f in w)
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 300.0
    verdict(7, "fixed-point contraction", ok,
            f"T0={T0:.3g} factor={rep.estimate:.3g} threshold={threshold:.3g} "
            f"windows={len(res.windows)} runtime={elapsed:.1f}s")


def test_criterion_08_generalized_solutions(lap, modes):
    t0 = time.perf_counter()
    spec = mixed_spec()
    cfg = sp.SolverConfig(lam=0.0, dt=1 / 64)
    levels = [2, 4, 8, 16]
    n_paths = 200
    ens = sp.sample_ensemble(spec, 0.25, 1 / 64, n_paths, 80)

    rough = sp.LinearSpectral(coeffs=[0.5, 0.3], gamma=0.0)
    gen_rough = sp.generalized_solve(sp.Linear(1.0), rough, cfg, lap, modes[0], levels, ens)
    ok = gen_rough.cauchy_ok and bool(np.all(np.diff(gen_rough.sup_mean_distances) < 0))

    # smooth state-independent coefficient: the limit must match the direct
    # solve within the exact stability budget of the residual mollification
    g = np.stack([0.5 * modes[0], 0.3 * modes[1]])
    smooth = sp.ConstantAdditive(fields=g)
    gen_smooth = sp.generalized_solve(sp.Linear(1.0), smooth, cfg, lap, modes[0], levels, ens)
    direct = sp.picard_solve(sp.Linear(1.0), smooth, spec, cfg, lap, modes[0], ens)
    sums = sqsums = None
    for ta, tb, base in zip(gen_smooth.limit.trajectories, direct.trajectories, ens.base_indices):
        sq = sp.hminus1_norm_sq_rows(lap, (ta.states - tb.states)[base])
        if sums is None:
            sums, sqsums = np.zeros_like(sq), np.zeros_like(sq)
        sums += sq
        sqsums += sq * sq
    mean = sums / n_paths
    idx = int(np.argmax(mean))
    se = np.sqrt(max(sqsums[idx] / n_paths - mean[idx] ** 2, 0.0) / (n_paths - 1) / n_paths)
    defect = np.stack([sp.mollify(g[k], levels[-1], lap) - g[k] for k in range(2)])
    budget = 0.25 * float(spec.variance_rates @ sp.hminus1_norm_sq_rows(lap, defect))
    ok &= mean[idx] <= budget + 3 * se
    ok &= gen_smooth.cauchy_ok
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 300.0
    verdict(8, "generalized solutions", ok,
            f"rough_dists={['%.3g' % d for d in gen_rough.sup_mean_distances]} "
            f"limit_gap={mean[idx]:.3g}<={budget:.3g} runtime={elapsed:.1f}s")


def test_criterion_09_energy_identity_residual(lap, modes):
    t0 = time.perf_counter()
    spec = sp.make_noise_spec([
        sp.NoiseMode(wiener_vol=0.0, jump_intensity=5.0, jump_law=sp.TwoPointJumps(0.6)),
    ])
    G = sp.ConstantOperator((0.4 * modes[0])[None, :])
    ok = True
    ratios_all = {}
    for label, graph, lam in [("linear", sp.Linear(1.0), 0.0),
                              ("power3", sp.PowerLaw(3.0), 0.05)]:
        resids = []
        for dt in (1 / 64, 1 / 128, 1 / 256):
            path = sp.sample_path(spec, 0.5, dt, sp.rng_for(7, 0))
            gm = sp.stochastic_integral(G, path, lap)
            traj = sp.additive_path_solve(graph, sp.SolverConfig(lam=lam, dt=dt),
                                          lap, modes[0], gm)
            resids.append(abs(sp.ito_residual(traj, gm, path, lap)[-1]))
        ratios = [b / a for a, b in zip(resids, resids[1:])]
        ratios_all[label] = ratios
        ok &= all(0.35 <= r <= 0.65 for r in ratios)
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 60.0
    verdict(9, "energy identity residual", ok,
            f"halving_ratios={ {k: ['%.3f' % r for r in v] for k, v in ratios_all.items()} } "
            f"runtime={elapsed:.1f}s")


def test_criterion_10_reproducibility(tmp_path):
    t0 = time.perf_counter()
    base_args = ["verify-all", "--paths", "150"]
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    code_a = cli_main(base_args + ["--seed", "20260810", "--out", str(out_a)])
    code_b = cli_main(base_args + ["--seed", "20260810", "--out", str(out_b)])
    ok = code_a == 0 and code_b == 0
    for name in ("reports.csv", "summary.txt"):
        ok &= (out_a / name).read_bytes() == (out_b / name).read_bytes()
    verdict_stable = True
    for seed in (7, 31415):
        code = cli_main(base_args + ["--seed", str(seed), "--out", str(tmp_path / f"s{seed}")])
        verdict_stable &= code == 0
    ok &= verdict_stable
    elapsed = time.perf_counter() - t0
    verdict(10, "reproducibility", ok,
            f"byte_identical={code_a == code_b == 0} verdict_stable={verdict_stable} "
            f"runtime={elapsed:.1f}s")
