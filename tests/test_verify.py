import numpy as np
import pytest

from spmlab import (
    ConstantAdditive,
    ConstantOperator,
    IntegralPath,
    Linear,
    LinearSpectral,
    NoiseMode,
    NormalJumps,
    PowerLaw,
    SolverConfig,
    StepOperator,
    TwoPointJumps,
    build_laplacian,
    check_apriori,
    check_contraction,
    check_doob,
    check_isometry,
    check_lipschitz_map,
    check_resta,
    contraction_time_limit,
    eigenmode,
    expected_quadratic_budget,
    hminus1_norm_sq_rows,
    make_grid,
    make_noise_spec,
    rng_for,
    sample_path,
    stochastic_integral,
    uniform_times,
)
from spmlab.verify import _report


@pytest.fixture(scope="module")
def lap():
    return build_laplacian(make_grid(1, 15, 1.0))


def mixed_spec():
    return make_noise_spec([
        NoiseMode(wiener_vol=0.8, jump_intensity=2.0, jump_law=TwoPointJumps(0.5)),
        NoiseMode(wiener_vol=0.5, jump_intensity=1.0, jump_law=NormalJumps(0.4)),
    ])


def test_verdict_rules():
    good = _report("x", "inequality", 1.0, 1.1, 0.0, 3.0, 10, 0.0)
    assert good.passed and good.verdict == "pass"
    bad = _report("x", "inequality", 1.5, 1.1, 0.01, 3.0, 10, 0.0)
    assert not bad.passed and bad.verdict == "fail"
    assert _report("x", "identity", 1.0, 1.02, 0.01, 3.0, 10, 0.0).passed
    assert not _report("x", "identity", 1.0, 1.2, 0.01, 3.0, 10, 0.0).passed


def test_expected_budget_closed_forms(lap):
    spec = mixed_spec()
    g = np.stack([eigenmode(lap, 0), 0.5 * eigenmode(lap, 1)])
    norms = hminus1_norm_sq_rows(lap, g)
    target = float(spec.variance_rates @ norms)
    assert expected_quadratic_budget(ConstantOperator(g), spec, 2.0, lap) == pytest.approx(
        2.0 * target, rel=1e-12)
    op = StepOperator([0.0, 0.5, 1.0], np.stack([g, 0.5 * g]))
    expected = 0.5 * target + 0.5 * 0.25 * target
    assert expected_quadratic_budget(op, spec, 1.0, lap) == pytest.approx(expected, rel=1e-12)


def test_budget_extends_the_first_and_last_pieces(lap):
    # the first piece also holds before the first breakpoint and the last
    # piece after the final one, as in the integral's evaluation
    spec = mixed_spec()
    g = np.stack([eigenmode(lap, 0), 0.5 * eigenmode(lap, 1)])
    target = float(spec.variance_rates @ hminus1_norm_sq_rows(lap, g))
    constant = expected_quadratic_budget(ConstantOperator(g), spec, 1.0, lap)
    assert expected_quadratic_budget(StepOperator([0.0, 0.5], g[None]), spec, 1.0,
                                     lap) == constant
    two = np.stack([g, 0.5 * g])
    for breaks, expected in [([0.25, 0.5, 2.0], 0.5 + 0.5 * 0.25),
                             ([-1.0, 0.25, 0.75], 0.25 + 0.75 * 0.25),
                             ([2.0, 3.0, 4.0], 1.0),
                             ([-3.0, -2.0, -1.0], 0.25)]:
        assert expected_quadratic_budget(StepOperator(breaks, two), spec, 1.0,
                                         lap) == pytest.approx(expected * target, rel=1e-12)


def test_isometry_of_a_step_that_ends_before_the_horizon(lap):
    # the integral keeps the last piece up to T, and so must the target
    spec = mixed_spec()
    g = np.stack([0.4 * eigenmode(lap, 0), 0.2 * eigenmode(lap, 1)])
    rep = check_isometry(spec, StepOperator([0.0, 0.5], g[None]), 1.0, 1 / 64, 4000, 3, lap)
    assert rep.bound_or_target == expected_quadratic_budget(ConstantOperator(g), spec, 1.0, lap)
    assert rep.passed


def test_doob_trivial_and_mixed(lap):
    spec = mixed_spec()
    zero = check_doob(spec, ConstantOperator(np.zeros((2, lap.n))), 0.5, 1 / 32, 50, 1, lap)
    assert zero.passed and zero.estimate == 0.0
    g = ConstantOperator(np.stack([eigenmode(lap, 0), 0.3 * eigenmode(lap, 1)]))
    rep = check_doob(spec, g, 1.0, 1 / 64, 800, 2, lap)
    assert rep.passed
    assert rep.estimate <= rep.bound_or_target + 3 * rep.std_error
    jump_only = make_noise_spec([NoiseMode(jump_intensity=3.0, jump_law=TwoPointJumps(0.5))])
    g = ConstantOperator(eigenmode(lap, 0)[None, :])
    rep2 = check_doob(jump_only, g, 1.0, 1 / 32, 800, 3, lap)
    assert rep2.passed


def test_isometry_constant_and_step(lap):
    spec = mixed_spec()
    zero = check_isometry(spec, ConstantOperator(np.zeros((2, lap.n))), 0.5, 1 / 32, 50, 1, lap)
    assert zero.passed and zero.estimate == 0.0 and zero.bound_or_target == 0.0
    g = np.stack([eigenmode(lap, 0), 0.4 * eigenmode(lap, 2)])
    rep = check_isometry(spec, ConstantOperator(g), 1.0, 1 / 64, 1500, 5, lap)
    assert rep.passed
    op = StepOperator([0.0, 0.5, 1.0], np.stack([g, 0.3 * g]))
    rep2 = check_isometry(spec, op, 1.0, 1 / 64, 1500, 6, lap)
    assert rep2.passed


def test_isometry_detects_wrong_target(lap):
    # sanity of the harness itself: a deliberately broken target must fail
    spec = mixed_spec()
    g = eigenmode(lap, 0)[None, :] * np.ones((2, 1))
    rep = check_isometry(spec, ConstantOperator(g), 1.0, 1 / 64, 1500, 7, lap)
    broken = _report("broken", "identity", rep.estimate, 2.0 * rep.bound_or_target,
                     rep.std_error, 3.0, rep.n_paths, 0.0)
    assert not broken.passed


def test_resta_trivial_and_bounded(lap):
    spec = mixed_spec()
    cfg = SolverConfig(lam=0.05, dt=1 / 64)
    g = np.stack([0.4 * eigenmode(lap, 0), 0.2 * eigenmode(lap, 1)])
    x = eigenmode(lap, 0)
    same = check_resta(PowerLaw(3.0), cfg, lap, spec, (x, ConstantOperator(g)),
                       (x, ConstantOperator(g)), 0.25, 40, 1)
    assert same.passed and same.estimate == pytest.approx(0.0, abs=1e-16)
    rep = check_resta(PowerLaw(3.0), cfg, lap, spec, (x, ConstantOperator(g)),
                      (0.5 * x, ConstantOperator(g)), 0.25, 200, 2)
    assert rep.passed
    rep2 = check_resta(Linear(1.0), SolverConfig(lam=0.0, dt=1 / 64), lap, spec,
                       (x, ConstantOperator(g)), (x, ConstantOperator(0.5 * g)),
                       0.25, 200, 3)
    assert rep2.passed


@pytest.mark.parametrize("pair", ["step_step", "const_step", "step_const"])
def test_resta_bound_pairs_constant_and_step_integrands(lap, pair):
    spec = mixed_spec()
    g = np.stack([0.4 * eigenmode(lap, 0), 0.2 * eigenmode(lap, 1)])
    breaks = [0.0, 0.125, 0.25]
    step1 = StepOperator(breaks, np.stack([g, 0.5 * g]))
    step2 = StepOperator(breaks, np.stack([0.3 * g, -g]))
    const = ConstantOperator(0.7 * g)
    op1, op2, diff_fields = {
        "step_step": (step1, step2, [0.7 * g, 1.5 * g]),
        "const_step": (const, step2, [0.4 * g, 1.7 * g]),
        "step_const": (step1, const, [0.3 * g, -0.2 * g]),
    }[pair]
    x1, x2 = eigenmode(lap, 0), 0.5 * eigenmode(lap, 0)
    rep = check_resta(PowerLaw(3.0), SolverConfig(lam=0.05, dt=1 / 64), lap, spec,
                      (x1, op1), (x2, op2), 0.25, 4, 1)
    expected = float(hminus1_norm_sq_rows(lap, (x1 - x2)[None, :])[0])
    expected += expected_quadratic_budget(StepOperator(breaks, np.stack(diff_fields)),
                                          spec, 0.25, lap)
    assert rep.bound_or_target == pytest.approx(expected, rel=1e-12)


def test_resta_bound_sums_union_pieces_of_misaligned_steps(lap):
    # the difference of two steps with different breakpoints is constant on
    # each piece of the union [0, 0.1), [0.1, 0.125), [0.125, 0.25]
    spec = mixed_spec()
    g = np.stack([0.4 * eigenmode(lap, 0), 0.2 * eigenmode(lap, 1)])
    x1, x2 = eigenmode(lap, 0), 0.5 * eigenmode(lap, 0)
    op1 = StepOperator([0.0, 0.125, 0.25], np.stack([g, 0.5 * g]))
    op2 = StepOperator([0.0, 0.1, 0.25], np.stack([0.3 * g, -g]))
    rep = check_resta(PowerLaw(3.0), SolverConfig(lam=0.05, dt=1 / 64), lap, spec,
                      (x1, op1), (x2, op2), 0.25, 4, 1)

    def rate(f):
        return float(spec.variance_rates @ hminus1_norm_sq_rows(lap, f))

    expected = float(hminus1_norm_sq_rows(lap, (x1 - x2)[None, :])[0])
    expected += 0.1 * rate(0.7 * g) + 0.025 * rate(2.0 * g) + 0.125 * rate(1.5 * g)
    assert rep.bound_or_target == pytest.approx(expected, rel=1e-12)


def test_apriori_cases(lap):
    cfg = SolverConfig(lam=0.25, dt=1 / 64)
    times = uniform_times(0.25, 1 / 64)
    zero = check_apriori(PowerLaw(3.0), cfg, lap, np.zeros(lap.n),
                         IntegralPath.zeros(times, lap.n), [0.25, 0.125, 0.0625])
    assert zero.passed
    spec = mixed_spec()
    path = sample_path(spec, 0.25, 1 / 64, rng_for(4, 0))
    gm = stochastic_integral(ConstantOperator(np.stack([0.3 * eigenmode(lap, 0),
                                                        0.2 * eigenmode(lap, 1)])), path, lap)
    rep = check_apriori(PowerLaw(3.0), cfg, lap, eigenmode(lap, 0), gm,
                        [2.0 ** (-k) for k in range(2, 7)])
    assert rep.passed
    # linear graph: the gap integral is exactly lam^2/(1+lam)^2 * int X^2,
    # so the ratio to lam decreases along the sweep and stays fitted
    rep_lin = check_apriori(Linear(1.0), SolverConfig(lam=0.25, dt=1 / 64), lap,
                            eigenmode(lap, 0), gm, [0.25, 0.125, 0.0625])
    assert rep_lin.passed


def test_contraction_threshold_arithmetic():
    # eps = 1/12: (1 - 0.5) / (1 + 72) = 1/146
    assert contraction_time_limit(1.0, 1.0 / 12.0) == pytest.approx(0.5 / 73.0, rel=1e-12)
    assert np.isinf(contraction_time_limit(0.0, 1.0 / 12.0))
    with pytest.raises(ValueError):
        contraction_time_limit(1.0, 0.5)


def test_contraction_zero_coefficient(lap):
    spec = mixed_spec()
    cfg = SolverConfig(lam=0.0, dt=1 / 32)
    B0 = ConstantAdditive(fields=np.zeros((2, lap.n)))
    rep = check_contraction(Linear(1.0), B0, spec, cfg, lap, eigenmode(lap, 0), 0.25, 30, 1)
    assert rep.passed and rep.estimate == pytest.approx(0.0, abs=1e-14)


def test_contraction_linear_spectral(lap):
    spec = mixed_spec()
    cfg = SolverConfig(lam=0.0, dt=1 / 64)
    B = LinearSpectral(coeffs=[0.6, 0.4], gamma=1.0)
    # one call per window, each on the ensemble and the sampled k of seed 9
    for T0 in (0.125, 0.25):
        rep = check_contraction(Linear(1.0), B, spec, cfg, lap, eigenmode(lap, 0), T0, 150, 9)
        assert rep.passed
        assert rep.estimate + 3 * rep.std_error < 1.0


def test_lipschitz_map_cases(lap):
    spec = mixed_spec()
    cfg = SolverConfig(lam=0.0, dt=1 / 32)
    B = LinearSpectral(coeffs=[0.5, 0.3], gamma=1.0)
    x = eigenmode(lap, 0)
    trivial = check_lipschitz_map(Linear(1.0), B, spec, cfg, lap, x, x, 0.25, 10, 1)
    assert trivial.passed and trivial.estimate == 0.0
    rep = check_lipschitz_map(Linear(1.0), B, spec, cfg, lap, x,
                              x + 0.4 * eigenmode(lap, 1), 0.25, 60, 2)
    assert rep.passed
    # deterministic contraction with a silent coefficient: ratio at most one
    B0 = ConstantAdditive(fields=np.zeros((2, lap.n)))
    rep0 = check_lipschitz_map(Linear(1.0), B0, spec, cfg, lap, x,
                               0.5 * x, 0.25, 10, 3)
    assert rep0.passed
    ratio = float(rep0.notes.split("ratio_seed0=")[1].split()[0])
    assert ratio <= 1.0 + 1e-10


def test_reports_deterministic(lap):
    spec = mixed_spec()
    g = ConstantOperator(np.stack([eigenmode(lap, 0), 0.4 * eigenmode(lap, 2)]))
    a = check_isometry(spec, g, 0.5, 1 / 32, 200, 42, lap)
    b = check_isometry(spec, g, 0.5, 1 / 32, 200, 42, lap)
    assert a.estimate == b.estimate and a.std_error == b.std_error


def test_contraction_above_threshold_only_bound(lap):
    # window lengths past the guaranteed range still obey the modulus bound,
    # but the below-one assertion is not applied there
    from spmlab import lipschitz_constant

    spec = mixed_spec()
    cfg = SolverConfig(lam=0.0, dt=1 / 64)
    B = LinearSpectral(coeffs=[0.6, 0.4], gamma=1.0)
    k = lipschitz_constant(B, spec, lap, seed=9)
    threshold = contraction_time_limit(k, cfg.epsilon)
    T0 = min(2.0 * threshold, 2.0)
    rep = check_contraction(Linear(1.0), B, spec, cfg, lap, eigenmode(lap, 0), T0, 60, 10)
    assert rep.passed
    assert "below_threshold=False" in rep.notes
