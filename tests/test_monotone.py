import numpy as np
import pytest

from spmlab import Linear, PowerLaw, ScaledSignum, StefanPiecewise
from spmlab.monotone import _BISECT_TOL, _bisect_increasing

RNG = np.random.default_rng(4321)

VARIANTS = [
    PowerLaw(3.0),
    PowerLaw(1.5),
    Linear(0.7),
    ScaledSignum(1.2),
    StefanPiecewise(slope_neg=1.0, slope_pos=2.0, height=1.5),
]
VARIANT_IDS = ["pl3", "pl15", "lin", "sign", "stefan"]
LAMBDAS = [1e-3, 1e-1, 1.0]


def bisect_oracle(fn, lo, hi, iters=200):
    # independent scalar bisection for an increasing function
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if fn(mid) > 0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def test_resolvent_frozen_values():
    assert Linear(1.0).resolvent(1.0, 3.0) == pytest.approx(1.5)
    # x + x^3 = 2 has root 1; cross-check the solver against plain bisection
    oracle = bisect_oracle(lambda x: x + x**3 - 2.0, 0.0, 2.0)
    assert oracle == pytest.approx(1.0, abs=1e-12)
    assert PowerLaw(3.0).resolvent(1.0, 2.0) == pytest.approx(oracle, abs=1e-10)
    # |r| <= lam * a keeps the resolvent pinned at the vertical segment
    assert ScaledSignum(1.0).resolvent(0.5, 0.25) == 0.0
    oracle_soft = bisect_oracle(lambda x: x + 0.5 * np.sign(x) - 0.25 if x != 0 else -0.25,
                                -1.0, 1.0)
    assert abs(oracle_soft) < 1e-12


@pytest.mark.parametrize("lam", [1e-4, 1.0 / 128, 0.05, 1.0, 10.0])
def test_cubic_resolvent_closed_form(lam):
    # PowerLaw(3) solves s + lam*s^3 = a in closed form; check it against the
    # equation and against vectorized bisection, which shares no code with it
    graph = PowerLaw(3.0)
    a = np.concatenate([[0.0], 10.0 ** np.random.default_rng(17).uniform(-12, 4, 2000)])
    s = graph._resolvent_abs(lam, a)
    assert s[0] == 0.0
    assert np.all(np.abs(s + lam * s**3 - a)[1:] <= 1e-14 * a[1:])
    oracle = _bisect_increasing(lambda t: t + lam * t**3 - a, np.zeros_like(a), a)
    assert np.all(np.abs(s - oracle) <= _BISECT_TOL + 1e-14 * s)
    x, slope = graph._resolvent_and_slope(lam, np.concatenate([a, -a]))
    np.testing.assert_array_equal(x, np.concatenate([s, -s]))
    np.testing.assert_allclose(slope, 1.0 / (1.0 + 3.0 * lam * x**2), rtol=1e-15, atol=0)


def test_stefan_resolvent_branches():
    graph = StefanPiecewise(slope_neg=1.0, slope_pos=2.0, height=1.0)
    lam = 0.5
    # inside the segment image [0, lam*height]
    assert graph.resolvent(lam, 0.25) == 0.0
    # positive branch: x + lam*(height + 2x) = 1 -> x = 0.25
    assert graph.resolvent(lam, 1.0) == pytest.approx(0.25)
    # negative branch: x(1 + lam) = -1
    assert graph.resolvent(lam, -1.0) == pytest.approx(-1.0 / 1.5)


@pytest.mark.parametrize("graph", VARIANTS, ids=VARIANT_IDS)
def test_yosida_zero_fixed_point(graph):
    for lam in LAMBDAS:
        assert graph.yosida(lam, 0.0) == 0.0


def test_yosida_frozen_values():
    assert PowerLaw(3.0).yosida(1.0, 2.0) == pytest.approx(1.0, abs=1e-10)
    c = 0.7
    graph = Linear(c)
    r = RNG.uniform(-5, 5, 64)
    for lam in LAMBDAS:
        np.testing.assert_allclose(graph.yosida(lam, r), c * r / (1 + lam * c), rtol=1e-12)


@pytest.mark.parametrize("graph", VARIANTS, ids=VARIANT_IDS)
def test_resolvent_nonexpansive_and_yosida_lipschitz(graph):
    r1 = RNG.uniform(-20, 20, 400)
    r2 = RNG.uniform(-20, 20, 400)
    gap = np.abs(r1 - r2)
    for lam in LAMBDAS:
        d_res = np.abs(np.asarray(graph.resolvent(lam, r1)) - np.asarray(graph.resolvent(lam, r2)))
        assert np.all(d_res <= gap + 1e-9)
        d_yos = np.abs(np.asarray(graph.yosida(lam, r1)) - np.asarray(graph.yosida(lam, r2)))
        assert np.all(d_yos <= gap / lam + 1e-9)
        # monotone in the increment sense
        prod = (np.asarray(graph.yosida(lam, r1)) - np.asarray(graph.yosida(lam, r2))) * (r1 - r2)
        assert np.all(prod >= -1e-9)


@pytest.mark.parametrize("graph", VARIANTS, ids=VARIANT_IDS)
def test_graph_selection_monotone(graph):
    r = np.sort(RNG.uniform(-10, 10, 200))
    vals = np.asarray(graph.minimal_section(r))
    assert np.all(np.diff(vals) >= -1e-12)
    assert 0.0 >= graph.section_interval(0.0)[0] and 0.0 <= graph.section_interval(0.0)[1]


@pytest.mark.parametrize("graph", VARIANTS, ids=VARIANT_IDS)
def test_yosida_value_lies_in_graph_at_resolvent(graph):
    r = RNG.uniform(-10, 10, 300)
    for lam in LAMBDAS:
        x = np.asarray(graph.resolvent(lam, r))
        y = np.asarray(graph.yosida(lam, r))
        lo, hi = graph.section_interval(x)
        assert np.all(y >= np.asarray(lo) - 1e-9)
        assert np.all(y <= np.asarray(hi) + 1e-9)


@pytest.mark.parametrize("graph", VARIANTS + [PowerLaw(1.0)], ids=VARIANT_IDS + ["pl1"])
def test_yosida_and_slope_equals_the_separate_calls(graph):
    r = np.concatenate([RNG.uniform(-10, 10, 300), [0.0, 1e-9, -1e-9]])
    for lam in LAMBDAS:
        value, slope = graph.yosida_and_slope(lam, r)
        np.testing.assert_array_equal(value, graph.yosida(lam, r))
        np.testing.assert_array_equal(slope, graph.yosida_slope(lam, r))
        pair = graph.yosida_and_slope(lam, 1.3)
        assert pair == (graph.yosida(lam, 1.3), graph.yosida_slope(lam, 1.3))
        assert all(isinstance(v, float) for v in pair)


@pytest.mark.parametrize("graph", VARIANTS, ids=VARIANT_IDS)
def test_public_evaluations_match_the_input(graph):
    # scalar in, Python float out; array in, array of the input's shape out
    rng = np.random.default_rng(11)
    evaluations = [graph.minimal_section, graph.section_slope, graph.potential,
                   graph.conjugate, lambda r: graph.resolvent(0.1, r),
                   lambda r: graph.yosida(0.1, r), lambda r: graph.yosida_slope(0.1, r)]
    for fn in evaluations:
        for scalar in (0.7, -1, np.float64(0.3), np.array(-0.4)):
            assert type(fn(scalar)) is float
        for shape in ((5,), (3, 4)):
            out = fn(rng.uniform(-2, 2, shape))
            assert isinstance(out, np.ndarray) and out.shape == shape


def kinks(graph, lam):
    # points where the Yosida value has a corner
    if isinstance(graph, ScaledSignum):
        return [-lam * graph.scale, lam * graph.scale]
    if isinstance(graph, StefanPiecewise):
        return [0.0, lam * graph.height]
    return [0.0]


def central_difference(fn, r, h=1e-5):
    return (np.asarray(fn(r + h)) - np.asarray(fn(r - h))) / (2.0 * h)


@pytest.mark.parametrize("graph", VARIANTS, ids=VARIANT_IDS)
def test_yosida_slope_matches_finite_difference(graph):
    for lam in LAMBDAS:
        r = RNG.uniform(-10, 10, 400)
        r = r[np.min(np.abs(r[:, None] - np.array(kinks(graph, lam))), axis=1) >= 1e-3]
        fd = central_difference(lambda v: graph.yosida(lam, v), r)
        np.testing.assert_allclose(graph.yosida_slope(lam, r), fd, rtol=1e-6, atol=1e-6 / lam)


@pytest.mark.parametrize("graph", [Linear(0.7), PowerLaw(1.0), VARIANTS[4], VARIANTS[3]],
                         ids=["lin", "pl1", "stefan", "sign"])
def test_section_slope_matches_finite_difference(graph):
    r = RNG.uniform(-10, 10, 400)
    r = r[np.abs(r) >= 1e-3]  # the Stefan and signum sections jump at 0
    fd = central_difference(graph.minimal_section, r)
    np.testing.assert_allclose(graph.section_slope(r), fd, rtol=1e-8)


@pytest.mark.parametrize("graph", [PowerLaw(3.0), PowerLaw(1.5), Linear(0.7)],
                         ids=["pl3", "pl15", "lin"])
def test_yosida_converges_to_section(graph):
    r = np.array([-2.0, -0.5, 0.3, 1.7])
    target = np.asarray(graph.minimal_section(r))
    errors = []
    for k in range(1, 13):
        lam = 2.0 ** (-k)
        errors.append(np.max(np.abs(np.asarray(graph.yosida(lam, r)) - target)))
    assert all(b <= a + 1e-12 for a, b in zip(errors, errors[1:]))
    assert errors[-1] < 0.05 * errors[0]


def test_potential_normalization_and_values():
    for graph in VARIANTS:
        assert graph.potential(0.0) == 0.0
    # numeric quadrature of the section from 0 to r as the oracle
    graph = PowerLaw(3.0)
    xs = np.linspace(0, 1.0, 20001)
    oracle = np.trapezoid(np.asarray(graph.minimal_section(xs)), xs)
    assert graph.potential(1.0) == pytest.approx(0.25)
    assert graph.potential(1.0) == pytest.approx(oracle, rel=1e-6)


@pytest.mark.parametrize("graph", VARIANTS, ids=VARIANT_IDS)
def test_potential_convex(graph):
    a = RNG.uniform(-5, 5, 200)
    b = RNG.uniform(-5, 5, 200)
    mid = np.asarray(graph.potential(0.5 * (a + b)))
    avg = 0.5 * (np.asarray(graph.potential(a)) + np.asarray(graph.potential(b)))
    assert np.all(mid <= avg + 1e-10)


def test_conjugate_values_and_oracle():
    for graph in VARIANTS:
        assert graph.conjugate(0.0) == 0.0
    graph = PowerLaw(3.0)
    # maximize r*s - r^4/4 numerically as the oracle
    rs = np.linspace(-3, 3, 400001)
    oracle = np.max(rs * 1.0 - np.asarray(graph.potential(rs)))
    assert graph.conjugate(1.0) == pytest.approx(0.75)
    assert graph.conjugate(1.0) == pytest.approx(oracle, abs=1e-6)


def test_conjugate_out_of_range_flagged():
    graph = ScaledSignum(1.0)
    assert graph.conjugate(0.5) == 0.0
    assert np.isinf(graph.conjugate(1.5))


@pytest.mark.parametrize("graph", VARIANTS, ids=VARIANT_IDS)
def test_fenchel_young(graph):
    r = RNG.uniform(-5, 5, 300)
    s = RNG.uniform(-5, 5, 300)
    lhs = r * s
    rhs = np.asarray(graph.potential(r)) + np.asarray(graph.conjugate(s))
    assert np.all(lhs <= rhs + 1e-9)


def test_growth_ratio_bounded():
    # limsup of potential(-x)/potential(x) stays below a variant constant
    xs = np.logspace(0, 6, 200)
    for graph, bound in [
        (PowerLaw(3.0), 1.0),
        (Linear(0.7), 1.0),
        (ScaledSignum(1.2), 1.0),
        (StefanPiecewise(1.0, 2.0, 1.5), 1.0 / 2.0),
    ]:
        ratio = np.asarray(graph.potential(-xs)) / np.asarray(graph.potential(xs))
        assert np.all(ratio <= bound + 1e-12)


def test_validation_errors():
    with pytest.raises(ValueError):
        PowerLaw(0.5)
    with pytest.raises(ValueError):
        Linear(0.0)
    with pytest.raises(ValueError):
        ScaledSignum(-1.0)
    with pytest.raises(ValueError):
        StefanPiecewise(slope_neg=0.0, slope_pos=1.0, height=1.0)
    with pytest.raises(ValueError):
        PowerLaw(3.0).resolvent(0.0, 1.0)


def test_surjectivity_flags():
    assert not ScaledSignum(1.0).surjective
    assert PowerLaw(3.0).surjective and Linear(1.0).surjective
    assert Linear(2.0).lipschitz_slope == 2.0
    assert PowerLaw(1.0).lipschitz_slope == 1.0
    assert PowerLaw(3.0).lipschitz_slope is None
