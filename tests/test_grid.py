import numpy as np
import pytest
from scipy.linalg import eigh

from spmlab import (
    apply_laplacian,
    build_laplacian,
    eigenmode,
    hminus1_norm_sq_rows,
    inner_hminus1,
    inner_l2,
    make_grid,
    mollify,
    norm_hminus1,
    smooth_gamma,
    solve_laplacian,
)

RNG = np.random.default_rng(1234)


@pytest.fixture(scope="module")
def lap15():
    return build_laplacian(make_grid(1, 15, 1.0))


def test_single_node_matrix_by_hand():
    # n=1, length=1: h=1/2 and the stencil gives 2/h^2 = 8
    L = build_laplacian(make_grid(1, 1, 1.0))
    assert L.matrix.shape == (1, 1)
    assert L.matrix[0, 0] == pytest.approx(8.0)
    assert L.eigenvalues[0] == pytest.approx(8.0)


@pytest.mark.parametrize("dim,n,b", [(1, 1, 0), (1, 15, 1), (2, (6, 6), 6), (2, (5, 7), 7),
                                     (2, (7, 5), 5)])
def test_band_layout_rebuilds_the_matrix(dim, n, b):
    # in 2D the half-bandwidth is the node count of the last axis; the
    # non-square grids show a bandwidth taken from the wrong axis
    L = build_laplacian(make_grid(dim, n, 1.0))
    assert L.half_bandwidth == b
    assert L.band.shape == (2 * b + 1, L.n)
    rows, cols = np.indices(L.band.shape)
    i = rows - b + cols  # matrix row of each band entry
    inside = (i >= 0) & (i < L.n)
    dense = np.zeros((L.n, L.n))
    dense[i[inside], cols[inside]] = L.band[inside]
    np.testing.assert_array_equal(dense, L.matrix)
    np.testing.assert_array_equal(L.band[~inside], 0.0)


def assert_true_eigenpairs(L):
    # oracle apart from the closed form: a dense eigensolve of the assembled
    # matrix, the eigen-equation residual and the orthonormality of the basis
    V, lam = L.eigenvectors, L.eigenvalues
    np.testing.assert_allclose(lam, eigh(L.matrix, eigvals_only=True), rtol=0,
                               atol=1e-13 * lam.max())
    assert np.linalg.norm(L.matrix @ V - V * lam) <= 1e-13 * np.linalg.norm(L.matrix)
    np.testing.assert_allclose(V.T @ V, np.eye(L.n), rtol=0, atol=1e-13)


def test_1d_eigenvalues_closed_form():
    # oracle: tridiagonal (-1, 2, -1)/h^2 has eigenvalues (2/h^2)(1 - cos(j pi h))
    for n in (1, 3, 15):
        L = build_laplacian(make_grid(1, n, 1.0))
        h = 1.0 / (n + 1)
        expected = np.sort([2.0 / h**2 * (1 - np.cos(j * np.pi / (n + 1)))
                            for j in range(1, n + 1)])
        np.testing.assert_allclose(L.eigenvalues, expected, rtol=1e-12)
        assert_true_eigenpairs(L)


def test_2d_eigenvalues_tensor_sum_oracle():
    for n, length in (((2, 3), (1.0, 2.0)), ((6, 6), (1.0, 1.0)), ((5, 7), (1.0, 1.0)),
                      ((8, 8), (1.0, 1.0))):
        L2 = build_laplacian(make_grid(2, n, length))
        lx = build_laplacian(make_grid(1, n[0], length[0])).eigenvalues
        ly = build_laplacian(make_grid(1, n[1], length[1])).eigenvalues
        expected = np.sort([a + b for a in lx for b in ly])
        np.testing.assert_allclose(L2.eigenvalues, expected, rtol=1e-12)
        assert_true_eigenpairs(L2)


@pytest.mark.parametrize("n,repeated", [((8, 8), 31), ((5, 7), 0)], ids=["8x8", "5x7"])
def test_canonical_sine_basis(n, repeated):
    # mode k is the tensor sine mode (i, j) of the k-th smallest eigenvalue, equal
    # eigenvalues ordered by (i, j), and every mode is positive at node 0
    g = make_grid(2, n, 1.0)
    L = build_laplacian(g)
    theta = [np.arange(1, m + 1) * np.pi / (m + 1) for m in n]
    mu = [4.0 / hh**2 * np.sin(t / 2) ** 2 for t, hh in zip(theta, g.h)]
    pairs = [(i, j) for i in range(n[0]) for j in range(n[1])]
    values = np.array([mu[0][i] + mu[1][j] for i, j in pairs])
    key = np.round(values / values.max(), 10)
    order = sorted(range(len(pairs)), key=lambda k: (key[k], pairs[k]))
    assert np.sum(np.diff(key[order]) == 0) == repeated
    assert np.all(L.eigenvectors[0] > 0)
    scale = 2.0 / np.sqrt((n[0] + 1) * (n[1] + 1) * g.weight)
    for k, m in enumerate(order):
        i, j = pairs[m]
        sine = np.outer(np.sin((i + 1) * theta[0]), np.sin((j + 1) * theta[1])).ravel()
        np.testing.assert_allclose(eigenmode(L, k), scale * sine, rtol=0, atol=1e-12)
        assert L.eigenvalues[k] == pytest.approx(values[m], rel=1e-14)


def test_eigenvectors_orthonormal_weighted(lap15):
    g = lap15.grid
    for i in range(4):
        for j in range(4):
            ip = inner_l2(eigenmode(lap15, i), eigenmode(lap15, j), g)
            assert ip == pytest.approx(1.0 if i == j else 0.0, abs=1e-10)


def test_node_cap_error():
    with pytest.raises(ValueError, match="cap"):
        build_laplacian(make_grid(1, 100, 1.0), node_cap=64)


def test_grid_validation():
    with pytest.raises(ValueError):
        make_grid(3, 4)
    with pytest.raises(ValueError):
        make_grid(1, 0)
    with pytest.raises(ValueError):
        make_grid(1, 4, -1.0)


def test_inner_l2_cases():
    g = make_grid(1, 1, 1.0)
    assert inner_l2([0.0], [0.0], g) == 0.0
    assert inner_l2([1.0], [1.0], g) == pytest.approx(0.5)
    g2 = make_grid(1, 9, 1.0)
    u = RNG.standard_normal(9)
    v = RNG.standard_normal(9)
    assert inner_l2(u, v, g2) == pytest.approx(inner_l2(v, u, g2))


def test_inner_hminus1_cases(lap15):
    L1 = build_laplacian(make_grid(1, 1, 1.0))
    assert inner_hminus1([0.0], [0.0], L1) == 0.0
    # (1/8) * 1 * h = 0.0625 by direct solve
    assert inner_hminus1([1.0], [1.0], L1) == pytest.approx(0.0625)
    # spectral identity on an eigenvector
    for j in (0, 3, 7):
        phi = eigenmode(lap15, j)
        assert inner_hminus1(phi, phi, lap15) == pytest.approx(
            1.0 / lap15.eigenvalues[j], rel=1e-10)


def test_dual_product_is_inner_product(lap15):
    f = RNG.standard_normal(15)
    g = RNG.standard_normal(15)
    h = RNG.standard_normal(15)
    left = inner_hminus1(f + 2.0 * g, h, lap15)
    right = inner_hminus1(f, h, lap15) + 2.0 * inner_hminus1(g, h, lap15)
    assert left == pytest.approx(right, rel=1e-10, abs=1e-12)
    assert inner_hminus1(f, g, lap15) == pytest.approx(inner_hminus1(g, f, lap15), rel=1e-10)
    assert inner_hminus1(f, f, lap15) > 0


def test_solve_laplacian(lap15):
    L1 = build_laplacian(make_grid(1, 1, 1.0))
    np.testing.assert_array_equal(solve_laplacian(L1, [0.0]), [0.0])
    assert solve_laplacian(L1, [1.0])[0] == pytest.approx(0.125)
    f = RNG.standard_normal(15)
    u = solve_laplacian(lap15, f)
    np.testing.assert_allclose(apply_laplacian(lap15, u), -f, atol=1e-12)
    resid = lap15.matrix @ u - f
    assert np.linalg.norm(resid) <= 1e-10 * np.linalg.norm(f)


def test_solve_preserves_sign(lap15):
    f = np.abs(RNG.standard_normal(15))
    assert np.all(solve_laplacian(lap15, f) >= 0)


def test_spectral_identity_random_fields(lap15):
    for _ in range(20):
        f = RNG.standard_normal(15)
        direct = inner_hminus1(f, f, lap15)
        spectral = float(hminus1_norm_sq_rows(lap15, f[None, :])[0])
        assert spectral == pytest.approx(direct, rel=1e-8)


def test_smooth_gamma(lap15):
    f = RNG.standard_normal(15)
    np.testing.assert_array_equal(smooth_gamma(f, 0.0, lap15), f)
    phi = eigenmode(lap15, 0)
    np.testing.assert_allclose(smooth_gamma(phi, 1.0, lap15),
                               phi / lap15.eigenvalues[0], rtol=1e-10)
    # spectral bound |(-Lap)^(-gamma) f|_{-1} <= mu_1^(-gamma) |f|_{-1}
    for gamma in (0.5, 1.0, 2.0):
        lhs = norm_hminus1(smooth_gamma(f, gamma, lap15), lap15)
        rhs = lap15.eigenvalues[0] ** (-gamma) * norm_hminus1(f, lap15)
        assert lhs <= rhs * (1 + 1e-12)
    with pytest.raises(ValueError):
        smooth_gamma(f, -1.0, lap15)


def test_mollify_zero_and_eigenmode():
    L1 = build_laplacian(make_grid(1, 1, 1.0))
    np.testing.assert_array_equal(mollify([0.0], 1, L1), [0.0])
    # n=1 grid: multiplier exp(-8/1) on the only mode
    phi = eigenmode(L1, 0)
    np.testing.assert_allclose(mollify(phi, 1, L1), np.exp(-8.0) * phi, rtol=1e-12)
    with pytest.raises(ValueError):
        mollify(phi, 0, L1)


def test_mollify_contraction_and_convergence(lap15):
    f = RNG.standard_normal(15)
    base = norm_hminus1(f, lap15)
    prev_defect = None
    for level in (1, 2, 4, 8, 16):
        smoothed = mollify(f, level, lap15)
        assert norm_hminus1(smoothed, lap15) <= base + 1e-12
        defect = norm_hminus1(smoothed - f, lap15)
        if prev_defect is not None:
            assert defect <= prev_defect
        prev_defect = defect


def test_2x2_eigenvalues_are_pair_sums():
    # every 2D eigenvalue is the sum of two 1D ones
    L2 = build_laplacian(make_grid(2, (2, 2), (1.0, 1.0)))
    one_d = build_laplacian(make_grid(1, 2, 1.0)).eigenvalues
    expected = np.sort([a + b for a in one_d for b in one_d])
    assert len(L2.eigenvalues) == 4
    np.testing.assert_allclose(L2.eigenvalues, expected, rtol=1e-12)
    assert_true_eigenpairs(L2)


def test_eigenmode_index_validation(lap15):
    with pytest.raises(ValueError):
        eigenmode(lap15, 15)
    with pytest.raises(ValueError):
        eigenmode(lap15, -1)
