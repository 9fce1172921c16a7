"""Uniform Dirichlet grids, the discrete Laplacian, and its dual-norm geometry.

Fields live on the interior nodes of a 1D interval or a 2D box and are stored
as flat float arrays. Two inner products are used throughout:

* the cell-weighted L2 product  <u, v>_2 = h^d * sum_i u_i v_i,
* the dual product  <f, g>_{-1} = <(-Lap)^{-1} f, g>_2,

where ``-Lap`` is the standard second-difference Laplacian with homogeneous
Dirichlet boundary conditions. On a box it is the Kronecker sum of the 1D
operators of its axes, and its eigenbasis the Kronecker product of their sine
bases, so ``build_laplacian`` keeps only the factors of each axis, with the
eigenpairs in closed form, tensor sine modes ordered and signed canonically.
Every operator applies them one axis at a time (fast diagonalization: Lynch,
Rice & Thomas, Numer. Math. 6, 1964): a row of a 2D grid (n1, n2) costs
n1 n2 (n1 + n2) multiply-adds, not (n1 n2)^2, and no n x n array of the grid
is formed; in 1D it is the one n x n product it always was. ``neg_laplacian``
applies -Lap to rows (..., n). Dual norms (``hminus1_norm_sq_rows``), the lift
(-Lap)^{-1}, fractional smoothing (-Lap)^{-gamma} and the heat-kernel mollifier
go through the eigenbasis as exact spectral multipliers on rows (..., n)
(``spectral_apply``), and ``mode_field`` sums eigenmodes.
The mollifier multiplier exp(-mu/n^2) lies in (0, 1], so smoothing is a strict
contraction of the dual norm and converges to the identity as the level n grows.
``solve_laplacian``, ``inner_hminus1`` and ``norm_hminus1`` solve with the
dense matrix rebuilt from the band on each call, by numpy's ``linalg.solve``,
and cache nothing; they are the reference the eigenbasis is tested against,
and no command calls them. The implicit solvers build their Newton Jacobians
from the stencil in LAPACK band layout (``DirichletLaplacian.band``), whose
buffer is what ``DEFAULT_NODE_CAP`` bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# the most interior nodes a grid may have: it bounds the Newton band buffer of
# ``solver``, 8 (2kl + b + 1) n bytes per row (kl = b for one step, n for a window)
DEFAULT_NODE_CAP = 4096


def _as_axis_tuple(value, dim, name, cast):
    if np.ndim(value) == 0:
        return tuple(cast(value) for _ in range(dim))
    items = tuple(cast(v) for v in value)
    if len(items) != dim:
        raise ValueError(f"{name} must have {dim} entries, got {len(items)}")
    return items


@dataclass(frozen=True)
class SpatialGrid:
    """Interior nodes of a uniform interval (dim=1) or box (dim=2)."""

    dim: int
    n_per_axis: tuple[int, ...]
    length_per_axis: tuple[float, ...]

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise ValueError(f"dim must be 1 or 2, got {self.dim}")
        if len(self.n_per_axis) != self.dim or len(self.length_per_axis) != self.dim:
            raise ValueError("axis tuples must match dim")
        if any(n < 1 for n in self.n_per_axis):
            raise ValueError("need at least one interior node per axis")
        if any(ell <= 0 for ell in self.length_per_axis):
            raise ValueError("axis lengths must be positive")

    @property
    def h(self) -> tuple[float, ...]:
        """Mesh width per axis, length / (n + 1)."""
        return tuple(ell / (n + 1) for ell, n in zip(self.length_per_axis, self.n_per_axis))

    @property
    def weight(self) -> float:
        """Quadrature weight of one interior cell, prod of mesh widths."""
        return math.prod(self.h)

    @property
    def n_total(self) -> int:
        return math.prod(self.n_per_axis)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.n_per_axis


def make_grid(dim: int, n, length=1.0) -> SpatialGrid:
    """Build a grid from scalar or per-axis node counts and lengths."""
    return SpatialGrid(
        dim=int(dim),
        n_per_axis=_as_axis_tuple(n, dim, "n", int),
        length_per_axis=_as_axis_tuple(length, dim, "length", float),
    )


class DirichletLaplacian:
    """-Lap on interior nodes, kept by axis, with its closed-form eigenpairs.

    On a box, -Lap is the Kronecker sum of the 1D second-difference matrices
    and its eigenbasis the Kronecker product of their sine bases, nodes and
    modes x-major. So each axis keeps only its own factors: ``axis_matrices``
    (n_k, n_k), ``axis_eigenvalues`` (n_k,) and ``axis_bases`` (n_k, n_k),
    whose columns are orthonormal in the plain Euclidean sense and positive at
    node 0. No n x n array of the whole grid is formed.

    ``eigenvalues`` (n,) are canonical: ascending, ties by mode index, and
    strictly positive. ``order`` maps canonical position k to the x-major index
    of its tensor mode (i, j), the mode order in which the axis products leave
    the eigen-coefficients. ``dual_weights`` is grid.weight / eigenvalue, the
    dual-norm weight of each eigen-coefficient, in mode order. ``band`` is -Lap
    in LAPACK band layout, (2b + 1, n) with ``band[b + i - j, j]`` the (i, j)
    entry, for b = ``half_bandwidth`` (the widest coupling stride: 1 in 1D, the
    node count of the last axis in 2D, 0 on one node), zero in the unused
    corners. Instances are not modified after construction.
    """

    def __init__(self, grid: SpatialGrid):
        self.grid = grid
        axes = [_axis(n, h) for n, h in zip(grid.n_per_axis, grid.h)]
        self.axis_matrices, self.axis_eigenvalues, self.axis_bases = (
            tuple(factors) for factors in zip(*axes))
        vals = np.zeros(1)
        for mu in self.axis_eigenvalues:
            vals = (vals[:, None] + mu).ravel()
        self.dual_weights = grid.weight / vals
        # equal eigenvalues can differ in the last bits (mu_j + mu_{n+1-j} = 4/h^2), so a
        # value within 1e-12 of the largest above its sorted predecessor ties with it
        s = np.sort(vals)
        tie = np.searchsorted(s[np.diff(s, prepend=-np.inf) > 1e-12 * s[-1]], vals, side="right")
        self.order = np.lexsort((*np.indices(grid.shape).reshape(grid.dim, -1)[::-1], tie))
        self.eigenvalues = vals[self.order]
        self.half_bandwidth, self.band = _stencil_band(grid, self.axis_matrices)

    @property
    def n(self) -> int:
        return self.grid.n_total

    def __repr__(self):
        return f"DirichletLaplacian(grid={self.grid}, n={self.n})"


def _axis(n: int, h: float):
    """(-1, 2, -1)/h^2 on n nodes, its eigenvalues (4/h^2) sin^2(j pi / 2(n+1)), j = 1..n,
    and orthonormal eigenvectors sqrt(2/(n+1)) sin(i j pi / (n+1)), positive at i = 1,
    stored column-major: one row times a C-ordered copy of the same basis takes
    another BLAS path and can differ in the last bit."""
    j = np.arange(1, n + 1)
    mat = (2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)) / (h * h)
    vals = 4.0 / (h * h) * np.sin(j * np.pi / (2 * (n + 1))) ** 2
    basis = np.sqrt(2.0 / (n + 1)) * np.sin(np.outer(j, j) * np.pi / (n + 1))
    return mat, vals, np.asfortranarray(basis)


def _stencil_band(grid: SpatialGrid, mats):
    """(b, band) of the Kronecker sum of the axis matrices, written from the stencil:
    the diagonal sums the axis diagonals, and axis k couples node j to j -+ stride_k
    where j is not the first (last) node of its line along k."""
    strides = [math.prod(grid.shape[k + 1:]) for k in range(grid.dim)]
    b = max((s for s, n in zip(strides, grid.shape) if n > 1), default=0)
    band = np.zeros((2 * b + 1, grid.n_total))
    band[b] = sum(a[0, 0] for a in mats)
    for a, s, n, index in zip(mats, strides, grid.shape,
                              np.indices(grid.shape).reshape(grid.dim, -1)):
        if n > 1:
            band[b - s, index > 0] = a[0, 1]
            band[b + s, index < n - 1] = a[1, 0]
    return b, band


def build_laplacian(grid: SpatialGrid, node_cap: int = DEFAULT_NODE_CAP) -> DirichletLaplacian:
    """-Lap on the grid, nodes x-major, by axis. Raises ValueError above ``node_cap``
    interior nodes (see ``DEFAULT_NODE_CAP``)."""
    if grid.n_total > node_cap:
        raise ValueError(
            f"grid has {grid.n_total} interior nodes, above the dense cap {node_cap}"
        )
    return DirichletLaplacian(grid)


def _rows(L: DirichletLaplacian, rows) -> np.ndarray:
    """rows (..., n) as floats; any other last axis is refused, since a reshape by
    grid axes would read a longer field silently as several rows."""
    rows = np.atleast_1d(np.asarray(rows, dtype=float))
    if rows.shape[-1] != L.n:
        raise ValueError(f"rows must have {L.n} columns, got {rows.shape[-1]}")
    return rows


def _kron_product(L: DirichletLaplacian, mats, rows: np.ndarray) -> np.ndarray:
    """Rows (..., n) times the Kronecker product of mats, one axis at a time:
    rows @ mats[0] in 1D, X -> mats[0]^T X mats[1] for each row X (n1, n2) in 2D."""
    if L.grid.dim == 1:
        return rows @ mats[0]
    x = rows.reshape(rows.shape[:-1] + L.grid.shape)
    return np.matmul(mats[0].T, x @ mats[1]).reshape(rows.shape)


def neg_laplacian(L: DirichletLaplacian, rows) -> np.ndarray:
    """-Lap applied to one field (n,) or to rows (..., n), the Kronecker sum one axis
    at a time: rows @ matrix in 1D, A1 X + X A2 for each row X (n1, n2) in 2D."""
    rows = _rows(L, rows)
    a = L.axis_matrices
    if L.grid.dim == 1:
        return rows @ a[0]
    x = rows.reshape(rows.shape[:-1] + L.grid.shape)
    return (np.matmul(a[0], x) + x @ a[1]).reshape(rows.shape)


def _check_field(f, n, name):
    f = np.asarray(f, dtype=float)
    if f.shape != (n,):
        raise ValueError(f"{name} must have shape ({n},), got {f.shape}")
    return f


def solve_laplacian(L: DirichletLaplacian, f) -> np.ndarray:
    """Solve -Lap u = f with numpy's ``linalg.solve`` on the dense matrix rebuilt
    from ``L.band`` on each call: the test reference apart from the eigenbasis."""
    f = _check_field(f, L.n, "f")
    b = L.half_bandwidth
    rows, cols = np.indices(L.band.shape)
    i = rows - b + cols
    inside = (i >= 0) & (i < L.n)
    mat = np.zeros((L.n, L.n))
    mat[i[inside], cols[inside]] = L.band[inside]
    return np.linalg.solve(mat, f)


def inner_l2(u, v, grid: SpatialGrid) -> float:
    u = _check_field(u, grid.n_total, "u")
    v = _check_field(v, grid.n_total, "v")
    return grid.weight * float(u @ v)


def inner_hminus1(f, g, L: DirichletLaplacian) -> float:
    """Dual inner product <(-Lap)^{-1} f, g>_2."""
    return inner_l2(solve_laplacian(L, f), g, L.grid)


def norm_hminus1(f, L: DirichletLaplacian) -> float:
    return float(np.sqrt(max(inner_hminus1(f, f, L), 0.0)))


def hminus1_norm_sq_rows(L: DirichletLaplacian, rows: np.ndarray) -> np.ndarray:
    """Squared dual norms of many fields at once; rows has shape (m, n) or, for
    a stack such as a held ensemble, (..., n), and the result drops the last axis."""
    rows = np.atleast_2d(_rows(L, rows))
    coeff = _kron_product(L, L.axis_bases, rows.reshape(-1, L.n))
    return ((coeff * coeff) @ L.dual_weights).reshape(rows.shape[:-1])


def _in_mode_order(L: DirichletLaplacian, canonical: np.ndarray) -> np.ndarray:
    out = np.empty(L.n)
    out[L.order] = canonical
    return out


def spectral_apply(L: DirichletLaplacian, multipliers: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Apply the diagonal spectral operator sum_j w_j <f, phi_j>_2 phi_j to a single
    field (n,) or to a stack of fields as rows (..., n); the multipliers w_j follow
    the canonical order of ``L.eigenvalues``."""
    coeff = _kron_product(L, L.axis_bases, _rows(L, f)) * _in_mode_order(L, multipliers)
    return _kron_product(L, [v.T for v in L.axis_bases], coeff)


def mode_field(L: DirichletLaplacian, coeff: np.ndarray) -> np.ndarray:
    """The field sum_k coeff_k eigenmode(L, k) of coefficients (n,) in canonical order."""
    synthesis = [v.T for v in L.axis_bases]
    return _kron_product(L, synthesis, _in_mode_order(L, coeff)) / np.sqrt(L.grid.weight)


def smooth_gamma(f, gamma: float, L: DirichletLaplacian) -> np.ndarray:
    """Fractional smoothing (-Lap)^{-gamma} of rows (..., n); gamma = 0 is the identity."""
    if gamma < 0:
        raise ValueError(f"gamma must be >= 0, got {gamma}")
    if gamma == 0:
        return np.array(f, dtype=float)
    return spectral_apply(L, L.eigenvalues ** (-gamma), f)


def mollify(f, level: int, L: DirichletLaplacian) -> np.ndarray:
    """Heat-kernel mollifier of rows (..., n) with multiplier exp(-mu_j / level^2).

    The multiplier lies in (0, 1], so the dual norm never grows, and it
    increases to 1 as ``level`` grows, so the defect |mollify(f) - f| in the
    dual norm decreases to zero.
    """
    level = int(level)
    if level < 1:
        raise ValueError(f"mollifier level must be >= 1, got {level}")
    return spectral_apply(L, np.exp(-L.eigenvalues / level**2), f)


def eigenmode(L: DirichletLaplacian, index: int) -> np.ndarray:
    """The index-th eigenvector (0-based, ascending eigenvalues), L2-normalized: the
    outer product of its axis sine modes."""
    if not 0 <= index < L.n:
        raise ValueError(f"eigenmode index {index} out of range [0, {L.n})")
    field = np.ones(1)
    for basis, j in zip(L.axis_bases, np.unravel_index(L.order[index], L.grid.shape)):
        field = np.outer(field, basis[:, j]).ravel()
    return field / np.sqrt(L.grid.weight)
