"""Uniform Dirichlet grids, the discrete Laplacian, and its dual-norm geometry.

Fields live on the interior nodes of a 1D interval or a 2D box and are stored
as flat float arrays. Two inner products are used throughout:

* the cell-weighted L2 product  <u, v>_2 = h^d * sum_i u_i v_i,
* the dual product  <f, g>_{-1} = <(-Lap)^{-1} f, g>_2,

where ``-Lap`` is the standard second-difference Laplacian with homogeneous
Dirichlet boundary conditions. The operator is assembled densely once per grid
(desk-scale sizes only, see ``DEFAULT_NODE_CAP``) with its eigenpairs in closed
form, tensor sine modes ordered and signed canonically (``build_laplacian``).
Dual norms (``hminus1_norm_sq_rows``), the lift (-Lap)^{-1}, fractional
smoothing (-Lap)^{-gamma} and the heat-kernel mollifier go through that
eigenbasis as exact spectral multipliers on rows (..., n) (``spectral_apply``).
The mollifier multiplier exp(-mu/n^2) lies in (0, 1], so smoothing is a strict
contraction of the dual norm and converges to the identity as the level n grows.
``solve_laplacian``, ``inner_hminus1`` and ``norm_hminus1`` solve with the
matrix directly, by numpy's ``linalg.solve``, and cache nothing; they are the
reference the eigenbasis is tested against. The implicit solvers build their
Newton Jacobians from the stencil in LAPACK band layout
(``DirichletLaplacian.band``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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
    """Dense -Lap on interior nodes with its closed-form eigenpairs.

    ``matrix`` is the symmetric positive definite matrix of -Lap, so
    ``matrix @ u`` discretizes -Lap(u). ``eigenvalues`` are ascending, ties by
    mode index, and strictly positive; ``eigenvectors`` columns are orthonormal
    in the plain Euclidean sense and positive at node 0 (divide by
    sqrt(grid.weight) for the L2-orthonormal modes). ``band`` is the matrix in
    LAPACK band layout, (2b + 1, n) with ``band[b + i - j, j] == matrix[i, j]``
    for b = ``half_bandwidth`` (1 in 1D, the node count of the last axis in 2D),
    zero in the unused corners.
    ``dual_weights`` is grid.weight / eigenvalues, the dual-norm weight of each
    eigen-coefficient. Instances are not modified after construction.
    """

    def __init__(self, grid: SpatialGrid, matrix: np.ndarray,
                 eigenvalues: np.ndarray, eigenvectors: np.ndarray):
        self.grid = grid
        self.matrix = matrix
        i, j = np.nonzero(matrix)
        self.half_bandwidth = int(np.max(np.abs(i - j)))
        self.band = np.zeros((2 * self.half_bandwidth + 1, matrix.shape[0]))
        self.band[self.half_bandwidth + i - j, j] = matrix[i, j]
        self.eigenvalues = eigenvalues
        self.eigenvectors = eigenvectors
        self.dual_weights = grid.weight / eigenvalues

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    def __repr__(self):
        return f"DirichletLaplacian(grid={self.grid}, n={self.n})"


def _axis(n: int, h: float):
    """(-1, 2, -1)/h^2 on n nodes, its eigenvalues (4/h^2) sin^2(j pi / 2(n+1)), j = 1..n,
    and orthonormal eigenvectors sqrt(2/(n+1)) sin(i j pi / (n+1)), positive at i = 1."""
    j = np.arange(1, n + 1)
    mat = (2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)) / (h * h)
    vals = 4.0 / (h * h) * np.sin(j * np.pi / (2 * (n + 1))) ** 2
    return mat, vals, np.sqrt(2.0 / (n + 1)) * np.sin(np.outer(j, j) * np.pi / (n + 1))


def build_laplacian(grid: SpatialGrid, node_cap: int = DEFAULT_NODE_CAP) -> DirichletLaplacian:
    """-Lap on the grid, nodes x-major: matrix and eigenvalues are Kronecker sums of
    the axis ones, eigenvectors Kronecker products. Raises ValueError above
    ``node_cap`` interior nodes, which bounds the n^2 floats of matrix and basis."""
    if grid.n_total > node_cap:
        raise ValueError(
            f"grid has {grid.n_total} interior nodes, above the dense cap {node_cap}"
        )
    mat, vals, vecs = np.zeros((1, 1)), np.zeros(1), np.ones((1, 1))
    for n, h in zip(grid.n_per_axis, grid.h):
        a, mu, v = _axis(n, h)
        mat = np.kron(mat, np.eye(n)) + np.kron(np.eye(len(vals)), a)
        vals, vecs = (vals[:, None] + mu).ravel(), np.kron(vecs, v)
    # equal eigenvalues can differ in the last bits (mu_j + mu_{n+1-j} = 4/h^2), so a
    # value within 1e-12 of the largest above its sorted predecessor ties with it
    s = np.sort(vals)
    tie = np.searchsorted(s[np.diff(s, prepend=-np.inf) > 1e-12 * s[-1]], vals, side="right")
    order = np.lexsort((*np.indices(grid.shape).reshape(grid.dim, -1)[::-1], tie))
    return DirichletLaplacian(grid, mat, vals[order], vecs[:, order])


def _check_field(f, n, name):
    f = np.asarray(f, dtype=float)
    if f.shape != (n,):
        raise ValueError(f"{name} must have shape ({n},), got {f.shape}")
    return f


def solve_laplacian(L: DirichletLaplacian, f) -> np.ndarray:
    """Solve -Lap u = f directly with the matrix (uncached test reference)."""
    f = _check_field(f, L.n, "f")
    return np.linalg.solve(L.matrix, f)


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
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    if rows.shape[-1] != L.n:
        raise ValueError(f"rows must have {L.n} columns, got {rows.shape[-1]}")
    coeff = rows.reshape(-1, L.n) @ L.eigenvectors
    return ((coeff * coeff) @ L.dual_weights).reshape(rows.shape[:-1])


def spectral_apply(L: DirichletLaplacian, multipliers: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Apply the diagonal spectral operator sum_j w_j <f, phi_j>_2 phi_j to a single
    field (n,) or to a stack of fields as rows (..., n)."""
    return ((f @ L.eigenvectors) * multipliers) @ L.eigenvectors.T


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
    """The index-th eigenvector (0-based, ascending eigenvalues), L2-normalized."""
    if not 0 <= index < L.n:
        raise ValueError(f"eigenmode index {index} out of range [0, {L.n})")
    return L.eigenvectors[:, index] / np.sqrt(L.grid.weight)
