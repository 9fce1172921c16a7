"""Reference helpers that only the tests use: the bracket of the noise, the
Hilbert-Schmidt norm and growth constant of a coefficient, and Lap by matrix."""

import numpy as np

from spmlab import hminus1_norm_sq_rows


def angle_bracket(spec, t: float) -> float:
    """Scalar bracket <M>(t) = t * TrQ."""
    if t < 0:
        raise ValueError(f"time must be >= 0, got {t}")
    return float(t) * spec.trace


def hs_norm_q(B, x, spec, L) -> float:
    """Hilbert-Schmidt norm of B(x) composed with Q^{1/2} in the dual norm."""
    fields = B.mode_fields(np.asarray(x, dtype=float), L)
    norms = hminus1_norm_sq_rows(L, fields)
    return float(np.sqrt(np.maximum(spec.variance_rates @ norms, 0.0)))


def growth_constant(B, spec, L, n_samples: int = 48, scale: float = 1.0, seed: int = 0) -> float:
    """Measured constant k with |B(x)|_Q^2 <= k (1 + |x|_{-1}^2) on random states
    and at x = 0."""
    states = np.zeros((n_samples + 1, L.n))
    states[1:] = scale * np.random.default_rng(seed).standard_normal((n_samples, L.n))
    fields = B.mode_fields_batch(states, L)
    sq = hminus1_norm_sq_rows(L, np.concatenate([states, fields.reshape(-1, L.n)]))
    hs_sq = np.maximum(sq[n_samples + 1:].reshape(n_samples + 1, -1) @ spec.variance_rates, 0.0)
    return float(np.max(hs_sq / (1.0 + sq[:n_samples + 1])))


def apply_laplacian(L, u) -> np.ndarray:
    """Apply Lap (negative definite): returns -(matrix @ u)."""
    return -(L.matrix @ np.asarray(u, dtype=float))
