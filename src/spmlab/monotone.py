"""Maximal monotone graphs on the real line.

Each graph is the subdifferential of a convex potential normalized to vanish
at zero. The workhorses are the resolvent x = (I + lam*beta)^{-1}(r), which is
everywhere defined, single valued and nonexpansive, and the Yosida regularization
(r - resolvent) / lam, which is monotone, 1/lam-Lipschitz and always selects a
value of beta at the resolvent point. Closed forms are used where the variant
admits them; the generic fallback is safeguarded bisection on the strictly
increasing map x -> x + lam*beta(x).

All operations are vectorized: scalars in, float out; arrays in, arrays out.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_BISECT_TOL = 1e-13
_BISECT_MAX_ITER = 200


def _match(r, out):
    return float(out) if np.ndim(r) == 0 else out


def _check_lam(lam):
    lam = float(lam)
    if lam <= 0:
        raise ValueError(f"resolvent parameter must be positive, got {lam}")
    return lam


class MonotoneGraph:
    """Base interface; concrete variants override the closed-form pieces."""

    #: False for graphs whose range is not all of R (kept out of full solver
    #: runs unless explicitly allowed).
    surjective = True
    #: Finite global slope bound when the graph is single valued and globally
    #: Lipschitz, else None. Only such graphs admit an unregularized solve.
    lipschitz_slope = None

    def resolvent(self, lam, r):
        raise NotImplementedError

    def resolvent_slope(self, lam, r):
        """Derivative of the resolvent in r (a.e.); lies in [0, 1]."""
        raise NotImplementedError

    def yosida(self, lam, r):
        lam = _check_lam(lam)
        r_arr = np.asarray(r, dtype=float)
        return _match(r, (r_arr - self.resolvent(lam, r_arr)) / lam)

    def yosida_slope(self, lam, r):
        lam = _check_lam(lam)
        return _match(r, _yosida_slope(lam, self.resolvent_slope(lam, r)))

    def yosida_and_slope(self, lam, r):
        """(yosida, yosida_slope) at r; variants override it to share one
        resolvent solve between the two."""
        return self.yosida(lam, r), self.yosida_slope(lam, r)

    def minimal_section(self, r):
        """The minimal-norm value of beta(r)."""
        raise NotImplementedError

    def section_slope(self, r):
        """A.e. derivative of the minimal section (Jacobians for lam = 0)."""
        raise NotImplementedError

    def section_interval(self, r):
        """(lo, hi) bounds of the set beta(r); equal for single-valued points."""
        v = np.asarray(self.minimal_section(r), dtype=float)
        return v, v

    def potential(self, r):
        """Convex potential with potential(0) = 0."""
        raise NotImplementedError

    def conjugate(self, s):
        """Convex conjugate sup_r (r*s - potential(r)); +inf outside range(beta)."""
        raise NotImplementedError


def _yosida_slope(lam, res_slope):
    slope = (1.0 - np.asarray(res_slope, dtype=float)) / lam
    return np.clip(slope, 0.0, 1.0 / lam)


def _bisect_increasing(fn, lo, hi, tol=_BISECT_TOL, max_iter=_BISECT_MAX_ITER):
    """Vectorized bisection for fn increasing with fn(lo) <= 0 <= fn(hi)."""
    lo = np.asarray(lo, dtype=float).copy()
    hi = np.asarray(hi, dtype=float).copy()
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        high = fn(mid) > 0.0
        hi = np.where(high, mid, hi)
        lo = np.where(high, lo, mid)
        if np.max(hi - lo) < tol:
            break
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class PowerLaw(MonotoneGraph):
    """beta(r) = |r|^(m-1) r with exponent m >= 1."""

    exponent: float = 3.0

    def __post_init__(self):
        if self.exponent < 1:
            raise ValueError(f"exponent must be >= 1, got {self.exponent}")

    @property
    def lipschitz_slope(self):
        return 1.0 if self.exponent == 1 else None

    def _resolvent_abs(self, lam, a):
        # solve s + lam*s^m = a for s >= 0; the root sits in [0, a]. The map is
        # convex and increasing there, so Newton started at the right bracket
        # endpoint decreases monotonically to the root; bisection remains the
        # safety net for any entry that fails to settle.
        m = self.exponent
        s = a.astype(float, copy=True)
        converged = False
        for _ in range(80):
            g = s + lam * s**m - a
            step = g / (1.0 + lam * m * s ** (m - 1.0))
            s = np.maximum(s - step, 0.0)
            if np.max(np.abs(step)) < _BISECT_TOL:
                converged = True
                break
        if not converged:
            s = _bisect_increasing(lambda t: t + lam * t**m - a, np.zeros_like(a), a)
        return s

    def resolvent(self, lam, r):
        lam = _check_lam(lam)
        r_arr = np.asarray(r, dtype=float)
        if self.exponent == 1:
            return _match(r, r_arr / (1.0 + lam))
        s = self._resolvent_abs(lam, np.abs(r_arr))
        return _match(r, np.sign(r_arr) * s)

    def resolvent_slope(self, lam, r):
        lam = _check_lam(lam)
        r_arr = np.asarray(r, dtype=float)
        if self.exponent == 1:
            return _match(r, np.full_like(r_arr, 1.0 / (1.0 + lam)))
        s = self._resolvent_abs(lam, np.abs(r_arr))
        return _match(r, 1.0 / (1.0 + lam * self.exponent * s ** (self.exponent - 1.0)))

    def yosida_and_slope(self, lam, r):
        if self.exponent == 1:
            return super().yosida_and_slope(lam, r)
        lam = _check_lam(lam)
        r_arr = np.asarray(r, dtype=float)
        s = self._resolvent_abs(lam, np.abs(r_arr))
        res_slope = 1.0 / (1.0 + lam * self.exponent * s ** (self.exponent - 1.0))
        return (_match(r, (r_arr - np.sign(r_arr) * s) / lam),
                _match(r, _yosida_slope(lam, res_slope)))

    def minimal_section(self, r):
        r_arr = np.asarray(r, dtype=float)
        return _match(r, np.abs(r_arr) ** (self.exponent - 1.0) * r_arr)

    def section_slope(self, r):
        r_arr = np.asarray(r, dtype=float)
        return _match(r, self.exponent * np.abs(r_arr) ** (self.exponent - 1.0))

    def potential(self, r):
        r_arr = np.asarray(r, dtype=float)
        return _match(r, np.abs(r_arr) ** (self.exponent + 1.0) / (self.exponent + 1.0))

    def conjugate(self, s):
        m = self.exponent
        s_arr = np.asarray(s, dtype=float)
        return _match(s, m / (m + 1.0) * np.abs(s_arr) ** ((m + 1.0) / m))


@dataclass(frozen=True)
class Linear(MonotoneGraph):
    """beta(r) = c r with c > 0."""

    slope: float = 1.0

    def __post_init__(self):
        if self.slope <= 0:
            raise ValueError(f"slope must be positive, got {self.slope}")

    @property
    def lipschitz_slope(self):
        return self.slope

    def resolvent(self, lam, r):
        lam = _check_lam(lam)
        r_arr = np.asarray(r, dtype=float)
        return _match(r, r_arr / (1.0 + lam * self.slope))

    def resolvent_slope(self, lam, r):
        lam = _check_lam(lam)
        r_arr = np.asarray(r, dtype=float)
        return _match(r, np.full_like(r_arr, 1.0 / (1.0 + lam * self.slope)))

    def minimal_section(self, r):
        r_arr = np.asarray(r, dtype=float)
        return _match(r, self.slope * r_arr)

    def section_slope(self, r):
        r_arr = np.asarray(r, dtype=float)
        return _match(r, np.full_like(r_arr, self.slope))

    def potential(self, r):
        r_arr = np.asarray(r, dtype=float)
        return _match(r, 0.5 * self.slope * r_arr * r_arr)

    def conjugate(self, s):
        s_arr = np.asarray(s, dtype=float)
        return _match(s, s_arr * s_arr / (2.0 * self.slope))


@dataclass(frozen=True)
class ScaledSignum(MonotoneGraph):
    """beta(r) = a sign(r) with the full segment [-a, a] at r = 0.

    Range is [-a, a] only, so this variant violates the surjectivity required
    by the full solver pipeline; it exists to exercise the multivalued
    resolvent machinery and is gated out of production runs.
    """

    scale: float = 1.0
    surjective = False

    def __post_init__(self):
        if self.scale <= 0:
            raise ValueError(f"scale must be positive, got {self.scale}")

    def resolvent(self, lam, r):
        lam = _check_lam(lam)
        r_arr = np.asarray(r, dtype=float)
        out = np.sign(r_arr) * np.maximum(np.abs(r_arr) - lam * self.scale, 0.0)
        return _match(r, out)

    def resolvent_slope(self, lam, r):
        lam = _check_lam(lam)
        r_arr = np.asarray(r, dtype=float)
        return _match(r, np.where(np.abs(r_arr) > lam * self.scale, 1.0, 0.0))

    def minimal_section(self, r):
        r_arr = np.asarray(r, dtype=float)
        return _match(r, self.scale * np.sign(r_arr))

    def section_slope(self, r):
        r_arr = np.asarray(r, dtype=float)
        return _match(r, np.zeros_like(r_arr))

    def section_interval(self, r):
        r_arr = np.asarray(r, dtype=float)
        v = self.scale * np.sign(r_arr)
        lo = np.where(r_arr == 0.0, -self.scale, v)
        hi = np.where(r_arr == 0.0, self.scale, v)
        return lo, hi

    def potential(self, r):
        r_arr = np.asarray(r, dtype=float)
        return _match(r, self.scale * np.abs(r_arr))

    def conjugate(self, s):
        s_arr = np.asarray(s, dtype=float)
        out = np.where(np.abs(s_arr) <= self.scale * (1.0 + 1e-12), 0.0, np.inf)
        return _match(s, out)


@dataclass(frozen=True)
class StefanPiecewise(MonotoneGraph):
    """Two-phase enthalpy graph: slope_neg for r < 0, a vertical segment
    [0, height] at r = 0, then height + slope_pos * r for r > 0."""

    slope_neg: float = 1.0
    slope_pos: float = 1.0
    height: float = 1.0

    def __post_init__(self):
        if self.slope_neg <= 0 or self.slope_pos <= 0:
            raise ValueError("both slopes must be positive")
        if self.height < 0:
            raise ValueError(f"segment height must be >= 0, got {self.height}")

    def resolvent(self, lam, r):
        lam = _check_lam(lam)
        r_arr = np.asarray(r, dtype=float)
        top = lam * self.height
        neg = r_arr / (1.0 + lam * self.slope_neg)
        pos = (r_arr - top) / (1.0 + lam * self.slope_pos)
        return _match(r, np.where(r_arr < 0.0, neg, np.where(r_arr > top, pos, 0.0)))

    def resolvent_slope(self, lam, r):
        lam = _check_lam(lam)
        r_arr = np.asarray(r, dtype=float)
        top = lam * self.height
        out = np.where(
            r_arr < 0.0,
            1.0 / (1.0 + lam * self.slope_neg),
            np.where(r_arr > top, 1.0 / (1.0 + lam * self.slope_pos), 0.0),
        )
        return _match(r, out)

    def minimal_section(self, r):
        r_arr = np.asarray(r, dtype=float)
        out = np.where(
            r_arr < 0.0,
            self.slope_neg * r_arr,
            np.where(r_arr > 0.0, self.height + self.slope_pos * r_arr, 0.0),
        )
        return _match(r, out)

    def section_slope(self, r):
        r_arr = np.asarray(r, dtype=float)
        return _match(r, np.where(r_arr < 0.0, self.slope_neg, self.slope_pos))

    def section_interval(self, r):
        r_arr = np.asarray(r, dtype=float)
        v = self.minimal_section(r_arr)
        v = np.asarray(v, dtype=float)
        hi = np.where(r_arr == 0.0, self.height, v)
        return np.where(r_arr == 0.0, 0.0, v), hi

    def potential(self, r):
        r_arr = np.asarray(r, dtype=float)
        neg = 0.5 * self.slope_neg * r_arr * r_arr
        pos = self.height * r_arr + 0.5 * self.slope_pos * r_arr * r_arr
        return _match(r, np.where(r_arr < 0.0, neg, pos))

    def conjugate(self, s):
        s_arr = np.asarray(s, dtype=float)
        below = s_arr * s_arr / (2.0 * self.slope_neg)
        above = (s_arr - self.height) ** 2 / (2.0 * self.slope_pos)
        return _match(s, np.where(s_arr < 0.0, below, np.where(s_arr > self.height, above, 0.0)))
