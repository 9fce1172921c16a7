"""Maximal monotone graphs on the real line.

Each graph is the subdifferential of a convex potential normalized to vanish
at zero. The workhorses are the resolvent x = (I + lam*beta)^{-1}(r), which is
everywhere defined, single valued and nonexpansive, and the Yosida regularization
(r - resolvent) / lam, which is monotone, 1/lam-Lipschitz and always selects a
value of beta at the resolvent point. Each variant implements only array
forms: ``_resolvent_and_slope``, which returns the resolvent and its a.e.
slope in r, and ``_minimal_section``, ``_section_slope``, ``_potential`` and
``_conjugate``. The base class derives the resolvent, the Yosida value and the
Yosida slope from the first, and it alone holds the calling convention of
every public evaluation. Closed forms are used where the variant admits them;
the power law solves its scalar equation by Newton with bisection as the
safety net.

All public evaluations are vectorized: scalars in, float out; arrays in,
arrays out; lam may also be an array that broadcasts against r.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_BISECT_TOL = 1e-13
_BISECT_MAX_ITER = 200


def _match(r, out):
    return float(out) if np.ndim(r) == 0 else out


def _check_lam(lam):
    lam = np.asarray(lam, dtype=float)
    if (lam <= 0).any():
        raise ValueError(f"resolvent parameter must be positive, got {lam}")
    return lam


class MonotoneGraph:
    """Base interface. Variants implement the array forms ``_resolvent_and_slope``,
    ``_minimal_section``, ``_section_slope``, ``_potential`` and ``_conjugate``;
    the public methods convert the input and match a scalar with a float."""

    #: False for graphs whose range is not all of R (kept out of full solver
    #: runs unless explicitly allowed).
    surjective = True
    #: Finite global slope bound when the graph is single valued and globally
    #: Lipschitz, else None. Only such graphs admit an unregularized solve.
    lipschitz_slope = None

    def _resolvent_and_slope(self, lam, r):
        """(resolvent, its a.e. derivative in r) for lam > 0 and a float array
        r; the derivative lies in [0, 1]."""
        raise NotImplementedError

    def resolvent(self, lam, r):
        return _match(r, self._resolvent_and_slope(_check_lam(lam), np.asarray(r, dtype=float))[0])

    def yosida(self, lam, r):
        return self.yosida_and_slope(lam, r)[0]

    def yosida_slope(self, lam, r):
        return self.yosida_and_slope(lam, r)[1]

    def yosida_and_slope(self, lam, r):
        """(yosida, yosida_slope) at r from one resolvent solve."""
        lam = _check_lam(lam)
        r_arr = np.asarray(r, dtype=float)
        x, slope = self._resolvent_and_slope(lam, r_arr)
        return (_match(r, (r_arr - x) / lam),
                _match(r, np.clip((1.0 - slope) / lam, 0.0, 1.0 / lam)))

    def minimal_section(self, r):
        """The minimal-norm value of beta(r)."""
        return _match(r, self._minimal_section(np.asarray(r, dtype=float)))

    def section_slope(self, r):
        """A.e. derivative of the minimal section (Jacobians for lam = 0)."""
        return _match(r, self._section_slope(np.asarray(r, dtype=float)))

    def section_interval(self, r):
        """(lo, hi) bounds of the set beta(r); equal for single-valued points."""
        v = np.asarray(self.minimal_section(r), dtype=float)
        return v, v

    def potential(self, r):
        """Convex potential with potential(0) = 0."""
        return _match(r, self._potential(np.asarray(r, dtype=float)))

    def conjugate(self, s):
        """Convex conjugate sup_r (r*s - potential(r)); +inf outside range(beta)."""
        return _match(s, self._conjugate(np.asarray(s, dtype=float)))


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

    def _resolvent_and_slope(self, lam, r):
        if self.exponent == 1:
            return r / (1.0 + lam), np.full_like(r, 1.0 / (1.0 + lam))
        s = self._resolvent_abs(lam, np.abs(r))
        return np.sign(r) * s, 1.0 / (1.0 + lam * self.exponent * s ** (self.exponent - 1.0))

    def _minimal_section(self, r):
        return np.abs(r) ** (self.exponent - 1.0) * r

    def _section_slope(self, r):
        return self.exponent * np.abs(r) ** (self.exponent - 1.0)

    def _potential(self, r):
        return np.abs(r) ** (self.exponent + 1.0) / (self.exponent + 1.0)

    def _conjugate(self, s):
        m = self.exponent
        return m / (m + 1.0) * np.abs(s) ** ((m + 1.0) / m)


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

    def _resolvent_and_slope(self, lam, r):
        return r / (1.0 + lam * self.slope), np.full_like(r, 1.0 / (1.0 + lam * self.slope))

    def _minimal_section(self, r):
        return self.slope * r

    def _section_slope(self, r):
        return np.full_like(r, self.slope)

    def _potential(self, r):
        return 0.5 * self.slope * r * r

    def _conjugate(self, s):
        return s * s / (2.0 * self.slope)


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

    def _resolvent_and_slope(self, lam, r):
        beyond = np.abs(r) - lam * self.scale
        return np.sign(r) * np.maximum(beyond, 0.0), np.where(beyond > 0.0, 1.0, 0.0)

    def _minimal_section(self, r):
        return self.scale * np.sign(r)

    def _section_slope(self, r):
        return np.zeros_like(r)

    def section_interval(self, r):
        r_arr = np.asarray(r, dtype=float)
        v = self.scale * np.sign(r_arr)
        lo = np.where(r_arr == 0.0, -self.scale, v)
        hi = np.where(r_arr == 0.0, self.scale, v)
        return lo, hi

    def _potential(self, r):
        return self.scale * np.abs(r)

    def _conjugate(self, s):
        return np.where(np.abs(s) <= self.scale * (1.0 + 1e-12), 0.0, np.inf)


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

    def _resolvent_and_slope(self, lam, r):
        top = lam * self.height
        neg, pos = 1.0 + lam * self.slope_neg, 1.0 + lam * self.slope_pos
        value = np.where(r < 0.0, r / neg, np.where(r > top, (r - top) / pos, 0.0))
        return value, np.where(r < 0.0, 1.0 / neg, np.where(r > top, 1.0 / pos, 0.0))

    def _minimal_section(self, r):
        return np.where(
            r < 0.0,
            self.slope_neg * r,
            np.where(r > 0.0, self.height + self.slope_pos * r, 0.0),
        )

    def _section_slope(self, r):
        return np.where(r < 0.0, self.slope_neg, self.slope_pos)

    def section_interval(self, r):
        r_arr = np.asarray(r, dtype=float)
        v = self._minimal_section(r_arr)
        hi = np.where(r_arr == 0.0, self.height, v)
        return np.where(r_arr == 0.0, 0.0, v), hi

    def _potential(self, r):
        neg = 0.5 * self.slope_neg * r * r
        pos = self.height * r + 0.5 * self.slope_pos * r * r
        return np.where(r < 0.0, neg, pos)

    def _conjugate(self, s):
        below = s * s / (2.0 * self.slope_neg)
        above = (s - self.height) ** 2 / (2.0 * self.slope_pos)
        return np.where(s < 0.0, below, np.where(s > self.height, above, 0.0))
