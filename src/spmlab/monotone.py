"""Maximal monotone graphs on the real line.

Each graph is the subdifferential of a convex potential normalized to vanish
at zero. The workhorses are the resolvent x = (I + lam*beta)^{-1}(r), which is
everywhere defined, single valued and nonexpansive, and the Yosida regularization
(r - resolvent) / lam, which is monotone, 1/lam-Lipschitz and always selects a
value of beta at the resolvent point. Each family implements only array
forms: ``_resolvent_and_slope``, which returns the resolvent and its a.e.
slope in r, and ``_minimal_section``, ``_section_slope``, ``_potential`` and
``_conjugate``. The base class derives the resolvent, the Yosida value and the
Yosida slope from the first, and it alone holds the calling convention of
every public evaluation. There are two families, each in closed form where
it admits one. The power law |r|^(m-1) r has one for m = 1 and one for m = 3:
with c = sqrt(3 lam), the identity 4 sinh^3(t) + 3 sinh(t) = sinh(3t) turns
s + lam*s^3 = a into s = (2/c) sinh(asinh(1.5 c a) / 3). Other exponents solve
the scalar equation by Newton with bisection as the safety net. The
piecewise-linear graph has the pieces (s_neg, s_pos, lo, hi): slope s_neg
below 0, the segment [lo, hi] at 0 and slope s_pos above; an end of slope 0
bounds the range.

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
                _match(r, np.minimum(np.maximum((1.0 - slope) / lam, 0.0), 1.0 / lam)))

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


def _bisect_increasing(fn, lo, hi):
    """Vectorized bisection for fn increasing with fn(lo) <= 0 <= fn(hi)."""
    lo = np.asarray(lo, dtype=float).copy()
    hi = np.asarray(hi, dtype=float).copy()
    for _ in range(_BISECT_MAX_ITER):
        mid = 0.5 * (lo + hi)
        high = fn(mid) > 0.0
        hi = np.where(high, mid, hi)
        lo = np.where(high, lo, mid)
        if np.max(hi - lo) < _BISECT_TOL:
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
        # solve s + lam*s^m = a for s >= 0; m = 3 has the closed form of the
        # module docstring. Otherwise the root sits in [0, a]. The map is convex
        # and increasing there, so Newton started at the right bracket endpoint
        # decreases monotonically to the root; bisection remains the safety net
        # for any entry that fails to settle.
        m = self.exponent
        if m == 3:
            c = np.sqrt(3.0 * lam)
            return (2.0 / c) * np.sinh(np.arcsinh(1.5 * c * a) / 3.0)
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


class _PiecewiseLinear(MonotoneGraph):
    """beta(r) = lo + s_neg*r for r < 0, [lo, hi] at r = 0 and hi + s_pos*r for
    r > 0, with lo <= 0 <= hi; a variant only names them in ``_pieces()``."""

    def _resolvent_and_slope(self, lam, r):
        s_neg, s_pos, lo, hi = self._pieces()
        below, above = r < lam * lo, r > lam * hi
        neg, pos = 1.0 + lam * s_neg, 1.0 + lam * s_pos
        # on [lam lo, lam hi] the resolvent is 0 and flat, unless beta is one line
        flat = 1.0 / pos if (s_neg, lo) == (s_pos, hi) else 0.0
        value = np.where(below, (r - lam * lo) / neg, np.where(above, (r - lam * hi) / pos, 0.0))
        return value, np.where(below, 1.0 / neg, np.where(above, 1.0 / pos, flat))

    def _minimal_section(self, r):
        s_neg, s_pos, lo, hi = self._pieces()
        return np.where(r < 0.0, lo + s_neg * r, np.where(r > 0.0, hi + s_pos * r, 0.0))

    def _section_slope(self, r):
        return np.where(r < 0.0, *self._pieces()[:2])

    def section_interval(self, r):
        _, _, lo, hi = self._pieces()
        r = np.asarray(r, dtype=float)
        v = self._minimal_section(r)
        return np.where(r == 0.0, lo, v), np.where(r == 0.0, hi, v)

    def _potential(self, r):
        s_neg, s_pos, lo, hi = self._pieces()
        return np.where(r < 0.0, lo * r + 0.5 * s_neg * r * r, hi * r + 0.5 * s_pos * r * r)

    def _conjugate(self, s):
        # 0 on [lo, hi]; beyond an end of slope 0, +inf with a relative slack of 1e-12
        s_neg, s_pos, lo, hi = self._pieces()
        below = (s - lo) ** 2 / (2.0 * s_neg) if s_neg else np.inf
        above = (s - hi) ** 2 / (2.0 * s_pos) if s_pos else np.inf
        slack = 1.0 + 1e-12
        return np.where(s < (lo if s_neg else lo * slack), below,
                        np.where(s > (hi if s_pos else hi * slack), above, 0.0))


@dataclass(frozen=True)
class Linear(_PiecewiseLinear):
    """beta(r) = c r with c > 0."""

    slope: float = 1.0

    def __post_init__(self):
        if self.slope <= 0:
            raise ValueError(f"slope must be positive, got {self.slope}")

    @property
    def lipschitz_slope(self):
        return self.slope

    def _pieces(self):
        return self.slope, self.slope, 0.0, 0.0


@dataclass(frozen=True)
class ScaledSignum(_PiecewiseLinear):
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

    def _pieces(self):
        return 0.0, 0.0, -self.scale, self.scale


@dataclass(frozen=True)
class StefanPiecewise(_PiecewiseLinear):
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

    def _pieces(self):
        return self.slope_neg, self.slope_pos, 0.0, self.height
