"""Sampled 1D functions: plain cubic-spline curves and strictly monotone
curves with robust pointwise inversion.

Monotone curves interpolate with a shape-preserving cubic (PCHIP), so the
interpolant is strictly increasing whenever the samples are.  Inversion is
done per query point by bracketed Newton with bisection fallback on the
forward interpolant, which keeps the round trip g(f(x)) = x at solver
tolerance rather than at resampling accuracy.
"""

from __future__ import annotations

import numpy as np
from scipy.interpolate import CubicSpline, PchipInterpolator

from .errors import NotMonotoneError

_NEWTON_TOL = 1e-12
_NEWTON_MAXIT = 60


class Curve1D:
    """Uniform samples on [a, b] with a cubic-spline interpolant."""

    def __init__(self, a, b, values):
        values = np.asarray(values, dtype=float)
        if values.ndim != 1 or values.size < 4:
            raise ValueError("need at least 4 samples")
        if not np.all(np.isfinite(values)):
            raise ValueError("non-finite samples")
        self.a = float(a)
        self.b = float(b)
        self.values = values
        self._spline = CubicSpline(self.grid_x(), values)

    @classmethod
    def from_callable(cls, fn, a, b, n=513):
        x = np.linspace(a, b, n)
        return cls(a, b, fn(x))

    def grid_x(self):
        return np.linspace(self.a, self.b, self.values.size)

    def __call__(self, x):
        return self._spline(x)

    def d1(self, x):
        return self._spline.derivative(1)(x)

    def d2(self, x):
        return self._spline.derivative(2)(x)

    def derivative_values(self, order=1):
        if order == 0:
            return self.values.copy()
        return self._spline.derivative(order)(self.grid_x())

    def with_values(self, values):
        return type(self)(self.a, self.b, values)

    def __add__(self, other):
        return Curve1D(self.a, self.b, self.values + _cvals(self, other))

    def __sub__(self, other):
        return Curve1D(self.a, self.b, self.values - _cvals(self, other))

    def __mul__(self, other):
        return Curve1D(self.a, self.b, self.values * _cvals(self, other))

    __rmul__ = __mul__

    def __neg__(self):
        return Curve1D(self.a, self.b, -self.values)

    def max_norm(self):
        return float(np.abs(self.values).max())

    def c1_norm(self):
        return max(self.max_norm(), float(np.abs(self.derivative_values(1)).max()))

    def to_csv(self, path):
        write_curve_csv(path, self.grid_x(), self.values)


def _cvals(curve, other):
    if isinstance(other, Curve1D):
        if other.values.size == curve.values.size:
            return other.values
        return other(curve.grid_x())
    return other


class Monotone1D(Curve1D):
    """Strictly increasing sampled function with monotone interpolation."""

    def __init__(self, a, b, values):
        values = np.asarray(values, dtype=float)
        gaps = np.diff(values)
        if not np.all(gaps > 0):
            raise NotMonotoneError(
                f"samples not strictly increasing (min gap {gaps.min():.3e})"
            )
        super().__init__(a, b, values)
        self._spline = PchipInterpolator(self.grid_x(), values)

    def inverse(self):
        return MonotoneInverse(self)

    def eval_inverse(self, y):
        """Solve f(x) = y by bracketed Newton with bisection fallback."""
        y = np.asarray(y, dtype=float)
        scalar = y.ndim == 0
        y = np.atleast_1d(y).astype(float)
        lo_v, hi_v = self.values[0], self.values[-1]
        y = np.clip(y, lo_v, hi_v)
        # initial guess by linear interpolation on the samples
        x = np.interp(y, self.values, self.grid_x())
        lo = np.full_like(y, self.a)
        hi = np.full_like(y, self.b)
        dspl = self._spline.derivative()
        for _ in range(_NEWTON_MAXIT):
            fx = self._spline(x) - y
            hi = np.where(fx > 0, np.minimum(hi, x), hi)
            lo = np.where(fx <= 0, np.maximum(lo, x), lo)
            if np.all(np.abs(fx) < _NEWTON_TOL * max(1.0, abs(hi_v), abs(lo_v))):
                break
            d = dspl(x)
            step_ok = d > 0
            xn = np.where(step_ok, x - fx / np.where(step_ok, d, 1.0), 0.5 * (lo + hi))
            outside = (xn < lo) | (xn > hi)
            x = np.where(outside, 0.5 * (lo + hi), xn)
        return float(x[0]) if scalar else x


class MonotoneInverse(Monotone1D):
    """Inverse of a Monotone1D; evaluates by solving the forward map."""

    def __init__(self, forward: Monotone1D):
        self._forward = forward
        n = max(4 * forward.values.size + 1, 129)
        ys = np.linspace(forward.values[0], forward.values[-1], n)
        xs = forward.eval_inverse(ys)
        xs[0], xs[-1] = forward.a, forward.b
        # enforce strict increase against rounding ties
        xs = np.maximum.accumulate(xs)
        bump = np.arange(n) * (forward.b - forward.a) * 1e-15
        super().__init__(ys[0], ys[-1], xs + bump)

    def __call__(self, y):
        return self._forward.eval_inverse(y)


# ---------------------------------------------------------------------------
# CSV persistence: two columns (abscissa, value), '.' decimal, '\n' lines
# ---------------------------------------------------------------------------

def write_curve_csv(path, x, v):
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    with open(path, "w", newline="\n") as fh:
        for xi, vi in zip(x, v):
            fh.write(f"{float(xi)!r},{float(vi)!r}\n")


def read_curve_csv(path):
    data = np.loadtxt(path, delimiter=",", ndmin=2)
    if data.shape[1] < 2:
        raise ValueError(f"{path}: a curve CSV has two columns, abscissa and value")
    return data[:, 0], data[:, 1]
