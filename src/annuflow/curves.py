"""Sampled 1D functions: plain cubic-spline curves and strictly monotone
curves with robust pointwise inversion.

Each curve fits one interpolant: a cubic spline, or for monotone curves a
shape-preserving cubic (PCHIP), strictly increasing whenever the samples
are.  ``solve_increasing`` is the one root finder, for any scipy PPoly
increasing at its breakpoints; monotone curves invert through it on the
forward interpolant, so the round trip g(f(x)) = x holds at solver
tolerance rather than at resampling accuracy.
"""

from __future__ import annotations

import numpy as np
from scipy.interpolate import CubicSpline, PchipInterpolator

from .errors import NotMonotoneError

_NEWTON_TOL = 1e-12


def solve_increasing(pp, y, tol):
    """x in [pp.x[0], pp.x[-1]] with |pp(x) - y| <= tol for each y (clipped to
    the breakpoint values), pp a scipy PPoly increasing at its breakpoints.
    Each y is bracketed between breakpoints and x starts from linear
    interpolation there; Newton steps narrow the bracket, and x bisects it
    where a step would leave it or the slope is not positive (a PCHIP's end
    slope can be 0).  Refinement stops after 64 steps."""
    knots = pp.x
    vals = pp(knots)
    y = np.clip(y, vals[0], vals[-1])
    j = np.clip(np.searchsorted(vals, y, side="right") - 1, 0, knots.size - 2)
    coef = pp.c[:, j]
    dcoef = coef[:-1] * np.arange(coef.shape[0] - 1, 0, -1)[:, None]
    h = knots[j + 1] - knots[j]
    lo, hi = np.zeros_like(y), h
    x = (y - vals[j]) / (vals[j + 1] - vals[j]) * h
    for _ in range(64):
        miss = np.polyval(coef, x) - y
        if np.all(np.abs(miss) <= tol):
            break
        lo = np.where(miss <= 0, x, lo)         # an exact root closes the bracket
        hi = np.where(miss >= 0, x, hi)
        slope = np.polyval(dcoef, x)
        x_new = x - miss / np.where(slope > 0, slope, np.nan)
        x = np.where((x_new >= lo) & (x_new <= hi), x_new, 0.5 * (lo + hi))
    return np.minimum(knots[j] + x, knots[j + 1])


class Curve1D:
    """Uniform samples on [a, b] with one interpolant of the class's kind."""

    _interpolant = CubicSpline

    def __init__(self, a, b, values):
        values = np.asarray(values, dtype=float)
        if values.ndim != 1 or values.size < 4:
            raise ValueError("need at least 4 samples")
        if not np.all(np.isfinite(values)):
            raise ValueError("non-finite samples")
        self.a = float(a)
        self.b = float(b)
        self.values = values
        self._spline = self._interpolant(self.grid_x(), values)

    @classmethod
    def from_callable(cls, fn, a, b, n=513):
        x = np.linspace(a, b, n)
        return cls(a, b, fn(x))

    def grid_x(self):
        return np.linspace(self.a, self.b, self.values.size)

    def __call__(self, x):
        return self._spline(x)

    def d1(self, x):
        return self._spline(x, 1)

    def d2(self, x):
        return self._spline(x, 2)

    def derivative_values(self, order=1):
        if order == 0:
            return self.values.copy()
        return self._spline(self.grid_x(), order)

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

    _interpolant = PchipInterpolator

    def __init__(self, a, b, values):
        values = np.asarray(values, dtype=float)
        gaps = np.diff(values)
        if not np.all(gaps > 0):
            raise NotMonotoneError(
                f"samples not strictly increasing (min gap {gaps.min():.3e})"
            )
        super().__init__(a, b, values)

    def inverse(self):
        return MonotoneInverse(self)

    def eval_inverse(self, y):
        """Solve f(x) = y by solve_increasing on the forward interpolant."""
        tol = _NEWTON_TOL * max(1.0, abs(self.values[0]), abs(self.values[-1]))
        x = solve_increasing(self._spline, np.atleast_1d(y).astype(float), tol)
        return float(x[0]) if np.ndim(y) == 0 else x


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
