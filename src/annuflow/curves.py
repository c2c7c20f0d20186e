"""Sampled 1D functions: plain cubic-spline curves and strictly monotone
curves with robust pointwise inversion.

Each curve fits one interpolant, on first use: a cubic spline, or for
monotone curves a shape-preserving cubic (PCHIP), strictly increasing
whenever the samples are.  A curve that is only sampled, added or
smoothed fits nothing, and it keeps a read-only copy of its samples, so
its fit cannot go stale.  ``fit_cubic`` is the package's one not-a-knot
cubic: scipy's CubicSpline arithmetic bit for bit, its slopes from one
LAPACK tridiagonal solve (``solve_tridiagonal``, which the elliptic
layer shares) without CubicSpline's wrappers.  ``solve_increasing`` is
the one root finder, for any scipy PPoly increasing at its breakpoints
or a batch of them; monotone curves invert through it on the forward
interpolant, so the round trip g(f(x)) = x holds at solver tolerance
rather than at resampling accuracy.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np
from scipy.interpolate import PchipInterpolator, PPoly
from scipy.linalg import LinAlgError
from scipy.linalg.lapack import dgtsv, zgtsv

from .errors import NotMonotoneError

_NEWTON_TOL = 1e-12


def solve_tridiagonal(band, rhs):
    """x with A x = rhs for a tridiagonal A in ``solve_banded``'s (1, 1)
    layout (band of shape (3, n): the superdiagonal from column 1, the
    diagonal, the subdiagonal up to column n - 2) and rhs of shape (n,) or
    (n, m), real or complex: the one LAPACK gtsv call that ``solve_banded``
    makes, without its wrappers, and with its errors: ValueError for
    non-finite input, LinAlgError for a singular band.  rhs is scratch:
    the solve overwrites it when it is Fortran-contiguous."""
    if not (np.isfinite(band).all() and np.isfinite(rhs).all()):
        raise ValueError("array must not contain infs or NaNs")
    gtsv = zgtsv if np.iscomplexobj(rhs) else dgtsv
    x, info = gtsv(band[2, :-1], band[1], band[0, 1:], rhs, overwrite_b=True)[3:]
    if info > 0:
        raise LinAlgError("singular matrix")
    return x


def fit_cubic(x, y):
    """The not-a-knot cubic spline through y at x along axis 0, x strictly
    increasing and y of shape (n,) or (n, m) with n >= 4: the PPoly of
    ``CubicSpline(x, y, axis=0)``, its coefficients bit for bit, with the
    end slopes and the interior ones from one ``solve_tridiagonal``.
    Raises ValueError where CubicSpline does: x not strictly increasing,
    non-finite values."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = x.size
    if n < 4 or y.shape[0] != n:
        raise ValueError(f"need at least 4 samples, one per abscissa; got {n} "
                         f"abscissae and y of shape {y.shape}")
    dx = np.diff(x)
    if not (dx > 0).all():
        raise ValueError("x must be finite and strictly increasing")
    dxr = dx.reshape((n - 1,) + (1,) * (y.ndim - 1))
    slope = np.diff(y, axis=0) / dxr
    # CubicSpline's banded system: not-a-knot rows at both ends
    d0, d1 = x[2] - x[0], x[-1] - x[-3]
    band = np.zeros((3, n))
    band[0, 1], band[0, 2:] = d0, dx[:-1]
    band[1, 0], band[1, 1:-1], band[1, -1] = dx[1], 2 * (dx[:-1] + dx[1:]), dx[-2]
    band[2, :-2], band[2, -2] = dx[1:], d1
    b = np.empty(y.shape)
    b[1:-1] = 3 * (dxr[1:] * slope[:-1] + dxr[:-1] * slope[1:])
    b[0] = ((dxr[0] + 2 * d0) * dxr[1] * slope[0] + dxr[0]**2 * slope[1]) / d0
    b[-1] = (dxr[-1]**2 * slope[-2] + (2 * d1 + dxr[-1]) * dxr[-2] * slope[-1]) / d1
    s = solve_tridiagonal(band, b.reshape(n, -1)).reshape(y.shape)
    # CubicHermiteSpline's coefficients from the slopes s
    t = (s[:-1] + s[1:] - 2 * slope) / dxr
    c = np.stack((t / dxr, (slope - s[:-1]) / dxr - t, s[:-1], y[:-1]))
    return PPoly.construct_fast(c, x)


def solve_increasing(pp, y, tol):
    """x in [pp.x[0], pp.x[-1]] with |pp(x) - y| <= tol for each y (clipped to
    the breakpoint values), pp a scipy PPoly increasing at its breakpoints.
    A PPoly of m curves (coefficients of shape (k, n - 1, m), as a spline
    fitted along axis 0 has) solves each curve for its column of y, of
    shape (p, 1) or (p, m), and x has shape (p, m).  Each y is bracketed
    between breakpoints and x starts from linear interpolation there;
    Newton steps narrow the bracket, and x bisects it where a step would
    leave it or the slope is not positive (a PCHIP's end slope can be 0).
    Refinement stops after 64 steps."""
    knots = pp.x
    vals = pp(knots)
    y = np.clip(y, vals[0], vals[-1])
    shape = y.shape
    # one column per curve; the piece of each y is the count of its curve's
    # breakpoint values at or below it, less one
    vals, y = vals.reshape(knots.size, -1), y.reshape(len(y), -1)
    m = vals.shape[1]
    j = np.stack([np.searchsorted(v, w, side="right") for v, w in zip(vals.T, y.T)],
                 axis=1)
    j = np.clip(j - 1, 0, knots.size - 2)
    at = (j * m + np.arange(m)).ravel()        # among the pieces of all curves
    j, y, vals = j.ravel(), y.ravel(), vals.ravel()
    coef = pp.c.reshape(pp.c.shape[0], -1)[:, at]
    dcoef = coef[:-1] * np.arange(coef.shape[0] - 1, 0, -1)[:, None]
    h = knots[j + 1] - knots[j]
    lo, hi = np.zeros_like(y), h
    x = (y - vals[at]) / (vals[at + m] - vals[at]) * h
    for _ in range(64):
        miss = np.polyval(coef, x) - y
        if np.all(np.abs(miss) <= tol):
            break
        lo = np.where(miss <= 0, x, lo)         # an exact root closes the bracket
        hi = np.where(miss >= 0, x, hi)
        slope = np.polyval(dcoef, x)
        x_new = x - miss / np.where(slope > 0, slope, np.nan)
        x = np.where((x_new >= lo) & (x_new <= hi), x_new, 0.5 * (lo + hi))
    return np.minimum(knots[j] + x, knots[j + 1]).reshape(shape)


class Curve1D:
    """Uniform samples on [a, b], a read-only copy, with one interpolant of
    the class's kind, fitted on first use."""

    _interpolant = staticmethod(fit_cubic)

    def __init__(self, a, b, values):
        values = np.array(values, dtype=float)
        if values.ndim != 1 or values.size < 4:
            raise ValueError("need at least 4 samples")
        if not np.all(np.isfinite(values)):
            raise ValueError("non-finite samples")
        self.a = float(a)
        self.b = float(b)
        if not (np.isfinite(self.a) and np.isfinite(self.b) and self.a < self.b):
            raise ValueError(f"need finite bounds a < b, got [{self.a}, {self.b}]")
        values.flags.writeable = False
        self.values = values

    @cached_property
    def _spline(self):
        return self._interpolant(self.grid_x(), self.values)

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

    def with_values(self, values):
        """A plain Monotone1D: new samples have no forward map to solve."""
        return Monotone1D(self.a, self.b, values)


# ---------------------------------------------------------------------------
# CSV persistence: two columns (abscissa, value), '.' decimal, '\n' lines
# ---------------------------------------------------------------------------

def write_curve_csv(path, x, v):
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    text = "".join(f"{xi!r},{vi!r}\n" for xi, vi in zip(x.tolist(), v.tolist()))
    with open(path, "w", newline="\n") as fh:
        fh.write(text)


def read_curve_csv(path):
    data = np.loadtxt(path, delimiter=",", ndmin=2)
    if data.shape[1] < 2:
        raise ValueError(f"{path}: a curve CSV has two columns, abscissa and value")
    return data[:, 0], data[:, 1]
