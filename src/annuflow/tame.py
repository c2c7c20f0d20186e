"""One-dimensional smoothing, extension, inversion, and the empirical
norm-inequality checks used to monitor the graded-norm machinery.

The smoothing family S(t) acts by even reflection about both endpoints
(cosine transform, so constants are preserved exactly) followed by a
raised-cosine low-pass: full transmission below mode 0.8*t, zero above
1.2*t.  Mode m means cos(pi*m*(x-a)/(b-a)) on the curve's own interval,
so a pure cosine mode is a single transform bin and is cut exactly.
"""

from __future__ import annotations

import numpy as np
from scipy.fft import dct, idct

from .curves import Curve1D, Monotone1D
from .errors import DegenerateNormError, NotMonotoneError
from .grid import holder_norm


def _lowpass_window(nmodes, t):
    m = np.arange(nmodes, dtype=float)
    lo = 0.8 * t
    hi = 1.2 * t
    w = np.zeros(nmodes)
    w[m <= lo] = 1.0
    band = (m > lo) & (m < hi)
    w[band] = 0.5 * (1.0 + np.cos(np.pi * (m[band] - lo) / (hi - lo)))
    return w


def _endpoint_ramp(values):
    """Cubic ramp matching the even-periodization kink of the samples.

    The ramp combines two unit-interval cubics with unit endpoint slopes,
    weighted by a fit to the 1/m^2 tail of the cosine coefficients, so it
    vanishes (to rounding) for constants and for band-limited cosine
    content, and removes the kink for generic smooth data."""
    n = values.size
    u = np.linspace(0.0, 1.0, n)
    q0 = u * (1 - u) ** 2
    q1 = u**2 * (u - 1)
    m = np.arange(n)
    band = (m >= max(8, n // 2)) & (m <= n - 4)
    w = m[band].astype(float) ** 2
    tail = np.stack([dct(q0, type=1)[band] * w, dct(q1, type=1)[band] * w], axis=1)
    coef = np.linalg.pinv(tail) @ (dct(values, type=1)[band] * w)
    return coef[0] * q0 + coef[1] * q1


def smooth(f: Curve1D, t: float) -> Curve1D:
    """Low-pass f at cutoff t; S(t)f -> f as t exceeds the grid Nyquist.

    The even reflection about both endpoints (cosine transform) would put
    a derivative kink at the seams; its fitted cubic ramp passes through
    the operator unchanged and the remainder is windowed in mode space."""
    if t <= 0:
        raise ValueError("t must be positive")
    ramp = _endpoint_ramp(f.values)
    coeff = dct(f.values - ramp, type=1)
    coeff *= _lowpass_window(coeff.size, t)
    return f.with_values(idct(coeff, type=1) + ramp)


def verify_smoothing(f: Curve1D, m: int, l: int, ts):
    """Empirical constants for |S(t)f|_m <= C t^(m-l) |f|_l and
    |f - S(t)f|_l <= C t^(l-m) |f|_m; zero-norm inputs report 0."""
    if not (m >= l >= 0):
        raise ValueError("need m >= l >= 0")
    norm_l = holder_norm(f, l)
    norm_m = holder_norm(f, m)
    ratio_smooth = 0.0
    ratio_remain = 0.0
    for t in ts:
        sf = smooth(f, t)
        if norm_l > 1e-14:
            ratio_smooth = max(ratio_smooth,
                               holder_norm(sf, m) / (t ** (m - l) * norm_l))
        if norm_m > 1e-14:
            rem = f - sf
            ratio_remain = max(ratio_remain,
                               holder_norm(rem, l) / (t ** (l - m) * norm_m))
    return {"smooth_ratio": ratio_smooth, "remainder_ratio": ratio_remain,
            "m": m, "l": l, "ts": list(ts)}


def interp_check(f, i: int, m: int, l: int, alpha: float = 0.5) -> float:
    """Ratio |f|_i / (|f|_m^((l-i)/(l-m)) |f|_l^((i-m)/(l-m)))."""
    if not (m <= i <= l):
        raise ValueError("need m <= i <= l")
    if m == l:
        return 1.0
    nm = holder_norm(f, m, alpha)
    nl = holder_norm(f, l, alpha)
    if nm < 1e-14 or nl < 1e-14:
        raise DegenerateNormError("norm below 1e-14", nm=nm, nl=nl)
    ni = holder_norm(f, i, alpha)
    return ni / (nm ** ((l - i) / (l - m)) * nl ** ((i - m) / (l - m)))


def _cutoff(u):
    """C^1 smoothstep: 0 at 0, 1 at 1, flat at both ends."""
    u = np.clip(u, 0.0, 1.0)
    return u * u * (3.0 - 2.0 * u)


def extend(f: Curve1D) -> Curve1D:
    """Reflection extension to [a-D, b+D], D about a quarter of the length,
    tapered to 0 at the new endpoints by a smooth cutoff that equals 1 on
    the original interval."""
    L = f.b - f.a
    D = 0.25 * L
    n = f.values.size
    h = L / (n - 1)
    M = min(int(np.ceil(D / h)), n - 1)
    D = M * h
    left = f.values[M:0:-1]
    right = f.values[-2:-M - 2:-1]
    vals = np.concatenate([left, f.values, right])
    x = np.linspace(f.a - D, f.b + D, vals.size)
    chi = np.ones_like(x)
    lmask = x < f.a
    rmask = x > f.b
    chi[lmask] = _cutoff((x[lmask] - (f.a - D)) / D)
    chi[rmask] = _cutoff(((f.b + D) - x[rmask]) / D)
    return Curve1D(f.a - D, f.b + D, vals * chi)


def invert_monotone(f: Curve1D) -> Curve1D:
    """Inverse of a curve whose sampled slopes all exceed 1e-10; g(f(x)) = x
    at solver tolerance on the sample range."""
    slopes = np.diff(f.values) / np.diff(f.grid_x())
    if slopes.min() <= 1e-10:
        raise NotMonotoneError(f"min sampled slope {slopes.min():.3e} <= 1.0e-10")
    mono = f if isinstance(f, Monotone1D) else Monotone1D(f.a, f.b, f.values)
    return mono.inverse()
