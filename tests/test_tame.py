import numpy as np
import pytest

from scipy.interpolate import CubicSpline, PchipInterpolator

from annuflow.curves import Curve1D, Monotone1D
from annuflow.errors import DegenerateNormError, NotMonotoneError
from annuflow.tame import (extend, interp_check, invert_monotone, smooth,
                           verify_smoothing)

N = 257


def curve(fn, a=0.0, b=1.0, n=N):
    return Curve1D.from_callable(fn, a, b, n)


BATTERY = [
    lambda x: np.sin(2 * np.pi * x),
    lambda x: np.cos(6 * x) + 0.3 * x,
    lambda x: np.exp(-x) * np.sin(4 * x),
    lambda x: x**3 - x,
    lambda x: 1.0 / (1.0 + 4 * x**2),
]


def test_smooth_preserves_constants():
    c = curve(lambda x: 3.5 + 0 * x)
    for t in (0.5, 4.0, 100.0):
        assert np.abs(smooth(c, t).values - 3.5).max() < 1e-13


def test_smooth_identity_above_nyquist():
    f = curve(lambda x: np.sin(3 * x) + x**2)
    out = smooth(f, 2 * N)
    assert np.abs(out.values - f.values).max() < 1e-10


def test_smooth_cuts_single_mode():
    k = 8
    f = curve(lambda x: np.cos(np.pi * k * x))
    assert smooth(f, k / 2).max_norm() < 1e-8


def test_smooth_semigroup_property():
    # S(t2) S(t1) close to S(min(t1,t2)) in sup norm for separated cutoffs
    f = curve(lambda x: np.sin(2 * np.pi * x) + 0.5 * np.cos(14 * x) + x)
    a = smooth(smooth(f, 32.0), 8.0)
    b = smooth(f, 8.0)
    scale = max(b.max_norm(), 1e-12)
    assert (a - b).max_norm() < 0.1 * scale


def test_verify_smoothing_battery():
    ts = (4.0, 8.0, 16.0, 32.0)
    for fn in BATTERY:
        rep = verify_smoothing(curve(fn), 2, 0, ts)
        assert rep["smooth_ratio"] < 100.0
        assert rep["remainder_ratio"] < 100.0


def test_verify_smoothing_constant_guarded():
    rep = verify_smoothing(curve(lambda x: 0 * x), 2, 0, (4.0, 8.0))
    assert rep["smooth_ratio"] == 0.0
    assert rep["remainder_ratio"] == 0.0


def test_verify_smoothing_contraction_same_order():
    for fn in BATTERY[:3]:
        rep = verify_smoothing(curve(fn), 1, 1, (4.0, 16.0, 64.0))
        assert rep["smooth_ratio"] <= 1.05


def test_interp_check_endpoints():
    f = curve(lambda x: np.sin(4 * np.pi * x))
    assert interp_check(f, 0, 0, 2) == pytest.approx(1.0)
    assert interp_check(f, 2, 0, 2) == pytest.approx(1.0)


def test_interp_check_mode():
    f = curve(lambda x: np.sin(4 * np.pi * x))
    assert interp_check(f, 1, 0, 2) <= 5.0


def test_interp_check_battery():
    for fn in BATTERY:
        assert interp_check(curve(fn), 1, 0, 2) <= 50.0


def test_interp_check_degenerate():
    with pytest.raises(DegenerateNormError):
        interp_check(curve(lambda x: 0 * x), 1, 0, 2)


def test_extend_zero():
    e = extend(curve(lambda x: 0 * x))
    assert e.max_norm() == 0.0


def test_extend_constant_shape():
    e = extend(curve(lambda x: 1.0 + 0 * x))
    assert e.values.min() >= -1e-15
    assert e.values.max() <= 1.0 + 1e-15
    assert abs(e.values[0]) < 1e-15 and abs(e.values[-1]) < 1e-15
    core = (e.grid_x() >= 0.0) & (e.grid_x() <= 1.0)
    assert np.abs(e.values[core] - 1.0).max() < 1e-15


def test_extend_identity_on_core():
    f = curve(lambda x: x)
    e = extend(f)
    x = e.grid_x()
    core = (x >= -1e-12) & (x <= 1.0 + 1e-12)
    assert np.abs(e.values[core] - x[core]).max() < 1e-13


def test_extend_linear():
    f = curve(lambda x: np.sin(3 * x))
    g = curve(lambda x: x**2)
    a, b = 2.0, -0.5
    combo = Curve1D(0.0, 1.0, a * f.values + b * g.values)
    lhs = extend(combo).values
    rhs = a * extend(f).values + b * extend(g).values
    assert np.abs(lhs - rhs).max() < 1e-12


def test_invert_linear():
    f = curve(lambda x: 2 * x)
    g = invert_monotone(f)
    y = np.linspace(0, 2, 101)
    assert np.abs(g(y) - y / 2).max() < 1e-10


def test_invert_distribution_closed_form(grid64):
    from annuflow.orbit import dist_fn
    om = grid64.field_from(lambda r, t: r**2)
    A, _ = dist_fn(om)
    g = invert_monotone(A)
    mus = np.linspace(0, 3 * np.pi, 65)
    assert np.abs(g(mus) - (1 + mus / np.pi)).max() < 1e-5


def test_invert_random_spline_roundtrip():
    rng = np.random.default_rng(17)
    steps = np.abs(rng.normal(size=N)) + 0.05
    vals = np.cumsum(steps)
    f = Monotone1D(0.0, 1.0, vals / vals[-1] * 3.0)
    g = invert_monotone(f)
    x = np.linspace(0, 1, 401)
    assert np.abs(g(np.asarray(f(x))) - x).max() < 1e-8


def test_invert_rejects_flat():
    f = Curve1D(0.0, 1.0, np.concatenate([np.linspace(0, 1, 128),
                                          np.full(129, 1.0)]))
    with pytest.raises(NotMonotoneError):
        invert_monotone(f)


def test_invert_involution():
    f = Monotone1D(0.0, 1.0, np.linspace(0, 1, N) ** 2 + np.linspace(0, 1, N))
    g = invert_monotone(f)
    h = invert_monotone(g)
    x = f.grid_x()
    assert np.abs(h(x) - np.asarray(f(x))).max() < 1e-7


def test_each_curve_fits_one_interpolant(monkeypatch):
    # a cubic-spline curve fits one CubicSpline; a monotone curve and its
    # inverse fit a PCHIP alone
    fits = []
    init = CubicSpline.__init__

    def counted(self, *args, **kwargs):
        fits.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(CubicSpline, "__init__", counted)
    x = np.linspace(0.0, 1.0, N)
    Curve1D(0.0, 1.0, x**2)
    assert len(fits) == 1
    f = Monotone1D(0.0, 1.0, x**2 + x)
    assert isinstance(f.inverse()._spline, PchipInterpolator)
    assert len(fits) == 1


def test_operations_degree_zero_bounded():
    from annuflow.grid import holder_norm
    consts = []
    for fn in BATTERY:
        f = curve(fn)
        nf = holder_norm(f, 1, 0.5)
        for op in (lambda u: smooth(u, 16.0), extend):
            consts.append(holder_norm(op(f), 1, 0.5) / (nf + 1.0))
    assert max(consts) < 50.0
