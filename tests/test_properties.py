"""Property tests of the 1D layers: the cubic fit and the tridiagonal
solve behind it, the smoothing operator, the monotone inverse and the root
finder behind it, the monotone repair of a profile update, the profile
expression parser, the level chart of a field that varies only along r,
and the M-matrix bound on the theta-mode blocks of a radial shift."""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from scipy.interpolate import CubicSpline, PchipInterpolator, make_interp_spline
from scipy.linalg import LinAlgError, solve_banded

from annuflow import orbit
from annuflow.curves import (Curve1D, Monotone1D, fit_cubic, solve_increasing,
                             solve_tridiagonal)
from annuflow.elliptic import _mode_bands, _mode_blocks, _mode_bounds, check_nd1
from annuflow.errors import CriticalPointError
from annuflow.exprparse import ExpressionError, parse_expression
from annuflow.grid import make_annulus
from annuflow.moser import _repair_monotone
from annuflow.tame import smooth

from oracles import all_mode_singular_values, chart_residual

props = settings(derandomize=True, deadline=None)

# zero or 1e-6 <= |x| <= 1e6, so that no product leaves the normal range
finite = st.just(0.0) | st.floats(1e-6, 1e6) | st.floats(-1e6, -1e-6)
sizes = st.integers(4, 1024)
cutoffs = st.floats(0.05, 1000.0)


@st.composite
def cubic_samples(draw):
    """Strictly increasing x, uniform or not, and y of shape (n,) or (n, m)."""
    n = draw(st.integers(4, 300))
    start = draw(st.floats(-1e3, 1e3))
    steps = draw(arrays(float, n - 1, elements=st.floats(1e-3, 1e2)))
    x = (np.linspace(start, start + steps.sum(), n) if draw(st.booleans())
         else start + np.cumsum(np.r_[0.0, steps]))
    m = draw(st.none() | st.integers(1, 4))
    return x, draw(arrays(float, (n,) if m is None else (n, m), elements=finite))


@props
@given(samples=cubic_samples())
@example(samples=(np.linspace(1.0, 2.0, 129), np.random.default_rng(1).normal(size=129)))
@example(samples=(np.cumsum(np.random.default_rng(2).uniform(1e-3, 1.0, 513)),
                  np.random.default_rng(3).normal(size=(513, 3))))
def test_fit_cubic_is_cubic_spline(samples):
    # bit for bit: the coefficients, and the values and first two
    # derivatives at the knots, between them and outside them
    x, y = samples
    ours, ref = fit_cubic(x, y), CubicSpline(x, y, axis=0)
    assert np.array_equal(ours.x, ref.x) and np.array_equal(ours.c, ref.c)
    span = x[-1] - x[0]
    at = np.r_[x, 0.5 * (x[1:] + x[:-1]), x[0] - 0.3 * span, x[-1] + 0.2 * span]
    for order in (0, 1, 2):
        assert np.array_equal(ours(at, order), ref(at, order))


def test_fit_cubic_refuses_what_cubic_spline_refuses():
    x = np.linspace(0.0, 1.0, 8)
    for bad_x, bad_y in ((x[::-1], x), (np.r_[x[:3], x[2:-1]], x),
                         (np.r_[np.nan, x[1:]], x), (x, np.r_[x[:-1], np.inf])):
        for fit in (fit_cubic, CubicSpline):
            with pytest.raises(ValueError):
                fit(bad_x, bad_y)


@props
@given(data=st.data(), n=st.integers(2, 200), m=st.none() | st.integers(1, 4),
       kind=st.sampled_from([float, complex]))
def test_solve_tridiagonal_is_solve_banded(data, n, m, kind):
    # the same gtsv call: the same solution bit for bit (NaN where a
    # near-singular band overflows), or the same LinAlgError for a
    # singular one
    band = data.draw(arrays(float, (3, n), elements=finite))
    shape = (n,) if m is None else (n, m)
    rhs = data.draw(arrays(float, shape, elements=finite)).astype(kind)
    if kind is complex:
        rhs += 1j * data.draw(arrays(float, shape, elements=finite))
    try:
        ref = solve_banded((1, 1), band, rhs)
    except LinAlgError:
        with pytest.raises(LinAlgError):
            solve_tridiagonal(band, rhs.copy())
        return
    ours = solve_tridiagonal(band, rhs.copy())
    assert ours.shape == ref.shape and ours.dtype == ref.dtype
    assert np.array_equal(ours, ref, equal_nan=True)


def test_solve_tridiagonal_errors():
    band = np.array([[0.0, 1, 1, 1], [4, 4, 4, 4], [1, 1, 1, 0]])
    rhs = np.ones((4, 2))
    singular = band.copy()
    singular[1, 0] = singular[2, 0] = 0.0          # the first column is zero
    cases = [(singular, rhs, LinAlgError)]
    for bad in (np.nan, np.inf, -np.inf):
        for which in (0, 1):
            args = [band.copy(), rhs.copy()]
            args[which].flat[5] = bad
            cases.append((*args, ValueError))
    for b, r, error in cases:
        with pytest.raises(error):
            solve_banded((1, 1), b, r)
        with pytest.raises(error):
            solve_tridiagonal(b, r)


@props
@given(n=sizes, c=finite, t=cutoffs)
def test_smooth_keeps_constants(n, c, t):
    # exact when n - 1 is a power of two; the cosine transform rounds to
    # about 5e-13 relative at other sizes (4.8e-13 at n = 927)
    out = smooth(Curve1D(0.0, 1.0, np.full(n, c)), t)
    assert np.abs(out.values - c).max() <= 1e-12 * abs(c)


@props
@given(data=st.data(), n=sizes, t=cutoffs, a=finite, b=finite)
def test_smooth_is_linear(data, n, t, a, b):
    f, g = (Curve1D(0.0, 1.0, data.draw(arrays(float, n, elements=finite)))
            for _ in range(2))
    lhs = smooth(a * f + b * g, t).values
    rhs = a * smooth(f, t).values + b * smooth(g, t).values
    scale = abs(a) * f.max_norm() + abs(b) * g.max_norm()
    assert np.abs(lhs - rhs).max() <= 1e-12 * scale


@props
@given(data=st.data(), start=st.floats(-1e3, 1e3),
       steps=arrays(float, st.integers(3, 200), elements=st.floats(1e-3, 1e2)))
def test_monotone_inverse_round_trip(data, start, steps):
    m = Monotone1D(0.0, 1.0, start + np.cumsum(np.r_[0.0, steps]))
    lo, hi = m.values[0], m.values[-1]
    y = data.draw(st.floats(lo, hi))
    # the stopping rule of Monotone1D.eval_inverse
    assert abs(m(m.inverse()(y)) - y) <= 1e-12 * max(1.0, abs(lo), abs(hi))


@props
@given(start=st.floats(-1e3, 1e3),
       steps=arrays(float, st.integers(3, 200), elements=st.floats(1e-3, 1e2)),
       kind=st.sampled_from([CubicSpline, PchipInterpolator]),
       q=arrays(float, st.integers(1, 50), elements=st.floats(0.0, 1.0)))
# the PCHIP's slope is 0 at its left end, where a Newton step from the
# exact root y = 0 would divide 0 by 0
@example(start=0.0, steps=np.array([0.25, 1.0, 1.0]), kind=PchipInterpolator,
         q=np.array([0.0, 0.5, 1.0]))
def test_solve_increasing(start, steps, kind, q):
    values = start + np.cumsum(np.r_[0.0, steps])
    pp = kind(np.linspace(0.0, 1.0, values.size), values)
    lo, hi = values[0], values[-1]
    tol = 1e-12 * max(1.0, abs(lo), abs(hi))
    y = np.sort(lo + q * (hi - lo))
    x = solve_increasing(pp, y, tol)
    assert np.abs(pp(x) - y).max() <= tol
    assert pp.x[0] <= x.min() and x.max() <= pp.x[-1]
    # a PCHIP of increasing samples increases; a cubic spline can turn
    # back between them, and then a level may have more than one root
    if (kind is PchipInterpolator
            or pp(np.linspace(0.0, 1.0, 64 * values.size), 1).min() > 0):
        assert np.all(np.diff(x) >= 0)


def _repair_loop(samples, h_s, floor_slope):
    """The repair as its recurrence, one sample at a time."""
    out = samples.copy()
    for i in range(out.size - 1):
        out[i + 1] = max(out[i + 1], out[i] + floor_slope * h_s)
    return out


@props
@given(samples=arrays(float, st.integers(2, 600), elements=st.floats(-1e3, 1e3)),
       h_s=st.floats(1e-4, 1.0), floor_slope=st.floats(0.0, 10.0))
def test_repair_monotone_matches_its_recurrence(samples, h_s, floor_slope):
    ref = _repair_loop(samples, h_s, floor_slope)
    out = _repair_monotone(samples, h_s, floor_slope)
    scale = np.abs(samples).max() + floor_slope * h_s * samples.size
    assert np.abs(out - ref).max() <= 1e-13 * scale
    assert np.all(out >= samples - 1e-13 * scale)


# grammar v1 of exprparse; numbers are reprs of non-negative finite floats
numbers = (st.floats(0.0, 10.0)
           | st.floats(min_value=0.0, allow_infinity=False)).map(repr)


def _compound(inner):
    # operator chains without parentheses exercise precedence and
    # left associativity
    chain = st.lists(st.tuples(st.sampled_from("+-*/"), inner),
                     min_size=1, max_size=3).map(lambda ps: "".join(map("".join, ps)))
    return st.one_of(
        st.tuples(inner, chain).map("".join),
        st.tuples(st.sampled_from("+-"), inner).map("".join),
        inner.map(lambda e: f"({e})"))


expressions = st.recursive(numbers | st.just("s"), _compound, max_leaves=12)
S = np.linspace(-3.0, 0.0, 7)


def _outcome(fn):
    with np.errstate(all="ignore"):
        try:
            return np.broadcast_to(fn(), S.shape)
        except ZeroDivisionError:
            return ZeroDivisionError


@props
@given(text=expressions)
def test_parse_matches_python_eval(text):
    ours = _outcome(lambda: parse_expression(text)(S))
    python = _outcome(lambda: eval(text, {"__builtins__": {}}, {"s": S}))
    if python is ZeroDivisionError:
        assert ours is ZeroDivisionError
    else:
        np.testing.assert_array_equal(ours, python)


other_names = st.sampled_from(["t", "x", "S", "e", "pi", "ss"])


@st.composite
def rejected(draw):
    e, f = draw(expressions), draw(expressions)
    kind = draw(st.sampled_from(["power", "comma", "name", "parens"]))
    if kind == "power":
        return f"{e}**{f}"
    if kind == "comma":
        return f"{e},{f}"
    if kind == "name":
        return f"{e}{draw(st.sampled_from('+-*/'))}{draw(other_names)}"
    opened, closed = draw(st.tuples(st.integers(0, 3), st.integers(0, 3)).filter(
        lambda p: p[0] != p[1]))
    return "(" * opened + e + ")" * closed


@props
@given(text=rejected())
def test_parse_rejects_outside_grammar(text):
    with pytest.raises(ExpressionError):
        parse_expression(text)(S)


@props
@given(n=st.integers(1, 3000), op=st.sampled_from("+-"))
@example(n=1000, op="+")
@example(n=1000, op="-")
def test_parse_deep_nesting(n, op):
    # n terms of a sum, or n unary minus signs before s: either the exact
    # value or ExpressionError, never a RecursionError from parse or call
    text = "+".join(["s"] * n) if op == "+" else "-" * n + "s"
    try:
        fn = parse_expression(text)
    except ExpressionError:
        assert n > 100
        return
    assert n < 1000
    np.testing.assert_array_equal(fn(S), n * S if op == "+" else (-1) ** n * S)


small = make_annulus(1.0, 2.0, 12, 16)


@props
@given(base=st.floats(-1e3, 1e3),
       slopes=arrays(float, small.Nr - 1, elements=st.floats(0.01, 10.0)))
# the first column's interpolant turns back between nodes; on the second,
# the gradient-flow chart once left its nodes 2.7e-11 off their levels
@example(base=0.0, slopes=np.r_[1.0, 2.0, np.ones(9)])
@example(base=0.0, slopes=np.r_[4.0, 6, 6, 6, 6, 2, 6, 6, 6, 6, 6])
def test_root_chart_of_a_radial_column(base, slopes):
    # a column that increases from node to node; its cubic interpolant can
    # still turn back between nodes, and then the chart refuses the field
    g = small
    column = base + np.r_[0.0, np.cumsum(slopes * g.hr)]
    field = g.field(np.repeat(column[:, None], g.Ns, axis=1))
    rng = column[-1] - column[0]
    s = make_interp_spline(g.r, column, k=3)
    x = np.linspace(g.Ri, g.Ro, 64 * g.Nr)
    slope, curvature = s(x, 1), s(x, 2)
    try:
        chart = orbit.level_chart(field)
    except CriticalPointError:
        assert slope.min() < orbit.GRAD_FLOOR_REL * rng
        return
    assert chart.on_circles
    assert chart_residual(chart) <= orbit.CHART_TOL * rng
    with pytest.MonkeyPatch.context() as m:
        m.setattr(orbit, "theta_constant", lambda values, scale: False)
        every = orbit.level_chart(field)
    # The chart of the one column and the chart of all Ns columns both
    # resolve the levels to the rounding of the values, max|w| times finer
    # than the range.  The nodes of the second may also miss their levels
    # by up to its residual, which moves them along r by that over the
    # slope, and moves the travel time 2 pi r / s'(r) by the derivative of
    # its logarithm times that.
    tol = 1e-11 * np.abs(column).max() / rng
    dr = chart_residual(every) / slope.min()
    log_tt = 1 / g.Ri + np.abs(curvature).max() / slope.min()
    assert np.abs(chart.r - every.r).max() <= tol * g.Ro + dr
    assert (np.abs(chart.travel_time / every.travel_time - 1).max()
            <= tol + dr * log_tt)


@props
@given(a=st.floats(-30.0, 60.0), b=st.floats(-20.0, 20.0), Ns=st.sampled_from([16, 32]))
@example(a=40.0, b=0.0, Ns=16)
@example(a=0.0, b=0.0, Ns=32)
def test_nd1_mode_bounds_hold(a, b, Ns):
    # c(r) = a + b r; c above a mode's least eigenvalue of -Delta leaves
    # its block without a certificate, and bound 0
    g = make_annulus(1.0, 2.0, 16, Ns)
    c = a + b * g.r[1:-1]
    beta = _mode_bounds(_mode_bands(g, c, np.arange(1, Ns // 2 + 1)))
    dense = np.linalg.svd(_mode_blocks(g, c, Ns // 2 + 1)[1], compute_uv=False)[:, -1]
    assert (beta >= 0).all() and (beta <= dense).all()
    # a radial state with -F'(psi) = c: psi = r - Ro
    state = SimpleNamespace(psi=g.field_from(lambda r, t: r - 2.0 + 0.0 * t),
                            F=SimpleNamespace(d1=lambda s: -(a + b * (s + 2.0))))
    shift = -state.F.d1(state.psi.values[1:-1, 0])
    assert check_nd1(state).sigma_min == all_mode_singular_values(g, shift).min()
