"""Property tests of the 1D layers: the smoothing operator, the monotone
inverse and the root finder behind it, the monotone repair of a profile
update, the profile expression parser and the level chart of a field that
varies only along r."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from scipy.interpolate import CubicSpline, PchipInterpolator, make_interp_spline

from annuflow import orbit
from annuflow.curves import Curve1D, Monotone1D, solve_increasing
from annuflow.errors import CriticalPointError
from annuflow.exprparse import ExpressionError, parse_expression
from annuflow.grid import make_annulus
from annuflow.moser import _repair_monotone
from annuflow.tame import smooth

props = settings(derandomize=True, deadline=None)

# zero or 1e-6 <= |x| <= 1e6, so that no product leaves the normal range
finite = st.just(0.0) | st.floats(1e-6, 1e6) | st.floats(-1e6, -1e-6)
sizes = st.integers(4, 1024)
cutoffs = st.floats(0.05, 1000.0)


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
# the interpolant turns back between nodes; the ODE chart's residual is
# 2.4e-11 of the range, its nodes 2.7e-11 off their levels along r
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
    assert chart.residual() <= orbit.CHART_TOL * rng
    with pytest.MonkeyPatch.context() as m:
        m.setattr(orbit, "theta_constant", lambda values, scale: False)
        ode = orbit.level_chart(field)
    # Both charts resolve the levels to the rounding of the values, max|w|
    # times finer than the range.  The ODE chart's nodes may also miss
    # their levels by up to its residual, which moves them along r by that
    # over the slope, and moves the travel time 2 pi r / s'(r) by the
    # derivative of its logarithm times that.
    tol = 1e-11 * np.abs(column).max() / rng
    dr = ode.residual() / slope.min()
    log_tt = 1 / g.Ri + np.abs(curvature).max() / slope.min()
    assert np.abs(chart.r - ode.r).max() <= tol * g.Ro + dr
    assert (np.abs(chart.travel_time / ode.travel_time - 1).max()
            <= tol + dr * log_tt)
