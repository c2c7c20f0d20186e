"""Level-set geometry of boundary-constant fields without critical points:
polar level charts, loop integrals over level sets, distribution
functions and their first two derivatives, area-preserving pushforward,
and the tangency calculus of co-adjoint orbits.

The chart puts row t on the level set w = min w + t*(max w - min w).  A
charted field increases along every grid ray, between grid radii too,
so each level is a curve r = R(theta): on each ray, R is the root of the
field's not-a-knot cubic along r by curves.solve_increasing, and the
nodes sit at the grid's angles.  Polar coarea then gives every loop
integral from R and w_r at R: the travel time A' is the loop integral of
R/w_r, and the levels of a field constant in theta are circles, charted
from its first column alone.  All level-set quantities are periodic
trapezoid sums over s, and a field is read at the nodes from its cubics
along the rays.  A chart's distribution is A alone, the polar area inside
each level, which the same root finder inverts pointwise; dist_fn
returns A with a tabulated inverse.
The pushforward alone integrates an ODE, on a bicubic interpolant.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np
from scipy.integrate import solve_ivp
from scipy.interpolate import RectBivariateSpline

from .curves import Curve1D, Monotone1D, fit_cubic, solve_increasing
from .elliptic import NdReport, solve_poisson, theta_constant
from .errors import (AreaMismatchError, CriticalPointError, NotInFplusError,
                     NotTangentError, NonpositiveFprimeError, TrajectoryExitError)
from .grid import Field2D, divergence, gradient, integrate, poisson_bracket

CHART_TOL = 1e-10
GRAD_FLOOR_REL = 1e-6
AREA_TOL_REL = 5e-3

_PAD = 4


def _theta_padding(g):
    """The theta grid padded by _PAD periodic copies at each end, and the
    grid column each padded column copies."""
    theta_ext = np.concatenate([g.theta[-_PAD:] - 2 * np.pi, g.theta,
                                g.theta[:_PAD] + 2 * np.pi])
    return theta_ext, np.r_[g.Ns - _PAD:g.Ns, 0:g.Ns, 0:_PAD]


class FieldSpline:
    """Bicubic interpolant of a Field2D, periodic in theta."""

    def __init__(self, f: Field2D):
        g = f.grid
        theta_ext, cols = _theta_padding(g)
        self._spl = RectBivariateSpline(g.r, theta_ext, f.values[:, cols],
                                        kx=3, ky=3)
        # the radii, not the grid: pushforward's integrand keeps this spline
        # in solve_ivp's reference cycle, which must not hold the grid
        self._radii = (g.Ri, g.Ro)

    def _wrap(self, r, theta):
        return np.clip(r, *self._radii), np.mod(theta, 2 * np.pi)

    def val(self, r, theta):
        r, theta = self._wrap(r, theta)
        return self._spl.ev(r, theta)

    def grad(self, r, theta):
        """The derivatives in r and in theta."""
        r, theta = self._wrap(r, theta)
        return self._spl.ev(r, theta, dx=1), self._spl.ev(r, theta, dy=1)


N_MU = 129


class AreaGrid(NamedTuple):
    """The uniform area grid mu on [0, |domain|] (N_MU points) and the
    levels lam_mu = A^{-1}(mu) of a chart's field."""

    levels: np.ndarray
    mu: np.ndarray
    lam_mu: np.ndarray

    def resample(self, level_values):
        """Cubic interpolant of values on the chart levels (leading axis),
        evaluated at lam_mu."""
        return fit_cubic(self.levels, level_values)(self.lam_mu)


@dataclass(frozen=True, eq=False)
class LevelChart:
    """Polar level coordinates: row t is the level set at
    min w + t*(max w - min w), the curve r = R(theta) sampled at the grid's
    angles; row 0 on the inner circle, row 1 on the outer one.  The chart
    owns the level-set data built from it, each on first use: the travel
    time, the distribution and the area grid."""

    grid: object
    t: np.ndarray                 # (Nt,)
    r: np.ndarray                 # (Nt, Ns) radii R at the grid's angles
    grad_norm: np.ndarray         # |grad w| at chart nodes
    arc_weight: np.ndarray        # |dz/ds| at chart nodes
    omega_min: float
    omega_max: float
    omega: Field2D = field(repr=False)    # the charted field

    @property
    def levels(self):
        return self.omega_min + self.t * (self.omega_max - self.omega_min)

    @property
    def ds(self):
        return 1.0 / self.r.shape[1]

    @property
    def on_circles(self):
        """Whether every level is a circle (r constant along each row)."""
        return not np.ptp(self.r, axis=1).any()

    @cached_property
    def travel_time(self):
        """A'(lambda) = loop integral of 1/|grad w| on each chart level."""
        return _loop_sum(self, self.arc_weight / self.grad_norm)

    @cached_property
    def distribution(self) -> Monotone1D:
        """A(lambda) = |{w < lambda}| on the chart levels, inverted pointwise
        by A.eval_inverse.  A is the polar area inside each level,
        1/2 of the loop integral of R^2 - Ri^2 over theta, by the periodic
        trapezoid rule; its relative miss of the annulus area on the outer
        circle is kept as A.area_discrepancy (error beyond AREA_TOL_REL)."""
        Ri = self.grid.Ri
        area = np.pi * _loop_sum(self, self.r**2 - Ri**2)
        total = self.grid.area
        disc = (area[-1] - total) / total
        if abs(disc) > AREA_TOL_REL:
            raise AreaMismatchError(
                f"area misses |domain| by {disc:.2%}", discrepancy=disc)
        A = Monotone1D(self.omega_min, self.omega_max, area)
        A.area_discrepancy = float(disc)
        return A

    @cached_property
    def area_grid(self) -> AreaGrid:
        mu = np.linspace(0.0, self.grid.area, N_MU)
        return AreaGrid(self.levels, mu, self.distribution.eval_inverse(mu))


def _boundary_levels(omega: Field2D):
    tol = 1e-6 * max(float(np.ptp(omega.values)), 1e-300)
    wi = omega.values[0, :]
    wo = omega.values[-1, :]
    if np.ptp(wi) > tol or np.ptp(wo) > tol:
        raise NotInFplusError("field is not constant on the boundary circles",
                              inner_spread=float(np.ptp(wi)),
                              outer_spread=float(np.ptp(wo)))
    wmin, wmax = float(wi.mean()), float(wo.mean())
    if wmin >= wmax:
        raise NotInFplusError("inner boundary value must be below outer",
                              inner=wmin, outer=wmax)
    return wmin, wmax


def level_chart(omega: Field2D, Nt=None) -> LevelChart:
    """The chart of a boundary-constant field with no critical points
    (inner value below outer value) that increases along every grid ray.

    The field between grid radii is its not-a-knot cubic along r on each
    ray.  A field constant in theta (``elliptic.theta_constant`` with the
    range as the scale) is charted from its first column, any other from
    all of them; the same code runs on 1 or Ns columns and broadcasts over
    theta.  Each cubic's slope must stay above the gradient floor on
    [Ri, Ro] (CriticalPointError naming the ray otherwise), so each level
    crosses each ray once, at the radius R that curves.solve_increasing
    finds, to 4 ulp of max|values|.  Along the level r = R(theta),
    R_theta = -w_theta/w_r, with w_theta from the trigonometric
    interpolant of the cubics over the grid angles; a circle has
    R_theta = 0.  Every interior root's miss from its level is checked."""
    g = omega.grid
    Nt = g.Nr if Nt is None else int(Nt)
    wmin, wmax = _boundary_levels(omega)
    rng = wmax - wmin
    cols = omega.values[:, :1] if theta_constant(omega.values, rng) else omega.values
    s = fit_cubic(g.r, cols)
    _check_slope(s, GRAD_FLOOR_REL * rng, g.theta)

    t = np.linspace(0.0, 1.0, Nt)
    levels = wmin + t * rng
    R = np.empty((Nt, cols.shape[1]))
    R[0], R[-1] = g.r[0], g.r[-1]
    rounding = 4 * np.finfo(float).eps * np.abs(cols).max()
    R[1:-1] = solve_increasing(s, levels[1:-1, None], rounding)
    # the boundary rows lie on the circles, whose spread _boundary_levels bounds
    at = _ray_pieces(g.r, R)
    miss = np.abs(_on_rays(s.c, *at)[1:-1] - levels[1:-1, None]).max()
    if miss > CHART_TOL * rng:
        raise CriticalPointError(f"chart level residual {miss:.3e} exceeds "
                                 f"{CHART_TOL:.1e} of the field's range {rng:.3e}")

    w_r = _on_rays(s.c[:-1] * np.array([3.0, 2.0, 1.0])[:, None, None], *at)
    R_theta = -_on_rays(_d_theta(s.c), *at) / w_r
    z_theta = np.hypot(R, R_theta)          # |dz/dtheta|, R itself on a circle
    # |grad w| = w_r |z_theta| / R and the arc weight |dz/ds| = 2 pi |z_theta|
    nodes = (R, w_r * (z_theta / R), 2 * np.pi * z_theta)
    return LevelChart(g, t, *(np.broadcast_to(a, (Nt, g.Ns)) for a in nodes),
                      wmin, wmax, omega)


def _check_slope(s, floor, theta):
    """CriticalPointError if the slope of a column cubic of s falls below the
    floor anywhere on [r[0], r[-1]]: a column can increase from node to
    node while its cubic turns back between them.  The slope is quadratic
    on each interval, so its least value is at an end or at the vertex."""
    a, b, c = 3 * s.c[0], 2 * s.c[1], s.c[2]      # s' = (a x + b) x + c
    h = np.diff(s.x)[:, None]
    vertex = np.clip(np.divide(-b, 2 * a, out=np.zeros_like(a), where=a > 0), 0, h)
    slope = np.min([(a * x + b) * x + c for x in (0, vertex, h)], axis=(0, 1))
    k = int(np.argmin(slope))
    if slope[k] < floor:
        raise CriticalPointError(
            f"the slope along r on the ray at theta = {theta[k]:.6g} (column {k}) "
            f"falls to {slope[k]:.3e}, below the |grad| floor {floor:.3e}, "
            "between grid radii")


def _d_theta(c):
    """The theta-derivative, at the grid angles, of the trigonometric
    interpolant of values at those angles (last axis); zero for 1 column."""
    n = c.shape[-1]
    if n == 1:
        return np.zeros_like(c)
    ik = 1j * np.arange(n // 2 + 1)
    if n % 2 == 0:
        ik[-1] = 0.0                     # the Nyquist mode has no derivative
    return np.fft.irfft(ik * np.fft.rfft(c, axis=-1), n=n, axis=-1)


def _ray_pieces(knots, radii):
    """The piece of each radius among the knots along r, and its offset
    from the piece's start."""
    j = np.clip(np.searchsorted(knots, radii, side="right") - 1, 0, knots.size - 2)
    return j, radii - knots[j]


def _on_rays(c, j, x):
    """Piecewise polynomials along r with coefficients c (shape (k, n - 1, m),
    as a spline fitted along axis 0 to m columns has), each column's at
    its own pieces j and offsets x (shape (p, m), from _ray_pieces)."""
    return np.polyval(np.ascontiguousarray(c[:, j, np.arange(c.shape[2])]), x)


# ---------------------------------------------------------------------------
# loop integrals over level sets
# ---------------------------------------------------------------------------

def _loop_sum(chart: LevelChart, node_values):
    """Periodic trapezoid of a chart-node sampled integrand over s."""
    return node_values.sum(axis=1) * chart.ds


def chart_values(chart: LevelChart, u: Field2D):
    """u at the chart nodes: its not-a-knot cubic along each grid ray, at
    the node radii."""
    r = chart.grid.r
    return _on_rays(fit_cubic(r, u.values).c, *_ray_pieces(r, chart.r))


def j_functional(chart: LevelChart, u: Field2D) -> Curve1D:
    """J u (lambda) = loop integral of u over the level set at lambda."""
    vals = chart_values(chart, u) * chart.arc_weight
    return Curve1D(chart.omega_min, chart.omega_max, _loop_sum(chart, vals))


def j_over_grad(chart: LevelChart, u: Field2D) -> Curve1D:
    """J(u/|grad w|): the loop integral weighted by travel time."""
    vals = chart_values(chart, u) / chart.grad_norm * chart.arc_weight
    return Curve1D(chart.omega_min, chart.omega_max, _loop_sum(chart, vals))


def dist_chart(omega: Field2D) -> LevelChart:
    """The chart whose distribution dist_fn returns.  It takes at least 64
    rows: the travel-time integrand can vary by two orders of magnitude
    across levels."""
    return level_chart(omega, Nt=max(omega.grid.Nr, 64))


def dist_fn(omega: Field2D):
    """Distribution function A(lambda) = |{w < lambda}| and its inverse:
    the distribution of dist_chart(omega), with its inverse tabulated."""
    A = dist_chart(omega).distribution
    return A, A.inverse()


# ---------------------------------------------------------------------------
# pushforward along an area-preserving flow
# ---------------------------------------------------------------------------

def pushforward(omega: Field2D, alpha: Field2D, eps: float) -> Field2D:
    """Composition of w with the time-eps flow of the divergence-free field
    rot(alpha); alpha must be constant on each boundary circle so the flow
    is tangent to the boundary."""
    g = omega.grid
    if eps == 0.0:
        return g.field(omega.values.copy())
    aspl = FieldSpline(alpha)
    R, T = np.meshgrid(g.r, g.theta, indexing="ij")
    y0 = np.concatenate([R.ravel(), T.ravel()])
    n = R.size

    def rhs(_t, y):
        r = np.clip(y[:n], g.Ri, g.Ro)
        th = y[n:]
        ar, at = aspl.grad(r, th)
        return np.concatenate([-at / r, ar / r])

    sol = solve_ivp(rhs, (0.0, eps), y0, rtol=1e-10, atol=1e-11,
                    max_step=abs(eps) / 4)
    if not sol.success:
        raise TrajectoryExitError(f"flow integration failed: {sol.message}")
    r_end = sol.y[:n, -1]
    th_end = sol.y[n:, -1]
    cell = g.hr
    if (g.Ri - r_end).max() > cell or (r_end - g.Ro).max() > cell:
        raise TrajectoryExitError("a trajectory left the annulus by more "
                                  "than one cell")
    wspl = FieldSpline(omega)
    vals = wspl.val(np.clip(r_end, g.Ri, g.Ro), th_end).reshape(g.Nr, g.Ns)
    # boundary rings are flow-invariant: keep their exact values
    vals[0, :] = omega.values[0, :]
    vals[-1, :] = omega.values[-1, :]
    return g.field(vals)


# ---------------------------------------------------------------------------
# first and second derivatives of the inverse distribution function
# ---------------------------------------------------------------------------

def dq(omega: Field2D, chart: LevelChart, nu: Field2D) -> Curve1D:
    """First derivative of the inverse distribution function in the
    direction nu: the level mean of nu, transported to the area variable."""
    at_mu = chart.area_grid
    num = at_mu.resample(j_over_grad(chart, nu).values)
    return Curve1D(0.0, chart.grid.area,
                   num / at_mu.resample(chart.travel_time))


def d2q(omega: Field2D, chart: LevelChart, nu1: Field2D, nu2: Field2D) -> Curve1D:
    """Second derivative of the inverse distribution function: the
    four-term closed form built from loop integrals of div(nu N/|grad w|)."""
    g = omega.grid
    at_mu = chart.area_grid
    gr, gt = gradient(omega)
    gn = np.sqrt(gr.values**2 + gt.values**2)
    nr = g.field(gr.values / gn)
    nt = g.field(gt.values / gn)

    def div_term(weight_values):
        vr = g.field(weight_values / gn * nr.values)
        vt = g.field(weight_values / gn * nt.values)
        return divergence(vr, vt)

    w1 = div_term(nu1.values)
    w2 = div_term(nu2.values)
    w12 = div_term(nu1.values * nu2.values)
    w0 = div_term(np.ones_like(gn))

    def comp(u):
        return at_mu.resample(j_over_grad(chart, u).values)

    j1 = at_mu.resample(chart.travel_time)
    jn1, jn2, jw1, jw2, jw12, jw0 = (comp(u) for u in (nu1, nu2, w1, w2, w12, w0))
    vals = (jn1 * jw2 / j1**2 + jn2 * jw1 / j1**2
            - jw0 * jn1 * jn2 / j1**3 - jw12 / j1)
    return Curve1D(0.0, chart.grid.area, vals)


# ---------------------------------------------------------------------------
# orbit tangency
# ---------------------------------------------------------------------------

def tangency_defect(chart: LevelChart, nu: Field2D) -> Curve1D:
    """Loop integrals of nu/|grad w|; identically zero exactly when nu is
    tangent to the orbit (a bracket {w, alpha} for some stream alpha)."""
    return j_over_grad(chart, nu)


def tangent_tolerance(chart: LevelChart, nu: Field2D, rel=1e-6):
    return rel * max(np.abs(nu.values).max(), 1e-300) * chart.grid.area


def is_tangent(chart: LevelChart, nu: Field2D, rel=1e-6) -> bool:
    return tangency_defect(chart, nu).max_norm() < tangent_tolerance(chart, nu, rel)


def project_tangent(chart: LevelChart, nu: Field2D) -> Field2D:
    """Remove the level means of nu so the compatibility integrals vanish."""
    g = chart.grid
    mean_vals = j_over_grad(chart, nu).values / chart.travel_time
    spl = fit_cubic(chart.levels, mean_vals)
    return g.field(nu.values - spl(np.clip(chart.omega.values, chart.omega_min,
                                           chart.omega_max)))


def reconstruct_alpha(chart: LevelChart, nu: Field2D, tol_rel=1e-5) -> Field2D:
    """Solve {w, alpha} = nu for a stream function alpha by integrating
    nu/|grad w| along each level ring; alpha is normalized to zero
    arclength mean on every level (the additive function-of-w gauge)."""
    defect = tangency_defect(chart, nu)
    tol = tangent_tolerance(chart, nu, tol_rel)
    if defect.max_norm() > tol:
        raise NotTangentError(
            f"compatibility defect {defect.max_norm():.3e} exceeds {tol:.3e}",
            defect=defect.max_norm(), tol=tol)
    g = chart.grid
    integrand = chart_values(chart, nu) / chart.grad_norm * chart.arc_weight
    ds = chart.ds
    # cumulative trapezoid around each ring, starting at s = 0
    mid = 0.5 * (integrand + np.roll(integrand, -1, axis=1)) * ds
    alpha_chart = np.concatenate(
        [np.zeros((integrand.shape[0], 1)), np.cumsum(mid, axis=1)[:, :-1]],
        axis=1)
    ring_mean = (alpha_chart * chart.arc_weight).sum(axis=1) / chart.arc_weight.sum(axis=1)
    alpha_chart -= ring_mean[:, None]

    # the rows sit at the grid angles: interpolate them in t at each
    # node's own level coordinate
    tvals = (chart.omega.values - chart.omega_min) / (chart.omega_max - chart.omega_min)
    tvals = np.clip(tvals, 0.0, 1.0)
    col_spl = fit_cubic(chart.t, alpha_chart)
    out = np.empty((g.Nr, g.Ns))
    for k in range(g.Ns):
        out[:, k] = col_spl(tvals[:, k])[:, k]
    return g.field(out)


# ---------------------------------------------------------------------------
# energy second variation and the orbit-transversality check
# ---------------------------------------------------------------------------

def second_variation(state, alpha: Field2D) -> float:
    """Second derivative of the kinetic energy along the flow generated by
    alpha at a steady state: int |grad phi|^2 + int nu^2 / F'(psi) with
    nu = {w, alpha} and phi the zero-circulation stream function of nu."""
    fprime = state.F.d1(state.psi.values)
    if fprime.min() <= 0:
        raise NonpositiveFprimeError(
            f"F' must be positive on range(psi); min {fprime.min():.3e}")
    g = state.psi.grid
    nu = poisson_bracket(state.omega, alpha)
    phi = solve_poisson(nu, 0.0)
    gr, gt = gradient(phi)
    return integrate(gr * gr + gt * gt) + integrate(nu * nu / g.field(fprime))


def check_nd2(state):
    """Transversality of the steady-state family to the orbit foliation:
    smallest singular value of the assembled identity-plus-compact
    collocation matrix, against its greatest."""
    from . import moser

    moser.assemble_id_plus_k(state)
    sv = moser.workspace(state).singular_values
    return NdReport(float(sv[-1]), float(sv[0]))
