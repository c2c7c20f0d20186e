"""Level-set geometry of boundary-constant fields without critical points:
gradient-curve charts, loop integrals over level sets, distribution
functions and their first two derivatives, area-preserving pushforward,
and the tangency calculus of co-adjoint orbits.

The chart z(t,s) puts row t on the level set w = min w + t*(max w - min w).
The levels of a field constant in theta are circles: their radii are the
roots of the field's cubic along r by curves.solve_increasing, and their
nodes sit at the grid's angles, with arc weight 2 pi r.  A field that
varies in theta follows the gradient flow dz/dt = range * grad(w)/|grad w|^2
from seeds on the inner circle, and a Newton and a chord step project its
nodes onto their levels.  All level-set quantities are periodic trapezoid
sums over s, with field values interpolated bicubically; on circle levels,
the loop integral of a theta-constant field is its value times the travel
time.  A chart's distribution is A alone, which the same root finder
inverts pointwise; dist_fn returns A with a tabulated inverse.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np
from scipy.integrate import solve_ivp
from scipy.interpolate import CubicSpline, RectBivariateSpline, make_interp_spline

from .curves import Curve1D, Monotone1D, solve_increasing
from .elliptic import NdReport, solve_poisson, theta_constant
from .errors import (AreaMismatchError, CriticalPointError, NotInFplusError,
                     NotTangentError, NonpositiveFprimeError, TrajectoryExitError)
from .grid import Field2D, divergence, gradient, integrate, poisson_bracket

CHART_TOL = 1e-10
# the integration only has to land each node within reach of the Newton
# projection onto its level; the projection sets the chart's accuracy
CHART_RTOL = 1e-7
CHART_ATOL = 1e-10
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
        # the radii, not the grid: level_chart's integrand keeps this spline
        # in solve_ivp's reference cycle, which must not hold the grid
        self._radii = (g.Ri, g.Ro)

    def _wrap(self, r, theta):
        return np.clip(r, *self._radii), np.mod(theta, 2 * np.pi)

    def val(self, r, theta):
        r, theta = self._wrap(r, theta)
        return self._spl.ev(r, theta)

    def val_grid(self, r, theta):
        """Values on the tensor grid of increasing r and of theta in
        [0, 2pi), shape (r.size, theta.size): the values of val there,
        bit for bit, at a fraction of its cost."""
        r, theta = self._wrap(r, theta)
        return self._spl(r, theta, grid=True)

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
        return CubicSpline(self.levels, level_values)(self.lam_mu)


@dataclass(frozen=True, eq=False)
class LevelChart:
    """Gradient-curve coordinates: row t is the level set at
    min w + t*(max w - min w); row 0 on the inner circle, row 1 on the
    outer one.  The chart owns the level-set data built from it, each on
    first use: the travel time, the distribution and the area grid."""

    grid: object
    t: np.ndarray                 # (Nt,)
    r: np.ndarray                 # (Nt, Ns) radial positions
    theta: np.ndarray             # (Nt, Ns) unwrapped angular positions
    grad_norm: np.ndarray         # |grad w| at chart nodes
    arc_weight: np.ndarray        # |dz/ds| at chart nodes
    omega_min: float
    omega_max: float
    spline: FieldSpline = field(repr=False)

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

    def residual(self):
        """Largest miss of an interior node from its level.  The boundary
        rows lie on the circles, whose spread _boundary_levels bounds.
        Nodes on circles at the grid's angles form a tensor grid, which
        is evaluated as one."""
        r, theta = self.r[1:-1], self.theta[1:-1]
        if self.on_circles and (theta == self.grid.theta).all():
            vals = self.spline.val_grid(r[:, 0], self.grid.theta)
        else:
            vals = self.spline.val(r, theta)
        return float(np.abs(vals - self.levels[1:-1, None]).max())

    @cached_property
    def travel_time(self):
        """A'(lambda) = loop integral of 1/|grad w| on each chart level."""
        return _loop_sum(self, self.arc_weight / self.grad_norm)

    @cached_property
    def distribution(self) -> Monotone1D:
        """A(lambda) = |{w < lambda}| on the chart levels, inverted pointwise
        by A.eval_inverse.  A is the cumulative integral of the travel time;
        the raw endpoint is renormalized onto the exact annulus area and the
        relative miss kept as A.area_discrepancy (error if it exceeds
        AREA_TOL_REL, which signals an under-resolved chart)."""
        lam = self.levels
        raw = CubicSpline(lam, self.travel_time).antiderivative()(lam)
        total = self.grid.area
        disc = (raw[-1] - total) / total
        if abs(disc) > AREA_TOL_REL:
            raise AreaMismatchError(
                f"raw area misses |domain| by {disc:.2%}", discrepancy=disc)
        A = Monotone1D(self.omega_min, self.omega_max, raw * (total / raw[-1]))
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
    (inner value below outer value), its interior nodes on their levels.

    A field constant in theta (``elliptic.theta_constant`` with the range
    as the scale) has circles for levels: _circle_radii finds their radii
    along r, with no ODE, and the nodes sit at the grid's angles.  Any
    other field integrates the gradient flow from every grid angle on the
    inner circle, then projects its interior nodes onto their levels.  The
    level residual is checked on every interior node."""
    g = omega.grid
    Nt = g.Nr if Nt is None else int(Nt)
    wmin, wmax = _boundary_levels(omega)
    rng = wmax - wmin
    floor = GRAD_FLOOR_REL * rng

    gr, gt = gradient(omega)
    gn_grid = np.sqrt(gr.values**2 + gt.values**2)
    if gn_grid.min() < floor:
        raise CriticalPointError(
            f"|grad| {gn_grid.min():.3e} below floor {floor:.3e} on the grid")

    spl = FieldSpline(omega)
    t = np.linspace(0.0, 1.0, Nt)
    levels = wmin + t * rng
    if theta_constant(omega.values, rng):
        radii = _circle_radii(g.r, omega.values[:, 0], levels, floor)
        wr, wt = spl.grad(radii, g.theta[0])
        gn = np.repeat(np.sqrt(wr**2 + (wt / radii) ** 2)[:, None], g.Ns, axis=1)
        r = np.repeat(radii[:, None], g.Ns, axis=1)
        theta = np.tile(g.theta, (Nt, 1))
        arc = 2 * np.pi * r
    else:
        r, theta = _trajectory_nodes(spl, g, t, wmin, rng)
        wr, wt = spl.grad(r, theta)
        gn = np.sqrt(wr**2 + (wt / r) ** 2)
        ds = 1.0 / g.Ns
        dr_ds = (np.roll(r, -1, axis=1) - np.roll(r, 1, axis=1)) / (2 * ds)
        dth = np.roll(theta, -1, axis=1) - np.roll(theta, 1, axis=1)
        dth_ds = (np.mod(dth + np.pi, 2 * np.pi) - np.pi) / (2 * ds)
        arc = np.sqrt(dr_ds**2 + (r * dth_ds) ** 2)

    chart = LevelChart(g, t, r, theta, gn, arc, wmin, wmax, spl)
    res = chart.residual()
    if res > CHART_TOL * rng:
        raise CriticalPointError(f"chart level residual {res:.3e} exceeds "
                                 f"{CHART_TOL:.1e} of the field's range {rng:.3e}")
    if gn.min() <= 0:
        raise CriticalPointError("vanishing gradient at a chart node")
    return chart


def _circle_radii(r, column, levels, floor):
    """The radius of each level of a theta-constant field, given its values
    along r: ``r[0]`` and ``r[-1]`` for the boundary levels, and for the
    others the root of s(x) = level, s the not-a-knot cubic interpolant of
    the column, which is FieldSpline's along r.  CriticalPointError if s'
    falls below the floor anywhere on [r[0], r[-1]]: a column can increase
    from node to node while its interpolant turns back between them.

    s increases, so curves.solve_increasing finds each root between the
    grid radii whose values bracket its level, to 4 ulp of max|column|."""
    s = CubicSpline(r, column)
    a, b, c = 3 * s.c[0], 2 * s.c[1], s.c[2]      # s' = (a x + b) x + c
    h = np.diff(r)
    vertex = np.clip(np.divide(-b, 2 * a, out=np.zeros_like(a), where=a > 0), 0, h)
    slope = min(((a * x + b) * x + c).min() for x in (0, vertex, h))
    if slope < floor:
        raise CriticalPointError(f"the slope along r falls to {slope:.3e}, below "
                                 f"the |grad| floor {floor:.3e}, between grid radii")

    rounding = 4 * np.finfo(float).eps * np.abs(column).max()
    return np.concatenate([r[:1], solve_increasing(s, levels[1:-1], rounding), r[-1:]])


def _trajectory_nodes(spl: FieldSpline, g, t_eval, wmin, rng):
    """(r, theta) of the chart of a field that varies in theta: RK45 along
    the gradient flow from every grid angle on the inner circle, each
    interior node then projected onto its level."""
    n = g.Ns
    floor = GRAD_FLOOR_REL * rng

    def rhs(_t, y):
        r = y[:n]
        th = y[n:]
        wr, wt = spl.grad(r, th)
        gradsq = wr**2 + (wt / r) ** 2
        if gradsq.min() < floor**2:
            raise CriticalPointError(
                f"|grad| fell below {floor:.3e} along a trajectory")
        return np.concatenate([rng * wr / gradsq, rng * wt / (r**2 * gradsq)])

    y0 = np.concatenate([np.full(n, g.Ri), g.theta])
    sol = solve_ivp(rhs, (0.0, 1.0), y0, t_eval=t_eval, rtol=CHART_RTOL,
                    atol=CHART_ATOL, max_step=0.1, dense_output=False)
    if not sol.success:
        raise CriticalPointError(f"chart integration failed: {sol.message}")
    r = sol.y[:n, :].T.copy()               # (Nt, Ns)
    theta = sol.y[n:, :].T.copy()
    overshoot = max(float((g.Ri - r).max()), float((r - g.Ro).max()))
    if overshoot > g.hr:
        raise TrajectoryExitError(f"chart left the annulus by {overshoot:.3e}")
    r = np.clip(r, g.Ri, g.Ro)
    # A Newton step along the gradient, then a chord step that reuses its
    # gradient, put each interior node on its level.  The first leaves a
    # residual quadratic in the integration's miss, up to 1e-10 where
    # |grad w| is small on coarse grids; the second leaves about 1e-14.
    # The boundary rows lie on the circles, where w is constant.
    ri, ti = r[1:-1], theta[1:-1]
    wr, wt = spl.grad(ri, ti)
    gradsq = wr**2 + (wt / ri) ** 2
    along_r, along_theta = wr / gradsq, wt / (ri**2 * gradsq)
    target = wmin + t_eval[1:-1, None] * rng
    for _ in range(2):
        miss = target - spl.val(r[1:-1], theta[1:-1])
        r[1:-1] = np.clip(r[1:-1] + miss * along_r, g.Ri, g.Ro)
        theta[1:-1] += miss * along_theta
    r[0, :] = g.Ri
    r[-1, :] = g.Ro
    return r, theta


# ---------------------------------------------------------------------------
# loop integrals over level sets
# ---------------------------------------------------------------------------

def _loop_sum(chart: LevelChart, node_values):
    """Periodic trapezoid of a chart-node sampled integrand over s."""
    return node_values.sum(axis=1) * chart.ds


def chart_values(chart: LevelChart, u: Field2D):
    return FieldSpline(u).val(chart.r, chart.theta)


def j_functional(chart: LevelChart, u: Field2D) -> Curve1D:
    """J u (lambda) = loop integral of u over the level set at lambda."""
    vals = chart_values(chart, u) * chart.arc_weight
    return Curve1D(chart.omega_min, chart.omega_max, _loop_sum(chart, vals))


def j_over_grad(chart: LevelChart, u: Field2D) -> Curve1D:
    """J(u/|grad w|): the loop integral weighted by travel time."""
    vals = chart_values(chart, u) / chart.grad_norm * chart.arc_weight
    return Curve1D(chart.omega_min, chart.omega_max, _loop_sum(chart, vals))


def j_over_grad_radial(chart: LevelChart):
    """j_over_grad of the fields that do not vary in theta, as an (Nt, Nr)
    matrix acting on their values along r, for a chart whose levels are
    circles (ValueError otherwise): the chart of a theta-constant field.

    FieldSpline interpolates such a field by its not-a-knot cubic along r,
    constant in theta, so on a circle the loop integral of u/|grad w| is
    u there times the travel time."""
    if not chart.on_circles:
        raise ValueError("the chart's levels are not circles")
    cardinal = make_interp_spline(chart.grid.r, np.eye(chart.grid.Nr), k=3)
    return chart.travel_time[:, None] * cardinal(chart.r[:, 0])


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
    spl = CubicSpline(chart.levels, mean_vals)
    R, T = np.meshgrid(g.r, g.theta, indexing="ij")
    omega_vals = chart.spline.val(R, T)
    return g.field(nu.values - spl(np.clip(omega_vals, chart.omega_min,
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

    # resample ring values onto the uniform angular grid
    Nt = chart.t.size
    alpha_rows = np.empty((Nt, g.Ns))
    for i in range(Nt):
        th = np.mod(chart.theta[i], 2 * np.pi)
        order = np.argsort(th)
        th_s = th[order]
        va_s = alpha_chart[i, order]
        th_ext = np.concatenate([th_s[-_PAD:] - 2 * np.pi, th_s,
                                 th_s[:_PAD] + 2 * np.pi])
        va_ext = np.concatenate([va_s[-_PAD:], va_s, va_s[:_PAD]])
        alpha_rows[i] = CubicSpline(th_ext, va_ext)(g.theta)

    # interpolate rows in t at each node's own level coordinate
    R, T = np.meshgrid(g.r, g.theta, indexing="ij")
    tvals = (chart.spline.val(R, T) - chart.omega_min) / (chart.omega_max - chart.omega_min)
    tvals = np.clip(tvals, 0.0, 1.0)
    col_spl = CubicSpline(chart.t, alpha_rows, axis=0)
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
