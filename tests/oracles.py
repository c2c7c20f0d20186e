"""Independent oracles used by the test suite.

Each oracle deliberately avoids the code path it checks: the sparse LU
of an assembled bordered matrix checks the factor-free solves and the
mode-block singular values, Id + K assembled on every grid node (E at
each psi node, that LU, and the bicubic interpolant of each solution on
the circles of the area grid) checks its closed form along r, the
eigenvalues of every theta-mode block
check the principal eigenvalue's reduction to modes 0 and 1, the radial
steady oracle is a 1D two-point BVP solve, the sublevel-area oracle is
a per-cell linear-cut area count on a refined cell-centered grid, the
chart residual evaluates the charted field's cubic along each ray with
scipy, one ray at a time, and the brute-force Hoelder norm
enumerates all node pairs directly.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg as la
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.integrate import solve_bvp
from scipy.interpolate import CubicSpline, RectBivariateSpline

from annuflow.elliptic import _mode_blocks, _stencil
from annuflow.grid import AnnulusGrid, Field2D, circulation_row
from annuflow.moser import _vb_compose, workspace
from annuflow.orbit import N_MU, FieldSpline


def _interior_laplacian(grid: AnnulusGrid, c):
    """(rows, cols, vals) triples of the 5-point polar Laplacian plus c on
    the interior rows (c: scalar or interior values, shape (Nr-2, Ns));
    the angular neighbours wrap around theta."""
    Nr, Ns = grid.Nr, grid.Ns
    j = np.arange(1, Nr - 1)[:, None]
    k = np.arange(Ns)
    row = j * Ns + k
    c_rr, c_r, c_tt = _stencil(grid)
    return [(row, row + Ns, c_rr + c_r), (row, row - Ns, c_rr - c_r),
            (row, j * Ns + (k + 1) % Ns, c_tt), (row, j * Ns + (k - 1) % Ns, c_tt),
            (row, row, -2 * c_rr - 2 * c_tt + c)]


def _csc(entries, n):
    """n x n CSC matrix from (rows, cols, vals) triples of broadcastable
    shapes."""
    rows, cols, vals = (np.concatenate([a.ravel() for a in part]) for part in
                        zip(*(np.broadcast_arrays(*e) for e in entries)))
    return sp.csc_matrix(sp.coo_matrix((vals, (rows, cols)), shape=(n, n)))


def factor(A):
    """Sparse LU of a bordered matrix: a minimum-degree ordering of
    A^T + A and static diagonal pivots, which the structurally symmetric
    stencil makes usable (of order 1/h^2 inside, 1 on the tie rows);
    together they halve the fill of the default.  SuperLU still pivots
    off the diagonal where it is exactly zero (the circulation row), and
    an exactly singular matrix raises RuntimeError."""
    return spla.splu(A, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0)


@dataclass(frozen=True, eq=False)
class BorderedSystem:
    """Discrete Delta + c with the zero outer trace and the circulation
    row, bordered by the unknown inner-boundary constant, and its sparse
    LU.  It holds no reference to its grid."""

    matrix: object            # csc
    lu: object

    @property
    def n_unknowns(self):
        return self.matrix.shape[0]


def bordered_matrix(grid: AnnulusGrid, c: Field2D):
    """Rows: Laplacian + c inside, identity on the outer circle, inner
    trace minus the scalar unknown (last column), circulation last; the
    unknowns are the grid values in row-major order, then the inner
    constant."""
    Nr, Ns = grid.Nr, grid.Ns
    n = Nr * Ns
    outer = np.arange(n - Ns, n)
    inner = np.arange(Ns)
    crow = circulation_row(grid).ravel()
    ccols = np.flatnonzero(crow)
    return _csc(_interior_laplacian(grid, c.values[1:-1])
                + [(outer, outer, 1.0),
                   (inner, inner, 1.0),
                   (inner, n, -1.0),
                   (n, ccols, crow[ccols])], n + 1)


def bordered_system(grid: AnnulusGrid, c: Field2D) -> BorderedSystem:
    A = bordered_matrix(grid, c)
    return BorderedSystem(A, factor(A))


def factored_linearization(state):
    """Sparse LU of a state's bordered Delta - F'(psi)."""
    g = state.psi.grid
    return bordered_system(g, g.field(-state.F.d1(state.psi.values)))


def bordered_rhs(n_unknowns, values, circulation):
    """Right-hand side of the bordered system: values (shape (Nr, Ns) or
    (Nr, Ns, m)) on the interior rows, zero on the tie rows of both
    circles, and the circulation in the last row."""
    Nr, Ns = values.shape[:2]
    stack = values.shape[2:]
    rhs = np.zeros((n_unknowns,) + stack)
    rhs[:-1] = values.reshape((-1,) + stack)
    rhs[:Ns] = 0.0                             # inner tie rows
    rhs[(Nr - 1) * Ns: Nr * Ns] = 0.0
    rhs[-1] = circulation
    return rhs


def lu_solve(system, k):
    """phi with A phi = k under the zero-circulation conditions, by the LU
    of a bordered system; k of shape (Nr, Ns) or (Nr, Ns, m)."""
    return system.lu.solve(bordered_rhs(system.n_unknowns, k, 0.0))[:-1].reshape(k.shape)


def chart_residual(chart):
    """Largest miss of a chart's interior node from its level on the
    not-a-knot cubic of the charted field along the node's grid ray.  The
    boundary rows lie on the circles."""
    r = chart.grid.r
    vals = np.stack([CubicSpline(r, column)(radii) for column, radii
                     in zip(chart.omega.values.T, chart.r[1:-1].T)], axis=1)
    return float(np.abs(vals - chart.levels[1:-1, None]).max())


def grid_id_plus_k(state):
    """Id + K of a state on every grid node: E composes the cardinal
    splines of the mu grid with VB at each psi node, A^-1 is the LU of the
    bordered linearization on all N_MU columns, and each solution is read
    from its bicubic FieldSpline at (r_mu, theta) on every grid angle.  On
    the circle r_mu, whose inside has area mu, K's loop integral over the
    travel time is that mean over theta, times F'(lam_mu)."""
    g = state.psi.grid
    ws = workspace(state)
    mu = np.linspace(0.0, g.area, N_MU)
    cardinal = CubicSpline(mu, np.eye(N_MU))
    E = _vb_compose(cardinal, cardinal.derivative(), ws, state.psi.values)
    phi = lu_solve(factored_linearization(state), E)
    r_mu, theta = np.meshgrid(np.sqrt(g.Ri**2 + mu / np.pi), g.theta, indexing="ij")
    J = np.stack([FieldSpline(g.field(phi[..., i])).val(r_mu, theta).mean(axis=1)
                  for i in range(N_MU)], axis=1)
    return np.eye(N_MU) + state.F.d1(ws.lam_mu)[:, None] * J


def all_mode_eigenvalue(grid: AnnulusGrid):
    """Least positive lam with A x = -lam E x, A the bordered matrix of
    Delta and E the identity on the interior rows: the dense generalized
    eigenvalues of every theta-mode block, tie rows included."""
    Nr = grid.Nr
    mode0, blocks = _mode_blocks(grid, 0.0, grid.Ns // 2 + 1)
    mass = np.diag(np.r_[0.0, np.full(Nr - 2, -1.0), 0.0, 0.0])
    lam = np.concatenate([la.eigvals(mode0, mass)]
                         + [la.eigvals(b, mass[:Nr, :Nr]) for b in blocks])
    lam = lam[np.isfinite(lam)]
    real = lam[np.abs(lam.imag) < 1e-8 * np.abs(lam)].real
    return real[real > 0].min()


def radial_steady(F, gamma, Ri=1.0, Ro=2.0, n=4001):
    """Solve psi'' + psi'/r = F(psi), psi(Ro)=0, psi'(Ri) = -gamma/(2 pi Ri).

    Returns a callable psi(r) (dense cubic output of solve_bvp).
    """
    slope_inner = -gamma / (2 * np.pi * Ri)

    def rhs(r, y):
        return np.vstack([y[1], F(y[0]) - y[1] / r])

    def bc(ya, yb):
        return np.array([ya[1] - slope_inner, yb[0]])

    r = np.linspace(Ri, Ro, n)
    y0 = np.vstack([slope_inner * Ri * np.log(r / Ro), slope_inner * Ri / r])
    sol = solve_bvp(rhs, bc, r, y0, tol=1e-10, max_nodes=200000)
    assert sol.success, sol.message
    return lambda rr: sol.sol(rr)[0]


def radial_linearized(Fprime_of_r, source_of_r, Ri=1.0, Ro=2.0, n=4001):
    """Solve phi'' + phi'/r - Fprime(r) phi = source(r), phi(Ro)=0,
    phi'(Ri)=0 (zero circulation for a radial field)."""

    def rhs(r, y):
        return np.vstack([y[1], source_of_r(r) + Fprime_of_r(r) * y[0] - y[1] / r])

    def bc(ya, yb):
        return np.array([ya[1], yb[0]])

    r = np.linspace(Ri, Ro, n)
    y0 = np.zeros((2, n))
    sol = solve_bvp(rhs, bc, r, y0, tol=1e-10, max_nodes=200000)
    assert sol.success, sol.message
    return lambda rr: sol.sol(rr)[0]


def _rect_cdf(u, p, q):
    """P(X+Y <= u) for X~U(-p,p), Y~U(-q,q), vectorized; degenerate widths
    fall back to the 1D uniform / step CDF."""
    a = np.maximum(p, q)
    b = np.minimum(p, q)
    out = np.empty_like(u)
    full = u >= a + b
    empty = u <= -(a + b)
    out[full] = 1.0
    out[empty] = 0.0
    mid = ~(full | empty)
    am, bm, um = a[mid], b[mid], u[mid]
    val = np.empty_like(um)
    deg = bm < 1e-300
    # degenerate: single uniform (or a step at 0 when both widths vanish)
    with np.errstate(divide="ignore", invalid="ignore"):
        v1 = np.clip((um + am) / (2 * am), 0.0, 1.0)
    v1[am < 1e-300] = (um[am < 1e-300] > 0).astype(float)
    lo_ramp = um <= -(am - bm)
    hi_ramp = um >= (am - bm)
    plateau = ~(lo_ramp | hi_ramp)
    with np.errstate(divide="ignore", invalid="ignore"):
        val[lo_ramp] = (um[lo_ramp] + am[lo_ramp] + bm[lo_ramp]) ** 2 / (8 * am[lo_ramp] * bm[lo_ramp])
        val[hi_ramp] = 1.0 - (am[hi_ramp] + bm[hi_ramp] - um[hi_ramp]) ** 2 / (8 * am[hi_ramp] * bm[hi_ramp])
        val[plateau] = (um[plateau] + am[plateau]) / (2 * am[plateau])
    val[deg] = v1[deg]
    out[mid] = val
    return out


def sublevel_area(field, lam, refine=4):
    """Area of {omega < lam} by per-cell linear cuts on a refined
    cell-centered polar grid; second-order accurate."""
    g = field.grid
    # periodic extension in theta for the spline
    pad = 3
    theta_ext = np.concatenate([g.theta[-pad:] - 2 * np.pi, g.theta,
                                g.theta[:pad] + 2 * np.pi])
    vals_ext = np.concatenate([field.values[:, -pad:], field.values,
                               field.values[:, :pad]], axis=1)
    spl = RectBivariateSpline(g.r, theta_ext, vals_ext, kx=3, ky=3)

    M = refine * (g.Nr - 1)
    P = refine * g.Ns
    hr = (g.Ro - g.Ri) / M
    ht = 2 * np.pi / P
    rc = g.Ri + (np.arange(M) + 0.5) * hr
    tc = (np.arange(P) + 0.5) * ht
    R, T = np.meshgrid(rc, tc, indexing="ij")
    w = spl(rc, tc)
    wr = spl(rc, tc, dx=1)
    wt = spl(rc, tc, dy=1)
    p = np.abs(wr) * hr / 2
    q = np.abs(wt) * ht / 2          # |(1/r) w_theta| * (r ht) / 2
    frac = _rect_cdf(np.asarray(lam, dtype=float) - w, p, q)
    cell_area = R * hr * ht
    return float(np.sum(frac * cell_area))


def brute_holder_1d(x, v, n, alpha):
    """Direct Hoelder norm of samples v(x): FD derivatives, all pairs."""
    sup = 0.0
    semi = 0.0
    vj = v.copy()
    for j in range(n + 1):
        sup = max(sup, np.abs(vj).max())
        diff = np.abs(vj[:, None] - vj[None, :])
        dist = np.abs(x[:, None] - x[None, :])
        mask = dist > 0
        semi += (diff[mask] / dist[mask] ** alpha).max()
        vj = np.gradient(vj, x)
    return sup + semi
