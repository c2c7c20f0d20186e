"""Independent oracles used by the test suite.

Each oracle deliberately avoids the code path it checks: the sparse LU
of a bordered matrix checks the factor-free solves, the radial steady
oracle is a 1D two-point BVP solve, the sublevel-area oracle is a
per-cell linear-cut area count on a refined cell-centered grid, and the
brute-force Hoelder norm enumerates all node pairs directly.
"""

import numpy as np
from scipy.integrate import solve_bvp
from scipy.interpolate import RectBivariateSpline

from annuflow.elliptic import _bordered_rhs, bordered_system


def factored_linearization(state):
    """Sparse LU of a state's bordered Delta - F'(psi), built as check_nd1
    builds it."""
    g = state.psi.grid
    return bordered_system(g, g.field(-state.F.d1(state.psi.values)))


def lu_solve(system, k):
    """phi with A phi = k under the zero-circulation conditions, by the LU
    of a bordered system; k of shape (Nr, Ns) or (Nr, Ns, m)."""
    return system.lu.solve(_bordered_rhs(system.n_unknowns, k, 0.0))[:-1].reshape(k.shape)


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
