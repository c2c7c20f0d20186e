"""Polar annulus grid, scalar fields, and discrete calculus.

The domain is the annulus Ri <= r <= Ro with nodes (r_j, theta_k),
r uniform on [Ri, Ro] (both boundaries are node rows) and theta uniform
periodic on [0, 2*pi).  All differential operators are second order:
central stencils inside, one-sided at the radial boundaries.  The
quadrature is a trapezoid rule in r (with a small moment correction that
makes it exact for radial polynomials up to degree 5) times the periodic
rectangle rule in theta.  A grid holds its nodes and weights only: the
solvers of ``elliptic`` are built by the call that uses them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidGeometryError


@dataclass(frozen=True, eq=False)
class AnnulusGrid:
    Ri: float
    Ro: float
    Nr: int
    Ns: int
    r: np.ndarray = field(repr=False)
    theta: np.ndarray = field(repr=False)
    hr: float
    htheta: float
    area_weights: np.ndarray = field(repr=False)

    @property
    def area(self):
        return np.pi * (self.Ro**2 - self.Ri**2)

    @property
    def h(self):
        """Resolution scale used in O(h^2) tolerances."""
        return max(self.hr, self.Ri * self.htheta)

    def field(self, values):
        values = np.asarray(values, dtype=float)
        if values.shape != (self.Nr, self.Ns):
            raise InvalidGeometryError(
                f"field shape {values.shape} != grid shape {(self.Nr, self.Ns)}"
            )
        return Field2D(self, values)

    def field_from(self, fn):
        """Sample fn(r, theta) on the grid (fn must broadcast)."""
        R, T = np.meshgrid(self.r, self.theta, indexing="ij")
        return self.field(np.broadcast_to(fn(R, T), (self.Nr, self.Ns)).copy())

    def constant(self, c):
        return self.field(np.full((self.Nr, self.Ns), float(c)))


def make_annulus(Ri, Ro, Nr, Ns):
    """Build the grid; Ns must be even, both counts at least 8."""
    if not (0 < Ri < Ro):
        raise InvalidGeometryError(f"need 0 < Ri < Ro, got Ri={Ri}, Ro={Ro}")
    if Nr < 8 or Ns < 8:
        raise InvalidGeometryError(f"need Nr >= 8 and Ns >= 8, got {Nr}, {Ns}")
    if Ns % 2 != 0:
        raise InvalidGeometryError(f"Ns must be even, got {Ns}")
    r = np.linspace(Ri, Ro, Nr)
    hr = r[1] - r[0]
    htheta = 2 * np.pi / Ns
    theta = np.arange(Ns) * htheta

    # Radial weights: Gregory end-corrected trapezoid (4th order) for
    # g(r) = f(r)*r, then a minimum-norm correction enforcing exactness
    # on f = r^k, k = 0..5.
    ends = np.ones(Nr)
    ends[[0, -1]] = 3.0 / 8.0
    ends[[1, -2]] = 7.0 / 6.0
    ends[[2, -3]] = 23.0 / 24.0
    base = hr * ends * r
    P = np.vstack([r**k for k in range(6)])
    exact = np.array([(Ro ** (k + 2) - Ri ** (k + 2)) / (k + 2) for k in range(6)])
    delta = P.T @ np.linalg.solve(P @ P.T, exact - P @ base)
    wr = base + delta
    weights = np.outer(wr, np.full(Ns, htheta))
    return AnnulusGrid(float(Ri), float(Ro), int(Nr), int(Ns), r, theta,
                       hr, htheta, weights)


@dataclass(frozen=True, eq=False)
class Field2D:
    grid: AnnulusGrid
    values: np.ndarray

    def __post_init__(self):
        if not np.all(np.isfinite(self.values)):
            raise InvalidGeometryError("field contains non-finite values")

    def __add__(self, other):
        return Field2D(self.grid, self.values + _vals(other))

    def __sub__(self, other):
        return Field2D(self.grid, self.values - _vals(other))

    def __mul__(self, other):
        return Field2D(self.grid, self.values * _vals(other))

    __rmul__ = __mul__

    def __truediv__(self, other):
        return Field2D(self.grid, self.values / _vals(other))

    def __neg__(self):
        return Field2D(self.grid, -self.values)

    def max_norm(self):
        return float(np.abs(self.values).max())


def _vals(x):
    return x.values if isinstance(x, Field2D) else x


# ---------------------------------------------------------------------------
# differential operators
# ---------------------------------------------------------------------------

def _d_r(values, hr):
    """Radial derivative: central inside, one-sided second order at ends."""
    out = np.empty_like(values)
    out[1:-1] = (values[2:] - values[:-2]) / (2 * hr)
    out[0] = (-3 * values[0] + 4 * values[1] - values[2]) / (2 * hr)
    out[-1] = (3 * values[-1] - 4 * values[-2] + values[-3]) / (2 * hr)
    return out


def _d_theta(values, htheta):
    """Periodic central angular derivative (4th order; the angular
    direction is smooth and periodic, so the wide stencil is free)."""
    return (-np.roll(values, -2, axis=1) + 8 * np.roll(values, -1, axis=1)
            - 8 * np.roll(values, 1, axis=1) + np.roll(values, 2, axis=1)) \
        / (12 * htheta)


def _d2_r(values, hr):
    out = np.empty_like(values)
    out[1:-1] = (values[2:] - 2 * values[1:-1] + values[:-2]) / hr**2
    # one-sided 4-point second derivative, second order (exact on cubics)
    out[0] = (2 * values[0] - 5 * values[1] + 4 * values[2] - values[3]) / hr**2
    out[-1] = (2 * values[-1] - 5 * values[-2] + 4 * values[-3] - values[-4]) / hr**2
    return out


def _d2_theta(values, htheta):
    return (np.roll(values, -1, axis=1) - 2 * values + np.roll(values, 1, axis=1)) / htheta**2


def gradient(f: Field2D):
    """Polar gradient components (df/dr, (1/r) df/dtheta)."""
    g = f.grid
    fr = _d_r(f.values, g.hr)
    ft = _d_theta(f.values, g.htheta) / g.r[:, None]
    return Field2D(g, fr), Field2D(g, ft)


def laplacian(f: Field2D) -> Field2D:
    g = f.grid
    v = f.values
    out = _d2_r(v, g.hr) + _d_r(v, g.hr) / g.r[:, None] + _d2_theta(v, g.htheta) / g.r[:, None] ** 2
    return Field2D(g, out)


def divergence(vr: Field2D, vtheta: Field2D) -> Field2D:
    """div V = (1/r) d(r Vr)/dr + (1/r) dVtheta/dtheta."""
    g = vr.grid
    rvr = g.r[:, None] * vr.values
    out = _d_r(rvr, g.hr) / g.r[:, None] + _d_theta(vtheta.values, g.htheta) / g.r[:, None]
    return Field2D(g, out)


def poisson_bracket(f: Field2D, g: Field2D) -> Field2D:
    """{f,g} = (1/r)(f_r g_theta - f_theta g_r); antisymmetric node-wise."""
    gr = f.grid
    fr, ft = gradient(f)
    gr_, gt = gradient(g)
    return Field2D(gr, fr.values * gt.values - ft.values * gr_.values)


# 5th-order one-sided radial derivative weights used by the circulation
# functional (the 2nd-order stencil is too crude for boundary flux).
_EDGE6 = np.array([-137.0 / 60.0, 5.0, -5.0, 10.0 / 3.0, -5.0 / 4.0, 1.0 / 5.0])


def circulation_row(grid: AnnulusGrid):
    """Coefficients c[j,k] with circulation(psi) = sum c * psi.values.

    The normal is the outward normal of the annulus on the inner circle,
    -e_r.
    """
    c = np.zeros((grid.Nr, grid.Ns))
    c[:6, :] = -(grid.Ri * grid.htheta / grid.hr) * _EDGE6[:, None]
    return c


def circulation(psi: Field2D) -> float:
    """Line integral of d(psi)/dN over the inner circle."""
    return float(np.sum(circulation_row(psi.grid) * psi.values))


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------

def integrate(f: Field2D) -> float:
    return float(np.sum(f.grid.area_weights * f.values))


# ---------------------------------------------------------------------------
# graded (Hoelder) norms
# ---------------------------------------------------------------------------

def _field_derivative_stack(f: Field2D, order):
    """List of arrays: all components of the j-th polar gradient power."""
    stacks = [[f.values]]
    for _ in range(order):
        comps = []
        for v in stacks[-1]:
            a, b = gradient(Field2D(f.grid, v))
            comps.extend([a.values, b.values])
        stacks.append(comps)
    return stacks


def _pair_seminorm(points, values, alpha):
    """max over point pairs of |v(x)-v(y)| / |x-y|^alpha.

    points: (n, d) positions; values: (n, m) stacked components.
    """
    diff = values[:, None, :] - values[None, :, :]
    num = np.sqrt((diff**2).sum(axis=2))
    dist = np.sqrt(((points[:, None, :] - points[None, :, :]) ** 2).sum(axis=2))
    mask = dist > 0
    if not mask.any():
        return 0.0
    return float((num[mask] / dist[mask] ** alpha).max())


_HOLDER_NODES = np.s_[::4, ::4]


def holder_norm(f, n=0, alpha=0.5):
    """Discrete Hoelder norm: sup norms of derivatives up to order n plus
    the alpha-seminorm of each derivative level.

    2D fields use the pairs of every 4th node in r and theta
    (_HOLDER_NODES); 1D curves use all pairs.
    """
    if n < 0 or not (0 < alpha < 1):
        raise InvalidGeometryError("need n >= 0 and 0 < alpha < 1")
    if isinstance(f, Field2D):
        stacks = _field_derivative_stack(f, n)
        sup = max(max(np.abs(v).max() for v in comps) for comps in stacks)
        g = f.grid
        R, T = np.meshgrid(g.r, g.theta, indexing="ij")
        pts = np.stack([(R * np.cos(T))[_HOLDER_NODES].ravel(),
                        (R * np.sin(T))[_HOLDER_NODES].ravel()], axis=1)
        semi = 0.0
        for comps in stacks:
            vals = np.stack([v[_HOLDER_NODES].ravel() for v in comps], axis=1)
            semi += _pair_seminorm(pts, vals, alpha)
        return sup + semi
    # 1D curve-like object: needs .grid_x() and derivative sampling
    xs = f.grid_x()
    sup = 0.0
    semi = 0.0
    for j in range(n + 1):
        vj = f.derivative_values(j)
        sup = max(sup, float(np.abs(vj).max()))
        semi += _pair_seminorm(xs[:, None], vj[:, None], alpha)
    return sup + semi


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def field_to_json(f: Field2D) -> str:
    g = f.grid
    return json.dumps({
        "Ri": g.Ri, "Ro": g.Ro, "Nr": g.Nr, "Ns": g.Ns,
        "values": f.values.ravel().tolist(),
    })


def field_from_json(text: str) -> Field2D:
    """The field of ``field_to_json``'s text; ValueError on a malformed one."""
    try:
        d = json.loads(text)
        g = make_annulus(d["Ri"], d["Ro"], d["Nr"], d["Ns"])
        return g.field(np.array(d["values"], dtype=float).reshape(g.Nr, g.Ns))
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed field file: {exc!r}") from exc
