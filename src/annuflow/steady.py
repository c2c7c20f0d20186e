"""Nonlinear steady solver: psi with Delta(psi) = F(psi), zero outer trace,
constant inner trace, prescribed circulation, plus its first and second
derivatives with respect to the profile F.

Every state is radially symmetric: Newton starts from the stream function
of the constant vorticity F(0), and a step from a radial iterate, whose
F'(psi) is radial too, stays in theta-mode 0.  So Newton runs on psi's
column along r, and each correction phi solves
Delta(phi) - F'(psi)phi = F(psi) - Delta(psi) with zero outer trace and
constant inner trace by one mode-0 solve, ``elliptic.solve_radial``.  The
converged column is spread over theta once, so a state is constant in
theta bit for bit.  A start psi0 that varies in theta by more than
rounding (``elliptic.radial_psi``) raises ValueError.  Rounding the
update psi + phi moves the circulation by up to about 1e-13; the next
step takes it out again, so the iterates keep the circulation of the
start.  Full steps with residual-halving damping (at most 5 halvings per
step).  A state records one ``NewtonStep`` per step.  Every derivative
of a state solves along r through ``SteadyState.solve_linearization``,
``solve_radial`` with zero circulation, and is spread over theta once.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .curves import Curve1D
from .elliptic import radial_psi, solve_poisson, solve_radial
from .errors import NoConvergenceError, NotMonotoneError, RangeEscapeError
from .grid import (AnnulusGrid, Field2D, circulation_row, gradient, integrate,
                   laplacian_radial, make_annulus)

TOL_NEWTON = 1e-9
MAX_NEWTON = 50
N_SAMPLES = 513         # profile samples on [cbar, 0]


class Profile1D(Curve1D):
    """Function F on a fixed interval [cbar, 0]: a Curve1D, whose C^2
    cubic interpolant gives F' and F''."""

    def __init__(self, cbar, samples, strictly_monotone=False):
        if cbar >= 0:
            raise ValueError("interval must be [cbar, 0] with cbar < 0")
        super().__init__(cbar, 0.0, samples)
        self.strictly_monotone = bool(strictly_monotone)
        if strictly_monotone:
            s = self.grid_x()
            probe = np.sort(np.concatenate([s, 0.5 * (s[1:] + s[:-1])]))
            if self.d1(probe).min() <= 0:
                raise NotMonotoneError("profile flagged strictly-monotone but "
                                       "F' <= 0 at a node or midpoint")

    @classmethod
    def from_callable(cls, fn, cbar, strictly_monotone=False):
        s = np.linspace(cbar, 0.0, N_SAMPLES)
        return cls(cbar, fn(s), strictly_monotone=strictly_monotone)

    @property
    def cbar(self):
        return self.a

    def with_values(self, values):
        return Profile1D(self.a, values)

    def min_slope(self):
        h = abs(self.a) / (self.values.size - 1)
        return float(np.min(np.diff(self.values)) / h)


class NewtonStep(NamedTuple):
    """One Newton step of ``solve_steady``."""

    residual: float             # interior residual of the iterate it corrects
    step: float                 # damping step length: 1, 1/2, ..., 1/32


@dataclass(frozen=True, eq=False)
class SteadyState:
    """Converged steady bundle: psi, its profile F and its circulation;
    the vorticity F(psi) and the inner value are derived from psi.  The
    Newton history is empty for a state read back from JSON."""

    F: Profile1D
    psi: Field2D
    gamma: float
    newton_residual: float
    newton_history: tuple[NewtonStep, ...] = ()

    @cached_property
    def omega(self) -> Field2D:
        """The vorticity F(psi), node-wise."""
        return self.psi.grid.field(self.F(self.psi.values))

    @property
    def inner_value(self) -> float:
        """psi on the inner circle, the mean of its row."""
        return float(self.psi.values[0].mean())

    def solve_linearization(self, k):
        """phi along r with Delta(phi) - F'(psi)phi = k, k along r, under
        the zero-circulation conditions: one mode-0 solve.  Raises
        ValueError when psi varies in theta (``radial_psi``)."""
        return solve_radial(self.psi.grid, -self.F.d1(radial_psi(self.psi)), k, 0.0)


def _spread(grid: AnnulusGrid, column):
    """The field that is ``column`` in every theta column."""
    return grid.field(np.repeat(column[:, None], grid.Ns, axis=1))


def _interior_residual(grid: AnnulusGrid, psi, F: Profile1D):
    """F(psi) - Delta(psi) along r, the Newton right-hand side, and the max
    of its absolute interior values, the residual."""
    res = F(psi) - laplacian_radial(grid, psi)
    return res, float(np.abs(res[1:-1]).max())


def poisson_start(grid: AnnulusGrid, w0, gamma) -> Field2D:
    """The stream function of the constant vorticity w0 with circulation
    gamma, Newton's default start: one solve along r, spread over theta."""
    return _spread(grid, solve_radial(grid, np.zeros(grid.Nr),
                                      np.full(grid.Nr, w0), gamma))


def solve_steady(F: Profile1D, gamma: float, psi0: Field2D | None = None,
                 grid=None, tol=TOL_NEWTON) -> SteadyState:
    """Newton iteration for the steady state on a prescribed orbit class,
    on psi's column along r (module docstring).

    psi0 defaults to ``poisson_start`` of the constant vorticity F(0);
    a psi0 that varies in theta raises ValueError.  Raises range-escape if
    an iterate leaves the profile interval, and no-convergence after
    MAX_NEWTON steps or when damping fails.
    """
    if psi0 is None:
        if grid is None:
            raise ValueError("pass psi0 or grid")
        psi0 = poisson_start(grid, F(0.0), gamma)
    grid = psi0.grid
    psi = radial_psi(psi0)
    # the circulation of a theta-constant field, from its column
    weights = grid.Ns * circulation_row(grid)[:, 0]

    # Profiles live on [cbar, 0]; iterates may poke slightly above 0 (the
    # spline extrapolates there), bounded by a fixed fraction of |cbar|.
    upper_margin = 0.15 * abs(F.cbar)

    def check_range(p):
        lo, hi = p.min(), p.max()
        if lo <= F.cbar or hi > upper_margin:
            raise RangeEscapeError(
                f"iterate range [{lo:.4g}, {hi:.4g}] escapes ({F.cbar:.4g}, "
                f"{upper_margin:.4g}]", lo=lo, hi=hi)

    check_range(psi)
    rhs, residual = _interior_residual(grid, psi, F)
    history = []
    drift = 0.0
    for _ in range(MAX_NEWTON):
        if residual < tol:
            break
        phi = solve_radial(grid, -F.d1(psi), rhs, -drift)
        step = 1.0
        for _ in range(6):
            cand = psi + step * phi
            cand_rhs, cand_res = _interior_residual(grid, cand, F)
            if cand_res < residual:
                break
            step *= 0.5
        else:
            # rounding of Delta(psi): eps * |psi| * the stencil's absolute sum
            floor = (4 * np.finfo(float).eps * np.abs(psi).max()
                     * (grid.hr**-2 + (grid.Ri * grid.htheta)**-2))
            raise NoConvergenceError(
                "damping failed to reduce the residual" if residual > floor else
                f"tolerance {tol:.1e} is below the rounding floor {floor:.1e} of "
                f"the interior residual, reached at {residual:.2e}",
                residual=residual, floor=floor)
        history.append(NewtonStep(residual, step))
        drift += weights @ (cand - psi)
        psi = cand
        check_range(psi)
        rhs, residual = cand_rhs, cand_res
    else:
        raise NoConvergenceError(f"no convergence after {MAX_NEWTON} iterations",
                                 residual=residual)
    # clamp the outer trace exactly (solver keeps it at rounding level)
    psi = _spread(grid, psi)
    psi.values[-1] = 0.0
    return SteadyState(F, psi, float(gamma), residual, tuple(history))


def ds(state: SteadyState, f) -> Field2D:
    """First derivative of the steady state in a profile direction f:
    solves Delta(phi) - F'(psi)phi = f(psi) with zero-circulation data,
    along r.  Directions are Curve1D (callable, with d1)."""
    phi = state.solve_linearization(f(radial_psi(state.psi)))
    return _spread(state.psi.grid, phi)


def d2s(state: SteadyState, f1, f2) -> Field2D:
    """Second derivative: solves the linearized equation with source
    F''(psi) phi1 phi2 + f2'(psi) phi1 + f1'(psi) phi2, along r."""
    psi = radial_psi(state.psi)
    phi1 = state.solve_linearization(f1(psi))
    phi2 = state.solve_linearization(f2(psi))
    src = (state.F.d2(psi) * phi1 * phi2
           + f2.d1(psi) * phi1 + f1.d1(psi) * phi2)
    return _spread(state.psi.grid, state.solve_linearization(src))


def energy(state_or_omega, gamma=None) -> float:
    """Kinetic energy 0.5*int(|grad psi|^2), cross-checked against the
    vorticity form -0.5*int(omega psi) + 0.5*gamma*psi_inner."""
    if isinstance(state_or_omega, SteadyState):
        psi, omega = state_or_omega.psi, state_or_omega.omega
        gamma = state_or_omega.gamma
    else:
        if gamma is None:
            raise ValueError("gamma required when passing a vorticity field")
        psi = solve_poisson(state_or_omega, gamma)
        omega = state_or_omega
    e_grad, e_vort = _energy_forms(psi, omega, gamma)
    h2 = psi.grid.h**2
    scale = max(abs(e_grad), abs(e_vort), 1.0)
    if abs(e_grad - e_vort) > 200.0 * h2 * scale:
        import warnings

        warnings.warn(f"energy identity gap {abs(e_grad - e_vort):.3e} "
                      f"exceeds the discretization budget", stacklevel=2)
    return e_grad


def _energy_forms(psi, omega, gamma):
    gr, gt = gradient(psi)
    e_grad = 0.5 * integrate(gr * gr + gt * gt)
    e_vort = -0.5 * integrate(omega * psi) + 0.5 * gamma * float(psi.values[0].mean())
    return e_grad, e_vort


def energy_pair(state: SteadyState):
    """Both energy formulas (gradient form, vorticity form)."""
    return _energy_forms(state.psi, state.omega, state.gamma)


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

def state_to_json(state: SteadyState) -> str:
    g = state.psi.grid
    return json.dumps({
        "Ri": g.Ri, "Ro": g.Ro, "Nr": g.Nr, "Ns": g.Ns,
        "gamma": state.gamma,
        "newton_residual": state.newton_residual,
        "profile_cbar": state.F.cbar,
        "profile_samples": state.F.values.tolist(),
        "profile_monotone": state.F.strictly_monotone,
        "psi": state.psi.values.ravel().tolist(),
    })


def state_from_json(text: str) -> SteadyState:
    """The state of ``state_to_json``'s text.  Older files also hold
    "omega" and "inner_value", both derived from psi: they are ignored.
    Raises ValueError on a malformed file."""
    try:
        d = json.loads(text)
        g = make_annulus(d["Ri"], d["Ro"], d["Nr"], d["Ns"])
        F = Profile1D(d["profile_cbar"], np.array(d["profile_samples"], dtype=float),
                      strictly_monotone=d.get("profile_monotone", False))
        psi = g.field(np.array(d["psi"], dtype=float).reshape(g.Nr, g.Ns))
        return SteadyState(F, psi, float(d["gamma"]), float(d["newton_residual"]))
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed state file: {exc!r}") from exc


def default_cbar(psi0: Field2D):
    """Reference interval depth: twice the minimum of psi0, poisson_start
    of F(0), so that perturbed solutions stay inside the interval."""
    m = float(psi0.values.min())
    if m >= 0:
        m = -1.0
    return 2.0 * m
