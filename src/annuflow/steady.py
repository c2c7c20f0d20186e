"""Nonlinear steady solver: psi with Delta(psi) = F(psi), zero outer trace,
constant inner trace, prescribed circulation, plus its first and second
derivatives with respect to the profile F.

Newton linearization: the correction phi solves
Delta(phi) - F'(psi)phi = F(psi) - Delta(psi) with zero outer trace and
constant inner trace, by ``elliptic.solve_ve``, so Newton assembles and
factorizes nothing; on a radially symmetric state a step takes no GMRES
iteration.  Rounding the update psi + phi moves the circulation by
up to about 1e-13, the same in every column of a radial state; the next
step takes it out again, so the iterates keep the circulation of the
start.  Full steps with residual-halving damping (at most 5 halvings per
step).  A state records one ``NewtonStep`` per step.  Every derivative
of a state solves through ``SteadyState.solve_linearization``, which is
``elliptic.solve_ve`` with zero circulation, so no state holds a factor.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .curves import Curve1D
from .elliptic import solve_poisson, solve_ve
from .errors import NoConvergenceError, NotMonotoneError, RangeEscapeError
from .grid import Field2D, circulation, gradient, integrate, laplacian, make_annulus

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
    krylov_iterations: int      # GMRES iterations of its linear solve


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
        """phi with Delta(phi) - F'(psi)phi = k, k of shape (Nr, Ns),
        under the zero-circulation conditions."""
        return solve_ve(self.psi.grid.field(-self.F.d1(self.psi.values)), k)[0]


def _interior_residual(psi: Field2D, F: Profile1D):
    """F(psi) - Delta(psi), the Newton right-hand side, and the max of its
    absolute interior values, the residual."""
    res = F(psi.values) - laplacian(psi).values
    return res, float(np.abs(res[1:-1, :]).max())


def solve_steady(F: Profile1D, gamma: float, psi0: Field2D | None = None,
                 grid=None, tol=TOL_NEWTON) -> SteadyState:
    """Newton iteration for the steady state on a prescribed orbit class.

    psi0 defaults to the stream function of the constant vorticity F(0).
    Raises range-escape if an iterate leaves the profile interval, and
    no-convergence after MAX_NEWTON steps or when damping fails.
    """
    if psi0 is None:
        if grid is None:
            raise ValueError("pass psi0 or grid")
        omega0 = grid.constant(F(0.0))
        psi = solve_poisson(omega0, gamma)
    else:
        psi = psi0
        grid = psi0.grid

    # Profiles live on [cbar, 0]; iterates may poke slightly above 0 (the
    # spline extrapolates there), bounded by a fixed fraction of |cbar|.
    upper_margin = 0.15 * abs(F.cbar)

    def check_range(p):
        lo, hi = p.values.min(), p.values.max()
        if lo <= F.cbar or hi > upper_margin:
            raise RangeEscapeError(
                f"iterate range [{lo:.4g}, {hi:.4g}] escapes ({F.cbar:.4g}, "
                f"{upper_margin:.4g}]", lo=lo, hi=hi)

    check_range(psi)
    rhs, residual = _interior_residual(psi, F)
    history = []
    drift = 0.0
    for _ in range(MAX_NEWTON):
        if residual < tol:
            break
        c = grid.field(-F.d1(psi.values))
        phi, iterations = solve_ve(c, rhs, -drift)
        step = 1.0
        for _ in range(6):
            cand = grid.field(psi.values + step * phi)
            cand_rhs, cand_res = _interior_residual(cand, F)
            if cand_res < residual:
                break
            step *= 0.5
        else:
            # rounding of Delta(psi): eps * |psi| * the stencil's absolute sum
            floor = (4 * np.finfo(float).eps * np.abs(psi.values).max()
                     * (grid.hr**-2 + (grid.Ri * grid.htheta)**-2))
            raise NoConvergenceError(
                "damping failed to reduce the residual" if residual > floor else
                f"tolerance {tol:.1e} is below the rounding floor {floor:.1e} of "
                f"the interior residual, reached at {residual:.2e}",
                residual=residual, floor=floor)
        history.append(NewtonStep(residual, step, iterations))
        drift += circulation(cand - psi)
        psi = cand
        check_range(psi)
        rhs, residual = cand_rhs, cand_res
    else:
        raise NoConvergenceError(f"no convergence after {MAX_NEWTON} iterations",
                                 residual=residual)
    # clamp the outer trace exactly (solver keeps it at rounding level)
    vals = psi.values.copy()
    vals[-1, :] = 0.0
    return SteadyState(F, grid.field(vals), float(gamma), residual, tuple(history))


def ds(state: SteadyState, f) -> Field2D:
    """First derivative of the steady state in a profile direction f:
    solves Delta(phi) - F'(psi)phi = f(psi) with zero-circulation data.
    Directions are Curve1D (callable, with d1)."""
    return state.psi.grid.field(state.solve_linearization(f(state.psi.values)))


def d2s(state: SteadyState, f1, f2) -> Field2D:
    """Second derivative: solves the linearized equation with source
    F''(psi) phi1 phi2 + f2'(psi) phi1 + f1'(psi) phi2."""
    g = state.psi.grid
    psi = state.psi.values
    phi1 = ds(state, f1).values
    phi2 = ds(state, f2).values
    src = (state.F.d2(psi) * phi1 * phi2
           + f2.d1(psi) * phi1 + f1.d1(psi) * phi2)
    return g.field(state.solve_linearization(src))


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
    """Reference interval depth: twice the minimum of psi0, the stream
    function of the constant vorticity F(0) (so perturbed solutions stay
    inside the interval)."""
    m = float(psi0.values.min())
    if m >= 0:
        m = -1.0
    return 2.0 * m
