"""Profile-to-orbit map T(F) (the inverse distribution function of the
steady vorticity), its derivative, a tame right-inverse, and the smoothed
Newton iteration that inverts T near a nondegenerate reference state.

The derivative splits as DT(F)f = B(F)f + KT(F)f with B(F)f the
composition with the stream distribution inverse (invertible up to the
gauge below min psi) and KT a smoothing remainder driven by one linear
elliptic solve.  Solving DT(F)f = h uses the factorization through
M(F) = Id + K(F), K(F) = KT(F) VB(F): assemble M by collocation on the
area grid, invert densely, and map back with VB.

The iteration is the smoothed Newton scheme
    F_{n+1} = F_n - S(t_n) L(F_n) (T(F_n) - g_target),   t_n = A**(kappa**n)
whose parameters must satisfy the convergence constraints checked by
MoserConfig.validate().

Every per-state object lives on its steady state: ``dt`` and
``k_apply`` solve along r through ``SteadyState.solve_linearization`` (by
``steady.ds``), and ``workspace(state)`` stores the stream chart (which
owns the distribution and the area grid) and the assembled Id + K on the
state.  The workspace holds no reference back to its state, so both are
freed with the state.

Id + K is assembled for radially symmetric states only.  Every state of
the iteration is one: ``steady.solve_steady`` runs Newton on psi's column
along r and spreads it over theta.  On such a state the VB compositions,
the linearized solves and the loop integrals stay constant in theta, so
each factor of the product is taken along r, and none holds a grid-sized
stack of N_MU columns.  A state whose psi varies in theta raises
ValueError there.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np
from scipy.interpolate import CubicSpline

from .curves import Curve1D, Monotone1D
from .elliptic import radial_psi, solve_radial
from .errors import (AnnuflowError, DivergedError, InnerSolveFailureError,
                     NotMonotoneError, SingularIdPlusKError)
from .orbit import (N_MU, LevelChart, dist_chart, j_over_grad,
                    j_over_grad_radial, level_chart)
from .steady import Profile1D, SteadyState, ds, solve_steady
from .tame import smooth


@dataclass(frozen=True)
class MoserConfig:
    A: float = 2.0
    kappa: float = 1.35
    mu: float = 1.6
    beta: float = 3.0
    j: int = 9
    max_iter: int = 30
    floor_tol: float = 1e-8

    def validate(self):
        if not (1.0 < self.kappa < 2.0):
            raise ValueError(f"need 1 < kappa < 2, got {self.kappa}")
        if self.mu < 1.0 / (2.0 - self.kappa):
            raise ValueError(f"need mu >= 1/(2-kappa) = "
                             f"{1.0/(2.0-self.kappa):.4g}, got {self.mu}")
        if -self.beta * (self.kappa - 1.0) + 1.0 >= 0:
            raise ValueError(f"need beta > 1/(kappa-1) = "
                             f"{1.0/(self.kappa-1.0):.4g}, got {self.beta}")
        gap = self.mu * self.kappa**2 + self.kappa + 1.0 - self.j + self.beta
        if gap >= 0:
            raise ValueError(f"need mu*kappa^2 + kappa + 1 - j + beta < 0, "
                             f"got {gap:.4g}")
        if self.A <= 1.0:
            raise ValueError("need A > 1")
        if self.max_iter < 1:
            raise ValueError(f"need max_iter >= 1, got {self.max_iter}")
        return self

    def schedule(self, n):
        # exact while representable; far beyond any grid Nyquist the
        # smoothing is the identity, so the cap is inert
        exponent = self.kappa**n * np.log(self.A)
        if exponent > np.log(1e12):
            return 1e12
        return self.A ** (self.kappa ** n)


@dataclass
class MoserTrace:
    # sigma_ratio: sigma_min/sigma_max of the Id + K of the row's update (nan
    # on a row without one)
    columns = ("n", "t_n", "residual", "update_norm", "flags", "sigma_ratio")
    rows: list = field(default_factory=list)
    final_cross_check: float = np.nan

    def add(self, n, t_n, residual, update_norm, flags, sigma_ratio):
        self.rows.append((n, t_n, residual, update_norm, flags, sigma_ratio))

    @property
    def residuals(self):
        return np.array([r[2] for r in self.rows])

    @property
    def repair_count(self):
        return sum(1 for r in self.rows if "repair" in r[4])

    def to_csv(self, path):
        with open(path, "w", newline="\n") as fh:
            fh.write(",".join(self.columns) + "\n")
            for n, t, res, up, fl, sr in self.rows:
                fh.write(f"{n},{float(t)!r},{float(res)!r},{float(up)!r},{fl},"
                         f"{float(sr)!r}\n")


# ---------------------------------------------------------------------------
# per-state workspace: stream chart, assembled Id + K
# ---------------------------------------------------------------------------

class StateWorkspace:
    """Stream chart and assembled Id + K of one steady state; the chart
    owns the stream distribution and the area grid.  The state stores its
    workspace and the workspace holds no reference to the state, so a
    dropped state is freed at once with its workspace."""

    def __init__(self, state: SteadyState):
        g = state.psi.grid
        self.F = state.F
        self.psi = state.psi
        # the stream travel time varies by orders of magnitude across
        # levels, so the chart takes extra rows to hold the area budget
        self.chart: LevelChart = level_chart(state.psi, Nt=max(2 * g.Nr, 128))
        at_mu = self.chart.area_grid
        # (d/dmu) A_omega^{-1} = F'(lambda(mu)) / A_psi'(lambda(mu))
        self.dainv_omega = (state.F.d1(at_mu.lam_mu)
                            / at_mu.resample(self.chart.travel_time))
        self._id_plus_k = None
        self.singular_values = None         # of Id + K, descending

    def t_values(self):
        """T(F) samples on the area grid: F composed with the stream
        distribution inverse."""
        return self.F(self.chart.area_grid.lam_mu)

    def transport(self, jvals):
        """(d A_omega^{-1}/dmu) times level-grid loop integrals (leading
        axis) resampled at lambda(mu)."""
        return (self.dainv_omega * self.chart.area_grid.resample(jvals).T).T

    def ktilde(self, phi):
        """Smoothing part of DT: (d A_omega^{-1}/dmu) times the level mean
        transport of phi."""
        return self.transport(j_over_grad(self.chart, phi).values)

    def assembled_id_plus_k(self):
        """Id + K = Id + D S J A^-1 E on the mu grid, assembled in r alone
        for a radially symmetric state (``radial_psi``; ValueError
        otherwise): E composes the cardinal splines of the mu grid with VB
        along psi's radial column, A^-1 is one mode-0 solve of the
        linearization Delta - F'(psi) for all N_MU columns, J the
        travel-time loop integral of theta-constant fields and D S the
        transport to the mu grid."""
        if self._id_plus_k is None:
            psi = radial_psi(self.psi)
            cardinal = CubicSpline(self.chart.area_grid.mu, np.eye(N_MU))
            E = _vb_compose(cardinal, cardinal.derivative(),
                            self.chart.distribution[0], self.chart.omega_min, psi)
            phi = solve_radial(self.psi.grid, -self.F.d1(psi), E, 0.0)
            K = self.transport(j_over_grad_radial(self.chart) @ phi)
            self._id_plus_k = np.eye(N_MU) + K
            self.singular_values = np.linalg.svd(self._id_plus_k, compute_uv=False)
        return self._id_plus_k


def workspace(state: SteadyState) -> StateWorkspace:
    """The workspace of a state, built on first use and stored on the
    state (an attribute outside its dataclass fields)."""
    ws = vars(state).get("_workspace")
    if ws is None:
        ws = vars(state)["_workspace"] = StateWorkspace(state)
    return ws


# ---------------------------------------------------------------------------
# T, DT, VB, K, VM, L
# ---------------------------------------------------------------------------

def t_map(F: Profile1D, gamma: float, grid, cross_check=True):
    """Orbit label of the steady state of profile F: the inverse
    distribution function of its vorticity on [0, |domain|].

    Computed through the stream-function chart (regularized by the
    elliptic solve); the direct vorticity-chart computation is used as a
    cross-check and a mismatch beyond 5 h^2 relative is reported.
    """
    import warnings

    state = solve_steady(F, gamma, grid=grid)
    ws = workspace(state)
    vals = ws.t_values()
    curve = Monotone1D(0.0, state.psi.grid.area, vals)
    if cross_check:
        direct = dist_chart(state.omega).area_grid.lam_mu
        scale = max(float(np.ptp(vals)), 1e-300)
        tol = 5 * state.psi.grid.h**2
        gap = float(np.abs(direct - vals).max()) / scale
        if gap > tol:
            warnings.warn(f"distribution paths disagree by {gap:.2e} "
                          f"(relative), tolerance {tol:.2e}", stacklevel=2)
    return curve, state


def dt(state: SteadyState, f) -> Curve1D:
    """Derivative of the orbit label in the profile direction f."""
    ws = workspace(state)
    return Curve1D(0.0, state.psi.grid.area,
                   f(ws.chart.area_grid.lam_mu) + ws.ktilde(ds(state, f)))


def _vb_compose(g, g_d1, a_psi, m, x):
    """g(A_psi(x)) on range(psi) = [m, 0], continued below m linearly with
    the slope matched at the junction, where the gauge is free.  g and its
    derivative g_d1 may be vector-valued (trailing axes)."""
    x = np.asarray(x, dtype=float)
    a0 = a_psi.values[0]                                # A_psi(m)
    slope = g_d1(a0) * a_psi.d1(np.array([m]))[0]
    out = g(a_psi(np.clip(x, m, 0.0)))
    below = x < m
    out[below] = g(a0) + np.multiply.outer(x[below] - m, slope)
    return out


class VbDirection(Curve1D):
    """Profile direction g(A_psi(s)) on range(psi), continued below
    min(psi) linearly (slope matched at the junction, where the gauge is
    free).  Evaluates through the exact composition; the uniform samples
    exist for smoothing and arithmetic."""

    def __init__(self, gcurve, a_psi, m, cbar, n_samples):
        self._g = gcurve
        self._a_psi = a_psi
        self._m = float(m)
        super().__init__(cbar, 0.0, self(np.linspace(cbar, 0.0, n_samples)))

    def __call__(self, x):
        return _vb_compose(self._g, self._g.d1, self._a_psi, self._m, x)

    def with_values(self, values):
        return Curve1D(self.a, self.b, values)


def vb(state: SteadyState, gcurve: Curve1D):
    """Right-inverse of the composition part of DT."""
    ws = workspace(state)
    return VbDirection(gcurve, ws.chart.distribution[0], ws.chart.omega_min,
                       state.F.cbar, state.F.values.size)


def k_apply(state: SteadyState, gcurve: Curve1D) -> Curve1D:
    """Compact part of the normalized derivative: K(F)g = DT(F)VB(F)g - g."""
    phi = ds(state, vb(state, gcurve))
    return Curve1D(0.0, state.psi.grid.area, workspace(state).ktilde(phi))


def assemble_id_plus_k(state: SteadyState):
    return workspace(state).assembled_id_plus_k()


def vm(state: SteadyState, h: Curve1D) -> Curve1D:
    """Solve (Id + K(F)) g = h by dense collocation on the area grid;
    raises singular-Id+K when sigma_min/sigma_max < 1e-8."""
    ws = workspace(state)
    M = ws.assembled_id_plus_k()
    sv = ws.singular_values
    if sv[-1] < 1e-8 * sv[0]:
        raise SingularIdPlusKError(
            f"Id+K nearly singular: sigma_min/sigma_max = {sv[-1]/sv[0]:.3e}",
            sigma_min=float(sv[-1]))
    g = np.linalg.solve(M, h(ws.chart.area_grid.mu))
    return Curve1D(0.0, state.psi.grid.area, g)


def right_inverse(state: SteadyState, h: Curve1D):
    """L(F)h = VB(F) VM(F) h; satisfies dt(state, L h) = h up to
    collocation accuracy."""
    return vb(state, vm(state, h))


# ---------------------------------------------------------------------------
# the smoothed Newton iteration
# ---------------------------------------------------------------------------

def _repair_monotone(samples, h_s, floor_slope):
    """Raise each sample to at least floor_slope*h_s above the one before
    it: out[i+1] = max(samples[i+1], out[i] + floor_slope*h_s), taken as a
    running maximum of the samples less the floor's ramp."""
    ramp = floor_slope * h_s * np.arange(samples.size)
    return np.maximum.accumulate(samples - ramp) + ramp


def moser_solve(F0: Profile1D, gamma: float, g_target: Monotone1D,
                cfg: MoserConfig = MoserConfig(), *, grid):
    """Invert the orbit label map: find F with T(F) = g_target near F0.

    Returns (profile, its steady state, trace).  The residual trace records
    t_n, the sup-norm residual, the C1 update norm, repair flags and
    sigma_min/sigma_max of Id + K; the last row is flagged max-iter when
    cfg.max_iter steps end without convergence.  The final state carries
    the direct vorticity-chart cross-check in trace.final_cross_check.
    """
    cfg.validate()
    F = F0
    ref_slope = F0.min_slope()
    if ref_slope <= 0:
        raise NotMonotoneError("initial profile must be strictly increasing")
    h_s = abs(F0.cbar) / (F0.values.size - 1)
    trace = MoserTrace()
    prev_residual = np.inf
    grow_count = 0
    state = None
    psi0 = None
    for n in range(cfg.max_iter):
        try:
            state = solve_steady(F, gamma, psi0=psi0, grid=grid)
        except AnnuflowError as exc:
            raise InnerSolveFailureError(
                f"steady solve failed at iteration {n}: {exc}",
                iteration=n) from exc
        psi0 = state.psi
        ws = workspace(state)
        resid_vals = ws.t_values() - g_target(ws.chart.area_grid.mu)
        residual = float(np.abs(resid_vals).max())
        t_n = cfg.schedule(n)
        if residual < cfg.floor_tol:
            trace.add(n, t_n, residual, 0.0, "converged", np.nan)
            break
        if residual > prev_residual:
            grow_count += 1
            if grow_count >= 3:
                trace.add(n, t_n, residual, 0.0, "diverged", np.nan)
                raise DivergedError(
                    f"residual grew 3 consecutive steps (now {residual:.3e})",
                    trace=trace)
        else:
            grow_count = 0
        prev_residual = residual

        h_curve = Curve1D(0.0, state.psi.grid.area, resid_vals)
        f_dir = right_inverse(state, h_curve)
        update = smooth(f_dir, t_n)
        flags = []
        trunc = np.abs(f_dir.values - update.values).max()
        if trunc > 0.1 * max(np.abs(f_dir.values).max(), 1e-300):
            flags.append("truncated")
        new_samples = F.values - update.values
        slopes = np.diff(new_samples) / h_s
        if slopes.min() < 0.1 * ref_slope:
            new_samples = _repair_monotone(new_samples, h_s, 0.1 * ref_slope)
            flags.append("repair")
        F_next = F.with_values(new_samples)
        sv = ws.singular_values
        trace.add(n, t_n, residual, (F_next - F).c1_norm(), "+".join(flags),
                  sv[-1] / sv[0])
        F = F_next
    else:
        # out of iterations without converging: say so on the last row
        *head, flags, ratio = trace.rows[-1]
        trace.rows[-1] = (*head, "+".join(filter(None, (flags, "max-iter"))), ratio)
    # cross-check the recovered state against the direct vorticity path
    direct = dist_chart(state.omega).area_grid
    trace.final_cross_check = float(
        np.abs(direct.lam_mu - g_target(direct.mu)).max())
    return state.F, state, trace


@dataclass(frozen=True)
class UniquenessReport:
    q_distance: float
    psi_distance: float
    tol: float

    @property
    def same_orbit(self):
        return self.q_distance < self.tol

    @property
    def same_state(self):
        return self.psi_distance < 10 * self.tol

    @property
    def verdict(self):
        if not self.same_orbit:
            return "different-orbits"
        return "same-orbit-same-state" if self.same_state else "same-orbit-distinct-states"


def uniqueness_probe(state_a: SteadyState, state_b: SteadyState,
                     tol) -> UniquenessReport:
    """Compare orbit labels and stream functions of two nearby states on
    one grid: on a shared orbit the states must agree."""
    qa = dist_chart(state_a.omega).area_grid.lam_mu
    qb = dist_chart(state_b.omega).area_grid.lam_mu
    q_dist = float(np.abs(qa - qb).max())
    psi_dist = float(np.abs(state_a.psi.values - state_b.psi.values).max())
    return UniquenessReport(q_dist, psi_dist, float(tol))


# ---------------------------------------------------------------------------
# config file I/O: flat key=value lines
# ---------------------------------------------------------------------------

def config_to_text(cfg: MoserConfig) -> str:
    return "".join(f"{f.name}={getattr(cfg, f.name)}\n" for f in fields(cfg))


def config_from_text(text: str) -> MoserConfig:
    # each key parses as the type of its default: int or float
    kinds = {f.name: type(f.default) for f in fields(MoserConfig)}
    kw = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if key not in kinds:
            raise ValueError(f"unknown config key {key!r}")
        kw[key] = kinds[key](val)
    return MoserConfig(**kw)
