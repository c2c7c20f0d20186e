import json

import numpy as np
import pytest

from annuflow.curves import Curve1D
from annuflow.elliptic import FourierSystem, principal_eigenvalue, solve_poisson
from annuflow.errors import (NoConvergenceError, NotMonotoneError,
                             RangeEscapeError, SingularSystemError)
from annuflow.grid import (circulation, gradient, integrate, make_annulus,
                           poisson_bracket)
from annuflow.steady import (
    Profile1D, SteadyState, d2s, default_cbar, ds, energy, energy_pair,
    poisson_start, solve_steady, state_from_json, state_to_json,
)

from oracles import (factored_linearization, lu_solve, radial_linearized,
                     radial_steady)

GAMMA = -2 * np.pi


def profile(fn, cbar=-3.0, **kw):
    return Profile1D.from_callable(fn, cbar, **kw)


@pytest.fixture(scope="module")
def state_affine(grid_radial128):
    F = profile(lambda s: 0.5 * s - 1.0)
    return solve_steady(F, GAMMA, grid=grid_radial128)


def test_profile_monotone_flag():
    profile(lambda s: 0.5 * s - 1.0, strictly_monotone=True)
    with pytest.raises(NotMonotoneError):
        profile(lambda s: -s**2, strictly_monotone=True)


def test_harmonic_one_step(grid64):
    F = profile(lambda s: 0.0 * s)
    state = solve_steady(F, GAMMA, grid=grid64)
    exact = grid64.field_from(lambda r, t: np.log(r / 2))
    assert np.abs(state.psi.values - exact.values).max() < 10 * grid64.hr**2
    assert state.newton_residual < 1e-9


def test_affine_profile_vs_radial_oracle(state_affine, grid_radial128):
    psi_oracle = radial_steady(lambda s: 0.5 * s - 1.0, GAMMA)
    exact = psi_oracle(grid_radial128.r)
    assert np.abs(state_affine.psi.values - exact[:, None]).max() < 1e-4


def test_identity_profile_vs_radial_oracle(grid_radial128):
    F = profile(lambda s: s)
    state = solve_steady(F, GAMMA, grid=grid_radial128)
    psi_oracle = radial_steady(lambda s: s, GAMMA)
    exact = psi_oracle(grid_radial128.r)
    assert np.abs(state.psi.values - exact[:, None]).max() < 1e-4


def test_energy_identity_refinement_order(bump_profile):
    # the gap between the gradient and the vorticity forms of the energy is
    # a discretization error: observed order >= 1.8 over two refinements
    gaps = []
    for shape in ((32, 64), (64, 128), (128, 256)):
        state = solve_steady(bump_profile, -4 * np.pi,
                             grid=make_annulus(1.0, 2.0, *shape))
        e_grad, e_vort = energy_pair(state)
        gaps.append(abs(e_grad - e_vort))
    orders = np.log2(np.array(gaps[:-1]) / gaps[1:])
    assert orders.min() >= 1.8, orders


@pytest.mark.parametrize("shape", [(16, 70), (32, 64), (128, 256)])
def test_energy_pair_along_r_matches_the_grid_forms(bump_profile, shape):
    # a state's two energy forms are taken along psi's column; the 2D
    # gradient and grid integrals of the spread field are the reference
    st = solve_steady(bump_profile, -4 * np.pi, grid=make_annulus(1.0, 2.0, *shape))
    gr, gt = gradient(st.psi)
    ref = (0.5 * integrate(gr * gr + gt * gt),
           -0.5 * integrate(st.omega * st.psi) + 0.5 * st.gamma * st.inner_value)
    assert energy_pair(st) == pytest.approx(ref, rel=1e-14, abs=0)
    assert energy(st) == energy_pair(st)[0]


def test_state_invariants(state_affine):
    st = state_affine
    assert st.newton_residual < 1e-9
    assert np.abs(st.psi.values[-1, :]).max() < 1e-10
    assert np.ptp(st.psi.values[0, :]) < 1e-10
    assert abs(circulation(st.psi) - st.gamma) < 1e-8
    assert st.psi.values.max() <= 0.05 * abs(st.F.cbar)
    assert st.psi.values.min() > st.F.cbar
    assert np.array_equal(st.omega.values, st.F(st.psi.values))


def test_steadiness_bracket(state_affine):
    b = poisson_bracket(state_affine.psi, state_affine.omega)
    grads = np.abs(state_affine.omega.values).max()
    h = state_affine.psi.grid.h
    assert np.abs(b.values).max() < 50 * h**2 * grads


def test_omega_boundary_constant(state_affine):
    assert np.ptp(state_affine.omega.values[0, :]) < 1e-10
    assert np.ptp(state_affine.omega.values[-1, :]) < 1e-10


def test_gauge_covariance(grid64):
    # modifying F outside range(psi) leaves the solution unchanged
    F1 = profile(lambda s: 0.5 * s - 1.0)
    st1 = solve_steady(F1, GAMMA, grid=grid64)
    lo = st1.psi.values.min()

    def modified(s):
        base = 0.5 * s - 1.0
        bump = np.where(s < lo - 0.15, (lo - 0.15 - s) ** 3, 0.0)
        return base + bump

    st2 = solve_steady(profile(modified), GAMMA, grid=grid64)
    assert np.abs(st1.psi.values - st2.psi.values).max() < 1e-12


def test_newton_quadratic_convergence(grid64):
    # strong nonlinearity so the iteration takes several steps
    F = profile(lambda s: np.exp(s) + 0.8 * s)
    st = solve_steady(F, GAMMA, grid=grid64, tol=1e-11)
    assert st.newton_residual < 1e-11
    history = st.newton_history
    assert len(history) >= 3
    assert all(h.step == 1.0 for h in history)
    # residual ratio r_{k+1}/r_k^2 bounded over the convergent stretch
    residuals = [h.residual for h in history] + [st.newton_residual]
    ratios = [residuals[i + 1] / residuals[i] ** 2
              for i in range(len(residuals) - 1)]
    assert max(ratios) < 100.0


def test_newton_factorizes_nothing(splu_calls):
    # the Poisson start and every Newton step are mode-0 solves along r,
    # which hold no factor: neither a cold start nor a warm start on the
    # same grid factorizes anything
    g = make_annulus(1.0, 2.0, 32, 64)
    F = profile(lambda s: np.exp(s) + 0.8 * s)
    st = solve_steady(F, GAMMA, grid=g)
    assert len(st.newton_history) >= 2
    assert splu_calls == []
    F2 = F.with_values(F.values + 0.01 * np.sin(F.grid_x()))
    st2 = solve_steady(F2, GAMMA, psi0=st.psi)
    assert len(st2.newton_history) >= 1
    assert splu_calls == []


@pytest.mark.parametrize("shape, tol", [((32, 64), 1e-14), ((64, 128), 1e-13)])
def test_tolerance_below_rounding_floor_is_named(shape, tol):
    # Newton reaches the rounding floor of the interior residual, below tol
    # only by chance: the failure stays an error, and names both numbers
    g = make_annulus(1.0, 2.0, *shape)
    F = profile(lambda s: np.exp(s) + 0.8 * s)
    with pytest.raises(NoConvergenceError, match="rounding floor") as excinfo:
        solve_steady(F, -4 * np.pi, grid=g, tol=tol)
    info = excinfo.value.info
    assert f"tolerance {tol:.1e}" in str(excinfo.value)
    assert f"{info['floor']:.1e}" in str(excinfo.value)
    assert tol < info["residual"] <= info["floor"]


def test_singular_step_is_no_convergence():
    # F' = -lam_1 makes Delta - F'(psi) singular, and lam_1 is a mode-0
    # eigenvalue (3.2177 against 10.21 for mode 1 here): the radial Newton
    # step meets a singular system, reported as no-convergence
    g = make_annulus(1.0, 2.0, 32, 64)
    lam = principal_eigenvalue(g)
    F = profile(lambda s: -lam * s - 1.0)
    with pytest.raises(NoConvergenceError, match="mode-0 solve"):
        solve_steady(F, GAMMA, grid=g)


def test_singular_shift_returns_nothing_non_finite():
    # at the principal eigenvalue the shifted Fourier solve is singular: it
    # refuses with singular-system or returns finite values, never inf or
    # NaN; the Poisson solve on the same grid stays finite
    g = make_annulus(1.0, 2.0, 32, 64)
    lam = principal_eigenvalue(g)
    b = np.random.default_rng(2).normal(size=(g.Nr, g.Ns))
    for shift in (lam, np.nextafter(lam, 0.0), np.nextafter(lam, 4.0)):
        try:
            phi = FourierSystem(g, shift).solve(b, 0.0)
        except SingularSystemError:
            continue
        assert np.all(np.isfinite(phi))
    psi = solve_poisson(g.constant(1.0), GAMMA)
    assert np.all(np.isfinite(psi.values))


def test_range_escape():
    g = make_annulus(1, 2, 32, 16)
    F = Profile1D.from_callable(lambda s: 0.5 * s - 1.0, -0.2)  # tiny interval
    with pytest.raises(RangeEscapeError):
        solve_steady(F, GAMMA, grid=g)


def test_ds_zero_direction(state_affine):
    z = Curve1D(state_affine.F.cbar, 0.0, np.zeros(65))
    phi = ds(state_affine, z)
    assert np.abs(phi.values).max() == 0.0


def test_ds_radial_oracle(state_affine, grid_radial128):
    f = profile(lambda s: np.sin(s))
    phi = ds(state_affine, f)
    psi_oracle = radial_steady(lambda s: 0.5 * s - 1.0, GAMMA)
    phi_oracle = radial_linearized(
        lambda r: 0.5 + 0.0 * r, lambda r: np.sin(psi_oracle(r)))
    exact = phi_oracle(grid_radial128.r)
    assert np.ptp(phi.values, axis=1).max() < 1e-9   # radial
    assert np.abs(phi.values - exact[:, None]).max() < 1e-4


def test_ds_first_order_richardson(grid64):
    # needs genuine curvature in F, otherwise the probe sits at solver noise
    F = profile(lambda s: np.exp(s) + 0.8 * s)
    st = solve_steady(F, GAMMA, grid=grid64, tol=1e-12)
    f = profile(lambda s: 0.5 * np.sin(2 * s))
    phi = ds(st, f)
    errs = []
    for eps in (1e-3, 5e-4):
        Fp = F.with_values(F.values + eps * f(F.grid_x()))
        Fm = F.with_values(F.values - eps * f(F.grid_x()))
        sp = solve_steady(Fp, GAMMA, grid=grid64, psi0=st.psi, tol=1e-12)
        sm = solve_steady(Fm, GAMMA, grid=grid64, psi0=st.psi, tol=1e-12)
        fd = (sp.psi.values - sm.psi.values) / (2 * eps)
        errs.append(np.abs(fd - phi.values).max())
    ratio = errs[0] / errs[1]
    assert 3.6 <= ratio <= 4.4


def test_ds_d2s_fourier_match_factor(state_affine):
    # the radial state solves along r; the factor path is the reference
    st = state_affine
    g, psi = st.psi.grid, st.psi.values
    f1 = profile(lambda s: np.sin(s))
    f2 = profile(lambda s: s**2 / 3)
    phi1, phi12 = ds(st, f1).values, d2s(st, f1, f2).values
    system = factored_linearization(st)

    def by_factor(k):
        return lu_solve(system, k)

    ref1, ref2 = by_factor(f1(psi)), by_factor(f2(psi))
    ref12 = by_factor(st.F.d2(psi) * ref1 * ref2 + f2.d1(psi) * ref1
                      + f1.d1(psi) * ref2)
    assert np.abs(phi1 - ref1).max() <= 1e-12 * np.abs(ref1).max()
    assert np.abs(phi12 - ref12).max() <= 1e-12 * np.abs(ref12).max()


def _wavy_state(grid):
    """A hand-built state whose psi varies in theta, inside [-3, 0]."""
    raw = grid.field_from(lambda r, t: r**2 + 0.05 * np.sin(np.pi * (r - 1)) * np.sin(t))
    psi = grid.field(2.0 * (raw.values - 4.0) / 3.0)
    return SteadyState(profile(lambda s: np.exp(s) + 0.8 * s), psi, GAMMA, 0.0)


def test_ds_d2s_refuse_theta_varying_state(grid32):
    # the derivatives solve along r, so a state whose psi varies in theta
    # is refused rather than answered from its first column
    state = _wavy_state(grid32)
    f = profile(lambda s: np.sin(s))
    with pytest.raises(ValueError, match="radially symmetric"):
        ds(state, f)
    with pytest.raises(ValueError, match="radially symmetric"):
        d2s(state, f, f)


def test_newton_refuses_theta_varying_start(grid32):
    state = _wavy_state(grid32)
    with pytest.raises(ValueError, match="radially symmetric"):
        solve_steady(state.F, GAMMA, psi0=state.psi)


@pytest.mark.parametrize("Ns", [40, 56, 70])
def test_state_is_theta_constant_when_ns_has_factors_5_and_7(Ns):
    # Newton runs on psi's column and spreads it once, so no FFT rounding
    # is left in theta (the 2D Fourier Newton left 6.9e-17, 5.6e-17 and
    # 5.6e-17 here), also from a Poisson start that carries some
    g = make_annulus(1.0, 2.0, 16, Ns)
    F = profile(lambda s: 0.5 * s - 0.95 + 0.01 * s * s)
    cold = solve_steady(F, GAMMA, grid=g)
    assert np.ptp(cold.psi.values, axis=1).max() == 0.0
    warm = solve_steady(F, GAMMA, psi0=solve_poisson(g.constant(F(0.0)), GAMMA))
    assert np.ptp(warm.psi.values, axis=1).max() == 0.0
    # the CLI's start is solve_steady's own, bit for bit
    start = poisson_start(g, F(0.0), GAMMA)
    assert np.ptp(start.values, axis=1).max() == 0.0
    assert np.array_equal(solve_steady(F, GAMMA, psi0=start).psi.values, cold.psi.values)


def test_d2s_zero(state_affine):
    z = Curve1D(state_affine.F.cbar, 0.0, np.zeros(65))
    assert np.abs(d2s(state_affine, z, z).values).max() == 0.0


def test_d2s_symmetry(state_affine):
    f1 = profile(lambda s: np.sin(s))
    f2 = profile(lambda s: s**2 / 3)
    a = d2s(state_affine, f1, f2)
    b = d2s(state_affine, f2, f1)
    assert np.abs(a.values - b.values).max() < 1e-10


def test_d2s_second_difference(grid64):
    F = profile(lambda s: np.exp(s) + 0.8 * s)
    st = solve_steady(F, GAMMA, grid=grid64, tol=1e-12)
    f = profile(lambda s: 0.5 * np.sin(2 * s))
    phi11 = d2s(st, f, f)
    errs = []
    for eps in (2e-2, 1e-2):
        Fp = F.with_values(F.values + eps * f(F.grid_x()))
        Fm = F.with_values(F.values - eps * f(F.grid_x()))
        sp = solve_steady(Fp, GAMMA, grid=grid64, psi0=st.psi, tol=1e-12)
        sm = solve_steady(Fm, GAMMA, grid=grid64, psi0=st.psi, tol=1e-12)
        sd = (sp.psi.values - 2 * st.psi.values + sm.psi.values)
        errs.append(np.abs(sd - eps**2 * phi11.values).max() / eps**2)
    # second differences of a smooth map: normalized error shrinks ~eps^2
    assert errs[1] < 0.35 * errs[0]


def test_energy_harmonic(grid64):
    F = profile(lambda s: 0.0 * s)
    st = solve_steady(F, GAMMA, grid=grid64)
    assert energy(st) == pytest.approx(np.pi * np.log(2), abs=1e-3)


def test_energy_zero(grid64):
    assert energy(grid64.constant(0.0), 0.0) == pytest.approx(0.0, abs=1e-12)


def test_energy_two_formulas(state_affine):
    e1, e2 = energy_pair(state_affine)
    h = state_affine.psi.grid.h
    assert abs(e1 - e2) < 100 * h**2 * max(1.0, abs(e1))


def test_state_json_roundtrip(state_affine):
    st2 = state_from_json(state_to_json(state_affine))
    assert np.allclose(st2.psi.values, state_affine.psi.values, rtol=0, atol=0)
    assert np.allclose(st2.F.values, state_affine.F.values, rtol=0, atol=0)
    assert st2.gamma == state_affine.gamma
    assert np.array_equal(st2.omega.values, state_affine.omega.values)
    assert st2.inner_value == state_affine.inner_value


def test_state_json_stores_psi_once(state_affine):
    # the vorticity and the inner value are derived from psi, not stored;
    # psi of solve_steady is constant in theta bit for bit and is stored
    # as its column
    d = json.loads(state_to_json(state_affine))
    assert "omega" not in d and "inner_value" not in d
    assert "psi" not in d and len(d["psi_r"]) == state_affine.psi.grid.Nr


def test_state_json_ignores_stored_omega(state_affine):
    # older files hold row-major "psi", and the oldest also "omega" and
    # "inner_value"; a disagreeing copy does not override F(psi)
    d = json.loads(state_to_json(state_affine))
    del d["psi_r"]
    d["psi"] = state_affine.psi.values.ravel().tolist()
    d["omega"] = [0.0] * state_affine.psi.values.size
    d["inner_value"] = 1.0
    st2 = state_from_json(json.dumps(d))
    assert st2.psi.values.tobytes() == state_affine.psi.values.tobytes()
    assert np.array_equal(st2.omega.values, st2.F(st2.psi.values))
    assert st2.inner_value == float(st2.psi.values[0].mean())


@pytest.mark.parametrize("edit", ["one-ulp", "signed-zero"])
def test_state_json_row_major_when_a_row_varies(state_affine, edit):
    # a row that is not constant bit for bit is written row-major and
    # read back bit for bit
    psi = state_affine.psi.values.copy()
    if edit == "one-ulp":
        psi[5, 7] = np.nextafter(psi[5, 7], np.inf)
    else:                                   # equal values, other bits
        psi[-1, 3] = -0.0
    st = SteadyState(state_affine.F, state_affine.psi.grid.field(psi),
                     state_affine.gamma, state_affine.newton_residual)
    d = json.loads(state_to_json(st))
    assert "psi_r" not in d and len(d["psi"]) == psi.size
    assert state_from_json(json.dumps(d)).psi.values.tobytes() == psi.tobytes()


def test_default_cbar(grid64):
    c = default_cbar(poisson_start(grid64, -1.0, GAMMA))
    st = solve_steady(profile(lambda s: 0.5 * s - 1.0, cbar=c), GAMMA, grid=grid64)
    assert c < 0
    assert c < st.psi.values.min()
