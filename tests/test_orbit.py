import numpy as np
import pytest

from annuflow.curves import Monotone1D
from annuflow.errors import (CriticalPointError, NotInFplusError,
                             NotTangentError)
from annuflow.grid import integrate, gradient, make_annulus, poisson_bracket
from annuflow import orbit
from annuflow.orbit import (
    dist_fn, dq, d2q, is_tangent, j_functional, j_over_grad,
    j_over_grad_radial, level_chart, project_tangent, pushforward, reconstruct_alpha, second_variation,
    tangency_defect,
)
from annuflow.steady import Profile1D, energy, solve_steady

from oracles import sublevel_area

GAMMA4 = -4 * np.pi


@pytest.fixture(scope="module")
def omega_r2(grid64):
    return grid64.field_from(lambda r, t: r**2)


@pytest.fixture(scope="module")
def chart_r2(omega_r2):
    return level_chart(omega_r2)


@pytest.fixture(scope="module")
def omega_wavy(grid64):
    # boundary-constant, critical-point-free perturbation of r^2
    return grid64.field_from(
        lambda r, t: r**2 + 0.05 * np.sin(np.pi * (r - 1)) * np.sin(t))


@pytest.fixture(scope="module")
def chart_wavy(omega_wavy):
    return level_chart(omega_wavy)


def test_chart_radial_closed_form(chart_r2, grid64):
    exact_r = np.sqrt(1 + 3 * chart_r2.t)
    assert np.abs(chart_r2.r - exact_r[:, None]).max() < 1e-7
    assert chart_r2.residual() < 1e-13
    # rows start on the inner circle, end on the outer one
    assert np.abs(chart_r2.r[0] - 1.0).max() == 0.0
    assert np.abs(chart_r2.r[-1] - 2.0).max() == 0.0


def test_chart_wavy_residual(chart_wavy):
    assert chart_wavy.residual() < 1e-13
    assert np.abs(chart_wavy.r[-1] - 2.0).max() == 0.0
    assert chart_wavy.grad_norm.min() > 0


@pytest.mark.parametrize("which", ["bump_psi", "wavy_omega"])
def test_aprime_stable_under_rounding(which, grid64, bump_profile, omega_wavy):
    # a chart whose nodes sit on their levels gives a travel time A' that
    # responds to a 1e-13 scaling of the field by about 1e-13; nodes that
    # miss their levels by 1e-8 move it by 2e-8
    if which == "bump_psi":
        field, Nt = solve_steady(bump_profile, GAMMA4, grid=grid64).psi, 128
    else:
        field, Nt = omega_wavy, None
    base = level_chart(field, Nt=Nt).travel_time
    scaled = level_chart(field * (1 + 1e-13), Nt=Nt).travel_time
    assert np.abs(scaled / base - 1).max() < 1e-10


def test_chart_residual_is_relative_to_the_range(omega_wavy):
    # the level miss scales with the field; at 1e5 times the wavy field it
    # is about 3.5e-10, 3.5e-15 of the range
    chart = level_chart(omega_wavy * 1e5)
    assert chart.residual() < 1e-13 * (chart.omega_max - chart.omega_min)


def test_chart_ignores_boundary_spread_below_the_fplus_bound(grid64, omega_wavy):
    # the boundary rows lie on the circles; a spread of 1e-9 of the range,
    # well within _boundary_levels' 1e-6, does not fail the level check
    vals = omega_wavy.values.copy()
    wiggle = 1e-9 * np.ptp(vals) * np.cos(3 * grid64.theta)
    vals[0] += wiggle
    vals[-1] -= wiggle
    chart = level_chart(grid64.field(vals))
    assert chart.residual() < 1e-13


@pytest.fixture(scope="module")
def bump_fields(grid64, grid16x70, bump_profile):
    """The bump state's psi and omega, each with the row count of the chart
    that reads it (the Moser workspace's and dist_chart's), at 64x128,
    where psi is constant in theta bit for bit, and at 16x70, where psi
    carries a theta-pattern of a few ulp off the outer circle: the FFT
    rounding of a state file written by the 2D Fourier Newton solve."""
    out = {}
    for name, g in (("64x128", grid64), ("16x70", grid16x70)):
        state = solve_steady(bump_profile, GAMMA4, grid=g)
        psi = state.psi.values
        if name == "16x70":
            ulps = np.random.default_rng(8).integers(-4, 5, size=psi.shape)
            ulps[-1] = 0
            psi = psi + ulps * np.spacing(np.abs(psi).max())
        out[name, "psi"] = g.field(psi), max(2 * g.Nr, 128)
        out[name, "omega"] = g.field(bump_profile(psi)), max(g.Nr, 64)
    return out


@pytest.fixture
def seed_counts(monkeypatch):
    """The state-vector size of every chart integration in the test."""
    sizes, real = [], orbit.solve_ivp

    def recorded(fun, t_span, y0, *args, **kwargs):
        sizes.append(np.size(y0))
        return real(fun, t_span, y0, *args, **kwargs)

    monkeypatch.setattr(orbit, "solve_ivp", recorded)
    return sizes


@pytest.mark.parametrize("grid", ["64x128", "16x70"])
@pytest.mark.parametrize("which", ["psi", "omega"])
def test_theta_constant_chart_integrates_one_seed(seed_counts, bump_fields,
                                                  grid, which):
    field, Nt = bump_fields[grid, which]
    if grid == "16x70":
        assert np.abs(field.values - field.values[:, :1]).max() > 0
    chart = level_chart(field, Nt=Nt)
    assert seed_counts == [2]
    assert chart.r.shape == chart.theta.shape == chart.arc_weight.shape \
        == (Nt, field.grid.Ns)


def test_theta_varying_chart_integrates_every_seed(seed_counts, grid64, omega_wavy):
    # a theta-variation of 1e-9 of the range passes for rounding against
    # max|values| (1e5) but not against the range (3)
    g = grid64
    offset = g.field_from(lambda r, t: 1e5 + r**2
                          + 3e-9 * np.sin(np.pi * (r - 1)) * np.sin(t))
    for field in (omega_wavy, offset):
        level_chart(field)
    assert seed_counts == [2 * g.Ns] * 2


@pytest.mark.parametrize("grid", ["64x128", "16x70"])
@pytest.mark.parametrize("which", ["psi", "omega"])
def test_one_seed_chart_matches_every_seed_chart(monkeypatch, bump_fields,
                                                 grid, which):
    field, Nt = bump_fields[grid, which]
    one = level_chart(field, Nt=Nt)
    monkeypatch.setattr(orbit, "theta_constant", lambda values, scale: False)
    every = level_chart(field, Nt=Nt)
    for name in ("r", "theta", "grad_norm", "arc_weight", "travel_time"):
        ours, ref = getattr(one, name), getattr(every, name)
        assert np.abs(ours - ref).max() <= 1e-11 * np.abs(ref).max(), name


def test_chart_rejects_constant(grid64):
    with pytest.raises((CriticalPointError, NotInFplusError)):
        level_chart(grid64.constant(1.0))


def test_chart_rejects_nonconstant_boundary(grid64):
    f = grid64.field_from(lambda r, t: r**2 + 0.3 * np.sin(t))
    with pytest.raises(NotInFplusError):
        level_chart(f)


def test_j_perimeter(chart_r2, grid64):
    J = j_functional(chart_r2, grid64.constant(1.0))
    # J(lambda) = circle perimeter 2 pi sqrt(lambda)
    assert abs(J(4.0) - 4 * np.pi) < 1e-6
    lam = chart_r2.levels
    assert np.abs(J.values - 2 * np.pi * np.sqrt(lam)).max() < 1e-6


def test_j_travel_time_constant(chart_r2, grid64):
    gr, gt = gradient(grid64.field_from(lambda r, t: r**2))
    gn = grid64.field(np.sqrt(gr.values**2 + gt.values**2))
    J = j_functional(chart_r2, grid64.field(1.0 / gn.values))
    assert np.abs(J.values - np.pi).max() < 1e-6


def test_coarea_identity_battery(omega_wavy, chart_wavy, grid64):
    # int u |grad w| zeta(w) dx = int zeta(lam) J u(lam) dlam for bump zeta
    rng = np.random.default_rng(4)
    gr, gt = gradient(omega_wavy)
    gn = grid64.field(np.sqrt(gr.values**2 + gt.values**2))
    lamlo, lamhi = chart_wavy.omega_min, chart_wavy.omega_max
    width = 0.15 * (lamhi - lamlo)
    centers = np.linspace(lamlo + 1.05 * width, lamhi - 1.05 * width, 5)

    for c in centers:
        def zeta(x):
            u = np.clip((x - c) / width, -1.0, 1.0)
            return (1 - u**2) ** 4

        a, b = rng.normal(size=2)
        u = grid64.field_from(lambda r, t: a * np.sin(r) + b * np.cos(2 * t) + 2.5)
        lhs = integrate(u * gn * grid64.field(zeta(omega_wavy.values)))
        J = j_functional(chart_wavy, u)
        lam_fine = np.linspace(lamlo, lamhi, 4001)
        rhs = np.trapezoid(zeta(lam_fine) * J(lam_fine), lam_fine)
        assert abs(lhs - rhs) < 1e-3 * max(abs(lhs), abs(rhs), 1e-6)


@pytest.mark.parametrize("Nr, Ns", [(16, 70), (64, 128), (128, 256)])
def test_j_over_grad_radial_is_travel_time_on_circles(Nr, Ns, bump_profile):
    # the levels of the bump psi chart are circles, so the loop integral of
    # a theta-constant field is its value times the travel time
    g = make_annulus(1.0, 2.0, Nr, Ns)
    chart = level_chart(solve_steady(bump_profile, GAMMA4, grid=g).psi,
                        Nt=max(2 * Nr, 128))
    u_r = np.random.default_rng(9).normal(size=Nr)
    ref = j_over_grad(chart, g.field(np.repeat(u_r[:, None], Ns, 1))).values
    ours = j_over_grad_radial(chart) @ u_r
    assert ours.shape == ref.shape == (max(2 * Nr, 128),)
    assert np.abs(ours - ref).max() <= 1e-12 * np.abs(ref).max()


def test_j_over_grad_radial_refuses_levels_off_circles(chart_wavy):
    with pytest.raises(ValueError, match="circles"):
        j_over_grad_radial(chart_wavy)


def test_dist_radial_closed_form(omega_r2, chart_r2):
    A, Ainv = chart_r2.distribution
    # A(lam) = pi (lam - 1), Ainv(mu) = 1 + mu/pi
    lam = chart_r2.levels
    assert np.abs(A.values - np.pi * (lam - 1)).max() < 1e-5
    assert abs(Ainv(np.pi) - 2.0) < 1e-5
    mus = np.linspace(0, 3 * np.pi, 33)
    assert np.abs(Ainv(mus) - (1 + mus / np.pi)).max() < 1e-5
    assert abs(A.area_discrepancy) < 5e-3


def test_dist_aprime_constant(chart_r2):
    aprime = j_over_grad(chart_r2, chart_r2.grid.constant(1.0))
    assert np.abs(aprime.values - np.pi).max() < 1e-6


def test_dist_matches_cell_count(omega_wavy, chart_wavy, grid64):
    A, _ = chart_wavy.distribution
    h2 = grid64.h**2
    qs = np.linspace(0.1, 0.9, 9)
    lam = chart_wavy.omega_min + qs * (chart_wavy.omega_max - chart_wavy.omega_min)
    for l in lam:
        oracle = sublevel_area(omega_wavy, l)
        assert abs(A(l) - oracle) < 2 * h2 * grid64.area


def test_dist_fn_is_its_chart_distribution(grid32):
    # on 32 rows the chart takes 64: dist_fn returns the distribution of
    # that chart, value for value
    om = grid32.field_from(
        lambda r, t: r**2 + 0.05 * np.sin(np.pi * (r - 1)) * np.sin(t))
    A, Ainv = dist_fn(om)
    ref = level_chart(om, Nt=max(grid32.Nr, 64)).distribution
    assert A.values.size == 64
    assert np.array_equal(A.values, ref[0].values)
    assert np.array_equal(Ainv.values, ref[1].values)
    assert A.area_discrepancy == ref[0].area_discrepancy
    mus = np.linspace(0.0, grid32.area, 33)
    assert np.array_equal(Ainv(mus), ref[1](mus))


def test_dist_q_identity(omega_wavy, chart_wavy):
    A, Ainv = chart_wavy.distribution
    lam = np.linspace(chart_wavy.omega_min, chart_wavy.omega_max, 41)
    assert np.abs(Ainv(np.asarray(A(lam))) - lam).max() < 1e-8


def test_pushforward_zero_eps(omega_wavy, grid64):
    alpha = grid64.field_from(lambda r, t: (r - 1) * (2 - r) * np.sin(t))
    out = pushforward(omega_wavy, alpha, 0.0)
    assert np.array_equal(out.values, omega_wavy.values)


def test_pushforward_radial_alpha(omega_r2, grid64):
    alpha = grid64.field_from(lambda r, t: np.sin(np.pi * r))
    out = pushforward(omega_r2, alpha, 0.03)
    assert np.abs(out.values - omega_r2.values).max() < 1e-8


def test_pushforward_preserves_distribution(omega_wavy, grid64):
    alpha = grid64.field_from(lambda r, t: 0.5 * (r - 1) * (2 - r) * np.cos(t))
    moved = pushforward(omega_wavy, alpha, 0.05)
    A0, _ = dist_fn(omega_wavy)
    A1, _ = dist_fn(moved)
    h2 = grid64.h**2
    qs = np.linspace(0.1, 0.9, 9)
    for q in qs:
        lam = chartless_level(A0, q)
        assert abs(A1(lam) - A0(lam)) < 3 * h2 * grid64.area


def chartless_level(A, q):
    return A.a + q * (A.b - A.a)


def test_dq_constant_shift(omega_wavy, chart_wavy, grid64):
    out = dq(omega_wavy, chart_wavy, grid64.constant(1.0))
    assert np.abs(out.values - 1.0).max() < 1e-6


def test_dq_and_d2q_build_one_distribution(monkeypatch, omega_wavy, grid64):
    # the chart owns its distribution: dq and d2q read it, neither refits it
    calls = []
    inverse = Monotone1D.inverse

    def counted(self):
        calls.append(self)
        return inverse(self)

    monkeypatch.setattr(Monotone1D, "inverse", counted)
    chart = level_chart(omega_wavy)
    nu = grid64.field_from(lambda r, t: np.cos(np.pi * (r - 1)))
    dq(omega_wavy, chart, nu)
    d2q(omega_wavy, chart, nu, nu)
    assert len(calls) == 1


def test_dq_mean_zero_direction(omega_r2, chart_r2, grid64):
    nu = grid64.field_from(lambda r, t: -2 * (r - 1) * (2 - r) * np.sin(t))
    out = dq(omega_r2, chart_r2, nu)
    assert out.max_norm() < 1e-6


def test_dq_central_difference(omega_wavy, chart_wavy, grid64):
    nu = grid64.field_from(
        lambda r, t: np.cos(np.pi * (r - 1)) + 0.5 * np.sin(2 * t) * np.sin(np.pi * (r - 1)))
    out = dq(omega_wavy, chart_wavy, nu)
    eps = 1e-3
    _, Ap = dist_fn(grid64.field(omega_wavy.values + eps * nu.values))
    _, Am = dist_fn(grid64.field(omega_wavy.values - eps * nu.values))
    mus = np.linspace(0.05 * grid64.area, 0.95 * grid64.area, 41)
    fd = (Ap(mus) - Am(mus)) / (2 * eps)
    ours = out(mus)
    scale = max(np.abs(ours).max(), 1e-6)
    assert np.abs(fd - ours).max() < 2e-3 * scale + 1e-3 * grid64.h**2


def test_d2q_constant_direction(omega_wavy, chart_wavy, grid64):
    one = grid64.constant(1.0)
    out = d2q(omega_wavy, chart_wavy, one, one)
    assert out.max_norm() < 1e-5


def test_d2q_symmetry(omega_wavy, chart_wavy, grid64):
    nu1 = grid64.field_from(lambda r, t: np.sin(np.pi * r) * np.cos(t))
    nu2 = grid64.field_from(lambda r, t: (r - 1.5) ** 2 + 0.3 * np.sin(2 * t))
    a = d2q(omega_wavy, chart_wavy, nu1, nu2)
    b = d2q(omega_wavy, chart_wavy, nu2, nu1)
    assert np.abs(a.values - b.values).max() < 1e-8


def test_d2q_second_difference(omega_wavy, chart_wavy, grid64):
    nu = grid64.field_from(
        lambda r, t: np.cos(np.pi * (r - 1)) + 0.4 * np.sin(np.pi * (r - 1)) * np.cos(t))
    out = d2q(omega_wavy, chart_wavy, nu, nu)
    eps = 2e-2
    _, A0 = dist_fn(omega_wavy)
    _, Ap = dist_fn(grid64.field(omega_wavy.values + eps * nu.values))
    _, Am = dist_fn(grid64.field(omega_wavy.values - eps * nu.values))
    mus = np.linspace(0.05 * grid64.area, 0.95 * grid64.area, 31)
    sd = (Ap(mus) - 2 * A0(mus) + Am(mus)) / eps**2
    scale = max(np.abs(out(mus)).max(), 1e-3)
    assert np.abs(sd - out(mus)).max() < 1e-2 * scale + 10 * grid64.h


def test_j_derivative_identity(chart_r2, grid64):
    # d/dlam J(u) = J(div(u N)/|grad w|); for w = r^2, u = 1 both are
    # pi / sqrt(lam)
    omega = grid64.field_from(lambda r, t: r**2)
    gr, gt = gradient(omega)
    gn = np.sqrt(gr.values**2 + gt.values**2)
    vr = grid64.field(gr.values / gn)
    vt = grid64.field(gt.values / gn)
    from annuflow.grid import divergence
    rhs_field = grid64.field(divergence(vr, vt).values)
    rhs = j_over_grad(chart_r2, rhs_field)
    lam = chart_r2.levels
    exact = np.pi / np.sqrt(lam)
    J = j_functional(chart_r2, grid64.constant(1.0))
    dJ = np.gradient(J.values, lam)
    inner = slice(3, -3)
    assert np.abs(rhs.values - exact).max() < 1e-4
    assert np.abs(dJ - exact)[inner].max() < 1e-3


def test_j_variation_identity(omega_wavy, chart_wavy, grid64):
    # d/deps J_{w+eps nu}(u) = -J(nu div(u N)/|grad w|) at eps = 0,
    # compared on the 5..95% level band
    nu = grid64.field_from(
        lambda r, t: np.sin(np.pi * (r - 1)) * np.cos(t) + 0.2)
    u = grid64.field_from(lambda r, t: 1.5 + 0.3 * np.sin(r + t))
    gr, gt = gradient(omega_wavy)
    gn = np.sqrt(gr.values**2 + gt.values**2)
    from annuflow.grid import divergence
    div_uN = divergence(grid64.field(u.values * gr.values / gn),
                        grid64.field(u.values * gt.values / gn))
    rhs = j_over_grad(chart_wavy, grid64.field(-nu.values * div_uN.values))

    eps = 1e-3
    Jp = j_functional(level_chart(grid64.field(omega_wavy.values + eps * nu.values)), u)
    Jm = j_functional(level_chart(grid64.field(omega_wavy.values - eps * nu.values)), u)
    # compare at fixed lambda on a common interior band (5% margins)
    lo = max(Jp.a, Jm.a, rhs.a)
    hi = min(Jp.b, Jm.b, rhs.b)
    band = 0.05 * (hi - lo)
    lam = np.linspace(lo + band, hi - band, 41)
    fd = (Jp(lam) - Jm(lam)) / (2 * eps)
    ours = rhs(lam)
    scale = max(np.abs(ours).max(), 1e-6)
    assert np.abs(fd - ours).max() < 2e-3 * scale


def test_tangency_of_bracket(omega_r2, chart_r2, grid64):
    # nu = {w, alpha} computed analytically for w = r^2: {r^2, g cos t} =
    # -2 g(r) sin t
    gfun = lambda r: (r - 1) * (2 - r)
    nu = grid64.field_from(lambda r, t: -2 * gfun(r) * np.sin(t))
    defect = tangency_defect(chart_r2, nu)
    scale = np.abs(nu.values).max() * grid64.area
    assert defect.max_norm() < 1e-5 * scale
    assert is_tangent(chart_r2, nu, rel=1e-5)


def test_tangency_constant_not_tangent(chart_r2, grid64):
    defect = tangency_defect(chart_r2, grid64.constant(1.0))
    assert defect.values.min() > 0  # equals A'(lam) > 0


def test_tangency_matches_dist_derivative(omega_wavy, chart_wavy, grid64):
    # defect(lam) = -d/deps A_{w + eps nu}(lam)
    nu = grid64.field_from(
        lambda r, t: np.sin(np.pi * (r - 1)) * (1 + 0.5 * np.cos(t)))
    defect = tangency_defect(chart_wavy, nu)
    eps = 1e-3
    Ap, _ = dist_fn(grid64.field(omega_wavy.values + eps * nu.values))
    Am, _ = dist_fn(grid64.field(omega_wavy.values - eps * nu.values))
    lam = np.linspace(chart_wavy.omega_min + 0.05 * np.ptp(chart_wavy.levels),
                      chart_wavy.omega_max - 0.05 * np.ptp(chart_wavy.levels), 31)
    fd = -(Ap(lam) - Am(lam)) / (2 * eps)
    ours = defect(lam)
    scale = max(np.abs(ours).max(), 1e-6)
    assert np.abs(fd - ours).max() < 2e-3 * scale + 5 * grid64.h**2


def test_reconstruct_zero(chart_r2, grid64):
    alpha = reconstruct_alpha(chart_r2, grid64.constant(0.0))
    assert np.abs(alpha.values).max() < 1e-12


def test_reconstruct_closed_form(omega_r2, chart_r2, grid64):
    gfun = lambda r: (r - 1) * (2 - r)
    nu = grid64.field_from(lambda r, t: -2 * gfun(r) * np.sin(t))
    alpha = reconstruct_alpha(chart_r2, nu)
    exact = grid64.field_from(lambda r, t: gfun(r) * np.cos(t))
    h2 = grid64.h**2
    assert np.abs(alpha.values - exact.values).max() < 20 * h2


def test_reconstruct_random_tangent(omega_wavy, chart_wavy, grid64):
    rng = np.random.default_rng(9)
    a, b = rng.normal(size=2)
    raw = grid64.field_from(
        lambda r, t: a * np.sin(np.pi * (r - 1)) * np.cos(2 * t)
        + b * np.sin(np.pi * (r - 1)) * np.sin(t) + 0.3 * (r - 1.5))
    nu = project_tangent(chart_wavy, raw)
    alpha = reconstruct_alpha(chart_wavy, nu, tol_rel=1e-3)
    resid = poisson_bracket(omega_wavy, alpha).values - nu.values
    assert np.abs(resid).max() < 1e-3 * np.abs(nu.values).max() * 50


def test_reconstruct_not_tangent_raises(chart_wavy, grid64):
    with pytest.raises(NotTangentError):
        reconstruct_alpha(chart_wavy, grid64.constant(1.0))


@pytest.fixture(scope="module")
def steady_ref(grid64):
    F = Profile1D.from_callable(lambda s: 0.5 * s - 1.0, -3.0,
                                strictly_monotone=True)
    return solve_steady(F, GAMMA4, grid=grid64)


def test_second_variation_function_of_omega(steady_ref):
    # alpha = w gives nu = {w, w} = 0 and value 0
    val = second_variation(steady_ref, steady_ref.omega)
    assert abs(val) < 1e-20


def test_second_variation_nonnegative(steady_ref, grid64):
    alpha = grid64.field_from(lambda r, t: (r - 1) * (2 - r) * np.sin(t))
    assert second_variation(steady_ref, alpha) >= 0


def test_second_variation_matches_energy(steady_ref, grid64):
    alpha = grid64.field_from(
        lambda r, t: 0.5 * (r - 1) * (2 - r) * (np.sin(t) + 0.5))
    val = second_variation(steady_ref, alpha)

    def energy_at(eps):
        moved = pushforward(steady_ref.omega, alpha, eps)
        return energy(moved, steady_ref.gamma)

    e0 = energy_at(0.0)

    def second_diff(eps):
        return (energy_at(eps) - 2 * e0 + energy_at(-eps)) / eps**2

    d1 = second_diff(1e-2)
    d2 = second_diff(5e-3)
    richardson = (4 * d2 - d1) / 3
    assert abs(richardson - val) < 1e-2 * abs(val)
