"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Grids stay at or below 96x192 and every criterion pins the tolerance it
states; nothing is deferred to calibration.
"""

import numpy as np
import pytest

from annuflow.curves import Curve1D
from annuflow.elliptic import check_nd1, principal_eigenvalue, solve_poisson
from annuflow.grid import gradient, integrate, make_annulus, poisson_bracket
from annuflow.moser import (MoserConfig, dt, k_apply, moser_solve,
                            right_inverse, t_map, uniqueness_probe, vb)
from annuflow.orbit import (check_nd2, dist_fn, dq, d2q, j_functional,
                            j_over_grad, level_chart, project_tangent,
                            pushforward, reconstruct_alpha, second_variation,
                            tangency_defect)
from annuflow.steady import Profile1D, SteadyState, energy, solve_steady
from annuflow.tame import interp_check, verify_smoothing

from oracles import radial_steady, sublevel_area

GAMMA2 = -2 * np.pi
GAMMA4 = -4 * np.pi
CBAR = -3.0


def _report(num, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"{status} criterion {num:02d} ({name}): {detail}")
    assert ok, f"criterion {num:02d} ({name}): {detail}"


def _fbar():
    return Profile1D.from_callable(lambda s: 0.5 * s - 1.0, CBAR,
                                   strictly_monotone=True)


@pytest.fixture(scope="module")
def g64():
    return make_annulus(1.0, 2.0, 64, 128)


@pytest.fixture(scope="module")
def ref64(g64):
    return solve_steady(_fbar(), GAMMA4, grid=g64)


@pytest.fixture(scope="module")
def wavy(g64):
    om = g64.field_from(
        lambda r, t: r**2 + 0.05 * np.sin(np.pi * (r - 1)) * np.sin(t))
    return om, level_chart(om)


def test_criterion_01_closed_form_elliptic():
    errs = {}
    for nr in (32, 64, 128):
        g = make_annulus(1.0, 2.0, nr, 16)
        F = Profile1D.from_callable(lambda s: 0.0 * s, CBAR)
        st = solve_steady(F, GAMMA2, grid=g)
        exact = g.field_from(lambda r, t: np.log(r / 2))
        errs[nr] = np.abs(st.psi.values - exact.values).max()
        if errs[nr] > 10 * g.hr**2:
            _report(1, "closed-form elliptic", False,
                    f"sup error {errs[nr]:.2e} > 10 h^2 at Nr={nr}")
    orders = [np.log2(errs[32] / errs[64]), np.log2(errs[64] / errs[128])]
    ok = min(orders) >= 1.9
    _report(1, "closed-form elliptic", ok,
            f"sup errors {errs[32]:.2e}/{errs[64]:.2e}/{errs[128]:.2e}, "
            f"orders {orders[0]:.2f}, {orders[1]:.2f} (need >= 1.9)")


def test_criterion_02_radial_oracle():
    g = make_annulus(1.0, 2.0, 128, 16)
    worst = 0.0
    for fn in (lambda s: 0.5 * s - 1.0, lambda s: s):
        F = Profile1D.from_callable(fn, CBAR)
        st = solve_steady(F, GAMMA2, grid=g)
        oracle = radial_steady(fn, GAMMA2)(g.r)
        worst = max(worst, np.abs(st.psi.values - oracle[:, None]).max())
    ok = worst < 1e-4
    _report(2, "radial oracle equivalence", ok,
            f"sup deviation {worst:.2e} (need < 1e-4)")


def test_criterion_03_energy(g64):
    F = Profile1D.from_callable(lambda s: 0.0 * s, CBAR)
    st = solve_steady(F, GAMMA2, grid=g64)
    e = energy(st)
    gap_harmonic = abs(e - np.pi * np.log(2))
    ok = gap_harmonic < 1e-3
    rng = np.random.default_rng(12)
    worst = 0.0
    for _ in range(5):
        a, b = rng.normal(size=2)
        omega = g64.field_from(
            lambda r, t: a * np.sin(2 * r) + b * np.cos(t) * (2 - r) * (r - 1))
        gamma = float(rng.normal())
        psi = solve_poisson(omega, gamma)
        gr, gt = gradient(psi)
        e1 = 0.5 * integrate(gr * gr + gt * gt)
        e2 = -0.5 * integrate(omega * psi) + 0.5 * gamma * psi.values[0].mean()
        worst = max(worst, abs(e1 - e2) / max(1.0, abs(e1)))
    ok = ok and worst < 100 * g64.h**2
    _report(3, "energy closed form", ok,
            f"harmonic gap {gap_harmonic:.2e} (< 1e-3), identity gap "
            f"{worst:.2e} (< {100 * g64.h**2:.2e})")


def test_criterion_04_coarea_battery(g64, wavy):
    om_w, chart_w = wavy
    om_r = g64.field_from(lambda r, t: r**2)
    chart_r = level_chart(om_r)
    rng = np.random.default_rng(4)
    worst = 0.0
    count = 0
    for om, chart in ((om_w, chart_w), (om_r, chart_r)):
        gr, gt = gradient(om)
        gn = g64.field(np.sqrt(gr.values**2 + gt.values**2))
        lamlo, lamhi = chart.omega_min, chart.omega_max
        width = 0.15 * (lamhi - lamlo)
        for c in np.linspace(lamlo + 1.05 * width, lamhi - 1.05 * width, 5):
            def zeta(x):
                u = np.clip((x - c) / width, -1.0, 1.0)
                return (1 - u**2) ** 4

            a, b = rng.normal(size=2)
            u = g64.field_from(
                lambda r, t: a * np.sin(r) + b * np.cos(2 * t) + 2.5)
            lhs = integrate(u * gn * g64.field(zeta(om.values)))
            J = j_functional(chart, u)
            lam = np.linspace(lamlo, lamhi, 4001)
            rhs = np.trapezoid(zeta(lam) * J(lam), lam)
            worst = max(worst, abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-6))
            count += 1
    travel = j_over_grad(chart_r, g64.constant(1.0))
    pi_gap = float(np.abs(travel.values - np.pi).max())
    ok = worst < 1e-3 and pi_gap < 1e-6 and count == 10
    _report(4, "coarea battery", ok,
            f"{count} triples, worst rel err {worst:.2e} (< 1e-3), "
            f"radial travel-time gap {pi_gap:.2e} (< 1e-6)")


def test_criterion_05_distribution(g64, wavy):
    om_r = g64.field_from(lambda r, t: r**2)
    _, ainv = dist_fn(om_r)
    mus = np.linspace(0.0, 3 * np.pi, 97)
    affine_gap = np.abs(ainv(mus) - (1 + mus / np.pi)).max()
    om_w, chart_w = wavy
    A = chart_w.distribution
    h2 = g64.h**2
    qs = np.linspace(0.1, 0.9, 9)
    worst = 0.0
    for q in qs:
        lam = chart_w.omega_min + q * (chart_w.omega_max - chart_w.omega_min)
        worst = max(worst, abs(float(A(lam)) - sublevel_area(om_w, lam)))
    ok = affine_gap < 1e-5 and worst < 2 * h2 * g64.area
    _report(5, "distribution closed form", ok,
            f"radial inverse gap {affine_gap:.2e} (< 1e-5), cell-count gap "
            f"{worst:.2e} (< {2 * h2 * g64.area:.2e})")


def test_criterion_06_derivative_identities(g64, wavy):
    om, chart = wavy
    nu = g64.field_from(
        lambda r, t: np.cos(np.pi * (r - 1))
        + 0.5 * np.sin(2 * t) * np.sin(np.pi * (r - 1)))
    mus = np.linspace(0.05 * g64.area, 0.95 * g64.area, 41)
    # first derivative vs central difference, eps = 1e-3
    ours = dq(om, chart, nu)
    eps = 1e-3
    _, Ap = dist_fn(g64.field(om.values + eps * nu.values))
    _, Am = dist_fn(g64.field(om.values - eps * nu.values))
    fd = (Ap(mus) - Am(mus)) / (2 * eps)
    dq_err = np.abs(fd - ours(mus)).max() / np.abs(ours(mus)).max()
    # second derivative vs second difference
    out2 = d2q(om, chart, nu, nu)
    eps = 2e-2
    _, A0 = dist_fn(om)
    _, Ap = dist_fn(g64.field(om.values + eps * nu.values))
    _, Am = dist_fn(g64.field(om.values - eps * nu.values))
    sd = (Ap(mus) - 2 * A0(mus) + Am(mus)) / eps**2
    d2q_err = np.abs(sd - out2(mus)).max() / np.abs(out2(mus)).max()
    # level derivative of the loop integral (radial closed form)
    om_r = g64.field_from(lambda r, t: r**2)
    chart_r = level_chart(om_r)
    gr, gt = gradient(om_r)
    gn = np.sqrt(gr.values**2 + gt.values**2)
    from annuflow.grid import divergence
    div_N = divergence(g64.field(gr.values / gn), g64.field(gt.values / gn))
    rhs_curve = j_over_grad(chart_r, div_N)
    lam_r = chart_r.levels
    dj_err = np.abs(rhs_curve.values - np.pi / np.sqrt(lam_r)).max()
    # variation of the loop integral in the field, fixed level band
    u = g64.field_from(lambda r, t: 1.5 + 0.3 * np.sin(r + t))
    gr, gt = gradient(om)
    gn = np.sqrt(gr.values**2 + gt.values**2)
    div_uN = divergence(g64.field(u.values * gr.values / gn),
                        g64.field(u.values * gt.values / gn))
    rhs = j_over_grad(chart, g64.field(-nu.values * div_uN.values))
    eps = 1e-3
    Jp = j_functional(level_chart(g64.field(om.values + eps * nu.values)), u)
    Jm = j_functional(level_chart(g64.field(om.values - eps * nu.values)), u)
    lo = max(Jp.a, Jm.a, rhs.a)
    hi = min(Jp.b, Jm.b, rhs.b)
    band = 0.05 * (hi - lo)
    lam = np.linspace(lo + band, hi - band, 41)
    dje_err = (np.abs((Jp(lam) - Jm(lam)) / (2 * eps) - rhs(lam)).max()
               / np.abs(rhs(lam)).max())
    ok = dq_err < 1e-3 and d2q_err < 1e-2 and dj_err < 1e-4 and dje_err < 1e-3
    _report(6, "derivative identities", ok,
            f"dq {dq_err:.2e} (< 1e-3), d2q {d2q_err:.2e} (< 1e-2), "
            f"level-derivative {dj_err:.2e} (< 1e-4), "
            f"field-variation {dje_err:.2e} (< 1e-3)")


def test_criterion_07_orbit_invariance(g64, wavy):
    om, chart = wavy
    h2 = g64.h**2
    A0 = chart.distribution
    generators = [
        g64.field_from(lambda r, t: 0.5 * (r - 1) * (2 - r) * np.cos(t)),
        g64.field_from(lambda r, t: 0.3 * (r - 1) * (2 - r) * np.sin(2 * t)),
        g64.field_from(lambda r, t: 0.2 * np.sin(np.pi * (r - 1))),
    ]
    worst_inv = 0.0
    for alpha in generators:
        moved = pushforward(om, alpha, 0.05)
        A1, _ = dist_fn(moved)
        for q in np.linspace(0.1, 0.9, 9):
            lam = A0.a + q * (A0.b - A0.a)
            worst_inv = max(worst_inv, abs(float(A1(lam)) - float(A0(lam))))
    # analytic bracket direction on the radial field
    om_r = g64.field_from(lambda r, t: r**2)
    chart_r = level_chart(om_r)
    nu = g64.field_from(lambda r, t: -2 * (r - 1) * (2 - r) * np.sin(t))
    defect = tangency_defect(chart_r, nu).max_norm()
    defect_tol = 1e-5 * np.abs(nu.values).max() * g64.area
    alpha = reconstruct_alpha(chart_r, nu)
    resid = np.abs(poisson_bracket(om_r, alpha).values - nu.values).max()
    # a projected generic direction on the wavy field
    raw = g64.field_from(
        lambda r, t: np.sin(np.pi * (r - 1)) * np.cos(2 * t) + 0.3 * (r - 1.5))
    nu2 = project_tangent(chart, raw)
    alpha2 = reconstruct_alpha(chart, nu2, tol_rel=1e-3)
    resid2 = np.abs(poisson_bracket(om, alpha2).values - nu2.values).max()
    rec_rel = max(resid / np.abs(nu.values).max(),
                  resid2 / np.abs(nu2.values).max())
    ok = (worst_inv < 3 * h2 * g64.area and defect < defect_tol
          and rec_rel < 1e-3)
    _report(7, "orbit invariance", ok,
            f"invariance {worst_inv:.2e} (< {3 * h2 * g64.area:.2e}), "
            f"defect {defect:.2e} (< {defect_tol:.2e}), reconstruction "
            f"{rec_rel:.2e} (< 1e-3)")


def test_criterion_08_second_variation(ref64, g64):
    alpha = g64.field_from(
        lambda r, t: 0.5 * (r - 1) * (2 - r) * (np.sin(t) + 0.5))
    val = second_variation(ref64, alpha)

    def energy_at(e):
        return energy(pushforward(ref64.omega, alpha, e), ref64.gamma)

    e0 = energy_at(0.0)

    def second_diff(e):
        return (energy_at(e) - 2 * e0 + energy_at(-e)) / e**2

    d1 = second_diff(1e-2)
    d2 = second_diff(5e-3)
    richardson = (4 * d2 - d1) / 3
    rel = abs(richardson - val) / abs(val)
    ok = rel < 1e-2 and val >= 0
    _report(8, "second variation", ok,
            f"value {val:.6f} >= 0, Richardson gap {rel:.2e} (< 1e-2)")


def test_criterion_09_operator_identities(ref64, g64):
    area = g64.area
    mus = np.linspace(0, area, 129)
    battery = [
        np.ones_like(mus),
        mus / area,
        np.sin(np.pi * mus / area),
        np.cos(2 * np.pi * mus / area),
        (mus / area) ** 3 - 0.5 * mus / area,
    ]
    worst_m = 0.0
    worst_l = 0.0
    for vals in battery:
        gcur = Curve1D(0.0, area, vals.copy())
        scale = max(np.abs(vals).max(), 1e-12)
        lhs = dt(ref64, vb(ref64, gcur))
        rhs = vals + k_apply(ref64, gcur).values
        worst_m = max(worst_m, np.abs(lhs.values - rhs).max() / scale)
        f = right_inverse(ref64, gcur)
        back = dt(ref64, f)
        worst_l = max(worst_l, np.abs(back.values - vals).max() / scale)
    ok = worst_m < 1e-6 and worst_l < 1e-6
    _report(9, "operator identities", ok,
            f"Id+K identity {worst_m:.2e}, right-inverse {worst_l:.2e} "
            f"(both < 1e-6)")


def _bump_profile():
    def bumped(s):
        u = np.clip((s + 0.45) / 0.3, -1, 1)
        return 0.5 * s - 1.0 + 0.02 * (1 - u**2) ** 3

    return Profile1D.from_callable(bumped, CBAR, strictly_monotone=True)


def test_criterion_10_inversion_round_trip(g64):
    Fstar = _bump_profile()
    gstar, state_star = t_map(Fstar, GAMMA4, grid=g64, cross_check=False)
    F, state, trace = moser_solve(_fbar(), GAMMA4, gstar,
                                  cfg=MoserConfig(), grid=g64)
    h2 = g64.h**2
    psi_gap = np.abs(state.psi.values - state_star.psi.values).max()
    res = trace.residuals
    floor = max(10 * res.min(), 1e-12)
    active = [i for i, row in enumerate(trace.rows)
              if "truncated" not in row[4] and res[i] > floor]
    pairs = [(a, b) for a, b in zip(active, active[1:]) if b == a + 1]
    ratios = [np.log(res[b]) / np.log(res[a]) for a, b in pairs]
    ok = (psi_gap < 5 * h2 and trace.repair_count <= 2
          and len(ratios) > 0 and min(ratios) >= 1.3)
    _report(10, "inversion round trip", ok,
            f"psi gap {psi_gap:.2e} (< {5 * h2:.2e}), repairs "
            f"{trace.repair_count} (<= 2), superlinear log-ratios "
            f"min {min(ratios) if ratios else float('nan'):.2f} (>= 1.3) over "
            f"{len(ratios)} untruncated pairs")


def test_criterion_11_uniqueness(g64):
    Fstar = _bump_profile()
    gstar, _ = t_map(Fstar, GAMMA4, grid=g64, cross_check=False)
    F0 = _fbar()
    Fa, state_a, _ = moser_solve(F0, GAMMA4, gstar, grid=g64)
    start_b = Profile1D(CBAR, F0.values + 0.01 * np.sin(
        np.pi * F0.grid_x() / CBAR), strictly_monotone=True)
    Fb, state_b, _ = moser_solve(start_b, GAMMA4, gstar, grid=g64)
    h2 = g64.h**2
    rep = uniqueness_probe(state_a, state_b, tol=5 * h2)
    srange = np.linspace(state_a.psi.values.min(), 0.0, 101)
    f_gap = np.abs(Fa(srange) - Fb(srange)).max()
    ok = rep.psi_distance < 5 * h2 and f_gap < 5 * h2 and rep.same_orbit
    _report(11, "uniqueness probe", ok,
            f"verdict {rep.verdict}, psi distance {rep.psi_distance:.2e} and "
            f"profile gap {f_gap:.2e} (both < {5 * h2:.2e})")


def test_criterion_12_nondegeneracy(ref64):
    rep1 = check_nd1(ref64)
    rep2 = check_nd2(ref64)
    # eigenvalue-tuned degenerate case on the coarse grid
    g32 = make_annulus(1.0, 2.0, 32, 64)
    lam1 = principal_eigenvalue(g32)
    F_deg = Profile1D.from_callable(lambda s: -lam1 * s, -2.0)
    psi = solve_poisson(g32.constant(0.0), GAMMA2)
    degenerate = SteadyState(F_deg, psi, GAMMA2, 0.0)
    rep_deg = check_nd1(degenerate)
    ok = rep1.nondegenerate and rep2.nondegenerate and not rep_deg.nondegenerate
    _report(12, "non-degeneracy checks", ok,
            f"nd1 sigma {rep1.sigma_min:.2e}, nd2 sigma {rep2.sigma_min:.2e} "
            f"(both nondegenerate), tuned case sigma {rep_deg.sigma_min:.2e} "
            f"flagged degenerate")


def test_criterion_13_tame_battery():
    battery = [
        lambda x: np.sin(2 * np.pi * x),
        lambda x: np.cos(6 * x) + 0.3 * x,
        lambda x: np.exp(-x) * np.sin(4 * x),
        lambda x: x**3 - x,
        lambda x: 1.0 / (1.0 + 4 * x**2),
    ]
    ts = (4.0, 8.0, 16.0, 32.0)
    worst_s = 0.0
    worst_i = 0.0
    for fn in battery:
        f = Curve1D.from_callable(fn, 0.0, 1.0, 257)
        rep = verify_smoothing(f, 2, 0, ts)
        worst_s = max(worst_s, rep["smooth_ratio"], rep["remainder_ratio"])
        worst_i = max(worst_i, interp_check(f, 1, 0, 2))
    ok = worst_s < 100.0 and worst_i < 50.0
    _report(13, "tame and interpolation battery", ok,
            f"smoothing ratio {worst_s:.2f} (< 100), interpolation ratio "
            f"{worst_i:.2f} (< 50)")
