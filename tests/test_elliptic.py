import numpy as np
import pytest

from annuflow.elliptic import (NdReport, _bordered_matrix, bordered_system,
                                check_nd1, principal_eigenvalue, solve_poisson,
                                solve_ve)
from annuflow.grid import (circulation, circulation_row, gradient, integrate,
                           laplacian, make_annulus)
from annuflow.steady import Profile1D, SteadyState


def test_poisson_harmonic_log(grid64):
    psi, inner = solve_poisson(grid64.constant(0.0), -2 * np.pi)
    exact = grid64.field_from(lambda r, t: np.log(r / 2))
    assert np.abs(psi.values - exact.values).max() < 10 * grid64.hr**2
    assert inner == pytest.approx(-np.log(2), abs=10 * grid64.hr**2)
    assert circulation(psi) == pytest.approx(-2 * np.pi, abs=1e-8)


def test_poisson_constant_vorticity(grid64):
    psi, inner = solve_poisson(grid64.constant(4.0), -4 * np.pi)
    exact = grid64.field_from(lambda r, t: r**2 - 4)
    assert np.abs(psi.values - exact.values).max() < 20 * grid64.hr**2
    assert inner == pytest.approx(-3.0, abs=20 * grid64.hr**2)


def test_poisson_residual_random(grid64):
    rng = np.random.default_rng(11)
    a, b, c = rng.normal(size=3)
    omega = grid64.field_from(
        lambda r, t: a * np.sin(r) + b * np.cos(2 * t) * (r - 1.5) + c)
    gamma = float(rng.normal())
    psi, _ = solve_poisson(omega, gamma)
    res = laplacian(psi).values[1:-1, :] - omega.values[1:-1, :]
    scale = max(1.0, np.abs(omega.values).max())
    assert np.abs(res).max() < 1e-8 * scale
    assert abs(circulation(psi) - gamma) < 1e-8
    # boundary conditions
    assert np.abs(psi.values[-1, :]).max() < 1e-10
    assert np.ptp(psi.values[0, :]) < 1e-10


def test_poisson_projection_property(grid64):
    omega = grid64.field_from(lambda r, t: np.sin(2 * r) + 0.5 * np.cos(t))
    psi, _ = solve_poisson(omega, 1.7)
    om2 = laplacian(psi)
    psi2, _ = solve_poisson(om2, circulation(psi))
    # interior rows of the discrete Laplacian match; the one-sided boundary
    # rows are not part of the solve, so compare psi on the interior
    assert np.abs((psi2.values - psi.values)[1:-1, :]).max() < 1e-7


def test_energy_identity_poisson(grid64):
    rng = np.random.default_rng(5)
    for _ in range(3):
        a, b = rng.normal(size=2)
        omega = grid64.field_from(lambda r, t: a * r + b * np.sin(t) * (2 - r))
        gamma = float(rng.normal())
        psi, inner = solve_poisson(omega, gamma)
        gr, gt = gradient(psi)
        e1 = 0.5 * integrate(gr * gr + gt * gt)
        e2 = -0.5 * integrate(omega * psi) + 0.5 * gamma * inner
        assert abs(e1 - e2) < 100 * grid64.h**2 * max(1.0, abs(e1))


def test_ve_radial_closed_form(grid64):
    phi = solve_ve(grid64.constant(0.0), grid64.constant(4.0))
    exact = grid64.field_from(lambda r, t: r**2 - 2 * np.log(r) - 4 + 2 * np.log(2))
    assert np.abs(phi.values - exact.values).max() < 20 * grid64.hr**2
    assert phi.values[0, 0] == pytest.approx(-3 + 2 * np.log(2), abs=20 * grid64.hr**2)


def test_ve_zero_rhs(grid64):
    c = grid64.field_from(lambda r, t: -1.0 - 0.3 * np.sin(t))
    phi = solve_ve(c, grid64.constant(0.0))
    assert np.abs(phi.values).max() < 1e-12


def test_ve_residual_random(grid64):
    rng = np.random.default_rng(2)
    k = grid64.field(rng.normal(size=(64, 128)))
    c = grid64.constant(-1.0)
    phi = solve_ve(c, k)
    res = (laplacian(phi).values + c.values * phi.values - k.values)[1:-1, :]
    assert np.abs(res).max() < 1e-8 * np.abs(k.values).max()
    assert abs(circulation(phi)) < 1e-9
    assert np.abs(phi.values[-1, :]).max() < 1e-12


def test_ve_linearity(grid64):
    c = grid64.field_from(lambda r, t: -r)
    k1 = grid64.field_from(lambda r, t: np.sin(r))
    k2 = grid64.field_from(lambda r, t: np.cos(2 * t))
    a, b = 1.7, -0.4
    lhs = solve_ve(c, a * k1 + b * k2)
    rhs = a * solve_ve(c, k1).values + b * solve_ve(c, k2).values
    assert np.abs(lhs.values - rhs).max() < 1e-10


def test_ve_maximum_principle(grid64):
    # c <= 0 and k >= 0 (not identically 0) force phi <= 0 inside
    c = grid64.field_from(lambda r, t: -(1 + 0.5 * np.sin(t) ** 2))
    k = grid64.field_from(lambda r, t: (r - 1) * (2 - r) + 0.1)
    phi = solve_ve(c, k)
    assert phi.values[1:-1, :].max() < 1e-12


@pytest.mark.parametrize("shape", [(16, 32), (24, 40)])
def test_bordered_matrix_rows(shape):
    grid = make_annulus(1.0, 2.0, *shape)
    Nr, Ns = shape
    n = Nr * Ns
    c = grid.field_from(lambda r, t: -1.0 + 0.3 * r * np.cos(t) + 0.2 * np.sin(2 * t))
    f = grid.field_from(lambda r, t: np.sin(2 * r) * np.cos(t) + r**2 * np.sin(3 * t))
    A = bordered_system(grid, c).matrix
    x = np.append(f.values.ravel(), 0.7)
    y = A @ x
    # interior rows: the grid Laplacian plus c, angular wrap at k = 0, Ns-1
    expect = (laplacian(f).values + c.values * f.values)[1:-1, :]
    got = y[Ns:n - Ns].reshape(Nr - 2, Ns)
    assert np.abs(got - expect).max() < 1e-12 * np.abs(expect).max()
    # outer rows: identity; inner rows: trace minus the scalar unknown
    assert np.array_equal(y[n - Ns:n], x[n - Ns:n])
    assert np.array_equal(y[:Ns], x[:Ns] - x[n])
    # last row: the circulation functional
    last = A[n].toarray().ravel()
    assert np.array_equal(last[:n], circulation_row(grid).ravel())
    assert last[n] == 0.0


def _steady_bundle(grid, profile, gamma=-2 * np.pi):
    """Assemble a state bundle without running the nonlinear solver."""
    psi, inner = solve_poisson(grid.constant(0.0), gamma)
    omega = grid.field(profile(psi.values))
    return SteadyState(profile, psi, omega, gamma, inner, 0.0)


def test_nd1_positive_slope(grid32):
    F = Profile1D.from_callable(lambda s: 0.5 * s - 1.0, -2.0,
                                strictly_monotone=True)
    state = _steady_bundle(grid32, F)
    rep = check_nd1(state)
    assert isinstance(rep, NdReport)
    assert rep.nondegenerate


def test_nd1_harmonic(grid32):
    F = Profile1D.from_callable(lambda s: 0.0 * s, -2.0)
    rep = check_nd1(_steady_bundle(grid32, F))
    assert rep.nondegenerate


def test_nd1_eigenvalue_tuned_degenerate(grid32):
    lam1 = principal_eigenvalue(grid32)
    # F'(psi) = -lam1 makes Delta - F'(psi) = Delta + lam1 singular
    F = Profile1D.from_callable(lambda s: -lam1 * s, -2.0)
    rep = check_nd1(_steady_bundle(grid32, F))
    assert not rep.nondegenerate
    # well clear of the eigenvalue the margin is restored
    F2 = Profile1D.from_callable(lambda s: -0.5 * lam1 * s, -2.0)
    rep2 = check_nd1(_steady_bundle(grid32, F2))
    assert rep2.nondegenerate


def test_principal_eigenvalue_against_dense():
    # dense generalized eigensolve of A x = -lam E x on a tiny grid
    import scipy.linalg as la

    g = make_annulus(1.0, 2.0, 16, 16)
    A = _bordered_matrix(g, g.constant(0.0)).toarray()
    interior = np.arange(g.Ns, (g.Nr - 1) * g.Ns)
    E = np.zeros_like(A)
    E[interior, interior] = 1.0
    vals = la.eig(A, -E, right=False)
    vals = vals[np.isfinite(vals)]
    real = vals[np.abs(vals.imag) < 1e-8].real
    dense = np.sort(real[real > 1e-10])[0]
    assert principal_eigenvalue(g) == pytest.approx(dense, rel=1e-10)


def test_sigma_min_against_dense(grid32):
    F = Profile1D.from_callable(lambda s: 0.5 * s - 1.0, -2.0)
    state = _steady_bundle(grid32, F)
    rep_iter = check_nd1(state)
    rep_dense = check_nd1(state, dense=True)
    assert rep_iter.sigma_min == pytest.approx(rep_dense.sigma_min, rel=1e-3)
