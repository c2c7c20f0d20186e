import gc
import weakref

import numpy as np
import pytest

from annuflow.cli import _reference_state
from annuflow.elliptic import (FourierSystem, NdReport, _mode_blocks,
                               _singular_values, check_nd1, principal_eigenvalue,
                               radial_psi, solve_poisson, solve_radial)
from annuflow.errors import NoConvergenceError
from annuflow.grid import (circulation, circulation_row, gradient, integrate,
                           laplacian, make_annulus)
from annuflow.steady import Profile1D, SteadyState, solve_steady

from oracles import (all_mode_eigenvalue, bordered_matrix, bordered_rhs,
                     bordered_system, factor, factored_linearization, lu_solve)


@pytest.fixture(scope="module")
def bump64(grid64, bump_profile):
    return solve_steady(bump_profile, -4 * np.pi, grid=grid64)


def test_poisson_harmonic_log(grid64):
    psi = solve_poisson(grid64.constant(0.0), -2 * np.pi)
    exact = grid64.field_from(lambda r, t: np.log(r / 2))
    assert np.abs(psi.values - exact.values).max() < 10 * grid64.hr**2
    assert psi.values[0].mean() == pytest.approx(-np.log(2), abs=10 * grid64.hr**2)
    assert circulation(psi) == pytest.approx(-2 * np.pi, abs=1e-8)


def test_poisson_residual_is_checked(monkeypatch):
    # a residual that misses the check is reported as no-convergence, not
    # returned; no rounding meets a stop of 1e-30
    from annuflow import elliptic

    g = make_annulus(1.0, 2.0, 16, 32)
    monkeypatch.setattr(elliptic, "SOLVE_RTOL", 1e-30)
    with pytest.raises(NoConvergenceError, match="Poisson solve"):
        solve_poisson(g.constant(1.0), -4 * np.pi)


@pytest.mark.parametrize("radii, shape", [((0.2, 1.0), (128, 256)),
                                          ((1.0, 1.2), (128, 256)),
                                          ((1.0, 2.0), (256, 512))],
                         ids=["small-inner", "thin", "256x512"])
def test_poisson_harmonic_passes_its_check(radii, shape):
    # the rounding of a harmonic psi leaves 2e-10 to 4e-10 of the
    # circulation alone here, above SOLVE_RTOL; weighted by the stencil's
    # scale over the circulation row's, the check accepts it
    g = make_annulus(*radii, *shape)
    psi = solve_poisson(g.constant(0.0), -4 * np.pi)
    assert circulation(psi) == pytest.approx(-4 * np.pi, rel=1e-9)
    # the tie rows put the inner constant in every column of row 0
    assert np.ptp(psi.values[0]) <= 1e-13 * abs(psi.values[0, 0])


def test_poisson_constant_vorticity(grid64):
    psi = solve_poisson(grid64.constant(4.0), -4 * np.pi)
    exact = grid64.field_from(lambda r, t: r**2 - 4)
    assert np.abs(psi.values - exact.values).max() < 20 * grid64.hr**2
    assert psi.values[0].mean() == pytest.approx(-3.0, abs=20 * grid64.hr**2)


def test_poisson_residual_random(grid64):
    rng = np.random.default_rng(11)
    a, b, c = rng.normal(size=3)
    omega = grid64.field_from(
        lambda r, t: a * np.sin(r) + b * np.cos(2 * t) * (r - 1.5) + c)
    gamma = float(rng.normal())
    psi = solve_poisson(omega, gamma)
    res = laplacian(psi).values[1:-1, :] - omega.values[1:-1, :]
    scale = max(1.0, np.abs(omega.values).max())
    assert np.abs(res).max() < 1e-8 * scale
    assert abs(circulation(psi) - gamma) < 1e-8
    # boundary conditions
    assert np.abs(psi.values[-1, :]).max() < 1e-10
    assert np.ptp(psi.values[0, :]) < 1e-10


def test_poisson_projection_property(grid64):
    omega = grid64.field_from(lambda r, t: np.sin(2 * r) + 0.5 * np.cos(t))
    psi = solve_poisson(omega, 1.7)
    om2 = laplacian(psi)
    psi2 = solve_poisson(om2, circulation(psi))
    # interior rows of the discrete Laplacian match; the one-sided boundary
    # rows are not part of the solve, so compare psi on the interior
    assert np.abs((psi2.values - psi.values)[1:-1, :]).max() < 1e-7


def test_energy_identity_poisson(grid64):
    rng = np.random.default_rng(5)
    for _ in range(3):
        a, b = rng.normal(size=2)
        omega = grid64.field_from(lambda r, t: a * r + b * np.sin(t) * (2 - r))
        gamma = float(rng.normal())
        psi = solve_poisson(omega, gamma)
        gr, gt = gradient(psi)
        e1 = 0.5 * integrate(gr * gr + gt * gt)
        e2 = -0.5 * integrate(omega * psi) + 0.5 * gamma * psi.values[0].mean()
        assert abs(e1 - e2) < 100 * grid64.h**2 * max(1.0, abs(e1))


def test_ve_radial_closed_form(grid64):
    # (Delta + 0)phi = 4 along r, zero circulation: r^2 - 2 log r + const
    g = grid64
    phi = solve_radial(g, np.zeros(g.Nr), np.full(g.Nr, 4.0), 0.0)
    exact = g.r**2 - 2 * np.log(g.r) - 4 + 2 * np.log(2)
    assert np.abs(phi - exact).max() < 20 * g.hr**2
    assert phi[0] == pytest.approx(-3 + 2 * np.log(2), abs=20 * g.hr**2)


def test_ve_residual_random(grid64):
    rng = np.random.default_rng(2)
    k = grid64.field(rng.normal(size=(64, 128)))
    phi = grid64.field(FourierSystem(grid64, -1.0).solve(k.values, 0.0))
    res = (laplacian(phi).values - phi.values - k.values)[1:-1, :]
    assert np.abs(res).max() < 1e-8 * np.abs(k.values).max()
    assert abs(circulation(phi)) < 1e-9
    assert np.abs(phi.values[-1, :]).max() < 1e-12


def test_ve_linearity(grid64):
    system = FourierSystem(grid64, -grid64.r[1:-1])
    k1 = grid64.field_from(lambda r, t: np.sin(r))
    k2 = grid64.field_from(lambda r, t: np.cos(2 * t))
    a, b = 1.7, -0.4
    lhs = system.solve((a * k1 + b * k2).values, 0.0)
    rhs = a * system.solve(k1.values, 0.0) + b * system.solve(k2.values, 0.0)
    assert np.abs(lhs - rhs).max() < 1e-10


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


@pytest.mark.parametrize("shape", [(32, 64), (64, 128), (128, 256)],
                         ids=lambda s: f"{s[0]}x{s[1]}")
def test_fourier_laplacian_matches_lu(shape):
    # the sparse LU of the assembled bordered matrix is the oracle, for
    # c = 0 and for a radial shift, on random right-hand sides
    grid = make_annulus(1.0, 2.0, *shape)
    shift = -0.5 - 0.1 * (grid.r[1:-1] - 1)
    c = grid.field(np.broadcast_to(np.r_[0.0, shift, 0.0][:, None], shape).copy())
    rng = np.random.default_rng(5)
    for oracle, system in [
            (bordered_system(grid, grid.constant(0.0)), FourierSystem(grid, 0.0)),
            (bordered_system(grid, c), FourierSystem(grid, shift))]:
        for _ in range(3):
            k = rng.normal(size=shape)
            phi = system.solve(k, -4 * np.pi)
            b = bordered_rhs(oracle.n_unknowns, k, -4 * np.pi)
            x_lu = oracle.lu.solve(b)
            phi_lu, inner_lu = x_lu[:-1], x_lu[-1]
            scale = np.abs(phi_lu).max()
            assert np.abs(phi.ravel() - phi_lu).max() <= 1e-12 * scale
            # row 0 holds the inner constant in every column
            assert np.abs(phi[0] - inner_lu).max() <= 1e-12 * abs(inner_lu)
            x = np.append(phi.ravel(), phi[0].mean())
            assert np.linalg.norm(oracle.matrix @ x - b) <= 1e-11 * np.linalg.norm(b)


def _steady_bundle(grid, profile, gamma=-2 * np.pi):
    """Assemble a state bundle without running the nonlinear solver."""
    psi = solve_poisson(grid.constant(0.0), gamma)
    return SteadyState(profile, psi, gamma, 0.0)


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
    A = bordered_matrix(g, g.constant(0.0)).toarray()
    interior = np.arange(g.Ns, (g.Nr - 1) * g.Ns)
    E = np.zeros_like(A)
    E[interior, interior] = 1.0
    vals = la.eig(A, -E, right=False)
    vals = vals[np.isfinite(vals)]
    real = vals[np.abs(vals.imag) < 1e-8].real
    dense = np.sort(real[real > 1e-10])[0]
    assert principal_eigenvalue(g) == pytest.approx(dense, rel=1e-10)


def test_poisson_and_eigenvalue_factorize_nothing(splu_calls):
    # the Poisson problem and the principal eigenvalue both solve the c = 0
    # bordered system through a Fourier solver, which holds no factor
    g = make_annulus(1.0, 2.0, 16, 32)
    solve_poisson(g.constant(1.0), -4 * np.pi)
    solve_poisson(g.constant(2.0), 1.0)
    principal_eigenvalue(g)
    assert splu_calls == []


def test_dropped_grid_is_freed_without_gc():
    # a Poisson solve leaves nothing on the grid that refers back to it
    g = make_annulus(1.0, 2.0, 16, 32)
    solve_poisson(g.constant(1.0), 1.0)
    gc.disable()
    try:
        refs = [weakref.ref(g)]
        del g
        assert [r for r in refs if r() is not None] == []
    finally:
        gc.enable()


def test_sigma_min_against_dense(grid32):
    # the dense SVD of the whole bordered matrix is the oracle
    F = Profile1D.from_callable(lambda s: 0.5 * s - 1.0, -2.0)
    state = _steady_bundle(grid32, F)
    sv = np.linalg.svd(factored_linearization(state).matrix.toarray(), compute_uv=False)
    assert check_nd1(state).sigma_min == pytest.approx(sv[-1], rel=1e-10)


@pytest.mark.parametrize("shape", [(16, 16), (32, 64)], ids=lambda s: f"{s[0]}x{s[1]}")
@pytest.mark.parametrize("eigen_fraction", [0.0, 0.5, 1.0])
def test_mode_block_singular_values_match_dense(shape, eigen_fraction):
    # every singular value of the assembled bordered matrix of Delta + c,
    # with multiplicity, from the theta-mode blocks; c = lam1 is singular
    g = make_annulus(1.0, 2.0, *shape)
    c = eigen_fraction * principal_eigenvalue(g)
    dense = np.linalg.svd(bordered_matrix(g, g.constant(c)).toarray(), compute_uv=False)
    blocks = np.sort(_singular_values(g, np.full(g.Nr - 2, c)))[::-1]
    assert np.abs(blocks - dense).max() <= 1e-10 * dense[0]


@pytest.mark.parametrize("radii", [(1.0, 2.0), (0.2, 1.0)], ids=["1-2", "0.2-1"])
def test_principal_eigenvalue_matches_all_modes(radii):
    # modes 0 and 1 hold the least positive eigenvalue: no mode k > 1 has
    # a smaller one
    g = make_annulus(*radii, 32, 64)
    assert principal_eigenvalue(g) == pytest.approx(all_mode_eigenvalue(g), rel=1e-12)


def test_principal_eigenvalue_reference():
    # the value the nondegeneracy benchmark checks at 20x40
    g = make_annulus(1.0, 2.0, 20, 40)
    assert principal_eigenvalue(g) == pytest.approx(3.216365018716943, rel=1e-12)


@pytest.mark.parametrize("shape", [(32, 64), (64, 128), (128, 256), (192, 384)],
                         ids=lambda s: f"{s[0]}x{s[1]}")
def test_nd1_reference_state_nondegenerate(shape):
    # measured against Delta's mode-0 sigma_min, the margin of the check
    # --suite nd reference state stays near 1.14 as the grid is refined;
    # against the stencil 1-norm, which grows like 1/h^2, the state was
    # called degenerate at 192x384
    rep = check_nd1(_reference_state(make_annulus(1.0, 2.0, *shape)))
    assert rep.nondegenerate
    assert 1.1 <= rep.sigma_min / rep.scale <= 1.2


def test_nd1_refuses_theta_varying_state(grid32):
    # the mode blocks hold only when F'(psi) is constant along theta; a
    # wavy state is refused rather than answered from its theta-mean
    g = grid32
    raw = g.field_from(lambda r, t: r**2 + 0.05 * np.sin(np.pi * (r - 1)) * np.sin(t))
    psi = g.field(2.0 * (raw.values - 4.0) / 3.0)          # inside [-3, 0]
    F = Profile1D.from_callable(lambda s: np.exp(s) + 0.8 * s, -3.0)
    with pytest.raises(ValueError, match="radially symmetric"):
        check_nd1(SteadyState(F, psi, -2 * np.pi, 0.0))


def test_radial_psi_reads_rounding_as_radial(grid32):
    # a theta-variation of a few ulp of max|psi|, as the FFT steps of a
    # factor 5 or 7 of Ns leave, is rounding; one of 1e-9 is not
    g = grid32
    psi = g.field_from(lambda r, t: (r - 1.0) * (r - 2.0) + 0.0 * t).values
    ulps = np.random.default_rng(4).integers(-8, 9, size=psi.shape)
    noisy = psi + ulps * np.spacing(np.abs(psi).max())
    assert np.array_equal(radial_psi(g.field(noisy)), noisy[:, 0])
    wavy = psi + 1e-9 * np.abs(psi).max() * np.sin(g.theta)
    with pytest.raises(ValueError, match="radially symmetric"):
        radial_psi(g.field(wavy))


def test_radial_solve_matches_lu(bump64):
    # the mode-0 solve of theta-constant columns against the LU of the
    # bordered linearization on the same columns spread over theta
    g = bump64.psi.grid
    c = -bump64.F.d1(radial_psi(bump64.psi))
    k = np.random.default_rng(5).normal(size=(g.Nr, 7))
    phi = solve_radial(g, c, k, 0.0)
    ref = lu_solve(factored_linearization(bump64),
                   np.repeat(k[:, None, :], g.Ns, axis=1))
    assert np.abs(phi[:, None, :] - ref).max() <= 1e-12 * np.abs(ref).max()


def test_radial_solve_residual_is_checked(monkeypatch, grid32):
    # a column whose residual misses the check is reported as
    # no-convergence, not returned; no rounding meets a stop of 1e-30
    from annuflow import elliptic

    k = np.random.default_rng(6).normal(size=(grid32.Nr, 3))
    solve_radial(grid32, np.full(grid32.Nr, -1.0), k, 0.0)
    monkeypatch.setattr(elliptic, "SOLVE_RTOL", 1e-30)
    with pytest.raises(NoConvergenceError, match="mode-0 solve"):
        solve_radial(grid32, np.full(grid32.Nr, -1.0), k, 0.0)


@pytest.mark.parametrize("shape", [(32, 64), (128, 256)], ids=lambda s: f"{s[0]}x{s[1]}")
def test_radial_solve_with_circulation_matches_fourier(shape):
    # a column solved with the circulation of its field is the Fourier
    # solve of the data spread over theta, whose circulation it has
    g = make_annulus(1.0, 2.0, *shape)
    shift = -0.5 - 0.1 * (g.r - 1)
    k = np.sin(3 * g.r)
    phi = solve_radial(g, shift, k, -4 * np.pi)
    ref = FourierSystem(g, shift[1:-1]).solve(np.repeat(k[:, None], g.Ns, axis=1),
                                              -4 * np.pi)
    assert np.abs(phi[:, None] - ref).max() <= 1e-12 * np.abs(ref).max()
    spread = g.field(np.repeat(phi[:, None], g.Ns, axis=1))
    assert circulation(spread) == pytest.approx(-4 * np.pi, rel=1e-12)


@pytest.mark.parametrize("n_modes", [1, 2, 5])
def test_mode_blocks_of_the_first_modes(grid32, n_modes):
    # the blocks of the first modes alone are those of all modes, bit for bit
    shift = np.linspace(-2.0, 1.0, grid32.Nr - 2)
    mode0, blocks = _mode_blocks(grid32, shift, n_modes)
    all0, every = _mode_blocks(grid32, shift, grid32.Ns // 2 + 1)
    assert np.array_equal(mode0, all0)
    assert np.array_equal(blocks, every[:n_modes - 1])


def test_factor_fill_bump_linearization(bump64):
    # COLAMD with threshold pivoting (the splu default) fills 778,434 here
    lu = factored_linearization(bump64).lu
    assert lu.L.nnz + lu.U.nnz < 500_000


@pytest.mark.parametrize("which", ["linearization", "laplacian", "indefinite"])
def test_factor_multi_rhs_residual(grid64, bump64, which):
    # static diagonal pivots stay accurate on 129 right-hand sides, also
    # for an indefinite Delta + c between the first two eigenvalues
    if which == "linearization":
        system = factored_linearization(bump64)
    else:
        c = 0.0 if which == "laplacian" else 1.5 * principal_eigenvalue(grid64)
        system = bordered_system(grid64, grid64.constant(c))
    B = np.random.default_rng(3).normal(size=(system.n_unknowns, 129))
    X = system.lu.solve(B)
    assert np.linalg.norm(system.matrix @ X - B) <= 1e-10 * np.linalg.norm(B)


def test_factor_exactly_singular_raises(grid32):
    # the LU oracle relies on splu raising for a singular matrix
    A = bordered_matrix(grid32, grid32.constant(-1.0)).tolil()
    A[-1, :] = 0.0                         # no circulation row
    with pytest.raises(RuntimeError):
        factor(A.tocsc())
