import gc
import tracemalloc
import weakref

import numpy as np
import pytest

from annuflow import moser
from annuflow.curves import Curve1D, Monotone1D
from annuflow.elliptic import solve_poisson
from annuflow.errors import (DivergedError, InnerSolveFailureError,
                             NoConvergenceError)
from annuflow.grid import make_annulus
from annuflow.moser import (
    MoserConfig, assemble_id_plus_k, config_from_text,
    config_to_text, dt, k_apply, moser_solve, right_inverse, t_map,
    uniqueness_probe, vb, vm, workspace,
)
from annuflow.orbit import check_nd2
from annuflow.steady import Profile1D, SteadyState, ds, solve_steady

from oracles import (factored_linearization, grid_id_plus_k, lu_solve,
                     radial_linearized, radial_steady)

GAMMA = -4 * np.pi
CBAR = -3.0


def fbar():
    return Profile1D.from_callable(lambda s: 0.5 * s - 1.0, CBAR,
                                   strictly_monotone=True)


@pytest.fixture(scope="module")
def ref(grid64):
    curve, state = t_map(fbar(), GAMMA, grid=grid64)
    return curve, state


def test_config_constraints():
    MoserConfig().validate()
    assert MoserConfig().mu * MoserConfig().kappa ** 2 + MoserConfig().kappa \
        + 1 - MoserConfig().j + MoserConfig().beta == pytest.approx(-0.734, abs=1e-9)
    with pytest.raises(ValueError):
        MoserConfig(kappa=2.5).validate()
    with pytest.raises(ValueError):
        MoserConfig(mu=0.5).validate()
    with pytest.raises(ValueError):
        MoserConfig(beta=1.0).validate()
    with pytest.raises(ValueError):
        MoserConfig(j=4).validate()


@pytest.mark.parametrize("max_iter", [0, -1])
def test_config_rejects_max_iter_below_one(max_iter, monkeypatch, grid32):
    # a run of no iteration has no trace row to report on: refused by
    # validate(), which moser_solve calls before any steady solve
    cfg = MoserConfig(max_iter=max_iter)
    with pytest.raises(ValueError, match="max_iter"):
        cfg.validate()
    monkeypatch.setattr(moser, "solve_steady", lambda *a, **k: pytest.fail("solved"))
    F0 = Profile1D.from_callable(lambda s: 0.5 * s - 1.0, -3.0)
    target = Monotone1D(0.0, 3 * np.pi, np.linspace(-1.0, -0.5, 129))
    with pytest.raises(ValueError, match="max_iter"):
        moser_solve(F0, GAMMA, target, cfg=cfg, grid=grid32)


def test_config_roundtrip():
    cfg = MoserConfig(A=3.0, kappa=1.4, max_iter=12)
    cfg2 = config_from_text(config_to_text(cfg))
    assert cfg2 == cfg
    with pytest.raises(ValueError, match="unknown config key"):
        config_from_text("A=3.0\nsigma=1\n")
    for bad in ("kappa=fast", "j=9.5"):
        with pytest.raises(ValueError):
            config_from_text(bad)


def test_t_map_endpoints(ref, grid64):
    curve, state = ref
    # at full area, the level is the outer boundary where psi = 0
    assert abs(curve(grid64.area) - (-1.0)) < 1e-6
    # at zero area, the level is min(psi)
    psi_oracle = radial_steady(lambda s: 0.5 * s - 1.0, GAMMA)
    min_psi = psi_oracle(np.array([1.0]))[0]
    assert abs(curve(0.0) - (0.5 * min_psi - 1.0)) < 1e-4


def test_t_map_paths_agree(ref, grid64):
    curve, state = ref
    from annuflow.orbit import dist_fn
    _, ainv = dist_fn(state.omega)
    mus = np.linspace(0, grid64.area, 129)
    scale = np.ptp(curve.values)
    assert np.abs(ainv(mus) - curve(mus)).max() < 5 * grid64.h**2 * scale


def test_dt_zero(ref):
    _, state = ref
    z = Curve1D(CBAR, 0.0, np.zeros(65))
    assert dt(state, z).max_norm() == 0.0


def test_dt_central_difference(ref, grid64):
    _, state = ref
    F = state.F
    f = Profile1D.from_callable(lambda s: 0.1 * np.sin(s) + 0.05 * s**2, CBAR)
    ours = dt(state, f)
    eps = 1e-3
    mus = np.linspace(0, grid64.area, 129)
    Fp = F.with_values(F.values + eps * f(F.grid_x()))
    Fm = F.with_values(F.values - eps * f(F.grid_x()))
    tp, _ = t_map(Fp, GAMMA, grid=grid64, cross_check=False)
    tm, _ = t_map(Fm, GAMMA, grid=grid64, cross_check=False)
    fd = (tp(mus) - tm(mus)) / (2 * eps)
    scale = max(np.abs(ours.values).max(), 1e-9)
    assert np.abs(fd - ours(mus)).max() < 2e-3 * scale


def test_dt_radial_oracle(grid_radial128):
    # assemble DT from 1D pieces: B + F'(lam(mu)) * phi(rho(mu))
    F = fbar()
    curve, state = t_map(F, GAMMA, grid=grid_radial128, cross_check=False)
    f = Profile1D.from_callable(lambda s: np.sin(s), CBAR)
    ours = dt(state, f)
    psi_o = radial_steady(lambda s: 0.5 * s - 1.0, GAMMA)
    phi_o = radial_linearized(lambda r: 0.5 + 0 * r,
                              lambda r: np.sin(psi_o(r)))
    mus = np.linspace(0, grid_radial128.area, 65)
    rho = np.sqrt(1.0 + mus / np.pi)
    lam = psi_o(rho)
    oracle = np.sin(lam) + 0.5 * phi_o(rho)
    assert np.abs(ours(mus) - oracle).max() < 1e-4


def test_vb_constant(ref):
    _, state = ref
    ws = workspace(state)
    g = Curve1D(0.0, state.psi.grid.area, np.ones(129))
    f = vb(state, g)
    # composition recovers g on the area grid
    comp = f(ws.chart.area_grid.lam_mu)
    assert np.abs(comp - 1.0).max() < 1e-10


def test_vb_affine_roundtrip(ref, grid64):
    _, state = ref
    ws = workspace(state)
    mus = np.linspace(0, grid64.area, 129)
    g = Curve1D(0.0, grid64.area, mus.copy())
    f = vb(state, g)
    assert np.abs(f(ws.chart.area_grid.lam_mu) - mus).max() < 1e-8


def test_vb_random_roundtrip(ref, grid64):
    _, state = ref
    ws = workspace(state)
    rng = np.random.default_rng(21)
    coeffs = rng.normal(size=3)
    mus = np.linspace(0, grid64.area, 129)
    gv = (coeffs[0] + coeffs[1] * np.sin(np.pi * mus / grid64.area)
          + coeffs[2] * (mus / grid64.area) ** 2)
    g = Curve1D(0.0, grid64.area, gv)
    f = vb(state, g)
    assert np.abs(f(ws.chart.area_grid.lam_mu) - gv).max() < 1e-7


def test_k_zero(ref):
    _, state = ref
    g = Curve1D(0.0, state.psi.grid.area, np.zeros(129))
    assert k_apply(state, g).max_norm() == 0.0


def test_operator_identity_m_equals_id_plus_k(ref, grid64):
    # dt(vb(g)) - g = K g for a battery of curves
    _, state = ref
    area = grid64.area
    mus = np.linspace(0, area, 129)
    battery = [
        np.ones_like(mus),
        mus / area,
        np.sin(np.pi * mus / area),
        np.cos(2 * np.pi * mus / area),
        (mus / area) ** 3 - 0.5 * mus / area,
    ]
    for gv in battery:
        g = Curve1D(0.0, area, gv.copy())
        lhs = dt(state, vb(state, g))
        rhs = gv + k_apply(state, g).values
        scale = max(np.abs(gv).max(), 1e-12)
        assert np.abs(lhs.values - rhs).max() < 1e-6 * scale


def test_k_smoothing_gain_over_modes(ref, grid64):
    _, state = ref
    area = grid64.area
    mus = np.linspace(0, area, 129)
    norms = []
    for k in (4, 8, 16):
        g = Curve1D(0.0, area, np.cos(np.pi * k * mus / area))
        norms.append(k_apply(state, g).max_norm())
    assert norms[0] > norms[1] > norms[2]


def test_vm_zero(ref):
    _, state = ref
    h = Curve1D(0.0, state.psi.grid.area, np.zeros(129))
    assert vm(state, h).max_norm() < 1e-14


def test_vm_manufactured(ref, grid64):
    _, state = ref
    area = grid64.area
    mus = np.linspace(0, area, 129)
    gstar = Curve1D(0.0, area, np.sin(2 * np.pi * mus / area) + 0.3)
    h = Curve1D(0.0, area, gstar.values + k_apply(state, gstar).values)
    g = vm(state, h)
    assert np.abs(g.values - gstar.values).max() < 1e-7


def test_vm_grid_stability():
    from annuflow.grid import make_annulus
    sigmas = []
    for nr, ns in [(64, 128), (96, 192)]:
        g = make_annulus(1, 2, nr, ns)
        _, state = t_map(fbar(), GAMMA, grid=g, cross_check=False)
        M = assemble_id_plus_k(state)
        sv = np.linalg.svd(M, compute_uv=False)
        sigmas.append(sv[-1])
    assert abs(sigmas[1] - sigmas[0]) / sigmas[0] < 0.2


def test_id_plus_k_norm_consistency(ref):
    # sigma_min(Id+K) >= 1 - ||K||_2; validated within 10% slack
    _, state = ref
    M = assemble_id_plus_k(state)
    K = M - np.eye(M.shape[0])
    sv = np.linalg.svd(M, compute_uv=False)
    knorm = np.linalg.svd(K, compute_uv=False)[0]
    assert sv[-1] >= (1 - knorm) * 0.9 - 1e-12


def test_right_inverse_identity(ref, grid64):
    _, state = ref
    area = grid64.area
    mus = np.linspace(0, area, 129)
    battery = [
        np.ones_like(mus),
        np.sin(np.pi * mus / area) - 0.2,
        np.cos(3 * np.pi * mus / area),
        mus / area,
        np.exp(-mus / area),
    ]
    for hv in battery:
        h = Curve1D(0.0, area, hv.copy())
        f = right_inverse(state, h)
        back = dt(state, f)
        scale = max(np.abs(hv).max(), 1e-12)
        assert np.abs(back.values - hv).max() < 1e-6 * scale


def test_right_inverse_linearity(ref, grid64):
    _, state = ref
    area = grid64.area
    mus = np.linspace(0, area, 129)
    h1 = Curve1D(0.0, area, np.sin(np.pi * mus / area))
    h2 = Curve1D(0.0, area, (mus / area) ** 2)
    a, b = 1.3, -0.7
    combo = Curve1D(0.0, area, a * h1.values + b * h2.values)
    lhs = right_inverse(state, combo)
    rhs = a * right_inverse(state, h1).values + b * right_inverse(state, h2).values
    assert np.abs(lhs.values - rhs).max() < 1e-9


def test_moser_already_solved(ref, grid64):
    curve, _ = ref
    F, state, trace = moser_solve(fbar(), GAMMA, curve, grid=grid64)
    assert len(trace.rows) == 1
    assert trace.rows[0][4] == "converged"
    assert np.array_equal(F.values, fbar().values)


def _bump_profile(scale=0.02):
    # bump supported inside the range of the reference stream function
    F0 = fbar()

    def bumped(s):
        u = np.clip((s + 0.45) / 0.3, -1, 1)
        return 0.5 * s - 1.0 + scale * (1 - u**2) ** 3

    return F0, Profile1D.from_callable(bumped, CBAR, strictly_monotone=True)


def test_moser_recovers_manufactured_target(grid64):
    F0, Fstar = _bump_profile()
    gstar, state_star = t_map(Fstar, GAMMA, grid=grid64, cross_check=False)
    F, state, trace = moser_solve(F0, GAMMA, gstar, grid=grid64)
    h2 = grid64.h**2
    assert np.abs(state.psi.values - state_star.psi.values).max() < 5 * h2
    # profile identifiable on the range of psi only
    srange = np.linspace(state_star.psi.values.min(), 0.0, 101)
    assert np.abs(F(srange) - Fstar(srange)).max() < 5 * h2
    assert trace.repair_count <= 2
    # recovered state matches the target through the direct vorticity path
    scale = np.ptp(gstar.values)
    assert trace.final_cross_check < 10 * MoserConfig().floor_tol + 5 * h2 * scale
    # superlinear decay of the residual trace over the steps where the
    # smoothing no longer truncates the update, down to 10x the floor
    res = trace.residuals
    floor = max(10 * res.min(), 1e-12)
    active = [i for i, row in enumerate(trace.rows)
              if "truncated" not in row[4] and res[i] > floor]
    pairs = [(a, b) for a, b in zip(active, active[1:]) if b == a + 1]
    assert pairs, "no consecutive untruncated steps recorded"
    ratios = [np.log(res[b]) / np.log(res[a]) for a, b in pairs]
    assert min(ratios) >= 1.3


CAPPED = MoserConfig(max_iter=6, floor_tol=1e-30)


@pytest.fixture(scope="module")
def capped_trace(grid64):
    # a floor below rounding: the run always uses up max_iter
    F0, Fstar = _bump_profile()
    gstar, _ = t_map(Fstar, GAMMA, grid=grid64, cross_check=False)
    _, _, trace = moser_solve(F0, GAMMA, gstar, cfg=CAPPED, grid=grid64)
    return trace


def test_moser_trace_schedule(capped_trace):
    for n, t_n, *_ in capped_trace.rows:
        assert t_n == CAPPED.A ** (CAPPED.kappa ** n)


def test_moser_max_iter_flagged(capped_trace):
    assert len(capped_trace.rows) == CAPPED.max_iter
    assert "max-iter" in capped_trace.rows[-1][4].split("+")
    assert all("max-iter" not in row[4] for row in capped_trace.rows[:-1])


def test_moser_infeasible_target_diverges(grid64):
    # a decreasing target is not an orbit label of any increasing profile
    mus = np.linspace(0, grid64.area, 129)
    bad = Monotone1D(0.0, grid64.area, np.linspace(-1.0, -0.5, 129))
    flipped = Curve1D(0.0, grid64.area, bad.values[::-1].copy())
    with pytest.raises(DivergedError) as excinfo:
        moser_solve(fbar(), GAMMA, flipped, grid=grid64,
                    cfg=MoserConfig(max_iter=10))
    assert excinfo.value.info["trace"].residuals.min() > 1e-3


def _raising_solve(exc):
    def solve(*args, **kwargs):
        raise exc
    return solve


def test_moser_wraps_only_solver_failures(monkeypatch, grid64):
    target = Monotone1D(0.0, grid64.area, np.linspace(-1.0, -0.5, 129))
    # a programming error in the inner solve surfaces as itself
    monkeypatch.setattr(moser, "solve_steady", _raising_solve(TypeError("bug")))
    with pytest.raises(TypeError, match="bug"):
        moser_solve(fbar(), GAMMA, target, grid=grid64)
    # a solver failure becomes inner-solve-failure at its iteration
    monkeypatch.setattr(moser, "solve_steady", _raising_solve(
        NoConvergenceError("stalled", residual=1.0)))
    with pytest.raises(InnerSolveFailureError) as excinfo:
        moser_solve(fbar(), GAMMA, target, grid=grid64)
    assert excinfo.value.code == "inner-solve-failure"
    assert excinfo.value.info["iteration"] == 0
    assert isinstance(excinfo.value.__cause__, NoConvergenceError)


def test_grids_and_states_are_freed():
    # factors and workspaces live on their grid and state, not in a cache
    refs = []
    for _ in range(5):
        grid = make_annulus(1.0, 2.0, 16, 32)
        state = solve_steady(fbar(), GAMMA, grid=grid)
        workspace(state)
        solve_poisson(grid.constant(1.0), GAMMA)
        refs += [weakref.ref(grid), weakref.ref(state)]
    del grid, state
    gc.collect()
    assert [r for r in refs if r() is not None] == []


def test_dropped_state_is_freed_without_gc():
    # the workspace stored on a state holds no reference back to it, and
    # its chart's spline holds none to the grid, so reference counting
    # alone frees the state, its workspace and the grid
    grid = make_annulus(1.0, 2.0, 16, 32)
    state = solve_steady(fbar(), GAMMA, grid=grid)
    gc.disable()
    try:
        assemble_id_plus_k(state)
        refs = [weakref.ref(state), weakref.ref(workspace(state)),
                weakref.ref(grid)]
        del state, grid
        assert [r for r in refs if r() is not None] == []
    finally:
        gc.enable()


def test_id_plus_k_matches_k_apply(grid32):
    # every column of the assembled matrix is K applied to a unit sample
    _, state = t_map(fbar(), GAMMA, grid=grid32, cross_check=False)
    K = assemble_id_plus_k(state) - np.eye(129)
    area = grid32.area
    cols = np.stack([k_apply(state, Curve1D(0.0, area, e)).values
                     for e in np.eye(129)], axis=1)
    assert np.abs(K - cols).max() <= 1e-10 * np.abs(K).max()


@pytest.mark.parametrize("grid", ["grid32", "grid_radial128", "grid16x70"])
def test_id_plus_k_fourier_matches_factor(splu_calls, request, grid):
    # Id + K assembled in r alone, and ds by a Fourier solve, factorize
    # nothing; the reference assembles Id + K on every grid node: E at each
    # psi node, the LU of the bordered matrix, and the loop-integral matrix
    # of any field
    _, state = t_map(fbar(), GAMMA, grid=request.getfixturevalue(grid),
                     cross_check=False)
    M = assemble_id_plus_k(state)
    f = Profile1D.from_callable(np.sin, CBAR)
    phi = ds(state, f)
    assert splu_calls == []
    reference = grid_id_plus_k(state)
    K = reference - np.eye(129)
    assert np.abs(M - reference).max() <= 1e-12 * np.abs(K).max()
    ref = lu_solve(factored_linearization(state), f(state.psi.values))
    assert np.abs(phi.values - ref).max() <= 1e-12 * np.abs(ref).max()


def test_id_plus_k_refuses_theta_varying_state(grid32):
    # Id + K is assembled along r, so a state whose psi varies in theta is
    # refused, by the assembly and by check_nd2, as check_nd1 refuses it
    g = grid32
    raw = g.field_from(lambda r, t: r**2 + 0.05 * np.sin(np.pi * (r - 1)) * np.sin(t))
    psi = g.field(2.0 * (raw.values - 4.0) / 3.0)          # inside [-3, 0]
    F = Profile1D.from_callable(lambda s: np.exp(s) + 0.8 * s, CBAR)
    state = SteadyState(F, psi, GAMMA, 0.0)
    with pytest.raises(ValueError, match="radially symmetric"):
        assemble_id_plus_k(state)
    with pytest.raises(ValueError, match="radially symmetric"):
        check_nd2(state)


def test_id_plus_k_memory(bump_profile):
    # assembled in r alone, Id + K holds no grid-sized stack of its 129
    # columns (before: 175 MB at 128x256)
    grid = make_annulus(1.0, 2.0, 128, 256)
    state = solve_steady(bump_profile, GAMMA, grid=grid)
    workspace(state)
    tracemalloc.start()
    try:
        assemble_id_plus_k(state)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 25e6


def test_moser_on_radial_states_factorizes_nothing(splu_calls, grid32):
    # every Moser state is radial, so every Id + K is a Fourier solve; the
    # trace records the conditioning of each one
    F0, Fstar = _bump_profile()
    gstar, _ = t_map(Fstar, GAMMA, grid=grid32, cross_check=False)
    _, _, trace = moser_solve(F0, GAMMA, gstar, cfg=MoserConfig(max_iter=3),
                              grid=grid32)
    assert len(trace.rows) == 3
    assert splu_calls == []
    ratios = [row[-1] for row in trace.rows]
    assert all(0.5 < r <= 1.0 for r in ratios)


def test_uniqueness_same_state(ref):
    _, state = ref
    rep = uniqueness_probe(state, state, tol=1e-8)
    assert rep.verdict == "same-orbit-same-state"
    assert rep.q_distance == 0.0


def test_uniqueness_gauge_freedom(grid64):
    # modifying F below min(psi) changes neither the orbit nor the state
    F0 = fbar()
    _, state0 = t_map(F0, GAMMA, grid=grid64, cross_check=False)
    lo = state0.psi.values.min()

    def modified(s):
        base = 0.5 * s - 1.0
        return base + np.where(s < lo - 0.2, 0.05 * (lo - 0.2 - s) ** 2, 0.0)

    F1 = Profile1D.from_callable(modified, CBAR, strictly_monotone=True)
    _, state1 = t_map(F1, GAMMA, grid=grid64, cross_check=False)
    rep = uniqueness_probe(state0, state1, tol=1e-8)
    assert rep.psi_distance < 1e-10
    assert rep.q_distance < 1e-10


def test_uniqueness_roundtrip_different_starts(grid64):
    F0, Fstar = _bump_profile()
    gstar, _ = t_map(Fstar, GAMMA, grid=grid64, cross_check=False)
    # two different starting profiles targeting the same orbit label
    Fa, state_a, _ = moser_solve(F0, GAMMA, gstar, grid=grid64)
    start_b = Profile1D(CBAR, F0.values + 0.01 * np.sin(
        np.pi * F0.grid_x() / CBAR), strictly_monotone=True)
    Fb, state_b, _ = moser_solve(start_b, GAMMA, gstar, grid=grid64)
    h2 = grid64.h**2
    rep = uniqueness_probe(state_a, state_b, tol=5 * h2)
    assert rep.psi_distance < 5 * h2
    srange = np.linspace(state_a.psi.values.min(), 0.0, 101)
    assert np.abs(Fa(srange) - Fb(srange)).max() < 5 * h2
