"""Command-line entry points.

Commands: solve, dist, invert, check, tangent.  Exit codes: 0 success,
2 input or solver error (with a machine-readable error JSON on stdout),
3 iteration divergence or max_iter reached without convergence.  All
randomized checks take an explicit --seed; identical inputs produce
identical outputs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import moser, orbit, tame
from .curves import Curve1D, Monotone1D, read_curve_csv, write_curve_csv
from .elliptic import ND_THRESHOLD, check_nd1
from .errors import AnnuflowError, DivergedError
from .exprparse import ExpressionError, parse_expression
from .grid import (circulation, field_from_json, field_to_json, gradient,
                   integrate, make_annulus, poisson_bracket)
from .steady import (TOL_NEWTON, Profile1D, default_cbar, energy_pair,
                     poisson_start, solve_steady, state_from_json, state_to_json)


class CliError(Exception):
    def __init__(self, code, message, exit_code=2):
        super().__init__(message)
        self.code = code
        self.exit_code = exit_code


def _emit_error(code, message):
    print(json.dumps({"error": code, "message": message}))


def _parse_grid(text):
    try:
        nr, ns = (int(x) for x in text.split(","))
    except Exception as exc:
        raise CliError("bad-grid", f"--grid expects 'Nr,Ns', got {text!r}") from exc
    return nr, ns


def _load_profile(arg):
    """The profile function of a sampled CSV path, with the cbar its samples
    fix, or of an arithmetic expression in s, with cbar None."""
    if os.path.exists(arg):
        s, v = read_curve_csv(arg)
        order = np.argsort(s)
        s, v = s[order], v[order]
        if s[-1] > 1e-9 or s[0] >= 0:
            raise CliError("bad-profile", "profile samples must live on [cbar, 0]")
        return (lambda x: np.interp(x, s, v)), float(s[0])
    if arg.endswith(".csv") or os.sep in arg:
        raise CliError("profile-not-found", f"no such profile file: {arg}")
    try:
        return parse_expression(arg), None
    except ExpressionError as exc:
        raise CliError("profile-parse-error", str(exc)) from exc


def _start_profile(args, grid):
    """The --profile on [cbar, 0] and a Newton start psi0 or None.  Without
    --cbar, an expression's cbar is steady.default_cbar of solve_steady's
    start, steady.poisson_start of F(0), which is then psi0."""
    fn, cbar = _load_profile(args.profile)
    cbar = args.cbar if cbar is None else cbar
    if cbar is not None:
        return Profile1D.from_callable(fn, cbar), None
    psi0 = poisson_start(grid, float(fn(0.0)), args.gamma)
    return Profile1D.from_callable(fn, default_cbar(psi0)), psi0


def _outdir(path):
    os.makedirs(path, exist_ok=True)
    return path


def cmd_solve(args):
    grid = make_annulus(args.ri, args.ro, *_parse_grid(args.grid))
    F, psi0 = _start_profile(args, grid)
    state = solve_steady(F, args.gamma, psi0=psi0, grid=grid, tol=args.tol)
    out = _outdir(args.out)
    with open(os.path.join(out, "state.json"), "w", newline="\n") as fh:
        fh.write(state_to_json(state))
    e_grad, e_vort = energy_pair(state)
    diagnostics = {
        "newton_residual": state.newton_residual,
        "newton_history": [step._asdict() for step in state.newton_history],
        "gamma": state.gamma,
        "circulation_gap": abs(circulation(state.psi) - state.gamma),
        "inner_value": state.inner_value,
        "energy": e_grad,
        "energy_identity_gap": abs(e_grad - e_vort),
        "psi_min": float(state.psi.values.min()),
        "psi_max": float(state.psi.values.max()),
    }
    with open(os.path.join(out, "diagnostics.json"), "w", newline="\n") as fh:
        json.dump(diagnostics, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(json.dumps({"state": os.path.join(out, "state.json"),
                      "newton_residual": state.newton_residual}))
    return 0


def cmd_dist(args):
    with open(args.state) as fh:
        state = state_from_json(fh.read())
    A, Ainv = orbit.dist_fn(state.omega)
    out = _outdir(args.out)
    A.to_csv(os.path.join(out, "A.csv"))
    write_curve_csv(os.path.join(out, "Ainv.csv"), Ainv.grid_x(), Ainv.values)
    print(json.dumps({"A": os.path.join(out, "A.csv"),
                      "Ainv": os.path.join(out, "Ainv.csv"),
                      "area_discrepancy": A.area_discrepancy}))
    return 0


def cmd_invert(args):
    grid = make_annulus(args.ri, args.ro, *_parse_grid(args.grid))
    cfg = moser.MoserConfig()
    if args.config:
        with open(args.config) as fh:
            cfg = moser.config_from_text(fh.read())
    cfg.validate()
    mu, tv = read_curve_csv(args.target)
    # the target samples T(F) at uniform abscissae on [0, |domain|]
    steps = np.diff(mu)
    if not (mu.size > 1 and steps.min() > 0 and np.ptp(steps) <= 1e-9 * steps.mean()
            and abs(mu[0]) <= 1e-9 * grid.area
            and abs(mu[-1] - grid.area) <= 1e-9 * grid.area):
        raise CliError("bad-target", "target abscissae must be uniform on "
                       f"[0, {grid.area!r}], the area of the annulus")
    if np.any(np.diff(tv) <= 0):
        raise CliError("target-not-increasing",
                       "target must be strictly increasing", exit_code=3)
    target = Monotone1D(float(mu[0]), float(mu[-1]), tv)
    F0, _ = _start_profile(args, grid)
    F, state, trace = moser.moser_solve(F0, args.gamma, target, cfg=cfg,
                                        grid=grid)
    out = _outdir(args.out)
    F.to_csv(os.path.join(out, "profile.csv"))
    with open(os.path.join(out, "state.json"), "w", newline="\n") as fh:
        fh.write(state_to_json(state))
    trace.to_csv(os.path.join(out, "trace.csv"))
    final = trace.rows[-1]
    if "max-iter" in final[4]:
        raise CliError("max-iter", f"no convergence in {len(trace.rows)} "
                       f"iterations (residual {final[2]:.3e})", exit_code=3)
    print(json.dumps({"iterations": len(trace.rows),
                      "residual": final[2],
                      "cross_check": trace.final_cross_check,
                      "out": out}))
    return 0


def cmd_tangent(args):
    with open(args.state) as fh:
        state = state_from_json(fh.read())
    with open(args.nu) as fh:
        nu = field_from_json(fh.read())
    chart = orbit.level_chart(state.omega)
    defect = orbit.tangency_defect(chart, nu)
    out = _outdir(args.out)
    defect.to_csv(os.path.join(out, "defect.csv"))
    tangent = orbit.is_tangent(chart, nu, rel=args.tangent_tol)
    result = {"tangent": bool(tangent), "defect_sup": defect.max_norm()}
    if args.reconstruct:
        if not tangent:
            raise CliError("not-tangent", "field is not tangent to the orbit")
        alpha = orbit.reconstruct_alpha(chart, nu, tol_rel=args.tangent_tol)
        with open(os.path.join(out, "alpha.json"), "w", newline="\n") as fh:
            fh.write(field_to_json(alpha))
        result["alpha"] = os.path.join(out, "alpha.json")
    print(json.dumps(result))
    return 0


# ---------------------------------------------------------------------------
# check suites
# ---------------------------------------------------------------------------

def _reference_state(grid):
    F = Profile1D.from_callable(lambda s: 0.5 * s - 1.0, -3.0,
                                strictly_monotone=True)
    return solve_steady(F, -4 * np.pi, grid=grid)


def _wavy_field(grid):
    return grid.field_from(
        lambda r, t: r**2 + 0.05 * np.sin(np.pi * (r - 1)) * np.sin(t))


def _suite_coarea(grid, rng):
    rows = []
    om = _wavy_field(grid)
    chart = orbit.level_chart(om)
    gr, gt = gradient(om)
    gn = grid.field(np.sqrt(gr.values**2 + gt.values**2))
    lamlo, lamhi = chart.omega_min, chart.omega_max
    width = 0.15 * (lamhi - lamlo)
    for i, c in enumerate(np.linspace(lamlo + 1.05 * width,
                                      lamhi - 1.05 * width, 5)):
        def zeta(x):
            u = np.clip((x - c) / width, -1.0, 1.0)
            return (1 - u**2) ** 4

        a, b = rng.normal(size=2)
        u = grid.field_from(lambda r, t: a * np.sin(r) + b * np.cos(2 * t) + 2.5)
        lhs = integrate(u * gn * grid.field(zeta(om.values)))
        J = orbit.j_functional(chart, u)
        lam = np.linspace(lamlo, lamhi, 4001)
        rhs = np.trapezoid(zeta(lam) * J(lam), lam)
        err = abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-6)
        rows.append((f"coarea_window_{i}", err, 1e-3, err < 1e-3))
    radial = grid.field_from(lambda r, t: r**2)
    ch = orbit.level_chart(radial)
    ap = orbit.j_over_grad(ch, grid.constant(1.0))
    err = float(np.abs(ap.values - np.pi).max())
    rows.append(("radial_travel_time_pi", err, 1e-6, err < 1e-6))
    return rows


def _suite_derivatives(grid, rng):
    rows = []
    om = _wavy_field(grid)
    chart = orbit.level_chart(om)
    nu = grid.field_from(
        lambda r, t: np.cos(np.pi * (r - 1))
        + 0.5 * np.sin(2 * t) * np.sin(np.pi * (r - 1)))
    ours = orbit.dq(om, chart, nu)
    eps = 1e-3
    _, Ap = orbit.dist_fn(grid.field(om.values + eps * nu.values))
    _, Am = orbit.dist_fn(grid.field(om.values - eps * nu.values))
    mus = np.linspace(0.05 * grid.area, 0.95 * grid.area, 41)
    fd = (Ap(mus) - Am(mus)) / (2 * eps)
    err = float(np.abs(fd - ours(mus)).max() / max(np.abs(ours(mus)).max(), 1e-9))
    rows.append(("dq_vs_central_difference", err, 1e-3, err < 1e-3))

    out2 = orbit.d2q(om, chart, nu, nu)
    eps = 2e-2
    _, A0 = orbit.dist_fn(om)
    _, Ap = orbit.dist_fn(grid.field(om.values + eps * nu.values))
    _, Am = orbit.dist_fn(grid.field(om.values - eps * nu.values))
    sd = (Ap(mus) - 2 * A0(mus) + Am(mus)) / eps**2
    scale = max(np.abs(out2(mus)).max(), 1e-3)
    err = float(np.abs(sd - out2(mus)).max() / scale)
    tol2 = 1e-2 + 10 * grid.h / scale
    rows.append(("d2q_vs_second_difference", err, tol2, err < tol2))
    return rows


def _suite_tame(grid, rng):
    rows = []
    battery = [
        lambda x: np.sin(2 * np.pi * x),
        lambda x: np.cos(6 * x) + 0.3 * x,
        lambda x: np.exp(-x) * np.sin(4 * x),
        lambda x: x**3 - x,
        lambda x: 1.0 / (1.0 + 4 * x**2),
    ]
    ts = (4.0, 8.0, 16.0, 32.0)
    for i, fn in enumerate(battery):
        f = Curve1D.from_callable(fn, 0.0, 1.0, 257)
        rep = tame.verify_smoothing(f, 2, 0, ts)
        worst = max(rep["smooth_ratio"], rep["remainder_ratio"])
        rows.append((f"smoothing_ratio_{i}", worst, 100.0, worst < 100.0))
        ratio = tame.interp_check(f, 1, 0, 2)
        rows.append((f"interpolation_ratio_{i}", ratio, 50.0, ratio < 50.0))
    return rows


def _suite_orbit(grid, rng):
    rows = []
    om = _wavy_field(grid)
    h2 = grid.h**2
    alphas = [
        grid.field_from(lambda r, t: 0.5 * (r - 1) * (2 - r) * np.cos(t)),
        grid.field_from(lambda r, t: 0.3 * (r - 1) * (2 - r) * np.sin(2 * t)),
        grid.field_from(lambda r, t: 0.2 * np.sin(np.pi * (r - 1))),
    ]
    A0, _ = orbit.dist_fn(om)
    for i, alpha in enumerate(alphas):
        moved = orbit.pushforward(om, alpha, 0.05)
        A1, _ = orbit.dist_fn(moved)
        lam = np.linspace(A0.a, A0.b, 11)[1:-1]
        err = float(np.abs(np.asarray(A1(lam)) - np.asarray(A0(lam))).max())
        tol = 3 * h2 * grid.area
        rows.append((f"pushforward_invariance_{i}", err, tol, err < tol))
    radial = grid.field_from(lambda r, t: r**2)
    ch = orbit.level_chart(radial)
    nu = grid.field_from(lambda r, t: -2 * (r - 1) * (2 - r) * np.sin(t))
    defect = orbit.tangency_defect(ch, nu).max_norm()
    tol = 1e-5 * np.abs(nu.values).max() * grid.area
    rows.append(("bracket_tangency_defect", defect, tol, defect < tol))
    alpha = orbit.reconstruct_alpha(ch, nu)
    resid = poisson_bracket(radial, alpha).values - nu.values
    err = float(np.abs(resid).max() / np.abs(nu.values).max())
    rows.append(("reconstruction_residual", err, 5e-2, err < 5e-2))
    return rows


def _suite_nd(grid, rng):
    state = _reference_state(grid)
    return [(name, rep.sigma_min, ND_THRESHOLD * rep.scale, rep.nondegenerate)
            for name, rep in (("nd1_sigma_min", check_nd1(state)),
                              ("nd2_sigma_min", orbit.check_nd2(state)))]


_SUITES = {
    "coarea": _suite_coarea,
    "derivatives": _suite_derivatives,
    "tame": _suite_tame,
    "orbit": _suite_orbit,
    "nd": _suite_nd,
}


def cmd_check(args):
    if args.suite not in _SUITES:
        raise CliError("unknown-suite",
                       f"--suite must be one of {sorted(_SUITES)}, "
                       f"got {args.suite!r}")
    grid = make_annulus(args.ri, args.ro, *_parse_grid(args.grid))
    rng = np.random.default_rng(args.seed)
    rows = _SUITES[args.suite](grid, rng)
    out = _outdir(args.out)
    path = os.path.join(out, f"check_{args.suite}.csv")
    with open(path, "w", newline="\n") as fh:
        fh.write("check,value,threshold,pass\n")
        for name, value, threshold, ok in rows:
            fh.write(f"{name},{float(value)!r},{float(threshold)!r},"
                     f"{int(bool(ok))}\n")
    all_ok = all(bool(r[3]) for r in rows)
    print(json.dumps({"suite": args.suite, "table": path,
                      "passed": int(sum(bool(r[3]) for r in rows)),
                      "total": len(rows), "ok": all_ok}))
    return 0 if all_ok else 2


# ---------------------------------------------------------------------------

def _add_grid_flags(p):
    p.add_argument("--grid", default="64,128", help="Nr,Ns")
    p.add_argument("--ri", type=float, default=1.0)
    p.add_argument("--ro", type=float, default=2.0)


def build_parser():
    p = argparse.ArgumentParser(prog="annuflow", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("solve", help="solve the steady state of a profile")
    _add_grid_flags(ps)
    ps.add_argument("--profile", required=True,
                    help="expression in s, or CSV path of samples")
    ps.add_argument("--gamma", type=float, required=True)
    ps.add_argument("--cbar", type=float, default=None)
    ps.add_argument("--tol", type=float, default=TOL_NEWTON)
    ps.add_argument("--out", default=".")
    ps.set_defaults(fn=cmd_solve)

    pd = sub.add_parser("dist", help="distribution function of a state")
    pd.add_argument("--state", required=True)
    pd.add_argument("--out", default=".")
    pd.set_defaults(fn=cmd_dist)

    pi = sub.add_parser("invert", help="recover a profile from an orbit label")
    _add_grid_flags(pi)
    pi.add_argument("--profile", required=True, help="starting profile")
    pi.add_argument("--gamma", type=float, required=True)
    pi.add_argument("--target", required=True, help="target CSV (mu, value)")
    pi.add_argument("--config", default=None, help="key=value iteration config")
    pi.add_argument("--cbar", type=float, default=None)
    pi.add_argument("--out", default=".")
    pi.set_defaults(fn=cmd_invert)

    pc = sub.add_parser("check", help="run an invariant battery")
    _add_grid_flags(pc)
    pc.add_argument("--suite", required=True)
    pc.add_argument("--seed", type=int, default=0)
    pc.add_argument("--out", default=".")
    pc.set_defaults(fn=cmd_check)

    pt = sub.add_parser("tangent", help="orbit-tangency test of a field")
    pt.add_argument("--state", required=True)
    pt.add_argument("--nu", required=True, help="field JSON")
    pt.add_argument("--tangent-tol", type=float, default=1e-6)
    pt.add_argument("--reconstruct", action="store_true")
    pt.add_argument("--out", default=".")
    pt.set_defaults(fn=cmd_tangent)
    return p


def _attach_profile(argv):
    """argparse reads a separate value that starts with '-', such as the
    expression -0.5*s-1, as an option; pass every --profile value in the
    --profile=VALUE form instead."""
    argv = list(argv)
    for i in range(len(argv) - 2, -1, -1):
        if argv[i] == "--profile":
            argv[i:i + 2] = [f"--profile={argv[i + 1]}"]
    return argv


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser().parse_args(_attach_profile(argv))
    try:
        return args.fn(args)
    except CliError as exc:
        _emit_error(exc.code, str(exc))
        return exc.exit_code
    except DivergedError as exc:
        _emit_error(exc.code, str(exc))
        return 3
    except AnnuflowError as exc:
        _emit_error(exc.code, str(exc))
        return 2
    except FileNotFoundError as exc:
        _emit_error("file-not-found", str(exc))
        return 2
    except ValueError as exc:
        _emit_error("invalid-input", str(exc))
        return 2


if __name__ == "__main__":
    sys.exit(main())
