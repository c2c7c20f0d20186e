import json

import numpy as np
import pytest

from annuflow import cli
from annuflow.cli import main
from annuflow.curves import read_curve_csv, write_curve_csv
from annuflow.exprparse import ExpressionError, parse_expression
from annuflow.steady import state_from_json


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out.strip().splitlines()
    payload = json.loads(out[-1]) if out else {}
    return code, payload


def assert_column_state(path, nr):
    """The state file at path stores psi as its column of nr values."""
    d = json.loads(path.read_text())
    assert "psi" not in d
    assert len(d["psi_r"]) == nr


def test_expression_parser_basics():
    f = parse_expression("0.5*s-1")
    s = np.linspace(-2, 0, 11)
    assert np.allclose(f(s), 0.5 * s - 1)
    g = parse_expression("-(s+1)*(s-1)/2")
    assert np.allclose(g(s), -(s + 1) * (s - 1) / 2)
    assert parse_expression("3")(s).shape == s.shape
    # grammar v1 reads leading zeros and whitespace between tokens
    assert np.array_equal(parse_expression("0.5*s-01")(s), 0.5 * s - 1.0)
    assert np.array_equal(parse_expression("0.5*s\n - 1")(s), 0.5 * s - 1.0)


@pytest.mark.parametrize("bad", [
    "0.5*", "s s", "2**s", "sin(s)", "(s",
    # Python syntax outside grammar v1
    "1j", "0x10", "1_0", "True", "s.real", "s[0]", "(s:=1)", "s%2", "s//2",
    "~s", "__import__('os')", "s # comment"])
def test_expression_parser_rejects(bad):
    with pytest.raises(ExpressionError):
        parse_expression(bad)


def test_solve_writes_state(tmp_path, capsys):
    code, payload = run(capsys, "solve", "--profile", "0.5*s-1",
                        "--gamma", str(-2 * np.pi), "--grid", "64,128",
                        "--out", str(tmp_path))
    assert code == 0
    assert payload["newton_residual"] < 1e-9
    with open(tmp_path / "state.json") as fh:
        state = state_from_json(fh.read())
    assert state.psi.grid.Nr == 64
    assert_column_state(tmp_path / "state.json", 64)
    diag = json.loads((tmp_path / "diagnostics.json").read_text())
    assert diag["circulation_gap"] < 1e-8
    # one record per Newton step, each a full step; state.json does not
    # carry them
    history = diag["newton_history"]
    assert len(history) >= 1
    assert history[0]["residual"] > diag["newton_residual"]
    assert all(sorted(h) == ["residual", "step"] and h["step"] == 1.0
               for h in history)
    assert "newton_history" not in json.loads((tmp_path / "state.json").read_text())


def test_solve_profile_starting_with_minus(tmp_path, capsys):
    # a separate --profile value that starts with "-" is an expression,
    # not an option
    code, payload = run(capsys, "solve", "--profile", "-0.5*s-1",
                        "--gamma", "-6.28", "--grid", "32,64",
                        "--out", str(tmp_path))
    assert code == 0
    with open(tmp_path / "state.json") as fh:
        state = state_from_json(fh.read())
    s = state.F.grid_x()
    assert np.allclose(state.F(s), -0.5 * s - 1.0)


def test_solve_parses_profile_and_solves_poisson_once(tmp_path, capsys,
                                                     monkeypatch):
    # without --cbar, the constant-vorticity stream function sets cbar and
    # is the Newton start: one parse and one start solve per command
    from annuflow import cli, steady
    calls = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(cli, "parse_expression",
                        counted("parse", cli.parse_expression))
    for module in (cli, steady):
        monkeypatch.setattr(module, "poisson_start",
                            counted("start", steady.poisson_start))
    code, _ = run(capsys, "solve", "--profile", "0.5*s-1", "--gamma",
                  str(-2 * np.pi), "--grid", "16,32", "--out", str(tmp_path))
    assert code == 0
    assert sorted(calls) == ["parse", "start"]


def test_solve_and_invert_make_no_2d_poisson_solve(tmp_path, capsys, monkeypatch):
    # the start without --cbar is solved along r: no FFT solve, also at an
    # Ns with factors 5 and 7, where the FFT leaves theta-rounding
    import sys

    from annuflow import elliptic
    from annuflow.grid import make_annulus
    from annuflow.moser import t_map
    from annuflow.steady import Profile1D

    g = make_annulus(1.0, 2.0, 16, 70)
    F = Profile1D.from_callable(lambda s: 0.5 * s - 0.9, -3.0,
                                strictly_monotone=True)
    curve, _ = t_map(F, -4 * np.pi, grid=g, cross_check=False)
    write_curve_csv(tmp_path / "target.csv", curve.grid_x(), curve.values)
    (tmp_path / "cfg.txt").write_text("max_iter=1\n")
    real = elliptic.solve_poisson
    for name, module in list(sys.modules.items()):
        if name.startswith("annuflow") and getattr(module, "solve_poisson", None) is real:
            monkeypatch.setattr(module, "solve_poisson",
                                lambda *a: pytest.fail("2D Poisson solve"))
    code, _ = run(capsys, "solve", "--profile", "0.5*s-1", "--gamma",
                  str(-4 * np.pi), "--grid", "16,70", "--out", str(tmp_path))
    assert code == 0
    code, _ = run(capsys, "invert", "--profile", "0.5*s-1",
                  "--gamma", str(-4 * np.pi), "--grid", "16,70",
                  "--target", str(tmp_path / "target.csv"),
                  "--config", str(tmp_path / "cfg.txt"),
                  "--out", str(tmp_path / "inv"))
    assert code == 3                        # one step, off the target
    assert (tmp_path / "inv" / "state.json").exists()


def test_solve_harmonic_energy(tmp_path, capsys):
    code, _ = run(capsys, "solve", "--profile", "0", "--gamma",
                  str(-2 * np.pi), "--out", str(tmp_path))
    assert code == 0
    diag = json.loads((tmp_path / "diagnostics.json").read_text())
    assert abs(diag["energy"] - np.pi * np.log(2)) < 1e-3


def test_solve_missing_profile_file(tmp_path, capsys):
    code, payload = run(capsys, "solve", "--profile",
                        str(tmp_path / "nope.csv"), "--gamma", "-6.28",
                        "--out", str(tmp_path))
    assert code == 2
    assert payload["error"] == "profile-not-found"


def _malformed_inputs(tmp_path, capsys):
    """argv per case of a command whose input file is well-formed JSON or
    CSV but not a state, field or curve."""
    run(capsys, "solve", "--profile", "0.5*s-1", "--gamma", "-6.28",
        "--grid", "16,32", "--out", str(tmp_path))
    good = json.loads((tmp_path / "state.json").read_text())
    psi_r = good["psi_r"]
    rows = np.repeat(np.array(psi_r)[:, None], good["Ns"], axis=1).ravel().tolist()
    files = {"no-psi": {k: v for k, v in good.items() if k not in ("psi", "psi_r")},
             "psi-r-short": dict(good, psi_r=psi_r[:-1]),
             "psi-both": dict(good, psi=rows),
             "nr-text": dict(good, Nr="x"), "list": [good], "good": good}
    for name, content in files.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(content))
    (tmp_path / "one-column.csv").write_text("0.0\n1.0\n2.0\n3.0\n")
    state, out = (lambda name: str(tmp_path / f"{name}.json")), str(tmp_path / "out")
    column = str(tmp_path / "one-column.csv")
    return {
        "state-without-psi": ["dist", "--state", state("no-psi"), "--out", out],
        "state-psi-r-short": ["dist", "--state", state("psi-r-short"), "--out", out],
        "state-psi-both": ["dist", "--state", state("psi-both"), "--out", out],
        "state-nr-text": ["dist", "--state", state("nr-text"), "--out", out],
        "state-list": ["dist", "--state", state("list"), "--out", out],
        "nu-list": ["tangent", "--state", state("good"), "--nu", state("list"),
                    "--out", out],
        "target-one-column": ["invert", "--profile", "0.5*s-1", "--gamma", "-6.28",
                              "--grid", "16,32", "--target", column, "--out", out],
        "profile-one-column": ["solve", "--profile", column, "--gamma", "-6.28",
                               "--grid", "16,32", "--out", out],
    }


@pytest.mark.parametrize("case", ["state-without-psi", "state-psi-r-short",
                                  "state-psi-both", "state-nr-text", "state-list",
                                  "nu-list", "target-one-column", "profile-one-column"])
def test_malformed_input_file_is_invalid_input(tmp_path, capsys, case):
    code, payload = run(capsys, *_malformed_inputs(tmp_path, capsys)[case])
    assert code == 2
    assert payload["error"] == "invalid-input"


def test_solve_bad_expression(tmp_path, capsys):
    code, payload = run(capsys, "solve", "--profile", "0.5*s)",
                        "--gamma", "-6.28", "--out", str(tmp_path))
    assert code == 2
    assert payload["error"] == "profile-parse-error"


@pytest.mark.parametrize("deep", [
    "+".join(["s"] * 1000), "-" * 1000 + "s",
    # past Python's parser stack: RecursionError, MemoryError from ast.parse
    "+".join(["s"] * 5000), "-" * 10000 + "s"],
    ids=["sum", "unary", "sum-parser", "unary-parser"])
def test_solve_deep_expression(tmp_path, capsys, deep):
    code, payload = run(capsys, "solve", f"--profile={deep}",
                        "--gamma", "-6.28", "--out", str(tmp_path))
    assert code == 2
    assert payload["error"] == "profile-parse-error"


def test_dist_roundtrip(tmp_path, capsys):
    # Ainv.csv is the state's orbit label T(F) on the area grid, and A.csv
    # the same samples the other way round: A(Ainv(mu)) = mu at every row
    code, _ = run(capsys, "solve", "--profile", "0.5*s-1",
                  "--gamma", str(-4 * np.pi), "--out", str(tmp_path))
    assert code == 0
    code, payload = run(capsys, "dist", "--state", str(tmp_path / "state.json"),
                        "--out", str(tmp_path))
    assert code == 0
    assert abs(payload["area_discrepancy"]) < 1e-15
    lam, A = read_curve_csv(tmp_path / "A.csv")
    mu, ainv = read_curve_csv(tmp_path / "Ainv.csv")
    assert mu.size == 129 and mu[0] == 0.0 and mu[-1] == 3 * np.pi
    assert np.array_equal(lam, ainv) and np.array_equal(A, mu)
    assert (np.diff(ainv) > 0).all()


def test_dist_reads_row_major_state_file(tmp_path, capsys):
    # a file of the older format, row-major "psi" with the stored "omega"
    # and "inner_value", gives the same A.csv and Ainv.csv bytes as the
    # column file of the same state: dist reads psi's column and F alone
    run(capsys, "solve", "--profile", "0.5*s-1", "--gamma", str(-4 * np.pi),
        "--grid", "32,64", "--out", str(tmp_path / "new"))
    d = json.loads((tmp_path / "new" / "state.json").read_text())
    psi = np.repeat(np.array(d.pop("psi_r"))[:, None], d["Ns"], axis=1)
    d["psi"] = psi.ravel().tolist()
    d["omega"] = [0.0] * psi.size
    d["inner_value"] = 1.0
    (tmp_path / "old").mkdir()
    (tmp_path / "old" / "state.json").write_text(json.dumps(d))
    for side in ("new", "old"):
        code, _ = run(capsys, "dist", "--state", str(tmp_path / side / "state.json"),
                      "--out", str(tmp_path / side))
        assert code == 0
    for name in ("A.csv", "Ainv.csv"):
        assert ((tmp_path / "new" / name).read_bytes()
                == (tmp_path / "old" / name).read_bytes())


def test_dist_builds_no_chart_and_calls_no_moser(tmp_path, capsys, monkeypatch):
    from annuflow import orbit

    run(capsys, "solve", "--profile", "0.5*s-1", "--gamma", str(-4 * np.pi),
        "--grid", "32,64", "--out", str(tmp_path))

    def refused(*args, **kwargs):
        raise AssertionError("level_chart called")

    monkeypatch.setattr(orbit, "level_chart", refused)
    monkeypatch.setattr(cli, "moser", None)
    code, _ = run(capsys, "dist", "--state", str(tmp_path / "state.json"),
                  "--out", str(tmp_path))
    assert code == 0


def test_dist_refuses_a_state_that_varies_in_theta(tmp_path, capsys):
    run(capsys, "solve", "--profile", "0.5*s-1", "--gamma", str(-4 * np.pi),
        "--grid", "16,32", "--out", str(tmp_path))
    d = json.loads((tmp_path / "state.json").read_text())
    psi = np.array(d.pop("psi_r"))[:, None] * (1 + 1e-3 * np.sin(np.arange(d["Ns"])))
    d["psi"] = psi.ravel().tolist()
    (tmp_path / "state.json").write_text(json.dumps(d))
    code, payload = run(capsys, "dist", "--state", str(tmp_path / "state.json"),
                        "--out", str(tmp_path))
    assert code == 2
    assert payload["error"] == "invalid-input"
    assert "varies in theta" in payload["message"]


def test_dist_refuses_a_decreasing_orbit_label(tmp_path, capsys):
    # a decreasing profile's vorticity decreases outward: T(F) is no
    # inverse distribution function
    run(capsys, "solve", "--profile", "1-0.5*s", "--gamma", str(-4 * np.pi),
        "--grid", "16,32", "--out", str(tmp_path))
    code, payload = run(capsys, "dist", "--state", str(tmp_path / "state.json"),
                        "--out", str(tmp_path))
    assert code == 2
    assert payload["error"] == "not-monotone"


@pytest.mark.parametrize("grid", ["16,70", "64,128"])
@pytest.mark.parametrize("profile", ["0.5*s-1", "0.5*s-1-0.03*s*s"])
def test_solve_dist_invert_round_trip(tmp_path, capsys, profile, grid):
    # the documented workflow: invert recovers a state from the Ainv.csv
    # that dist wrote for it, from another start and with no --cbar
    from annuflow.moser import chart_cross_check, workspace

    gamma = str(-4 * np.pi)
    assert run(capsys, "solve", "--profile", profile, "--gamma", gamma,
               "--grid", grid, "--out", str(tmp_path))[0] == 0
    assert run(capsys, "dist", "--state", str(tmp_path / "state.json"),
               "--out", str(tmp_path))[0] == 0
    mu, ainv = read_curve_csv(tmp_path / "Ainv.csv")
    state = state_from_json((tmp_path / "state.json").read_text())
    ws = workspace(state)
    assert np.array_equal(mu, state.psi.grid.mu) and np.array_equal(ainv, ws.t_values())
    # the vorticity chart, the independent path, agrees within 5 h^2
    h2 = state.psi.grid.h**2
    assert chart_cross_check(state) < 5 * h2 * np.ptp(ainv)
    code, payload = run(capsys, "invert", "--profile", "0.45*s-1", "--gamma", gamma,
                        "--grid", grid, "--target", str(tmp_path / "Ainv.csv"),
                        "--out", str(tmp_path / "inv"))
    assert code == 0, payload
    assert payload["residual"] < 1e-8
    inverted = state_from_json((tmp_path / "inv" / "state.json").read_text())
    assert np.abs(inverted.psi.values - state.psi.values).max() < 5 * h2


def test_solve_expression_with_a_slash(tmp_path, capsys):
    # "/" is grammar v1's division, not a path separator, unless no file
    # exists and the argument does not parse
    for name, profile in (("slash", "s/2-1"), ("times", "0.5*s-1")):
        code, _ = run(capsys, "solve", "--profile", profile, "--gamma", "-6.28",
                      "--grid", "16,32", "--out", str(tmp_path / name))
        assert code == 0
    assert ((tmp_path / "slash" / "state.json").read_bytes()
            == (tmp_path / "times" / "state.json").read_bytes())
    code, payload = run(capsys, "solve", "--profile", str(tmp_path / "nope"),
                        "--gamma", "-6.28", "--out", str(tmp_path))
    assert code == 2
    assert payload["error"] == "profile-not-found"


def test_write_curve_csv_bytes(tmp_path):
    # the repr of each value, as float() of each NumPy scalar gave it
    tiny = np.finfo(float).smallest_subnormal
    x = np.array([-1.5, -0.0, 0.0, tiny, -3 * tiny, 0.1, 1 / 3, 2.0**-1030])
    v = np.array([0.30000000000000004, -0.0, -1e-310, 1.7976931348623157e308,
                  -2.2250738585072014e-308, 123456789.12345679, -1e22, 5e-324])
    write_curve_csv(tmp_path / "c.csv", x, v)
    expected = "".join(f"{float(a)!r},{float(b)!r}\n" for a, b in zip(x, v))
    assert (tmp_path / "c.csv").read_bytes() == expected.encode()
    back_x, back_v = read_curve_csv(tmp_path / "c.csv")
    assert back_x.tobytes() == x.tobytes() and back_v.tobytes() == v.tobytes()


def test_dist_radial_affine(tmp_path, capsys):
    # harmonic state: omega = 0 is constant, not chartable; use the affine
    # profile whose omega is strictly increasing in radius
    run(capsys, "solve", "--profile", "0.5*s-1", "--gamma", str(-4 * np.pi),
        "--out", str(tmp_path))
    code, _ = run(capsys, "dist", "--state", str(tmp_path / "state.json"),
                  "--out", str(tmp_path))
    assert code == 0


def test_invert_roundtrip_zero_iterations(tmp_path, capsys):
    # target manufactured as the profile's own orbit label: the initial
    # residual is already below the floor and no step is taken
    from annuflow.grid import make_annulus
    from annuflow.moser import t_map
    from annuflow.steady import Profile1D

    g = make_annulus(1.0, 2.0, 32, 64)
    F = Profile1D.from_callable(lambda s: 0.5 * s - 1.0, -3.0,
                                strictly_monotone=True)
    curve, _ = t_map(F, -4 * np.pi, grid=g, cross_check=False)
    write_curve_csv(tmp_path / "target.csv", curve.grid_x(), curve.values)
    code, payload = run(capsys, "invert", "--profile", "0.5*s-1",
                        "--gamma", str(-4 * np.pi), "--grid", "32,64",
                        "--target", str(tmp_path / "target.csv"),
                        "--cbar", "-3.0", "--out", str(tmp_path / "inv"))
    assert code == 0
    assert payload["iterations"] == 1
    assert payload["residual"] < 1e-6
    assert_column_state(tmp_path / "inv" / "state.json", 32)


def test_invert_decreasing_target_exit3(tmp_path, capsys):
    mu = np.linspace(0, 3 * np.pi, 65)
    write_curve_csv(tmp_path / "bad.csv", mu, np.linspace(0, -1, 65))
    code, payload = run(capsys, "invert", "--profile", "0.5*s-1",
                        "--gamma", str(-4 * np.pi), "--grid", "32,64",
                        "--target", str(tmp_path / "bad.csv"),
                        "--out", str(tmp_path))
    assert code == 3


@pytest.fixture(scope="module")
def ainv32(tmp_path_factory):
    """mu and A^{-1}(mu) that `dist` writes for 0.5*s-1 at 32x64."""
    out = tmp_path_factory.mktemp("dist32")
    assert main(["solve", "--profile", "0.5*s-1", "--gamma", str(-4 * np.pi),
                 "--grid", "32,64", "--out", str(out)]) == 0
    assert main(["dist", "--state", str(out / "state.json"), "--out", str(out)]) == 0
    return read_curve_csv(out / "Ainv.csv")


@pytest.mark.parametrize("edit", ["rescaled", "thinned"])
def test_invert_bad_target_abscissae(tmp_path, capsys, monkeypatch, ainv32, edit):
    # a target is sampled uniformly on [0, |domain|] of the --grid annulus;
    # other abscissae are refused before any solve
    from annuflow import cli

    mu, ainv = ainv32
    if edit == "rescaled":
        mu = mu * (2 * np.pi / mu[-1])
    else:                                   # every other point of the first half
        keep = np.r_[np.arange(0, mu.size // 2, 2), np.arange(mu.size // 2, mu.size)]
        mu, ainv = mu[keep], ainv[keep]
    write_curve_csv(tmp_path / "target.csv", mu, ainv)
    solves, real = [], cli.poisson_start
    monkeypatch.setattr(cli, "poisson_start", lambda *a: solves.append(a) or real(*a))
    code, payload = run(capsys, "invert", "--profile", "0.5*s-1",
                        "--gamma", str(-4 * np.pi), "--grid", "32,64",
                        "--target", str(tmp_path / "target.csv"),
                        "--out", str(tmp_path / "inv"))
    assert code == 2
    assert payload["error"] == "bad-target"
    assert solves == []


def test_invert_max_iter_exit3(tmp_path, capsys):
    # one step cannot reach the floor from a start off the target: the
    # outputs are written and the exit code says it did not converge
    from annuflow.grid import make_annulus
    from annuflow.moser import t_map
    from annuflow.steady import Profile1D

    g = make_annulus(1.0, 2.0, 32, 64)
    F = Profile1D.from_callable(lambda s: 0.5 * s - 0.9, -3.0,
                                strictly_monotone=True)
    curve, _ = t_map(F, -4 * np.pi, grid=g, cross_check=False)
    write_curve_csv(tmp_path / "target.csv", curve.grid_x(), curve.values)
    (tmp_path / "cfg.txt").write_text("max_iter=1\n")
    code, payload = run(capsys, "invert", "--profile", "0.5*s-1",
                        "--gamma", str(-4 * np.pi), "--grid", "32,64",
                        "--target", str(tmp_path / "target.csv"),
                        "--config", str(tmp_path / "cfg.txt"),
                        "--cbar", "-3.0", "--out", str(tmp_path / "inv"))
    assert code == 3
    assert payload["error"] == "max-iter"
    trace = (tmp_path / "inv" / "trace.csv").read_text().splitlines()
    assert trace[0] == "n,t_n,residual,update_norm,flags,sigma_ratio"
    assert len(trace) == 2
    row = trace[1].split(",")
    assert row[4] == "max-iter" and 0.0 < float(row[5]) <= 1.0
    assert (tmp_path / "inv" / "profile.csv").exists()
    # the written profile is the one whose steady state is written
    _, samples = read_curve_csv(tmp_path / "inv" / "profile.csv")
    state = json.loads((tmp_path / "inv" / "state.json").read_text())
    assert np.array_equal(samples, state["profile_samples"])
    assert_column_state(tmp_path / "inv" / "state.json", 32)


def test_invert_max_iter_zero_is_invalid_input(tmp_path, capsys, ainv32):
    # a config of no iteration is refused like any other invalid config
    mu, ainv = ainv32
    write_curve_csv(tmp_path / "target.csv", mu, ainv)
    (tmp_path / "cfg.txt").write_text("max_iter=0\n")
    code, payload = run(capsys, "invert", "--profile", "0.5*s-1",
                        "--gamma", str(-4 * np.pi), "--grid", "32,64",
                        "--target", str(tmp_path / "target.csv"),
                        "--config", str(tmp_path / "cfg.txt"),
                        "--out", str(tmp_path / "inv"))
    assert code == 2
    assert payload["error"] == "invalid-input"
    assert "max_iter" in payload["message"]
    assert not (tmp_path / "inv").exists()


@pytest.mark.parametrize("grid", ["16,40", "16,56", "16,70"])
def test_radial_paths_when_ns_has_factors_5_and_7(tmp_path, capsys, grid):
    # the FFT steps of a factor 5 or 7 of Ns leave rounding-level theta
    # variation in the Poisson start of invert (1e-17 at 16x70), which
    # solve_steady reads as radial; the states it returns, which check_nd1,
    # check_nd2 and the Id + K of each Moser step read, are theta-constant
    from annuflow.grid import make_annulus
    from annuflow.moser import t_map
    from annuflow.steady import Profile1D

    code, payload = run(capsys, "check", "--suite", "nd", "--grid", grid,
                        "--out", str(tmp_path / "nd"))
    assert code == 0 and payload["ok"]
    g = make_annulus(1.0, 2.0, *(int(n) for n in grid.split(",")))
    F = Profile1D.from_callable(lambda s: 0.5 * s - 0.9, -3.0,
                                strictly_monotone=True)
    curve, _ = t_map(F, -4 * np.pi, grid=g, cross_check=False)
    write_curve_csv(tmp_path / "target.csv", curve.grid_x(), curve.values)
    code, payload = run(capsys, "invert", "--profile", "0.5*s-1",
                        "--gamma", str(-4 * np.pi), "--grid", grid,
                        "--target", str(tmp_path / "target.csv"),
                        "--cbar", "-3.0", "--out", str(tmp_path / "inv"))
    assert code == 0
    assert payload["iterations"] > 1 and payload["residual"] < 1e-6


def test_check_unknown_suite(tmp_path, capsys):
    code, payload = run(capsys, "check", "--suite", "bogus",
                        "--out", str(tmp_path))
    assert code == 2
    assert payload["error"] == "unknown-suite"


def test_main_builds_its_parser_once(tmp_path, capsys, monkeypatch):
    built, real = [], cli.build_parser

    def counted():
        built.append(1)
        return real()

    monkeypatch.setattr(cli, "build_parser", counted)
    cli._parser.cache_clear()
    try:
        for _ in range(2):
            code, payload = run(capsys, "check", "--suite", "bogus",
                                "--out", str(tmp_path))
            assert payload["error"] == "unknown-suite"
    finally:
        cli._parser.cache_clear()
    assert len(built) == 1


@pytest.mark.parametrize("suite", ["coarea", "tame"])
def test_check_suites_pass(tmp_path, capsys, suite):
    code, payload = run(capsys, "check", "--suite", suite, "--seed", "0",
                        "--out", str(tmp_path))
    assert code == 0
    assert payload["ok"]
    table = (tmp_path / f"check_{suite}.csv").read_text()
    assert table.splitlines()[0] == "check,value,threshold,pass"


@pytest.mark.parametrize("grid", ["16,70", "32,64"])
def test_coarea_suite_passes_on_coarse_grids(tmp_path, capsys, grid):
    # the reference side is the exact integrand by its own quadrature, so
    # the fixed 1e-3 bound measures the chart side alone (the grid
    # integral of u |grad w| zeta(w) passed 2 and 5 of 6 windows here)
    code, payload = run(capsys, "check", "--suite", "coarea", "--grid", grid,
                        "--out", str(tmp_path))
    assert code == 0 and payload["passed"] == payload["total"] == 6, payload


def test_check_nd_factorizes_nothing(tmp_path, capsys, splu_calls):
    # check_nd1 takes the singular values of the radial reference state's
    # theta-mode blocks; check_nd2 assembles its Id + K by Fourier solves
    code, payload = run(capsys, "check", "--suite", "nd", "--grid", "32,64",
                        "--out", str(tmp_path))
    assert code == 0 and payload["ok"]
    assert splu_calls == []


def test_check_deterministic(tmp_path, capsys):
    run(capsys, "check", "--suite", "coarea", "--seed", "3",
        "--out", str(tmp_path / "a"))
    run(capsys, "check", "--suite", "coarea", "--seed", "3",
        "--out", str(tmp_path / "b"))
    ta = (tmp_path / "a" / "check_coarea.csv").read_bytes()
    tb = (tmp_path / "b" / "check_coarea.csv").read_bytes()
    assert ta == tb


def test_tangent_command(tmp_path, capsys):
    run(capsys, "solve", "--profile", "0.5*s-1", "--gamma", str(-4 * np.pi),
        "--out", str(tmp_path))
    # nu = {omega, alpha} for radial omega: tangent by construction
    with open(tmp_path / "state.json") as fh:
        state = state_from_json(fh.read())
    g = state.psi.grid
    from annuflow.grid import field_to_json, poisson_bracket

    alpha = g.field_from(lambda r, t: (r - 1) * (2 - r) * np.sin(t))
    nu = poisson_bracket(state.omega, alpha)
    with open(tmp_path / "nu.json", "w") as fh:
        fh.write(field_to_json(nu))
    code, payload = run(capsys, "tangent", "--state",
                        str(tmp_path / "state.json"), "--nu",
                        str(tmp_path / "nu.json"), "--tangent-tol", "1e-3",
                        "--reconstruct", "--out", str(tmp_path))
    assert code == 0
    assert payload["tangent"]
    assert (tmp_path / "alpha.json").exists()
    assert (tmp_path / "defect.csv").exists()
