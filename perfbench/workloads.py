"""The benchmark workloads: inputs from a seed, one operation, its check.

Each workload is a closed loop with one client: the next operation starts
when the previous one has returned.  ``setup`` builds the inputs (timed as
part of set-up), ``op`` runs one operation against the public API or the
in-process CLI (timed), and ``check`` returns the list of gate failures of
that operation's output (not timed).
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from time import perf_counter as _now

import numpy as np

from annuflow import cli, elliptic, moser
from annuflow.grid import make_annulus
from annuflow.steady import Profile1D

GAMMA4 = -4 * np.pi
CBAR = -3.0
AREA = 3 * np.pi                     # pi (Ro^2 - Ri^2) with Ri = 1, Ro = 2
AREA_TOL_REL = 5e-3                  # orbit.AREA_TOL_REL at the seed commit
SWEEP_GRIDS = ((32, 64), (64, 128), (128, 256))
EIG_GRID = (20, 40)
# principal_eigenvalue on EIG_GRID at the seed commit (dense generalized eig)
EIG_REFERENCE = 3.216365018716943
EIG_RTOL = 1e-8


def _cli(argv):
    """Run annuflow.cli.main in-process; returns (exit code, parsed stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    lines = buf.getvalue().strip().splitlines()
    return code, (json.loads(lines[-1]) if lines else {})


def _bump(s):
    u = np.clip((s + 0.45) / 0.3, -1, 1)
    return 0.5 * s - 1.0 + 0.02 * (1 - u**2) ** 3


class Workload:
    name = ""
    units = 1             # checked operations per loop step
    rss_after_ops = 1     # peak RSS is read after this many loop steps

    def latencies(self, records):
        """Wall times (ms) of the operations that passed their checks."""
        return [r["ms"] for r in records if r["ok"]]


# ---------------------------------------------------------------------------
# invert-bump: the reference inversion of acceptance criterion 10
# ---------------------------------------------------------------------------

class InvertBump(Workload):
    name = "invert-bump"

    def setup(self, seed, workdir):
        # the reference inversion has fixed inputs: a different start
        # changes the iteration count (10 or 11), so the seed is not used
        grid = make_annulus(1.0, 2.0, 64, 128)
        target, state_star = moser.t_map(
            Profile1D.from_callable(_bump, CBAR, strictly_monotone=True),
            GAMMA4, grid=grid, cross_check=False)
        start = Profile1D.from_callable(lambda s: 0.5 * s - 1.0, CBAR,
                                        strictly_monotone=True)
        return {"grid": grid, "target": target, "state_star": state_star,
                "start": start}

    def op(self, inp, k):
        _, state, trace = moser.moser_solve(inp["start"], GAMMA4, inp["target"],
                                            cfg=moser.MoserConfig(),
                                            grid=inp["grid"])
        return {"state": state, "trace": trace}

    def check(self, inp, k, res):
        trace, state = res["trace"], res["state"]
        h2 = inp["grid"].h ** 2
        gap = float(np.abs(state.psi.values - inp["state_star"].psi.values).max())
        bad = []
        if "converged" not in trace.rows[-1][4]:
            bad.append(f"not converged: last flags {trace.rows[-1][4]!r}")
        if not gap < 5 * h2:
            bad.append(f"psi gap {gap:.3e} >= 5 h^2 = {5 * h2:.3e}")
        if trace.repair_count > 2:
            bad.append(f"{trace.repair_count} monotonicity repairs > 2")
        res["iterations"] = len(trace.rows)
        return [bad]

    def detail(self, records):
        ok = [r for r in records if r["ok"]]
        return {
            "invert_s": (_median([r["ms"] / 1e3 for r in ok]), "s"),
            "invert_iters": (_median([r["res"]["iterations"] for r in ok]), "count"),
        }


# ---------------------------------------------------------------------------
# solve-dist-sweep: a parameter study through the CLI at three grids
# ---------------------------------------------------------------------------

class SolveDistSweep(Workload):
    name = "solve-dist-sweep"
    units = len(SWEEP_GRIDS)
    rss_after_ops = 5
    # offset range of the seeded profiles a*s + b + c*s*s
    offset = (-1.0, -0.9)

    def setup(self, seed, workdir):
        rng = np.random.default_rng(seed)
        n = 4096
        a = rng.uniform(0.4, 0.6, n)
        b = rng.uniform(*self.offset, n)
        c = rng.uniform(-0.03, 0.03, n)
        profiles = [f"{ai!r}*s+{bi!r}+{ci!r}*s*s"
                    for ai, bi, ci in zip(a.tolist(), b.tolist(), c.tolist())]
        dirs = {}
        for nr, ns in SWEEP_GRIDS:
            dirs[nr, ns] = os.path.join(workdir, f"{nr}x{ns}")
            os.makedirs(dirs[nr, ns], exist_ok=True)
        return {"profiles": profiles, "dirs": dirs}

    def op(self, inp, k):
        """One parameter point: solve and dist of one profile on each grid,
        each CLI call building its own grid.  Returns one record per state."""
        profile = inp["profiles"][k % len(inp["profiles"])]
        states = []
        for nr, ns in SWEEP_GRIDS:
            out = inp["dirs"][nr, ns]
            t0 = _now()
            code_s, res_s = _cli(["solve", "--profile", profile,
                                  "--gamma", repr(GAMMA4), "--grid", f"{nr},{ns}",
                                  "--tol", "1e-9", "--out", out])
            code_d, res_d = (None, {})
            if code_s == 0:
                code_d, res_d = _cli(["dist", "--state",
                                      os.path.join(out, "state.json"), "--out", out])
            states.append({"grid": f"{nr}x{ns}", "ms": (_now() - t0) * 1e3,
                           "profile": profile, "solve": (code_s, res_s),
                           "dist": (code_d, res_d), "out": out})
        return states

    def check(self, inp, k, states):
        out = []
        for st in states:
            bad = self._check_state(st)
            st["ok"] = not bad
            out.append(bad)
        return out

    def latencies(self, records):
        return [st["ms"] for r in records if r["res"] for st in r["res"]
                if st["ok"]]

    def _check_state(self, st):
        code_s, res_s = st["solve"]
        code_d, res_d = st["dist"]
        where = f"{st['grid']} {st['profile']}"
        if code_s != 0:
            return [f"solve exit {code_s} at {where}: {res_s}"]
        bad = []
        if not res_s.get("newton_residual", np.inf) < 1e-9:
            bad.append(f"newton residual {res_s.get('newton_residual')} at {where}")
        if code_d != 0:
            return bad + [f"dist exit {code_d} at {where}: {res_d}"]
        disc = res_d.get("area_discrepancy", np.inf)
        if not abs(disc) <= AREA_TOL_REL:
            bad.append(f"area discrepancy {disc} at {where}")
        mu, val = np.loadtxt(os.path.join(st["out"], "Ainv.csv"),
                             delimiter=",", unpack=True)
        if not (abs(mu[0]) < 1e-12 and abs(mu[-1] - AREA) < 1e-9 * AREA
                and np.all(np.diff(val) >= 0)):
            bad.append(f"Ainv.csv not a monotone curve on [0, |domain|] at {where}")
        return bad

    def detail(self, records):
        ok = [st for r in records if r["res"] for st in r["res"] if st["ok"]]
        step_s = _median([r["ms"] for r in records]) / 1e3
        out = {"sweep_states_per_s": (len(ok) / (len(records) * step_s), "1/s")}
        for nr, ns in SWEEP_GRIDS:
            label = f"{nr}x{ns}"
            ms = sorted(st["ms"] for st in ok if st["grid"] == label)
            out[f"state_p50_ms.{label}"] = (_median(ms), "ms")
            out[f"state_n.{label}"] = (len(ms), "count")
            tail = _tail_percentile(ms)
            if tail is not None:
                out[f"state_p{tail[0]}_ms.{label}"] = (tail[1], "ms")
        return out


class SolveDistSweepWide(SolveDistSweep):
    """The offset range -1.1 .. -0.9 of the original study.  Profiles with
    offset below about -1.05 and a steep slope fail ``dist`` with
    area-mismatch at 32x64 and 64x128, whose charts both have 64 rows (a
    known defect of the seed commit), so this workload is not in
    BENCHMARK.json; it reproduces the defect."""

    name = "solve-dist-sweep-wide"
    offset = (-1.1, -0.9)


# ---------------------------------------------------------------------------
# nondegeneracy: check --suite nd, then the principal eigenvalue
# ---------------------------------------------------------------------------

class Nondegeneracy(Workload):
    name = "nondegeneracy"

    def setup(self, seed, workdir):
        return {"seed": seed, "out": workdir}

    def op(self, inp, k):
        t0 = _now()
        code, res = _cli(["check", "--suite", "nd", "--grid", "64,128",
                          "--seed", str(inp["seed"]), "--out", inp["out"]])
        t1 = _now()
        lam = elliptic.principal_eigenvalue(make_annulus(1.0, 2.0, *EIG_GRID))
        t2 = _now()
        return {"code": code, "res": res, "lam": lam,
                "nd_ms": (t1 - t0) * 1e3, "eig_ms": (t2 - t1) * 1e3}

    def check(self, inp, k, res):
        bad = []
        if res["code"] != 0 or res["res"].get("ok") is not True:
            bad.append(f"check --suite nd: exit {res['code']}, {res['res']}")
        rel = abs(res["lam"] - EIG_REFERENCE) / EIG_REFERENCE
        if not rel <= EIG_RTOL:
            bad.append(f"principal eigenvalue {res['lam']!r} off the reference "
                       f"{EIG_REFERENCE!r} by {rel:.2e} (> {EIG_RTOL:.0e})")
        return [bad]

    def detail(self, records):
        ok = [r for r in records if r["ok"]]
        return {"nd_s": (_median([r["res"]["nd_ms"] / 1e3 for r in ok]), "s"),
                "eig_s": (_median([r["res"]["eig_ms"] / 1e3 for r in ok]), "s")}


# ---------------------------------------------------------------------------
# invert-nd: the reference inversion, then the nondegeneracy paths
# ---------------------------------------------------------------------------

class InvertNd(Workload):
    """One operation is an ``invert-bump`` inversion followed by a
    ``nondegeneracy`` operation.  Both stress ``Id+K``; together they are
    the one workload that reaches ``moser`` and the eigen and
    singular-value paths.  It is checked as one operation that fails when
    either part fails its gate."""

    name = "invert-nd"

    def __init__(self, invert, nd):
        self.invert, self.nd = invert, nd

    def setup(self, seed, workdir):
        return {"invert": self.invert.setup(seed, workdir),
                "nd": self.nd.setup(seed, workdir)}

    def op(self, inp, k):
        t0 = _now()
        inv = self.invert.op(inp["invert"], k)
        t1 = _now()
        nd = self.nd.op(inp["nd"], k)
        return {"invert": inv, "nd": nd, "invert_ms": (t1 - t0) * 1e3,
                "nd_ms": (_now() - t1) * 1e3}

    def check(self, inp, k, res):
        return [self.invert.check(inp["invert"], k, res["invert"])[0]
                + self.nd.check(inp["nd"], k, res["nd"])[0]]

    def detail(self, records):
        parts = {}
        for part, w in (("invert", self.invert), ("nd", self.nd)):
            parts.update(w.detail([{"ms": r["res"][part + "_ms"],
                                    "res": r["res"][part], "ok": r["ok"]}
                                   for r in records if r["res"]]))
        return parts


INVERT_BUMP, NONDEGENERACY = InvertBump(), Nondegeneracy()
WORKLOADS = {w.name: w for w in (InvertNd(INVERT_BUMP, NONDEGENERACY),
                                 SolveDistSweep(), INVERT_BUMP, NONDEGENERACY,
                                 SolveDistSweepWide())}


# ---------------------------------------------------------------------------

def _median(xs):
    return float(np.median(xs)) if len(xs) else None


def _tail_percentile(sorted_xs):
    """Highest whole percentile above the median with at least ten samples
    beyond it, as (percentile, value); None when there are too few."""
    n = len(sorted_xs)
    for p in (99, 95, 90, 75):
        if n * (100 - p) / 100 >= 10:
            return p, float(np.percentile(sorted_xs, p))
    return None
