"""annuflow benchmark: one workload, closed loop, one client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/`` (nothing is installed).  BLAS threads are capped at the number of
CPUs this process may use.  With ``--trace 0`` the run is untraced and
reports the end-to-end metrics; with ``--trace 1`` every public annuflow
function is wrapped by the span recorder in ``tracer.py`` and the run
reports the per-layer metrics.  Diagnostic lines come first; the last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Spans of a traced run are
written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter as now

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
SETUP_REPEATS = 5
NPROC = len(os.sched_getaffinity(0))
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t = time.perf_counter(); import annuflow.cli; "
                "print(time.perf_counter() - t)")

# per-layer functions reported by a traced run, named <module>.<function>
LAYER_FUNCS = (
    "grid.laplacian", "grid.gradient",
    "elliptic.bordered_system", "elliptic.splu", "elliptic.bordered_solve",
    "elliptic.solve_poisson", "elliptic.sigma_min_estimate",
    "elliptic.check_nd1", "elliptic.principal_eigenvalue",
    "steady.solve_steady", "steady.energy_pair",
    "orbit.level_chart", "orbit.dist_fn", "orbit.j_over_grad", "orbit.check_nd2",
    "tame.smooth",
    "moser.StateWorkspace.build", "moser.id_plus_k", "moser.vb", "moser.vm",
    "moser.t_map",
    "cli.cmd_solve", "cli.cmd_dist", "cli.cmd_check",
)
SETUP_FUNCS = ("moser.t_map",)          # reported per set-up, not per operation
FILL_GRIDS = ("32x64", "64x128", "128x256")


def import_seconds():
    """Import time of the package in a fresh interpreter."""
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                         capture_output=True, text=True, check=True, timeout=120)
    return float(out.stdout.split()[-1])


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def closed_loop(w, inp, seconds, start_k=0, rec=None, rss_at=None):
    """Run operations back to back for ``seconds`` (at least one).  The loop
    stops before a step that, at the median step time so far, would end
    past them, so a run lasts about ``seconds`` even when one operation
    takes a large part of it.  Returns the records and the peak RSS read
    after ``rss_at`` operations (or at the end)."""
    records, rss = [], None
    t_start = now()
    k = start_k
    while True:
        if rec is not None:
            rec.run_id = k
        gc.collect()          # each operation starts from the same heap state
        t0 = now()
        try:
            res = w.op(inp, k)
            err = None
        except Exception as exc:         # an operation failure is counted, not fatal
            res, err = None, f"{type(exc).__name__}: {exc}"
        ms = (now() - t0) * 1e3
        if rec is not None:
            rec.run_id = None
        if err is None:
            try:
                fails = w.check(inp, k, res)
            except Exception as exc:
                fails = [[f"check raised {type(exc).__name__}: {exc}"]] * w.units
        else:
            fails = [[err]] * w.units
        for f in fails:
            for msg in f:
                print(f"FAIL {w.name} op {k}: {msg}", file=sys.stderr)
        records.append({"k": k, "ms": ms, "res": res, "fails": fails,
                        "ok": not any(fails)})
        k += 1
        if rss_at is not None and k - start_k == rss_at:
            rss = peak_rss_mb()
        pace_s = statistics.median(r["ms"] for r in records) / 1e3
        if now() - t_start + pace_s > seconds:
            break
    return records, (rss if rss is not None else peak_rss_mb())


def counts(records):
    attempted = sum(len(r["fails"]) for r in records)
    failed = sum(1 for r in records for f in r["fails"] if f)
    return attempted, failed


def _metric(value, unit):
    return {"value": None if value is None else float(value), "unit": unit}


def timed_run(w, args, workdir):
    setups = []
    for _ in range(SETUP_REPEATS):
        imp = import_seconds()
        t0 = now()
        inp = w.setup(args.seed, workdir)
        setups.append(imp + now() - t0)
    records, rss = closed_loop(w, inp, args.seconds, rss_at=w.rss_after_ops)
    attempted, failed = counts(records)
    lat = w.latencies(records) or [r["ms"] for r in records]
    # throughput at the median loop-step pace: unlike total work over total
    # time, a median is not moved by the few steps that a stall of the
    # shared host slows down
    step_s = statistics.median(r["ms"] for r in records) / 1e3
    metrics = {
        "setup_s": _metric(statistics.median(setups), "s"),
        "op_p50_ms": _metric(statistics.median(lat), "ms"),
        "ops_per_s": _metric((attempted - failed) / (len(records) * step_s), "1/s"),
        "peak_rss_mb": _metric(rss, "MB"),
        "ok_ratio": _metric((attempted - failed) / attempted, "ratio"),
    }
    detail = {k: _metric(*v) for k, v in w.detail(records).items()}
    detail["peak_rss_mb"] = _metric(rss, "MB")
    detail["failed_ratio"] = _metric(failed / attempted, "ratio")
    print(json.dumps({"workload": w.name, "seed": args.seed, "nproc": NPROC,
                      "blas_threads": NPROC, "load": "closed loop, 1 client",
                      "loop_steps": len(records), "latency_samples": len(lat),
                      "step_ms": [round(r["ms"], 3) for r in records],
                      "setup_s_samples": setups,
                      "failed_ratio_base": attempted, "detail": detail}))
    return attempted, failed, metrics


def traced_run(w, args, workdir):
    import tracer

    rec = tracer.Recorder()
    undo = tracer.install(rec)
    t0 = now()
    inp = w.setup(args.seed, workdir)
    setup_ms = (now() - t0) * 1e3
    tracer.uninstall(undo)
    # operations alternate untraced and traced, so that the tracing
    # overhead is the difference of the two medians
    plain, traced = [], []
    t_start = now()
    k = 0
    while k < 2 or now() - t_start < args.seconds:
        if k % 2:
            undo = tracer.install(rec)
            try:
                traced += closed_loop(w, inp, 0, start_k=k, rec=rec)[0]
            finally:
                tracer.uninstall(undo)
        else:
            plain += closed_loop(w, inp, 0, start_k=k)[0]
        k += 1
    plain_ms = statistics.median(r["ms"] for r in plain)
    rec.write(OUT / f"spans-{w.name}-seed{args.seed}.jsonl",
              {"workload": w.name, "seed": args.seed, "nproc": NPROC,
               "op_ms": {r["k"]: r["ms"] for r in plain + traced},
               "traced_ops": [r["k"] for r in traced]})
    attempted, failed = counts(plain + traced)

    runs = {r["k"] for r in traced}
    n = len(traced)
    op_ms = statistics.fmean(r["ms"] for r in traced)
    table = tracer.layer_table(rec.spans, runs)
    setup_table = tracer.layer_table(rec.spans, {"setup"})
    metrics, detail = {}, {}
    for name in sorted(table):
        calls, self_ns, total_ns = table[name]
        detail[name] = {"calls": calls / n, "self_ms": self_ns / 1e6 / n,
                        "total_ms": total_ns / 1e6 / n}
    for name in LAYER_FUNCS:
        if name in SETUP_FUNCS:
            (calls, self_ns, total_ns), per, base_ms = (
                setup_table.get(name, (0, 0, 0)), 1, max(setup_ms, 1e-9))
            detail[name + " (per set-up)"] = {"calls": calls, "self_ms": self_ns / 1e6,
                                              "total_ms": total_ns / 1e6}
        else:
            (calls, self_ns, total_ns), per, base_ms = table.get(name, (0, 0, 0)), n, op_ms
        metrics[f"{name}.calls"] = _metric(calls / per, "count")
        metrics[f"{name}.self_share"] = _metric(self_ns / 1e6 / per / base_ms, "ratio")
        metrics[f"{name}.total_share"] = _metric(total_ns / 1e6 / per / base_ms, "ratio")

    d = tracer.derived(rec.spans, runs)
    for key in ("elliptic.bordered_system.repeat_ratio", "moser.workspace.hit_ratio"):
        metrics[key] = _metric(d[key], "ratio")
    for grid in FILL_GRIDS:
        metrics[f"elliptic.lu_fill_nnz.{grid}"] = _metric(d["lu_fill"].get(grid, 0), "count")
    metrics["steady.newton_steps"] = _metric(d["steady.newton_steps"], "count")
    n_iter = d["moser.iterations_total"]
    metrics["moser.iterations"] = _metric(n_iter / n, "count")
    iter_ms = d["moser.iteration_ns_total"] / 1e6 / n_iter if n_iter else 0.0
    detail["moser.iteration_ms"] = iter_ms
    for stage, ns in d["moser.stage_ns_total"].items():
        stage_ms = ns / 1e6 / n_iter if n_iter else 0.0
        detail[f"moser.stage_ms.{stage}"] = stage_ms
        metrics[f"moser.stage_share.{stage}"] = _metric(
            stage_ms / iter_ms if iter_ms else 0.0, "ratio")
    spans_per_op = d["spans"] / n
    cost_ns = tracer.span_cost_ns()
    overhead_ms = statistics.median(r["ms"] for r in traced) - plain_ms
    metrics["trace.spans"] = _metric(spans_per_op, "count")
    metrics["trace.overhead_share"] = _metric(overhead_ms / plain_ms, "ratio")
    metrics["trace.est_overhead_share"] = _metric(spans_per_op * cost_ns / 1e6 / op_ms,
                                                  "ratio")
    detail["trace.overhead_ms"] = overhead_ms
    detail["trace.span_cost_ns"] = cost_ns
    print(json.dumps({"workload": w.name, "seed": args.seed, "nproc": NPROC,
                      "traced_ops": n, "op_ms": op_ms,
                      "untraced_op_ms": plain_ms, "setup_ms": setup_ms,
                      "per_op": detail}))
    return attempted, failed, metrics


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "annuflow" / "__init__.py").is_file():
        print(f"error: no annuflow sources under {SRC}", file=sys.stderr)
        return 2
    for var in BLAS_VARS:
        os.environ[var] = str(NPROC)
    # write no bytecode: a clean checkout then compiles the package on every
    # run, so set-up time does not depend on what earlier runs left behind
    os.environ["PYTHONDONTWRITEBYTECODE"] = "1"
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(SRC), str(Path(__file__).resolve().parent)]
    import workloads

    w = workloads.WORKLOADS.get(args.workload)
    if w is None:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workdir = OUT / "work" / w.name
    workdir.mkdir(parents=True, exist_ok=True)
    run = traced_run if args.trace else timed_run
    attempted, failed, metrics = run(w, args, str(workdir))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
