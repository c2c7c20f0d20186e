"""In-memory span recorder and the wrappers that feed it.

The recorder is installed from outside the program: every public
module-level function of the annuflow modules is replaced, in every
annuflow module that holds a reference to it (so names imported with
``from .x import f`` are covered too), by a wrapper that opens a span on
entry and closes it on exit.  Two methods of ``moser.StateWorkspace`` and
the ``splu`` call of ``elliptic`` are wrapped as well.  ``uninstall``
puts the original objects back, so timed runs execute unwrapped code.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import json
import time

MODULES = ("grid", "elliptic", "steady", "orbit", "tame", "moser", "curves",
           "exprparse", "cli")

# span fields
NAME, START, END, PARENT, RUN, OK, EXTRA = range(7)


class Recorder:
    """Spans are lists [name, start_ns, end_ns, parent, run_id, ok, extra];
    ``parent`` is the index of the enclosing span or -1."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.run_id = "setup"
        self.seen_c = set()

    def open(self, name):
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent,
                           self.run_id, False, None])
        idx = len(self.spans) - 1
        self.stack.append(idx)
        return idx

    def close(self, idx, ok):
        span = self.spans[idx]
        span[END] = time.perf_counter_ns()
        span[OK] = ok
        self.stack.pop()

    def write(self, path, header):
        with open(path, "w", newline="\n") as fh:
            fh.write(json.dumps(header) + "\n")
            for s in self.spans:
                fh.write(json.dumps({"name": s[NAME], "start_ns": s[START],
                                     "end_ns": s[END], "parent": s[PARENT],
                                     "run": s[RUN], "ok": s[OK],
                                     "extra": s[EXTRA]}) + "\n")


def _wrap(rec, name, fn, annotate=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = rec.open(name)
        ok = False
        try:
            result = fn(*args, **kwargs)
            ok = True
        finally:
            rec.close(idx, ok)
        if annotate is not None:
            rec.spans[idx][EXTRA] = annotate(rec, args, kwargs, result)
        return result
    return wrapper


def _bordered_extra(rec, args, kwargs, system):
    """Grid label, LU fill and whether this c was factorized before in the
    same operation (a fresh CLI grid per call makes every call of a new
    operation a first one)."""
    grid = args[0] if args else kwargs["grid"]
    c = args[1] if len(args) > 1 else kwargs.get("c")
    digest = None if c is None else hashlib.sha1(c.values.tobytes()).hexdigest()
    key = (rec.run_id, grid.Nr, grid.Ns, digest)
    repeat = key in rec.seen_c
    rec.seen_c.add(key)
    lu = system.lu
    nnz = None if lu is None else int(lu.L.nnz + lu.U.nnz)
    return {"grid": f"{grid.Nr}x{grid.Ns}", "repeat": repeat, "lu_nnz": nnz}


class _ModuleProxy:
    """Stands in for a module; named attributes override, the rest delegate."""

    def __init__(self, module, **overrides):
        self._module = module
        self.__dict__.update(overrides)

    def __getattr__(self, attr):
        return getattr(self._module, attr)


def install(rec):
    """Wrap the public functions; returns the list of undo records."""
    mods = {m: importlib.import_module(f"annuflow.{m}") for m in MODULES}
    wrappers = {}
    for mname, mod in mods.items():
        for attr, obj in vars(mod).items():
            if (attr.startswith("_") or not inspect.isfunction(obj)
                    or obj.__module__ != mod.__name__):
                continue
            annotate = _bordered_extra if obj.__name__ == "bordered_system" else None
            wrappers[id(obj)] = (obj, _wrap(rec, f"{mname}.{attr}", obj, annotate))
    undo = []
    for mod in mods.values():
        for attr, obj in list(vars(mod).items()):
            entry = wrappers.get(id(obj))
            if entry is not None and entry[0] is obj:
                undo.append((mod, attr, obj))
                setattr(mod, attr, entry[1])
    ws = mods["moser"].StateWorkspace
    for attr, name in (("__init__", "moser.StateWorkspace.build"),
                       ("assembled_id_plus_k", "moser.id_plus_k")):
        orig = ws.__dict__[attr]
        undo.append((ws, attr, orig))
        setattr(ws, attr, _wrap(rec, name, orig))
    ell = mods["elliptic"]
    undo.append((ell, "spla", ell.spla))
    ell.spla = _ModuleProxy(ell.spla,
                            splu=_wrap(rec, "elliptic.splu", ell.spla.splu))
    return undo


def uninstall(undo):
    for owner, attr, orig in reversed(undo):
        setattr(owner, attr, orig)


def span_cost_ns(n=20000):
    """Measured cost of one wrapped call of a no-op, minus the bare call."""
    def noop():
        return None

    rec = Recorder()
    wrapped = _wrap(rec, "noop", noop)
    t0 = time.perf_counter_ns()
    for _ in range(n):
        noop()
    t1 = time.perf_counter_ns()
    for _ in range(n):
        wrapped()
    t2 = time.perf_counter_ns()
    return max((t2 - t1) - (t1 - t0), 0) / n


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------

def layer_table(spans, runs):
    """{name: [calls, self_ns, total_ns]} over spans whose run id is in
    ``runs``.  Self time is the span minus its children; a span nested in
    a span of the same name adds to calls but not again to total."""
    child_ns = [0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child_ns[s[PARENT]] += s[END] - s[START]
    table = {}
    for i, s in enumerate(spans):
        if s[RUN] not in runs:
            continue
        dur = s[END] - s[START]
        row = table.setdefault(s[NAME], [0, 0, 0])
        row[0] += 1
        row[1] += dur - child_ns[i]
        p = s[PARENT]
        while p >= 0 and spans[p][NAME] != s[NAME]:
            p = spans[p][PARENT]
        if p < 0:
            row[2] += dur
    return table


def _children(spans):
    kids = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            kids[s[PARENT]].append(i)
    return kids


def _descendants(kids, i):
    out, todo = [], list(kids[i])
    while todo:
        j = todo.pop()
        out.append(j)
        todo.extend(kids[j])
    return out


MOSER_STAGES = {"solve": "steady.solve_steady",
                "workspace": "moser.StateWorkspace.build",
                "id_plus_k": "moser.id_plus_k",
                "vm": "moser.vm",
                "smooth": "tame.smooth"}


def derived(spans, runs):
    """Ratios and counts measured at the layer boundaries."""
    kids = _children(spans)
    sel = [i for i, s in enumerate(spans) if s[RUN] in runs]
    out = {}

    bs = [spans[i] for i in sel if spans[i][NAME] == "elliptic.bordered_system"]
    out["elliptic.bordered_system.repeat_ratio"] = (
        sum(1 for s in bs if s[EXTRA]["repeat"]) / len(bs) if bs else 0.0)
    fill = {}
    for s in bs:
        if s[EXTRA]["lu_nnz"] is not None:
            fill[s[EXTRA]["grid"]] = s[EXTRA]["lu_nnz"]
    out["lu_fill"] = fill

    solves = [i for i in sel if spans[i][NAME] == "steady.solve_steady"]
    steps = sum(1 for i in solves for j in kids[i]
                if spans[j][NAME] == "elliptic.bordered_system")
    out["steady.newton_steps"] = steps / len(solves) if solves else 0.0

    wss = [i for i in sel if spans[i][NAME] == "moser.workspace"]
    hits = sum(1 for i in wss if not any(spans[j][NAME] == "moser.StateWorkspace.build"
                                         for j in kids[i]))
    out["moser.workspace.hit_ratio"] = hits / len(wss) if wss else 0.0

    # one Moser iteration runs from one steady solve under moser_solve to
    # the next; the last one ends with moser_solve (final cross-check)
    n_iter, iter_ns = 0, 0
    stage_ns = dict.fromkeys(MOSER_STAGES, 0)
    for i in sel:
        if spans[i][NAME] != "moser.moser_solve":
            continue
        starts = [spans[j][START] for j in kids[i]
                  if spans[j][NAME] == "steady.solve_steady"]
        ends = starts[1:] + [spans[i][END]]
        n_iter += len(starts)
        iter_ns += sum(e - s for s, e in zip(starts, ends))
        desc = _descendants(kids, i)
        for stage, name in MOSER_STAGES.items():
            for j in desc:
                if spans[j][NAME] != name:
                    continue
                dur = spans[j][END] - spans[j][START]
                if stage == "vm":       # SVD and dense solve: vm minus children
                    dur -= sum(spans[k][END] - spans[k][START] for k in kids[j])
                stage_ns[stage] += dur
    out["moser.iterations_total"] = n_iter
    out["moser.iteration_ns_total"] = iter_ns
    out["moser.stage_ns_total"] = stage_ns
    out["spans"] = len(sel)
    return out
