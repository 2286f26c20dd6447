"""Span recording around the public functions of every heatfvp module.

Wrappers are installed from here, without touching program code: each
public function defined in a layer module is wrapped once and the wrapper
is rebound under every name that held the original, in every heatfvp
module namespace (``kahan_sum`` is bound in spectral, duhamel and boundary,
``build_basis`` in cli, and so on).  A span records name, start, end,
parent span and op id in flat arrays; spans stay in memory and are written
out when the run ends.  A layer's self time is its span time minus the time
of its child spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from array import array
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

from heatfvp import duhamel as dh

LAYERS = ("logspace", "spectral", "semigroup", "duhamel", "boundary", "fvp", "generator", "fdoracle", "cli")
METHODS = (("duhamel", "Trajectory", "to_csv"),)
SOLVES = ("fvp.solve_final_value", "boundary.solve_final_value_inhom")
# callee -> which completed solves its calls_per_solve counts
PER_SOLVE = {"semigroup.check_domain_membership": "all", "duhamel.source_yield": "source",
             "boundary.boundary_yield": "boundary"}
SUBCOMMANDS = ("forward", "backward", "backward-inhom", "check-compat",
               "instability-demo", "norms", "oracle-compare", "generator-lab")
MB = 1024.0 * 1024.0


class Tracer:
    """Collects spans while `active`; inactive wrappers call straight through."""

    def __init__(self):
        self.active = False
        self.op = 0
        self.names: list = []
        self._ids: dict = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.op_ids = array("i")
        self._stack: list = []
        self.counters = defaultdict(float)
        self.solve_flags: dict = {}   # span index -> (has_source, has_boundary)
        self.max_log_norm = -np.inf

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    @contextmanager
    def paused(self):
        was, self.active = self.active, False
        try:
            yield
        finally:
            self.active = was

    def wrap(self, qualname: str, fn):
        nid = self._intern(qualname)
        hook = _HOOKS.get(qualname)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(self.start)
            self.start.append(perf_counter())
            self.end.append(0.0)
            self.name.append(nid)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.op_ids.append(self.op)
            self._stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                self.end[idx] = perf_counter()
            if hook is not None:
                with self.paused():
                    hook(self, idx, args, kwargs, out)
            return out

        wrapper.__wrapped_by_perfbench__ = True
        return wrapper

    def install(self):
        """Wrap every public function of the layer modules and rebind the
        wrappers wherever heatfvp code can look the originals up."""
        mods = {name: importlib.import_module(f"heatfvp.{name}") for name in LAYERS}
        wrapped = {}
        for name, mod in mods.items():
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != mod.__name__ or getattr(obj, "__wrapped_by_perfbench__", False):
                    continue
                wrapped[id(obj)] = (obj, self.wrap(f"{name}.{attr}", obj))
        namespaces = [sys.modules["heatfvp"]] + list(mods.values())
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(ns, attr, hit[1])
        for modname, cls, meth in METHODS:
            klass = getattr(mods[modname], cls)
            setattr(klass, meth, self.wrap(f"{modname}.{cls}.{meth}", getattr(klass, meth)))

    # -- output -------------------------------------------------------

    def arrays(self) -> dict:
        return {
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "op": np.frombuffer(self.op_ids, dtype=np.int32).copy(),
        }

    def dump(self, path: str):
        """Write the spans, the name table and the counters in one .npz."""
        arrs = self.arrays()
        flags = np.array([[i, s, b] for i, (s, b) in self.solve_flags.items()], dtype=np.int64).reshape(-1, 3)
        np.savez_compressed(
            path,
            names=np.array(self.names, dtype=object).astype(str),
            counters_keys=np.array(list(self.counters), dtype=str),
            counters_vals=np.array(list(self.counters.values()), dtype=float),
            solve_flags=flags,
            max_log_norm=np.array([self.max_log_norm]),
            **arrs,
        )


# -- hooks: counts computed where the work happens --------------------------

def _table_bytes(tr, idx, args, kwargs, basis):
    tables = list(basis.sines) + list(basis.axes) + list(basis.weights)
    tr.counters["spectral.table_bytes"] += float(sum(t.nbytes for t in tables))


def _membership(tr, idx, args, kwargs, report):
    finite = [v for v in report.log_graph_norms if np.isfinite(v)]
    if finite:
        tr.max_log_norm = max(tr.max_log_norm, max(finite))


def _solve_cauchy(tr, idx, args, kwargs, traj):
    names = ("u0", "f", "tgrid", "lift_coeff_path", "extra_times")
    bound = dict(zip(names, args), **kwargs)
    if bound.get("f") is None and bound.get("lift_coeff_path") is None:
        return  # pure decay: evaluated node by node, no stepping
    # the march's own node set, as solve_cauchy builds it
    ts = np.asarray(bound["tgrid"], dtype=float)
    merged = dh._merged_grid(bound.get("f"), ts, ts[-1], bound.get("extra_times"))
    tr.counters["duhamel.solve_cauchy.steps"] += merged.size
    tr.counters["duhamel.march_s"] += tr.end[idx] - tr.start[idx]


def _to_csv(tr, idx, args, kwargs, text):
    tr.counters["duhamel.csv_bytes"] += len(text)


def _sectoriality(tr, idx, args, kwargs, report):
    tr.counters["generator.svd_count"] += report.n_sampled


def _fd_solve(tr, idx, args, kwargs, res):
    tr.counters["fdoracle.steps"] += res.times.size - 1
    tr.counters["fdoracle.time_s"] += tr.end[idx] - tr.start[idx]


def _solve_fvp(tr, idx, args, kwargs, sol):
    data = args[0] if args else kwargs["data"]
    tr.solve_flags[idx] = (data.f is not None, False)


def _solve_inhom(tr, idx, args, kwargs, sol):
    names = ("f", "g", "u_T", "T")
    bound = dict(zip(names, args), **kwargs)
    g = bound.get("g")
    tr.solve_flags[idx] = (bound.get("f") is not None, g is not None and not g.is_zero)


_HOOKS = {
    "spectral.build_basis": _table_bytes,
    "semigroup.check_domain_membership": _membership,
    "duhamel.solve_cauchy": _solve_cauchy,
    "duhamel.Trajectory.to_csv": _to_csv,
    "generator.check_sectoriality": _sectoriality,
    "fdoracle.fd_solve": _fd_solve,
    "fvp.solve_final_value": _solve_fvp,
    "boundary.solve_final_value_inhom": _solve_inhom,
}


# -- aggregation -------------------------------------------------------------

class SpanSet:
    """Spans merged from one or more tracers or dumps."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counters = defaultdict(float)
        self.per_solve = defaultdict(int)     # callee -> calls inside counted solves
        self.solves = defaultdict(int)        # kind -> completed solves
        self.max_log_norm = -np.inf
        self.n_spans = 0

    def add(self, names, arrs, counters, solve_flags, max_log_norm):
        start, end, name, parent = arrs["start"], arrs["end"], arrs["name"], arrs["parent"]
        n = start.size
        self.n_spans += n
        for k, v in counters.items():
            self.counters[k] += v
        self.max_log_norm = max(self.max_log_norm, float(max_log_norm))
        if n == 0:
            return
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        own = dur - child
        calls = np.bincount(name, minlength=len(names))
        selfs = np.bincount(name, weights=own, minlength=len(names))
        for i, nm in enumerate(names):
            if calls[i]:
                self.calls[nm] += int(calls[i])
                self.self_s[nm] += float(selfs[i])
        # attribute each span to the outermost completed backward solve it ran in
        solve_ids = {i for i, nm in enumerate(names) if nm in SOLVES}
        flags = {int(i): (bool(s), bool(b)) for i, s, b in np.asarray(solve_flags).reshape(-1, 3)}
        if not solve_ids:
            return
        root = np.full(n, -1, dtype=np.int64)
        name_l = name.tolist()
        parent_l = parent.tolist()
        for i in range(n):
            p = parent_l[i]
            if p >= 0 and root[p] >= 0:
                root[i] = root[p]
            elif name_l[i] in solve_ids and i in flags:
                root[i] = i
        for i, (src, bnd) in flags.items():
            self.solves["all"] += 1
            self.solves["source"] += src
            self.solves["boundary"] += bnd
        callees = {names.index(nm): nm for nm in PER_SOLVE if nm in names}
        for i in np.nonzero(root >= 0)[0].tolist():
            callee = callees.get(name_l[i])
            if callee is None:
                continue
            src, bnd = flags[int(root[i])]
            kind = PER_SOLVE[callee]
            if kind == "all" or (kind == "source" and src) or (kind == "boundary" and bnd):
                self.per_solve[callee] += 1

    def add_tracer(self, tr: Tracer):
        flags = [[i, s, b] for i, (s, b) in tr.solve_flags.items()]
        self.add(tr.names, tr.arrays(), tr.counters, flags, tr.max_log_norm)

    def add_dump(self, path: str):
        with np.load(path, allow_pickle=False) as z:
            names = [str(s) for s in z["names"]]
            arrs = {k: z[k] for k in ("start", "end", "name", "parent")}
            counters = dict(zip((str(k) for k in z["counters_keys"]), z["counters_vals"].tolist()))
            self.add(names, arrs, counters, z["solve_flags"], z["max_log_norm"][0])

    def calls_per_solve(self, callee: str) -> float:
        n = self.solves[PER_SOLVE[callee]]
        return self.per_solve[callee] / n if n else 0.0


def layer_metrics(spans: SpanSet, log_max: float) -> dict:
    """The per-layer metrics every workload reports (0 where a layer is not
    exercised).  Keys are metric names, values (value, unit)."""
    out = {}

    def cs(qual, calls=True, self_s=True):
        if calls:
            out[f"{qual}.calls"] = (spans.calls.get(qual, 0), "count")
        if self_s:
            out[f"{qual}.self_s"] = (spans.self_s.get(qual, 0.0), "s")

    for fn in ("kahan_sum", "split_phase", "logspace_add", "log_sum_exp"):
        cs(f"logspace.{fn}")
    cs("spectral.build_basis")
    out["spectral.table_mb"] = (spans.counters["spectral.table_bytes"] / MB, "MB")
    cs("spectral.triple_norms")
    cs("spectral.synthesize")
    cs("spectral.vec_from_json", calls=False)
    cs("spectral.vec_to_json", calls=False)
    cs("spectral.rel_distance", self_s=False)
    cs("semigroup.check_domain_membership")
    out["semigroup.check_domain_membership.calls_per_solve"] = (
        spans.calls_per_solve("semigroup.check_domain_membership"), "calls/solve")
    headroom = log_max - spans.max_log_norm if np.isfinite(spans.max_log_norm) else log_max
    out["semigroup.log_headroom_min"] = (headroom, "ln")
    cs("duhamel.solve_cauchy")
    steps = spans.counters["duhamel.solve_cauchy.steps"]
    out["duhamel.solve_cauchy.steps"] = (steps, "count")
    out["duhamel.step_us"] = (1e6 * spans.counters["duhamel.march_s"] / steps if steps else 0.0, "us")
    cs("duhamel.source_yield")
    out["duhamel.source_yield.calls_per_solve"] = (
        spans.calls_per_solve("duhamel.source_yield"), "calls/solve")
    cs("duhamel.check_energy_estimate", calls=False)
    cs("duhamel.solution_norm", calls=False)
    cs("duhamel.Trajectory.to_csv")
    out["duhamel.csv_bytes"] = (spans.counters["duhamel.csv_bytes"], "bytes")
    cs("boundary.boundary_yield")
    out["boundary.boundary_yield.calls_per_solve"] = (
        spans.calls_per_solve("boundary.boundary_yield"), "calls/solve")
    cs("boundary.solve_ibvp")
    for fn in ("solve_final_value_inhom", "data_norm_inhom", "solution_norm_h1", "flow_identity_residual"):
        cs(f"boundary.{fn}", calls=False)
    cs("fvp.solve_final_value")
    cs("fvp.data_norm")
    cs("generator.check_sectoriality")
    out["generator.svd_count"] = (spans.counters["generator.svd_count"], "count")
    for fn in ("check_logconvexity_criterion", "check_injectivity", "inverse_chain_demo", "check_decay"):
        cs(f"generator.{fn}", calls=False)
    cs("generator.exp_semigroup")
    cs("fdoracle.fd_solve")
    fd_steps = spans.counters["fdoracle.steps"]
    out["fdoracle.step_us"] = (1e6 * spans.counters["fdoracle.time_s"] / fd_steps if fd_steps else 0.0, "us")
    return out
