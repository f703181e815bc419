"""Span recorder and layer wrappers for the traced benchmark run.

The wrappers are installed from outside: the program is not edited.
``install`` replaces the public functions (and the public methods,
operators and constructor bodies of public classes) of the six layer
modules with wrappers, and also every binding of those functions that
another module made with ``from .x import y`` (``analytic.integrate``,
``cli.bessel_j0`` ...).

A call opens a span when it crosses a layer boundary, that is when the
innermost open span belongs to another layer; a call inside its own layer
is only counted. Spans are kept in memory, in flat arrays, and written
out at the end. A span's self time is its duration minus the durations of
its child spans, so the self times of all spans add up to the durations
of the root spans (one per request, plus one per pool-worker task).

Pool workers of ``resonance_sweep`` are forked from the traced process,
so they inherit the wrappers. The wrapper of ``numeric._sweep_point``
starts a fresh recording in the worker, makes the task a root span and
writes the worker's spans to a file that the parent merges.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import os
import time
from array import array
from pathlib import Path

import numpy as np

from run import LAYERS

ROOT = "bench.request"
WORKER_ROOT = "numeric._sweep_point"
# Dunder methods that count as public: operators, plus the constructor
# bodies (__init__, or __post_init__ of a dataclass).
_DUNDERS = ("__add__", "__sub__", "__neg__", "__mul__", "__rmul__", "__matmul__", "__call__",
            "__init__", "__post_init__")
# Calls that always open a span, even inside their own layer, because a
# per-function time is reported for them.
_ALWAYS_SPAN = {
    "numeric.integrate_schrodinger", "numeric.hf_average", "numeric.extract_amplitude",
    "special.CumulativeIntegral.__init__",
}
TWO_PI = 2.0 * math.pi


class Recorder:
    """Spans (name, start, end, parent, request) in flat arrays, plus counters."""

    def __init__(self, out_dir: Path):
        self.out_dir = out_dir
        self.pid = os.getpid()
        self.names: list[str] = []
        self.calls: list[int] = []
        self.tally: dict[str, float] = {}
        self.name_col = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.req = array("i")
        self.stack: list[tuple[int, str]] = []
        self.request = -1
        self.active = False
        self.gamma_seen: set[float] = set()
        self._tasks = 0
        self._root_id = self.name_id(ROOT)

    def name_id(self, name: str) -> int:
        self.names.append(name)
        self.calls.append(0)
        return len(self.names) - 1

    # -- spans ------------------------------------------------------------

    def open(self, fid: int, layer: str) -> int:
        idx = len(self.start)
        self.name_col.append(fid)
        self.parent.append(self.stack[-1][0] if self.stack else -1)
        self.req.append(self.request)
        self.end.append(0.0)
        self.stack.append((idx, layer))
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self.stack.pop()

    def begin_request(self, request_id: int) -> int:
        self.request = request_id
        self.active = True
        return self.open(self._root_id, "bench")

    def end_request(self, idx: int) -> None:
        self.close(idx)
        self.active = False

    def _reset(self) -> None:
        for col in (self.name_col, self.start, self.end, self.parent, self.req):
            del col[:]
        for i in range(len(self.calls)):
            self.calls[i] = 0
        self.tally.clear()
        self.stack.clear()

    # -- wrappers ---------------------------------------------------------

    def wrap(self, fn, name: str):
        fid = self.name_id(name)
        layer = name.partition(".")[0]
        always = name in _ALWAYS_SPAN
        calls, stack = self.calls, self.stack
        measure = _MEASURES.get(name)
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not rec.active:
                return fn(*args, **kwargs)
            calls[fid] += 1
            if not always and stack and stack[-1][1] == layer:
                return fn(*args, **kwargs)
            idx = rec.open(fid, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.close(idx)
            if measure is not None:
                measure(rec.tally, args, kwargs, result)
            return result

        return wrapper

    def wrap_gamma(self, fn):
        """analytic._gamma_pair: a call whose r was seen before is a hit."""
        fid = self.name_id("analytic._gamma_pair")
        rec = self

        @functools.wraps(fn)
        def wrapper(r, spec=None):
            if not rec.active:
                return fn(r, spec)
            rec.calls[fid] += 1
            key = float(r)
            if spec is not None or key in rec.gamma_seen:
                return fn(r, spec)
            rec.gamma_seen.add(key)
            idx = rec.open(fid, "analytic")
            try:
                return fn(r, spec)
            finally:
                rec.close(idx)

        return wrapper

    def wrap_task(self, fn):
        """numeric._sweep_point: in a forked pool worker, record the task
        as a root span and write the worker's spans when it ends."""
        fid = self.name_id(WORKER_ROOT)
        rec = self

        @functools.wraps(fn)
        def wrapper(args):
            if not rec.active:
                return fn(args)
            if os.getpid() == rec.pid:  # jobs=1: runs inside the request
                rec.calls[fid] += 1
                return fn(args)
            rec._reset()
            rec.calls[fid] += 1
            idx = rec.open(fid, "numeric")
            try:
                return fn(args)
            finally:
                rec.close(idx)
                rec._tasks += 1
                rec.dump(rec.out_dir / f"worker-{os.getpid()}-{rec._tasks}.npz")

        return wrapper

    # -- output -----------------------------------------------------------

    def dump(self, path: Path) -> None:
        np.savez(
            path,
            name=np.frombuffer(self.name_col, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            req=np.frombuffer(self.req, dtype=np.int32),
            calls=np.array(self.calls, dtype=np.int64),
            meta=np.array(json.dumps({"names": self.names, "tally": self.tally})),
        )


# Work figures taken from a call's arguments and result.
def _m_integrate(tally, args, kwargs, result):
    p = args[0]
    t_end = args[2] if len(args) > 2 else kwargs["t_end"]
    tally["numeric.integrate_schrodinger.hf_periods"] = (
        tally.get("numeric.integrate_schrodinger.hf_periods", 0.0) + t_end * p.Omega_HF / TWO_PI)
    tally["numeric.integrate_schrodinger.samples"] = (
        tally.get("numeric.integrate_schrodinger.samples", 0.0) + len(result[0]))


def _m_hf_average(tally, args, kwargs, result):
    tally["numeric.hf_average.samples"] = tally.get("numeric.hf_average.samples", 0.0) + len(args[0])


def _m_sweep(tally, args, kwargs, result):
    tally["numeric.resonance_sweep.points"] = (
        tally.get("numeric.resonance_sweep.points", 0.0) + len(result.omega_par_grid))


_MEASURES = {
    "numeric.integrate_schrodinger": _m_integrate,
    "numeric.hf_average": _m_hf_average,
    "numeric.resonance_sweep": _m_sweep,
}


def _public_functions(module):
    for attr, value in vars(module).items():
        if (not attr.startswith("_") and inspect.isfunction(value)
                and value.__module__ == module.__name__):
            yield attr, value


def _public_classes(module):
    for attr, value in vars(module).items():
        if (not attr.startswith("_") and inspect.isclass(value)
                and value.__module__ == module.__name__
                and not issubclass(value, BaseException)):
            yield attr, value


def install(modules: dict, out_dir: Path) -> Recorder:
    """Wrap the layer modules (name -> module) and return the recorder."""
    rec = Recorder(out_dir)
    replaced = {}
    for layer in LAYERS:
        mod = modules[layer]
        for attr, fn in list(_public_functions(mod)):
            replaced[fn] = rec.wrap(fn, f"{layer}.{attr}")
        for cname, cls in _public_classes(mod):
            for attr, raw in list(vars(cls).items()):
                if attr.startswith("_") and attr not in _DUNDERS:
                    continue
                if attr == "__init__" and "__dataclass_fields__" in vars(cls):
                    continue  # generated; its body is __post_init__
                name = f"{layer}.{cname}.{attr}"
                if isinstance(raw, staticmethod):
                    setattr(cls, attr, staticmethod(rec.wrap(raw.__func__, name)))
                elif inspect.isfunction(raw):
                    setattr(cls, attr, rec.wrap(raw, name))
    # private choke points; a later version of the program may not have them
    gamma = getattr(modules["analytic"], "_gamma_pair", None)
    if gamma is not None:
        replaced[gamma] = rec.wrap_gamma(gamma)
    task = getattr(modules["numeric"], "_sweep_point", None)
    if task is not None:
        replaced[task] = rec.wrap_task(task)
    # rebind every module-level name that refers to a wrapped function,
    # including the names other modules imported with `from .x import y`
    for mod in list(modules.values()):
        for attr, value in list(vars(mod).items()):
            if inspect.isfunction(value) and value in replaced:
                setattr(mod, attr, replaced[value])
    return rec


# ---------------------------------------------------------------------------
# Analysis

def _load(path: Path) -> dict:
    with np.load(path) as z:
        data = {k: z[k] for k in z.files}
    meta = json.loads(str(data.pop("meta")))
    data["names"] = meta["names"]
    data["tally"] = meta["tally"]
    return data


def _self_times(data: dict) -> tuple[np.ndarray, np.ndarray]:
    dur = data["end"] - data["start"]
    parent = data["parent"]
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
    return dur, dur - child


def summarize(main: Path, workers: list[Path]) -> dict:
    """Per-layer and per-function figures from the main and worker span files."""
    parts = [_load(main)] + [_load(w) for w in workers]
    names = parts[0]["names"]
    layer_of = np.array([n.partition(".")[0] for n in names])
    calls = np.zeros(len(names), dtype=np.int64)
    tally: dict[str, float] = {}
    durs, selfs, ids, roots = [], [], [], []
    for part in parts:
        calls += part["calls"]
        for k, v in part["tally"].items():
            tally[k] = tally.get(k, 0.0) + v
        dur, self_t = _self_times(part)
        durs.append(dur)
        selfs.append(self_t)
        ids.append(part["name"])
        roots.append(part["parent"] < 0)
    dur, self_t = np.concatenate(durs), np.concatenate(selfs)
    ids, root = np.concatenate(ids), np.concatenate(roots)
    span_layer = layer_of[ids] if ids.size else np.array([], dtype=str)

    fid = {n: i for i, n in enumerate(names)}

    # a name the program no longer has reads 0
    def count(name):
        return int(calls[fid[name]]) if name in fid else 0

    def spans(name):
        sel = ids == fid.get(name, -1)
        return int(sel.sum()), float(dur[sel].sum()), float(self_t[sel].sum())

    def layer_calls(layer):
        return int(sum(c for n, c in zip(names, calls) if n.partition(".")[0] == layer))

    out = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = float(self_t[span_layer == layer].sum())
        out[f"{layer}.calls"] = layer_calls(layer)
    is_request = ids == fid[ROOT]
    out["trace.request_s"] = float(dur[is_request].sum())
    out["trace.worker_s"] = float(dur[root & ~is_request].sum())
    out["trace.unattributed_s"] = float(self_t[is_request].sum())
    out["trace.spans"] = int(ids.size)
    out["trace.worker_tasks"] = len(workers)

    n, total, _ = spans("special.bessel_j0")
    out["special.bessel_j0.calls"] = count("special.bessel_j0")
    out["special.bessel_j0.us_per_call"] = 1e6 * total / n if n else 0.0
    out["special.bessel_j0_zero.calls"] = count("special.bessel_j0_zero")
    out["special.integrate.calls"] = count("special.integrate")
    out["special.integrate.self_s"] = spans("special.integrate")[2]
    out["special.cumulative_integral.builds"] = count("special.CumulativeIntegral.__init__")

    g_calls = count("analytic._gamma_pair")
    g_miss, g_total, _ = spans("analytic._gamma_pair")
    out["analytic.gamma.calls"] = g_calls
    out["analytic.gamma.misses"] = g_miss
    out["analytic.gamma.hit_ratio"] = (g_calls - g_miss) / g_calls if g_calls else 0.0
    out["analytic.gamma.ms_per_miss"] = 1e3 * g_total / g_miss if g_miss else 0.0

    n, total, _ = spans("analytic.expect_sz_closed")
    out["analytic.expect_sz_closed.calls"] = count("analytic.expect_sz_closed")
    out["analytic.expect_sz_closed.us_per_sample"] = 1e6 * total / n if n else 0.0
    out["analytic.omega_ms.calls"] = count("analytic.omega_ms")
    n, total, _ = spans("analytic.effective_quantities")
    out["analytic.effective_quantities.calls"] = n
    out["analytic.effective_quantities.ms_per_call"] = 1e3 * total / n if n else 0.0

    n, total, _ = spans("numeric.integrate_schrodinger")
    periods = tally.get("numeric.integrate_schrodinger.hf_periods", 0.0)
    out["numeric.integrate_schrodinger.calls"] = n
    out["numeric.integrate_schrodinger.samples"] = int(
        tally.get("numeric.integrate_schrodinger.samples", 0))
    out["numeric.integrate_schrodinger.us_per_hf_period"] = 1e6 * total / periods if periods else 0.0
    _, total, _ = spans("numeric.hf_average")
    samples = tally.get("numeric.hf_average.samples", 0.0)
    out["numeric.hf_average.ns_per_sample"] = 1e9 * total / samples if samples else 0.0
    out["numeric.extract_amplitude.calls"] = count("numeric.extract_amplitude")
    _, total, wait = spans("numeric.resonance_sweep")
    points = tally.get("numeric.resonance_sweep.points", 0.0)
    out["numeric.resonance_sweep.s_per_point"] = total / points if points else 0.0
    out["numeric.resonance_sweep.wait_s"] = wait
    out["su2.pauli_exponential.calls"] = count("su2.pauli_exponential")
    out["model.gauge_factor.calls"] = count("model.gauge_factor")
    return out
