"""Output checks for benchmark requests.

Each check returns a ``Verdict``: whether the output is correct, why not,
the units of work the request completed, and the accuracy figures it
contributes (deviations between methods). The checks recompute what the
output must look like from the request alone: the column set from the
methods, the row count from the time window and the sample spacing.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Optional

from workloads import OMEGA_HF

METHOD_ORDER = ("exact", "avg", "ms", "numeric")
SAMPLE_DT = (2.0 * math.pi / OMEGA_HF) / 32.0  # the CLI default, T_HF / 32
HF_WINDOW = 32  # samples per HF period at SAMPLE_DT
VALUE_SLACK = 1e-9  # rounding allowance on the [-1, 1] range of <sigma_z>
AMPLITUDE_SLACK = 1e-6  # the same allowance SweepResult applies to amplitudes


@dataclass
class Verdict:
    ok: bool
    reason: str = ""
    work: int = 0
    acc: dict = field(default_factory=dict)
    gap_cells: int = 0


def _fail(reason: str, gap_cells: int = 0) -> Verdict:
    return Verdict(False, reason, gap_cells=gap_cells)


def expected_columns(meta: dict) -> list[str]:
    cols = [m for m in METHOD_ORDER if m in meta["methods"]]
    if "numeric" in cols and meta["hf_average"]:
        cols.append("numeric_avg")
    return cols


def expected_rows(meta: dict) -> int:
    """Rows of the evolve output for the request's window."""
    t_start, t_end, dt = meta["t_start"], meta["t_end"], SAMPLE_DT
    last = math.floor(t_end / dt + 1e-9)
    if "numeric" in meta["methods"]:
        floor_t = t_start - 1e-12 * max(1.0, t_start)
        if meta["hf_average"]:
            # moving-average window centres (i + (w - 1) / 2) dt
            centres = range(last + 1 - HF_WINDOW + 1)
            return sum(1 for i in centres if (i + (HF_WINDOW - 1) / 2) * dt >= floor_t)
        return sum(1 for k in range(last + 1) if k * dt >= floor_t)
    return last - math.ceil(t_start / dt - 1e-9) + 1


def _finite_in(values, lo: float, hi: float) -> bool:
    return all(math.isfinite(v) and lo <= v <= hi for v in values)


def _trace_table(t: list, columns: dict, meta: dict) -> Verdict:
    names = expected_columns(meta)
    if list(columns) != names:
        return _fail(f"columns {list(columns)} != {names}")
    rows = expected_rows(meta)
    if len(t) != rows or any(len(v) != rows for v in columns.values()):
        return _fail(f"{len(t)} rows, expected {rows}")
    if not all(math.isfinite(x) for x in t) or any(b <= a for a, b in zip(t, t[1:])):
        return _fail("time column not finite and increasing")
    for name, vals in columns.items():
        if not _finite_in(vals, -1.0 - VALUE_SLACK, 1.0 + VALUE_SLACK):
            return _fail(f"column {name} not finite in [-1, 1]")
    acc = {}
    if "exact" in columns and "numeric" in columns:
        acc["acc_exact_dev"] = max(abs(a - b) for a, b in zip(columns["numeric"], columns["exact"]))
    if "ms" in columns and "numeric_avg" in columns:
        acc["acc_ms_dev"] = max(abs(a - b) for a, b in zip(columns["numeric_avg"], columns["ms"]))
    return Verdict(True, work=rows * len(columns), acc=acc)


def check_evolve(out: str, meta: dict) -> Verdict:
    if meta["format"] == "json":
        try:
            doc = json.loads(out)
            t = [float(x) for x in doc["t"]]
            columns = {k: [float(x) for x in v] for k, v in doc["traces"].items()}
        except (ValueError, KeyError, TypeError) as exc:
            return _fail(f"evolve JSON does not parse: {exc!r}")
        return _trace_table(t, columns, meta)
    lines = out.splitlines()
    if not lines:
        return _fail("empty evolve output")
    header = lines[0].split(",")
    if header[0] != "t":
        return _fail(f"bad CSV header {lines[0]!r}")
    try:
        body = [[float(c) for c in ln.split(",")] for ln in lines[1:]]
    except ValueError as exc:
        return _fail(f"evolve CSV does not parse: {exc}")
    if any(len(row) != len(header) for row in body):
        return _fail("ragged evolve CSV")
    t = [row[0] for row in body]
    columns = {name: [row[j] for row in body] for j, name in enumerate(header[1:], 1)}
    return _trace_table(t, columns, meta)


def check_compare(out: str, meta: dict) -> Verdict:
    """One `<method> max_deviation = x` line per method, 0 <= x <= 2."""
    methods = [m for m in METHOD_ORDER if m in meta["methods"]]
    lines = out.splitlines()
    if len(lines) != len(methods):
        return _fail(f"{len(lines)} compare lines for {len(methods)} methods")
    for name, line in zip(methods, lines):
        head, _, value = line.partition(" max_deviation = ")
        try:
            dev = float(value)
        except ValueError:
            return _fail(f"bad compare line {line!r}")
        if head != name or not (math.isfinite(dev) and 0.0 <= dev <= 2.0):
            return _fail(f"bad compare line {line!r}")
    # both twins compute one trace per method, each on its own grid
    work = 2 * sum(expected_rows({**meta, "methods": [m]}) for m in methods)
    return Verdict(True, work=work)


def check_sweep(out: str, meta: dict) -> Verdict:
    """Amplitude table with one row per grid point and no gap cells."""
    names = [m for m in METHOD_ORDER if m in meta["methods"]]
    lines = out.splitlines()
    if not lines or lines[0] != "omega_par," + ",".join(names):
        return _fail(f"bad sweep header {lines[:1]!r}")
    rows = [ln.split(",") for ln in lines[1:]]
    if len(rows) != meta["points"] or any(len(r) != len(names) + 1 for r in rows):
        return _fail(f"{len(rows)} sweep rows, expected {meta['points']}")
    gaps = sum(1 for r in rows for c in r[1:] if c == "")
    if gaps:
        return _fail(f"{gaps} sweep gap cells", gap_cells=gaps)
    try:
        table = [[float(c) for c in r] for r in rows]
    except ValueError as exc:
        return _fail(f"sweep CSV does not parse: {exc}")
    grid = [r[0] for r in table]
    if any(b <= a for a, b in zip(grid, grid[1:])):
        return _fail("sweep grid not increasing")
    amps = {name: [r[j] for r in table] for j, name in enumerate(names, 1)}
    for name, vals in amps.items():
        if not _finite_in(vals, 0.0, 1.0 + AMPLITUDE_SLACK):
            return _fail(f"sweep column {name} not finite in [0, 1]")
    acc = {}
    if "ms" in amps and "numeric" in amps:
        acc["acc_ms_dev"] = max(abs(a - b) for a, b in zip(amps["numeric"], amps["ms"]))
    return Verdict(True, work=len(rows) * len(names), acc=acc)


def check_constants(out: str, meta: dict) -> Verdict:
    """Zero lines r_1 < r_2 < ... and one complete coefficient row per r."""
    lines = out.splitlines()
    zeros = meta["zeros"]
    try:
        roots = [float(ln.split(" = ", 1)[1]) for ln in lines[:zeros]]
    except (IndexError, ValueError):
        return _fail("zero lines do not parse")
    if any(not ln.startswith(f"r_{j} = ") for j, ln in enumerate(lines[:zeros], 1)):
        return _fail("zero lines out of order")
    if any(b <= a for a, b in zip(roots, roots[1:])) or not (2.4 < roots[0] < 2.41):
        return _fail(f"zeros {roots} not the increasing zeros of J0")
    table = lines[zeros:]
    if not table or table[0] != "r,J0,H0,gamma1,gamma2":
        return _fail("missing coefficient header")
    rows = table[1:]
    if len(rows) != len(meta["gamma_at"]):
        return _fail(f"{len(rows)} coefficient rows for {len(meta['gamma_at'])} r values")
    for r, line in zip(meta["gamma_at"], rows):
        cells = line.split(",")
        try:
            vals = [float(c) for c in cells]
        except ValueError:
            return _fail(f"incomplete coefficient row {line!r}")
        if len(vals) != 5 or not all(math.isfinite(v) for v in vals):
            return _fail(f"incomplete coefficient row {line!r}")
        if abs(vals[0] - r) > 1e-11 * max(1.0, r) or abs(vals[1]) > 1.0:
            return _fail(f"coefficient row {line!r} does not match r = {r!r}")
    return Verdict(True, work=len(rows))


def check_scan(results: list, branch: list, eta_via_vectors, params: list) -> Verdict:
    """effective_quantities results: complete, finite, branch flag right.

    Off the degenerate branch eta has two routes (closed form and vector
    form); their gap is the acc_eta_routes figure.
    """
    worst: Optional[float] = None
    for q, on_branch, p in zip(results, branch, params):
        if q.resonant_branch != on_branch:
            return _fail(f"resonant_branch {q.resonant_branch} for {p!r}")
        scalars = [q.Omega0, q.Omega_eff, q.j0r, q.a, q.b, q.alpha_x, q.alpha_y,
                   q.alpha_z, q.gamma1, q.gamma2, q.Omega_ms,
                   *q.m.as_tuple(), *q.q.as_tuple()]
        if on_branch:
            if q.eta is not None or q.n is not None:
                return _fail(f"eta or n defined on the branch for {p!r}")
        else:
            if q.eta is None or q.n is None:
                return _fail(f"eta or n missing off the branch for {p!r}")
            scalars += [q.eta, *q.n.as_tuple()]
            gap = abs(q.eta - eta_via_vectors(p))
            worst = gap if worst is None else max(worst, gap)
        if not all(math.isfinite(v) for v in scalars):
            return _fail(f"non-finite effective quantity for {p!r}")
    acc = {} if worst is None else {"acc_eta_routes": worst}
    return Verdict(True, work=len(results), acc=acc)


CLI_CHECKS = {
    "evolve": check_evolve,
    "compare": check_compare,
    "sweep": check_sweep,
    "constants": check_constants,
}
