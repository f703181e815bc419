"""Closed-loop load for one benchmark run, in a fresh interpreter.

One client sends the workload's seeded requests one after another, each
only after the previous one returned, until the time budget is spent
(or, with --count, for exactly that many requests). Each request is a
``spinhf.cli.main(argv)`` call with its standard output captured, or an
``effective_quantities`` scan. Its latency is the time of that call
alone; building the DriveParams before it and checking the output after
it are not timed.

With --trace 1 the layer wrappers of tracer.py are installed first and
the per-layer figures are added to the result.

Usage: python3 perfbench/load.py --workload trace --seed 1 --seconds 20
           --trace 0 --result out.json --out-dir perfbench/out/run
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from spinhf import analytic, cli, model, numeric, special, su2  # noqa: E402
import spinhf  # noqa: E402


def _call_cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            rc = exc.code if isinstance(exc.code, int) else 2
    return rc, out.getvalue()


def run(workload: str, seed: int, seconds: float, count: int | None, rec) -> dict:
    latencies: list[float] = []
    digests: list[str] = []
    failures: list[str] = []
    acc: dict[str, float] = {}
    work = 0
    bytes_out = 0
    gap_cells = 0
    begin = time.perf_counter()
    for i, req in enumerate(workloads.requests(workload, seed)):
        if count is not None:
            if i >= count:
                break
        elif time.perf_counter() - begin >= seconds:
            break
        if req["kind"] == "scan":
            params = [model.DriveParams(*p) for p in req["params"]]
        root = rec.begin_request(i) if rec else None
        t0 = time.perf_counter()
        error = None
        try:
            if req["kind"] == "cli":
                rc, out = _call_cli(req["argv"])
            else:
                result = [analytic.effective_quantities(p) for p in params]
                rc, out = 0, "\n".join(repr(q) for q in result)
        except Exception as exc:  # a crash is a failed request, not a failed run
            rc, out, error = None, "", f"{type(exc).__name__}: {exc}"
        latencies.append(time.perf_counter() - t0)
        if rec:
            rec.end_request(root)
        digests.append(hashlib.sha256(f"{rc}\n{out}".encode()).hexdigest()[:16])

        if error is None and rc != 0:
            error = f"exit code {rc}"
        if error is None:
            if req["kind"] == "cli":
                bytes_out += len(out.encode())
                meta = req["meta"]
                verdict = checks.CLI_CHECKS[meta["command"]](out, meta)
            else:
                verdict = checks.check_scan(result, req["branch"], analytic.eta_via_vectors, params)
            gap_cells += verdict.gap_cells
            if verdict.ok:
                work += verdict.work
                for k, v in verdict.acc.items():
                    acc[k] = max(acc.get(k, 0.0), v)
            else:
                error = verdict.reason
        if error is not None:
            failures.append(f"request {i} {req.get('argv', 'scan')}: {error}")

    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return {
        "workload": workload,
        "seed": seed,
        "elapsed_s": time.perf_counter() - begin,
        "latencies": latencies,
        "digests": digests,
        "attempted": len(latencies),
        "failed": len(failures),
        "failures": failures[:10],
        "work": work,
        "acc": acc,
        "gap_cells": gap_cells,
        "bytes_out": bytes_out,
        # the load process's own peak plus the largest peak of a child it
        # waited for (the sweep pool workers); getrusage gives no sum
        "peak_rss_mb": (self_kb + child_kb) / 1024.0,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--count", type=int, help="run exactly this many requests")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--result", required=True, help="path of the JSON result")
    ap.add_argument("--out-dir", required=True, help="directory for span files")
    args = ap.parse_args(argv)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for stale in out_dir.glob("worker-*.npz"):
        stale.unlink()
    rec = None
    if args.trace:
        import tracer
        modules = {"su2": su2, "special": special, "model": model, "analytic": analytic,
                   "numeric": numeric, "cli": cli, "spinhf": spinhf}
        rec = tracer.install(modules, out_dir)
    result = run(args.workload, args.seed, args.seconds, args.count, rec)
    if rec:
        spans = out_dir / f"spans-{args.workload}.npz"
        rec.dump(spans)
        workers = sorted(out_dir.glob("worker-*.npz"))
        result["layers"] = tracer.summarize(spans, workers)
        result["layers"]["cli.bytes_out"] = result["bytes_out"]
        for w in workers:
            w.unlink()
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
