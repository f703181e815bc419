"""spinhf benchmark: one workload, one seed, every metric, every output checked.

    python3 perfbench/run.py --workload trace --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; it benchmarks the package under
src/. The run

1. times interpreter start to `import spinhf.cli` in SETUP_PROBES fresh
   interpreters and reports the median (setup_s);
2. runs the closed-loop load of load.py in a fresh interpreter for
   --seconds, so imports and the gamma cache start cold;
3. with --trace 1, runs the load with the layer wrappers of tracer.py,
   then replays exactly the same requests untraced in another fresh
   interpreter: the outputs must be byte-identical, and the difference
   of the two busy times is the tracing overhead.

It prints a report, then as its last line one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1. It exits 1 if any
output check failed, and 2 if there is no spinhf source to benchmark.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
LAYERS = ("su2", "special", "model", "analytic", "numeric", "cli")
SETUP_PROBES = 7
TAIL_LADDER = (99.9, 99.0, 90.0, 50.0)
TAIL_BEYOND = 10  # samples the tail percentile must leave above it
LOAD_GRACE_S = 150  # allowance beyond --seconds for one load process

END_TO_END = {
    "setup_s": "s",
    "work_per_s": "1/s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    **{f"{layer}.{kind}": unit
       for layer in LAYERS
       for kind, unit in (("self_s", "s"), ("calls", "count"))},
    "special.bessel_j0.calls": "count",
    "special.bessel_j0.us_per_call": "us",
    "special.bessel_j0_zero.calls": "count",
    "special.integrate.calls": "count",
    "special.integrate.self_s": "s",
    "special.cumulative_integral.builds": "count",
    "analytic.gamma.calls": "count",
    "analytic.gamma.misses": "count",
    "analytic.gamma.hit_ratio": "ratio",
    "analytic.gamma.ms_per_miss": "ms",
    "analytic.expect_sz_closed.calls": "count",
    "analytic.expect_sz_closed.us_per_sample": "us",
    "analytic.omega_ms.calls": "count",
    "analytic.effective_quantities.calls": "count",
    "analytic.effective_quantities.ms_per_call": "ms",
    "numeric.integrate_schrodinger.calls": "count",
    "numeric.integrate_schrodinger.samples": "count",
    "numeric.integrate_schrodinger.us_per_hf_period": "us",
    "numeric.hf_average.ns_per_sample": "ns",
    "numeric.extract_amplitude.calls": "count",
    "numeric.resonance_sweep.s_per_point": "s",
    "numeric.resonance_sweep.wait_s": "s",
    "su2.pauli_exponential.calls": "count",
    "model.gauge_factor.calls": "count",
    "cli.bytes_out": "bytes",
    "trace.overhead_s": "s",
    "trace.request_s": "s",
    "trace.worker_s": "s",
    "trace.unattributed_s": "s",
    "trace.spans": "count",
    "trace.worker_tasks": "count",
    "error_rate": "ratio",
    "acc_exact_dev": "abs",
    "acc_ms_dev": "abs",
    "acc_eta_routes": "abs",
}

# Accuracy figures each workload produces; elsewhere they read 0.
ACC_BY_WORKLOAD = {
    "trace": ("acc_exact_dev", "acc_ms_dev"),
    "sweep": ("acc_ms_dev",),
    "constants": ("acc_eta_routes",),
}

_PROBE = (
    "import sys; sys.path.insert(0, sys.argv[1]); import spinhf.cli; "
    "sys.stdout.write('ready\\n'); sys.stdout.flush()"
)


class BenchError(RuntimeError):
    pass


def setup_times(n: int) -> list[float]:
    """Seconds from starting an interpreter to `import spinhf.cli` done."""
    times = []
    for _ in range(n):
        t0 = perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-c", _PROBE, str(ROOT / "src")],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        try:
            line = proc.stdout.readline()
            elapsed = perf_counter() - t0
            _, err = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if line != "ready\n" or proc.returncode != 0:
            raise BenchError(f"`import spinhf.cli` failed: {err.strip()[-500:]}")
        times.append(elapsed)
    return times


def run_load(workload: str, seed: int, seconds: float, trace: int,
             out_dir: Path, count: int | None = None) -> dict:
    result = out_dir / ("replay.json" if count is not None else f"result-trace{trace}.json")
    result.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "load.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--result", str(result), "--out-dir", str(out_dir)]
    if count is not None:
        cmd += ["--count", str(count)]
    # own process group, so a timeout also ends the sweep pool workers
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        _, err = proc.communicate(timeout=seconds + LOAD_GRACE_S)
    except subprocess.TimeoutExpired as exc:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"load process timed out after {exc.timeout:.0f} s") from exc
    if proc.returncode != 0 or not result.exists():
        raise BenchError(f"load process failed ({proc.returncode}): {err.strip()[-2000:]}")
    return json.loads(result.read_text())


def tail_latency(latencies: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest ladder percentile that leaves at
    least TAIL_BEYOND samples above it, by nearest rank."""
    s = sorted(latencies)
    n = len(s)
    for p in TAIL_LADDER:
        rank = max(1, math.ceil(p / 100.0 * n))
        if n - rank >= TAIL_BEYOND or p == TAIL_LADDER[-1]:
            return p, s[rank - 1]
    raise AssertionError("unreachable")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="spinhf benchmark (see perfbench/README.md)")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "spinhf" / "__init__.py").is_file():
        sys.stderr.write(f"error: no spinhf source under {ROOT / 'src'}\n")
        return 2
    out_dir = HERE / "out" / args.workload
    out_dir.mkdir(parents=True, exist_ok=True)

    try:
        setup = setup_times(SETUP_PROBES)
        res = run_load(args.workload, args.seed, args.seconds, args.trace, out_dir)
        replay = None
        if args.trace:
            replay = run_load(args.workload, args.seed, args.seconds, 0, out_dir,
                              count=res["attempted"])
    except BenchError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    if not res["attempted"]:
        sys.stderr.write("error: no request was sent; --seconds must be positive\n")
        return 1

    lat = res["latencies"]
    attempted, failed = res["attempted"], res["failed"]
    failures = list(res["failures"])
    if replay is not None:
        diverged = [i for i, (a, b) in enumerate(zip(res["digests"], replay["digests"])) if a != b]
        if len(replay["digests"]) != attempted:
            diverged.append(attempted)
        failed += len(diverged)
        failures += [f"request {i}: traced output differs from untraced" for i in diverged[:5]]
    busy = sum(lat)
    pct, tail = tail_latency(lat)
    e2e = {
        "setup_s": statistics.median(setup),
        "work_per_s": res["work"] / busy if busy > 0 else 0.0,
        "latency_p50_s": statistics.median(lat),
        "latency_tail_s": tail,
        "peak_rss_mb": res["peak_rss_mb"],
    }
    ungated = {"error_rate": failed / attempted}
    for name in ACC_BY_WORKLOAD[args.workload]:
        ungated[name] = res["acc"].get(name, 0.0)

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}  closed loop, 1 client")
    print(f"requests attempted {attempted}  failed {failed}  work units {res['work']}  "
          f"busy {busy:.3f} s  loop {res['elapsed_s']:.3f} s  sweep gap cells {res['gap_cells']}")
    print(f"latency tail is p{pct:g} of {attempted} requests "
          f"({attempted - math.ceil(pct / 100 * attempted)} above it)")
    print(f"setup probes (s): {', '.join(f'{t:.4f}' for t in setup)}")
    if args.trace:
        print("end-to-end figures below are of the traced load; --trace 0 measures them")
    for name, value in {**e2e, **ungated}.items():
        unit = END_TO_END.get(name) or PER_LAYER[name]
        print(f"  {name:<16} {value:.6g} {unit}")
    for line in failures[:10]:
        print(f"FAILED {line}")

    if args.trace:
        layers = dict(res["layers"])
        layers["trace.overhead_s"] = busy - sum(replay["latencies"])
        layers["error_rate"] = ungated["error_rate"]
        for name in ("acc_exact_dev", "acc_ms_dev", "acc_eta_routes"):
            layers[name] = ungated.get(name, 0.0)
        closure = sum(layers[f"{layer}.self_s"] for layer in LAYERS)
        closure += layers["trace.unattributed_s"]
        print(f"layer self times {closure:.6f} s = request spans {layers['trace.request_s']:.6f} s"
              f" + worker task spans {layers['trace.worker_s']:.6f} s;"
              f" spans written to {out_dir / ('spans-' + args.workload + '.npz')}")
        for name, unit in PER_LAYER.items():
            print(f"  {name:<48} {layers[name]:.6g} {unit}")
        metrics = {k: {"value": layers[k], "unit": u} for k, u in PER_LAYER.items()}
    else:
        metrics = {k: {"value": e2e[k], "unit": u} for k, u in END_TO_END.items()}

    correct = failed == 0 and attempted >= 1
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
