"""Repeat the benchmark over seeds and summarise each metric's spread.

    python3 perfbench/spread.py --workloads trace,sweep --seeds 1-10 \
        --seconds 30 --out perfbench/out/spread.json [--repeat 1] [--trace 0]

For every workload and metric it reports the median, the first and third
quartiles (statistics.quantiles, n=4) and the quartile distance as a
share of the median, and flags a spread above a third of the metric's
bound in BENCHMARK.json. The per-run values are kept in the output, so
the file can be committed as one point of the performance trajectory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def machine() -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        import numpy
        np_version = numpy.__version__
    except ImportError:
        np_version = None
    return {"cpu": cpu, "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np_version, "platform": platform.platform()}


def summarise(values: list[float], bound: float | None) -> dict:
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    share = (q3 - q1) / abs(med) if med else None
    out = {"median": med, "q1": q1, "q3": q3, "iqr_share": share, "values": values}
    if bound is not None and share is not None:
        out["bound"] = bound
        out["steady"] = share < bound / 3.0
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default="trace,sweep,constants")
    ap.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,7")
    ap.add_argument("--repeat", type=int, default=1, help="runs per seed")
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    report = {"machine": machine(), "seconds": args.seconds, "trace": args.trace,
              "seeds": _seeds(args.seeds), "repeat": args.repeat, "workloads": {}}
    ok = True
    for workload in args.workloads.split(","):
        runs = []
        for seed in report["seeds"]:
            for _ in range(args.repeat):
                proc = subprocess.run(
                    [sys.executable, str(HERE / "run.py"), "--workload", workload,
                     "--seed", str(seed), "--seconds", str(args.seconds),
                     "--trace", str(args.trace)],
                    cwd=ROOT, capture_output=True, text=True)
                lines = proc.stdout.strip().splitlines()
                if proc.returncode != 0 or not lines:
                    sys.stderr.write(proc.stdout[-3000:] + proc.stderr[-3000:])
                    ok = False
                    continue
                res = json.loads(lines[-1])
                ok &= res["correct"]
                runs.append({"seed": seed, "attempted": res["attempted"], "failed": res["failed"],
                             **{k: v["value"] for k, v in res["metrics"].items()}})
                print(workload, seed, json.dumps(runs[-1]), flush=True)
        names = [k for k in runs[0] if k not in ("seed", "attempted", "failed")] if runs else []
        report["workloads"][workload] = {
            "runs": runs,
            "metrics": {k: summarise([r[k] for r in runs], bounds.get(k)) for k in names},
        }
        for k in names:
            s = report["workloads"][workload]["metrics"][k]
            flag = "" if s.get("steady", True) else "  <-- spread above bound/3"
            share = "n/a" if s["iqr_share"] is None else f"{s['iqr_share']:.4f}"
            print(f"{workload:<10} {k:<48} median {s['median']:.6g}  "
                  f"q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  iqr/median {share}{flag}")
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
