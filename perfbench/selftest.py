"""Self-test of the benchmark itself (not of spinhf).

    python3 perfbench/selftest.py

Checks that
- the generators give identical requests for one seed and different
  requests for another;
- the output checks reject damaged outputs;
- a traced load gives byte-identical outputs to an untraced one, its
  deterministic counts repeat exactly, and the layers' self times add up
  to the root spans;
- every metric name matches [A-Za-z0-9_.-]+ and run.py's metrics are the
  ones BENCHMARK.json lists, with the same units;
- run.py exits non-zero, printing no result, where there is no source.
Takes under a minute; exits 1 if any check fails.
"""

from __future__ import annotations

import itertools
import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")
COUNT = {"trace": 10, "sweep": 4, "constants": 8}
# counts that must repeat exactly for the same requests
DETERMINISTIC = [k for k, u in run.PER_LAYER.items() if u in ("count", "bytes")]

failures: list[str] = []


def check(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def first(workload: str, seed: int, n: int = 60) -> list[dict]:
    return list(itertools.islice(workloads.requests(workload, seed), n))


def load(workload: str, trace: int, tag: str) -> dict:
    out_dir = HERE / "out" / "selftest"
    result = out_dir / f"{workload}-{tag}.json"
    out_dir.mkdir(parents=True, exist_ok=True)
    subprocess.run(
        [sys.executable, str(HERE / "load.py"), "--workload", workload, "--seed", "7",
         "--count", str(COUNT[workload]), "--trace", str(trace),
         "--result", str(result), "--out-dir", str(out_dir)],
        cwd=ROOT, check=True, timeout=600)
    return json.loads(result.read_text())


def test_generators() -> None:
    for w in workloads.WORKLOADS:
        check(first(w, 1) == first(w, 1), f"{w}: same seed gives the same requests")
        check(first(w, 1) != first(w, 2), f"{w}: another seed gives other requests")


def test_checks_reject_damage() -> None:
    import load as load_mod

    evolve = next(r for r in first("trace", 3) if r["meta"]["command"] == "evolve"
                  and r["meta"]["format"] == "csv")
    rc, out = load_mod._call_cli(evolve["argv"])
    meta = evolve["meta"]
    check(rc == 0 and checks.check_evolve(out, meta).ok, "evolve output passes its check")
    lines = out.splitlines()
    check(not checks.check_evolve("\n".join(lines[:-1]), meta).ok, "a missing row is caught")
    bad = lines[:2] + [lines[2].rsplit(",", 1)[0] + ",nan"] + lines[3:]
    check(not checks.check_evolve("\n".join(bad), meta).ok, "a NaN value is caught")
    bad = lines[:2] + [lines[2].rsplit(",", 1)[0] + ",1.5"] + lines[3:]
    check(not checks.check_evolve("\n".join(bad), meta).ok, "a value outside [-1, 1] is caught")

    sweep = first("sweep", 3)[0]
    rc, out = load_mod._call_cli(sweep["argv"])
    check(rc == 0 and checks.check_sweep(out, sweep["meta"]).ok, "sweep output passes its check")
    lines = out.splitlines()
    gap = lines[:1] + [lines[1].rsplit(",", 1)[0] + ","] + lines[2:]
    verdict = checks.check_sweep("\n".join(gap), sweep["meta"])
    check(not verdict.ok and verdict.gap_cells == 1, "a sweep gap cell is caught and counted")

    const = next(r for r in first("constants", 3) if r["kind"] == "cli")
    rc, out = load_mod._call_cli(const["argv"])
    check(rc == 0 and checks.check_constants(out, const["meta"]).ok,
          "constants output passes its check")
    bad = out.replace(out.splitlines()[-1], out.splitlines()[-1].rsplit(",", 1)[0] + ",error: x")
    check(not checks.check_constants(bad, const["meta"]).ok, "an incomplete row is caught")

    from spinhf.special import bessel_j0_zero
    check(all(abs(z - bessel_j0_zero(j)) < 1e-12 for j, z in enumerate(workloads.J0_ZEROS, 1)),
          "tabulated J0 zeros match spinhf's")


def test_traced_runs() -> None:
    for w in workloads.WORKLOADS:
        plain = load(w, 0, "plain")
        traced = load(w, 1, "traced-a")
        again = load(w, 1, "traced-b")
        check(plain["failed"] == 0 and traced["failed"] == 0, f"{w}: no failed requests")
        check(traced["digests"] == plain["digests"],
              f"{w}: traced outputs byte-identical to untraced")
        a, b = traced["layers"], again["layers"]
        differ = [k for k in DETERMINISTIC if k in a and a[k] != b[k]]
        check(not differ, f"{w}: deterministic counts repeat exactly {differ or ''}")
        selfs = sum(a[f"{layer}.self_s"] for layer in run.LAYERS)
        roots = a["trace.request_s"] + a["trace.worker_s"]
        check(math.isclose(selfs + a["trace.unattributed_s"], roots, rel_tol=1e-9),
              f"{w}: layer self times add up to the root spans")
        check(a["trace.unattributed_s"] < 0.05 * a["trace.request_s"],
              f"{w}: layers account for 95% of request time")


def test_metric_names() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    check(all(NAME_RE.fullmatch(n) for n in names), "metric names match [A-Za-z0-9_.-]+")
    check({m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END,
          "run.py's end-to-end metrics and units are BENCHMARK.json's")
    check({m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER,
          "run.py's per-layer metrics and units are BENCHMARK.json's")
    check([w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS),
          "workload names agree")


def test_no_source() -> None:
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for f in HERE.glob("*.py"):
        shutil.copy(f, bare / "perfbench")
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "trace",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=180)
    check(proc.returncode != 0 and not proc.stdout.strip(),
          "run.py without a source tree exits non-zero and prints no result")
    shutil.rmtree(bare)


def main() -> int:
    test_generators()
    test_metric_names()
    test_checks_reject_damage()
    test_no_source()
    test_traced_runs()
    print(f"{len(failures)} failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
