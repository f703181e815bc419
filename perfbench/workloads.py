"""Seeded request generators for the three benchmark workloads.

Each generator yields an endless stream of requests made only from the
workload name and the seed. A request is a plain dict:

- ``{"kind": "cli", "argv": [...], "meta": {...}}`` is one
  ``spinhf.cli.main(argv)`` call;
- ``{"kind": "scan", "params": [(omega_perp, omega_par, Omega_HF, r,
  phi_hf), ...], "branch": [bool, ...]}`` is one library scan that calls
  ``effective_quantities`` on each parameter set.

``meta`` carries what the output check needs to know about the request
(command, methods, time window). Nothing here imports spinhf.

Requests come in fixed-composition blocks: the categorical mix of each
block is the same for every seed and the continuous values are drawn one
per equal-width stratum. This keeps the cost of a run's request mix
nearly independent of the seed, so runs on different seeds compare.
"""

from __future__ import annotations

import itertools
import math
import random
from typing import Iterator

WORKLOADS = ("trace", "sweep", "constants")

OMEGA_PERP = 3.0
OMEGA_HF = 50.0
PHI_HF = "pi/2"

# Zeros of J0 (Abramowitz & Stegun, table 9.5), the degenerate-branch r.
J0_ZEROS = (2.404825557695773, 5.520078110286311, 8.653727912911013)

# trace: horizon of every request, about 4.8 HF periods. It keeps a
# request at 20-600 ms, so a run holds 100-1000 requests and the tail
# percentile stays p90. t_end / sample_dt is far from an integer, so the
# expected row count is unambiguous.
TRACE_T_END = 0.6
TRACE_R0_T_START = 0.2
TRACE_METHODS = "avg,ms,numeric"
TRACE_R0_METHODS = "exact,avg,ms,numeric"

# sweep: r stays in [0.3, 1.2], where J0(r) >= 0.67, so the slow
# frequency stays >= 2 and the auto horizon <= 4.7 time units. The
# degenerate point omega_par = -1, r = r1 is left out on purpose: its auto
# horizon is about 5.8e3 time units (46k HF periods, about 70 s of RK per
# point), so the ms near-branch defect is not measured by this workload.
SWEEP_R = (0.3, 1.2)
SWEEP_LO = (-4.0, -2.5)
SWEEP_HI = (0.5, 2.0)
SWEEP_POINTS = 4
SWEEP_BLOCK = 5  # odd, so the median request sits inside one r stratum
SWEEP_METHODS = "avg,ms,numeric"

# constants: every off-branch r is fresh, so every gamma lookup misses.
CONST_R = (0.1, 5.0)
CONST_OMEGA_PAR = (-3.0, 2.0)
CONST_GAMMA_AT = 3
CONST_SCAN_POINTS = 3


def _strata(rng: random.Random, k: int, lo: float, hi: float) -> list[float]:
    """k draws from [lo, hi), one in each of k equal strata, in seeded order."""
    vals = [lo + (hi - lo) * (i + rng.random()) / k for i in range(k)]
    rng.shuffle(vals)
    return vals


def _num(x: float) -> str:
    return repr(float(x))


def _base_flags(r: str, omega_par: str) -> list[str]:
    return [
        "--omega-perp", _num(OMEGA_PERP), "--Omega-HF", _num(OMEGA_HF),
        "--phi-hf", PHI_HF, "--r", r, "--omega-par", omega_par,
    ]


def trace_requests(rng: random.Random) -> Iterator[dict]:
    """evolve and compare requests (3:1) in blocks of 17.

    16 requests cross r in {1, r1, 2, seeded} with omega_par in {-1,
    seeded} and an eigenstate or superposition start. In each r group one
    request is a compare and one skips --hf-average, rotating over blocks;
    one evolve per block writes JSON. The 17th is an r = 0 request with
    the exact method. The seeded r comes from a pool of four per run, one
    per stratum of [0.2, 3], and each block uses all four: the gamma cache
    mostly hits, as it does for repeated figure runs, and the cost of the
    Bessel series, which grows with r, is the same in every block.
    """
    r_pool = [0.2 + 2.8 * (i + rng.random()) / 4 for i in range(4)]
    for block in itertools.count():
        omega_pars = _strata(rng, 8, -2.0, 1.0)
        weights = _strata(rng, 8, 0.05, 0.95)
        r_cats = ["1", "r1", "2", None]
        reqs = []
        for rc, r in enumerate(r_cats):
            for combo in range(4):
                free_omega, superpos = divmod(combo, 2)
                if r is None:
                    r_val = _num(r_pool[(block + combo) % 4])
                else:
                    r_val = r
                omega_par = _num(omega_pars.pop()) if free_omega else "-1"
                if superpos:
                    initial = f"{weights.pop():.6f},{rng.uniform(0.0, 2 * math.pi):.6f}"
                else:
                    initial = rng.choice(("plus", "minus"))
                turn = (combo - block - rc) % 4
                command = "compare" if turn == 0 else "evolve"
                hf_average = turn != 1
                fmt = "json" if turn == 2 and rc == block % 4 else "csv"
                argv = [command] + _base_flags(r_val, omega_par) + [
                    "--initial", initial, "--methods", TRACE_METHODS,
                    "--t-end", _num(TRACE_T_END),
                ]
                if hf_average:
                    argv.append("--hf-average")
                if command == "evolve":
                    argv += ["--format", fmt]
                reqs.append(_cli(argv, command, TRACE_METHODS, 0.0, TRACE_T_END, hf_average, fmt))
        if block % 2:
            initial = f"{rng.uniform(0.05, 0.95):.6f},{rng.uniform(0.0, 2 * math.pi):.6f}"
        else:
            initial = "plus"
        argv = ["evolve"] + _base_flags("0", _num(rng.uniform(-2.0, 1.0))) + [
            "--initial", initial, "--methods", TRACE_R0_METHODS,
            "--t-start", _num(TRACE_R0_T_START), "--t-end", _num(TRACE_T_END),
        ]
        reqs.append(_cli(argv, "evolve", TRACE_R0_METHODS, TRACE_R0_T_START, TRACE_T_END, False, "csv"))
        rng.shuffle(reqs)
        yield from reqs


def sweep_requests(rng: random.Random) -> Iterator[dict]:
    """fig2-style sweep requests with avg,ms,numeric in blocks of 5.

    The five r values are drawn once per run, one per stratum of SWEEP_R,
    and every block uses each once, so the gamma cache mostly hits and
    every block costs about the same. Grid ends are drawn per block.
    --jobs is left at the CLI default (all cores).
    """
    r_pool = [SWEEP_R[0] + (SWEEP_R[1] - SWEEP_R[0]) * (i + rng.random()) / SWEEP_BLOCK
              for i in range(SWEEP_BLOCK)]
    while True:
        los = _strata(rng, SWEEP_BLOCK, *SWEEP_LO)
        his = _strata(rng, SWEEP_BLOCK, *SWEEP_HI)
        reqs = []
        for r, lo, hi in zip(r_pool, los, his):
            argv = ["sweep"] + _base_flags(_num(r), "0") + [
                "--grid", _num(lo), _num(hi), str(SWEEP_POINTS),
                "--methods", SWEEP_METHODS, "--initial", "plus",
            ]
            reqs.append({
                "kind": "cli", "argv": argv,
                "meta": {"command": "sweep", "methods": SWEEP_METHODS.split(","),
                         "points": SWEEP_POINTS},
            })
        rng.shuffle(reqs)
        yield from reqs


def constants_requests(rng: random.Random) -> Iterator[dict]:
    """`constants --gamma-at` requests and effective_quantities scans, 1:1.

    Every off-branch r is fresh. One scan in each block adds a
    degenerate-branch point (r = r_j, omega_par = -1), j cycling 1..3.
    """
    for block in itertools.count():
        rs = _strata(rng, 4 * CONST_GAMMA_AT, *CONST_R)
        omega_pars = _strata(rng, 2 * CONST_SCAN_POINTS, *CONST_OMEGA_PAR)
        reqs = []
        for i in range(2):
            gamma_r = [rs.pop() for _ in range(CONST_GAMMA_AT)]
            zeros = 1 + (2 * block + i) % 5
            argv = ["constants", "--zeros", str(zeros),
                    "--gamma-at", ",".join(_num(r) for r in gamma_r)]
            reqs.append({
                "kind": "cli", "argv": argv,
                "meta": {"command": "constants", "zeros": zeros, "gamma_at": gamma_r},
            })
        for i in range(2):
            params, branch = [], []
            for _ in range(CONST_SCAN_POINTS):
                params.append((OMEGA_PERP, omega_pars.pop(), OMEGA_HF, rs.pop(),
                               rng.uniform(0.0, 2 * math.pi)))
                branch.append(False)
            if i == 0:
                params.append((OMEGA_PERP, -1.0, OMEGA_HF, J0_ZEROS[block % 3],
                               rng.uniform(0.0, 2 * math.pi)))
                branch.append(True)
            reqs.append({"kind": "scan", "params": params, "branch": branch})
        rng.shuffle(reqs)
        yield from reqs


def _cli(argv, command, methods, t_start, t_end, hf_average, fmt) -> dict:
    return {
        "kind": "cli", "argv": argv,
        "meta": {
            "command": command, "methods": methods.split(","),
            "t_start": t_start, "t_end": t_end, "hf_average": hf_average,
            "format": fmt,
        },
    }


_GENERATORS = {
    "trace": trace_requests,
    "sweep": sweep_requests,
    "constants": constants_requests,
}


def requests(workload: str, seed: int) -> Iterator[dict]:
    """The endless request stream of a workload for a seed."""
    return _GENERATORS[workload](random.Random(f"{workload}:{seed}"))
