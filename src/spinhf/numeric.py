"""Ground-truth engines: numerical solution of the Schrodinger equation,
high-frequency averaging, amplitude extraction and resonance sweeps.

Two independent engines solve the exact dynamics. `evolve_floquet` is
the fast one behind the CLI and the sweeps: in the rotating frame the
Hamiltonian is periodic with the HF period T, so one period's propagator,
built from fourth-order Magnus steps and raised to the n-th power in
closed form, gives the state at any time (stroboscopic Floquet evolution).
`integrate_schrodinger` is the oracle: an embedded adaptive Runge-Kutta
5(4) pair on the two complex state amplitudes, stepped in the lab frame.
Its step size is error controlled and additionally capped at a twentieth
of the HF period so the fast drive is never aliased.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from . import analytic
from .model import TWO_PI, DriveParams, gauge_factor, initial_gauge_factor
from .su2 import Spinor

VALUE_SLACK = 1e-9
_TOL_RANGE = (1e-12, 1e-6)
_RENORM_THRESHOLD = 1e-10
_NORM_FAILURE = 1e-6
OMEGA_FLOOR = 1e-3  # sweep horizon guard for vanishing slow frequency


class IntegratorFailureError(RuntimeError):
    """State norm drifted beyond recovery between renormalizations."""


class StiffnessError(RuntimeError):
    """The step size underflowed (RK) or the substep count reached its cap
    (Floquet); the problem is stiffer than the engine handles."""


class InsufficientSpanError(ValueError):
    """Series too short for a well-defined amplitude; message states the needed t_end."""


class SweepPointError(RuntimeError):
    """A sweep grid point failed; carries the offending omega_par."""

    def __init__(self, omega_par: float, cause: BaseException):
        super().__init__(f"sweep point omega_par = {omega_par!r} failed: {cause}")
        self.omega_par = omega_par
        self.cause = cause


@dataclass(frozen=True)
class TimeSeries:
    """Sampled (t, <sigma_z>) trace with provenance."""

    times: np.ndarray
    values: np.ndarray
    method: str
    params: DriveParams
    norm_drift: float = 0.0

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if t.ndim != 1 or v.ndim != 1 or t.size != v.size:
            raise ValueError("times and values must be 1-D arrays of equal length")
        if t.size < 1:
            raise ValueError("series must contain at least one sample")
        if t.size > 1 and not np.all(np.diff(t) > 0.0):
            raise ValueError("times must be strictly increasing")
        if v.size and (v.min() < -1.0 - VALUE_SLACK or v.max() > 1.0 + VALUE_SLACK):
            raise ValueError("values outside [-1, 1] beyond tolerance")
        t.flags.writeable = False
        v.flags.writeable = False
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "values", v)

    def __len__(self) -> int:
        return int(self.times.size)


@dataclass(frozen=True)
class SweepResult:
    """Resonance-amplitude curves per method over an omega_par grid.

    Failed grid points hold NaN in the affected column and are listed in
    failures as (omega_par, method, message) triples.
    """

    omega_par_grid: np.ndarray
    amplitudes: dict[str, np.ndarray]
    params: DriveParams
    failures: tuple = ()

    def __post_init__(self):
        g = np.asarray(self.omega_par_grid, dtype=float)
        if g.ndim != 1 or g.size < 1:
            raise ValueError("grid must be a nonempty 1-D array")
        if g.size > 1 and not np.all(np.diff(g) > 0.0):
            raise ValueError("grid must be strictly increasing")
        amps = {}
        for name, arr in self.amplitudes.items():
            a = np.asarray(arr, dtype=float)
            if a.shape != g.shape:
                raise ValueError(f"amplitude column {name!r} length mismatch")
            finite = a[np.isfinite(a)]
            if finite.size and (finite.min() < 0.0 or finite.max() > 1.0 + 1e-6):
                raise ValueError(f"amplitudes for {name!r} outside [0, 1]")
            a.flags.writeable = False
            amps[name] = a
        g.flags.writeable = False
        object.__setattr__(self, "omega_par_grid", g)
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(
            self,
            "failures",
            tuple((float(w), str(m), str(msg)) for w, m, msg in self.failures),
        )

    def to_csv(self, fp) -> None:
        names = list(self.amplitudes)
        fp.write("omega_par," + ",".join(names) + "\n")
        for i, w in enumerate(self.omega_par_grid):
            row = [f"{w:.12e}"]
            for name in names:
                a = self.amplitudes[name][i]
                row.append(f"{a:.12e}" if math.isfinite(a) else "")
            fp.write(",".join(row) + "\n")

    def to_json_dict(self) -> dict:
        return {
            "schema": "spinhf/sweep/1",
            "params": self.params.to_json_dict(),
            "omega_par": [float(x) for x in self.omega_par_grid],
            "amplitudes": {
                k: [float(x) if math.isfinite(x) else None for x in v]
                for k, v in self.amplitudes.items()
            },
            "failures": [list(f) for f in self.failures],
        }


# ---------------------------------------------------------------------------
# Adaptive RK 5(4) integration

# Dormand-Prince tableau
_A21 = 1.0 / 5.0
_A31, _A32 = 3.0 / 40.0, 9.0 / 40.0
_A41, _A42, _A43 = 44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0
_A51, _A52, _A53, _A54 = 19372.0 / 6561.0, -25360.0 / 2187.0, 64448.0 / 6561.0, -212.0 / 729.0
_A61, _A62, _A63, _A64, _A65 = (
    9017.0 / 3168.0,
    -355.0 / 33.0,
    46732.0 / 5247.0,
    49.0 / 176.0,
    -5103.0 / 18656.0,
)
_A71, _A73, _A74, _A75, _A76 = (
    35.0 / 384.0,
    500.0 / 1113.0,
    125.0 / 192.0,
    -2187.0 / 6784.0,
    11.0 / 84.0,
)
_C2, _C3, _C4, _C5 = 1.0 / 5.0, 3.0 / 10.0, 4.0 / 5.0, 8.0 / 9.0
_E1, _E3, _E4, _E5, _E6, _E7 = (
    71.0 / 57600.0,
    -71.0 / 16695.0,
    71.0 / 1920.0,
    -17253.0 / 339200.0,
    22.0 / 525.0,
    -1.0 / 40.0,
)


def _rhs_lab(p: DriveParams) -> Callable:
    half_perp = 0.5 * p.omega_perp
    opar = p.omega_par
    whf = p.omega_hf
    ohf = p.Omega_HF
    phi = p.phi_hf
    cos, sin = math.cos, math.sin

    def rhs(t: float, u: complex, d: complex):
        hx = -half_perp * cos(t)
        hy = -half_perp * sin(t)
        hz = -0.5 * (opar + whf * cos(ohf * t + phi))
        hm = complex(hx, -hy)
        return -1j * (hz * u + hm * d), -1j * (hm.conjugate() * u - hz * d)

    return rhs


def default_sample_dt(p: DriveParams) -> float:
    return (TWO_PI / p.Omega_HF) / 32.0


def sample_times(t_end: float, sample_dt: float) -> np.ndarray:
    """The sample grid k * sample_dt, k = 0, 1, ..., keeping exactly the
    k with k * sample_dt <= t_end (integrate_schrodinger's samples)."""
    if not sample_dt > 0.0:
        raise ValueError(f"sample_dt must be > 0, got {sample_dt!r}")
    # t_end / sample_dt rounds either way; step the floor to the exact last k
    last = math.floor(t_end / sample_dt)
    while (last + 1) * sample_dt <= t_end:
        last += 1
    while last * sample_dt > t_end:
        last -= 1
    return np.arange(last + 1) * sample_dt


def integrate_schrodinger(
    p: DriveParams,
    init: Spinor,
    t_end: float,
    sample_dt: Optional[float] = None,
    tol: float = 1e-8,
) -> tuple[TimeSeries, Spinor]:
    """Integrate i dpsi/dt = H(t) psi in the lab frame from t = 0 and
    sample <sigma_z>.

    Samples are recorded at exact multiples of sample_dt (default: a
    thirty-second of the HF period). Returns the series and the final
    state. The state is projected back onto the unit sphere after every
    accepted step. The series' norm_drift diagnostic is the sum of the
    per-step norm deviations |norm - 1| above 1e-10, taken before each
    projection. It grows with the horizon and with tol: at the default
    tol = 1e-8 it is nonzero in normal operation (3.6e-6 at
    omega_perp = 3, omega_par = -1, r = 1, phi_hf = pi/2, Omega_HF = 50,
    t_end = 100), while at tol = 1e-10 it stays 0.0 there.
    """
    if not t_end > 0.0:
        raise ValueError(f"t_end must be > 0, got {t_end!r}")
    if not _TOL_RANGE[0] <= tol <= _TOL_RANGE[1]:
        raise ValueError(f"tol {tol!r} outside supported range {_TOL_RANGE}")
    rhs = _rhs_lab(p)
    if sample_dt is None:
        sample_dt = default_sample_dt(p)
    if not sample_dt > 0.0:
        raise ValueError(f"sample_dt must be > 0, got {sample_dt!r}")

    h_max = (TWO_PI / p.Omega_HF) / 20.0
    u = complex(init.up)
    d = complex(init.down)
    t = 0.0
    drift = 0.0
    times = [0.0]
    values = [(u.real * u.real + u.imag * u.imag) - (d.real * d.real + d.imag * d.imag)]
    next_k = 1
    next_sample = sample_dt

    k1u, k1d = rhs(t, u, d)
    h = min(h_max, sample_dt)
    abs_ = abs

    while t < t_end:
        target = next_sample if next_sample < t_end else t_end
        clipped = t + h >= target
        h_try = (target - t) if clipped else h

        # Dormand-Prince stages (k7 = FSAL)
        yu = u + h_try * (_A21 * k1u)
        yd = d + h_try * (_A21 * k1d)
        k2u, k2d = rhs(t + _C2 * h_try, yu, yd)
        yu = u + h_try * (_A31 * k1u + _A32 * k2u)
        yd = d + h_try * (_A31 * k1d + _A32 * k2d)
        k3u, k3d = rhs(t + _C3 * h_try, yu, yd)
        yu = u + h_try * (_A41 * k1u + _A42 * k2u + _A43 * k3u)
        yd = d + h_try * (_A41 * k1d + _A42 * k2d + _A43 * k3d)
        k4u, k4d = rhs(t + _C4 * h_try, yu, yd)
        yu = u + h_try * (_A51 * k1u + _A52 * k2u + _A53 * k3u + _A54 * k4u)
        yd = d + h_try * (_A51 * k1d + _A52 * k2d + _A53 * k3d + _A54 * k4d)
        k5u, k5d = rhs(t + _C5 * h_try, yu, yd)
        yu = u + h_try * (_A61 * k1u + _A62 * k2u + _A63 * k3u + _A64 * k4u + _A65 * k5u)
        yd = d + h_try * (_A61 * k1d + _A62 * k2d + _A63 * k3d + _A64 * k4d + _A65 * k5d)
        k6u, k6d = rhs(t + h_try, yu, yd)
        nu = u + h_try * (_A71 * k1u + _A73 * k3u + _A74 * k4u + _A75 * k5u + _A76 * k6u)
        nd = d + h_try * (_A71 * k1d + _A73 * k3d + _A74 * k4d + _A75 * k5d + _A76 * k6d)
        t_new = target if clipped else t + h_try
        k7u, k7d = rhs(t_new, nu, nd)

        eu = h_try * (_E1 * k1u + _E3 * k3u + _E4 * k4u + _E5 * k5u + _E6 * k6u + _E7 * k7u)
        ed = h_try * (_E1 * k1d + _E3 * k3d + _E4 * k4d + _E5 * k5d + _E6 * k6d + _E7 * k7d)
        scu = tol * (1.0 + abs_(u))
        scd = tol * (1.0 + abs_(d))
        err = math.sqrt(0.5 * ((abs_(eu) / scu) ** 2 + (abs_(ed) / scd) ** 2))

        if err <= 1.0:
            t = t_new
            u, d = nu, nd
            k1u, k1d = k7u, k7d
            norm2 = u.real * u.real + u.imag * u.imag + d.real * d.real + d.imag * d.imag
            dev = abs_(math.sqrt(norm2) - 1.0)
            if dev > _RENORM_THRESHOLD:
                if dev > _NORM_FAILURE:
                    raise IntegratorFailureError(
                        f"norm drift {dev:.3e} at t = {t:.6g} exceeds {_NORM_FAILURE}"
                    )
                drift += dev
            if norm2 != 1.0:
                # project back onto the unit sphere every step; the RHS is
                # linear so the FSAL stage rescales exactly
                scale = 1.0 / math.sqrt(norm2)
                u *= scale
                d *= scale
                k1u *= scale
                k1d *= scale
            if t == next_sample:
                times.append(t)
                values.append(
                    (u.real * u.real + u.imag * u.imag) - (d.real * d.real + d.imag * d.imag)
                )
                next_k += 1
                next_sample = next_k * sample_dt
            fac = min(5.0, max(0.2, 0.9 * err ** -0.2)) if err > 0.0 else 5.0
            h = min(h_max, h_try * fac)
        else:
            h = h_try * max(0.2, 0.9 * err ** -0.2)
        if h < 1e-14 * max(1.0, t):
            raise StiffnessError(f"step size underflow (h = {h:.3e}) at t = {t:.6g}")

    norm = math.sqrt(u.real * u.real + u.imag * u.imag + d.real * d.real + d.imag * d.imag)
    final = Spinor(u / norm, d / norm)
    series = TimeSeries(
        times=np.array(times), values=np.array(values),
        method="numeric[lab]", params=p, norm_drift=drift,
    )
    return series, final


# ---------------------------------------------------------------------------
# Stroboscopic Floquet-Magnus engine
#
# An SU(2) element w - i (x, y, z).sigma is stored as the four real arrays
# (w, x, y, z); closed-form exponentials and products keep it unitary.

_MAGNUS_SUBSTEPS = 64  # substeps per period at the first refinement level
_MAGNUS_MAX_SUBSTEPS = 1 << 17  # refinement cap; beyond it StiffnessError
_CHUNK = 1 << 15  # samples evaluated per numpy pass (bounds peak memory)
_GL_OFFSET = math.sqrt(3.0) / 6.0  # Gauss-Legendre nodes at 1/2 -+ this


def _magnus_steps(p: DriveParams, t0: np.ndarray, h) -> tuple:
    """One fourth-order Magnus step of the rotating-frame dynamics over
    [t0, t0 + h] for each entry (Blanes, Casas, Oteo & Ros, Phys. Rep. 470,
    151 (2009)).

    The field is the Pauli vector a(t) of model.hamiltonian_transformed at
    the fast variable Omega_HF t; its z component is constant. With a1, a2
    at the two Gauss-Legendre nodes the step is exp(-i g.sigma),
    g = (h/2)(a1 + a2) + (sqrt(3)/6) h^2 (a2 x a1).
    """
    half_perp = -0.5 * p.omega_perp
    az = -0.5 * (1.0 + p.omega_par)
    th1 = p.r * np.sin(p.Omega_HF * (t0 + (0.5 - _GL_OFFSET) * h) + p.phi_hf)
    th2 = p.r * np.sin(p.Omega_HF * (t0 + (0.5 + _GL_OFFSET) * h) + p.phi_hf)
    x1, y1 = half_perp * np.cos(th1), half_perp * np.sin(th1)
    x2, y2 = half_perp * np.cos(th2), half_perp * np.sin(th2)
    k = _GL_OFFSET * h * h  # sqrt(3)/6 h^2
    gx = 0.5 * h * (x1 + x2) + (k * az) * (y2 - y1)
    gy = 0.5 * h * (y1 + y2) + (k * az) * (x1 - x2)
    gz = az * h + k * (x2 * y1 - y2 * x1)
    ang = np.sqrt(gx * gx + gy * gy + gz * gz)
    s = np.sinc(ang / math.pi)  # sin(ang) / ang, 1 at ang = 0
    return np.cos(ang), s * gx, s * gy, s * gz


def _su2_mul(a, b) -> tuple:
    """Product a b of SU(2) elements given as (w, x, y, z)."""
    aw, ax, ay, az = a
    bw, bx, by, bz = b
    return (
        aw * bw - ax * bx - ay * by - az * bz,
        aw * bx + bw * ax + ay * bz - az * by,
        aw * by + bw * ay + az * bx - ax * bz,
        aw * bz + bw * az + ax * by - ay * bx,
    )


def _su2_apply(q, psi) -> tuple:
    """Apply (w, x, y, z) to states given as (Re up, Im up, Re down, Im down)."""
    w, x, y, z = q
    ur, ui, dr, di = psi
    return (
        w * ur + z * ui + x * di - y * dr,
        w * ui - z * ur - x * dr - y * di,
        w * dr - z * di + x * ui + y * ur,
        w * di + z * dr + y * ui - x * ur,
    )


def _propagator_table(p: DriveParams, span: float, n_sub: int) -> np.ndarray:
    """Rows (w, x, y, z) of F_i = U(i h) for i = 0..n_sub, h = span / n_sub.

    A Hillis-Steele prefix scan multiplies the Magnus steps, later steps
    on the left.
    """
    h = span / n_sub
    table = np.empty((4, n_sub + 1))
    table[:, 0] = (1.0, 0.0, 0.0, 0.0)
    table[:, 1:] = _magnus_steps(p, np.arange(n_sub) * h, h)
    scan = table[:, 1:]
    d = 1
    while d < n_sub:
        scan[:, d:] = _su2_mul(scan[:, d:], scan[:, :-d])
        d *= 2
    return table


def _converged_table(p: DriveParams, span: float, tol: float) -> np.ndarray:
    """The propagator table at the first substep count N (doubling from
    _MAGNUS_SUBSTEPS) where U(span) moved by at most tol * span from N / 2."""
    n_sub = _MAGNUS_SUBSTEPS
    table = _propagator_table(p, span, n_sub)
    while True:
        n_sub *= 2
        if n_sub > _MAGNUS_MAX_SUBSTEPS:
            raise StiffnessError(
                f"Floquet propagator not converged to tol {tol:.3g} within "
                f"{_MAGNUS_MAX_SUBSTEPS} substeps per period"
            )
        finer = _propagator_table(p, span, n_sub)
        change = float(np.max(np.abs(finer[:, -1] - table[:, -1])))
        table = finer
        if change <= tol * span:
            return table


def _rotating_states(p: DriveParams, table: np.ndarray, span: float, psi0, t: np.ndarray):
    """Rotating-frame states U(t) psi0 at times t, as four real arrays.

    With t = n span + s and i = floor(s / h): U(t) = M(s - i h; i h) F_i
    U(span)^n, where M is one partial Magnus step and
    U^n = cos(n beta) - i sin(n beta) u.sigma.
    """
    n_sub = table.shape[1] - 1
    h = span / n_sub
    w, x, y, z = table[:, -1]
    vnorm = math.sqrt(x * x + y * y + z * z)
    beta = math.atan2(vnorm, w)
    n = np.floor(t / span)
    s = t - n * span
    i = np.clip(np.floor(s / h), 0.0, n_sub - 1.0)
    ang = n * beta
    sin_n = np.sin(ang) / vnorm if vnorm > 0.0 else np.zeros_like(ang)
    psi = _su2_apply((np.cos(ang), sin_n * x, sin_n * y, sin_n * z), psi0)
    psi = _su2_apply(table[:, i.astype(np.intp)], psi)
    return _su2_apply(_magnus_steps(p, i * h, s - i * h), psi)


def evolve_floquet(
    p: DriveParams,
    init: Spinor,
    t_end: float,
    sample_dt: Optional[float] = None,
    tol: float = 1e-8,
) -> tuple[TimeSeries, Spinor]:
    """Solve i dpsi/dt = H(t) psi from t = 0 and sample <sigma_z>, stroboscopically.

    Same sample grid (sample_times: exact multiples of sample_dt up to
    t_end; default a thirty-second of the HF period, which it need not
    divide), return values and validation as integrate_schrodinger. In
    the rotating frame (model.hamiltonian_transformed) the Hamiltonian has period
    T = 2 pi / Omega_HF, and <sigma_z> is the same in both frames. One
    period is split into N fourth-order Magnus substeps; N doubles from 64
    until U(T) moves by at most tol * T, and StiffnessError is raised past
    2^17. When t_end < T the table spans [0, t_end] instead of one period.
    Samples are evaluated in chunks of fixed size, so beyond the output
    arrays memory does not grow with the horizon. The final state is the
    lab-frame state at t_end. norm_drift is 0.0: every propagator is an
    exact SU(2) product, so there is no norm to restore.
    """
    if not t_end > 0.0:
        raise ValueError(f"t_end must be > 0, got {t_end!r}")
    if not _TOL_RANGE[0] <= tol <= _TOL_RANGE[1]:
        raise ValueError(f"tol {tol!r} outside supported range {_TOL_RANGE}")
    times = sample_times(t_end, default_sample_dt(p) if sample_dt is None else sample_dt)

    span = min(TWO_PI / p.Omega_HF, t_end)
    table = _converged_table(p, span, tol)
    start = initial_gauge_factor(p).apply(init)
    psi0 = (start.up.real, start.up.imag, start.down.real, start.down.imag)

    # the samples, then t_end for the final state
    grid = np.append(times, t_end)
    values = np.empty_like(grid)
    for lo in range(0, grid.size, _CHUNK):
        ur, ui, dr, di = _rotating_states(p, table, span, psi0, grid[lo : lo + _CHUNK])
        values[lo : lo + _CHUNK] = (ur * ur + ui * ui) - (dr * dr + di * di)

    up, down = complex(ur[-1], ui[-1]), complex(dr[-1], di[-1])
    norm = math.sqrt(abs(up) ** 2 + abs(down) ** 2)
    final = gauge_factor(t_end, p).apply(Spinor(up / norm, down / norm))
    series = TimeSeries(times=times, values=values[:-1], method="numeric[floquet]", params=p)
    return series, final


# ---------------------------------------------------------------------------
# Averaging, amplitude, sweeps

def hf_average(series: TimeSeries, p: DriveParams) -> TimeSeries:
    """Centered moving average over exactly one HF period.

    The window is rectangular; half a window is trimmed from each end.
    Sampling must be uniform, at most a tenth of the HF period, and must
    divide the period to within one part in 1e6 so the window covers it
    exactly.
    """
    t_hf = TWO_PI / p.Omega_HF
    if len(series) < 2:
        raise ValueError("series too short to average")
    steps = np.diff(series.times)
    dt = float(steps[0])
    if not np.allclose(steps, dt, rtol=0.0, atol=1e-9 * dt):
        raise ValueError("hf_average requires uniform sampling")
    if dt > t_hf / 10.0 + 1e-15:
        raise ValueError(
            f"sample spacing {dt:.3e} exceeds a tenth of the HF period {t_hf:.3e}"
        )
    w_exact = t_hf / dt
    w = int(round(w_exact))
    if abs(w_exact - w) > 1e-6 * w:
        raise ValueError(
            f"sample spacing must divide the HF period; got {w_exact!r} samples per period "
            f"(choose sample_dt = (2 pi / Omega_HF) / k)"
        )
    if len(series) < w + 1:
        raise ValueError(
            f"series shorter than one HF window ({w} samples): {len(series)}"
        )
    kernel = np.full(w, 1.0 / w)
    vals = np.convolve(series.values, kernel, mode="valid")
    n = series.times.size
    times = 0.5 * (series.times[: n - w + 1] + series.times[w - 1 :])
    return TimeSeries(
        times=times, values=vals, method=f"{series.method}+hfavg",
        params=p, norm_drift=series.norm_drift,
    )


def extract_amplitude(series: TimeSeries, p: DriveParams) -> float:
    """Half peak-to-peak excursion of an (already averaged) trace.

    The series must span at least 1.25 periods of the expected slow
    oscillation (from the corrected slow frequency) so the extremes are
    actually visited.
    """
    w_ms = analytic.omega_ms(p)
    span = float(series.times[-1] - series.times[0])
    if w_ms != 0.0:
        required = 1.25 * TWO_PI / abs(w_ms)
        if span < required:
            raise InsufficientSpanError(
                f"series spans {span:.6g} but the slow period {TWO_PI / abs(w_ms):.6g} "
                f"requires t_end >= {float(series.times[0]) + required:.6g}"
            )
    return 0.5 * (float(series.values.max()) - float(series.values.min()))


def resonance_sweep(
    p_template: DriveParams,
    omega_par_grid: Sequence[float],
    methods: Sequence[str],
    tol: float = 1e-8,
    t_end: Optional[float] = None,
    on_error: str = "raise",
) -> SweepResult:
    """Amplitude-versus-omega_par curves.

    Closed-form methods evaluate pointwise; "numeric" evolves each grid
    point from |+> with evolve_floquet over an auto-chosen horizon of 1.5
    slow periods (with a frequency floor so off-resonance points stay
    cheap). on_error = "raise" aborts on the first failing point;
    "collect" records NaN and continues.
    """
    grid = [float(w) for w in omega_par_grid]
    if not grid:
        raise ValueError("omega_par grid must be nonempty")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("omega_par grid must be strictly increasing")
    if not methods:
        raise ValueError("at least one method required")
    known = {"exact", "avg", "ms", "numeric"}
    unknown = set(methods) - known
    if unknown:
        raise ValueError(f"unknown methods: {sorted(unknown)}")
    if on_error not in ("raise", "collect"):
        raise ValueError(f"on_error must be 'raise' or 'collect', got {on_error!r}")

    points = [
        DriveParams(
            omega_perp=p_template.omega_perp, omega_par=w,
            Omega_HF=p_template.Omega_HF, r=p_template.r, phi_hf=p_template.phi_hf,
        )
        for w in grid
    ]
    failures: list[tuple[float, str, str]] = []

    def fail(w: float, name: str, exc: BaseException):
        if on_error == "raise":
            raise SweepPointError(w, exc) from exc
        failures.append((w, name, str(exc)))

    def amplitude(name: str, p: DriveParams) -> float:
        if name != "numeric":
            return analytic.amplitude_closed(analytic.MethodId(name), p)
        horizon = t_end if t_end is not None else (
            1.5 * TWO_PI / max(abs(analytic.omega_ms(p)), OMEGA_FLOOR)
        )
        series, _ = evolve_floquet(p, Spinor.plus(), horizon, tol=tol)
        return extract_amplitude(hf_average(series, p), p)

    columns: dict[str, list[float]] = {}
    # closed forms first, so their failures are reported before numeric ones
    for name in sorted(methods, key=lambda m: m == "numeric"):
        col = []
        for p, w in zip(points, grid):
            try:
                col.append(amplitude(name, p))
            except Exception as exc:
                fail(w, name, exc)
                col.append(math.nan)
        columns[name] = col

    return SweepResult(
        omega_par_grid=np.array(grid),
        amplitudes={name: np.array(columns[name]) for name in methods},
        params=p_template, failures=tuple(failures),
    )
