"""Ground-truth engines: numerical solution of the Schrodinger equation,
high-frequency averaging, amplitude extraction and resonance sweeps.

Two independent engines solve the exact dynamics. `evolve_floquet` is
the fast one behind the CLI and the sweeps: in the rotating frame the
Hamiltonian is periodic with the HF period T, so a table of U over one
period, built from fourth-order Magnus steps, and U(T)^n in closed form
give the state at any time (stroboscopic Floquet evolution). A sample at
t = nT + s is the dot product of the Heisenberg vector of sigma_z under
U(s) with the Bloch vector of U(T)^n psi0; on the default grid the
samples take 32 phases s, each evaluated once. The engine takes a batch
of drives: `resonance_sweep` runs its whole numeric column through it at
once, and `evolve_floquet` is the same engine on one drive. Every
operation is elementwise, so a drive's output does not depend on its
batch. `integrate_schrodinger` is the oracle: an embedded adaptive
Runge-Kutta 5(4) pair on the two complex state amplitudes, stepped in
the lab frame, its step capped at a twentieth of the HF period.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from . import analytic
from .model import TWO_PI, DriveParams, gauge_factor, initial_gauge_factor
from .su2 import ZERO_VEC, PauliOperator, Spinor, Vec3

VALUE_SLACK = 1e-9
_TOL_RANGE = (1e-12, 1e-6)
_RENORM_THRESHOLD = 1e-10
_NORM_FAILURE = 1e-6
OMEGA_FLOOR = 1e-3  # sweep horizon guard for vanishing slow frequency
# rows of one sample grid: a row costs at least 16 bytes (its time and its
# value), so a grid holds at most 1 GiB
_MAX_SAMPLES = 1 << 26
_BATCH_ROWS = 1 << 20  # samples one sweep batch holds (16 MiB of times and values)


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
    return np.arange(_sample_count(t_end, sample_dt)) * sample_dt


def _sample_count(t_end: float, sample_dt: float) -> int:
    """Rows of sample_times(t_end, sample_dt). A sample_dt or t_end that is
    not finite, or a grid of more than _MAX_SAMPLES rows, raises ValueError
    before anything is allocated."""
    if not sample_dt > 0.0:
        raise ValueError(f"sample_dt must be > 0, got {sample_dt!r}")
    if not (math.isfinite(sample_dt) and math.isfinite(t_end)):
        raise ValueError(f"sample_dt and t_end must be finite, got {sample_dt!r} and {t_end!r}")
    ratio = t_end / sample_dt
    if not ratio < _MAX_SAMPLES:
        raise ValueError(
            f"t_end / sample_dt = {ratio:.6g} exceeds the cap of {_MAX_SAMPLES} samples"
        )
    if ratio < 0.0:
        return 0
    # t_end / sample_dt rounds either way; step the floor to the exact last k
    last = math.floor(ratio)
    while (last + 1) * sample_dt <= t_end:
        last += 1
    while last * sample_dt > t_end:
        last -= 1
    return last + 1


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
# The engine runs B drives at once. A per-drive value is a float for one
# drive and a (B, 1) column for several, so a batch adds a leading drive
# axis that broadcasts along the time axis. Every operation is elementwise,
# so a drive's numbers do not depend on the batch it runs in.

_MAGNUS_SUBSTEPS = 64  # substeps per period at the first refinement level
_MAGNUS_MAX_SUBSTEPS = 1 << 17  # refinement cap; beyond it StiffnessError
_CHUNK = 1 << 15  # samples (or table entries) per numpy pass (bounds peak memory)
_GL_OFFSET = math.sqrt(3.0) / 6.0  # Gauss-Legendre nodes at 1/2 -+ this


def _columns(rows: list) -> tuple:
    """Per-drive values from one tuple per drive: that tuple itself for one
    drive, else one (B, 1) column per entry."""
    return rows[0] if len(rows) == 1 else tuple(np.array(v)[:, None] for v in zip(*rows))


def _take(cols: tuple, keep) -> tuple:
    """The rows keep of every (B, 1) column in cols."""
    return tuple(v[keep] for v in cols)


def _drives(ps: Sequence[DriveParams], t_ends: Sequence[float]) -> tuple:
    """Per-drive columns (-w_perp / 2, -(1 + w_par) / 2, r, Omega_HF, phi_hf,
    span) of the drives ps; the span of the table is one HF period, or the
    horizon when that is shorter."""
    return _columns([
        (-0.5 * p.omega_perp, -0.5 * (1.0 + p.omega_par), p.r, p.Omega_HF, p.phi_hf,
         min(TWO_PI / p.Omega_HF, t_end))
        for p, t_end in zip(ps, t_ends)
    ])


def _magnus_steps(d: tuple, t0: np.ndarray, h) -> tuple:
    """One fourth-order Magnus step of the rotating-frame dynamics over
    [t0, t0 + h] for each entry (Blanes, Casas, Oteo & Ros, Phys. Rep. 470,
    151 (2009)); d holds the drives' columns (_drives).

    The field is the Pauli vector a(t) of model.hamiltonian_transformed at
    the fast variable Omega_HF t; its z component is constant. With a1, a2
    at the two Gauss-Legendre nodes the step is exp(-i g.sigma),
    g = (h/2)(a1 + a2) + (sqrt(3)/6) h^2 (a2 x a1).
    """
    half_perp, az, r, omega, phi = d[:5]
    th1 = r * np.sin(omega * (t0 + (0.5 - _GL_OFFSET) * h) + phi)
    th2 = r * np.sin(omega * (t0 + (0.5 + _GL_OFFSET) * h) + phi)
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


def _unitary(w, x, y, z) -> PauliOperator:
    """The SU(2) element (w, x, y, z) as an operator, scaled back to unit
    norm, from which long table products drift by rounding."""
    f = 1.0 / math.sqrt(w * w + x * x + y * y + z * z)
    return PauliOperator(complex(f * w), -1j * f * x, -1j * f * y, -1j * f * z)


def _period_tables(d: tuple, n_sub: int) -> np.ndarray:
    """Rows (w, x, y, z) of F_i = U(i h) for i = 0..n_sub, h = span / n_sub:
    shape (4, n_sub + 1) for one drive, (4, B, n_sub + 1) for B drives.

    A Hillis-Steele prefix scan multiplies the Magnus steps, later steps
    on the left. The drives share its passes, in groups of at most
    _CHUNK / n_sub drives, so that long tables keep to cache-sized arrays.
    """
    h = d[5] / n_sub
    group = max(1, _CHUNK // n_sub)
    if isinstance(h, np.ndarray) and len(h) > group:
        groups = (_take(d, slice(lo, lo + group)) for lo in range(0, len(h), group))
        return np.concatenate([_period_tables(g, n_sub) for g in groups], axis=1)
    table = np.empty((4, *np.shape(h)[:1], n_sub + 1))
    table[..., 0] = 0.0
    table[0, ..., 0] = 1.0
    table[..., 1:] = _magnus_steps(d, np.arange(n_sub) * h, h)
    scan = table[..., 1:]
    k = 1
    while k < n_sub:
        scan[..., k:] = _su2_mul(scan[..., k:], scan[..., :-k])
        k *= 2
    return table


def _converged_tables(d: tuple, tol: float) -> list:
    """Per drive, (table, N) at the first substep count N (doubling from
    _MAGNUS_SUBSTEPS) where U(span) moved by at most tol * span from N / 2,
    or the StiffnessError past _MAGNUS_MAX_SUBSTEPS. The drives still
    refining share each level's scan; a drive stops at its own level.
    """
    todo = list(range(np.size(d[5])))
    out: list = [None] * len(todo)
    n_sub = _MAGNUS_SUBSTEPS
    coarse = _period_tables(d, n_sub)
    while todo:
        n_sub *= 2
        if n_sub > _MAGNUS_MAX_SUBSTEPS:
            for b in todo:
                out[b] = StiffnessError(
                    f"Floquet propagator not converged to tol {tol:.3g} within "
                    f"{_MAGNUS_MAX_SUBSTEPS} substeps per period"
                )
            break
        fine = _period_tables(d, n_sub)
        change = np.max(np.abs(fine[..., -1] - coarse[..., -1]), axis=0)
        done = change <= tol * np.ravel(d[5])
        for j in np.flatnonzero(done):
            out[todo[j]] = (fine[:, j] if fine.ndim == 3 else fine, n_sub)
        if done.any() and not done.all():  # only a batch splits
            keep = np.flatnonzero(~done)
            d, fine = _take(d, keep), fine[:, keep]
        todo = [b for b, ok in zip(todo, done) if not ok]
        coarse = fine
    return out


def _phase_propagators(d: tuple, table: np.ndarray, s) -> tuple:
    """U(s) = M(s - i h; i h) F_i, i = floor(s / h), at phases s in [0, span]:
    a table row, then one partial Magnus step. d holds the drive values
    (_drives), then h, N - 1 and the drive's first column in table."""
    h, i_max, off = d[6:]
    i = np.clip(np.floor(s / h), 0.0, i_max)
    return _su2_mul(_magnus_steps(d, i * h, s - i * h), table[:, i.astype(np.intp) + off])


def _heisenberg_z(q) -> np.ndarray:
    """m with U^dagger sigma_z U = m.sigma for U = (w, x, y, z), stacked on a leading axis."""
    w, x, y, z = q
    return np.array([2.0 * (x * z - w * y), 2.0 * (y * z + w * x), 1.0 - 2.0 * (x * x + y * y)])


def _lattice(span: float, dt: float) -> int:
    """P if P sample steps make up the span exactly (P dt == span, P <= _CHUNK), else 0."""
    p = round(span / dt)
    return p if 0 < p <= _CHUNK and p * dt == span else 0


def _evolve_drives(
    ps: Sequence[DriveParams],
    init: Spinor,
    t_ends: Sequence[float],
    sample_dts: Sequence[Optional[float]],
    tol: float,
) -> list:
    """evolve_floquet for each drive of ps over its own horizon: a
    (TimeSeries, final Spinor) pair per drive, or the StiffnessError of its
    table, which fails that drive alone (a rejected grid raises).

    At t = n span + s, <sigma_z> = m(s).b_n: m is the Heisenberg vector of
    U(s), b_n the Bloch vector of U(span)^n psi0, which turns psi0's b0 by
    2 n beta about the axis u of U(span) = cos beta - i sin beta u.sigma.
    So m.b_n = (K m).(1, cos 2 n beta, sin 2 n beta), with K's rows (b0.u) u,
    b0 - (b0.u) u and u x b0 (Rodrigues). One pass over every drive takes
    the P phases of its lattice, sample n P + j at phase j of period n, and
    the phase of t_end, the final state's; other grids take each sample as
    its own phase, _CHUNK at a time.
    """
    dts = [default_sample_dt(p) if dt is None else dt for p, dt in zip(ps, sample_dts)]
    grids = [sample_times(t_end, dt) for t_end, dt in zip(t_ends, dts)]
    rows = [_drives([p], [t_end]) for p, t_end in zip(ps, t_ends)]
    # a field too strong for floats gives a non-finite table, which never converges
    with np.errstate(over="ignore", invalid="ignore"):
        out = _converged_tables(_columns(rows), tol)
    live = [k for k, tab in enumerate(out) if not isinstance(tab, StiffnessError)]
    if not live:
        return out
    drives, kicks, phases, off = [], [], [], 0
    for k in live:
        table, n_sub = out[k]
        span = rows[k][5]
        w, x, y, z = table[:, -1].tolist()
        vnorm = math.sqrt(x * x + y * y + z * z)
        beta, n_end = math.atan2(vnorm, w), math.floor(t_ends[k] / span)
        # U(span) = +-1 has no axis: its powers are +-1, and b0 does not turn
        u = Vec3(x / vnorm, y / vnorm, z / vnorm) if vnorm > 0.0 else ZERO_VEC
        start = initial_gauge_factor(ps[k]).apply(init)
        b0 = start.bloch()
        par = u * u.dot(b0)
        power = _unitary(math.cos(n_end * beta), *(u * math.sin(n_end * beta)).as_tuple())
        turn = np.array([par.as_tuple(), (b0 - par).as_tuple(), u.cross(b0).as_tuple()])
        kicks.append((2.0 * beta, turn, power.apply(start)))
        drives.append((*rows[k], span / n_sub, n_sub - 1.0, off))
        phases.append(np.append(np.arange(_lattice(span, dts[k])) * dts[k], t_ends[k] - n_end * span))
        off += n_sub + 1
    # a row per drive: its lattice phases, then the phase of t_end to the row's end
    s = np.empty((len(live), max(ph.size for ph in phases)))
    for row, ph in zip(s, phases):
        row[: ph.size], row[ph.size :] = ph, ph[-1]
    table = out[live[0]][0] if len(live) == 1 else np.concatenate([out[k][0] for k in live], axis=1)
    q = _phase_propagators(_columns(drives), table, s)
    m = _heisenberg_z(q)
    for j, (k, (two_beta, turn, psi)) in enumerate(zip(live, kicks)):
        grid, span, lattice = grids[k], rows[k][5], phases[j].size - 1
        values = np.empty(grid.size)
        step = _CHUNK // lattice * lattice if lattice else _CHUNK
        for lo in range(0, grid.size, step):
            hi = min(lo + step, grid.size)
            if lattice:
                n = np.arange(lo // lattice, -(-hi // lattice), dtype=float)[:, None]
                mj = m[:, j, :lattice]
            else:
                n = np.floor(grid[lo:hi] / span)
                mj = _heisenberg_z(_phase_propagators(drives[j], table, grid[lo:hi] - n * span))
            parts, ang = sum(turn[:, i, None] * mj[i] for i in range(3)), n * two_beta
            values[lo:hi] = (parts[0] + np.cos(ang) * parts[1] + np.sin(ang) * parts[2]).ravel()[: hi - lo]
        final = gauge_factor(t_ends[k], ps[k]).apply(_unitary(*(a[j, lattice] for a in q)).apply(psi))
        out[k] = TimeSeries(times=grid, values=values, method="numeric[floquet]", params=ps[k]), final
    return out


def _check_run(t_end: float, tol: float) -> None:
    if not t_end / _MAGNUS_MAX_SUBSTEPS > 0.0:  # the finest Magnus substep
        raise ValueError(f"t_end must be > 0, and t_end / 2^17 too, got {t_end!r}")
    if not _TOL_RANGE[0] <= tol <= _TOL_RANGE[1]:
        raise ValueError(f"tol {tol!r} outside supported range {_TOL_RANGE}")


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
    When sample_dt divides the span, each of its phases costs one partial
    Magnus step and every sample one dot product (_evolve_drives); other
    grids cost a step per sample, in chunks of fixed size. Beyond the
    output arrays memory does not grow with the horizon. The final state is
    the lab-frame state at t_end. norm_drift is 0.0: every propagator is an
    exact SU(2) product, so there is no norm to restore.

    It is the batched engine of resonance_sweep on one drive, with float
    drive values and 1-D arrays; a drive's output is the same in a batch.
    """
    _check_run(t_end, tol)
    run = _evolve_drives([p], init, [t_end], [sample_dt], tol)[0]
    if isinstance(run, StiffnessError):
        raise run
    return run


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
    if not np.all(np.abs(steps - dt) <= 1e-9 * dt):
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


def _numeric_amplitudes(points: Sequence[DriveParams], tol: float, t_end: Optional[float]) -> list:
    """The numeric amplitude of each point from |+>, or the exception it raised.

    The horizon is t_end, or 1.5 slow periods (with a frequency floor so
    off-resonance points stay cheap). Consecutive points run as one
    _evolve_drives batch while their grids hold at most _BATCH_ROWS
    samples in all (a longer grid runs alone), which bounds its memory.
    """
    out: list = [None] * len(points)
    batches, rows = [[]], 0
    for k, p in enumerate(points):
        try:
            horizon = t_end if t_end is not None else (
                1.5 * TWO_PI / max(abs(analytic.omega_ms(p)), OMEGA_FLOOR)
            )
            _check_run(horizon, tol)
            n = _sample_count(horizon, default_sample_dt(p))
        except Exception as exc:
            out[k] = exc
            continue
        if batches[-1] and rows + n > _BATCH_ROWS:
            batches.append([])
            rows = 0
        batches[-1].append((k, horizon))
        rows += n
    for ks, horizons in (zip(*batch) for batch in batches if batch):
        ps = [points[k] for k in ks]
        runs = _evolve_drives(ps, Spinor.plus(), horizons, [None] * len(ps), tol)
        for k, p, run in zip(ks, ps, runs):
            if isinstance(run, StiffnessError):
                out[k] = run
                continue
            try:
                out[k] = extract_amplitude(hf_average(run[0], p), p)
            except Exception as exc:
                out[k] = exc
    return out


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
    point from |+> (_numeric_amplitudes), all points through one batched
    run of evolve_floquet's engine, each with the output it would have
    alone. The points share r and phi_hf, hence one set of slow constants
    (analytic._drive). Closed-form failures are reported first, then the
    numeric ones in grid order; a failure fails its own point only.
    on_error = "raise" raises the first of them; "collect" records NaN
    and continues. A t_end no point can run raises ValueError first.
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
    if t_end is not None:  # a horizon no point can run is a usage error
        if not t_end / _MAGNUS_MAX_SUBSTEPS > 0.0:
            raise ValueError(f"t_end must be > 0, and t_end / 2^17 too, got {t_end!r}")
        _sample_count(t_end, default_sample_dt(p_template))

    points = [
        DriveParams(
            omega_perp=p_template.omega_perp, omega_par=w,
            Omega_HF=p_template.Omega_HF, r=p_template.r, phi_hf=p_template.phi_hf,
        )
        for w in grid
    ]
    failures: list[tuple[float, str, str]] = []

    def settle(w: float, name: str, value):
        if not isinstance(value, Exception):
            return value
        if on_error == "raise":
            raise SweepPointError(w, value) from value
        failures.append((w, name, str(value)))
        return math.nan

    def closed(name: str, p: DriveParams):
        try:
            return analytic.amplitude_closed(analytic.MethodId(name), p)
        except Exception as exc:
            return exc

    columns: dict[str, list[float]] = {}
    # closed forms first, so their failures are reported before numeric ones
    for name in methods:
        if name != "numeric":
            columns[name] = [settle(w, name, closed(name, p)) for p, w in zip(points, grid)]
    if "numeric" in methods:
        amps = _numeric_amplitudes(points, tol, t_end)
        columns["numeric"] = [settle(w, "numeric", a) for w, a in zip(grid, amps)]

    return SweepResult(
        omega_par_grid=np.array(grid),
        amplitudes={name: np.array(columns[name]) for name in methods},
        params=p_template, failures=tuple(failures),
    )
