import json
import math

import numpy as np
import pytest

from spinhf.analytic import MethodId, propagator
from spinhf.model import (
    TWO_PI,
    DriveParams,
    gauge_factor,
    hamiltonian_lab,
    hamiltonian_transformed,
    initial_gauge_factor,
    theta,
)
from spinhf.su2 import Spinor


def params(**kw):
    base = dict(omega_perp=3.0, omega_par=-1.0, Omega_HF=50.0, r=1.0, phi_hf=math.pi / 2)
    base.update(kw)
    return DriveParams(**base)


# --- Hamiltonians ----------------------------------------------------------

def test_lab_hamiltonian_at_zero():
    # cos(phi_hf) = 0 kills the HF term at t = 0
    h = hamiltonian_lab(0.0, params())
    assert h.s == 0.0
    assert abs(h.vx - (-1.5)) < 1e-12
    assert abs(h.vy) < 1e-12
    assert abs(h.vz - 0.5) < 1e-12


def test_lab_hamiltonian_hf_term():
    p = params(phi_hf=0.0)
    h = hamiltonian_lab(0.0, p)
    # full HF field at cos(0) = 1: -0.5 * (omega_par + r * Omega_HF)
    assert abs(h.vz - (-0.5 * (-1.0 + 50.0))) < 1e-12


def test_transformed_hamiltonian_value():
    p = params(phi_hf=0.0)
    h = hamiltonian_transformed(math.pi / 2, p)
    th = math.sin(math.pi / 2)  # r = 1
    assert abs(h.vx - (-1.5 * math.cos(th))) < 1e-12
    assert abs(h.vy - (-1.5 * math.sin(th))) < 1e-12
    assert abs(h.vz) < 1e-12  # omega_par = -1 cancels the static axial term


def test_transformed_hamiltonian_periodic():
    p = params(omega_par=0.3, r=2.0, phi_hf=1.1)
    rng = np.random.default_rng(7)
    for t0 in rng.uniform(-10.0, 10.0, size=20):
        a = hamiltonian_transformed(t0, p)
        b = hamiltonian_transformed(t0 + TWO_PI, p)
        assert (a @ b.adjoint() - a @ a.adjoint()).max_abs() < 1e-12
        assert abs(a.vx - b.vx) < 1e-12
        assert abs(a.vy - b.vy) < 1e-12
        assert abs(a.vz - b.vz) < 1e-12


def test_transformed_reduces_to_static_at_r0():
    p = params(r=0.0, omega_par=0.25)
    for t0 in (0.0, 1.0, 4.0):
        h = hamiltonian_transformed(t0, p)
        assert abs(h.vx - (-1.5)) < 1e-15
        assert abs(h.vy) < 1e-15
        assert abs(h.vz - (-0.5 * 1.25)) < 1e-15


def test_lab_hamiltonian_norm_bound():
    p = params(omega_par=0.7, r=1.4)
    bound = 0.5 * (abs(p.omega_perp) + abs(p.omega_par) + p.omega_hf) + 1e-12
    for t in np.linspace(0.0, 3.0, 50):
        assert hamiltonian_lab(float(t), p).max_abs() <= bound


# --- Gauge factors ---------------------------------------------------------

def test_gauge_factor_at_zero():
    # t - theta(t) = -1 at t = 0, so the factor is exp(+i sigma_z / 2)
    g = gauge_factor(0.0, params())
    m = g.to_matrix()
    assert abs(m[0, 0] - np.exp(0.5j)) < 1e-12
    assert abs(m[1, 1] - np.exp(-0.5j)) < 1e-12
    assert abs(m[0, 1]) < 1e-15
    assert abs(m[1, 0]) < 1e-15


def test_gauge_factor_cancels_initial_factor():
    p = params()
    prod = gauge_factor(0.0, p) @ initial_gauge_factor(p)
    assert abs(prod.s - 1.0) < 1e-12
    assert abs(prod.vx) < 1e-12 and abs(prod.vy) < 1e-12 and abs(prod.vz) < 1e-12


def test_gauge_factor_unitary():
    p = params(r=2.0, phi_hf=0.3)
    for t in (0.0, 0.7, 13.0, 400.0):
        g = gauge_factor(t, p)
        prod = g @ g.adjoint()
        assert abs(prod.s - 1.0) < 1e-12
        assert max(abs(prod.vx), abs(prod.vy), abs(prod.vz)) < 1e-12


def test_theta_definition():
    p = params(r=1.7, phi_hf=0.4)
    for t in (0.0, 0.1, 2.3):
        assert abs(theta(t, p) - 1.7 * math.sin(50.0 * t + 0.4)) < 1e-12


# --- Exact solution satisfies the lab equation of motion --------------------

def test_exact_propagator_solves_lab_equation():
    # central-difference residual of i dpsi/dt = H(t) psi at r = 0
    p = params(r=0.0, omega_par=0.0)
    init = Spinor.plus()
    dt = 1e-5
    for t in (0.3, 1.0, 2.7, 5.5):
        psi_m = propagator(MethodId.EXACT_R0, t - dt, p).apply(init)
        psi_p = propagator(MethodId.EXACT_R0, t + dt, p).apply(init)
        psi = propagator(MethodId.EXACT_R0, t, p).apply(init)
        dpsi = np.array([psi_p.up - psi_m.up, psi_p.down - psi_m.down]) / (2 * dt)
        h = hamiltonian_lab(t, p).to_matrix()
        resid = 1j * dpsi - h @ np.array([psi.up, psi.down])
        assert np.max(np.abs(resid)) < 1e-6


# --- Parameter validation and normalization ---------------------------------

def test_params_reject_nonpositive_hf_frequency():
    with pytest.raises(ValueError):
        params(Omega_HF=0.0)
    with pytest.raises(ValueError):
        params(Omega_HF=-3.0)
    # so small that the HF period 2 pi / Omega_HF overflows to inf
    with pytest.raises(ValueError, match="finite HF period"):
        params(Omega_HF=5e-324)


def test_params_reject_nonfinite():
    with pytest.raises(ValueError):
        params(omega_perp=math.nan)
    with pytest.raises(ValueError):
        params(r=math.inf)


def test_negative_r_folds_into_phase():
    p = DriveParams(omega_perp=3.0, omega_par=0.0, Omega_HF=50.0, r=-1.3, phi_hf=0.2)
    assert p.r == 1.3
    assert abs(p.phi_hf - (0.2 + math.pi)) < 1e-12
    # the physical angle is unchanged
    for t in (0.0, 0.01, 0.37):
        assert abs(theta(t, p) - (-1.3) * math.sin(50.0 * t + 0.2)) < 1e-12


def test_phase_reduced_to_principal_range():
    assert abs(params(phi_hf=-0.5).phi_hf - (TWO_PI - 0.5)) < 1e-12
    assert abs(params(phi_hf=7.0).phi_hf - (7.0 - TWO_PI)) < 1e-12
    assert params(phi_hf=0.0).phi_hf == 0.0


def test_derived_properties():
    p = params()
    assert p.epsilon == 1.0 / 50.0
    assert p.omega_hf == 50.0


def test_hf_regime_advisory():
    assert not params().hf_regime_advisory  # 50 >= 10 * 3
    assert params(Omega_HF=25.0).hf_regime_advisory  # 25 < 30
    assert params(omega_par=-6.0).hf_regime_advisory  # 50 < 60


def test_json_round_trip():
    p = params(omega_par=0.31, r=2.2, phi_hf=1.25)
    d = json.loads(json.dumps(p.to_json_dict()))
    assert DriveParams.from_json_dict(d) == p


def test_json_rejects_unknown_and_missing_keys():
    good = params().to_json_dict()
    bad = dict(good, extra=1.0)
    with pytest.raises(ValueError, match="unknown"):
        DriveParams.from_json_dict(bad)
    del good["omega_perp"]
    with pytest.raises(ValueError, match="missing"):
        DriveParams.from_json_dict(good)


def test_json_defaults_optional_fields():
    p = DriveParams.from_json_dict({"omega_perp": 1.0, "omega_par": 0.0, "Omega_HF": 40.0})
    assert p.r == 0.0 and p.phi_hf == 0.0
