import cmath
import math

import numpy as np
import pytest

from spinhf.su2 import (
    IDENTITY,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    NonHermitianError,
    PauliOperator,
    Spinor,
    Vec3,
    pauli_exponential,
)


def expm_oracle(m: np.ndarray) -> np.ndarray:
    """Scaling-and-squaring Taylor exponential, independent of the closed form."""
    k = max(0, int(math.ceil(math.log2(max(1e-30, np.abs(m).max())))) + 4)
    a = m / (2.0 ** k)
    total = np.eye(2, dtype=complex)
    term = np.eye(2, dtype=complex)
    for n in range(1, 40):
        term = term @ a / n
        total = total + term
        if np.abs(term).max() < 1e-20:
            break
    for _ in range(k):
        total = total @ total
    return total


def random_hermitian(rng) -> PauliOperator:
    s = rng.uniform(-2, 2)
    v = Vec3(*rng.uniform(-3, 3, size=3))
    return PauliOperator.hermitian(s, v)


def test_pauli_multiplication_table():
    assert SIGMA_X @ SIGMA_Y == PauliOperator(0j, 0j, 0j, 1j)
    assert SIGMA_Y @ SIGMA_Z == PauliOperator(0j, 1j, 0j, 0j)
    assert SIGMA_Z @ SIGMA_X == PauliOperator(0j, 0j, 1j, 0j)
    for s in (SIGMA_X, SIGMA_Y, SIGMA_Z):
        assert (s @ s) == IDENTITY


def test_product_matches_matrix_product():
    rng = np.random.default_rng(7)
    for _ in range(50):
        a = PauliOperator(*(rng.normal(size=4) + 1j * rng.normal(size=4)))
        b = PauliOperator(*(rng.normal(size=4) + 1j * rng.normal(size=4)))
        lhs = (a @ b).to_matrix()
        rhs = a.to_matrix() @ b.to_matrix()
        assert np.abs(lhs - rhs).max() < 1e-12


def test_adjoint_and_hermiticity():
    rng = np.random.default_rng(8)
    a = PauliOperator(*(rng.normal(size=4) + 1j * rng.normal(size=4)))
    assert np.abs(a.adjoint().to_matrix() - a.to_matrix().conj().T).max() < 1e-15
    h = random_hermitian(rng)
    assert h.is_hermitian()
    assert not (1j * SIGMA_X).is_hermitian()
    with pytest.raises(NonHermitianError):
        (1j * SIGMA_X).real_vector()


def test_exponential_against_expm_oracle():
    rng = np.random.default_rng(9)
    for _ in range(100):
        h = random_hermitian(rng)
        t = rng.uniform(-5, 5)
        got = pauli_exponential(h, t).to_matrix()
        want = expm_oracle(-1j * t * h.to_matrix())
        assert np.abs(got - want).max() < 1e-12


def test_exponential_group_property():
    rng = np.random.default_rng(10)
    for _ in range(20):
        h = random_hermitian(rng)
        t1, t2 = rng.uniform(-3, 3, size=2)
        lhs = pauli_exponential(h, t1 + t2)
        rhs = pauli_exponential(h, t1) @ pauli_exponential(h, t2)
        assert (lhs - rhs).max_abs() < 1e-13


def test_exponential_unitarity():
    rng = np.random.default_rng(11)
    for _ in range(20):
        u = pauli_exponential(random_hermitian(rng), rng.uniform(-10, 10))
        assert (u @ u.adjoint() - IDENTITY).max_abs() < 1e-13


def test_exponential_rejects_non_hermitian():
    with pytest.raises(NonHermitianError):
        pauli_exponential(PauliOperator(0j, 1j, 0j, 0j), 1.0)


def test_full_period_gives_minus_identity():
    # generator -sz/2 has eigenfrequencies +-1/2; a 2*pi turn flips the sign
    h = PauliOperator.hermitian(0.0, Vec3(0.0, 0.0, -0.5))
    u = pauli_exponential(h, 2.0 * math.pi)
    assert (u - (-1.0) * IDENTITY).max_abs() < 1e-12


def test_scalar_only_generator_is_pure_phase():
    u = pauli_exponential(PauliOperator.hermitian(0.7, Vec3(0, 0, 0)), 2.0)
    assert abs(u.s - cmath.exp(-1.4j)) < 1e-15
    assert abs(u.vx) + abs(u.vy) + abs(u.vz) == 0.0


def test_transverse_flip_expectation():
    # -1.5 sx generator drives |+> to |-> in t = pi/3
    h = PauliOperator.hermitian(0.0, Vec3(-1.5, 0.0, 0.0))
    u = pauli_exponential(h, math.pi / 3.0)
    psi = u.apply(Spinor.plus())
    assert abs(psi.bloch().z - (-1.0)) < 1e-12


def test_commutator_basics():
    # [a, b] = a b - b a from the Pauli product: 2i (v_a x v_b).sigma
    assert SIGMA_X @ SIGMA_Y - SIGMA_Y @ SIGMA_X == PauliOperator(0j, 0j, 0j, 2j)
    rng = np.random.default_rng(12)
    a, b = random_hermitian(rng), random_hermitian(rng)
    want = PauliOperator(0j, *(2j * x for x in a.real_vector().cross(b.real_vector()).as_tuple()))
    assert (a @ b - b @ a - want).max_abs() < 1e-12


def _rodrigues(a: Vec3, n: Vec3, angle: float) -> Vec3:
    # counterclockwise rotation of a about the unit axis n
    na = n.dot(a)
    return n * na + (a - n * na) * math.cos(angle) + n.cross(a) * math.sin(angle)


def test_exponential_conjugation_is_rotation():
    # spin rotation U = exp(-i angle n.sigma/2) acts as U (a.sigma) U^dag = (R a).sigma
    rng = np.random.default_rng(13)
    for _ in range(100):
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        n = Vec3(*axis)
        angle = rng.uniform(-2 * math.pi, 2 * math.pi)
        a = Vec3(*rng.uniform(-2, 2, size=3))
        u = pauli_exponential(PauliOperator.hermitian(0.0, n * 0.5), angle)
        conj = u @ PauliOperator.hermitian(0.0, a) @ u.adjoint()
        want = conj.real_vector(tol=1e-10)
        got = _rodrigues(a, n, angle)
        assert (got - want).norm() < 1e-10


def test_vec3_algebra():
    v = Vec3(1.0, 2.0, 3.0)
    w = Vec3(-1.0, 0.5, 2.0)
    assert (v + w).as_tuple() == (0.0, 2.5, 5.0)
    assert (v - w).as_tuple() == (2.0, 1.5, 1.0)
    assert v.dot(w) == 6.0
    assert v.cross(w).as_tuple() == (2.0 * 2.0 - 3.0 * 0.5, 3.0 * (-1.0) - 1.0 * 2.0, 0.5 + 2.0)
    assert (2.0 * v).as_tuple() == (2.0, 4.0, 6.0)
    with pytest.raises(ValueError):
        Vec3(math.nan, 0.0, 0.0)


def test_spinor_states():
    assert Spinor.plus().bloch().z == 1.0
    assert Spinor.minus().bloch().z == -1.0
    psi = Spinor.superposition(math.sqrt(0.5), 0.25)
    b = psi.bloch()
    assert abs(b.z) < 1e-15
    assert abs(b.x - math.cos(0.25)) < 1e-15
    assert abs(b.y - math.sin(0.25)) < 1e-15
    with pytest.raises(ValueError):
        Spinor.superposition(1.5, 0.0)
    with pytest.raises(ValueError):
        Spinor(1.0 + 0j, 1.0 + 0j)


def test_superposition_limits():
    assert Spinor.superposition(1.0, 0.7).up == 1.0 + 0j
    lo = Spinor.superposition(0.0, 0.7)
    assert abs(lo.down - cmath.exp(0.7j)) < 1e-15


def test_apply_preserves_norm_and_expectation_matches_matrix():
    rng = np.random.default_rng(15)
    h = random_hermitian(rng)
    u = pauli_exponential(h, 0.8)
    psi = Spinor.superposition(0.6, -1.1)
    out = u.apply(psi)
    assert abs(abs(out.up) ** 2 + abs(out.down) ** 2 - 1.0) < 1e-12
    vec = np.array([psi.up, psi.down])
    want = vec.conj() @ (h.to_matrix() @ vec)
    # <s + v.sigma> = s + v.b for the Bloch vector b
    assert abs(h.s + h.real_vector().dot(psi.bloch()) - want) < 1e-12


def test_max_abs_is_matrix_max():
    rng = np.random.default_rng(16)
    a = PauliOperator(*(rng.normal(size=4) + 1j * rng.normal(size=4)))
    assert abs(a.max_abs() - np.abs(a.to_matrix()).max()) < 1e-15
