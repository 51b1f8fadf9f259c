import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from triplecompton import algebra as al
from triplecompton.amplitude import outgoing_basis_arrays
from triplecompton.constants import ELECTRON_MASS_MEV as M
from triplecompton.kinematics import CollisionSetup, _close_arrays
from conftest import unit_direction

finite = st.floats(-50.0, 50.0, allow_nan=False)


def test_minkowski_dot_examples():
    null = np.array([1, 0, 0, 1])
    assert al.minkowski_dot(null, null) == 0.0
    rest = np.array([M, 0, 0, 0])
    photon = np.array([0.662, 0, 0, 0.662])
    assert al.minkowski_dot(rest, photon) == pytest.approx(M * 0.662, rel=1e-15)
    a = np.array([5, 1, 2, 3])
    b = np.array([4, 3, 2, 1])
    assert al.minkowski_dot(a, b) == 10.0


def test_gamma_anticommutator():
    metric = np.diag([1.0, -1.0, -1.0, -1.0])
    for mu in range(4):
        for nu in range(4):
            anti = al.GAMMA[mu] @ al.GAMMA[nu] + al.GAMMA[nu] @ al.GAMMA[mu]
            assert np.abs(anti - 2 * metric[mu, nu] * np.eye(4)).max() < 1e-12


def test_slash_clifford_identity():
    a = np.array([2, 1, 0, 0])
    sq = al.slash_batch(a) @ al.slash_batch(a)
    assert np.abs(sq - 3.0 * np.eye(4)).max() < 1e-12
    null = np.array([1, 0, 0, 1])
    assert np.abs(al.slash_batch(null) @ al.slash_batch(null)).max() < 1e-14


def test_slash_matches_gamma_contraction():
    # the written-out entries are a_mu gamma^mu summed over the stack,
    # exactly, for real and complex four-vectors of any batch shape
    rng = np.random.default_rng(8)
    a = rng.normal(size=(3, 5, 4)) * 100.0
    for vec in (a, a + 1j * rng.normal(size=a.shape), a[0, 0]):
        expected = np.einsum('...k,kab->...ab',
                             vec * np.array([1.0, -1.0, -1.0, -1.0]),
                             al.GAMMA)
        assert np.array_equal(al.slash_batch(vec), expected)


@settings(max_examples=50, deadline=None)
@given(finite, finite, finite, finite, finite, finite, finite, finite)
def test_slash_anticommutator_random(at, ax, ay, az, bt, bx, by, bz):
    a = np.array([at, ax, ay, az])
    b = np.array([bt, bx, by, bz])
    lhs = (al.slash_batch(a) @ al.slash_batch(b)
           + al.slash_batch(b) @ al.slash_batch(a))
    rhs = 2.0 * al.minkowski_dot(a, b) * np.eye(4)
    assert np.abs(lhs - rhs).max() <= 1e-10 * max(1.0, abs(al.minkowski_dot(a, b)))


def _onshell(e, ct, phi, mass=M):
    p = math.sqrt((e - mass) * (e + mass))
    stheta = math.sqrt(1 - ct * ct)
    return np.array([e, p * stheta * math.cos(phi),
                     p * stheta * math.sin(phi), p * ct])


def test_rest_frame_spinor():
    p = np.array([M, 0, 0, 0])
    u = al.dirac_spinor_batch(p)[:, 0]
    ubar = al.dirac_spinor_bar_batch(p)[0]
    assert np.allclose(u, [1, 0, 0, 0])
    assert (ubar @ u).real == pytest.approx(1.0)


def test_spinor_orthonormality_and_density():
    p = np.array([5000.0, 0, 0, -math.sqrt(5000.0 ** 2 - M * M)])
    cols = al.dirac_spinor_batch(p)
    bars = al.dirac_spinor_bar_batch(p)
    u1, u2 = cols[:, 0], cols[:, 1]
    assert abs(bars[0] @ u2) < 1e-12
    assert (bars[0] @ u1).real == pytest.approx(1.0, rel=1e-10)
    # u+ u = E/m, checked against the explicit component formula
    norm = (u1.conj() @ u1).real
    assert norm == pytest.approx(p[0] / M, rel=1e-12)
    e_plus_m = p[0] + M
    explicit = math.sqrt(e_plus_m / (2 * M)) * np.array(
        [1, 0, p[3] / e_plus_m, 0])
    assert np.allclose(u1, explicit, atol=1e-12)


def test_dirac_equation():
    p = _onshell(3.5, 0.3, 1.1)
    cols = al.dirac_spinor_batch(p)
    for r in (1, 2):
        resid = (al.slash_batch(p) - M * np.eye(4)) @ cols[:, r - 1]
        assert np.abs(resid).max() < 1e-10 * p[0]


def test_off_shell_rejected():
    with pytest.raises(al.OffShellError):
        al.check_on_shell(np.array([5.0, 0, 0, 1.0]))


@settings(max_examples=40, deadline=None)
@given(st.floats(M * (1 + 1e-9), 10000.0), st.floats(-1, 1),
       st.floats(0, 2 * math.pi))
def test_spinor_completeness(e, ct, phi):
    p = _onshell(e, ct, phi)
    total = np.zeros((4, 4), complex)
    cols = al.dirac_spinor_batch(p)
    bars = al.dirac_spinor_bar_batch(p)
    for r in (1, 2):
        total += np.outer(cols[:, r - 1], bars[r - 1])
    expected = (al.slash_batch(p) + M * np.eye(4)) / (2 * M)
    assert np.abs(total - expected).max() <= 1e-10 * np.abs(expected).max()


def _propagator(q):
    return (al.slash_batch(q) + M * np.eye(4)) / al.propagator_denominator(q)


def test_propagator_examples():
    q = np.array([2 * M, 0, 0, 0])
    mat = _propagator(q)
    assert np.allclose(mat, (al.slash_batch(q) + M * np.eye(4)) / (3 * M * M))
    # numerator/denominator consistency via the Clifford identity
    q2 = np.array([3.0, 1.0, 1.0, 1.0])
    lhs = ((al.slash_batch(q2) + M * np.eye(4))
           @ (al.slash_batch(q2) - M * np.eye(4)))
    assert np.allclose(lhs, (al.minkowski_dot(q2, q2) - M * M) * np.eye(4),
                       atol=1e-12)


def test_propagator_pole_guard():
    almost_on_shell = np.array([M * (1 + 1e-16), 0, 0, 0])
    with pytest.raises(al.PropagatorPoleError):
        al.propagator_denominator(almost_on_shell)


def _basis(theta, phi):
    """Rows eps^1, eps^2 of the outgoing polarization basis, (2, 4)."""
    return outgoing_basis_arrays(np.asarray(theta), np.asarray(phi))


def test_polarization_basis_examples():
    pair = _basis(0.0, 0.0)
    assert np.allclose(pair[0, 1:], [1, 0, 0])
    assert np.allclose(pair[1, 1:], [0, 1, 0])
    pair = _basis(math.pi / 2, 0.0)
    assert np.allclose(pair[0, 1:], [0, 0, -1], atol=1e-15)
    assert np.allclose(pair[1, 1:], [0, 1, 0], atol=1e-15)


@settings(max_examples=50, deadline=None)
@given(st.floats(0, math.pi), st.floats(0, 2 * math.pi))
def test_polarization_orthonormal_triad(theta, phi):
    pair = _basis(theta, phi)
    n = unit_direction(theta, phi)[1:]
    e1, e2 = pair[0, 1:], pair[1, 1:]
    assert abs(np.dot(e1, e1) - 1) < 1e-12
    assert abs(np.dot(e2, e2) - 1) < 1e-12
    assert abs(np.dot(e1, e2)) < 1e-12
    assert abs(np.dot(e1, n)) < 1e-12
    assert abs(np.dot(e2, n)) < 1e-12
    cross = np.cross(e1, e2)
    assert min(np.abs(cross - n).max(), np.abs(cross + n).max()) < 1e-12


@settings(max_examples=30, deadline=None)
@given(st.floats(1e-3, 1e4), st.floats(0, math.pi), st.floats(0, 2 * math.pi))
def test_photon_momentum_null_and_transverse(omega, theta, phi):
    # the closure builds the momentum of a photon whose energy is given
    _, k, _, _, _, _ = _close_arrays(
        CollisionSetup.rest_frame(0.662), np.array([[theta], [1.0]]),
        np.array([[phi], [0.0]]), np.array([[omega]]))
    k = k[0, 0]
    assert abs(al.minkowski_dot(k, k)) <= 1e-9 * omega * omega
    for eps in _basis(theta, phi):
        assert abs(al.minkowski_dot(eps, k)) <= 1e-12 * omega


def test_batched_matches_scalar():
    # each stacked entry against the explicit single-vector formulas
    rng = np.random.default_rng(3)
    vecs = rng.normal(size=(6, 4))
    stacked = al.slash_batch(vecs)
    for i, (t, x, y, z) in enumerate(vecs):
        explicit = t * al.GAMMA0 - x * al.GAMMA1 - y * al.GAMMA2 - z * al.GAMMA3
        assert np.allclose(stacked[i], explicit)
    p = _onshell(7.0, -0.4, 2.0)
    cols = al.dirac_spinor_batch(np.stack([p, p]))
    bars = al.dirac_spinor_bar_batch(np.stack([p, p]))
    e_plus_m = p[0] + M
    norm = math.sqrt(e_plus_m / (2 * M))
    explicit = norm * np.array(
        [[1, 0, p[3] / e_plus_m, (p[1] + 1j * p[2]) / e_plus_m],
         [0, 1, (p[1] - 1j * p[2]) / e_plus_m, -p[3] / e_plus_m]])
    for r in (1, 2):
        for i in range(2):
            assert np.allclose(cols[i, :, r - 1], explicit[r - 1])
            assert np.allclose(bars[i, r - 1],
                               explicit[r - 1].conj() @ al.GAMMA0)
