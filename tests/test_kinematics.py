import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from triplecompton import algebra as al
from triplecompton.constants import ELECTRON_MASS_MEV as M
from triplecompton.cross_section import sigma5, spin_summed_sigma5
from triplecompton.kinematics import (CollisionSetup, _close_arrays,
                                      close_batch)
from conftest import (MGBR_PHIS, MGBR_THETAS, XFEL_PHIS, XFEL_THETAS,
                      close_point, random_physical_configs, unit_direction)


def compton_line(omega0, theta):
    return M * omega0 / (M + omega0 * (1 - math.cos(theta)))


def _compton_omega(setup, theta, phi):
    """Closure with one emitted photon (n_out = 1): its energy."""
    w, _, _, _, _ = _close_arrays(setup, np.array([[theta]]),
                                  np.array([[phi]]), np.zeros((0, 1)))
    return w[0]


def _omega3(setup, thetas, phis, w1, w2):
    """Derived third-photon energy with the physical flag."""
    w3, _, _, _, physical = close_batch(
        setup, np.array(thetas, float)[:, None],
        np.array(phis, float)[:, None], np.array([w1]), np.array([w2]))
    return w3[0], physical[0]


def test_omega3_single_compton_line(rest_setup):
    # with no other photons the closure is the one-photon scattering formula
    for theta in (0.3, math.pi / 2, 2.7):
        assert _compton_omega(rest_setup, theta, 0.4) == pytest.approx(
            compton_line(0.662, theta), rel=1e-12)
    assert _compton_omega(rest_setup, math.pi / 2, 0.0) == pytest.approx(
        0.28839, abs=5e-6)


def test_omega3_vanishing_beam_energy():
    setup = CollisionSetup.rest_frame(1e-12)
    w3 = _compton_omega(setup, 1.0, 0.0)
    assert abs(w3) < 1e-11


def _solve_omega3_bisect(setup, k1, k2, n3):
    """Independent oracle: root of (p_i + k_0 - k1 - k2 - w n3)^2 - m^2."""
    def resid(w):
        p_f = setup.p_i + setup.k_0 - k1 - k2 - w * n3
        return al.minkowski_dot(p_f, p_f) - M ** 2

    lo, hi = 0.0, 2.0 * setup.omega_max
    f_lo = resid(lo)
    assert f_lo * resid(hi) < 0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if resid(mid) * f_lo <= 0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def test_omega3_against_root_finder(rest_setup):
    k1 = 0.1 * unit_direction(MGBR_THETAS[0], MGBR_PHIS[0])
    k2 = 0.1 * unit_direction(MGBR_THETAS[1], MGBR_PHIS[1])
    n3 = unit_direction(MGBR_THETAS[2], MGBR_PHIS[2])
    direct, _ = _omega3(rest_setup, MGBR_THETAS, MGBR_PHIS, 0.1, 0.1)
    assert direct == pytest.approx(
        _solve_omega3_bisect(rest_setup, k1, k2, n3), rel=1e-10)


@settings(max_examples=30, deadline=None)
@given(st.floats(0.2, 3.0), st.floats(0, 6.28), st.floats(0.2, 3.0),
       st.floats(0, 6.28), st.floats(0.01, 0.2), st.floats(0.01, 0.2))
def test_omega3_symmetric_in_first_two_photons(t1, p1, t2, p2, w1, w2):
    setup = CollisionSetup.rest_frame(0.662)
    w3, _ = _omega3(setup, (t1, t2, 1.234), (p1, p2, 0.777), w1, w2)
    swapped, _ = _omega3(setup, (t2, t1, 1.234), (p2, p1, 0.777), w2, w1)
    # the two summation orders agree to ~1 ulp of the beam energy, which is
    # far more than 1e-13 relative where w3 nearly vanishes
    assert w3 == pytest.approx(swapped, rel=1e-13, abs=1e-14 * 0.662)


def test_omega3_degenerate_direction():
    # the denominator m + 2 omega0 - 2(w1 + w2) vanishes for forward prior
    # photons against a backward n_3; physically unreachable, so the closure
    # reads the degenerate marker w3 = -1 and flags it unphysical
    setup = CollisionSetup.rest_frame(0.662)
    w_half = 0.5 * (M / 2 + 0.662)
    w3, physical = _omega3(setup, (0.0, 0.0, math.pi), (0.0, 0.0, 0.0),
                           w_half, w_half)
    assert w3 == -1.0
    assert not physical


def test_closure_conservation(rest_setup):
    rng = np.random.default_rng(11)
    for _, (photons, p_f, _, _) in random_physical_configs(rest_setup, rng,
                                                           25):
        total = rest_setup.p_i + rest_setup.k_0 - p_f - sum(photons)
        scale = rest_setup.e_i_mev + rest_setup.omega0_mev
        assert np.abs(total).max() <= 1e-9 * scale
        p_f2 = al.minkowski_dot(p_f, p_f)
        assert abs(p_f2 - M * M) <= 1e-9 * M * M
        assert p_f[0] >= M


def test_closure_xfel_precision(xfel_setup):
    rng = np.random.default_rng(12)
    cfgs = random_physical_configs(xfel_setup, rng, 10, omega_lo_frac=0.05,
                                   omega_hi_frac=0.3)
    for _, (photons, p_f, _, _) in cfgs:
        scale = xfel_setup.e_i_mev + xfel_setup.omega0_mev
        total = xfel_setup.p_i + xfel_setup.k_0 - p_f - sum(photons)
        assert np.abs(total).max() <= 1e-9 * scale
        # a float four-vector with GeV components carries ~2 E^2 eps of
        # intrinsic mass-shell ambiguity; allow that measurement floor
        floor = 64 * np.finfo(float).eps * p_f[0] ** 2
        p_f2 = al.minkowski_dot(p_f, p_f)
        assert abs(p_f2 - M * M) <= 1e-9 * M * M + floor


def test_overspent_energy_is_unphysical(rest_setup):
    # moderately overspent: the derived energy goes negative
    _, _, omega3, _, physical = close_point(rest_setup, MGBR_THETAS,
                                            MGBR_PHIS, 0.32, 0.32)
    assert not physical
    assert omega3 <= 0
    # grossly overspent: the closure lands on the unphysical branch where
    # the derived energy is positive again but the electron is below mass
    _, p_f, omega3, _, physical = close_point(rest_setup, MGBR_THETAS,
                                              MGBR_PHIS, 0.40, 0.40)
    assert not physical
    assert omega3 <= 0 or p_f[0] < M


def test_recoil_factor_is_closure_derivative(rest_setup):
    rng = np.random.default_rng(5)
    for point, closed in random_physical_configs(rest_setup, rng, 10):
        (thetas, phis, _, _), (photons, _, omega3, kfac) = point, closed
        n3 = unit_direction(thetas[2], phis[2])[1:]
        p_vec = (rest_setup.p_i + rest_setup.k_0 - photons[0]
                 - photons[1])[1:]

        def closure_energy(w):
            pf = p_vec - w * n3
            return math.sqrt(M * M + float(pf @ pf)) + w

        h = 1e-6 * omega3
        derivative = (closure_energy(omega3 + h)
                      - closure_energy(omega3 - h)) / (2 * h)
        assert kfac == pytest.approx(derivative, rel=1e-6)


def test_setup_validation():
    with pytest.raises(ValueError):
        CollisionSetup(0.1, 0.662)
    with pytest.raises(ValueError):
        CollisionSetup(M, -1.0)
    for bad in (math.nan, math.inf):
        for energies in ((bad, 0.662), (M, bad)):
            with pytest.raises(ValueError, match="finite"):
                CollisionSetup(*energies)


def test_final_state_labels_validated():
    # a fractional label such as 1.0 equals 1 but is no index, and label 0
    # would index the last basis vector
    setup = CollisionSetup.rest_frame(0.662)
    point = ((1.2, 2.0, 0.9), (0.4, 2.5, 4.4), 0.1, 0.15)
    for labels in (dict(final_pols=(1, 3, 1)), dict(r_i=0), dict(r_f=2.5),
                   dict(final_pols=(1.0, 1, 1)), dict(r_i=2.0),
                   dict(final_pols=(True, 1, 1)), dict(r_f=np.True_)):
        with pytest.raises(ValueError, match="labels must be 1 or 2"):
            sigma5(setup, *point, **labels)
    assert sigma5(setup, *point, final_pols=(np.int64(2), 1, 1),
                  r_f=np.int32(2)) == sigma5(setup, *point,
                                             final_pols=(2, 1, 1), r_f=2)
    for final_pols in ((0, 1, 1), (1, 3, 1), (1.0, 1, 1), (True, 1, 1)):
        with pytest.raises(ValueError):
            spin_summed_sigma5(setup, (1.2, 2.0, 0.9), (0.4, 2.5, 4.4),
                               0.1, 0.15, final_pols=final_pols)


def test_omega_max_rest_frame(rest_setup):
    # forward-emitted photon keeps the full beam energy in the rest frame
    assert rest_setup.omega_max == pytest.approx(0.662, rel=1e-12)


@pytest.mark.parametrize("setup", [
    CollisionSetup.rest_frame(0.662),
    # a slow electron, |p_i| < omega0: the ceiling is at theta = 0, where
    # omega_max used to take the theta = pi denominator (0.2335 MeV)
    CollisionSetup(0.52, 0.662),
    CollisionSetup(0.6, 0.2),
    CollisionSetup(5000.0, 0.001),
], ids=["rest", "slow", "moving", "collider"])
def test_omega_max_is_closure_maximum(setup):
    # the largest one-photon closure energy over a fine theta scan
    theta = np.linspace(0.0, math.pi, 200_001)[None, :]
    w, _, _, _, _ = _close_arrays(setup, theta, np.zeros_like(theta),
                                  np.zeros((0, theta.shape[1])))
    assert setup.omega_max == pytest.approx(w.max(), rel=1e-12)


def _mp_closure(setup, thetas, phis, omegas_free):
    """(w_last, K, E_f) at one point in 40-digit arithmetic, straight from
    conservation: Q = p_i + k_0 - sum k_j, w_last = (Q^2 - m^2)/(2 n.Q),
    K = n.p_f / E_f with p_f = Q - w_last n."""
    with mp.workdps(40):
        m, e_i, w0 = (mp.mpf(x) for x in (M, setup.e_i_mev,
                                          setup.omega0_mev))
        q = [e_i + w0, mp.mpf(0), mp.mpf(0),
             w0 - mp.sqrt((e_i - m) * (e_i + m))]
        ns = [[mp.mpf(1), mp.sin(t) * mp.cos(f), mp.sin(t) * mp.sin(f),
               mp.cos(t)] for t, f in zip(map(mp.mpf, thetas),
                                          map(mp.mpf, phis))]
        for w, n in zip(omegas_free, ns):
            q = [a - mp.mpf(w) * b for a, b in zip(q, n)]
        n = ns[-1]
        dot = al.minkowski_dot
        w_last = (dot(q, q) - m * m) / (2 * dot(n, q))
        p_f = [a - w_last * b for a, b in zip(q, n)]
        return w_last, dot(n, p_f) / p_f[0], p_f[0]


def _closure_points(setup, n_out, seed):
    """24 sampled physical points (at the collider, angles in the
    backscatter cone); the collider's triple closure adds 20 physical cells
    of criterion 10's grid."""
    rng = np.random.default_rng(seed)
    count = 200
    if setup.e_i_mev > M:
        thetas = math.pi - (M / setup.e_i_mev) * rng.uniform(
            0.3, 20.0, (n_out, count))
    else:
        thetas = np.arccos(rng.uniform(-1, 1, (n_out, count)))
    phis = rng.uniform(0, 2 * math.pi, (n_out, count))
    omegas = rng.uniform(0.02, 0.45, (n_out - 1, count)) * setup.omega_max
    _, _, _, _, physical = _close_arrays(setup, thetas, phis, omegas)
    rows = np.nonzero(physical)[0][:24]
    assert rows.size == 24
    points = [(thetas[:, i], phis[:, i], omegas[:, i]) for i in rows]
    if n_out == 3 and setup.e_i_mev > M:
        grid = np.linspace(55.0, 1350.0, 48)
        w1m, w2m = np.meshgrid(grid, grid, indexing="ij")
        th = np.repeat(np.array(XFEL_THETAS)[:, None], w1m.size, axis=1)
        ph = np.repeat(np.array(XFEL_PHIS)[:, None], w1m.size, axis=1)
        _, _, _, _, physical = close_batch(setup, th, ph, w1m.ravel(),
                                           w2m.ravel())
        cells = np.nonzero(physical)[0]
        points += [(th[:, i], ph[:, i], (w1m.flat[i], w2m.flat[i]))
                   for i in cells[::cells.size // 20][:20]]
    return points


@pytest.mark.parametrize("n_out", [1, 2, 3])
@pytest.mark.parametrize("e_i", [M, 5000.0])
def test_closure_matches_high_precision(n_out, e_i):
    setup = CollisionSetup(e_i, 0.662 if e_i == M else 0.001)
    scale = setup.e_i_mev + setup.omega0_mev
    for thetas, phis, omegas in _closure_points(setup, n_out, 7 + n_out):
        w, _, _, kfac, physical = _close_arrays(
            setup, thetas[:, None], phis[:, None],
            np.reshape(omegas, (n_out - 1, 1)))
        w_mp, k_mp, e_f_mp = _mp_closure(setup, thetas, phis, omegas)
        assert physical[0]
        assert abs(w[0] / w_mp - 1) <= 1e-13
        # K = n.p_f / E_f.  The numerator is the closure denominator, built
        # without cancellation; E_f = E_i + omega0 - sum w is a difference,
        # good to a few ulps of the beam energy only, so K inherits
        # scale / E_f ulps where the electron keeps little energy.  At the
        # collider 1 - p_f.n / E_f is ~1e-10 off.
        assert abs(kfac[0] / k_mp - 1) <= 1e-14 * max(1.0, scale / e_f_mp)
