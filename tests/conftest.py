import math

import numpy as np
import pytest

from triplecompton.constants import ELECTRON_MASS_MEV as M
from triplecompton.kinematics import CollisionSetup, _close_arrays

MGBR_THETAS = (math.pi / 2, math.pi / 2, math.pi / 2)
MGBR_PHIS = (2 * math.pi / 3, 4 * math.pi / 3, 0.0)
XFEL_THETAS = (math.pi - 1.5e-3,) * 3
XFEL_PHIS = (2 * math.pi / 3, 4 * math.pi / 3, 0.0)


def unit_direction(theta, phi):
    """(1, n) for the unit direction n at (theta, phi)."""
    st = math.sin(theta)
    return np.array([1.0, st * math.cos(phi), st * math.sin(phi),
                     math.cos(theta)])


@pytest.fixture(scope="session")
def rest_setup():
    return CollisionSetup.rest_frame(0.662)


@pytest.fixture(scope="session")
def xfel_setup():
    return CollisionSetup(5000.0, 0.001)


def close_point(setup, thetas, phis, omega1, omega2):
    """kinematics._close_arrays at one triple-photon point: (photons, p_f,
    omega3, K, physical), photons a tuple of three (4,) momenta."""
    w3, k, p_f, kfac, physical = _close_arrays(
        setup, np.array(thetas, float)[:, None],
        np.array(phis, float)[:, None], np.array([[omega1], [omega2]], float))
    return tuple(k[:, 0]), p_f[0], float(w3[0]), float(kfac[0]), \
        bool(physical[0])


def random_physical_configs(setup, rng, n, omega_lo_frac=0.02,
                            omega_hi_frac=0.45):
    """Rejection-sample physical triple-photon configurations as pairs
    ((thetas, phis, omega1, omega2), (photons, p_f, omega3, K)), the second
    from :func:`close_point`.

    For a relativistic incoming electron, hard photons only live in the
    backscatter cone of opening ~ m/E_i, so angles are drawn there.
    """
    boosted = setup.e_i_mev / M > 100.0
    out = []
    wmax = setup.omega_max
    while len(out) < n:
        if boosted:
            deltas = (M / setup.e_i_mev) * rng.uniform(0.3, 20.0, 3)
            thetas = tuple(math.pi - deltas)
        else:
            thetas = tuple(np.arccos(rng.uniform(-1, 1, 3)))
        phis = tuple(rng.uniform(0, 2 * math.pi, 3))
        w1, w2 = rng.uniform(omega_lo_frac * wmax, omega_hi_frac * wmax, 2)
        *closed, physical = close_point(setup, thetas, phis, w1, w2)
        if physical:
            out.append(((thetas, phis, w1, w2), tuple(closed)))
    return out
