"""Lab-frame kinematics: scenario setups, the final-state closure with its
recoil Jacobian, and the threshold boundary.

The incoming photon travels along +z; a moving target electron travels along
-z (head-on collision).  With n_j = (1, unit direction) and k_j = w_j n_j,
the momentum left after photons j = 1..n leave P = p_i + k_0,
Q = P - sum k_j, has

    num = (Q^2 - m^2)/2 = p_i.k_0 - sum_j w_j n_j.P
                          + sum_{j<l} w_j w_l (1 - n_j.n_l),
    n_l.Q = n_l.P - sum_j w_j (1 - n_j.n_l),

so the last photon's energy is w_last = num/den with den = n_last.Q, and
since n_last.n_last = 0 the delta-function integration over w_last leaves
the Jacobian K = n_last.p_f / E_f = den / E_f.

Every term is evaluated in a cancellation-free form (half-angle identities,
m^2/(E+|p|) for E-|p|): at 10^4 Lorentz boosts den is within a few ulps of
a 40-digit closure, and K within E_f's own rounding (a few ulps of the beam
energy).  Four-momenta are float arrays (t, x, y, z) in MeV.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import ELECTRON_MASS_MEV as M


@dataclass(frozen=True)
class CollisionSetup:
    """Incoming electron (energy e_i_mev, along -z if moving) and photon
    (omega0_mev, along +z)."""

    e_i_mev: float
    omega0_mev: float

    def __post_init__(self):
        if not all(map(math.isfinite, (self.e_i_mev, self.omega0_mev))):
            raise ValueError("energies must be finite")
        if self.e_i_mev < M:
            raise ValueError(f"electron energy {self.e_i_mev} below mass")
        if self.omega0_mev <= 0:
            raise ValueError("incoming photon energy must be positive")

    @classmethod
    def rest_frame(cls, omega0_mev: float):
        return cls(M, omega0_mev)

    @property
    def p_abs(self) -> float:
        return math.sqrt((self.e_i_mev - M) * (self.e_i_mev + M))

    @property
    def p_i(self) -> np.ndarray:
        """Incoming electron four-momentum (t, x, y, z), a fresh array."""
        return np.array([self.e_i_mev, 0.0, 0.0, -self.p_abs])

    @property
    def k_0(self) -> np.ndarray:
        """Incoming photon four-momentum (t, x, y, z), a fresh array."""
        return np.array([self.omega0_mev, 0.0, 0.0, self.omega0_mev])

    @property
    def e_minus_p(self) -> float:
        """E_i - |p_i| evaluated without cancellation."""
        return M * M / (self.e_i_mev + self.p_abs)

    @property
    def flux(self) -> float:
        """Invariant flux factor p_i.k_0 = omega0 (E_i + |p_i|)."""
        return self.omega0_mev * (self.e_i_mev + self.p_abs)

    @property
    def s_invariant(self) -> float:
        return M * M + 2.0 * self.flux

    @property
    def omega_max(self) -> float:
        """Kinematic ceiling on any single emitted photon energy."""
        # smallest closure denominator E + w0 + (|p| - w0) cos(theta) over
        # directions: at theta = pi (along p_i) when |p| > w0, else at 0
        den = self.e_minus_p + 2.0 * self.omega0_mev \
            if self.p_abs > self.omega0_mev else self.e_i_mev + self.p_abs
        return self.flux / den


# ---------------------------------------------------------------------------
# batched closure on angle/energy arrays (shared by amplitudes & integrators)

def _one_minus_cos_angle(th_a, ph_a, th_b, ph_b):
    """1 - n_a.n_b for unit directions, free of cancellation:
    2 sin^2((ta-tb)/2) + 2 sin ta sin tb sin^2((pa-pb)/2)."""
    s1 = np.sin(0.5 * (th_a - th_b))
    s2 = np.sin(0.5 * (ph_a - ph_b))
    return 2.0 * s1 * s1 + 2.0 * np.sin(th_a) * np.sin(th_b) * s2 * s2


def _dot_p_n(setup, theta):
    """n.(p_i + k_0) = E_i + |p_i| cos(theta) + omega0 (1 - cos(theta)) for
    n = (1, unit(theta, .)), in half angles: stable near theta = pi, where
    E_i + |p_i| cos(theta) collapses to m^2/(E+|p|)."""
    c_half = np.cos(0.5 * theta)
    s_half = np.sin(0.5 * theta)
    return (setup.e_minus_p + 2.0 * setup.p_abs * c_half * c_half
            + 2.0 * setup.omega0_mev * s_half * s_half)


def _leave(setup, thetas, phis, omegas):
    """(num, dots) of the module docstring once the first len(omegas)
    photons have left: dots[l] = n_l.Q for each photon l still to leave.
    thetas, phis: (n_out, ...); omegas: one energy array per leaving photon,
    broadcasting against the angles."""
    along = _dot_p_n(setup, thetas)
    dots = list(along)
    num = setup.flux
    for j, wj in enumerate(omegas):
        num = num - wj * along[j]
        for l in range(j + 1, len(dots)):
            omc = _one_minus_cos_angle(thetas[j], phis[j], thetas[l], phis[l])
            if l < len(omegas):
                num = num + wj * omegas[l] * omc
            else:
                dots[l] = dots[l] - wj * omc
    return num, dots


def _close_arrays(setup, thetas, phis, omegas_free):
    """Vectorized closure for n_out photons, the last energy derived.

    thetas, phis: (n_out, N); omegas_free: (n_out - 1, N).
    Returns (w_last (N,), k (n_out, N, 4), p_f (N, 4), K (N,),
    physical (N,)).  K = den/E_f on physical points and 1.0 elsewhere.
    Points whose closure denominator vanishes (a physically unreachable
    direction) read w_last = -1 and physical False.  A non-finite angle or
    free energy, a negative free energy, phis not shaped like thetas, or
    omegas_free not holding (n_out - 1) * N values raises ValueError.
    """
    thetas = np.atleast_2d(np.asarray(thetas, float))
    phis = np.atleast_2d(np.asarray(phis, float))
    if phis.shape != thetas.shape:
        raise ValueError(f"phis shape {phis.shape} does not match thetas "
                         f"shape {thetas.shape}")
    n_out = thetas.shape[0]
    n_pts = thetas.shape[1]
    omegas_free = np.asarray(omegas_free, float)
    if omegas_free.size != (n_out - 1) * n_pts:
        raise ValueError(f"expected n_out - 1 = {n_out - 1} free photon "
                         f"energies per point, {(n_out - 1) * n_pts} values "
                         f"at {n_pts} point(s), got {omegas_free.size}")
    omegas_free = omegas_free.reshape(n_out - 1, n_pts)
    if not all(np.isfinite(v).all() for v in (thetas, phis, omegas_free)):
        raise ValueError("angles and free photon energies must be finite")
    if (omegas_free < 0.0).any():
        raise ValueError("free photon energies must not be negative")

    num, dots = _leave(setup, thetas, phis, omegas_free)
    den = dots[-1]
    scale = setup.e_i_mev + setup.omega0_mev
    degenerate = np.abs(den) < 1e-12 * scale
    w_last = np.divide(num, den, out=np.full(n_pts, -1.0), where=~degenerate)

    omegas = np.vstack([omegas_free, w_last[None, :]])
    st, ct = np.sin(thetas), np.cos(thetas)
    k = np.empty((n_out, n_pts, 4))
    k[..., 0] = omegas
    k[..., 1] = omegas * st * np.cos(phis)
    k[..., 2] = omegas * st * np.sin(phis)
    k[..., 3] = omegas * ct

    p_f = np.zeros((n_pts, 4))
    p_f[:, 0] = setup.e_i_mev + setup.omega0_mev - omegas.sum(axis=0)
    p_f[:, 3] = -setup.p_abs + setup.omega0_mev - k[..., 3].sum(axis=0)
    p_f[:, 1] = -k[..., 1].sum(axis=0)
    p_f[:, 2] = -k[..., 2].sum(axis=0)

    e_f = p_f[:, 0]
    physical = (~degenerate) & (w_last > 0.0) & (e_f >= M)
    kfac = np.divide(den, e_f, out=np.ones(n_pts), where=physical)
    return w_last, k, p_f, kfac, physical


def close_batch(setup, thetas, phis, omega1, omega2):
    """Triple-photon closure on arrays: thetas, phis (3, N); omega1/2 (N,)."""
    return _close_arrays(setup, thetas, phis,
                         np.stack([np.asarray(omega1, float),
                                   np.asarray(omega2, float)]))


def _check_directions(thetas, phis):
    """thetas and phis as float arrays; ValueError unless each holds three
    finite directions."""
    thetas = np.asarray(thetas, float)
    phis = np.asarray(phis, float)
    if thetas.shape != (3,) or phis.shape != (3,):
        raise ValueError(f"need three thetas and three phis, got shapes "
                         f"{thetas.shape} and {phis.shape}")
    if not (np.isfinite(thetas).all() and np.isfinite(phis).all()):
        raise ValueError("angles must be finite")
    return thetas, phis


def threshold_boundary(setup, thetas, phis, omega1_grid,
                       threshold_eps: float):
    """Points (omega1, omega2) where the derived photon energy falls through
    the threshold on the physical branch.

    At fixed angles and omega1 the closure is linear-fractional in omega2.
    Once photon 1 has left (:func:`_leave`), with a the closure numerator,
    b = n2.Q, c = n3.Q and d = 1 - n2.n3,

        w3 = (a - b w2) / (c - d w2),

    so w3 = eps has the single root w2* = (a - eps c) / (b - eps d), and
    dw3/dw2 has the sign of a d - b c.  A row keeps (omega1, w2*) when
    0 < w2* < setup.omega_max, w3 falls through eps there (a d - b c < 0)
    and the closed point is physical; the last test drops the unphysical
    continuation (E_f < m) on which w3 turns positive again.  Rows without
    such a root are left out.  Thetas or phis that are not three finite
    directions, a non-finite omega1 or a threshold that is not finite and
    non-negative raise ValueError.
    """
    th, ph = _check_directions(thetas, phis)
    w1 = np.asarray(omega1_grid, float)
    if not (np.isfinite(w1).all() and 0.0 <= threshold_eps < math.inf):
        raise ValueError("omega1 must be finite, and the threshold finite "
                         "and non-negative")
    a, (_, b, c) = _leave(setup, th, ph, [w1])
    d = _one_minus_cos_angle(th[1], ph[1], th[2], ph[2])
    with np.errstate(divide="ignore", invalid="ignore"):
        w2 = (a - threshold_eps * c) / (b - threshold_eps * d)
    rows = np.nonzero((w2 > 0.0) & (w2 < setup.omega_max)
                      & (a * d - b * c < 0.0))[0]
    _, _, _, _, physical = close_batch(
        setup, np.broadcast_to(th[:, None], (3, rows.size)),
        np.broadcast_to(ph[:, None], (3, rows.size)), w1[rows], w2[rows])
    return [(float(w1[i]), float(w2[i])) for i in rows[physical]]
