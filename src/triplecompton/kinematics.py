"""Lab-frame kinematics: scenario setups, final-state closure and the recoil
Jacobian.

The incoming photon travels along +z; a moving target electron travels along
-z (head-on collision).  The energy of the last emitted photon follows from
four-momentum conservation; for n prior emitted photons

    w_last = [p_i.(k_0 - sum k_j) - k_0.(sum k_j) + sum_{j<l} k_j.k_l]
             / [n_last.(p_i + k_0 - sum k_j)]

and the delta-function integration over w_last leaves the Jacobian factor

    K = 1 + (n_last.(sum k_j - k_0 - p_i)  (three-vectors)  + w_last) / E_f.

All pairwise Minkowski products are evaluated in cancellation-free forms
(half-angle identities, m^2/(E+|p|) for E-|p|) so that closure stays accurate
to ~1e-10 relative even at 10^4 Lorentz boosts.  Four-momenta are float
arrays (t, x, y, z) in MeV.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import check_labels
from .constants import ELECTRON_MASS_MEV


@dataclass(frozen=True)
class CollisionSetup:
    """Incoming electron (energy e_i_mev, along -z if moving) and photon
    (omega0_mev, along +z)."""

    e_i_mev: float
    omega0_mev: float
    mass: float = ELECTRON_MASS_MEV

    def __post_init__(self):
        if not all(map(math.isfinite,
                       (self.e_i_mev, self.omega0_mev, self.mass))):
            raise ValueError("energies must be finite")
        if not self.mass > 0:
            raise ValueError(f"mass {self.mass} must be positive")
        if self.e_i_mev < self.mass:
            raise ValueError(f"electron energy {self.e_i_mev} below mass")
        if self.omega0_mev <= 0:
            raise ValueError("incoming photon energy must be positive")

    @classmethod
    def rest_frame(cls, omega0_mev: float, mass: float = ELECTRON_MASS_MEV):
        return cls(mass, omega0_mev, mass)

    @property
    def p_abs(self) -> float:
        return math.sqrt((self.e_i_mev - self.mass) * (self.e_i_mev + self.mass))

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
        return self.mass * self.mass / (self.e_i_mev + self.p_abs)

    @property
    def flux(self) -> float:
        """Invariant flux factor p_i.k_0 = omega0 (E_i + |p_i|)."""
        return self.omega0_mev * (self.e_i_mev + self.p_abs)

    @property
    def s_invariant(self) -> float:
        return self.mass * self.mass + 2.0 * self.flux

    @property
    def omega_max(self) -> float:
        """Kinematic ceiling on any single emitted photon energy."""
        # smallest closure denominator over directions: n along p_i + k_0
        den = self.e_minus_p + 2.0 * self.omega0_mev if self.p_abs > 0 \
            else self.mass
        return self.flux / den


@dataclass(frozen=True)
class FinalStateConfig:
    """Angles, free energies, polarization labels and spins for one point.

    Photon 3's energy is always derived from conservation, so only omega1 and
    omega2 are stored.
    """

    thetas: tuple
    phis: tuple
    omega1: float
    omega2: float
    pols: tuple = (1, 1, 1)
    r_i: int = 1
    r_f: int = 1

    def __post_init__(self):
        if len(self.thetas) != 3 or len(self.phis) != 3:
            raise ValueError("need three detector directions")
        check_labels(*self.pols, self.r_i, self.r_f)


@dataclass(frozen=True)
class ClosedFinalState:
    """All final four-momenta ((4,) arrays) plus the recoil Jacobian and
    physical flag."""

    k1: np.ndarray
    k2: np.ndarray
    k3: np.ndarray
    p_f: np.ndarray
    omega3: float
    K: float
    physical: bool

    @property
    def e_f(self) -> float:
        return float(self.p_f[0])

    @property
    def photons(self) -> tuple:
        return (self.k1, self.k2, self.k3)


def close_final_state(setup: CollisionSetup,
                      cfg: FinalStateConfig) -> ClosedFinalState:
    """Construct all final momenta from angles and (omega1, omega2).

    physical = (omega3 > 0) and (E_f >= m), and False where the closure
    denominator vanishes (a physically unreachable direction).  Conservation
    holds by construction; p_f lands on-shell to the accuracy of the
    closure.
    """
    th, ph = np.asarray(cfg.thetas, float), np.asarray(cfg.phis, float)
    w12 = np.array([cfg.omega1, cfg.omega2])
    w3, kvecs, p_f, kfac, physical, _ = _close_arrays(
        setup, th[:, None], ph[:, None], w12[:, None])
    return ClosedFinalState(kvecs[0, 0], kvecs[1, 0], kvecs[2, 0], p_f[0],
                            float(w3[0]), float(kfac[0]), bool(physical[0]))


# ---------------------------------------------------------------------------
# batched closure on angle/energy arrays (shared by amplitudes & integrators)

def _one_minus_cos_angle(th_a, ph_a, th_b, ph_b):
    """1 - n_a.n_b for unit directions, free of cancellation:
    2 sin^2((ta-tb)/2) + 2 sin ta sin tb sin^2((pa-pb)/2)."""
    s1 = np.sin(0.5 * (th_a - th_b))
    s2 = np.sin(0.5 * (ph_a - ph_b))
    return 2.0 * s1 * s1 + 2.0 * np.sin(th_a) * np.sin(th_b) * s2 * s2


def _dot_pi_n(setup, theta):
    """p_i.n for n = (1, unit(theta, .)): E_i + |p_i| cos(theta), stable near
    theta = pi where it collapses to m^2/(E+|p|)."""
    c_half = np.cos(0.5 * theta)
    return setup.e_minus_p + 2.0 * setup.p_abs * c_half * c_half


def _dot_k0_n(setup, theta):
    """k_0.n = omega0 (1 - cos theta)."""
    s_half = np.sin(0.5 * theta)
    return 2.0 * setup.omega0_mev * s_half * s_half


def _close_arrays(setup, thetas, phis, omegas_free):
    """Vectorized closure for n_out photons, the last energy derived.

    thetas, phis: (n_out, N); omegas_free: (n_out - 1, N).
    Returns (w_last (N,), k (n_out, N, 4), p_f (N, 4), K (N,),
    physical (N,), degenerate (N,)).  degenerate flags points whose
    closure denominator vanishes (a physically unreachable direction); they
    read w_last = -1 and physical False.  A non-finite angle or free energy
    raises ValueError.
    """
    thetas = np.atleast_2d(np.asarray(thetas, float))
    phis = np.atleast_2d(np.asarray(phis, float))
    n_out = thetas.shape[0]
    n_pts = thetas.shape[1]
    omegas_free = np.asarray(omegas_free, float).reshape(n_out - 1, n_pts)
    if not all(np.isfinite(v).all() for v in (thetas, phis, omegas_free)):
        raise ValueError("angles and free photon energies must be finite")
    last = n_out - 1

    pi_n = _dot_pi_n(setup, thetas)          # (n_out, N): p_i.n_j
    k0_n = _dot_k0_n(setup, thetas)          # (n_out, N): k_0.n_j
    num = np.full(n_pts, setup.flux)
    den = pi_n[last] + k0_n[last]
    for j in range(last):
        wj = omegas_free[j]
        num -= wj * (pi_n[j] + k0_n[j])
        den -= wj * _one_minus_cos_angle(thetas[j], phis[j],
                                         thetas[last], phis[last])
        for l in range(j + 1, last):
            num += wj * omegas_free[l] * _one_minus_cos_angle(
                thetas[j], phis[j], thetas[l], phis[l])

    scale = setup.e_i_mev + setup.omega0_mev
    degenerate = np.abs(den) < 1e-12 * scale
    safe_den = np.where(degenerate, 1.0, den)
    w_last = np.where(degenerate, -1.0, num / safe_den)

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
    n_last = np.stack([st[last] * np.cos(phis[last]),
                       st[last] * np.sin(phis[last]), ct[last]], axis=-1)
    # n.(sum k_j - k_0 - p_i) + w_last reduces to -n.p_f by conservation
    with np.errstate(divide='ignore', invalid='ignore'):
        kfac = 1.0 - np.einsum('ni,ni->n', p_f[:, 1:], n_last) / e_f
    physical = (~degenerate) & (w_last > 0.0) & (e_f >= setup.mass)
    kfac = np.where(physical, kfac, 1.0)
    return w_last, k, p_f, kfac, physical, degenerate


def close_batch(setup, thetas, phis, omega1, omega2):
    """Triple-photon closure on arrays: thetas, phis (3, N); omega1/2 (N,)."""
    return _close_arrays(setup, thetas, phis,
                         np.stack([np.asarray(omega1, float),
                                   np.asarray(omega2, float)]))
