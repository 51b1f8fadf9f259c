"""Differential cross sections built from the squared amplitudes.

For n emitted photons the fully differential cross section (energies of the
first n-1 photons plus all n solid angles; the last energy is fixed by
conservation) is

    dsigma = alpha^(n+1) / (2 pi)^(2(n-1)) / m^(2(n-1))
             * (w_1 ... w_n) / (E_f  p_i.k_0) * |M|^2 / |K|
             * Theta(w_n) Theta(E_f - m),

in natural units, converted to barns via (hbar c)^2.  n = 3 is the five-fold
cross section sigma5 (b MeV^-2 sr^-3); n = 1 reduces to the one-photon
angular distribution (b/sr).

Photon energies below the detector threshold zero the result here, so the
integrators always see an already-regularized integrand.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import amplitude as amp
from .algebra import check_labels
from .constants import ALPHA, HBARC2_MEV2_BARN
from .kinematics import (CollisionSetup, FinalStateConfig, _close_arrays,
                         _dot_k0_n, _dot_pi_n, _one_minus_cos_angle)


@dataclass(frozen=True)
class Sigma5Point:
    """sigma5 at one fully resolved phase-space point, in b MeV^-2 sr^-3."""

    value: float
    physical: bool
    cfg: FinalStateConfig


def prefactor(n_out: int, mass: float) -> float:
    """Process-order prefactor alpha^(n+1)/(2 pi)^(2(n-1))/m^(2(n-1))."""
    return (ALPHA ** (n_out + 1)
            / (2.0 * math.pi) ** (2 * (n_out - 1))
            / mass ** (2 * (n_out - 1)))


def sigma5(setup: CollisionSetup, cfg: FinalStateConfig,
           threshold_eps: float = 0.0, beam_pol=1) -> Sigma5Point:
    """Five-fold differential cross section at one spin/polarization point."""
    tensor, kin, _, physical = _tensor_for_points(
        setup, 3, np.array(cfg.thetas, float)[:, None],
        np.array(cfg.phis, float)[:, None],
        np.array([[cfg.omega1], [cfg.omega2]]), threshold_eps)
    i, j, l = (lab - 1 for lab in cfg.pols)
    m = amp.contract_beam(tensor, beam_pol)[0, i, j, l, cfg.r_i - 1,
                                            cfg.r_f - 1]
    return Sigma5Point(float(abs(m) ** 2 * kin[0]), bool(physical[0]), cfg)


def spin_summed_sigma5(setup: CollisionSetup, thetas, phis, omega1, omega2,
                       beam_pol=1, final_pols=(1, 1, 1),
                       threshold_eps: float = 0.0) -> float:
    """(1/2) sum over both electron spins at fixed photon polarizations."""
    value = spin_summed_sigma5_batch(
        setup, np.array([[t] for t in thetas]), np.array([[p] for p in phis]),
        np.array([omega1]), np.array([omega2]), beam_pol, final_pols,
        threshold_eps)
    return float(value[0])


def unpolarized_sigma5(setup: CollisionSetup, thetas, phis, omega1, omega2,
                       threshold_eps: float = 0.0) -> float:
    """(1/4) sum over electron spins, beam basis and final polarizations."""
    value = unpolarized_sigma5_batch(
        setup, np.array([[t] for t in thetas]), np.array([[p] for p in phis]),
        np.array([omega1]), np.array([omega2]), threshold_eps)
    return float(value[0])


# ---------------------------------------------------------------------------
# batched evaluation on arrays of phase-space points

def _close_and_keep(setup, thetas, phis, omegas_free, threshold_eps):
    """Closure plus the keep mask: physical points with every photon at or
    above threshold_eps.  Returns (omegas (n_out, N), k_out, p_f, K,
    physical, keep)."""
    w_last, k_out, p_f, kfac, physical, _ = _close_arrays(
        setup, thetas, phis, omegas_free)
    omegas = np.vstack([np.asarray(omegas_free, float).reshape(
        k_out.shape[0] - 1, w_last.size), w_last[None]])
    keep = physical & (omegas >= threshold_eps).all(axis=0)
    return omegas, k_out, p_f, kfac, physical, keep


def _tensor_for_points(setup, n_out, thetas, phis, omegas_free,
                       threshold_eps: float = 0.0):
    """Amplitude tensor and kinematic factor at stacked points.

    The tensor is evaluated on the kept rows only (see ``_close_and_keep``)
    and reads zero elsewhere.  kin is the differential cross section per
    unit squared amplitude (the formula in the module docstring without
    |M|^2), zero off the kept rows.  Returns (tensor, kin, keep, physical).
    """
    thetas = np.atleast_2d(np.asarray(thetas, float))
    phis = np.atleast_2d(np.asarray(phis, float))
    omegas, k_out, p_f, kfac, physical, keep = _close_and_keep(
        setup, thetas, phis, omegas_free, threshold_eps)
    n_pts = keep.size
    tensor = np.zeros((n_pts,) + (2,) * (n_out + 3), dtype=complex)
    kin = np.zeros(n_pts)
    if not keep.any():
        return tensor, kin, keep, physical
    n_kept = int(np.count_nonzero(keep))
    k0 = np.broadcast_to(setup.k_0, (1, n_kept, 4))
    eps_arrays = [amp.beam_basis_arrays(n_kept)]
    for j in range(n_out):
        eps_arrays.append(amp.outgoing_basis_arrays(thetas[j][keep],
                                                    phis[j][keep]))
    tensor[keep] = amp.amplitude_tensor(
        setup, np.concatenate([k0, k_out[:, keep]]), p_f[keep], eps_arrays)
    e_f = p_f[keep, 0]
    kin[keep] = (prefactor(n_out, setup.mass)
                 * omegas[:, keep].prod(axis=0) / (e_f * setup.flux)
                 / np.abs(kfac[keep]) * HBARC2_MEV2_BARN)
    return tensor, kin, keep, physical


def unpolarized_sigma5_batch(setup, thetas, phis, omega1, omega2,
                             threshold_eps: float = 0.0) -> np.ndarray:
    """(1/4) sum_{spins, pols} sigma5 on arrays thetas/phis (3, N), omega (N,)."""
    return unpolarized_differential_batch(
        setup, 3, thetas, phis,
        np.stack([np.asarray(omega1, float), np.asarray(omega2, float)]),
        threshold_eps)


def spin_summed_sigma5_batch(setup, thetas, phis, omega1, omega2, beam_pol,
                             final_pols, threshold_eps: float = 0.0
                             ) -> np.ndarray:
    """(1/2) sum over electron spins at fixed beam and final polarizations."""
    check_labels(*final_pols)
    omegas_free = np.stack([np.asarray(omega1, float),
                            np.asarray(omega2, float)])
    tensor, kin, _, _ = _tensor_for_points(setup, 3, thetas, phis,
                                           omegas_free, threshold_eps)
    i, j, l = (lab - 1 for lab in final_pols)
    fixed = amp.contract_beam(tensor, beam_pol)[:, i, j, l]  # (N, r_i, r_f)
    return 0.5 * (np.abs(fixed) ** 2).sum(axis=(1, 2)) * kin


PANEL_ORDER = ("111", "211", "121", "112", "221", "212", "122", "222")
PANEL_LETTERS = "abcdefgh"


def sigma5_panel_grids(setup, thetas, phis, omega1_grid, omega2_grid,
                       beam_pol=1, threshold_eps: float = 0.0):
    """Spin-summed sigma5 on an (omega1, omega2) grid for all eight final
    polarization triples at once.

    Returns (panels, masked): panels maps the label string ("111", "211",
    ...) to an array of shape (len(w1), len(w2)); masked flags cells that are
    unphysical or have any photon below threshold.  One amplitude tensor
    evaluation covers every panel.
    """
    w1g = np.asarray(omega1_grid, float)
    w2g = np.asarray(omega2_grid, float)
    w1m, w2m = np.meshgrid(w1g, w2g, indexing="ij")
    shape = w1m.shape
    th = np.repeat(np.asarray(thetas, float)[:, None], w1m.size, axis=1)
    ph = np.repeat(np.asarray(phis, float)[:, None], w1m.size, axis=1)
    omegas_free = np.stack([w1m.ravel(), w2m.ravel()])
    tensor, kin, keep, _ = _tensor_for_points(setup, 3, th, ph, omegas_free,
                                              threshold_eps)
    beam = amp.contract_beam(tensor, beam_pol)     # (N, 2,2,2, r_i, r_f)
    msq = 0.5 * (np.abs(beam) ** 2).sum(axis=(4, 5))
    panels = {}
    for label in PANEL_ORDER:
        i, j, l = (int(c) - 1 for c in label)
        panels[label] = (msq[:, i, j, l] * kin).reshape(shape)
    return panels, (~keep).reshape(shape)


def threshold_boundary(setup, thetas, phis, omega1_grid,
                       threshold_eps: float, omega2_max: float):
    """Points (omega1, omega2) where the derived photon energy falls through
    the threshold on the physical branch.

    At fixed angles and omega1 the closure is linear-fractional in omega2,

        w3 = (a - b w2) / (c - d w2),
        a = p_i.k_0 - w1 (p_i.n1 + k_0.n1),
        b = p_i.n2 + k_0.n2 - w1 (1 - n1.n2),
        c = p_i.n3 + k_0.n3 - w1 (1 - n1.n3),
        d = 1 - n2.n3,

    so w3 = eps has the single root w2* = (a - eps c) / (b - eps d), and
    dw3/dw2 has the sign of a d - b c.  A row keeps (omega1, w2*) when
    0 < w2* < omega2_max, w3 falls through eps there (a d - b c < 0) and the
    closed point is physical; the last test drops the unphysical
    continuation (E_f < m) on which w3 turns positive again.  Rows without
    such a root are left out.
    """
    from .kinematics import close_batch

    th = np.asarray(thetas, float)
    ph = np.asarray(phis, float)
    w1 = np.asarray(omega1_grid, float)
    along = _dot_pi_n(setup, th) + _dot_k0_n(setup, th)
    a = setup.flux - w1 * along[0]
    b = along[1] - w1 * _one_minus_cos_angle(th[0], ph[0], th[1], ph[1])
    c = along[2] - w1 * _one_minus_cos_angle(th[0], ph[0], th[2], ph[2])
    d = _one_minus_cos_angle(th[1], ph[1], th[2], ph[2])
    with np.errstate(divide="ignore", invalid="ignore"):
        w2 = (a - threshold_eps * c) / (b - threshold_eps * d)
    rows = np.nonzero((w2 > 0.0) & (w2 < omega2_max)
                      & (a * d - b * c < 0.0))[0]
    _, _, _, _, physical, _ = close_batch(
        setup, np.repeat(th[:, None], rows.size, axis=1),
        np.repeat(ph[:, None], rows.size, axis=1), w1[rows], w2[rows])
    return [(float(w1[i]), float(w2[i])) for i in rows[physical]]


def unpolarized_differential_batch(setup, n_out, thetas, phis, omegas_free,
                                   threshold_eps: float = 0.0) -> np.ndarray:
    """Unpolarized differential cross section for n_out emitted photons.

    Units: b sr^-n_out MeV^-(n_out-1).  Used by the total-cross-section
    integrators for the one-, two- and three-photon processes.
    """
    thetas = np.atleast_2d(thetas)
    phis = np.atleast_2d(phis)
    if n_out == 1:
        omegas_free = np.zeros((0, thetas.shape[1]))
    tensor, kin, _, _ = _tensor_for_points(setup, n_out, thetas, phis,
                                           omegas_free, threshold_eps)
    msq = 0.25 * (np.abs(tensor) ** 2).reshape(tensor.shape[0],
                                               -1).sum(axis=1)
    return msq * kin
