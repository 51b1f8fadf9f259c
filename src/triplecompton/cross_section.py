"""Differential cross sections built from the squared amplitudes.

For n emitted photons the fully differential cross section (energies of the
first n-1 photons plus all n solid angles; the last energy is fixed by
conservation) is

    dsigma = alpha^(n+1) / (2 pi)^(2(n-1)) / m^(2(n-1))
             * (w_1 ... w_n) / (E_f  p_i.k_0) * |M|^2 / |K|
             * Theta(w_n) Theta(E_f - m),

in natural units, converted to barns via (hbar c)^2; K = n_n.p_f / E_f is
the recoil Jacobian of the closure in ``kinematics``.  n = 3 is the
five-fold cross section sigma5 (b MeV^-2 sr^-3); n = 1 reduces to the
one-photon angular distribution (b/sr).

Photon energies below the detector threshold zero the result here, so the
integrators always see an already-regularized integrand.
"""
from __future__ import annotations

import math

import numpy as np

from . import amplitude as amp
from .algebra import check_labels
from .constants import ALPHA, HBARC2_MEV2_BARN
from .kinematics import CollisionSetup, _check_directions, _close_arrays


def prefactor(n_out: int, mass: float) -> float:
    """Process-order prefactor alpha^(n+1)/(2 pi)^(2(n-1))/m^(2(n-1))."""
    return (ALPHA ** (n_out + 1)
            / (2.0 * math.pi) ** (2 * (n_out - 1))
            / mass ** (2 * (n_out - 1)))


def _check_final_pols(final_pols) -> None:
    """Raise ValueError unless final_pols is three photon labels, each 1
    or 2."""
    if len(final_pols) != 3:
        raise ValueError(f"need three photon labels in final_pols, got "
                         f"{len(final_pols)}: {tuple(final_pols)}")
    check_labels(*final_pols)


def sigma5(setup: CollisionSetup, thetas, phis, omega1, omega2,
           beam_pol=1, final_pols=(1, 1, 1), r_i: int = 1, r_f: int = 1,
           threshold_eps: float = 0.0) -> float:
    """Five-fold differential cross section (b MeV^-2 sr^-3) at one
    spin/polarization point: the matching cell of a one-point
    :func:`grid_tensor`."""
    _check_final_pols(final_pols)
    check_labels(r_i, r_f)
    tensor, kin, _, _ = grid_tensor(setup, thetas, phis, [omega1], [omega2],
                                    beam_pol, threshold_eps)
    i, j, l = (lab - 1 for lab in final_pols)
    return float(abs(tensor[0, 0, i, j, l, r_i - 1, r_f - 1]) ** 2 * kin[0])


def spin_summed_sigma5(setup: CollisionSetup, thetas, phis, omega1, omega2,
                       beam_pol=1, final_pols=(1, 1, 1),
                       threshold_eps: float = 0.0) -> float:
    """(1/2) sum over both electron spins at fixed photon polarizations:
    the matching cell of a one-point :func:`sigma5_panel_grids`."""
    _check_final_pols(final_pols)
    panels, _ = sigma5_panel_grids(setup, thetas, phis, [omega1], [omega2],
                                   beam_pol, threshold_eps)
    return float(panels["".join(str(int(lab)) for lab in final_pols)][0, 0])


def unpolarized_sigma5(setup: CollisionSetup, thetas, phis, omega1, omega2,
                       threshold_eps: float = 0.0) -> float:
    """(1/4) sum over electron spins, beam basis and final polarizations;
    thetas or phis that are not three directions raise ValueError."""
    thetas, phis = _check_directions(thetas, phis)
    value = unpolarized_differential_batch(
        setup, thetas[:, None], phis[:, None],
        np.array([[omega1], [omega2]], float), threshold_eps)
    return float(value[0])


# ---------------------------------------------------------------------------
# batched evaluation on arrays of phase-space points

def _tensor_for_points(setup, thetas, phis, omegas_free,
                       threshold_eps: float = 0.0, beam_pol=None):
    """Amplitude tensor and kinematic factor at stacked points.

    thetas, phis: (n_out, N) photon directions, one per point, or
    (n_out, 1), one direction per photon shared by every point;
    omegas_free: (n_out - 1) * N free photon energies.  The closure sees
    shared directions as a broadcast view at every point, and each
    polarization basis is then built once and handed to the kernel with a
    point axis of 1, which gives the same tensor, to the bit, as the
    directions repeated at every point.  The beam photon's polarization
    axis holds the vectors of ``amp.beam_basis_arrays(n, beam_pol)``: both
    basis vectors for None, the beam's own polarization (one entry)
    otherwise.  The tensor is evaluated on the kept rows only, the
    physical points with every photon at or above threshold_eps, and reads
    zero elsewhere.  kin is the differential cross section per unit
    squared amplitude (the formula in the module docstring without
    |M|^2), zero off the kept rows.  Returns (tensor, kin, keep,
    physical).  A non-finite threshold_eps raises ValueError.
    """
    if not math.isfinite(threshold_eps):
        raise ValueError(f"threshold_eps must be finite, got {threshold_eps}")
    thetas = np.atleast_2d(np.asarray(thetas, float))
    phis = np.atleast_2d(np.asarray(phis, float))
    n_out = len(thetas)
    shared = thetas.shape[1] == phis.shape[1] == 1
    if shared and n_out > 1:
        n_dirs = (n_out, np.size(omegas_free) // (n_out - 1))
        thetas, phis = (np.broadcast_to(a, n_dirs) for a in (thetas, phis))
    _, k_out, p_f, kfac, physical, _ = _close_arrays(setup, thetas, phis,
                                                     omegas_free)
    # k_out[..., 0] holds every photon's energy, the derived one included
    keep = physical & (k_out[..., 0] >= threshold_eps).all(axis=0)
    n_pts, n_kept = keep.size, int(np.count_nonzero(keep))
    rows = slice(0, 1) if shared else keep
    eps_arrays = [amp.beam_basis_arrays(1 if shared else n_kept, beam_pol)]
    tensor = np.zeros((n_pts, eps_arrays[0].shape[1]) + (2,) * (n_out + 2),
                      dtype=complex)
    kin = np.zeros(n_pts)
    if not n_kept:
        return tensor, kin, keep, physical
    for j in range(n_out):
        eps_arrays.append(amp.outgoing_basis_arrays(thetas[j][rows],
                                                    phis[j][rows]))
    tensor[keep] = amp.amplitude_tensor(setup, k_out[:, keep], p_f[keep],
                                        eps_arrays)
    e_f = p_f[keep, 0]
    kin[keep] = (prefactor(n_out, setup.mass)
                 * k_out[:, keep, 0].prod(axis=0) / (e_f * setup.flux)
                 / np.abs(kfac[keep]) * HBARC2_MEV2_BARN)
    return tensor, kin, keep, physical


def grid_tensor(setup, thetas, phis, omega1_grid, omega2_grid, beam_pol,
                threshold_eps: float = 0.0):
    """:func:`_tensor_for_points` for three photons at fixed angles on an
    (omega1, omega2) grid, every cell in one evaluation.  Cell (i, j), at
    (omega1_grid[i], omega2_grid[j]), is row i * len(omega2_grid) + j.
    The three directions go in as shared (3, 1) arrays, so the beam's and
    each photon's polarization basis is built once for the whole grid.
    Every caller reads one beam polarization, so beam_pol None, which
    would evaluate both basis vectors, raises ValueError, as do thetas or
    phis that are not three directions."""
    if beam_pol is None:
        raise ValueError("beam_pol must be 1, 2 or a transverse vector, "
                         "not None")
    thetas, phis = _check_directions(thetas, phis)
    w1m, w2m = np.meshgrid(np.asarray(omega1_grid, float),
                           np.asarray(omega2_grid, float), indexing="ij")
    return _tensor_for_points(setup, thetas[:, None], phis[:, None],
                              np.stack([w1m.ravel(), w2m.ravel()]),
                              threshold_eps, beam_pol)


# no caller in the package: kept while perfbench/tracing.py patches it as
# bound in integration
def unpolarized_sigma5_batch(setup, thetas, phis, omega1, omega2,
                             threshold_eps: float = 0.0) -> np.ndarray:
    """(1/4) sum_{spins, pols} sigma5 on arrays thetas/phis (3, N), omega (N,)."""
    return unpolarized_differential_batch(
        setup, thetas, phis,
        np.stack([np.asarray(omega1, float), np.asarray(omega2, float)]),
        threshold_eps)


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
    tensor, kin, keep, _ = grid_tensor(setup, thetas, phis, omega1_grid,
                                       omega2_grid, beam_pol, threshold_eps)
    shape = (np.size(omega1_grid), np.size(omega2_grid))
    # (N, 2,2,2, r_i, r_f) -> (N, 2,2,2)
    msq = 0.5 * (np.abs(tensor[:, 0]) ** 2).sum(axis=(4, 5))
    panels = {}
    for label in PANEL_ORDER:
        i, j, l = (int(c) - 1 for c in label)
        panels[label] = (msq[:, i, j, l] * kin).reshape(shape)
    return panels, (~keep).reshape(shape)


def unpolarized_differential_batch(setup, thetas, phis, omegas_free,
                                   threshold_eps: float = 0.0) -> np.ndarray:
    """Unpolarized differential cross section for n_out = len(thetas)
    emitted photons; thetas, phis (n_out, N), omegas_free (n_out - 1, N).

    Units: b sr^-n_out MeV^-(n_out-1).  Used by the total-cross-section
    integrators for the one-, two- and three-photon processes.
    """
    tensor, kin, _, _ = _tensor_for_points(setup, thetas, phis, omegas_free,
                                           threshold_eps)
    msq = 0.25 * (np.abs(tensor) ** 2).reshape(tensor.shape[0],
                                               -1).sum(axis=1)
    return msq * kin
