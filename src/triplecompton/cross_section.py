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
from .constants import ALPHA, ELECTRON_MASS_MEV, HBARC2_MEV2_BARN
from .kinematics import CollisionSetup, _check_directions, _close_arrays

# kept rows per amplitude kernel call in unpolarized_differential_batch: the
# kernel's peak allocation is about 3.0, 5.4 and 9.6 KB per row for one, two
# and three photons (tracemalloc, 256 rows), so a chunk bounds the memory of
# any batch the sampler passes; the result does not depend on it
KERNEL_ROWS = 256


def prefactor(n_out: int) -> float:
    """Process-order prefactor alpha^(n+1)/(2 pi)^(2(n-1))/m^(2(n-1))."""
    return (ALPHA ** (n_out + 1)
            / (2.0 * math.pi) ** (2 * (n_out - 1))
            / ELECTRON_MASS_MEV ** (2 * (n_out - 1)))


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
    tensor, kin, _ = grid_tensor(setup, thetas, phis, [omega1], [omega2],
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
    thetas or phis that are not three finite directions raise
    ValueError."""
    thetas, phis = _check_directions(thetas, phis)
    value = unpolarized_differential_batch(
        setup, thetas[:, None], phis[:, None],
        np.array([[omega1], [omega2]], float), threshold_eps)
    return float(value[0])


# ---------------------------------------------------------------------------
# batched evaluation on arrays of phase-space points

def _kept_points(setup, thetas, phis, omegas_free, threshold_eps):
    """Closure, keep mask and kinematic factor at stacked points, the part
    of :func:`_tensor_for_points` before the amplitude kernel.

    Returns (thetas, phis, k_out, p_f, keep, kin): the angles as float
    arrays of at least two dimensions, the closed momenta of every point,
    the kept rows (the physical points with every photon at or above
    threshold_eps) and kin, the differential cross section per unit squared
    amplitude (the formula in the module docstring without |M|^2), zero off
    the kept rows.  Each row is computed on its own, so a row's values do
    not depend on the other rows.  A threshold_eps that is not finite and
    non-negative raises ValueError.
    """
    if not 0.0 <= threshold_eps < math.inf:
        raise ValueError(f"threshold {threshold_eps} must be finite and >= 0")
    thetas = np.atleast_2d(np.asarray(thetas, float))
    phis = np.atleast_2d(np.asarray(phis, float))
    _, k_out, p_f, kfac, physical = _close_arrays(setup, thetas, phis,
                                                  omegas_free)
    # k_out[..., 0] holds every photon's energy, the derived one included
    keep = physical & (k_out[..., 0] >= threshold_eps).all(axis=0)
    kin = np.zeros(keep.size)
    e_f = p_f[keep, 0]
    kin[keep] = (prefactor(len(thetas))
                 * k_out[:, keep, 0].prod(axis=0) / (e_f * setup.flux)
                 / np.abs(kfac[keep]) * HBARC2_MEV2_BARN)
    return thetas, phis, k_out, p_f, keep, kin


def _bases(thetas, phis, rows):
    """Each emitted photon's polarization basis at the points ``rows``
    selects (a mask or indices) of :func:`_kept_points`'s angles, (n_out,
    K, 2, 4), or once, (n_out, 1, 2, 4), when its direction is shared."""
    cols = slice(None) if thetas.shape[1] == 1 else rows
    return amp.outgoing_basis_arrays(thetas[:, cols], phis[:, cols])


def _tensor_for_points(setup, thetas, phis, omegas_free,
                       threshold_eps: float = 0.0, beam_pol=None):
    """Amplitude tensor and kinematic factor at stacked points, the kernel
    run once over every kept row.

    thetas, phis: (n_out, N) photon directions, one per point, or
    (n_out, 1), one direction per photon shared by every point;
    omegas_free: (n_out - 1, N) free photon energies.  A point axis of 1
    means the same value at every point, and numpy broadcasting applies it
    where it is used: shared directions reach the closure, and their bases
    and the beam's ``amp.beam_basis_arrays(beam_pol)`` the kernel, as they
    are, with the same bits as values repeated at every point.  The beam
    photon's polarization axis holds both basis vectors for None, the
    beam's own polarization (one entry) otherwise.  The tensor is evaluated
    on the kept rows only and reads zero elsewhere; keep and kin are
    :func:`_kept_points`'s.  Returns (tensor, kin, keep).  A threshold_eps
    that is not finite and non-negative raises ValueError.
    """
    thetas, phis, k_out, p_f, keep, kin = _kept_points(
        setup, thetas, phis, omegas_free, threshold_eps)
    beam = amp.beam_basis_arrays(beam_pol)
    tensor = np.zeros((keep.size, beam.shape[1]) + (2,) * (len(thetas) + 2),
                      dtype=complex)
    if keep.any():
        tensor[keep] = amp.amplitude_tensor(
            setup, k_out[:, keep], p_f[keep],
            [beam, *_bases(thetas, phis, keep)])
    return tensor, kin, keep


def grid_tensor(setup, thetas, phis, omega1_grid, omega2_grid, beam_pol,
                threshold_eps: float = 0.0):
    """:func:`_tensor_for_points` for three photons at fixed angles on an
    (omega1, omega2) grid, every cell in one evaluation.  Cell (i, j), at
    (omega1_grid[i], omega2_grid[j]), is row i * len(omega2_grid) + j.
    The three directions go in as shared (3, 1) arrays, so the closure
    and each photon's polarization basis see them once for the whole grid.
    Every caller reads one beam polarization, so beam_pol None, which
    would evaluate both basis vectors, raises ValueError, as do thetas or
    phis that are not three finite directions."""
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
    tensor, kin, keep = grid_tensor(setup, thetas, phis, omega1_grid,
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
    integrators for the one-, two- and three-photon processes.  The
    closure, keep mask, kinematic factor and emitted photons' polarization
    bases run once on all N points, the bases on the kept rows; the
    amplitude kernel runs on successive chunks of at most KERNEL_ROWS kept
    rows, each handed its slice of the bases and reduced to its 0.25 sum
    |M|^2 before the next, so no tensor of every point is held.  Each row
    is computed on its own, so the result does not depend on KERNEL_ROWS.
    """
    thetas, phis, k_out, p_f, keep, kin = _kept_points(
        setup, thetas, phis, omegas_free, threshold_eps)
    beam = amp.beam_basis_arrays(None)
    kept = np.flatnonzero(keep)
    bases = _bases(thetas, phis, kept)
    msq = np.zeros(keep.size)
    for start in range(0, kept.size, KERNEL_ROWS):
        chunk = slice(start, start + KERNEL_ROWS)
        rows = kept[chunk]
        tensor = amp.amplitude_tensor(
            setup, k_out[:, rows], p_f[rows],
            [beam, *(bases if bases.shape[1] == 1 else bases[:, chunk])])
        msq[rows] = 0.25 * (np.abs(tensor) ** 2).reshape(rows.size,
                                                         -1).sum(axis=1)
    return msq * kin
