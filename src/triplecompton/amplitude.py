"""Invariant amplitudes for one absorbed photon and n emitted photons.

The amplitude is a coherent sum over every insertion order of the photon
lines on the electron line,

    M = m^n  sum_xi  ubar(p_f) eslash_xi(n) S(q_n) ... S(q_1) eslash_xi(0) u(p_i),

with S(q) = (qslash + m)/(q^2 - m^2) and intermediate momenta built by adding
the absorbed photon momentum (index 0) and subtracting emitted ones in the
order given by the permutation xi.  n = 3 gives the photon-splitting process
(24 permutations); n = 2 and n = 1 run on the same machinery (6 and 2
permutations) and feed the two-photon and one-photon cross sections.

``amplitude_tensor`` is the one evaluation engine: it chains the operators
onto the initial spinors right-to-left over stacked phase-space points,
sharing slashed polarizations, every distinct propagator and every common
permutation prefix.  ``total_amplitude``, ``single_compton_amplitude`` and
``double_compton_amplitude`` run it at one point, with each given
polarization four-vector as a length-1 basis, after checking the external
momenta and propagator denominators.  Four-vectors are float arrays
(t, x, y, z) in MeV.  An independent term-by-term reference lives with the
tests.
"""
from __future__ import annotations

import itertools
import numbers
from dataclasses import dataclass

import numpy as np

from .algebra import (IDENTITY4, check_labels, check_on_shell,
                      dirac_spinor_bar_batch, dirac_spinor_batch,
                      propagator_denominator, slash_batch)
from .kinematics import ClosedFinalState, CollisionSetup


@dataclass(frozen=True)
class AmplitudeInputs:
    """Everything a single amplitude evaluation needs.

    eps holds the four polarization four-vectors (absorbed photon first);
    arbitrary four-vectors are accepted there so gauge tests can substitute
    eps -> k.
    """

    setup: CollisionSetup
    state: ClosedFinalState
    eps: tuple
    r_i: int = 1
    r_f: int = 1

    @property
    def photons(self) -> tuple:
        return (self.setup.k_0,) + self.state.photons


def _point_amplitude(setup, photons, p_f, eps, r_i, r_f) -> complex:
    """amplitude_tensor at one point with eps as length-1 polarization axes.

    Raises OffShellError for an off-shell external electron and
    PropagatorPoleError for an internal momentum on the mass shell.
    """
    check_labels(r_i, r_f)
    for p in (setup.p_i, p_f):
        check_on_shell(p, setup.mass)
    n = len(photons)
    for size in range(1, n):
        for subset in itertools.combinations(range(n), size):
            q = setup.p_i
            for j in subset:
                q = q + photons[j] if j == 0 else q - photons[j]
            propagator_denominator(q, setup.mass)
    tensor = amplitude_tensor(
        setup, np.array([[k] for k in photons]), np.asarray(p_f)[None],
        [np.asarray(e)[None, None] for e in eps])
    return complex(tensor.reshape(2, 2)[r_i - 1, r_f - 1])


def total_amplitude(inputs: AmplitudeInputs) -> complex:
    """Full 24-permutation amplitude for the three-photon final state."""
    return _point_amplitude(inputs.setup, inputs.photons, inputs.state.p_f,
                            inputs.eps, inputs.r_i, inputs.r_f)


def single_compton_amplitude(setup: CollisionSetup, k_out: np.ndarray,
                             p_f: np.ndarray, eps_in: np.ndarray,
                             eps_out: np.ndarray, r_i: int = 1,
                             r_f: int = 1) -> complex:
    """Two-permutation amplitude for one emitted photon."""
    return _point_amplitude(setup, (setup.k_0, k_out), p_f,
                            (eps_in, eps_out), r_i, r_f)


def double_compton_amplitude(setup: CollisionSetup, k_1: np.ndarray,
                             k_2: np.ndarray, p_f: np.ndarray,
                             eps: tuple, r_i: int = 1,
                             r_f: int = 1) -> complex:
    """Six-permutation amplitude for two emitted photons; eps holds the
    absorbed photon's polarization first."""
    return _point_amplitude(setup, (setup.k_0, k_1, k_2), p_f, eps, r_i, r_f)


def beam_basis_arrays(n_pts: int) -> np.ndarray:
    """Polarization basis of the +z beam photon as a (N, 2, 4) array."""
    out = np.zeros((n_pts, 2, 4))
    out[:, 0, 1] = 1.0   # x
    out[:, 1, 2] = 1.0   # y
    return out


def outgoing_basis_arrays(thetas: np.ndarray, phis: np.ndarray) -> np.ndarray:
    """Polarization bases for emitted photon directions, (N, 2, 4)."""
    ct, st = np.cos(thetas), np.sin(thetas)
    cp, sp = np.cos(phis), np.sin(phis)
    out = np.zeros(thetas.shape + (2, 4))
    out[..., 0, 1] = ct * cp
    out[..., 0, 2] = ct * sp
    out[..., 0, 3] = -st
    out[..., 1, 1] = -sp
    out[..., 1, 2] = cp
    return out


def amplitude_tensor(setup: CollisionSetup, k_arrays: np.ndarray,
                     p_f: np.ndarray, eps_arrays: list) -> np.ndarray:
    """Amplitudes for every polarization label and spin at stacked points.

    k_arrays: (n_photons, N, 4) four-momenta with the absorbed photon first;
    eps_arrays: per photon, (N, P, 4) polarization four-vectors, normally
    the P = 2 basis.  Returns a complex array (N, P, ..., P, 2, 2): one
    polarization axis per photon (photon order), then r_i, then r_f.
    """
    ks = np.asarray(k_arrays, float)
    n, n_pts = ks.shape[0], ks.shape[1]
    mass = setup.mass
    p_i = np.broadcast_to(setup.p_i, (n_pts, 4))
    u_cols = dirac_spinor_batch(p_i, mass)              # (N, 4, 2)
    ubar = dirac_spinor_bar_batch(np.asarray(p_f), mass)  # (N, 2, 4)
    slashed = [slash_batch(e) for e in eps_arrays]      # (N, 2, 4, 4)

    m2 = mass * mass
    metric = np.array([1.0, -1.0, -1.0, -1.0])
    props = {}
    for size in range(1, n):
        for subset in itertools.combinations(range(n), size):
            q = p_i.copy()
            for j in subset:
                q = q + ks[j] if j == 0 else q - ks[j]
            denom = np.einsum('ni,ni->n', q * metric, q) - m2
            props[frozenset(subset)] = (
                (slash_batch(q) + mass * IDENTITY4) / denom[:, None, None])

    ops = {}

    def step_op(used: frozenset, j: int) -> np.ndarray:
        key = (used, j)
        mat = ops.get(key)
        if mat is None:
            mat = props[used][:, None] @ slashed[j]
            ops[key] = mat
        return mat

    def apply(op: np.ndarray, state: np.ndarray, depth: int) -> np.ndarray:
        # op (N, 2, r, 4) acting on state (N, pols..., 4, 2); the new
        # polarization axis lands in front of the existing ones
        op_b = op.reshape(op.shape[:2] + (1,) * depth + op.shape[2:])
        return op_b @ state[:, None]

    # last vertex folded into the final-spinor rows: (N, 2, 2, 4)
    exit_ops = [ubar[:, None] @ slashed[j] for j in range(n)]

    total = None
    level = {(): u_cols}
    for depth in range(n):
        nxt = {}
        for prefix, state in level.items():
            used = set(prefix)
            for j in range(n):
                if j in used:
                    continue
                if depth < n - 1:
                    op = step_op(frozenset(used | {j}), j)
                    nxt[prefix + (j,)] = apply(op, state, depth)
                else:
                    amp = apply(exit_ops[j], state, depth)
                    # axes: (N, pol_xi(n-1), ..., pol_xi(0), r_f, r_i);
                    # reorder to photon order with (r_i, r_f) trailing
                    order = prefix + (j,)
                    perm = ([0] + [1 + (n - 1 - order.index(t))
                                   for t in range(n)] + [n + 2, n + 1])
                    amp = np.transpose(amp, perm)
                    total = amp if total is None else total + amp
        level = nxt
    return mass ** (n - 1) * total


def contract_beam(tensor: np.ndarray, beam_pol) -> np.ndarray:
    """Collapse the absorbed photon's polarization axis.

    beam_pol: label 1 or 2 (any integral type), or a transverse (ex, ey)
    pair with 0 < hypot(ex, ey) < inf combining the two basis amplitudes
    linearly (the amplitude is linear in the beam polarization vector).
    """
    if isinstance(beam_pol, numbers.Integral):
        check_labels(beam_pol)
        return tensor[:, beam_pol - 1]
    ex, ey = float(beam_pol[0]), float(beam_pol[1])
    norm = np.hypot(ex, ey)
    if not 0.0 < norm < np.inf:
        raise ValueError(
            "beam polarization vector must be non-zero and finite")
    return (ex * tensor[:, 0] + ey * tensor[:, 1]) / norm
