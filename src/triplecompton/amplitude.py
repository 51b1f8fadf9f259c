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
permutation prefix.  Inside it the point axis is last, so applying an
operator takes two whole-array operations rather than one small matrix
product per point, and the prefix tree is walked depth first, so memory
holds one root-to-leaf path of states.  ``point_amplitude`` runs it at
one point for any number of emitted photons, with each given polarization
four-vector as a length-1 basis, after checking the spin labels, the
external momenta and the propagator denominators.
Four-vectors are float arrays (t, x, y, z) in MeV.  An independent
term-by-term reference lives with the tests.
"""
from __future__ import annotations

import functools
import itertools
import numbers

import numpy as np

from .algebra import (IDENTITY4, check_labels, check_on_shell,
                      dirac_spinor_bar_batch, dirac_spinor_batch,
                      propagator_denominator, slash_batch)
from .kinematics import CollisionSetup


def point_amplitude(setup: CollisionSetup, photons, p_f, eps, r_i: int = 1,
                    r_f: int = 1) -> complex:
    """Amplitude at one point: emitted photon momenta ``photons``, final
    electron momentum p_f and electron spin labels r_i, r_f.

    eps holds one polarization four-vector per photon, the absorbed photon's
    first; any four-vectors are accepted there, so gauge tests can put
    eps -> k.  This is amplitude_tensor with each eps a length-1
    polarization axis.  Raises OffShellError for an off-shell external
    electron and PropagatorPoleError for an internal momentum on the mass
    shell.
    """
    check_labels(r_i, r_f)
    for p in (setup.p_i, p_f):
        check_on_shell(p, setup.mass)
    photons = (setup.k_0,) + tuple(photons)
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


@functools.lru_cache(maxsize=None)
def _walk_plan(n: int) -> tuple:
    """Depth-first (lexicographic) visit order of the prefix tree of the n!
    insertion orders: every proper prefix and every full order once, each
    prefix before its extensions.

    Entries are (order, key, axes): key (set of photons used, last photon)
    names a chain node's step operator and is None at a leaf; axes moves a
    leaf's (r_f, pol_xi(n-1), ..., pol_xi(0), r_i, N) to photon order with
    (r_i, r_f, N) trailing, and is None at a chain node.
    """
    plan = []
    stack = [(j,) for j in reversed(range(n))]
    while stack:
        order = stack.pop()
        if len(order) < n:
            plan.append((order, (frozenset(order), order[-1]), None))
            stack.extend(order + (t,) for t in reversed(range(n))
                         if t not in order)
        else:
            plan.append((order, None,
                         tuple(n - order.index(t) for t in range(n))
                         + (n + 1, 0, n + 2)))
    return tuple(plan)


def _apply(op: np.ndarray, state: np.ndarray) -> np.ndarray:
    """op (r, 4, P, N) on state (4, M, N) -> (r, P, M, N)."""
    return np.add.reduce(op[:, :, :, None] * state[None, :, None], axis=1)


def amplitude_tensor(setup: CollisionSetup, k_arrays: np.ndarray,
                     p_f: np.ndarray, eps_arrays: list) -> np.ndarray:
    """Amplitudes for every polarization label and spin at stacked points.

    k_arrays: (n_photons, N, 4) four-momenta with the absorbed photon first;
    eps_arrays: per photon, (N, P, 4) polarization four-vectors, normally
    the P = 2 basis.  Returns a complex array (N, P, ..., P, 2, 2): one
    polarization axis per photon (photon order), then r_i, then r_f.

    Inside, the point axis is last and contiguous: spinors, slashed
    polarizations and propagators are (4, 4, ..., N) stacks, and applying
    an operator is a broadcast multiply and a sum over the contracted
    spinor index for all points at once.  The permutation prefix tree is
    walked depth first with the current root-to-leaf path as the stack, so
    memory holds one path of states plus the step operators; each leaf is
    added into one preallocated total.  Every operation is elementwise
    along the point axis, so a row's result does not depend on the other
    rows or on N.
    """
    ks = np.asarray(k_arrays, float)
    n, n_pts = ks.shape[0], ks.shape[1]
    mass = setup.mass
    p_i = np.broadcast_to(setup.p_i, (n_pts, 4))
    u_cols = dirac_spinor_batch(p_i, mass).transpose(1, 2, 0)   # (4, 2, N)
    ubar = dirac_spinor_bar_batch(np.asarray(p_f), mass).transpose(1, 2, 0)

    # every internal momentum p_i + k_0 - ..., one per proper subset
    subsets = [subset for size in range(1, n)
               for subset in itertools.combinations(range(n), size)]
    n_sub = len(subsets)
    qs = np.empty((n_pts, n_sub, 4))
    for col, subset in enumerate(subsets):
        q = p_i.copy()
        for j in subset:
            q = q + ks[j] if j == 0 else q - ks[j]
        qs[:, col] = q
    metric = np.array([1.0, -1.0, -1.0, -1.0])
    denom = np.einsum('nsi,nsi->sn', qs * metric, qs) - mass * mass
    # one slash for every four-vector: the internal momenta, then each
    # photon's polarizations, moved to (4, 4, vector, N)
    slashed = np.ascontiguousarray(slash_batch(
        np.concatenate([qs] + list(eps_arrays), axis=1)).transpose(2, 3, 1, 0))
    props = ((slashed[:, :, :n_sub] + mass * IDENTITY4[..., None, None])
             / denom).transpose(2, 0, 1, 3)                     # (S, 4, 4, N)
    n_pols = [e.shape[1] for e in eps_arrays]
    bounds = np.cumsum([n_sub] + n_pols)
    slashed = [np.ascontiguousarray(slashed[:, :, lo:hi])
               for lo, hi in zip(bounds[:-1], bounds[1:])]      # (4, 4, P, N)

    # per photon j, every operator ending in its vertex in one product:
    # S(used) eps_j for each used set holding j, and ubar eps_j (the last
    # vertex folded into the final-spinor rows)
    ops = {}
    exit_ops = []
    for j in range(n):
        used = [i for i, subset in enumerate(subsets) if j in subset]
        rows = np.concatenate([props[used].reshape(-1, 4, n_pts), ubar])
        folded = _apply(rows[:, :, None],
                        slashed[j].reshape(4, -1, n_pts)).reshape(
            (-1,) + slashed[j].shape[1:])               # (r, 4, P, N)
        for k, i in enumerate(used):
            ops[frozenset(subsets[i]), j] = folded[4 * k:4 * k + 4]
        exit_ops.append(folded[4 * len(used):])

    total = np.zeros(tuple(n_pols) + (2, 2, n_pts), dtype=complex)
    # path[d]: (4, pol_xi(d-1) * ... * pol_xi(0) * r_i, N) after d vertices
    path = [u_cols]
    for order, key, axes in _walk_plan(n):
        depth = len(order)
        del path[depth:]
        if key is not None:
            path.append(_apply(ops[key], path[-1]).reshape(4, -1, n_pts))
            continue
        amp = _apply(exit_ops[order[-1]], path[-1]).reshape(
            (2,) + tuple(n_pols[t] for t in reversed(order)) + (2, n_pts))
        total += amp.transpose(axes)
    total *= mass ** (n - 1)
    return np.ascontiguousarray(np.moveaxis(total, -1, 0))


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
