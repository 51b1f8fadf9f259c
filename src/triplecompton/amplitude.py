"""Invariant amplitudes for one absorbed photon and n emitted photons.

The amplitude is a coherent sum over every insertion order of the photon
lines on the electron line,

    M = m^n  sum_xi  ubar(p_f) eslash_xi(n) S(q_n) ... S(q_1) eslash_xi(0) u(p_i),

with S(q) = (qslash + m)/(q^2 - m^2) and intermediate momenta built by adding
the absorbed photon momentum (index 0) and subtracting emitted ones in the
order given by the permutation xi.  n = 3 gives the photon-splitting process
(24 permutations); n = 2 and n = 1 run on the same machinery (6 and 2
permutations) and feed the two-photon and one-photon cross sections.

``amplitude_tensor`` is the one evaluation engine: it builds the sum over
orders from subset currents (Berends-Giele recursion) over stacked
phase-space points.  The current of a set of photons is the electron line
after absorbing or emitting exactly those photons, in every order; it is
built once from the currents one photon smaller and shared by every order
that starts with that set.  The cost grows as (n+1) 2^(n+1) vertex
applications rather than (n+1)! chains: for n = 3, 14 currents and 4 exit
contractions instead of 24 chains.  Inside it the point axis is last, so
applying an operator takes a few whole-array operations rather than one
small matrix product per point.  A polarization vector with zero time
component, as every basis vector is, slashes to two off-diagonal 2x2 Pauli
blocks, so each photon vertex is applied as those blocks alone, without
the half of the 4x4 product that multiplies exact zeros; the result is the
same to the bit.  It raises on a propagator pole itself.
``point_amplitude`` runs it at one point for any number of emitted
photons, with each given polarization four-vector as a length-1 basis,
after checking the spin labels and the final electron's mass shell.
Four-vectors are float arrays (t, x, y, z) in MeV.  An independent
term-by-term reference lives with the tests.
"""
from __future__ import annotations

import itertools
import numbers

import numpy as np

from .algebra import (IDENTITY4, POLE_GUARD, PropagatorPoleError,
                      check_labels, check_on_shell, dirac_spinor_bar_batch,
                      dirac_spinor_batch, slash_batch)
from .kinematics import CollisionSetup


def point_amplitude(setup: CollisionSetup, photons, p_f, eps, r_i: int = 1,
                    r_f: int = 1) -> complex:
    """Amplitude at one point: emitted photon momenta ``photons``, final
    electron momentum p_f and electron spin labels r_i, r_f.

    eps holds one polarization four-vector per photon, the absorbed photon's
    first; any four-vectors are accepted there, so gauge tests can put
    eps -> k.  An off-shell p_f raises OffShellError; the rest, the pole
    check included, is amplitude_tensor with each eps a length-1 axis.
    """
    check_labels(r_i, r_f)
    check_on_shell(p_f, setup.mass)
    tensor = amplitude_tensor(
        setup, np.asarray(photons, float).reshape(-1, 1, 4),
        np.asarray(p_f)[None], [np.asarray(e)[None, None] for e in eps])
    return complex(tensor.reshape(2, 2)[r_i - 1, r_f - 1])


def beam_basis_arrays(n_pts: int, beam_pol=None) -> np.ndarray:
    """Polarization vectors of the +z beam photon as an (N, P, 4) array.

    beam_pol None gives the basis, x then y (P = 2), for sums over the beam
    polarization.  A label 1 or 2 (any integral type) gives that basis
    vector alone, and a transverse (ex, ey) pair of finite components with
    non-zero norm gives the normalized vector (P = 1).  Anything else
    raises ValueError.
    """
    basis = [(1.0, 0.0), (0.0, 1.0)]     # x, y
    if beam_pol is None:
        vectors = basis
    elif isinstance(beam_pol, numbers.Integral):
        check_labels(beam_pol)
        vectors = [basis[beam_pol - 1]]
    else:
        try:
            vec = np.asarray(beam_pol, dtype=float)
        except (TypeError, ValueError):
            vec = np.empty(0)
        norm = np.hypot(*vec) if vec.shape == (2,) else np.nan
        if not 0.0 < norm < np.inf:
            raise ValueError("beam polarization vector must be two finite "
                             f"components, not both zero: got {beam_pol!r}")
        vectors = [vec / norm]
    out = np.zeros((n_pts, len(vectors), 4))
    out[:, :, 1:3] = vectors
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


def _apply(op: np.ndarray, state: np.ndarray, before: int = 1) -> np.ndarray:
    """op (r, 4, P, N) on state (4, M, N) -> (r, A, P, M / A, N), A = before.

    The operator's P axis lands after the first ``before`` entries of the
    state's flattened M axis, which keeps polarization axes in photon order.
    """
    state = state.reshape(4, before, -1, state.shape[-1])
    return np.add.reduce(op[:, :, None, :, None] * state[None, :, :, None],
                         axis=1)


# eslash's two off-diagonal 2x2 blocks by column c, upper rows first: entry
# [c, h, i] is eslash[2h + i, 2(1 - h) + c]
_BLOCK_ROWS = np.array([[[0, 1], [2, 3]], [[0, 1], [2, 3]]])
_BLOCK_COLS = np.array([[[2, 2], [0, 0]], [[3, 3], [1, 1]]])


def _vertex(vertex: tuple, state: np.ndarray, before: int) -> np.ndarray:
    """eslash on state (4, M, N) -> (2, 2, A, P, M / A, N), A = before.

    vertex is (blocks, diag).  blocks[c], (2, 2, 1, P, 1, N), holds column
    c of eslash's two off-diagonal 2x2 blocks, the upper rows' block first;
    each block acts on the other half of the state, so the halves are
    swapped.  diag, (2, 1, 1, P, 1, N), holds eslash's diagonal (t, -t) and
    is None where t is zero at every point.
    """
    halves = state.reshape(2, 2, before, 1, -1, state.shape[-1])
    blocks, diag = vertex
    out = blocks[0] * halves[::-1, None, 0]
    out += blocks[1] * halves[::-1, None, 1]
    if diag is not None:
        out += diag * halves
    return out


def amplitude_tensor(setup: CollisionSetup, k_out: np.ndarray,
                     p_f: np.ndarray, eps_arrays: list) -> np.ndarray:
    """Amplitudes for every polarization label and spin at stacked points.

    k_out: (n_out, N, 4) emitted photon four-momenta; the absorbed photon's,
    p_i and the mass come from setup.  eps_arrays: per photon, the absorbed
    one first, (N, P, 4) polarization four-vectors, normally the P = 2
    basis.  Returns a complex array (N, P, ..., P, 2, 2): one polarization
    axis per photon (photon order), then r_i, then r_f.  Raises
    PropagatorPoleError if any |q^2 - m^2| is below POLE_GUARD m^2.

    The amplitude is linear in each polarization vector, so a polarized
    beam needs no contraction afterwards: ``beam_basis_arrays`` hands the
    beam photon its own vector (P = 1), and only sums over the beam
    polarization pass both basis vectors.  Each polarization entry is
    computed on its own, so a basis vector alone gives the same amplitudes,
    to the bit, as its slice of the P = 2 tensor.

    Inside, the point axis is last and contiguous: spinors, slashed
    polarizations and propagators are (4, 4, ..., N) stacks, and applying
    an operator is a broadcast multiply and a sum over the contracted
    spinor index for all points at once.

    Photon vertices use the Dirac representation's block form.  With
    eps = (t, e) and sigma.e the 2x2 Pauli combination,

        eslash = [[t, -sigma.e], [sigma.e, -t]],

    so the upper half of eslash J is -sigma.e times J's lower half and the
    lower half is sigma.e times its upper half: ``_vertex`` swaps the
    halves and applies one 2x2 block to each.  Each row sums the same two
    non-zero terms in the same order as the full 4x4 product, whose other
    two terms are exact zeros, so the term order is kept on purpose: every
    amplitude with t = 0 equals the 4x4 product's to the bit, and results
    recorded from it are reproduced exactly.  The basis vectors all have
    t = 0 exactly.  The diagonal term is added, after the blocks, only for
    a photon whose t is non-zero at some point of the batch, which happens
    only in gauge tests (eps -> k); at the rows where t = 0 it adds exact
    zeros.  Propagators and the exit contraction ubar eslash_j stay full
    4x4 products: they have no zero blocks.

    The sum over insertion orders is built from subset currents (F. A.
    Berends, W. T. Giele, Nucl. Phys. B306 (1988) 759): J(empty) = u(p_i)
    and, for every proper subset S of the photons,

        J(S) = S(p_i + k_S) sum_{j in S} eslash_j J(S - {j}),

    with k_S the momentum S brings in (k_0 added, emitted photons
    subtracted), kept as a (4, pol..., r_i, N) stack with S's polarization
    axes in photon order; then M = m^(n-1) sum_j (ubar eslash_j) J(all -
    {j}).  Each current is built once and shared by every order whose first
    |S| vertices are S, so the cost grows as n 2^n in the number n of
    photon lines rather than as n!.  Every operation is elementwise along
    the point axis, so a row's result does not depend on the other rows or
    on N.
    """
    k_out = np.asarray(k_out, float)
    n, n_pts = k_out.shape[0] + 1, k_out.shape[1]
    k_0, mass = setup.k_0, setup.mass
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
            q = q + k_0 if j == 0 else q - k_out[j - 1]
        qs[:, col] = q
    metric = np.array([1.0, -1.0, -1.0, -1.0])
    denom = np.einsum('nsi,nsi->sn', qs * metric, qs) - mass * mass
    if (np.abs(denom) < POLE_GUARD * mass * mass).any():
        raise PropagatorPoleError(f"propagator pole: |q^2 - m^2| = "
                                  f"{np.abs(denom).min():.6e} MeV^2")
    # one slash for every four-vector: the internal momenta, then each
    # photon's polarizations, moved to (4, 4, vector, N)
    vectors = np.concatenate([qs] + list(eps_arrays), axis=1)
    slashed = np.ascontiguousarray(slash_batch(vectors).transpose(2, 3, 1, 0))
    props = ((slashed[:, :, :n_sub] + mass * IDENTITY4[..., None, None])
             / denom).transpose(2, 0, 1, 3)[:, :, :, None]     # (S, 4, 4, 1, N)
    eslash = slashed[:, :, n_sub:]
    # the exit vertices ubar eslash, (2, 4, vector, N), and each eslash as
    # its off-diagonal blocks by column, (c, upper/lower, row, 1, P, 1, N)
    exit_ops = _apply(ubar[:, :, None], eslash.reshape(4, -1, n_pts)).reshape(
        (2,) + eslash.shape[1:])
    timelike = vectors[:, n_sub:, 0].any(axis=0).tolist()
    n_pols = [e.shape[1] for e in eps_arrays]
    vertices, exits, lo = [], [], 0
    for n_pol in n_pols:
        pols = slice(lo, lo + n_pol)
        blocks = eslash[_BLOCK_ROWS, _BLOCK_COLS, pols]
        diag = (eslash[[0, 2], [0, 2], None, None, pols, None]
                if any(timelike[pols]) else None)
        vertices.append((blocks[:, :, :, None, :, None], diag))
        exits.append(exit_ops[:, :, pols])
        lo += n_pol
    # every operator above is a copy: free the slab of all slashed vectors
    # before the currents grow
    del slashed, eslash

    def vertex_sum(apply, ops, mask):
        """sum over photons j in mask of ops[j] J(mask - {j}), (r M, N)."""
        total, before = None, 1
        for j in range(n):
            if mask >> j & 1:
                term = apply(ops[j], currents[mask ^ 1 << j], before)
                term = term.reshape(-1, n_pts)
                if total is None:
                    total = term
                else:
                    total += term
                before *= n_pols[j]
        return total

    # J(S) by bit mask of S, (4, M, N).  J(S) is read only while the
    # currents one photon larger are built, so each size's currents replace
    # the last; the exits read the largest, J(all - {j}).
    masks = [sum(1 << j for j in subset) for subset in subsets]
    currents = {0: u_cols}
    for size in range(1, n):
        currents = {mask: _apply(props[col], vertex_sum(
            _vertex, vertices, mask)).reshape(4, -1, n_pts)
            for col, mask in enumerate(masks) if mask.bit_count() == size}
    total = vertex_sum(_apply, exits, (1 << n) - 1).reshape(
        (2,) + tuple(n_pols) + (2, n_pts))
    total *= mass ** (n - 1)
    return np.ascontiguousarray(total.transpose(
        (n + 2,) + tuple(range(1, n + 1)) + (n + 1, 0)))

