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
the half of the 4x4 product that multiplies exact zeros; each propagator
is applied as its two diagonal scalars and one 2x2 Pauli block, built once
per call.  Both give the same amplitudes to the bit as the 4x4 products.
It raises on a propagator pole itself.

The electron spin sum is paid once.  In the Dirac representation A =
gamma^0 gamma^1 gamma^3 is real, A gamma^mu* A^-1 = gamma^mu, gamma^0 A^-1
= A^T gamma^0, and the spinors obey A u_1(p)* = -u_2(p) and A u_2(p)* =
u_1(p).  So for any chain built from real four-vectors, real momenta and
real (linear) polarizations,

    M(r_i=2, r_f=2) = conj M(1, 1),    M(2, 1) = -conj M(1, 2),

at every point and for every polarization entry.  The kernel builds the
r_i = 1 currents alone and writes the r_i = 2 half from this identity;
a complex polarization array raises ValueError.  The r_i = 1 half is the
same to the bit as a direct evaluation; the r_i = 2 half differs from one
by rounding alone, relative to a point's largest amplitude at most 6e-16
at rest and, at collider kinematics, where the direct evaluation loses
digits, median 1e-9 and at most 1e-5 over 2955 sampled triple points.
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

from .algebra import (POLE_GUARD, PropagatorPoleError, check_labels,
                      check_on_shell, dirac_spinor_bar_batch,
                      dirac_spinor_batch, slash_batch)
from .constants import ELECTRON_MASS_MEV
from .kinematics import CollisionSetup


def point_amplitude(setup: CollisionSetup, photons, p_f, eps, r_i: int = 1,
                    r_f: int = 1) -> complex:
    """Amplitude at one point: emitted photon momenta ``photons``, final
    electron momentum p_f and electron spin labels r_i, r_f.

    eps holds one polarization four-vector per photon, the absorbed photon's
    first; any real four-vectors are accepted there, so gauge tests can put
    eps -> k, and a complex one raises ValueError.  An off-shell p_f raises
    OffShellError; the rest, the pole check included, is amplitude_tensor
    with each eps a length-1 axis.
    """
    check_labels(r_i, r_f)
    check_on_shell(p_f)
    tensor = amplitude_tensor(
        setup, np.asarray(photons, float).reshape(-1, 1, 4),
        np.asarray(p_f)[None], [np.asarray(e)[None, None] for e in eps])
    return complex(tensor.reshape(2, 2)[r_i - 1, r_f - 1])


def beam_basis_arrays(beam_pol=None) -> np.ndarray:
    """Polarization vectors of the +z beam photon as a (1, P, 4) array,
    the same at every point.

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
    out = np.zeros((1, len(vectors), 4))
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
    """op (r, 4, P, N) on state (4, M, N) -> (r, A P M / A, N), A = before.

    The operator's P axis lands after the first ``before`` entries of the
    state's M axis, which keeps polarization axes in photon order.  Either
    point axis may be 1, broadcast against the other's N.
    """
    _, m_in, n_pts = state.shape
    state = state.reshape(4, before, m_in // before, n_pts)
    out = np.add.reduce(op[:, :, None, :, None] * state[None, :, :, None],
                        axis=1)
    return out.reshape(op.shape[0], m_in * op.shape[2], -1)


# eslash's two off-diagonal 2x2 blocks by column c, upper rows first: entry
# [c, h, i] is eslash[2h + i, 2(1 - h) + c]
_BLOCK_ROWS = np.array([[[0, 1], [2, 3]], [[0, 1], [2, 3]]])
_BLOCK_COLS = np.array([[[2, 2], [0, 0]], [[3, 3], [1, 1]]])


def _vertex_op(eslash: np.ndarray, timelike: bool) -> tuple:
    """One photon's slashed polarizations (4, 4, P, N or 1) as _vertex's
    (blocks, diag); diag is kept only if timelike, when some t is non-zero.
    """
    blocks = eslash[_BLOCK_ROWS, _BLOCK_COLS][:, :, :, None, :, None]
    diag = eslash[[0, 2], [0, 2], None, None, :, None] if timelike else None
    return blocks, diag


def _vertex(vertex: tuple, state: np.ndarray, before: int) -> np.ndarray:
    """eslash on state (4, M, N) -> (4, A P M / A, N), A = before.

    vertex is (blocks, diag).  blocks[c], (2, 2, 1, P, 1, N or 1), holds
    column c of eslash's two off-diagonal 2x2 blocks, the upper rows' block
    first; each block acts on the other half of the state, so the halves
    are swapped.  diag, (2, 1, 1, P, 1, N or 1), holds eslash's diagonal
    (t, -t) and is None where t is zero at every point.
    """
    _, m_in, n_pts = state.shape
    halves = state.reshape(2, 2, before, 1, m_in // before, n_pts)
    blocks, diag = vertex
    out = blocks[0] * halves[::-1, None, 0]
    out += blocks[1] * halves[::-1, None, 1]
    if diag is not None:
        out += diag * halves
    return out.reshape(4, m_in * blocks.shape[4], n_pts)


def _propagators(qs: np.ndarray, denom: np.ndarray) -> list:
    """S(q) = (qslash + m)/denom for internal momenta qs (N, S, 4) and their
    denom = q^2 - m^2 (S, N) as _propagate's 2x2 blocks, one per column.

    With r = 1/denom, which is what numpy's complex-by-real division
    multiplies by, every entry is the same double as the 4x4 matrix's.
    """
    r, m = 1.0 / denom, ELECTRON_MASS_MEV
    t, x, y, z = np.ascontiguousarray(qs.transpose(2, 1, 0))
    x, y, z = x * r, y * r, z * r
    sigma = np.empty((qs.shape[1], 2, 2, 1, qs.shape[0]), complex)
    sigma[:, 0, 0, 0], sigma[:, 0, 1, 0] = z, x + 1j * y
    sigma[:, 1, 0, 0], sigma[:, 1, 1, 0] = x - 1j * y, -z
    return list(zip((t + m) * r, (m - t) * r, sigma))


def _propagate(prop: tuple, state: np.ndarray) -> np.ndarray:
    """S(q) on state (4, M, N) -> (4, M, N).

    prop is (d_up, d_lo, sigma): the diagonals (t + m) r and (m - t) r,
    (N,), and sigma.q r by column, (c, row, 1, N), with r = 1/(q^2 - m^2),
    so that S(q) = [[d_up, -sigma.q r], [sigma.q r, d_lo]].  Each row sums
    its non-zero terms in the column order of the 4x4 product.
    """
    d_up, d_lo, sigma = prop
    out = np.empty(state.shape, complex)
    upper, lower = out[:2], out[2:]
    np.multiply(d_up, state[:2], out=upper)
    upper -= sigma[0] * state[2]
    upper -= sigma[1] * state[3]
    np.multiply(sigma[0], state[0], out=lower)
    lower += sigma[1] * state[1]
    lower += d_lo * state[2:]
    return out


def amplitude_tensor(setup: CollisionSetup, k_out: np.ndarray,
                     p_f: np.ndarray, eps_arrays: list) -> np.ndarray:
    """Amplitudes for every polarization label and spin at stacked points.

    k_out: (n_out, N, 4) emitted photon four-momenta; the absorbed photon's
    and p_i come from setup, and m is ELECTRON_MASS_MEV.  eps_arrays: per
    photon, the absorbed one first, (N, P, 4) polarization four-vectors,
    normally the P = 2 basis.  Each photon's point axis may instead be 1,
    (1, P, 4), independently of the others: a point axis of 1 means the
    same vectors at every point, as for the beam photon and at fixed
    detector directions, and gives the same amplitudes, to the bit, as the
    vectors repeated at every point.  Returns a complex
    array (N, P, ..., P, 2, 2): one polarization axis per photon (photon
    order), then r_i, then r_f.  Raises PropagatorPoleError if any |q^2 -
    m^2| is below POLE_GUARD m^2, and ValueError if any eps array is
    complex: the vectors must be real for the conjugation below.

    The amplitude is linear in each polarization vector, so a polarized
    beam needs no contraction afterwards: ``beam_basis_arrays`` hands the
    beam photon its own vector (P = 1), and only sums over the beam
    polarization pass both basis vectors.  Each polarization entry is
    computed on its own, so a basis vector alone gives the same amplitudes,
    to the bit, as its slice of the P = 2 tensor.

    Inside, the point axis is last and contiguous: spinors, slashed
    polarizations and propagator blocks are (..., N) stacks, and applying
    an operator is a few broadcast multiplies and sums for all points at
    once.  p_i and u_1(p_i) are built once and broadcast along the point
    axis.  The photons' vectors are slashed together at one point axis, 1
    only if every photon's is 1, so shared vectors are slashed once and
    their vertex blocks broadcast too, each product the same double either
    way.  A batch of N = 0 points gives an empty (0, P, ..., 2, 2) tensor.

    Photon vertices use the Dirac representation's block form.  With
    eps = (t, e) and sigma.e the 2x2 Pauli combination,

        eslash = [[t, -sigma.e], [sigma.e, -t]],

    so the upper half of eslash J is -sigma.e times J's lower half and the
    lower half is sigma.e times its upper half: ``_vertex`` swaps the
    halves and applies one 2x2 block to each.  Each row sums the same two
    non-zero terms as the full 4x4 product, whose other two terms are exact
    zeros, so every amplitude with t = 0 equals the 4x4 product's to the
    bit, and results recorded from it are reproduced exactly (a sum of two
    terms does not depend on their order).  The basis vectors all have
    t = 0 exactly.  The diagonal term is added, after the blocks, only for
    a photon whose t is non-zero at some point of the batch, which happens
    only in gauge tests (eps -> k); at the rows where t = 0 it adds exact
    zeros.

    Propagators take the same block form.  With q = (t, q) and r = 1/(q^2
    - m^2),

        S(q) = [[(t + m) r, -sigma.q r], [sigma.q r, (m - t) r]],

    so ``_propagators`` builds, once per call, two diagonal scalars and one
    2x2 block per internal momentum instead of a 4x4 matrix, and
    ``_propagate`` writes the upper half (t + m) r J_up - sigma.q r J_lo and
    the lower half sigma.q r J_up + (m - t) r J_lo into one output.  numpy
    divides a complex number by a real one by multiplying with its
    reciprocal, so every entry is the same double as (qslash + m)/(q^2 -
    m^2), and each row sums its three non-zero terms in the column order of
    the 4x4 product: the amplitudes are the same to the bit.  Only the
    exit contraction ubar eslash_j stays a full 4x4 product.

    The sum over insertion orders is built from subset currents (F. A.
    Berends, W. T. Giele, Nucl. Phys. B306 (1988) 759): J(empty) =
    u_1(p_i) and, for every proper subset S of the photons,

        J(S) = S(p_i + k_S) sum_{j in S} eslash_j J(S - {j}),

    with k_S the momentum S brings in (k_0 added, emitted photons
    subtracted), kept as a (4, pol..., N) stack with S's polarization axes
    in photon order; then M(1, r_f) = m^(n-1) sum_j (ubar_r_f eslash_j)
    J(all - {j}).  Each current is built once and shared by every order
    whose first |S| vertices are S, so the cost grows as n 2^n in the
    number n of photon lines rather than as n!.  The r_i = 2 entries are
    then M(2, 1) = -conj M(1, 2) and M(2, 2) = conj M(1, 1) (module
    docstring), so the currents carry one spinor column instead of two.
    Every operation is elementwise along the point axis, so a row's result
    does not depend on the other rows or on N.
    """
    if any(np.iscomplexobj(e) for e in eps_arrays):
        raise ValueError("polarization four-vectors must be real: the "
                         "r_i = 2 amplitudes are built by conjugation")
    k_out = np.asarray(k_out, float)
    n, n_pts = k_out.shape[0] + 1, k_out.shape[1]
    p_i, k_0, m = setup.p_i, setup.k_0, ELECTRON_MASS_MEV
    u_1 = np.broadcast_to(dirac_spinor_batch(p_i)[:, :1, None],
                          (4, 1, n_pts))
    ubar = dirac_spinor_bar_batch(np.asarray(p_f)).transpose(1, 2, 0)

    # every internal momentum p_i + k_0 - ..., one per proper subset
    subsets = [subset for size in range(1, n)
               for subset in itertools.combinations(range(n), size)]
    n_sub = len(subsets)
    qs = np.empty((n_pts, n_sub, 4))
    for col, subset in enumerate(subsets):
        q = p_i
        for j in subset:
            q = q + k_0 if j == 0 else q - k_out[j - 1]
        qs[:, col] = q
    metric = np.array([1.0, -1.0, -1.0, -1.0])
    denom = np.einsum('nsi,nsi->sn', qs * metric, qs) - m * m
    if (np.abs(denom) < POLE_GUARD * m * m).any():
        raise PropagatorPoleError(f"propagator pole: |q^2 - m^2| = "
                                  f"{np.abs(denom).min():.6e} MeV^2")
    props = _propagators(qs, denom)
    # each photon's slashed polarizations, (4, 4, vector, N or 1), and the
    # exit vertices ubar eslash, (2, 4, vector, N)
    lead = np.broadcast_shapes(*(e.shape[:1] for e in eps_arrays))
    vectors = np.concatenate(
        [np.broadcast_to(e, lead + e.shape[1:]) for e in eps_arrays], axis=1)
    n_vec = vectors.shape[1]
    eslash = np.ascontiguousarray(slash_batch(vectors).transpose(2, 3, 1, 0))
    exit_ops = _apply(ubar[:, :, None], eslash.reshape(4, 4 * n_vec, -1)
                      ).reshape(2, 4, n_vec, -1)
    timelike = vectors[..., 0].any(axis=0).tolist()
    n_pols = [e.shape[1] for e in eps_arrays]
    vertices, exits, lo = [], [], 0
    for n_pol in n_pols:
        pols = slice(lo, lo + n_pol)
        vertices.append(_vertex_op(eslash[:, :, pols], any(timelike[pols])))
        exits.append(exit_ops[:, :, pols])
        lo += n_pol
    # every operator above is a copy: free the slashed vectors before the
    # currents grow
    del eslash

    def vertex_sum(apply, ops, mask):
        """sum over photons j in mask of ops[j] J(mask - {j}), (r M, N)."""
        total, before = None, 1
        for j in range(n):
            if mask >> j & 1:
                term = apply(ops[j], currents[mask ^ 1 << j], before)
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
    currents = {0: u_1}
    for size in range(1, n):
        currents = {mask: _propagate(props[col], vertex_sum(
            _vertex, vertices, mask))
            for col, mask in enumerate(masks) if mask.bit_count() == size}
    total = vertex_sum(_apply, exits, (1 << n) - 1).reshape(
        (2,) + tuple(n_pols) + (n_pts,))
    total *= m ** (n - 1)
    # the r_i = 2 half by the spin-flip identity (module docstring)
    out = np.empty((n_pts,) + tuple(n_pols) + (2, 2), complex)
    out[..., 0, :] = total.transpose((n + 1,) + tuple(range(1, n + 1)) + (0,))
    out[..., 1, 0] = -out[..., 0, 1].conj()
    out[..., 1, 1] = out[..., 0, 0].conj()
    return out

